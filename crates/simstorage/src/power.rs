//! Disk-enclosure power model and energy accounting.
//!
//! A disk enclosure has the paper's three externally visible power modes
//! (§II.B.1) — **Active** (powered, executing I/O), **Idle** (powered, no
//! I/O), **Power off** — plus the transient **SpinUp** state that gives the
//! Power-off mode its cost: turning a powered-off enclosure back on takes a
//! fixed time and a burst of energy.
//!
//! The **break-even time** (§II.B.2) falls out of the model: the interval
//! length at which powering off exactly ties with staying idle,
//!
//! ```text
//! idle_w · T  =  off_w · (T − t_up) + spinup_w · t_up
//!           T  =  t_up · (spinup_w − off_w) / (idle_w − off_w)
//! ```
//!
//! The default parameters are calibrated so that `T ≈ 52 s`, the value the
//! paper measured on its Hitachi AMS 2500 test bed (Table II).

use ees_iotrace::Micros;

/// Externally visible power mode of a disk enclosure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerMode {
    /// Powered on and executing I/O; the highest-draw mode.
    Active,
    /// Powered on, no I/O in flight.
    Idle,
    /// Spinning the HDDs up after a power-off; draws a large burst.
    SpinUp,
    /// Powered off; only residual electronics draw power.
    Off,
}

/// Per-state power draw and spin-up characteristics of one disk enclosure
/// (15 × 7200 rpm SATA HDD, RAID-6, fans and PSU included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclosurePowerModel {
    /// Draw while executing I/O, in watts.
    pub active_watts: f64,
    /// Draw while powered but idle, in watts.
    pub idle_watts: f64,
    /// Residual draw while powered off, in watts.
    pub off_watts: f64,
    /// Draw during spin-up, in watts.
    pub spin_up_watts: f64,
    /// Time to spin all HDDs up (staggered) after power-on.
    pub spin_up_time: Micros,
}

impl EnclosurePowerModel {
    /// Power model calibrated to the paper's test bed: a 15-HDD SATA
    /// enclosure whose break-even time is 52 s (Table II).
    pub const AMS2500: EnclosurePowerModel = EnclosurePowerModel {
        active_watts: 260.0,
        idle_watts: 210.0,
        off_watts: 12.0,
        spin_up_watts: 698.4,
        spin_up_time: Micros(15_000_000),
    };

    /// Draw in the given mode, in watts.
    pub fn watts(&self, mode: PowerMode) -> f64 {
        match mode {
            PowerMode::Active => self.active_watts,
            PowerMode::Idle => self.idle_watts,
            PowerMode::SpinUp => self.spin_up_watts,
            PowerMode::Off => self.off_watts,
        }
    }

    /// The break-even time: the idle-interval length at which powering off
    /// (and paying one spin-up) consumes exactly as much energy as staying
    /// idle. Intervals longer than this save energy when spent off.
    ///
    /// ```
    /// use ees_simstorage::EnclosurePowerModel;
    /// let be = EnclosurePowerModel::AMS2500.break_even_time();
    /// assert!((be.as_secs_f64() - 52.0).abs() < 0.05); // Table II
    /// ```
    pub fn break_even_time(&self) -> Micros {
        debug_assert!(
            self.idle_watts > self.off_watts,
            "off mode must draw less than idle for power-off to ever pay"
        );
        let t_up = self.spin_up_time.as_secs_f64();
        let t = t_up * (self.spin_up_watts - self.off_watts) / (self.idle_watts - self.off_watts);
        Micros::from_secs_f64(t)
    }

    /// Energy consumed by one spin-up, in joules.
    pub fn spin_up_energy(&self) -> f64 {
        self.spin_up_watts * self.spin_up_time.as_secs_f64()
    }

    /// Energy consumed spending an interval of length `gap` powered off,
    /// then spinning back up, in joules.
    pub fn energy_off_then_up(&self, gap: Micros) -> f64 {
        let off = gap.saturating_sub(self.spin_up_time).as_secs_f64() * self.off_watts;
        off + self.spin_up_energy()
    }

    /// Energy consumed spending an interval of length `gap` idle, in joules.
    pub fn energy_idle(&self, gap: Micros) -> f64 {
        gap.as_secs_f64() * self.idle_watts
    }
}

impl Default for EnclosurePowerModel {
    fn default() -> Self {
        Self::AMS2500
    }
}

/// Time-weighted energy integrator for one enclosure.
///
/// The enclosure's state machine reports contiguous segments spent in a
/// single mode; the meter accumulates exact `watts × seconds` per mode.
/// This is the simulator's substitute for the physical power meter the
/// paper attached to its storage unit (§VII.A.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// Total energy, joules.
    joules: f64,
    /// Time spent per mode.
    active: Micros,
    idle: Micros,
    spin_up: Micros,
    off: Micros,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a segment of `len` spent in `mode` under `model`.
    pub fn record(&mut self, model: &EnclosurePowerModel, mode: PowerMode, len: Micros) {
        self.joules += model.watts(mode) * len.as_secs_f64();
        match mode {
            PowerMode::Active => self.active += len,
            PowerMode::Idle => self.idle += len,
            PowerMode::SpinUp => self.spin_up += len,
            PowerMode::Off => self.off += len,
        }
    }

    /// Total energy so far, joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total accounted time across all modes.
    pub fn total_time(&self) -> Micros {
        self.active + self.idle + self.spin_up + self.off
    }

    /// Average draw over the accounted time, watts. Zero if nothing was
    /// recorded yet.
    pub fn average_watts(&self) -> f64 {
        let t = self.total_time().as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.joules / t
        }
    }

    /// Time spent in the given mode.
    pub fn time_in(&self, mode: PowerMode) -> Micros {
        match mode {
            PowerMode::Active => self.active,
            PowerMode::Idle => self.idle,
            PowerMode::SpinUp => self.spin_up,
            PowerMode::Off => self.off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_break_even_is_52s() {
        let be = EnclosurePowerModel::AMS2500.break_even_time();
        let secs = be.as_secs_f64();
        assert!(
            (secs - 52.0).abs() < 0.05,
            "break-even should calibrate to the paper's 52 s, got {secs}"
        );
    }

    #[test]
    fn watts_ordering_matches_paper() {
        let m = EnclosurePowerModel::default();
        // §II.B.1: Active is the highest of the three steady modes; idle
        // lower; off lowest. Spin-up is the costly transient.
        assert!(m.watts(PowerMode::Active) > m.watts(PowerMode::Idle));
        assert!(m.watts(PowerMode::Idle) > m.watts(PowerMode::Off));
        assert!(m.watts(PowerMode::SpinUp) > m.watts(PowerMode::Active));
    }

    #[test]
    fn off_beats_idle_only_beyond_break_even() {
        let m = EnclosurePowerModel::default();
        let be = m.break_even_time();
        let longer = be + Micros::from_secs(10);
        let shorter = be.saturating_sub(Micros::from_secs(10));
        assert!(m.energy_off_then_up(longer) < m.energy_idle(longer));
        assert!(m.energy_off_then_up(shorter) > m.energy_idle(shorter));
        // At exactly the break-even time the two strategies tie (within
        // the microsecond rounding of `break_even_time`).
        let diff = (m.energy_off_then_up(be) - m.energy_idle(be)).abs();
        assert!(diff < 0.01, "tie at break-even, diff = {diff} J");
    }

    #[test]
    fn spin_up_energy() {
        let m = EnclosurePowerModel::default();
        let expect = 698.4 * 15.0;
        assert!((m.spin_up_energy() - expect).abs() < 1e-6);
    }

    #[test]
    fn meter_integrates_by_mode() {
        let m = EnclosurePowerModel::default();
        let mut meter = EnergyMeter::new();
        meter.record(&m, PowerMode::Idle, Micros::from_secs(10));
        meter.record(&m, PowerMode::Active, Micros::from_secs(5));
        meter.record(&m, PowerMode::Off, Micros::from_secs(85));
        let expect = 210.0 * 10.0 + 260.0 * 5.0 + 12.0 * 85.0;
        assert!((meter.joules() - expect).abs() < 1e-9);
        assert_eq!(meter.total_time(), Micros::from_secs(100));
        assert!((meter.average_watts() - expect / 100.0).abs() < 1e-9);
        assert_eq!(meter.time_in(PowerMode::Idle), Micros::from_secs(10));
        assert_eq!(meter.time_in(PowerMode::SpinUp), Micros::ZERO);
    }

    #[test]
    fn empty_meter_average_is_zero() {
        assert_eq!(EnergyMeter::new().average_watts(), 0.0);
    }

    #[test]
    fn break_even_scales_with_spin_up_cost() {
        let mut m = EnclosurePowerModel::default();
        let base = m.break_even_time();
        m.spin_up_watts *= 2.0;
        assert!(
            m.break_even_time() > base,
            "costlier spin-up → longer break-even"
        );
        m.spin_up_watts = EnclosurePowerModel::default().spin_up_watts;
        m.idle_watts += 50.0;
        assert!(
            m.break_even_time() < base,
            "hungrier idle → shorter break-even"
        );
    }
}
