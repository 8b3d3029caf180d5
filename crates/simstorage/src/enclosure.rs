//! The disk enclosure: the paper's power-saving unit (§II.A).
//!
//! A [`DiskEnclosure`] combines the power model, the service model, and a
//! **timeout-driven spin-down** rule: when the policy has marked the
//! enclosure *eligible for power-off* (a "cold" enclosure in the paper's
//! terms) and its server has been idle for the spin-down timeout, it powers
//! off; the next I/O then pays the spin-up delay and energy.
//!
//! Accounting is **lazy and exact**: the enclosure carries a private clock
//! and replays the state machine piecewise whenever the simulation observes
//! it (`advance`), so no event queue is needed and every microsecond is
//! attributed to exactly one power mode.

use crate::hdd::{Access, ServiceModel};
use crate::power::{EnclosurePowerModel, EnergyMeter, PowerMode};
use ees_iotrace::{EnclosureId, IoKind, Micros};

/// Static configuration of one enclosure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclosureConfig {
    /// Usable volume capacity (Table II: 1.7 TB of volumes per enclosure).
    pub capacity_bytes: u64,
    /// Service-time model.
    pub service: ServiceModel,
    /// Power model.
    pub power: EnclosurePowerModel,
    /// Idle time after which an *eligible* enclosure powers off
    /// (Table II: 52 s, equal to the break-even time).
    pub spin_down_timeout: Micros,
}

impl EnclosureConfig {
    /// The test-bed enclosure of Table II / Fig. 5.
    pub fn ams2500() -> Self {
        let power = EnclosurePowerModel::AMS2500;
        EnclosureConfig {
            capacity_bytes: 1_700 * 1_000 * 1_000 * 1_000,
            service: ServiceModel::AMS2500,
            power,
            spin_down_timeout: power.break_even_time(),
        }
    }
}

/// Power status of the enclosure state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Powered on; active while the server is busy, idle otherwise.
    On,
    /// Spinning up; serving resumes at `until`.
    SpinUp { until: Micros },
    /// Powered off; the next I/O triggers a spin-up.
    Off,
}

/// Result of submitting one I/O to an enclosure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoOutcome {
    /// Response time seen by the issuer: power-on wait + queueing +
    /// service occupancy + access latency.
    pub response: Micros,
    /// The portion of the response spent waiting for the enclosure to
    /// finish powering on (zero when it was already on). Lets the replay
    /// engine coalesce one spin-up stall across the open-loop I/Os that
    /// arrive during it, approximating a closed-loop issuer.
    pub power_wait: Micros,
    /// Whether this I/O found the enclosure powered off and triggered a
    /// spin-up (§V.D counts these for the pattern-change trigger).
    pub triggered_spin_up: bool,
}

/// Cumulative counters of one enclosure over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnclosureStats {
    /// I/Os served.
    pub ios: u64,
    /// Read I/Os served.
    pub reads: u64,
    /// Write I/Os served.
    pub writes: u64,
    /// Bytes moved by regular I/O.
    pub bytes: u64,
    /// Bytes moved by bulk transfers (migration / preload / flush).
    pub bulk_bytes: u64,
    /// Spin-ups performed (on-demand and proactive).
    pub spin_ups: u64,
}

/// One simulated disk enclosure.
#[derive(Debug, Clone)]
pub struct DiskEnclosure {
    id: EnclosureId,
    cfg: EnclosureConfig,
    /// `cfg.service`'s (occupancy, latency) of one request, evaluated
    /// once per `[access][kind]` instead of per I/O.
    service_times: [[(Micros, Micros); 2]; 2],
    /// Policy decision: may this enclosure power off when idle?
    eligible_off: bool,
    status: Status,
    /// Time up to which energy has been attributed.
    clock: Micros,
    /// Foreground server drain time; queueing applies here.
    busy_until: Micros,
    /// Background (bulk-transfer) drain time: migrations, preloads, and
    /// flushes keep the enclosure active but do not delay foreground I/O
    /// (the run-time method throttles them "so as to not influence the
    /// applications' performance", §V.A).
    bg_until: Micros,
    meter: EnergyMeter,
    stats: EnclosureStats,
    used_bytes: u64,
    /// Power-status transition log: one entry per Off / SpinUp / On
    /// change (not per active/idle flicker), for timeline analysis.
    status_log: Vec<(Micros, PowerMode)>,
}

impl DiskEnclosure {
    /// Creates a powered-on, idle enclosure at time zero, not eligible for
    /// power-off (the safe default every policy starts from).
    pub fn new(id: EnclosureId, cfg: EnclosureConfig) -> Self {
        let service_times = [Access::Random, Access::Sequential].map(|access| {
            [IoKind::Read, IoKind::Write].map(|kind| {
                (
                    cfg.service.occupancy(access, kind),
                    cfg.service.latency(access),
                )
            })
        });
        DiskEnclosure {
            id,
            cfg,
            service_times,
            eligible_off: false,
            status: Status::On,
            clock: Micros::ZERO,
            busy_until: Micros::ZERO,
            bg_until: Micros::ZERO,
            meter: EnergyMeter::new(),
            stats: EnclosureStats::default(),
            used_bytes: 0,
            status_log: vec![(Micros::ZERO, PowerMode::Idle)],
        }
    }

    /// This enclosure's identifier.
    pub fn id(&self) -> EnclosureId {
        self.id
    }

    /// The static configuration.
    pub fn config(&self) -> &EnclosureConfig {
        &self.cfg
    }

    /// Attributes every microsecond in `[clock, t)` to a power mode,
    /// performing timeout spin-downs along the way.
    pub fn advance(&mut self, t: Micros) {
        debug_assert!(t >= self.clock, "time cannot run backwards");
        while self.clock < t {
            match self.status {
                Status::Off => {
                    self.meter
                        .record(&self.cfg.power, PowerMode::Off, t - self.clock);
                    self.clock = t;
                }
                Status::SpinUp { until } => {
                    let end = t.min(until);
                    self.meter
                        .record(&self.cfg.power, PowerMode::SpinUp, end - self.clock);
                    self.clock = end;
                    if self.clock >= until {
                        // Idle timer restarts at spin-up completion.
                        self.busy_until = self.busy_until.max(until);
                        self.bg_until = self.bg_until.max(until);
                        self.status = Status::On;
                        self.status_log.push((until, PowerMode::Idle));
                    }
                }
                Status::On => {
                    let drained = self.busy_until.max(self.bg_until);
                    if self.clock < drained {
                        let end = t.min(drained);
                        self.meter
                            .record(&self.cfg.power, PowerMode::Active, end - self.clock);
                        self.clock = end;
                        continue;
                    }
                    if self.eligible_off {
                        let off_at = drained + self.cfg.spin_down_timeout;
                        if off_at <= self.clock {
                            // Already idle past the timeout when eligibility
                            // arrived: power off without time passing.
                            self.status = Status::Off;
                            self.status_log.push((self.clock, PowerMode::Off));
                            continue;
                        }
                        if t >= off_at {
                            self.meter.record(
                                &self.cfg.power,
                                PowerMode::Idle,
                                off_at - self.clock,
                            );
                            self.clock = off_at;
                            self.status = Status::Off;
                            self.status_log.push((off_at, PowerMode::Off));
                            continue;
                        }
                    }
                    self.meter
                        .record(&self.cfg.power, PowerMode::Idle, t - self.clock);
                    self.clock = t;
                }
            }
        }
    }

    /// Ensures the enclosure is powered (spinning up if off) and returns
    /// the time at which it can serve I/O.
    fn ensure_powered(&mut self, t: Micros) -> (Micros, bool) {
        match self.status {
            Status::On => (t, false),
            Status::SpinUp { until } => (until, false),
            Status::Off => {
                let until = t + self.cfg.power.spin_up_time;
                self.status = Status::SpinUp { until };
                self.stats.spin_ups += 1;
                self.status_log.push((t, PowerMode::SpinUp));
                (until, true)
            }
        }
    }

    /// Submits one I/O arriving at time `t`.
    pub fn submit(&mut self, t: Micros, len: u32, kind: IoKind, access: Access) -> IoOutcome {
        self.advance(t);
        let (power_ready, triggered_spin_up) = self.ensure_powered(t);
        let start = self.busy_until.max(power_ready).max(t);
        let (occupancy, latency) = self.service_times[access as usize][kind as usize];
        self.busy_until = start + occupancy;

        self.stats.ios += 1;
        match kind {
            IoKind::Read => self.stats.reads += 1,
            IoKind::Write => self.stats.writes += 1,
        }
        self.stats.bytes += len as u64;

        IoOutcome {
            response: (start - t) + occupancy + latency,
            power_wait: power_ready.saturating_sub(t),
            triggered_spin_up,
        }
    }

    /// Performs a throttled bulk sequential transfer (migration, preload,
    /// or write-delay flush traffic) starting no earlier than `t`; returns
    /// the completion time. Keeps the enclosure active for the duration.
    pub fn bulk_transfer(&mut self, t: Micros, bytes: u64, _kind: IoKind) -> Micros {
        self.advance(t);
        let (power_ready, _) = self.ensure_powered(t);
        let start = self.bg_until.max(power_ready).max(t);
        let dur = self.cfg.service.bulk_transfer_time(bytes);
        self.bg_until = start + dur;
        self.stats.bulk_bytes += bytes;
        self.bg_until
    }

    /// Policy control: marks whether this enclosure may power off when
    /// idle. Revoking eligibility on a powered-off enclosure spins it up
    /// proactively — a "cold" enclosure promoted to "hot" must be ready to
    /// serve P3 items without on-demand spin-up stalls.
    pub fn set_eligible_off(&mut self, t: Micros, eligible: bool) {
        self.advance(t);
        self.eligible_off = eligible;
        if !eligible && self.status == Status::Off {
            let (_, _) = self.ensure_powered(t);
        }
    }

    /// Whether the policy currently allows this enclosure to power off.
    pub fn eligible_off(&self) -> bool {
        self.eligible_off
    }

    /// The power mode at the accounting clock.
    pub fn mode(&self) -> PowerMode {
        match self.status {
            Status::Off => PowerMode::Off,
            Status::SpinUp { .. } => PowerMode::SpinUp,
            Status::On => {
                if self.clock < self.busy_until.max(self.bg_until) {
                    PowerMode::Active
                } else {
                    PowerMode::Idle
                }
            }
        }
    }

    /// Closes accounting at the end of a run.
    pub fn finish(&mut self, t: Micros) {
        self.advance(t);
    }

    /// The energy meter (the attached "power meter" of §VII.A.3).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> &EnclosureStats {
        &self.stats
    }

    /// Bytes of data items currently placed on this enclosure.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.cfg.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Registers `bytes` of data placed onto this enclosure.
    ///
    /// # Panics
    /// Panics if the placement exceeds capacity — placement algorithms must
    /// check [`free_bytes`](Self::free_bytes) first.
    pub fn place_bytes(&mut self, bytes: u64) {
        assert!(
            bytes <= self.free_bytes(),
            "{}: placing {} bytes exceeds capacity ({} free)",
            self.id,
            bytes,
            self.free_bytes()
        );
        self.used_bytes += bytes;
    }

    /// Removes `bytes` of data from this enclosure (migration source side).
    pub fn remove_bytes(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.used_bytes, "removing more than placed");
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }

    /// Time the server will have drained all queued work.
    pub fn busy_until(&self) -> Micros {
        self.busy_until
    }

    /// The power-status transition log: `(time, mode)` entries for every
    /// Off / SpinUp / powered-on change, starting with the initial Idle
    /// state at time zero. Active/idle flicker while powered is not
    /// logged (use the [`meter`](Self::meter) for per-mode totals).
    pub fn status_log(&self) -> &[(Micros, PowerMode)] {
        &self.status_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> DiskEnclosure {
        DiskEnclosure::new(EnclosureId(0), EnclosureConfig::ams2500())
    }

    const SEC: Micros = Micros::SECOND;

    #[test]
    fn idle_enclosure_accumulates_idle_energy() {
        let mut e = enc();
        e.finish(Micros::from_secs(100));
        assert_eq!(e.meter().time_in(PowerMode::Idle), Micros::from_secs(100));
        assert!((e.meter().average_watts() - 210.0).abs() < 1e-6);
        assert_eq!(e.mode(), PowerMode::Idle);
    }

    #[test]
    fn ineligible_enclosure_never_powers_off() {
        let mut e = enc();
        e.finish(Micros::from_secs(10_000));
        assert_eq!(e.meter().time_in(PowerMode::Off), Micros::ZERO);
        assert_eq!(e.stats().spin_ups, 0);
    }

    #[test]
    fn eligible_enclosure_powers_off_after_timeout() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        e.finish(Micros::from_secs(152));
        // 52 s idle (timeout), then 100 s off.
        assert_eq!(e.meter().time_in(PowerMode::Idle), Micros::from_secs(52));
        assert_eq!(e.meter().time_in(PowerMode::Off), Micros::from_secs(100));
        assert_eq!(e.mode(), PowerMode::Off);
    }

    #[test]
    fn io_on_off_enclosure_pays_spin_up() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        let t = Micros::from_secs(500);
        let out = e.submit(t, 4096, IoKind::Read, Access::Random);
        assert!(out.triggered_spin_up);
        assert_eq!(e.stats().spin_ups, 1);
        // Response ≥ 15 s spin-up wait.
        assert!(
            out.response >= Micros::from_secs(15),
            "got {}",
            out.response
        );
        e.finish(Micros::from_secs(600));
        assert_eq!(e.meter().time_in(PowerMode::SpinUp), Micros::from_secs(15));
    }

    #[test]
    fn io_response_when_powered_and_free() {
        let mut e = enc();
        let out = e.submit(SEC, 64 * 1024, IoKind::Read, Access::Random);
        assert!(!out.triggered_spin_up);
        // occupancy 1/900 s + random latency ≈ 1.111 ms + 13.25 ms.
        let expect = Micros::from_secs_f64(1.0 / 900.0) + Micros(13_250);
        assert_eq!(out.response, expect);
    }

    #[test]
    fn precomputed_service_times_match_the_model() {
        let model = EnclosureConfig::ams2500().service;
        for access in [Access::Random, Access::Sequential] {
            for kind in [IoKind::Read, IoKind::Write] {
                let mut e = enc();
                let occupancy = model.occupancy(access, kind);
                let out = e.submit(SEC, 4096, kind, access);
                assert_eq!(
                    out.response,
                    occupancy + model.latency(access),
                    "{access:?} {kind:?}"
                );
                assert_eq!(e.busy_until(), SEC + occupancy, "{access:?} {kind:?}");
            }
        }
    }

    #[test]
    fn queueing_delays_back_to_back_ios() {
        let mut e = enc();
        let t = SEC;
        let first = e.submit(t, 4096, IoKind::Read, Access::Random);
        let second = e.submit(t, 4096, IoKind::Read, Access::Random);
        let occ = Micros::from_secs_f64(1.0 / 900.0);
        assert_eq!(second.response, first.response + occ);
    }

    #[test]
    fn busy_time_counts_as_active() {
        let mut e = enc();
        // 900 random reads issued at t=0 occupy exactly 1 s of server time.
        for _ in 0..900 {
            e.submit(Micros::ZERO, 4096, IoKind::Read, Access::Random);
        }
        e.finish(Micros::from_secs(10));
        let active = e.meter().time_in(PowerMode::Active);
        assert!(
            (active.as_secs_f64() - 1.0).abs() < 0.01,
            "expected ~1 s active, got {active}"
        );
        assert_eq!(
            e.meter().time_in(PowerMode::Idle),
            Micros::from_secs(10) - active
        );
    }

    #[test]
    fn idle_timer_restarts_after_spin_up() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        // Power off happens at 52 s; I/O at 500 s spins up (done at 515 s).
        e.submit(Micros::from_secs(500), 4096, IoKind::Read, Access::Random);
        // The enclosure must stay on until ~515 + 52 s, not re-off at once.
        e.finish(Micros::from_secs(530));
        assert_eq!(e.mode(), PowerMode::Idle);
        e.finish(Micros::from_secs(600));
        assert_eq!(e.mode(), PowerMode::Off);
        assert_eq!(e.stats().spin_ups, 1);
    }

    #[test]
    fn eligibility_arriving_past_timeout_powers_off_immediately() {
        let mut e = enc();
        // Idle (ineligible) for 1000 s, then the policy marks it cold.
        e.set_eligible_off(Micros::from_secs(1000), true);
        e.finish(Micros::from_secs(1001));
        assert_eq!(e.mode(), PowerMode::Off);
        // The past stays attributed to Idle; only the last second is Off.
        assert_eq!(e.meter().time_in(PowerMode::Idle), Micros::from_secs(1000));
        assert_eq!(e.meter().time_in(PowerMode::Off), Micros::from_secs(1));
    }

    #[test]
    fn revoking_eligibility_spins_up_proactively() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        e.advance(Micros::from_secs(200));
        assert_eq!(e.mode(), PowerMode::Off);
        e.set_eligible_off(Micros::from_secs(200), false);
        assert_eq!(e.stats().spin_ups, 1);
        e.finish(Micros::from_secs(300));
        assert_eq!(e.mode(), PowerMode::Idle);
        assert_eq!(e.meter().time_in(PowerMode::SpinUp), Micros::from_secs(15));
    }

    #[test]
    fn energy_matches_power_model_closed_form() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        let gap = Micros::from_secs(500);
        e.submit(gap, 4096, IoKind::Read, Access::Random);
        let m = EnclosurePowerModel::AMS2500;
        let be = m.break_even_time();
        e.finish(gap + m.spin_up_time);
        // idle till timeout (= break-even), off till the I/O, spin-up.
        let expect =
            m.energy_idle(be) + (gap - be).as_secs_f64() * m.off_watts + m.spin_up_energy();
        let got = e.meter().joules();
        // The 4 KiB I/O adds a sliver of active energy beyond the window.
        assert!(
            (got - expect).abs() / expect < 0.01,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn bulk_transfer_runs_in_background() {
        let mut e = enc();
        let done = e.bulk_transfer(SEC, 64 * 1024 * 2800, IoKind::Write);
        assert_eq!(done, SEC + SEC); // 2800 seq IOPS → 1 s for 2800 reqs
        assert_eq!(e.stats().bulk_bytes, 64 * 1024 * 2800);
        // Foreground I/O is NOT delayed by the throttled bulk work (§V.A).
        let out = e.submit(SEC, 4096, IoKind::Read, Access::Random);
        assert!(out.response < Micros::from_millis(20));
        // Back-to-back bulk transfers queue on the background channel.
        let second = e.bulk_transfer(SEC, 64 * 1024 * 2800, IoKind::Read);
        assert_eq!(second, SEC + SEC + SEC);
        // The enclosure stays active (and cannot power off) while the
        // bulk transfers drain.
        assert_eq!(e.mode(), PowerMode::Active);
        e.set_eligible_off(SEC, true);
        e.finish(Micros::from_secs(3));
        assert_eq!(e.meter().time_in(PowerMode::Off), Micros::ZERO);
        assert_eq!(e.meter().time_in(PowerMode::Active), Micros::from_secs(2));
    }

    #[test]
    fn capacity_accounting() {
        let mut e = enc();
        let cap = e.config().capacity_bytes;
        assert_eq!(e.free_bytes(), cap);
        e.place_bytes(1_000_000);
        assert_eq!(e.used_bytes(), 1_000_000);
        assert_eq!(e.free_bytes(), cap - 1_000_000);
        e.remove_bytes(400_000);
        assert_eq!(e.used_bytes(), 600_000);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_placement_panics() {
        let mut e = enc();
        e.place_bytes(e.config().capacity_bytes + 1);
    }

    #[test]
    fn status_log_records_power_cycles() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        e.submit(Micros::from_secs(500), 4096, IoKind::Read, Access::Random);
        e.finish(Micros::from_secs(700));
        let log = e.status_log();
        // idle@0 → off@52 → spin-up@500 → idle@515 → off@~567+.
        assert_eq!(log[0], (Micros::ZERO, PowerMode::Idle));
        assert_eq!(log[1], (Micros::from_secs(52), PowerMode::Off));
        assert_eq!(log[2], (Micros::from_secs(500), PowerMode::SpinUp));
        assert_eq!(log[3], (Micros::from_secs(515), PowerMode::Idle));
        assert_eq!(log[4].1, PowerMode::Off);
        assert!(log[4].0 > Micros::from_secs(567));
        // Timestamps are monotone.
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn spin_up_in_progress_delays_but_does_not_recount() {
        let mut e = enc();
        e.set_eligible_off(Micros::ZERO, true);
        let t = Micros::from_secs(200);
        let a = e.submit(t, 4096, IoKind::Read, Access::Random);
        let b = e.submit(t + SEC, 4096, IoKind::Read, Access::Random);
        assert!(a.triggered_spin_up);
        assert!(
            !b.triggered_spin_up,
            "second I/O hits the in-progress spin-up"
        );
        assert_eq!(e.stats().spin_ups, 1);
        // b waits the remaining 14 s of spin-up plus queueing.
        assert!(b.response >= Micros::from_secs(14));
    }
}
