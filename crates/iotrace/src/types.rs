//! Fundamental identifiers and units shared by every crate in the workspace.
//!
//! Simulated time is measured in integer **microseconds** ([`Micros`]) from
//! the start of a run; no wall-clock time ever enters the simulation, which
//! keeps every experiment bit-for-bit reproducible. Data sizes are plain
//! byte counts (`u64`).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in microseconds.
///
/// The paper's quantities of interest (break-even time, monitoring period,
/// I/O intervals) all live comfortably in a `u64` microsecond count:
/// `u64::MAX` microseconds is ~584 000 years.
///
/// ```
/// use ees_iotrace::Micros;
/// let break_even = Micros::from_secs(52);
/// let period = break_even * 10;
/// assert_eq!(period.as_secs_f64(), 520.0);
/// assert_eq!(period.mul_f64(1.2), Micros::from_secs(624)); // the paper's alpha
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero duration / the start of a run.
    pub const ZERO: Micros = Micros(0);
    /// One second.
    pub const SECOND: Micros = Micros(1_000_000);

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Builds a time from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            Micros(0)
        } else {
            Micros((s * 1e6).round() as u64)
        }
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two times.
    pub fn max(self, rhs: Micros) -> Micros {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, rhs: Micros) -> Micros {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Multiplies a duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> Micros {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        Micros((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<u64> for Micros {
    type Output = Micros;
    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// Identifier of a *data item*: a fragment of one application's data that
/// lives wholly on one disk enclosure (paper §II.C.1). A table, index, or
/// file that spans enclosures is split into one data item per enclosure by
/// the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItemId(pub u32);

impl fmt::Display for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// Identifier of a disk enclosure — the power-saving unit of the paper
/// (§II.A): a shelf of 15 RAID-6 HDDs that is powered on and off as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclosureId(pub u16);

impl fmt::Display for EnclosureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "enc#{}", self.0)
    }
}

/// Identifier of a logical volume exposed by the block-virtualization layer
/// to the file/record layer (paper §III, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VolumeId(pub u16);

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol#{}", self.0)
    }
}

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A read request.
    Read,
    /// A write request.
    Write,
}

impl IoKind {
    /// `true` for [`IoKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, IoKind::Read)
    }

    /// `true` for [`IoKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::Write)
    }
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoKind::Read => write!(f, "R"),
            IoKind::Write => write!(f, "W"),
        }
    }
}

/// Number of bytes in one kibibyte.
pub const KIB: u64 = 1024;
/// Number of bytes in one mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// Number of bytes in one tebibyte.
pub const TIB: u64 = 1024 * GIB;

/// Formats a byte count with a binary-prefix unit for reports.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= TIB {
        format!("{:.2} TiB", bytes as f64 / TIB as f64)
    } else if bytes >= GIB {
        format!("{:.2} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.2} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_roundtrips_seconds() {
        assert_eq!(Micros::from_secs(52), Micros(52_000_000));
        assert_eq!(Micros::from_secs(52).as_secs_f64(), 52.0);
        assert_eq!(Micros::from_millis(17), Micros(17_000));
    }

    #[test]
    fn micros_from_secs_f64_rounds_and_clamps() {
        assert_eq!(Micros::from_secs_f64(1.5), Micros(1_500_000));
        assert_eq!(Micros::from_secs_f64(-3.0), Micros::ZERO);
        assert_eq!(Micros::from_secs_f64(0.000_000_4), Micros(0));
        assert_eq!(Micros::from_secs_f64(0.000_000_6), Micros(1));
    }

    #[test]
    fn micros_arithmetic() {
        let a = Micros::from_secs(10);
        let b = Micros::from_secs(3);
        assert_eq!(a + b, Micros::from_secs(13));
        assert_eq!(a - b, Micros::from_secs(7));
        assert_eq!(b.saturating_sub(a), Micros::ZERO);
        assert_eq!(a * 2, Micros::from_secs(20));
        assert_eq!(a / 4, Micros(2_500_000));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn micros_mul_f64_rounds() {
        // The paper's alpha = 1.2 monitoring-period scaling.
        assert_eq!(Micros::from_secs(520).mul_f64(1.2), Micros::from_secs(624));
        assert_eq!(Micros(3).mul_f64(0.5), Micros(2)); // 1.5 rounds to 2
    }

    #[test]
    fn micros_display_picks_unit() {
        assert_eq!(Micros(12).to_string(), "12us");
        assert_eq!(Micros(12_000).to_string(), "12.000ms");
        assert_eq!(Micros::from_secs(52).to_string(), "52.000s");
    }

    #[test]
    fn io_kind_predicates() {
        assert!(IoKind::Read.is_read());
        assert!(!IoKind::Read.is_write());
        assert!(IoKind::Write.is_write());
        assert!(!IoKind::Write.is_read());
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2 * KIB), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * MIB), "3.00 MiB");
        assert_eq!(fmt_bytes(23 * GIB), "23.00 GiB");
        assert_eq!(fmt_bytes(3 * TIB), "3.00 TiB");
    }

    #[test]
    fn ids_display() {
        assert_eq!(DataItemId(7).to_string(), "item#7");
        assert_eq!(EnclosureId(2).to_string(), "enc#2");
        assert_eq!(VolumeId(4).to_string(), "vol#4");
    }
}
