//! Dimension-bearing integer newtypes shared across the simulator.
//!
//! The paper's measurement stack works in exact integer units — ktime
//! nanoseconds and byte counters per 1 ms window — and the simulator's
//! determinism bar (same seed ⇒ byte-identical traces) only holds if
//! scheduling-relevant arithmetic never runs through floats or silently
//! mixes dimensions. [`Bytes`] and [`Bps`] give volumes and rates distinct
//! types so a rate can't be added to a volume by accident: mixing
//! dimensions is a compile error, not a lint finding.
//!
//! `Ns` (simulation time) lives in `ms_dcsim::time`; the physics that mixes
//! the three dimensions — serialization time, drain volume — lives there
//! too, as `Ns::tx_time(Bytes, Bps)` and `Ns::bytes_at_rate(Bps)`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A byte count — a data volume, never a rate and never a duration.
///
/// Plain `u64` arithmetic semantics (add/sub panic on overflow in debug,
/// like the rest of the simulator's counters), plus saturating/checked
/// variants for paths fed by untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);
    /// The largest representable volume; used as an "unlimited" cap.
    pub const MAX: Bytes = Bytes(u64::MAX);

    /// Constructs from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Constructs from whole kibibytes (1024 B).
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib.saturating_mul(1024))
    }

    /// Constructs from whole mebibytes (1024² B).
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib.saturating_mul(1024 * 1024))
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This volume in bits (`None` on overflow — volumes near `u64::MAX`
    /// bytes don't fit in `u64` bits).
    pub const fn checked_bits(self) -> Option<u64> {
        self.0.checked_mul(8)
    }

    /// Saturating subtraction: zero when `rhs > self`.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Absolute difference.
    pub const fn abs_diff(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.abs_diff(rhs.0))
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, rhs: Bytes) -> Option<Bytes> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Bytes(v)),
            None => None,
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| Bytes(a.0.saturating_add(b.0)))
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 && b % (1024 * 1024) == 0 {
            write!(f, "{}MiB", b / (1024 * 1024))
        } else if b >= 1024 && b % 1024 == 0 {
            write!(f, "{}KiB", b / 1024)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A link or pacing rate in bits per second.
///
/// Rates are configuration, not accumulators: there is deliberately no
/// `Add`/`Sub` between rates (summing link rates is almost always a unit
/// bug), only scaling by dimensionless factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bps(pub u64);

impl Bps {
    /// Constructs from raw bits per second.
    pub const fn new(bps: u64) -> Self {
        Bps(bps)
    }

    /// Constructs from whole gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bps(gbps.saturating_mul(1_000_000_000))
    }

    /// Raw bits per second.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is a usable (positive) rate.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Scales the rate by `num/den` (e.g. headroom factors). Exact
    /// integer arithmetic with a `u128` intermediate, truncating.
    pub const fn scale(self, num: u64, den: u64) -> Bps {
        assert!(den > 0, "scale denominator must be positive");
        Bps((self.0 as u128 * num as u128 / den as u128) as u64)
    }
}

impl Mul<u64> for Bps {
    type Output = Bps;
    fn mul(self, rhs: u64) -> Bps {
        Bps(self.0 * rhs)
    }
}

impl Div<u64> for Bps {
    type Output = Bps;
    fn div(self, rhs: u64) -> Bps {
        Bps(self.0 / rhs)
    }
}

impl fmt::Display for Bps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000 && bps % 1_000_000_000 == 0 {
            write!(f, "{}Gbps", bps / 1_000_000_000)
        } else if bps >= 1_000_000 && bps % 1_000_000 == 0 {
            write!(f, "{}Mbps", bps / 1_000_000)
        } else {
            write!(f, "{bps}bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors_and_accessors() {
        assert_eq!(Bytes::from_kib(1), Bytes(1024));
        assert_eq!(Bytes::from_mib(4), Bytes(4 * 1024 * 1024));
        assert_eq!(Bytes(1500).as_u64(), 1500);
        assert_eq!(Bytes(3).checked_bits(), Some(24));
        assert_eq!(Bytes::MAX.checked_bits(), None);
    }

    #[test]
    fn byte_arithmetic() {
        assert_eq!(Bytes(100) + Bytes(50), Bytes(150));
        assert_eq!(Bytes(100) - Bytes(50), Bytes(50));
        assert_eq!(Bytes(5).saturating_sub(Bytes(10)), Bytes::ZERO);
        assert_eq!(Bytes(5).abs_diff(Bytes(12)), Bytes(7));
        assert_eq!(Bytes::MAX.saturating_add(Bytes(1)), Bytes::MAX);
        assert_eq!(Bytes::MAX.checked_add(Bytes(1)), None);
        assert_eq!(Bytes(100) * 3, Bytes(300));
        assert_eq!(Bytes(100) / 3, Bytes(33));
        let total: Bytes = [Bytes(1), Bytes(2), Bytes(3)].into_iter().sum();
        assert_eq!(total, Bytes(6));
    }

    #[test]
    fn byte_display() {
        assert_eq!(format!("{}", Bytes(120)), "120B");
        assert_eq!(format!("{}", Bytes(120 * 1024)), "120KiB");
        assert_eq!(format!("{}", Bytes(4 * 1024 * 1024)), "4MiB");
        assert_eq!(format!("{}", Bytes(1500)), "1500B");
    }

    #[test]
    fn bps_constructors_and_scale() {
        assert_eq!(Bps::from_gbps(12), Bps(12_000_000_000));
        assert_eq!(Bps::from_gbps(25).scale(1, 2), Bps(12_500_000_000));
        assert_eq!(Bps::from_gbps(10).scale(3, 4), Bps(7_500_000_000));
        assert!(Bps(1).is_positive());
        assert!(!Bps::default().is_positive());
    }

    #[test]
    fn bps_display() {
        assert_eq!(format!("{}", Bps::from_gbps(25)), "25Gbps");
        assert_eq!(format!("{}", Bps(500_000_000)), "500Mbps");
        assert_eq!(format!("{}", Bps(12_500_000_000)), "12500Mbps");
        assert_eq!(format!("{}", Bps(42)), "42bps");
    }
}
