//! Simulation time.
//!
//! All simulation time is kept in integer nanoseconds ([`Ns`]). Integer time
//! makes event ordering exact and the simulation reproducible: there is no
//! floating-point drift, and two events scheduled for "the same time" compare
//! equal rather than almost-equal.

use ms_units::{Bps, Bytes};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulation time, or a duration, in nanoseconds.
///
/// `Ns` is deliberately a single type for both instants and durations —
/// the simulator's arithmetic is simple enough that the instant/duration
/// distinction adds more ceremony than safety, and this mirrors how the
/// paper's eBPF filter works with raw `ktime` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// Zero time — the start of every simulation.
    pub const ZERO: Ns = Ns(0);
    /// The largest representable time; used as an "infinite" deadline.
    pub const MAX: Ns = Ns(u64::MAX);

    /// Constructs from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Ns(ns)
    }

    /// Constructs from whole microseconds, saturating at [`Ns::MAX`].
    pub const fn from_micros(us: u64) -> Self {
        Ns(us.saturating_mul(1_000))
    }

    /// Constructs from whole milliseconds, saturating at [`Ns::MAX`].
    pub const fn from_millis(ms: u64) -> Self {
        Ns(ms.saturating_mul(1_000_000))
    }

    /// Constructs from whole seconds, saturating at [`Ns::MAX`].
    pub const fn from_secs(s: u64) -> Self {
        Ns(s.saturating_mul(1_000_000_000))
    }

    /// Constructs from whole microseconds, `None` if the value does not
    /// fit in `u64` nanoseconds. Use for externally supplied durations
    /// (scenario decode paths) where saturation would mask bad input.
    pub const fn checked_from_micros(us: u64) -> Option<Ns> {
        match us.checked_mul(1_000) {
            Some(v) => Some(Ns(v)),
            None => None,
        }
    }

    /// Checked variant of [`Ns::from_millis`]; see [`Ns::checked_from_micros`].
    pub const fn checked_from_millis(ms: u64) -> Option<Ns> {
        match ms.checked_mul(1_000_000) {
            Some(v) => Some(Ns(v)),
            None => None,
        }
    }

    /// Checked variant of [`Ns::from_secs`]; see [`Ns::checked_from_micros`].
    pub const fn checked_from_secs(s: u64) -> Option<Ns> {
        match s.checked_mul(1_000_000_000) {
            Some(v) => Some(Ns(v)),
            None => None,
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float, for reporting only (never for event math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    pub const fn saturating_sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, rhs: Ns) -> Option<Ns> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Ns(v)),
            None => None,
        }
    }

    /// The transmission (serialization) time of `bytes` at `rate`.
    ///
    /// Rounds up to the next nanosecond so that back-to-back packets never
    /// serialize faster than line rate due to truncation.
    pub fn tx_time(bytes: Bytes, rate: Bps) -> Ns {
        debug_assert!(rate.is_positive(), "link rate must be positive");
        let bits = bytes.as_u64() as u128 * 8 * 1_000_000_000;
        Ns(bits.div_ceil(rate.as_u64() as u128) as u64)
    }

    /// How many bytes a link at `rate` drains in this duration
    /// (truncating, and saturating at `u64::MAX` bytes).
    pub fn bytes_at_rate(self, rate: Bps) -> Bytes {
        let bytes = u128::from(self.0) * u128::from(rate.as_u64()) / 8 / 1_000_000_000;
        Bytes(u64::try_from(bytes).unwrap_or(u64::MAX))
    }

    /// `self` as a multiple of `interval`, i.e. which sampling bucket this
    /// instant falls into given a bucket width. This is exactly the bucket
    /// computation the Millisampler tc filter performs per packet.
    pub const fn bucket_index(self, interval: Ns) -> u64 {
        self.0 / interval.0
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl SubAssign for Ns {
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Ns::from_secs(2), Ns::from_millis(2000));
        assert_eq!(Ns::from_millis(1), Ns::from_micros(1000));
        assert_eq!(Ns::from_micros(1), Ns::from_nanos(1000));
    }

    #[test]
    fn tx_time_at_line_rates() {
        // 1500 B at 12.5 Gbps = 960 ns exactly.
        assert_eq!(Ns::tx_time(Bytes(1500), Bps(12_500_000_000)), Ns(960));
        // 1500 B at 100 Gbps = 120 ns exactly.
        assert_eq!(Ns::tx_time(Bytes(1500), Bps::from_gbps(100)), Ns(120));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> must round up to a whole ns above 2.66e9.
        let t = Ns::tx_time(Bytes(1), Bps(3));
        assert_eq!(t, Ns(2_666_666_667));
    }

    #[test]
    fn bytes_at_rate_inverts_tx_time_approximately() {
        let rate = Bps(12_500_000_000);
        let t = Ns::tx_time(Bytes(1_000_000), rate);
        let b = t.bytes_at_rate(rate).as_u64();
        assert!((1_000_000..=1_000_001).contains(&b), "got {b}");
    }

    #[test]
    fn checked_constructors_reject_overflow() {
        assert_eq!(Ns::checked_from_micros(7), Some(Ns(7_000)));
        assert_eq!(Ns::checked_from_micros(u64::MAX / 999), None);
        assert_eq!(Ns::checked_from_millis(4), Some(Ns(4_000_000)));
        assert_eq!(Ns::checked_from_millis(u64::MAX / 999_999), None);
        assert_eq!(Ns::checked_from_secs(2), Some(Ns(2_000_000_000)));
        assert_eq!(Ns::checked_from_secs(u64::MAX / 999_999_999), None);
        // The saturating constructors clamp instead.
        assert_eq!(Ns::from_secs(u64::MAX / 2), Ns::MAX);
        // Each fails exactly one step past the last value that fits.
        for (unit, checked) in [
            (1_000, Ns::checked_from_micros as fn(u64) -> Option<Ns>),
            (1_000_000, Ns::checked_from_millis),
            (1_000_000_000, Ns::checked_from_secs),
        ] {
            let last = u64::MAX / unit;
            assert_eq!(checked(last), Some(Ns(last * unit)), "unit {unit}");
            assert_eq!(checked(last + 1), None, "unit {unit}");
        }
    }

    /// A whole day at the 12.5 Gb/s server link rate converts exactly,
    /// with no wrap in the u64 results or the u128 intermediates.
    #[test]
    fn day_horizon_at_link_rate_is_exact() {
        let day = Ns::from_secs(86_400);
        let rate = Bps(12_500_000_000);
        let volume = day.bytes_at_rate(rate);
        assert_eq!(volume, Bytes(135_000_000_000_000));
        assert_eq!(Ns::tx_time(volume, rate), day);
        assert_eq!(day.bucket_index(Ns::from_millis(1)), 86_400_000);
    }

    /// At 16 Gb/s a nanosecond drains exactly 2 bytes, so 2^63 − 1 ns is
    /// the last duration whose volume fits a u64; one ns more saturates
    /// rather than wrapping to 0.
    #[test]
    fn bytes_at_rate_saturates_one_step_past_u64() {
        let rate = Bps(16_000_000_000);
        let last = Ns((1 << 63) - 1);
        assert_eq!(last.bytes_at_rate(rate), Bytes(u64::MAX - 1));
        assert_eq!(Ns(1 << 63).bytes_at_rate(rate), Bytes(u64::MAX));
        // A decoded delay-driven spec at the extremes: 10^12 ns at
        // 10^18 b/s is 1.25·10^20 bytes.
        let cap = Ns(1_000_000_000_000).bytes_at_rate(Bps(1_000_000_000_000_000_000));
        assert_eq!(cap, Bytes(u64::MAX));
    }

    #[test]
    fn bucket_index_matches_filter_semantics() {
        let interval = Ns::from_millis(1);
        assert_eq!(Ns::from_micros(999).bucket_index(interval), 0);
        assert_eq!(Ns::from_millis(1).bucket_index(interval), 1);
        assert_eq!(Ns::from_micros(2500).bucket_index(interval), 2);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Ns(5).saturating_sub(Ns(10)), Ns::ZERO);
        assert_eq!(Ns(10).saturating_sub(Ns(5)), Ns(5));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Ns(12)), "12ns");
        assert_eq!(format!("{}", Ns(1500)), "1.500us");
        assert_eq!(format!("{}", Ns(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", Ns(3_500_000_000)), "3.500s");
    }
}
