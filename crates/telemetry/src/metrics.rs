//! The metrics registry: named gauges and log-linear histograms.
//!
//! Names are interned once (returning a copyable id) and values live in
//! plain `Vec`s, so iteration order is insertion order — deterministic by
//! construction, with no hash-ordered collections anywhere. Histogram
//! recording is bounded integer arithmetic (HDR-style log-linear buckets:
//! four linear sub-buckets per power-of-two octave), cheap enough for
//! per-packet use.

/// Interned id of a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Interned id of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 4;

/// Total bucket count: indices 0–3 are exact values 0–3; octaves 2..=63
/// contribute [`SUB_BUCKETS`] each, covering all of `u64`.
pub const NUM_BUCKETS: usize = 4 + 62 * SUB_BUCKETS;

/// A log-linear histogram of `u64` values.
///
/// Relative error is bounded by 1/[`SUB_BUCKETS`] (25 %) at any magnitude,
/// values 0–3 are exact, and the bucket count is a fixed 252 — the layout
/// used for queue depths, burst durations, and drop-run lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its fixed bucket array).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value falls into.
    ///
    /// `0..=3` map exactly; larger values index `4 + (e−2)·4 + sub` where
    /// `e = ⌊log₂ v⌋` and `sub` is the top two bits below the leading one.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value < 4 {
            return value as usize;
        }
        let e = 63 - (value.leading_zeros() as usize);
        4 + (e - 2) * SUB_BUCKETS + (((value >> (e - 2)) & 3) as usize)
    }

    /// Smallest value that lands in bucket `index` (the inverse of
    /// [`Histogram::bucket_index`]; used for export and tests).
    pub fn bucket_lower_bound(index: usize) -> u64 {
        if index < 4 {
            return index as u64;
        }
        let octave = (index - 4) / SUB_BUCKETS + 2;
        let sub = ((index - 4) % SUB_BUCKETS) as u64;
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// Records one observation. Bounded arithmetic; no allocation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// The lower bound of the bucket containing the `p`-quantile
    /// (`0.0 ≤ p ≤ 1.0`), 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lower_bound(i);
            }
        }
        Self::bucket_lower_bound(NUM_BUCKETS - 1)
    }

    /// `(bucket_lower_bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower_bound(i), c))
            .collect()
    }
}

/// Registry of named metrics with deterministic iteration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

fn intern<T>(table: &mut Vec<(String, T)>, name: &str, mk: impl FnOnce() -> T) -> usize {
    if let Some(i) = table.iter().position(|(n, _)| n == name) {
        return i;
    }
    table.push((name.to_string(), mk()));
    table.len() - 1
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(intern(&mut self.gauges, name, || 0))
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.0].1 = value;
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0].1
    }

    /// Interns (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        HistogramId(intern(&mut self.histograms, name, Histogram::new))
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// Whether nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// CSV export: `kind,name,field,value` rows in registration order.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},value,{v}");
        }
        for (name, h) in &self.histograms {
            for (field, v) in [
                ("count", h.total()),
                ("sum", h.sum()),
                ("min", h.min()),
                ("max", h.max()),
                ("p50", h.percentile(0.50)),
                ("p90", h.percentile(0.90)),
                ("p99", h.percentile(0.99)),
                ("p999", h.percentile(0.999)),
            ] {
                let _ = writeln!(out, "histogram,{name},{field},{v}");
            }
        }
        out
    }

    /// JSON export (deterministic member order = registration order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v}", escape_json(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                escape_json(name),
                h.total(),
                h.sum(),
                h.min(),
                h.max(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.percentile(0.999),
            );
            for (j, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}[{lo},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal (shared with
/// the Perfetto exporter's metadata strings).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_then_log_linear() {
        // Values 0..=3 map to their own buckets.
        for v in 0..4u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_lower_bound(v as usize), v);
        }
        // First log-linear octave: 4,5,6,7 each get a bucket.
        for v in 4..8u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
        }
        // Octave [8,16): sub-buckets at 8,10,12,14.
        assert_eq!(Histogram::bucket_index(8), 8);
        assert_eq!(Histogram::bucket_index(9), 8);
        assert_eq!(Histogram::bucket_index(10), 9);
        assert_eq!(Histogram::bucket_index(15), 11);
        assert_eq!(Histogram::bucket_lower_bound(8), 8);
        assert_eq!(Histogram::bucket_lower_bound(9), 10);
        assert_eq!(Histogram::bucket_lower_bound(11), 14);
        // Largest representable value stays in range.
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_and_lower_bound_are_consistent() {
        // lower_bound(i) must itself fall in bucket i, and one less than
        // the next bucket's lower bound must too (bucket ranges tile).
        for i in 0..NUM_BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower bound of {i}");
            if i + 1 < NUM_BUCKETS {
                let next_lo = Histogram::bucket_lower_bound(i + 1);
                assert!(next_lo > lo, "bounds must be strictly increasing");
                assert_eq!(Histogram::bucket_index(next_lo - 1), i, "top of {i}");
            }
        }
    }

    #[test]
    fn relative_error_bounded_by_quarter() {
        for v in [5u64, 100, 1_000, 123_456, 1 << 40] {
            let lo = Histogram::bucket_lower_bound(Histogram::bucket_index(v));
            assert!(lo <= v);
            assert!(
                (v - lo) as f64 <= v as f64 * 0.25 + 1.0,
                "value {v} lo {lo}"
            );
        }
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 26);
        assert_eq!(h.percentile(0.5), 2);
        // p100 lands in 100's bucket, whose lower bound is 96.
        assert_eq!(h.percentile(1.0), 96);
    }

    #[test]
    fn percentiles_at_exact_bucket_boundaries() {
        // 1000 observations of values 1..=1000: every value ≤ 3 is exact,
        // larger ones land at their bucket's lower bound.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 → rank 500 → value 500, bucket [448, 512) lower bound 448.
        assert_eq!(Histogram::bucket_index(500), Histogram::bucket_index(448));
        assert_eq!(h.percentile(0.50), 448);
        // p99 → rank 990 → value 990, bucket [896, 1024) lower bound 896.
        assert_eq!(h.percentile(0.99), 896);
        // p999 → rank 999 → value 999, same bucket as 990.
        assert_eq!(h.percentile(0.999), 896);
        // p0 clamps to rank 1 → value 1 (exact bucket).
        assert_eq!(h.percentile(0.0), 1);
        // p100 → rank 1000 → value 1000, bucket lower bound 896.
        assert_eq!(h.percentile(1.0), 896);
    }

    #[test]
    fn percentile_rank_boundary_between_two_exact_buckets() {
        // Two observations: rank math must not round across the boundary.
        let mut h = Histogram::new();
        h.record(1);
        h.record(2);
        // p50 → rank exactly 1 → first value.
        assert_eq!(h.percentile(0.50), 1);
        // Anything above 0.5 crosses into the second value's bucket.
        assert_eq!(h.percentile(0.51), 2);
        assert_eq!(h.percentile(0.999), 2);
    }

    #[test]
    fn csv_and_json_exports_carry_p999() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("fct");
        for v in 1..=100u64 {
            m.observe(h, v);
        }
        let csv = m.to_csv();
        assert!(csv.contains("histogram,fct,p999,"));
        let json = m.to_json();
        assert!(json.contains("\"p999\":"));
        assert!(crate::perfetto::validate_json(&json).is_ok());
    }

    #[test]
    fn registry_interns_by_name() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("depth");
        assert_eq!(g, m.gauge("depth"));
        m.set_gauge(g, 9);
        m.set_gauge(g, 4);
        assert_eq!(m.gauge_value(g), 4);
    }

    #[test]
    fn exports_are_deterministic_and_ordered() {
        let build = || {
            let mut m = MetricsRegistry::new();
            let g = m.gauge("z_first");
            m.set_gauge(g, 1);
            let g = m.gauge("a_second");
            m.set_gauge(g, 2);
            let h = m.histogram("depth");
            m.observe(h, 10);
            m.observe(h, 1000);
            m
        };
        let (m1, m2) = (build(), build());
        assert_eq!(m1.to_csv(), m2.to_csv());
        assert_eq!(m1.to_json(), m2.to_json());
        // Insertion order, not alphabetical.
        let csv = m1.to_csv();
        let z = csv.find("z_first").unwrap();
        let a = csv.find("a_second").unwrap();
        assert!(z < a);
        let json = m1.to_json();
        assert!(json.contains("\"depth\":{\"count\":2"));
        assert!(crate::perfetto::validate_json(&json).is_ok());
    }

    #[test]
    fn json_escapes_metric_names() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("weird\"name\\x");
        m.set_gauge(g, 1);
        let json = m.to_json();
        assert!(crate::perfetto::validate_json(&json).is_ok(), "{json}");
    }
}
