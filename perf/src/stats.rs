//! Order statistics, regression bounds and the A/B verdict rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) so the spreads this tool prints are the
//! spreads the acceptance driver computes from the same values.

/// Median, quartiles and sample count of one metric's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile distance as a percentage of the median (0 when the
    /// median is 0 or there is a single sample).
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs() * 100.0
        }
    }
}

/// A metric value for a table: six significant digits whether it is a
/// 200 ns set-up or ten million rows per second.
pub fn sig6(v: f64) -> String {
    if v == 0.0 {
        String::from("0")
    } else if (1e-3..1e7).contains(&v.abs()) {
        let decimals = (5 - v.abs().log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.5e}")
    }
}

/// Summarizes `values` (any order). One sample is its own quartiles.
///
/// # Panics
/// On an empty slice or a NaN: both are bugs in the caller, never data.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    if n == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n,
        };
    }
    // statistics.quantiles, method="exclusive", n=4.
    let cut = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A regression bound `max(rel × base, abs)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the base median (the figure stored in `BENCHMARK.json`).
    pub rel: f64,
    /// Absolute floor in the metric's unit, so tiny bases are not judged
    /// on timer noise.
    pub abs: f64,
}

impl Bound {
    /// The largest change of `base` that still counts as "within".
    pub fn allowed(&self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.abs)
    }
}

/// Outcome of comparing one metric on one workload between two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The choosing-metrics §6.5 rule: compare medians against the bound;
/// where the run-to-run spread is wider than the bound the result is
/// unresolved unless every value of one side beats every value of the
/// other.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let allowed = bound.allowed(sa.median);
    // Positive = b is worse than a.
    let worse_by = match better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    let by_median = if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Within
    };
    let spread = (sa.q3 - sa.q1).max(sb.q3 - sb.q1);
    if spread <= allowed {
        return by_median;
    }
    let (min_a, max_a) = min_max(a);
    let (min_b, max_b) = min_max(b);
    let b_all_better = match better {
        Better::Lower => max_b < min_a,
        Better::Higher => min_b > max_a,
    };
    let b_all_worse = match better {
        Better::Lower => min_b > max_a,
        Better::Higher => max_b < min_a,
    };
    if b_all_better || b_all_worse {
        by_median
    } else {
        Verdict::Unresolved
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn sig6_keeps_six_digits_at_any_magnitude() {
        assert_eq!(sig6(0.0), "0");
        assert_eq!(sig6(0.5), "0.500000");
        assert_eq!(sig6(12.3456789), "12.3457");
        assert_eq!(sig6(2_971.317), "2971.32");
        assert_eq!(sig6(2.35e-7), "2.35000e-7");
        assert_eq!(sig6(10_774_778.7), "1.07748e7");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert!((s.spread_pct() - 100.0).abs() < 1e-9);
        assert_eq!(summarize(&[0.0, 0.0]).spread_pct(), 0.0);
    }

    #[test]
    fn bound_is_the_larger_of_relative_and_absolute() {
        let b = Bound {
            rel: 0.10,
            abs: 0.02,
        };
        assert!((b.allowed(1.0) - 0.10).abs() < 1e-12);
        assert!((b.allowed(0.05) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let bound = Bound {
            rel: 0.10,
            abs: 0.0,
        };
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.20];
        let same = [1.02, 1.03, 1.01, 1.02, 1.02];
        assert_eq!(verdict(&a, &slower, Better::Lower, bound), Verdict::Worse);
        assert_eq!(verdict(&slower, &a, Better::Lower, bound), Verdict::Better);
        assert_eq!(verdict(&a, &same, Better::Lower, bound), Verdict::Within);
        // Throughput: higher is better, so the same numbers flip.
        assert_eq!(verdict(&a, &slower, Better::Higher, bound), Verdict::Better);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_but_separated_ones_are_not() {
        let bound = Bound {
            rel: 0.05,
            abs: 0.0,
        };
        let noisy_a = [1.0, 1.4, 0.8, 1.2, 1.0];
        let noisy_b = [1.1, 1.5, 0.9, 1.3, 1.1];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, bound),
            Verdict::Unresolved
        );
        // Same spread, but every b beats every a: the claim stands.
        let fast_b = [0.5, 0.7, 0.4, 0.6, 0.5];
        assert_eq!(
            verdict(&noisy_a, &fast_b, Better::Lower, bound),
            Verdict::Better
        );
    }
}
