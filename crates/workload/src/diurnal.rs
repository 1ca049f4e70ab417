//! Diurnal load profiles.
//!
//! §7.2 of the paper: contention (and traffic volume) shows clear diurnal
//! patterns, with a pronounced increase — 27.6 % on average for RegA-High —
//! between hours 4 and 10 local time. The paper notes DC diurnal peaks
//! need not align with local user activity (background service tasks, user
//! geography), which is why the busy window sits in the early morning.

/// A 24-hour multiplicative load profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Diurnal {
    weights: [f64; 24],
}

impl Diurnal {
    /// The deployment-like profile: a smooth bump peaking in hours 4–10,
    /// lifting load by roughly 25–30 % at the peak relative to the trough.
    pub fn meta_like() -> Self {
        let mut weights = [1.0f64; 24];
        for (h, w) in weights.iter_mut().enumerate() {
            // Raised cosine centered at hour 7 with a half-width of ~6h.
            let dist = {
                let d = (h as f64 - 7.0).abs();
                d.min(24.0 - d)
            };
            let bump = if dist <= 6.0 {
                0.28 * (0.5 + 0.5 * (std::f64::consts::PI * dist / 6.0).cos())
            } else {
                0.0
            };
            *w = 1.0 + bump;
        }
        Diurnal { weights }
    }

    /// The load multiplier for `hour` (0–23).
    pub fn weight(&self, hour: usize) -> f64 {
        self.weights[hour % 24]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_like_peaks_in_busy_window() {
        let d = Diurnal::meta_like();
        let peak = d.weight(7);
        assert!((0..24).all(|h| d.weight(h) <= peak));
        // ~27.6% busy-hour increase (paper, §7.2): allow 15-35%.
        let mean =
            |hours: &[usize]| hours.iter().map(|&h| d.weight(h)).sum::<f64>() / hours.len() as f64;
        let busy: Vec<usize> = (4..=10).collect();
        let offpeak: Vec<usize> = (0..24).filter(|h| !busy.contains(h)).collect();
        let lift = mean(&busy) / mean(&offpeak) - 1.0;
        assert!((0.15..=0.35).contains(&lift), "lift {lift}");
    }

    #[test]
    fn hours_wrap() {
        let d = Diurnal::meta_like();
        assert_eq!(d.weight(25), d.weight(1));
    }
}
