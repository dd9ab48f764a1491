//! Order statistics for the harness: nearest-rank percentiles, quartiles,
//! and the rule that a tail is reported only when the sample supports it.
//!
//! A percentile `q` of `n` samples is *supported* when at least
//! [`MIN_BEYOND`] samples lie beyond its rank. With fewer, the figure is
//! one of a handful of extreme values and moves with every scheduler
//! hiccup, so [`Sample::tail`] refuses it instead of printing noise.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles [`Sample::supported_tail`] chooses among, ascending.
pub const TAILS: [f64; 5] = [0.50, 0.75, 0.90, 0.95, 0.99];

/// A percentile the sample is too small to support.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsupportedTail {
    /// The percentile asked for, in `[0, 1]`.
    pub q: f64,
    /// Samples held.
    pub count: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

impl std::fmt::Display for UnsupportedTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{:.0} of {} samples has {} beyond it (needs {MIN_BEYOND})",
            self.q * 100.0,
            self.count,
            self.beyond
        )
    }
}

/// A finite sample, sorted ascending once at construction.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample.
    ///
    /// # Panics
    /// Panics on a NaN: every value here is a measured duration or count.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in a sample");
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of percentile `q`: the smallest rank with at
    /// least `q·n` samples at or below it. `None` on an empty sample.
    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        (n > 0).then(|| ((n as f64 * q).ceil() as usize).clamp(1, n))
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`. `None` on an empty sample.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.rank(q).map(|r| self.sorted[r - 1])
    }

    /// The median (nearest rank). `None` on an empty sample.
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// First quartile, median and third quartile (nearest rank).
    pub fn quartiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.percentile(0.25)?,
            self.percentile(0.5)?,
            self.percentile(0.75)?,
        ))
    }

    /// Samples strictly beyond percentile `q`'s rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.rank(q).map_or(0, |r| self.sorted.len() - r)
    }

    /// The highest percentile of [`TAILS`] with at least [`MIN_BEYOND`]
    /// samples beyond it, or `None` when not even the median has that many.
    pub fn supported_tail(&self) -> Option<f64> {
        TAILS
            .iter()
            .rev()
            .copied()
            .find(|&q| self.beyond(q) >= MIN_BEYOND)
    }

    /// Percentile `q`, refused when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn tail(&self, q: f64) -> Result<f64, UnsupportedTail> {
        let beyond = self.beyond(q);
        match self.percentile(q) {
            Some(v) if beyond >= MIN_BEYOND => Ok(v),
            _ => Err(UnsupportedTail {
                q,
                count: self.count(),
                beyond,
            }),
        }
    }
}

/// Smallest sample size for which percentile `q` is supported.
pub fn min_count_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((n as f64 * q).ceil() as usize).clamp(1, n) >= MIN_BEYOND)
        .expect("some finite sample supports any q < 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Sample {
        Sample::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = one_to(100);
        assert_eq!(s.count(), 100);
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(0.90), Some(90.0));
        assert_eq!(s.percentile(0.99), Some(99.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        // odd count: the middle element, not an interpolation
        assert_eq!(one_to(5).median(), Some(3.0));
        assert_eq!(one_to(4).median(), Some(2.0));
    }

    #[test]
    fn quartiles_of_a_known_sample() {
        assert_eq!(one_to(8).quartiles(), Some((2.0, 4.0, 6.0)));
        assert_eq!(one_to(1).quartiles(), Some((1.0, 1.0, 1.0)));
    }

    #[test]
    fn empty_sample_has_no_statistics() {
        let s = Sample::new(Vec::new());
        assert_eq!(s.count(), 0);
        assert_eq!(s.median(), None);
        assert_eq!(s.quartiles(), None);
        assert_eq!(s.beyond(0.5), 0);
        assert_eq!(s.supported_tail(), None);
        assert!(s.tail(0.5).is_err());
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        let s = one_to(100);
        assert_eq!(s.beyond(0.90), 10);
        assert_eq!(s.beyond(0.95), 5);
        assert_eq!(one_to(99).beyond(0.90), 9);
    }

    #[test]
    fn supported_tail_needs_ten_beyond() {
        assert_eq!(one_to(19).supported_tail(), None);
        assert_eq!(one_to(20).supported_tail(), Some(0.50));
        assert_eq!(one_to(99).supported_tail(), Some(0.75));
        assert_eq!(one_to(100).supported_tail(), Some(0.90));
        assert_eq!(one_to(200).supported_tail(), Some(0.95));
        assert_eq!(one_to(1000).supported_tail(), Some(0.99));
    }

    #[test]
    fn tail_refuses_what_the_sample_cannot_support() {
        assert_eq!(one_to(100).tail(0.90), Ok(90.0));
        let refused = one_to(99).tail(0.90).unwrap_err();
        assert_eq!((refused.count, refused.beyond), (99, 9));
        assert!(refused.to_string().contains("p90 of 99 samples"));
        assert!(one_to(100).tail(0.95).is_err());
    }

    #[test]
    fn min_count_matches_the_rule() {
        assert_eq!(min_count_for(0.50), 20);
        assert_eq!(min_count_for(0.90), 100);
        assert_eq!(min_count_for(0.95), 200);
        for q in TAILS {
            let n = min_count_for(q);
            assert!(one_to(n).tail(q).is_ok());
            assert!(one_to(n - 1).tail(q).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        Sample::new(vec![1.0, f64::NAN]);
    }
}
