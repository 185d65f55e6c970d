//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition on the sorted sample.  A
//! percentile is only *supported* when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, one slow outlier moves it, so the benchmark sizes
//! every phase to support the percentile it reports and checks that it did.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements (milliseconds, seconds, counts — the caller knows).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let sorted = self.sorted();
        rank_index(p, sorted.len()).map(|i| sorted[i])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Mean of the values left after dropping the lowest and the highest
/// quarter (`n / 4` each); `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let kept = &sorted[cut..sorted.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Percentile `p` of each slice, then the interquartile mean across slices.
///
/// A slice is one stretch of a run on one fresh server.  Dropping the
/// outer quarters discards slices a host hiccup inflated, where one
/// percentile over the pooled samples would not; averaging the middle half
/// (rather than taking its median) keeps the figure from jumping when
/// slices fall into two speed modes, as closed-loop slices do.  `None`
/// unless every slice supports `p`.
pub fn slice_percentile(slices: &[Samples], p: f64) -> Option<f64> {
    if slices.is_empty() || slices.iter().any(|s| !supports(p, s.len())) {
        return None;
    }
    let per_slice: Option<Vec<f64>> = slices.iter().map(|s| s.percentile(p)).collect();
    interquartile_mean(&per_slice?)
}

/// Zero-based index of the nearest-rank percentile `p` among `n` sorted
/// samples: the smallest rank whose cumulative share reaches `p`.
pub fn rank_index(p: f64, n: usize) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Samples lying beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    rank_index(p, n).map_or(0, |i| n - (i + 1))
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(p: f64, n: usize) -> bool {
    samples_beyond(p, n) >= MIN_BEYOND
}

/// Smallest sample count that supports percentile `p` (`p < 100`).
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| supports(p, n))
        .expect("some n supports any p < 100")
}

/// Batch size a phase is replayed at: its observed mean batch, rounded,
/// within the serving window.
pub fn replay_batch(batch_mean: f64, window: usize) -> usize {
    (batch_mean.round().max(1.0) as usize).min(window)
}

/// Latency a phase's median leaves unexplained by the replayed service time
/// of one batch at the phase's mean batch size: patience, queueing, thread
/// wake-ups and reply delivery.  `service` lists `(batch, ms)` replays;
/// `None` when the phase's batch was not replayed.  Negative when the
/// replay is slower than the live phase; reported as measured.
pub fn residual_ms(
    phase_p50_ms: f64,
    batch_mean: f64,
    window: usize,
    service: &[(usize, f64)],
) -> Option<f64> {
    let batch = replay_batch(batch_mean, window);
    service
        .iter()
        .find(|&&(b, _)| b == batch)
        .map(|&(_, ms)| phase_p50_ms - ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.5), Some(1.0));
        assert_eq!(Samples::new().median(), None);
        assert_eq!(s.percentile(0.0), None);
    }

    #[test]
    fn order_of_insertion_does_not_matter() {
        let mut a = Samples::new();
        let mut b = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            a.push(v);
        }
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            b.push(v);
        }
        assert_eq!(a.median(), b.median());
        assert_eq!(a.median(), Some(3.0));
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(samples_beyond(99.0, 1000), 10);
        assert!(supports(99.0, 1000));
        assert!(!supports(99.0, 999));
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(50.0), 20);
        assert!(!supports(100.0, 1_000_000));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[3.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), Some(2.0));
        // n = 8: the two lowest and the two highest go.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
    }

    #[test]
    fn slice_percentile_discards_one_bad_slice() {
        // Four slices of 100; one holds a burst of slow samples.
        let slices: Vec<Samples> = (0..4)
            .map(|w| Samples {
                values: (0..100)
                    .map(|i| {
                        if w == 2 && i >= 40 {
                            1000.0
                        } else {
                            (i + w) as f64
                        }
                    })
                    .collect(),
            })
            .collect();
        let mut pooled = Samples::new();
        for s in &slices {
            for &v in s.values() {
                pooled.push(v);
            }
        }
        assert_eq!(pooled.percentile(90.0), Some(1000.0));
        // Per-slice p90s are 89, 90, 1000, 92: the middle half is 90, 92.
        assert_eq!(slice_percentile(&slices, 90.0), Some(91.0));
        // Every slice must support the percentile.
        assert_eq!(slice_percentile(&slices, 99.0), None);
        assert_eq!(slice_percentile(&[], 50.0), None);
    }

    #[test]
    fn residual_subtracts_the_replay_at_the_mean_batch() {
        let service = [(1, 3.0), (14, 9.0), (32, 20.0)];
        assert_eq!(residual_ms(5.5, 1.2, 32, &service), Some(2.5));
        assert_eq!(residual_ms(8.0, 13.6, 32, &service), Some(-1.0));
        // A mean batch above the window replays the full window.
        assert_eq!(residual_ms(25.0, 40.0, 32, &service), Some(5.0));
        assert_eq!(residual_ms(5.0, 7.0, 32, &service), None);
        assert_eq!(replay_batch(0.2, 32), 1);
    }
}
