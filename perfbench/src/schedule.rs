//! Seeded inputs the benchmark derives from `--seed`: arrival schedules,
//! query orders and task mixes.
//!
//! The generator is the benchmark's own (SplitMix64), not the repository's,
//! so a change to the program's random streams never changes the traffic it
//! is measured under.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for component `label` of run `seed`; distinct labels give
    /// decorrelated streams.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`: never 0, so `ln` is always finite.
    pub fn next_open_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Send offsets in seconds from the phase start for `n` Poisson arrivals at
/// `rate` per second: exponential gaps with mean `1 / rate`.
pub fn poisson_schedule(rate: f64, n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += -rng.next_open_unit().ln() / rate;
            at
        })
        .collect()
}

/// `n` indices into a pool of `pool` queries, drawn uniformly.
pub fn query_order(pool: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    (0..n).map(|_| rng.below(pool)).collect()
}

/// Serving task of one closed-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    Classify,
    TopK,
    Anomaly,
}

/// The closed-loop task mix: 80% classify, 10% top-k, 10% anomaly.
pub fn draw_task(rng: &mut Rng) -> Task {
    match rng.below(10) {
        0 => Task::TopK,
        1 => Task::Anomaly,
        _ => Task::Classify,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_determined_by_the_seed() {
        let a = poisson_schedule(200.0, 500, &mut Rng::stream(7, 3));
        let b = poisson_schedule(200.0, 500, &mut Rng::stream(7, 3));
        let c = poisson_schedule(200.0, 500, &mut Rng::stream(8, 3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets increase");
    }

    #[test]
    fn schedule_keeps_the_mean_rate() {
        for rate in [200.0, 2400.0] {
            let n = 200_000;
            let s = poisson_schedule(rate, n, &mut Rng::stream(11, 1));
            let observed = n as f64 / s[n - 1];
            assert!(
                (observed / rate - 1.0).abs() < 0.01,
                "rate {rate}: observed {observed}"
            );
            // Exponential gaps: the share of gaps above the mean is 1/e.
            let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
            let above = gaps.iter().filter(|&&g| g > 1.0 / rate).count() as f64;
            assert!((above / gaps.len() as f64 - (-1.0f64).exp()).abs() < 0.01);
        }
    }

    #[test]
    fn task_mix_is_eighty_ten_ten() {
        let mut rng = Rng::stream(5, 9);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[draw_task(&mut rng) as usize] += 1;
        }
        let share = |c: usize| c as f64 / n as f64;
        assert!((share(counts[0]) - 0.8).abs() < 0.01);
        assert!((share(counts[1]) - 0.1).abs() < 0.01);
        assert!((share(counts[2]) - 0.1).abs() < 0.01);
    }

    #[test]
    fn query_order_stays_in_the_pool() {
        let order = query_order(312, 10_000, &mut Rng::stream(1, 2));
        assert!(order.iter().all(|&i| i < 312));
        assert_eq!(order, query_order(312, 10_000, &mut Rng::stream(1, 2)));
    }
}
