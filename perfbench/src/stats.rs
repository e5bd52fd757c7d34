//! Order statistics, the seeded RNG and the open-loop arrival schedule.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the spreads this benchmark reports are the ones an
/// outside check recomputes from the same values.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // May be negative after the clamp, exactly as in Python.
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between
/// closest ranks.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let s = sorted(values);
    let rank = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("statistics over NaN"));
    s
}

/// SplitMix64: a tiny seeded generator for workload inputs, independent of
/// the system crates' RNG so changing theirs cannot change the benchmark's
/// inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Intended send offsets (seconds from the start of the phase) of Poisson
/// arrivals at `rate` per second over about `duration` seconds.
///
/// The `rate × duration` exponential gaps are stratified — one at the
/// midpoint of each equal-probability slice of the distribution — and the
/// seed only shuffles their order. Every seed so sees the same bursts and
/// lulls, in a different order, which keeps tail latency comparable across
/// seeds instead of hostage to how bursty one draw happened to be.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..n).rev() {
        gaps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g;
            t
        })
        .collect()
}

/// 64-bit FNV-1a, the digest over simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 100.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 100.0, 10.0));
        assert_ne!(a, poisson_schedule(8, 100.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] > 0.0);
    }

    #[test]
    fn poisson_schedule_mean_rate_is_within_five_percent() {
        for (seed, rate, duration) in [(0, 100.0, 100.0), (1, 40.0, 10.0), (2, 5.0, 3.0)] {
            let a = poisson_schedule(seed, rate, duration);
            let measured = a.len() as f64 / a.last().unwrap();
            assert!(
                (measured / rate - 1.0).abs() < 0.05,
                "seed {seed}: {measured}/s"
            );
        }
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        // Half of exponential gaps fall below the median ln 2 / rate, and the
        // share above the mean is 1/e.
        let a = poisson_schedule(3, 10.0, 100.0);
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let below_median = gaps.iter().filter(|&&g| g < 2f64.ln() / 10.0).count() as f64;
        let above_mean = gaps.iter().filter(|&&g| g > 0.1).count() as f64;
        assert!((below_median / gaps.len() as f64 - 0.5).abs() < 0.01);
        assert!((above_mean / gaps.len() as f64 - (-1f64).exp()).abs() < 0.01);
    }

    #[test]
    fn digest_separates_inputs() {
        let mut a = Digest::default();
        a.f32s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f32s(&[2.0, 1.0]);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
