//! Log-bucketed histogram (HDR-style) for every distribution the metrics
//! registry records.
//!
//! No bucket bounds are chosen per metric: the histogram covers the whole
//! `u64` range with a bounded relative error. Each power-of-two octave is
//! split into `2^sub_bits` equal-width sub-buckets, so the worst-case
//! relative error of any reconstructed value is `2^-sub_bits` (~3% at the
//! default `sub_bits = 5`). Values below `2^sub_bits` get exact width-1
//! buckets, so small counts such as batch sizes and sweep counts are
//! recorded exactly.
//!
//! Values are recorded as `u64` in the unit the series name carries:
//! microseconds, a count, or parts per million. The count array grows
//! lazily to the highest octave seen, so an idle histogram is a few dozen
//! bytes.

/// Default octave subdivision: 32 sub-buckets per power of two, ~3%
/// worst-case relative error on quantiles.
pub const DEFAULT_SUB_BITS: u32 = 5;

/// A log-bucketed histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    sub_bits: u32,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(DEFAULT_SUB_BITS)
    }
}

impl LogHistogram {
    /// # Panics
    ///
    /// Panics if `sub_bits` is 0 or ≥ 32 (sub-bucket math needs at least
    /// one bit and the octave count must stay well inside `u32`).
    pub fn new(sub_bits: u32) -> Self {
        assert!(
            (1..32).contains(&sub_bits),
            "sub_bits must be in 1..32, got {sub_bits}"
        );
        LogHistogram {
            sub_bits,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// Bucket index for `value`. Values below `2^sub_bits` map to exact
    /// width-1 buckets (`index = value`); above that, the high `sub_bits`
    /// bits after the leading one select a sub-bucket within the octave.
    fn index_of(&self, value: u64) -> usize {
        let sb = self.sub_bits;
        if value < (1 << sb) {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= sb
        let octave = msb - sb; // 0 for the first non-linear octave
        let sub = (value >> octave) as usize - (1 << sb);
        (((octave + 1) as usize) << sb) + sub
    }

    /// Inclusive upper edge of bucket `index` — the largest value that maps
    /// into it.
    fn bucket_upper(&self, index: usize) -> u64 {
        let sb = self.sub_bits;
        if index < (1 << sb) {
            return index as u64;
        }
        let octave = (index >> sb) as u32 - 1;
        let sub = (index & ((1 << sb) - 1)) as u64;
        // First value of the bucket plus its width minus one.
        (((1 << sb) + sub) << octave) + ((1u64 << octave) - 1)
    }

    /// Width of the bucket containing `value` — the quantile estimation
    /// error bound for that value.
    pub fn bucket_width(&self, value: u64) -> u64 {
        if value < (1 << self.sub_bits) {
            1
        } else {
            1 << (63 - value.leading_zeros() - self.sub_bits)
        }
    }

    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Minimum recorded value (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper edge of the bucket
    /// containing the `ceil(q * count)`-th smallest sample, clamped to the
    /// observed max. Within one bucket width of the exact sorted-sample
    /// quantile. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self`. Errors when the sub-bucket resolutions
    /// differ — counts from different bucket layouts cannot be combined.
    pub fn merge(&mut self, other: &LogHistogram) -> Result<(), String> {
        if self.sub_bits != other.sub_bits {
            return Err(format!(
                "cannot merge log histograms with different resolutions \
                 (sub_bits {} vs {})",
                self.sub_bits, other.sub_bits
            ));
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Non-empty buckets as `(inclusive_upper_edge, count)` in increasing
    /// edge order — the basis for Prometheus export and serialisation.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_upper(i), c))
            .collect()
    }

    /// Rebuilds a histogram from [`Self::nonzero_buckets`] output plus the
    /// scalar stats — the JSONL round-trip path. Edges that don't land on a
    /// bucket boundary of this resolution are rejected.
    pub fn restore(
        sub_bits: u32,
        buckets: &[(u64, u64)],
        sum: u128,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        let mut h = LogHistogram::new(sub_bits);
        let mut count = 0u64;
        for &(edge, c) in buckets {
            let idx = h.index_of(edge);
            if h.bucket_upper(idx) != edge {
                return Err(format!(
                    "{edge} is not a bucket edge at sub_bits {sub_bits}"
                ));
            }
            if idx >= h.counts.len() {
                h.counts.resize(idx + 1, 0);
            }
            h.counts[idx] += c;
            count += c;
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new(5);
        for v in 0..32u64 {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9] {
            let exact = ((q * 32.0).ceil() as u64).max(1) - 1;
            assert_eq!(h.quantile(q), exact, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn index_and_upper_are_inverse() {
        let h = LogHistogram::new(5);
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let idx = h.index_of(v);
            let upper = h.bucket_upper(idx);
            assert!(upper >= v, "upper({idx})={upper} < {v}");
            assert!(
                upper - v < h.bucket_width(v),
                "value {v} further than one width {} from edge {upper}",
                h.bucket_width(v)
            );
            assert_eq!(h.index_of(upper), idx, "edge maps back to same bucket");
        }
    }

    #[test]
    fn bucket_edges_are_monotone() {
        let h = LogHistogram::new(3);
        let mut prev = None;
        for idx in 0..200 {
            let upper = h.bucket_upper(idx);
            if let Some(p) = prev {
                assert!(upper > p, "edges must increase: {p} !< {upper} at {idx}");
            }
            prev = Some(upper);
        }
    }

    #[test]
    fn quantiles_within_one_bucket_width() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut samples: Vec<u64> = (0..4000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Spread over ~6 decades.
                (state >> 40) % 1_000_000
            })
            .collect();
        let mut h = LogHistogram::new(5);
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            let exact = samples[rank];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: estimate {est} below exact {exact}");
            assert!(
                est - exact <= h.bucket_width(exact),
                "q={q}: estimate {est} more than one bucket width {} above {exact}",
                h.bucket_width(exact)
            );
        }
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LogHistogram::new(5);
        let mut b = LogHistogram::new(5);
        let mut both = LogHistogram::new(5);
        for v in [3u64, 77, 1024, 5_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [9u64, 77, 123_456] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, both);
    }

    #[test]
    fn merge_rejects_resolution_mismatch() {
        let mut a = LogHistogram::new(5);
        let b = LogHistogram::new(4);
        let err = a.merge(&b).unwrap_err();
        assert!(err.contains("sub_bits"), "{err}");
    }

    #[test]
    fn nonzero_buckets_round_trip() {
        let mut h = LogHistogram::new(5);
        for v in [0u64, 5, 31, 32, 999, 1_000_000, u64::MAX / 2] {
            h.record(v);
        }
        let restored = LogHistogram::restore(
            h.sub_bits(),
            &h.nonzero_buckets(),
            h.sum(),
            h.min(),
            h.max(),
        )
        .unwrap();
        assert_eq!(restored, h);
    }

    #[test]
    fn restore_rejects_non_edge() {
        // 33 is inside a width-2 bucket at sub_bits=4 (linear range ends at
        // 15; octave of 33 has width 2 with edges ... 33? compute: sub_bits=4,
        // values < 16 linear; 33: msb=5, octave=1, width 2, buckets cover
        // [32,33],[34,35]... so 33 IS an edge; use 34 which is a lower edge).
        let err = LogHistogram::restore(4, &[(34, 1)], 34, 34, 34);
        assert!(err.is_err(), "34 is not an upper edge at sub_bits=4");
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = LogHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets(), vec![]);
    }
}
