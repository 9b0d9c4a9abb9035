//! Small statistics and the output digest.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted values (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Throughput that one slow stretch cannot swing: the median, over
/// consecutive blocks of `block` samples (a trailing partial block is
/// dropped), of `block` steps per second of the block's summed
/// milliseconds.
///
/// # Panics
/// Panics with fewer than `block` samples.
pub fn median_rate(ms: &[f64], block: usize) -> f64 {
    let rates: Vec<f64> = ms
        .chunks_exact(block)
        .map(|c| block as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail a latency is reported at: the highest percentile that still
/// leaves this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first: 99.9, 99.5, then 99 down
/// to 50 in whole steps.
fn tail_candidates() -> impl Iterator<Item = f64> {
    [99.9, 99.5]
        .into_iter()
        .chain((50..=99).rev().map(f64::from))
}

/// A tail latency together with where it was read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest candidate percentile with at least [`TAIL_BEYOND`]
/// samples beyond it.
///
/// # Errors
/// Fails when even the median leaves fewer samples beyond it.
pub fn tail(samples: &[f64]) -> Result<Tail, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    tail_candidates()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_BEYOND)
        .map(|p| Tail {
            percentile: p,
            value: percentile(&sorted, p),
            beyond: n - rank(n, p),
            samples: n,
        })
        .ok_or_else(|| {
            format!(
                "{n} samples leave fewer than {TAIL_BEYOND} beyond the median; \
                 need at least {}",
                2 * TAIL_BEYOND
            )
        })
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in the exact bit patterns of `values`.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).expect("100 samples suffice");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        // 2000 samples: p99.5 leaves exactly 10 beyond.
        let samples: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let t = tail(&samples).expect("enough samples");
        assert_eq!(t.percentile, 99.5);
        assert_eq!(t.value, 1990.0);
        assert_eq!(t.beyond, 10);

        // 48 samples: p79 is the highest whole percentile with 10 beyond.
        let samples: Vec<f64> = (1..=48).map(f64::from).collect();
        let t = tail(&samples).expect("enough samples");
        assert_eq!((t.percentile, t.beyond), (79.0, 10));
    }

    #[test]
    fn tail_errors_below_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(tail(&samples).is_err());
        assert!(tail(&[]).is_err());
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples).expect("20 samples suffice").percentile, 50.0);
    }

    #[test]
    fn median_percentile_and_block_rate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert_eq!(mean(&[]), 0.0);
        // Blocks of two: 2 steps in 0.2 s and in 0.4 s; the trailing
        // partial block is dropped.
        assert_eq!(median_rate(&[100.0, 100.0, 300.0, 100.0, 500.0], 2), 7.5);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
