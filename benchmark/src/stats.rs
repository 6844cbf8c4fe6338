//! Order statistics, the stream fingerprint and seed derivation.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental 64-bit FNV-1a hash. Used for the pinned stream
/// fingerprints and for the per-trial digest of simulated outcomes, both of
/// which must repeat exactly across runs and hosts (so no `DefaultHasher`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Derives one workload's seed from the run seed: every workload gets its
/// own stream of randomness, and `--seed` moves all of them at once.
pub fn derive_seed(run_seed: u64, workload: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(workload.as_bytes());
    // one splitmix64 round, so neighbouring run seeds give unrelated streams
    let mut z = (run_seed ^ h.finish()).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so a spread
/// computed here equals the one the driver computes from the same runs.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of integer samples (the rule
/// `accfg_runtime::LatencyStats` uses): rank `ceil(p * n)` clamped to
/// `1..=n`.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Folds `samples` into `fastest` elementwise, keeping each position's
/// minimum (the first call just copies).
pub fn fold_min<T: PartialOrd + Copy>(fastest: &mut Vec<T>, samples: impl Iterator<Item = T>) {
    if fastest.is_empty() {
        fastest.extend(samples);
        return;
    }
    for (kept, sample) in fastest.iter_mut().zip(samples) {
        if sample < *kept {
            *kept = sample;
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    sorted
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn fold_min_keeps_each_position_s_minimum() {
        let mut fastest: Vec<u64> = Vec::new();
        fold_min(&mut fastest, [5, 2, 9].into_iter());
        assert_eq!(fastest, [5, 2, 9]);
        fold_min(&mut fastest, [7, 1, 9].into_iter());
        fold_min(&mut fastest, [4, 3, 10].into_iter());
        assert_eq!(fastest, [4, 1, 9]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&[9, 1, 5], 0.99), 9);
        assert_eq!(percentile(&[9, 1, 5], 0.5), 5);
    }

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(hash("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(hash("foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn derived_seeds_differ_by_workload_and_by_run_seed() {
        assert_eq!(derive_seed(7, "mixed"), derive_seed(7, "mixed"));
        assert_ne!(derive_seed(7, "mixed"), derive_seed(8, "mixed"));
        assert_ne!(derive_seed(7, "mixed"), derive_seed(7, "contention"));
    }
}
