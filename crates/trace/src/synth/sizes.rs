//! Heavy-tailed file-size sampling for synthetic populations.
//!
//! HPC scratch file sizes span nine orders of magnitude with a log-normal
//! body and a heavy tail (checkpoint and analysis output files). The
//! sampler is deliberately simple: log-normal around a configurable median
//! with clamping, which is enough for retention experiments where only the
//! *relative* byte mass across users matters.

use activedr_core::convert;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

const KIB: u64 = 1 << 10;
const TIB: u64 = 1 << 40;

/// Log-normal file-size sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileSizeSampler {
    /// Median file size in bytes.
    pub median: u64,
    /// σ of the underlying normal distribution.
    pub sigma: f64,
    /// Clamp bounds.
    pub min: u64,
    pub max: u64,
}

impl Default for FileSizeSampler {
    fn default() -> Self {
        FileSizeSampler {
            median: 64 << 20, // 64 MiB
            sigma: 2.0,
            min: 4 * KIB,
            max: 2 * TIB,
        }
    }
}

impl FileSizeSampler {
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        debug_assert!(self.min <= self.max && self.median >= 1);
        // Bad parameters degrade to the configured median instead of a panic.
        let raw = match LogNormal::new(convert::approx_f64(self.median).ln(), self.sigma) {
            Ok(dist) => dist.sample(rng),
            Err(_) => convert::approx_f64(self.median),
        };
        convert::trunc_to_u64(raw).clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_within_bounds_with_lognormal_median() {
        let s = FileSizeSampler::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut samples: Vec<u64> = (0..2000).map(|_| s.sample(&mut rng)).collect();
        samples.sort_unstable();
        for &v in &samples {
            assert!(v >= s.min && v <= s.max);
        }
        let median = convert::approx_f64(samples[samples.len() / 2]);
        // Median within a factor of 2 of the target (log-normal median = e^μ).
        assert!(
            median > convert::approx_f64(s.median) / 2.0
                && median < convert::approx_f64(s.median) * 2.0,
            "median {median}"
        );
        // Heavy tail: max sample far above the median.
        assert!(*samples.last().unwrap() > s.median * 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = FileSizeSampler::default();
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(3);
            (0..5).map(|_| s.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(3);
            (0..5).map(|_| s.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
