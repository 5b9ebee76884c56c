//! Lustre striping model and file-size synthesis.
//!
//! The Spider II metadata snapshots the paper uses do not record file
//! sizes — only stripe counts. The authors "generate a synthesized file
//! size for each file in the snapshot according to the best striping
//! practice of the Spider file system" (§4.1.1, citing the OLCF best
//! practices guide). This module implements that inference in both
//! directions:
//!
//! * [`recommended_stripes`] — the OLCF guidance mapping a file size to a
//!   stripe count (1 stripe below 1 GiB, then scaling up, capped at the
//!   OST count);
//! * [`SizeSynthesizer`] — the inverse: given a stripe count, sample a
//!   plausible size from a log-normal distribution confined to the size
//!   band that the guidance maps onto that stripe count.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use activedr_core::convert;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

pub const KIB: u64 = 1 << 10;
pub const MIB: u64 = 1 << 20;
pub const GIB: u64 = 1 << 30;
pub const TIB: u64 = 1 << 40;

/// Size bands of the OLCF best-practice striping guidance. Files below
/// 1 GiB use a single stripe; 1-100 GiB use 4; 100 GiB - 1 TiB use 16; and
/// larger files stripe wide.
const BANDS: &[(u64, u8)] = &[
    (GIB, 1), // (exclusive upper bound, stripe count)
    (100 * GIB, 4),
    (TIB, 16),
    (u64::MAX, 64),
];

/// The stripe count the best-practice guide recommends for a file size.
pub fn recommended_stripes(size: u64) -> u8 {
    for &(bound, stripes) in BANDS {
        if size < bound {
            return stripes;
        }
    }
    unreachable!("u64::MAX band is a catch-all")
}

/// The inclusive size band `[lo, hi)` associated with a stripe count.
/// Unknown stripe counts snap to the nearest band (snapshots of systems
/// with non-default layouts contain arbitrary counts).
pub fn size_band(stripes: u8) -> (u64, u64) {
    let mut lo = 4 * KIB; // no zero-size files; at least one block
    for &(bound, band_stripes) in BANDS {
        if stripes <= band_stripes {
            return (lo, bound);
        }
        lo = bound;
    }
    let last = BANDS[BANDS.len() - 1];
    (BANDS[BANDS.len() - 2].0, last.0)
}

/// Parameters for log-normal size sampling inside a band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthesisParams {
    /// σ of the underlying normal; larger means heavier spread inside the
    /// band. HPC file-size distributions are famously heavy-tailed.
    pub sigma: f64,
}

impl Default for SynthesisParams {
    fn default() -> Self {
        SynthesisParams { sigma: 1.2 }
    }
}

/// Samples synthetic file sizes consistent with a stripe count.
#[derive(Debug, Clone)]
pub struct SizeSynthesizer {
    params: SynthesisParams,
}

impl Default for SizeSynthesizer {
    fn default() -> Self {
        SizeSynthesizer::new(SynthesisParams::default())
    }
}

impl SizeSynthesizer {
    pub fn new(params: SynthesisParams) -> Self {
        assert!(
            params.sigma > 0.0 && params.sigma.is_finite(),
            "sigma must be positive"
        );
        SizeSynthesizer { params }
    }

    /// Sample a size for a file striped across `stripes` OSTs. The sample
    /// is drawn log-normally around the band's geometric midpoint and
    /// clamped into the band, so `recommended_stripes(sample)` round-trips
    /// for the canonical stripe counts.
    pub fn sample(&self, stripes: u8, rng: &mut impl Rng) -> u64 {
        let (lo, hi) = size_band(stripes);
        let (lo_f, hi_f) = (
            convert::approx_f64(lo),
            convert::approx_f64(hi.min(4 * TIB)),
        );
        let mu = (lo_f.ln() + hi_f.ln()) / 2.0;
        // `new` validated sigma and mu is a finite band midpoint; if either
        // ever goes bad, fall back to the midpoint rather than panic.
        let raw = match LogNormal::new(mu, self.params.sigma) {
            Ok(dist) => dist.sample(rng),
            Err(_) => mu.exp(),
        };
        convert::trunc_to_u64(raw.clamp(lo_f, hi_f - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn guidance_thresholds() {
        assert_eq!(recommended_stripes(0), 1);
        assert_eq!(recommended_stripes(GIB - 1), 1);
        assert_eq!(recommended_stripes(GIB), 4);
        assert_eq!(recommended_stripes(100 * GIB - 1), 4);
        assert_eq!(recommended_stripes(100 * GIB), 16);
        assert_eq!(recommended_stripes(TIB), 64);
        assert_eq!(recommended_stripes(u64::MAX - 1), 64);
    }

    #[test]
    fn bands_partition_the_size_axis() {
        assert_eq!(size_band(1), (4 * KIB, GIB));
        assert_eq!(size_band(4), (GIB, 100 * GIB));
        assert_eq!(size_band(16), (100 * GIB, TIB));
        assert_eq!(size_band(64), (TIB, u64::MAX));
        // Off-spec counts snap to the nearest band.
        assert_eq!(size_band(2), (GIB, 100 * GIB));
        assert_eq!(size_band(3), (GIB, 100 * GIB));
        assert_eq!(size_band(8), (100 * GIB, TIB));
        assert_eq!(size_band(255), (TIB, u64::MAX));
    }

    #[test]
    fn samples_fall_in_band_and_round_trip() {
        let synth = SizeSynthesizer::default();
        let mut rng = StdRng::seed_from_u64(7);
        for &stripes in &[1u8, 4, 16, 64] {
            let (lo, hi) = size_band(stripes);
            for _ in 0..200 {
                let s = synth.sample(stripes, &mut rng);
                assert!(
                    s >= lo && s < hi,
                    "stripes {stripes}: {s} outside [{lo},{hi})"
                );
                assert_eq!(recommended_stripes(s), stripes, "size {s}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let synth = SizeSynthesizer::default();
        let a: Vec<u64> = (0..10)
            .map(|_| synth.sample(4, &mut StdRng::seed_from_u64(1)))
            .collect();
        let b: Vec<u64> = (0..10)
            .map(|_| synth.sample(4, &mut StdRng::seed_from_u64(1)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn bad_sigma_rejected() {
        SizeSynthesizer::new(SynthesisParams { sigma: 0.0 });
    }
}
