//! Lustre striping model.
//!
//! The Spider II metadata snapshots the paper uses do not record file
//! sizes — only stripe counts. The authors "generate a synthesized file
//! size for each file in the snapshot according to the best striping
//! practice of the Spider file system" (§4.1.1, citing the OLCF best
//! practices guide). The synthetic generator samples sizes directly, so
//! only the forward direction of that guidance is needed here:
//! [`recommended_stripes`] maps a file size to a stripe count (1 stripe
//! below 1 GiB, then scaling up), which the initial file system records
//! for every file.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
