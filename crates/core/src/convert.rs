//! Checked and documented numeric conversions.
//!
//! Lossy `as` casts are denied by clippy's `cast_possible_truncation`,
//! `cast_possible_wrap`, `cast_sign_loss` and `cast_precision_loss` lints
//! (see `[workspace.lints.clippy]`): each such cast silently truncates,
//! wraps, or loses precision at the edges of its range, and nothing at the
//! call site says which of those the author considered. This module is the
//! workspace's single home for the conversions the emulation actually
//! needs, each with its edge behaviour in the name or the docs, and the
//! only library module that allows those lints — the casts below are the
//! blessed implementations the rest of the tree routes through.
//!
//! Width notes: the workspace targets 64-bit platforms (the paper-scale
//! traces do not fit in a 32-bit address space), so `usize` ↔ `u64`
//! conversions here are documented as lossless in one direction and
//! saturating in the other.

#![allow(
    clippy::cast_possible_truncation,
    reason = "this module is the audited home for numeric casts; every cast's edge behaviour is documented and tested"
)]
#![allow(
    clippy::cast_precision_loss,
    reason = "the approx_f64 family exists to make precision-losing int->float conversions explicit"
)]
#![allow(
    clippy::cast_sign_loss,
    reason = "sign-losing conversions here clamp negative inputs to zero first"
)]

use crate::time::SECS_PER_DAY;

// --- int -> f64 approximations ---------------------------------------------

/// `u64` as an approximate `f64` (exact up to 2^53; paper-scale counters
/// and byte totals stay far below that, larger values round).
#[must_use]
pub fn approx_f64(x: u64) -> f64 {
    x as f64
}

/// `i64` as an approximate `f64` (exact up to ±2^53).
#[must_use]
pub fn approx_f64_i64(x: i64) -> f64 {
    x as f64
}

/// `usize` as an approximate `f64` (exact up to 2^53).
#[must_use]
pub fn approx_f64_usize(x: usize) -> f64 {
    x as f64
}

// --- ratios ----------------------------------------------------------------

/// `num / den` in `f64`, with the convention that an empty denominator
/// yields `0.0` (a rate over no events is "no events", not a NaN).
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        approx_f64(num) / approx_f64(den)
    }
}

/// [`ratio`] over `usize` counts.
#[must_use]
pub fn ratio_usize(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        approx_f64_usize(num) / approx_f64_usize(den)
    }
}

// --- f64 -> int, saturating ------------------------------------------------

/// Round to the nearest `i64`, saturating at the type's range; NaN maps to
/// zero. (Bare `as` would return `i64::MAX`/`i64::MIN`/0 silently — this
/// spells the same clamping out.)
#[must_use]
pub fn round_to_i64(x: f64) -> i64 {
    if x.is_nan() {
        0
    } else {
        x.round() as i64 // `as` from float saturates; NaN handled above
    }
}

/// Round to the nearest `u64`; negatives and NaN map to zero, overflow
/// saturates at `u64::MAX`.
#[must_use]
pub fn round_to_u64(x: f64) -> u64 {
    if x.is_nan() {
        0
    } else {
        x.round().max(0.0) as u64
    }
}

/// Round to the nearest `u32`; negatives and NaN map to zero, overflow
/// saturates at `u32::MAX`.
#[must_use]
pub fn round_to_u32(x: f64) -> u32 {
    if x.is_nan() {
        0
    } else {
        x.round().max(0.0) as u32
    }
}

/// Round to the nearest `usize`; negatives and NaN map to zero, overflow
/// saturates.
#[must_use]
pub fn round_to_usize(x: f64) -> usize {
    if x.is_nan() {
        0
    } else {
        x.round().max(0.0) as usize
    }
}

/// Truncate toward zero to a `usize` index; negatives and NaN map to zero,
/// overflow saturates.
#[must_use]
pub fn trunc_to_usize(x: f64) -> usize {
    if x.is_nan() {
        0
    } else {
        x.max(0.0) as usize
    }
}

/// Truncate toward zero to an `i64` (the exact semantics of `as i64`, with
/// the NaN -> 0 and saturation edges spelled out).
#[must_use]
pub fn trunc_to_i64(x: f64) -> i64 {
    if x.is_nan() {
        0
    } else {
        x as i64
    }
}

/// Truncate toward zero to a `u64`; negatives and NaN map to zero.
#[must_use]
pub fn trunc_to_u64(x: f64) -> u64 {
    if x.is_nan() {
        0
    } else {
        x.max(0.0) as u64
    }
}

/// Truncate toward zero to a `u32`; negatives and NaN map to zero, overflow
/// saturates.
#[must_use]
pub fn trunc_to_u32(x: f64) -> u32 {
    if x.is_nan() {
        0
    } else {
        x.max(0.0) as u32
    }
}

// --- integer width bridges -------------------------------------------------

/// `u32` -> `usize`, lossless (usize is at least 32 bits on every supported
/// target).
#[must_use]
pub fn usize_from_u32(x: u32) -> usize {
    x as usize
}

/// `usize` -> `u64`, lossless on the 64-bit targets this workspace
/// supports.
#[must_use]
pub fn u64_from_usize(x: usize) -> u64 {
    x as u64
}

/// `u64` -> `usize`, saturating on (hypothetical) 32-bit targets, lossless
/// on 64-bit ones.
#[must_use]
pub fn usize_from_u64(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// `usize` -> `u32`, saturating: collection sizes beyond `u32::MAX` clamp
/// instead of wrapping.
#[must_use]
pub fn u32_from_usize(x: usize) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// `usize` -> `u16`, saturating: dense type-id spaces past `u16::MAX`
/// clamp instead of wrapping onto an existing id.
#[must_use]
pub fn u16_from_usize(x: usize) -> u16 {
    u16::try_from(x).unwrap_or(u16::MAX)
}

/// `u64` -> `u32`, saturating: identifiers past `u32::MAX` clamp instead
/// of wrapping to an unrelated id.
#[must_use]
pub fn u32_from_u64(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// `u64` -> `i64`, saturating: byte totals past `i64::MAX` (8 EiB) clamp
/// instead of going negative.
#[must_use]
pub fn i64_from_u64(x: u64) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

/// Microsecond counts (`Duration::as_micros` returns `u128`) down to `u64`,
/// saturating — ~584 thousand years of microseconds fit in a `u64`.
#[must_use]
pub fn u64_from_micros(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

// --- unit conversions ------------------------------------------------------

/// Whole days to seconds — the `to_ts(d)` direction of the paper's Eq. 1,
/// for call sites that need raw seconds rather than a
/// [`crate::time::Timestamp`].
#[must_use]
pub fn secs_from_days(days: i64) -> i64 {
    days.saturating_mul(SECS_PER_DAY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_of_zero_denominators_are_zero() {
        assert!((ratio(5, 0)).abs() < f64::EPSILON);
        assert!((ratio_usize(5, 0)).abs() < f64::EPSILON);
        assert!((ratio(1, 2) - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn saturating_float_to_int_edges() {
        assert_eq!(round_to_i64(f64::NAN), 0);
        assert_eq!(round_to_i64(1e300), i64::MAX);
        assert_eq!(round_to_i64(-1e300), i64::MIN);
        assert_eq!(round_to_u64(-5.0), 0);
        assert_eq!(round_to_u64(2.6), 3);
        assert_eq!(round_to_u32(4_294_967_296.0), u32::MAX);
        assert_eq!(trunc_to_usize(3.9), 3);
        assert_eq!(trunc_to_usize(-1.0), 0);
        assert_eq!(trunc_to_i64(2.9), 2);
        assert_eq!(trunc_to_i64(-2.9), -2);
        assert_eq!(trunc_to_u64(2.9), 2);
        assert_eq!(trunc_to_u32(-0.5), 0);
        assert_eq!(round_to_usize(2.5), 3);
    }

    #[test]
    fn width_bridges_roundtrip_in_range() {
        assert_eq!(usize_from_u32(7), 7);
        assert_eq!(u64_from_usize(7), 7);
        assert_eq!(usize_from_u64(7), 7);
        assert_eq!(u32_from_usize(7), 7);
        assert_eq!(u32_from_usize(usize::MAX), u32::MAX);
        assert_eq!(u32_from_u64(9), 9);
        assert_eq!(u32_from_u64(u64::MAX), u32::MAX);
        assert_eq!(i64_from_u64(9), 9);
        assert_eq!(i64_from_u64(u64::MAX), i64::MAX);
        assert_eq!(u64_from_micros(1_000_000), 1_000_000);
        assert_eq!(u64_from_micros(u128::MAX), u64::MAX);
    }

    #[test]
    fn approx_is_exact_below_2_53() {
        let exact = (1u64 << 53) - 1;
        assert!((approx_f64(exact) - 9_007_199_254_740_991.0).abs() < f64::EPSILON);
    }

    #[test]
    fn day_second_conversion_matches_eq1() {
        assert_eq!(secs_from_days(2), 2 * SECS_PER_DAY);
        assert_eq!(secs_from_days(i64::MAX), i64::MAX);
    }
}
