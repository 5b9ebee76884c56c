//! Simulation time model.
//!
//! All of ActiveDR's decisions are driven by timestamps: activity occurrence
//! times (Eq. 4 of the paper), file access times (`atime`), and the periodic
//! purge trigger. The paper works at day granularity (file lifetimes and
//! period lengths are expressed in days), so this module provides a compact
//! second-resolution [`Timestamp`] together with day arithmetic.
//!
//! The simulation epoch (`t = 0`) corresponds to the start of the trace
//! window — for the paper's dataset that is 2015-01-01 00:00:00. Day indices
//! therefore run 0..365 for 2015 and 365..731 for (leap year) 2016.

use crate::convert;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Seconds per day; the paper's `to_ts(d)` conversion (Eq. 1) with
/// second-resolution timestamps.
pub const SECS_PER_DAY: i64 = 86_400;

/// [`SECS_PER_DAY`] as a float, for fractional-day arithmetic.
pub const SECS_PER_DAY_F64: f64 = 86_400.0;

/// Days in the replay year of the paper's evaluation (2016 was a leap year;
/// the paper reports results "during the 366 days in 2016").
pub const REPLAY_YEAR_DAYS: u32 = 366;

/// Days in the warm-up year (2015) used to populate the virtual file system.
pub const WARMUP_YEAR_DAYS: u32 = 365;

/// A point in simulation time, in seconds since the simulation epoch.
///
/// Timestamps are allowed to be negative (events that occurred before the
/// epoch, e.g. job history from 2013-2014 in the paper's scheduler logs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The simulation epoch (start of the warm-up year).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Construct from whole days since the epoch, saturating at the ends
    /// of the `i64` seconds range.
    pub fn from_days(days: i64) -> Self {
        Timestamp(convert::secs_from_days(days))
    }

    /// Construct from days expressed as a float (e.g. "day 3.5").
    pub fn from_days_f64(days: f64) -> Self {
        Timestamp(convert::round_to_i64(days * SECS_PER_DAY_F64))
    }

    /// [`Timestamp::from_days`] for untrusted day counts: `None` when the
    /// seconds overflow `i64` (a parsed date ~292 billion years out).
    pub fn checked_from_days(days: i64) -> Option<Self> {
        days.checked_mul(SECS_PER_DAY).map(Timestamp)
    }

    /// `self + delta`, or `None` on `i64` overflow.
    pub fn checked_add(self, delta: TimeDelta) -> Option<Self> {
        self.0.checked_add(delta.0).map(Timestamp)
    }

    /// Seconds since the epoch.
    pub fn secs(self) -> i64 {
        self.0
    }

    /// The day index containing this timestamp (floor division, so negative
    /// timestamps map to negative day indices).
    pub fn day(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Fractional days since the epoch.
    pub fn days_f64(self) -> f64 {
        convert::approx_f64_i64(self.0) / SECS_PER_DAY_F64
    }

    /// Saturating difference `self - earlier`, clamped at zero, as a
    /// [`TimeDelta`]. Useful for ages where clock skew in a trace could
    /// otherwise produce a negative age.
    pub fn age_since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta((self.0 - earlier.0).max(0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.0.rem_euclid(SECS_PER_DAY);
        let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
        write!(f, "day {day} {h:02}:{m:02}:{s:02}")
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

/// A signed span of simulation time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TimeDelta(pub i64);

impl TimeDelta {
    /// The empty span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// A span of `days` whole days, saturating at the ends of the `i64`
    /// seconds range.
    pub fn from_days(days: i64) -> Self {
        TimeDelta(convert::secs_from_days(days))
    }

    /// A span of a fractional number of days, rounded to whole seconds.
    pub fn from_days_f64(days: f64) -> Self {
        TimeDelta(convert::round_to_i64(days * SECS_PER_DAY_F64))
    }

    /// A span of `hours` whole hours.
    pub fn from_hours(hours: i64) -> Self {
        TimeDelta(hours * 3600)
    }

    /// The span in seconds.
    pub fn secs(self) -> i64 {
        self.0
    }

    /// The span in (fractional) days.
    pub fn days_f64(self) -> f64 {
        convert::approx_f64_i64(self.0) / SECS_PER_DAY_F64
    }

    /// Whole days, rounded toward negative infinity.
    pub fn whole_days(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Ceiling of the number of periods of length `period` this delta spans;
    /// the `⌈(t_c − a.ts)/to_ts(d)⌉` term of Eq. (4). A zero delta counts as
    /// zero periods; any positive delta up to one period counts as one.
    ///
    /// # Panics
    /// Panics if `period` is not positive.
    pub fn div_ceil_periods(self, period: TimeDelta) -> i64 {
        assert!(period.0 > 0, "period length must be positive");
        debug_assert!(self.0 >= 0, "div_ceil_periods on negative delta");
        (self.0 + period.0 - 1).div_euclid(period.0)
    }

    /// Scale by a non-negative factor, saturating at `i64::MAX`.
    pub fn scale(self, factor: f64) -> TimeDelta {
        debug_assert!(factor >= 0.0);
        TimeDelta(convert::trunc_to_i64(
            convert::approx_f64_i64(self.0) * factor,
        ))
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}d", self.days_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic_round_trips() {
        for d in [-3i64, 0, 1, 365, 730] {
            assert_eq!(Timestamp::from_days(d).day(), d);
        }
    }

    #[test]
    fn huge_day_counts_saturate() {
        assert_eq!(Timestamp::from_days(i64::MAX).secs(), i64::MAX);
        assert_eq!(Timestamp::from_days(i64::MIN).secs(), i64::MIN);
        assert_eq!(TimeDelta::from_days(i64::MAX).secs(), i64::MAX);
        assert_eq!(TimeDelta::from_days(i64::MIN).secs(), i64::MIN);
        // Parsers still learn that the count was out of range.
        assert_eq!(Timestamp::checked_from_days(i64::MAX), None);
        assert_eq!(Timestamp::checked_from_days(i64::MIN), None);
    }

    #[test]
    fn mid_day_timestamps_map_to_their_day() {
        let t = Timestamp::from_days(5) + TimeDelta::from_hours(13);
        assert_eq!(t.day(), 5);
        let before_epoch = Timestamp::EPOCH - TimeDelta::from_hours(1);
        assert_eq!(before_epoch.day(), -1);
    }

    #[test]
    fn age_since_clamps_negative() {
        let a = Timestamp::from_days(3);
        let b = Timestamp::from_days(10);
        assert_eq!(b.age_since(a), TimeDelta::from_days(7));
        assert_eq!(a.age_since(b), TimeDelta::ZERO);
    }

    #[test]
    fn div_ceil_periods_matches_eq4_examples() {
        let week = TimeDelta::from_days(7);
        // An activity right now spans 0 periods back.
        assert_eq!(TimeDelta::ZERO.div_ceil_periods(week), 0);
        // 1 second ago -> still the current period (ceil = 1).
        assert_eq!(TimeDelta(1).div_ceil_periods(week), 1);
        // Exactly 7 days -> boundary counts as the first period.
        assert_eq!(TimeDelta::from_days(7).div_ceil_periods(week), 1);
        // 7 days + 1 s -> second period back.
        assert_eq!(
            (TimeDelta::from_days(7) + TimeDelta(1)).div_ceil_periods(week),
            2
        );
        assert_eq!(TimeDelta::from_days(35).div_ceil_periods(week), 5);
    }

    #[test]
    #[should_panic(expected = "period length must be positive")]
    fn div_ceil_rejects_zero_period() {
        TimeDelta::from_days(1).div_ceil_periods(TimeDelta::ZERO);
    }

    #[test]
    fn scale_saturates() {
        let d = TimeDelta::from_days(90);
        assert_eq!(d.scale(2.0), TimeDelta::from_days(180));
        assert_eq!(d.scale(f64::MAX), TimeDelta(i64::MAX));
        assert_eq!(d.scale(0.0), TimeDelta::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = Timestamp::from_days(2) + TimeDelta::from_hours(5);
        assert_eq!(t.to_string(), "day 2 05:00:00");
        assert_eq!(TimeDelta::from_days(3).to_string(), "3.00d");
    }

    #[test]
    fn serde_transparent() {
        let t = Timestamp::from_days(4);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, (4 * SECS_PER_DAY).to_string());
        let back: Timestamp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
