//! Minimal ISO-8601 timestamp parsing for log importers.
//!
//! Facility logs carry `YYYY-MM-DD[THH:MM:SS]` stamps; the emulation
//! wants seconds relative to a configurable epoch date (the start of the
//! trace window, e.g. 2015-01-01). No timezone handling — scheduler logs
//! are written in local facility time and the retention math only cares
//! about day-scale differences.

use activedr_core::time::{TimeDelta, Timestamp};

/// Days from civil 1970-01-01 (proleptic Gregorian); Howard Hinnant's
/// `days_from_civil` algorithm. `None` when a far-out year overflows the
/// `i64` day count.
fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i64> {
    let y = if m <= 2 { y.checked_sub(1)? } else { y };
    let era = if y >= 0 { y } else { y.checked_sub(399)? } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = m.checked_add(9)? % 12; // Mar=0 .. Feb=11
    let doy = (153 * i64::from(mp) + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era.checked_mul(146_097)?.checked_add(doe - 719_468)
}

/// A civil date anchor: the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochDate {
    pub year: i64,
    pub month: u32,
    pub day: u32,
}

impl EpochDate {
    /// The paper's trace window starts at 2015-01-01.
    pub const PAPER: EpochDate = EpochDate {
        year: 2015,
        month: 1,
        day: 1,
    };

    fn unix_days(self) -> Option<i64> {
        days_from_civil(self.year, self.month, self.day)
    }
}

/// Parse `YYYY-MM-DD` or `YYYY-MM-DDTHH:MM:SS` (also accepting a space
/// separator) into a [`Timestamp`] relative to `epoch`. `None` for
/// malformed input and for dates whose seconds overflow `i64`.
pub fn parse_iso8601(s: &str, epoch: EpochDate) -> Option<Timestamp> {
    let s = s.trim();
    let (date, time) = match s.split_once(['T', ' ']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut parts = date.split('-');
    let year: i64 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let mut secs = 0i64;
    if let Some(t) = time {
        let mut hms = t.split(':');
        let h: i64 = hms.next()?.parse().ok()?;
        let m: i64 = hms.next()?.parse().ok()?;
        let sec: i64 = match hms.next() {
            Some(v) => v.parse().ok()?,
            None => 0,
        };
        if hms.next().is_some()
            || !(0..24).contains(&h)
            || !(0..60).contains(&m)
            || !(0..60).contains(&sec)
        {
            return None;
        }
        secs = h * 3600 + m * 60 + sec;
    }
    let days = days_from_civil(year, month, day)?.checked_sub(epoch.unix_days()?)?;
    Timestamp::checked_from_days(days)?.checked_add(TimeDelta(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_day_arithmetic() {
        assert_eq!(days_from_civil(1970, 1, 1), Some(0));
        assert_eq!(days_from_civil(1970, 1, 2), Some(1));
        assert_eq!(days_from_civil(2000, 3, 1), Some(11017));
        assert_eq!(days_from_civil(2015, 1, 1), Some(16436));
        assert_eq!(days_from_civil(i64::MAX, 1, 1), None);
        assert_eq!(days_from_civil(i64::MIN, 1, 1), None);
    }

    #[test]
    fn overflowing_years_are_rejected_not_wrapped() {
        let e = EpochDate::PAPER;
        // The day count fits in i64, its seconds do not.
        assert_eq!(parse_iso8601("9999999999999-01-01", e), None);
        assert_eq!(parse_iso8601("9999999999999-01-01T00:00:01", e), None);
        // The day count itself overflows.
        assert_eq!(parse_iso8601("9223372036854775807-01-01", e), None);
        // Far-future dates whose seconds fit still parse.
        assert!(parse_iso8601("99999999-12-31T23:59:59", e).is_some());
    }

    #[test]
    fn paper_epoch_dates() {
        let e = EpochDate::PAPER;
        assert_eq!(
            parse_iso8601("2015-01-01", e),
            Some(Timestamp::from_days(0))
        );
        assert_eq!(
            parse_iso8601("2015-01-02", e),
            Some(Timestamp::from_days(1))
        );
        // 2016-01-01 is day 365 (2015 is not a leap year).
        assert_eq!(
            parse_iso8601("2016-01-01", e),
            Some(Timestamp::from_days(365))
        );
        // 2016 is a leap year: 2017-01-01 is day 365 + 366.
        assert_eq!(
            parse_iso8601("2017-01-01", e),
            Some(Timestamp::from_days(731))
        );
        // Pre-epoch dates go negative (the 2013 job history).
        assert_eq!(
            parse_iso8601("2014-12-31", e),
            Some(Timestamp::from_days(-1))
        );
    }

    #[test]
    fn time_of_day() {
        let e = EpochDate::PAPER;
        assert_eq!(
            parse_iso8601("2015-01-01T01:02:03", e),
            Some(Timestamp(3723))
        );
        assert_eq!(
            parse_iso8601("2015-01-01 12:00:00", e),
            Some(Timestamp(43200))
        );
        assert_eq!(parse_iso8601("2015-01-01T12:30", e), Some(Timestamp(45000)));
    }

    #[test]
    fn rejects_garbage() {
        let e = EpochDate::PAPER;
        for bad in [
            "",
            "Unknown",
            "None",
            "2015",
            "2015-13-01",
            "2015-00-10",
            "2015-01-32",
            "2015-01-01T25:00:00",
            "2015-01-01T00:61:00",
            "2015-1-1-1",
            "15-01-01T1:2:3:4",
        ] {
            assert!(parse_iso8601(bad, e).is_none(), "{bad:?} parsed");
        }
    }
}
