//! Campaign schedules: alternating active/idle phases.
//!
//! Real HPC usage is campaign-structured — stretches of intense activity
//! separated by gaps (paper §1: "users may leave their data files untouched
//! for quite a long time and then come back"). A schedule is a sorted list
//! of active `[start, end)` day intervals clipped to the horizon and, for
//! departing users, to their departure day.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the alternating-renewal schedule process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseParams {
    pub active_days: (u32, u32),
    pub gap_days: (u32, u32),
}

/// The active phases of one user over the trace horizon.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ActivePhases {
    /// Sorted, non-overlapping `[start_day, end_day)` intervals (f64 days).
    pub phases: Vec<(f64, f64)>,
}

fn sample_range(rng: &mut impl Rng, (lo, hi): (u32, u32)) -> f64 {
    if lo >= hi {
        f64::from(lo)
    } else {
        rng.random_range(f64::from(lo)..=f64::from(hi))
    }
}

impl ActivePhases {
    /// Build a schedule from day 0 to `horizon_days`, optionally cut off at
    /// `departure_day`. The process starts at a random point of its cycle
    /// so users are desynchronized.
    pub fn generate(
        rng: &mut impl Rng,
        horizon_days: u32,
        params: PhaseParams,
        departure_day: Option<f64>,
    ) -> ActivePhases {
        let horizon = departure_day
            .map(|d| d.min(f64::from(horizon_days)))
            .unwrap_or(f64::from(horizon_days));
        let mut phases = Vec::new();
        // Random initial offset: begin mid-gap or mid-campaign.
        let mut t = -sample_range(rng, params.gap_days) * rng.random_range(0.0..1.0);
        while t < horizon {
            let active_len = sample_range(rng, params.active_days).max(0.5);
            let start = t.max(0.0);
            let end = (t + active_len).min(horizon);
            if end > start {
                phases.push((start, end));
            }
            t += active_len;
            t += sample_range(rng, params.gap_days).max(0.5);
        }
        ActivePhases { phases }
    }

    /// Is day `d` inside an active phase?
    pub fn is_active(&self, d: f64) -> bool {
        self.phases.iter().any(|(s, e)| d >= *s && d < *e)
    }

    /// Total active days.
    pub fn active_days(&self) -> f64 {
        self.phases.iter().map(|(s, e)| e - s).sum()
    }

    /// Sample Poisson arrivals at `rate_per_day` within the active phases,
    /// returning sorted fractional day offsets.
    pub fn poisson_arrivals(&self, rng: &mut impl Rng, rate_per_day: f64) -> Vec<f64> {
        let mut out = Vec::new();
        if rate_per_day <= 0.0 {
            return out;
        }
        for &(start, end) in &self.phases {
            let mut t = start;
            loop {
                // Exponential inter-arrival: -ln(U)/λ.
                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                t += -u.ln() / rate_per_day;
                if t >= end {
                    break;
                }
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::convert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn phases_are_sorted_disjoint_and_clipped() {
        for seed in 0..20 {
            let p = ActivePhases::generate(
                &mut rng(seed),
                730,
                PhaseParams {
                    active_days: (10, 40),
                    gap_days: (30, 120),
                },
                None,
            );
            let mut prev_end = 0.0f64;
            for &(s, e) in &p.phases {
                assert!(s >= 0.0 && e <= 730.0, "clipped: ({s},{e})");
                assert!(s < e, "non-empty");
                assert!(s >= prev_end, "sorted/disjoint");
                prev_end = e;
            }
        }
    }

    #[test]
    fn departure_truncates() {
        let p = ActivePhases::generate(
            &mut rng(1),
            730,
            PhaseParams {
                active_days: (20, 30),
                gap_days: (5, 10),
            },
            Some(200.0),
        );
        assert!(p.phases.iter().all(|(_, e)| *e <= 200.0));
        assert!(!p.is_active(400.0));
    }

    #[test]
    fn continuous_like_schedules_cover_most_of_horizon() {
        let p = ActivePhases::generate(
            &mut rng(2),
            730,
            PhaseParams {
                active_days: (60, 120),
                gap_days: (3, 14),
            },
            None,
        );
        assert!(p.active_days() > 500.0, "got {}", p.active_days());
    }

    #[test]
    fn sparse_schedules_are_mostly_idle() {
        let mut total = 0.0;
        for seed in 0..10 {
            let p = ActivePhases::generate(
                &mut rng(seed),
                730,
                PhaseParams {
                    active_days: (3, 10),
                    gap_days: (300, 700),
                },
                None,
            );
            total += p.active_days();
        }
        assert!(total / 10.0 < 40.0, "avg active days {}", total / 10.0);
    }

    #[test]
    fn arrivals_fall_inside_phases_at_roughly_the_rate() {
        let p = ActivePhases::generate(
            &mut rng(3),
            730,
            PhaseParams {
                active_days: (100, 100),
                gap_days: (50, 50),
            },
            None,
        );
        let arrivals = p.poisson_arrivals(&mut rng(4), 0.5);
        for &a in &arrivals {
            assert!(p.is_active(a), "arrival {a} outside phases");
        }
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let expected = p.active_days() * 0.5;
        let got = convert::approx_f64_usize(arrivals.len());
        assert!(
            (got - expected).abs() < expected * 0.5,
            "got {got}, expected ≈{expected}"
        );
        assert!(p.poisson_arrivals(&mut rng(5), 0.0).is_empty());
    }

    #[test]
    fn zero_width_ranges_work() {
        let p = ActivePhases::generate(
            &mut rng(6),
            100,
            PhaseParams {
                active_days: (10, 10),
                gap_days: (20, 20),
            },
            None,
        );
        assert!(p.active_days() > 0.0);
    }
}
