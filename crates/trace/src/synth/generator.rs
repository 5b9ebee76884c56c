//! The synthetic trace generator.
//!
//! Produces a [`TraceSet`] with the population structure of the paper's
//! OLCF dataset: per-user campaign schedules drive job submissions, jobs
//! drive file reads/writes against a per-user file ledger, publications are
//! layered on the research-active subpopulation, and special behaviours
//! (periodic file touching, departure) are injected by archetype.
//!
//! Generation is fully deterministic for a given [`SynthConfig`]: every
//! user draws from an RNG seeded by `(config.seed, user id)`, so adding
//! users or reordering archetypes does not reshuffle existing users.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use super::schedule::{ActivePhases, PhaseParams};
use super::sizes::FileSizeSampler;
use super::Archetype;
use crate::records::{
    AccessKind, AccessRecord, FileSeed, JobRecord, LoginRecord, PublicationRecord, TraceSet,
    TransferRecord, UserProfile,
};
use activedr_core::convert;
use activedr_core::time::{TimeDelta, Timestamp};
use activedr_core::user::UserId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one synthetic trace bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    pub seed: u64,
    pub n_users: u32,
    /// Full trace horizon (warm-up + replay), days.
    pub horizon_days: u32,
    /// Replay (and retention) begins here; the paper warms up on 2015 and
    /// replays 2016.
    pub replay_start_day: u32,
    /// Population shares per archetype; must sum to ≈1.
    pub mix: Vec<(Archetype, f64)>,
    pub sizes: FileSizeSampler,
    /// Probability a job also triggers an inbound/outbound data transfer.
    pub transfer_prob: f64,
    /// Probability that a user contributes one large *shared* dataset to
    /// the community pool. Shared data is typically owned by otherwise
    /// quiet accounts (project PIs, data stewards) but read by everyone's
    /// jobs — the dynamics behind the paper's negative both-inactive rows
    /// in Table 4.
    pub shared_file_prob: f64,
    /// Size distribution of shared datasets (much larger than run files).
    pub shared_sizes: FileSizeSampler,
    /// Probability a job also reads from the shared pool.
    pub shared_read_prob: f64,
    /// How many shared files such a job reads.
    pub shared_reads_per_job: (u32, u32),
    /// Mean of the exponential age (days before replay) assigned to seed
    /// file atimes. The warm-up snapshot is itself the product of a 90-day
    /// FLT regime, so most surviving files were accessed recently.
    pub seed_age_mean_days: f64,
}

impl SynthConfig {
    /// Tiny population for unit tests.
    pub fn tiny(seed: u64) -> Self {
        SynthConfig {
            n_users: 60,
            ..SynthConfig::with_seed(seed)
        }
    }

    /// Small population for integration tests and quick CLI runs.
    pub fn small(seed: u64) -> Self {
        SynthConfig {
            n_users: 400,
            ..SynthConfig::with_seed(seed)
        }
    }

    /// Default experiment scale (a ~7× down-scaled Titan user population;
    /// the paper has 13,813 users).
    pub fn paper_scale(seed: u64) -> Self {
        SynthConfig {
            n_users: 2000,
            ..SynthConfig::with_seed(seed)
        }
    }

    fn with_seed(seed: u64) -> Self {
        SynthConfig {
            seed,
            n_users: 0,
            horizon_days: 730,
            replay_start_day: 365,
            mix: Archetype::default_mix(),
            sizes: FileSizeSampler::default(),
            transfer_prob: 0.08,
            shared_file_prob: 0.35,
            shared_sizes: FileSizeSampler {
                median: 2 << 30, // 2 GiB reference datasets
                sigma: 1.5,
                ..FileSizeSampler::default()
            },
            shared_read_prob: 0.35,
            shared_reads_per_job: (1, 3),
            seed_age_mean_days: 60.0,
        }
    }

    fn validate(&self) {
        assert!(self.n_users > 0, "population must be non-empty");
        assert!(
            self.replay_start_day < self.horizon_days,
            "replay must fit in horizon"
        );
        let total: f64 = self.mix.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "archetype mix must sum to 1, got {total}"
        );
    }
}

/// Sample a Poisson count (Knuth's method; rates here are small).
fn poisson(rng: &mut impl Rng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.random_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // guard against pathological lambda
        }
    }
}

fn sample_u32(rng: &mut impl Rng, (lo, hi): (u32, u32)) -> u32 {
    if lo >= hi {
        lo
    } else {
        rng.random_range(lo..=hi)
    }
}

/// One file in a user's generation-time ledger.
struct LedgerFile {
    path: String,
    size: u64,
    created: Timestamp,
    /// Last access strictly before the replay window (shapes the initial
    /// snapshot atime).
    last_prereplay: Timestamp,
}

struct UserState {
    rng: StdRng,
    phases: ActivePhases,
    departure: Option<f64>,
    ledger: Vec<LedgerFile>,
    seq: u32,
}

/// Generate a full trace bundle.
pub fn generate(config: &SynthConfig) -> TraceSet {
    config.validate();
    let replay_start = Timestamp::from_days(i64::from(config.replay_start_day));

    let mut traces = TraceSet {
        horizon_days: config.horizon_days,
        replay_start_day: config.replay_start_day,
        ..Default::default()
    };

    // -- assign archetypes deterministically by mix share ---------------
    // validate() rejects an empty mix; without one there is nothing to
    // generate, so degrade to an empty bundle instead of panicking.
    let Some(&(fallback_archetype, _)) = config.mix.last() else {
        return traces;
    };
    let mut assignment_rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9));
    let mut archetypes = Vec::with_capacity(convert::usize_from_u32(config.n_users));
    for _ in 0..config.n_users {
        let roll: f64 = assignment_rng.random_range(0.0..1.0);
        let mut acc = 0.0;
        let mut chosen = fallback_archetype;
        for (a, p) in &config.mix {
            acc += p;
            if roll < acc {
                chosen = *a;
                break;
            }
        }
        archetypes.push(chosen);
    }

    // Research pool for co-authorship: outcome-capable archetypes.
    let research_pool: Vec<UserId> = archetypes
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, Archetype::PowerUser | Archetype::Publisher))
        .map(|(i, _)| UserId(convert::u32_from_usize(i)))
        .collect();

    let mut all_accesses: Vec<AccessRecord> = Vec::new();

    // -- phase 1: per-user state, seed files, and the shared pool --------
    let mut states: Vec<UserState> = Vec::with_capacity(archetypes.len());
    let mut shared_pool: Vec<String> = Vec::new();
    for (idx, &archetype) in archetypes.iter().enumerate() {
        let uid = UserId(convert::u32_from_usize(idx));
        traces.users.push(UserProfile { id: uid, archetype });
        let params = archetype.params();
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ convert::u64_from_usize(idx).wrapping_mul(0xA076_1D64_78BD_642F),
        );

        // Departures are spread over the warm-up year so that by mid-replay
        // most departed users have aged out of every evaluation window.
        let departure = params.departs.then(|| {
            let hi = f64::from((config.replay_start_day.saturating_sub(1)).max(61)).min(170.0);
            rng.random_range(60.0..hi.max(61.0))
        });
        let phases = ActivePhases::generate(
            &mut rng,
            config.horizon_days,
            PhaseParams {
                active_days: params.active_days,
                gap_days: params.gap_days,
            },
            departure,
        );

        let mut state = UserState {
            rng,
            phases,
            departure,
            ledger: Vec::new(),
            seq: 0,
        };
        seed_initial_files(config, uid, &params, &mut state);

        // One large shared dataset per contributing user.
        if state.rng.random_range(0.0..1.0) < config.shared_file_prob {
            let created = Timestamp::from_days_f64(state.rng.random_range(0.0..60.0));
            let size = config.shared_sizes.sample(&mut state.rng);
            let path = format!("/scratch/{uid}/shared/dataset.h5");
            // Community data stays warm: its snapshot atime is recent even
            // though the owner may be silent.
            let age = state.rng.random_range(0.0..30.0);
            let atime = Timestamp::from_days_f64(
                (f64::from(config.replay_start_day) - age).max(created.days_f64()),
            );
            state.ledger.push(LedgerFile {
                path: path.clone(),
                size,
                created,
                last_prereplay: atime,
            });
            shared_pool.push(path);
        }
        states.push(state);
    }

    // -- phase 2: jobs, accesses (own + shared), touches, publications ---
    for (idx, &archetype) in archetypes.iter().enumerate() {
        let uid = UserId(convert::u32_from_usize(idx));
        let params = archetype.params();
        let state = &mut states[idx];
        let job_days = state
            .phases
            .poisson_arrivals(&mut state.rng, params.jobs_per_active_week / 7.0);
        emit_jobs_and_accesses(
            config,
            uid,
            &params,
            state,
            &job_days,
            replay_start,
            &shared_pool,
            &mut traces,
            &mut all_accesses,
        );
        emit_touches(config, uid, &params, state, &mut all_accesses);
        emit_publications(config, uid, &params, state, &research_pool, &mut traces);

        // Harvest the initial snapshot: files created before replay.
        for f in &state.ledger {
            if f.created < replay_start {
                traces.initial_files.push(FileSeed {
                    path: f.path.clone(),
                    owner: uid,
                    size: f.size,
                    created: f.created,
                    atime: f.last_prereplay,
                });
            }
        }
    }

    // Keep only the replay window in the access stream.
    traces.accesses = all_accesses
        .into_iter()
        .filter(|a| a.ts >= replay_start)
        .collect();
    traces.sort();
    debug_assert!(
        traces.validate().is_empty(),
        "generator produced invalid traces"
    );
    traces
}

fn seed_initial_files(
    config: &SynthConfig,
    uid: UserId,
    params: &super::ArchetypeParams,
    state: &mut UserState,
) {
    let n = sample_u32(&mut state.rng, params.initial_files);
    let latest_seed_day = config
        .replay_start_day
        .min(
            state
                .departure
                .map(convert::trunc_to_u32)
                .unwrap_or(u32::MAX),
        )
        .saturating_sub(1)
        .max(1);
    for i in 0..n {
        let day = state.rng.random_range(0.0..f64::from(latest_seed_day));
        let created = Timestamp::from_days_f64(day);
        let size = config.sizes.sample(&mut state.rng);
        // The warm-up snapshot is post-FLT: most surviving files carry a
        // recent atime. Sample an exponential age before replay start,
        // clamped so atime never precedes creation.
        let u: f64 = state.rng.random_range(f64::EPSILON..1.0);
        let age_days = -u.ln() * config.seed_age_mean_days;
        let atime_day = (f64::from(config.replay_start_day) - age_days).max(created.days_f64());
        state.ledger.push(LedgerFile {
            path: format!("/scratch/{uid}/seed/f{i:04}.dat"),
            size,
            created,
            last_prereplay: Timestamp::from_days_f64(atime_day),
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_jobs_and_accesses(
    config: &SynthConfig,
    uid: UserId,
    params: &super::ArchetypeParams,
    state: &mut UserState,
    job_days: &[f64],
    replay_start: Timestamp,
    shared_pool: &[String],
    traces: &mut TraceSet,
    accesses: &mut Vec<AccessRecord>,
) {
    for (job_idx, &day) in job_days.iter().enumerate() {
        let submit = Timestamp::from_days_f64(day);
        let queue_delay = TimeDelta(convert::trunc_to_i64(
            state.rng.random_range(0.0..6.0 * 3600.0),
        ));
        let start = submit + queue_delay;
        let hours = state
            .rng
            .random_range(params.job_hours.0..=params.job_hours.1);
        let end = start + TimeDelta(convert::trunc_to_i64(hours * 3600.0));
        let cores = sample_u32(&mut state.rng, params.cores);
        let succeeded = state.rng.random_range(0.0..1.0) < 0.9;
        traces.jobs.push(JobRecord {
            user: uid,
            submit_ts: submit,
            start_ts: start,
            end_ts: end,
            cores,
            succeeded,
        });
        traces.logins.push(LoginRecord {
            user: uid,
            ts: submit - TimeDelta::from_hours(1),
        });

        if state.rng.random_range(0.0..1.0) < config.transfer_prob {
            traces.transfers.push(TransferRecord {
                user: uid,
                ts: submit,
                bytes: config.sizes.sample(&mut state.rng),
                inbound: state.rng.random_range(0.0..1.0) < 0.5,
            });
        }

        // Reads: sample from the ledger with the archetype's old-file bias.
        let reads = sample_u32(&mut state.rng, params.reads_per_job);
        for _ in 0..reads {
            if state.ledger.is_empty() {
                break;
            }
            let n = state.ledger.len();
            let pick = if state.rng.random_range(0.0..1.0) < params.old_read_bias {
                if state.rng.random_range(0.0..1.0) < 0.15 {
                    // Rare deep dig into the oldest archives.
                    state.rng.random_range(0..n)
                } else {
                    // Reach back to earlier campaigns (the mid-age band) —
                    // the files FLT is most likely to have purged.
                    let lo = n / 2;
                    let hi = (n - n / 8).max(lo + 1);
                    state.rng.random_range(lo..hi)
                }
            } else {
                // Work on the current working set: reads concentrate
                // sharply on the newest files (cubic weighting into the
                // most recent quarter), the way jobs consume the outputs
                // of the jobs just before them.
                let u: f64 = state.rng.random_range(0.0..1.0);
                let back =
                    convert::trunc_to_usize(u.powi(3) * (convert::approx_f64_usize(n) / 4.0));
                n - 1 - back.min(n - 1)
            };
            let ts = start + TimeDelta(state.rng.random_range(0..3600));
            // Concurrent jobs could otherwise "read" an output a still
            // running job has not produced yet.
            if state.ledger[pick].created < ts {
                record_access(&mut state.ledger[pick], uid, ts, replay_start, accesses);
            }
        }

        // Shared-pool reads: jobs routinely consume community reference
        // data owned by other (often otherwise silent) users.
        if !shared_pool.is_empty() && state.rng.random_range(0.0..1.0) < config.shared_read_prob {
            let n = sample_u32(&mut state.rng, config.shared_reads_per_job);
            for _ in 0..n {
                let pick = state.rng.random_range(0..shared_pool.len());
                accesses.push(AccessRecord {
                    user: uid,
                    ts: start + TimeDelta(state.rng.random_range(0..3600)),
                    path: shared_pool[pick].clone(),
                    kind: AccessKind::Read,
                });
            }
        }

        // Writes: create new output files under a per-campaign directory.
        let writes = sample_u32(&mut state.rng, params.writes_per_job);
        for _ in 0..writes {
            let size = config.sizes.sample(&mut state.rng);
            let ts = end;
            let path = format!("/scratch/{uid}/c{:03}/out{:05}.dat", job_idx / 8, state.seq);
            state.seq += 1;
            accesses.push(AccessRecord {
                user: uid,
                ts,
                path: path.clone(),
                kind: AccessKind::Write { size },
            });
            let last_prereplay = if ts < replay_start {
                ts
            } else {
                Timestamp::from_days(-1)
            };
            state.ledger.push(LedgerFile {
                path,
                size,
                created: ts,
                last_prereplay,
            });
        }
    }
}

fn record_access(
    file: &mut LedgerFile,
    uid: UserId,
    ts: Timestamp,
    replay_start: Timestamp,
    accesses: &mut Vec<AccessRecord>,
) {
    accesses.push(AccessRecord {
        user: uid,
        ts,
        path: file.path.clone(),
        kind: AccessKind::Read,
    });
    if ts < replay_start && ts > file.last_prereplay {
        file.last_prereplay = ts;
    }
}

fn emit_touches(
    config: &SynthConfig,
    uid: UserId,
    params: &super::ArchetypeParams,
    state: &mut UserState,
    accesses: &mut Vec<AccessRecord>,
) {
    let Some(interval) = params.touch_interval_days else {
        return;
    };
    let replay_start = Timestamp::from_days(i64::from(config.replay_start_day));
    let mut day = interval;
    while day < config.horizon_days {
        let ts = Timestamp::from_days(i64::from(day)) + TimeDelta::from_hours(2);
        for i in 0..state.ledger.len() {
            if state.ledger[i].created < ts {
                record_access(&mut state.ledger[i], uid, ts, replay_start, accesses);
            }
        }
        day += interval;
    }
}

fn emit_publications(
    config: &SynthConfig,
    uid: UserId,
    params: &super::ArchetypeParams,
    state: &mut UserState,
    research_pool: &[UserId],
    traces: &mut TraceSet,
) {
    let years = f64::from(config.horizon_days) / 365.0;
    let n = poisson(&mut state.rng, params.pubs_per_year * years);
    for _ in 0..n {
        let ts =
            Timestamp::from_days_f64(state.rng.random_range(0.0..f64::from(config.horizon_days)));
        // Citation counts: heavy-tailed, most publications cited a handful
        // of times, a few cited hundreds of times.
        let citations = convert::trunc_to_u32(state.rng.random_range(0.0f64..1.0).powi(4) * 300.0);
        let mut authors = vec![uid];
        let coauthors = state.rng.random_range(0..=3usize);
        for _ in 0..coauthors {
            if research_pool.is_empty() {
                break;
            }
            let pick = research_pool[state.rng.random_range(0..research_pool.len())];
            if !authors.contains(&pick) {
                authors.push(pick);
            }
        }
        traces.publications.push(PublicationRecord {
            ts,
            citations,
            authors,
        });
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig::tiny(42));
        let b = generate(&SynthConfig::tiny(42));
        assert_eq!(a, b);
        let c = generate(&SynthConfig::tiny(43));
        assert_ne!(a, c);
    }

    #[test]
    fn traces_are_valid_and_sorted() {
        let t = generate(&SynthConfig::tiny(7));
        assert!(t.validate().is_empty(), "{:?}", t.validate());
        assert_eq!(t.users.len(), 60);
        assert!(!t.jobs.is_empty());
        assert!(!t.initial_files.is_empty());
        assert!(!t.accesses.is_empty());
    }

    #[test]
    fn replay_stream_starts_at_replay_window() {
        let t = generate(&SynthConfig::tiny(7));
        let start = t.replay_start();
        assert!(t.accesses.iter().all(|a| a.ts >= start));
        // Jobs span both years (warm-up history feeds activeness).
        assert!(t.jobs.iter().any(|j| j.submit_ts < start));
        assert!(t.jobs.iter().any(|j| j.submit_ts >= start));
    }

    #[test]
    fn initial_files_predate_replay() {
        let t = generate(&SynthConfig::tiny(9));
        let start = t.replay_start();
        for f in &t.initial_files {
            assert!(f.created < start, "{}", f.path);
            assert!(f.atime < start, "{}", f.path);
            assert!(f.atime >= f.created);
            assert!(f.size > 0);
        }
        // Paths are unique.
        let mut paths: Vec<&str> = t.initial_files.iter().map(|f| f.path.as_str()).collect();
        paths.sort_unstable();
        let before = paths.len();
        paths.dedup();
        assert_eq!(paths.len(), before);
    }

    #[test]
    fn departed_users_are_silent_after_departure() {
        let t = generate(&SynthConfig::small(3));
        let start = t.replay_start();
        let departed: Vec<UserId> = t
            .users
            .iter()
            .filter(|u| u.archetype == Archetype::Departed)
            .map(|u| u.id)
            .collect();
        assert!(!departed.is_empty());
        for j in &t.jobs {
            if departed.contains(&j.user) {
                assert!(
                    j.submit_ts < start,
                    "departed user {} has replay-window job",
                    j.user
                );
            }
        }
    }

    #[test]
    fn touchers_touch_during_replay() {
        let t = generate(&SynthConfig::small(3));
        let touchers: Vec<UserId> = t
            .users
            .iter()
            .filter(|u| u.archetype == Archetype::Toucher)
            .map(|u| u.id)
            .collect();
        assert!(!touchers.is_empty());
        let touch_reads = t
            .accesses
            .iter()
            .filter(|a| touchers.contains(&a.user) && a.is_read())
            .count();
        // Touchers periodically read all of their files: their read volume
        // dominates their tiny job count.
        assert!(
            touch_reads > touchers.len() * 100,
            "only {touch_reads} toucher reads"
        );
    }

    #[test]
    fn population_mix_roughly_respected() {
        let t = generate(&SynthConfig::paper_scale(5));
        let count = |a: Archetype| {
            convert::approx_f64_usize(t.users.iter().filter(|u| u.archetype == a).count())
        };
        let n = convert::approx_f64_usize(t.users.len());
        // The silent mass (ghosts + dormant + departed) dominates.
        let silent =
            count(Archetype::Ghost) + count(Archetype::Dormant) + count(Archetype::Departed);
        assert!(silent / n > 0.7, "silent share {}", silent / n);
        assert!(count(Archetype::PowerUser) / n < 0.03);
        for a in Archetype::ALL {
            if a == Archetype::Unknown {
                assert_eq!(count(a), 0.0, "generator must never draw Unknown");
            } else {
                assert!(count(a) > 0.0, "{a} missing from population");
            }
        }
    }

    #[test]
    fn publications_come_mostly_from_research_archetypes() {
        let t = generate(&SynthConfig::paper_scale(5));
        let by_arch = |u: UserId| t.users[u.index()].archetype;
        let mut research = 0usize;
        let mut total = 0usize;
        for p in &t.publications {
            for a in &p.authors {
                total += 1;
                if matches!(by_arch(*a), Archetype::PowerUser | Archetype::Publisher) {
                    research += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            convert::ratio_usize(research, total) > 0.5,
            "{research}/{total}"
        );
    }

    #[test]
    #[should_panic(expected = "mix must sum to 1")]
    fn bad_mix_rejected() {
        let mut c = SynthConfig::tiny(1);
        c.mix = vec![(Archetype::Steady, 0.5)];
        generate(&c);
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn empty_population_rejected() {
        let mut c = SynthConfig::tiny(1);
        c.n_users = 0;
        generate(&c);
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<u32> = (0..2000).map(|_| poisson(&mut rng, 3.0)).collect();
        let mean =
            f64::from(samples.iter().sum::<u32>()) / convert::approx_f64_usize(samples.len());
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
