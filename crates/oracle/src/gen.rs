//! Deterministic generation of op sequences and trace worlds.
//!
//! Everything here is a pure function of its seed — the generator draws
//! from a small component alphabet (the same trick as the trie property
//! tests) so paths collide: exact overwrites, file-blocks-directory
//! conflicts, rename chains onto live and purged paths, and removals
//! that actually hit something are all common rather than rare.

use crate::ops::{Op, OpSequence};
use crate::rng::OracleRng;
use activedr_core::convert;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_sim::SimConfig;
use activedr_trace::{
    AccessKind, AccessRecord, Archetype, FileSeed, JobRecord, LoginRecord, PublicationRecord,
    TraceSet, TransferRecord, UserProfile,
};

/// Knobs of the op-sequence generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Ops per sequence.
    pub ops: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { ops: 48 }
    }
}

const COMPONENTS: &[&str] = &["a", "b", "c", "dir", "u1", "u2", "data", "x"];

fn fresh_path(rng: &mut OracleRng) -> String {
    let depth = 1 + rng.below(3);
    let mut path = String::new();
    for _ in 0..=depth {
        path.push('/');
        path.push_str(rng.pick(COMPONENTS).copied().unwrap_or("a"));
    }
    path
}

/// Pick a path: mostly reuse (collisions are where the bugs are), the
/// rest fresh.
fn pick_path(rng: &mut OracleRng, known: &mut Vec<String>) -> String {
    if !known.is_empty() && rng.chance(3, 5) {
        if let Some(p) = rng.pick(known) {
            return p.clone();
        }
    }
    let p = fresh_path(rng);
    if !known.contains(&p) {
        known.push(p.clone());
    }
    p
}

/// Generate one weighted random op sequence for `seed`.
pub fn gen_sequence(seed: u64, config: &GenConfig) -> OpSequence {
    let mut rng = OracleRng::new(seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1));
    let mut known: Vec<String> = Vec::new();
    let mut day: i64 = 0;
    let mut ops = Vec::with_capacity(config.ops);
    while ops.len() < config.ops {
        // The clock only moves forward; occasional large jumps age the
        // population enough for purges to bite.
        if rng.chance(3, 10) {
            day += convert::i64_from_u64(rng.below(4));
        }
        if rng.chance(1, 20) {
            day += convert::i64_from_u64(rng.below(40));
        }
        let roll = rng.below(100);
        let op = match roll {
            0..=27 => Op::Create {
                path: pick_path(&mut rng, &mut known),
                owner: convert::u32_from_u64(rng.below(4)),
                size: 1 + rng.below(1 << 16),
                day,
            },
            28..=47 => Op::Read {
                path: pick_path(&mut rng, &mut known),
                day,
            },
            // Flush boundaries dropped at arbitrary tape positions pin the
            // coalescing delta buffer to per-delta application no matter
            // where a window is split.
            48..=51 => Op::Flush,
            52..=59 | 70..=73 => Op::Remove {
                path: pick_path(&mut rng, &mut known),
            },
            60..=69 => Op::Rename {
                from: pick_path(&mut rng, &mut known),
                to: pick_path(&mut rng, &mut known),
            },
            74..=83 => {
                if rng.chance(1, 2) {
                    day += convert::i64_from_u64(20 + rng.below(70));
                }
                Op::Purge {
                    lifetime_days: convert::u32_from_u64(1 + rng.below(60)),
                    day,
                }
            }
            84..=89 => Op::Restage {
                slot: rng.below(32),
                day,
            },
            90..=91 => Op::SetCapacity {
                bytes: 1 + rng.below(1 << 30),
            },
            92..=93 => Op::SnapshotRoundtrip { day },
            // Crash points dropped at arbitrary tape positions pin the
            // recover-from-disk path to the live state no matter where a
            // WAL/checkpoint window is split.
            94..=95 => Op::CrashRecover,
            96..=98 => Op::ReserveFile {
                path: pick_path(&mut rng, &mut known),
            },
            _ => {
                let base = pick_path(&mut rng, &mut known);
                let prefix = match base.rfind('/') {
                    Some(0) | None => base,
                    Some(cut) => base.get(..cut).map(String::from).unwrap_or(base),
                };
                Op::ReserveDir { prefix }
            }
        };
        ops.push(op);
    }
    OpSequence(ops)
}

const ARCHETYPES: &[Archetype] = &[
    Archetype::PowerUser,
    Archetype::Steady,
    Archetype::Publisher,
    Archetype::Intermittent,
    Archetype::Toucher,
    Archetype::Dormant,
];

/// Generate a compact trace world plus a base engine configuration for
/// `seed`. Much smaller than `Scale::Tiny` so a 256-seed fuzz run stays
/// fast: a handful of users, a 5–9 week horizon, and enough initial files
/// and accesses that purges, misses, and re-stages all occur.
pub fn gen_traces(seed: u64) -> (TraceSet, SimConfig) {
    let mut rng = OracleRng::new(seed.wrapping_mul(0x9FB2_1C65_1E98_DF25).wrapping_add(7));
    let n_users = 3 + rng.below(4);
    let horizon_days = convert::u32_from_u64(35 + rng.below(28));
    let horizon = i64::from(horizon_days);

    let users: Vec<UserProfile> = (0..n_users)
        .map(|i| UserProfile {
            id: UserId(convert::u32_from_u64(i)),
            archetype: ARCHETYPES
                .get(convert::usize_from_u64(
                    rng.below(convert::u64_from_usize(ARCHETYPES.len())),
                ))
                .copied()
                .unwrap_or(Archetype::Steady),
        })
        .collect();

    let mut initial_files = Vec::new();
    for u in &users {
        let files = 2 + rng.below(5);
        for j in 0..files {
            // Created up to 120 days before replay; atime between creation
            // and day 0, so a slice of the population is already stale.
            let created_day = -convert::i64_from_u64(1 + rng.below(120));
            let atime_day = (created_day + convert::i64_from_u64(rng.below(120))).min(0);
            initial_files.push(FileSeed {
                path: format!("/scratch/u{}/f{j}", u.id.0),
                owner: u.id,
                size: 1 + rng.below(1 << 20),
                created: Timestamp::from_days(created_day),
                atime: Timestamp::from_days(atime_day.max(created_day)),
            });
        }
    }

    let mut jobs = Vec::new();
    let mut logins = Vec::new();
    let mut transfers = Vec::new();
    let mut publications = Vec::new();
    for u in &users {
        for _ in 0..rng.below(4) {
            let start = convert::i64_from_u64(rng.below(horizon.unsigned_abs()));
            let submit = Timestamp::from_days(start);
            let dur = 1 + convert::i64_from_u64(rng.below(3));
            jobs.push(JobRecord {
                user: u.id,
                submit_ts: submit,
                start_ts: submit,
                end_ts: Timestamp::from_days(start + dur),
                cores: convert::u32_from_u64(1 + rng.below(64)),
                succeeded: rng.chance(4, 5),
            });
        }
        for _ in 0..rng.below(5) {
            logins.push(LoginRecord {
                user: u.id,
                ts: Timestamp::from_days(convert::i64_from_u64(rng.below(horizon.unsigned_abs()))),
            });
        }
        for _ in 0..rng.below(3) {
            transfers.push(TransferRecord {
                user: u.id,
                ts: Timestamp::from_days(convert::i64_from_u64(rng.below(horizon.unsigned_abs()))),
                bytes: 1 + rng.below(1 << 24),
                inbound: rng.chance(1, 2),
            });
        }
        if rng.chance(1, 3) {
            publications.push(PublicationRecord {
                ts: Timestamp::from_days(convert::i64_from_u64(rng.below(horizon.unsigned_abs()))),
                citations: convert::u32_from_u64(rng.below(40)),
                authors: vec![u.id],
            });
        }
    }

    let seed_paths: Vec<String> = initial_files.iter().map(|f| f.path.clone()).collect();
    let n_accesses = 40 + rng.below(80);
    let mut accesses = Vec::new();
    for k in 0..n_accesses {
        let user = UserId(convert::u32_from_u64(rng.below(n_users)));
        let path = if rng.chance(7, 10) {
            rng.pick(&seed_paths)
                .cloned()
                .unwrap_or_else(|| format!("/scratch/u{}/w{k}", user.0))
        } else {
            format!("/scratch/u{}/w{k}", user.0)
        };
        let kind = if rng.chance(7, 10) {
            AccessKind::Read
        } else {
            AccessKind::Write {
                size: 1 + rng.below(1 << 16),
            }
        };
        accesses.push(AccessRecord {
            user,
            ts: Timestamp::from_days(convert::i64_from_u64(rng.below(horizon.unsigned_abs()))),
            path,
            kind,
        });
    }

    let mut traces = TraceSet {
        horizon_days,
        replay_start_day: 0,
        users,
        initial_files,
        jobs,
        publications,
        logins,
        transfers,
        accesses,
    };
    traces.sort();

    let lifetime = convert::u32_from_u64(7 + rng.below(30));
    let mut config = match rng.below(4) {
        0 => SimConfig::flt(lifetime),
        1 => SimConfig::activedr(lifetime),
        2 => SimConfig::scratch_cache(),
        _ => SimConfig::value_based(lifetime),
    };
    config.purge_interval_days = convert::u32_from_u64(3 + rng.below(8));
    if rng.chance(1, 4) {
        let mut ex = activedr_fs::ExemptionList::new();
        ex.reserve_dir("/scratch/u0");
        config = config.with_exemptions(ex);
    }
    (traces, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let cfg = GenConfig::default();
        assert_eq!(gen_sequence(11, &cfg), gen_sequence(11, &cfg));
        assert_ne!(gen_sequence(11, &cfg), gen_sequence(12, &cfg));
        assert_eq!(gen_sequence(11, &cfg).len(), cfg.ops);
    }

    #[test]
    fn sequences_round_trip_through_text() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let seq = gen_sequence(seed, &cfg);
            let back: OpSequence = seq.to_string().parse().unwrap_or_default();
            assert_eq!(seq, back, "seed {seed}");
        }
    }

    #[test]
    fn generated_traces_validate_cleanly() {
        for seed in 0..20 {
            let (traces, config) = gen_traces(seed);
            let problems = traces.validate();
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
            assert!(config.lifetime_days > 0);
            assert!(config.purge_interval_days > 0);
            assert!(!traces.users.is_empty());
            assert!(!traces.initial_files.is_empty());
        }
    }
}
