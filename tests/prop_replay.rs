//! Property tests over the replay engine: invariants that must hold for
//! every seed, scale, policy, and lifetime.

use activedr_sim::{build_initial_fs, pre_purge_flt, run_until, CatalogMode, SimConfig};
use activedr_trace::{generate, SynthConfig};
use proptest::prelude::*;

fn configs() -> impl Strategy<Value = SimConfig> {
    (
        prop::sample::select(vec![0u8, 1, 2, 3]),
        prop::sample::select(vec![7u32, 30, 60, 90]),
        prop::sample::select(vec![CatalogMode::FullScan, CatalogMode::Incremental]),
    )
        .prop_map(|(kind, lifetime, catalog_mode)| {
            let config = match kind {
                0 => SimConfig::flt(lifetime),
                1 => SimConfig::activedr(lifetime),
                2 => SimConfig::scratch_cache(),
                _ => SimConfig::value_based(lifetime),
            };
            config.with_catalog_mode(catalog_mode)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine invariants for arbitrary worlds and policies:
    /// * daily misses never exceed daily reads;
    /// * per-quadrant miss attribution sums to the daily total;
    /// * every retention event conserves bytes;
    /// * used bytes never go negative (no double-free) and the final used
    ///   figure matches what the retention/creation arithmetic implies.
    #[test]
    fn engine_invariants(seed in 0u64..200, config in configs()) {
        let traces = generate(&SynthConfig::tiny(seed));
        let mut fs = build_initial_fs(&traces);
        pre_purge_flt(&mut fs, traces.replay_start(), 90);
        let capacity = fs.used_bytes();
        fs.set_capacity(capacity);

        let (result, final_fs) = run_until(&traces, fs, &config, None);

        for d in &result.daily {
            prop_assert!(d.misses <= d.reads, "day {}: {} misses > {} reads", d.day, d.misses, d.reads);
            prop_assert_eq!(d.misses_by_quadrant.iter().sum::<u64>(), d.misses);
        }
        for r in &result.retentions {
            prop_assert_eq!(r.used_before - r.purged_bytes, r.used_after);
            prop_assert_eq!(r.breakdown.total_purged_bytes(), r.purged_bytes);
            prop_assert_eq!(
                r.breakdown.total_purged_bytes() + r.breakdown.total_retained_bytes(),
                r.used_before
            );
        }
        prop_assert_eq!(result.final_used, final_fs.used_bytes());
        prop_assert_eq!(result.final_files, final_fs.file_count() as u64);

        // Re-staging only recovers what was purged: traffic is bounded by
        // purged bytes.
        prop_assert!(result.total_restage_bytes() <= result.total_purged_bytes());
    }

    /// Determinism: the same world and config always produce the same
    /// result, regardless of how the run is split.
    #[test]
    fn runs_are_deterministic_and_prefix_stable(seed in 0u64..100) {
        let traces = generate(&SynthConfig::tiny(seed));
        let fs = build_initial_fs(&traces);
        let config = SimConfig::activedr(30);

        let (full_a, _) = run_until(&traces, fs.clone(), &config, None);
        let (full_b, _) = run_until(&traces, fs.clone(), &config, None);
        prop_assert_eq!(&full_a.daily, &full_b.daily);

        let stop = traces.replay_start_day as i64 + 40;
        let (partial, _) = run_until(&traces, fs, &config, Some(stop));
        prop_assert_eq!(&full_a.daily[..partial.daily.len()], &partial.daily[..]);
    }
}
