//! Figure 12 — performance evaluation of the retention engine.
//!
//! The paper probes (a) the memory footprint and load time of the activity
//! traces, (b) the per-rank time for activeness evaluation and purge
//! decision making, and (c/d) per-rank snapshot scanning times of the
//! 20-process MPI emulation. The single-node analog reports the same
//! quantities with rayon shards standing in for MPI ranks.

use crate::engine::{run_until, SimConfig};
use crate::report::render_table;
use crate::scenario::Scenario;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::{parallel_catalog, ExemptionList};
use activedr_trace::activity_events;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Serialize `items` to JSON and parse them back, returning the elapsed
/// microseconds. This is a measurement probe, not a correctness gate: a
/// serialization failure yields a (meaningless but harmless) short
/// measurement instead of a panic.
fn roundtrip_micros<T>(items: &Vec<T>) -> u64
where
    Vec<T>: serde::Serialize + serde::Deserialize,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock load time is Fig. 12a's payload"
    )]
    let start = Instant::now();
    let json = serde_json::to_vec(items).unwrap_or_default();
    let _parsed: Option<Vec<T>> = serde_json::from_slice(&json).ok();
    convert::u64_from_micros(start.elapsed().as_micros())
}

/// Bytes per mebibyte, for the resident-size columns.
const MIB: f64 = 1_048_576.0;

/// One probed component of Fig. 12a.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadProbe {
    pub component: String,
    pub bytes: usize,
    pub records: usize,
    pub load_micros: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Data {
    /// Fig. 12a: memory and (re)load time per trace component.
    pub loads: Vec<LoadProbe>,
    /// Fig. 12b: activeness evaluation and purge-decision wall times, µs.
    pub eval_micros: u64,
    pub decision_micros: u64,
    pub files_decided: u64,
    /// Per-shard parallel activeness-evaluation times (µs) — the multi-
    /// rank analog of Fig. 12b.
    pub eval_shard_micros: Vec<u64>,
    /// Fig. 12c/d: per-shard scan times (µs) for the snapshot scan.
    pub shards: usize,
    pub shard_scan_micros: Vec<u64>,
    pub total_scan_micros: u64,
    pub scanned_files: u64,
    /// Robinhood-style incremental catalog: seeding walk and steady-state
    /// (no-change) trigger times, µs — the alternative to re-running the
    /// (c/d) scan at every trigger.
    pub incremental_seed_micros: u64,
    pub incremental_trigger_micros: u64,
    /// Virtual file system index footprint.
    pub index_bytes: usize,
}

fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

impl Fig12Data {
    pub fn compute(scenario: &Scenario, shards: usize) -> Fig12Data {
        // (a) Load probes: serialize/deserialize each trace stream to
        // measure parse cost the way the paper measures trace loading.
        let traces = &scenario.traces;
        let mut loads = Vec::new();
        let probe = |name: &str, bytes: usize, records: usize, micros: u64| LoadProbe {
            component: name.to_string(),
            bytes,
            records,
            load_micros: micros,
        };
        loads.push(probe(
            "user list",
            vec_bytes(&traces.users),
            traces.users.len(),
            roundtrip_micros(&traces.users),
        ));
        loads.push(probe(
            "publication list",
            vec_bytes(&traces.publications),
            traces.publications.len(),
            roundtrip_micros(&traces.publications),
        ));
        loads.push(probe(
            "job trace",
            vec_bytes(&traces.jobs),
            traces.jobs.len(),
            roundtrip_micros(&traces.jobs),
        ));

        // Reach a mid-replay state so the decision problem is realistic.
        let (_, fs) = run_until(
            traces,
            scenario.initial_fs.clone(),
            &SimConfig::flt(90),
            Some(scenario.snapshot_day()),
        );

        // (b) Activeness evaluation + purge decision.
        let tc = Timestamp::from_days(scenario.snapshot_day());
        let registry = ActivityTypeRegistry::paper_default();
        #[expect(
            clippy::disallowed_methods,
            reason = "per-rank evaluation time is Fig. 12b's payload"
        )]
        let eval_start = Instant::now();
        let events = activity_events(traces, &registry, tc);
        let evaluator =
            ActivenessEvaluator::new(registry.clone(), ActivenessConfig::year_window(7));
        let table = evaluator.evaluate(tc, &traces.user_ids(), &events);
        let eval_micros = convert::u64_from_micros(eval_start.elapsed().as_micros());

        // The data-parallel evaluation (rank analog of Fig. 12b).
        let par_eval =
            crate::parallel::parallel_evaluate(&evaluator, tc, &traces.user_ids(), &events, shards);
        let eval_shard_micros: Vec<u64> = par_eval
            .shards
            .iter()
            .map(|s| convert::u64_from_micros(s.elapsed.as_micros()))
            .collect();

        let catalog = fs.catalog(&ExemptionList::new());
        let files_decided = convert::u64_from_usize(catalog.total_files());
        #[expect(
            clippy::disallowed_methods,
            reason = "purge-decision time is Fig. 12b's payload"
        )]
        let decision_start = Instant::now();
        let target = catalog.total_bytes() / 2;
        let _outcome = ActiveDrPolicy::new(RetentionConfig::new(90)).run(PurgeRequest {
            tc,
            catalog: &catalog,
            activeness: &table,
            target_bytes: Some(target),
        });
        let decision_micros = convert::u64_from_micros(decision_start.elapsed().as_micros());

        // (c/d) Parallel snapshot scan.
        let scan = parallel_catalog(&fs, &ExemptionList::new(), shards);
        let shard_scan_micros: Vec<u64> = scan
            .shards
            .iter()
            .map(|s| convert::u64_from_micros(s.elapsed.as_micros()))
            .collect();

        // The incremental alternative to (c/d): one seeding walk, then a
        // changelog-fed snapshot per trigger (here: the no-change case).
        let mut fs = fs;
        #[expect(
            clippy::disallowed_methods,
            reason = "incremental-catalog timing is a Fig. 12 payload"
        )]
        let seed_start = Instant::now();
        let mut index = activedr_fs::CatalogIndex::from_fs(&fs, &ExemptionList::new());
        let incremental_seed_micros = convert::u64_from_micros(seed_start.elapsed().as_micros());
        fs.enable_changelog();
        #[expect(
            clippy::disallowed_methods,
            reason = "incremental-catalog timing is a Fig. 12 payload"
        )]
        let trigger_start = Instant::now();
        index.apply(fs.drain_changelog(), &ExemptionList::new());
        let snapshot_files = convert::u64_from_usize(index.snapshot().total_files());
        let incremental_trigger_micros =
            convert::u64_from_micros(trigger_start.elapsed().as_micros());
        debug_assert_eq!(snapshot_files, scan.total_files());
        fs.disable_changelog();

        Fig12Data {
            loads,
            eval_micros,
            eval_shard_micros,
            decision_micros,
            files_decided,
            shards,
            shard_scan_micros,
            total_scan_micros: convert::u64_from_micros(scan.elapsed.as_micros()),
            scanned_files: scan.total_files(),
            incremental_seed_micros,
            incremental_trigger_micros,
            index_bytes: fs.memory_estimate(),
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::from("Figure 12: performance evaluation\n\n(a) trace loading\n");
        let rows: Vec<Vec<String>> = self
            .loads
            .iter()
            .map(|l| {
                vec![
                    l.component.clone(),
                    l.records.to_string(),
                    format!("{:.2} MiB", convert::approx_f64_usize(l.bytes) / MIB),
                    format!("{:.1} ms", convert::approx_f64(l.load_micros) / 1000.0),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["component", "records", "resident", "load (round-trip)"],
            &rows,
        ));
        out.push_str(&format!(
            "\n(b) activeness evaluation: {:.1} ms; purge decision for {} files: {:.1} ms\n",
            convert::approx_f64(self.eval_micros) / 1000.0,
            self.files_decided,
            convert::approx_f64(self.decision_micros) / 1000.0,
        ));
        out.push_str(
            "    (paper: evaluation 700 ms on rank 0; decisions for 1,040,886 files in 1-5 s)\n",
        );
        if !self.eval_shard_micros.is_empty() {
            let max = self.eval_shard_micros.iter().max().copied().unwrap_or(0);
            let min = self.eval_shard_micros.iter().min().copied().unwrap_or(0);
            out.push_str(&format!(
                "    parallel evaluation across {} shards: {:.2}-{:.2} ms per shard\n",
                self.eval_shard_micros.len(),
                convert::approx_f64(min) / 1000.0,
                convert::approx_f64(max) / 1000.0
            ));
        }
        out.push_str(&format!(
            "\n(c/d) parallel snapshot scan: {} files across {} shards in {:.1} ms\n",
            self.scanned_files,
            self.shards,
            convert::approx_f64(self.total_scan_micros) / 1000.0
        ));
        let rows: Vec<Vec<String>> = self
            .shard_scan_micros
            .iter()
            .enumerate()
            .map(|(i, us)| {
                vec![
                    format!("shard {i}"),
                    format!("{:.2} ms", convert::approx_f64(*us) / 1000.0),
                ]
            })
            .collect();
        out.push_str(&render_table(&["rank", "scan time"], &rows));
        out.push_str(&format!(
            "\nincremental catalog: seed {:.1} ms, no-change trigger {:.3} ms (vs {:.1} ms full scan)\n",
            convert::approx_f64(self.incremental_seed_micros) / 1000.0,
            convert::approx_f64(self.incremental_trigger_micros) / 1000.0,
            convert::approx_f64(self.total_scan_micros) / 1000.0,
        ));
        out.push_str(&format!(
            "\nvirtual FS index footprint: {:.2} MiB\n",
            convert::approx_f64_usize(self.index_bytes) / MIB
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn fig12_probes_are_populated() {
        let scenario = Scenario::build(Scale::Tiny, 6);
        let data = Fig12Data::compute(&scenario, 4);
        assert_eq!(data.loads.len(), 3);
        assert!(data.loads.iter().all(|l| l.records > 0));
        assert!(data.files_decided > 0);
        assert_eq!(
            data.shard_scan_micros.len().max(1),
            data.shard_scan_micros.len()
        );
        assert!(data.scanned_files > 0);
        assert!(data.index_bytes > 0);
        assert!(data.incremental_trigger_micros <= data.incremental_seed_micros.max(1));
        let text = data.render();
        assert!(text.contains("(a) trace loading"));
        assert!(text.contains("(c/d) parallel snapshot scan"));
        assert!(text.contains("incremental catalog"));
    }
}
