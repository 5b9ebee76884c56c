//! Figure 12 — performance evaluation of the retention engine.
//!
//! The paper probes (a) the memory footprint and load time of the activity
//! traces, (b) the time for activeness evaluation and purge decision
//! making, and (c/d) the snapshot scanning time of its 20-process MPI
//! emulation. The single-process analog reports (a) from serialization
//! round-trips and (b)–(d) from the probes the engine records at every
//! fired retention trigger ([`RetentionEvent`]'s `*_micros` fields), over
//! two ActiveDR-90 replays: one walks the namespace at each trigger (the
//! paper's snapshot scan), the other serves the catalog from the
//! changelog-fed index.

use crate::engine::{run_instrumented, CatalogMode, RetentionEvent, SimConfig, SimResult};
use crate::report::render_table;
use crate::scenario::Scenario;
use activedr_core::convert;
use activedr_fs::VirtualFs;
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

/// Median and maximum of one per-trigger probe over a replay's fired
/// triggers, µs. The median of an even count is the upper middle sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProbeStats {
    pub median: u64,
    pub max: u64,
}

impl ProbeStats {
    fn of(retentions: &[RetentionEvent], probe: impl Fn(&RetentionEvent) -> u64) -> ProbeStats {
        let mut samples: Vec<u64> = retentions.iter().map(probe).collect();
        samples.sort_unstable();
        ProbeStats {
            median: samples.get(samples.len() / 2).copied().unwrap_or(0),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Data {
    /// Fig. 12a: memory and (re)load time per trace component.
    pub loads: Vec<LoadProbe>,
    /// Retention triggers that fired (purged) in the FullScan replay.
    pub fired_triggers: usize,
    /// The largest catalog a fired trigger decided over.
    pub files_decided: u64,
    /// Fig. 12b: activeness evaluation and purge decision per trigger
    /// (FullScan replay).
    pub eval: ProbeStats,
    pub decision: ProbeStats,
    /// Fig. 12c/d: the trigger's catalog, walked (FullScan replay) or
    /// served from the changelog-fed index (Incremental replay).
    pub walk: ProbeStats,
    pub incremental: ProbeStats,
    /// Virtual file system index footprint at the end of the FullScan
    /// replay.
    pub index_bytes: usize,
}

fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

/// Replay ActiveDR-90 under `mode`, returning the result, the final file
/// system and the largest catalog a fired trigger handed the policy.
fn replay(scenario: &Scenario, mode: CatalogMode) -> (SimResult, VirtualFs, usize) {
    let config = SimConfig::activedr(90).with_catalog_mode(mode);
    let mut largest = 0;
    let (result, fs) = run_instrumented(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &config,
        None,
        &mut |p| {
            if p.event.is_some() {
                largest = largest.max(p.catalog.total_files());
            }
        },
    );
    (result, fs, largest)
}

impl Fig12Data {
    pub fn compute(scenario: &Scenario) -> Fig12Data {
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

        // (b)–(d) The engine's own per-trigger probes.
        let (full, fs, files_decided) = replay(scenario, CatalogMode::FullScan);
        let (incremental, _, _) = replay(scenario, CatalogMode::Incremental);

        Fig12Data {
            loads,
            fired_triggers: full.retentions.len(),
            files_decided: convert::u64_from_usize(files_decided),
            eval: ProbeStats::of(&full.retentions, |r| r.eval_micros),
            decision: ProbeStats::of(&full.retentions, |r| r.decision_micros),
            walk: ProbeStats::of(&full.retentions, |r| r.scan_micros),
            incremental: ProbeStats::of(&incremental.retentions, |r| r.scan_micros),
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
            "\n(b)-(d) per fired trigger of ActiveDR-90: {} triggers, catalogs of up to {} files\n",
            self.fired_triggers, self.files_decided,
        ));
        let ms = |us: u64| format!("{:.2} ms", convert::approx_f64(us) / 1000.0);
        let row = |phase: &str, stats: ProbeStats| {
            vec![phase.to_string(), ms(stats.median), ms(stats.max)]
        };
        let rows = vec![
            row("(b) activeness evaluation", self.eval),
            row("(b) purge decision", self.decision),
            row("(c/d) catalog: full walk", self.walk),
            row("(c/d) catalog: incremental", self.incremental),
        ];
        out.push_str(&render_table(&["phase", "median", "max"], &rows));
        out.push_str(
            "    (paper: evaluation 700 ms on rank 0; decisions for 1,040,886 files in 1-5 s)\n",
        );
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
        let data = Fig12Data::compute(&scenario);
        assert_eq!(data.loads.len(), 3);
        assert!(data.loads.iter().all(|l| l.records > 0));
        assert!(data.fired_triggers > 0);
        assert!(data.files_decided > 0);
        assert!(data.index_bytes > 0);
        let text = data.render();
        assert!(text.contains("(a) trace loading"));
        assert!(text.contains("(c/d) catalog: full walk"));
        assert!(text.contains("(c/d) catalog: incremental"));
    }
}
