//! Telemetry integration: the side-channel contract, counter/SimResult
//! reconciliation under all four policies, sink validity, and the
//! incremental-catalog consistency guard.

#![allow(
    clippy::expect_used,
    reason = "test helper plumbing panics on harness failures by design"
)]

use activedr_sim::{
    complete_lines, run, run_with_telemetry, CatalogMode, Scale, Scenario, SimConfig, SimResult,
    StreamOptions, Telemetry, TelemetryReport,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// In-memory `Write` sink for exercising the streaming path without
/// touching the filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("stream is utf8")
    }
}

fn scenario() -> Scenario {
    Scenario::build(Scale::Tiny, 42)
}

fn all_policies() -> Vec<SimConfig> {
    vec![
        SimConfig::flt(90),
        SimConfig::activedr(90),
        SimConfig::scratch_cache(),
        SimConfig::value_based(90),
    ]
}

#[test]
fn simresult_is_byte_identical_with_telemetry_on_or_off() {
    let sc = scenario();
    for config in all_policies() {
        let plain = run(&sc.traces, sc.initial_fs.clone(), &config);
        let tele = Telemetry::on();
        let (observed, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        assert_eq!(
            plain.digest(),
            observed.digest(),
            "{}: telemetry changed the replay outcome",
            config.policy.name()
        );
        assert!(tele.report().counter("replay.reads").unwrap_or(0) > 0);
        // A disabled handle through the same entry point is also identical.
        let off = Telemetry::off();
        let (dark, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &off);
        assert_eq!(plain.digest(), dark.digest());
        assert_eq!(off.report().counter("replay.reads"), None);
    }
    // And the incremental catalog path is covered by the same contract.
    let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let plain = run(&sc.traces, sc.initial_fs.clone(), &config);
    let tele = Telemetry::on();
    let (observed, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(plain.digest(), observed.digest());
}

/// Replay `config` with an enabled instance streaming JSONL into memory
/// every `every_days` days; returns the result, the end-of-run report and
/// the streamed text.
fn streamed_run(
    sc: &Scenario,
    config: &SimConfig,
    every_days: i64,
) -> (SimResult, TelemetryReport, String) {
    let tele = Telemetry::on();
    let buf = SharedBuf::default();
    tele.attach_stream(
        Box::new(buf.clone()),
        StreamOptions {
            prom_path: None,
            every_days,
        },
    );
    let (result, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), config, &tele);
    (result, tele.report(), buf.text())
}

/// The JSONL stream is the one windowed time series: attaching it to an
/// enabled instance, or not, leaves the replay outcome untouched.
#[test]
fn simresult_is_byte_identical_with_series_and_streaming_on_or_off() {
    let sc = scenario();
    for config in [
        SimConfig::activedr(90),
        SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental),
    ] {
        let plain = run(&sc.traces, sc.initial_fs.clone(), &config);

        let (streamed, report, text) = streamed_run(&sc, &config, 1);
        assert_eq!(
            plain.digest(),
            streamed.digest(),
            "streaming changed the replay outcome"
        );
        assert!(report.stream_lines > 0, "stream never emitted");
        assert_eq!(report.stream_write_errors, 0);
        assert!(!text.is_empty());

        // An enabled instance with no stream attached: also identical,
        // and nothing was streamed.
        let tele = Telemetry::on();
        let (dark, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        assert_eq!(plain.digest(), dark.digest());
        assert_eq!(tele.report().stream_lines, 0);
    }
}

/// For every counter, the streamed per-line deltas sum exactly to the
/// end-of-run cumulative value, whatever the day throttle.
#[test]
fn series_sums_reconcile_exactly_with_final_counters() {
    let sc = scenario();
    for config in [
        SimConfig::activedr(90),
        SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental),
        SimConfig::flt(90),
    ] {
        for every_days in [1, 7] {
            let label = format!("{} every {every_days}", config.policy.name());
            let (_, report, text) = streamed_run(&sc, &config, every_days);
            let events: Vec<Value> = complete_lines(&text)
                .iter()
                .skip(1)
                .map(|l| serde_json::from_str(l).expect("stream line parses"))
                .collect();
            let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
            for event in &events {
                let Some(Value::Map(counters)) = event.get("counters") else {
                    panic!("{label}: line without counters: {event:?}");
                };
                for (name, delta) in counters {
                    *sums.entry(name).or_insert(0) += delta.as_u64().expect("non-negative delta");
                }
            }
            let cumulative: BTreeMap<&str, u64> = report
                .counters
                .iter()
                .map(|c| (c.name.as_str(), c.value))
                .collect();
            assert!(!cumulative.is_empty());
            assert_eq!(
                sums, cumulative,
                "{label}: stream sums diverged from the cumulative counters"
            );

            // One trigger line per trigger decision, one final line last,
            // and day lines at least `every_days` apart.
            let is = |e: &Value, kind: &str| e.get("type").and_then(Value::as_str) == Some(kind);
            let triggers = report.counter("retention.triggers_fired").unwrap_or(0)
                + report.counter("retention.triggers_skipped").unwrap_or(0);
            let trigger_lines = events.iter().filter(|e| is(e, "trigger")).count();
            assert_eq!(
                u64::try_from(trigger_lines).expect("fits"),
                triggers,
                "{label}"
            );
            assert!(events.last().is_some_and(|e| is(e, "final")), "{label}");
            let day_stamps: Vec<i64> = events
                .iter()
                .filter(|e| is(e, "day"))
                .filter_map(|e| e.get("day").and_then(Value::as_i64))
                .collect();
            assert!(day_stamps.len() > 1, "{label}: too few day lines");
            assert!(
                day_stamps.windows(2).all(|w| w[1] - w[0] >= every_days),
                "{label}: day lines closer than {every_days} days"
            );
        }
    }
}

#[test]
fn streamed_jsonl_parses_and_reconciles_after_truncation() {
    let sc = scenario();
    let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let tele = Telemetry::on();
    let buf = SharedBuf::default();
    tele.attach_stream(
        Box::new(buf.clone()),
        StreamOptions {
            prom_path: None,
            every_days: 1,
        },
    );
    let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    let report = tele.report();
    let text = buf.text();

    // Every line is complete JSON; the first is meta, the last is final.
    let lines = complete_lines(&text);
    assert_eq!(
        u64::try_from(lines.len()).expect("fits"),
        report.stream_lines
    );
    let first: Value = serde_json::from_str(lines.first().expect("meta line")).expect("parses");
    assert_eq!(first.get("type").and_then(Value::as_str), Some("meta"));
    let last: Value = serde_json::from_str(lines.last().expect("final line")).expect("parses");
    assert_eq!(last.get("type").and_then(Value::as_str), Some("final"));

    // Per-line deltas sum to the end-of-run cumulative counters.
    let sum_deltas = |payload: &str, name: &str| -> u64 {
        complete_lines(payload)
            .iter()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .filter_map(|v| v.get("counters")?.get(name)?.as_u64())
            .sum()
    };
    for name in ["replay.reads", "retention.purged_files"] {
        assert_eq!(
            sum_deltas(&text, name),
            report.counter(name).unwrap_or(0),
            "{name}: stream deltas diverged"
        );
    }

    // Simulated crash: cut the payload mid-way through the last line.
    // The complete-lines reader recovers exactly the untruncated prefix.
    let cut = text.len() - 7;
    let truncated = text.get(..cut).expect("cut inside the final line");
    let recovered = complete_lines(truncated);
    assert_eq!(recovered.len(), lines.len() - 1);
    for line in &recovered {
        assert!(
            serde_json::from_str::<Value>(line).is_ok(),
            "bad line {line}"
        );
    }
}

#[test]
fn counters_reconcile_with_simresult_under_all_policies() {
    let sc = scenario();
    for config in all_policies() {
        let tele = Telemetry::on();
        let (result, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        let report = tele.report();
        let name = config.policy.name();
        let counter = |key: &str| report.counter(key).unwrap_or(0);

        assert_eq!(counter("replay.reads"), result.total_reads(), "{name}");
        assert_eq!(counter("replay.misses"), result.total_misses(), "{name}");
        assert_eq!(
            counter("replay.writes"),
            result.daily.iter().map(|d| d.writes).sum::<u64>(),
            "{name}"
        );
        assert_eq!(
            counter("recovery.restages_completed"),
            result.total_restages(),
            "{name}"
        );
        assert_eq!(
            counter("recovery.restage_bytes"),
            result.total_restage_bytes(),
            "{name}"
        );
        assert_eq!(
            counter("retention.purged_files"),
            result
                .retentions
                .iter()
                .map(|r| r.purged_files)
                .sum::<u64>(),
            "{name}"
        );
        assert_eq!(
            counter("retention.purged_bytes"),
            result.total_purged_bytes(),
            "{name}"
        );
        assert_eq!(
            counter("retention.triggers_fired"),
            u64::try_from(result.retentions.len()).expect("count fits"),
            "{name}"
        );
        // Gauges sampled from the deterministic fs counters agree with the
        // replay totals too.
        assert_eq!(
            report.gauge("fs.final_files").map(|v| v.unsigned_abs()),
            Some(result.final_files),
            "{name}"
        );
        assert_eq!(
            report
                .gauge("fs.final_used_bytes")
                .map(|v| v.unsigned_abs()),
            Some(result.final_used),
            "{name}"
        );
    }
}

#[test]
fn telemetry_json_and_trace_export_are_valid() {
    let sc = scenario();
    let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let tele = Telemetry::on();
    let (result, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    let report = tele.report();

    let parsed: Value = serde_json::from_str(&report.to_json()).expect("telemetry.json parses");
    assert_eq!(parsed.get("version").and_then(Value::as_u64), Some(3));
    for key in [
        "counters",
        "gauges",
        "histograms",
        "spans",
        "flight",
        "stream",
        "dropped",
    ] {
        assert!(parsed.get(key).is_some(), "missing {key}");
    }
    assert!(parsed.get("series").is_none(), "version 3 has no series");
    let counters = parsed.get("counters").expect("counters");
    assert_eq!(
        counters.get("replay.reads").and_then(Value::as_u64),
        Some(result.total_reads())
    );
    // Span tree: one top-level "run" span entered once, with children.
    let spans = parsed
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans");
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("run"));
    assert_eq!(spans[0].get("count").and_then(Value::as_u64), Some(1));
    let children = spans[0]
        .get("children")
        .and_then(Value::as_array)
        .expect("children");
    assert!(children
        .iter()
        .any(|c| c.get("name").and_then(Value::as_str) == Some("day")));

    // Flight recorder holds engine events, newest within the ring bound.
    let flight = parsed
        .get("flight")
        .and_then(Value::as_array)
        .expect("flight");
    assert!(!flight.is_empty());
    let kinds: Vec<&str> = flight
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str))
        .collect();
    assert!(
        kinds.contains(&"trigger") || kinds.contains(&"trigger-skip"),
        "no trigger events in {kinds:?}"
    );
    assert!(kinds.contains(&"changelog-flush"));

    // Trace-event export: a JSON array of complete ("X") events whose
    // names come from the span tree.
    let trace: Value = serde_json::from_str(&report.trace_json()).expect("trace parses");
    let events = trace.as_array().expect("trace is an array");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
        assert!(e.get("dur").and_then(Value::as_u64).is_some());
    }
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("run")));
}

#[test]
fn catalog_guard_runs_clean_and_changes_nothing() {
    let sc = scenario();
    let base = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let guarded = base.clone().with_catalog_guard(7);

    let plain = run(&sc.traces, sc.initial_fs.clone(), &base);
    let tele = Telemetry::on();
    let (watched, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &guarded, &tele);
    assert_eq!(
        plain.digest(),
        watched.digest(),
        "the catalog guard must be read-only"
    );

    let report = tele.report();
    let checks = report.counter("catalog.guard_checks").unwrap_or(0);
    assert!(checks > 0, "guard never ran");
    assert_eq!(
        report.counter("catalog.guard_divergences"),
        Some(0),
        "incremental catalog diverged from the full scan"
    );
    // Every check reports through the flight recorder, though the
    // bounded ring may have evicted the oldest entries by run end.
    let guard_events: Vec<_> = report
        .flight
        .iter()
        .filter(|e| e.kind == "catalog-guard")
        .collect();
    assert!(!guard_events.is_empty(), "no guard events retained");
    assert!(u64::try_from(guard_events.len()).expect("count fits") <= checks);
    assert!(guard_events.iter().all(|e| e.detail.starts_with("ok:")));
}

#[test]
fn adaptive_trigger_falls_back_to_scan_under_heavy_churn() {
    let sc = scenario();
    // Stretch the trigger interval so each trigger faces ~60 days of
    // accumulated churn: at Tiny scale that puts net-pending deltas
    // well past the flush/scan crossover, forcing the adaptive trigger
    // onto the full-walk fallback at least once.
    let mut config = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);
    config.purge_interval_days = 60;
    let mut full_cfg = config.clone();
    full_cfg.catalog_mode = CatalogMode::FullScan;
    let full = run(&sc.traces, sc.initial_fs.clone(), &full_cfg);

    let tele = Telemetry::on();
    let (inc, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(
        full.digest(),
        inc.digest(),
        "scan fallback changed the replay outcome"
    );
    let report = tele.report();
    let fallbacks = report.counter("catalog.scan_fallbacks").unwrap_or(0);
    assert!(
        fallbacks >= 1,
        "60 days of churn per trigger should cross the flush/scan threshold"
    );
    assert!(
        report.flight.iter().any(|e| e.kind == "changelog-scan"),
        "fallback triggers should leave a changelog-scan flight event"
    );
    // Adaptive-trigger observability: every incremental trigger leaves a
    // per-decision flight event, and the crossover-ratio gauge holds the
    // last trigger's net-pending/indexed ratio in basis points.
    let decisions: Vec<_> = report
        .flight
        .iter()
        .filter(|e| e.kind == "trigger-decision")
        .collect();
    assert!(!decisions.is_empty(), "no trigger-decision events retained");
    for d in &decisions {
        assert!(
            d.detail.contains("net=")
                && d.detail.contains("indexed=")
                && d.detail.contains("ratio_bp=")
                && d.detail.contains("raw=")
                && (d.detail.contains("decision=flush") || d.detail.contains("decision=scan")),
            "malformed decision detail: {}",
            d.detail
        );
    }
    assert!(
        decisions.iter().any(|d| d.detail.contains("decision=scan")),
        "the scan fallback should be visible in the decision log"
    );
    let ratio = report
        .gauge("catalog.net_pending_ratio_bp")
        .expect("crossover gauge registered");
    assert!(ratio >= 0);
    // The scan decision fires past the ~25% crossover, so the last
    // trigger that scanned must have seen a ratio above 2 500 bp — and
    // the gauge is only overwritten at trigger boundaries, so whatever
    // it holds came from a real decision.
    let scanned_high = decisions.iter().any(|d| {
        d.detail
            .split("ratio_bp=")
            .nth(1)
            .and_then(|t| t.split_whitespace().next())
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|bp| bp > 2_500 && d.detail.contains("decision=scan"))
    });
    assert!(scanned_high, "scan decisions should sit past the crossover");
    // A backlog fold is armed only by a fallback trigger.
    let folds = report.counter("catalog.backlog_folds").unwrap_or(0);
    assert!(
        folds <= fallbacks,
        "{folds} backlog fold(s) but only {fallbacks} scan fallback(s)"
    );
    // The fallback leaves index + buffer intact, so the end-of-day
    // forced flush must still reconcile them: no divergence counters.
    assert_eq!(report.counter("catalog.guard_divergences").unwrap_or(0), 0);
}

#[test]
fn a_purge_backlog_is_folded_so_weekly_triggers_keep_flushing() {
    // A weekly ActiveDR purge removes enough files to push the changelog
    // backlog past the flush/scan crossover, while a week's own churn
    // stays below it. Without the backlog fold, every trigger after the
    // first purge would walk the namespace.
    for seed in [42, 7] {
        let sc = Scenario::build(Scale::Small, seed);
        let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
        let mut full_cfg = config.clone();
        full_cfg.catalog_mode = CatalogMode::FullScan;
        let full = run(&sc.traces, sc.initial_fs.clone(), &full_cfg);

        let tele = Telemetry::on();
        let (inc, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        assert_eq!(
            full.digest(),
            inc.digest(),
            "seed {seed}: backlog folds changed the replay outcome"
        );
        let report = tele.report();
        let counter = |name: &str| report.counter(name).unwrap_or(0);
        let decisions = counter("retention.triggers_fired") + counter("retention.triggers_skipped");
        let fallbacks = counter("catalog.scan_fallbacks");
        let folds = counter("catalog.backlog_folds");
        let flushes = decisions - fallbacks;
        assert!(
            flushes * 10 >= decisions * 9,
            "seed {seed}: only {flushes} of {decisions} trigger(s) flushed"
        );
        assert!(
            (1..=fallbacks).contains(&folds),
            "seed {seed}: {folds} backlog fold(s) for {fallbacks} scan fallback(s)"
        );
    }
}

#[test]
fn guard_interval_caps_check_frequency() {
    let sc = scenario();
    // A guard interval far beyond the replay window: at most one check.
    let config = SimConfig::activedr(90)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_catalog_guard(10_000);
    let tele = Telemetry::on();
    let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(tele.report().counter("catalog.guard_checks"), Some(0));
    // Guard configured but the catalog is full-scan: nothing to diff.
    let config = SimConfig::activedr(90).with_catalog_guard(7);
    let tele = Telemetry::on();
    let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(tele.report().counter("catalog.guard_checks"), Some(0));
}
