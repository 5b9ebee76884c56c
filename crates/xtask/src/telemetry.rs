//! Structural validation of the `activedr-obs` sink files, run by
//! `cargo xtask smoke` against a real telemetry-enabled Tiny replay.
//!
//! The obs crate is dependency-free and hand-rolls its JSON, so nothing
//! in its own test suite proves the emitted bytes parse with an actual
//! JSON reader. This module closes that loop: parse `telemetry.json`
//! (schema v3), the trace-event file, the streamed JSONL event log, and
//! the `BENCH_*.json` watchdog documents with `serde_json` and check
//! the schema the docs promise — required keys, non-negative counters,
//! a well-formed span tree, histogram bucket accounting, JSONL line
//! framing and day throttle, **exact** reconciliation of the streamed
//! counter deltas with `telemetry.json`, and recomputed bench summary
//! reductions.

use serde_json::Value;
use std::collections::BTreeMap;

/// Validate a `telemetry.json` document (schema version 3). Returns
/// every problem found, not just the first.
pub fn validate_telemetry(text: &str) -> Result<(), Vec<String>> {
    let doc: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("telemetry.json does not parse: {e:?}")]),
    };
    let mut problems = Vec::new();

    if doc.get("version").and_then(Value::as_u64) != Some(3) {
        problems.push("\"version\" missing or not 3".to_string());
    }
    for key in [
        "counters",
        "gauges",
        "histograms",
        "spans",
        "flight",
        "stream",
        "dropped",
    ] {
        if doc.get(key).is_none() {
            problems.push(format!("required key {key:?} missing"));
        }
    }

    if let Some(Value::Map(counters)) = doc.get("counters") {
        for (name, value) in counters {
            if value.as_u64().is_none() {
                problems.push(format!("counter {name:?} is not a non-negative integer"));
            }
        }
    } else if doc.get("counters").is_some() {
        problems.push("\"counters\" is not an object".to_string());
    }

    if let Some(Value::Map(gauges)) = doc.get("gauges") {
        for (name, value) in gauges {
            if value.as_i64().is_none() {
                problems.push(format!("gauge {name:?} is not an integer"));
            }
        }
    } else if doc.get("gauges").is_some() {
        problems.push("\"gauges\" is not an object".to_string());
    }

    if let Some(hists) = doc.get("histograms").and_then(Value::as_array) {
        for h in hists {
            validate_histogram(h, &mut problems);
        }
    } else if doc.get("histograms").is_some() {
        problems.push("\"histograms\" is not an array".to_string());
    }

    if let Some(spans) = doc.get("spans").and_then(Value::as_array) {
        for s in spans {
            validate_span(s, 0, &mut problems);
        }
    } else if doc.get("spans").is_some() {
        problems.push("\"spans\" is not an array".to_string());
    }

    if let Some(flight) = doc.get("flight").and_then(Value::as_array) {
        for (i, e) in flight.iter().enumerate() {
            if e.get("seq").and_then(Value::as_u64).is_none() {
                problems.push(format!("flight[{i}] has no \"seq\""));
            }
            if e.get("day").and_then(Value::as_i64).is_none() {
                problems.push(format!("flight[{i}] has no \"day\""));
            }
            if e.get("kind").and_then(Value::as_str).is_none() {
                problems.push(format!("flight[{i}] has no \"kind\""));
            }
            if e.get("detail").and_then(Value::as_str).is_none() {
                problems.push(format!("flight[{i}] has no \"detail\""));
            }
        }
    } else if doc.get("flight").is_some() {
        problems.push("\"flight\" is not an array".to_string());
    }

    if let Some(stream) = doc.get("stream") {
        for key in ["lines", "write_errors"] {
            if stream.get(key).and_then(Value::as_u64).is_none() {
                problems.push(format!("\"stream\" has no numeric {key:?}"));
            }
        }
    }

    if let Some(dropped) = doc.get("dropped") {
        for key in ["span_instances", "flight_events"] {
            if dropped.get(key).and_then(Value::as_u64).is_none() {
                problems.push(format!("\"dropped\" has no numeric {key:?}"));
            }
        }
    }

    // Cross-counter sanity: a miss is a failed read, so misses can never
    // outnumber reads in a replay.
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
    };
    if let (Some(reads), Some(misses)) = (counter("replay.reads"), counter("replay.misses")) {
        if misses > reads {
            problems.push(format!(
                "replay.misses ({misses}) exceeds replay.reads ({reads})"
            ));
        }
    }

    // A backlog fold is armed only by a trigger that fell back to a walk.
    if let (Some(folds), Some(fallbacks)) = (
        counter("catalog.backlog_folds"),
        counter("catalog.scan_fallbacks"),
    ) {
        if folds > fallbacks {
            problems.push(format!(
                "catalog.backlog_folds ({folds}) exceeds catalog.scan_fallbacks ({fallbacks})"
            ));
        }
    }

    // Durability counters (non-zero only on durable replays): every WAL
    // frame carries a 17-byte header+trailer, replayed records are
    // impossible without a recovery, and any WAL activity implies at
    // least the cold-start checkpoint was cut.
    if let (Some(appends), Some(wal_bytes)) = (counter("wal.appends"), counter("wal.bytes")) {
        if wal_bytes < appends.saturating_mul(17) {
            problems.push(format!(
                "wal.bytes ({wal_bytes}) is below the 17-byte frame floor for \
                 wal.appends ({appends})"
            ));
        }
    }
    if let (Some(replayed), Some(recoveries)) = (
        counter("recovery.replayed_records"),
        counter("recovery.recoveries"),
    ) {
        if replayed > 0 && recoveries == 0 {
            problems.push(format!(
                "recovery.replayed_records ({replayed}) with recovery.recoveries 0"
            ));
        }
    }
    if let (Some(appends), Some(checkpoints)) =
        (counter("wal.appends"), counter("checkpoint.writes"))
    {
        if appends > 0 && checkpoints == 0 {
            problems.push(format!(
                "wal.appends ({appends}) with checkpoint.writes 0 — even a cold \
                 start cuts checkpoint 0"
            ));
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn validate_histogram(h: &Value, problems: &mut Vec<String>) {
    let name = h
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>")
        .to_string();
    let bounds = h.get("bounds").and_then(Value::as_array);
    let counts = h.get("counts").and_then(Value::as_array);
    match (bounds, counts) {
        (Some(bounds), Some(counts)) => {
            // One overflow bucket past the last bound.
            if counts.len() != bounds.len() + 1 {
                problems.push(format!(
                    "histogram {name:?}: {} counts for {} bounds (want bounds + 1)",
                    counts.len(),
                    bounds.len()
                ));
            }
            let total: u64 = counts.iter().filter_map(Value::as_u64).sum();
            if h.get("count").and_then(Value::as_u64) != Some(total) {
                problems.push(format!(
                    "histogram {name:?}: \"count\" disagrees with the bucket sum {total}"
                ));
            }
        }
        _ => problems.push(format!("histogram {name:?}: missing bounds/counts arrays")),
    }
    if h.get("sum").and_then(Value::as_u64).is_none() {
        problems.push(format!("histogram {name:?}: missing numeric \"sum\""));
    }
}

fn validate_span(span: &Value, depth: usize, problems: &mut Vec<String>) {
    if depth > 64 {
        problems.push("span tree deeper than 64 levels".to_string());
        return;
    }
    let name = span
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>")
        .to_string();
    if span.get("name").and_then(Value::as_str).is_none() {
        problems.push(format!("span at depth {depth} has no \"name\""));
    }
    match span.get("count").and_then(Value::as_u64) {
        Some(0) => problems.push(format!("span {name:?} recorded with count 0")),
        Some(_) => {}
        None => problems.push(format!("span {name:?} has no numeric \"count\"")),
    }
    if span.get("total_micros").and_then(Value::as_u64).is_none() {
        problems.push(format!("span {name:?} has no numeric \"total_micros\""));
    }
    match span.get("children").and_then(Value::as_array) {
        Some(children) => {
            for c in children {
                validate_span(c, depth + 1, problems);
            }
        }
        None => problems.push(format!("span {name:?} has no \"children\" array")),
    }
}

/// Validate a streamed telemetry JSONL log (a *complete* file: the
/// truncation-recovery contract is exercised separately by the obs
/// tests). Line framing: one meta line first, every line
/// `\n`-terminated, event lines are `day`/`trigger`/`final` with
/// delta-counter and gauge objects, day stamps never decrease, two
/// consecutive `day` lines are at least the meta line's `every_days`
/// apart, and a `final` line closes the log.
pub fn validate_jsonl(text: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if text.is_empty() {
        return Err(vec!["stream log is empty".to_string()]);
    }
    if !text.ends_with('\n') {
        problems.push("stream log does not end with a newline".to_string());
    }
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    let mut last_day: Option<i64> = None;
    let mut last_day_line: Option<i64> = None;
    let mut every_days = 1;
    let mut saw_final = false;
    for (i, line) in lines.iter().enumerate() {
        let event: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                problems.push(format!("line {i} does not parse: {e:?}"));
                continue;
            }
        };
        let kind = event.get("type").and_then(Value::as_str).unwrap_or("");
        if i == 0 {
            if kind != "meta" {
                problems.push("first line is not a \"meta\" line".to_string());
            }
            if event.get("version").and_then(Value::as_u64) != Some(1) {
                problems.push("meta line \"version\" missing or not 1".to_string());
            }
            match event.get("every_days").and_then(Value::as_i64) {
                Some(d) if d >= 1 => every_days = d,
                _ => problems.push("meta line has no positive \"every_days\"".to_string()),
            }
            continue;
        }
        if !matches!(kind, "day" | "trigger" | "final") {
            problems.push(format!("line {i} has unknown type {kind:?}"));
            continue;
        }
        saw_final |= kind == "final";
        match event.get("day").and_then(Value::as_i64) {
            Some(day) => {
                if last_day.is_some_and(|prev| day < prev) {
                    problems.push(format!("line {i}: day {day} goes backwards"));
                }
                last_day = Some(day);
                if kind == "day" {
                    if let Some(prev) = last_day_line {
                        if day.saturating_sub(prev) < every_days {
                            problems.push(format!(
                                "line {i}: day line {day} is closer than every_days \
                                 {every_days} to the day line at {prev}"
                            ));
                        }
                    }
                    last_day_line = Some(day);
                }
            }
            None => problems.push(format!("line {i} has no integer \"day\"")),
        }
        if let Some(Value::Map(counters)) = event.get("counters") {
            for (name, value) in counters {
                if value.as_u64().is_none() {
                    problems.push(format!(
                        "line {i}: counter delta {name:?} is not a non-negative integer"
                    ));
                }
            }
        } else {
            problems.push(format!("line {i} has no \"counters\" object"));
        }
        if let Some(Value::Map(gauges)) = event.get("gauges") {
            for (name, value) in gauges {
                if value.as_i64().is_none() {
                    problems.push(format!("line {i}: gauge {name:?} is not an integer"));
                }
            }
        } else {
            problems.push(format!("line {i} has no \"gauges\" object"));
        }
    }
    if lines.len() < 2 {
        problems.push("stream log has no event lines after the meta line".to_string());
    } else if !saw_final {
        problems.push("stream log has no \"final\" line".to_string());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Reconcile a streamed JSONL log with the `telemetry.json` of the same
/// run: for every counter, the per-line deltas must sum exactly to the
/// cumulative value, and the stream may name no counter the report
/// lacks. Shape problems are [`validate_telemetry`]'s and
/// [`validate_jsonl`]'s to report; this check skips what it cannot read.
pub fn reconcile_stream(telemetry: &str, jsonl: &str) -> Result<(), Vec<String>> {
    let doc: Value = match serde_json::from_str(telemetry) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("telemetry.json does not parse: {e:?}")]),
    };
    let Some(Value::Map(cumulative)) = doc.get("counters") else {
        return Err(vec!["telemetry.json has no \"counters\" object".to_string()]);
    };
    let events: Vec<Value> = jsonl
        .lines()
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &events {
        let Some(Value::Map(counters)) = event.get("counters") else {
            continue;
        };
        for (name, delta) in counters {
            let sum = sums.entry(name).or_insert(0);
            *sum = sum.saturating_add(delta.as_u64().unwrap_or(0));
        }
    }
    let mut problems = Vec::new();
    for (name, value) in cumulative {
        let expect = value.as_u64().unwrap_or(0);
        let sum = sums.remove(name.as_str()).unwrap_or(0);
        if sum != expect {
            problems.push(format!(
                "counter {name:?}: streamed deltas sum to {sum} but telemetry.json \
                 says {expect} (reconciliation drift)"
            ));
        }
    }
    for name in sums.keys() {
        problems.push(format!(
            "counter {name:?} is streamed but missing from telemetry.json"
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Validate a `BENCH_*.json` document (bench schema version 2, the
/// shared `BenchEmitter` shape consumed by `cargo xtask perf`). Beyond
/// field shapes, this *recomputes* each declared summary reduction over
/// its raw samples and fails on drift, so a bench cannot report a
/// summary its own samples do not support.
pub fn validate_bench(text: &str) -> Result<(), Vec<String>> {
    let doc: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("bench document does not parse: {e:?}")]),
    };
    let mut problems = Vec::new();

    if doc.get("bench_schema").and_then(Value::as_u64) != Some(2) {
        problems.push("\"bench_schema\" missing or not 2".to_string());
    }
    if doc
        .get("name")
        .and_then(Value::as_str)
        .is_none_or(str::is_empty)
    {
        problems.push("\"name\" missing or empty".to_string());
    }
    match doc.get("env") {
        Some(env) => {
            for key in ["os", "arch"] {
                if env.get(key).and_then(Value::as_str).is_none() {
                    problems.push(format!("\"env\" has no string {key:?}"));
                }
            }
            if env.get("cpus").and_then(Value::as_u64).is_none() {
                problems.push("\"env\" has no numeric \"cpus\"".to_string());
            }
        }
        None => problems.push("required key \"env\" missing".to_string()),
    }
    if doc
        .get("min_of")
        .and_then(Value::as_u64)
        .is_none_or(|n| n < 1)
    {
        problems.push("\"min_of\" missing or zero".to_string());
    }

    let metrics = doc.get("metrics").and_then(Value::as_array);
    match metrics {
        Some(metrics) => {
            for (i, m) in metrics.iter().enumerate() {
                if m.get("name")
                    .and_then(Value::as_str)
                    .is_none_or(str::is_empty)
                {
                    problems.push(format!("metric {i} has no \"name\""));
                }
                match m.get("kind").and_then(Value::as_str) {
                    Some("ratio" | "time" | "info") => {}
                    other => problems.push(format!("metric {i} has bad kind {other:?}")),
                }
                match m.get("direction").and_then(Value::as_str) {
                    Some("higher_better" | "lower_better" | "none") => {}
                    other => problems.push(format!("metric {i} has bad direction {other:?}")),
                }
                if !m
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    problems.push(format!("metric {i} has no finite \"value\""));
                }
                if m.get("unit").and_then(Value::as_str).is_none() {
                    problems.push(format!("metric {i} has no \"unit\""));
                }
            }
        }
        None => problems.push("required key \"metrics\" missing".to_string()),
    }

    match doc.get("series").and_then(Value::as_array) {
        Some(series) => {
            for (i, s) in series.iter().enumerate() {
                let name = s.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
                if s.get("name").and_then(Value::as_str).is_none() {
                    problems.push(format!("series {i} has no \"name\""));
                }
                if s.get("unit").and_then(Value::as_str).is_none() {
                    problems.push(format!("series {name:?} has no \"unit\""));
                }
                let index = s.get("index").and_then(Value::as_array);
                let samples = s.get("samples").and_then(Value::as_array);
                match (index, samples) {
                    (Some(index), Some(samples)) => {
                        if index.len() != samples.len() {
                            problems.push(format!(
                                "series {name:?}: {} index value(s) for {} sample(s)",
                                index.len(),
                                samples.len()
                            ));
                        }
                        if samples.is_empty() {
                            problems.push(format!("series {name:?} has no samples"));
                        }
                        validate_bench_summary(name, s, samples, metrics, &mut problems);
                    }
                    _ => problems.push(format!("series {name:?}: missing index/samples arrays")),
                }
            }
        }
        None => problems.push("required key \"series\" missing".to_string()),
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Recompute the declared `reduce` of a bench series over its raw
/// samples and require it to equal the named summary metric's value.
fn validate_bench_summary(
    name: &str,
    series: &Value,
    samples: &[Value],
    metrics: Option<&Vec<Value>>,
    problems: &mut Vec<String>,
) {
    let Some(summary) = series.get("summary") else {
        return;
    };
    let Some(metric_name) = summary.as_str() else {
        problems.push(format!("series {name:?}: \"summary\" is not a string"));
        return;
    };
    match series.get("reduce").and_then(Value::as_str) {
        Some("min") => {}
        other => {
            problems.push(format!("series {name:?} has unknown reduce {other:?}"));
            return;
        }
    }
    let Some(metric_value) = metrics.and_then(|ms| {
        ms.iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(metric_name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    }) else {
        problems.push(format!(
            "series {name:?}: summary metric {metric_name:?} does not exist"
        ));
        return;
    };
    let recomputed = samples
        .iter()
        .filter_map(Value::as_f64)
        .fold(f64::MAX, f64::min);
    // Values round-trip through shortest-representation float text, so
    // equality is exact up to a vanishing relative epsilon.
    let drift = (recomputed - metric_value).abs();
    if drift > metric_value.abs().max(1.0) * 1e-9 {
        problems.push(format!(
            "series {name:?}: series-reconciliation drift — min(samples) is {recomputed} \
             but summary metric {metric_name:?} reports {metric_value}"
        ));
    }
}

/// CRC32 (IEEE, reflected, poly `0xEDB8_8320`) — deliberately
/// reimplemented here rather than imported from `activedr-fs`, so the
/// WAL validator checks the *documented* checksum, not whatever the
/// writer happens to compute.
fn crc32_ieee(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Walk a kind-0 batch payload against the record grammar of DESIGN.md
/// §11, reimplemented from the spec: `[count u32 LE]`, then `count`
/// records, each a tag byte and its fixed little-endian fields (Upsert
/// 0: 37 bytes then a `u32`-length-prefixed UTF-8 path, non-empty and
/// canonical: a `/` before each component, none empty or `.`; Touch 1:
/// 16 bytes; Remove 2: 4 bytes), then nothing.
fn walk_batch(payload: &[u8]) -> Result<(), String> {
    fn u32_at(bytes: &[u8]) -> Option<(usize, &[u8])> {
        let (head, rest) = bytes.split_first_chunk::<4>()?;
        Some((usize::try_from(u32::from_le_bytes(*head)).ok()?, rest))
    }
    let (count, mut rest) = u32_at(payload).ok_or("has no record count")?;
    for i in 0..count {
        let (&tag, fields) = rest
            .split_first()
            .ok_or_else(|| format!("ends before record {i} of {count}"))?;
        let fixed = match tag {
            0 => 4 + 4 + 8 + 8 + 8 + 1 + 4,
            1 => 4 + 8 + 4,
            2 => 4,
            other => return Err(format!("record {i} has unknown tag {other}")),
        };
        let after = fields
            .get(fixed..)
            .ok_or_else(|| format!("record {i} is cut short"))?;
        rest = if tag == 0 {
            let (len, tail) =
                u32_at(after).ok_or_else(|| format!("record {i} has no path length"))?;
            let path = tail
                .get(..len)
                .ok_or_else(|| format!("record {i}: path length {len} runs past the payload"))?;
            let path =
                std::str::from_utf8(path).map_err(|_| format!("record {i}: path is not UTF-8"))?;
            let canonical = path
                .strip_prefix('/')
                .is_some_and(|rest| rest.split('/').all(|c| !c.is_empty() && c != "."));
            if !canonical {
                return Err(format!("record {i}: path {path:?} is not canonical"));
            }
            tail.get(len..).unwrap_or_default()
        } else {
            after
        };
    }
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("has {} trailing byte(s)", rest.len()))
    }
}

/// Validate a complete `wal.log` image against the on-disk contract of
/// DESIGN.md §11, reimplemented from the spec (length-prefixed frames
/// `[len u32 LE][seq u64 LE][kind u8][payload][crc32 u32 LE]`, CRC over
/// `seq ++ kind ++ payload`, sequence numbers strictly contiguous from
/// the first frame, binary batch payloads walked by [`walk_batch`],
/// empty flush marks) so drift between the writer and the documented
/// format cannot self-certify. A cleanly shut down replay must leave a fully
/// well-formed log — torn tails are legal only after a crash, and
/// `cargo xtask smoke` runs this against a replay that exited normally.
pub fn validate_wal(bytes: &[u8]) -> Result<(), Vec<String>> {
    const MAX_PAYLOAD: u32 = 16 << 20;
    let mut problems = Vec::new();
    if bytes.is_empty() {
        return Err(vec!["WAL image is empty".to_string()]);
    }
    let mut offset = 0usize;
    let mut prev_seq: Option<u64> = None;
    while offset < bytes.len() {
        let Some(len_bytes) = bytes.get(offset..offset.saturating_add(4)) else {
            problems.push(format!(
                "byte {offset}: truncated length prefix ({} byte(s) left)",
                bytes.len().saturating_sub(offset)
            ));
            break;
        };
        let mut len_arr = [0u8; 4];
        for (d, &s) in len_arr.iter_mut().zip(len_bytes.iter()) {
            *d = s;
        }
        let len = u32::from_le_bytes(len_arr);
        if len > MAX_PAYLOAD {
            problems.push(format!(
                "byte {offset}: length prefix {len} exceeds the {MAX_PAYLOAD}-byte ceiling"
            ));
            break;
        }
        let Ok(body_len) = usize::try_from(len) else {
            problems.push(format!("byte {offset}: length prefix does not fit"));
            break;
        };
        let covered_start = offset.saturating_add(4);
        let covered_end = covered_start.saturating_add(9).saturating_add(body_len);
        let crc_end = covered_end.saturating_add(4);
        let (Some(covered), Some(crc_bytes)) = (
            bytes.get(covered_start..covered_end),
            bytes.get(covered_end..crc_end),
        ) else {
            problems.push(format!(
                "byte {offset}: truncated frame (want {} byte(s), {} left)",
                crc_end.saturating_sub(offset),
                bytes.len().saturating_sub(offset)
            ));
            break;
        };
        let mut crc_arr = [0u8; 4];
        for (d, &s) in crc_arr.iter_mut().zip(crc_bytes.iter()) {
            *d = s;
        }
        if crc32_ieee(covered) != u32::from_le_bytes(crc_arr) {
            problems.push(format!("byte {offset}: frame checksum mismatch"));
            break;
        }
        let mut seq_arr = [0u8; 8];
        for (d, &s) in seq_arr.iter_mut().zip(covered.iter()) {
            *d = s;
        }
        let seq = u64::from_le_bytes(seq_arr);
        if seq == 0 {
            problems.push(format!(
                "byte {offset}: sequence number 0 (they start at 1)"
            ));
        }
        if let Some(prev) = prev_seq {
            if seq != prev.saturating_add(1) {
                problems.push(format!(
                    "byte {offset}: sequence {seq} after {prev} (want contiguous)"
                ));
            }
        }
        prev_seq = Some(seq);
        let kind = covered.get(8).copied();
        let body = covered.get(9..).unwrap_or_default();
        match kind {
            Some(0) => {
                if let Err(why) = walk_batch(body) {
                    problems.push(format!("byte {offset}: batch payload {why}"));
                }
            }
            Some(1) => {
                if !body.is_empty() {
                    problems.push(format!(
                        "byte {offset}: flush mark carries a {}-byte payload",
                        body.len()
                    ));
                }
            }
            other => problems.push(format!("byte {offset}: unknown record kind {other:?}")),
        }
        offset = crc_end;
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Validate a chrome trace-event export: an array of complete (`"X"`)
/// events with microsecond timestamps and durations.
pub fn validate_trace(text: &str) -> Result<(), Vec<String>> {
    let doc: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("trace file does not parse: {e:?}")]),
    };
    let mut problems = Vec::new();
    match doc.as_array() {
        Some(events) => {
            for (i, e) in events.iter().enumerate() {
                if e.get("name").and_then(Value::as_str).is_none() {
                    problems.push(format!("trace event {i} has no \"name\""));
                }
                if e.get("ph").and_then(Value::as_str) != Some("X") {
                    problems.push(format!("trace event {i} is not a complete (\"X\") event"));
                }
                for key in ["ts", "dur"] {
                    if e.get(key).and_then(Value::as_u64).is_none() {
                        problems.push(format!("trace event {i} has no numeric {key:?}"));
                    }
                }
            }
        }
        None => problems.push("trace file is not a JSON array".to_string()),
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"version":3,
        "counters":{"replay.reads":10,"replay.misses":3},
        "gauges":{"fs.final_files":7},
        "histograms":[{"name":"h","bounds":[10,100],"counts":[1,2,0],"count":3,"sum":42}],
        "spans":[{"name":"run","count":1,"total_micros":5,
                  "children":[{"name":"day","count":2,"total_micros":4,"children":[]}]}],
        "flight":[{"seq":0,"day":-3,"kind":"trigger","detail":"x"}],
        "stream":{"lines":5,"write_errors":0},
        "dropped":{"span_instances":0,"flight_events":0}}"#;

    #[test]
    fn accepts_a_well_formed_document() {
        assert_eq!(validate_telemetry(GOOD), Ok(()));
    }

    #[test]
    fn rejects_missing_keys_and_bad_counters() {
        let errs = validate_telemetry(r#"{"version":1,"counters":{"x":-1}}"#)
            .expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("version")));
        assert!(errs.iter().any(|e| e.contains("\"x\"")));
        assert!(errs.iter().any(|e| e.contains("spans")));
        assert!(errs.iter().any(|e| e.contains("stream")));
    }

    /// The stream is the one time series: its per-line deltas must sum
    /// to the cumulative counters of the same run's `telemetry.json`.
    #[test]
    fn rejects_series_counter_reconciliation_drift() {
        assert_eq!(reconcile_stream(GOOD, GOOD_JSONL), Ok(()));
        // Shave one read off the trigger line: 4 + 1 + 4 != 10.
        let doc = GOOD_JSONL.replace("\"replay.reads\":2", "\"replay.reads\":1");
        let errs = reconcile_stream(GOOD, &doc).expect_err("must be rejected");
        assert!(errs
            .iter()
            .any(|e| e.contains("reconciliation drift") && e.contains("replay.reads")));
        // A streamed counter the report never registered.
        let doc = GOOD_JSONL.replace("\"replay.reads\":2}", "\"replay.reads\":2,\"ghost\":0}");
        let errs = reconcile_stream(GOOD, &doc).expect_err("must be rejected");
        assert!(errs
            .iter()
            .any(|e| e.contains("\"ghost\"") && e.contains("missing from telemetry.json")));
    }

    #[test]
    fn rejects_bucket_miscounts_and_zero_count_spans() {
        let doc = GOOD
            .replace(
                "\"counts\":[1,2,0],\"count\":3",
                "\"counts\":[1,2],\"count\":3",
            )
            .replace(
                "\"name\":\"day\",\"count\":2",
                "\"name\":\"day\",\"count\":0",
            );
        let errs = validate_telemetry(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("bounds + 1")));
        assert!(errs.iter().any(|e| e.contains("count 0")));
    }

    #[test]
    fn rejects_misses_exceeding_reads() {
        let doc = GOOD.replace("\"replay.misses\":3", "\"replay.misses\":11");
        let errs = validate_telemetry(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("exceeds replay.reads")));
    }

    #[test]
    fn rejects_broken_durability_counter_invariants() {
        // Two WAL appends cannot fit in 10 bytes; replayed records with
        // no recovery and appends with no checkpoint are both impossible.
        let doc = GOOD.replace(
            "\"replay.misses\":3",
            "\"replay.misses\":3,\"wal.appends\":2,\"wal.bytes\":10,\
             \"recovery.replayed_records\":4,\"recovery.recoveries\":0,\
             \"checkpoint.writes\":0",
        );
        let errs = validate_telemetry(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("17-byte frame floor")));
        assert!(errs.iter().any(|e| e.contains("recovery.recoveries 0")));
        assert!(errs.iter().any(|e| e.contains("checkpoint.writes 0")));

        // The same counters in a consistent configuration pass.
        let doc = GOOD.replace(
            "\"replay.misses\":3",
            "\"replay.misses\":3,\"wal.appends\":2,\"wal.bytes\":64,\
             \"recovery.replayed_records\":4,\"recovery.recoveries\":1,\
             \"checkpoint.writes\":1",
        );
        assert_eq!(validate_telemetry(&doc), Ok(()));
    }

    /// Hand-rolled WAL frame for the validator tests — built from the
    /// documented layout, not the fs crate's encoder.
    fn wal_frame(seq: u64, kind: u8, body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(body.len()).expect("len").to_le_bytes());
        let mut covered = Vec::new();
        covered.extend_from_slice(&seq.to_le_bytes());
        covered.push(kind);
        covered.extend_from_slice(body);
        frame.extend_from_slice(&covered);
        frame.extend_from_slice(&crc32_ieee(&covered).to_le_bytes());
        frame
    }

    /// A batch payload of one Remove record for node 5.
    const ONE_REMOVE: &[u8] = &[1, 0, 0, 0, 2, 5, 0, 0, 0];

    fn good_wal() -> Vec<u8> {
        let mut image = wal_frame(1, 0, &[0, 0, 0, 0]);
        image.extend(wal_frame(2, 1, b""));
        image.extend(wal_frame(3, 0, ONE_REMOVE));
        image
    }

    #[test]
    fn accepts_a_well_formed_wal_image() {
        assert_eq!(validate_wal(&good_wal()), Ok(()));
        assert!(validate_wal(b"").is_err());
    }

    #[test]
    fn rejects_torn_flipped_and_malformed_wal_frames() {
        // Torn tail: the last frame loses three bytes.
        let mut image = good_wal();
        image.truncate(image.len() - 3);
        let errs = validate_wal(&image).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("truncated frame")));

        // A flipped payload byte fails the checksum.
        let mut image = good_wal();
        let mid = image.len() / 2;
        if let Some(b) = image.get_mut(mid) {
            *b ^= 0x01;
        }
        let errs = validate_wal(&image).expect_err("must be rejected");
        assert!(errs
            .iter()
            .any(|e| e.contains("checksum mismatch") || e.contains("truncated")));

        // A sequence gap, an unknown kind, and a fat flush mark are all
        // individually flagged (valid checksums, bad content).
        let mut image = wal_frame(1, 0, ONE_REMOVE);
        image.extend(wal_frame(3, 0, ONE_REMOVE));
        image.extend(wal_frame(4, 7, b""));
        image.extend(wal_frame(5, 1, b"junk"));
        image.extend(wal_frame(6, 0, b"[]"));
        let errs = validate_wal(&image).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("sequence 3 after 1")));
        assert!(errs.iter().any(|e| e.contains("unknown record kind")));
        assert!(errs.iter().any(|e| e.contains("flush mark carries")));
        assert!(errs.iter().any(|e| e.contains("has no record count")));
    }

    const GOOD_JSONL: &str = concat!(
        "{\"type\":\"meta\",\"version\":1,\"every_days\":7}\n",
        "{\"type\":\"day\",\"day\":0,\"counters\":{\"replay.reads\":4},\"gauges\":{\"fs.final_files\":7}}\n",
        "{\"type\":\"trigger\",\"day\":30,\"counters\":{\"replay.reads\":2},\"gauges\":{}}\n",
        "{\"type\":\"final\",\"day\":30,\"counters\":{\"replay.reads\":4,\"replay.misses\":3},\"gauges\":{}}\n",
    );

    #[test]
    fn accepts_a_well_formed_stream_log() {
        assert_eq!(validate_jsonl(GOOD_JSONL), Ok(()));
    }

    #[test]
    fn rejects_broken_stream_framing() {
        // No meta line first.
        let errs = validate_jsonl("{\"type\":\"day\",\"day\":0,\"counters\":{},\"gauges\":{}}\n")
            .expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("meta")));
        // Truncated tail (no trailing newline) and day going backwards.
        let doc = GOOD_JSONL
            .replace(
                "\"day\":30,\"counters\":{\"replay.reads\":2}",
                "\"day\":-1,\"counters\":{\"replay.reads\":2}",
            )
            .replace(
                "{\"type\":\"final\",\"day\":30,\"counters\":{\"replay.reads\":4,\"replay.misses\":3},\"gauges\":{}}\n",
                "{\"type\":\"final\",\"day\":30,\"counters\":{\"replay.re",
            );
        let errs = validate_jsonl(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("newline")));
        assert!(errs.iter().any(|e| e.contains("goes backwards")));
        // A log that never closes.
        let errs = validate_jsonl(
            "{\"type\":\"meta\",\"version\":1,\"every_days\":1}\n\
             {\"type\":\"day\",\"day\":0,\"counters\":{},\"gauges\":{}}\n",
        )
        .expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("\"final\"")));
        // Negative counter delta.
        let doc = GOOD_JSONL.replace(
            "\"replay.reads\":4},\"gauges\":{\"fs.final_files\":7}",
            "\"replay.reads\":-4},\"gauges\":{\"fs.final_files\":7}",
        );
        let errs = validate_jsonl(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("non-negative")));
    }

    const GOOD_BENCH: &str = r#"{"bench_schema":2,"name":"obs",
        "env":{"os":"linux","arch":"x86_64","cpus":8},"min_of":5,
        "metrics":[
          {"name":"speedup","kind":"ratio","direction":"higher_better","value":12.5,"unit":"x"},
          {"name":"scan_nanos","kind":"time","direction":"lower_better","value":0.3,"unit":"ns"},
          {"name":"files","kind":"info","direction":"none","value":4807,"unit":"files"}],
        "series":[
          {"name":"scan_nanos_samples","unit":"ns","index":[0,1,2],
           "samples":[0.5,0.3,0.4],"summary":"scan_nanos","reduce":"min"},
          {"name":"sweep","unit":"x","index":[0,5],"samples":[12.5,3.25]}]}"#;

    #[test]
    fn accepts_a_well_formed_bench_document() {
        assert_eq!(validate_bench(GOOD_BENCH), Ok(()));
    }

    #[test]
    fn rejects_bench_schema_violations() {
        let errs = validate_bench(r#"{"bench_schema":1,"name":"","min_of":0}"#)
            .expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("bench_schema")));
        assert!(errs.iter().any(|e| e.contains("\"name\" missing or empty")));
        assert!(errs.iter().any(|e| e.contains("env")));
        assert!(errs.iter().any(|e| e.contains("min_of")));
        assert!(errs.iter().any(|e| e.contains("metrics")));

        let doc = GOOD_BENCH
            .replace("\"kind\":\"ratio\"", "\"kind\":\"speed\"")
            .replace("\"index\":[0,5]", "\"index\":[0]");
        let errs = validate_bench(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("bad kind")));
        assert!(errs
            .iter()
            .any(|e| e.contains("1 index value(s) for 2 sample(s)")));
    }

    #[test]
    fn rejects_bench_summary_reduction_drift() {
        // The samples say min is 0.3 but the metric claims 0.2.
        let doc = GOOD_BENCH.replace("\"value\":0.3", "\"value\":0.2");
        let errs = validate_bench(&doc).expect_err("must be rejected");
        assert!(errs
            .iter()
            .any(|e| e.contains("series-reconciliation drift") && e.contains("scan_nanos")));
        // An unknown reduction is rejected rather than silently skipped.
        let doc = GOOD_BENCH.replace("\"reduce\":\"min\"", "\"reduce\":\"mean\"");
        let errs = validate_bench(&doc).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("unknown reduce")));
    }

    #[test]
    fn validates_trace_events() {
        assert_eq!(
            validate_trace(r#"[{"name":"run","ph":"X","ts":0,"dur":5,"pid":1,"tid":1}]"#),
            Ok(())
        );
        let errs =
            validate_trace(r#"[{"name":"run","ph":"B","ts":0}]"#).expect_err("must be rejected");
        assert!(errs.iter().any(|e| e.contains("\"X\"")));
        assert!(errs.iter().any(|e| e.contains("dur")));
        assert!(validate_trace("{}").is_err());
    }
}
