//! Frozen end-of-run telemetry report and its three sinks.
//!
//! [`TelemetryReport`] is an owned snapshot taken by
//! [`crate::Telemetry::report`]: metric values, the aggregate span tree,
//! the span instance log, and the flight-recorder contents. Sinks:
//!
//! * [`TelemetryReport::to_json`] — machine-readable `telemetry.json`
//!   (schema version 3, hand-rolled serialisation, stable key order);
//! * [`TelemetryReport::trace_json`] — chrome trace-event JSON; open in
//!   `about://tracing` or <https://ui.perfetto.dev> for a flamegraph;
//! * [`TelemetryReport::render_summary`] — human-readable table for the
//!   CLI.

use crate::flight::FlightEvent;
use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
use crate::span::{SpanInstanceSnapshot, SpanSnapshot};
use std::fmt::Write as _;

/// Append formatted text to a `String`. `fmt::Write` for `String` is
/// infallible, but its `Result` is `#[must_use]`; routing every sink
/// write through this one audited discard keeps call sites clean.
pub(crate) fn put(out: &mut String, args: std::fmt::Arguments<'_>) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fmt::Write for String never returns an error"
    )]
    let _ = out.write_fmt(args);
}

/// Everything one telemetry instance observed, frozen at snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Counter values, in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge values, in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram merged bucket counts, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Aggregate span tree (top-level spans with nested children).
    pub spans: Vec<SpanSnapshot>,
    /// Per-entry span samples feeding the trace-event export.
    pub span_instances: Vec<SpanInstanceSnapshot>,
    /// Span entries not sampled because the instance log was full.
    pub dropped_span_instances: u64,
    /// Flight-recorder events still held (oldest first).
    pub flight: Vec<FlightEvent>,
    /// Flight events evicted from the ring before snapshot.
    pub dropped_flight_events: u64,
    /// JSONL stream lines successfully written (0 when no stream was
    /// attached).
    pub stream_lines: u64,
    /// Stream write attempts that failed (sink errors never stop a run).
    pub stream_write_errors: u64,
}

impl TelemetryReport {
    /// Value of a counter by name, if it was registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of a gauge by name, if it was registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Serialise as `telemetry.json` (schema version 3).
    ///
    /// Key order is deterministic: metrics in registration order, spans in
    /// first-entered order, flight events oldest first. Version 3 dropped
    /// the `series` key: the JSONL stream is the one windowed time series.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"version\":3,\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(&mut out, format_args!("{}:{}", json_str(&c.name), c.value));
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(&mut out, format_args!("{}:{}", json_str(&g.name), g.value));
        }
        out.push_str("},\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(
                &mut out,
                format_args!(
                    "{{\"name\":{},\"bounds\":{},\"counts\":{},\"count\":{},\"sum\":{}}}",
                    json_str(&h.name),
                    json_u64_array(&h.bounds),
                    json_u64_array(&h.counts),
                    h.count,
                    h.sum
                ),
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_span(&mut out, s);
        }
        out.push_str("],\"flight\":[");
        for (i, e) in self.flight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(
                &mut out,
                format_args!(
                    "{{\"seq\":{},\"day\":{},\"kind\":{},\"detail\":{}}}",
                    e.seq,
                    e.day,
                    json_str(e.kind),
                    json_str(&e.detail)
                ),
            );
        }
        put(
            &mut out,
            format_args!(
                "],\"stream\":{{\"lines\":{},\"write_errors\":{}}}",
                self.stream_lines, self.stream_write_errors
            ),
        );
        put(
            &mut out,
            format_args!(
                ",\"dropped\":{{\"span_instances\":{},\"flight_events\":{}}}}}",
                self.dropped_span_instances, self.dropped_flight_events
            ),
        );
        out
    }

    /// Serialise span instances as chrome trace-event JSON.
    ///
    /// Each instance becomes a complete (`"ph":"X"`) event with
    /// microsecond timestamps relative to the telemetry epoch. Load the
    /// file in `about://tracing` (Chromium) or <https://ui.perfetto.dev>.
    #[must_use]
    pub fn trace_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('[');
        for (i, s) in self.span_instances.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(
                &mut out,
                format_args!(
                    "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1}}",
                    json_str(&s.name),
                    s.start_micros,
                    s.dur_micros
                ),
            );
        }
        out.push(']');
        out
    }

    /// Render a human-readable summary table for terminal output.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("telemetry summary\n");
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            let width = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(0);
            for c in &self.counters {
                put(
                    &mut out,
                    format_args!("    {:<width$}  {}\n", c.name, c.value),
                );
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("  gauges:\n");
            let width = self.gauges.iter().map(|g| g.name.len()).max().unwrap_or(0);
            for g in &self.gauges {
                put(
                    &mut out,
                    format_args!("    {:<width$}  {}\n", g.name, g.value),
                );
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for h in &self.histograms {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                put(
                    &mut out,
                    format_args!(
                        "    {}  count={} sum={} mean={}\n",
                        h.name, h.count, h.sum, mean
                    ),
                );
            }
        }
        if !self.spans.is_empty() {
            out.push_str("  spans (count, total ms):\n");
            for s in &self.spans {
                render_span(&mut out, s, 2);
            }
        }
        put(
            &mut out,
            format_args!(
                "  flight recorder: {} event(s) retained, {} dropped\n",
                self.flight.len(),
                self.dropped_flight_events
            ),
        );
        out
    }
}

fn write_span(out: &mut String, span: &SpanSnapshot) {
    put(
        out,
        format_args!(
            "{{\"name\":{},\"count\":{},\"total_micros\":{},\"children\":[",
            json_str(&span.name),
            span.count,
            span.total_micros
        ),
    );
    for (i, child) in span.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_span(out, child);
    }
    out.push_str("]}");
}

fn render_span(out: &mut String, span: &SpanSnapshot, depth: usize) {
    let indent = "  ".repeat(depth);
    let millis = span.total_micros / 1000;
    put(
        out,
        format_args!(
            "{}{}  x{}  {}.{:03} ms\n",
            indent,
            span.name,
            span.count,
            millis,
            span.total_micros % 1000
        ),
    );
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::with_capacity(values.len() * 4 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(&mut out, format_args!("{v}"));
    }
    out.push(']');
    out
}

/// Escape a string as a JSON string literal (quotes included).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                put(&mut out, format_args!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        TelemetryReport {
            counters: vec![CounterSnapshot {
                name: String::from("replay.reads"),
                value: 42,
            }],
            gauges: vec![GaugeSnapshot {
                name: String::from("catalog.buffer_depth"),
                value: -1,
            }],
            histograms: vec![HistogramSnapshot {
                name: String::from("retention.trigger_micros"),
                bounds: vec![10, 100],
                counts: vec![1, 2, 0],
                count: 3,
                sum: 120,
            }],
            spans: vec![SpanSnapshot {
                name: String::from("run"),
                count: 1,
                total_micros: 5000,
                children: vec![SpanSnapshot {
                    name: String::from("day"),
                    count: 3,
                    total_micros: 4000,
                    children: Vec::new(),
                }],
            }],
            span_instances: vec![SpanInstanceSnapshot {
                name: String::from("day"),
                start_micros: 10,
                dur_micros: 1000,
            }],
            dropped_span_instances: 0,
            flight: vec![FlightEvent {
                seq: 0,
                day: 30,
                kind: "trigger",
                detail: String::from("fired \"hard\""),
            }],
            dropped_flight_events: 2,
            stream_lines: 3,
            stream_write_errors: 1,
        }
    }

    #[test]
    fn json_has_schema_keys_and_escapes() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\"version\":3,"));
        for key in [
            "\"counters\":{",
            "\"gauges\":{",
            "\"histograms\":[",
            "\"spans\":[",
            "\"flight\":[",
            "\"stream\":{\"lines\":3,\"write_errors\":1}",
            "\"dropped\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"series\""));
        assert!(json.contains("\"replay.reads\":42"));
        assert!(json.contains("\"catalog.buffer_depth\":-1"));
        assert!(json.contains("fired \\\"hard\\\""));
        assert!(json.contains("\"span_instances\":0"));
        assert!(json.contains("\"flight_events\":2"));
    }

    #[test]
    fn trace_json_is_complete_events() {
        let trace = sample_report().trace_json();
        assert!(trace.starts_with('['));
        assert!(trace.ends_with(']'));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ts\":10"));
        assert!(trace.contains("\"dur\":1000"));
    }

    #[test]
    fn summary_mentions_every_section() {
        let text = sample_report().render_summary();
        assert!(text.contains("counters:"));
        assert!(text.contains("replay.reads"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histograms:"));
        assert!(text.contains("spans"));
        assert!(text.contains("run  x1"));
        assert!(text.contains("flight recorder: 1 event(s) retained, 2 dropped"));
    }

    #[test]
    fn accessors_find_by_name() {
        let report = sample_report();
        assert_eq!(report.counter("replay.reads"), Some(42));
        assert_eq!(report.counter("nope"), None);
        assert_eq!(report.gauge("catalog.buffer_depth"), Some(-1));
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(json_str("a\nb\u{1}"), "\"a\\nb\\u0001\"");
    }
}
