//! `activedr-obs` — zero-dependency telemetry for the ActiveDR replay
//! stack.
//!
//! Hand-rolled on `std` alone (no external crates, no stubs) so it works
//! in the fully-offline build. Three instruments, one time series:
//!
//! * **Metrics** — counters, gauges, fixed-bucket histograms behind cheap
//!   cloneable handles, each cell one relaxed atomic ([`metrics`]).
//! * **Spans** — hierarchical RAII phase timers over the monotonic clock
//!   ([`span`]).
//! * **Flight recorder** — bounded ring buffer of recent engine events
//!   for post-mortem dumps ([`flight`]).
//! * **Stream** — the one windowed time series: JSONL lines of counter
//!   deltas and gauge levels written during the run, plus a
//!   Prometheus-style exposition file ([`stream`]).
//!
//! The end-of-run [`TelemetryReport`] renders `telemetry.json`, a chrome
//! trace-event file, and a terminal summary table.
//!
//! # The side-channel contract
//!
//! Telemetry is observational only. A [`Telemetry`] built from a disabled
//! [`ObsConfig`] carries **no storage**: every operation is a single
//! branch on an `Option` (measured in `docs/results/BENCH_obs.json`), and
//! nothing the enabled instruments record may feed back into replay
//! decisions — `SimResult` must be byte-identical with telemetry on or
//! off (asserted by `tests/integration_telemetry.rs`).
//!
//! # Usage
//!
//! ```
//! use activedr_obs::{ObsConfig, Telemetry};
//!
//! let tele = Telemetry::new(&ObsConfig::on());
//! let reads = tele.counter("replay.reads");
//! {
//!     let _run = tele.span("run");
//!     reads.inc();
//!     tele.flight(0, "trigger", || "fired".to_string());
//! }
//! let report = tele.report();
//! assert_eq!(report.counter("replay.reads"), Some(1));
//! std::fs::write("/tmp/doc-telemetry.json", report.to_json()).ok();
//! ```

pub mod benchfmt;
pub mod flight;
pub mod metrics;
pub mod report;
pub mod span;
pub mod stream;

use crate::flight::FlightRecorder;
use crate::metrics::{lock, MetricRegistry};
use crate::span::{SpanLog, MAX_SPAN_INSTANCES};
use crate::stream::{StreamEventKind, StreamState};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use crate::benchfmt::{BenchEmitter, Direction, MetricKind};
pub use crate::flight::FlightEvent;
pub use crate::metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot,
};
pub use crate::report::TelemetryReport;
pub use crate::span::{SpanGuard, SpanInstanceSnapshot, SpanSnapshot};
pub use crate::stream::{complete_lines, exposition, StreamOptions};

/// Telemetry knobs. Defaults to **disabled**: replay runs carry a
/// [`Telemetry`] handle either way, but a disabled one records nothing
/// and costs one branch per call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch; `false` means every instrument is inert.
    pub enabled: bool,
    /// Flight-recorder ring capacity (events retained for dumps).
    pub flight_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            flight_capacity: 512,
        }
    }
}

impl ObsConfig {
    /// An enabled config with default capacities.
    #[must_use]
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

#[derive(Debug)]
struct Inner {
    metrics: MetricRegistry,
    spans: Arc<SpanLog>,
    flight: FlightRecorder,
    /// Attached streaming sink, if any.
    stream: Mutex<Option<StreamState>>,
}

/// Handle to one telemetry instance. Cheap to clone (shared `Arc`); a
/// disabled instance holds nothing and all its operations are inert.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// Build from config: enabled instruments iff `config.enabled`.
    #[must_use]
    pub fn new(config: &ObsConfig) -> Self {
        if !config.enabled {
            return Telemetry { inner: None };
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "telemetry epoch is side-channel wall time, never replay input"
        )]
        let epoch = Instant::now();
        Telemetry {
            inner: Some(Arc::new(Inner {
                metrics: MetricRegistry::default(),
                spans: Arc::new(SpanLog::new(epoch, MAX_SPAN_INSTANCES)),
                flight: FlightRecorder::new(config.flight_capacity),
                stream: Mutex::new(None),
            })),
        }
    }

    /// A disabled instance (same as `Telemetry::new(&ObsConfig::default())`).
    #[must_use]
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled instance with default capacities.
    #[must_use]
    pub fn on() -> Self {
        Telemetry::new(&ObsConfig::on())
    }

    /// Whether this instance records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Handle to the counter named `name` (registered on first use;
    /// the same name always resolves to the same storage).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|i| i.metrics.counter(name)),
        }
    }

    /// Handle to the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|i| i.metrics.gauge(name)),
        }
    }

    /// Handle to the histogram named `name` with inclusive upper-bound
    /// buckets `bounds` (an overflow bucket is added automatically).
    /// Bounds are fixed by the first registration of each name.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        Histogram {
            cell: self
                .inner
                .as_ref()
                .map(|i| i.metrics.histogram(name, bounds)),
        }
    }

    /// Enter a span; it closes when the returned guard drops. Names
    /// should be `'static` phase labels (`"trigger"`, `"decide"`, …).
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.inner
            .as_ref()
            .map(|i| i.spans.enter(name))
            .unwrap_or_default()
    }

    /// Record a flight-recorder event. `detail` is only invoked when the
    /// instance is enabled, so call sites can format lazily.
    pub fn flight<F: FnOnce() -> String>(&self, day: i64, kind: &'static str, detail: F) {
        if let Some(inner) = &self.inner {
            inner.flight.push(day, kind, detail());
        }
    }

    /// Render the flight-recorder ring as text (newest event last).
    /// Empty string when disabled.
    #[must_use]
    pub fn flight_dump(&self) -> String {
        self.inner
            .as_ref()
            .map(|i| i.flight.dump())
            .unwrap_or_default()
    }

    /// Snapshot everything recorded so far into an owned report.
    /// A disabled instance yields an empty report.
    #[must_use]
    pub fn report(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        let (span_instances, dropped_span_instances) = inner.spans.instances();
        let (flight, dropped_flight_events) = inner.flight.events();
        let (stream_lines, stream_write_errors) = lock(&inner.stream)
            .as_ref()
            .map_or((0, 0), |s| (s.lines(), s.write_errors()));
        TelemetryReport {
            counters: inner.metrics.counter_snapshots(),
            gauges: inner.metrics.gauge_snapshots(),
            histograms: inner.metrics.histogram_snapshots(),
            spans: inner.spans.tree(),
            span_instances,
            dropped_span_instances,
            flight,
            dropped_flight_events,
            stream_lines,
            stream_write_errors,
        }
    }

    /// Attach a streaming sink (see [`stream`]): subsequent
    /// [`Telemetry::sample_day`] / [`Telemetry::sample_trigger`] /
    /// [`Telemetry::sample_final`] calls emit incremental JSONL events to
    /// `sink` and, when [`StreamOptions::prom_path`] is set, rewrite a
    /// Prometheus-style exposition file. On a disabled instance the sink
    /// is dropped and nothing is ever written. Attaching a second stream
    /// replaces the first.
    pub fn attach_stream(&self, sink: Box<dyn std::io::Write + Send>, options: StreamOptions) {
        if let Some(inner) = &self.inner {
            *lock(&inner.stream) = Some(StreamState::new(sink, options));
        }
    }

    /// Close the stream's day window ending at `day` (throttled by
    /// [`StreamOptions::every_days`]). A single branch when disabled.
    pub fn sample_day(&self, day: i64) {
        self.sample(day, StreamEventKind::Day);
    }

    /// Close the stream's trigger window at `day` (never throttled). A
    /// single branch when disabled.
    pub fn sample_trigger(&self, day: i64) {
        self.sample(day, StreamEventKind::Trigger);
    }

    /// Final end-of-run sample: closes the stream's delta chain, so the
    /// per-line deltas sum exactly to the cumulative counters. A single
    /// branch when disabled.
    pub fn sample_final(&self, day: i64) {
        self.sample(day, StreamEventKind::Final);
    }

    fn sample(&self, day: i64, kind: StreamEventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        if let Some(stream) = lock(&inner.stream).as_mut() {
            stream.observe(
                kind,
                day,
                &inner.metrics.counter_snapshots(),
                &inner.metrics.gauge_snapshots(),
            );
        }
    }

    /// Guard that dumps the flight recorder if the current thread is
    /// unwinding when the guard drops — post-mortem context for panics
    /// mid-replay. By default the dump goes to stderr; tests can capture
    /// it with [`UnwindDump::with_sink`].
    #[must_use]
    pub fn unwind_dump(&self) -> UnwindDump {
        UnwindDump {
            tele: self.clone(),
            sink: None,
        }
    }
}

/// See [`Telemetry::unwind_dump`].
pub struct UnwindDump {
    tele: Telemetry,
    sink: Option<Box<dyn FnMut(String) + Send>>,
}

impl std::fmt::Debug for UnwindDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnwindDump")
            .field("enabled", &self.tele.is_enabled())
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl UnwindDump {
    /// Route the dump to `sink` instead of stderr.
    #[must_use]
    pub fn with_sink<F: FnMut(String) + Send + 'static>(mut self, sink: F) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }
}

impl Drop for UnwindDump {
    fn drop(&mut self) {
        if !std::thread::panicking() || !self.tele.is_enabled() {
            return;
        }
        let dump = self.tele.flight_dump();
        match &mut self.sink {
            Some(sink) => sink(dump),
            None => eprintln!("{dump}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn disabled_telemetry_is_fully_inert() {
        let tele = Telemetry::off();
        assert!(!tele.is_enabled());
        tele.counter("c").inc();
        tele.gauge("g").set(9);
        tele.histogram("h", &[10]).record(3);
        let mut called = false;
        tele.flight(0, "x", || {
            called = true;
            String::from("should not run")
        });
        assert!(!called, "detail closure ran on a disabled instance");
        drop(tele.span("s"));
        let report = tele.report();
        assert_eq!(report, TelemetryReport::default());
        assert_eq!(tele.flight_dump(), "");
    }

    #[test]
    fn enabled_telemetry_records_everything() {
        let tele = Telemetry::on();
        assert!(tele.is_enabled());
        let c = tele.counter("replay.reads");
        c.add(5);
        tele.counter("replay.reads").inc(); // same storage by name
        tele.gauge("depth").set(3);
        tele.histogram("lat", &[10, 100]).record(50);
        {
            let _run = tele.span("run");
            let _day = tele.span("day");
        }
        tele.flight(7, "trigger", || String::from("fired"));
        let report = tele.report();
        assert_eq!(report.counter("replay.reads"), Some(6));
        assert_eq!(report.gauge("depth"), Some(3));
        assert_eq!(report.histograms[0].count, 1);
        assert_eq!(report.spans[0].name, "run");
        assert_eq!(report.spans[0].children[0].name, "day");
        assert_eq!(report.flight.len(), 1);
        assert_eq!(report.flight[0].kind, "trigger");
        assert!(tele.flight_dump().contains("[trigger] fired"));
    }

    #[test]
    fn clones_share_storage() {
        let tele = Telemetry::on();
        let other = tele.clone();
        other.counter("shared").add(2);
        tele.counter("shared").add(3);
        assert_eq!(tele.report().counter("shared"), Some(5));
    }

    #[test]
    fn unwind_dump_fires_only_on_panic() {
        let captured = std::sync::Arc::new(Mutex::new(Vec::<String>::new()));

        // Normal drop: no dump.
        let tele = Telemetry::on();
        tele.flight(1, "tick", || String::from("quiet"));
        let cap = std::sync::Arc::clone(&captured);
        drop(
            tele.unwind_dump()
                .with_sink(move |s| cap.lock().expect("sink lock").push(s)),
        );
        assert!(captured.lock().expect("lock").is_empty());

        // Panicking drop: dump captured.
        let tele2 = Telemetry::on();
        tele2.flight(2, "boom", || String::from("about to fail"));
        let cap2 = std::sync::Arc::clone(&captured);
        let result = std::panic::catch_unwind(move || {
            let _guard = tele2
                .unwind_dump()
                .with_sink(move |s| cap2.lock().expect("sink lock").push(s));
            panic!("injected failure");
        });
        assert!(result.is_err());
        let dumps = captured.lock().expect("lock");
        assert_eq!(dumps.len(), 1);
        assert!(dumps[0].contains("[boom] about to fail"));
    }
}
