//! Streaming telemetry sinks: incremental JSONL events plus a
//! Prometheus-style text exposition, flushed *during* the run.
//!
//! The end-of-run `telemetry.json` snapshot is useless while a multi-year
//! replay is still executing; the stream makes the run observable live:
//!
//! * **JSONL sink** — one self-contained JSON object per line. The first
//!   line is a `meta` record; every subsequent line is a `day`, `trigger`
//!   or `final` event carrying *windowed counter deltas since the
//!   previous emitted line* and current gauge values. Because deltas only
//!   advance on emitted lines, summing a counter over all lines always
//!   reconciles exactly with the end-of-run cumulative value.
//! * **Exposition writer** — optionally rewrites a small Prometheus-style
//!   text file (`# TYPE` comments plus `name value` samples) on every
//!   emitted event, so an external scraper sees current cumulative
//!   values. Each rewrite goes to `<path>.tmp` and is renamed over the
//!   file, so a scraper never reads it empty or half-written.
//!
//! **Bounded write amplification**: `day` events are throttled to one per
//! `every_days` replay days; `trigger` and `final` events always emit.
//! Each line is written and flushed atomically from the sink's point of
//! view (single `write_all` of a `\n`-terminated buffer), so a crash can
//! only truncate the *last* line — [`complete_lines`] recovers the intact
//! prefix.
//!
//! Sink I/O failures never take the run down: errors are swallowed and
//! counted (`write_errors` in the report / CLI summary).

use crate::metrics::{CounterSnapshot, GaugeSnapshot};
use crate::report::put;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Stream attachment options for [`crate::Telemetry::attach_stream`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamOptions {
    /// Also rewrite a Prometheus-style exposition file at this path on
    /// every emitted event.
    pub prom_path: Option<PathBuf>,
    /// Minimum replay days between two `day` events (values < 1 are
    /// treated as 1). `trigger`/`final` events are never throttled.
    pub every_days: i64,
}

/// Event kinds a stream line can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamEventKind {
    /// End-of-day sample (throttled by `every_days`).
    Day,
    /// Retention-trigger sample (always emitted).
    Trigger,
    /// End-of-run sample (always emitted; closes the delta chain).
    Final,
}

impl StreamEventKind {
    fn name(self) -> &'static str {
        match self {
            StreamEventKind::Day => "day",
            StreamEventKind::Trigger => "trigger",
            StreamEventKind::Final => "final",
        }
    }
}

/// Live state of one attached stream.
pub(crate) struct StreamState {
    sink: Box<dyn Write + Send>,
    prom_path: Option<PathBuf>,
    every_days: i64,
    last_day_emitted: Option<i64>,
    /// Cumulative counter values at the previous *emitted* line.
    last_counters: Vec<u64>,
    wrote_meta: bool,
    lines: u64,
    write_errors: u64,
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("every_days", &self.every_days)
            .field("lines", &self.lines)
            .field("write_errors", &self.write_errors)
            .finish()
    }
}

impl StreamState {
    pub(crate) fn new(sink: Box<dyn Write + Send>, options: StreamOptions) -> Self {
        StreamState {
            sink,
            prom_path: options.prom_path,
            every_days: options.every_days.max(1),
            last_day_emitted: None,
            last_counters: Vec::new(),
            wrote_meta: false,
            lines: 0,
            write_errors: 0,
        }
    }

    /// Lines successfully written (including the `meta` line).
    pub(crate) fn lines(&self) -> u64 {
        self.lines
    }

    /// Write attempts that failed (the run continues regardless).
    pub(crate) fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Observe one sampling boundary; emits a line unless this is a
    /// throttled `day` event.
    pub(crate) fn observe(
        &mut self,
        kind: StreamEventKind,
        day: i64,
        counters: &[CounterSnapshot],
        gauges: &[GaugeSnapshot],
    ) {
        if kind == StreamEventKind::Day {
            let due = match self.last_day_emitted {
                None => true,
                Some(last) => day.saturating_sub(last) >= self.every_days,
            };
            if !due {
                return;
            }
            self.last_day_emitted = Some(day);
        }
        if !self.wrote_meta {
            self.wrote_meta = true;
            let meta = format!(
                "{{\"type\":\"meta\",\"version\":1,\"every_days\":{}}}\n",
                self.every_days
            );
            self.write_line(&meta);
        }
        let mut line = String::with_capacity(256);
        put(
            &mut line,
            format_args!(
                "{{\"type\":\"{}\",\"day\":{day},\"counters\":{{",
                kind.name()
            ),
        );
        while self.last_counters.len() < counters.len() {
            self.last_counters.push(0);
        }
        for (i, (snap, last)) in counters
            .iter()
            .zip(self.last_counters.iter_mut())
            .enumerate()
        {
            if i > 0 {
                line.push(',');
            }
            let delta = snap.value.saturating_sub(*last);
            *last = snap.value;
            put(
                &mut line,
                format_args!("{}:{delta}", crate::report::json_str(&snap.name)),
            );
        }
        line.push_str("},\"gauges\":{");
        for (i, g) in gauges.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            put(
                &mut line,
                format_args!("{}:{}", crate::report::json_str(&g.name), g.value),
            );
        }
        line.push_str("}}\n");
        self.write_line(&line);
        if let Some(path) = &self.prom_path {
            if replace_file(path, &exposition(counters, gauges)).is_err() {
                self.write_errors += 1;
            }
        }
    }

    /// One `write_all` + `flush` per line keeps the crash-truncation
    /// window to a single trailing line.
    fn write_line(&mut self, line: &str) {
        let ok = self.sink.write_all(line.as_bytes()).is_ok() && self.sink.flush().is_ok();
        if ok {
            self.lines += 1;
        } else {
            self.write_errors += 1;
        }
    }
}

/// Write `text` to `<path>.tmp`, then rename it over `path`: readers see
/// the old file or the new one, never a truncated one.
fn replace_file(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Render cumulative metric state as Prometheus-style text exposition.
/// Metric names are sanitised (`.` and `-` become `_`).
#[must_use]
pub fn exposition(counters: &[CounterSnapshot], gauges: &[GaugeSnapshot]) -> String {
    let mut out = String::with_capacity(1024);
    for c in counters {
        let name = sanitise(&c.name);
        put(
            &mut out,
            format_args!("# TYPE {name} counter\n{name} {}\n", c.value),
        );
    }
    for g in gauges {
        let name = sanitise(&g.name);
        put(
            &mut out,
            format_args!("# TYPE {name} gauge\n{name} {}\n", g.value),
        );
    }
    out
}

fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The complete (`\n`-terminated) lines of a JSONL payload, dropping a
/// trailing partial line — the crash-recovery read path: a truncated
/// stream parses to its intact prefix.
#[must_use]
pub fn complete_lines(text: &str) -> Vec<&str> {
    let end = text.rfind('\n').map_or(0, |i| i + 1);
    text.get(..end).map_or_else(Vec::new, |head| {
        head.lines().filter(|l| !l.is_empty()).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8")
        }
    }

    fn counters(values: &[(&str, u64)]) -> Vec<CounterSnapshot> {
        values
            .iter()
            .map(|(n, v)| CounterSnapshot {
                name: (*n).to_string(),
                value: *v,
            })
            .collect()
    }

    #[test]
    fn lines_carry_deltas_that_reconcile() {
        let buf = Buf::default();
        let mut st = StreamState::new(Box::new(buf.clone()), StreamOptions::default());
        st.observe(StreamEventKind::Day, 0, &counters(&[("reads", 10)]), &[]);
        st.observe(
            StreamEventKind::Trigger,
            1,
            &counters(&[("reads", 25)]),
            &[],
        );
        st.observe(StreamEventKind::Final, 2, &counters(&[("reads", 30)]), &[]);
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "meta + 3 events in {text}");
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[1].contains("\"reads\":10"));
        assert!(lines[2].contains("\"reads\":15"));
        assert!(lines[3].contains("\"reads\":5"));
        assert_eq!(st.lines(), 4);
        assert_eq!(st.write_errors(), 0);
    }

    #[test]
    fn day_events_are_throttled_but_triggers_are_not() {
        let buf = Buf::default();
        let mut st = StreamState::new(
            Box::new(buf.clone()),
            StreamOptions {
                prom_path: None,
                every_days: 7,
            },
        );
        for day in 0..14i64 {
            st.observe(StreamEventKind::Day, day, &[], &[]);
        }
        st.observe(StreamEventKind::Trigger, 14, &[], &[]);
        let text = buf.text();
        let days = text.matches("\"type\":\"day\"").count();
        assert_eq!(days, 2, "days 0 and 7 in {text}");
        assert_eq!(text.matches("\"type\":\"trigger\"").count(), 1);
    }

    #[test]
    fn throttled_deltas_still_chain_exactly() {
        let buf = Buf::default();
        let mut st = StreamState::new(
            Box::new(buf.clone()),
            StreamOptions {
                prom_path: None,
                every_days: 5,
            },
        );
        for day in 0..10i64 {
            let v = u64::try_from(day + 1).expect("small") * 3;
            st.observe(StreamEventKind::Day, day, &counters(&[("c", v)]), &[]);
        }
        st.observe(StreamEventKind::Final, 10, &counters(&[("c", 30)]), &[]);
        let text = buf.text();
        let total: u64 = text
            .lines()
            .filter_map(|l| {
                let idx = l.find("\"c\":")?;
                let tail = l.get(idx + 4..)?;
                let num: String = tail.chars().take_while(char::is_ascii_digit).collect();
                num.parse::<u64>().ok()
            })
            .sum();
        assert_eq!(total, 30, "line deltas must sum to the cumulative value");
    }

    #[test]
    fn write_failures_are_counted_not_fatal() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _data: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut st = StreamState::new(Box::new(Failing), StreamOptions::default());
        st.observe(StreamEventKind::Final, 0, &counters(&[("c", 1)]), &[]);
        assert_eq!(st.lines(), 0);
        assert_eq!(st.write_errors(), 2, "meta and event line both failed");
    }

    #[test]
    fn exposition_sanitises_names() {
        let text = exposition(
            &counters(&[("replay.reads", 42)]),
            &[GaugeSnapshot {
                name: String::from("catalog.buffer-depth"),
                value: -3,
            }],
        );
        assert!(text.contains("# TYPE replay_reads counter\nreplay_reads 42\n"));
        assert!(text.contains("# TYPE catalog_buffer_depth gauge\ncatalog_buffer_depth -3\n"));
    }

    #[test]
    fn complete_lines_drops_a_truncated_tail() {
        let text = "{\"a\":1}\n{\"b\":2}\n{\"c\":";
        assert_eq!(complete_lines(text), vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(complete_lines(""), Vec::<&str>::new());
        assert_eq!(complete_lines("no newline"), Vec::<&str>::new());
        assert_eq!(complete_lines("{\"a\":1}\n"), vec!["{\"a\":1}"]);
    }
}
