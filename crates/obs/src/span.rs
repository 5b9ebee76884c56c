//! Hierarchical span timers over the monotonic clock.
//!
//! A span is entered with [`crate::Telemetry::span`] and closed when the
//! returned [`SpanGuard`] drops. Spans nest: a span entered while another
//! is open becomes its child, building a tree of phases (`run` → `day` →
//! `trigger` → `decide`, …). Two views are kept:
//!
//! * an **aggregate tree** — per node: call count and total wall micros —
//!   rendered in the summary table and `telemetry.json`;
//! * an **instance log** — one `(start, duration)` sample per span entry,
//!   bounded by `MAX_SPAN_INSTANCES` (65 536) — exported as chrome trace
//!   events so a run opens as a flamegraph.
//!
//! The tree cursor assumes one *driving* thread (the replay loop): spans
//! entered concurrently from several threads will not crash, but their
//! parentage is whatever interleaving the cursor saw. Counters and
//! histograms, not spans, are the multi-thread-safe primitives.

use crate::metrics::lock;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span entries the instance log keeps; later entries are counted as
/// dropped, while the aggregate tree keeps accumulating.
pub(crate) const MAX_SPAN_INSTANCES: usize = 65_536;

/// One node of the aggregate span tree.
#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total_micros: u64,
}

/// One recorded span entry, for the trace-event export.
#[derive(Debug, Clone, Copy)]
struct SpanInstance {
    node: usize,
    start_micros: u64,
    dur_micros: u64,
}

#[derive(Debug)]
struct SpanState {
    /// Node 0 is the synthetic root; real spans hang below it.
    nodes: Vec<SpanNode>,
    /// The innermost currently-open node (0 when no span is open).
    cursor: usize,
    instances: Vec<SpanInstance>,
    dropped_instances: u64,
}

/// The span side of one telemetry instance.
#[derive(Debug)]
pub(crate) struct SpanLog {
    epoch: Instant,
    max_instances: usize,
    state: Mutex<SpanState>,
}

impl SpanLog {
    pub(crate) fn new(epoch: Instant, max_instances: usize) -> Self {
        SpanLog {
            epoch,
            max_instances,
            state: Mutex::new(SpanState {
                nodes: vec![SpanNode {
                    name: "",
                    children: Vec::new(),
                    count: 0,
                    total_micros: 0,
                }],
                cursor: 0,
                instances: Vec::new(),
                dropped_instances: 0,
            }),
        }
    }

    /// Kept out of line so the disabled path of [`crate::Telemetry::span`]
    /// stays a bare branch, with no register spills for this body.
    #[inline(never)]
    pub(crate) fn enter(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        #[expect(
            clippy::disallowed_methods,
            reason = "span timing is telemetry side-channel, never replay input"
        )]
        let start = Instant::now();
        let start_micros = micros(start.saturating_duration_since(self.epoch));
        let (parent, node) = {
            let mut state = lock(&self.state);
            let parent = state.cursor;
            let nodes = &state.nodes;
            let node = nodes.get(parent).and_then(|p| {
                p.children
                    .iter()
                    .copied()
                    .find(|&c| nodes.get(c).is_some_and(|n| n.name == name))
            });
            let node = match node {
                Some(idx) => idx,
                None => {
                    let idx = state.nodes.len();
                    state.nodes.push(SpanNode {
                        name,
                        children: Vec::new(),
                        count: 0,
                        total_micros: 0,
                    });
                    if let Some(p) = state.nodes.get_mut(parent) {
                        p.children.push(idx);
                    }
                    idx
                }
            };
            state.cursor = node;
            (parent, node)
        };
        SpanGuard {
            open: Some(OpenSpan {
                log: Arc::clone(self),
                parent,
                node,
                start,
                start_micros,
            }),
        }
    }

    /// Aggregate tree, one snapshot per top-level span.
    pub(crate) fn tree(&self) -> Vec<SpanSnapshot> {
        let state = lock(&self.state);
        state
            .nodes
            .first()
            .map(|root| {
                root.children
                    .iter()
                    .filter_map(|&c| build_snapshot(&state.nodes, c))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every recorded span instance (entry order) plus the drop count.
    pub(crate) fn instances(&self) -> (Vec<SpanInstanceSnapshot>, u64) {
        let state = lock(&self.state);
        let list = state
            .instances
            .iter()
            .map(|i| SpanInstanceSnapshot {
                name: state
                    .nodes
                    .get(i.node)
                    .map(|n| n.name.to_string())
                    .unwrap_or_default(),
                start_micros: i.start_micros,
                dur_micros: i.dur_micros,
            })
            .collect();
        (list, state.dropped_instances)
    }
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn build_snapshot(nodes: &[SpanNode], idx: usize) -> Option<SpanSnapshot> {
    let node = nodes.get(idx)?;
    Some(SpanSnapshot {
        name: node.name.to_string(),
        count: node.count,
        total_micros: node.total_micros,
        children: node
            .children
            .iter()
            .filter_map(|&c| build_snapshot(nodes, c))
            .collect(),
    })
}

/// Aggregate view of one span-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name as passed to [`crate::Telemetry::span`].
    pub name: String,
    /// Times this span was entered.
    pub count: u64,
    /// Total wall-clock microseconds spent inside (children included).
    pub total_micros: u64,
    /// Child spans, in first-entered order.
    pub children: Vec<SpanSnapshot>,
}

/// One span entry of the instance log (trace-event export source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInstanceSnapshot {
    /// Span name.
    pub name: String,
    /// Microseconds since the telemetry epoch at entry.
    pub start_micros: u64,
    /// Wall-clock duration in microseconds.
    pub dur_micros: u64,
}

#[derive(Debug)]
struct OpenSpan {
    log: Arc<SpanLog>,
    parent: usize,
    node: usize,
    start: Instant,
    start_micros: u64,
}

/// RAII guard closing a span on drop. A guard from a disabled
/// [`crate::Telemetry`] is inert.
#[derive(Debug, Default)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur = micros(open.start.elapsed());
        let mut state = lock(&open.log.state);
        if let Some(node) = state.nodes.get_mut(open.node) {
            node.count += 1;
            node.total_micros += dur;
        }
        // Restore the parent as the open node. If spans were closed out of
        // order (guards dropped non-LIFO), fall back to the recorded
        // parent rather than leaving the cursor dangling.
        state.cursor = open.parent;
        if state.instances.len() < open.log.max_instances {
            state.instances.push(SpanInstance {
                node: open.node,
                start_micros: open.start_micros,
                dur_micros: dur,
            });
        } else {
            state.dropped_instances += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::disallowed_methods,
        reason = "span timing is telemetry side-channel, never replay input"
    )]
    fn new_log() -> Arc<SpanLog> {
        Arc::new(SpanLog::new(Instant::now(), 16))
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let log = new_log();
        {
            let _run = log.enter("run");
            for _ in 0..3 {
                let _day = log.enter("day");
                let _inner = log.enter("replay");
            }
        }
        let tree = log.tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "run");
        assert_eq!(tree[0].count, 1);
        assert_eq!(tree[0].children.len(), 1);
        let day = &tree[0].children[0];
        assert_eq!(day.name, "day");
        assert_eq!(day.count, 3);
        assert_eq!(day.children[0].name, "replay");
        assert_eq!(day.children[0].count, 3);
    }

    #[test]
    fn sibling_spans_do_not_merge() {
        let log = new_log();
        {
            let _t = log.enter("trigger");
            drop(log.enter("evaluate"));
            drop(log.enter("decide"));
        }
        let tree = log.tree();
        let names: Vec<&str> = tree[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["evaluate", "decide"]);
    }

    #[test]
    fn instance_log_is_bounded() {
        let log = new_log();
        for _ in 0..40 {
            drop(log.enter("tick"));
        }
        let (instances, dropped) = log.instances();
        assert_eq!(instances.len(), 16);
        assert_eq!(dropped, 24);
        assert!(instances.iter().all(|i| i.name == "tick"));
    }

    #[test]
    fn durations_are_monotone() {
        let log = new_log();
        {
            let _outer = log.enter("outer");
            let _inner = log.enter("inner");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let tree = log.tree();
        let outer = &tree[0];
        let inner = &outer.children[0];
        assert!(outer.total_micros >= inner.total_micros);
    }
}
