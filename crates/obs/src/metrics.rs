//! Metric registry: counters, gauges, and fixed-bucket histograms.
//!
//! Every cell is a plain relaxed atomic: one `AtomicU64` per counter, one
//! `AtomicI64` per gauge (last writer wins), and per histogram one
//! `AtomicU64` per bucket plus a sum and a count. The replay loop is the
//! only writer, so there is no contention to spread out.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of an
//! `Arc` into the registry's storage; a handle obtained from a *disabled*
//! [`crate::Telemetry`] carries no storage at all, so the disabled hot
//! path is a single branch on an `Option` — measured in
//! `docs/results/BENCH_obs.json`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, recovering the data from a poisoned lock instead of
/// panicking: telemetry must never take the run down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The cells of one fixed-bucket histogram.
#[derive(Debug)]
pub(crate) struct HistogramCells {
    /// Ascending inclusive upper bounds; values above the last bound land
    /// in the overflow bucket.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` bucket counts, the overflow bucket last.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCells {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        HistogramCells {
            buckets: (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect(),
            bounds: sorted,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(cell) = self.buckets.get(bucket) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Handle to one registered counter. Increments on a disabled handle are
/// a single branch; on an enabled handle, one relaxed `fetch_add`.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    pub(crate) cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Handle to one registered gauge (last-writer-wins instantaneous value).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    pub(crate) cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Set the gauge from an unsigned value, saturating at `i64::MAX`.
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(i64::try_from(v).unwrap_or(i64::MAX));
    }
}

/// Handle to one registered fixed-bucket histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub(crate) cell: Option<Arc<HistogramCells>>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }
}

/// Value of one counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Cumulative total.
    pub value: u64,
}

/// Value of one gauge at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Last stored value.
    pub value: i64,
}

/// State of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Ascending inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one extra overflow bucket at the end.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

/// The registry behind one [`crate::Telemetry`] instance. Registration is
/// name-deduplicated: asking twice for the same name returns a handle to
/// the same storage, so call sites need no shared handle plumbing.
#[derive(Debug, Default)]
pub(crate) struct MetricRegistry {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicI64>)>>,
    histograms: Mutex<Vec<(String, Arc<HistogramCells>)>>,
}

impl MetricRegistry {
    pub(crate) fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut list = lock(&self.counters);
        if let Some((_, cell)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(AtomicU64::new(0));
        list.push((name.to_string(), Arc::clone(&cell)));
        cell
    }

    pub(crate) fn gauge(&self, name: &str) -> Arc<AtomicI64> {
        let mut list = lock(&self.gauges);
        if let Some((_, cell)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(AtomicI64::new(0));
        list.push((name.to_string(), Arc::clone(&cell)));
        cell
    }

    pub(crate) fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<HistogramCells> {
        let mut list = lock(&self.histograms);
        if let Some((_, cell)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(HistogramCells::new(bounds));
        list.push((name.to_string(), Arc::clone(&cell)));
        cell
    }

    /// Counter values, in registration order.
    pub(crate) fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        lock(&self.counters)
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Gauge values, in registration order.
    pub(crate) fn gauge_snapshots(&self) -> Vec<GaugeSnapshot> {
        lock(&self.gauges)
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Histogram states, in registration order.
    pub(crate) fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        lock(&self.histograms)
            .iter()
            .map(|(name, cell)| HistogramSnapshot {
                name: name.clone(),
                bounds: cell.bounds.clone(),
                counts: cell
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: cell.count.load(Ordering::Relaxed),
                sum: cell.sum.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::default();
        c.inc();
        c.add(100);
        let g = Gauge::default();
        g.set(7);
        let h = Histogram::default();
        h.record(3);
        // Nothing to observe: the point is simply that none of this panics
        // or allocates.
    }

    #[test]
    fn counter_sums_increments_from_every_thread() {
        let reg = MetricRegistry::default();
        let c = Counter {
            cell: Some(reg.counter("x")),
        };
        let c2 = c.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..1000 {
                c2.inc();
            }
        });
        for _ in 0..500 {
            c.add(2);
        }
        t.join().expect("worker thread");
        let snap = reg.counter_snapshots();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "x");
        assert_eq!(snap[0].value, 2000);
    }

    #[test]
    fn registration_is_deduplicated_and_ordered() {
        let reg = MetricRegistry::default();
        let a = reg.counter("a");
        let b = reg.counter("b");
        let a_again = reg.counter("a");
        assert!(Arc::ptr_eq(&a, &a_again));
        assert!(!Arc::ptr_eq(&a, &b));
        let names: Vec<String> = reg
            .counter_snapshots()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn gauge_is_last_writer_wins() {
        let reg = MetricRegistry::default();
        let g = Gauge {
            cell: Some(reg.gauge("depth")),
        };
        g.set(5);
        g.set(-3);
        assert_eq!(reg.gauge_snapshots()[0].value, -3);
        g.set_u64(u64::MAX);
        assert_eq!(reg.gauge_snapshots()[0].value, i64::MAX);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricRegistry::default();
        let h = Histogram {
            cell: Some(reg.histogram("lat", &[10, 100, 1000])),
        };
        h.record(5); // <= 10
        h.record(10); // <= 10 (inclusive)
        h.record(50); // <= 100
        h.record(5000); // overflow
        let snap = &reg.histogram_snapshots()[0];
        assert_eq!(snap.bounds, vec![10, 100, 1000]);
        assert_eq!(snap.counts, vec![2, 1, 0, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 5065);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let reg = MetricRegistry::default();
        let h = Histogram {
            cell: Some(reg.histogram("h", &[100, 10, 100])),
        };
        h.record(11);
        let snap = &reg.histogram_snapshots()[0];
        assert_eq!(snap.bounds, vec![10, 100]);
        assert_eq!(snap.counts, vec![0, 1, 0]);
    }
}
