//! A directory of named metrics with snapshot-based export.

use crate::export;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A directory of metrics under hierarchical dot-separated names
/// (`engine.query.calls`, `serve.request_ns`), owned by the one table or
/// server whose work it records.
///
/// Lookup-or-create goes through a mutex, so callers hold on to the returned
/// `Arc` rather than re-resolving names on hot paths; recording through the
/// `Arc` is lock-free. A name resolves to the kind it was first registered
/// as — asking for the same name as a different kind returns a fresh
/// *detached* instance (recorded values go nowhere visible) instead of
/// panicking, because observability must never take the process down.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The metric registered under `name`, registering `create()` first if
    /// the name is new. A hit borrows `name`; only an insert allocates it.
    fn resolve(&self, name: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.lock();
        if let Some(metric) = map.get(name) {
            return metric.clone();
        }
        let metric = create();
        map.insert(name.to_owned(), metric.clone());
        metric
    }

    /// The counter registered under `name`, created at zero if absent. If
    /// `name` is already a gauge or histogram, returns a detached counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.resolve(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => Arc::default(),
        }
    }

    /// The gauge registered under `name`, created at `0.0` if absent. If
    /// `name` is already another kind, returns a detached gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.resolve(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => Arc::default(),
        }
    }

    /// The histogram registered under `name`, created empty if absent. If
    /// `name` is already another kind, returns a detached histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.resolve(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => Arc::default(),
        }
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.lock();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => histograms.push((name.clone(), h.snapshot())),
            }
        }
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// The registry as JSON (schema `minskew-obs/v1`, pinned by a golden
    /// test). Names sort lexicographically; non-finite gauges export as
    /// `null`.
    pub fn to_json(&self) -> String {
        export::to_json(&self.snapshot())
    }

    /// The registry as aligned human-readable text, one metric per line.
    pub fn to_text(&self) -> String {
        export::to_text(&self.snapshot())
    }
}

/// A point-in-time copy of a [`Registry`]: every metric's name and value,
/// grouped by kind, names in ascending lexicographic order within each
/// group.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The value of the row named `name`, if any.
fn find<'a, T>(rows: &'a [(String, T)], name: &str) -> Option<&'a T> {
    rows.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

impl RegistrySnapshot {
    /// The counter named `name`, if the snapshot carries one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        find(&self.counters, name).copied()
    }

    /// The gauge named `name`, if the snapshot carries one.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        find(&self.gauges, name).copied()
    }

    /// The histogram named `name`, if the snapshot carries one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        find(&self.histograms, name)
    }

    /// The snapshot as JSON (schema `minskew-obs/v1`, pinned by a golden
    /// test). Names sort lexicographically; non-finite gauges export as
    /// `null`.
    pub fn to_json(&self) -> String {
        export::to_json(self)
    }

    /// The snapshot as aligned human-readable text, one metric per line.
    pub fn to_text(&self) -> String {
        export::to_text(self)
    }

    /// Merges another snapshot into this one and restores the sorted-name
    /// invariant. Metrics sharing a name across the two snapshots
    /// coalesce into one row — counters add (wrapping, matching the live
    /// counter's representation), histograms add bucket by bucket
    /// ([`HistogramSnapshot::merge`]), and gauges keep the larger value by
    /// IEEE total order (a commutative high-water rule: last-write-wins
    /// has no meaning across concurrent shards). Every combiner is
    /// commutative and associative, so folding per-shard snapshots in any
    /// order produces byte-identical exports — pinned by the proptest
    /// suite in `tests/golden_metrics.rs`.
    pub fn merge(&mut self, other: RegistrySnapshot) {
        fn coalesce<T>(
            dst: &mut Vec<(String, T)>,
            src: Vec<(String, T)>,
            mut add: impl FnMut(&mut T, T),
        ) {
            for (name, value) in src {
                match dst.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
                    Ok(i) => add(&mut dst[i].1, value),
                    Err(i) => dst.insert(i, (name, value)),
                }
            }
        }
        // Self-merges from older snapshots may predate the sorted-name
        // invariant; re-establish it before binary searching.
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        coalesce(&mut self.counters, other.counters, |a, b| {
            *a = a.wrapping_add(b);
        });
        coalesce(&mut self.gauges, other.gauges, |a, b| {
            if b.total_cmp(a) == std::cmp::Ordering::Greater {
                *a = b;
            }
        });
        coalesce(&mut self.histograms, other.histograms, |a, b| a.merge(&b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("x.calls");
        let b = r.counter("x.calls");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn kind_mismatch_returns_detached_instance() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(7);
        let g = r.gauge("x");
        g.set(1.0);
        let h = r.histogram("x");
        h.record(1);
        // The original counter is untouched and still registered.
        assert_eq!(c.get(), 7);
        assert_eq!(r.snapshot().counters, vec![("x".to_owned(), 7)]);
        assert!(r.snapshot().gauges.is_empty());
        assert!(r.snapshot().histograms.is_empty());
    }

    #[test]
    fn repeated_lookups_share_one_instance_per_kind() {
        let r = Registry::new();
        assert!(Arc::ptr_eq(&r.gauge("g"), &r.gauge("g")));
        assert!(Arc::ptr_eq(&r.histogram("h"), &r.histogram("h")));
        // A mismatched lookup is detached: fresh every time, never shared
        // with the registered metric, and it registers nothing new.
        let detached = r.counter("h");
        assert!(!Arc::ptr_eq(&detached, &r.counter("h")));
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn snapshot_lookups_find_each_kind_by_name() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(1.5);
        r.histogram("h").record(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
        // A name resolves only within its own kind.
        assert_eq!(snap.counter("g"), None);
        assert_eq!(snap.gauge("missing"), None);
    }

    #[test]
    fn snapshot_sorts_names() {
        let r = Registry::new();
        r.counter("b");
        r.counter("a");
        r.counter("c");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
