//! Golden pin of the `minskew-obs/v1` metrics-export schema, plus the
//! order-independence property of counter merges under the parallel runtime.
//!
//! The JSON exporter is hand-written (no serialization crate), so nothing
//! but this byte-for-byte pin stops field names, ordering, indentation, or
//! the inlined histogram bucket bounds from drifting between releases.
//! External consumers (dashboards, `minskew stats --json` scrapers) parse
//! this document; treat any change here as a schema version bump.

use minskew_obs::{bucket_bounds, Registry, HISTOGRAM_BUCKETS};

/// A handcrafted registry covering every value shape the exporter handles:
/// zero and large counters, finite / negative / non-finite gauges, and a
/// histogram spanning the first bucket, a middle bucket, and the overflow
/// bucket.
fn handcrafted() -> Registry {
    let r = Registry::new();
    r.counter("engine.query.calls").add(12);
    r.counter("zero.counter");
    r.gauge("accuracy.err").set(0.25);
    r.gauge("drift.nan").set(f64::NAN);
    r.gauge("temp.neg").set(-2.5);
    let h = r.histogram("lat.ns");
    h.record(0); // first bucket: [0, 2)
    h.record(1); // first bucket again
    h.record(1_000); // middle bucket: [512, 1024)
    h.record(u64::MAX); // last bucket: [2^63, u64::MAX]
    r
}

/// The pinned export. Every byte matters: schema tag, two-level
/// indentation, sorted names within each section, `null` for non-finite
/// gauges, and `[lo, hi)` bounds inlined per non-empty histogram bucket.
/// Note `"sum": 1000`: the histogram sum is a wrapping u64 (1001 plus the
/// deliberate `u64::MAX` record wraps) — harmless for nanosecond latencies
/// (a wrap needs ~584 years of recorded time) and pinned here so the
/// behaviour is documented rather than accidental.
const GOLDEN_JSON: &str = r#"{
  "schema": "minskew-obs/v1",
  "counters": {
    "engine.query.calls": 12,
    "zero.counter": 0
  },
  "gauges": {
    "accuracy.err": 0.25,
    "drift.nan": null,
    "temp.neg": -2.5
  },
  "histograms": {
    "lat.ns": {"count": 4, "sum": 1000, "buckets": [{"lo": 0, "hi": 2, "count": 2}, {"lo": 512, "hi": 1024, "count": 1}, {"lo": 9223372036854775808, "hi": 18446744073709551615, "count": 1}]}
  }
}
"#;

#[test]
fn metrics_json_schema_is_pinned() {
    let got = handcrafted().to_json();
    assert_eq!(
        got, GOLDEN_JSON,
        "minskew-obs/v1 JSON drifted; if intentional, bump the schema tag \
         and re-pin"
    );
}

#[test]
fn histogram_bucket_bounds_partition_u64() {
    // The inlined bounds must tile [0, u64::MAX] with no gaps or overlaps:
    // consumers reconstruct distributions from them.
    let mut expected_lo = 0u64;
    for i in 0..HISTOGRAM_BUCKETS {
        let (lo, hi) = bucket_bounds(i);
        assert_eq!(lo, expected_lo, "bucket {i} leaves a gap");
        assert!(hi > lo, "bucket {i} is empty");
        expected_lo = hi;
    }
    assert_eq!(bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);
}

#[test]
fn overflowing_sum_stays_a_valid_json_number() {
    let r = Registry::new();
    let h = r.histogram("wrap");
    h.record(u64::MAX);
    h.record(u64::MAX);
    // The wrapping sum must still export as a plain JSON number alongside
    // the exact count.
    let json = r.to_json();
    assert!(json.contains("\"count\": 2"), "{json}");
    assert!(json.contains("\"sum\": 18446744073709551614"), "{json}");
}

#[test]
fn every_non_finite_gauge_value_exports_as_null() {
    // Regression pin for the non-finite JSON hazard: NaN, +inf, and -inf
    // must all land as `null` (JSON has no Inf/NaN tokens) in the scraped
    // document — the same family of values the wire `STATS` reply filters
    // out of its staleness field before formatting.
    let r = Registry::new();
    r.gauge("gauge.a").set(f64::NAN);
    r.gauge("gauge.b").set(f64::INFINITY);
    r.gauge("gauge.c").set(f64::NEG_INFINITY);
    let json = r.to_json();
    assert!(json.contains("\"gauge.a\": null"), "{json}");
    assert!(json.contains("\"gauge.b\": null"), "{json}");
    assert!(json.contains("\"gauge.c\": null"), "{json}");
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
}

#[test]
fn snapshot_merge_coalesces_same_named_metrics() {
    let a = Registry::new();
    a.counter("req").add(u64::MAX - 1); // forces the wrap below
    a.counter("only.a").add(3);
    a.gauge("hi.water").set(1.5);
    a.histogram("lat").record(1);
    let b = Registry::new();
    b.counter("req").add(3);
    b.gauge("hi.water").set(-7.0);
    b.gauge("only.b").set(2.0);
    b.histogram("lat").record(1);
    b.histogram("lat").record(1_000);
    let mut snap = a.snapshot();
    snap.merge(b.snapshot());
    // Counters add with wrapping arithmetic, like the live counter.
    assert_eq!(
        snap.counters,
        vec![("only.a".to_owned(), 3), ("req".to_owned(), 1)]
    );
    // Gauges keep the larger value by IEEE total order.
    assert_eq!(
        snap.gauges,
        vec![("hi.water".to_owned(), 1.5), ("only.b".to_owned(), 2.0)]
    );
    // Histograms add bucket by bucket: the merged snapshot equals one
    // histogram that saw every sample.
    let all = Registry::new();
    let h = all.histogram("lat");
    h.record(1);
    h.record(1);
    h.record(1_000);
    assert_eq!(snap.histograms, all.snapshot().histograms);
    // The merged document is valid, duplicate-free JSON.
    let json = snap.to_json();
    assert_eq!(json.matches("\"req\"").count(), 1, "{json}");
    assert_eq!(json.matches("\"hi.water\"").count(), 1, "{json}");
}

/// Counter merges across minskew-par workers are order-independent: the
/// same multiset of `add`s lands on the same totals no matter how the
/// scheduler interleaves workers. This is what makes a counter shared by
/// concurrent recorders (a table's or a server's) trustworthy under the
/// deterministic-parallelism contract.
#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use minskew_obs::RegistrySnapshot;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_counter_merges_are_order_independent(
            increments in proptest::collection::vec(0u64..1_000, 1..64),
            threads in 1usize..8,
            chunk in 1usize..16,
        ) {
            let serial: u64 = increments.iter().sum();
            // Fan the same increments across parallel workers; every
            // interleaving must merge to the serial total.
            let r = Registry::new();
            let c = r.counter("prop.total");
            minskew_par::map_chunks_queued(threads, chunk, &increments, |&v| {
                c.add(v);
                v
            });
            prop_assert_eq!(c.get(), serial, "threads={} chunk={}", threads, chunk);
            // And a second pass accumulates on top, still exactly.
            minskew_par::map_chunks_queued(threads.max(2), chunk, &increments, |&v| {
                c.add(v);
                v
            });
            prop_assert_eq!(c.get(), 2 * serial);
        }

        /// `RegistrySnapshot::merge` is a commutative, associative fold:
        /// scraping N shard registries and merging in any order yields a
        /// byte-identical export — and the merged histogram is exactly the
        /// histogram that saw every shard's samples.
        #[test]
        fn prop_snapshot_merges_are_order_independent(
            shard_counters in proptest::collection::vec(0u64..1_000_000, 3..6),
            shard_samples in proptest::collection::vec(
                proptest::collection::vec(0u64..2_000_000, 0..24),
                3..6,
            ),
            rotation in 0usize..6,
        ) {
            let shards = shard_counters.len().min(shard_samples.len());
            let snaps: Vec<RegistrySnapshot> = (0..shards)
                .map(|i| {
                    let r = Registry::new();
                    r.counter("shard.req").add(shard_counters[i]);
                    r.gauge("shard.peak").set(shard_counters[i] as f64 / 7.0);
                    let h = r.histogram("shard.lat");
                    for &s in &shard_samples[i] {
                        h.record(s);
                    }
                    r.snapshot()
                })
                .collect();
            let mut fwd = RegistrySnapshot::default();
            for s in &snaps {
                fwd.merge(s.clone());
            }
            let mut rev = RegistrySnapshot::default();
            for s in snaps.iter().rev() {
                rev.merge(s.clone());
            }
            let mut rot = RegistrySnapshot::default();
            for k in 0..shards {
                rot.merge(snaps[(k + rotation) % shards].clone());
            }
            prop_assert_eq!(&fwd.to_json(), &rev.to_json());
            prop_assert_eq!(&fwd.to_json(), &rot.to_json());
            // Histogram-bucket addition: the merged rows equal one
            // histogram fed every shard's samples.
            let all = Registry::new();
            let h = all.histogram("shard.lat");
            for samples in shard_samples.iter().take(shards) {
                for &s in samples {
                    h.record(s);
                }
            }
            prop_assert_eq!(&fwd.histograms, &all.snapshot().histograms);
            // Counter addition matches the serial wrapping sum.
            let total = shard_counters
                .iter()
                .take(shards)
                .fold(0u64, |acc, v| acc.wrapping_add(*v));
            prop_assert_eq!(fwd.counters[0].1, total);
        }

        /// Same-named counters wrap on merge exactly like the live
        /// counter's u64 representation — no saturation, no panic.
        #[test]
        fn prop_counter_merge_wraps_like_the_live_counter(
            a in 0u64..1_000,
            b in 0u64..1_000,
        ) {
            let near_max = u64::MAX - a;
            let r1 = Registry::new();
            r1.counter("wrap").add(near_max);
            let r2 = Registry::new();
            r2.counter("wrap").add(b);
            let mut merged = r1.snapshot();
            merged.merge(r2.snapshot());
            prop_assert_eq!(merged.counters[0].1, near_max.wrapping_add(b));
            // Merging in the other direction lands on the same value.
            let mut flipped = r2.snapshot();
            flipped.merge(r1.snapshot());
            prop_assert_eq!(flipped.counters[0].1, near_max.wrapping_add(b));
        }
    }
}
