//! Differential test suite for the serving path: the indexed estimate
//! (`estimate_count_indexed`) and the engine's query cache must be
//! **bit-identical** to the linear reference scan, for every technique,
//! every extension rule, and every query shape — including after
//! maintenance churn patches the kernel plane and invalidates the query
//! cache.
//!
//! The scalar AoS fold (`estimate_count_reference`, a left-to-right sum of
//! `Bucket::estimate` over all buckets) is the reference semantics; the
//! serving layer — the SoA clip-and-accumulate kernel behind
//! `estimate_count`, its block-pruned scan, and the query cache — is an
//! optimisation stack that must be observationally invisible. The kernel
//! gets its own deeper matrix in `kernel_differential.rs`.
//!
//! The base matrix below always runs (tier 1). The `exhaustive` feature turns
//! on the exhaustive cross product on larger inputs; the `proptest` feature
//! adds randomized differential properties. CI also runs the suite under
//! `RUST_TEST_THREADS=1` so test-scheduler interference cannot mask bugs.

use minskew::prelude::*;
use minskew_datagen::{charminar_with, uniform_rects, RoadNetworkSpec, SyntheticSpec};

const RULES: [ExtensionRule; 3] = [
    ExtensionRule::Minkowski,
    ExtensionRule::PaperLiteral,
    ExtensionRule::None,
];

fn datasets(scale: usize) -> Vec<(&'static str, Dataset)> {
    vec![
        ("charminar", charminar_with(2_500 * scale, 7)),
        (
            "synthetic",
            SyntheticSpec::default().with_n(1_500 * scale).generate(11),
        ),
        (
            "road",
            RoadNetworkSpec {
                segments: 1_500 * scale,
                ..RoadNetworkSpec::default()
            }
            .generate(13),
        ),
        (
            "uniform",
            uniform_rects(
                1_200 * scale,
                Rect::new(0.0, 0.0, 10_000.0, 10_000.0),
                40.0,
                40.0,
                17,
            ),
        ),
        (
            "point-pile",
            Dataset::new(vec![Rect::new(5.0, 5.0, 5.0, 5.0); 64]),
        ),
    ]
}

/// All seven bucket-histogram techniques over one dataset.
fn techniques(data: &Dataset, buckets: usize) -> Vec<SpatialHistogram> {
    vec![
        MinSkewBuilder::new(buckets).regions(1_024).build(data),
        build_equi_area(data, buckets),
        build_equi_count(data, buckets),
        build_rtree_partitioning_default(data, buckets),
        build_uniform(data),
        build_grid(data, buckets),
        build_optimal_bsp(data, buckets.min(8), 8).histogram,
    ]
}

/// Deterministic query mix: range queries at three sizes across the extent,
/// point queries, and adversarial shapes (exact bounds, everything-covering,
/// fully disjoint, degenerate lines).
fn queries_for(data: &Dataset) -> Vec<Rect> {
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for i in 0..12 {
        let fx = i as f64 / 12.0;
        for size in [0.02, 0.1, 0.35] {
            let x = mbr.lo.x + fx * w * 0.9;
            let y = mbr.lo.y + (1.0 - fx) * h * 0.9;
            out.push(Rect::new(x, y, x + size * w, y + size * h));
        }
    }
    for i in 0..8 {
        let f = i as f64 / 8.0;
        out.push(Rect::from_point(Point::new(
            mbr.lo.x + f * w,
            mbr.lo.y + f * h,
        )));
    }
    out.push(mbr);
    out.push(mbr.expanded(w, h)); // covers everything: Scan fallback path
    out.push(Rect::new(
        mbr.hi.x + 3.0 * w,
        mbr.hi.y + 3.0 * h,
        mbr.hi.x + 4.0 * w,
        mbr.hi.y + 4.0 * h,
    )); // fully disjoint: Pruned path
    out.push(Rect::new(
        mbr.lo.x - w,
        mbr.lo.y,
        mbr.lo.x - 0.4 * w,
        mbr.hi.y,
    ));
    out.push(Rect::new(mbr.lo.x, mbr.lo.y, mbr.lo.x, mbr.hi.y)); // line
    out
}

/// Asserts reference == linear == indexed, bit for bit, for one histogram
/// across the full query mix; the scratch is deliberately reused across
/// queries. The scalar AoS fold (`estimate_count_reference`) is the
/// semantic anchor: the SoA kernel behind `estimate_count` (its
/// thread-local scratch) and `estimate_count_indexed` (the caller's) must
/// be invisible.
fn assert_serving_differential(
    context: &str,
    hist: &SpatialHistogram,
    queries: &[Rect],
    scratch: &mut KernelScratch,
) {
    for q in queries {
        let reference = hist.estimate_count_reference(q);
        let linear = hist.estimate_count(q);
        let indexed = hist.estimate_count_indexed(q, scratch);
        assert_eq!(
            reference.to_bits(),
            linear.to_bits(),
            "kernel diverged from the AoS fold: {context} technique={} q={q} \
             (reference={reference}, linear={linear})",
            hist.name(),
        );
        assert_eq!(
            linear.to_bits(),
            indexed.to_bits(),
            "indexed estimate diverged: {context} technique={} q={q} \
             (linear={linear}, indexed={indexed})",
            hist.name(),
        );
    }
}

#[test]
fn indexed_estimates_match_linear_for_every_technique_and_rule() {
    let mut scratch = KernelScratch::new();
    for (name, data) in datasets(1) {
        let queries = queries_for(&data);
        for hist in techniques(&data, 40) {
            for rule in RULES {
                let hist = hist.clone().with_extension_rule(rule);
                let context = format!("dataset={name} rule={rule:?}");
                assert_serving_differential(&context, &hist, &queries, &mut scratch);
            }
        }
    }
}

#[test]
fn indexed_estimates_survive_maintenance_churn() {
    // note_insert / note_delete mutate one bucket in place and patch the
    // kernel plane the pre-churn pass built; the patched plane must stay
    // bit-identical to the reference throughout.
    let data = charminar_with(3_000, 23);
    let queries = queries_for(&data);
    let mut scratch = KernelScratch::new();
    for mut hist in techniques(&data, 32) {
        assert_serving_differential("pre-churn", &hist, &queries, &mut scratch);
        let mbr = data.stats().mbr;
        for i in 0..40 {
            let f = i as f64 / 40.0;
            let x = mbr.lo.x + f * mbr.width();
            let y = mbr.lo.y + (1.0 - f) * mbr.height();
            hist.note_insert(&Rect::new(x, y, x + 25.0, y + 25.0));
        }
        assert_serving_differential("post-insert", &hist, &queries, &mut scratch);
        for r in data.rects().iter().take(60) {
            hist.note_delete(r);
        }
        assert_serving_differential("post-delete", &hist, &queries, &mut scratch);
    }
}

#[test]
fn table_cached_estimates_equal_uncached_and_survive_invalidation() {
    let data = charminar_with(3_000, 31);
    let mut cached = SpatialTable::new(TableOptions::default());
    let mut uncached = SpatialTable::new(TableOptions {
        query_cache: false,
        ..TableOptions::default()
    });
    for r in data.rects() {
        cached.insert(*r);
        uncached.insert(*r);
    }
    cached.analyze();
    uncached.analyze();
    let queries = queries_for(&data);
    // Three passes: pass 2+ is served from the cache and must not drift.
    for pass in 0..3 {
        for q in &queries {
            assert_eq!(
                cached.estimate(q).to_bits(),
                uncached.estimate(q).to_bits(),
                "pass={pass} q={q}"
            );
        }
    }
    assert!(counter(&cached, "engine.cache.hits") > 0);
    assert!(counter(&cached, "engine.cache.misses") > 0);
    // Mutations invalidate: estimates agree immediately after each change.
    let extra = Rect::new(100.0, 100.0, 400.0, 400.0);
    let id_c = cached.insert(extra);
    let id_u = uncached.insert(extra);
    for q in &queries {
        assert_eq!(
            cached.estimate(q).to_bits(),
            uncached.estimate(q).to_bits(),
            "post-insert q={q}"
        );
    }
    cached.delete(id_c);
    uncached.delete(id_u);
    for q in &queries {
        assert_eq!(
            cached.estimate(q).to_bits(),
            uncached.estimate(q).to_bits(),
            "post-delete q={q}"
        );
    }
    // A fresh ANALYZE also flushes; the caches never serve pre-ANALYZE
    // values afterwards.
    cached.analyze();
    uncached.analyze();
    for q in &queries {
        assert_eq!(
            cached.estimate(q).to_bits(),
            uncached.estimate(q).to_bits(),
            "post-analyze q={q}"
        );
    }
    assert!(counter(&cached, "engine.cache.invalidations") >= 3);
}

/// The counter `name` in the table's metrics snapshot (0 if absent).
fn counter(table: &SpatialTable, name: &str) -> u64 {
    table
        .metrics()
        .counters
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn batch_estimation_matches_single_query_loop_with_scratch_reuse() {
    let data = charminar_with(3_000, 41);
    let queries = queries_for(&data);
    let table = assert_batch_matches_single_queries(&data, &queries);
    // A workload-generated pool over a second dataset.
    let pool = charminar_with(4_000, 31);
    let workload = QueryWorkload::generate(&pool, 0.15, 300, 37);
    assert_batch_matches_single_queries(&pool, workload.queries());
    // Upfront validation preserves strict-batch semantics at any position.
    let poisoned = Rect {
        lo: Point::new(f64::NAN, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    for position in [0usize, queries.len() / 2, queries.len()] {
        let mut bad = queries.clone();
        bad.insert(position, poisoned);
        assert!(
            matches!(
                table.try_estimate_batch(&bad),
                Err(EstimateError::NonFiniteQuery)
            ),
            "position={position}"
        );
        // Graceful batch still answers, mapping the bad query to 0.0.
        assert_eq!(table.estimate_batch(&bad)[position], 0.0);
    }
}

/// Table batches against a request-order loop of single estimates on a
/// table with the cache off: bit-identical with the cache off, cold, and
/// pre-warmed by the same single queries, and equal to a lock-free
/// reader's batch on the same generation. Returns the cached table.
fn assert_batch_matches_single_queries(data: &Dataset, queries: &[Rect]) -> SpatialTable {
    let table = |query_cache: bool| {
        let mut t = SpatialTable::new(TableOptions {
            query_cache,
            ..TableOptions::default()
        });
        t.insert_many(data.rects().iter().copied());
        t.analyze();
        t
    };
    let bits = |values: Vec<f64>| -> Vec<u64> { values.into_iter().map(f64::to_bits).collect() };
    let uncached = table(false);
    let serial = bits(queries.iter().map(|q| uncached.estimate(q)).collect());
    assert_eq!(bits(uncached.estimate_batch(queries)), serial, "cache off");
    let cold = table(true);
    assert_eq!(bits(cold.estimate_batch(queries)), serial, "cold cache");
    let strict = cold.try_estimate_batch(queries).expect("all finite");
    assert_eq!(bits(strict), serial, "strict, cache warmed by the batch");
    let warm = table(true);
    let singles = bits(queries.iter().map(|q| warm.estimate(q)).collect());
    assert_eq!(singles, serial, "single queries, cache on");
    assert_eq!(
        bits(warm.estimate_batch(queries)),
        serial,
        "pre-warmed cache"
    );
    let mut reader = warm.reader();
    assert_eq!(bits(reader.estimate_batch(queries)), serial, "reader batch");
    assert_eq!(reader.generation(), warm.generation());
    warm
}

/// Exhaustive cross product on larger inputs — enabled by the `exhaustive`
/// feature (CI runs it; plain `cargo test` keeps the fast base matrix).
#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_serving_matrix() {
    let mut scratch = KernelScratch::new();
    for (name, data) in datasets(4) {
        let queries = queries_for(&data);
        for buckets in [8usize, 64, 200] {
            for hist in techniques(&data, buckets) {
                for rule in RULES {
                    let hist = hist.clone().with_extension_rule(rule);
                    let context = format!("dataset={name} buckets={buckets} rule={rule:?}");
                    assert_serving_differential(&context, &hist, &queries, &mut scratch);
                }
            }
        }
    }
}

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_dataset() -> impl Strategy<Value = Dataset> {
        (
            proptest::collection::vec(
                (0.0..2_000.0f64, 0.0..2_000.0f64, 0.0..80.0f64, 0.0..80.0f64),
                30..300,
            ),
            0.0..1_800.0f64,
            0.0..1_800.0f64,
        )
            .prop_map(|(raw, cx, cy)| {
                let mut rects: Vec<Rect> = raw
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                    .collect();
                for i in 0..50 {
                    let dx = (i % 10) as f64 * 4.0;
                    let dy = (i / 10) as f64 * 4.0;
                    rects.push(Rect::new(cx + dx, cy + dy, cx + dx + 6.0, cy + dy + 6.0));
                }
                Dataset::new(rects)
            })
    }

    fn arb_query() -> impl Strategy<Value = Rect> {
        (
            -500.0..2_500.0f64,
            -500.0..2_500.0f64,
            0.0..1_500.0f64,
            0.0..1_500.0f64,
        )
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random datasets, budgets, and query batches, the indexed
        /// estimate equals the linear scan bit-for-bit under every rule.
        #[test]
        fn prop_indexed_equals_linear(
            data in arb_dataset(),
            buckets in 1usize..40,
            queries in proptest::collection::vec(arb_query(), 1..40),
            rule_pick in 0usize..3,
        ) {
            let rule = RULES[rule_pick];
            let mut scratch = KernelScratch::new();
            for hist in [
                MinSkewBuilder::new(buckets).regions(256).build(&data),
                build_equi_count(&data, buckets),
            ] {
                let hist = hist.with_extension_rule(rule);
                for q in &queries {
                    let reference = hist.estimate_count_reference(q);
                    let indexed = hist.estimate_count_indexed(q, &mut scratch);
                    prop_assert_eq!(
                        reference.to_bits(), indexed.to_bits(),
                        "technique={} rule={:?} q={}", hist.name(), rule, q
                    );
                }
            }
        }
    }
}
