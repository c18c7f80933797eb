//! Differential test suite for the serving path: the indexed estimate
//! (`estimate_count_indexed`) and the engine's table, batch and reader
//! estimates must be **bit-identical** to the linear reference scan, for
//! every technique, every extension rule, and every query shape —
//! including after maintenance churn patches the kernel plane.
//!
//! The scalar AoS fold (`estimate_count_reference`, a left-to-right sum of
//! `Bucket::estimate` over all buckets) is the reference semantics; the
//! serving layer — the SoA clip-and-accumulate kernel behind
//! `estimate_count` and its block-pruned scan — is an optimisation stack
//! that must be observationally invisible. The kernel
//! gets its own deeper matrix in `kernel_differential.rs`.
//!
//! The base matrix below always runs (tier 1). The `exhaustive` feature turns
//! on the exhaustive cross product on larger inputs; the `proptest` feature
//! adds randomized differential properties. CI also runs the suite under
//! `RUST_TEST_THREADS=1` so test-scheduler interference cannot mask bugs.

use minskew::engine::RowId;
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

/// The linear oracle for `table`'s current publication: the reference
/// fold over its statistics, clamped to `[0, N]` like every served value.
fn oracle(table: &SpatialTable, query: &Rect) -> f64 {
    let snapshot = table.current_snapshot();
    let raw = snapshot
        .stats()
        .expect("analyzed")
        .estimate_count_reference(query);
    if raw.is_finite() {
        raw.clamp(0.0, snapshot.live() as f64)
    } else {
        0.0
    }
}

#[test]
fn table_estimates_match_the_linear_oracle_through_mutation() {
    let data = charminar_with(3_000, 31);
    let mut table = SpatialTable::new(TableOptions::default());
    for r in data.rects() {
        table.insert(*r);
    }
    table.analyze();
    let queries = queries_for(&data);
    let check = |table: &SpatialTable, stage: &str| {
        for q in &queries {
            assert_eq!(
                table.estimate(q).to_bits(),
                oracle(table, q).to_bits(),
                "{stage} q={q}"
            );
        }
    };
    // Three passes: repeated queries must not drift.
    for pass in 0..3 {
        check(&table, &format!("pass={pass}"));
    }
    // Every mutation publishes: estimates follow each change at once.
    let id = table.insert(Rect::new(100.0, 100.0, 400.0, 400.0));
    check(&table, "post-insert");
    table.delete(id);
    check(&table, "post-delete");
    table.analyze();
    check(&table, "post-analyze");
}

/// A seeded one-row write: mostly inserts of small squares, a fifth of
/// them outside the data's extent (no bucket absorbs those), and a delete
/// of a random earlier insert every third step.
struct WriteStream {
    state: u64,
    live: Vec<RowId>,
}

impl WriteStream {
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }

    /// Applies one write to `table` and the same `note_*` call to
    /// `reference`.
    fn write(&mut self, table: &mut SpatialTable, reference: &mut SpatialHistogram) {
        if self.next().is_multiple_of(3) && !self.live.is_empty() {
            let at = self.next() as usize % self.live.len();
            let id = self.live.swap_remove(at);
            let rect = table.get(id).expect("live");
            assert!(table.delete(id));
            reference.note_delete(&rect);
        } else {
            let outside = self.next().is_multiple_of(5);
            let (x, y) = ((self.next() % 1_000) as f64, (self.next() % 1_000) as f64);
            let (x, y) = if outside { (x - 5_000.0, y) } else { (x, y) };
            let side = 1.0 + (self.next() % 40) as f64;
            let rect = Rect::new(x, y, x + side, y + side);
            self.live.push(table.insert(rect));
            reference.note_insert(&rect);
        }
    }
}

/// The current publication's statistics equal `reference` bit for bit:
/// every bucket, the staleness, and the estimates over `queries` (the
/// kernel's, against the reference fold of `reference`).
fn assert_publication_equals(
    table: &SpatialTable,
    reference: &SpatialHistogram,
    queries: &[Rect],
    ctx: &str,
) {
    let snapshot = table.current_snapshot();
    let stats = snapshot.stats().expect("analyzed");
    let bits = |b: &Bucket| {
        [
            b.mbr.lo.x,
            b.mbr.lo.y,
            b.mbr.hi.x,
            b.mbr.hi.y,
            b.count,
            b.avg_width,
            b.avg_height,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(
        stats.num_buckets(),
        reference.num_buckets(),
        "{ctx}: buckets"
    );
    for (i, (got, want)) in stats.buckets().iter().zip(reference.buckets()).enumerate() {
        assert_eq!(bits(got), bits(want), "{ctx}: bucket {i}");
    }
    assert_eq!(stats.input_len(), reference.input_len(), "{ctx}: input_len");
    assert_eq!(
        stats.staleness().to_bits(),
        reference.staleness().to_bits(),
        "{ctx}: staleness"
    );
    let mut scratch = KernelScratch::new();
    for q in queries {
        assert_eq!(
            stats.estimate_count_indexed(q, &mut scratch).to_bits(),
            reference.estimate_count_reference(q).to_bits(),
            "{ctx}: q={q}"
        );
    }
}

#[test]
fn one_row_write_replay_equals_a_single_copy_reference() {
    // Published statistics after every write must equal one histogram
    // that saw the same `note_insert`/`note_delete` calls, whichever way
    // the table produced them: replayed onto the retired histogram, or
    // copied because a held snapshot still shares it. A multi-row insert,
    // an ANALYZE and a refining MAINTAIN each install or patch in a way the
    // reference follows by taking a copy of what was published. A held
    // snapshot keeps serving exactly what it served when it was taken.
    let data = charminar_with(20_000, 53);
    let mut table = SpatialTable::new(TableOptions {
        analyze: AnalyzeOptions {
            buckets: 1_000,
            regions: 40_000,
            ..AnalyzeOptions::default()
        },
        auto_analyze_threshold: None,
        accuracy_reservoir: 512,
        // Any audited error counts as drift, so `maintain` always repairs.
        accuracy_drift_threshold: 0.0,
        maintenance: MaintenanceMode::OnlineRefine,
        ..TableOptions::default()
    });
    table.insert_many(data.rects().iter().copied());
    table.analyze();
    let buckets = table.stats().expect("analyzed").num_buckets();
    assert!(buckets > 900, "{buckets} buckets");
    let queries: Vec<Rect> = queries_for(&data).into_iter().step_by(3).collect();
    let mut scratch = KernelScratch::new();
    let mut served = |snapshot: &TableSnapshot| -> Vec<u64> {
        queries
            .iter()
            .map(|q| snapshot.estimate(q, &mut scratch).to_bits())
            .collect()
    };
    let mut reference = table.stats().expect("analyzed").clone();
    let mut stream = WriteStream {
        state: 0x5eed,
        live: Vec::new(),
    };
    let mut held: Option<(std::sync::Arc<TableSnapshot>, Vec<u64>)> = None;
    for step in 0..240 {
        match step {
            60 => {
                let batch: Vec<Rect> = (0..50)
                    .map(|i| {
                        let v = (i * 17 % 900) as f64;
                        Rect::new(v, 900.0 - v, v + 3.0, 903.0 - v)
                    })
                    .collect();
                table.insert_many(batch.iter().copied());
                for r in &batch {
                    reference.note_insert(r);
                }
            }
            120 => {
                table.analyze();
                reference = table.stats().expect("analyzed").clone();
            }
            180 => {
                for q in &queries {
                    table.estimate(q);
                }
                let report = table.maintain();
                assert!(
                    matches!(report.action, MaintenanceAction::Refined(_)),
                    "{report}"
                );
                reference = table.stats().expect("refined").clone();
            }
            _ => stream.write(&mut table, &mut reference),
        }
        assert_publication_equals(&table, &reference, &queries, &format!("step {step}"));
        if let Some((snapshot, before)) = &held {
            assert_eq!(served(snapshot), *before, "step {step}: a held snapshot");
        }
        // Hold every twentieth publication across the next ten writes:
        // while it is held, every other write must copy.
        if step % 20 == 0 {
            let snapshot = table.reader().snapshot();
            let before = served(&snapshot);
            held = Some((snapshot, before));
        } else if step % 20 == 10 {
            held = None;
        }
    }
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
    let mut reader = table.reader();
    let mut out = Vec::new();
    for position in [0usize, queries.len() / 2, queries.len()] {
        let mut bad = queries.clone();
        bad.insert(position, poisoned);
        assert_eq!(
            reader.try_estimate_batch_into(&bad, &mut out),
            Err(BatchQueryError {
                index: position,
                error: EstimateError::NonFiniteQuery,
            }),
        );
        // Graceful batch still answers, mapping the bad query to 0.0.
        assert_eq!(table.estimate_batch(&bad)[position], 0.0);
    }
}

/// Table batches, a request-order loop of single estimates and a
/// lock-free reader's graceful and strict batches on the same generation,
/// all against the linear oracle. Returns the table.
fn assert_batch_matches_single_queries(data: &Dataset, queries: &[Rect]) -> SpatialTable {
    let mut table = SpatialTable::new(TableOptions::default());
    table.insert_many(data.rects().iter().copied());
    table.analyze();
    let bits = |values: Vec<f64>| -> Vec<u64> { values.into_iter().map(f64::to_bits).collect() };
    let serial = bits(queries.iter().map(|q| oracle(&table, q)).collect());
    assert_eq!(bits(table.estimate_batch(queries)), serial, "batch");
    let singles = bits(queries.iter().map(|q| table.estimate(q)).collect());
    assert_eq!(singles, serial, "single queries");
    let mut reader = table.reader();
    assert_eq!(bits(reader.estimate_batch(queries)), serial, "reader batch");
    let mut strict = Vec::new();
    reader
        .try_estimate_batch_into(queries, &mut strict)
        .expect("all finite");
    assert_eq!(bits(strict), serial, "strict batch");
    assert_eq!(reader.generation(), table.generation());
    table
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
