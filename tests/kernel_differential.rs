//! Differential suite for the SoA clip-and-accumulate kernel: the one
//! served scan (`estimate_count_indexed`, which `estimate_count` also
//! runs, backed by [`BucketPlane::accumulate_pruned`]) must be
//! **bit-identical** to the scalar AoS fold (`estimate_count_reference`, a
//! left-to-right sum of `Bucket::estimate` over the bucket slice) for every
//! technique, every extension rule, and every query shape — with the query
//! mix deliberately biased toward the kernel's hard cases: bucket edges hit
//! exactly, point queries on corners, degenerate zero-extent queries, and
//! queries whose expanded form exactly touches a bucket boundary. The
//! dispatched scan (AVX2 on x86_64 CPUs that have it) must also equal its
//! portable body ([`BucketPlane::accumulate_pruned_scalar`]), bit for bit,
//! so on an AVX2 host every build tests the explicit-SIMD code against its
//! reference; on other hosts both sides are the portable body.
//!
//! The base matrix below always runs (tier 1). The `exhaustive` feature turns
//! on the exhaustive cross product on larger inputs; the `proptest` feature
//! adds randomized differential properties. CI also runs the suite under
//! `RUST_TEST_THREADS=1` so test-scheduler interference cannot mask bugs.

use minskew::estimators::TermBuf;
use minskew::prelude::*;
use minskew_datagen::{charminar_with, uniform_rects, RoadNetworkSpec, SyntheticSpec};

const RULES: [ExtensionRule; 3] = [
    ExtensionRule::Minkowski,
    ExtensionRule::PaperLiteral,
    ExtensionRule::None,
];

fn datasets(scale: usize) -> Vec<(&'static str, Dataset)> {
    vec![
        ("charminar", charminar_with(2_000 * scale, 47)),
        (
            "synthetic",
            SyntheticSpec::default().with_n(1_200 * scale).generate(53),
        ),
        (
            "road",
            RoadNetworkSpec {
                segments: 1_200 * scale,
                ..RoadNetworkSpec::default()
            }
            .generate(59),
        ),
        (
            "uniform",
            uniform_rects(
                1_000 * scale,
                Rect::new(0.0, 0.0, 10_000.0, 10_000.0),
                40.0,
                40.0,
                61,
            ),
        ),
        (
            "point-pile",
            Dataset::new(vec![Rect::new(5.0, 5.0, 5.0, 5.0); 48]),
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

/// Edge-adversarial query mix derived from the histogram's **own** bucket
/// bounds, so the clip arithmetic hits exact-equality branches: queries
/// that are a bucket's MBR verbatim, that touch one edge with zero overlap
/// width, point queries on corners, and degenerate line queries through
/// bucket interiors.
fn adversarial_queries(hist: &SpatialHistogram, mbr: Rect) -> Vec<Rect> {
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for b in hist.buckets().iter().take(6) {
        let m = b.mbr;
        out.push(m); // exact bucket bounds
        out.push(Rect::from_point(m.lo)); // corner points
        out.push(Rect::from_point(m.hi));
        // Touching one edge exactly: zero-width / zero-height overlap.
        out.push(Rect::new(m.lo.x - w, m.lo.y, m.lo.x, m.hi.y));
        out.push(Rect::new(m.hi.x, m.lo.y, m.hi.x + w, m.hi.y));
        out.push(Rect::new(m.lo.x, m.hi.y, m.hi.x, m.hi.y + h));
        // Degenerate lines through the bucket interior.
        let cx = (m.lo.x + m.hi.x) / 2.0;
        let cy = (m.lo.y + m.hi.y) / 2.0;
        out.push(Rect::new(cx, m.lo.y - h, cx, m.hi.y + h));
        out.push(Rect::new(m.lo.x - w, cy, m.hi.x + w, cy));
    }
    // Plus the global shapes: everything, far-disjoint, a sweep of sizes.
    out.push(mbr);
    out.push(mbr.expanded(w, h));
    out.push(Rect::new(
        mbr.hi.x + 3.0 * w,
        mbr.hi.y + 3.0 * h,
        mbr.hi.x + 4.0 * w,
        mbr.hi.y + 4.0 * h,
    ));
    for i in 0..8 {
        let f = i as f64 / 8.0;
        let x = mbr.lo.x + f * w * 0.85;
        let y = mbr.lo.y + (1.0 - f) * h * 0.85;
        out.push(Rect::new(x, y, x + 0.12 * w, y + 0.12 * h));
    }
    out
}

/// The served scan's portable body, the bit reference of its SIMD bodies.
fn scalar_scan(hist: &SpatialHistogram, q: &Rect, terms: &mut TermBuf) -> f64 {
    hist.bucket_plane()
        .accumulate_pruned_scalar(&QueryPrep::new(q), terms)
}

/// Asserts the served scan agrees bit for bit on every query with the AoS
/// reference fold and with its own portable scalar body.
fn assert_kernel_differential(
    context: &str,
    hist: &SpatialHistogram,
    queries: &[Rect],
    scratch: &mut KernelScratch,
) {
    let mut terms = TermBuf::new();
    for q in queries {
        let reference = hist.estimate_count_reference(q);
        let indexed = hist.estimate_count_indexed(q, scratch);
        assert_eq!(
            reference.to_bits(),
            indexed.to_bits(),
            "served scan diverged from the AoS reference: {context} technique={} \
             q={q} (reference={reference}, served={indexed})",
            hist.name(),
        );
        let scalar = scalar_scan(hist, q, &mut terms);
        assert_eq!(
            indexed.to_bits(),
            scalar.to_bits(),
            "dispatched scan diverged from its scalar body ({}): {context} \
             technique={} q={q} (dispatched={indexed}, scalar={scalar})",
            simd_level(),
            hist.name(),
        );
    }
}

#[test]
fn kernel_matches_reference_for_every_technique_and_rule() {
    let mut scratch = KernelScratch::new();
    for (name, data) in datasets(1) {
        let mbr = data.stats().mbr;
        for hist in techniques(&data, 32) {
            for rule in RULES {
                let hist = hist.clone().with_extension_rule(rule);
                let queries = adversarial_queries(&hist, mbr);
                let context = format!("dataset={name} rule={rule:?}");
                assert_kernel_differential(&context, &hist, &queries, &mut scratch);
            }
        }
    }
}

#[test]
fn kernel_matches_reference_through_churn_and_rebuild() {
    // note_insert / note_delete mutate one bucket in place and patch the
    // plane the pre-churn pass built; the patched plane must agree, and so
    // must a fresh build afterwards (the re-ANALYZE path).
    let data = charminar_with(2_500, 67);
    let mbr = data.stats().mbr;
    let mut scratch = KernelScratch::new();
    for mut hist in techniques(&data, 28) {
        let queries = adversarial_queries(&hist, mbr);
        assert_kernel_differential("pre-churn", &hist, &queries, &mut scratch);
        for i in 0..40 {
            let f = i as f64 / 40.0;
            let x = mbr.lo.x + f * mbr.width();
            let y = mbr.lo.y + (1.0 - f) * mbr.height();
            hist.note_insert(&Rect::new(x, y, x + 25.0, y + 25.0));
        }
        assert_kernel_differential("post-insert", &hist, &queries, &mut scratch);
        for r in data.rects().iter().take(50) {
            hist.note_delete(r);
        }
        assert_kernel_differential("post-delete", &hist, &queries, &mut scratch);
    }
    // Re-ANALYZE: rebuild every technique from scratch over mutated data.
    let mut rects = data.rects().to_vec();
    rects.truncate(rects.len() - 200);
    rects.extend((0..200).map(|i| {
        let f = i as f64 / 200.0;
        let x = mbr.lo.x + f * mbr.width();
        Rect::new(x, mbr.lo.y, x + 10.0, mbr.lo.y + 10.0)
    }));
    let churned = Dataset::new(rects);
    for hist in techniques(&churned, 28) {
        let queries = adversarial_queries(&hist, mbr);
        assert_kernel_differential("post-reanalyze", &hist, &queries, &mut scratch);
    }
}

#[test]
fn batch_serving_stays_bit_identical_through_churn_and_reanalyze() {
    // The Morton-scheduled batch path must answer in request order with the
    // exact bits of a per-query loop — before churn, while stale, and after
    // an explicit re-ANALYZE republishes new statistics.
    let data = charminar_with(2_500, 71);
    let mut table = SpatialTable::new(TableOptions::default());
    for r in data.rects() {
        table.insert(*r);
    }
    table.analyze();
    let hist = techniques(&data, 24).remove(0);
    let mut queries = adversarial_queries(&hist, data.stats().mbr);
    // Deliberately scramble so request order is far from Morton order.
    queries.reverse();
    // A lock-free reader's allocation-free batch path, one result buffer
    // reused across every phase.
    let mut reader = table.reader();
    let mut out = Vec::new();
    let mut check = |table: &mut SpatialTable, phase: &str| {
        let serial: Vec<u64> = queries
            .iter()
            .map(|q| table.estimate(q).to_bits())
            .collect();
        let batch: Vec<u64> = table
            .estimate_batch(&queries)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(batch, serial, "phase={phase}");
        reader
            .try_estimate_batch_into(&queries, &mut out)
            .expect("finite batch");
        let into: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(into, serial, "phase={phase} (reader, into)");
    };
    check(&mut table, "initial");
    for i in 0..60 {
        table.insert(Rect::new(
            i as f64,
            i as f64,
            i as f64 + 5.0,
            i as f64 + 5.0,
        ));
    }
    check(&mut table, "post-churn");
    table.analyze();
    check(&mut table, "post-reanalyze");
}

#[test]
fn morton_schedule_is_a_permutation_on_adversarial_batches() {
    let data = charminar_with(1_500, 73);
    let hist = techniques(&data, 16).remove(0);
    let queries = adversarial_queries(&hist, data.stats().mbr);
    let order = morton_schedule(&queries);
    assert_eq!(order.len(), queries.len());
    let mut seen = vec![false; queries.len()];
    for &i in &order {
        assert!(!seen[i as usize], "index {i} scheduled twice");
        seen[i as usize] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

/// Exhaustive cross product on larger inputs — enabled by the `exhaustive`
/// feature (CI runs it; plain `cargo test` keeps the fast base matrix).
#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_kernel_matrix() {
    let mut scratch = KernelScratch::new();
    for (name, data) in datasets(3) {
        let mbr = data.stats().mbr;
        for buckets in [8usize, 50, 200] {
            for hist in techniques(&data, buckets) {
                for rule in RULES {
                    let hist = hist.clone().with_extension_rule(rule);
                    let queries = adversarial_queries(&hist, mbr);
                    let context = format!("dataset={name} buckets={buckets} rule={rule:?}");
                    assert_kernel_differential(&context, &hist, &queries, &mut scratch);
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
                30..250,
            ),
            0.0..1_800.0f64,
        )
            .prop_map(|(raw, pile)| {
                let mut rects: Vec<Rect> = raw
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                    .collect();
                // A degenerate pile exercises zero-area buckets.
                for i in 0..30 {
                    let d = i as f64;
                    rects.push(Rect::from_point(Point::new(pile + d, pile)));
                }
                Dataset::new(rects)
            })
    }

    /// Queries include degenerate (zero-width, zero-height) shapes.
    fn arb_query() -> impl Strategy<Value = Rect> {
        (
            -500.0..2_500.0f64,
            -500.0..2_500.0f64,
            0.0..1_500.0f64,
            0.0..1_500.0f64,
            0usize..4,
        )
            .prop_map(|(x, y, w, h, shape)| match shape {
                0 => Rect::from_point(Point::new(x, y)),
                1 => Rect::new(x, y, x + w, y),
                2 => Rect::new(x, y, x, y + h),
                _ => Rect::new(x, y, x + w, y + h),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random datasets, budgets, and query batches, the served scan
        /// equals the AoS reference fold and its scalar body bit-for-bit
        /// under every rule.
        #[test]
        fn prop_kernel_equals_reference(
            data in arb_dataset(),
            buckets in 1usize..40,
            queries in proptest::collection::vec(arb_query(), 1..40),
            rule_pick in 0usize..3,
        ) {
            let rule = RULES[rule_pick];
            let mut scratch = KernelScratch::new();
            let mut terms = TermBuf::new();
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
                    let scalar = scalar_scan(&hist, q, &mut terms);
                    prop_assert_eq!(
                        indexed.to_bits(), scalar.to_bits(),
                        "scalar body technique={} rule={:?} q={}", hist.name(), rule, q
                    );
                }
            }
        }
    }
}
