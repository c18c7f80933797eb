//! Differential suite for the query-tracing layer: **observation must be
//! bit-invisible**.
//!
//! Two contracts are pinned here:
//!
//! 1. **EXPLAIN recomputes, never re-derives.** The explained estimate
//!    (`SpatialHistogram::estimate_count_explained`) and its ordered
//!    per-bucket term sum must be bitwise equal to the indexed serving
//!    path (`estimate_count_indexed`) for every technique, every extension
//!    rule, and every adversarial query shape — and the engine-level trace
//!    (`SpatialTable::try_explain` / `SpatialReader::try_explain`) must
//!    report exactly the bits the corresponding estimate entry point
//!    returns, through the clamping layer. The indexed path
//!    itself is pinned to the linear oracle (`estimate_count_reference`)
//!    on every query along the way.
//!
//! 2. **The flight recorder and trace ids never touch an estimate.** A
//!    table serving with the recorder fully armed (sample every query,
//!    slow threshold at 1 ns, wrong threshold at the smallest residual)
//!    must produce bit-identical estimates to an identically-built table
//!    with the recorder off, and to one with metrics off entirely.
//!
//! The base matrix below always runs (tier 1). The `exhaustive` feature turns
//! on the exhaustive cross product on larger inputs. CI also re-runs the
//! suite under `RUST_TEST_THREADS=1`.

use minskew::prelude::*;
use minskew_datagen::{charminar_with, uniform_rects, SyntheticSpec};

const RULES: [ExtensionRule; 3] = [
    ExtensionRule::Minkowski,
    ExtensionRule::PaperLiteral,
    ExtensionRule::None,
];

fn datasets(scale: usize) -> Vec<(&'static str, Dataset)> {
    vec![
        ("charminar", charminar_with(1_600 * scale, 71)),
        (
            "synthetic",
            SyntheticSpec::default().with_n(1_000 * scale).generate(73),
        ),
        (
            "uniform",
            uniform_rects(
                900 * scale,
                Rect::new(0.0, 0.0, 10_000.0, 10_000.0),
                40.0,
                40.0,
                79,
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

/// Edge-adversarial query mix derived from the histogram's own bucket
/// bounds (exact MBRs, corner points, zero-overlap edge touches,
/// degenerate lines), plus global covers, far-disjoint shapes, and a size
/// sweep — the same hard cases the kernel differential uses.
fn adversarial_queries(hist: &SpatialHistogram, mbr: Rect) -> Vec<Rect> {
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for b in hist.buckets().iter().take(6) {
        let m = b.mbr;
        out.push(m);
        out.push(Rect::from_point(m.lo));
        out.push(Rect::from_point(m.hi));
        out.push(Rect::new(m.lo.x - w, m.lo.y, m.lo.x, m.hi.y));
        out.push(Rect::new(m.hi.x, m.lo.y, m.hi.x + w, m.hi.y));
        let cx = (m.lo.x + m.hi.x) / 2.0;
        let cy = (m.lo.y + m.hi.y) / 2.0;
        out.push(Rect::new(cx, m.lo.y - h, cx, m.hi.y + h));
        out.push(Rect::new(m.lo.x - w, cy, m.hi.x + w, cy));
    }
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

/// Asserts the indexed serving path agrees with the linear oracle and the
/// explained scan agrees with both bit for bit, and that the trace is internally consistent: the ordered term sum
/// reproduces the headline, terms are unique and sorted by bucket id, and
/// the pruning counters account for every bucket.
fn assert_trace_differential(
    context: &str,
    hist: &SpatialHistogram,
    queries: &[Rect],
    scratch: &mut KernelScratch,
) {
    for q in queries {
        let indexed = hist.estimate_count_indexed(q, scratch);
        let reference = hist.estimate_count_reference(q);
        assert_eq!(
            reference.to_bits(),
            indexed.to_bits(),
            "indexed path diverged from the linear oracle: {context} \
             technique={} q={q} (reference={reference}, indexed={indexed})",
            hist.name(),
        );
        let trace = hist.estimate_count_explained(q, scratch);
        assert_eq!(
            indexed.to_bits(),
            trace.estimate().to_bits(),
            "explained estimate diverged from the indexed path: {context} \
             technique={} q={q} (indexed={indexed}, explained={})",
            hist.name(),
            trace.estimate(),
        );
        let sum = trace.kernel.term_sum();
        assert_eq!(
            indexed.to_bits(),
            sum.to_bits(),
            "ordered term sum does not reproduce the estimate: {context} \
             technique={} q={q} (estimate={indexed}, term_sum={sum})",
            hist.name(),
        );
        assert_eq!(trace.rule, hist.extension_rule(), "{context}");
        assert_eq!(trace.num_buckets, hist.num_buckets(), "{context}");
        let terms = &trace.kernel.terms;
        for pair in terms.windows(2) {
            assert!(
                pair[0].bucket < pair[1].bucket,
                "terms must be unique and sorted by bucket id: {context} q={q}"
            );
        }
        for t in terms {
            assert!(
                (t.bucket as usize) < hist.num_buckets(),
                "term names a bucket outside the histogram: {context} q={q}"
            );
            assert!(
                (0.0..=1.0).contains(&t.fraction),
                "clipped fraction out of range: {context} q={q} fraction={}",
                t.fraction
            );
        }
        let prune = &trace.kernel.prune;
        assert!(
            terms.len() <= prune.buckets_classified,
            "more terms than classified buckets: {context} q={q}"
        );
        assert!(
            prune.buckets_classified <= hist.num_buckets(),
            "classified more buckets than exist: {context} q={q}"
        );
        assert!(
            prune.quads_pruned <= prune.quads_tested,
            "pruned more quads than tested: {context} q={q}"
        );
        assert!(prune.blocks_pruned <= prune.blocks, "{context} q={q}");
    }
}

#[test]
fn explained_estimate_is_bitwise_identical_to_indexed() {
    let mut scratch = KernelScratch::new();
    for (name, data) in datasets(1) {
        let mbr = data.stats().mbr;
        for hist in techniques(&data, 24) {
            for rule in RULES {
                let hist = hist.clone().with_extension_rule(rule);
                let queries = adversarial_queries(&hist, mbr);
                let context = format!("dataset={name} rule={rule:?}");
                assert_trace_differential(&context, &hist, &queries, &mut scratch);
            }
        }
    }
}

#[cfg(feature = "exhaustive")]
#[test]
fn explained_matrix_exhaustive() {
    let mut scratch = KernelScratch::new();
    for (name, data) in datasets(3) {
        let mbr = data.stats().mbr;
        for buckets in [8, 48, 96] {
            for hist in techniques(&data, buckets) {
                for rule in RULES {
                    let hist = hist.clone().with_extension_rule(rule);
                    let queries = adversarial_queries(&hist, mbr);
                    let context = format!("dataset={name} buckets={buckets} rule={rule:?}");
                    assert_trace_differential(&context, &hist, &queries, &mut scratch);
                }
            }
        }
    }
}

/// Standard serving workload for the engine-level tests.
fn engine_queries(mbr: Rect) -> Vec<Rect> {
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for i in 0..40 {
        let f = f64::from(i) / 40.0;
        let x = mbr.lo.x + f * w * 0.9;
        let y = mbr.lo.y + (1.0 - f) * h * 0.9;
        out.push(Rect::new(x, y, x + 0.08 * w, y + 0.08 * h));
    }
    out.push(mbr);
    out.push(mbr.expanded(w, h)); // clamps against live rows
    out.push(Rect::new(
        mbr.hi.x + w,
        mbr.hi.y + h,
        mbr.hi.x + 2.0 * w,
        mbr.hi.y + 2.0 * h,
    ));
    out
}

fn filled_table(data: &Dataset, options: TableOptions) -> SpatialTable {
    let mut table = SpatialTable::new(options);
    for r in data.rects() {
        table.insert(*r);
    }
    table.analyze();
    table
}

/// The table's `engine.query.calls` counter.
fn query_calls(table: &SpatialTable) -> u64 {
    table.metrics().counter("engine.query.calls").unwrap_or(0)
}

#[test]
fn engine_explain_reports_exactly_the_served_bits() {
    let data = charminar_with(2_000, 83);
    let mbr = data.stats().mbr;
    let table = filled_table(&data, TableOptions::default());
    let mut reader = table.reader();
    for q in engine_queries(mbr) {
        // EXPLAIN counts no call: the query counter stands still across
        // every trace.
        let calls = query_calls(&table);
        let trace = table.try_explain(&q).expect("finite query");
        assert_eq!(query_calls(&table), calls, "table EXPLAIN: q={q}");
        let served = table.estimate(&q);
        assert_eq!(
            served.to_bits(),
            trace.estimate.to_bits(),
            "table trace diverged: q={q}"
        );
        assert_eq!(trace.path.label(), "indexed");
        if trace.clamped {
            assert_ne!(trace.raw.to_bits(), trace.estimate.to_bits());
        } else {
            assert_eq!(trace.raw.to_bits(), trace.estimate.to_bits());
        }
        // Reader side: EXPLAIN, then the estimate, then EXPLAIN again.
        let rtrace = reader.try_explain(&q).expect("finite query");
        assert_eq!(
            served.to_bits(),
            rtrace.estimate.to_bits(),
            "reader trace diverged: q={q}"
        );
        let rserved = reader.try_estimate(&q).expect("finite query");
        assert_eq!(served.to_bits(), rserved.to_bits());
        let rtrace = reader.try_explain(&q).expect("finite query");
        assert_eq!(
            served.to_bits(),
            rtrace.estimate.to_bits(),
            "a repeated trace must trace the same bits"
        );
        // Analyzed tables expose the kernel detail; the fallback-only path
        // (no stats) is the one case without it.
        assert!(rtrace.detail.is_some(), "analyzed tables carry detail");
    }
    // Non-finite queries are rejected exactly like the estimate path.
    let bad = Rect {
        lo: Point::new(f64::NAN, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    assert!(table.try_explain(&bad).is_err());
    assert!(table.reader().try_explain(&bad).is_err());
}

#[test]
fn never_analyzed_tables_trace_the_fallback_path() {
    let mut table = SpatialTable::new(TableOptions {
        auto_analyze_threshold: None,
        ..TableOptions::default()
    });
    for i in 0..20 {
        let x = f64::from(i) * 10.0;
        table.insert(Rect::new(x, x, x + 5.0, x + 5.0));
    }
    let q = Rect::new(0.0, 0.0, 50.0, 50.0);
    let trace = table.try_explain(&q).expect("finite query");
    assert_eq!(trace.path.label(), "fallback");
    assert!(trace.detail.is_none(), "no buckets to blame");
    assert_eq!(trace.estimate.to_bits(), table.estimate(&q).to_bits());
}

/// Flight-recorder configurations that must all serve identical bits.
fn recorder_configs() -> Vec<(&'static str, TableOptions)> {
    let armed = TableOptions {
        metrics_sampling: 1,
        flight_sample: 1,
        flight_slow_ns: 1,
        flight_residual: f64::MIN_POSITIVE,
        ..TableOptions::default()
    };
    let disarmed = TableOptions {
        flight_capacity: 0,
        ..TableOptions::default()
    };
    let dark = TableOptions {
        metrics: false,
        ..TableOptions::default()
    };
    vec![
        ("armed", armed),
        ("disarmed", disarmed),
        ("metrics-off", dark),
    ]
}

#[test]
fn flight_recorder_is_bit_invisible_to_estimates() {
    let data = charminar_with(1_800, 89);
    let mbr = data.stats().mbr;
    let queries = engine_queries(mbr);
    let mut baseline: Option<Vec<u64>> = None;
    for (name, options) in recorder_configs() {
        let table = filled_table(&data, options);
        let mut served: Vec<u64> = Vec::new();
        for q in &queries {
            served.push(table.estimate(q).to_bits());
        }
        // The batch and reader paths ride along under the same recorder.
        let mut reader = table.reader();
        for q in &queries {
            served.push(reader.estimate(q).to_bits());
        }
        for v in table.estimate_batch(&queries) {
            served.push(v.to_bits());
        }
        match &baseline {
            None => baseline = Some(served),
            Some(expected) => assert_eq!(
                expected, &served,
                "recorder config {name:?} changed served estimate bits"
            ),
        }
    }
}

#[test]
fn armed_recorder_captures_slow_sampled_and_wrong_queries() {
    let data = charminar_with(1_800, 97);
    let mbr = data.stats().mbr;
    let (_, options) = recorder_configs().remove(0);
    let table = filled_table(&data, options);
    for q in engine_queries(mbr) {
        let _ = table.estimate(&q);
    }
    let recorder = table.flight_recorder();
    assert!(recorder.total() > 0, "armed recorder saw nothing");
    let records = recorder.recent(usize::MAX);
    assert!(
        records.iter().all(|(_, r)| r.exact.is_none()),
        "serving-path records carry no exact count before any audit"
    );
    // The accuracy audit replays the reservoir against exact counts; with
    // the smallest positive residual threshold, any estimation error at
    // all produces `wrong` records carrying the exact count.
    let before = recorder.total();
    let report = table.audit_accuracy().expect("sampled queries resident");
    if report.avg_relative_error > 0.0 {
        let records = recorder.recent(usize::MAX);
        assert!(
            records.iter().any(|(_, r)| r.exact.is_some()),
            "audit with error {} recorded no wrong-query records \
             (total {} -> {})",
            report.avg_relative_error,
            before,
            recorder.total(),
        );
    }
    // Drained JSONL is schema-pinned.
    let jsonl = recorder.to_jsonl(8);
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"schema\":\"minskew-obs/flight-v1\","),
            "unpinned flight line: {line}"
        );
    }
    // A disarmed twin records nothing through the same workload.
    let (_, disarmed) = recorder_configs().remove(1);
    let table = filled_table(&data, disarmed);
    for q in engine_queries(mbr) {
        let _ = table.estimate(&q);
    }
    assert_eq!(table.flight_recorder().total(), 0);
}

#[cfg(feature = "exhaustive")]
#[test]
fn recorder_matrix_exhaustive_bit_invisibility() {
    // Every technique × recorder config serves one bit pattern per query
    // stream.
    for technique in [
        StatsTechnique::MinSkew,
        StatsTechnique::EquiArea,
        StatsTechnique::EquiCount,
        StatsTechnique::Uniform,
    ] {
        let data = charminar_with(2_400, 101);
        let queries = engine_queries(data.stats().mbr);
        let mut baseline: Option<Vec<u64>> = None;
        for (name, mut options) in recorder_configs() {
            options.analyze.technique = technique;
            let table = filled_table(&data, options);
            let served: Vec<u64> = queries
                .iter()
                .map(|q| table.estimate(q).to_bits())
                .collect();
            match &baseline {
                None => baseline = Some(served),
                Some(expected) => assert_eq!(
                    expected, &served,
                    "recorder config {name:?} changed bits: technique={technique:?}"
                ),
            }
        }
    }
}
