//! Cross-crate integration tests: the full estimation pipeline from data
//! generation through summarisation, persistence, and evaluation.

use minskew::prelude::*;
use minskew_workload::evaluate_all;

/// The paper's headline claim at small scale: on skewed data, Min-Skew has
/// the lowest average relative error of all techniques across query sizes.
#[test]
fn minskew_wins_on_charminar() {
    let data = minskew::datagen::charminar_with(20_000, 1);
    let truth = GroundTruth::index(&data);
    let buckets = 50;

    let minskew = MinSkewBuilder::new(buckets).regions(2_500).build(&data);
    let equi_count = build_equi_count(&data, buckets);
    let equi_area = build_equi_area(&data, buckets);
    let uniform = build_uniform(&data);
    let sample = SamplingEstimator::build(&data, buckets, 2);
    let estimators: Vec<&dyn SpatialEstimator> =
        vec![&minskew, &equi_count, &equi_area, &uniform, &sample];

    for qsize in [0.05, 0.15, 0.25] {
        let w = QueryWorkload::generate(&data, qsize, 1_000, 3);
        let reports = evaluate_all(&estimators, &w, &truth);
        let ms = reports[0].avg_relative_error;
        for other in &reports[1..] {
            assert!(
                ms <= other.avg_relative_error * 1.05,
                "QSize {qsize}: Min-Skew {ms:.3} must not lose to {} {:.3}",
                other.name,
                other.avg_relative_error
            );
        }
    }
}

/// Errors must decrease (weakly) as the query size grows — the paper's
/// Figure 8 trend — for the bucket-based techniques.
#[test]
fn errors_shrink_with_query_size() {
    let data = minskew::datagen::charminar_with(10_000, 4);
    let truth = GroundTruth::index(&data);
    let hist = MinSkewBuilder::new(50).regions(2_500).build(&data);
    let mut errs = Vec::new();
    for (i, qsize) in [0.02, 0.10, 0.25].into_iter().enumerate() {
        let w = QueryWorkload::generate(&data, qsize, 1_500, 10 + i as u64);
        let counts = truth.counts(w.queries());
        errs.push(evaluate(&hist, &w, &counts).avg_relative_error);
    }
    // The broad Figure 8 trend: the smallest queries are the hardest. The
    // middle point may wobble (errors are already small), so compare the
    // endpoints.
    assert!(
        errs[2] < errs[0],
        "QSize 25% error {} should undercut QSize 2% error {}",
        errs[2],
        errs[0]
    );
}

/// Round-trip through the catalog codec preserves estimates exactly, for
/// every bucket-based technique.
#[test]
fn persistence_roundtrip_for_all_bucket_techniques() {
    let data = minskew::datagen::charminar_with(5_000, 5);
    let hists = vec![
        MinSkewBuilder::new(30).regions(900).build(&data),
        build_equi_area(&data, 30),
        build_equi_count(&data, 30),
        build_uniform(&data),
    ];
    let queries: Vec<Rect> = QueryWorkload::generate(&data, 0.1, 50, 6)
        .queries()
        .to_vec();
    for h in hists {
        let back = SpatialHistogram::from_bytes(&h.to_bytes()).expect("decode");
        for q in &queries {
            assert_eq!(back.estimate_count(q), h.estimate_count(q), "{}", h.name());
        }
    }
}

/// Point queries (degenerate rectangles) flow through the whole pipeline.
#[test]
fn point_query_pipeline() {
    let data = minskew::datagen::charminar_with(8_000, 7);
    let truth = GroundTruth::index(&data);
    let hist = MinSkewBuilder::new(50).regions(2_500).build(&data);
    let w = QueryWorkload::points(&data, 500, 8);
    let counts = truth.counts(w.queries());
    // Every point query hits at least the rect whose centre seeded it.
    assert!(counts.iter().all(|&c| c >= 1));
    let rep = evaluate(&hist, &w, &counts);
    assert!(rep.avg_relative_error.is_finite());
    // Point estimates should at least be in a sane band on average.
    assert!(
        rep.avg_relative_error < 3.0,
        "err = {}",
        rep.avg_relative_error
    );
}

/// The uniformity baseline really is bad on skewed data (the paper's
/// motivation): its error stays high where Min-Skew's is low.
#[test]
fn uniform_is_a_poor_baseline_on_skewed_data() {
    let data = minskew::datagen::charminar_with(20_000, 9);
    let truth = GroundTruth::index(&data);
    let uni = build_uniform(&data);
    let ms = MinSkewBuilder::new(100).regions(2_500).build(&data);
    let w = QueryWorkload::generate(&data, 0.05, 1_000, 10);
    let counts = truth.counts(w.queries());
    let e_uni = evaluate(&uni, &w, &counts).avg_relative_error;
    let e_ms = evaluate(&ms, &w, &counts).avg_relative_error;
    assert!(e_uni > 0.4, "Uniform should err badly, got {e_uni}");
    assert!(
        e_ms < e_uni / 2.0,
        "Min-Skew ({e_ms}) should at least halve Uniform's error ({e_uni})"
    );
}

/// The R*-tree ground truth agrees with a brute-force scan end to end.
#[test]
fn ground_truth_agrees_with_scan() {
    let data = minskew::datagen::charminar_with(3_000, 11);
    let truth = GroundTruth::index(&data);
    let w = QueryWorkload::generate(&data, 0.1, 200, 12);
    for q in w.queries() {
        assert_eq!(truth.count(q), data.count_intersecting(q));
    }
}

/// Estimator trait objects: the whole roster can be driven polymorphically.
/// A build that streams its input from CSV, one sweep per grid (the final
/// one also summing each cell's centred rects), equals the in-memory build
/// byte for byte.
#[test]
fn streaming_build_matches_in_memory_build() {
    let data = minskew::datagen::charminar_with(2_000, 41);
    let path = std::env::temp_dir().join(format!(
        "minskew-streaming-build-{}.csv",
        std::process::id()
    ));
    minskew::data::write_rects_csv(&data, &path).expect("write dataset");
    let csv = CsvRectSource::open(&path).expect("reopen dataset");
    let builder = MinSkewBuilder::new(20).regions(900);
    let from_memory = builder.build(&data).to_bytes();
    let from_stream = builder.build_from_source(&csv).to_bytes();
    assert_eq!(from_memory, from_stream);
    std::fs::remove_file(path).ok();
}

#[test]
fn trait_object_roster() {
    let data = minskew::datagen::charminar_with(2_000, 13);
    let estimators: Vec<Box<dyn SpatialEstimator>> = vec![
        Box::new(MinSkewBuilder::new(20).regions(400).build(&data)),
        Box::new(build_equi_area(&data, 20)),
        Box::new(build_equi_count(&data, 20)),
        Box::new(build_uniform(&data)),
        Box::new(SamplingEstimator::build(&data, 20, 14)),
        Box::new(FractalEstimator::build(&data)),
    ];
    let q = Rect::new(0.0, 0.0, 3_000.0, 3_000.0);
    for e in &estimators {
        let est = e.estimate_count(&q);
        assert!(est.is_finite() && est >= 0.0, "{} broke", e.name());
        assert!(e.size_bytes() > 0);
        assert_eq!(e.input_len(), 2_000);
    }
}

/// The robustness tentpole end to end: a table survives a corrupt persisted
/// summary, a grid too coarse for its budget, and fault-injected source
/// data, serving degraded-but-bounded estimates throughout, and recovers
/// fully once healthy statistics are rebuilt.
#[test]
fn fault_and_recovery_cycle_keeps_estimates_bounded() {
    use minskew::data::fault::{FaultInjector, FaultKind, FaultSource};
    use minskew::data::RectSource;

    let data = minskew::datagen::charminar_with(5_000, 17);
    let mut table = SpatialTable::new(TableOptions::default());
    for r in data.rects() {
        table.insert(*r);
    }
    let n = table.len() as f64;
    let queries = [
        Rect::new(0.0, 0.0, 2_000.0, 2_000.0),
        Rect::new(-1e9, -1e9, 1e9, 1e9),
        Rect::new(5_000.0, 5_000.0, 5_001.0, 5_001.0),
    ];
    let assert_bounded = |table: &SpatialTable, stage: &str| {
        for q in &queries {
            let est = table.estimate(q);
            assert!(
                est.is_finite() && (0.0..=n).contains(&est),
                "{stage}: estimate {est} escapes [0, {n}] for {q:?}"
            );
        }
    };

    // Healthy baseline.
    table.analyze();
    assert_eq!(table.stats_diagnostics().fallback, StatsFallback::None);
    assert_bounded(&table, "healthy");
    let healthy = table.stats().expect("analyzed").to_bytes();

    // Stage 1: every fault kind applied to the persisted summary. The codec
    // must reject (or the decoded summary still estimate within bounds) —
    // never panic — and the table must keep answering.
    for kind in FaultKind::ALL {
        for seed in 0..10u64 {
            let corrupt = FaultInjector::new(seed).corrupt(&healthy, kind);
            let _ = table.load_stats(&corrupt);
            assert_bounded(&table, &format!("after {kind:?}/{seed} summary"));
        }
    }

    // Stage 2: a corrupt summary triggers rebuild-from-data, and the table
    // reports it.
    let mut corrupt = healthy.clone();
    corrupt[12] ^= 0x40;
    let diag = table.load_stats(&corrupt);
    if diag.degraded {
        assert!(
            diag.fallback == StatsFallback::RebuiltFromData
                || diag.fallback == StatsFallback::Uniform,
            "{diag:?}"
        );
    }
    assert_bounded(&table, "after corrupt summary");

    // Stage 3: fault-injected sources still yield buildable statistics via
    // the lenient path or clean errors via the strict path — never a panic.
    for kind in [FaultKind::Truncate, FaultKind::EarlyEof] {
        let faulty = FaultSource::new(&data, kind, 23);
        let hist = MinSkewBuilder::new(20)
            .regions(400)
            .build_from_source(&faulty);
        let est = hist.estimate_count(&queries[0]);
        assert!(est.is_finite() && est >= 0.0, "{kind:?}: {est}");
        assert_eq!(faulty.stats().n, data.len(), "stats pass through");
    }

    // Stage 4: recovery — reloading the healthy summary clears degradation.
    let diag = table.load_stats(&healthy);
    assert_eq!(diag.fallback, StatsFallback::None);
    assert!(!diag.degraded);
    assert_bounded(&table, "recovered");
}

/// The strict construction surface agrees across the stack: precondition
/// violations surface as typed errors from `core`, `engine`, and the facade
/// prelude, while the lenient wrappers keep their legacy behaviour.
#[test]
fn try_api_surface_is_consistent() {
    let empty = Dataset::new(vec![]);
    assert!(matches!(
        MinSkewBuilder::try_new(10).and_then(|b| b.try_build(&empty)),
        Err(BuildError::EmptyDataset)
    ));
    assert!(matches!(
        try_build_equi_area(&empty, 5),
        Err(BuildError::EmptyDataset)
    ));
    assert!(matches!(
        try_build_equi_count(&empty, 5),
        Err(BuildError::EmptyDataset)
    ));
    assert!(matches!(
        try_build_grid(&empty, 5),
        Err(BuildError::EmptyDataset)
    ));
    assert!(matches!(
        try_build_rtree_partitioning(&empty, 5, Default::default()),
        Err(BuildError::EmptyDataset)
    ));
    // Uniform is the degradation floor: empty is fine.
    assert!(try_build_uniform(&empty).is_ok());

    let data = minskew::datagen::charminar_with(500, 5);
    assert!(matches!(
        MinSkewBuilder::try_new(0),
        Err(BuildError::ZeroBucketBudget)
    ));
    assert!(matches!(
        MinSkewBuilder::try_new(100)
            .and_then(|b| b.try_regions(4))
            .and_then(|b| b.try_build(&data)),
        Err(BuildError::GridTooCoarse {
            regions: 4,
            buckets: 100
        })
    ));
    // The lenient wrapper still degrades silently (legacy behaviour).
    assert!(
        MinSkewBuilder::new(100)
            .regions(4)
            .build(&data)
            .num_buckets()
            <= 4
    );
    // Engine options are validated the same way.
    assert!(SpatialTable::try_new(TableOptions::default()).is_ok());
}
