//! Differential test suite: every parallel path must be **bit-identical**
//! to its serial reference implementation, at every thread count.
//!
//! The serial paths (`threads == 1`, the default everywhere) are the
//! reference semantics; the parallel paths are an optimisation that must be
//! observationally invisible. This suite pins that contract for the three
//! parallelized layers — density-grid construction, Min-Skew histogram
//! construction, and ground-truth batch counting — plus the table's batch
//! estimates over statistics analyzed at each thread count, by comparing
//! *codec bytes* (for histograms) and exact values (for grids, counts and
//! estimates) across thread counts {1, 2, 3, 8}, split strategies,
//! extension rules, and refinement settings.
//!
//! The base matrix below always runs (tier 1). The `parallel` feature turns
//! on the exhaustive cross product on larger inputs; the `proptest` feature
//! adds randomized differential properties. CI runs the suite both under
//! the default test scheduler and under `RUST_TEST_THREADS=1`, so pool
//! contention from concurrently running tests cannot mask ordering bugs.

use minskew::prelude::*;
use minskew_datagen::{charminar_with, uniform_rects, RoadNetworkSpec, SyntheticSpec};

/// Thread counts every differential assertion sweeps. 1 is the reference,
/// 2 and 3 exercise uneven chunk boundaries, 8 oversubscribes the host.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn datasets(scale: usize) -> Vec<(&'static str, Dataset)> {
    vec![
        ("charminar", charminar_with(3_000 * scale, 7)),
        (
            "synthetic",
            SyntheticSpec::default().with_n(2_000 * scale).generate(11),
        ),
        (
            "road",
            RoadNetworkSpec {
                segments: 2_000 * scale,
                ..RoadNetworkSpec::default()
            }
            .generate(13),
        ),
        (
            "uniform",
            uniform_rects(
                1_500 * scale,
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

/// Asserts serial/parallel equality of the full Min-Skew construction for
/// one configuration: histogram equality AND codec-byte equality (the wire
/// format is the strongest observable — any drift in bucket order, bounds,
/// or counts shows up as a byte diff).
fn assert_build_differential(
    name: &str,
    data: &Dataset,
    buckets: usize,
    regions: usize,
    refinements: usize,
    strategy: SplitStrategy,
    rule: ExtensionRule,
) {
    let base = MinSkewBuilder::new(buckets)
        .regions(regions)
        .progressive_refinements(refinements)
        .split_strategy(strategy)
        .extension_rule(rule);
    let serial = base.clone().threads(1).build(data);
    let serial_bytes = serial.to_bytes();
    for threads in THREADS {
        let parallel = base.clone().threads(threads).build(data);
        assert_eq!(
            parallel.to_bytes(),
            serial_bytes,
            "codec bytes diverged: dataset={name} threads={threads} \
             strategy={strategy:?} rule={rule:?} refinements={refinements}"
        );
    }
    // And the bytes round-trip to the same histogram.
    let decoded = SpatialHistogram::from_bytes(&serial_bytes).expect("self-produced bytes decode");
    assert_eq!(decoded, serial, "dataset={name}: codec round-trip drift");
}

#[test]
fn histogram_construction_is_thread_count_invariant() {
    for (name, data) in datasets(1) {
        for strategy in [SplitStrategy::Exact2d, SplitStrategy::Marginal] {
            assert_build_differential(
                name,
                &data,
                32,
                1_024,
                0,
                strategy,
                ExtensionRule::default(),
            );
        }
    }
}

#[test]
fn progressive_refinement_is_thread_count_invariant() {
    for (name, data) in datasets(1) {
        assert_build_differential(
            name,
            &data,
            24,
            4_096,
            2,
            SplitStrategy::Exact2d,
            ExtensionRule::default(),
        );
    }
}

#[test]
fn density_grid_is_thread_count_invariant() {
    for (name, data) in datasets(4) {
        let bounds = data.stats().mbr;
        for (nx, ny) in [(1, 1), (7, 3), (64, 64)] {
            let serial = DensityGrid::build(data.rects().iter(), bounds, nx, ny);
            for threads in THREADS {
                let par = DensityGrid::build_with_threads(data.rects(), bounds, nx, ny, threads);
                assert_eq!(
                    par.densities(),
                    serial.densities(),
                    "dataset={name} grid={nx}x{ny} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn ground_truth_batch_counting_is_thread_count_invariant() {
    let data = charminar_with(5_000, 23);
    let truth = GroundTruth::index(&data);
    let workload = QueryWorkload::generate(&data, 0.1, 400, 29);
    let serial = truth.counts_with_threads(workload.queries(), 1);
    // The serial path must itself agree with the O(N) scan.
    for (q, &c) in workload.queries().iter().zip(&serial).take(50) {
        assert_eq!(c, data.count_intersecting(q));
    }
    for threads in THREADS {
        assert_eq!(
            truth.counts_with_threads(workload.queries(), threads),
            serial,
            "threads = {threads}"
        );
    }
}

/// The table's batch is served serially; the thread count reaches it only
/// through `ANALYZE`. Statistics analyzed at every thread count must serve
/// batch estimates bit-identical to the serial reference's per-query loop,
/// and changing the count after `ANALYZE` must change no served bit.
#[test]
fn engine_batch_estimation_is_thread_count_invariant() {
    let data = charminar_with(4_000, 31);
    let workload = QueryWorkload::generate(&data, 0.15, 300, 37);
    let analyzed_at = |threads: usize| {
        let mut table = SpatialTable::new(TableOptions::default());
        table.set_threads(threads);
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
        table
    };
    let serial = analyzed_at(1);
    let serial_bits: Vec<u64> = workload
        .queries()
        .iter()
        .map(|q| serial.estimate(q).to_bits())
        .collect();
    for threads in THREADS {
        let mut table = analyzed_at(threads);
        let batch_bits: Vec<u64> = table
            .estimate_batch(workload.queries())
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(batch_bits, serial_bits, "analyzed at threads = {threads}");
        for later in THREADS {
            table.set_threads(later);
            let again: Vec<u64> = table
                .estimate_batch(workload.queries())
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                again, serial_bits,
                "analyzed at threads = {threads}, served at threads = {later}"
            );
        }
    }
}

/// Streaming (serial-only) and in-memory (parallel) construction must meet
/// in the middle: the CSV path has no slice to shard, so a threaded builder
/// over it silently runs serial sweeps — and must still equal the sharded
/// in-memory build byte for byte.
#[test]
fn streaming_fallback_matches_parallel_in_memory_build() {
    let data = charminar_with(2_000, 41);
    let path = std::env::temp_dir().join(format!(
        "minskew-par-differential-{}.csv",
        std::process::id()
    ));
    minskew::data::write_rects_csv(&data, &path).expect("write dataset");
    let csv = CsvRectSource::open(&path).expect("reopen dataset");
    let builder = MinSkewBuilder::new(20).regions(900).threads(8);
    let from_memory = builder.build(&data).to_bytes();
    let from_stream = builder.build_from_source(&csv).to_bytes();
    assert_eq!(from_memory, from_stream);
    std::fs::remove_file(path).ok();
}

/// Exhaustive cross product on larger inputs — enabled by the `parallel`
/// feature (CI runs it; plain `cargo test` keeps the fast base matrix).
#[cfg(feature = "parallel")]
#[test]
fn exhaustive_differential_matrix() {
    for (name, data) in datasets(4) {
        for strategy in [SplitStrategy::Exact2d, SplitStrategy::Marginal] {
            for rule in [
                ExtensionRule::Minkowski,
                ExtensionRule::PaperLiteral,
                ExtensionRule::None,
            ] {
                for refinements in [0usize, 1, 3] {
                    assert_build_differential(name, &data, 48, 16_384, refinements, strategy, rule);
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
                // A dense cluster guarantees skew, so the greedy loop
                // actually splits (and tie-breaks) instead of stopping.
                for i in 0..50 {
                    let dx = (i % 10) as f64 * 4.0;
                    let dy = (i / 10) as f64 * 4.0;
                    rects.push(Rect::new(cx + dx, cy + dy, cx + dx + 6.0, cy + dy + 6.0));
                }
                Dataset::new(rects)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random datasets and budgets, `build(threads=k)` equals
        /// `build(threads=1)` byte-for-byte after a codec round-trip,
        /// for k in {2, 3, 8}.
        #[test]
        fn prop_parallel_build_equals_serial_after_roundtrip(
            data in arb_dataset(),
            buckets in 1usize..40,
            regions in 64usize..2_048,
            marginal in any::<bool>(),
        ) {
            let strategy = if marginal { SplitStrategy::Marginal } else { SplitStrategy::Exact2d };
            let base = MinSkewBuilder::new(buckets).regions(regions).split_strategy(strategy);
            let serial = base.clone().threads(1).build(&data);
            let serial_bytes = serial.to_bytes();
            for threads in [2usize, 3, 8] {
                let parallel = base.clone().threads(threads).build(&data);
                let bytes = parallel.to_bytes();
                prop_assert_eq!(&bytes, &serial_bytes, "threads = {}", threads);
                let back = SpatialHistogram::from_bytes(&bytes).expect("round-trip");
                prop_assert_eq!(back, serial.clone());
            }
        }

        /// Random batches: threaded ground-truth counting equals the serial
        /// per-query loop exactly.
        #[test]
        fn prop_threaded_counts_equal_serial(
            data in arb_dataset(),
            qseed in 0u64..1_000,
        ) {
            let truth = GroundTruth::index(&data);
            let workload = QueryWorkload::generate(&data, 0.1, 64, qseed);
            let serial: Vec<usize> = workload.queries().iter().map(|q| truth.count(q)).collect();
            for threads in [2usize, 3, 8] {
                prop_assert_eq!(
                    truth.counts_with_threads(workload.queries(), threads),
                    serial.clone(),
                    "threads = {}", threads
                );
            }
        }
    }
}
