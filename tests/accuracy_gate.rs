//! Accuracy regression gate: each technique's average relative error on
//! small Figure 8 (road network, error vs query size) and Figure 9
//! (Charminar, error vs bucket budget) configurations, at fixed seeds, is
//! pinned within [`TOLERANCE`].
//!
//! The bit-identity suites compare one build path against another, so they
//! cannot see a deliberate change to the build itself (say, a different
//! fixed-point scale for the centre sums that bucket averages are folded
//! from). This gate can: such a change
//! may move these numbers only in digits the error metric cannot see.
//! Every input is deterministic, so a failure here is a real change in
//! accuracy. If the change is intended, re-pin the table from the values
//! the failure message prints, and say so in the commit.

use minskew::prelude::*;
use minskew_bench::{all_techniques, run_point};

/// Largest accepted relative drift of an error from its pinned value.
const TOLERANCE: f64 = 0.01;

/// Checks one experiment point as the Figure 8/9 benches run it: `pinned[i]`
/// is the average relative error of technique `i` of `all_techniques` at a
/// `buckets` budget, on 500 queries of `qsize` drawn with `seed`.
fn check_point(data: &Dataset, buckets: usize, qsize: f64, seed: u64, pinned: [f64; 7]) {
    let estimators = all_techniques(data, buckets);
    let reports = run_point(
        data,
        &GroundTruth::index(data),
        &estimators,
        qsize,
        500,
        seed,
    );
    let errors: Vec<(&str, f64)> = estimators
        .iter()
        .zip(&reports)
        .map(|(e, r)| (e.name(), r.avg_relative_error))
        .collect();
    for (&(name, got), want) in errors.iter().zip(pinned) {
        assert!(
            (got - want).abs() <= TOLERANCE * want,
            "{name}: avg rel error {got}, pinned {want} (buckets {buckets}, qsize {qsize}); \
             all errors at this point: {errors:?}",
        );
    }
}

#[test]
fn figure_8_road_errors_are_pinned() {
    let road = minskew::datagen::RoadNetworkSpec {
        segments: 4_000,
        ..Default::default()
    }
    .generate(0xBE11_1AB5);
    check_point(
        &road,
        100,
        0.05,
        801,
        [
            0.089833, 0.118431, 0.219054, 0.198019, 0.139582, 0.863396, 0.918345,
        ],
    );
    check_point(
        &road,
        100,
        0.25,
        805,
        [
            0.027516, 0.041872, 0.046447, 0.102923, 0.050926, 0.691248, 0.790197,
        ],
    );
}

#[test]
fn figure_9_charminar_errors_are_pinned() {
    let charminar = minskew::datagen::charminar_with(4_000, 0xC4A2);
    check_point(
        &charminar,
        50,
        0.05,
        900,
        [
            0.063050, 0.161669, 0.346132, 0.251187, 0.293955, 0.744448, 0.881494,
        ],
    );
    check_point(
        &charminar,
        200,
        0.05,
        903,
        [
            0.037876, 0.111189, 0.124699, 0.133061, 0.146508, 0.726853, 0.877137,
        ],
    );
}
