//! Differential test suite for the online refine loop: self-tuning must
//! stay inside the serving contracts that every other layer is pinned by.
//!
//! Four invariants:
//!
//! 1. **Clamping** — a refined histogram's bucket counts stay finite and
//!    inside `[0, N]` and its estimates stay finite and non-negative no
//!    matter how adversarial the feedback was (the core contract), and a
//!    maintained table *serves* estimates inside `[0, N]` (the engine's
//!    clamp — the same guarantee patched histograms get).
//! 2. **Partition coverage** — splits tile their parent and merges union
//!    exactly-adjacent boxes, so interior points of the root extent are
//!    owned by exactly one bucket before *and* after any number of steps.
//! 3. **Snapshot round-trip** — a refined histogram survives both codecs
//!    (catalog bytes and checksummed snapshot container) byte-identically,
//!    like any built histogram.
//! 4. **Off is inert** — a table with `MaintenanceMode::Off` that runs
//!    `maintain()` serves estimates and encodes statistics byte-identical
//!    to one that never calls it: turning the feature off reproduces
//!    yesterday's bytes.
//!
//! The base tests below always run (tier 1); the `exhaustive` feature turns on
//! the exhaustive dataset × budget × feedback-volume matrix. CI runs the
//! gated matrix with `RUST_TEST_THREADS=1 --features exhaustive`.

use minskew::prelude::*;
use minskew_datagen::charminar_with;
#[cfg(feature = "exhaustive")]
use minskew_datagen::uniform_rects;

/// Deterministic query mix over (and beyond) the dataset extent.
fn queries_for(data: &Dataset) -> Vec<Rect> {
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for i in 0..8 {
        let f = i as f64 / 8.0;
        for size in [0.02, 0.1, 0.35] {
            let x = mbr.lo.x + f * w * 0.9;
            let y = mbr.lo.y + (1.0 - f) * h * 0.9;
            out.push(Rect::new(x, y, x + size * w, y + size * h));
        }
    }
    for i in 0..5 {
        let f = i as f64 / 5.0;
        out.push(Rect::from_point(Point::new(
            mbr.lo.x + f * w,
            mbr.lo.y + f * h,
        )));
    }
    out.push(mbr);
    out.push(mbr.expanded(w, h));
    out
}

/// Feedback triples replaying `queries` against exact counts, with the
/// histogram's own estimates in the `estimate` slot — exactly what the
/// engine's monitor hands the refiner.
fn feedback(data: &Dataset, hist: &SpatialHistogram, queries: &[Rect]) -> Vec<RefineObservation> {
    queries
        .iter()
        .map(|q| RefineObservation {
            query: *q,
            actual: data.count_intersecting(q) as f64,
            estimate: hist.estimate_count(q),
        })
        .collect()
}

/// Runs `steps` refine passes, replaying fresh feedback between passes.
fn refine_steps(
    data: &Dataset,
    hist: &SpatialHistogram,
    queries: &[Rect],
    steps: usize,
    opts: &RefineOptions,
) -> SpatialHistogram {
    let mut current = hist.clone();
    for _ in 0..steps {
        let obs = feedback(data, &current, queries);
        let (next, _) = current.refine(&obs, opts);
        current = next;
    }
    current
}

/// Every interior probe point of the root extent must be owned by exactly
/// one bucket: splits tile, merges union, nothing overlaps or gaps.
fn assert_partition(hist: &SpatialHistogram, root: &Rect) {
    let (w, h) = (root.width(), root.height());
    for iy in 0..23 {
        for ix in 0..23 {
            // Irrational-ish offsets keep probes off bucket boundaries.
            let p = Point::new(
                root.lo.x + w * (ix as f64 + 0.503) / 23.0,
                root.lo.y + h * (iy as f64 + 0.497) / 23.0,
            );
            let owners = hist
                .buckets()
                .iter()
                .filter(|b| b.mbr.contains_point(p))
                .count();
            assert_eq!(
                owners, 1,
                "point ({}, {}) owned by {owners} buckets",
                p.x, p.y
            );
        }
    }
}

/// Core-level sanity: every bucket count is finite and within `[0, N]`
/// (the refit's clamp), and every estimate is finite and non-negative
/// (the [`SpatialEstimator`] contract). The `[0, N]` bound on *served*
/// estimates is the engine's clamp, pinned separately below.
fn assert_sane(hist: &SpatialHistogram, queries: &[Rect]) {
    let n = hist.input_len() as f64;
    for b in hist.buckets() {
        assert!(
            b.count.is_finite() && (0.0..=n).contains(&b.count),
            "bucket count {} escapes [0, {n}]",
            b.count
        );
    }
    for q in queries {
        let est = hist.estimate_count(q);
        assert!(
            est.is_finite() && est >= 0.0,
            "estimate {est} for {q:?} is not finite and non-negative"
        );
    }
}

fn assert_round_trips(hist: &SpatialHistogram) {
    let bytes = hist.to_bytes();
    let decoded = SpatialHistogram::from_bytes(&bytes).expect("catalog bytes decode");
    assert_eq!(bytes, decoded.to_bytes(), "catalog codec round-trip");
    let snap = hist.to_snapshot_bytes();
    let info = verify_snapshot(&snap).expect("snapshot container verifies");
    assert_eq!(info.buckets, hist.num_buckets());
    let (restored, _) = SpatialHistogram::from_snapshot_bytes(&snap).expect("snapshot decodes");
    assert_eq!(
        snap,
        restored.to_snapshot_bytes(),
        "snapshot byte round-trip"
    );
    assert_eq!(hist.buckets(), restored.buckets());
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

// ---------------------------------------------------------------------
// Base tier: always runs.
// ---------------------------------------------------------------------

#[test]
fn refined_estimates_stay_sane_even_under_adversarial_feedback() {
    let data = charminar_with(4_000, 11);
    let hist = MinSkewBuilder::new(40).regions(1_600).build(&data);
    let queries = queries_for(&data);
    // Honest feedback first.
    let refined = refine_steps(&data, &hist, &queries, 4, &RefineOptions::default());
    assert_sane(&refined, &queries);
    // Adversarial feedback: absurd actuals must not push any bucket count
    // outside [0, N] (the refit clamps counts into the data range).
    let mut lies = feedback(&data, &hist, &queries);
    for (i, o) in lies.iter_mut().enumerate() {
        o.actual = if i % 2 == 0 { 1e12 } else { -7.0 };
    }
    let (warped, _) = hist.refine(&lies, &RefineOptions::default());
    assert_sane(&warped, &queries);
}

#[test]
fn maintained_tables_serve_estimates_clamped_to_the_row_count() {
    let data = charminar_with(4_000, 11);
    let mut t = SpatialTable::new(TableOptions {
        maintenance: MaintenanceMode::OnlineRefine,
        auto_analyze_threshold: None,
        accuracy_drift_threshold: 0.1,
        ..TableOptions::default()
    });
    let mut ids = Vec::new();
    for r in data.rects() {
        ids.push(t.insert(*r));
    }
    t.analyze();
    let mbr = data.stats().mbr;
    let queries = queries_for(&data);
    // Drift hard (a dense hotspot plus deletions), serve to fill the
    // reservoir, then run several refine passes; every served estimate —
    // refined statistics included — must stay inside [0, rows].
    for round in 0..4 {
        for i in 0..400 {
            let off = (i % 37) as f64 * 0.3;
            t.insert(Rect::new(
                mbr.lo.x + off,
                mbr.lo.y + off,
                mbr.lo.x + off + 1.0,
                mbr.lo.y + off + 1.0,
            ));
        }
        for id in ids.drain(..200.min(ids.len())) {
            t.delete(id);
        }
        for q in &queries {
            let _ = t.estimate(q);
        }
        let _ = t.maintain();
        let n = t.len() as f64;
        for q in &queries {
            let est = t.estimate(q);
            assert!(
                est.is_finite() && (0.0..=n).contains(&est),
                "round {round}: served estimate {est} for {q:?} escapes [0, {n}]"
            );
        }
    }
}

#[test]
fn refine_preserves_the_bucket_partition() {
    let data = charminar_with(4_000, 13);
    let hist = MinSkewBuilder::new(32).regions(1_600).build(&data);
    let root = data.stats().mbr;
    assert_partition(&hist, &root);
    let queries = queries_for(&data);
    let refined = refine_steps(&data, &hist, &queries, 6, &RefineOptions::default());
    assert_partition(&refined, &root);
}

#[test]
fn refined_histogram_round_trips_through_both_codecs() {
    let data = charminar_with(4_000, 17);
    let hist = MinSkewBuilder::new(40).regions(1_600).build(&data);
    let queries = queries_for(&data);
    let refined = refine_steps(&data, &hist, &queries, 3, &RefineOptions::default());
    assert_round_trips(&refined);
}

#[test]
fn refine_is_deterministic() {
    let data = charminar_with(4_000, 19);
    let hist = MinSkewBuilder::new(40).regions(1_600).build(&data);
    let queries = queries_for(&data);
    let a = refine_steps(&data, &hist, &queries, 5, &RefineOptions::default());
    let b = refine_steps(&data, &hist, &queries, 5, &RefineOptions::default());
    assert_eq!(a.to_bytes(), b.to_bytes(), "refine must be deterministic");
}

#[test]
fn maintenance_off_serves_bit_identical_to_never_maintaining() {
    let data = charminar_with(4_000, 23);
    let queries = queries_for(&data);
    let build = |maintained: bool| -> (Vec<u64>, Vec<u8>) {
        let mut t = SpatialTable::new(TableOptions {
            maintenance: MaintenanceMode::Off,
            auto_analyze_threshold: None,
            ..TableOptions::default()
        });
        for r in data.rects() {
            t.insert(*r);
        }
        t.analyze();
        let mut served = Vec::new();
        for q in &queries {
            served.push(bits(t.estimate(q)));
        }
        if maintained {
            // Off must audit and then change nothing.
            let report = t.maintain();
            assert_eq!(report.action, MaintenanceAction::None, "{report}");
        }
        for q in &queries {
            served.push(bits(t.estimate(q)));
        }
        let stats = t
            .current_snapshot()
            .stats()
            .expect("analyzed table has stats")
            .to_bytes();
        (served, stats)
    };
    let (est_plain, stats_plain) = build(false);
    let (est_maintained, stats_maintained) = build(true);
    assert_eq!(est_plain, est_maintained, "Off must not change estimates");
    assert_eq!(
        stats_plain, stats_maintained,
        "Off must not change the statistics bytes"
    );
}

// ---------------------------------------------------------------------
// Exhaustive matrix: dataset × bucket budget × feedback volume.
// Gated behind `--features exhaustive`; CI runs it single-threaded.
// ---------------------------------------------------------------------

#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_refine_matrix_holds_all_invariants() {
    let datasets: Vec<(&str, Dataset)> = vec![
        ("charminar", charminar_with(6_000, 29)),
        (
            "uniform",
            uniform_rects(6_000, Rect::new(0.0, 0.0, 1_000.0, 1_000.0), 4.0, 4.0, 31),
        ),
    ];
    for (name, data) in &datasets {
        let root = data.stats().mbr;
        let queries = queries_for(data);
        for buckets in [8usize, 24, 64] {
            let hist = MinSkewBuilder::new(buckets).regions(1_024).build(data);
            for volume in [1usize, 7, queries.len()] {
                for steps in [1usize, 4] {
                    let subset: Vec<Rect> = queries.iter().copied().take(volume).collect();
                    let refined =
                        refine_steps(data, &hist, &subset, steps, &RefineOptions::default());
                    let label = format!("{name} beta={buckets} obs={volume} steps={steps}");
                    assert!(
                        refined.num_buckets() <= hist.num_buckets() + 1,
                        "{label}: budget must hold (got {} from {})",
                        refined.num_buckets(),
                        hist.num_buckets()
                    );
                    assert_sane(&refined, &queries);
                    assert_partition(&refined, &root);
                    assert_round_trips(&refined);
                    // Determinism across a re-run of the same schedule.
                    let again =
                        refine_steps(data, &hist, &subset, steps, &RefineOptions::default());
                    assert_eq!(refined.to_bytes(), again.to_bytes(), "{label}: determinism");
                }
            }
        }
    }
}
