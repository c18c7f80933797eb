//! Differential test suite for the observability layer: instrumentation
//! must be **bit-invisible**. A table serving with metrics enabled (at any
//! sampling rate, including "time every call") must produce estimates and
//! encoded statistics byte-identical to a table with metrics disabled —
//! through analyze, churn, batch serving, and accuracy audits. Likewise the
//! traced Min-Skew build must emit the same statistics bytes as the
//! untraced one.
//!
//! This is the same contract the serving layer (`serving_differential.rs`)
//! is pinned by: an optimisation — here, an *instrumentation* — that is
//! observationally invisible. The base matrix below always runs (tier 1); the `exhaustive` feature
//! turns on the exhaustive cross product.

use minskew::prelude::*;
#[cfg(feature = "exhaustive")]
use minskew_datagen::SyntheticSpec;
use minskew_datagen::{charminar_with, uniform_rects};

/// Deterministic query mix across the dataset extent (ranges at three
/// sizes, points, covering/disjoint shapes).
fn queries_for(data: &Dataset) -> Vec<Rect> {
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width().max(1.0), mbr.height().max(1.0));
    let mut out = Vec::new();
    for i in 0..10 {
        let f = i as f64 / 10.0;
        for size in [0.03, 0.12, 0.4] {
            let x = mbr.lo.x + f * w * 0.9;
            let y = mbr.lo.y + (1.0 - f) * h * 0.9;
            out.push(Rect::new(x, y, x + size * w, y + size * h));
        }
    }
    for i in 0..6 {
        let f = i as f64 / 6.0;
        out.push(Rect::from_point(Point::new(
            mbr.lo.x + f * w,
            mbr.lo.y + f * h,
        )));
    }
    out.push(mbr);
    out.push(mbr.expanded(w, h));
    out.push(Rect::new(
        mbr.hi.x + 2.0 * w,
        mbr.hi.y + 2.0 * h,
        mbr.hi.x + 3.0 * w,
        mbr.hi.y + 3.0 * h,
    ));
    out
}

fn table_with(data: &Dataset, technique: StatsTechnique, options: TableOptions) -> SpatialTable {
    let mut t = SpatialTable::new(TableOptions {
        analyze: AnalyzeOptions {
            technique,
            buckets: 24,
            ..AnalyzeOptions::default()
        },
        ..options
    });
    for r in data.rects() {
        t.insert(*r);
    }
    t.analyze();
    t
}

/// Drives one full serving lifecycle — single queries, a batch pass, churn,
/// re-ANALYZE, an accuracy audit between every stage — and returns every
/// estimate bit pattern plus the final encoded statistics bytes.
fn lifecycle(table: &mut SpatialTable, queries: &[Rect]) -> (Vec<u64>, Vec<u8>) {
    let mut bits = Vec::new();
    let mut serve = |table: &mut SpatialTable| {
        for q in queries {
            bits_push(&mut bits, table.estimate(q));
        }
        for v in table.estimate_batch(queries) {
            bits_push(&mut bits, v);
        }
        // Second single-query pass: served from the cache where enabled.
        for q in queries {
            bits_push(&mut bits, table.estimate(q));
        }
        // The audit replays the reservoir; it must never disturb serving.
        let _ = table.audit_accuracy();
    };
    serve(table);
    let mbr_w = queries[0].width().max(10.0);
    let churn: Vec<Rect> = (0..50)
        .map(|i| {
            let d = i as f64 * mbr_w / 50.0;
            Rect::new(d, d, d + 5.0, d + 5.0)
        })
        .collect();
    let ids: Vec<_> = churn.iter().map(|r| table.insert(*r)).collect();
    serve(table);
    for id in &ids[..25] {
        table.delete(*id);
    }
    serve(table);
    table.analyze();
    serve(table);
    let stats_bytes = table.stats().expect("analyzed").to_bytes();
    (bits, stats_bytes)
}

fn bits_push(bits: &mut Vec<u64>, v: f64) {
    bits.push(v.to_bits());
}

/// The instrumented configurations that must all match the metrics-off
/// reference: default sampling, time-every-call, and cache-off variants.
fn obs_configs() -> Vec<(&'static str, TableOptions)> {
    vec![
        (
            "metrics-off",
            TableOptions {
                metrics: false,
                ..TableOptions::default()
            },
        ),
        ("metrics-default", TableOptions::default()),
        (
            "metrics-sample-every-call",
            TableOptions {
                metrics_sampling: 1,
                ..TableOptions::default()
            },
        ),
        (
            "metrics-no-cache",
            TableOptions {
                query_cache: false,
                metrics_sampling: 1,
                ..TableOptions::default()
            },
        ),
        (
            "metrics-off-no-cache",
            TableOptions {
                metrics: false,
                query_cache: false,
                ..TableOptions::default()
            },
        ),
    ]
}

#[test]
fn metrics_are_bit_invisible_across_the_serving_lifecycle() {
    let data = charminar_with(2_500, 7);
    let queries = queries_for(&data);
    for technique in [
        StatsTechnique::MinSkew,
        StatsTechnique::EquiCount,
        StatsTechnique::Uniform,
    ] {
        let reference = {
            let mut t = table_with(
                &data,
                technique,
                TableOptions {
                    metrics: false,
                    ..TableOptions::default()
                },
            );
            lifecycle(&mut t, &queries)
        };
        for (name, options) in obs_configs() {
            // Cache-off configs legitimately differ from the reference in
            // *counters*, never in estimates or statistics bytes.
            let mut t = table_with(&data, technique, options);
            let got = lifecycle(&mut t, &queries);
            assert_eq!(
                got.0, reference.0,
                "estimates drifted: technique={technique:?} config={name}"
            );
            assert_eq!(
                got.1, reference.1,
                "stats bytes drifted: technique={technique:?} config={name}"
            );
        }
    }
}

#[test]
fn traced_min_skew_build_is_byte_identical_and_monotone() {
    for (name, data) in [
        ("charminar", charminar_with(3_000, 19)),
        (
            "uniform",
            uniform_rects(1_500, Rect::new(0.0, 0.0, 5_000.0, 5_000.0), 30.0, 30.0, 3),
        ),
    ] {
        for refinements in [0usize, 2] {
            let mut builder = MinSkewBuilder::new(32).regions(1_024);
            if refinements > 0 {
                builder = builder.progressive_refinements(refinements);
            }
            let plain = builder.build(&data);
            let (traced, trace) = builder
                .try_build_traced(&data)
                .expect("preconditions hold for these datasets");
            assert_eq!(
                plain.to_bytes(),
                traced.to_bytes(),
                "tracing changed the build: dataset={name} refinements={refinements}"
            );
            // The audit trail accounts for the construction: each split adds
            // one bucket, but empty buckets are dropped at export and
            // refinement phases may re-split — so the trail is a lower
            // bound. The greedy criterion never increases skew.
            assert_eq!(trace.phases, refinements + 1);
            assert!(
                trace.splits.len() + 1 >= traced.num_buckets(),
                "{} splits cannot yield {} buckets",
                trace.splits.len(),
                traced.num_buckets()
            );
            for (i, s) in trace.splits.iter().enumerate() {
                assert!(
                    s.skew_after <= s.skew_before * (1.0 + 1e-9) + 1e-9,
                    "split {i} increased skew: {s:?}"
                );
            }
        }
    }
}

#[test]
fn accuracy_monitor_reproduces_the_papers_error_metric() {
    // With a reservoir larger than the workload every served (uncached)
    // query is resident, so the audit must equal the offline average
    // relative error over exactly those queries.
    let data = charminar_with(2_000, 29);
    let mut table = SpatialTable::new(TableOptions {
        accuracy_reservoir: 4_096,
        ..TableOptions::default()
    });
    for r in data.rects() {
        table.insert(*r);
    }
    table.analyze();
    let queries = queries_for(&data);
    for q in &queries {
        let _ = table.estimate(q);
    }
    let report = table
        .audit_accuracy()
        .expect("the served queries were sampled");
    assert_eq!(report.samples, queries.len());
    let truth = GroundTruth::index(&data);
    let mut num = 0.0;
    let mut den = 0.0;
    for q in &queries {
        num += (truth.count(q) as f64 - table.estimate(q)).abs();
        den += truth.count(q) as f64;
    }
    let offline = num / den.max(1.0);
    assert!(
        (report.avg_relative_error - offline).abs() < 1e-12,
        "audit {} vs offline {offline}",
        report.avg_relative_error
    );
}

/// Exhaustive cross product — enabled by the `exhaustive` feature (CI runs it;
/// plain `cargo test` keeps the fast base matrix).
#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_obs_matrix() {
    let datasets = [
        ("charminar", charminar_with(6_000, 43)),
        (
            "synthetic",
            SyntheticSpec::default().with_n(4_000).generate(47),
        ),
        (
            "uniform",
            uniform_rects(3_000, Rect::new(0.0, 0.0, 8_000.0, 8_000.0), 25.0, 25.0, 53),
        ),
    ];
    for (dataset_name, data) in datasets {
        let queries = queries_for(&data);
        for technique in [
            StatsTechnique::MinSkew,
            StatsTechnique::EquiArea,
            StatsTechnique::EquiCount,
            StatsTechnique::Uniform,
        ] {
            let reference = {
                let mut t = table_with(
                    &data,
                    technique,
                    TableOptions {
                        metrics: false,
                        ..TableOptions::default()
                    },
                );
                lifecycle(&mut t, &queries)
            };
            for (name, options) in obs_configs() {
                let mut t = table_with(&data, technique, options);
                let got = lifecycle(&mut t, &queries);
                assert_eq!(
                    (got.0, got.1),
                    (reference.0.clone(), reference.1.clone()),
                    "dataset={dataset_name} technique={technique:?} config={name}"
                );
            }
        }
    }
}
