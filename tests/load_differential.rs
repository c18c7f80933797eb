//! Differential suite for bulk loading: `SpatialTable::insert_many` packs an
//! empty index with Sort-Tile-Recursive bulk loading and publishes once,
//! where a loop of `insert` grows the R\*-tree row by row and publishes per
//! row. The two tables must be indistinguishable in every row id, estimate
//! bit, statistics byte, exact count and query result — before any
//! `ANALYZE`, after it, through churn, `maintain` and a re-`ANALYZE`, when a
//! batch lands on a non-empty index (the R\*-tree fallback), and when a
//! batch reloads a table emptied by deletes. The only difference allowed is
//! the publication count (`generation`).

use minskew::engine::{CostModel, Plan, RowId};
use minskew::prelude::*;
use minskew_datagen::{charminar_with, RoadNetworkSpec};

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("charminar", charminar_with(3_000, 47)),
        (
            "road",
            RoadNetworkSpec {
                segments: 3_000,
                ..RoadNetworkSpec::default()
            }
            .generate(59),
        ),
    ]
}

/// Auto-`ANALYZE` off, so statistics change only where the test says, and
/// a cost model that always picks `plan`.
fn options(plan: Plan) -> TableOptions {
    let cost_model = CostModel {
        index_setup_cost: 0.0,
        index_tuple_cost: if plan.is_index_scan() {
            0.0
        } else {
            f64::INFINITY
        },
        ..CostModel::default()
    };
    TableOptions {
        auto_analyze_threshold: None,
        cost_model,
        ..TableOptions::default()
    }
}

fn ids_of(range: std::ops::Range<RowId>) -> Vec<RowId> {
    (range.start.raw()..range.end.raw())
        .map(RowId::from_raw)
        .collect()
}

/// Windows of several sizes tiled over `mbr`, plus the whole space and a
/// window outside it.
fn queries(mbr: Rect) -> Vec<Rect> {
    let mut out = vec![
        mbr,
        Rect::new(
            mbr.hi.x + 1.0,
            mbr.hi.y + 1.0,
            mbr.hi.x + 2.0,
            mbr.hi.y + 2.0,
        ),
    ];
    for frac in [0.02, 0.1, 0.3] {
        let (w, h) = (mbr.width() * frac, mbr.height() * frac);
        for i in 0..5 {
            let x = mbr.lo.x + mbr.width() * (0.05 + 0.18 * f64::from(i));
            let y = mbr.lo.y + mbr.height() * (0.9 - 0.17 * f64::from(i));
            out.push(Rect::new(x, y, x + w, y + h));
        }
    }
    out
}

/// Two row-by-row tables and two bulk-loaded ones, one of each per plan:
/// `[row/index, bulk/index, row/seq-scan, bulk/seq-scan]`. Every table
/// gets the same calls, so all four must agree.
struct Quad([SpatialTable; 4]);

impl Quad {
    fn new() -> Quad {
        let [i, s] = [Plan::IndexScan, Plan::SeqScan];
        Quad([
            SpatialTable::new(options(i)),
            SpatialTable::new(options(i)),
            SpatialTable::new(options(s)),
            SpatialTable::new(options(s)),
        ])
    }

    /// Loads `rects` one `insert` per row into the row tables and with one
    /// `insert_many` into the bulk tables; returns the (equal) ids.
    fn load(&mut self, rects: &[Rect], phase: &str) -> Vec<RowId> {
        let mut all = Vec::new();
        for (k, t) in self.0.iter_mut().enumerate() {
            let generation = t.generation();
            let ids: Vec<RowId> = if k % 2 == 0 {
                rects.iter().map(|r| t.insert(*r)).collect()
            } else {
                let ids = ids_of(t.insert_many(rects.iter().copied()));
                assert_eq!(t.generation(), generation + 1, "{phase}: one publish");
                ids
            };
            all.push(ids);
        }
        assert!(all.windows(2).all(|w| w[0] == w[1]), "{phase}: row ids");
        all.swap_remove(0)
    }

    /// Applies `f` to every table and requires the same answer from each.
    fn each<R: PartialEq + std::fmt::Debug>(
        &mut self,
        phase: &str,
        mut f: impl FnMut(&mut SpatialTable) -> R,
    ) -> R {
        let mut out: Vec<R> = self.0.iter_mut().map(&mut f).collect();
        for (k, r) in out.iter().enumerate().skip(1) {
            assert_eq!(*r, out[0], "{phase}: table {k} differs from table 0");
        }
        out.swap_remove(0)
    }

    /// Everything a client can observe agrees across the four tables.
    fn assert_same(&mut self, qs: &[Rect], next: u64, phase: &str) {
        self.each(phase, |t| {
            t.validate_index()
                .unwrap_or_else(|e| panic!("{phase}: {e}"));
            t.len()
        });
        self.each(&format!("{phase}: stats bytes"), |t| {
            t.stats().map(SpatialHistogram::to_bytes)
        });
        self.each(&format!("{phase}: rows"), |t| {
            (0..next)
                .map(|raw| t.get(RowId::from_raw(raw)))
                .collect::<Vec<_>>()
        });
        for q in qs {
            self.each(&format!("{phase}: estimate {q}"), |t| {
                t.estimate(q).to_bits()
            });
            // Two tables answer through the index and two by a sequential
            // scan: their ids, and so their exact counts, must match.
            self.each(&format!("{phase}: execute {q}"), |t| {
                let (ids, explain) = t.execute_explain(q);
                (ids, explain.actual_rows)
            });
            let plans: Vec<Plan> = self.0.iter_mut().map(|t| t.plan(q).plan).collect();
            assert_eq!(
                plans,
                [
                    Plan::IndexScan,
                    Plan::IndexScan,
                    Plan::SeqScan,
                    Plan::SeqScan
                ],
                "{phase}: forced plans"
            );
        }
        self.each(&format!("{phase}: batch"), |t| {
            t.estimate_batch(qs)
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>()
        });
        // The audit replays sampled queries against exact index counts.
        self.each(&format!("{phase}: accuracy audit"), |t| {
            t.audit_accuracy()
                .map(|r| (r.samples, r.avg_relative_error.to_bits()))
        });
    }
}

#[test]
fn bulk_loaded_tables_are_indistinguishable_from_row_by_row_ones() {
    for (name, data) in datasets() {
        let qs = queries(data.stats().mbr);
        let rects = data.rects();
        let n = rects.len() as u64;
        let mut quad = Quad::new();
        let ids = quad.load(rects, name);
        assert_eq!(ids, ids_of(RowId::from_raw(0)..RowId::from_raw(n)));
        // One publish per row against one per batch.
        assert_eq!(quad.0[0].generation(), n, "{name}");
        assert_eq!(quad.0[1].generation(), 1, "{name}");
        quad.assert_same(&qs, n, &format!("{name}/never-analyzed"));

        quad.each(name, SpatialTable::analyze);
        quad.assert_same(&qs, n, &format!("{name}/analyzed"));

        // Churn: single inserts on all four; a batch on a non-empty index
        // (the R*-tree fallback) on the bulk tables, the same rows one by
        // one on the others; then deletes of old and new rows.
        let mbr = data.stats().mbr;
        let extra: Vec<Rect> = (0..400)
            .map(|i| {
                let x = mbr.lo.x + mbr.width() * f64::from(i % 20) / 20.0;
                let y = mbr.lo.y + mbr.height() * f64::from(i / 20) / 20.0;
                Rect::new(x, y, x + mbr.width() / 50.0, y + mbr.height() / 50.0)
            })
            .collect();
        for r in &extra[..100] {
            quad.each(&format!("{name}: single insert"), |t| t.insert(*r));
        }
        quad.load(&extra[100..], &format!("{name}/fallback"));
        for raw in (0..n + 400).step_by(7) {
            quad.each(&format!("{name}: delete {raw}"), |t| {
                t.delete(RowId::from_raw(raw))
            });
        }
        quad.assert_same(&qs, n + 400, &format!("{name}/churned"));

        for mode in [
            MaintenanceMode::OnlineRefine,
            MaintenanceMode::DriftReAnalyze,
        ] {
            let phase = format!("{name}/maintained-{mode}");
            quad.each(&phase, |t| {
                t.set_maintenance_mode(mode);
                t.maintain().to_string()
            });
            quad.assert_same(&qs, n + 400, &phase);
        }

        quad.each(name, SpatialTable::analyze);
        quad.assert_same(&qs, n + 400, &format!("{name}/reanalyzed"));

        // Empty every table by deletes, then reload: the bulk tables'
        // indexes are empty again, so their batch is packed again; ids
        // keep counting up.
        for raw in 0..n + 400 {
            quad.each(&format!("{name}: drain {raw}"), |t| {
                t.delete(RowId::from_raw(raw))
            });
        }
        assert!(quad.each(name, |t| t.is_empty()), "{name}: drained");
        let ids = quad.load(rects, &format!("{name}/reload"));
        assert_eq!(ids[0].raw(), n + 400, "{name}: ids are never reused");
        quad.assert_same(&qs, 2 * n + 400, &format!("{name}/reloaded"));
        quad.each(name, SpatialTable::analyze);
        quad.assert_same(&qs, 2 * n + 400, &format!("{name}/reloaded-analyzed"));
    }
}

#[test]
fn an_empty_batch_changes_nothing() {
    let mut t = SpatialTable::new(options(Plan::IndexScan));
    let empty = t.insert_many(std::iter::empty());
    assert_eq!(empty.start, empty.end);
    assert_eq!(t.generation(), 0, "an empty batch publishes nothing");
    let first = t.insert(Rect::new(0.0, 0.0, 1.0, 1.0));
    let empty = t.insert_many(Vec::new());
    assert_eq!(
        (empty.start, empty.end),
        (RowId::from_raw(1), RowId::from_raw(1))
    );
    assert_eq!(first, RowId::from_raw(0));
    assert_eq!(t.generation(), 1);
    assert_eq!(t.len(), 1);
    t.validate_index().expect("valid index");
}
