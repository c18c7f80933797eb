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

/// A table under churn, with the test's own copy of its live rows (in id
/// order) and of its `ANALYZE` settings.
struct Model {
    table: SpatialTable,
    rows: std::collections::BTreeMap<RowId, Rect>,
    opts: AnalyzeOptions,
    /// `engine.analyze.{grid_reused, grid_built, row_sweeps}` at the last
    /// check.
    counts: [u64; 3],
}

impl Model {
    fn new(rects: &[Rect]) -> Model {
        let opts = AnalyzeOptions {
            buckets: 40,
            regions: 1_600,
            ..AnalyzeOptions::default()
        };
        let mut table = SpatialTable::new(TableOptions {
            analyze: opts,
            auto_analyze_threshold: None,
            ..TableOptions::default()
        });
        let ids = ids_of(table.insert_many(rects.iter().copied()));
        Model {
            table,
            rows: ids.into_iter().zip(rects.iter().copied()).collect(),
            opts,
            counts: [0; 3],
        }
    }

    fn set_options(&mut self, opts: AnalyzeOptions) {
        self.opts = opts;
        self.table.set_analyze_options(opts);
    }

    fn insert(&mut self, r: Rect) {
        let id = self.table.insert(r);
        self.rows.insert(id, r);
    }

    fn delete(&mut self, id: RowId) {
        assert!(self.table.delete(id));
        self.rows.remove(&id);
    }

    fn live(&self) -> Dataset {
        Dataset::new(self.rows.values().copied().collect())
    }

    /// Deletes every `step`-th live row that lies strictly inside the
    /// live MBR (along each axis of non-zero extent), and inserts as many
    /// points inside it.
    fn interior_churn(&mut self, step: usize) {
        let mbr = self.live().stats().mbr;
        let within = |lo: f64, hi: f64, min: f64, max: f64| min == max || (lo > min && hi < max);
        let inside = |r: &Rect| {
            within(r.lo.x, r.hi.x, mbr.lo.x, mbr.hi.x) && within(r.lo.y, r.hi.y, mbr.lo.y, mbr.hi.y)
        };
        let victims: Vec<RowId> = self
            .rows
            .iter()
            .filter(|(_, r)| inside(r))
            .map(|(id, _)| *id)
            .step_by(step)
            .collect();
        for (i, id) in victims.iter().enumerate() {
            self.delete(*id);
            let t = (i % 97) as f64 / 97.0;
            let x = mbr.lo.x + mbr.width() * (0.1 + 0.8 * t);
            let y = mbr.lo.y + mbr.height() * (0.9 - 0.8 * t);
            self.insert(Rect::new(x, y, x, y));
        }
    }

    /// Runs `ANALYZE` and checks it against a fresh build over a copy of
    /// the live rows: the same bytes, with `reused` phase grids taken from
    /// the table's maintained set and `built` ones built, and `sweeps`
    /// `ANALYZE`s counted as sweeping the rows since the last check.
    fn analyze(&mut self, step: &str, reused: u64, built: u64, sweeps: u64) {
        self.table.analyze();
        let fresh = MinSkewBuilder::new(self.opts.buckets)
            .regions(self.opts.regions)
            .progressive_refinements(self.opts.refinements)
            .build(&self.live());
        assert_eq!(
            self.table.stats().map(SpatialHistogram::to_bytes),
            Some(fresh.to_bytes()),
            "{step}: maintained ANALYZE differs from a fresh build"
        );
        let counter = |name: &str| {
            let counters = self.table.metrics().counters;
            let found = counters.iter().find(|(n, _)| n == name);
            found
                .unwrap_or_else(|| panic!("{step}: {name} is not registered"))
                .1
        };
        let now = [
            counter("engine.analyze.grid_reused"),
            counter("engine.analyze.grid_built"),
            counter("engine.analyze.row_sweeps"),
        ];
        assert_eq!(
            [0, 1, 2].map(|i| now[i] - self.counts[i]),
            [reused, built, sweeps],
            "{step}: (reused, built) phase grids and row sweeps"
        );
        self.counts = now;
    }

    /// The live row `r`, by value.
    fn id_of(&self, r: Rect) -> RowId {
        *self.rows.iter().find(|(_, x)| **x == r).expect("live").0
    }
}

#[test]
fn analyze_from_maintained_grids_matches_a_fresh_build() {
    let road = RoadNetworkSpec {
        segments: 3_000,
        ..RoadNetworkSpec::default()
    }
    .generate(61);
    let mut m = Model::new(road.rects());
    // A cold ANALYZE sweeps the rows once, for the grid and its centre
    // sums; the live MBR is maintained by the inserts.
    m.analyze("first ANALYZE", 0, 1, 1);
    m.analyze("no writes", 1, 0, 0);
    m.interior_churn(5);
    m.analyze("interior churn", 1, 0, 0);

    // An insert that grows the MBR, then its delete: both move the bounds.
    // The insert folds into the MBR; the delete takes a row on its edge.
    let mbr = m.live().stats().mbr;
    let outlier = Rect::new(mbr.hi.x + 10.0, mbr.lo.y, mbr.hi.x + 11.0, mbr.lo.y + 1.0);
    m.insert(outlier);
    m.analyze("MBR grown", 0, 1, 1);
    m.delete(m.id_of(outlier));
    assert_eq!(m.live().stats().mbr, mbr);
    m.analyze("MBR shrunk back", 0, 1, 1);
    // The same outlier in and out between two ANALYZEs: the held grid and
    // centre sums take and drop it, and the dirty MBR settles back.
    m.insert(outlier);
    m.delete(m.id_of(outlier));
    m.analyze("outlier inserted and deleted", 1, 0, 1);
    m.analyze("settled", 1, 0, 0);

    // Rows on each edge of the MBR: deleting one of several keeps the
    // bounds, but the MBR is re-swept to know that. A small rect inside
    // the MBR on each edge makes at least two rows there; inserting them
    // folds into the MBR and leaves it as it is.
    let (w, h) = (mbr.width() * 0.01, mbr.height() * 0.01);
    let (cx, cy) = (mbr.lo.x + mbr.width() / 2.0, mbr.lo.y + mbr.height() / 2.0);
    for r in [
        Rect::new(mbr.lo.x, cy, mbr.lo.x + w, cy + h),
        Rect::new(cx, mbr.lo.y, cx + w, mbr.lo.y + h),
        Rect::new(mbr.hi.x - w, cy, mbr.hi.x, cy + h),
        Rect::new(cx, mbr.hi.y - h, cx + w, mbr.hi.y),
    ] {
        m.insert(r);
    }
    assert_eq!(m.live().stats().mbr, mbr);
    m.analyze("a row added on each edge", 1, 0, 0);
    let sides: [fn(&Rect, &Rect) -> bool; 4] = [
        |r, m| r.lo.x == m.lo.x,
        |r, m| r.lo.y == m.lo.y,
        |r, m| r.hi.x == m.hi.x,
        |r, m| r.hi.y == m.hi.y,
    ];
    for (side, on_edge) in ["left", "bottom", "right", "top"].iter().zip(sides) {
        let edge: Vec<RowId> = m
            .rows
            .iter()
            .filter(|(_, r)| on_edge(r, &mbr))
            .map(|(id, _)| *id)
            .collect();
        assert!(edge.len() >= 2, "{} {side} edge rows", edge.len());
        m.delete(edge[0]);
        assert_eq!(m.live().stats().mbr, mbr);
        m.analyze(&format!("one of several {side} edge rows deleted"), 1, 0, 1);
    }
    // Deleting the rest of the left edge rows moves the bounds: the dirty
    // MBR shrinks.
    let edge: Vec<RowId> = m
        .rows
        .iter()
        .filter(|(_, r)| r.lo.x == mbr.lo.x)
        .map(|(id, _)| *id)
        .collect();
    assert!(!edge.is_empty(), "a left edge row is left");
    for id in &edge {
        m.delete(*id);
    }
    assert!(m.live().stats().mbr.lo.x > mbr.lo.x, "the left edge moved");
    m.analyze("last left edge row deleted", 0, 1, 1);
    m.analyze("left edge settled", 1, 0, 0);

    // Three phases over sides 10, 20 and 40: the side-40 grid is held,
    // with its centre sums.
    let mut opts = m.opts;
    opts.refinements = 2;
    m.set_options(opts);
    m.analyze("refinements = 2", 1, 2, 1);
    m.interior_churn(7);
    m.analyze("refinements = 2, interior churn", 3, 0, 0);

    // Sides 20, 40 and 80: the first two grids are held already, but the
    // side-40 grid's centre sums serve no phase now.
    opts.regions = 6_400;
    m.set_options(opts);
    m.analyze("regions = 6400", 2, 1, 1);

    m.interior_churn(11);
    m.analyze("regions = 6400, interior churn", 3, 0, 0);

    // Back to one phase over side 40: that grid was a middle phase, held
    // without centre sums, so the final phase builds it again.
    opts.refinements = 0;
    opts.regions = 1_600;
    m.set_options(opts);
    m.analyze("side 40 from a middle phase", 0, 1, 1);
    opts.refinements = 2;
    opts.regions = 6_400;
    m.set_options(opts);
    m.analyze("refinements = 2 again", 1, 2, 1);

    // Another technique holds no grids, so the next Min-Skew builds all.
    // Uniform reads the full statistics, one more sweep.
    m.table.set_analyze_options(AnalyzeOptions {
        technique: StatsTechnique::Uniform,
        ..opts
    });
    m.table.analyze();
    m.set_options(opts);
    m.analyze("after Uniform", 0, 3, 2);

    // Every other live row deleted: every run of live rows is one row
    // long. Some deletes take rows on an edge of the MBR, which is swept
    // and settles back to the same bits, so all three grids are reused.
    let mbr = m.live().stats().mbr;
    let victims: Vec<RowId> = m.rows.keys().copied().step_by(2).collect();
    for id in victims {
        m.delete(id);
    }
    assert_eq!(m.live().stats().mbr, mbr);
    m.analyze("every other row deleted", 3, 0, 1);

    // All rects on one horizontal line: the y axis collapses to one row.
    let line: Vec<Rect> = (0..2_000)
        .map(|i| {
            let x = f64::from(i % 500) * 3.0 + f64::from(i / 500) * 0.5;
            Rect::new(x, 7.0, x + 1.0 + f64::from(i % 13), 7.0)
        })
        .collect();
    let mut m = Model::new(&line);
    m.analyze("line: first ANALYZE", 0, 1, 1);
    m.interior_churn(3);
    // Every row lies on the bottom and top edges, so a delete re-sweeps
    // the MBR; the grid and centre sums are still reused.
    m.analyze("line: interior churn", 1, 0, 1);
}

/// A left edge at zero held by rows at `-0.0` and at `0.0`: which sign the
/// MBR's edge takes depends on the fold, and the grid key compares bits,
/// so every delete of a zero row must settle the MBR by a sweep and leave
/// it, and the statistics, bit-equal to a fresh build.
#[test]
fn maintained_analyze_matches_a_fresh_build_on_a_signed_zero_edge() {
    let rects: Vec<Rect> = (0..400)
        .map(|i| {
            let x = 1.0 + f64::from(i % 20) * 5.0;
            let y = f64::from(i / 20) * 5.0;
            Rect::new(x, y, x + 2.5, y + 1.5)
        })
        .collect();
    let zero = |x: f64, y: f64| Rect {
        lo: Point::new(x, y),
        hi: Point::new(1.0, y + 1.0),
    };
    let mut m = Model::new(&rects);
    let neg = zero(-0.0, 10.0);
    let pos = zero(0.0, 20.0);
    m.insert(neg);
    m.insert(pos);
    m.analyze("zero edge: first ANALYZE", 0, 1, 1);
    // Interior churn leaves the zero edge alone.
    m.interior_churn(9);
    m.analyze("zero edge: interior churn", 1, 0, 0);
    // Each step moves rows at a signed zero on the edge; whether the
    // edge's sign, and so the grid key, changes is read off the fresh
    // MBR, since `f64::min` does not fix which zero it returns.
    let steps: [(&str, Rect, bool); 4] = [
        ("zero edge: -0.0 row deleted", neg, false),
        ("zero edge: -0.0 row inserted again", zero(-0.0, 30.0), true),
        ("zero edge: 0.0 row deleted", pos, false),
        ("zero edge: 0.0 row inserted again", zero(0.0, 40.0), true),
    ];
    for (step, r, insert) in steps {
        let before = m.live().stats().mbr.lo.x.to_bits();
        if insert {
            m.insert(r);
        } else {
            m.delete(m.id_of(r));
        }
        let after = m.live().stats().mbr.lo.x.to_bits();
        let moved = u64::from(before != after);
        // A delete on the edge re-sweeps; an insert folds in.
        m.analyze(step, 1 - moved, moved, u64::from(!insert || moved == 1));
    }
}
