//! Long-horizon churn benchmark for the online self-tuning histogram.
//!
//! The paper builds its histograms once, offline (§4); this extension asks
//! what happens over a long horizon of data drift when the optimizer's
//! statistics are (a) frozen, (b) incrementally patched by the staleness
//! tracker's insert/delete absorption, or (c) repaired online from the
//! accuracy monitor's replayed (query, exact, estimate) feedback — the
//! query-driven refine loop.
//!
//! Drift schedule: each epoch parks a hotspot of new rectangles at a point
//! that orbits the dataset's extent and deletes the oldest resident rows,
//! so both the density surface and the total cardinality move. Each epoch
//! serves a query workload drawn over the *current* data (feeding the
//! accuracy reservoirs), runs one maintenance pass per arm, and scores all
//! arms on a held-out workload against exact counts — the paper's §5
//! error metric, `Σ|r − e| / Σ r`.
//!
//! Cost accounting: every refine pass is timed, and a full re-`ANALYZE`
//! over the horizon-end table is timed for comparison — the refine loop
//! only earns its keep if a bounded step costs a small fraction of the
//! rebuild it displaces.
//!
//! Writes machine-readable results to `BENCH_refine.json` at the workspace
//! root. `MINSKEW_QUICK=1` shrinks the dataset and horizon for smoke runs.

use minskew_bench::{charminar_scaled, record_path, time_it, Scale};
use minskew_core::{MinSkewBuilder, SpatialEstimator};
use minskew_data::Dataset;
use minskew_engine::{MaintenanceAction, MaintenanceMode, RowId, SpatialTable, TableOptions};
use minskew_geom::Rect;
use minskew_workload::QueryWorkload;

/// Per-epoch measurements for every arm.
struct EpochRow {
    epoch: usize,
    rows: usize,
    err_static: f64,
    err_patch: f64,
    err_refine: f64,
    staleness_patch: f64,
    refine_passes: usize,
    refine_secs: f64,
}

/// The paper's §5 average relative error over a workload, denominator
/// floored at 1 so all-empty workloads stay finite.
fn paper_error(pairs: &[(f64, f64)]) -> f64 {
    let num: f64 = pairs.iter().map(|(r, e)| (r - e).abs()).sum();
    let den: f64 = pairs.iter().map(|(r, _)| *r).sum::<f64>().max(1.0);
    num / den
}

fn table(mode: MaintenanceMode) -> SpatialTable {
    SpatialTable::new(TableOptions {
        maintenance: mode,
        // Maintenance is what we measure; keep implicit auto-ANALYZE out.
        auto_analyze_threshold: None,
        accuracy_reservoir: 512,
        // An aggressive repair policy: engage maintenance as soon as the
        // audited error leaves the band a fresh build achieves (~0.1 on
        // Charminar at 100 buckets), not only on catastrophic drift.
        accuracy_drift_threshold: 0.15,
        ..TableOptions::default()
    })
}

fn main() {
    let scale = Scale::from_env();
    let quick = scale.data_divisor != 1;
    let data = charminar_scaled(scale);
    let epochs = if quick { 4 } else { 16 };
    let serve_queries = (scale.queries / 10).max(50);
    let eval_queries = (scale.queries / 20).max(50);
    let qsize = 0.05;

    // Arm a: the epoch-0 histogram, frozen for the whole horizon.
    let frozen = MinSkewBuilder::new(100).build(&data);
    // Arm b: incremental insert/delete patching only (maintenance off).
    let mut patch = table(MaintenanceMode::Off);
    // Arm c: the query-driven refine loop.
    let mut refine = table(MaintenanceMode::OnlineRefine);

    // Both live tables see identical mutations in identical order, so row
    // ids coincide; `resident` mirrors the live rows for exact counting.
    let mut resident: std::collections::VecDeque<(RowId, Rect)> =
        Vec::from_iter(data.rects().iter().map(|r| (patch.insert(*r), *r))).into();
    for (_, r) in &resident {
        refine.insert(*r);
    }
    patch.analyze();
    refine.analyze();

    let bbox = data.stats().mbr;
    let n0 = data.len();
    let hotspot_inserts = (n0 / 8).max(1);
    let deletes = (n0 / 16).max(1);
    let side = (bbox.width().min(bbox.height()) / 250.0).max(1e-9);

    eprintln!(
        "[refine] {} rects, {epochs} epochs, +{hotspot_inserts}/-{deletes} per epoch, \
         {serve_queries} served + {eval_queries} eval queries per epoch",
        n0
    );

    let mut rows: Vec<EpochRow> = Vec::new();
    let mut refine_secs_total = 0.0;
    let mut refine_passes_total = 0usize;

    for epoch in 0..epochs {
        // --- drift: an orbiting hotspot plus oldest-row deletions -------
        let angle = std::f64::consts::TAU * epoch as f64 / epochs as f64;
        let (cx, cy) = (
            bbox.lo.x + bbox.width() * (0.5 + 0.35 * angle.cos()),
            bbox.lo.y + bbox.height() * (0.5 + 0.35 * angle.sin()),
        );
        for i in 0..hotspot_inserts {
            let jitter = (i % 61) as f64 * side * 0.2;
            let r = Rect::new(
                cx + jitter,
                cy + jitter,
                cx + jitter + side,
                cy + jitter + side,
            );
            let id = patch.insert(r);
            refine.insert(r);
            resident.push_back((id, r));
        }
        for _ in 0..deletes.min(resident.len().saturating_sub(1)) {
            if let Some((id, _)) = resident.pop_front() {
                patch.delete(id);
                refine.delete(id);
            }
        }
        let live = Dataset::new(resident.iter().map(|(_, r)| *r).collect());

        // --- serve: feed both reservoirs from the current distribution --
        let served = QueryWorkload::generate(&live, qsize, serve_queries, 1_000 + epoch as u64);
        for q in served.queries() {
            let _ = patch.estimate(q);
            let _ = refine.estimate(q);
        }

        // --- maintain: audit-only for the patch arm, bounded refine
        // passes (stop at convergence) for the refine arm ----------------
        let _ = patch.maintain();
        let mut refine_passes = 0usize;
        let mut refine_secs = 0.0;
        for _ in 0..8 {
            let (report, secs) = time_it(|| refine.maintain());
            match report.action {
                MaintenanceAction::Refined(_) | MaintenanceAction::Reanalyzed => {
                    refine_passes += 1;
                    refine_secs += secs;
                }
                MaintenanceAction::None => break,
            }
        }
        refine_secs_total += refine_secs;
        refine_passes_total += refine_passes;

        // --- evaluate: held-out workload, exact counts by linear scan ---
        let eval = QueryWorkload::generate(&live, qsize, eval_queries, 9_000 + epoch as u64);
        let mut pairs_static = Vec::with_capacity(eval.len());
        let mut pairs_patch = Vec::with_capacity(eval.len());
        let mut pairs_refine = Vec::with_capacity(eval.len());
        for q in eval.queries() {
            let actual = resident.iter().filter(|(_, r)| r.intersects(q)).count() as f64;
            pairs_static.push((actual, frozen.estimate_count(q)));
            pairs_patch.push((actual, patch.estimate(q)));
            pairs_refine.push((actual, refine.estimate(q)));
        }
        let row = EpochRow {
            epoch,
            rows: resident.len(),
            err_static: paper_error(&pairs_static),
            err_patch: paper_error(&pairs_patch),
            err_refine: paper_error(&pairs_refine),
            staleness_patch: patch.stats_staleness().unwrap_or(f64::NAN),
            refine_passes,
            refine_secs,
        };
        eprintln!(
            "[refine] epoch {:>2}: static {:.3}, patch {:.3} (staleness {:.2}), \
             refine {:.3} ({} pass(es), {:.1} ms)",
            row.epoch,
            row.err_static,
            row.err_patch,
            row.staleness_patch,
            row.err_refine,
            row.refine_passes,
            row.refine_secs * 1e3,
        );
        rows.push(row);
    }

    // Full-rebuild cost reference at the horizon-end table, and the pure
    // repair cost from the engine's own instrumentation: a maintain pass =
    // accuracy audit (paid by every mode, Off included — it is the
    // monitor) + the refine step; `engine.maintenance.refine_ns` times the
    // step alone, which is what a rebuild-displacing repair must amortise.
    let metrics = refine.metrics();
    let refine_step_secs = metrics
        .histograms
        .iter()
        .find(|(name, _)| name == "engine.maintenance.refine_ns")
        .map_or(0.0, |(_, h)| h.sum as f64 / 1e9 / h.count.max(1) as f64);
    let (_, analyze_secs) = time_it(|| refine.analyze());
    let per_pass_secs = refine_secs_total / refine_passes_total.max(1) as f64;
    let last = rows.last().expect("at least one epoch");

    println!("\n## Self-tuning histograms under churn (paper error metric per epoch)\n");
    println!("| epoch | rows | static | patch-only | online refine | refine passes |");
    println!("|-------|------|--------|------------|---------------|---------------|");
    for r in &rows {
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {} |",
            r.epoch, r.rows, r.err_static, r.err_patch, r.err_refine, r.refine_passes
        );
    }
    println!(
        "\nhorizon end: static {:.3}, refine {:.3} ({:.2}x); refine step {:.2} ms \
         (pass incl. audit {:.2} ms) vs full ANALYZE {:.2} ms ({:.1}% of a rebuild)",
        last.err_static,
        last.err_refine,
        last.err_refine / last.err_static.max(1e-12),
        refine_step_secs * 1e3,
        per_pass_secs * 1e3,
        analyze_secs * 1e3,
        refine_step_secs / analyze_secs.max(1e-12) * 100.0
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"initial_rects\": {n0},\n  \"epochs\": {epochs},\n  \
         \"hotspot_inserts_per_epoch\": {hotspot_inserts},\n  \
         \"deletes_per_epoch\": {deletes},\n"
    ));
    json.push_str(
        "  \"note\": \"paper avg rel error per epoch over a held-out workload; \
         static = epoch-0 histogram frozen, patch = insert/delete absorption only \
         (maintenance off), refine = query-driven online refine loop\",\n",
    );
    json.push_str("  \"epochs_rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"epoch\": {}, \"rows\": {}, \"err_static\": {:.6}, \
             \"err_patch\": {:.6}, \"err_refine\": {:.6}, \"staleness_patch\": {:.6}, \
             \"refine_passes\": {}, \"refine_ms\": {:.3}}}{}\n",
            r.epoch,
            r.rows,
            r.err_static,
            r.err_patch,
            r.err_refine,
            r.staleness_patch,
            r.refine_passes,
            r.refine_secs * 1e3,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"horizon\": {{\"err_static\": {:.6}, \"err_patch\": {:.6}, \
         \"err_refine\": {:.6}, \"refine_vs_static\": {:.6}, \
         \"refine_step_ms\": {:.3}, \"maintain_pass_ms\": {:.3}, \
         \"full_analyze_ms\": {:.3}, \"refine_cost_fraction\": {:.6}}},\n",
        last.err_static,
        last.err_patch,
        last.err_refine,
        last.err_refine / last.err_static.max(1e-12),
        refine_step_secs * 1e3,
        per_pass_secs * 1e3,
        analyze_secs * 1e3,
        refine_step_secs / analyze_secs.max(1e-12)
    ));
    json.push_str(
        "  \"cost_note\": \"refine_step_ms is the histogram repair alone \
         (engine.maintenance.refine_ns); maintain_pass_ms additionally \
         includes the accuracy audit, which every maintenance mode — Off \
         included — pays as monitoring\"\n",
    );
    json.push_str("}\n");

    let out = record_path("BENCH_refine.json");
    std::fs::write(&out, json).expect("write BENCH_refine.json");
    println!("\nwrote {}", out.display());
}
