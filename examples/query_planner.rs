//! Selectivity estimation doing its real job: driving a cost-based query
//! optimizer's access-path selection.
//!
//! Run with `cargo run --release --example query_planner`.

use minskew::engine::{SpatialTable, TableOptions};
use minskew::prelude::*;

fn main() {
    // Load a skewed spatial table (a GIS layer of building footprints).
    let mut table = SpatialTable::new(TableOptions::default());
    table.insert_many(minskew::datagen::charminar_with(40_000, 9).into_rects());
    table.analyze();
    println!("table: {} rows, analyzed\n", table.len());

    // The planner should use the index for selective queries and fall back
    // to a scan for broad ones — based purely on histogram estimates.
    let queries = [
        ("tiny corner probe", Rect::new(100.0, 100.0, 400.0, 400.0)),
        ("dense corner", Rect::new(0.0, 0.0, 1_800.0, 1_800.0)),
        (
            "sparse centre",
            Rect::new(4_000.0, 4_000.0, 6_000.0, 6_000.0),
        ),
        ("half the state", Rect::new(0.0, 0.0, 10_000.0, 5_000.0)),
        ("everything", Rect::new(0.0, 0.0, 10_000.0, 10_000.0)),
    ];
    for (label, q) in queries {
        let (rows, explain) = table.execute_explain(&q);
        println!("{label:<18} -> {explain}");
        assert_eq!(rows.len(), explain.actual_rows.unwrap());
    }

    // Mutations accumulate staleness; the table re-analyzes itself.
    println!("\nchurning 30,000 inserts into the sparse centre...");
    for i in 0..30_000 {
        let x = 3_500.0 + (i % 120) as f64 * 25.0;
        let y = 3_500.0 + (i / 120) as f64 * 12.0;
        table.insert(Rect::new(x, y, x + 60.0, y + 60.0));
    }
    println!(
        "staleness before replanning: {:.2}",
        table.stats().unwrap().staleness()
    );
    let (_, explain) = table.execute_explain(&Rect::new(4_000.0, 4_000.0, 6_000.0, 6_000.0));
    println!("after auto-ANALYZE: {explain}");
    println!("staleness after: {:.2}", table.stats().unwrap().staleness());
}
