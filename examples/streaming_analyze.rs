//! Out-of-core ANALYZE: build Min-Skew statistics for a table that never
//! fits in memory, using only sequential file sweeps.
//!
//! The paper's §4.1: "the construction algorithm does not require the
//! entire data distribution to fit in main memory, which is a significant
//! advantage". This example makes the claim operational: the dataset lives
//! in a CSV file; construction holds only the density grid, the bucket
//! set, and one rectangle at a time.
//!
//! Run with `cargo run --release --example streaming_analyze`.

use minskew::data::CsvRectSource;
use minskew::prelude::*;

fn main() -> std::io::Result<()> {
    // Simulate the disk-resident table (in reality this file would come
    // from a TIGER extract or a database export).
    let path = std::env::temp_dir().join("minskew-streaming-demo.csv");
    {
        let data = minskew::datagen::nj_road_like(3);
        minskew::data::write_rects_csv(&data, &path)?;
        let bytes = std::fs::metadata(&path)?.len();
        println!(
            "wrote {} road segments to {} ({:.1} MB on disk)",
            data.len(),
            path.display(),
            bytes as f64 / 1e6
        );
        // `data` is dropped here: from now on, nothing holds the
        // rectangles in memory.
    }

    // One validating pass computes the summary statistics.
    let source = CsvRectSource::open(&path).expect("valid rect CSV");
    let stats = minskew::data::RectSource::stats(&source);
    println!(
        "opened source: N = {}, MBR = {}, avg segment {:.0} x {:.0}",
        stats.n, stats.mbr, stats.avg_width, stats.avg_height
    );

    // ANALYZE: one refinement = two phases, one sequential sweep each; the
    // final sweep also sums each cell's centred rects for the bucket
    // summaries. Resident memory is O(grid + buckets).
    let start = std::time::Instant::now();
    let hist = MinSkewBuilder::new(100)
        .regions(10_000)
        .progressive_refinements(1)
        .build(&source);
    println!(
        "built {} with {} buckets in {:.2}s using sequential sweeps only",
        hist.name(),
        hist.num_buckets(),
        start.elapsed().as_secs_f64()
    );

    // The result is identical to what an in-memory build would produce.
    let q = Rect::new(10_000.0, 20_000.0, 20_000.0, 40_000.0);
    println!(
        "sample estimate over {}: {:.0} segments (selectivity {:.4})",
        q,
        hist.estimate_count(&q),
        hist.estimate_selectivity(&q)
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
