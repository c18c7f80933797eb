//! Micro-benchmarks for the R\*-tree substrate itself: insertion, bulk
//! loading, range counting, and deletion. These are the index's own
//! performance envelope, separate from its role as a partitioning source.
//!
//! Formerly a criterion harness; the workspace now builds with no external
//! dependencies, so this uses a small median-of-runs timer instead.

use minskew_bench::time_it;
use minskew_datagen::SyntheticSpec;
use minskew_geom::{Point, Rect};
use minskew_rtree::{Item, RStarTree, RTreeConfig};

const N: usize = 50_000;
const RUNS: usize = 10;

fn dataset() -> Vec<Rect> {
    SyntheticSpec::default()
        .with_n(N)
        .generate(0xFEED)
        .rects()
        .to_vec()
}

/// Times `f` RUNS times and prints min/median wall-clock seconds.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let (out, secs) = time_it(&mut f);
            std::hint::black_box(out);
            secs
        })
        .collect();
    times.sort_by(f64::total_cmp);
    println!(
        "| {name:<24} | {:>10.3} ms | {:>10.3} ms |",
        times[0] * 1e3,
        times[times.len() / 2] * 1e3,
    );
}

fn header(title: &str) {
    println!("\n## {title}\n");
    println!("| {:<24} | {:>13} | {:>13} |", "bench", "min", "median");
    println!("|{}|{}|{}|", "-".repeat(26), "-".repeat(15), "-".repeat(15));
}

fn main() {
    let rects = dataset();

    header("rtree_build_50k");
    bench("insertion", || {
        let mut t = RStarTree::new(RTreeConfig::default());
        for (i, &r) in rects.iter().enumerate() {
            t.insert(r, i);
        }
        t
    });
    bench("str_bulk", || {
        RStarTree::bulk_load(
            RTreeConfig::default(),
            rects
                .iter()
                .enumerate()
                .map(|(i, &r)| Item::new(r, i))
                .collect(),
        )
    });
    bench("hilbert_bulk", || {
        RStarTree::bulk_load_hilbert(
            RTreeConfig::default(),
            rects
                .iter()
                .enumerate()
                .map(|(i, &r)| Item::new(r, i))
                .collect(),
        )
    });

    let tree = RStarTree::bulk_load(
        RTreeConfig::with_max_entries(64),
        rects
            .iter()
            .enumerate()
            .map(|(i, &r)| Item::new(r, i))
            .collect(),
    );
    let mbr = tree.mbr();
    let queries: Vec<Rect> = (0..256)
        .map(|i| {
            let fx = (i % 16) as f64 / 16.0;
            let fy = (i / 16) as f64 / 16.0;
            let cx = mbr.lo.x + fx * mbr.width();
            let cy = mbr.lo.y + fy * mbr.height();
            Rect::from_center_size(Point::new(cx, cy), mbr.width() * 0.05, mbr.height() * 0.05)
        })
        .collect();

    header("rtree_query_50k");
    bench("count_256_range_queries", || {
        let mut acc = 0usize;
        for q in &queries {
            acc += tree.count_intersecting(q);
        }
        acc
    });

    header("rtree_mutation");
    let mut base = RStarTree::new(RTreeConfig::default());
    for (i, &r) in rects.iter().enumerate() {
        base.insert(r, i);
    }
    bench("remove_reinsert_1000", || {
        let mut t = base.clone();
        for (i, &r) in rects.iter().enumerate().take(1_000) {
            assert!(t.remove(&r, &i));
        }
        for (i, &r) in rects.iter().enumerate().take(1_000) {
            t.insert(r, i);
        }
        t
    });
    println!();
}
