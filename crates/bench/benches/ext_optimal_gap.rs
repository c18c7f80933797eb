//! Extension experiment: the greedy/optimal gap.
//!
//! The paper justifies greedy Min-Skew by the infeasibility of the exact
//! dynamic-programming BSP ([MPS99], Ω(N^2.5)). With both implemented we
//! can *measure* the trade: on grids small enough for the DP, how much
//! spatial skew does the greedy heuristic leave on the table, and at what
//! construction-cost ratio?
//!
//! Expected: greedy within a small factor of optimal skew (V-optimal-style
//! greedy splitting is known to be near-optimal on smooth distributions)
//! while being orders of magnitude faster — evidence the paper's heuristic
//! choice was sound.

use minskew_bench::{charminar_scaled, time_it, Scale};
use minskew_core::{optimal_bsp_skew, MinSkewBuilder};
use minskew_data::DensityGrid;

fn main() {
    let scale = Scale::from_env();
    let data = charminar_scaled(scale);
    let side = 12; // 144 regions: DP-feasible
    let grid = DensityGrid::build(data.rects().iter(), data.stats().mbr, side, side);

    println!("\n## Greedy vs optimal BSP (Charminar, {side}x{side} grid)\n");
    println!("| buckets | greedy skew | optimal skew | gap | greedy (ms) | optimal (ms) |");
    println!("|---------|-------------|--------------|-----|-------------|--------------|");
    for buckets in [4usize, 8, 16, 32, 64] {
        let (greedy, g_secs) = time_it(|| {
            MinSkewBuilder::new(buckets)
                .regions(side * side)
                .build_detailed(&data)
                .1
                .spatial_skew
        });
        let (optimal, o_secs) = time_it(|| optimal_bsp_skew(&grid, buckets));
        let gap = if optimal > 0.0 {
            format!("{:+.1}%", (greedy / optimal - 1.0) * 100.0)
        } else if greedy > 1e-9 {
            "inf".to_owned()
        } else {
            "0.0%".to_owned()
        };
        println!(
            "| {buckets:>7} | {greedy:>11.0} | {optimal:>12.0} | {gap:>4} | {:>11.2} | {:>12.2} |",
            g_secs * 1e3,
            o_secs * 1e3
        );
    }
    println!(
        "\n(note: greedy timings include the full build — the data sweep \
         and the bucket summaries — while the DP timing is the pure search)"
    );
}
