//! Golden digest of a 1 000-bucket Min-Skew build.
//!
//! `tests/golden_stats.rs` pins a 100-bucket Charminar build; this pins the
//! shape the `analyze-build` benchmark workload runs: a road network
//! summarised into 1 000 buckets over the default 100 × 100 grid. With a
//! thousand greedy splits, any change to the split search's pick order,
//! tie-breaking or skew arithmetic moves some bucket and so the digest.
//!
//! The digest is FNV-1a (64-bit) over `to_snapshot_bytes`. It was computed
//! at commit d635487, whose split search still scanned every bucket for
//! the best split and scored each candidate through `block_sse`; the
//! tournament tree and the hoisted prefix rows that replaced them must
//! reproduce it bit for bit.

use minskew::datagen::RoadNetworkSpec;
use minskew::prelude::*;

const DIGEST: u64 = 0x3590_307a_96ae_69aa;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn thousand_bucket_road_build_is_pinned() {
    let data = RoadNetworkSpec {
        segments: 60_000,
        ..Default::default()
    }
    .generate(1999);
    let hist = MinSkewBuilder::new(1000).build(&data);
    let digest = fnv1a(&hist.to_snapshot_bytes());
    assert_eq!(digest, DIGEST, "1 000-bucket build drifted: {digest:#018x}");
}
