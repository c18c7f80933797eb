//! Golden test: the committed `charminar.stats` pins the snapshot container
//! format, the statistics wire codec, and the Min-Skew construction
//! algorithm, all at once.
//!
//! The file is produced by `examples/summary_persistence.rs`
//! (`charminar_with(30_000, 5)` summarised by `MinSkewBuilder::new(100)`
//! with default settings, sealed with `to_snapshot_bytes`). Decoding it,
//! re-encoding it, and rebuilding it from scratch must all reproduce the
//! committed bytes exactly, so any container drift (header layout, section
//! table, checksum algorithm), codec drift (payload layout, endianness), or
//! construction drift (split order, tie-breaking, skew arithmetic) fails
//! tier-1 loudly instead of silently invalidating every catalog ever
//! persisted.
//!
//! If this test fails because of an *intentional* format or algorithm
//! change, regenerate the golden file with
//! `cargo run --release --example summary_persistence` and say so in the
//! commit message — that is a catalog-breaking change.

use minskew::prelude::*;

fn golden_bytes() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/charminar.stats");
    std::fs::read(path).expect("committed charminar.stats is readable")
}

#[test]
fn golden_stats_round_trips_byte_for_byte() {
    let bytes = golden_bytes();
    let info = verify_snapshot(&bytes).expect("committed golden snapshot verifies");
    assert_eq!(info.version, FormatVersion::Container);
    assert_eq!(info.technique, "Min-Skew");
    let (hist, _) =
        SpatialHistogram::from_snapshot_bytes(&bytes).expect("committed golden file decodes");
    assert_eq!(
        hist.to_snapshot_bytes(),
        bytes,
        "re-sealing the committed histogram changed its bytes: container or codec drift"
    );
}

#[test]
fn golden_stats_matches_fresh_construction() {
    let bytes = golden_bytes();
    let data = minskew::datagen::charminar_with(30_000, 5);
    let rebuilt = MinSkewBuilder::new(100).build(&data);
    assert_eq!(
        rebuilt.to_snapshot_bytes(),
        bytes,
        "rebuilding diverged from the committed golden file: construction drift"
    );
}

#[test]
fn golden_stats_sanity() {
    let (hist, _) = SpatialHistogram::from_snapshot_bytes(&golden_bytes()).expect("decodes");
    assert_eq!(hist.num_buckets(), 100);
    // The summary must still describe the Charminar distribution: the four
    // corner clusters hold most of the mass.
    let corner = Rect::new(0.0, 0.0, 2_500.0, 2_500.0);
    let middle = Rect::new(3_750.0, 3_750.0, 6_250.0, 6_250.0);
    assert!(hist.estimate_count(&corner) > hist.estimate_count(&middle));
}

#[test]
fn golden_stats_payload_decodes_via_legacy_shim() {
    // The container's payload section is exactly the legacy on-disk format:
    // extracting it and handing it to the decoder exercises the
    // backwards-compatibility shim every pre-container catalog depends on.
    let (hist, _) = SpatialHistogram::from_snapshot_bytes(&golden_bytes()).expect("decodes");
    let legacy = hist.to_bytes();
    let (via_shim, info) =
        SpatialHistogram::from_snapshot_bytes(&legacy).expect("legacy shim decodes");
    assert_eq!(info.version, FormatVersion::Legacy);
    assert_eq!(via_shim.to_bytes(), legacy);
}
