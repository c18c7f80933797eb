//! Snapshot recovery differential suite: every injected fault kind, against
//! every statistics technique, must end in exactly one of two outcomes —
//!
//! 1. the snapshot still decodes and installs **byte-identical**
//!    statistics (the fault happened to be harmless), or
//! 2. the decoder reports a typed error, the graceful loader quarantines
//!    the file and walks the degradation ladder to a documented rung
//!    ([`StatsFallback::RebuiltFromData`] or [`StatsFallback::Uniform`]),
//!    and every estimate stays finite and clamped to `[0, N]`.
//!
//! Nothing in between: no panic, no silent mis-decode, no unbounded
//! estimate, no stuck table. The base tests run under plain `cargo test`;
//! the exhaustive fault × technique × seed matrix runs under
//! `--features exhaustive` (CI tier), and the arbitrary-byte-mutation
//! property tests under `--features proptest`.

use minskew::prelude::*;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("minskew-snaprec-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const TECHNIQUES: [StatsTechnique; 4] = [
    StatsTechnique::MinSkew,
    StatsTechnique::EquiArea,
    StatsTechnique::EquiCount,
    StatsTechnique::Uniform,
];

fn technique_label(t: StatsTechnique) -> &'static str {
    match t {
        StatsTechnique::MinSkew => "min-skew",
        StatsTechnique::EquiArea => "equi-area",
        StatsTechnique::EquiCount => "equi-count",
        StatsTechnique::Uniform => "uniform",
    }
}

fn analyzed_table(technique: StatsTechnique, n: usize, seed: u64) -> SpatialTable {
    let mut t = SpatialTable::new(TableOptions {
        analyze: AnalyzeOptions {
            technique,
            buckets: 24,
            regions: 1_024,
            ..AnalyzeOptions::default()
        },
        ..TableOptions::default()
    });
    for r in minskew::datagen::charminar_with(n, seed).rects() {
        t.insert(*r);
    }
    t.analyze();
    t
}

/// The core differential: corrupt a valid snapshot with `kind`, then prove
/// the strict and graceful loaders land in one of the two allowed outcomes.
fn assert_recovery_contract(
    dir: &std::path::Path,
    technique: StatsTechnique,
    kind: FaultKind,
    seed: u64,
) {
    let label = format!("{}/{kind:?}/seed{seed}", technique_label(technique));
    let path = dir.join(format!(
        "{}-{kind:?}-{seed}.snap",
        technique_label(technique)
    ));
    let table = analyzed_table(technique, 1_200, seed);
    let pristine = table.stats().expect("analyzed").to_bytes();
    table.save_snapshot(&path).expect("save");

    let good = std::fs::read(&path).expect("readable");
    let mut injector = FaultInjector::new(seed);
    let corrupted = injector.corrupt(&good, kind);
    std::fs::write(&path, &corrupted).expect("rewrite");

    // Strict load: typed error or untouched success, never a panic.
    let mut strict = analyzed_table(technique, 1_200, seed);
    match strict.try_load_snapshot(&path) {
        Ok(_) => {
            // Outcome 1: the fault was harmless (e.g. the identity
            // rename-fault or a bit flip in skipped padding). The installed
            // statistics must be byte-identical to the originals.
            assert_eq!(
                strict.stats().expect("installed").to_bytes(),
                pristine,
                "{label}: survivable fault must decode byte-identically"
            );
        }
        Err(SnapshotIoError::Corrupt(_)) => {
            // Outcome 2 (strict half): previous stats stay installed.
            assert_eq!(
                strict.stats().expect("still installed").to_bytes(),
                pristine,
                "{label}: strict load must not disturb installed stats"
            );
        }
        Err(other) => panic!("{label}: unexpected error class: {other}"),
    }

    // Graceful load: always ends with a working, bounded table.
    let mut graceful = analyzed_table(technique, 1_200, seed);
    let report = graceful.load_snapshot(&path);
    if report.installed {
        assert_eq!(
            graceful.stats().expect("installed").to_bytes(),
            pristine,
            "{label}: graceful install must be byte-identical"
        );
        assert!(report.quarantined.is_none(), "{label}");
    } else {
        assert!(
            matches!(
                report.diagnostics.fallback,
                StatsFallback::RebuiltFromData | StatsFallback::Uniform
            ),
            "{label}: fallback rung {:?} is not a documented recovery rung",
            report.diagnostics.fallback
        );
        assert!(
            report
                .diagnostics
                .last_error
                .as_deref()
                .is_some_and(|e| e.contains("corrupt snapshot")),
            "{label}: recovery must record its trigger"
        );
        let q = report.quarantined.as_ref().expect("quarantined");
        assert!(q.exists(), "{label}: quarantine file must exist");
        assert_eq!(
            std::fs::read(q).expect("quarantine readable"),
            corrupted,
            "{label}: quarantine must preserve the damaged bytes"
        );
        assert!(!path.exists(), "{label}: original path must be cleared");
    }
    // The clamp contract holds in every outcome.
    let n = graceful.len() as f64;
    for q in [
        Rect::new(-1e9, -1e9, 1e9, 1e9),
        Rect::new(0.0, 0.0, 2_000.0, 2_000.0),
        Rect::new(9_500.0, 9_500.0, 9_600.0, 9_600.0),
    ] {
        let est = graceful.estimate(&q);
        assert!(
            est.is_finite() && (0.0..=n).contains(&est),
            "{label}: estimate {est} escapes [0, {n}]"
        );
    }
}

#[test]
fn every_fault_kind_recovers_on_min_skew() {
    let dir = tmp_dir("base");
    for kind in FaultKind::SNAPSHOT {
        assert_recovery_contract(&dir, StatsTechnique::MinSkew, kind, 42);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_round_trip_is_byte_identical_for_every_technique() {
    let dir = tmp_dir("clean");
    for technique in TECHNIQUES {
        let path = dir.join(format!("{}.snap", technique_label(technique)));
        let table = analyzed_table(technique, 900, 7);
        let info = table.save_snapshot(&path).expect("save");
        assert_eq!(info.version, FormatVersion::Container);
        let mut fresh = analyzed_table(technique, 900, 7);
        fresh.try_load_snapshot(&path).expect("load");
        assert_eq!(
            fresh.stats().expect("installed").to_bytes(),
            table.stats().expect("analyzed").to_bytes(),
            "{}: round trip must preserve bytes",
            technique_label(technique)
        );
        // verify is read-only and agrees.
        let on_disk = std::fs::read(&path).expect("readable");
        let verified = verify_snapshot(&on_disk).expect("verifies");
        assert_eq!(verified.buckets, info.buckets);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_write_faults_are_retried_and_permanent_ones_leave_dest_intact() {
    let dir = tmp_dir("atomic");
    let path = dir.join("stats.snap");
    let table = analyzed_table(StatsTechnique::MinSkew, 800, 3);
    table.save_snapshot(&path).expect("seed snapshot");
    let old = std::fs::read(&path).expect("readable");
    let fresh = analyzed_table(StatsTechnique::MinSkew, 800, 99);
    let new_bytes = fresh.stats().expect("analyzed").to_snapshot_bytes();
    let opts = minskew::data::atomic::AtomicWriteOptions {
        max_attempts: 4,
        initial_backoff: std::time::Duration::from_micros(50),
    };
    // Two transient rename failures: the bounded retry heals them.
    minskew::data::write_atomic_chaos(&path, &new_bytes, &opts, FaultKind::RenameFail, 1, 2, true)
        .expect("retry must heal transient faults");
    assert_eq!(std::fs::read(&path).expect("readable"), new_bytes);
    // Failures outlasting the budget: typed error, destination untouched.
    std::fs::write(&path, &old).expect("reset");
    let err = minskew::data::write_atomic_chaos(
        &path,
        &new_bytes,
        &opts,
        FaultKind::RenameFail,
        1,
        99,
        true,
    )
    .expect_err("budget exhausted");
    assert_eq!(err.attempts, 4);
    assert_eq!(
        std::fs::read(&path).expect("readable"),
        old,
        "failed atomic write must leave the previous snapshot whole"
    );
    // Torn temp-file writes also never reach the destination.
    for seed in 0..8 {
        let _ = minskew::data::write_atomic_chaos(
            &path,
            &new_bytes,
            &opts,
            FaultKind::TornWrite,
            seed,
            99,
            false,
        );
        let now = std::fs::read(&path).expect("readable");
        assert_eq!(now, old, "seed {seed}: destination torn");
        assert!(
            verify_snapshot(&now).is_ok(),
            "seed {seed}: destination must stay a valid snapshot"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Exhaustive CI matrix: every snapshot fault kind × every technique ×
/// several seeds. Run with `cargo test --test snapshot_recovery
/// --features exhaustive`.
#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_fault_technique_matrix() {
    let dir = tmp_dir("matrix");
    for technique in TECHNIQUES {
        for kind in FaultKind::SNAPSHOT {
            for seed in [1u64, 2, 3, 17, 1_000_003] {
                assert_recovery_contract(&dir, technique, kind, seed);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Decode totality under arbitrary mutation: no byte string, however
/// mangled, may panic the snapshot decoder. Run with `--features proptest`.
#[cfg(feature = "proptest")]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    fn container_bytes() -> Vec<u8> {
        let table = analyzed_table(StatsTechnique::MinSkew, 400, 11);
        table.stats().expect("analyzed").to_snapshot_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary bytes: decode returns Ok or a typed error, never
        /// panics, and verify agrees with decode about validity.
        #[test]
        fn decode_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let decoded = SpatialHistogram::from_snapshot_bytes(&bytes);
            let verified = verify_snapshot(&bytes);
            prop_assert_eq!(decoded.is_ok(), verified.is_ok());
        }

        /// Point mutations of a valid container: flip any byte to any
        /// value, decode stays total; an accepted mutant must still
        /// satisfy the decoder's own invariants (re-encode round trips).
        #[test]
        fn decode_survives_point_mutations(offset in 0usize..6_000, value in any::<u8>()) {
            let mut bytes = container_bytes();
            let len = bytes.len();
            bytes[offset % len] = value;
            if let Ok((hist, info)) = SpatialHistogram::from_snapshot_bytes(&bytes) {
                prop_assert!(info.buckets <= minskew::estimators::MAX_SNAPSHOT_BUCKETS);
                let reencoded = hist.to_snapshot_bytes();
                prop_assert!(SpatialHistogram::from_snapshot_bytes(&reencoded).is_ok());
            }
        }

        /// Fault-injector corpus: structured corruption (the kinds real
        /// storage produces) is decoded totally too.
        #[test]
        fn decode_is_total_on_injected_faults(seed in any::<u64>()) {
            let good = container_bytes();
            let mut injector = FaultInjector::new(seed);
            for kind in FaultKind::ALL {
                let corrupted = injector.corrupt(&good, kind);
                let _ = SpatialHistogram::from_snapshot_bytes(&corrupted);
                let _ = verify_snapshot(&corrupted);
            }
        }
    }
}
