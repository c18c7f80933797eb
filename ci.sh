#!/usr/bin/env bash
# Continuous-integration gate for the minskew workspace.
#
# Mirrors what reviewers run by hand, in this order:
#   1. formatting is canonical,
#   2. clippy is clean at -D warnings across every target — the library
#      crates (core/engine/data) additionally deny `unwrap()` in non-test
#      code via #![cfg_attr(not(test), deny(clippy::unwrap_used))],
#   3. rustdoc is clean at -D warnings over the workspace's public docs:
#      no broken intra-doc link and none to a private item (--no-deps,
#      so only the workspace's own crates are documented),
#   4. the tier-1 suite: plain `cargo test`, which through the root
#      workspace's default-members runs the root package and every crate
#      under crates/ (their unit tests and oracles included),
#   5. the full workspace suite with every feature (incl. proptest suites),
#   6. the benchmark package's own formatting, clippy at -D warnings over
#      all its targets, and tests in release mode: it is a package of its
#      own outside the workspace, so no --workspace gate compiles or lints
#      it against a changed crate API,
#   7. the kernel-vs-linear serving differential suite, exhaustive matrix
#      on, pinned to one test thread so scheduler interleaving can't mask
#      ordering bugs. Steps 7-9 and 11-13 each turn the exhaustive matrix
#      on with the one root feature, --features exhaustive, and run one
#      test binary,
#   8. the observability differential suite (metrics on vs off serve the
#      same bytes), exhaustive matrix on, single test thread,
#   9. the snapshot recovery differential suite, exhaustive fault-kind ×
#      technique matrix on, single test thread (filesystem quarantine
#      paths must not interleave),
#  10. the serving stress suite (readers racing ≥1000 statistics
#      installs, every observed estimate bitwise old-or-new), the
#      publication cell's and the flight ring's concurrency unit tests in
#      release mode, where interleavings are densest, and the wire
#      protocol golden suite, all pinned to one test thread so the stress
#      owns its thread budget,
#  11. the kernel differential suite pinning the SoA clip-and-accumulate
#      plane bit-identical to the AoS reference fold, and its AVX2 scan
#      (compiled on every x86_64 build) to its portable scalar body:
#      exhaustive matrix on, single test thread so
#      runtime dispatch is exercised deterministically; then the kernel
#      module's unit tests in release mode (the plane's bit pins: patched
#      equals rebuilt, `locate` equals the linear scan, the pruning
#      counters equal a brute-force count), single test thread,
#  12. the online-refine differential suite (clamping/partition/codec/
#      Off-inertness invariants, exhaustive dataset × budget × feedback
#      matrix on, single test thread),
#  13. the query-tracing differential suite (EXPLAIN bitwise equal to the
#      kernel serving path, term sums reproducing estimates exactly,
#      flight recorder / trace ids bit-invisible; exhaustive matrix on,
#      single test thread),
#  14. the allocation-count suite (tests/alloc_free.rs: a counting global
#      allocator pins the warm reader estimate and batch bodies and the
#      table's sampled estimate at exactly zero allocations; counted
#      process-wide, 2048 wire ESTIMATEs, 100 wire BATCHes of 64 and an
#      idle server for 500 ms at zero and a wire EXPLAIN at its documented
#      count; and the live-heap high-water check that a first load of
#      100 000 rows peaks at most 20 bytes per row over its start or end
#      state), single test thread like steps 7-13,
#  15. a focused clippy pass over minskew-obs denying `unwrap()` even in
#      the presence of poisoned-lock recovery paths,
#  16. a focused clippy pass over the serving-path crates that additionally
#      denies needless_collect / redundant_clone — the serving path is
#      allocation-free by design and those lints catch regressions,
#  17. a CLI serve smoke: start `minskew serve` on an ephemeral port, run
#      a catalog-client round trip against it — including a STATS check
#      that the --input load put every row in with one publication (plus
#      one for its ANALYZE) before any write, the MAINTAIN
#      maintenance surface, trace-id echo, the EXPLAIN/FLIGHT/METRICS
#      observability verbs (a table-less `catalog flight` is a local usage
#      error, and the table's METRICS carries engine.flight.recorded), a
#      raw malformed-TID fuzz probe, a raw
#      three-request pipelined burst answered in order, the offline
#      `minskew explain` surface (over a freshly built stats file and over
#      the committed charminar.stats, as README shows it), and a bounded
#      `minskew top` scrape —
#      shut it down over the wire, and require a clean exit plus an
#      emitted metrics dump,
#  18. a CLI maintain smoke: the offline `minskew maintain` churn demo
#      must run in every maintenance mode and reject unknown ones,
#  19. a CLI stats smoke: `minskew stats --json` over the generated
#      2000-row charminar input must carry the counter and histogram names
#      README quotes (engine.query.calls, engine.batch.queries, engine.estimate.min_skew.ns,
#      engine.analyze.grid_reused, engine.analyze.grid_built, and the
#      ANALYZE part timings engine.analyze.stats_ns,
#      engine.analyze.min_skew.grid_ns, engine.analyze.min_skew.prefix_ns,
#      engine.analyze.min_skew.split_ns, engine.analyze.min_skew.assign_ns
#      and engine.analyze.publish_ns, and the row-sweep counter
#      engine.analyze.row_sweeps, and the state gauges
#      engine.stats.generation and engine.stats.bytes that the table reads
#      at scrape time), must count
#      at least one built grid for its one ANALYZE, and must carry none of
#      the deleted names (engine.batch.cache_bypass, engine.query.clamp_ns,
#      engine.cache.hits)
#      nor any name of the deleted process-wide registry (core.build.*,
#      par.*),
#  20. checks that the committed BENCH_obs.json is a full-scale run
#      (`"quick": false`) with its flight-recorder overhead column, and
#      that the committed BENCH_snapshot.json, BENCH_parallel.json,
#      BENCH_estimate.json and BENCH_refine.json are full-scale runs,
#      since README and DESIGN quote them,
#  21. smoke runs of the parallel-speedup, serving-throughput (asserting
#      the qps_kernel and qps_kernel_scalar columns are present in the
#      emitted artefact), obs-overhead (asserting the flight-recorder
#      overhead column is present in the emitted artefact),
#      snapshot-persistence, and refine-churn benches, which re-check the
#      differential contracts inline and must leave BENCH_parallel.json /
#      BENCH_estimate.json / BENCH_obs.json / BENCH_snapshot.json /
#      BENCH_refine.json behind at the workspace root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test (tier 1)"
cargo test -q

echo "==> cargo test --workspace --all-features"
cargo test -q --workspace --all-features

echo "==> benchmark package fmt, clippy and tests (outside the workspace)"
cargo fmt --manifest-path minskew-benchmark/Cargo.toml --check
cargo clippy --release --manifest-path minskew-benchmark/Cargo.toml --all-targets -- -D warnings
cargo test -q --release --manifest-path minskew-benchmark/Cargo.toml

echo "==> serving differential suite (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test serving_differential --features exhaustive

echo "==> observability differential suite (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test obs_differential --features exhaustive

echo "==> snapshot recovery differential suite (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test snapshot_recovery --features exhaustive

echo "==> serving stress suite (single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test serve_stress
RUST_TEST_THREADS=1 cargo test -q --release -p minskew-engine publish::
RUST_TEST_THREADS=1 cargo test -q --release -p minskew-obs flight::

echo "==> wire protocol golden suite (single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test serve_protocol

echo "==> kernel differential suite (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test kernel_differential --features exhaustive
RUST_TEST_THREADS=1 cargo test -q --release -p minskew-core kernel::

echo "==> online-refine differential suite (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test refine_differential --features exhaustive

echo "==> query-tracing differential suite (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test trace_differential --features exhaustive

echo "==> allocation-count suite (single test thread)"
RUST_TEST_THREADS=1 cargo test -q --test alloc_free

echo "==> clippy (minskew-obs, unwrap denied everywhere)"
cargo clippy -p minskew-obs --all-targets -- -D warnings -D clippy::unwrap_used

echo "==> clippy (serving crates, allocation lints denied)"
cargo clippy -p minskew-core -p minskew-engine --all-targets -- \
    -D warnings -D clippy::needless_collect -D clippy::redundant_clone

echo "==> CLI serve smoke (ephemeral port, wire shutdown, metrics dump)"
cargo build -q -p minskew-cli
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
./target/debug/minskew generate --kind charminar --n 2000 --out "$SERVE_TMP/data.csv" >/dev/null
./target/debug/minskew serve --addr 127.0.0.1:0 --port-file "$SERVE_TMP/port" \
    --input "$SERVE_TMP/data.csv" --table roads --buckets 50 \
    > "$SERVE_TMP/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do [[ -s "$SERVE_TMP/port" ]] && break; sleep 0.1; done
if [[ ! -s "$SERVE_TMP/port" ]]; then
    echo "ERROR: serve did not write its port file" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
SERVE_ADDR="$(tr -d '\n' < "$SERVE_TMP/port")"
./target/debug/minskew catalog ping --addr "$SERVE_ADDR" >/dev/null
# The --input load, before any mutating call: every row in, and exactly two
# publications, one for the bulk load and one for its ANALYZE.
LOAD_STATS=$(./target/debug/minskew catalog stats --addr "$SERVE_ADDR" --name roads)
if [[ "$LOAD_STATS" != *'"rows":2000,'* || "$LOAD_STATS" != *'"generation":2,'* ]]; then
    echo "ERROR: --input load should give rows 2000 at generation 2: $LOAD_STATS" >&2
    exit 1
fi
./target/debug/minskew catalog estimate --addr "$SERVE_ADDR" --name roads \
    --query 60,25,65,30 >/dev/null
# The maintenance surface: switch the table to online refine, run a
# maintenance pass, and require STATS to report the mode and staleness.
./target/debug/minskew catalog maintain --addr "$SERVE_ADDR" --name roads \
    --mode refine >/dev/null
./target/debug/minskew catalog maintain --addr "$SERVE_ADDR" --name roads >/dev/null
if ! ./target/debug/minskew catalog stats --addr "$SERVE_ADDR" --name roads \
    | grep -q '"maintenance":"refine"'; then
    echo "ERROR: STATS does not report the maintenance mode" >&2
    exit 1
fi
# A bogus mode must be a usage error (exit code 2) before any round trip.
if ./target/debug/minskew catalog maintain --addr "$SERVE_ADDR" --name roads \
    --mode bogus 2>/dev/null; then
    echo "ERROR: catalog client did not reject an unknown maintenance mode" >&2
    exit 1
fi
# An unknown table must surface the server's usage error as exit code 2.
if ./target/debug/minskew catalog estimate --addr "$SERVE_ADDR" --name ghost \
    --query 0,0,1,1 2>/dev/null; then
    echo "ERROR: catalog client did not fail on an unknown table" >&2
    exit 1
fi
# Trace ids: a tagged request round-trips (the client verifies and strips
# the TID= echo), and a locally-invalid token is a usage error before any
# bytes hit the wire.
./target/debug/minskew catalog estimate --addr "$SERVE_ADDR" --name roads \
    --query 60,25,65,30 --tid ci-smoke-1 >/dev/null
if ./target/debug/minskew catalog ping --addr "$SERVE_ADDR" \
    --tid 'bad!token' 2>/dev/null; then
    echo "ERROR: catalog client accepted an invalid trace id" >&2
    exit 1
fi
# The observability verbs: EXPLAIN carries the estimate headline, FLIGHT
# drains a table's pinned JSONL, METRICS scrapes both registries in both
# formats.
EXPLAIN_OUT=$(./target/debug/minskew catalog explain --addr "$SERVE_ADDR" \
    --name roads --query 60,25,65,30)
if [[ "$EXPLAIN_OUT" != *'"estimate":'* ]]; then
    echo "ERROR: catalog explain did not return an estimate trace" >&2
    exit 1
fi
# Every drain names its table: without --name the client exits 2 before
# any round trip.
FLIGHT_STATUS=0
./target/debug/minskew catalog flight --addr "$SERVE_ADDR" 2>/dev/null || FLIGHT_STATUS=$?
if [[ "$FLIGHT_STATUS" != 2 ]]; then
    echo "ERROR: catalog flight without --name exited $FLIGHT_STATUS (want 2)" >&2
    exit 1
fi
./target/debug/minskew catalog flight --addr "$SERVE_ADDR" --name roads \
    --limit 5 >/dev/null
METRICS_OUT=$(./target/debug/minskew catalog metrics --addr "$SERVE_ADDR")
if [[ "$METRICS_OUT" != *'minskew-obs/v1'* ]]; then
    echo "ERROR: catalog metrics did not return a schema-tagged scrape" >&2
    exit 1
fi
TABLE_METRICS=$(./target/debug/minskew catalog metrics --addr "$SERVE_ADDR" \
    --name roads --format text)
if ! grep -q '^engine\.flight\.recorded ' <<< "$TABLE_METRICS"; then
    echo "ERROR: the table's METRICS lacks engine.flight.recorded" >&2
    exit 1
fi
# Malformed-TID fuzz straight over the wire: the reply must be a typed
# usage error with no TID= echo, and the connection must stay usable.
exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
printf 'TID=bad!token PING\nPING\n' >&3
IFS= read -r TID_REPLY <&3
IFS= read -r PING_REPLY <&3
exec 3>&- 3<&-
case "$TID_REPLY" in
    "ERR 2 "*) ;;
    *)
        echo "ERROR: malformed TID got \"$TID_REPLY\" (want un-echoed ERR 2)" >&2
        exit 1
        ;;
esac
if [[ "$PING_REPLY" != "OK pong" ]]; then
    echo "ERROR: connection wedged after malformed TID: \"$PING_REPLY\"" >&2
    exit 1
fi
# Pipelining: three requests in one write get three replies, in order.
exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
printf 'PING\nESTIMATE roads 60 25 65 30\nPING\n' >&3
IFS= read -r -t 10 PIPE_1 <&3 || true
IFS= read -r -t 10 PIPE_2 <&3 || true
IFS= read -r -t 10 PIPE_3 <&3 || true
exec 3>&- 3<&-
if [[ "$PIPE_1" != "OK pong" || "$PIPE_2" != "OK "* || "$PIPE_3" != "OK pong" ]]; then
    echo "ERROR: pipelined burst got \"$PIPE_1\" / \"$PIPE_2\" / \"$PIPE_3\"" >&2
    exit 1
fi
# The live dashboard: a bounded scrape against the running server.
./target/debug/minskew top --addr "$SERVE_ADDR" --name roads \
    --interval 0.2 --iterations 2 >/dev/null
./target/debug/minskew catalog shutdown --addr "$SERVE_ADDR" >/dev/null
if ! wait "$SERVE_PID"; then
    echo "ERROR: serve did not exit cleanly after wire shutdown" >&2
    exit 1
fi
if ! grep -q "serve.requests" "$SERVE_TMP/serve.log"; then
    echo "ERROR: serve did not emit its metrics registry on shutdown" >&2
    exit 1
fi

echo "==> CLI maintain smoke (every maintenance mode, bad mode rejected)"
for MODE in off reanalyze refine; do
    ./target/debug/minskew maintain --input "$SERVE_TMP/data.csv" \
        --mode "$MODE" --rounds 2 --queries 100 >/dev/null
done
if ./target/debug/minskew maintain --input "$SERVE_TMP/data.csv" \
    --mode bogus 2>/dev/null; then
    echo "ERROR: minskew maintain did not reject an unknown mode" >&2
    exit 1
fi

echo "==> CLI explain smoke (offline EXPLAIN against a built and the committed stats file)"
./target/debug/minskew build --input "$SERVE_TMP/data.csv" \
    --technique min-skew --buckets 50 --out "$SERVE_TMP/stats.bin" >/dev/null
EXPLAIN_CLI_OUT=$(./target/debug/minskew explain --stats "$SERVE_TMP/stats.bin" \
    --query 60,25,65,30 --terms 3)
if [[ "$EXPLAIN_CLI_OUT" != *'bit-identical'* ]]; then
    echo "ERROR: minskew explain did not certify bit-identity" >&2
    exit 1
fi
# README's own command, over the committed statistics file.
README_EXPLAIN_OUT=$(./target/debug/minskew explain --stats charminar.stats \
    --query 60,25,65,30 --terms 3)
if [[ "$README_EXPLAIN_OUT" != *'bit-identical'* \
    || "$README_EXPLAIN_OUT" != *'reproduces the estimate exactly'* ]]; then
    echo "ERROR: minskew explain over charminar.stats did not certify its estimate:" \
        "$README_EXPLAIN_OUT" >&2
    exit 1
fi

echo "==> CLI stats smoke (minskew stats --json metric names)"
STATS_JSON=$(./target/debug/minskew stats --input "$SERVE_TMP/data.csv" --json)
for NAME in engine.query.calls engine.batch.queries \
    engine.estimate.min_skew.ns engine.analyze.grid_reused \
    engine.analyze.grid_built engine.analyze.stats_ns \
    engine.analyze.min_skew.grid_ns engine.analyze.min_skew.prefix_ns \
    engine.analyze.min_skew.split_ns engine.analyze.min_skew.assign_ns \
    engine.analyze.publish_ns engine.analyze.row_sweeps \
    engine.stats.generation engine.stats.bytes; do
    if [[ "$STATS_JSON" != *"\"$NAME\""* ]]; then
        echo "ERROR: minskew stats --json is missing $NAME" >&2
        exit 1
    fi
done
if ! grep -Eq '"engine\.analyze\.grid_built": [1-9]' <<< "$STATS_JSON"; then
    echo "ERROR: minskew stats --json counts no built density grid for its ANALYZE" >&2
    exit 1
fi
for NAME in engine.batch.cache_bypass engine.query.clamp_ns engine.cache.hits; do
    if [[ "$STATS_JSON" == *"\"$NAME\""* ]]; then
        echo "ERROR: minskew stats --json still reports the deleted $NAME" >&2
        exit 1
    fi
done
for PREFIX in core.build. par.; do
    if [[ "$STATS_JSON" == *"\"$PREFIX"* ]]; then
        echo "ERROR: minskew stats --json still reports a $PREFIX* metric" >&2
        exit 1
    fi
done

echo "==> committed BENCH_obs.json is full scale, with the recorder column"
if ! grep -q '"quick": false' BENCH_obs.json || ! grep -q '"recorder_overhead_pct"' BENCH_obs.json; then
    echo "ERROR: the committed BENCH_obs.json must be a full-scale run (\"quick\": false)" \
        "with a recorder_overhead_pct column" >&2
    exit 1
fi

echo "==> committed BENCH_snapshot.json, BENCH_parallel.json, BENCH_estimate.json and BENCH_refine.json are full scale"
for BENCH in BENCH_snapshot.json BENCH_parallel.json BENCH_estimate.json BENCH_refine.json; do
    if ! grep -q '"quick": false' "$BENCH"; then
        echo "ERROR: the committed $BENCH must be a full-scale run (\"quick\": false)" >&2
        exit 1
    fi
done

echo "==> parallel speedup bench smoke (MINSKEW_QUICK=1)"
rm -f BENCH_parallel.json
MINSKEW_QUICK=1 cargo bench -p minskew-bench --bench parallel_speedup >/dev/null
if [[ ! -f BENCH_parallel.json ]]; then
    echo "ERROR: bench did not write BENCH_parallel.json" >&2
    exit 1
fi
# The smoke run overwrites the committed full-scale numbers; restore them
# so CI never silently rewrites the benchmark artefact.
git checkout -- BENCH_parallel.json 2>/dev/null || true

echo "==> serving throughput bench smoke (MINSKEW_QUICK=1)"
rm -f BENCH_estimate.json
MINSKEW_QUICK=1 cargo bench -p minskew-bench --bench serving_throughput >/dev/null
if [[ ! -f BENCH_estimate.json ]]; then
    echo "ERROR: bench did not write BENCH_estimate.json" >&2
    exit 1
fi
for COLUMN in qps_kernel qps_kernel_scalar; do
    if ! grep -q "\"$COLUMN\"" BENCH_estimate.json; then
        echo "ERROR: BENCH_estimate.json is missing the $COLUMN column" >&2
        exit 1
    fi
done
git checkout -- BENCH_estimate.json 2>/dev/null || true

echo "==> observability overhead bench smoke (MINSKEW_QUICK=1)"
rm -f BENCH_obs.json
MINSKEW_QUICK=1 cargo bench -p minskew-bench --bench obs_overhead >/dev/null
if [[ ! -f BENCH_obs.json ]]; then
    echo "ERROR: bench did not write BENCH_obs.json" >&2
    exit 1
fi
if ! grep -q '"recorder_overhead_pct"' BENCH_obs.json; then
    echo "ERROR: BENCH_obs.json is missing the flight-recorder column" >&2
    exit 1
fi
git checkout -- BENCH_obs.json 2>/dev/null || true

echo "==> snapshot persistence bench smoke (MINSKEW_QUICK=1)"
rm -f BENCH_snapshot.json
MINSKEW_QUICK=1 cargo bench -p minskew-bench --bench snapshot_persistence >/dev/null
if [[ ! -f BENCH_snapshot.json ]]; then
    echo "ERROR: bench did not write BENCH_snapshot.json" >&2
    exit 1
fi
git checkout -- BENCH_snapshot.json 2>/dev/null || true

echo "==> refine churn bench smoke (MINSKEW_QUICK=1)"
rm -f BENCH_refine.json
MINSKEW_QUICK=1 cargo bench -p minskew-bench --bench refine_churn >/dev/null
if [[ ! -f BENCH_refine.json ]]; then
    echo "ERROR: bench did not write BENCH_refine.json" >&2
    exit 1
fi
git checkout -- BENCH_refine.json 2>/dev/null || true

echo "CI OK"
