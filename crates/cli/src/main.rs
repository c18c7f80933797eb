//! `minskew` — command-line driver for the spatial selectivity estimation
//! library.
//!
//! Subcommands:
//!
//! ```text
//! minskew generate --kind charminar|road|synthetic|uniform|points
//!                  [--n N] [--seed S] --out data.csv
//! minskew build    --input data.csv --technique min-skew|equi-area|
//!                  equi-count|rtree|uniform [--buckets B] [--regions R]
//!                  [--refinements K] [--trace] --out stats.snap
//! minskew estimate --stats stats.snap --query x1,y1,x2,y2 [--input data.csv]
//!                  [--trace]
//! minskew explain  --stats stats.snap --query x1,y1,x2,y2 [--input data.csv]
//!                  [--terms N]
//! minskew evaluate --input data.csv [--buckets B] [--qsize F]
//!                  [--queries N] [--seed S]
//! minskew tune     --input data.csv [--buckets B] [--queries N]
//!                  [--out stats.snap]
//! minskew render   --input data.csv --technique <t> [--buckets B]
//!                  --out out.svg
//! minskew stats    --input data.csv [--buckets B] [--queries N]
//!                  [--qsize F] [--seed S] [--json]
//! minskew maintain --input data.csv [--mode off|reanalyze|refine]
//!                  [--buckets B] [--rounds R] [--queries N] [--qsize F]
//!                  [--seed S]
//! minskew snapshot save --stats legacy.bin --out stats.snap
//! minskew snapshot verify --snapshot stats.snap
//! minskew snapshot load --snapshot stats.snap --input data.csv
//! minskew serve    [--addr A] [--port-file F] [--input data.csv]
//!                  [--table NAME] [--buckets B] [--technique T]
//! minskew catalog  <action> --addr HOST:PORT [action flags]
//! minskew top      --addr HOST:PORT [--name TABLE] [--interval SECS]
//!                  [--iterations N]
//! ```
//!
//! Every subcommand rejects a flag it does not know as a usage error,
//! before it does any work.
//!
//! `build --trace` prints the build time (and the Min-Skew per-split audit
//! trail); `estimate --trace` prints the time of each stage of the query;
//! `stats` drives a serving workload through the query engine and dumps
//! the table's metrics snapshot (human-readable, or the `minskew-obs/v1`
//! JSON document with `--json`).
//!
//! Dataset files are `x1,y1,x2,y2` CSV. Every statistics file the CLI
//! writes is a checksummed snapshot container, installed through the
//! crash-safe atomic write protocol; every reader also accepts a legacy
//! bare-codec file, which `snapshot save --stats` re-seals.
//!
//! Failures never panic: every error is mapped to a category with a stable
//! process exit code, so scripts can branch on the failure class:
//!
//! | exit code | meaning |
//! |---|---|
//! | 0 | success |
//! | 2 | usage error (bad flags, unknown subcommand) |
//! | 3 | I/O error (missing/unwritable file) |
//! | 4 | malformed dataset (CSV parse error) |
//! | 5 | corrupt statistics file (codec or snapshot container rejected it) |
//! | 6 | statistics construction failed (empty data, bad budget, …) |
//!
//! `snapshot verify` maps every container-integrity failure (bad magic,
//! checksum mismatch, truncation, malformed payload) to exit code 5, so
//! health checks can distinguish "the snapshot is damaged" from plain I/O
//! trouble (exit 3). `snapshot load` demonstrates the engine's graceful
//! recovery instead, so it needs the data to rebuild from (`--input`).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod serve;

use std::collections::HashMap;
use std::process::ExitCode;

use minskew_core::{
    build_uniform, simd_level, try_build_equi_area, try_build_equi_count,
    try_build_rtree_partitioning, BuildError, FractalEstimator, KernelScratch, MinSkewBuildTrace,
    MinSkewBuilder, RTreePartitioningOptions, SamplingEstimator, SpatialEstimator,
    SpatialHistogram,
};
use minskew_core::{FormatVersion, SnapshotInfo};
use minskew_data::atomic::write_atomic;
use minskew_data::{read_rects_csv, write_rects_csv, CsvError, Dataset};
use minskew_datagen::{
    charminar_with, clustered_points, uniform_rects, ClusteredPointSpec, RoadNetworkSpec,
    SyntheticSpec,
};
use minskew_engine::{AnalyzeOptions, MaintenanceMode, RowId, SpatialTable, TableOptions};
use minskew_geom::Rect;
use minskew_obs::Stopwatch;
use minskew_workload::{evaluate_all, GroundTruth, QueryWorkload};

/// Failure category; the discriminant is the process exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// Bad flags or unknown subcommand — exit code 2.
    Usage = 2,
    /// Underlying file I/O failed — exit code 3.
    Io = 3,
    /// A dataset file was malformed — exit code 4.
    Parse = 4,
    /// A statistics file failed to decode — exit code 5.
    CorruptStats = 5,
    /// Histogram construction reported an error — exit code 6.
    Build = 6,
}

/// A categorised CLI failure: a message for humans, a kind for scripts.
#[derive(Debug)]
struct CliError {
    kind: ErrorKind,
    message: String,
}

impl CliError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> CliError {
        CliError {
            kind,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> CliError {
        CliError::new(ErrorKind::Usage, message)
    }

    fn exit_code(&self) -> ExitCode {
        ExitCode::from(self.kind as u8)
    }

    /// Categorises a CSV failure: lost files are I/O, bad rows are parse
    /// errors.
    fn from_csv(context: &str, e: CsvError) -> CliError {
        let kind = match &e {
            CsvError::Io(_) => ErrorKind::Io,
            CsvError::Parse(..) => ErrorKind::Parse,
        };
        CliError::new(kind, format!("{context}: {e}"))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.message.fmt(f)
    }
}

impl From<BuildError> for CliError {
    fn from(e: BuildError) -> CliError {
        CliError::new(ErrorKind::Build, e.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `minskew help` for usage");
            e.exit_code()
        }
    }
}

/// The flags a subcommand accepts (space-separated names), and its body.
type Command = (&'static str, fn(&Flags) -> Result<(), CliError>);

fn run(args: Vec<String>) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage("missing subcommand"));
    };
    // `snapshot` and `catalog` take an action word before their flags.
    let (action, rest) = match (cmd.as_str(), rest.split_first()) {
        ("snapshot" | "catalog", Some((action, rest))) => (action.as_str(), rest),
        ("snapshot", None) => {
            return Err(CliError::usage(
                "snapshot needs an action: save, load, or verify",
            ))
        }
        ("catalog", None) => {
            return Err(CliError::usage(
                "catalog needs an action: ping, list, create, drop, insert, delete, \
                 analyze, estimate, explain, stats, flight, metrics, maintain, \
                 snapshot, or shutdown",
            ))
        }
        _ => ("", rest),
    };
    let (accepted, body): Command = match (cmd.as_str(), action) {
        ("generate", _) => ("kind n seed width height out", generate),
        ("build", _) => (
            "input technique buckets regions refinements trace out",
            build,
        ),
        ("estimate", _) => ("stats query input trace", estimate),
        ("explain", _) => ("stats query input terms", explain_cmd),
        ("evaluate", _) => ("input buckets regions qsize queries seed", evaluate_cmd),
        ("tune", _) => ("input buckets queries out", tune),
        ("render", _) => ("input technique buckets regions refinements out", render),
        ("stats", _) => ("input buckets queries qsize seed json", stats_cmd),
        ("maintain", _) => ("input mode buckets rounds queries qsize seed", maintain_cmd),
        ("snapshot", "save") => ("stats out", snapshot_save),
        ("snapshot", "verify") => ("snapshot", snapshot_verify),
        ("snapshot", "load") => ("snapshot input buckets", snapshot_load),
        ("snapshot", other) => {
            return Err(CliError::usage(format!(
                "unknown snapshot action {other:?} (expected save, load, or verify)"
            )))
        }
        ("catalog", _) => {
            let opts = parse_flags(rest, serve::CATALOG_FLAGS)?;
            return serve::catalog_cmd(action, &opts);
        }
        ("serve", _) => (
            "addr port-file input table buckets technique max-batch",
            serve::serve_cmd,
        ),
        ("top", _) => ("addr name interval iterations", serve::top_cmd),
        ("help" | "--help" | "-h", _) => ("", help),
        (other, _) => return Err(CliError::usage(format!("unknown subcommand {other:?}"))),
    };
    body(&parse_flags(rest, accepted)?)
}

fn help(_: &Flags) -> Result<(), CliError> {
    print!("{USAGE}");
    Ok(())
}

const USAGE: &str = "\
minskew — spatial selectivity estimation (Min-Skew, SIGMOD 1999)

  minskew generate --kind charminar|road|synthetic|uniform|points \\
                   [--n N] [--seed S] [--width W] [--height H] --out data.csv
                   (--width/--height: the uniform kind's rect size)
  minskew build    --input data.csv --technique min-skew|equi-area|equi-count|rtree|uniform \\
                   [--buckets B] [--regions R] [--refinements K] [--trace] --out stats.snap
                   (--trace prints the build time, and the Min-Skew per-split audit
                    trail; tracing never changes the output bytes)
  minskew estimate --stats stats.snap --query x1,y1,x2,y2 [--input data.csv] [--trace]
                   (--trace prints the time of each stage: decode, estimate, exact count)
  minskew explain  --stats stats.snap --query x1,y1,x2,y2 [--input data.csv] [--terms N]
                   (the estimate with its evidence: per-bucket contributions, pruning
                    counters, extension-rule inputs; the headline is bit-identical to
                    `estimate`'s indexed serving path, and the term sum reproduces it)
  minskew evaluate --input data.csv [--buckets B] [--regions R] [--qsize F] [--queries N] \
                   [--seed S]
  minskew tune     --input data.csv [--buckets B] [--queries N] [--out stats.snap]
  minskew render   --input data.csv --technique T [--buckets B] [--regions R] \
                   [--refinements K] --out out.svg
  minskew stats    --input data.csv [--buckets B] [--queries N] [--qsize F] [--seed S] [--json]
                   (drives a serving workload through the query engine, audits live
                    accuracy against exact counts, and dumps the table's metrics)
  minskew maintain --input data.csv [--mode off|reanalyze|refine] [--buckets B] \\
                   [--rounds R] [--queries N] [--qsize F] [--seed S]
                   (simulates data drift in rounds — hotspot inserts plus deletes — serves
                    a query workload, and runs one maintenance pass per round: audit the
                    live accuracy, then repair per --mode: off observes only, reanalyze
                    rebuilds, refine applies the bounded query-driven histogram repair)
  minskew snapshot save   --stats legacy.bin --out stats.snap
                   (re-seals a statistics file, legacy bare-codec ones included, as a
                    checksummed snapshot)
  minskew snapshot verify --snapshot stats.snap
                   (integrity check only: exit 0 and a summary, or exit 5 on corruption)
  minskew snapshot load   --snapshot stats.snap --input data.csv
                   (runs the engine's graceful recovery: a corrupt snapshot is
                    quarantined and statistics are rebuilt from the data)
  minskew serve    [--addr HOST:PORT] [--port-file F] [--input data.csv] [--table NAME] \\
                   [--buckets B] [--technique T] [--max-batch N]
                   (hosts a table catalog over the line protocol; --input preloads and
                    ANALYZEs one table; blocks until a client sends SHUTDOWN, then dumps
                    the server's metrics registry)
  minskew catalog  <action> --addr HOST:PORT [flags]
                   actions: ping | list | shutdown | stats [--name T]
                            create --name T [--buckets B] [--technique T]
                            drop --name T | analyze --name T
                            insert --name T --rect x1,y1,x2,y2 | delete --name T --id N
                            estimate --name T --query x1,y1,x2,y2
                            explain --name T --query x1,y1,x2,y2
                            flight [--name T] [--limit N]
                            metrics [--name T] [--format json|text]
                            maintain --name T [--mode off|reanalyze|refine]
                            snapshot --name T --op save|load --path P
                   (one-shot client; server ERR codes become the matching exit code.
                    any action takes --tid TOKEN: the request carries a TID=<token>
                    prefix, the reply echo is verified, and the token lands in the
                    server's flight records. flight drains the slow/wrong/sampled
                    query recorder — bare for the wire recorder, --name T for a
                    table's; metrics scrapes a registry live)
  minskew top      --addr HOST:PORT [--name TABLE] [--interval SECS] [--iterations N]
                   (live dashboard over STATS: requests/sec, request-latency
                    quantiles, connections, and staleness for --name;
                    --iterations 0 polls until interrupted)

stats files are written as checksummed snapshots (temp+fsync+rename); readers also
accept legacy bare-codec files
every subcommand rejects a flag it does not list as a usage error (exit 2)
exit codes: 0 ok, 2 usage, 3 I/O, 4 malformed dataset, 5 corrupt stats, 6 build failure
";

type Flags = HashMap<String, String>;

/// Flags that take no value: present means `true`.
const BOOL_FLAGS: &[&str] = &["trace", "json"];

/// Parses `--name value` pairs (and the value-less [`BOOL_FLAGS`]),
/// rejecting any name not among the space-separated `accepted` as a usage
/// error.
fn parse_flags(args: &[String], accepted: &str) -> Result<Flags, CliError> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(CliError::usage(format!("expected --flag, got {flag:?}")));
        };
        if !accepted.split_whitespace().any(|a| a == name) {
            return Err(CliError::usage(format!("unknown flag --{name}")));
        }
        if BOOL_FLAGS.contains(&name) {
            out.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| CliError::usage(format!("flag --{name} needs a value")))?;
        out.insert(name.to_owned(), value.clone());
    }
    Ok(out)
}

fn flag_set(opts: &Flags, name: &str) -> bool {
    opts.contains_key(name)
}

fn req<'a>(opts: &'a Flags, name: &str) -> Result<&'a str, CliError> {
    opts.get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("missing required flag --{name}")))
}

fn num<T: std::str::FromStr>(opts: &Flags, name: &str, default: T) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| CliError::usage(format!("bad value for --{name}: {e}"))),
    }
}

fn load(opts: &Flags) -> Result<Dataset, CliError> {
    let path = req(opts, "input")?;
    read_rects_csv(path).map_err(|e| CliError::from_csv(&format!("reading {path}"), e))
}

fn generate(opts: &Flags) -> Result<(), CliError> {
    let kind = req(opts, "kind")?;
    let out = req(opts, "out")?;
    let seed = num(opts, "seed", 0u64)?;
    let data = match kind {
        "charminar" => charminar_with(num(opts, "n", 40_000)?, seed),
        "road" => RoadNetworkSpec {
            segments: num(opts, "n", 414_442)?,
            ..RoadNetworkSpec::default()
        }
        .generate(seed),
        "synthetic" => SyntheticSpec::default()
            .with_n(num(opts, "n", 50_000)?)
            .generate(seed),
        "uniform" => uniform_rects(
            num(opts, "n", 50_000)?,
            Rect::new(0.0, 0.0, 100_000.0, 100_000.0),
            num(opts, "width", 100.0)?,
            num(opts, "height", 100.0)?,
            seed,
        ),
        "points" => clustered_points(
            &ClusteredPointSpec {
                n: num(opts, "n", 62_000)?,
                ..ClusteredPointSpec::default()
            },
            seed,
        ),
        other => return Err(CliError::usage(format!("unknown dataset kind {other:?}"))),
    };
    write_rects_csv(&data, out)
        .map_err(|e| CliError::new(ErrorKind::Io, format!("writing {out}: {e}")))?;
    println!("wrote {} rectangles to {out}", data.len());
    Ok(())
}

fn build_technique(
    data: &Dataset,
    technique: &str,
    opts: &Flags,
    traced: bool,
) -> Result<(SpatialHistogram, Option<MinSkewBuildTrace>), CliError> {
    let buckets = num(opts, "buckets", 100usize)?;
    Ok(match technique {
        "min-skew" => {
            let mut b =
                MinSkewBuilder::try_new(buckets)?.try_regions(num(opts, "regions", 10_000)?)?;
            let k = num(opts, "refinements", 0usize)?;
            if k > 0 {
                b = b.try_progressive_refinements(k)?;
            }
            if traced {
                // The traced build is byte-identical to the untraced one.
                let (hist, trace) = b.try_build_traced(data)?;
                (hist, Some(trace))
            } else {
                (b.try_build(data)?, None)
            }
        }
        "equi-area" => (try_build_equi_area(data, buckets)?, None),
        "equi-count" => (try_build_equi_count(data, buckets)?, None),
        "rtree" => (
            try_build_rtree_partitioning(data, buckets, RTreePartitioningOptions::default())?,
            None,
        ),
        "uniform" => (build_uniform(data), None),
        other => return Err(CliError::usage(format!("unknown technique {other:?}"))),
    })
}

fn build(opts: &Flags) -> Result<(), CliError> {
    print!("{}", build_report(opts)?);
    Ok(())
}

/// Builds and writes the statistics file; returns what `build` prints: the
/// file written, and with `--trace` the Min-Skew split trail and the build
/// time.
fn build_report(opts: &Flags) -> Result<String, CliError> {
    let data = load(opts)?;
    let technique = req(opts, "technique")?;
    let out = req(opts, "out")?;
    let traced = flag_set(opts, "trace");
    let clock = Stopwatch::start();
    let (hist, trace) = build_technique(&data, technique, opts, traced)?;
    let build_ns = clock.total();
    let info = write_stats(out, &hist)?;
    let mut report = format!(
        "built {} with {} buckets ({} bytes) over {} rects -> {out}\n",
        hist.name(),
        hist.num_buckets(),
        info.total_bytes,
        data.len()
    );
    if let Some(trace) = &trace {
        report.push_str(&format!(
            "build trace: {} splits over {} phase(s), final grid {}x{} -> final skew {:.3}\n",
            trace.splits.len(),
            trace.phases,
            trace.grid_side,
            trace.grid_side,
            trace.final_skew
        ));
        for (i, s) in trace.splits.iter().enumerate() {
            report.push_str(&format!(
                "  #{i:<4} phase {} bucket {:<4} {:?} @ {:<12.3} skew {:.3} -> {:.3}\n",
                s.phase, s.bucket, s.axis, s.coordinate, s.skew_before, s.skew_after
            ));
        }
    }
    if traced {
        report.push_str(&format!("build time: {:.3} ms\n", build_ns as f64 / 1e6));
    }
    Ok(report)
}

fn parse_query(s: &str) -> Result<Rect, CliError> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 4 {
        return Err(CliError::usage(format!(
            "query must be x1,y1,x2,y2, got {s:?}"
        )));
    }
    let mut v = [0.0; 4];
    for (slot, p) in v.iter_mut().zip(&parts) {
        *slot = p
            .trim()
            .parse()
            .map_err(|e| CliError::usage(format!("bad query coordinate {p:?}: {e}")))?;
    }
    Rect::try_new(v[0], v[1], v[2], v[3])
        .map_err(|e| CliError::usage(format!("bad query {s:?}: {e}")))
}

fn estimate(opts: &Flags) -> Result<(), CliError> {
    print!("{}", estimate_report(opts)?);
    Ok(())
}

/// What `estimate` prints: the estimate, the exact count with `--input`,
/// and with `--trace` the time of each stage.
fn estimate_report(opts: &Flags) -> Result<String, CliError> {
    let mut clock = Stopwatch::start();
    let (hist, _) = read_stats(req(opts, "stats")?)?;
    let mut stages = vec![("decode_stats", clock.lap())];
    let query = parse_query(req(opts, "query")?)?;
    // Serve through the pruned kernel — bit-identical to the linear scan.
    let mut scratch = KernelScratch::new();
    clock.lap(); // parsing the query is not a stage
    let est = hist.estimate_count_indexed(&query, &mut scratch);
    stages.push(("estimate", clock.lap()));
    let selectivity = if hist.input_len() == 0 {
        0.0
    } else {
        est / hist.input_len() as f64
    };
    let mut report = format!(
        "{}: estimated |Q| = {est:.1} (selectivity {selectivity:.5})\n",
        hist.name(),
    );
    if opts.contains_key("input") {
        clock.lap();
        let data = load(opts)?;
        let exact = data.count_intersecting(&query);
        stages.push(("exact_count", clock.lap()));
        report.push_str(&format!("exact:    |Q| = {exact}\n"));
    }
    if flag_set(opts, "trace") {
        report.push_str("trace:\n");
        for (stage, ns) in stages {
            report.push_str(&format!("  {stage:<14} {:>10.3} us\n", ns as f64 / 1e3));
        }
    }
    Ok(report)
}

/// `minskew explain` — the offline EXPLAIN surface: the estimate plus the
/// evidence behind it (per-bucket terms, pruning counters, extension-rule
/// inputs), computed through the same indexed serving path as `estimate`.
fn explain_cmd(opts: &Flags) -> Result<(), CliError> {
    let (hist, _) = read_stats(req(opts, "stats")?)?;
    let query = parse_query(req(opts, "query")?)?;
    let mut scratch = KernelScratch::new();
    let trace = hist.estimate_count_explained(&query, &mut scratch);
    let headline = hist.estimate_count_indexed(&query, &mut scratch);
    let estimate = trace.estimate();
    println!(
        "{}: estimated |Q| = {estimate:.1} (rule {}, {} buckets, N = {})",
        trace.technique,
        trace.rule.label(),
        trace.num_buckets,
        hist.input_len(),
    );
    println!(
        "serving path: indexed estimate {headline} — {}",
        if headline.to_bits() == estimate.to_bits() {
            "bit-identical"
        } else {
            "MISMATCH (file a bug)"
        }
    );
    let k = &trace.kernel;
    println!(
        "pruning: {} block(s) ({} pruned), {} quad(s) tested ({} pruned), \
         {} bucket(s) classified",
        k.prune.blocks,
        k.prune.blocks_pruned,
        k.prune.quads_tested,
        k.prune.quads_pruned,
        k.prune.buckets_classified,
    );
    println!(
        "terms: {} contributing; ordered sum {} — {}",
        k.terms.len(),
        k.term_sum(),
        if k.term_sum().to_bits() == estimate.to_bits() {
            "reproduces the estimate exactly"
        } else {
            "DOES NOT reproduce the estimate"
        }
    );
    let limit = num(opts, "terms", 10usize)?;
    for t in k.terms.iter().take(limit) {
        println!(
            "  bucket {:<5} count {:>12.1}  ext ({:.4}, {:.4})  fraction {:.5}  -> {}",
            t.bucket, t.count, t.ex, t.ey, t.fraction, t.term
        );
    }
    if k.terms.len() > limit {
        println!(
            "  ... {} more term(s); raise --terms to see them",
            k.terms.len() - limit
        );
    }
    if opts.contains_key("input") {
        let data = load(opts)?;
        println!("exact:    |Q| = {}", data.count_intersecting(&query));
    }
    Ok(())
}

fn stats_cmd(opts: &Flags) -> Result<(), CliError> {
    let data = load(opts)?;
    let buckets = num(opts, "buckets", 100usize)?;
    let queries = num(opts, "queries", 1_000usize)?;
    let qsize = num(opts, "qsize", 0.05f64)?;
    let seed = num(opts, "seed", 1u64)?;
    let mut table = SpatialTable::try_new(TableOptions {
        analyze: AnalyzeOptions {
            buckets,
            ..AnalyzeOptions::default()
        },
        // A short demonstration workload: sample densely so the latency
        // histograms actually fill.
        metrics_sampling: 4,
        ..TableOptions::default()
    })?;
    let workload = QueryWorkload::generate(&data, qsize, queries, seed);
    table.insert_many(data.into_rects());
    table.analyze();
    for q in workload.queries() {
        let _ = table.estimate(q);
    }
    // Serve the same workload once more through the batch path and the
    // single-query path.
    table.estimate_batch(workload.queries());
    for q in workload.queries() {
        let _ = table.estimate(q);
    }
    let report = table.audit_accuracy();
    let snap = table.metrics();
    if flag_set(opts, "json") {
        println!("{}", snap.to_json());
    } else {
        println!(
            "served {} queries twice (+ once batched) over {} rects, {buckets} buckets",
            workload.len(),
            table.len()
        );
        if let Some(stats) = table.current_snapshot().stats() {
            let fp = stats.serving_footprint();
            println!(
                "serving footprint: summary={} ext_table={} plane={} \
                 total={} bytes (kernel: {})",
                fp.summary,
                fp.ext_table,
                fp.plane,
                fp.total(),
                simd_level()
            );
        }
        if let Some(report) = &report {
            println!("{report}");
        }
        print!("{}", snap.to_text());
    }
    Ok(())
}

fn maintain_cmd(opts: &Flags) -> Result<(), CliError> {
    let data = load(opts)?;
    let buckets = num(opts, "buckets", 100usize)?;
    let rounds = num(opts, "rounds", 3usize)?;
    let queries = num(opts, "queries", 200usize)?;
    let qsize = num(opts, "qsize", 0.05f64)?;
    let seed = num(opts, "seed", 1u64)?;
    let mode = match opts.get("mode").map(String::as_str) {
        None => MaintenanceMode::OnlineRefine,
        Some(m) => m.parse::<MaintenanceMode>().map_err(CliError::usage)?,
    };
    let mut table = SpatialTable::try_new(TableOptions {
        analyze: AnalyzeOptions {
            buckets,
            ..AnalyzeOptions::default()
        },
        maintenance: mode,
        // Maintenance is the demonstration here; keep auto-ANALYZE out of
        // the way so every repair is attributable to `maintain`, and
        // engage repair as soon as the audited error leaves the band a
        // fresh build achieves (~0.1) rather than only on catastrophic
        // drift — the default 0.5 would let this short demo end without
        // ever showing a repair.
        auto_analyze_threshold: None,
        accuracy_drift_threshold: 0.15,
        ..TableOptions::default()
    })?;
    let loaded = table.insert_many(data.rects().iter().copied());
    let mut resident: std::collections::VecDeque<RowId> = (loaded.start.raw()..loaded.end.raw())
        .map(RowId::from_raw)
        .collect();
    table.analyze();
    let bbox = data
        .rects()
        .iter()
        .fold(None::<Rect>, |acc, r| Some(acc.map_or(*r, |b| b.union(r))))
        .ok_or_else(|| CliError::new(ErrorKind::Build, "dataset is empty"))?;
    println!(
        "maintaining {} rects, {buckets} buckets, mode={mode}: \
         {rounds} round(s) of drift, {queries} queries each",
        data.len()
    );
    let churn = (data.len() / 10).max(1);
    for round in 0..rounds {
        // Drift: a hotspot of new rectangles parks in a corner that moves
        // every round, while the oldest resident rows disappear.
        let fx = 0.1 + 0.8 * ((round % 3) as f64 / 2.0);
        let (cx, cy) = (
            bbox.lo.x + fx * bbox.width(),
            bbox.lo.y + (1.0 - fx) * bbox.height(),
        );
        let side = (bbox.width().min(bbox.height()) / 200.0).max(1e-9);
        for i in 0..churn {
            let jitter = (i % 17) as f64 * side * 0.1;
            let id = table.insert(Rect::new(
                cx + jitter,
                cy + jitter,
                cx + jitter + side,
                cy + jitter + side,
            ));
            resident.push_back(id);
        }
        for _ in 0..churn.min(resident.len().saturating_sub(1)) {
            if let Some(id) = resident.pop_front() {
                table.delete(id);
            }
        }
        let workload = QueryWorkload::generate(&data, qsize, queries, seed + round as u64);
        for q in workload.queries() {
            let _ = table.estimate(q);
        }
        let staleness = table.stats_staleness().unwrap_or(f64::NAN);
        let report = table.maintain();
        println!("round {}: staleness {staleness:.3}; {report}", round + 1);
    }
    println!(
        "final: {} rows, staleness {:.3}, mode={}",
        table.len(),
        table.stats_staleness().unwrap_or(f64::NAN),
        table.maintenance_mode()
    );
    Ok(())
}

fn evaluate_cmd(opts: &Flags) -> Result<(), CliError> {
    let data = load(opts)?;
    let buckets = num(opts, "buckets", 100usize)?;
    let qsize = num(opts, "qsize", 0.05f64)?;
    let queries = num(opts, "queries", 1_000usize)?;
    let seed = num(opts, "seed", 1u64)?;

    println!(
        "evaluating 7 techniques: {} rects, {buckets} buckets, QSize {:.0}%, {queries} queries",
        data.len(),
        qsize * 100.0
    );
    let truth = GroundTruth::index(&data);
    let minskew = MinSkewBuilder::try_new(buckets)?
        .try_regions(num(opts, "regions", 10_000)?)?
        .try_build(&data)?;
    let equi_count = try_build_equi_count(&data, buckets)?;
    let equi_area = try_build_equi_area(&data, buckets)?;
    let rtree = try_build_rtree_partitioning(&data, buckets, RTreePartitioningOptions::default())?;
    let sample = SamplingEstimator::build(&data, buckets, seed);
    let fractal = FractalEstimator::build(&data);
    let uniform = build_uniform(&data);
    let roster: Vec<&dyn SpatialEstimator> = vec![
        &minskew,
        &equi_count,
        &equi_area,
        &rtree,
        &sample,
        &fractal,
        &uniform,
    ];
    let workload = QueryWorkload::generate(&data, qsize, queries, seed);
    for report in evaluate_all(&roster, &workload, &truth) {
        println!("{report}");
    }
    Ok(())
}

fn tune(opts: &Flags) -> Result<(), CliError> {
    let data = load(opts)?;
    let buckets = num(opts, "buckets", 100usize)?;
    let mut tune_opts = minskew_workload::TuneOptions::for_buckets(buckets);
    tune_opts.queries_per_size = num(opts, "queries", 500usize)?;
    println!(
        "tuning Min-Skew over {} rects, {buckets} buckets ({} configurations)...",
        data.len(),
        tune_opts.region_ladder.len() + tune_opts.refinement_ladder.len() - 1
    );
    let tuned = minskew_workload::tune_min_skew(&data, buckets, &tune_opts);
    for t in &tuned.trials {
        println!(
            "  regions {:>7}  refinements {}  ->  {:>5.1}%{}",
            t.regions,
            t.refinements,
            t.error * 100.0,
            if *t == tuned.best { "  <- chosen" } else { "" }
        );
    }
    if let Some(out) = opts.get("out") {
        write_stats(out, &tuned.histogram)?;
        println!("wrote tuned histogram to {out}");
    }
    Ok(())
}

fn describe_snapshot(info: &SnapshotInfo) -> String {
    format!(
        "{} snapshot: {} ({} buckets, N = {}, {} section(s), {} bytes)",
        match info.version {
            FormatVersion::Container => "v1",
            FormatVersion::Legacy => "legacy",
        },
        info.technique,
        info.buckets,
        info.input_len,
        info.sections,
        info.total_bytes,
    )
}

/// Reads a statistics file: a snapshot container, or a legacy bare-codec
/// file through the decoder's shim. A missing file is an I/O error (exit
/// 3), bytes that fail to decode are corrupt statistics (exit 5).
fn read_stats(path: &str) -> Result<(SpatialHistogram, SnapshotInfo), CliError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CliError::new(ErrorKind::Io, format!("reading {path}: {e}")))?;
    SpatialHistogram::from_snapshot_bytes(&bytes)
        .map_err(|e| CliError::new(ErrorKind::CorruptStats, format!("decoding {path}: {e}")))
}

/// Writes `hist` to `out` as a checksummed snapshot container through the
/// crash-safe atomic write protocol, and describes what it wrote.
fn write_stats(out: &str, hist: &SpatialHistogram) -> Result<SnapshotInfo, CliError> {
    let bytes = hist.to_snapshot_bytes();
    write_atomic(std::path::Path::new(out), &bytes)
        .map_err(|e| CliError::new(ErrorKind::Io, format!("writing {out}: {e}")))?;
    minskew_core::verify_snapshot(&bytes)
        .map_err(|e| CliError::new(ErrorKind::CorruptStats, format!("self-check: {e}")))
}

/// `snapshot save`: re-seal an existing statistics file (migrating legacy
/// bytes to the container format) at `--out`.
fn snapshot_save(opts: &Flags) -> Result<(), CliError> {
    let stats_path = req(opts, "stats")?;
    let out = req(opts, "out")?;
    let (hist, info) = read_stats(stats_path)?;
    if info.version == FormatVersion::Legacy {
        println!("migrating legacy statistics file {stats_path} to the snapshot container");
    }
    let info = write_stats(out, &hist)?;
    println!("saved {} -> {out}", describe_snapshot(&info));
    Ok(())
}

/// `snapshot verify`: run the full container integrity check without
/// installing anything. Corruption of any kind is exit code 5.
fn snapshot_verify(opts: &Flags) -> Result<(), CliError> {
    let (_, info) = read_stats(req(opts, "snapshot")?)?;
    println!("ok: {}", describe_snapshot(&info));
    Ok(())
}

/// `snapshot load`: demonstrates the engine's graceful recovery — a
/// corrupt file is quarantined and statistics are rebuilt from `--input`.
/// A strict check that installs nothing is `snapshot verify`.
fn snapshot_load(opts: &Flags) -> Result<(), CliError> {
    let path = req(opts, "snapshot")?;
    if !opts.contains_key("input") {
        return Err(CliError::usage(
            "snapshot load needs --input data.csv to recover from; \
             `snapshot verify --snapshot F` checks a file strictly",
        ));
    }
    let data = load(opts)?;
    let mut table = SpatialTable::try_new(TableOptions {
        analyze: AnalyzeOptions {
            buckets: num(opts, "buckets", 100usize)?,
            ..AnalyzeOptions::default()
        },
        ..TableOptions::default()
    })?;
    table.insert_many(data.into_rects());
    let report = table.load_snapshot(std::path::Path::new(path));
    if report.installed {
        let info = report
            .info
            .as_ref()
            .map_or_else(|| "snapshot".to_owned(), describe_snapshot);
        println!("loaded {info}");
    } else {
        println!("recovered: {}", report.diagnostics);
        if let Some(q) = &report.quarantined {
            println!("quarantined corrupt snapshot at {}", q.display());
        }
    }
    Ok(())
}

fn render(opts: &Flags) -> Result<(), CliError> {
    let data = load(opts)?;
    let technique = req(opts, "technique")?;
    let out = req(opts, "out")?;
    let (hist, _) = build_technique(&data, technique, opts, false)?;
    let svg = minskew_viz::partitioning_svg(&data, &hist, 800);
    std::fs::write(out, svg)
        .map_err(|e| CliError::new(ErrorKind::Io, format!("writing {out}: {e}")))?;
    println!(
        "rendered {} ({} buckets) over {} rects -> {out}",
        hist.name(),
        hist.num_buckets(),
        data.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `snapshot verify`, `estimate` and `explain` all accept the
    /// statistics file at `stats`.
    fn assert_readers_accept(stats: &std::path::Path) {
        let stats = stats.display().to_string();
        run(vec![
            "snapshot".into(),
            "verify".into(),
            "--snapshot".into(),
            stats.clone(),
        ])
        .unwrap_or_else(|e| panic!("verify {stats}: {e}"));
        for cmd in ["estimate", "explain"] {
            run(vec![
                cmd.into(),
                "--stats".into(),
                stats.clone(),
                "--query".into(),
                "60,25,65,30".into(),
            ])
            .unwrap_or_else(|e| panic!("{cmd} {stats}: {e}"));
        }
    }

    /// Flags as `parse_flags` would produce them.
    fn flags(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn write_stats_reports_the_written_file_size() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-size-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("s.snap");
        let data = charminar_with(1_000, 3);
        let hist = MinSkewBuilder::new(20).regions(400).build(&data);
        let info = write_stats(&out.display().to_string(), &hist).unwrap();
        let written = std::fs::metadata(&out).unwrap().len();
        assert_eq!(info.total_bytes as u64, written);
        // `build` reports that size, not the in-memory footprint.
        let csv = dir.join("d.csv");
        write_rects_csv(&data, &csv).unwrap();
        let report = build_report(&flags(&[
            ("input", &csv.display().to_string()),
            ("technique", "min-skew"),
            ("buckets", "20"),
            ("regions", "400"),
            ("out", &out.display().to_string()),
        ]))
        .unwrap();
        let written = std::fs::metadata(&out).unwrap().len();
        assert!(report.contains(&format!("({written} bytes)")), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flag_parsing() {
        let accepted = "kind n dangling";
        let flags = parse_flags(
            &["--kind".into(), "road".into(), "--n".into(), "100".into()],
            accepted,
        )
        .unwrap();
        assert_eq!(flags["kind"], "road");
        assert_eq!(num::<usize>(&flags, "n", 5).unwrap(), 100);
        assert_eq!(num::<usize>(&flags, "missing", 5).unwrap(), 5);
        assert!(parse_flags(&["oops".into()], accepted).is_err());
        assert!(parse_flags(&["--dangling".into()], accepted).is_err());
        let e = parse_flags(&["--kin".into(), "road".into()], accepted).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.message.contains("--kin"), "{e}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--trace` / `--json` consume no operand: the flag after them still
        // parses as a flag, and trailing position is fine.
        let flags = parse_flags(
            &["--trace".into(), "--n".into(), "9".into(), "--json".into()],
            "trace json n",
        )
        .expect("boolean flags parse");
        assert!(flag_set(&flags, "trace"));
        assert!(flag_set(&flags, "json"));
        assert!(!flag_set(&flags, "quiet"));
        assert_eq!(num::<usize>(&flags, "n", 0).unwrap(), 9);
    }

    #[test]
    fn query_parsing() {
        assert_eq!(
            parse_query("1,2,3,4").unwrap(),
            Rect::new(1.0, 2.0, 3.0, 4.0)
        );
        assert!(parse_query("1,2,3").is_err());
        assert!(parse_query("a,2,3,4").is_err());
        assert!(
            parse_query("nan,2,3,4").is_err(),
            "non-finite query rejected"
        );
    }

    #[test]
    fn maintain_subcommand_runs_every_mode_and_rejects_bad_ones() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-maint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("grid.csv");
        let mut body = String::new();
        for iy in 0..10 {
            for ix in 0..10 {
                let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                body.push_str(&format!("{x},{y},{},{}\n", x + 5.0, y + 5.0));
            }
        }
        std::fs::write(&csv, body).unwrap();
        let base = |mode: &str| {
            vec![
                "maintain".into(),
                "--input".into(),
                csv.display().to_string(),
                "--mode".into(),
                mode.into(),
                "--rounds".into(),
                "2".into(),
                "--queries".into(),
                "30".into(),
                "--buckets".into(),
                "8".into(),
            ]
        };
        for mode in ["off", "reanalyze", "refine"] {
            run(base(mode)).unwrap_or_else(|e| panic!("mode {mode}: {e}"));
        }
        assert_eq!(run(base("bogus")).unwrap_err().kind, ErrorKind::Usage);
        assert_eq!(
            run(vec!["maintain".into()]).unwrap_err().kind,
            ErrorKind::Usage,
            "missing --input"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_carry_stable_exit_codes() {
        // Usage errors.
        assert_eq!(run(vec![]).unwrap_err().kind, ErrorKind::Usage);
        assert_eq!(
            run(vec!["frobnicate".into()]).unwrap_err().kind,
            ErrorKind::Usage
        );
        // I/O: missing dataset file.
        let e = run(vec![
            "evaluate".into(),
            "--input".into(),
            "/no/such/file.csv".into(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);
        let dir = std::env::temp_dir().join(format!("minskew-cli-codes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Parse: malformed dataset.
        let bad_csv = dir.join("bad.csv");
        std::fs::write(&bad_csv, "1,2,3\n").unwrap();
        let e = run(vec![
            "build".into(),
            "--input".into(),
            bad_csv.display().to_string(),
            "--technique".into(),
            "min-skew".into(),
            "--out".into(),
            dir.join("s.bin").display().to_string(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Parse);
        // Corrupt stats: garbage statistics file.
        let bad_stats = dir.join("bad.bin");
        std::fs::write(&bad_stats, b"not a histogram").unwrap();
        let e = run(vec![
            "estimate".into(),
            "--stats".into(),
            bad_stats.display().to_string(),
            "--query".into(),
            "0,0,1,1".into(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::CorruptStats);
        // Build: empty dataset cannot be summarised strictly.
        let empty_csv = dir.join("empty.csv");
        std::fs::write(&empty_csv, "# nothing\n").unwrap();
        let e = run(vec![
            "build".into(),
            "--input".into(),
            empty_csv.display().to_string(),
            "--technique".into(),
            "min-skew".into(),
            "--out".into(),
            dir.join("s.bin").display().to_string(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Build);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let stats = dir.join("s.bin");
        let svg = dir.join("p.svg");

        run(vec![
            "generate".into(),
            "--kind".into(),
            "charminar".into(),
            "--n".into(),
            "2000".into(),
            "--out".into(),
            csv.display().to_string(),
        ])
        .unwrap();

        run(vec![
            "build".into(),
            "--input".into(),
            csv.display().to_string(),
            "--technique".into(),
            "min-skew".into(),
            "--buckets".into(),
            "20".into(),
            "--regions".into(),
            "400".into(),
            "--out".into(),
            stats.display().to_string(),
        ])
        .unwrap();
        assert!(std::fs::read(&stats).unwrap().starts_with(b"MSKSNAP"));
        assert_readers_accept(&stats);

        run(vec![
            "estimate".into(),
            "--stats".into(),
            stats.display().to_string(),
            "--query".into(),
            "0,0,2000,2000".into(),
        ])
        .unwrap();

        // The EXPLAIN surface serves the same file and query, with the
        // exact-count cross-check and a term cap.
        run(vec![
            "explain".into(),
            "--stats".into(),
            stats.display().to_string(),
            "--query".into(),
            "0,0,2000,2000".into(),
            "--input".into(),
            csv.display().to_string(),
            "--terms".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(
            run(vec![
                "explain".into(),
                "--stats".into(),
                stats.display().to_string()
            ])
            .unwrap_err()
            .kind,
            ErrorKind::Usage,
            "explain requires --query"
        );

        run(vec![
            "render".into(),
            "--input".into(),
            csv.display().to_string(),
            "--technique".into(),
            "equi-count".into(),
            "--buckets".into(),
            "10".into(),
            "--out".into(),
            svg.display().to_string(),
        ])
        .unwrap();

        assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_usage_errors_before_any_work() {
        // The input does not exist: an I/O error here would mean the build
        // started before the flags were checked.
        let build = |flag: &str, value: &str| {
            run(vec![
                "build".into(),
                "--input".into(),
                "/no/such/file.csv".into(),
                "--technique".into(),
                "min-skew".into(),
                flag.into(),
                value.into(),
                "--out".into(),
                "/no/such/dir/s.bin".into(),
            ])
            .unwrap_err()
        };
        for (flag, value) in [("--threads", "2"), ("--bucket", "7")] {
            let e = build(flag, value);
            assert_eq!(e.kind, ErrorKind::Usage, "{flag}: {e}");
            assert!(e.message.contains(flag), "{flag}: {e}");
        }
        // Actions check their own flags: `verify` takes no `--input`.
        let e = run(vec![
            "snapshot".into(),
            "verify".into(),
            "--snapshot".into(),
            "/no/such.snap".into(),
            "--input".into(),
            "d.csv".into(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage, "{e}");
        assert!(e.message.contains("--input"), "{e}");
        // `save` only re-seals a statistics file; `build` makes one.
        let e = run(vec![
            "snapshot".into(),
            "save".into(),
            "--input".into(),
            "d.csv".into(),
            "--out".into(),
            "/no/such/dir/s.snap".into(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage, "{e}");
        assert!(e.message.contains("--input"), "{e}");
        let e = run(vec![
            "catalog".into(),
            "ping".into(),
            "--adr".into(),
            "127.0.0.1:1".into(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage, "{e}");
        assert!(e.message.contains("--adr"), "{e}");
    }

    #[test]
    fn evaluate_subcommand_runs() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        run(vec![
            "generate".into(),
            "--kind".into(),
            "uniform".into(),
            "--n".into(),
            "800".into(),
            "--out".into(),
            csv.display().to_string(),
        ])
        .unwrap();
        run(vec![
            "evaluate".into(),
            "--input".into(),
            csv.display().to_string(),
            "--buckets".into(),
            "10".into(),
            "--queries".into(),
            "50".into(),
            "--qsize".into(),
            "0.2".into(),
        ])
        .unwrap();
        // Missing input file surfaces a readable error.
        assert!(run(vec![
            "evaluate".into(),
            "--input".into(),
            "/no/such/file.csv".into(),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_subcommand_runs() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        run(vec![
            "generate".into(),
            "--kind".into(),
            "charminar".into(),
            "--n".into(),
            "1500".into(),
            "--out".into(),
            csv.display().to_string(),
        ])
        .unwrap();
        let stats = dir.join("tuned.bin");
        run(vec![
            "tune".into(),
            "--input".into(),
            csv.display().to_string(),
            "--buckets".into(),
            "20".into(),
            "--queries".into(),
            "60".into(),
            "--out".into(),
            stats.display().to_string(),
        ])
        .unwrap();
        assert!(std::fs::read(&stats).unwrap().starts_with(b"MSKSNAP"));
        assert_readers_accept(&stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_build_is_byte_identical_and_stats_subcommand_runs() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        run(vec![
            "generate".into(),
            "--kind".into(),
            "charminar".into(),
            "--n".into(),
            "1200".into(),
            "--out".into(),
            csv.display().to_string(),
        ])
        .unwrap();
        // `build --trace` must not change the emitted statistics bytes.
        let build = |traced: bool, out: &std::path::Path| {
            let mut args = vec![
                "build".to_string(),
                "--input".into(),
                csv.display().to_string(),
                "--technique".into(),
                "min-skew".into(),
                "--buckets".into(),
                "16".into(),
                "--regions".into(),
                "256".into(),
                "--out".into(),
                out.display().to_string(),
            ];
            if traced {
                args.push("--trace".into());
            }
            run(args).unwrap();
            std::fs::read(out).unwrap()
        };
        let plain = build(false, &dir.join("plain.bin"));
        let traced = build(true, &dir.join("traced.bin"));
        assert_eq!(plain, traced, "--trace changed the stats bytes");
        // `build --trace` times every technique, not only Min-Skew.
        let out = dir.join("equi.bin").display().to_string();
        let report = build_report(&flags(&[
            ("input", &csv.display().to_string()),
            ("technique", "equi-area"),
            ("buckets", "16"),
            ("trace", "true"),
            ("out", &out),
        ]))
        .unwrap();
        assert!(report.contains("build time: "), "{report}");
        // `estimate --trace` times its three stages.
        let report = estimate_report(&flags(&[
            ("stats", &dir.join("plain.bin").display().to_string()),
            ("query", "0,0,2000,2000"),
            ("input", &csv.display().to_string()),
            ("trace", "true"),
        ]))
        .unwrap();
        for stage in ["decode_stats", "estimate", "exact_count"] {
            assert!(
                report.lines().any(|l| l.trim_start().starts_with(stage)),
                "{stage} missing from {report}"
            );
        }
        // `stats` serves a workload and exits cleanly in both output modes.
        let base = vec![
            "stats".to_string(),
            "--input".into(),
            csv.display().to_string(),
            "--buckets".into(),
            "12".into(),
            "--queries".into(),
            "80".into(),
        ];
        run(base.clone()).unwrap();
        let mut json = base;
        json.push("--json".into());
        run(json).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_subcommand_lifecycle() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let snap = dir.join("s.snap");
        run(vec![
            "generate".into(),
            "--kind".into(),
            "charminar".into(),
            "--n".into(),
            "1500".into(),
            "--out".into(),
            csv.display().to_string(),
        ])
        .unwrap();
        // build -> verify -> load (strict) all succeed.
        run(vec![
            "build".into(),
            "--input".into(),
            csv.display().to_string(),
            "--technique".into(),
            "min-skew".into(),
            "--buckets".into(),
            "20".into(),
            "--regions".into(),
            "400".into(),
            "--out".into(),
            snap.display().to_string(),
        ])
        .unwrap();
        run(vec![
            "snapshot".into(),
            "verify".into(),
            "--snapshot".into(),
            snap.display().to_string(),
        ])
        .unwrap();
        // `load` recovers from data, so without `--input` it is a usage
        // error that points at `verify`.
        let e = run(vec![
            "snapshot".into(),
            "load".into(),
            "--snapshot".into(),
            snap.display().to_string(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.message.contains("snapshot verify"), "{}", e.message);
        // Corrupt the file: verify reports exit class 5.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        let e = run(vec![
            "snapshot".into(),
            "verify".into(),
            "--snapshot".into(),
            snap.display().to_string(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::CorruptStats);
        // Graceful load with --input recovers (exit 0) and quarantines.
        run(vec![
            "snapshot".into(),
            "load".into(),
            "--snapshot".into(),
            snap.display().to_string(),
            "--input".into(),
            csv.display().to_string(),
        ])
        .unwrap();
        assert!(!snap.exists(), "corrupt snapshot must be quarantined");
        assert!(
            dir.join("s.snap.corrupt-1").exists(),
            "quarantine file must be preserved"
        );
        // Missing file is I/O (3), not corruption (5).
        let e = run(vec![
            "snapshot".into(),
            "verify".into(),
            "--snapshot".into(),
            dir.join("absent.snap").display().to_string(),
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);
        // Usage errors.
        assert_eq!(
            run(vec!["snapshot".into()]).unwrap_err().kind,
            ErrorKind::Usage
        );
        assert_eq!(
            run(vec!["snapshot".into(), "frob".into()])
                .unwrap_err()
                .kind,
            ErrorKind::Usage
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_save_migrates_legacy_stats() {
        let dir = std::env::temp_dir().join(format!("minskew-cli-mig-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        let legacy = dir.join("legacy.bin");
        let snap = dir.join("migrated.snap");
        run(vec![
            "generate".into(),
            "--kind".into(),
            "uniform".into(),
            "--n".into(),
            "600".into(),
            "--out".into(),
            csv.display().to_string(),
        ])
        .unwrap();
        let built = dir.join("built.snap");
        run(vec![
            "build".into(),
            "--input".into(),
            csv.display().to_string(),
            "--technique".into(),
            "equi-count".into(),
            "--buckets".into(),
            "8".into(),
            "--out".into(),
            built.display().to_string(),
        ])
        .unwrap();
        // `build` writes containers only; a file from before the container
        // format holds the bare codec's bytes.
        let (hist, _) =
            SpatialHistogram::from_snapshot_bytes(&std::fs::read(&built).unwrap()).unwrap();
        std::fs::write(&legacy, hist.to_bytes()).unwrap();
        assert_readers_accept(&legacy);
        run(vec![
            "snapshot".into(),
            "save".into(),
            "--stats".into(),
            legacy.display().to_string(),
            "--out".into(),
            snap.display().to_string(),
        ])
        .unwrap();
        run(vec![
            "snapshot".into(),
            "verify".into(),
            "--snapshot".into(),
            snap.display().to_string(),
        ])
        .unwrap();
        // The migrated container carries the same statistics payload.
        let legacy_bytes = std::fs::read(&legacy).unwrap();
        let container = std::fs::read(&snap).unwrap();
        let (hist, info) = SpatialHistogram::from_snapshot_bytes(&container).unwrap();
        assert_eq!(info.version, FormatVersion::Container);
        assert_eq!(hist.to_bytes(), legacy_bytes);
        // Re-sealing a container reproduces what `build` wrote.
        assert_eq!(container, std::fs::read(&built).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readers_accept_the_committed_charminar_stats() {
        let stats = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../charminar.stats");
        assert_readers_accept(&stats);
        run(vec![
            "explain".into(),
            "--stats".into(),
            stats.display().to_string(),
            "--query".into(),
            "60,25,65,30".into(),
            "--terms".into(),
            "3".into(),
        ])
        .unwrap();
    }

    #[test]
    fn unknown_subcommand_and_kind() {
        assert!(run(vec!["frobnicate".into()]).is_err());
        assert!(generate(
            &[
                ("kind".to_string(), "nope".to_string()),
                ("out".to_string(), "/tmp/x".to_string())
            ]
            .into_iter()
            .collect()
        )
        .is_err());
    }
}
