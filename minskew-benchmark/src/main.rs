//! `minskew-benchmark` — the repository's benchmark.
//!
//! ```text
//! minskew-benchmark run [--seed S] [--workload NAME] [--seconds 15] [--trace 0|1] [--quick] [--tag DIR]
//! minskew-benchmark compare <parent-runs> <change-runs>
//! ```
//!
//! Run it from the repository root. `run` builds `minskew serve`, starts it
//! as a separate process on inputs generated from the seed, drives it over
//! loopback from this process (one connection, one thread), checks every
//! reply against an in-process table, and prints the run's metrics as one
//! JSON object on the last line of standard output. Result files (and the
//! traced run's span JSONL) go to `target/benchmark/<tag>/`. See README.md
//! for the workloads and metrics.

mod compare;
mod json;
mod layers;
mod provenance;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use run::{Outcome, RunArgs};
use workload::Workload;

const USAGE: &str = "usage:
  minskew-benchmark run [--seed S] [--workload point-hot|batch-cold|churn-mixed|analyze-build]
                        [--seconds 15] [--trace 0|1] [--quick] [--tag DIR]
  (defaults: seed 1, all four workloads, trace 0; the timed phase is 15 s, 1 s with --quick)
  minskew-benchmark compare <parent-runs> <change-runs>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("minskew-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let [parent, change] = args else {
        return Err(USAGE.to_string());
    };
    let gates = compare::load_gates(Path::new("BENCHMARK.json"))?;
    let parent = compare::load_runs(Path::new(parent))?;
    let change = compare::load_runs(Path::new(change))?;
    let regressed = compare::report(&gates, &parent, &change)?;
    Ok(i32::from(regressed))
}

fn run_cmd(args: &[String]) -> Result<i32, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = 1;
    let mut trace = false;
    let mut quick = false;
    let mut tag = String::from("runs");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workloads = vec![Workload::parse(value).ok_or_else(|| bad("unknown workload"))?];
            }
            "--seed" => seed = value.parse::<u64>().map_err(|e| bad(&e.to_string()))?,
            // The length of the timed phase is the benchmark's own, so that
            // every full run is comparable with every other; `BENCHMARK.json`
            // passes it back as `run_seconds`.
            "--seconds" => {
                if value.parse::<f64>() != Ok(run::SECONDS) {
                    return Err(bad(&format!("the timed phase is {} s", run::SECONDS)));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--tag" => {
                if value.is_empty()
                    || !value
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'))
                    || value.starts_with('.')
                {
                    return Err(bad("want letters, digits, '_', '-', '.'"));
                }
                tag = value.clone();
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let args = RunArgs { seed, trace, quick };

    let bin = build_server()?;
    let results = Path::new("target/benchmark").join(&tag);
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("creating {}: {e}", results.display()))?;
    let work = WorkDir::create(Path::new("target/benchmark"))?;
    let cpus_allowed = provenance::cpus_allowed();
    let cpu = pin_to_one_cpu(cpus_allowed.as_deref())?;
    let provenance = provenance::stamp(seed, quick, cpus_allowed, cpu);
    let mut all_correct = true;
    for w in workloads {
        let started = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        eprintln!(
            "minskew-benchmark: {} seed={seed} trace={trace} quick={quick}",
            w.name()
        );
        let outcome = run::run_workload(w, &args, &bin, &work.0)?;
        let correct = outcome.tally.failed == 0;
        all_correct &= correct;
        if let Some(why) = &outcome.tally.first_failure {
            eprintln!(
                "minskew-benchmark: WRONG REPLY ({} failed): {why}",
                outcome.tally.failed
            );
        }
        let stem = format!(
            "{started}-{}-seed{seed}{}{}",
            w.name(),
            if trace { "-trace" } else { "" },
            if quick { "-quick" } else { "" }
        );
        if let Some(t) = &outcome.tracer {
            let path = results.join(format!("{stem}-spans.jsonl"));
            t.write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let metrics = metrics_json(&outcome)?;
        let path = results.join(format!("{stem}.json"));
        let doc = result_doc(w, &args, started, &provenance, &outcome, &metrics);
        std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            outcome.tally.attempted, outcome.tally.failed
        );
    }
    Ok(if all_correct { 0 } else { 1 })
}

/// Builds the server under test from this checkout and returns its path.
fn build_server() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli/Cargo.toml not found)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "minskew-cli",
            "--bin",
            "minskew",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building minskew-cli failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("minskew");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found after the build", bin.display()))
    }
}

/// Pins this process, and so every server it starts, to the first CPU it
/// may use, given its `Cpus_allowed_list`; returns that CPU.
///
/// Client and server then take turns on one core, and a round trip is two
/// context switches there. Across two cores every request and reply wakes
/// the other virtual CPU from idle instead; that costs the server as much
/// CPU time as the request itself, and how much swings with the load on
/// the host, so the server's CPU time per request spread twice as widely.
fn pin_to_one_cpu(cpus_allowed: Option<&str>) -> Result<u32, String> {
    let cpu = cpus_allowed
        .and_then(|list| list.split([',', '-']).next()?.trim().parse::<u32>().ok())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let status = Command::new("taskset")
        .args(["--all-tasks", "--pid", "--cpu-list"])
        .arg(cpu.to_string())
        .arg(std::process::id().to_string())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running taskset to pin the run to one CPU: {e}"))?;
    if status.success() {
        Ok(cpu)
    } else {
        Err(format!(
            "taskset could not pin the run to CPU {cpu}: {status}"
        ))
    }
}

/// A scratch directory for one invocation's CSVs and port files, removed
/// when the invocation ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(under: &Path) -> Result<WorkDir, String> {
        let dir = under.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metrics_json(outcome: &Outcome) -> Result<String, String> {
    let mut parts = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(m.name),
            json::number(m.value),
            json::string(m.unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn result_doc(
    w: Workload,
    args: &RunArgs,
    started: u128,
    provenance: &str,
    outcome: &Outcome,
    metrics: &str,
) -> String {
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::string(k)))
        .collect();
    format!(
        "{{\n  \"schema\": \"minskew-benchmark/v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \
         \"trace\": {},\n  \"quick\": {},\n  \"started_unix_ms\": {started},\n  \
         \"provenance\": {provenance},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"first_failure\": {},\n  \"samples\": {{{}}},\n  \"metrics\": {metrics}\n}}\n",
        json::string(w.name()),
        args.seed,
        args.trace,
        args.quick,
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome
            .tally
            .first_failure
            .as_deref()
            .map_or_else(|| String::from("null"), json::string),
        samples.join(", "),
    )
}
