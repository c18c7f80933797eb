//! What produced a result: the commit, the command, and the cores the run
//! could actually use.

use std::process::{Command, Stdio};

use crate::json;

fn git(args: &[&str]) -> Option<String> {
    // Look for a repository at the working directory only, never in the
    // directories above it.
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(prefix).map(|rest| rest.trim().to_string()))
}

fn opt_string(v: Option<String>) -> String {
    v.map_or_else(|| String::from("null"), |s| json::string(&s))
}

/// The CPUs this process may run on, as `/proc/self/status` lists them.
pub fn cpus_allowed() -> Option<String> {
    first_line_with("/proc/self/status", "Cpus_allowed_list:")
}

/// The provenance object stamped into every result file: `cpus_allowed` is
/// the list before the run pinned itself to `pinned_cpu`. Outside a git
/// checkout the revision and dirty flag are `null`.
pub fn stamp(seed: u64, quick: bool, cpus_allowed: Option<String>, pinned_cpu: u32) -> String {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev.as_ref().and_then(|_| {
        git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty())
    });
    let argv: Vec<String> = std::env::args().map(|a| json::string(&a)).collect();
    let cpu_max = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .ok()
        .map(|s| s.trim().to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = first_line_with("/proc/cpuinfo", "model name")
        .map(|s| s.trim_start_matches(':').trim().to_string());
    format!(
        "{{\"git_rev\":{},\"git_dirty\":{},\"argv\":[{}],\"seed\":{seed},\"quick\":{quick},\
         \"cpus_allowed_list\":{},\"pinned_cpu\":{pinned_cpu},\"cgroup_cpu_max\":{},\
         \"available_parallelism\":{parallelism},\
         \"cpu_model\":{},\"server_build\":{},\"kernel_simd_level\":{}}}",
        opt_string(rev),
        dirty.map_or_else(|| String::from("null"), |d| d.to_string()),
        argv.join(","),
        opt_string(cpus_allowed),
        opt_string(cpu_max),
        opt_string(cpu_model),
        json::string("cargo build --release -p minskew-cli --bin minskew (default features)"),
        json::string(minskew_core::simd_level()),
    )
}
