//! `compare <parent-runs> <change-runs>`: judges each (metric, workload)
//! pair of two sets of runs by the rule a performance claim must meet.
//!
//! * **improved** — at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties, pairs within 1 % of each other, count for neither side),
//!   and the medians differ by more than the parent's interquartile range;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound from `BENCHMARK.json`;
//! * **unresolved** — the parent's own spread is wider than the bound, so
//!   "within the bound" cannot be told apart from noise, unless every run
//!   of the change lies beyond every run of the parent; and any improvement
//!   short of the win rule when fewer than 10 pairs exist;
//! * **unchanged** — none of the above.
//!
//! Runs pair up in the order they started (the i-th parent run of a
//! workload with its i-th change run), so alternate the two sides when
//! producing them.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles, relative_spread};

/// A gated metric from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub higher_better: bool,
    pub bound: f64,
}

impl Gate {
    /// `a` is better than `b` by more than a tie.
    fn better(&self, a: f64, b: f64) -> bool {
        let gain = if self.higher_better { a - b } else { b - a };
        gain > TIE * b.abs()
    }

    /// The pairs the change won, and the pairs there are.
    fn wins(&self, parent: &[f64], change: &[f64]) -> (usize, usize) {
        let pairs = parent.len().min(change.len());
        let wins = (0..pairs)
            .filter(|&i| self.better(change[i], parent[i]))
            .count();
        (wins, pairs)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Runs required before a gain can be claimed.
const MIN_PAIRS: usize = 10;
/// Two runs closer than this share of the parent's value are a tie: no
/// metric here resolves a smaller difference, and peak RSS alone wanders
/// by about 0.1 % between runs of one commit.
const TIE: f64 = 0.01;

/// The verdict for one metric on one workload; `parent[i]` pairs with
/// `change[i]`.
pub fn verdict(gate: &Gate, parent: &[f64], change: &[f64]) -> Verdict {
    let better = |a: f64, b: f64| gate.better(a, b);
    let (wins, pairs) = gate.wins(parent, change);
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let gain = if gate.higher_better { mc - mp } else { mp - mc };
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let worse_share = -gain / scale;
    let spread = iqr / scale;
    let all =
        |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&c| parent.iter().all(|&p| f(c, p)));
    if pairs >= MIN_PAIRS && wins * 10 >= 9 * pairs && gain > iqr {
        Verdict::Improved
    } else if worse_share > gate.bound {
        if spread > gate.bound && !all(&|c, p| better(p, c)) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if spread > gate.bound && !all(&|c, p| better(c, p)) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// The `end_to_end` metrics of `BENCHMARK.json`.
pub fn load_gates(path: &Path) -> Result<Vec<Gate>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("a metric without a name")?
                    .to_string(),
                higher_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("a metric without a bound")?,
            })
        })
        .collect()
}

/// One untraced run read back from its result file.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub started: f64,
    pub metrics: BTreeMap<String, f64>,
}

fn parse_run(path: &Path) -> Result<Option<Run>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let flag = |key: &str| doc.get(key).and_then(Json::as_bool).unwrap_or(false);
    if flag("quick") {
        return Err(format!(
            "{} is a --quick run; quick runs are never comparable",
            path.display()
        ));
    }
    if flag("trace") {
        return Ok(None);
    }
    if !flag("correct") {
        return Err(format!("{} recorded wrong replies", path.display()));
    }
    let metrics = doc
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Some(Run {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?
            .to_string(),
        started: doc
            .get("started_unix_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        metrics,
    }))
}

/// Every untraced run in `path` (a result file, or a directory of them),
/// in start order.
pub fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("listing {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs = Vec::new();
    for file in files {
        runs.extend(parse_run(&file)?);
    }
    runs.sort_by(|a, b| a.started.total_cmp(&b.started));
    Ok(runs)
}

/// `v` with five significant digits.
fn sig(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (4 - magnitude).max(0) as usize)
}

/// Prints one row per (metric, workload); returns whether any regressed.
pub fn report(gates: &[Gate], parent: &[Run], change: &[Run]) -> Result<bool, String> {
    let workloads: std::collections::BTreeSet<&str> =
        parent.iter().map(|r| r.workload.as_str()).collect();
    let mut any_regressed = false;
    println!(
        "{:<14} {:<26} {:>30} {:>7} {:>30} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "spread",
        "change median [q1, q3]",
        "change",
        "wins"
    );
    for w in workloads {
        let values = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for gate in gates {
            let (p, c) = (values(parent, &gate.name), values(change, &gate.name));
            if p.is_empty() || c.is_empty() {
                return Err(format!("no {} values for {w} on one side", gate.name));
            }
            let v = verdict(gate, &p, &c);
            any_regressed |= v == Verdict::Regressed;
            let (wins, pairs) = gate.wins(&p, &c);
            let fmt = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{} [{}, {}]", sig(median(v)), sig(q1), sig(q3))
            };
            println!(
                "{:<14} {:<26} {:>30} {:>7.4} {:>30} {:>+7.2}% {:>6}  {}",
                w,
                gate.name,
                fmt(&p),
                relative_spread(&p),
                fmt(&c),
                100.0 * (median(&c) - median(&p)) / median(&p).abs().max(f64::MIN_POSITIVE),
                format!("{wins}/{pairs}"),
                v.label()
            );
        }
    }
    Ok(any_regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher_better: bool, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            higher_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_pairing_and_spread_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // 5 % faster in every pair, well past the parent's IQR of 2.
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            verdict(&gate(true, 0.1), &parent, &faster),
            Verdict::Improved
        );
        // The same gain with only 9 pairs cannot be claimed yet.
        assert_eq!(
            verdict(&gate(true, 0.1), &parent[..9], &faster[..9]),
            Verdict::Unchanged
        );
        // 8 wins in 10 is short of the 9-in-10 rule.
        let mut mixed = faster.clone();
        mixed[0] = parent[0] - 1.0;
        mixed[1] = parent[1] - 1.0;
        assert_eq!(
            verdict(&gate(true, 0.1), &parent, &mixed),
            Verdict::Unchanged
        );
        // Winning every pair by less than the parent's IQR is not a gain.
        let nudged: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        assert_eq!(
            verdict(&gate(true, 0.1), &parent, &nudged),
            Verdict::Unchanged
        );
        // Nor is a steady gain inside the tie band.
        let flat = [100.0; 10];
        let slightly: Vec<f64> = flat.iter().map(|p| p * 1.005).collect();
        assert_eq!(
            verdict(&gate(true, 0.1), &flat, &slightly),
            Verdict::Unchanged
        );
        // 20 % slower against a 10 % bound is a regression ...
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&gate(true, 0.1), &parent, &slower),
            Verdict::Regressed
        );
        // ... and for a lower-is-better metric the same numbers are a gain.
        assert_eq!(
            verdict(&gate(false, 0.1), &parent, &slower),
            Verdict::Improved
        );
        // Same commit on both sides: nothing to report.
        assert_eq!(
            verdict(&gate(true, 0.1), &parent, &parent),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 90.0, 110.0, 55.0, 145.0, 100.0,
        ];
        let similar = [
            52.0, 148.0, 61.0, 139.0, 101.0, 89.0, 111.0, 54.0, 146.0, 99.0,
        ];
        assert_eq!(
            verdict(&gate(true, 0.1), &noisy, &similar),
            Verdict::Unresolved
        );
        // Unless every change run is beyond every parent run.
        let far: Vec<f64> = noisy.iter().map(|v| v * 0.2).collect();
        assert_eq!(verdict(&gate(true, 0.1), &noisy, &far), Verdict::Regressed);
    }

    #[test]
    fn benchmark_json_matches_the_run() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("parse BENCHMARK.json");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::run::SECONDS)
        );
        let gates = load_gates(&path).expect("gates");
        assert!(gates
            .iter()
            .any(|g| g.name == "setup_s" && !g.higher_better));
    }
}
