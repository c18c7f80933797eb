//! JSON and human-readable text emitters for registry snapshots.
//!
//! The JSON schema is versioned (`minskew-obs/v1`) and pinned byte-for-byte
//! by a golden test at the workspace root, so field names, ordering, and
//! histogram bucket bounds cannot drift silently. Everything is emitted by
//! hand — no serialization crate — which is exactly why the golden pin
//! matters.

use crate::metrics::bucket_bounds;
use crate::registry::RegistrySnapshot;
use std::fmt::Write as _;

/// Escapes `s` for a JSON string literal (quotes, backslash, control chars).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A gauge value as a JSON number, or `null` when non-finite (JSON has no
/// Inf/NaN).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The snapshot as schema-versioned JSON. Keys within each section follow
/// the snapshot's (sorted) order; histograms list only non-empty buckets,
/// each with its `[lo, hi)` bounds inlined so consumers never need the
/// bucketing formula.
pub fn to_json(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"minskew-obs/v1\",\n  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {}",
            json_escape(name),
            json_f64(*value)
        );
    }
    if !snap.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
            json_escape(name),
            h.count,
            h.sum
        );
        for (j, &(bucket, count)) in h.buckets.iter().enumerate() {
            let (lo, hi) = bucket_bounds(bucket);
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {count}}}"
            );
        }
        out.push_str("]}");
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// The snapshot as human-readable text: one metric per line, histograms
/// summarised by count / mean / p50 / p99 upper bounds.
pub fn to_text(snap: &RegistrySnapshot) -> String {
    let width = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.gauges.iter().map(|(n, _)| n.len()))
        .chain(snap.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "{name:width$}  {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "{name:width$}  {value:.6}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{name:width$}  count={} mean={:.1} p50<{} p99<{}",
            h.count,
            h.mean(),
            h.quantile_upper_bound(0.5),
            h.quantile_upper_bound(0.99),
        );
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_non_finite_is_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn empty_registry_exports_empty_sections() {
        let r = Registry::new();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"minskew-obs/v1\""));
        assert!(json.contains("\"counters\": {}"));
        assert_eq!(r.to_text(), "(no metrics recorded)\n");
    }

    #[test]
    fn populated_registry_round_trips_values() {
        let r = Registry::new();
        r.counter("c.one").add(5);
        r.gauge("g.err").set(0.25);
        r.histogram("h.ns").record(1024);
        let json = r.to_json();
        assert!(json.contains("\"c.one\": 5"));
        assert!(json.contains("\"g.err\": 0.25"));
        assert!(json.contains("\"lo\": 1024, \"hi\": 2048, \"count\": 1"));
        let text = r.to_text();
        assert!(text.contains("c.one"));
        assert!(text.contains("count=1"));
    }
}
