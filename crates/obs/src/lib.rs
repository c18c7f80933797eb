//! Zero-dependency observability for the `minskew` estimator stack.
//!
//! Everything here is built from `std` alone — no external crates — and is
//! designed around one hard contract: **instrumentation must be invisible to
//! the computation it observes**. Metrics are write-only from the hot path's
//! perspective (relaxed atomics, no locks on record) and timers read only
//! the monotonic clock, so the differential test suites can prove estimates
//! and encoded statistics are byte-identical with observability on or off.
//!
//! The pieces:
//!
//! * [`Counter`] — a lock-free monotonic `u64` (relaxed atomic add).
//! * [`Gauge`] — a lock-free `f64` cell (the latest value wins).
//! * [`Histogram`] — fixed-bucket **log₂** distribution of `u64` samples
//!   (latencies in nanoseconds, sizes in bytes): 64 buckets, bucket *i*
//!   counting values in `[2^i, 2^(i+1))`, recorded with two relaxed atomic
//!   adds and summarised without allocation.
//! * [`Stopwatch`] — a monotonic-clock lap timer for staged timing.
//! * [`Registry`] — one component's directory of metrics under
//!   hierarchical dot-separated names. Each table and each server owns
//!   one; there is no process-wide registry, so every value has exactly
//!   one store. A [`RegistrySnapshot`] is the one read model: owners merge
//!   the state they compute at scrape time into it, every surface reads
//!   it by name ([`RegistrySnapshot::counter`], …), and it exports to JSON
//!   ([`RegistrySnapshot::to_json`], schema-pinned by a golden test) or
//!   human-readable text ([`RegistrySnapshot::to_text`]).
//! * [`FlightRecorder`] — a fixed-capacity lock-free ring of structured
//!   [`QueryRecord`]s (slow / wrong / sampled queries), drained as pinned
//!   `minskew-obs/flight-v1` JSONL.
//!
//! # Example
//!
//! ```
//! use minskew_obs::Registry;
//!
//! let registry = Registry::new();
//! let served = registry.counter("engine.query.calls");
//! let latency = registry.histogram("engine.query.ns");
//! served.inc();
//! latency.record(1_500);
//! let json = registry.to_json();
//! assert!(json.contains("\"engine.query.calls\": 1"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod export;
mod flight;
mod metrics;
mod registry;
mod stopwatch;

pub use export::{json_escape, json_f64};
pub use flight::{FlightRecorder, FlightTrigger, QueryRecord, TID_BYTES};
pub use metrics::{bucket_bounds, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{Registry, RegistrySnapshot};
pub use stopwatch::Stopwatch;

/// Normalises a display name (a technique name like `"Min-Skew"`) into one
/// dot-separated metric-name component: lowercase, with `-`, spaces, and
/// `.` replaced by `_` so the component cannot collide with the hierarchy
/// separator.
///
/// ```
/// assert_eq!(minskew_obs::name_component("Min-Skew"), "min_skew");
/// assert_eq!(minskew_obs::name_component("Equi-Area"), "equi_area");
/// ```
pub fn name_component(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            '-' | ' ' | '.' => '_',
            c => c.to_ascii_lowercase(),
        })
        .collect()
}
