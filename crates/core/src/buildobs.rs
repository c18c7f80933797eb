//! Build-time observability hooks shared by every histogram builder.

use crate::{SpatialEstimator, SpatialHistogram};

/// Records one histogram construction into the global metrics registry:
/// `core.build.<technique>.ns` (latency histogram) and
/// `core.build.<technique>.bytes` (summary-size gauge).
///
/// Recording is write-only and touches nothing the build result depends on,
/// so instrumented and uninstrumented builds are byte-identical.
pub(crate) fn record_build(hist: &SpatialHistogram, build_ns: u64) {
    let technique = minskew_obs::name_component(hist.name());
    let registry = minskew_obs::Registry::global();
    registry
        .histogram(&format!("core.build.{technique}.ns"))
        .record(build_ns);
    registry
        .gauge(&format!("core.build.{technique}.bytes"))
        .set(hist.summary_bytes() as f64);
}
