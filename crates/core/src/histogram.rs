//! The shared bucket-set estimator used by every partitioning technique.

use std::sync::{Arc, OnceLock};

use minskew_geom::Rect;

use crate::kernel::{BucketPlane, KernelExplain, KernelScratch, QueryPrep};
use crate::{Bucket, ExtensionRule, SpatialEstimator};

/// The structured result of
/// [`SpatialHistogram::estimate_count_explained`]: the kernel's breakdown
/// plus the histogram-level context an operator needs to read it.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateExplain {
    /// Technique label of the histogram that served the estimate
    /// (e.g. `"min_skew"`).
    pub technique: String,
    /// The extension rule the per-bucket amounts were derived under.
    pub rule: ExtensionRule,
    /// Bucket count of the histogram.
    pub num_buckets: usize,
    /// Total (possibly fractional) count across all buckets.
    pub total_count: f64,
    /// The kernel scan's evidence: per-bucket terms, pruning counters, and
    /// the headline estimate (bit-identical to
    /// [`SpatialHistogram::estimate_count_indexed`]).
    pub kernel: KernelExplain,
}

impl EstimateExplain {
    /// The headline estimate — bit-identical to
    /// [`SpatialHistogram::estimate_count_indexed`] for the same query.
    pub fn estimate(&self) -> f64 {
        self.kernel.estimate
    }
}

/// A spatial histogram: a flat set of disjoint-by-construction buckets, each
/// approximated under the uniformity assumption.
///
/// The buckets are produced by one of the partitioning techniques
/// ([`crate::build_equi_area`], [`crate::build_equi_count`],
/// [`crate::build_rtree_partitioning`], [`crate::MinSkewBuilder`], or the
/// trivial [`crate::build_uniform`]); the estimation logic is identical for
/// all of them, per §3.2 of the paper: "once the buckets are identified, the
/// problem of selectivity estimation reduces to solving selectivity
/// estimation over the individual buckets".
#[derive(Debug, Clone)]
pub struct SpatialHistogram {
    name: String,
    buckets: Vec<Bucket>,
    input_len: usize,
    rule: ExtensionRule,
    /// Weighted volume of mutations applied since construction; see the
    /// `maintenance` module. Not persisted and excluded from equality so
    /// that codec round-trips compare cleanly.
    churn: f64,
    /// Data size at construction time: the stable base that `staleness()`
    /// measures churn against. Dividing by the *current* `input_len` would
    /// overstate staleness under delete-heavy churn (the denominator
    /// shrinks as the numerator grows); see the `maintenance` module.
    /// Reconstructed on deserialisation (codecs rebuild via `from_parts`,
    /// where it equals the decoded `input_len`) and excluded from equality.
    base_len: usize,
    /// Per-bucket `(ex, ey)` extension amounts under `rule`
    /// (`rule.amounts(avg_width, avg_height)` per bucket), computed once per
    /// histogram so the reference scan does not re-derive them. Dropped
    /// (with [`SpatialHistogram::total`]) whenever a bucket or the rule
    /// changes; excluded from equality.
    ext: OnceLock<Vec<(f64, f64)>>,
    /// Cached [`SpatialHistogram::total_count`].
    total: OnceLock<f64>,
    /// Lazily built SoA mirror of the buckets for the vectorised
    /// clip-and-accumulate kernel; see [`BucketPlane`]. Shared by clones
    /// (a published snapshot and the table's working copy hold the same
    /// plane), patched copy-on-write by [`SpatialHistogram::update_bucket`],
    /// and dropped when the rule changes.
    plane: OnceLock<Arc<BucketPlane>>,
}

impl PartialEq for SpatialHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.buckets == other.buckets
            && self.input_len == other.input_len
            && self.rule == other.rule
    }
}

impl SpatialHistogram {
    /// Assembles a histogram from parts. Intended for the partitioning
    /// builders in this crate and for deserialisation; typical callers use
    /// the technique constructors instead.
    pub fn from_parts(
        name: impl Into<String>,
        buckets: Vec<Bucket>,
        input_len: usize,
        rule: ExtensionRule,
    ) -> SpatialHistogram {
        let hist = SpatialHistogram {
            name: name.into(),
            buckets,
            input_len,
            rule,
            churn: 0.0,
            base_len: input_len,
            ext: OnceLock::new(),
            total: OnceLock::new(),
            plane: OnceLock::new(),
        };
        // Seed the cheap O(B) caches eagerly (the plane stays lazy — only
        // serving paths pay for it, via `bucket_plane`).
        hist.ext_amounts();
        hist.total_count();
        hist
    }

    /// Applies `f` to bucket `id` — a count or average-extent update that
    /// keeps the bucket's MBR — and returns what `f` returns. The
    /// extension table and the total are dropped and recomputed on next
    /// use; a materialised kernel plane is patched in place
    /// ([`BucketPlane::patch`]), after a copy if a clone (a published
    /// snapshot) still shares it, so no clone ever sees the change.
    pub(crate) fn update_bucket<R>(&mut self, id: usize, f: impl FnOnce(&mut Bucket) -> R) -> R {
        let bucket = &mut self.buckets[id];
        let mbr = bucket.mbr;
        let out = f(bucket);
        debug_assert_eq!(bucket.mbr, mbr, "update_bucket must keep the MBR");
        self.ext.take();
        self.total.take();
        if let Some(plane) = self.plane.get_mut() {
            Arc::make_mut(plane).patch(id, bucket, self.rule);
        }
        out
    }

    /// Per-bucket extension amounts under the active rule, computed once.
    fn ext_amounts(&self) -> &[(f64, f64)] {
        self.ext.get_or_init(|| {
            self.buckets
                .iter()
                .map(|b| self.rule.amounts(b.avg_width, b.avg_height))
                .collect()
        })
    }

    pub(crate) fn input_len_mut(&mut self, delta: isize) {
        self.input_len = self.input_len.saturating_add_signed(delta);
    }

    pub(crate) fn churn_mut(&mut self, weight: f64) {
        self.churn += weight;
    }

    pub(crate) fn churn(&self) -> f64 {
        self.churn
    }

    /// The data size this histogram was built from — the stable
    /// denominator for staleness accounting (see the `maintenance`
    /// module).
    pub(crate) fn mutation_base(&self) -> usize {
        self.base_len
    }

    /// The histogram's buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The query-extension rule used at estimation time.
    pub fn extension_rule(&self) -> ExtensionRule {
        self.rule
    }

    /// Returns the histogram with a different extension rule (for
    /// ablation experiments). Rule-dependent caches (extension constants,
    /// kernel plane) are invalidated and rebuilt on next use.
    pub fn with_extension_rule(mut self, rule: ExtensionRule) -> SpatialHistogram {
        if rule != self.rule {
            self.rule = rule;
            self.ext.take();
            self.plane.take();
        }
        self
    }

    /// Sum of bucket counts; equals the number of input rectangles whose
    /// centre fell inside some bucket (normally all of them). Cached after
    /// the first call; invalidated by maintenance.
    pub fn total_count(&self) -> f64 {
        *self
            .total
            .get_or_init(|| self.buckets.iter().map(|b| b.count).sum())
    }

    /// The SoA kernel plane over this histogram's buckets, built lazily on
    /// first use, kept current by bucket updates, and rebuilt only after
    /// the extension rule changes.
    pub fn bucket_plane(&self) -> &BucketPlane {
        self.plane
            .get_or_init(|| Arc::new(BucketPlane::build(&self.buckets, self.rule)))
    }

    /// The reference linear scan: the AoS fold over
    /// [`Bucket::estimate_with_extension`] that every serving path is
    /// pinned bit-identical to. Kept callable so the differential suites
    /// and the bench compare the kernel against the genuine article rather
    /// than against itself.
    pub fn estimate_count_reference(&self, query: &Rect) -> f64 {
        // The extension amounts are a pure per-bucket function of the rule;
        // using the precomputed table is bit-identical to re-deriving them.
        self.buckets
            .iter()
            .zip(self.ext_amounts())
            .map(|(b, &(ex, ey))| b.estimate_with_extension(query, ex, ey))
            .sum()
    }

    /// [`SpatialEstimator::estimate_count`] through the serving fast path:
    /// bit-identical to the linear scan, sub-linear in the bucket count for
    /// selective queries, and allocation-free once `scratch` is warm.
    ///
    /// The kernel's block-pruned scan
    /// ([`crate::BucketPlane::accumulate_pruned`]) discards whole runs of
    /// spatially-clustered buckets with one coarse rectangle test each and
    /// replays the few surviving terms in reference fold order; every
    /// differential suite pins it to
    /// [`SpatialHistogram::estimate_count_reference`].
    pub fn estimate_count_indexed(&self, query: &Rect, scratch: &mut KernelScratch) -> f64 {
        self.bucket_plane()
            .accumulate_pruned(&QueryPrep::new(query), &mut scratch.terms)
    }

    /// [`SpatialHistogram::estimate_count_indexed`] with the evidence
    /// attached: per-bucket contributions (id, extension amounts, clipped
    /// fraction, term value), block/quad pruning counters, and the
    /// histogram's technique/rule context. The headline
    /// `EstimateExplain::estimate` is **bit-identical** to
    /// `estimate_count_indexed` for the same query — the explain walker is
    /// the same scan with recording on the side, never a re-derivation
    /// (see [`BucketPlane::accumulate_pruned_explained`]).
    pub fn estimate_count_explained(
        &self,
        query: &Rect,
        scratch: &mut KernelScratch,
    ) -> EstimateExplain {
        let kernel = self
            .bucket_plane()
            .accumulate_pruned_explained(&QueryPrep::new(query), &mut scratch.terms);
        EstimateExplain {
            technique: self.name.clone(),
            rule: self.rule,
            num_buckets: self.buckets.len(),
            total_count: self.total_count(),
            kernel,
        }
    }

    /// Byte-level breakdown of everything this histogram keeps resident
    /// for serving, *as currently materialised*: the lazily built kernel
    /// plane counts only once something has forced it.
    pub fn serving_footprint(&self) -> ServingFootprint {
        let summary = self.buckets.len() * Bucket::SIZE_BYTES;
        let ext_table = self
            .ext
            .get()
            .map_or(0, |t| t.len() * std::mem::size_of::<(f64, f64)>());
        let plane = self.plane.get().map_or(0, |p| p.size_bytes());
        ServingFootprint {
            summary,
            ext_table,
            plane,
        }
    }
}

/// Byte-level breakdown of a histogram's serving footprint
/// ([`SpatialHistogram::serving_footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingFootprint {
    /// The bucket summary itself under the paper's §5.4 accounting
    /// (eight words per bucket).
    pub summary: usize,
    /// Cached per-bucket extension amounts.
    pub ext_table: usize,
    /// The SoA kernel plane ([`BucketPlane`]), when materialised.
    pub plane: usize,
}

impl ServingFootprint {
    /// Total resident bytes.
    pub fn total(&self) -> usize {
        self.summary + self.ext_table + self.plane
    }
}

impl SpatialEstimator for SpatialHistogram {
    fn estimate_count(&self, query: &Rect) -> f64 {
        // The SoA kernel fold is proven bit-identical to the reference
        // AoS fold (`estimate_count_reference`); the serving and kernel
        // differential suites pin it.
        self.bucket_plane().accumulate(&QueryPrep::new(query))
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn size_bytes(&self) -> usize {
        self.serving_footprint().total()
    }

    fn summary_bytes(&self) -> usize {
        self.buckets.len() * Bucket::SIZE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bucket_hist() -> SpatialHistogram {
        SpatialHistogram::from_parts(
            "test",
            vec![
                Bucket {
                    mbr: Rect::new(0.0, 0.0, 10.0, 10.0),
                    count: 60.0,
                    avg_width: 0.0,
                    avg_height: 0.0,
                },
                Bucket {
                    mbr: Rect::new(10.0, 0.0, 20.0, 10.0),
                    count: 40.0,
                    avg_width: 0.0,
                    avg_height: 0.0,
                },
            ],
            100,
            ExtensionRule::Minkowski,
        )
    }

    #[test]
    fn sums_bucket_contributions() {
        let h = two_bucket_hist();
        // Covers all of bucket 1 and half of bucket 2.
        let q = Rect::new(0.0, 0.0, 15.0, 10.0);
        assert!((h.estimate_count(&q) - (60.0 + 20.0)).abs() < 1e-9);
        assert!((h.estimate_selectivity(&q) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn accounting() {
        let h = two_bucket_hist();
        assert_eq!(h.num_buckets(), 2);
        // Paper accounting: eight words per bucket, nothing else.
        assert_eq!(h.summary_bytes(), 2 * 64);
        // Serving footprint: `from_parts` seeds the extension table; the
        // kernel plane is lazy and not yet resident.
        let fp = h.serving_footprint();
        assert_eq!(fp.summary, 2 * 64);
        assert_eq!(fp.ext_table, 2 * 16);
        assert_eq!(fp.plane, 0);
        assert_eq!(h.size_bytes(), fp.total());
        // Serving materialises the plane (fine columns, the Morton mirror
        // padded to a whole quad, the id map, block summaries padded to a
        // coarse vector of four, and one block window of quad summaries).
        let mut scratch = KernelScratch::new();
        let _ = h.estimate_count_indexed(&Rect::new(0.0, 0.0, 1.0, 1.0), &mut scratch);
        let fp = h.serving_footprint();
        assert_eq!(
            fp.plane,
            2 * 7 * 8 + 4 * 7 * 8 + 4 * 4 + 4 * 6 * 8 + 4 * 6 * 8
        );
        assert_eq!(h.size_bytes(), fp.total());
        assert!(h.size_bytes() > h.summary_bytes());
        assert_eq!(h.total_count(), 100.0);
        assert_eq!(h.input_len(), 100);
        assert_eq!(h.name(), "test");
    }

    #[test]
    fn rule_swap_changes_estimates() {
        let h = SpatialHistogram::from_parts(
            "t",
            vec![Bucket {
                mbr: Rect::new(0.0, 0.0, 10.0, 10.0),
                count: 100.0,
                avg_width: 2.0,
                avg_height: 2.0,
            }],
            100,
            ExtensionRule::Minkowski,
        );
        let q = Rect::new(0.0, 0.0, 5.0, 10.0);
        let a = h.estimate_count(&q);
        let b = h
            .with_extension_rule(ExtensionRule::PaperLiteral)
            .estimate_count(&q);
        assert!(b > a, "paper-literal extension must estimate higher");
    }

    #[test]
    fn empty_histogram_estimates_zero() {
        let h = SpatialHistogram::from_parts("e", vec![], 0, ExtensionRule::Minkowski);
        assert_eq!(h.estimate_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
        assert_eq!(h.estimate_selectivity(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
        let mut scratch = KernelScratch::new();
        assert_eq!(
            h.estimate_count_indexed(&Rect::new(0.0, 0.0, 1.0, 1.0), &mut scratch),
            0.0
        );
    }

    #[test]
    fn indexed_estimate_matches_linear_bits() {
        let h = two_bucket_hist();
        let mut scratch = KernelScratch::new();
        for q in [
            Rect::new(0.0, 0.0, 15.0, 10.0),
            Rect::new(-100.0, -100.0, -50.0, -50.0),
            Rect::new(9.9, 4.0, 10.1, 6.0),
            Rect::from_point(minskew_geom::Point::new(3.0, 3.0)),
        ] {
            assert_eq!(
                h.estimate_count(&q).to_bits(),
                h.estimate_count_indexed(&q, &mut scratch).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn kernel_paths_match_reference_paths_bits() {
        // The production paths (SoA kernel) against the AoS reference
        // fold, across rules; the dedicated kernel differential suite
        // widens this to full datasets and techniques.
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            let h = two_bucket_hist().with_extension_rule(rule);
            let mut scratch = KernelScratch::new();
            for q in [
                Rect::new(0.0, 0.0, 15.0, 10.0),
                Rect::new(-100.0, -100.0, -50.0, -50.0),
                Rect::new(9.9, 4.0, 10.1, 6.0),
                Rect::new(10.0, 0.0, 10.0, 10.0),
                Rect::from_point(minskew_geom::Point::new(3.0, 3.0)),
            ] {
                assert_eq!(
                    h.estimate_count(&q).to_bits(),
                    h.estimate_count_reference(&q).to_bits(),
                    "rule={rule:?} q={q}"
                );
                assert_eq!(
                    h.estimate_count_indexed(&q, &mut scratch).to_bits(),
                    h.estimate_count_reference(&q).to_bits(),
                    "rule={rule:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn caches_invalidate_on_bucket_mutation_and_rule_swap() {
        let mut h = two_bucket_hist();
        assert_eq!(h.total_count(), 100.0);
        let _ = h.bucket_plane(); // force-build the lazy plane
        let shared = h.clone();
        h.update_bucket(0, |b| {
            b.count = 0.0;
            b.avg_width = 2.0;
        });
        assert_eq!(h.total_count(), 40.0, "total cache must invalidate");
        let mut scratch = KernelScratch::new();
        let q = Rect::new(0.0, 0.0, 15.0, 10.0);
        assert_eq!(
            h.estimate_count_indexed(&q, &mut scratch).to_bits(),
            h.estimate_count_reference(&q).to_bits(),
            "the plane must be patched with the bucket"
        );
        // The clone shared the plane before the update and keeps the old
        // one: the patch copied it first.
        assert_eq!(shared.buckets()[0].count, 60.0);
        assert_eq!(
            shared.estimate_count_indexed(&q, &mut scratch).to_bits(),
            shared.estimate_count_reference(&q).to_bits(),
            "a clone must not see the patch"
        );
        // Rule swap invalidates the extension table + plane but not total.
        let h2 = h.with_extension_rule(ExtensionRule::PaperLiteral);
        assert_eq!(h2.total_count(), 40.0);
        assert_eq!(
            h2.estimate_count(&q).to_bits(),
            h2.estimate_count_indexed(&q, &mut scratch).to_bits()
        );
    }
}
