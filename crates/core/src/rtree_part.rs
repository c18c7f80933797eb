//! R-tree index-based grouping (§3.4): histogram buckets from the MBRs of
//! R\*-tree internal nodes.

use minskew_data::Dataset;
use minskew_rtree::{RStarTree, RTreeConfig};

use crate::error::BuildError;
use crate::{Bucket, ExtensionRule, SpatialHistogram};

/// How the underlying R\*-tree is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RTreeBuildMethod {
    /// Repeated R\*-insertion — the paper's method (Table 1 measures it),
    /// and the default.
    #[default]
    Insertion,
    /// Sort-Tile-Recursive bulk loading: much faster, slab-shaped nodes.
    StrBulk,
    /// Hilbert-curve packing: fast *and* distribution-aware — the kind of
    /// construction the paper's \[TS96\] reference speculates should yield
    /// partitions "more conducive to selectivity estimation".
    HilbertBulk,
}

/// Options for the R-tree partitioning technique.
#[derive(Debug, Clone, Copy)]
pub struct RTreePartitioningOptions {
    /// Node capacity of the underlying R\*-tree. Smaller capacities give a
    /// finer-grained frontier and therefore bucket counts closer to the
    /// quota — the knob the paper describes tweaking.
    pub max_entries: usize,
    /// Tree-construction method.
    pub method: RTreeBuildMethod,
}

impl Default for RTreePartitioningOptions {
    fn default() -> RTreePartitioningOptions {
        RTreePartitioningOptions {
            max_entries: 16,
            method: RTreeBuildMethod::Insertion,
        }
    }
}

/// Builds the *R-Tree* partitioning: inserts every rectangle into an
/// R\*-tree, then cuts the tree into at most `buckets` subtrees and exports
/// each subtree's MBR and aggregates as a bucket.
///
/// As the paper notes, the technique often produces *fewer* buckets than its
/// quota because the frontier can only grow in whole-node steps; the
/// histogram reports its true size via
/// [`SpatialHistogram::num_buckets`].
pub fn build_rtree_partitioning(
    data: &Dataset,
    buckets: usize,
    options: RTreePartitioningOptions,
) -> SpatialHistogram {
    assert!(buckets >= 1, "need at least one bucket");
    let config = RTreeConfig::with_max_entries(options.max_entries);
    build_rtree_partitioning_with(data, buckets, options, config)
}

/// Fallible counterpart of [`build_rtree_partitioning`].
///
/// # Errors
///
/// * [`BuildError::ZeroBucketBudget`] — `buckets == 0`.
/// * [`BuildError::EmptyDataset`] — no input rectangles.
/// * [`BuildError::InvalidConfig`] — `options.max_entries < 4` (the R\*-tree
///   node-capacity floor).
pub fn try_build_rtree_partitioning(
    data: &Dataset,
    buckets: usize,
    options: RTreePartitioningOptions,
) -> Result<SpatialHistogram, BuildError> {
    if buckets == 0 {
        return Err(BuildError::ZeroBucketBudget);
    }
    if data.is_empty() {
        return Err(BuildError::EmptyDataset);
    }
    if !data.stats().mbr.is_finite() {
        return Err(BuildError::NonFiniteMbr);
    }
    let config = RTreeConfig::try_with_max_entries(options.max_entries)
        .map_err(|e| BuildError::InvalidConfig(e.to_string()))?;
    Ok(build_rtree_partitioning_with(
        data, buckets, options, config,
    ))
}

fn build_rtree_partitioning_with(
    data: &Dataset,
    buckets: usize,
    options: RTreePartitioningOptions,
    config: RTreeConfig,
) -> SpatialHistogram {
    let items = || {
        data.rects()
            .iter()
            .map(|&r| minskew_rtree::Item::new(r, ()))
            .collect::<Vec<_>>()
    };
    let tree: RStarTree<()> = match options.method {
        RTreeBuildMethod::Insertion => {
            let mut t = RStarTree::new(config);
            for &r in data.rects() {
                t.insert(r, ());
            }
            t
        }
        RTreeBuildMethod::StrBulk => RStarTree::bulk_load(config, items()),
        RTreeBuildMethod::HilbertBulk => RStarTree::bulk_load_hilbert(config, items()),
    };
    let summaries = tree.partition_frontier(buckets);
    let out = summaries
        .into_iter()
        .filter(|s| s.count > 0)
        .map(|s| Bucket {
            mbr: s.mbr,
            count: s.count as f64,
            avg_width: s.sum_width / s.count as f64,
            avg_height: s.sum_height / s.count as f64,
        })
        .collect();
    SpatialHistogram::from_parts("R-Tree", out, data.len(), ExtensionRule::default())
}

/// Convenience wrapper using default options.
pub fn build_rtree_partitioning_default(data: &Dataset, buckets: usize) -> SpatialHistogram {
    build_rtree_partitioning(data, buckets, RTreePartitioningOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialEstimator;
    use minskew_datagen::{charminar_with, uniform_rects};
    use minskew_geom::Rect;

    #[test]
    fn covers_input_and_respects_quota() {
        let ds = charminar_with(4_000, 1);
        for method in [
            RTreeBuildMethod::Insertion,
            RTreeBuildMethod::StrBulk,
            RTreeBuildMethod::HilbertBulk,
        ] {
            let h = build_rtree_partitioning(
                &ds,
                64,
                RTreePartitioningOptions {
                    method,
                    ..Default::default()
                },
            );
            assert!(h.num_buckets() <= 64);
            assert!(h.num_buckets() >= 8, "got {} buckets", h.num_buckets());
            assert!((h.total_count() - 4_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn beats_uniform_on_skewed_data() {
        let ds = charminar_with(8_000, 2);
        let uni = crate::build_uniform(&ds);
        let h = build_rtree_partitioning_default(&ds, 100);
        let q = Rect::new(0.0, 0.0, 1_500.0, 1_500.0);
        let actual = ds.count_intersecting(&q) as f64;
        let err = |e: f64| (e - actual).abs() / actual.max(1.0);
        assert!(
            err(h.estimate_count(&q)) < err(uni.estimate_count(&q)),
            "rtree {} vs uniform {}",
            err(h.estimate_count(&q)),
            err(uni.estimate_count(&q))
        );
    }

    #[test]
    fn reasonable_on_uniform_data() {
        let ds = uniform_rects(5_000, Rect::new(0.0, 0.0, 1000.0, 1000.0), 5.0, 5.0, 3);
        let h = build_rtree_partitioning_default(&ds, 50);
        let q = Rect::new(100.0, 100.0, 400.0, 400.0);
        let actual = ds.count_intersecting(&q) as f64;
        let e = h.estimate_count(&q);
        assert!((e - actual).abs() / actual < 0.35, "est {e} vs {actual}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = Dataset::new(vec![]);
        let h = build_rtree_partitioning_default(&empty, 10);
        assert_eq!(h.num_buckets(), 0);
        let one = Dataset::new(vec![Rect::new(0.0, 0.0, 1.0, 1.0)]);
        let h = build_rtree_partitioning_default(&one, 10);
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.total_count(), 1.0);
    }
}
