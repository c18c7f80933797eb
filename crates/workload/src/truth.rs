//! Exact ground-truth result sizes via a bulk-loaded R\*-tree.

use minskew_data::Dataset;
use minskew_geom::Rect;
use minskew_rtree::{Item, RStarTree, RTreeConfig};

/// Exact query-result sizes for a dataset.
///
/// Wraps an STR-bulk-loaded R\*-tree; answering a query costs roughly
/// `O(√N + k)` instead of the `O(N)` scan, which is what makes evaluating
/// 10 000 queries per experiment point over 400 000+ rectangles practical.
pub struct GroundTruth {
    tree: RStarTree<()>,
    /// Dataset MBR cached at index time: queries disjoint from it are
    /// answered without touching the tree at all.
    mbr: Rect,
    n: usize,
}

impl GroundTruth {
    /// Indexes the dataset (STR bulk load, high fan-out for read-only use).
    pub fn index(data: &Dataset) -> GroundTruth {
        let items = data.rects().iter().map(|&r| Item::new(r, ())).collect();
        GroundTruth {
            tree: RStarTree::bulk_load(RTreeConfig::with_max_entries(64), items),
            mbr: data.stats().mbr,
            n: data.len(),
        }
    }

    /// Exact number of input rectangles intersecting `query`.
    ///
    /// Short-circuits when the query is disjoint from the dataset MBR (or
    /// the dataset is empty): workload generators and auto-tuning sweeps
    /// probe far outside the populated domain constantly, and those queries
    /// should cost a rectangle test, not a tree descent per call.
    pub fn count(&self, query: &Rect) -> usize {
        if self.n == 0 || !query.intersects(&self.mbr) {
            return 0;
        }
        self.tree.count_intersecting(query)
    }

    /// Exact counts for a batch of queries, spread across `threads` worker
    /// threads (`1` = inline serial, `0` = one worker per available core).
    ///
    /// Counts are integers computed independently per query and written
    /// back at the query's index, so the output is identical at every
    /// thread count. Queries fan out through a chunked work queue rather
    /// than static chunks: result sizes (and thus per-query cost) span
    /// orders of magnitude, and a static split would let one dense region
    /// serialize the whole batch.
    pub fn counts_with_threads(&self, queries: &[Rect], threads: usize) -> Vec<usize> {
        // 32 queries per chunk: coarse enough to amortise the queue's
        // atomic increment, fine enough to balance skewed workloads.
        minskew_par::map_chunks_queued(threads, 32, queries, |q| self.count(q))
    }

    /// Exact counts for a batch of queries.
    ///
    /// Large batches are spread across all available cores (the tree is
    /// read-only); small batches run inline to avoid thread overhead.
    pub fn counts(&self, queries: &[Rect]) -> Vec<usize> {
        let threads = if queries.len() < 256 {
            1
        } else {
            minskew_par::effective_threads(0)
        };
        self.counts_with_threads(queries, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryWorkload;
    use minskew_datagen::{charminar_with, uniform_rects};

    #[test]
    fn matches_brute_force() {
        let ds = charminar_with(3_000, 1);
        let gt = GroundTruth::index(&ds);
        for (i, q) in [
            Rect::new(0.0, 0.0, 2_000.0, 2_000.0),
            Rect::new(4_000.0, 4_000.0, 6_000.0, 6_000.0),
            Rect::new(9_000.0, 0.0, 10_000.0, 1_000.0),
            Rect::new(5_000.0, 5_000.0, 5_000.0, 5_000.0),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(
                gt.count(q),
                ds.count_intersecting(q),
                "query {i} disagrees with the scan"
            );
        }
    }

    #[test]
    fn batch_counts() {
        let ds = charminar_with(1_000, 2);
        let gt = GroundTruth::index(&ds);
        let queries = vec![Rect::new(0.0, 0.0, 5_000.0, 5_000.0); 3];
        let counts = gt.counts(&queries);
        assert_eq!(counts.len(), 3);
        assert!(counts.iter().all(|&c| c == counts[0]));
    }

    #[test]
    fn disjoint_queries_short_circuit_and_stay_exact() {
        let ds = charminar_with(2_000, 3);
        let gt = GroundTruth::index(&ds);
        let mbr = ds.stats().mbr;
        // Entirely outside the domain on every side, plus one query just
        // *touching* the MBR edge — touching is an intersection and must
        // NOT be short-circuited away.
        let outside = [
            Rect::new(mbr.hi.x + 1.0, mbr.lo.y, mbr.hi.x + 100.0, mbr.hi.y),
            Rect::new(mbr.lo.x, mbr.hi.y + 1.0, mbr.hi.x, mbr.hi.y + 50.0),
            Rect::new(
                mbr.lo.x - 500.0,
                mbr.lo.y - 500.0,
                mbr.lo.x - 1.0,
                mbr.lo.y - 1.0,
            ),
        ];
        for q in &outside {
            assert_eq!(gt.count(q), 0);
            assert_eq!(gt.count(q), ds.count_intersecting(q));
        }
        let touching = Rect::new(mbr.hi.x, mbr.lo.y, mbr.hi.x + 10.0, mbr.hi.y);
        assert_eq!(gt.count(&touching), ds.count_intersecting(&touching));
        // Empty dataset: every query short-circuits to zero.
        let empty = GroundTruth::index(&Dataset::new(vec![]));
        assert_eq!(empty.count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
    }

    /// Batch counts equal the O(N) scan at every thread count, over
    /// `(dataset, queries)` pairs that span dense, sparse, disjoint, point
    /// and touching queries.
    #[test]
    fn threaded_batch_counts_equal_serial() {
        let mixed = {
            let ds = charminar_with(4_000, 5);
            let mbr = ds.stats().mbr;
            let queries: Vec<Rect> = (0..300)
                .map(|i| {
                    let t = (i % 100) as f64 * 110.0;
                    match i % 4 {
                        0 => Rect::new(t, t, t + 900.0, t + 900.0),
                        1 => Rect::new(t, t, t, t), // point query
                        2 => Rect::new(mbr.hi.x + t + 1.0, 0.0, mbr.hi.x + t + 2.0, 10.0),
                        _ => Rect::new(0.0, t, 1_500.0, t + 1_500.0),
                    }
                })
                .collect();
            (ds, queries)
        };
        let workload = |ds: Dataset, qsize: f64, n: usize, seed: u64| {
            let queries = QueryWorkload::generate(&ds, qsize, n, seed)
                .queries()
                .to_vec();
            (ds, queries)
        };
        // A uniform spread with one dense cluster: skewed per-query cost.
        let clustered = {
            let mut rects =
                uniform_rects(300, Rect::new(0.0, 0.0, 2_000.0, 2_000.0), 40.0, 40.0, 3)
                    .into_rects();
            rects.extend((0..50).map(|i| {
                let (x, y) = (900.0 + (i % 10) as f64 * 4.0, 700.0 + (i / 10) as f64 * 4.0);
                Rect::new(x, y, x + 6.0, y + 6.0)
            }));
            Dataset::new(rects)
        };
        for (ds, queries) in [
            mixed,
            workload(charminar_with(5_000, 23), 0.1, 400, 29),
            workload(clustered, 0.1, 64, 7),
        ] {
            let gt = GroundTruth::index(&ds);
            let serial = gt.counts_with_threads(&queries, 1);
            let scan: Vec<usize> = queries.iter().map(|q| ds.count_intersecting(q)).collect();
            assert_eq!(serial, scan);
            for threads in [0usize, 2, 3, 8] {
                assert_eq!(
                    gt.counts_with_threads(&queries, threads),
                    serial,
                    "threads = {threads}"
                );
            }
            assert_eq!(gt.counts(&queries), serial);
        }
    }
}
