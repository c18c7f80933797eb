//! k-nearest-neighbour search (branch-and-bound on MINDIST).
//!
//! Not used by the selectivity-estimation experiments, but a spatial index
//! shipped as a library is expected to answer proximity queries; GIS
//! workloads mix range and nearest-neighbour access. The implementation is
//! the classic best-first traversal over a priority queue ordered by
//! `MINDIST` (the smallest possible distance between the query point and
//! anything inside a node's MBR), which visits the minimum number of nodes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use minskew_geom::{Point, Rect};

use crate::node::{Item, Node};
use crate::tree::RStarTree;

/// Squared MINDIST from a point to a rectangle (0 inside).
fn min_dist2(p: Point, r: &Rect) -> f64 {
    let dx = (r.lo.x - p.x).max(0.0).max(p.x - r.hi.x);
    let dy = (r.lo.y - p.y).max(0.0).max(p.y - r.hi.y);
    dx * dx + dy * dy
}

/// Heap entry: either a node to expand or an item result candidate.
enum Candidate<'a, T> {
    Node(&'a Node<T>),
    Item(&'a Item<T>),
}

struct Entry<'a, T> {
    dist2: f64,
    candidate: Candidate<'a, T>,
}

impl<T> PartialEq for Entry<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl<T> Eq for Entry<'_, T> {}
impl<T> PartialOrd for Entry<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison; NaN cannot occur (inputs are
        // finite by Dataset/Rect construction).
        other
            .dist2
            .partial_cmp(&self.dist2)
            .unwrap_or(Ordering::Equal)
    }
}

impl<T> RStarTree<T> {
    /// Returns the `k` items nearest to `p` (by distance to their
    /// rectangles; a containing rectangle has distance zero), closest first.
    ///
    /// Fewer than `k` items are returned when the tree is smaller than `k`.
    pub fn nearest_neighbors(&self, p: Point, k: usize) -> Vec<&Item<T>> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        if k == 0 || self.is_empty() {
            return out;
        }
        let mut heap: BinaryHeap<Entry<'_, T>> = BinaryHeap::new();
        heap.push(Entry {
            dist2: min_dist2(p, &self.mbr()),
            candidate: Candidate::Node(self.root()),
        });
        while let Some(entry) = heap.pop() {
            match entry.candidate {
                Candidate::Item(item) => {
                    // Popped in global distance order: this item is closer
                    // than everything still in the heap.
                    out.push(item);
                    if out.len() == k {
                        break;
                    }
                }
                Candidate::Node(node) => match node {
                    Node::Leaf { items, .. } => {
                        for item in items {
                            heap.push(Entry {
                                dist2: min_dist2(p, &item.rect),
                                candidate: Candidate::Item(item),
                            });
                        }
                    }
                    Node::Internal { children, .. } => {
                        for child in children {
                            heap.push(Entry {
                                dist2: min_dist2(p, &child.mbr()),
                                candidate: Candidate::Node(child),
                            });
                        }
                    }
                },
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mindist_basics() {
        let r = Rect::new(2.0, 2.0, 4.0, 4.0);
        assert_eq!(min_dist2(Point::new(3.0, 3.0), &r), 0.0); // inside
        assert_eq!(min_dist2(Point::new(2.0, 2.0), &r), 0.0); // corner
        assert_eq!(min_dist2(Point::new(0.0, 3.0), &r), 4.0); // left
        assert_eq!(min_dist2(Point::new(5.0, 5.0), &r), 2.0); // diagonal
    }

    #[test]
    fn knn_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rects: Vec<Rect> = (0..600)
            .map(|_| {
                let x = rng.gen_range(0.0..1000.0);
                let y = rng.gen_range(0.0..1000.0);
                Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.0..10.0),
                    y + rng.gen_range(0.0..10.0),
                )
            })
            .collect();
        let mut tree = RStarTree::new(RTreeConfig::with_max_entries(8));
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
        }
        for _ in 0..50 {
            let p = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            let k = rng.gen_range(1..20usize);
            let got = tree.nearest_neighbors(p, k);
            assert_eq!(got.len(), k);
            // Brute force: sort all distances.
            let mut dists: Vec<f64> = rects.iter().map(|r| min_dist2(p, r)).collect();
            dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (i, item) in got.iter().enumerate() {
                let d = min_dist2(p, &item.rect);
                assert!(
                    (d - dists[i]).abs() < 1e-9,
                    "neighbour {i}: got dist2 {d}, brute force {}",
                    dists[i]
                );
            }
        }
    }

    #[test]
    fn knn_edge_cases() {
        let empty: RStarTree<u8> = RStarTree::new(RTreeConfig::default());
        assert!(empty.nearest_neighbors(Point::new(0.0, 0.0), 3).is_empty());

        let mut one = RStarTree::new(RTreeConfig::default());
        one.insert(Rect::new(5.0, 5.0, 6.0, 6.0), 7u8);
        let got = one.nearest_neighbors(Point::new(0.0, 0.0), 10);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, 7);
        assert!(one.nearest_neighbors(Point::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn knn_ordered_closest_first() {
        let mut tree = RStarTree::new(RTreeConfig::default());
        for i in 0..50 {
            let x = i as f64 * 10.0;
            tree.insert(Rect::new(x, 0.0, x + 1.0, 1.0), i);
        }
        let p = Point::new(250.0, 0.5);
        let got = tree.nearest_neighbors(p, 5);
        for w in got.windows(2) {
            assert!(
                min_dist2(p, &w[0].rect) <= min_dist2(p, &w[1].rect),
                "distances must be non-decreasing"
            );
        }
        assert_eq!(got[0].data, 25);
    }
}
