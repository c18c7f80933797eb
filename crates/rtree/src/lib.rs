//! A from-scratch R\*-tree (Beckmann, Kriegel, Schneider, Seeger 1990).
//!
//! The paper under reproduction uses the R\*-tree in two roles:
//!
//! 1. As the **index-based partitioning** technique (§3.4): the MBRs of the
//!    internal nodes of an R\*-tree summarise the data distribution, so a
//!    frontier of nodes becomes a set of histogram buckets. See
//!    [`RStarTree::partition_frontier`].
//! 2. As the fast **exact ground truth** for the evaluation harness:
//!    computing real result sizes for 10 000 queries over 400 000+
//!    rectangles is infeasible by scanning; the tree answers
//!    [`RStarTree::count_intersecting`] in roughly `O(√N + k)`.
//!
//! The implementation follows the published algorithm: `ChooseSubtree`
//! minimises *overlap enlargement* when descending to leaf parents and *area
//! enlargement* above, splits choose their axis by minimum margin sum and
//! their distribution by minimum overlap, and overflowing nodes first retry a
//! **forced reinsertion** of the 30 % of entries farthest from the node
//! centre (once per level per insertion) before splitting. Sort-Tile-Recursive
//! (STR) bulk loading is provided for building large static trees quickly.
//!
//! # Examples
//!
//! ```
//! use minskew_geom::Rect;
//! use minskew_rtree::RStarTree;
//!
//! let mut tree = RStarTree::new(Default::default());
//! for i in 0..100 {
//!     let x = (i % 10) as f64;
//!     let y = (i / 10) as f64;
//!     tree.insert(Rect::new(x, y, x + 0.4, y + 0.4), i);
//! }
//! assert_eq!(tree.len(), 100);
//! assert_eq!(tree.count_intersecting(&Rect::new(0.0, 0.0, 4.9, 0.9)), 5);
//! tree.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bulk;
mod hilbert;
mod node;
mod partition;
mod split;
mod tree;

pub use bulk::StrLoader;
pub use hilbert::{hilbert_index, hilbert_point};
pub use node::Item;
pub use partition::SubtreeSummary;
pub use tree::{ConfigError, RStarTree, RTreeConfig, ValidationError};
