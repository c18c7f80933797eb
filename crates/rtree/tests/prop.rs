//! Property-based stress tests: arbitrary operation sequences must keep the
//! tree structurally valid and query-equivalent to a naive shadow set.

#![cfg(feature = "proptest")]

use minskew_geom::Rect;
use minskew_rtree::{RStarTree, RTreeConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Rect),
    /// Remove the live item at this (modular) position.
    RemoveAt(usize),
    Query(Rect),
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..500.0f64, 0.0..500.0f64, 0.0..40.0f64, 0.0..40.0f64)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_rect().prop_map(Op::Insert),
        2 => any::<usize>().prop_map(Op::RemoveAt),
        2 => arb_rect().prop_map(Op::Query),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_op_sequences_stay_consistent(
        ops in proptest::collection::vec(arb_op(), 1..300),
        max_entries in 4usize..24,
    ) {
        let mut tree = RStarTree::new(RTreeConfig::with_max_entries(max_entries));
        let mut shadow: Vec<(Rect, usize)> = Vec::new();
        let mut next_id = 0usize;
        for op in ops {
            match op {
                Op::Insert(r) => {
                    tree.insert(r, next_id);
                    shadow.push((r, next_id));
                    next_id += 1;
                }
                Op::RemoveAt(pos) => {
                    if !shadow.is_empty() {
                        let (r, id) = shadow.swap_remove(pos % shadow.len());
                        prop_assert!(tree.remove(&r, &id));
                    }
                }
                Op::Query(q) => {
                    let expected = shadow.iter().filter(|(r, _)| r.intersects(&q)).count();
                    prop_assert_eq!(tree.count_intersecting(&q), expected);
                    let mut got: Vec<usize> =
                        tree.query_collect(&q).iter().map(|i| i.data).collect();
                    got.sort_unstable();
                    let mut want: Vec<usize> = shadow
                        .iter()
                        .filter(|(r, _)| r.intersects(&q))
                        .map(|&(_, id)| id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), shadow.len());
        }
        tree.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn bulk_load_equals_insertion_results(
        rects in proptest::collection::vec(arb_rect(), 0..400),
        q in arb_rect(),
    ) {
        let items: Vec<_> = rects
            .iter()
            .enumerate()
            .map(|(i, &r)| minskew_rtree::Item::new(r, i))
            .collect();
        let bulk = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), items);
        bulk.validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut incremental = RStarTree::new(RTreeConfig::with_max_entries(8));
        for (i, &r) in rects.iter().enumerate() {
            incremental.insert(r, i);
        }
        prop_assert_eq!(bulk.count_intersecting(&q), incremental.count_intersecting(&q));
    }
}
