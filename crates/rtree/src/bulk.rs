//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs a static dataset into a fully-built tree: sort by centre x,
//! cut into `S ≈ √(N/M)` vertical slabs, sort each slab by centre y, and
//! pack runs into nodes; repeat one level up over the node centres until a
//! single root remains. Chunks are sized *evenly* (instead of greedily
//! filling to `M`) so every node ends up with at least `m` entries and the
//! resulting tree passes full validation.
//!
//! The sorts move `(key, position)` pairs, not entries: a key is a centre
//! coordinate's [`sort_key`], a position is the entry's index in the input.
//! Each node is then written once, in final order, from the entries fetched
//! by position. A caller that keeps its rectangles elsewhere (a table's row
//! store) loads through [`StrLoader`] and never copies them into a second
//! `Vec<Item>`; [`RStarTree::bulk_load`] moves its owned items into packing
//! order in place.

use minskew_geom::Rect;

use crate::node::{Item, Node};
use crate::tree::{RStarTree, RTreeConfig};

/// An entry's sort key and its position in the input.
type Keyed = (u64, usize);

/// `v + 0.0` as bits whose unsigned order is [`f64::total_cmp`]'s. Adding
/// `0.0` turns `-0.0` into `0.0`, so the two tie as they do under
/// `partial_cmp`; every other non-NaN value keeps its `partial_cmp` order.
fn sort_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Splits `len` elements into chunks as evenly as possible with at most
/// `max` elements each, yielding the chunk lengths.
fn even_chunk_lens(len: usize, max: usize) -> impl Iterator<Item = usize> {
    debug_assert!(len > 0 && max > 0);
    let chunks = len.div_ceil(max);
    let base = len / chunks;
    let extra = len % chunks;
    (0..chunks).map(move |i| if i < extra { base + 1 } else { base })
}

/// The STR body, one tiling pass. `keys` holds each entry's centre-x key
/// and position, in position order; `center_y` gives an entry's centre y
/// by position. Sorts `keys` into packing order in place and returns the
/// lengths of the consecutive runs that become one parent each.
///
/// Ties break by position in the x sort, and by x order within a slab
/// (the slab sort is stable), so the order is a stable `partial_cmp` sort's
/// for every non-NaN centre.
fn tile(keys: &mut [Keyed], max_entries: usize, center_y: impl Fn(usize) -> f64) -> Vec<usize> {
    let n = keys.len();
    debug_assert!(n > 0);
    if n <= max_entries {
        return vec![n];
    }
    let node_count = n.div_ceil(max_entries);
    let slab_count = (node_count as f64).sqrt().ceil() as usize;
    keys.sort_unstable();
    let mut groups = Vec::with_capacity(node_count + slab_count);
    let mut rest = keys;
    for slab_len in even_chunk_lens(n, n.div_ceil(slab_count)) {
        let (slab, tail) = std::mem::take(&mut rest).split_at_mut(slab_len);
        for key in slab.iter_mut() {
            key.0 = sort_key(center_y(key.1));
        }
        slab.sort_by_key(|&(key, _)| key);
        groups.extend(even_chunk_lens(slab_len, max_entries));
        rest = tail;
    }
    groups
}

/// Moves `elems` into the order of the positions in `keys`, in place: slot
/// `i` receives the element at position `keys[i].1`.
fn gather<E>(elems: &mut [E], mut keys: Vec<Keyed>) {
    for start in 0..keys.len() {
        // Each cycle of the permutation is walked once; a slot is marked
        // done by pointing it at itself.
        let mut cur = start;
        loop {
            let from = keys[cur].1;
            keys[cur].1 = cur;
            if from == start {
                break;
            }
            elems.swap(cur, from);
            cur = from;
        }
    }
}

/// Cuts `elems` into the runs `groups` gives, one parent node per run.
fn pack<E, N>(
    groups: &[usize],
    mut elems: impl Iterator<Item = E>,
    make: impl Fn(Vec<E>) -> N,
) -> Vec<N> {
    groups
        .iter()
        .map(|&len| make(elems.by_ref().take(len).collect()))
        .collect()
}

/// One STR level over owned entries: moves `elems` into packing order in
/// place and cuts them into parents.
fn pack_owned<E, N>(
    mut elems: Vec<E>,
    max_entries: usize,
    rect: impl Fn(&E) -> Rect,
    make: impl Fn(Vec<E>) -> N,
) -> Vec<N> {
    let mut keys: Vec<Keyed> = elems
        .iter()
        .enumerate()
        .map(|(p, e)| (sort_key(rect(e).center().x), p))
        .collect();
    let groups = tile(&mut keys, max_entries, |p| rect(&elems[p]).center().y);
    gather(&mut elems, keys);
    pack(&groups, elems.into_iter(), make)
}

/// Packs the levels above the leaves `nodes` into a tree of `len` items.
fn pack_upper<T>(config: RTreeConfig, mut nodes: Vec<Node<T>>, len: usize) -> RStarTree<T> {
    let mut height = 1;
    while nodes.len() > 1 {
        nodes = pack_owned(nodes, config.max_entries, Node::mbr, Node::new_internal);
        height += 1;
    }
    let root = nodes.pop().expect("non-empty input yields a root");
    RStarTree::from_parts(config, root, height, len)
}

pub(crate) fn str_bulk_load<T>(config: RTreeConfig, items: Vec<Item<T>>) -> RStarTree<T> {
    let len = items.len();
    if len == 0 {
        return RStarTree::new(config);
    }
    let leaves = pack_owned(items, config.max_entries, |i| i.rect, Node::new_leaf);
    pack_upper(config, leaves, len)
}

/// A Sort-Tile-Recursive bulk load over items the caller keeps elsewhere.
///
/// [`StrLoader::push`] takes each item's rectangle in order (the `p`-th
/// push is position `p`), and [`StrLoader::finish`] fetches the items by
/// position as it writes the leaves. The loader holds 16 bytes per item, a
/// sort key and a position, where [`RStarTree::bulk_load`] takes the items
/// themselves, and it releases them once the leaves are written. The tree
/// is the one [`RStarTree::bulk_load`] builds from the same items in the
/// same order.
///
/// ```
/// use minskew_geom::Rect;
/// use minskew_rtree::{Item, RStarTree, RTreeConfig, StrLoader};
///
/// let rects: Vec<Rect> = (0..100)
///     .map(|i| {
///         let (x, y) = (f64::from(i % 10), f64::from(i / 10));
///         Rect::new(x, y, x + 0.5, y + 0.5)
///     })
///     .collect();
/// let mut loader = StrLoader::new(RTreeConfig::default(), rects.len());
/// for r in &rects {
///     loader.push(r);
/// }
/// let tree = loader.finish(|p| Item::new(rects[p], p));
/// tree.validate().unwrap();
/// let items = rects.iter().enumerate().map(|(p, r)| Item::new(*r, p)).collect();
/// let same = RStarTree::bulk_load(RTreeConfig::default(), items);
/// let (mut a, mut b) = (Vec::new(), Vec::new());
/// tree.for_each(|i| a.push(i.data));
/// same.for_each(|i| b.push(i.data));
/// assert_eq!(a, b);
/// ```
#[derive(Debug)]
pub struct StrLoader {
    config: RTreeConfig,
    keys: Vec<Keyed>,
}

impl StrLoader {
    /// An empty load, with room for `capacity` pushes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`RTreeConfig`]).
    pub fn new(config: RTreeConfig, capacity: usize) -> StrLoader {
        config.validate();
        StrLoader {
            config,
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Adds the item at the next position, by its rectangle.
    pub fn push(&mut self, rect: &Rect) {
        let position = self.keys.len();
        self.keys.push((sort_key(rect.center().x), position));
    }

    /// Packs the tree. `item(p)` must return the item at position `p`, with
    /// the rectangle pushed there; it is called twice per item.
    pub fn finish<T>(self, item: impl Fn(usize) -> Item<T>) -> RStarTree<T> {
        let StrLoader { config, mut keys } = self;
        let len = keys.len();
        if len == 0 {
            return RStarTree::new(config);
        }
        let groups = tile(&mut keys, config.max_entries, |p| item(p).rect.center().y);
        let leaves = pack(&groups, keys.iter().map(|&(_, p)| item(p)), Node::new_leaf);
        // Freed before the levels above are packed: the peak is then the
        // rows, the leaves and these keys, not the upper levels on top.
        drop(keys);
        pack_upper(config, leaves, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::{Point, Rect};
    use rand::{Rng, SeedableRng};

    #[test]
    fn even_chunks_are_balanced() {
        let lens = |len, max| even_chunk_lens(len, max).collect::<Vec<_>>();
        assert_eq!(lens(10, 4), vec![4, 3, 3]);
        assert_eq!(lens(8, 4), vec![4, 4]);
        assert_eq!(lens(3, 4), vec![3]);
        assert_eq!(lens(9, 4), vec![3, 3, 3]);
        for (len, max) in [(1, 1), (17, 5), (100, 16), (401, 16)] {
            let lens = lens(len, max);
            assert_eq!(lens.iter().sum::<usize>(), len);
            assert!(lens.iter().all(|&l| l <= max && l > 0));
            let min = lens.iter().min().unwrap();
            let max_l = lens.iter().max().unwrap();
            assert!(max_l - min <= 1, "chunks must differ by at most one");
        }
    }

    #[test]
    fn sort_keys_order_like_partial_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    sort_key(a).cmp(&sort_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn gather_applies_the_permutation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 10, 257] {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut elems: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
            gather(&mut elems, order.iter().map(|&p| (0, p)).collect());
            let want: Vec<String> = order.iter().map(|p| format!("e{p}")).collect();
            assert_eq!(elems, want, "n = {n}");
        }
    }

    /// The comparator packer STR used before the keyed body: stable
    /// `partial_cmp` sorts of the entries themselves. The oracle for
    /// [`tile`]'s order.
    mod comparator {
        use super::super::even_chunk_lens;
        use crate::node::{Item, Node};

        fn pack_level<E>(
            mut elems: Vec<E>,
            max_entries: usize,
            center_of: impl Fn(&E) -> (f64, f64),
        ) -> Vec<Vec<E>> {
            let n = elems.len();
            if n <= max_entries {
                return vec![elems];
            }
            let node_count = n.div_ceil(max_entries);
            let slab_count = (node_count as f64).sqrt().ceil() as usize;
            elems.sort_by(|a, b| {
                center_of(a)
                    .0
                    .partial_cmp(&center_of(b).0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut groups = Vec::with_capacity(node_count);
            let mut it = elems.into_iter();
            for slab_len in even_chunk_lens(n, n.div_ceil(slab_count)) {
                let mut slab: Vec<E> = it.by_ref().take(slab_len).collect();
                slab.sort_by(|a, b| {
                    center_of(a)
                        .1
                        .partial_cmp(&center_of(b).1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut slab_it = slab.into_iter();
                for chunk_len in even_chunk_lens(slab_len, max_entries) {
                    groups.push(slab_it.by_ref().take(chunk_len).collect());
                }
            }
            groups
        }

        /// The root and height the comparator packer builds.
        pub(super) fn bulk_load<T>(items: Vec<Item<T>>, max_entries: usize) -> (Node<T>, usize) {
            let center = |r: minskew_geom::Rect| (r.center().x, r.center().y);
            let mut nodes: Vec<Node<T>> = pack_level(items, max_entries, |i| center(i.rect))
                .into_iter()
                .map(Node::new_leaf)
                .collect();
            let mut height = 1;
            while nodes.len() > 1 {
                nodes = pack_level(nodes, max_entries, |n| center(n.mbr()))
                    .into_iter()
                    .map(Node::new_internal)
                    .collect();
                height += 1;
            }
            (nodes.pop().unwrap(), height)
        }
    }

    /// A node's shape: leaves as their items' payloads, internal nodes as
    /// brackets around their children.
    fn shape(node: &Node<usize>, out: &mut String) {
        match node {
            Node::Leaf { items, .. } => {
                out.push('[');
                for i in items {
                    out.push_str(&i.data.to_string());
                    out.push(' ');
                }
                out.push(']');
            }
            Node::Internal { children, .. } => {
                out.push('(');
                children.iter().for_each(|c| shape(c, out));
                out.push(')');
            }
        }
    }

    /// `n` rects whose centres are drawn from few values: many duplicate
    /// centres, `-0.0` and `0.0` centres, and long runs of ties.
    fn tie_heavy(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let zero = |rng: &mut rand::rngs::StdRng| if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
        (0..n)
            .map(|_| {
                let coord = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..4) {
                    // A degenerate side at a signed zero: centre ±0.0.
                    0 => (zero(rng), zero(rng)),
                    // Symmetric about zero: centre 0.0.
                    1 => {
                        let h = f64::from(rng.gen_range(1..4));
                        (-h, h)
                    }
                    // One of a handful of centres.
                    2 => {
                        let c = f64::from(rng.gen_range(-3..4));
                        (c - 0.5, c + 0.5)
                    }
                    _ => {
                        let lo = rng.gen_range(-10.0..10.0);
                        (lo, lo + rng.gen_range(0.0..2.0))
                    }
                };
                let (x0, x1) = coord(&mut rng);
                let (y0, y1) = if rng.gen_bool(0.3) {
                    (x0, x1)
                } else {
                    coord(&mut rng)
                };
                Rect {
                    lo: Point::new(x0, y0),
                    hi: Point::new(x1, y1),
                }
            })
            .collect()
    }

    #[test]
    fn keyed_str_builds_the_comparator_packers_tree() {
        for max in [4usize, 16, 64] {
            // Sizes on and around chunk and slab boundaries: one node,
            // a square number of nodes, and one entry either side.
            let mut sizes = vec![1, max - 1, max, max + 1, 2 * max, 2 * max + 1];
            for nodes in [4, 5, 9, 10, 16, 17, max, max * max] {
                let n = nodes * max;
                sizes.extend([n - 1, n, n + 1]);
            }
            sizes.retain(|&n| n <= 40_000);
            sizes.push(3 * max * max + 7);
            for (seed, &n) in sizes.iter().enumerate() {
                let rects = tie_heavy(n, seed as u64 + 100 * max as u64);
                let items: Vec<Item<usize>> = rects
                    .iter()
                    .enumerate()
                    .map(|(p, r)| Item::new(*r, p))
                    .collect();
                let (want_root, want_height) = comparator::bulk_load(items.clone(), max);
                let config = RTreeConfig::with_max_entries(max);
                let owned = RStarTree::bulk_load(config, items);
                let mut loader = StrLoader::new(config, n);
                rects.iter().for_each(|r| loader.push(r));
                let fetched = loader.finish(|p| Item::new(rects[p], p));
                let mut want = String::new();
                shape(&want_root, &mut want);
                for (how, tree) in [("bulk_load", &owned), ("StrLoader", &fetched)] {
                    let mut got = String::new();
                    shape(tree.root(), &mut got);
                    assert_eq!(got, want, "{how}: M = {max}, n = {n}");
                    assert_eq!(tree.height(), want_height, "{how}: M = {max}, n = {n}");
                    assert_eq!(tree.len(), n);
                    tree.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn nan_centres_still_validate_and_count_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let rects: Vec<Rect> = (0..3000)
            .map(|i| {
                let x = rng.gen_range(0.0..100.0);
                let y = rng.gen_range(0.0..100.0);
                let mut r = Rect::new(x, y, x + 1.0, y + 1.0);
                // An infinite extent on both sides of an axis puts the
                // centre at NaN; `Rect { .. }` is how such a row arrives.
                match i % 7 {
                    0 => (r.lo.x, r.hi.x) = (f64::NEG_INFINITY, f64::INFINITY),
                    1 => (r.lo.y, r.hi.y) = (f64::NEG_INFINITY, f64::INFINITY),
                    _ => {}
                }
                r
            })
            .collect();
        for max in [4usize, 16] {
            let config = RTreeConfig::with_max_entries(max);
            let items = rects.iter().enumerate().map(|(p, r)| Item::new(*r, p));
            let owned = RStarTree::bulk_load(config, items.collect());
            let mut loader = StrLoader::new(config, rects.len());
            rects.iter().for_each(|r| loader.push(r));
            let fetched = loader.finish(|p| Item::new(rects[p], p));
            for tree in [&owned, &fetched] {
                tree.validate().unwrap();
                assert_eq!(tree.len(), rects.len());
                for _ in 0..200 {
                    let x = rng.gen_range(-10.0..110.0);
                    let y = rng.gen_range(-10.0..110.0);
                    let q = Rect::new(x, y, x + rng.gen_range(0.0..30.0), y + 5.0);
                    let exact = rects.iter().filter(|r| r.intersects(&q)).count();
                    assert_eq!(tree.count_intersecting(&q), exact);
                }
            }
        }
    }

    #[test]
    fn bulk_load_small_and_large() {
        for n in [0usize, 1, 5, 16, 17, 100, 3000] {
            let items: Vec<Item<usize>> = (0..n)
                .map(|i| {
                    let x = (i % 60) as f64;
                    let y = (i / 60) as f64;
                    Item::new(Rect::new(x, y, x + 0.5, y + 0.5), i)
                })
                .collect();
            let tree = RStarTree::bulk_load(RTreeConfig::default(), items);
            assert_eq!(tree.len(), n);
            tree.validate().unwrap_or_else(|e| panic!("n = {n}: {e}"));
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let rects: Vec<Rect> = (0..2500)
            .map(|_| {
                let x = rng.gen_range(0.0..1000.0);
                let y = rng.gen_range(0.0..1000.0);
                Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.0..20.0),
                    y + rng.gen_range(0.0..20.0),
                )
            })
            .collect();
        let items: Vec<Item<usize>> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| Item::new(*r, i))
            .collect();
        let tree = RStarTree::bulk_load(RTreeConfig::with_max_entries(32), items);
        tree.validate().unwrap();
        for _ in 0..100 {
            let x = rng.gen_range(0.0..1000.0);
            let y = rng.gen_range(0.0..1000.0);
            let q = Rect::new(x, y, x + 120.0, y + 120.0);
            let exact = rects.iter().filter(|r| r.intersects(&q)).count();
            assert_eq!(tree.count_intersecting(&q), exact);
        }
    }
}
