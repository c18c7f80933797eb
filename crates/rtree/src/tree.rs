//! The `RStarTree` container: insertion with forced reinsertion, queries,
//! and structural validation.

use std::collections::VecDeque;

use minskew_geom::Rect;

use crate::node::{Entry, Item, Node};
use crate::split::{group_mbr, rstar_split};

/// An inconsistent [`RTreeConfig`], as [`RTreeConfig::try_with_max_entries`]
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid R*-tree configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Tuning parameters of the tree.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`). A node holding more than `M` entries
    /// overflows and is treated by forced reinsertion or a split.
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`), `2 <= m <= M / 2`.
    pub min_entries: usize,
    /// Number of entries evicted by forced reinsertion (`p`); the R\*-tree
    /// paper found 30 % of `M` to work best.
    pub reinsert_count: usize,
}

impl RTreeConfig {
    /// Creates a configuration with `m = 40 %` and `p = 30 %` of
    /// `max_entries`, the ratios recommended by the R\*-tree paper.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4`.
    pub fn with_max_entries(max_entries: usize) -> RTreeConfig {
        match RTreeConfig::try_with_max_entries(max_entries) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`RTreeConfig::with_max_entries`]: returns an
    /// error instead of panicking when `max_entries < 4`.
    pub fn try_with_max_entries(max_entries: usize) -> Result<RTreeConfig, ConfigError> {
        if max_entries < 4 {
            return Err(ConfigError(format!(
                "max_entries must be at least 4, got {max_entries}"
            )));
        }
        let min_entries = ((max_entries as f64 * 0.4).round() as usize).clamp(2, max_entries / 2);
        let reinsert_count = ((max_entries as f64 * 0.3).round() as usize).max(1);
        Ok(RTreeConfig {
            max_entries,
            min_entries,
            reinsert_count,
        })
    }

    /// Checks internal consistency, reporting the first violated constraint.
    fn try_validate(&self) -> Result<(), ConfigError> {
        if self.max_entries < 4 {
            return Err(ConfigError("max_entries must be at least 4".into()));
        }
        if !(self.min_entries >= 2 && self.min_entries <= self.max_entries / 2) {
            return Err(ConfigError("min_entries must satisfy 2 <= m <= M/2".into()));
        }
        if !(self.reinsert_count >= 1 && self.reinsert_count <= self.max_entries - self.min_entries)
        {
            return Err(ConfigError(
                "reinsert_count must satisfy 1 <= p <= M - m".into(),
            ));
        }
        Ok(())
    }

    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for RTreeConfig {
    /// `M = 16`, `m = 6`, `p = 5`.
    fn default() -> RTreeConfig {
        RTreeConfig::with_max_entries(16)
    }
}

/// A structural-invariant violation reported by [`RStarTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R*-tree invariant violated: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

/// An R\*-tree over rectangles with caller payloads.
///
/// See the crate docs for the role this structure plays in the paper
/// reproduction. All operations are single-threaded; the evaluation harness
/// builds one tree per dataset and queries it read-only.
#[derive(Debug, Clone)]
pub struct RStarTree<T> {
    config: RTreeConfig,
    root: Node<T>,
    /// Number of levels; leaves are level 0, the root is `height - 1`.
    height: usize,
    len: usize,
}

enum Pending<T> {
    None,
    /// The visited child split; this is the new sibling to add one level up.
    Split(Node<T>),
    /// Forced reinsertion evicted these entries from a node at the given
    /// level; they must be re-inserted from the root.
    Reinsert(Vec<Entry<T>>, usize),
}

impl<T> RStarTree<T> {
    /// Creates an empty tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`RTreeConfig`]).
    pub fn new(config: RTreeConfig) -> RStarTree<T> {
        config.validate();
        RStarTree {
            config,
            root: Node::empty_leaf(),
            height: 1,
            len: 0,
        }
    }

    /// Bulk loads a tree from items using Sort-Tile-Recursive packing.
    ///
    /// Much faster than repeated insertion for static datasets
    /// (`O(N log N)` comparison work, perfectly packed nodes) at the price
    /// of slightly worse query-time clustering than true R\*-insertion.
    pub fn bulk_load(config: RTreeConfig, items: Vec<Item<T>>) -> RStarTree<T> {
        config.validate();
        crate::bulk::str_bulk_load(config, items)
    }

    /// Bulk loads a tree by **Hilbert packing** (Kamel & Faloutsos): items
    /// sorted along a Hilbert space-filling curve and packed in runs.
    ///
    /// Compared to STR, the curve's locality avoids slab artefacts on
    /// clustered data, which also makes the internal-node MBRs better
    /// histogram buckets — the property the paper speculates about via
    /// \[TS96\].
    pub fn bulk_load_hilbert(config: RTreeConfig, items: Vec<Item<T>>) -> RStarTree<T> {
        config.validate();
        crate::hilbert::hilbert_bulk_load(config, items)
    }

    pub(crate) fn from_parts(
        config: RTreeConfig,
        root: Node<T>,
        height: usize,
        len: usize,
    ) -> RStarTree<T> {
        RStarTree {
            config,
            root,
            height,
            len,
        }
    }

    /// Number of items stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree stores no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 for a tree that is a single leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The configuration the tree was built with.
    #[inline]
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// MBR of the whole tree (meaningless for an empty tree).
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.root.mbr()
    }

    pub(crate) fn root(&self) -> &Node<T> {
        &self.root
    }

    /// Inserts an item, applying the full R\*-tree algorithm
    /// (ChooseSubtree, forced reinsertion, margin-based splits).
    pub fn insert(&mut self, rect: Rect, data: T) {
        self.len += 1;
        self.insert_entries([(Entry::Item(Item::new(rect, data)), 0)]);
    }

    /// Drives the insertion queue for one or more (entry, target level)
    /// pairs — the shared machinery behind [`Self::insert`] and the orphan
    /// reinsertion of [`Self::remove`].
    fn insert_entries(&mut self, entries: impl IntoIterator<Item = (Entry<T>, usize)>) {
        // Forced reinsertion fires at most once per level per insertion.
        let mut mask = vec![false; self.height];
        let mut queue: VecDeque<(Entry<T>, usize)> = entries.into_iter().collect();
        while let Some((entry, level)) = queue.pop_front() {
            let root_level = self.height - 1;
            let pending = Self::insert_rec(
                &self.config,
                &mut self.root,
                root_level,
                entry,
                level,
                &mut mask,
                true,
            );
            match pending {
                Pending::None => {}
                Pending::Split(sibling) => {
                    // Grow the tree: the old root and its new sibling become
                    // children of a fresh root.
                    let old_root = std::mem::replace(&mut self.root, Node::empty_leaf());
                    self.root = Node::new_internal(vec![old_root, sibling]);
                    self.height += 1;
                    mask.push(false);
                }
                Pending::Reinsert(entries, lvl) => {
                    for e in entries {
                        queue.push_back((e, lvl));
                    }
                }
            }
        }
    }

    fn insert_rec(
        config: &RTreeConfig,
        node: &mut Node<T>,
        node_level: usize,
        entry: Entry<T>,
        insert_level: usize,
        mask: &mut [bool],
        is_root: bool,
    ) -> Pending<T> {
        debug_assert!(node_level >= insert_level);
        if node_level == insert_level {
            let was_empty = node.entry_count() == 0;
            let entry_rect = entry.rect();
            match (node, entry) {
                (Node::Leaf { mbr, items }, Entry::Item(item)) => {
                    items.push(item);
                    *mbr = if was_empty {
                        entry_rect
                    } else {
                        mbr.union(&entry_rect)
                    };
                    if items.len() > config.max_entries {
                        return Self::overflow(
                            config,
                            Node::leaf_parts(mbr, items),
                            node_level,
                            mask,
                            is_root,
                        );
                    }
                }
                (Node::Internal { mbr, children }, Entry::Child(child)) => {
                    children.push(child);
                    *mbr = if was_empty {
                        entry_rect
                    } else {
                        mbr.union(&entry_rect)
                    };
                    if children.len() > config.max_entries {
                        return Self::overflow(
                            config,
                            Node::internal_parts(mbr, children),
                            node_level,
                            mask,
                            is_root,
                        );
                    }
                }
                _ => unreachable!("entry kind does not match node kind at its level"),
            }
            return Pending::None;
        }

        let Node::Internal { mbr, children } = node else {
            unreachable!("internal levels must contain internal nodes")
        };
        let idx = Self::choose_subtree(children, entry.rect(), node_level == 1);
        let pending = Self::insert_rec(
            config,
            &mut children[idx],
            node_level - 1,
            entry,
            insert_level,
            mask,
            false,
        );
        match pending {
            Pending::None => {
                *mbr = mbr.union(&children[idx].mbr());
                Pending::None
            }
            Pending::Split(sibling) => {
                children.push(sibling);
                // Recompute: the split redistributed the child's entries, so
                // its MBR may have shrunk in addition to the new sibling.
                let mut recomputed = minskew_geom::mbr_of(children.iter().map(|c| c.mbr()))
                    .expect("internal node has children");
                std::mem::swap(mbr, &mut recomputed);
                if children.len() > config.max_entries {
                    Self::overflow(
                        config,
                        Node::internal_parts(mbr, children),
                        node_level,
                        mask,
                        is_root,
                    )
                } else {
                    Pending::None
                }
            }
            Pending::Reinsert(entries, lvl) => {
                // The subtree lost entries; shrink MBRs along the path.
                *mbr = minskew_geom::mbr_of(children.iter().map(|c| c.mbr()))
                    .expect("internal node has children");
                Pending::Reinsert(entries, lvl)
            }
        }
    }

    /// R\*-tree overflow treatment: forced reinsertion the first time a
    /// level overflows during one insertion, a split afterwards (and always
    /// at the root).
    fn overflow(
        config: &RTreeConfig,
        node: NodeParts<'_, T>,
        level: usize,
        mask: &mut [bool],
        is_root: bool,
    ) -> Pending<T> {
        if !is_root && level < mask.len() && !mask[level] {
            mask[level] = true;
            Pending::Reinsert(Self::evict_farthest(config, node), level)
        } else {
            Pending::Split(Self::split_node(config, node))
        }
    }

    /// Removes the `p` entries whose centres lie farthest from the node's
    /// MBR centre, returning them ordered closest-first ("close reinsert").
    fn evict_farthest(config: &RTreeConfig, node: NodeParts<'_, T>) -> Vec<Entry<T>> {
        let p = config.reinsert_count;
        match node {
            NodeParts::Leaf(mbr, items) => {
                let center = mbr.center();
                items.sort_by(|a, b| {
                    let da = a.rect.center().dist2(&center);
                    let db = b.rect.center().dist2(&center);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                });
                let keep = items.len() - p;
                let removed: Vec<Entry<T>> = items.drain(keep..).map(Entry::Item).collect();
                *mbr = minskew_geom::mbr_of(items.iter().map(|i| i.rect))
                    .expect("leaf keeps at least m entries");
                removed
            }
            NodeParts::Internal(mbr, children) => {
                let center = mbr.center();
                children.sort_by(|a, b| {
                    let da = a.mbr().center().dist2(&center);
                    let db = b.mbr().center().dist2(&center);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                });
                let keep = children.len() - p;
                let removed: Vec<Entry<T>> = children.drain(keep..).map(Entry::Child).collect();
                *mbr = minskew_geom::mbr_of(children.iter().map(|c| c.mbr()))
                    .expect("internal node keeps at least m entries");
                removed
            }
        }
    }

    /// Splits an overflowing node in place; returns the new sibling.
    fn split_node(config: &RTreeConfig, node: NodeParts<'_, T>) -> Node<T> {
        match node {
            NodeParts::Leaf(mbr, items) => {
                let all = std::mem::take(items);
                let res = rstar_split(all, config.min_entries, |i: &Item<T>| i.rect);
                *items = res.first;
                *mbr = group_mbr(items, |i| i.rect);
                Node::new_leaf(res.second)
            }
            NodeParts::Internal(mbr, children) => {
                let all = std::mem::take(children);
                let res = rstar_split(all, config.min_entries, |c: &Node<T>| c.mbr());
                *children = res.first;
                *mbr = group_mbr(children, |c| c.mbr());
                Node::new_internal(res.second)
            }
        }
    }

    /// R\*-tree ChooseSubtree: overlap-enlargement criterion for parents of
    /// leaves, area-enlargement criterion above.
    fn choose_subtree(children: &[Node<T>], rect: Rect, children_are_leaves: bool) -> usize {
        debug_assert!(!children.is_empty());
        if children_are_leaves {
            // Minimise overlap enlargement; resolve ties by area
            // enlargement, then area.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, child) in children.iter().enumerate() {
                let enlarged = child.mbr().union(&rect);
                let mut overlap_before = 0.0;
                let mut overlap_after = 0.0;
                for (j, other) in children.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_before += child.mbr().intersection_area(&other.mbr());
                    overlap_after += enlarged.intersection_area(&other.mbr());
                }
                let key = (
                    overlap_after - overlap_before,
                    enlarged.area() - child.mbr().area(),
                    child.mbr().area(),
                );
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, child) in children.iter().enumerate() {
                let key = (child.mbr().enlargement(&rect), child.mbr().area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// Removes one item equal to `(rect, data)`, returning `true` if found.
    ///
    /// Implements the classic delete: locate the leaf, remove the entry,
    /// then *condense* — nodes that underflow below `m` entries are
    /// dissolved and their entries reinserted at their original levels —
    /// and finally shrink the root while it has a single child.
    pub fn remove(&mut self, rect: &Rect, data: &T) -> bool
    where
        T: PartialEq,
    {
        let root_level = self.height - 1;
        let mut orphans: Vec<(Entry<T>, usize)> = Vec::new();
        let min_entries = self.config.min_entries;
        if !Self::remove_rec(
            min_entries,
            &mut self.root,
            root_level,
            rect,
            data,
            &mut orphans,
        ) {
            return false;
        }
        self.len -= 1;
        // Shrink the root while it is an internal node with one child.
        loop {
            let single =
                matches!(&self.root, Node::Internal { children, .. } if children.len() == 1);
            if !single {
                break;
            }
            let Node::Internal { children, .. } =
                std::mem::replace(&mut self.root, Node::empty_leaf())
            else {
                unreachable!()
            };
            self.root = children.into_iter().next().expect("checked above");
            self.height -= 1;
        }
        if self.len == 0 {
            // Drop a stale-MBR empty leaf left behind by the last removal.
            self.root = Node::empty_leaf();
            self.height = 1;
        }
        self.insert_entries(orphans);
        true
    }

    /// Recursive removal + condense. Returns `true` if the item was found
    /// and removed somewhere below `node`.
    fn remove_rec(
        min_entries: usize,
        node: &mut Node<T>,
        node_level: usize,
        rect: &Rect,
        data: &T,
        orphans: &mut Vec<(Entry<T>, usize)>,
    ) -> bool
    where
        T: PartialEq,
    {
        match node {
            Node::Leaf { mbr, items } => {
                let Some(pos) = items
                    .iter()
                    .position(|i| i.rect == *rect && i.data == *data)
                else {
                    return false;
                };
                items.swap_remove(pos);
                if !items.is_empty() {
                    *mbr =
                        minskew_geom::mbr_of(items.iter().map(|i| i.rect)).expect("non-empty leaf");
                }
                true
            }
            Node::Internal { mbr, children } => {
                let mut removed_at = None;
                for (idx, child) in children.iter_mut().enumerate() {
                    if !child.mbr().contains_rect(rect) {
                        continue;
                    }
                    if Self::remove_rec(min_entries, child, node_level - 1, rect, data, orphans) {
                        removed_at = Some(idx);
                        break;
                    }
                }
                let Some(idx) = removed_at else { return false };
                if children[idx].entry_count() < min_entries {
                    // Condense: dissolve the underflowing child and queue
                    // its entries for reinsertion at their levels.
                    let orphan = children.swap_remove(idx);
                    match orphan {
                        Node::Leaf { items, .. } => {
                            orphans.extend(items.into_iter().map(|i| (Entry::Item(i), 0)));
                        }
                        Node::Internal {
                            children: grand, ..
                        } => {
                            // `grand` nodes live at node_level - 2 and must be
                            // re-attached as children of (node_level - 1)-level
                            // nodes.
                            orphans.extend(
                                grand.into_iter().map(|g| (Entry::Child(g), node_level - 1)),
                            );
                        }
                    }
                }
                if !children.is_empty() {
                    *mbr = minskew_geom::mbr_of(children.iter().map(|c| c.mbr()))
                        .expect("non-empty internal node");
                }
                true
            }
        }
    }

    /// Number of items whose rectangles intersect `query` (the exact result
    /// size of the paper's range queries).
    pub fn count_intersecting(&self, query: &Rect) -> usize {
        fn rec<T>(node: &Node<T>, query: &Rect) -> usize {
            if !node.mbr().intersects(query) {
                return 0;
            }
            match node {
                Node::Leaf { items, .. } => {
                    items.iter().filter(|i| i.rect.intersects(query)).count()
                }
                Node::Internal { children, .. } => children.iter().map(|c| rec(c, query)).sum(),
            }
        }
        if self.len == 0 {
            return 0;
        }
        rec(&self.root, query)
    }

    /// Invokes `f` on every item intersecting `query`.
    pub fn for_each_intersecting(&self, query: &Rect, mut f: impl FnMut(&Item<T>)) {
        fn rec<'a, T>(node: &'a Node<T>, query: &Rect, f: &mut impl FnMut(&'a Item<T>)) {
            if !node.mbr().intersects(query) {
                return;
            }
            match node {
                Node::Leaf { items, .. } => {
                    for item in items.iter().filter(|i| i.rect.intersects(query)) {
                        f(item);
                    }
                }
                Node::Internal { children, .. } => {
                    for c in children {
                        rec(c, query, f);
                    }
                }
            }
        }
        if self.len == 0 {
            return;
        }
        rec(&self.root, query, &mut f);
    }

    /// Collects references to every item intersecting `query`.
    pub fn query_collect(&self, query: &Rect) -> Vec<&Item<T>> {
        fn rec<'a, T>(node: &'a Node<T>, query: &Rect, out: &mut Vec<&'a Item<T>>) {
            if !node.mbr().intersects(query) {
                return;
            }
            match node {
                Node::Leaf { items, .. } => {
                    out.extend(items.iter().filter(|i| i.rect.intersects(query)));
                }
                Node::Internal { children, .. } => {
                    for c in children {
                        rec(c, query, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        if self.len > 0 {
            rec(&self.root, query, &mut out);
        }
        out
    }

    /// Visits every item in the tree (storage order, not spatial order).
    pub fn for_each(&self, mut f: impl FnMut(&Item<T>)) {
        fn rec<'a, T>(node: &'a Node<T>, f: &mut impl FnMut(&'a Item<T>)) {
            match node {
                Node::Leaf { items, .. } => items.iter().for_each(&mut *f),
                Node::Internal { children, .. } => {
                    for c in children {
                        rec(c, f);
                    }
                }
            }
        }
        if self.len > 0 {
            rec(&self.root, &mut f);
        }
    }

    /// Checks every structural invariant of the tree. Used by tests and
    /// available to callers embedding the tree in larger systems.
    ///
    /// Invariants: uniform leaf depth; entry counts in `[m, M]` for non-root
    /// nodes (the root needs `>= 2` children when internal); stored MBRs
    /// exactly equal the union of their entries; stored item count matches.
    pub fn validate(&self) -> Result<(), ValidationError> {
        fn rec<T>(
            node: &Node<T>,
            level: usize,
            is_root: bool,
            cfg: &RTreeConfig,
            leaf_level_seen: &mut Option<usize>,
        ) -> Result<usize, ValidationError> {
            let count = node.entry_count();
            if !is_root && (count < cfg.min_entries || count > cfg.max_entries) {
                return Err(ValidationError(format!(
                    "node at level {level} has {count} entries (allowed {}..={})",
                    cfg.min_entries, cfg.max_entries
                )));
            }
            match node {
                Node::Leaf { mbr, items } => {
                    match leaf_level_seen {
                        Some(l) if *l != level => {
                            return Err(ValidationError(format!(
                                "leaves at different depths: {l} vs {level}"
                            )))
                        }
                        None => *leaf_level_seen = Some(level),
                        _ => {}
                    }
                    if !items.is_empty() {
                        let recomputed =
                            minskew_geom::mbr_of(items.iter().map(|i| i.rect)).unwrap();
                        if recomputed != *mbr {
                            return Err(ValidationError(format!(
                                "leaf MBR stale: stored {mbr}, recomputed {recomputed}"
                            )));
                        }
                    }
                    Ok(items.len())
                }
                Node::Internal { mbr, children } => {
                    if is_root && children.len() < 2 {
                        return Err(ValidationError(
                            "internal root must have at least two children".into(),
                        ));
                    }
                    if level == 0 {
                        return Err(ValidationError("internal node at leaf level".into()));
                    }
                    let recomputed =
                        minskew_geom::mbr_of(children.iter().map(|c| c.mbr())).unwrap();
                    if recomputed != *mbr {
                        return Err(ValidationError(format!(
                            "internal MBR stale: stored {mbr}, recomputed {recomputed}"
                        )));
                    }
                    let mut total = 0;
                    for c in children {
                        total += rec(c, level - 1, false, cfg, leaf_level_seen)?;
                    }
                    Ok(total)
                }
            }
        }
        let mut leaf_level = None;
        let total = rec(
            &self.root,
            self.height - 1,
            true,
            &self.config,
            &mut leaf_level,
        )?;
        if total != self.len {
            return Err(ValidationError(format!(
                "stored len {} but {total} items reachable",
                self.len
            )));
        }
        if let Some(l) = leaf_level {
            if l != 0 {
                return Err(ValidationError(format!("leaves at level {l}, expected 0")));
            }
        }
        Ok(())
    }
}

/// Borrowed decomposition of a node used by overflow treatment, which needs
/// to mutate the entry vector and the MBR of the *same* node the caller has
/// already matched on.
enum NodeParts<'a, T> {
    Leaf(&'a mut Rect, &'a mut Vec<Item<T>>),
    Internal(&'a mut Rect, &'a mut Vec<Node<T>>),
}

impl<T> Node<T> {
    fn leaf_parts<'a>(mbr: &'a mut Rect, items: &'a mut Vec<Item<T>>) -> NodeParts<'a, T> {
        NodeParts::Leaf(mbr, items)
    }

    fn internal_parts<'a>(mbr: &'a mut Rect, children: &'a mut Vec<Node<T>>) -> NodeParts<'a, T> {
        NodeParts::Internal(mbr, children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_items(n_side: usize) -> Vec<(Rect, usize)> {
        let mut v = Vec::new();
        for iy in 0..n_side {
            for ix in 0..n_side {
                let (x, y) = (ix as f64, iy as f64);
                v.push((Rect::new(x, y, x + 0.6, y + 0.6), iy * n_side + ix));
            }
        }
        v
    }

    #[test]
    fn empty_tree_queries() {
        let t: RStarTree<u32> = RStarTree::new(RTreeConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.count_intersecting(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
        assert!(t.query_collect(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn insert_and_count_small() {
        let mut t = RStarTree::new(RTreeConfig::default());
        for (r, d) in grid_items(5) {
            t.insert(r, d);
        }
        assert_eq!(t.len(), 25);
        t.validate().unwrap();
        // A query covering the bottom row.
        assert_eq!(t.count_intersecting(&Rect::new(0.0, 0.0, 4.6, 0.6)), 5);
        // Whole space.
        assert_eq!(t.count_intersecting(&t.mbr()), 25);
        // Far away.
        assert_eq!(t.count_intersecting(&Rect::new(50.0, 50.0, 60.0, 60.0)), 0);
    }

    #[test]
    fn grows_multiple_levels_and_stays_valid() {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        for (r, d) in grid_items(20) {
            t.insert(r, d);
        }
        assert_eq!(t.len(), 400);
        assert!(t.height() >= 3, "height = {}", t.height());
        t.validate().unwrap();
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let rects: Vec<Rect> = (0..800)
            .map(|_| {
                let x = rng.gen_range(0.0..1000.0);
                let y = rng.gen_range(0.0..1000.0);
                let w = rng.gen_range(0.0..30.0);
                let h = rng.gen_range(0.0..30.0);
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(8));
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i);
        }
        t.validate().unwrap();
        for _ in 0..200 {
            let x = rng.gen_range(-50.0..1050.0);
            let y = rng.gen_range(-50.0..1050.0);
            let w = rng.gen_range(0.0..200.0);
            let h = rng.gen_range(0.0..200.0);
            let q = Rect::new(x, y, x + w, y + h);
            let exact = rects.iter().filter(|r| r.intersects(&q)).count();
            assert_eq!(t.count_intersecting(&q), exact);
            assert_eq!(t.query_collect(&q).len(), exact);
        }
    }

    #[test]
    fn duplicate_rectangles_are_retained() {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        let r = Rect::new(1.0, 1.0, 2.0, 2.0);
        for i in 0..50 {
            t.insert(r, i);
        }
        assert_eq!(t.len(), 50);
        t.validate().unwrap();
        assert_eq!(t.count_intersecting(&r), 50);
    }

    #[test]
    fn for_each_visits_all_matches() {
        let mut t = RStarTree::new(RTreeConfig::default());
        for (r, d) in grid_items(10) {
            t.insert(r, d);
        }
        let mut seen = Vec::new();
        t.for_each_intersecting(&Rect::new(0.0, 0.0, 9.6, 0.6), |i| seen.push(i.data));
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn remove_simple() {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        let items = grid_items(6);
        for (r, d) in &items {
            t.insert(*r, *d);
        }
        assert_eq!(t.len(), 36);
        // Remove half the items, validating as we go.
        for (r, d) in items.iter().take(18) {
            assert!(t.remove(r, d), "item {d} should be present");
            t.validate().unwrap();
        }
        assert_eq!(t.len(), 18);
        // Removed items are gone; the rest remain findable.
        for (i, (r, d)) in items.iter().enumerate() {
            let found = t
                .query_collect(r)
                .iter()
                .any(|it| it.rect == *r && it.data == *d);
            assert_eq!(found, i >= 18, "item {d}");
        }
        // Removing a missing item is a no-op returning false.
        assert!(!t.remove(&items[0].0, &items[0].1));
        assert_eq!(t.len(), 18);
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        let items = grid_items(8);
        for (r, d) in &items {
            t.insert(*r, *d);
        }
        for (r, d) in &items {
            assert!(t.remove(r, d));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.validate().unwrap();
        assert_eq!(t.count_intersecting(&Rect::new(-1e9, -1e9, 1e9, 1e9)), 0);
        // The tree is reusable after being emptied.
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 0);
        assert_eq!(t.len(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn interleaved_insert_remove_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(6));
        let mut live: Vec<(Rect, usize)> = Vec::new();
        let mut next_id = 0usize;
        for step in 0..2_000 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let x = rng.gen_range(0.0..500.0);
                let y = rng.gen_range(0.0..500.0);
                let r = Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.0..20.0),
                    y + rng.gen_range(0.0..20.0),
                );
                t.insert(r, next_id);
                live.push((r, next_id));
                next_id += 1;
            } else {
                let k = rng.gen_range(0..live.len());
                let (r, d) = live.swap_remove(k);
                assert!(t.remove(&r, &d), "step {step}: {d} must be removable");
            }
            if step % 200 == 0 {
                t.validate().unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), live.len());
        for _ in 0..50 {
            let x = rng.gen_range(0.0..500.0);
            let y = rng.gen_range(0.0..500.0);
            let q = Rect::new(x, y, x + 60.0, y + 60.0);
            let exact = live.iter().filter(|(r, _)| r.intersects(&q)).count();
            assert_eq!(t.count_intersecting(&q), exact);
        }
    }

    #[test]
    fn for_each_visits_everything_once() {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        for (r, d) in grid_items(9) {
            t.insert(r, d);
        }
        let mut seen = Vec::new();
        t.for_each(|item| seen.push(item.data));
        seen.sort_unstable();
        assert_eq!(seen, (0..81).collect::<Vec<_>>());
        let empty: RStarTree<u8> = RStarTree::new(RTreeConfig::default());
        let mut any = false;
        empty.for_each(|_| any = true);
        assert!(!any);
    }

    #[test]
    fn config_validation() {
        let cfg = RTreeConfig::with_max_entries(10);
        assert_eq!(cfg.min_entries, 4);
        assert_eq!(cfg.reinsert_count, 3);
    }

    #[test]
    #[should_panic(expected = "max_entries")]
    fn tiny_max_entries_rejected() {
        RTreeConfig::with_max_entries(3);
    }

    #[test]
    fn fallible_constructors_report_bad_configs() {
        assert!(RTreeConfig::try_with_max_entries(3).is_err());
        let cfg = RTreeConfig::try_with_max_entries(8).expect("valid capacity");
        assert!(cfg.try_validate().is_ok());
        let broken = RTreeConfig {
            max_entries: 8,
            min_entries: 7, // > M/2
            reinsert_count: 1,
        };
        assert!(broken.try_validate().is_err());
        // A config built from the public fields is still checked by every
        // constructor.
        assert!(std::panic::catch_unwind(|| RStarTree::<usize>::new(broken)).is_err());
        assert!(
            std::panic::catch_unwind(|| RStarTree::<usize>::bulk_load(broken, vec![])).is_err()
        );
        assert!(
            std::panic::catch_unwind(|| RStarTree::<usize>::bulk_load_hilbert(broken, vec![]))
                .is_err()
        );
        // A valid config builds real trees.
        let items: Vec<Item<usize>> = (0..40)
            .map(|i| Item::new(Rect::new(i as f64, 0.0, i as f64 + 0.5, 1.0), i))
            .collect();
        let t = RStarTree::bulk_load(cfg, items.clone());
        assert_eq!(t.len(), 40);
        t.validate().expect("bulk-loaded tree is well-formed");
        let h = RStarTree::bulk_load_hilbert(cfg, items);
        assert_eq!(h.len(), 40);
    }
}
