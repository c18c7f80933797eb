//! The **Min-Skew** partitioning (§4.1) with progressive refinement (§5.6)
//! — the paper's primary contribution.
//!
//! Min-Skew builds a binary space partitioning over a *density grid*
//! (a uniform grid of regions annotated with the number of rectangles
//! intersecting each region) rather than over the raw data, so construction
//! needs only one sweep of the input per grid resolution and a small,
//! memory-resident working set. The greedy loop repeatedly applies the
//! split — of any current bucket, along either axis, at any grid line —
//! that maximally reduces the partitioning's **spatial skew**
//! (Definition 4.1: the cell-count-weighted variance of densities within
//! buckets, i.e. the total SSE of cell densities).
//!
//! Two split-scoring strategies are provided:
//!
//! * [`SplitStrategy::Exact2d`] scores each candidate by the exact 2-D SSE
//!   reduction. Thanks to the prefix-sum tables in `minskew-data`, each
//!   candidate costs O(1), so this is both exact and fast — the default.
//! * [`SplitStrategy::Marginal`] reproduces the computational shortcut the
//!   paper describes ("basing the splitting decisions on marginal frequency
//!   distributions along each dimension rather than the full two-dimensional
//!   input distribution").
//!
//! **Progressive refinement** fixes the counter-intuitive failure mode the
//! paper demonstrates in Figure 10(b): with a very fine grid, highly skewed
//! pockets soak up all the buckets and *large* queries get worse. Starting
//! the construction on a coarse grid and refining it by 4× at equal bucket
//! intervals spends early buckets on the broad structure and late buckets on
//! the skewed hot spots.

use minskew_data::{CellBlock, CentreSums, DensityGrid, GridPrefixSums, GridSet, RectSource};
use minskew_geom::Axis;

use crate::error::BuildError;
use crate::{Bucket, ExtensionRule, SpatialHistogram};

/// How candidate splits are scored during construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Exact 2-D SSE reduction via prefix sums (default).
    #[default]
    Exact2d,
    /// The paper's marginal-distribution shortcut: score splits by the SSE
    /// reduction of the per-axis *marginal* density vectors.
    Marginal,
}

/// Builder for Min-Skew histograms.
///
/// # Examples
///
/// Plain Min-Skew with the paper's defaults (10 000 regions):
///
/// ```
/// use minskew_core::MinSkewBuilder;
/// use minskew_datagen::charminar_with;
///
/// let data = charminar_with(2_000, 0);
/// let hist = MinSkewBuilder::new(50).build(&data);
/// assert!(hist.num_buckets() <= 50);
/// ```
///
/// Progressive refinement (2 refinements towards a 16 000-region grid,
/// the paper's Example 3):
///
/// ```
/// use minskew_core::MinSkewBuilder;
/// use minskew_datagen::charminar_with;
///
/// let data = charminar_with(2_000, 0);
/// let hist = MinSkewBuilder::new(60)
///     .regions(16_000)
///     .progressive_refinements(2)
///     .build(&data);
/// assert!(hist.num_buckets() <= 60);
/// ```
#[derive(Debug, Clone)]
pub struct MinSkewBuilder {
    buckets: usize,
    regions: usize,
    refinements: usize,
    strategy: SplitStrategy,
    rule: ExtensionRule,
}

impl MinSkewBuilder {
    /// Creates a builder targeting `buckets` buckets with the paper's
    /// default experimental setting of 10 000 grid regions, no refinement.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: usize) -> MinSkewBuilder {
        match MinSkewBuilder::try_new(buckets) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`MinSkewBuilder::new`]: reports a zero
    /// bucket budget as [`BuildError::ZeroBucketBudget`] instead of
    /// panicking.
    pub fn try_new(buckets: usize) -> Result<MinSkewBuilder, BuildError> {
        if buckets == 0 {
            return Err(BuildError::ZeroBucketBudget);
        }
        Ok(MinSkewBuilder {
            buckets,
            regions: 10_000,
            refinements: 0,
            strategy: SplitStrategy::default(),
            rule: ExtensionRule::default(),
        })
    }

    /// Sets the (final) number of uniform grid regions approximating the
    /// input. More regions capture more detail at higher construction cost;
    /// see the paper's Experiment 3 for the trade-off.
    pub fn regions(self, regions: usize) -> MinSkewBuilder {
        match self.try_regions(regions) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`MinSkewBuilder::regions`].
    pub fn try_regions(mut self, regions: usize) -> Result<MinSkewBuilder, BuildError> {
        if regions == 0 {
            return Err(BuildError::InvalidConfig(
                "need at least one grid region".into(),
            ));
        }
        self.regions = regions;
        Ok(self)
    }

    /// Enables progressive refinement with `k` refinement steps: the build
    /// starts from `regions / 4^k` regions and quadruples the grid after
    /// every `buckets / (k + 1)` buckets produced (§5.6, Example 3).
    pub fn progressive_refinements(self, k: usize) -> MinSkewBuilder {
        match self.try_progressive_refinements(k) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`MinSkewBuilder::progressive_refinements`].
    pub fn try_progressive_refinements(mut self, k: usize) -> Result<MinSkewBuilder, BuildError> {
        if k > 16 {
            return Err(BuildError::InvalidConfig(format!(
                "{k} refinements requested; more than 16 is never meaningful"
            )));
        }
        self.refinements = k;
        Ok(self)
    }

    /// Selects the split-scoring strategy.
    pub fn split_strategy(mut self, strategy: SplitStrategy) -> MinSkewBuilder {
        self.strategy = strategy;
        self
    }

    /// Selects the estimation-time query-extension rule.
    pub fn extension_rule(mut self, rule: ExtensionRule) -> MinSkewBuilder {
        self.rule = rule;
        self
    }

    /// Builds the histogram from any [`RectSource`]: an in-memory
    /// [`minskew_data::Dataset`], or a disk-resident source like
    /// [`minskew_data::CsvRectSource`]. Construction uses only sequential
    /// sweeps, one per refinement phase, and O(grid + buckets) resident
    /// memory. The final phase's sweep also sums each cell's centred rects,
    /// so the bucket summaries need no sweep of their own.
    ///
    /// This is the paper's memory story made literal: "the construction
    /// algorithm does not require the entire data distribution to fit in
    /// main memory".
    ///
    /// Lenient: an empty input yields an empty histogram and a grid
    /// coarser than the bucket budget silently produces fewer buckets. Use
    /// [`MinSkewBuilder::try_build`] to surface those conditions as errors.
    pub fn build<S: RectSource + ?Sized>(&self, source: &S) -> SpatialHistogram {
        self.build_detailed(source).0
    }

    /// [`Self::build`] with construction diagnostics.
    pub fn build_detailed<S: RectSource + ?Sized>(
        &self,
        source: &S,
    ) -> (SpatialHistogram, MinSkewDetail) {
        let (hist, detail, _) =
            self.build_impl(source, &mut GridSet::default(), false, greedy_split);
        (hist, detail)
    }

    /// Fallible counterpart of [`MinSkewBuilder::build`].
    ///
    /// # Errors
    ///
    /// * [`BuildError::EmptyDataset`] — the source has no rectangles.
    /// * [`BuildError::NonFiniteMbr`] — the source's bounding box contains
    ///   NaN or infinite coordinates.
    /// * [`BuildError::GridTooCoarse`] — the final density grid has fewer
    ///   cells than the bucket budget, so the budget is unreachable; the
    ///   error carries the achievable count for callers that degrade.
    pub fn try_build<S: RectSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<SpatialHistogram, BuildError> {
        self.check_preconditions(source)?;
        Ok(self.build(source))
    }

    /// [`Self::try_build`] with construction diagnostics, over density
    /// grids that the caller keeps up to date (see [`GridSet`]).
    ///
    /// Each refinement phase takes its grid from `grids` when one over the
    /// source's MBR at that phase's dimensions is held, and builds it
    /// otherwise; the final phase takes its [`CentreSums`] with its grid,
    /// and builds both in one sweep unless both are held. On success
    /// `grids` holds exactly the grids this build used and the final
    /// phase's centre sums; [`MinSkewDetail`] counts how many grids were
    /// reused and built. A held grid must equal what
    /// [`DensityGrid::build_with_centres`] would make over the source,
    /// which [`GridSet::patch`] maintains; the histogram is then
    /// byte-identical to a build from an empty set. On error `grids` is
    /// left as it was.
    pub fn try_build_with_grids<S: RectSource + ?Sized>(
        &self,
        source: &S,
        grids: &mut GridSet,
    ) -> Result<(SpatialHistogram, MinSkewDetail), BuildError> {
        self.check_preconditions(source)?;
        let (hist, detail, _) = self.build_impl(source, grids, false, greedy_split);
        Ok((hist, detail))
    }

    /// Side length of the final density grid: `√regions` rounded, then
    /// rounded up so every progressive refinement halves exactly.
    fn final_grid_side(&self) -> usize {
        let align = 1usize << self.refinements;
        let side = (self.regions as f64).sqrt().round().max(1.0) as usize;
        side.div_ceil(align) * align
    }

    /// [`Self::build`] with a per-split build trace: every
    /// greedy split of the §4.2 loop recorded as a [`SplitEvent`], so the
    /// construction is auditable split by split.
    ///
    /// The traced build is **byte-identical** to the untraced one — tracing
    /// only adds O(1) prefix-sum probes per chosen split and never
    /// influences a splitting decision.
    pub fn build_from_source_traced<S: RectSource + ?Sized>(
        &self,
        source: &S,
    ) -> (SpatialHistogram, MinSkewBuildTrace) {
        let (hist, _, trace) = self.build_impl(source, &mut GridSet::default(), true, greedy_split);
        (hist, trace)
    }

    /// Fallible counterpart of [`MinSkewBuilder::build_from_source_traced`]:
    /// the same precondition checks as [`MinSkewBuilder::try_build`], then a
    /// traced build.
    pub fn try_build_traced<S: RectSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<(SpatialHistogram, MinSkewBuildTrace), BuildError> {
        self.check_preconditions(source)?;
        let (hist, _, trace) = self.build_impl(source, &mut GridSet::default(), true, greedy_split);
        Ok((hist, trace))
    }

    /// Shared precondition checks for the `try_` builders.
    fn check_preconditions<S: RectSource + ?Sized>(&self, source: &S) -> Result<(), BuildError> {
        let (n, mbr) = source.len_and_mbr();
        if n == 0 {
            return Err(BuildError::EmptyDataset);
        }
        if !mbr.is_finite() {
            return Err(BuildError::NonFiniteMbr);
        }
        let side = self.final_grid_side();
        if side * side < self.buckets {
            return Err(BuildError::GridTooCoarse {
                regions: side * side,
                buckets: self.buckets,
            });
        }
        Ok(())
    }

    /// The one construction path behind every `build*` entry point. Each
    /// phase's grid comes from `grids` or is built; afterwards `grids` holds
    /// exactly the grids this build used. When `traced`, chosen splits are
    /// recorded (the trace is empty otherwise). Every phase splits with
    /// `split_loop`, which is [`greedy_split`] outside this module's tests.
    fn build_impl<S: RectSource + ?Sized>(
        &self,
        source: &S,
        grids: &mut GridSet,
        traced: bool,
        split_loop: SplitLoop,
    ) -> (SpatialHistogram, MinSkewDetail, MinSkewBuildTrace) {
        let mut build_clock = minskew_obs::Stopwatch::start();
        let data = source;
        let (n, mbr) = data.len_and_mbr();
        if n == 0 {
            *grids = GridSet::default();
            return (
                SpatialHistogram::from_parts("Min-Skew", vec![], 0, self.rule),
                MinSkewDetail {
                    spatial_skew: 0.0,
                    grid_side: 0,
                    grids_reused: 0,
                    grids_built: 0,
                    grid_ns: 0,
                    split_ns: 0,
                    assign_ns: 0,
                },
                MinSkewBuildTrace::default(),
            );
        }
        let phases = self.refinements + 1;
        let side = self.final_grid_side();

        let mut blocks: Vec<CellBlock> = Vec::new();
        let mut used = GridSet::default();
        // The latest phase's grid and the side it was requested at.
        let mut grid: Option<(usize, DensityGrid)> = None;
        let mut centres: Option<CentreSums> = None;
        let mut prefix = None;
        let mut prev_dims = (0usize, 0usize);
        let mut splits: Vec<SplitEvent> = Vec::new();
        let mut grids_reused = 0;
        // Each phase laps the clock after its grid and after its split
        // search; the fold of the bucket summaries laps last.
        let (mut grid_ns, mut split_ns) = (0, 0);

        for phase in 0..phases {
            let cur_side = side >> (self.refinements - phase);
            // A held grid that writes have patched equals a fresh build; a
            // miss counts the source in one sweep. The final phase needs its
            // centre sums too, and builds both in one sweep unless both are
            // held.
            let held = grids.take(mbr, cur_side, cur_side);
            let g = if phase + 1 < phases {
                held.map_or_else(
                    || DensityGrid::from_source(data, mbr, cur_side, cur_side),
                    |g| {
                        grids_reused += 1;
                        g
                    },
                )
            } else {
                match (held, grids.take_centres(mbr, cur_side, cur_side)) {
                    (Some(g), Some(c)) => {
                        grids_reused += 1;
                        centres = Some(c);
                        g
                    }
                    _ => {
                        let (g, c) = DensityGrid::build_with_centres(data, mbr, cur_side, cur_side);
                        centres = Some(c);
                        g
                    }
                }
            };
            grid_ns += build_clock.lap();
            let p = GridPrefixSums::from_grid(&g);
            if phase == 0 {
                blocks.push(g.full_block());
            } else {
                // Remap buckets onto the finer grid. Grid dimensions scale
                // by an exact integer factor (degenerate axes stay at 1).
                let (nx, ny) = (g.nx(), g.ny());
                let (px, py) = prev_dims;
                blocks = blocks
                    .iter()
                    .map(|b| {
                        CellBlock::new(
                            b.x0 * nx / px,
                            (b.x1 + 1) * nx / px - 1,
                            b.y0 * ny / py,
                            (b.y1 + 1) * ny / py - 1,
                        )
                    })
                    .collect();
            }
            prev_dims = (g.nx(), g.ny());

            // Per the paper's Example 3: each phase contributes an equal
            // share of the bucket budget; the last phase takes any slack.
            let target = if phase + 1 == phases {
                self.buckets
            } else {
                (self.buckets * (phase + 1)) / phases
            };
            let mut raw: Vec<RawSplit> = Vec::new();
            split_loop(
                &mut blocks,
                &p,
                self.strategy,
                target,
                traced.then_some(&mut raw),
            );
            // Convert grid indices into data-space coordinates while this
            // phase's grid is still in scope; later phases use finer grids.
            for r in raw {
                let coordinate = match r.axis {
                    Axis::X => g.cell_rect(r.index, 0).hi.x,
                    Axis::Y => g.cell_rect(0, r.index).hi.y,
                };
                splits.push(SplitEvent {
                    phase,
                    bucket: r.bucket,
                    axis: r.axis,
                    grid_index: r.index,
                    coordinate,
                    skew_before: r.sse_before,
                    skew_after: r.sse_after,
                });
            }
            if let Some((s, done)) = grid.replace((cur_side, g)) {
                used.insert(s, s, done);
            }
            prefix = Some(p);
            split_ns += build_clock.lap();
        }

        let (final_side, grid) = grid.expect("at least one phase ran");
        let centres = centres.expect("the final phase ran");
        let prefix = prefix.expect("at least one phase ran");
        let skew: f64 = blocks.iter().map(|b| prefix.block_sse(b)).sum();
        split_ns += build_clock.lap();
        let hist = blocks_to_histogram("Min-Skew", n, &grid, &centres, &blocks, self.rule);
        let assign_ns = build_clock.lap();
        let detail = MinSkewDetail {
            spatial_skew: skew,
            grid_side: grid.nx().max(grid.ny()),
            grids_reused,
            grids_built: phases - grids_reused,
            grid_ns,
            split_ns,
            assign_ns,
        };
        used.insert(final_side, final_side, grid);
        used.insert_centres(final_side, final_side, centres);
        *grids = used;
        let trace = MinSkewBuildTrace {
            splits,
            phases,
            final_skew: skew,
            grid_side: detail.grid_side,
        };
        (hist, detail, trace)
    }
}

/// Construction diagnostics reported by [`MinSkewBuilder::build_detailed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinSkewDetail {
    /// The spatial skew (Definition 4.1) of the final partitioning, measured
    /// on the final grid: `Σ_buckets n_i · s_i`.
    pub spatial_skew: f64,
    /// Side length of the final grid actually used.
    pub grid_side: usize,
    /// Phase grids taken from the caller's [`GridSet`] instead of built.
    pub grids_reused: usize,
    /// Phase grids built by sweeping the source.
    pub grids_built: usize,
    /// Nanoseconds spent taking or building the phase grids.
    pub grid_ns: u64,
    /// Nanoseconds spent in the split search: prefix sums, the greedy
    /// loop and the bucket remap of every phase, and the final skew.
    pub split_ns: u64,
    /// Nanoseconds spent folding each bucket's summary (count, average
    /// width and height) from the final grid's [`CentreSums`], O(cells)
    /// with no sweep of the source.
    pub assign_ns: u64,
}

/// One greedy split of the §4.2 loop, as recorded by
/// [`MinSkewBuilder::build_from_source_traced`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitEvent {
    /// Progressive-refinement phase the split belongs to (0-based).
    pub phase: usize,
    /// Index of the bucket that was split (its lower half stays at this
    /// index; the upper half is appended).
    pub bucket: usize,
    /// Split axis.
    pub axis: Axis,
    /// Grid-cell index the split falls *after*, on this phase's grid.
    pub grid_index: usize,
    /// Data-space coordinate of the split boundary.
    pub coordinate: f64,
    /// Spatial skew (SSE) of the split bucket before the split.
    pub skew_before: f64,
    /// Combined spatial skew of the two halves after the split; the greedy
    /// criterion guarantees `skew_after <= skew_before` up to float noise.
    pub skew_after: f64,
}

/// The full per-split audit trail of one Min-Skew construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MinSkewBuildTrace {
    /// Every greedy split, in the order it was applied.
    pub splits: Vec<SplitEvent>,
    /// Number of progressive-refinement phases run (refinements + 1).
    pub phases: usize,
    /// Spatial skew of the final partitioning on the final grid.
    pub final_skew: f64,
    /// Side length of the final grid actually used.
    pub grid_side: usize,
}

/// A chosen split as recorded inside [`greedy_split`], in grid coordinates;
/// the phase loop converts these to data-space [`SplitEvent`]s.
#[derive(Debug, Clone, Copy)]
struct RawSplit {
    bucket: usize,
    axis: Axis,
    index: usize,
    sse_before: f64,
    sse_after: f64,
}

/// A bucket's cached best split.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    reduction: f64,
    axis: Axis,
    index: usize,
}

/// The greedy loop one refinement phase runs over its blocks: split until
/// `target` blocks exist, recording chosen splits into the sink if given.
type SplitLoop =
    fn(&mut Vec<CellBlock>, &GridPrefixSums, SplitStrategy, usize, Option<&mut Vec<RawSplit>>);

/// Greedily splits `blocks` until `target` buckets exist or no split
/// reduces the spatial skew.
///
/// Tie-break on equal skew reduction: the **lowest block index** wins (see
/// [`Tournament`]), and within a block the X axis before the Y axis, then
/// the **lowest split coordinate** (the strictly-greater comparisons in
/// [`GridPrefixSums::best_split`] / [`best_split_marginal`], which scan
/// axes and indices in ascending order).
fn greedy_split(
    blocks: &mut Vec<CellBlock>,
    prefix: &GridPrefixSums,
    strategy: SplitStrategy,
    target: usize,
    mut sink: Option<&mut Vec<RawSplit>>,
) {
    // The tree is sized for `target` buckets; a phase whose share of the
    // budget is already met has nothing to split.
    if blocks.len() >= target {
        return;
    }
    let mut tree = Tournament::new(
        target,
        blocks.iter().map(|b| best_split(b, prefix, strategy)),
    );
    while blocks.len() < target {
        // Pick the bucket whose best split yields the greatest reduction in
        // spatial skew (the paper's greedy criterion).
        let Some((i, cand)) = tree.winner() else {
            break;
        };
        if cand.reduction <= 0.0 {
            break;
        }
        let (a, b) = blocks[i].split_after(cand.axis, cand.index);
        if let Some(sink) = sink.as_deref_mut() {
            // Audit-trail probes only: three O(1) prefix-sum lookups per
            // *chosen* split, never consulted by the greedy decision above.
            sink.push(RawSplit {
                bucket: i,
                axis: cand.axis,
                index: cand.index,
                sse_before: prefix.block_sse(&blocks[i]),
                sse_after: prefix.block_sse(&a) + prefix.block_sse(&b),
            });
        }
        blocks[i] = a;
        blocks.push(b);
        tree.set(i, best_split(&a, prefix, strategy));
        tree.set(blocks.len() - 1, best_split(&b, prefix, strategy));
    }
}

/// Every bucket's cached best split under a tournament tree: the greedy
/// pick reads the root, and replacing one bucket's candidate replays the
/// O(log B) matches on its path.
///
/// Each internal node holds the slot that wins between its two children.
/// The right child wins only with a *strictly greater* reduction and `None`
/// always loses, so the root is the first strict maximum in slot order:
/// among the buckets tied for the greatest reduction, the lowest index.
/// Reductions are finite (they come from finite cell counts), so this is
/// the order a linear scan for the first strict maximum gives.
struct Tournament {
    /// One candidate per bucket index; a power-of-two count, unused slots
    /// `None`.
    slots: Vec<Option<Candidate>>,
    /// Winning slot per node: node `k` has children `2k` and `2k + 1`, the
    /// leaves `slots.len()..` stand for the slots, and node 1 is the root.
    winners: Vec<usize>,
}

impl Tournament {
    /// A tree with room for `capacity` buckets holding `candidates` in
    /// slot order.
    fn new(capacity: usize, candidates: impl Iterator<Item = Option<Candidate>>) -> Tournament {
        let leaves = capacity.next_power_of_two();
        let mut slots: Vec<Option<Candidate>> = candidates.collect();
        slots.resize(leaves, None);
        let mut winners = vec![0; leaves];
        winners.extend(0..leaves);
        let mut tree = Tournament { slots, winners };
        for k in (1..leaves).rev() {
            tree.winners[k] = tree.play(k);
        }
        tree
    }

    /// The slot winning node `k`'s match between its two children.
    fn play(&self, k: usize) -> usize {
        let (left, right) = (self.winners[2 * k], self.winners[2 * k + 1]);
        match (self.slots[left], self.slots[right]) {
            (Some(l), Some(r)) if r.reduction > l.reduction => right,
            (None, Some(_)) => right,
            _ => left,
        }
    }

    /// The winning bucket and its candidate, `None` if no bucket can split.
    fn winner(&self) -> Option<(usize, Candidate)> {
        let i = self.winners[1];
        self.slots[i].map(|c| (i, c))
    }

    /// Replaces `slot`'s candidate and replays the matches above it.
    fn set(&mut self, slot: usize, candidate: Option<Candidate>) {
        self.slots[slot] = candidate;
        let mut k = (self.slots.len() + slot) / 2;
        while k > 0 {
            self.winners[k] = self.play(k);
            k /= 2;
        }
    }
}

/// Finds the best split of one block under the given strategy.
fn best_split(
    block: &CellBlock,
    prefix: &GridPrefixSums,
    strategy: SplitStrategy,
) -> Option<Candidate> {
    let best = match strategy {
        SplitStrategy::Exact2d => {
            prefix
                .best_split(block)
                .map(|(reduction, axis, index)| Candidate {
                    reduction,
                    axis,
                    index,
                })
        }
        SplitStrategy::Marginal => best_split_marginal(block, prefix),
    };
    debug_assert!(best.is_none_or(|c| c.reduction.is_finite()));
    best
}

fn best_split_marginal(block: &CellBlock, prefix: &GridPrefixSums) -> Option<Candidate> {
    let mut best: Option<Candidate> = None;
    for axis in Axis::BOTH {
        let (lo, hi) = match axis {
            Axis::X => (block.x0, block.x1),
            Axis::Y => (block.y0, block.y1),
        };
        if lo == hi {
            continue;
        }
        // Marginal density vector along `axis`.
        let marg: Vec<f64> = (lo..=hi)
            .map(|i| match axis {
                Axis::X => prefix.column_sum(i, block.y0, block.y1),
                Axis::Y => prefix.row_sum(i, block.x0, block.x1),
            })
            .collect();
        let total_s: f64 = marg.iter().sum();
        let total_s2: f64 = marg.iter().map(|v| v * v).sum();
        let n = marg.len() as f64;
        let sse_total = (total_s2 - total_s * total_s / n).max(0.0);
        // Scan split positions with running sums.
        let mut s = 0.0;
        let mut s2 = 0.0;
        for (k, v) in marg[..marg.len() - 1].iter().enumerate() {
            s += v;
            s2 += v * v;
            let nl = (k + 1) as f64;
            let nr = n - nl;
            let sse_l = (s2 - s * s / nl).max(0.0);
            let rs = total_s - s;
            let rs2 = total_s2 - s2;
            let sse_r = (rs2 - rs * rs / nr).max(0.0);
            let reduction = sse_total - sse_l - sse_r;
            if best.is_none_or(|c| reduction > c.reduction) {
                best = Some(Candidate {
                    reduction,
                    axis,
                    index: lo + k,
                });
            }
        }
    }
    best
}

/// The final step of Algorithm Min-Skew: each bucket summarises the
/// rectangles whose centre lies in its region.
///
/// Shared by every grid-block-based partitioner in this crate (greedy
/// Min-Skew, the optimal-BSP baseline). The blocks tile the grid and
/// `centres` holds each cell's count and fixed-point width and height
/// sums, so a bucket's summary is a fold over its block's cells: O(cells),
/// with no sweep of the rectangles. The sums are exact, so the summary is
/// the same whatever order the rectangles came in.
pub(crate) fn blocks_to_histogram(
    name: &str,
    n: usize,
    grid: &DensityGrid,
    centres: &CentreSums,
    blocks: &[CellBlock],
    rule: ExtensionRule,
) -> SpatialHistogram {
    let buckets: Vec<Bucket> = blocks
        .iter()
        .filter_map(|b| {
            let (count, sum_w, sum_h) = centres.block(b);
            let count = count as f64;
            (count > 0.0).then(|| Bucket {
                mbr: grid.block_rect(b),
                count,
                avg_width: sum_w / count,
                avg_height: sum_h / count,
            })
        })
        .collect();
    SpatialHistogram::from_parts(name, buckets, n, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialEstimator;
    use minskew_datagen::charminar_with;
    use minskew_geom::Rect;

    #[test]
    fn respects_bucket_budget_and_covers_input() {
        let ds = charminar_with(8_000, 1);
        let h = MinSkewBuilder::new(50).regions(2_500).build(&ds);
        assert!(h.num_buckets() <= 50);
        assert!(h.num_buckets() >= 10, "got {}", h.num_buckets());
        assert!((h.total_count() - 8_000.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_data_needs_no_splits() {
        // Perfectly flat density: every split reduction is ~0, so the
        // greedy loop stops immediately with one bucket.
        let rects: Vec<Rect> = (0..64)
            .flat_map(|iy| {
                (0..64).map(move |ix| {
                    Rect::new(ix as f64, iy as f64, ix as f64 + 1.0, iy as f64 + 1.0)
                })
            })
            .collect();
        let ds = Dataset::new(rects);
        let h = MinSkewBuilder::new(20).regions(64 * 64).build(&ds);
        assert!(
            h.num_buckets() <= 4,
            "flat density should stop early, got {}",
            h.num_buckets()
        );
    }

    #[test]
    fn spatial_skew_decreases_with_buckets() {
        let ds = charminar_with(10_000, 2);
        let mut last = f64::INFINITY;
        for buckets in [1, 5, 25, 100] {
            let (_, detail) = MinSkewBuilder::new(buckets)
                .regions(2_500)
                .build_detailed(&ds);
            assert!(
                detail.spatial_skew <= last + 1e-6,
                "skew must be non-increasing in buckets"
            );
            last = detail.spatial_skew;
        }
        assert!(last >= 0.0);
    }

    #[test]
    fn beats_all_simpler_techniques_on_charminar() {
        let ds = charminar_with(20_000, 3);
        let minskew = MinSkewBuilder::new(50).regions(2_500).build(&ds);
        let uniform = crate::build_uniform(&ds);
        let equi_area = crate::build_equi_area(&ds, 50);
        // Average relative error over a set of mixed queries.
        let queries: Vec<Rect> = (0..10)
            .flat_map(|i| {
                let t = i as f64 * 1_000.0;
                vec![
                    Rect::new(t * 0.9, t * 0.9, t * 0.9 + 900.0, t * 0.9 + 900.0),
                    Rect::new(0.0, t * 0.9, 1_500.0, t * 0.9 + 1_500.0),
                ]
            })
            .collect();
        let err = |est: &dyn SpatialEstimator| {
            let mut num = 0.0;
            let mut den = 0.0;
            for q in &queries {
                let actual = ds.count_intersecting(q) as f64;
                num += (est.estimate_count(q) - actual).abs();
                den += actual;
            }
            num / den
        };
        let e_ms = err(&minskew);
        let e_uni = err(&uniform);
        let e_ea = err(&equi_area);
        assert!(e_ms < e_uni, "Min-Skew {e_ms} vs Uniform {e_uni}");
        assert!(e_ms < e_ea, "Min-Skew {e_ms} vs Equi-Area {e_ea}");
    }

    #[test]
    fn progressive_refinement_matches_example_3_accounting() {
        // 60 buckets, 2 refinements, 16000 regions: phases at 1000 / 4000 /
        // 16000 regions emitting 20 buckets each. We can't observe phase
        // internals directly, but the build must succeed and use the full
        // budget on skewed data.
        let ds = charminar_with(10_000, 4);
        let h = MinSkewBuilder::new(60)
            .regions(16_000)
            .progressive_refinements(2)
            .build(&ds);
        assert!(h.num_buckets() <= 60);
        assert!(h.num_buckets() >= 30, "got {}", h.num_buckets());
        assert!((h.total_count() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn refinement_grid_side_aligns() {
        let ds = charminar_with(1_000, 5);
        let (_, detail) = MinSkewBuilder::new(12)
            .regions(10_000) // side 100 -> rounded up to 104 for 8x alignment
            .progressive_refinements(3)
            .build_detailed(&ds);
        assert_eq!(detail.grid_side % (1 << 3), 0);
        assert!(detail.grid_side >= 100);
    }

    #[test]
    fn marginal_strategy_builds_valid_histogram() {
        let ds = charminar_with(8_000, 6);
        let h = MinSkewBuilder::new(40)
            .regions(2_500)
            .split_strategy(SplitStrategy::Marginal)
            .build(&ds);
        assert!(h.num_buckets() <= 40);
        assert!((h.total_count() - 8_000.0).abs() < 1e-9);
        // Still much better than uniform on a corner query.
        let q = Rect::new(0.0, 0.0, 1_200.0, 1_200.0);
        let actual = ds.count_intersecting(&q) as f64;
        let uni = crate::build_uniform(&ds);
        let em = (h.estimate_count(&q) - actual).abs();
        let eu = (uni.estimate_count(&q) - actual).abs();
        assert!(em < eu);
    }

    #[test]
    fn single_rect_and_empty_inputs() {
        let empty = Dataset::new(vec![]);
        let h = MinSkewBuilder::new(10).build(&empty);
        assert_eq!(h.num_buckets(), 0);
        let one = Dataset::new(vec![Rect::new(1.0, 1.0, 2.0, 2.0)]);
        let h = MinSkewBuilder::new(10).regions(100).build(&one);
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.total_count(), 1.0);
        assert_eq!(h.estimate_count(&Rect::new(0.0, 0.0, 3.0, 3.0)), 1.0);
    }

    #[test]
    fn tie_break_prefers_lowest_block_then_lowest_coordinate() {
        // A 2x1 arrangement of two identical point clusters: splitting the
        // full block after column 0 or 1 gives the same skew reduction. The
        // deterministic rule must pick the lowest split coordinate.
        let mut rects = Vec::new();
        for i in 0..32 {
            let dx = (i % 2) as f64 * 0.1;
            rects.push(Rect::new(dx, 0.0, dx + 0.05, 0.05)); // cluster in cell 0
            rects.push(Rect::new(2.0 + dx, 0.0, 2.0 + dx + 0.05, 0.05)); // cell 2
        }
        let ds = Dataset::new(rects);
        let h = MinSkewBuilder::new(2).regions(9).build(&ds);
        assert_eq!(h.num_buckets(), 2);
        // Column 0 ends at a third of the 2.15-wide MBR; column 1 at two.
        assert!(h.buckets()[0].mbr.hi.x < 1.0, "{:?}", h.buckets()[0]);
    }

    #[test]
    fn tie_break_across_blocks_prefers_the_lowest_block() {
        // A 4x4 grid of exact cell counts: rows 0-1 read [8, 8, 0, 0] and
        // rows 2-3 read [16, 16, 24, 24]. The first split separates the two
        // row pairs; each pair then offers the same best reduction (128, by
        // cutting after column 1), so the lower block must split first.
        let density = |ix: usize, iy: usize| [[8, 8, 0, 0], [16, 16, 24, 24]][iy / 2][ix];
        let mut rects = Vec::new();
        for iy in 0..4 {
            for ix in 0..4 {
                let (x, y) = (ix as f64 + 0.5, iy as f64 + 0.5);
                for _ in 0..density(ix, iy) {
                    rects.push(Rect::new(x - 0.1, y - 0.1, x + 0.1, y + 0.1));
                }
            }
        }
        // Stretch the MBR to [0, 4]² (the first rect sits in cell (0, 0),
        // the last in cell (3, 3)) so the cells are unit squares.
        rects[0] = Rect::new(0.0, 0.0, 0.1, 0.1);
        *rects.last_mut().expect("cell (3, 3) is not empty") = Rect::new(3.9, 3.9, 4.0, 4.0);
        let ds = Dataset::new(rects);
        let (_, trace) = MinSkewBuilder::new(4)
            .regions(16)
            .build_from_source_traced(&ds);
        let picks: Vec<_> = trace
            .splits
            .iter()
            .map(|s| (s.bucket, s.axis, s.grid_index))
            .collect();
        assert_eq!(picks, [(0, Axis::Y, 1), (0, Axis::X, 1), (1, Axis::X, 1)]);
        let reduction = |s: &SplitEvent| s.skew_before - s.skew_after;
        assert_eq!(reduction(&trace.splits[1]), 128.0);
        assert_eq!(reduction(&trace.splits[2]), 128.0);
    }

    /// The split search before the tournament tree, kept as the oracle of
    /// [`greedy_split`]: each pick scans every bucket's cached candidate
    /// for the first strict maximum, and exact candidates are scored
    /// through `block_sse` on the two `split_after` halves.
    fn linear_scan_greedy_split(
        blocks: &mut Vec<CellBlock>,
        prefix: &GridPrefixSums,
        strategy: SplitStrategy,
        target: usize,
        mut sink: Option<&mut Vec<RawSplit>>,
    ) {
        let best_split = |block: &CellBlock| match strategy {
            _ if block.is_unit() => None,
            SplitStrategy::Exact2d => block_sse_best_split(block, prefix),
            SplitStrategy::Marginal => best_split_marginal(block, prefix),
        };
        let mut candidates: Vec<Option<Candidate>> = blocks.iter().map(best_split).collect();
        while blocks.len() < target {
            let mut best: Option<(usize, Candidate)> = None;
            for (i, cand) in candidates.iter().enumerate() {
                let Some(cand) = cand else { continue };
                if best.is_none_or(|(_, b)| cand.reduction > b.reduction) {
                    best = Some((i, *cand));
                }
            }
            let Some((i, cand)) = best else { break };
            if cand.reduction <= 0.0 {
                break;
            }
            let (a, b) = blocks[i].split_after(cand.axis, cand.index);
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(RawSplit {
                    bucket: i,
                    axis: cand.axis,
                    index: cand.index,
                    sse_before: prefix.block_sse(&blocks[i]),
                    sse_after: prefix.block_sse(&a) + prefix.block_sse(&b),
                });
            }
            blocks[i] = a;
            blocks.push(b);
            candidates[i] = best_split(&a);
            candidates.push(best_split(&b));
        }
    }

    fn block_sse_best_split(block: &CellBlock, prefix: &GridPrefixSums) -> Option<Candidate> {
        let parent = prefix.block_sse(block);
        let mut best: Option<Candidate> = None;
        for axis in Axis::BOTH {
            let (lo, hi) = match axis {
                Axis::X => (block.x0, block.x1),
                Axis::Y => (block.y0, block.y1),
            };
            for i in lo..hi {
                let (a, b) = block.split_after(axis, i);
                let reduction = parent - prefix.block_sse(&a) - prefix.block_sse(&b);
                if best.is_none_or(|c| reduction > c.reduction) {
                    best = Some(Candidate {
                        reduction,
                        axis,
                        index: i,
                    });
                }
            }
        }
        best
    }

    #[test]
    fn tournament_split_search_matches_the_linear_scan_oracle() {
        let road = minskew_datagen::RoadNetworkSpec {
            segments: 20_000,
            ..Default::default()
        }
        .generate(3);
        // Every centre on one vertical line: the grid collapses to a
        // single column, so no block ever has an X cut.
        let line = Dataset::new(
            (0..2_000)
                .map(|i| {
                    let y = (i * i % 997) as f64;
                    Rect::new(5.0, y, 5.0, y + 0.5)
                })
                .collect(),
        );
        let datasets = [
            ("charminar", charminar_with(20_000, 13)),
            ("road", road),
            ("line", line),
        ];
        let bits = |trace: &MinSkewBuildTrace| -> Vec<_> {
            trace
                .splits
                .iter()
                .map(|s| {
                    (
                        (s.phase, s.bucket, s.axis, s.grid_index),
                        s.coordinate.to_bits(),
                        s.skew_before.to_bits(),
                        s.skew_after.to_bits(),
                    )
                })
                .collect()
        };
        for (name, ds) in &datasets {
            for budget in [1, 2, 50, 1000] {
                for refinements in [0, 2] {
                    for strategy in [SplitStrategy::Exact2d, SplitStrategy::Marginal] {
                        let builder = MinSkewBuilder::new(budget)
                            .progressive_refinements(refinements)
                            .split_strategy(strategy);
                        let case = format!("{name} β={budget} r={refinements} {strategy:?}");
                        let (hist, trace) = builder.build_from_source_traced(ds);
                        let (want, _, want_trace) = builder.build_impl(
                            ds,
                            &mut GridSet::default(),
                            true,
                            linear_scan_greedy_split,
                        );
                        assert_eq!(bits(&trace), bits(&want_trace), "{case}");
                        assert_eq!(trace.final_skew.to_bits(), want_trace.final_skew.to_bits());
                        assert_eq!(hist.to_snapshot_bytes(), want.to_snapshot_bytes(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn traced_build_is_byte_identical_and_auditable() {
        let ds = charminar_with(6_000, 12);
        for refinements in [0usize, 2] {
            let builder = MinSkewBuilder::new(30)
                .regions(1_600)
                .progressive_refinements(refinements);
            let plain = builder.build(&ds);
            let (traced, trace) = builder.build_from_source_traced(&ds);
            assert_eq!(plain, traced, "refinements = {refinements}");
            assert_eq!(plain.to_bytes(), traced.to_bytes());
            // The audit trail accounts for the greedy loop: one event per
            // split, each reducing the split bucket's skew, phases ordered.
            assert_eq!(trace.phases, refinements + 1);
            assert!(!trace.splits.is_empty());
            assert!(trace.splits.len() < 30);
            let mbr = ds.stats().mbr;
            for w in trace.splits.windows(2) {
                assert!(w[0].phase <= w[1].phase, "phases must be ordered");
            }
            for s in &trace.splits {
                assert!(
                    s.skew_after <= s.skew_before + 1e-6,
                    "split must not increase its bucket's skew"
                );
                assert!(s.coordinate >= mbr.lo.coord(s.axis));
                assert!(s.coordinate <= mbr.hi.coord(s.axis));
            }
            let (strict, strict_trace) = builder.try_build_traced(&ds).expect("valid input");
            assert_eq!(strict, plain);
            assert_eq!(strict_trace.splits, trace.splits);
        }
    }

    #[test]
    fn try_build_reports_precondition_failures() {
        assert!(matches!(
            MinSkewBuilder::try_new(0),
            Err(BuildError::ZeroBucketBudget)
        ));
        let empty = Dataset::new(vec![]);
        assert_eq!(
            MinSkewBuilder::new(10).try_build(&empty),
            Err(BuildError::EmptyDataset)
        );
        let ds = charminar_with(200, 9);
        // A 2x2 grid cannot reach 10 buckets; the error carries the
        // achievable count so callers can degrade.
        assert_eq!(
            MinSkewBuilder::new(10).regions(4).try_build(&ds),
            Err(BuildError::GridTooCoarse {
                regions: 4,
                buckets: 10
            })
        );
        // The lenient wrapper still builds, just with fewer buckets.
        let h = MinSkewBuilder::new(10).regions(4).build(&ds);
        assert!(h.num_buckets() <= 4);
        assert!(MinSkewBuilder::new(10).try_regions(0).is_err());
        assert!(MinSkewBuilder::new(10)
            .try_progressive_refinements(17)
            .is_err());
    }

    #[test]
    fn try_build_success_matches_lenient_build() {
        let ds = charminar_with(2_000, 10);
        let builder = MinSkewBuilder::new(20).regions(400);
        let strict = builder.try_build(&ds).expect("valid input");
        let lenient = builder.build(&ds);
        assert_eq!(strict, lenient);
    }

    #[test]
    fn estimates_are_finite_and_bounded() {
        let ds = charminar_with(5_000, 7);
        let h = MinSkewBuilder::new(50).regions(2_500).build(&ds);
        for q in [
            Rect::new(-1e6, -1e6, 1e6, 1e6),
            Rect::new(5_000.0, 5_000.0, 5_000.0, 5_000.0),
            Rect::new(0.0, 0.0, 1.0, 1.0),
        ] {
            let e = h.estimate_count(&q);
            assert!(e.is_finite() && e >= 0.0);
            assert!(e <= 5_000.0 + 1e-9);
        }
    }

    #[test]
    fn extreme_inputs_build_sanely() {
        use minskew_geom::Point;
        // All rectangles identical at a single point.
        let point_pile = Dataset::new(vec![Rect::from_point(Point::new(3.0, 3.0)); 50]);
        // All centres on a vertical line.
        let line: Dataset = Dataset::new(
            (0..60)
                .map(|i| Rect::new(10.0, i as f64, 10.0, i as f64 + 0.5))
                .collect(),
        );
        // Astronomically large coordinates.
        let huge = Dataset::new(
            (0..40)
                .map(|i| {
                    let x = 1e12 + i as f64 * 1e9;
                    Rect::new(x, -1e12, x + 1e8, -1e12 + 1e8)
                })
                .collect(),
        );
        for (name, ds) in [("point-pile", point_pile), ("line", line), ("huge", huge)] {
            for refinements in [0usize, 2] {
                let h = MinSkewBuilder::new(8)
                    .regions(64)
                    .progressive_refinements(refinements)
                    .build(&ds);
                assert!(
                    (h.total_count() - ds.len() as f64).abs() < 1e-9,
                    "{name}: mass lost"
                );
                let whole = ds.stats().mbr.expanded(1.0, 1.0);
                let est = h.estimate_count(&whole);
                assert!(
                    (est - ds.len() as f64).abs() < 1e-6,
                    "{name}: covering estimate {est}"
                );
            }
        }
    }

    #[test]
    fn streaming_build_equals_in_memory_build() {
        // The CSV-backed source must yield byte-identical histograms to the
        // in-memory dataset: construction only ever touches the data
        // through sequential sweeps.
        let ds = charminar_with(3_000, 8);
        let path =
            std::env::temp_dir().join(format!("minskew-streaming-{}.csv", std::process::id()));
        minskew_data::write_rects_csv(&ds, &path).unwrap();
        let source = minskew_data::CsvRectSource::open(&path).unwrap();
        for refinements in [0usize, 2] {
            let builder = MinSkewBuilder::new(40)
                .regions(1_600)
                .progressive_refinements(refinements);
            let in_memory = builder.build(&ds);
            let streamed = builder.build(&source);
            assert_eq!(in_memory, streamed, "refinements = {refinements}");
        }
        std::fs::remove_file(path).ok();
    }

    use minskew_data::Dataset;
}
