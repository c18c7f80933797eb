//! The structure-of-arrays clip-and-accumulate kernel behind every
//! estimate.
//!
//! # Why a kernel plane
//!
//! The reference estimator folds [`Bucket::estimate_with_extension`] over an
//! AoS `Vec<Bucket>`: every bucket costs two early-exit branches, a `Rect`
//! construction, and scattered loads across a 56-byte struct.
//! [`BucketPlane`] stores the seven per-bucket words the fold reads
//! (`x1/y1/x2/y2/count` and the extension amounts `ex/ey`) as separate
//! contiguous `f64` slices, permuted into Z-order of the bucket centres and
//! summarised per block and quad, so one scan prunes whole runs of buckets
//! with a rectangle test and computes the survivors' terms in a branchless
//! min/max/clamp-to-zero form.
//!
//! # The bit-identity contract
//!
//! Every accumulation in this module is **bit-identical** to the reference
//! AoS fold (`buckets.iter().map(estimate_with_extension).sum::<f64>()`,
//! which folds from Rust's `f64` additive identity `-0.0`). That is what
//! lets the kernel serve underneath every existing differential contract
//! (serving, trace, wire-protocol goldens) without moving a
//! single bit. The derivation:
//!
//! 1. **The clip arithmetic is the same arithmetic.** For bucket `i` the
//!    reference computes `query.expanded(ex, ey)` (centre ± clamped
//!    half-extents), an `intersects` test, per-axis overlaps
//!    `(ehx.min(x2) - elx.max(x1)).max(0.0)`, and per-axis fractions
//!    `clamp(overlap/extent, 0, 1)` (degenerate axes count as 1). The
//!    kernel performs the *identical* operations in the identical order on
//!    the plane's columns — only the memory layout changed, so every term
//!    `t_i` matches the reference term bit for bit (IEEE-754 operations are
//!    deterministic).
//! 2. **Skipped zero terms are reconstructed exactly.** A strict in-order
//!    fold `-0.0 + t_0 + … + t_{n-1}` would serialise one `addsd` per
//!    bucket (~4 cycles each) even though almost every term of a selective
//!    query is zero. The kernel instead adds only the non-zero terms — in
//!    the same order — and repairs the one observable difference: IEEE-754
//!    addition of zeros. Adding `t = -0.0` never changes the accumulator;
//!    adding `t = +0.0` changes it only when it still holds `-0.0` (the
//!    fold identity), turning it into `+0.0`. So the skip-fold equals the
//!    strict fold **except** when the skip-fold ends at `-0.0` and at least
//!    one skipped term was `+0.0` — exactly repaired by a final `acc + 0.0`
//!    guarded by a "saw a skipped `+0.0`" flag.
//! 3. **Skipped-term signs are tracked without computing the terms.** A
//!    bucket is skipped when the branchless filter proves its term is some
//!    zero: the extended query misses the MBR (the reference early-returns
//!    literal `+0.0`), the count is `±0.0` (reference returns `+0.0`), or
//!    an axis with positive extent has zero overlap (the term is a product
//!    with a `+0.0` factor, so its sign is the sign of `count`). Hence a
//!    skipped term is `-0.0` **iff** the extended query intersects the MBR
//!    and `count < 0.0`; every other skipped term is `+0.0`. Buckets the
//!    filter cannot prove zero (including products that *underflow* to
//!    zero) compute the full term and re-test `t != 0.0`, so the flag is
//!    exact for them too.
//!
//! `count == -0.0` and NaN deserve a note: the filter treats `-0.0` counts
//! as zero-count buckets (`c != 0.0` is false) and records a `+0.0` skipped
//! term, matching the reference's literal `+0.0` early return. NaN
//! extension amounts collapse `(qhw + ex).max(0.0)` to `0.0` in both paths
//! (`f64::max` returns the non-NaN operand), and NaN counts survive the
//! `c != 0.0` filter so the NaN propagates into the sum exactly as the
//! reference propagates it.
//!
//! # Explicit SIMD
//!
//! On x86_64 CPUs with AVX2 (detected at runtime) the pruned scan tests
//! four block summaries per `core::arch` compare, a surviving block's four
//! quads with one more compare, and computes a surviving quad's four terms
//! at vector width in the scalar operation order. Every other host runs
//! [`BucketPlane::accumulate_pruned_scalar`], the portable body. The fold
//! order is untouched either way, so bit-identity holds by construction,
//! and the portable body is the bit reference `tests/kernel_differential.rs`
//! pins the AVX2 body to. Per-lane
//! min/max/compare semantics only feed the boolean filter, where
//! `-0.0 == +0.0` and the NaN behaviours above agree between the scalar
//! and vector forms.

use std::ops::Range;

use minskew_geom::{Point, Rect};

use crate::{Bucket, ExtensionRule};

/// A query preprocessed for the kernel: centre and half-extents, the exact
/// intermediate values [`Rect::expanded`] derives before applying a
/// bucket's extension amounts.
///
/// Computing them once per query (instead of once per bucket) is
/// bit-identical because `expanded` derives them from the query alone.
#[derive(Debug, Clone, Copy)]
pub struct QueryPrep {
    cx: f64,
    cy: f64,
    hw: f64,
    hh: f64,
}

impl QueryPrep {
    /// Prepares `query` for accumulation.
    #[inline]
    pub fn new(query: &Rect) -> QueryPrep {
        let c = query.center();
        QueryPrep {
            cx: c.x,
            cy: c.y,
            hw: query.width() / 2.0,
            hh: query.height() / 2.0,
        }
    }
}

/// Buckets per pruning block of the Morton mirror: one coarse intersection
/// test can prove 16 terms zero at once (four AVX2 vectors).
const BLOCK: usize = 16;

/// Buckets per quad summary of the Morton mirror — the fine pruning level
/// below [`BLOCK`]. One block spans exactly `BLOCK / QUAD = 4` quads, so a
/// single four-wide vector compare tests all of a surviving block's quads.
const QUAD: usize = 4;

/// Structure-of-arrays mirror of a histogram's buckets plus the per-bucket
/// extension amounts under one [`ExtensionRule`].
///
/// Built lazily by [`crate::SpatialHistogram`], patched in place by a
/// one-bucket update (`BucketPlane::patch`), and dropped when the
/// extension rule changes.
///
/// The fold inputs live in a **Morton mirror** for the pruned scan
/// ([`BucketPlane::accumulate_pruned`]): the columns are permuted into
/// Z-order of the bucket centres (`morder` maps mirror position → bucket
/// id), plus one coarse **block summary** per `BLOCK` consecutive mirror
/// positions — the union of the members' MBRs and the maxima of their
/// extension amounts. Z-order makes a block's members spatial neighbours,
/// so a selective query prunes almost every block with one rectangle
/// test. IEEE-754 add/sub/max are monotone, so the query extended by the
/// block maxima contains every member's extended query: a failed block
/// test proves every member's term is exactly `+0.0`.
#[derive(Debug, Clone, Default)]
pub struct BucketPlane {
    /// Number of buckets; the mirror columns are padded past it.
    n: usize,
    /// Morton mirror: bucket id at each mirror position (a permutation of
    /// `0..n` in Z-order of bucket centres, padded to a whole quad with
    /// the sentinel id `n`), and the fold inputs gathered in that order.
    /// The members' `ex`/`ey` are `rule.amounts(avg_width, avg_height)` —
    /// the same values [`crate::SpatialHistogram`] caches in its extension
    /// table, so using them is bit-identical to re-deriving them.
    morder: Vec<u32>,
    count: Vec<f64>,
    members: Summaries,
    /// `ceil(len / QUAD)` summaries padded to a whole block window
    /// (`nblocks * 4`): the union MBR and extension maxima per 4 members,
    /// so a surviving block can discard three quarters of its members
    /// with one more rectangle test (one vector compare covers a whole
    /// block's quads).
    quads: Summaries,
    /// `ceil(len / BLOCK)` summaries padded to a coarse vector of four:
    /// the same unions per 16 members.
    blocks: Summaries,
}

/// One level of the plane: per entry a rectangle `x1, y1, x2, y2` and the
/// amounts `ex, ey` a query is extended by before it is tested against
/// the rectangle. A member is one bucket; a quad or block summary is the
/// union MBR of its members and the maxima of their amounts (NaN amounts
/// are dropped by `f64::max`, matching how the members themselves collapse
/// a NaN extension to zero). Every level is padded with the empty
/// rectangle, which no query reaches and no point lies in, so vector loads
/// never need a scalar tail.
#[derive(Debug, Clone, Default)]
struct Summaries {
    x1: Vec<f64>,
    y1: Vec<f64>,
    x2: Vec<f64>,
    y2: Vec<f64>,
    ex: Vec<f64>,
    ey: Vec<f64>,
}

impl Summaries {
    fn with_capacity(len: usize) -> Summaries {
        Summaries {
            x1: Vec::with_capacity(len),
            y1: Vec::with_capacity(len),
            x2: Vec::with_capacity(len),
            y2: Vec::with_capacity(len),
            ex: Vec::with_capacity(len),
            ey: Vec::with_capacity(len),
        }
    }

    /// One summary per `width` consecutive entries of `self`'s first `n`,
    /// padded to `len`: the level above `self`.
    fn coarsen(&self, n: usize, width: usize, len: usize) -> Summaries {
        let mut level = Summaries::with_capacity(len);
        for i in 0..n.div_ceil(width) {
            level.push(self.summarize(i * width..((i + 1) * width).min(n)));
        }
        level.pad_to(len);
        level
    }

    fn push(&mut self, [x1, y1, x2, y2, ex, ey]: [f64; 6]) {
        self.x1.push(x1);
        self.y1.push(y1);
        self.x2.push(x2);
        self.y2.push(y2);
        self.ex.push(ex);
        self.ey.push(ey);
    }

    /// Pads the level to `len` entries with the empty rectangle and zero
    /// amounts.
    fn pad_to(&mut self, len: usize) {
        for _ in self.x1.len()..len {
            self.push([
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                0.0,
                0.0,
            ]);
        }
    }

    /// The union MBR and extension maxima of entries `range`,
    /// `[x1, y1, x2, y2, ex, ey]`: the one fold behind every block and quad
    /// summary, at build time and after a patch. The unions use
    /// `f64::min`/`max`, which drop a NaN operand — consistent with the
    /// member-level arithmetic, where a NaN coordinate can never satisfy an
    /// intersection test and a NaN extension collapses to a zero
    /// half-extent.
    fn summarize(&self, range: Range<usize>) -> [f64; 6] {
        let mut s = [
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        ];
        for j in range {
            s[0] = s[0].min(self.x1[j]);
            s[1] = s[1].min(self.y1[j]);
            s[2] = s[2].max(self.x2[j]);
            s[3] = s[3].max(self.y2[j]);
            s[4] = s[4].max(self.ex[j]);
            s[5] = s[5].max(self.ey[j]);
        }
        s
    }

    /// `true` when the query extended by entry `i`'s amounts misses its
    /// rectangle (`!query.expanded(ex, ey).intersects(rect)`, element-wise
    /// and non-short-circuiting, so it compiles branch-free). By IEEE-754
    /// monotonicity of add/sub/max, a member's extended query is contained
    /// in its quad's and block's, so a summary that misses proves every
    /// member's term is exactly `+0.0`.
    #[inline(always)]
    fn misses(&self, i: usize, p: &QueryPrep) -> bool {
        let hw = (p.hw + self.ex[i]).max(0.0);
        let hh = (p.hh + self.ey[i]).max(0.0);
        !((p.cx - hw <= self.x2[i])
            & (self.x1[i] <= p.cx + hw)
            & (p.cy - hh <= self.y2[i])
            & (self.y1[i] <= p.cy + hh))
    }

    /// `true` when entry `i`'s rectangle contains `p` (`Rect::contains_point`).
    #[inline(always)]
    fn holds(&self, i: usize, p: Point) -> bool {
        self.x1[i] <= p.x && p.x <= self.x2[i] && self.y1[i] <= p.y && p.y <= self.y2[i]
    }

    /// Heap `f64`s held by the six columns (capacity, not length).
    fn capacity(&self) -> usize {
        [&self.x1, &self.y1, &self.x2, &self.y2, &self.ex, &self.ey]
            .iter()
            .map(|c| c.capacity())
            .sum()
    }
}

/// Classification of one bucket's term in the skip-zero fold: the exact
/// value when non-zero (with the clipped fraction `fx * fy` it scaled the
/// count by), otherwise the sign of the zero (module docs, steps 2–3).
#[derive(Debug, Clone, Copy)]
enum Term {
    Live { term: f64, fraction: f64 },
    PosZero,
    NegZero,
}

/// The single source of truth for the term of member `j` with count `c`:
/// the reference arithmetic of [`Bucket::estimate_with_extension`],
/// operation for operation, classified for the skip-zero fold. Every scan
/// body derives its terms from this arithmetic — the scalar walk by
/// calling it, the AVX2 term vectors by repeating its operations in its
/// order per lane — so their terms are bit-identical by construction.
#[inline(always)]
fn classify(m: &Summaries, j: usize, c: f64, p: &QueryPrep) -> Term {
    let (x1, y1, x2, y2) = (m.x1[j], m.y1[j], m.x2[j], m.y2[j]);
    // `Rect::expanded(ex, ey)` for this bucket, element-wise.
    let hw = (p.hw + m.ex[j]).max(0.0);
    let hh = (p.hh + m.ey[j]).max(0.0);
    let elx = p.cx - hw;
    let ehx = p.cx + hw;
    let ely = p.cy - hh;
    let ehy = p.cy + hh;
    // `extended.intersects(&mbr)`; non-short-circuiting so the filter
    // compiles branch-free.
    let inter = (elx <= x2) & (x1 <= ehx) & (ely <= y2) & (y1 <= ehy);
    // `extended.overlap_len(&mbr, axis)`, both axes.
    let ox = (ehx.min(x2) - elx.max(x1)).max(0.0);
    let oy = (ehy.min(y2) - ely.max(y1)).max(0.0);
    let w = x2 - x1;
    let h = y2 - y1;
    // The term can be non-zero only if the extended query intersects
    // the MBR, the count is non-zero, and every positive-extent axis
    // has positive overlap. No divisions are spent on proven zeros.
    let live = inter & (c != 0.0) & ((w <= 0.0) | (ox > 0.0)) & ((h <= 0.0) | (oy > 0.0));
    if live {
        // `axis_fraction` per axis, then the reference's product order.
        let fx = if w > 0.0 {
            (ox / w).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let fy = if h > 0.0 {
            (oy / h).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let t = c * fx * fy;
        if t != 0.0 {
            Term::Live {
                term: t,
                fraction: fx * fy,
            }
        } else if t.to_bits() == 0 {
            // The product underflowed (or clamped) to a zero the filter
            // could not prove; its bit pattern decides.
            Term::PosZero
        } else {
            Term::NegZero
        }
    } else if inter & (c < 0.0) {
        // Skipped term: `-0.0` iff the query reaches the MBR of a
        // negative-count bucket, `+0.0` in every other case (module docs,
        // step 3).
        Term::NegZero
    } else {
        Term::PosZero
    }
}

/// Reusable sparse term buffer for the block-pruned scan
/// ([`BucketPlane::accumulate_pruned`]): a dense per-bucket value slot plus
/// an id-space bitmask of which slots hold a term for the current query.
///
/// The scan visits buckets in Morton-mirror order but must fold them in
/// ascending bucket-id order to stay bit-identical to the reference. The
/// buffer makes that free: each non-zero term is scattered into its
/// bucket's slot and its id bit is set; the fold then walks the mask words
/// in ascending order, extracting set bits low-to-high — exactly ascending
/// id order, with no sort. Only the mask words are cleared per query
/// (`ceil(buckets / 64)` stores); value slots are gated by the mask and
/// never need clearing.
#[derive(Debug, Clone, Default)]
pub struct TermBuf {
    vals: Vec<f64>,
    mask: Vec<u64>,
}

impl TermBuf {
    /// Creates an empty buffer. Slots grow on first use per plane size and
    /// are then reused for every subsequent query.
    pub fn new() -> TermBuf {
        TermBuf::default()
    }

    /// Prepares the buffer for a plane of `n` buckets: grows the slots if
    /// needed and clears the mask words the fold will read. One spare
    /// value slot (id `n`) and one spare mask word absorb the branchless
    /// vector scatter's writes for pad and dead lanes; the fold never
    /// reads either.
    #[inline]
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.vals.len() < n + 1 {
            self.vals.resize(n + 1, 0.0);
            self.mask.resize(words + 1, 0);
        }
        for w in &mut self.mask[..words] {
            *w = 0;
        }
    }

    /// Records bucket `id`'s non-zero term.
    #[inline(always)]
    fn set(&mut self, id: usize, t: f64) {
        self.vals[id] = t;
        self.mask[id >> 6] |= 1u64 << (id & 63);
    }
}

/// Reusable per-caller scratch for the serving estimate
/// ([`crate::SpatialHistogram::estimate_count_indexed`]).
///
/// Holding the term buffer outside the histogram makes estimates
/// allocation-free once the scratch is warm, and lets many threads share
/// one immutable histogram with a scratch per worker.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    pub(crate) terms: TermBuf,
}

impl KernelScratch {
    /// Creates an empty scratch. Buffers grow on first use and are then
    /// reused for every subsequent estimate.
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }
}

/// One live bucket's contribution in a [`KernelExplain`] breakdown, in
/// ascending bucket-id order — the exact order the fold added it in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainTerm {
    /// Bucket id (index into the histogram's bucket array).
    pub bucket: u32,
    /// The bucket's (possibly fractional) rectangle count.
    pub count: f64,
    /// Extension amounts the rule added to the query half-extents for this
    /// bucket (`ExtensionRule::amounts`).
    pub ex: f64,
    /// See [`ExplainTerm::ex`].
    pub ey: f64,
    /// Diagnostic clipped fraction `fx * fy` — the share of the bucket's
    /// MBR the extended query covers, from the same `classify` call as
    /// [`ExplainTerm::term`]; the headline estimate never reads it.
    pub fraction: f64,
    /// The term value from `classify`, bit for bit. The headline estimate
    /// is the ordered fold of exactly these values (plus the zero-sign
    /// repair) and nothing else.
    pub term: f64,
}

/// Pruning statistics from one explained scan: how much of the two-level
/// Morton-mirror hierarchy the query actually visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Total 16-bucket blocks in the mirror.
    pub blocks: usize,
    /// Blocks rejected by the coarse union-MBR test (members never
    /// classified).
    pub blocks_pruned: usize,
    /// 4-bucket quads tested inside surviving blocks.
    pub quads_tested: usize,
    /// Quads rejected by the mid-level union-MBR test.
    pub quads_pruned: usize,
    /// Buckets that reached the scalar `classify` step.
    pub buckets_classified: usize,
}

/// The structured result of [`BucketPlane::accumulate_pruned_explained`]:
/// the estimate plus the evidence that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelExplain {
    /// The headline estimate — bit-identical to
    /// [`BucketPlane::accumulate_pruned`] for the same plane and query.
    pub estimate: f64,
    /// Live contributions in ascending bucket-id order (fold order).
    pub terms: Vec<ExplainTerm>,
    /// Whether any proven-`+0.0` term was skipped (the fold's zero-sign
    /// repair flag); exposed so [`KernelExplain::term_sum`] can replay the
    /// fold exactly.
    pub saw_pos_zero: bool,
    /// Block/quad pruning counters for this scan.
    pub prune: PruneStats,
}

impl KernelExplain {
    /// Re-folds the recorded terms exactly as the kernel did: ascending
    /// bucket-id order from a `-0.0` accumulator, then the `+0.0` repair
    /// iff a positive-zero term was skipped. Bit-identical to
    /// [`KernelExplain::estimate`] by construction — the differential suite
    /// pins it — so the breakdown provably *is* the estimate.
    pub fn term_sum(&self) -> f64 {
        let mut acc = -0.0f64;
        for t in &self.terms {
            acc += t.term;
        }
        if self.saw_pos_zero {
            acc + 0.0
        } else {
            acc
        }
    }
}

impl BucketPlane {
    /// Builds the plane for `buckets` under `rule`.
    pub fn build(buckets: &[Bucket], rule: ExtensionRule) -> BucketPlane {
        let n = buckets.len();
        // Padded level lengths: the mirror is padded to a whole quad, the
        // quads to a whole block's worth of quads, and the blocks to a
        // whole coarse vector, so the vector scan never needs a scalar
        // tail. Pads can never intersect a query; the scan masks them out
        // of the zero-sign flag with validity masks.
        let n4 = n.next_multiple_of(QUAD);
        let nb = n.div_ceil(BLOCK);

        // Morton mirror: gather the fold inputs in Z-order of the bucket
        // centres. The schedule over the MBRs keys on exactly those
        // centres; ties keep id order, so the mirror is deterministic.
        let mbrs: Vec<Rect> = buckets.iter().map(|b| b.mbr).collect();
        let mut morder = Vec::with_capacity(n4);
        morder.extend(crate::morton_schedule(&mbrs));
        let mut count = Vec::with_capacity(n4);
        let mut members = Summaries::with_capacity(n4);
        for &id in &morder {
            let b = &buckets[id as usize];
            let (ex, ey) = rule.amounts(b.avg_width, b.avg_height);
            members.push([b.mbr.lo.x, b.mbr.lo.y, b.mbr.hi.x, b.mbr.hi.y, ex, ey]);
            count.push(b.count);
        }
        // Mirror pads have a zero count and classify as dead lanes. Their
        // `morder` entries map to the term buffer's spare slot `n`, which
        // the fold never reads — the branchless scatter can then store
        // every lane unconditionally.
        morder.resize(n4, n as u32);
        count.resize(n4, 0.0);
        members.pad_to(n4);
        // The containment argument is level-agnostic — a quad's union
        // contains its members exactly as a block's contains its quads.
        BucketPlane {
            n,
            morder,
            count,
            quads: members.coarsen(n, QUAD, nb * (BLOCK / QUAD)),
            blocks: members.coarsen(n, BLOCK, nb.next_multiple_of(4)),
            members,
        }
    }

    /// The lowest-id bucket whose MBR contains `p`, with its Morton-mirror
    /// slot: `(id, slot)`, or `None` when no bucket contains `p` (a NaN
    /// coordinate included). The id is the one
    /// `buckets.iter().position(|b| b.mbr.contains_point(p))` returns, but
    /// found through the summaries: a block or quad whose union MBR misses
    /// `p` cannot hold a member that contains it (the union's `f64::min`
    /// and `max` keep every non-NaN member coordinate, and a NaN one fails
    /// the member's own test), so only the members of surviving quads are
    /// tested. Z-order is not id order, so every surviving member is
    /// tested and the lowest id wins, as the linear scan's first match
    /// does where MBRs share an edge.
    pub(crate) fn locate(&self, p: Point) -> Option<(usize, usize)> {
        let mut found: Option<(usize, usize)> = None;
        for b in 0..self.n.div_ceil(BLOCK) {
            if !self.blocks.holds(b, p) {
                continue;
            }
            // Quad pads are never-holding sentinels, like the block pads.
            for q in b * (BLOCK / QUAD)..(b + 1) * (BLOCK / QUAD) {
                if !self.quads.holds(q, p) {
                    continue;
                }
                for j in q * QUAD..((q + 1) * QUAD).min(self.n) {
                    let id = self.morder[j] as usize;
                    if self.members.holds(j, p) && found.is_none_or(|(best, _)| id < best) {
                        found = Some((id, j));
                    }
                }
            }
        }
        found
    }

    /// Rewrites the bucket at mirror slot `slot` (as
    /// [`BucketPlane::locate`] returns it) after an update that kept its
    /// MBR: its count and extension amounts, then the extension maxima of
    /// the one block and one quad holding it. The result equals
    /// [`BucketPlane::build`] of the updated buckets, column for column and
    /// bit for bit: the geometry, and with it the Z-order, is untouched,
    /// and the summaries are refolded by the same `Summaries::summarize`.
    /// O(1): the caller found the slot with the bucket, so the plane keeps
    /// no inverse permutation.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a bucket's slot of the plane.
    pub(crate) fn patch(&mut self, slot: usize, bucket: &Bucket, rule: ExtensionRule) {
        let n = self.n;
        assert!(slot < n, "mirror slot {slot} out of {n} buckets");
        self.count[slot] = bucket.count;
        (self.members.ex[slot], self.members.ey[slot]) =
            rule.amounts(bucket.avg_width, bucket.avg_height);
        for (level, width) in [(&mut self.blocks, BLOCK), (&mut self.quads, QUAD)] {
            let i = slot / width;
            let s = self.members.summarize(i * width..((i + 1) * width).min(n));
            (level.ex[i], level.ey[i]) = (s[4], s[5]);
        }
    }

    /// Number of buckets in the plane.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plane holds no buckets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes held by the plane's columns (capacity, not length —
    /// columns are built exactly-sized so the two coincide in practice):
    /// the Morton mirror, its id map, and both summary levels, padding
    /// included.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.count.capacity()
                + self.members.capacity()
                + self.quads.capacity()
                + self.blocks.capacity())
            + std::mem::size_of::<u32>() * self.morder.capacity()
    }

    /// Fold tail of the pruned scan: replays the collected non-zero terms
    /// in ascending bucket-id order — the order the strict reference fold
    /// adds them in — by walking the term buffer's bitmask words in
    /// ascending order and extracting set bits low-to-high, then applies
    /// the `-0.0`-identity correction for skipped `+0.0` terms. The mask
    /// *is* the order, so no sort happens on any path; cost is
    /// `ceil(buckets / 64)` word loads plus one add per surviving term.
    fn fold_masked(&self, buf: &TermBuf, saw_pos_zero: bool) -> f64 {
        let words = self.len().div_ceil(64);
        let mut acc = -0.0f64;
        for w in 0..words {
            let mut m = buf.mask[w];
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                acc += buf.vals[(w << 6) | bit];
            }
        }
        if saw_pos_zero {
            acc + 0.0
        } else {
            acc
        }
    }

    /// Block-pruned estimate over **all** buckets via the Morton mirror:
    /// bit-identical to the strict reference fold, sub-linear in the
    /// bucket count for selective queries, allocation-free once `buf` is
    /// warm.
    ///
    /// The scan visits members of surviving blocks in mirror order,
    /// scattering non-zero terms into the term buffer's per-bucket slots;
    /// `BucketPlane::fold_masked` then replays them in ascending id
    /// order straight off the buffer's bitmask. The term *values* are
    /// order-independent (each is a pure function of one bucket and the
    /// query), the zero-sign flag is a commutative OR, and the non-zero
    /// terms are added in exactly the reference order — so the scan order
    /// is free to follow the mirror while the result stays bit-identical.
    ///
    /// On x86_64 CPUs with AVX2 (detected once and cached by `std`) the
    /// block tests, quad tests and surviving terms run at vector width;
    /// planes under two blocks and every other host take
    /// [`BucketPlane::accumulate_pruned_scalar`], which the AVX2 body
    /// equals bit for bit.
    #[allow(unsafe_code)] // sanctioned: runtime-feature-guarded dispatch
    pub fn accumulate_pruned(&self, p: &QueryPrep, buf: &mut TermBuf) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if self.len() >= 2 * BLOCK && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 code path is only entered when the running
            // CPU reports AVX2 support.
            return unsafe { simd::accumulate_pruned_avx2(self, p, buf) };
        }
        self.accumulate_pruned_scalar(p, buf)
    }

    /// The portable block-pruned scan: the scalar walk with nothing
    /// recorded. It serves every host without AVX2 and is the bit
    /// reference the AVX2 body of [`BucketPlane::accumulate_pruned`] is
    /// pinned to.
    pub fn accumulate_pruned_scalar(&self, p: &QueryPrep, buf: &mut TermBuf) -> f64 {
        let saw_pos_zero = self.walk(p, buf, &mut ());
        self.fold_masked(buf, saw_pos_zero)
    }

    /// The block-pruned estimate with its evidence: the same scalar walk
    /// as [`BucketPlane::accumulate_pruned_scalar`],
    /// recording what each level discards and every live term. The
    /// headline estimate is therefore bit-identical to the serving path by
    /// construction, not by re-derivation.
    pub fn accumulate_pruned_explained(&self, p: &QueryPrep, buf: &mut TermBuf) -> KernelExplain {
        let mut ev = Evidence {
            plane: self,
            prune: PruneStats {
                blocks: self.n.div_ceil(BLOCK),
                ..PruneStats::default()
            },
            terms: Vec::new(),
        };
        let saw_pos_zero = self.walk(p, buf, &mut ev);
        // The walk visits mirror order; report fold order.
        ev.terms.sort_unstable_by_key(|t| t.bucket);
        KernelExplain {
            estimate: self.fold_masked(buf, saw_pos_zero),
            terms: ev.terms,
            saw_pos_zero,
            prune: ev.prune,
        }
    }

    /// The scalar block → quad → member walk: a block test, a quad test
    /// per member quad of a surviving block, then `classify` per member of
    /// a surviving quad, each outcome offered to `rec`. A non-zero term is
    /// scattered into its bucket's slot of `buf` (the fold later replays
    /// the slots in ascending id order straight off the bitmask). Returns
    /// whether a `+0.0` term was skipped: blocks and quads are never
    /// empty, so a pruned one skipped at least one.
    #[inline(always)]
    fn walk<R: Recorder>(&self, p: &QueryPrep, buf: &mut TermBuf, rec: &mut R) -> bool {
        buf.reset(self.len());
        let n = self.len();
        let nq = n.div_ceil(QUAD);
        let mut saw_pos_zero = false;
        for b in 0..n.div_ceil(BLOCK) {
            let pruned = self.blocks.misses(b, p);
            rec.block(pruned);
            if pruned {
                saw_pos_zero = true;
                continue;
            }
            // Each quad's union rectangle is tested before its members
            // classify, so a block clipped by the query edge only pays for
            // the quads the query reaches.
            for q in b * (BLOCK / QUAD)..((b + 1) * (BLOCK / QUAD)).min(nq) {
                let pruned = self.quads.misses(q, p);
                rec.quad(pruned);
                if pruned {
                    saw_pos_zero = true;
                    continue;
                }
                for j in q * QUAD..((q + 1) * QUAD).min(n) {
                    let term = classify(&self.members, j, self.count[j], p);
                    rec.classified(j, term);
                    match term {
                        Term::Live { term, .. } => buf.set(self.morder[j] as usize, term),
                        Term::PosZero => saw_pos_zero = true,
                        Term::NegZero => {}
                    }
                }
            }
        }
        saw_pos_zero
    }
}

/// What [`BucketPlane::walk`] reports as it goes: nothing when serving
/// (`()`, whose calls compile away), the pruning counters and live terms
/// for EXPLAIN ([`Evidence`]).
trait Recorder {
    fn block(&mut self, _pruned: bool) {}
    fn quad(&mut self, _pruned: bool) {}
    fn classified(&mut self, _j: usize, _term: Term) {}
}

impl Recorder for () {}

/// The evidence of one explained walk.
struct Evidence<'a> {
    plane: &'a BucketPlane,
    prune: PruneStats,
    terms: Vec<ExplainTerm>,
}

impl Recorder for Evidence<'_> {
    fn block(&mut self, pruned: bool) {
        self.prune.blocks_pruned += usize::from(pruned);
    }

    fn quad(&mut self, pruned: bool) {
        self.prune.quads_tested += 1;
        self.prune.quads_pruned += usize::from(pruned);
    }

    fn classified(&mut self, j: usize, term: Term) {
        self.prune.buckets_classified += 1;
        if let Term::Live { term, fraction } = term {
            let plane = self.plane;
            self.terms.push(ExplainTerm {
                bucket: plane.morder[j],
                count: plane.count[j],
                ex: plane.members.ex[j],
                ey: plane.members.ey[j],
                fraction,
                term,
            });
        }
    }
}

/// Which body of [`BucketPlane::accumulate_pruned`] serves on this host
/// from two blocks on: `"avx2"` or the portable `"scalar"` scan. Recorded
/// in BENCH_estimate.json so committed numbers say what actually ran.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}

/// The AVX2 body of the block-pruned scan. The coarse vectors only
/// decide *which* blocks and quads can contribute; surviving members are
/// classified per lane in the scalar operation order (see
/// `scan_block_avx2`), so bit-identity with
/// [`BucketPlane::accumulate_pruned_scalar`] is structural, not numerical
/// luck. The per-lane compare semantics
/// agree with the scalar filter on every input the plane can hold (finite
/// MBRs; NaN counts and extension amounts behave identically — see the
/// module docs).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use core::arch::x86_64::*;

    use super::{BucketPlane, QueryPrep, Summaries, TermBuf};

    /// Per-query vector broadcasts shared by every AVX2 scan level, built
    /// once per [`accumulate_pruned_avx2`] call.
    #[derive(Clone, Copy)]
    struct QBcast {
        zero: __m256d,
        one: __m256d,
        cx: __m256d,
        cy: __m256d,
        hw: __m256d,
        hh: __m256d,
    }

    /// `extended.intersects(union)` over four summary rectangles at once —
    /// the shared block- and quad-level gate.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2 and that
    /// `i + 4` is within the level's length.
    #[target_feature(enable = "avx2")]
    unsafe fn inter4_avx2(level: &Summaries, i: usize, bc: &QBcast) -> i32 {
        // SAFETY: bounds guaranteed by the caller.
        unsafe {
            let ex = _mm256_loadu_pd(level.ex.as_ptr().add(i));
            let ey = _mm256_loadu_pd(level.ey.as_ptr().add(i));
            let x1 = _mm256_loadu_pd(level.x1.as_ptr().add(i));
            let x2 = _mm256_loadu_pd(level.x2.as_ptr().add(i));
            let y1 = _mm256_loadu_pd(level.y1.as_ptr().add(i));
            let y2 = _mm256_loadu_pd(level.y2.as_ptr().add(i));
            let hw = _mm256_max_pd(_mm256_add_pd(bc.hw, ex), bc.zero);
            let hh = _mm256_max_pd(_mm256_add_pd(bc.hh, ey), bc.zero);
            let inter = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_sub_pd(bc.cx, hw), x2),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(x1, _mm256_add_pd(bc.cx, hw)),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_sub_pd(bc.cy, hh), y2),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(y1, _mm256_add_pd(bc.cy, hh)),
                ),
            );
            _mm256_movemask_pd(inter)
        }
    }

    /// Scan of one surviving block: a quad-level [`inter4_avx2`] gate
    /// drops the members of quads the query provably misses, then each
    /// surviving quad computes all four member *terms* at vector width.
    /// Quad and mirror columns are padded, so every load is full-width;
    /// validity masks keep pad lanes (which are dead by construction) out
    /// of the zero-sign flag.
    ///
    /// The per-lane operations mirror the scalar classification exactly:
    /// same operand order for every add/sub/min/max (the packed
    /// instructions return the second operand on ties and NaNs, just like
    /// their scalar twins here, and for a *live* lane every ordered
    /// compare that passed proves its operands non-NaN), divisions are
    /// true IEEE `divpd`, the clamp is blend-based so a NaN quotient
    /// survives like `f64::clamp`'s, and the `w > 0` / `h > 0` selects
    /// blend exactly where the scalar branches. A `±0.0` ambiguity cannot
    /// reach a computed term: a live lane with `w > 0` has strictly
    /// positive overlap, so the clamp input is never a signed zero. Live
    /// lanes are extracted in ascending lane order, preserving the mirror
    /// scan order; zero terms and dead lanes fold into the flag straight
    /// from the compare masks.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_block_avx2(
        plane: &BucketPlane,
        blk: usize,
        bc: &QBcast,
        buf: &mut TermBuf,
        saw_pos_zero: &mut bool,
    ) {
        let n = plane.len();
        let nq = n.div_ceil(super::QUAD);
        let q0 = blk * (super::BLOCK / super::QUAD);
        // Validity mask over the block's quad window: the last real block
        // may own fewer than four quads; the padded columns make the load
        // safe and the mask keeps pad quads out of the flag.
        let qvm = if q0 + 4 <= nq {
            0b1111
        } else {
            (1i32 << (nq - q0)) - 1
        };
        // SAFETY: quad columns are padded to a whole block window
        // (`nblocks * 4` summaries), so `q0 + 4` is in bounds.
        let qb = unsafe { inter4_avx2(&plane.quads, q0, bc) } & qvm;
        // A pruned quad skips only proven `+0.0` terms (quads are never
        // empty).
        *saw_pos_zero |= qb != qvm;
        let mut qbits = qb as u32;
        let mut tbuf = [0.0f64; 4];
        while qbits != 0 {
            let lane = qbits.trailing_zeros() as usize;
            qbits &= qbits - 1;
            let j = (q0 + lane) * super::QUAD;
            // Validity mask over the quad's members (the last real quad
            // may be ragged); pad lanes classify dead and are masked out
            // of the flag below.
            let vm = if j + 4 <= n {
                0b1111
            } else {
                (1i32 << (n - j)) - 1
            };
            // SAFETY: mirror columns are padded to a multiple of QUAD, so
            // `j + 4` is within them even on the ragged tail.
            let (live_bits, neg_bits, push_bits, posz_bits) = unsafe {
                let m = &plane.members;
                let ex = _mm256_loadu_pd(m.ex.as_ptr().add(j));
                let ey = _mm256_loadu_pd(m.ey.as_ptr().add(j));
                let x1 = _mm256_loadu_pd(m.x1.as_ptr().add(j));
                let x2 = _mm256_loadu_pd(m.x2.as_ptr().add(j));
                let y1 = _mm256_loadu_pd(m.y1.as_ptr().add(j));
                let y2 = _mm256_loadu_pd(m.y2.as_ptr().add(j));
                let c = _mm256_loadu_pd(plane.count.as_ptr().add(j));
                let hw = _mm256_max_pd(_mm256_add_pd(bc.hw, ex), bc.zero);
                let hh = _mm256_max_pd(_mm256_add_pd(bc.hh, ey), bc.zero);
                let elx = _mm256_sub_pd(bc.cx, hw);
                let ehx = _mm256_add_pd(bc.cx, hw);
                let ely = _mm256_sub_pd(bc.cy, hh);
                let ehy = _mm256_add_pd(bc.cy, hh);
                let inter = _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_LE_OQ>(elx, x2),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(x1, ehx),
                    ),
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_LE_OQ>(ely, y2),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(y1, ehy),
                    ),
                );
                let ox = _mm256_max_pd(
                    _mm256_sub_pd(_mm256_min_pd(ehx, x2), _mm256_max_pd(elx, x1)),
                    bc.zero,
                );
                let oy = _mm256_max_pd(
                    _mm256_sub_pd(_mm256_min_pd(ehy, y2), _mm256_max_pd(ely, y1)),
                    bc.zero,
                );
                let w = _mm256_sub_pd(x2, x1);
                let h = _mm256_sub_pd(y2, y1);
                let wpos = _mm256_cmp_pd::<_CMP_GT_OQ>(w, bc.zero);
                let hpos = _mm256_cmp_pd::<_CMP_GT_OQ>(h, bc.zero);
                let live = _mm256_and_pd(
                    _mm256_and_pd(inter, _mm256_cmp_pd::<_CMP_NEQ_UQ>(c, bc.zero)),
                    _mm256_and_pd(
                        _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(w, bc.zero),
                            _mm256_cmp_pd::<_CMP_GT_OQ>(ox, bc.zero),
                        ),
                        _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(h, bc.zero),
                            _mm256_cmp_pd::<_CMP_GT_OQ>(oy, bc.zero),
                        ),
                    ),
                );
                let neg = _mm256_and_pd(inter, _mm256_cmp_pd::<_CMP_LT_OQ>(c, bc.zero));
                let live_bits = _mm256_movemask_pd(live);
                let (mut push_bits, mut posz_bits) = (0, 0);
                if live_bits != 0 {
                    // `(ox / w).clamp(0.0, 1.0)` with the scalar's exact
                    // semantics: compare-and-blend keeps a NaN quotient,
                    // and `w > 0` selects the division only where the
                    // scalar would take that branch.
                    let qx = _mm256_div_pd(ox, w);
                    let qx =
                        _mm256_blendv_pd(qx, bc.zero, _mm256_cmp_pd::<_CMP_LT_OQ>(qx, bc.zero));
                    let qx = _mm256_blendv_pd(qx, bc.one, _mm256_cmp_pd::<_CMP_GT_OQ>(qx, bc.one));
                    let fx = _mm256_blendv_pd(bc.one, qx, wpos);
                    let qy = _mm256_div_pd(oy, h);
                    let qy =
                        _mm256_blendv_pd(qy, bc.zero, _mm256_cmp_pd::<_CMP_LT_OQ>(qy, bc.zero));
                    let qy = _mm256_blendv_pd(qy, bc.one, _mm256_cmp_pd::<_CMP_GT_OQ>(qy, bc.one));
                    let fy = _mm256_blendv_pd(bc.one, qy, hpos);
                    // The reference's product order: `(c * fx) * fy`.
                    let t = _mm256_mul_pd(_mm256_mul_pd(c, fx), fy);
                    _mm256_storeu_pd(tbuf.as_mut_ptr(), t);
                    // `t != 0.0` is unordered-NEQ: a NaN term is pushed
                    // (EQ_OQ is false for NaN), matching the scalar. A
                    // live zero term was a `+0.0` iff its sign bit is
                    // clear — `movemask` reads exactly those bits.
                    let tz_bits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(t, bc.zero));
                    push_bits = live_bits & !tz_bits;
                    posz_bits = live_bits & tz_bits & !_mm256_movemask_pd(t);
                }
                (live_bits, _mm256_movemask_pd(neg), push_bits, posz_bits)
            };
            // Dead lanes skip a `+0.0` term unless they are intersecting
            // negative-count buckets (module docs, step 3); live zero
            // terms contribute their computed sign. Pad lanes are masked
            // out — their skipped "terms" do not exist.
            *saw_pos_zero |= (((!live_bits & !neg_bits) | posz_bits) & vm) != 0;
            // Branchless scatter: every lane stores its term and ORs its
            // push bit into the mask, so the unpredictable push pattern
            // never feeds a branch. Non-push lanes OR a zero bit (a
            // no-op) and store to a slot the mask does not expose — each
            // bucket id is visited exactly once per query (the mirror is
            // a permutation), so the store cannot clobber a real term,
            // and pad lanes map to the buffer's spare slot.
            let pb = push_bits as u64;
            for (lane, &t) in tbuf.iter().enumerate() {
                // SAFETY: `morder` is padded to the mirror length, ids
                // are at most `n`, and the buffer holds `n + 1` value
                // slots plus a spare mask word (see `TermBuf::reset`).
                unsafe {
                    let id = *plane.morder.get_unchecked(j + lane) as usize;
                    *buf.vals.get_unchecked_mut(id) = t;
                    *buf.mask.get_unchecked_mut(id >> 6) |= ((pb >> lane) & 1) << (id & 63);
                }
            }
        }
    }

    /// AVX2 block-pruned scan: four coarse block tests per compare, then
    /// [`scan_block_avx2`] in each surviving block. Its terms and flag
    /// equal the scalar scan's bit for bit.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_pruned_avx2(
        plane: &BucketPlane,
        p: &QueryPrep,
        buf: &mut TermBuf,
    ) -> f64 {
        buf.reset(plane.len());
        let nb = plane.len().div_ceil(super::BLOCK);
        let mut saw_pos_zero = false;
        let bc = QBcast {
            zero: _mm256_setzero_pd(),
            one: _mm256_set1_pd(1.0),
            cx: _mm256_set1_pd(p.cx),
            cy: _mm256_set1_pd(p.cy),
            hw: _mm256_set1_pd(p.hw),
            hh: _mm256_set1_pd(p.hh),
        };
        let mut b = 0usize;
        while b < nb {
            // Validity mask over real blocks in this coarse vector; the
            // padded block columns make the final load safe.
            let vm = if b + 4 <= nb {
                0b1111
            } else {
                (1i32 << (nb - b)) - 1
            };
            // SAFETY: block columns are padded to a multiple of four
            // summaries, so `b + 4` is in bounds even on the ragged tail.
            let bbits = unsafe { inter4_avx2(&plane.blocks, b, &bc) } & vm;
            // A pruned block skips only proven `+0.0` terms, and blocks
            // are never empty; pad blocks are masked out.
            saw_pos_zero |= bbits != vm;
            let mut ib = bbits as u32;
            while ib != 0 {
                let lane = ib.trailing_zeros() as usize;
                ib &= ib - 1;
                // SAFETY: same AVX2 witness as this function.
                unsafe {
                    scan_block_avx2(plane, b + lane, &bc, buf, &mut saw_pos_zero);
                }
            }
            b += 4;
        }
        plane.fold_masked(buf, saw_pos_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Point;

    fn reference(buckets: &[Bucket], rule: ExtensionRule, q: &Rect) -> f64 {
        let amounts: Vec<(f64, f64)> = buckets
            .iter()
            .map(|b| rule.amounts(b.avg_width, b.avg_height))
            .collect();
        buckets
            .iter()
            .zip(&amounts)
            .map(|(b, &(ex, ey))| b.estimate_with_extension(q, ex, ey))
            .sum()
    }

    fn bucket(x1: f64, y1: f64, x2: f64, y2: f64, count: f64, aw: f64, ah: f64) -> Bucket {
        Bucket {
            mbr: Rect::new(x1, y1, x2, y2),
            count,
            avg_width: aw,
            avg_height: ah,
        }
    }

    fn grid(side: usize) -> Vec<Bucket> {
        let mut out = Vec::new();
        for iy in 0..side {
            for ix in 0..side {
                let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                out.push(bucket(
                    x,
                    y,
                    x + 10.0,
                    y + 10.0,
                    (ix * side + iy) as f64,
                    0.5,
                    1.5,
                ));
            }
        }
        out
    }

    fn queries() -> Vec<Rect> {
        vec![
            Rect::new(-500.0, -500.0, -400.0, -400.0),
            Rect::new(-10.0, -10.0, 200.0, 200.0),
            Rect::new(33.0, 41.0, 47.0, 55.0),
            Rect::new(9.9, 4.0, 10.1, 6.0),
            Rect::new(10.0, 0.0, 10.0, 80.0),
            Rect::from_point(Point::new(40.0, 40.0)),
            Rect::from_point(Point::new(-1.0, -1.0)),
            Rect::new(0.0, 0.0, 0.0, 80.0),
        ]
    }

    #[test]
    fn accumulate_matches_reference_bits() {
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            for side in [1usize, 2, 3, 5, 8, 16] {
                let buckets = grid(side);
                let plane = BucketPlane::build(&buckets, rule);
                let mut terms = TermBuf::new();
                for q in queries() {
                    let p = QueryPrep::new(&q);
                    assert_eq!(
                        plane.accumulate_pruned(&p, &mut terms).to_bits(),
                        reference(&buckets, rule, &q).to_bits(),
                        "rule={rule:?} side={side} q={q}"
                    );
                }
            }
        }
    }

    /// Zero counts, a -0.0 count, point/segment MBRs, NaN extension
    /// amounts, negative counts (unreachable via builders but handled),
    /// and tiny counts that can underflow the product — repeated five
    /// times, so the 35 buckets reach past the SIMD bodies' 32-bucket
    /// cutoff and their vector lanes see every case.
    fn adversarial_buckets() -> Vec<Bucket> {
        let base = [
            bucket(0.0, 0.0, 10.0, 10.0, 0.0, 1.0, 1.0),
            bucket(0.0, 0.0, 4.0, 4.0, -0.0, 1.0, 1.0),
            bucket(5.0, 0.0, 5.0, 10.0, 40.0, 0.0, 0.0),
            bucket(1.0, 1.0, 1.0, 1.0, 7.0, 0.0, 0.0),
            bucket(2.0, 2.0, 8.0, 8.0, 9.0, f64::NAN, 1.0),
            bucket(0.0, 0.0, 1.0, 1.0, -3.0, 0.1, 0.1),
            bucket(0.0, 0.0, 1e300, 1e300, 5e-324, 0.0, 0.0),
        ];
        (0..5).flat_map(|_| base).collect()
    }

    fn adversarial_queries() -> [Rect; 7] {
        [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(100.0, 100.0, 110.0, 110.0),
            Rect::new(4.0, 0.0, 6.0, 3.0),
            Rect::new(6.0, 0.0, 8.0, 10.0),
            Rect::from_point(Point::new(5.0, 5.0)),
            Rect::new(1.0, 1.0, 1.0, 1.0),
            Rect::new(10.0, 0.0, 12.0, 10.0),
        ]
    }

    #[test]
    fn accumulate_pruned_matches_scalar_scan() {
        // The dispatched scan (AVX2 from 32 buckets on, where the CPU has
        // it) against the portable scan it must equal bit for bit. The grid
        // sides straddle the cutoff (25 and 36 buckets) and leave ragged
        // last blocks and quads (36, 1089).
        let mut cases: Vec<(Vec<Bucket>, Vec<Rect>)> = [5usize, 6, 8, 16, 33]
            .iter()
            .map(|&side| (grid(side), queries()))
            .collect();
        cases.push((adversarial_buckets(), adversarial_queries().to_vec()));
        let (mut got_buf, mut want_buf) = (TermBuf::new(), TermBuf::new());
        for (buckets, qs) in &cases {
            for rule in [
                ExtensionRule::Minkowski,
                ExtensionRule::PaperLiteral,
                ExtensionRule::None,
            ] {
                let plane = BucketPlane::build(buckets, rule);
                for q in qs {
                    let p = QueryPrep::new(q);
                    assert_eq!(
                        plane.accumulate_pruned(&p, &mut got_buf).to_bits(),
                        plane.accumulate_pruned_scalar(&p, &mut want_buf).to_bits(),
                        "n={} rule={rule:?} q={q}",
                        buckets.len()
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_and_adversarial_buckets_match_reference() {
        let buckets = adversarial_buckets();
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            let plane = BucketPlane::build(&buckets, rule);
            let mut terms = TermBuf::new();
            for q in adversarial_queries() {
                let p = QueryPrep::new(&q);
                let got = plane.accumulate_pruned(&p, &mut terms);
                let want = reference(&buckets, rule, &q);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "rule={rule:?} q={q} got={got} want={want}"
                );
            }
        }
    }

    #[test]
    fn empty_plane_returns_fold_identity() {
        let plane = BucketPlane::build(&[], ExtensionRule::Minkowski);
        let p = QueryPrep::new(&Rect::new(0.0, 0.0, 1.0, 1.0));
        // The reference fold over zero terms is Rust's `-0.0` identity.
        let mut terms = TermBuf::new();
        assert_eq!(
            plane.accumulate_pruned(&p, &mut terms).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn morton_mirror_is_a_permutation_with_consistent_blocks() {
        let buckets = grid(7); // 49 buckets: a ragged final block and quad
        let n = buckets.len();
        let plane = BucketPlane::build(&buckets, ExtensionRule::Minkowski);
        let mut seen = vec![false; n];
        for &id in &plane.morder[..n] {
            assert!(!std::mem::replace(&mut seen[id as usize], true));
        }
        assert!(seen.iter().all(|&s| s));
        // Pads: sentinel ids out to a whole quad, block summaries out to
        // a whole coarse vector.
        assert_eq!(plane.morder.len(), n.next_multiple_of(4));
        assert!(plane.morder[n..].iter().all(|&id| id as usize == n));
        let (blocks, members) = (&plane.blocks, &plane.members);
        assert_eq!(blocks.x1.len(), n.div_ceil(16));
        for (j, &id) in plane.morder[..n].iter().enumerate() {
            let b = j / 16;
            let m = &buckets[id as usize].mbr;
            assert!(blocks.x1[b] <= m.lo.x && m.hi.x <= blocks.x2[b]);
            assert!(blocks.y1[b] <= m.lo.y && m.hi.y <= blocks.y2[b]);
            assert!(blocks.ex[b] >= members.ex[j] && blocks.ey[b] >= members.ey[j]);
        }
    }

    /// Every column of the plane, in declaration order.
    fn columns(p: &BucketPlane) -> Vec<&[f64]> {
        let mut out: Vec<&[f64]> = vec![&p.count];
        for l in [&p.members, &p.quads, &p.blocks] {
            out.extend([&l.x1[..], &l.y1, &l.x2, &l.y2, &l.ex, &l.ey]);
        }
        out
    }

    fn assert_planes_bit_equal(got: &BucketPlane, want: &BucketPlane, ctx: &str) {
        assert_eq!(got.n, want.n, "{ctx}: n");
        assert_eq!(got.morder, want.morder, "{ctx}: morder");
        for (c, (g, w)) in columns(got).iter().zip(columns(want)).enumerate() {
            let g: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
            let w: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(g, w, "{ctx}: column {c}");
        }
    }

    #[test]
    fn patched_plane_equals_rebuilt_plane_bits() {
        // 49 buckets: a ragged last block and quad. Random one-bucket
        // inserts and deletes, with the running-average and saturating
        // arithmetic of `note_insert`/`note_delete`; some buckets start
        // fractional so deletes drain them to exactly 0.0. A stale block
        // or quad maximum only weakens pruning, so estimate-only suites
        // cannot see it; comparing the columns can.
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            let mut buckets = grid(7);
            buckets[48].count = 0.5;
            buckets[3].count = 1.25;
            let mut plane = BucketPlane::build(&buckets, rule);
            let mut drained = false;
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 33
            };
            for step in 0..2_000 {
                let id = match step % 5 {
                    0 => 48,
                    1 => 3,
                    _ => next() as usize % buckets.len(),
                };
                let b = &mut buckets[id];
                if next() % 3 == 0 {
                    let (w, h) = ((next() % 50) as f64 / 7.0, (next() % 50) as f64 / 3.0);
                    let n = b.count;
                    b.avg_width = (b.avg_width * n + w) / (n + 1.0);
                    b.avg_height = (b.avg_height * n + h) / (n + 1.0);
                    b.count = n + 1.0;
                } else {
                    let before = b.count;
                    b.count -= b.count.clamp(0.0, 1.0);
                    drained |= before > 0.0 && before < 1.0 && b.count.to_bits() == 0;
                }
                let slot = plane.morder.iter().position(|&m| m as usize == id);
                plane.patch(slot.expect("a bucket's slot"), &buckets[id], rule);
                let ctx = format!("rule={rule:?} step={step}");
                assert_planes_bit_equal(&plane, &BucketPlane::build(&buckets, rule), &ctx);
            }
            assert!(
                drained,
                "rule={rule:?}: no fractional bucket drained to 0.0"
            );
        }
    }

    /// Every bucket's corners, edge midpoints and centre (shared edges and
    /// corners included, where the lowest id must win), seeded points in
    /// and around the buckets' extent, and NaN coordinates: `locate` must
    /// name the bucket the linear scan finds first, and that bucket's
    /// mirror slot.
    fn assert_locate_matches_linear_scan(buckets: &[Bucket], ctx: &str) {
        let plane = BucketPlane::build(buckets, ExtensionRule::Minkowski);
        let mut points = vec![
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::NAN, 0.0),
            Point::new(0.0, f64::NAN),
        ];
        for b in buckets {
            let (lo, hi, c) = (b.mbr.lo, b.mbr.hi, b.mbr.center());
            for x in [lo.x, c.x, hi.x] {
                for y in [lo.y, c.y, hi.y] {
                    points.push(Point::new(x, y));
                }
            }
        }
        let finite = buckets.iter().map(|b| b.mbr).filter(|r| {
            [r.lo.x, r.lo.y, r.hi.x, r.hi.y]
                .iter()
                .all(|v| v.abs() < 1e12)
        });
        let extent = finite.reduce(|a, b| a.union(&b)).expect("a finite bucket");
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // A tenth of the extent's size past each edge, so about a third
        // of the points fall outside it.
        let (w, h) = (extent.width(), extent.height());
        for _ in 0..2_000 {
            points.push(Point::new(
                extent.lo.x - 0.1 * w + 1.2 * w * unit(),
                extent.lo.y - 0.1 * h + 1.2 * h * unit(),
            ));
        }
        for p in points {
            let want = buckets.iter().position(|b| b.mbr.contains_point(p));
            let got = plane.locate(p);
            assert_eq!(got.map(|(id, _)| id), want, "{ctx}: p={p:?}");
            if let Some((id, slot)) = got {
                assert_eq!(plane.morder[slot] as usize, id, "{ctx}: slot of {id}");
            }
        }
    }

    #[test]
    fn locate_matches_the_linear_scan() {
        assert_locate_matches_linear_scan(&adversarial_buckets(), "adversarial");
        assert_locate_matches_linear_scan(&grid(7), "grid");
        let road = minskew_datagen::RoadNetworkSpec {
            segments: 60_000,
            ..Default::default()
        }
        .generate(1999);
        // The build `tests/golden_large_build.rs` pins: 970 buckets of a
        // budget of 1000.
        let hist = crate::MinSkewBuilder::new(1_000).build(&road);
        assert!(hist.num_buckets() > 900, "{} buckets", hist.num_buckets());
        assert_locate_matches_linear_scan(hist.buckets(), "road");
    }

    /// `PruneStats` recounted from the buckets in `morder` order: the union
    /// MBR and extension maxima per `BLOCK` and per `QUAD` members, and the
    /// reference's extended-query test against them.
    fn brute_prune_stats(
        buckets: &[Bucket],
        rule: ExtensionRule,
        plane: &BucketPlane,
        q: &Rect,
    ) -> PruneStats {
        let n = buckets.len();
        let misses = |range: Range<usize>| {
            let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
            let mut mbr = Rect {
                lo: Point::new(inf, inf),
                hi: Point::new(ninf, ninf),
            };
            let (mut ex, mut ey) = (ninf, ninf);
            for &id in &plane.morder[range] {
                let b = &buckets[id as usize];
                let (bex, bey) = rule.amounts(b.avg_width, b.avg_height);
                mbr = mbr.union(&b.mbr);
                (ex, ey) = (ex.max(bex), ey.max(bey));
            }
            !q.expanded(ex, ey).intersects(&mbr)
        };
        let mut want = PruneStats {
            blocks: n.div_ceil(BLOCK),
            ..PruneStats::default()
        };
        for b in 0..want.blocks {
            if misses(b * BLOCK..((b + 1) * BLOCK).min(n)) {
                want.blocks_pruned += 1;
                continue;
            }
            for q in b * (BLOCK / QUAD)..((b + 1) * (BLOCK / QUAD)).min(n.div_ceil(QUAD)) {
                want.quads_tested += 1;
                let members = q * QUAD..((q + 1) * QUAD).min(n);
                if misses(members.clone()) {
                    want.quads_pruned += 1;
                } else {
                    want.buckets_classified += members.len();
                }
            }
        }
        want
    }

    #[test]
    fn prune_stats_equal_a_brute_force_count() {
        let mut cases: Vec<(Vec<Bucket>, Vec<Rect>)> = [1usize, 2, 3, 5, 6, 8, 16, 33]
            .iter()
            .map(|&side| (grid(side), queries()))
            .collect();
        cases.push((adversarial_buckets(), adversarial_queries().to_vec()));
        let mut buf = TermBuf::new();
        let mut total = PruneStats::default();
        for (buckets, qs) in &cases {
            for rule in [
                ExtensionRule::Minkowski,
                ExtensionRule::PaperLiteral,
                ExtensionRule::None,
            ] {
                let plane = BucketPlane::build(buckets, rule);
                for q in qs {
                    let got = plane
                        .accumulate_pruned_explained(&QueryPrep::new(q), &mut buf)
                        .prune;
                    let want = brute_prune_stats(buckets, rule, &plane, q);
                    assert_eq!(got, want, "n={} rule={rule:?} q={q}", buckets.len());
                    total.blocks_pruned += got.blocks_pruned;
                    total.quads_pruned += got.quads_pruned;
                    total.buckets_classified += got.buckets_classified;
                }
            }
        }
        // Every level both prunes and passes somewhere in the matrix.
        assert!(total.blocks_pruned > 0 && total.quads_pruned > 0 && total.buckets_classified > 0);
    }

    #[test]
    fn size_bytes_counts_all_columns() {
        // 16 buckets: 7 mirror f64 columns, one u32 id column, one block
        // summary padded to a coarse vector of four, and four quad
        // summaries (6 f64 each).
        let plane = BucketPlane::build(&grid(4), ExtensionRule::Minkowski);
        assert_eq!(
            plane.size_bytes(),
            16 * 7 * 8 + 16 * 4 + 4 * 6 * 8 + 4 * 6 * 8
        );
    }
}
