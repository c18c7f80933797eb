//! The structure-of-arrays clip-and-accumulate kernel behind the serving
//! hot path.
//!
//! # Why a kernel plane
//!
//! The reference estimator folds [`Bucket::estimate_with_extension`] over an
//! AoS `Vec<Bucket>`: every bucket costs two early-exit branches, a `Rect`
//! construction, and scattered loads across a 56-byte struct.
//! [`BucketPlane`] stores the same nine per-bucket words
//! (`x1/y1/x2/y2/count/avg_w/avg_h/ex/ey`) as separate contiguous `f64`
//! slices so the clip-and-accumulate loop streams cache lines instead of
//! striding structs, and rewrites the loop in a branchless
//! min/max/clamp-to-zero form that LLVM can autovectorize.
//!
//! # The bit-identity contract
//!
//! Every accumulation in this module is **bit-identical** to the reference
//! AoS fold (`buckets.iter().map(estimate_with_extension).sum::<f64>()`,
//! which folds from Rust's `f64` additive identity `-0.0`). That is what
//! lets the kernel serve underneath every existing differential contract
//! (serving, parallel, trace, wire-protocol goldens) without moving a
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
//! With the `simd` cargo feature on x86_64, the filter of step 3 runs four
//! (AVX2, runtime-detected) or two (SSE2 baseline) buckets per iteration
//! with `core::arch` compares; vectors with no surviving lane short-circuit
//! in a few cycles, and surviving lanes re-run the *scalar* step in lane
//! order, so the fold order and every surviving term are untouched —
//! bit-identity holds by construction, and `tests/kernel_differential.rs`
//! pins it. Per-lane min/max/compare semantics only feed the boolean
//! filter, where `-0.0 == +0.0` and the NaN behaviours above agree between
//! the scalar and vector forms.

use minskew_geom::Rect;

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
/// Built lazily by [`crate::SpatialHistogram`] and invalidated with its
/// other derived caches (any bucket mutation or rule change drops it). All
/// fine columns have identical length and are in bucket-id order, so
/// [`BucketPlane::accumulate`] streams them in exactly the reference fold
/// order.
///
/// The plane additionally keeps a **Morton mirror** for the pruned serving
/// path ([`BucketPlane::accumulate_pruned`]): the fold columns permuted
/// into Z-order of the bucket centres (`morder` maps mirror position →
/// bucket id), plus one coarse **block summary** per [`BLOCK`] consecutive
/// mirror positions — the union of the members' MBRs and the maxima of
/// their extension amounts. Z-order makes a block's members spatial
/// neighbours, so a selective query prunes almost every block with one
/// rectangle test. IEEE-754 add/sub/max are monotone, so the query
/// extended by the block maxima contains every member's extended query: a
/// failed block test proves every member's term is exactly `+0.0`.
#[derive(Debug, Clone, Default)]
pub struct BucketPlane {
    x1: Vec<f64>,
    y1: Vec<f64>,
    x2: Vec<f64>,
    y2: Vec<f64>,
    count: Vec<f64>,
    avg_w: Vec<f64>,
    avg_h: Vec<f64>,
    /// Per-bucket extension amounts, `rule.amounts(avg_w, avg_h)` — the
    /// same values [`crate::SpatialHistogram`] caches in its extension
    /// table, so using them is bit-identical to re-deriving them.
    ex: Vec<f64>,
    ey: Vec<f64>,
    /// Morton mirror: bucket id at each mirror position (a permutation of
    /// `0..len` in Z-order of bucket centres, padded to a whole quad with
    /// the sentinel id `len`), and the seven fold inputs gathered in that
    /// order.
    morder: Vec<u32>,
    mx1: Vec<f64>,
    my1: Vec<f64>,
    mx2: Vec<f64>,
    my2: Vec<f64>,
    mcount: Vec<f64>,
    mex: Vec<f64>,
    mey: Vec<f64>,
    /// Block summary columns, `ceil(len / BLOCK)` real summaries padded to
    /// a coarse vector of four with never-intersecting sentinels: union MBR of the
    /// block's members and the per-block maxima of `ex`/`ey` (NaN amounts
    /// are dropped by `f64::max`, matching how the members themselves
    /// collapse a NaN extension to zero).
    bx1: Vec<f64>,
    by1: Vec<f64>,
    bx2: Vec<f64>,
    by2: Vec<f64>,
    bex: Vec<f64>,
    bey: Vec<f64>,
    /// Quad summary columns, `ceil(len / QUAD)` real summaries padded to
    /// a whole block window (`nblocks * 4`): the same union
    /// MBR / extension maxima at per-4-member granularity, so a surviving
    /// block can discard three quarters of its members with one more
    /// rectangle test (one vector compare covers a whole block's quads).
    qx1: Vec<f64>,
    qy1: Vec<f64>,
    qx2: Vec<f64>,
    qy2: Vec<f64>,
    qex: Vec<f64>,
    qey: Vec<f64>,
}

/// Classification of one bucket's term in the skip-zero fold: the exact
/// value when non-zero, otherwise the sign of the zero (module docs,
/// steps 2–3).
#[derive(Debug, Clone, Copy)]
enum Term {
    Live(f64),
    PosZero,
    NegZero,
}

/// The single source of truth for one bucket's term: the reference
/// arithmetic of [`Bucket::estimate_with_extension`], operation for
/// operation, classified for the skip-zero fold. Every accumulation path —
/// id-ordered, Morton mirror, SIMD replay — funnels through this function,
/// so their terms are bit-identical by construction.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn classify(x1: f64, y1: f64, x2: f64, y2: f64, c: f64, ex: f64, ey: f64, p: &QueryPrep) -> Term {
    // `Rect::expanded(ex, ey)` for this bucket, element-wise.
    let hw = (p.hw + ex).max(0.0);
    let hh = (p.hh + ey).max(0.0);
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
            Term::Live(t)
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
    /// MBR the extended query covers. Recomputed with the kernel's exact
    /// arithmetic for reporting; the headline estimate never reads it.
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
        // Padded column lengths: the mirror is padded to a whole quad, the
        // quad columns to a whole block's worth of quads, and the block
        // columns to a whole coarse vector, so the vector scan never needs
        // a scalar tail. Pads are sentinels (empty MBR, zero count) that
        // can never intersect a query; the scan masks them out of the
        // zero-sign flag with validity masks.
        let n4 = if n == 0 { 0 } else { n.next_multiple_of(QUAD) };
        let nb = n.div_ceil(BLOCK);
        let nbp = if nb == 0 { 0 } else { nb.next_multiple_of(4) };
        let nqp = nb * (BLOCK / QUAD);
        let mut plane = BucketPlane {
            x1: Vec::with_capacity(n),
            y1: Vec::with_capacity(n),
            x2: Vec::with_capacity(n),
            y2: Vec::with_capacity(n),
            count: Vec::with_capacity(n),
            avg_w: Vec::with_capacity(n),
            avg_h: Vec::with_capacity(n),
            ex: Vec::with_capacity(n),
            ey: Vec::with_capacity(n),
            morder: Vec::new(),
            mx1: Vec::with_capacity(n4),
            my1: Vec::with_capacity(n4),
            mx2: Vec::with_capacity(n4),
            my2: Vec::with_capacity(n4),
            mcount: Vec::with_capacity(n4),
            mex: Vec::with_capacity(n4),
            mey: Vec::with_capacity(n4),
            bx1: Vec::with_capacity(nbp),
            by1: Vec::with_capacity(nbp),
            bx2: Vec::with_capacity(nbp),
            by2: Vec::with_capacity(nbp),
            bex: Vec::with_capacity(nbp),
            bey: Vec::with_capacity(nbp),
            qx1: Vec::with_capacity(nqp),
            qy1: Vec::with_capacity(nqp),
            qx2: Vec::with_capacity(nqp),
            qy2: Vec::with_capacity(nqp),
            qex: Vec::with_capacity(nqp),
            qey: Vec::with_capacity(nqp),
        };
        for b in buckets {
            plane.x1.push(b.mbr.lo.x);
            plane.y1.push(b.mbr.lo.y);
            plane.x2.push(b.mbr.hi.x);
            plane.y2.push(b.mbr.hi.y);
            plane.count.push(b.count);
            plane.avg_w.push(b.avg_width);
            plane.avg_h.push(b.avg_height);
            let (ex, ey) = rule.amounts(b.avg_width, b.avg_height);
            plane.ex.push(ex);
            plane.ey.push(ey);
        }

        // Morton mirror: gather the fold inputs in Z-order of the bucket
        // centres. The schedule over the MBRs keys on exactly those
        // centres; ties keep id order, so the mirror is deterministic.
        let mbrs: Vec<Rect> = buckets.iter().map(|b| b.mbr).collect();
        let order = crate::morton_schedule(&mbrs);
        plane.morder = Vec::with_capacity(n4);
        plane.morder.extend_from_slice(&order);
        for &id in &plane.morder {
            let i = id as usize;
            plane.mx1.push(plane.x1[i]);
            plane.my1.push(plane.y1[i]);
            plane.mx2.push(plane.x2[i]);
            plane.my2.push(plane.y2[i]);
            plane.mcount.push(plane.count[i]);
            plane.mex.push(plane.ex[i]);
            plane.mey.push(plane.ey[i]);
        }
        // Mirror pads: the empty rectangle with a zero count. Their
        // intersection test is false against any (finite) query, so they
        // classify as dead lanes. Pad `morder` entries map to the term
        // buffer's spare slot `n`, which the fold never reads — the
        // branchless scatter can then store every lane unconditionally.
        for _ in n..n4 {
            plane.morder.push(n as u32);
            plane.mx1.push(f64::INFINITY);
            plane.my1.push(f64::INFINITY);
            plane.mx2.push(f64::NEG_INFINITY);
            plane.my2.push(f64::NEG_INFINITY);
            plane.mcount.push(0.0);
            plane.mex.push(0.0);
            plane.mey.push(0.0);
        }

        // Block summaries over the mirror: union MBR plus extension maxima
        // per BLOCK members. The unions use `f64::min`/`max`, which drop a
        // NaN operand — consistent with the member-level arithmetic, where
        // a NaN coordinate can never satisfy an intersection test and a
        // NaN extension collapses to a zero half-extent.
        for b in 0..nb {
            let range = b * BLOCK..((b + 1) * BLOCK).min(n);
            let mut x1 = f64::INFINITY;
            let mut y1 = f64::INFINITY;
            let mut x2 = f64::NEG_INFINITY;
            let mut y2 = f64::NEG_INFINITY;
            let mut ex = f64::NEG_INFINITY;
            let mut ey = f64::NEG_INFINITY;
            for j in range {
                x1 = x1.min(plane.mx1[j]);
                y1 = y1.min(plane.my1[j]);
                x2 = x2.max(plane.mx2[j]);
                y2 = y2.max(plane.my2[j]);
                ex = ex.max(plane.mex[j]);
                ey = ey.max(plane.mey[j]);
            }
            plane.bx1.push(x1);
            plane.by1.push(y1);
            plane.bx2.push(x2);
            plane.by2.push(y2);
            plane.bex.push(ex);
            plane.bey.push(ey);
        }
        // Block pads: empty-rectangle sentinels, masked out of the coarse
        // vector loop's results by its validity mask.
        for _ in nb..nbp {
            plane.bx1.push(f64::INFINITY);
            plane.by1.push(f64::INFINITY);
            plane.bx2.push(f64::NEG_INFINITY);
            plane.by2.push(f64::NEG_INFINITY);
            plane.bex.push(0.0);
            plane.bey.push(0.0);
        }

        // Quad summaries: the same unions at per-QUAD granularity. The
        // containment argument is level-agnostic — a quad's union contains
        // its members exactly as a block's contains its quads.
        let nq = n.div_ceil(QUAD);
        for q in 0..nq {
            let range = q * QUAD..((q + 1) * QUAD).min(n);
            let mut x1 = f64::INFINITY;
            let mut y1 = f64::INFINITY;
            let mut x2 = f64::NEG_INFINITY;
            let mut y2 = f64::NEG_INFINITY;
            let mut ex = f64::NEG_INFINITY;
            let mut ey = f64::NEG_INFINITY;
            for j in range {
                x1 = x1.min(plane.mx1[j]);
                y1 = y1.min(plane.my1[j]);
                x2 = x2.max(plane.mx2[j]);
                y2 = y2.max(plane.my2[j]);
                ex = ex.max(plane.mex[j]);
                ey = ey.max(plane.mey[j]);
            }
            plane.qx1.push(x1);
            plane.qy1.push(y1);
            plane.qx2.push(x2);
            plane.qy2.push(y2);
            plane.qex.push(ex);
            plane.qey.push(ey);
        }
        // Quad pads out to a whole block's window of quads, so the quad
        // gate of the last (ragged) block can load a full vector.
        for _ in nq..nqp {
            plane.qx1.push(f64::INFINITY);
            plane.qy1.push(f64::INFINITY);
            plane.qx2.push(f64::NEG_INFINITY);
            plane.qy2.push(f64::NEG_INFINITY);
            plane.qex.push(0.0);
            plane.qey.push(0.0);
        }
        plane
    }

    /// Number of buckets in the plane.
    #[inline]
    pub fn len(&self) -> usize {
        self.count.len()
    }

    /// `true` when the plane holds no buckets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// Heap bytes held by the plane's columns (capacity, not length —
    /// columns are built exactly-sized so the two coincide in practice),
    /// including the Morton mirror and its block summaries.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.x1.capacity()
                + self.y1.capacity()
                + self.x2.capacity()
                + self.y2.capacity()
                + self.count.capacity()
                + self.avg_w.capacity()
                + self.avg_h.capacity()
                + self.ex.capacity()
                + self.ey.capacity()
                + self.mx1.capacity()
                + self.my1.capacity()
                + self.mx2.capacity()
                + self.my2.capacity()
                + self.mcount.capacity()
                + self.mex.capacity()
                + self.mey.capacity()
                + self.bx1.capacity()
                + self.by1.capacity()
                + self.bx2.capacity()
                + self.by2.capacity()
                + self.bex.capacity()
                + self.bey.capacity()
                + self.qx1.capacity()
                + self.qy1.capacity()
                + self.qx2.capacity()
                + self.qy2.capacity()
                + self.qex.capacity()
                + self.qey.capacity())
            + std::mem::size_of::<u32>() * self.morder.capacity()
    }

    /// One bucket's step of the skip-zero fold: adds the bucket's term to
    /// `acc` when it is non-zero, otherwise records the skipped term's sign
    /// in `saw_pos_zero`. See the module docs for why the overall fold is
    /// bit-identical to the strict in-order reference fold.
    #[inline(always)]
    fn fold_one(&self, i: usize, p: &QueryPrep, acc: &mut f64, saw_pos_zero: &mut bool) {
        let term = classify(
            self.x1[i],
            self.y1[i],
            self.x2[i],
            self.y2[i],
            self.count[i],
            self.ex[i],
            self.ey[i],
            p,
        );
        match term {
            Term::Live(t) => *acc += t,
            Term::PosZero => *saw_pos_zero = true,
            Term::NegZero => {}
        }
    }

    /// Fold tail shared by every accumulation: the `-0.0`-identity
    /// correction for skipped `+0.0` terms.
    #[inline(always)]
    fn finish(acc: f64, saw_pos_zero: bool) -> f64 {
        if saw_pos_zero {
            acc + 0.0
        } else {
            acc
        }
    }

    /// Strict-fold-equivalent estimate over **all** buckets: bit-identical
    /// to `buckets.iter().map(estimate_with_extension).sum::<f64>()`.
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    pub fn accumulate(&self, p: &QueryPrep) -> f64 {
        self.accumulate_scalar(p)
    }

    /// Strict-fold-equivalent estimate over **all** buckets: bit-identical
    /// to `buckets.iter().map(estimate_with_extension).sum::<f64>()`.
    ///
    /// Dispatches to the AVX2 filter when the host supports it (detected
    /// once, cached by `std`), else to the SSE2 baseline. Both re-run
    /// surviving lanes through the scalar step in lane order, so the result
    /// is the scalar result bit for bit.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[allow(unsafe_code)] // sanctioned: runtime-feature-guarded dispatch
    pub fn accumulate(&self, p: &QueryPrep) -> f64 {
        // Vector setup isn't worth it for a handful of buckets; the scalar
        // fold is also the bit-reference the filters are pinned against.
        if self.len() < 8 {
            return self.accumulate_scalar(p);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 code path is only entered when the running
            // CPU reports AVX2 support.
            unsafe { simd::accumulate_avx2(self, p) }
        } else {
            simd::accumulate_sse2(self, p)
        }
    }

    /// The portable skip-zero fold (always compiled; the bit-reference for
    /// the SIMD filters and the only body on non-x86_64 or default builds).
    fn accumulate_scalar(&self, p: &QueryPrep) -> f64 {
        let mut acc = -0.0f64;
        let mut saw_pos_zero = false;
        for i in 0..self.len() {
            self.fold_one(i, p, &mut acc, &mut saw_pos_zero);
        }
        Self::finish(acc, saw_pos_zero)
    }

    /// `true` when the coarse block test proves every member of block `b`
    /// of the Morton mirror misses the query: the query extended by the
    /// block's extension maxima does not intersect the block's union MBR.
    /// By IEEE-754 monotonicity of add/sub/max, a member's extended query
    /// is contained in the block's, so a pruned block's members all have
    /// `inter == false` — their terms are all exactly `+0.0`.
    #[inline(always)]
    fn block_pruned(&self, b: usize, p: &QueryPrep) -> bool {
        let hw = (p.hw + self.bex[b]).max(0.0);
        let hh = (p.hh + self.bey[b]).max(0.0);
        !((p.cx - hw <= self.bx2[b])
            & (self.bx1[b] <= p.cx + hw)
            & (p.cy - hh <= self.by2[b])
            & (self.by1[b] <= p.cy + hh))
    }

    /// The same coarse test as [`BucketPlane::block_pruned`] one level
    /// down, over quad `q`'s union MBR and extension maxima.
    #[inline(always)]
    fn quad_pruned(&self, q: usize, p: &QueryPrep) -> bool {
        let hw = (p.hw + self.qex[q]).max(0.0);
        let hh = (p.hh + self.qey[q]).max(0.0);
        !((p.cx - hw <= self.qx2[q])
            & (self.qx1[q] <= p.cx + hw)
            & (p.cy - hh <= self.qy2[q])
            & (self.qy1[q] <= p.cy + hh))
    }

    /// Quad-gated scalar scan of one surviving block: each quad's union
    /// rectangle is tested before its members classify, so a block clipped
    /// by the query edge only pays for the quads the query reaches.
    #[inline(always)]
    fn scan_block_scalar(&self, b: usize, p: &QueryPrep, buf: &mut TermBuf, saw: &mut bool) {
        let n = self.len();
        let nq = n.div_ceil(QUAD);
        for q in b * (BLOCK / QUAD)..((b + 1) * (BLOCK / QUAD)).min(nq) {
            if self.quad_pruned(q, p) {
                // A pruned quad skips only proven `+0.0` terms (quads are
                // never empty).
                *saw = true;
                continue;
            }
            for j in q * QUAD..((q + 1) * QUAD).min(n) {
                self.scan_one(j, p, buf, saw);
            }
        }
    }

    /// One Morton-mirror member's step of the pruned scan: a non-zero term
    /// is scattered into its bucket's slot of the term buffer (the fold
    /// later replays the slots in ascending id order straight off the
    /// bitmask), zero terms only touch the flag.
    #[inline(always)]
    fn scan_one(&self, j: usize, p: &QueryPrep, buf: &mut TermBuf, saw: &mut bool) {
        let term = classify(
            self.mx1[j],
            self.my1[j],
            self.mx2[j],
            self.my2[j],
            self.mcount[j],
            self.mex[j],
            self.mey[j],
            p,
        );
        match term {
            Term::Live(t) => buf.set(self.morder[j] as usize, t),
            Term::PosZero => *saw = true,
            Term::NegZero => {}
        }
    }

    /// Fold tail of the pruned scan: replays the collected non-zero terms
    /// in ascending bucket-id order — the order the strict reference fold
    /// adds them in — by walking the term buffer's bitmask words in
    /// ascending order and extracting set bits low-to-high. The mask *is*
    /// the order, so no sort happens on any path; cost is
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
        Self::finish(acc, saw_pos_zero)
    }

    /// Block-pruned estimate over **all** buckets via the Morton mirror:
    /// bit-identical to [`BucketPlane::accumulate`] (and therefore to the
    /// strict reference fold), sub-linear in the bucket count for
    /// selective queries, allocation-free once `terms` is warm.
    ///
    /// The scan visits members of surviving blocks in mirror order,
    /// scattering non-zero terms into the term buffer's per-bucket slots;
    /// [`BucketPlane::fold_masked`] then replays them in ascending id
    /// order straight off the buffer's bitmask. The term *values* are
    /// order-independent (each is a pure function of one bucket and the
    /// query), the zero-sign flag is a commutative OR, and the non-zero
    /// terms are added in exactly the reference order — so the scan order
    /// is free to follow the mirror while the result stays bit-identical.
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    pub fn accumulate_pruned(&self, p: &QueryPrep, buf: &mut TermBuf) -> f64 {
        self.accumulate_pruned_scalar(p, buf)
    }

    /// Block-pruned estimate over **all** buckets via the Morton mirror:
    /// bit-identical to [`BucketPlane::accumulate`] (and therefore to the
    /// strict reference fold), sub-linear in the bucket count for
    /// selective queries, allocation-free once `terms` is warm.
    ///
    /// Under `simd`, the coarse block tests run four (AVX2) or two (SSE2)
    /// blocks per compare and surviving blocks run the vector zero-filter;
    /// surviving members still classify through the scalar step, so the
    /// collected terms are the scalar terms bit for bit.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[allow(unsafe_code)] // sanctioned: runtime-feature-guarded dispatch
    pub fn accumulate_pruned(&self, p: &QueryPrep, buf: &mut TermBuf) -> f64 {
        if self.len() < 2 * BLOCK {
            return self.accumulate_pruned_scalar(p, buf);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 code path is only entered when the running
            // CPU reports AVX2 support.
            unsafe { simd::accumulate_pruned_avx2(self, p, buf) }
        } else {
            simd::accumulate_pruned_sse2(self, p, buf)
        }
    }

    /// The portable block-pruned scan (always compiled; the bit-reference
    /// for the SIMD variants and the only body on default builds).
    fn accumulate_pruned_scalar(&self, p: &QueryPrep, buf: &mut TermBuf) -> f64 {
        buf.reset(self.len());
        let mut saw_pos_zero = false;
        for b in 0..self.len().div_ceil(BLOCK) {
            if self.block_pruned(b, p) {
                // Every member's term is a proven `+0.0` (blocks are never
                // empty, so at least one `+0.0` was skipped).
                saw_pos_zero = true;
                continue;
            }
            self.scan_block_scalar(b, p, buf, &mut saw_pos_zero);
        }
        self.fold_masked(buf, saw_pos_zero)
    }

    /// Diagnostic clipped fraction `fx * fy` for mirror member `j`: the
    /// kernel's exact per-axis arithmetic, re-run purely for reporting.
    /// Never feeds the estimate — the term value always comes from
    /// `classify`.
    fn clip_fraction(&self, j: usize, p: &QueryPrep) -> f64 {
        let (x1, y1, x2, y2) = (self.mx1[j], self.my1[j], self.mx2[j], self.my2[j]);
        let hw = (p.hw + self.mex[j]).max(0.0);
        let hh = (p.hh + self.mey[j]).max(0.0);
        let ox = ((p.cx + hw).min(x2) - (p.cx - hw).max(x1)).max(0.0);
        let oy = ((p.cy + hh).min(y2) - (p.cy - hh).max(y1)).max(0.0);
        let w = x2 - x1;
        let h = y2 - y1;
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
        fx * fy
    }

    /// The explained twin of [`BucketPlane::accumulate_pruned`]: the same
    /// block-pruned scan — every term from `classify`, scattered through
    /// the same term buffer, folded by the same ascending-id mask walk —
    /// with the evidence recorded on the side. The headline estimate is
    /// therefore bit-identical to the serving path by construction, not by
    /// re-derivation.
    ///
    /// Always scalar, even under `simd`: the SIMD paths replay surviving
    /// lanes through the scalar step, so the scalar scan *is* the bit
    /// reference they are pinned against.
    pub fn accumulate_pruned_explained(&self, p: &QueryPrep, buf: &mut TermBuf) -> KernelExplain {
        buf.reset(self.len());
        let n = self.len();
        let nq = n.div_ceil(QUAD);
        let mut saw_pos_zero = false;
        let mut prune = PruneStats {
            blocks: n.div_ceil(BLOCK),
            ..PruneStats::default()
        };
        let mut terms = Vec::new();
        for b in 0..n.div_ceil(BLOCK) {
            if self.block_pruned(b, p) {
                saw_pos_zero = true;
                prune.blocks_pruned += 1;
                continue;
            }
            for q in b * (BLOCK / QUAD)..((b + 1) * (BLOCK / QUAD)).min(nq) {
                prune.quads_tested += 1;
                if self.quad_pruned(q, p) {
                    saw_pos_zero = true;
                    prune.quads_pruned += 1;
                    continue;
                }
                for j in q * QUAD..((q + 1) * QUAD).min(n) {
                    prune.buckets_classified += 1;
                    let term = classify(
                        self.mx1[j],
                        self.my1[j],
                        self.mx2[j],
                        self.my2[j],
                        self.mcount[j],
                        self.mex[j],
                        self.mey[j],
                        p,
                    );
                    match term {
                        Term::Live(t) => {
                            buf.set(self.morder[j] as usize, t);
                            terms.push(ExplainTerm {
                                bucket: self.morder[j],
                                count: self.mcount[j],
                                ex: self.mex[j],
                                ey: self.mey[j],
                                fraction: self.clip_fraction(j, p),
                                term: t,
                            });
                        }
                        Term::PosZero => saw_pos_zero = true,
                        Term::NegZero => {}
                    }
                }
            }
        }
        // The scan visits mirror order; report fold order.
        terms.sort_unstable_by_key(|t| t.bucket);
        let estimate = self.fold_masked(buf, saw_pos_zero);
        KernelExplain {
            estimate,
            terms,
            saw_pos_zero,
            prune,
        }
    }
}

/// Which kernel code path serves `BucketPlane::accumulate` on this host —
/// `"avx2"` / `"sse2"` under the `simd` feature on x86_64, otherwise
/// `"scalar-autovec"`. Recorded in BENCH_estimate.json so committed numbers
/// say what actually ran.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub fn simd_level() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "sse2"
    }
}

/// Which kernel code path serves `BucketPlane::accumulate` on this host —
/// `"avx2"` / `"sse2"` under the `simd` feature on x86_64, otherwise
/// `"scalar-autovec"`. Recorded in BENCH_estimate.json so committed numbers
/// say what actually ran.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub fn simd_level() -> &'static str {
    "scalar-autovec"
}

/// Vectorised zero-filters over the plane columns. The vectors only decide
/// *which* buckets can contribute; every surviving bucket re-runs the
/// scalar [`BucketPlane::fold_one`] step in lane order, so bit-identity
/// with the scalar fold is structural, not numerical luck. The per-lane
/// compare semantics agree with the scalar filter on every input the plane
/// can hold (finite MBRs; NaN counts and extension amounts behave
/// identically — see the module docs).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod simd {
    use core::arch::x86_64::*;

    use super::{BucketPlane, QueryPrep, TermBuf};

    /// AVX2 filter, four buckets per iteration.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_avx2(plane: &BucketPlane, p: &QueryPrep) -> f64 {
        let n = plane.len();
        let mut acc = -0.0f64;
        let mut saw_pos_zero = false;
        let zero = _mm256_setzero_pd();
        let cx = _mm256_set1_pd(p.cx);
        let cy = _mm256_set1_pd(p.cy);
        let qhw = _mm256_set1_pd(p.hw);
        let qhh = _mm256_set1_pd(p.hh);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: all columns have length `n` and `i + 4 <= n`.
            let (live_bits, neg_bits) = unsafe {
                let ex = _mm256_loadu_pd(plane.ex.as_ptr().add(i));
                let ey = _mm256_loadu_pd(plane.ey.as_ptr().add(i));
                let x1 = _mm256_loadu_pd(plane.x1.as_ptr().add(i));
                let x2 = _mm256_loadu_pd(plane.x2.as_ptr().add(i));
                let y1 = _mm256_loadu_pd(plane.y1.as_ptr().add(i));
                let y2 = _mm256_loadu_pd(plane.y2.as_ptr().add(i));
                let c = _mm256_loadu_pd(plane.count.as_ptr().add(i));
                // (qhw + ex).max(0.0): max(sum, +0.0) returns +0.0 for a
                // NaN sum, matching scalar `f64::max`.
                let hw = _mm256_max_pd(_mm256_add_pd(qhw, ex), zero);
                let hh = _mm256_max_pd(_mm256_add_pd(qhh, ey), zero);
                let elx = _mm256_sub_pd(cx, hw);
                let ehx = _mm256_add_pd(cx, hw);
                let ely = _mm256_sub_pd(cy, hh);
                let ehy = _mm256_add_pd(cy, hh);
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
                    zero,
                );
                let oy = _mm256_max_pd(
                    _mm256_sub_pd(_mm256_min_pd(ehy, y2), _mm256_max_pd(ely, y1)),
                    zero,
                );
                let w = _mm256_sub_pd(x2, x1);
                let h = _mm256_sub_pd(y2, y1);
                // NEQ is unordered (NaN counts stay live, like the scalar
                // `c != 0.0`); GT/LE are ordered (overlaps are never NaN).
                let live = _mm256_and_pd(
                    _mm256_and_pd(inter, _mm256_cmp_pd::<_CMP_NEQ_UQ>(c, zero)),
                    _mm256_and_pd(
                        _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(w, zero),
                            _mm256_cmp_pd::<_CMP_GT_OQ>(ox, zero),
                        ),
                        _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(h, zero),
                            _mm256_cmp_pd::<_CMP_GT_OQ>(oy, zero),
                        ),
                    ),
                );
                let neg = _mm256_and_pd(inter, _mm256_cmp_pd::<_CMP_LT_OQ>(c, zero));
                (_mm256_movemask_pd(live), _mm256_movemask_pd(neg))
            };
            if live_bits == 0 {
                // All four terms are proven zeros; a skipped term is
                // `-0.0` only for intersecting negative-count buckets.
                saw_pos_zero |= neg_bits != 0b1111;
            } else {
                // Rare mixed/occupied vector: replay all four lanes
                // through the scalar step, preserving fold order exactly.
                for lane in 0..4 {
                    plane.fold_one(i + lane, p, &mut acc, &mut saw_pos_zero);
                }
            }
            i += 4;
        }
        while i < n {
            plane.fold_one(i, p, &mut acc, &mut saw_pos_zero);
            i += 1;
        }
        BucketPlane::finish(acc, saw_pos_zero)
    }

    /// AVX2 block-pruned scan: four coarse block tests per compare, and
    /// the four-lane zero-filter inside surviving blocks. Every surviving
    /// member classifies through the scalar step, so the collected terms
    /// equal the scalar scan's bit for bit.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
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
    /// `i + 4` is within all six parallel summary columns.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn inter4_avx2(
        x1c: &[f64],
        y1c: &[f64],
        x2c: &[f64],
        y2c: &[f64],
        exc: &[f64],
        eyc: &[f64],
        i: usize,
        bc: &QBcast,
    ) -> i32 {
        // SAFETY: bounds guaranteed by the caller.
        unsafe {
            let ex = _mm256_loadu_pd(exc.as_ptr().add(i));
            let ey = _mm256_loadu_pd(eyc.as_ptr().add(i));
            let x1 = _mm256_loadu_pd(x1c.as_ptr().add(i));
            let x2 = _mm256_loadu_pd(x2c.as_ptr().add(i));
            let y1 = _mm256_loadu_pd(y1c.as_ptr().add(i));
            let y2 = _mm256_loadu_pd(y2c.as_ptr().add(i));
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
        let qb = unsafe {
            inter4_avx2(
                &plane.qx1, &plane.qy1, &plane.qx2, &plane.qy2, &plane.qex, &plane.qey, q0, bc,
            )
        } & qvm;
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
                let ex = _mm256_loadu_pd(plane.mex.as_ptr().add(j));
                let ey = _mm256_loadu_pd(plane.mey.as_ptr().add(j));
                let x1 = _mm256_loadu_pd(plane.mx1.as_ptr().add(j));
                let x2 = _mm256_loadu_pd(plane.mx2.as_ptr().add(j));
                let y1 = _mm256_loadu_pd(plane.my1.as_ptr().add(j));
                let y2 = _mm256_loadu_pd(plane.my2.as_ptr().add(j));
                let c = _mm256_loadu_pd(plane.mcount.as_ptr().add(j));
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
            let bbits = unsafe {
                inter4_avx2(
                    &plane.bx1, &plane.by1, &plane.bx2, &plane.by2, &plane.bex, &plane.bey, b, &bc,
                )
            } & vm;
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

    /// SSE2 block-pruned scan, two blocks per coarse compare; the baseline
    /// twin of [`accumulate_pruned_avx2`].
    pub(super) fn accumulate_pruned_sse2(
        plane: &BucketPlane,
        p: &QueryPrep,
        buf: &mut TermBuf,
    ) -> f64 {
        buf.reset(plane.len());
        let nb = plane.len().div_ceil(super::BLOCK);
        let mut saw_pos_zero = false;
        // SAFETY: SSE2 is statically available on every x86_64 target.
        unsafe {
            let zero = _mm_setzero_pd();
            let cx = _mm_set1_pd(p.cx);
            let cy = _mm_set1_pd(p.cy);
            let qhw = _mm_set1_pd(p.hw);
            let qhh = _mm_set1_pd(p.hh);
            let mut b = 0usize;
            while b + 2 <= nb {
                // SAFETY: all block columns have length `nb`, `b + 2 <= nb`.
                let bex = _mm_loadu_pd(plane.bex.as_ptr().add(b));
                let bey = _mm_loadu_pd(plane.bey.as_ptr().add(b));
                let bx1 = _mm_loadu_pd(plane.bx1.as_ptr().add(b));
                let bx2 = _mm_loadu_pd(plane.bx2.as_ptr().add(b));
                let by1 = _mm_loadu_pd(plane.by1.as_ptr().add(b));
                let by2 = _mm_loadu_pd(plane.by2.as_ptr().add(b));
                let hw = _mm_max_pd(_mm_add_pd(qhw, bex), zero);
                let hh = _mm_max_pd(_mm_add_pd(qhh, bey), zero);
                let elx = _mm_sub_pd(cx, hw);
                let ehx = _mm_add_pd(cx, hw);
                let ely = _mm_sub_pd(cy, hh);
                let ehy = _mm_add_pd(cy, hh);
                let inter = _mm_and_pd(
                    _mm_and_pd(_mm_cmple_pd(elx, bx2), _mm_cmple_pd(bx1, ehx)),
                    _mm_and_pd(_mm_cmple_pd(ely, by2), _mm_cmple_pd(by1, ehy)),
                );
                let inter_bits = _mm_movemask_pd(inter);
                saw_pos_zero |= inter_bits != 0b11;
                for lane in 0..2 {
                    if inter_bits & (1 << lane) != 0 {
                        plane.scan_block_scalar(b + lane, p, buf, &mut saw_pos_zero);
                    }
                }
                b += 2;
            }
            while b < nb {
                if plane.block_pruned(b, p) {
                    saw_pos_zero = true;
                } else {
                    plane.scan_block_scalar(b, p, buf, &mut saw_pos_zero);
                }
                b += 1;
            }
        }
        plane.fold_masked(buf, saw_pos_zero)
    }

    /// SSE2 filter, two buckets per iteration. SSE2 is part of the x86_64
    /// baseline, so this needs no runtime detection.
    pub(super) fn accumulate_sse2(plane: &BucketPlane, p: &QueryPrep) -> f64 {
        let n = plane.len();
        let mut acc = -0.0f64;
        let mut saw_pos_zero = false;
        // SAFETY: SSE2 is statically available on every x86_64 target.
        unsafe {
            let zero = _mm_setzero_pd();
            let cx = _mm_set1_pd(p.cx);
            let cy = _mm_set1_pd(p.cy);
            let qhw = _mm_set1_pd(p.hw);
            let qhh = _mm_set1_pd(p.hh);
            let mut i = 0usize;
            while i + 2 <= n {
                // SAFETY: all columns have length `n` and `i + 2 <= n`.
                let ex = _mm_loadu_pd(plane.ex.as_ptr().add(i));
                let ey = _mm_loadu_pd(plane.ey.as_ptr().add(i));
                let x1 = _mm_loadu_pd(plane.x1.as_ptr().add(i));
                let x2 = _mm_loadu_pd(plane.x2.as_ptr().add(i));
                let y1 = _mm_loadu_pd(plane.y1.as_ptr().add(i));
                let y2 = _mm_loadu_pd(plane.y2.as_ptr().add(i));
                let c = _mm_loadu_pd(plane.count.as_ptr().add(i));
                let hw = _mm_max_pd(_mm_add_pd(qhw, ex), zero);
                let hh = _mm_max_pd(_mm_add_pd(qhh, ey), zero);
                let elx = _mm_sub_pd(cx, hw);
                let ehx = _mm_add_pd(cx, hw);
                let ely = _mm_sub_pd(cy, hh);
                let ehy = _mm_add_pd(cy, hh);
                let inter = _mm_and_pd(
                    _mm_and_pd(_mm_cmple_pd(elx, x2), _mm_cmple_pd(x1, ehx)),
                    _mm_and_pd(_mm_cmple_pd(ely, y2), _mm_cmple_pd(y1, ehy)),
                );
                let ox = _mm_max_pd(_mm_sub_pd(_mm_min_pd(ehx, x2), _mm_max_pd(elx, x1)), zero);
                let oy = _mm_max_pd(_mm_sub_pd(_mm_min_pd(ehy, y2), _mm_max_pd(ely, y1)), zero);
                let w = _mm_sub_pd(x2, x1);
                let h = _mm_sub_pd(y2, y1);
                // `_mm_cmpneq_pd` is unordered-true (NaN counts stay
                // live); gt/le are ordered, overlaps are never NaN.
                let live = _mm_and_pd(
                    _mm_and_pd(inter, _mm_cmpneq_pd(c, zero)),
                    _mm_and_pd(
                        _mm_or_pd(_mm_cmple_pd(w, zero), _mm_cmpgt_pd(ox, zero)),
                        _mm_or_pd(_mm_cmple_pd(h, zero), _mm_cmpgt_pd(oy, zero)),
                    ),
                );
                if _mm_movemask_pd(live) == 0 {
                    let neg = _mm_and_pd(inter, _mm_cmplt_pd(c, zero));
                    saw_pos_zero |= _mm_movemask_pd(neg) != 0b11;
                } else {
                    for lane in 0..2 {
                        plane.fold_one(i + lane, p, &mut acc, &mut saw_pos_zero);
                    }
                }
                i += 2;
            }
            while i < n {
                plane.fold_one(i, p, &mut acc, &mut saw_pos_zero);
                i += 1;
            }
        }
        BucketPlane::finish(acc, saw_pos_zero)
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
                    let want = reference(&buckets, rule, &q).to_bits();
                    assert_eq!(
                        plane.accumulate(&p).to_bits(),
                        want,
                        "rule={rule:?} side={side} q={q}"
                    );
                    assert_eq!(
                        plane.accumulate_pruned(&p, &mut terms).to_bits(),
                        want,
                        "pruned: rule={rule:?} side={side} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulate_matches_scalar_fold() {
        // Under `simd` this pins the vector filter against the scalar
        // fold; on default builds it is trivially true.
        let buckets = grid(9);
        let plane = BucketPlane::build(&buckets, ExtensionRule::Minkowski);
        for q in queries() {
            let p = QueryPrep::new(&q);
            assert_eq!(
                plane.accumulate(&p).to_bits(),
                plane.accumulate_scalar(&p).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn degenerate_and_adversarial_buckets_match_reference() {
        // Zero counts, a -0.0 count, point/segment MBRs, NaN extension
        // amounts, negative counts (unreachable via builders but handled),
        // and tiny counts that can underflow the product.
        let buckets = [
            bucket(0.0, 0.0, 10.0, 10.0, 0.0, 1.0, 1.0),
            Bucket {
                mbr: Rect::new(0.0, 0.0, 4.0, 4.0),
                count: -0.0,
                avg_width: 1.0,
                avg_height: 1.0,
            },
            bucket(5.0, 0.0, 5.0, 10.0, 40.0, 0.0, 0.0),
            Bucket {
                mbr: Rect::from_point(Point::new(1.0, 1.0)),
                count: 7.0,
                avg_width: 0.0,
                avg_height: 0.0,
            },
            Bucket {
                mbr: Rect::new(2.0, 2.0, 8.0, 8.0),
                count: 9.0,
                avg_width: f64::NAN,
                avg_height: 1.0,
            },
            Bucket {
                mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
                count: -3.0,
                avg_width: 0.1,
                avg_height: 0.1,
            },
            bucket(0.0, 0.0, 1e300, 1e300, 5e-324, 0.0, 0.0),
        ];
        // Duplicate the set so it exceeds the SIMD dispatch threshold and
        // the vector filters see the adversarial lanes too.
        let buckets: Vec<Bucket> = buckets.iter().chain(buckets.iter()).copied().collect();
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            let plane = BucketPlane::build(&buckets, rule);
            for q in [
                Rect::new(0.0, 0.0, 10.0, 10.0),
                Rect::new(100.0, 100.0, 110.0, 110.0),
                Rect::new(4.0, 0.0, 6.0, 3.0),
                Rect::new(6.0, 0.0, 8.0, 10.0),
                Rect::from_point(Point::new(5.0, 5.0)),
                Rect::new(1.0, 1.0, 1.0, 1.0),
                Rect::new(10.0, 0.0, 12.0, 10.0),
            ] {
                let p = QueryPrep::new(&q);
                let got = plane.accumulate(&p);
                let want = reference(&buckets, rule, &q);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "rule={rule:?} q={q} got={got} want={want}"
                );
                let mut terms = TermBuf::new();
                let pruned = plane.accumulate_pruned(&p, &mut terms);
                assert_eq!(
                    pruned.to_bits(),
                    want.to_bits(),
                    "pruned: rule={rule:?} q={q} got={pruned} want={want}"
                );
            }
        }
    }

    #[test]
    fn empty_plane_returns_fold_identity() {
        let plane = BucketPlane::build(&[], ExtensionRule::Minkowski);
        let p = QueryPrep::new(&Rect::new(0.0, 0.0, 1.0, 1.0));
        // The reference fold over zero terms is Rust's `-0.0` identity.
        assert_eq!(plane.accumulate(&p).to_bits(), (-0.0f64).to_bits());
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
        assert_eq!(plane.bx1.len(), n.div_ceil(16));
        for (j, &id) in plane.morder[..n].iter().enumerate() {
            let b = j / 16;
            let m = &buckets[id as usize].mbr;
            assert!(plane.bx1[b] <= m.lo.x && m.hi.x <= plane.bx2[b]);
            assert!(plane.by1[b] <= m.lo.y && m.hi.y <= plane.by2[b]);
            assert!(plane.bex[b] >= plane.mex[j] && plane.bey[b] >= plane.mey[j]);
        }
    }

    #[test]
    fn size_bytes_counts_all_columns() {
        // 16 buckets: 9 fine + 7 mirror f64 columns, one u32 id column,
        // one block summary padded to a coarse vector of four, and four
        // quad summaries (6 f64 each).
        let plane = BucketPlane::build(&grid(4), ExtensionRule::Minkowski);
        assert_eq!(
            plane.size_bytes(),
            16 * 9 * 8 + 16 * 7 * 8 + 16 * 4 + 4 * 6 * 8 + 4 * 6 * 8
        );
    }
}
