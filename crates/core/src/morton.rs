//! Morton (Z-order) scheduling for batched queries.
//!
//! A batch of queries in arrival order jumps all over the data space:
//! consecutive queries touch unrelated stretches of the
//! [`crate::BucketPlane`] columns, so every query pays cold-cache prices.
//! Sorting the batch by the Morton code of each query's centre makes
//! consecutive queries spatial neighbours — they survive the same pruning
//! blocks and hit the same SoA cache lines — while
//! leaving each *individual* estimate untouched. Batch callers apply the
//! permutation, estimate in Morton order, and scatter results back, so the
//! output order (and every output bit) is exactly what arrival-order
//! evaluation produces.
//!
//! The code is the classic bit-interleave: each centre is quantised to a
//! 32-bit integer per axis over the batch's own bounding box, and the two
//! integers are interleaved into a 64-bit key (x in the even bits, y in
//! the odd bits). Ties — including every batch whose centres are all
//! identical or collinear on a degenerate axis — are broken by arrival
//! order via a stable sort, so scheduling is fully deterministic.

use minskew_geom::Rect;

/// Spreads the bits of `v` so that bit `i` of `v` lands in bit `2i`.
#[inline]
fn spread(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Morton (Z-order) code of a quantised point: the bits of `ix` and `iy`
/// interleaved, `ix` in the even positions.
#[inline]
pub fn morton_key(ix: u32, iy: u32) -> u64 {
    spread(ix) | (spread(iy) << 1)
}

/// Returns the indices of `queries` in Morton order of their centres
/// (a permutation of `0..queries.len()`).
///
/// Centres are quantised over the batch's own centre bounding box, so the
/// schedule adapts to whatever region the batch actually covers. The sort
/// is stable: equal keys (and every batch of fewer than two queries) keep
/// arrival order. Queries with non-finite centres — impossible for
/// [`Rect`]s built through the checked constructors, but batch callers may
/// be fed anything — sort after all finite ones, in arrival order.
pub fn morton_schedule(queries: &[Rect]) -> Vec<u32> {
    let mut order = Vec::new();
    morton_schedule_into(queries, &mut order, &mut Vec::new());
    order
}

/// [`morton_schedule`] into caller-owned buffers: `order` receives the
/// permutation and `keys` is scratch. Neither allocates once its capacity
/// covers the batch, so a caller that keeps both schedules every batch
/// without allocating.
pub fn morton_schedule_into(queries: &[Rect], order: &mut Vec<u32>, keys: &mut Vec<u64>) {
    debug_assert!(u32::try_from(queries.len()).is_ok());
    order.clear();
    order.extend(0..queries.len() as u32);
    if queries.len() < 2 {
        return;
    }
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for q in queries {
        let c = q.center();
        if c.x.is_finite() && c.y.is_finite() {
            min_x = min_x.min(c.x);
            min_y = min_y.min(c.y);
            max_x = max_x.max(c.x);
            max_y = max_y.max(c.y);
        }
    }
    // Quantisation step per axis; 0.0 collapses a degenerate (or entirely
    // non-finite) axis onto coordinate 0.
    let scale_x = if max_x > min_x {
        u32::MAX as f64 / (max_x - min_x)
    } else {
        0.0
    };
    let scale_y = if max_y > min_y {
        u32::MAX as f64 / (max_y - min_y)
    } else {
        0.0
    };
    keys.clear();
    keys.extend(queries.iter().map(|q| {
        let c = q.center();
        if !(c.x.is_finite() && c.y.is_finite()) {
            return u64::MAX;
        }
        // Float→int casts saturate, so rounding past the top maps to
        // the last cell rather than wrapping.
        let ix = ((c.x - min_x) * scale_x) as u32;
        let iy = ((c.y - min_y) * scale_y) as u32;
        morton_key(ix, iy)
    }));
    // Ties broken by arrival index: the order a stable sort by key gives,
    // from an unstable sort, which needs no buffer.
    order.sort_unstable_by_key(|&i| (keys[i as usize], i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Point;

    #[test]
    fn interleave_is_exact() {
        assert_eq!(morton_key(0, 0), 0);
        assert_eq!(morton_key(1, 0), 0b01);
        assert_eq!(morton_key(0, 1), 0b10);
        assert_eq!(morton_key(0b11, 0b10), 0b1101);
        assert_eq!(morton_key(u32::MAX, u32::MAX), u64::MAX);
        assert_eq!(morton_key(u32::MAX, 0), 0x5555_5555_5555_5555);
    }

    #[test]
    fn schedule_is_a_permutation_and_groups_neighbours() {
        // Two spatial clusters interleaved in arrival order; the schedule
        // must visit each cluster contiguously.
        let mut queries = Vec::new();
        for i in 0..8 {
            let far = 1000.0 + i as f64;
            queries.push(Rect::new(far, far, far + 1.0, far + 1.0));
            let near = i as f64;
            queries.push(Rect::new(near, near, near + 1.0, near + 1.0));
        }
        let order = morton_schedule(&queries);
        let mut seen = vec![false; queries.len()];
        for &i in &order {
            assert!(!std::mem::replace(&mut seen[i as usize], true));
        }
        assert!(seen.iter().all(|&s| s));
        // All odd (near) arrival indices must come before all even (far)
        // ones: the near cluster sits at small Morton keys.
        let first_far = order.iter().position(|&i| i % 2 == 0).unwrap();
        assert!(
            order[first_far..].iter().all(|&i| i % 2 == 0),
            "clusters interleaved in {order:?}"
        );
    }

    #[test]
    fn equal_and_degenerate_centres_keep_arrival_order() {
        let q = Rect::from_point(Point::new(3.0, 4.0));
        let order = morton_schedule(&[q, q, q, q]);
        assert_eq!(order, vec![0, 1, 2, 3]);
        // Degenerate y axis: keys reduce to x order, ties stable.
        let line: Vec<Rect> = [2.0, 1.0, 2.0, 0.0]
            .iter()
            .map(|&x| Rect::from_point(Point::new(x, 7.0)))
            .collect();
        assert_eq!(morton_schedule(&line), vec![3, 1, 0, 2]);
    }

    #[test]
    fn schedule_into_reused_buffers_equals_a_stable_sort_by_key() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (mut order, mut keys) = (Vec::new(), Vec::new());
        for len in [0usize, 1, 2, 64, 300, 64, 5] {
            // Centres on a coarse grid, so many keys tie.
            let queries: Vec<Rect> = (0..len)
                .map(|_| {
                    let x = f64::from(rng.gen_range(0..6u8));
                    let y = f64::from(rng.gen_range(0..6u8));
                    Rect::new(x, y, x + 1.0, y + 1.0)
                })
                .collect();
            morton_schedule_into(&queries, &mut order, &mut keys);
            let mut stable: Vec<u32> = (0..len as u32).collect();
            if len >= 2 {
                stable.sort_by_key(|&i| keys[i as usize]);
            }
            assert_eq!(order, stable, "len {len}");
            assert_eq!(order, morton_schedule(&queries), "len {len}");
        }
    }

    #[test]
    fn tiny_batches_are_identity() {
        assert_eq!(morton_schedule(&[]), Vec::<u32>::new());
        assert_eq!(
            morton_schedule(&[Rect::new(0.0, 0.0, 1.0, 1.0)]),
            vec![0u32]
        );
    }
}
