//! Sampling-based estimation (§5.3).
//!
//! A reservoir sample of the input rectangles answers queries by counting
//! matching sample rectangles and scaling by `N / n`. The paper's space
//! accounting charges a sample rectangle half a bucket (it stores only the
//! bounding box, four words) *and additionally grants Sample twice the fair
//! space*, so a budget of `β` buckets corresponds to `4β` sample rectangles
//! — the default multiplier here. The paper shows the technique performing
//! poorly despite the generous budget, because a sample rectangle implicitly
//! stands in for the placement *and size* of its whole neighbourhood.

use minskew_data::Dataset;
use minskew_geom::Rect;
use rand::{Rng, SeedableRng};

use crate::SpatialEstimator;

/// The *Sample* estimator.
#[derive(Debug, Clone)]
pub struct SamplingEstimator {
    sample: Vec<Rect>,
    input_len: usize,
}

impl SamplingEstimator {
    /// Sample rectangles granted per bucket of budget (the paper's
    /// double-generous accounting: 2 rects per bucket of space × 2).
    pub const RECTS_PER_BUCKET: usize = 4;

    /// Draws a uniform reservoir sample equivalent in (doubled) space to
    /// `buckets` buckets, i.e. `4 × buckets` rectangles (capped at the
    /// dataset size).
    pub fn build(data: &Dataset, buckets: usize, seed: u64) -> SamplingEstimator {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rects = data.rects();
        let k = (buckets * Self::RECTS_PER_BUCKET).min(rects.len());
        // Algorithm R reservoir sampling: one pass, O(N), uniform without
        // knowing N in advance (mirrors how a DBMS samples a scan).
        let mut sample: Vec<Rect> = rects.iter().take(k).copied().collect();
        for (i, &r) in rects.iter().enumerate().skip(k) {
            let j = rng.gen_range(0..=i);
            if j < k {
                sample[j] = r;
            }
        }
        SamplingEstimator {
            sample,
            input_len: rects.len(),
        }
    }

    /// Number of sampled rectangles.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }
}

impl SpatialEstimator for SamplingEstimator {
    fn estimate_count(&self, query: &Rect) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        let m = self.sample.iter().filter(|r| r.intersects(query)).count();
        m as f64 * self.input_len as f64 / self.sample.len() as f64
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn name(&self) -> &str {
        "Sample"
    }

    fn size_bytes(&self) -> usize {
        // Four words (the bounding box) per sample rectangle.
        self.sample.len() * 4 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_datagen::uniform_rects;

    #[test]
    fn full_sample_is_exact() {
        let ds = uniform_rects(500, Rect::new(0.0, 0.0, 100.0, 100.0), 2.0, 2.0, 1);
        // Budget big enough to sample everything.
        let s = SamplingEstimator::build(&ds, 1_000, 7);
        assert_eq!(s.sample_size(), 500);
        let q = Rect::new(10.0, 10.0, 60.0, 60.0);
        assert_eq!(s.estimate_count(&q), ds.count_intersecting(&q) as f64);
    }

    #[test]
    fn scaled_estimates_are_unbiased_ballpark() {
        let ds = uniform_rects(50_000, Rect::new(0.0, 0.0, 1000.0, 1000.0), 4.0, 4.0, 2);
        let s = SamplingEstimator::build(&ds, 100, 3);
        assert_eq!(s.sample_size(), 400);
        let q = Rect::new(0.0, 0.0, 500.0, 500.0); // ~ quarter of the data
        let actual = ds.count_intersecting(&q) as f64;
        let est = s.estimate_count(&q);
        assert!(
            (est - actual).abs() / actual < 0.25,
            "est {est} vs actual {actual}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = uniform_rects(2_000, Rect::new(0.0, 0.0, 100.0, 100.0), 1.0, 1.0, 4);
        let a = SamplingEstimator::build(&ds, 10, 5);
        let b = SamplingEstimator::build(&ds, 10, 5);
        let q = Rect::new(0.0, 0.0, 30.0, 30.0);
        assert_eq!(a.estimate_count(&q), b.estimate_count(&q));
    }

    #[test]
    fn space_accounting() {
        let ds = uniform_rects(10_000, Rect::new(0.0, 0.0, 100.0, 100.0), 1.0, 1.0, 6);
        let s = SamplingEstimator::build(&ds, 50, 0);
        assert_eq!(s.sample_size(), 200);
        assert_eq!(s.size_bytes(), 200 * 32);
        assert_eq!(s.name(), "Sample");
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(vec![]);
        let s = SamplingEstimator::build(&ds, 10, 0);
        assert_eq!(s.estimate_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
    }

    use minskew_data::Dataset;
}
