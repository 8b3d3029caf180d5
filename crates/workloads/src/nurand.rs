//! TPC-C's **NURand** non-uniform random distribution (clause 2.1.6) and
//! a cumulative-weights sampler, used to give the OLTP generator its
//! record-level skew.
//!
//! `NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y−x+1)) + x`
//! produces the hot-customer / hot-item skew TPC-C mandates; we use it to
//! pick *offsets within a table fragment* so that cache-visible hot spots
//! exist inside each data item, exactly as a real TPC-C's hot warehouses
//! produce.

use crate::rng::SplitMix64;

/// The NURand constant-`A` family per TPC-C: 255 for customer last names,
/// 1023 for customer ids, 8191 for item ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NuRand {
    /// The bitwise-OR window parameter `A`.
    pub a: u64,
    /// The run-time constant `C` (chosen once per run).
    pub c: u64,
}

impl NuRand {
    /// Creates a NURand source with the given `A`, drawing `C` from `rng`.
    pub fn new(a: u64, rng: &mut SplitMix64) -> Self {
        NuRand {
            a,
            c: rng.gen_range(0..=a),
        }
    }

    /// Draws a non-uniform random value in `[x, y]`.
    pub fn next(&self, rng: &mut SplitMix64, x: u64, y: u64) -> u64 {
        debug_assert!(x <= y);
        let span = y - x + 1;
        let r1 = rng.gen_range(0..=self.a);
        let r2 = rng.gen_range(x..=y);
        (((r1 | r2) + self.c) % span) + x
    }
}

/// A fixed cumulative-weight sampler over `n` buckets (used for the
/// table-family mix in the OLTP stream).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPick {
    cumulative: Vec<f64>,
}

impl WeightedPick {
    /// Builds the sampler from non-negative weights (at least one must be
    /// positive).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "weights must be non-negative");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "at least one weight must be positive");
        WeightedPick { cumulative }
    }

    /// Draws a bucket index with probability proportional to its weight.
    pub fn pick(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().unwrap();
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` when there are no buckets (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        let nu = NuRand::new(1023, &mut rng);
        for _ in 0..10_000 {
            let v = nu.next(&mut rng, 1, 3000);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // The OR with random(0, A) concentrates mass on values whose low
        // bits are set; the top decile must be visited far more often
        // than uniform would visit it.
        let mut rng = SplitMix64::new(2);
        let nu = NuRand::new(255, &mut rng);
        let n = 100_000;
        let mut counts = vec![0u32; 1000];
        for _ in 0..n {
            counts[nu.next(&mut rng, 0, 999) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let uniform = n as f64 / 1000.0;
        assert!(
            max > uniform * 2.0,
            "hottest value {max} should exceed 2x uniform {uniform}"
        );
    }

    #[test]
    fn weighted_pick_matches_weights() {
        let mut rng = SplitMix64::new(3);
        let w = WeightedPick::new(&[0.7, 0.2, 0.1]);
        assert_eq!(w.len(), 3);
        let n = 100_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[w.pick(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.7).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.1).abs() < 0.01);
    }

    #[test]
    fn weighted_pick_handles_zero_weights() {
        let mut rng = SplitMix64::new(4);
        let w = WeightedPick::new(&[0.0, 1.0, 0.0]);
        for _ in 0..100 {
            assert_eq!(w.pick(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_pick_rejects_all_zero() {
        WeightedPick::new(&[0.0, 0.0]);
    }
}
