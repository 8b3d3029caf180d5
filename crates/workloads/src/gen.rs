//! Shared sampling helpers for the seeded workload generators.
//!
//! Only inverse-transform sampling on top of [`SplitMix64`]'s uniform
//! draws is used, so the generators stay deterministic under a fixed seed
//! and need no distribution crates.

use crate::rng::SplitMix64;
use ees_iotrace::Micros;

/// Samples an exponential inter-arrival time with the given mean.
pub fn exp_duration(rng: &mut SplitMix64, mean: Micros) -> Micros {
    let u: f64 = rng.gen_range(1e-12..1.0);
    Micros::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Samples a uniform duration in `[lo, hi)`.
pub fn uniform_duration(rng: &mut SplitMix64, lo: Micros, hi: Micros) -> Micros {
    debug_assert!(lo < hi);
    Micros(rng.gen_range(lo.0..hi.0))
}

/// Samples a size from a coarse log-uniform distribution in `[lo, hi)`
/// bytes — a serviceable stand-in for the heavy-tailed file/table size
/// distributions of real systems.
pub fn log_uniform_size(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo > 0 && lo < hi);
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    (rng.gen_range(llo..lhi)).exp() as u64
}

/// Rounds a byte offset down to a 4 KiB block boundary.
pub fn block_align(offset: u64) -> u64 {
    offset & !4095
}

/// Samples a block-aligned offset within an item of `size` bytes that can
/// still fit a request of `len` bytes.
pub fn random_offset(rng: &mut SplitMix64, size: u64, len: u32) -> u64 {
    let max = size.saturating_sub(len as u64);
    if max == 0 {
        0
    } else {
        block_align(rng.gen_range(0..=max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_duration_has_roughly_the_right_mean() {
        let mut rng = SplitMix64::new(7);
        let mean = Micros::from_secs(10);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| exp_duration(&mut rng, mean).as_secs_f64())
            .sum();
        let avg = total / n as f64;
        assert!((avg - 10.0).abs() < 0.3, "sample mean {avg}");
    }

    #[test]
    fn uniform_duration_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let d = uniform_duration(&mut rng, Micros(10), Micros(20));
            assert!(d.0 >= 10 && d.0 < 20);
        }
    }

    #[test]
    fn log_uniform_spans_orders_of_magnitude() {
        let mut rng = SplitMix64::new(7);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..2000 {
            let s = log_uniform_size(&mut rng, 1 << 20, 1 << 30);
            assert!((1 << 20..1 << 30).contains(&s));
            if s < 1 << 23 {
                small += 1;
            }
            if s > 1 << 27 {
                large += 1;
            }
        }
        assert!(small > 100, "log-uniform should visit the low decades");
        assert!(large > 100, "log-uniform should visit the high decades");
    }

    #[test]
    fn offsets_are_block_aligned_and_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let off = random_offset(&mut rng, 1 << 20, 65536);
            assert_eq!(off % 4096, 0);
            assert!(off + 65536 <= 1 << 20);
        }
        assert_eq!(random_offset(&mut rng, 100, 200), 0, "tiny items pin to 0");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let a: Vec<u64> = {
            let mut rng = SplitMix64::new(42);
            (0..10)
                .map(|_| exp_duration(&mut rng, Micros(1000)).0)
                .collect()
        };
        let b: Vec<u64> = {
            let mut rng = SplitMix64::new(42);
            (0..10)
                .map(|_| exp_duration(&mut rng, Micros(1000)).0)
                .collect()
        };
        assert_eq!(a, b);
    }
}
