//! Unbiased bounded integers and uniform floats.
//!
//! Bounded integers use Lemire's multiply–shift method (*Fast Random Integer
//! Generation in an Interval*, ACM TOMACS 2019): multiply a 64-bit draw by
//! the bound, keep the high half as the candidate, and reject only the small
//! set of low products that would introduce bias.  On average this consumes
//! barely more than one 64-bit draw per bounded integer, which matters for
//! the random-number accounting of Theorem 1.
//!
//! The Fisher–Yates kernel ([`crate::shuffle`]) draws several bounded
//! integers from one word instead, by the batched form of the same method
//! (Brackett-Rozinsky and Lemire, *Batched Ranged Random Integer
//! Generation*, Software: Practice and Experience, 2024): it keeps
//! multiplying the low half by the next bound, and rejects once, on the
//! product of all the bounds.

use crate::traits::RandomSource;

/// Uniform integer in `[0, bound)` without modulo bias.
///
/// # Panics
/// Panics if `bound == 0`.
#[inline]
pub fn bounded_u64<R: RandomSource + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "bounded_u64 called with bound = 0");
    // Lemire's algorithm.
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (bound as u128);
    let mut low = m as u64;
    if low < bound {
        // threshold = 2^64 mod bound, computed without 128-bit division.
        let threshold = bound.wrapping_neg() % bound;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128) * (bound as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// `K` independent uniform indices `j_t ∈ [0, i − t)`, `t < K`, from one
/// 64-bit word in the common case.
///
/// Multiplying the word by `i`, its low half by `i − 1`, and so on, yields
/// the mixed-radix digits of `⌊word · P / 2^64⌋`, `P = ∏ (i − t)`, as the
/// high halves, and `word · P mod 2^64` as the final low half.  So this is
/// Lemire's method for the bound `P`: rejecting the final low halves below
/// `2^64 mod P` makes the tuple exactly uniform.
///
/// `bound` carries the product of the previous batch (start with
/// `u64::MAX`).  While `i` only shrinks, that product is at least `P`, which
/// exceeds the threshold, so a low half at or above it is accepted without
/// computing the threshold; otherwise the exact `P` and its threshold are
/// computed and `bound` becomes `P`.
///
/// Callers guarantee `i ≥ K` and `P < 2^64`.
#[inline(always)]
pub(crate) fn bounded_batch<const K: usize, R: RandomSource + ?Sized>(
    rng: &mut R,
    i: u64,
    bound: &mut u64,
) -> [u64; K] {
    let mut out = [0u64; K];
    let mut low = split_word(rng.next_u64(), i, &mut out);
    if low < *bound {
        let product: u64 = (0..K as u64).map(|t| i - t).product();
        let threshold = product.wrapping_neg() % product;
        while low < threshold {
            low = split_word(rng.next_u64(), i, &mut out);
        }
        *bound = product;
    }
    out
}

/// Splits `word` into the digits `out[t] ∈ [0, i − t)` and returns the
/// final low half.
#[inline(always)]
fn split_word<const K: usize>(word: u64, i: u64, out: &mut [u64; K]) -> u64 {
    let mut low = word;
    for (t, digit) in (0u64..).zip(out.iter_mut()) {
        let m = u128::from(low) * u128::from(i - t);
        *digit = (m >> 64) as u64;
        low = m as u64;
    }
    low
}

/// Maps a 64-bit word to a uniform `f64` in `[0, 1)` using the top 53 bits.
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    // 2^-53; the mantissa of an f64 holds 53 significant bits.
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (word >> 11) as f64 * SCALE
}

/// Uniform integer in the inclusive range `[lo, hi]`.
///
/// # Panics
/// Panics if `lo > hi`.
#[inline]
pub fn range_inclusive_u64<R: RandomSource + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    assert!(lo <= hi, "range_inclusive_u64: lo > hi");
    let span = hi - lo;
    if span == u64::MAX {
        return rng.next_u64();
    }
    lo + bounded_u64(rng, span + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::Pcg64;
    use crate::splitmix::SplitMix64;

    #[test]
    fn bounded_is_below_bound() {
        let mut rng = Pcg64::seed_from_u64(1);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33, u64::MAX] {
            for _ in 0..200 {
                assert!(bounded_u64(&mut rng, bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_one_is_always_zero() {
        let mut rng = Pcg64::seed_from_u64(2);
        for _ in 0..32 {
            assert_eq!(bounded_u64(&mut rng, 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bound = 0")]
    fn bounded_zero_panics() {
        let mut rng = Pcg64::seed_from_u64(2);
        bounded_u64(&mut rng, 0);
    }

    #[test]
    fn bounded_covers_all_residues_for_small_bounds() {
        let mut rng = SplitMix64::new(3);
        let bound = 5u64;
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[bounded_u64(&mut rng, bound) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        // Chi-square-ish smoke test on 8 buckets.
        let mut rng = Pcg64::seed_from_u64(7);
        let bound = 8u64;
        let n = 80_000u64;
        let mut counts = [0u64; 8];
        for _ in 0..n {
            counts[bounded_u64(&mut rng, bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < 5.0 * expected.sqrt());
        }
    }

    #[test]
    fn unit_f64_bounds_and_resolution() {
        assert_eq!(unit_f64(0), 0.0);
        let max = unit_f64(u64::MAX);
        assert!(max < 1.0);
        assert!(max > 0.9999999999);
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut rng = Pcg64::seed_from_u64(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = range_inclusive_u64(&mut rng, 10, 13);
            assert!((10..=13).contains(&v));
            saw_lo |= v == 10;
            saw_hi |= v == 13;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn range_inclusive_degenerate() {
        let mut rng = Pcg64::seed_from_u64(9);
        assert_eq!(range_inclusive_u64(&mut rng, 5, 5), 5);
        // Full range must not overflow.
        let _ = range_inclusive_u64(&mut rng, 0, u64::MAX);
    }
}
