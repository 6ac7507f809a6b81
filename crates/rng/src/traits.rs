//! The minimal random-source abstraction the workspace programs against.
//!
//! Only one method is required ([`RandomSource::next_u64`]); everything else
//! ([`RandomExt`]) is derived from it.  Keeping the required surface this
//! small makes it trivial to interpose wrappers such as
//! [`crate::CountingRng`] that meter the exact number of draws — which is how
//! the random-number budget of Theorem 1 and the "< 1.5 uniforms per
//! hypergeometric sample" claim of Section 3 are verified experimentally.

use crate::range::{bounded_u64, unit_f64};
use crate::shuffle::fisher_yates_with;

/// A source of uniformly distributed 64-bit words.
pub trait RandomSource {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Derived sampling helpers available on every [`RandomSource`].
pub trait RandomExt: RandomSource {
    /// Uniform integer in `[0, bound)` without modulo bias (Lemire's
    /// multiply-shift rejection method).  `bound` must be non-zero.
    #[inline]
    fn gen_range_u64(&mut self, bound: u64) -> u64 {
        bounded_u64(self, bound)
    }

    /// Uniform index in `[0, n)`.  Panics if `n == 0`.
    #[inline]
    fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index called with n = 0");
        bounded_u64(self, n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform `f64` in the open interval `(0, 1)` — never returns exactly
    /// `0.0`, which ratio-of-uniforms rejection samplers need to be able to
    /// take logarithms of the draw.
    #[inline]
    fn gen_open_f64(&mut self) -> f64 {
        loop {
            let x = unit_f64(self.next_u64());
            if x > 0.0 {
                return x;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.gen_f64() < p
    }

    /// In-place uniform Fisher–Yates shuffle of a slice.
    ///
    /// This is the reference sequential algorithm against which the
    /// coarse-grained algorithm's work-optimality is defined (the PRO model
    /// measures speed-up relative to a fixed sequential algorithm).  It runs
    /// the batched Durstenfeld kernel of [`crate::shuffle`], which draws up
    /// to six swap indices from each 64-bit word.
    fn shuffle<T>(&mut self, data: &mut [T]) {
        fisher_yates_with(self, data, |_| ());
    }

    /// Draws a uniformly random permutation of `0..n` as a vector.
    fn random_permutation(&mut self, n: usize) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        self.shuffle(&mut perm);
        perm
    }
}

impl<R: RandomSource + ?Sized> RandomExt for R {}

/// Allow `&mut R` to be used wherever a `RandomSource` is expected.
impl<R: RandomSource + ?Sized> RandomSource for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl RandomSource for Box<dyn RandomSource + '_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::Pcg64;

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::seed_from_u64(1);
        let mut v: Vec<u32> = (0..1000).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut rng = Pcg64::seed_from_u64(1);
        let mut empty: [u8; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42u8];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn random_permutation_has_every_element() {
        let mut rng = Pcg64::seed_from_u64(3);
        let p = rng.random_permutation(257);
        let mut seen = vec![false; 257];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Pcg64::seed_from_u64(4);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    #[test]
    fn gen_index_within_bounds() {
        let mut rng = Pcg64::seed_from_u64(5);
        for n in [1usize, 2, 3, 17, 1000] {
            for _ in 0..100 {
                assert!(rng.gen_index(n) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gen_index called with n = 0")]
    fn gen_index_zero_panics() {
        let mut rng = Pcg64::seed_from_u64(5);
        rng.gen_index(0);
    }

    #[test]
    fn mut_ref_is_a_source() {
        fn draw(r: &mut impl RandomSource) -> u64 {
            r.next_u64()
        }
        let mut rng = Pcg64::seed_from_u64(6);
        let _ = draw(&mut &mut rng);
    }
}
