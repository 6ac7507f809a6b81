//! A transparent wrapper that counts every 64-bit draw.
//!
//! The paper's Theorem 1 bounds the number of random numbers per processor by
//! `O(m)`, and Section 3 reports that sampling one hypergeometric variate
//! costs fewer than `1.5` uniform draws on average and at most `10` in the
//! worst case.  [`CountingRng`] lets the experiment harness observe those
//! numbers directly: wrap any [`RandomSource`], run the algorithm, read
//! [`CountingRng::count`].

use crate::traits::RandomSource;

/// Wraps a [`RandomSource`] and counts how many `u64` words were drawn.
///
/// ```
/// use cgp_rng::{CountingRng, Pcg64, RandomExt};
/// let mut rng = CountingRng::new(Pcg64::seed_from_u64(1));
/// let _ = rng.gen_f64();
/// let _ = rng.gen_index(10);
/// assert!(rng.count() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    count: u64,
}

impl<R: RandomSource> CountingRng<R> {
    /// Wraps `inner`, starting the counter at zero.
    pub fn new(inner: R) -> Self {
        CountingRng { inner, count: 0 }
    }

    /// Number of `u64` draws made through this wrapper so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&mut self) -> u64 {
        std::mem::take(&mut self.count)
    }

    /// Consumes the wrapper, returning the inner generator and the final
    /// count.
    pub fn into_parts(self) -> (R, u64) {
        (self.inner, self.count)
    }

    /// Shared access to the wrapped generator.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Mutable access to the wrapped generator **without counting** — only
    /// for tests that need to perturb the inner state.
    pub fn inner_mut_uncounted(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: RandomSource> RandomSource for CountingRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.count += 1;
        self.inner.next_u64()
    }
}

/// Helper that measures the number of draws consumed by a closure.
///
/// Returns `(closure_result, draws)`.
pub fn count_draws<R, T>(rng: R, f: impl FnOnce(&mut CountingRng<R>) -> T) -> (T, u64)
where
    R: RandomSource,
{
    let mut counting = CountingRng::new(rng);
    let out = f(&mut counting);
    let draws = counting.count();
    (out, draws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::Pcg64;
    use crate::traits::RandomExt;

    #[test]
    fn counts_every_draw() {
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(1));
        for _ in 0..17 {
            let _ = rng.next_u64();
        }
        assert_eq!(rng.count(), 17);
    }

    #[test]
    fn reset_returns_previous_value() {
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(1));
        let _ = rng.next_u64();
        let _ = rng.next_u64();
        assert_eq!(rng.reset(), 2);
        assert_eq!(rng.count(), 0);
    }

    #[test]
    fn wrapper_is_transparent() {
        // The wrapped generator must produce exactly the same sequence as an
        // unwrapped one.
        let mut plain = Pcg64::seed_from_u64(99);
        let mut counted = CountingRng::new(Pcg64::seed_from_u64(99));
        for _ in 0..64 {
            assert_eq!(plain.next_u64(), counted.next_u64());
        }
    }

    #[test]
    fn shuffle_draws_between_a_sixth_and_a_third_of_a_word_per_item() {
        // The batched kernel draws one word per batch of 3 to 6 indices
        // below 2^19 items (plus rare rejections); this pins the O(n)
        // random-number budget of the sequential reference algorithm.
        let n = 10_000u64;
        let (_, draws) = count_draws(Pcg64::seed_from_u64(5), |rng| {
            let mut v: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut v);
            v
        });
        assert!(
            (n / 6..=n / 3 + 64).contains(&draws),
            "{draws} draws for {n} items"
        );
    }

    #[test]
    fn into_parts_preserves_state() {
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(123));
        let a = rng.next_u64();
        let (mut inner, count) = rng.into_parts();
        assert_eq!(count, 1);
        // inner continues the sequence after `a`.
        let b = inner.next_u64();
        let mut reference = Pcg64::seed_from_u64(123);
        assert_eq!(reference.next_u64(), a);
        assert_eq!(reference.next_u64(), b);
    }
}
