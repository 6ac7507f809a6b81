//! PCG XSL RR 128/64 — the workhorse generator of the workspace.
//!
//! PCG (O'Neill, *PCG: A Family of Simple Fast Space-Efficient Statistically
//! Good Algorithms for Random Number Generation*, 2014) combines a 128-bit
//! linear congruential generator with a xor-shift-low + random-rotation
//! output permutation.  The variant implemented here (`XSL RR 128/64`) emits
//! 64 bits per step, has period `2^128` per stream, and supports `2^127`
//! statistically independent streams selected by the (odd) increment.
//!
//! Multi-stream support is exactly what a coarse-grained machine needs: each
//! of the `p` virtual processors draws from its own stream derived from the
//! master seed (see [`crate::SeedSequence`]), so runs are reproducible
//! regardless of thread scheduling.

use crate::splitmix::{fill_bytes_from_u64, SplitMix64};
use crate::traits::RandomSource;

/// Default multiplier of the 128-bit LCG (from the PCG reference
/// implementation).
const PCG_MULTIPLIER: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// Default increment (stream) of the PCG reference implementation; any odd
/// value works, each odd value selects a distinct stream.
const PCG_DEFAULT_INCREMENT: u128 = 0x5851_F42D_4C95_7F2D_1405_7B7E_F767_814F;

/// The PCG XSL RR 128/64 generator.
///
/// ```
/// use cgp_rng::{Pcg64, RandomSource, RandomExt};
/// let mut rng = Pcg64::seed_from_u64(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// assert!(rng.gen_f64() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    /// Odd increment selecting the stream.
    increment: u128,
}

impl Pcg64 {
    /// Creates a generator from full 128-bit state and stream values.
    ///
    /// `stream` may be any value; it is mapped to an odd increment
    /// internally (`2*stream + 1`), so distinct `stream` values in
    /// `0..2^127` give distinct sequences.
    pub fn new(state: u128, stream: u128) -> Self {
        let increment = (stream << 1) | 1;
        let mut pcg = Pcg64 {
            state: 0,
            increment,
        };
        // Standard PCG seeding: advance once, add the seed, advance again so
        // that the first output already depends on every seed bit.
        pcg.step();
        pcg.state = pcg.state.wrapping_add(state);
        pcg.step();
        pcg
    }

    /// Seeds state and stream from a single `u64` via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let lo = sm.next() as u128;
        let hi = sm.next() as u128;
        let state = (hi << 64) | lo;
        Pcg64 {
            state: Self::seeded_state(state, PCG_DEFAULT_INCREMENT),
            increment: PCG_DEFAULT_INCREMENT,
        }
    }

    /// Seeds a generator on an explicit stream id, expanding the `u64` seed
    /// with SplitMix64.
    ///
    /// Generators that share `seed` and differ only in `stream` are **not**
    /// independent: their 128-bit states differ by an offset that does not
    /// depend on the seed, so their outputs are correlated at particular
    /// draw indices.  Over 200 000 seeds, streams 0 and 1 gave a correlation
    /// coefficient of −0.05 between their sixth outputs, and streams 0 and 2
    /// gave −0.06 at the 48th.  Do not derive per-processor generators this
    /// way; use [`crate::SeedSequence::proc_stream`], which gives every
    /// processor its own child seed as well as its own stream.
    pub fn seed_stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let lo = sm.next() as u128;
        let hi = sm.next() as u128;
        // Scramble the stream id as well so that nearby processor ids do not
        // produce arithmetically related increments.
        let s_lo = SplitMix64::mix(stream) as u128;
        let s_hi = SplitMix64::mix(stream ^ 0xA5A5_A5A5_A5A5_A5A5) as u128;
        Pcg64::new((hi << 64) | lo, (s_hi << 64) | s_lo)
    }

    #[inline]
    fn seeded_state(seed_state: u128, increment: u128) -> u128 {
        // Equivalent to the two-step seeding in `new`, specialised for the
        // default increment path.
        let mut state: u128 = 0;
        state = state.wrapping_mul(PCG_MULTIPLIER).wrapping_add(increment);
        state = state.wrapping_add(seed_state);
        state.wrapping_mul(PCG_MULTIPLIER).wrapping_add(increment)
    }

    /// Advances the LCG by one step.
    #[inline]
    fn step(&mut self) {
        self.state = self
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(self.increment);
    }

    /// The XSL-RR output permutation: xor the high and low halves and rotate
    /// by the top 6 bits of the state.
    #[inline]
    fn output(state: u128) -> u64 {
        let xored = ((state >> 64) as u64) ^ (state as u64);
        let rot = (state >> 122) as u32;
        xored.rotate_right(rot)
    }

    /// Produces the next 64 random bits.
    ///
    /// Named after the generator literature's convention; this is not an
    /// `Iterator` (a generator never ends, so there is no `None`).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.step();
        Self::output(self.state)
    }

    /// Jump the generator ahead by `delta` steps in `O(log delta)` time
    /// (Brown's LCG jump-ahead algorithm).  Useful for carving one long
    /// sequence into provably non-overlapping sub-sequences.
    pub fn advance(&mut self, mut delta: u128) {
        let mut acc_mult: u128 = 1;
        let mut acc_plus: u128 = 0;
        let mut cur_mult = PCG_MULTIPLIER;
        let mut cur_plus = self.increment;
        while delta > 0 {
            if delta & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(cur_mult);
                acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            delta >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }

    /// Returns the raw 128-bit state (diagnostics / tests only).
    pub fn state(&self) -> u128 {
        self.state
    }

    /// Returns the stream increment (always odd).
    pub fn increment(&self) -> u128 {
        self.increment
    }
}

impl RandomSource for Pcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

impl rand::RngCore for Pcg64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_from_u64(dest, || self.next());
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        rand::RngCore::fill_bytes(self, dest);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::traits::RandomExt;

    #[test]
    fn increment_is_always_odd() {
        for stream in [0u128, 1, 2, 12345, u128::MAX >> 1] {
            let pcg = Pcg64::new(7, stream);
            assert_eq!(pcg.increment() & 1, 1);
        }
    }

    #[test]
    fn streams_do_not_collide() {
        let mut a = Pcg64::seed_stream(11, 0);
        let mut b = Pcg64::seed_stream(11, 1);
        let eq = (0..1024).filter(|_| a.next() == b.next()).count();
        assert_eq!(eq, 0);
    }

    /// Correlation coefficient of the sixth outputs of two generators over
    /// 200 000 seeds.
    pub(crate) fn sixth_draw_correlation(pair: impl Fn(u64) -> (Pcg64, Pcg64)) -> f64 {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let seeds = 200_000u64;
        let sum: f64 = (0..seeds)
            .map(|seed| {
                let (mut a, mut b) = pair(seed);
                a.advance(5);
                b.advance(5);
                unit(a.next()) * unit(b.next())
            })
            .sum();
        12.0 * sum / seeds as f64
    }

    #[test]
    fn streams_sharing_a_seed_are_correlated() {
        // The states of two streams under one seed differ by a
        // seed-independent offset (see `seed_stream`).
        let corr = sixth_draw_correlation(|seed| {
            (Pcg64::seed_stream(seed, 0), Pcg64::seed_stream(seed, 1))
        });
        assert!(corr < -0.04, "correlation {corr}");
    }

    #[test]
    fn advance_matches_stepping() {
        let mut a = Pcg64::seed_from_u64(5);
        let mut b = a.clone();
        for _ in 0..1000 {
            a.next();
        }
        b.advance(1000);
        assert_eq!(a.next(), b.next());
    }

    #[test]
    fn advance_zero_is_identity() {
        let mut a = Pcg64::seed_from_u64(5);
        let before = a.state();
        a.advance(0);
        assert_eq!(a.state(), before);
    }

    #[test]
    fn output_is_roughly_balanced() {
        // Count bits over a few thousand outputs; each bit position should be
        // set close to half of the time.  This is a smoke test, not a
        // statistical suite.
        let mut rng = Pcg64::seed_from_u64(2024);
        let n = 4096u64;
        let mut ones = [0u64; 64];
        for _ in 0..n {
            let x = rng.next();
            for (i, o) in ones.iter_mut().enumerate() {
                *o += (x >> i) & 1;
            }
        }
        for (i, &o) in ones.iter().enumerate() {
            let frac = o as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.05, "bit {i} biased: {frac}");
        }
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn rand_rngcore_interop() {
        use rand::Rng;
        let mut rng = Pcg64::seed_from_u64(77);
        let v: u32 = rng.gen_range(0..100);
        assert!(v < 100);
    }
}
