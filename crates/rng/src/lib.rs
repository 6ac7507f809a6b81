//! # cgp-rng — deterministic random number substrate
//!
//! The permutation algorithms of Gustedt's *"Randomized Permutations in a
//! Coarse Grained Parallel Environment"* (INRIA RR-4639) make quantitative
//! claims about the **number of random numbers** consumed per processor
//! (Theorem 1: `O(m)` random numbers per processor; Section 3: fewer than
//! `1.5` uniform draws per hypergeometric sample on average).  To be able to
//! verify these claims the project needs random number generators that are
//!
//! * **deterministic and reproducible** — every experiment can be replayed
//!   from a single `u64` seed;
//! * **splittable** — each of the `p` virtual processors needs its own
//!   statistically independent stream derived from the master seed;
//! * **countable** — the exact number of uniform draws must be observable.
//!
//! This crate provides those three properties from scratch:
//!
//! * [`SplitMix64`] — a tiny, fast generator used for seeding and stream
//!   derivation,
//! * [`Pcg64`] — the main generator (PCG XSL RR 128/64), with
//!   constant-time multi-stream support,
//! * [`CountingRng`] — a transparent wrapper that counts every `u64` draw,
//! * [`SeedSequence`] — derivation of per-processor seeds/streams,
//! * [`RandomSource`] / [`RandomExt`] — the minimal trait the rest of the
//!   workspace programs against, including unbiased bounded integers
//!   (Lemire's method) and uniform floats,
//! * [`fisher_yates_with`] — the workspace's one Fisher–Yates kernel, which
//!   draws up to six swap indices from each 64-bit word (the batched form of
//!   Lemire's method), so a cache-resident shuffle of `n ≤ 2^19` items
//!   consumes about `n / 3` words or fewer rather than `n − 1`.
//!
//! The crate also implements [`rand::RngCore`] for the concrete generators so
//! that they can be plugged into third-party code when convenient.

pub mod counting;
pub mod pcg;
pub mod range;
pub mod shuffle;
pub mod splitmix;
pub mod stream;
pub mod traits;

pub use counting::CountingRng;
pub use pcg::Pcg64;
pub use shuffle::fisher_yates_with;
pub use splitmix::SplitMix64;
pub use stream::SeedSequence;
pub use traits::{RandomExt, RandomSource};

/// Convenience constructor: the generator used throughout the workspace,
/// seeded from a single `u64`.
///
/// ```
/// use cgp_rng::{default_rng, RandomExt};
/// let mut rng = default_rng(42);
/// let x = rng.gen_index(10);
/// assert!(x < 10);
/// ```
pub fn default_rng(seed: u64) -> Pcg64 {
    Pcg64::seed_from_u64(seed)
}

/// Convenience constructor for processor-local generators: derives an
/// independent stream for virtual processor `proc_id` from `master_seed`.
///
/// Every processor obtains both a distinct state seed *and* a distinct PCG
/// stream (odd increment), so the sequences never overlap even for adjacent
/// seeds.
pub fn proc_rng(master_seed: u64, proc_id: usize) -> Pcg64 {
    SeedSequence::new(master_seed).proc_stream(proc_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rng_is_reproducible() {
        let mut a = default_rng(7);
        let mut b = default_rng(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = default_rng(1);
        let mut b = default_rng(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "two seeds should give (almost) disjoint outputs");
    }

    #[test]
    fn proc_streams_are_distinct() {
        let mut r0 = proc_rng(99, 0);
        let mut r1 = proc_rng(99, 1);
        let collisions = (0..256).filter(|_| r0.next_u64() == r1.next_u64()).count();
        assert_eq!(collisions, 0);
    }
}
