//! Derivation of independent per-processor random streams.
//!
//! In a coarse-grained machine each of the `p` virtual processors draws its
//! own random numbers concurrently.  For reproducibility the whole run must
//! be a pure function of a single master seed, independent of thread
//! scheduling; for correctness the per-processor sequences must not overlap.
//! [`SeedSequence`] provides both: it expands a master seed into arbitrarily
//! many child seeds/streams with SplitMix64 mixing, and hands out
//! [`crate::Pcg64`] generators on distinct PCG streams.

use crate::pcg::Pcg64;
use crate::splitmix::SplitMix64;

/// Expands a master seed into independent child seeds and generators.
///
/// ```
/// use cgp_rng::{SeedSequence, RandomSource};
/// let seq = SeedSequence::new(0xDEADBEEF);
/// let mut r0 = seq.proc_stream(0);
/// let mut r1 = seq.proc_stream(1);
/// assert_ne!(r0.next_u64(), r1.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed this sequence was created from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives the `index`-th child seed.  Children are pairwise distinct
    /// with overwhelming probability (SplitMix64 mixing of a 64-bit counter).
    pub fn child_seed(&self, index: u64) -> u64 {
        // Two rounds of mixing with domain separation so that child_seed and
        // stream ids are unrelated.
        SplitMix64::mix(SplitMix64::mix(self.master ^ 0x6A09_E667_F3BC_C909).wrapping_add(index))
    }

    /// Derives a generator for virtual processor `proc_id`.
    ///
    /// The generator gets both a processor-specific state seed and a
    /// processor-specific PCG stream, so even identical state seeds could not
    /// produce overlapping sequences.
    pub fn proc_stream(&self, proc_id: usize) -> Pcg64 {
        let seed = self.child_seed(proc_id as u64);
        Pcg64::seed_stream(seed, (proc_id as u64) ^ self.master.rotate_left(17))
    }

    /// Derives a generator for a named role (e.g. the "matrix sampling"
    /// generator versus the "local shuffle" generator), useful to keep
    /// different algorithmic phases statistically decoupled while staying
    /// reproducible.
    pub fn named_stream(&self, role: &str) -> Pcg64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        for &b in role.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3); // FNV prime
        }
        Pcg64::seed_stream(self.child_seed(h), h)
    }

    /// Derives a child [`SeedSequence`] — handy for nested structures such as
    /// "per processor, per superstep" seeding.
    pub fn child_sequence(&self, index: u64) -> SeedSequence {
        SeedSequence::new(self.child_seed(index ^ 0x5DEE_CE66_D153_2DB1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::RandomSource;
    use std::collections::HashSet;

    #[test]
    fn child_seeds_are_distinct() {
        let seq = SeedSequence::new(42);
        let seeds: HashSet<u64> = (0..4096).map(|i| seq.child_seed(i)).collect();
        assert_eq!(seeds.len(), 4096);
    }

    #[test]
    fn proc_streams_reproducible() {
        let a = SeedSequence::new(1).proc_stream(3);
        let b = SeedSequence::new(1).proc_stream(3);
        let mut a = a;
        let mut b = b;
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_masters_give_different_children() {
        let a = SeedSequence::new(1).child_seed(0);
        let b = SeedSequence::new(2).child_seed(0);
        assert_ne!(a, b);
    }

    #[test]
    fn named_streams_are_decoupled() {
        let seq = SeedSequence::new(5);
        let mut m = seq.named_stream("matrix");
        let mut s = seq.named_stream("shuffle");
        let eq = (0..256).filter(|_| m.next_u64() == s.next_u64()).count();
        assert_eq!(eq, 0);
    }

    #[test]
    fn child_sequence_differs_from_parent() {
        let parent = SeedSequence::new(7);
        let child = parent.child_sequence(0);
        assert_ne!(parent.child_seed(0), child.child_seed(0));
    }

    #[test]
    fn proc_streams_are_uncorrelated_where_shared_seed_streams_are_not() {
        // The draw at which `Pcg64::seed_stream(seed, 0)` and `(seed, 1)`
        // correlate (see its docs) shows nothing for processor streams.
        let corr = crate::pcg::tests::sixth_draw_correlation(|seed| {
            let seq = SeedSequence::new(seed);
            (seq.proc_stream(0), seq.proc_stream(1))
        });
        assert!(corr.abs() < 0.01, "correlation {corr}");
    }

    #[test]
    fn many_processors_no_prefix_collisions() {
        // First outputs of 512 processor streams must be pairwise distinct.
        let seq = SeedSequence::new(0xABCD);
        let firsts: HashSet<u64> = (0..512).map(|p| seq.proc_stream(p).next_u64()).collect();
        assert_eq!(firsts.len(), 512);
    }
}
