//! The reference sequential algorithm.
//!
//! The PRO model measures a parallel algorithm against a fixed sequential
//! reference; for random permutations that reference is the Fisher–Yates
//! (Knuth) shuffle: one pass, one bounded random integer per position,
//! `O(n)` time and `O(1)` extra space.  The workspace runs it as one batched
//! kernel ([`cgp_rng::fisher_yates_with`]) that draws up to six of those
//! integers from each 64-bit word.  Its only weakness — and the paper's
//! opening motivation — is its unpredictable memory access pattern, which
//! makes it memory-bandwidth bound (experiment E1 measures the cycles per
//! item).

use cgp_rng::{fisher_yates_with, RandomSource};

/// In-place Fisher–Yates shuffle (Durstenfeld variant).
///
/// Draws one bounded random integer per position beyond the first, up to
/// six of them from each 64-bit word ([`cgp_rng::shuffle`]): a shuffle of
/// `n ≤ 2^19` items consumes about `n / 3` words or fewer.
pub fn fisher_yates_shuffle<T, R: RandomSource + ?Sized>(rng: &mut R, data: &mut [T]) {
    fisher_yates_with(rng, data, |_| ());
}

/// Bytes per cache line that [`fisher_yates_shuffle_warming`] prefetches.
const CACHE_LINE_BYTES: usize = 64;

/// [`fisher_yates_shuffle`] of `data` that also warms `next` — the region
/// the caller shuffles after this one — into the cache while it runs.
///
/// The shuffle is the kernel of [`fisher_yates_shuffle`]: the same draws
/// and the same swaps, in the same order, so the output and the generator
/// state afterwards are identical.  On top of it, every 64-byte line of
/// `next` gets one prefetch hint into the L2 cache, spread over the pass:
/// `⌈lines / steps⌉` per step, issued after each batch of steps, and any
/// left over (when `data` has fewer than two items) after the pass.  The
/// pass's own random accesses defeat the hardware prefetcher, so without
/// the hints the next pass would start on cold lines.  A prefetch never
/// faults and never changes what the program observes; `next` is only read
/// for its address.  On targets other than x86_64 the hints are no-ops.
pub fn fisher_yates_shuffle_warming<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &mut [T],
    next: &[T],
) {
    let mut lines = LineWarmer::new(next);
    let per_step = lines.left.div_ceil(data.len().saturating_sub(1).max(1));
    fisher_yates_with(rng, data, |steps| lines.warm(per_step * steps));
    lines.warm(usize::MAX);
}

/// The cache lines of one region, handed out to the prefetcher in order.
struct LineWarmer {
    /// Address of the next line to warm.
    at: *const u8,
    /// Lines not warmed yet.
    left: usize,
}

impl LineWarmer {
    /// Every line that holds a byte of `region`.
    fn new<T>(region: &[T]) -> Self {
        let bytes = std::mem::size_of_val(region);
        let start = region.as_ptr().cast::<u8>();
        let skew = start as usize % CACHE_LINE_BYTES;
        LineWarmer {
            at: start.wrapping_sub(skew),
            left: if bytes == 0 {
                0
            } else {
                (skew + bytes).div_ceil(CACHE_LINE_BYTES)
            },
        }
    }

    /// Prefetches up to `count` more lines.
    #[inline(always)]
    fn warm(&mut self, count: usize) {
        let count = count.min(self.left);
        for _ in 0..count {
            prefetch_l2(self.at);
            self.at = self.at.wrapping_add(CACHE_LINE_BYTES);
        }
        self.left -= count;
    }
}

/// Hints the cache line holding `line` into L2.
#[inline(always)]
fn prefetch_l2(line: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE, which `_mm_prefetch` needs, is baseline on x86_64.  A
    // prefetch only computes an address: it never dereferences it, never
    // faults, and never changes what the program observes.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        _mm_prefetch::<_MM_HINT_T1>(line.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = line;
}

/// Out-of-place uniform random permutation: returns a new vector containing
/// the elements of `data` in uniformly random order.
///
/// This is the operation whose cost per item the paper reports (60–100
/// cycles per `long int` on year-2002 hardware); the out-of-place variant is
/// also the natural shape for the "permute into differently-sized target
/// blocks" generalisation.
pub fn sequential_random_permutation<T: Clone, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &[T],
) -> Vec<T> {
    let mut out: Vec<T> = data.to_vec();
    fisher_yates_shuffle(rng, &mut out);
    out
}

/// Generates a uniformly random permutation of `0..n` as indices — the
/// "permutation as data" view used by uniformity tests.
pub fn random_index_permutation<R: RandomSource + ?Sized>(rng: &mut R, n: usize) -> Vec<u64> {
    let mut idx: Vec<u64> = (0..n as u64).collect();
    fisher_yates_shuffle(rng, &mut idx);
    idx
}

/// Applies an index permutation to owned data by *moving* every item to its
/// target position: `out[i] = data[perm[i]]`.
///
/// This is the local gather of the index-permutation fast path: sample a
/// permutation of `0..n` once (e.g. with
/// [`crate::Permuter::sample_permutation`], which runs the parallel
/// algorithm on the indices), then rearrange any same-length payload locally
/// — no `Clone` and no `Send` required.  `O(n)` time; the items pass through
/// a transient `n`-slot side buffer (which also detects duplicate indices).
///
/// # Panics
/// Panics if `perm` and `data` have different lengths, or if `perm` is not a
/// permutation of `0..n` (an out-of-range or duplicate index).
pub fn apply_permutation<T>(perm: &[u64], data: Vec<T>) -> Vec<T> {
    assert_eq!(
        perm.len(),
        data.len(),
        "the permutation length must match the data length"
    );
    let n = data.len();
    let mut slots: Vec<Option<T>> = data.into_iter().map(Some).collect();
    perm.iter()
        .map(|&idx| {
            assert!((idx as usize) < n, "index {idx} out of range for {n} items");
            slots[idx as usize]
                .take()
                .unwrap_or_else(|| panic!("duplicate index {idx}: not a permutation"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_rng::{CountingRng, Pcg64};
    use cgp_stats::chi_square::chi_square_uniform;
    use cgp_stats::{factorial, permutation_rank};

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = Pcg64::seed_from_u64(1);
        let mut v: Vec<u32> = (0..500).map(|i| i % 7).collect();
        let mut expected = v.clone();
        fisher_yates_shuffle(&mut rng, &mut v);
        let mut got = v.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn out_of_place_leaves_input_untouched() {
        let mut rng = Pcg64::seed_from_u64(2);
        let data: Vec<u64> = (0..100).collect();
        let permuted = sequential_random_permutation(&mut rng, &data);
        assert_eq!(data, (0..100).collect::<Vec<u64>>());
        let mut sorted = permuted.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, data);
    }

    #[test]
    fn random_number_budget_is_linear() {
        // Widths 3 to 6 below 2^19 items: between a sixth and a third of
        // a word per item, plus rare rejections.
        let n = 50_000u64;
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(3));
        let _ = random_index_permutation(&mut rng, n as usize);
        let draws = rng.count();
        assert!(
            (n / 6..=n / 3 + 64).contains(&draws),
            "{draws} draws for {n} items"
        );
    }

    #[test]
    fn small_permutations_are_uniform() {
        // Exhaustive chi-square over all 4! = 24 permutations.
        let n = 4usize;
        let reps = 48_000u64;
        let mut rng = Pcg64::seed_from_u64(4);
        let mut counts = vec![0u64; factorial(n) as usize];
        for _ in 0..reps {
            let perm = random_index_permutation(&mut rng, n);
            let as_u32: Vec<u32> = perm.iter().map(|&x| x as u32).collect();
            counts[permutation_rank(&as_u32) as usize] += 1;
        }
        let outcome = chi_square_uniform(&counts);
        assert!(
            outcome.is_consistent_at(0.001),
            "Fisher-Yates failed uniformity: {outcome:?}"
        );
    }

    #[test]
    fn apply_permutation_gathers_without_clone() {
        #[derive(Debug, PartialEq)]
        struct Heavy(Box<u64>);
        let data: Vec<Heavy> = (0..6).map(|i| Heavy(Box::new(i))).collect();
        let perm = [2u64, 0, 5, 1, 4, 3];
        let out = apply_permutation(&perm, data);
        let values: Vec<u64> = out.iter().map(|h| *h.0).collect();
        assert_eq!(values, vec![2, 0, 5, 1, 4, 3]);
    }

    #[test]
    fn apply_permutation_matches_index_semantics() {
        // Applying a permutation to the identity reproduces the permutation.
        let mut rng = Pcg64::seed_from_u64(9);
        let perm = random_index_permutation(&mut rng, 64);
        let identity: Vec<u64> = (0..64).collect();
        assert_eq!(apply_permutation(&perm, identity), perm);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn apply_permutation_rejects_duplicates() {
        let _ = apply_permutation(&[0, 0], vec!['a', 'b']);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_permutation_rejects_out_of_range() {
        let _ = apply_permutation(&[0, 7], vec!['a', 'b']);
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = Pcg64::seed_from_u64(5);
        assert!(random_index_permutation(&mut rng, 0).is_empty());
        assert_eq!(random_index_permutation(&mut rng, 1), vec![0]);
        let empty: Vec<u8> = sequential_random_permutation(&mut rng, &[]);
        assert!(empty.is_empty());
    }
}
