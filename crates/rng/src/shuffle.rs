//! The workspace's one Fisher–Yates kernel.
//!
//! A Durstenfeld shuffle swaps `data[i − 1]` with `data[j]`, `j` uniform in
//! `[0, i)`, for `i` from `n` down to 2.  Drawing each `j` alone costs one
//! 64-bit word and one generator step per item, and on cache-resident data
//! that step is most of the pass.  The kernel therefore draws the next `k`
//! indices `j_t ∈ [0, i − t)` from one word (the batched form of Lemire's
//! method, see [`crate::range`]) and then does the `k` swaps
//! `data[i − 1 − t] ↔ data[j_t]` in order.  The swaps are those of the
//! one-at-a-time loop, and the batch's indices are exactly uniform and
//! independent, so the output is an exactly uniform permutation.
//!
//! The width `k` is the largest that keeps the product of the `k` bounds
//! below `2^60`, so that a batch is rejected with probability below
//! `2^-4`:
//!
//! | items left `i`   | width |
//! |------------------|-------|
//! | above `2^30`     | 1     |
//! | `2^19 < i ≤ 2^30` | 2     |
//! | `2^14 < i ≤ 2^19` | 3     |
//! | `2^11 < i ≤ 2^14` | 4     |
//! | `2^9 < i ≤ 2^11`  | 5     |
//! | `6 < i ≤ 2^9`     | 6     |
//! | `i ≤ 6`           | 1     |
//!
//! A shuffle of `n` items below `2^19` thus draws about `n / 3` words or
//! fewer, against `n − 1` for the one-at-a-time loop.

use crate::range::{bounded_batch, bounded_u64};
use crate::traits::RandomSource;

/// Most items left at which indices are batched: above it, two bounds would
/// multiply to `2^60` or more, so indices are drawn one at a time.
const BATCHED_MAX: usize = 1 << 30;

/// In-place uniform Fisher–Yates shuffle of `data` (Durstenfeld order,
/// batched draws).
///
/// `after(k)` runs after each batch of `k` swaps; the `k` over one call add
/// up to `data.len() − 1` (or 0 for an empty slice).  Callers use it to pace
/// work alongside the pass, such as cache prefetches; it sees no data and
/// cannot change the draws.
pub fn fisher_yates_with<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &mut [T],
    mut after: impl FnMut(usize),
) {
    let mut i = singles(rng, data, data.len(), BATCHED_MAX, &mut after);
    i = batches::<2, T, R>(rng, data, i, 1 << 19, &mut after);
    i = batches::<3, T, R>(rng, data, i, 1 << 14, &mut after);
    i = batches::<4, T, R>(rng, data, i, 1 << 11, &mut after);
    i = batches::<5, T, R>(rng, data, i, 1 << 9, &mut after);
    i = batches::<6, T, R>(rng, data, i, 6, &mut after);
    singles(rng, data, i, 1, &mut after);
}

/// One-at-a-time Durstenfeld steps while more than `floor` items are left;
/// returns the items left.
#[inline(always)]
fn singles<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &mut [T],
    mut i: usize,
    floor: usize,
    after: &mut impl FnMut(usize),
) -> usize {
    while i > floor {
        let j = bounded_u64(rng, i as u64) as usize;
        data.swap(i - 1, j);
        i -= 1;
        after(1);
    }
    i
}

/// `K`-wide Durstenfeld steps while more than `floor ≥ K` items are left;
/// returns the items left.
#[inline(always)]
fn batches<const K: usize, T, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &mut [T],
    mut i: usize,
    floor: usize,
    after: &mut impl FnMut(usize),
) -> usize {
    let mut bound = u64::MAX;
    while i > floor {
        let js = bounded_batch::<K, R>(rng, i as u64, &mut bound);
        for (t, &j) in js.iter().enumerate() {
            data.swap(i - 1 - t, j as usize);
        }
        i -= K;
        after(K);
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountingRng;
    use crate::pcg::Pcg64;
    use cgp_stats::chi_square::chi_square_uniform;
    use cgp_stats::{factorial, permutation_rank};

    /// Significance level of every chi-square pin; the seeds are fixed, so
    /// a pass is deterministic.
    const ALPHA: f64 = 0.001;

    /// Expected count per cell of the exhaustive batteries.
    const PER_CELL: u64 = 12;

    /// Mixed-radix rank of `js`, digit `t` in `[0, n − t)`.
    fn tuple_rank(js: &[u64], n: u64) -> usize {
        (0u64..).zip(js).fold(0, |rank, (t, &j)| rank * (n - t) + j) as usize
    }

    /// How often `step` drew each of the `∏ (n − t)` index tuples, over
    /// `PER_CELL` draws per tuple.
    fn tuple_counts<const K: usize>(
        n: u64,
        seed: u64,
        mut step: impl FnMut(&mut Pcg64, u64, &mut u64) -> [u64; K],
    ) -> Vec<u64> {
        let cells: u64 = (0..K as u64).map(|t| n - t).product();
        let mut counts = vec![0u64; cells as usize];
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut bound = u64::MAX;
        for _ in 0..(cells * PER_CELL).max(2_000) {
            let js = step(&mut rng, n, &mut bound);
            counts[tuple_rank(&js, n)] += 1;
        }
        counts
    }

    fn assert_batch_uniform<const K: usize>() {
        for n in [K as u64, K as u64 + 1, K as u64 + 3] {
            let counts = tuple_counts::<K>(n, 1_000 + n, |rng, i, bound| {
                bounded_batch::<K, _>(rng, i, bound)
            });
            let outcome = chi_square_uniform(&counts);
            assert!(
                outcome.is_consistent_at(ALPHA),
                "width {K}, n = {n}: {outcome:?}"
            );
        }
    }

    #[test]
    fn every_batch_width_draws_uniform_index_tuples() {
        assert_batch_uniform::<2>();
        assert_batch_uniform::<3>();
        assert_batch_uniform::<4>();
        assert_batch_uniform::<5>();
        assert_batch_uniform::<6>();
    }

    /// A broken batch step: index 1 is drawn from the original word instead
    /// of the low half carried from index 0.
    fn uncarried<const K: usize>(rng: &mut Pcg64, i: u64, _: &mut u64) -> [u64; K] {
        let word = rng.next_u64();
        let mut out = [0u64; K];
        let mut low = word;
        for (t, digit) in (0u64..).zip(out.iter_mut()) {
            let m = u128::from(if t == 1 { word } else { low }) * u128::from(i - t);
            *digit = (m >> 64) as u64;
            low = m as u64;
        }
        out
    }

    #[test]
    fn a_batch_that_reuses_the_word_fails_the_battery() {
        fn check<const K: usize>() {
            let n = K as u64 + 1;
            let outcome = chi_square_uniform(&tuple_counts::<K>(n, 7, uncarried::<K>));
            assert!(
                !outcome.is_consistent_at(ALPHA),
                "width {K}, n = {n}: the negative control passed: {outcome:?}"
            );
        }
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
        check::<6>();
    }

    /// Exhaustive chi-square over all `n!` permutations of the kernel.
    fn assert_permutations_uniform(n: usize, seed: u64) {
        let cells = factorial(n);
        let mut counts = vec![0u64; cells as usize];
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for _ in 0..cells * PER_CELL {
            fisher_yates_with(&mut rng, &mut perm, |_| ());
            counts[permutation_rank(&perm) as usize] += 1;
        }
        let outcome = chi_square_uniform(&counts);
        assert!(outcome.is_consistent_at(ALPHA), "n = {n}: {outcome:?}");
    }

    #[test]
    fn the_smallest_six_wide_shuffles_are_uniform() {
        // n = 7 is one 6-wide batch; n = 8 adds a single draw after it.
        assert_permutations_uniform(7, 70);
        assert_permutations_uniform(8, 80);
    }

    /// A source that replays fixed words and panics when they run out.
    struct Script(std::vec::IntoIter<u64>);

    impl RandomSource for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the script ran out of words")
        }
    }

    #[test]
    fn a_rejected_batch_redraws_every_index_from_the_next_word() {
        const WORD: u64 = 0x9e37_79b9_7f4a_7c15;
        let product = 7u64 * 6 * 5 * 4 * 3 * 2;
        assert_ne!(product.wrapping_neg() % product, 0);

        let mut accepted: Vec<u32> = (0..7).collect();
        let mut one = CountingRng::new(Script(vec![WORD].into_iter()));
        fisher_yates_with(&mut one, &mut accepted, |_| ());
        assert_eq!(one.count(), 1);

        // A zero word leaves a zero low half, below the threshold, however
        // often it comes.
        for zeros in 1..=2 {
            let mut words = vec![0; zeros];
            words.push(WORD);
            let mut redrawn: Vec<u32> = (0..7).collect();
            let mut rng = CountingRng::new(Script(words.into_iter()));
            fisher_yates_with(&mut rng, &mut redrawn, |_| ());
            assert_eq!(rng.count(), zeros as u64 + 1);
            assert_eq!(redrawn, accepted, "{zeros} rejected words");
        }
    }

    /// The width schedule of the module docs, written out.
    fn oracle_width(i: usize) -> usize {
        match i {
            0..=6 => 1,
            7..=512 => 6,
            513..=2_048 => 5,
            2_049..=16_384 => 4,
            16_385..=524_288 => 3,
            524_289..=BATCHED_MAX => 2,
            _ => 1,
        }
    }

    /// The kernel without shortcuts: the exact product and threshold of
    /// every batch, widths from [`oracle_width`].
    fn oracle_shuffle<R: RandomSource>(rng: &mut R, data: &mut [u32]) {
        let mut i = data.len();
        while i > 1 {
            let k = oracle_width(i);
            let product: u64 = (0..k).map(|t| (i - t) as u64).product();
            let threshold = product.wrapping_neg() % product;
            let mut js = [0u64; 6];
            loop {
                let mut low = rng.next_u64();
                for (t, j) in js[..k].iter_mut().enumerate() {
                    let m = u128::from(low) * (i - t) as u128;
                    *j = (m >> 64) as u64;
                    low = m as u64;
                }
                if low >= threshold {
                    break;
                }
            }
            for (t, &j) in js[..k].iter().enumerate() {
                data.swap(i - 1 - t, j as usize);
            }
            i -= k;
        }
    }

    #[test]
    fn the_kernel_matches_an_oracle_with_exact_thresholds() {
        let near = |edge: usize| edge - 8..=edge + 8;
        let sizes = (0..=600)
            .chain(near(1 << 9))
            .chain(near(1 << 11))
            .chain(near(1 << 14))
            .chain(near(1 << 19));
        for n in sizes {
            let seed = n as u64;
            let mut kernel = CountingRng::new(Pcg64::seed_from_u64(seed));
            let mut got: Vec<u32> = (0..n as u32).collect();
            let mut steps = 0;
            fisher_yates_with(&mut kernel, &mut got, |k| steps += k);
            assert_eq!(steps, n.saturating_sub(1), "n = {n}");

            let mut oracle = CountingRng::new(Pcg64::seed_from_u64(seed));
            let mut want: Vec<u32> = (0..n as u32).collect();
            oracle_shuffle(&mut oracle, &mut want);
            assert_eq!(kernel.count(), oracle.count(), "n = {n}: words drawn");
            assert!(got == want, "n = {n}: the permutations differ");
        }
    }
}
