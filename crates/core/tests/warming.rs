//! `fisher_yates_shuffle_warming` is `fisher_yates_shuffle` plus cache
//! hints: for every length, every item type and every `next` region it must
//! make the same draws, leave the same output and the same generator state,
//! and leave `next` untouched.

use std::fmt::Debug;

use cgp_core::{fisher_yates_shuffle, fisher_yates_shuffle_warming};
use cgp_rng::{Pcg64, RandomSource};
use proptest::prelude::*;

/// Runs both shuffles from the same generator state on copies of `data`
/// and checks that they agree.
fn check<T: Clone + PartialEq + Debug>(seed: u64, data: &[T], next: &[T]) {
    let mut warming_rng = Pcg64::seed_from_u64(seed);
    let mut plain_rng = warming_rng.clone();
    let before = next.to_vec();
    let mut warmed = data.to_vec();
    fisher_yates_shuffle_warming(&mut warming_rng, &mut warmed, next);
    let mut plain = data.to_vec();
    fisher_yates_shuffle(&mut plain_rng, &mut plain);
    assert_eq!(warmed, plain, "output, {} items", data.len());
    assert_eq!(
        warming_rng.next_u64(),
        plain_rng.next_u64(),
        "generator state after {} items",
        data.len()
    );
    assert_eq!(next, &before[..], "next region");
}

/// Checks every covered item type with `len` items and a `next_len`-item
/// next region.
fn check_all_types(seed: u64, len: usize, next_len: usize) {
    let items = |n: usize, from: usize| (from..from + n).collect::<Vec<usize>>();
    let (data, next) = (items(len, 0), items(next_len, len));
    let bytes = |v: &[usize]| v.iter().map(|&i| i as u8).collect::<Vec<u8>>();
    check(seed, &bytes(&data), &bytes(&next));
    let words = |v: &[usize]| v.iter().map(|&i| i as u64).collect::<Vec<u64>>();
    check(seed, &words(&data), &words(&next));
    let lines = |v: &[usize]| {
        v.iter()
            .map(|&i| std::array::from_fn(|k| (i * 8 + k) as u64))
            .collect::<Vec<[u64; 8]>>()
    };
    check(seed, &lines(&data), &lines(&next));
    check(seed, &vec![(); len], &vec![(); next_len]);
    let strings = |v: &[usize]| v.iter().map(|i| i.to_string()).collect::<Vec<String>>();
    check(seed, &strings(&data), &strings(&next));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any length up to 300, with a next region that is empty, shorter or
    /// longer than the shuffled one.
    #[test]
    fn warming_matches_fisher_yates(
        seed in any::<u64>(),
        len in 0usize..=300,
        next_len in 0usize..=600,
    ) {
        check_all_types(seed, len, next_len);
    }
}

#[test]
fn every_next_shape_matches_at_every_short_length() {
    for len in 0..=300 {
        for next_len in [0, len / 2, len, 2 * len + 1] {
            check_all_types(len as u64, len, next_len);
        }
    }
}

#[test]
fn a_next_region_off_the_line_grid_is_left_untouched() {
    // Sub-slices of one buffer at every offset within a cache line.
    let buffer: Vec<u8> = (0..=255).collect();
    for offset in 0..64 {
        check(7, &buffer[..100], &buffer[offset..offset + 150]);
    }
}

#[test]
fn a_window_of_two_to_the_sixteen_matches() {
    let n = 1 << 16;
    let data: Vec<u64> = (0..n).collect();
    let next: Vec<u64> = (n..3 * n).collect();
    for next_len in [0, n as usize / 2, 2 * n as usize] {
        check(11, &data, &next[..next_len]);
    }
}
