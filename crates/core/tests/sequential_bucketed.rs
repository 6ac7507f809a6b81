//! The sequential bucketed shuffle is the pipeline on one processor.
//!
//! `LocalShuffle::Bucketed { bucket_items: b }` draws one word `w` from the
//! caller's generator and runs the one scatter level of Algorithm 1 on a
//! one-processor machine seeded with `w`, serially on the calling thread.
//! So its output must be exactly what `Permuter::new(1).seed(w)` with
//! `b`-item windows emits on the threaded one-shot machine, for every
//! `n > b`.  These pins cross the serial and the threaded runner, and
//! check that the sequential call spawns no thread.

use cgp_cgm::diag;
use cgp_core::{default_bucket_items, BucketScratch, LocalShuffle, Permuter, MAX_SCATTER_BUCKETS};
use cgp_rng::{Pcg64, RandomSource};

/// The bucketed shuffle of `data` from a generator seeded with `seed`,
/// and the word that generator draws next (the call must leave it exactly
/// one word on).
fn sequential<T: Send + 'static>(
    seed: u64,
    bucket_items: usize,
    mut data: Vec<T>,
    scratch: &mut BucketScratch<T>,
) -> (Vec<T>, u64) {
    let mut rng = Pcg64::seed_from_u64(seed);
    LocalShuffle::Bucketed { bucket_items }.shuffle_vec_with(&mut rng, &mut data, scratch);
    (data, rng.next_u64())
}

/// What the threaded one-processor pipeline emits for the word the
/// sequential call draws, and the word after it.
fn pipeline<T: Send + 'static>(seed: u64, bucket_items: usize, data: Vec<T>) -> (Vec<T>, u64) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let w = rng.next_u64();
    let out = Permuter::new(1)
        .seed(w)
        .window_items(bucket_items)
        .permute(data)
        .0;
    (out, rng.next_u64())
}

/// Every shape of `n > b`: one item past a bucket, whole buckets, an
/// uneven last bucket, and more than `MAX_SCATTER_BUCKETS` buckets (whose
/// size the engine raises).
#[test]
fn a_bucketed_shuffle_is_the_one_processor_pipeline() {
    let mut scratch = BucketScratch::new();
    for b in [1usize, 2, 16, 100] {
        let many = MAX_SCATTER_BUCKETS * b + 3;
        for n in [b + 1, 4 * b, 6 * b + b.div_ceil(2), many] {
            for seed in [7u64, 0xB0C4_E7ED] {
                let case = format!("b = {b}, n = {n}, seed = {seed:#x}");
                let identity: Vec<u64> = (0..n as u64).collect();
                let got = sequential(seed, b, identity.clone(), &mut scratch);
                assert_eq!(got, pipeline(seed, b, identity), "{case}");
            }
        }
    }
}

/// The same identity for a payload with a destructor, at the default
/// bucket size of its type.
#[test]
fn the_identity_holds_for_owned_payloads_at_the_default_bucket_size() {
    type Item = String;
    let b = default_bucket_items::<Item>();
    let items = || {
        (0..3 * b as u64 + 5)
            .map(|i| i.to_string())
            .collect::<Vec<Item>>()
    };
    let got = sequential(11, b, items(), &mut BucketScratch::new());
    assert_eq!(got, pipeline(11, b, items()));
}

/// The sequential engine runs on the calling thread: no worker thread is
/// spawned, whatever the number of buckets.
#[test]
fn a_bucketed_shuffle_spawns_no_thread() {
    let mut scratch = BucketScratch::new();
    let mut rng = Pcg64::seed_from_u64(3);
    let n = 5 * default_bucket_items::<u64>() + 1;
    let before = diag::startup_counters();
    for engine in [
        LocalShuffle::bucketed_for::<u64>(),
        LocalShuffle::Bucketed { bucket_items: 1 },
    ] {
        let mut data: Vec<u64> = (0..n as u64).collect();
        engine.shuffle_vec_with(&mut rng, &mut data, &mut scratch);
        data.sort_unstable();
        assert_eq!(data, (0..n as u64).collect::<Vec<u64>>());
    }
    assert_eq!(diag::startup_counters().thread_spawns, before.thread_spawns);
}
