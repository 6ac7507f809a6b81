//! The sequential bucketed shuffle — the paper's §6 outlook on one thread.
//!
//! The closing section of the paper observes that, because the gap between
//! CPU and memory speed keeps growing, the coarse grained decomposition can
//! also pay off *sequentially*: treat cache-sized buckets like the
//! processors of a CGM, split the permutation into (a) a random
//! redistribution between the buckets governed by a communication matrix
//! and (b) independent local shuffles of buckets small enough to stay
//! cache-resident.
//!
//! The pipeline's **one scatter level** already is that construction: every
//! bucket of every target block is a virtual target of a single
//! Algorithm 1, the single-level form of Sanders' hierarchical scatter (see
//! the `parallel` module docs).  The sequential engine is that same
//! program with one processor.  [`LocalShuffle::Bucketed`] draws one word
//! from the caller's generator, seeds a one-processor machine with it and
//! runs the pipeline's runner on the calling thread alone, with windows
//! and buckets of `bucket_items` items.
//! No thread is spawned, each item gets two in-cache Fisher–Yates passes
//! and one copy, and uniformity is the pipeline's (Propositions 1–2 over
//! the buckets).  A call of at most one bucket skips the machinery: it is
//! one plain Fisher–Yates pass, byte-identical to [`fisher_yates_shuffle`].
//!
//! [`LocalShuffle`] picks between this engine and plain Fisher–Yates for
//! single-thread shuffles.  The parallel pipeline takes no such choice: it
//! picks its layout from the block sizes.

use cgp_cgm::CgmConfig;
use cgp_rng::RandomSource;

use crate::config::PermuteOptions;
use crate::parallel::{try_permute_vec_on, PermuteScratch, Runner};
use crate::sequential::fisher_yates_shuffle;

/// Byte budget one bucket may occupy, sized so that the shuffle of a bucket
/// runs against fast cache instead of main memory.
///
/// 256 KiB: comfortably inside a typical L2 (2 MiB of L2 and 48 KiB of L1d
/// on the calibration host), with room next to it for the window or bucket
/// that the pass warms ahead.  The pipeline's windows are this size; its
/// buckets start at it and may grow to four times it where runs would
/// otherwise be short (see the `parallel` module docs).  It is a constant,
/// never read from the host, so a seed maps to the same permutation on
/// every machine.
pub const BUCKET_L2_BUDGET_BYTES: usize = 256 * 1024;

/// Payload size (bytes of `n · size_of::<T>()`) past which the sequential
/// [`LocalShuffle::Auto`] flips from plain Fisher–Yates to the bucketed
/// engine.
///
/// Below this the whole working set is cache-resident and the bucket
/// machinery is pure overhead; above it the Fisher–Yates random accesses
/// start missing and the two streaming passes win.  The value is the
/// measured crossover of single-thread raw shuffles on a host whose
/// last-level cache is an unusually large 260 MiB: for `u64` payloads
/// Fisher–Yates wins outright at 32 MiB (buckets at 0.73x), the engines are
/// within a few percent of each other around 46–61 MiB, and buckets pull
/// ahead past that — 1.2x at 92 MiB, 1.4x at 122 MiB, 1.6x at 512 MiB.
/// Machines with ordinary (single-digit-MiB) last-level caches cross over
/// far earlier; pin `LocalShuffle::Bucketed` explicitly when targeting one.
pub const AUTO_CROSSOVER_BYTES: usize = 64 * 1024 * 1024;

/// Item size (bytes of one `T`) past which the sequential
/// [`LocalShuffle::Auto`] stays on Fisher–Yates regardless of the payload
/// size.
///
/// Measured on a bucketed engine that moved every item ~3 times (window
/// shuffle, run drain, bucket shuffle + concat) where Fisher–Yates moves
/// it ~2 times: for wide records the extra bulk copies dominated the
/// latency the buckets save — 64-byte and 512-byte records measured ~2x
/// slower with buckets even at DRAM-resident sizes, because a Fisher–Yates
/// swap of a multi-line record is prefetch-friendly (sequential within the
/// record).
pub const AUTO_MAX_ITEM_BYTES: usize = 16;

/// Upper bound on the number of windows of one source block, and on the
/// number of buckets of one target block, in the one scatter level.
///
/// Every window is split over all `K` virtual targets of the job, `K − 1`
/// hypergeometric draws per window, and the worker keeps one demand, one
/// cursor and one split entry per target.  Bounding windows and buckets per
/// block bounds both: a worker draws at most `255 · (K − 1)` times.  For
/// blocks beyond `256 · BUCKET_L2_BUDGET_BYTES` (64 MiB at the default
/// budget) windows and buckets therefore grow past the L2 budget to
/// `m / 256` items — still two orders of magnitude below the working set,
/// so the cache-residency argument degrades gracefully instead of the
/// split cost growing with `n`.
pub const MAX_SCATTER_BUCKETS: usize = 256;

/// Number of items of type `T` that fit the [`BUCKET_L2_BUDGET_BYTES`]
/// bucket budget, clamped to at least 1.
///
/// Zero-sized types get the clamp too: one-item buckets are degenerate but
/// harmless (a ZST permutation has no observable order anyway).
pub fn default_bucket_items<T>() -> usize {
    (BUCKET_L2_BUDGET_BYTES / std::mem::size_of::<T>().max(1)).max(1)
}

/// Which engine a **sequential** shuffle,
/// [`LocalShuffle::shuffle_vec_with`], runs.  This is the sequential API
/// only: the parallel pipeline takes no engine choice and picks its layout
/// from the block sizes (see the `parallel` module docs).
///
/// Every variant produces an exactly uniform permutation; they differ only
/// in memory behaviour.  **Engines need not agree byte-for-byte**: for the
/// same seed, [`LocalShuffle::FisherYates`] and [`LocalShuffle::Bucketed`]
/// consume the random stream differently and emit different (equally
/// uniform) permutations, and `Auto` emits whatever the engine it resolves
/// to emits.  Pin an explicit engine if a stored permutation must be
/// reproduced across configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalShuffle {
    /// The classic single-pass Fisher–Yates (Durstenfeld) shuffle — one
    /// bounded index and one random-access swap per item, up to six indices
    /// drawn from each 64-bit word.  Optimal while the working set is
    /// cache-resident; memory-latency-bound beyond that.
    FisherYates,
    /// The pipeline's one scatter level on one processor (see the module
    /// docs): scatter the items window by window into `ceil(n /
    /// bucket_items)` buckets, then Fisher–Yates each cache-resident
    /// bucket.  `bucket_items` is clamped to at least 1 and raised so at
    /// most [`MAX_SCATTER_BUCKETS`] buckets result; use
    /// [`LocalShuffle::bucketed_for`] for the payload-aware default.
    Bucketed {
        /// Target bucket size in items.
        bucket_items: usize,
    },
    /// Picks per call: Fisher–Yates while the payload
    /// (`n · size_of::<T>()`) is at most [`AUTO_CROSSOVER_BYTES`] or the
    /// item is wider than [`AUTO_MAX_ITEM_BYTES`]; the bucketed engine with
    /// [`default_bucket_items`] buckets otherwise.  Both thresholds were
    /// measured on raw single-thread shuffles (see their docs).
    #[default]
    Auto,
}

impl LocalShuffle {
    /// The payload-aware bucketed engine: buckets sized by
    /// [`default_bucket_items::<T>()`](default_bucket_items).
    pub fn bucketed_for<T>() -> LocalShuffle {
        LocalShuffle::Bucketed {
            bucket_items: default_bucket_items::<T>(),
        }
    }

    /// Resolves the policy for a concrete call — `n` items of type `T` —
    /// to the engine that will actually run.  Never returns `Auto`.
    pub fn resolve_for<T>(&self, n: usize) -> LocalShuffle {
        match *self {
            LocalShuffle::Auto => {
                let item = std::mem::size_of::<T>();
                if item <= AUTO_MAX_ITEM_BYTES && n.saturating_mul(item) > AUTO_CROSSOVER_BYTES {
                    LocalShuffle::bucketed_for::<T>()
                } else {
                    LocalShuffle::FisherYates
                }
            }
            LocalShuffle::Bucketed { bucket_items } => LocalShuffle::Bucketed {
                bucket_items: bucket_items.max(1),
            },
            LocalShuffle::FisherYates => LocalShuffle::FisherYates,
        }
    }

    /// Uniformly permutes `data` with the selected engine.
    ///
    /// The bucketed engine draws exactly one word from `rng` (the seed of
    /// its one-processor machine) when `data` spans more than one bucket,
    /// and otherwise makes plain Fisher–Yates' draws.  Its output buffer
    /// lives in `scratch`: `data` may come back in a different allocation,
    /// and the scratch keeps the old one for the next call.  The
    /// Fisher–Yates engine ignores the scratch (and leaves it untouched),
    /// so one scratch per call site serves every policy.
    pub fn shuffle_vec_with<T: Send + 'static, R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        data: &mut Vec<T>,
        scratch: &mut BucketScratch<T>,
    ) {
        match self.resolve_for::<T>(data.len()) {
            LocalShuffle::Bucketed { bucket_items } if data.len() > bucket_items => {
                let mut runner = Runner::serial(CgmConfig::new(1).with_seed(rng.next_u64()));
                let options = PermuteOptions::new().window_items(bucket_items);
                try_permute_vec_on(&mut runner, data, &options, &mut scratch.0)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
            // One bucket: the scatter would only add a copy.
            LocalShuffle::FisherYates | LocalShuffle::Bucketed { .. } => {
                fisher_yates_shuffle(rng, data)
            }
            LocalShuffle::Auto => unreachable!("resolve_for never returns Auto"),
        }
    }
}

/// The bucket size a pass actually runs with: the requested size, clamped
/// to at least 1 and raised so the fan-out never exceeds
/// [`MAX_SCATTER_BUCKETS`].
pub(crate) fn effective_bucket_items(n: usize, bucket_items: usize) -> usize {
    bucket_items.max(1).max(n.div_ceil(MAX_SCATTER_BUCKETS))
}

/// The reusable output buffer of the bucketed engine: a
/// [`PermuteScratch`], the spare the one-processor pipeline places its
/// output into.
///
/// After a call the scratch holds the caller's former allocation as the
/// next call's spare, so a caller that shuffles same-sized vectors in a
/// loop ping-pongs between two allocations and pays for fresh pages only
/// on the first call.
#[derive(Debug)]
pub struct BucketScratch<T>(PermuteScratch<T>);

impl<T> BucketScratch<T> {
    /// An empty scratch; the spare grows on first use and is retained
    /// after.
    pub fn new() -> Self {
        BucketScratch(PermuteScratch::new())
    }

    /// Item capacity currently retained in the spare.
    pub fn retained_capacity(&self) -> usize {
        self.0.retained_capacity()
    }
}

impl<T> Default for BucketScratch<T> {
    fn default() -> Self {
        BucketScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformity::{recommended_samples, test_uniformity};
    use cgp_rng::{CountingRng, Pcg64};

    /// One bucketed shuffle of `data` with buckets of `bucket_items`.
    fn bucketed<T: Send + 'static, R: RandomSource>(
        rng: &mut R,
        data: &mut Vec<T>,
        bucket_items: usize,
    ) {
        LocalShuffle::Bucketed { bucket_items }.shuffle_vec_with(
            rng,
            data,
            &mut BucketScratch::new(),
        );
    }

    #[test]
    fn output_is_a_permutation_for_various_bucket_sizes() {
        let mut rng = Pcg64::seed_from_u64(1);
        for n in [0usize, 1, 7, 100, 10_000] {
            for bucket in [1usize, 3, 64, 100_000] {
                let mut data: Vec<u64> = (0..n as u64).collect();
                bucketed(&mut rng, &mut data, bucket);
                let mut sorted = data.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..n as u64).collect::<Vec<u64>>(),
                    "n={n} bucket={bucket}"
                );
            }
        }
    }

    #[test]
    fn single_bucket_degenerates_to_fisher_yates() {
        // Same seed, bucket >= n: identical output to the plain shuffle.
        let n = 256usize;
        let mut a = Pcg64::seed_from_u64(9);
        let mut b = Pcg64::seed_from_u64(9);
        let mut x: Vec<u64> = (0..n as u64).collect();
        let mut y: Vec<u64> = (0..n as u64).collect();
        bucketed(&mut a, &mut x, n);
        fisher_yates_shuffle(&mut b, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn uniform_with_multiple_buckets() {
        // n = 4 split into buckets of 2: exhaustive chi-square.
        let mut rng = Pcg64::seed_from_u64(3);
        let report = test_uniformity(4, recommended_samples(4, 300), |_| {
            let mut data: Vec<u64> = (0..4).collect();
            bucketed(&mut rng, &mut data, 2);
            data
        });
        assert!(report.is_uniform_at(0.001), "{:?}", report.chi_square);
        assert!(report.covers_all_permutations());
    }

    #[test]
    fn uniform_with_uneven_last_bucket() {
        // n = 5 with bucket size 2 -> buckets of 2, 2, 1.
        let mut rng = Pcg64::seed_from_u64(4);
        let report = test_uniformity(5, recommended_samples(5, 60), |_| {
            let mut data: Vec<u64> = (0..5).collect();
            bucketed(&mut rng, &mut data, 2);
            data
        });
        assert!(report.is_uniform_at(0.001), "{:?}", report.chi_square);
    }

    #[test]
    fn a_bucketed_call_draws_one_word_or_fisher_yates_draws() {
        // More than one bucket: the one word that seeds the machine.
        for (n, bucket) in [(2usize, 1usize), (4_097, 4_096), (40_000, 4_096)] {
            let mut rng = CountingRng::new(Pcg64::seed_from_u64(5));
            let mut data: Vec<u64> = (0..n as u64).collect();
            bucketed(&mut rng, &mut data, bucket);
            assert_eq!(rng.count(), 1, "n = {n}, bucket = {bucket}");
        }
        // One bucket: exactly the draws of plain Fisher–Yates.
        for n in [0usize, 1, 2, 4_096] {
            let mut rng = CountingRng::new(Pcg64::seed_from_u64(5));
            let mut data: Vec<u64> = (0..n as u64).collect();
            bucketed(&mut rng, &mut data, 4_096);
            let mut plain = CountingRng::new(Pcg64::seed_from_u64(5));
            fisher_yates_shuffle(&mut plain, &mut (0..n as u64).collect::<Vec<u64>>());
            assert_eq!(rng.count(), plain.count(), "n = {n}");
        }
    }

    #[test]
    fn bucket_fanout_is_capped() {
        // A degenerate bucket size may not explode into n single-item
        // buckets: the effective size is raised so at most
        // MAX_SCATTER_BUCKETS buckets exist, and the output is still a
        // permutation.
        assert_eq!(effective_bucket_items(100_000, 1), 391);
        assert_eq!(100_000usize.div_ceil(391), MAX_SCATTER_BUCKETS);
        // Small inputs are unaffected by the cap.
        assert_eq!(effective_bucket_items(4, 2), 2);

        let mut rng = Pcg64::seed_from_u64(44);
        let mut data: Vec<u64> = (0..100_000).collect();
        bucketed(&mut rng, &mut data, 1);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100_000).collect::<Vec<u64>>());
    }

    #[test]
    fn scratch_capacity_converges_across_calls() {
        // After the first call the scratch retains the spare, so repeated
        // same-shaped shuffles report a stable capacity.
        let mut rng = Pcg64::seed_from_u64(45);
        let mut scratch = BucketScratch::new();
        let mut caps = Vec::new();
        for _ in 0..3 {
            let mut data: Vec<u64> = (0..50_000).collect();
            LocalShuffle::Bucketed {
                bucket_items: 4_096,
            }
            .shuffle_vec_with(&mut rng, &mut data, &mut scratch);
            caps.push(scratch.retained_capacity());
        }
        assert!(caps[0] >= 50_000, "the spare covers the whole payload");
        assert_eq!(caps[1], caps[2], "capacities converge after warm-up");

        // And a warm scratch emits exactly what a fresh one emits under
        // the same seed.
        let mut a = Pcg64::seed_from_u64(46);
        let mut b = Pcg64::seed_from_u64(46);
        let mut x: Vec<u64> = (0..20_000).collect();
        let mut y = x.clone();
        bucketed(&mut a, &mut x, 1_024);
        LocalShuffle::Bucketed {
            bucket_items: 1_024,
        }
        .shuffle_vec_with(&mut b, &mut y, &mut scratch);
        assert_eq!(x, y);
    }

    #[test]
    fn the_sequential_engine_reproduces_recorded_checksums() {
        // `(seed, n, bucket_items, FNV-1a checksum, draws)`, recorded when
        // the engine became the pipeline's one scatter level on one
        // processor; the output of the sequential engine is part of its
        // API.  The single-bucket entries (n <= bucket_items) are plain
        // Fisher–Yates.
        const RECORDED: [(u64, u64, usize, u64, u64); 7] = [
            (50, 0, 32, 0xcbf2_9ce4_8422_2325, 0),
            (51, 1, 32, 0xaf63_bd4c_8601_b7df, 0),
            (52, 257, 32, 0xdd43_4201_c485_1a83, 1),
            (53, 5000, 32, 0x489d_0e47_50bb_90f7, 1),
            (54, 10_000, 1, 0xb059_9443_e3ef_4919, 1),
            (55, 4_096, 4_096, 0xd72e_780e_ec84_8a07, 907),
            (56, 3_001, 100, 0x8c97_8c44_17bb_c393, 1),
        ];
        let mut scratch = BucketScratch::new();
        for (seed, n, bucket, checksum, draws) in RECORDED {
            let mut rng = CountingRng::new(Pcg64::seed_from_u64(seed));
            let mut data: Vec<u64> = (0..n).collect();
            LocalShuffle::Bucketed {
                bucket_items: bucket,
            }
            .shuffle_vec_with(&mut rng, &mut data, &mut scratch);
            let fnv = data.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &x| {
                (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(fnv, checksum, "n = {n}, bucket = {bucket}");
            assert_eq!(rng.count(), draws, "n = {n}, bucket = {bucket}");
        }
    }

    #[test]
    fn the_multiset_is_preserved_for_repeated_values() {
        let mut rng = Pcg64::seed_from_u64(6);
        let data: Vec<u32> = (0..1000).map(|i| i % 13).collect();
        let mut out = data.clone();
        bucketed(&mut rng, &mut out, 64);
        let mut a = out.clone();
        let mut b = data.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn default_bucket_items_is_payload_aware() {
        assert_eq!(default_bucket_items::<u64>(), BUCKET_L2_BUDGET_BYTES / 8);
        assert_eq!(
            default_bucket_items::<u8>(),
            8 * default_bucket_items::<u64>()
        );
        assert_eq!(
            default_bucket_items::<[u64; 4]>(),
            default_bucket_items::<u64>() / 4
        );
        // Oversized payloads and ZSTs clamp to one item per bucket.
        assert_eq!(default_bucket_items::<[u8; 1 << 20]>(), 1);
        assert_eq!(
            default_bucket_items::<()>(),
            (BUCKET_L2_BUDGET_BYTES).max(1)
        );
    }

    #[test]
    fn auto_resolves_by_payload_bytes() {
        let auto = LocalShuffle::Auto;
        assert_eq!(
            auto.resolve_for::<u64>(1000),
            LocalShuffle::FisherYates,
            "small payloads stay on Fisher-Yates"
        );
        let big = AUTO_CROSSOVER_BYTES / std::mem::size_of::<u64>() + 1;
        assert_eq!(
            auto.resolve_for::<u64>(big),
            LocalShuffle::bucketed_for::<u64>(),
            "past the crossover Auto flips to payload-aware buckets"
        );
        // The crossover is measured in bytes, not items.
        assert_eq!(
            auto.resolve_for::<u8>(big),
            LocalShuffle::FisherYates,
            "the same item count in u8 is 8x smaller and stays below"
        );
        // Wide records stay on Fisher-Yates at any size: the scatter's
        // extra bulk copies lose to prefetch-friendly record swaps.
        assert_eq!(
            auto.resolve_for::<[u64; 8]>(big),
            LocalShuffle::FisherYates,
            "items wider than AUTO_MAX_ITEM_BYTES never bucket"
        );
        // Explicit engines resolve to themselves (with the >= 1 clamp).
        assert_eq!(
            LocalShuffle::Bucketed { bucket_items: 0 }.resolve_for::<u64>(10),
            LocalShuffle::Bucketed { bucket_items: 1 }
        );
        assert_eq!(
            LocalShuffle::FisherYates.resolve_for::<u64>(usize::MAX),
            LocalShuffle::FisherYates
        );
    }

    #[test]
    fn auto_below_crossover_is_byte_identical_to_fisher_yates() {
        let mut a = Pcg64::seed_from_u64(21);
        let mut b = Pcg64::seed_from_u64(21);
        let mut x: Vec<u64> = (0..4096).collect();
        let mut y = x.clone();
        let mut scratch = BucketScratch::new();
        LocalShuffle::Auto.shuffle_vec_with(&mut a, &mut x, &mut scratch);
        LocalShuffle::FisherYates.shuffle_vec_with(&mut b, &mut y, &mut scratch);
        assert_eq!(x, y);
    }

    #[test]
    fn auto_is_the_default_engine() {
        assert_eq!(LocalShuffle::default(), LocalShuffle::Auto);
    }

    #[test]
    fn bucketed_handles_non_copy_payloads() {
        let mut rng = Pcg64::seed_from_u64(40);
        let mut data: Vec<String> = (0..3000).map(|i| i.to_string()).collect();
        bucketed(&mut rng, &mut data, 128);
        let mut sorted: Vec<u64> = data.iter().map(|s| s.parse().unwrap()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..3000).collect::<Vec<u64>>());
    }
}
