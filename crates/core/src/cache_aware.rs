//! The bucketed local-shuffle engine — the paper's §6 outlook, grown up.
//!
//! The closing section of the paper observes that, because the gap between
//! CPU and memory speed keeps growing, the coarse grained decomposition can
//! also pay off *sequentially*: treat the machine's cache hierarchy like the
//! processors of a CGM, split the permutation into (a) a random
//! redistribution between `k` buckets governed by a communication matrix and
//! (b) independent local shuffles of buckets small enough to stay
//! cache-resident.  Phase (a) shuffles one cache-sized *window* of the
//! input at a time and streams consecutive runs of it into the buckets with
//! bulk moves (instead of the Fisher–Yates random writes over the whole
//! array), and phase (b) only ever touches one cache-sized bucket at a
//! time.
//!
//! The construction mirrors Algorithm 1 exactly, with "virtual processors" =
//! buckets, so uniformity follows from the same argument (Propositions 1–2):
//! the bucket sizes follow the multivariate hypergeometric law a uniform
//! permutation induces, the assignment of items to buckets given those sizes
//! is uniform, and each bucket is shuffled uniformly.  [`bucketed_shuffle`]
//! is the sequential engine, and [`LocalShuffle`] picks between it and
//! plain Fisher–Yates for the sequential entry points.
//!
//! The parallel pipeline has no such knob and does not nest this engine
//! inside Algorithm 1's local shuffles.  When some block holds more than
//! four windows of [`default_bucket_items`] items it runs **one scatter
//! level** instead: every bucket of every target block is a virtual target
//! of a single Algorithm 1 over the whole job (see the `parallel` module
//! docs).  There each item gets two in-cache Fisher–Yates passes and one
//! copy, the same single copy the Fisher–Yates path makes.
//!
//! "In-cache" needs help: a window or bucket is far larger than the reach
//! of the hardware prefetcher, which the shuffle's random accesses defeat
//! anyway, so a pass would start on cold lines.  Both engines therefore
//! shuffle with [`crate::fisher_yates_shuffle_warming`], which hints the
//! *next* window or bucket into L2 while the current one is shuffled — the
//! same draws and the same output as plain Fisher–Yates, so no recorded
//! permutation changes.

use cgp_rng::RandomSource;

use crate::sequential::{fisher_yates_shuffle, fisher_yates_shuffle_warming};

/// Byte budget one bucket may occupy, sized so that the phase-(b) shuffle of
/// a bucket runs against fast cache instead of main memory.
///
/// 256 KiB: comfortably inside a typical L2 (2 MiB of L2 and 48 KiB of L1d
/// on the calibration host; a quarter-megabyte bucket leaves room for the
/// scatter chunk, the draw buffer and the bucket cursors next to it).  It
/// is a constant, never read from the host, so a seed maps to the same
/// permutation on every machine.
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
/// The sequential scatter moves every item ~3 times (window shuffle, run
/// drain, bucket shuffle + concat) where Fisher–Yates moves it ~2 times;
/// for wide records the extra bulk copies dominate the latency the buckets
/// save — 64-byte and 512-byte records measured ~2x slower with buckets
/// even at DRAM-resident sizes, because a Fisher–Yates swap of a multi-line
/// record is prefetch-friendly (sequential within the record).
pub const AUTO_MAX_ITEM_BYTES: usize = 16;

/// Upper bound on the number of buckets one scatter pass fans out to.
///
/// Bounding the fan-out keeps the per-window bookkeeping (the
/// hypergeometric row, the sinks' headers and cursors) cache-resident and
/// the total row-sampling work at `O(k²) ≤ 64k` draws per pass.  For
/// payloads beyond `256 · BUCKET_L2_BUDGET_BYTES` (64 MiB at the default
/// budget) buckets therefore grow past the L2 budget to `total / 256` —
/// still two orders of magnitude below the working set, so the
/// cache-residency argument degrades gracefully instead of the bookkeeping
/// blowing up.
pub const MAX_SCATTER_BUCKETS: usize = 256;

/// Default bucket size **in items, for `u64` payloads** — the
/// [`BUCKET_L2_BUDGET_BYTES`] budget divided by `size_of::<u64>()`.
///
/// Prefer [`default_bucket_items`], which derives the item count from the
/// actual payload type instead of assuming 8-byte items.
pub const DEFAULT_BUCKET_ITEMS: usize = BUCKET_L2_BUDGET_BYTES / std::mem::size_of::<u64>();

/// Number of items of type `T` that fit the [`BUCKET_L2_BUDGET_BYTES`]
/// bucket budget, clamped to at least 1.
///
/// Zero-sized types get the clamp too: one-item buckets are degenerate but
/// harmless (a ZST permutation has no observable order anyway).
pub fn default_bucket_items<T>() -> usize {
    (BUCKET_L2_BUDGET_BYTES / std::mem::size_of::<T>().max(1)).max(1)
}

/// Which engine a **sequential** shuffle runs: [`LocalShuffle::shuffle_vec`],
/// [`LocalShuffle::shuffle_vec_with`] and
/// [`LocalShuffle::sample_permutation`].  This is the sequential API only:
/// the parallel pipeline takes no engine choice and picks its layout from
/// the block sizes (see the `parallel` module docs).
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
    /// The two-phase bucketed scatter shuffle of [`bucketed_shuffle`]:
    /// stream the items into `ceil(n / bucket_items)` buckets (sizes
    /// governed by the multivariate hypergeometric law), then Fisher–Yates
    /// each cache-resident bucket.  `bucket_items` is clamped to at least
    /// 1; use
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

    /// Uniformly permutes `data` in place with the selected engine.
    ///
    /// Allocates the bucketed engine's staging buffers per call; loops
    /// should hold a [`BucketScratch`] and use
    /// [`LocalShuffle::shuffle_vec_with`].
    pub fn shuffle_vec<T, R: RandomSource + ?Sized>(&self, rng: &mut R, data: &mut Vec<T>) {
        self.shuffle_vec_with(rng, data, &mut BucketScratch::new());
    }

    /// Scratch-reusing form of [`LocalShuffle::shuffle_vec`]: the bucketed
    /// engine's staging capacity lives in `scratch` and is retained across
    /// calls.  The Fisher–Yates engine ignores the scratch (and leaves it
    /// untouched), so one scratch per call site serves every policy.
    pub fn shuffle_vec_with<T, R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        data: &mut Vec<T>,
        scratch: &mut BucketScratch<T>,
    ) {
        match self.resolve_for::<T>(data.len()) {
            LocalShuffle::FisherYates => fisher_yates_shuffle(rng, data),
            LocalShuffle::Bucketed { bucket_items } => {
                bucketed_shuffle_with(rng, data, bucket_items, scratch)
            }
            LocalShuffle::Auto => unreachable!("resolve_for never returns Auto"),
        }
    }

    /// Draws a uniformly random permutation of `0..n` as a `Vec<u64>`.
    ///
    /// This is the index-vector specialization behind `sample_permutation`:
    /// the bucketed engine fills its scatter chunks straight from the
    /// integer range, so the identity vector is never materialized and the
    /// input pass of [`bucketed_shuffle`] disappears.
    pub fn sample_permutation<R: RandomSource + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        match self.resolve_for::<u64>(n) {
            LocalShuffle::FisherYates => {
                let mut out: Vec<u64> = (0..n as u64).collect();
                fisher_yates_shuffle(rng, &mut out);
                out
            }
            LocalShuffle::Bucketed { bucket_items } => {
                bucketed_index_permutation(rng, n, bucket_items)
            }
            LocalShuffle::Auto => unreachable!("resolve_for never returns Auto"),
        }
    }
}

/// Fixed output split for `n` items into buckets of `bucket_items`: every
/// bucket holds exactly `bucket_items` except a short last one.
pub(crate) fn bucket_sizes(n: usize, bucket_items: usize) -> Vec<u64> {
    let buckets = n.div_ceil(bucket_items).max(1);
    let mut sizes = vec![bucket_items as u64; buckets];
    *sizes.last_mut().expect("at least one bucket") = (n - (buckets - 1) * bucket_items) as u64;
    sizes
}

/// The bucket size a pass actually runs with: the requested size, clamped
/// to at least 1 and raised so the fan-out never exceeds
/// [`MAX_SCATTER_BUCKETS`].
pub(crate) fn effective_bucket_items(n: usize, bucket_items: usize) -> usize {
    bucket_items.max(1).max(n.div_ceil(MAX_SCATTER_BUCKETS))
}

/// The scatter kernel of the sequential engine: drain `source` from its
/// tail in windows of `window_items`, Fisher–Yates each (cache-resident)
/// window in place while warming the next one, split it across the sinks
/// by the multivariate hypergeometric law (Algorithm 2 against the sinks'
/// `remaining` demand), and move the resulting **consecutive runs** with
/// bulk tail drains.
///
/// A uniformly shuffled window cut into consecutive runs of
/// hypergeometric lengths is exactly the Proposition 1–2 construction of
/// the paper's superstep 2, applied to buckets: the set of items each sink
/// receives is a uniform subset of the window, and composing windows
/// left-to-right is the conditional-split argument of Algorithm 2.  The
/// within-sink order that the runs arrive in does not matter, because the
/// engine's phase (b) re-shuffles every sink uniformly.
///
/// Moving whole runs instead of dealing single items is what makes the
/// scatter stream: per window, one in-cache shuffle plus `k` bulk
/// `extend(drain(..))` copies — no per-item random sink writes.
///
/// `remaining` may carry more total demand than `source` holds (the
/// multi-window caller, e.g. the index specialization's chunk refills);
/// each call consumes exactly `source.len()` demand.  `row` is
/// caller-provided scratch of length `sinks.len()`.
pub(crate) fn scatter_windows<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    source: &mut Vec<T>,
    window_items: usize,
    remaining: &mut [u64],
    row: &mut [u64],
    sinks: &mut [Vec<T>],
) {
    debug_assert_eq!(remaining.len(), sinks.len());
    debug_assert_eq!(row.len(), sinks.len());
    debug_assert!(remaining.iter().sum::<u64>() >= source.len() as u64);
    let window_items = window_items.max(1);
    while !source.is_empty() {
        let take = window_items.min(source.len());
        let start = source.len() - take;
        // The next window is the slice just below this one: warm it.
        let (rest, window) = source.split_at_mut(start);
        fisher_yates_shuffle_warming(rng, window, &rest[start - window_items.min(start)..]);
        cgp_hypergeom::multivariate_hypergeometric_into(rng, take as u64, remaining, row);
        for (s, &count) in row.iter().enumerate() {
            if count == 0 {
                continue;
            }
            remaining[s] -= count;
            let cut = source.len() - count as usize;
            sinks[s].extend(source.drain(cut..));
        }
        debug_assert_eq!(source.len(), start, "the row sums to the window size");
    }
}

/// Reusable buffers for the bucketed engine: the per-bucket staging vectors
/// plus the `O(k)` bookkeeping rows.
///
/// A fresh scratch warms up on the first call (each bucket buffer is sized
/// by the demand it serves) and retains every capacity afterwards, so a
/// caller that shuffles in a loop does not pay for fresh pages per pass.
#[derive(Debug)]
pub struct BucketScratch<T> {
    buckets: Vec<Vec<T>>,
    remaining: Vec<u64>,
    row: Vec<u64>,
}

impl<T> BucketScratch<T> {
    /// An empty scratch; buffers grow on first use and are retained after.
    pub fn new() -> Self {
        BucketScratch {
            buckets: Vec::new(),
            remaining: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Total item capacity currently retained across the bucket buffers.
    pub fn retained_capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.capacity()).sum()
    }

    /// Readies the scratch for `k` buckets with the given demands: bucket
    /// buffers exist, are empty, hold at least their demand's capacity (so
    /// the scatter's bulk drains never reallocate mid-pass), and
    /// `remaining` holds the demand vector.
    fn prepare(&mut self, demands: &[u64]) {
        let k = demands.len();
        if self.buckets.len() < k {
            self.buckets.resize_with(k, Vec::new);
        }
        for (bucket, &demand) in self.buckets[..k].iter_mut().zip(demands) {
            bucket.clear();
            bucket.reserve(demand as usize);
        }
        self.remaining.clear();
        self.remaining.extend_from_slice(demands);
        self.row.clear();
        self.row.resize(k, 0);
    }
}

impl<T> Default for BucketScratch<T> {
    fn default() -> Self {
        BucketScratch::new()
    }
}

/// Uniformly permutes `data` with the two-phase bucketed scatter shuffle.
///
/// `bucket_items` is the target bucket size (clamped to at least 1 and
/// raised so at most [`MAX_SCATTER_BUCKETS`] buckets result); the number of
/// buckets is `ceil(n / bucket_items)`.  With a single bucket the algorithm
/// degenerates to one plain Fisher–Yates pass, byte-identical to
/// [`fisher_yates_shuffle`] under the same generator state.
///
/// Phase (a) takes the input from its tail in windows of `bucket_items`,
/// shuffles each (cache-resident) window in place, samples the window's
/// bucket counts from the multivariate hypergeometric law and moves the
/// resulting consecutive runs into the per-bucket buffers with bulk copies;
/// phase (b) shuffles each bucket in cache and moves it back into the
/// input, bucket after bucket.  Random accesses therefore never span more
/// than one window or one bucket at a time — everything else is streaming.
///
/// The permutation is exactly uniform for every choice of `bucket_items`
/// (see the module docs for the proof sketch).
///
/// This convenience form allocates its staging buffers per call; steady-state
/// callers should reuse a scratch via [`bucketed_shuffle_with`].
pub fn bucketed_shuffle<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &mut Vec<T>,
    bucket_items: usize,
) {
    bucketed_shuffle_with(rng, data, bucket_items, &mut BucketScratch::new());
}

/// Scratch-reusing form of [`bucketed_shuffle`]: all staging capacity lives
/// in `scratch` and is retained across calls, so a warm steady state makes
/// no per-item allocations.
pub fn bucketed_shuffle_with<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    data: &mut Vec<T>,
    bucket_items: usize,
    scratch: &mut BucketScratch<T>,
) {
    let n = data.len();
    let bucket_items = effective_bucket_items(n, bucket_items);
    if n <= bucket_items {
        fisher_yates_shuffle(rng, data);
        return;
    }
    let sizes = bucket_sizes(n, bucket_items);
    let k = sizes.len();
    scratch.prepare(&sizes);
    let BucketScratch {
        buckets,
        remaining,
        row,
    } = scratch;
    // Phase (a): drain `data` window by window into the buckets.
    scatter_windows(rng, data, bucket_items, remaining, row, &mut buckets[..k]);
    // Phase (b): shuffle each bucket in cache and move it back in order.
    shuffle_buckets_into(rng, &mut buckets[..k], data);
}

/// Phase (b) of the sequential engine: Fisher–Yates each bucket, warming
/// the next one meanwhile, and append it to `out`, bucket after bucket.
fn shuffle_buckets_into<T, R: RandomSource + ?Sized>(
    rng: &mut R,
    buckets: &mut [Vec<T>],
    out: &mut Vec<T>,
) {
    let mut rest = buckets;
    while let Some((bucket, tail)) = rest.split_first_mut() {
        fisher_yates_shuffle_warming(rng, bucket, tail.first().map_or(&[], |b| b));
        out.append(bucket);
        rest = tail;
    }
}

/// Draws a uniformly random permutation of `0..n` with the bucketed engine,
/// without ever materializing the identity vector: scatter windows are
/// filled straight from the integer range.  See
/// [`LocalShuffle::sample_permutation`].
pub fn bucketed_index_permutation<R: RandomSource + ?Sized>(
    rng: &mut R,
    n: usize,
    bucket_items: usize,
) -> Vec<u64> {
    let bucket_items = effective_bucket_items(n, bucket_items);
    if n <= bucket_items {
        let mut out: Vec<u64> = (0..n as u64).collect();
        fisher_yates_shuffle(rng, &mut out);
        return out;
    }
    let sizes = bucket_sizes(n, bucket_items);
    let k = sizes.len();
    let mut scratch: BucketScratch<u64> = BucketScratch::new();
    scratch.prepare(&sizes);

    let mut chunk: Vec<u64> = Vec::with_capacity(bucket_items);
    let mut next = 0u64;
    while (next as usize) < n {
        let take = bucket_items.min(n - next as usize) as u64;
        chunk.extend(next..next + take);
        next += take;
        scatter_windows(
            rng,
            &mut chunk,
            bucket_items,
            &mut scratch.remaining,
            &mut scratch.row,
            &mut scratch.buckets[..k],
        );
    }

    let mut out = Vec::with_capacity(n);
    shuffle_buckets_into(rng, &mut scratch.buckets[..k], &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformity::{recommended_samples, test_uniformity};
    use cgp_rng::{CountingRng, Pcg64};

    #[test]
    fn output_is_a_permutation_for_various_bucket_sizes() {
        let mut rng = Pcg64::seed_from_u64(1);
        for n in [0usize, 1, 7, 100, 10_000] {
            for bucket in [1usize, 3, 64, 100_000] {
                let mut data: Vec<u64> = (0..n as u64).collect();
                bucketed_shuffle(&mut rng, &mut data, bucket);
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
        bucketed_shuffle(&mut a, &mut x, n);
        fisher_yates_shuffle(&mut b, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn uniform_with_multiple_buckets() {
        // n = 4 split into buckets of 2: exhaustive chi-square.
        let mut rng = Pcg64::seed_from_u64(3);
        let report = test_uniformity(4, recommended_samples(4, 300), |_| {
            let mut data: Vec<u64> = (0..4).collect();
            bucketed_shuffle(&mut rng, &mut data, 2);
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
            bucketed_shuffle(&mut rng, &mut data, 2);
            data
        });
        assert!(report.is_uniform_at(0.001), "{:?}", report.chi_square);
    }

    #[test]
    fn index_permutation_is_uniform_and_matches_the_range() {
        let mut rng = Pcg64::seed_from_u64(12);
        let perm = bucketed_index_permutation(&mut rng, 10_000, 64);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10_000).collect::<Vec<u64>>());

        let report = test_uniformity(4, recommended_samples(4, 300), |_| {
            bucketed_index_permutation(&mut rng, 4, 2)
        });
        assert!(report.is_uniform_at(0.001), "{:?}", report.chi_square);
        assert!(report.covers_all_permutations());
    }

    #[test]
    fn random_number_budget_stays_linear() {
        // At most one window-shuffle word and one bucket-shuffle word per
        // item plus the per-window hypergeometric rows: comfortably below
        // 3 draws per item.
        let n = 40_000usize;
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(5));
        let mut data: Vec<u64> = (0..n as u64).collect();
        bucketed_shuffle(&mut rng, &mut data, 4_096);
        assert!(
            rng.count() < 3 * n as u64,
            "used {} draws for {n} items",
            rng.count()
        );
    }

    #[test]
    fn bucket_fanout_is_capped() {
        // A degenerate bucket size may not explode into n single-item
        // buckets: the effective size is raised so at most
        // MAX_SCATTER_BUCKETS sinks exist, and the output is still a
        // permutation.
        assert_eq!(effective_bucket_items(100_000, 1), 391);
        assert_eq!(bucket_sizes(100_000, 391).len(), MAX_SCATTER_BUCKETS);
        // Small inputs are unaffected by the cap.
        assert_eq!(effective_bucket_items(4, 2), 2);

        let mut rng = Pcg64::seed_from_u64(44);
        let mut data: Vec<u64> = (0..100_000).collect();
        let mut scratch = BucketScratch::new();
        bucketed_shuffle_with(&mut rng, &mut data, 1, &mut scratch);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100_000).collect::<Vec<u64>>());
    }

    #[test]
    fn scratch_capacity_converges_across_calls() {
        // After the first call the scratch retains every staging buffer, so
        // repeated same-shaped shuffles report a stable capacity.
        let mut rng = Pcg64::seed_from_u64(45);
        let mut scratch = BucketScratch::new();
        let mut caps = Vec::new();
        for _ in 0..3 {
            let mut data: Vec<u64> = (0..50_000).collect();
            bucketed_shuffle_with(&mut rng, &mut data, 4_096, &mut scratch);
            caps.push(scratch.retained_capacity());
        }
        assert!(caps[0] >= 50_000, "staging covers the whole payload");
        assert_eq!(caps[1], caps[2], "capacities converge after warm-up");

        // And the scratch-reusing form emits exactly what the allocating
        // form emits under the same seed.
        let mut a = Pcg64::seed_from_u64(46);
        let mut b = Pcg64::seed_from_u64(46);
        let mut x: Vec<u64> = (0..20_000).collect();
        let mut y = x.clone();
        bucketed_shuffle(&mut a, &mut x, 1_024);
        bucketed_shuffle_with(&mut b, &mut y, 1_024, &mut scratch);
        assert_eq!(x, y);
    }

    #[test]
    fn the_sequential_engine_reproduces_recorded_checksums() {
        // `(seed, n, bucket_items, FNV-1a checksum, draws)`, recorded from
        // the engine's first `scatter_windows` + `append` form and
        // re-recorded when the batched Fisher–Yates kernel changed every
        // seed-to-permutation map and cut the words per shuffled item; the
        // output of the sequential engine is part of its API.
        const RECORDED: [(u64, u64, usize, u64, u64); 7] = [
            (50, 0, 32, 0xcbf2_9ce4_8422_2325, 0),
            (51, 1, 32, 0xaf63_bd4c_8601_b7df, 0),
            (52, 257, 32, 0xd45e_dfda_e556_a7dd, 166),
            (53, 5000, 32, 0xa22e_a71c_3c35_7cff, 35_268),
            (54, 10_000, 1, 0x8f12_1e3d_1f11_ce0b, 133_494),
            (55, 4_096, 4_096, 0xd72e_780e_ec84_8a07, 907),
            (56, 3_001, 100, 0x65c9_e28e_cd9f_cf25, 3_730),
        ];
        let mut scratch = BucketScratch::new();
        for (seed, n, bucket, checksum, draws) in RECORDED {
            let mut rng = CountingRng::new(Pcg64::seed_from_u64(seed));
            let mut data: Vec<u64> = (0..n).collect();
            bucketed_shuffle_with(&mut rng, &mut data, bucket, &mut scratch);
            let fnv = data.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &x| {
                (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(fnv, checksum, "n = {n}, bucket = {bucket}");
            assert_eq!(rng.count(), draws, "n = {n}, bucket = {bucket}");
        }
    }

    #[test]
    fn out_of_place_multiset_is_preserved_by_bucketed_shuffle() {
        let mut rng = Pcg64::seed_from_u64(6);
        let data: Vec<u32> = (0..1000).map(|i| i % 13).collect();
        let mut out = data.clone();
        bucketed_shuffle(&mut rng, &mut out, default_bucket_items::<u32>());
        let mut a = out.clone();
        let mut b = data.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn default_bucket_items_is_payload_aware() {
        assert_eq!(default_bucket_items::<u64>(), DEFAULT_BUCKET_ITEMS);
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
        LocalShuffle::Auto.shuffle_vec(&mut a, &mut x);
        LocalShuffle::FisherYates.shuffle_vec(&mut b, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn auto_is_the_default_engine() {
        assert_eq!(LocalShuffle::default(), LocalShuffle::Auto);
    }

    #[test]
    fn sample_permutation_dispatches_per_engine() {
        // Fisher-Yates: identical to collect-then-shuffle.
        let mut a = Pcg64::seed_from_u64(31);
        let mut b = Pcg64::seed_from_u64(31);
        let via_engine = LocalShuffle::FisherYates.sample_permutation(&mut a, 100);
        let mut direct: Vec<u64> = (0..100).collect();
        fisher_yates_shuffle(&mut b, &mut direct);
        assert_eq!(via_engine, direct);

        // Bucketed: identical to the free index specialization.
        let mut a = Pcg64::seed_from_u64(32);
        let mut b = Pcg64::seed_from_u64(32);
        let engine = LocalShuffle::Bucketed { bucket_items: 32 };
        assert_eq!(
            engine.sample_permutation(&mut a, 1000),
            bucketed_index_permutation(&mut b, 1000, 32)
        );
    }

    #[test]
    fn bucketed_handles_non_copy_payloads() {
        let mut rng = Pcg64::seed_from_u64(40);
        let mut data: Vec<String> = (0..3000).map(|i| i.to_string()).collect();
        bucketed_shuffle(&mut rng, &mut data, 128);
        let mut sorted: Vec<u64> = data.iter().map(|s| s.parse().unwrap()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..3000).collect::<Vec<u64>>());
    }
}
