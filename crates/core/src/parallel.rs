//! Algorithm 1 — the parallel random permutation, fused into **one job on
//! one executor**.
//!
//! ```text
//! foreach P_i:  permute B_i locally                     (superstep 1)
//! choose A = (a_ij) according to Problem 2              (matrix phase)
//! foreach P_i:  send a_ij items to P'_j for every j     (superstep 2)
//! foreach P'_j: receive a_ij items from every P_i
//! foreach P'_j: permute B'_j locally                    (superstep 3)
//! ```
//!
//! Correctness (Propositions 1–2): the first local shuffle makes the choice
//! of *which* items travel from `B_i` to `B'_j` uniform among all
//! `a_ij`-subsets, the final local shuffle makes the arrangement inside every
//! target block uniform, and the matrix `A` is sampled with the probability
//! a uniform permutation would induce — so every permutation is equally
//! likely.
//!
//! Balance and work-optimality (Proposition 1): every processor touches only
//! its own `m_i` (resp. `m'_j`) items plus the `O(p)` row of `A`, and the
//! exchange is a single h-relation whose per-processor volume is exactly
//! `m_i + m'_j`.
//!
//! # The fused single-program pipeline
//!
//! In the paper Algorithm 1 is *one* CGM program: the same `p` processors
//! shuffle, sample the communication matrix (Algorithms 3–6), exchange, and
//! shuffle again.  This engine runs it the same way: a **single**
//! [`CgmExecutor::run_job`] in which every worker
//!
//! 1. shuffles its own block (superstep 1) — the shuffle is independent of
//!    the matrix, so on the workers that are not (yet) involved in matrix
//!    rounds it *overlaps* the sampling instead of serializing behind it;
//! 2. participates in **in-context matrix sampling** on the machine's word
//!    plane ([`cgp_cgm::MatrixCtx`]): the two front-end backends
//!    (`Sequential`/`Recursive`) sample the full matrix on processor 0 and
//!    scatter the rows, as the paper prescribes; the parallel backends run
//!    Algorithms 5/6 across all workers — each worker ends up holding its
//!    own row of `A`;
//! 3. copies each run of its shuffled block straight to the run's final
//!    slot in the output and re-shuffles its target block (supersteps 2–3;
//!    see the direct-placement exchange below).
//!
//! That is the **Fisher–Yates path**.  A job with a source or target block
//! of more than four windows runs the **one scatter level** instead (see
//! below): the same program over every cache-sized bucket of every target
//! block.  Nothing else decides the layout.
//!
//! No second machine is ever built: on a [`cgp_cgm::ResidentCgm`]-backed
//! [`crate::PermutationSession`] a steady-state permutation therefore makes
//! **zero thread spawns and zero channel-fabric constructions** for *every*
//! backend, `ParallelLog`/`ParallelOptimal` included.  The phases stay
//! separately metered: [`PermutationReport::matrix_metrics`] carries
//! the word-plane (matrix) traffic, [`PermutationReport::exchange_metrics`]
//! the payload exchange.
//!
//! The engine speaks only through [`CgmExecutor`], so the one-shot machine
//! and the resident pool produce the byte-identical permutation for the
//! same seed (every random stream is derived from the machine seed per
//! call).
//!
//! ## One program, two runners
//!
//! The program is a short list of **phases** per virtual processor
//! (superstep-1 shuffle, matrix sampling, publishing the row of `A`, then
//! the gather and superstep-3 shuffle — or on the one scatter level the
//! column refinement, the scatter and the bucket shuffles), with a barrier
//! after some of them.  Two runners play it:
//!
//! * **threaded** — on a [`CgmExecutor`], each virtual processor on its own
//!   thread runs every phase and meets the others at the barriers.
//!   Sessions and one-shot calls run this way.
//! * **serial** — on a [`LoopbackCgm`], one thread runs each phase for
//!   processor `0, 1, …, p − 1` before it moves to the next phase.  Each
//!   processor keeps its own derived streams, and a phase reads another
//!   processor's output only after a barrier, so the output and the
//!   metered communication are the threaded run's, byte for byte.  The word
//!   plane loops back: within a phase the matrix backends only send to
//!   higher ids (`Sequential` and `Recursive` sample on processor 0 and
//!   scatter the rows; `ParallelLog` and the rounds of `ParallelOptimal`
//!   halve ranges downwards), and `ParallelOptimal`'s final all-to-all
//!   receives in the next phase.  The service's executors run every job
//!   this way: a small job on `p` threads pays a pool wake, barriers and a
//!   completion rendezvous that dwarf its work.  So does the sequential
//!   [`crate::LocalShuffle::Bucketed`] shuffle, on one processor.
//!
//! ## Backend selection at a glance
//!
//! The matrix phase only ever handles `O(p·p')` words, so at small `p` the
//! default `Sequential` backend (what the paper's own experiments used) is
//! usually fastest: one worker samples a tiny matrix while the others
//! overlap their superstep-1 shuffle, and no matrix-phase envelopes beyond
//! the row scatter are exchanged.  The parallel backends pay `⌈log₂ p⌉`
//! word-plane rounds of latency to cut the *head's* work from `O(p²)`
//! (`Sequential`) to `Θ(p log p)` (`ParallelLog`, Algorithm 5) or the
//! cost-optimal `Θ(p)` (`ParallelOptimal`, Algorithm 6) — they win once
//! `p²` work on one processor rivals `m = n/p` work on all of them, i.e.
//! for large machines or small blocks.  Measure with `exp_crossover` on
//! your host when in doubt.
//!
//! # Direct-placement exchange
//!
//! In shared memory every run `(i, j)` already has a fixed home in the
//! output: target block `j` starts at `Σ_{l<j} m'_l`, and run `(i, j)` sits
//! at offset `Σ_{k<i} a_kj` inside it.  So beyond the algorithm's two
//! shuffles each item is copied exactly once:
//!
//! * **Superstep 1** shuffles worker `i`'s block in place, inside the
//!   caller's vector, and publishes row `i` of `A` into a per-job `p × p`
//!   table.  One barrier follows.
//! * **Superstep 2**: worker `j` reads its run offsets from the table and
//!   copies every run `(i, j)` bitwise to its final slot in the spare
//!   buffer of the [`PermuteScratch`].  Each target block is thus filled by
//!   the worker that shuffles it next: the copies stream, and the shuffle
//!   finds its block in its own cache.
//! * **Superstep 3** shuffles worker `j`'s target block of the spare in
//!   place.
//!
//! The caller then swaps the two allocations: `data` comes back in the
//! scratch's former spare (capacity at least `n`), and the scratch keeps the
//! caller's old allocation as the next call's spare.  Items are moved, never
//! cloned, so the item type only needs to be `Send`; `Clone` is *not*
//! required.  Memory is the input plus one spare of the same size.  The
//! exchange is metered from the row of `A` exactly as a channel all-to-all
//! would be (`m_i` words out, `m'_j` words in, one message per peer), so
//! the Theorem 1 volume figures read the same as over channels.
//!
//! # One scatter level
//!
//! The paper's §6 outlook treats the cache levels as CGM processors.  The
//! pipeline applies it once, across the whole job: every bucket of
//! every target block is a **virtual target** of one Algorithm 1 — the
//! single-level form of Sanders' hierarchical scatter (*Random permutations
//! on distributed, external and hierarchical memory*, IPL 1998).  Target
//! block `j` is cut into `k_j` buckets of
//! `effective_bucket_items(m'_j, bucket)` items (so
//! `k_j ≤ MAX_SCATTER_BUCKETS`), `K = Σ_j k_j` virtual targets in all, laid
//! out in output order: bucket `c` is `starts[c] .. starts[c + 1]`.  The
//! bucket size is chosen from the job's run length (see *Bucket size*
//! below).  The run takes three barriers:
//!
//! 1. **Matrix.**  Algorithms 3–6 sample `A` as on the Fisher–Yates path;
//!    each worker publishes its row into the job's `p × p` table.
//!    *Barrier.*
//! 2. **Column refinement.**  Target `j` splits column `j` of `A` over its
//!    buckets: a `p × k_j` table with row sums `a_ij` and the bucket sizes
//!    as column sums, drawn row by row by Algorithm 2 against the buckets'
//!    remaining capacity, from its own per-target stream.  It publishes the
//!    table into the job's refined `p × K` matrix `r`.  *Barrier.*
//! 3. **Supersteps 1 + 2, fused.**  Worker `i` walks its block of the
//!    caller's vector in windows of `window` items (raised, like the
//!    buckets, so a block has at most `MAX_SCATTER_BUCKETS` windows).  It
//!    shuffles each window in place, splits it over the `K` virtual targets
//!    against its remaining demand (row `i` of `r`; the last window's split
//!    is forced and draws nothing), and copies each run to its cursor in
//!    the spare.  Worker `i`'s slot in bucket `c` starts at
//!
//!    ```text
//!    starts[c] + Σ_{l<i} r_lc
//!    ```
//!
//!    and its cursor advances by every run placed there.  Each copy is
//!    bounds-checked against the slot first; after its last window the
//!    worker asserts that every slot it owns is full.  *Barrier.*
//! 4. **Superstep 3.**  Worker `j` shuffles each bucket of its target
//!    block in place in the spare.  There is no copy back: the caller swaps
//!    the allocations as on the Fisher–Yates path.
//!
//! So each item gets two in-cache Fisher–Yates passes and one copy.
//! Uniformity is Propositions 1–2 over the virtual targets: `A` has the
//! law a uniform permutation induces, and given `A` the split of each
//! column over its buckets is the law of a uniform arrangement of target
//! block `j`; a shuffled window cut into runs of hypergeometric lengths
//! sends a uniform subset to each virtual target; and superstep 3 makes
//! each bucket's order uniform.
//!
//! **When it runs.**  The window is
//! [`default_bucket_items::<T>()`](crate::cache_aware::default_bucket_items) items,
//! a fixed byte budget that is never read from the host, so the
//! seed-to-permutation map does not depend on the machine.  A job scatters
//! exactly when some source or target block holds more than
//! `SCATTER_MIN_WINDOWS` (four) windows; otherwise it keeps the
//! Fisher–Yates path.  The rule is per block, not per job total, and
//! ignores the item width: see `SCATTER_MIN_WINDOWS` for the measurements
//! behind it.
//!
//! **Bucket size.**  Each window costs `K − 1` hypergeometric draws and
//! one copy per run, and its runs average `window / K` items.  Buckets of
//! one window would make `K` grow with `n` while the window stays fixed:
//! at 2^24 `u64` and p = 2, 512 targets, runs of ~64 items and ~130k draws
//! per worker.  So buckets start at one window and grow until the job has
//! at most `⌊w / MIN_RUN_ITEMS⌋` virtual targets (`w` the smallest window
//! of a non-empty source block, `MIN_RUN_ITEMS` = 256), but never past
//! `MAX_BUCKET_BYTES` (1 MiB) unless the `MAX_SCATTER_BUCKETS` fan-out cap
//! already made them larger.  The rule reads only the block sizes, the
//! window and the item width.  For `u64` at p = 2 it changes the layout
//! from 2^23 to 2^25 items (at 2^24: 128 targets of 1 MiB, runs of ~256
//! items); smaller jobs already meet the floor and larger ones are set by
//! the fan-out cap.  Records of 512 bytes at 64 MiB go from 256 targets
//! (runs of ~2 items) to 64 (runs of ~8), held back by the byte cap.
//!
//! On a 2-vCPU host at 2^24 `u64`, p = 2, the splits and run copies fell
//! by 27–31 ms per call and the bucket pass, on buckets four times the L2
//! budget, rose by 9–16 ms (three traced pairs); the benchmark's `bulk`
//! workload permuted 1.31x the items per second at the median of ten
//! pairs.  Quadrupling every bucket instead lost 0.87–0.92x at
//! 2^20–2^21, which is why the rule keys on run length.  The hidden
//! [`PermuteOptions::window_items`] override keeps buckets of one window.
//!
//! **Warm ahead.**  A window or bucket is too large for the hardware
//! prefetcher to follow the shuffle's random accesses, so each pass would
//! start on lines the previous passes pushed out to the last-level cache
//! or memory.  Every pass that has a known successor therefore runs
//! [`crate::fisher_yates_shuffle_warming`]: while worker `i` shuffles
//! window `w`, it hints window `w + 1` of its block into L2, and while
//! worker `j` shuffles bucket `c`, it hints bucket `c + 1` of its target
//! block.  The output is byte-identical to plain Fisher–Yates passes: the
//! kernel makes the same draws and the same swaps in the same order, and a
//! prefetch changes only what the cache holds, never a value.
//!
//! ## Leak on panic
//!
//! While a run is in flight the two allocations belong to no `Vec`: the
//! workers reach them through one audited raw hand-off (`Handoff`, whose
//! docs hold the safety protocol).  If a worker panics, an item may sit in
//! the input, in the output, or bitwise in both, so the engine forgets the
//! items rather than risk dropping one twice: they are **leaked** (their
//! destructors never run), `data` comes back empty, and the scratch may
//! come back cold.  On the one scatter level a panic can strike
//! mid-scatter, with some of a worker's runs already copied into other
//! workers' target blocks; the same contract covers it.  If a worker may
//! still be running when the executor returns — a resident pool that shut
//! down mid-dispatch — both allocations are leaked as well.  Plain-data
//! payloads lose nothing but the failed job's items.
//!
//! Callers that permute repeatedly recycle the spare across calls with
//! [`permute_vec_into`] and a [`PermuteScratch`];
//! callers whose payloads are not `Send` (or are too heavy to move around)
//! can permute indices once with [`crate::Permuter::sample_permutation`] and
//! gather locally with [`crate::apply_permutation`].

use std::any::Any;
use std::mem::ManuallyDrop;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache_aware::{default_bucket_items, effective_bucket_items};
use crate::config::{EngineFault, FaultPhase, MatrixBackend, PermuteOptions};
use crate::sequential::{fisher_yates_shuffle, fisher_yates_shuffle_warming};
use cgp_cgm::{
    BlockDistribution, CgmError, CgmExecutor, CgmMachine, LoopbackCgm, MachineMetrics, ProcCtx,
};
use cgp_hypergeom::multivariate_hypergeometric_into;
use cgp_matrix::{
    sample_parallel_log_ctx, sample_parallel_optimal_recv_ctx, sample_parallel_optimal_send_ctx,
    sample_recursive_ctx, sample_sequential_ctx, CommMatrix,
};
use cgp_rng::Pcg64;

/// What happened during one parallel permutation: timings, per-phase
/// metered communication, and (optionally) the sampled communication
/// matrix.
///
/// Since the pipeline is fused into one run, the phase timings are
/// measured **in-run** (each worker clocks its own phases; the report
/// carries the maximum over workers) and the phases can overlap — the
/// superstep-1 shuffle of an idle worker proceeds while the head still
/// samples.  [`PermutationReport::total_elapsed`] is therefore the
/// *measured wall-clock of the whole run*, not the sum of the phase
/// durations (which could double-count overlap).  On a serial run (a
/// service job) the workers run one after another, so each phase timing
/// is the **sum** over the workers.
#[derive(Debug)]
pub struct PermutationReport {
    /// Which matrix-sampling backend was used.
    pub backend: MatrixBackend,
    /// In-run wall-clock time of the matrix phase: the maximum (serial run:
    /// the sum) over workers of the time spent inside the in-context
    /// sampler.
    pub matrix_elapsed: Duration,
    /// In-run wall-clock time of the data phase: the maximum over workers
    /// of the time spent in the shuffle + gather + shuffle steps (on the one
    /// scatter level: column refinement, scatter and bucket shuffles,
    /// barrier waits included).
    pub exchange_elapsed: Duration,
    /// In-run wall-clock time of the local shuffles alone: the maximum
    /// over workers of the time spent in Fisher–Yates passes — superstep 1
    /// and superstep 3, or on the one scatter level the window and bucket
    /// shuffles.  This is a *subset* of
    /// [`PermutationReport::exchange_elapsed`], split out so benches can
    /// attribute engine wins per phase; the rest of the data phase is the
    /// copies and waits, and on the one scatter level also the column
    /// refinement and the window splits.
    pub shuffle_elapsed: Duration,
    /// Metered word-plane communication of the matrix phase.  Every
    /// backend gets a meter: the parallel backends record their
    /// `⌈log₂ p⌉` rounds, the front-end backends the row scatter from
    /// processor 0 (at `p = 1` that scatter degenerates to one metered
    /// self-send; the parallel backends move nothing at all there).
    pub matrix_metrics: MachineMetrics,
    /// Metered communication of the exchange phase (data plane; the
    /// direct-placement exchange meters it from the row of `A`).
    pub exchange_metrics: MachineMetrics,
    /// The sampled communication matrix, if `keep_matrix` was requested.
    pub matrix: Option<CommMatrix>,
    /// Measured wall-clock of the whole fused run (see
    /// [`PermutationReport::total_elapsed`]).
    pub(crate) total_elapsed: Duration,
}

impl PermutationReport {
    /// Measured wall-clock time of the whole permutation, caller to
    /// caller.  Because the fused phases overlap, this is at least
    /// `max(matrix_elapsed, exchange_elapsed)` but may be **less than
    /// their sum**.
    pub fn total_elapsed(&self) -> Duration {
        self.total_elapsed
    }

    /// Maximum communication volume (words sent + received) over all
    /// processors during the data exchange — the quantity Theorem 1 bounds
    /// by `O(m)`.
    pub fn max_exchange_volume(&self) -> u64 {
        self.exchange_metrics.max_comm_volume()
    }

    /// Maximum communication volume over all processors during the matrix
    /// phase — the quantity Theorem 2 bounds by `Θ(p)` for the
    /// cost-optimal backend.
    pub fn max_matrix_volume(&self) -> u64 {
        self.matrix_metrics.max_comm_volume()
    }

    /// Number of word-plane rounds the matrix phase used (`⌈log₂ p⌉` for
    /// the parallel backends, 1 for the front-end scatter).
    pub fn matrix_rounds(&self) -> u64 {
        self.matrix_metrics.supersteps()
    }
}

/// Reusable buffers for [`permute_vec_into`]: one spare payload buffer.
///
/// The engine permutes out of place, from the caller's vector into the
/// spare, and then swaps the two allocations: after a call `data` holds the
/// spare's former allocation (capacity at least `n`) and the scratch keeps
/// the caller's old one as the next call's spare.  Same-shaped calls
/// therefore ping-pong between two allocations and, once both are sized,
/// make no per-item allocation — only `O(p²)` bookkeeping and the sampled
/// matrix remain.  After a failed call the scratch may come back cold (see
/// the module docs on leaks).
#[derive(Debug)]
pub struct PermuteScratch<T> {
    /// The buffer the next call places its output into (empty, capacity
    /// retained).
    spare: Vec<T>,
}

impl<T> PermuteScratch<T> {
    /// An empty scratch; buffers grow on first use and are retained after.
    pub fn new() -> Self {
        PermuteScratch { spare: Vec::new() }
    }

    /// Capacity (in items) currently retained in the spare — a cheap
    /// observability hook for allocation-reuse tests (a converged scratch
    /// reports the same value call after call).
    pub fn retained_capacity(&self) -> usize {
        self.spare.capacity()
    }
}

impl<T> Default for PermuteScratch<T> {
    fn default() -> Self {
        PermuteScratch::new()
    }
}

/// Fail-fast check that one block per processor was supplied, phrased for
/// the calling thread (same policy as
/// [`PermuteOptions::validate_target_sizes`]): misuse must never surface as
/// an opaque cross-thread panic out of a worker, and must fire before any
/// caller data has been moved.
fn validate_block_count(p: usize, blocks: usize) {
    assert!(
        blocks == p,
        "permute_blocks requires exactly one block per processor (p = {p}), \
         but {blocks} blocks were provided; re-split the data with \
         BlockDistribution or adjust the machine's processor count"
    );
}

/// The lease bit [`Handoff::vacate`] sets; the bits below count the workers
/// inside the run.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// The caller's input vector and spare buffer as raw parts, owned by no
/// `Vec` for the length of one run.
///
/// # Safety protocol
///
/// This is the engine's one hand-off of raw storage.  Workers reach it only
/// from inside an [`Handoff::enter`] lease, and only in this order (`s_i`
/// and `t_j` are the first indices of source block `i` and target block `j`).
/// On the Fisher–Yates path:
///
/// 1. **Superstep 1.**  Worker `i` shuffles `input[s_i .. s_i + m_i]`, its
///    own source block ([`Handoff::block`]), then publishes row `i` of `A`
///    and waits at the job's one barrier.  Past the barrier nobody writes
///    to `input` again.
/// 2. **Superstep 2.**  Worker `j` copies run `(i, j)` — the `a_ij` items
///    of source block `i` that follow its runs for lower targets — bitwise
///    to `output[t_j + Σ_{k<i} a_kj ..]` ([`Handoff::place`]), for every
///    `i`.  Before each copy it checks that the run lies inside its source
///    and target blocks, so the copies stay in bounds whatever the sampler
///    returned, and after the last that the runs fill target block `j`.
/// 3. **Superstep 3.**  Worker `j` shuffles `output[t_j .. t_j + m'_j]`,
///    which it alone has just filled ([`Handoff::target_block`]).
///
/// Source blocks are each written by one worker before the barrier and
/// only read after it; target blocks are each touched by one worker only.
/// Runs of one source block are disjoint (row prefix sums), so after a
/// completed run every item sits in `output` exactly once and `input` holds
/// only moved-out bits.
///
/// On the one scatter level (see the module docs) step 2 is the scatter,
/// and target blocks are written by every worker:
///
/// 1. **Supersteps 1 + 2.**  Worker `i` shuffles each window of its own
///    source block in place ([`Handoff::block`]) and copies the window's
///    runs bitwise into its slots `(i, c)`, one in each bucket `c` of every
///    target block ([`Handoff::place`]).  The slots are disjoint: slot
///    `(i, c)` is `r_ic` items from `starts[c] + Σ_{l<i} r_lc`, and the
///    columns of the refined matrix `r` sum to the bucket sizes.  Before
///    each copy the worker checks that the run lies inside its window and
///    its slot, and after its last window that every slot it owns is full.
///    Then it waits at the barrier; past it nobody writes to `input` or to
///    another worker's target block again.
/// 2. **Superstep 3.**  Worker `j` shuffles each bucket of
///    `output[t_j .. t_j + m'_j]` ([`Handoff::target_block`]).
///
/// Each source block is touched by its own worker only, and each output
/// slot is written once, so a completed run again leaves every item in
/// `output` exactly once.
///
/// Both shuffle steps of the one scatter level warm the region their
/// worker shuffles next (see the module docs): the next window of its own
/// source block, or the next bucket of its own target block.  A prefetch
/// only computes addresses inside that region and never dereferences them,
/// so it reads nothing another worker may be writing and writes nothing at
/// all.
///
/// The caller reclaims the storage once, after the run ([`reclaim`]):
///
/// * **Done** — `output` becomes the caller's vector, `input` the empty
///   spare.
/// * **Failed** — [`Handoff::vacate`] closes the lease.  With no worker
///   inside, both allocations come back with length 0: an item may be in
///   `input`, in `output` or bitwise in both, so it is leaked (its
///   destructor never runs) rather than risk dropping it twice.  With a
///   worker possibly inside, both allocations are leaked whole.  That is
///   the resident pool's early return: `ResidentCgm::try_run` reports
///   `PoolShutDown` after a partial command send or a failed completion
///   receive, while workers that did get the command may still be running
///   and writing.
///
/// The two executors run a job's closure at most once per processor, and
/// never after the run returns — the [`CgmExecutor`] trait is sealed so no
/// other executor can break that.  A worker that reaches
/// [`Handoff::enter`] after the lease closed panics before touching
/// anything.  The serial runner ([`run_serial`]) takes one lease for the
/// whole run and plays every worker's part on its own thread, in the same
/// order: each phase on every worker before the next phase, so every
/// barrier of the protocol holds with room to spare.
struct Handoff<T> {
    input: *mut T,
    input_capacity: usize,
    output: *mut T,
    output_capacity: usize,
    len: usize,
    /// [`CLOSED`] once the caller vacated the run, plus the number of
    /// workers inside it.
    lease: AtomicUsize,
}

// SAFETY: `input` and `output` point to storage of `T`s that threads move
// items in and out of along the protocol above, which needs `T: Send`; the
// capacities and `len` are plain values and `lease` is atomic.
unsafe impl<T: Send> Send for Handoff<T> {}
// SAFETY: shared access writes the pointed-to storage only in ranges the
// protocol gives one thread at a time, and never hands out `&T` across
// threads, so `T: Send` suffices; the other fields are read-only or atomic.
unsafe impl<T: Send> Sync for Handoff<T> {}

/// A worker's presence inside a run, released on drop (also when the
/// worker unwinds).
struct Inside<'a>(&'a AtomicUsize);

impl Drop for Inside<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> Handoff<T> {
    /// Takes the caller's items and the spare (emptied and grown to hold
    /// them) out of their vectors.
    fn new(input: Vec<T>, mut spare: Vec<T>) -> Self {
        spare.clear();
        spare.reserve(input.len());
        let mut input = ManuallyDrop::new(input);
        let mut spare = ManuallyDrop::new(spare);
        Handoff {
            input: input.as_mut_ptr(),
            input_capacity: input.capacity(),
            output: spare.as_mut_ptr(),
            output_capacity: spare.capacity(),
            len: input.len(),
            lease: AtomicUsize::new(0),
        }
    }

    /// Enters the run on behalf of one worker.
    ///
    /// # Panics
    /// Panics, touching nothing, if the caller already vacated the run.
    fn enter(&self) -> Inside<'_> {
        let inside = Inside(&self.lease);
        let before = self.lease.fetch_add(1, Ordering::AcqRel);
        assert!(
            before & CLOSED == 0,
            "a worker entered a permutation job after its run ended"
        );
        inside
    }

    /// Closes the lease; true when no worker is inside the run, so none
    /// can touch the storage any more.
    fn vacate(&self) -> bool {
        self.lease.fetch_or(CLOSED, Ordering::AcqRel) & !CLOSED == 0
    }

    /// Source block `start .. start + len`, or a window of it (protocol
    /// step 1; on the one scatter level, step 1 of the scatter).
    ///
    /// # Safety
    /// The caller holds a lease, owns this block under the protocol, and the
    /// block is initialized and in bounds.
    #[allow(clippy::mut_from_ref)]
    unsafe fn block(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.input.add(start), len)
    }

    /// Copies `count` items from `input[from..]` to `output[to..]` (protocol
    /// step 2, the gather or the scatter).
    ///
    /// # Safety
    /// The caller holds a lease, no other worker writes the input range, the
    /// caller owns the output range, and both are in bounds.
    unsafe fn place(&self, from: usize, to: usize, count: usize) {
        debug_assert!(from + count <= self.len && to + count <= self.len);
        std::ptr::copy_nonoverlapping(self.input.add(from), self.output.add(to), count);
    }

    /// The input allocation as a vector of its first `len` items.
    ///
    /// # Safety
    /// The lease is vacant, this allocation is reclaimed only once, and
    /// `input[..len]` holds live items.
    unsafe fn input_vec(&self, len: usize) -> Vec<T> {
        Vec::from_raw_parts(self.input, len, self.input_capacity)
    }

    /// The output allocation as a vector of its first `len` items.
    ///
    /// # Safety
    /// As for [`Handoff::input_vec`].
    unsafe fn output_vec(&self, len: usize) -> Vec<T> {
        Vec::from_raw_parts(self.output, len, self.output_capacity)
    }

    /// Target block `start .. start + len` (protocol step 3).
    ///
    /// # Safety
    /// The caller holds a lease, owns this block under the protocol, and
    /// every run of it has been placed.
    #[allow(clippy::mut_from_ref)]
    unsafe fn target_block(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.output.add(start), len)
    }
}

/// How a run ended, for [`reclaim`].
enum RunEnd {
    /// Every worker completed: the output is whole.
    Done,
    /// A worker panicked, or the executor failed as a whole.
    Failed,
}

/// What one virtual processor hands back from the fused run: its row of
/// `A` and its in-run phase timings (matrix, data, local shuffles).
type ProcResult = (Vec<u64>, Duration, Duration, Duration);

/// Index of the per-processor local-shuffle streams among the machine
/// seed's child sequences.
const SHUFFLE_STREAMS: u64 = 0x5AFE_B10C;

/// Index of the per-target column-refinement streams of the one scatter
/// level among the machine seed's child sequences.
const REFINE_STREAMS: u64 = 0x5EF1_0C01;

/// A job runs the one scatter level exactly when some source or target
/// block holds more than this many windows of [`default_bucket_items`]
/// items.
///
/// Measured with one p = 2 session per layout over the public API, calls
/// interleaved, on a 2-vCPU host with 2 MiB of L2 per core.  For `u64`
/// items the scatter ran at 0.81–0.84x the Fisher–Yates path with 2
/// windows per block (it lost in 37–40 of 41 pairs) and at 0.87–0.99x with
/// 4; it won from 8 windows up: 1.06–1.21x at 8, 1.34–1.38x at 16,
/// 1.50–1.73x at 32 and 1.90–1.99x at 64–128.  Wide records never lost to
/// it beyond noise: 64-byte records won 1.16x at 4 windows and 1.24–1.70x
/// beyond, 512-byte records 1.11–1.13x at 4–16 windows and tied at 32–64
/// (0.97–1.01x).  A one-window threshold moved the 2^17–2^18-item jobs of
/// the service workloads onto the scatter and cost them ~9% throughput.
const SCATTER_MIN_WINDOWS: usize = 4;

/// The shortest expected run the default layout aims for: buckets grow
/// until a job has at most `⌊w / MIN_RUN_ITEMS⌋` virtual targets, where `w`
/// is the smallest window of a non-empty source block, so each window is
/// split into runs of at least this many items on average.  Each window
/// costs `K − 1` hypergeometric draws and one copy per run (see *Bucket
/// size* in the module docs for the measurements).
const MIN_RUN_ITEMS: usize = 256;

/// The largest bucket the run-length floor may grow to, in bytes: four
/// times [`BUCKET_L2_BUDGET_BYTES`](crate::cache_aware::BUCKET_L2_BUDGET_BYTES),
/// still inside the 2 MiB L2 of the calibration host, though a pass over
/// it is slower than over one window.  Buckets that the
/// `MAX_SCATTER_BUCKETS` fan-out cap already made larger keep their size.
const MAX_BUCKET_BYTES: usize = 4 * crate::cache_aware::BUCKET_L2_BUDGET_BYTES;

/// The layout of the one scatter level: its virtual targets — every bucket
/// of every target block, in output order — and the refined `p × K`
/// matrix that splits `A` over them.
struct Scatter {
    /// Requested window size in items (at least 1), raised per source block
    /// by `effective_bucket_items`.
    window: usize,
    /// `first[j]` is the index of target block `j`'s first bucket;
    /// `first[p] = K`.
    first: Vec<usize>,
    /// `starts[c]` is the first output index of bucket `c`; `starts[K] = n`,
    /// so bucket `c` is `starts[c] .. starts[c + 1]`.
    starts: Vec<u64>,
    /// The refined matrix, `p × K` row-major: target `j` publishes the
    /// columns of its buckets before the second barrier, and every worker
    /// reads its slots after it.
    refined: Vec<AtomicU64>,
}

impl Scatter {
    /// The layout of a job of `T` items, or `None` when every source and
    /// target block fits `SCATTER_MIN_WINDOWS` windows of
    /// [`default_bucket_items`] items (one window of the override's size
    /// when `window_items` is set) and the job keeps the Fisher–Yates path.
    ///
    /// By default the buckets are as small as the run-length floor allows
    /// (see [`bucket_for_runs`]); the override makes every window and
    /// bucket `window_items` items.
    fn plan<T>(
        source: &BlockDistribution,
        target: &BlockDistribution,
        window_items: Option<usize>,
    ) -> Option<Self> {
        let fits = |largest: usize| {
            [source, target]
                .iter()
                .all(|d| d.sizes().iter().all(|&m| m <= largest as u64))
        };
        match window_items {
            Some(items) => {
                let window = items.max(1);
                (!fits(window)).then(|| Scatter::new(target, window, window))
            }
            None => {
                let window = default_bucket_items::<T>();
                (!fits(SCATTER_MIN_WINDOWS * window)).then(|| {
                    Scatter::new(target, window, bucket_for_runs::<T>(source, target, window))
                })
            }
        }
    }

    /// The scatter over `target`'s blocks, each cut into buckets of
    /// `effective_bucket_items(m'_j, bucket)` items (so at most
    /// `MAX_SCATTER_BUCKETS` per block), with source windows of `window`
    /// items.
    fn new(target: &BlockDistribution, window: usize, bucket: usize) -> Self {
        let mut first = vec![0];
        let mut starts = Vec::new();
        for j in 0..target.procs() {
            let (offset, size) = (target.offset(j), target.size(j));
            let bucket = effective_bucket_items(size as usize, bucket) as u64;
            starts.extend((0..size).step_by(bucket as usize).map(|b| offset + b));
            first.push(starts.len());
        }
        starts.push(target.total());
        let refined = (0..target.procs() * (starts.len() - 1))
            .map(|_| AtomicU64::new(0))
            .collect();
        Scatter {
            window,
            first,
            starts,
            refined,
        }
    }

    /// `K`, the number of virtual targets.
    fn targets(&self) -> usize {
        self.starts.len() - 1
    }

    /// Entry `(i, c)` of the refined matrix.
    fn refined(&self, i: usize, c: usize) -> u64 {
        self.refined[i * self.targets() + c].load(Ordering::Relaxed)
    }
}

/// The bucket size of a default-layout scatter: the smallest size from
/// `window` up to [`MAX_BUCKET_BYTES`] at which the job has at most
/// `⌊w / MIN_RUN_ITEMS⌋` virtual targets, `w` being the smallest
/// effective window over the non-empty source blocks; the byte cap when
/// even that size leaves more targets.
///
/// Each target block `j` then gets buckets of
/// `effective_bucket_items(m'_j, bucket)` items: never fewer than with
/// buckets of one window, and more than the byte cap only where the
/// `MAX_SCATTER_BUCKETS` fan-out cap already asked for it.
fn bucket_for_runs<T>(
    source: &BlockDistribution,
    target: &BlockDistribution,
    window: usize,
) -> usize {
    let smallest_window = source
        .sizes()
        .iter()
        .filter(|&&m| m > 0)
        .map(|&m| effective_bucket_items(m as usize, window))
        .min()
        .unwrap_or(window);
    let most = smallest_window / MIN_RUN_ITEMS;
    let targets = |bucket: usize| -> usize {
        target
            .sizes()
            .iter()
            .map(|&m| (m as usize).div_ceil(effective_bucket_items(m as usize, bucket)))
            .sum()
    };
    // `targets` never grows with the bucket size: search for the smallest
    // size that meets the floor.
    let (mut low, mut high) = (
        window,
        (MAX_BUCKET_BYTES / std::mem::size_of::<T>().max(1)).max(window),
    );
    while low < high {
        let mid = low + (high - low) / 2;
        if targets(mid) <= most {
            high = mid;
        } else {
            low = mid + 1;
        }
    }
    low
}

/// One permutation job, staged and ready to run on an executor, shared by
/// the caller and every worker of the run.
struct Job<T> {
    handoff: Handoff<T>,
    source: BlockDistribution,
    target: BlockDistribution,
    /// The sampled matrix `A`, `p × p` row-major: worker `i` publishes row
    /// `i` before the barrier, and every worker reads its run offsets after
    /// it.
    matrix: Vec<AtomicU64>,
    /// The one scatter level, when a block spans more than
    /// `SCATTER_MIN_WINDOWS` windows; `None` runs the Fisher–Yates path.
    scatter: Option<Scatter>,
    backend: MatrixBackend,
    fault: Option<EngineFault>,
}

impl<T> Job<T> {
    /// Entry `(i, j)` of the sampled matrix `A`.
    fn a(&self, i: usize, j: usize) -> u64 {
        self.matrix[i * self.source.procs() + j].load(Ordering::Relaxed)
    }

    /// Protocol step 2 of the Fisher–Yates path for worker `j` (see
    /// [`Handoff`]): copies run `(i, j)` of every source block `i` to its
    /// final slot in target block `j`, checking each run's bounds before its
    /// copy.
    ///
    /// # Safety
    /// The caller is worker `j`, inside the lease and past the barrier.
    unsafe fn gather(&self, j: usize) {
        let p = self.source.procs();
        let end = self.target.offset(j) + self.target.size(j);
        let mut to = self.target.offset(j);
        for i in 0..p {
            let skipped: u64 = (0..j).map(|l| self.a(i, l)).sum();
            let count = self.a(i, j);
            assert!(
                skipped + count <= self.source.size(i) && to + count <= end,
                "run ({i}, {j}) of the sampled matrix overflows its blocks"
            );
            let from = self.source.offset(i) + skipped;
            // SAFETY: the run lies inside source block `i`, which nobody
            // writes past the barrier, and inside target block `j`, which
            // only this worker touches; both were just checked.
            self.handoff
                .place(from as usize, to as usize, count as usize);
            to += count;
        }
        assert_eq!(
            to, end,
            "column {j} of the sampled matrix does not sum to its target size"
        );
    }

    /// Column refinement for target `j`: splits column `j` of `A` over the
    /// buckets of target block `j`, row by row, each row drawn by Algorithm
    /// 2 against the buckets' remaining capacity, and publishes the split
    /// into the refined matrix.
    fn refine(&self, scatter: &Scatter, j: usize, rng: &mut Pcg64) {
        let buckets = scatter.first[j]..scatter.first[j + 1];
        let mut capacity: Vec<u64> = buckets
            .clone()
            .map(|c| scatter.starts[c + 1] - scatter.starts[c])
            .collect();
        let mut split = vec![0; capacity.len()];
        let k = scatter.targets();
        for i in 0..self.source.procs() {
            multivariate_hypergeometric_into(rng, self.a(i, j), &capacity, &mut split);
            let row = &scatter.refined[i * k + buckets.start..i * k + buckets.end];
            for ((cell, &x), room) in row.iter().zip(&split).zip(&mut capacity) {
                *room -= x;
                // Relaxed: the barrier's mutex orders these stores before
                // every worker's loads in `scatter`.
                cell.store(x, Ordering::Relaxed);
            }
        }
        assert!(
            capacity.iter().all(|&room| room == 0),
            "column {j} of the sampled matrix does not sum to its target size"
        );
    }

    /// Supersteps 1 and 2 of the one scatter level for worker `i` (protocol
    /// step 2 of [`Handoff`]): shuffles source block `i` window by window in
    /// place, splits each window over the virtual targets against the
    /// worker's remaining demand, and copies each run to its cursor in slot
    /// `(i, c)` of bucket `c`, which starts at `starts[c] + Σ_{l<i} r_lc`.
    /// Returns the time spent in Fisher–Yates passes.
    ///
    /// # Safety
    /// The caller is worker `i`, inside the lease and past the barrier that
    /// follows the column refinement.
    unsafe fn scatter(&self, scatter: &Scatter, i: usize, rng: &mut Pcg64) -> Duration {
        let k = scatter.targets();
        let mut demand: Vec<u64> = (0..k).map(|c| scatter.refined(i, c)).collect();
        let mut cursor: Vec<u64> = (0..k)
            .map(|c| scatter.starts[c] + (0..i).map(|l| scatter.refined(l, c)).sum::<u64>())
            .collect();
        let end: Vec<u64> = cursor.iter().zip(&demand).map(|(at, d)| at + d).collect();
        assert!(
            (0..k).all(|c| end[c] <= scatter.starts[c + 1]),
            "worker {i}'s slots overflow their buckets"
        );
        let mut left = self.source.size(i);
        assert_eq!(
            demand.iter().sum::<u64>(),
            left,
            "row {i} of the sampled matrix does not sum to its source size"
        );
        let window = effective_bucket_items(left as usize, scatter.window) as u64;
        let mut from = self.source.offset(i);
        let mut split = vec![0; k];
        let mut shuffled = Duration::ZERO;
        // An exchange fault fires once the first window's runs sit in both
        // buffers (at once for an empty block).
        let fault = self
            .fault
            .is_some_and(|f| f.proc == i && f.phase == FaultPhase::Exchange);
        if fault && left == 0 {
            panic!("injected engine fault (exchange phase, mid-scatter)");
        }
        while left > 0 {
            let take = window.min(left);
            let ahead = window.min(left - take);
            let started = Instant::now();
            // SAFETY: the window and the next one lie inside source block
            // `i`, which only this worker touches.
            let (current, next) = self
                .handoff
                .block(from as usize, (take + ahead) as usize)
                .split_at_mut(take as usize);
            fisher_yates_shuffle_warming(rng, current, next);
            shuffled += started.elapsed();
            if take == left {
                // The last window's split is forced: skip the draw.
                split.copy_from_slice(&demand);
            } else {
                multivariate_hypergeometric_into(rng, take, &demand, &mut split);
            }
            let window_end = from + take;
            for c in 0..k {
                let count = split[c];
                if count == 0 {
                    continue;
                }
                assert!(
                    cursor[c] + count <= end[c] && from + count <= window_end,
                    "run ({i}, {c}) of the scatter overflows its slot"
                );
                // SAFETY: the run lies inside the window just shuffled and
                // inside slot `(i, c)`, which only this worker writes; both
                // were just checked.
                self.handoff
                    .place(from as usize, cursor[c] as usize, count as usize);
                cursor[c] += count;
                demand[c] -= count;
                from += count;
            }
            left -= take;
            if fault {
                panic!("injected engine fault (exchange phase, mid-scatter)");
            }
        }
        assert_eq!(
            cursor, end,
            "worker {i} left a slot of the scatter unfilled"
        );
        shuffled
    }
}

/// Stages one job: lays out the one scatter level when some block exceeds
/// `SCATTER_MIN_WINDOWS` windows (one window of the test override's size
/// when [`PermuteOptions::window_items`] is set; see [`Scatter::plan`]),
/// and takes the caller's items and the scratch's spare into a
/// [`Handoff`].
///
/// The distributions must already be validated (see
/// [`PermuteOptions::resolve_target_sizes`]): all misuse is rejected before
/// this moves a single item.
fn stage_job<T: Send>(
    data: &mut Vec<T>,
    source: BlockDistribution,
    target: BlockDistribution,
    options: &PermuteOptions,
    scratch: &mut PermuteScratch<T>,
) -> Arc<Job<T>> {
    let p = source.procs();
    // The protocol's block ranges come from these distributions.
    assert!(
        source.total() == data.len() as u64 && target.total() == data.len() as u64,
        "the block distributions must cover the payload exactly"
    );
    let scatter = Scatter::plan::<T>(&source, &target, options.window_items);
    Arc::new(Job {
        handoff: Handoff::new(std::mem::take(data), std::mem::take(&mut scratch.spare)),
        source,
        target,
        matrix: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
        scatter,
        backend: options.backend,
        fault: options.fault,
    })
}

/// Hands the storage of a finished run back to the caller — the one place
/// the [`Handoff`] is undone (see its safety protocol).
fn reclaim<T>(job: Arc<Job<T>>, end: RunEnd, data: &mut Vec<T>, scratch: &mut PermuteScratch<T>) {
    let h = &job.handoff;
    let vacant = h.vacate();
    assert!(
        vacant || matches!(end, RunEnd::Failed),
        "a worker is still inside a finished permutation job"
    );
    // SAFETY: once the lease is vacant no worker is inside the run or can
    // enter it, and this consumes the job's only reclaim.  A completed run
    // left every item in `output` once and only moved-out bits in `input`;
    // after a failed one an item may be in either or both, so both come
    // back with length 0 and leak their items.
    let (caller, spare) = unsafe {
        match end {
            RunEnd::Done => (h.output_vec(h.len), h.input_vec(0)),
            RunEnd::Failed if vacant => (h.input_vec(0), h.output_vec(0)),
            // A worker may still be running and writing: leak both
            // allocations.
            RunEnd::Failed => (Vec::new(), Vec::new()),
        }
    };
    *data = caller;
    // The caller's allocation may be far larger than this job (a pooled
    // vector that once held a big payload); keeping it would pin that
    // memory in a scratch that serves small jobs.
    if spare.capacity() <= h.len.saturating_mul(2) {
        scratch.spare = spare;
    }
}

/// One phase of the fused program.  Every virtual processor runs the
/// phases of [`Job::program`] in order; a barrier follows where the program
/// says so.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Opens superstep 1.  On the Fisher–Yates path the processor shuffles
    /// its own block in place; the one scatter level fuses that shuffle
    /// into [`Phase::Scatter`].
    ShuffleSource,
    /// The matrix phase, in-context on the word plane, up to its last
    /// sends.  Every backend but `ParallelOptimal` ends holding its row of
    /// `A`.
    Sample,
    /// The rest of the matrix phase (`ParallelOptimal` receives its row),
    /// then publishes the row into the job's table.  A barrier follows.
    Publish,
    /// Supersteps 2–3 on the Fisher–Yates path: gathers the own target
    /// block from every source block and shuffles it.
    Gather,
    /// One scatter level: refines the own column of `A` over the buckets
    /// of the own target block.  A barrier follows.
    Refine,
    /// One scatter level: supersteps 1 + 2, window by window.  A barrier
    /// follows.
    Scatter,
    /// One scatter level: superstep 3, bucket by bucket.
    ShuffleBuckets,
}

/// The Fisher–Yates path: each phase with whether a barrier follows it.
const FISHER_YATES_PROGRAM: &[(Phase, bool)] = &[
    (Phase::ShuffleSource, false),
    (Phase::Sample, false),
    (Phase::Publish, true),
    (Phase::Gather, false),
];

/// The one scatter level: each phase with whether a barrier follows it.
const SCATTER_PROGRAM: &[(Phase, bool)] = &[
    (Phase::ShuffleSource, false),
    (Phase::Sample, false),
    (Phase::Publish, true),
    (Phase::Refine, true),
    (Phase::Scatter, true),
    (Phase::ShuffleBuckets, false),
];

/// One virtual processor's state across the phases of a run: its local
/// shuffle stream, its row of `A` and its phase clocks.
struct Worker {
    /// The per-processor local-shuffle stream.  The local shuffles must be
    /// statistically independent of the sampled matrix, so they draw from
    /// their own streams, derived from the master seed per call.
    rng: Pcg64,
    /// The processor's row of `A`: set by [`Phase::Sample`] (by
    /// [`Phase::Publish`] for `ParallelOptimal`).
    row: Option<Vec<u64>>,
    matrix: Duration,
    data: Duration,
    shuffle: Duration,
}

impl Worker {
    fn new<T: Send>(ctx: &ProcCtx<T>) -> Self {
        Worker {
            rng: ctx
                .seeds()
                .child_sequence(SHUFFLE_STREAMS)
                .proc_stream(ctx.id()),
            row: None,
            matrix: Duration::ZERO,
            data: Duration::ZERO,
            shuffle: Duration::ZERO,
        }
    }

    fn finish(self) -> ProcResult {
        let row = self.row.expect("every program publishes the row");
        (row, self.matrix, self.data, self.shuffle)
    }
}

impl<T: Send> Job<T> {
    /// The phases every virtual processor runs, in order.
    fn program(&self) -> &'static [(Phase, bool)] {
        match self.scatter {
            None => FISHER_YATES_PROGRAM,
            Some(_) => SCATTER_PROGRAM,
        }
    }

    /// Runs `phase` of the program on virtual processor `ctx.id()`.
    ///
    /// Every random stream a phase draws is derived from the machine's
    /// master seed per call (never from executor history), and a phase
    /// reads another processor's output only after a barrier.  So the
    /// output does not depend on how the processors are run: as threads
    /// that meet at the barriers ([`worker_closure`]), or one after another
    /// on one thread ([`run_serial`]).
    ///
    /// # Safety
    /// The caller holds a lease on the job's [`Handoff`] and runs the
    /// phases of [`Job::program`] in order, each phase on this processor
    /// once.  Where the program puts a barrier, every processor finished
    /// the phase before it before any starts the phase after it.
    unsafe fn step(&self, phase: Phase, ctx: &mut ProcCtx<T>, worker: &mut Worker) {
        let id = ctx.id();
        let started = Instant::now();
        match phase {
            Phase::ShuffleSource => {
                ctx.superstep();
                if self.scatter.is_none() {
                    // SAFETY: protocol step 1 — this worker's own,
                    // initialized block.
                    let block = self.handoff.block(
                        self.source.offset(id) as usize,
                        self.source.size(id) as usize,
                    );
                    fisher_yates_shuffle(&mut worker.rng, block);
                    worker.shuffle += started.elapsed();
                }
            }
            Phase::Sample => {
                if let Some(f) = self.fault {
                    if f.proc == id && f.phase == FaultPhase::Matrix {
                        panic!("injected engine fault (matrix phase)");
                    }
                }
                let mut mctx = ctx.matrix_ctx();
                let (source, target) = (self.source.sizes(), self.target.sizes());
                worker.row = match self.backend {
                    MatrixBackend::Sequential => {
                        Some(sample_sequential_ctx(&mut mctx, source, target))
                    }
                    MatrixBackend::Recursive => {
                        Some(sample_recursive_ctx(&mut mctx, source, target))
                    }
                    MatrixBackend::ParallelLog => {
                        Some(sample_parallel_log_ctx(&mut mctx, source, target))
                    }
                    MatrixBackend::ParallelOptimal => {
                        sample_parallel_optimal_send_ctx(&mut mctx, source, target);
                        None
                    }
                };
                worker.matrix += started.elapsed();
                return;
            }
            Phase::Publish => {
                let p = self.source.procs();
                let row = match worker.row.take() {
                    Some(row) => row,
                    None => sample_parallel_optimal_recv_ctx(&mut ctx.matrix_ctx(), p),
                };
                worker.matrix += started.elapsed();
                let published = Instant::now();
                ctx.superstep();
                if let Some(f) = self.fault {
                    if f.proc == id && f.phase == FaultPhase::Exchange && self.scatter.is_none() {
                        panic!("injected engine fault (exchange phase)");
                    }
                }
                debug_assert_eq!(row.len(), p, "resolve_target_sizes guarantees p' == p");
                // Relaxed: the barrier that follows orders these stores
                // before every worker's loads in `gather` and `refine`.
                for (cell, &a) in self.matrix[id * p..(id + 1) * p].iter().zip(&row) {
                    cell.store(a, Ordering::Relaxed);
                }
                worker.row = Some(row);
                worker.data += published.elapsed();
                return;
            }
            Phase::Gather => {
                // Because the blocks were just shuffled, taking consecutive
                // runs of length a_ij is a uniformly random choice of which
                // items go where; each run is copied once, straight to its
                // final slot, by the worker that shuffles it next.
                self.gather(id);
                ctx.comm_mut()
                    .meter_all_to_all(self.source.size(id), self.target.size(id));
                // Superstep 3: shuffle the now complete target block in
                // place.
                ctx.superstep();
                let reshuffle_started = Instant::now();
                // SAFETY: protocol step 3 — this worker just filled the
                // whole block.
                let block = self.handoff.target_block(
                    self.target.offset(id) as usize,
                    self.target.size(id) as usize,
                );
                fisher_yates_shuffle(&mut worker.rng, block);
                worker.shuffle += reshuffle_started.elapsed();
            }
            Phase::Refine => {
                let scatter = self.scatter.as_ref().expect("a scatter phase");
                let mut rng = ctx.seeds().child_sequence(REFINE_STREAMS).proc_stream(id);
                self.refine(scatter, id, &mut rng);
            }
            Phase::Scatter => {
                let scatter = self.scatter.as_ref().expect("a scatter phase");
                worker.shuffle += self.scatter(scatter, id, &mut worker.rng);
                ctx.comm_mut()
                    .meter_all_to_all(self.source.size(id), self.target.size(id));
            }
            Phase::ShuffleBuckets => {
                let scatter = self.scatter.as_ref().expect("a scatter phase");
                ctx.superstep();
                let reshuffle_started = Instant::now();
                let target_start = self.target.offset(id);
                debug_assert_eq!(scatter.starts[scatter.first[id]], target_start);
                // SAFETY: protocol step 3 — every worker filled its slots of
                // this block before the barrier.
                let mut rest = self
                    .handoff
                    .target_block(target_start as usize, self.target.size(id) as usize);
                for c in scatter.first[id]..scatter.first[id + 1] {
                    let len = (scatter.starts[c + 1] - scatter.starts[c]) as usize;
                    let (bucket, tail) = rest.split_at_mut(len);
                    // Warm the next bucket of this block, if any; it is no
                    // longer than this one.
                    fisher_yates_shuffle_warming(
                        &mut worker.rng,
                        bucket,
                        &tail[..len.min(tail.len())],
                    );
                    rest = tail;
                }
                worker.shuffle += reshuffle_started.elapsed();
            }
        }
        worker.data += started.elapsed();
    }
}

/// Builds the per-processor job closure for a staged job: the whole of
/// Algorithm 1 as one closure every virtual processor runs on its own
/// thread, the phases of [`Job::program`] with a barrier where the program
/// puts one.  A barrier's wait counts as data-phase time.
fn worker_closure<T: Send + 'static>(
    job: &Arc<Job<T>>,
) -> impl Fn(&mut ProcCtx<T>) -> ProcResult + Send + Sync + 'static {
    let job = Arc::clone(job);
    move |ctx| -> ProcResult {
        let _inside = job.handoff.enter();
        let mut worker = Worker::new(ctx);
        for &(phase, barrier) in job.program() {
            // SAFETY: this worker is inside the lease and runs the phases
            // in order; the barrier below separates the phases the program
            // separates.
            unsafe { job.step(phase, ctx, &mut worker) };
            if barrier {
                let waiting = Instant::now();
                ctx.comm_mut().barrier();
                worker.data += waiting.elapsed();
            }
        }
        worker.finish()
    }
}

/// Runs a staged job on the calling thread: each phase of
/// [`Job::program`] on every virtual processor, in id order, before the
/// next phase.
///
/// The output is the threaded run's, byte for byte (see [`Job::step`]).
/// Replaying in id order is what lets the word plane loop back: within a
/// phase, every matrix backend sends only to higher ids or to itself, except
/// `ParallelOptimal`'s final all-to-all, whose receives are the next phase.
/// A panic in a phase stops the run and is reported as
/// [`CgmError::ProcessorPanicked`] naming the processor.
fn run_serial<T: Send + 'static>(
    job: &Job<T>,
    machine: &mut LoopbackCgm<T>,
) -> Result<Vec<ProcResult>, CgmError> {
    let _inside = job.handoff.enter();
    let contexts = machine.contexts();
    let mut workers: Vec<Worker> = contexts.iter().map(|ctx| Worker::new(ctx)).collect();
    for &(phase, barrier) in job.program() {
        for (ctx, worker) in contexts.iter_mut().zip(&mut workers) {
            let proc = ctx.id();
            // SAFETY: this thread holds the lease for every processor and
            // runs each phase on all of them before the next phase.
            let ran = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                job.step(phase, ctx, worker)
            }));
            ran.map_err(|payload| CgmError::ProcessorPanicked {
                proc,
                message: panic_text(payload.as_ref()),
            })?;
        }
        if barrier {
            // Metered like the threaded run's; a loopback barrier never
            // waits.
            contexts.iter_mut().for_each(|ctx| ctx.comm_mut().barrier());
        }
    }
    Ok(workers.into_iter().map(Worker::finish).collect())
}

/// The text of a caught panic payload.
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Assembles one job's per-processor results into the run report: phase
/// timings (the maximum over workers, or on a `serial` run their sum) and
/// the (optionally kept) communication matrix.
fn collect_report<T>(
    job: &Job<T>,
    results: Vec<ProcResult>,
    metrics: MachineMetrics,
    options: &PermuteOptions,
    total_elapsed: Duration,
    serial: bool,
) -> PermutationReport {
    // Threads overlap their phases, so a phase took as long as its slowest
    // worker; a serial run does them one after another, so the times add
    // up.
    let combine = |a: Duration, b: Duration| if serial { a + b } else { a.max(b) };
    let mut rows = Vec::with_capacity(results.len());
    let mut matrix_elapsed = Duration::ZERO;
    let mut exchange_elapsed = Duration::ZERO;
    let mut shuffle_elapsed = Duration::ZERO;
    for (row, matrix_dur, data_dur, shuffle_dur) in results {
        rows.push(row);
        matrix_elapsed = combine(matrix_elapsed, matrix_dur);
        exchange_elapsed = combine(exchange_elapsed, data_dur);
        shuffle_elapsed = combine(shuffle_elapsed, shuffle_dur);
    }

    // The rows every worker brought back assemble into the sampled matrix;
    // in debug builds verify its marginals unconditionally, in release only
    // pay the assembly when the caller asked to keep it.
    let matrix = (options.keep_matrix || cfg!(debug_assertions)).then(|| {
        let matrix = CommMatrix::from_rows(rows);
        debug_assert!(matrix
            .check_marginals(job.source.sizes(), job.target.sizes())
            .is_ok());
        matrix
    });

    PermutationReport {
        backend: options.backend,
        matrix_elapsed,
        exchange_elapsed,
        shuffle_elapsed,
        matrix_metrics: MachineMetrics {
            per_proc: metrics.matrix_plane,
            matrix_plane: Vec::new(),
            elapsed: matrix_elapsed,
        },
        exchange_metrics: MachineMetrics {
            per_proc: metrics.per_proc,
            matrix_plane: Vec::new(),
            elapsed: exchange_elapsed,
        },
        matrix: matrix.filter(|_| options.keep_matrix),
        total_elapsed,
    }
}

/// The source and target distributions of one job over `p` processors:
/// the given source blocks, and the prescribed targets or the same sizes.
///
/// # Panics
/// On a bad prescription (see [`PermuteOptions::validate_target_sizes`]).
fn distributions(
    p: usize,
    source: BlockDistribution,
    options: &PermuteOptions,
) -> (BlockDistribution, BlockDistribution) {
    let target = BlockDistribution::from_sizes(options.resolve_target_sizes(p, source.sizes()));
    (source, target)
}

/// The fused, direct-placement engine behind every entry point: stages a
/// [`Job`], runs its [`worker_closure`] as **one job on one executor**, and
/// hands the permuted items back in `data`.  The serial entry
/// ([`try_permute_vec_serial`]) shares all of its pieces but the runner.
///
/// Generic over the execution substrate: the same engine runs one-shot on a
/// [`CgmMachine`] (threads spawned per call) or on a [`cgp_cgm::ResidentCgm`]
/// worker pool (threads spawned once, per the session API) — shared state
/// travels in an `Arc` so the job closure is `'static` either way.  No
/// second machine is built for the matrix phase; the samplers run
/// in-context on the word plane of the same workers (see the module docs).
fn try_permute_placed<T, E>(
    exec: &mut E,
    data: &mut Vec<T>,
    (source, target): (BlockDistribution, BlockDistribution),
    options: &PermuteOptions,
    scratch: &mut PermuteScratch<T>,
) -> Result<PermutationReport, CgmError>
where
    T: Send + 'static,
    E: CgmExecutor<T>,
{
    let job = stage_job(data, source, target, options, scratch);
    let run_started = Instant::now();
    let outcome = exec.try_run_job(worker_closure(&job));
    let total_elapsed = run_started.elapsed();
    match outcome {
        Ok(run) => {
            let (results, metrics) = run.into_parts();
            let report = collect_report(&job, results, metrics, options, total_elapsed, false);
            reclaim(job, RunEnd::Done, data, scratch);
            Ok(report)
        }
        Err(e) => {
            reclaim(job, RunEnd::Failed, data, scratch);
            Err(e)
        }
    }
}

/// Permutes a block-distributed vector.
///
/// `blocks[i]` is the block `B_i` held by processor `i` (so `blocks.len()`
/// must equal the machine's processor count).  The result is the permuted
/// vector in the same block structure unless `options.target_sizes`
/// prescribes different target block sizes `m'_j` (one per processor).
///
/// Every permutation of the `n` input items into the target blocks is
/// equally likely (Theorem 1), provided the underlying generator is sound.
///
/// Items are moved, never cloned: `T` only needs to be `Send`.  The blocks
/// are concatenated into one vector for the engine and the output is split
/// back into target blocks.
///
/// # Panics
/// Panics if `blocks.len()` differs from the machine size, the target sizes
/// do not sum to `n`, or their count differs from the processor count
/// (rectangular redistributions and wrong block counts are rejected up
/// front, on the calling thread, with a clear message rather than failing
/// inside worker threads).
pub fn permute_blocks<T: Send + 'static>(
    machine: &CgmMachine,
    blocks: Vec<Vec<T>>,
    options: &PermuteOptions,
) -> (Vec<Vec<T>>, PermutationReport) {
    let p = machine.procs();
    validate_block_count(p, blocks.len());
    let source = BlockDistribution::from_sizes(blocks.iter().map(|b| b.len() as u64).collect());
    let (source, target) = distributions(p, source, options);
    let output_blocks = target.clone();
    let mut data: Vec<T> = Vec::with_capacity(source.total() as usize);
    for block in blocks {
        data.extend(block);
    }
    let report = try_permute_placed(
        &mut machine.clone(),
        &mut data,
        (source, target),
        options,
        &mut PermuteScratch::new(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    (output_blocks.split_vec(data), report)
}

/// Convenience wrapper: splits `data` evenly over the machine's processors,
/// permutes, and returns the result as a single vector.
pub fn permute_vec<T: Send + 'static>(
    machine: &CgmMachine,
    mut data: Vec<T>,
    options: &PermuteOptions,
) -> (Vec<T>, PermutationReport) {
    let report = permute_vec_into(machine, &mut data, options, &mut PermuteScratch::new());
    (data, report)
}

/// Allocation-reusing variant of [`permute_vec`]: permutes `data`, recycling
/// the output buffer through `scratch` across calls.
///
/// `data` may come back in a different allocation: the permuted items are
/// placed into the scratch's spare (capacity at least `n`), and the caller's
/// old allocation becomes the next call's spare (see [`PermuteScratch`]).
///
/// Produces exactly the same permutation as [`permute_vec`] for the same
/// machine seed and options; only the allocation behaviour differs.  Intended
/// for steady-state callers that permute many same-shaped vectors — once the
/// scratch is warm no per-item allocation remains.
///
/// To also amortize the machine startup itself (thread spawns, channel
/// fabric), pair a scratch with a resident pool via
/// [`permute_vec_into_with`] — or use the bundled session API,
/// [`crate::Permuter::session`].
pub fn permute_vec_into<T: Send + 'static>(
    machine: &CgmMachine,
    data: &mut Vec<T>,
    options: &PermuteOptions,
    scratch: &mut PermuteScratch<T>,
) -> PermutationReport {
    let mut exec = machine.clone();
    permute_vec_into_with(&mut exec, data, options, scratch)
}

/// Executor-generic core of [`permute_vec_into`]: permutes `data` on any
/// [`CgmExecutor`] — the one-shot [`CgmMachine`] or a resident
/// [`cgp_cgm::ResidentCgm`] pool.
///
/// For a fixed configuration (processor count, seed, options) every
/// substrate produces the **identical** permutation: all random streams are
/// derived from the machine seed per call, never from substrate state.
pub fn permute_vec_into_with<T, E>(
    exec: &mut E,
    data: &mut Vec<T>,
    options: &PermuteOptions,
    scratch: &mut PermuteScratch<T>,
) -> PermutationReport
where
    T: Send + 'static,
    E: CgmExecutor<T>,
{
    try_permute_vec_into_with(exec, data, options, scratch).unwrap_or_else(|e| panic!("{e}"))
}

/// Fail-fast variant of [`permute_vec_into_with`]: a job that panics inside
/// a virtual processor is reported as [`CgmError::ProcessorPanicked`]
/// (naming the processor, exactly as the panic of the infallible variant
/// would) instead of unwinding the caller.
///
/// On a [`cgp_cgm::ResidentCgm`] the pool recovers its fabric before this
/// returns, so the executor stays usable for further jobs — this is the
/// engine entry a multi-tenant [`crate::PermutationService`] dispatches
/// through, where one tenant's failure must be contained to its own ticket.
///
/// # Data loss on failure
/// By the time a worker panics the items are spread over the input and
/// output buffers, so on `Err` they are leaked — never dropped twice (see
/// the module docs): `data` is left empty and the scratch possibly cold.
/// Misuse that is detected *before* any item moves (bad prescriptions, see
/// [`PermuteOptions::validate_target_sizes`]) still panics on the calling
/// thread with `data` untouched, as in the infallible variant.
pub fn try_permute_vec_into_with<T, E>(
    exec: &mut E,
    data: &mut Vec<T>,
    options: &PermuteOptions,
    scratch: &mut PermuteScratch<T>,
) -> Result<PermutationReport, CgmError>
where
    T: Send + 'static,
    E: CgmExecutor<T>,
{
    let p = exec.procs();
    let layout = distributions(p, BlockDistribution::even(data.len() as u64, p), options);
    try_permute_placed(exec, data, layout, options, scratch)
}

/// Serial counterpart of [`try_permute_vec_into_with`]: permutes `data` on
/// one thread, replaying the `p` virtual processors of `machine` phase by
/// phase (see [`LoopbackCgm`]) — the entry every executor of a
/// [`crate::PermutationService`] runs its jobs through, and the engine of
/// the sequential [`crate::LocalShuffle::Bucketed`] shuffle.
///
/// The permutation and the metered communication are byte-identical to a
/// threaded run with the same configuration and options; the report's
/// phase times are sums over the virtual processors.  A panic in a virtual
/// processor comes back as [`CgmError::ProcessorPanicked`] with the items
/// leaked, exactly as on the threaded path, and `machine` is ready for the
/// next job.
pub(crate) fn try_permute_vec_serial<T: Send + 'static>(
    machine: &mut LoopbackCgm<T>,
    data: &mut Vec<T>,
    options: &PermuteOptions,
    scratch: &mut PermuteScratch<T>,
) -> Result<PermutationReport, CgmError> {
    let p = machine.config().procs;
    let (source, target) = distributions(p, BlockDistribution::even(data.len() as u64, p), options);
    let job = stage_job(data, source, target, options, scratch);
    let run_started = Instant::now();
    let outcome = run_serial(&job, machine);
    let total_elapsed = run_started.elapsed();
    match outcome {
        Ok(results) => {
            let metrics = machine.take_metrics(total_elapsed);
            let report = collect_report(&job, results, metrics, options, total_elapsed, true);
            reclaim(job, RunEnd::Done, data, scratch);
            Ok(report)
        }
        Err(e) => {
            machine.recover();
            reclaim(job, RunEnd::Failed, data, scratch);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_cgm::CgmConfig;

    fn is_permutation_of_identity(v: &[u64]) -> bool {
        let mut seen = vec![false; v.len()];
        for &x in v {
            if x as usize >= v.len() || seen[x as usize] {
                return false;
            }
            seen[x as usize] = true;
        }
        true
    }

    /// `K` and the bucket sizes of each target block of a layout.
    fn buckets(scatter: &Scatter) -> (usize, Vec<Vec<u64>>) {
        let blocks = (0..scatter.first.len() - 1)
            .map(|j| {
                (scatter.first[j]..scatter.first[j + 1])
                    .map(|c| scatter.starts[c + 1] - scatter.starts[c])
                    .collect()
            })
            .collect();
        (scatter.targets(), blocks)
    }

    /// The layout of a job whose blocks have the given sizes.
    fn plan<T>(source: &[u64], target: &[u64], window_items: Option<usize>) -> Option<Scatter> {
        Scatter::plan::<T>(
            &BlockDistribution::from_sizes(source.to_vec()),
            &BlockDistribution::from_sizes(target.to_vec()),
            window_items,
        )
    }

    #[test]
    fn buckets_grow_until_runs_reach_the_floor() {
        const M: u64 = 1 << 20;
        // (source blocks, target blocks, K, bucket size of each block): K
        // is at most ⌊w / MIN_RUN_ITEMS⌋ where the 1 MiB cap allows it.
        type Shape = (&'static [u64], &'static [u64], usize, &'static [u64]);
        let u64_shapes: [Shape; 8] = [
            // p = 2, n = 2^22: one-window buckets already meet the floor.
            (&[2 * M, 2 * M], &[2 * M, 2 * M], 128, &[1 << 15, 1 << 15]),
            // n = 2^23 and 2^24: 256 and 512 targets shrink to 128.
            (&[4 * M, 4 * M], &[4 * M, 4 * M], 128, &[1 << 16, 1 << 16]),
            (&[8 * M, 8 * M], &[8 * M, 8 * M], 128, &[1 << 17, 1 << 17]),
            // n = 2^25: the fan-out cap doubles the window to 2^16 items,
            // so the floor allows 256 targets.
            (
                &[16 * M, 16 * M],
                &[16 * M, 16 * M],
                256,
                &[1 << 17, 1 << 17],
            ),
            // n = 2^26: the fan-out cap alone already meets the floor.
            (
                &[32 * M, 32 * M],
                &[32 * M, 32 * M],
                512,
                &[1 << 17, 1 << 17],
            ),
            // p = 1, n = 2^23.
            (&[8 * M], &[8 * M], 128, &[1 << 16]),
            // Uneven targets: one size fits both blocks.
            (&[4 * M, 4 * M], &[2 * M, 6 * M], 128, &[1 << 16, 1 << 16]),
            // Uneven sources, one empty: the smallest non-empty window
            // sets the floor, and the byte cap stops the growth short of it.
            (
                &[0, 8 * M, 24 * M],
                &[16 * M, 0, 16 * M],
                256,
                &[1 << 17, 0, 1 << 17],
            ),
        ];
        for (source, target, k, sizes) in u64_shapes {
            let scatter = plan::<u64>(source, target, None).expect("a scatter");
            let (targets, blocks) = buckets(&scatter);
            assert_eq!(targets, k, "{source:?} -> {target:?}");
            for ((block, &size), &m) in blocks.iter().zip(sizes).zip(target) {
                assert_eq!(block.iter().sum::<u64>(), m, "{source:?} -> {target:?}");
                assert!(
                    block.iter().all(|&b| b == size),
                    "{source:?} -> {target:?}: {block:?}"
                );
            }
        }
        // 512-byte records at 64 MiB, p = 2: windows of 512 items allow
        // just 2 targets, so the 1 MiB cap (2048 items) binds: 64 targets,
        // runs of ~8 items instead of 256 targets and ~2 items.
        let scatter = plan::<[u64; 64]>(&[1 << 16, 1 << 16], &[1 << 16, 1 << 16], None);
        let (targets, blocks) = buckets(&scatter.expect("a scatter"));
        assert_eq!(targets, 64);
        assert!(blocks.iter().flatten().all(|&b| b == 2048));
    }

    #[test]
    fn the_window_override_keeps_one_window_buckets() {
        // The override makes every bucket one window, raised only by the
        // fan-out cap, whatever the run length: the sequential engine and
        // the override-based golden pins depend on it.
        const M: u64 = 1 << 20;
        for (source, target) in [
            (&[8 * M, 8 * M][..], &[8 * M, 8 * M][..]),
            (&[16 * M, 16 * M], &[16 * M, 16 * M]),
            (&[4 * M, 4 * M], &[2 * M, 6 * M]),
            (&[100, 4000], &[3000, 1100]),
        ] {
            for window in [1, 16, 1 << 15] {
                let scatter = plan::<u64>(source, target, Some(window));
                if source.iter().chain(target).all(|&m| m <= window as u64) {
                    assert!(
                        scatter.is_none(),
                        "{source:?} -> {target:?}, window {window}"
                    );
                    continue;
                }
                let scatter = scatter.expect("a scatter");
                let (targets, blocks) = buckets(&scatter);
                let one_window: Vec<Vec<u64>> = target
                    .iter()
                    .map(|&m| {
                        let bucket = effective_bucket_items(m as usize, window) as u64;
                        (0..m.div_ceil(bucket))
                            .map(|b| bucket.min(m - b * bucket))
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    blocks, one_window,
                    "{source:?} -> {target:?}, window {window}"
                );
                assert_eq!(targets, one_window.iter().map(Vec::len).sum::<usize>());
                assert_eq!(scatter.window, window);
            }
        }
        // Small blocks keep the Fisher–Yates path, with or without it.
        assert!(plan::<u64>(&[1 << 17, 1 << 17], &[1 << 17, 1 << 17], None).is_none());
        assert!(plan::<u64>(&[16, 16], &[16, 16], Some(16)).is_none());
    }

    #[test]
    fn output_is_always_a_permutation_for_every_backend() {
        for backend in MatrixBackend::ALL {
            let machine = CgmMachine::new(CgmConfig::new(6).with_seed(42));
            let data: Vec<u64> = (0..600).collect();
            let (out, report) = permute_vec(&machine, data, &PermuteOptions::with_backend(backend));
            assert!(
                is_permutation_of_identity(&out),
                "{backend:?} did not produce a permutation"
            );
            assert_eq!(report.backend, backend);
        }
    }

    #[test]
    fn uneven_blocks_and_different_target_sizes() {
        let machine = CgmMachine::new(CgmConfig::new(3).with_seed(7));
        let blocks = vec![
            (0..10u64).collect::<Vec<_>>(),
            (10..15u64).collect::<Vec<_>>(),
            (15..30u64).collect::<Vec<_>>(),
        ];
        let options = PermuteOptions::default()
            .keep_matrix()
            .target_sizes(vec![12, 12, 6]);
        let (out, report) = permute_blocks(&machine, blocks, &options);
        assert_eq!(out[0].len(), 12);
        assert_eq!(out[1].len(), 12);
        assert_eq!(out[2].len(), 6);
        let mut all: Vec<u64> = out.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<u64>>());
        let matrix = report.matrix.expect("matrix was requested");
        matrix.check_marginals(&[10, 5, 15], &[12, 12, 6]).unwrap();
    }

    #[test]
    fn exchange_volume_is_balanced_and_linear_in_m() {
        // Theorem 1: O(m) communication volume per processor.  Each processor
        // sends its m items and receives its m' items (plus nothing else).
        let p = 8usize;
        let m = 500usize;
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(3));
        let data: Vec<u64> = (0..(p * m) as u64).collect();
        let (_, report) = permute_vec(&machine, data, &PermuteOptions::default());
        for proc in &report.exchange_metrics.per_proc {
            assert_eq!(proc.words_sent, m as u64);
            assert_eq!(proc.words_received, m as u64);
        }
        assert!((report.exchange_metrics.comm_balance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_machine_seed() {
        let run = |seed: u64| {
            let machine = CgmMachine::new(CgmConfig::new(4).with_seed(seed));
            let data: Vec<u64> = (0..256).collect();
            permute_vec(&machine, data, &PermuteOptions::default()).0
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn single_processor_reduces_to_a_local_shuffle() {
        let machine = CgmMachine::new(CgmConfig::new(1).with_seed(5));
        let data: Vec<u64> = (0..100).collect();
        let (out, report) = permute_vec(&machine, data, &PermuteOptions::default());
        assert!(is_permutation_of_identity(&out));
        assert_eq!(report.exchange_metrics.total_messages(), 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let machine = CgmMachine::new(CgmConfig::new(3).with_seed(1));
        let (out, _) = permute_vec(&machine, Vec::<u64>::new(), &PermuteOptions::default());
        assert!(out.is_empty());
        let (out, _) = permute_vec(&machine, vec![42u64], &PermuteOptions::default());
        assert_eq!(out, vec![42]);
        let (out, _) = permute_vec(&machine, vec![1u64, 2], &PermuteOptions::default());
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn clone_heavy_payload_type() {
        // String payloads: moved through the exchange, never cloned.
        let machine = CgmMachine::new(CgmConfig::new(2).with_seed(9));
        let data: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let (out, _) = permute_vec(&machine, data.clone(), &PermuteOptions::default());
        let mut a = out.clone();
        let mut b = data.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn non_clone_payload_type() {
        // The exchange is move-based: a type that is Send but NOT Clone (and
        // not Copy) must flow through unchanged.
        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Token(u64);
        let machine = CgmMachine::new(CgmConfig::new(3).with_seed(21));
        let data: Vec<Token> = (0..90).map(Token).collect();
        let (mut out, _) = permute_vec(&machine, data, &PermuteOptions::default());
        out.sort();
        assert_eq!(out, (0..90).map(Token).collect::<Vec<_>>());
    }

    #[test]
    fn permute_vec_into_matches_permute_vec_and_reuses_buffers() {
        let machine = CgmMachine::new(CgmConfig::new(4).with_seed(33));
        let options = PermuteOptions::default();
        let reference = permute_vec(&machine, (0..512u64).collect(), &options).0;

        let mut scratch = PermuteScratch::new();
        let mut data: Vec<u64> = Vec::new();
        let mut buffers = Vec::new();
        for round in 0..4 {
            data.clear();
            data.extend(0..512);
            let report = permute_vec_into(&machine, &mut data, &options, &mut scratch);
            assert_eq!(
                data, reference,
                "round {round} diverged from the plain path"
            );
            assert_eq!(report.max_exchange_volume(), 2 * 512 / 4);
            assert_eq!(scratch.retained_capacity(), 512, "the spare is retained");
            buffers.push(data.as_ptr());
        }
        // The output lands in the spare and the caller's allocation becomes
        // the next spare: steady state ping-pongs between two allocations.
        assert_ne!(buffers[0], buffers[1]);
        assert_eq!(buffers[0], buffers[2]);
        assert_eq!(buffers[1], buffers[3]);
    }

    #[test]
    fn the_lease_reports_workers_inside_and_bars_late_entry() {
        // The resident pool's early `PoolShutDown` return: a worker may
        // still be inside the run when the caller gives up on it.
        let handoff = Handoff::new(vec![1u64, 2, 3], Vec::new());
        let inside = handoff.enter();
        assert!(!handoff.vacate(), "a worker inside keeps the storage");
        drop(inside);
        let late = std::panic::catch_unwind(|| {
            let _ = handoff.enter();
        });
        assert!(late.is_err(), "no worker enters a vacated run");
        assert!(handoff.vacate(), "the last worker out frees the storage");
        // SAFETY: the lease is vacant and nothing touched the input.
        let (input, spare) = unsafe { (handoff.input_vec(3), handoff.output_vec(0)) };
        assert_eq!(input, vec![1, 2, 3]);
        assert!(spare.capacity() >= 3);
    }

    #[test]
    fn permute_vec_into_with_prescribed_target_sizes() {
        let machine = CgmMachine::new(CgmConfig::new(2).with_seed(8));
        let mut scratch = PermuteScratch::new();
        let mut data: Vec<u64> = (0..20).collect();
        let options = PermuteOptions::default().target_sizes(vec![15, 5]);
        permute_vec_into(&machine, &mut data, &options, &mut scratch);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn permute_vec_into_rejects_bad_prescriptions_without_draining() {
        let machine = CgmMachine::with_procs(2);
        let mut data: Vec<u64> = (0..10).collect();
        let mut scratch = PermuteScratch::new();
        let options = PermuteOptions::default().target_sizes(vec![1, 1, 8]);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            permute_vec_into(&machine, &mut data, &options, &mut scratch);
        }));
        assert!(outcome.is_err(), "rectangular prescription must panic");
        assert_eq!(
            data,
            (0..10).collect::<Vec<u64>>(),
            "the caller's vector survives a rejected prescription"
        );
    }

    #[test]
    fn injected_faults_surface_as_attributed_errors() {
        use crate::config::EngineFault;
        use cgp_cgm::ResidentCgm;
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(4).with_seed(5));
        for (fault, phase_word) in [
            (EngineFault::matrix_phase(2), "matrix"),
            (EngineFault::exchange_phase(1), "exchange"),
        ] {
            let mut scratch = PermuteScratch::new();
            let mut data: Vec<u64> = (0..200).collect();
            let options = PermuteOptions::default().inject_fault(fault);
            let err = try_permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch)
                .unwrap_err();
            match err {
                CgmError::ProcessorPanicked { proc, ref message } => {
                    assert_eq!(proc, fault.proc, "the injecting processor is blamed");
                    assert!(message.contains(phase_word), "got: {message}");
                }
                other => panic!("unexpected error: {other}"),
            }
            assert!(data.is_empty(), "the input was consumed by the failed job");
        }
        // The pool recovered both times; a clean job still matches one-shot.
        let mut scratch = PermuteScratch::new();
        let mut data: Vec<u64> = (0..200).collect();
        let options = PermuteOptions::default();
        try_permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch).unwrap();
        let machine = CgmMachine::new(CgmConfig::new(4).with_seed(5));
        let reference = permute_vec(&machine, (0..200u64).collect(), &options).0;
        assert_eq!(data, reference);
        assert_eq!(pool.recoveries(), 2);
    }

    #[test]
    fn out_of_range_fault_never_fires() {
        let machine = CgmMachine::new(CgmConfig::new(2).with_seed(3));
        let options = PermuteOptions::default();
        let reference = permute_vec(&machine, (0..64u64).collect(), &options).0;
        let armed = options.inject_fault(crate::config::EngineFault::matrix_phase(99));
        let (out, _) = permute_vec(&machine, (0..64u64).collect(), &armed);
        assert_eq!(out, reference);
    }

    #[test]
    #[should_panic(expected = "one block per processor")]
    fn wrong_block_count_panics() {
        let machine = CgmMachine::with_procs(3);
        let _ = permute_blocks(
            &machine,
            vec![vec![1u64], vec![2u64]],
            &PermuteOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "must sum to the number of items")]
    fn bad_target_sizes_panic() {
        let machine = CgmMachine::with_procs(2);
        let options = PermuteOptions::default().target_sizes(vec![1, 1]);
        let _ = permute_blocks(&machine, vec![vec![1u64, 2], vec![3u64]], &options);
    }

    #[test]
    #[should_panic(expected = "one target block per processor")]
    fn rectangular_target_sizes_fail_fast() {
        // Satellite regression: a target-size count that differs from p used
        // to trip an assert inside the worker threads; it must now fail on
        // the calling thread before the machine starts.
        let machine = CgmMachine::with_procs(2);
        let options = PermuteOptions::default().target_sizes(vec![1, 1, 1]);
        let _ = permute_blocks(&machine, vec![vec![1u64, 2], vec![3u64]], &options);
    }
}
