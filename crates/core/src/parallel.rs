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
//! 3. cuts its shuffled block along that row, runs the all-to-all exchange
//!    on the data plane, concatenates and re-shuffles (supersteps 2–3).
//!
//! No second machine is ever built: on a [`cgp_cgm::ResidentCgm`]-backed
//! [`crate::PermutationSession`] a steady-state permutation therefore makes
//! **zero thread spawns and zero channel-fabric constructions** for *every*
//! backend, including `ParallelLog`/`ParallelOptimal` (which previously
//! sampled on a freshly spawned one-shot machine per call).  The two
//! channel planes keep the phases separately metered:
//! [`PermutationReport::matrix_metrics`] carries the word-plane (matrix)
//! traffic, [`PermutationReport::exchange_metrics`] the data-plane
//! (payload) traffic.
//!
//! The engine speaks only through [`CgmExecutor`], so the one-shot machine
//! and the resident pool produce the byte-identical permutation for the
//! same seed (every random stream is derived from the machine seed per
//! call).
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
//! for large machines or small blocks.  Measure with `exp_crossover` /
//! `exp_fused` on your host when in doubt.
//!
//! # Zero-copy exchange
//!
//! The data-exchange phase is **move-based end to end**: the shuffled block
//! is cut into the `a_ij` runs by draining its tail (each item is moved
//! exactly once, never cloned), the payload vectors travel through
//! [`cgp_cgm::Communicator::all_to_all`] by value, and the receive side
//! concatenates with `Vec::append` into a buffer pre-sized from the
//! prescribed target size `m'_j` — so `O(m)` memory per processor holds with
//! a constant factor of one, matching Theorem 1's cost model.  Consequently
//! the item type only needs to be `Send`; `Clone` is *not* required.
//!
//! Callers that permute repeatedly can go further and recycle every
//! intermediate allocation across calls with [`permute_vec_into`] and a
//! [`PermuteScratch`]; callers whose payloads are not `Send` (or are too
//! heavy to ship through channels) can permute indices once with
//! [`crate::Permuter::sample_permutation`] and gather locally with
//! [`crate::apply_permutation`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cache_aware::{BucketScratch, LocalShuffle};
use crate::config::{EngineFault, FaultPhase, MatrixBackend, PermuteOptions};
use cgp_cgm::{
    BatchJobOutcome, BlockDistribution, CgmError, CgmExecutor, CgmMachine, MachineMetrics, ProcCtx,
};
use cgp_matrix::{
    sample_parallel_log_ctx, sample_parallel_optimal_ctx, sample_recursive_ctx,
    sample_sequential_ctx, CommMatrix,
};

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
/// durations (which could double-count overlap).
#[derive(Debug)]
pub struct PermutationReport {
    /// Which matrix-sampling backend was used.
    pub backend: MatrixBackend,
    /// Which local-shuffle engine the options requested (possibly
    /// [`LocalShuffle::Auto`]; the engine resolves it once against the
    /// job's total payload size and type — see
    /// [`crate::cache_aware::AUTO_CROSSOVER_BYTES`]).
    pub local_shuffle: LocalShuffle,
    /// In-run wall-clock time of the matrix phase: the maximum over
    /// workers of the time spent inside the in-context sampler.
    pub matrix_elapsed: Duration,
    /// In-run wall-clock time of the data phase: the maximum over workers
    /// of the time spent in the shuffle + cut + exchange + shuffle steps.
    pub exchange_elapsed: Duration,
    /// In-run wall-clock time of the local shuffles alone: the maximum
    /// over workers of superstep-1 plus superstep-3 shuffle time.  This is
    /// a *subset* of [`PermutationReport::exchange_elapsed`] (the data
    /// phase contains both shuffle passes), split out so benches can
    /// attribute engine wins per phase.
    pub shuffle_elapsed: Duration,
    /// Metered word-plane communication of the matrix phase.  Every
    /// backend gets a meter: the parallel backends record their
    /// `⌈log₂ p⌉` rounds, the front-end backends the row scatter from
    /// processor 0 (at `p = 1` that scatter degenerates to one metered
    /// self-send; the parallel backends move nothing at all there).
    pub matrix_metrics: MachineMetrics,
    /// Metered data-plane communication of the exchange phase.
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

/// Reusable buffers for [`permute_vec_into`]: the per-processor block
/// vectors and the per-processor outgoing payload vectors of the exchange.
///
/// A fresh scratch starts empty and warms up over the first couple of
/// calls: the block buffers are sized by the first call, and each exchange
/// buffer ratchets up once to the larger of the two run lengths it carries
/// (buffers ping-pong between the `i → j` and `j → i` directions).  From
/// then on, same-shaped calls retain every capacity and make no per-item
/// allocations — only `O(p)` bookkeeping, the sampled matrix and the
/// channel envelopes remain.
#[derive(Debug)]
pub struct PermuteScratch<T> {
    /// Per-processor block buffers (emptied, capacity retained).
    blocks: Vec<Vec<T>>,
    /// Per-processor recycled outgoing payload buffers.
    outgoing: Vec<Vec<Vec<T>>>,
    /// Per-processor staging buffers for the bucketed local-shuffle engine
    /// (empty — and never touched — while the resolved engine is
    /// Fisher–Yates).
    buckets: Vec<BucketScratch<T>>,
}

impl<T> PermuteScratch<T> {
    /// An empty scratch; buffers grow on first use and are retained after.
    pub fn new() -> Self {
        PermuteScratch {
            blocks: Vec::new(),
            outgoing: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Total capacity (in items) currently retained across the block,
    /// exchange and bucket-staging buffers — a cheap observability hook for
    /// allocation-reuse tests (a converged scratch reports the same value
    /// call after call).
    pub fn retained_capacity(&self) -> usize {
        self.blocks.iter().map(|b| b.capacity()).sum::<usize>()
            + self
                .outgoing
                .iter()
                .flatten()
                .map(|b| b.capacity())
                .sum::<usize>()
            + self
                .buckets
                .iter()
                .map(|b| b.retained_capacity())
                .sum::<usize>()
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

/// What one virtual processor takes into the exchange: its block plus the
/// recycled outgoing payload buffers and bucketed-shuffle staging from a
/// previous call (both possibly empty).
type ProcPayload<T> = (Vec<T>, Vec<Vec<T>>, BucketScratch<T>);

/// What one virtual processor hands back from the fused run: its permuted
/// block, the emptied payload shells, its bucket staging, its row of `A`,
/// and its in-run phase timings (matrix, data, local shuffles).
type ProcResult<T> = (
    Vec<T>,
    Vec<Vec<T>>,
    BucketScratch<T>,
    Vec<u64>,
    Duration,
    Duration,
    Duration,
);

/// What the engine hands back: the permuted blocks, the emptied payload
/// shells and bucket staging (capacities retained, ready to be the next
/// call's scratch), and the run report.
type EngineOutput<T> = (
    Vec<Vec<T>>,
    Vec<Vec<Vec<T>>>,
    Vec<BucketScratch<T>>,
    PermutationReport,
);

/// One permutation job, staged and ready to run on an executor: the
/// per-processor payload slots plus the resolved run parameters.
///
/// Building a plan *moves* the caller's items into the slots.  The worker
/// closure ([`worker_closure`]) takes each slot exactly once; a plan whose
/// closure never ran (a skipped sub-job in a batch) still holds every item
/// and can be dismantled again with [`Arc::try_unwrap`] — that reversibility
/// is what lets a scheduler requeue skipped jobs intact.
struct JobPlan<T> {
    slots: Arc<Vec<Mutex<Option<ProcPayload<T>>>>>,
    source_sizes: Arc<Vec<u64>>,
    target_sizes: Arc<Vec<u64>>,
    backend: MatrixBackend,
    local_shuffle: LocalShuffle,
    fault: Option<EngineFault>,
}

/// Stages one job: validates and resolves the prescription, resolves the
/// local-shuffle engine against the job's total payload, and hands each
/// virtual processor ownership of its block (and recycled buffers) through
/// a slot vector.
///
/// All misuse is rejected here, before any job starts, so failures surface
/// as a clean panic on the calling thread instead of a cross-thread panic
/// out of a worker.
fn plan_job<T: Send>(
    p: usize,
    blocks: Vec<Vec<T>>,
    mut outgoing_scratch: Vec<Vec<Vec<T>>>,
    mut bucket_scratch: Vec<BucketScratch<T>>,
    options: &PermuteOptions,
) -> JobPlan<T> {
    let source_sizes: Vec<u64> = blocks.iter().map(|b| b.len() as u64).collect();
    let target_sizes = options.resolve_target_sizes(p, &source_sizes);
    // Auto resolves against the *job's* total payload, not each worker's
    // block: all `p` blocks are live at once, so the combined working set
    // is what decides whether the local shuffles are cache-miss-bound (see
    // `AUTO_CROSSOVER_BYTES`).  Resolving here also keeps every worker on
    // the same engine.
    let total_items: u64 = source_sizes.iter().sum();
    let local_shuffle = options.local_shuffle.resolve_for::<T>(total_items as usize);

    // The closure is shared between threads, so interior mutability with an
    // exclusive take() per processor id is the simplest safe hand-off.
    outgoing_scratch.resize_with(p, Vec::new);
    bucket_scratch.resize_with(p, BucketScratch::new);
    let slots: Arc<Vec<Mutex<Option<ProcPayload<T>>>>> = Arc::new(
        blocks
            .into_iter()
            .zip(outgoing_scratch)
            .zip(bucket_scratch)
            .map(|((block, outgoing), buckets)| Mutex::new(Some((block, outgoing, buckets))))
            .collect(),
    );
    JobPlan {
        slots,
        source_sizes: Arc::new(source_sizes),
        target_sizes: Arc::new(target_sizes),
        backend: options.backend,
        local_shuffle,
        fault: options.fault,
    }
}

/// Builds the per-processor job closure for a staged plan — the whole of
/// Algorithm 1 (superstep-1 shuffle, in-context matrix sampling, cut,
/// all-to-all exchange, superstep-3 shuffle) as one closure every virtual
/// processor runs.
///
/// Every random stream the closure draws is derived from the machine's
/// master seed *per call* (never from executor history), so the same plan
/// produces the byte-identical permutation whether it runs solo, inside a
/// coalesced batch, or on a different fleet machine with the same seed.
fn worker_closure<T: Send + 'static>(
    plan: &JobPlan<T>,
) -> impl Fn(&mut ProcCtx<T>) -> ProcResult<T> + Send + Sync + 'static {
    let slots = Arc::clone(&plan.slots);
    let source_ref = Arc::clone(&plan.source_sizes);
    let target_ref = Arc::clone(&plan.target_sizes);
    let backend = plan.backend;
    let local_shuffle = plan.local_shuffle;
    let fault = plan.fault;

    move |ctx| -> ProcResult<T> {
        let id = ctx.id();
        let p = ctx.procs();
        // The in-context matrix samplers draw from their own per-call
        // derived streams (`MatrixCtx::sampling_rng` / the named front-end
        // stream); the local shuffles must be statistically independent of
        // the sampled matrix, so this phase derives its own per-processor
        // streams from the master seed.
        let mut shuffle_rng = ctx.seeds().child_sequence(0x5AFE_B10C).proc_stream(id);

        // Superstep 1: local shuffle of the own block.  Independent of the
        // matrix, so on workers that are not (yet) involved in a sampling
        // round it overlaps the matrix phase instead of waiting for it.
        ctx.superstep();
        let (mut block, mut outgoing, mut buckets) = slots[id]
            .lock()
            .take()
            .expect("each processor takes its block exactly once");
        let shuffle_started = Instant::now();
        local_shuffle.shuffle_vec_with(&mut shuffle_rng, &mut block, &mut buckets);
        let mut shuffle_elapsed = shuffle_started.elapsed();

        // Matrix phase, in-context on the word plane: this worker ends up
        // holding its own row of `A`.
        if let Some(f) = fault {
            if f.proc == id && f.phase == FaultPhase::Matrix {
                panic!("injected engine fault (matrix phase)");
            }
        }
        let matrix_started = Instant::now();
        let row: Vec<u64> = {
            let mut mctx = ctx.matrix_ctx();
            match backend {
                MatrixBackend::Sequential => {
                    sample_sequential_ctx(&mut mctx, &source_ref, &target_ref)
                }
                MatrixBackend::Recursive => {
                    sample_recursive_ctx(&mut mctx, &source_ref, &target_ref)
                }
                MatrixBackend::ParallelLog => {
                    sample_parallel_log_ctx(&mut mctx, &source_ref, &target_ref)
                }
                MatrixBackend::ParallelOptimal => {
                    sample_parallel_optimal_ctx(&mut mctx, &source_ref, &target_ref)
                }
            }
        };
        let matrix_elapsed = matrix_started.elapsed();
        let data_started = Instant::now();

        // Superstep 2: cut the shuffled block according to row `id` of A and
        // exchange.  Because the block was just shuffled, taking consecutive
        // runs of length a_ij is a uniformly random choice of which items go
        // where.  The cut *moves* the items — no clone: the highest column
        // is carved off first, so each run is the then-current tail of the
        // block.  A cold piece is carved with `split_off` (one bulk memmove);
        // a warm recycled piece is refilled by draining the tail into it,
        // keeping its allocation alive across calls.
        ctx.superstep();
        if let Some(f) = fault {
            if f.proc == id && f.phase == FaultPhase::Exchange {
                panic!("injected engine fault (exchange phase)");
            }
        }
        debug_assert_eq!(row.len(), p, "resolve_target_sizes guarantees p' == p");
        outgoing.resize_with(p, Vec::new);
        for j in (0..p).rev() {
            let count = row[j] as usize;
            let tail = block.len() - count;
            let piece = &mut outgoing[j];
            if piece.capacity() == 0 {
                *piece = block.split_off(tail);
            } else {
                piece.clear();
                piece.reserve(count);
                piece.extend(block.drain(tail..));
            }
        }
        debug_assert!(block.is_empty());
        let incoming = ctx.comm_mut().all_to_all(outgoing, 0);

        // Superstep 3: concatenate what was received and shuffle it locally.
        // The emptied source block becomes the receive buffer (its capacity
        // is reused; `reserve` tops it up to the prescribed m'_j), and the
        // drained payload vectors are kept as shells for the next call.
        ctx.superstep();
        let mut new_block = block;
        new_block.reserve(target_ref[id] as usize);
        let mut shells: Vec<Vec<T>> = Vec::with_capacity(p);
        for mut part in incoming {
            new_block.append(&mut part);
            shells.push(part);
        }
        let reshuffle_started = Instant::now();
        local_shuffle.shuffle_vec_with(&mut shuffle_rng, &mut new_block, &mut buckets);
        let reshuffle_elapsed = reshuffle_started.elapsed();
        // The data phase ran from the end of the matrix phase and contains
        // the cut, the exchange, the concat and the reshuffle; superstep 1
        // overlapped the matrix phase and is added on top.
        let data_elapsed = shuffle_elapsed + data_started.elapsed();
        shuffle_elapsed += reshuffle_elapsed;
        (
            new_block,
            shells,
            buckets,
            row,
            matrix_elapsed,
            data_elapsed,
            shuffle_elapsed,
        )
    }
}

/// Assembles one job's per-processor results into the engine output:
/// max-over-workers phase timings, the recovered scratch parts, the
/// (optionally kept) communication matrix, and the run report.
fn collect_job<T>(
    source_sizes: &[u64],
    target_sizes: &[u64],
    results: Vec<ProcResult<T>>,
    metrics: MachineMetrics,
    options: &PermuteOptions,
    total_elapsed: Duration,
) -> EngineOutput<T> {
    let p = source_sizes.len();
    let mut new_blocks = Vec::with_capacity(p);
    let mut shells = Vec::with_capacity(p);
    let mut stagings = Vec::with_capacity(p);
    let mut rows = Vec::with_capacity(p);
    let mut matrix_elapsed = Duration::ZERO;
    let mut exchange_elapsed = Duration::ZERO;
    let mut shuffle_elapsed = Duration::ZERO;
    for (block, shell, staging, row, matrix_dur, data_dur, shuffle_dur) in results {
        new_blocks.push(block);
        shells.push(shell);
        stagings.push(staging);
        rows.push(row);
        matrix_elapsed = matrix_elapsed.max(matrix_dur);
        exchange_elapsed = exchange_elapsed.max(data_dur);
        shuffle_elapsed = shuffle_elapsed.max(shuffle_dur);
    }

    // Sanity: the produced blocks have exactly the prescribed target sizes
    // (all of them — resolve_target_sizes guarantees one per processor).
    debug_assert_eq!(
        new_blocks
            .iter()
            .map(|b| b.len() as u64)
            .collect::<Vec<_>>(),
        target_sizes
    );
    // The rows every worker brought back assemble into the sampled matrix;
    // in debug builds verify its marginals unconditionally, in release only
    // pay the assembly when the caller asked to keep it.
    let assemble = |rows: Vec<Vec<u64>>| {
        let matrix = CommMatrix::from_rows(rows);
        debug_assert!(matrix.check_marginals(source_sizes, target_sizes).is_ok());
        matrix
    };
    let matrix = if options.keep_matrix || cfg!(debug_assertions) {
        Some(assemble(rows))
    } else {
        None
    };

    let report = PermutationReport {
        backend: options.backend,
        local_shuffle: options.local_shuffle,
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
        matrix: if options.keep_matrix { matrix } else { None },
        total_elapsed,
    };
    (new_blocks, shells, stagings, report)
}

/// The fused, move-based engine behind [`permute_blocks`] and
/// [`permute_vec_into`]: stages a [`JobPlan`], runs its [`worker_closure`]
/// as **one job on one executor**, and assembles the output with
/// [`collect_job`].  The batched entry ([`try_permute_batch_into_with`])
/// shares all three pieces, which is what makes a coalesced run
/// byte-identical to a solo run by construction.
///
/// Generic over the execution substrate: the same engine runs one-shot on a
/// [`CgmMachine`] (threads spawned per call) or on a [`cgp_cgm::ResidentCgm`]
/// worker pool (threads spawned once, per the session API) — shared state
/// travels in `Arc`s so the job closure is `'static` either way.  No second
/// machine is built for the matrix phase; the samplers run in-context on the
/// word plane of the same workers (see the module docs).
///
/// Consumes the blocks and a set of recycled outgoing buffers (padded with
/// empty vectors when the scratch is shorter than `p`).
fn exchange_engine<T, E>(
    exec: &mut E,
    blocks: Vec<Vec<T>>,
    outgoing_scratch: Vec<Vec<Vec<T>>>,
    bucket_scratch: Vec<BucketScratch<T>>,
    options: &PermuteOptions,
) -> Result<EngineOutput<T>, CgmError>
where
    T: Send + 'static,
    E: CgmExecutor<T>,
{
    let p = exec.procs();
    validate_block_count(p, blocks.len());
    let plan = plan_job(p, blocks, outgoing_scratch, bucket_scratch, options);
    let run_started = Instant::now();
    let outcome = exec.try_run_job(worker_closure(&plan));
    let (results, metrics) = outcome?.into_parts();
    let total_elapsed = run_started.elapsed();
    Ok(collect_job(
        &plan.source_sizes,
        &plan.target_sizes,
        results,
        metrics,
        options,
        total_elapsed,
    ))
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
/// Items are moved, never cloned: `T` only needs to be `Send`.
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
    let mut exec = machine.clone();
    let (new_blocks, _shells, _stagings, report) =
        exchange_engine(&mut exec, blocks, Vec::new(), Vec::new(), options)
            .unwrap_or_else(|e| panic!("{e}"));
    (new_blocks, report)
}

/// Convenience wrapper: splits `data` evenly over the machine's processors,
/// permutes, and concatenates the result back into a single vector.
pub fn permute_vec<T: Send + 'static>(
    machine: &CgmMachine,
    data: Vec<T>,
    options: &PermuteOptions,
) -> (Vec<T>, PermutationReport) {
    let p = machine.procs();
    let dist = BlockDistribution::even(data.len() as u64, p);
    let blocks = dist.split_vec(data);
    let mut options = options.clone();
    // The output distribution is exactly what the options prescribe (or the
    // even split when nothing was prescribed) — no need to recompute it from
    // the returned block lengths.
    let out_dist = match options.target_sizes.take() {
        Some(sizes) => BlockDistribution::from_sizes(sizes),
        None => dist,
    };
    options.target_sizes = Some(out_dist.sizes().to_vec());
    let (blocks, report) = permute_blocks(machine, blocks, &options);
    (out_dist.concat_vec(blocks), report)
}

/// Allocation-reusing variant of [`permute_vec`]: permutes `data` in place,
/// recycling every intermediate buffer (per-processor blocks and outgoing
/// payload vectors) through `scratch` across calls.
///
/// Produces exactly the same permutation as [`permute_vec`] for the same
/// machine seed and options; only the allocation behaviour differs.  Intended
/// for steady-state callers that permute many same-shaped vectors — once the
/// scratch is warm (see [`PermuteScratch`]) no per-item allocation remains.
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

/// Executor-generic core of [`permute_vec_into`]: permutes `data` in place
/// on any [`CgmExecutor`] — the one-shot [`CgmMachine`] or a resident
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
/// By the time a worker panics the input has already been distributed into
/// the machine, so on `Err` the items are gone: `data` is left empty and
/// the scratch cold (it rebuilds on the next call).  Misuse that is
/// detected *before* any item moves (bad prescriptions, see
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
    let dist = BlockDistribution::even(data.len() as u64, p);
    // Validate the prescription BEFORE draining the caller's vector: a bad
    // prescription must panic with `data` and `scratch` untouched, not after
    // the items have been moved out (and lost to the unwind).
    options.validate_target_sizes(p, data.len() as u64);
    let mut options = options.clone();
    let out_dist = match options.target_sizes.take() {
        Some(sizes) => BlockDistribution::from_sizes(sizes),
        None => dist.clone(),
    };
    options.target_sizes = Some(out_dist.sizes().to_vec());
    let mut blocks = std::mem::take(&mut scratch.blocks);
    dist.split_vec_into(data, &mut blocks);
    let outgoing = std::mem::take(&mut scratch.outgoing);
    let buckets = std::mem::take(&mut scratch.buckets);
    let (mut new_blocks, shells, stagings, report) =
        exchange_engine(exec, blocks, outgoing, buckets, &options)?;
    out_dist.concat_vec_into(&mut new_blocks, data);
    scratch.blocks = new_blocks;
    scratch.outgoing = shells;
    scratch.buckets = stagings;
    Ok(report)
}

/// What happened to one job of a coalesced batch submitted through
/// [`try_permute_batch_into_with`].
#[derive(Debug)]
pub enum BatchOutcome<T> {
    /// The job ran to completion: the permuted items and its own report.
    Done {
        /// The permuted vector (same items as submitted, new order).
        data: Vec<T>,
        /// The per-job run report; phase timings are this sub-job's own.
        /// Boxed to keep the outcome enum slim next to `Skipped`.
        report: Box<PermutationReport>,
    },
    /// A worker panicked inside this job.  As with a failed solo run the
    /// items had already been distributed into the machine, so they are
    /// lost; the executor has recovered and stays usable.
    Failed(CgmError),
    /// The job never started because an earlier job in the batch failed.
    /// Its items were still untouched in their staging slots, so they are
    /// handed back intact — resubmit to run the job.
    Skipped {
        /// The submitted vector, restored to its original order.
        data: Vec<T>,
    },
}

/// Permutes a batch of jobs as **one** submission to the executor —
/// the coalescing entry point behind the service scheduler.
///
/// On a [`cgp_cgm::ResidentCgm`] pool the whole batch costs a single
/// worker wake-up and one completion rendezvous instead of one per job,
/// which is what amortizes the fixed per-job overhead for small payloads.
/// Each job still runs as its own fenced sub-job with its own
/// [`PermuteOptions`] and its own seed-derived random streams, so **every
/// job's output is byte-identical to what a solo
/// [`try_permute_vec_into_with`] call would have produced** on the same
/// executor — coalescing is invisible in the results (a property the
/// scheduler's seed-equivalence tests pin down).
///
/// `scratches` plays the role of the solo entry's scratch, one per job
/// (extended with cold scratches when shorter than `jobs`): warm capacity
/// goes in, the recovered buffers come back out.
///
/// The outcomes are positional: `out[k]` describes `jobs[k]`.  A batch
/// stops at the first failing job — later jobs come back as
/// [`BatchOutcome::Skipped`] with their items intact (see
/// [`BatchJobOutcome`] for the executor-level contract).
///
/// # Errors and data loss
/// Misuse (a bad prescription on *any* job) panics on the calling thread
/// before any item has moved, with every job's data untouched.  An
/// executor-level error (`Err`) means the batch could not run or complete
/// as a whole; as with a failed solo run, the items of jobs that were
/// already staged into the machine are lost.
pub fn try_permute_batch_into_with<T, E>(
    exec: &mut E,
    jobs: Vec<(Vec<T>, PermuteOptions)>,
    scratches: &mut Vec<PermuteScratch<T>>,
) -> Result<Vec<BatchOutcome<T>>, CgmError>
where
    T: Send + 'static,
    E: CgmExecutor<T>,
{
    let p = exec.procs();
    // Validate every job before moving a single item: a bad prescription
    // anywhere in the batch must panic with all data untouched.
    for (data, options) in &jobs {
        options.validate_target_sizes(p, data.len() as u64);
    }
    if scratches.len() < jobs.len() {
        scratches.resize_with(jobs.len(), PermuteScratch::new);
    }

    // Stage every job into its own plan (moving its items into the slot
    // vector) and build the per-job closures the executor will run as
    // fenced sub-jobs.
    let mut staged = Vec::with_capacity(jobs.len());
    let mut closures = Vec::with_capacity(jobs.len());
    for (k, (mut data, options)) in jobs.into_iter().enumerate() {
        let scratch = &mut scratches[k];
        let dist = BlockDistribution::even(data.len() as u64, p);
        let mut options = options;
        let out_dist = match options.target_sizes.take() {
            Some(sizes) => BlockDistribution::from_sizes(sizes),
            None => dist.clone(),
        };
        options.target_sizes = Some(out_dist.sizes().to_vec());
        let mut blocks = std::mem::take(&mut scratch.blocks);
        dist.split_vec_into(&mut data, &mut blocks);
        let outgoing = std::mem::take(&mut scratch.outgoing);
        let buckets = std::mem::take(&mut scratch.buckets);
        let plan = plan_job(p, blocks, outgoing, buckets, &options);
        closures.push(worker_closure(&plan));
        // `data` is now the emptied shell of the submitted vector; its
        // allocation is reused for the reassembled output (or the restore).
        staged.push((plan, dist, out_dist, options, data));
    }

    let run_started = Instant::now();
    let outcomes = exec.try_run_batch(closures)?;
    let total_elapsed = run_started.elapsed();
    debug_assert_eq!(outcomes.len(), staged.len());

    let mut out = Vec::with_capacity(staged.len());
    for (k, (outcome, parts)) in outcomes.into_iter().zip(staged).enumerate() {
        let (plan, dist, out_dist, options, mut data) = parts;
        let scratch = &mut scratches[k];
        match outcome {
            BatchJobOutcome::Done(run) => {
                // Each sub-job's report carries its own metered span (the
                // max over its workers' in-run timings), not the whole
                // batch's wall clock.
                let sub_elapsed = run.metrics().elapsed.min(total_elapsed);
                let (results, metrics) = run.into_parts();
                let (mut new_blocks, shells, stagings, report) = collect_job(
                    &plan.source_sizes,
                    &plan.target_sizes,
                    results,
                    metrics,
                    &options,
                    sub_elapsed,
                );
                out_dist.concat_vec_into(&mut new_blocks, &mut data);
                scratch.blocks = new_blocks;
                scratch.outgoing = shells;
                scratch.buckets = stagings;
                out.push(BatchOutcome::Done {
                    data,
                    report: Box::new(report),
                });
            }
            BatchJobOutcome::Failed(e) => out.push(BatchOutcome::Failed(e)),
            BatchJobOutcome::Skipped => {
                // The closure never ran, so every slot still holds its
                // payload and ours is the last Arc (workers drop their
                // clones of the job list before depositing results).
                let slots = Arc::try_unwrap(plan.slots)
                    .unwrap_or_else(|_| unreachable!("skipped sub-job slots still shared"));
                let mut blocks = Vec::with_capacity(p);
                let mut shells = Vec::with_capacity(p);
                let mut stagings = Vec::with_capacity(p);
                for slot in slots {
                    let (block, outgoing, buckets) = slot
                        .into_inner()
                        .expect("skipped sub-job left every slot untouched");
                    blocks.push(block);
                    shells.push(outgoing);
                    stagings.push(buckets);
                }
                // Undo the split with the *source* distribution: the items
                // come back in exactly the submitted order.
                dist.concat_vec_into(&mut blocks, &mut data);
                scratch.blocks = blocks;
                scratch.outgoing = shells;
                scratch.buckets = stagings;
                out.push(BatchOutcome::Skipped { data });
            }
        }
    }
    Ok(out)
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
        let mut caps = Vec::new();
        for round in 0..3 {
            let mut data: Vec<u64> = (0..512).collect();
            let report = permute_vec_into(&machine, &mut data, &options, &mut scratch);
            assert_eq!(
                data, reference,
                "round {round} diverged from the plain path"
            );
            assert_eq!(report.max_exchange_volume(), 2 * 512 / 4);
            caps.push(scratch.retained_capacity());
        }
        assert!(caps[0] >= 2 * 512, "blocks + exchange buffers are retained");
        // The exchange buffers may ratchet up once (each buffer ping-pongs
        // between the i→j and j→i directions); after that the capacities
        // must be stable — steady state allocates nothing new.
        assert_eq!(caps[1], caps[2], "capacities converge after the ratchet");
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

    #[test]
    fn batched_permutations_match_solo_runs_for_every_backend() {
        use cgp_cgm::ResidentCgm;
        // Coalescing must be invisible in the results: for every backend,
        // a heterogeneous batch (mixed sizes, mixed options) produces
        // byte-for-byte what the same jobs produce run solo, back to back,
        // on an identically configured pool.
        for backend in MatrixBackend::ALL {
            let config = CgmConfig::new(4).with_seed(77);
            let jobs: Vec<(Vec<u64>, PermuteOptions)> = vec![
                ((0..128).collect(), PermuteOptions::with_backend(backend)),
                ((0..37).collect(), PermuteOptions::with_backend(backend)),
                (
                    (0..200).collect(),
                    PermuteOptions::with_backend(backend).target_sizes(vec![80, 40, 40, 40]),
                ),
                (Vec::new(), PermuteOptions::with_backend(backend)),
            ];

            let mut solo_pool: ResidentCgm<u64> = ResidentCgm::new(config);
            let mut solo_scratch = PermuteScratch::new();
            let mut solo_outputs = Vec::new();
            for (data, options) in &jobs {
                let mut data = data.clone();
                try_permute_vec_into_with(&mut solo_pool, &mut data, options, &mut solo_scratch)
                    .unwrap();
                solo_outputs.push(data);
            }

            let mut batch_pool: ResidentCgm<u64> = ResidentCgm::new(config);
            let mut scratches = Vec::new();
            let outcomes = try_permute_batch_into_with(&mut batch_pool, jobs, &mut scratches)
                .expect("the batch runs");
            assert_eq!(outcomes.len(), solo_outputs.len());
            for (k, (outcome, solo)) in outcomes.into_iter().zip(solo_outputs).enumerate() {
                match outcome {
                    BatchOutcome::Done { data, report } => {
                        assert_eq!(data, solo, "{backend:?} job {k} diverged from solo");
                        assert_eq!(report.backend, backend);
                    }
                    other => panic!("{backend:?} job {k}: unexpected outcome {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_mid_batch_fault_fails_only_that_job_and_hands_back_the_rest() {
        use crate::config::EngineFault;
        use cgp_cgm::ResidentCgm;
        let config = CgmConfig::new(3).with_seed(13);
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let jobs: Vec<(Vec<u64>, PermuteOptions)> = vec![
            ((0..60).collect(), PermuteOptions::default()),
            (
                (100..160).collect(),
                PermuteOptions::default().inject_fault(EngineFault::exchange_phase(1)),
            ),
            ((200..260).collect(), PermuteOptions::default()),
        ];
        let mut scratches = Vec::new();
        let outcomes = try_permute_batch_into_with(&mut pool, jobs, &mut scratches).unwrap();
        assert_eq!(outcomes.len(), 3);
        let skipped_data = match (&outcomes[0], &outcomes[1], &outcomes[2]) {
            (
                BatchOutcome::Done { data, .. },
                BatchOutcome::Failed(CgmError::ProcessorPanicked { proc: 1, .. }),
                BatchOutcome::Skipped { data: skipped },
            ) => {
                let mut sorted = data.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..60).collect::<Vec<u64>>());
                skipped.clone()
            }
            other => panic!("unexpected outcome triple: {other:?}"),
        };
        // The skipped job comes back in its exact submitted order...
        assert_eq!(skipped_data, (200..260).collect::<Vec<u64>>());
        assert_eq!(pool.recoveries(), 1, "the pool recovered once");

        // ...and resubmitting it (solo) yields what an untouched pool of the
        // same configuration produces: being staged and handed back leaves
        // no trace in the result.
        let mut data = skipped_data;
        let mut scratch = PermuteScratch::new();
        try_permute_vec_into_with(
            &mut pool,
            &mut data,
            &PermuteOptions::default(),
            &mut scratch,
        )
        .unwrap();
        let machine = CgmMachine::new(config);
        let reference = permute_vec(&machine, (200..260).collect(), &PermuteOptions::default()).0;
        assert_eq!(data, reference);
    }

    #[test]
    fn batch_misuse_panics_before_any_item_moves() {
        use cgp_cgm::ResidentCgm;
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(2).with_seed(1));
        let mut scratches = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Job 1 carries a rectangular prescription: the batch must
            // reject it on the calling thread before job 0 is staged.
            let jobs: Vec<(Vec<u64>, PermuteOptions)> = vec![
                ((0..10).collect(), PermuteOptions::default()),
                (
                    (0..10).collect(),
                    PermuteOptions::default().target_sizes(vec![5, 2, 3]),
                ),
            ];
            try_permute_batch_into_with(&mut pool, jobs, &mut scratches)
        }));
        assert!(outcome.is_err(), "rectangular prescription must panic");
        // The pool saw nothing: a clean job still matches one-shot.
        let mut data: Vec<u64> = (0..10).collect();
        let mut scratch = PermuteScratch::new();
        try_permute_vec_into_with(
            &mut pool,
            &mut data,
            &PermuteOptions::default(),
            &mut scratch,
        )
        .unwrap();
        let machine = CgmMachine::new(CgmConfig::new(2).with_seed(1));
        let reference = permute_vec(&machine, (0..10).collect(), &PermuteOptions::default()).0;
        assert_eq!(data, reference);
    }

    #[test]
    fn empty_batch_returns_no_outcomes() {
        use cgp_cgm::ResidentCgm;
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(2).with_seed(1));
        let mut scratches = Vec::new();
        let outcomes = try_permute_batch_into_with(&mut pool, Vec::new(), &mut scratches).unwrap();
        assert!(outcomes.is_empty());
    }
}
