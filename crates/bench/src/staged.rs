//! The **staged** two-job pipeline of the original engine, kept verbatim as
//! the equivalence witness for the fused single-job pipeline that replaced
//! it.
//!
//! Before the fusion, `cgp_core::permute_vec` ran Algorithm 1 in two stages:
//!
//! 1. **Matrix phase** — the front-end backends sampled on the calling
//!    thread from the `"communication-matrix"` named stream; the parallel
//!    backends ran Algorithms 5/6 as their own job on a **freshly spawned
//!    one-shot machine**.
//! 2. **Data phase** — a second job on a one-shot machine shuffled, cut
//!    along the now-known matrix, exchanged and re-shuffled.
//!
//! Every random stream below is derived exactly as the old engine derived
//! it, so for the same machine seed this produces the **identical**
//! permutation as today's fused path — which is precisely what the
//! equivalence proptests in `tests/fused_equivalence.rs` assert.
//!
//! One deliberate asymmetry with history: both pipelines here run on
//! today's dual-plane fabric (every machine carries the word plane whether
//! or not a job samples on it).

use std::time::Instant;

use parking_lot::Mutex;

use cgp_cgm::{BlockDistribution, CgmConfig, CgmMachine, ProcCtx};
use cgp_core::{fisher_yates_shuffle, MatrixBackend, PermuteOptions};
use cgp_matrix::{sample_recursive, sample_sequential, CommMatrix};
use cgp_rng::SeedSequence;

/// Stage 1 of the staged pipeline: resolves the target sizes and samples
/// the communication matrix *outside* the data job — on the calling thread
/// for the front-end backends, on a freshly spawned one-shot machine for
/// the parallel ones (the startup cost the fused pipeline eliminates).
pub fn staged_sample_matrix(
    config: &CgmConfig,
    source_sizes: &[u64],
    options: &PermuteOptions,
) -> (Vec<u64>, CommMatrix) {
    let target_sizes = options.resolve_target_sizes(config.procs, source_sizes);
    let seeds = SeedSequence::new(config.seed);
    let mut matrix_rng = seeds.named_stream("communication-matrix");
    let matrix = match options.backend {
        MatrixBackend::Sequential => {
            sample_sequential(&mut matrix_rng, source_sizes, &target_sizes)
        }
        MatrixBackend::Recursive => sample_recursive(&mut matrix_rng, source_sizes, &target_sizes),
        MatrixBackend::ParallelLog => {
            let machine = CgmMachine::new(*config);
            cgp_matrix::sample_parallel_log(&machine, source_sizes, &target_sizes).0
        }
        MatrixBackend::ParallelOptimal => {
            let machine = CgmMachine::new(*config);
            cgp_matrix::sample_parallel_optimal(&machine, source_sizes, &target_sizes).0
        }
    };
    (target_sizes, matrix)
}

/// Recycled buffers of the staged engine — the old `PermuteScratch`, whose
/// fields are private in `cgp-core` now that the fused engine owns them.
#[derive(Debug, Default)]
pub struct StagedScratch<T> {
    blocks: Vec<Vec<T>>,
    outgoing: Vec<Vec<Vec<T>>>,
}

impl<T> StagedScratch<T> {
    /// An empty scratch; buffers grow on first use and are retained after.
    pub fn new() -> Self {
        StagedScratch {
            blocks: Vec::new(),
            outgoing: Vec::new(),
        }
    }
}

/// Stage 2 of the staged pipeline: the move-based shuffle / cut / exchange
/// / shuffle job, running against an *already sampled* matrix.  Verbatim
/// the data phase of the pre-fusion engine.
fn staged_exchange<T: Send + 'static>(
    machine: &CgmMachine,
    blocks: Vec<Vec<T>>,
    mut outgoing_scratch: Vec<Vec<Vec<T>>>,
    matrix: CommMatrix,
    target_sizes: Vec<u64>,
) -> (Vec<Vec<T>>, Vec<Vec<Vec<T>>>) {
    // One processor's hand-off: its block plus recycled outgoing buffers.
    type Slots<T> = Vec<Mutex<Option<(Vec<T>, Vec<Vec<T>>)>>>;
    let p = machine.procs();
    outgoing_scratch.resize_with(p, Vec::new);
    let slots: Slots<T> = blocks
        .into_iter()
        .zip(outgoing_scratch)
        .map(|pair| Mutex::new(Some(pair)))
        .collect();

    let outcome = machine.run(|ctx: &mut ProcCtx<T>| {
        let id = ctx.id();
        let p = ctx.procs();
        let mut shuffle_rng = ctx.seeds().child_sequence(0x5AFE_B10C).proc_stream(id);

        ctx.superstep();
        let (mut block, mut outgoing) = slots[id]
            .lock()
            .take()
            .expect("each processor takes its block exactly once");
        fisher_yates_shuffle(&mut shuffle_rng, &mut block);

        ctx.superstep();
        let row = matrix.row(id);
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
        let incoming = ctx.comm_mut().all_to_all(outgoing, 0);

        ctx.superstep();
        let mut new_block = block;
        new_block.reserve(target_sizes[id] as usize);
        let mut shells: Vec<Vec<T>> = Vec::with_capacity(p);
        for mut part in incoming {
            new_block.append(&mut part);
            shells.push(part);
        }
        fisher_yates_shuffle(&mut shuffle_rng, &mut new_block);
        (new_block, shells)
    });

    let mut new_blocks = Vec::with_capacity(p);
    let mut shells = Vec::with_capacity(p);
    for (block, shell) in outcome.into_results() {
        new_blocks.push(block);
        shells.push(shell);
    }
    (new_blocks, shells)
}

/// The staged counterpart of `cgp_core::permute_vec_into`: matrix sampled
/// up front (stage 1), then the data exchange as a second job on `machine`
/// (stage 2), recycling buffers through `scratch`.  Returns the wall-clock
/// split `(matrix_elapsed, exchange_elapsed)`.
pub fn staged_permute_vec_into<T: Send + 'static>(
    machine: &CgmMachine,
    data: &mut Vec<T>,
    options: &PermuteOptions,
    scratch: &mut StagedScratch<T>,
) -> (std::time::Duration, std::time::Duration) {
    let p = machine.procs();
    let config = *machine.config();
    let dist = BlockDistribution::even(data.len() as u64, p);
    options.validate_target_sizes(p, data.len() as u64);
    let mut options = options.clone();
    let out_dist = match options.target_sizes.take() {
        Some(sizes) => BlockDistribution::from_sizes(sizes),
        None => dist.clone(),
    };
    options.target_sizes = Some(out_dist.sizes().to_vec());

    let mut blocks = std::mem::take(&mut scratch.blocks);
    dist.split_vec_into(data, &mut blocks);
    let source_sizes: Vec<u64> = blocks.iter().map(|b| b.len() as u64).collect();

    let matrix_started = Instant::now();
    let (target_sizes, matrix) = staged_sample_matrix(&config, &source_sizes, &options);
    let matrix_elapsed = matrix_started.elapsed();

    let exchange_started = Instant::now();
    let outgoing = std::mem::take(&mut scratch.outgoing);
    let (mut new_blocks, shells) = staged_exchange(machine, blocks, outgoing, matrix, target_sizes);
    let exchange_elapsed = exchange_started.elapsed();

    out_dist.concat_vec_into(&mut new_blocks, data);
    scratch.blocks = new_blocks;
    scratch.outgoing = shells;
    (matrix_elapsed, exchange_elapsed)
}

/// One-shot convenience: the staged pipeline on a fresh machine, fresh
/// buffers — the old `permute_vec` shape.
pub fn staged_permute_vec<T: Send + 'static>(
    machine: &CgmMachine,
    mut data: Vec<T>,
    options: &PermuteOptions,
) -> Vec<T> {
    let mut scratch = StagedScratch::new();
    staged_permute_vec_into(machine, &mut data, options, &mut scratch);
    data
}

/// A staged **session**: a machine for the data phase plus a recycled
/// scratch — the shape `PermutationSession` had before the fusion, kept as
/// the equivalence oracle of today's session.  Its data phase runs on a
/// one-shot [`CgmMachine`], which spawns its threads per call; the
/// permutation does not depend on that.
pub struct StagedSession<T: Send + 'static> {
    machine: CgmMachine,
    scratch: StagedScratch<T>,
    options: PermuteOptions,
}

impl<T: Send + 'static> StagedSession<T> {
    /// A staged session over `config`.
    pub fn new(config: CgmConfig, options: PermuteOptions) -> Self {
        StagedSession {
            machine: CgmMachine::new(config),
            scratch: StagedScratch::new(),
            options,
        }
    }

    /// Permutes `data` in place: matrix up front, then the data phase.
    pub fn permute_into(&mut self, data: &mut Vec<T>) {
        staged_permute_vec_into(&self.machine, data, &self.options, &mut self.scratch);
    }
}
