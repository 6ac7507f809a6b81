//! # cgp-matrix — random communication matrices
//!
//! The key idea of Gustedt's paper is to split the generation of a uniform
//! random permutation of a block-distributed vector into
//!
//! 1. sampling the **communication matrix** `A = (a_ij)` — how many items
//!    travel from source block `B_i` to target block `B'_j` — with exactly
//!    the probability induced by a uniform permutation (Problem 2), and
//! 2. local shuffles plus one all-to-all exchange realising `A`
//!    (Algorithm 1, implemented in `cgp-core`).
//!
//! This crate implements part 1 in all four flavours given in the paper:
//!
//! | Paper | Here | Cost |
//! |---|---|---|
//! | Algorithm 3 | [`sample_sequential`] | `O(p·p')` time, `O(p·p')` hypergeometric draws |
//! | Algorithm 4 | [`sample_recursive`] | same, recursive halving formulation |
//! | Algorithm 5 | [`sample_parallel_log`] | `Θ(p log p)` per processor on the CGM |
//! | Algorithm 6 | [`sample_parallel_optimal`] | `Θ(p)` per processor (cost-optimal, Theorem 2) |
//!
//! plus the machinery needed to *verify* them: the [`CommMatrix`] type with
//! its marginal checks and exact log-probability (the number of permutations
//! realising a matrix), a-posteriori extraction of the matrix of a given
//! permutation, and exhaustive enumeration of all valid matrices for small
//! instances ([`exact`]).
//!
//! ## In-context sampling and executor-generic wrappers
//!
//! Each backend exists in two forms:
//!
//! * an **in-context core** (`sample_*_ctx`), which runs *inside an
//!   already-running CGM job* on the machine's word plane
//!   ([`cgp_cgm::MatrixCtx`]) and returns the calling processor's **row**
//!   of the matrix.  This is how the fused Algorithm 1 pipeline in
//!   `cgp-core` samples the matrix on the same workers that shuffle and
//!   exchange the data — no second machine, no extra thread spawns.  The
//!   two front-end backends ([`sample_sequential_ctx`],
//!   [`sample_recursive_ctx`]) sample the whole matrix on processor 0 and
//!   scatter the rows, exactly as the paper runs Algorithm 3/4 "on the
//!   front end"; the parallel backends run Algorithms 5/6 across all
//!   processors.
//! * a **standalone wrapper** with the historical name
//!   ([`sample_sequential`] and [`sample_recursive`] take an `rng` and run
//!   on the calling thread; [`sample_parallel_log`] and
//!   [`sample_parallel_optimal`] take `&mut impl CgmExecutor<u64>` — the
//!   one-shot [`cgp_cgm::CgmMachine`] *or* a resident
//!   [`cgp_cgm::ResidentCgm`] pool — and run the core as one job,
//!   returning the assembled matrix plus the word-plane metrics).
//!
//! All in-context draws derive from the machine seed per call
//! ([`cgp_cgm::MatrixCtx::sampling_rng`] / the `"communication-matrix"`
//! named stream), so for a fixed seed every substrate — and the fused
//! pipeline — samples the **identical** matrix.
//!
//! Every in-context core also replays **serially** on a
//! [`cgp_cgm::LoopbackCgm`], one processor after another in id order: a
//! processor only ever sends to itself or to higher ids, except in the
//! final all-to-all of Algorithm 6, whose two halves
//! ([`sample_parallel_optimal_send_ctx`], [`sample_parallel_optimal_recv_ctx`])
//! run as two passes over the processors.

pub mod comm_matrix;
pub mod exact;
pub mod parallel_log;
pub mod parallel_opt;
pub mod recursive;
pub mod sequential;

pub use comm_matrix::CommMatrix;
pub use exact::{enumerate_matrices, exact_matrix_probabilities};
pub use parallel_log::{sample_parallel_log, sample_parallel_log_ctx};
pub use parallel_opt::{
    sample_parallel_optimal, sample_parallel_optimal_ctx, sample_parallel_optimal_recv_ctx,
    sample_parallel_optimal_send_ctx,
};
pub use recursive::{sample_recursive, sample_recursive_ctx};
pub use sequential::{sample_sequential, sample_sequential_ctx};

use cgp_cgm::MatrixCtx;
use cgp_rng::Pcg64;

/// Word-plane tag of the head-and-scatter row distribution (the sequential
/// and recursive in-context backends).  Chosen away from the round-numbered
/// tags of Algorithms 5/6 so a mixed trace stays readable.
pub(crate) const SCATTER_TAG: u64 = u64::MAX - 1;

/// Shared misuse check of the samplers.  The standalone wrappers call it on
/// the calling thread (fail-fast before any job starts); the in-context
/// `sample_*_ctx` cores call it too, so that misuse inside a caller-written
/// job dies with a descriptive message instead of an index-out-of-bounds or
/// — worse — a silently mis-marginalled matrix in release builds.
pub(crate) fn check_sampler_inputs(p: usize, source: &[u64], target: &[u64]) {
    assert_eq!(
        source.len(),
        p,
        "one source block per processor is required"
    );
    assert_eq!(
        source.iter().sum::<u64>(),
        target.iter().sum::<u64>(),
        "source and target must hold the same total number of items"
    );
}

/// In-context core shared by the two front-end backends: processor 0
/// samples the full matrix with `sample` (seeded from the
/// `"communication-matrix"` named stream — the stream the staged pipeline
/// used on the front end, so fusing changes nothing about the sampled
/// matrix) and scatters row `i` to processor `i` over the word plane.
pub(crate) fn sample_on_head_and_scatter(
    ctx: &mut MatrixCtx<'_>,
    source: &[u64],
    target: &[u64],
    sample: impl FnOnce(&mut Pcg64, &[u64], &[u64]) -> CommMatrix,
) -> Vec<u64> {
    let p = ctx.procs();
    check_sampler_inputs(p, source, target);
    ctx.superstep();
    if ctx.id() == 0 {
        let mut rng = ctx.seeds().named_stream("communication-matrix");
        let matrix = sample(&mut rng, source, target);
        for i in 0..p {
            ctx.comm_mut().send(i, SCATTER_TAG, matrix.row(i).to_vec());
        }
    }
    ctx.comm_mut().recv(0, SCATTER_TAG)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_rng::Pcg64;

    #[test]
    fn all_backends_produce_valid_matrices() {
        let source = vec![4u64, 6, 2, 8];
        let target = vec![5u64, 5, 5, 5];
        let mut rng = Pcg64::seed_from_u64(0);
        for _ in 0..50 {
            let a = sample_sequential(&mut rng, &source, &target);
            a.check_marginals(&source, &target).unwrap();
            let b = sample_recursive(&mut rng, &source, &target);
            b.check_marginals(&source, &target).unwrap();
        }
    }
}
