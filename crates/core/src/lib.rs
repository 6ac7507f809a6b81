//! # cgp-core — uniform random permutations on a coarse grained machine
//!
//! This crate implements the headline contribution of Gustedt's
//! *"Randomized Permutations in a Coarse Grained Parallel Environment"*
//! (INRIA RR-4639 / SPAA 2003): **Algorithm 1**, a PRO-algorithm that
//! uniformly permutes a block-distributed vector of `n = Σ m_i` items over
//! `p` processors using `O(m)` memory, time, random numbers and bandwidth
//! per processor (Theorem 1).
//!
//! The algorithm has four phases, and — as in the paper, where Algorithm 1
//! is one CGM program — they all run as **one fused job on one executor**
//! (see the [`parallel`] module docs):
//!
//! 1. every processor shuffles its own block locally (Fisher–Yates),
//!    overlapping the matrix phase;
//! 2. a random **communication matrix** `A` is sampled with the exact
//!    distribution induced by a uniform permutation, *in-context* on the
//!    same workers (delegated to the `sample_*_ctx` cores of
//!    [`cgp-matrix`](cgp_matrix), selectable backend);
//! 3. one all-to-all exchange moves `a_ij` items from processor `i` to
//!    processor `j`;
//! 4. every target processor shuffles what it received.
//!
//! Besides the main algorithm the crate ships the **reference sequential
//! algorithm** (the PRO model defines speed-up relative to it) and the three
//! classes of **prior approaches** the paper's introduction discusses, which
//! each miss one of the three criteria (uniformity, work-optimality,
//! balance):
//!
//! * [`baselines::sort_based`] — Goodrich-style random-keys-plus-sort:
//!   uniform and balanced but a log-factor away from work-optimality;
//! * [`baselines::rejection`] — independent destination draws with
//!   start-over until the block sizes match exactly: uniform and balanced
//!   but the acceptance probability (and hence work) degrades rapidly;
//! * [`baselines::one_round`] — a fixed, perfectly balanced communication
//!   matrix with local shuffles, optionally iterated: balanced and
//!   work-optimal per round but *not* uniform for any fixed number of
//!   rounds.
//!
//! ## Direct-placement exchange and the `T: Send` bound
//!
//! The data exchange of Algorithm 1 moves each item once: every worker
//! shuffles its block in place in the caller's vector and copies each run
//! straight to its final slot in a spare buffer, which then becomes the
//! caller's vector (see the [`parallel`] module docs).  Items are never
//! cloned, so [`permute_blocks`]/[`permute_vec`] (and the [`Permuter`]
//! facade) only require `T: Send`.  Four tiers of allocation behaviour are
//! available:
//!
//! 1. [`permute_vec`] — one-shot, allocates its spare buffer per call;
//! 2. [`permute_vec_into`] + [`PermuteScratch`] — recycles the spare buffer
//!    across calls (steady-state loops ping-pong between two allocations);
//! 3. [`Permuter::session`] / [`PermutationSession`] — the steady-state
//!    tier: a **resident worker pool** plus a scratch, so repeated
//!    permutations also skip the per-call thread spawns and channel
//!    construction (see the [`session`] module docs for the one-shot vs.
//!    session guide);
//! 4. [`Permuter::sample_permutation`] + [`apply_permutation`] — the index
//!    fast path for payloads that are not `Send` or too heavy to ship:
//!    permute `0..n` once in parallel, then gather locally by moves (no
//!    `Clone` needed).

pub mod baselines;
pub mod cache_aware;
pub mod config;
pub mod parallel;
pub mod permuter;
pub mod sequential;
pub mod service;
pub mod session;
pub mod uniformity;

pub use cache_aware::{
    bucketed_index_permutation, bucketed_shuffle, bucketed_shuffle_with, default_bucket_items,
    BucketScratch, LocalShuffle, AUTO_CROSSOVER_BYTES, AUTO_MAX_ITEM_BYTES, BUCKET_L2_BUDGET_BYTES,
    DEFAULT_BUCKET_ITEMS, MAX_SCATTER_BUCKETS,
};
pub use config::{EngineConfig, EngineFault, FaultPhase, MatrixBackend, PermuteOptions};
pub use parallel::{
    permute_blocks, permute_vec, permute_vec_into, permute_vec_into_with,
    try_permute_vec_into_with, PermutationReport, PermuteScratch,
};
pub use permuter::Permuter;
pub use sequential::{
    apply_permutation, fisher_yates_shuffle, fisher_yates_shuffle_warming,
    sequential_random_permutation,
};
pub use service::{
    CompletionSet, JobTicket, LaneDepth, MachineUtilization, PermutationService, Priority,
    RejectedJob, ServiceConfig, ServiceError, ServiceHandle, ServiceMetrics, TenantMetrics,
};
pub use session::PermutationSession;

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_cgm::CgmMachine;

    #[test]
    fn end_to_end_permutation_is_a_permutation() {
        let machine = CgmMachine::with_procs(4);
        let data: Vec<u64> = (0..1000).collect();
        let (permuted, _report) = permute_vec(&machine, data.clone(), &PermuteOptions::default());
        let mut sorted = permuted.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, data);
        assert_ne!(
            permuted, data,
            "1000 items should essentially never stay in place"
        );
    }
}
