//! # cgp — randomized permutations in a coarse grained parallel environment
//!
//! A Rust reproduction of Jens Gustedt's *"Randomized Permutations in a
//! Coarse Grained Parallel Environment"* (INRIA research report RR-4639,
//! presented at SPAA 2003): a work-optimal, balanced and provably uniform
//! algorithm for generating random permutations of block-distributed data on
//! a coarse grained parallel machine.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`rng`] (`cgp-rng`) | deterministic, splittable, draw-counting generators |
//! | [`hypergeom`] (`cgp-hypergeom`) | hypergeometric and multivariate hypergeometric laws and samplers |
//! | [`cgm`] (`cgp-cgm`) | the coarse grained machine simulator (virtual processors, supersteps, metered communication) |
//! | [`matrix`] (`cgp-matrix`) | communication-matrix sampling, Algorithms 3–6 |
//! | [`core`] (`cgp-core`) | Algorithm 1 (the parallel random permutation), the sequential reference and the baselines |
//! | [`stats`] (`cgp-stats`) | chi-square / KS tests, permutation ranking, summaries |
//! | [`wire`] (`cgp-server`) | the socket front-end: [`wire::WireServer`] over UDS/TCP and the blocking [`wire::Client`] |
//!
//! ## Quick start
//!
//! ```
//! use cgp::{MatrixBackend, Permuter};
//!
//! // Uniformly permute integers over 8 virtual processors, sampling the
//! // communication matrix with the cost-optimal Algorithm 6.
//! let permuter = Permuter::new(8).seed(2024).backend(MatrixBackend::ParallelOptimal);
//! let data: Vec<u64> = (0..100_000).collect();
//! let (shuffled, report) = permuter.permute(data);
//!
//! assert_eq!(shuffled.len(), 100_000);
//! // Theorem 1: every processor's communication volume is O(m) = O(n/p).
//! assert!(report.max_exchange_volume() <= 2 * 100_000 / 8 + 16);
//! ```

pub use cgp_cgm as cgm;
pub use cgp_core as core;
pub use cgp_hypergeom as hypergeom;
pub use cgp_matrix as matrix;
pub use cgp_rng as rng;
pub use cgp_server as wire;
pub use cgp_stats as stats;

pub use cgp_cgm::{diag, BlockDistribution, CgmConfig, CgmError, CgmMachine, CostModel, MatrixCtx};
pub use cgp_core::{
    apply_permutation, default_bucket_items, fisher_yates_shuffle, permute_blocks, permute_vec,
    permute_vec_into, sequential_random_permutation, BucketScratch, CompletionSet, EngineConfig,
    JobTicket, LaneDepth, LocalShuffle, MatrixBackend, PermutationReport, PermutationService,
    PermutationSession, PermuteOptions, PermuteScratch, Permuter, Priority, RejectedJob,
    ServiceConfig, ServiceError, ServiceHandle, ServiceMetrics, TenantMetrics,
};
pub use cgp_hypergeom::Hypergeometric;
pub use cgp_matrix::{
    sample_parallel_log, sample_parallel_log_ctx, sample_parallel_optimal,
    sample_parallel_optimal_ctx, sample_recursive, sample_recursive_ctx, sample_sequential,
    sample_sequential_ctx, CommMatrix,
};
pub use cgp_rng::{CountingRng, Pcg64, RandomExt, RandomSource, SeedSequence};
