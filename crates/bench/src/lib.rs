//! # cgp-bench — experiment harness
//!
//! One module per experiment of EXPERIMENTS.md / DESIGN.md, each returning
//! structured rows that the `exp_*` binaries print as tables and the
//! Criterion benches re-measure with statistical rigour.  The experiments
//! reproduce every quantitative claim of the paper:
//!
//! * **E1** (§1): cost per item of the sequential permutation and the share
//!   attributable to memory traffic.
//! * **E2** (§3): uniform random numbers consumed per hypergeometric sample
//!   (average and worst case).
//! * **E3** (§6): the scaling table — wall-clock time of the parallel
//!   permutation versus the sequential reference for the paper's processor
//!   counts, including the parallel overhead factor.
//! * **E4** (Theorem 2): cost of the four matrix-sampling algorithms as a
//!   function of `p`.
//! * **E5** (Theorem 1): exhaustive uniformity check of the full pipeline.
//! * **E6** (§6, outlook): the crossover between matrix-sampling cost and
//!   data-exchange cost as `n` varies for fixed `p`.
//! * **E7** (§1): the three-criteria comparison against the baselines.
//! * **E8** (Theorem 1, memory): the clone-based exchange of the original
//!   port versus the current move-based engine, for heap-heavy and `Copy`
//!   payloads — snapshotted to `BENCH_exchange.json` by `exp_exchange`.
//! * **E9**: per-call machine spawn versus the resident worker pool —
//!   snapshotted to `BENCH_resident.json` by `exp_resident`.
//! * **E10**: the staged two-job pipeline (matrix on its own machine, then
//!   the exchange) versus the fused single-job pipeline, one-shot and
//!   session — snapshotted to `BENCH_fused.json` by `exp_fused`; the
//!   [`staged`] module keeps the pre-fusion engine verbatim as the
//!   baseline and equivalence witness.
//! * **E11**: aggregate throughput of the multi-tenant
//!   `PermutationService` — concurrent clients × fleet sizes, contrasted
//!   against the same clients serializing on a single session —
//!   snapshotted to `BENCH_service.json` by `exp_service`.
//! * **E12**: the local-shuffle engine crossover — Fisher–Yates versus the
//!   bucketed scatter shuffle versus `Auto`, raw single-thread shuffles
//!   across a size grid straddling `AUTO_CROSSOVER_BYTES` plus full
//!   resident-session permutations — snapshotted to `BENCH_shuffle.json`
//!   by `exp_shuffle`.
//!
//! The `BENCH_*.json` layout (and the `--check` perf-regression gate every
//! snapshot binary exposes to CI) lives in [`snapshot`].

pub mod experiments;
pub mod snapshot;
pub mod staged;
pub mod table;
pub mod workload;

pub use table::Table;
