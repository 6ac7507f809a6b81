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
//! * **E11**: aggregate throughput of the multi-tenant
//!   `PermutationService` — concurrent clients × fleet sizes, contrasted
//!   against the same clients serializing on a single session —
//!   snapshotted to `BENCH_service.json` by `exp_service`.
//! * **E15**: the wire front-end's own cost — the same job through an
//!   in-process handle and through a socket client, gated on the wire's
//!   throughput `n / (wire − in_process)` — snapshotted to
//!   `BENCH_wire.json` by `exp_wire`.
//!
//! The `BENCH_*.json` layout (and the `--check` perf-regression gate every
//! snapshot binary exposes to CI) lives in [`snapshot`].

pub mod experiments;
pub mod snapshot;
pub mod staged;
pub mod table;
pub mod workload;

pub use table::Table;
