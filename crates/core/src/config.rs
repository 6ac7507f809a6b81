//! Options controlling the parallel permutation.
//!
//! There is no local-shuffle choice among them: the pipeline picks its
//! memory layout from the block sizes alone (the one scatter level exactly
//! when some block exceeds four cache-sized windows; see the `parallel`
//! module docs), so a seed maps to the same permutation on every surface
//! and every machine.

use cgp_cgm::{CgmConfig, CgmError};

/// Which of the paper's matrix-sampling algorithms supplies the communication
/// matrix of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixBackend {
    /// Algorithm 3: sampled sequentially (on the "front-end"), `O(p·p')`
    /// work.  This is what the paper's own experiments used ("sequential
    /// sampling of the matrix, only").
    #[default]
    Sequential,
    /// Algorithm 4: the recursive halving formulation (same cost, different
    /// constant factors).
    Recursive,
    /// Algorithm 5: parallel sampling with a `log p` factor per processor.
    ParallelLog,
    /// Algorithm 6: cost-optimal parallel sampling, `Θ(p)` per processor
    /// (Theorem 2).
    ParallelOptimal,
}

impl MatrixBackend {
    /// All backends, in the order they appear in the paper — handy for
    /// benchmarks and exhaustive tests.
    pub const ALL: [MatrixBackend; 4] = [
        MatrixBackend::Sequential,
        MatrixBackend::Recursive,
        MatrixBackend::ParallelLog,
        MatrixBackend::ParallelOptimal,
    ];

    /// A short stable name used in benchmark/report tables.
    pub fn name(&self) -> &'static str {
        match self {
            MatrixBackend::Sequential => "alg3-sequential",
            MatrixBackend::Recursive => "alg4-recursive",
            MatrixBackend::ParallelLog => "alg5-parallel-log",
            MatrixBackend::ParallelOptimal => "alg6-parallel-optimal",
        }
    }
}

/// Where in the fused pipeline an [`EngineFault`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Panic at the start of the matrix phase, while peers are inside (or
    /// entering) the word-plane sampling rounds.
    Matrix,
    /// Panic in the data exchange, with peers blocked at a barrier that the
    /// abort protocol must wake.  On the Fisher–Yates path it fires at the
    /// start of superstep 2, before the row of `A` is published.  On the
    /// one scatter level it fires after the worker has copied its first
    /// window's runs into the spare (at once if its block is empty), so
    /// those items sit bitwise in both buffers; the engine leaks them rather
    /// than drop one twice (see the `parallel` module docs).
    Exchange,
}

/// A chaos-testing hook: makes one virtual processor panic deliberately at
/// a chosen point of the fused pipeline, so fault-containment machinery
/// (pool recovery, per-ticket job isolation in a
/// [`crate::PermutationService`]) can be exercised through the exact code
/// paths a real bug would take.
///
/// A fault whose `proc` is outside the machine (`proc >= p`) never fires —
/// the job completes normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFault {
    /// The virtual processor that will panic.
    pub proc: usize,
    /// Where in the pipeline it panics.
    pub phase: FaultPhase,
}

impl EngineFault {
    /// A fault that panics on virtual processor `proc` mid-matrix-phase.
    pub fn matrix_phase(proc: usize) -> Self {
        EngineFault {
            proc,
            phase: FaultPhase::Matrix,
        }
    }

    /// A fault that panics on virtual processor `proc` entering the data
    /// exchange.
    pub fn exchange_phase(proc: usize) -> Self {
        EngineFault {
            proc,
            phase: FaultPhase::Exchange,
        }
    }
}

/// The engine-selection core shared by every front door of the crate: which
/// permutation a seed produces (`seed`) and what machine it runs on
/// (`procs`).
///
/// [`crate::Permuter`], [`crate::PermutationSession`] and
/// [`crate::service::ServiceConfig`] all embed one `EngineConfig`, so a
/// configuration built once can be pushed through any surface:
///
/// ```
/// use cgp_core::{EngineConfig, Permuter};
/// use cgp_core::service::ServiceConfig;
///
/// let engine = EngineConfig::new(4).seed(42);
/// let one_shot = Permuter::from_engine(engine);       // one-shot / session
/// let service = ServiceConfig::from_engine(engine);   // multi-tenant service
/// assert_eq!(one_shot.engine(), service.engine);
/// ```
///
/// The matrix backend and `keep_matrix` stay *outside* the engine config:
/// they change cost and diagnostics, never which permutation a seed
/// produces, so they remain per-surface options ([`PermuteOptions`]).  A
/// job carries no seed or processor count of its own, which is what keeps
/// a submitted job from silently disagreeing with the service it
/// runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of virtual processors per machine.
    pub procs: usize,
    /// Master seed; every derived random stream follows from it.
    pub seed: u64,
}

impl EngineConfig {
    /// An engine over `procs` virtual processors with seed `0`.
    pub fn new(procs: usize) -> Self {
        EngineConfig { procs, seed: 0 }
    }

    /// Sets the number of virtual processors.
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = procs;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The machine half of this engine: a [`CgmConfig`] carrying the
    /// processor count and seed, or [`CgmError::NoProcessors`] when
    /// `procs == 0`.
    pub fn try_cgm_config(&self) -> Result<CgmConfig, CgmError> {
        Ok(CgmConfig::try_new(self.procs)?.with_seed(self.seed))
    }

    /// Panicking form of [`EngineConfig::try_cgm_config`], for surfaces
    /// whose processor count was validated at construction.
    pub fn cgm_config(&self) -> CgmConfig {
        self.try_cgm_config().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Options for [`crate::permute_blocks`] / [`crate::permute_vec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermuteOptions {
    /// Which matrix-sampling algorithm to use.
    pub backend: MatrixBackend,
    /// Whether to keep a copy of the sampled communication matrix in the
    /// report (costs `O(p·p')` memory; useful for tests and diagnostics).
    pub keep_matrix: bool,
    /// Target block sizes `m'_j`.  `None` means "same as the source blocks".
    pub target_sizes: Option<Vec<u64>>,
    /// Chaos-testing hook: deliberately panic one virtual processor at a
    /// chosen pipeline point (see [`EngineFault`]).  `None` — the default —
    /// costs one branch per processor per job.
    pub fault: Option<EngineFault>,
    /// Test hook: the window of the one scatter level in items, and the
    /// largest block the Fisher–Yates path takes (see
    /// [`PermuteOptions::window_items`]).  `None` runs the pipeline's own
    /// rule.
    pub(crate) window_items: Option<usize>,
}

impl Default for PermuteOptions {
    fn default() -> Self {
        PermuteOptions {
            backend: MatrixBackend::Sequential,
            keep_matrix: false,
            target_sizes: None,
            fault: None,
            window_items: None,
        }
    }
}

impl PermuteOptions {
    /// Default options — the start of the one builder path every call site
    /// (the `Permuter`, sessions, the service, per-job overrides) goes
    /// through; chain the setters below instead of mutating fields.
    pub fn new() -> Self {
        PermuteOptions::default()
    }

    /// Options with everything default except the matrix backend.
    pub fn with_backend(backend: MatrixBackend) -> Self {
        PermuteOptions::new().backend(backend)
    }

    /// Sets the matrix-sampling backend.
    pub fn backend(mut self, backend: MatrixBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Test hook that overrides the pipeline's layout rule: the job runs
    /// the one scatter level, with windows and buckets of `items` (at least
    /// 1), exactly when some block holds more than `items` items, and the
    /// Fisher–Yates path otherwise.  It lets the batteries reach many
    /// windows and buckets at tiny `n`, and pin either path at any size.
    /// The output is as uniform as under the default rule, but a different
    /// permutation of the seed.
    #[doc(hidden)]
    pub fn window_items(mut self, items: usize) -> Self {
        self.window_items = Some(items);
        self
    }

    /// Requests the sampled communication matrix to be kept in the report.
    pub fn keep_matrix(mut self) -> Self {
        self.keep_matrix = true;
        self
    }

    /// Sets explicit target block sizes `m'_j`.
    pub fn target_sizes(mut self, sizes: Vec<u64>) -> Self {
        self.target_sizes = Some(sizes);
        self
    }

    /// Arms the chaos-testing hook: the job will panic on `fault.proc` at
    /// `fault.phase` (see [`EngineFault`]).
    pub fn inject_fault(mut self, fault: EngineFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Non-panicking form of [`Self::validate_target_sizes`]: checks any
    /// prescribed target sizes against the processor count `p` and the
    /// total item count `n`, reporting misuse as a descriptive message.
    /// This is the validation a multi-tenant service runs at admission, so
    /// one tenant's bad prescription is a rejected submission — never a
    /// dead executor.
    pub fn check_target_sizes(&self, p: usize, n: u64) -> Result<(), String> {
        if let Some(sizes) = &self.target_sizes {
            let total: u64 = sizes.iter().sum();
            if total != n {
                return Err(format!(
                    "target block sizes must sum to the number of items \
                     (the {} prescribed sizes sum to {total}, but there are {n} items)",
                    sizes.len()
                ));
            }
            if sizes.len() != p {
                return Err(format!(
                    "permute_blocks requires exactly one target block per processor \
                     (p = {p}), but {} target sizes were prescribed; rectangular \
                     redistributions are not supported — re-split the data with \
                     BlockDistribution or sample the matrix with cgp-matrix directly",
                    sizes.len()
                ));
            }
        }
        Ok(())
    }

    /// Validation half of [`Self::resolve_target_sizes`], allocation-free:
    /// checks any prescribed target sizes against the processor count `p`
    /// and the total item count `n`, so misuse fails with a clear message on
    /// the calling thread — never as a cross-thread panic out of a worker.
    ///
    /// # Panics
    /// Panics if the prescribed sizes do not sum to `n`, or if their count
    /// differs from `p` (rectangular redistributions are not supported by
    /// `permute_blocks`; resample with `cgp-matrix` directly or re-split
    /// with `BlockDistribution` instead).  [`Self::check_target_sizes`] is
    /// the value-returning form.
    pub fn validate_target_sizes(&self, p: usize, n: u64) {
        if let Err(message) = self.check_target_sizes(p, n) {
            panic!("{message}");
        }
    }

    /// Resolves the effective target sizes for a machine of `p` processors
    /// holding blocks of `source_sizes`, validating via
    /// [`Self::validate_target_sizes`] first.
    pub fn resolve_target_sizes(&self, p: usize, source_sizes: &[u64]) -> Vec<u64> {
        self.validate_target_sizes(p, source_sizes.iter().sum());
        match &self.target_sizes {
            Some(sizes) => sizes.clone(),
            None => source_sizes.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_sequential() {
        assert_eq!(MatrixBackend::default(), MatrixBackend::Sequential);
        assert_eq!(PermuteOptions::default().backend, MatrixBackend::Sequential);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            MatrixBackend::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), MatrixBackend::ALL.len());
    }

    #[test]
    fn resolve_defaults_to_source_sizes() {
        let opts = PermuteOptions::default();
        assert_eq!(opts.resolve_target_sizes(3, &[4, 0, 2]), vec![4, 0, 2]);
        let opts = opts.target_sizes(vec![1, 2, 3]);
        assert_eq!(opts.resolve_target_sizes(3, &[4, 0, 2]), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "must sum to the number of items")]
    fn resolve_rejects_wrong_total() {
        PermuteOptions::default()
            .target_sizes(vec![1, 1])
            .resolve_target_sizes(2, &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "one target block per processor")]
    fn resolve_rejects_rectangular_prescription() {
        PermuteOptions::default()
            .target_sizes(vec![1, 1, 1])
            .resolve_target_sizes(2, &[2, 1]);
    }

    #[test]
    fn builder_style_options() {
        let opts = PermuteOptions::new()
            .backend(MatrixBackend::ParallelOptimal)
            .window_items(64)
            .keep_matrix()
            .target_sizes(vec![3, 4, 5]);
        assert_eq!(opts.backend, MatrixBackend::ParallelOptimal);
        assert_eq!(opts.window_items, Some(64));
        assert!(opts.keep_matrix);
        assert_eq!(opts.target_sizes, Some(vec![3, 4, 5]));
        assert_eq!(
            PermuteOptions::with_backend(MatrixBackend::ParallelOptimal),
            PermuteOptions::new().backend(MatrixBackend::ParallelOptimal)
        );
    }

    #[test]
    fn the_layout_rule_is_the_default() {
        assert_eq!(PermuteOptions::default().window_items, None);
        assert_eq!(PermuteOptions::new(), PermuteOptions::default());
    }

    #[test]
    fn engine_config_is_the_machine_half() {
        let engine = EngineConfig::new(3).seed(99);
        let machine = engine.cgm_config();
        assert_eq!(machine.procs, 3);
        assert_eq!(machine.seed, 99);
        assert!(EngineConfig::new(0).try_cgm_config().is_err());
    }
}
