//! A high-level builder API around [`crate::permute_vec`].
//!
//! Most callers only want "permute this vector over `p` processors with seed
//! `s`"; the [`Permuter`] builder wraps machine construction, option
//! plumbing and report handling into a reusable object.

use crate::config::{EngineConfig, MatrixBackend, PermuteOptions};
use crate::parallel::{permute_vec, permute_vec_into, PermutationReport, PermuteScratch};
use crate::service::{PermutationService, ServiceConfig};
use crate::session::PermutationSession;
use cgp_cgm::{CgmConfig, CgmError, CgmMachine};

/// Reusable configuration for generating parallel random permutations.
///
/// ```
/// use cgp_core::{MatrixBackend, Permuter};
///
/// let permuter = Permuter::new(4)
///     .seed(42)
///     .backend(MatrixBackend::ParallelOptimal);
/// let data: Vec<u64> = (0..1_000).collect();
/// let (shuffled, report) = permuter.permute(data);
/// assert_eq!(shuffled.len(), 1_000);
/// assert!(report.max_exchange_volume() <= 2 * 250);
/// ```
#[derive(Debug, Clone)]
pub struct Permuter {
    engine: EngineConfig,
    /// The per-job options every run of this permuter uses.
    options: PermuteOptions,
}

impl Permuter {
    /// A permuter using `procs` virtual processors, seed `0` and the
    /// sequential matrix backend.
    ///
    /// # Panics
    /// Panics if `procs == 0`; [`Permuter::try_new`] reports that as a
    /// value instead.
    pub fn new(procs: usize) -> Self {
        Permuter::try_new(procs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: a permuter over `procs` virtual processors, or
    /// [`CgmError::NoProcessors`] when `procs == 0`.  Use this when the
    /// processor count comes from configuration or user input, so the
    /// misconfiguration surfaces as a descriptive error at the API boundary
    /// instead of an `assert!` deep inside the machine.
    pub fn try_new(procs: usize) -> Result<Self, CgmError> {
        Permuter::try_from_engine(EngineConfig::new(procs))
    }

    /// A permuter running a prebuilt [`EngineConfig`] — the bridge from the
    /// engine-selection core shared with sessions and
    /// [`ServiceConfig::from_engine`].
    ///
    /// # Panics
    /// Panics if `engine.procs == 0`; [`Permuter::try_from_engine`]
    /// reports that as a value instead.
    pub fn from_engine(engine: EngineConfig) -> Self {
        Permuter::try_from_engine(engine).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Permuter::from_engine`].
    pub fn try_from_engine(engine: EngineConfig) -> Result<Self, CgmError> {
        // Same validation (and same error) as the machine itself.
        CgmConfig::try_new(engine.procs)?;
        Ok(Permuter {
            engine,
            options: PermuteOptions::new(),
        })
    }

    /// The engine-selection core this permuter runs: push it through
    /// [`ServiceConfig::from_engine`] or [`Permuter::from_engine`] to stand
    /// up another surface with the identical configuration.
    pub fn engine(&self) -> EngineConfig {
        self.engine
    }

    /// Sets the master seed; every derived random stream follows from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Selects the matrix-sampling backend (Algorithms 3–6).
    pub fn backend(mut self, backend: MatrixBackend) -> Self {
        self.options = self.options.backend(backend);
        self
    }

    /// Keeps the sampled communication matrix in the report.
    pub fn keep_matrix(mut self) -> Self {
        self.options = self.options.keep_matrix();
        self
    }

    /// Test hook: forwards [`PermuteOptions::window_items`] to every run
    /// of this permuter, its sessions and its services included.
    #[doc(hidden)]
    pub fn window_items(mut self, items: usize) -> Self {
        self.options = self.options.window_items(items);
        self
    }

    /// Number of virtual processors.
    pub fn procs(&self) -> usize {
        self.engine.procs
    }

    /// Builds the underlying virtual machine (exposed so callers can run
    /// their own CGM phases with the same configuration).
    pub fn machine(&self) -> CgmMachine {
        CgmMachine::new(self.engine.cgm_config())
    }

    /// Opens a steady-state [`PermutationSession`] for payload type `T`: a
    /// resident worker pool plus recycled buffers, so repeated permutations
    /// make no thread spawns, no channel construction and (once warm) no
    /// per-item allocations.  The session produces exactly the permutations
    /// this permuter's one-shot methods produce — see the
    /// [`crate::session`] module docs for the one-shot vs. session guide.
    pub fn session<T: Send + 'static>(&self) -> PermutationSession<T> {
        self.try_session().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Permuter::session`].  With a `Permuter` built
    /// through its constructors the processor count is already validated,
    /// so the remaining failure is [`CgmError::WorkerSpawnFailed`] — the OS
    /// refusing a resident worker thread (e.g. under thread exhaustion).
    pub fn try_session<T: Send + 'static>(&self) -> Result<PermutationSession<T>, CgmError> {
        PermutationSession::create(self.engine, self.options.clone())
    }

    /// Stands up a multi-tenant [`PermutationService`] for payload type
    /// `T`: one executor thread per host thread (see [`ServiceConfig::new`]),
    /// each running whole jobs, serving concurrent clients through cheap
    /// cloneable handles, with a bounded admission queue and per-tenant
    /// metrics.  Every job produces exactly the permutation this
    /// permuter's one-shot methods produce — see the [`crate::service`]
    /// module docs for the one-shot vs. session vs. service guide.
    pub fn service<T: Send + 'static>(&self) -> PermutationService<T> {
        PermutationService::new(self.service_config(), self.options.clone())
    }

    /// [`Permuter::service`] with an explicit executor count and
    /// admission-queue depth (processor count and seed still come from this
    /// permuter).
    pub fn service_sized<T: Send + 'static>(
        &self,
        executors: usize,
        queue_depth: usize,
    ) -> PermutationService<T> {
        PermutationService::new(
            self.service_config()
                .executors(executors)
                .queue_depth(queue_depth),
            self.options.clone(),
        )
    }

    /// Fallible variant of [`Permuter::service`]: reports
    /// [`CgmError::WorkerSpawnFailed`] when the OS refuses an executor
    /// thread instead of panicking.
    pub fn try_service<T: Send + 'static>(&self) -> Result<PermutationService<T>, CgmError> {
        PermutationService::try_new(self.service_config(), self.options.clone())
    }

    /// The [`ServiceConfig`] this permuter's [`Permuter::service`] would
    /// use — the starting point for custom sizing (executors, tenant
    /// quotas, …) to pass to [`PermutationService::new`] directly.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::from_engine(self.engine)
    }

    /// Uniformly permutes `data`, returning the permuted vector and the run
    /// report.  Items are moved through the exchange, never cloned, so `T`
    /// only needs to be `Send`.
    pub fn permute<T: Send + 'static>(&self, data: Vec<T>) -> (Vec<T>, PermutationReport) {
        permute_vec(&self.machine(), data, &self.options)
    }

    /// Uniformly permutes `data` in place (convenience wrapper that swaps the
    /// vector's contents for the permuted ones).
    pub fn permute_in_place<T: Send + 'static>(&self, data: &mut Vec<T>) -> PermutationReport {
        let owned = std::mem::take(data);
        let (permuted, report) = self.permute(owned);
        *data = permuted;
        report
    }

    /// Uniformly permutes `data` in place, recycling every intermediate
    /// buffer through `scratch` across calls.
    ///
    /// Produces exactly the same permutation as [`Permuter::permute`] for the
    /// same configuration; only the allocation behaviour differs.  Keep one
    /// [`PermuteScratch`] per call site that permutes in a loop — after the
    /// first call the scratch is warm and steady-state calls reuse the block
    /// and outgoing-vector allocations instead of reallocating them.
    pub fn permute_into<T: Send + 'static>(
        &self,
        data: &mut Vec<T>,
        scratch: &mut PermuteScratch<T>,
    ) -> PermutationReport {
        permute_vec_into(&self.machine(), data, &self.options, scratch)
    }

    /// Generates a uniformly random permutation of `0..n` (as indices), by
    /// running the full parallel algorithm on the index vector.
    ///
    /// This is the sampling half of the **index-permutation fast path**: pair
    /// it with [`crate::apply_permutation`] to rearrange payloads that are
    /// not `Send` (or too heavyweight to ship through the exchange) with a
    /// local `O(n)` gather by moves.
    pub fn sample_permutation(&self, n: usize) -> Vec<u64> {
        self.permute((0..n as u64).collect()).0
    }

    /// Generates a uniformly random permutation of `0..n` (as indices).
    ///
    /// Alias of [`Permuter::sample_permutation`], kept for discoverability.
    pub fn index_permutation(&self, n: usize) -> Vec<u64> {
        self.sample_permutation(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let p = Permuter::new(3)
            .seed(9)
            .backend(MatrixBackend::Recursive)
            .keep_matrix();
        assert_eq!(p.procs(), 3);
        let (_, report) = p.permute((0..90u64).collect());
        assert!(report.matrix.is_some());
        assert_eq!(report.backend, MatrixBackend::Recursive);
    }

    #[test]
    fn same_seed_same_result() {
        let a = Permuter::new(4).seed(1).index_permutation(200);
        let b = Permuter::new(4).seed(1).index_permutation(200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_result() {
        let a = Permuter::new(4).seed(1).index_permutation(200);
        let b = Permuter::new(4).seed(2).index_permutation(200);
        assert_ne!(a, b);
    }

    #[test]
    fn permute_in_place_swaps_contents() {
        let mut data: Vec<u64> = (0..128).collect();
        let original = data.clone();
        let _ = Permuter::new(2).seed(7).permute_in_place(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, original);
    }

    #[test]
    fn sample_permutation_plus_apply_matches_direct_permute() {
        // The index fast path must induce the same permutation as shipping
        // the payloads through the exchange directly.
        let permuter = Permuter::new(3).seed(5);
        let perm = permuter.sample_permutation(120);
        let direct: Vec<u64> = permuter.permute((0..120u64).collect()).0;
        assert_eq!(crate::apply_permutation(&perm, (0..120).collect()), direct);
    }

    #[test]
    fn permute_into_reuses_scratch_across_rounds() {
        let permuter = Permuter::new(4).seed(13);
        let reference = permuter.permute((0..400u64).collect()).0;
        let mut scratch = PermuteScratch::new();
        for _ in 0..3 {
            let mut data: Vec<u64> = (0..400).collect();
            permuter.permute_into(&mut data, &mut scratch);
            assert_eq!(data, reference);
        }
        assert!(scratch.retained_capacity() >= 400);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        Permuter::new(0);
    }

    #[test]
    fn try_new_reports_zero_processors_as_a_value() {
        // Satellite regression: library users validating a configured
        // processor count get a descriptive error, not a bare assert from
        // deep inside cgp-cgm.
        let err = Permuter::try_new(0).unwrap_err();
        assert_eq!(err, cgp_cgm::CgmError::NoProcessors);
        assert!(err.to_string().contains("at least one processor"));
        assert_eq!(Permuter::try_new(4).unwrap().procs(), 4);
    }

    #[test]
    fn the_window_override_reaches_the_engine() {
        let p = Permuter::new(2).seed(3).window_items(64);
        let mut sorted = p.permute((0..500u64).collect()).0;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<u64>>());

        // Under the same seed the scatter emits a different (equally
        // uniform) permutation than the Fisher-Yates path, which the
        // default rule takes at this size.
        let fisher_yates = Permuter::new(2).seed(3).sample_permutation(500);
        assert_ne!(fisher_yates, p.sample_permutation(500));
    }

    #[test]
    fn session_round_trips_and_matches_one_shot() {
        let permuter = Permuter::new(3).seed(41);
        let mut session = permuter.session::<u64>();
        let one_shot = permuter.permute((0..240u64).collect()).0;
        let (via_session, _) = session.permute((0..240u64).collect());
        assert_eq!(via_session, one_shot);
    }
}
