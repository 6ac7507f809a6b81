//! Steady-state permutation sessions.
//!
//! A [`crate::Permuter`] is a *configuration*; every call to its one-shot
//! methods builds a fresh machine: the channel fabric of its `p` virtual
//! processors and `t − 1` helper threads, where `t = min(p, cores)` is the
//! number of threads a run plays its processors on (see the
//! [`crate::parallel`] module docs).  A [`PermutationSession`] is the
//! *steady-state* counterpart: it owns the fabric, its `t − 1` parked
//! helper threads **and** a [`PermuteScratch`] (spare buffer recycled
//! across calls), so repeated permutations make
//!
//! * no thread spawns,
//! * no channel construction, and
//! * no per-item allocations once the scratch is warm —
//!
//! only the `O(p²)` bookkeeping and the sampled `p × p` matrix of each call
//! remain.  The calling thread plays the first range of processors itself.
//!
//! # When to use one-shot vs. session
//!
//! * **One-shot** ([`crate::Permuter::permute`] and friends): a handful of
//!   permutations, or permutations of types `T` that differ per call.  The
//!   startup cost is paid per call but nothing stays resident.
//! * **Session** ([`crate::Permuter::session`]): a loop or service that
//!   permutes many vectors of one payload type.  Startup is paid once;
//!   per-call latency drops accordingly.  The helper threads stay parked
//!   (blocking channel receives, no spin) between calls, so an idle session
//!   costs no CPU.
//!
//! # Determinism
//!
//! A session produces **exactly** the permutations the one-shot path
//! produces for the same configuration: every random stream of Algorithm 1
//! is derived from the machine seed per call, never from session state.
//! (The contexts' private `ctx.rng()` streams do advance across calls, but
//! the permutation engine draws only from per-call derived streams — see
//! `Worker::new` in the `parallel` module and `MatrixCtx::sampling_rng` —
//! precisely so the thread count and the history cannot change the
//! sampled permutation.)
//!
//! # One run, zero spawns — for every backend
//!
//! Algorithm 1 runs **fused**: matrix sampling happens in-context on the
//! word plane of the same contexts that shuffle and exchange the data (see
//! the [`crate::parallel`] module docs), so a steady-state session
//! permutation makes zero thread spawns and zero channel-fabric
//! constructions for *all four* matrix backends, `ParallelLog` and
//! `ParallelOptimal` included.  The `cgp_cgm::diag` startup counters make
//! this assertable in tests.

use crate::config::{EngineConfig, PermuteOptions};
use crate::parallel::{try_permute_vec_on, PermutationReport, PermuteScratch, Runner};
use cgp_cgm::CgmError;

/// A permutation session: a machine with its parked helper threads plus
/// recycled buffers, produced by [`crate::Permuter::session`].
///
/// ```
/// use cgp_core::Permuter;
///
/// let permuter = Permuter::new(4).seed(9);
/// let mut session = permuter.session::<u64>();
/// let reference = permuter.permute((0..1_000u64).collect()).0;
/// for _ in 0..3 {
///     let mut data: Vec<u64> = (0..1_000).collect();
///     session.permute_into(&mut data);
///     // Same seed ⇒ the session matches the one-shot path exactly.
///     assert_eq!(data, reference);
/// }
/// ```
pub struct PermutationSession<T: Send + 'static> {
    runner: Runner<T>,
    scratch: PermuteScratch<T>,
    options: PermuteOptions,
    engine: EngineConfig,
}

impl<T: Send + 'static> PermutationSession<T> {
    /// Builds a session: builds the fabric for `engine` and spawns its
    /// `min(p, cores) − 1` helper threads (or reports
    /// [`CgmError::NoProcessors`]), and starts with a cold scratch.
    /// `options` carries the per-surface extras (matrix backend,
    /// `keep_matrix`).
    pub(crate) fn create(engine: EngineConfig, options: PermuteOptions) -> Result<Self, CgmError> {
        Ok(PermutationSession {
            runner: Runner::for_caller(engine.try_cgm_config()?)?,
            scratch: PermuteScratch::new(),
            options,
            engine,
        })
    }

    /// The engine-selection core this session was opened with — push it
    /// through [`crate::Permuter::from_engine`] or
    /// [`crate::service::ServiceConfig::from_engine`] to stand up another
    /// surface producing the identical permutations.
    pub fn engine(&self) -> EngineConfig {
        self.engine
    }

    /// Number of virtual processors.
    pub fn procs(&self) -> usize {
        self.runner.procs()
    }

    /// The master seed every per-call random stream is derived from.
    pub fn seed(&self) -> u64 {
        self.engine.seed
    }

    /// Uniformly permutes `data` in place, recycling the session's buffers.
    /// Produces exactly the same permutation as
    /// [`crate::Permuter::permute`] for the same configuration.
    ///
    /// # Panics
    /// Panics naming the virtual processor if one panics (see
    /// [`PermutationSession::try_permute_with`]).
    pub fn permute_into(&mut self, data: &mut Vec<T>) -> PermutationReport {
        try_permute_vec_on(&mut self.runner, data, &self.options, &mut self.scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fail-fast variant of [`PermutationSession::permute_into`] with
    /// per-call options (as [`crate::ServiceHandle::permute_with`] takes
    /// them): a job that panics inside a virtual processor comes back as
    /// [`CgmError::ProcessorPanicked`] naming the processor, and the session
    /// stays ready for the next call.
    ///
    /// On `Err` the job's items are leaked — never dropped twice — so
    /// `data` comes back empty (see the [`crate::parallel`] module docs).
    /// Misuse detected before any item moves (bad prescriptions, see
    /// [`PermuteOptions::validate_target_sizes`]) panics on the calling
    /// thread with `data` untouched.
    pub fn try_permute_with(
        &mut self,
        data: &mut Vec<T>,
        options: &PermuteOptions,
    ) -> Result<PermutationReport, CgmError> {
        try_permute_vec_on(&mut self.runner, data, options, &mut self.scratch)
    }

    /// Owned-vector convenience over [`PermutationSession::permute_into`].
    pub fn permute(&mut self, mut data: Vec<T>) -> (Vec<T>, PermutationReport) {
        let report = self.permute_into(&mut data);
        (data, report)
    }

    /// Total buffer capacity (in items) currently retained by the session's
    /// scratch — converges after the warm-up calls (see [`PermuteScratch`]).
    pub fn retained_capacity(&self) -> usize {
        self.scratch.retained_capacity()
    }

    /// Closes the session, joining its helper threads (also happens on
    /// drop; this form makes the join point explicit).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl PermutationSession<u64> {
    /// Generates a uniformly random permutation of `0..n` (as indices) —
    /// the session counterpart of
    /// [`crate::Permuter::sample_permutation`], producing the identical
    /// permutation for the same configuration.  Pair with
    /// [`crate::apply_permutation`] to rearrange non-`Send` payloads.
    pub fn sample_permutation(&mut self, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        self.sample_permutation_into(n, &mut out);
        out
    }

    /// Buffer-reusing variant of
    /// [`PermutationSession::sample_permutation`]: writes the index
    /// permutation into `out` (cleared first), so a steady-state sampling
    /// loop reuses one allocation across calls.  The identity is built in
    /// `out` and permuted in place through the session's recycled scratch,
    /// so the result is byte-identical to the one-shot
    /// [`crate::Permuter::sample_permutation`] for the same configuration.
    pub fn sample_permutation_into(&mut self, n: usize, out: &mut Vec<u64>) {
        out.clear();
        out.extend(0..n as u64);
        self.permute_into(out);
    }
}

#[cfg(test)]
mod tests {
    use crate::{MatrixBackend, Permuter};

    #[test]
    fn session_matches_one_shot_for_every_backend() {
        for backend in MatrixBackend::ALL {
            let permuter = Permuter::new(3).seed(17).backend(backend);
            let reference = permuter.permute((0..300u64).collect()).0;
            let mut session = permuter.session::<u64>();
            for round in 0..3 {
                let (out, _) = session.permute((0..300u64).collect());
                assert_eq!(out, reference, "{backend:?} diverged in round {round}");
            }
        }
    }

    #[test]
    fn session_sample_permutation_matches_permuter() {
        let permuter = Permuter::new(4).seed(23);
        let mut session = permuter.session::<u64>();
        assert_eq!(
            session.sample_permutation(257),
            permuter.sample_permutation(257)
        );
    }

    #[test]
    fn sample_permutation_into_reuses_the_buffer() {
        let permuter = Permuter::new(3).seed(13);
        let reference = permuter.sample_permutation(2_000);
        let mut session = permuter.session::<u64>();
        let mut out = Vec::new();
        // Two warm-up calls size both allocations the output ping-pongs
        // between (see `PermuteScratch`).
        session.sample_permutation_into(2_000, &mut out);
        session.sample_permutation_into(2_000, &mut out);
        assert_eq!(out, reference);
        let cap = out.capacity();
        let retained = session.retained_capacity();
        for _ in 0..2 {
            session.sample_permutation_into(2_000, &mut out);
            assert_eq!(out, reference);
            assert_eq!(out.capacity(), cap);
            assert_eq!(session.retained_capacity(), retained);
        }
    }

    #[test]
    fn session_matches_one_shot_on_both_layouts() {
        // The default rule takes the Fisher-Yates path at this size; a
        // 32-item window forces the one scatter level.
        for permuter in [
            Permuter::new(3).seed(29),
            Permuter::new(3).seed(29).window_items(32),
        ] {
            let reference = permuter.permute((0..300u64).collect()).0;
            let mut session = permuter.session::<u64>();
            let (out, _) = session.permute((0..300u64).collect());
            assert_eq!(out, reference, "{permuter:?} diverged");
        }
    }

    #[test]
    fn session_reports_meter_each_call() {
        let permuter = Permuter::new(4).seed(3);
        let mut session = permuter.session::<u64>();
        for _ in 0..3 {
            let mut data: Vec<u64> = (0..800).collect();
            let report = session.permute_into(&mut data);
            assert_eq!(
                report.max_exchange_volume(),
                2 * 800 / 4,
                "per-job metrics must not accumulate across session calls"
            );
        }
    }

    #[test]
    fn a_session_moves_to_another_thread() {
        let permuter = Permuter::new(3).seed(2);
        let reference = permuter.permute((0..500u64).collect()).0;
        let mut session = permuter.session::<u64>();
        let out = std::thread::spawn(move || session.permute((0..500u64).collect()).0)
            .join()
            .expect("the session's call does not panic");
        assert_eq!(out, reference);
    }

    #[test]
    fn session_shutdown_is_clean() {
        let permuter = Permuter::new(2).seed(1);
        let mut session = permuter.session::<String>();
        let (out, _) = session.permute(vec!["a".to_string(), "b".to_string()]);
        assert_eq!(out.len(), 2);
        session.shutdown();
    }
}
