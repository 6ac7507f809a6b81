//! The virtual coarse grained machine: configuration, processor contexts and
//! the thread-per-processor runner.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::channel::open_plane;
use crate::comm::Communicator;
use crate::error::CgmError;
use crate::metrics::{MachineMetrics, ProcMetrics};
use crate::sync::{panic_message, AbortFlag, AbortPanic, SuperstepBarrier};
use cgp_rng::{Pcg64, SeedSequence};

/// Configuration of a virtual coarse grained machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgmConfig {
    /// Number of virtual processors `p`.
    pub procs: usize,
    /// Master seed from which every processor's random stream is derived.
    pub seed: u64,
}

impl CgmConfig {
    /// A machine with `procs` processors and the default seed `0`.
    ///
    /// # Panics
    /// Panics if `procs == 0`; use [`CgmConfig::try_new`] to handle the
    /// misconfiguration as a value instead.
    pub fn new(procs: usize) -> Self {
        CgmConfig::try_new(procs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: a machine with `procs` processors and seed `0`,
    /// or [`CgmError::NoProcessors`] when `procs == 0`.  Library layers that
    /// accept the processor count from configuration or user input should
    /// route through this so misuse surfaces as an error value rather than
    /// an `assert!` deep inside the simulator.
    pub fn try_new(procs: usize) -> Result<Self, CgmError> {
        if procs == 0 {
            return Err(CgmError::NoProcessors);
        }
        Ok(CgmConfig { procs, seed: 0 })
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything a virtual processor has access to while an algorithm runs:
/// its identity, its communicators, and its private random stream.
///
/// Every processor owns **two channel planes** over the same barrier and
/// abort flag:
///
/// * the **data plane** ([`ProcCtx::comm`]/[`ProcCtx::comm_mut`]), typed
///   `Vec<T>`, carrying the algorithm's payload;
/// * the **word plane** (`Vec<u64>`, reached through
///   [`ProcCtx::matrix_ctx`]), carrying the `O(p)`-sized envelopes of the
///   in-context communication-matrix samplers.
///
/// The two planes let a single job run *all* of Algorithm 1 — matrix
/// sampling and data exchange — on one executor while the meters still
/// attribute the traffic per phase (see [`crate::MachineMetrics`]).
pub struct ProcCtx<T> {
    comm: Communicator<T>,
    words: Communicator<u64>,
    rng: Pcg64,
    seeds: SeedSequence,
}

impl<T: Send> ProcCtx<T> {
    /// This processor's id in `0..p`.
    #[inline]
    pub fn id(&self) -> usize {
        self.comm.id()
    }

    /// The number of processors `p`.
    #[inline]
    pub fn procs(&self) -> usize {
        self.comm.procs()
    }

    /// Shared access to the communicator (metrics inspection).
    pub fn comm(&self) -> &Communicator<T> {
        &self.comm
    }

    /// Mutable access to the communicator (send / recv / barrier).
    pub fn comm_mut(&mut self) -> &mut Communicator<T> {
        &mut self.comm
    }

    /// This processor's private random stream (derived from the machine's
    /// master seed and the processor id, so runs are reproducible regardless
    /// of scheduling).
    pub fn rng(&mut self) -> &mut Pcg64 {
        &mut self.rng
    }

    /// The machine's seed sequence, for deriving additional named streams
    /// (e.g. one for matrix sampling, one for local shuffles).
    pub fn seeds(&self) -> &SeedSequence {
        &self.seeds
    }

    /// Convenience: marks the start of a superstep (metering) and returns a
    /// mutable borrow of the communicator for its communication phase.
    pub fn superstep(&mut self) -> &mut Communicator<T> {
        self.comm.begin_superstep();
        &mut self.comm
    }

    /// Borrows the word plane as a [`MatrixCtx`] — the view the in-context
    /// communication-matrix samplers of `cgp-matrix` run against.  The word
    /// plane shares the machine's barrier and abort flag with the data
    /// plane, but its traffic is metered separately (per-phase attribution).
    pub fn matrix_ctx(&mut self) -> MatrixCtx<'_> {
        MatrixCtx {
            words: &mut self.words,
            seeds: &self.seeds,
        }
    }

    /// Starts a new job on both planes (resident pool): moves both
    /// generation fences to the coordinator-assigned stamp and discards
    /// local leftovers.
    pub(crate) fn begin_job(&mut self, generation: u64) {
        self.comm.begin_job(generation);
        self.words.begin_job(generation);
    }

    /// Per-job metrics of both planes (data plane, word plane), taken and
    /// reset — the resident pool's per-job metering.
    pub(crate) fn take_metrics(&mut self) -> (ProcMetrics, ProcMetrics) {
        (self.comm.take_metrics(), self.words.take_metrics())
    }

    /// Consumes the context, returning the metrics of both planes (data
    /// plane, word plane) — the one-shot machine's end-of-run collection.
    pub(crate) fn into_metrics(self) -> (ProcMetrics, ProcMetrics) {
        (self.comm.into_metrics(), self.words.into_metrics())
    }

    /// Clears every buffered message on both planes (pool recovery after a
    /// panicked job).
    pub(crate) fn clear_in_flight(&mut self) {
        self.comm.clear_in_flight();
        self.words.clear_in_flight();
    }
}

/// The word plane of one virtual processor, as seen by the in-context
/// communication-matrix samplers (`cgp_matrix::sample_*_ctx`): a
/// `Vec<u64>`-typed communicator plus the machine's seed sequence.
///
/// Obtained from [`ProcCtx::matrix_ctx`] inside a running job.  Word-plane
/// traffic is metered into [`crate::MachineMetrics::matrix_plane`], so a
/// fused job's matrix phase stays separately attributable from its data
/// exchange.
pub struct MatrixCtx<'a> {
    words: &'a mut Communicator<u64>,
    seeds: &'a SeedSequence,
}

impl MatrixCtx<'_> {
    /// This processor's id in `0..p`.
    #[inline]
    pub fn id(&self) -> usize {
        self.words.id()
    }

    /// The number of processors `p`.
    #[inline]
    pub fn procs(&self) -> usize {
        self.words.procs()
    }

    /// The machine's seed sequence.
    pub fn seeds(&self) -> &SeedSequence {
        self.seeds
    }

    /// Mutable access to the word-plane communicator (send / recv /
    /// all-to-all of `Vec<u64>` payloads).
    pub fn comm_mut(&mut self) -> &mut Communicator<u64> {
        self.words
    }

    /// Marks the start of a matrix-phase round (word-plane superstep
    /// metering) and returns the communicator for its communication.
    pub fn superstep(&mut self) -> &mut Communicator<u64> {
        self.words.begin_superstep();
        self.words
    }

    /// This processor's matrix-sampling stream, derived **fresh from the
    /// machine seed** on every call (`proc_stream(id)` — exactly the stream
    /// a one-shot machine hands the processor as its default).  Deriving
    /// per call rather than using the resident context's advancing
    /// [`ProcCtx::rng`] is what makes a sampled matrix a pure function of
    /// the machine seed on *every* substrate.
    pub fn sampling_rng(&self) -> Pcg64 {
        self.seeds.proc_stream(self.id())
    }
}

/// The channel fabric and per-processor contexts of one machine:
/// everything that is built once per `CgmMachine::run` call, and once per
/// *lifetime* for a [`crate::ResidentCgm`] worker pool.
pub(crate) struct Fabric<T> {
    pub(crate) contexts: Vec<ProcCtx<T>>,
    pub(crate) barrier: Arc<SuperstepBarrier>,
    pub(crate) abort: Arc<AbortFlag>,
}

/// Opens both channel planes and wires them into the shared barrier/abort
/// pair and one [`ProcCtx`] per processor.  A `loopback` fabric serves all
/// `p` contexts from one thread (see [`LoopbackCgm`]): its barrier has a
/// single party, so a barrier is metered and passes at once.
pub(crate) fn build_fabric<T: Send + 'static>(config: &CgmConfig, loopback: bool) -> Fabric<T> {
    crate::diag::note_fabric_build();
    let p = config.procs;
    let seeds = SeedSequence::new(config.seed);
    let barrier = Arc::new(SuperstepBarrier::new(if loopback { 1 } else { p }));
    let abort = Arc::new(AbortFlag::new());

    let contexts: Vec<ProcCtx<T>> = open_plane(p)
        .into_iter()
        .zip(open_plane(p))
        .enumerate()
        .map(|(id, (data, words))| ProcCtx {
            comm: Communicator::new(
                id,
                p,
                data,
                Arc::clone(&barrier),
                Arc::clone(&abort),
                loopback,
            ),
            words: Communicator::new(
                id,
                p,
                words,
                Arc::clone(&barrier),
                Arc::clone(&abort),
                loopback,
            ),
            rng: seeds.proc_stream(id),
            seeds,
        })
        .collect();

    Fabric {
        contexts,
        barrier,
        abort,
    }
}

/// Attributes a run's panics to the virtual processor that caused them and
/// re-raises a single panic naming it.  Secondary unwinds (processors the
/// abort protocol woke up) are skipped: only the root cause is reported.
pub(crate) fn attribute_panics(
    panics: &[(usize, Box<dyn std::any::Any + Send>)],
) -> (usize, String) {
    match panics.iter().find(|(_, p)| !p.is::<AbortPanic>()) {
        Some((proc, payload)) => (*proc, panic_message(payload.as_ref())),
        // Only secondary unwinds were collected (the primary processor's own
        // report was lost); the payloads still carry the culprit's id.
        None => {
            let (proc, payload) = panics.first().expect("at least one panic was collected");
            let culprit = payload
                .downcast_ref::<AbortPanic>()
                .map_or(*proc, |a| a.culprit);
            (culprit, panic_message(payload.as_ref()))
        }
    }
}

pub(crate) fn raise_attributed_panic(panics: Vec<(usize, Box<dyn std::any::Any + Send>)>) -> ! {
    let (proc, message) = attribute_panics(&panics);
    panic!("virtual processor {proc} panicked: {message}");
}

/// The result of running an algorithm on the machine: per-processor return
/// values plus the metered communication behaviour.
#[derive(Debug)]
pub struct RunOutcome<R> {
    results: Vec<R>,
    metrics: MachineMetrics,
}

impl<R> RunOutcome<R> {
    /// The per-processor return values, indexed by processor id.
    pub fn results(&self) -> &[R] {
        &self.results
    }

    /// Consumes the outcome, yielding the per-processor return values.
    pub fn into_results(self) -> Vec<R> {
        self.results
    }

    /// The metered communication behaviour of the run.
    pub fn metrics(&self) -> &MachineMetrics {
        &self.metrics
    }

    /// Splits the outcome into results and metrics.
    pub fn into_parts(self) -> (Vec<R>, MachineMetrics) {
        (self.results, self.metrics)
    }

    pub(crate) fn from_parts(results: Vec<R>, metrics: MachineMetrics) -> Self {
        RunOutcome { results, metrics }
    }
}

/// Anything that can run one CGM job — a closure executed on every virtual
/// processor with [`ProcCtx`] semantics — and hand back the per-processor
/// results plus the metered communication.
///
/// Two implementations exist: [`CgmMachine`] (one-shot: spawns `p` OS
/// threads and builds the channel fabric *per call*) and
/// [`crate::ResidentCgm`] (a resident worker pool that spawns and wires up
/// once, then parks between jobs).  Algorithms written against this trait —
/// like the permutation engine in `cgp-core` — run unchanged on either,
/// which is what lets a session amortize startup across repeated calls
/// without forking the algorithm code.
///
/// Job closures must be `'static` (the resident pool hands them to
/// long-lived threads); shared inputs travel in `Arc`s, per-processor
/// inputs in `Arc<[Mutex<Option<_>>]>` slot vectors taken by id.
///
/// The trait is **sealed**.  Callers may rely on both implementations
/// running a job's closure at most once per processor, on the contexts of
/// one fabric, and never after the run has returned — except that a
/// [`crate::ResidentCgm`] returning [`CgmError::PoolShutDown`] may leave
/// workers that already received the job still running it.  The
/// permutation engine in `cgp-core` hands its workers raw access to the
/// caller's buffers on exactly these terms.
pub trait CgmExecutor<T: Send + 'static>: sealed::Sealed {
    /// The machine configuration (processor count and master seed).
    fn config(&self) -> CgmConfig;

    /// Number of virtual processors.
    fn procs(&self) -> usize {
        self.config().procs
    }

    /// Runs `f` on every virtual processor and collects results (indexed by
    /// processor id) and metrics.  Panics inside a processor are propagated
    /// as a panic naming the processor that failed.
    fn run_job<R, F>(&mut self, f: F) -> RunOutcome<R>
    where
        R: Send + 'static,
        F: Fn(&mut ProcCtx<T>) -> R + Send + Sync + 'static,
    {
        match self.try_run_job(f) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fail-fast variant of [`CgmExecutor::run_job`]: a panicking job is
    /// reported as [`CgmError::ProcessorPanicked`] (naming the virtual
    /// processor whose code failed) instead of unwinding the caller.  On a
    /// [`crate::ResidentCgm`] the pool recovers its fabric before this
    /// returns, so the executor stays usable for subsequent jobs — the hook
    /// a multi-tenant scheduler needs to contain one bad job without losing
    /// the machine it ran on.
    fn try_run_job<R, F>(&mut self, f: F) -> Result<RunOutcome<R>, CgmError>
    where
        R: Send + 'static,
        F: Fn(&mut ProcCtx<T>) -> R + Send + Sync + 'static;
}

/// Seals [`CgmExecutor`] to this crate's two executors.
pub(crate) mod sealed {
    pub trait Sealed {}
}

impl sealed::Sealed for CgmMachine {}

impl<T: Send + 'static> CgmExecutor<T> for CgmMachine {
    fn config(&self) -> CgmConfig {
        self.config
    }

    fn try_run_job<R, F>(&mut self, f: F) -> Result<RunOutcome<R>, CgmError>
    where
        R: Send + 'static,
        F: Fn(&mut ProcCtx<T>) -> R + Send + Sync + 'static,
    {
        self.try_run(f)
    }
}

/// The `p` virtual processors of a machine as contexts on **one thread**: a
/// loopback fabric for replaying a CGM program serially.
///
/// This is not a [`CgmExecutor`]: a closure that parks at a barrier until
/// its peers arrive cannot run on one thread.  The caller instead drives
/// the program **phase by phase**, running one phase on every context in
/// id order before it starts the next.  Any program whose messages within
/// a phase flow only from lower to higher ids (or to the sender itself)
/// replays this way; an all-to-all is split into its send and receive
/// halves ([`Communicator::all_to_all_send`] and
/// [`Communicator::all_to_all_recv`]), one phase each.
///
/// The contexts keep the one-shot machine's semantics where a serial run
/// can: the same seed sequence (so every derived stream is the same), the
/// same metering, and a barrier that is metered but passes at once.  A
/// receive never waits: it panics if its message was not sent yet, which
/// is how a replay in the wrong order shows itself.
///
/// ```
/// use cgp_cgm::{CgmConfig, LoopbackCgm};
///
/// // Processor 0 sends its id to everyone; each processor receives it.
/// let mut machine: LoopbackCgm<u64> = LoopbackCgm::new(CgmConfig::new(3));
/// let got: Vec<u64> = machine
///     .contexts()
///     .iter_mut()
///     .map(|ctx| {
///         if ctx.id() == 0 {
///             for to in 0..ctx.procs() {
///                 ctx.comm_mut().send(to, 0, vec![7]);
///             }
///         }
///         ctx.comm_mut().recv(0, 0)[0]
///     })
///     .collect();
/// assert_eq!(got, vec![7, 7, 7]);
/// ```
pub struct LoopbackCgm<T> {
    config: CgmConfig,
    contexts: Vec<ProcCtx<T>>,
    recoveries: u64,
}

impl<T: Send + 'static> LoopbackCgm<T> {
    /// Builds the contexts and the loopback fabric for `config`.
    ///
    /// # Panics
    /// Panics if `config.procs == 0`.
    pub fn new(config: CgmConfig) -> Self {
        assert!(config.procs > 0, "{}", CgmError::NoProcessors);
        LoopbackCgm {
            config,
            contexts: build_fabric(&config, true).contexts,
            recoveries: 0,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> CgmConfig {
        self.config
    }

    /// The `p` processor contexts, indexed by id.
    pub fn contexts(&mut self) -> &mut [ProcCtx<T>] {
        &mut self.contexts
    }

    /// The metrics every context accumulated since the last take, reset —
    /// one run's metering, with `elapsed` as its wall-clock.
    pub fn take_metrics(&mut self, elapsed: Duration) -> MachineMetrics {
        let (per_proc, matrix_plane) = self.contexts.iter_mut().map(ProcCtx::take_metrics).unzip();
        MachineMetrics {
            per_proc,
            matrix_plane,
            elapsed,
        }
    }

    /// Readies the fabric after a failed run: drops every message the run
    /// sent but did not receive, and its metering.
    pub fn recover(&mut self) {
        for ctx in &mut self.contexts {
            ctx.clear_in_flight();
            let _ = ctx.take_metrics();
        }
        self.recoveries += 1;
    }

    /// How many failed runs [`LoopbackCgm::recover`] cleaned up after.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

/// A virtual coarse grained machine with `p` processors.
///
/// Each call to [`CgmMachine::run`] spawns one OS thread per virtual
/// processor, wires up the all-pairs channels, hands every thread a
/// [`ProcCtx`] and waits for all of them to finish.
#[derive(Debug, Clone)]
pub struct CgmMachine {
    config: CgmConfig,
}

impl CgmMachine {
    /// Creates a machine from a configuration.
    pub fn new(config: CgmConfig) -> Self {
        CgmMachine { config }
    }

    /// Creates a machine with `procs` processors and seed `0`.
    pub fn with_procs(procs: usize) -> Self {
        CgmMachine::new(CgmConfig::new(procs))
    }

    /// The machine's configuration.
    pub fn config(&self) -> &CgmConfig {
        &self.config
    }

    /// Number of virtual processors.
    pub fn procs(&self) -> usize {
        self.config.procs
    }

    /// Runs `f` on every virtual processor concurrently and collects the
    /// results (indexed by processor id) and the metered communication.
    ///
    /// If any virtual processor panics, every peer is woken (the barrier is
    /// poisoned and blocked receives abort), all threads are joined, and a
    /// single panic naming the processor that failed — `virtual processor i
    /// panicked: <message>` — is raised on the caller.  Peers that unwound
    /// only because the dying processor aborted them are not blamed.
    pub fn run<T, R, F>(&self, f: F) -> RunOutcome<R>
    where
        T: Send + 'static,
        R: Send,
        F: Fn(&mut ProcCtx<T>) -> R + Sync,
    {
        match self.try_run(f) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fail-fast variant of [`CgmMachine::run`]: a panicking job is reported
    /// as [`CgmError::ProcessorPanicked`] (naming the virtual processor
    /// whose code failed, exactly as the panic of `run` would) instead of
    /// unwinding the caller.  All threads are joined either way, so the
    /// error is returned only after the machine has fully wound down.
    pub fn try_run<T, R, F>(&self, f: F) -> Result<RunOutcome<R>, CgmError>
    where
        T: Send + 'static,
        R: Send,
        F: Fn(&mut ProcCtx<T>) -> R + Sync,
    {
        let p = self.config.procs;
        let Fabric {
            mut contexts,
            barrier,
            abort,
        } = build_fabric::<T>(&self.config, false);

        // One processor's deposited outcome: the result plus the per-plane
        // metrics pair (data plane, word plane), or the panic payload.
        type ProcSlot<R> = Option<std::thread::Result<(R, (ProcMetrics, ProcMetrics))>>;
        let started = Instant::now();
        let f = &f;
        let mut slots: Vec<ProcSlot<R>> = (0..p).map(|_| None).collect();

        crossbeam_utils::thread::scope(|scope| {
            let handles: Vec<_> = contexts
                .drain(..)
                .map(|mut ctx| {
                    let barrier = Arc::clone(&barrier);
                    let abort = Arc::clone(&abort);
                    crate::diag::note_thread_spawn();
                    scope.spawn(move |_| {
                        let id = ctx.id();
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
                        match outcome {
                            Ok(result) => (result, ctx.into_metrics()),
                            Err(payload) => {
                                // Root-cause panic: wake peers parked at the
                                // barrier or in a receive, then unwind this
                                // thread with the original payload.
                                if !payload.is::<AbortPanic>() {
                                    abort.trigger(id);
                                    barrier.poison(id);
                                }
                                std::panic::resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();
            for (slot, handle) in slots.iter_mut().zip(handles) {
                *slot = Some(handle.join());
            }
        })
        .expect("the CGM scope itself never panics");

        let elapsed = started.elapsed();
        let mut results = Vec::with_capacity(p);
        let mut per_proc = Vec::with_capacity(p);
        let mut matrix_plane = Vec::with_capacity(p);
        let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        for (id, slot) in slots.into_iter().enumerate() {
            match slot.expect("every processor slot is filled") {
                Ok((r, (data, words))) => {
                    results.push(r);
                    per_proc.push(data);
                    matrix_plane.push(words);
                }
                Err(payload) => panics.push((id, payload)),
            }
        }
        if !panics.is_empty() {
            let (proc, message) = attribute_panics(&panics);
            return Err(CgmError::ProcessorPanicked { proc, message });
        }

        Ok(RunOutcome {
            results,
            metrics: MachineMetrics {
                per_proc,
                matrix_plane,
                elapsed,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_processor_runs() {
        let machine = CgmMachine::with_procs(1);
        let out = machine.run(|ctx: &mut ProcCtx<u64>| ctx.id() + ctx.procs());
        assert_eq!(out.into_results(), vec![1]);
    }

    #[test]
    fn results_are_indexed_by_processor() {
        let machine = CgmMachine::with_procs(8);
        let out = machine.run(|ctx: &mut ProcCtx<u64>| ctx.id() * 2);
        assert_eq!(
            out.into_results(),
            (0..8).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn per_processor_rngs_are_reproducible_and_distinct() {
        use cgp_rng::RandomSource;
        let machine = CgmMachine::new(CgmConfig::new(4).with_seed(123));
        let run1 = machine
            .run(|ctx: &mut ProcCtx<u64>| ctx.rng().next_u64())
            .into_results();
        let run2 = machine
            .run(|ctx: &mut ProcCtx<u64>| ctx.rng().next_u64())
            .into_results();
        assert_eq!(run1, run2, "same seed, same per-processor draws");
        let distinct: std::collections::HashSet<_> = run1.iter().collect();
        assert_eq!(distinct.len(), 4, "processors draw from distinct streams");
    }

    #[test]
    fn different_seeds_change_the_draws() {
        use cgp_rng::RandomSource;
        let a = CgmMachine::new(CgmConfig::new(2).with_seed(1))
            .run(|ctx: &mut ProcCtx<u64>| ctx.rng().next_u64())
            .into_results();
        let b = CgmMachine::new(CgmConfig::new(2).with_seed(2))
            .run(|ctx: &mut ProcCtx<u64>| ctx.rng().next_u64())
            .into_results();
        assert_ne!(a, b);
    }

    #[test]
    fn barrier_synchronises_supersteps() {
        // Every processor alternates "write then barrier then read"; with a
        // correct barrier the reads always observe all writes of the round.
        use parking_lot::Mutex;
        let p = 6;
        let log = Mutex::new(vec![0u32; p]);
        let machine = CgmMachine::with_procs(p);
        machine.run(|ctx: &mut ProcCtx<u64>| {
            for round in 1..=5u32 {
                log.lock()[ctx.id()] = round;
                ctx.comm_mut().barrier();
                let snapshot = log.lock().clone();
                assert!(
                    snapshot.iter().all(|&r| r >= round),
                    "processor {} observed {:?} in round {round}",
                    ctx.id(),
                    snapshot
                );
                ctx.comm_mut().barrier();
            }
        });
    }

    #[test]
    fn elapsed_time_is_recorded() {
        let machine = CgmMachine::with_procs(2);
        let out = machine
            .run(|_ctx: &mut ProcCtx<u64>| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(out.metrics().elapsed.as_millis() >= 5);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn processor_panic_propagates() {
        let machine = CgmMachine::with_procs(3);
        machine.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 1 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    #[should_panic(expected = "virtual processor 2 panicked: deliberate")]
    fn processor_panic_names_the_culprit() {
        // Satellite regression: the re-raised panic must say *which* virtual
        // processor failed, not just repeat the raw payload.
        let machine = CgmMachine::with_procs(4);
        machine.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 2 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn try_run_reports_the_panic_as_a_value() {
        let machine = CgmMachine::with_procs(3);
        let err = machine
            .try_run(|ctx: &mut ProcCtx<u64>| {
                if ctx.id() == 1 {
                    panic!("contained");
                }
                ctx.comm_mut().barrier();
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { proc, ref message } => {
                assert_eq!(proc, 1);
                assert!(message.contains("contained"));
            }
            other => panic!("unexpected error: {other}"),
        }
        // The machine is per-call state only; the next run is unaffected.
        let out = machine.try_run(|ctx: &mut ProcCtx<u64>| ctx.id()).unwrap();
        assert_eq!(out.into_results(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "virtual processor 0 panicked")]
    fn panic_wakes_peers_parked_at_the_barrier() {
        // Latent-deadlock regression: with std::sync::Barrier a panic while
        // peers were parked in wait() slept forever.  The poisonable barrier
        // must wake them, and only the root cause may be blamed.
        let machine = CgmMachine::with_procs(3);
        machine.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                panic!("root cause");
            }
            ctx.comm_mut().barrier();
        });
    }

    #[test]
    #[should_panic(expected = "virtual processor 0 panicked")]
    fn panic_wakes_peers_blocked_in_recv() {
        let machine = CgmMachine::with_procs(3);
        machine.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                panic!("root cause");
            }
            // Processor 0 never sends; without the abort flag this receive
            // would wait forever on the open channel.
            let _ = ctx.comm_mut().recv(0, 0);
        });
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = CgmConfig::new(0);
    }

    #[test]
    fn try_new_reports_zero_processors_as_a_value() {
        assert_eq!(
            CgmConfig::try_new(0).unwrap_err(),
            crate::CgmError::NoProcessors
        );
        assert_eq!(CgmConfig::try_new(3).unwrap(), CgmConfig::new(3));
    }

    #[test]
    fn superstep_counter_advances() {
        let machine = CgmMachine::with_procs(2);
        let out = machine.run(|ctx: &mut ProcCtx<u64>| {
            for _ in 0..3 {
                ctx.superstep();
                ctx.comm_mut().barrier();
            }
        });
        for m in &out.metrics().per_proc {
            assert_eq!(m.supersteps, 3);
            assert_eq!(m.barriers, 3);
        }
    }

    #[test]
    fn many_virtual_processors_on_few_cores() {
        // The simulator must handle p far larger than the physical core count
        // (the paper goes up to 48; we go higher to be sure).
        let p = 64;
        let machine = CgmMachine::with_procs(p);
        let out = machine.run(move |ctx: &mut ProcCtx<u64>| {
            let outgoing: Vec<Vec<u64>> = (0..p).map(|j| vec![(ctx.id() + j) as u64]).collect();
            let incoming = ctx.comm_mut().all_to_all(outgoing, 0);
            incoming.iter().map(|v| v[0]).sum::<u64>()
        });
        let expected: u64 = (0..p as u64).map(|i| i + 3).sum();
        assert_eq!(out.results()[3], expected);
    }
}
