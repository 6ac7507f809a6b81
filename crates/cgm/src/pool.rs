//! The resident coarse grained machine: a worker pool that keeps the `p`
//! virtual processors alive across jobs.
//!
//! [`crate::CgmMachine::run`] pays the full startup bill on every call: `p` OS
//! thread spawns, `p` channel endpoints, `p²` sender handles and a fresh
//! barrier.  That is fine for a single permutation, but a service that
//! permutes on every request pays it over and over, dwarfing the `O(m)`
//! per-processor work bound for small and medium blocks.  [`ResidentCgm`]
//! is the amortized alternative, mirroring how SSCRAP (the paper's own
//! runtime) and modern PGAS runtimes keep a resident execution context
//! alive across supersteps instead of re-creating it per operation.
//!
//! # Parking / wakeup protocol
//!
//! * `ResidentCgm::new` builds the channel fabric **once** and spawns one
//!   worker thread per virtual processor.  Each worker owns its
//!   [`ProcCtx`] for the lifetime of the pool — so its private random
//!   stream (`ctx.rng()`) advances across jobs instead of restarting —
//!   and parks in a blocking receive on its private command channel.
//! * [`ResidentCgm::run`] wakes all workers with one type-erased job
//!   closure (an `Arc`, shared, no copy per worker).  Every worker runs the
//!   job against its resident context, then reports `(result, per-job
//!   metrics)` on a shared report channel and parks again.  The metrics
//!   counters are taken-and-reset per job, so each [`RunOutcome`] meters
//!   exactly one job, as with the one-shot machine.
//! * The caller blocks until all `p` reports are in — so a job borrows
//!   nothing from the pool beyond the call, and `run` needs only `&mut
//!   self`.
//! * Jobs are **generation-fenced**: every envelope is stamped with its
//!   job's generation, and receives drop envelopes from other jobs.  A
//!   job that legally completes without consuming everything sent to it
//!   (the one-shot machine drops such envelopes with its fabric) therefore
//!   cannot leak messages into the next job.  Generations are allocated by
//!   the coordinator and carried on each command, never counted locally
//!   on the workers.
//!
//! # Panics do not poison the pool
//!
//! A panic inside a job is caught on the worker, the machine-wide abort
//! flag is raised and the barrier poisoned (waking peers parked in
//! `barrier()`/`recv`), and the failure is reported to the caller naming
//! the virtual processor that failed — [`ResidentCgm::try_run`] returns it
//! as [`CgmError::ProcessorPanicked`], [`ResidentCgm::run`] panics with the
//! same message.  Before either returns, the pool runs a recovery round:
//! every worker drains its in-flight envelopes and mailboxes, then the
//! barrier and abort flag are re-armed — so the *next* job starts on a
//! clean fabric.  Workers themselves never die with the job.
//!
//! # Shutdown
//!
//! [`ResidentCgm::shutdown`] (or dropping the pool) sends every worker a
//! shutdown command and joins the threads.  If a worker thread itself died
//! abnormally, the panic is propagated to the caller (except while already
//! unwinding).
//!
//! ```
//! use cgp_cgm::{CgmConfig, ResidentCgm};
//!
//! let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(4).with_seed(7));
//! for _ in 0..3 {
//!     // No thread spawn, no channel construction: workers are woken.
//!     let out = pool.run(|ctx| ctx.id() * 10);
//!     assert_eq!(out.results(), &[0, 10, 20, 30]);
//! }
//! pool.shutdown();
//! ```

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::error::CgmError;
use crate::machine::{
    attribute_panics, build_fabric, raise_attributed_panic, CgmConfig, CgmExecutor, Fabric,
    ProcCtx, RunOutcome,
};
use crate::metrics::{MachineMetrics, ProcMetrics};
use crate::sync::{AbortFlag, AbortPanic, SuperstepBarrier};

/// A type-erased per-processor job: the pool wraps the caller's typed
/// closure once and shares it with every worker through an `Arc`.
type JobFn<T> = dyn Fn(&mut ProcCtx<T>) -> Box<dyn Any + Send> + Send + Sync;

/// What one worker produced for one job: the type-erased result plus this
/// job's per-plane metrics (data plane, word plane) on success, the panic
/// payload on failure.
type WorkerOutcome = Result<(Box<dyn Any + Send>, (ProcMetrics, ProcMetrics)), Box<dyn Any + Send>>;

/// Per-job rendezvous between the workers and the coordinator.  Every
/// worker deposits its outcome into its own slot; only the **last** one to
/// finish signals `done` — so completing a job costs the coordinator a
/// single wakeup instead of `p`, which on few-core hosts is a measurable
/// share of the dispatch overhead the pool exists to amortize.
struct JobState {
    slots: Vec<Mutex<Option<WorkerOutcome>>>,
    remaining: AtomicUsize,
    done: Sender<()>,
}

enum Command<T> {
    /// Run this job on the resident context under the given generation
    /// stamp, deposit the outcome, park.
    Job(Arc<JobFn<T>>, Arc<JobState>, u64),
    /// Recovery round after a panicked job: drain in-flight messages and
    /// acknowledge on the carried channel.
    Reset(Sender<usize>),
    /// Leave the worker loop (pool shutdown).
    Shutdown,
}

/// A coarse grained machine whose `p` virtual processors are **resident**:
/// spawned once, wired up once, parked between jobs.
///
/// Accepts repeated [`run`](ResidentCgm::run) submissions with the same
/// [`ProcCtx`] semantics as [`crate::CgmMachine::run`], except that each
/// processor's private random stream persists across jobs (it advances
/// instead of restarting — derived streams via `ctx.seeds()` are
/// unaffected).  See the module docs for the protocol.
pub struct ResidentCgm<T: Send + 'static> {
    config: CgmConfig,
    commands: Vec<Sender<Command<T>>>,
    /// Job-completion signal: exactly one `()` arrives per submitted job,
    /// sent by whichever worker finishes last.
    done_rx: Receiver<()>,
    done_tx: Sender<()>,
    workers: Vec<Option<JoinHandle<()>>>,
    barrier: Arc<SuperstepBarrier>,
    abort: Arc<AbortFlag>,
    recoveries: u64,
    /// Next generation stamp to hand out.  Generations are allocated here,
    /// by the coordinator, and *set* (not counted) by the workers.
    next_generation: u64,
}

impl<T: Send + 'static> ResidentCgm<T> {
    /// Spawns the resident workers for `config`.
    ///
    /// # Panics
    /// Panics if `config.procs == 0` (only reachable by building the config
    /// literal by hand); [`ResidentCgm::try_new`] reports it as a value.
    pub fn new(config: CgmConfig) -> Self {
        ResidentCgm::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: spawns the workers, or returns
    /// [`CgmError::NoProcessors`] for an empty machine /
    /// [`CgmError::WorkerSpawnFailed`] when the OS refuses a thread (any
    /// workers spawned before the failure are shut down and joined first).
    pub fn try_new(config: CgmConfig) -> Result<Self, CgmError> {
        if config.procs == 0 {
            return Err(CgmError::NoProcessors);
        }
        let Fabric {
            contexts,
            barrier,
            abort,
        } = build_fabric::<T>(&config, false);
        let (done_tx, done_rx) = unbounded();
        let mut commands = Vec::with_capacity(config.procs);
        let mut workers = Vec::with_capacity(config.procs);
        for ctx in contexts {
            let proc = ctx.id();
            let (tx, rx) = unbounded();
            let barrier = Arc::clone(&barrier);
            let abort = Arc::clone(&abort);
            crate::diag::note_thread_spawn();
            match std::thread::Builder::new()
                .name(format!("cgm-worker-{proc}"))
                .spawn(move || worker_loop(ctx, rx, barrier, abort))
            {
                Ok(handle) => {
                    commands.push(tx);
                    workers.push(Some(handle));
                }
                Err(e) => {
                    // Wind the partial pool back down: closing the command
                    // channels ends the already-running worker loops.
                    drop(commands);
                    for handle in workers.into_iter().flatten() {
                        let _ = handle.join();
                    }
                    return Err(CgmError::WorkerSpawnFailed {
                        proc,
                        message: e.to_string(),
                    });
                }
            }
        }
        Ok(ResidentCgm {
            config,
            commands,
            done_rx,
            done_tx,
            workers,
            barrier,
            abort,
            recoveries: 0,
            // The fabric's contexts start at generation 0; the first job
            // moves them to 1.
            next_generation: 1,
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &CgmConfig {
        &self.config
    }

    /// Number of virtual processors.
    pub fn procs(&self) -> usize {
        self.config.procs
    }

    /// Runs `f` on every resident virtual processor and collects the results
    /// (indexed by processor id) and this job's metered communication.
    ///
    /// Same contract as [`crate::CgmMachine::run`] — including the panic
    /// naming the failed processor — but without spawning anything.  The
    /// pool stays usable after a panicked job.
    pub fn run<R, F>(&mut self, f: F) -> RunOutcome<R>
    where
        R: Send + 'static,
        F: Fn(&mut ProcCtx<T>) -> R + Send + Sync + 'static,
    {
        match self.try_run(f) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fail-fast variant of [`ResidentCgm::run`]: a panicking job is
    /// reported as [`CgmError::ProcessorPanicked`] (naming the virtual
    /// processor whose code failed) instead of unwinding the caller.  The
    /// fabric is recovered before this returns, so subsequent jobs are not
    /// poisoned.
    ///
    /// # Errors
    /// [`CgmError::ProcessorPanicked`] is returned only after every worker
    /// has left the job.  [`CgmError::PoolShutDown`] is not: it comes back
    /// after a partial command send or a failed completion receive, when
    /// workers that did receive the job may still be running it — anything
    /// the job closure shares must stay alive (or be leaked) on that path.
    pub fn try_run<R, F>(&mut self, f: F) -> Result<RunOutcome<R>, CgmError>
    where
        R: Send + 'static,
        F: Fn(&mut ProcCtx<T>) -> R + Send + Sync + 'static,
    {
        let p = self.config.procs;
        let job: Arc<JobFn<T>> = Arc::new(move |ctx| Box::new(f(ctx)) as Box<dyn Any + Send>);
        let state = Arc::new(JobState {
            slots: (0..p).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(p),
            done: self.done_tx.clone(),
        });
        let generation = self.next_generation;
        self.next_generation += 1;
        let started = Instant::now();
        for tx in &self.commands {
            tx.send(Command::Job(
                Arc::clone(&job),
                Arc::clone(&state),
                generation,
            ))
            .map_err(|_| CgmError::PoolShutDown)?;
        }
        drop(job);

        // One wakeup per job: the last worker to deposit its outcome sends
        // the single completion signal.
        self.done_rx.recv().map_err(|_| CgmError::PoolShutDown)?;
        let elapsed = started.elapsed();

        let mut results = Vec::with_capacity(p);
        let mut per_proc = Vec::with_capacity(p);
        let mut matrix_plane = Vec::with_capacity(p);
        let mut panics: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
        for (id, slot) in state.slots.iter().enumerate() {
            let outcome = slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("every worker deposited exactly one outcome");
            match outcome {
                Ok((value, (data, words))) => {
                    results.push(
                        *value
                            .downcast::<R>()
                            .expect("a job closure returns the type it was submitted with"),
                    );
                    per_proc.push(data);
                    matrix_plane.push(words);
                }
                Err(payload) => panics.push((id, payload)),
            }
        }

        if !panics.is_empty() {
            self.recover()?;
            let (proc, message) = attribute_panics(&panics);
            return Err(CgmError::ProcessorPanicked { proc, message });
        }

        Ok(RunOutcome::from_parts(
            results,
            MachineMetrics {
                per_proc,
                matrix_plane,
                elapsed,
            },
        ))
    }

    /// Recovery round after a panicked job: every worker clears the dead
    /// job's in-flight messages, then the barrier and abort flag are
    /// re-armed.  Sound because all workers have deposited their outcome
    /// (none is inside the job any more) and they park between commands.
    fn recover(&mut self) -> Result<(), CgmError> {
        let (ack_tx, ack_rx) = unbounded();
        for tx in &self.commands {
            tx.send(Command::Reset(ack_tx.clone()))
                .map_err(|_| CgmError::PoolShutDown)?;
        }
        drop(ack_tx);
        for _ in 0..self.config.procs {
            ack_rx.recv().map_err(|_| CgmError::PoolShutDown)?;
        }
        self.barrier.reset();
        self.abort.clear();
        self.recoveries += 1;
        Ok(())
    }

    /// How many recovery rounds this pool has run — one per panicked job it
    /// contained and survived.  A scheduler multiplexing tenants over a
    /// fleet of pools can surface this as a per-machine health metric.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Sends every worker a shutdown command and joins the threads,
    /// collecting abnormal worker-thread deaths.
    fn join_workers(&mut self) -> Vec<(usize, Box<dyn Any + Send>)> {
        for tx in &self.commands {
            // A worker that already died has a closed command channel;
            // nothing left to tell it.
            let _ = tx.send(Command::Shutdown);
        }
        let mut panics = Vec::new();
        for (id, slot) in self.workers.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                if let Err(payload) = handle.join() {
                    panics.push((id, payload));
                }
            }
        }
        panics
    }

    /// Shuts the pool down: parks no more, joins every worker thread.
    ///
    /// Workers never die with a panicking *job* (those are caught and
    /// reported per run), but if a worker thread itself terminated
    /// abnormally the panic is propagated here, naming the processor.
    pub fn shutdown(mut self) {
        let panics = self.join_workers();
        if !panics.is_empty() {
            raise_attributed_panic(panics);
        }
    }
}

impl<T: Send + 'static> Drop for ResidentCgm<T> {
    fn drop(&mut self) {
        let panics = self.join_workers();
        // Propagate abnormal worker deaths unless we are already unwinding
        // (a double panic would abort the process).
        if !panics.is_empty() && !std::thread::panicking() {
            raise_attributed_panic(panics);
        }
    }
}

impl<T: Send + 'static> crate::machine::sealed::Sealed for ResidentCgm<T> {}

impl<T: Send + 'static> CgmExecutor<T> for ResidentCgm<T> {
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

/// The body of one resident worker thread: park on the command channel,
/// run jobs against the resident context, deposit the outcome, repeat.
fn worker_loop<T: Send>(
    mut ctx: ProcCtx<T>,
    commands: Receiver<Command<T>>,
    barrier: Arc<SuperstepBarrier>,
    abort: Arc<AbortFlag>,
) {
    let id = ctx.id();
    while let Ok(command) = commands.recv() {
        match command {
            Command::Job(job, state, generation) => {
                // New job generation on both planes: envelopes a previous
                // job sent but never received must not be delivered into
                // this one (the one-shot machine gets this for free by
                // dropping its fabric; the resident fabric must fence
                // explicitly).
                ctx.begin_job(generation);
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut ctx)));
                // Release our share of the job closure *before* signalling,
                // so the caller can reclaim `Arc`ed state (try_unwrap) as
                // soon as the job completes.
                drop(job);
                let outcome = match outcome {
                    Ok(value) => Ok((value, ctx.take_metrics())),
                    Err(payload) => {
                        if !payload.is::<AbortPanic>() {
                            // Root cause: wake peers parked at the barrier
                            // or in a blocked receive.
                            abort.trigger(id);
                            barrier.poison(id);
                        }
                        // The dead job's counters are meaningless; reset
                        // them so the next job meters cleanly.
                        let _ = ctx.take_metrics();
                        Err(payload)
                    }
                };
                *state.slots[id].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                // The last worker to finish sends the one completion signal
                // (the slot mutexes synchronize the deposits with the
                // coordinator's reads).
                if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1
                    && state.done.send(()).is_err()
                {
                    break; // pool dropped mid-job
                }
            }
            Command::Reset(ack) => {
                ctx.clear_in_flight();
                if ack.send(id).is_err() {
                    break;
                }
            }
            Command::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_results_match_the_one_shot_machine() {
        let config = CgmConfig::new(4).with_seed(11);
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let job = |ctx: &mut ProcCtx<u64>| ctx.id() * 3 + ctx.procs();
        let resident = pool.run(job).into_results();
        let one_shot = crate::CgmMachine::new(config).run(job).into_results();
        assert_eq!(resident, one_shot);
        pool.shutdown();
    }

    #[test]
    fn repeated_jobs_reuse_the_fabric() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(3));
        for round in 0..10u64 {
            let out = pool.run(move |ctx| {
                let id = ctx.id() as u64;
                let next = (ctx.id() + 1) % ctx.procs();
                let prev = (ctx.id() + ctx.procs() - 1) % ctx.procs();
                ctx.comm_mut().send(next, round, vec![id + round]);
                ctx.comm_mut().recv(prev, round)[0]
            });
            let results = out.into_results();
            assert_eq!(results[0], 2 + round);
            assert_eq!(results[1], round);
        }
    }

    #[test]
    fn per_job_metrics_are_isolated() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(2));
        let job = |ctx: &mut ProcCtx<u64>| {
            let other = 1 - ctx.id();
            ctx.comm_mut().send(other, 0, vec![0u64; 5]);
            let _ = ctx.comm_mut().recv(other, 0);
            ctx.comm_mut().barrier();
        };
        for _ in 0..3 {
            let out = pool.run(job);
            for m in &out.metrics().per_proc {
                assert_eq!(m.words_sent, 5, "metrics must not accumulate across jobs");
                assert_eq!(m.barriers, 1);
            }
        }
    }

    #[test]
    fn rng_streams_advance_across_jobs() {
        use cgp_rng::RandomSource;
        let config = CgmConfig::new(2).with_seed(5);
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let draw = |ctx: &mut ProcCtx<u64>| ctx.rng().next_u64();
        let first = pool.run(draw).into_results();
        let second = pool.run(draw).into_results();
        assert_ne!(
            first, second,
            "resident contexts persist, so streams advance"
        );
        // The first job draws exactly what a one-shot run draws.
        let one_shot = crate::CgmMachine::new(config).run(draw).into_results();
        assert_eq!(first, one_shot);
    }

    #[test]
    fn abort_wakes_workers_parked_in_a_blocked_receive() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(3));
        let err = pool
            .try_run(|ctx: &mut ProcCtx<u64>| {
                if ctx.id() == 2 {
                    panic!("receive abort");
                }
                // Parked forever unless the abort wakes us: nobody sends this.
                let _ = ctx.comm_mut().recv(2, 77);
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { proc, ref message } => {
                assert_eq!(proc, 2, "the root cause is blamed, not a woken peer");
                assert!(message.contains("receive abort"));
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(pool.run(|ctx| ctx.id()).into_results(), vec![0, 1, 2]);
    }

    #[test]
    fn try_run_reports_the_failed_processor_and_recovers() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(4));
        let err = pool
            .try_run(|ctx: &mut ProcCtx<u64>| {
                if ctx.id() == 2 {
                    panic!("boom in the job");
                }
                // Peers park at the barrier; the poison must wake them.
                ctx.comm_mut().barrier();
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { proc, ref message } => {
                assert_eq!(proc, 2, "the root cause is blamed, not a woken peer");
                assert!(message.contains("boom in the job"));
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(pool.recoveries(), 1, "one recovery round was run");
        // The pool is not poisoned: the next job runs on a clean fabric.
        let out = pool.run(|ctx: &mut ProcCtx<u64>| {
            let next = (ctx.id() + 1) % ctx.procs();
            let prev = (ctx.id() + ctx.procs() - 1) % ctx.procs();
            ctx.comm_mut().send(next, 9, vec![7u64]);
            ctx.comm_mut().barrier();
            ctx.comm_mut().recv(prev, 9)[0]
        });
        assert_eq!(out.into_results(), vec![7; 4]);
    }

    #[test]
    fn unconsumed_envelopes_of_a_clean_job_do_not_leak_into_the_next() {
        // A job may legally complete without receiving everything that was
        // sent to it; the one-shot machine drops such envelopes with its
        // fabric, and the resident pool must match that contract (the
        // generation fence drops them lazily on the next receive).
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(2));
        pool.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                ctx.comm_mut().send(1, 0, vec![111]);
            }
        });
        let out = pool.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                ctx.comm_mut().send(1, 0, vec![222]);
                vec![]
            } else {
                ctx.comm_mut().recv(0, 0)
            }
        });
        assert_eq!(
            out.results()[1],
            vec![222],
            "job 2 must receive its own envelope, not job 1's leftover"
        );
        // Unconsumed self-sends are fenced too.
        pool.run(|ctx: &mut ProcCtx<u64>| {
            let id = ctx.id();
            ctx.comm_mut().send(id, 5, vec![1]);
        });
        let err = pool
            .try_run(|ctx: &mut ProcCtx<u64>| {
                let id = ctx.id();
                let _ = ctx.comm_mut().recv(id, 5);
            })
            .unwrap_err();
        assert!(matches!(err, CgmError::ProcessorPanicked { .. }));
    }

    #[test]
    fn panicked_job_messages_do_not_leak_into_the_next_job() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(2));
        // Processor 0 sends to 1 and then panics; processor 1 panics before
        // receiving.  The envelope must not survive into the next job.
        let err = pool
            .try_run(|ctx: &mut ProcCtx<u64>| {
                if ctx.id() == 0 {
                    ctx.comm_mut().send(1, 0, vec![99u64]);
                }
                panic!("both die");
            })
            .unwrap_err();
        assert!(matches!(err, CgmError::ProcessorPanicked { .. }));
        let out = pool.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                ctx.comm_mut().send(1, 1, vec![1u64]);
                vec![]
            } else {
                ctx.comm_mut().recv(0, 1)
            }
        });
        assert_eq!(out.results()[1], vec![1], "stale envelope 99 was drained");
    }

    #[test]
    #[should_panic(expected = "virtual processor 1 panicked: resident boom")]
    fn run_panics_with_the_processor_id() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(3));
        pool.run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 1 {
                panic!("resident boom");
            }
        });
    }

    #[test]
    fn zero_processors_is_an_error_value() {
        let config = CgmConfig { procs: 0, seed: 0 };
        assert!(matches!(
            ResidentCgm::<u64>::try_new(config),
            Err(CgmError::NoProcessors)
        ));
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(8));
        let _ = pool.run(|ctx: &mut ProcCtx<u64>| ctx.id());
        pool.shutdown();
        // Dropping without an explicit shutdown also joins.
        let pool2: ResidentCgm<u64> = ResidentCgm::new(CgmConfig::new(2));
        drop(pool2);
    }
}
