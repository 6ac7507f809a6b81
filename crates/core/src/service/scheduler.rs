//! The executor core of the [`PermutationService`](crate::PermutationService):
//! `t` threads, each running whole jobs on its own.
//!
//! Each executor runs `executor_loop`.  Its cycle:
//!
//! 1. **Pull** the next job from the fair-share admission buffer (Deadline
//!    lanes first, earliest expiry first; then High lanes round-robin; then
//!    weighted deficit round-robin over the Normal lanes — see the queue
//!    module).  A deadline job whose budget expired in the queue is shed
//!    instead.
//! 2. **Run** it on this thread: the executor plays the job's `p` virtual
//!    processors phase by phase on a runner of its own with `t = 1` (see
//!    the `parallel` module docs), with its own warm scratch.  The output
//!    is byte-identical to a session's or a one-shot call's, which play the
//!    same program on `min(p, cores)` threads: every random stream of a job
//!    is derived from the service seed per call, and each virtual processor
//!    keeps its own.
//! 3. **Complete** the ticket and bill the metrics.
//! 4. **Park** when admission is empty, or exit once the service has shut
//!    down and admission is drained.
//!
//! In the paper's model the `p` processors of a job are virtual, so
//! nothing requires `p` threads.  Handing a phase to helper threads costs a
//! wake and a join, which dominates the small jobs a service sees; on one
//! thread those costs vanish, and `t` executors keep `t` cores busy with
//! independent jobs.  A caller who needs the latency of one large job on
//! several cores uses a [`crate::PermutationSession`].
//!
//! A panic inside a virtual processor fails only its own ticket
//! ([`crate::ServiceError::JobFailed`] naming the processor); the executor
//! clears its fabric and serves the next job.
//!
//! ```
//! use cgp_core::{PermuteOptions, Permuter, Priority};
//!
//! let permuter = Permuter::new(2).seed(41);
//! let service = permuter.service_sized::<u64>(2, 16);
//! let handle = service.handle();
//! // A High-priority job jumps every Normal backlog.
//! let urgent = handle
//!     .submit_with((0..64u64).collect(), PermuteOptions::default(), Priority::High)
//!     .unwrap();
//! let routine: Vec<_> = (0..4)
//!     .map(|_| handle.submit((0..64u64).collect()).unwrap())
//!     .collect();
//! let reference = permuter.permute((0..64u64).collect()).0;
//! assert_eq!(urgent.wait().unwrap().0, reference);
//! for ticket in routine {
//!     // Whichever executor serves it, the permutation is the same.
//!     assert_eq!(ticket.wait().unwrap().0, reference);
//! }
//! let metrics = service.shutdown();
//! assert_eq!(metrics.jobs_served, 5);
//! assert_eq!(metrics.jobs_served, metrics.jobs_total());
//! ```

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use super::metrics::MetricsInner;
use super::queue::{Admission, Job};
use super::ServiceError;
use crate::config::PermuteOptions;
use crate::parallel::{panic_text, try_permute_vec_on, PermuteScratch, Runner};
use cgp_cgm::CgmConfig;

/// Everything the handles and executors share.
pub(crate) struct SchedShared<T> {
    pub(crate) admission: Admission<T>,
    pub(crate) metrics: Mutex<MetricsInner>,
    /// The service-wide options (backend, …) jobs submitted without
    /// explicit options run with.
    pub(crate) default_options: PermuteOptions,
    /// The machine every job runs on: virtual processors and seed.
    pub(crate) machine: CgmConfig,
    pub(crate) next_job: AtomicU64,
    pub(crate) started_at: Instant,
}

pub(crate) fn lock_metrics<T>(shared: &SchedShared<T>) -> MutexGuard<'_, MetricsInner> {
    shared.metrics.lock().unwrap_or_else(|e| e.into_inner())
}

/// One executor: pulls jobs from admission one at a time and runs each on
/// this thread, until the service shuts down and admission is drained.
pub(crate) fn executor_loop<T: Send + 'static>(executor: usize, shared: Arc<SchedShared<T>>) {
    let mut runner = Runner::serial(shared.machine);
    let mut scratch = PermuteScratch::new();
    let mut st = shared.admission.lock();
    loop {
        // Deadline jobs whose budget expired while queued come back in
        // `shed`.
        let mut shed = Vec::new();
        let next = shared.admission.refill_locked(&mut st, 1, &mut shed).pop();
        if next.is_none() && shed.is_empty() {
            if !st.is_open() {
                return;
            }
            st = shared.admission.wait_work(st);
            continue;
        }
        drop(st);
        // Resolve tickets outside the admission lock: completing a ticket
        // may run a user `on_complete` callback, which must never execute
        // under scheduler locks.
        if !shed.is_empty() {
            let mut m = lock_metrics(&shared);
            for job in &shed {
                m.record_shed(job.tenant());
            }
            drop(m);
            for job in shed {
                job.reply.complete(Err(ServiceError::DeadlineExceeded));
            }
        }
        if let Some(job) = next {
            serve(executor, &mut runner, &mut scratch, &shared, *job);
            // The completed ticket woke a thread: the client, or on the
            // wire the connection's writer.  When every core runs an
            // executor, that thread would otherwise wait for the end of
            // an executor's time slice before it could hand the result on.
            // On a 2-vCPU host this yield raised `fleet` jobs/s in 7 of 8
            // paired runs and `wire` jobs/s in 5 of 6 (the slowest `wire`
            // run read 1226 jobs/s with it, 877 without); `exp_service`
            // rows did not move.
            std::thread::yield_now();
        }
        st = shared.admission.lock();
    }
}

/// Runs one job on this executor's thread and resolves its ticket.
fn serve<T: Send + 'static>(
    executor: usize,
    runner: &mut Runner<T>,
    scratch: &mut PermuteScratch<T>,
    shared: &SchedShared<T>,
    mut job: Job<T>,
) {
    let started = Instant::now();
    // Run-time shed: the deadline may have expired between the pull (which
    // checked it) and this point.
    if job.deadline.is_some_and(|deadline| started > deadline) {
        lock_metrics(shared).record_shed(job.tenant());
        job.reply.complete(Err(ServiceError::DeadlineExceeded));
        return;
    }
    let wait = job.enqueued_at.elapsed();
    // A panic in a virtual processor comes back as a clean Err value; the
    // catch_unwind is defense in depth against a panic outside them —
    // admission-time validation makes the known ones unreachable, but no
    // engine panic may take an executor out of rotation.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_permute_vec_on(runner, &mut job.data, &job.options, scratch)
    }));
    let run = started.elapsed();
    {
        let mut m = lock_metrics(shared);
        m.record_job(job.tenant(), wait, run, matches!(result, Ok(Ok(_))));
        m.record_executor(executor, run, runner.recoveries());
    }
    let outcome = match result {
        Ok(Ok(report)) => Ok((std::mem::take(&mut job.data), report)),
        Ok(Err(e)) => Err(ServiceError::JobFailed(e)),
        Err(payload) => Err(ServiceError::InvalidJob(format!(
            "the job was rejected by the engine: {}",
            panic_text(payload.as_ref())
        ))),
    };
    // A dropped ticket just abandons its result; keep serving.
    job.reply.complete(outcome);
}
