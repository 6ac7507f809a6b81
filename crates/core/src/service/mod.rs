//! A multi-tenant permutation service: many concurrent clients, one shared
//! set of executor threads, fair admission in between.
//!
//! A [`crate::PermutationSession`] serves one caller: it plays each job's
//! `p` virtual processors on `min(p, cores)` threads, the caller's and its
//! own parked helpers.  A [`PermutationService`] is the server-shaped
//! counterpart: it
//! multiplexes many independent jobs over `t` **executors**
//! ([`ServiceConfig::executors`]), and each executor runs a whole job on
//! its own thread.
//!
//! The scheduler has two moving parts:
//!
//! * **Fair-share admission** (`queue`): a bounded buffer
//!   ([`ServiceConfig::queue_depth`]) where every tenant owns three lanes —
//!   [`Priority::Deadline`], [`Priority::High`] and [`Priority::Normal`] —
//!   and a deficit-round-robin weight ([`PermutationService::handle_weighted`]).
//!   A per-tenant quota ([`ServiceConfig::tenant_quota`]) caps how much of
//!   the buffer one tenant can occupy, so a flooding tenant backpressures
//!   **itself** ([`ServiceError::QueueFull`]) while its neighbours keep
//!   submitting.
//! * **Serial executors** ([`scheduler`]): each executor pulls the next job
//!   from admission and replays its `p` virtual processors phase by phase
//!   on one thread.  In the paper's model the processors are virtual: a job
//!   is defined by its `p` blocks and its per-processor random streams,
//!   not by `p` threads, so the replay produces the byte-identical
//!   permutation — without the helper wakes and joins that dominate the
//!   small jobs a service sees.
//!
//! Clients hold cheap, cloneable [`ServiceHandle`]s and either
//! [`ServiceHandle::submit`] (async, returns a [`JobTicket`] backed by the
//! waker-based completion core: await it, poll it with
//! [`JobTicket::try_wait`] / [`JobTicket::is_done`], bound it with
//! [`JobTicket::wait_timeout`], arm a push-style callback with
//! [`JobTicket::on_complete`], or multiplex many tickets through one
//! blocking [`CompletionSet::wait_any`]) or [`ServiceHandle::permute`]
//! (blocking submit-and-wait).  Latency-bounded work rides the
//! [`Priority::Deadline`] lane: deadline jobs drain before everything
//! else, earliest expiry first, and a job whose deadline passes before an
//! executor picks it up is **shed** —
//! [`ServiceError::DeadlineExceeded`] on its ticket, a per-tenant
//! [`TenantMetrics::deadline_shed`] count in the metrics — instead of
//! wasting an executor on an answer nobody is still waiting for.  Malformed
//! per-job options are rejected at admission
//! ([`ServiceError::InvalidJob`], payload handed back), so they never
//! occupy an executor.  [`ServiceMetrics`] meters the whole operation: jobs
//! served and failed, queue-wait vs run time (aggregate and per tenant),
//! admission-lane depths, and per-executor utilization.
//!
//! # Fault isolation
//!
//! A job that panics inside a virtual processor is contained to its own
//! ticket: [`JobTicket::wait`] returns
//! [`ServiceError::JobFailed`]`(`[`CgmError::ProcessorPanicked`]`)` naming
//! the processor, the executor clears its loopback fabric, and it serves the
//! next job — one bad tenant cannot poison the service for the others.
//! (The failed job's items are leaked: they were already spread over the
//! engine's two buffers.)
//!
//! # Determinism
//!
//! Every executor runs the same configuration (seed, processor count), and
//! every random stream of Algorithm 1 is derived from that seed per call
//! and per virtual processor — so neither the executor that serves a job
//! nor the serial replay changes the result: a service permutation of `n`
//! items equals the one-shot [`crate::Permuter::permute`] of the same
//! permuter, exactly as sessions do.
//!
//! # One-shot vs. session vs. service
//!
//! | shape | startup | concurrency | use when |
//! |---|---|---|---|
//! | [`crate::Permuter::permute`] | per call | caller-side | a handful of calls |
//! | [`crate::Permuter::session`] | once | one caller | a steady single-caller loop |
//! | [`crate::Permuter::service`] | once | many callers | concurrent clients share the executors |
//!
//! ```
//! use cgp_core::Permuter;
//!
//! let permuter = Permuter::new(2).seed(7);
//! let service = permuter.service::<u64>();
//! let handle = service.handle();
//! // Submit four jobs; tickets resolve in any order.
//! let tickets: Vec<_> = (0..4)
//!     .map(|_| handle.submit((0..100u64).collect()).unwrap())
//!     .collect();
//! let reference = permuter.permute((0..100u64).collect()).0;
//! for ticket in tickets {
//!     let (out, report) = ticket.wait().unwrap();
//!     assert_eq!(out, reference); // same seed ⇒ same permutation as one-shot
//!     assert!(report.max_exchange_volume() <= 2 * 50);
//! }
//! let metrics = service.shutdown();
//! assert_eq!(metrics.jobs_served, 4);
//! ```

pub(crate) mod completion;
mod metrics;
mod queue;
pub mod scheduler;

pub use completion::{CompletionSet, JobTicket};
pub use metrics::{LaneDepth, MachineUtilization, ServiceMetrics, TenantMetrics};

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{EngineConfig, PermuteOptions};
use crate::parallel::{panic_text, PermutationReport};
use cgp_cgm::CgmError;

use metrics::MetricsInner;
use queue::{Admission, Job};
use scheduler::{executor_loop, SchedShared};

/// Sizing of a [`PermutationService`]: how many executors to run, how many
/// virtual processors each job has, and how deep and how fair the
/// admission buffer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of executor threads, each running one whole job at a time.
    /// Defaults to the host's available parallelism.
    pub executors: usize,
    /// The engine-selection core shared with every other front door of the
    /// crate (see [`EngineConfig`]): virtual processors per job and the
    /// service-wide master seed every per-call random stream derives from
    /// (which is what makes the service produce the same permutation
    /// whichever executor serves a job).
    pub engine: EngineConfig,
    /// Capacity of the bounded admission buffer (jobs accepted but not yet
    /// taken by an executor).  `try_submit` reports
    /// [`ServiceError::QueueFull`] when it is reached; blocking `submit`
    /// parks instead.  Values below 1 are treated as 1 (a zero-depth
    /// buffer could never admit anything).
    pub queue_depth: usize,
    /// Most admission slots one tenant may occupy at a time.  Exceeding it
    /// is the same backpressure as a full buffer — but only for that
    /// tenant.  Defaults to `usize::MAX` (no quota).
    pub tenant_quota: usize,
}

impl ServiceConfig {
    /// A service sized for this host: `procs` virtual processors per job,
    /// one executor per host thread, and an admission buffer twice the
    /// executor count.
    pub fn new(procs: usize) -> Self {
        ServiceConfig::from_engine(EngineConfig::new(procs))
    }

    /// A service whose jobs all run `engine` — the bridge from the shared
    /// [`EngineConfig`] front door (sizing as in [`ServiceConfig::new`]).
    pub fn from_engine(engine: EngineConfig) -> Self {
        let executors = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        ServiceConfig {
            executors,
            engine,
            queue_depth: 2 * executors,
            tenant_quota: usize::MAX,
        }
    }

    /// Sets the number of executors.
    pub fn executors(mut self, executors: usize) -> Self {
        self.executors = executors;
        self
    }

    /// Sets the admission-buffer depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Caps the admission slots any one tenant may occupy.
    pub fn tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = quota;
        self
    }

    /// Sets the service-wide master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }
}

/// Which admission lane a job enters.
///
/// `High` jobs drain **before any** `Normal` job at refill time (strict
/// priority, round-robin across tenants), so they are for genuinely
/// latency-sensitive submissions — an interactive caller behind batch
/// traffic.  A steady flood of `High` traffic starves the `Normal` lanes
/// by design; keep it for the exceptional jobs, not the steady state.
///
/// `Deadline` sits **above** `High`: a deadline job must start within its
/// budget or not at all.  Deadline lanes drain before everything else,
/// earliest expiry first across tenants; a job whose deadline passes
/// before an executor picks it up is shed with
/// [`ServiceError::DeadlineExceeded`] (and counted in
/// [`TenantMetrics::deadline_shed`]) rather than run late.  Shedding is a
/// feature, not a failure mode: it keeps an overloaded service spending
/// its executors on answers someone is still waiting for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// The default lane: weighted deficit-round-robin across tenants.
    #[default]
    Normal,
    /// Jumps every Normal backlog; round-robin among High submitters.
    High,
    /// Start within this budget (measured from admission) or be shed with
    /// [`ServiceError::DeadlineExceeded`].  Drains before High, earliest
    /// expiry first.
    Deadline(Duration),
}

/// Why the service could not serve (or accept) a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission buffer (or this tenant's quota slice of it,
    /// [`ServiceConfig::tenant_quota`]) is at capacity; retry later (the
    /// rejected payload is handed back in [`RejectedJob`]).  Only
    /// `try_submit` reports this — blocking `submit` parks instead.
    QueueFull,
    /// The service has been shut down and accepts no further jobs.
    ShutDown,
    /// The submission was malformed (e.g. per-job `target_sizes` that do
    /// not match the processor count): rejected at admission with the
    /// payload handed back, before anything ran.
    InvalidJob(String),
    /// The job panicked inside a virtual processor; the error names it.
    /// The executor it ran on serves on — only this job is affected.
    JobFailed(CgmError),
    /// A [`Priority::Deadline`] job's budget expired before any executor
    /// could start it, so the service shed it without running (the items
    /// are dropped — by the job's own declaration, the answer is stale).
    /// Shed jobs are metered separately from failures
    /// ([`TenantMetrics::deadline_shed`]).
    DeadlineExceeded,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull => {
                write!(f, "the service's admission queue is full; retry later")
            }
            ServiceError::ShutDown => {
                write!(f, "the permutation service is shut down")
            }
            ServiceError::InvalidJob(message) => {
                write!(f, "the submission was rejected: {message}")
            }
            ServiceError::JobFailed(e) => write!(f, "the job failed: {e}"),
            ServiceError::DeadlineExceeded => {
                write!(
                    f,
                    "the job's deadline expired before an executor could start it"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::JobFailed(e) => Some(e),
            _ => None,
        }
    }
}

/// A submission the service refused, with the payload handed back so the
/// caller can retry (after backpressure) or dispose of it.
#[derive(Debug)]
pub struct RejectedJob<T> {
    /// Why the submission was refused.
    pub error: ServiceError,
    /// The payload, untouched.
    pub data: Vec<T>,
}

/// What a completed job delivers to its ticket.
pub(crate) type JobOutcome<T> = Result<(Vec<T>, PermutationReport), ServiceError>;

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A multi-tenant permutation scheduler over a set of serial executors.
/// See the [module docs](self) for the full picture.
pub struct PermutationService<T: Send + 'static> {
    shared: Arc<SchedShared<T>>,
    executors: Vec<Option<JoinHandle<()>>>,
    config: ServiceConfig,
}

impl<T: Send + 'static> PermutationService<T> {
    /// Starts the executors.
    ///
    /// # Panics
    /// Panics when the configuration is unservable (zero executors or zero
    /// processors); [`PermutationService::try_new`] reports those as
    /// values.
    pub fn new(config: ServiceConfig, options: PermuteOptions) -> Self {
        PermutationService::try_new(config, options).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: spawns `executors` threads, or reports
    /// [`CgmError::NoProcessors`] for zero executors or zero processors and
    /// [`CgmError::WorkerSpawnFailed`] when the OS refuses a thread
    /// (already-started executors are stopped and joined first).
    pub fn try_new(config: ServiceConfig, options: PermuteOptions) -> Result<Self, CgmError> {
        if config.executors == 0 {
            return Err(CgmError::NoProcessors);
        }
        let shared = Arc::new(SchedShared {
            admission: Admission::new(config.queue_depth, config.tenant_quota),
            metrics: Mutex::new(MetricsInner::new(config.executors)),
            default_options: options,
            machine: config.engine.try_cgm_config()?,
            next_job: AtomicU64::new(0),
            started_at: Instant::now(),
        });
        let mut service = PermutationService {
            shared,
            executors: Vec::with_capacity(config.executors),
            config,
        };
        for executor in 0..config.executors {
            let shared = Arc::clone(&service.shared);
            match std::thread::Builder::new()
                .name(format!("cgp-executor-{executor}"))
                .spawn(move || executor_loop(executor, shared))
            {
                Ok(handle) => service.executors.push(Some(handle)),
                Err(e) => {
                    drop(service.close_and_join());
                    return Err(CgmError::WorkerSpawnFailed {
                        proc: executor,
                        message: e.to_string(),
                    });
                }
            }
        }
        Ok(service)
    }

    /// The service's sizing.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Number of executor threads.
    pub fn executors(&self) -> usize {
        self.config.executors
    }

    /// Virtual processors per job.
    pub fn procs(&self) -> usize {
        self.config.engine.procs
    }

    /// Opens a client handle under a **fresh tenant id** (with DRR
    /// weight 1) — per-tenant metrics accrue to it.  Clone the handle to
    /// share one tenant's identity across threads; call `handle()` again
    /// for a separate tenant.  The tenant lives until its last handle is
    /// dropped and its last job is done; then its admission lanes and its
    /// metrics slot go, so a server minting a tenant per connection holds
    /// state only for the connections it has.
    pub fn handle(&self) -> ServiceHandle<T> {
        self.handle_weighted(1)
    }

    /// A handle whose tenant carries the given **deficit-round-robin
    /// weight**: per admission pass, a weight-`w` tenant's Normal lane
    /// drains `w` times the payload of a weight-1 tenant.  Weight 0 is
    /// treated as 1.
    pub fn handle_weighted(&self, weight: u64) -> ServiceHandle<T> {
        ServiceHandle {
            lease: Arc::new(TenantLease {
                tenant: self.shared.admission.register_tenant(weight),
                shared: Arc::downgrade(&self.shared),
            }),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Jobs currently queued: admitted but not yet taken by an executor.
    pub fn queued_jobs(&self) -> usize {
        self.shared.admission.len()
    }

    /// A live snapshot of the service's metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        snapshot_metrics(&self.shared)
    }

    /// Stops admission, **drains every already-accepted job**, joins the
    /// executors, and returns the final metrics.  Every ticket issued
    /// before the shutdown still resolves.
    pub fn shutdown(mut self) -> ServiceMetrics {
        let panics = self.close_and_join();
        let metrics = snapshot_metrics(&self.shared);
        if let Some((executor, payload)) = panics.into_iter().next() {
            panic!(
                "service executor {executor} died abnormally: {}",
                panic_text(payload.as_ref())
            );
        }
        metrics
    }

    /// Closes admission and joins every executor (they drain admission
    /// first), collecting abnormal executor deaths.
    fn close_and_join(&mut self) -> Vec<(usize, Box<dyn Any + Send>)> {
        self.shared.admission.close();
        let mut panics = Vec::new();
        for (idx, slot) in self.executors.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                if let Err(payload) = handle.join() {
                    panics.push((idx, payload));
                }
            }
        }
        panics
    }
}

impl<T: Send + 'static> Drop for PermutationService<T> {
    fn drop(&mut self) {
        let panics = self.close_and_join();
        if let Some((executor, payload)) = panics.into_iter().next() {
            if !std::thread::panicking() {
                panic!(
                    "service executor {executor} died abnormally: {}",
                    panic_text(payload.as_ref())
                );
            }
        }
    }
}

fn snapshot_metrics<T>(shared: &SchedShared<T>) -> ServiceMetrics {
    let inner = shared.metrics.lock().unwrap_or_else(|e| e.into_inner());
    ServiceMetrics {
        jobs_served: inner.jobs_served,
        jobs_failed: inner.jobs_failed,
        deadline_shed: inner.deadline_shed,
        queue_wait: inner.queue_wait,
        run_time: inner.run_time,
        uptime: shared.started_at.elapsed(),
        steals: 0,
        coalesced_batches: 0,
        coalesced_jobs: 0,
        lane_depth: shared.admission.lane_depth(),
        per_machine: inner.per_machine.clone(),
        per_tenant: inner.per_tenant.clone(),
    }
}

/// A client's entry point into a [`PermutationService`]: cheap to clone
/// (one `Arc` bump) and `Send + Sync`, so it can be handed to any number
/// of client threads.
///
/// A handle carries a **tenant id**: clones share it (and its metrics
/// slot, quota, and DRR weight); [`PermutationService::handle`] mints
/// fresh ones.  Dropping the last clone retires the tenant once its jobs
/// are done.
pub struct ServiceHandle<T: Send + 'static> {
    lease: Arc<TenantLease<T>>,
    shared: Arc<SchedShared<T>>,
}

/// A tenant's registration, shared by its handles and by its admitted
/// jobs: when the last of them drops, the tenant's admission lanes and
/// metrics slot go.  It holds the service weakly, since queued jobs live
/// inside it.
pub(crate) struct TenantLease<T> {
    tenant: usize,
    shared: Weak<SchedShared<T>>,
}

impl<T> Drop for TenantLease<T> {
    fn drop(&mut self) {
        // No lease drops under an admission or metrics lock: executors
        // drop jobs after releasing both, and a service that is itself
        // being dropped no longer upgrades.
        if let Some(shared) = self.shared.upgrade() {
            shared.admission.retire_tenant(self.tenant);
            scheduler::lock_metrics(&shared).retire(self.tenant);
        }
    }
}

impl<T: Send + 'static> Clone for ServiceHandle<T> {
    fn clone(&self) -> Self {
        ServiceHandle {
            lease: Arc::clone(&self.lease),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + 'static> ServiceHandle<T> {
    /// This handle's tenant id (shared by its clones).
    pub fn tenant(&self) -> usize {
        self.lease.tenant
    }

    fn make_job(
        &self,
        data: Vec<T>,
        options: PermuteOptions,
        priority: Priority,
    ) -> (Box<Job<T>>, JobTicket<T>) {
        let job_id = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        let (reply, ticket) = completion::completion_pair(job_id, self.tenant());
        let enqueued_at = Instant::now();
        let deadline = match priority {
            Priority::Deadline(budget) => Some(enqueued_at + budget),
            Priority::Normal | Priority::High => None,
        };
        let job = Box::new(Job {
            data,
            options,
            lease: Arc::clone(&self.lease),
            priority,
            enqueued_at,
            deadline,
            reply,
        });
        (job, ticket)
    }

    fn admit(
        &self,
        data: Vec<T>,
        options: PermuteOptions,
        priority: Priority,
        block: bool,
    ) -> Result<JobTicket<T>, RejectedJob<T>> {
        if let Err(message) =
            options.check_target_sizes(self.shared.machine.procs, data.len() as u64)
        {
            return Err(RejectedJob {
                error: ServiceError::InvalidJob(message),
                data,
            });
        }
        let (job, ticket) = self.make_job(data, options, priority);
        match self.shared.admission.push(job, block) {
            Ok(()) => Ok(ticket),
            Err((job, backpressure)) => Err(RejectedJob {
                error: if backpressure {
                    ServiceError::QueueFull
                } else {
                    ServiceError::ShutDown
                },
                data: job.data,
            }),
        }
    }

    /// Submits a job with the service's default options on the Normal
    /// lane, **blocking while the admission buffer (or this tenant's
    /// quota) is full**.  Fails only once the service is shut down (the
    /// payload comes back in the [`RejectedJob`]).
    pub fn submit(&self, data: Vec<T>) -> Result<JobTicket<T>, RejectedJob<T>> {
        self.submit_with(data, self.shared.default_options.clone(), Priority::Normal)
    }

    /// [`ServiceHandle::submit`] with explicit per-job options (matrix
    /// backend, target sizes, …) and an admission lane.  The job-level
    /// options override the service-wide defaults for this job only, so
    /// one tenant can e.g. keep the sampled matrix while others do not.
    ///
    /// Malformed options (e.g. `target_sizes` that do not match the
    /// processor count) are rejected **at admission** as
    /// [`ServiceError::InvalidJob`] with the payload handed back — a bad
    /// submission never reaches (let alone kills) an executor.
    pub fn submit_with(
        &self,
        data: Vec<T>,
        options: PermuteOptions,
        priority: Priority,
    ) -> Result<JobTicket<T>, RejectedJob<T>> {
        self.admit(data, options, priority, true)
    }

    /// Non-blocking submission on the Normal lane: explicit backpressure.
    /// A full buffer (or exhausted tenant quota) hands the payload back
    /// with [`ServiceError::QueueFull`] so the caller can retry, shed
    /// load, or block on [`ServiceHandle::submit`] instead.
    pub fn try_submit(&self, data: Vec<T>) -> Result<JobTicket<T>, RejectedJob<T>> {
        self.try_submit_with(data, self.shared.default_options.clone(), Priority::Normal)
    }

    /// [`ServiceHandle::try_submit`] with explicit per-job options and an
    /// admission lane (malformed options are rejected as
    /// [`ServiceError::InvalidJob`], as in [`ServiceHandle::submit_with`]).
    pub fn try_submit_with(
        &self,
        data: Vec<T>,
        options: PermuteOptions,
        priority: Priority,
    ) -> Result<JobTicket<T>, RejectedJob<T>> {
        self.admit(data, options, priority, false)
    }

    /// Blocking submit-and-wait: the synchronous client call.
    pub fn permute(&self, data: Vec<T>) -> Result<(Vec<T>, PermutationReport), ServiceError> {
        self.permute_with(data, self.shared.default_options.clone())
    }

    /// [`ServiceHandle::permute`] with explicit per-job options.
    pub fn permute_with(
        &self,
        data: Vec<T>,
        options: PermuteOptions,
    ) -> Result<(Vec<T>, PermutationReport), ServiceError> {
        match self.submit_with(data, options, Priority::Normal) {
            Ok(ticket) => ticket.wait(),
            Err(rejected) => Err(rejected.error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineFault;
    use crate::{MatrixBackend, Permuter};

    #[test]
    fn service_matches_one_shot_for_every_backend() {
        for backend in MatrixBackend::ALL {
            let permuter = Permuter::new(3).seed(29).backend(backend);
            let reference = permuter.permute((0..300u64).collect()).0;
            let service = permuter.service_sized::<u64>(2, 8);
            let handle = service.handle();
            let tickets: Vec<_> = (0..6)
                .map(|_| handle.submit((0..300u64).collect()).unwrap())
                .collect();
            for (i, t) in tickets.into_iter().enumerate() {
                let (out, _) = t.wait().unwrap();
                assert_eq!(out, reference, "{backend:?} diverged on job {i}");
            }
            service.shutdown();
        }
    }

    #[test]
    fn per_job_options_override_the_service_default() {
        let permuter = Permuter::new(2).seed(11).backend(MatrixBackend::Sequential);
        let service = permuter.service_sized::<u64>(1, 4);
        let handle = service.handle();
        let opts = PermuteOptions::with_backend(MatrixBackend::ParallelOptimal);
        let (_, report) = handle.permute_with((0..64u64).collect(), opts).unwrap();
        assert_eq!(report.backend, MatrixBackend::ParallelOptimal);
        let (_, report) = handle.permute((0..64u64).collect()).unwrap();
        assert_eq!(report.backend, MatrixBackend::Sequential);
        service.shutdown();
    }

    #[test]
    fn per_job_window_override_matches_the_one_shot_path() {
        // A job forcing the one scatter level through the window override
        // must get exactly the permutation the one-shot path produces
        // under the same override.
        let permuter = Permuter::new(2).seed(37);
        let reference = permuter
            .clone()
            .window_items(16)
            .permute((0..200u64).collect())
            .0;
        let service = permuter.service_sized::<u64>(1, 4);
        let handle = service.handle();
        let opts = PermuteOptions::new().window_items(16);
        let (out, _) = handle.permute_with((0..200u64).collect(), opts).unwrap();
        assert_eq!(out, reference);
        // Jobs without the override keep the default rule.
        let (out, _) = handle.permute((0..200u64).collect()).unwrap();
        assert_eq!(out, permuter.permute((0..200u64).collect()).0);
        assert_ne!(out, reference);
        service.shutdown();
    }

    #[test]
    fn try_submit_reports_queue_full_and_hands_the_payload_back() {
        // A service with one machine and a depth-1 buffer: stall the
        // machine with a fat job, fill the admission slot, then observe
        // backpressure.
        let permuter = Permuter::new(2).seed(3);
        let service = permuter.service_sized::<u64>(1, 1);
        let handle = service.handle();
        let stall = handle.submit((0..400_000u64).collect()).unwrap();
        // Saturate admission: with the machine busy, at most the depth (and
        // one refill's worth of deque) can be admitted; keep try-submitting
        // until backpressure appears.
        let mut admitted = Vec::new();
        let rejected = loop {
            match handle.try_submit((0..8u64).collect()) {
                Ok(t) => admitted.push(t),
                Err(r) => break r,
            }
        };
        assert_eq!(rejected.error, ServiceError::QueueFull);
        assert_eq!(
            rejected.data,
            (0..8).collect::<Vec<u64>>(),
            "payload intact"
        );
        // Everything admitted still completes.
        stall.wait().unwrap();
        for t in admitted {
            t.wait().unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn a_tenant_quota_backpressures_the_flooder_only() {
        // Deep buffer, tight quota: the flooding tenant hits QueueFull at
        // its quota while the quiet tenant still has the whole rest of the
        // buffer.
        let permuter = Permuter::new(2).seed(23);
        let config = permuter
            .service_config()
            .executors(1)
            .queue_depth(16)
            .tenant_quota(3);
        let service: PermutationService<u64> =
            PermutationService::new(config, PermuteOptions::default());
        let flooder = service.handle();
        let victim = service.handle();
        // Stall the single machine so admission fills deterministically.
        let stall = flooder.submit((0..400_000u64).collect()).unwrap();
        let mut flooded = Vec::new();
        let rejected = loop {
            match flooder.try_submit((0..16u64).collect()) {
                Ok(t) => flooded.push(t),
                Err(r) => break r,
            }
        };
        assert_eq!(rejected.error, ServiceError::QueueFull);
        // The victim is not behind the flooder's backpressure.
        let ticket = victim.try_submit((0..16u64).collect()).unwrap();
        stall.wait().unwrap();
        ticket.wait().unwrap();
        for t in flooded {
            t.wait().unwrap();
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_failed, 0);
    }

    #[test]
    fn malformed_per_job_options_are_rejected_at_admission() {
        // Satellite of the fault-isolation story: a tenant's bad
        // prescription must be a rejected submission with the payload
        // handed back — never a dead executor (which would strand the
        // queue for every other tenant).
        let permuter = Permuter::new(2).seed(19);
        let service = permuter.service_sized::<u64>(1, 4);
        let handle = service.handle();
        for bad in [vec![1u64, 1], vec![4u64, 4, 2]] {
            let opts = PermuteOptions::default().target_sizes(bad);
            let rejected = handle
                .submit_with((0..10u64).collect(), opts.clone(), Priority::Normal)
                .unwrap_err();
            assert!(matches!(rejected.error, ServiceError::InvalidJob(_)));
            assert_eq!(rejected.data, (0..10).collect::<Vec<u64>>());
            let rejected = handle
                .try_submit_with((0..10u64).collect(), opts, Priority::High)
                .unwrap_err();
            assert!(matches!(rejected.error, ServiceError::InvalidJob(_)));
        }
        // The machine never saw any of it and keeps serving.
        let (out, _) = handle.permute((0..10u64).collect()).unwrap();
        assert_eq!(out.len(), 10);
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 1);
        assert_eq!(metrics.jobs_failed, 0, "rejections are not failed jobs");
    }

    #[test]
    fn shutdown_drains_accepted_jobs_and_closes_admission() {
        let permuter = Permuter::new(2).seed(13);
        let service = permuter.service_sized::<u64>(1, 16);
        let handle = service.handle();
        let tickets: Vec<_> = (0..8)
            .map(|_| handle.submit((0..500u64).collect()).unwrap())
            .collect();
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 8, "shutdown drains the queue");
        for t in tickets {
            t.wait().unwrap();
        }
        // The surviving handle is refused politely.
        let err = handle.submit((0..4u64).collect()).unwrap_err();
        assert_eq!(err.error, ServiceError::ShutDown);
        assert_eq!(err.data, (0..4).collect::<Vec<u64>>());
        assert_eq!(
            handle.permute((0..4u64).collect()).unwrap_err(),
            ServiceError::ShutDown
        );
    }

    #[test]
    fn a_panicked_job_is_contained_to_its_ticket() {
        let permuter = Permuter::new(3).seed(7);
        let reference = permuter.permute((0..120u64).collect()).0;
        let service = permuter.service_sized::<u64>(1, 8);
        let handle = service.handle();
        let before = handle.submit((0..120u64).collect()).unwrap();
        let poisoned = handle
            .submit_with(
                (0..120u64).collect(),
                PermuteOptions::default().inject_fault(EngineFault::matrix_phase(1)),
                Priority::Normal,
            )
            .unwrap();
        let after = handle.submit((0..120u64).collect()).unwrap();
        assert_eq!(before.wait().unwrap().0, reference);
        match poisoned.wait().unwrap_err() {
            ServiceError::JobFailed(CgmError::ProcessorPanicked { proc, .. }) => {
                assert_eq!(proc, 1)
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(
            after.wait().unwrap().0,
            reference,
            "the machine recovered and the next job is clean"
        );
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 2);
        assert_eq!(metrics.jobs_failed, 1);
        assert_eq!(metrics.per_machine[0].recoveries, 1);
    }

    #[test]
    fn tenants_are_metered_separately() {
        let permuter = Permuter::new(2).seed(5);
        let service = permuter.service_sized::<u64>(2, 8);
        let alice = service.handle();
        let bob = service.handle();
        assert_ne!(alice.tenant(), bob.tenant());
        let alice_twin = alice.clone();
        assert_eq!(alice.tenant(), alice_twin.tenant(), "clones share a tenant");
        for _ in 0..3 {
            alice.permute((0..100u64).collect()).unwrap();
        }
        alice_twin.permute((0..100u64).collect()).unwrap();
        bob.permute((0..100u64).collect()).unwrap();
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 5);
        let slot = |tenant: usize| {
            metrics
                .per_tenant
                .iter()
                .find(|t| t.tenant == tenant)
                .expect("tenant has a metrics slot")
                .clone()
        };
        assert_eq!(slot(alice.tenant()).jobs_served, 4);
        assert_eq!(slot(bob.tenant()).jobs_served, 1);
        assert!(metrics.queue_wait >= slot(alice.tenant()).queue_wait);
        let total_machine_jobs: u64 = metrics.per_machine.iter().map(|m| m.jobs).sum();
        assert_eq!(total_machine_jobs, 5);
    }

    #[test]
    fn a_tenant_is_retired_after_its_last_handle_and_job() {
        let permuter = Permuter::new(2).seed(5);
        let service = permuter.service_sized::<u64>(1, 8);
        let keeper = service.handle();
        for _ in 0..100 {
            let handle = service.handle();
            let twin = handle.clone();
            handle.permute((0..64u64).collect()).unwrap();
            drop(handle);
            // A job admitted through the last handle keeps the tenant.
            let ticket = twin.submit((0..64u64).collect()).unwrap();
            drop(twin);
            ticket.wait().unwrap();
        }
        keeper.permute((0..64u64).collect()).unwrap();
        // The last job's tenant retires just after its ticket resolves.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.shared.admission.tenants() > 1 {
            assert!(Instant::now() < deadline, "retired tenants linger");
            std::thread::yield_now();
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 201);
        let tenants: Vec<usize> = metrics.per_tenant.iter().map(|t| t.tenant).collect();
        assert_eq!(tenants, vec![keeper.tenant()]);
    }

    #[test]
    fn ticket_ids_are_admission_ordered() {
        let permuter = Permuter::new(2).seed(1);
        let service = permuter.service_sized::<u64>(1, 8);
        let handle = service.handle();
        let a = handle.submit((0..10u64).collect()).unwrap();
        let b = handle.submit((0..10u64).collect()).unwrap();
        assert!(a.job_id() < b.job_id());
        assert_eq!(a.tenant(), handle.tenant());
        a.wait().unwrap();
        b.wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn deadline_jobs_complete_within_budget_and_shed_past_it() {
        let permuter = Permuter::new(2).seed(31);
        let reference = permuter.permute((0..100u64).collect()).0;
        let service = permuter.service_sized::<u64>(1, 8);
        let alice = service.handle();
        let bob = service.handle();

        // Within budget: a deadline job is just an urgent job.
        let ticket = alice
            .submit_with(
                (0..100u64).collect(),
                PermuteOptions::default(),
                Priority::Deadline(Duration::from_secs(60)),
            )
            .unwrap();
        assert_eq!(ticket.wait().unwrap().0, reference);

        // Past budget: stall the single machine, then submit zero-budget
        // jobs — expired before any refill can possibly reach them.
        let stall = alice.submit((0..400_000u64).collect()).unwrap();
        let shed_alice = alice
            .submit_with(
                (0..100u64).collect(),
                PermuteOptions::default(),
                Priority::Deadline(Duration::ZERO),
            )
            .unwrap();
        let shed_bob = bob
            .submit_with(
                (0..100u64).collect(),
                PermuteOptions::default(),
                Priority::Deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(
            shed_alice.wait().unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        assert_eq!(shed_bob.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        stall.wait().unwrap();

        let metrics = service.shutdown();
        assert_eq!(metrics.deadline_shed, 2);
        assert_eq!(metrics.jobs_failed, 0, "shed jobs are not failures");
        assert_eq!(metrics.jobs_served, 2);
        let shed_of = |tenant: usize| {
            metrics
                .per_tenant
                .iter()
                .find(|t| t.tenant == tenant)
                .map(|t| t.deadline_shed)
                .unwrap_or(0)
        };
        assert_eq!(shed_of(alice.tenant()), 1, "shed is metered per tenant");
        assert_eq!(shed_of(bob.tenant()), 1);
    }

    #[test]
    fn completion_set_multiplexes_service_tickets() {
        let permuter = Permuter::new(2).seed(43);
        let reference = permuter.permute((0..80u64).collect()).0;
        let service = permuter.service_sized::<u64>(2, 16);
        let handle = service.handle();
        let mut set = CompletionSet::new();
        for _ in 0..6 {
            set.insert(handle.submit((0..80u64).collect()).unwrap());
        }
        let mut resolved = 0;
        while let Some((_, outcome)) = set.wait_any() {
            assert_eq!(outcome.unwrap().0, reference);
            resolved += 1;
        }
        assert_eq!(resolved, 6);
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 6);
    }

    #[test]
    fn zero_executors_or_procs_is_an_error_value() {
        for cfg in [
            ServiceConfig::new(2).executors(0),
            ServiceConfig::from_engine(EngineConfig::new(0)),
        ] {
            assert!(matches!(
                PermutationService::<u64>::try_new(cfg, PermuteOptions::default()),
                Err(CgmError::NoProcessors)
            ));
        }
    }

    #[test]
    fn dropped_tickets_abandon_results_without_harm() {
        let permuter = Permuter::new(2).seed(17);
        let service = permuter.service_sized::<u64>(1, 8);
        let handle = service.handle();
        drop(handle.submit((0..200u64).collect()).unwrap());
        let (out, _) = handle.permute((0..200u64).collect()).unwrap();
        assert_eq!(out.len(), 200);
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, 2, "the abandoned job still ran");
    }
}
