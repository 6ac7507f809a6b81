//! The scheduler's two queue tiers: fair-share admission and per-machine
//! deques.
//!
//! A job travels through **two** stages between submission and execution:
//!
//! 1. the **admission buffer** ([`Admission`]) — bounded
//!    ([`crate::ServiceConfig::queue_depth`]) and fair: every tenant owns
//!    three lanes ([`Priority::Deadline`] / [`Priority::High`] /
//!    [`Priority::Normal`]) and a deficit-round-robin weight, and a
//!    per-tenant quota caps how much of the buffer one tenant can occupy.
//!    Deadline lanes are kept sorted by expiry and drain before everything
//!    else (globally earliest-first across tenants); a job whose deadline
//!    has already passed at refill time is **shed** instead of handed to a
//!    machine;
//! 2. a **per-machine deque** ([`MachineQueue`]) — the dispatcher's own
//!    FIFO backlog, refilled from admission only when empty, coalesced from
//!    the front ([`MachineQueue::take_batch`]), and stolen from the back by
//!    idle peers ([`MachineQueue::steal_half`]).
//!
//! Jobs are boxed end to end: the handback-by-value rejection paths
//! (`Err(Box<Job>)`) then cost one pointer instead of the full job struct,
//! which is what let the old `#[allow(clippy::result_large_err)]`
//! suppressions be deleted rather than suppressed.

// Boxed-job vectors are deliberate: a job hops queues several times
// (admission lane → refill → deque → coalesce/steal → possibly requeue),
// and each hop moves one pointer instead of the ~100-byte job struct.
#![allow(clippy::vec_box)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use super::completion::CompletionHandle;
use super::metrics::LaneDepth;
use super::Priority;
use crate::config::PermuteOptions;

/// One queued unit of work.
pub(crate) struct Job<T> {
    pub(crate) data: Vec<T>,
    pub(crate) options: PermuteOptions,
    pub(crate) tenant: usize,
    pub(crate) priority: Priority,
    pub(crate) enqueued_at: Instant,
    /// Absolute expiry for [`Priority::Deadline`] jobs (admission time plus
    /// the budget); `None` for the other lanes.
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: CompletionHandle<T>,
}

// Manual impl so `T` need not be `Debug` (the payload is elided anyway).
impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("items", &self.data.len())
            .field("tenant", &self.tenant)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

/// Payload bytes a job occupies (the coalescing currency).
fn job_bytes<T>(job: &Job<T>) -> usize {
    job.data.len() * std::mem::size_of::<T>()
}

/// Whether two jobs may share a coalesced batch: same run-shaping options.
/// The injected-fault field is deliberately ignored — a fault is a
/// test-only property of one job, and the batched engine entry point keeps
/// per-job options (and per-job failure) intact either way.  Deadline jobs
/// never coalesce (checked in [`MachineQueue::take_batch`], not here):
/// batching couples a latency-bounded job's start to its batchmates'
/// payloads, exactly the coupling its deadline forbids.
fn coalescible(a: &PermuteOptions, b: &PermuteOptions) -> bool {
    a.backend == b.backend
        && a.window_items == b.window_items
        && a.keep_matrix == b.keep_matrix
        && a.target_sizes == b.target_sizes
}

// ---------------------------------------------------------------------------
// Fair-share admission
// ---------------------------------------------------------------------------

/// Each deficit-round-robin visit banks `weight × QUANTUM` items' worth of
/// credit; a job costs `max(1, items)`.  4096 items means a tenant with
/// weight 1 drains a few small jobs (or most of one mid-sized job) per
/// visit, so interleaving stays fine-grained without making the scan hot.
const DRR_QUANTUM: u64 = 4096;

/// One tenant's admission lanes plus its scheduling state.
struct TenantLanes<T> {
    /// Kept sorted by expiry (earliest first) — admission inserts by
    /// binary search, so refill only ever inspects the front.
    deadline: VecDeque<Box<Job<T>>>,
    high: VecDeque<Box<Job<T>>>,
    normal: VecDeque<Box<Job<T>>>,
    weight: u64,
    deficit: u64,
}

impl<T> TenantLanes<T> {
    fn new(weight: u64) -> Self {
        TenantLanes {
            deadline: VecDeque::new(),
            high: VecDeque::new(),
            normal: VecDeque::new(),
            weight: weight.max(1),
            deficit: 0,
        }
    }

    fn queued(&self) -> usize {
        self.deadline.len() + self.high.len() + self.normal.len()
    }

    /// Inserts a deadline job keeping the lane expiry-sorted.  Ties keep
    /// admission order (the new job goes after equal expiries).
    fn insert_by_expiry(&mut self, job: Box<Job<T>>) {
        let expiry = job.deadline.expect("deadline jobs carry an expiry");
        let at = self
            .deadline
            .partition_point(|j| j.deadline.expect("deadline lane invariant") <= expiry);
        self.deadline.insert(at, job);
    }
}

pub(crate) struct AdmissionState<T> {
    tenants: Vec<TenantLanes<T>>,
    /// Jobs across all lanes (kept in sync so `len` is O(1)).
    total: usize,
    /// `false` once the service is shutting down: no further admissions;
    /// dispatchers drain what is queued and then exit.
    open: bool,
    /// Round-robin position over tenants for the High lane.
    high_cursor: usize,
    /// Deficit-round-robin position over tenants for the Normal lane.
    drr_cursor: usize,
}

impl<T> AdmissionState<T> {
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Pops up to `max` jobs for one machine's deque, in scheduling order:
    /// the Deadline lanes drain first (globally earliest expiry across
    /// tenants; jobs already past their expiry go to `shed` instead of
    /// `out`), then the High lanes (strict priority, round-robin across
    /// tenants), then the Normal lanes under weighted deficit round-robin
    /// — each visit banks `weight × QUANTUM` item-credits and serves jobs
    /// (cost `max(1, items)`) while the credit lasts, so a tenant of
    /// weight 2 moves twice the payload of a tenant of weight 1 per pass
    /// and a flooding tenant cannot crowd out the rest.
    ///
    /// The caller resolves `shed` tickets (with
    /// [`super::ServiceError::DeadlineExceeded`]) **after dropping the
    /// admission lock** — completing a ticket may run user callbacks.
    fn refill(
        &mut self,
        max: usize,
        now: Instant,
        shed: &mut Vec<Box<Job<T>>>,
    ) -> Vec<Box<Job<T>>> {
        let mut out = Vec::new();
        let nt = self.tenants.len();
        if nt == 0 {
            return out;
        }

        // Deadline lanes: the most urgent job service-wide goes first.
        // Each lane is expiry-sorted, so the global earliest is the
        // minimum over lane fronts.  Expired fronts are shed as they are
        // encountered — shedding frees buffer slots but hands no work out,
        // so it does not count against `max`.
        while out.len() < max {
            let next = self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(t, lanes)| {
                    lanes
                        .deadline
                        .front()
                        .map(|job| (job.deadline.expect("deadline lane invariant"), t))
                })
                .min();
            let Some((expiry, t)) = next else { break };
            let job = self.tenants[t]
                .deadline
                .pop_front()
                .expect("front() was Some");
            self.total -= 1;
            if expiry < now {
                shed.push(job);
            } else {
                out.push(job);
            }
        }

        // High lanes: strict priority, one job per tenant per turn.
        while out.len() < max {
            let mut found = false;
            for off in 0..nt {
                let t = (self.high_cursor + off) % nt;
                if let Some(job) = self.tenants[t].high.pop_front() {
                    self.total -= 1;
                    out.push(job);
                    self.high_cursor = (t + 1) % nt;
                    found = true;
                    break;
                }
            }
            if !found {
                break;
            }
        }

        // Normal lanes: weighted deficit round-robin.
        while out.len() < max {
            if self.tenants.iter().all(|l| l.normal.is_empty()) {
                break;
            }
            let t = self.drr_cursor % nt;
            self.drr_cursor = (t + 1) % nt;
            let lane = &mut self.tenants[t];
            if lane.normal.is_empty() {
                // An empty lane banks nothing: deficits must not accrue
                // while a tenant has no work, or it could later burst past
                // its fair share.
                lane.deficit = 0;
                continue;
            }
            lane.deficit = lane.deficit.saturating_add(DRR_QUANTUM * lane.weight);
            while out.len() < max {
                let Some(front) = lane.normal.front() else {
                    lane.deficit = 0;
                    break;
                };
                let cost = (front.data.len() as u64).max(1);
                if cost > lane.deficit {
                    break;
                }
                lane.deficit -= cost;
                let job = lane.normal.pop_front().expect("front() was Some");
                self.total -= 1;
                out.push(job);
            }
        }
        out
    }

    fn lane_depth(&self) -> LaneDepth {
        LaneDepth {
            deadline: self.tenants.iter().map(|l| l.deadline.len()).sum(),
            high: self.tenants.iter().map(|l| l.high.len()).sum(),
            normal: self.tenants.iter().map(|l| l.normal.len()).sum(),
        }
    }
}

/// The bounded, fair admission buffer shared by every handle and
/// dispatcher.
pub(crate) struct Admission<T> {
    state: Mutex<AdmissionState<T>>,
    depth: usize,
    quota: usize,
    /// Dispatchers park here when there is nothing to run anywhere.
    work: Condvar,
    /// Blocked submitters park here until admission space frees up.
    space: Condvar,
}

/// Lock the admission state, surviving a poisoned mutex (a client thread
/// that panicked mid-push leaves consistent state: every critical section
/// below upholds the invariants before touching anything that can panic).
fn lock_state<T>(admission: &Admission<T>) -> MutexGuard<'_, AdmissionState<T>> {
    admission.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> Admission<T> {
    pub(crate) fn new(depth: usize, quota: usize) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                tenants: Vec::new(),
                total: 0,
                open: true,
                high_cursor: 0,
                drr_cursor: 0,
            }),
            depth: depth.max(1),
            quota: quota.max(1),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Registers a new tenant with the given DRR weight; returns its id.
    pub(crate) fn register_tenant(&self, weight: u64) -> usize {
        let mut st = lock_state(self);
        st.tenants.push(TenantLanes::new(weight));
        st.tenants.len() - 1
    }

    /// Admits a job into its tenant's lane.  `Err((job, true))` means
    /// backpressure (buffer full, or the tenant is at its quota);
    /// `Err((job, false))` means the service shut down.  With `block` the
    /// backpressure case parks instead of failing.
    pub(crate) fn push(&self, job: Box<Job<T>>, block: bool) -> Result<(), (Box<Job<T>>, bool)> {
        let mut st = lock_state(self);
        loop {
            if !st.open {
                return Err((job, false));
            }
            let queued = st.tenants[job.tenant].queued();
            if st.total < self.depth && queued < self.quota {
                let lanes = &mut st.tenants[job.tenant];
                match job.priority {
                    Priority::Deadline(_) => lanes.insert_by_expiry(job),
                    Priority::High => lanes.high.push_back(job),
                    Priority::Normal => lanes.normal.push_back(job),
                }
                st.total += 1;
                self.work.notify_one();
                return Ok(());
            }
            if !block {
                return Err((job, true));
            }
            st = self.space.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Locks the state for a dispatcher's refill/steal/park decision.
    pub(crate) fn lock(&self) -> MutexGuard<'_, AdmissionState<T>> {
        lock_state(self)
    }

    /// Refill under an already-held lock; wakes blocked submitters when
    /// slots freed up.  Expired deadline jobs land in `shed` — the caller
    /// resolves their tickets after releasing the lock.
    pub(crate) fn refill_locked(
        &self,
        st: &mut AdmissionState<T>,
        max: usize,
        shed: &mut Vec<Box<Job<T>>>,
    ) -> Vec<Box<Job<T>>> {
        let jobs = st.refill(max, Instant::now(), shed);
        if !jobs.is_empty() || !shed.is_empty() {
            self.space.notify_all();
        }
        jobs
    }

    /// Parks a dispatcher until new work (or shutdown) is signalled.
    pub(crate) fn wait_work<'a>(
        &self,
        guard: MutexGuard<'a, AdmissionState<T>>,
    ) -> MutexGuard<'a, AdmissionState<T>> {
        self.work.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes one parked dispatcher (e.g. after a deque gained stealable
    /// surplus).
    pub(crate) fn notify_work(&self) {
        self.work.notify_one();
    }

    /// Wakes every parked dispatcher (shutdown cascade).
    pub(crate) fn notify_work_all(&self) {
        self.work.notify_all();
    }

    /// Stops admission and wakes every parked client and dispatcher.
    /// Already-queued jobs stay queued — dispatchers drain them.
    pub(crate) fn close(&self) {
        let mut st = lock_state(self);
        st.open = false;
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Jobs currently admitted but not yet moved to a machine deque.
    pub(crate) fn len(&self) -> usize {
        lock_state(self).total
    }

    /// Lane depths for the metrics snapshot.
    pub(crate) fn lane_depth(&self) -> LaneDepth {
        lock_state(self).lane_depth()
    }
}

// ---------------------------------------------------------------------------
// Per-machine deques
// ---------------------------------------------------------------------------

/// Upper bound on jobs per coalesced batch, independent of the byte
/// budget: bounds the damage radius of a mid-batch failure (everything
/// behind the faulting job is requeued) and the latency of the jobs
/// waiting behind the batch.
pub(crate) const COALESCE_MAX_JOBS: usize = 32;

/// One machine's FIFO backlog.  Only its own dispatcher pops the front
/// (and requeues skipped jobs there); idle peers steal from the back.
pub(crate) struct MachineQueue<T> {
    jobs: Mutex<VecDeque<Box<Job<T>>>>,
}

impl<T> MachineQueue<T> {
    pub(crate) fn new() -> Self {
        MachineQueue {
            jobs: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Box<Job<T>>>> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Appends refilled or stolen jobs, preserving their order.
    pub(crate) fn push_back_many(&self, jobs: Vec<Box<Job<T>>>) {
        let mut q = self.lock();
        for job in jobs {
            q.push_back(job);
        }
    }

    /// Requeues skipped jobs at the **front**, preserving their order —
    /// they were next in line before their batch aborted, and they keep
    /// that place.
    pub(crate) fn push_front_many(&self, jobs: Vec<Box<Job<T>>>) {
        let mut q = self.lock();
        for job in jobs.into_iter().rev() {
            q.push_front(job);
        }
    }

    /// Pops the front job plus every *consecutive* compatible follower
    /// whose payload still fits the byte budget (and the
    /// [`COALESCE_MAX_JOBS`] cap).  A zero budget disables coalescing
    /// entirely: every batch is a single job.  Deadline jobs always run
    /// solo — as the front they take no followers, as a follower they end
    /// the batch — so a latency-bounded job never waits on batchmates.
    pub(crate) fn take_batch(&self, budget_bytes: usize) -> Vec<Box<Job<T>>> {
        let mut q = self.lock();
        let Some(first) = q.pop_front() else {
            return Vec::new();
        };
        let mut bytes = job_bytes(&first);
        let solo = first.deadline.is_some();
        let mut batch = vec![first];
        if budget_bytes == 0 || solo {
            return batch;
        }
        while batch.len() < COALESCE_MAX_JOBS {
            let Some(next) = q.front() else { break };
            if next.deadline.is_some()
                || bytes + job_bytes(next) > budget_bytes
                || !coalescible(&batch[0].options, &next.options)
            {
                break;
            }
            bytes += job_bytes(next);
            batch.push(q.pop_front().expect("front() was Some"));
        }
        batch
    }

    /// Steals the back half (`⌈len/2⌉` jobs) for an idle peer, preserving
    /// their relative order.  The victim keeps the front half — the oldest
    /// jobs, which it serves next anyway.
    pub(crate) fn steal_half(&self) -> Vec<Box<Job<T>>> {
        let mut q = self.lock();
        let n = q.len();
        if n == 0 {
            return Vec::new();
        }
        q.split_off(n / 2).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn job(tenant: usize, priority: Priority, items: usize) -> Box<Job<u64>> {
        // The ticket side is dropped: these unit tests only exercise
        // queueing order, never completion.
        let (reply, _ticket) = super::super::completion::completion_pair(0, tenant);
        let enqueued_at = Instant::now();
        let deadline = match priority {
            Priority::Deadline(budget) => Some(enqueued_at + budget),
            _ => None,
        };
        Box::new(Job {
            data: vec![0u64; items],
            options: PermuteOptions::default(),
            tenant,
            priority,
            enqueued_at,
            deadline,
            reply,
        })
    }

    fn tenants_of(jobs: &[Box<Job<u64>>]) -> Vec<usize> {
        jobs.iter().map(|j| j.tenant).collect()
    }

    type Jobs = Vec<Box<Job<u64>>>;

    fn refill_all(admission: &Admission<u64>, max: usize) -> (Jobs, Jobs) {
        let mut shed = Vec::new();
        let mut st = admission.lock();
        let jobs = admission.refill_locked(&mut st, max, &mut shed);
        drop(st);
        (jobs, shed)
    }

    #[test]
    fn high_lane_drains_before_normal_round_robin_across_tenants() {
        let admission: Admission<u64> = Admission::new(16, usize::MAX);
        let a = admission.register_tenant(1);
        let b = admission.register_tenant(1);
        admission.push(job(a, Priority::Normal, 1), false).unwrap();
        admission.push(job(a, Priority::High, 1), false).unwrap();
        admission.push(job(b, Priority::High, 1), false).unwrap();
        admission.push(job(b, Priority::Normal, 1), false).unwrap();
        admission.push(job(a, Priority::High, 1), false).unwrap();
        let (jobs, _) = refill_all(&admission, 16);
        // The three High jobs come first, interleaved across tenants; the
        // Normal jobs follow.
        let prios: Vec<Priority> = jobs.iter().map(|j| j.priority).collect();
        assert_eq!(
            prios,
            vec![
                Priority::High,
                Priority::High,
                Priority::High,
                Priority::Normal,
                Priority::Normal
            ]
        );
        assert_eq!(tenants_of(&jobs[..3]), vec![a, b, a]);
    }

    #[test]
    fn weighted_drr_shares_the_drain_by_weight() {
        let admission: Admission<u64> = Admission::new(64, usize::MAX);
        let light = admission.register_tenant(1);
        let heavy = admission.register_tenant(2);
        // Equal-cost jobs, plenty of both: one DRR pass banks weight×QUANTUM
        // credit per tenant, so the weight-2 tenant drains twice as many.
        for _ in 0..12 {
            admission
                .push(job(light, Priority::Normal, 2048), false)
                .unwrap();
            admission
                .push(job(heavy, Priority::Normal, 2048), false)
                .unwrap();
        }
        let (jobs, _) = refill_all(&admission, 12);
        let heavy_count = jobs.iter().filter(|j| j.tenant == heavy).count();
        let light_count = jobs.iter().filter(|j| j.tenant == light).count();
        assert_eq!(jobs.len(), 12);
        assert_eq!(
            heavy_count,
            2 * light_count,
            "weight 2 drains twice the jobs of weight 1 (got {heavy_count} vs {light_count})"
        );
    }

    #[test]
    fn per_tenant_quota_rejects_the_flooder_but_not_the_peer() {
        let admission: Admission<u64> = Admission::new(16, 3);
        let flooder = admission.register_tenant(1);
        let peer = admission.register_tenant(1);
        for _ in 0..3 {
            admission
                .push(job(flooder, Priority::Normal, 1), false)
                .unwrap();
        }
        let (_, backpressure) = admission
            .push(job(flooder, Priority::Normal, 1), false)
            .unwrap_err();
        assert!(
            backpressure,
            "quota exhaustion is backpressure, not shutdown"
        );
        // The peer still has the whole rest of the buffer.
        admission
            .push(job(peer, Priority::Normal, 1), false)
            .unwrap();
        assert_eq!(admission.len(), 4);
    }

    #[test]
    fn closed_admission_reports_shutdown_not_backpressure() {
        let admission: Admission<u64> = Admission::new(2, usize::MAX);
        let t = admission.register_tenant(1);
        admission.close();
        let (_, backpressure) = admission
            .push(job(t, Priority::Normal, 1), true)
            .unwrap_err();
        assert!(!backpressure);
    }

    #[test]
    fn take_batch_respects_budget_compatibility_and_cap() {
        let q: MachineQueue<u64> = MachineQueue::new();
        // 8-byte items; budget fits exactly three 4-item jobs (96 bytes).
        let mut jobs: Vec<Box<Job<u64>>> = (0..4).map(|_| job(0, Priority::Normal, 4)).collect();
        // Job 3 is incompatible (different backend).
        jobs[3].options = PermuteOptions::with_backend(crate::MatrixBackend::ParallelOptimal);
        q.push_back_many(jobs);
        let batch = q.take_batch(96);
        assert_eq!(batch.len(), 3, "budget cuts the batch at 96 bytes");
        let batch = q.take_batch(96);
        assert_eq!(batch.len(), 1, "the incompatible job runs alone");
        assert!(q.take_batch(96).is_empty());

        // A zero budget disables coalescing outright.
        q.push_back_many((0..3).map(|_| job(0, Priority::Normal, 0)).collect());
        assert_eq!(q.take_batch(0).len(), 1);

        // The job cap holds even under an unlimited budget.
        q.take_batch(0);
        q.take_batch(0);
        q.push_back_many(
            (0..COALESCE_MAX_JOBS + 5)
                .map(|_| job(0, Priority::Normal, 1))
                .collect(),
        );
        assert_eq!(q.take_batch(usize::MAX).len(), COALESCE_MAX_JOBS);
    }

    #[test]
    fn deadline_lane_drains_first_earliest_expiry_across_tenants() {
        use std::time::Duration;
        let admission: Admission<u64> = Admission::new(16, usize::MAX);
        let a = admission.register_tenant(1);
        let b = admission.register_tenant(1);
        admission.push(job(a, Priority::Normal, 1), false).unwrap();
        admission.push(job(a, Priority::High, 1), false).unwrap();
        // b's deadline is tighter than a's even though a submitted first.
        admission
            .push(
                job(a, Priority::Deadline(Duration::from_secs(60)), 1),
                false,
            )
            .unwrap();
        admission
            .push(
                job(b, Priority::Deadline(Duration::from_secs(30)), 1),
                false,
            )
            .unwrap();
        let (jobs, shed) = refill_all(&admission, 16);
        assert!(shed.is_empty(), "nothing expired");
        assert_eq!(tenants_of(&jobs), vec![b, a, a, a]);
        assert!(matches!(jobs[0].priority, Priority::Deadline(_)));
        assert!(matches!(jobs[1].priority, Priority::Deadline(_)));
        assert_eq!(jobs[2].priority, Priority::High);
        assert_eq!(jobs[3].priority, Priority::Normal);
    }

    #[test]
    fn expired_deadline_jobs_are_shed_not_dispatched() {
        use std::time::Duration;
        let admission: Admission<u64> = Admission::new(16, usize::MAX);
        let t = admission.register_tenant(1);
        // A zero budget is expired by the time any refill can run.
        admission
            .push(job(t, Priority::Deadline(Duration::ZERO), 1), false)
            .unwrap();
        admission
            .push(
                job(t, Priority::Deadline(Duration::from_secs(60)), 1),
                false,
            )
            .unwrap();
        admission.push(job(t, Priority::Normal, 1), false).unwrap();
        // The expired job frees its slot without consuming refill capacity:
        // max=2 still moves both live jobs.
        let (jobs, shed) = refill_all(&admission, 2);
        assert_eq!(shed.len(), 1, "the zero-budget job is shed");
        assert_eq!(jobs.len(), 2);
        assert!(matches!(jobs[0].priority, Priority::Deadline(_)));
        assert_eq!(jobs[1].priority, Priority::Normal);
        assert_eq!(admission.len(), 0);
    }

    #[test]
    fn deadline_jobs_never_coalesce() {
        use std::time::Duration;
        let q: MachineQueue<u64> = MachineQueue::new();
        q.push_back_many(vec![
            job(0, Priority::Deadline(Duration::from_secs(60)), 1),
            job(0, Priority::Normal, 1),
            job(0, Priority::Normal, 1),
            job(0, Priority::Deadline(Duration::from_secs(60)), 1),
            job(0, Priority::Normal, 1),
        ]);
        // A deadline front takes no followers.
        assert_eq!(q.take_batch(usize::MAX).len(), 1);
        // A deadline follower ends the batch.
        assert_eq!(q.take_batch(usize::MAX).len(), 2);
        assert_eq!(q.take_batch(usize::MAX).len(), 1);
        assert_eq!(q.take_batch(usize::MAX).len(), 1);
    }

    #[test]
    fn steal_takes_the_back_half_in_order() {
        let q: MachineQueue<u64> = MachineQueue::new();
        q.push_back_many((0..5).map(|t| job(t, Priority::Normal, 1)).collect());
        let stolen = q.steal_half();
        assert_eq!(tenants_of(&stolen), vec![2, 3, 4]);
        assert_eq!(q.len(), 2);
        let rest = q.take_batch(usize::MAX);
        assert_eq!(tenants_of(&rest), vec![0, 1]);
        assert!(q.steal_half().is_empty());
    }
}
