//! The scheduler's queue: fair-share admission.
//!
//! A job waits in the **admission buffer** ([`Admission`]) between
//! submission and execution.  The buffer is bounded
//! ([`crate::ServiceConfig::queue_depth`]) and fair: every tenant owns three
//! lanes ([`Priority::Deadline`] / [`Priority::High`] /
//! [`Priority::Normal`]) and a deficit-round-robin weight, and a per-tenant
//! quota caps how much of the buffer one tenant can occupy.  Deadline lanes
//! are kept sorted by expiry and drain before everything else (globally
//! earliest-first across tenants); a job whose deadline has already passed
//! when an executor asks for work is **shed** instead of run.  Executors
//! pull one job at a time ([`Admission::refill_locked`] with `max = 1`); a
//! sequence of such pulls hands out jobs in exactly the order one large
//! pull would.
//!
//! Jobs are boxed end to end: the handback-by-value rejection paths
//! (`Err(Box<Job>)`) then cost one pointer instead of the full job struct,
//! which is what let the old `#[allow(clippy::result_large_err)]`
//! suppressions be deleted rather than suppressed.

// Boxed-job vectors are deliberate: a job moves from its admission lane to
// an executor as one pointer instead of the ~100-byte job struct.
#![allow(clippy::vec_box)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use super::completion::CompletionHandle;
use super::metrics::LaneDepth;
use super::{Priority, TenantLease};
use crate::config::PermuteOptions;

/// One queued unit of work.
pub(crate) struct Job<T> {
    pub(crate) data: Vec<T>,
    pub(crate) options: PermuteOptions,
    /// The submitting tenant's registration: a queued or running job keeps
    /// its tenant alive after the tenant's last handle is dropped.
    pub(crate) lease: Arc<TenantLease<T>>,
    pub(crate) priority: Priority,
    pub(crate) enqueued_at: Instant,
    /// Absolute expiry for [`Priority::Deadline`] jobs (admission time plus
    /// the budget); `None` for the other lanes.
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: CompletionHandle<T>,
}

impl<T> Job<T> {
    /// The submitting tenant's id.
    pub(crate) fn tenant(&self) -> usize {
        self.lease.tenant
    }
}

// Manual impl so `T` need not be `Debug` (the payload is elided anyway).
impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("items", &self.data.len())
            .field("tenant", &self.tenant())
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
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
    /// The tenant id ([`crate::ServiceHandle::tenant`]).
    id: usize,
    /// Kept sorted by expiry (earliest first) — admission inserts by
    /// binary search, so refill only ever inspects the front.
    deadline: VecDeque<Box<Job<T>>>,
    high: VecDeque<Box<Job<T>>>,
    normal: VecDeque<Box<Job<T>>>,
    weight: u64,
    deficit: u64,
}

impl<T> TenantLanes<T> {
    fn new(id: usize, weight: u64) -> Self {
        TenantLanes {
            id,
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
    /// The live tenants, sorted by id.  A tenant leaves once its last
    /// handle and its last job are dropped ([`Admission::retire_tenant`]),
    /// so the scans below walk the tenants that exist, not every tenant
    /// ever seen.
    tenants: Vec<TenantLanes<T>>,
    /// The id the next registered tenant gets (ids are never reused).
    next_tenant: usize,
    /// Jobs across all lanes (kept in sync so `len` is O(1)).
    total: usize,
    /// `false` once the service is shutting down: no further admissions;
    /// executors drain what is queued and then exit.
    open: bool,
    /// Round-robin position over tenants for the High lane.
    high_cursor: usize,
    /// Deficit-round-robin position over tenants for the Normal lane.
    drr_cursor: usize,
    /// Whether the Normal lane at `drr_cursor` is mid-visit: it banked its
    /// quantum, and a pull stopped at `max` before the visit ended.  The
    /// next pull resumes the visit instead of banking again.
    drr_visiting: bool,
}

impl<T> AdmissionState<T> {
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// The index of tenant `id` in `tenants`.
    fn slot(&self, id: usize) -> Option<usize> {
        self.tenants
            .binary_search_by_key(&id, |lanes| lanes.id)
            .ok()
    }

    /// Pops up to `max` jobs, in scheduling order:
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

        // Normal lanes: weighted deficit round-robin.  A visit that `max`
        // cuts short resumes on the next pull, so pulling one job at a
        // time serves the lanes in the same order as one large pull.
        while out.len() < max {
            if self.tenants.iter().all(|l| l.normal.is_empty()) {
                break;
            }
            let t = self.drr_cursor % nt;
            let lane = &mut self.tenants[t];
            if !self.drr_visiting {
                if lane.normal.is_empty() {
                    // An empty lane banks nothing: deficits must not accrue
                    // while a tenant has no work, or it could later burst
                    // past its fair share.
                    lane.deficit = 0;
                    self.drr_cursor = (t + 1) % nt;
                    continue;
                }
                lane.deficit = lane.deficit.saturating_add(DRR_QUANTUM * lane.weight);
                self.drr_visiting = true;
            }
            while out.len() < max {
                let Some(front) = lane.normal.front() else {
                    lane.deficit = 0;
                    self.drr_visiting = false;
                    break;
                };
                let cost = (front.data.len() as u64).max(1);
                if cost > lane.deficit {
                    self.drr_visiting = false;
                    break;
                }
                lane.deficit -= cost;
                let job = lane.normal.pop_front().expect("front() was Some");
                self.total -= 1;
                out.push(job);
            }
            if !self.drr_visiting {
                self.drr_cursor = (t + 1) % nt;
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
/// executor.
pub(crate) struct Admission<T> {
    state: Mutex<AdmissionState<T>>,
    depth: usize,
    quota: usize,
    /// Executors park here when there is nothing to run.
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
                next_tenant: 0,
                total: 0,
                open: true,
                high_cursor: 0,
                drr_cursor: 0,
                drr_visiting: false,
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
        let id = st.next_tenant;
        st.next_tenant += 1;
        st.tenants.push(TenantLanes::new(id, weight));
        id
    }

    /// Removes a tenant whose last handle and last job are gone, so its
    /// lanes are empty.  The round-robin cursors keep pointing at the same
    /// tenants, and a visit to the removed one ends.
    pub(crate) fn retire_tenant(&self, tenant: usize) {
        let mut guard = lock_state(self);
        let st = &mut *guard;
        let Some(i) = st.slot(tenant) else {
            return;
        };
        debug_assert_eq!(st.tenants[i].queued(), 0, "queued jobs hold a lease");
        st.tenants.remove(i);
        if st.drr_cursor == i {
            st.drr_visiting = false;
        }
        let n = st.tenants.len();
        for cursor in [&mut st.high_cursor, &mut st.drr_cursor] {
            if *cursor > i {
                *cursor -= 1;
            }
            if *cursor >= n {
                *cursor = 0;
            }
        }
    }

    /// Tenants currently registered.
    #[cfg(test)]
    pub(crate) fn tenants(&self) -> usize {
        lock_state(self).tenants.len()
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
            let t = st
                .slot(job.tenant())
                .expect("a tenant with a live lease is registered");
            if st.total < self.depth && st.tenants[t].queued() < self.quota {
                let lanes = &mut st.tenants[t];
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

    /// Locks the state for an executor's pull-or-park decision.
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

    /// Parks an executor until new work (or shutdown) is signalled.
    pub(crate) fn wait_work<'a>(
        &self,
        guard: MutexGuard<'a, AdmissionState<T>>,
    ) -> MutexGuard<'a, AdmissionState<T>> {
        self.work.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Stops admission and wakes every parked client and executor.
    /// Already-queued jobs stay queued — executors drain them.
    pub(crate) fn close(&self) {
        let mut st = lock_state(self);
        st.open = false;
        drop(st);
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Jobs currently admitted but not yet taken by an executor.
    pub(crate) fn len(&self) -> usize {
        lock_state(self).total
    }

    /// Lane depths for the metrics snapshot.
    pub(crate) fn lane_depth(&self) -> LaneDepth {
        lock_state(self).lane_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;
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
            // A lease of no service: dropping it retires nothing, so these
            // tests retire tenants by hand.
            lease: Arc::new(TenantLease {
                tenant,
                shared: Weak::new(),
            }),
            priority,
            enqueued_at,
            deadline,
            reply,
        })
    }

    fn tenants_of(jobs: &[Box<Job<u64>>]) -> Vec<usize> {
        jobs.iter().map(|j| j.tenant()).collect()
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
        let heavy_count = jobs.iter().filter(|j| j.tenant() == heavy).count();
        let light_count = jobs.iter().filter(|j| j.tenant() == light).count();
        assert_eq!(jobs.len(), 12);
        assert_eq!(
            heavy_count,
            2 * light_count,
            "weight 2 drains twice the jobs of weight 1 (got {heavy_count} vs {light_count})"
        );
    }

    #[test]
    fn pulling_one_job_at_a_time_keeps_the_drr_order() {
        // Executors pull one job per refill; a visit cut short by `max`
        // must resume rather than bank a second quantum or skip ahead.
        let fill = |admission: &Admission<u64>| {
            let light = admission.register_tenant(1);
            let heavy = admission.register_tenant(2);
            for k in 0..12 {
                for tenant in [light, heavy] {
                    let items = 1000 + 300 * ((k + tenant) % 5);
                    admission
                        .push(job(tenant, Priority::Normal, items), false)
                        .unwrap();
                }
            }
        };
        let (bulk, one_by_one) = (
            Admission::new(64, usize::MAX),
            Admission::new(64, usize::MAX),
        );
        fill(&bulk);
        fill(&one_by_one);
        let (all, _) = refill_all(&bulk, 24);
        let singles: Vec<Box<Job<u64>>> =
            (0..24).flat_map(|_| refill_all(&one_by_one, 1).0).collect();
        let shape = |jobs: &[Box<Job<u64>>]| -> Vec<(usize, usize)> {
            jobs.iter().map(|j| (j.tenant(), j.data.len())).collect()
        };
        assert_eq!(shape(&singles), shape(&all));
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
    fn a_retired_tenant_leaves_and_its_id_is_not_reused() {
        let admission: Admission<u64> = Admission::new(16, usize::MAX);
        let a = admission.register_tenant(1);
        let b = admission.register_tenant(1);
        admission.push(job(b, Priority::Normal, 1), false).unwrap();
        admission.retire_tenant(a);
        assert_eq!(admission.tenants(), 1);
        let (jobs, _) = refill_all(&admission, 16);
        assert_eq!(tenants_of(&jobs), vec![b]);
        admission.retire_tenant(b);
        assert_eq!(admission.tenants(), 0);
        assert_eq!(admission.register_tenant(1), 2);
    }

    #[test]
    fn retiring_a_tenant_keeps_the_round_robin_on_the_others() {
        // Tenant 0's job is pulled first, then tenant 0 retires while a
        // lane's cursor points at or past it: the rest of the rotation
        // still runs 1, 2 — on the High lane's cursor, and on a Normal-lane
        // visit that the retirement cuts short.
        for priority in [Priority::High, Priority::Normal] {
            let admission: Admission<u64> = Admission::new(16, usize::MAX);
            let ids: Vec<usize> = (0..3).map(|_| admission.register_tenant(1)).collect();
            for &t in &ids {
                admission
                    .push(job(t, priority, DRR_QUANTUM as usize), false)
                    .unwrap();
            }
            let (first, _) = refill_all(&admission, 1);
            assert_eq!(tenants_of(&first), vec![ids[0]], "{priority:?}");
            admission.retire_tenant(ids[0]);
            let (rest, _) = refill_all(&admission, 16);
            assert_eq!(tenants_of(&rest), vec![ids[1], ids[2]], "{priority:?}");
        }
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
}
