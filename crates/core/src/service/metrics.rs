//! Metering for the service scheduler: per-tenant, per-executor, and
//! per-lane counters, and the snapshot type callers see.
//!
//! Every executor bills into one shared [`MetricsInner`] behind a mutex;
//! [`ServiceMetrics`] is the immutable snapshot
//! ([`crate::PermutationService::metrics`] live,
//! [`crate::PermutationService::shutdown`] final).  Job-level quantities
//! (served/failed, queue wait, run time) are kept per tenant, executor-level
//! ones (busy wall-clock, recoveries) per executor.

use std::time::Duration;

/// Rolling per-tenant counters (one slot per handle lineage, kept while the
/// tenant lives: until its last handle is dropped and its last job is
/// done).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// The tenant id (as reported by [`crate::ServiceHandle::tenant`]).
    pub tenant: usize,
    /// Jobs served successfully for this tenant.
    pub jobs_served: u64,
    /// Jobs that failed (contained panics) for this tenant.
    pub jobs_failed: u64,
    /// [`crate::Priority::Deadline`] jobs shed unrun because their budget
    /// expired before an executor could start them.  Shed jobs never ran, so
    /// they are **not** counted in [`TenantMetrics::jobs_failed`].
    pub deadline_shed: u64,
    /// Total time this tenant's jobs spent waiting between admission and
    /// the start of their run.
    pub queue_wait: Duration,
    /// Total time this tenant's jobs spent running on an executor.
    pub run_time: Duration,
}

/// Depth of the admission lanes at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneDepth {
    /// Jobs waiting in tenants' [`crate::Priority::Deadline`] lanes.
    pub deadline: usize,
    /// Jobs waiting in tenants' [`crate::Priority::High`] lanes.
    pub high: usize,
    /// Jobs waiting in tenants' [`crate::Priority::Normal`] lanes.
    pub normal: usize,
}

impl LaneDepth {
    /// Jobs waiting across all lanes.
    pub fn total(&self) -> usize {
        self.deadline + self.high + self.normal
    }
}

/// Rolling per-executor counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineUtilization {
    /// Jobs this executor completed (including failed ones — they occupied
    /// it).
    pub jobs: u64,
    /// Total wall-clock this executor spent running jobs.
    pub busy: Duration,
    /// Failed jobs this executor cleaned up after (one per contained
    /// panic).
    pub recoveries: u64,
}

impl MachineUtilization {
    /// Fraction of the service's uptime this executor spent busy.
    pub fn utilization(&self, uptime: Duration) -> f64 {
        if uptime.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / uptime.as_secs_f64()
        }
    }
}

/// A snapshot of everything the service has done so far, taken by
/// [`crate::PermutationService::metrics`] (live) or returned by
/// [`crate::PermutationService::shutdown`] (final).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Jobs served successfully, across all tenants.
    pub jobs_served: u64,
    /// Jobs that failed (contained panics), across all tenants.
    pub jobs_failed: u64,
    /// [`crate::Priority::Deadline`] jobs shed unrun (budget expired before
    /// any executor could start them), across all tenants.  Not counted in
    /// [`ServiceMetrics::jobs_failed`] — shed jobs never occupied an
    /// executor.
    pub deadline_shed: u64,
    /// Total queue wait across all jobs.
    pub queue_wait: Duration,
    /// Total executor run time across all jobs.
    pub run_time: Duration,
    /// Wall-clock since the service started (to the snapshot).
    pub uptime: Duration,
    /// Always 0: every executor pulls its jobs straight from admission, so
    /// no job is stolen.  Kept until the benchmark that reads it changes.
    pub steals: u64,
    /// Always 0: every job runs alone.  Kept until the benchmark that reads
    /// it changes.
    pub coalesced_batches: u64,
    /// Always 0: every job runs alone.  Kept until the benchmark that reads
    /// it changes.
    pub coalesced_jobs: u64,
    /// Admission-lane depths at the moment of the snapshot.
    pub lane_depth: LaneDepth,
    /// Per-executor rollups, indexed by executor.
    pub per_machine: Vec<MachineUtilization>,
    /// Per-tenant rollups of the live tenants that have completed a job,
    /// sorted by tenant id.  A tenant's slot goes once its last handle is
    /// dropped and its last job is done; the service-wide counters above
    /// keep what it did.
    pub per_tenant: Vec<TenantMetrics>,
}

impl ServiceMetrics {
    /// Jobs completed (served or failed).
    pub fn jobs_total(&self) -> u64 {
        self.jobs_served + self.jobs_failed
    }

    /// Mean queue wait per completed job.
    pub fn avg_queue_wait(&self) -> Duration {
        let jobs = self.jobs_total();
        if jobs == 0 {
            Duration::ZERO
        } else {
            self.queue_wait / jobs as u32
        }
    }

    /// Mean executor run time per completed job.
    pub fn avg_run_time(&self) -> Duration {
        let jobs = self.jobs_total();
        if jobs == 0 {
            Duration::ZERO
        } else {
            self.run_time / jobs as u32
        }
    }

    /// Aggregate served-job throughput over the service's uptime, in jobs
    /// per second.
    pub fn throughput(&self) -> f64 {
        if self.uptime.is_zero() {
            0.0
        } else {
            self.jobs_served as f64 / self.uptime.as_secs_f64()
        }
    }
}

/// The executors' shared ledger (behind `SchedShared::metrics`).
#[derive(Default)]
pub(crate) struct MetricsInner {
    pub(crate) jobs_served: u64,
    pub(crate) jobs_failed: u64,
    pub(crate) deadline_shed: u64,
    pub(crate) queue_wait: Duration,
    pub(crate) run_time: Duration,
    pub(crate) per_machine: Vec<MachineUtilization>,
    /// The live tenants' slots, sorted by tenant id: one is made by the
    /// tenant's first completed job and dropped by [`MetricsInner::retire`].
    pub(crate) per_tenant: Vec<TenantMetrics>,
}

impl MetricsInner {
    pub(crate) fn new(executors: usize) -> Self {
        MetricsInner {
            per_machine: vec![MachineUtilization::default(); executors],
            ..MetricsInner::default()
        }
    }

    /// Bills one completed job to the global and per-tenant ledgers.
    pub(crate) fn record_job(&mut self, tenant: usize, wait: Duration, run: Duration, ok: bool) {
        self.queue_wait += wait;
        self.run_time += run;
        if ok {
            self.jobs_served += 1;
        } else {
            self.jobs_failed += 1;
        }
        let t = self.tenant_slot(tenant);
        t.queue_wait += wait;
        t.run_time += run;
        if ok {
            t.jobs_served += 1;
        } else {
            t.jobs_failed += 1;
        }
    }

    /// Bills one run to an executor: its busy wall-clock, the job, and the
    /// executor's recovery count (absolute, not a delta).
    pub(crate) fn record_executor(&mut self, executor: usize, busy: Duration, recoveries: u64) {
        let slot = &mut self.per_machine[executor];
        slot.jobs += 1;
        slot.busy += busy;
        slot.recoveries = recoveries;
    }

    /// Bills one shed [`crate::Priority::Deadline`] job to the global and
    /// per-tenant shed counters (never to the failure counters: a shed job
    /// never ran).
    pub(crate) fn record_shed(&mut self, tenant: usize) {
        self.deadline_shed += 1;
        self.tenant_slot(tenant).deadline_shed += 1;
    }

    /// The tenant's slot, made on first use.
    fn tenant_slot(&mut self, tenant: usize) -> &mut TenantMetrics {
        let i = match self.per_tenant.binary_search_by_key(&tenant, |t| t.tenant) {
            Ok(i) => i,
            Err(i) => {
                let slot = TenantMetrics {
                    tenant,
                    ..TenantMetrics::default()
                };
                self.per_tenant.insert(i, slot);
                i
            }
        };
        &mut self.per_tenant[i]
    }

    /// Drops a retired tenant's slot.
    pub(crate) fn retire(&mut self, tenant: usize) {
        if let Ok(i) = self.per_tenant.binary_search_by_key(&tenant, |t| t.tenant) {
            self.per_tenant.remove(i);
        }
    }
}
