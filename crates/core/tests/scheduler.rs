//! Scheduler-policy suite for the multi-tenant
//! [`cgp_core::PermutationService`]: fair-share admission under a flooding
//! tenant, work-stealing and coalescing seed-equivalence, and mid-batch
//! fault containment.
//!
//! The companion `service.rs` suite stresses the client surface (tickets,
//! backpressure, shutdown); this file pins down the *scheduling* layer —
//! that quotas isolate tenants, that where and how a job runs (home deque,
//! stolen, coalesced) never changes its permutation, and that a panic
//! inside a coalesced batch fails exactly one ticket.  CI runs it under
//! `--release` as well (same policy as the pool and session suites).

use cgp_core::{
    EngineFault, MatrixBackend, PermutationService, PermuteOptions, Permuter, Priority,
    ServiceHandle, ServiceMetrics,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

fn identity(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// Polls until every queued job has been picked up by a machine (the
/// admission buffer and deques are empty).  Used to stage jobs onto
/// specific machines deterministically.
fn drain_queues<T: Send + 'static>(service: &PermutationService<T>) {
    while service.queued_jobs() > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn a_flooding_tenant_cannot_starve_quotad_peers() {
    const FLOOD_JOBS: usize = 20;
    const VICTIM_JOBS: usize = 8;
    let permuter = Permuter::new(2).seed(61);
    let flood_reference = permuter.permute(identity(2000)).0;
    let victim_reference = permuter.permute(identity(500)).0;
    // One machine, a deep-ish buffer, and a tight per-tenant quota: the
    // flooder's blocking submits park on its own quota, leaving the rest
    // of the buffer to the quiet tenants.
    let config = permuter
        .service_config()
        .machines(1)
        .queue_depth(8)
        .tenant_quota(2);
    let service: PermutationService<u64> =
        PermutationService::new(config, PermuteOptions::default());
    let flooder = service.handle();
    let victims = [service.handle(), service.handle()];
    let flooder_tenant = flooder.tenant();

    std::thread::scope(|scope| {
        let flood_reference = &flood_reference;
        scope.spawn(move || {
            for round in 0..FLOOD_JOBS {
                let (out, _) = flooder.permute(identity(2000)).unwrap();
                assert_eq!(out, *flood_reference, "flooder round {round}");
            }
        });
        for (v, victim) in victims.iter().enumerate() {
            let victim_reference = &victim_reference;
            scope.spawn(move || {
                for round in 0..VICTIM_JOBS {
                    let (out, _) = victim.permute(identity(500)).unwrap();
                    assert_eq!(out, *victim_reference, "victim {v} round {round}");
                }
            });
        }
    });

    let metrics = service.shutdown();
    assert_eq!(
        metrics.jobs_served,
        (FLOOD_JOBS + 2 * VICTIM_JOBS) as u64,
        "every tenant's jobs completed despite the flood"
    );
    assert_eq!(metrics.jobs_failed, 0);
    // Billing: per-tenant ledgers partition the global one exactly.
    let slot = |tenant: usize| {
        metrics
            .per_tenant
            .iter()
            .find(|t| t.tenant == tenant)
            .expect("tenant has a metrics slot")
    };
    assert_eq!(slot(flooder_tenant).jobs_served, FLOOD_JOBS as u64);
    for victim in &victims {
        assert_eq!(slot(victim.tenant()).jobs_served, VICTIM_JOBS as u64);
    }
    let tenant_sum: u64 = metrics.per_tenant.iter().map(|t| t.jobs_served).sum();
    assert_eq!(tenant_sum, metrics.jobs_served);
    assert!(
        metrics.queue_wait > std::time::Duration::ZERO,
        "an oversubscribed machine shows up in the wait meter"
    );
}

#[test]
fn stolen_jobs_match_their_one_shot_permutation_for_every_backend() {
    const MEDIUM_JOBS: usize = 12;
    let mut total_steals = 0;
    for backend in MatrixBackend::ALL {
        let permuter = Permuter::new(2).seed(83).backend(backend);
        let stall_reference = permuter.permute(identity(150_000)).0;
        let medium_reference = permuter.permute(identity(4000)).0;
        // Coalescing off: every job is its own deque entry, so the backlog
        // is stealable job by job.
        let config = permuter
            .service_config()
            .machines(2)
            .queue_depth(MEDIUM_JOBS + 2)
            .coalesce_budget(0);
        let service: PermutationService<u64> =
            PermutationService::new(config, PermuteOptions::with_backend(backend));
        let handle = service.handle();

        // Stage: occupy both machines with one long job each, so the
        // medium backlog accumulates in admission...
        let stall_a = handle.submit(identity(150_000)).unwrap();
        drain_queues(&service);
        let stall_b = handle.submit(identity(150_000)).unwrap();
        drain_queues(&service);
        // ...then whichever machine frees first refills the *entire*
        // backlog into its own deque (the refill is atomic under the
        // admission lock), and the other machine — finding admission
        // empty — must steal its share back.
        let mediums: Vec<_> = (0..MEDIUM_JOBS)
            .map(|_| handle.submit(identity(4000)).unwrap())
            .collect();

        assert_eq!(stall_a.wait().unwrap().0, stall_reference);
        assert_eq!(stall_b.wait().unwrap().0, stall_reference);
        for (k, ticket) in mediums.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().unwrap().0,
                medium_reference,
                "{backend:?} job {k}: home, stolen or requeued, the \
                 permutation is pinned by the seed"
            );
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, (MEDIUM_JOBS + 2) as u64);
        let machine_jobs: u64 = metrics.per_machine.iter().map(|m| m.jobs).sum();
        assert_eq!(machine_jobs, metrics.jobs_served);
        total_steals += metrics.steals;
    }
    // Aggregated across the four backends so one lucky scheduling round
    // cannot flake the suite; the staging above makes steals overwhelmingly
    // likely in each.
    assert!(
        total_steals > 0,
        "the idle machine steals backlog instead of parking"
    );
}

/// Stall sizes tried by [`behind_a_stall`]: 200 000 items, then 4x and
/// 16x that.
const STALL_ATTEMPTS: u32 = 3;

/// Runs `queue` on a fresh single-machine service while a long job occupies
/// the machine, so the jobs `queue` submits pile up behind it and reach the
/// machine as one refill.  The stall's options differ from the default (a
/// pinned backend), so it never coalesces with them, and `queue` starts
/// only once the machine has taken the stall, so no queued job can join
/// the stall's refill.
///
/// The stall must outlast the queuing.  When it has already finished once
/// `queue` returns (a fast engine, a busy host), the round is redone on a
/// new service with a 4x larger stall, up to [`STALL_ATTEMPTS`] times.
/// Returns what `queue` returned and the drained service's metrics.
fn behind_a_stall<Q>(
    permuter: &Permuter,
    queue_depth: usize,
    queue: impl Fn(&ServiceHandle<u64>) -> Q,
) -> (Q, ServiceMetrics) {
    let stall_opts = PermuteOptions::with_backend(MatrixBackend::Sequential);
    for attempt in 0..STALL_ATTEMPTS {
        let service = permuter.service_sized::<u64>(1, queue_depth);
        let handle = service.handle();
        let stall = handle
            .submit_with(
                identity(200_000 << (2 * attempt)),
                stall_opts.clone(),
                Priority::Normal,
            )
            .unwrap();
        drain_queues(&service);
        let queued = queue(&handle);
        let outlasted = !stall.is_done();
        let metrics = service.shutdown();
        stall.wait().unwrap();
        if outlasted {
            return (queued, metrics);
        }
    }
    panic!("every stall finished before the jobs behind it were queued");
}

#[test]
fn coalesced_service_jobs_match_one_shot_and_are_metered() {
    const TINY_JOBS: usize = 10;
    let permuter = Permuter::new(2).seed(101);
    let tiny_reference = permuter.permute(identity(64)).0;

    // The tiny jobs pile up behind the stall and arrive on the deque as one
    // refill: consecutive, compatible, and far under the byte budget — one
    // fenced batch.
    let (tickets, metrics) = behind_a_stall(&permuter, TINY_JOBS + 2, |handle| {
        (0..TINY_JOBS)
            .map(|_| handle.submit(identity(64)).unwrap())
            .collect::<Vec<_>>()
    });
    for (k, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket.wait().unwrap().0,
            tiny_reference,
            "job {k}: coalescing is invisible in the permutation"
        );
    }
    assert_eq!(metrics.jobs_served, (TINY_JOBS + 1) as u64);
    assert_eq!(metrics.coalesced_jobs, TINY_JOBS as u64);
    assert_eq!(
        metrics.coalesced_batches, 1,
        "the whole tiny backlog ran as one batch"
    );
    assert_eq!(metrics.per_machine[0].coalesced_jobs, TINY_JOBS as u64);
}

#[test]
fn a_mid_batch_panic_fails_only_the_faulting_ticket() {
    let permuter = Permuter::new(2).seed(107);
    let tiny_reference = permuter.permute(identity(64)).0;

    // Stage one coalesced batch of four tiny jobs behind a stall; the
    // second job of the batch panics mid-matrix-phase.  Injected faults do
    // not break coalescing compatibility — a faulty job must be contained
    // *inside* a batch, not quarantined out of one.
    let ((clean_before, poisoned, clean_after), metrics) = behind_a_stall(&permuter, 8, |handle| {
        let clean_before = handle.submit(identity(64)).unwrap();
        let poisoned = handle
            .submit_with(
                identity(64),
                PermuteOptions::default().inject_fault(EngineFault::matrix_phase(1)),
                Priority::Normal,
            )
            .unwrap();
        let clean_after: Vec<_> = (0..2)
            .map(|_| handle.submit(identity(64)).unwrap())
            .collect();
        (clean_before, poisoned, clean_after)
    });

    assert_eq!(clean_before.wait().unwrap().0, tiny_reference);
    assert!(
        matches!(
            poisoned.wait().unwrap_err(),
            cgp_core::ServiceError::JobFailed(_)
        ),
        "exactly the faulting job's ticket fails"
    );
    for (k, ticket) in clean_after.into_iter().enumerate() {
        assert_eq!(
            ticket.wait().unwrap().0,
            tiny_reference,
            "job {k} behind the panic was requeued and served clean"
        );
    }
    assert_eq!(metrics.jobs_served, 4, "stall + three clean tinies");
    assert_eq!(metrics.jobs_failed, 1);
    assert_eq!(metrics.per_machine[0].recoveries, 1, "one recovery round");
    assert_eq!(
        metrics.coalesced_jobs, 4,
        "two in the faulting batch (one served, one failed), two requeued"
    );
    assert_eq!(metrics.coalesced_batches, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine-level seed equivalence under arbitrary shapes: a batched
    /// [`cgp_core::try_permute_batch_into_with`] run produces byte-for-byte
    /// the outputs of the same jobs run solo, back to back, on an
    /// identically configured pool — including empty jobs, `n < p`, and
    /// single-job batches.
    #[test]
    fn batched_runs_equal_solo_runs_for_arbitrary_shapes(
        procs in 1usize..=4,
        seed in any::<u64>(),
        backend_index in 0usize..4,
        sizes in prop_vec(0usize..150, 1..6),
    ) {
        use cgp_cgm::{CgmConfig, ResidentCgm};
        use cgp_core::{try_permute_batch_into_with, try_permute_vec_into_with};
        use cgp_core::{BatchOutcome, PermuteScratch};

        let backend = MatrixBackend::ALL[backend_index];
        let config = CgmConfig::new(procs).with_seed(seed);
        let jobs: Vec<(Vec<u64>, PermuteOptions)> = sizes
            .iter()
            .map(|&n| (identity(n), PermuteOptions::with_backend(backend)))
            .collect();

        let mut solo_pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let mut solo_scratch = PermuteScratch::new();
        let mut solo_outputs = Vec::new();
        for (data, options) in &jobs {
            let mut data = data.clone();
            try_permute_vec_into_with(&mut solo_pool, &mut data, options, &mut solo_scratch)
                .unwrap();
            solo_outputs.push(data);
        }

        let mut batch_pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let mut scratches = Vec::new();
        let outcomes =
            try_permute_batch_into_with(&mut batch_pool, jobs, &mut scratches).unwrap();
        for (k, (outcome, solo)) in outcomes.into_iter().zip(solo_outputs).enumerate() {
            match outcome {
                BatchOutcome::Done { data, .. } => {
                    prop_assert_eq!(data, solo, "job {} diverged from solo", k);
                }
                other => panic!("job {k}: unexpected outcome {other:?}"),
            }
        }
    }
}
