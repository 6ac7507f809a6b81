//! Scheduler-policy suite for the multi-tenant
//! [`cgp_core::PermutationService`]: fair-share admission under a flooding
//! tenant, and fault containment on the serial executors.
//!
//! The companion `service.rs` suite stresses the client surface (tickets,
//! backpressure, shutdown); this file pins down the *scheduling* layer —
//! that quotas isolate tenants, and that a panic in any phase of any
//! virtual processor of a serially replayed job fails exactly its own
//! ticket while the executor keeps serving.  CI runs it under `--release`
//! as well (same policy as the pool and session suites).

use cgp_cgm::CgmError;
use cgp_core::{
    EngineFault, MatrixBackend, PermutationService, PermuteOptions, Permuter, Priority,
    ServiceError,
};

fn identity(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
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
        .executors(1)
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
fn a_fault_on_any_virtual_processor_fails_only_its_own_ticket() {
    // Every phase that can fault, on every virtual processor, for every
    // backend and both layouts: the faulting job's ticket names the
    // processor, and the other tenant's jobs around it come back exact.
    let p = 3;
    for backend in MatrixBackend::ALL {
        for window in [None, Some(16)] {
            let mut options = PermuteOptions::with_backend(backend);
            if let Some(items) = window {
                options = options.window_items(items);
            }
            let mut permuter = Permuter::new(p).seed(127).backend(backend);
            if let Some(items) = window {
                permuter = permuter.window_items(items);
            }
            let reference = permuter.permute(identity(600)).0;
            let service = permuter.service_sized::<u64>(1, 8);
            let (saboteur, neighbour) = (service.handle(), service.handle());
            let mut faults = 0;
            for proc in 0..p {
                for fault in [
                    EngineFault::matrix_phase(proc),
                    EngineFault::exchange_phase(proc),
                ] {
                    let before = neighbour.submit(identity(600)).unwrap();
                    let faulty = saboteur
                        .submit_with(
                            identity(600),
                            options.clone().inject_fault(fault),
                            Priority::Normal,
                        )
                        .unwrap();
                    let after = neighbour.submit(identity(600)).unwrap();
                    let case = format!("{backend:?}, window {window:?}, {fault:?}");
                    match faulty.wait() {
                        Err(ServiceError::JobFailed(CgmError::ProcessorPanicked {
                            proc: blamed,
                            ..
                        })) => assert_eq!(blamed, proc, "{case}"),
                        other => panic!("{case}: unexpected outcome {other:?}"),
                    }
                    assert_eq!(before.wait().unwrap().0, reference, "{case}");
                    assert_eq!(after.wait().unwrap().0, reference, "{case}");
                    faults += 1;
                }
            }
            let metrics = service.shutdown();
            assert_eq!(metrics.jobs_failed, faults);
            assert_eq!(metrics.jobs_served, 2 * faults);
            assert_eq!(metrics.per_machine[0].recoveries, faults);
            let failed_of = |tenant: usize| {
                metrics
                    .per_tenant
                    .iter()
                    .find(|t| t.tenant == tenant)
                    .map_or(0, |t| t.jobs_failed)
            };
            assert_eq!(failed_of(saboteur.tenant()), faults);
            assert_eq!(failed_of(neighbour.tenant()), 0);
        }
    }
}
