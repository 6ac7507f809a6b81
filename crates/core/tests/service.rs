//! Stress and fault-isolation suite for the multi-tenant
//! [`cgp_core::PermutationService`].
//!
//! The scenarios here are concurrency-shaped — many client threads
//! hammering the shared admission queue while machines serve, fail and
//! recover — so CI also runs this file under `--release`, where thread
//! timings are tight enough to reproduce dispatch races that debug builds
//! never hit (same policy as the runner and session suites).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cgp_core::{
    EngineFault, MatrixBackend, PermuteOptions, Permuter, Priority, ServiceError, ServiceHandle,
};

/// The mixed job sizes the stress clients cycle through: empty, single,
/// smaller-than-p, odd, and bulky blocks all at once on the same fleet.
const SIZES: [usize; 6] = [0, 1, 7, 64, 257, 2000];

fn identity(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// One-shot references for every job size: the service must reproduce
/// these exactly (same seed ⇒ same permutation, no matter which machine
/// of the fleet serves the job or what ran on it before).
fn references(permuter: &Permuter) -> HashMap<usize, Vec<u64>> {
    SIZES
        .iter()
        .map(|&n| (n, permuter.permute(identity(n)).0))
        .collect()
}

#[test]
fn concurrent_tenants_survive_a_panicking_neighbour() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 5;
    let permuter = Permuter::new(3)
        .seed(41)
        .backend(MatrixBackend::ParallelOptimal);
    let expected = Arc::new(references(&permuter));
    let service = permuter.service_sized::<u64>(2, 4);

    let good_jobs = Arc::new(AtomicU64::new(0));
    let handles: Vec<ServiceHandle<u64>> = (0..CLIENTS).map(|_| service.handle()).collect();
    let saboteur_tenant = handles[2].tenant();

    std::thread::scope(|scope| {
        for (client, handle) in handles.iter().enumerate() {
            let expected = Arc::clone(&expected);
            let good_jobs = Arc::clone(&good_jobs);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let n = SIZES[(client + round) % SIZES.len()];
                    if client == 2 && round == 2 {
                        // The bad tenant: this job panics mid-matrix-phase
                        // inside a worker of whichever machine picked it up.
                        let opts = PermuteOptions::with_backend(MatrixBackend::ParallelOptimal)
                            .inject_fault(EngineFault::matrix_phase(1));
                        let ticket = handle
                            .submit_with(identity(2000), opts, Priority::Normal)
                            .unwrap();
                        match ticket.wait().unwrap_err() {
                            ServiceError::JobFailed(e) => {
                                assert!(
                                    e.to_string().contains("virtual processor 1 panicked"),
                                    "the fault is attributed: {e}"
                                );
                            }
                            other => panic!("unexpected error: {other}"),
                        }
                        continue;
                    }
                    let ticket = handle.submit(identity(n)).unwrap();
                    let (out, report) = ticket.wait().unwrap_or_else(|e| {
                        panic!("client {client} round {round} (n = {n}) failed: {e}")
                    });
                    assert_eq!(
                        out, expected[&n],
                        "client {client} round {round}: a neighbour's panic must not \
                         change this tenant's permutation"
                    );
                    assert_eq!(report.backend, MatrixBackend::ParallelOptimal);
                    good_jobs.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let metrics = service.shutdown();
    let good = good_jobs.load(Ordering::Relaxed);
    assert_eq!(good, (CLIENTS * ROUNDS) as u64 - 1);
    assert_eq!(metrics.jobs_served, good);
    assert_eq!(metrics.jobs_failed, 1, "exactly the sabotaged job failed");
    let saboteur = metrics
        .per_tenant
        .iter()
        .find(|t| t.tenant == saboteur_tenant)
        .expect("the saboteur has a metrics slot");
    assert_eq!(
        saboteur.jobs_failed, 1,
        "the failure is billed to its tenant"
    );
    assert_eq!(saboteur.jobs_served, (ROUNDS - 1) as u64);
    let recoveries: u64 = metrics.per_machine.iter().map(|m| m.recoveries).sum();
    assert_eq!(recoveries, 1, "one machine ran one recovery round");
    let machine_jobs: u64 = metrics.per_machine.iter().map(|m| m.jobs).sum();
    assert_eq!(machine_jobs, (CLIENTS * ROUNDS) as u64);
}

#[test]
fn blocking_submits_ride_out_backpressure_under_contention() {
    // A deliberately undersized service: one machine, a depth-2 queue and
    // eight pushy clients.  Blocking submits must park and complete without
    // deadlock or loss, and the queue must never exceed its depth.
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 6;
    let permuter = Permuter::new(2).seed(23);
    let expected = Arc::new(references(&permuter));
    let service = permuter.service_sized::<u64>(1, 2);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let handle = service.handle();
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let n = SIZES[(client * 2 + round) % SIZES.len()];
                    let (out, _) = handle.permute(identity(n)).unwrap();
                    assert_eq!(out, expected[&n], "client {client} round {round}");
                }
            });
        }
        for _ in 0..50 {
            // Admission holds at most its depth (2); the single machine's
            // deque holds at most one refill's worth, which that same depth
            // bounds — so the point-in-time sum is bounded by twice the
            // depth.
            assert!(
                service.queued_jobs() <= 4,
                "the queued-job gauge is bounded by the configured depth"
            );
            std::thread::yield_now();
        }
    });

    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_served, (CLIENTS * ROUNDS) as u64);
    assert_eq!(metrics.jobs_failed, 0);
    assert!(
        metrics.queue_wait > std::time::Duration::ZERO,
        "an oversubscribed queue shows up in the wait meter"
    );
}

#[test]
fn try_submit_retry_loops_make_progress_alongside_faults() {
    // Non-blocking clients spin on QueueFull (handing the payload back each
    // time) while a saboteur injects panics; everyone's jobs eventually land
    // and match the references.
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 4;
    let permuter = Permuter::new(2).seed(57);
    let expected = Arc::new(references(&permuter));
    let service = permuter.service_sized::<u64>(2, 1);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let handle = service.handle();
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    if client == 0 {
                        let opts =
                            PermuteOptions::default().inject_fault(EngineFault::exchange_phase(0));
                        let ticket = handle
                            .submit_with(identity(500), opts, Priority::Normal)
                            .unwrap();
                        assert!(matches!(ticket.wait(), Err(ServiceError::JobFailed(_))));
                        continue;
                    }
                    let n = SIZES[(client + round) % SIZES.len()];
                    let mut payload = identity(n);
                    let ticket = loop {
                        match handle.try_submit(payload) {
                            Ok(t) => break t,
                            Err(rejected) => {
                                assert_eq!(rejected.error, ServiceError::QueueFull);
                                payload = rejected.data;
                                std::thread::yield_now();
                            }
                        }
                    };
                    let (out, _) = ticket.wait().unwrap();
                    assert_eq!(out, expected[&n], "client {client} round {round}");
                }
            });
        }
    });

    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_served, ((CLIENTS - 1) * ROUNDS) as u64);
    assert_eq!(metrics.jobs_failed, ROUNDS as u64);
    assert!(
        metrics.per_machine.iter().all(|m| m.jobs > 0),
        "FIFO dispatch to idle machines keeps the whole fleet in rotation"
    );
}

#[test]
fn shutdown_under_load_drains_every_accepted_ticket() {
    let permuter = Permuter::new(2).seed(77);
    let service = permuter.service_sized::<u64>(2, 32);
    let handle = service.handle();
    let tickets: Vec<_> = (0..24)
        .map(|i| handle.submit(identity(SIZES[i % SIZES.len()])).unwrap())
        .collect();
    // Shut down with most of those jobs still queued: every accepted ticket
    // must still resolve successfully (drain, not drop).
    let metrics = service.shutdown();
    assert_eq!(metrics.jobs_served, 24);
    for (i, t) in tickets.into_iter().enumerate() {
        let n = SIZES[i % SIZES.len()];
        let (out, _) = t.wait().unwrap_or_else(|e| panic!("ticket {i} lost: {e}"));
        assert_eq!(out.len(), n);
    }
}
