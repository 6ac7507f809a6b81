//! Drop accounting of the direct-placement engine.
//!
//! While a run is in flight the engine holds the caller's vector and its
//! spare buffer as raw storage (see the `parallel` module docs).  These
//! tests permute a payload that records every drop per item and check the
//! hand-off's contract: a completed permutation keeps every item alive
//! exactly once; a failed one may leak items but never drops one twice —
//! on the threaded path and on the serial replay a service executor runs.
//! Jobs forced onto small windows run the one scatter level, where an
//! exchange fault fires with the worker's first window already copied out, so its
//! items sit bitwise in both buffers.

use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::Arc;

use cgp_cgm::{CgmConfig, CgmError, CgmMachine, ResidentCgm};
use cgp_core::{
    permute_vec, permute_vec_into, try_permute_vec_into_with, EngineFault, PermuteOptions,
    PermuteScratch, Permuter, Priority, ServiceError,
};

/// Live instances and per-item drop counts of one test's payload.
struct Ledger {
    live: AtomicI64,
    drops: Vec<AtomicU32>,
}

impl Ledger {
    fn new(items: usize) -> Arc<Self> {
        Arc::new(Ledger {
            live: AtomicI64::new(0),
            drops: (0..items).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    fn live(&self) -> i64 {
        self.live.load(Ordering::SeqCst)
    }

    fn drops(&self, id: usize) -> u32 {
        self.drops[id].load(Ordering::SeqCst)
    }

    /// Items `ids` as payload (neither `Clone` nor `Copy`).
    fn items(self: &Arc<Self>, ids: std::ops::Range<usize>) -> Vec<Counted> {
        ids.map(|id| {
            self.live.fetch_add(1, Ordering::SeqCst);
            Counted {
                id,
                ledger: Arc::clone(self),
            }
        })
        .collect()
    }

    fn assert_never_dropped_twice(&self) {
        for id in 0..self.drops.len() {
            assert!(self.drops(id) <= 1, "item {id} was dropped twice");
        }
    }
}

#[derive(Debug)]
struct Counted {
    id: usize,
    ledger: Arc<Ledger>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.ledger.live.fetch_sub(1, Ordering::SeqCst);
        self.ledger.drops[self.id].fetch_add(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ledger({} live)", self.live())
    }
}

fn sorted_ids(items: &[Counted]) -> Vec<usize> {
    let mut ids: Vec<usize> = items.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids
}

/// Both layouts: the default rule, which takes the Fisher–Yates path at
/// these sizes, and 8-item windows, with which every job of more than 8
/// items per block runs the one scatter level.
const WINDOWS: [Option<usize>; 2] = [None, Some(8)];

/// Default options, or options forcing `window`-item windows.
fn layout(window: Option<usize>) -> PermuteOptions {
    match window {
        Some(items) => PermuteOptions::default().window_items(items),
        None => PermuteOptions::default(),
    }
}

#[test]
fn a_completed_permutation_keeps_every_item_alive_exactly_once() {
    for window in WINDOWS {
        for (p, n) in [(1usize, 50usize), (2, 0), (3, 1), (3, 500), (5, 1_001)] {
            let case = format!("window {window:?}, p = {p}, n = {n}");
            let ledger = Ledger::new(n);
            let options = layout(window);

            // One-shot, then twice through a warm pool scratch.
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(3));
            let mut data = ledger.items(0..n);
            let mut scratch = PermuteScratch::new();
            permute_vec_into(&machine, &mut data, &options, &mut scratch);
            let mut pool: ResidentCgm<Counted> = ResidentCgm::new(CgmConfig::new(p).with_seed(3));
            for _ in 0..2 {
                try_permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch).unwrap();
                assert_eq!(ledger.live(), n as i64, "{case}");
                assert_eq!(sorted_ids(&data), (0..n).collect::<Vec<_>>(), "{case}");
            }
            // The spare holds no items: dropping it drops nothing.
            drop(scratch);
            drop(pool);
            assert_eq!(ledger.live(), n as i64, "{case}");
            (0..n).for_each(|id| assert_eq!(ledger.drops(id), 0, "{case}"));

            drop(data);
            assert_eq!(ledger.live(), 0, "{case}");
            (0..n).for_each(|id| assert_eq!(ledger.drops(id), 1, "{case}"));
        }
    }
}

#[test]
fn a_session_and_a_service_keep_every_item_alive_exactly_once() {
    let ledger = Ledger::new(900);
    let permuter = Permuter::new(3).seed(8).window_items(8);
    let mut session = permuter.session::<Counted>();
    let (out, _) = session.permute(ledger.items(0..300));
    assert_eq!(sorted_ids(&out), (0..300).collect::<Vec<_>>());
    drop(session);

    let service = permuter.service_sized::<Counted>(1, 4);
    let handle = service.handle();
    let served: Vec<Vec<Counted>> = [300..600, 600..900]
        .into_iter()
        .map(|ids| handle.permute(ledger.items(ids)).unwrap().0)
        .collect();
    drop(service.shutdown());
    assert_eq!(ledger.live(), 900);
    drop(out);
    drop(served);
    assert_eq!(ledger.live(), 0);
    (0..900).for_each(|id| assert_eq!(ledger.drops(id), 1));
}

#[test]
fn a_failed_permutation_never_drops_an_item_twice() {
    for window in WINDOWS {
        for fault in [EngineFault::exchange_phase(1), EngineFault::matrix_phase(2)] {
            let n = 600;
            let ledger = Ledger::new(n);
            let options = layout(window).inject_fault(fault);
            let mut pool: ResidentCgm<Counted> = ResidentCgm::new(CgmConfig::new(3).with_seed(4));
            let mut scratch = PermuteScratch::new();
            let mut data = ledger.items(0..n);
            let err = try_permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch)
                .unwrap_err();
            assert!(matches!(err, CgmError::ProcessorPanicked { .. }), "{err}");
            assert!(
                data.is_empty(),
                "the failed job's items are not handed back"
            );
            ledger.assert_never_dropped_twice();

            // The pool and scratch go on to serve a clean job.
            let clean = layout(window);
            let fresh = Ledger::new(n);
            let mut data = fresh.items(0..n);
            try_permute_vec_into_with(&mut pool, &mut data, &clean, &mut scratch).unwrap();
            assert_eq!(sorted_ids(&data), (0..n).collect::<Vec<_>>());

            drop((data, scratch, pool));
            // Leaked, not dropped: the failed job's items may stay live.
            ledger.assert_never_dropped_twice();
            assert_eq!(
                ledger.live(),
                (0..n).filter(|&id| ledger.drops(id) == 0).count() as i64
            );
            assert_eq!(fresh.live(), 0);
            (0..n).for_each(|id| assert_eq!(fresh.drops(id), 1));
        }
    }
}

#[test]
fn a_panic_mid_scatter_never_drops_an_item_twice() {
    let n = 500;
    let options = PermuteOptions::default().window_items(8);
    for p in [2usize, 3] {
        for proc in 0..p {
            let case = format!("p = {p}, fault on {proc}");
            let config = CgmConfig::new(p).with_seed(21);
            let ledger = Ledger::new(n);
            let mut pool: ResidentCgm<Counted> = ResidentCgm::new(config);
            let mut scratch = PermuteScratch::new();
            let mut data = ledger.items(0..n);
            let faulty = options
                .clone()
                .inject_fault(EngineFault::exchange_phase(proc));
            let err =
                try_permute_vec_into_with(&mut pool, &mut data, &faulty, &mut scratch).unwrap_err();
            match err {
                CgmError::ProcessorPanicked {
                    proc: blamed,
                    ref message,
                } => {
                    assert_eq!(blamed, proc, "{case}");
                    assert!(message.contains("mid-scatter"), "{case}: {message}");
                }
                other => panic!("{case}: unexpected error {other}"),
            }
            assert!(data.is_empty(), "{case}");
            ledger.assert_never_dropped_twice();

            // The pool's next job succeeds, keeps every item alive exactly
            // once and matches a fresh one-shot run.
            let fresh = Ledger::new(n);
            let mut data = fresh.items(0..n);
            try_permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch).unwrap();
            assert_eq!(fresh.live(), n as i64, "{case}");
            let reference =
                permute_vec(&CgmMachine::new(config), (0..n as u64).collect(), &options).0;
            let ids: Vec<u64> = data.iter().map(|c| c.id as u64).collect();
            assert_eq!(ids, reference, "{case}");

            drop((data, scratch, pool));
            // Leaked, not dropped: the failed job's items may stay live.
            ledger.assert_never_dropped_twice();
            assert_eq!(
                ledger.live(),
                (0..n).filter(|&id| ledger.drops(id) == 0).count() as i64,
                "{case}"
            );
            assert_eq!(fresh.live(), 0, "{case}");
            (0..n).for_each(|id| assert_eq!(fresh.drops(id), 1, "{case}"));
        }
    }
}

#[test]
fn a_panic_mid_scatter_on_the_serial_path_never_drops_an_item_twice() {
    let n = 500;
    for p in [2usize, 3] {
        let permuter = Permuter::new(p).seed(21).window_items(8);
        let reference = permuter.permute((0..n as u64).collect()).0;
        let service = permuter.service_sized::<Counted>(1, 4);
        let handle = service.handle();
        for proc in 0..p {
            let case = format!("p = {p}, fault on {proc}");
            let ledger = Ledger::new(n);
            let faulty = PermuteOptions::default()
                .window_items(8)
                .inject_fault(EngineFault::exchange_phase(proc));
            let ticket = handle
                .submit_with(ledger.items(0..n), faulty, Priority::Normal)
                .unwrap();
            match ticket.wait() {
                Err(ServiceError::JobFailed(CgmError::ProcessorPanicked {
                    proc: blamed,
                    ref message,
                })) => {
                    assert_eq!(blamed, proc, "{case}");
                    assert!(message.contains("mid-scatter"), "{case}: {message}");
                }
                other => panic!("{case}: unexpected outcome {other:?}"),
            }
            ledger.assert_never_dropped_twice();

            // The executor's next job succeeds, keeps every item alive
            // exactly once and matches the one-shot run.
            let fresh = Ledger::new(n);
            let (data, _) = handle.permute(fresh.items(0..n)).unwrap();
            assert_eq!(fresh.live(), n as i64, "{case}");
            let ids: Vec<u64> = data.iter().map(|c| c.id as u64).collect();
            assert_eq!(ids, reference, "{case}");
            drop(data);
            assert_eq!(fresh.live(), 0, "{case}");
            (0..n).for_each(|id| assert_eq!(fresh.drops(id), 1, "{case}"));

            // Leaked, not dropped: the failed job's items may stay live.
            ledger.assert_never_dropped_twice();
            assert_eq!(
                ledger.live(),
                (0..n).filter(|&id| ledger.drops(id) == 0).count() as i64,
                "{case}"
            );
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_failed, p as u64);
        assert_eq!(metrics.per_machine[0].recoveries, p as u64);
    }
}
