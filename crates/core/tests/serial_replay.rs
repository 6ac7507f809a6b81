//! Serial replay == threaded run, byte for byte.
//!
//! A [`cgp_core::PermutationService`] executor runs each job's `p` virtual
//! processors one after another on its own thread, phase by phase.  Every
//! random stream is derived per virtual processor from the seed, so the
//! permutation must be exactly the threaded one-shot run's, and so must
//! the metered communication.  This battery checks that over a grid of
//! machine sizes, payload sizes (empty, one item, fewer items than
//! processors, one per processor, odd and larger), every matrix backend,
//! even and uneven target blocks, both layouts (the Fisher–Yates path and
//! the one scatter level, forced at small `n` through tiny windows), and
//! two item types: `u64`, and an item that counts its drops.  One
//! release-only case runs the default layout at 2^24 items, where the
//! scatter's buckets grow past one window.
//!
//! A replay that visits the processors in any other order than by id
//! cannot pass: the word plane loops back, and a processor that receives
//! before its sender ran panics.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use cgp_cgm::{CgmConfig, CgmMachine};
use cgp_core::{permute_vec, MatrixBackend, PermuteOptions, Permuter};

const SEED: u64 = 0x5E71_A1ED;
const PROCS: [usize; 5] = [1, 2, 3, 5, 8];
/// `None` keeps the layout rule (the Fisher–Yates path at these sizes);
/// the small windows force the one scatter level on every block larger
/// than one window.
const WINDOWS: [Option<usize>; 3] = [None, Some(1), Some(16)];

fn sizes(p: usize) -> [usize; 6] {
    [0, 1, p - 1, p, 257, 4099]
}

/// Even blocks, or uneven ones: half of block 0 moved to the last block.
fn target_sizes(n: usize, p: usize, uneven: bool) -> Option<Vec<u64>> {
    if !uneven || p == 1 {
        return None;
    }
    let mut sizes: Vec<u64> = (0..p)
        .map(|j| ((j + 1) * n / p - j * n / p) as u64)
        .collect();
    let moved = sizes[0] / 2;
    sizes[0] -= moved;
    sizes[p - 1] += moved;
    Some(sizes)
}

fn options(
    backend: MatrixBackend,
    window: Option<usize>,
    targets: Option<Vec<u64>>,
) -> PermuteOptions {
    let mut options = PermuteOptions::with_backend(backend);
    if let Some(items) = window {
        options = options.window_items(items);
    }
    if let Some(sizes) = targets {
        options = options.target_sizes(sizes);
    }
    options
}

/// Every case of the grid for `p`: (n, backend, window, uneven).
fn cases(p: usize) -> impl Iterator<Item = (usize, MatrixBackend, Option<usize>, bool)> {
    sizes(p).into_iter().flat_map(|n| {
        MatrixBackend::ALL.into_iter().flat_map(move |backend| {
            WINDOWS.into_iter().flat_map(move |window| {
                [false, true].map(move |uneven| (n, backend, window, uneven))
            })
        })
    })
}

#[test]
fn service_jobs_equal_threaded_one_shot_runs() {
    for p in PROCS {
        let config = CgmConfig::new(p).with_seed(SEED);
        let machine = CgmMachine::new(config);
        let permuter = Permuter::new(p).seed(SEED);
        let service = permuter.service_sized::<u64>(1, 4);
        let handle = service.handle();
        let mut jobs = 0;
        for (n, backend, window, uneven) in cases(p) {
            let case = format!("p = {p}, n = {n}, {backend:?}, window {window:?}, uneven {uneven}");
            let options = options(backend, window, target_sizes(n, p, uneven));
            let data: Vec<u64> = (0..n as u64).collect();
            let (threaded, threaded_report) = permute_vec(&machine, data.clone(), &options);
            let (serial, serial_report) = handle.permute_with(data, options.clone()).unwrap();
            assert_eq!(serial, threaded, "{case}");
            if !uneven && window.is_none() {
                let facade = permuter.clone().backend(backend);
                assert_eq!(serial, facade.permute((0..n as u64).collect()).0, "{case}");
            }
            // The same words and messages per virtual processor, on both
            // planes, and the same supersteps and barriers.
            assert_eq!(
                serial_report.exchange_metrics.per_proc, threaded_report.exchange_metrics.per_proc,
                "exchange metering: {case}"
            );
            assert_eq!(
                serial_report.matrix_metrics.per_proc, threaded_report.matrix_metrics.per_proc,
                "matrix metering: {case}"
            );
            assert_eq!(serial_report.backend, backend, "{case}");
            jobs += 1;
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_served, jobs);
        assert_eq!(metrics.jobs_failed, 0);
    }
}

/// An item that is neither `Clone` nor `Copy` and counts its live
/// instances, so a lost or doubly dropped item shows.
#[derive(Debug)]
struct Tracked {
    id: u64,
    live: Arc<AtomicI64>,
}

impl Tracked {
    fn batch(live: &Arc<AtomicI64>, n: usize) -> Vec<Tracked> {
        live.fetch_add(n as i64, Ordering::SeqCst);
        (0..n as u64)
            .map(|id| Tracked {
                id,
                live: Arc::clone(live),
            })
            .collect()
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn drop_counting_items_replay_like_u64() {
    for p in PROCS {
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(SEED));
        let service = Permuter::new(p).seed(SEED).service_sized::<Tracked>(1, 4);
        let handle = service.handle();
        let live = Arc::new(AtomicI64::new(0));
        for (n, backend, window, uneven) in cases(p) {
            let case = format!("p = {p}, n = {n}, {backend:?}, window {window:?}, uneven {uneven}");
            let options = options(backend, window, target_sizes(n, p, uneven));
            let (threaded, _) = permute_vec(&machine, Tracked::batch(&live, n), &options);
            let (serial, _) = handle
                .permute_with(Tracked::batch(&live, n), options)
                .unwrap();
            let ids = |items: &[Tracked]| items.iter().map(|t| t.id).collect::<Vec<_>>();
            assert_eq!(ids(&serial), ids(&threaded), "{case}");
            assert_eq!(live.load(Ordering::SeqCst), 2 * n as i64, "{case}");
            drop((serial, threaded));
            assert_eq!(live.load(Ordering::SeqCst), 0, "{case}");
        }
        service.shutdown();
    }
}

/// The default layout at 2^24 `u64` and p = 2, where buckets grow past one
/// window to keep runs long (128 virtual targets of 2^17 items): a threaded
/// one-shot run, a session and the serial replay agree byte for byte, and
/// the output is a permutation.
#[test]
#[cfg_attr(debug_assertions, ignore = "2^24 items: run it in a release build")]
fn the_default_layout_at_scale_replays_like_threads() {
    const N: u64 = 1 << 24;
    let permuter = Permuter::new(2).seed(SEED);
    let (threaded, _) = permuter.permute((0..N).collect::<Vec<u64>>());
    let mut seen = vec![false; N as usize];
    for &x in &threaded {
        assert!(!std::mem::replace(&mut seen[x as usize], true), "{x} twice");
    }
    drop(seen);

    let mut session = permuter.session::<u64>();
    let mut data: Vec<u64> = (0..N).collect();
    session.permute_into(&mut data);
    session.shutdown();
    assert!(
        data == threaded,
        "the session differs from the one-shot run"
    );
    drop(data);

    let service = permuter.service_sized::<u64>(1, 1);
    let (serial, _) = service.handle().permute((0..N).collect()).unwrap();
    service.shutdown();
    assert!(
        serial == threaded,
        "the serial replay differs from the one-shot run"
    );
}
