//! Integration tests of the fused single-job pipeline: statistical
//! uniformity, matrix-phase panic recovery in a session, the word-plane
//! abort of the one-shot machine, and the zero-startup steady-state
//! property.

use cgp_cgm::{diag, CgmConfig, CgmError, CgmMachine, ProcCtx};
use cgp_core::uniformity::{recommended_samples, test_uniformity};
use cgp_core::{EngineFault, MatrixBackend, PermuteOptions, Permuter};
use cgp_matrix::sample_parallel_log_ctx;

/// `t = min(p, cores)`: the threads a session or a one-shot call plays its
/// `p` virtual processors on.
fn threads(p: usize) -> u64 {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    p.min(cores) as u64
}

/// Exhaustive chi-square uniformity of the fused path at `n = 4` for all
/// four matrix backends: every one of the `4! = 24` permutations must
/// appear with probability `1/24` (Theorem 1), now that matrix sampling
/// runs in-context on the same workers.
#[test]
fn fused_path_is_uniform_for_every_backend() {
    // p = 3 > n/2 forces small and empty blocks into the pipeline too.
    let p = 3;
    for backend in MatrixBackend::ALL {
        let report = test_uniformity(4, recommended_samples(4, 100), |rep| {
            Permuter::new(p)
                .seed(0xF05E_D000 + rep)
                .backend(backend)
                .sample_permutation(4)
        });
        assert!(
            report.is_uniform_at(0.001),
            "{backend:?} failed the exhaustive uniformity test: {report:?}"
        );
        assert!(
            report.covers_all_permutations(),
            "{backend:?} never produced some permutation: {report:?}"
        );
    }
}

/// A processor panicking **during the matrix phase** of a one-shot machine
/// job must wake its peers blocked in word-plane receives (each gets an
/// abort envelope) and be blamed as the root cause.
#[test]
fn a_matrix_phase_panic_wakes_word_plane_receives() {
    let machine = CgmMachine::new(CgmConfig::new(4).with_seed(11));
    // Processor 0 is the head of every first-round range of Algorithm 5:
    // killing it strands its peers in blocked word-plane receives, so this
    // exercises the abort on the matrix plane specifically.
    let (source, target) = (vec![25; 4], vec![25; 4]);
    let err = machine
        .try_run(|ctx: &mut ProcCtx<u64>| {
            if ctx.id() == 0 {
                panic!("matrix-phase boom");
            }
            sample_parallel_log_ctx(&mut ctx.matrix_ctx(), &source, &target)
        })
        .unwrap_err();
    match err {
        CgmError::ProcessorPanicked { proc, ref message } => {
            assert_eq!(proc, 0, "the root cause is blamed, not a woken peer");
            assert!(message.contains("matrix-phase boom"), "got: {message}");
        }
        other => panic!("unexpected error: {other}"),
    }
}

/// A fused session job that panics in its matrix phase fails alone: the
/// next call on the same session runs clean, matrix phase included, and
/// matches the one-shot path exactly.
#[test]
fn a_matrix_phase_panic_fails_one_session_call() {
    let permuter = Permuter::new(4)
        .seed(11)
        .backend(MatrixBackend::ParallelLog);
    let mut session = permuter.session::<u64>();
    let faulty = PermuteOptions::with_backend(MatrixBackend::ParallelLog)
        .inject_fault(EngineFault::matrix_phase(0));
    let mut data: Vec<u64> = (0..400).collect();
    let err = session.try_permute_with(&mut data, &faulty).unwrap_err();
    assert!(
        matches!(err, CgmError::ProcessorPanicked { proc: 0, .. }),
        "{err}"
    );

    let reference = permuter.permute((0..400u64).collect()).0;
    let (out, report) = session.permute((0..400u64).collect());
    assert_eq!(out, reference, "post-recovery permutation diverged");
    assert!(
        report.matrix_metrics.total_words_sent() > 0,
        "the recovered job's matrix phase was metered"
    );
}

/// Acceptance criterion of the fusion: at steady state, a fused
/// `ParallelOptimal` permutation on a session performs **zero thread
/// spawns and zero channel-fabric constructions** — the parallel matrix
/// backends no longer build a one-shot machine per call.  Opening the
/// session builds one fabric and spawns `t − 1` helpers, not `p` threads.
#[test]
fn steady_state_session_makes_zero_spawns_and_zero_fabrics() {
    let permuter = Permuter::new(4)
        .seed(99)
        .backend(MatrixBackend::ParallelOptimal);
    // The one-shot reference and the session build both happen before the
    // baseline snapshot.
    let reference = permuter.permute((0..2_000u64).collect()).0;
    let opened = diag::startup_counters();
    let mut session = permuter.session::<u64>();
    let built = diag::startup_counters();
    assert_eq!(built.fabric_builds, opened.fabric_builds + 1);
    assert_eq!(built.thread_spawns, opened.thread_spawns + threads(4) - 1);
    let (warmup, _) = session.permute((0..2_000u64).collect());
    assert_eq!(warmup, reference);

    let baseline = diag::startup_counters();
    for round in 0..5 {
        let (out, report) = session.permute((0..2_000u64).collect());
        assert_eq!(out, reference, "round {round} diverged");
        // The in-context matrix phase really ran …
        assert!(report.matrix_metrics.total_words_sent() > 0);
        assert!(report.matrix_rounds() > 0);
        // … and per-job metering still isolates each call.
        assert_eq!(report.max_exchange_volume(), 2 * 2_000 / 4);
    }
    let after = diag::startup_counters();
    assert_eq!(
        after.thread_spawns, baseline.thread_spawns,
        "steady-state fused permutations must spawn no threads"
    );
    assert_eq!(
        after.fabric_builds, baseline.fabric_builds,
        "steady-state fused permutations must build no channel fabrics"
    );

    // Control: the same permutation one-shot pays one fabric and t − 1
    // spawns, which is exactly what the counters measure.
    let _ = permuter.permute((0..2_000u64).collect());
    let control = diag::startup_counters();
    assert_eq!(control.fabric_builds, after.fabric_builds + 1);
    assert_eq!(control.thread_spawns, after.thread_spawns + threads(4) - 1);
}

/// The fused report's phase attribution: every backend gets a matrix-phase
/// meter (zero volume only where nothing can travel, i.e. `p = 1`), and
/// `total_elapsed` is measured wall-clock — at least each phase, but not
/// necessarily the phase sum (phases overlap).
#[test]
fn per_phase_metrics_and_total_elapsed_are_coherent() {
    for backend in MatrixBackend::ALL {
        let permuter = Permuter::new(4).seed(5).backend(backend);
        let (_, report) = permuter.permute((0..10_000u64).collect());
        assert_eq!(report.matrix_metrics.procs(), 4, "{backend:?}");
        assert!(
            report.matrix_metrics.total_words_sent() > 0,
            "{backend:?}: the fused matrix phase moves its rows over the word plane"
        );
        assert!(
            report.exchange_metrics.total_words_sent() >= 10_000,
            "{backend:?}: the data plane carries the payload"
        );
        assert!(report.total_elapsed() >= report.matrix_elapsed);
        assert!(report.total_elapsed() >= report.exchange_elapsed);

        // p = 1: a (possibly zero) meter still exists — no more `None`.
        let (_, report) = Permuter::new(1)
            .seed(5)
            .backend(backend)
            .permute((0..100u64).collect());
        assert_eq!(report.matrix_metrics.procs(), 1, "{backend:?}");
        assert_eq!(report.matrix_metrics.total_messages(), 0, "{backend:?}");
    }
}

/// Golden pin of the fused engine: the permutations below were captured
/// from the engine (seed 42, n = 32, p = 4, per backend) and must stay
/// byte-identical across refactors of the fabric underneath — the same
/// seed reproduces these vectors exactly, one-shot and via a session.
/// They were last re-recorded when the batched Fisher–Yates kernel (up to
/// six swap indices per 64-bit word) changed every seed-to-permutation map
/// by design.
#[test]
fn fused_engine_reproduces_golden_permutations() {
    let golden: [(MatrixBackend, [u64; 32]); 4] = [
        (
            MatrixBackend::Sequential,
            [
                25, 11, 10, 5, 0, 8, 31, 15, 12, 14, 20, 18, 23, 29, 22, 1, 30, 24, 28, 16, 21, 4,
                26, 19, 13, 17, 27, 6, 7, 9, 2, 3,
            ],
        ),
        (
            MatrixBackend::Recursive,
            [
                29, 31, 4, 5, 0, 1, 25, 22, 8, 10, 18, 11, 28, 26, 15, 2, 30, 24, 16, 14, 20, 12,
                21, 23, 19, 17, 27, 9, 6, 13, 3, 7,
            ],
        ),
        (
            MatrixBackend::ParallelLog,
            [
                31, 18, 8, 5, 0, 1, 20, 22, 10, 15, 25, 16, 29, 28, 23, 4, 30, 24, 21, 11, 12, 2,
                26, 14, 19, 17, 27, 9, 6, 13, 3, 7,
            ],
        ),
        (
            MatrixBackend::ParallelOptimal,
            [
                25, 18, 10, 5, 0, 8, 31, 22, 4, 15, 16, 23, 21, 29, 20, 1, 26, 30, 19, 3, 11, 2,
                28, 12, 17, 24, 27, 9, 14, 13, 7, 6,
            ],
        ),
    ];
    for (backend, expected) in golden {
        let permuter = Permuter::new(4).seed(42).backend(backend);
        assert_eq!(
            permuter.sample_permutation(32),
            expected,
            "{backend:?} one-shot diverged from the golden vector"
        );
        let mut session = permuter.session::<u64>();
        assert_eq!(
            session.sample_permutation(32),
            expected,
            "{backend:?} session diverged from the golden vector"
        );
    }
}
