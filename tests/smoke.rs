//! Workspace smoke test: one end-to-end assertion on the advertised API,
//! independent of the per-crate suites. If this passes, the facade crate,
//! the CGM simulator, the matrix samplers and Algorithm 1 are all wired
//! together correctly.

use cgp::{
    apply_permutation, permute_vec, CgmConfig, CgmError, CgmMachine, MatrixBackend, PermuteOptions,
    PermuteScratch, Permuter,
};

#[test]
fn permute_vec_round_trips_and_is_deterministic() {
    let machine = CgmMachine::new(CgmConfig::new(8).with_seed(42));
    let options = PermuteOptions::with_backend(MatrixBackend::ParallelOptimal);
    let data: Vec<u64> = (0..10_000).collect();

    let (out, report) = permute_vec(&machine, data.clone(), &options);

    // Output is a permutation of the input (same multiset, same length).
    let mut sorted = out.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, data, "output must be a permutation of the input");
    // With n = 10_000 the identity permutation has probability 1/n!.
    assert_ne!(out, data, "a uniform permutation is not the identity");
    // Theorem 1 balance: every processor's exchange volume stays O(n/p).
    assert!(report.max_exchange_volume() <= 2 * 10_000 / 8 + 16);

    // Deterministic under a fixed machine seed.
    let (again, _) = permute_vec(&machine, data.clone(), &options);
    assert_eq!(out, again, "same seed must reproduce the same permutation");

    // A different seed gives a different permutation.
    let other = CgmMachine::new(CgmConfig::new(8).with_seed(43));
    let (different, _) = permute_vec(&other, data.clone(), &options);
    assert_ne!(out, different, "different seeds must diverge");
}

#[test]
fn permuter_facade_round_trips_every_backend() {
    for backend in MatrixBackend::ALL {
        let permuter = Permuter::new(4).seed(7).backend(backend);
        let data: Vec<u64> = (0..1_000).collect();
        let (shuffled, _report) = permuter.permute(data.clone());
        let mut sorted = shuffled;
        sorted.sort_unstable();
        assert_eq!(sorted, data, "backend {backend:?} must permute losslessly");
    }
}

#[test]
fn exchange_is_move_based_so_clone_is_not_required() {
    // A payload that is Send but NOT Clone flows through the advertised API.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Receipt(Box<u64>);
    let permuter = Permuter::new(4).seed(3);
    let data: Vec<Receipt> = (0..800).map(|i| Receipt(Box::new(i))).collect();
    let (mut out, _) = permuter.permute(data);
    out.sort();
    assert_eq!(
        out,
        (0..800).map(|i| Receipt(Box::new(i))).collect::<Vec<_>>()
    );
}

#[test]
fn resident_session_matches_the_one_shot_path_and_recovers_from_panics() {
    // The steady-state tier: a machine with parked helpers + recycled
    // buffers.
    let permuter = Permuter::new(4).seed(2024);
    let reference = permuter.permute((0..2_000u64).collect()).0;
    let mut session = permuter.session::<u64>();
    for round in 0..5 {
        let (out, report) = session.permute((0..2_000u64).collect());
        assert_eq!(out, reference, "round {round} diverged from one-shot");
        assert!(report.max_exchange_volume() <= 2 * 2_000 / 4);
    }

    // The session survives a panicking job and names the culprit.
    let faulty = PermuteOptions::default().inject_fault(cgp::core::EngineFault::exchange_phase(1));
    let mut data: Vec<u64> = (0..2_000).collect();
    let err = session.try_permute_with(&mut data, &faulty).unwrap_err();
    assert!(
        matches!(err, CgmError::ProcessorPanicked { proc: 1, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("virtual processor 1"));
    let (out, _) = session.permute((0..2_000u64).collect());
    assert_eq!(out, reference, "the session is usable after a panicked job");
    session.shutdown();
}

#[test]
fn permute_into_reuses_buffers_and_matches_the_one_shot_path() {
    let permuter = Permuter::new(8)
        .seed(42)
        .backend(MatrixBackend::ParallelOptimal);
    let reference = permuter.permute((0..5_000u64).collect()).0;

    let mut scratch = PermuteScratch::new();
    for round in 0..3 {
        let mut data: Vec<u64> = (0..5_000).collect();
        let report = permuter.permute_into(&mut data, &mut scratch);
        assert_eq!(data, reference, "round {round} diverged from permute()");
        assert!(report.max_exchange_volume() <= 2 * 5_000 / 8 + 16);
    }
    assert!(scratch.retained_capacity() >= 5_000);
}

#[test]
fn index_permutation_fast_path_round_trips() {
    // Sample once in parallel, gather locally — for payloads that cannot or
    // should not travel through the exchange.
    let permuter = Permuter::new(4).seed(11);
    let perm = permuter.sample_permutation(1_000);
    let payload: Vec<String> = (0..1_000).map(|i| format!("row-{i}")).collect();
    let gathered = apply_permutation(&perm, payload.clone());
    let mut sorted = gathered.clone();
    sorted.sort();
    let mut expected = payload;
    expected.sort();
    assert_eq!(sorted, expected);
    assert_eq!(
        gathered,
        apply_permutation(&perm, (0..1_000).map(|i| format!("row-{i}")).collect()),
        "the gather is deterministic in the sampled permutation"
    );
}
