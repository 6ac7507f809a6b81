//! Session-layer integration tests: the steady-state soak and the
//! session ↔ one-shot equivalence properties.
//!
//! The soak drives hundreds of back-to-back permutations through one
//! [`cgp_core::PermutationSession`] — the steady-state shape a service
//! runs — and asserts the two load-bearing invariants of the session
//! design: the scratch's retained capacity *converges* (steady state
//! allocates nothing new) and the produced permutation sequence is
//! *deterministic*, byte-for-byte equal to the one-shot path under the
//! same seed (a session's contexts carry state across jobs, but the engine
//! derives every stream it uses from the machine seed per call).
//!
//! CI runs this file under `--release` on every push, so the session's
//! helper hand-offs and shutdown get exercised at optimized thread timings
//! too.

use proptest::prelude::*;

use cgp_core::{MatrixBackend, PermuteScratch, Permuter};

#[test]
fn soak_hundreds_of_back_to_back_permutations() {
    const ROUNDS: usize = 300;
    const N: usize = 4_096;
    let permuter = Permuter::new(8).seed(0xC0FFEE);

    // One-shot references: the permutation is a pure function of the seed
    // and shape, so every round must reproduce this exact vector …
    let reference = permuter.permute((0..N as u64).collect()).0;
    // … and the one-shot scratch path serves as the second determinism
    // witness, advanced in lock-step with the session.
    let mut one_shot_scratch = PermuteScratch::new();

    let mut session = permuter.session::<u64>();
    let mut capacities = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut via_session: Vec<u64> = (0..N as u64).collect();
        session.permute_into(&mut via_session);
        assert_eq!(
            via_session, reference,
            "round {round}: session diverged from the one-shot permutation"
        );
        if round % 50 == 0 {
            let mut via_one_shot: Vec<u64> = (0..N as u64).collect();
            permuter.permute_into(&mut via_one_shot, &mut one_shot_scratch);
            assert_eq!(via_one_shot, reference, "one-shot scratch path diverged");
        }
        capacities.push(session.retained_capacity());
    }

    // Convergence: the exchange buffers may ratchet during the first couple
    // of calls (they ping-pong between the i→j and j→i directions); from
    // round 2 on, the retained capacity must be exactly stable — steady
    // state allocates nothing new.
    assert!(capacities[0] >= N, "blocks + exchange buffers are retained");
    let converged = capacities[2];
    for (round, &cap) in capacities.iter().enumerate().skip(2) {
        assert_eq!(
            cap, converged,
            "round {round}: retained capacity moved after convergence"
        );
    }

    session.shutdown();
}

#[test]
fn soak_survives_shape_changes() {
    // A session is not pinned to one shape: growing and shrinking vectors
    // through the same scratch must stay correct (capacities ratchet to the
    // largest shape seen, they never shrink mid-session).
    let permuter = Permuter::new(4).seed(99);
    let mut session = permuter.session::<u64>();
    for &n in &[100usize, 5_000, 0, 1, 5_000, 757, 100] {
        let (out, _) = session.permute((0..n as u64).collect());
        let mut sorted = out;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u64).collect::<Vec<u64>>(), "n = {n}");
        let reference = permuter.permute((0..n as u64).collect()).0;
        let (again, _) = session.permute((0..n as u64).collect());
        assert_eq!(again, reference, "n = {n} diverged from one-shot");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Session and one-shot `permute_vec` agree for arbitrary shapes —
    /// including `p = 1`, empty inputs and `n < p` (empty blocks) — over
    /// every matrix backend.
    #[test]
    fn session_agrees_with_one_shot_for_arbitrary_shapes(
        procs in 1usize..=6,
        n in 0usize..200,
        seed in any::<u64>(),
        backend_index in 0usize..4,
    ) {
        let backend = MatrixBackend::ALL[backend_index];
        let permuter = Permuter::new(procs).seed(seed).backend(backend);
        let one_shot = permuter.permute((0..n as u64).collect()).0;
        let mut session = permuter.session::<u64>();
        // Two calls through the same session: both must match the one-shot
        // result (the second exercising the warmed scratch).
        for round in 0..2 {
            let (via_session, _) = session.permute((0..n as u64).collect());
            prop_assert_eq!(
                &via_session, &one_shot,
                "p = {}, n = {}, backend {:?}, round {}", procs, n, backend, round
            );
        }
    }

    /// The index fast path agrees between substrates too.
    #[test]
    fn session_sample_permutation_agrees(procs in 1usize..=5, n in 0usize..120, seed in any::<u64>()) {
        let permuter = Permuter::new(procs).seed(seed);
        let mut session = permuter.session::<u64>();
        prop_assert_eq!(session.sample_permutation(n), permuter.sample_permutation(n));
    }
}
