//! Integration tests of the pipeline's one layout rule — the one scatter
//! level exactly when some block holds more than four windows, the
//! Fisher–Yates path otherwise — through the full Algorithm 1 pipeline:
//! the rule pinned at its boundary, exhaustive chi-square uniformity per
//! layout × matrix backend, Lehmer-rank spot checks, session agreement and
//! validity over arbitrary shapes.

use cgp_core::uniformity::{recommended_samples, test_uniformity};
use cgp_core::{default_bucket_items, MatrixBackend, Permuter};
use cgp_stats::{factorial, permutation_rank};
use proptest::prelude::*;

/// The layouts under test, as window overrides: 1-item windows force the
/// scatter even at `n = 4` (one item per bucket), so the exhaustive tests
/// exercise the multi-bucket path; `None` is the default rule, which takes
/// the Fisher–Yates path at these sizes.
const WINDOWS: [Option<usize>; 2] = [Some(1), None];

/// A permuter with seed `seed` over `procs` processors, on `window`.
fn permuter(procs: usize, seed: u64, window: Option<usize>) -> Permuter {
    let permuter = Permuter::new(procs).seed(seed);
    match window {
        Some(items) => permuter.window_items(items),
        None => permuter,
    }
}

/// Order-sensitive 64-bit checksum (FNV-1a over the items).
fn checksum(items: &[u64]) -> u64 {
    items.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 64-byte record, so a window holds 4096 of them and the boundary (2 MiB
/// at p = 2) is cheap to reach in a debug build.  The records are no wider
/// so that the default buckets there are still one window: the run-length
/// floor allows `4096 / 256 = 16` virtual targets and the job has 10.
type Wide = [u64; 8];

/// Permutes `n` wide records, each filled with its index, and returns the
/// indices in output order (checking every record arrived whole).
fn wide_order(permuter: &Permuter, n: usize) -> Vec<u64> {
    let items: Vec<Wide> = (0..n as u64).map(|i| [i; 8]).collect();
    let out = permuter.permute(items).0;
    assert!(out.iter().all(|r| r.iter().all(|&w| w == r[0])));
    out.iter().map(|r| r[0]).collect()
}

/// At p = 2 a job whose blocks are exactly four windows runs the
/// Fisher–Yates path, and one more item per block tips it onto the one
/// scatter level at the default window.
#[test]
fn the_rule_scatters_exactly_past_four_windows_per_block() {
    let window = default_bucket_items::<Wide>();
    assert_eq!(window, 4096);
    let (p, seed) = (2, 0xB0_0D);

    let block = 4 * window;
    let default = wide_order(&Permuter::new(p).seed(seed), p * block);
    let fisher_yates = wide_order(&permuter(p, seed, Some(block)), p * block);
    let scatter = wide_order(&permuter(p, seed, Some(window)), p * block);
    assert_eq!(default, fisher_yates, "four windows per block stay put");
    assert_ne!(default, scatter);

    let block = block + 1;
    let default = wide_order(&Permuter::new(p).seed(seed), p * block);
    let fisher_yates = wide_order(&permuter(p, seed, Some(block)), p * block);
    let scatter = wide_order(&permuter(p, seed, Some(window)), p * block);
    assert_eq!(default, scatter, "one more item per block scatters");
    assert_ne!(default, fisher_yates);
}

/// The largest `fleet` job, 2^18 `u64` at p = 2, is exactly four windows
/// per block: it keeps the Fisher–Yates path and the permutation it had
/// before the layout rule existed.
#[test]
fn the_largest_service_job_keeps_its_recorded_permutation() {
    let out = Permuter::new(2)
        .seed(0x2_18)
        .permute((0..1u64 << 18).collect())
        .0;
    assert_eq!(checksum(&out), 0xaeba_7bcf_d2d7_b441);
}

/// Exhaustive chi-square uniformity at `n = 4` for both layouts across all
/// four matrix backends: every one of the `4! = 24` permutations must
/// appear with probability `1/24` (Theorem 1 holds for both layouts, since
/// Propositions 1–2 make the one scatter level exactly uniform too).
#[test]
fn both_layouts_are_uniform_for_every_backend() {
    // p = 3 > n/2 forces small and empty blocks into the pipeline too.
    let p = 3;
    for window in WINDOWS {
        for backend in MatrixBackend::ALL {
            let report = test_uniformity(4, recommended_samples(4, 100), |rep| {
                permuter(p, 0xB0C4_E700 + rep, window)
                    .backend(backend)
                    .sample_permutation(4)
            });
            assert!(
                report.is_uniform_at(0.001),
                "window {window:?} × {backend:?} failed the exhaustive uniformity test: {report:?}"
            );
            assert!(
                report.covers_all_permutations(),
                "window {window:?} × {backend:?} never produced some permutation: {report:?}"
            );
        }
    }
}

/// Lehmer spot checks at `n = 6`: every rank a layout produces is a valid
/// index into the `6!` rank space, independent seeds hit both the low and
/// the high quarter of that space, and they essentially never collide.
#[test]
fn lehmer_ranks_spread_over_the_rank_space() {
    let space = factorial(6);
    for window in WINDOWS {
        let mut ranks: Vec<u64> = (0..200u64)
            .map(|rep| {
                let perm = permuter(3, 0x1E44_E700 + rep, window).sample_permutation(6);
                let as_u32: Vec<u32> = perm.iter().map(|&x| x as u32).collect();
                let rank = permutation_rank(&as_u32);
                assert!(rank < space, "window {window:?} produced rank {rank} >= 6!");
                rank
            })
            .collect();
        assert!(
            ranks.iter().any(|&r| r < space / 4),
            "window {window:?} never hit the low quarter of the rank space"
        );
        assert!(
            ranks.iter().any(|&r| r >= 3 * space / 4),
            "window {window:?} never hit the high quarter of the rank space"
        );
        ranks.sort_unstable();
        ranks.dedup();
        assert!(
            ranks.len() > 150,
            "window {window:?}: only {} distinct ranks out of 200 seeds",
            ranks.len()
        );
    }
}

/// Sessions agree with the one-shot path on both layouts — the layout must
/// not depend on the substrate the job runs on.
#[test]
fn sessions_agree_with_one_shot_per_layout() {
    for window in WINDOWS {
        let permuter = permuter(4, 99, window);
        let reference = permuter.permute((0..3_000u64).collect()).0;
        let mut session = permuter.session::<u64>();
        for round in 0..2 {
            let (via_session, _) = session.permute((0..3_000u64).collect());
            assert_eq!(
                via_session, reference,
                "window {window:?}: session diverged from one-shot in round {round}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For the same seed and arbitrary shapes — including `p = 1`, empty
    /// inputs, `n < p` and tiny windows — the Fisher–Yates path and the
    /// one scatter level both emit valid permutations of the input over
    /// every matrix backend.  They need *not* agree byte-for-byte (they
    /// consume the random stream differently); the chi-square gates above
    /// pin both to the same uniform law.
    #[test]
    fn both_layouts_permute_validly_for_arbitrary_shapes(
        procs in 1usize..=6,
        n in 0usize..200,
        seed in any::<u64>(),
        backend_index in 0usize..4,
        window in 1usize..8,
    ) {
        let backend = MatrixBackend::ALL[backend_index];
        let identity: Vec<u64> = (0..n as u64).collect();
        for layout in [None, Some(window)] {
            let permuted = permuter(procs, seed, layout)
                .backend(backend)
                .permute(identity.clone())
                .0;
            let mut sorted = permuted;
            sorted.sort_unstable();
            prop_assert_eq!(
                &sorted, &identity,
                "window {:?} on p = {}, n = {}, backend {:?} is not a permutation",
                layout, procs, n, backend
            );
        }
    }
}
