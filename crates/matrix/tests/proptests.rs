//! Property-based tests for the communication-matrix samplers.

use proptest::prelude::*;

use cgp_cgm::{CgmConfig, CgmMachine};
use cgp_matrix::{
    enumerate_matrices, sample_parallel_log, sample_parallel_optimal, sample_recursive,
    sample_sequential, CommMatrix,
};
use cgp_rng::Pcg64;

fn sizes(max_blocks: usize, max_size: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..=max_size, 1..=max_blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both sequential samplers produce matrices with the exact marginals for
    /// arbitrary (possibly zero) block sizes.
    #[test]
    fn sequential_and_recursive_marginals(
        source in sizes(7, 25),
        cuts in prop::collection::vec(0.0f64..1.0, 1..6),
        seed in any::<u64>(),
    ) {
        // Build a target distribution over `cuts.len()+1` blocks with the
        // same total by splitting at random fractions.
        let total: u64 = source.iter().sum();
        let mut target = vec![0u64; cuts.len() + 1];
        for i in 0..total {
            // Deterministic pseudo-assignment from the cut fractions.
            let x = (i as f64 + 0.5) / total.max(1) as f64;
            let idx = cuts.iter().filter(|&&c| c < x).count();
            target[idx] += 1;
        }
        let mut rng = Pcg64::seed_from_u64(seed);
        let a = sample_sequential(&mut rng, &source, &target);
        prop_assert!(a.check_marginals(&source, &target).is_ok());
        let b = sample_recursive(&mut rng, &source, &target);
        prop_assert!(b.check_marginals(&source, &target).is_ok());
    }

    /// The parallel samplers agree with the marginal constraints for any
    /// small machine and seed.
    #[test]
    fn parallel_samplers_marginals(
        p in 1usize..=6,
        m in 1u64..=30,
        seed in any::<u64>(),
    ) {
        let source = vec![m; p];
        let target = vec![m; p];
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
        let (a, _) = sample_parallel_log(&machine, &source, &target);
        prop_assert!(a.check_marginals(&source, &target).is_ok());
        let (b, _) = sample_parallel_optimal(&machine, &source, &target);
        prop_assert!(b.check_marginals(&source, &target).is_ok());
    }

    /// Every sampled matrix is one of the exhaustively enumerated valid
    /// matrices (for tiny instances where enumeration is feasible).
    #[test]
    fn sampled_matrices_are_valid_members(
        source in sizes(3, 4),
        seed in any::<u64>(),
    ) {
        let total: u64 = source.iter().sum();
        let target = vec![total]; // single target block: one valid matrix only
        let all = enumerate_matrices(&source, &target);
        let mut rng = Pcg64::seed_from_u64(seed);
        let a = sample_sequential(&mut rng, &source, &target);
        prop_assert!(all.contains(&a));
    }

    /// The probability formula is scale-consistent: the log-probability of
    /// every enumerated matrix is finite and they normalise to 1.
    #[test]
    fn enumerated_probabilities_normalise(
        source in sizes(3, 3),
        split in 0.0f64..1.0,
    ) {
        let total: u64 = source.iter().sum();
        let left = (total as f64 * split).floor() as u64;
        let target = vec![left, total - left];
        let matrices = enumerate_matrices(&source, &target);
        let sum: f64 = matrices.iter().map(|m| m.ln_probability().exp()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "probabilities sum to {sum}");
    }

    /// The a-posteriori matrix of a permutation composed with a block-local
    /// reshuffle is unchanged (local order never affects the matrix).
    #[test]
    fn matrix_is_invariant_under_local_reordering(
        block_size in 1u64..=8,
        blocks in 1usize..=4,
        seed in any::<u64>(),
    ) {
        use cgp_cgm::BlockDistribution;
        use cgp_rng::RandomExt;
        let sizes = vec![block_size; blocks];
        let dist = BlockDistribution::from_sizes(sizes.clone());
        let n = dist.total();
        let mut rng = Pcg64::seed_from_u64(seed);
        let perm: Vec<u64> = rng.random_permutation(n as usize).iter().map(|&x| x as u64).collect();
        let original = CommMatrix::from_permutation(&perm, &dist, &dist);

        // Reorder the *source positions within each block*: composing with a
        // block-local permutation of the sources keeps each item's source
        // block, so the matrix must be identical.
        let mut reordered = perm.clone();
        for b in 0..blocks {
            let range = dist.range(b);
            let lo = range.start as usize;
            let hi = range.end as usize;
            let mut chunk: Vec<u64> = reordered[lo..hi].to_vec();
            rng.shuffle(&mut chunk);
            reordered[lo..hi].copy_from_slice(&chunk);
        }
        let after = CommMatrix::from_permutation(&reordered, &dist, &dist);
        prop_assert_eq!(original, after);
    }
}

#[test]
fn parallel_and_sequential_have_the_same_first_moment_small_case() {
    // Cheap deterministic cross-check: averaged over seeds, the (0,0) entry
    // of Algorithm 6 matches the hypergeometric mean (Proposition 3).
    use cgp_hypergeom::hypergeometric_mean;
    let p = 3usize;
    let m = 9u64;
    let reps = 600u64;
    let mut total = 0u64;
    for seed in 0..reps {
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
        let (a, _) = sample_parallel_optimal(&machine, &vec![m; p], &vec![m; p]);
        total += a.get(0, 0);
    }
    let mean = total as f64 / reps as f64;
    let expect = hypergeometric_mean(m, m, m * (p as u64 - 1));
    assert!(
        (mean - expect).abs() < 0.4,
        "mean {mean} vs expected {expect}"
    );
}
