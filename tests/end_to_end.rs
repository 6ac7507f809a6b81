//! Cross-crate integration tests: the full Algorithm 1 pipeline on the CGM
//! simulator, checked against the invariants the paper states.

use cgp::{
    permute_blocks, permute_vec, BlockDistribution, CgmConfig, CgmMachine, CommMatrix,
    MatrixBackend, PermuteOptions, Permuter,
};

fn assert_is_permutation(out: &[u64], n: u64) {
    let mut sorted = out.to_vec();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n).collect::<Vec<u64>>());
}

#[test]
fn every_backend_produces_a_permutation_on_every_machine_size() {
    for p in [1usize, 2, 3, 5, 8] {
        for backend in MatrixBackend::ALL {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(p as u64 * 31));
            let n = 240u64;
            let (out, report) = permute_vec(
                &machine,
                (0..n).collect(),
                &PermuteOptions::with_backend(backend),
            );
            assert_is_permutation(&out, n);
            assert_eq!(report.backend, backend);
        }
    }
}

#[test]
fn reported_matrix_matches_the_realized_data_movement() {
    // The matrix the algorithm samples must be exactly the a-posteriori
    // communication matrix of the permutation it produces.
    let p = 5usize;
    let machine = CgmMachine::new(CgmConfig::new(p).with_seed(77));
    let sizes = vec![10u64, 20, 5, 30, 15];
    let dist = BlockDistribution::from_sizes(sizes.clone());
    let n = dist.total();
    let blocks = dist.split_vec((0..n).collect());
    let options = PermuteOptions::default().keep_matrix();
    let (out_blocks, report) = permute_blocks(&machine, blocks, &options);
    let sampled = report.matrix.expect("matrix kept");

    // Reconstruct the permutation: item value v (originally at global
    // position v) ended up at some global target position.
    let out_dist =
        BlockDistribution::from_sizes(out_blocks.iter().map(|b| b.len() as u64).collect());
    let flat: Vec<u64> = out_blocks.into_iter().flatten().collect();
    let mut target_position = vec![0u64; n as usize];
    for (pos, &item) in flat.iter().enumerate() {
        target_position[item as usize] = pos as u64;
    }
    let realized = CommMatrix::from_permutation(&target_position, &dist, &out_dist);
    assert_eq!(
        sampled, realized,
        "sampled matrix and realized data movement differ"
    );
}

#[test]
fn exchange_volume_matches_theorem_1_bound() {
    // Theorem 1: O(m) words per processor.  With equal blocks of size m the
    // exchange volume of each processor is exactly 2m (m sent + m received).
    let p = 6usize;
    let m = 300u64;
    let machine = CgmMachine::new(CgmConfig::new(p).with_seed(5));
    let data: Vec<u64> = (0..m * p as u64).collect();
    let (_, report) = permute_vec(&machine, data, &PermuteOptions::default());
    for proc in &report.exchange_metrics.per_proc {
        assert_eq!(proc.comm_volume(), 2 * m);
    }
    // Exactly one all-to-all: at most p-1 real messages per processor.
    for proc in &report.exchange_metrics.per_proc {
        assert!(proc.messages_sent <= (p - 1) as u64);
    }
}

#[test]
fn parallel_matrix_backends_agree_with_sequential_marginals() {
    // Sample matrices with the parallel backends and verify the marginals and
    // the hypergeometric mean of an entry (Proposition 3) in aggregate.
    use cgp::hypergeom::hypergeometric_mean;
    let p = 8usize;
    let m = 40u64;
    let source = vec![m; p];
    let target = vec![m; p];
    let n = m * p as u64;
    let reps = 300u64;
    let mut total_a00 = [0u64; 2];
    for rep in 0..reps {
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(rep));
        let (a, _) = cgp::sample_parallel_log(&machine, &source, &target);
        a.check_marginals(&source, &target).unwrap();
        total_a00[0] += a.get(0, 0);
        let (b, _) = cgp::sample_parallel_optimal(&machine, &source, &target);
        b.check_marginals(&source, &target).unwrap();
        total_a00[1] += b.get(0, 0);
    }
    let expect = hypergeometric_mean(m, m, n - m);
    for (idx, total) in total_a00.iter().enumerate() {
        let mean = *total as f64 / reps as f64;
        assert!(
            (mean - expect).abs() < 1.5,
            "backend {idx}: mean a_00 = {mean}, expected {expect}"
        );
    }
}

#[test]
fn permuter_reuse_and_report_consistency() {
    let permuter = Permuter::new(4)
        .seed(11)
        .backend(MatrixBackend::ParallelOptimal)
        .keep_matrix();
    for n in [0usize, 1, 7, 64, 1000] {
        let (out, report) = permuter.permute((0..n as u64).collect());
        assert_is_permutation(&out, n as u64);
        let matrix = report.matrix.as_ref().expect("kept");
        assert_eq!(matrix.total(), n as u64);
        assert!(report.total_elapsed() >= report.matrix_elapsed);
    }
}

#[test]
fn skewed_block_distributions_are_handled() {
    // One processor holds almost everything; the algorithm must still work
    // and the target sizes must be respected.
    let machine = CgmMachine::new(CgmConfig::new(4).with_seed(3));
    let blocks = vec![
        (0..97u64).collect::<Vec<_>>(),
        vec![97u64],
        vec![98u64],
        vec![99u64],
    ];
    let options = PermuteOptions::default().target_sizes(vec![25, 25, 25, 25]);
    let (out, _) = permute_blocks(&machine, blocks, &options);
    assert!(out.iter().all(|b| b.len() == 25));
    let mut all: Vec<u64> = out.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, (0..100).collect::<Vec<u64>>());
}

#[test]
fn baselines_also_produce_permutations() {
    use cgp::core::baselines::{
        one_round_permutation, rejection_permutation, sort_based_permutation,
    };
    let p = 4usize;
    let n = 160u64;
    let dist = BlockDistribution::even(n, p);

    let machine = CgmMachine::new(CgmConfig::new(p).with_seed(13));
    let (sorted_blocks, _) = sort_based_permutation(&machine, dist.split_vec((0..n).collect()));
    let flat: Vec<u64> = sorted_blocks.into_iter().flatten().collect();
    assert_is_permutation(&flat, n);

    let (round_blocks, _) = one_round_permutation(&machine, dist.split_vec((0..n).collect()), 2);
    let flat: Vec<u64> = round_blocks.into_iter().flatten().collect();
    assert_is_permutation(&flat, n);

    let outcome = rejection_permutation(
        &machine,
        dist.split_vec((0..n).collect()),
        dist.sizes(),
        1_000_000,
    )
    .expect("moderate sizes accept eventually");
    let flat: Vec<u64> = outcome.blocks.into_iter().flatten().collect();
    assert_is_permutation(&flat, n);
}
