//! Golden checksums of the pipeline with the **bucketed** local shuffle.
//!
//! The staged Fisher–Yates oracle (`cgp-bench`'s `fused_equivalence`) and
//! the fused golden vectors run at sizes where `Auto` resolves to
//! Fisher–Yates, so neither ever takes the bucketed passes.  This file pins
//! them: `LocalShuffle::Bucketed { bucket_items: 32 }` over a grid of
//! machine sizes, payload sizes and target distributions, checked one-shot,
//! through a resident pool (cold and warm scratch), through a session and as
//! sub-jobs of one coalesced batch.  Every surface must reproduce the
//! recorded checksum exactly.

use cgp_cgm::{CgmConfig, CgmMachine, ResidentCgm};
use cgp_core::{
    permute_vec, try_permute_batch_into_with, try_permute_vec_into_with, BatchOutcome,
    LocalShuffle, PermuteOptions, PermuteScratch, Permuter,
};

const SEED: u64 = 0x6B0C_4E7D;
const ENGINE: LocalShuffle = LocalShuffle::Bucketed { bucket_items: 32 };
const PROCS: [usize; 4] = [1, 2, 3, 5];
const SIZES: [usize; 4] = [0, 1, 257, 5000];

/// `(p, n, uneven targets, checksum)`, recorded from the engine before the
/// direct-placement exchange replaced the staged cut/exchange/concat.
const GOLDEN: [(usize, usize, bool, u64); 32] = [
    (1, 0, false, 0xcbf2_9ce4_8422_2325),
    (1, 0, true, 0xcbf2_9ce4_8422_2325),
    (1, 1, false, 0xaf63_bd4c_8601_b7df),
    (1, 1, true, 0xaf63_bd4c_8601_b7df),
    (1, 257, false, 0xb1ce_0973_c36f_e8b3),
    (1, 257, true, 0xb1ce_0973_c36f_e8b3),
    (1, 5000, false, 0x3352_89b8_3793_3345),
    (1, 5000, true, 0x3352_89b8_3793_3345),
    (2, 0, false, 0xcbf2_9ce4_8422_2325),
    (2, 0, true, 0xcbf2_9ce4_8422_2325),
    (2, 1, false, 0xaf63_bd4c_8601_b7df),
    (2, 1, true, 0xaf63_bd4c_8601_b7df),
    (2, 257, false, 0x99b1_aecb_b77e_f8df),
    (2, 257, true, 0x1966_c736_1d5e_e64d),
    (2, 5000, false, 0x8853_90b1_7787_4601),
    (2, 5000, true, 0x7756_d745_aed0_6fd1),
    (3, 0, false, 0xcbf2_9ce4_8422_2325),
    (3, 0, true, 0xcbf2_9ce4_8422_2325),
    (3, 1, false, 0xaf63_bd4c_8601_b7df),
    (3, 1, true, 0xaf63_bd4c_8601_b7df),
    (3, 257, false, 0x58af_f0c7_7242_c5bf),
    (3, 257, true, 0x9025_ced6_79df_9db7),
    (3, 5000, false, 0xc461_529a_5f31_af7b),
    (3, 5000, true, 0x413a_e031_1651_98c5),
    (5, 0, false, 0xcbf2_9ce4_8422_2325),
    (5, 0, true, 0xcbf2_9ce4_8422_2325),
    (5, 1, false, 0xaf63_bd4c_8601_b7df),
    (5, 1, true, 0xaf63_bd4c_8601_b7df),
    (5, 257, false, 0x25e8_a520_d7ca_eedd),
    (5, 257, true, 0xb02a_7cdf_a706_0455),
    (5, 5000, false, 0x9f46_e47e_a4f0_d9b5),
    (5, 5000, true, 0x9425_b5a1_96ae_f2eb),
];

/// Order-sensitive 64-bit checksum (FNV-1a over the items).
fn checksum(items: &[u64]) -> u64 {
    items.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Target sizes weighted `1 : 2 : 4 : …` over the processors, the last one
/// taking the rounding remainder (so small `n` leaves some targets empty).
fn uneven_targets(n: usize, p: usize) -> Vec<u64> {
    let total_weight = (1u64 << p) - 1;
    let mut sizes: Vec<u64> = (0..p)
        .map(|j| n as u64 * (1u64 << j) / total_weight)
        .collect();
    let assigned: u64 = sizes[..p - 1].iter().sum();
    sizes[p - 1] = n as u64 - assigned;
    sizes
}

fn options(n: usize, p: usize, uneven: bool) -> PermuteOptions {
    let options = PermuteOptions::default().local_shuffle(ENGINE);
    if uneven {
        options.target_sizes(uneven_targets(n, p))
    } else {
        options
    }
}

fn identity(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

#[test]
fn bucketed_pipeline_reproduces_golden_checksums_on_every_surface() {
    for &(p, n, uneven, expected) in &GOLDEN {
        let case = format!("p = {p}, n = {n}, uneven = {uneven}");
        let config = CgmConfig::new(p).with_seed(SEED);
        let options = options(n, p, uneven);

        let (one_shot, _) = permute_vec(&CgmMachine::new(config), identity(n), &options);
        assert_eq!(checksum(&one_shot), expected, "one-shot: {case}");

        // A resident pool, twice through one scratch (cold, then warm).
        let mut pool: ResidentCgm<u64> = ResidentCgm::new(config);
        let mut scratch = PermuteScratch::new();
        for round in 0..2 {
            let mut data = identity(n);
            try_permute_vec_into_with(&mut pool, &mut data, &options, &mut scratch).unwrap();
            assert_eq!(data, one_shot, "pool round {round}: {case}");
        }

        // The session surface (even targets only: it carries no per-call
        // prescription).
        if !uneven {
            let mut session = Permuter::new(p)
                .seed(SEED)
                .local_shuffle(ENGINE)
                .session::<u64>();
            assert_eq!(session.permute(identity(n)).0, one_shot, "session: {case}");
        }

        // The coalescing entry: the job twice inside one batch, next to a
        // differently shaped neighbour.
        let jobs = vec![
            (identity(n), options.clone()),
            (
                identity(n / 2 + 3),
                PermuteOptions::default().local_shuffle(ENGINE),
            ),
            (identity(n), options.clone()),
        ];
        let mut scratches = Vec::new();
        let outcomes = try_permute_batch_into_with(&mut pool, jobs, &mut scratches).unwrap();
        for k in [0, 2] {
            match &outcomes[k] {
                BatchOutcome::Done { data, .. } => {
                    assert_eq!(data, &one_shot, "batch job {k}: {case}")
                }
                other => panic!("batch job {k} did not run: {other:?} ({case})"),
            }
        }
    }
}

#[test]
fn the_golden_grid_covers_every_case_once() {
    let mut cases: Vec<(usize, usize, bool)> =
        GOLDEN.iter().map(|&(p, n, u, _)| (p, n, u)).collect();
    cases.sort_unstable();
    cases.dedup();
    assert_eq!(cases.len(), PROCS.len() * SIZES.len() * 2);
    for (p, n, _) in cases {
        assert!(PROCS.contains(&p) && SIZES.contains(&n));
    }
}

/// Prints the grid's checksums in `GOLDEN` form (run with `--ignored
/// --nocapture` to re-record after an intended change of the output).
#[test]
#[ignore]
fn print_golden_checksums() {
    for p in PROCS {
        for n in SIZES {
            for uneven in [false, true] {
                let machine = CgmMachine::new(CgmConfig::new(p).with_seed(SEED));
                let (out, _) = permute_vec(&machine, identity(n), &options(n, p, uneven));
                println!("    ({p}, {n}, {uneven}, {:#018x}),", checksum(&out));
            }
        }
    }
}
