//! Golden checksums of the pipeline with the **bucketed** local shuffle.
//!
//! The staged Fisher–Yates oracle (`cgp-bench`'s `fused_equivalence`) and
//! the fused golden vectors run at sizes where `Auto` resolves to
//! Fisher–Yates, so neither ever takes the one scatter level.  This file
//! pins it: `LocalShuffle::Bucketed { bucket_items: 32 }` over a grid of
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

/// `(p, n, uneven targets, checksum)`.  The entries with `n ≥ 257` span
/// several windows and run the one scatter level; they were re-recorded
/// when it replaced the nested bucketed shuffles, which changed the
/// seed-to-permutation map of multi-window jobs by design.  The `n ∈ {0, 1}`
/// entries run the Fisher–Yates path and date from before the
/// direct-placement exchange.
const GOLDEN: [(usize, usize, bool, u64); 32] = [
    (1, 0, false, 0xcbf2_9ce4_8422_2325),
    (1, 0, true, 0xcbf2_9ce4_8422_2325),
    (1, 1, false, 0xaf63_bd4c_8601_b7df),
    (1, 1, true, 0xaf63_bd4c_8601_b7df),
    (1, 257, false, 0x7834_3215_c783_e27d),
    (1, 257, true, 0x7834_3215_c783_e27d),
    (1, 5000, false, 0xabea_ff8c_a21d_a3c1),
    (1, 5000, true, 0xabea_ff8c_a21d_a3c1),
    (2, 0, false, 0xcbf2_9ce4_8422_2325),
    (2, 0, true, 0xcbf2_9ce4_8422_2325),
    (2, 1, false, 0xaf63_bd4c_8601_b7df),
    (2, 1, true, 0xaf63_bd4c_8601_b7df),
    (2, 257, false, 0x8c59_486d_47b4_47fb),
    (2, 257, true, 0x665a_93be_fe07_767d),
    (2, 5000, false, 0xbfb9_8624_ae95_3a9d),
    (2, 5000, true, 0x7753_8ce2_97d1_533d),
    (3, 0, false, 0xcbf2_9ce4_8422_2325),
    (3, 0, true, 0xcbf2_9ce4_8422_2325),
    (3, 1, false, 0xaf63_bd4c_8601_b7df),
    (3, 1, true, 0xaf63_bd4c_8601_b7df),
    (3, 257, false, 0x9470_3cfe_431e_c2bd),
    (3, 257, true, 0xf348_dcab_7ffc_8add),
    (3, 5000, false, 0x2ce7_ece3_9b62_467b),
    (3, 5000, true, 0x4a6b_7475_5144_303f),
    (5, 0, false, 0xcbf2_9ce4_8422_2325),
    (5, 0, true, 0xcbf2_9ce4_8422_2325),
    (5, 1, false, 0xaf63_bd4c_8601_b7df),
    (5, 1, true, 0xaf63_bd4c_8601_b7df),
    (5, 257, false, 0xec0a_7b80_6240_b24f),
    (5, 257, true, 0x01ae_2b9d_de81_f06d),
    (5, 5000, false, 0x1b1d_77c7_b3f4_2f7b),
    (5, 5000, true, 0xf3d0_8ef6_d503_c2f9),
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
