//! Golden checksums of the pipeline's **one scatter level**.
//!
//! The staged Fisher–Yates oracle (`cgp-bench`'s `fused_equivalence`) and
//! the fused golden vectors run at sizes where every block fits four
//! windows, so neither ever takes the one scatter level.  This file pins
//! it: 32-item windows (the hidden `window_items` override) over a grid of
//! machine sizes, payload sizes and target distributions, checked one-shot,
//! through a resident pool (cold and warm scratch), through a session and
//! through a service executor's serial replay.  Every surface must
//! reproduce the recorded checksum exactly.

use cgp_cgm::{CgmConfig, CgmMachine, ResidentCgm};
use cgp_core::{permute_vec, try_permute_vec_into_with, PermuteOptions, PermuteScratch, Permuter};

const SEED: u64 = 0x6B0C_4E7D;
/// Window and bucket size in items; every block of more than one window
/// scatters.
const WINDOW: usize = 32;
const PROCS: [usize; 4] = [1, 2, 3, 5];
const SIZES: [usize; 4] = [0, 1, 257, 5000];

/// `(p, n, uneven targets, checksum)`.  The entries with `n ≥ 257` span
/// several windows and run the one scatter level; they were last
/// re-recorded when the batched Fisher–Yates kernel (up to six swap indices
/// per 64-bit word) changed every seed-to-permutation map by design.  The
/// `n ∈ {0, 1}` entries draw nothing and date from before the
/// direct-placement exchange.
const GOLDEN: [(usize, usize, bool, u64); 32] = [
    (1, 0, false, 0xcbf2_9ce4_8422_2325),
    (1, 0, true, 0xcbf2_9ce4_8422_2325),
    (1, 1, false, 0xaf63_bd4c_8601_b7df),
    (1, 1, true, 0xaf63_bd4c_8601_b7df),
    (1, 257, false, 0x8350_1f82_0eeb_cfdb),
    (1, 257, true, 0x8350_1f82_0eeb_cfdb),
    (1, 5000, false, 0xaccc_ebf4_812b_8e1b),
    (1, 5000, true, 0xaccc_ebf4_812b_8e1b),
    (2, 0, false, 0xcbf2_9ce4_8422_2325),
    (2, 0, true, 0xcbf2_9ce4_8422_2325),
    (2, 1, false, 0xaf63_bd4c_8601_b7df),
    (2, 1, true, 0xaf63_bd4c_8601_b7df),
    (2, 257, false, 0x0dbf_be32_4883_5037),
    (2, 257, true, 0x269f_5c97_4419_c25d),
    (2, 5000, false, 0x301f_c976_ab8b_35f7),
    (2, 5000, true, 0x825d_d58e_2368_d057),
    (3, 0, false, 0xcbf2_9ce4_8422_2325),
    (3, 0, true, 0xcbf2_9ce4_8422_2325),
    (3, 1, false, 0xaf63_bd4c_8601_b7df),
    (3, 1, true, 0xaf63_bd4c_8601_b7df),
    (3, 257, false, 0xaf9e_b9ee_1856_f16f),
    (3, 257, true, 0x9eca_debc_4ba1_6ae9),
    (3, 5000, false, 0x212c_62c3_de9b_57d1),
    (3, 5000, true, 0xaa50_e196_e067_d5c3),
    (5, 0, false, 0xcbf2_9ce4_8422_2325),
    (5, 0, true, 0xcbf2_9ce4_8422_2325),
    (5, 1, false, 0xaf63_bd4c_8601_b7df),
    (5, 1, true, 0xaf63_bd4c_8601_b7df),
    (5, 257, false, 0x9581_a683_cc64_3c43),
    (5, 257, true, 0x1a83_b1e7_b1c7_10e9),
    (5, 5000, false, 0x0c55_b855_d2b5_7275),
    (5, 5000, true, 0x0b97_3b47_2703_e7ed),
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
    let options = PermuteOptions::default().window_items(WINDOW);
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
                .window_items(WINDOW)
                .session::<u64>();
            assert_eq!(session.permute(identity(n)).0, one_shot, "session: {case}");
        }

        // A service executor's serial replay, twice, next to a differently
        // shaped neighbour.
        let service = Permuter::new(p).seed(SEED).service_sized::<u64>(1, 4);
        let handle = service.handle();
        let neighbour = PermuteOptions::default().window_items(WINDOW);
        for round in 0..2 {
            let (out, _) = handle.permute_with(identity(n), options.clone()).unwrap();
            assert_eq!(out, one_shot, "service round {round}: {case}");
            handle
                .permute_with(identity(n / 2 + 3), neighbour.clone())
                .unwrap();
        }
        service.shutdown();
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
