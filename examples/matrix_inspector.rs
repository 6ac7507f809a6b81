//! Inspect the distribution of communication matrices.
//!
//! Samples many communication matrices for a small machine and compares the
//! empirical distribution of one entry against the exact hypergeometric
//! marginal of Proposition 3, for each of the paper's sampling algorithms.
//!
//! ```text
//! cargo run --release --example matrix_inspector [samples]
//! ```

use std::env;

use cgp::{
    sample_parallel_log, sample_parallel_optimal, sample_recursive, sample_sequential, CgmConfig,
    CgmMachine, Hypergeometric, Pcg64,
};

/// One sampling algorithm under test: draws the `(0, 0)` entry of a freshly
/// sampled matrix for a given seed.
type EntrySampler = Box<dyn Fn(u64) -> u64>;

fn main() {
    let samples: u64 = env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);

    // 4 processors, 12 items each.
    let p = 4usize;
    let m = 12u64;
    let n = m * p as u64;
    let marginal = Hypergeometric::new(m, m, n - m);

    println!("distribution of entry a_00 over {samples} sampled {p}x{p} matrices (m = {m});");
    println!(
        "exact law (Proposition 3): h(t = {m}, w = {m}, b = {})\n",
        n - m
    );

    let algorithms: [(&str, EntrySampler); 4] = [
        (
            "Algorithm 3 (sequential)",
            Box::new(move |seed| {
                let mut rng = Pcg64::seed_from_u64(seed);
                sample_sequential(&mut rng, &vec![m; p], &vec![m; p]).get(0, 0)
            }),
        ),
        (
            "Algorithm 4 (recursive)",
            Box::new(move |seed| {
                let mut rng = Pcg64::seed_from_u64(seed);
                sample_recursive(&mut rng, &vec![m; p], &vec![m; p]).get(0, 0)
            }),
        ),
        (
            "Algorithm 5 (parallel, log factor)",
            Box::new(move |seed| {
                let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
                sample_parallel_log(&machine, &vec![m; p], &vec![m; p])
                    .0
                    .get(0, 0)
            }),
        ),
        (
            "Algorithm 6 (parallel, cost-optimal)",
            Box::new(move |seed| {
                let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
                sample_parallel_optimal(&machine, &vec![m; p], &vec![m; p])
                    .0
                    .get(0, 0)
            }),
        ),
    ];

    for (name, sampler) in &algorithms {
        // The parallel algorithms spin up a machine per sample, so cap their
        // sample count to keep the example snappy.
        let reps = if name.contains("parallel") {
            samples.min(3_000)
        } else {
            samples
        };
        let mut counts = vec![0u64; (marginal.support_max() + 1) as usize];
        for seed in 0..reps {
            counts[sampler(seed) as usize] += 1;
        }
        println!("{name} ({reps} samples)");
        println!("  k   observed   expected");
        for k in marginal.support_min()..=marginal.support_max() {
            let expected = marginal.pmf(k) * reps as f64;
            if expected < 0.5 && counts[k as usize] == 0 {
                continue;
            }
            println!(
                "  {k:>2} {:>9} {:>10.1}  {}",
                counts[k as usize],
                expected,
                "*".repeat((counts[k as usize] * 40 / reps.max(1)) as usize)
            );
        }
        println!();
    }
}
