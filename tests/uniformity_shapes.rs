//! Uniformity tests that can see windows, buckets and workers.
//!
//! `uniformity.rs` and `core/tests/local_shuffle.rs` test whole-pipeline
//! uniformity at `n = 4..6`, where most blocks fit one bucket.  The bugs
//! this file hunts only show when a block spans several windows, a target
//! block several buckets, and several workers write into one bucket: a
//! cursor off by one at a window edge, two workers on correlated streams,
//! a bucket shuffled twice or never.
//!
//! * **Exhaustive chi-square at `n ∈ {4, 5}`** with 1- and 2-item buckets
//!   (so every window and bucket is tiny), `p ∈ {2, 3, n}`, even and
//!   prescribed uneven targets, spread over all four matrix backends.
//! * **Statistics at `n = 2^12`** with 16-item buckets, `p ∈ {2, 3, 8}` and
//!   uneven targets: position occupancy (input item → output position,
//!   64 × 64 bins), the inversion count as a z-score, the number of fixed
//!   points against Poisson(1), and the cycle count (mean `H_n`) as a
//!   z-score.  Sattolo's algorithm, whose permutations are single cycles
//!   without fixed points, is the negative control of the last two.
//! * **Negative controls**, each rejected by a check the engine passes:
//!   a model of the one-level scatter pipeline that skips the superstep-3
//!   shuffle of one bucket, the same model with two workers on one random
//!   stream, and the fixed-matrix `one_round` baseline.  The model is built
//!   here from public pieces only; the engine's one test hook (the window
//!   override that forces tiny windows) cannot break it.
//!
//! Seeds are fixed, so every verdict is deterministic.  The significance
//! level is `1e-4`: the battery runs a few dozen chi-square tests, and a
//! change of the engine's seed-to-permutation map redraws all of them.

use cgp::core::baselines::one_round_permutation;
use cgp::core::uniformity::{recommended_samples, test_uniformity, UniformityReport};
use cgp::hypergeom::multivariate_hypergeometric_into;
use cgp::stats::chi_square_test;
use cgp::stats::lehmer::inversions;
use cgp::stats::ChiSquareOutcome;
use cgp::{
    fisher_yates_shuffle, permute_vec, sample_sequential, CgmConfig, CgmMachine, MatrixBackend,
    Pcg64, PermuteOptions, Permuter, RandomExt, SeedSequence,
};

/// Significance level of every check in this file.
const ALPHA: f64 = 1e-4;

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

/// `n` items split as evenly as possible over `p` blocks, larger ones first
/// (the engine's default source and target layout).
fn even_sizes(n: usize, p: usize) -> Vec<u64> {
    (0..p)
        .map(|i| (n / p + usize::from(i < n % p)) as u64)
        .collect()
}

/// One shape of the exhaustive grid.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    p: usize,
    bucket_items: usize,
    uneven: bool,
    backend: MatrixBackend,
}

impl Shape {
    fn targets(&self) -> Vec<u64> {
        if self.uneven {
            uneven_targets(self.n, self.p)
        } else {
            even_sizes(self.n, self.p)
        }
    }

    /// One engine permutation of `0..n`, one-shot from seed `seed`.
    fn engine(&self, seed: u64) -> Vec<u64> {
        let permuter = Permuter::new(self.p).seed(seed);
        let options = PermuteOptions::with_backend(self.backend)
            .window_items(self.bucket_items)
            .target_sizes(self.targets());
        permute_vec(&permuter.machine(), (0..self.n as u64).collect(), &options).0
    }
}

/// The exhaustive check: chi-square over all `n!` permutations with a fixed
/// number of samples per size.
fn exhaustive(n: usize, generate: impl FnMut(u64) -> Vec<u64>) -> UniformityReport {
    let per_bucket = match n {
        4 => 100,
        5 => 40,
        _ => unreachable!("the exhaustive grid covers n = 4 and n = 5"),
    };
    test_uniformity(n, recommended_samples(n, per_bucket), generate)
}

/// The 24 shapes of the exhaustive grid: `n × bucket_items × p × targets`,
/// with the four matrix backends dealt round-robin so each meets every
/// other dimension.
fn grid() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for n in [4, 5] {
        for bucket_items in [1, 2] {
            for p in [2, 3, n] {
                for uneven in [false, true] {
                    let backend = MatrixBackend::ALL[shapes.len() % MatrixBackend::ALL.len()];
                    shapes.push(Shape {
                        n,
                        p,
                        bucket_items,
                        uneven,
                        backend,
                    });
                }
            }
        }
    }
    shapes
}

#[test]
fn the_engine_is_uniform_over_small_windows_buckets_and_workers() {
    for (k, shape) in grid().into_iter().enumerate() {
        let base = 0x5A4E_0000 + ((k as u64) << 20);
        let report = exhaustive(shape.n, |rep| shape.engine(base + rep));
        assert!(
            report.is_uniform_at(ALPHA),
            "{shape:?} targets {:?}: {report:?}",
            shape.targets()
        );
        assert!(report.covers_all_permutations(), "{shape:?}: {report:?}");
    }
}

/// The fixed points and the cycles of a permutation of `0..n`.
fn fixed_points_and_cycles(permutation: &[u64]) -> (usize, usize) {
    let fixed = permutation
        .iter()
        .enumerate()
        .filter(|&(i, &x)| i as u64 == x)
        .count();
    let mut seen = vec![false; permutation.len()];
    let mut cycles = 0;
    for start in 0..permutation.len() {
        if !seen[start] {
            cycles += 1;
            let mut at = start;
            while !seen[at] {
                seen[at] = true;
                at = permutation[at] as usize;
            }
        }
    }
    (fixed, cycles)
}

/// The fixed points and cycles of many permutations of `0..n`: how many
/// had 0, 1, 2 and at least 3 fixed points, and the total cycle count.
#[derive(Debug, Default)]
struct CycleTally {
    fixed: [u64; 4],
    cycles: u64,
    samples: u64,
}

impl CycleTally {
    fn add(&mut self, permutation: &[u64]) {
        let (fixed, cycles) = fixed_points_and_cycles(permutation);
        self.fixed[fixed.min(3)] += 1;
        self.cycles += cycles as u64;
        self.samples += 1;
    }

    /// The fixed points of a uniform permutation of a large `n` follow
    /// Poisson(1) (the exact law differs by less than `1/n!`).
    fn fixed_points(&self) -> ChiSquareOutcome {
        let e = (-1.0f64).exp();
        let law = [e, e, e / 2.0, 1.0 - 2.5 * e];
        let expected: Vec<f64> = law.iter().map(|q| q * self.samples as f64).collect();
        chi_square_test(&self.fixed, &expected, 0)
    }

    /// The z-score of the cycle count: a uniform permutation of `n` items
    /// has `H_n` cycles on average, with variance `H_n − H_n^(2)`.
    fn cycles_z(&self, n: usize) -> f64 {
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let squares: f64 = (1..=n).map(|k| 1.0 / (k * k) as f64).sum();
        let s = self.samples as f64;
        (self.cycles as f64 - s * harmonic) / (s * (harmonic - squares)).sqrt()
    }
}

/// Sattolo's algorithm: a uniform *cyclic* permutation — one `n`-cycle,
/// no fixed point — so a sound permutation generator never looks like it.
fn sattolo(rng: &mut Pcg64, n: usize) -> Vec<u64> {
    let mut out: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.gen_index(i));
    }
    out
}

/// Position occupancy, inversions, fixed points and cycles of the engine
/// at `n = 2^12`.
#[test]
fn the_engine_is_uniform_at_scale_over_many_windows_and_buckets() {
    const N: usize = 1 << 12;
    const BINS: usize = 64;
    const SAMPLES: u64 = 96;
    let width = N / BINS;
    // Inversions of a uniform permutation: mean n(n-1)/4, variance
    // n(n-1)(2n+5)/72.
    let n = N as f64;
    let mean = n * (n - 1.0) / 4.0;
    let variance = n * (n - 1.0) * (2.0 * n + 5.0) / 72.0;
    for p in [2usize, 3, 8] {
        let options = PermuteOptions::default()
            .window_items(16)
            .target_sizes(uneven_targets(N, p));
        let mut occupancy = vec![0u64; BINS * BINS];
        let mut inversion_sum = 0u64;
        let mut tally = CycleTally::default();
        for rep in 0..SAMPLES {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(0x5CA1_E000 + rep));
            let out = permute_vec(&machine, (0..N as u64).collect(), &options).0;
            for (position, &item) in out.iter().enumerate() {
                occupancy[(item as usize / width) * BINS + position / width] += 1;
            }
            let as_u32: Vec<u32> = out.iter().map(|&x| x as u32).collect();
            inversion_sum += inversions(&as_u32);
            tally.add(&out);
        }
        // Each sample puts `width` items of every input bin into `width`
        // positions of every output bin in expectation; row and column sums
        // are fixed, which takes 2 · (BINS − 1) degrees of freedom.
        let expected = vec![SAMPLES as f64 * (width * width) as f64 / N as f64; BINS * BINS];
        let outcome = chi_square_test(&occupancy, &expected, 2 * (BINS - 1));
        assert!(outcome.is_consistent_at(ALPHA), "p = {p}: {outcome:?}");

        let s = SAMPLES as f64;
        let z = (inversion_sum as f64 - s * mean) / (s * variance).sqrt();
        assert!(z.abs() < 4.0, "p = {p}: inversion z-score {z}");

        let fixed = tally.fixed_points();
        assert!(
            fixed.is_consistent_at(ALPHA),
            "p = {p}: {tally:?} {fixed:?}"
        );
        let z = tally.cycles_z(N);
        assert!(z.abs() < 4.0, "p = {p}: {tally:?}, cycle z-score {z}");
    }

    // Negative control: the same checks reject Sattolo's cyclic
    // permutations.
    let mut rng = Pcg64::seed_from_u64(0x5A77_0010);
    let mut cyclic = CycleTally::default();
    for _ in 0..SAMPLES {
        cyclic.add(&sattolo(&mut rng, N));
    }
    assert_eq!((cyclic.fixed[0], cyclic.cycles), (SAMPLES, SAMPLES));
    let fixed = cyclic.fixed_points();
    assert!(!fixed.is_consistent_at(ALPHA), "Sattolo: {fixed:?}");
    let z = cyclic.cycles_z(N);
    assert!(z.abs() >= 4.0, "Sattolo: cycle z-score {z}");
}

/// A defect planted in [`model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    None,
    /// The superstep-3 shuffle of bucket `b` of target `j` is skipped.
    SkipBucket(usize, usize),
    /// Workers 0 and 1 draw from one and the same stream.
    SharedStream,
}

/// A model of Algorithm 1 over `p · k` virtual targets, built from public
/// pieces: every `bucket_items`-sized bucket of every target block is a
/// virtual target.
///
/// 1. `A` is sampled by Algorithm 3, then each column `j` is split over
///    the buckets of target `j` row by row (Algorithm 2 against the
///    buckets' remaining capacity).
/// 2. Worker `i` shuffles its block window by window, splits each window
///    over the virtual targets against its remaining demand, and copies
///    the runs to its slots: within bucket `(j, b)`, worker `i`'s slot
///    follows the slots of workers `0..i`.
/// 3. Target `j` shuffles each of its buckets.
fn model(
    n: usize,
    p: usize,
    bucket_items: usize,
    targets: &[u64],
    seed: u64,
    defect: Defect,
) -> Vec<u64> {
    let seeds = SeedSequence::new(seed);
    let source = even_sizes(n, p);
    let a = sample_sequential(&mut seeds.named_stream("matrix"), &source, targets);

    // Virtual targets `(j, b)` in order, with their first output slot and
    // size.
    let mut virtual_targets = Vec::new();
    let mut start = 0u64;
    for (j, &m) in targets.iter().enumerate() {
        for (b, offset) in (0..m).step_by(bucket_items).enumerate() {
            let size = (bucket_items as u64).min(m - offset);
            virtual_targets.push((j, b, start + offset, size));
        }
        start += m;
    }
    let k = virtual_targets.len();

    // The refined `p × k` matrix.
    let mut refine = seeds.named_stream("refine");
    let mut refined = vec![vec![0u64; k]; p];
    for j in 0..p {
        let columns: Vec<usize> = (0..k).filter(|&c| virtual_targets[c].0 == j).collect();
        let mut capacity: Vec<u64> = columns.iter().map(|&c| virtual_targets[c].3).collect();
        let mut split = vec![0u64; columns.len()];
        for (i, row) in refined.iter_mut().enumerate() {
            multivariate_hypergeometric_into(&mut refine, a.get(i, j), &capacity, &mut split);
            for (x, &c) in columns.iter().enumerate() {
                row[c] = split[x];
                capacity[x] -= split[x];
            }
        }
    }

    let mut streams: Vec<Pcg64> = (0..p)
        .map(|i| match defect {
            Defect::SharedStream if i == 1 => seeds.proc_stream(0),
            _ => seeds.proc_stream(i),
        })
        .collect();
    let mut out = vec![u64::MAX; n];
    let mut first = 0u64;
    for i in 0..p {
        let mut cursor: Vec<u64> = (0..k)
            .map(|c| virtual_targets[c].2 + refined[..i].iter().map(|r| r[c]).sum::<u64>())
            .collect();
        let mut demand = refined[i].clone();
        let mut split = vec![0u64; k];
        let mut block: Vec<u64> = (first..first + source[i]).collect();
        for window in block.chunks_mut(bucket_items) {
            fisher_yates_shuffle(&mut streams[i], window);
            multivariate_hypergeometric_into(
                &mut streams[i],
                window.len() as u64,
                &demand,
                &mut split,
            );
            let mut items = window.iter();
            for c in 0..k {
                for _ in 0..split[c] {
                    out[cursor[c] as usize] = *items.next().expect("the split sums to the window");
                    cursor[c] += 1;
                }
                demand[c] -= split[c];
            }
        }
        first += source[i];
    }
    for &(j, b, start, size) in &virtual_targets {
        if defect != Defect::SkipBucket(j, b) {
            fisher_yates_shuffle(
                &mut streams[j],
                &mut out[start as usize..(start + size) as usize],
            );
        }
    }
    out
}

#[test]
fn the_model_is_uniform_and_every_negative_control_is_rejected() {
    // The model without a defect passes the same check as the engine.
    let (n, p) = (5, 2);
    let targets = even_sizes(n, p);
    let sound = exhaustive(n, |rep| model(n, p, 2, &targets, rep, Defect::None));
    assert!(sound.is_uniform_at(ALPHA), "the sound model: {sound:?}");

    // (a) Bucket 0 of target 0 keeps the order its runs arrived in.
    let skipped = exhaustive(n, |rep| {
        model(n, p, 2, &targets, rep, Defect::SkipBucket(0, 0))
    });
    assert!(
        !skipped.is_uniform_at(ALPHA),
        "a skipped bucket: {skipped:?}"
    );

    // (b) Two workers on one stream.
    let shared = exhaustive(n, |rep| model(n, p, 1, &targets, rep, Defect::SharedStream));
    assert!(!shared.is_uniform_at(ALPHA), "a shared stream: {shared:?}");

    // (c) The fixed-matrix baseline (it needs p | m).
    let fixed = exhaustive(4, |rep| {
        let machine = CgmMachine::new(CgmConfig::new(2).with_seed(0xF1_0000 + rep));
        let (out, _) = one_round_permutation(&machine, vec![vec![0, 1], vec![2, 3]], 1);
        out.into_iter().flatten().collect()
    });
    assert!(
        !fixed.is_uniform_at(ALPHA),
        "the one-round baseline: {fixed:?}"
    );
}
