//! Reusable implementations of the experiments E1–E7, E11 and E15.
//!
//! Every function takes explicit size parameters so that the `exp_*`
//! binaries can run paper-scale versions while the unit tests and CI run
//! scaled-down smoke versions of exactly the same code.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use cgp_cgm::{CgmConfig, CgmMachine};
use cgp_core::baselines::{one_round_permutation, rejection_permutation, sort_based_permutation};
use cgp_core::uniformity::{recommended_samples, test_uniformity};
use cgp_core::{fisher_yates_shuffle, permute_vec, MatrixBackend, PermuteOptions};
use cgp_hypergeom::{sample_with, SamplerKind};
use cgp_matrix::{
    sample_parallel_log, sample_parallel_optimal, sample_recursive, sample_sequential,
};
use cgp_rng::{CountingRng, Pcg64, SeedSequence};

use crate::workload;

// ---------------------------------------------------------------------------
// E1 — cost per item of the sequential permutation
// ---------------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct SeqCostRow {
    /// Number of items permuted.
    pub n: usize,
    /// Nanoseconds per item for the full Fisher–Yates shuffle.
    pub shuffle_ns_per_item: f64,
    /// Nanoseconds per item for a purely sequential pass over the same data
    /// (an optimistic bound on the compute-only cost).
    pub sequential_pass_ns_per_item: f64,
    /// Nanoseconds per item for a random-gather pass (same access pattern as
    /// the shuffle but no random number generation) — the memory-bound part.
    pub random_gather_ns_per_item: f64,
}

impl SeqCostRow {
    /// Estimated share of the shuffle time attributable to the random memory
    /// traffic (the paper reports 33 %–80 % depending on the machine).
    pub fn memory_share(&self) -> f64 {
        (self.random_gather_ns_per_item / self.shuffle_ns_per_item).min(1.0)
    }

    /// Cycles per item under an assumed clock frequency in GHz.
    pub fn cycles_per_item(&self, ghz: f64) -> f64 {
        self.shuffle_ns_per_item * ghz
    }
}

/// Measures the sequential permutation cost for each size in `sizes`.
pub fn seq_cost(sizes: &[usize], seed: u64) -> Vec<SeqCostRow> {
    sizes
        .iter()
        .map(|&n| {
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut data = workload::identity_items(n);

            // Full shuffle.
            let started = Instant::now();
            fisher_yates_shuffle(&mut rng, &mut data);
            let shuffle = started.elapsed();

            // Sequential pass (sum) over the same memory.
            let started = Instant::now();
            let mut acc = 0u64;
            for &x in &data {
                acc = acc.wrapping_add(x);
            }
            let sequential_pass = started.elapsed();
            std::hint::black_box(acc);

            // Random gather: visit the data in the (random) order given by
            // the shuffled values themselves — same unpredictable access
            // pattern as the shuffle, but no RNG work.
            let started = Instant::now();
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(data[data[i] as usize % n.max(1)]);
            }
            let random_gather = started.elapsed();
            std::hint::black_box(acc);

            let per_item = |d: Duration| d.as_nanos() as f64 / n.max(1) as f64;
            SeqCostRow {
                n,
                shuffle_ns_per_item: per_item(shuffle),
                sequential_pass_ns_per_item: per_item(sequential_pass),
                random_gather_ns_per_item: per_item(random_gather),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E2 — random numbers per hypergeometric sample
// ---------------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Debug, Clone)]
pub struct RngDrawRow {
    /// Sampler backend under test.
    pub sampler: SamplerKind,
    /// Distribution parameters `(t, w, b)`.
    pub params: (u64, u64, u64),
    /// Average number of 64-bit uniforms per sample.
    pub avg_draws: f64,
    /// Worst case observed.
    pub max_draws: u64,
}

/// Measures the uniform-draw cost of the hypergeometric samplers over the
/// standard parameter grid (`samples` draws per grid point and backend).
pub fn rng_draws(samples: u64, seed: u64) -> Vec<RngDrawRow> {
    let mut rows = Vec::new();
    for sampler in [
        SamplerKind::Adaptive,
        SamplerKind::Inverse,
        SamplerKind::Hrua,
    ] {
        for &(t, w, b) in &workload::hypergeometric_grid() {
            // The pure-inversion backend is too slow for very wide targets;
            // skip grid points whose support is huge to keep runtimes sane.
            if sampler == SamplerKind::Inverse && t.min(w) > 200_000 {
                continue;
            }
            let mut rng = CountingRng::new(Pcg64::seed_from_u64(seed));
            let mut max_draws = 0u64;
            let mut total = 0u64;
            for _ in 0..samples {
                let before = rng.count();
                let _ = sample_with(&mut rng, t, w, b, sampler);
                let used = rng.count() - before;
                max_draws = max_draws.max(used);
                total += used;
            }
            rows.push(RngDrawRow {
                sampler,
                params: (t, w, b),
                avg_draws: total as f64 / samples as f64,
                max_draws,
            });
        }
    }
    rows
}

/// Aggregate of E2 over the whole grid for one sampler: `(average, worst)`.
pub fn rng_draws_aggregate(rows: &[RngDrawRow], sampler: SamplerKind) -> (f64, u64) {
    let filtered: Vec<&RngDrawRow> = rows.iter().filter(|r| r.sampler == sampler).collect();
    let avg = filtered.iter().map(|r| r.avg_draws).sum::<f64>() / filtered.len().max(1) as f64;
    let max = filtered.iter().map(|r| r.max_draws).max().unwrap_or(0);
    (avg, max)
}

// ---------------------------------------------------------------------------
// E3 — scaling of the full permutation with the number of processors
// ---------------------------------------------------------------------------

/// One row of the E3 scaling table.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of virtual processors (1 = the sequential reference).
    pub procs: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Speed-up relative to the sequential reference.
    pub speedup: f64,
    /// Parallel overhead factor: `p · T_p / T_seq` (the paper expects 3–5).
    pub overhead_factor: f64,
    /// Maximum per-processor communication volume during the exchange.
    pub max_comm_volume: u64,
}

/// Runs the scaling experiment for `n` items over each processor count.
/// `procs` should contain `1` for the sequential reference row.
pub fn scaling(n: usize, procs: &[usize], backend: MatrixBackend, seed: u64) -> Vec<ScalingRow> {
    // Sequential reference.
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut data = workload::identity_items(n);
    let started = Instant::now();
    fisher_yates_shuffle(&mut rng, &mut data);
    let t_seq = started.elapsed();
    std::hint::black_box(&data);

    procs
        .iter()
        .map(|&p| {
            if p == 1 {
                return ScalingRow {
                    procs: 1,
                    elapsed: t_seq,
                    speedup: 1.0,
                    overhead_factor: 1.0,
                    max_comm_volume: 0,
                };
            }
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
            let data = workload::identity_items(n);
            let started = Instant::now();
            let (out, report) = permute_vec(&machine, data, &PermuteOptions::with_backend(backend));
            let elapsed = started.elapsed();
            std::hint::black_box(&out);
            ScalingRow {
                procs: p,
                elapsed,
                speedup: t_seq.as_secs_f64() / elapsed.as_secs_f64(),
                overhead_factor: p as f64 * elapsed.as_secs_f64() / t_seq.as_secs_f64(),
                max_comm_volume: report.max_exchange_volume(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E4 — cost of the matrix-sampling algorithms
// ---------------------------------------------------------------------------

/// One row of the E4 matrix-cost table.
#[derive(Debug, Clone)]
pub struct MatrixCostRow {
    /// Matrix backend.
    pub backend: MatrixBackend,
    /// Number of processors (= rows = columns).
    pub procs: usize,
    /// Wall-clock time to sample one matrix.
    pub elapsed: Duration,
    /// Uniform draws consumed (sequential backends only).
    pub draws: Option<u64>,
    /// Maximum per-processor communication volume (parallel backends only).
    pub max_comm_volume: Option<u64>,
    /// Total words sent over the machine (parallel backends only).
    pub total_words: Option<u64>,
}

/// Samples one `p × p` matrix (equal blocks of size `m`) with every backend
/// for every `p` in `procs` and records the cost.
pub fn matrix_cost(procs: &[usize], m: u64, seed: u64) -> Vec<MatrixCostRow> {
    let mut rows = Vec::new();
    for &p in procs {
        let source = vec![m; p];
        let target = vec![m; p];

        for backend in [MatrixBackend::Sequential, MatrixBackend::Recursive] {
            let mut rng = CountingRng::new(Pcg64::seed_from_u64(seed));
            let started = Instant::now();
            let matrix = match backend {
                MatrixBackend::Sequential => sample_sequential(&mut rng, &source, &target),
                _ => sample_recursive(&mut rng, &source, &target),
            };
            let elapsed = started.elapsed();
            std::hint::black_box(&matrix);
            rows.push(MatrixCostRow {
                backend,
                procs: p,
                elapsed,
                draws: Some(rng.count()),
                max_comm_volume: None,
                total_words: None,
            });
        }

        for backend in [MatrixBackend::ParallelLog, MatrixBackend::ParallelOptimal] {
            let mut machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
            let started = Instant::now();
            let (matrix, metrics) = match backend {
                MatrixBackend::ParallelLog => sample_parallel_log(&mut machine, &source, &target),
                _ => sample_parallel_optimal(&mut machine, &source, &target),
            };
            let elapsed = started.elapsed();
            std::hint::black_box(&matrix);
            rows.push(MatrixCostRow {
                backend,
                procs: p,
                elapsed,
                draws: None,
                max_comm_volume: Some(metrics.max_comm_volume()),
                total_words: Some(metrics.total_words_sent()),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E5 — uniformity of the full pipeline
// ---------------------------------------------------------------------------

/// One row of the E5 uniformity table.
#[derive(Debug, Clone)]
pub struct UniformityRow {
    /// Human-readable generator name.
    pub generator: String,
    /// Permutation length tested exhaustively.
    pub n: usize,
    /// Number of generated permutations.
    pub samples: u64,
    /// Chi-square statistic against the uniform law over `n!` outcomes.
    pub chi_square: f64,
    /// Degrees of freedom.
    pub dof: usize,
    /// p-value (≥ 0.01 means "consistent with uniform" at the 1 % level).
    pub p_value: f64,
    /// Whether every one of the `n!` permutations was observed.
    pub covers_all: bool,
}

/// Runs the uniformity experiment for Algorithm 1 (all backends) and the
/// baselines at permutation length `n` with `per_bucket` expected samples per
/// outcome.
pub fn uniformity(n: usize, per_bucket: u64, p: usize) -> Vec<UniformityRow> {
    let samples = recommended_samples(n, per_bucket);
    let mut rows = Vec::new();

    let mut push = |name: String, report: cgp_core::uniformity::UniformityReport| {
        rows.push(UniformityRow {
            generator: name,
            n,
            samples: report.samples,
            chi_square: report.chi_square.statistic,
            dof: report.chi_square.degrees_of_freedom,
            p_value: report.chi_square.p_value,
            covers_all: report.covers_all_permutations(),
        });
    };

    // Sequential reference.
    let mut rng = Pcg64::seed_from_u64(1);
    push(
        "sequential Fisher-Yates".into(),
        test_uniformity(n, samples, |_| {
            cgp_core::sequential::random_index_permutation(&mut rng, n)
        }),
    );

    // Algorithm 1 with each matrix backend.
    for backend in MatrixBackend::ALL {
        push(
            format!("Algorithm 1 + {}", backend.name()),
            test_uniformity(n, samples, |rep| {
                let machine = CgmMachine::new(CgmConfig::new(p).with_seed(rep * 7 + 13));
                permute_vec(
                    &machine,
                    workload::identity_items(n),
                    &PermuteOptions::with_backend(backend),
                )
                .0
            }),
        );
    }

    // Fixed-matrix baseline (1 round): the known non-uniform contrast.
    if n.is_multiple_of(p) && (n / p).is_multiple_of(p) {
        push(
            "baseline: fixed matrix, 1 round".into(),
            test_uniformity(n, samples, |rep| {
                let machine = CgmMachine::new(CgmConfig::new(p).with_seed(rep * 11 + 17));
                let m = n / p;
                let blocks: Vec<Vec<u64>> = (0..p)
                    .map(|i| ((i * m) as u64..((i + 1) * m) as u64).collect())
                    .collect();
                one_round_permutation(&machine, blocks, 1)
                    .0
                    .into_iter()
                    .flatten()
                    .collect()
            }),
        );
    }

    rows
}

// ---------------------------------------------------------------------------
// E6 — crossover between matrix sampling and data exchange
// ---------------------------------------------------------------------------

/// One row of the E6 crossover table.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    /// Total number of items.
    pub n: usize,
    /// Matrix backend used.
    pub backend: MatrixBackend,
    /// Time spent sampling the matrix.
    pub matrix_elapsed: Duration,
    /// Time spent in shuffle + exchange + shuffle.
    pub exchange_elapsed: Duration,
}

impl CrossoverRow {
    /// Fraction of the total time spent in matrix sampling.
    pub fn matrix_share(&self) -> f64 {
        let total = self.matrix_elapsed.as_secs_f64() + self.exchange_elapsed.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.matrix_elapsed.as_secs_f64() / total
        }
    }
}

/// Measures the split between matrix-sampling time and exchange time for a
/// fixed machine size `p` and varying `n`.
pub fn crossover(p: usize, sizes: &[usize], seed: u64) -> Vec<CrossoverRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        for backend in [MatrixBackend::Sequential, MatrixBackend::ParallelOptimal] {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seed));
            let (_, report) = permute_vec(
                &machine,
                workload::identity_items(n),
                &PermuteOptions::with_backend(backend),
            );
            rows.push(CrossoverRow {
                n,
                backend,
                matrix_elapsed: report.matrix_elapsed,
                exchange_elapsed: report.exchange_elapsed,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E7 — the three-criteria comparison with the baselines
// ---------------------------------------------------------------------------

/// One row of the E7 comparison table.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Method name.
    pub method: String,
    /// Wall-clock time at the measured size.
    pub elapsed: Duration,
    /// Total words sent over the machine, per item (communication overhead).
    pub words_per_item: f64,
    /// Balance factor of the communication (1.0 = perfect).
    pub balance: f64,
    /// p-value of the exhaustive uniformity test at n = 4 (None when the
    /// method was not subjected to the test).
    pub uniformity_p_value: Option<f64>,
    /// Free-form note on the structural property the method gives up.
    pub note: &'static str,
}

/// Runs the baseline comparison at `n` items over `p` processors.
pub fn baselines(n: usize, p: usize, seed: u64) -> Vec<BaselineRow> {
    let seeds = SeedSequence::new(seed);
    let dist = cgp_cgm::BlockDistribution::even(n as u64, p);
    let mut rows = Vec::new();

    // Algorithm 1.
    {
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seeds.child_seed(1)));
        let started = Instant::now();
        let (_, report) = permute_vec(
            &machine,
            workload::identity_items(n),
            &PermuteOptions::with_backend(MatrixBackend::ParallelOptimal),
        );
        let elapsed = started.elapsed();
        let uniform = uniformity_p_for(|rep| {
            let machine = CgmMachine::new(CgmConfig::new(2).with_seed(rep));
            permute_vec(
                &machine,
                workload::identity_items(4),
                &PermuteOptions::default(),
            )
            .0
        });
        rows.push(BaselineRow {
            method: "Algorithm 1 (this paper)".into(),
            elapsed,
            words_per_item: report.exchange_metrics.total_words_sent() as f64 / n as f64,
            balance: report.exchange_metrics.comm_balance(),
            uniformity_p_value: Some(uniform),
            note: "uniform + work-optimal + balanced",
        });
    }

    // Sort-based baseline.
    {
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seeds.child_seed(2)));
        let blocks = dist.split_vec(workload::identity_items(n));
        let started = Instant::now();
        let (_, metrics) = sort_based_permutation(&machine, blocks);
        let elapsed = started.elapsed();
        let uniform = uniformity_p_for(|rep| {
            let machine = CgmMachine::new(CgmConfig::new(2).with_seed(rep));
            let d = cgp_cgm::BlockDistribution::even(4, 2);
            sort_based_permutation(&machine, d.split_vec(workload::identity_items(4)))
                .0
                .into_iter()
                .flatten()
                .collect()
        });
        rows.push(BaselineRow {
            method: "random keys + sample sort (Goodrich)".into(),
            elapsed,
            words_per_item: metrics.total_words_sent() as f64 / n as f64,
            balance: metrics.comm_balance(),
            uniformity_p_value: Some(uniform),
            note: "not work-optimal (Θ(n log n) work, 2x volume)",
        });
    }

    // Rejection baseline (measured at a tiny size so it terminates: the
    // probability that independent destination draws hit the exact block
    // sizes decays like Π_j (2π m'_j)^(-1/2), so anything beyond a few items
    // per block never accepts — which is precisely the structural point).
    {
        let n_small = (4 * p).max(16);
        let dist_small = cgp_cgm::BlockDistribution::even(n_small as u64, p);
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seeds.child_seed(3)));
        let blocks = dist_small.split_vec(workload::identity_items(n_small));
        let started = Instant::now();
        let outcome = rejection_permutation(&machine, blocks, dist_small.sizes(), 200_000).ok();
        let elapsed = started.elapsed();
        let uniform = uniformity_p_for(|rep| {
            let machine = CgmMachine::new(CgmConfig::new(2).with_seed(rep));
            let d = cgp_cgm::BlockDistribution::even(4, 2);
            rejection_permutation(
                &machine,
                d.split_vec(workload::identity_items(4)),
                d.sizes(),
                1_000_000,
            )
            .expect("tiny instances accept")
            .blocks
            .into_iter()
            .flatten()
            .collect()
        });
        rows.push(BaselineRow {
            method: format!(
                "rejection / start-over (n = {n_small}, {} attempts)",
                outcome.as_ref().map(|o| o.attempts).unwrap_or(0)
            ),
            elapsed,
            words_per_item: outcome
                .as_ref()
                .map(|o| o.metrics.total_words_sent() as f64 / n_small as f64)
                .unwrap_or(f64::NAN),
            balance: outcome
                .as_ref()
                .map(|o| o.metrics.comm_balance())
                .unwrap_or(f64::NAN),
            uniformity_p_value: Some(uniform),
            note: "not work-optimal (restarts grow with n)",
        });
    }

    // Fixed-matrix baseline.
    if (n / p).is_multiple_of(p) {
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(seeds.child_seed(4)));
        let blocks = dist.split_vec(workload::identity_items(n));
        let started = Instant::now();
        let (_, metrics) = one_round_permutation(&machine, blocks, 1);
        let elapsed = started.elapsed();
        let uniform = uniformity_p_for(|rep| {
            let machine = CgmMachine::new(CgmConfig::new(2).with_seed(rep));
            let blocks = vec![vec![0u64, 1], vec![2u64, 3]];
            one_round_permutation(&machine, blocks, 1)
                .0
                .into_iter()
                .flatten()
                .collect()
        });
        rows.push(BaselineRow {
            method: "fixed matrix, 1 round".into(),
            elapsed,
            words_per_item: metrics.total_words_sent() as f64 / n as f64,
            balance: metrics.comm_balance(),
            uniformity_p_value: Some(uniform),
            note: "not uniform (fixed communication matrix)",
        });
    }

    rows
}

/// Median of a set of per-repetition durations (element at index n/2 of
/// the sorted vector) — the shared statistic of the paired protocols.
fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Paired per-repetition ratio median `a[i] / b[i]` — robust against drift
/// of the host's background load, since both paths of a pair run
/// back-to-back within each repetition.
fn median_ratio(a: &[Duration], b: &[Duration]) -> f64 {
    let mut ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x.as_secs_f64() / y.as_secs_f64().max(1e-12))
        .collect();
    ratios.sort_by(|x, y| x.total_cmp(y));
    ratios[ratios.len() / 2]
}

// ---------------------------------------------------------------------------
// E11 — multi-tenant service throughput vs a serialized session and vs
// sequential Fisher–Yates
// ---------------------------------------------------------------------------

/// One row of the E11 table: the same client population served by a
/// [`cgp_core::PermutationService`] of `executors` serial executors, by a
/// single shared [`cgp_core::PermutationSession`] behind a mutex (every
/// client serializes on it — the do-nothing alternative a service
/// replaces), and by the reference: every client shuffling its own jobs
/// with sequential Fisher–Yates on its own thread.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Which client population shape this row measured: `"uniform"` (every
    /// client submits the same share), `"skewed"` (one tenant submits half
    /// of all jobs — the fair-admission stress), or `"tiny"` (uniform
    /// clients, [`TINY_JOB_N`]-item jobs, where the per-job fixed cost is
    /// everything).
    pub scenario: &'static str,
    /// Items per job.
    pub n: usize,
    /// Virtual processors per job.
    pub procs: usize,
    /// Executor threads of the service.
    pub executors: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total jobs served per measured repetition (split evenly over the
    /// clients).
    pub jobs: usize,
    /// Median wall-clock for the whole client population on the service.
    pub service_elapsed: Duration,
    /// Median wall-clock for the same population serializing on one
    /// session.
    pub serialized_elapsed: Duration,
    /// Median wall-clock for the same population shuffling its own jobs
    /// with sequential Fisher–Yates.
    pub reference_elapsed: Duration,
    /// Paired median of the per-repetition ratios `serialized / service`.
    pub speedup_vs_serialized: f64,
    /// Paired median of the per-repetition ratios `reference / service`:
    /// the service's speed relative to sequential Fisher–Yates of the same
    /// jobs on the same host, which the `--check` gate holds.
    pub vs_seq_fy: f64,
}

impl ServiceRow {
    /// Aggregate service throughput, jobs per second.
    pub fn throughput(&self) -> f64 {
        self.jobs as f64 / self.service_elapsed.as_secs_f64().max(1e-12)
    }
}

/// Drives one client thread per entry of `jobs_per_client` (client `i`
/// makes `jobs_per_client[i]` blocking calls) through `serve` and returns
/// the population wall-clock.
fn drive_clients(
    jobs_per_client: &[usize],
    n: usize,
    serve: &(impl Fn(usize, Vec<u64>) -> Vec<u64> + Sync),
) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (client, &jobs) in jobs_per_client.iter().enumerate() {
            scope.spawn(move || {
                let mut data = workload::identity_items(n);
                for _ in 0..jobs {
                    data = serve(client, data);
                }
                std::hint::black_box(&data);
            });
        }
    });
    started.elapsed()
}

/// Measures one `(scenario, clients, executors)` cell: the client
/// population (client `i` owns `jobs_per_client[i]` jobs) on a service of
/// `executors`, on one shared session and on the sequential Fisher–Yates
/// reference.  All three are built once and warmed, then timed
/// repetitions rotate through them (the paired protocol).
fn service_cell(
    scenario: &'static str,
    n: usize,
    procs: usize,
    executors: usize,
    jobs_per_client: &[usize],
    seed: u64,
) -> ServiceRow {
    const REPS: usize = 9;
    let clients = jobs_per_client.len();
    let jobs: usize = jobs_per_client.iter().sum();
    let permuter = cgp_core::Permuter::new(procs).seed(seed);
    let service = permuter.service_sized::<u64>(executors, clients.max(2 * executors));
    let handles: Vec<cgp_core::ServiceHandle<u64>> =
        (0..clients).map(|_| service.handle()).collect();
    let session = Mutex::new(permuter.session::<u64>());

    let on_service =
        |client: usize, data: Vec<u64>| handles[client].permute(data).expect("service job").0;
    let on_serialized = |_client: usize, mut data: Vec<u64>| {
        session.lock().permute_into(&mut data);
        data
    };
    let on_reference = |client: usize, mut data: Vec<u64>| {
        fisher_yates_shuffle(&mut Pcg64::seed_from_u64(client as u64), &mut data);
        data
    };

    // Warm all three: threads spawn, scratches ratchet, every executor
    // serves at least once.
    let warm: Vec<usize> = jobs_per_client.iter().map(|&j| j.min(2)).collect();
    drive_clients(&warm, n, &on_service);
    drive_clients(&warm, n, &on_serialized);
    drive_clients(&warm, n, &on_reference);

    let mut service_times = Vec::with_capacity(REPS);
    let mut serialized_times = Vec::with_capacity(REPS);
    let mut reference_times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        service_times.push(drive_clients(jobs_per_client, n, &on_service));
        serialized_times.push(drive_clients(jobs_per_client, n, &on_serialized));
        reference_times.push(drive_clients(jobs_per_client, n, &on_reference));
    }
    let metrics = service.shutdown();
    assert_eq!(
        metrics.jobs_failed, 0,
        "benchmark jobs must not fail (scenario={scenario}, clients={clients}, \
         executors={executors})"
    );
    ServiceRow {
        scenario,
        n,
        procs,
        executors,
        clients,
        jobs,
        speedup_vs_serialized: median_ratio(&serialized_times, &service_times),
        vs_seq_fy: median_ratio(&reference_times, &service_times),
        service_elapsed: median(service_times),
        serialized_elapsed: median(serialized_times),
        reference_elapsed: median(reference_times),
    }
}

/// Measures the multi-tenant service for every `(clients, executors)` cell
/// of the grid, with a **uniform** client population: `jobs_total` split
/// evenly over the clients, so every cell serves the same number of jobs
/// (see `service_cell` for the paired measurement protocol).
pub fn service(
    n: usize,
    procs: usize,
    clients_grid: &[usize],
    executors_grid: &[usize],
    jobs_total: usize,
    seed: u64,
) -> Vec<ServiceRow> {
    let mut rows = Vec::new();
    for &clients in clients_grid {
        let jobs_per_client = vec![(jobs_total / clients).max(1); clients];
        for &executors in executors_grid {
            rows.push(service_cell(
                "uniform",
                n,
                procs,
                executors,
                &jobs_per_client,
                seed,
            ));
        }
    }
    rows
}

/// Payload size of the `"tiny"` scenario's jobs: small enough that the
/// per-job fixed cost (admission, executor wake, ticket completion) dwarfs
/// the permutation work.
pub const TINY_JOB_N: usize = 64;

/// Measures the two scheduler-stress populations at the highest committed
/// concurrency, for every executor count of the grid:
///
/// * `"skewed"` — one tenant submits **half of all jobs** while the other
///   `clients - 1` split the rest: the fair-admission stress (a flooding
///   tenant must not collapse aggregate throughput).
/// * `"tiny"` — a uniform population of [`TINY_JOB_N`]-item jobs: the
///   small-job row, priced almost entirely by the per-job fixed cost.
pub fn service_scenarios(
    n: usize,
    procs: usize,
    clients: usize,
    executors_grid: &[usize],
    jobs_total: usize,
    seed: u64,
) -> Vec<ServiceRow> {
    let mut rows = Vec::new();

    // Skewed: tenant 0 owns half the jobs, everyone else splits the rest.
    let mut skewed = vec![0usize; clients];
    skewed[0] = (jobs_total / 2).max(1);
    if clients > 1 {
        let rest = ((jobs_total - skewed[0]) / (clients - 1)).max(1);
        for slot in skewed.iter_mut().skip(1) {
            *slot = rest;
        }
    }
    for &executors in executors_grid {
        rows.push(service_cell("skewed", n, procs, executors, &skewed, seed));
    }

    // Tiny: uniform population, small payloads.
    let tiny = vec![(jobs_total / clients).max(1); clients];
    for &executors in executors_grid {
        rows.push(service_cell(
            "tiny", TINY_JOB_N, procs, executors, &tiny, seed,
        ));
    }
    rows
}

// ---------------------------------------------------------------------------
// E15 — wire front-end overhead (socket round-trip vs in-process handle)
// ---------------------------------------------------------------------------

/// One row of the E15 table: the same blocking `u64` permutation job
/// submitted through an in-process [`cgp_core::ServiceHandle`] and through
/// a [`cgp_server::Client`] over a socket, against the **same**
/// [`cgp_core::ServiceConfig`].
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Which socket family the wire path used: `"uds"` or `"tcp"`.
    pub transport: &'static str,
    /// Items per job.
    pub n: usize,
    /// Virtual processors per machine.
    pub procs: usize,
    /// Median per-job latency through the in-process handle.
    pub in_process: Duration,
    /// Median per-job latency through the wire client (connect once,
    /// outside the clock; each repetition is one submit + result
    /// round-trip).
    pub wire: Duration,
    /// The wire's own throughput: the median over repetitions of
    /// `n / (wire − in_process)`, in items per second, each difference
    /// taken within one back-to-back pair.  This prices only what the
    /// socket front-end adds — frame-encoding the payload twice and
    /// crossing the socket twice per job — so a faster or slower engine
    /// leaves it alone.  The `--check` gate holds it (higher is better).
    pub wire_items_per_s: f64,
}

impl WireRow {
    /// How many times the wire front-end *slows down* the same job
    /// (`wire / in_process`, ≥ 1 in practice), from the per-path medians.
    pub fn wire_overhead(&self) -> f64 {
        self.wire.as_secs_f64() / self.in_process.as_secs_f64().max(1e-12)
    }
}

/// Median over paired repetitions of `n / (wire − in_process)` in items
/// per second.  A pair in which the wire happened to be no slower counts
/// as a one-nanosecond difference: noise, not a free wire.
fn wire_items_per_s(n: usize, in_process: &[Duration], wire: &[Duration]) -> f64 {
    let mut rates: Vec<f64> = in_process
        .iter()
        .zip(wire)
        .map(|(local, remote)| n as f64 / remote.saturating_sub(*local).as_secs_f64().max(1e-9))
        .collect();
    rates.sort_by(|x, y| x.total_cmp(y));
    rates[rates.len() / 2]
}

/// Untimed jobs per path before a row's clock starts, past the one that
/// checks the two paths agree.
const WIRE_WARMUP_JOBS: usize = 4;

/// Repetitions per row: about 0.1 s of wire jobs at each size, since the
/// gated figure is a difference of two noisy times and small jobs need
/// many pairs for a steady median.
fn wire_reps(n: usize) -> usize {
    if n >= 1_000_000 {
        9
    } else if n >= 100_000 {
        41
    } else {
        101
    }
}

fn wire_row(transport: &'static str, n: usize, procs: usize, seed: u64) -> WireRow {
    use cgp_server::{Client, WireServer};

    let reps = wire_reps(n);
    // One executor on both sides: the row prices the protocol, not an
    // executor imbalance.  Determinism makes the comparison honest — the wire job
    // and the in-process job compute the byte-identical permutation.
    let config = cgp_core::service::ServiceConfig::new(procs)
        .executors(1)
        .seed(seed);
    let options = PermuteOptions::default();

    let service = cgp_core::PermutationService::<u64>::new(config, options.clone());
    let handle = service.handle();

    let (server, mut client): (WireServer<u64>, Client<u64>) = match transport {
        "tcp" => {
            let server = WireServer::bind_tcp("127.0.0.1:0", config, options).expect("bind tcp");
            let addr = server.local_addr().expect("tcp address");
            (server, Client::connect_tcp(addr).expect("connect tcp"))
        }
        _ => {
            let path = std::env::temp_dir()
                .join(format!("cgp-bench-wire-{}-{n}.sock", std::process::id()));
            let server = WireServer::bind_uds(&path, config, options).expect("bind uds");
            (server, Client::connect_uds(&path).expect("connect uds"))
        }
    };

    let data = workload::identity_items(n);
    // Warm both paths (pool spawn, scratch ratchets, socket buffers).
    let reference = handle.permute(data.clone()).expect("in-process job").0;
    let via_wire = client.permute(&data).expect("wire job");
    assert_eq!(via_wire, reference, "wire and in-process jobs must agree");
    for _ in 0..WIRE_WARMUP_JOBS {
        std::hint::black_box(handle.permute(data.clone()).expect("in-process job"));
        std::hint::black_box(client.permute(&data).expect("wire job"));
    }

    let mut in_process_times = Vec::with_capacity(reps);
    let mut wire_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        std::hint::black_box(
            handle
                .permute(data.clone())
                .expect("in-process job")
                .0
                .len(),
        );
        in_process_times.push(started.elapsed());
        let started = Instant::now();
        std::hint::black_box(client.permute(&data).expect("wire job").len());
        wire_times.push(started.elapsed());
    }
    drop(client);
    server.shutdown();
    service.shutdown();
    WireRow {
        transport,
        n,
        procs,
        wire_items_per_s: wire_items_per_s(n, &in_process_times, &wire_times),
        in_process: median(in_process_times),
        wire: median(wire_times),
    }
}

/// Measures the wire front-end against the in-process handle for every
/// `n` in the grid, on both socket families: both paths warmed untimed,
/// then alternating timed repetitions with per-path medians and the
/// paired median of the wire's own throughput.
pub fn wire_overhead(ns: &[usize], procs: usize, seed: u64) -> Vec<WireRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for transport in ["uds", "tcp"] {
            rows.push(wire_row(transport, n, procs, seed));
        }
    }
    rows
}

/// Helper: exhaustive uniformity p-value at n = 4 for an arbitrary generator.
fn uniformity_p_for(generate: impl FnMut(u64) -> Vec<u64>) -> f64 {
    test_uniformity(4, recommended_samples(4, 120), generate)
        .chi_square
        .p_value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_cost_rows_are_sane() {
        let rows = seq_cost(&[10_000, 50_000], 1);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.shuffle_ns_per_item > 0.0);
            assert!(row.memory_share() <= 1.0);
            assert!(row.cycles_per_item(1.0) > 0.0);
        }
    }

    #[test]
    fn rng_draw_rows_cover_all_samplers() {
        let rows = rng_draws(200, 3);
        let (avg, max) = rng_draws_aggregate(&rows, SamplerKind::Adaptive);
        assert!(
            (1.0..6.0).contains(&avg),
            "adaptive average {avg} out of range"
        );
        assert!(max >= 1);
        assert!(rows.iter().any(|r| r.sampler == SamplerKind::Hrua));
        assert!(rows.iter().any(|r| r.sampler == SamplerKind::Inverse));
    }

    #[test]
    fn scaling_rows_include_reference() {
        let rows = scaling(20_000, &[1, 2, 4], MatrixBackend::Sequential, 5);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].procs, 1);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        for r in &rows[1..] {
            assert!(r.max_comm_volume > 0);
            assert!(r.overhead_factor > 0.0);
        }
    }

    #[test]
    fn matrix_cost_covers_all_backends() {
        let rows = matrix_cost(&[4, 8], 100, 7);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            match r.backend {
                MatrixBackend::Sequential | MatrixBackend::Recursive => {
                    assert!(r.draws.is_some());
                    assert!(r.max_comm_volume.is_none());
                }
                _ => {
                    assert!(r.draws.is_none());
                    assert!(r.max_comm_volume.is_some());
                }
            }
        }
    }

    #[test]
    fn crossover_rows_have_both_phases() {
        let rows = crossover(4, &[5_000, 20_000], 9);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.matrix_share() >= 0.0 && r.matrix_share() <= 1.0);
        }
    }

    #[test]
    fn uniformity_experiment_smoke() {
        let rows = uniformity(3, 40, 2);
        // Fisher-Yates + 4 backends (+ possibly the fixed-matrix baseline).
        assert!(rows.len() >= 5);
        for r in &rows {
            if r.generator.contains("Algorithm 1") || r.generator.contains("Fisher") {
                assert!(r.p_value > 1e-4, "{} rejected: {r:?}", r.generator);
            }
        }
    }

    #[test]
    fn service_experiment_smoke() {
        let rows = service(800, 2, &[1, 3], &[1, 2], 6, 31);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.scenario, "uniform");
            assert_eq!(r.n, 800);
            assert_eq!(r.procs, 2);
            assert!(r.jobs >= 6);
            assert!(r.service_elapsed > Duration::ZERO);
            assert!(r.serialized_elapsed > Duration::ZERO);
            assert!(r.reference_elapsed > Duration::ZERO);
            assert!(r.throughput() > 0.0);
            assert!(r.speedup_vs_serialized > 0.0);
            assert!(r.vs_seq_fy > 0.0);
        }
    }

    #[test]
    fn service_scenarios_smoke() {
        let rows = service_scenarios(800, 2, 3, &[1, 2], 8, 31);
        assert_eq!(rows.len(), 4);
        let skewed: Vec<_> = rows.iter().filter(|r| r.scenario == "skewed").collect();
        let tiny: Vec<_> = rows.iter().filter(|r| r.scenario == "tiny").collect();
        assert_eq!(skewed.len(), 2);
        assert_eq!(tiny.len(), 2);
        for r in &skewed {
            assert_eq!(r.n, 800);
            assert_eq!(r.clients, 3);
            // Tenant 0 owns half the jobs, the other two split the rest.
            assert_eq!(r.jobs, 4 + 2 + 2);
        }
        for r in &tiny {
            assert_eq!(r.n, TINY_JOB_N);
            assert!(r.throughput() > 0.0);
        }
    }

    #[test]
    fn wire_overhead_experiment_smoke() {
        let rows = wire_overhead(&[2_000], 2, 29);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].transport, "uds");
        assert_eq!(rows[1].transport, "tcp");
        for r in &rows {
            assert_eq!(r.n, 2_000);
            assert_eq!(r.procs, 2);
            assert!(r.in_process > Duration::ZERO);
            assert!(r.wire > Duration::ZERO);
            assert!(r.wire_overhead() > 0.0);
            assert!(r.wire_items_per_s > 0.0);
        }
    }

    #[test]
    fn baselines_experiment_smoke() {
        let rows = baselines(512, 2, 11);
        assert!(rows.len() >= 3);
        let alg1 = &rows[0];
        assert!(alg1.method.contains("Algorithm 1"));
        assert!(alg1.uniformity_p_value.unwrap() > 1e-4);
        let fixed = rows.iter().find(|r| r.method.contains("fixed matrix"));
        if let Some(fixed) = fixed {
            assert!(fixed.uniformity_p_value.unwrap() < 1e-4);
        }
    }
}
