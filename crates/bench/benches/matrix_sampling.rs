//! Criterion bench for experiment E4: cost of the four matrix-sampling
//! algorithms as a function of the number of processors (Theorem 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use cgp_cgm::{CgmConfig, CgmMachine};
use cgp_matrix::{
    sample_parallel_log, sample_parallel_optimal, sample_recursive, sample_sequential,
};
use cgp_rng::Pcg64;

const M: u64 = 100_000;

fn bench_sequential_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_matrix_sequential");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &p in &[8usize, 32, 128, 256] {
        let source = vec![M; p];
        let target = vec![M; p];
        group.bench_with_input(BenchmarkId::new("alg3_sequential", p), &p, |b, _| {
            let mut rng = Pcg64::seed_from_u64(2);
            b.iter(|| std::hint::black_box(sample_sequential(&mut rng, &source, &target)));
        });
        group.bench_with_input(BenchmarkId::new("alg4_recursive", p), &p, |b, _| {
            let mut rng = Pcg64::seed_from_u64(2);
            b.iter(|| std::hint::black_box(sample_recursive(&mut rng, &source, &target)));
        });
    }
    group.finish();
}

fn bench_parallel_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_matrix_parallel");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &p in &[8usize, 32, 64, 128] {
        let source = vec![M; p];
        let target = vec![M; p];
        group.bench_with_input(BenchmarkId::new("alg5_parallel_log", p), &p, |b, &p| {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(3));
            b.iter(|| std::hint::black_box(sample_parallel_log(&machine, &source, &target).0));
        });
        group.bench_with_input(BenchmarkId::new("alg6_parallel_optimal", p), &p, |b, &p| {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(3));
            b.iter(|| std::hint::black_box(sample_parallel_optimal(&machine, &source, &target).0));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequential_backends, bench_parallel_backends);
criterion_main!(benches);
