//! Criterion bench for experiment E2: throughput and draw cost of the
//! hypergeometric samplers (inversion vs HRUA vs adaptive), including the
//! crossover-threshold ablation of DESIGN.md, and the window splits of one
//! worker of the pipeline's scatter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use cgp_hypergeom::{sample_with, SamplerKind};
use cgp_rng::Pcg64;

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_hypergeometric_samplers");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    // (label, t, w, b): a narrow target, a medium one and a very wide one.
    let cases = [
        ("narrow_t10", 10u64, 1_000u64, 9_000u64),
        ("medium_t1k", 1_000, 40_000, 120_000),
        ("wide_t200k", 200_000, 500_000, 500_000),
    ];
    for (label, t, w, b) in cases {
        for kind in [
            SamplerKind::Adaptive,
            SamplerKind::Inverse,
            SamplerKind::Hrua,
        ] {
            // Inversion over a very wide support is exactly the pathology the
            // adaptive switch avoids; skip it to keep the bench short.
            if kind == SamplerKind::Inverse && label == "wide_t200k" {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), label),
                &(t, w, b),
                |bencher, &(t, w, b)| {
                    let mut rng = Pcg64::seed_from_u64(3);
                    bencher.iter(|| std::hint::black_box(sample_with(&mut rng, t, w, b, kind)));
                },
            );
        }
    }
    group.finish();
}

fn bench_multivariate(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_multivariate");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &p in &[16usize, 64, 256] {
        let weights = vec![10_000u64; p];
        let m: u64 = weights.iter().sum::<u64>() / 2;
        group.bench_with_input(BenchmarkId::new("iterative", p), &p, |b, _| {
            let mut rng = Pcg64::seed_from_u64(4);
            b.iter(|| {
                std::hint::black_box(cgp_hypergeom::multivariate_hypergeometric(
                    &mut rng, m, &weights,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("recursive", p), &p, |b, _| {
            let mut rng = Pcg64::seed_from_u64(4);
            b.iter(|| {
                std::hint::black_box(cgp_hypergeom::multivariate_hypergeometric_recursive(
                    &mut rng, m, &weights,
                ))
            });
        });
    }
    group.finish();
}

/// The window splits of one worker of a 2^24-item `u64` job at p = 2: 255
/// windows of 2^15 items (the 256th split is forced and draws nothing), each
/// split by Algorithm 2 over the K virtual targets against the worker's
/// remaining demand, `2^23 / K` items per target at the start.  K = 512 is
/// the layout of one-window buckets, K = 128 that of the run-length floor;
/// an iteration costs `255 · (K − 1)` univariate draws.
fn bench_window_splits(c: &mut Criterion) {
    const WINDOW: u64 = 1 << 15;
    const BLOCK: u64 = 1 << 23;
    let mut group = c.benchmark_group("scatter_window_splits");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for k in [512usize, 128] {
        let row = vec![BLOCK / k as u64; k];
        group.bench_with_input(BenchmarkId::new("bulk_worker_k", k), &k, |b, _| {
            let mut rng = Pcg64::seed_from_u64(5);
            let mut demand = row.clone();
            let mut split = vec![0; k];
            b.iter(|| {
                demand.copy_from_slice(&row);
                for _ in 1..BLOCK / WINDOW {
                    cgp_hypergeom::multivariate_hypergeometric_into(
                        &mut rng, WINDOW, &demand, &mut split,
                    );
                    for (d, &x) in demand.iter_mut().zip(&split) {
                        *d -= x;
                    }
                }
                std::hint::black_box(&demand);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_samplers,
    bench_multivariate,
    bench_window_splits
);
criterion_main!(benches);
