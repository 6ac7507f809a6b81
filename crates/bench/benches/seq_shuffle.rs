//! Criterion bench for experiment E1: cost per item of the sequential
//! reference algorithm (Fisher–Yates) and of the memory access patterns that
//! bound it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use cgp_core::{
    default_bucket_items, fisher_yates_shuffle, fisher_yates_shuffle_warming, BucketScratch,
    LocalShuffle,
};
use cgp_rng::{Pcg64, RandomExt};

fn bench_seq_shuffle(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_seq_shuffle");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[100_000usize, 1_000_000, 4_000_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fisher_yates", n), &n, |b, &n| {
            let mut rng = Pcg64::seed_from_u64(1);
            let mut data: Vec<u64> = (0..n as u64).collect();
            b.iter(|| {
                fisher_yates_shuffle(&mut rng, &mut data);
                std::hint::black_box(data.first().copied())
            });
        });
        group.bench_with_input(BenchmarkId::new("rng_only", n), &n, |b, &n| {
            // One Lemire draw of one word per item: what a one-at-a-time
            // Durstenfeld loop draws, against ~n/3 words for the kernel.
            let mut rng = Pcg64::seed_from_u64(1);
            b.iter(|| {
                let mut acc = 0u64;
                for i in (1..n).rev() {
                    acc = acc.wrapping_add(rng.gen_range_u64((i + 1) as u64));
                }
                std::hint::black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("sequential_pass", n), &n, |b, &n| {
            // Lower bound: a purely sequential pass over the same memory.
            let data: Vec<u64> = (0..n as u64).collect();
            b.iter(|| {
                let mut acc = 0u64;
                for &x in &data {
                    acc = acc.wrapping_add(x);
                }
                std::hint::black_box(acc)
            });
        });
        // §6 outlook ablation: the pipeline's one scatter level on one
        // processor, with cache-sized buckets.
        group.bench_with_input(BenchmarkId::new("bucketed", n), &n, |b, &n| {
            let mut rng = Pcg64::seed_from_u64(2);
            let mut data: Vec<u64> = (0..n as u64).collect();
            let mut scratch = BucketScratch::new();
            let engine = LocalShuffle::bucketed_for::<u64>();
            b.iter(|| {
                engine.shuffle_vec_with(&mut rng, &mut data, &mut scratch);
                std::hint::black_box(data.first().copied())
            });
        });
    }
    group.finish();
}

/// The Fisher–Yates kernel on cache-resident data: 32 KiB, 256 KiB and
/// 1 MiB of `u64`, shuffled again and again in place.  Here the cost per
/// item is the drawing of the swap indices plus one in-cache swap, not
/// memory latency; the shim prints it as ns/elem.
fn bench_cached_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_fisher_yates");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for n in [1usize << 12, 1 << 15, 1 << 17] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("fisher_yates", n), &n, |b, &n| {
            let mut rng = Pcg64::seed_from_u64(4);
            let mut data: Vec<u64> = (0..n as u64).collect();
            b.iter(|| {
                fisher_yates_shuffle(&mut rng, &mut data);
                std::hint::black_box(data.first().copied())
            });
        });
    }
    group.finish();
}

/// Items shuffled by the `cold_windows` group: 128 MiB of `u64`.
const COLD_ITEMS: usize = 1 << 24;

/// Bytes streamed between two `cold_windows` iterations to push the
/// payload out of the caches.
const EVICT_BYTES: usize = 128 << 20;

/// The window passes of the one scatter level in isolation: shuffle 2^24
/// `u64` one cache-sized window at a time, each window starting cold.
/// `warming` prefetches the next window during each pass; the draws and
/// the output are those of `fisher_yates`.
fn bench_cold_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_windows");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(4));
    group.throughput(Throughput::Elements(COLD_ITEMS as u64));
    let window = default_bucket_items::<u64>();
    let mut data: Vec<u64> = (0..COLD_ITEMS as u64).collect();
    let mut evict = vec![0u64; EVICT_BYTES / std::mem::size_of::<u64>()];
    let mut rng = Pcg64::seed_from_u64(3);
    for warm in [false, true] {
        let id = if warm { "warming" } else { "fisher_yates" };
        group.bench_function(id, |b| {
            b.iter_batched(
                || {
                    // Stream over a second buffer so the payload is cold.
                    for (i, x) in evict.iter_mut().enumerate() {
                        *x = x.wrapping_add(i as u64);
                    }
                    std::hint::black_box(&evict);
                },
                |()| {
                    for w in (0..COLD_ITEMS).step_by(window) {
                        let (current, rest) = data[w..].split_at_mut(window.min(COLD_ITEMS - w));
                        if warm {
                            let next = &rest[..window.min(rest.len())];
                            fisher_yates_shuffle_warming(&mut rng, current, next);
                        } else {
                            fisher_yates_shuffle(&mut rng, current);
                        }
                    }
                    std::hint::black_box(data[0])
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_seq_shuffle,
    bench_cached_kernel,
    bench_cold_windows
);
criterion_main!(benches);
