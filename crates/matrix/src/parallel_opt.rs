//! Algorithm 6 — cost-optimal parallel sampling of the communication matrix.
//!
//! Algorithm 5 slices the matrix along the row dimension only, so the head of
//! the full range keeps handling vectors of length `p'` in every round and
//! pays a `log p` factor.  Algorithm 6 alternates the dimension that is
//! split (`∆`/`∇` in the paper): rounds alternately halve the row range and
//! the column range of the region a processor group is responsible for, so
//! the vectors a head handles shrink geometrically.  After `⌈log₂ p⌉` rounds
//! every processor owns a sub-matrix of roughly `√p × √p` cells, knows its
//! row sums and column sums, samples it sequentially (Algorithm 3), and a
//! final all-to-all redistributes the entries so that processor `i` ends up
//! with row `i` of the full matrix.
//!
//! Per-processor cost: `Θ(p)` time, hypergeometric draws and communication
//! volume; `Θ(p²)` total — the optimal grain of Theorem 2 (Proposition 9).

use std::sync::Arc;

use crate::check_sampler_inputs;
use crate::comm_matrix::CommMatrix;
use crate::sequential::sample_sequential;
use cgp_cgm::{CgmExecutor, MachineMetrics, MatrixCtx};
use cgp_hypergeom::multivariate_hypergeometric;

/// Word-plane tag of the final all-to-all that hands every processor its
/// row.
const ROW_TAG: u64 = u64::MAX;

/// In-context core of Algorithm 6: runs **inside an already-running job**
/// on the machine's word plane and returns this processor's row of the
/// sampled matrix.
///
/// Every processor of the job must call this with the same `source` (one
/// block size per processor) and `target` (the column sums, any length).
/// Random draws come from [`MatrixCtx::sampling_rng`] — derived fresh from
/// the machine seed per call — so the sampled matrix is a pure function of
/// the seed regardless of substrate (one-shot machine, resident pool, or a
/// fused permutation job).
///
/// The body is two halves, also callable on their own for a serial replay
/// (see [`cgp_cgm::LoopbackCgm`]): [`sample_parallel_optimal_send_ctx`]
/// runs the sampling rounds, in which a processor only ever sends to
/// higher ids, and sends the pieces of the final all-to-all;
/// [`sample_parallel_optimal_recv_ctx`] receives them.
///
/// # Panics
/// Panics (on the worker running the job) if `source.len()` differs from
/// the processor count or the totals disagree.
pub fn sample_parallel_optimal_ctx(
    ctx: &mut MatrixCtx<'_>,
    source: &[u64],
    target: &[u64],
) -> Vec<u64> {
    sample_parallel_optimal_send_ctx(ctx, source, target);
    sample_parallel_optimal_recv_ctx(ctx, target.len())
}

/// Steps 1–3 of [`sample_parallel_optimal_ctx`] and the send half of step
/// 4: after the sampling rounds, sends each row piece of this processor's
/// sub-matrix to the processor that owns the row.
pub fn sample_parallel_optimal_send_ctx(ctx: &mut MatrixCtx<'_>, source: &[u64], target: &[u64]) {
    let id = ctx.id();
    let p = ctx.procs();
    let p_prime = target.len();
    check_sampler_inputs(p, source, target);
    let mut rng = ctx.sampling_rng();

    // beta[0]: row sums of the region this processor group is
    // responsible for (restricted to the region's columns);
    // beta[1]: column sums of that region.  Only the initial head holds
    // data; the window bounds are tracked by every processor because
    // they depend only on the deterministic halving of its own range.
    let mut beta: [Vec<u64>; 2] = if id == 0 {
        [source.to_vec(), target.to_vec()]
    } else {
        [Vec::new(), Vec::new()]
    };
    // Dimension windows: rows are dimension 0, columns dimension 1.
    let mut lo = [0usize, 0usize];
    let mut hi = [p, p_prime];
    // ∆ is the dimension split in the current round, ∇ the other one.
    let mut delta = 0usize;
    let mut nabla = 1usize;

    let mut r = 0usize;
    let mut s = p;
    let mut round = 0u64;
    while s - r > 1 {
        ctx.superstep();
        let q = (r + s) / 2;
        let q_delta = (lo[delta] + hi[delta]) / 2;
        if id == r {
            // The upper group takes the upper half of the ∆ window.
            let split_at = q_delta - lo[delta];
            let upper_delta: Vec<u64> = beta[delta][split_at..].to_vec();
            let t: u64 = upper_delta.iter().sum();
            ctx.comm_mut().send(q, 2 * round, upper_delta);
            // Split the ∇ sums between the two halves of the ∆ window.
            let to_up = multivariate_hypergeometric(&mut rng, t, &beta[nabla]);
            for (b, u) in beta[nabla].iter_mut().zip(&to_up) {
                *b -= u;
            }
            ctx.comm_mut().send(q, 2 * round + 1, to_up);
            // Keep only the lower half of the ∆ window.
            beta[delta].truncate(split_at);
        } else if id == q {
            beta[delta] = ctx.comm_mut().recv(r, 2 * round);
            beta[nabla] = ctx.comm_mut().recv(r, 2 * round + 1);
        }
        if id < q {
            s = q;
            hi[delta] = q_delta;
        } else {
            r = q;
            lo[delta] = q_delta;
        }
        std::mem::swap(&mut delta, &mut nabla);
        round += 1;
    }

    // Step 3: sample the local sub-matrix sequentially from its marginals.
    debug_assert_eq!(beta[0].len(), hi[0] - lo[0]);
    debug_assert_eq!(beta[1].len(), hi[1] - lo[1]);
    debug_assert_eq!(beta[0].iter().sum::<u64>(), beta[1].iter().sum::<u64>());
    let local = if beta[0].is_empty() || beta[1].is_empty() {
        None
    } else {
        Some(sample_sequential(&mut rng, &beta[0], &beta[1]))
    };

    // Step 4: redistribute the sub-matrices so that processor i ends up
    // with the full row i.  Message format per destination: either empty
    // (this processor owns no part of that row) or
    // [column_offset, entry, entry, …].
    ctx.superstep();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    if let Some(local) = &local {
        for (local_row, global_row) in (lo[0]..hi[0]).enumerate() {
            let mut payload = Vec::with_capacity(1 + local.cols());
            payload.push(lo[1] as u64);
            payload.extend_from_slice(local.row(local_row));
            outgoing[global_row] = payload;
        }
    }
    ctx.comm_mut().all_to_all_send(outgoing, ROW_TAG);
}

/// The receive half of step 4 of [`sample_parallel_optimal_ctx`]: collects
/// the pieces of this processor's row (`p_prime` columns) from every
/// processor and assembles it.
pub fn sample_parallel_optimal_recv_ctx(ctx: &mut MatrixCtx<'_>, p_prime: usize) -> Vec<u64> {
    let incoming = ctx.comm_mut().all_to_all_recv(ROW_TAG);

    // Assemble this processor's row of the full matrix.
    let mut row = vec![0u64; p_prime];
    for payload in incoming {
        if payload.is_empty() {
            continue;
        }
        let col_offset = payload[0] as usize;
        for (k, &value) in payload[1..].iter().enumerate() {
            row[col_offset + k] = value;
        }
    }
    row
}

/// Runs Algorithm 6 as one job on the given executor — the one-shot
/// [`cgp_cgm::CgmMachine`] or a resident [`cgp_cgm::ResidentCgm`] pool
/// (thin wrapper around [`sample_parallel_optimal_ctx`]).
///
/// `source[i]` is the block size `m_i` of (and the row belonging to)
/// processor `i`; `target` holds the column sums `m'_j` (any length).
/// Returns the assembled matrix together with the metered word-plane
/// communication of the sampling job.
///
/// # Panics
/// Panics if `source.len()` differs from the executor's processor count or
/// the totals disagree.
pub fn sample_parallel_optimal(
    exec: &mut impl CgmExecutor<u64>,
    source: &[u64],
    target: &[u64],
) -> (CommMatrix, MachineMetrics) {
    check_sampler_inputs(exec.procs(), source, target);
    let source: Arc<[u64]> = source.into();
    let target: Arc<[u64]> = target.into();
    let outcome = exec
        .run_job(move |ctx| sample_parallel_optimal_ctx(&mut ctx.matrix_ctx(), &source, &target));
    let (rows, metrics) = outcome.into_parts();
    (CommMatrix::from_rows(rows), metrics.matrix_phase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_cgm::{CgmConfig, CgmMachine};
    use cgp_hypergeom::{hypergeometric_mean, hypergeometric_variance};

    #[test]
    fn marginals_hold_for_various_machine_sizes() {
        for p in [1usize, 2, 3, 4, 6, 8, 16, 32] {
            let mut machine = CgmMachine::new(CgmConfig::new(p).with_seed(p as u64));
            let source: Vec<u64> = (0..p as u64).map(|i| 7 + (i % 5)).collect();
            let total: u64 = source.iter().sum();
            // Uneven target with the same total.
            let mut target = vec![total / 3, total / 3];
            target.push(total - target.iter().sum::<u64>());
            let (matrix, _) = sample_parallel_optimal(&mut machine, &source, &target);
            matrix.check_marginals(&source, &target).unwrap();
        }
    }

    #[test]
    fn symmetric_case_matches_hypergeometric_marginals() {
        let p = 4usize;
        let m = 10u64;
        let source = vec![m; p];
        let target = vec![m; p];
        let n = m * p as u64;
        let reps = 4_000u64;
        let mut sums = vec![0u64; p * p];
        for rep in 0..reps {
            let mut machine = CgmMachine::new(CgmConfig::new(p).with_seed(1_000 + rep));
            let (matrix, _) = sample_parallel_optimal(&mut machine, &source, &target);
            for i in 0..p {
                for j in 0..p {
                    sums[i * p + j] += matrix.get(i, j);
                }
            }
        }
        for i in 0..p {
            for j in 0..p {
                let mean = sums[i * p + j] as f64 / reps as f64;
                let expect = hypergeometric_mean(m, m, n - m);
                let sd = hypergeometric_variance(m, m, n - m).sqrt();
                let tol = 6.0 * sd / (reps as f64).sqrt();
                assert!(
                    (mean - expect).abs() < tol,
                    "entry ({i},{j}): mean {mean} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = 16usize;
        let source = vec![25u64; p];
        let target = vec![25u64; p];
        let run = || {
            let mut machine = CgmMachine::new(CgmConfig::new(p).with_seed(123));
            sample_parallel_optimal(&mut machine, &source, &target).0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_processor_volume_is_linear_not_log_linear() {
        // Theorem 2 / Proposition 9: every processor of Algorithm 6 handles
        // O(p) words, while Algorithm 5's head handles Θ(p log p).  Check the
        // growth rates by doubling p twice: the cost-optimal variant must
        // scale (roughly) linearly, the log variant super-linearly.
        use crate::parallel_log::sample_parallel_log;
        let volumes = |p: usize| -> (u64, u64) {
            let m = 50u64;
            let source = vec![m; p];
            let target = vec![m; p];
            let mut machine = CgmMachine::new(CgmConfig::new(p).with_seed(7));
            let (_, opt_metrics) = sample_parallel_optimal(&mut machine, &source, &target);
            let (_, log_metrics) = sample_parallel_log(&mut machine, &source, &target);
            (opt_metrics.max_comm_volume(), log_metrics.max_comm_volume())
        };
        let (opt16, log16) = volumes(16);
        let (opt64, log64) = volumes(64);
        // Absolute bound: O(p) per processor with a small constant.
        assert!(
            opt16 <= 9 * 16,
            "Algorithm 6 max volume {opt16} not O(p) for p=16"
        );
        assert!(
            opt64 <= 9 * 64,
            "Algorithm 6 max volume {opt64} not O(p) for p=64"
        );
        // Algorithm 5's head indeed carries the log factor.
        assert!(
            log64 as f64 >= 0.5 * 64.0 * 64f64.log2(),
            "Algorithm 5 head volume {log64} unexpectedly small"
        );
        // Growth rate: quadrupling p must not grow Algorithm 6's per-processor
        // volume by much more than 4x, while Algorithm 5 grows by ~4 * log
        // ratio (= 6).
        let opt_ratio = opt64 as f64 / opt16 as f64;
        let log_ratio = log64 as f64 / log16 as f64;
        assert!(
            opt_ratio < 5.5,
            "Algorithm 6 volume grew by {opt_ratio}x for 4x processors"
        );
        assert!(log_ratio > opt_ratio, "log variant ({log_ratio}x) should grow faster than the cost-optimal one ({opt_ratio}x)");
    }

    #[test]
    fn single_processor_degenerates_to_the_target_vector() {
        let mut machine = CgmMachine::new(CgmConfig::new(1).with_seed(3));
        let (matrix, _) = sample_parallel_optimal(&mut machine, &[12], &[3, 4, 5]);
        assert_eq!(matrix.row(0), &[3, 4, 5]);
    }

    #[test]
    fn agrees_with_sequential_in_distribution_2x2() {
        // Exact chi-square on the 2-processor case where the matrix is
        // determined by a_00 (equation (8)).
        use cgp_hypergeom::Hypergeometric;
        use cgp_stats::chi_square_test;
        let (m1, m2) = (6u64, 6u64);
        let h = Hypergeometric::new(m1, m1, m2);
        let reps = 20_000u64;
        let mut counts = vec![0u64; (h.support_max() + 1) as usize];
        for rep in 0..reps {
            let mut machine = CgmMachine::new(CgmConfig::new(2).with_seed(50_000 + rep));
            let (matrix, _) = sample_parallel_optimal(&mut machine, &[m1, m2], &[m1, m2]);
            counts[matrix.get(0, 0) as usize] += 1;
        }
        let expected: Vec<f64> = (0..counts.len() as u64)
            .map(|k| h.pmf(k) * reps as f64)
            .collect();
        let outcome = chi_square_test(&counts, &expected, 0);
        assert!(
            outcome.is_consistent_at(0.001),
            "Algorithm 6 deviates from the exact law: {outcome:?}"
        );
    }

    #[test]
    #[should_panic(expected = "same total number of items")]
    fn mismatched_totals_panic() {
        let mut machine = CgmMachine::with_procs(2);
        let _ = sample_parallel_optimal(&mut machine, &[2, 2], &[3, 2]);
    }
}
