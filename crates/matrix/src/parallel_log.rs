//! Algorithm 5 — parallel sampling of the communication matrix with a
//! log-factor in the total work.
//!
//! The processor range `[r, s)` is halved in every round.  The head `P_r` of
//! a range holds the vector `β` of target demands still to be satisfied by
//! the rows of its range; when the range splits at `q`, the head draws a
//! multivariate hypergeometric split of `β` (how much of each demand is
//! satisfied by the upper half of rows, whose total size is
//! `t = Σ_{q ≤ i < s} m_i`), ships that share to the new head `P_q`, and
//! keeps the rest.  After `⌈log₂ p⌉` rounds every processor is the head of a
//! singleton range and its `β` is exactly its row of the matrix.
//!
//! Per-processor cost: `Θ(p log p)` time, random draws and communication
//! volume (Proposition 8) — a log factor off optimal, removed by
//! Algorithm 6 ([`crate::parallel_opt`]).

use crate::check_sampler_inputs;
use crate::comm_matrix::CommMatrix;
use cgp_cgm::{CgmMachine, MachineMetrics, MatrixCtx, ProcCtx};
use cgp_hypergeom::multivariate_hypergeometric;

/// In-context core of Algorithm 5: runs **inside an already-running job**
/// on the machine's word plane and returns this processor's row of the
/// sampled matrix.
///
/// Every processor of the job must call this with the same `source` (one
/// block size per processor) and `target` (the column sums, any length).
/// Random draws come from [`MatrixCtx::sampling_rng`] — derived fresh from
/// the machine seed per call — so the sampled matrix is a pure function of
/// the seed regardless of substrate (a one-shot machine, or a fused
/// permutation job on any number of threads).
///
/// # Panics
/// Panics (on the worker running the job) if `source.len()` differs from
/// the processor count or the totals disagree.
pub fn sample_parallel_log_ctx(
    ctx: &mut MatrixCtx<'_>,
    source: &[u64],
    target: &[u64],
) -> Vec<u64> {
    let id = ctx.id();
    let p = ctx.procs();
    check_sampler_inputs(p, source, target);
    let mut rng = ctx.sampling_rng();
    // Only the head of the full range starts with the demand vector.
    let mut beta: Vec<u64> = if id == 0 { target.to_vec() } else { Vec::new() };

    let mut r = 0usize;
    let mut s = p;
    let mut round = 0u64;
    while s - r > 1 {
        ctx.superstep();
        let q = (r + s) / 2;
        if id == r {
            // Total number of items held by the upper half of the range.
            let t: u64 = source[q..s].iter().sum();
            let to_up = multivariate_hypergeometric(&mut rng, t, &beta);
            for (b, u) in beta.iter_mut().zip(&to_up) {
                *b -= u;
            }
            ctx.comm_mut().send(q, round, to_up);
        } else if id == q {
            beta = ctx.comm_mut().recv(r, round);
        }
        if id < q {
            s = q;
        } else {
            r = q;
        }
        round += 1;
    }
    beta
}

/// Runs Algorithm 5 as one job on a one-shot [`CgmMachine`]
/// (thin wrapper around [`sample_parallel_log_ctx`]).
///
/// `source[i]` is the block size `m_i` of (and the row belonging to)
/// processor `i`; `target` holds the column sums `m'_j` (any length).
/// Returns the assembled matrix together with the metered word-plane
/// communication of the sampling job.
///
/// # Panics
/// Panics if `source.len()` differs from the machine's processor count or
/// the totals disagree.
pub fn sample_parallel_log(
    machine: &CgmMachine,
    source: &[u64],
    target: &[u64],
) -> (CommMatrix, MachineMetrics) {
    check_sampler_inputs(machine.procs(), source, target);
    let outcome = machine.run(|ctx: &mut ProcCtx<u64>| {
        sample_parallel_log_ctx(&mut ctx.matrix_ctx(), source, target)
    });
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
        for p in [1usize, 2, 3, 5, 8, 16] {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(1));
            let source: Vec<u64> = (0..p as u64).map(|i| 10 + i).collect();
            let total: u64 = source.iter().sum();
            let target = vec![total / 4, total / 4, total / 4, total - 3 * (total / 4)];
            let (matrix, _) = sample_parallel_log(&machine, &source, &target);
            matrix.check_marginals(&source, &target).unwrap();
        }
    }

    #[test]
    fn symmetric_case_matches_hypergeometric_marginals() {
        // Proposition 3 must hold for the parallel sampler too.
        let p = 4usize;
        let m = 12u64;
        let source = vec![m; p];
        let target = vec![m; p];
        let n = m * p as u64;
        let reps = 4_000u64;
        let mut sums = vec![0u64; p * p];
        for rep in 0..reps {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(rep));
            let (matrix, _) = sample_parallel_log(&machine, &source, &target);
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
        let p = 8usize;
        let source = vec![20u64; p];
        let target = vec![20u64; p];
        let run = || {
            let machine = CgmMachine::new(CgmConfig::new(p).with_seed(99));
            sample_parallel_log(&machine, &source, &target).0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn head_processor_volume_has_the_log_factor() {
        // Processor 0 is the head in every round, so it sends ~p' words per
        // round for log2(p) rounds.  Its sent volume must exceed p' (one
        // round) but stay near p' * log2(p).
        let p = 32usize;
        let m = 100u64;
        let source = vec![m; p];
        let target = vec![m; p];
        let machine = CgmMachine::new(CgmConfig::new(p).with_seed(5));
        let (_, metrics) = sample_parallel_log(&machine, &source, &target);
        let sent0 = metrics.per_proc[0].words_sent;
        let rounds = (p as f64).log2().ceil() as u64;
        assert!(sent0 >= p as u64, "head sent only {sent0} words");
        assert!(
            sent0 <= p as u64 * rounds,
            "head sent {sent0}, more than p * log2(p) = {}",
            p as u64 * rounds
        );
        // Every processor sends at most p' words per round it heads.
        for m in &metrics.per_proc {
            assert!(m.words_sent <= p as u64 * rounds);
        }
    }

    #[test]
    fn single_processor_degenerates_to_the_target_vector() {
        let machine = CgmMachine::new(CgmConfig::new(1).with_seed(3));
        let (matrix, metrics) = sample_parallel_log(&machine, &[10], &[4, 6]);
        assert_eq!(matrix.row(0), &[4, 6]);
        assert_eq!(metrics.total_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "one source block per processor")]
    fn wrong_source_length_panics() {
        let machine = CgmMachine::with_procs(4);
        let _ = sample_parallel_log(&machine, &[1, 2], &[1, 2]);
    }
}
