//! E3 — scaling of the full parallel permutation (§6 of the paper).
//!
//! The paper reports, for 480 million items on a 400 MHz Origin:
//! 137 s sequential, 210 s (3 procs), 107 s (6), 72.9 s (12), 60.9 s (24),
//! 53.2 s (48), i.e. a parallel overhead factor of 3–5 and steadily
//! increasing speed-up beyond 6 processors.  This binary reproduces the
//! *shape* of that table on the CGM simulator with a scaled-down item count.
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_scaling [n] [backend]
//! ```

use cgp_bench::experiments::{scaling, ScalingRow};
use cgp_bench::{workload, Table};
use cgp_core::MatrixBackend;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(16_000_000);
    let backend = match args.next().as_deref() {
        Some("optimal") => MatrixBackend::ParallelOptimal,
        Some("log") => MatrixBackend::ParallelLog,
        Some("recursive") => MatrixBackend::Recursive,
        _ => MatrixBackend::Sequential,
    };

    println!(
        "E3 — scaling of Algorithm 1, n = {n}, matrix backend = {}\n",
        backend.name()
    );

    let procs = workload::paper_processor_counts();
    let rows = scaling(n, &procs, backend, 42);
    let paper = workload::paper_scaling_seconds();

    let mut table = Table::new(vec![
        "p",
        "measured (ms)",
        "speedup",
        "overhead p*Tp/Ts",
        "max words/proc",
        "paper (s, 480M items)",
        "paper speedup",
    ]);
    let paper_seq = paper[0].1;
    for (row, &(pp, ps)) in rows.iter().zip(&paper) {
        assert_eq!(row.procs, pp);
        table.row(vec![
            format!("{}", row.procs),
            format!("{:.1}", row.elapsed.as_secs_f64() * 1e3),
            format!("{:.2}", row.speedup),
            format!("{:.2}", row.overhead_factor),
            format!("{}", row.max_comm_volume),
            format!("{ps:.1}"),
            format!("{:.2}", paper_seq / ps),
        ]);
    }
    println!("{table}");
    println!("shape checks against the paper:");
    println!(
        "  * the p=3 run is slower than sequential (overhead factor 3-5): {} (speedup {:.2}, overhead {:.2})",
        verdict(rows[1].speedup < 1.0),
        rows[1].speedup,
        rows[1].overhead_factor
    );
    let speedups: Vec<String> = rows
        .iter()
        .filter(|row| row.procs >= 3)
        .map(|row| format!("{:.2}", row.speedup))
        .collect();
    println!(
        "  * speedup grows monotonically from p=3 to p=48: {} (measured {})",
        verdict(speedup_is_monotone(&rows)),
        speedups.join(", ")
    );
    let off: Vec<String> = volume_mismatches(n, &rows)
        .into_iter()
        .map(|(p, words, expected)| format!("p={p}: {words} vs {expected}"))
        .collect();
    println!(
        "  * per-processor exchange volume is 2*ceil(n/p) words (Theorem 1): {}{}",
        verdict(off.is_empty()),
        if off.is_empty() {
            String::new()
        } else {
            format!(" ({})", off.join(", "))
        }
    );
}

fn verdict(held: bool) -> &'static str {
    if held {
        "held"
    } else {
        "NOT held"
    }
}

/// Whether the speed-up strictly grows from one processor count to the
/// next, over the rows with at least 3 processors.
fn speedup_is_monotone(rows: &[ScalingRow]) -> bool {
    let parallel: Vec<f64> = rows
        .iter()
        .filter(|row| row.procs >= 3)
        .map(|row| row.speedup)
        .collect();
    parallel.windows(2).all(|pair| pair[1] > pair[0])
}

/// The parallel rows whose largest per-processor exchange volume is not
/// `2 · ceil(n / p)` words (the largest even block, sent and received):
/// `(p, measured, expected)`.
fn volume_mismatches(n: usize, rows: &[ScalingRow]) -> Vec<(usize, u64, u64)> {
    rows.iter()
        .filter(|row| row.procs > 1)
        .map(|row| {
            (
                row.procs,
                row.max_comm_volume,
                2 * n.div_ceil(row.procs) as u64,
            )
        })
        .filter(|&(_, words, expected)| words != expected)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn row(procs: usize, speedup: f64, max_comm_volume: u64) -> ScalingRow {
        ScalingRow {
            procs,
            elapsed: Duration::ZERO,
            speedup,
            overhead_factor: 0.0,
            max_comm_volume,
        }
    }

    #[test]
    fn the_verdicts_read_the_rows() {
        let rising = [row(1, 1.0, 0), row(3, 0.5, 8), row(6, 0.9, 4)];
        assert!(speedup_is_monotone(&rising));
        assert!(volume_mismatches(12, &rising).is_empty());

        // A dip at p = 6 and an exchange heavier than 2 * ceil(n/p).
        let dipping = [row(1, 1.0, 0), row(3, 0.9, 8), row(6, 0.8, 6)];
        assert!(!speedup_is_monotone(&dipping));
        assert_eq!(volume_mismatches(12, &dipping), vec![(6, 6, 4)]);
        // Uneven blocks: the largest of 3 blocks over 10 items holds 4.
        assert!(volume_mismatches(10, &[row(3, 1.0, 8)]).is_empty());
    }
}
