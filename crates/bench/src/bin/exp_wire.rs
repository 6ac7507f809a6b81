//! E15 — wire front-end overhead (socket round-trip vs in-process handle).
//!
//! Submits the same blocking `u64` permutation job two ways against the
//! same [`cgp_core::service::ServiceConfig`] — through an in-process
//! [`cgp_core::ServiceHandle`] and through a [`cgp_server::Client`] over a
//! Unix-domain and a TCP socket — and writes a machine-readable snapshot
//! to `BENCH_wire.json` so the protocol's overhead curve can be tracked
//! across PRs.
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_wire [n_csv] [p] [out.json]
//! cargo run --release -p cgp-bench --bin exp_wire -- --check BENCH_wire.json
//! ```
//!
//! Defaults: `n ∈ {10_000, 100_000, 1_000_000}` `u64` items, `p = 2`.
//! With `--check <committed.json>` the experiment re-runs at the committed
//! grid and exits 1 if any row's `wire_items_per_s` fell by more than the
//! shared tolerance (see `cgp_bench::snapshot`).
//!
//! The gated figure is the wire's own cost: per repetition,
//! `n / (wire − in_process)` items per second, median over repetitions.
//! It is honest by construction: the wire job and the in-process job
//! compute the byte-identical permutation for the seed (each row asserts
//! it), so the difference prices exactly what the socket front-end adds —
//! frame-encoding the payload twice and crossing the socket twice per
//! job.  A ratio `in_process / wire` would move with the engine's speed
//! even when the wire does not change.

use cgp_bench::experiments::{wire_overhead, WireRow};
use cgp_bench::snapshot::{self, Snapshot};
use cgp_bench::Table;

fn parse_csv(arg: Option<&String>, default: &[usize]) -> Vec<usize> {
    match arg.filter(|s| !s.trim().is_empty()) {
        Some(s) => s
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("not a number in list: {part:?}"))
            })
            .collect(),
        None => default.to_vec(),
    }
}

fn to_snapshot(rows: &[WireRow]) -> Snapshot {
    let mut snap = Snapshot::new("wire").meta("payload", "u64");
    for r in rows {
        snap.rows.push(snapshot::row([
            ("transport", r.transport.into()),
            ("n", r.n.into()),
            ("procs", r.procs.into()),
            ("in_process_ns", r.in_process.as_nanos().into()),
            ("wire_ns", r.wire.as_nanos().into()),
            ("wire_items_per_s", r.wire_items_per_s.into()),
        ]));
    }
    snap
}

fn main() {
    let (check, args) = snapshot::split_check_arg(std::env::args().skip(1).collect());

    let committed = check
        .as_deref()
        .map(|path| Snapshot::read(path).expect("committed snapshot"));
    let (ns, procs, out_path);
    if let Some(committed) = &committed {
        ns = committed.distinct("n");
        procs = *committed
            .distinct("procs")
            .first()
            .expect("committed snapshot has a procs column");
        out_path = args
            .first()
            .cloned()
            .unwrap_or_else(|| "fresh_wire.json".into());
    } else {
        ns = parse_csv(args.first(), &[10_000, 100_000, 1_000_000]);
        procs = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(2);
        out_path = args
            .get(2)
            .cloned()
            .unwrap_or_else(|| "BENCH_wire.json".into());
    }

    println!("E15 — wire front-end overhead, n ∈ {ns:?}, p = {procs}\n");
    let rows = wire_overhead(&ns, procs, 42);

    let mut table = Table::new(vec![
        "transport",
        "n",
        "in-process (ms)",
        "wire (ms)",
        "wire overhead",
    ]);
    for r in &rows {
        table.row(vec![
            r.transport.to_string(),
            r.n.to_string(),
            format!("{:.3}", r.in_process.as_secs_f64() * 1e3),
            format!("{:.3}", r.wire.as_secs_f64() * 1e3),
            format!("{:.2}x", r.wire_overhead()),
        ]);
    }
    println!("{table}");

    let fresh = to_snapshot(&rows);
    fresh.write(&out_path);

    for r in &rows {
        println!(
            "{} n = {}: wire round-trip {:.2}x the in-process handle time",
            r.transport,
            r.n,
            r.wire_overhead(),
        );
    }

    if let Some(committed) = &committed {
        let outcome = snapshot::check_ratios(
            committed,
            &fresh,
            &["transport", "n", "procs"],
            &["wire_items_per_s"],
            snapshot::CHECK_TOLERANCE,
        );
        std::process::exit(outcome.report("wire"));
    }
}
