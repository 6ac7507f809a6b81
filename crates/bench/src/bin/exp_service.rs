//! E11 — aggregate throughput of the multi-tenant permutation service.
//!
//! Measures a population of concurrent clients served by a
//! `PermutationService` (serial executors behind fair-share admission)
//! against two alternatives run back to back in the same process: the same
//! population **serializing on a single shared session** (the do-nothing
//! alternative a service replaces) and the same population shuffling its
//! own jobs with **sequential Fisher–Yates** (the reference).  Writes a
//! machine-readable snapshot to `BENCH_service.json` so the multi-tenant
//! trajectory can be tracked across PRs.
//!
//! Three scenarios share the snapshot (the `"scenario"` id column):
//! `uniform` sweeps the full `(clients, executors)` grid with an even job
//! split; at the highest concurrency, `skewed` (one tenant submits half of
//! all jobs — the fair-admission stress) and `tiny` (64-item jobs — the
//! small-job row, priced by the per-job fixed cost) sweep the executor
//! counts.
//!
//! ```text
//! cargo run --release -p cgp-bench --bin exp_service \
//!     [n] [procs] [clients_csv] [executors_csv] [jobs_total] [out.json]
//! cargo run --release -p cgp-bench --bin exp_service -- --check BENCH_service.json
//! ```
//!
//! Defaults: `n = 65536`, `procs = 4`, clients ∈ {1, 4, 16, 64}, executors
//! ∈ {1, 2, 4}, 192 jobs per cell.  With `--check <committed.json>` the
//! experiment re-runs at the committed grid and exits 1 if any row's
//! `vs_seq_fy` — the service's speed relative to sequential Fisher–Yates of
//! the same jobs, measured in the same run — fell below the committed value
//! divided by [`TOLERANCE`].  At the default `n` the engine's work is most
//! of a job's time, so a slower engine shows; the `tiny` rows price the
//! per-job fixed cost.

use cgp_bench::experiments::{service, service_scenarios, ServiceRow};
use cgp_bench::snapshot::{self, Snapshot, Value};
use cgp_bench::Table;

/// How many times a committed `vs_seq_fy` may shrink before `--check`
/// fails.  Running every job's engine work twice shrank the multi-client
/// 2^16-item rows by 1.2–2.5x, not a clean 2x, since admission, wake-ups
/// and tickets are not doubled: at the shared [`snapshot::CHECK_TOLERANCE`]
/// of 2x only 2–3 of 18 rows failed, at 1.5x 9–11 did.  Healthy re-runs on
/// a 2-vCPU host shrank no row by more than 1.31x.
const TOLERANCE: f64 = 1.5;

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

fn parse_num(arg: Option<&String>, default: usize) -> usize {
    arg.and_then(|a| a.parse().ok()).unwrap_or(default)
}

/// Distinct values of `key` among the committed **uniform** rows — the
/// scenario whose grid parameterizes a re-run (the skewed and tiny grids
/// are derived from it in code).
fn distinct_uniform(committed: &Snapshot, key: &str) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for row in &committed.rows {
        if !matches!(snapshot::get(row, "scenario"), Some(Value::Str(s)) if s == "uniform") {
            continue;
        }
        if let Some(x) = snapshot::get(row, key).and_then(Value::as_num) {
            let x = x as usize;
            if !out.contains(&x) {
                out.push(x);
            }
        }
    }
    out
}

fn to_snapshot(rows: &[ServiceRow], jobs_total: usize) -> Snapshot {
    let mut snap = Snapshot::new("service").meta("jobs_total", jobs_total);
    for r in rows {
        snap.rows.push(snapshot::row([
            ("scenario", r.scenario.into()),
            ("clients", r.clients.into()),
            ("executors", r.executors.into()),
            ("n", r.n.into()),
            ("procs", r.procs.into()),
            ("jobs", r.jobs.into()),
            ("service_ns", r.service_elapsed.as_nanos().into()),
            ("serialized_ns", r.serialized_elapsed.as_nanos().into()),
            ("seq_fy_ns", r.reference_elapsed.as_nanos().into()),
            (
                "throughput_jobs_per_s",
                Value::Num((r.throughput() * 10.0).round() / 10.0),
            ),
            ("speedup_vs_serialized", Value::Num(r.speedup_vs_serialized)),
            ("vs_seq_fy", Value::Num(r.vs_seq_fy)),
        ]));
    }
    snap
}

fn main() {
    let (check, args) = snapshot::split_check_arg(std::env::args().skip(1).collect());

    // In --check mode the committed snapshot is parsed once: it supplies
    // the measurement grid here and the comparison baseline below (never
    // re-read, so the fresh write cannot contaminate the comparison), and
    // the default output moves aside so the committed file is not
    // overwritten.
    let committed = check
        .as_deref()
        .map(|path| Snapshot::read(path).expect("committed snapshot"));
    let (n, procs, clients_grid, executors_grid, jobs_total, out_path);
    if let Some(committed) = &committed {
        n = distinct_uniform(committed, "n")
            .first()
            .copied()
            .unwrap_or(1 << 16);
        procs = distinct_uniform(committed, "procs")
            .first()
            .copied()
            .unwrap_or(4);
        clients_grid = distinct_uniform(committed, "clients");
        executors_grid = distinct_uniform(committed, "executors");
        jobs_total = committed
            .meta
            .iter()
            .find(|(k, _)| k == "jobs_total")
            .and_then(|(_, v)| v.as_num())
            .unwrap_or(192.0) as usize;
        out_path = args
            .first()
            .cloned()
            .unwrap_or_else(|| "fresh_service.json".into());
    } else {
        n = parse_num(args.first(), 1 << 16);
        procs = parse_num(args.get(1), 4);
        clients_grid = parse_csv(args.get(2), &[1, 4, 16, 64]);
        executors_grid = parse_csv(args.get(3), &[1, 2, 4]);
        jobs_total = parse_num(args.get(4), 192);
        out_path = args
            .get(5)
            .cloned()
            .unwrap_or_else(|| "BENCH_service.json".into());
    }

    println!(
        "E11 — multi-tenant service vs serialized session vs sequential Fisher–Yates, \
         n = {n}, p = {procs}, clients ∈ {clients_grid:?}, executors ∈ {executors_grid:?}, \
         {jobs_total} jobs/cell\n"
    );
    let mut rows = service(n, procs, &clients_grid, &executors_grid, jobs_total, 42);
    // The scheduler-stress scenarios run at the highest concurrency of the
    // grid (where admission fairness actually binds).
    let top_clients = clients_grid.iter().copied().max().unwrap_or(1);
    rows.extend(service_scenarios(
        n,
        procs,
        top_clients,
        &executors_grid,
        jobs_total,
        42,
    ));

    let mut table = Table::new(vec![
        "scenario",
        "clients",
        "executors",
        "n",
        "jobs",
        "service (ms)",
        "serialized (ms)",
        "seq FY (ms)",
        "service jobs/s",
        "vs serialized",
        "vs seq FY",
    ]);
    for r in &rows {
        table.row(vec![
            r.scenario.to_string(),
            r.clients.to_string(),
            r.executors.to_string(),
            r.n.to_string(),
            r.jobs.to_string(),
            format!("{:.2}", r.service_elapsed.as_secs_f64() * 1e3),
            format!("{:.2}", r.serialized_elapsed.as_secs_f64() * 1e3),
            format!("{:.2}", r.reference_elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", r.throughput()),
            format!("{:.2}x", r.speedup_vs_serialized),
            format!("{:.3}x", r.vs_seq_fy),
        ]);
    }
    println!("{table}");

    let fresh = to_snapshot(&rows, jobs_total);
    fresh.write(&out_path);

    if let Some(committed) = &committed {
        let outcome = snapshot::check_ratios(
            committed,
            &fresh,
            &["scenario", "clients", "executors", "n", "procs"],
            &["vs_seq_fy"],
            TOLERANCE,
        );
        std::process::exit(outcome.report("service"));
    }
}
