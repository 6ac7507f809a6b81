//! The repository benchmark: drives the public `cgp` API through three
//! closed-loop workloads (`bulk`, `fleet`, `wire`), checks every result
//! against a reference permutation, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the loop
//! twice, untraced then traced, prints the per-layer metrics and writes
//! the spans to `perfbench-out/`.  See `perfbench/README.md`.

mod bulk;
mod fleet;
mod gen;
mod measure;
mod report;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cgp::Permuter;

use measure::Resources;
use report::{Layers, LoopStats};
use trace::Tracer;

/// Virtual processors of every workload: one per core of the 2-core host
/// the benchmark was sized on.
pub const PROCS: usize = 2;

/// Sizes of one run.  [`Config::full`] is what the command line runs;
/// tests shrink it.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-up repeats at least this many times and for at least
    /// `setup_min_s` seconds; `setup_s` is the median repetition.
    pub setup_reps: usize,
    pub setup_min_s: f64,
    /// `bulk` permutes `2^bulk_log2` items per job.
    pub bulk_log2: u32,
    /// `fleet`/`wire` job sizes are `2^x` for `x` uniform in this range.
    pub mix_log2: (u32, u32),
    /// Distinct job sizes drawn for `fleet`/`wire`.
    pub mix_pool: usize,
    /// Corrupts this job's result before it is checked, so tests can show
    /// that a wrong answer fails the run.
    pub corrupt_job: Option<u64>,
}

impl Config {
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            seed,
            seconds,
            trace,
            setup_reps: 11,
            setup_min_s: 1.5,
            bulk_log2: 24,
            mix_log2: (8, 18),
            mix_pool: 64,
            corrupt_job: None,
        }
    }

    /// Whether set-up runs once more after `done` repetitions, the first of
    /// which began at `since`.  Spreading the repetitions over
    /// `setup_min_s` makes their median span more than one moment of a
    /// host whose speed drifts.
    pub fn repeat_setup(&self, done: usize, since: Instant) -> bool {
        done < self.setup_reps.max(1) || since.elapsed().as_secs_f64() < self.setup_min_s
    }
}

/// A workload whose set-up is done: it runs closed-loop passes.
pub trait Workload {
    /// Runs the closed loop for about `seconds`, then drains it, recording
    /// spans in `tracer`.  Returns what the pass measured and its
    /// per-layer metrics.
    fn run_loop(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<(LoopStats, Layers), String>;

    /// Reference measurements taken once after a traced run.
    fn reference_layers(&mut self, _layers: &mut Layers) {}
}

/// What a whole run produced.
pub struct Outcome {
    pub totals: LoopStats,
    pub metrics: Layers,
    pub tracer: Tracer,
}

/// One reference index permutation per distinct size, from the one-shot
/// `Permuter` path, each checked to be a permutation.
pub fn reference_permutations(
    engine_seed: u64,
    sizes: &[usize],
) -> Result<BTreeMap<usize, Vec<u64>>, String> {
    let permuter = Permuter::new(PROCS).seed(engine_seed);
    let references = sizes
        .iter()
        .map(|&n| {
            let perm = permuter.sample_permutation(n);
            if gen::is_permutation(&perm) {
                Ok((n, perm))
            } else {
                Err(format!("the reference for n={n} is not a permutation"))
            }
        })
        .collect();
    measure::release_free_memory();
    references
}

/// Runs `workload` after its set-up took `setup_s` seconds.
pub fn drive(mut workload: impl Workload, setup_s: f64, cfg: &Config) -> Result<Outcome, String> {
    if !cfg.trace {
        let mut tracer = Tracer::new(false);
        let (stats, _) = workload.run_loop(cfg.seconds, &mut tracer)?;
        let peak = Resources::now().peak_rss_mb();
        let metrics = report::end_to_end(&stats, setup_s, peak);
        return Ok(Outcome {
            totals: stats,
            metrics,
            tracer,
        });
    }
    // Half the time untraced, half traced: the difference in throughput is
    // the tracing overhead.
    let (untraced, _) = workload.run_loop(cfg.seconds / 2.0, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let (traced, mut layers) = workload.run_loop(cfg.seconds / 2.0, &mut tracer)?;
    workload.reference_layers(&mut layers);
    let mut totals = untraced.clone();
    totals.absorb(&traced);
    layers.insert(
        "trace.overhead_frac",
        1.0 - measure::ratio(traced.items_per_s(), untraced.items_per_s()),
    );
    layers.insert(
        "error_frac",
        measure::ratio(totals.bad() as f64, totals.attempted as f64),
    );
    Ok(Outcome {
        totals,
        metrics: layers,
        tracer,
    })
}

pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "bulk" => {
            let (w, setup_s) = bulk::setup(cfg)?;
            drive(w, setup_s, cfg)
        }
        "fleet" => {
            let (w, setup_s) = fleet::setup(cfg)?;
            drive(w, setup_s, cfg)
        }
        "wire" => {
            let (w, setup_s) = wire::setup(cfg)?;
            drive(w, setup_s, cfg)
        }
        other => Err(format!("unknown workload {other:?} (bulk, fleet or wire)")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    measure::use_one_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload bulk|fleet|wire --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config::full(args.seed, args.seconds, args.trace);
    let start = Resources::now();
    let outcome = match run(&args.workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let end = Resources::now();
    eprintln!(
        "resources: peak_rss {:.1} MB, threads {} -> {}, open fds {} -> {}",
        end.peak_rss_mb(),
        start.threads,
        end.threads,
        start.open_fds,
        end.open_fds
    );
    let catalogue = if cfg.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!(
            "{:<28} {value:>16.4} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    if cfg.trace {
        for (name, t) in outcome.tracer.layer_times() {
            eprintln!(
                "span {name:<24} count {:>7}  mean {:>10.4} ms  self {:>10.4} ms",
                t.count,
                measure::ratio(t.total_ms, t.count as f64),
                measure::ratio(t.self_ms, t.count as f64)
            );
        }
        let path = PathBuf::from(format!(
            "perfbench-out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match outcome.tracer.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let totals = &outcome.totals;
    let correct = totals.mismatched == 0;
    println!(
        "{}",
        report::json_line(
            correct,
            totals.attempted,
            totals.bad(),
            catalogue,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} results did not match the reference",
            totals.mismatched, totals.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.3,
            trace: false,
            setup_reps: 2,
            setup_min_s: 0.0,
            bulk_log2: 12,
            mix_log2: (4, 11),
            mix_pool: 8,
            corrupt_job: None,
        }
    }

    #[test]
    fn every_workload_passes_verification_at_tiny_scale() {
        for workload in ["bulk", "fleet", "wire"] {
            for trace in [false, true] {
                let cfg = Config { trace, ..tiny(3) };
                let out = run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let t = &out.totals;
                assert!(t.attempted > 0, "{workload} ran no job");
                assert_eq!(t.bad(), 0, "{workload}: {t:?}");
                let catalogue = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                let line = report::json_line(true, t.attempted, 0, catalogue, &out.metrics);
                assert!(line.contains("\"correct\": true"));
                if trace {
                    assert!(!out.tracer.spans().is_empty(), "{workload} traced nothing");
                } else {
                    assert!(out.metrics["items_per_s"] > 0.0, "{workload}");
                    assert!(out.metrics["setup_s"] > 0.0, "{workload}");
                }
            }
        }
    }

    #[test]
    fn a_corrupted_result_is_caught() {
        for workload in ["bulk", "fleet", "wire"] {
            let cfg = Config {
                corrupt_job: Some(1),
                ..tiny(4)
            };
            let out = run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert_eq!(
                out.totals.mismatched, 1,
                "{workload}: the corruption went unseen"
            );
        }
    }

    #[test]
    fn the_wire_reconnects_and_counts_what_each_connection_leaves() {
        // Enough jobs for several reconnects at this size.
        let cfg = Config {
            seconds: 1.0,
            trace: true,
            ..tiny(5)
        };
        let out = run("wire", &cfg).expect("wire");
        assert!(out.metrics["server.reconnects"] >= 1.0, "{:?}", out.metrics);
        assert!(out.metrics["server.tenants_live"] >= 2.0);
    }
}
