//! The metric catalogue (mirrored in `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;

use cgp::{LocalShuffle, PermutationReport};

use crate::measure::{mean, median, quantile, ratio};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "items/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.  A layer that a
/// workload's path does not reach reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_frac", "frac"),
    ("session.call_ms", "ms"),
    ("parallel.run_ms", "ms"),
    ("cgm.split_concat_ms", "ms"),
    ("cache_aware.shuffle_ms", "ms"),
    ("parallel.cut_exchange_ms", "ms"),
    ("matrix.sample_ms", "ms"),
    ("cgm.exchange_words_max", "words"),
    ("cgm.exchange_messages", "count"),
    ("matrix.words_max", "words"),
    ("matrix.rounds", "count"),
    ("ref.seq_fy_ms", "ms"),
    ("ref.seq_bucketed_ms", "ms"),
    ("ref.copy_ms", "ms"),
    ("ref.speedup_vs_seq", "x"),
    ("cache_aware.auto_bucketed", "frac"),
    ("service.submit_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.handoff_ms", "ms"),
    ("service.coalesced_frac", "frac"),
    ("service.jobs_per_batch", "jobs"),
    ("service.steals", "count"),
    ("service.busy_frac", "frac"),
    ("server.connect_ms", "ms"),
    ("server.submit_us", "us"),
    ("server.wait_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.reconnects", "count"),
    ("server.tenants_live", "count"),
    ("server.threads_delta", "count"),
    ("server.fds_delta", "count"),
    ("trace.overhead_frac", "frac"),
];

pub type Layers = BTreeMap<&'static str, f64>;

/// What one closed-loop pass measured.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    /// Jobs issued (submitted, or called for `bulk`).
    pub attempted: u64,
    /// Jobs that failed, were shed or were refused.
    pub failed: u64,
    /// Jobs whose result did not match the reference.
    pub mismatched: u64,
    /// Items of the jobs that completed correctly.
    pub items: u64,
    /// The time the throughput figures are taken over, in seconds.
    pub secs: f64,
    /// Caller-to-caller latency of every correctly completed job.
    pub latencies_ms: Vec<f64>,
}

impl LoopStats {
    pub fn items_per_s(&self) -> f64 {
        ratio(self.items as f64, self.secs)
    }

    pub fn jobs_per_s(&self) -> f64 {
        ratio(self.latencies_ms.len() as f64, self.secs)
    }

    /// Jobs that count against `error_frac`.
    pub fn bad(&self) -> u64 {
        self.failed + self.mismatched
    }

    /// Adds another pass's counts (for the totals of a traced run).
    pub fn absorb(&mut self, other: &LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

/// The in-run phase timings of a pass's `PermutationReport`s, in ms.
#[derive(Debug, Default)]
pub struct PhaseTimes {
    run: Vec<f64>,
    shuffle: Vec<f64>,
    cut_exchange: Vec<f64>,
    matrix: Vec<f64>,
}

impl PhaseTimes {
    pub fn push(&mut self, report: &PermutationReport) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        self.run.push(ms(report.total_elapsed()));
        self.shuffle.push(ms(report.shuffle_elapsed));
        self.cut_exchange.push(ms(report
            .exchange_elapsed
            .saturating_sub(report.shuffle_elapsed)));
        self.matrix.push(ms(report.matrix_elapsed));
    }

    pub fn mean_run_ms(&self) -> f64 {
        mean(&self.run)
    }

    /// The mean of each phase.
    pub fn layers(&self) -> Layers {
        Layers::from([
            ("parallel.run_ms", mean(&self.run)),
            ("cache_aware.shuffle_ms", mean(&self.shuffle)),
            ("parallel.cut_exchange_ms", mean(&self.cut_exchange)),
            ("matrix.sample_ms", mean(&self.matrix)),
        ])
    }
}

/// Share of `sizes` for which `Auto` picks the bucketed engine.
pub fn auto_bucketed_share(sizes: &[usize]) -> f64 {
    let bucketed = sizes
        .iter()
        .filter(|&&n| {
            matches!(
                LocalShuffle::Auto.resolve_for::<u64>(n),
                LocalShuffle::Bucketed { .. }
            )
        })
        .count();
    ratio(bucketed as f64, sizes.len() as f64)
}

/// Jobs per slice of a run that `job_p99_ms` is taken over.
const TAIL_SLICE_JOBS: usize = 200;
/// Slices of a run too short for [`TAIL_SLICE_JOBS`] each.
const TAIL_MIN_SLICES: usize = 10;

/// The 99th-percentile latency of each consecutive slice of about
/// [`TAIL_SLICE_JOBS`] jobs of `latencies` (in completion order), median
/// over the slices.  A run of fewer than [`TAIL_MIN_SLICES`] such slices
/// is cut into that many, and one of fewer jobs than that is not sliced.
///
/// Short host stalls hit a few slices each, so the median skips them even
/// when they recur every few seconds; a tail the program causes throughout
/// the run moves every slice.  The slice is a fixed number of jobs, so the
/// estimate does not shift when throughput does.
pub fn sliced_p99(latencies: &[f64]) -> f64 {
    let n = latencies.len();
    if n < TAIL_MIN_SLICES {
        return quantile(latencies, 0.99);
    }
    let slices = (n / TAIL_SLICE_JOBS).max(TAIL_MIN_SLICES);
    let p99s: Vec<f64> = (0..slices)
        .map(|i| quantile(&latencies[i * n / slices..(i + 1) * n / slices], 0.99))
        .collect();
    median(&p99s)
}

pub fn end_to_end(stats: &LoopStats, setup_s: f64, peak_rss_mb: f64) -> Layers {
    Layers::from([
        ("items_per_s", stats.items_per_s()),
        ("jobs_per_s", stats.jobs_per_s()),
        ("job_p50_ms", median(&stats.latencies_ms)),
        ("job_p99_ms", sliced_p99(&stats.latencies_ms)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// The result line: every metric of `catalogue`, in its order, with its
/// unit.  A name in `values` that the catalogue lacks is a bug.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &Layers,
) -> String {
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is missing from the catalogue"
        );
    }
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "BENCHMARK.json names exactly the catalogue and three workloads"
        );
    }

    #[test]
    fn sliced_p99_ignores_recurring_stalls_but_not_a_steady_tail() {
        // A 20-job stall every 1000 jobs.
        let stalled: Vec<f64> = (0..10_000)
            .map(|i| if i % 1000 < 20 { 50.0 } else { 1.0 })
            .collect();
        assert_eq!(sliced_p99(&stalled), 1.0);
        let tail: Vec<f64> = (0..10_000)
            .map(|i| if i % 50 == 0 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(sliced_p99(&tail), 9.0);
        // A short run is cut into ten slices, so one stalled job is skipped.
        let mut short = vec![1.0; 80];
        short[40] = 50.0;
        assert_eq!(sliced_p99(&short), 1.0);
        assert_eq!(sliced_p99(&[2.0; 5]), 2.0);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let stats = LoopStats {
            attempted: 4,
            items: 400,
            secs: 2.0,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            ..LoopStats::default()
        };
        let line = json_line(true, 4, 0, END_TO_END, &end_to_end(&stats, 0.5, 10.0));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(line.contains("\"items_per_s\": {\"value\": 200, \"unit\": \"items/s\"}"));
        assert!(line.contains("\"job_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
