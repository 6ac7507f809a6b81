//! `fleet`: one generator thread keeps 16 jobs in flight through a
//! `CompletionSet` on an in-process `PermutationService<u64>` with two
//! tenant handles.
//!
//! Job sizes are log-uniform over `2^8..2^18` (about 70% fit the 256 KiB
//! coalesce budget) and every payload is cache-resident, so `Auto`
//! resolves to Fisher–Yates and the per-job fixed cost of admission,
//! dispatch, pool wake-up and completion dominates.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use cgp::{
    CompletionSet, PermutationService, PermuteOptions, ServiceConfig, ServiceHandle, ServiceMetrics,
};

use crate::gen::{self, JobSpec, Mix};
use crate::measure::{mean, median, ratio, release_free_memory};
use crate::report::{auto_bucketed_share, Layers, LoopStats, PhaseTimes};
use crate::trace::{SpanId, Tracer};
use crate::{Config, Workload, PROCS};

/// Jobs in flight.
const WINDOW: usize = 16;

/// Engine-phase metrics on `fleet` are taken over jobs of at least this
/// many items; smaller ones mostly run inside coalesced batches.
const PHASE_MIN_ITEMS: usize = 1 << 16;

/// The service sizing `fleet` and `wire` share: one machine per `PROCS`
/// host threads, and an admission buffer deep enough that the closed loop
/// never meets backpressure.
pub fn service_config(engine_seed: u64) -> ServiceConfig {
    ServiceConfig::new(PROCS)
        .seed(engine_seed)
        .queue_depth(2 * WINDOW)
}

/// The service-layer metrics between two snapshots, and the mean
/// server-side time (queue wait plus run) of the jobs completed between
/// them.
pub fn service_layers(before: &ServiceMetrics, after: &ServiceMetrics) -> (Layers, f64) {
    let jobs = (after.jobs_total() - before.jobs_total()) as f64;
    let ms = |a: std::time::Duration, b: std::time::Duration| {
        ratio(a.saturating_sub(b).as_secs_f64() * 1e3, jobs)
    };
    let queue_wait = ms(after.queue_wait, before.queue_wait);
    let run = ms(after.run_time, before.run_time);
    let coalesced = (after.coalesced_jobs - before.coalesced_jobs) as f64;
    let batches = (after.coalesced_batches - before.coalesced_batches) as f64;
    let busy = |m: &ServiceMetrics| {
        m.per_machine
            .iter()
            .map(|u| u.busy.as_secs_f64())
            .sum::<f64>()
    };
    let wall =
        (after.uptime.saturating_sub(before.uptime)).as_secs_f64() * after.per_machine.len() as f64;
    let layers = Layers::from([
        ("service.queue_wait_ms", queue_wait),
        ("service.run_ms", run),
        ("service.coalesced_frac", ratio(coalesced, jobs)),
        ("service.jobs_per_batch", ratio(coalesced, batches)),
        ("service.steals", (after.steals - before.steals) as f64),
        ("service.busy_frac", ratio(busy(after) - busy(before), wall)),
    ]);
    (layers, queue_wait + run)
}

pub struct Fleet {
    mix: Mix,
    references: BTreeMap<usize, Vec<u64>>,
    service: PermutationService<u64>,
    handles: [ServiceHandle<u64>; 2],
    options: PermuteOptions,
    next_job: u64,
    /// Result vectors handed back by the service, reused as inputs.
    spare: Vec<Vec<u64>>,
    corrupt_job: Option<u64>,
}

struct InFlight {
    job: u64,
    spec: JobSpec,
    submitted: Instant,
    span: SpanId,
}

/// Builds the service repeatedly (construction, two tenant handles and one
/// warm-up job of the largest size per handle; see
/// [`Config::repeat_setup`]) and keeps the last; returns it with the median set-up time.
pub fn setup(cfg: &Config) -> Result<(Fleet, f64), String> {
    let engine_seed = gen::engine_seed(cfg.seed);
    let mix = Mix::new(cfg.seed, cfg.mix_log2.0, cfg.mix_log2.1, cfg.mix_pool);
    // The warm-up size is the top of the range, the same for every seed.
    let n = 1usize << cfg.mix_log2.1;
    let sizes: Vec<usize> = mix.sizes().iter().copied().chain([n]).collect();
    let references = crate::reference_permutations(engine_seed, &sizes)?;
    let config = service_config(engine_seed);
    let options = PermuteOptions::default();
    let warm = gen::PayloadKey::for_job(cfg.seed, u64::MAX);
    let mut times = Vec::new();
    let mut built = None;
    let since = Instant::now();
    while cfg.repeat_setup(times.len(), since) {
        if let Some((old, _)) = built.take() {
            PermutationService::shutdown(old);
            release_free_memory();
        }
        let inputs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut v = Vec::new();
                warm.fill(n, &mut v);
                v
            })
            .collect();
        let t0 = Instant::now();
        let service = PermutationService::<u64>::new(config, options.clone());
        let handles = [service.handle(), service.handle()];
        let tickets: Vec<_> = handles
            .iter()
            .zip(inputs)
            .map(|(h, data)| h.submit(data).map_err(|r| r.error.to_string()))
            .collect::<Result<_, _>>()?;
        let outs: Vec<Vec<u64>> = tickets
            .into_iter()
            .map(|t| t.wait().map(|(out, _)| out).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        times.push(t0.elapsed().as_secs_f64());
        if !outs.iter().all(|out| warm.matches(&references[&n], out)) {
            return Err("a warm-up result does not match the reference".into());
        }
        built = Some((service, handles));
    }
    let (service, handles) = built.expect("at least one set-up repetition");
    let fleet = Fleet {
        mix,
        references,
        service,
        handles,
        options,
        next_job: 0,
        spare: Vec::new(),
        corrupt_job: cfg.corrupt_job,
    };
    Ok((fleet, median(&times)))
}

impl Fleet {
    fn submit(
        &mut self,
        set: &mut CompletionSet<u64>,
        in_flight: &mut HashMap<u64, InFlight>,
        stats: &mut LoopStats,
        submit_us: &mut Vec<f64>,
        tracer: &mut Tracer,
    ) {
        let job = self.next_job;
        self.next_job += 1;
        let spec = self.mix.job(job);
        let mut data = self.spare.pop().unwrap_or_default();
        spec.key.fill(spec.size, &mut data);
        let handle = &self.handles[(job % 2) as usize];
        let t0 = Instant::now();
        let span = tracer.open("job", t0, SpanId::NONE, job);
        let submitted = handle.submit_with(data, self.options.clone(), spec.priority);
        let t1 = Instant::now();
        tracer.record("service.submit", t0, t1, span, job);
        submit_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        stats.attempted += 1;
        match submitted {
            Ok(ticket) => {
                let key = set.insert(ticket);
                in_flight.insert(
                    key,
                    InFlight {
                        job,
                        spec,
                        submitted: t0,
                        span,
                    },
                );
            }
            Err(rejected) => {
                tracer.close(span, t1);
                stats.failed += 1;
                self.spare.push(rejected.data);
            }
        }
    }
}

impl Workload for Fleet {
    fn run_loop(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<(LoopStats, Layers), String> {
        let mut stats = LoopStats::default();
        let mut set = CompletionSet::new();
        let mut in_flight = HashMap::new();
        let mut submit_us = Vec::new();
        let mut phases = PhaseTimes::default();
        let mut sizes = Vec::new();
        let before = self.service.metrics();
        let start = Instant::now();
        for _ in 0..WINDOW {
            self.submit(&mut set, &mut in_flight, &mut stats, &mut submit_us, tracer);
        }
        loop {
            let tw = Instant::now();
            let Some((key, outcome)) = set.wait_any() else {
                break;
            };
            let done = Instant::now();
            tracer.record("completion.wait_any", tw, done, SpanId::NONE, 0);
            let job = in_flight
                .remove(&key)
                .expect("every completion key belongs to a submitted job");
            tracer.close(job.span, done);
            match outcome {
                Ok((mut out, report)) => {
                    if self.corrupt_job == Some(job.job) {
                        out.swap(0, job.spec.size - 1);
                    }
                    let ok = job.spec.key.matches(&self.references[&job.spec.size], &out);
                    tracer.record("bench.verify", done, Instant::now(), SpanId::NONE, job.job);
                    if ok {
                        stats
                            .latencies_ms
                            .push(done.duration_since(job.submitted).as_secs_f64() * 1e3);
                        stats.items += job.spec.size as u64;
                        sizes.push(job.spec.size);
                        if job.spec.size >= PHASE_MIN_ITEMS {
                            phases.push(&report);
                        }
                    } else {
                        stats.mismatched += 1;
                    }
                    self.spare.push(out);
                }
                Err(_) => stats.failed += 1,
            }
            if start.elapsed().as_secs_f64() < seconds {
                self.submit(&mut set, &mut in_flight, &mut stats, &mut submit_us, tracer);
            }
        }
        stats.secs = start.elapsed().as_secs_f64();
        let after = self.service.metrics();
        let (mut layers, server_side_ms) = service_layers(&before, &after);
        layers.append(&mut phases.layers());
        layers.extend([
            ("service.submit_us", mean(&submit_us)),
            (
                "service.handoff_ms",
                mean(&stats.latencies_ms) - server_side_ms,
            ),
            ("cache_aware.auto_bucketed", auto_bucketed_share(&sizes)),
        ]);
        Ok((stats, layers))
    }
}
