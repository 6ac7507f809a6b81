//! `bulk`: one closed-loop caller, back-to-back
//! `PermutationSession::permute_into` on `2^24` `u64` items (128 MiB).
//!
//! The payload is above the host's L3 and above `AUTO_CROSSOVER_BYTES`, so
//! `LocalShuffle::Auto` resolves to the bucketed engine; no service or
//! server code is on the path.  The pipeline is idle while the caller
//! refills and checks its vector, so throughput here is taken over the
//! time spent inside `permute_into`.

use std::hint::black_box;
use std::time::Instant;

use cgp::{BucketScratch, LocalShuffle, Pcg64, PermutationSession, Permuter};

use crate::gen::{self, PayloadKey};
use crate::measure::{mean, median, release_free_memory};
use crate::report::{auto_bucketed_share, Layers, LoopStats, PhaseTimes};
use crate::trace::{SpanId, Tracer};
use crate::{Config, Workload, PROCS};

/// Repetitions of each single-thread reference measurement.
const REFERENCE_REPS: usize = 3;

pub struct Bulk {
    seed: u64,
    engine_seed: u64,
    session: PermutationSession<u64>,
    reference: Vec<u64>,
    data: Vec<u64>,
    next_job: u64,
    corrupt_job: Option<u64>,
    /// Mean `session.call_ms` of the last pass, the base of
    /// `ref.speedup_vs_seq`.
    last_call_ms: f64,
}

/// Builds the session repeatedly (construction plus one cold call each; see
/// [`Config::repeat_setup`]) and keeps the last; returns it with the median set-up time.
pub fn setup(cfg: &Config) -> Result<(Bulk, f64), String> {
    let n = 1usize << cfg.bulk_log2;
    let engine_seed = gen::engine_seed(cfg.seed);
    let reference = crate::reference_permutations(engine_seed, &[n])?
        .remove(&n)
        .expect("one reference per size");
    let permuter = Permuter::new(PROCS).seed(engine_seed);
    let warm = PayloadKey::for_job(cfg.seed, u64::MAX);
    let mut data = Vec::with_capacity(n);
    let mut times = Vec::new();
    let mut session: Option<PermutationSession<u64>> = None;
    let since = Instant::now();
    while cfg.repeat_setup(times.len(), since) {
        if let Some(old) = session.take() {
            old.shutdown();
            release_free_memory();
        }
        warm.fill(n, &mut data);
        let t0 = Instant::now();
        let mut s = permuter.session::<u64>();
        s.permute_into(&mut data);
        times.push(t0.elapsed().as_secs_f64());
        if !warm.matches(&reference, &data) {
            return Err("the warm-up result does not match the reference".into());
        }
        session = Some(s);
    }
    let bulk = Bulk {
        seed: cfg.seed,
        engine_seed,
        session: session.expect("at least one set-up repetition"),
        reference,
        data,
        next_job: 0,
        corrupt_job: cfg.corrupt_job,
        last_call_ms: 0.0,
    };
    Ok((bulk, median(&times)))
}

impl Workload for Bulk {
    fn run_loop(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<(LoopStats, Layers), String> {
        let n = self.reference.len();
        let mut stats = LoopStats::default();
        let mut call = Vec::new();
        let mut phases = PhaseTimes::default();
        let mut counts = Layers::new();
        let start = Instant::now();
        while stats.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            let job = self.next_job;
            self.next_job += 1;
            let key = PayloadKey::for_job(self.seed, job);
            let tf = Instant::now();
            key.fill(n, &mut self.data);
            let t0 = Instant::now();
            tracer.record("bench.fill", tf, t0, SpanId::NONE, job);
            let report = self.session.permute_into(&mut self.data);
            let t1 = Instant::now();
            tracer.record("session.permute_into", t0, t1, SpanId::NONE, job);
            stats.attempted += 1;
            if self.corrupt_job == Some(job) {
                self.data.swap(0, n - 1);
            }
            let ok = key.matches(&self.reference, &self.data);
            tracer.record("bench.verify", t1, Instant::now(), SpanId::NONE, job);
            if !ok {
                stats.mismatched += 1;
                continue;
            }
            let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
            stats.latencies_ms.push(ms);
            stats.items += n as u64;
            stats.secs += ms / 1e3;
            call.push(ms);
            phases.push(&report);
            // Exact counts: the same on every job of one size and seed.
            counts = Layers::from([
                (
                    "cgm.exchange_words_max",
                    report.max_exchange_volume() as f64,
                ),
                (
                    "cgm.exchange_messages",
                    report.exchange_metrics.total_messages() as f64,
                ),
                ("matrix.words_max", report.max_matrix_volume() as f64),
                ("matrix.rounds", report.matrix_rounds() as f64),
            ]);
        }
        self.last_call_ms = mean(&call);
        let mut layers = phases.layers();
        layers.extend([
            ("session.call_ms", mean(&call)),
            ("cgm.split_concat_ms", mean(&call) - phases.mean_run_ms()),
            ("cache_aware.auto_bucketed", auto_bucketed_share(&[n])),
        ]);
        layers.append(&mut counts);
        Ok((stats, layers))
    }

    /// Single-thread Fisher–Yates, single-thread bucketed shuffle and a
    /// plain copy on the same `n`: the paper's yardstick and the memory
    /// floor, next to which `Auto`'s choice can be judged.
    fn reference_layers(&mut self, layers: &mut Layers) {
        let n = self.reference.len();
        let key = PayloadKey::for_job(self.seed, u64::MAX - 1);
        let mut rng = Pcg64::seed_from_u64(self.engine_seed);
        let mut time_shuffle = |engine: LocalShuffle, scratch: &mut BucketScratch<u64>| {
            let times: Vec<f64> = (0..REFERENCE_REPS)
                .map(|_| {
                    key.fill(n, &mut self.data);
                    let t0 = Instant::now();
                    engine.shuffle_vec_with(&mut rng, black_box(&mut self.data), scratch);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&times)
        };
        let fy = time_shuffle(LocalShuffle::FisherYates, &mut BucketScratch::new());
        // The median skips the first repetition's cost of sizing the
        // staging buffers, as the pipeline's recycled scratch is sized in
        // steady state.
        let bucketed = time_shuffle(
            LocalShuffle::bucketed_for::<u64>(),
            &mut BucketScratch::new(),
        );
        let mut copy = vec![0u64; n];
        let copies: Vec<f64> = (0..REFERENCE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                copy.copy_from_slice(black_box(&self.data));
                black_box(&copy);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.insert("ref.seq_fy_ms", fy);
        layers.insert("ref.seq_bucketed_ms", bucketed);
        layers.insert("ref.copy_ms", median(&copies));
        layers.insert(
            "ref.speedup_vs_seq",
            crate::measure::ratio(fy, self.last_call_ms),
        );
    }
}
