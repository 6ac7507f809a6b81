//! `wire`: one generator thread drives two Unix-socket `Client`s with 8
//! jobs in flight each against a `WireServer` over the `fleet` service
//! configuration and job mix.  Each connection closes and reopens every
//! 256 jobs.
//!
//! This adds the frame codec, the socket hops and the connection
//! lifecycle to `fleet`'s path; the reconnects make per-connection state
//! that outlives its connection visible as thread, fd and tenant counts.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cgp::wire::{Client, ClientError, WireServer};
use cgp::PermuteOptions;

use crate::fleet::{service_config, service_layers};
use crate::gen::{self, JobSpec, Mix};
use crate::measure::{mean, median, release_free_memory, Resources};
use crate::report::{auto_bucketed_share, Layers, LoopStats};
use crate::trace::{SpanId, Tracer};
use crate::{Config, Workload};

/// Connections, each its own tenant.
const CONNECTIONS: usize = 2;
/// Jobs in flight per connection.
const PER_CONNECTION: usize = 8;
/// Jobs a connection carries before it is closed and reopened.
const RECONNECT_EVERY: usize = 256;

struct Conn {
    client: Client<u64>,
    jobs: usize,
    in_flight: usize,
}

struct InFlight {
    conn: usize,
    request: u64,
    job: u64,
    spec: JobSpec,
    submitted: Instant,
    span: SpanId,
}

pub struct Wire {
    mix: Mix,
    references: BTreeMap<usize, Vec<u64>>,
    /// Relative to the working directory, which keeps the path short
    /// enough for a socket address wherever the checkout lives.
    socket: PathBuf,
    /// Declared before the server so the clients hang up before it drains.
    conns: Vec<Conn>,
    server: WireServer<u64>,
    next_job: u64,
    input: Vec<u64>,
    reconnects: u64,
    corrupt_job: Option<u64>,
}

fn connect(socket: &Path) -> Result<Conn, String> {
    let client = Client::connect_uds(socket).map_err(|e| format!("connect: {e}"))?;
    Ok(Conn {
        client,
        jobs: 0,
        in_flight: 0,
    })
}

/// Binds the server and connects both clients repeatedly (each with one
/// warm-up job of the largest size per connection; see
/// [`Config::repeat_setup`]) and keeps the last; returns it with the median set-up time.
pub fn setup(cfg: &Config) -> Result<(Wire, f64), String> {
    let engine_seed = gen::engine_seed(cfg.seed);
    let mix = Mix::new(cfg.seed, cfg.mix_log2.0, cfg.mix_log2.1, cfg.mix_pool);
    // The warm-up size is the top of the range, the same for every seed.
    let n = 1usize << cfg.mix_log2.1;
    let sizes: Vec<usize> = mix.sizes().iter().copied().chain([n]).collect();
    let references = crate::reference_permutations(engine_seed, &sizes)?;
    let config = service_config(engine_seed);
    // Unique per set-up, so concurrent tests in one process do not collide.
    static SOCKETS: AtomicU64 = AtomicU64::new(0);
    let socket = PathBuf::from(format!(
        "perfbench-{}-{}.sock",
        std::process::id(),
        SOCKETS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&socket);
    let warm = gen::PayloadKey::for_job(cfg.seed, u64::MAX);
    let mut input = Vec::new();
    warm.fill(n, &mut input);
    let mut times = Vec::new();
    let mut built: Option<(WireServer<u64>, Vec<Conn>)> = None;
    let since = Instant::now();
    while cfg.repeat_setup(times.len(), since) {
        if let Some((server, conns)) = built.take() {
            drop(conns);
            server.shutdown();
            release_free_memory();
        }
        let t0 = Instant::now();
        let server = WireServer::<u64>::bind_uds(&socket, config, PermuteOptions::default())
            .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| connect(&socket))
            .collect::<Result<Vec<_>, _>>()?;
        let requests = conns
            .iter_mut()
            .map(|c| c.client.submit(&input))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up submit: {e}"))?;
        let outs = conns
            .iter_mut()
            .zip(requests)
            .map(|(c, id)| c.client.wait(id))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up wait: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        if !outs.iter().all(|out| warm.matches(&references[&n], out)) {
            return Err("a warm-up result does not match the reference".into());
        }
        built = Some((server, conns));
    }
    let (server, conns) = built.expect("at least one set-up repetition");
    let wire = Wire {
        mix,
        references,
        socket,
        conns,
        server,
        next_job: 0,
        input,
        reconnects: 0,
        corrupt_job: cfg.corrupt_job,
    };
    Ok((wire, median(&times)))
}

/// Per-call client-side timings of one pass.
#[derive(Default)]
struct ClientTimes {
    connect_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wait_ms: Vec<f64>,
}

impl Wire {
    fn submit(
        &mut self,
        conn: usize,
        fifo: &mut VecDeque<InFlight>,
        stats: &mut LoopStats,
        times: &mut ClientTimes,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let job = self.next_job;
        self.next_job += 1;
        let spec = self.mix.job(job);
        spec.key.fill(spec.size, &mut self.input);
        let c = &mut self.conns[conn];
        let t0 = Instant::now();
        let span = tracer.open("job", t0, SpanId::NONE, job);
        let request = c
            .client
            .submit_with(&self.input, spec.priority)
            .map_err(|e| format!("submit job {job}: {e}"))?;
        let t1 = Instant::now();
        tracer.record("server.submit", t0, t1, span, job);
        times
            .submit_us
            .push(t1.duration_since(t0).as_secs_f64() * 1e6);
        stats.attempted += 1;
        c.jobs += 1;
        c.in_flight += 1;
        fifo.push_back(InFlight {
            conn,
            request,
            job,
            spec,
            submitted: t0,
            span,
        });
        Ok(())
    }

    /// Tops connection `conn` up to its window, first reopening it once it
    /// has carried `RECONNECT_EVERY` jobs and drained.
    fn refill(
        &mut self,
        conn: usize,
        fifo: &mut VecDeque<InFlight>,
        stats: &mut LoopStats,
        times: &mut ClientTimes,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        if self.conns[conn].jobs >= RECONNECT_EVERY && self.conns[conn].in_flight == 0 {
            let t0 = Instant::now();
            // Dropping the client closes its socket.
            self.conns[conn] = connect(&self.socket)?;
            let t1 = Instant::now();
            tracer.record("server.connect", t0, t1, SpanId::NONE, 0);
            times
                .connect_ms
                .push(t1.duration_since(t0).as_secs_f64() * 1e3);
            self.reconnects += 1;
        }
        while self.conns[conn].in_flight < PER_CONNECTION && self.conns[conn].jobs < RECONNECT_EVERY
        {
            self.submit(conn, fifo, stats, times, tracer)?;
        }
        Ok(())
    }
}

impl Workload for Wire {
    /// Collects results oldest first: the service runs jobs close to
    /// submission order, so the oldest job is the one most likely done.
    fn run_loop(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Result<(LoopStats, Layers), String> {
        let mut stats = LoopStats::default();
        let mut times = ClientTimes::default();
        let mut fifo = VecDeque::new();
        let mut sizes = Vec::new();
        let reconnects = self.reconnects;
        let before = self.server.metrics().ok_or("the server is shut down")?;
        let resources = Resources::now();
        let start = Instant::now();
        for conn in 0..CONNECTIONS {
            self.refill(conn, &mut fifo, &mut stats, &mut times, tracer)?;
        }
        while let Some(job) = fifo.pop_front() {
            let tw = Instant::now();
            let result = self.conns[job.conn].client.wait(job.request);
            let done = Instant::now();
            tracer.record("server.wait", tw, done, job.span, job.job);
            tracer.close(job.span, done);
            times
                .wait_ms
                .push(done.duration_since(tw).as_secs_f64() * 1e3);
            self.conns[job.conn].in_flight -= 1;
            match result {
                Ok(mut out) => {
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
                    } else {
                        stats.mismatched += 1;
                    }
                }
                // Refused, shed or failed on the server: an error frame.
                Err(ClientError::Remote { .. }) => stats.failed += 1,
                Err(e) => return Err(format!("wait for job {}: {e}", job.job)),
            }
            if start.elapsed().as_secs_f64() < seconds {
                self.refill(job.conn, &mut fifo, &mut stats, &mut times, tracer)?;
            }
        }
        stats.secs = start.elapsed().as_secs_f64();
        let after = self.server.metrics().ok_or("the server is shut down")?;
        let end = Resources::now();
        let (mut layers, server_side_ms) = service_layers(&before, &after);
        layers.extend([
            ("server.connect_ms", mean(&times.connect_ms)),
            ("server.submit_us", mean(&times.submit_us)),
            ("server.wait_ms", mean(&times.wait_ms)),
            (
                "server.overhead_ms",
                mean(&stats.latencies_ms) - server_side_ms,
            ),
            ("server.reconnects", (self.reconnects - reconnects) as f64),
            ("server.tenants_live", after.per_tenant.len() as f64),
            (
                "server.threads_delta",
                end.threads as f64 - resources.threads as f64,
            ),
            (
                "server.fds_delta",
                end.open_fds as f64 - resources.open_fds as f64,
            ),
            ("cache_aware.auto_bucketed", auto_bucketed_share(&sizes)),
        ]);
        Ok((stats, layers))
    }
}
