//! Wire traffic generator — drives a [`cgp::wire::WireServer`] the way a
//! mixed client population would: several concurrent connections, each its
//! own tenant, spraying jobs across the Normal / High / Deadline lanes and
//! collecting results out of order over the socket.
//!
//! The example starts an in-process TCP server on an ephemeral port,
//! launches one thread per client, and at the end prints the fleet's
//! metrics next to each client's wire-level tally — including how much
//! backpressure (queue-full error frames) and deadline shedding the
//! run produced, and a spot-check that a wire result is byte-identical
//! to the same submission made in process.
//!
//! ```text
//! cargo run --release --example wire_traffic [clients] [jobs_per_client] [items_per_job]
//! ```

use std::env;
use std::time::Duration;

use cgp::wire::{Client, ClientError, ErrorCode, WireServer};
use cgp::{PermutationService, PermuteOptions, Priority, ServiceConfig};

/// One client's view of its run.
#[derive(Default)]
struct Tally {
    served: u64,
    queue_full: u64,
    deadline_shed: u64,
}

fn run_client(addr: std::net::SocketAddr, client_id: usize, jobs: usize, items: usize) -> Tally {
    let mut client: Client<u64> = Client::connect_tcp(addr).expect("connect");
    let data: Vec<u64> = (0..items as u64).collect();
    let mut tally = Tally::default();

    // Pipeline a burst, then collect: one third Normal, one third High,
    // one third on a tight deadline that an oversubscribed fleet will
    // partially shed.
    let ids: Vec<(u64, &'static str)> = (0..jobs)
        .map(|j| {
            let (priority, lane) = match j % 3 {
                0 => (Priority::Normal, "normal"),
                1 => (Priority::High, "high"),
                _ => (Priority::Deadline(Duration::from_millis(50)), "deadline"),
            };
            loop {
                let id = client.submit_with(&data, priority).expect("submit");
                // Collect immediately so at most one job per client rides
                // each lane burst; rejected submits are retried.
                match client.wait(id) {
                    Ok(out) => {
                        assert_eq!(out.len(), data.len());
                        tally.served += 1;
                        return (id, lane);
                    }
                    Err(ClientError::Remote {
                        code: ErrorCode::QueueFull,
                        ..
                    }) => {
                        tally.queue_full += 1;
                        std::thread::yield_now();
                    }
                    Err(ClientError::Remote {
                        code: ErrorCode::DeadlineExceeded,
                        ..
                    }) => {
                        tally.deadline_shed += 1;
                        return (id, lane);
                    }
                    Err(e) => panic!("client {client_id}: {e}"),
                }
            }
        })
        .collect();
    let _ = ids;
    tally
}

fn main() {
    let mut args = env::args().skip(1);
    let clients: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let items: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);

    let config = ServiceConfig::new(2)
        .executors(2)
        .queue_depth(2 * clients)
        .seed(2024);
    let options = PermuteOptions::default();

    // The reference result: the same submission made in process.
    let service = PermutationService::try_new(config, options.clone()).expect("service");
    let data: Vec<u64> = (0..items as u64).collect();
    let (reference, _) = service
        .handle()
        .submit(data.clone())
        .expect("submit")
        .wait()
        .expect("wait");
    service.shutdown();

    let server: WireServer<u64> =
        WireServer::bind_tcp("127.0.0.1:0", config, options).expect("bind");
    let addr = server.local_addr().expect("tcp server has an address");
    println!("wire server on {addr}: {clients} clients x {jobs} jobs x {items} items\n");

    // Byte-identity spot check before the load starts.
    let mut probe: Client<u64> = Client::connect_tcp(addr).expect("connect");
    assert_eq!(
        probe.permute(&data).expect("probe job"),
        reference,
        "wire result must be byte-identical to the in-process submission"
    );
    println!("probe: wire result is byte-identical to the in-process run");

    let workers: Vec<_> = (0..clients)
        .map(|c| std::thread::spawn(move || run_client(addr, c, jobs, items)))
        .collect();
    let tallies: Vec<Tally> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    println!(
        "\n{:<8} {:>8} {:>12} {:>14}",
        "client", "served", "queue-full", "deadline-shed"
    );
    for (c, t) in tallies.iter().enumerate() {
        println!(
            "{:<8} {:>8} {:>12} {:>14}",
            c, t.served, t.queue_full, t.deadline_shed
        );
    }

    let probe_metrics = probe.metrics().expect("metrics");
    let metrics = server.shutdown();
    println!("\nfleet metrics after drain:");
    println!("  jobs served    : {}", metrics.jobs_served);
    println!("  deadline shed  : {}", metrics.deadline_shed);
    println!("  steals         : {}", metrics.steals);
    println!("  coalesced jobs : {}", metrics.coalesced_jobs);
    println!("  tenants        : {}", metrics.per_tenant.len());
    println!(
        "  (probe tenant saw {} of those over the wire)",
        probe_metrics.tenant_served
    );
}
