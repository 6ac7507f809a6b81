//! Connection churn soak: a closed connection must give back its writer
//! thread, its socket and its tenant.  Thread and fd counts are
//! process-wide, so this lives in its own test binary with a single test —
//! no other server runs in the process while it counts.

use std::path::Path;
use std::time::{Duration, Instant};

use cgp_core::{PermuteOptions, ServiceConfig};
use cgp_server::{Client, WireServer};

/// Connect/permute/disconnect cycles.
const CYCLES: usize = 200;
/// Open fds the process may hold beyond its pre-churn count.
const FD_SLACK: usize = 4;

/// Live threads of this process whose name starts with `prefix` (the
/// kernel truncates thread names to 15 bytes).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn connect(path: &Path) -> Client<u64> {
    Client::connect_uds(path).expect("connect")
}

#[test]
fn closed_connections_release_their_writer_thread_and_socket() {
    let path = std::env::temp_dir().join(format!("cgp-churn-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = ServiceConfig::new(2).executors(1).seed(5);
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, config, PermuteOptions::default()).unwrap();
    let data: Vec<u64> = (0..256).collect();
    // One full cycle first, so the fleet's lazily grown state is in place
    // before the baseline is taken.
    let reference = connect(&path).permute(&data).unwrap();
    let fds_before = open_fds();
    let tenants = || server.metrics().expect("the server is up").per_tenant.len();

    for cycle in 0..CYCLES {
        let mut client = connect(&path);
        assert_eq!(client.permute(&data).unwrap(), reference, "cycle {cycle}");
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let writers = threads_named("cgp-wire-write");
        let fds = open_fds();
        // Every connection served a job, so each had a metrics slot.
        let live = tenants();
        if writers <= 1 && fds <= fds_before + FD_SLACK && live <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "after {CYCLES} closed connections: {writers} writer threads alive, \
             {fds} fds open (started with {fds_before}), {live} tenants live"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
