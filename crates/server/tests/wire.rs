//! End-to-end tests of the wire front-end: byte-identity with in-process
//! submission, protocol robustness against malformed frames, client
//! disconnects mid-job, and shutdown draining with connected clients.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cgp_core::{PermutationService, PermuteOptions, Priority, ServiceConfig};
use cgp_server::{Client, ClientError, ErrorCode, WireServer, CONNECTION_REQUEST_ID};

/// A socket path no concurrent test (or test run) collides with.
fn fresh_socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cgp-wire-{}-{n}.sock", std::process::id()))
}

fn test_config(seed: u64) -> ServiceConfig {
    ServiceConfig::new(2)
        .executors(2)
        .queue_depth(16)
        .seed(seed)
}

#[test]
fn wire_results_are_byte_identical_to_in_process_submission() {
    let config = test_config(41);
    let options = PermuteOptions::default();
    let data: Vec<u64> = (0..3000).collect();

    let service = PermutationService::try_new(config, options.clone()).unwrap();
    let (reference, _) = service
        .handle()
        .submit(data.clone())
        .unwrap()
        .wait()
        .unwrap();
    service.shutdown();
    assert_ne!(reference, data, "seed 41 must actually permute");

    // Over a Unix domain socket, on every lane.
    let path = fresh_socket_path();
    let server: WireServer<u64> = WireServer::bind_uds(&path, config, options.clone()).unwrap();
    let mut client: Client<u64> = Client::connect_uds(&path).unwrap();
    assert_eq!(client.hello().seed, 41);
    assert_eq!(client.hello().executors, 2);
    assert_eq!(client.permute(&data).unwrap(), reference);
    let high = client.submit_with(&data, Priority::High).unwrap();
    let roomy = client
        .submit_with(&data, Priority::Deadline(Duration::from_secs(120)))
        .unwrap();
    assert_eq!(client.wait(high).unwrap(), reference);
    assert_eq!(client.wait(roomy).unwrap(), reference);
    let metrics = server.shutdown();
    assert_eq!(metrics.jobs_served, 3);
    assert_eq!(metrics.deadline_shed, 0);
    assert!(!path.exists(), "shutdown unlinks the socket file");

    // Over TCP, with pipelined submits collected out of order.
    let server: WireServer<u64> = WireServer::bind_tcp("127.0.0.1:0", config, options).unwrap();
    let mut client: Client<u64> = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let ids: Vec<u64> = (0..4).map(|_| client.submit(&data).unwrap()).collect();
    for id in ids.into_iter().rev() {
        assert_eq!(client.wait(id).unwrap(), reference);
    }
    assert_eq!(server.shutdown().jobs_served, 4);
}

#[test]
fn connecting_with_the_wrong_payload_type_is_a_protocol_error() {
    let path = fresh_socket_path();
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, test_config(1), PermuteOptions::default()).unwrap();
    match Client::<u32>::connect_uds(&path) {
        Err(ClientError::Protocol(message)) => {
            assert!(
                message.contains("u64"),
                "mentions the server type: {message}"
            )
        }
        other => panic!("expected a payload-type mismatch, got {other:?}"),
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Raw-socket protocol robustness
// ---------------------------------------------------------------------------

fn write_raw(stream: &mut UnixStream, body: &[u8]) {
    stream
        .write_all(&(body.len() as u64).to_le_bytes())
        .unwrap();
    stream.write_all(body).unwrap();
}

fn read_raw(stream: &mut UnixStream) -> Vec<u8> {
    let mut len = [0u8; 8];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u64::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    body
}

/// Asserts `body` is an error frame and returns `(request_id, code)`.
fn parse_error_frame(body: &[u8]) -> (u64, u8) {
    assert_eq!(body[0], 3, "kind must be ERROR, frame was {body:?}");
    let request_id = u64::from_le_bytes(body[1..9].try_into().unwrap());
    (request_id, body[9])
}

#[test]
fn malformed_frames_get_error_frames_and_the_connection_survives() {
    let path = fresh_socket_path();
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, test_config(9), PermuteOptions::default()).unwrap();
    let mut stream = UnixStream::connect(&path).unwrap();
    assert_eq!(read_raw(&mut stream)[0], 0, "hello comes first");

    // An empty body, an unknown kind, and a submit truncated before its
    // request id: all connection-level bad-frame errors.
    for garbage in [&[][..], &[99][..], &[1, 7, 7][..]] {
        write_raw(&mut stream, garbage);
        let (request_id, code) = parse_error_frame(&read_raw(&mut stream));
        assert_eq!(request_id, CONNECTION_REQUEST_ID);
        assert_eq!(code, 6, "bad-frame code");
    }

    // A submit with a parseable request id but an unknown priority lane:
    // the error is addressed to that request.
    let mut submit = vec![1u8];
    submit.extend_from_slice(&77u64.to_le_bytes());
    submit.push(9); // no such lane
    submit.extend_from_slice(&0u64.to_le_bytes());
    write_raw(&mut stream, &submit);
    let (request_id, code) = parse_error_frame(&read_raw(&mut stream));
    assert_eq!((request_id, code), (77, 6));

    // A submit whose payload is not a whole number of u64s.
    let mut submit = vec![1u8];
    submit.extend_from_slice(&78u64.to_le_bytes());
    submit.push(0);
    submit.extend_from_slice(&0u64.to_le_bytes());
    submit.extend_from_slice(&[1, 2, 3]);
    write_raw(&mut stream, &submit);
    let (request_id, code) = parse_error_frame(&read_raw(&mut stream));
    assert_eq!((request_id, code), (78, 6));

    // The same connection still serves a well-formed submit.
    let data: Vec<u64> = (0..64).collect();
    let mut submit = vec![1u8];
    submit.extend_from_slice(&79u64.to_le_bytes());
    submit.push(0);
    submit.extend_from_slice(&0u64.to_le_bytes());
    for item in &data {
        submit.extend_from_slice(&item.to_le_bytes());
    }
    write_raw(&mut stream, &submit);
    let body = read_raw(&mut stream);
    assert_eq!(body[0], 2, "kind must be RESULT");
    assert_eq!(u64::from_le_bytes(body[1..9].try_into().unwrap()), 79);
    let mut out: Vec<u64> = body[9..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(out.len(), data.len());
    out.sort_unstable();
    assert_eq!(out, data, "the result is a permutation of the submission");

    drop(stream);
    assert_eq!(server.shutdown().jobs_served, 1);
}

#[test]
fn an_oversized_length_prefix_is_refused_without_an_allocation() {
    let path = fresh_socket_path();
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, test_config(9), PermuteOptions::default()).unwrap();
    let mut stream = UnixStream::connect(&path).unwrap();
    assert_eq!(read_raw(&mut stream)[0], 0);

    // Claim a frame body bigger than the 1 GiB cap.  The server answers
    // with a bad-frame error and hangs up (the stream cannot be
    // resynchronized without reading the claimed body).
    stream.write_all(&u64::MAX.to_le_bytes()).unwrap();
    let (request_id, code) = parse_error_frame(&read_raw(&mut stream));
    assert_eq!((request_id, code), (CONNECTION_REQUEST_ID, 6));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the server closed the connection");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Disconnects and shutdown draining
// ---------------------------------------------------------------------------

#[test]
fn client_disconnect_mid_job_is_cleaned_up_without_wedging_the_server() {
    let path = fresh_socket_path();
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, test_config(3), PermuteOptions::default()).unwrap();
    let mut client: Client<u64> = Client::connect_uds(&path).unwrap();
    let data: Vec<u64> = (0..200_000).collect();
    client.submit(&data).unwrap();
    // The metrics round-trip proves the reader thread has consumed the
    // submit frame (frames on one connection are processed in order), so
    // the job is admitted before we vanish.
    client.metrics().unwrap();
    drop(client); // hang up with the job in flight

    // The drain must complete: the orphaned job runs, its result-frame
    // write fails harmlessly, and a fresh connection still works.
    let mut survivor: Client<u64> = Client::connect_uds(&path).unwrap();
    let small: Vec<u64> = (0..500).collect();
    assert_eq!(survivor.permute(&small).unwrap().len(), 500);
    let metrics = server.shutdown();
    assert_eq!(metrics.jobs_served, 2, "the orphaned job still ran");
    assert_eq!(metrics.jobs_failed, 0);
}

#[test]
fn shutdown_with_connected_clients_drains_results_then_closes_sockets() {
    let path = fresh_socket_path();
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, test_config(17), PermuteOptions::default()).unwrap();
    let trigger: Client<u64> = Client::connect_uds(&path).unwrap();
    let mut bystander: Client<u64> = Client::connect_uds(&path).unwrap();

    let data: Vec<u64> = (0..4000).collect();
    let reference = bystander.permute(&data).unwrap();
    let ids: Vec<u64> = (0..3).map(|_| bystander.submit(&data).unwrap()).collect();
    // Synchronize: once metrics answers, every earlier frame on this
    // connection has been admitted, so the shutdown below must drain them.
    // Any of the three pipelined jobs may already have completed.
    let before = bystander.metrics().unwrap();
    assert!(
        (1..=4).contains(&before.tenant_served),
        "served {} before the drain",
        before.tenant_served
    );

    // A wire-initiated shutdown from one connection...
    trigger.shutdown().unwrap();

    // ...still delivers the other connection's in-flight results...
    for id in ids {
        assert_eq!(bystander.wait(id).unwrap(), reference);
    }
    // ...and then the socket is closed (EOF, reported as a protocol error
    // on the next wait) rather than left dangling.
    match bystander.wait(12345) {
        Err(ClientError::Protocol(message)) => assert!(message.contains("closed")),
        other => panic!("expected EOF after the drain, got {other:?}"),
    }

    // The server-side handle agrees on the final tally and is idempotent.
    let metrics = server.shutdown();
    assert_eq!(metrics.jobs_served, 4);

    // New connections are refused politely.
    match Client::<u64>::connect_uds(&path) {
        Ok(_) => panic!("expected the socket to be gone or refused"),
        Err(ClientError::Io(_)) | Err(ClientError::Remote { .. }) => {}
        Err(e) => panic!("unexpected failure mode: {e:?}"),
    }
}

#[test]
fn wire_metrics_report_per_connection_tenants_and_backpressure_is_an_error_frame() {
    let path = fresh_socket_path();
    // One machine, a one-slot queue, and a tenant quota of one: easy to
    // overfill from the outside.
    let config = ServiceConfig::new(2)
        .executors(1)
        .queue_depth(1)
        .tenant_quota(1)
        .seed(23);
    let server: WireServer<u64> =
        WireServer::bind_uds(&path, config, PermuteOptions::default()).unwrap();
    let mut a: Client<u64> = Client::connect_uds(&path).unwrap();
    let mut b: Client<u64> = Client::connect_uds(&path).unwrap();

    let data: Vec<u64> = (0..1000).collect();
    a.permute(&data).unwrap();
    a.permute(&data).unwrap();
    b.permute(&data).unwrap();
    let m = a.metrics().unwrap();
    assert_eq!(m.tenant_served, 2, "connection A's tenant served two jobs");
    assert_eq!(m.jobs_served, 3, "the fleet served three");
    assert_eq!(m.tenant_failed, 0);

    // Flood connection B past the one-deep queue without waiting: the
    // wire answer to backpressure is a queue-full error frame per
    // rejected submit, not a parked server thread.
    let big: Vec<u64> = (0..400_000).collect();
    let ids: Vec<u64> = (0..6).map(|_| b.submit(&big).unwrap()).collect();
    let mut rejected = 0;
    let mut accepted = 0;
    for id in ids {
        match b.wait(id) {
            Ok(out) => {
                assert_eq!(out.len(), big.len());
                accepted += 1;
            }
            Err(ClientError::Remote {
                code: ErrorCode::QueueFull,
                ..
            }) => rejected += 1,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    assert_eq!(accepted + rejected, 6);
    assert!(accepted >= 1, "some of the flood is served");
    assert!(
        rejected >= 1,
        "a one-deep queue cannot absorb six instant submits"
    );
    server.shutdown();
}
