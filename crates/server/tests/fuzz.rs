//! Fuzzing of the frame decoder: random bytes into every [`Wire::decode`]
//! implementation, random frames into a live connection, and short,
//! ragged and cut-off submits into the streamed payload read.
//!
//! Frames arrive from another process, so no byte sequence may panic a
//! server thread.  A malformed frame gets a `bad-frame` error frame and the
//! connection survives; only an oversized length prefix, or a stream that
//! ends inside a frame (neither can be resynchronized), closes it, after
//! its error frame.

use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Once;

use cgp_core::{PermuteOptions, ServiceConfig};
use cgp_server::{Wire, WireServer, CONNECTION_REQUEST_ID, MAX_FRAME_BYTES};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// Panics on server threads (`cgp-wire-*`) and executors
/// (`cgp-executor-*`) since the hook was installed.
static SERVER_PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_server_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().unwrap_or("").to_string();
            if name.starts_with("cgp-wire-") || name.starts_with("cgp-executor-") {
                SERVER_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            default(info);
        }));
    });
}

/// Re-encodes `items`: a successful decode must be a left inverse of the
/// encoder, so the bytes come back unchanged.
fn reencoded<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    T::encode_into(items, &mut out);
    out
}

/// Decodes `bytes` as `T`; on success the re-encoding must equal `bytes`.
fn check_decode<T: Wire>(bytes: &[u8]) {
    if let Ok(items) = T::decode(bytes) {
        assert_eq!(reencoded(&items), bytes, "{}", std::any::type_name::<T>());
    }
}

/// Frame kinds (the first body byte).
const SUBMIT: u8 = 1;
const RESULT: u8 = 2;
const ERROR: u8 = 3;
const METRICS_REQUEST: u8 = 4;
const METRICS: u8 = 5;
const SHUTDOWN: u8 = 6;
const BAD_FRAME: u8 = 6;

fn fresh_socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cgp-fuzz-{}-{n}.sock", std::process::id()))
}

fn write_frame(stream: &mut UnixStream, len: u64, body: &[u8]) {
    stream.write_all(&len.to_le_bytes()).unwrap();
    stream.write_all(body).unwrap();
}

/// The next frame's body, or `None` at a clean end of stream.
fn read_frame(stream: &mut UnixStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 8];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return None,
        Err(e) => panic!("the connection broke instead of closing cleanly: {e}"),
    }
    let mut body = vec![0u8; u64::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    Some(body)
}

/// `(request_id, code)` of an error frame.
fn error_of(body: &[u8]) -> (u64, u8) {
    assert_eq!(body[0], ERROR, "expected an error frame, got {body:?}");
    (u64::from_le_bytes(body[1..9].try_into().unwrap()), body[9])
}

/// What a fuzzed frame must get back.
#[derive(Debug)]
enum Expect {
    /// A bad-frame error with this request id.
    BadFrame(u64),
    /// A well-formed submit: a result or a service error for this id.
    Served(u64),
    /// A metrics frame.
    Metrics,
}

/// Builds one frame body from fuzz input, and what the server must
/// answer.  `shape` picks the family: arbitrary bytes (any kind but
/// SHUTDOWN), a submit with a random header, or a metrics request.
fn frame(shape: u8, kind: u8, head: &[u8], lane: u8, payload: &[u8]) -> (Vec<u8>, Expect) {
    match shape % 3 {
        0 => {
            let kind = if kind == SHUTDOWN { 7 } else { kind };
            let mut body = vec![kind];
            body.extend_from_slice(head);
            body.extend_from_slice(payload);
            let expect = match kind {
                SUBMIT => submit_expectation(&body),
                METRICS_REQUEST => Expect::Metrics,
                _ => Expect::BadFrame(CONNECTION_REQUEST_ID),
            };
            (body, expect)
        }
        1 => {
            let mut body = vec![SUBMIT];
            body.extend_from_slice(&u64::from(kind).to_le_bytes());
            body.push(lane % 4);
            // Deadline budgets of a day: the job runs rather than sheds.
            body.extend_from_slice(&86_400_000_000u64.to_le_bytes());
            body.extend_from_slice(payload);
            let expect = submit_expectation(&body);
            (body, expect)
        }
        _ => (vec![METRICS_REQUEST], Expect::Metrics),
    }
}

/// The server's reading of a submit body.
fn submit_expectation(body: &[u8]) -> Expect {
    if body.len() < 9 {
        return Expect::BadFrame(CONNECTION_REQUEST_ID);
    }
    let request_id = u64::from_le_bytes(body[1..9].try_into().unwrap());
    if body.len() < 18 || body[9] > 2 || !(body.len() - 18).is_multiple_of(8) {
        return Expect::BadFrame(request_id);
    }
    Expect::Served(request_id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_decoder_rejects_or_round_trips_random_bytes(
        bytes in prop_vec(any::<u8>(), 0..80),
    ) {
        check_decode::<u8>(&bytes);
        check_decode::<u16>(&bytes);
        check_decode::<u32>(&bytes);
        check_decode::<u64>(&bytes);
        check_decode::<u128>(&bytes);
        check_decode::<i8>(&bytes);
        check_decode::<i16>(&bytes);
        check_decode::<i32>(&bytes);
        check_decode::<i64>(&bytes);
        check_decode::<i128>(&bytes);
        check_decode::<f32>(&bytes);
        check_decode::<f64>(&bytes);
        check_decode::<usize>(&bytes);
        check_decode::<isize>(&bytes);
        check_decode::<bool>(&bytes);
        check_decode::<char>(&bytes);
        check_decode::<String>(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_frames_get_answers_and_never_panic_the_server(
        frames in prop_vec(
            (
                any::<u8>(),
                any::<u8>(),
                prop_vec(any::<u8>(), 0..24),
                any::<u8>(),
                prop_vec(any::<u8>(), 0..96),
            ),
            1..8,
        ),
        oversized in any::<bool>(),
    ) {
        count_server_panics();
        let path = fresh_socket_path();
        let config = ServiceConfig::new(2).executors(1).queue_depth(8).seed(3);
        let server: WireServer<u64> =
            WireServer::bind_uds(&path, config, PermuteOptions::default()).unwrap();
        let mut stream = UnixStream::connect(&path).unwrap();
        prop_assert_eq!(read_frame(&mut stream).unwrap()[0], 0, "hello comes first");

        for (shape, kind, head, lane, payload) in &frames {
            let (body, expect) = frame(*shape, *kind, head, *lane, payload);
            write_frame(&mut stream, body.len() as u64, &body);
            let reply = read_frame(&mut stream).expect("a well-framed body keeps the connection");
            match expect {
                Expect::BadFrame(id) => prop_assert_eq!(error_of(&reply), (id, BAD_FRAME)),
                Expect::Metrics => prop_assert_eq!(reply[0], METRICS),
                Expect::Served(id) => {
                    prop_assert!(reply[0] == RESULT || reply[0] == ERROR, "{:?}", reply);
                    prop_assert_eq!(u64::from_le_bytes(reply[1..9].try_into().unwrap()), id);
                    if reply[0] == RESULT {
                        let mut got = u64::decode(&reply[9..]).unwrap();
                        let mut sent = u64::decode(&body[18..]).unwrap();
                        got.sort_unstable();
                        sent.sort_unstable();
                        prop_assert_eq!(got, sent, "a result permutes the submitted items");
                    }
                }
            }
        }

        if oversized {
            // An oversized length prefix cannot be resynchronized: one
            // error frame, then the server hangs up cleanly.
            write_frame(&mut stream, MAX_FRAME_BYTES + 1, &[]);
            let reply = read_frame(&mut stream).expect("an error frame before the hang-up");
            prop_assert_eq!(error_of(&reply), (CONNECTION_REQUEST_ID, BAD_FRAME));
            prop_assert!(read_frame(&mut stream).is_none(), "then a clean end of stream");
        }
        drop(stream);
        server.shutdown();
        prop_assert_eq!(SERVER_PANICS.load(Ordering::SeqCst), 0, "a server thread panicked");
    }
}

/// A submit body: header for `request_id` on the Normal lane, then
/// `payload`.
fn submit_body(request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = vec![SUBMIT];
    body.extend_from_slice(&request_id.to_le_bytes());
    body.push(0);
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(payload);
    body
}

/// Short, ragged and cut-off submits against a `WireServer<T>`; `items`
/// is a well-formed payload whose every proper prefix is sent as a
/// payload of its own.
fn short_ragged_and_cut_off_submits<T: Wire>(items: &[T]) {
    count_server_panics();
    let path = fresh_socket_path();
    let config = ServiceConfig::new(2).executors(1).queue_depth(8).seed(7);
    let server: WireServer<T> =
        WireServer::bind_uds(&path, config, PermuteOptions::default()).unwrap();
    let mut stream = UnixStream::connect(&path).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap()[0], 0, "hello comes first");

    // Submit bodies of 1..=17 bytes end inside the fixed header.
    for len in 1..=17u8 {
        let body: Vec<u8> = [SUBMIT].into_iter().chain(1..len).collect();
        let Expect::BadFrame(id) = submit_expectation(&body) else {
            panic!("a {len}-byte submit body is malformed");
        };
        write_frame(&mut stream, body.len() as u64, &body);
        let reply = read_frame(&mut stream).expect("the connection survives");
        assert_eq!(error_of(&reply), (id, BAD_FRAME), "{len}-byte body");
    }

    // Every proper prefix of a well-formed payload: those that do not
    // parse (for a fixed-width type, the ones that are not a whole number
    // of items) get a bad-frame error addressed to their request, the
    // rest are served, and the stream stays in step throughout.
    let mut payload = Vec::new();
    T::encode_into(items, &mut payload);
    for cut in 0..=payload.len() {
        let request_id = 1000 + cut as u64;
        let prefix = &payload[..cut];
        let body = submit_body(request_id, prefix);
        write_frame(&mut stream, body.len() as u64, &body);
        let reply = read_frame(&mut stream).expect("the connection survives");
        match T::decode(prefix) {
            Err(_) => assert_eq!(error_of(&reply), (request_id, BAD_FRAME), "cut {cut}"),
            Ok(sent) => {
                assert_eq!(reply[0], RESULT, "cut {cut}: {reply:?}");
                assert_eq!(
                    u64::from_le_bytes(reply[1..9].try_into().unwrap()),
                    request_id
                );
                let got = T::decode(&reply[9..]).expect("a result parses");
                assert_eq!(got.len(), sent.len(), "cut {cut}");
            }
        }
    }

    // A stream that ends inside a payload: one bad-frame error at most,
    // then a clean end of stream.
    let body = submit_body(9, &payload);
    write_frame(&mut stream, body.len() as u64, &body[..body.len() - 1]);
    stream.shutdown(Shutdown::Write).unwrap();
    if let Some(reply) = read_frame(&mut stream) {
        assert_eq!(error_of(&reply), (CONNECTION_REQUEST_ID, BAD_FRAME));
        assert!(
            read_frame(&mut stream).is_none(),
            "then a clean end of stream"
        );
    }
    drop(stream);
    server.shutdown();
    assert_eq!(
        SERVER_PANICS.load(Ordering::SeqCst),
        0,
        "a server thread panicked"
    );
}

#[test]
fn short_ragged_and_cut_off_u64_submits_get_bad_frames_or_a_clean_close() {
    short_ragged_and_cut_off_submits::<u64>(&[3, 1, 4, 1, 5]);
}

#[test]
fn short_ragged_and_cut_off_string_submits_get_bad_frames_or_a_clean_close() {
    short_ragged_and_cut_off_submits::<String>(&["wire".into(), "".into(), "ünï".into()]);
}
