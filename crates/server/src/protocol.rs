//! The frame protocol shared by [`crate::WireServer`] and
//! [`crate::Client`], plus the [`Stream`] abstraction spanning UDS and TCP.
//!
//! Little-endian throughout: each frame is `len: u64` (byte length of the
//! body) followed by the body, whose first byte is the kind.  Payload
//! bytes inside submit/result frames are produced and consumed by the
//! payload type's [`Wire`](crate::Wire) codec (see [`crate::codec`]).
//!
//! | kind | dir | body layout after the kind byte |
//! |------|-----|----------------------------------|
//! | 0 `HELLO` | s→c | `version: u32, procs: u32, executors: u32, seed: u64`, payload type name (`len: u64` + UTF-8) |
//! | 1 `SUBMIT` | c→s | `request_id: u64, priority: u8, deadline_micros: u64`, payload bytes |
//! | 2 `RESULT` | s→c | `request_id: u64`, payload bytes |
//! | 3 `ERROR` | s→c | `request_id: u64` (`u64::MAX` = connection-level), `code: u8`, UTF-8 message |
//! | 4 `METRICS_REQUEST` | c→s | empty |
//! | 5 `METRICS` | s→c | 9 × `u64` (see [`WireMetrics`](crate::WireMetrics)) |
//! | 6 `SHUTDOWN` | c→s | empty |
//!
//! `priority` is 0 = Normal, 1 = High, 2 = Deadline (`deadline_micros` is
//! the budget; it is ignored — and conventionally zero — for the other
//! lanes).  See `docs/wire-protocol.md` for the normative spec.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use cgp_core::{Priority, ServiceError};

/// Protocol version announced in the hello frame.  A client must treat a
/// version it does not know as a connection error.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's body.  A length prefix beyond this is
/// treated as a malformed frame rather than an allocation request — a
/// corrupt or hostile peer must not be able to OOM the server with eight
/// bytes.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// `request_id` of connection-level error frames (not tied to a submit).
pub const CONNECTION_REQUEST_ID: u64 = u64::MAX;

pub(crate) const KIND_HELLO: u8 = 0;
pub(crate) const KIND_SUBMIT: u8 = 1;
pub(crate) const KIND_RESULT: u8 = 2;
pub(crate) const KIND_ERROR: u8 = 3;
pub(crate) const KIND_METRICS_REQUEST: u8 = 4;
pub(crate) const KIND_METRICS: u8 = 5;
pub(crate) const KIND_SHUTDOWN: u8 = 6;

pub(crate) const PRIORITY_NORMAL: u8 = 0;
pub(crate) const PRIORITY_HIGH: u8 = 1;
pub(crate) const PRIORITY_DEADLINE: u8 = 2;

/// Why the server refused (or failed) a wire request, as carried in an
/// error frame's `code` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission backpressure: the queue (or this connection's tenant
    /// quota) is full.  Wire submissions never park server threads — the
    /// client retries or sheds.
    QueueFull,
    /// The service behind the server is shut down.
    ShutDown,
    /// The submission was malformed at the service level (bad per-job
    /// options) — distinct from [`ErrorCode::BadFrame`], which is a
    /// protocol-level parse failure.
    InvalidJob,
    /// The job ran and failed (contained panic inside a virtual processor).
    JobFailed,
    /// A deadline-lane job was shed unrun because its budget expired.
    DeadlineExceeded,
    /// The frame could not be parsed (unknown kind, truncated body,
    /// undecodable payload).  The connection survives: framing is length-
    /// delimited, so one bad body never desynchronizes the stream.
    BadFrame,
}

impl ErrorCode {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::ShutDown => 2,
            ErrorCode::InvalidJob => 3,
            ErrorCode::JobFailed => 4,
            ErrorCode::DeadlineExceeded => 5,
            ErrorCode::BadFrame => 6,
        }
    }

    pub(crate) fn from_byte(byte: u8) -> Option<Self> {
        Some(match byte {
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::ShutDown,
            3 => ErrorCode::InvalidJob,
            4 => ErrorCode::JobFailed,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::BadFrame,
            _ => return None,
        })
    }

    pub(crate) fn of_service_error(error: &ServiceError) -> Self {
        match error {
            ServiceError::QueueFull => ErrorCode::QueueFull,
            ServiceError::ShutDown => ErrorCode::ShutDown,
            ServiceError::InvalidJob(_) => ErrorCode::InvalidJob,
            ServiceError::JobFailed(_) => ErrorCode::JobFailed,
            ServiceError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::ShutDown => "shut-down",
            ErrorCode::InvalidJob => "invalid-job",
            ErrorCode::JobFailed => "job-failed",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::BadFrame => "bad-frame",
        };
        f.write_str(name)
    }
}

/// Encodes the submit-lane byte pair for a [`Priority`].
pub(crate) fn encode_priority(priority: Priority) -> (u8, u64) {
    match priority {
        Priority::Normal => (PRIORITY_NORMAL, 0),
        Priority::High => (PRIORITY_HIGH, 0),
        Priority::Deadline(budget) => (PRIORITY_DEADLINE, budget.as_micros() as u64),
    }
}

/// Decodes a submit frame's lane byte pair back into a [`Priority`].
pub(crate) fn decode_priority(lane: u8, deadline_micros: u64) -> Option<Priority> {
    Some(match lane {
        PRIORITY_NORMAL => Priority::Normal,
        PRIORITY_HIGH => Priority::High,
        PRIORITY_DEADLINE => Priority::Deadline(Duration::from_micros(deadline_micros)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

/// One connection's byte stream: a Unix domain socket or a TCP socket,
/// behind one type so the protocol code is written once.
#[derive(Debug)]
pub enum Stream {
    /// A Unix-domain-socket connection.
    Unix(UnixStream),
    /// A TCP connection (`TCP_NODELAY` is set on connect/accept: frames
    /// are small and latency-bound, Nagle buys nothing here).
    Tcp(TcpStream),
}

impl Stream {
    /// An independently owned handle to the same socket (shared file
    /// description, like `File::try_clone`).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts the socket down in both directions: the peer sees EOF, and
    /// every clone of this stream starts failing its reads/writes.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub(crate) fn write_frame(stream: &mut Stream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u64).to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.  A length prefix beyond [`MAX_FRAME_BYTES`] is an error (the
/// stream cannot be resynchronized after refusing to read a body, so the
/// caller must drop the connection).
pub(crate) fn read_frame(stream: &mut Stream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 8];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        // A reset mid-frame-boundary is the same "peer hung up" signal as
        // a clean EOF — UDS peers that close abruptly surface it this way.
        Err(e) if e.kind() == ErrorKind::ConnectionReset => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Little-endian field reader over one frame body.
pub(crate) struct FrameReader<'a> {
    rest: &'a [u8],
}

impl<'a> FrameReader<'a> {
    pub(crate) fn new(body: &'a [u8]) -> Self {
        FrameReader { rest: body }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let (&byte, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(byte)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        if self.rest.len() < 4 {
            return None;
        }
        let (head, rest) = self.rest.split_at(4);
        self.rest = rest;
        Some(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        if self.rest.len() < 8 {
            return None;
        }
        let (head, rest) = self.rest.split_at(8);
        self.rest = rest;
        Some(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    /// A `len: u64`-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> Option<String> {
        let len = self.u64()? as usize;
        if self.rest.len() < len {
            return None;
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        String::from_utf8(head.to_vec()).ok()
    }

    /// Everything not yet consumed (the payload tail of submit/result
    /// frames).
    pub(crate) fn tail(self) -> &'a [u8] {
        self.rest
    }
}

/// Builds an error-frame body.
pub(crate) fn error_body(request_id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(10 + message.len());
    body.push(KIND_ERROR);
    body.extend_from_slice(&request_id.to_le_bytes());
    body.push(code.to_byte());
    body.extend_from_slice(message.as_bytes());
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::QueueFull,
            ErrorCode::ShutDown,
            ErrorCode::InvalidJob,
            ErrorCode::JobFailed,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadFrame,
        ] {
            assert_eq!(ErrorCode::from_byte(code.to_byte()), Some(code));
        }
        assert_eq!(ErrorCode::from_byte(0), None);
        assert_eq!(ErrorCode::from_byte(7), None);
    }

    #[test]
    fn priorities_round_trip() {
        for priority in [
            Priority::Normal,
            Priority::High,
            Priority::Deadline(Duration::from_micros(1500)),
        ] {
            let (lane, micros) = encode_priority(priority);
            assert_eq!(decode_priority(lane, micros), Some(priority));
        }
        assert_eq!(decode_priority(3, 0), None);
    }

    #[test]
    fn frame_reader_rejects_truncated_fields() {
        let mut r = FrameReader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.u32(), None);
        let mut r = FrameReader::new(&[5, 0, 0, 0, 0, 0, 0, 0, b'h']);
        assert_eq!(r.string(), None, "length prefix larger than the body");
    }
}
