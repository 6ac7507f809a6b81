//! A small blocking client for the wire protocol: submit jobs, collect
//! results (in any order), poll metrics, and trigger a server drain.

use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

use cgp_core::Priority;

use crate::codec::Wire;
use crate::protocol::*;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket itself failed (connect, read, or write).
    Io(std::io::Error),
    /// The server answered with an error frame.
    Remote {
        /// The wire error code.
        code: ErrorCode,
        /// The server's human-readable message.
        message: String,
    },
    /// The byte stream violated the protocol (bad hello, truncated frame,
    /// unexpected kind, payload type mismatch, or early EOF).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "wire client I/O error: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::Protocol(message) => write!(f, "wire protocol violation: {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What the server announced in its hello frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// The server's protocol version (the client requires an exact match).
    pub protocol_version: u32,
    /// Virtual processors per job.
    pub procs: usize,
    /// Executor threads of the server's service.
    pub executors: usize,
    /// The service seed — two clients of the same server (or an in-process
    /// run with this seed) see byte-identical permutations.
    pub seed: u64,
    /// `std::any::type_name` of the server's payload type.
    pub payload_type: String,
}

/// The fleet-wide and per-connection counters behind a metrics frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Jobs served fleet-wide.
    pub jobs_served: u64,
    /// Jobs failed fleet-wide.
    pub jobs_failed: u64,
    /// Deadline jobs shed fleet-wide.
    pub deadline_shed: u64,
    /// Always 0: the service steals no jobs (kept for the frame layout).
    pub steals: u64,
    /// Always 0: the service runs every job alone (kept for the frame
    /// layout).
    pub coalesced_jobs: u64,
    /// Fleet uptime in microseconds.
    pub uptime_micros: u64,
    /// Jobs served for **this connection's** tenant.
    pub tenant_served: u64,
    /// Jobs failed for this connection's tenant.
    pub tenant_failed: u64,
    /// Deadline jobs shed for this connection's tenant.
    pub tenant_shed: u64,
}

/// A frame the server pushed at us, already parsed.
enum Incoming<T> {
    Result {
        request_id: u64,
        data: Vec<T>,
    },
    Error {
        request_id: u64,
        code: ErrorCode,
        message: String,
    },
    Metrics(WireMetrics),
}

/// A blocking connection to a [`WireServer`](crate::WireServer).
///
/// Submissions are pipelined: [`Client::submit`] returns a request id
/// without waiting, and [`Client::wait`] collects results **in any
/// order** — frames for other requests that arrive first are buffered, so
/// many jobs can be in flight on one connection.  The server resolves
/// them in completion order; the buffering re-marries frames to waits.
///
/// The payload type `T` must be the server's; the hello handshake
/// cross-checks the type name.
pub struct Client<T: Wire> {
    stream: Stream,
    hello: ServerHello,
    next_request: u64,
    /// Results (or per-request errors) that arrived while waiting on a
    /// different request id.
    pending: HashMap<u64, Result<Vec<T>, (ErrorCode, String)>>,
}

impl<T: Wire> Client<T> {
    /// Connects over a Unix domain socket.
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self, ClientError> {
        Client::handshake(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Client::handshake(Stream::Tcp(stream))
    }

    fn handshake(mut stream: Stream) -> Result<Self, ClientError> {
        let body = read_frame(&mut stream)?
            .ok_or_else(|| ClientError::Protocol("server closed before hello".into()))?;
        let mut frame = FrameReader::new(&body);
        match frame.u8() {
            Some(KIND_HELLO) => {}
            Some(KIND_ERROR) => {
                // A shutting-down server greets with a connection error.
                let (_, code, message) = parse_error(frame)?;
                return Err(ClientError::Remote { code, message });
            }
            _ => return Err(ClientError::Protocol("first frame was not a hello".into())),
        }
        let hello = (|| {
            Some(ServerHello {
                protocol_version: frame.u32()?,
                procs: frame.u32()? as usize,
                executors: frame.u32()? as usize,
                seed: frame.u64()?,
                payload_type: frame.string()?,
            })
        })()
        .ok_or_else(|| ClientError::Protocol("hello frame truncated".into()))?;
        if hello.protocol_version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server speaks protocol v{}, this client v{PROTOCOL_VERSION}",
                hello.protocol_version
            )));
        }
        let ours = std::any::type_name::<T>();
        if hello.payload_type != ours {
            return Err(ClientError::Protocol(format!(
                "server permutes {}, this client submits {ours}",
                hello.payload_type
            )));
        }
        Ok(Client {
            stream,
            hello,
            next_request: 0,
            pending: HashMap::new(),
        })
    }

    /// What the server announced at connect time.
    pub fn hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Submits a job on the Normal lane; returns its request id without
    /// waiting for the result.
    pub fn submit(&mut self, data: &[T]) -> Result<u64, ClientError> {
        self.submit_with(data, Priority::Normal)
    }

    /// Submits a job on an explicit admission lane ([`Priority::Deadline`]
    /// budgets travel as microseconds).
    pub fn submit_with(&mut self, data: &[T], priority: Priority) -> Result<u64, ClientError> {
        let request_id = self.next_request;
        self.next_request += 1;
        let (lane, deadline_micros) = encode_priority(priority);
        let mut body = Vec::with_capacity(18 + data.len() * 8);
        body.push(KIND_SUBMIT);
        body.extend_from_slice(&request_id.to_le_bytes());
        body.push(lane);
        body.extend_from_slice(&deadline_micros.to_le_bytes());
        T::encode_into(data, &mut body);
        write_frame(&mut self.stream, &body)?;
        Ok(request_id)
    }

    /// Blocks until the result for `request_id` arrives (frames for other
    /// requests are buffered for their own waits).  A server-side failure
    /// comes back as [`ClientError::Remote`].
    pub fn wait(&mut self, request_id: u64) -> Result<Vec<T>, ClientError> {
        loop {
            if let Some(done) = self.pending.remove(&request_id) {
                return done.map_err(|(code, message)| ClientError::Remote { code, message });
            }
            match self.read_incoming()? {
                Incoming::Result {
                    request_id: id,
                    data,
                } => {
                    self.pending.insert(id, Ok(data));
                }
                Incoming::Error {
                    request_id: id,
                    code,
                    message,
                } => {
                    if id == CONNECTION_REQUEST_ID {
                        return Err(ClientError::Remote { code, message });
                    }
                    self.pending.insert(id, Err((code, message)));
                }
                Incoming::Metrics(_) => {
                    return Err(ClientError::Protocol(
                        "metrics frame with no metrics request outstanding".into(),
                    ))
                }
            }
        }
    }

    /// Submit-and-wait in one call.
    pub fn permute(&mut self, data: &[T]) -> Result<Vec<T>, ClientError> {
        let id = self.submit(data)?;
        self.wait(id)
    }

    /// Fetches a live metrics snapshot (fleet-wide counters plus this
    /// connection's tenant).  Results arriving in the meantime are
    /// buffered for their own [`Client::wait`] calls.
    pub fn metrics(&mut self) -> Result<WireMetrics, ClientError> {
        write_frame(&mut self.stream, &[KIND_METRICS_REQUEST])?;
        loop {
            match self.read_incoming()? {
                Incoming::Metrics(m) => return Ok(m),
                Incoming::Result { request_id, data } => {
                    self.pending.insert(request_id, Ok(data));
                }
                Incoming::Error {
                    request_id,
                    code,
                    message,
                } => {
                    if request_id == CONNECTION_REQUEST_ID {
                        return Err(ClientError::Remote { code, message });
                    }
                    self.pending.insert(request_id, Err((code, message)));
                }
            }
        }
    }

    /// Asks the server to drain and stop, then reads until it hangs up.
    /// Results for this connection's in-flight jobs are flushed by the
    /// drain; any still unclaimed here are discarded.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &[KIND_SHUTDOWN])?;
        loop {
            match read_frame(&mut self.stream) {
                Ok(Some(_)) => continue,
                Ok(None) => return Ok(()),
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn read_incoming(&mut self) -> Result<Incoming<T>, ClientError> {
        let body = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection mid-wait".into()))?;
        let mut frame = FrameReader::new(&body);
        match frame.u8() {
            Some(KIND_RESULT) => {
                let request_id = frame
                    .u64()
                    .ok_or_else(|| ClientError::Protocol("result frame truncated".into()))?;
                let data = T::decode(frame.tail()).map_err(|e| ClientError::Protocol(e.message))?;
                Ok(Incoming::Result { request_id, data })
            }
            Some(KIND_ERROR) => {
                let (request_id, code, message) = parse_error(frame)?;
                Ok(Incoming::Error {
                    request_id,
                    code,
                    message,
                })
            }
            Some(KIND_METRICS) => {
                let mut fields = [0u64; 9];
                for field in fields.iter_mut() {
                    *field = frame
                        .u64()
                        .ok_or_else(|| ClientError::Protocol("metrics frame truncated".into()))?;
                }
                let [jobs_served, jobs_failed, deadline_shed, steals, coalesced_jobs, uptime_micros, tenant_served, tenant_failed, tenant_shed] =
                    fields;
                Ok(Incoming::Metrics(WireMetrics {
                    jobs_served,
                    jobs_failed,
                    deadline_shed,
                    steals,
                    coalesced_jobs,
                    uptime_micros,
                    tenant_served,
                    tenant_failed,
                    tenant_shed,
                }))
            }
            kind => Err(ClientError::Protocol(format!(
                "unexpected frame kind {kind:?} from the server"
            ))),
        }
    }
}

impl<T: Wire> std::fmt::Debug for Client<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("hello", &self.hello)
            .field("next_request", &self.next_request)
            .field("buffered", &self.pending.len())
            .finish()
    }
}

/// Parses the remainder of an error frame: request id, code, then the
/// message as the raw UTF-8 tail.
fn parse_error(mut frame: FrameReader<'_>) -> Result<(u64, ErrorCode, String), ClientError> {
    let truncated = || ClientError::Protocol("error frame truncated".into());
    let request_id = frame.u64().ok_or_else(truncated)?;
    let code_byte = frame.u8().ok_or_else(truncated)?;
    let code = ErrorCode::from_byte(code_byte)
        .ok_or_else(|| ClientError::Protocol(format!("unknown error code {code_byte}")))?;
    let message = String::from_utf8_lossy(frame.tail()).into_owned();
    Ok((request_id, code, message))
}
