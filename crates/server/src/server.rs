//! The server side: one acceptor thread, and per connection one reader
//! thread plus one writer thread.  Results are streamed back through
//! `JobTicket::on_complete`, which only **enqueues** the frame — socket
//! I/O happens on the connection's writer thread, so a slow (or vanished)
//! client can never wedge a executor or stall another tenant.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use cgp_cgm::CgmError;
use cgp_core::{
    PermutationService, PermuteOptions, ServiceConfig, ServiceError, ServiceHandle, ServiceMetrics,
};

use crate::codec::Wire;
use crate::protocol::*;

/// Why a [`WireServer`] could not start.
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listener (or cloning a socket) failed.
    Io(std::io::Error),
    /// The permutation fleet behind the server could not be built.
    Service(CgmError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "wire server I/O error: {e}"),
            ServerError::Service(e) => write!(f, "the permutation fleet could not start: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Service(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Where the acceptor listens, and how a shutdown wakes it.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }
}

/// The self-connect target a shutdown uses to unblock `accept()`.
enum WakeTarget {
    Uds(PathBuf),
    Tcp(SocketAddr),
}

/// What a connection's writer thread is fed.  The queue is the only path
/// to the socket's write half: the reader enqueues error/metrics frames,
/// completion callbacks enqueue result frames, and `Close` — sent by
/// shutdown after the fleet drains — flushes everything queued before it
/// (the channel is FIFO) and then closes the socket, so the peer sees its
/// final results and *then* EOF.
enum WriterMsg {
    Frame(Vec<u8>),
    Close,
}

struct ServerInner<T: Wire> {
    /// `Some` until the first shutdown takes it (frame- or API-initiated —
    /// whichever comes first drains the fleet exactly once).
    service: Mutex<Option<PermutationService<T>>>,
    /// Final metrics from that drain, for late [`WireServer::shutdown`]
    /// callers.
    final_metrics: Mutex<Option<ServiceMetrics>>,
    /// Per-job options for wire submissions (the service-wide defaults).
    options: PermuteOptions,
    hello: Vec<u8>,
    shutting_down: AtomicBool,
    /// The writer-queue handle of every live connection, by connection id,
    /// so shutdown can flush and close them all.  A connection's reader
    /// removes its own entry when it exits ([`ConnEntry`]); a handle kept
    /// past that would keep the writer thread and its socket alive until
    /// server shutdown.
    conns: Mutex<HashMap<u64, mpsc::Sender<WriterMsg>>>,
    wake: WakeTarget,
    next_conn: AtomicU64,
}

impl<T: Wire> ServerInner<T> {
    /// Drains and tears the whole server down; idempotent.  Every job
    /// accepted before this call still resolves — its result frame is
    /// queued by the completion callback during the drain, and only behind
    /// those frames does each connection's `Close` land — so clients read
    /// their final results, then EOF.
    fn shutdown_service(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let service = self
            .service
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(service) = service {
            let metrics = service.shutdown();
            *self.final_metrics.lock().unwrap_or_else(|e| e.into_inner()) = Some(metrics);
        }
        let conns: Vec<mpsc::Sender<WriterMsg>> = self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for conn in conns {
            let _ = conn.send(WriterMsg::Close);
        }
        // Unblock the acceptor with a throwaway self-connection; it
        // observes `shutting_down` and exits.
        match &self.wake {
            WakeTarget::Uds(path) => drop(std::os::unix::net::UnixStream::connect(path)),
            WakeTarget::Tcp(addr) => drop(std::net::TcpStream::connect(addr)),
        }
    }
}

/// A socket front-end over one [`PermutationService`] fleet: non-Rust (or
/// out-of-process Rust) clients submit permutation jobs over UDS or TCP
/// with the frame protocol in [`crate::protocol`], and results stream back
/// **in completion order** the moment each ticket resolves — the server
/// never blocks a thread per in-flight job, it arms
/// [`cgp_core::JobTicket::on_complete`] and lets the completing executor
/// hand the frame to the connection's writer queue.
///
/// Every connection is its own tenant (fresh [`ServiceHandle`]), so the
/// scheduler's fair-share admission, quotas, and per-tenant metrics apply
/// per connection.  Submissions use the non-blocking admission path:
/// backpressure comes back as a `queue-full` error frame instead of a
/// parked server thread, making flow control explicit on the wire.  (The
/// per-connection result queue is unbounded in frames but bounded in
/// practice by the same admission quotas — a tenant can only have as many
/// undelivered results as it had admitted jobs.)
///
/// Determinism carries over the socket: a wire-submitted job returns the
/// byte-identical permutation of the same in-process `submit` (same fleet
/// seed), because the payload codec and the scheduler are both
/// deterministic — the transport is just bytes.
pub struct WireServer<T: Wire> {
    inner: Arc<ServerInner<T>>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    /// Unlinked on drop for UDS servers.
    socket_path: Option<PathBuf>,
}

impl<T: Wire> WireServer<T> {
    /// Binds a Unix-domain-socket server at `path` (the file must not
    /// exist) and starts the fleet behind it.
    pub fn bind_uds(
        path: impl AsRef<Path>,
        config: ServiceConfig,
        options: PermuteOptions,
    ) -> Result<Self, ServerError> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        WireServer::start(
            Listener::Unix(listener),
            WakeTarget::Uds(path.clone()),
            None,
            Some(path),
            config,
            options,
        )
    }

    /// Binds a TCP server (e.g. `"127.0.0.1:0"` for an ephemeral port —
    /// read it back with [`WireServer::local_addr`]) and starts the fleet
    /// behind it.
    pub fn bind_tcp(
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        options: PermuteOptions,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        WireServer::start(
            Listener::Tcp(listener),
            WakeTarget::Tcp(local),
            Some(local),
            None,
            config,
            options,
        )
    }

    fn start(
        listener: Listener,
        wake: WakeTarget,
        local_addr: Option<SocketAddr>,
        socket_path: Option<PathBuf>,
        config: ServiceConfig,
        options: PermuteOptions,
    ) -> Result<Self, ServerError> {
        let service =
            PermutationService::try_new(config, options.clone()).map_err(ServerError::Service)?;
        let mut hello = Vec::new();
        hello.push(KIND_HELLO);
        hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        hello.extend_from_slice(&(service.procs() as u32).to_le_bytes());
        hello.extend_from_slice(&(service.executors() as u32).to_le_bytes());
        hello.extend_from_slice(&config.engine.seed.to_le_bytes());
        let ty = std::any::type_name::<T>();
        hello.extend_from_slice(&(ty.len() as u64).to_le_bytes());
        hello.extend_from_slice(ty.as_bytes());

        let inner = Arc::new(ServerInner {
            service: Mutex::new(Some(service)),
            final_metrics: Mutex::new(None),
            options,
            hello,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            wake,
            next_conn: AtomicU64::new(0),
        });
        let acceptor_inner = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("cgp-wire-accept".into())
            .spawn(move || acceptor_loop(listener, acceptor_inner))
            .map_err(|e| ServerError::Io(std::io::Error::other(e.to_string())))?;
        Ok(WireServer {
            inner,
            acceptor: Some(acceptor),
            local_addr,
            socket_path,
        })
    }

    /// The bound TCP address (`None` for UDS servers) — how a test run on
    /// `127.0.0.1:0` learns its ephemeral port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A live snapshot of the fleet's metrics (`None` once shut down).
    pub fn metrics(&self) -> Option<ServiceMetrics> {
        self.inner
            .service
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|s| s.metrics())
    }

    /// Stops accepting, **drains every already-accepted job** (clients
    /// receive their final result frames), closes all connections, and
    /// returns the fleet's final metrics.  Safe to call after a client
    /// already triggered shutdown over the wire — the drain happens once.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.inner.shutdown_service();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
        self.inner
            .final_metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .expect("shutdown_service stored the final metrics")
    }
}

impl<T: Wire> Drop for WireServer<T> {
    fn drop(&mut self) {
        self.inner.shutdown_service();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn acceptor_loop<T: Wire>(listener: Listener, inner: Arc<ServerInner<T>>) {
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.shutting_down.load(Ordering::SeqCst) {
            // The shutdown wake-up (or a client racing it): just hang up.
            return;
        }
        let conn_id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn_inner = Arc::clone(&inner);
        // Serve on named threads; a spawn failure drops the connection
        // (the client sees EOF) without taking the acceptor down.
        let _ = std::thread::Builder::new()
            .name(format!("cgp-wire-read-{conn_id}"))
            .spawn(move || serve_connection(stream, conn_id, conn_inner));
    }
}

/// Runs a connection's writer half: the sole owner of socket writes.
/// Exits on `Close` (flushing everything queued before it, then shutting
/// the socket down so the peer and the reader thread see EOF) or once
/// every sender is gone (reader exited and all in-flight jobs resolved).
/// Write errors are swallowed — a vanished peer just means its remaining
/// frames have nowhere to go.
fn writer_loop(mut stream: Stream, rx: mpsc::Receiver<WriterMsg>) {
    for msg in rx.iter() {
        match msg {
            WriterMsg::Frame(body) => {
                let _ = write_frame(&mut stream, &body);
            }
            WriterMsg::Close => break,
        }
    }
    let _ = stream.shutdown();
}

/// A live connection's entry in [`ServerInner::conns`], removed when the
/// reader exits by any path.  The writer thread then ends, closing the
/// socket, once the last in-flight result frame has been queued.
struct ConnEntry<'a, T: Wire> {
    inner: &'a ServerInner<T>,
    conn_id: u64,
}

impl<T: Wire> Drop for ConnEntry<'_, T> {
    fn drop(&mut self) {
        self.inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.conn_id);
    }
}

/// One connection's reader half: handshake, then a frame-dispatch loop
/// until the client hangs up or the server shuts down.
fn serve_connection<T: Wire>(mut stream: Stream, conn_id: u64, inner: Arc<ServerInner<T>>) {
    // Mint this connection's tenant.  A server already shutting down
    // greets with a connection-level error instead of a hello.
    let handle: Option<ServiceHandle<T>> = inner
        .service
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|s| s.handle());
    let Some(handle) = handle else {
        let _ = write_frame(
            &mut stream,
            &error_body(
                CONNECTION_REQUEST_ID,
                ErrorCode::ShutDown,
                "the server is shut down",
            ),
        );
        let _ = stream.shutdown();
        return;
    };

    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    if std::thread::Builder::new()
        .name(format!("cgp-wire-write-{conn_id}"))
        .spawn(move || writer_loop(write_half, rx))
        .is_err()
    {
        return;
    }
    inner
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(conn_id, tx.clone());
    let _entry = ConnEntry {
        inner: &inner,
        conn_id,
    };
    let _ = tx.send(WriterMsg::Frame(inner.hello.clone()));

    let send_error = |request_id: u64, code: ErrorCode, message: &str| {
        let _ = tx.send(WriterMsg::Frame(error_body(request_id, code, message)));
    };

    loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            // Clean EOF: the client hung up.  In-flight tickets still
            // resolve; their frames land in the writer queue, whose writes
            // fail harmlessly against the closed socket (Rust ignores
            // SIGPIPE, so a dead peer is an error value, not a signal).
            Ok(None) => return,
            Err(e) => {
                // An oversized length prefix (or a mid-frame I/O failure)
                // cannot be resynchronized: report and hang up.
                send_error(CONNECTION_REQUEST_ID, ErrorCode::BadFrame, &e.to_string());
                let _ = tx.send(WriterMsg::Close);
                return;
            }
        };
        let mut frame = FrameReader::new(&body);
        match frame.u8() {
            Some(KIND_SUBMIT) => {
                let Some(request_id) = frame.u64() else {
                    send_error(
                        CONNECTION_REQUEST_ID,
                        ErrorCode::BadFrame,
                        "submit frame truncated before request id",
                    );
                    continue;
                };
                let (Some(lane), Some(deadline_micros)) = (frame.u8(), frame.u64()) else {
                    send_error(request_id, ErrorCode::BadFrame, "submit header truncated");
                    continue;
                };
                let Some(priority) = decode_priority(lane, deadline_micros) else {
                    send_error(
                        request_id,
                        ErrorCode::BadFrame,
                        &format!("unknown priority lane {lane}"),
                    );
                    continue;
                };
                let data = match T::decode(frame.tail()) {
                    Ok(data) => data,
                    Err(e) => {
                        send_error(request_id, ErrorCode::BadFrame, &e.message);
                        continue;
                    }
                };
                // Non-blocking admission: wire backpressure is an error
                // frame the client can retry on, never a parked reader
                // (which would stop this connection's other traffic).
                match handle.try_submit_with(data, inner.options.clone(), priority) {
                    Ok(ticket) => {
                        let tx = tx.clone();
                        ticket.on_complete(move |outcome| {
                            let body = match outcome {
                                Ok((data, _report)) => {
                                    let mut body = Vec::with_capacity(9 + data.len() * 8);
                                    body.push(KIND_RESULT);
                                    body.extend_from_slice(&request_id.to_le_bytes());
                                    T::encode_into(&data, &mut body);
                                    body
                                }
                                Err(e) => error_body(
                                    request_id,
                                    ErrorCode::of_service_error(&e),
                                    &e.to_string(),
                                ),
                            };
                            // Enqueue only: the executor thread running
                            // this callback must never block on a socket.
                            let _ = tx.send(WriterMsg::Frame(body));
                        });
                    }
                    Err(rejected) => {
                        send_error(
                            request_id,
                            ErrorCode::of_service_error(&rejected.error),
                            &rejected.error.to_string(),
                        );
                    }
                }
            }
            Some(KIND_METRICS_REQUEST) => {
                let snapshot = inner
                    .service
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                    .map(|s| s.metrics());
                match snapshot {
                    Some(m) => {
                        let tenant = m.per_tenant.iter().find(|t| t.tenant == handle.tenant());
                        let mut body = Vec::with_capacity(1 + 9 * 8);
                        body.push(KIND_METRICS);
                        for field in [
                            m.jobs_served,
                            m.jobs_failed,
                            m.deadline_shed,
                            m.steals,
                            m.coalesced_jobs,
                            m.uptime.as_micros() as u64,
                            tenant.map_or(0, |t| t.jobs_served),
                            tenant.map_or(0, |t| t.jobs_failed),
                            tenant.map_or(0, |t| t.deadline_shed),
                        ] {
                            body.extend_from_slice(&field.to_le_bytes());
                        }
                        let _ = tx.send(WriterMsg::Frame(body));
                    }
                    None => {
                        send_error(
                            CONNECTION_REQUEST_ID,
                            ErrorCode::ShutDown,
                            &ServiceError::ShutDown.to_string(),
                        );
                    }
                }
            }
            Some(KIND_SHUTDOWN) => {
                // Drains accepted jobs (result frames flush through each
                // connection's writer queue ahead of its Close), then
                // closes every connection — including this one, whose next
                // read sees EOF.
                inner.shutdown_service();
                return;
            }
            kind => {
                send_error(
                    CONNECTION_REQUEST_ID,
                    ErrorCode::BadFrame,
                    &match kind {
                        Some(k) => format!("unknown frame kind {k}"),
                        None => "empty frame".to_string(),
                    },
                );
            }
        }
    }
}
