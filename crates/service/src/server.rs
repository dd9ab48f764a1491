//! The daemon: a TCP listener feeding a fixed worker thread pool.
//!
//! Each accepted connection is owned by one worker at a time; a client may
//! pipeline any number of framed requests over it. Workers poll their
//! socket with a short timeout so they keep observing the shared shutdown
//! flag, and a frame that *starts* arriving must finish within
//! [`ServerConfig::frame_deadline`] — a stalled or truncated frame gets a
//! typed `Protocol` response (or a dead socket) instead of a hung worker.
//!
//! Responses are written under the same deadline discipline: a peer that
//! accepts a request but refuses to drain the reply can stall a worker
//! for at most one `frame_deadline` before the connection is dropped and
//! the stall is counted (`write_timeouts` in `STATS`).
//!
//! The acceptor hands connections to workers over a *bounded* queue
//! ([`ServerConfig::accept_queue`]). When every worker is busy and the
//! queue is full, new connections are shed: they receive a one-frame
//! [`Status::Busy`] response and are closed, which keeps the daemon's
//! memory and latency bounded under overload instead of queueing without
//! limit. Sheds are counted (`sheds` in `STATS`) and well-behaved
//! clients back off and reconnect.
//!
//! Shutdown is graceful and has three triggers: the `SHUTDOWN` opcode, an
//! idle timeout ([`ServerConfig::idle_shutdown`]), and
//! [`ServerHandle::shutdown`] from the embedding process. In every case
//! the listener stops accepting, workers drain the frame they are on —
//! finishing the read *and* flushing the response — and
//! [`ServerHandle::join`] returns.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zkrownn::{Artifact, SignedClaim};
use zkrownn_ledger::{LedgerLeaf, LedgeredRegistry};

use crate::batcher::{Coalescer, CoalescerConfig};
use crate::metrics::Metrics;
use crate::protocol::{read_request_body, write_response, Request, Response, Status};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — each owns one client connection at a time, so this
    /// bounds concurrent clients.
    pub workers: usize,
    /// Coalescer tuning (batch ceiling — 1 turns coalescing off — drainer
    /// cap, poison handling).
    pub coalescer: CoalescerConfig,
    /// Exit when no request or connection has been seen for this long.
    /// `None` = run until told to stop.
    pub idle_shutdown: Option<Duration>,
    /// A frame that started must complete within this window. The same
    /// window bounds how long a response write may stall on a slow peer.
    pub frame_deadline: Duration,
    /// Accepted connections waiting for a worker beyond this count are
    /// shed with a [`Status::Busy`] frame instead of queueing unboundedly.
    pub accept_queue: usize,
    /// Socket poll interval: how quickly workers and the acceptor observe
    /// the shutdown flag.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|v| v.get() * 2)
                .unwrap_or(2)
                .max(16),
            coalescer: CoalescerConfig::default(),
            idle_shutdown: None,
            frame_deadline: Duration::from_secs(5),
            accept_queue: 128,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// State shared between the acceptor, the workers, and the handle.
struct Shared {
    shutdown: AtomicBool,
    started: Instant,
    /// Milliseconds since `started` of the last accept or completed frame.
    last_activity_ms: AtomicU64,
    metrics: Arc<Metrics>,
    coalescer: Coalescer,
    registry: Arc<LedgeredRegistry>,
    frame_deadline: Duration,
    poll_interval: Duration,
}

impl Shared {
    fn touch(&self) {
        let ms = self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        self.last_activity_ms.fetch_max(ms, Ordering::Relaxed);
    }

    fn idle_for(&self) -> Duration {
        let now = self.started.elapsed().as_millis() as u64;
        Duration::from_millis(now.saturating_sub(self.last_activity_ms.load(Ordering::Relaxed)))
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A running server: its bound address, metrics, and lifecycle control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics (shared with the workers; live).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// Asks the server to stop: the listener closes and workers exit after
    /// their current frame. Returns immediately; use [`Self::join`] to
    /// wait.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Blocks until every server thread has exited.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// [`Self::shutdown`] then [`Self::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Binds the listener and spawns the acceptor and worker threads.
///
/// The registry is shared — the embedding process may keep registering
/// circuits while the server runs (registration prepares the key, takes
/// the key map's write lock for the insert alone — in-flight verifications
/// hold no lock — and appends a leaf to the registration ledger).
pub fn serve(config: ServerConfig, registry: Arc<LedgeredRegistry>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let metrics = Arc::new(Metrics::new());
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        last_activity_ms: AtomicU64::new(0),
        metrics: Arc::clone(&metrics),
        coalescer: Coalescer::new(
            Arc::clone(registry.keys()),
            Arc::clone(&metrics),
            config.coalescer,
        ),
        registry,
        frame_deadline: config.frame_deadline,
        poll_interval: config.poll_interval,
    });

    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.accept_queue.max(1));
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let conn_rx = Arc::clone(&conn_rx);
            std::thread::Builder::new()
                .name(format!("zkrownn-worker-{i}"))
                .spawn(move || worker_loop(&shared, &conn_rx))
                .expect("spawning a worker thread failed")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        let idle_shutdown = config.idle_shutdown;
        let poll = config.poll_interval;
        std::thread::Builder::new()
            .name("zkrownn-acceptor".into())
            .spawn(move || {
                accept_loop(&listener, &shared, conn_tx, idle_shutdown, poll);
            })
            .expect("spawning the acceptor thread failed")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    conn_tx: mpsc::SyncSender<TcpStream>,
    idle_shutdown: Option<Duration>,
    poll: Duration,
) {
    loop {
        if shared.stopping() {
            break;
        }
        if let Some(idle) = idle_shutdown {
            if shared.metrics.in_flight.get() == 0 && shared.idle_for() > idle {
                shared.shutdown.store(true, Ordering::Relaxed);
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.touch();
                shared.metrics.connections.add(1);
                // workers poll with a timeout; hand them a blocking socket
                let _ = stream.set_nonblocking(false);
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(stream)) => shed(shared, stream, poll),
                    Err(mpsc::TrySendError::Disconnected(_)) => break, // no workers left
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(_) => std::thread::sleep(poll),
        }
    }
    // dropping conn_tx ends the workers' recv loops
}

/// Load shedding: every worker is busy and the accept queue is full, so
/// the connection is refused with a one-frame [`Status::Busy`] response
/// and closed. Best-effort — a peer that will not even read the `Busy`
/// frame is simply dropped.
fn shed(shared: &Shared, stream: TcpStream, poll: Duration) {
    shared.metrics.sheds.add(1);
    let _ = stream.set_write_timeout(Some(poll));
    let mut writer = &stream;
    let _ = write_response(
        &mut writer,
        &Response::error(Status::Busy, "server saturated; back off and retry"),
    );
}

fn worker_loop(shared: &Shared, conn_rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        // holding the lock while waiting is fine: exactly one idle worker
        // waits in recv, the rest queue on the mutex
        let conn = {
            let rx = conn_rx.lock().expect("connection channel poisoned");
            rx.recv()
        };
        match conn {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => return, // acceptor gone and queue drained
        }
    }
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads from a polled socket, retrying timeouts until a deadline.
/// `read_exact` over this either completes the frame or returns a typed
/// error — a worker can't be wedged by a stalled peer.
///
/// Shutdown does *not* cut a frame short: graceful drain means a request
/// that started arriving before the flag flipped still gets read,
/// dispatched, and answered (bounded by the deadline) before the worker
/// exits. The idle-phase loop in [`handle_connection`] is where the
/// shutdown flag is observed.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_poll_timeout(&e) => {
                    if Instant::now() >= self.deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "frame did not complete before the deadline",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Writes a response to a polled socket, retrying timeouts until a
/// deadline that starts at the first byte written. A slow-reading peer
/// can therefore stall a worker for at most one `frame_deadline` per
/// response instead of wedging it on a blocking write; giving up counts
/// a `write_timeouts` metric and drops the connection.
struct DeadlineWriter<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    deadline: Option<Instant>,
}

impl<'a> DeadlineWriter<'a> {
    fn new(stream: &'a TcpStream, shared: &'a Shared) -> Self {
        Self {
            stream,
            shared,
            deadline: None,
        }
    }
}

impl Write for DeadlineWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let deadline = *self
            .deadline
            .get_or_insert_with(|| Instant::now() + self.shared.frame_deadline);
        loop {
            match (&mut &*self.stream).write(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_poll_timeout(&e) => {
                    if Instant::now() >= deadline {
                        self.shared.metrics.write_timeouts.add(1);
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer did not drain the response before the deadline",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        (&mut &*self.stream).flush()
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.poll_interval));
    let _ = stream.set_nodelay(true);
    loop {
        // idle phase: wait for a frame's first byte, watching the flag
        let mut opcode = [0u8; 1];
        match (&stream).read(&mut opcode) {
            Ok(0) => return, // peer closed cleanly
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_poll_timeout(&e) => {
                if shared.stopping() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }

        // a frame has started: it must finish within the deadline
        let mut reader = DeadlineReader {
            stream: &stream,
            deadline: Instant::now() + shared.frame_deadline,
        };
        let request = match read_request_body(opcode[0], &mut reader) {
            Ok(req) => req,
            Err(e) => {
                shared.metrics.protocol_errors.add(1);
                let _ = write_response(
                    &mut DeadlineWriter::new(&stream, shared),
                    &Response::error(Status::Protocol, e.to_string()),
                );
                return; // framing lost; a fresh connection is required
            }
        };
        shared.touch();

        let mut writer = DeadlineWriter::new(&stream, shared);
        let keep_going = dispatch(shared, &mut writer, request);
        shared.touch();
        if !keep_going {
            return;
        }
    }
}

/// Handles one decoded request: computes its response, writes it once,
/// and returns whether the connection survives.
fn dispatch(shared: &Shared, writer: &mut impl Write, request: Request) -> bool {
    let metrics = &shared.metrics;
    let ok = |payload| Response {
        status: Status::Ok,
        payload,
    };
    let response = match request {
        Request::Verify(bytes) => {
            metrics.begin_verify();
            let start = Instant::now();
            let response = match SignedClaim::from_bytes(&bytes) {
                Ok(claim) => match shared.coalescer.verify(claim) {
                    Ok(()) => Response::ok(),
                    Err(e) => Response::error(Status::from_error(&e), e.to_string()),
                },
                Err(e) => Response::error(Status::MalformedClaim, e.to_string()),
            };
            metrics.end_verify(response.status, start.elapsed());
            response
        }
        Request::Stats => {
            let registry = &shared.registry;
            let json = metrics.snapshot().to_json(
                shared.coalescer.max_batch(),
                registry.len(),
                registry.ledger_size(),
            );
            ok(json.into_bytes())
        }
        Request::Root => {
            metrics.ledger_roots.add(1);
            ok(shared.registry.current_root().to_bytes())
        }
        Request::ProveMember(leaf_bytes) => {
            let leaf = LedgerLeaf::from_bytes(&leaf_bytes)
                .expect("a 64-byte buffer always decodes as a leaf");
            match shared.registry.prove_member(&leaf) {
                Some(proof) => {
                    metrics.ledger_membership_proofs.add(1);
                    ok(proof.to_bytes())
                }
                None => {
                    metrics.ledger_membership_misses.add(1);
                    Response::error(
                        Status::NotInLedger,
                        "no such (circuit, statement) registration in the ledger",
                    )
                }
            }
        }
        Request::Consistency(old_size) => match shared.registry.prove_consistency(old_size) {
            Some(proof) => {
                metrics.ledger_consistency_proofs.add(1);
                ok(proof.to_bytes())
            }
            None => {
                metrics.ledger_consistency_misses.add(1);
                Response::error(
                    Status::NotInLedger,
                    format!(
                        "old size {old_size} exceeds the current ledger size {}",
                        shared.registry.ledger_size()
                    ),
                )
            }
        },
        Request::Shutdown => {
            let _ = write_response(writer, &Response::ok());
            shared.shutdown.store(true, Ordering::Relaxed);
            return false;
        }
    };
    write_response(writer, &response).is_ok()
}
