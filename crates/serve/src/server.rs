//! The front door: a TCP listener, the router, the shed path, and the
//! daemon lifecycle.
//!
//! One connection may carry many requests — each line is routed
//! independently and answered in order. Routing is three steps:
//!
//! 1. **Validate** — protocol errors and over-size modules are answered
//!    with `error` responses (a malformed line never drops a
//!    connection).
//! 2. **Admit** — the tenant's quota decides full service vs shed; the
//!    per-request budget is clamped to the quota's cap either way.
//! 3. **Serve** — admitted requests dispatch to a worker shard through
//!    the supervisor (crash → retried once → degraded, never dropped);
//!    shed requests are answered in-daemon from the cheapest viable
//!    rung: the shared artifact store if it has the report, else a
//!    one-iteration budget solve that lands on the Steensgaard tier.
//!
//! The shed path runs the same [`analyze_request`] as `kd analyze` and
//! the workers, so a shed response is byte-identical to
//! `kd analyze --budget 1` for the same module — degraded answers are
//! still *reproducible* answers.
//!
//! # Lifecycle
//!
//! The router moves through `Accepting → Draining → Stopped`, one-way.
//! [`Server::stop_graceful`] flips the router to *draining*: requests
//! already past admission finish normally (the in-flight count is held
//! through the response write, so a drained daemon has written every
//! answer it owes), while new analysis requests are answered with a
//! typed `draining` response instead of a closed socket. `health`
//! operations are answered in every state. When the in-flight count
//! reaches zero — or the drain deadline passes — the accept loop stops,
//! remaining connections are shut down and *joined* (no detached
//! threads), workers are stopped, and the disk cache runs a recovery
//! sweep so a clean exit leaves no `.tmp` litter behind.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kaleidoscope_exec::{analyze_request, AnalyzeRequest, DiskCache};
use kaleidoscope_prng::Rng;

use crate::admission::{Admission, Decision, TenantQuota};
use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, HealthReport, Request,
    Response,
};
use crate::shard::{ShardError, ShardMode};
use crate::supervisor::{BreakerConfig, BreakerState, ShardHealth, Supervisor};
use crate::worker::wire_request;

/// The solve budget used for shed responses: one worklist iteration,
/// which drives every cell to the Steensgaard rung — the cheap,
/// near-linear unification tier.
pub const SHED_BUDGET: usize = 1;

/// How often the accept loop polls for stop/reap between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How often the drain loop re-checks the in-flight count.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Daemon configuration.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Shared artifact store, if configured.
    pub cache: Option<Arc<DiskCache>>,
    /// How worker shards are materialized.
    pub mode: ShardMode,
    /// Shards per tenant.
    pub shards_per_tenant: usize,
    /// Quota applied to every tenant.
    pub quota: TenantQuota,
    /// Executor threads for in-daemon shed solves.
    pub shed_jobs: usize,
    /// Per-slot circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Default drain deadline for [`Server::stop`].
    pub drain: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache: None,
            mode: ShardMode::Thread(crate::worker::WorkerOptions::default()),
            shards_per_tenant: 2,
            quota: TenantQuota::default(),
            shed_jobs: 1,
            breaker: BreakerConfig::default(),
            drain: Duration::from_secs(5),
        }
    }
}

/// Router traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterStats {
    /// Requests admitted to a worker shard.
    pub admitted: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests degraded after their shard failed (crash or deadline).
    pub degraded_after_failure: u64,
    /// Error responses issued.
    pub errors: u64,
    /// Requests rejected with a `draining` response.
    pub draining_rejected: u64,
    /// Requests short-circuited by an open circuit breaker.
    pub breaker_short_circuits: u64,
}

/// Lifecycle states, stored as an `AtomicU8` on the router.
const STATE_ACCEPTING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

/// Routes requests: admission, dispatch, shed. Independent of the
/// listener so tests and the bench can drive it directly.
pub struct Router {
    supervisor: Supervisor,
    admission: Admission,
    cache: Option<Arc<DiskCache>>,
    shed_jobs: usize,
    state: AtomicU8,
    in_flight: AtomicUsize,
    degraded_after_failure: AtomicU64,
    errors: AtomicU64,
    draining_rejected: AtomicU64,
    breaker_short_circuits: AtomicU64,
}

/// RAII in-flight marker: alive from request arrival through the
/// response write, so the drain loop's `in_flight() == 0` means every
/// accepted request has been fully *answered*, not merely routed.
pub struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Router {
    /// Build the routing stack for `config`.
    pub fn new(config: &ServeConfig) -> Router {
        Router {
            supervisor: Supervisor::new(config.mode.clone(), config.shards_per_tenant)
                .with_breaker(config.breaker),
            admission: Admission::new(config.quota.clone()),
            cache: config.cache.clone(),
            shed_jobs: config.shed_jobs,
            state: AtomicU8::new(STATE_ACCEPTING),
            in_flight: AtomicUsize::new(0),
            degraded_after_failure: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            draining_rejected: AtomicU64::new(0),
            breaker_short_circuits: AtomicU64::new(0),
        }
    }

    /// Traffic counters (for the bench's shed-rate and the smoke test).
    pub fn stats(&self) -> RouterStats {
        let (admitted, shed) = self.admission.counters();
        RouterStats {
            admitted,
            shed,
            degraded_after_failure: self.degraded_after_failure.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            draining_rejected: self.draining_rejected.load(Ordering::Relaxed),
            breaker_short_circuits: self.breaker_short_circuits.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant shard health, from the supervisor.
    pub fn health(&self) -> Vec<(String, Vec<ShardHealth>)> {
        self.supervisor.health()
    }

    /// Current lifecycle state name (`accepting`/`draining`/`stopped`).
    pub fn state(&self) -> &'static str {
        match self.state.load(Ordering::Acquire) {
            STATE_ACCEPTING => "accepting",
            STATE_DRAINING => "draining",
            _ => "stopped",
        }
    }

    /// Requests currently being answered (including the response write).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Flip to draining: analysis requests from here on get a typed
    /// `draining` response; in-flight requests are unaffected.
    pub fn begin_drain(&self) {
        let _ = self.state.compare_exchange(
            STATE_ACCEPTING,
            STATE_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Mark the lifecycle terminal (after workers stopped).
    pub fn mark_stopped(&self) {
        self.state.store(STATE_STOPPED, Ordering::Release);
    }

    /// Register one in-flight request; the count drops when the guard
    /// does. The connection loop holds the guard through the write.
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlightGuard(&self.in_flight)
    }

    /// Stop all worker shards (drain's final step).
    pub fn shutdown_workers(&self) {
        self.supervisor.shutdown();
    }

    /// Run the disk cache's recovery sweep, returning cumulative
    /// `(tmp_swept, quarantined)`. A no-op without a cache.
    pub fn recover_cache(&self) -> (u64, u64) {
        match self.cache.as_deref() {
            Some(c) => {
                c.recover();
                let s = c.stats();
                (s.tmp_swept, s.quarantined)
            }
            None => (0, 0),
        }
    }

    /// The daemon-state snapshot behind the `health` operation.
    pub fn health_report(&self) -> HealthReport {
        let stats = self.stats();
        let health = self.supervisor.health();
        let mut breakers_open = 0u64;
        let mut tenants = String::new();
        for (name, slots) in &health {
            if !tenants.is_empty() {
                tenants.push_str("; ");
            }
            let open = slots
                .iter()
                .filter(|s| s.breaker == BreakerState::Open)
                .count();
            breakers_open += open as u64;
            let served: u64 = slots.iter().map(|s| s.served).sum();
            let restarts: u64 = slots.iter().map(|s| s.restarts).sum();
            let trips: u64 = slots.iter().map(|s| s.breaker_trips).sum();
            let _ = std::fmt::Write::write_fmt(
                &mut tenants,
                format_args!(
                    "{name} slots={} served={served} restarts={restarts} trips={trips} open={open}",
                    slots.len()
                ),
            );
        }
        let (cache_tmp_swept, cache_quarantined) = match self.cache.as_deref() {
            Some(c) => {
                let s = c.stats();
                (s.tmp_swept, s.quarantined)
            }
            None => (0, 0),
        };
        HealthReport {
            state: self.state().to_string(),
            in_flight: self.in_flight() as u64,
            admitted: stats.admitted,
            shed: stats.shed,
            draining_rejected: stats.draining_rejected,
            breaker_short_circuits: stats.breaker_short_circuits,
            breakers_open,
            tenants,
            cache_tmp_swept,
            cache_quarantined,
        }
    }

    /// Route one already-decoded request.
    pub fn route(&self, req: &Request) -> Response {
        // Health is a control operation: answered in every lifecycle
        // state, so operators can watch a drain from the outside.
        if req.op.as_deref() == Some("health") {
            return Response::Health {
                id: req.id.clone(),
                report: self.health_report(),
            };
        }
        if self.state.load(Ordering::Acquire) != STATE_ACCEPTING {
            self.draining_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::Draining { id: req.id.clone() };
        }
        let quota = self.admission.quota();
        if let Some(m) = &req.module {
            if m.len() > quota.max_module_bytes {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    &req.id,
                    format!(
                        "module is {} bytes; tenant quota admits at most {}",
                        m.len(),
                        quota.max_module_bytes
                    ),
                );
            }
        }
        let mut effective = req.clone();
        effective.budget = quota.effective_budget(req.budget);
        let deadline = Duration::from_millis(quota.deadline_ms);
        let resp = match self.admission.admit(&req.tenant) {
            Decision::Admit(_permit) => match self.supervisor.dispatch(&effective, deadline) {
                Ok(resp) => resp,
                Err(ShardError::BreakerOpen) => {
                    // Every slot's breaker is open: answer from the
                    // ladder without touching a worker, tagged so
                    // clients (and the soak) can tell this rung apart.
                    self.breaker_short_circuits.fetch_add(1, Ordering::Relaxed);
                    self.shed_response(&effective, Some("breaker-open"))
                }
                Err(_why) => {
                    // Worker crashed twice or missed its deadline: the
                    // ladder owes the client an answer anyway.
                    self.degraded_after_failure.fetch_add(1, Ordering::Relaxed);
                    self.shed_response(&effective, None)
                }
            },
            Decision::Shed => self.shed_response(&effective, None),
        };
        if matches!(resp, Response::Error { .. }) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        resp
    }

    /// Route one raw line (the per-connection loop's body).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match decode_request(line) {
            Ok(req) => self.route(&req),
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Response::error("?", e.to_string())
            }
        };
        encode_response(&response)
    }

    /// Answer without a worker: cached artifact if present, else an
    /// in-daemon Steensgaard-tier solve under [`SHED_BUDGET`]. A
    /// `tier_override` replaces the tier tag (the breaker short-circuit
    /// path labels its answers `breaker-open`); the report bytes are
    /// untouched either way.
    fn shed_response(&self, req: &Request, tier_override: Option<&str>) -> Response {
        let answer = wire_request(req).and_then(|wire| {
            analyze_request(&AnalyzeRequest {
                jobs: self.shed_jobs,
                frontend_threads: 0,
                budget: Some(SHED_BUDGET),
                cache: self.cache.as_ref(),
                // Its solve is a budget artifact: nothing is published, no
                // warm start is tried, and no tenant head moves.
                publish: false,
                warm_from: None,
                tenant: None,
                ..wire
            })
        });
        Response::answer(&req.id, answer, tier_override)
    }
}

/// What a graceful shutdown accomplished.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// How long the drain waited for in-flight requests.
    pub waited: Duration,
    /// Whether the in-flight count reached zero before the deadline.
    pub drained: bool,
    /// Connection threads joined at shutdown.
    pub connections_joined: usize,
    /// Requests answered `draining` over the daemon's lifetime.
    pub draining_rejected: u64,
    /// `.tmp` orphans swept by the final cache recovery pass.
    pub cache_tmp_swept: u64,
    /// Corrupt artifacts quarantined by the final cache recovery pass.
    pub cache_quarantined: u64,
}

/// One registered connection: its thread, a handle to force the socket
/// closed, and a completion flag for cheap reaping.
struct Conn {
    handle: std::thread::JoinHandle<()>,
    stream: Option<TcpStream>,
    done: Arc<AtomicBool>,
}

/// A running daemon: the bound address, the router, the accept loop,
/// and a joinable registry of live connections.
pub struct Server {
    addr: SocketAddr,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
    drain: Duration,
}

impl Server {
    /// Bind and start serving in background threads. Returns once the
    /// socket is listening, so `addr()` is immediately connectable.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // Non-blocking accept lets the loop notice the stop flag without
        // the old self-connect wakeup (which raced against real clients
        // grabbing the wakeup slot).
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let drain = config.drain;
        let router = Arc::new(Router::new(&config));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_router = router.clone();
        let accept_stop = stop.clone();
        let accept_conns = conns.clone();
        let accept_thread = std::thread::spawn(move || loop {
            if accept_stop.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // The connection itself reads blocking; only the
                    // listener polls.
                    let _ = stream.set_nonblocking(false);
                    let done = Arc::new(AtomicBool::new(false));
                    let force_handle = stream.try_clone().ok();
                    let router = accept_router.clone();
                    let conn_done = done.clone();
                    let handle = std::thread::spawn(move || {
                        let _ = serve_connection(&router, stream);
                        conn_done.store(true, Ordering::Release);
                    });
                    accept_conns
                        .lock()
                        .expect("connection registry poisoned")
                        .push(Conn {
                            handle,
                            stream: force_handle,
                            done,
                        });
                    reap_finished(&accept_conns);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    reap_finished(&accept_conns);
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        });
        Ok(Server {
            addr,
            router,
            stop,
            accept_thread: Some(accept_thread),
            conns,
            drain,
        })
    }

    /// The bound address (resolved port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router, for in-process stats and health.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Graceful shutdown with the config's default drain deadline.
    pub fn stop(mut self) {
        let _ = self.shutdown_graceful(self.drain);
    }

    /// Graceful shutdown: drain in-flight requests (up to `drain`),
    /// answer late arrivals with `draining`, stop the accept loop, join
    /// every connection thread, stop the workers, and run the cache
    /// recovery sweep. Idempotent with [`Drop`] (which forces a
    /// zero-deadline version if this was never called).
    pub fn stop_graceful(mut self, drain: Duration) -> DrainReport {
        self.shutdown_graceful(drain)
    }

    fn shutdown_graceful(&mut self, drain: Duration) -> DrainReport {
        let start = Instant::now();
        self.router.begin_drain();
        while self.router.in_flight() > 0 && start.elapsed() < drain {
            std::thread::sleep(DRAIN_POLL);
        }
        let drained = self.router.in_flight() == 0;
        let waited = start.elapsed();
        // Stop accepting. Late connects now get connection-refused; the
        // window where they got typed `draining` answers is over.
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Join every connection thread. Sockets are shut down first so
        // a client holding an idle keep-alive connection (or one past
        // the drain deadline) unblocks its reader instead of pinning
        // the join forever.
        let remaining: Vec<Conn> = {
            let mut guard = self.conns.lock().expect("connection registry poisoned");
            std::mem::take(&mut *guard)
        };
        let connections_joined = remaining.len();
        for conn in &remaining {
            if !conn.done.load(Ordering::Acquire) {
                if let Some(s) = &conn.stream {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
        for conn in remaining {
            let _ = conn.handle.join();
        }
        self.router.shutdown_workers();
        let (cache_tmp_swept, cache_quarantined) = self.router.recover_cache();
        self.router.mark_stopped();
        DrainReport {
            waited,
            drained,
            connections_joined,
            draining_rejected: self.router.stats().draining_rejected,
            cache_tmp_swept,
            cache_quarantined,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            let _ = self.shutdown_graceful(Duration::ZERO);
        }
    }
}

/// Join connection threads that have already finished, so a long-lived
/// daemon doesn't accumulate one zombie entry per past connection.
fn reap_finished(conns: &Mutex<Vec<Conn>>) {
    let finished: Vec<Conn> = {
        let mut guard = conns.lock().expect("connection registry poisoned");
        let mut live = Vec::with_capacity(guard.len());
        let mut done = Vec::new();
        for conn in guard.drain(..) {
            if conn.done.load(Ordering::Acquire) {
                done.push(conn);
            } else {
                live.push(conn);
            }
        }
        *guard = live;
        done
    };
    for conn in finished {
        let _ = conn.handle.join();
    }
}

fn serve_connection(router: &Router, stream: TcpStream) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    for line in BufReader::new(stream).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        // The in-flight guard spans decode→route→write→flush: a drain
        // that observes zero in-flight knows every answer hit the wire.
        let _in_flight = router.begin_request();
        writeln!(writer, "{}", router.handle_line(&line))?;
        writer.flush()?;
    }
    Ok(())
}

/// Why a client-side request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Could not connect (refused, unreachable, bad address, or connect
    /// timeout). Safe to retry — nothing reached the server.
    Connect(String),
    /// The connection was made but a read or write timed out.
    /// Analysis requests are idempotent (content-fingerprint-keyed), so
    /// retrying is safe.
    Timeout(String),
    /// The server closed the connection without answering (e.g. it was
    /// stopped after accepting but before reading the request). No
    /// response arrived, so retrying is safe.
    ClosedEarly,
    /// A non-timeout I/O failure mid-exchange.
    Io(String),
    /// The server answered with bytes that don't decode as a response.
    Protocol(String),
    /// The server is draining for shutdown and declined the request.
    Draining,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Connect(why) => write!(f, "connect: {why}"),
            RequestError::Timeout(why) => write!(f, "timed out: {why}"),
            RequestError::ClosedEarly => {
                write!(f, "server closed the connection without answering")
            }
            RequestError::Io(why) => write!(f, "io: {why}"),
            RequestError::Protocol(why) => write!(f, "bad response: {why}"),
            RequestError::Draining => write!(f, "server is draining"),
        }
    }
}

impl RequestError {
    /// Whether a retry can help. Connect failures (including a
    /// connection torn down before any response byte), timeouts, and
    /// unanswered closes qualify: all leave the request unanswered, and
    /// requests are idempotent, so re-sending risks duplicate work but
    /// never a wrong answer. Protocol errors and `draining` are answers.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RequestError::Connect(_) | RequestError::Timeout(_) | RequestError::ClosedEarly
        )
    }
}

/// Client-side knobs for [`request_over_tcp_with`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// TCP connect timeout (zero = OS default, unbounded-ish).
    pub connect_timeout: Duration,
    /// Read/write timeout once connected (zero = block forever).
    pub io_timeout: Duration,
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Base of the exponential retry backoff (`base << attempt`, plus
    /// up-to-one-base of seeded jitter).
    pub backoff_base: Duration,
    /// Seed for the jitter PRNG — fixed seed, reproducible schedule.
    pub seed: u64,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(120),
            retries: 0,
            backoff_base: Duration::from_millis(50),
            seed: 0x6b64, // "kd"
        }
    }
}

/// Client side of one request: connect, send, await the response, with
/// timeouts and (optionally) seeded-jitter exponential-backoff retries.
/// Used by `kd request`, the e2e tests, and the load bench.
pub fn request_over_tcp_with(
    addr: &str,
    req: &Request,
    opts: &ClientOptions,
) -> Result<Response, RequestError> {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut attempt = 0u32;
    loop {
        match request_once(addr, req, opts) {
            Ok(Response::Draining { .. }) => return Err(RequestError::Draining),
            Ok(resp) => return Ok(resp),
            Err(e) if attempt < opts.retries && e.is_retryable() => {
                let base = opts
                    .backoff_base
                    .saturating_mul(1u32 << attempt.min(6))
                    .min(Duration::from_secs(5));
                let jitter = if base.is_zero() {
                    Duration::ZERO
                } else {
                    Duration::from_nanos(rng.next_u64() % base.as_nanos().max(1) as u64)
                };
                std::thread::sleep(base + jitter);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn io_error(stage: &str, e: std::io::Error) -> RequestError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            RequestError::Timeout(format!("{stage}: {e}"))
        }
        // The connection died before any response byte — a stopping
        // server tears down handshakes it never read. Same retry story
        // as a refused connect: the request went unanswered.
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::NotConnected => RequestError::Connect(format!("{stage}: {e}")),
        _ => RequestError::Io(format!("{stage}: {e}")),
    }
}

fn request_once(addr: &str, req: &Request, opts: &ClientOptions) -> Result<Response, RequestError> {
    let target = addr
        .to_socket_addrs()
        .map_err(|e| RequestError::Connect(format!("`{addr}`: {e}")))?
        .next()
        .ok_or_else(|| RequestError::Connect(format!("`{addr}`: no usable address")))?;
    let stream = if opts.connect_timeout.is_zero() {
        TcpStream::connect(target)
    } else {
        TcpStream::connect_timeout(&target, opts.connect_timeout)
    }
    .map_err(|e| RequestError::Connect(format!("`{addr}`: {e}")))?;
    if !opts.io_timeout.is_zero() {
        stream
            .set_read_timeout(Some(opts.io_timeout))
            .map_err(|e| io_error("configure", e))?;
        stream
            .set_write_timeout(Some(opts.io_timeout))
            .map_err(|e| io_error("configure", e))?;
    }
    let mut writer = stream
        .try_clone()
        .map_err(|e| RequestError::Io(e.to_string()))?;
    writeln!(writer, "{}", encode_request(req)).map_err(|e| io_error("send", e))?;
    writer.flush().map_err(|e| io_error("send", e))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| io_error("receive", e))?;
    if line.is_empty() {
        return Err(RequestError::ClosedEarly);
    }
    decode_response(line.trim_end()).map_err(|e| RequestError::Protocol(e.to_string()))
}

/// Back-compat single-shot client: default timeouts, no retries, errors
/// stringified. A `draining` answer surfaces as the typed response, not
/// an error, so existing callers can match on it.
pub fn request_over_tcp(addr: &str, req: &Request) -> Result<Response, String> {
    match request_once(addr, req, &ClientOptions::default()) {
        Ok(resp) => Ok(resp),
        Err(e) => Err(e.to_string()),
    }
}
