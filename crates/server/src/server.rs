//! The TCP server: accept loop, session protocol, and graceful
//! shutdown.
//!
//! ## Session lifecycle
//!
//! Each accepted connection gets its own session thread. A session
//! reads newline-delimited JSON requests and answers each one with
//! one or more JSONL frames:
//!
//! - `solve` → either a single `error` frame, or
//!   `header · round* · summary` — streamed from the cache on a hit,
//!   computed on a worker thread on a miss. Replies for equal specs
//!   are byte-identical by construction.
//! - `stats` → one `stats` frame with the server counters.
//! - `metrics` → one `metrics` frame: the full observability snapshot
//!   (latency histograms split by outcome, queue and cache gauges,
//!   per-engine run counts) as flat Prometheus-style fields.
//! - `shutdown` → one `bye` frame, then the whole server drains and
//!   exits.
//!
//! A solve request carrying `"trace": true` additionally gets one
//! `trace` frame *after* its reply stream — the phase wall-clock
//! breakdown of that specific request. The trace flag is not part of
//! the cache key and the trace frame is never cached, so the reply
//! frames proper stay byte-identical to an untraced request.
//!
//! Malformed requests get an `error` frame and the session *stays
//! open*; oversized lines and idle timeouts get a terminal `error`
//! frame and a close. Sockets use a short read timeout as a tick so
//! sessions notice server shutdown and idle expiry promptly.
//!
//! ## Crash safety
//!
//! Worker jobs run under `catch_unwind`: a panicking run becomes a
//! typed `worker-panicked` error frame (code 212) on the requesting
//! session, the worker thread survives at full pool width, and the
//! pending cache slot is released so a resubmit re-executes instead of
//! wedging. With [`ServerConfig::solve_timeout`] set, runs that
//! outlive the deadline are cooperatively cancelled at a round
//! boundary (the driver's cancel flag) and answered with a typed
//! `solve-timeout` frame (code 213); timed-out and panicked runs are
//! never cached, so only pure-function-of-the-spec bytes ever enter
//! the replay path.

use crate::cache::{Lookup, ReportCache};
use crate::error::ServerError;
use crate::metrics::{Outcome, ServerObs};
use crate::pool::WorkerPool;
use crate::registry;
use crate::request::{parse_request, Request};
use gossip_sim::export::{metrics_line, trace_line, Frame, MetricsSnapshot, ObjBuilder, WireError};
use gossip_sim::ObsSummary;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// How often blocked reads wake up to check shutdown and idle expiry.
const READ_TICK: Duration = Duration::from_millis(200);

/// Tunables for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing solve runs.
    pub workers: usize,
    /// Pending solve jobs admitted before submitters block
    /// (backpressure).
    pub queue_capacity: usize,
    /// Maximum cached reply streams (LRU beyond this).
    pub cache_capacity: usize,
    /// Sessions idle longer than this are closed with an
    /// `idle-timeout` error frame.
    pub idle_timeout: Duration,
    /// Rayon threads per worker for the round engine's parallel node
    /// stepping (default 1 = sequential engine). Each worker owns a
    /// private pool of this width, so total engine threads scale as
    /// `workers × engine_threads`; replies are byte-identical at any
    /// setting by the engine's seq/par determinism contract.
    pub engine_threads: usize,
    /// Per-request solve deadline. A run still executing when it
    /// elapses is cooperatively cancelled at its next round boundary
    /// and the request answered with a `solve-timeout` error frame
    /// (code 213). `None` (the default) lets runs take as long as
    /// they need.
    pub solve_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
            idle_timeout: Duration::from_secs(30),
            engine_threads: 1,
            solve_timeout: None,
        }
    }
}

/// Counter snapshot reported by the `stats` command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// Cache hits (replies replayed without running a driver).
    pub hits: u64,
    /// Cache misses (each caused exactly one computation).
    pub misses: u64,
    /// Driver executions performed. `hits` never move this counter —
    /// the gap between `requests` and `runs` is the cache working.
    pub runs: u64,
    /// Request lines accepted (parsed or not).
    pub requests: u64,
    /// Ready entries currently cached.
    pub cache_entries: u64,
    /// Currently connected sessions.
    pub open_sessions: u64,
    /// Live worker threads. Stays at the configured width even after
    /// panics: jobs are unwind-contained, workers never die to them.
    pub workers: u64,
    /// Worker jobs that panicked (each answered with a typed
    /// `worker-panicked` frame; the panic never killed a worker).
    pub worker_panics: u64,
    /// Solve jobs submitted but not yet picked up by a worker (a job
    /// leaves the count when a worker starts it, so running jobs are
    /// not included).
    pub queue_depth: u64,
    /// Total bytes held by cached reply streams.
    pub cache_bytes: u64,
}

struct Shared {
    cache: Arc<ReportCache>,
    pool: WorkerPool,
    obs: ServerObs,
    shutdown: AtomicBool,
    runs: AtomicU64,
    requests: AtomicU64,
    open_sessions: AtomicU64,
    worker_panics: AtomicU64,
    idle_timeout: Duration,
    solve_timeout: Option<Duration>,
    addr: SocketAddr,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            runs: self.runs.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            cache_entries: self.cache.len() as u64,
            open_sessions: self.open_sessions.load(Ordering::Relaxed),
            workers: self.pool.live_workers() as u64,
            // The job-boundary catch counts panics with their payload;
            // the pool's own catch is a backstop that should stay 0.
            worker_panics: self.worker_panics.load(Ordering::Relaxed) + self.pool.panics(),
            queue_depth: self.obs.queue_depth(),
            cache_bytes: self.cache.bytes_total(),
        }
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let mut snap = MetricsSnapshot {
            requests: stats.requests,
            hits: stats.hits,
            misses: stats.misses,
            runs: stats.runs,
            open_sessions: stats.open_sessions,
            workers: stats.workers,
            worker_panics: stats.worker_panics,
            cache_entries: stats.cache_entries,
            cache_bytes: stats.cache_bytes,
            cache_evictions: self.cache.evictions(),
            ..MetricsSnapshot::default()
        };
        self.obs.fill_snapshot(&mut snap);
        snap
    }

    /// Flips the shutdown flag and pokes the accept loop awake with a
    /// throwaway self-connection.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// The gossip-as-a-service server. [`bind`](Server::bind) it and keep
/// the returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting sessions on a background thread.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ReportCache::new(config.cache_capacity),
            pool: WorkerPool::new(config.workers, config.queue_capacity, config.engine_threads),
            obs: ServerObs::new(),
            shutdown: AtomicBool::new(false),
            runs: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            open_sessions: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            idle_timeout: config.idle_timeout,
            solve_timeout: config.solve_timeout,
            addr,
        });
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("lpt-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// Owner's handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot (same numbers the `stats` command
    /// reports).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Requests a graceful shutdown: stop accepting, drain sessions
    /// and queued runs. Does not block; follow with
    /// [`wait`](ServerHandle::wait).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has fully drained and all its threads
    /// have exited.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        sessions.retain(|h| !h.is_finished());
        let shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("lpt-session".to_string())
            .spawn(move || {
                shared.open_sessions.fetch_add(1, Ordering::Relaxed);
                session_loop(&shared, stream);
                shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
            });
        match handle {
            Ok(h) => sessions.push(h),
            Err(_) => continue,
        }
    }
    for h in sessions {
        let _ = h.join();
    }
    // Sessions are gone; drain any still-queued runs and stop the
    // workers. (A queued job can outlive its session if the client
    // disconnected mid-run.)
    shared.pool.shutdown();
}

fn write_error(stream: &mut TcpStream, err: &ServerError) -> io::Result<()> {
    let line = Frame::Error(WireError::from_error(err)).to_line();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

fn stats_line(stats: &ServerStats) -> String {
    ObjBuilder::new()
        .str("frame", "stats")
        .u64("hits", stats.hits)
        .u64("misses", stats.misses)
        .u64("runs", stats.runs)
        .u64("requests", stats.requests)
        .u64("cache_entries", stats.cache_entries)
        .u64("open_sessions", stats.open_sessions)
        .u64("workers", stats.workers)
        .u64("worker_panics", stats.worker_panics)
        // Appended after the original fields so historical readers that
        // pick fields by name keep working and the pinned field-order
        // test only extends.
        .u64("queue_depth", stats.queue_depth)
        .u64("cache_bytes", stats.cache_bytes)
        .finish()
}

enum After {
    KeepOpen,
    Close,
}

/// What a worker job reports back to its session.
enum JobResult {
    /// The run (or its typed error rendering) finished; bytes are a
    /// pure function of the spec and safe to cache. The observational
    /// extras (recorder summary, queue wait) ride alongside and never
    /// touch the cached bytes.
    Done {
        bytes: Vec<u8>,
        obs: Option<Box<ObsSummary>>,
        queue_us: u64,
    },
    /// The job panicked; `catch_unwind` contained it. Not cacheable —
    /// nothing was rendered.
    Panicked(String),
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn session_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    loop {
        // Serve every complete line already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            last_activity = Instant::now();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            match handle_line(shared, &mut stream, line) {
                Ok(After::KeepOpen) => {}
                Ok(After::Close) | Err(_) => return,
            }
        }
        if buf.len() > MAX_REQUEST_LINE {
            let _ = write_error(
                &mut stream,
                &ServerError::RequestTooLarge {
                    limit: MAX_REQUEST_LINE,
                },
            );
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = write_error(&mut stream, &ServerError::ShuttingDown);
                    return;
                }
                if last_activity.elapsed() >= shared.idle_timeout {
                    let _ = write_error(
                        &mut stream,
                        &ServerError::IdleTimeout {
                            millis: shared.idle_timeout.as_millis() as u64,
                        },
                    );
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn handle_line(shared: &Arc<Shared>, stream: &mut TcpStream, line: &str) -> io::Result<After> {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(wire_err) => {
            // Bad requests are survivable: answer with the typed error
            // and keep the session open.
            shared.obs.record_error();
            let line = Frame::Error(wire_err).to_line();
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
            return Ok(After::KeepOpen);
        }
    };
    match request {
        Request::Stats => {
            stream.write_all(stats_line(&shared.stats()).as_bytes())?;
            stream.write_all(b"\n")?;
            Ok(After::KeepOpen)
        }
        Request::Shutdown => {
            stream.write_all(b"{\"frame\":\"bye\"}\n")?;
            shared.begin_shutdown();
            Ok(After::Close)
        }
        Request::Metrics => {
            stream.write_all(metrics_line(&shared.metrics_snapshot()).as_bytes())?;
            stream.write_all(b"\n")?;
            Ok(After::KeepOpen)
        }
        Request::Solve { key, trace } => {
            let started = Instant::now();
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.obs.record_error();
                write_error(stream, &ServerError::ShuttingDown)?;
                return Ok(After::Close);
            }
            let (bytes, outcome, run_obs, queue_us) = match shared.cache.lookup(&key) {
                Lookup::Hit { bytes, waited } => {
                    // A plain hit replays instantly; a waited hit spent
                    // its wall time blocked on someone else's run. The
                    // latency histograms keep them apart.
                    let outcome = if waited { Outcome::Wait } else { Outcome::Hit };
                    (bytes, outcome, None, 0)
                }
                Lookup::Miss(guard) => {
                    let (tx, rx) = mpsc::channel();
                    let job_shared = shared.clone();
                    let job_key = key.clone();
                    let engine_name = key.engine.name();
                    let cancel = Arc::new(AtomicBool::new(false));
                    let job_cancel = cancel.clone();
                    let submitted = Instant::now();
                    shared.obs.job_submitted();
                    let accepted = shared.pool.execute(move || {
                        job_shared.obs.job_started();
                        let queued = submitted.elapsed();
                        let run_started = Instant::now();
                        // Contain panics at the job boundary so the
                        // session gets a typed frame (with the panic
                        // message) instead of a dead channel, and the
                        // worker keeps draining the queue.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            registry::execute_with_options(&job_key, Some(job_cancel), trace)
                        }));
                        job_shared
                            .obs
                            .record_job(micros(queued), micros(run_started.elapsed()));
                        let message = match result {
                            Ok(outcome) => {
                                if outcome.ran_driver {
                                    job_shared.runs.fetch_add(1, Ordering::Relaxed);
                                    job_shared.obs.record_engine_run(&engine_name);
                                }
                                JobResult::Done {
                                    bytes: outcome.bytes,
                                    obs: outcome.obs.map(Box::new),
                                    queue_us: micros(queued),
                                }
                            }
                            Err(payload) => {
                                job_shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                                JobResult::Panicked(panic_message(payload.as_ref()))
                            }
                        };
                        let _ = tx.send(message);
                    });
                    if !accepted {
                        // The job never entered the queue: undo the
                        // submit so the depth gauge stays balanced.
                        // Guard drops here, releasing the pending slot.
                        shared.obs.job_started();
                        shared.obs.record_error();
                        write_error(stream, &ServerError::ShuttingDown)?;
                        return Ok(After::Close);
                    }
                    let received = match shared.solve_timeout {
                        Some(deadline) => rx.recv_timeout(deadline),
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    match received {
                        Ok(JobResult::Done {
                            bytes,
                            obs,
                            queue_us,
                        }) => (guard.fulfill(bytes), Outcome::Cold, obs, queue_us),
                        Ok(JobResult::Panicked(detail)) => {
                            // Guard drops unfulfilled: the pending slot
                            // is released and any waiter is promoted to
                            // re-run the key — no wedge.
                            shared.obs.record_error();
                            shared
                                .obs
                                .record_latency(Outcome::Error, micros(started.elapsed()));
                            write_error(stream, &ServerError::WorkerPanicked { detail })?;
                            return Ok(After::KeepOpen);
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            // Ask the driver to stop at its next round
                            // boundary; its cancelled reply goes
                            // nowhere (rx drops below) and is never
                            // cached — timing is not part of the spec.
                            cancel.store(true, Ordering::Relaxed);
                            shared.obs.record_error();
                            shared
                                .obs
                                .record_latency(Outcome::Error, micros(started.elapsed()));
                            let millis = shared.solve_timeout.map_or(0, |d| d.as_millis() as u64);
                            write_error(stream, &ServerError::SolveTimeout { millis })?;
                            return Ok(After::KeepOpen);
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            shared.obs.record_error();
                            shared
                                .obs
                                .record_latency(Outcome::Error, micros(started.elapsed()));
                            write_error(
                                stream,
                                &ServerError::Internal("worker died mid-run".to_string()),
                            )?;
                            return Ok(After::KeepOpen);
                        }
                    }
                }
            };
            stream.write_all(&bytes)?;
            let wall_us = micros(started.elapsed());
            shared.obs.record_latency(outcome, wall_us);
            if trace {
                // Appended after the (possibly cached) reply bytes and
                // never cached itself, so the reply proper stays
                // byte-identical to an untraced request.
                let line = trace_line(outcome.name(), wall_us, queue_us, run_obs.as_deref());
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
            }
            Ok(After::KeepOpen)
        }
    }
}

// Unit tests for the pure helpers; end-to-end behaviour (sessions,
// cache, shutdown) is covered by the crate's integration tests.
#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::export::Json;

    #[test]
    fn stats_line_is_parseable_json_with_fixed_fields() {
        let line = stats_line(&ServerStats {
            hits: 1,
            misses: 2,
            runs: 3,
            requests: 4,
            cache_entries: 5,
            open_sessions: 6,
            workers: 7,
            worker_panics: 8,
            queue_depth: 9,
            cache_bytes: 10,
        });
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("frame").and_then(Json::as_str), Some("stats"));
        assert_eq!(v.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("open_sessions").and_then(Json::as_u64), Some(6));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("worker_panics").and_then(Json::as_u64), Some(8));
        // The PR-10 additions ride at the end of the frame: new fields
        // append, existing fields never move.
        assert_eq!(v.get("queue_depth").and_then(Json::as_u64), Some(9));
        assert_eq!(v.get("cache_bytes").and_then(Json::as_u64), Some(10));
        let panics_at = line.find("worker_panics").unwrap();
        assert!(
            line.find("queue_depth").unwrap() > panics_at
                && line.find("cache_bytes").unwrap() > line.find("queue_depth").unwrap(),
            "new stats fields must append after the historical ones"
        );
    }

    #[test]
    fn panic_messages_extract_str_and_string_payloads() {
        let p = catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p = catch_unwind(|| panic!("{}", String::from("dynamic"))).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "dynamic");
        let p = catch_unwind(|| std::panic::panic_any(42_u8)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
