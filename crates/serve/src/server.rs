//! The resident verification server.
//!
//! One process owns one persistent [`Store`] and one warm solver cache and
//! serves any number of clients over localhost TCP:
//!
//! * the **connection handler** (one thread per client) compiles each
//!   submitted job and content-addresses it; a store hit is answered
//!   immediately — no queue, no executor, just `Store::load_report` — and
//!   only misses enter the scheduler;
//! * the **executor pool** pops misses cost-first (see [`crate::scheduler`])
//!   and runs them through the same work-stealing driver the batch API
//!   uses, publishing live counters through [`overify::JobProgress`];
//! * the **progress poller** samples every running job on a fixed tick,
//!   streams changed counters to the owning client, and reaps remote
//!   leases that blew their deadline (the subtree goes back to its
//!   frontier; the worker's late frames are ignored);
//! * the **log tailer** folds solver verdicts that *other* processes
//!   appended to the shared store into this daemon's warm cache, so a
//!   fleet of daemons on one store path converges without restarts;
//! * after every executed job the observed cost is recorded back into the
//!   store (scheduling feedback) and the solver-cache delta is persisted,
//!   so the *next* client — or the next process — starts warmer.
//!
//! All writes to one client socket are serialized through a per-connection
//! writer thread, so pipelined jobs can't interleave frames; the thread
//! sends whatever events are waiting when it wakes as one burst with one
//! flush (see [`crate::protocol::write_burst`]).

use crate::hub::{FrontierHub, RunPublisher};
use crate::protocol::{
    encode_event, nodelay, read_frame, write_burst, write_frame, Event, JobOutcome, JobSpec,
    MetricsScope, Request, ServeStatsSnapshot, VerdictKey, VERSION,
};
use crate::scheduler::PushError;
use crate::scheduler::{Priority, Scheduler};
use overify::{
    default_threads, prepare_job, JobProgress, PreparedJob, ProgressSnapshot, SharedQueryCache,
    Store, StoreConfig, SuiteJobResult,
};
use overify_obs::metrics::{fold_sample, render_sample, sample_kind, LazyCounter, Sample};
use overify_obs::rings::Rings;
use overify_obs::slow::SlowLog;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, BufReader, BufWriter};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a server is brought up.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port; read it back
    /// from [`ServerHandle::addr`]).
    pub port: u16,
    /// Executor pool size (concurrent jobs). Defaults to
    /// [`overify::default_threads`].
    pub executors: usize,
    /// Persistent store backing the service; `None` serves storeless
    /// (every job verifies, nothing is remembered).
    pub store: Option<StoreConfig>,
    /// Progress sampling tick for running jobs.
    pub progress_interval: Duration,
    /// Solver-log tailing tick: how often the daemon folds entries that
    /// *other* processes appended to the shared store into its warm
    /// cache. Ignored when serving storeless.
    pub tail_interval: Duration,
    /// Concurrent client connections the daemon will hold. A connection
    /// past the cap is answered with a single [`Event::Busy`] frame and
    /// closed instead of getting a handler thread — accepts never pile
    /// up unboundedly. `None` = unlimited (the historical behavior).
    pub max_connections: Option<usize>,
    /// Bound on the miss queue feeding the executor pool. A submission
    /// that would push past it is refused with [`Event::Shed`] (its
    /// final event) instead of growing the backlog without limit.
    /// `None` = unbounded (the historical behavior).
    pub queue_capacity: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            executors: default_threads(),
            store: StoreConfig::from_env(),
            progress_interval: Duration::from_millis(25),
            tail_interval: Duration::from_millis(200),
            max_connections: None,
            queue_capacity: None,
        }
    }
}

/// Backoff hint on a [`Event::Busy`] refusal (connection cap).
const BUSY_RETRY_MS: u64 = 500;
/// Backoff hint on a [`Event::Shed`] refusal (queue full). Longer than
/// the busy hint: a full queue means real verification work is backed
/// up, not just a momentary accept burst.
const SHED_RETRY_MS: u64 = 1_000;

/// One queued miss: the prepared job plus the event channel of the client
/// that owns it. `key_hash` is the in-flight coalescing key (`None` when
/// the server runs storeless — then nothing coalesces).
struct QueuedJob {
    id: u64,
    prepared: PreparedJob,
    events: Sender<Event>,
    key_hash: Option<u128>,
    /// The scheduler priority the job entered the queue with; an observed
    /// (non-estimated) cost also prices the deadlines of the run's remote
    /// leases.
    priority: Priority,
    /// The client-supplied correlation id, carried through the hub onto
    /// every lease so daemon and worker trace spans stitch together.
    trace: u64,
    /// The store's [`Store::save_seq`] read just before the submit-time
    /// probe missed: the executor re-probes only if it has moved since.
    probed_seq: u64,
}

/// A job currently executing, visible to the progress poller.
struct ActiveJob {
    id: u64,
    progress: Arc<JobProgress>,
    events: Sender<Event>,
    /// The last published snapshot plus the terminal marker. Every
    /// Progress frame is sent while this lock is held, so frames for one
    /// job are totally ordered, monotone, and nothing can land after the
    /// executor's terminal frame (which precedes the Report).
    last: Mutex<PublishedProgress>,
}

#[derive(Default)]
struct PublishedProgress {
    snap: ProgressSnapshot,
    finished: bool,
}

impl ActiveJob {
    /// Publishes a snapshot unless it duplicates the last one or the job
    /// already published its terminal frame. `terminal` closes the stream.
    fn publish(&self, snap: ProgressSnapshot, terminal: bool) {
        let mut last = self.last.lock().unwrap();
        if last.finished {
            return;
        }
        if terminal {
            last.finished = true;
        }
        if terminal || snap != last.snap {
            last.snap = snap;
            // Sent under the lock on purpose (mpsc send never blocks):
            // this is what makes the frame order the publish order.
            self.events
                .send(Event::Progress {
                    job: self.id,
                    runs_done: snap.runs_done as u32,
                    runs_total: snap.runs_total as u32,
                    paths: snap.paths,
                    bugs: snap.bugs,
                    instructions: snap.instructions,
                })
                .ok();
        }
    }
}

/// Followers of one in-flight execution: (job id, owning client's event
/// channel) pairs, each of which receives the execution's outcome under
/// its own id.
type Followers = Vec<(u64, Sender<Event>)>;

struct ServeState {
    store: Option<Store>,
    warm: Arc<SharedQueryCache>,
    sched: Scheduler<QueuedJob>,
    /// The cross-process frontier dispatcher: every executing run is
    /// published here so attached remote workers can steal subtree jobs.
    hub: FrontierHub,
    active: Mutex<Vec<Arc<ActiveJob>>>,
    /// Single-flight coalescing: content-address hash → followers waiting
    /// on the execution already queued or running for that key. One
    /// execution serves every concurrent submitter, so concurrent clients
    /// get *byte-identical* reports (and the executor does 1× the work).
    inflight: Mutex<HashMap<u128, Followers>>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    submitted: AtomicU64,
    answered_from_store: AtomicU64,
    /// The subset of `answered_from_store` answered by splicing a stored
    /// function-slice verdict (module key missed, slice key hit).
    answered_spliced: AtomicU64,
    executed: AtomicU64,
    /// Verdicts piggybacked on worker `JobDone` frames that were new to
    /// the warm cache.
    verdicts_upstreamed: AtomicU64,
    next_job_id: AtomicU64,
    next_conn_id: AtomicU64,
    /// Per-worker metrics tables, keyed by `AttachWorker` name: each
    /// worker's `MetricsPush` deltas folded into running totals. The
    /// fleet scrape renders these as `{worker="…"}`-labeled series plus
    /// an unlabeled rollup.
    fleet: Mutex<BTreeMap<String, BTreeMap<String, Sample>>>,
    /// Time-series rings over the daemon's own registry, sampled on the
    /// poller tick; the fleet scrape derives rates and quantiles-over-
    /// recent-windows from them.
    rings: Rings,
    /// Executor pool size, for the queue-saturation health gauge.
    executors: u64,
    /// Live client connections, against `max_connections`.
    live_conns: AtomicU64,
    /// Connection cap; `None` = unlimited.
    max_connections: Option<usize>,
    /// Trace-timebase microseconds of the last solver-log tail pass, for
    /// the tail-lag health gauge (0 until the first pass, or storeless).
    last_tail_us: AtomicU64,
}

impl ServeState {
    fn stats(&self) -> ServeStatsSnapshot {
        let hub = self.hub.stats();
        ServeStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            answered_from_store: self.answered_from_store.load(Ordering::Relaxed),
            answered_spliced: self.answered_spliced.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            queued: self.sched.len() as u64,
            active: self.active.lock().unwrap().len() as u64,
            workers: hub.workers,
            remote_leases: hub.remote_leases,
            remote_states: hub.remote_states,
            leases_recovered: hub.leases_recovered,
            leases_reaped: hub.leases_reaped,
            stale_frames: hub.stale_frames,
            verdicts_upstreamed: self.verdicts_upstreamed.load(Ordering::Relaxed),
            store: self.store.as_ref().map(|s| s.stats()).unwrap_or_default(),
        }
    }

    /// Initiates shutdown: close the queue, report its backlog back to
    /// the owning clients as aborted (an explicit error beats a hang),
    /// and poke the accept loop awake so it observes the flag.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop granting leases; attached workers drain away while any
        // still-running jobs finish (their outstanding leases complete
        // normally — a half-merged run must never be reported).
        self.hub.close();
        for job in self.sched.close() {
            let aborted = JobOutcome::from_result(&SuiteJobResult {
                name: job.prepared.job().name.clone(),
                level: job.prepared.job().opts.level,
                compile_time: job.prepared.compile_time,
                runs: Vec::new(),
                error: Some("server shutting down before the job ran".into()),
                from_store: false,
                from_slice: false,
                ledger: None,
            });
            let followers = take_followers(self, job.key_hash);
            let _ = job.events.send(Event::Report {
                job: job.id,
                outcome: aborted.clone(),
            });
            report_followers(followers, &aborted);
        }
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: its address plus the join/shutdown handle.
pub struct ServerHandle {
    state: Arc<ServeState>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (always 127.0.0.1; the port is the configured or
    /// ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A statistics snapshot, identical to what [`Request::Stats`]
    /// returns over the wire.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.state.stats()
    }

    /// Blocks until the server exits (a client sent `Shutdown`).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Initiates shutdown locally and waits for the server to drain.
    pub fn shutdown(self) {
        self.state.begin_shutdown();
        self.join();
    }
}

/// Binds and starts a server; returns once the listener is accepting.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    overify_obs::init();
    let store = match cfg.store {
        Some(sc) => Some(Store::open(sc)?),
        None => None,
    };
    // One fleet-wide solver cache, warm-started from the store once at
    // boot and shared by every job of every client from then on.
    let warm = match &store {
        Some(s) => s.warm_solver_cache(),
        None => Arc::new(SharedQueryCache::new()),
    };
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, cfg.port))?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServeState {
        store,
        warm,
        sched: match cfg.queue_capacity {
            Some(cap) => Scheduler::bounded(cap),
            None => Scheduler::new(),
        },
        hub: FrontierHub::new(),
        active: Mutex::new(Vec::new()),
        inflight: Mutex::new(HashMap::new()),
        shutting_down: AtomicBool::new(false),
        addr,
        submitted: AtomicU64::new(0),
        answered_from_store: AtomicU64::new(0),
        answered_spliced: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        verdicts_upstreamed: AtomicU64::new(0),
        next_job_id: AtomicU64::new(0),
        next_conn_id: AtomicU64::new(0),
        fleet: Mutex::new(BTreeMap::new()),
        rings: Rings::from_env(),
        executors: cfg.executors.max(1) as u64,
        live_conns: AtomicU64::new(0),
        max_connections: cfg.max_connections,
        last_tail_us: AtomicU64::new(0),
    });

    let mut threads = Vec::new();
    for _ in 0..cfg.executors.max(1) {
        let state = state.clone();
        threads.push(std::thread::spawn(move || executor_loop(&state)));
    }
    {
        let state = state.clone();
        let tick = cfg.progress_interval;
        threads.push(std::thread::spawn(move || poller_loop(&state, tick)));
    }
    if state.store.is_some() {
        let state = state.clone();
        let tick = cfg.tail_interval;
        threads.push(std::thread::spawn(move || tailer_loop(&state, tick)));
    }
    {
        let state = state.clone();
        threads.push(std::thread::spawn(move || accept_loop(&state, listener)));
    }
    Ok(ServerHandle { state, threads })
}

fn accept_loop(state: &Arc<ServeState>, listener: TcpListener) {
    for conn in listener.incoming() {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn.and_then(nodelay) else {
            continue;
        };
        // Connection cap: refuse with a typed Busy frame instead of
        // spawning a handler. The count is claimed optimistically and
        // released on refusal so two racing accepts can't both slip past
        // the last slot.
        if let Some(cap) = state.max_connections {
            let prev = state.live_conns.fetch_add(1, Ordering::SeqCst);
            if prev >= cap as u64 {
                state.live_conns.fetch_sub(1, Ordering::SeqCst);
                static BUSY: LazyCounter = LazyCounter::new("overify_serve_busy_refused_total");
                BUSY.inc();
                // A slow peer must not stall the accept loop: the single
                // refusal frame is written from a throwaway thread.
                std::thread::spawn(move || {
                    let mut w = BufWriter::new(stream);
                    let _ = write_frame(
                        &mut w,
                        &encode_event(&Event::Busy {
                            retry_after_ms: BUSY_RETRY_MS,
                        }),
                    );
                });
                continue;
            }
        } else {
            state.live_conns.fetch_add(1, Ordering::SeqCst);
        }
        let state = state.clone();
        let conn_id = state.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // Connection handlers are detached: they exit when their client
        // hangs up, and the process-level teardown (daemon exit) reaps
        // whatever is left.
        std::thread::spawn(move || {
            let _ = handle_connection(&state, stream, conn_id);
            state.live_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// One client connection: a reader loop (this thread) processing requests
/// and a writer thread serializing events onto the socket. A connection
/// that sends [`Request::AttachWorker`] becomes a remote verification
/// worker; if it dies holding leases, [`FrontierHub::disconnect`] puts
/// the leased subtree jobs back on their frontiers.
fn handle_connection(state: &Arc<ServeState>, stream: TcpStream, conn_id: u64) -> io::Result<()> {
    let peer_write = stream.try_clone()?;
    let (tx, rx) = channel::<Event>();
    // The writer signals here after a ShuttingDown frame hits the wire,
    // so the reader can tear the server down knowing the ack was sent
    // without waiting for the channel's other senders (queued jobs hold
    // clones) to drain.
    let (flushed_tx, flushed_rx) = channel::<()>();
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(peer_write);
        // Exits when every sender is gone (connection done, queued jobs
        // reported) or the socket breaks (client hung up mid-stream). Each
        // wake-up drains whatever else is already queued and flushes once.
        while let Ok(ev) = rx.recv() {
            match write_burst(&mut w, ev, &rx) {
                Ok(true) => {
                    flushed_tx.send(()).ok();
                }
                Ok(false) => {}
                Err(_) => break,
            }
        }
    });

    tx.send(Event::Hello { version: VERSION }).ok();
    let mut attached = false;
    // The worker's `AttachWorker` display name: keys its fleet metrics
    // table and its ledger attribution.
    let mut worker_name: Option<String> = None;
    let mut r = BufReader::new(stream);
    // The read loop ends when the client hangs up (or sends garbage
    // framing) — `read_frame` then errors.
    while let Ok(frame) = read_frame(&mut r) {
        match crate::protocol::decode_request(&frame) {
            Ok(Request::Submit {
                spec,
                trace,
                tenant,
            }) => handle_submit(state, &spec, trace, &tenant, &tx),
            Ok(Request::Stats) => {
                tx.send(Event::Stats(state.stats())).ok();
            }
            Ok(Request::Metrics { scope }) => {
                let text = match &scope {
                    // Service-level counters first (same names `Stats`
                    // uses), then every registry metric the process has
                    // touched — exactly the pre-v6 answer.
                    MetricsScope::Daemon => {
                        format!("{}{}", state.stats(), overify_obs::metrics::render())
                    }
                    MetricsScope::Fleet => render_fleet(state),
                    MetricsScope::Worker(name) => render_worker(state, name),
                };
                // Every scope carries the slow-query log: the K worst SAT
                // solves seen anywhere in the fleet (workers push theirs).
                let slow = SlowLog::global().snapshot();
                tx.send(Event::Metrics { text, slow }).ok();
            }
            Ok(Request::Shutdown) => {
                tx.send(Event::ShuttingDown).ok();
                // Tear down only once the ack is on the wire (bounded
                // wait — a dead socket must not stall the shutdown), so
                // the requesting client always reads it even though the
                // process may exit right after the server drains.
                let _ = flushed_rx.recv_timeout(Duration::from_secs(5));
                state.begin_shutdown();
                break;
            }
            Ok(Request::AttachWorker { name }) => {
                if !attached {
                    attached = true;
                    // Disambiguate name collisions (two workers on one
                    // host defaulting to the same name) by connection id,
                    // so neither worker's pushes pollute the other's
                    // table.
                    let unique = if state.fleet.lock().unwrap().contains_key(&name) {
                        format!("{name}#{conn_id}")
                    } else {
                        name
                    };
                    state.hub.attach_worker(conn_id, unique.clone());
                    state
                        .fleet
                        .lock()
                        .unwrap()
                        .entry(unique.clone())
                        .or_default();
                    worker_name = Some(unique);
                }
                tx.send(Event::WorkerAttached { worker: conn_id }).ok();
            }
            Ok(Request::MetricsPush { text, slow }) => {
                // Worker-only verb, like StealJobs: an unattached peer
                // pushing metrics has a broken implementation.
                if !attached {
                    break;
                }
                static PUSHES: LazyCounter = LazyCounter::new("overify_serve_metrics_pushes_total");
                PUSHES.inc();
                let name = worker_name.clone().unwrap_or_default();
                let mut fleet = state.fleet.lock().unwrap();
                let table = fleet.entry(name).or_default();
                for (metric, delta) in overify_obs::metrics::parse(&text) {
                    match table.get_mut(&metric) {
                        Some(acc) => fold_sample(acc, &delta),
                        None => {
                            table.insert(metric, delta);
                        }
                    }
                }
                drop(fleet);
                SlowLog::global().absorb(&slow);
                tx.send(Event::MetricsAck).ok();
            }
            Ok(Request::StealJobs { max }) => {
                // Worker-only verb: an unattached peer speaking it has a
                // broken implementation — drop it rather than guess.
                if !attached {
                    break;
                }
                if state.shutting_down.load(Ordering::SeqCst) {
                    // Tell the worker to go home instead of letting it
                    // poll a draining daemon until the socket dies.
                    tx.send(Event::ShuttingDown).ok();
                    break;
                }
                let leases = state.hub.steal(conn_id, max);
                tx.send(Event::Leases { leases }).ok();
            }
            Ok(Request::OfferStates { lease, prefixes }) => {
                if !attached {
                    break;
                }
                let accepted = state.hub.offer_states(lease, prefixes) as u32;
                tx.send(Event::StatesAccepted { accepted }).ok();
            }
            Ok(Request::JobDone {
                lease,
                trace,
                report,
                cache_delta,
            }) => {
                if !attached {
                    break;
                }
                overify_obs::trace::event(
                    "job_done",
                    &[
                        ("lease", &lease),
                        ("trace", &format_args!("{trace:x}")),
                        ("worker", &conn_id),
                    ],
                );
                // Fold the worker's verdicts in *before* lease
                // bookkeeping: a verdict is sound even when the lease was
                // reaped or completed meanwhile, and persisting it now
                // means the next process warm-starts from it even if this
                // daemon dies hard later.
                if !cache_delta.is_empty() {
                    let added = state.warm.absorb(&cache_delta);
                    state
                        .verdicts_upstreamed
                        .fetch_add(added, Ordering::Relaxed);
                    if let Some(store) = &state.store {
                        if let Err(e) = store.save_solver_cache(&state.warm) {
                            overify_obs::error!(
                                "serve",
                                "failed to persist upstreamed verdicts: {e}"
                            );
                        }
                    }
                }
                state.hub.complete(lease, report);
                tx.send(Event::JobAck { lease }).ok();
            }
            Err(_) => break, // malformed request: drop the connection
        }
    }
    if attached {
        // Crash recovery: jobs the worker still held go back to their
        // frontiers and are re-explored by whoever pops them next. The
        // worker's metrics table is kept — its counted work happened, and
        // dropping it would make the fleet rollup go backwards.
        state.hub.disconnect(conn_id);
        state.hub.detach_worker(conn_id);
    }
    drop(tx);
    let _ = writer.join();
    Ok(())
}

/// Renders one attached worker's folded metrics table in the exposition
/// format (empty for an unknown name — scrapes are diagnostics, not
/// protocol errors).
fn render_worker(state: &ServeState, name: &str) -> String {
    let mut out = String::new();
    if let Some(table) = state.fleet.lock().unwrap().get(name) {
        for (metric, sample) in table {
            out.push_str("# TYPE ");
            out.push_str(metric);
            out.push(' ');
            out.push_str(sample_kind(sample));
            out.push('\n');
            render_sample(&mut out, metric, sample, None);
        }
    }
    out
}

/// How many recent ring windows the fleet scrape's derived rates and
/// quantiles cover.
const RING_WINDOWS: usize = 10;

/// Renders the whole-fleet view: the daemon's service counters, then for
/// every metric name one unlabeled rollup line (the daemon's own sample
/// folded with every worker's table) plus one `{worker="…"}`-labeled line
/// per worker that reported it, then ring-derived rates (counters) and
/// p50/p99 over recent windows (histograms), then the health summary
/// gauges the `--top` dashboard's Health line reads.
fn render_fleet(state: &ServeState) -> String {
    let mut out = state.stats().to_string();
    let daemon = overify_obs::metrics::snapshot();
    let fleet = state.fleet.lock().unwrap().clone();

    let mut names: BTreeSet<String> = daemon.iter().map(|(n, _)| n.to_string()).collect();
    for table in fleet.values() {
        names.extend(table.keys().cloned());
    }
    for name in &names {
        let mut rollup: Option<Sample> = daemon
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone());
        for table in fleet.values() {
            if let Some(s) = table.get(name) {
                match &mut rollup {
                    Some(acc) => fold_sample(acc, s),
                    None => rollup = Some(s.clone()),
                }
            }
        }
        let Some(rollup) = rollup else { continue };
        out.push_str("# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(sample_kind(&rollup));
        out.push('\n');
        render_sample(&mut out, name, &rollup, None);
        for (worker, table) in &fleet {
            if let Some(s) = table.get(name) {
                render_sample(&mut out, name, s, Some(("worker", worker)));
            }
        }
    }

    // Ring-derived views over the daemon's own registry: per-second rates
    // for counters (×1000, so sub-unit rates survive integer rendering)
    // and p50/p99 over the recent windows for histograms.
    use std::fmt::Write as _;
    for (name, sample) in &daemon {
        match sample {
            Sample::Counter(_) => {
                if let Some(rate) = state.rings.rate(name, RING_WINDOWS) {
                    let milli = (rate * 1000.0) as u64;
                    let _ = writeln!(out, "# TYPE {name}_rate_milli gauge");
                    let _ = writeln!(out, "{name}_rate_milli {milli}");
                }
            }
            Sample::Histogram { .. } => {
                for (suffix, p) in [("p50", 0.5), ("p99", 0.99)] {
                    if let Some(q) = state.rings.quantile_over(name, RING_WINDOWS, p) {
                        let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                        let _ = writeln!(out, "{name}_{suffix} {q}");
                    }
                }
            }
            Sample::Gauge(_) => {}
        }
    }

    // Health summary: queue saturation (scheduler depth per executor,
    // ×1000), the recent lease reap rate, and how far behind the solver-
    // log tailer is.
    let saturation = state.sched.len() as u64 * 1000 / state.executors;
    let _ = writeln!(out, "# TYPE overify_health_queue_saturation_milli gauge");
    let _ = writeln!(out, "overify_health_queue_saturation_milli {saturation}");
    let reap_rate = state
        .rings
        .rate("overify_hub_leases_reaped_total", RING_WINDOWS)
        .unwrap_or(0.0);
    let reap_milli = (reap_rate * 1000.0) as u64;
    let _ = writeln!(out, "# TYPE overify_health_reap_rate_milli gauge");
    let _ = writeln!(out, "overify_health_reap_rate_milli {reap_milli}");
    let tail = state.last_tail_us.load(Ordering::Relaxed);
    let lag_ms = if tail == 0 {
        0
    } else {
        overify_obs::trace::now_us().saturating_sub(tail) / 1000
    };
    let _ = writeln!(out, "# TYPE overify_health_tail_lag_ms gauge");
    let _ = writeln!(out, "overify_health_tail_lag_ms {lag_ms}");
    out
}

/// The store address of the verdict that answered (or will answer) a
/// prepared job: the slice key when the answer was spliced, the module
/// key otherwise. `None` when the server runs storeless.
fn verdict_key_for(prepared: &PreparedJob, from_slice: bool) -> Option<VerdictKey> {
    if from_slice {
        prepared.slice_key.as_ref().map(|k| VerdictKey {
            slice: true,
            fp: k.slice_fp,
            budget_sig: k.budget_sig,
        })
    } else {
        prepared.key.as_ref().map(|k| VerdictKey {
            slice: false,
            fp: k.module_fp,
            budget_sig: k.budget_sig,
        })
    }
}

/// Compiles, content-addresses, and routes one submission: store hits are
/// answered here and now; misses are priced and queued under the
/// submitter's tenant key.
fn handle_submit(
    state: &Arc<ServeState>,
    spec: &crate::protocol::JobSpec,
    trace: u64,
    tenant: &str,
    tx: &Sender<Event>,
) {
    state.submitted.fetch_add(1, Ordering::Relaxed);
    let id = state.next_job_id.fetch_add(1, Ordering::Relaxed);
    let _span = overify_obs::trace::span("submit")
        .arg("job", id)
        .arg("name", &spec.name)
        .arg("trace", format_args!("{trace:x}"));
    let job = spec.to_suite_job();

    let prepared = match prepare_job(&job, state.store.is_some()) {
        Ok(p) => p,
        Err(failed) => {
            // Build failures are finished results, not protocol errors.
            tx.send(Event::Report {
                job: id,
                outcome: JobOutcome::from_result(&failed),
            })
            .ok();
            return;
        }
    };
    // Read before probing, so a save racing the probe still moves it.
    let probed_seq = state.store.as_ref().map_or(0, Store::save_seq);
    if let Some(store) = &state.store {
        if let Some(hit) = prepared.load_stored(store) {
            state.answered_from_store.fetch_add(1, Ordering::Relaxed);
            if hit.from_slice {
                state.answered_spliced.fetch_add(1, Ordering::Relaxed);
            }
            let mut outcome = JobOutcome::from_result(&hit);
            outcome.verdict_key = verdict_key_for(&prepared, hit.from_slice);
            tx.send(Event::Report { job: id, outcome }).ok();
            return;
        }
    }

    // A miss: price it (observed per-key cost when the store has history,
    // the compiled-module static estimate otherwise — instruction count,
    // loop structure and annotation density are all known by now, so
    // never-seen work is priced off the module itself, not its source
    // size). The observed lookup is two-grain like the artifact lookup:
    // when the exact module was never run but its entry slice was (the
    // submission is a changed-module resubmission), the slice-keyed cost
    // prices the remainder instead of falling back to the static
    // overestimate for the whole thing.
    let observed = state.store.as_ref().and_then(|s| {
        prepared
            .key
            .as_ref()
            .and_then(|k| s.lookup_cost(k))
            .or_else(|| {
                prepared
                    .slice_key
                    .as_ref()
                    .and_then(|k| s.lookup_slice_cost(k))
            })
    });
    let priority = match observed {
        Some(d) => Priority {
            estimated: false,
            cost: d.as_nanos(),
        },
        None => Priority {
            estimated: true,
            cost: prepared.static_cost,
        },
    };

    // Single-flight: if the same content address is already queued or
    // running, follow that execution instead of queueing a duplicate —
    // every follower gets the *same* outcome bytes when it reports.
    let key_hash = prepared.key.as_ref().map(|k| k.key_hash());
    if let Some(hash) = key_hash {
        let mut inflight = state.inflight.lock().unwrap();
        if let Some(followers) = inflight.get_mut(&hash) {
            followers.push((id, tx.clone()));
            tx.send(Event::Queued {
                job: id,
                position: 0, // riding an execution already in flight
                predicted_cost: priority.cost,
            })
            .ok();
            return;
        }
        inflight.insert(hash, Vec::new());
    }

    // `Queued` goes on the wire *before* the scheduler can hand the job
    // to an executor, so a client always sees Queued ≺ Scheduled. The
    // position is therefore the pre-enqueue queue depth (an executor may
    // already be draining it).
    tx.send(Event::Queued {
        job: id,
        position: state.sched.len() as u64,
        predicted_cost: priority.cost,
    })
    .ok();
    let queued = QueuedJob {
        id,
        prepared,
        events: tx.clone(),
        key_hash,
        priority,
        trace,
        probed_seq,
    };
    match state.sched.push_for(tenant, priority, queued) {
        Ok(_) => {}
        Err(PushError::Full(_)) => {
            // The bounded queue refused the miss: shed it explicitly.
            // Shed is the job's final event; the client retries the whole
            // submission after the hint. Followers that registered on the
            // in-flight entry meanwhile are shed too — their execution is
            // not coming.
            static SHED: LazyCounter = LazyCounter::new("overify_serve_shed_total");
            SHED.inc();
            let followers = take_followers(state, key_hash);
            tx.send(Event::Shed {
                job: id,
                retry_after_ms: SHED_RETRY_MS,
            })
            .ok();
            for (follower_id, events) in followers {
                events
                    .send(Event::Shed {
                        job: follower_id,
                        retry_after_ms: SHED_RETRY_MS,
                    })
                    .ok();
            }
        }
        Err(PushError::Closed(rejected)) => {
            // Shutdown raced the submission. Report the job — and any
            // followers that registered on its in-flight entry meanwhile —
            // as aborted, exactly like `begin_shutdown` does for the
            // backlog.
            let outcome = JobOutcome::from_result(&SuiteJobResult {
                name: rejected.prepared.job().name.clone(),
                level: rejected.prepared.job().opts.level,
                compile_time: rejected.prepared.compile_time,
                runs: Vec::new(),
                error: Some("server shutting down before the job ran".into()),
                from_store: false,
                from_slice: false,
                ledger: None,
            });
            let followers = take_followers(state, key_hash);
            tx.send(Event::Report {
                job: id,
                outcome: outcome.clone(),
            })
            .ok();
            report_followers(followers, &outcome);
        }
    }
}

/// Removes `key_hash`'s in-flight entry, returning its followers.
///
/// Must be called *before* the owning job's Report goes on the wire: the
/// moment a client sees that Report it may resubmit, and a resubmission
/// must re-check the store / enqueue fresh — never ride an execution that
/// already finished (a truncated outcome must recompute, not replay).
fn take_followers(state: &ServeState, key_hash: Option<u128>) -> Followers {
    match key_hash {
        Some(hash) => state
            .inflight
            .lock()
            .unwrap()
            .remove(&hash)
            .unwrap_or_default(),
        None => Vec::new(),
    }
}

/// Hands every follower the given outcome under its own job id.
fn report_followers(followers: Followers, outcome: &JobOutcome) {
    for (id, events) in followers {
        events
            .send(Event::Report {
                job: id,
                outcome: outcome.clone(),
            })
            .ok();
    }
}

/// One executor: pops misses cost-first and runs them to completion.
fn executor_loop(state: &Arc<ServeState>) {
    while let Some(job) = state.sched.pop() {
        // Re-check the store before spending solver time only when this
        // daemon saved an artifact since the job's submit-time probe
        // missed: another executor may have persisted an answer meanwhile
        // (a shared slice key, or a resubmission that raced a finished
        // run; same-key duplicates already coalesce in flight). Otherwise
        // a second probe could only miss again. A write by another
        // process racing the submit-time probe costs one redundant
        // execution with identical bytes.
        let moved = state
            .store
            .as_ref()
            .filter(|s| s.save_seq() != job.probed_seq);
        if let Some(store) = moved {
            if let Some(hit) = job.prepared.load_stored(store) {
                state.answered_from_store.fetch_add(1, Ordering::Relaxed);
                if hit.from_slice {
                    state.answered_spliced.fetch_add(1, Ordering::Relaxed);
                }
                let mut outcome = JobOutcome::from_result(&hit);
                outcome.verdict_key = verdict_key_for(&job.prepared, hit.from_slice);
                let followers = take_followers(state, job.key_hash);
                job.events
                    .send(Event::Report {
                        job: job.id,
                        outcome: outcome.clone(),
                    })
                    .ok();
                report_followers(followers, &outcome);
                continue;
            }
        }

        state.executed.fetch_add(1, Ordering::Relaxed);
        job.events.send(Event::Scheduled { job: job.id }).ok();

        let active = Arc::new(ActiveJob {
            id: job.id,
            progress: Arc::new(JobProgress::new()),
            events: job.events.clone(),
            last: Mutex::new(PublishedProgress::default()),
        });
        // The first progress frame is synchronous and precedes poller
        // registration, so every executed job streams at least one frame
        // and no poller sample can jump ahead of it. (Built by hand:
        // execution hasn't started, but the sweep size is already known
        // from the job itself.)
        active.publish(
            ProgressSnapshot {
                runs_total: job.prepared.job().bytes.len(),
                ..Default::default()
            },
            false,
        );
        state.active.lock().unwrap().push(active.clone());

        // Every swept run is published to the frontier hub while it
        // executes, so attached remote worker processes can steal subtree
        // jobs from it; the merge stays bit-identical however the work
        // was split.
        let publisher = RunPublisher {
            hub: &state.hub,
            base: JobSpec::from_suite_job(job.prepared.job()),
            // An observed cost prices the run's remote-lease deadlines;
            // a static estimate is too loose to reap against.
            priced: (!job.priority.estimated)
                .then(|| Duration::from_nanos(job.priority.cost.min(u64::MAX as u128) as u64)),
            trace: job.trace,
            contributors: Arc::default(),
        };
        let span = overify_obs::trace::span("execute")
            .arg("job", job.id)
            .arg("name", &job.prepared.job().name)
            .arg("trace", format_args!("{:x}", job.trace));
        let result = job.prepared.execute_with(
            state.store.as_ref(),
            Some(&state.warm),
            Some(&active.progress),
            Some(&publisher),
        );
        drop(span);

        state.active.lock().unwrap().retain(|a| a.id != job.id);
        // Persist the solver-cache delta now, not at exit: the next
        // process to open the store warm-starts from everything this job
        // learned even if the daemon dies hard later.
        if let Some(store) = &state.store {
            if let Err(e) = store.save_solver_cache(&state.warm) {
                overify_obs::error!("serve", "failed to persist the solver cache: {e}");
            }
            // Opportunistic tail on the same touch: anything another
            // process appended meanwhile is warm before the next job.
            store.tail_solver_log(&state.warm);
        }
        // Terminal frame: closes the job's progress stream (a straggling
        // poller sample can never land after it), then the report. The
        // in-flight entry is released *before* the owner's Report so a
        // client reacting to it resubmits fresh instead of riding a
        // finished execution.
        active.publish(active.progress.snapshot(), true);
        let mut outcome = JobOutcome::from_result(&result);
        if result.error.is_none() && state.store.is_some() {
            // The executed run was just persisted under the module key;
            // point the outcome at it.
            outcome.verdict_key = verdict_key_for(&job.prepared, false);
        }
        let followers = take_followers(state, job.key_hash);
        job.events
            .send(Event::Report {
                job: job.id,
                outcome: outcome.clone(),
            })
            .ok();
        // Every follower gets the exact same outcome bytes under its own
        // job id.
        report_followers(followers, &outcome);
    }
}

/// Samples every active job on a fixed tick, streaming counters that
/// moved since the last sample.
fn poller_loop(state: &Arc<ServeState>, tick: Duration) {
    while !state.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        // The poller doubles as the lease reaper: a wedged worker's
        // subtree goes back to its frontier on the same cadence progress
        // is sampled, so a sweep never stalls longer than a tick past a
        // blown deadline.
        state.hub.reap_expired();
        // The poller also drives the telemetry rings: one cumulative
        // registry sample per ring resolution, from which the fleet
        // scrape derives rates and recent-window quantiles.
        state.rings.maybe_sample();
        let active: Vec<Arc<ActiveJob>> = state.active.lock().unwrap().clone();
        for job in active {
            // `publish` drops the sample when it is stale, a duplicate, or
            // the job already published its terminal frame.
            job.publish(job.progress.snapshot(), false);
        }
    }
}

/// Tails the shared solver log on a fixed tick: entries appended by
/// *other* daemons or workers on the same store path are folded into this
/// process's warm cache, so the fleet converges on one body of solver
/// knowledge without restarts. Compactions are survived by re-reading
/// (the log header's generation changes), never by double-counting.
fn tailer_loop(state: &Arc<ServeState>, tick: Duration) {
    while !state.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        if let Some(store) = &state.store {
            store.tail_solver_log(&state.warm);
            state
                .last_tail_us
                .store(overify_obs::trace::now_us(), Ordering::Relaxed);
        }
    }
}
