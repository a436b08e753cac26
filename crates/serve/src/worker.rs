//! The remote verification worker: lends this process's cores to a
//! dispatcher daemon.
//!
//! Each worker thread opens its own connection, attaches
//! ([`crate::protocol::Request::AttachWorker`]), and long-polls for
//! subtree-job leases. A lease carries everything needed to reproduce the
//! exact run: the job spec (source, level, entry, per-run configuration)
//! and the branch-decision trace of the stolen frontier state. The worker
//! compiles the module (cached per source × level — compilation is
//! deterministic, so the module is bit-identical to the daemon's),
//! replays the trace with zero solver queries, explores the subtree, and
//! completes the lease with its partial report. While exploring, it sheds
//! its oldest pending states (the biggest subtrees) back to the
//! dispatcher — up to the lease's `shed` hint — so one stolen subtree
//! never serializes the fleet.
//!
//! Completion also piggybacks the worker's **solver-cache delta**: every
//! verdict this process derived since its last upload rides the
//! [`crate::protocol::Request::JobDone`] frame, so the daemon (and through
//! its store, the whole fleet) learns what this worker's SAT calls paid
//! for. The delta is tracked per process, not per lease — a fingerprint is
//! uploaded once, however many leases touch it.
//!
//! Since protocol v6 each connection also upstreams the worker's
//! **metrics registry** ([`crate::protocol::Request::MetricsPush`]):
//! delta-encoded snapshots after every lease completion, periodically
//! while idling (`OVERIFY_METRICS_PUSH_MS`, default 500ms), and on clean
//! exit, plus this process's slow-query log. The daemon folds the deltas
//! into a per-worker table and serves the fleet rollup to any scraper.
//!
//! Failure semantics are the dispatcher's: if this process dies
//! mid-lease, the daemon's lease table restores the job to its frontier
//! and someone else re-explores it. Nothing a worker does (or fails to
//! do) can change the merged report's deterministic projection — only how
//! fast it arrives.
//!
//! Budgets are per-process: the wall-clock timeout of a lease is clamped
//! by the dispatcher to the run's *remaining* deadline, while instruction
//! and path ceilings apply per leased subtree (the daemon folds remote
//! counters into the fleet budget only when a lease completes). Exceeding
//! a ceiling remotely marks the partial report truncated, which marks the
//! merged run truncated — exactly like a local worker tripping it.

use crate::protocol::{
    decode_event, encode_request, nodelay, read_frame, write_frame, Event, LeasedJob, Request,
    VERSION,
};
use overify::{prepare_job, Module, SharedQueryCache, VerificationReport};
use overify_obs::metrics::{DeltaTracker, LazyCounter};
use overify_obs::slow::SlowLog;
use overify_symex::{Executor, ExploreHooks};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a worker fleet is brought up.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// The daemon to attach to.
    pub addr: SocketAddr,
    /// Worker connections to open; each steals and explores
    /// independently (a connection is the unit of lease ownership).
    pub threads: usize,
    /// Max leases requested per steal round-trip.
    pub steal_batch: u32,
    /// Exit once this long passes without being granted a lease. `None`
    /// serves until the daemon goes away.
    pub idle_exit: Option<Duration>,
    /// Display name sent with the attachment (diagnostics only).
    pub name: String,
}

impl WorkerConfig {
    /// A single-threaded worker for `addr` that serves until the daemon
    /// disconnects it.
    pub fn at(addr: SocketAddr) -> WorkerConfig {
        WorkerConfig {
            addr,
            threads: 1,
            steal_batch: 1,
            idle_exit: None,
            name: format!("overify-worker:{}", std::process::id()),
        }
    }
}

/// What a worker fleet did before it exited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Subtree jobs leased and completed.
    pub stolen: u64,
    /// Frontier states shed back to the dispatcher mid-subtree.
    pub states_returned: u64,
    /// Leases that could not run (module failed to build here) and were
    /// returned whole.
    pub bounced: u64,
    /// Solver verdicts uploaded to the dispatcher on `JobDone` frames.
    pub verdicts_uploaded: u64,
}

impl std::fmt::Display for WorkerStats {
    /// Renders the same text exposition format the metrics registry (and
    /// [`crate::protocol::ServeStatsSnapshot`]) uses, so worker output is
    /// machine-scrapable alongside daemon output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let samples: [(&str, u64); 4] = [
            ("overify_worker_bounced", self.bounced),
            ("overify_worker_states_returned", self.states_returned),
            ("overify_worker_stolen", self.stolen),
            ("overify_worker_verdicts_uploaded", self.verdicts_uploaded),
        ];
        for (name, value) in samples {
            writeln!(f, "# TYPE {name} counter")?;
            writeln!(f, "{name} {value}")?;
        }
        Ok(())
    }
}

/// One module per (source, level): compilation is deterministic, so a
/// cached module is bit-identical to a fresh one — and to the daemon's.
type ModuleCache = Mutex<HashMap<(String, u8), Arc<Module>>>;

/// Fingerprints this process already uploaded on a `JobDone` frame.
type Uploaded = Mutex<HashSet<u128>>;

/// The process-wide metrics baseline for `MetricsPush` frames. One
/// tracker for the whole process — not one per connection — so every
/// registry increment is upstreamed exactly once, attributed to
/// whichever connection happened to push it; the daemon's fleet rollup
/// sums the per-connection tables back to the process totals.
type PushTracker = Mutex<DeltaTracker>;

/// How often a worker connection upstreams its metrics delta
/// (`OVERIFY_METRICS_PUSH_MS`, default 500ms). Pushes also ride every
/// lease completion and the connection's exit, so the interval only
/// bounds staleness while idling in the steal loop.
fn push_interval() -> Duration {
    let ms = std::env::var("OVERIFY_METRICS_PUSH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(500);
    Duration::from_millis(ms.max(1))
}

/// Upstreams the registry delta since the last push, plus this process's
/// slow-query log (the daemon's absorb dedups by fingerprint, so
/// re-sending the log is idempotent).
fn push_metrics(conn: &RefCell<Conn>, tracker: &PushTracker) -> io::Result<()> {
    let text = tracker.lock().unwrap().delta();
    let slow = SlowLog::global().snapshot();
    if text.is_empty() && slow.is_empty() {
        return Ok(());
    }
    match conn
        .borrow_mut()
        .request(&Request::MetricsPush { text, slow })?
    {
        Event::MetricsAck => Ok(()),
        other => Err(unexpected("MetricsAck", &other)),
    }
}

/// Runs a worker fleet against the daemon at `cfg.addr`; blocks until
/// every connection exits (daemon gone, or `idle_exit` elapsed) and
/// returns the summed stats.
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<WorkerStats> {
    overify_obs::init();
    let modules: Arc<ModuleCache> = Arc::new(Mutex::new(HashMap::new()));
    // One process-wide solver cache: verdicts are keyed by structural
    // formula fingerprints, valid across every lease this process takes.
    let solver_cache = Arc::new(SharedQueryCache::new());
    // Fingerprints already upstreamed to the dispatcher — process-wide,
    // so concurrent connections never upload the same verdict twice.
    let uploaded: Uploaded = Mutex::new(HashSet::new());
    // The metrics baseline is process-wide too: see [`PushTracker`].
    let tracker: PushTracker = Mutex::new(DeltaTracker::new());
    let mut total = WorkerStats::default();
    if cfg.threads <= 1 {
        return worker_connection(cfg, &modules, &solver_cache, &uploaded, &tracker);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                scope.spawn(|| worker_connection(cfg, &modules, &solver_cache, &uploaded, &tracker))
            })
            .collect();
        let mut first_err = None;
        for h in handles {
            match h.join().expect("worker thread panicked") {
                Ok(s) => {
                    total.stolen += s.stolen;
                    total.states_returned += s.states_returned;
                    total.bounced += s.bounced;
                    total.verdicts_uploaded += s.verdicts_uploaded;
                }
                Err(e) => first_err = Some(e),
            }
        }
        match first_err {
            // A connect failure with nothing stolen anywhere is an error
            // worth surfacing; otherwise the fleet did real work and the
            // error is just the daemon going away.
            Some(e) if total == WorkerStats::default() => Err(e),
            _ => Ok(total),
        }
    })
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr, name: &str) -> io::Result<Conn> {
        let stream = nodelay(TcpStream::connect(addr)?)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        match conn.read_event()? {
            Event::Hello { version } if version == VERSION => {}
            Event::Hello { version } => {
                return Err(crate::protocol::ProtocolError::VersionSkew {
                    peer: version,
                    ours: VERSION,
                }
                .into())
            }
            other => return Err(unexpected("Hello", &other)),
        }
        match conn.request(&Request::AttachWorker { name: name.into() })? {
            Event::WorkerAttached { .. } => Ok(conn),
            other => Err(unexpected("WorkerAttached", &other)),
        }
    }

    fn read_event(&mut self) -> io::Result<Event> {
        Ok(decode_event(&read_frame(&mut self.reader)?)?)
    }

    fn request(&mut self, req: &Request) -> io::Result<Event> {
        write_frame(&mut self.writer, &encode_request(req))?;
        self.read_event()
    }
}

fn unexpected(wanted: &str, got: &Event) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {wanted}, got {got:?}"),
    )
}

fn worker_connection(
    cfg: &WorkerConfig,
    modules: &ModuleCache,
    solver_cache: &Arc<SharedQueryCache>,
    uploaded: &Uploaded,
    tracker: &PushTracker,
) -> io::Result<WorkerStats> {
    let conn = RefCell::new(Conn::connect(cfg.addr, &cfg.name)?);
    let mut stats = WorkerStats::default();
    let mut last_lease = Instant::now();
    let push_every = push_interval();
    let mut last_push = Instant::now();
    loop {
        let leases = match conn.borrow_mut().request(&Request::StealJobs {
            max: cfg.steal_batch,
        }) {
            Ok(Event::Leases { leases }) => leases,
            // The daemon went away (shutdown, crash): the fleet's lease
            // table already recovered anything we held.
            Ok(_) | Err(_) => return Ok(stats),
        };
        if leases.is_empty() {
            if let Some(limit) = cfg.idle_exit {
                if last_lease.elapsed() >= limit {
                    // Final upstream before a clean exit, so the fleet
                    // table holds everything this connection counted.
                    let _ = push_metrics(&conn, tracker);
                    return Ok(stats);
                }
            }
            // Idling only long-polls, so this is the path that needs the
            // periodic push to keep the daemon's view fresh.
            if last_push.elapsed() >= push_every {
                last_push = Instant::now();
                if push_metrics(&conn, tracker).is_err() {
                    return Ok(stats);
                }
            }
            continue; // the server already long-polled; just ask again
        }
        last_lease = Instant::now();
        for lease in leases {
            if process_lease(&conn, &lease, modules, solver_cache, uploaded, &mut stats).is_err() {
                return Ok(stats);
            }
        }
        // Every lease completion carries the delta it just produced.
        last_push = Instant::now();
        if push_metrics(&conn, tracker).is_err() {
            return Ok(stats);
        }
    }
}

fn process_lease(
    conn: &RefCell<Conn>,
    lease: &LeasedJob,
    modules: &ModuleCache,
    solver_cache: &Arc<SharedQueryCache>,
    uploaded: &Uploaded,
    stats: &mut WorkerStats,
) -> io::Result<()> {
    // The worker-side half of the lease timeline: this span carries the
    // same `lease`/`trace` args as the daemon's retroactive `lease` span,
    // so a merged dump shows who held the subtree and for how long.
    let span = overify_obs::trace::span("execute")
        .arg("lease", lease.lease)
        .arg("name", &lease.spec.name)
        .arg("trace", format_args!("{:x}", lease.trace));
    let report = match cached_module(modules, lease) {
        Some(module) => {
            let report = explore(conn, lease, &module, solver_cache, stats)?;
            // Only genuinely explored subtrees count as stolen — the CI
            // canary's --expect-steals must not be satisfiable by a
            // worker that bounces everything.
            stats.stolen += 1;
            static STOLEN: LazyCounter = LazyCounter::new("overify_worker_stolen_total");
            STOLEN.inc();
            report
        }
        None => {
            // The module does not build here (should be impossible — the
            // daemon compiled the same source — but a version-skewed
            // worker must not eat the subtree): return the job whole and
            // complete with the merge identity.
            stats.bounced += 1;
            static BOUNCED: LazyCounter = LazyCounter::new("overify_worker_bounced_total");
            BOUNCED.inc();
            overify_obs::warn!(
                "worker",
                "lease {}: module failed to build here, returned whole",
                lease.lease
            );
            offer(conn, lease.lease, lease.prefix.clone())?;
            VerificationReport {
                exhausted: true,
                ..Default::default()
            }
        }
    };
    drop(span);
    // Piggyback every verdict this process derived since its last upload.
    // (The set is marked before the round-trip: if the frame is lost the
    // connection is dead anyway, and a duplicate upload would merely be
    // ignored by the daemon's insert-if-absent fold.)
    let cache_delta = {
        let mut seen = uploaded.lock().unwrap();
        let delta = solver_cache.snapshot_if(|fp| !seen.contains(&fp));
        seen.extend(delta.iter().map(|&(fp, _)| fp));
        delta
    };
    stats.verdicts_uploaded += cache_delta.len() as u64;
    static VERDICTS: LazyCounter = LazyCounter::new("overify_worker_verdicts_uploaded_total");
    VERDICTS.add(cache_delta.len() as u64);
    match conn.borrow_mut().request(&Request::JobDone {
        lease: lease.lease,
        trace: lease.trace,
        report,
        cache_delta,
    })? {
        Event::JobAck { .. } => Ok(()),
        other => Err(unexpected("JobAck", &other)),
    }
}

fn cached_module(modules: &ModuleCache, lease: &LeasedJob) -> Option<Arc<Module>> {
    let key = (
        lease.spec.source.clone(),
        overify_store::artifact::level_tag(lease.spec.level),
    );
    if let Some(m) = modules.lock().unwrap().get(&key) {
        return Some(m.clone());
    }
    let prepared = prepare_job(&lease.spec.to_suite_job(), false).ok()?;
    let module = Arc::new(prepared.module);
    modules.lock().unwrap().insert(key, module.clone());
    Some(module)
}

fn offer(conn: &RefCell<Conn>, lease: u64, prefix: Vec<bool>) -> io::Result<u32> {
    match conn.borrow_mut().request(&Request::OfferStates {
        lease,
        prefixes: vec![prefix],
    })? {
        Event::StatesAccepted { accepted } => Ok(accepted),
        other => Err(unexpected("StatesAccepted", &other)),
    }
}

fn explore(
    conn: &RefCell<Conn>,
    lease: &LeasedJob,
    module: &Module,
    solver_cache: &Arc<SharedQueryCache>,
    stats: &mut WorkerStats,
) -> io::Result<VerificationReport> {
    let mut ex = Executor::new(module, lease.spec.cfg.clone());
    if lease.spec.cfg.solver.use_shared_cache {
        ex.attach_shared_cache(solver_cache.clone());
    }
    let Some(init) = ex.initial_state(&lease.spec.entry) else {
        // Missing entry: the daemon's local workers drain the run the
        // same way; return the job and contribute the merge identity.
        offer(conn, lease.lease, lease.prefix.clone())?;
        return Ok(VerificationReport {
            exhausted: true,
            ..Default::default()
        });
    };
    let hooks = ShedHooks {
        conn,
        lease: lease.lease,
        remaining: Cell::new(lease.shed),
        broken: Cell::new(false),
        returned: Cell::new(0),
    };
    ex.run_job(init, &lease.prefix, &hooks);
    stats.states_returned += hooks.returned.get();
    static RETURNED: LazyCounter = LazyCounter::new("overify_worker_states_returned_total");
    RETURNED.add(hooks.returned.get());
    if hooks.broken.get() {
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "connection broke while shedding states",
        ));
    }
    Ok(ex.finish())
}

/// Donation hooks for a leased subtree: the executor's between-path
/// donation loop sheds the oldest pending states — the ones nearest the
/// root, hence the biggest subtrees — back to the dispatcher, up to the
/// lease's `shed` budget. The dispatcher buffers shed states with the
/// lease and releases them to the fleet when it completes (transactional
/// against this worker crashing); since this worker excludes them from
/// its own exploration, its lease ends sooner and the big subtrees
/// parallelize instead of serializing on one worker.
struct ShedHooks<'a> {
    conn: &'a RefCell<Conn>,
    lease: u64,
    remaining: Cell<u32>,
    broken: Cell<bool>,
    returned: Cell<u64>,
}

impl ExploreHooks for ShedHooks<'_> {
    fn hungry(&self) -> bool {
        self.remaining.get() > 0 && !self.broken.get()
    }

    fn donate(&self, prefix: Vec<bool>) -> bool {
        match offer(self.conn, self.lease, prefix) {
            Ok(1) => {
                self.remaining.set(self.remaining.get() - 1);
                self.returned.set(self.returned.get() + 1);
                true
            }
            Ok(_) => {
                // The dispatcher declined (lease raced away): stop
                // shedding, keep exploring locally.
                self.remaining.set(0);
                false
            }
            Err(_) => {
                self.broken.set(true);
                false
            }
        }
    }
}
