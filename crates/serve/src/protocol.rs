//! The wire protocol: length-prefixed binary frames over a local TCP
//! stream, in the style of `overify_store::codec` — no serde, no external
//! dependencies, every read tolerant of truncation.
//!
//! Framing:
//!
//! ```text
//! frame:  len u32 (LE) | payload (len bytes)
//! ```
//!
//! Every stream is no-delay ([`nodelay`]): writers batch on their own,
//! appending the frames of one burst ([`append_frame`], [`write_burst`])
//! and flushing once, so a small frame never waits on the peer's delayed
//! ACK.
//!
//! The first frame on every connection is the server's [`Event::Hello`]
//! (magic + protocol version), so a client talking to the wrong port or
//! the wrong build fails the handshake instead of mis-decoding. After
//! that, the client sends [`Request`] frames and the server streams
//! [`Event`] frames; submissions are pipelined and events carry the job id
//! they belong to, so one connection can have many jobs in flight.
//!
//! **Version 2** adds the worker side of the protocol: a remote worker
//! process attaches with [`Request::AttachWorker`], long-polls
//! [`Request::StealJobs`] for leases of path-level subtree jobs (a
//! [`JobSpec`] plus a replayable branch-decision trace), sheds frontier
//! states back mid-subtree with [`Request::OfferStates`], and completes a
//! lease with [`Request::JobDone`] carrying its partial
//! [`overify::VerificationReport`]. Decision traces are bit-packed by
//! [`encode_trace`] / [`decode_trace`].
//!
//! **Version 3** makes content addressing function-grained: outcomes
//! carry [`JobOutcome::from_slice`] (the answer was spliced from a stored
//! function-slice verdict after the whole-module key missed), and stats
//! snapshots carry the daemon's splice counter plus the store's
//! slice-grain counters.
//!
//! **Version 4** turns the fleet into a cache-learning fabric:
//! [`Request::JobDone`] piggybacks the worker's solver-cache delta (the
//! verdicts it derived while exploring its subtree), so a daemon folds
//! remote SAT work into its warm cache and persists it for every future
//! run. Stats snapshots grow the fabric counters — reaped leases, stale
//! frames from reaped leases, upstreamed verdicts, and the store's
//! live-tailed entry count.
//!
//! **Version 6** is the fleet telemetry plane: workers periodically
//! upstream delta-encoded metrics snapshots with [`Request::MetricsPush`]
//! (answered [`Event::MetricsAck`]), the daemon folds them into
//! per-worker tables plus a fleet rollup, and [`Request::Metrics`] gains
//! a [`MetricsScope`] selecting the daemon's own registry, one worker's
//! table, or the whole-fleet view. Outcomes carry the run's resource
//! ledger ([`JobOutcome::ledger`]) and metrics answers carry the slow-
//! query log, so a scrape sees where every run's time went.
//!
//! **Version 7** is admission control for the public gateway tier:
//! submissions carry a tenant key ([`Request::Submit`]'s `tenant`) that
//! feeds the scheduler's per-tenant fairness, a daemon at its connection
//! cap answers the handshake with [`Event::Busy`] instead of `Hello`, a
//! full bounded queue sheds a submission with [`Event::Shed`] (both carry
//! an explicit retry hint), and outcomes carry the store key of the
//! verdict that answered them ([`JobOutcome::verdict_key`]) so a front
//! end can point at the artifact without recomputing content addresses.
//!
//! Every decode failure is a typed [`ProtocolError`] — oversized frames,
//! unknown tags, truncated payloads and trailing garbage are distinct,
//! diagnosable conditions, never a blind read.
//!
//! Verification reports travel in the *report-artifact* encoding
//! ([`overify_store::artifact::encode_report`]): a report round-trips
//! bit-identically whether it comes from the store or over the wire —
//! which is what lets the warm-resubmit tests compare them byte for byte.

use overify::{
    DonationPolicy, OptLevel, SearchStrategy, StoreStats, SuiteJob, SuiteJobResult, SymArg,
    SymConfig, VerificationReport,
};
use overify_store::artifact::{decode_report, encode_report, level_from_tag, level_tag};
use overify_store::codec::{Reader, Writer};
use overify_symex::{CachedVerdict, Model};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// Handshake magic: the first bytes of every connection's `Hello` frame.
pub const MAGIC: &[u8; 8] = b"OVFYSRV\0";
/// Protocol version; both sides must match exactly. v2 added the
/// worker-attachment frames (frontier sharding across processes); v3 the
/// function-slice splice fields in outcomes and stats; v4 the solver-cache
/// delta on `JobDone` and the fabric stats fields; v5 the `Metrics`
/// introspection frames and the trace correlation ids on
/// `Submit`/`LeasedJob`/`JobDone`, so daemon and worker flight-recorder
/// spans stitch into one distributed timeline; v6 the fleet telemetry
/// plane — `MetricsPush` upstreaming, scoped `Metrics`, per-run ledgers
/// on outcomes and the slow-query log on metrics answers; v7 the
/// admission-control frames — tenant keys on `Submit`, `Busy` at the
/// connection cap, `Shed` from the bounded queue, and verdict store keys
/// on outcomes.
pub const VERSION: u32 = 7;
/// Upper bound on one frame (a full report sweep with collected tests fits
/// comfortably; anything bigger is a framing error, not a payload).
pub const MAX_FRAME: u32 = 1 << 26;

/// Everything that can go wrong turning wire bytes into protocol values.
/// Typed so peers (and tests) can tell an oversized frame from a
/// truncated payload from an unknown tag instead of pattern-matching
/// error strings.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed (includes EOF mid-frame).
    Io(io::Error),
    /// A frame length prefix exceeded [`MAX_FRAME`].
    Oversized { len: u32 },
    /// A payload ended before its frame was fully decoded, or carried a
    /// structurally invalid value.
    Malformed { what: &'static str },
    /// A frame led with a tag this build does not know.
    UnknownTag { what: &'static str, tag: u8 },
    /// A frame decoded completely but left unconsumed bytes.
    TrailingBytes {
        what: &'static str,
        remaining: usize,
    },
    /// A `Hello` frame without the handshake magic: not an overify-serve
    /// peer at all.
    BadMagic,
    /// The peer speaks a different protocol version.
    VersionSkew { peer: u32, ours: u32 },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::Malformed { what } => write!(f, "malformed {what} frame"),
            ProtocolError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag}")
            }
            ProtocolError::TrailingBytes { what, remaining } => {
                write!(f, "{what} frame has {remaining} trailing byte(s)")
            }
            ProtocolError::BadMagic => write!(f, "handshake magic mismatch"),
            ProtocolError::VersionSkew { peer, ours } => {
                write!(f, "peer speaks protocol v{peer}, this build v{ours}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> io::Error {
        match e {
            ProtocolError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Turns Nagle's algorithm off on a stream of this stack, accepted or
/// opened. Frames are small and every exchange is request/response or
/// an event burst; with Nagle on, a small write that follows another one
/// still unacknowledged waits for the peer's delayed ACK (40 ms and more
/// on Linux).
pub fn nodelay(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Appends one length-prefixed frame to `w` without flushing it: the
/// caller flushes once per burst. An oversized payload is rejected before
/// anything touches the writer (a half-written frame would desync the
/// stream).
pub fn append_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() > MAX_FRAME as usize {
        return Err(ProtocolError::Oversized {
            len: payload.len().min(u32::MAX as usize) as u32,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Writes one length-prefixed frame and flushes it: a burst of one, for
/// request/response exchanges.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    append_frame(w, payload)?;
    w.flush()?;
    Ok(())
}

/// Writes `first` and then every event already waiting on `rx` as one
/// burst, flushing once at the end, so events produced together (a
/// `Scheduled` and its first `Progress`, a `Report` and its followers'
/// `Report`s) leave in one segment and one syscall. Events keep their
/// channel order. Returns whether the burst carried an
/// [`Event::ShuttingDown`], which is on the wire once this returns `Ok`.
pub fn write_burst(
    w: &mut impl Write,
    first: Event,
    rx: &Receiver<Event>,
) -> Result<bool, ProtocolError> {
    let mut shutdown = false;
    let mut next = Some(first);
    while let Some(ev) = next {
        shutdown |= matches!(ev, Event::ShuttingDown);
        append_frame(w, &encode_event(&ev))?;
        next = rx.try_recv().ok();
    }
    w.flush()?;
    Ok(shutdown)
}

/// Reads one length-prefixed frame, rejecting oversized lengths before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len });
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Bit-packs a branch-decision trace: u32 length followed by the
/// decisions eight per byte, LSB first. The canonical wire form of a
/// path-level subtree job.
pub fn encode_trace(w: &mut Writer, trace: &[bool]) {
    w.u32(trace.len() as u32);
    for chunk in trace.chunks(8) {
        let mut b = 0u8;
        for (i, &d) in chunk.iter().enumerate() {
            b |= (d as u8) << i;
        }
        w.u8(b);
    }
}

/// Inverse of [`encode_trace`]. Strict: padding bits in the final byte
/// must be zero, so every trace has exactly one encoding (`None`
/// otherwise, or on truncation).
pub fn decode_trace(r: &mut Reader) -> Option<Vec<bool>> {
    let n = r.u32()? as usize;
    // A hostile length prefix must not allocate ahead of the bytes that
    // are actually present.
    if n.div_ceil(8) > r.remaining() {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for chunk_start in (0..n).step_by(8) {
        let byte = r.u8()?;
        let bits = (n - chunk_start).min(8);
        if bits < 8 && byte >> bits != 0 {
            return None; // nonzero padding: not a canonical encoding
        }
        for i in 0..bits {
            out.push((byte >> i) & 1 == 1);
        }
    }
    Some(out)
}

/// One verification job as submitted over the wire: a [`SuiteJob`] with
/// the build reduced to its optimization level (wire jobs always use the
/// level's default libc and linking — the suite convention).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    pub name: String,
    pub source: String,
    pub entry: String,
    pub level: OptLevel,
    pub bytes: Vec<usize>,
    pub path_workers: usize,
    pub cfg: SymConfig,
}

impl JobSpec {
    /// A spec from a suite job (custom build overrides — cost models,
    /// forced libcs — are not wire-expressible and are dropped).
    pub fn from_suite_job(job: &SuiteJob) -> JobSpec {
        JobSpec {
            name: job.name.clone(),
            source: job.source.clone(),
            entry: job.entry.clone(),
            level: job.opts.level,
            bytes: job.bytes.clone(),
            path_workers: job.path_workers,
            cfg: job.cfg.clone(),
        }
    }

    /// The suite job this spec describes.
    pub fn to_suite_job(&self) -> SuiteJob {
        SuiteJob {
            name: self.name.clone(),
            source: self.source.clone(),
            entry: self.entry.clone(),
            opts: overify::BuildOptions::level(self.level),
            bytes: self.bytes.clone(),
            cfg: self.cfg.clone(),
            path_workers: self.path_workers,
        }
    }
}

/// Which metrics table a [`Request::Metrics`] asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricsScope {
    /// The daemon's own registry (plus its stats snapshot) — exactly what
    /// pre-v6 `Metrics` returned.
    Daemon,
    /// The whole-fleet view: the daemon's registry, a rollup of every
    /// worker's folded table, per-worker labeled series, ring-derived
    /// rates/quantiles and the health summary gauges.
    Fleet,
    /// One attached worker's folded table, by its `AttachWorker` name.
    Worker(String),
}

/// Client → server messages.
// (The size skew between Submit and the flag variants is fine: requests
// are built once per submission, never stored in bulk.)
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job; the server responds with a stream of events for it.
    /// `trace` is the client's correlation id for the whole run (its run
    /// fingerprint); the daemon tags the job's spans with it and forwards
    /// it on every lease cut from the job. `tenant` is the admission-
    /// control key: jobs compete cost-first *within* a tenant, and the
    /// scheduler round-robins across tenants (empty = the shared tenant,
    /// what every pre-gateway client sends).
    Submit {
        spec: JobSpec,
        trace: u64,
        tenant: String,
    },
    /// Ask for a server statistics snapshot.
    Stats,
    /// Ask for a metrics snapshot in the text exposition format, at the
    /// requested [`MetricsScope`]. Answered with [`Event::Metrics`].
    Metrics { scope: MetricsScope },
    /// Ask the server to drain and exit.
    Shutdown,
    /// Switch this connection into worker mode: the peer is a remote
    /// verification worker offering its cores to the dispatcher. Answered
    /// with [`Event::WorkerAttached`].
    AttachWorker {
        /// Display name for logs/diagnostics (hostname, pid, …).
        name: String,
    },
    /// Ask for up to `max` subtree-job leases. The server long-polls —
    /// the request registers as *hunger*, making busy path workers donate
    /// frontier states — and answers [`Event::Leases`] (possibly empty
    /// after a bounded wait; the worker simply asks again).
    StealJobs { max: u32 },
    /// Shed frontier states from a leased subtree back to the dispatcher,
    /// as decision traces. Each accepted state becomes a fresh live job
    /// other workers (local or remote) can pick up. Answered with
    /// [`Event::StatesAccepted`].
    OfferStates {
        lease: u64,
        prefixes: Vec<Vec<bool>>,
    },
    /// Complete a lease: the partial report of the explored subtree
    /// (minus anything shed back) enters the run's deterministic merge.
    /// `cache_delta` piggybacks the solver verdicts the worker derived
    /// while exploring — the daemon folds them into its warm cache and
    /// persists them, so one worker's SAT work warms the whole fleet.
    /// Deltas are absorbed even when the lease itself is stale (a verdict
    /// is sound regardless of lease bookkeeping). Answered with
    /// [`Event::JobAck`].
    JobDone {
        lease: u64,
        /// The correlation id the lease carried ([`LeasedJob::trace`]),
        /// echoed back so the daemon's completion span joins the same
        /// timeline as the worker's `execute` span.
        trace: u64,
        report: VerificationReport,
        cache_delta: Vec<(u128, CachedVerdict)>,
    },
    /// Upstream this worker's metrics since its last push: a delta-encoded
    /// registry snapshot in the text exposition format (counters and
    /// histogram buckets as increments, gauges absolute — the
    /// `overify_obs::metrics::DeltaTracker` encoding) plus its slow-query
    /// log `(fingerprint, nanoseconds)` entries. The daemon folds the text
    /// into the worker's table and the fleet rollup. Answered with
    /// [`Event::MetricsAck`].
    MetricsPush {
        text: String,
        slow: Vec<(u128, u64)>,
    },
}

/// One subtree job leased to a remote worker: everything needed to
/// reproduce the exact run — the spec (source, level, entry, per-run
/// config with `input_bytes` already set) plus the branch-decision prefix
/// to replay. `shed` is the dispatcher's hint for how many frontier
/// states the worker should offer back while exploring, so one stolen
/// subtree cannot serialize the fleet.
#[derive(Clone, Debug, PartialEq)]
pub struct LeasedJob {
    pub lease: u64,
    /// Correlation id propagated from the originating submission
    /// ([`Request::Submit`]'s `trace`): the worker tags its `execute`
    /// span with it, so one run's spans line up across processes.
    pub trace: u64,
    pub spec: JobSpec,
    pub prefix: Vec<bool>,
    pub shed: u32,
}

/// A server statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStatsSnapshot {
    /// Jobs received over all connections.
    pub submitted: u64,
    /// Jobs answered immediately from the report store (either grain).
    pub answered_from_store: u64,
    /// The subset of `answered_from_store` answered by splicing a stored
    /// **function-slice** verdict: the whole-module key missed but the
    /// entry's dependency slice was unchanged.
    pub answered_spliced: u64,
    /// Jobs handed to the executor pool.
    pub executed: u64,
    /// Jobs waiting in the scheduler right now.
    pub queued: u64,
    /// Jobs running right now.
    pub active: u64,
    /// Remote worker connections currently attached.
    pub workers: u64,
    /// Subtree jobs leased to remote workers over the server's lifetime.
    pub remote_leases: u64,
    /// Frontier states remote workers shed back mid-subtree.
    pub remote_states: u64,
    /// Leases restored to their frontier after a worker vanished.
    pub leases_recovered: u64,
    /// Leases whose deadline expired and whose subtree was restored to
    /// the frontier while the worker was still (nominally) connected.
    pub leases_reaped: u64,
    /// Frames that arrived for a lease already reaped or completed and
    /// were ignored.
    pub stale_frames: u64,
    /// Solver verdicts workers piggybacked on `JobDone` that were new to
    /// the daemon's warm cache.
    pub verdicts_upstreamed: u64,
    /// Persistent-store counters (zeroes when the server runs storeless).
    pub store: StoreStats,
}

impl std::fmt::Display for ServeStatsSnapshot {
    /// Renders in the same text exposition format as the metrics
    /// endpoint: `# TYPE` lines plus `name value` samples, stable order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let samples: [(&str, u64); 23] = [
            ("overify_serve_active", self.active),
            (
                "overify_serve_answered_from_store",
                self.answered_from_store,
            ),
            ("overify_serve_answered_spliced", self.answered_spliced),
            ("overify_serve_executed", self.executed),
            ("overify_serve_leases_reaped", self.leases_reaped),
            ("overify_serve_leases_recovered", self.leases_recovered),
            ("overify_serve_queued", self.queued),
            ("overify_serve_remote_leases", self.remote_leases),
            ("overify_serve_remote_states", self.remote_states),
            ("overify_serve_stale_frames", self.stale_frames),
            ("overify_serve_submitted", self.submitted),
            (
                "overify_serve_verdicts_upstreamed",
                self.verdicts_upstreamed,
            ),
            ("overify_serve_workers", self.workers),
            (
                "overify_store_log_bytes_dropped",
                self.store.log_bytes_dropped,
            ),
            ("overify_store_report_hits", self.store.report_hits),
            ("overify_store_report_misses", self.store.report_misses),
            ("overify_store_reports_saved", self.store.reports_saved),
            ("overify_store_slices_saved", self.store.slices_saved),
            (
                "overify_store_solver_entries_loaded",
                self.store.solver_entries_loaded,
            ),
            (
                "overify_store_solver_entries_saved",
                self.store.solver_entries_saved,
            ),
            (
                "overify_store_solver_entries_tailed",
                self.store.solver_entries_tailed,
            ),
            ("overify_store_splice_hits", self.store.splice_hits),
            ("overify_store_splice_misses", self.store.splice_misses),
        ];
        for (name, value) in samples {
            // Live levels are gauges; lifetime totals are counters.
            let kind = match name {
                "overify_serve_active" | "overify_serve_queued" | "overify_serve_workers" => {
                    "gauge"
                }
                _ => "counter",
            };
            writeln!(f, "# TYPE {name} {kind}")?;
            writeln!(f, "{name} {value}")?;
        }
        Ok(())
    }
}

/// The store address of the verdict that answered a job: which artifact
/// class it lives in, the content fingerprint and the budget signature.
/// Together with the outcome's level this names exactly one artifact
/// file, so a front end (the gateway's registry, a job record's verdict
/// pointer) can reference the stored proof without recompiling anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictKey {
    /// True when the verdict is a function-slice artifact (`slices/`),
    /// false for a whole-module report (`reports/`).
    pub slice: bool,
    /// Module or slice content fingerprint.
    pub fp: u128,
    /// Byte-budget signature the verdict was computed under.
    pub budget_sig: u128,
}

/// The outcome of one job, as it travels the wire. Field-for-field a
/// [`SuiteJobResult`] (compile time in nanoseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    pub name: String,
    pub level: OptLevel,
    pub compile_nanos: u64,
    pub from_store: bool,
    pub from_slice: bool,
    pub error: Option<String>,
    pub runs: Vec<(usize, overify::VerificationReport)>,
    /// The run's resource ledger ([`overify::RunLedger`]): where its
    /// verification effort went, including which remote workers
    /// contributed. `None` on build failure.
    pub ledger: Option<overify::RunLedger>,
    /// Where the answering verdict lives in the store (`None` on build
    /// failure, or when the daemon runs storeless).
    pub verdict_key: Option<VerdictKey>,
}

impl JobOutcome {
    /// Wraps a finished suite result.
    pub fn from_result(r: &SuiteJobResult) -> JobOutcome {
        JobOutcome {
            name: r.name.clone(),
            level: r.level,
            compile_nanos: r.compile_time.as_nanos().min(u64::MAX as u128) as u64,
            from_store: r.from_store,
            from_slice: r.from_slice,
            error: r.error.clone(),
            runs: r.runs.clone(),
            ledger: r.ledger.clone(),
            // Suite results carry no store address; the daemon stamps the
            // key on after it knows which artifact answered the job.
            verdict_key: None,
        }
    }

    /// Unwraps into the suite result type.
    pub fn into_result(self) -> SuiteJobResult {
        SuiteJobResult {
            name: self.name,
            level: self.level,
            compile_time: Duration::from_nanos(self.compile_nanos),
            runs: self.runs,
            error: self.error,
            from_store: self.from_store,
            from_slice: self.from_slice,
            ledger: self.ledger,
        }
    }
}

/// Server → client messages. Every job-scoped event carries its job id;
/// ids are assigned by the server and echoed in submission order per
/// connection, so a pipelining client can demultiplex.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Connection handshake (always the first frame).
    Hello { version: u32 },
    /// The job missed the store and entered the scheduler.
    Queued {
        job: u64,
        /// Jobs ahead of it (including running ones) at enqueue time.
        position: u64,
        /// The scheduler's cost estimate (observed nanoseconds when the
        /// store has history for the key, a static estimate otherwise).
        predicted_cost: u128,
    },
    /// An executor picked the job up.
    Scheduled { job: u64 },
    /// Live counters of a running job (sampled; monotone per job).
    Progress {
        job: u64,
        runs_done: u32,
        runs_total: u32,
        paths: u64,
        bugs: u64,
        instructions: u64,
    },
    /// The job's final outcome (always the job's last event).
    Report { job: u64, outcome: JobOutcome },
    /// Answer to [`Request::Stats`].
    Stats(ServeStatsSnapshot),
    /// Answer to [`Request::Shutdown`]: the server is draining.
    ShuttingDown,
    /// Answer to [`Request::AttachWorker`]: the connection is now a
    /// worker, identified by `worker` in the dispatcher's lease table.
    WorkerAttached { worker: u64 },
    /// Answer to [`Request::StealJobs`]: zero or more subtree-job leases.
    Leases { leases: Vec<LeasedJob> },
    /// Answer to [`Request::OfferStates`]: how many of the shed states
    /// the dispatcher accepted (0 when the lease is gone — the worker
    /// keeps exploring what it still holds).
    StatesAccepted { accepted: u32 },
    /// Answer to [`Request::JobDone`]: the lease is retired.
    JobAck { lease: u64 },
    /// Answer to [`Request::Metrics`]: a metrics snapshot in the text
    /// exposition format (`overify_obs::metrics`) at the requested scope,
    /// plus the daemon's bounded slow-query log — the K worst SAT solves
    /// seen anywhere in the fleet, as `(fingerprint, nanoseconds)`.
    Metrics {
        text: String,
        slow: Vec<(u128, u64)>,
    },
    /// Answer to [`Request::MetricsPush`]: the delta was folded.
    MetricsAck,
    /// Sent *instead of* [`Event::Hello`] when the daemon is at its
    /// connection cap; the server closes the connection right after.
    /// `retry_after_ms` is the server's backoff hint.
    Busy { retry_after_ms: u64 },
    /// The submission was refused by the bounded scheduler (queue full).
    /// This is the job's final event — no `Report` follows. The client
    /// should retry the whole submission after `retry_after_ms`.
    Shed { job: u64, retry_after_ms: u64 },
}

fn encode_sym_config(w: &mut Writer, cfg: &SymConfig) {
    w.u64(cfg.input_bytes as u64);
    w.u32(cfg.extra_args.len() as u32);
    for a in &cfg.extra_args {
        match a {
            SymArg::Concrete(v) => {
                w.u8(0);
                w.u64(*v);
            }
            SymArg::Symbolic => w.u8(1),
        }
    }
    w.u8(cfg.pass_len_arg as u8);
    w.u64(cfg.max_paths);
    w.u64(cfg.max_instructions);
    w.u64(cfg.timeout.as_nanos().min(u64::MAX as u128) as u64);
    w.u8(cfg.collect_tests as u8);
    w.u8(cfg.use_annotations as u8);
    w.u8(cfg.solver.use_intervals as u8);
    w.u8(cfg.solver.use_cex_cache as u8);
    w.u8(cfg.solver.use_query_cache as u8);
    w.u8(cfg.solver.use_shared_cache as u8);
    w.u8(cfg.solver.use_enumeration as u8);
    match cfg.search {
        SearchStrategy::Dfs => w.u8(0),
        SearchStrategy::Bfs => w.u8(1),
        SearchStrategy::RandomState(seed) => {
            w.u8(2);
            w.u64(seed);
        }
    }
    match cfg.donation {
        DonationPolicy::OldestState => w.u8(0),
        DonationPolicy::StealHalf => w.u8(1),
    }
    w.u64(cfg.max_ite_span);
}

fn decode_sym_config(r: &mut Reader) -> Option<SymConfig> {
    let mut cfg = SymConfig {
        input_bytes: r.u64()? as usize,
        ..Default::default()
    };
    for _ in 0..r.u32()? {
        cfg.extra_args.push(match r.u8()? {
            0 => SymArg::Concrete(r.u64()?),
            1 => SymArg::Symbolic,
            _ => return None,
        });
    }
    cfg.pass_len_arg = r.u8()? != 0;
    cfg.max_paths = r.u64()?;
    cfg.max_instructions = r.u64()?;
    cfg.timeout = Duration::from_nanos(r.u64()?);
    cfg.collect_tests = r.u8()? != 0;
    cfg.use_annotations = r.u8()? != 0;
    cfg.solver.use_intervals = r.u8()? != 0;
    cfg.solver.use_cex_cache = r.u8()? != 0;
    cfg.solver.use_query_cache = r.u8()? != 0;
    cfg.solver.use_shared_cache = r.u8()? != 0;
    cfg.solver.use_enumeration = r.u8()? != 0;
    cfg.search = match r.u8()? {
        0 => SearchStrategy::Dfs,
        1 => SearchStrategy::Bfs,
        2 => SearchStrategy::RandomState(r.u64()?),
        _ => return None,
    };
    cfg.donation = match r.u8()? {
        0 => DonationPolicy::OldestState,
        1 => DonationPolicy::StealHalf,
        _ => return None,
    };
    cfg.max_ite_span = r.u64()?;
    Some(cfg)
}

/// Serializes a solver-cache delta: the same `(fingerprint, verdict)`
/// shape the store's solver log persists, with SAT models sorted so a
/// delta has exactly one wire form across `HashMap` iteration orders.
fn encode_verdicts(w: &mut Writer, entries: &[(u128, CachedVerdict)]) {
    w.u32(entries.len() as u32);
    for (fp, verdict) in entries {
        w.u128(*fp);
        match verdict {
            None => w.u8(0),
            Some(m) => {
                w.u8(1);
                let mut values: Vec<(u32, u64)> = m.values.iter().map(|(&k, &v)| (k, v)).collect();
                values.sort_unstable();
                w.u32(values.len() as u32);
                for (id, v) in values {
                    w.u32(id);
                    w.u64(v);
                }
            }
        }
    }
}

/// Inverse of [`encode_verdicts`].
fn decode_verdicts(r: &mut Reader) -> Option<Vec<(u128, CachedVerdict)>> {
    let n = r.u32()? as usize;
    // Each entry is at least fp + tag; a hostile count must not allocate
    // ahead of the bytes actually present.
    if n * 17 > r.remaining() {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let fp = r.u128()?;
        let verdict = match r.u8()? {
            0 => None,
            1 => {
                let count = r.u32()? as usize;
                if count * 12 > r.remaining() {
                    return None;
                }
                let mut m = Model::default();
                for _ in 0..count {
                    let id = r.u32()?;
                    let v = r.u64()?;
                    m.values.insert(id, v);
                }
                Some(m)
            }
            _ => return None,
        };
        out.push((fp, verdict));
    }
    Some(out)
}

/// Serializes a slow-query log: `(fingerprint, nanoseconds)` pairs.
fn encode_slow(w: &mut Writer, slow: &[(u128, u64)]) {
    w.u32(slow.len() as u32);
    for &(fp, ns) in slow {
        w.u128(fp);
        w.u64(ns);
    }
}

/// Inverse of [`encode_slow`].
fn decode_slow(r: &mut Reader) -> Option<Vec<(u128, u64)>> {
    let n = r.u32()? as usize;
    // Each entry is exactly fp + ns; a hostile count must not allocate
    // ahead of the bytes actually present.
    if n * 24 > r.remaining() {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u128()?, r.u64()?));
    }
    Some(out)
}

fn encode_scope(w: &mut Writer, scope: &MetricsScope) {
    match scope {
        MetricsScope::Daemon => w.u8(0),
        MetricsScope::Fleet => w.u8(1),
        MetricsScope::Worker(name) => {
            w.u8(2);
            w.str(name);
        }
    }
}

fn decode_scope(r: &mut Reader) -> Option<MetricsScope> {
    match r.u8()? {
        0 => Some(MetricsScope::Daemon),
        1 => Some(MetricsScope::Fleet),
        2 => Some(MetricsScope::Worker(r.str()?)),
        _ => None,
    }
}

fn encode_spec(w: &mut Writer, spec: &JobSpec) {
    w.str(&spec.name);
    w.str(&spec.source);
    w.str(&spec.entry);
    w.u8(level_tag(spec.level));
    w.u32(spec.bytes.len() as u32);
    for &b in &spec.bytes {
        w.u64(b as u64);
    }
    w.u64(spec.path_workers as u64);
    encode_sym_config(w, &spec.cfg);
}

/// Serializes a [`JobSpec`] to its canonical wire bytes. Public because
/// the gateway content-addresses submissions by hashing exactly these
/// bytes and persists them opaquely inside durable job records.
pub fn encode_spec_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut w = Writer::default();
    encode_spec(&mut w, spec);
    w.buf
}

/// Inverse of [`encode_spec_bytes`]; strict — every byte must be
/// consumed.
pub fn decode_spec_bytes(bytes: &[u8]) -> Option<JobSpec> {
    let mut r = Reader::new(bytes);
    let spec = decode_spec(&mut r)?;
    if r.remaining() != 0 {
        return None;
    }
    Some(spec)
}

fn decode_spec(r: &mut Reader) -> Option<JobSpec> {
    let name = r.str()?;
    let source = r.str()?;
    let entry = r.str()?;
    let level = level_from_tag(r.u8()?)?;
    let n = r.u32()?;
    let mut bytes = Vec::with_capacity(n as usize);
    for _ in 0..n {
        bytes.push(r.u64()? as usize);
    }
    Some(JobSpec {
        name,
        source,
        entry,
        level,
        bytes,
        path_workers: r.u64()? as usize,
        cfg: decode_sym_config(r)?,
    })
}

/// Serializes a request frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::default();
    match req {
        Request::Submit {
            spec,
            trace,
            tenant,
        } => {
            w.u8(0);
            w.u64(*trace);
            w.str(tenant);
            encode_spec(&mut w, spec);
        }
        Request::Stats => w.u8(1),
        Request::Shutdown => w.u8(2),
        Request::AttachWorker { name } => {
            w.u8(3);
            w.str(name);
        }
        Request::StealJobs { max } => {
            w.u8(4);
            w.u32(*max);
        }
        Request::OfferStates { lease, prefixes } => {
            w.u8(5);
            w.u64(*lease);
            w.u32(prefixes.len() as u32);
            for p in prefixes {
                encode_trace(&mut w, p);
            }
        }
        Request::JobDone {
            lease,
            trace,
            report,
            cache_delta,
        } => {
            w.u8(6);
            w.u64(*lease);
            w.u64(*trace);
            encode_report(&mut w, report);
            encode_verdicts(&mut w, cache_delta);
        }
        Request::Metrics { scope } => {
            w.u8(7);
            encode_scope(&mut w, scope);
        }
        Request::MetricsPush { text, slow } => {
            w.u8(8);
            w.str(text);
            encode_slow(&mut w, slow);
        }
    }
    w.buf
}

/// Finishes a frame decode: the value must exist and consume every byte.
fn seal_decode<T>(what: &'static str, value: Option<T>, r: &Reader) -> Result<T, ProtocolError> {
    match value {
        Some(v) if r.remaining() == 0 => Ok(v),
        Some(_) => Err(ProtocolError::TrailingBytes {
            what,
            remaining: r.remaining(),
        }),
        None => Err(ProtocolError::Malformed { what }),
    }
}

/// Deserializes a request frame payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader::new(bytes);
    let Some(tag) = r.u8() else {
        return Err(ProtocolError::Malformed { what: "request" });
    };
    let req = match tag {
        0 => (|| {
            let trace = r.u64()?;
            let tenant = r.str()?;
            Some(Request::Submit {
                spec: decode_spec(&mut r)?,
                trace,
                tenant,
            })
        })(),
        1 => Some(Request::Stats),
        2 => Some(Request::Shutdown),
        3 => r.str().map(|name| Request::AttachWorker { name }),
        4 => r.u32().map(|max| Request::StealJobs { max }),
        5 => (|| {
            let lease = r.u64()?;
            let n = r.u32()? as usize;
            if n * 4 > r.remaining() {
                return None; // each trace is at least a length prefix
            }
            let mut prefixes = Vec::with_capacity(n);
            for _ in 0..n {
                prefixes.push(decode_trace(&mut r)?);
            }
            Some(Request::OfferStates { lease, prefixes })
        })(),
        6 => (|| {
            Some(Request::JobDone {
                lease: r.u64()?,
                trace: r.u64()?,
                report: decode_report(&mut r)?,
                cache_delta: decode_verdicts(&mut r)?,
            })
        })(),
        7 => decode_scope(&mut r).map(|scope| Request::Metrics { scope }),
        8 => (|| {
            Some(Request::MetricsPush {
                text: r.str()?,
                slow: decode_slow(&mut r)?,
            })
        })(),
        tag => {
            return Err(ProtocolError::UnknownTag {
                what: "request",
                tag,
            })
        }
    };
    seal_decode("request", req, &r)
}

fn encode_outcome(w: &mut Writer, o: &JobOutcome) {
    w.str(&o.name);
    w.u8(level_tag(o.level));
    w.u64(o.compile_nanos);
    w.u8(o.from_store as u8);
    w.u8(o.from_slice as u8);
    match &o.error {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            w.str(e);
        }
    }
    w.u32(o.runs.len() as u32);
    for (bytes, report) in &o.runs {
        w.u64(*bytes as u64);
        encode_report(w, report);
    }
    match &o.ledger {
        None => w.u8(0),
        Some(l) => {
            w.u8(1);
            overify_store::ledger::encode_ledger(w, l);
        }
    }
    match &o.verdict_key {
        None => w.u8(0),
        Some(k) => {
            w.u8(1);
            w.u8(k.slice as u8);
            w.u128(k.fp);
            w.u128(k.budget_sig);
        }
    }
}

fn decode_outcome(r: &mut Reader) -> Option<JobOutcome> {
    let name = r.str()?;
    let level = level_from_tag(r.u8()?)?;
    let compile_nanos = r.u64()?;
    let from_store = r.u8()? != 0;
    let from_slice = r.u8()? != 0;
    let error = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        _ => return None,
    };
    let n = r.u32()?;
    let mut runs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let bytes = r.u64()? as usize;
        runs.push((bytes, decode_report(r)?));
    }
    let ledger = match r.u8()? {
        0 => None,
        1 => Some(overify_store::ledger::decode_ledger(r)?),
        _ => return None,
    };
    let verdict_key = match r.u8()? {
        0 => None,
        1 => {
            let slice = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            Some(VerdictKey {
                slice,
                fp: r.u128()?,
                budget_sig: r.u128()?,
            })
        }
        _ => return None,
    };
    Some(JobOutcome {
        name,
        level,
        compile_nanos,
        from_store,
        from_slice,
        error,
        runs,
        ledger,
        verdict_key,
    })
}

fn encode_stats(w: &mut Writer, s: &ServeStatsSnapshot) {
    for v in [
        s.submitted,
        s.answered_from_store,
        s.answered_spliced,
        s.executed,
        s.queued,
        s.active,
        s.workers,
        s.remote_leases,
        s.remote_states,
        s.leases_recovered,
        s.leases_reaped,
        s.stale_frames,
        s.verdicts_upstreamed,
        s.store.report_hits,
        s.store.report_misses,
        s.store.reports_saved,
        s.store.splice_hits,
        s.store.splice_misses,
        s.store.slices_saved,
        s.store.solver_entries_loaded,
        s.store.solver_entries_saved,
        s.store.solver_entries_tailed,
        s.store.log_bytes_dropped,
    ] {
        w.u64(v);
    }
}

fn decode_stats(r: &mut Reader) -> Option<ServeStatsSnapshot> {
    Some(ServeStatsSnapshot {
        submitted: r.u64()?,
        answered_from_store: r.u64()?,
        answered_spliced: r.u64()?,
        executed: r.u64()?,
        queued: r.u64()?,
        active: r.u64()?,
        workers: r.u64()?,
        remote_leases: r.u64()?,
        remote_states: r.u64()?,
        leases_recovered: r.u64()?,
        leases_reaped: r.u64()?,
        stale_frames: r.u64()?,
        verdicts_upstreamed: r.u64()?,
        store: StoreStats {
            report_hits: r.u64()?,
            report_misses: r.u64()?,
            reports_saved: r.u64()?,
            splice_hits: r.u64()?,
            splice_misses: r.u64()?,
            slices_saved: r.u64()?,
            solver_entries_loaded: r.u64()?,
            solver_entries_saved: r.u64()?,
            solver_entries_tailed: r.u64()?,
            log_bytes_dropped: r.u64()?,
        },
    })
}

/// Serializes an event frame payload.
pub fn encode_event(ev: &Event) -> Vec<u8> {
    let mut w = Writer::default();
    match ev {
        Event::Hello { version } => {
            w.u8(0);
            w.buf.extend_from_slice(MAGIC);
            w.u32(*version);
        }
        Event::Queued {
            job,
            position,
            predicted_cost,
        } => {
            w.u8(1);
            w.u64(*job);
            w.u64(*position);
            w.u128(*predicted_cost);
        }
        Event::Scheduled { job } => {
            w.u8(2);
            w.u64(*job);
        }
        Event::Progress {
            job,
            runs_done,
            runs_total,
            paths,
            bugs,
            instructions,
        } => {
            w.u8(3);
            w.u64(*job);
            w.u32(*runs_done);
            w.u32(*runs_total);
            w.u64(*paths);
            w.u64(*bugs);
            w.u64(*instructions);
        }
        Event::Report { job, outcome } => {
            w.u8(4);
            w.u64(*job);
            encode_outcome(&mut w, outcome);
        }
        Event::Stats(s) => {
            w.u8(5);
            encode_stats(&mut w, s);
        }
        Event::ShuttingDown => w.u8(6),
        Event::WorkerAttached { worker } => {
            w.u8(7);
            w.u64(*worker);
        }
        Event::Leases { leases } => {
            w.u8(8);
            w.u32(leases.len() as u32);
            for l in leases {
                w.u64(l.lease);
                w.u64(l.trace);
                encode_spec(&mut w, &l.spec);
                encode_trace(&mut w, &l.prefix);
                w.u32(l.shed);
            }
        }
        Event::StatesAccepted { accepted } => {
            w.u8(9);
            w.u32(*accepted);
        }
        Event::JobAck { lease } => {
            w.u8(10);
            w.u64(*lease);
        }
        Event::Metrics { text, slow } => {
            w.u8(11);
            w.str(text);
            encode_slow(&mut w, slow);
        }
        Event::MetricsAck => w.u8(12),
        Event::Busy { retry_after_ms } => {
            w.u8(13);
            w.u64(*retry_after_ms);
        }
        Event::Shed {
            job,
            retry_after_ms,
        } => {
            w.u8(14);
            w.u64(*job);
            w.u64(*retry_after_ms);
        }
    }
    w.buf
}

/// Deserializes an event frame payload.
pub fn decode_event(bytes: &[u8]) -> Result<Event, ProtocolError> {
    let mut r = Reader::new(bytes);
    let Some(tag) = r.u8() else {
        return Err(ProtocolError::Malformed { what: "event" });
    };
    let ev = match tag {
        0 => {
            let magic = r.bytes_exact(MAGIC.len());
            match magic {
                Some(m) if m == &MAGIC[..] => r.u32().map(|version| Event::Hello { version }),
                Some(_) => return Err(ProtocolError::BadMagic),
                None => None,
            }
        }
        1 => (|| {
            Some(Event::Queued {
                job: r.u64()?,
                position: r.u64()?,
                predicted_cost: r.u128()?,
            })
        })(),
        2 => r.u64().map(|job| Event::Scheduled { job }),
        3 => (|| {
            Some(Event::Progress {
                job: r.u64()?,
                runs_done: r.u32()?,
                runs_total: r.u32()?,
                paths: r.u64()?,
                bugs: r.u64()?,
                instructions: r.u64()?,
            })
        })(),
        4 => (|| {
            Some(Event::Report {
                job: r.u64()?,
                outcome: decode_outcome(&mut r)?,
            })
        })(),
        5 => decode_stats(&mut r).map(Event::Stats),
        6 => Some(Event::ShuttingDown),
        7 => r.u64().map(|worker| Event::WorkerAttached { worker }),
        8 => (|| {
            let n = r.u32()? as usize;
            if n * 8 > r.remaining() {
                return None; // each lease is far bigger than its id alone
            }
            let mut leases = Vec::with_capacity(n);
            for _ in 0..n {
                leases.push(LeasedJob {
                    lease: r.u64()?,
                    trace: r.u64()?,
                    spec: decode_spec(&mut r)?,
                    prefix: decode_trace(&mut r)?,
                    shed: r.u32()?,
                });
            }
            Some(Event::Leases { leases })
        })(),
        9 => r.u32().map(|accepted| Event::StatesAccepted { accepted }),
        10 => r.u64().map(|lease| Event::JobAck { lease }),
        11 => (|| {
            Some(Event::Metrics {
                text: r.str()?,
                slow: decode_slow(&mut r)?,
            })
        })(),
        12 => Some(Event::MetricsAck),
        13 => r.u64().map(|retry_after_ms| Event::Busy { retry_after_ms }),
        14 => (|| {
            Some(Event::Shed {
                job: r.u64()?,
                retry_after_ms: r.u64()?,
            })
        })(),
        tag => return Err(ProtocolError::UnknownTag { what: "event", tag }),
    };
    seal_decode("event", ev, &r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overify::{Bug, BugKind, SolverStats, VerificationReport};

    fn sample_spec() -> JobSpec {
        JobSpec {
            name: "wc_words".into(),
            source: "int umain(unsigned char *in, int n) { return in[0]; }".into(),
            entry: "umain".into(),
            level: OptLevel::Overify,
            bytes: vec![2, 3],
            path_workers: 4,
            cfg: SymConfig {
                input_bytes: 3,
                pass_len_arg: true,
                collect_tests: true,
                extra_args: vec![SymArg::Concrete(7), SymArg::Symbolic],
                search: SearchStrategy::RandomState(42),
                donation: DonationPolicy::StealHalf,
                ..Default::default()
            },
        }
    }

    fn sample_outcome() -> JobOutcome {
        JobOutcome {
            name: "wc_words".into(),
            level: OptLevel::O3,
            compile_nanos: 123_456,
            from_store: true,
            from_slice: true,
            error: None,
            runs: vec![(
                2,
                VerificationReport {
                    paths_completed: 9,
                    bugs: vec![Bug {
                        kind: BugKind::OutOfBounds,
                        location: "umain/b2".into(),
                        input: vec![1, 2],
                    }],
                    solver: SolverStats {
                        queries: 40,
                        ..Default::default()
                    },
                    exhausted: true,
                    ..Default::default()
                },
            )],
            ledger: Some(overify::RunLedger {
                name: "wc_words".into(),
                verify_ns: 1_000_000,
                solver_ns: 700_000,
                solver_queries: 40,
                sat_solves: 3,
                paths: 9,
                instructions: 800,
                runs: 1,
                bytes_moved: 96,
                from_store: false,
                from_slice: false,
                workers: vec!["worker-a".into(), "worker-b".into()],
            }),
            verdict_key: Some(VerdictKey {
                slice: true,
                fp: 0xABCD << 64,
                budget_sig: 77 << 96,
            }),
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit {
                spec: sample_spec(),
                trace: 0xFEED_F00D,
                tenant: String::new(),
            },
            Request::Submit {
                spec: sample_spec(),
                trace: 1,
                tenant: "alice".into(),
            },
            Request::Stats,
            Request::Metrics {
                scope: MetricsScope::Daemon,
            },
            Request::Metrics {
                scope: MetricsScope::Fleet,
            },
            Request::Metrics {
                scope: MetricsScope::Worker("worker-7".into()),
            },
            Request::MetricsPush {
                text: "# TYPE overify_worker_stolen_total counter\n\
                       overify_worker_stolen_total 3\n"
                    .into(),
                slow: vec![(5 << 90, 2_000_000), (7, 900_000)],
            },
            Request::MetricsPush {
                text: String::new(),
                slow: Vec::new(),
            },
            Request::Shutdown,
            Request::AttachWorker {
                name: "worker-7".into(),
            },
            Request::StealJobs { max: 4 },
            Request::OfferStates {
                lease: 9,
                prefixes: vec![vec![], vec![true], vec![true, false, true, true]],
            },
            Request::JobDone {
                lease: 9,
                trace: 0xFEED_F00D,
                report: VerificationReport {
                    paths_completed: 17,
                    exhausted: true,
                    ..Default::default()
                },
                cache_delta: vec![
                    (7, None),
                    (9 << 100, {
                        let mut m = Model::default();
                        m.values.insert(3, 0xDEAD);
                        m.values.insert(1, 42);
                        Some(m)
                    }),
                ],
            },
            Request::JobDone {
                lease: 10,
                trace: 0,
                report: VerificationReport::default(),
                cache_delta: Vec::new(),
            },
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Hello { version: VERSION },
            Event::Queued {
                job: 3,
                position: 2,
                predicted_cost: 1 << 80,
            },
            Event::Scheduled { job: 3 },
            Event::Progress {
                job: 3,
                runs_done: 1,
                runs_total: 2,
                paths: 100,
                bugs: 2,
                instructions: 1 << 40,
            },
            Event::Report {
                job: 3,
                outcome: sample_outcome(),
            },
            Event::Stats(ServeStatsSnapshot {
                submitted: 10,
                answered_from_store: 4,
                answered_spliced: 2,
                executed: 6,
                queued: 1,
                active: 2,
                workers: 3,
                remote_leases: 12,
                remote_states: 5,
                leases_recovered: 1,
                leases_reaped: 2,
                stale_frames: 3,
                verdicts_upstreamed: 40,
                store: StoreStats {
                    report_hits: 4,
                    solver_entries_tailed: 6,
                    ..Default::default()
                },
            }),
            Event::ShuttingDown,
            Event::WorkerAttached { worker: 3 },
            Event::Leases {
                leases: vec![LeasedJob {
                    lease: 11,
                    trace: 0xFEED_F00D,
                    spec: sample_spec(),
                    prefix: vec![true, true, false, true, false, false, true, true, true],
                    shed: 4,
                }],
            },
            Event::Leases { leases: Vec::new() },
            Event::StatesAccepted { accepted: 2 },
            Event::JobAck { lease: 11 },
            Event::Metrics {
                text: "# TYPE overify_solver_queries_total counter\n\
                       overify_solver_queries_total 7\n"
                    .into(),
                slow: vec![(3 << 100, 4_000_000)],
            },
            Event::MetricsAck,
            Event::Busy {
                retry_after_ms: 250,
            },
            Event::Shed {
                job: 3,
                retry_after_ms: 1_000,
            },
        ];
        for ev in events {
            let bytes = encode_event(&ev);
            assert_eq!(decode_event(&bytes).unwrap(), ev, "{ev:?}");
        }
    }

    #[test]
    fn stats_snapshot_displays_in_exposition_format() {
        let snap = ServeStatsSnapshot {
            submitted: 10,
            answered_from_store: 4,
            queued: 1,
            store: StoreStats {
                report_hits: 4,
                splice_misses: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let text = snap.to_string();
        assert!(
            text.contains("# TYPE overify_serve_submitted counter\noverify_serve_submitted 10\n")
        );
        assert!(text.contains("# TYPE overify_serve_queued gauge\noverify_serve_queued 1\n"));
        assert!(text.contains("overify_store_report_hits 4"));
        assert!(text.contains("overify_store_splice_misses 2"));
        // Every line parses like the metrics endpoint's exposition text.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.split_whitespace().count() == 2,
                "unparseable line: {line:?}"
            );
        }
        // Stable order: names sorted within each family.
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn truncated_or_trailing_bytes_are_rejected_with_typed_errors() {
        let good = encode_event(&Event::Report {
            job: 1,
            outcome: sample_outcome(),
        });
        for cut in [1, good.len() / 2, good.len() - 1] {
            assert!(
                matches!(
                    decode_event(&good[..cut]),
                    Err(ProtocolError::Malformed { what: "event" })
                ),
                "cut={cut}"
            );
        }
        assert!(
            matches!(
                decode_event(&good[..0]),
                Err(ProtocolError::Malformed { what: "event" })
            ),
            "empty payload"
        );
        let mut padded = good.clone();
        padded.push(0);
        assert!(
            matches!(
                decode_event(&padded),
                Err(ProtocolError::TrailingBytes {
                    what: "event",
                    remaining: 1
                })
            ),
            "trailing byte"
        );
        assert!(decode_request(&encode_event(&Event::ShuttingDown)[..0]).is_err());
    }

    #[test]
    fn garbage_frames_get_typed_errors() {
        // Unknown tags.
        assert!(matches!(
            decode_request(&[0xEE]),
            Err(ProtocolError::UnknownTag {
                what: "request",
                tag: 0xEE
            })
        ));
        assert!(matches!(
            decode_event(&[0xEE]),
            Err(ProtocolError::UnknownTag {
                what: "event",
                tag: 0xEE
            })
        ));
        // A Hello frame with the wrong magic is a different condition
        // than a truncated one.
        let mut hello = encode_event(&Event::Hello { version: VERSION });
        hello[1] ^= 0xFF;
        assert!(matches!(decode_event(&hello), Err(ProtocolError::BadMagic)));
        // Pure line noise after a known tag is malformed, not a panic.
        let noise: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let mut framed = vec![0u8]; // Submit tag
        framed.extend_from_slice(&noise);
        assert!(matches!(
            decode_request(&framed),
            Err(ProtocolError::Malformed { what: "request" })
        ));
        // A non-canonical trace (nonzero padding bits) is rejected.
        let mut w = Writer::default();
        w.u8(5); // OfferStates
        w.u64(1);
        w.u32(1);
        w.u32(3); // 3-bit trace...
        w.u8(0b1111_1000); // ...with padding bits set
        assert!(matches!(
            decode_request(&w.buf),
            Err(ProtocolError::Malformed { what: "request" })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_ends() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &oversized[..]),
            Err(ProtocolError::Oversized { len }) if len == MAX_FRAME + 1
        ));
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &huge),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(sink.is_empty(), "nothing hit the wire");
    }

    #[test]
    fn traces_round_trip_bit_packed() {
        for trace in [
            vec![],
            vec![true],
            vec![false; 8],
            vec![true; 9],
            vec![
                true, false, true, true, false, false, false, true, true, false,
            ],
        ] {
            let mut w = Writer::default();
            encode_trace(&mut w, &trace);
            let mut r = Reader::new(&w.buf);
            assert_eq!(decode_trace(&mut r).as_ref(), Some(&trace), "{trace:?}");
            assert_eq!(r.remaining(), 0);
            // Packing: 4 bytes length + one byte per 8 decisions.
            assert_eq!(w.buf.len(), 4 + trace.len().div_ceil(8));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn trace_roundtrip_property(
            bits in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 0..200)
        ) {
            let mut w = Writer::default();
            encode_trace(&mut w, &bits);
            let mut r = Reader::new(&w.buf);
            proptest::prop_assert_eq!(decode_trace(&mut r), Some(bits));
            proptest::prop_assert_eq!(r.remaining(), 0);
            // Truncating anywhere must fail cleanly, never panic.
            for cut in 0..w.buf.len() {
                let mut r = Reader::new(&w.buf[..cut]);
                proptest::prop_assert_eq!(decode_trace(&mut r), None);
            }
        }
    }

    #[test]
    fn spec_bytes_round_trip_and_are_canonical() {
        let spec = sample_spec();
        let bytes = encode_spec_bytes(&spec);
        assert_eq!(decode_spec_bytes(&bytes), Some(spec.clone()));
        // Identical specs encode identically — the property the gateway's
        // content-addressed job ids rest on.
        assert_eq!(bytes, encode_spec_bytes(&spec.clone()));
        // Trailing bytes are rejected (one spec, one encoding).
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_spec_bytes(&padded), None);
        for cut in 0..bytes.len() {
            assert_eq!(decode_spec_bytes(&bytes[..cut]), None, "cut={cut}");
        }
    }

    #[test]
    fn spec_round_trips_through_suite_job() {
        let spec = sample_spec();
        let again = JobSpec::from_suite_job(&spec.to_suite_job());
        assert_eq!(again, spec);
    }

    /// A sink that counts flushes.
    #[derive(Default)]
    struct FlushCounter {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for FlushCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn events_queued_before_the_writer_wakes_leave_in_one_flush() {
        let (tx, rx) = std::sync::mpsc::channel();
        let burst: Vec<Event> = (0..5)
            .map(|job| Event::Queued {
                job,
                position: job,
                predicted_cost: 7,
            })
            .chain([
                Event::Scheduled { job: 0 },
                Event::Report {
                    job: 0,
                    outcome: sample_outcome(),
                },
            ])
            .collect();
        for ev in &burst {
            tx.send(ev.clone()).unwrap();
        }
        // The writer thread's shape: block for one event, then drain.
        let mut sink = FlushCounter::default();
        let first = rx.recv().unwrap();
        assert!(!write_burst(&mut sink, first, &rx).unwrap());
        assert_eq!(sink.flushes, 1, "one flush for the whole burst");
        let mut r = &sink.bytes[..];
        for ev in &burst {
            assert_eq!(&decode_event(&read_frame(&mut r).unwrap()).unwrap(), ev);
        }
        assert!(r.is_empty(), "nothing but the burst was written");

        // A burst carrying the shutdown ack says so; it is flushed by then.
        tx.send(Event::ShuttingDown).unwrap();
        let first = Event::Stats(ServeStatsSnapshot::default());
        assert!(write_burst(&mut sink, first, &rx).unwrap());
        assert_eq!(sink.flushes, 2);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "EOF");
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &oversized[..]).is_err());
    }
}
