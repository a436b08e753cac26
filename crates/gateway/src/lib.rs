//! `overify_gateway` — the public async verification gateway.
//!
//! The serve daemon made verification *resident*; this crate makes it
//! *public*. The daemon's binary socket protocol assumes a trusted,
//! version-matched client that holds its connection open for the whole
//! run — exactly wrong for untrusted callers on flaky links. The
//! gateway fronts one daemon with a plain HTTP/1.1 submit-then-poll
//! tier (hand-rolled on std TCP, dependency-free like everything else
//! in the workspace):
//!
//! ```text
//! POST /v1/verify      submit a spec  → 202 {"job_id": …}  (immediately)
//!                       quota drained → 429 + Retry-After
//!                       queue full    → 429 + Retry-After  (shed)
//! GET  /v1/jobs/<id>   poll job state → queued/running/done/failed
//! GET  /v1/registry    every stored verdict (module + slice grain)
//! GET  /metrics        the gateway's own registry, text format
//! GET  /healthz        liveness
//! ```
//!
//! **Durable job ids.** A job id is the FNV-128 of the submission's
//! canonical spec encoding — content addressing all the way out to the
//! public API. Submitting the same spec twice lands on the same id, and
//! every accepted submission is persisted as a store job record
//! (`jobs/<id>.bin`) *before* the 202 goes out, so `GET /v1/jobs/<id>`
//! keeps answering across gateway restarts and daemon restarts; a
//! rebooted gateway replays non-terminal records back into its queue.
//!
//! **Admission control.** Three gates, in order: a bearer-token tenant
//! map (optional — an empty map serves anonymously), a per-tenant
//! token-bucket quota ([`quota`]), and a bounded tenant-fair submission
//! queue (the serve scheduler). Past the gates a submission costs one
//! queue slot; at the bound the gateway *sheds* — an explicit 429 with
//! `Retry-After`, never an unbounded backlog, and the shed submission
//! leaves no record (it was refused, not accepted-and-lost).
//!
//! Dispatcher threads drain the queue into the daemon over the binary
//! protocol, retrying across daemon restarts and daemon-side sheds —
//! an *accepted* job reaches a terminal record eventually even when the
//! backend is rebooted mid-flood.

pub mod http;
pub mod json;
pub mod quota;

pub use quota::{QuotaConfig, QuotaTable};

use crate::http::{HttpError, HttpRequest, Response};
use crate::json::{esc, Json};
use overify::{JobRecord, JobState, Store, StoreConfig, SymConfig, VerdictPointer};
use overify_obs::metrics::{counter, Counter, DeltaTracker, LazyCounter, LazyGauge, LazyHistogram};
use overify_serve::protocol::{encode_spec_bytes, nodelay};
use overify_serve::scheduler::PushError;
use overify_serve::{Client, Event, JobSpec, Priority, Scheduler};
use overify_store::artifact::{level_from_tag, level_tag};
use overify_store::codec::fnv128;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static HTTP_REQS: LazyCounter = LazyCounter::new("overify_gateway_http_requests_total");
static HTTP_NS: LazyHistogram = LazyHistogram::new("overify_gateway_request_latency_ns");
static ACCEPTED: LazyCounter = LazyCounter::new("overify_gateway_accepted_total");
static SHED: LazyCounter = LazyCounter::new("overify_gateway_shed_total");
static QUOTA_DENIED: LazyCounter = LazyCounter::new("overify_gateway_quota_denied_total");
static QUEUE_DEPTH: LazyGauge = LazyGauge::new("overify_gateway_queue_depth");
static JOBS_DONE: LazyCounter = LazyCounter::new("overify_gateway_jobs_done_total");
static JOBS_FAILED: LazyCounter = LazyCounter::new("overify_gateway_jobs_failed_total");
static DISPATCH_RETRIES: LazyCounter = LazyCounter::new("overify_gateway_dispatch_retries_total");

/// How a gateway is wired: the daemon it fronts, the store both share,
/// and the admission-control envelope.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// The serve daemon this gateway drains into.
    pub daemon: SocketAddr,
    /// The store shared with the daemon — job records and the verdict
    /// registry live here.
    pub store: StoreConfig,
    /// Threads draining the submission queue into the daemon.
    pub dispatchers: usize,
    /// Bound on the submission queue; a submission past it is shed
    /// with 429.
    pub queue_capacity: usize,
    /// Per-tenant token-bucket shape.
    pub quota: QuotaConfig,
    /// Bearer-token → tenant map. Empty serves anonymously (every
    /// caller is tenant `"anon"`); non-empty makes a missing or unknown
    /// token a 401.
    pub tokens: Vec<(String, String)>,
    /// Attach to the daemon as a metrics worker and upstream this
    /// process's registry deltas, so the gateway tier shows up in the
    /// daemon's fleet scope (`serve_client --top`).
    pub upstream_metrics: bool,
}

impl GatewayConfig {
    /// A gateway at an ephemeral port with moderate defaults.
    pub fn at(daemon: SocketAddr, store: StoreConfig) -> GatewayConfig {
        GatewayConfig {
            port: 0,
            daemon,
            store,
            dispatchers: 2,
            queue_capacity: 256,
            quota: QuotaConfig::default(),
            tokens: Vec::new(),
            upstream_metrics: false,
        }
    }
}

/// One accepted submission waiting for a dispatcher.
struct QueuedSubmission {
    id: u128,
    tenant: String,
    spec: JobSpec,
}

struct GatewayState {
    daemon: SocketAddr,
    store: Store,
    sched: Scheduler<QueuedSubmission>,
    quota: QuotaTable,
    tokens: HashMap<String, String>,
    shutdown: AtomicBool,
    /// Leaked-name cache for per-tenant series: the registry needs
    /// `&'static str` names, tenants arrive at runtime, and the set is
    /// small (one entry per tenant × series), so leaking is the right
    /// trade. The cache makes the leak once-per-name, not per-request.
    tenant_series: Mutex<HashMap<String, &'static Counter>>,
}

impl GatewayState {
    fn tenant_counter(&self, base: &str, tenant: &str) -> &'static Counter {
        let safe: String = tenant
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let name = format!("{base}{{tenant=\"{safe}\"}}");
        let mut cache = self.tenant_series.lock().unwrap();
        if let Some(c) = cache.get(&name) {
            return c;
        }
        let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
        let c = counter(leaked);
        cache.insert(name, c);
        c
    }

    /// Persists `id`'s record in `state`. The store keeps the original
    /// submission timestamp across transitions and refuses regressions (a
    /// terminal record is never overwritten by a non-terminal one).
    fn stamp(
        &self,
        id: u128,
        tenant: &str,
        spec_bytes: Vec<u8>,
        state: JobState,
        verdict: Option<VerdictPointer>,
        error: Option<String>,
    ) -> io::Result<bool> {
        let now = now_us();
        self.store.save_job(&JobRecord {
            id,
            state,
            tenant: tenant.to_string(),
            created_us: now,
            updated_us: now,
            spec: spec_bytes,
            verdict,
            error,
        })
    }
}

fn now_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// A running gateway.
pub struct GatewayHandle {
    addr: SocketAddr,
    state: Arc<GatewayState>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the queue and joins every gateway
    /// thread. Whatever was still queued stays durably `queued` on
    /// disk — the next boot re-enqueues it.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.sched.close();
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Blocks until the gateway exits (it doesn't, absent `shutdown` —
    /// this is the run-until-killed daemon path).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts a gateway: opens the store, replays interrupted jobs into the
/// queue, spawns the dispatcher pool and the HTTP accept loop.
pub fn start(cfg: GatewayConfig) -> io::Result<GatewayHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;
    let store = Store::open(cfg.store.clone())?;
    let state = Arc::new(GatewayState {
        daemon: cfg.daemon,
        store,
        sched: Scheduler::bounded(cfg.queue_capacity),
        quota: QuotaTable::new(cfg.quota),
        tokens: cfg.tokens.into_iter().collect(),
        shutdown: AtomicBool::new(false),
        tenant_series: Mutex::new(HashMap::new()),
    });

    // Boot recovery: whatever a previous gateway accepted but did not
    // finish goes back in the queue. An undecodable or queue-overflow
    // leftover is closed out as failed — honestly terminal beats
    // silently stuck.
    for rec in state.store.list_jobs() {
        if rec.state.is_terminal() {
            continue;
        }
        match overify_serve::protocol::decode_spec_bytes(&rec.spec) {
            Some(spec) => {
                let sub = QueuedSubmission {
                    id: rec.id,
                    tenant: rec.tenant.clone(),
                    spec,
                };
                if state
                    .sched
                    .push_for(&rec.tenant, fifo_priority(), sub)
                    .is_err()
                {
                    let _ = state.stamp(
                        rec.id,
                        &rec.tenant,
                        rec.spec.clone(),
                        JobState::Failed,
                        None,
                        Some("dropped at gateway restart: recovery queue full".into()),
                    );
                }
            }
            None => {
                let _ = state.stamp(
                    rec.id,
                    &rec.tenant,
                    rec.spec.clone(),
                    JobState::Failed,
                    None,
                    Some("unreadable spec in job record".into()),
                );
            }
        }
    }
    QUEUE_DEPTH.get().set(state.sched.len() as i64);

    let mut threads = Vec::new();
    for _ in 0..cfg.dispatchers.max(1) {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || dispatcher_loop(&state)));
    }
    if cfg.upstream_metrics {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || upstream_loop(&state)));
    }
    {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || accept_loop(&state, listener)));
    }
    Ok(GatewayHandle {
        addr,
        state,
        threads,
    })
}

/// Queue priority for gateway submissions: the gateway has no cost
/// model of its own, so every job is an equal "estimate" — within a
/// tenant that degrades to FIFO, and fairness comes from the
/// scheduler's tenant round-robin.
fn fifo_priority() -> Priority {
    Priority {
        estimated: true,
        cost: 0,
    }
}

fn accept_loop(state: &Arc<GatewayState>, listener: TcpListener) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream.and_then(nodelay) else {
            continue;
        };
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            let _ = handle_conn(&state, stream);
        });
    }
}

fn handle_conn(state: &GatewayState, stream: TcpStream) -> io::Result<()> {
    let started = Instant::now();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let resp = match http::read_request(&mut reader) {
        Ok(None) => return Ok(()),
        Ok(Some(req)) => route(state, &req),
        Err(HttpError::Io(e)) => return Err(e),
        Err(HttpError::Malformed(what)) => {
            Response::json(400, format!("{{\"error\":\"malformed request: {what}\"}}"))
        }
        Err(HttpError::TooLarge) => Response::json(413, "{\"error\":\"request too large\"}"),
    };
    HTTP_REQS.inc();
    HTTP_NS.observe_ns(started.elapsed());
    resp.write_to(&mut writer)
}

fn route(state: &GatewayState, req: &HttpRequest) -> Response {
    // Open endpoints first: liveness and scrape need no credentials.
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => return Response::text(200, "ok\n"),
        ("GET", "/metrics") => return Response::text(200, overify_obs::metrics::render()),
        _ => {}
    }
    // Everything under /v1/ is tenant-scoped.
    let tenant = if state.tokens.is_empty() {
        "anon".to_string()
    } else {
        match req.bearer_token().and_then(|t| state.tokens.get(t)) {
            Some(tenant) => tenant.clone(),
            None => return Response::json(401, "{\"error\":\"missing or unknown bearer token\"}"),
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/verify") => post_verify(state, &tenant, &req.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            get_job(state, &path["/v1/jobs/".len()..])
        }
        ("GET", "/v1/registry") => get_registry(state),
        (_, "/v1/verify") | (_, "/v1/registry") => {
            Response::json(405, "{\"error\":\"method not allowed\"}")
        }
        _ => Response::json(404, "{\"error\":\"no such endpoint\"}"),
    }
}

fn post_verify(state: &GatewayState, tenant: &str, body: &[u8]) -> Response {
    // Gate 1: the tenant's token bucket.
    if let Err(wait) = state.quota.try_take(tenant, Instant::now()) {
        QUOTA_DENIED.inc();
        state
            .tenant_counter("overify_gateway_tenant_quota_denied_total", tenant)
            .inc();
        return Response::json(429, "{\"error\":\"quota exceeded\"}")
            .header("Retry-After", format!("{}", wait.as_secs().max(1)));
    }
    let spec = match parse_spec(body) {
        Ok(spec) => spec,
        Err(why) => return Response::json(400, format!("{{\"error\":\"{}\"}}", esc(&why))),
    };
    let spec_bytes = encode_spec_bytes(&spec);
    let id = fnv128(&spec_bytes);
    // Content addressing makes resubmission idempotent: a known id is
    // answered from its record without costing a queue slot.
    if let Some(rec) = state.store.load_job(id) {
        return Response::json(
            200,
            format!(
                "{{\"job_id\":\"{id:032x}\",\"state\":\"{}\",\"resubmitted\":true}}",
                rec.state.as_str()
            ),
        );
    }
    // Gate 2: the bounded queue. Push first, persist second — a shed
    // submission must leave no record behind (it was refused, and a
    // record would make restart recovery resurrect a job the client
    // was told to retry).
    let sub = QueuedSubmission {
        id,
        tenant: tenant.to_string(),
        spec,
    };
    match state.sched.push_for(tenant, fifo_priority(), sub) {
        Ok(depth) => {
            QUEUE_DEPTH.get().set(depth as i64);
        }
        Err(PushError::Full(_)) => {
            SHED.inc();
            state
                .tenant_counter("overify_gateway_tenant_shed_total", tenant)
                .inc();
            return Response::json(429, "{\"error\":\"submission queue full\"}")
                .header("Retry-After", "1");
        }
        Err(PushError::Closed(_)) => {
            return Response::json(503, "{\"error\":\"gateway shutting down\"}")
        }
    }
    if let Err(e) = state.stamp(id, tenant, spec_bytes, JobState::Queued, None, None) {
        // The job will still run (it is queued), but its record may be
        // missing until a dispatcher stamps it — surface the store
        // trouble to the submitter rather than promising durability we
        // did not get.
        return Response::json(
            503,
            format!(
                "{{\"error\":\"job accepted but record not persisted: {}\"}}",
                esc(&e.to_string())
            ),
        );
    }
    ACCEPTED.inc();
    state
        .tenant_counter("overify_gateway_tenant_accepted_total", tenant)
        .inc();
    Response::json(
        202,
        format!("{{\"job_id\":\"{id:032x}\",\"state\":\"queued\"}}"),
    )
}

fn get_job(state: &GatewayState, id_hex: &str) -> Response {
    let id = match (id_hex.len(), u128::from_str_radix(id_hex, 16)) {
        (32, Ok(id)) => id,
        _ => return Response::json(400, "{\"error\":\"job id must be 32 hex digits\"}"),
    };
    match state.store.load_job(id) {
        None => Response::json(404, "{\"error\":\"unknown job\"}"),
        Some(rec) => Response::json(200, render_job(&rec)),
    }
}

fn get_registry(state: &GatewayState) -> Response {
    let rows = state.store.list_verdicts();
    let mut out = String::from("{\"verdicts\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"grain\":\"{}\",\"fingerprint\":\"{:032x}\",\"level\":\"{}\",\"budget_sig\":\"{:032x}\"}}",
            if row.slice { "slice" } else { "module" },
            row.fp,
            row.level.name(),
            row.budget_sig,
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", rows.len()));
    Response::json(200, out)
}

fn render_job(rec: &JobRecord) -> String {
    let verdict = match &rec.verdict {
        None => "null".to_string(),
        Some(v) => format!(
            "{{\"grain\":\"{}\",\"fingerprint\":\"{:032x}\",\"level\":\"{}\",\"budget_sig\":\"{:032x}\"}}",
            if v.slice { "slice" } else { "module" },
            v.fp,
            level_from_tag(v.level_tag).map(|l| l.name().to_string()).unwrap_or_else(|| format!("tag{}", v.level_tag)),
            v.budget_sig,
        ),
    };
    let error = match &rec.error {
        None => "null".to_string(),
        Some(e) => format!("\"{}\"", esc(e)),
    };
    format!(
        "{{\"job_id\":\"{:032x}\",\"state\":\"{}\",\"tenant\":\"{}\",\"created_us\":{},\"updated_us\":{},\"verdict\":{},\"error\":{}}}",
        rec.id,
        rec.state.as_str(),
        esc(&rec.tenant),
        rec.created_us,
        rec.updated_us,
        verdict,
        error,
    )
}

/// Decodes a `POST /v1/verify` body into a [`JobSpec`].
fn parse_spec(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = Json::parse(text).ok_or("body is not valid JSON")?;
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .ok_or(format!("missing string field '{k}'"))
    };
    let name = field("name")?.to_string();
    let source = field("source")?.to_string();
    let entry = field("entry")?.to_string();
    let level = match field("level")?.to_ascii_lowercase().as_str() {
        "o0" | "-o0" => overify::OptLevel::O0,
        "o1" | "-o1" => overify::OptLevel::O1,
        "o2" | "-o2" => overify::OptLevel::O2,
        "o3" | "-o3" => overify::OptLevel::O3,
        "overify" | "-overify" => overify::OptLevel::Overify,
        other => return Err(format!("unknown level '{other}' (O0..O3, overify)")),
    };
    let bytes: Vec<usize> = v
        .get("bytes")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'bytes'")?
        .iter()
        .map(|j| j.as_u64().map(|n| n as usize))
        .collect::<Option<_>>()
        .ok_or("'bytes' must be non-negative integers")?;
    if bytes.is_empty() || bytes.iter().any(|&b| b == 0 || b > 64) {
        return Err("'bytes' must name 1..=64-byte symbolic input sizes".to_string());
    }
    let path_workers = match v.get("path_workers") {
        None => 1,
        Some(j) => j
            .as_u64()
            .filter(|&n| (1..=64).contains(&n))
            .ok_or("'path_workers' must be 1..=64")? as usize,
    };
    let cfg = SymConfig {
        pass_len_arg: match v.get("pass_len_arg") {
            None => true,
            Some(j) => j.as_bool().ok_or("'pass_len_arg' must be a boolean")?,
        },
        collect_tests: match v.get("collect_tests") {
            None => false,
            Some(j) => j.as_bool().ok_or("'collect_tests' must be a boolean")?,
        },
        ..SymConfig::default()
    };
    Ok(JobSpec {
        name,
        source,
        entry,
        level,
        bytes,
        path_workers,
        cfg,
    })
}

/// One dispatcher: pops accepted submissions and walks each to a
/// terminal record, reconnecting across daemon restarts and backing off
/// on daemon-side sheds. A verification re-run after a mid-flight
/// daemon death is safe — results are content-addressed, so the retry
/// is answered from the store if the first attempt got far enough to
/// persist.
fn dispatcher_loop(state: &Arc<GatewayState>) {
    let mut client: Option<Client> = None;
    while let Some(sub) = state.sched.pop() {
        QUEUE_DEPTH.get().set(state.sched.len() as i64);
        let spec_bytes = encode_spec_bytes(&sub.spec);
        // `running` is stamped when the daemon queues the job as a miss, so
        // the write overlaps the verification instead of delaying the
        // submission — and does not wait on the POST handler's `queued`
        // stamp of the same record. A store hit goes straight to `done`.
        let mut running = false;
        loop {
            if state.shutdown.load(Ordering::SeqCst) {
                // Leave the record non-terminal; the next boot replays it.
                return;
            }
            if client.is_none() {
                match Client::connect(state.daemon) {
                    Ok(c) => client = Some(c),
                    Err(_) => {
                        // Daemon down or at its connection cap: wait it out.
                        DISPATCH_RETRIES.inc();
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    }
                }
            }
            let conn = client.as_mut().unwrap();
            let mut verdict_key = None;
            match conn.submit_with_tenant(&sub.spec, &sub.tenant, |ev| match ev {
                Event::Queued { .. } if !running => {
                    running = true;
                    let _ = state.stamp(
                        sub.id,
                        &sub.tenant,
                        spec_bytes.clone(),
                        JobState::Running,
                        None,
                        None,
                    );
                }
                Event::Report { outcome, .. } => verdict_key = outcome.verdict_key,
                _ => {}
            }) {
                Ok(result) => {
                    if let Some(err) = &result.error {
                        if err.contains("shutting down") {
                            // The daemon drained for a restart before the
                            // job ran. Drop the connection too: a draining
                            // daemon's handler may keep answering aborts
                            // on the old socket after a replacement is
                            // already up.
                            client = None;
                            DISPATCH_RETRIES.inc();
                            std::thread::sleep(Duration::from_millis(100));
                            continue;
                        }
                        if err.starts_with("shed:") {
                            // The daemon's own queue is full; the job is
                            // ours to retry, not the client's.
                            DISPATCH_RETRIES.inc();
                            std::thread::sleep(Duration::from_millis(100));
                            continue;
                        }
                        JOBS_FAILED.inc();
                        let _ = state.stamp(
                            sub.id,
                            &sub.tenant,
                            spec_bytes.clone(),
                            JobState::Failed,
                            None,
                            Some(err.clone()),
                        );
                    } else {
                        JOBS_DONE.inc();
                        let verdict = verdict_key.map(|k| VerdictPointer {
                            slice: k.slice,
                            fp: k.fp,
                            level_tag: level_tag(sub.spec.level),
                            budget_sig: k.budget_sig,
                        });
                        let _ = state.stamp(
                            sub.id,
                            &sub.tenant,
                            spec_bytes.clone(),
                            JobState::Done,
                            verdict,
                            None,
                        );
                    }
                    break;
                }
                Err(_) => {
                    // Connection died mid-run (daemon restart): drop the
                    // connection and resubmit from scratch.
                    client = None;
                    DISPATCH_RETRIES.inc();
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
}

/// Attaches to the daemon as a metrics worker and upstreams this
/// process's registry deltas, so the gateway rides the same fleet
/// telemetry plane as remote verification workers.
fn upstream_loop(state: &Arc<GatewayState>) {
    let name = format!("gateway-{}", std::process::id());
    let mut tracker = DeltaTracker::new();
    let tick = Duration::from_millis(250);
    'reconnect: while !state.shutdown.load(Ordering::SeqCst) {
        let mut conn = match Client::connect(state.daemon) {
            Ok(c) => c,
            Err(_) => {
                sleep_checking(state, tick);
                continue;
            }
        };
        if conn.attach_worker(&name).is_err() {
            sleep_checking(state, tick);
            continue;
        }
        while !state.shutdown.load(Ordering::SeqCst) {
            let text = tracker.delta();
            if !text.is_empty() && conn.push_metrics(text, Vec::new()).is_err() {
                continue 'reconnect;
            }
            sleep_checking(state, tick);
        }
    }
}

fn sleep_checking(state: &GatewayState, total: Duration) {
    let step = Duration::from_millis(25);
    let mut slept = Duration::ZERO;
    while slept < total && !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(step);
        slept += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_is_strict_and_canonical() {
        let body = br#"{
            "name": "t", "source": "int f(unsigned char *p, int n){return 0;}",
            "entry": "f", "level": "overify", "bytes": [2]
        }"#;
        let spec = parse_spec(body).expect("parses");
        assert_eq!(spec.name, "t");
        assert_eq!(spec.level, overify::OptLevel::Overify);
        assert_eq!(spec.bytes, vec![2]);
        assert_eq!(spec.path_workers, 1);
        assert!(spec.cfg.pass_len_arg, "defaults on");
        // Identical bodies → identical job ids (content addressing),
        // and field changes move the id.
        let id = |b: &[u8]| fnv128(&encode_spec_bytes(&parse_spec(b).unwrap()));
        assert_eq!(id(body), id(body));
        let other = br#"{
            "name": "t", "source": "int f(unsigned char *p, int n){return 0;}",
            "entry": "f", "level": "O0", "bytes": [2]
        }"#;
        assert_ne!(id(body), id(other));

        for bad in [
            &b"not json"[..],
            br#"{"name":"t"}"#,
            br#"{"name":"t","source":"s","entry":"f","level":"O9","bytes":[2]}"#,
            br#"{"name":"t","source":"s","entry":"f","level":"O0","bytes":[]}"#,
            br#"{"name":"t","source":"s","entry":"f","level":"O0","bytes":[0]}"#,
            br#"{"name":"t","source":"s","entry":"f","level":"O0","bytes":[2],"path_workers":0}"#,
        ] {
            assert!(
                parse_spec(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn job_rendering_is_valid_json() {
        let rec = JobRecord {
            id: 7,
            state: JobState::Done,
            tenant: "a\"b".into(),
            created_us: 1,
            updated_us: 2,
            spec: vec![],
            verdict: Some(VerdictPointer {
                slice: true,
                fp: 9,
                level_tag: 4,
                budget_sig: 3,
            }),
            error: None,
        };
        let text = render_job(&rec);
        let v = Json::parse(&text).expect("renders valid JSON");
        assert_eq!(v.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(v.get("tenant").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(
            v.get("verdict")
                .and_then(|d| d.get("grain"))
                .and_then(Json::as_str),
            Some("slice")
        );
        assert_eq!(v.get("error"), Some(&Json::Null));
    }
}
