//! The two service workloads. Daemon and gateway run in-process on
//! ephemeral ports; load comes from at most two connections, sized for a
//! two-core machine.

use crate::expected::canonical;
use crate::gen::{self, Submission};
use crate::harness::{dir_bytes, remove_dir, Layers, ObsMark, Outcome};
use crate::http::{exchange, request_bytes};
use crate::openloop::{self, Clock, WallClock};
use crate::stage::{self, Stager};
use crate::Ctx;
use overify::{OptLevel, ReportKey, SliceKey, Store, StoreConfig, StoredJob, SuiteJobResult};
use overify_gateway::json::Json;
use overify_gateway::{GatewayConfig, GatewayHandle};
use overify_serve::protocol::{decode_event, encode_event, encode_request};
use overify_serve::{
    Client, Event, JobOutcome, JobSpec, Request, ServeStatsSnapshot, ServerConfig, ServerHandle,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const EXECUTORS: usize = 2;
/// Submissions of each class per `daemon-submit` unit: twice round the 38
/// base programs.
const UNIT_NOVEL: usize = 76;
const UNIT_RESUBMITS: usize = 76;
const FLOOD_CONNECTIONS: usize = 2;
/// `gateway-poll` steady phase: POSTs per second, seconds per unit, and the
/// novel share. A unit is kept short and a run takes several, each against
/// a freshly started gateway and daemon: on a mostly idle two-core machine
/// latency through the tier shifts by about a millisecond from one stretch
/// of seconds to the next, and only the pool over several is steady (one
/// 10 s phase spreads 11-20 % between runs, five 2 s phases 2-5 %).
const STEADY_RATE: f64 = 24.0;
const STEADY_SECONDS: f64 = 2.0;
const STEADY_NOVEL_OF_12: usize = 7;
/// Dispatcher threads of the gateway the steady phase talks to. Eight, not
/// the default two: each dispatcher's daemon connection then idles well
/// over 200 ms between jobs, which keeps Linux from delaying ACKs on it. At
/// two, the `Queued`-then-`Scheduled` write pair meets Nagle plus a 40 ms
/// delayed ACK on 5-30 % of jobs, a share that varies from run to run, and
/// `miss_ms.p90` would sit on that cliff. The stall itself is measured
/// where it is steady: every closed-loop miss of `daemon-submit` pays it.
///
/// The flood goes to a second gateway with the default two dispatchers.
/// There the queue stays backed up, so a job is popped long after its
/// `queued` record was written. With many idle dispatchers a trivial job can
/// finish inside the POST handler's unlocked read-check-rename in
/// `Store::save_job`, `queued` then lands on top of `done`, and the job is
/// lost to its poller: 16 dispatchers lose a job in about 1 flood in 30. A
/// workload must not contain an operation that fails.
const GATEWAY_DISPATCHERS: usize = 8;
const FLOOD_POSTS: usize = 1000;
const GATEWAY_QUEUE: usize = 64;
const TENANTS: [(&str, &str); 2] = [("tok-a", "tenant-a"), ("tok-b", "tenant-b")];
/// How long an accepted job may take to reach a terminal state before it
/// counts as lost.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn start_daemon(dir: &Path) -> ServerHandle {
    overify_serve::start(ServerConfig {
        port: 0,
        executors: EXECUTORS,
        store: Some(StoreConfig::at(dir)),
        ..ServerConfig::default()
    })
    .expect("daemon starts on an ephemeral port")
}

/// One closed-loop submission and what came back.
struct Shot {
    latency: Duration,
    result: std::io::Result<SuiteJobResult>,
    /// Send, `Queued`, `Scheduled` and `Report` arrival times (traced runs).
    events: Option<[Option<Instant>; 4]>,
}

/// Drives `subs` closed loop on one connection: the next spec goes out only
/// after the previous one reported. Returns one shot per submission and the
/// wall time from first send to last report.
///
/// One connection, not two. With two, whether a resubmit's compile shares a
/// core with the other connection's work is decided by where the kernel
/// happens to place the threads, run by run, and `hit_ms.p90` flips between
/// 5.9 and 8.2 ms; with one, every percentile repeats within 3 %.
fn closed_loop(client: &mut Client, subs: &[Submission], traced: bool) -> (Vec<Shot>, f64) {
    let start = Instant::now();
    let shots = subs
        .iter()
        .map(|sub| {
            let sent = Instant::now();
            let (result, events) = if traced {
                let mut at = [Some(sent), None, None, None];
                let r = client.submit_with(&sub.spec, |ev| {
                    let slot = match ev {
                        Event::Queued { .. } => 1,
                        Event::Scheduled { .. } => 2,
                        Event::Report { .. } => 3,
                        _ => return,
                    };
                    at[slot] = Some(Instant::now());
                });
                (r, Some(at))
            } else {
                (client.submit(&sub.spec), None)
            };
            Shot {
                latency: sent.elapsed(),
                result,
                events,
            }
        })
        .collect();
    (shots, start.elapsed().as_secs_f64())
}

/// Records each traced shot's event arrivals as spans (`serve.submit` over
/// `serve.queued`, `serve.scheduled`, `serve.running`) and sets the three
/// per-stage medians.
fn event_stages(ctx: &Ctx, layers: &mut Layers, shots: &[Shot]) {
    const STAGES: [(&str, &str); 3] = [
        ("serve.queued", "serve.queued_ms"),
        ("serve.scheduled", "serve.scheduled_ms"),
        ("serve.running", "serve.report_ms"),
    ];
    let mut gaps: [Vec<f64>; 3] = Default::default();
    for at in shots.iter().filter_map(|s| s.events) {
        let (Some(sent), Some(report)) = (at[0], at[3]) else {
            continue;
        };
        let job = ctx.rec.next_job();
        let (sent_ns, report_ns) = (ctx.rec.at_ns(sent), ctx.rec.at_ns(report));
        let root = ctx.rec.add("serve.submit", sent_ns, report_ns, None, job);
        let mut prev = sent;
        for (i, (span, _)) in STAGES.iter().enumerate() {
            let Some(t) = at[i + 1] else { continue };
            ctx.rec
                .add(span, ctx.rec.at_ns(prev), ctx.rec.at_ns(t), Some(root), job);
            gaps[i].push(ms(t - prev));
            prev = t;
        }
    }
    for ((_, metric), gaps) in STAGES.iter().zip(&gaps) {
        layers.set_median(metric, gaps);
    }
}

/// Grades one daemon answer: a transport error, a build error, a truncated
/// run, a wrong verdict or an answer by the wrong route fails the
/// submission. Returns whether the verifier ran.
fn grade_answer(
    ctx: &Ctx,
    out: &mut Outcome,
    sub: &Submission,
    result: &std::io::Result<SuiteJobResult>,
) -> Option<bool> {
    out.attempted += 1;
    let name = &sub.spec.name;
    match result {
        Err(e) => out.fail(format!("{name}: transport error: {e}")),
        Ok(r) => {
            if let Err(e) = ctx.expected.check_job(&sub.spec.source, r) {
                out.fail(format!("{name}: {e}"));
            } else if r.from_store != sub.resubmit || r.from_slice {
                out.fail(format!(
                    "{name}: resubmit={} answered from_store={} from_slice={}",
                    sub.resubmit, r.from_store, r.from_slice
                ));
            } else {
                return Some(!r.from_store);
            }
        }
    }
    None
}

/// Folds the daemon's own statistics over a unit into the layer table and
/// checks the registry against them: the daemon counts store probes twice
/// (its `Store` handle and the registry), and the two must agree.
fn stats_delta(out: &mut Outcome, before: &ServeStatsSnapshot, after: &ServeStatsSnapshot) {
    for (obs, value) in [
        (
            "obs.store_report_hits",
            after.store.report_hits - before.store.report_hits,
        ),
        (
            "obs.store_report_misses",
            after.store.report_misses - before.store.report_misses,
        ),
    ] {
        out.check_count(obs, value as f64, "the daemon's store handle");
    }
    let layers = &mut out.layers;
    let submitted = after.submitted - before.submitted;
    let from_store = after.answered_from_store - before.answered_from_store;
    let executed = after.executed - before.executed;
    layers.set("serve.executed", executed as f64);
    layers.set("serve.answered_from_store", from_store as f64);
    // The daemon keeps no coalescing counter: a submission that neither
    // executed nor came from the store rode along with an in-flight twin.
    layers.set(
        "serve.coalesced",
        submitted.saturating_sub(from_store + executed) as f64,
    );
}

/// Times the public wire codec on the unit's own frames.
fn wire_codec(layers: &mut Layers, subs: &[Submission], results: &[&SuiteJobResult]) {
    let requests: Vec<Request> = subs
        .iter()
        .map(|sub| Request::Submit {
            spec: sub.spec.clone(),
            trace: 1,
            tenant: String::new(),
        })
        .collect();
    let t = Instant::now();
    for request in &requests {
        std::hint::black_box(encode_request(request));
    }
    layers.set("serve.wire_encode_ns", t.elapsed().as_nanos() as f64);
    let frames: Vec<Vec<u8>> = results
        .iter()
        .enumerate()
        .map(|(job, r)| {
            encode_event(&Event::Report {
                job: job as u64,
                outcome: JobOutcome::from_result(r),
            })
        })
        .collect();
    let t = Instant::now();
    for frame in &frames {
        std::hint::black_box(decode_event(frame).expect("own frame decodes"));
    }
    layers.set("serve.wire_decode_ns", t.elapsed().as_nanos() as f64);
}

/// Drives the unit's specs through the traced mirror against a reference
/// store holding the pool, and returns each submission's in-process time.
/// The mirror's reports must equal the service's.
fn mirror(
    ctx: &Ctx,
    out: &mut Outcome,
    pool: &[JobSpec],
    subs: &[Submission],
    answers: &[Option<&SuiteJobResult>],
) -> Vec<f64> {
    let dir = ctx.scratch.fresh("mirror");
    let store = Store::open(StoreConfig::at(&dir)).expect("scratch store opens");
    let pool_jobs: Vec<_> = pool.iter().map(JobSpec::to_suite_job).collect();
    overify::verify_suite_stored(pool_jobs, 1, Some(&store));
    let warm = store.warm_solver_cache();
    let mut layers = std::mem::take(&mut out.layers);
    let mut stager = Stager {
        rec: ctx.rec,
        layers: &mut layers,
    };
    let mut times = Vec::with_capacity(subs.len());
    for (sub, answer) in subs.iter().zip(answers) {
        let job = sub.spec.to_suite_job();
        let t = Instant::now();
        let r = stager.job(&job, ctx.rec.next_job(), None, &store, &warm);
        times.push(ms(t.elapsed()));
        if let Some(answer) = answer {
            out.check(canonical(&r.runs) == canonical(&answer.runs), || {
                format!("{}: in-process report differs from the service's", job.name)
            });
        }
    }
    layers.set("store.bytes_on_disk", dir_bytes(&dir) as f64);
    out.layers = layers;
    remove_dir(&dir);
    times
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    crate::stats::median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

// ------------------------------------------------------- daemon-submit

struct DaemonState {
    dir: PathBuf,
    daemon: ServerHandle,
    client: Client,
}

impl DaemonState {
    fn stop(self) {
        drop(self.client);
        self.daemon.shutdown();
        remove_dir(&self.dir);
    }
}

/// `daemon-submit`: novel specs mixed with resubmits of specs answered in
/// set-up, closed loop from one `Client` connection.
pub fn daemon_submit(ctx: &Ctx, out: &mut Outcome) {
    let cfg = gen::sym_config();
    let pool = gen::pool_specs(ctx.seed, &cfg);
    let setup = |out: &mut Outcome| -> DaemonState {
        let t = Instant::now();
        let dir = ctx.scratch.fresh("daemon");
        let daemon = start_daemon(&dir);
        let mut client = Client::connect(daemon.addr()).expect("client connects");
        // Pipelined, so both executors work through the pool.
        let answers = client.submit_all(&pool);
        out.setup_s.push(t.elapsed().as_secs_f64());
        match answers {
            Err(e) => out.check(false, || format!("pool submission failed: {e}")),
            Ok(answers) => {
                for (spec, answer) in pool.iter().zip(answers) {
                    let sub = Submission {
                        spec: spec.clone(),
                        resubmit: false,
                        tenant: 0,
                    };
                    grade_answer(ctx, out, &sub, &Ok(answer));
                }
            }
        }
        DaemonState {
            dir,
            daemon,
            client,
        }
    };
    // An untraced unit feeds the end-to-end samples; a traced one records
    // event arrivals instead.
    let unit = |out: &mut Outcome, state: &mut DaemonState, subs: &[Submission], traced: bool| {
        let (shots, wall) = closed_loop(&mut state.client, subs, traced);
        for (sub, shot) in subs.iter().zip(&shots) {
            let executed = grade_answer(ctx, out, sub, &shot.result);
            if let (Some(executed), false) = (executed, traced) {
                let class = if executed {
                    &mut out.miss_ms
                } else {
                    &mut out.hit_ms
                };
                class.push(ms(shot.latency));
            }
        }
        (shots, wall)
    };

    let mut measured = 0.0;
    let mut round = 0;
    while out.wants_more(measured, ctx.seconds) {
        let subs = gen::submissions(ctx.seed, round, UNIT_NOVEL, UNIT_RESUBMITS, 1, &cfg);
        let mut state = setup(out);
        let (_, wall) = unit(out, &mut state, &subs, false);
        state.stop();
        out.wall_s.push(wall);
        measured += wall;
        round += 1;
        if ctx.traced {
            break;
        }
    }
    while out.setup_s.len() < ctx.min_setups {
        setup(out).stop();
    }
    if !ctx.traced {
        return;
    }

    let untraced_wall = *out.wall_s.last().expect("a unit ran");
    let subs = gen::submissions(ctx.seed, round, UNIT_NOVEL, UNIT_RESUBMITS, 1, &cfg);
    let mut state = setup(out);
    let before = state.daemon.stats();
    let mark = ObsMark::now();
    let (shots, wall) = unit(out, &mut state, &subs, true);
    mark.delta_into(&mut out.layers);
    stats_delta(out, &before, &state.daemon.stats());
    state.stop();
    out.layers
        .set("trace.overhead_share", wall / untraced_wall - 1.0);

    let answers: Vec<Option<&SuiteJobResult>> =
        shots.iter().map(|s| s.result.as_ref().ok()).collect();
    let mut own = Layers::default();
    for r in answers.iter().flatten().filter(|r| !r.from_store) {
        stage::add_symex(&mut out.layers, r.level, &r.runs);
        stage::add_symex(&mut own, r.level, &r.runs);
    }
    for (obs, value) in [
        ("obs.solver_queries", own.get("symex.queries")),
        ("obs.solver_sat_solves", own.get("symex.solved.sat")),
        ("obs.sched_scheduled", out.layers.get("serve.executed")),
    ] {
        out.check_count(obs, value, "the harness");
    }

    event_stages(ctx, &mut out.layers, &shots);
    let results: Vec<&SuiteJobResult> = answers.iter().flatten().copied().collect();
    wire_codec(&mut out.layers, &subs, &results);
    let in_process = mirror(ctx, out, &pool, &subs, &answers);
    // Daemon latency minus the in-process time of the same specs, per class.
    let served: Vec<f64> = shots.iter().map(|s| ms(s.latency)).collect();
    let class_median = |values: &[f64], resubmit: bool| {
        median_of(
            subs.iter()
                .zip(values)
                .filter(|(s, _)| s.resubmit == resubmit)
                .map(|(_, v)| *v),
        )
    };
    for (metric, resubmit) in [
        ("serve.miss_overhead_ms", false),
        ("serve.hit_overhead_ms", true),
    ] {
        let overhead = class_median(&served, resubmit) - class_median(&in_process, resubmit);
        out.layers.set(metric, overhead);
    }
    let reexec: Vec<f64> = subs
        .iter()
        .zip(&in_process)
        .filter(|(s, _)| !s.resubmit)
        .map(|(_, t)| *t)
        .collect();
    out.layers.set_median("core.reexec_ms.p50", &reexec);
    stage::finish_derived(&mut out.layers);
}

// -------------------------------------------------------- gateway-poll

struct GatewayState {
    dir: PathBuf,
    daemon: ServerHandle,
    /// The gateway the steady phase POSTs to.
    steady: GatewayHandle,
    /// The gateway the flood POSTs to (see [`GATEWAY_DISPATCHERS`]).
    flood: GatewayHandle,
}

impl GatewayState {
    fn stop(self) {
        self.steady.shutdown();
        self.flood.shutdown();
        self.daemon.shutdown();
        remove_dir(&self.dir);
    }
}

/// What one `POST /v1/verify` came back with.
#[derive(Debug)]
enum Posted {
    /// 202, or 200 for a known spec: the job id and whether it is done.
    Accepted {
        id: String,
        done: bool,
    },
    QuotaDenied,
    Shed,
    Failed(String),
}

fn post(addr: SocketAddr, token: &str, body: &str) -> Posted {
    match exchange(
        addr,
        &request_bytes("POST", "/v1/verify", Some(token), body),
    ) {
        Err(e) => Posted::Failed(format!("transport error: {e}")),
        Ok(r) => match (r.status, Json::parse(&r.body)) {
            (200 | 202, Some(v)) => match v.get("job_id").and_then(Json::as_str) {
                Some(id) => Posted::Accepted {
                    id: id.to_string(),
                    done: v.get("state").and_then(Json::as_str) == Some("done"),
                },
                None => Posted::Failed(format!("{} without a job id: {}", r.status, r.body)),
            },
            (429, Some(v)) => match v.get("error").and_then(Json::as_str) {
                Some("quota exceeded") => Posted::QuotaDenied,
                Some("submission queue full") => Posted::Shed,
                _ => Posted::Failed(format!("unknown 429: {}", r.body)),
            },
            (status, _) => Posted::Failed(format!("status {status}: {}", r.body)),
        },
    }
}

/// One `GET /v1/jobs/<id>`: `Ok(None)` while the job is queued or running,
/// the job record once it is done.
fn poll(addr: SocketAddr, token: &str, id: &str) -> Result<Option<Json>, String> {
    let path = format!("/v1/jobs/{id}");
    let r = exchange(addr, &request_bytes("GET", &path, Some(token), ""))
        .map_err(|e| format!("transport error: {e}"))?;
    let v = Json::parse(&r.body).ok_or_else(|| format!("poll body is not JSON: {}", r.body))?;
    match (r.status, v.get("state").and_then(Json::as_str)) {
        (200, Some("done")) => Ok(Some(v)),
        (200, Some("queued" | "running")) => Ok(None),
        (status, _) => Err(format!("poll status {status}: {}", r.body)),
    }
}

/// An accepted job waiting for its terminal state.
struct Pending {
    index: usize,
    id: String,
    /// Clock time the POST was due (steady phase) or answered (flood).
    since: Duration,
}

/// A job the poller saw finish: its index, latency from `since`, and record.
type Finished = (usize, Duration, Json);

/// Polls pending jobs oldest-first until `more` is closed and every job is
/// terminal. A job that makes no progress for [`DRAIN_DEADLINE`] is lost.
fn poller(
    addr: SocketAddr,
    clock: &WallClock,
    more: mpsc::Receiver<Pending>,
    poll_ms: &Mutex<Vec<f64>>,
) -> (Vec<Finished>, Vec<String>) {
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let (mut done, mut failed) = (Vec::new(), Vec::new());
    let mut open = true;
    let mut idle_since = Instant::now();
    while open || !pending.is_empty() {
        loop {
            match more.try_recv() {
                Ok(p) => pending.push_back(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut progressed = false;
        for _ in 0..pending.len() {
            let p = pending.pop_front().expect("counted");
            let t = Instant::now();
            let answer = poll(addr, TENANTS[p.index % TENANTS.len()].0, &p.id);
            poll_ms.lock().expect("poll times").push(ms(t.elapsed()));
            match answer {
                Ok(Some(record)) => {
                    done.push((p.index, clock.now().saturating_sub(p.since), record));
                    progressed = true;
                }
                Ok(None) => pending.push_back(p),
                Err(e) => {
                    failed.push(format!("job {}: {e}", p.id));
                    progressed = true;
                }
            }
        }
        if progressed {
            idle_since = Instant::now();
        } else if idle_since.elapsed() > DRAIN_DEADLINE {
            for p in pending.drain(..) {
                failed.push(format!(
                    "job {}: accepted but never reached a terminal state",
                    p.id
                ));
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (done, failed)
}

/// Loads the report a job record's verdict pointer names, straight from the
/// shared store.
fn load_verdict(store: &Store, level: OptLevel, record: &Json) -> Option<StoredJob> {
    let v = record.get("verdict")?;
    let hex = |k: &str| u128::from_str_radix(v.get(k)?.as_str()?, 16).ok();
    let (fp, budget_sig) = (hex("fingerprint")?, hex("budget_sig")?);
    match v.get("grain")?.as_str()? {
        "module" => store.load_report(&ReportKey {
            module_fp: fp,
            level,
            budget_sig,
        }),
        "slice" => store.load_slice(&SliceKey {
            slice_fp: fp,
            level,
            budget_sig,
        }),
        _ => None,
    }
}

/// Checks finished jobs' verdict records against the expected file, by
/// loading the reports their pointers name. Returns the reports.
fn grade_verdicts<'a>(
    ctx: &Ctx,
    out: &mut Outcome,
    dir: &Path,
    spec_of: impl Fn(usize) -> &'a JobSpec,
    finished: &[Finished],
) -> Vec<StoredJob> {
    let store = Store::open(StoreConfig::at(dir)).expect("shared store opens");
    let mut reports = Vec::with_capacity(finished.len());
    for (index, _, record) in finished {
        let spec = spec_of(*index);
        match load_verdict(&store, spec.level, record) {
            None => out.fail(format!(
                "{}: verdict pointer names no stored report",
                spec.name
            )),
            Some(stored) => {
                if let Err(e) = ctx
                    .expected
                    .check_runs(&spec.name, &spec.source, &stored.runs)
                {
                    out.fail(e);
                }
                reports.push(stored);
            }
        }
    }
    reports
}

/// Everything one `gateway-poll` unit observed, before grading.
struct GatewayUnit {
    wall_s: f64,
    subs: Vec<Submission>,
    bodies: Vec<String>,
    /// Per steady POST: the answer, its latency from the due time, and the
    /// exchange's own duration.
    posted: Vec<(Posted, Duration, f64)>,
    late: Vec<Duration>,
    steady_done: Vec<Finished>,
    flood: Vec<JobSpec>,
    flood_answers: Vec<(usize, Posted)>,
    flood_done: Vec<Finished>,
    flood_s: f64,
    poll_failures: Vec<String>,
    poll_ms: Vec<f64>,
}

/// Runs the steady phase and the flood against a set-up gateway.
fn gateway_measure(ctx: &Ctx, state: &GatewayState, round: usize) -> GatewayUnit {
    let cfg = gen::gateway_sym_config();
    let addr = state.steady.addr();
    let count = (STEADY_RATE * STEADY_SECONDS).round() as usize;
    let novel = count * STEADY_NOVEL_OF_12 / 12;
    let subs = gen::submissions(ctx.seed, round, novel, count - novel, TENANTS.len(), &cfg);
    let bodies: Vec<String> = subs.iter().map(|s| gen::spec_json(&s.spec)).collect();
    let flood = gen::flood_specs(ctx.seed, FLOOD_POSTS, &cfg);
    let flood_bodies: Vec<String> = flood.iter().map(gen::spec_json).collect();
    let poll_ms = Mutex::new(Vec::new());
    let start = Instant::now();

    // Steady phase: one generator thread on the schedule, one poller.
    let clock = WallClock::start();
    let (tx, rx) = mpsc::channel();
    let mut posted = Vec::with_capacity(count);
    let (late, (steady_done, mut poll_failures)) = std::thread::scope(|scope| {
        let polling = scope.spawn(|| poller(addr, &clock, rx, &poll_ms));
        let late = openloop::generate(&clock, count, STEADY_RATE, |i, due| {
            let t = Instant::now();
            let answer = post(addr, TENANTS[subs[i].tenant].0, &bodies[i]);
            let post_ms = ms(t.elapsed());
            if let Posted::Accepted { id, done: false } = &answer {
                let pending = Pending {
                    index: i,
                    id: id.clone(),
                    since: due,
                };
                tx.send(pending).expect("poller listens");
            }
            // Latency is timed from the due time, so a late generator
            // counts against the system it was waiting on.
            posted.push((answer, clock.now().saturating_sub(due), post_ms));
        });
        drop(tx);
        (late, polling.join().expect("poller thread"))
    });

    // Flood phase: back-to-back POSTs of distinct specs from two
    // connections, then every accepted id polled to a terminal state.
    let addr = state.flood.addr();
    let cursor = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(FLOOD_POSTS));
    let flood_clock = WallClock::start();
    std::thread::scope(|scope| {
        for _ in 0..FLOOD_CONNECTIONS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(body) = flood_bodies.get(i) else {
                    break;
                };
                let answer = post(addr, TENANTS[i % TENANTS.len()].0, body);
                answers
                    .lock()
                    .expect("answers")
                    .push((i, answer, flood_clock.now()));
            });
        }
    });
    let flood_s = flood_clock.now().as_secs_f64();
    let (tx, rx) = mpsc::channel();
    let mut flood_answers = Vec::with_capacity(FLOOD_POSTS);
    for (index, answer, at) in answers.into_inner().expect("answers") {
        if let Posted::Accepted { id, .. } = &answer {
            let pending = Pending {
                index,
                id: id.clone(),
                since: at,
            };
            tx.send(pending).expect("receiver alive");
        }
        flood_answers.push((index, answer));
    }
    drop(tx);
    let (flood_done, failed) = poller(addr, &flood_clock, rx, &poll_ms);
    poll_failures.extend(failed);
    GatewayUnit {
        wall_s: start.elapsed().as_secs_f64(),
        subs,
        bodies,
        posted,
        late,
        steady_done,
        flood,
        flood_answers,
        flood_done,
        flood_s,
        poll_failures,
        poll_ms: poll_ms.into_inner().expect("poll times"),
    }
}

/// The flood's admission split and the steady phase's accepted count.
struct Admissions {
    steady_accepted: usize,
    flood_accepted: usize,
    flood_shed: usize,
    flood_quota_denied: usize,
}

/// Grades a unit: every POST is one operation. In the steady phase a
/// refusal, an error or a lost job fails it; in the flood a 429 is a
/// correct answer. Returns the executed jobs' reports and the admission
/// counts; latencies go to `out` when `sample`.
fn gateway_grade(
    ctx: &Ctx,
    out: &mut Outcome,
    dir: &Path,
    unit: &GatewayUnit,
    sample: bool,
) -> (Vec<StoredJob>, Admissions) {
    out.attempted += (unit.subs.len() + unit.flood.len()) as u64;
    for f in &unit.poll_failures {
        out.fail(f.clone());
    }
    let mut reports = grade_verdicts(ctx, out, dir, |i| &unit.subs[i].spec, &unit.steady_done);
    reports.extend(grade_verdicts(
        ctx,
        out,
        dir,
        |i| &unit.flood[i],
        &unit.flood_done,
    ));
    let mut seen = Admissions {
        steady_accepted: 0,
        flood_accepted: 0,
        flood_shed: 0,
        flood_quota_denied: 0,
    };
    for (sub, (answer, latency, _)) in unit.subs.iter().zip(&unit.posted) {
        match answer {
            Posted::Accepted { done: true, .. } if sub.resubmit => {
                if sample {
                    out.hit_ms.push(ms(*latency));
                }
            }
            Posted::Accepted { done: false, .. } if !sub.resubmit => seen.steady_accepted += 1,
            other => out.fail(format!(
                "{}: resubmit={} answered {other:?} in the steady phase",
                sub.spec.name, sub.resubmit
            )),
        }
    }
    if sample {
        out.miss_ms
            .extend(unit.steady_done.iter().map(|(_, d, _)| ms(*d)));
    }
    for (index, answer) in &unit.flood_answers {
        match answer {
            Posted::Accepted { .. } => seen.flood_accepted += 1,
            Posted::Shed => seen.flood_shed += 1,
            Posted::QuotaDenied => seen.flood_quota_denied += 1,
            Posted::Failed(e) => out.fail(format!("{}: {e}", unit.flood[*index].name)),
        }
    }
    (reports, seen)
}

/// `gateway-poll`: an open-loop steady phase, then a flood past the quota
/// and queue bounds.
pub fn gateway_poll(ctx: &Ctx, out: &mut Outcome) {
    let cfg = gen::gateway_sym_config();
    let pool = gen::pool_specs(ctx.seed, &cfg);
    let setup = |out: &mut Outcome| -> GatewayState {
        let t = Instant::now();
        let dir = ctx.scratch.fresh("gateway");
        let daemon = start_daemon(&dir);
        let mut config = GatewayConfig::at(daemon.addr(), StoreConfig::at(&dir));
        config.queue_capacity = GATEWAY_QUEUE;
        config.tokens = TENANTS
            .iter()
            .map(|(token, tenant)| (token.to_string(), tenant.to_string()))
            .collect();
        let flood = overify_gateway::start(config.clone()).expect("gateway starts");
        config.dispatchers = GATEWAY_DISPATCHERS;
        let steady = overify_gateway::start(config).expect("gateway starts");
        // Answer the pool, so the steady phase's resubmits are answered
        // from the job records.
        let addr = steady.addr();
        let clock = WallClock::start();
        let (tx, rx) = mpsc::channel();
        let mut failures = Vec::new();
        for (index, spec) in pool.iter().enumerate() {
            match post(
                addr,
                TENANTS[index % TENANTS.len()].0,
                &gen::spec_json(spec),
            ) {
                Posted::Accepted { id, .. } => tx
                    .send(Pending {
                        index,
                        id,
                        since: clock.now(),
                    })
                    .expect("receiver alive"),
                other => failures.push(format!("{}: pool POST answered {other:?}", spec.name)),
            }
        }
        drop(tx);
        let (done, failed) = poller(addr, &clock, rx, &Mutex::new(Vec::new()));
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += pool.len() as u64;
        for f in failures.into_iter().chain(failed) {
            out.fail(f);
        }
        grade_verdicts(ctx, out, &dir, |i| &pool[i], &done);
        GatewayState {
            dir,
            daemon,
            steady,
            flood,
        }
    };

    let mut measured = 0.0;
    let mut round = 0;
    let mut last = None;
    while out.wants_more(measured, ctx.seconds) {
        let state = setup(out);
        let unit = gateway_measure(ctx, &state, round);
        gateway_grade(ctx, out, &state.dir, &unit, true);
        state.stop();
        out.wall_s.push(unit.wall_s);
        // The steady phase is what `--seconds` buys; the flood rides along.
        measured += STEADY_SECONDS;
        round += 1;
        last = Some(unit);
        if ctx.traced {
            break;
        }
    }
    while out.setup_s.len() < ctx.min_setups {
        setup(out).stop();
    }
    if !ctx.traced {
        return;
    }

    let untraced = last.expect("a unit ran");
    let state = setup(out);
    let before = state.daemon.stats();
    let mark = ObsMark::now();
    let traced = gateway_measure(ctx, &state, round);
    mark.delta_into(&mut out.layers);
    stats_delta(out, &before, &state.daemon.stats());
    let (reports, seen) = gateway_grade(ctx, out, &state.dir, &traced, false);
    let mut own = Layers::default();
    for stored in &reports {
        stage::add_symex(&mut out.layers, OptLevel::Overify, &stored.runs);
        stage::add_symex(&mut own, OptLevel::Overify, &stored.runs);
    }
    // Both tiers queue through the serve scheduler and both run in this
    // process, so the registry's schedule count is the sum of the two.
    let accepted = (seen.steady_accepted + seen.flood_accepted) as f64;
    for (obs, value) in [
        ("obs.solver_queries", own.get("symex.queries")),
        ("obs.solver_sat_solves", own.get("symex.solved.sat")),
        ("obs.gateway_accepted", accepted),
        ("obs.gateway_shed", seen.flood_shed as f64),
        (
            "obs.sched_scheduled",
            accepted + out.layers.get("serve.executed"),
        ),
    ] {
        out.check_count(obs, value, "the harness");
    }
    let percentile = |v: &[f64], p: f64| crate::stats::percentile(v, p).unwrap_or(0.0);
    let post_ms: Vec<f64> = traced.posted.iter().map(|p| p.2).collect();
    let late_ms: Vec<f64> = traced.late.iter().map(|d| ms(*d)).collect();
    let layers = &mut out.layers;
    layers.set(
        "trace.overhead_share",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    layers.set("gateway.post_ms.p50", percentile(&post_ms, 50.0));
    layers.set("gateway.post_ms.p90", percentile(&post_ms, 90.0));
    layers.set("gateway.poll_ms.p50", percentile(&traced.poll_ms, 50.0));
    layers.set("gateway.generator_late_ms.p90", percentile(&late_ms, 90.0));
    layers.set(
        "gateway.flood_req_per_s",
        FLOOD_POSTS as f64 / traced.flood_s,
    );
    layers.set("gateway.accepted", seen.flood_accepted as f64);
    layers.set("gateway.shed", seen.flood_shed as f64);
    layers.set("gateway.quota_denied", seen.flood_quota_denied as f64);
    layers.set("gateway.lost", traced.poll_failures.len() as f64);

    // The gateway's parsers on the steady phase's own request bytes.
    let requests: Vec<Vec<u8>> = traced
        .subs
        .iter()
        .zip(&traced.bodies)
        .map(|(s, b)| request_bytes("POST", "/v1/verify", Some(TENANTS[s.tenant].0), b))
        .collect();
    let t = Instant::now();
    for raw in &requests {
        let parsed = overify_gateway::http::read_request(&mut std::io::Cursor::new(&raw[..]));
        std::hint::black_box(parsed.expect("own request parses"));
    }
    layers.set("gateway.http_parse_ns", t.elapsed().as_nanos() as f64);
    let t = Instant::now();
    for body in &traced.bodies {
        std::hint::black_box(Json::parse(body).expect("own body parses"));
    }
    layers.set("gateway.json_parse_ns", t.elapsed().as_nanos() as f64);

    // The same spec class straight through the daemon, closed loop on one
    // connection: what the gateway tier adds on top of `Submit`→`Report`.
    let direct = gen::submissions(
        ctx.seed,
        round + 1,
        2 * gen::service_bases().len(),
        0,
        1,
        &cfg,
    );
    let mut client = Client::connect(state.daemon.addr()).expect("client connects");
    let (shots, _) = closed_loop(&mut client, &direct, true);
    drop(client);
    state.stop();
    for (sub, shot) in direct.iter().zip(&shots) {
        grade_answer(ctx, out, sub, &shot.result);
    }
    event_stages(ctx, &mut out.layers, &shots);
    let direct_ms = median_of(shots.iter().map(|s| ms(s.latency)));
    let via_gateway = median_of(traced.steady_done.iter().map(|(_, d, _)| ms(*d)));
    out.layers
        .set("gateway.overhead_ms", via_gateway - direct_ms);

    let answers: Vec<Option<&SuiteJobResult>> =
        shots.iter().map(|s| s.result.as_ref().ok()).collect();
    let results: Vec<&SuiteJobResult> = answers.iter().flatten().copied().collect();
    wire_codec(&mut out.layers, &direct, &results);
    let in_process = mirror(ctx, out, &pool, &direct, &answers);
    out.layers.set(
        "serve.miss_overhead_ms",
        direct_ms - crate::stats::median(&in_process).unwrap_or(0.0),
    );
    out.layers.set_median("core.reexec_ms.p50", &in_process);
    stage::finish_derived(&mut out.layers);
}
