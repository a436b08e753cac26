//! End-to-end tests of the resident verification service: server and
//! clients in one process over real localhost sockets, state flowing
//! through a real store directory.

use overify::{OptLevel, StoreConfig, SuiteJob, SymConfig};
use overify_serve::{start, Client, Event, JobSpec, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_root(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("overify_serve_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn start_server(root: &PathBuf, executors: usize) -> ServerHandle {
    start(ServerConfig {
        port: 0,
        executors,
        store: Some(StoreConfig::at(root)),
        progress_interval: Duration::from_millis(5),
        tail_interval: Duration::from_millis(50),
        max_connections: None,
        queue_capacity: None,
    })
    .expect("server binds an ephemeral port")
}

fn small_cfg() -> SymConfig {
    SymConfig {
        pass_len_arg: true,
        collect_tests: true,
        ..Default::default()
    }
}

fn utility_spec(name: &str, level: OptLevel, bytes: &[usize]) -> JobSpec {
    let u = overify_coreutils::utility(name).expect("utility exists");
    JobSpec::from_suite_job(&SuiteJob::utility(u, level, bytes, &small_cfg()))
}

/// A branchy synthetic job: enough paths that a run spans several poller
/// ticks, so mid-flight progress is observable.
fn branchy_spec(bytes: Vec<usize>) -> JobSpec {
    JobSpec {
        name: "branchy".into(),
        source: r#"
            int umain(unsigned char *in, int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) {
                    if (in[i] > 'f') acc += 2;
                    else if (in[i] > 'c') acc += 1;
                    if (in[i] == 'x') acc *= 3;
                }
                return acc;
            }
        "#
        .into(),
        entry: "umain".into(),
        level: OptLevel::O0,
        bytes,
        path_workers: 1,
        cfg: small_cfg(),
    }
}

#[test]
fn concurrent_clients_share_one_store_and_agree_byte_for_byte() {
    let root = tmp_root("concurrent");
    let server = start_server(&root, 2);
    let addr = server.addr();
    let specs = || {
        vec![
            utility_spec("echo", OptLevel::Overify, &[2]),
            utility_spec("wc_words", OptLevel::O0, &[2]),
            utility_spec("cat_n", OptLevel::O3, &[2]),
        ]
    };

    // Two clients race the same job set over one store.
    let results: Vec<Vec<overify::SuiteJobResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connects");
                    c.submit_all(&specs()).expect("batch completes")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (a, b) in results[0].iter().zip(&results[1]) {
        assert_eq!(a.name, b.name);
        assert!(a.error.is_none(), "{}: {:?}", a.name, a.error);
        assert_eq!(a.runs, b.runs, "{}: reports must be byte-identical", a.name);
        assert!(a.exhausted(), "{}", a.name);
    }

    // A third, sequential client gets everything from the store without
    // the executor running again.
    let executed_before = server.stats().executed;
    let mut warm = Client::connect(addr).expect("connects");
    let mut saw_queue_or_schedule = false;
    let warm_results = warm
        .submit_all_with(&specs(), |ev| {
            if matches!(ev, Event::Queued { .. } | Event::Scheduled { .. }) {
                saw_queue_or_schedule = true;
            }
        })
        .expect("warm batch completes");
    assert!(warm_results.iter().all(|r| r.from_store), "all store hits");
    assert!(
        !saw_queue_or_schedule,
        "warm resubmits must never enter the scheduler"
    );
    assert_eq!(
        server.stats().executed,
        executed_before,
        "executor untouched by warm resubmits"
    );
    for (a, b) in results[0].iter().zip(&warm_results) {
        assert_eq!(a.runs, b.runs, "{}: stored report verbatim", a.name);
    }

    let stats = server.stats();
    assert_eq!(stats.submitted, 9);
    assert!(stats.answered_from_store >= 3);
    assert_eq!(
        stats.executed, 3,
        "single-flight coalescing: one execution per content address, \
         no matter how many clients race it"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn miss_jobs_stream_ordered_progress_events() {
    let root = tmp_root("progress");
    let server = start_server(&root, 1);
    let mut client = Client::connect(server.addr()).expect("connects");

    let mut events = Vec::new();
    let result = client
        .submit_with(&branchy_spec(vec![2, 3]), |ev| events.push(ev.clone()))
        .expect("job completes");
    assert!(!result.from_store);
    assert!(result.exhausted());

    // Stream shape: Queued, then Scheduled, then ≥1 Progress, then Report.
    let kinds: Vec<u8> = events
        .iter()
        .map(|e| match e {
            Event::Queued { .. } => 0,
            Event::Scheduled { .. } => 1,
            Event::Progress { .. } => 2,
            Event::Report { .. } => 3,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(kinds[0], 0, "first Queued: {events:?}");
    assert_eq!(kinds[1], 1, "then Scheduled");
    assert_eq!(*kinds.last().unwrap(), 3, "Report last");
    assert!(kinds[2..kinds.len() - 1].iter().all(|&k| k == 2));
    assert!(kinds.len() >= 4, "at least one progress frame: {kinds:?}");

    // Progress is monotone and totals match the final report.
    let progress: Vec<(u32, u32, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Progress {
                runs_done,
                runs_total,
                paths,
                ..
            } => Some((*runs_done, *runs_total, *paths)),
            _ => None,
        })
        .collect();
    assert!(progress.iter().all(|&(_, total, _)| total == 2));
    assert!(progress.windows(2).all(|w| w[0].2 <= w[1].2), "paths grow");
    let final_paths: u64 = result.runs.iter().map(|(_, r)| r.total_paths()).sum();
    assert_eq!(progress.last().unwrap().2, final_paths);
    assert_eq!(progress.last().unwrap().0, 2, "all runs done at the end");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A closed-loop client sends its next job only after the last one
/// reported, so its socket is idle between a miss's `Queued` and
/// `Scheduled` frames. With Nagle's algorithm on, the second of those two
/// small writes waited for the client's delayed ACK — at least 40 ms on
/// Linux — on every miss, dwarfing the scheduler's own sub-millisecond
/// hand-off.
#[test]
fn closed_loop_misses_are_not_held_by_nagle() {
    let root = tmp_root("nagle");
    let server = start_server(&root, 1);
    let mut client = Client::connect(server.addr()).expect("connects");
    let mut gaps_ms = Vec::new();
    for k in 0..12 {
        // Distinct sources: every submission is a store miss.
        let spec = JobSpec {
            name: format!("tiny{k}"),
            source: format!("int umain(unsigned char *in, int n) {{ return in[0] > {k}; }}"),
            entry: "umain".into(),
            level: OptLevel::O0,
            bytes: vec![1],
            path_workers: 1,
            cfg: small_cfg(),
        };
        let (mut queued, mut scheduled) = (None, None);
        let result = client
            .submit_with(&spec, |ev| match ev {
                Event::Queued { .. } => queued = Some(Instant::now()),
                Event::Scheduled { .. } => scheduled = Some(Instant::now()),
                _ => {}
            })
            .expect("job completes");
        assert!(!result.from_store, "{}: a miss", spec.name);
        let (queued, scheduled) = (queued.expect("Queued"), scheduled.expect("Scheduled"));
        gaps_ms.push((scheduled - queued).as_secs_f64() * 1e3);
    }
    gaps_ms.sort_by(f64::total_cmp);
    let median = (gaps_ms[5] + gaps_ms[6]) / 2.0;
    assert!(
        median < 10.0,
        "median Queued -> Scheduled gap {median:.2} ms (sorted gaps {gaps_ms:.2?})"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_jobs_stream_a_final_report_but_are_never_persisted() {
    let root = tmp_root("truncated");
    let server = start_server(&root, 1);
    let mut client = Client::connect(server.addr()).expect("connects");

    let mut spec = branchy_spec(vec![5]);
    spec.cfg.max_instructions = 50; // far below what the job needs
    let mut first_events = Vec::new();
    let first = client
        .submit_with(&spec, |ev| first_events.push(ev.clone()))
        .expect("truncated job still reports");
    assert!(!first.from_store);
    assert!(
        first.runs.iter().any(|(_, r)| r.timed_out),
        "the budget genuinely tripped"
    );
    assert!(
        matches!(first_events.first(), Some(Event::Queued { .. })),
        "streamed, not answered from store"
    );
    assert!(
        matches!(first_events.last(), Some(Event::Report { .. })),
        "stream ends in the final (non-persisted) report"
    );

    // A resubmit is a miss again — truncated outcomes must never replay —
    // and the scheduler now prices it by its *observed* cost.
    let mut observed_cost_priced = false;
    let second = client
        .submit_with(&spec, |ev| {
            if let Event::Queued { predicted_cost, .. } = ev {
                // Observed costs are wall-clock nanos of the first run —
                // far below the static estimate class's values, and
                // nonzero.
                observed_cost_priced = *predicted_cost > 0;
            }
        })
        .expect("resubmit completes");
    assert!(!second.from_store, "truncated run must recompute");
    assert!(observed_cost_priced, "cost feedback reached the scheduler");
    assert_eq!(server.stats().executed, 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn build_failures_and_stats_flow_over_the_wire() {
    let root = tmp_root("failures");
    let server = start_server(&root, 1);
    let mut client = Client::connect(server.addr()).expect("connects");

    let mut spec = branchy_spec(vec![2]);
    spec.source = "int umain(unsigned char *in, int n) { syntax error }".into();
    let result = client.submit(&spec).expect("failure is a result");
    assert!(result.error.is_some());
    assert!(result.runs.is_empty());

    let ok = client
        .submit(&utility_spec("echo", OptLevel::Overify, &[2]))
        .expect("next job on the same connection");
    assert!(ok.error.is_none());

    let stats = client.stats().expect("stats answer");
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.executed, 1, "only the well-formed job ran");
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.active, 0);
    assert_eq!(stats.store.reports_saved, 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn client_shutdown_drains_the_server() {
    let root = tmp_root("shutdown");
    let server = start_server(&root, 2);
    let addr = server.addr();
    let client = Client::connect(addr).expect("connects");
    client.shutdown().expect("acknowledged");
    // join() returns because the client-initiated shutdown drained the
    // executor pool, poller and accept loop.
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// A v5 client generation talking to this daemon — or, equivalently,
/// this client talking to an old daemon — must get a typed
/// `VersionSkew` refusal naming both versions, never a hang or a
/// garbled-frame error.
#[test]
fn version_skew_is_refused_by_name_not_by_hanging() {
    // A fake old daemon: leads with a Hello frame claiming protocol v5.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accepts");
        let mut payload = vec![0u8]; // Event::Hello tag
        payload.extend_from_slice(b"OVFYSRV\0");
        payload.extend_from_slice(&5u32.to_le_bytes());
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        std::io::Write::write_all(&mut conn, &frame).expect("writes hello");
        std::io::Write::flush(&mut conn).expect("flushes");
        // Hold the socket open: the refusal must come from the version
        // check, not from a convenient EOF.
        std::thread::sleep(Duration::from_millis(500));
    });

    let Err(err) = Client::connect(addr) else {
        panic!("v5 hello must be refused")
    };
    let msg = err.to_string();
    assert!(msg.contains("protocol v5"), "names the peer version: {msg}");
    fake.join().unwrap();
}

/// The connection cap refuses extra clients with a typed `Busy` frame
/// (surfaced as `WouldBlock` plus a retry hint) instead of accepting
/// unboundedly — and a freed slot admits the next client.
#[test]
fn connection_cap_refuses_cleanly_and_frees_slots() {
    let root = tmp_root("conncap");
    let server = start(ServerConfig {
        port: 0,
        executors: 1,
        store: Some(StoreConfig::at(&root)),
        progress_interval: Duration::from_millis(5),
        tail_interval: Duration::from_millis(50),
        max_connections: Some(1),
        queue_capacity: None,
    })
    .expect("server binds");
    let addr = server.addr();

    let first = Client::connect(addr).expect("first client fills the cap");
    let Err(err) = Client::connect(addr) else {
        panic!("second client must be over the cap")
    };
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    assert!(err.to_string().contains("connection cap"), "{err}");

    // Releasing the slot admits a new client (the server notices the
    // disconnect asynchronously, so poll briefly).
    drop(first);
    let mut admitted = None;
    for _ in 0..200 {
        match Client::connect(addr) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(e) => panic!("unexpected connect error: {e}"),
        }
    }
    let client = admitted.expect("freed slot admits a client");
    client.shutdown().expect("acknowledged");
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// With a zero-capacity queue every submission is shed: the client gets
/// a per-job result naming the shed and a retry hint, not an error that
/// kills the batch.
#[test]
fn bounded_queue_sheds_submissions_as_typed_results() {
    let root = tmp_root("qshed");
    let server = start(ServerConfig {
        port: 0,
        executors: 1,
        store: Some(StoreConfig::at(&root)),
        progress_interval: Duration::from_millis(5),
        tail_interval: Duration::from_millis(50),
        max_connections: None,
        queue_capacity: Some(0),
    })
    .expect("server binds");
    let addr = server.addr();

    let mut client = Client::connect(addr).expect("connects");
    let result = client
        .submit_with_tenant(&branchy_spec(vec![1]), "shed-tenant", |_| {})
        .expect("the connection survives a shed");
    let err = result.error.expect("shed submissions carry an error");
    assert!(err.starts_with("shed: server queue full"), "{err}");
    assert!(err.contains("retry after"), "{err}");

    client.shutdown().expect("acknowledged");
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}
