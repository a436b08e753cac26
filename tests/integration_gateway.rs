//! End-to-end tests of the public verification gateway: a real serve
//! daemon and a real gateway in one process, HTTP flowing over real
//! localhost sockets, job records and verdicts flowing through a real
//! store directory.

use overify::StoreConfig;
use overify_gateway::{start as start_gateway, GatewayConfig, GatewayHandle, QuotaConfig};
use overify_serve::{start as start_daemon, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmp_root(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("overify_gw_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn daemon_at(root: &Path, port: u16) -> ServerHandle {
    let cfg = || ServerConfig {
        port,
        executors: 2,
        store: Some(StoreConfig::at(root)),
        progress_interval: Duration::from_millis(5),
        tail_interval: Duration::from_millis(50),
        max_connections: None,
        queue_capacity: None,
    };
    // A fixed-port restart may race the old listener's teardown.
    for _ in 0..200 {
        match start_daemon(cfg()) {
            Ok(h) => return h,
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    panic!("daemon port {port} never became bindable");
}

fn gateway_at(
    daemon: SocketAddr,
    root: &Path,
    tweak: impl FnOnce(&mut GatewayConfig),
) -> GatewayHandle {
    let mut cfg = GatewayConfig::at(daemon, StoreConfig::at(root));
    tweak(&mut cfg);
    start_gateway(cfg).expect("gateway binds an ephemeral port")
}

/// One HTTP exchange over a fresh connection. Returns status, the raw
/// response head (for header assertions) and the body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    token: Option<&str>,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("gateway accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let auth = token
        .map(|t| format!("Authorization: Bearer {t}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: gw\r\n{auth}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").expect("head/body split");
    (status, head.to_string(), body.to_string())
}

/// Pulls a `"key":"value"` string field out of a flat JSON body.
fn extract(body: &str, key: &str) -> Option<String> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &body[at..];
    Some(rest[..rest.find('"')?].to_string())
}

/// A trivially verifiable submission; `salt` varies the content address.
fn spec_body(salt: usize) -> String {
    format!(
        "{{\"name\":\"gw-{salt}\",\"source\":\"int f(unsigned char *p, int n) \
         {{ int a = {salt}; if (n > 1 && p[0] > 'm') a += 2; return a; }}\",\
         \"entry\":\"f\",\"level\":\"O0\",\"bytes\":[2]}}"
    )
}

fn poll_terminal(addr: SocketAddr, token: Option<&str>, id: &str, deadline: Instant) -> String {
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), token, "");
        if status == 200 {
            if let Some(s @ ("done" | "failed")) = extract(&body, "state").as_deref() {
                return s.to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "job {id} not terminal in time (last: {status} {body})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads one counter series out of the `/metrics` text.
fn scrape_counter(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{series} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn submit_poll_registry_and_both_restarts() {
    let root = tmp_root("lifecycle");
    let daemon = daemon_at(&root, 0);
    let gw = gateway_at(daemon.addr(), &root, |_| {});
    let addr = gw.addr();

    // Defects are typed, not hangs: bad body, bad id, unknown id,
    // wrong method, no such route.
    let (status, _, body) = request(addr, "POST", "/v1/verify", None, "{\"name\":1}");
    assert_eq!((status, body.contains("error")), (400, true), "{body}");
    let (status, _, _) = request(addr, "GET", "/v1/jobs/zz", None, "");
    assert_eq!(status, 400);
    let (status, _, _) = request(addr, "GET", &format!("/v1/jobs/{:032x}", 7), None, "");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "GET", "/v1/verify", None, "");
    assert_eq!(status, 405);
    let (status, _, _) = request(addr, "GET", "/v1/nope", None, "");
    assert_eq!(status, 404);
    let (status, _, body) = request(addr, "GET", "/healthz", None, "");
    assert_eq!((status, body.trim()), (200, "ok"));

    // Submit-then-poll: a 202 with a durable job id, immediately.
    let (status, _, body) = request(addr, "POST", "/v1/verify", None, &spec_body(1));
    assert_eq!(status, 202, "{body}");
    let id = extract(&body, "job_id").expect("job id in response");
    assert_eq!(id.len(), 32, "content-addressed id is 32 hex digits");
    assert_eq!(extract(&body, "state").as_deref(), Some("queued"));

    let state = poll_terminal(addr, None, &id, Instant::now() + Duration::from_secs(120));
    assert_eq!(state, "done");
    let (_, _, job) = request(addr, "GET", &format!("/v1/jobs/{id}"), None, "");
    assert_eq!(extract(&job, "grain").as_deref(), Some("module"), "{job}");
    let verdict_fp = extract(&job, "fingerprint").expect("verdict names its artifact");

    // Idempotent resubmission: same spec, same id, no second run.
    let (status, _, body) = request(addr, "POST", "/v1/verify", None, &spec_body(1));
    assert_eq!(status, 200, "{body}");
    assert_eq!(extract(&body, "job_id").as_deref(), Some(id.as_str()));
    assert!(body.contains("\"resubmitted\":true"), "{body}");

    // The registry lists the stored verdict the job resolved to.
    let (status, _, reg) = request(addr, "GET", "/v1/registry", None, "");
    assert_eq!(status, 200);
    assert!(
        reg.contains(&verdict_fp),
        "registry row for the verdict: {reg}"
    );
    assert!(reg.contains("\"grain\":\"module\""), "{reg}");

    // The gateway's own registry is scrapable.
    let (status, _, metrics) = request(addr, "GET", "/metrics", None, "");
    assert_eq!(status, 200);
    assert!(scrape_counter(&metrics, "overify_gateway_accepted_total") >= 1);
    assert!(scrape_counter(&metrics, "overify_gateway_http_requests_total") >= 5);

    // Gateway restart: a fresh gateway on the same store answers the
    // old job id — and the daemon being gone doesn't matter for polls.
    gw.shutdown();
    daemon.shutdown();
    let daemon2 = daemon_at(&root, 0);
    let gw2 = gateway_at(daemon2.addr(), &root, |_| {});
    let (status, _, job) = request(gw2.addr(), "GET", &format!("/v1/jobs/{id}"), None, "");
    assert_eq!(status, 200);
    assert_eq!(extract(&job, "state").as_deref(), Some("done"), "{job}");
    assert_eq!(
        extract(&job, "fingerprint").as_deref(),
        Some(verdict_fp.as_str())
    );
    gw2.shutdown();
    daemon2.shutdown();
}

#[test]
fn auth_and_quota_gate_submissions() {
    let root = tmp_root("quota");
    let daemon = daemon_at(&root, 0);
    let gw = gateway_at(daemon.addr(), &root, |cfg| {
        cfg.tokens = vec![("tok-q".into(), "quota-alice".into())];
        cfg.quota = QuotaConfig {
            burst: 2.0,
            per_sec: 0.25,
        };
    });
    let addr = gw.addr();

    // No token / unknown token → 401 (and no quota spent).
    let (status, _, _) = request(addr, "POST", "/v1/verify", None, &spec_body(10));
    assert_eq!(status, 401);
    let (status, _, _) = request(addr, "POST", "/v1/verify", Some("wrong"), &spec_body(10));
    assert_eq!(status, 401);

    // The burst is admitted; the next submission is quota-denied with
    // an honest Retry-After.
    for salt in [10, 11] {
        let (status, _, body) =
            request(addr, "POST", "/v1/verify", Some("tok-q"), &spec_body(salt));
        assert_eq!(status, 202, "{body}");
    }
    let (status, head, body) = request(addr, "POST", "/v1/verify", Some("tok-q"), &spec_body(12));
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("quota"), "{body}");
    let retry_after: u64 = head
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .and_then(|v| v.parse().ok())
        .expect("Retry-After header");
    assert!(retry_after >= 1, "refill at 0.25/s is seconds away");

    // The books match: exactly what we observed, per tenant.
    let (_, _, metrics) = request(addr, "GET", "/metrics", None, "");
    assert_eq!(
        scrape_counter(
            &metrics,
            "overify_gateway_tenant_accepted_total{tenant=\"quota-alice\"}"
        ),
        2
    );
    assert_eq!(
        scrape_counter(
            &metrics,
            "overify_gateway_tenant_quota_denied_total{tenant=\"quota-alice\"}"
        ),
        1
    );
    gw.shutdown();
    daemon.shutdown();
}

/// The acceptance flood: thousands of concurrent submissions against a
/// small queue bound, with the backing daemon killed and restarted
/// mid-flood. Zero lost jobs: every submission is either accepted (and
/// reaches `done`) or shed with a 429 — and the gateway's per-tenant
/// counters agree exactly with what the clients observed.
#[test]
fn flood_sheds_explicitly_and_loses_nothing_across_daemon_restart() {
    const SUBMISSIONS: usize = 2400;
    const THREADS: usize = 16;
    const DISTINCT: usize = 150;
    const RESTART_AFTER: u64 = 600;

    let root = tmp_root("flood");
    // A fixed daemon port so the restarted daemon is reachable at the
    // address the gateway was configured with.
    let port = {
        let probe = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        probe.local_addr().unwrap().port()
    };
    let daemon = daemon_at(&root, port);
    let gw = gateway_at(daemon.addr(), &root, |cfg| {
        cfg.queue_capacity = 4;
        cfg.dispatchers = 16;
        cfg.quota = QuotaConfig {
            burst: 1e9,
            per_sec: 1e9,
        };
        cfg.tokens = vec![
            ("tok-fa".into(), "flood-alice".into()),
            ("tok-fb".into(), "flood-bob".into()),
        ];
    });
    let addr = gw.addr();

    let submitted = AtomicU64::new(0);
    let accepted_new = [AtomicU64::new(0), AtomicU64::new(0)];
    let resubmitted = AtomicU64::new(0);
    let shed = [AtomicU64::new(0), AtomicU64::new(0)];
    let ids = std::sync::Mutex::new(std::collections::HashSet::new());

    let mut daemon = Some(daemon);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (submitted, accepted_new, resubmitted, shed, ids) =
                (&submitted, &accepted_new, &resubmitted, &shed, &ids);
            scope.spawn(move || {
                let tenant = t % 2;
                let token = if tenant == 0 { "tok-fa" } else { "tok-fb" };
                for i in (t..SUBMISSIONS).step_by(THREADS) {
                    let body = spec_body(1000 + i % DISTINCT);
                    let (status, _, body) = request(addr, "POST", "/v1/verify", Some(token), &body);
                    match status {
                        202 => {
                            accepted_new[tenant].fetch_add(1, Ordering::Relaxed);
                            ids.lock()
                                .unwrap()
                                .insert(extract(&body, "job_id").unwrap());
                        }
                        200 => {
                            resubmitted.fetch_add(1, Ordering::Relaxed);
                            ids.lock()
                                .unwrap()
                                .insert(extract(&body, "job_id").unwrap());
                        }
                        429 => {
                            shed[tenant].fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}: {body}"),
                    }
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Mid-flood, bounce the daemon. Accepted jobs must ride it out.
        while submitted.load(Ordering::Relaxed) < RESTART_AFTER {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.take().unwrap().shutdown();
        daemon = Some(daemon_at(&root, port));
    });
    let daemon = daemon.unwrap();

    let acc: u64 = accepted_new.iter().map(|a| a.load(Ordering::Relaxed)).sum();
    let resub = resubmitted.load(Ordering::Relaxed);
    let shed_seen: u64 = shed.iter().map(|s| s.load(Ordering::Relaxed)).sum();
    assert_eq!(
        acc + resub + shed_seen,
        SUBMISSIONS as u64,
        "every submission got a definite answer"
    );
    assert!(shed_seen >= 1, "a 4-deep queue under this flood must shed");
    assert!(acc >= 1, "some submissions must get through");

    // Every accepted job reaches `done` — nothing is lost to the
    // restart, the shed daemon queue, or the gateway's own bound.
    let ids = ids.into_inner().unwrap();
    let deadline = Instant::now() + Duration::from_secs(600);
    for id in &ids {
        let state = poll_terminal(addr, Some("tok-fa"), id, deadline);
        assert_eq!(state, "done", "job {id}");
    }

    // The gateway's books agree exactly with what the clients counted.
    let (_, _, metrics) = request(addr, "GET", "/metrics", None, "");
    for (tenant, counts) in [("flood-alice", 0usize), ("flood-bob", 1)] {
        assert_eq!(
            scrape_counter(
                &metrics,
                &format!("overify_gateway_tenant_accepted_total{{tenant=\"{tenant}\"}}")
            ),
            accepted_new[counts].load(Ordering::Relaxed),
            "accepted ledger for {tenant}"
        );
        assert_eq!(
            scrape_counter(
                &metrics,
                &format!("overify_gateway_tenant_shed_total{{tenant=\"{tenant}\"}}")
            ),
            shed[counts].load(Ordering::Relaxed),
            "shed ledger for {tenant}"
        );
    }

    // The flood's verdicts are in the public registry.
    let (status, _, reg) = request(addr, "GET", "/v1/registry", Some("tok-fb"), "");
    assert_eq!(status, 200);
    let count: u64 = reg
        .split("\"count\":")
        .nth(1)
        .and_then(|r| r.trim_end_matches('}').parse().ok())
        .expect("registry count");
    assert!(count >= 1, "{reg}");

    gw.shutdown();
    daemon.shutdown();
}

/// A rebooted gateway replays interrupted (non-terminal) job records
/// back into its queue and finishes them.
#[test]
fn gateway_restart_recovers_interrupted_jobs() {
    let root = tmp_root("recovery");
    // Phase 1: a gateway accepts a job while the daemon is unreachable
    // (a port nothing listens on), then dies. The record stays queued.
    let dead_port = {
        let probe = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        probe.local_addr().unwrap().port()
    };
    let gw = gateway_at(SocketAddr::from(([127, 0, 0, 1], dead_port)), &root, |_| {});
    let (status, _, body) = request(gw.addr(), "POST", "/v1/verify", None, &spec_body(77));
    assert_eq!(status, 202, "{body}");
    let id = extract(&body, "job_id").unwrap();
    gw.shutdown();

    // Phase 2: a real daemon comes up, and a fresh gateway on the same
    // store replays the orphan to completion with no resubmission.
    let daemon = daemon_at(&root, 0);
    let gw2 = gateway_at(daemon.addr(), &root, |_| {});
    let state = poll_terminal(
        gw2.addr(),
        None,
        &id,
        Instant::now() + Duration::from_secs(120),
    );
    assert_eq!(state, "done", "recovered job finishes");
    gw2.shutdown();
    daemon.shutdown();
}
