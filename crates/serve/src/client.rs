//! The typed client library.
//!
//! A [`Client`] wraps one connection: submissions can be pipelined (many
//! jobs in flight, events demultiplexed by job id) or run one at a time.
//! Every event of every job is surfaced to the caller's observer before
//! the finished [`SuiteJobResult`]s are returned, so a caller can render
//! progress, count store hits, or assert on the stream shape in tests.

use crate::protocol::{
    append_frame, decode_event, encode_request, nodelay, read_frame, write_frame, Event, JobSpec,
    MetricsScope, ProtocolError, Request, ServeStatsSnapshot, VERSION,
};
use overify::SuiteJobResult;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A fresh correlation id for one submission. The id rides the wire onto
/// every lease the run spawns, so spans dumped by the daemon and by any
/// worker process can be stitched into one timeline. Uniqueness only has
/// to hold per trace dump, so pid × wall clock × per-process counter is
/// plenty; zero is reserved as "untraced".
fn fresh_trace(spec: &JobSpec) -> u64 {
    use std::hash::{Hash, Hasher};
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::process::id().hash(&mut h);
    SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        .hash(&mut h);
    if let Ok(d) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        d.subsec_nanos().hash(&mut h);
        d.as_secs().hash(&mut h);
    }
    spec.name.hash(&mut h);
    h.finish().max(1)
}

/// One connection to a verification server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects and performs the handshake (the server leads with
    /// [`Event::Hello`]; magic and version must match this build).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = nodelay(TcpStream::connect(addr)?)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        match client.next_event()? {
            Event::Hello { version } if version == VERSION => Ok(client),
            Event::Hello { version } => Err(ProtocolError::VersionSkew {
                peer: version,
                ours: VERSION,
            }
            .into()),
            Event::Busy { retry_after_ms } => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("server at its connection cap; retry after {retry_after_ms}ms"),
            )),
            other => Err(proto_err(format!("expected Hello, got {other:?}"))),
        }
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        Ok(write_frame(&mut self.writer, &encode_request(req))?)
    }

    fn next_event(&mut self) -> io::Result<Event> {
        Ok(decode_event(&read_frame(&mut self.reader)?)?)
    }

    /// Submits one job and blocks until its report, feeding every event
    /// (`Queued`, `Scheduled`, `Progress`, …) to `on_event` first.
    pub fn submit_with<F>(&mut self, spec: &JobSpec, on_event: F) -> io::Result<SuiteJobResult>
    where
        F: FnMut(&Event),
    {
        let mut results = self.submit_all_with(std::slice::from_ref(spec), on_event)?;
        Ok(results.remove(0))
    }

    /// Submits one job and blocks until its report.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<SuiteJobResult> {
        self.submit_with(spec, |_| {})
    }

    /// Submits one job under a tenant key and blocks until its terminal
    /// event, feeding every event to `on_event` first. A shed submission
    /// comes back as a result whose error names the shed.
    pub fn submit_with_tenant<F>(
        &mut self,
        spec: &JobSpec,
        tenant: &str,
        on_event: F,
    ) -> io::Result<SuiteJobResult>
    where
        F: FnMut(&Event),
    {
        let mut results =
            self.submit_all_with_tenant(std::slice::from_ref(spec), tenant, on_event)?;
        Ok(results.remove(0))
    }

    /// Submits a batch pipelined — all jobs enter the server's scheduler
    /// together, so its cost-first policy (not submission order) decides
    /// execution order. Blocks until every job reported; results come
    /// back in submission order. Every event is surfaced to `on_event`
    /// as it arrives, interleaved across jobs.
    pub fn submit_all_with<F>(
        &mut self,
        specs: &[JobSpec],
        on_event: F,
    ) -> io::Result<Vec<SuiteJobResult>>
    where
        F: FnMut(&Event),
    {
        self.submit_all_with_tenant(specs, "", on_event)
    }

    /// [`Client::submit_all_with`], submitting under a tenant key. The
    /// daemon schedules tenants round-robin, so one flooding client
    /// delays its own backlog rather than everyone's. A submission the
    /// bounded queue refuses ([`Event::Shed`]) comes back as a result
    /// whose error names the shed — the batch still returns one result
    /// per spec, in order.
    pub fn submit_all_with_tenant<F>(
        &mut self,
        specs: &[JobSpec],
        tenant: &str,
        mut on_event: F,
    ) -> io::Result<Vec<SuiteJobResult>>
    where
        F: FnMut(&Event),
    {
        // The whole batch is one burst: appended unflushed, sent by one
        // flush.
        for spec in specs {
            append_frame(
                &mut self.writer,
                &encode_request(&Request::Submit {
                    spec: spec.clone(),
                    trace: fresh_trace(spec),
                    tenant: tenant.to_string(),
                }),
            )?;
        }
        self.writer.flush()?;
        // Job ids are assigned in submission order per connection; map
        // them to slots as their first events arrive.
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut next_slot = 0usize;
        let mut results: Vec<Option<SuiteJobResult>> = (0..specs.len()).map(|_| None).collect();
        let mut done = 0usize;
        while done < specs.len() {
            let ev = self.next_event()?;
            on_event(&ev);
            let job = match &ev {
                Event::Queued { job, .. }
                | Event::Scheduled { job }
                | Event::Progress { job, .. }
                | Event::Report { job, .. }
                | Event::Shed { job, .. } => *job,
                Event::ShuttingDown => {
                    return Err(proto_err("server shut down mid-batch"));
                }
                _ => continue,
            };
            let slot = *slot_of.entry(job).or_insert_with(|| {
                let s = next_slot;
                next_slot += 1;
                s
            });
            if slot >= results.len() {
                return Err(proto_err("server reported an unknown job"));
            }
            match ev {
                Event::Report { outcome, .. } => {
                    if results[slot].is_some() {
                        return Err(proto_err("server reported an unknown job"));
                    }
                    results[slot] = Some(outcome.into_result());
                    done += 1;
                }
                Event::Shed { retry_after_ms, .. } => {
                    if results[slot].is_some() {
                        return Err(proto_err("server reported an unknown job"));
                    }
                    results[slot] = Some(SuiteJobResult {
                        name: specs[slot].name.clone(),
                        level: specs[slot].level,
                        compile_time: std::time::Duration::ZERO,
                        runs: Vec::new(),
                        error: Some(format!(
                            "shed: server queue full; retry after {retry_after_ms}ms"
                        )),
                        from_store: false,
                        from_slice: false,
                        ledger: None,
                    });
                    done += 1;
                }
                _ => {}
            }
        }
        Ok(results.into_iter().map(|r| r.unwrap()).collect())
    }

    /// Submits a batch pipelined, ignoring intermediate events.
    pub fn submit_all(&mut self, specs: &[JobSpec]) -> io::Result<Vec<SuiteJobResult>> {
        self.submit_all_with(specs, |_| {})
    }

    /// Fetches a server statistics snapshot.
    pub fn stats(&mut self) -> io::Result<ServeStatsSnapshot> {
        self.send(&Request::Stats)?;
        match self.next_event()? {
            Event::Stats(s) => Ok(s),
            other => Err(proto_err(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Fetches the server's metrics in the text exposition format, plus
    /// the daemon's slow-query log (`(fingerprint, nanoseconds)` pairs,
    /// slowest first). The scope picks the table: the daemon process
    /// alone, the fleet rollup with per-worker labeled series, or one
    /// worker's pushed table.
    pub fn metrics(&mut self, scope: MetricsScope) -> io::Result<(String, Vec<(u128, u64)>)> {
        self.send(&Request::Metrics { scope })?;
        match self.next_event()? {
            Event::Metrics { text, slow } => Ok((text, slow)),
            other => Err(proto_err(format!("expected Metrics, got {other:?}"))),
        }
    }

    /// Registers this connection under a worker name in the daemon's
    /// fleet tables. After attaching, [`Client::push_metrics`] deltas
    /// render as a labeled series in the fleet metrics scope — this is
    /// how sidecar processes (the gateway tier, custom tooling) appear
    /// on the daemon's dashboard without speaking the lease protocol.
    pub fn attach_worker(&mut self, name: &str) -> io::Result<()> {
        self.send(&Request::AttachWorker {
            name: name.to_string(),
        })?;
        match self.next_event()? {
            Event::WorkerAttached { .. } => Ok(()),
            other => Err(proto_err(format!("expected WorkerAttached, got {other:?}"))),
        }
    }

    /// Upstreams one delta-encoded metrics snapshot (the
    /// `overify_obs::metrics::DeltaTracker` encoding) plus optional
    /// slow-query entries. The connection must be attached
    /// ([`Client::attach_worker`]) first.
    pub fn push_metrics(&mut self, text: String, slow: Vec<(u128, u64)>) -> io::Result<()> {
        self.send(&Request::MetricsPush { text, slow })?;
        match self.next_event()? {
            Event::MetricsAck => Ok(()),
            other => Err(proto_err(format!("expected MetricsAck, got {other:?}"))),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.next_event()? {
            Event::ShuttingDown => Ok(()),
            other => Err(proto_err(format!("expected ShuttingDown, got {other:?}"))),
        }
    }
}
