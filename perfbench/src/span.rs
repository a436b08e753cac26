//! The traced run's span recorder. Spans are recorded from the harness's
//! own files, around its calls into each layer; they are kept in memory and
//! written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one job or submission.
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe: the service workloads record from their client threads.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    jobs: AtomicU64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            jobs: AtomicU64::new(0),
        }
    }

    /// A fresh identifier for the spans of one job or submission.
    pub fn next_job(&self) -> u64 {
        self.jobs.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn add(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        job: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            job,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span, returning its result and duration. The
    /// closure receives the new span's id, to parent its own children.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        // Reserve the id first so children recorded inside `f` can name it.
        let id = self.add(name, start, start, parent, job);
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = end;
        (out, end - start)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// One row of the self-time table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each interval its direct children cover.
    pub self_ns: u64,
}

/// Per span name: how often, how long, and how long excluding children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Only the part of the child inside the parent's interval
            // counts against the parent.
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            child_ns[p] += hi.saturating_sub(lo);
        }
    }
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    rows
}

/// Total duration of the leaf spans (spans that caused no other span),
/// skipping the names in `skip`: the time attributed to concrete stages
/// rather than to the structure around them.
pub fn leaf_ns(spans: &[Span], skip: &[&str]) -> u64 {
    let mut is_parent = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            is_parent[p] = true;
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| !is_parent[*i] && !skip.contains(&s.name))
        .map(|(_, s)| s.dur_ns())
        .sum()
}

pub fn self_time_table(spans: &[Span]) -> String {
    let rows = self_times(spans);
    let mut sorted: Vec<_> = rows.iter().collect();
    sorted.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_ns));
    let covered: u64 = rows.values().map(|r| r.self_ns).sum();
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total ms", "self ms", "self %"
    );
    for (name, r) in sorted {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / covered.max(1) as f64
        ));
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, with its id, parent and job in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{id},\"parent\":{parent},\"job\":{}}}}}{}\n",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.job,
            if id + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let rec = Recorder::new();
        let job = rec.add("job", 0, 100, None, 7);
        let prep = rec.add("prepare", 10, 60, Some(job), 7);
        rec.add("compile", 20, 50, Some(prep), 7);
        rec.add("execute", 60, 90, Some(job), 7);
        let spans = rec.spans();
        let rows = self_times(&spans);
        assert_eq!(rows["job"].self_ns, 100 - 50 - 30);
        assert_eq!(rows["prepare"].self_ns, 50 - 30);
        assert_eq!(rows["compile"].self_ns, 30);
        assert_eq!(rows["execute"].total_ns, 30);
        // Every nanosecond inside some span is some span's self time.
        assert_eq!(rows.values().map(|r| r.self_ns).sum::<u64>(), 100);
        // Leaves are compile and execute; skipping one leaves the other.
        assert_eq!(leaf_ns(&spans, &[]), 60);
        assert_eq!(leaf_ns(&spans, &["execute"]), 30);
    }

    #[test]
    fn timed_closure_parents_its_children() {
        let rec = Recorder::new();
        let (inner, dur) = rec.time("outer", None, 1, |outer| {
            rec.time("inner", Some(outer), 1, |id| id).0
        });
        let spans = rec.spans();
        assert_eq!(spans[inner].parent, Some(0));
        assert_eq!(spans[0].dur_ns(), dur);
        assert!(spans[0].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_and_job() {
        let rec = Recorder::new();
        let a = rec.add("a", 0, 2_000, None, 3);
        rec.add("b", 500, 1_500, Some(a), 3);
        let text = chrome_trace(&rec.spans());
        let v = overify_gateway::json::Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(args.get("job").and_then(|p| p.as_u64()), Some(3));
    }
}
