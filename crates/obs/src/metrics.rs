//! The process-wide metrics registry.
//!
//! Metrics are created on first use and live for the life of the process
//! (handles are `&'static`, leaked once at registration). Updates are
//! relaxed atomics — counters are sharded across cache lines so that
//! worker threads incrementing the same metric never contend.
//!
//! The registry renders to a stable, line-oriented text exposition
//! format: `# TYPE` comment lines followed by `name value` samples, with
//! histogram buckets as `name_bucket{le="<edge>"} <cumulative>` plus
//! `name_sum` / `name_count`. Names sort lexicographically, so two
//! snapshots of the same process differ only in sample values — the
//! serve protocol's `Metrics` reply and the `--metrics-dump` files are
//! exactly this text.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of independent cache-line-padded shards per counter.
const SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    /// A small per-thread id used to pick a counter shard; threads spread
    /// round-robin so concurrent increments of one counter land on
    /// different cache lines.
    static SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
    };
}

/// A monotonically-increasing counter, sharded across cache lines.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        SHARD.with(|&s| self.shards[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The sum over all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A gauge: a value that goes up and down (queue depths, live leases).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// A latency histogram with fixed logarithmic (power-of-two) buckets.
///
/// Bucket `0` holds exactly the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i - 1]`, i.e. its inclusive upper edge is `2^i - 1`.
/// Observing is two relaxed atomic adds — no locks, no allocation.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper edge of bucket `i` (`u64::MAX` for the last).
pub fn bucket_edge(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, d: std::time::Duration) {
        self.observe(d.as_nanos() as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Estimates the `p`-quantile (`p` in `[0, 1]`) of everything this
    /// histogram has observed, by linear interpolation inside the
    /// power-of-two bucket the target rank falls in
    /// ([`quantile_from_buckets`]). Allocation-free.
    pub fn quantile(&self, p: f64) -> u64 {
        let counts = self.buckets();
        let mut pairs = [(0u64, 0u64); BUCKETS];
        for (i, pair) in pairs.iter_mut().enumerate() {
            *pair = (bucket_edge(i), counts[i]);
        }
        quantile_from_buckets(&pairs, p)
    }
}

/// Estimates the `p`-quantile from `(inclusive upper edge, count)` bucket
/// pairs (non-cumulative, edge-ascending — the [`Sample::Histogram`]
/// shape; zero-count pairs are allowed and ignored).
///
/// The rank `p * total` is located in its bucket and the value is
/// interpolated linearly between the bucket's bounds, so `p = 0` yields
/// the lower bound of the first populated bucket and `p = 1` the upper
/// edge of the last. An empty histogram estimates 0. Mass in the overflow
/// bucket interpolates toward `u64::MAX` — the estimate is deliberately
/// coarse there, as is the bucket.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], p: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0;
    }
    let rank = p.clamp(0.0, 1.0) * total as f64;
    let mut cumulative = 0.0f64;
    let mut last = 0u64;
    for &(edge, n) in buckets.iter().filter(|&&(_, n)| n > 0) {
        let before = cumulative;
        cumulative += n as f64;
        last = edge;
        if cumulative >= rank {
            if edge == 0 {
                return 0;
            }
            // A power-of-two bucket with inclusive upper edge `e` covers
            // `[e/2 + 1, e]` (this also maps the overflow bucket's
            // `u64::MAX` edge to a 2^63 lower bound).
            let lo = edge / 2 + 1;
            let frac = (rank - before) / n as f64;
            // f64 rounding near 2^63 can overshoot; clamp to the bucket.
            return lo
                .saturating_add(((edge - lo) as f64 * frac) as u64)
                .min(edge);
        }
    }
    last
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// A borrowed view of one registered metric, for allocation-free registry
/// walks ([`for_each`]).
#[derive(Clone, Copy)]
pub enum MetricView {
    /// A registered [`Counter`].
    Counter(&'static Counter),
    /// A registered [`Gauge`].
    Gauge(&'static Gauge),
    /// A registered [`Histogram`].
    Histogram(&'static Histogram),
}

/// Visits every registered metric in name order without allocating —
/// the sampling hook behind [`crate::rings`], where [`snapshot`]'s
/// per-call `Vec` would be garbage on a periodic timer.
pub fn for_each(mut f: impl FnMut(&'static str, MetricView)) {
    let map = registry().metrics.read().unwrap();
    for (&name, metric) in map.iter() {
        let view = match metric {
            Metric::Counter(c) => MetricView::Counter(c),
            Metric::Gauge(g) => MetricView::Gauge(g),
            Metric::Histogram(h) => MetricView::Histogram(h),
        };
        f(name, view);
    }
}

/// The process-wide registry mapping names to metric handles.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<&'static str, Metric>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

macro_rules! lookup_or_register {
    ($name:expr, $variant:ident, $ty:ty) => {{
        let reg = registry();
        if let Some(Metric::$variant(m)) = reg.metrics.read().unwrap().get($name) {
            return m;
        }
        let mut map = reg.metrics.write().unwrap();
        match map
            .entry($name)
            .or_insert_with(|| Metric::$variant(Box::leak(Box::<$ty>::default())))
        {
            Metric::$variant(m) => m,
            _ => panic!("metric {:?} registered with a different type", $name),
        }
    }};
}

/// The counter named `name`, creating it on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    lookup_or_register!(name, Counter, Counter)
}

/// The gauge named `name`, creating it on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    lookup_or_register!(name, Gauge, Gauge)
}

/// The histogram named `name`, creating it on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    lookup_or_register!(name, Histogram, Histogram)
}

macro_rules! lazy_handle {
    ($lazy:ident, $ty:ident, $get:ident, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Resolves its registry entry on first touch and caches the
        /// `&'static` handle, so steady-state access is one atomic load.
        pub struct $lazy {
            name: &'static str,
            cell: OnceLock<&'static $ty>,
        }

        impl $lazy {
            /// A handle for the metric named `name` (not yet registered).
            pub const fn new(name: &'static str) -> Self {
                Self {
                    name,
                    cell: OnceLock::new(),
                }
            }

            /// The resolved registry handle.
            #[inline]
            pub fn get(&self) -> &'static $ty {
                self.cell.get_or_init(|| $get(self.name))
            }
        }

        impl std::ops::Deref for $lazy {
            type Target = $ty;
            #[inline]
            fn deref(&self) -> &$ty {
                self.get()
            }
        }
    };
}

lazy_handle!(
    LazyCounter,
    Counter,
    counter,
    "A `static`-friendly handle to a named [`Counter`]."
);
lazy_handle!(
    LazyGauge,
    Gauge,
    gauge,
    "A `static`-friendly handle to a named [`Gauge`]."
);
lazy_handle!(
    LazyHistogram,
    Histogram,
    histogram,
    "A `static`-friendly handle to a named [`Histogram`]."
);

/// One metric's value in a [`snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sample {
    /// A counter total.
    Counter(u64),
    /// A gauge level.
    Gauge(i64),
    /// Histogram per-bucket counts and value sum.
    Histogram {
        /// Non-cumulative per-bucket counts.
        buckets: Vec<(u64, u64)>,
        /// Sum of observed values.
        sum: u64,
        /// Total observations.
        count: u64,
    },
}

/// A consistent-as-of-read copy of every registered metric, sorted by
/// name. Counter reads sum their shards, so a snapshot taken while other
/// threads increment may lag, but it never tears a single 64-bit sample
/// and post-join totals are exact.
pub fn snapshot() -> Vec<(&'static str, Sample)> {
    let map = registry().metrics.read().unwrap();
    map.iter()
        .map(|(&name, metric)| {
            let sample = match metric {
                Metric::Counter(c) => Sample::Counter(c.value()),
                Metric::Gauge(g) => Sample::Gauge(g.value()),
                Metric::Histogram(h) => {
                    let buckets = h.buckets();
                    Sample::Histogram {
                        buckets: buckets
                            .iter()
                            .enumerate()
                            .filter(|&(_, &n)| n > 0)
                            .map(|(i, &n)| (bucket_edge(i), n))
                            .collect(),
                        sum: h.sum(),
                        count: buckets.iter().sum(),
                    }
                }
            };
            (name, sample)
        })
        .collect()
}

/// The exposition kind keyword for a sample (`counter` | `gauge` |
/// `histogram`) — what follows the name on its `# TYPE` line.
pub fn sample_kind(sample: &Sample) -> &'static str {
    match sample {
        Sample::Counter(_) => "counter",
        Sample::Gauge(_) => "gauge",
        Sample::Histogram { .. } => "histogram",
    }
}

/// Escapes a label value for the exposition format (backslash, quote and
/// newline, the characters that would break the quoted syntax).
fn escape_label(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders one sample's value lines (no `# TYPE` header) into `out`, with
/// an optional `{key="value"}` label pair on every line — the building
/// block both [`render`] and the daemon's per-worker fleet series use.
/// Histogram buckets come out cumulative under `le=""` edges, followed by
/// the `+Inf` bucket and `_sum` / `_count` lines; with a label, `le` is
/// the *last* label (so `name_bucket{worker="w3",le="1023"} 4`).
pub fn render_sample(out: &mut String, name: &str, sample: &Sample, label: Option<(&str, &str)>) {
    let mut lbl = String::new();
    if let Some((k, v)) = label {
        lbl.push('{');
        lbl.push_str(k);
        lbl.push_str("=\"");
        escape_label(v, &mut lbl);
        lbl.push_str("\"}");
    }
    match sample {
        Sample::Counter(v) => {
            let _ = writeln!(out, "{name}{lbl} {v}");
        }
        Sample::Gauge(v) => {
            let _ = writeln!(out, "{name}{lbl} {v}");
        }
        Sample::Histogram {
            buckets,
            sum,
            count,
        } => {
            // Bucket lines put `le` last inside the braces so labeled and
            // unlabeled series parse with the same suffix match.
            let bucket_lbl = |edge: &str| match label {
                Some((k, v)) => {
                    let mut s = String::new();
                    s.push('{');
                    s.push_str(k);
                    s.push_str("=\"");
                    escape_label(v, &mut s);
                    s.push_str("\",le=\"");
                    s.push_str(edge);
                    s.push_str("\"}");
                    s
                }
                None => format!("{{le=\"{edge}\"}}"),
            };
            let mut cumulative = 0u64;
            for (edge, n) in buckets {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    bucket_lbl(&edge.to_string())
                );
            }
            let _ = writeln!(out, "{name}_bucket{} {count}", bucket_lbl("+Inf"));
            let _ = writeln!(out, "{name}_sum{lbl} {sum}\n{name}_count{lbl} {count}");
        }
    }
}

/// Renders the registry in the text exposition format (see module docs).
pub fn render() -> String {
    render_snapshot(&snapshot())
}

/// Renders one [`snapshot`] in the text exposition format.
fn render_snapshot(samples: &[(&str, Sample)]) -> String {
    let mut out = String::new();
    for (name, sample) in samples {
        let _ = writeln!(out, "# TYPE {name} {}", sample_kind(sample));
        render_sample(&mut out, name, sample, None);
    }
    out
}

/// Parses unlabeled exposition text (the inverse of [`render`], and the
/// shape `DeltaTracker::delta` pushes) back into named [`Sample`]s — the
/// daemon's fleet-fold path runs worker pushes through this.
///
/// Each `# TYPE name kind` header is followed by that metric's sample
/// lines; histogram buckets are de-cumulated back to per-bucket counts
/// (the `+Inf` line is redundant with `_count` and skipped). Labeled
/// lines (`name{worker="w"} v`) and anything else that does not match the
/// open block are ignored, so parsing a full fleet scrape yields exactly
/// its unlabeled rollup series.
pub fn parse(text: &str) -> Vec<(String, Sample)> {
    let mut out: Vec<(String, Sample)> = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(header) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let mut words = header.split_whitespace();
        let (Some(name), Some(kind)) = (words.next(), words.next()) else {
            continue;
        };
        match kind {
            "counter" | "gauge" => {
                let Some(&sample_line) = lines.peek() else {
                    break;
                };
                let Some((n, v)) = sample_line.rsplit_once(' ') else {
                    continue;
                };
                if n != name {
                    continue;
                }
                lines.next();
                if kind == "counter" {
                    if let Ok(v) = v.parse::<u64>() {
                        out.push((name.to_string(), Sample::Counter(v)));
                    }
                } else if let Ok(v) = v.parse::<i64>() {
                    out.push((name.to_string(), Sample::Gauge(v)));
                }
            }
            "histogram" => {
                let bucket_prefix = format!("{name}_bucket{{le=\"");
                let sum_prefix = format!("{name}_sum ");
                let count_prefix = format!("{name}_count ");
                let mut cumulative: Vec<(u64, u64)> = Vec::new();
                let mut sum = None;
                let mut count = None;
                while let Some(&l) = lines.peek() {
                    if let Some(rest) = l.strip_prefix(&bucket_prefix) {
                        lines.next();
                        if let Some((edge, cum)) = rest.split_once("\"} ") {
                            if let (Ok(e), Ok(c)) = (edge.parse::<u64>(), cum.parse::<u64>()) {
                                cumulative.push((e, c));
                            }
                        }
                    } else if let Some(v) = l.strip_prefix(&sum_prefix) {
                        lines.next();
                        sum = v.trim().parse::<u64>().ok();
                    } else if let Some(v) = l.strip_prefix(&count_prefix) {
                        lines.next();
                        count = v.trim().parse::<u64>().ok();
                        break;
                    } else {
                        break;
                    }
                }
                if let (Some(sum), Some(count)) = (sum, count) {
                    let mut buckets = Vec::with_capacity(cumulative.len());
                    let mut prev = 0u64;
                    for (e, c) in cumulative {
                        buckets.push((e, c.saturating_sub(prev)));
                        prev = c;
                    }
                    out.push((
                        name.to_string(),
                        Sample::Histogram {
                            buckets,
                            sum,
                            count,
                        },
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// Folds `delta` into `acc` the way fleet rollups aggregate: counters and
/// histograms add (bucket-wise, edges merged sorted), gauges take the
/// incoming level (last write wins — a level is not additive across
/// pushes of one process). Mismatched kinds leave `acc` unchanged.
pub fn fold_sample(acc: &mut Sample, delta: &Sample) {
    match (acc, delta) {
        (Sample::Counter(a), Sample::Counter(d)) => *a = a.wrapping_add(*d),
        (Sample::Gauge(a), Sample::Gauge(d)) => *a = *d,
        (
            Sample::Histogram {
                buckets: ab,
                sum: asum,
                count: acount,
            },
            Sample::Histogram {
                buckets: db,
                sum: dsum,
                count: dcount,
            },
        ) => {
            for &(edge, n) in db {
                match ab.binary_search_by_key(&edge, |&(e, _)| e) {
                    Ok(i) => ab[i].1 += n,
                    Err(i) => ab.insert(i, (edge, n)),
                }
            }
            *asum = asum.wrapping_add(*dsum);
            *acount += dcount;
        }
        _ => {}
    }
}

/// Tracks the last-pushed value of every registered metric and renders
/// only the change since — the worker side of metrics upstreaming.
/// Counters and histogram buckets emit differences (fold-additive at the
/// receiver, so pushes over different connections of one process may
/// interleave freely); gauges emit their absolute level whenever it
/// moved. The first call emits everything; a call with nothing changed
/// renders empty text.
#[derive(Default)]
pub struct DeltaTracker {
    last: std::collections::HashMap<&'static str, Sample>,
}

impl DeltaTracker {
    /// A tracker with no baseline (the first delta is the full registry).
    pub fn new() -> DeltaTracker {
        DeltaTracker::default()
    }

    /// Snapshots the registry, renders what changed since the previous
    /// call in the exposition format, and advances the baseline.
    pub fn delta(&mut self) -> String {
        let mut out = String::new();
        for (name, sample) in snapshot() {
            let delta = match (&sample, self.last.get(name)) {
                (s, None) => Some(s.clone()),
                (Sample::Counter(now), Some(Sample::Counter(then))) => {
                    let d = now.saturating_sub(*then);
                    (d > 0).then_some(Sample::Counter(d))
                }
                (Sample::Gauge(now), Some(Sample::Gauge(then))) => {
                    (now != then).then_some(Sample::Gauge(*now))
                }
                (
                    Sample::Histogram {
                        buckets,
                        sum,
                        count,
                    },
                    Some(Sample::Histogram {
                        buckets: b0,
                        sum: s0,
                        count: c0,
                    }),
                ) => (count != c0).then(|| Sample::Histogram {
                    buckets: buckets
                        .iter()
                        .map(|&(edge, n)| {
                            let then = b0
                                .iter()
                                .find(|&&(e, _)| e == edge)
                                .map_or(0, |&(_, n0)| n0);
                            (edge, n.saturating_sub(then))
                        })
                        .filter(|&(_, n)| n > 0)
                        .collect(),
                    sum: sum.wrapping_sub(*s0),
                    count: count - c0,
                }),
                // A name cannot change kind within a process (registration
                // panics on mismatch), but stay total anyway.
                (s, Some(_)) => Some(s.clone()),
            };
            if let Some(d) = delta {
                let _ = writeln!(out, "# TYPE {name} {}", sample_kind(&d));
                render_sample(&mut out, name, &d, None);
                self.last.insert(name, sample);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let c = counter("test_metrics_counter_shards");
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        // Same name resolves to the same handle.
        assert_eq!(counter("test_metrics_counter_shards").value(), 42);
    }

    #[test]
    fn gauge_up_down() {
        let g = gauge("test_metrics_gauge");
        g.set(5);
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.value(), 2);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly zero; bucket i>0 spans [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            // At the lower edge, at the upper edge, and (when the bucket
            // is wider than one value) strictly inside.
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
            if hi > lo {
                assert_eq!(bucket_index(lo + 1), i, "interior of bucket {i}");
            }
            // Just below the lower edge lands one bucket down; just above
            // the upper edge lands one bucket up.
            assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            if i < 63 {
                assert_eq!(bucket_index(hi + 1), i + 1, "above bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_edge(0), 0);
        assert_eq!(bucket_edge(1), 1);
        assert_eq!(bucket_edge(10), 1023);
        assert_eq!(bucket_edge(64), u64::MAX);
    }

    #[test]
    fn histogram_observe_and_edges() {
        let h = histogram("test_metrics_hist_edges");
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 2 + 3 + 4 + 1023 + 1024)
                .wrapping_add(u64::MAX)
        );
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[3], 1); // 4
        assert_eq!(b[10], 1); // 1023
        assert_eq!(b[11], 1); // 1024
        assert_eq!(b[64], 1); // u64::MAX
    }

    #[test]
    fn render_is_stable_and_parseable() {
        counter("test_render_counter").add(7);
        gauge("test_render_gauge").set(-3);
        let h = histogram("test_render_hist");
        h.observe(0);
        h.observe(100);
        let text = render();
        assert!(text.contains("# TYPE test_render_counter counter"));
        assert!(text.contains("test_render_counter 7"));
        assert!(text.contains("test_render_gauge -3"));
        assert!(text.contains("test_render_hist_bucket{le=\"0\"} 1"));
        assert!(text.contains("test_render_hist_bucket{le=\"127\"} 2"));
        assert!(text.contains("test_render_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_render_hist_sum 100"));
        assert!(text.contains("test_render_hist_count 2"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.split_whitespace().count() == 2,
                "unparseable line: {line:?}"
            );
        }
        // Names appear in sorted order (stable exposition).
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
    fn lazy_handles_resolve_once() {
        static C: LazyCounter = LazyCounter::new("test_lazy_counter");
        static H: LazyHistogram = LazyHistogram::new("test_lazy_hist");
        C.inc();
        C.add(2);
        H.observe(9);
        assert_eq!(counter("test_lazy_counter").value(), 3);
        assert_eq!(histogram("test_lazy_hist").count(), 1);
        assert!(std::ptr::eq(C.get(), counter("test_lazy_counter")));
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = histogram("test_quantile_empty");
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(quantile_from_buckets(&[], 0.99), 0);
        assert_eq!(quantile_from_buckets(&[(1023, 0), (2047, 0)], 0.5), 0);
    }

    #[test]
    fn quantile_with_single_bucket_mass_interpolates_inside_it() {
        // All mass in the [512, 1023] bucket: every quantile lands there.
        let h = histogram("test_quantile_single");
        for _ in 0..100 {
            h.observe(700);
        }
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let q = h.quantile(p);
            assert!((512..=1023).contains(&q), "p={p} escaped the bucket: {q}");
        }
        assert_eq!(h.quantile(0.0), 512, "p=0 is the bucket's lower bound");
        assert_eq!(h.quantile(1.0), 1023, "p=1 is the bucket's upper edge");
        // All mass on exactly zero stays exactly zero.
        assert_eq!(quantile_from_buckets(&[(0, 10)], 0.999), 0);
    }

    #[test]
    fn quantile_extremes_pick_first_and_last_populated_buckets() {
        // 10 observations at 0, 10 in [8, 15], 10 in [1024, 2047].
        let b = [(0u64, 10u64), (15, 10), (2047, 10)];
        assert_eq!(quantile_from_buckets(&b, 0.0), 0);
        assert_eq!(quantile_from_buckets(&b, 1.0), 2047);
        // The median rank (15 of 30) sits at the top of the middle bucket.
        let mid = quantile_from_buckets(&b, 0.5);
        assert!((8..=15).contains(&mid), "median escaped: {mid}");
        // Ranks are monotone in p.
        let mut last = 0;
        for i in 0..=100 {
            let q = quantile_from_buckets(&b, i as f64 / 100.0);
            assert!(q >= last, "quantile not monotone at p={i}%");
            last = q;
        }
    }

    #[test]
    fn quantile_overflow_bucket_reaches_u64_max() {
        let h = histogram("test_quantile_overflow");
        h.observe(1);
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Mass entirely in the overflow bucket: even p=0 is at least its
        // 2^63 lower bound.
        let q = quantile_from_buckets(&[(u64::MAX, 5)], 0.0);
        assert_eq!(q, 1u64 << 63);
        assert_eq!(quantile_from_buckets(&[(u64::MAX, 5)], 1.0), u64::MAX);
    }

    #[test]
    fn golden_exposition_format() {
        // The exact text a fixed registry slice renders to — the wire
        // format the fleet-fold path and external scrapers depend on.
        // Field order, `# TYPE` headers, cumulative `le=""` buckets and
        // the `+Inf`/`_sum`/`_count` trailer are all load-bearing.
        counter("test_golden_a_counter").add(12);
        gauge("test_golden_b_gauge").set(-7);
        let h = histogram("test_golden_c_hist");
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(900);
        let text = render();
        let golden = "# TYPE test_golden_a_counter counter\n\
                      test_golden_a_counter 12\n\
                      # TYPE test_golden_b_gauge gauge\n\
                      test_golden_b_gauge -7\n\
                      # TYPE test_golden_c_hist histogram\n\
                      test_golden_c_hist_bucket{le=\"0\"} 1\n\
                      test_golden_c_hist_bucket{le=\"3\"} 3\n\
                      test_golden_c_hist_bucket{le=\"1023\"} 4\n\
                      test_golden_c_hist_bucket{le=\"+Inf\"} 4\n\
                      test_golden_c_hist_sum 906\n\
                      test_golden_c_hist_count 4\n";
        let mine: String = {
            // Other tests in this process register their own metrics;
            // keep exactly this test's contiguous, name-sorted block.
            let start = text.find("# TYPE test_golden_a_counter").unwrap();
            let tail = &text[start..];
            let end = tail
                .lines()
                .take_while(|l| l.contains("test_golden_"))
                .map(|l| l.len() + 1)
                .sum();
            tail[..end].to_string()
        };
        assert_eq!(mine, golden);
    }

    #[test]
    fn labeled_render_escapes_and_parses() {
        let mut out = String::new();
        render_sample(
            &mut out,
            "test_labeled",
            &Sample::Counter(3),
            Some(("worker", "w\"1\\x")),
        );
        assert_eq!(out, "test_labeled{worker=\"w\\\"1\\\\x\"} 3\n");
        let mut hist = String::new();
        render_sample(
            &mut hist,
            "test_labeled_h",
            &Sample::Histogram {
                buckets: vec![(1, 2)],
                sum: 2,
                count: 2,
            },
            Some(("worker", "w3")),
        );
        assert!(hist.contains("test_labeled_h_bucket{worker=\"w3\",le=\"1\"} 2"));
        assert!(hist.contains("test_labeled_h_bucket{worker=\"w3\",le=\"+Inf\"} 2"));
        assert!(hist.contains("test_labeled_h_sum{worker=\"w3\"} 2"));
    }

    #[test]
    fn parse_round_trips_render() {
        counter("test_parse_rt_counter").add(99);
        gauge("test_parse_rt_gauge").set(-41);
        let h = histogram("test_parse_rt_hist");
        for v in [0u64, 5, 5, 1000, u64::MAX] {
            h.observe(v);
        }
        // Render one snapshot and compare against that same snapshot:
        // sibling tests keep registering and bumping metrics in this
        // process, so a second read of the global registry can differ.
        let live = snapshot();
        let text = render_snapshot(&live);
        let parsed = parse(&text);
        // Everything the registry snapshot holds comes back intact.
        assert_eq!(parsed.len(), live.len());
        for ((pn, ps), (ln, ls)) in parsed.iter().zip(&live) {
            assert_eq!(pn, ln);
            assert_eq!(ps, ls, "{pn} did not round-trip");
        }
        // And a re-render of the parsed samples is byte-identical.
        let mut again = String::new();
        for (name, sample) in &parsed {
            let _ = writeln!(again, "# TYPE {name} {}", sample_kind(sample));
            render_sample(&mut again, name, sample, None);
        }
        assert_eq!(again, text);
        // Junk and labeled lines are skipped, not misparsed.
        let noisy =
            format!("garbage\n# TYPE lonely counter\nother_name 5\n{text}x{{worker=\"w\"}} 1\n");
        assert_eq!(parse(&noisy), parsed);
    }

    #[test]
    fn fold_adds_counters_and_merges_histograms() {
        let mut acc = Sample::Counter(10);
        fold_sample(&mut acc, &Sample::Counter(5));
        assert_eq!(acc, Sample::Counter(15));

        let mut g = Sample::Gauge(3);
        fold_sample(&mut g, &Sample::Gauge(-2));
        assert_eq!(g, Sample::Gauge(-2), "gauges take the incoming level");

        let mut h = Sample::Histogram {
            buckets: vec![(1, 2), (1023, 1)],
            sum: 700,
            count: 3,
        };
        fold_sample(
            &mut h,
            &Sample::Histogram {
                buckets: vec![(0, 4), (1023, 2)],
                sum: 1400,
                count: 6,
            },
        );
        assert_eq!(
            h,
            Sample::Histogram {
                buckets: vec![(0, 4), (1, 2), (1023, 3)],
                sum: 2100,
                count: 9,
            }
        );

        // Mismatched kinds leave the accumulator untouched.
        let mut c = Sample::Counter(1);
        fold_sample(&mut c, &Sample::Gauge(9));
        assert_eq!(c, Sample::Counter(1));
    }

    #[test]
    fn delta_tracker_emits_changes_that_fold_back_to_totals() {
        let c = counter("test_delta_counter");
        let h = histogram("test_delta_hist");
        let g = gauge("test_delta_gauge");
        c.add(3);
        h.observe(100);
        g.set(7);

        let mut tracker = DeltaTracker::new();
        let first = tracker.delta();
        assert!(first.contains("test_delta_counter 3"));
        assert!(first.contains("test_delta_gauge 7"));

        // Nothing moved: this tracker's metrics go quiet (other tests may
        // move theirs concurrently, so assert on ours only).
        let quiet = tracker.delta();
        assert!(!quiet.contains("test_delta_counter"));
        assert!(!quiet.contains("test_delta_hist"));

        c.add(2);
        h.observe(100);
        h.observe(100000);
        g.set(-1);
        let second = tracker.delta();
        assert!(second.contains("test_delta_counter 2"), "counters diff");
        assert!(second.contains("test_delta_gauge -1"), "gauges absolute");

        // Folding both pushes reconstructs the live totals exactly.
        let mut table: BTreeMap<String, Sample> = BTreeMap::new();
        for text in [&first, &second] {
            for (name, delta) in parse(text) {
                table
                    .entry(name)
                    .and_modify(|acc| fold_sample(acc, &delta))
                    .or_insert(delta);
            }
        }
        assert_eq!(table["test_delta_counter"], Sample::Counter(5));
        assert_eq!(table["test_delta_gauge"], Sample::Gauge(-1));
        let live = snapshot()
            .into_iter()
            .find(|(n, _)| *n == "test_delta_hist")
            .unwrap()
            .1;
        assert_eq!(table["test_delta_hist"], live);
    }
}
