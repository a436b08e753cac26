//! What every workload shares: the per-run outcome, the scratch directory,
//! process memory, and the registry cross-check.

use crate::catalog::{EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, supports};
use overify_obs::metrics::Sample;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: jobs (batch) or submissions (service).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Harness-level inconsistencies (a route that did not behave as the
    /// workload requires, a cross-check that disagrees). Any entry makes
    /// the run incorrect.
    pub broken: Vec<String>,
    pub setup_s: Vec<f64>,
    /// One sample per unit: first input in to last verdict out.
    pub wall_s: Vec<f64>,
    /// Per-operation latency of operations that ran the verifier.
    pub miss_ms: Vec<f64>,
    /// Per-operation latency of operations answered from the store.
    pub hit_ms: Vec<f64>,
    /// Per-layer metrics by catalogued name (traced runs).
    pub layers: Layers,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: FAILED {what}");
        }
        self.failures.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: BROKEN {what}");
            self.broken.push(what);
        }
    }

    /// Cross-check: the per-layer metric `name` must equal `expected`, a
    /// count `source` made by other means.
    pub fn check_count(&mut self, name: &str, expected: f64, source: &str) {
        let got = self.layers.get(name);
        self.check(got == expected, || {
            format!("{name} = {got}, {source} counted {expected}")
        });
    }

    /// True until `seconds` of measured time have passed and both latency
    /// classes hold the samples their p90 needs, so a short `--seconds`
    /// lengthens the run instead of voiding it.
    pub fn wants_more(&self, measured: f64, seconds: f64) -> bool {
        measured < seconds || !supports(self.miss_ms.len(), 90) || !supports(self.hit_ms.len(), 90)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.broken.is_empty()
    }

    /// The end-to-end metrics, in catalogue order, each with its value and
    /// sample count.
    pub fn end_to_end(&mut self) -> Vec<(&'static EndToEnd, f64, usize)> {
        let mut out = Vec::new();
        for m in END_TO_END {
            let (samples, p): (&[f64], u32) = match m.name {
                "setup_s" => (&self.setup_s, 50),
                "wall_s" => (&self.wall_s, 50),
                "miss_ms.p50" => (&self.miss_ms, 50),
                "miss_ms.p90" => (&self.miss_ms, 90),
                "hit_ms.p50" => (&self.hit_ms, 50),
                "hit_ms.p90" => (&self.hit_ms, 90),
                "peak_rss_mb" => {
                    out.push((m, peak_rss_mib(), 1));
                    continue;
                }
                other => unreachable!("uncatalogued end-to-end metric {other}"),
            };
            let n = samples.len();
            match percentile(samples, f64::from(p)) {
                Some(v) => out.push((m, v, n)),
                None => self.broken.push(format!("{}: no samples", m.name)),
            }
            if !supports(n, p) {
                self.broken
                    .push(format!("{}: {n} samples do not support p{p}", m.name));
            }
        }
        out
    }
}

/// Per-layer metric accumulator keyed by catalogued name.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn key(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("uncatalogued per-layer metric {name}"))
            .name
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(Layers::key(name)).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(Layers::key(name), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `name` to the median of `samples` (0 when there are none).
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, median(samples).unwrap_or(0.0));
    }
}

/// The package directory, where `out/` lives. The benchmark reads and
/// writes nowhere else.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Per-process scratch space for store directories, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        // The counter keeps concurrent scratch spaces of one process (the
        // unit tests) apart.
        static SPACES: AtomicU64 = AtomicU64::new(0);
        let root = package_dir().join("out").join(format!(
            "tmp-{}-{}",
            std::process::id(),
            SPACES.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A path no earlier call returned; the directory does not exist yet.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

/// Total size of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The catalogued registry counters, read before and after a unit. The
/// registry is process-global, and the daemon and gateway run in-process,
/// so a delta covers every tier.
pub struct ObsMark(BTreeMap<&'static str, (u64, u64)>);

/// Registry name, `obs.*` metric fed by its count, and (histograms only)
/// the metric fed by its sum in milliseconds.
const OBS: &[(&str, &str, Option<&str>)] = &[
    ("overify_solver_queries_total", "obs.solver_queries", None),
    (
        "overify_solver_sat_solves_total",
        "obs.solver_sat_solves",
        None,
    ),
    (
        "overify_store_report_hits_total",
        "obs.store_report_hits",
        None,
    ),
    (
        "overify_store_report_misses_total",
        "obs.store_report_misses",
        None,
    ),
    (
        "overify_sched_time_to_schedule_ns",
        "obs.sched_scheduled",
        Some("obs.sched_wait_ms"),
    ),
    (
        "overify_gateway_accepted_total",
        "obs.gateway_accepted",
        None,
    ),
    ("overify_gateway_shed_total", "obs.gateway_shed", None),
];

impl ObsMark {
    pub fn now() -> ObsMark {
        let mut marks = BTreeMap::new();
        for (name, sample) in overify_obs::metrics::snapshot() {
            if OBS.iter().any(|(n, _, _)| *n == name) {
                marks.insert(
                    name,
                    match sample {
                        Sample::Counter(v) => (v, 0),
                        Sample::Gauge(v) => (v.max(0) as u64, 0),
                        Sample::Histogram { sum, count, .. } => (count, sum),
                    },
                );
            }
        }
        ObsMark(marks)
    }

    /// Writes the `obs.*` metrics: the registry's movement since `self`.
    pub fn delta_into(&self, layers: &mut Layers) {
        let after = ObsMark::now();
        for (name, count_metric, sum_metric) in OBS {
            let (c0, s0) = self.0.get(name).copied().unwrap_or((0, 0));
            let (c1, s1) = after.0.get(name).copied().unwrap_or((0, 0));
            layers.set(count_metric, c1.saturating_sub(c0) as f64);
            if let Some(sum_metric) = sum_metric {
                layers.set(sum_metric, s1.saturating_sub(s0) as f64 / 1e6);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_table_names_catalogued_metrics() {
        // `Layers::set` panics on an uncatalogued name. (The values are not
        // asserted: sibling tests run the solver in this process.)
        let mut layers = Layers::default();
        ObsMark::now().delta_into(&mut layers);
        for (_, count_metric, sum_metric) in OBS {
            assert!(layers.get(count_metric) >= 0.0);
            assert!(sum_metric.map_or(0.0, |m| layers.get(m)) >= 0.0);
        }
        assert_eq!(
            PER_LAYER
                .iter()
                .filter(|m| m.name.starts_with("obs."))
                .count(),
            8
        );
    }

    #[test]
    fn scratch_paths_are_unique_and_removed() {
        let root;
        {
            let s = Scratch::new().unwrap();
            let (a, b) = (s.fresh("x"), s.fresh("x"));
            assert_ne!(a, b);
            std::fs::create_dir_all(&a).unwrap();
            std::fs::write(a.join("f"), b"12345").unwrap();
            assert_eq!(dir_bytes(&a), 5);
            root = s.root.clone();
            assert!(root.starts_with(package_dir()));
        }
        assert!(!root.exists());
        assert!(peak_rss_mib() > 1.0);
    }
}
