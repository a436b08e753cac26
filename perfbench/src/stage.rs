//! The traced run's stage-by-stage driver: a mirror of the suite driver's
//! job lifecycle (`prepare_job` → `load_stored` → `execute` in
//! `crates/core/src/suite.rs`) written against each layer's public
//! functions, with a span around every call. It produces the same store
//! contents and the same reports as the real driver; the traced run checks
//! that it does.

use crate::harness::Layers;
use crate::span::{Recorder, SpanId};
use overify::{
    budget_signature, OptLevel, ReportKey, RunLedger, SharedBudget, SharedQueryCache, SliceKey,
    Store, StoreConfig, StoredJob, SuiteJob, SuiteJobResult, VerificationReport,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The level suffix of per-level metrics; `None` for levels no workload
/// runs.
pub fn level_suffix(level: OptLevel) -> Option<&'static str> {
    match level {
        OptLevel::O0 => Some("o0"),
        OptLevel::O3 => Some("o3"),
        OptLevel::Overify => Some("overify"),
        OptLevel::O1 | OptLevel::O2 => None,
    }
}

/// Adds the symex-layer counters of fresh (not stored) reports.
pub fn add_symex(layers: &mut Layers, level: OptLevel, runs: &[(usize, VerificationReport)]) {
    for (_, r) in runs {
        let s = &r.solver;
        let verify_ns = r.time.as_nanos() as f64;
        layers.add("symex.verify_ns", verify_ns);
        layers.add("symex.solver_ns", s.solver_ns as f64);
        layers.add("symex.queries", s.queries as f64);
        layers.add("symex.solved.const", s.solved_const as f64);
        layers.add("symex.solved.interval", s.solved_interval as f64);
        layers.add("symex.solved.cex", s.solved_cex_cache as f64);
        layers.add("symex.solved.qcache", s.solved_query_cache as f64);
        layers.add("symex.solved.annotation", s.solved_annotation as f64);
        layers.add("symex.solved.enum", s.solved_enum as f64);
        layers.add("symex.solved.shared", s.solved_shared as f64);
        layers.add("symex.solved.sat", s.solved_sat as f64);
        layers.add("symex.sat_decisions", s.sat_decisions as f64);
        layers.add("symex.sat_conflicts", s.sat_conflicts as f64);
        layers.add("symex.slice_dropped", s.slice_dropped as f64);
        layers.add("symex.paths", r.total_paths() as f64);
        layers.add("symex.forks", r.forks as f64);
        layers.add("symex.instructions", r.instructions as f64);
        if let Some(l) = level_suffix(level) {
            layers.add(&format!("symex.verify_ns.{l}"), verify_ns);
            layers.add(&format!("symex.solver_ns.{l}"), s.solver_ns as f64);
            layers.add(&format!("symex.queries.{l}"), s.queries as f64);
            layers.add(&format!("symex.solved.sat.{l}"), s.solved_sat as f64);
            layers.add(&format!("symex.paths.{l}"), r.total_paths() as f64);
        }
    }
}

/// Derives the ratios and differences once every count is in.
pub fn finish_derived(layers: &mut Layers) {
    let (verify, solver) = (layers.get("symex.verify_ns"), layers.get("symex.solver_ns"));
    layers.set("symex.executor_ns", (verify - solver).max(0.0));
    let (queries, sat) = (layers.get("symex.queries"), layers.get("symex.solved.sat"));
    // Useful outcomes over attempts: queries some cheaper layer answered
    // before bit-blasting.
    let useful = if queries > 0.0 {
        (queries - sat) / queries
    } else {
        0.0
    };
    layers.set("symex.cache_useful_share", useful);
    let (bytes, ns) = (
        layers.get("lang.source_bytes"),
        layers.get("lang.compile_ns"),
    );
    layers.set(
        "lang.bytes_per_s",
        if ns > 0.0 { bytes / (ns / 1e9) } else { 0.0 },
    );
}

/// The staged driver: a recorder for spans, an accumulator for counts.
pub struct Stager<'a> {
    pub rec: &'a Recorder,
    pub layers: &'a mut Layers,
}

impl Stager<'_> {
    /// Runs `f` under a span named `name` and adds the span's duration to
    /// the per-layer metric `<name>_ns`. `f` gets the stager back, and the
    /// new span's id to parent its own stages.
    fn stage_ns<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> (T, u64) {
        let rec = self.rec;
        let (out, ns) = rec.time(name, parent, job, |span| f(self, span));
        self.layers.add(&format!("{name}_ns"), ns as f64);
        (out, ns)
    }

    fn stage<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        self.stage_ns(name, Some(parent), job, f).0
    }

    /// One whole sweep: the mirror of `verify_suite_stored` at one thread.
    /// Returns the results and each job's completion-to-completion time.
    pub fn sweep(&mut self, jobs: &[SuiteJob], dir: &Path) -> (Vec<SuiteJobResult>, Vec<f64>) {
        let rec = self.rec;
        let start = Instant::now();
        let id = rec.next_job();
        let (out, _) = rec.time("core.sweep", None, id, |sweep| {
            let store = self.stage("store.open", sweep, id, |_, _| {
                Store::open(StoreConfig::at(dir)).expect("scratch store opens")
            });
            let warm = self.stage("store.warm_solver_cache", sweep, id, |_, _| {
                store.warm_solver_cache()
            });
            let mut results = Vec::with_capacity(jobs.len());
            let mut per_job_ms = Vec::with_capacity(jobs.len());
            let mut last = start;
            for job in jobs {
                results.push(self.job(job, rec.next_job(), Some(sweep), &store, &warm));
                let now = Instant::now();
                per_job_ms.push((now - last).as_secs_f64() * 1e3);
                last = now;
            }
            self.stage("store.save_solver_cache", sweep, id, |_, _| {
                store.save_solver_cache(&warm)
            })
            .expect("solver cache persists");
            let stats = store.stats();
            self.layers
                .add("store.verdicts_loaded", stats.solver_entries_loaded as f64);
            self.layers
                .add("store.verdicts_saved", stats.solver_entries_saved as f64);
            (results, per_job_ms)
        });
        out
    }

    /// One job through the three lifecycle stages.
    pub fn job(
        &mut self,
        job: &SuiteJob,
        job_id: u64,
        parent: Option<SpanId>,
        store: &Store,
        warm: &Arc<SharedQueryCache>,
    ) -> SuiteJobResult {
        let rec = self.rec;
        let (out, _) = rec.time("core.job", parent, job_id, |span| {
            let prepared = match self.prepare(job, job_id, span) {
                Ok(p) => p,
                Err(failed) => return failed,
            };
            if let Some(hit) = self.load_stored(job, job_id, span, &prepared, store) {
                return hit;
            }
            self.execute(job, job_id, span, &prepared, store, warm)
        });
        out
    }

    /// Mirror of `overify::prepare_job(job, true)`, down to its signature:
    /// a build failure is the job's finished result.
    #[allow(clippy::result_large_err)]
    fn prepare(
        &mut self,
        job: &SuiteJob,
        id: u64,
        parent: SpanId,
    ) -> Result<Prepared, SuiteJobResult> {
        let level = job.opts.level;
        let t0 = Instant::now();
        let built = self.stage("core.prepare_job", parent, id, |this, span| {
            let combined = format!("{}\n{}", overify_libc::DECLARATIONS, job.source);
            this.layers.add("lang.source_bytes", combined.len() as f64);
            let mut module = this
                .stage("lang.compile", span, id, |_, _| {
                    overify_lang::compile(&combined)
                })
                .map_err(|e| e.to_string())?;
            let libc = this
                .stage("libc.compile", span, id, |_, _| {
                    overify_libc::compile_libc(job.opts.resolved_libc())
                })
                .map_err(|e| e.to_string())?;
            this.stage("ir.link", span, id, |_, _| module.link(libc))
                .map_err(|e| e.to_string())?;
            this.layers
                .add("opt.ir_insts_in", module.live_inst_count() as f64);
            let (stats, ns) = this.stage_ns("opt.optimize", Some(span), id, |_, _| {
                overify::compile_module(&mut module, &job.opts)
            });
            if let Some(l) = level_suffix(level) {
                this.layers.add(&format!("opt.optimize_ns.{l}"), ns as f64);
            }
            this.layers
                .add("opt.ir_insts_out", module.live_inst_count() as f64);
            for (name, v) in [
                ("opt.functions_inlined", stats.functions_inlined),
                ("opt.loops_unswitched", stats.loops_unswitched),
                ("opt.loops_unrolled", stats.loops_unrolled),
                ("opt.branches_converted", stats.branches_converted),
                ("opt.jumps_threaded", stats.jumps_threaded),
                ("opt.allocas_promoted", stats.allocas_promoted),
                ("opt.allocas_split", stats.allocas_split),
                ("opt.insts_simplified", stats.insts_simplified),
                ("opt.insts_hoisted", stats.insts_hoisted),
                ("opt.checks_inserted", stats.checks_inserted),
                ("opt.checks_elided", stats.checks_elided),
                ("opt.annotations_added", stats.annotations_added),
            ] {
                this.layers.add(name, v as f64);
            }
            let compile_time = t0.elapsed();

            let budget_sig = budget_signature(&job.entry, &job.bytes, job.path_workers, &job.cfg);
            let module_fp = this.stage("ir.module_fingerprint", span, id, |_, _| {
                overify::module_fingerprint(&module)
            });
            let slice_fp = this.stage("ir.slice_fingerprint", span, id, |_, _| {
                overify::slice_fingerprint(&module, &job.entry)
            });
            // The driver prices every prepared job.
            this.rec.time("core.static_cost", Some(span), id, |_| {
                std::hint::black_box(overify::estimated_module_cost(&module, job))
            });
            Ok(Prepared {
                module,
                compile_time,
                key: ReportKey {
                    module_fp,
                    level,
                    budget_sig,
                },
                slice_key: slice_fp.map(|slice_fp| SliceKey {
                    slice_fp,
                    level,
                    budget_sig,
                }),
            })
        });
        let prepared = built.map_err(|error: String| SuiteJobResult {
            name: job.name.clone(),
            level,
            compile_time: t0.elapsed(),
            runs: Vec::new(),
            error: Some(error),
            from_store: false,
            from_slice: false,
            ledger: None,
        })?;
        // Off the suite driver's route (`overify::compile` runs it, the
        // suite does not): timed for the layer table, excluded from the
        // route total.
        self.stage("ir.verify_module", parent, id, |_, _| {
            overify_ir::verify_module(&prepared.module)
        })
        .expect("the pipeline produced well-formed IR");
        Ok(prepared)
    }

    /// Mirror of `PreparedJob::load_stored`.
    fn load_stored(
        &mut self,
        job: &SuiteJob,
        id: u64,
        parent: SpanId,
        p: &Prepared,
        store: &Store,
    ) -> Option<SuiteJobResult> {
        self.stage("core.load_stored", parent, id, |this, span| {
            let report = this.stage("store.load_report", span, id, |_, _| {
                store.load_report(&p.key)
            });
            let probe = if report.is_some() {
                "store.report_hits"
            } else {
                "store.report_misses"
            };
            this.layers.add(probe, 1.0);
            let (stored, from_slice) = match report {
                Some(stored) => (stored, false),
                None => {
                    let key = p.slice_key.as_ref()?;
                    let slice =
                        this.stage("store.load_slice", span, id, |_, _| store.load_slice(key));
                    let probe = if slice.is_some() {
                        "store.slice_hits"
                    } else {
                        "store.slice_misses"
                    };
                    this.layers.add(probe, 1.0);
                    (slice?, true)
                }
            };
            let ledger = RunLedger {
                name: job.name.clone(),
                runs: stored.runs.len() as u64,
                bytes_moved: stored
                    .runs
                    .iter()
                    .map(|(_, r)| r.canonical_bytes().len() as u64)
                    .sum(),
                from_store: true,
                from_slice,
                ..RunLedger::default()
            };
            Some(SuiteJobResult {
                name: job.name.clone(),
                level: job.opts.level,
                compile_time: p.compile_time,
                runs: stored.runs,
                error: None,
                from_store: true,
                from_slice,
                ledger: Some(ledger),
            })
        })
    }

    /// Mirror of `PreparedJob::execute(Some(store), Some(warm), None)`.
    fn execute(
        &mut self,
        job: &SuiteJob,
        id: u64,
        parent: SpanId,
        p: &Prepared,
        store: &Store,
        warm: &Arc<SharedQueryCache>,
    ) -> SuiteJobResult {
        self.stage("core.execute", parent, id, |this, span| {
            let verify_start = Instant::now();
            let runs: Vec<(usize, VerificationReport)> = job
                .bytes
                .iter()
                .map(|&n| {
                    let mut cfg = job.cfg.clone();
                    cfg.input_bytes = n;
                    let budget = Arc::new(SharedBudget::new(&cfg));
                    // `symex.verify_ns` is summed from the reports' own
                    // clocks, for every route alike; this is the span only.
                    let (report, _) = this.rec.time("symex.verify", Some(span), id, |_| {
                        overify::verify_parallel_budgeted(
                            &p.module,
                            &job.entry,
                            &cfg,
                            job.path_workers,
                            warm,
                            &budget,
                        )
                    });
                    (n, report)
                })
                .collect();
            let elapsed = verify_start.elapsed();
            let ledger = RunLedger {
                name: job.name.clone(),
                verify_ns: elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                solver_ns: runs.iter().map(|(_, r)| r.solver.solver_ns).sum(),
                solver_queries: runs.iter().map(|(_, r)| r.solver.queries).sum(),
                sat_solves: runs.iter().map(|(_, r)| r.solver.solved_sat).sum(),
                paths: runs.iter().map(|(_, r)| r.total_paths()).sum(),
                instructions: runs.iter().map(|(_, r)| r.instructions).sum(),
                runs: runs.len() as u64,
                bytes_moved: runs
                    .iter()
                    .map(|(_, r)| r.canonical_bytes().len() as u64)
                    .sum(),
                from_store: false,
                from_slice: false,
                workers: Vec::new(),
            };
            // Bookkeeping appends: the ledger and both cost grains.
            this.stage("store.record_cost", span, id, |_, _| {
                store.record_ledger(&ledger)?;
                store.record_cost(&p.key, elapsed)?;
                match &p.slice_key {
                    Some(k) => store.record_slice_cost(k, elapsed),
                    None => Ok(()),
                }
            })
            .expect("cost and ledger logs append");
            if runs.iter().all(|(_, r)| !r.timed_out) {
                let stored = StoredJob { runs: runs.clone() };
                this.stage("store.save_report", span, id, |_, _| {
                    store.save_report(&p.key, &stored)
                })
                .expect("report artifact saves");
                if let Some(k) = &p.slice_key {
                    this.stage("store.save_slice", span, id, |_, _| {
                        store.save_slice(k, &stored)
                    })
                    .expect("slice artifact saves");
                }
            }
            SuiteJobResult {
                name: job.name.clone(),
                level: job.opts.level,
                compile_time: p.compile_time,
                runs,
                error: None,
                from_store: false,
                from_slice: false,
                ledger: Some(ledger),
            }
        })
    }
}

struct Prepared {
    module: overify::Module,
    compile_time: std::time::Duration,
    key: ReportKey,
    slice_key: Option<SliceKey>,
}

/// Spans that are timed for the layer table but are not steps of the suite
/// driver's route.
pub const OFF_ROUTE: &[&str] = &["ir.verify_module"];
