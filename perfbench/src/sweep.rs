//! The three batch workloads: the coreutils suite through the suite driver
//! at one thread, against a cold, a warm and an edited-under-it store.

use crate::expected::canonical;
use crate::gen::{self, Rng};
use crate::harness::{dir_bytes, remove_dir, Layers, ObsMark, Outcome};
use crate::span::leaf_ns;
use crate::stage::{self, level_suffix, Stager, OFF_ROUTE};
use crate::Ctx;
use overify::{verify_suite_stored_with, OptLevel, Store, StoreConfig, SuiteJob, SuiteJobResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O3, OptLevel::Overify];
const COLD_BYTES: [usize; 3] = [2, 3, 4];
const WARM_BYTES: [usize; 2] = [2, 3];
const TOUCH_BYTES: [usize; 3] = [2, 3, 4];
/// One `sweep-touch` pass is 12 rounds; round `k` edits the entries of
/// utilities `k`, `k + 12` and `k + 24` (mod 35), so a pass re-executes every
/// utility once (the first one twice). Short passes, each on a freshly
/// warmed store: the cost of the store's writes drifts by 10-20 % from one
/// directory and stretch of seconds to the next, and only the pool over
/// several passes is steady. Five passes give `miss_ms.p90` its 100 samples.
const TOUCH_ROUNDS: usize = 12;
const TOUCH_STRIDE: usize = 12;
const TOUCHED_PER_ROUND: usize = 3;

/// How a job was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Executed,
    ModuleHit,
    SliceHit,
}

fn route_of(r: &SuiteJobResult) -> Route {
    match (r.from_store, r.from_slice) {
        (false, _) => Route::Executed,
        (true, false) => Route::ModuleHit,
        (true, true) => Route::SliceHit,
    }
}

/// One sweep's results, each job's completion-to-completion time, and the
/// sweep's wall time (store open to last verdict out).
struct Sweep {
    results: Vec<SuiteJobResult>,
    per_job_ms: Vec<f64>,
    wall_s: f64,
}

/// Which driver runs a sweep: the product's, or the traced mirror.
enum Driver<'a> {
    Real,
    Staged(Stager<'a>),
}

impl Driver<'_> {
    fn sweep(&mut self, jobs: &[SuiteJob], dir: &Path) -> Sweep {
        match self {
            Driver::Real => {
                let owned = jobs.to_vec();
                let stamps = Mutex::new(Vec::with_capacity(jobs.len()));
                let start = Instant::now();
                // A freshly opened handle per sweep: state flows through
                // disk only, as it does between two CI runs.
                let store = Store::open(StoreConfig::at(dir)).expect("scratch store opens");
                let report = verify_suite_stored_with(owned, 1, Some(&store), |_, _, _| {
                    stamps.lock().expect("stamps").push(Instant::now());
                });
                let wall_s = start.elapsed().as_secs_f64();
                let mut last = start;
                let per_job_ms = stamps
                    .into_inner()
                    .expect("stamps")
                    .into_iter()
                    .map(|t| {
                        let ms = (t - last).as_secs_f64() * 1e3;
                        last = t;
                        ms
                    })
                    .collect();
                Sweep {
                    results: report.jobs,
                    per_job_ms,
                    wall_s,
                }
            }
            Driver::Staged(stager) => {
                let start = Instant::now();
                let (results, per_job_ms) = stager.sweep(jobs, dir);
                Sweep {
                    results,
                    per_job_ms,
                    wall_s: start.elapsed().as_secs_f64(),
                }
            }
        }
    }
}

type Reference = BTreeMap<(String, OptLevel), Vec<u8>>;

fn reference_of(sweep: &Sweep) -> Reference {
    sweep
        .results
        .iter()
        .map(|r| {
            (
                (gen::base_name(&r.name).to_string(), r.level),
                canonical(&r.runs),
            )
        })
        .collect()
}

/// Grades one sweep: every job is one operation. It fails on a build
/// error, a truncated run, a verdict that differs from the expected file,
/// an answer by the wrong route, or (for store answers) bytes that differ
/// from the cold run's. Latencies go to the class the job was meant for.
fn grade(
    ctx: &Ctx,
    out: &mut Outcome,
    jobs: &[SuiteJob],
    sweep: &Sweep,
    want: impl Fn(&SuiteJob) -> Route,
    reference: Option<&Reference>,
    sample: bool,
) {
    out.check(sweep.results.len() == jobs.len(), || {
        format!(
            "sweep returned {} of {} jobs",
            sweep.results.len(),
            jobs.len()
        )
    });
    for ((job, result), ms) in jobs.iter().zip(&sweep.results).zip(&sweep.per_job_ms) {
        out.attempted += 1;
        let want = want(job);
        let tag = format!("{}@{}", job.name, job.opts.level);
        if let Err(e) = ctx.expected.check_job(&job.source, result) {
            out.fail(format!("{tag}: {e}"));
        } else if route_of(result) != want {
            out.fail(format!(
                "{tag}: answered {:?}, expected {want:?}",
                route_of(result)
            ));
        } else if let (Some(reference), true) = (reference, want != Route::Executed) {
            let key = (gen::base_name(&job.name).to_string(), job.opts.level);
            if reference.get(&key) != Some(&canonical(&result.runs)) {
                out.fail(format!(
                    "{tag}: stored report differs from the cold run's bytes"
                ));
            }
        }
        if sample {
            match want {
                Route::Executed => out.miss_ms.push(*ms),
                Route::ModuleHit | Route::SliceHit => out.hit_ms.push(*ms),
            }
        }
    }
}

fn dead(ctx: &Ctx, purpose: &str) -> Vec<String> {
    gen::dead_functions(&mut Rng::stream(ctx.seed, purpose))
}

/// Runs `unit` with the traced mirror as its driver, the mirror's counts
/// accumulating into `out.layers`, and records the registry's movement over
/// exactly that unit.
fn with_staged_driver<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    unit: impl FnOnce(&mut Outcome, &mut Driver) -> T,
) -> T {
    let mark = ObsMark::now();
    // The unit needs `out` for grading while the stager fills the layers.
    let mut layers = std::mem::take(&mut out.layers);
    let mut driver = Driver::Staged(Stager {
        rec: ctx.rec,
        layers: &mut layers,
    });
    let result = unit(out, &mut driver);
    out.layers = layers;
    mark.delta_into(&mut out.layers);
    result
}

/// Folds a traced unit's results into the layer table and checks the
/// mirror against the real driver (same bytes, same deterministic counts)
/// and the registry against the mirror.
fn close_traced(
    ctx: &Ctx,
    out: &mut Outcome,
    real: &[&Sweep],
    staged: &[&Sweep],
    store_dir: &Path,
) {
    let mut real_layers = Layers::default();
    for (sweeps, layers) in [(real, &mut real_layers), (staged, &mut out.layers)] {
        for r in sweeps
            .iter()
            .flat_map(|s| &s.results)
            .filter(|r| !r.from_store)
        {
            stage::add_symex(layers, r.level, &r.runs);
        }
    }
    for name in [
        "symex.queries",
        "symex.solved.sat",
        "symex.paths",
        "symex.instructions",
    ] {
        out.check_count(name, real_layers.get(name), "the suite driver's reports");
    }
    for (r, s) in real.iter().zip(staged) {
        let same = r.results.len() == s.results.len()
            && r.results.iter().zip(&s.results).all(|(a, b)| {
                route_of(a) == route_of(b) && canonical(&a.runs) == canonical(&b.runs)
            });
        out.check(same, || {
            "traced mirror's reports differ from the driver's".to_string()
        });
    }
    let reexec: Vec<f64> = staged
        .iter()
        .flat_map(|s| s.results.iter().zip(&s.per_job_ms))
        .filter(|(r, _)| !r.from_store)
        .map(|(_, ms)| *ms)
        .collect();
    out.layers.set_median("core.reexec_ms.p50", &reexec);
    out.layers
        .set("store.bytes_on_disk", dir_bytes(store_dir) as f64);

    let spans = ctx.rec.spans();
    let real_wall: f64 = real.iter().map(|s| s.wall_s).sum();
    let off_route: u64 = spans
        .iter()
        .filter(|s| OFF_ROUTE.contains(&s.name))
        .map(|s| s.dur_ns())
        .sum();
    let traced_wall: f64 = staged.iter().map(|s| s.wall_s).sum::<f64>() - off_route as f64 / 1e9;
    out.layers
        .set("trace.overhead_share", traced_wall / real_wall - 1.0);
    let stages = leaf_ns(&spans, OFF_ROUTE) as f64 / 1e9;
    out.layers.set("core.driver_self_s", real_wall - stages);
    stage::finish_derived(&mut out.layers);
    for (obs, own) in [
        ("obs.solver_queries", "symex.queries"),
        ("obs.solver_sat_solves", "symex.solved.sat"),
        ("obs.store_report_hits", "store.report_hits"),
        ("obs.store_report_misses", "store.report_misses"),
    ] {
        out.check_count(obs, out.layers.get(own), own);
    }
}

/// A fresh store directory populated by one cold sweep of `jobs`, which the
/// caller grades. Returns the directory and the sweep (its per-job times
/// are the only executions `sweep-warm` ever performs).
fn populate(ctx: &Ctx, label: &str, jobs: &[SuiteJob]) -> (PathBuf, Sweep) {
    let dir = ctx.scratch.fresh(label);
    let sweep = Driver::Real.sweep(jobs, &dir);
    (dir, sweep)
}

// ---------------------------------------------------------------- cold

/// `sweep-cold`: the whole suite at three levels and three input sizes into
/// an empty store, then the same sweep again on a fresh handle to confirm
/// every job now answers from the store with the cold run's bytes.
pub fn cold(ctx: &Ctx, out: &mut Outcome) {
    let jobs = gen::sweep_jobs(&LEVELS, &COLD_BYTES, &dead(ctx, "cold"));
    let setup = |out: &mut Outcome| -> PathBuf {
        let t = Instant::now();
        // Every input must build: compile each once (this also pages in
        // the compiler before anything is timed).
        for job in &jobs {
            if let Err(failed) = overify::prepare_job(job, false) {
                out.check(false, || format!("{}: {:?}", job.name, failed.error));
            }
        }
        let dir = ctx.scratch.fresh("cold");
        out.setup_s.push(t.elapsed().as_secs_f64());
        dir
    };
    let unit = |out: &mut Outcome, driver: &mut Driver, dir: &Path, sample: bool| {
        let cold = driver.sweep(&jobs, dir);
        let confirm = driver.sweep(&jobs, dir);
        grade(ctx, out, &jobs, &cold, |_| Route::Executed, None, sample);
        let reference = reference_of(&cold);
        grade(
            ctx,
            out,
            &jobs,
            &confirm,
            |_| Route::ModuleHit,
            Some(&reference),
            sample,
        );
        (cold, confirm)
    };

    let mut measured = 0.0;
    let mut last = None;
    while out.wants_more(measured, ctx.seconds) {
        let dir = setup(out);
        let (cold, confirm) = unit(out, &mut Driver::Real, &dir, true);
        let wall = cold.wall_s + confirm.wall_s;
        out.wall_s.push(wall);
        measured += wall;
        remove_dir(&dir);
        last = Some((cold, confirm));
        if ctx.traced {
            break;
        }
    }
    while out.setup_s.len() < ctx.min_setups {
        setup(out);
    }
    let (cold, confirm) = last.expect("at least one unit ran");
    for level in LEVELS {
        let total: f64 = cold
            .results
            .iter()
            .filter(|r| r.level == level)
            .map(|r| r.total_time().as_secs_f64())
            .sum();
        let l = level_suffix(level).expect("a swept level");
        out.layers.set(&format!("verify_s.{l}"), total);
    }
    if ctx.traced {
        let dir = setup(out);
        let (tcold, tconfirm) =
            with_staged_driver(ctx, out, |out, driver| unit(out, driver, &dir, false));
        close_traced(ctx, out, &[&cold, &confirm], &[&tcold, &tconfirm], &dir);
        remove_dir(&dir);
    }
}

// ---------------------------------------------------------------- warm

/// `sweep-warm`: the suite at three levels against a store populated in
/// set-up; back-to-back sweeps, each on a freshly opened store, every job
/// a module-grain hit.
pub fn warm(ctx: &Ctx, out: &mut Outcome) {
    let jobs = gen::sweep_jobs(&LEVELS, &WARM_BYTES, &dead(ctx, "warm"));
    let setup = |out: &mut Outcome| -> (PathBuf, Reference) {
        let t = Instant::now();
        let (dir, cold) = populate(ctx, "warm", &jobs);
        out.setup_s.push(t.elapsed().as_secs_f64());
        // The populate sweep is this workload's only execution of the
        // verifier, so it is where `miss_ms` comes from.
        grade(ctx, out, &jobs, &cold, |_| Route::Executed, None, true);
        (dir, reference_of(&cold))
    };
    let mut state = None;
    for _ in 0..ctx.min_setups {
        if let Some((dir, _)) = state.replace(setup(out)) {
            remove_dir(&dir);
        }
    }
    let (dir, reference) = state.expect("set-up ran");
    let mut measured = 0.0;
    let mut last = None;
    while out.wants_more(measured, ctx.seconds) {
        let sweep = Driver::Real.sweep(&jobs, &dir);
        grade(
            ctx,
            out,
            &jobs,
            &sweep,
            |_| Route::ModuleHit,
            Some(&reference),
            true,
        );
        out.wall_s.push(sweep.wall_s);
        measured += sweep.wall_s;
        last = Some(sweep);
        if ctx.traced {
            break;
        }
    }
    if ctx.traced {
        let real = last.expect("at least one unit ran");
        let traced = with_staged_driver(ctx, out, |_, driver| driver.sweep(&jobs, &dir));
        grade(
            ctx,
            out,
            &jobs,
            &traced,
            |_| Route::ModuleHit,
            Some(&reference),
            false,
        );
        close_traced(ctx, out, &[&real], &[&traced], &dir);
    }
    remove_dir(&dir);
}

// --------------------------------------------------------------- touch

/// The utilities whose entries one round edits.
type Touched = [&'static str; TOUCHED_PER_ROUND];

/// The job lists of one `sweep-touch` pass: each round gives every utility
/// a fresh dead function and edits the entries of three.
fn touch_rounds(ctx: &Ctx, pass: usize) -> Vec<(Vec<SuiteJob>, Touched)> {
    let suite = overify::coreutils_suite();
    let mut rng = Rng::stream(ctx.seed, &format!("touch/{pass}"));
    let salts = gen::salts(&mut rng, TOUCHED_PER_ROUND * TOUCH_ROUNDS);
    (0..TOUCH_ROUNDS)
        .map(|k| {
            let touched: Touched =
                std::array::from_fn(|i| suite[(k + i * TOUCH_STRIDE) % suite.len()].name);
            let mut jobs = gen::sweep_jobs(
                &[OptLevel::Overify],
                &TOUCH_BYTES,
                &gen::dead_functions(&mut rng),
            );
            for job in &mut jobs {
                if let Some(i) = touched.iter().position(|t| *t == job.name) {
                    job.source = gen::touch_entry(&job.source, salts[TOUCHED_PER_ROUND * k + i]);
                }
            }
            (jobs, touched)
        })
        .collect()
}

/// `sweep-touch`: `-OVERIFY` only, store warmed in set-up; each round moves
/// every module key (slice splices) and edits three entry slices
/// (re-executed and written back), each round on a freshly opened store.
pub fn touch(ctx: &Ctx, out: &mut Outcome) {
    let base = gen::sweep_jobs(&[OptLevel::Overify], &TOUCH_BYTES, &dead(ctx, "touch"));
    let setup = |out: &mut Outcome| -> (PathBuf, Reference) {
        let t = Instant::now();
        let (dir, cold) = populate(ctx, "touch", &base);
        out.setup_s.push(t.elapsed().as_secs_f64());
        grade(ctx, out, &base, &cold, |_| Route::Executed, None, false);
        (dir, reference_of(&cold))
    };
    let pass = |out: &mut Outcome,
                driver: &mut Driver,
                rounds: &[(Vec<SuiteJob>, Touched)],
                dir: &Path,
                reference: &Reference,
                sample: bool|
     -> Vec<Sweep> {
        rounds
            .iter()
            .map(|(jobs, touched)| {
                let sweep = driver.sweep(jobs, dir);
                let want = |job: &SuiteJob| {
                    if touched.contains(&job.name.as_str()) {
                        Route::Executed
                    } else {
                        Route::SliceHit
                    }
                };
                grade(ctx, out, jobs, &sweep, want, Some(reference), sample);
                sweep
            })
            .collect()
    };

    let mut measured = 0.0;
    let mut passes = 0;
    let mut last = None;
    while out.wants_more(measured, ctx.seconds) {
        let rounds = touch_rounds(ctx, passes);
        let (dir, reference) = setup(out);
        let sweeps = pass(out, &mut Driver::Real, &rounds, &dir, &reference, true);
        let wall: f64 = sweeps.iter().map(|s| s.wall_s).sum();
        out.wall_s.push(wall);
        measured += wall;
        passes += 1;
        remove_dir(&dir);
        last = Some((rounds, sweeps));
        if ctx.traced {
            break;
        }
    }
    while out.setup_s.len() < ctx.min_setups {
        let (dir, _) = setup(out);
        remove_dir(&dir);
    }
    if ctx.traced {
        let (rounds, real) = last.expect("at least one unit ran");
        let (dir, reference) = setup(out);
        let traced = with_staged_driver(ctx, out, |out, driver| {
            pass(out, driver, &rounds, &dir, &reference, false)
        });
        let (real, traced): (Vec<&Sweep>, Vec<&Sweep>) =
            (real.iter().collect(), traced.iter().collect());
        close_traced(ctx, out, &real, &traced, &dir);
        remove_dir(&dir);
    }
}
