//! The repo benchmark. One command, five workloads:
//!
//! ```sh
//! cargo run --release -- [--seed N] [--seconds S] [--traced] [--check-repeat] [--spread N]
//! cargo run --release -- --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--workload` the process runs that workload and prints, as the last
//! line of its standard output, one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). Without it the process re-executes itself once per
//! workload, so peak memory and every cache are per workload, and prints
//! the table. See `README.md` for the metric glossary.

mod catalog;
mod expected;
mod gen;
mod harness;
mod http;
mod openloop;
mod service;
mod span;
mod stage;
mod stats;
mod sweep;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use harness::{package_dir, Outcome, Scratch};
use overify_gateway::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// What a workload needs to run.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Measure until this much measured time has passed; a unit of work is
    /// never cut short.
    pub seconds: f64,
    /// Run one untraced unit, then the same unit through the traced
    /// drivers, and fill the per-layer table.
    pub traced: bool,
    /// Every run sets up at least this often; `setup_s` is the median.
    pub min_setups: usize,
    pub scratch: &'a Scratch,
    pub expected: &'a expected::Expected,
    pub rec: &'a span::Recorder,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_repeat: bool,
    spread: Option<usize>,
    emit_benchmark_json: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "perfbench: {problem}\n\
         usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
         \x20                [--check-repeat] [--spread RUNS] [--emit-benchmark-json]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        check_repeat: false,
        spread: None,
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                if catalog::workload(&name).is_none() {
                    usage(&format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a non-negative whole number"))
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .unwrap_or_else(|| usage("--seconds needs a number in (0, 60]"))
            }
            "--trace" => {
                args.traced = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            "--spread" => {
                args.spread = Some(
                    value("a run count")
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .unwrap_or_else(|| usage("--spread needs a run count of at least 2")),
                )
            }
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.emit_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // `--workload` alone runs that workload in this process; with
    // `--spread` or `--check-repeat` it narrows the re-executing modes.
    let ok = match &args.workload {
        Some(name) if args.spread.is_none() && !args.check_repeat => run_workload(name, &args),
        _ => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------ one workload, in-process

fn run_workload(name: &str, args: &Args) -> bool {
    let scratch = Scratch::new().expect("perfbench/out is writable");
    let expected = expected::Expected::load();
    let rec = span::Recorder::new();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        min_setups: if args.traced { 1 } else { 3 },
        scratch: &scratch,
        expected: &expected,
        rec: &rec,
    };
    let mut out = Outcome::default();
    match name {
        "sweep-cold" => sweep::cold(&ctx, &mut out),
        "sweep-warm" => sweep::warm(&ctx, &mut out),
        "sweep-touch" => sweep::touch(&ctx, &mut out),
        "daemon-submit" => service::daemon_submit(&ctx, &mut out),
        "gateway-poll" => service::gateway_poll(&ctx, &mut out),
        other => unreachable!("workload '{other}' passed the catalogue check"),
    }

    println!(
        "# {name}  seed {}  {} s  {}",
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    let metrics: Vec<(&str, f64, &str)> = if args.traced {
        let spans = rec.spans();
        let path = package_dir().join("out").join(format!("trace.{name}.json"));
        match std::fs::write(&path, span::chrome_trace(&spans)) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => out.check(false, || format!("cannot write {}: {e}", path.display())),
        }
        print!("{}", span::self_time_table(&spans));
        println!("{:<34} {:>18} unit", "per-layer metric", "value");
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name);
                println!("{:<34} {:>18.3} {}", m.name, v, m.unit);
                (m.name, v, m.unit)
            })
            .collect()
    } else {
        println!(
            "{:<14} {:>14} {:<4} {:>8} {:>6}",
            "end-to-end", "value", "unit", "samples", "bound"
        );
        out.end_to_end()
            .into_iter()
            .map(|(m, v, n)| {
                println!(
                    "{:<14} {:>14.4} {:<4} {:>8} {:>5.0}%",
                    m.name,
                    v,
                    m.unit,
                    n,
                    m.bound * 100.0
                );
                (m.name, v, m.unit)
            })
            .collect()
    };
    let failed = out.failures.len() as u64;
    println!(
        "failed_share {} of {} operations{}",
        failed,
        out.attempted,
        if out.broken.is_empty() {
            String::new()
        } else {
            format!("; {} harness checks failed", out.broken.len())
        }
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(v.is_finite(), "{name} is not a finite number");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        failed,
        body.join(", ")
    );
    out.correct()
}

// --------------------------------------------- all workloads, re-executed

/// One child run's result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{table}");
    }
    let v = Json::parse(last)?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = v.get("metrics") {
        for (name, m) in fields {
            if let Some(Json::Num(value)) = m.get("value") {
                metrics.insert(name.clone(), *value);
            }
        }
    }
    Some(ChildResult {
        correct: v.get("correct")?.as_bool()? && output.status.success(),
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        metrics,
    })
}

fn selected(args: &Args) -> impl Iterator<Item = &'static catalog::Workload> + '_ {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
}

fn run_all(args: &Args) -> bool {
    if let Some(runs) = args.spread {
        return spread(args, runs);
    }
    let mut ok = true;
    let mut rows: Vec<(&str, ChildResult)> = Vec::new();
    for w in selected(args) {
        let mut modes = vec![false];
        if args.traced {
            modes.push(true);
        }
        for traced in modes {
            let repeats = if args.check_repeat { 2 } else { 1 };
            let mut runs = Vec::new();
            for _ in 0..repeats {
                match run_child(w.name, args.seed, args.seconds, traced, runs.is_empty()) {
                    Some(r) => runs.push(r),
                    None => {
                        eprintln!("perfbench: {} printed no result line", w.name);
                        ok = false;
                    }
                }
            }
            ok &= runs.iter().all(|r| r.correct);
            if let [a, b] = &runs[..] {
                ok &= repeats_agree(w.name, traced, a, b);
            }
            if let (false, Some(first)) = (traced, runs.into_iter().next()) {
                rows.push((w.name, first));
            }
        }
    }
    println!("\n{:<14} {:>10} {:>7}", "workload", "attempted", "failed");
    for (name, r) in &rows {
        println!("{:<14} {:>10} {:>7}", name, r.attempted, r.failed);
    }
    for m in END_TO_END {
        println!("\n{} [{}], bound {:.0}%", m.name, m.unit, m.bound * 100.0);
        for (name, r) in &rows {
            if let Some(v) = r.metrics.get(m.name) {
                println!("  {:<14} {:>14.4}", name, v);
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    ok
}

/// `--check-repeat`: two runs of the same code and seed must agree within
/// each end-to-end metric's own bound, and exactly on deterministic counts.
fn repeats_agree(workload: &str, traced: bool, a: &ChildResult, b: &ChildResult) -> bool {
    let mut ok = true;
    if traced {
        // Which flood POSTs `gateway-poll` admits is decided by timing, so
        // its job set, and every count summed over it, differs run to run.
        let exact = workload != "gateway-poll";
        for m in PER_LAYER.iter().filter(|m| m.deterministic && exact) {
            let (x, y) = (a.metrics.get(m.name), b.metrics.get(m.name));
            if x != y {
                println!("REPEAT {workload}: {} differs: {x:?} then {y:?}", m.name);
                ok = false;
            }
        }
    } else {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                println!("REPEAT {workload}: {} missing from a run", m.name);
                ok = false;
                continue;
            };
            if (x - y).abs() > m.bound * x.min(*y) {
                println!(
                    "REPEAT {workload}: {} differs by more than {:.0}%: {x} then {y}",
                    m.name,
                    m.bound * 100.0
                );
                ok = false;
            }
        }
    }
    if ok {
        println!(
            "repeat {workload} ({}): agrees",
            if traced {
                "deterministic counts"
            } else {
                "end-to-end within bounds"
            }
        );
    }
    ok
}

/// `--spread RUNS`: every workload `RUNS` times, each with another seed;
/// prints each end-to-end metric's median and quartile spread beside its
/// bound. A spread above a third of the bound is flagged.
fn spread(args: &Args, runs: usize) -> bool {
    let mut ok = true;
    for w in selected(args) {
        let results: Vec<ChildResult> = (0..runs)
            .filter_map(|i| run_child(w.name, args.seed + i as u64, args.seconds, false, false))
            .collect();
        ok &= results.len() == runs && results.iter().all(|r| r.correct);
        println!(
            "\n{} ({} runs, seeds {}..)",
            w.name,
            results.len(),
            args.seed
        );
        for m in END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let (Some(med), Some(share)) =
                (stats::median(&values), stats::quartile_spread(&values))
            else {
                continue;
            };
            let steady = m.name == "setup_s" || share <= m.bound / 3.0;
            println!(
                "  {:<14} median {:>12.4} {:<4} spread {:>6.2}%  bound {:>3.0}%{}",
                m.name,
                med,
                m.unit,
                share * 100.0,
                m.bound * 100.0,
                if steady { "" } else { "  UNSTEADY" }
            );
        }
    }
    ok
}
