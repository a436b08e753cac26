//! Seeded input generation: the same seed gives byte-identical inputs.
//!
//! The seed decides program *text* (the constants of appended dead
//! functions and entry edits), submission order and tenant assignment.
//! It never decides *which* programs run or how many: every seed draws
//! the same multiset of base programs, so the amount of verification work
//! is the same for every seed and run-to-run spread measures the machine,
//! not the draw. The programs under test see only the generated inputs.

use overify::{OptLevel, SuiteJob, SymConfig};
use overify_serve::JobSpec;
use std::time::Duration;

/// SplitMix64: small, seedable, and good enough to pick constants and
/// shuffle a few hundred items.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose, so adding a draw to one stream
    /// never shifts the values of another.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One base program: a suite utility or a seeded-bug program.
#[derive(Clone, Debug)]
pub struct Program {
    pub name: &'static str,
    pub source: &'static str,
}

/// Programs with one known, input-dependent bug each, sized so the bug
/// fires within three symbolic bytes (the repo's own seeded set in
/// `tests/integration_bugs.rs` needs five). Their expected verdicts are in
/// `expected/verdicts.tsv`.
const SEEDED_BUGS: &[Program] = &[
    Program {
        name: "bug_oob",
        source: r#"
int umain(unsigned char *in, int n) {
    char buf[2];
    int k = 0;
    while (in[k]) {
        buf[k] = in[k];   // No bound check: the third byte overflows.
        k++;
    }
    return k;
}
"#,
    },
    Program {
        name: "bug_div",
        source: r#"
int umain(unsigned char *in, int n) {
    int digits = 0;
    for (int i = 0; in[i]; i++) {
        if (isdigit(in[i])) digits++;
    }
    return 100 / digits;  // Zero when the input has no digit.
}
"#,
    },
    Program {
        name: "bug_assert",
        source: r#"
int umain(unsigned char *in, int n) {
    int seen = 0;
    for (int i = 0; in[i]; i++) {
        if (in[i] == 0x7f) seen = 1;
    }
    __assert(!seen);
    return 0;
}
"#,
    },
];

/// The 35 suite utilities, in suite order.
pub fn utilities() -> Vec<Program> {
    overify::coreutils_suite()
        .iter()
        .map(|u| Program {
            name: u.name,
            source: u.source,
        })
        .collect()
}

/// The service workloads' base set: the utilities plus the seeded-bug
/// programs.
pub fn service_bases() -> Vec<Program> {
    let mut all = utilities();
    all.extend(SEEDED_BUGS.iter().cloned());
    all
}

/// The base program a generated job or spec name refers to (`wc_words#17`
/// → `wc_words`): the key into the expected-verdict file.
pub fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

/// Budgets are instruction counts, so no run is ever cut short by the wall
/// clock and every run must come back `exhausted`.
pub fn sym_config() -> SymConfig {
    SymConfig {
        pass_len_arg: true,
        max_instructions: 10_000_000,
        timeout: Duration::from_secs(600),
        ..SymConfig::default()
    }
}

/// The configuration the gateway gives a spec: `POST /v1/verify` carries no
/// budget fields, so the daemon runs it under the defaults.
pub fn gateway_sym_config() -> SymConfig {
    SymConfig {
        pass_len_arg: true,
        ..SymConfig::default()
    }
}

/// An uncalled function with seeded constants. Appending it moves the
/// module fingerprint and leaves every entry's slice fingerprint alone.
pub fn dead_function(rng: &mut Rng) -> String {
    let (tag, a, b, c) = (
        rng.next_u64() & 0xffff_ffff,
        rng.below(1000),
        rng.below(7) + 1,
        rng.below(250) + 1,
    );
    format!(
        "\nint bench_dead_{tag:08x}(unsigned char *in, int n) {{\n    \
         int a = {a};\n    if (n > {b}) a += in[0] * {c};\n    return a;\n}}\n"
    )
}

/// Every base program opens its entry with exactly this line.
const ENTRY_OPEN: &str = "int umain(unsigned char *in, int n) {";

/// Edits the program's entry: a salted guard becomes `umain`'s first
/// statement. `n` is the input length, never negative, so the guard is
/// never taken and (with `n` concrete at run time) never forks; but it
/// survives every optimization level, so the entry's slice fingerprint
/// differs for every salt and the job must re-execute.
///
/// (An edit *inside* the entry rather than a wrapper *around* it: wrapping
/// `wc_words` makes the `-O3`/`-OVERIFY` inliner index out of bounds at
/// `crates/opt/src/passes/inline.rs:139`, and a workload must not contain
/// an operation that fails.)
pub fn touch_entry(source: &str, salt: u32) -> String {
    assert!(source.contains(ENTRY_OPEN), "program has no standard entry");
    let guard = format!("{ENTRY_OPEN}\n    if (n == -{salt}) return {salt};");
    source.replacen(ENTRY_OPEN, &guard, 1)
}

/// `count` distinct salts, in seeded order.
pub fn salts(rng: &mut Rng, count: usize) -> Vec<u32> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let s = (rng.below(1_000_000_000) + 1) as u32;
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// The suite at `levels`, in the driver's own cost-descending order, each
/// utility followed by `dead[i]` (indexed in suite order).
pub fn sweep_jobs(levels: &[OptLevel], bytes: &[usize], dead: &[String]) -> Vec<SuiteJob> {
    let suite = overify::coreutils_suite();
    let mut jobs = overify::coreutils_jobs(levels, bytes, &sym_config());
    for job in &mut jobs {
        let i = suite
            .iter()
            .position(|u| u.name == job.name)
            .expect("coreutils_jobs names a suite utility");
        job.source.push_str(&dead[i]);
    }
    jobs
}

/// One dead function per suite utility.
pub fn dead_functions(rng: &mut Rng) -> Vec<String> {
    (0..overify::coreutils_suite().len())
        .map(|_| dead_function(rng))
        .collect()
}

/// One submission of a service workload.
#[derive(Clone, Debug)]
pub struct Submission {
    pub spec: JobSpec,
    /// True when the spec was answered in set-up, so this submission must
    /// be answered from the store.
    pub resubmit: bool,
    /// Index into the workload's tenant list.
    pub tenant: usize,
}

fn spec(name: String, source: String, cfg: &SymConfig) -> JobSpec {
    JobSpec {
        name,
        source,
        entry: "umain".to_string(),
        level: OptLevel::Overify,
        bytes: vec![2, 3],
        path_workers: 1,
        cfg: cfg.clone(),
    }
}

/// The specs a service workload answers in set-up and resubmits while
/// measuring: every base program once, each with a seeded dead function.
pub fn pool_specs(seed: u64, cfg: &SymConfig) -> Vec<JobSpec> {
    let mut rng = Rng::stream(seed, "pool");
    service_bases()
        .iter()
        .map(|p| {
            let source = format!("{}{}", p.source, dead_function(&mut rng));
            spec(format!("{}#pool", p.name), source, cfg)
        })
        .collect()
}

/// `novel` never-seen specs (base programs taken round-robin, each with a
/// distinct seeded edit of its entry) and `resubmits` pool specs, all in one
/// seeded order. (Not strictly alternating: with two closed-loop
/// connections a fixed novel/resubmit rhythm phase-locks them, and which
/// phase a run falls into decides whether resubmits overlap the other
/// connection's compile; a shuffle samples every overlap within one run.)
/// `round` separates the units of one run: same seed, different round,
/// different edits.
pub fn submissions(
    seed: u64,
    round: usize,
    novel: usize,
    resubmits: usize,
    tenants: usize,
    cfg: &SymConfig,
) -> Vec<Submission> {
    let bases = service_bases();
    let mut rng = Rng::stream(seed, &format!("submissions/{round}"));
    let fresh: Vec<JobSpec> = salts(&mut rng, novel)
        .into_iter()
        .enumerate()
        .map(|(i, salt)| {
            // Rounds continue the round-robin where the last one stopped, so
            // a run of several short units still draws every base evenly.
            let p = &bases[(round * novel + i) % bases.len()];
            spec(
                format!("{}#{round}.{i}", p.name),
                touch_entry(p.source, salt),
                cfg,
            )
        })
        .collect();
    let pool = pool_specs(seed, cfg);
    let again: Vec<JobSpec> = (0..resubmits)
        .map(|i| pool[i % pool.len()].clone())
        .collect();

    let mut out: Vec<(JobSpec, bool)> = fresh
        .into_iter()
        .map(|spec| (spec, false))
        .chain(again.into_iter().map(|spec| (spec, true)))
        .collect();
    rng.shuffle(&mut out);
    // Tenants are dealt evenly, then shuffled onto the submissions.
    let mut deal: Vec<usize> = (0..out.len()).map(|i| i % tenants.max(1)).collect();
    rng.shuffle(&mut deal);
    out.into_iter()
        .zip(deal)
        .map(|((spec, resubmit), tenant)| Submission {
            spec,
            resubmit,
            tenant,
        })
        .collect()
}

/// `count` distinct, cheap specs for the gateway flood: the point of the
/// flood is admission, not verification, so each program is one branch.
pub fn flood_specs(seed: u64, count: usize, cfg: &SymConfig) -> Vec<JobSpec> {
    let mut rng = Rng::stream(seed, "flood");
    salts(&mut rng, count)
        .into_iter()
        .enumerate()
        .map(|(i, salt)| {
            let source = format!(
                "int umain(unsigned char *in, int n) {{\n    \
                 int a = {salt};\n    if (n > 1 && in[0] > 'm') a += 2;\n    return a;\n}}\n"
            );
            spec(format!("flood#{i}"), source, cfg)
        })
        .collect()
}

/// The `POST /v1/verify` body of a spec.
pub fn spec_json(spec: &JobSpec) -> String {
    let bytes: Vec<String> = spec.bytes.iter().map(|b| b.to_string()).collect();
    format!(
        "{{\"name\":\"{}\",\"source\":\"{}\",\"entry\":\"{}\",\"level\":\"{}\",\"bytes\":[{}]}}",
        overify_gateway::json::esc(&spec.name),
        overify_gateway::json::esc(&spec.source),
        overify_gateway::json::esc(&spec.entry),
        match spec.level {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
            OptLevel::Overify => "overify",
        },
        bytes.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let cfg = sym_config();
        let render = |seed: u64| -> String {
            let mut rng = Rng::stream(seed, "dead");
            let dead = dead_functions(&mut rng);
            let jobs = sweep_jobs(&[OptLevel::O0, OptLevel::Overify], &[2, 3], &dead);
            let subs = submissions(seed, 0, 40, 40, 2, &cfg);
            let mut out = String::new();
            for j in &jobs {
                out.push_str(&format!("{}@{}\n{}\n", j.name, j.opts.level, j.source));
            }
            for s in &subs {
                out.push_str(&format!(
                    "{} {} {}\n",
                    s.tenant,
                    s.resubmit,
                    spec_json(&s.spec)
                ));
            }
            for s in flood_specs(seed, 20, &cfg) {
                out.push_str(&spec_json(&s));
            }
            out
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn every_seed_draws_the_same_programs() {
        let cfg = sym_config();
        let names = |seed: u64| -> Vec<(String, bool)> {
            let mut v: Vec<(String, bool)> = submissions(seed, 0, 76, 76, 2, &cfg)
                .iter()
                .map(|s| (base_name(&s.spec.name).to_string(), s.resubmit))
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(1), names(2));
        let subs = submissions(1, 0, 76, 76, 2, &cfg);
        assert_eq!(subs.len(), 152);
        assert_eq!(subs.iter().filter(|s| s.resubmit).count(), 76);
        assert_eq!(subs.iter().filter(|s| s.tenant == 0).count(), 76);
        // Classes are mixed, not bunched at one end of the run.
        let first_half = subs[..76].iter().filter(|s| s.resubmit).count();
        assert!(
            (19..=57).contains(&first_half),
            "{first_half} resubmits in the first half"
        );
    }

    #[test]
    fn rounds_and_salts_never_repeat_a_novel_spec() {
        let cfg = sym_config();
        let mut sources = std::collections::BTreeSet::new();
        for round in 0..3 {
            for s in submissions(5, round, 38, 0, 1, &cfg) {
                assert!(
                    sources.insert(s.spec.source),
                    "round {round} repeated a spec"
                );
            }
        }
    }

    #[test]
    fn touching_edits_the_entry_and_dead_code_is_uncalled() {
        for p in service_bases() {
            let touched = touch_entry(p.source, 42);
            assert_eq!(touched.matches("int umain(").count(), 1, "{}", p.name);
            assert!(touched.contains("if (n == -42) return 42;"), "{}", p.name);
            assert_eq!(
                touched.len(),
                p.source.len() + "\n    if (n == -42) return 42;".len()
            );
        }
        let dead = dead_function(&mut Rng::stream(3, "t"));
        assert!(dead.contains("int bench_dead_"));
        assert!(!dead.contains("umain"));
        assert_eq!(base_name("wc_words#3.17"), "wc_words");
        assert_eq!(base_name("echo"), "echo");
    }

    #[test]
    fn spec_json_round_trips_through_the_gateway_parser() {
        let spec = &pool_specs(1, &gateway_sym_config())[0];
        let v = overify_gateway::json::Json::parse(&spec_json(spec)).expect("valid JSON");
        assert_eq!(
            v.get("source").and_then(|s| s.as_str()),
            Some(&spec.source[..])
        );
        assert_eq!(v.get("level").and_then(|s| s.as_str()), Some("overify"));
    }
}
