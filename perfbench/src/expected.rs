//! The hand-written expected verdicts (`expected/verdicts.tsv`) and the
//! checks every route's results go through. The reference is never the
//! verifier under test: bug sets come from the file, and every witness is
//! replayed in the concrete interpreter on the unoptimized build.

use crate::gen::base_name;
use overify::{
    compile, BugKind, BuildOptions, ExecConfig, OptLevel, Outcome, SuiteJobResult,
    VerificationReport,
};
use std::collections::{BTreeMap, BTreeSet};

const VERDICTS: &str = include_str!("../expected/verdicts.tsv");

/// A bug's level-independent identity: its kind and canonical witness.
pub type BugId = (BugKind, Vec<u8>);

pub struct Expected {
    bugs: BTreeMap<String, BTreeSet<BugId>>,
}

fn parse_kind(s: &str) -> Option<BugKind> {
    Some(match s {
        "out-of-bounds" => BugKind::OutOfBounds,
        "div-by-zero" => BugKind::DivByZero,
        "assert-fail" => BugKind::AssertFail,
        "explicit-abort" => BugKind::ExplicitAbort,
        "unreachable" => BugKind::UnreachableReached,
        _ => return None,
    })
}

fn parse_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut bugs = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("verdicts.tsv line {}: {what}", no + 1);
            let (name, list) = line.split_once('\t').ok_or_else(|| bad("no tab"))?;
            let mut set = BTreeSet::new();
            if list != "-" {
                for item in list.split(',') {
                    let (kind, hex) = item.split_once(':').ok_or_else(|| bad("no witness"))?;
                    let kind = parse_kind(kind).ok_or_else(|| bad("unknown bug kind"))?;
                    let input = parse_hex(hex).ok_or_else(|| bad("witness is not hex"))?;
                    set.insert((kind, input));
                }
            }
            if bugs.insert(name.to_string(), set).is_some() {
                return Err(bad("program listed twice"));
            }
        }
        Ok(Expected { bugs })
    }

    pub fn load() -> Expected {
        Expected::parse(VERDICTS).expect("expected/verdicts.tsv is well-formed")
    }

    /// Checks one job's reports against the program's known bug set,
    /// restricted to the input sizes the job swept. `Err` says what differs.
    pub fn check_runs(
        &self,
        name: &str,
        source: &str,
        runs: &[(usize, VerificationReport)],
    ) -> Result<(), String> {
        let base = base_name(name);
        let known = self
            .bugs
            .get(base)
            .ok_or_else(|| format!("{name}: no expected verdict for '{base}'"))?;
        if runs.is_empty() {
            return Err(format!("{name}: no runs"));
        }
        let sizes: BTreeSet<usize> = runs.iter().map(|(n, _)| *n).collect();
        let want: BTreeSet<BugId> = known
            .iter()
            .filter(|(_, input)| sizes.contains(&input.len()))
            .cloned()
            .collect();
        let mut got = BTreeSet::new();
        for (n, report) in runs {
            if !report.exhausted || report.timed_out {
                return Err(format!("{name}: {n}-byte run was not exhausted"));
            }
            for bug in &report.bugs {
                got.insert((bug.kind, bug.input.clone()));
            }
        }
        if got != want {
            return Err(format!("{name}: bugs {got:?}, expected {want:?}"));
        }
        for (kind, input) in &got {
            replay(source, *kind, input).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// [`Expected::check_runs`] for a finished job from any route.
    pub fn check_job(&self, source: &str, result: &SuiteJobResult) -> Result<(), String> {
        if let Some(e) = &result.error {
            return Err(format!("{}: {e}", result.name));
        }
        self.check_runs(&result.name, source, &result.runs)
    }
}

/// Replays a witness in the concrete interpreter on the `-O0` build: it
/// must abort with the reported kind.
fn replay(source: &str, kind: BugKind, input: &[u8]) -> Result<(), String> {
    let prog = compile(source, &BuildOptions::level(OptLevel::O0))
        .map_err(|e| format!("reference build failed: {e}"))?;
    let mut buffer = input.to_vec();
    buffer.push(0);
    let res = overify::run_with_buffer(
        &prog.module,
        "umain",
        &buffer,
        &[input.len() as u64],
        &ExecConfig::default(),
    );
    match res.outcome {
        Outcome::Abort(k) if BugKind::from_abort(k) == kind => Ok(()),
        other => Err(format!(
            "witness {input:02x?} for {kind} replays to {other:?} in the interpreter"
        )),
    }
}

/// The deterministic projection of a job's reports, for byte-equality
/// checks between routes (cold vs warm vs spliced vs traced).
pub fn canonical(runs: &[(usize, VerificationReport)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (n, r) in runs {
        out.extend_from_slice(&(*n as u32).to_le_bytes());
        out.extend_from_slice(&r.canonical_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use overify::{verify_suite_stored, SuiteJob};

    #[test]
    fn file_covers_every_base_program() {
        let expected = Expected::load();
        for p in gen::service_bases() {
            assert!(expected.bugs.contains_key(p.name), "{} missing", p.name);
        }
        // ... plus the one entry all gateway flood programs share.
        assert!(expected.bugs["flood"].is_empty());
        assert_eq!(expected.bugs.len(), gen::service_bases().len() + 1);
        assert!(expected.bugs["echo"].is_empty());
        assert_eq!(expected.bugs["bug_div"].len(), 2);
    }

    #[test]
    fn malformed_files_are_rejected() {
        for bad in [
            "echo -\n",
            "echo\tpony:00\n",
            "echo\tdiv-by-zero\n",
            "echo\tdiv-by-zero:0g\n",
            "echo\t-\necho\t-\n",
        ] {
            assert!(Expected::parse(bad).is_err(), "{bad:?}");
        }
        assert!(Expected::parse("# c\n\necho\t-\n").is_ok());
    }

    #[test]
    fn seeded_bugs_match_the_file_and_wrong_verdicts_are_caught() {
        let expected = Expected::load();
        let bases = gen::service_bases();
        let p = bases.iter().find(|p| p.name == "bug_div").unwrap();
        let job = SuiteJob {
            name: "bug_div#t".into(),
            source: gen::touch_entry(p.source, 9),
            entry: "umain".into(),
            opts: BuildOptions::level(OptLevel::Overify),
            bytes: vec![2, 3],
            cfg: gen::sym_config(),
            path_workers: 1,
        };
        let report = verify_suite_stored(vec![job.clone()], 1, None);
        let result = &report.jobs[0];
        expected
            .check_job(&job.source, result)
            .expect("matches the file");

        // A dropped bug, a clean program reported buggy, and a truncated
        // run are all mismatches.
        let mut dropped = result.clone();
        dropped.runs[0].1.bugs.clear();
        assert!(expected.check_job(&job.source, &dropped).is_err());
        let mut relabeled = result.clone();
        relabeled.name = "echo".into();
        assert!(expected.check_job(&job.source, &relabeled).is_err());
        let mut truncated = result.clone();
        truncated.runs[1].1.exhausted = false;
        assert!(expected.check_job(&job.source, &truncated).is_err());
        // A witness that does not crash the reference build is caught even
        // when the file agrees with it.
        assert!(replay(&job.source, BugKind::DivByZero, &[b'7', 0]).is_err());
        assert!(replay(&job.source, BugKind::AssertFail, &[0, 0]).is_err());
    }
}
