//! Cross-crate integration: every optimization level preserves behaviour on
//! the Coreutils suite while monotonically improving verification metrics.

use overify::{BuildOptions, ExecConfig, OptLevel};
use overify_coreutils::{compile_utility, suite};

/// Compiles a utility at `level` with the level's default libc.
fn build(u: &overify_coreutils::Utility, level: OptLevel) -> overify::Module {
    build_source(u.source, level)
}

fn build_source(source: &str, level: OptLevel) -> overify::Module {
    let opts = BuildOptions::level(level);
    let mut m = overify_libc::compile_and_link(source, opts.resolved_libc()).expect("compiles");
    overify::build::compile_module(&mut m, &opts);
    overify_ir::verify_module(&m).expect("well-formed after optimization");
    m
}

#[test]
fn every_utility_behaves_identically_across_levels() {
    let cfg = ExecConfig::default();
    let inputs: [&[u8]; 5] = [
        b"hello world\n\0",
        b"a:b,c\td\0",
        b"  -42  \0",
        b"\0",
        b"/usr/bin/env\0",
    ];
    for u in suite() {
        let reference = build(u, OptLevel::O0);
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::Overify] {
            let m = build(u, level);
            for input in inputs {
                let n = (input.len() - 1) as u64;
                let r0 = overify::run_with_buffer(&reference, "umain", input, &[n], &cfg);
                let r1 = overify::run_with_buffer(&m, "umain", input, &[n], &cfg);
                assert_eq!(
                    r0.outcome, r1.outcome,
                    "{} at {level}: outcome diverged on {:?}",
                    u.name, input
                );
                assert_eq!(
                    r0.ret, r1.ret,
                    "{} at {level}: return diverged on {:?}",
                    u.name, input
                );
                assert_eq!(
                    r0.output, r1.output,
                    "{} at {level}: output diverged on {:?}",
                    u.name, input
                );
            }
        }
    }
}

/// `source` with its entry renamed `umain_inner` and re-exposed through a
/// one-line forwarding `umain` — the edit `store_sweep --touch` makes to
/// move exactly one entry slice.
fn wrapped(source: &str) -> String {
    format!(
        "{}\nint umain(unsigned char *in, int n) {{ return umain_inner(in, n); }}\n",
        source.replace("int umain(", "int umain_inner(")
    )
}

#[test]
fn wrapped_entries_build_at_every_level_and_behave_identically() {
    // A forwarding wrapper is a valid program: every level must build it
    // (the inliner once crashed on it at -O3/-OVERIFY) and run it exactly
    // like the unwrapped utility.
    let cfg = ExecConfig::default();
    let inputs: [&[u8]; 3] = [b"hello world\n\0", b"  -42,x\t\0", b"\0"];
    for u in suite() {
        let reference = build(u, OptLevel::O0);
        let source = wrapped(u.source);
        for level in [
            OptLevel::O0,
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::Overify,
        ] {
            let m = build_source(&source, level);
            for input in inputs {
                let n = (input.len() - 1) as u64;
                let r0 = overify::run_with_buffer(&reference, "umain", input, &[n], &cfg);
                let r1 = overify::run_with_buffer(&m, "umain", input, &[n], &cfg);
                assert_eq!(
                    (r0.outcome, r0.ret, r0.output),
                    (r1.outcome, r1.ret, r1.output),
                    "{} wrapped at {level}: diverged on {input:?}",
                    u.name
                );
            }
        }
    }
}

#[test]
fn optimization_reduces_static_size_overall() {
    // -O2 must shrink the suite's total instruction count vs -O0 (Table 1's
    // "# instructions" direction).
    let mut total0 = 0usize;
    let mut total2 = 0usize;
    for u in suite() {
        total0 += build(u, OptLevel::O0).live_inst_count();
        total2 += build(u, OptLevel::O2).live_inst_count();
    }
    assert!(
        total2 < total0,
        "O2 total {total2} should be below O0 total {total0}"
    );
}

#[test]
fn table3_shape_on_the_suite() {
    // Compiling the whole suite (libc held fixed so counters compare pass
    // behaviour): the -OSYMBEX column of Table 3 dominates the -O3 column,
    // and -O0 is all zeroes.
    let mut o3 = overify::OptStats::default();
    let mut ov = overify::OptStats::default();
    for u in suite() {
        let mut opts3 = BuildOptions::level(OptLevel::O3);
        opts3.libc = Some(overify::LibcVariant::Native);
        let mut m3 = compile_utility(u, overify::LibcVariant::Native).unwrap();
        o3 += overify::build::compile_module(&mut m3, &opts3);

        let mut optsv = BuildOptions::level(OptLevel::Overify);
        optsv.libc = Some(overify::LibcVariant::Native);
        let mut mv = compile_utility(u, overify::LibcVariant::Native).unwrap();
        ov += overify::build::compile_module(&mut mv, &optsv);
    }
    assert!(ov.functions_inlined >= o3.functions_inlined);
    assert!(ov.branches_converted > o3.branches_converted);
    assert!(ov.loops_unrolled >= o3.loops_unrolled);
    assert!(ov.loops_unswitched > o3.loops_unswitched);
    // -O0 performs no transformations at all.
    let opts0 = BuildOptions::level(OptLevel::O0);
    let mut m0 = compile_utility(&suite()[0], opts0.resolved_libc()).unwrap();
    let s0 = overify::build::compile_module(&mut m0, &opts0);
    assert_eq!(s0, overify::OptStats::default());
}

#[test]
fn build_chain_produces_three_distinct_configurations() {
    let chain = overify::BuildChain::new(suite()[0].source);
    let d = chain.debug().unwrap();
    let r = chain.release().unwrap();
    let v = chain.verification().unwrap();
    // Distinct levels, and the verification build links the verify libc.
    assert_eq!(d.level, OptLevel::O0);
    assert_eq!(r.level, OptLevel::O3);
    assert_eq!(v.level, OptLevel::Overify);
    assert!(d.module.global("__ctype_tab").is_some());
    assert!(v.module.global("__ctype_tab").is_none());
}
