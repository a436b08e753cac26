//! The benchmark's fixed vocabulary: workload names, metric names, units
//! and bounds. `BENCHMARK.json` is rendered from these tables, so the file
//! and the harness cannot disagree.

/// How long one run measures, in seconds (`run_seconds` in
/// `BENCHMARK.json`, the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sweep-cold",
        why: "Paper Figure 4 route: 35 coreutils x O0/O3/OVERIFY x bytes 2-4 into an empty store; \
              symex (solver) does nearly all the work, front end and store almost none.",
    },
    Workload {
        name: "sweep-warm",
        why: "Every-build CI route: the same jobs against a populated store, every job a \
              module-grain hit; front end, opt, fingerprint and store reads do all the work, symex none.",
    },
    Workload {
        name: "sweep-touch",
        why: "Incremental re-verification: each round edits every module and three entry slices, so \
              slice-grain store reads interleave with re-executions and their write-back.",
    },
    Workload {
        name: "daemon-submit",
        why: "One Submit through the resident daemon, closed loop on one connection, novel specs \
              mixed with resubmits; loads the serve protocol, scheduler and executor hand-off.",
    },
    Workload {
        name: "gateway-poll",
        why: "POST /v1/verify then poll to done through gateway and daemon, open loop at a fixed \
              rate, then a flood past quota and queue bounds; loads HTTP, JSON, admission, dispatch.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these; all are lower-is-better.
///
/// A bound is shared by all five workloads, so it is set by the noisiest:
/// between seeds `wall_s` spreads under 2 % everywhere, while latencies
/// through the gateway on a mostly idle two-core machine, and the peak
/// memory of its thread-per-connection tiers, spread 4-12 %. A metric's
/// spread has to stay under a third of its bound, and 25 % is the most a
/// bound may be.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.10,
    },
    EndToEnd {
        name: "miss_ms.p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "miss_ms.p90",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_ms.p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_ms.p90",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// True for counts that must repeat exactly at one thread.
    pub deterministic: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        deterministic: false,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        higher_is_better: false,
        deterministic: true,
    }
}

/// A count that depends on thread interleaving (service workloads).
const fn tally(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        higher_is_better: false,
        deterministic: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        deterministic: false,
    }
}

/// The traced run's metrics; layer = crate name. Times are totals over the
/// traced unit unless the name carries a percentile.
pub const PER_LAYER: &[PerLayer] = &[
    // The paper's own column (t_compile + t_verify per level). Only
    // `sweep-cold` runs all three levels, and every workload must report
    // every end-to-end metric, so these live here.
    time("verify_s.o0", "s"),
    time("verify_s.o3", "s"),
    time("verify_s.overify", "s"),
    time("lang.compile_ns", "ns"),
    count("lang.source_bytes"),
    rate("lang.bytes_per_s", "B/s"),
    time("libc.compile_ns", "ns"),
    time("ir.link_ns", "ns"),
    time("ir.verify_module_ns", "ns"),
    time("ir.module_fingerprint_ns", "ns"),
    time("ir.slice_fingerprint_ns", "ns"),
    time("opt.optimize_ns", "ns"),
    time("opt.optimize_ns.o0", "ns"),
    time("opt.optimize_ns.o3", "ns"),
    time("opt.optimize_ns.overify", "ns"),
    count("opt.ir_insts_in"),
    count("opt.ir_insts_out"),
    count("opt.functions_inlined"),
    count("opt.loops_unswitched"),
    count("opt.loops_unrolled"),
    count("opt.branches_converted"),
    count("opt.jumps_threaded"),
    count("opt.allocas_promoted"),
    count("opt.allocas_split"),
    count("opt.insts_simplified"),
    count("opt.insts_hoisted"),
    count("opt.checks_inserted"),
    count("opt.checks_elided"),
    count("opt.annotations_added"),
    time("symex.verify_ns", "ns"),
    time("symex.solver_ns", "ns"),
    time("symex.executor_ns", "ns"),
    count("symex.queries"),
    count("symex.solved.const"),
    count("symex.solved.interval"),
    count("symex.solved.cex"),
    count("symex.solved.qcache"),
    count("symex.solved.annotation"),
    count("symex.solved.enum"),
    count("symex.solved.shared"),
    count("symex.solved.sat"),
    count("symex.sat_decisions"),
    count("symex.sat_conflicts"),
    count("symex.slice_dropped"),
    count("symex.paths"),
    count("symex.forks"),
    count("symex.instructions"),
    PerLayer {
        name: "symex.cache_useful_share",
        unit: "share",
        higher_is_better: true,
        deterministic: true,
    },
    time("symex.verify_ns.o0", "ns"),
    time("symex.verify_ns.o3", "ns"),
    time("symex.verify_ns.overify", "ns"),
    time("symex.solver_ns.o0", "ns"),
    time("symex.solver_ns.o3", "ns"),
    time("symex.solver_ns.overify", "ns"),
    count("symex.queries.o0"),
    count("symex.queries.o3"),
    count("symex.queries.overify"),
    count("symex.solved.sat.o0"),
    count("symex.solved.sat.o3"),
    count("symex.solved.sat.overify"),
    count("symex.paths.o0"),
    count("symex.paths.o3"),
    count("symex.paths.overify"),
    time("store.open_ns", "ns"),
    time("store.warm_solver_cache_ns", "ns"),
    time("store.load_report_ns", "ns"),
    time("store.load_slice_ns", "ns"),
    time("store.save_report_ns", "ns"),
    time("store.save_slice_ns", "ns"),
    time("store.save_solver_cache_ns", "ns"),
    time("store.record_cost_ns", "ns"),
    count("store.report_hits"),
    count("store.report_misses"),
    count("store.slice_hits"),
    count("store.slice_misses"),
    count("store.verdicts_loaded"),
    count("store.verdicts_saved"),
    count("store.bytes_on_disk"),
    time("core.prepare_job_ns", "ns"),
    time("core.load_stored_ns", "ns"),
    time("core.execute_ns", "ns"),
    time("core.reexec_ms.p50", "ms"),
    time("core.driver_self_s", "s"),
    time("serve.wire_encode_ns", "ns"),
    time("serve.wire_decode_ns", "ns"),
    time("serve.queued_ms", "ms"),
    time("serve.scheduled_ms", "ms"),
    time("serve.report_ms", "ms"),
    time("serve.miss_overhead_ms", "ms"),
    time("serve.hit_overhead_ms", "ms"),
    tally("serve.executed"),
    tally("serve.answered_from_store"),
    tally("serve.coalesced"),
    time("gateway.http_parse_ns", "ns"),
    time("gateway.json_parse_ns", "ns"),
    time("gateway.post_ms.p50", "ms"),
    time("gateway.post_ms.p90", "ms"),
    time("gateway.poll_ms.p50", "ms"),
    time("gateway.overhead_ms", "ms"),
    rate("gateway.flood_req_per_s", "1/s"),
    tally("gateway.accepted"),
    tally("gateway.shed"),
    tally("gateway.quota_denied"),
    tally("gateway.lost"),
    time("gateway.generator_late_ms.p90", "ms"),
    // Cross-check only: the registry's own deltas over the traced unit,
    // which must equal the harness's counts.
    tally("obs.solver_queries"),
    tally("obs.solver_sat_solves"),
    tally("obs.store_report_hits"),
    tally("obs.store_report_misses"),
    tally("obs.sched_scheduled"),
    time("obs.sched_wait_ms", "ms"),
    tally("obs.gateway_accepted"),
    tally("obs.gateway_shed"),
    time("trace.overhead_share", "share"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            quote(w.name),
            quote(&why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            quote(m.name),
            quote(m.unit),
            quote(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why is {} chars", w.name, why.len());
            assert!(names.insert(w.name));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "re-run with --emit-benchmark-json"
        );
        let v = overify_gateway::json::Json::parse(&committed).expect("valid JSON");
        assert_eq!(
            v.get("run_seconds").and_then(|n| n.as_u64()),
            Some(RUN_SECONDS)
        );
    }
}
