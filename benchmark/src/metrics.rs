//! The metric tables: every name the benchmark reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` at the
//! repo root lists exactly these; a unit test keeps the two in step.

use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Its name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End to end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload's untraced run.
/// `README.md` defines each and says how its bound was set.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_queries_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("slo_attainment", "ratio", Higher, 0.05),
    e2e("fid", "fid", Lower, 0.03),
    e2e("gpu_s_per_query", "s", Lower, 0.10),
    e2e("latency_mean_s", "s", Lower, 0.15),
    e2e("latency_p99_s", "s", Lower, 0.15),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The per-layer metrics, reported by every workload's traced run. They
/// have no bound. A metric whose probe does not run on a workload reads 0
/// there; `README.md` says which probe runs where and which end-to-end
/// metric each should move.
pub const PER_LAYER: &[MetricDef] = &[
    // Session spans of the traced repetition.
    layer("core.serve.build_ms", "ms", Lower),
    layer("core.serve.replay_trace_s", "s", Lower),
    layer("core.sim.between_ticks_s", "s", Lower),
    layer("core.sim.ticks_s", "s", Lower),
    layer("core.sim.tick_us_p50", "us", Lower),
    layer("core.sim.tick_us_p95", "us", Lower),
    layer("core.sim.tick_ms_max", "ms", Lower),
    layer("core.serve.poll_s", "s", Lower),
    layer("core.report.finish_s", "s", Lower),
    layer("core.report.finish_ns_per_query", "ns", Lower),
    layer("core.sim.ns_per_query", "ns", Lower),
    // trace
    layer("trace.synthesize_ms", "ms", Lower),
    layer("trace.arrivals_ns_per_query", "ns", Lower),
    layer("trace.addon_mix_ns_per_draw", "ns", Lower),
    // simkit
    layer("simkit.event_queue_ns_per_event", "ns", Lower),
    layer("simkit.events_est", "count", Lower),
    // imagegen
    layer("imagegen.prepare_ms", "ms", Lower),
    layer("imagegen.generate_ns_per_call", "ns", Lower),
    layer("imagegen.generate_calls", "count", Lower),
    layer("imagegen.discriminator_ns_per_call", "ns", Lower),
    layer("imagegen.discriminator_calls", "count", Lower),
    layer("imagegen.router_entry_tier_ns", "ns", Lower),
    layer("imagegen.router_observe_ns", "ns", Lower),
    layer("imagegen.deferral_refresh_us", "us", Lower),
    // nn
    layer("nn.mlp_forward_ns", "ns", Lower),
    layer("nn.train_ms", "ms", Lower),
    // metrics, linalg
    layer("metrics.gaussian_fit_ns_per_row", "ns", Lower),
    layer("metrics.frechet_us", "us", Lower),
    layer("metrics.slo_ns_per_record", "ns", Lower),
    layer("metrics.rolling_fid_ns_per_push", "ns", Lower),
    layer("linalg.sqrtm_psd_us", "us", Lower),
    layer("linalg.sym_eigen_us", "us", Lower),
    // milp
    layer("milp.solve_cold_us", "us", Lower),
    layer("milp.solve_warm_us", "us", Lower),
    layer("milp.nodes_per_solve", "count", Lower),
    // core.allocator
    layer("core.allocator.ladder_cold_us_p50", "us", Lower),
    layer("core.allocator.ladder_cold_us_p95", "us", Lower),
    layer("core.allocator.ladder_warm_us_p50", "us", Lower),
    layer("core.allocator.ladder_warm_us_p95", "us", Lower),
    layer("core.allocator.milp_cold_us_p50", "us", Lower),
    layer("core.allocator.milp_warm_us_p50", "us", Lower),
    layer("core.allocator.exhaustive_us_p50", "us", Lower),
    layer("core.allocator.proteus_us_p50", "us", Lower),
    layer("core.allocator.fallback_us", "us", Lower),
    layer("core.allocator.infeasible_ratio", "ratio", Lower),
    // core.control
    layer("core.control.step_us_p50", "us", Lower),
    layer("core.control.step_us_p95", "us", Lower),
    layer("core.control.ticks", "count", Higher),
    // core.addons
    layer("core.addons.admit_ns", "ns", Lower),
    layer("core.addons.hit_rate", "ratio", Higher),
    layer("core.addons.swap_s_mean", "s", Lower),
    // cluster
    layer("cluster.launch_ms", "ms", Lower),
    layer("cluster.finish_ms", "ms", Lower),
    layer("cluster.submit_late_us_p50", "us", Lower),
    layer("cluster.submit_late_us_p99", "us", Lower),
    layer("cluster.plan_retarget_us", "us", Lower),
    layer("cluster.overhead_ms", "ms", Lower),
    layer("cluster.slo_violation_ratio", "ratio", Lower),
    layer("cluster.parity_gap_latency", "ratio", Lower),
    layer("cluster.parity_gap_fid", "ratio", Lower),
    // Report counts of the scored jobs (exact on the simulator), and the
    // two report metrics that cannot be end to end (see `README.md`).
    layer("queries", "count", Higher),
    layer("completed", "count", Higher),
    layer("late", "count", Lower),
    layer("dropped", "count", Lower),
    layer("escalations", "count", Lower),
    layer("resumed_queries", "count", Higher),
    layer("incidents", "count", Lower),
    layer("tier0.completions", "count", Higher),
    layer("tier1.completions", "count", Higher),
    layer("tier2.completions", "count", Higher),
    layer("slo_violation_ratio", "ratio", Lower),
    layer("latency_p50_s", "s", Lower),
    // The benchmark's own arithmetic over the above.
    layer("share.trace", "ratio", Lower),
    layer("share.simkit", "ratio", Lower),
    layer("share.imagegen", "ratio", Lower),
    layer("share.nn", "ratio", Lower),
    layer("share.metrics", "ratio", Lower),
    layer("share.linalg", "ratio", Lower),
    layer("share.core.control", "ratio", Lower),
    layer("core.sim.self_share", "ratio", Lower),
    layer("sweep.parallel_speedup", "ratio", Higher),
    layer("trace_overhead_ratio", "ratio", Lower),
    layer("noise.wall_s", "ratio", Lower),
    layer("noise.core.sim.tick_us_p50", "ratio", Lower),
    layer("noise.core.sim.tick_us_p95", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{is_metric_name, is_unit};
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_at_the_repo_root_lists_exactly_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        let mut entries = Vec::new();
        for w in Workload::ALL {
            entries.push(format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            ));
        }
        for m in END_TO_END {
            let better = m.better.word();
            entries.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            ));
        }
        for m in PER_LAYER {
            let better = m.better.word();
            entries.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            ));
        }
        for entry in &entries {
            assert!(committed.contains(entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            committed.matches("\"name\":").count(),
            entries.len(),
            "BENCHMARK.json lists a name the tables do not have"
        );
        assert!(committed.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_metric_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{} of {}", m.unit, m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"', '\\']));
        }
    }
}
