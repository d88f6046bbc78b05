//! Robustness / failure-injection tests: overload, demand square waves, a
//! minimal fleet and demand that dies mid-trace. The system must degrade
//! gracefully — shed load with drops rather than let latency grow
//! unboundedly — and keep exact accounting through every regime.

use diffserve::prelude::*;
use diffserve_simkit::time::SimDuration;
use std::sync::OnceLock;

fn runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            1500,
            777,
            DiscriminatorConfig {
                train_prompts: 500,
                epochs: 10,
                ..Default::default()
            },
        )
    })
}

#[test]
fn overload_sheds_load_instead_of_queueing_forever() {
    // 60 QPS against 8 workers is far beyond even light-only capacity with
    // small batches; DiffServe must drop to protect latency.
    let config = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let trace = Trace::constant(60.0, SimDuration::from_secs(40)).unwrap();
    let report = run_trace(
        runtime(),
        &config,
        &RunSettings::new(Policy::DiffServe, 60.0),
        &trace,
    );
    assert_eq!(report.completed + report.dropped, report.total_queries);
    // Completed queries must still be mostly within the SLO: the whole
    // point of dropping is protecting completion latency.
    assert!(
        report.mean_latency < config.slo.as_secs_f64() * 1.2,
        "mean completion latency exploded: {}",
        report.mean_latency
    );
    assert!(report.dropped > 0, "overload must shed load");
}

#[test]
fn square_wave_demand_is_tracked() {
    // Alternate 4 QPS and 26 QPS every 30 s: the controller must ride the
    // steps without blowing the SLO on the rising edges.
    let mut bins = Vec::new();
    for cycle in 0..3 {
        let rate = if cycle % 2 == 0 { 4.0 } else { 26.0 };
        bins.extend(std::iter::repeat_n(rate, 30));
    }
    let trace = Trace::from_qps(bins, SimDuration::from_secs(1)).unwrap();
    let config = SystemConfig::default();
    let report = run_trace(
        runtime(),
        &config,
        &RunSettings::new(Policy::DiffServe, 26.0),
        &trace,
    );
    assert!(
        report.violation_ratio < 0.15,
        "square wave broke the SLO: {}",
        report.violation_ratio
    );
    assert_eq!(report.completed + report.dropped, report.total_queries);
}

/// Workers always shed the queries predicted to miss their deadline
/// (§4.1). A single-stage policy's batch runs exactly as long as the rule
/// predicts, so under overload nothing it serves is late: each query
/// completes within its SLO or is dropped.
#[test]
fn single_stage_overload_drops_instead_of_serving_late() {
    let config = SystemConfig {
        num_workers: 4,
        ..Default::default()
    };
    for (policy, qps) in [(Policy::ClipperLight, 120.0), (Policy::ClipperHeavy, 20.0)] {
        let trace = Trace::constant(qps, SimDuration::from_secs(40)).unwrap();
        let report = run_trace(runtime(), &config, &RunSettings::new(policy, qps), &trace);
        assert_eq!(report.completed + report.dropped, report.total_queries);
        assert!(
            report.completed > 0 && report.dropped > 0,
            "{}: completed {}, dropped {}",
            policy.name(),
            report.completed,
            report.dropped
        );
        assert_eq!(report.late, 0, "{}", policy.name());
    }
}

#[test]
fn tiny_cluster_still_serves_with_degraded_quality() {
    // 2 workers is the minimum (one per tier): the system must still run.
    let config = SystemConfig {
        num_workers: 2,
        ..Default::default()
    };
    let trace = Trace::constant(3.0, SimDuration::from_secs(40)).unwrap();
    let report = run_trace(
        runtime(),
        &config,
        &RunSettings::new(Policy::DiffServe, 3.0),
        &trace,
    );
    assert_eq!(report.completed + report.dropped, report.total_queries);
    assert!(
        report.completed > 0,
        "a 2-worker cluster must still complete queries"
    );
}

#[test]
fn zero_demand_tail_is_harmless() {
    // Demand that dies mid-trace: the controller must not wedge on a zero
    // demand estimate.
    let mut bins = vec![8.0; 30];
    bins.extend(vec![0.0; 30]);
    bins.extend(vec![8.0; 30]);
    let trace = Trace::from_qps(bins, SimDuration::from_secs(1)).unwrap();
    let report = run_trace(
        runtime(),
        &SystemConfig::default(),
        &RunSettings::new(Policy::DiffServe, 8.0),
        &trace,
    );
    assert_eq!(report.completed + report.dropped, report.total_queries);
    assert!(
        report.violation_ratio < 0.1,
        "viol {}",
        report.violation_ratio
    );
}
