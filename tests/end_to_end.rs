//! End-to-end integration tests across the whole workspace: preparing a
//! cascade, serving traces under every policy, and checking the paper's
//! qualitative results hold.

use diffserve::prelude::*;
use diffserve_simkit::time::SimDuration;
use std::sync::OnceLock;

fn runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            2000,
            1234,
            DiscriminatorConfig {
                train_prompts: 600,
                epochs: 12,
                ..Default::default()
            },
        )
    })
}

fn config() -> SystemConfig {
    SystemConfig {
        num_workers: 16,
        ..Default::default()
    }
}

#[test]
fn every_policy_serves_the_diurnal_trace() {
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 4.0,
        max_qps: 24.0,
        duration: SimDuration::from_secs(120),
    })
    .unwrap();
    for policy in Policy::all() {
        let report = run_trace(
            runtime(),
            &config(),
            &RunSettings::new(policy, trace.max_qps()),
            &trace,
        );
        assert_eq!(
            report.completed + report.dropped,
            report.total_queries,
            "{} lost queries",
            policy.name()
        );
        assert!(report.fid.is_finite(), "{} produced no FID", policy.name());
        assert!(
            report.total_queries > 500,
            "{} saw too few queries",
            policy.name()
        );
    }
}

#[test]
fn paper_orderings_hold_on_dynamic_trace() {
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 4.0,
        max_qps: 28.0,
        duration: SimDuration::from_secs(200),
    })
    .unwrap();
    let run = |p: Policy| {
        run_trace(
            runtime(),
            &config(),
            &RunSettings::new(p, trace.max_qps()),
            &trace,
        )
    };
    let light = run(Policy::ClipperLight);
    let heavy = run(Policy::ClipperHeavy);
    let proteus = run(Policy::Proteus);
    let ds_static = run(Policy::DiffServeStatic);
    let ds = run(Policy::DiffServe);

    // Fig. 5 orderings.
    assert!(
        light.fid > ds.fid,
        "DiffServe must beat Clipper-Light on FID"
    );
    assert!(proteus.fid > ds.fid, "DiffServe must beat Proteus on FID");
    assert!(
        ds_static.fid >= ds.fid - 0.3,
        "DiffServe ~>= static variant"
    );
    assert!(
        heavy.violation_ratio > 10.0 * ds.violation_ratio.max(0.01),
        "Clipper-Heavy must suffer far more violations ({} vs {})",
        heavy.violation_ratio,
        ds.violation_ratio
    );
    assert!(
        ds.violation_ratio < 0.08,
        "DiffServe violations too high: {}",
        ds.violation_ratio
    );
    // The cascade outperforms even all-heavy serving on FID (paper §4.2:
    // easy queries give the blend a more real-like distribution).
    assert!(
        ds.fid < heavy.fid + 0.5,
        "DiffServe {} should be at least comparable to Clipper-Heavy {}",
        ds.fid,
        heavy.fid
    );
}

#[test]
fn quality_throughput_tradeoff_is_monotone_in_capacity() {
    // More workers -> more heavy capacity -> higher threshold -> better FID.
    let trace = Trace::constant(10.0, SimDuration::from_secs(80)).unwrap();
    let mut last_fid = f64::INFINITY;
    for workers in [6usize, 12, 24] {
        let cfg = SystemConfig {
            num_workers: workers,
            ..Default::default()
        };
        let report = run_trace(
            runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 10.0),
            &trace,
        );
        assert!(
            report.fid <= last_fid + 0.8,
            "FID should not degrade with capacity: {} workers -> {}",
            workers,
            report.fid
        );
        last_fid = report.fid;
    }
}

#[test]
fn slo_accounting_matches_latency_distribution() {
    let trace = Trace::constant(8.0, SimDuration::from_secs(60)).unwrap();
    let report = run_trace(
        runtime(),
        &config(),
        &RunSettings::new(Policy::DiffServe, 8.0),
        &trace,
    );
    // With a 5s SLO and low violations, mean latency must sit well below 5s.
    assert!(report.mean_latency < 5.0);
    assert!(report.violation_ratio < 0.05);
}

#[test]
fn static_trace_diffserve_equals_its_static_variant() {
    // Paper §4.2: "Under static query demand, DiffServe-Static and
    // DiffServe perform identically" (once provisioned for that demand).
    let trace = Trace::constant(12.0, SimDuration::from_secs(100)).unwrap();
    let ds = run_trace(
        runtime(),
        &config(),
        &RunSettings::new(Policy::DiffServe, 12.0),
        &trace,
    );
    let st = run_trace(
        runtime(),
        &config(),
        &RunSettings::new(Policy::DiffServeStatic, 12.0),
        &trace,
    );
    assert!(
        (ds.fid - st.fid).abs() < 1.0,
        "static-demand FIDs should be close: {} vs {}",
        ds.fid,
        st.fid
    );
    assert!((ds.violation_ratio - st.violation_ratio).abs() < 0.05);
}
