//! The paper's §4.3 validation: the discrete-event simulator and the
//! (thread-based) testbed must agree on system-level metrics for the same
//! workload. The paper reports 0.56% FID and 1.1-point SLO-violation gaps;
//! this wall-clock miniature allows looser tolerances but the same check.
//!
//! Both engines decide through `core::kernel`, so what is left between them
//! is thread scheduling. The timing-dependent tolerances below are the
//! worst gap seen over ~60 local runs (debug and release, tests in parallel
//! on two cores) with 2x headroom, rounded up: FID 0.10 (worst 0.047),
//! threshold tracking 0.10 (worst 0.050), GPU time 0.18 (worst 0.088).
//! The violation-ratio gap has a long tail — a host hiccup of a few hundred
//! wall-clock milliseconds is seconds of simulated time — with 0.12 and
//! worse observed, so it keeps its 0.30; so does the add-on hit-rate gap
//! (worst 0.104 against 0.20).

use diffserve::prelude::*;
use diffserve_simkit::time::SimDuration;
use std::sync::OnceLock;

/// Wall-clock seconds per simulated second on the testbed. Debug builds
/// run the discriminator ~50x slower, so their clock runs slower too.
const TIME_SCALE: f64 = if cfg!(debug_assertions) { 0.05 } else { 0.01 };

fn runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            1500,
            2024,
            DiscriminatorConfig {
                train_prompts: 500,
                epochs: 10,
                ..Default::default()
            },
        )
    })
}

#[test]
fn simulator_and_cluster_agree_for_diffserve() {
    let system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let trace = Trace::constant(5.0, SimDuration::from_secs(50)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 5.0);

    let sim = run_trace(runtime(), &system, &settings, &trace);
    let testbed = run_cluster(runtime(), &system, &settings, &trace, TIME_SCALE);

    assert!(sim.total_queries > 100);
    assert!(
        testbed.total_queries == sim.total_queries,
        "same arrival stream"
    );
    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(
        fid_gap < 0.10,
        "FID gap {fid_gap:.3}: sim {:.2} vs testbed {:.2}",
        sim.fid,
        testbed.fid
    );
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.30, "violation gap {viol_gap:.3}");

    // The cluster controller records its threshold decisions: the report's
    // threshold series must be populated (it used to ship empty, silently
    // blanking every threshold-over-time analysis on cluster runs) and must
    // track the simulator's within tolerance — same workload, same shared
    // control plane.
    assert!(
        !sim.threshold_series.is_empty(),
        "sim threshold series empty"
    );
    assert!(
        !testbed.threshold_series.is_empty(),
        "cluster threshold series empty"
    );
    let mean_t = |r: &RunReport| {
        r.threshold_series.iter().map(|&(_, t)| t).sum::<f64>() / r.threshold_series.len() as f64
    };
    let t_gap = (mean_t(&testbed) - mean_t(&sim)).abs();
    assert!(
        t_gap < 0.10,
        "cluster threshold must track the sim's: gap {t_gap:.3} (sim {:.3}, cluster {:.3})",
        mean_t(&sim),
        mean_t(&testbed)
    );
}

#[test]
fn simulator_and_cluster_agree_with_online_estimator() {
    // Both engines drive the same `core::control::ControlLoop`, so turning
    // on the online deferral estimator must keep them in agreement — and
    // both must record the deferral-estimation-error telemetry.
    let system = SystemConfig {
        num_workers: 8,
        online_profile_refresh: true,
        online_profile_window: 128,
        online_profile_min_samples: 32,
        ..Default::default()
    };
    let trace = Trace::constant(5.0, SimDuration::from_secs(50)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 5.0);

    let sim = run_trace(runtime(), &system, &settings, &trace);
    let testbed = run_cluster(runtime(), &system, &settings, &trace, TIME_SCALE);

    assert_eq!(
        sim.total_queries, testbed.total_queries,
        "same arrival stream"
    );
    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(
        fid_gap < 0.10,
        "FID gap {fid_gap:.3}: sim {:.2} vs testbed {:.2}",
        sim.fid,
        testbed.fid
    );
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.30, "violation gap {viol_gap:.3}");
    assert!(
        !sim.deferral_error_series.is_empty(),
        "simulator must record estimation error"
    );
    assert!(
        !testbed.deferral_error_series.is_empty(),
        "testbed must record estimation error"
    );
    for r in [&sim, &testbed] {
        for &(_, e) in &r.deferral_error_series {
            assert!((0.0..=1.0).contains(&e), "error out of range: {e}");
        }
    }
}

#[test]
fn simulator_and_cluster_agree_with_resume_from_latents() {
    // Stage-level serving: with resume enabled, both engines must resume
    // every cascade escalation from the light tier's latents and agree on
    // the resulting system-level metrics — same shared control plane, same
    // residual-step arithmetic.
    let system = SystemConfig {
        num_workers: 8,
        resume_from_latents: true,
        ..Default::default()
    };
    let trace = Trace::constant(5.0, SimDuration::from_secs(50)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 5.0);

    let sim = run_trace(runtime(), &system, &settings, &trace);
    let testbed = run_cluster(runtime(), &system, &settings, &trace, TIME_SCALE);

    assert_eq!(
        sim.total_queries, testbed.total_queries,
        "same arrival stream"
    );
    assert!(sim.resumed_queries > 0, "sim must resume escalations");
    assert!(
        testbed.resumed_queries > 0,
        "cluster must resume escalations"
    );

    // Every escalated query resumes from the same full light-tier state, so
    // the per-query reused-step count is one constant — both engines must
    // report exactly it, not merely something close.
    let heavy = &runtime().spec.heavy;
    let expected_reuse = reused_steps(
        heavy.steps(),
        StageState::completed(runtime().spec.light.steps()),
        system.resume_step_credit,
    ) as f64;
    assert!(
        (sim.mean_reused_steps - expected_reuse).abs() < 1e-9,
        "sim mean reused steps {} vs {expected_reuse}",
        sim.mean_reused_steps
    );
    assert!(
        (testbed.mean_reused_steps - expected_reuse).abs() < 1e-9,
        "cluster mean reused steps {} vs {expected_reuse}",
        testbed.mean_reused_steps
    );

    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(
        fid_gap < 0.10,
        "FID gap {fid_gap:.3}: sim {:.2} vs testbed {:.2}",
        sim.fid,
        testbed.fid
    );
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.30, "violation gap {viol_gap:.3}");
    // GPU time is accounted analytically per query in both engines, so the
    // gap reflects only routing-mix differences, not wall-clock noise.
    let gpu_gap = (testbed.gpu_time_per_query - sim.gpu_time_per_query).abs()
        / sim.gpu_time_per_query.max(1e-9);
    assert!(
        gpu_gap < 0.18,
        "GPU-time gap {gpu_gap:.3}: sim {:.3} vs testbed {:.3}",
        sim.gpu_time_per_query,
        testbed.gpu_time_per_query
    );
}

#[test]
fn simulator_and_cluster_agree_on_addon_aggregates() {
    // Add-on serving: both engines draw each query's add-on requirement
    // from the same stateless per-query stream and charge module swaps
    // through the same LRU semantics, so the hit-rate and swap-time
    // aggregates must agree. Exact per-lookup equality is not expected —
    // thread scheduling changes batch composition — but the aggregates are
    // workload properties and must track.
    let system = SystemConfig {
        num_workers: 8,
        addons: Some(AddonsConfig::demo(2024)),
        ..Default::default()
    };
    let trace = Trace::constant(5.0, SimDuration::from_secs(50)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 5.0);

    let sim = run_trace(runtime(), &system, &settings, &trace);
    let testbed = run_cluster(runtime(), &system, &settings, &trace, TIME_SCALE);

    assert_eq!(
        sim.total_queries, testbed.total_queries,
        "same arrival stream"
    );
    assert!(
        sim.addon_stats.total_lookups() > 50,
        "sim must exercise the module caches: {} lookups",
        sim.addon_stats.total_lookups()
    );
    assert!(
        testbed.addon_stats.total_lookups() > 50,
        "cluster must exercise the module caches: {} lookups",
        testbed.addon_stats.total_lookups()
    );
    let hit_gap = (testbed.addon_stats.total_hit_rate() - sim.addon_stats.total_hit_rate()).abs();
    assert!(
        hit_gap < 0.20,
        "hit-rate gap {hit_gap:.3}: sim {:.3} vs testbed {:.3}",
        sim.addon_stats.total_hit_rate(),
        testbed.addon_stats.total_hit_rate()
    );
    let swap_gap =
        (testbed.addon_stats.total_mean_swap_secs() - sim.addon_stats.total_mean_swap_secs()).abs();
    assert!(
        swap_gap < 0.10,
        "mean-swap gap {swap_gap:.3}s: sim {:.3} vs testbed {:.3}",
        sim.addon_stats.total_mean_swap_secs(),
        testbed.addon_stats.total_mean_swap_secs()
    );
    // Under this add-on mix the simulator sheds ~40 % of the stream and the
    // testbed's wall-clock batching sheds less: a gap of 0.11-0.22 that
    // predates the shared kernel.
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.30, "violation gap {viol_gap:.3}");
}

#[test]
fn simulator_and_cluster_agree_for_clipper_light() {
    let system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let trace = Trace::constant(6.0, SimDuration::from_secs(40)).unwrap();
    let settings = RunSettings::new(Policy::ClipperLight, 6.0);
    let sim = run_trace(runtime(), &system, &settings, &trace);
    let testbed = run_cluster(runtime(), &system, &settings, &trace, TIME_SCALE);
    // Light-only serving is overload-free: both should report ~0 violations
    // and identical quality (same images, same prompts).
    assert!(sim.violation_ratio < 0.02);
    assert!(testbed.violation_ratio < 0.05);
    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(fid_gap < 0.10, "fid gap {fid_gap}");
}

#[test]
fn static_provisioning_bootstraps_the_same_plan_on_both_engines() {
    // DiffServe-Static is provisioned once, for the session's peak-demand
    // hint, and never re-solved. Both engines bootstrap from the raw hint;
    // at this one the 5 % over-provisioning headroom would buy a different
    // split and threshold, so an engine that applied it fails here.
    let system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let hint = 16.5;
    let builder = || {
        ServingSession::builder()
            .runtime(runtime())
            .config(system.clone())
            .policy(Policy::DiffServeStatic)
            .peak_demand(hint)
    };
    let spec = builder().validate().expect("valid session");
    assert_ne!(
        spec.control_loop().bootstrap(hint),
        spec.control_loop().bootstrap(hint * system.over_provision),
        "the headroom must change the plan at this hint"
    );

    let sim = builder().build().expect("valid session").snapshot();
    let testbed = builder()
        .build_cluster(TIME_SCALE)
        .expect("valid session")
        .snapshot();
    assert_eq!(sim.tier_workers, testbed.tier_workers);
    assert_eq!(sim.thresholds, testbed.thresholds);
}
