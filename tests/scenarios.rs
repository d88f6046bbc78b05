//! Stress-scenario integration suite: one [`Scenario`] value drives both
//! the discrete-event simulator and the thread-based testbed, and DiffServe
//! must degrade gracefully under capacity churn — the regime where
//! query-aware adaptation should beat static provisioning.

use diffserve::prelude::*;
use diffserve_simkit::time::{SimDuration, SimTime};
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

fn system() -> SystemConfig {
    SystemConfig {
        num_workers: 8,
        ..Default::default()
    }
}

/// The named mid-run failure scenario shared by the parity and
/// graceful-degradation tests: two of eight workers fail-stop a third of
/// the way in and rejoin much later.
fn failover_scenario(secs: u64) -> Scenario {
    let base = Trace::constant(6.0, SimDuration::from_secs(secs)).unwrap();
    Scenario::new("worker-failure", base)
        .worker_fail(SimTime::from_secs(secs / 3), 2)
        .worker_recover(SimTime::from_secs(secs * 5 / 6), 2)
}

#[test]
fn diffserve_beats_static_baseline_under_worker_failure() {
    let sys = system();
    let scenario = failover_scenario(150);
    let dynamic = run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, 6.0),
        &scenario,
    );
    let static_ = run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServeStatic, 6.0),
        &scenario,
    );
    // The static baseline is provisioned for peak on the *full* fleet and
    // never re-solves; after a 2x worker failure its fixed threshold keeps
    // deferring more than the surviving heavy pool can serve. DiffServe's
    // controller re-solves against the shrunken pool and sheds deferrals
    // instead of deadlines.
    assert!(
        dynamic.violation_ratio < static_.violation_ratio,
        "DiffServe {} should beat static {} under 2x worker failure",
        dynamic.violation_ratio,
        static_.violation_ratio
    );
    assert!(
        dynamic.violation_ratio < 0.15,
        "DiffServe should degrade gracefully, got {}",
        dynamic.violation_ratio
    );
}

#[test]
fn one_scenario_value_drives_simulator_and_cluster() {
    let sys = system();
    let scenario = failover_scenario(60);
    let settings = RunSettings::new(Policy::DiffServe, 6.0);

    let sim = run_scenario(runtime(), &sys, &settings, &scenario);
    let testbed = run_cluster_scenario(runtime(), &sys, &settings, &scenario, TIME_SCALE);

    // Identical arrival streams (both draw from the scenario's effective
    // trace with the same seed).
    assert_eq!(sim.total_queries, testbed.total_queries);
    assert!(sim.total_queries > 150);
    assert_eq!(testbed.completed + testbed.dropped, testbed.total_queries);

    // Coarse agreement on quality and violations despite churn (the fig6
    // validation tolerance, loosened for the stressed regime).
    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(
        fid_gap < 0.3,
        "FID gap {fid_gap:.3}: sim {:.2} vs testbed {:.2}",
        sim.fid,
        testbed.fid
    );
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.35, "violation gap {viol_gap:.3}");
}

/// PR 4 added `cascading_failure` but only scenario-tested the sim path;
/// one scenario value must drive both engines through the correlated-fault
/// regime with coarse agreement — and both reports must carry a populated
/// threshold series and an incident log with every fired perturbation.
#[test]
fn cascading_failure_parity_between_simulator_and_cluster() {
    let sys = system();
    let base = Trace::constant(6.0, SimDuration::from_secs(60)).unwrap();
    let scenario = Scenario::new("cascading-failure", base)
        .cascading_failure(SimTime::from_secs(18), 1, 2, SimDuration::from_secs(9))
        .worker_recover(SimTime::from_secs(42), 3);
    let settings = RunSettings::new(Policy::DiffServe, 6.0);

    let sim = run_scenario(runtime(), &sys, &settings, &scenario);
    let testbed = run_cluster_scenario(runtime(), &sys, &settings, &scenario, TIME_SCALE);

    assert_eq!(sim.total_queries, testbed.total_queries);
    assert_eq!(testbed.completed + testbed.dropped, testbed.total_queries);
    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(fid_gap < 0.3, "FID gap {fid_gap:.3}");
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.35, "violation gap {viol_gap:.3}");
    // Both engines log the full scheduled timeline (3 fails + 1 recover).
    assert_eq!(sim.incident_log.len(), 4, "{:?}", sim.incident_log);
    assert_eq!(testbed.incident_log.len(), 4, "{:?}", testbed.incident_log);
    assert!(!sim.threshold_series.is_empty());
    assert!(!testbed.threshold_series.is_empty());
}

/// Brownout parity: a partial degradation (not a fail-stop) must slow both
/// engines comparably — degraded workers sleep-scale on the testbed and
/// stretch service times in the simulator — while every query is conserved.
#[test]
fn brownout_parity_between_simulator_and_cluster() {
    let sys = system();
    let base = Trace::constant(6.0, SimDuration::from_secs(60)).unwrap();
    let scenario = Scenario::new("brownout", base)
        .worker_degrade(SimTime::from_secs(18), 4, 2.0)
        .worker_restore(SimTime::from_secs(42), 4);
    let settings = RunSettings::new(Policy::DiffServe, 6.0);

    let sim = run_scenario(runtime(), &sys, &settings, &scenario);
    let testbed = run_cluster_scenario(runtime(), &sys, &settings, &scenario, TIME_SCALE);

    assert_eq!(sim.total_queries, testbed.total_queries);
    assert_eq!(testbed.completed + testbed.dropped, testbed.total_queries);
    let fid_gap = (testbed.fid - sim.fid).abs() / sim.fid;
    assert!(fid_gap < 0.3, "FID gap {fid_gap:.3}");
    let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
    assert!(viol_gap < 0.35, "violation gap {viol_gap:.3}");
    assert_eq!(sim.incident_log.len(), 2);
    assert_eq!(testbed.incident_log.len(), 2);
    assert!(!testbed.threshold_series.is_empty());
}

#[test]
fn standard_library_runs_end_to_end_for_diffserve() {
    let sys = system();
    let base = Trace::constant(5.0, SimDuration::from_secs(60)).unwrap();
    for scenario in standard_scenarios(&base, sys.num_workers) {
        let report = run_scenario(
            runtime(),
            &sys,
            &RunSettings::new(Policy::DiffServe, 14.0),
            &scenario,
        );
        assert_eq!(
            report.completed + report.dropped,
            report.total_queries,
            "{} leaked queries",
            scenario.name()
        );
        assert!(report.fid.is_finite(), "{} lost FID", scenario.name());
    }
}

/// The paper keeps updating `f(t)` online (§4.2): under a difficulty shift
/// the true deferral curve moves, the offline-profiled controller keeps
/// solving against the stale curve and over-commits the heavy tier, while
/// the online estimator tracks the shifted curve. At equal worker budget
/// the online controller must land a strictly lower SLO-violation ratio,
/// and its deferral-estimation-error series must shrink back after the
/// shift while the offline controller's stays elevated.
#[test]
fn online_deferral_estimation_beats_offline_under_difficulty_shift() {
    let offline_cfg = system();
    let online_cfg = SystemConfig {
        online_profile_refresh: true,
        online_profile_window: 128,
        online_profile_min_samples: 48,
        ..offline_cfg.clone()
    };
    let secs = 150u64;
    let shift_at = secs / 4;
    let scenario = Scenario::new(
        "difficulty-shift",
        Trace::constant(8.0, SimDuration::from_secs(secs)).unwrap(),
    )
    .difficulty_shift(SimTime::from_secs(shift_at), 0.45);
    let settings = RunSettings::new(Policy::DiffServe, 8.0);

    let offline = run_scenario(runtime(), &offline_cfg, &settings, &scenario);
    let online = run_scenario(runtime(), &online_cfg, &settings, &scenario);

    // Equal worker budget, strictly fewer violations — with margin, so a
    // controller regression cannot hide inside seed noise.
    assert!(
        online.violation_ratio < offline.violation_ratio * 0.6,
        "online {} must beat offline {} under a difficulty shift",
        online.violation_ratio,
        offline.violation_ratio
    );

    // The estimation-error series tells the mechanism story: both
    // controllers see the error spike when the curve moves, but only the
    // online estimator's error shrinks back as its window absorbs the
    // shifted distribution.
    let mean_err = |r: &RunReport, from: f64, to: f64| {
        let w: Vec<f64> = r
            .deferral_error_series
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, e)| e)
            .collect();
        assert!(!w.is_empty(), "no error points in [{from}, {to})");
        w.iter().sum::<f64>() / w.len() as f64
    };
    let shift = shift_at as f64;
    let end = secs as f64;
    let online_after = mean_err(&online, shift, shift + 20.0);
    let online_tail = mean_err(&online, shift + 40.0, end);
    assert!(
        online_tail < online_after * 0.8,
        "online estimation error must shrink after the shift: \
         tail {online_tail:.3} vs just-after {online_after:.3}"
    );
    let offline_tail = mean_err(&offline, shift + 40.0, end);
    assert!(
        online_tail < offline_tail,
        "the tracking controller must out-estimate the stale profile: \
         online tail {online_tail:.3} vs offline tail {offline_tail:.3}"
    );
}

#[test]
fn recovery_time_is_measurable_after_flash_crowd() {
    let sys = system();
    let base = Trace::constant(4.0, SimDuration::from_secs(120)).unwrap();
    let scenario = Scenario::new("crowd", base).flash_crowd(
        SimTime::from_secs(40),
        SimDuration::from_secs(5),
        SimDuration::from_secs(20),
        4.0,
    );
    let report = run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, 16.0),
        &scenario,
    );
    // The spike ends by t = 70s; violations must return to near-zero within
    // the run, and the recovery metric must see it.
    let onset = scenario.perturbation_onsets()[0];
    let recovery = report.recovery_time_after(onset, 0.1);
    assert!(
        recovery.is_some(),
        "never recovered: {:?}",
        report.violation_series
    );
}
