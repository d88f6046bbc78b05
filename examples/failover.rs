//! Failover walkthrough: one [`Scenario`] with a mid-run worker failure is
//! replayed through **both** implementations — the discrete-event simulator
//! and the thread-based cluster testbed — from the same value, then the
//! adaptive DiffServe policy is compared against the peak-provisioned
//! static baseline under the identical churn. A final section drives the
//! degradation-aware fault engine: a seeded load-correlated hazard fires
//! faults into the run's incident log, and replaying that log reproduces
//! the run bit-exactly.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use diffserve::prelude::*;
use diffserve_simkit::time::{SimDuration, SimTime};

fn main() {
    println!("preparing cascade 1 (SD-Turbo -> SDv1.5)...");
    let runtime = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        1500,
        2024,
        DiscriminatorConfig {
            train_prompts: 500,
            epochs: 10,
            ..Default::default()
        },
    );
    let system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };

    // 6 QPS for 150 s; two of eight workers fail-stop at t=50s and rejoin
    // at t=125s after reloading their model.
    let base = Trace::constant(6.0, SimDuration::from_secs(150)).expect("valid trace");
    let scenario = Scenario::new("worker-failure", base)
        .worker_fail(SimTime::from_secs(50), 2)
        .worker_recover(SimTime::from_secs(125), 2);
    scenario
        .validate(system.num_workers)
        .expect("scenario fits the pool");

    println!(
        "scenario '{}': {} perturbations, ~{:.0} queries offered\n",
        scenario.name(),
        scenario.perturbation_onsets().len(),
        scenario.effective_trace().expected_queries()
    );

    // --- Same scenario, both implementations (DiffServe policy) -----------
    let settings = RunSettings::new(Policy::DiffServe, 6.0);
    let sim = run_scenario(&runtime, &system, &settings, &scenario);
    println!("simulator      : {}", sim.summary());

    let testbed = run_cluster_scenario(&runtime, &system, &settings, &scenario, 0.02);
    println!("cluster testbed: {}", testbed.summary());

    // --- Adaptive vs static under the identical churn ----------------------
    let static_report = run_scenario(
        &runtime,
        &system,
        &RunSettings::new(Policy::DiffServeStatic, 6.0),
        &scenario,
    );
    println!("static baseline: {}", static_report.summary());

    let onset = scenario.perturbation_onsets()[0];
    let fmt_recovery = |r: &RunReport| match r.recovery_time_after(onset, 0.10) {
        Some(s) => format!("{s:.0}s"),
        None => "never".into(),
    };
    println!(
        "\nafter the failure at t={onset:.0}s: DiffServe back under 10% violations in {}, \
         static baseline in {}",
        fmt_recovery(&sim),
        fmt_recovery(&static_report),
    );
    println!(
        "violation ratio: DiffServe {:.3} vs static {:.3} — re-solving against the \
         degraded pool sheds deferrals instead of deadlines",
        sim.violation_ratio, static_report.violation_ratio
    );

    // --- Load-correlated hazards + incident record/replay ------------------
    let hazardous = Scenario::new(
        "hazardous",
        Trace::constant(7.0, SimDuration::from_secs(100)).expect("valid trace"),
    )
    .with_hazard(Hazard {
        seed: 7,
        fail_rate: 0.01,
        degrade_rate: 0.05,
        load_coupling: 6.0,
    });
    let original = run_scenario(&runtime, &system, &settings, &hazardous);
    println!(
        "\nhazard run     : {} ({} incidents drawn from load-correlated hazards)",
        original.summary(),
        original.incident_log.len()
    );
    for incident in &original.incident_log {
        println!(
            "  t={:>6.1}s {:?}",
            incident.at.as_secs_f64(),
            incident.event
        );
    }
    let replay = run_scenario(
        &runtime,
        &system,
        &settings,
        &hazardous.replay(&original.incident_log),
    );
    assert_eq!(
        report_bits(&original),
        report_bits(&replay),
        "incident replay must be bit-exact on the simulator"
    );
    assert_eq!(original.incident_log, replay.incident_log);
    println!(
        "incident replay: {} — bit-identical to the recorded run",
        replay.summary()
    );
}

/// Every count of a report and the bits of every scalar, series points,
/// add-on statistics and per-tier figures included, each under its name:
/// two reports with equal keys are indistinguishable.
fn report_bits(r: &RunReport) -> Vec<(String, u64)> {
    let mut bits: Vec<(String, u64)> = [
        ("total_queries", r.total_queries),
        ("completed", r.completed),
        ("dropped", r.dropped),
        ("late", r.late),
        ("resumed_queries", r.resumed_queries),
        ("violation_ratio", r.violation_ratio.to_bits()),
        ("mean_latency", r.mean_latency.to_bits()),
        ("fid", r.fid.to_bits()),
        ("mean_windowed_fid", r.mean_windowed_fid.to_bits()),
        ("heavy_fraction", r.heavy_fraction.to_bits()),
        ("mean_heavy_latency", r.mean_heavy_latency.to_bits()),
        ("mean_reused_steps", r.mean_reused_steps.to_bits()),
        ("gpu_time_per_query", r.gpu_time_per_query.to_bits()),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    let series = [
        ("fid_series", &r.fid_series),
        ("violation_series", &r.violation_series),
        ("demand_series", &r.demand_series),
        ("threshold_series", &r.threshold_series),
        ("deferral_error_series", &r.deferral_error_series),
    ];
    for (name, points) in series {
        bits.push((format!("{name}.len"), points.len() as u64));
        for (i, &(t, v)) in points.iter().enumerate() {
            bits.push((format!("{name}[{i}].t"), t.to_bits()));
            bits.push((format!("{name}[{i}].v"), v.to_bits()));
        }
    }
    let addons = &r.addon_stats;
    for k in 0..2 {
        bits.push((format!("addon_stats.hits[{k}]"), addons.hits[k]));
        bits.push((format!("addon_stats.misses[{k}]"), addons.misses[k]));
        bits.push((
            format!("addon_stats.swap_secs[{k}]"),
            addons.swap_secs[k].to_bits(),
        ));
    }
    bits.push(("tier_breakdown.len".into(), r.tier_breakdown.len() as u64));
    for t in &r.tier_breakdown {
        let k = t.tier;
        bits.push((format!("tier{k}.completions"), t.completions));
        bits.push((format!("tier{k}.mean_latency"), t.mean_latency.to_bits()));
        bits.push((format!("tier{k}.fid"), t.fid.to_bits()));
        bits.push((format!("tier{k}.escalated_past"), t.escalated_past));
    }
    bits
}
