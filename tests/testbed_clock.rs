//! The testbed keeps time the way the simulator does: one clock thread
//! fires the control ticks at absolute instants on the control grid. A tick
//! may wake late by host scheduling, but it never drifts by the time the
//! earlier ticks took, so every tick instant lies in the first half of its
//! interval.

use diffserve::prelude::*;
use diffserve_simkit::time::{SimDuration, SimTime};

/// Live threads of this process.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| tasks.count())
        .unwrap_or(0)
}

#[test]
fn testbed_ticks_stay_on_the_control_grid() {
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
        num_workers: 16,
        ..Default::default()
    };
    let trace = Trace::constant(10.0, SimDuration::from_secs(300)).unwrap();
    // Half a control interval is 20 ms of wall time at 0.02. Debug builds
    // re-render every served image, which can keep both cores of a small
    // host busy for that long, so they run at 0.05 (50 ms).
    let time_scale = if cfg!(debug_assertions) { 0.05 } else { 0.02 };
    let before = live_threads();
    let mut session = ServingSession::builder()
        .runtime(&runtime)
        .config(system.clone())
        .settings(RunSettings::new(Policy::DiffServe, 10.0))
        .build_cluster(time_scale)
        .expect("valid testbed session");
    // The fleet is its workers plus one clock thread.
    if cfg!(target_os = "linux") {
        assert_eq!(live_threads() - before, system.num_workers + 1);
    }
    session.replay_trace(&trace);
    let drain_from = session.now().max(SimTime::ZERO + trace.duration());
    session.run_until(drain_from + system.slo * 4);
    let report = session.finish();

    let interval = system.control_interval.as_secs_f64();
    let ticks = &report.deferral_error_series;
    assert!(ticks.len() > 100, "only {} ticks recorded", ticks.len());
    let late: Vec<f64> = ticks
        .iter()
        .map(|&(t, _)| t)
        .filter(|&t| t % interval >= interval / 2.0)
        .collect();
    assert!(
        late.is_empty(),
        "{} of {} ticks landed in the second half of their interval: {late:?}",
        late.len(),
        ticks.len()
    );
}
