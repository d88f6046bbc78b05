//! The degradation-aware fault engine end to end: partial degradation
//! (brownouts) slows service instead of fail-stopping it, the controller
//! solves against *effective* capacity rather than nameplate, seeded
//! load-correlated hazards fire into a recorded incident log, and replaying
//! that log reproduces the original run — bit-exactly on the discrete-event
//! simulator.

use diffserve::prelude::*;
use diffserve_simkit::time::{SimDuration, SimTime};
use proptest::prelude::*;
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

fn flat(qps: f64, secs: u64) -> Trace {
    Trace::constant(qps, SimDuration::from_secs(secs)).unwrap()
}

/// Bitwise report equality: every aggregate and every time series. Two runs
/// that pass this are indistinguishable to any downstream analysis.
fn assert_reports_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.total_queries, b.total_queries, "{what}: total");
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(a.dropped, b.dropped, "{what}: dropped");
    assert_eq!(a.late, b.late, "{what}: late");
    assert_eq!(
        a.violation_ratio.to_bits(),
        b.violation_ratio.to_bits(),
        "{what}: violation ratio"
    );
    assert_eq!(
        a.mean_latency.to_bits(),
        b.mean_latency.to_bits(),
        "{what}: mean latency"
    );
    assert_eq!(a.fid.to_bits(), b.fid.to_bits(), "{what}: fid");
    assert_eq!(
        a.heavy_fraction.to_bits(),
        b.heavy_fraction.to_bits(),
        "{what}: heavy fraction"
    );
    assert_eq!(
        a.mean_heavy_latency.to_bits(),
        b.mean_heavy_latency.to_bits(),
        "{what}: mean heavy latency"
    );
    assert_eq!(
        a.gpu_time_per_query.to_bits(),
        b.gpu_time_per_query.to_bits(),
        "{what}: gpu time per query"
    );
    assert_eq!(a.resumed_queries, b.resumed_queries, "{what}: resumed");
    assert_eq!(
        a.mean_reused_steps.to_bits(),
        b.mean_reused_steps.to_bits(),
        "{what}: mean reused steps"
    );
    assert_eq!(a.fid_series, b.fid_series, "{what}: fid series");
    assert_eq!(
        a.violation_series, b.violation_series,
        "{what}: violation series"
    );
    assert_eq!(a.demand_series, b.demand_series, "{what}: demand series");
    assert_eq!(
        a.threshold_series, b.threshold_series,
        "{what}: threshold series"
    );
    assert_eq!(a.incident_log, b.incident_log, "{what}: incident log");
}

/// A seeded hazard run fires load-correlated faults into the incident log,
/// and replaying the log through a fresh session reproduces the original
/// report bit-exactly — a weird run becomes a regression test.
#[test]
fn hazard_incidents_record_and_replay_bit_exactly_on_sim() {
    let sys = system();
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let scenario = Scenario::new("hazardous", flat(7.0, 80)).with_hazard(Hazard {
        seed: 7,
        fail_rate: 0.01,
        degrade_rate: 0.05,
        load_coupling: 6.0,
    });
    let original = run_scenario(runtime(), &sys, &settings, &scenario);
    assert!(
        !original.incident_log.is_empty(),
        "seeded hazards must fire at these rates"
    );
    // The hazard drew at least one partial degradation, not only fail-stops.
    assert!(
        original
            .incident_log
            .iter()
            .any(|i| matches!(i.event, ScenarioEvent::Capacity(CapacityEvent::Degrade(..)))),
        "no degradation drawn: {:?}",
        original.incident_log
    );

    let replayed = scenario.replay(&original.incident_log);
    assert!(replayed.hazard().is_none());
    let replay = run_scenario(runtime(), &sys, &settings, &replayed);
    assert_reports_bit_identical(&original, &replay, "hazard replay");
}

/// The hazard is checked on the control clock, at the half-phase of each
/// control interval, so any control interval keeps its checks off the ticks:
/// a default hazard under a 1 s interval builds, and its incident log
/// replays bit-exactly.
#[test]
fn hazard_on_a_one_second_control_clock_replays_bit_exactly() {
    let sys = SystemConfig {
        control_interval: SimDuration::from_secs(1),
        ..system()
    };
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let scenario = Scenario::new("hazardous-1s", flat(7.0, 80)).with_hazard(Hazard::default());
    let session = ServingSession::builder()
        .runtime(runtime())
        .config(sys.clone())
        .settings(settings.clone())
        .scenario(scenario.clone())
        .build();
    assert!(session.is_ok(), "{:?}", session.err());
    let original = run_scenario(runtime(), &sys, &settings, &scenario);
    assert!(
        !original.incident_log.is_empty(),
        "the default hazard must fire over this run"
    );
    let replay = run_scenario(
        runtime(),
        &sys,
        &settings,
        &scenario.replay(&original.incident_log),
    );
    assert_reports_bit_identical(&original, &replay, "1 s control clock replay");
}

/// The simulator fires every hazard-drawn incident at a check instant
/// `(k + ½)·interval` of the session's control interval, including an
/// interval whose half is not a whole second.
#[test]
fn hazard_incidents_fire_at_control_half_phases() {
    let sys = SystemConfig {
        control_interval: SimDuration::from_secs(3),
        ..system()
    };
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let scenario = Scenario::new("hazardous-3s", flat(7.0, 60)).with_hazard(Hazard {
        seed: 11,
        fail_rate: 0.01,
        degrade_rate: 0.05,
        load_coupling: 6.0,
    });
    let report = run_scenario(runtime(), &sys, &settings, &scenario);
    assert!(
        !report.incident_log.is_empty(),
        "seeded hazards must fire at these rates"
    );
    let interval = sys.control_interval.as_micros();
    for incident in &report.incident_log {
        assert_eq!(
            incident.at.as_micros() % interval,
            interval / 2,
            "{incident:?} is off the control half-phase"
        );
    }
}

/// Incident replay also round-trips for purely scheduled fault timelines
/// (the log then is the timeline), including degradations.
#[test]
fn scheduled_brownout_records_and_replays_bit_exactly() {
    let sys = system();
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let scenario = Scenario::new("brownout", flat(6.0, 60))
        .worker_degrade(SimTime::from_secs(15), 3, 2.5)
        .worker_fail(SimTime::from_secs(25), 1)
        .worker_recover(SimTime::from_secs(40), 1)
        .worker_restore(SimTime::from_secs(45), 3);
    let original = run_scenario(runtime(), &sys, &settings, &scenario);
    assert_eq!(
        original.incident_log.len(),
        4,
        "every scheduled perturbation must be logged: {:?}",
        original.incident_log
    );
    let replay = run_scenario(
        runtime(),
        &sys,
        &settings,
        &scenario.replay(&original.incident_log),
    );
    assert_reports_bit_identical(&original, &replay, "scheduled replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any hazard seed and rate mix, the recorded incident
    /// log replays the run bit-exactly on the simulator.
    #[test]
    fn incident_replay_is_bit_exact_under_seeded_hazards(
        seed in 0usize..1000,
        fail_rate in 0.0f64..0.02,
        degrade_rate in 0.01f64..0.08,
        coupling in 0.0f64..8.0,
    ) {
        let sys = system();
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let scenario = Scenario::new("hazard-prop", flat(6.0, 50)).with_hazard(Hazard {
            seed: seed as u64,
            fail_rate,
            degrade_rate,
            load_coupling: coupling,
        });
        let original = run_scenario(runtime(), &sys, &settings, &scenario);
        let replay = run_scenario(
            runtime(),
            &sys,
            &settings,
            &scenario.replay(&original.incident_log),
        );
        assert_reports_bit_identical(&original, &replay, "proptest replay");
    }
}

/// Schedules one random event: a kind, an instant slot, a worker count and
/// a free parameter (the slowdown or difficulty offset).
fn schedule_random(
    scenario: Scenario,
    (kind, slot, count, x): (usize, u64, usize, f64),
) -> Scenario {
    // Four odd-second instants: several events share one, none meets a
    // control tick (every 2 s).
    let at = SimTime::from_secs(3 + 4 * slot);
    match kind {
        0 | 1 => scenario.worker_fail(at, count),
        2 => scenario.worker_recover(at, count),
        3 | 4 => scenario.worker_degrade(at, count, 1.0 + 2.0 * x),
        5 => scenario.worker_restore(at, count),
        _ => scenario.difficulty_shift(at, x - 0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: every scheduled timeline `Scenario::validate` accepts runs
    /// with query conservation, its incident log is already in timeline
    /// order (capacity before difficulty at one instant, each kind in
    /// firing order), and replaying the log reproduces the report bit for
    /// bit.
    #[test]
    fn accepted_timelines_conserve_queries_and_replay_bit_exactly(
        raw in proptest::collection::vec((0usize..8, 0u64..4, 1usize..4, 0.0f64..1.0), 1..9),
    ) {
        let sys = system();
        let scenario = raw
            .into_iter()
            .fold(Scenario::new("timeline-prop", flat(4.0, 20)), schedule_random);
        if scenario.validate(sys.num_workers).is_err() {
            return;
        }
        let settings = RunSettings::new(Policy::DiffServe, 4.0);
        let original = run_scenario(runtime(), &sys, &settings, &scenario);
        prop_assert_eq!(
            original.completed + original.dropped,
            original.total_queries,
            "queries leaked under {:?}",
            scenario.timeline()
        );
        let log = &original.incident_log;
        prop_assert_eq!(
            &Scenario::from_incident_log("log", flat(4.0, 20), log).timeline(),
            log
        );
        let replay = run_scenario(runtime(), &sys, &settings, &scenario.replay(log));
        assert_reports_bit_identical(&original, &replay, "timeline replay");
    }
}

/// The fleet-health rule is one fold for every engine. On four workers
/// `Degrade(10, 2.0)` degrades the four alive ones and `Restore(3)` leaves
/// one degraded, so a back-to-back `Restore(2)` is rejected by the
/// simulator session, the testbed session and `Scenario::validate` of the
/// same schedule at one instant alike.
#[test]
fn back_to_back_restores_are_rejected_by_every_engine() {
    let sys = SystemConfig {
        num_workers: 4,
        ..Default::default()
    };
    let degrade = ScenarioEvent::Capacity(CapacityEvent::Degrade(10, 2.0));
    let restore = |n| ScenarioEvent::Capacity(CapacityEvent::Restore(n));
    let builder = || {
        ServingSession::builder()
            .runtime(runtime())
            .config(sys.clone())
    };
    let sessions = [
        ("simulator", builder().build().expect("valid session")),
        (
            "testbed",
            builder()
                .build_cluster(0.05)
                .expect("valid cluster session"),
        ),
    ];
    for (engine, mut session) in sessions {
        session.inject(degrade).expect("degrade is best-effort");
        session.inject(restore(3)).expect("3 of 4 degraded");
        assert!(
            matches!(
                session.inject(restore(2)),
                Err(ScenarioError::RestoreWithoutDegrade { .. })
            ),
            "{engine} accepted a restore of 2 with 1 degraded"
        );
        session.run_until(SimTime::from_secs(1));
        let events: Vec<ScenarioEvent> = session
            .finish()
            .incident_log
            .iter()
            .map(|inc| inc.event)
            .collect();
        assert_eq!(
            events,
            [
                ScenarioEvent::Capacity(CapacityEvent::Degrade(4, 2.0)),
                restore(3)
            ],
            "{engine}"
        );
    }
    let at = SimTime::from_secs(5);
    let schedule = Scenario::new("back-to-back", flat(1.0, 10))
        .worker_degrade(at, 10, 2.0)
        .worker_restore(at, 3)
        .worker_restore(at, 2);
    assert_eq!(
        schedule.validate(sys.num_workers),
        Err(ScenarioError::RestoreWithoutDegrade { at })
    );
}

/// Stage-level serving under degradation: a browned-out worker stretches
/// only the *residual* denoise steps of a resumed query. The service time
/// must be `(nameplate − savings) × slowdown` — the savings come off before
/// the health multiplier — not the subtly wrong `nameplate × slowdown −
/// savings`, which would credit the skipped steps at degraded speed.
#[test]
fn degraded_worker_stretches_only_residual_steps() {
    const SLOWDOWN: f64 = 2.5;
    let mut sys = system();
    sys.resume_from_latents = true;
    sys.slo = SimDuration::from_secs(60); // never drop; we measure service
    let mut session = ServingSession::builder()
        .runtime(runtime())
        .config(sys.clone())
        .policy(Policy::ClipperHeavy)
        .build()
        .expect("valid session");
    session
        .inject(ScenarioEvent::Capacity(CapacityEvent::Degrade(8, SLOWDOWN)))
        .expect("the whole fleet may degrade");

    let heavy = &runtime().spec.heavy;
    let state = StageState::completed(runtime().spec.light.steps());
    let reused = reused_steps(heavy.steps(), state, sys.resume_step_credit);
    let savings = resume_savings(heavy.latency(), reused, heavy.steps());
    assert!(savings > 0.0);

    session.submit_spec(QuerySpec::new().at(SimTime::ZERO).resume_from(state));
    session.run_until(SimTime::from_secs(59));
    let outcomes = session.poll();
    let latency = match outcomes.as_slice() {
        [QueryOutcome::Completed(r)] => r.latency_secs(),
        other => panic!("expected one completion, got {other:?}"),
    };
    let nameplate = heavy.latency().exec_latency(1).as_secs_f64();
    let expected = (nameplate - savings) * SLOWDOWN;
    let wrong = nameplate * SLOWDOWN - savings;
    assert!(
        (expected - wrong).abs() > 1e-3,
        "test must be able to tell the formulas apart"
    );
    assert!(
        (latency - expected).abs() < 1e-9,
        "degraded resumed service must stretch only residual steps: \
         {latency} vs expected {expected} (wrong-order formula gives {wrong})"
    );
}

/// Record/replay stays bit-exact with stage-level serving enabled: hazards,
/// resume bookkeeping, and the incident log all reproduce — including the
/// resume aggregates the extended bit-identity check pins.
#[test]
fn hazard_replay_stays_bit_exact_with_resume_enabled() {
    let mut sys = system();
    sys.resume_from_latents = true;
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let scenario = Scenario::new("hazardous-resume", flat(7.0, 80)).with_hazard(Hazard {
        seed: 7,
        fail_rate: 0.01,
        degrade_rate: 0.05,
        load_coupling: 6.0,
    });
    let original = run_scenario(runtime(), &sys, &settings, &scenario);
    assert!(
        !original.incident_log.is_empty(),
        "seeded hazards must fire at these rates"
    );
    assert!(
        original.resumed_queries > 0,
        "escalations under hazards must still resume"
    );
    let replay = run_scenario(
        runtime(),
        &sys,
        &settings,
        &scenario.replay(&original.incident_log),
    );
    assert_reports_bit_identical(&original, &replay, "resume hazard replay");
}

/// Degradation is not fail-stop: a brownout slows service (violations rise
/// vs steady) but conserves every query, and the fleet reports the degraded
/// workers in live snapshots.
#[test]
fn brownout_degrades_service_without_losing_queries() {
    let sys = system();
    let settings = RunSettings::new(Policy::DiffServe, 12.0);
    let steady = run_scenario(
        runtime(),
        &sys,
        &settings,
        &Scenario::new("steady", flat(10.0, 60)),
    );
    let brownout_scenario =
        Scenario::new("brownout", flat(10.0, 60)).worker_degrade(SimTime::from_secs(20), 5, 3.0);
    let brownout = run_scenario(runtime(), &sys, &settings, &brownout_scenario);
    assert_eq!(
        brownout.completed + brownout.dropped,
        brownout.total_queries,
        "brownout leaked queries"
    );
    assert!(
        brownout.violation_ratio >= steady.violation_ratio,
        "slowing 5 of 8 workers 3x cannot improve violations: {} vs {}",
        brownout.violation_ratio,
        steady.violation_ratio
    );
    assert!(
        brownout.mean_latency > steady.mean_latency,
        "brownout must show up in latency: {} vs {}",
        brownout.mean_latency,
        steady.mean_latency
    );

    // Live visibility: a session snapshot reports degraded workers.
    let mut session = ServingSession::builder()
        .runtime(runtime())
        .config(sys)
        .policy(Policy::DiffServe)
        .build()
        .expect("valid session");
    session
        .inject(ScenarioEvent::Capacity(CapacityEvent::Degrade(3, 2.0)))
        .expect("3 of 8 may degrade");
    session.run_until(SimTime::from_secs(4));
    assert_eq!(session.snapshot().degraded_workers, 3);
    // Restoring more than degraded is rejected; restoring them is fine.
    let err = session
        .inject(ScenarioEvent::Capacity(CapacityEvent::Restore(4)))
        .unwrap_err();
    assert!(matches!(err, ScenarioError::RestoreWithoutDegrade { .. }));
    session
        .inject(ScenarioEvent::Capacity(CapacityEvent::Restore(3)))
        .expect("restore the degraded 3");
    session.run_until(SimTime::from_secs(8));
    assert_eq!(session.snapshot().degraded_workers, 0);
    // Injected perturbations land in the final report's incident log.
    let report = session.finish();
    assert_eq!(report.incident_log.len(), 2);
}

/// The acceptance regression: under a brownout, the DiffServe policy solved
/// against *effective* capacity lands measurably fewer SLO violations than
/// the same policy solved against nameplate capacity (the
/// degradation-blindness ablation). The effective-aware controller lowers
/// the threshold and sheds deferrals; the blind one keeps deferring into a
/// heavy tier that no longer has the throughput.
#[test]
fn effective_capacity_beats_nameplate_under_brownout() {
    let sys = system();
    // 10 QPS on 8 workers leaves headroom; a 2x brownout of 6 workers
    // (both light-tier workers and most of the heavy tier) eats it.
    let scenario =
        Scenario::new("brownout", flat(10.0, 120)).worker_degrade(SimTime::from_secs(30), 6, 2.0);

    let effective = run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, 10.0),
        &scenario,
    );
    let mut blind_settings = RunSettings::new(Policy::DiffServe, 10.0);
    blind_settings.knobs = AblationKnobs::nameplate();
    let nameplate = run_scenario(runtime(), &sys, &blind_settings, &scenario);

    assert!(
        effective.violation_ratio < nameplate.violation_ratio,
        "degradation awareness must reduce violations: effective {} vs nameplate {}",
        effective.violation_ratio,
        nameplate.violation_ratio
    );
    // "Measurably": with margin, so a controller regression cannot hide
    // inside seed noise.
    assert!(
        effective.violation_ratio < nameplate.violation_ratio * 0.8,
        "improvement too small to be the capacity signal: effective {} vs nameplate {}",
        effective.violation_ratio,
        nameplate.violation_ratio
    );
}

/// The health-weighted JSQ regression (sim half): under a brownout, routing
/// that weighs queue depth by worker slowdown lands fewer SLO violations
/// than the health-blind JSQ it replaced. Blind routing keeps feeding
/// stragglers as if they drained at nameplate speed; their queues back up
/// and the drop-front policy sheds exactly those queries.
#[test]
fn health_weighted_jsq_beats_health_blind_under_brownout_on_sim() {
    let sys = system();
    // Near-saturation load with half the fleet at 3x for most of the run:
    // queues must actually build for the routing decision to matter.
    let scenario =
        Scenario::new("brownout", flat(9.0, 120)).worker_degrade(SimTime::from_secs(20), 4, 3.0);

    let weighted = run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, 9.0),
        &scenario,
    );
    let mut blind_settings = RunSettings::new(Policy::DiffServe, 9.0);
    blind_settings.knobs = AblationKnobs::health_blind();
    let blind = run_scenario(runtime(), &sys, &blind_settings, &scenario);

    assert_eq!(
        weighted.completed + weighted.dropped,
        weighted.total_queries,
        "weighted routing leaked queries"
    );
    assert!(
        weighted.violation_ratio < blind.violation_ratio,
        "health-weighted JSQ must reduce violations under brownout: weighted {} vs blind {}",
        weighted.violation_ratio,
        blind.violation_ratio
    );
}

/// The health-weighted JSQ regression (cluster half): the same brownout on
/// the thread-based testbed. Wall-clock scheduling adds noise, so the
/// workload is chosen for a decisive effect (half the fleet at 3x under
/// near-saturation load) rather than a fine margin.
#[test]
fn health_weighted_jsq_beats_health_blind_under_brownout_on_cluster() {
    let sys = system();
    let scenario =
        Scenario::new("brownout", flat(6.0, 60)).worker_degrade(SimTime::from_secs(10), 4, 3.0);

    let weighted = run_cluster_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, 6.0),
        &scenario,
        TIME_SCALE,
    );
    let mut blind_settings = RunSettings::new(Policy::DiffServe, 6.0);
    blind_settings.knobs = AblationKnobs::health_blind();
    let blind = run_cluster_scenario(runtime(), &sys, &blind_settings, &scenario, TIME_SCALE);

    assert!(
        weighted.violation_ratio < blind.violation_ratio,
        "health-weighted JSQ must reduce violations under brownout: weighted {} vs blind {}",
        weighted.violation_ratio,
        blind.violation_ratio
    );
}

/// Cluster counterpart of the record/replay loop: hazard-drawn faults land
/// in the cluster report's incident log, and replaying the log through a
/// fresh cluster run reproduces the run within the testbed's wall-clock
/// tolerance (bit-exactness is a simulator property; thread scheduling
/// makes the testbed approximate by construction).
#[test]
fn cluster_hazard_incidents_record_and_replay() {
    let sys = system();
    let settings = RunSettings::new(Policy::DiffServe, 7.0);
    let scenario = Scenario::new("hazardous", flat(6.0, 60)).with_hazard(Hazard {
        seed: 11,
        fail_rate: 0.01,
        degrade_rate: 0.06,
        load_coupling: 6.0,
    });
    let original = run_cluster_scenario(runtime(), &sys, &settings, &scenario, TIME_SCALE);
    assert!(
        !original.incident_log.is_empty(),
        "cluster hazards must fire and be logged"
    );
    let replay = run_cluster_scenario(
        runtime(),
        &sys,
        &settings,
        &scenario.replay(&original.incident_log),
        TIME_SCALE,
    );
    assert_eq!(
        original.total_queries, replay.total_queries,
        "same arrival stream"
    );
    // The replay re-fires the recorded incidents. It cannot fire more than
    // were recorded (it carries no hazard of its own); a single trailing
    // incident stamped in the run's final instants may miss the replay's
    // shutdown on a slow machine, so allow exactly that much slack.
    assert!(
        replay.incident_log.len() <= original.incident_log.len()
            && replay.incident_log.len() + 1 >= original.incident_log.len(),
        "replay fired {} of {} recorded incidents",
        replay.incident_log.len(),
        original.incident_log.len()
    );
    let fid_gap = (replay.fid - original.fid).abs() / original.fid;
    assert!(fid_gap < 0.3, "fid gap {fid_gap}");
    let viol_gap = (replay.violation_ratio - original.violation_ratio).abs();
    assert!(viol_gap < 0.35, "violation gap {viol_gap}");
}
