//! Old-vs-new API parity: the batch entry points (`run_trace`,
//! `run_scenario`) are thin wrappers over a [`ServingSession`], and a
//! hand-driven session with the same seed must produce a **bit-identical**
//! `RunReport` — even when driven in small increments with observers
//! attached and outcomes polled mid-run. This is the contract that lets
//! applications migrate to the incremental API without re-validating any
//! experiment.

use diffserve::prelude::*;

fn runtime() -> CascadeRuntime {
    CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        1200,
        2024,
        DiscriminatorConfig {
            train_prompts: 500,
            epochs: 8,
            ..Default::default()
        },
    )
}

fn config() -> SystemConfig {
    SystemConfig {
        num_workers: 8,
        ..Default::default()
    }
}

/// Asserts two reports are bit-identical in every scalar and series.
fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
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
        a.mean_windowed_fid.to_bits(),
        b.mean_windowed_fid.to_bits(),
        "{what}: mean windowed fid"
    );
    assert_eq!(
        a.heavy_fraction.to_bits(),
        b.heavy_fraction.to_bits(),
        "{what}: heavy fraction"
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
    assert_eq!(
        a.deferral_error_series, b.deferral_error_series,
        "{what}: deferral error series"
    );
    assert_eq!(a.incident_log, b.incident_log, "{what}: incident log");
    assert_eq!(a.resumed_queries, b.resumed_queries, "{what}: resumed");
    for (x, y, field) in [
        (a.mean_heavy_latency, b.mean_heavy_latency, "heavy latency"),
        (a.mean_reused_steps, b.mean_reused_steps, "reused steps"),
        (a.gpu_time_per_query, b.gpu_time_per_query, "GPU time"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field}");
    }
    assert_eq!(
        a.tier_breakdown.len(),
        b.tier_breakdown.len(),
        "{what}: tiers"
    );
    for (x, y) in a.tier_breakdown.iter().zip(&b.tier_breakdown) {
        assert_eq!(
            (x.tier, x.completions, x.escalated_past),
            (y.tier, y.completions, y.escalated_past),
            "{what}: tier counts"
        );
        assert_eq!(
            (x.mean_latency.to_bits(), x.fid.to_bits()),
            (y.mean_latency.to_bits(), y.fid.to_bits()),
            "{what}: tier {} latency and FID",
            x.tier
        );
    }
}

/// Hand-drives a simulator session the way an application would — chunked
/// `run_until` advances, observers attached, outcomes polled mid-run — and
/// returns its report.
fn hand_driven(
    rt: &CascadeRuntime,
    cfg: &SystemConfig,
    settings: &RunSettings,
    scenario: Option<&Scenario>,
    trace: &Trace,
) -> RunReport {
    let mut builder = ServingSession::builder()
        .runtime(rt)
        .config(cfg.clone())
        .settings(settings.clone());
    if let Some(s) = scenario {
        builder = builder.scenario(s.clone());
    }
    let mut session = builder.build().expect("valid session");
    session.observer(|snap| {
        // Live taps must not perturb the run.
        assert!(snap.thresholds[0].is_finite());
    });
    let submitted = session.replay_trace(trace);
    let horizon = SimTime::ZERO + trace.duration() + cfg.slo * 4;
    // Advance in uneven chunks, polling outcomes as they stream out.
    let mut outcomes = Vec::new();
    let mut t = SimTime::ZERO;
    let mut step = 7;
    while t < horizon {
        t = (t + SimDuration::from_secs(step)).min(horizon);
        step = if step == 7 { 11 } else { 7 };
        session.run_until(t);
        outcomes.extend(session.poll());
    }
    let report = session.finish();
    assert_eq!(
        outcomes.len() as u64,
        submitted,
        "every submitted query polls out exactly once before finish \
         (completions and pre-horizon drops)"
    );
    report
}

#[test]
fn run_trace_matches_hand_driven_session_diffserve() {
    let rt = runtime();
    let cfg = config();
    let trace = Trace::constant(5.0, SimDuration::from_secs(45)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let legacy = run_trace(&rt, &cfg, &settings, &trace);
    let session = hand_driven(&rt, &cfg, &settings, None, &trace);
    assert_reports_identical(&legacy, &session, "DiffServe");
    assert!(legacy.total_queries > 100);
}

#[test]
fn run_trace_matches_hand_driven_session_proteus() {
    // Proteus exercises the routing RNG, so parity here proves the seeded
    // streams line up across the two drive styles too.
    let rt = runtime();
    let cfg = config();
    let trace = Trace::constant(5.0, SimDuration::from_secs(45)).unwrap();
    let settings = RunSettings::new(Policy::Proteus, 8.0);
    let legacy = run_trace(&rt, &cfg, &settings, &trace);
    let session = hand_driven(&rt, &cfg, &settings, None, &trace);
    assert_reports_identical(&legacy, &session, "Proteus");
}

#[test]
fn run_trace_matches_hand_driven_session_clipper_light() {
    let rt = runtime();
    let cfg = config();
    let trace = Trace::constant(5.0, SimDuration::from_secs(45)).unwrap();
    let settings = RunSettings::new(Policy::ClipperLight, 8.0);
    let legacy = run_trace(&rt, &cfg, &settings, &trace);
    let session = hand_driven(&rt, &cfg, &settings, None, &trace);
    assert_reports_identical(&legacy, &session, "Clipper-Light");
}

#[test]
fn run_scenario_matches_hand_driven_session_with_online_estimator() {
    // The online deferral estimator is part of the shared control plane, so
    // enabling it must preserve the batch-vs-incremental parity contract:
    // the profile refreshes from the same deterministic confidence stream
    // either way, and the reports — including the new estimation-error
    // series — stay bit-identical.
    let rt = runtime();
    let cfg = SystemConfig {
        online_profile_refresh: true,
        online_profile_window: 128,
        online_profile_min_samples: 32,
        ..config()
    };
    let base = Trace::constant(5.0, SimDuration::from_secs(60)).unwrap();
    let scenario = Scenario::new("hard", base).difficulty_shift(SimTime::from_secs(20), 0.35);
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let legacy = run_scenario(&rt, &cfg, &settings, &scenario);
    let effective = scenario.effective_trace();
    let session = hand_driven(&rt, &cfg, &settings, Some(&scenario), &effective);
    assert_reports_identical(&legacy, &session, "online estimator");
    assert!(
        !legacy.deferral_error_series.is_empty(),
        "estimation-error series must be recorded"
    );
}

#[test]
fn run_scenario_matches_hand_driven_session_under_churn() {
    let rt = runtime();
    let cfg = config();
    let base = Trace::constant(5.0, SimDuration::from_secs(60)).unwrap();
    let scenario = Scenario::new("churn", base)
        .worker_fail(SimTime::from_secs(20), 2)
        .worker_recover(SimTime::from_secs(40), 2)
        .difficulty_shift(SimTime::from_secs(30), 0.2);
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let legacy = run_scenario(&rt, &cfg, &settings, &scenario);
    let effective = scenario.effective_trace();
    let session = hand_driven(&rt, &cfg, &settings, Some(&scenario), &effective);
    assert_reports_identical(&legacy, &session, "churn scenario");
    assert!(legacy.total_queries > 100);
}

#[test]
fn polling_every_tick_moves_no_bit_and_sees_every_query_once() {
    // The report is assembled from totals streamed at completion time, and
    // `poll()` hands the retained outcomes out by move. So a session polled
    // after every control tick, the same session never polled, and the
    // batch wrapper (which retains nothing to poll) must all report the
    // same bits — and the polls, between them, every query exactly once.
    let rt = runtime();
    let cfg = SystemConfig {
        resume_from_latents: true,
        ..config()
    };
    let base = Trace::constant(100.0, SimDuration::from_secs(60)).unwrap();
    let scenario = Scenario::new("churn", base)
        .worker_fail(SimTime::from_secs(20), 5)
        .worker_recover(SimTime::from_secs(40), 5);
    let trace = scenario.effective_trace();
    let settings = RunSettings::new(Policy::DiffServe, 100.0);
    let horizon = SimTime::ZERO + trace.duration() + cfg.slo * 4;
    let build = || {
        ServingSession::builder()
            .runtime(&rt)
            .config(cfg.clone())
            .settings(settings.clone())
            .scenario(scenario.clone())
            .build()
            .expect("valid session")
    };

    let mut unpolled = build();
    let submitted = unpolled.replay_trace(&trace);
    unpolled.run_until(horizon);
    let unpolled = unpolled.finish();

    let mut polled = build();
    assert_eq!(polled.replay_trace(&trace), submitted);
    let mut seen = vec![0u32; submitted as usize];
    let (mut completed, mut dropped) = (0, 0);
    let mut t = SimTime::ZERO;
    while t < horizon {
        t = (t + cfg.control_interval).min(horizon);
        polled.run_until(t);
        for outcome in polled.poll() {
            seen[outcome.id().0 as usize] += 1;
            if matches!(outcome, QueryOutcome::Completed(_)) {
                completed += 1;
            } else {
                dropped += 1;
            }
        }
    }
    let polled = polled.finish();

    assert!(
        seen.iter().all(|&n| n == 1),
        "every query polls out exactly once"
    );
    assert_eq!((completed, dropped), (polled.completed, polled.dropped));
    assert!(
        dropped > 0 && polled.resumed_queries > 0 && !polled.incident_log.is_empty(),
        "the run must exercise drops ({dropped}), resumes ({}) and incidents",
        polled.resumed_queries
    );
    assert_reports_identical(&unpolled, &polled, "polled every tick vs never");
    let batch = run_scenario(&rt, &cfg, &settings, &scenario);
    assert_reports_identical(&batch, &polled, "batch wrapper vs polled every tick");
}

/// The seed stream `ServingSession::replay_trace` draws its arrivals from.
const ARRIVAL_SEED_STREAM: u64 = 0xA881;

/// What `replay_trace` is specified to be: one `submit_spec` per Poisson
/// arrival, all of them up front, add-ons drawn per query id from the
/// configured mix. With `explicit` set, every query also carries the
/// dataset prompt it would have been served anyway.
fn replay_by_hand(
    session: &mut ServingSession<'_>,
    cfg: &SystemConfig,
    trace: &Trace,
    explicit: Option<&PromptDataset>,
) -> u64 {
    let mut rng = seeded_rng(derive_seed(cfg.seed, ARRIVAL_SEED_STREAM));
    let arrivals = poisson_arrivals(trace, &mut rng);
    for &t in &arrivals {
        let mut spec = QuerySpec::new().at(t);
        if let Some(dataset) = explicit {
            spec = spec.prompt(*dataset.prompt_cyclic(session.submitted()));
        }
        let addon = cfg
            .addons
            .as_ref()
            .and_then(|a| a.mix.draw(session.submitted(), t));
        if let Some(id) = addon {
            spec = spec.addon(id);
        }
        session.submit_spec(spec);
    }
    arrivals.len() as u64
}

#[test]
fn streamed_replay_matches_submitting_every_arrival_up_front() {
    // `replay_trace` hands the simulator one lazy stream and the engine
    // draws each arrival when the one before it fires. The eager form —
    // every arrival submitted, recorded and scheduled before serving
    // starts — must report the same bits: same ids, same add-ons, same
    // order among events of one instant, same routing-RNG draws (Proteus).
    let rt = runtime();
    let trace = Trace::from_qps(
        [vec![30.0; 20], vec![0.0; 5], vec![60.0; 20]].concat(),
        SimDuration::from_secs(1),
    )
    .unwrap();
    let horizon = SimTime::ZERO + trace.duration() + config().slo * 4;
    for policy in [Policy::DiffServe, Policy::Proteus] {
        for addons in [None, Some(AddonsConfig::demo(5))] {
            let what = format!("{} addons={}", policy.name(), addons.is_some());
            let cfg = SystemConfig { addons, ..config() };
            let build = || {
                ServingSession::builder()
                    .runtime(&rt)
                    .config(cfg.clone())
                    .settings(RunSettings::new(policy, 60.0))
                    .build()
                    .expect("valid session")
            };
            let mut streamed = build();
            let n = streamed.replay_trace(&trace);
            let mut eager = build();
            assert_eq!(replay_by_hand(&mut eager, &cfg, &trace, None), n, "{what}");
            assert_eq!(streamed.submitted(), eager.submitted(), "{what}");
            streamed.run_until(horizon);
            eager.run_until(horizon);
            assert_eq!(streamed.snapshot(), eager.snapshot(), "{what}: snapshot");
            assert_eq!(streamed.poll(), eager.poll(), "{what}: polled outcomes");
            let (streamed, eager) = (streamed.finish(), eager.finish());
            assert_reports_identical(&eager, &streamed, &what);
            assert!(
                streamed.total_queries > 1000 && streamed.dropped > 0,
                "{what}"
            );
            assert_eq!(streamed.addon_stats, eager.addon_stats, "{what}");
            let misses: u64 = streamed.addon_stats.misses.iter().sum();
            assert_eq!(misses > 0, cfg.addons.is_some(), "{what}: add-on misses");
        }
    }
}

#[test]
fn replay_then_explicit_submissions_then_an_early_finish_conserve_queries() {
    // A replay reserves its ids when it is attached, so queries submitted
    // while it is still being drawn take the ids after it; finishing
    // before the trace ends must still account every reserved id.
    let rt = runtime();
    let cfg = config();
    let trace = Trace::constant(20.0, SimDuration::from_secs(60)).unwrap();
    let mut session = ServingSession::builder()
        .runtime(&rt)
        .config(cfg.clone())
        .settings(RunSettings::new(Policy::DiffServe, 20.0))
        .build()
        .expect("valid session");
    let n = session.replay_trace(&trace);
    let mut polled = Vec::new();
    let mut tickets = Vec::new();
    for step in 1..=4u64 {
        session.run_until(SimTime::from_secs(5 * step));
        polled.extend(session.poll());
        // One now, one inside the driven window, one far past the end.
        let now = session.now();
        for at in [
            now,
            now + SimDuration::from_secs(2),
            SimTime::from_secs(900),
        ] {
            let ticket = session.submit_spec(QuerySpec::new().at(at));
            assert!(ticket.id.0 >= n, "id {} is the replay's", ticket.id.0);
            tickets.push(ticket.id.0);
        }
    }
    let submitted = session.submitted();
    assert_eq!(submitted, n + 12);
    assert_eq!(session.snapshot().submitted, submitted);
    let mut ids = tickets.clone();
    ids.dedup();
    assert_eq!(
        ids,
        (n..n + 12).collect::<Vec<_>>(),
        "explicit ids follow the replay"
    );

    // Stop a third of the way through the trace.
    session.run_until(SimTime::from_secs(22));
    polled.extend(session.poll());
    let mut seen = vec![false; submitted as usize];
    for outcome in &polled {
        let id = outcome.id().0 as usize;
        assert!(!seen[id], "query {id} polled twice");
        seen[id] = true;
    }
    let polled_explicit = tickets.iter().filter(|&&id| seen[id as usize]).count();
    assert!((4..12).contains(&polled_explicit), "{polled_explicit}");
    let report = session.finish();
    assert_eq!(report.total_queries, submitted);
    assert_eq!(report.completed + report.dropped, report.total_queries);
    assert!(
        report.dropped > n / 2,
        "the undrawn two thirds of the replay are drops: {}",
        report.dropped
    );
}

#[test]
fn two_replays_on_one_session_submit_both() {
    let rt = runtime();
    let cfg = config();
    let trace = Trace::constant(5.0, SimDuration::from_secs(30)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 10.0);
    let build = || {
        ServingSession::builder()
            .runtime(&rt)
            .config(cfg.clone())
            .settings(settings.clone())
            .build()
            .expect("valid session")
    };
    let mut streamed = build();
    let n = streamed.replay_trace(&trace);
    assert_eq!(streamed.replay_trace(&trace), n);
    assert_eq!(streamed.submitted(), 2 * n);
    // Two interleaved streams, each under its own place in the event
    // order, against the same two replays submitted eagerly.
    let mut eager = build();
    replay_by_hand(&mut eager, &cfg, &trace, None);
    replay_by_hand(&mut eager, &cfg, &trace, None);
    let horizon = SimTime::ZERO + trace.duration() + cfg.slo * 4;
    streamed.run_until(horizon);
    eager.run_until(horizon);
    let polled = streamed.poll();
    assert_eq!(polled.len() as u64, 2 * n);
    assert_eq!(polled, eager.poll());
    let report = streamed.finish();
    assert_eq!(report.total_queries, 2 * n);
    assert_eq!(report.completed + report.dropped, 2 * n);
    assert_reports_identical(&eager.finish(), &report, "two replays");
}

/// `replay_trace` on `rt` against the same queries submitted eagerly with
/// their dataset prompts spelled out. A query that carries a prompt is
/// rendered and scored at every boundary it reaches; one that does not has
/// its boundary score read from the runtime's prepared table. The two must
/// agree on every polled outcome and every report bit. Returns the
/// replay's polled outcomes and report.
fn tabled_matches_rendered(
    rt: &CascadeRuntime,
    cfg: &SystemConfig,
    policy: Policy,
    what: &str,
) -> (Vec<QueryOutcome>, RunReport) {
    let trace = Trace::from_qps(
        [vec![30.0; 20], vec![0.0; 5], vec![60.0; 20]].concat(),
        SimDuration::from_secs(1),
    )
    .unwrap();
    let horizon = SimTime::ZERO + trace.duration() + cfg.slo * 4;
    let build = || {
        ServingSession::builder()
            .runtime(rt)
            .config(cfg.clone())
            .settings(RunSettings::new(policy, 60.0))
            .build()
            .expect("valid session")
    };
    let mut tabled = build();
    let n = tabled.replay_trace(&trace);
    let mut rendered = build();
    let explicit = Some(&rt.dataset);
    assert_eq!(
        replay_by_hand(&mut rendered, cfg, &trace, explicit),
        n,
        "{what}"
    );
    tabled.run_until(horizon);
    rendered.run_until(horizon);
    assert_eq!(tabled.snapshot(), rendered.snapshot(), "{what}: snapshot");
    let polled = tabled.poll();
    assert_eq!(polled, rendered.poll(), "{what}: polled outcomes");
    let report = tabled.finish();
    assert_reports_identical(&rendered.finish(), &report, what);
    assert!(report.total_queries > 1000 && report.dropped > 0, "{what}");
    (polled, report)
}

#[test]
fn tabled_scores_match_render_then_score_on_two_tiers() {
    let rt = runtime();
    for resume_from_latents in [false, true] {
        let cfg = SystemConfig {
            resume_from_latents,
            ..config()
        };
        let what = format!("two-tier resume={resume_from_latents}");
        let (_, report) = tabled_matches_rendered(&rt, &cfg, Policy::DiffServe, &what);
        assert!(report.tier_breakdown[0].escalated_past > 0, "{what}");
        assert_eq!(report.resumed_queries > 0, resume_from_latents, "{what}");
    }
}

#[test]
fn tabled_scores_match_render_then_score_on_a_resuming_ladder() {
    let rt = CascadeRuntime::prepare_ladder(
        ladder3(FeatureSpec::default()),
        1200,
        2024,
        DiscriminatorConfig {
            train_prompts: 500,
            epochs: 8,
            ..Default::default()
        },
    );
    let cfg = SystemConfig {
        ladder: Some(LadderConfig::default()),
        resume_from_latents: true,
        addons: Some(AddonsConfig::demo(5)),
        ..config()
    };
    let (outcomes, report) = tabled_matches_rendered(&rt, &cfg, Policy::DiffServe, "ladder3");
    assert!(report.resumed_queries > 0);
    // Resumed passes read the tables too, so the twin above compared them:
    // the mid tier's boundary scored some of them.
    assert!(outcomes.iter().any(|o| matches!(
        o,
        QueryOutcome::Completed(r) if r.tier == 1 && r.reused_steps > 0 && r.confidence.is_some()
    )));
}

#[test]
fn testbed_render_then_score_makes_the_simulators_tabled_decisions() {
    // The testbed's timing is the host's, so only what is decided by
    // scores alone can be compared exactly: under a pinned threshold, with
    // no churn and an SLO so loose that the drop-front rule never predicts
    // a miss, every query's path through the cascade is fixed by its
    // boundary score. The testbed serves explicit prompts (render, then
    // score); the simulator replays dataset queries (scores read from the
    // table).
    let rt = runtime();
    let cfg = SystemConfig {
        slo: SimDuration::from_secs(20),
        ..config()
    };
    let trace = Trace::constant(3.0, SimDuration::from_secs(30)).unwrap();
    let mut settings = RunSettings::new(Policy::DiffServeStatic, 3.0);
    settings.knobs = AblationKnobs::static_threshold(0.5);
    // One SLO past the last arrival: what is still unfinished then is
    // accounted as a drop, which the check below would catch.
    let horizon = SimTime::ZERO + trace.duration() + cfg.slo;

    let sim = run_trace(&rt, &cfg, &settings, &trace);
    let mut testbed = ServingSession::builder()
        .runtime(&rt)
        .config(cfg.clone())
        .settings(settings)
        .build_cluster(if cfg!(debug_assertions) { 0.05 } else { 0.01 })
        .expect("valid session");
    replay_by_hand(&mut testbed, &cfg, &trace, Some(&rt.dataset));
    testbed.run_until(horizon);
    let testbed = testbed.finish();

    let decisions = |r: &RunReport| {
        let tiers: Vec<_> = r
            .tier_breakdown
            .iter()
            .map(|s| (s.tier, s.completions, s.escalated_past))
            .collect();
        (r.total_queries, r.completed, r.dropped, tiers)
    };
    assert_eq!(decisions(&testbed), decisions(&sim));
    assert_eq!((sim.dropped, testbed.dropped), (0, 0), "nothing is shed");
    assert!(sim.tier_breakdown[0].escalated_past > 0 && sim.tier_breakdown[0].completions > 0);
    for r in [&sim, &testbed] {
        assert!(r.threshold_series.iter().all(|&(_, t)| t == 0.5));
    }
}
