//! Stage-level micro-serving scaffold: escalated queries resume heavy-tier
//! denoising from the light tier's latents instead of regenerating from
//! scratch.
//!
//! Three promises are proven here:
//! 1. **Zero-reuse equivalence** (property): with resume enabled but a step
//!    credit of zero, the staged pipeline is *bit-identical* to the
//!    monolithic restart cascade across seeds, policies, and scenarios —
//!    the resume path is a strict superset, not a fork.
//! 2. **The escalation dividend**: with a real step credit, escalated
//!    queries finish measurably faster and burn measurably less GPU time
//!    per query, at equal-or-better FID and SLO numbers.
//! 3. **Exact residual arithmetic**: a resumed heavy pass serves exactly
//!    `exec_latency(1) − resume_savings(..)` — the savings come off the
//!    nameplate, not out of thin air.

use diffserve::prelude::*;
use diffserve_simkit::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

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

/// Bitwise report equality over every aggregate and series, including the
/// stage-serving additions.
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

/// A perturbation mix for the equivalence property: steady, a brownout, or
/// a flash-crowd-with-failure — the shapes that exercise every dispatch
/// path (drop-front, degradation slowdown, re-routing).
fn pick_scenario(kind: usize, qps: f64) -> Scenario {
    match kind {
        0 => Scenario::new("steady", flat(qps, 60)),
        1 => {
            Scenario::new("brownout", flat(qps, 60)).worker_degrade(SimTime::from_secs(15), 4, 2.5)
        }
        _ => Scenario::new("failure", flat(qps, 60))
            .worker_fail(SimTime::from_secs(20), 2)
            .worker_recover(SimTime::from_secs(40), 2),
    }
}

fn pick_policy(kind: usize) -> Policy {
    match kind {
        0 => Policy::DiffServe,
        1 => Policy::ClipperHeavy,
        _ => Policy::Proteus,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property (satellite 1): resume enabled with `resume_step_credit = 0`
    /// reuses zero steps, so the staged pipeline must produce *bit-identical*
    /// outcomes to the monolithic restart cascade — across seeds, demand
    /// levels, policies, and perturbation shapes.
    #[test]
    fn zero_step_credit_resume_is_bit_identical_to_restart(
        seed in 0u64..10_000,
        qps in 3.0f64..8.0,
        scen in 0usize..3,
        policy in 0usize..3,
    ) {
        let scenario = pick_scenario(scen, qps);
        let settings = RunSettings::new(pick_policy(policy), qps + 2.0);
        let mut restart_sys = system();
        restart_sys.seed = seed;
        let mut resume_sys = restart_sys.clone();
        resume_sys.resume_from_latents = true;
        resume_sys.resume_step_credit = 0.0;

        let restart = run_scenario(runtime(), &restart_sys, &settings, &scenario);
        let resume = run_scenario(runtime(), &resume_sys, &settings, &scenario);
        prop_assert_eq!(resume.resumed_queries, 0);
        assert_reports_bit_identical(&restart, &resume, "zero-credit resume");
    }
}

/// The tentpole's acceptance numbers on the simulator: with resume enabled,
/// escalated queries complete faster end-to-end and cost less GPU time per
/// query than restart escalation, at equal-or-better FID and SLO numbers.
#[test]
fn resume_beats_restart_on_heavy_latency_and_gpu_time() {
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let scenario = Scenario::new("steady", flat(6.0, 90));
    let restart_sys = system();
    let mut resume_sys = restart_sys.clone();
    resume_sys.resume_from_latents = true;

    let restart = run_scenario(runtime(), &restart_sys, &settings, &scenario);
    let resume = run_scenario(runtime(), &resume_sys, &settings, &scenario);

    assert!(
        restart.heavy_fraction > 0.05,
        "workload must actually escalate: heavy fraction {}",
        restart.heavy_fraction
    );
    assert_eq!(restart.resumed_queries, 0, "restart mode must never resume");
    assert!(
        resume.resumed_queries > 0,
        "resume mode must resume escalated queries"
    );
    assert!(
        resume.mean_reused_steps > 0.0,
        "resumed queries must skip denoise steps"
    );
    assert!(
        resume.mean_heavy_latency < restart.mean_heavy_latency,
        "resume must cut escalated latency: {} vs {}",
        resume.mean_heavy_latency,
        restart.mean_heavy_latency
    );
    assert!(
        resume.gpu_time_per_query < restart.gpu_time_per_query,
        "resume must cut GPU time per query: {} vs {}",
        resume.gpu_time_per_query,
        restart.gpu_time_per_query
    );
    // Lossless hand-off: the resumed heavy image is
    // bit-identical to the restarted one, so quality may only move through
    // second-order control decisions — hold it to equal-or-better with a
    // small tolerance for those.
    assert!(
        resume.fid <= restart.fid * 1.02,
        "resume must not cost quality: fid {} vs {}",
        resume.fid,
        restart.fid
    );
    assert!(
        resume.violation_ratio <= restart.violation_ratio,
        "a faster escalation path cannot violate more: {} vs {}",
        resume.violation_ratio,
        restart.violation_ratio
    );
}

/// Exact residual arithmetic on an idle fleet: a resumed heavy pass serves
/// `exec_latency(1) − resume_savings(profile, reused, steps)`, where
/// `reused = reused_steps(heavy_steps, state, credit)` — measured end to
/// end through the public session API.
#[test]
fn resumed_service_time_is_nameplate_minus_savings() {
    let mut sys = system();
    sys.resume_from_latents = true;
    sys.slo = SimDuration::from_secs(60); // never drop; we measure service
    let mut session = ServingSession::builder()
        .runtime(runtime())
        .config(sys.clone())
        .policy(Policy::ClipperHeavy)
        .build()
        .expect("valid session");

    let heavy = &runtime().spec.heavy;
    let state = StageState::completed(runtime().spec.light.steps());
    let reused = reused_steps(heavy.steps(), state, sys.resume_step_credit);
    assert!(
        reused >= 1 && reused < heavy.steps(),
        "credit 0.5 must reuse some but not all steps: {reused}"
    );
    let savings = resume_savings(heavy.latency(), reused, heavy.steps());
    assert!(savings > 0.0);

    // Two sequential single-query batches: one restarted, one resumed.
    session.submit_spec(QuerySpec::new().at(SimTime::ZERO));
    session.run_until(SimTime::from_secs(30));
    session.submit_spec(
        QuerySpec::new()
            .at(SimTime::from_secs(30))
            .resume_from(state),
    );
    session.run_until(SimTime::from_secs(60));
    let outcomes = session.poll();
    let latencies: Vec<f64> = outcomes
        .iter()
        .map(|o| match o {
            QueryOutcome::Completed(r) => r.latency_secs(),
            QueryOutcome::Dropped { .. } => panic!("nothing may drop at this SLO"),
        })
        .collect();
    assert_eq!(latencies.len(), 2);
    let nameplate = heavy.latency().exec_latency(1).as_secs_f64();
    assert!(
        (latencies[0] - nameplate).abs() < 1e-9,
        "restarted query must serve the nameplate: {} vs {nameplate}",
        latencies[0]
    );
    assert!(
        (latencies[1] - (nameplate - savings)).abs() < 1e-9,
        "resumed query must serve nameplate minus savings: {} vs {}",
        latencies[1],
        nameplate - savings
    );

    // The per-query GPU accounting matches the same arithmetic.
    let gpu: Vec<f64> = outcomes
        .iter()
        .map(|o| match o {
            QueryOutcome::Completed(r) => r.gpu_time,
            QueryOutcome::Dropped { .. } => unreachable!(),
        })
        .collect();
    assert!((gpu[0] - nameplate).abs() < 1e-12);
    assert!((gpu[1] - (nameplate - savings)).abs() < 1e-12);
}

/// Session snapshots count resumed completions live, and the final
/// report agrees with the last snapshot.
#[test]
fn snapshots_count_resumed_completions_live() {
    let mut sys = system();
    sys.resume_from_latents = true;
    let mut session = ServingSession::builder()
        .runtime(runtime())
        .config(sys.clone())
        .policy(Policy::DiffServe)
        .build()
        .expect("valid session");
    let trace = flat(6.0, 60);
    session.replay_trace(&trace);
    session.run_until(SimTime::from_secs(60) + sys.slo * 4);
    let snap = session.snapshot();
    assert!(
        snap.resumed_completions > 0,
        "escalations under resume must show up in the live counter"
    );
    let report = session.finish();
    assert_eq!(
        report.resumed_queries, snap.resumed_completions,
        "final snapshot and report must agree on resumed count"
    );
}

/// A resume renders the plain image: every resumed completion — on a
/// dataset prompt, read from the render table, or on an explicit one,
/// rendered — is bitwise the completing tier's `generate` of its prompt.
#[test]
fn every_resumed_completion_is_the_plain_render_of_its_prompt() {
    let sys = SystemConfig {
        resume_from_latents: true,
        ..system()
    };
    let mut session = ServingSession::builder()
        .runtime(runtime())
        .config(sys.clone())
        .policy(Policy::DiffServe)
        .build()
        .expect("valid session");
    session.replay_trace(&flat(6.0, 60));
    let mut explicit = std::collections::HashMap::new();
    for i in 0..120u64 {
        let prompt = Prompt {
            id: 10_000 + i,
            difficulty: (i % 9) as f64 / 8.0,
            style_bias: 0.0,
            seed: 0xE5 + i,
        };
        let spec = QuerySpec::new()
            .at(SimTime::from_secs(i / 2))
            .prompt(prompt);
        explicit.insert(session.submit_spec(spec).id, prompt);
    }
    session.run_until(SimTime::from_secs(60) + sys.slo * 4);
    let (mut tabled, mut rendered) = (0, 0);
    for outcome in session.poll() {
        let QueryOutcome::Completed(r) = outcome else {
            continue;
        };
        if r.reused_steps == 0 {
            continue;
        }
        let prompt = match explicit.get(&r.id) {
            Some(p) => {
                rendered += 1;
                *p
            }
            None => {
                tabled += 1;
                *runtime().dataset.prompt_cyclic(r.id.0)
            }
        };
        let plain = runtime().model(r.tier).generate(&prompt);
        assert_eq!(
            r.quality.to_bits(),
            plain.quality.to_bits(),
            "query {}",
            r.id.0
        );
        assert!(
            r.features
                .iter()
                .map(|f| f.to_bits())
                .eq(plain.features.iter().map(|f| f.to_bits())),
            "query {}",
            r.id.0
        );
    }
    assert!(
        tabled > 0 && rendered > 0,
        "tabled {tabled}, rendered {rendered}"
    );
}
