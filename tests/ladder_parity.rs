//! Parity checks for the N-tier quality ladder.
//!
//! Two promises ride on the ladder generalization:
//!
//! 1. **Degeneracy** — a two-tier ladder is not "almost" the legacy
//!    cascade, it IS the legacy cascade: same artifacts, same planner,
//!    same serving decisions, bit for bit. The property test below runs
//!    randomly drawn workloads through a legacy [`CascadeRuntime`] and
//!    through the equivalent ladder-prepared runtime and demands equal
//!    report fingerprints (aggregates, every series, the per-tier
//!    breakdown).
//! 2. **Backend parity** — for a real 3-tier ladder the simulator and the
//!    thread-based cluster testbed must agree on where traffic settles:
//!    per-tier escalation counts within a loose wall-clock tolerance,
//!    mirroring the paper's §4.3 sim-vs-testbed validation.
//! 3. **Solver parity** — the MILP oracle plans every control tick of a
//!    real ladder session as the served enumerator does (debug builds
//!    assert it on each tick), and the run reports what it did when both
//!    served it.

use diffserve::prelude::*;
use diffserve_imagegen::TierLadder;
use diffserve_simkit::time::SimDuration;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Wall-clock seconds per simulated second on the testbed. Debug builds
/// run the discriminator ~50x slower, so their clock runs slower too.
const TIME_SCALE: f64 = if cfg!(debug_assertions) { 0.05 } else { 0.01 };

fn disc_config() -> DiscriminatorConfig {
    DiscriminatorConfig {
        train_prompts: 500,
        epochs: 10,
        ..Default::default()
    }
}

/// Legacy two-tier runtime (Cascade 1).
fn legacy_runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(cascade1(FeatureSpec::default()), 1500, 2024, disc_config())
    })
}

/// The same cascade prepared through the ladder path (a 2-rung ladder).
fn degenerate_runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare_ladder(
            TierLadder::from_cascade(&cascade1(FeatureSpec::default())),
            1500,
            2024,
            disc_config(),
        )
    })
}

/// A real 3-tier ladder runtime for the backend-parity check.
fn ladder3_runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare_ladder(ladder3(FeatureSpec::default()), 1500, 2024, disc_config())
    })
}

/// FNV-1a over every aggregate, every series, and the per-tier breakdown
/// of a [`RunReport`], floats by bit pattern. Mirrors the golden-report
/// fingerprint but additionally pins `tier_breakdown`, so a ladder run
/// that merely *aggregates* identically cannot pass while routing
/// differently.
fn fingerprint(report: &RunReport) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    eat(&mut h, report.total_queries);
    eat(&mut h, report.completed);
    eat(&mut h, report.dropped);
    eat(&mut h, report.late);
    eat(&mut h, report.violation_ratio.to_bits());
    eat(&mut h, report.mean_latency.to_bits());
    eat(&mut h, report.fid.to_bits());
    eat(&mut h, report.mean_windowed_fid.to_bits());
    eat(&mut h, report.heavy_fraction.to_bits());
    eat(&mut h, report.gpu_time_per_query.to_bits());
    for series in [
        &report.fid_series,
        &report.violation_series,
        &report.demand_series,
        &report.threshold_series,
        &report.deferral_error_series,
    ] {
        eat(&mut h, series.len() as u64);
        for &(t, v) in series {
            eat(&mut h, t.to_bits());
            eat(&mut h, v.to_bits());
        }
    }
    eat(&mut h, report.tier_breakdown.len() as u64);
    for s in &report.tier_breakdown {
        eat(&mut h, s.tier as u64);
        eat(&mut h, s.completions);
        eat(&mut h, s.escalated_past);
        eat(&mut h, s.mean_latency.to_bits());
        eat(&mut h, s.fid.to_bits());
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An N-tier ladder degenerated to two tiers serves bit-identically
    /// to the legacy cascade across randomly drawn workloads — with and
    /// without a [`LadderConfig`] attached (a two-tier runtime stays on
    /// the legacy planner either way).
    #[test]
    fn two_tier_ladder_is_bit_identical_to_legacy(
        scenario_idx in 0usize..9,
        qps_tenths in 40u32..80,
        num_workers in 6usize..10,
        horizon in 30u64..60,
        attach_ladder_config in 0u8..2,
    ) {
        let system = SystemConfig {
            num_workers,
            ladder: (attach_ladder_config == 1).then(LadderConfig::default),
            ..Default::default()
        };
        let base = Trace::constant(f64::from(qps_tenths) / 10.0, SimDuration::from_secs(horizon))
            .expect("valid trace");
        let scenarios = standard_scenarios(&base, num_workers);
        let scenario = &scenarios[scenario_idx];
        let settings = RunSettings::new(Policy::DiffServe, scenario.effective_trace().max_qps());

        let legacy = run_scenario(legacy_runtime(), &system, &settings, scenario);
        let ladder = run_scenario(degenerate_runtime(), &system, &settings, scenario);
        prop_assert_eq!(
            fingerprint(&legacy),
            fingerprint(&ladder),
            "two-tier ladder diverged from the legacy cascade on {}",
            scenario.name()
        );
    }
}

/// The simulator and the cluster testbed must agree on where a 3-tier
/// ladder's traffic settles: the same arrival stream, and per-boundary
/// escalation counts within a loose tolerance of each other (the cluster
/// runs on wall-clock threads, so exact counts differ).
#[test]
fn sim_and_cluster_agree_on_ladder_escalations() {
    let system = SystemConfig {
        num_workers: 8,
        ladder: Some(LadderConfig::default()),
        ..Default::default()
    };
    let trace = Trace::constant(5.0, SimDuration::from_secs(50)).unwrap();
    let settings = RunSettings::new(Policy::DiffServe, 5.0);

    let sim = run_trace(ladder3_runtime(), &system, &settings, &trace);
    let testbed = run_cluster(ladder3_runtime(), &system, &settings, &trace, TIME_SCALE);

    assert!(sim.total_queries > 100);
    assert_eq!(
        testbed.total_queries, sim.total_queries,
        "same arrival stream"
    );
    assert_eq!(sim.tier_breakdown.len(), 3, "three tiers reported");
    assert_eq!(testbed.tier_breakdown.len(), 3, "three tiers reported");
    // Per-boundary escalation mass as a fraction of all queries: the two
    // backends run the same controller on the same artifacts, so they
    // must settle within a loose wall-clock tolerance of each other.
    let total = sim.total_queries as f64;
    for (s, t) in sim.tier_breakdown.iter().zip(&testbed.tier_breakdown) {
        assert_eq!(s.tier, t.tier);
        let gap = (s.escalated_past as f64 - t.escalated_past as f64).abs() / total;
        assert!(
            gap < 0.20,
            "tier {} escalation gap {gap:.3}: sim {} vs testbed {} of {} queries",
            s.tier,
            s.escalated_past,
            t.escalated_past,
            sim.total_queries
        );
    }
    // Both backends actually used the mid tier.
    assert!(
        sim.tier_breakdown[1].completions > 0,
        "sim mid tier served traffic"
    );
    assert!(
        testbed.tier_breakdown[1].completions > 0,
        "testbed mid tier served traffic"
    );
}

/// Every control tick of a `ladder_control`-shaped session — 3-tier
/// ladder, latent resume, add-ons, online profile refresh, 16 workers on a
/// 2–16 qps diurnal trace — is a real allocator instance. Debug builds
/// re-plan each one through the MILP oracle and check it against Eq. 1–5,
/// and the report is pinned: its `Debug` text hashes to what the session
/// reported when the MILP and the enumerator both served it and reported
/// identically, with the FID family re-pinned once since, when the
/// report's eigen-solve became a rational QL (every other field held).
#[test]
fn a_ladder_session_plans_every_tick_as_the_oracle_does() {
    let system = SystemConfig {
        num_workers: 16,
        ladder: Some(LadderConfig::default()),
        resume_from_latents: true,
        addons: Some(AddonsConfig::demo(7)),
        online_profile_refresh: true,
        ..Default::default()
    };
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 2.0,
        max_qps: 16.0,
        duration: SimDuration::from_secs(300),
    })
    .expect("valid trace");
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    let report = run_trace(ladder3_runtime(), &system, &settings, &trace);
    assert_eq!((report.total_queries, report.completed), (2397, 2308));
    let fnv = format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
    assert_eq!(fnv, 0x2182_6e57_a5bf_e9e1);
}

/// A 3-tier DiffServe session on the simulator, drained: its completions,
/// the snapshot taken once every query has resolved, and its report.
fn drained_ladder_session() -> (Vec<CompletedResponse>, SessionSnapshot, RunReport) {
    let mut session = ServingSession::builder()
        .runtime(ladder3_runtime())
        .config(SystemConfig {
            num_workers: 8,
            ladder: Some(LadderConfig::default()),
            ..Default::default()
        })
        .policy(Policy::DiffServe)
        .peak_demand(5.0)
        .build()
        .expect("valid session");
    let trace = Trace::constant(5.0, SimDuration::from_secs(50)).unwrap();
    let submitted = session.replay_trace(&trace);
    session.run_until(SimTime::from_secs(100));
    let outcomes = session.poll();
    assert_eq!(outcomes.len() as u64, submitted, "every query resolved");
    let done = outcomes
        .into_iter()
        .filter_map(|o| match o {
            QueryOutcome::Completed(r) => Some(r),
            QueryOutcome::Dropped { .. } => None,
        })
        .collect();
    let snapshot = session.snapshot();
    (done, snapshot, session.finish())
}

/// On a ladder, a completion's `confidence` is the boundary score of the
/// tier it completed at — the score table's entry for its prompt on the
/// entry and mid tiers — and `None` on the terminal tier, which no
/// boundary scores.
#[test]
fn ladder_completions_carry_their_tiers_boundary_score() {
    let rt = ladder3_runtime();
    let (done, _, _) = drained_ladder_session();
    let mut per_tier = [0usize; 3];
    for r in &done {
        per_tier[r.tier] += 1;
        let want =
            (r.tier < 2).then(|| rt.scores()[r.tier][(r.id.0 % rt.dataset.len() as u64) as usize]);
        assert_eq!(
            r.confidence.map(f64::to_bits),
            want.map(f64::to_bits),
            "query {} at tier {}",
            r.id.0,
            r.tier
        );
    }
    assert!(
        per_tier.iter().all(|&n| n > 0),
        "every tier completes queries: {per_tier:?}"
    );
}

/// `heavy_fraction`, in the report and in the snapshot, is the share of
/// completions served past the entry tier: the mid and terminal tiers
/// both count.
#[test]
fn heavy_fraction_counts_every_completion_past_the_entry_tier() {
    let (done, snapshot, report) = drained_ladder_session();
    let count = |tier: usize| done.iter().filter(|r| r.tier == tier).count();
    assert!(
        count(1) > 0 && count(2) > 0,
        "mid {} / terminal {}",
        count(1),
        count(2)
    );
    let past_entry = (count(1) + count(2)) as f64 / done.len() as f64;
    assert_eq!(snapshot.completed, done.len() as u64);
    assert_eq!(snapshot.heavy_fraction, past_entry);
    assert_eq!(report.completed, done.len() as u64);
    assert_eq!(report.heavy_fraction, past_entry);
    let deeper: u64 = report.tier_breakdown[1..]
        .iter()
        .map(|t| t.completions)
        .sum();
    assert_eq!(
        report.heavy_fraction,
        deeper as f64 / report.completed as f64
    );
}
