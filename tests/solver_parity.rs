//! Property tests: the MILP oracle and the exhaustive grid allocator that
//! serves are interchangeable — same optimal threshold on randomized
//! inputs — the allocator respects its own constraints, the oracle's
//! tick-to-tick state never changes a plan, and a fleet-scale replay,
//! checked against the oracle on every tick, reports what it always has.
//!
//! The fleet-scale replay needs release codegen, so it is `#[ignore]`d;
//! the `verify` profile keeps debug assertions on, so the oracle and plan
//! twins check every tick:
//!
//! ```sh
//! cargo test --profile verify --test solver_parity -- --ignored
//! ```

use diffserve::imagegen::{DeferralProfile, LatencyProfile};
use diffserve::prelude::{
    cascade1, run_trace, synthesize_azure_trace, AzureTraceConfig, CascadeRuntime,
    DiscriminatorConfig, FeatureSpec, Policy, RunSettings, SimDuration, SystemConfig,
};
use diffserve::serving::{
    solve_exhaustive, solve_milp_allocation, solve_milp_allocation_warm, AllocWarmState,
    AllocatorInputs,
};
use proptest::prelude::*;

fn uniform_deferral() -> DeferralProfile {
    DeferralProfile::from_confidences((0..500).map(|i| i as f64 / 500.0).collect()).unwrap()
}

fn thresholds(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.9 * i as f64 / (n - 1) as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn milp_and_exhaustive_agree(
        demand in 1.0f64..40.0,
        workers in 4usize..24,
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..2.0,
        slo in 3.0f64..10.0,
    ) {
        let deferral = uniform_deferral();
        let grid = thresholds(19);
        let batches = [1usize, 2, 4, 8, 16];
        let inputs = AllocatorInputs {
            demand_qps: demand,
            queue_delay_light: q1,
            queue_delay_heavy: q2,
            slo,
            total_workers: workers,
            deferral: &deferral,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: None,
            discriminator_latency: 0.01,
            batch_sizes: &batches,
            thresholds: &grid,
        };
        let ex = solve_exhaustive(&inputs);
        let milp = solve_milp_allocation(&inputs);
        match (ex, milp) {
            (Some(e), Some(m)) => {
                prop_assert!(
                    (e.thresholds[0] - m.thresholds[0]).abs() < 1e-9,
                    "thresholds differ: exhaustive {} vs milp {}",
                    e.thresholds[0], m.thresholds[0]
                );
                prop_assert_eq!(e.batches[0], m.batches[0]);
                prop_assert_eq!(e.batches[1], m.batches[1]);
            }
            (None, None) => {}
            (e, m) => prop_assert!(false, "feasibility disagreement: {:?} vs {:?}", e, m),
        }
    }

    #[test]
    fn allocations_satisfy_their_constraints(
        demand in 1.0f64..30.0,
        workers in 4usize..20,
    ) {
        let deferral = uniform_deferral();
        let grid = thresholds(19);
        let batches = [1usize, 2, 4, 8, 16];
        let inputs = AllocatorInputs {
            demand_qps: demand,
            queue_delay_light: 0.1,
            queue_delay_heavy: 0.3,
            slo: 5.0,
            total_workers: workers,
            deferral: &deferral,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: None,
            discriminator_latency: 0.01,
            batch_sizes: &batches,
            thresholds: &grid,
        };
        if let Some(a) = solve_exhaustive(&inputs) {
            // Eq. 4: capacity.
            prop_assert!(a.workers[0] + a.workers[1] <= workers);
            prop_assert!(a.workers[0] >= 1 && a.workers[1] >= 1);
            // Eq. 2: light throughput covers demand.
            let disc = 0.01;
            let light_lat = inputs.light.exec_latency(a.batches[0]).as_secs_f64()
                + disc * a.batches[0] as f64;
            let t1 = a.batches[0] as f64 / light_lat;
            prop_assert!(a.workers[0] as f64 * t1 >= demand - 1e-9);
            // Eq. 3: heavy throughput covers the deferred fraction.
            let f = deferral.fraction_deferred(a.thresholds[0]);
            let t2 = inputs.heavy.throughput(a.batches[1]);
            prop_assert!(a.workers[1] as f64 * t2 >= demand * f - 1e-9);
            // Eq. 1: latency budget.
            let lat = light_lat
                + inputs.queue_delay_light
                + inputs.heavy.exec_latency(a.batches[1]).as_secs_f64()
                + inputs.queue_delay_heavy;
            prop_assert!(lat <= inputs.slo + 1e-9);
        }
    }

    #[test]
    fn threshold_monotone_in_workers(
        demand in 2.0f64..20.0,
        base_workers in 4usize..12,
    ) {
        let deferral = uniform_deferral();
        let grid = thresholds(19);
        let batches = [1usize, 2, 4, 8, 16];
        let mk = |w: usize| AllocatorInputs {
            demand_qps: demand,
            queue_delay_light: 0.1,
            queue_delay_heavy: 0.3,
            slo: 5.0,
            total_workers: w,
            deferral: &deferral,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: None,
            discriminator_latency: 0.01,
            batch_sizes: &batches,
            thresholds: &grid,
        };
        let small = solve_exhaustive(&mk(base_workers));
        let large = solve_exhaustive(&mk(base_workers * 2));
        if let (Some(s), Some(l)) = (small, large) {
            prop_assert!(
                l.thresholds[0] >= s.thresholds[0] - 1e-9,
                "more workers should never lower the optimal threshold: {} -> {}",
                s.thresholds[0], l.thresholds[0]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One [`AllocWarmState`] carried through a random walk like the churn
    /// scenarios produce — demand and queue delays drifting and jumping,
    /// the fleet dropping to half and back (8 → 4 → 8 in the scenarios),
    /// overloaded and latency-infeasible ticks in between, stage resume on
    /// or off — returns, tick for tick, the exhaustive solver's plan, on
    /// fleets of 4–1000 workers with demand scaled to the fleet. Up to 24
    /// workers it is also the plan of a cold full-MILP solve; above ≈ 91
    /// that oracle's penalties break ties differently. The walk starts
    /// from a cold state, from the grid-floor pin an infeasible tick
    /// leaves, or from a state primed on another grid.
    #[test]
    fn warm_milp_matches_cold_and_exhaustive_under_churn(
        demands in proptest::collection::vec(1u32..1500, 12..13),
        light_queues in proptest::collection::vec(0u32..100, 12..13),
        heavy_queues in proptest::collection::vec(0u32..350, 12..13),
        ticks in 3usize..13,
        resume in 0usize..2,
        start in 0usize..3,
        fleet_scale in 0u32..=100,
    ) {
        let deferral = uniform_deferral();
        let grid = thresholds(19);
        let other_grid = thresholds(7);
        let batches = [1usize, 2, 4, 8, 16];
        // Log-uniform over 4..=1000, so the scenarios' small fleets stay
        // well covered.
        let fleet = (4.0 * 250f64.powf(fleet_scale as f64 / 100.0)).round() as usize;
        let load = (fleet as f64 / 8.0).max(1.0);
        let inputs_at = |tick: usize, workers: usize, grid| AllocatorInputs {
            // 0.1 .. 150 qps per 8 workers: an idle fleet up to a load no
            // batch size serves (≈ 120 qps on 8 workers, ≈ 50 on 4).
            demand_qps: demands[tick] as f64 / 10.0 * load,
            queue_delay_light: light_queues[tick] as f64 / 100.0,
            // Up to 3.5 s: past ≈ 3 s no batch pair fits the 5 s SLO.
            queue_delay_heavy: heavy_queues[tick] as f64 / 100.0,
            slo: 5.0,
            total_workers: workers,
            deferral: &deferral,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: (resume == 1).then(|| LatencyProfile::new(0.89, 0.24)),
            discriminator_latency: 0.01,
            batch_sizes: &batches,
            thresholds: grid,
        };

        let mut state = AllocWarmState::new();
        match start {
            0 => {}
            1 => {
                let hopeless = AllocatorInputs {
                    demand_qps: 1e4 * load,
                    ..inputs_at(0, fleet, &grid)
                };
                prop_assert!(solve_milp_allocation_warm(&hopeless, &mut state).is_none());
                prop_assert_eq!(state.pinned_threshold(), Some(grid[0]));
            }
            _ => {
                let easy = AllocatorInputs {
                    demand_qps: 3.0 * load,
                    queue_delay_light: 0.1,
                    queue_delay_heavy: 0.3,
                    ..inputs_at(0, fleet, &other_grid)
                };
                prop_assert!(solve_milp_allocation_warm(&easy, &mut state).is_some());
            }
        }
        for tick in 0..ticks {
            let workers = if (ticks / 3..2 * ticks / 3).contains(&tick) { fleet / 2 } else { fleet };
            let inputs = inputs_at(tick, workers, &grid);
            let warm = solve_milp_allocation_warm(&inputs, &mut state);
            prop_assert_eq!(
                &warm,
                &solve_exhaustive(&inputs),
                "tick {} on {} workers: warm MILP vs exhaustive", tick, workers
            );
            if workers <= 24 {
                prop_assert_eq!(
                    &warm,
                    &solve_milp_allocation(&inputs),
                    "tick {} on {} workers: warm vs cold full MILP", tick, workers
                );
            }
        }
    }
}

/// FNV-1a over the bytes of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The served allocator at fleet scale: a `fleet_diurnal`-shaped replay —
/// 1000 workers, the Azure diurnal trace at 60–500 qps over 1200 s,
/// ≈ 295 K queries. Built with debug assertions (the `verify` profile),
/// every control tick is re-planned by the MILP oracle and checked against
/// Eq. 1–5, and the report is pinned: its `Debug` text hashes to what the
/// replay reported when the MILP and the enumerator both served it and
/// reported identically, with the FID family re-pinned once since, when the
/// report's eigen-solve became a rational QL (every other field held).
#[test]
#[ignore = "a fleet-scale replay; needs release codegen"]
fn a_fleet_replay_plans_every_tick_as_the_oracle_does() {
    let runtime = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        1500,
        20250509,
        DiscriminatorConfig {
            train_prompts: 500,
            epochs: 10,
            ..Default::default()
        },
    );
    let config = SystemConfig {
        num_workers: 1000,
        ..Default::default()
    };
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 60.0,
        max_qps: 500.0,
        duration: SimDuration::from_secs(1200),
    })
    .expect("valid trace");
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    let report = run_trace(&runtime, &config, &settings, &trace);
    assert_eq!((report.total_queries, report.completed), (294_829, 294_675));
    assert_eq!(fnv(&format!("{report:?}")), 0xaedf_0cdd_97fa_5726);
}
