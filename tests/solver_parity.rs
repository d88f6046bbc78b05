//! Property tests: the MILP allocator and the exhaustive grid allocator are
//! interchangeable — same optimal threshold on randomized inputs — the
//! allocator respects its own constraints, and the MILP allocator's
//! tick-to-tick state never changes a plan.

use diffserve::imagegen::{DeferralProfile, LatencyProfile};
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
                    (e.threshold - m.threshold).abs() < 1e-9,
                    "thresholds differ: exhaustive {} vs milp {}",
                    e.threshold, m.threshold
                );
                prop_assert_eq!(e.light_batch, m.light_batch);
                prop_assert_eq!(e.heavy_batch, m.heavy_batch);
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
            prop_assert!(a.light_workers + a.heavy_workers <= workers);
            prop_assert!(a.light_workers >= 1 && a.heavy_workers >= 1);
            // Eq. 2: light throughput covers demand.
            let disc = 0.01;
            let light_lat = inputs.light.exec_latency(a.light_batch).as_secs_f64()
                + disc * a.light_batch as f64;
            let t1 = a.light_batch as f64 / light_lat;
            prop_assert!(a.light_workers as f64 * t1 >= demand - 1e-9);
            // Eq. 3: heavy throughput covers the deferred fraction.
            let f = deferral.fraction_deferred(a.threshold);
            let t2 = inputs.heavy.throughput(a.heavy_batch);
            prop_assert!(a.heavy_workers as f64 * t2 >= demand * f - 1e-9);
            // Eq. 1: latency budget.
            let lat = light_lat
                + inputs.queue_delay_light
                + inputs.heavy.exec_latency(a.heavy_batch).as_secs_f64()
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
                l.threshold >= s.threshold - 1e-9,
                "more workers should never lower the optimal threshold: {} -> {}",
                s.threshold, l.threshold
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One [`AllocWarmState`] carried through a random walk like the churn
    /// scenarios produce — demand and queue delays drifting and jumping,
    /// the fleet dropping 8 → 4 → 8, overloaded and latency-infeasible
    /// ticks in between, stage resume on or off — returns, tick for tick,
    /// the plan of a cold full-MILP solve, which is the exhaustive
    /// solver's plan. The walk starts from a cold state, from the
    /// grid-floor pin an infeasible tick leaves, or from a state primed on
    /// another grid.
    #[test]
    fn warm_milp_matches_cold_and_exhaustive_under_churn(
        demands in proptest::collection::vec(1u32..1500, 12..13),
        light_queues in proptest::collection::vec(0u32..100, 12..13),
        heavy_queues in proptest::collection::vec(0u32..350, 12..13),
        ticks in 3usize..13,
        resume in 0usize..2,
        start in 0usize..3,
    ) {
        let deferral = uniform_deferral();
        let grid = thresholds(19);
        let other_grid = thresholds(7);
        let batches = [1usize, 2, 4, 8, 16];
        let inputs_at = |tick: usize, workers: usize, grid| AllocatorInputs {
            // 0.1 .. 150 qps: an idle fleet up to a load no batch size
            // serves (≈ 120 qps on 8 workers, ≈ 50 on 4).
            demand_qps: demands[tick] as f64 / 10.0,
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
                let hopeless = AllocatorInputs { demand_qps: 1e4, ..inputs_at(0, 8, &grid) };
                prop_assert!(solve_milp_allocation_warm(&hopeless, &mut state).is_none());
                prop_assert_eq!(state.pinned_threshold(), Some(grid[0]));
            }
            _ => {
                let easy = AllocatorInputs {
                    demand_qps: 3.0,
                    queue_delay_light: 0.1,
                    queue_delay_heavy: 0.3,
                    ..inputs_at(0, 8, &other_grid)
                };
                prop_assert!(solve_milp_allocation_warm(&easy, &mut state).is_some());
            }
        }
        for tick in 0..ticks {
            let workers = if (ticks / 3..2 * ticks / 3).contains(&tick) { 4 } else { 8 };
            let inputs = inputs_at(tick, workers, &grid);
            let cold = solve_milp_allocation(&inputs);
            let warm = solve_milp_allocation_warm(&inputs, &mut state);
            prop_assert_eq!(&warm, &cold, "tick {} on {} workers", tick, workers);
            prop_assert_eq!(
                &cold,
                &solve_exhaustive(&inputs),
                "tick {} on {} workers: MILP vs exhaustive", tick, workers
            );
        }
    }
}
