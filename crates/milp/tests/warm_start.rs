//! Warm-start parity property tests.
//!
//! A controller threads one [`WarmStart`] handle through a sequence of
//! related solves whose coefficients drift tick to tick. Whatever the
//! drift does to the previous optimum — still optimal, merely feasible,
//! or infeasible — the warm-started answer must agree with a cold solve
//! of the same problem.

use diffserve_milp::{
    find_feasible, solve_milp, solve_milp_warm, Direction, MilpOptions, Problem, Sense, VarKind,
    WarmStart,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random pure IP with fixed structure and a tick-dependent rhs: the
/// shape a control loop re-solves under a moving demand estimate.
struct DriftingIp {
    n: usize,
    constraints: Vec<(Vec<f64>, f64)>, // (coeffs ≥ 0, base rhs), all ≤
    objective: Vec<f64>,
}

impl DriftingIp {
    fn random(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..5usize);
        let m = rng.gen_range(1..4usize);
        let constraints = (0..m)
            .map(|_| {
                let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(0..=4) as f64).collect();
                (coeffs, rng.gen_range(4..20) as f64)
            })
            .collect();
        let objective = (0..n).map(|_| rng.gen_range(-4..=6) as f64).collect();
        DriftingIp {
            n,
            constraints,
            objective,
        }
    }

    /// The problem at one tick: every rhs shifted by `drift` (never below
    /// 0, so the origin stays feasible and the IP never turns infeasible).
    fn at(&self, drift: f64) -> Problem {
        self.build(drift, false)
    }

    /// Like [`DriftingIp::at`], but with base-7 uniqueness penalties on the
    /// objective: every distinct integer point (coordinates ≤ 6) gets a
    /// distinct penalty, and the total penalty stays below the ≥ 1 gap
    /// between distinct integer-valued main objectives. THE optimum is
    /// therefore unique, which lets warm-vs-cold agreement be asserted
    /// bit-for-bit on the values — the same construction the allocator
    /// MILP uses to guarantee warm starting never changes the plan.
    fn at_unique(&self, drift: f64) -> Problem {
        self.build(drift, true)
    }

    fn build(&self, drift: f64, unique_penalty: bool) -> Problem {
        let mut p = Problem::new(Direction::Maximize);
        let vars: Vec<_> = (0..self.n)
            .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, 6.0))
            .collect();
        for (c, (coeffs, rhs)) in self.constraints.iter().enumerate() {
            let terms: Vec<_> = vars.iter().zip(coeffs).map(|(&v, &a)| (v, a)).collect();
            p.add_constraint(format!("c{c}"), &terms, Sense::Le, (rhs + drift).max(0.0));
        }
        let obj: Vec<_> = vars
            .iter()
            .zip(&self.objective)
            .enumerate()
            .map(|(i, (&v, &c))| {
                let penalty = if unique_penalty {
                    1e-4 * 7f64.powi(i as i32)
                } else {
                    0.0
                };
                (v, c - penalty)
            })
            .collect();
        p.set_objective(&obj);
        p
    }

    fn feasible(&self, drift: f64, x: &[f64]) -> bool {
        self.constraints.iter().all(|(coeffs, rhs)| {
            coeffs.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() <= (rhs + drift).max(0.0) + 1e-9
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Thread one handle through a tighten-then-relax drift path; every
    /// tick's warm answer must match the cold optimum and be feasible.
    #[test]
    fn warm_start_never_changes_the_optimum(seed in 0u64..5000) {
        let ip = DriftingIp::random(seed);
        let mut warm = WarmStart::new();
        // Relax, hold, tighten, tighten hard, relax again: covers hints
        // that stay optimal, stay merely feasible, and turn infeasible.
        for drift in [0.0, 2.0, 2.0, -1.0, -6.0, 3.0] {
            let p = ip.at(drift);
            let cold = solve_milp(&p, &MilpOptions::default()).expect("origin feasible");
            let warmed = solve_milp_warm(&p, &MilpOptions::default(), &mut warm)
                .expect("origin feasible");
            prop_assert!(
                (warmed.objective - cold.objective).abs() < 1e-6,
                "drift {drift}: warm {} vs cold {}\n{p}",
                warmed.objective,
                cold.objective
            );
            prop_assert!(ip.feasible(drift, &warmed.values));
            prop_assert!(warmed.proved_optimal);
        }
    }

    /// Re-solving an unchanged problem through a primed handle returns the
    /// identical solution and never searches more than the cold solve did:
    /// the seeded incumbent prunes every node the cold search pruned, plus
    /// (when the root bound is tight) the whole tree.
    #[test]
    fn primed_resolve_shrinks_the_search(seed in 0u64..5000) {
        let ip = DriftingIp::random(seed);
        let p = ip.at(0.0);
        let mut warm = WarmStart::new();
        let first = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).expect("feasible");
        let second = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).expect("feasible");
        prop_assert_eq!(&second.values, &first.values);
        prop_assert!((second.objective - first.objective).abs() < 1e-9);
        prop_assert!(
            second.nodes <= first.nodes,
            "seeding the optimum must not grow the search: {} vs {}",
            second.nodes,
            first.nodes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Warm solves through one carried handle are bit-identical to cold
    /// solves across a randomized demand ladder, with stale and corrupt
    /// remembered points injected mid-ladder: a point many ticks old, one
    /// of the wrong dimension, one outside the bounds and one that is not
    /// integral. The uniqueness penalties make THE optimum unique, so
    /// `values` and the objective must match exactly, not just within
    /// tolerance.
    #[test]
    fn stale_remembered_points_stay_bit_identical_across_demand_ladders(seed in 0u64..5000) {
        let ip = DriftingIp::random(seed);
        let mut warm = WarmStart::new();
        let mut tick0_point: Option<Vec<f64>> = None;
        for (tick, &drift) in [0.0, 1.0, 1.5, -2.0, 4.0, 0.5, -5.0, 2.5].iter().enumerate() {
            match tick {
                3 => warm.set_previous(tick0_point.clone()),
                4 => warm.set_previous(Some(vec![0.0; ip.n + 1])),
                5 => warm.set_previous(Some(vec![7.0; ip.n])),
                6 => warm.set_previous(Some(vec![0.5; ip.n])),
                _ => {}
            }
            let p = ip.at_unique(drift);
            let cold = solve_milp(&p, &MilpOptions::default()).expect("origin feasible");
            let warmed = solve_milp_warm(&p, &MilpOptions::default(), &mut warm)
                .expect("origin feasible");
            prop_assert_eq!(
                &warmed.values, &cold.values,
                "tick {} (drift {}): warm and cold diverged\n{}", tick, drift, p
            );
            prop_assert_eq!(
                warmed.objective, cold.objective,
                "tick {} (drift {}): objectives diverged", tick, drift
            );
            prop_assert!(warmed.proved_optimal);
            prop_assert_eq!(warm.previous(), Some(&cold.values[..]));
            if tick == 0 {
                tick0_point = warm.previous().map(<[f64]>::to_vec);
            }
        }
    }
}

/// A remembered point that is not an integral feasible point of the
/// current problem is ignored, never an error: the search then runs
/// exactly as a cold one (same answer, same nodes, same effort) and
/// returns the unique optimum of `max x + 2y s.t. x + y ≤ 3`.
#[test]
fn corrupt_remembered_points_fall_back_instead_of_erroring() {
    let mut p = Problem::new(Direction::Maximize);
    let x = p.add_var("x", VarKind::Integer, 0.0, 6.0);
    let y = p.add_var("y", VarKind::Integer, 0.0, 6.0);
    p.add_constraint("cap", &[(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
    p.set_objective(&[(x, 1.0), (y, 2.0)]);
    let cold = solve_milp(&p, &MilpOptions::default()).expect("feasible");
    assert_eq!(cold.values, vec![0.0, 3.0]);

    let corruptions: Vec<Vec<f64>> = vec![
        // Wrong dimension.
        vec![0.0; 3],
        vec![0.0],
        // Not a number, and not finite.
        vec![f64::NAN, 0.0],
        vec![f64::INFINITY, 0.0],
        // Outside the bounds.
        vec![-1.0, 0.0],
        vec![0.0, 7.0],
        // Not integral.
        vec![0.5, 2.0],
        // Breaks the row.
        vec![2.0, 2.0],
    ];
    for (i, point) in corruptions.into_iter().enumerate() {
        let mut warm = WarmStart::new();
        warm.set_previous(Some(point));
        let warmed = solve_milp_warm(&p, &MilpOptions::default(), &mut warm)
            .unwrap_or_else(|e| panic!("corruption {i} must fall back, got {e:?}"));
        assert_eq!(warmed.values, cold.values, "corruption {i}");
        assert_eq!(warmed.nodes, cold.nodes, "corruption {i}");
        assert_eq!(warmed.effort, cold.effort, "corruption {i}");
        assert_eq!(warm.previous(), Some(&cold.values[..]), "corruption {i}");
    }
}

/// [`find_feasible`] treats an unusable remembered point the same way: it
/// pays for exactly the search a fresh handle pays for, and remembers the
/// witness that search finds in place of the corrupt point.
#[test]
fn corrupt_remembered_points_cost_find_feasible_a_cold_search() {
    let options = MilpOptions::default();
    for seed in 0..40 {
        let ip = DriftingIp::random(seed);
        let p = ip.at(-1.0);
        let mut fresh = WarmStart::new();
        let cold = find_feasible(&p, &options, &mut fresh).expect("origin feasible");
        assert!(
            cold.lp_solves > 0,
            "seed {seed}: a fresh handle must search"
        );
        let witness = fresh.previous().expect("a witness").to_vec();
        for point in [vec![0.0; ip.n + 1], vec![7.0; ip.n], vec![0.5; ip.n]] {
            let mut warm = WarmStart::new();
            warm.set_previous(Some(point.clone()));
            let effort = find_feasible(&p, &options, &mut warm).expect("origin feasible");
            assert_eq!(effort, cold, "seed {seed}, hint {point:?}");
            assert_eq!(
                warm.previous(),
                Some(&witness[..]),
                "seed {seed}, hint {point:?}"
            );
        }
    }
}

/// The solver's answers on this file's generator, recorded at the commit
/// before branch & bound children started from their parent's tableau
/// and certified-infeasible children stopped re-solving cold: FNV-1a over
/// the unique optimum (every value's and the objective's bit pattern) of
/// each tick of a drift path, solved cold and through one carried handle,
/// and over every [`find_feasible`] verdict. Neither change may move an
/// answer.
#[test]
fn answers_match_the_recorded_parent_commit() {
    let options = MilpOptions::default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| hash = (hash ^ word).wrapping_mul(0x1000_0000_01b3);
    for seed in 0..300 {
        let ip = DriftingIp::random(seed);
        let mut warm = WarmStart::new();
        let mut probes = WarmStart::new();
        for drift in [0.0, 1.0, 1.5, -2.0, 4.0, 0.5, -5.0, 2.5] {
            let p = ip.at_unique(drift);
            let cold = solve_milp(&p, &options).expect("origin feasible");
            let warmed = solve_milp_warm(&p, &options, &mut warm).expect("origin feasible");
            assert_eq!(warmed.values, cold.values, "seed {seed} drift {drift}");
            for x in cold.values.iter().chain([&cold.objective]) {
                mix(x.to_bits());
            }
            let found = find_feasible(&p, &options, &mut probes).is_ok();
            mix(u64::from(
                found && ip.feasible(drift, probes.previous().expect("a witness")),
            ));
        }
    }
    assert_eq!(hash, 0x6024_02b7_63b0_2665, "{hash:#018x}");
}
