//! Optimality property tests: the branch & bound optimum must dominate any
//! feasible point, and the LP relaxation must bound the MILP optimum.

use diffserve_milp::{
    find_feasible, solve_lp, solve_milp, Direction, MilpOptions, Problem, Sense, VarKind, WarmStart,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Random feasible integer point by rejection sampling, with the
/// coefficients tracked explicitly.
#[derive(Debug)]
struct TrackedIp {
    problem: Problem,
    objective: Vec<f64>,
    constraints: Vec<(Vec<f64>, f64)>, // (coeffs, rhs) all ≤
    n: usize,
}

fn random_tracked_ip(seed: u64) -> TrackedIp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..6usize);
    let m = rng.gen_range(1..4usize);
    let mut p = Problem::new(Direction::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, 6.0))
        .collect();
    let mut constraints = Vec::new();
    for c in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(0..=4) as f64).collect();
        let rhs = rng.gen_range(4..25) as f64;
        let terms: Vec<_> = vars.iter().zip(&coeffs).map(|(&v, &a)| (v, a)).collect();
        p.add_constraint(format!("c{c}"), &terms, Sense::Le, rhs);
        constraints.push((coeffs, rhs));
    }
    let objective: Vec<f64> = (0..n).map(|_| rng.gen_range(-3..=6) as f64).collect();
    let obj: Vec<_> = vars.iter().zip(&objective).map(|(&v, &c)| (v, c)).collect();
    p.set_objective(&obj);
    TrackedIp {
        problem: p,
        objective,
        constraints,
        n,
    }
}

impl TrackedIp {
    fn feasible(&self, x: &[f64]) -> bool {
        self.constraints.iter().all(|(coeffs, rhs)| {
            coeffs.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() <= rhs + 1e-9
        })
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn milp_dominates_random_feasible_points(seed in 0u64..5000, probe_seed in 0u64..5000) {
        let ip = random_tracked_ip(seed);
        let sol = solve_milp(&ip.problem, &MilpOptions::default()).expect("origin feasible");
        // Probe 50 random integer points; none may beat the claimed optimum.
        let mut rng = rand::rngs::StdRng::seed_from_u64(probe_seed);
        for _ in 0..50 {
            let x: Vec<f64> = (0..ip.n).map(|_| rng.gen_range(0..=6) as f64).collect();
            if ip.feasible(&x) {
                prop_assert!(
                    ip.value(&x) <= sol.objective + 1e-6,
                    "feasible point {:?} with value {} beats claimed optimum {}",
                    x, ip.value(&x), sol.objective
                );
            }
        }
        // And the optimum itself must be feasible and match its value.
        prop_assert!(ip.feasible(&sol.values));
        prop_assert!((ip.value(&sol.values) - sol.objective).abs() < 1e-6);
    }

    #[test]
    fn lp_relaxation_bounds_milp(seed in 0u64..5000) {
        let ip = random_tracked_ip(seed);
        let relaxed = solve_lp(&ip.problem).expect("bounded feasible LP");
        let integral = solve_milp(&ip.problem, &MilpOptions::default()).expect("feasible IP");
        // Maximization: LP bound >= MILP optimum.
        prop_assert!(
            relaxed.objective >= integral.objective - 1e-6,
            "LP {} must bound MILP {}",
            relaxed.objective,
            integral.objective
        );
    }
}

#[test]
fn origin_is_always_feasible_in_generated_ips() {
    for seed in 0..20 {
        let ip = random_tracked_ip(seed);
        assert!(ip.feasible(&vec![0.0; ip.n]));
        assert_eq!(ip.value(&vec![0.0; ip.n]), 0.0);
    }
}

/// The solver's answers on this file's generator, recorded at the commit
/// before branch & bound children started from their parent's tableau
/// and certified-infeasible children stopped re-solving cold: FNV-1a over
/// every optimal objective's bit pattern (integer data, so alternate
/// optima hash alike) and every [`find_feasible`] verdict. Neither change
/// may move an answer.
#[test]
fn answers_match_the_recorded_parent_commit() {
    let options = MilpOptions::default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| hash = (hash ^ word).wrapping_mul(0x1000_0000_01b3);
    for seed in 0..400 {
        let ip = random_tracked_ip(seed);
        let sol = solve_milp(&ip.problem, &options).expect("origin feasible");
        assert_eq!(
            sol.effort.cold_solves, 1,
            "seed {seed}: a cold search solves cold once, at its root\n{}",
            ip.problem
        );
        mix(sol.objective.to_bits());
        let mut probe = WarmStart::new();
        let found = find_feasible(&ip.problem, &options, &mut probe).is_ok();
        mix(u64::from(
            found && ip.feasible(probe.previous().expect("a witness")),
        ));
    }
    assert_eq!(hash, 0xaab2_074d_9a7e_5de5, "{hash:#018x}");
}
