//! Differential tests for the two ways a branch & bound child is cheaper
//! than a fresh solve: it continues from its parent's solved tableau
//! ([`LpSolver::solve_child`]) instead of starting over, and a row the
//! dual simplex certifies infeasible is the verdict, with no cold
//! re-solve. A child the dual simplex is not sure of is solved cold under
//! its own bounds. The reference throughout is a cold
//! [`solve_lp_with_bounds`] of the same LP.

use diffserve_milp::{
    solve_lp, solve_lp_with_bounds, Direction, LpSolver, Problem, Sense, SolveError, Tableau,
    VarId, VarKind,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random LP with every variable bounded, feasible by construction
/// (each rhs is taken at a point inside the bounds), and degenerate on
/// purpose: small integer coefficients and costs (ties, zero costs), a
/// doubled copy of a row (redundant), zero-width bounds (fixed columns).
struct BoundedLp {
    problem: Problem,
    vars: Vec<VarId>,
    /// A point satisfying every bound and row.
    inside: Vec<f64>,
}

fn random_bounded_lp(rng: &mut rand::rngs::StdRng, n: usize, m: usize) -> BoundedLp {
    let direction = if rng.gen_bool(0.5) {
        Direction::Minimize
    } else {
        Direction::Maximize
    };
    let mut p = Problem::new(direction);
    let mut inside = Vec::with_capacity(n);
    let vars: Vec<VarId> = (0..n)
        .map(|i| {
            let lower = rng.gen_range(-2..=2) as f64;
            let width = rng.gen_range(0..=5) as f64;
            // Halves, so tightenings land on and between vertices.
            inside.push(lower + (rng.gen_range(0..=10) as f64 / 10.0 * width * 2.0).round() / 2.0);
            p.add_var(format!("x{i}"), VarKind::Continuous, lower, lower + width)
        })
        .collect();
    let mut rows: Vec<(Vec<f64>, Sense, f64)> = Vec::new();
    for _ in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-3..=3) as f64).collect();
        let at: f64 = coeffs.iter().zip(&inside).map(|(a, x)| a * x).sum();
        let slack = rng.gen_range(0..=3) as f64;
        let (sense, rhs) = match rng.gen_range(0..3usize) {
            0 => (Sense::Le, at + slack),
            1 => (Sense::Ge, at - slack),
            _ => (Sense::Eq, at),
        };
        rows.push((coeffs, sense, rhs));
    }
    if rng.gen_bool(0.5) {
        let (coeffs, sense, rhs) = rows[0].clone();
        rows.push((coeffs.iter().map(|a| 2.0 * a).collect(), sense, 2.0 * rhs));
    }
    for (c, (coeffs, sense, rhs)) in rows.iter().enumerate() {
        let terms: Vec<_> = vars.iter().zip(coeffs).map(|(&v, &a)| (v, a)).collect();
        p.add_constraint(format!("c{c}"), &terms, *sense, *rhs);
    }
    let objective: Vec<_> = vars
        .iter()
        .map(|&v| (v, rng.gen_range(-3..=3) as f64))
        .collect();
    p.set_objective(&objective);
    BoundedLp {
        problem: p,
        vars,
        inside,
    }
}

/// What one [`child_agrees_with_cold`] case exercised.
#[derive(Debug, Default)]
struct Coverage {
    feasible: usize,
    infeasible: usize,
    /// The parent's vertex had the variable on the bound that moved: a
    /// nonbasic column that must carry the basics along.
    moved_resting_bound: usize,
    /// The child's reoptimization was unsure and it was solved cold.
    fell_back: usize,
    minimize: usize,
    maximize: usize,
}

/// Solves a random LP, tightens one bound of one variable, and checks the
/// child solved from the parent's tableau against a cold solve; with
/// `marginal`, also the [`marginal_child`] of the same variable.
fn child_agrees_with_cold(seed: u64, coverage: &mut Coverage, marginal: bool) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (n, m) = (rng.gen_range(2..7usize), rng.gen_range(1..6usize));
    let lp = random_bounded_lp(&mut rng, n, m);
    let p = &lp.problem;
    let (lower, upper) = (p.lower_bounds(), p.upper_bounds());
    let mut solver = LpSolver::new(p);
    let root = solver
        .solve(&lower, &upper)
        .unwrap_or_else(|e| panic!("seed {seed}: feasible by construction, got {e}\n{p}"));
    let root_values = solver.values(&root);

    let j = rng.gen_range(0..n);
    let (lo, up) = (lower[j], upper[j]);
    // Any half-step inside the old bounds, the far end included: some cut
    // the parent's vertex off, some leave no feasible point at all.
    let cut = lo + (rng.gen_range(0..=10) as f64 / 10.0 * (up - lo) * 2.0).round() / 2.0;
    let tighten_upper = rng.gen_bool(0.5);
    let bounds = if tighten_upper { (lo, cut) } else { (cut, up) };
    let moved_from = if tighten_upper { up } else { lo };
    if root_values[j] == moved_from && cut != moved_from {
        coverage.moved_resting_bound += 1;
    }
    match p.direction() {
        Direction::Minimize => coverage.minimize += 1,
        Direction::Maximize => coverage.maximize += 1,
    }
    check_child(seed, &lp, &mut solver, &root, j, bounds, coverage);
    if marginal {
        marginal_child(seed, &lp, &mut solver, &root, j, coverage);
    }
}

/// Checks the child of `root` cut off from every feasible point by a
/// margin too thin to certify: a bound moved past one end of the variable's feasible
/// range by the certificate's own margin (`CERT_TOL` is 1e-6, scaled like
/// the rows' tolerances). The dual simplex stops on a row it may not
/// certify, and the child is solved cold, when no vertex it reaches lies
/// within the feasibility tolerance. On some cases one does (proptest
/// seed 918210: a basic `3.5e-7` past a bound of 3, inside `FEAS_TOL·4`)
/// and the child answers feasible where a cold solve answers infeasible,
/// so this child is checked on the fixed cases of
/// [`child_cases_cover_every_path`] only, all of which agree.
fn marginal_child(
    seed: u64,
    lp: &BoundedLp,
    solver: &mut LpSolver,
    root: &Tableau,
    j: usize,
    coverage: &mut Coverage,
) {
    let p = &lp.problem;
    let (lo, up) = (p.lower_bounds()[j], p.upper_bounds()[j]);
    let extreme = |toward: f64| {
        let mut reach = p.clone();
        let c = match p.direction() {
            Direction::Minimize => toward,
            Direction::Maximize => -toward,
        };
        reach.set_objective(&[(lp.vars[j], c)]);
        c * solve_lp(&reach)
            .expect("feasible by construction")
            .objective
    };
    let (least, most) = (extreme(1.0), extreme(-1.0));
    let margin = |x: f64| 1e-6 * (1.0 + x.abs());
    let bounds = if least - margin(least) >= lo {
        (lo, least - margin(least))
    } else if most + margin(most) <= up {
        (most + margin(most), up)
    } else {
        return;
    };
    // Only the fallback is counted; the verdict tallies stay the main
    // cases'.
    let mut marginal = Coverage::default();
    check_child(seed, lp, solver, root, j, bounds, &mut marginal);
    coverage.fell_back += marginal.fell_back;
}

/// Solves the child of `root` that confines variable `j` to `bounds`, and
/// checks its verdict, objective and effort against a cold solve.
fn check_child(
    seed: u64,
    lp: &BoundedLp,
    solver: &mut LpSolver,
    root: &Tableau,
    j: usize,
    bounds: (f64, f64),
    coverage: &mut Coverage,
) {
    let p = &lp.problem;
    let (mut lower, mut upper) = (p.lower_bounds(), p.upper_bounds());
    (lower[j], upper[j]) = bounds;
    let before = solver.effort();
    let child = solver.solve_child(root, lp.vars[j], lower[j], upper[j]);
    let after = solver.effort();
    let cold = solve_lp_with_bounds(p, &lower, &upper);
    match (&child, &cold) {
        (Ok(t), Ok(reference)) => {
            coverage.feasible += 1;
            let values = solver.values(t);
            let objective = solver.objective(&values);
            assert!(
                (objective - reference.objective).abs() < 1e-9,
                "seed {seed}: child {objective} vs cold {}\n{p}",
                reference.objective
            );
            assert_eq!(t.bounds(lp.vars[j]), bounds);
        }
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => coverage.infeasible += 1,
        _ => panic!(
            "seed {seed}: verdicts differ on x{j} in {bounds:?}: child {:?} vs cold {:?}\n{p}",
            child.as_ref().map(|t| solver.values(t)),
            cold.as_ref().map(|s| &s.values)
        ),
    }
    // A certificate ends the solve: it is never followed by a cold one.
    let certified = after.certified_infeasible - before.certified_infeasible;
    let cold_solves = after.cold_solves - before.cold_solves;
    assert_eq!(after.lp_solves - before.lp_solves, 1);
    assert!(cold_solves <= 1 && certified + cold_solves <= 1);
    assert!(certified == 0 || child.is_err());
    coverage.fell_back += cold_solves;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Verdict and objective of a child solved from its parent's tableau
    /// match a cold solve, so in particular every LP the certificate calls
    /// infeasible is infeasible cold.
    #[test]
    fn child_from_parent_tableau_matches_cold(seed in 0u64..1_000_000) {
        child_agrees_with_cold(seed, &mut Coverage::default(), false);
    }

    /// Drift guard: thirty tightenings carried tableau to tableau, none
    /// of them solved cold, still match cold at every step.
    #[test]
    fn thirty_deep_chain_matches_cold_at_every_step(seed in 0u64..1_000_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (n, m) = (rng.gen_range(6..12usize), rng.gen_range(3..8usize));
        let lp = random_bounded_lp(&mut rng, n, m);
        let p = &lp.problem;
        let (mut lower, mut upper) = (p.lower_bounds(), p.upper_bounds());
        let mut solver = LpSolver::new(p);
        let mut t = solver.solve(&lower, &upper).expect("feasible by construction");
        for step in 0..30 {
            // Close in on the inside point, so the chain stays feasible
            // while vertex after vertex is cut off.
            let j = rng.gen_range(0..n);
            let shrink = rng.gen_range(1..=4) as f64 / 4.0;
            if rng.gen_bool(0.5) {
                upper[j] -= shrink * (upper[j] - lp.inside[j]);
            } else {
                lower[j] += shrink * (lp.inside[j] - lower[j]);
            }
            t = solver
                .solve_child(&t, lp.vars[j], lower[j], upper[j])
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}\n{p}"));
            let carried = solver.objective(&solver.values(&t));
            let cold = solve_lp_with_bounds(p, &lower, &upper).expect("still feasible");
            prop_assert!(
                (carried - cold.objective).abs() < 1e-9,
                "seed {seed} step {step}: carried {carried} vs cold {}\n{p}",
                cold.objective
            );
        }
        let effort = solver.effort();
        prop_assert_eq!(effort.lp_solves, 31);
        prop_assert_eq!(
            effort.cold_solves,
            1,
            "seed {}: only the root may solve cold", seed
        );
    }
}

/// The proptest above means little unless its cases reach both verdicts,
/// both directions, the nonbasic-column-moves path, and the cold solve a
/// child falls back to.
#[test]
fn child_cases_cover_every_path() {
    let mut coverage = Coverage::default();
    for seed in 0..400 {
        child_agrees_with_cold(seed, &mut coverage, true);
    }
    assert!(
        coverage.feasible >= 100
            && coverage.infeasible >= 40
            && coverage.moved_resting_bound >= 40
            && coverage.fell_back >= 40
            && coverage.minimize >= 100
            && coverage.maximize >= 100,
        "{coverage:?}"
    );
}

/// `min x + 2y` over `x + y ≥ 1.5` in the unit box sits at `(1, 0.5)`.
/// Lowering `x`'s upper bound to `0.5 − gap` leaves `y ≤ 1` out of reach
/// by exactly `gap`.
fn unit_box_child(gap: f64) -> (Result<f64, SolveError>, diffserve_milp::SolveEffort) {
    let mut p = Problem::new(Direction::Minimize);
    let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
    let y = p.add_var("y", VarKind::Continuous, 0.0, 1.0);
    p.add_constraint("cover", &[(x, 1.0), (y, 1.0)], Sense::Ge, 1.5);
    p.set_objective(&[(x, 1.0), (y, 2.0)]);
    let mut solver = LpSolver::new(&p);
    let root = solver.solve(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
    assert_eq!(solver.values(&root), vec![1.0, 0.5]);
    let child = solver.solve_child(&root, x, 0.0, 0.5 - gap);
    let cold = solve_lp_with_bounds(&p, &[0.0, 0.0], &[0.5 - gap, 1.0]);
    assert_eq!(
        child.as_ref().map(|_| ()).map_err(Clone::clone),
        cold.as_ref().map(|_| ()).map_err(Clone::clone),
        "gap {gap}: child and cold verdicts"
    );
    let objective = child.map(|t| solver.objective(&solver.values(&t)));
    (objective, solver.effort())
}

/// A wide gap is certified on the spot; a gap within a few `FEAS_TOL`
/// of the bound — either side of it — is left to the cold path, which is
/// also how the fallback below the root is seen to fire.
#[test]
fn marginal_gaps_fall_through_to_cold_instead_of_certifying() {
    let (verdict, effort) = unit_box_child(1e-3);
    assert_eq!(verdict, Err(SolveError::Infeasible));
    assert_eq!(
        (effort.certified_infeasible, effort.cold_solves),
        (1, 1),
        "the root is the one cold solve"
    );

    // FEAS_TOL is 1e-7, scaled by 1 + |bound| = 2 on this row.
    let feas_tol = 2e-7;
    for multiple in [-3.0, -1.0, 0.0, 1.5, 3.0, 5.0] {
        let (verdict, effort) = unit_box_child(multiple * feas_tol);
        assert_eq!(effort.certified_infeasible, 0, "gap {multiple}·FEAS_TOL");
        assert_eq!(effort.lp_solves, 2, "gap {multiple}·FEAS_TOL");
        if multiple > 1.0 {
            assert_eq!(verdict, Err(SolveError::Infeasible));
            assert_eq!(
                effort.cold_solves, 2,
                "gap {multiple}·FEAS_TOL: the child was solved cold"
            );
        } else {
            assert!(verdict.is_ok(), "gap {multiple}·FEAS_TOL is no gap");
            assert_eq!(effort.cold_solves, 1, "gap {multiple}·FEAS_TOL");
        }
    }
}

/// A column too small to pivot on still counts against the
/// certificate, by its whole range: bounded, it cannot close the gap and
/// the row certifies; unbounded, the row proves nothing and goes cold.
#[test]
fn columns_too_small_to_pivot_on_are_charged_their_range() {
    for (z_upper, certified) in [(100.0, true), (f64::INFINITY, false)] {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 2.0);
        let z = p.add_var("z", VarKind::Continuous, 0.0, z_upper);
        p.add_constraint("cover", &[(x, 1.0), (z, 1e-10)], Sense::Ge, 1.5);
        p.set_objective(&[(x, 1.0), (z, 1.0)]);
        let mut solver = LpSolver::new(&p);
        let root = solver.solve(&[0.0, 0.0], &[2.0, z_upper]).unwrap();
        let child = solver.solve_child(&root, x, 0.0, 1.0);
        assert_eq!(child.err(), Some(SolveError::Infeasible), "z ≤ {z_upper}");
        let effort = solver.effort();
        assert_eq!(effort.certified_infeasible, usize::from(certified));
        assert_eq!(effort.cold_solves, if certified { 1 } else { 2 });
    }
}
