//! `solve_lp` against brute-force vertex enumeration.
//!
//! A bounded LP (every variable in a finite box) is infeasible exactly when
//! it has no feasible vertex, and otherwise attains its optimum at one. With
//! at most 4 structurals and 4 rows the vertices can be listed outright: fix
//! every variable at its lower bound, its upper bound, or leave it free, and
//! solve the free ones from as many rows taken as equalities. The oracle
//! shares no code with the simplex — no tableau, no pricing, no ratio test —
//! so the two agreeing on the verdict and the optimum checks the solver's
//! answer, not its path.
//!
//! The instances are small on purpose and hostile on purpose: `Le`, `Ge`
//! and `Eq` rows; degenerate ones (duplicate and zero rows, zero costs,
//! fixed columns, rows through a box corner); near-singular ones (a row
//! that is another plus a `1e-6` perturbation); marginal ones (one bound
//! cut `1e-6·(1 + |x|)` past one end of a variable's feasible range); and
//! chains of thirty bound tightenings, the bound vectors a branch & bound
//! dive solves under. A split of one variable's range must leave two
//! children whose better optimum is their parent's. Beale's LP, on which Dantzig pricing with a
//! lowest-index tie-break cycles, must still reach its optimum through the
//! Bland fallback.

use diffserve_milp::{
    solve_lp, solve_milp, Direction, MilpOptions, Problem, Sense, SolveError, VarKind,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// One row as the oracle reads it.
#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<f64>,
    sense: Sense,
    rhs: f64,
}

/// A small bounded LP, kept in both forms: the [`Problem`] the solver reads
/// and the dense data the oracle reads.
#[derive(Debug)]
struct SmallLp {
    problem: Problem,
    direction: Direction,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rows: Vec<Row>,
    cost: Vec<f64>,
    /// The point the rows of a feasible-by-construction shape are taken at
    /// (it satisfies every row and bound); meaningless for [`Shape::Plain`].
    anchor: Vec<f64>,
}

/// Which family of instance a case draws.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Integer data, rows of every sense with free right-hand sides: a fair
    /// share has no feasible point.
    Plain,
    /// Integer data, feasible by construction, with duplicate and zero rows,
    /// zero costs, fixed columns and every row tight at one box corner.
    Degenerate,
    /// Feasible by construction, with one row a `1e-6` perturbation of
    /// another.
    NearSingular,
}

fn small_lp(seed: u64, shape: Shape) -> SmallLp {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=4usize);
    let m = rng.gen_range(1..=4usize);
    let direction = if rng.gen_bool(0.5) {
        Direction::Minimize
    } else {
        Direction::Maximize
    };
    let degenerate = matches!(shape, Shape::Degenerate);
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = rng.gen_range(-3..=2) as f64;
        let width = if degenerate && rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(1..=5) as f64
        };
        lower.push(lo);
        upper.push(lo + width);
    }
    // The point every row of a feasible-by-construction instance is taken
    // at: a box corner when degenerate (so every row is tight there), a
    // point inside the box otherwise.
    let anchor: Vec<f64> = (0..n)
        .map(|j| {
            if degenerate {
                if rng.gen_bool(0.5) {
                    lower[j]
                } else {
                    upper[j]
                }
            } else {
                lower[j] + (upper[j] - lower[j]) * rng.gen_range(0..=4) as f64 / 4.0
            }
        })
        .collect();
    let sense_of =
        |rng: &mut rand::rngs::StdRng| [Sense::Le, Sense::Ge, Sense::Eq][rng.gen_range(0..3usize)];
    let mut rows: Vec<Row> = Vec::with_capacity(m);
    for _ in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-3..=3) as f64).collect();
        let sense = sense_of(&mut rng);
        let rhs = match shape {
            Shape::Plain => rng.gen_range(-6..=6) as f64,
            Shape::Degenerate => coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum(),
            Shape::NearSingular => {
                let at: f64 = coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum();
                let slack = rng.gen_range(0..=2) as f64;
                match sense {
                    Sense::Le => at + slack,
                    Sense::Ge => at - slack,
                    Sense::Eq => at,
                }
            }
        };
        rows.push(Row { coeffs, sense, rhs });
    }
    match shape {
        Shape::Plain => {}
        Shape::Degenerate => {
            // A duplicate of row 0 (same sense, so still tight at the
            // anchor) or a zero row that holds everywhere.
            if rows.len() < 4 {
                if rng.gen_bool(0.5) {
                    rows.push(rows[0].clone());
                } else {
                    rows.push(Row {
                        coeffs: vec![0.0; n],
                        sense: Sense::Le,
                        rhs: 0.0,
                    });
                }
            }
        }
        Shape::NearSingular => {
            if rows.len() < 4 {
                let mut coeffs = rows[0].coeffs.clone();
                let j = rng.gen_range(0..n);
                coeffs[j] += if rng.gen_bool(0.5) { 1e-6 } else { -1e-6 };
                let at: f64 = coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum();
                let sense = sense_of(&mut rng);
                rows.push(Row {
                    coeffs,
                    sense,
                    rhs: at,
                });
            }
        }
    }
    let cost: Vec<f64> = (0..n)
        .map(|_| {
            if degenerate && rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(-4..=4) as f64
            }
        })
        .collect();

    SmallLp::new(direction, lower, upper, rows, cost, anchor)
}

/// Relative tolerance a candidate vertex must meet its half-spaces within.
/// Tight: elimination on these 4 × 4 systems errs by ≈ 1e-10 at worst,
/// while near two almost parallel rows a looser one would admit points far
/// outside the region (`1e-7` lets a `1e-6`-perturbed pair slide by ≈ 0.1).
const ORACLE_FEAS_TOL: f64 = 1e-9;

/// Relative tolerance the solver's rows are held to: its own primal
/// feasibility tolerance, with room for the round-off of reading the point
/// out of a tableau.
const SOLVER_FEAS_TOL: f64 = 1e-6;

/// One row as a half-space `a·x ≤ b` (`upper`) or `a·x ≥ b`.
struct HalfSpace<'a> {
    coeffs: &'a [f64],
    upper: bool,
    rhs: f64,
}

impl SmallLp {
    fn new(
        direction: Direction,
        lower: Vec<f64>,
        upper: Vec<f64>,
        rows: Vec<Row>,
        cost: Vec<f64>,
        anchor: Vec<f64>,
    ) -> SmallLp {
        let mut problem = Problem::new(direction);
        let vars: Vec<_> = (0..lower.len())
            .map(|j| problem.add_var(format!("x{j}"), VarKind::Continuous, lower[j], upper[j]))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            let terms: Vec<_> = vars
                .iter()
                .zip(&row.coeffs)
                .map(|(&v, &a)| (v, a))
                .collect();
            problem.add_constraint(format!("r{i}"), &terms, row.sense, row.rhs);
        }
        let objective: Vec<_> = vars.iter().zip(&cost).map(|(&v, &c)| (v, c)).collect();
        problem.set_objective(&objective);
        SmallLp {
            problem,
            direction,
            lower,
            upper,
            rows,
            cost,
            anchor,
        }
    }

    /// The same LP with variable `j` confined to `[lo, up]`.
    fn with_bounds(&self, j: usize, lo: f64, up: f64) -> SmallLp {
        let (mut lower, mut upper) = (self.lower.clone(), self.upper.clone());
        (lower[j], upper[j]) = (lo, up);
        SmallLp::new(
            self.direction,
            lower,
            upper,
            self.rows.clone(),
            self.cost.clone(),
            self.anchor.clone(),
        )
    }

    /// The rows as half-spaces (an `Eq` row is two), each loosened by
    /// `relax · (1 + |rhs|)`.
    fn half_spaces(&self, relax: f64) -> Vec<HalfSpace<'_>> {
        let mut out = Vec::new();
        for row in &self.rows {
            let slack = relax * (1.0 + row.rhs.abs());
            let (le, ge) = match row.sense {
                Sense::Le => (true, false),
                Sense::Ge => (false, true),
                Sense::Eq => (true, true),
            };
            if le {
                out.push(HalfSpace {
                    coeffs: &row.coeffs,
                    upper: true,
                    rhs: row.rhs + slack,
                });
            }
            if ge {
                out.push(HalfSpace {
                    coeffs: &row.coeffs,
                    upper: false,
                    rhs: row.rhs - slack,
                });
            }
        }
        out
    }

    /// Whether `x` lies in the box and within `rel_tol` of every row
    /// loosened by `relax`.
    fn feasible(&self, x: &[f64], relax: f64, rel_tol: f64) -> bool {
        let tol = |v: f64| rel_tol * (1.0 + v.abs());
        let in_box = x.iter().enumerate().all(|(j, &v)| {
            v.is_finite()
                && v >= self.lower[j] - tol(self.lower[j])
                && v <= self.upper[j] + tol(self.upper[j])
        });
        in_box
            && self.half_spaces(relax).iter().all(|h| {
                let lhs: f64 = h.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
                if h.upper {
                    lhs <= h.rhs + tol(h.rhs)
                } else {
                    lhs >= h.rhs - tol(h.rhs)
                }
            })
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.cost.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Whether objective `a` beats `b` in the problem's direction.
    fn beats(&self, a: f64, b: f64) -> bool {
        match self.direction {
            Direction::Minimize => a < b,
            Direction::Maximize => a > b,
        }
    }

    /// The best objective over every vertex of the LP with its rows
    /// loosened by `relax` (the box stays exact), `None` when there is none
    /// (then that LP is infeasible: a nonempty polyhedron inside a box has
    /// a vertex).
    fn vertex_optimum(&self, relax: f64) -> Option<f64> {
        self.vertices(relax)
            .iter()
            .map(|x| self.objective(x))
            .reduce(|best, obj| if self.beats(obj, best) { obj } else { best })
    }

    /// Every vertex of the LP with its rows loosened by `relax` (the box
    /// stays exact), repeats included.
    fn vertices(&self, relax: f64) -> Vec<Vec<f64>> {
        let n = self.lower.len();
        let rows = self.half_spaces(relax);
        let tight_sets: Vec<_> = (0..=n).map(|k| subsets(rows.len(), k)).collect();
        let mut out = Vec::new();
        // Per variable: 0 at lower, 1 at upper, 2 free. A fixed column is
        // only ever at its lower bound: every vertex has a set of tight
        // constraints that includes it.
        'codes: for code in 0..3usize.pow(n as u32) {
            let mut x = vec![0.0; n];
            let mut free = Vec::new();
            let mut c = code;
            for (j, xj) in x.iter_mut().enumerate() {
                let digit = c % 3;
                c /= 3;
                if digit > 0 && self.lower[j] == self.upper[j] {
                    continue 'codes;
                }
                match digit {
                    0 => *xj = self.lower[j],
                    1 => *xj = self.upper[j],
                    _ => free.push(j),
                }
            }
            let k = free.len();
            for tight in &tight_sets[k] {
                // Solve the free variables from the chosen half-spaces'
                // boundaries.
                let mut a = vec![vec![0.0; k + 1]; k];
                for (r, &i) in tight.iter().enumerate() {
                    let h = &rows[i];
                    let mut rhs = h.rhs;
                    for (j, (a, xj)) in h.coeffs.iter().zip(&x).enumerate() {
                        if !free.contains(&j) {
                            rhs -= a * xj;
                        }
                    }
                    for (col, &j) in free.iter().enumerate() {
                        a[r][col] = h.coeffs[j];
                    }
                    a[r][k] = rhs;
                }
                let Some(sol) = gauss(a) else { continue };
                for (col, &j) in free.iter().enumerate() {
                    x[j] = sol[col];
                }
                if self.feasible(&x, relax, ORACLE_FEAS_TOL) {
                    out.push(x.clone());
                }
            }
        }
        out
    }

    /// The LPs that cut one variable's bound `1e-6·(1 + |x|)` past either
    /// end of its feasible range `[least, most]` over the exact LP's
    /// vertices (an upper bound below `least`, a lower bound above
    /// `most`), wherever its box leaves room, each with the variable's
    /// index: no point is feasible, and none misses by more than a few
    /// solver tolerances.
    fn marginal_cuts(&self) -> Vec<(usize, SmallLp)> {
        let vertices = self.vertices(0.0);
        let margin = |x: f64| 1e-6 * (1.0 + x.abs());
        let mut cuts = Vec::new();
        for j in 0..self.lower.len() {
            let values = || vertices.iter().map(|x| x[j]);
            let (Some(least), Some(most)) = (values().reduce(f64::min), values().reduce(f64::max))
            else {
                return cuts; // No vertex: nothing to cut past.
            };
            let (lo, up) = (self.lower[j], self.upper[j]);
            if least - margin(least) >= lo {
                cuts.push((j, self.with_bounds(j, lo, least - margin(least))));
            }
            if most + margin(most) <= up {
                cuts.push((j, self.with_bounds(j, most + margin(most), up)));
            }
        }
        cuts
    }
}

/// Every `k`-subset of `0..m`, in lexicographic order (none when `k > m`).
fn subsets(m: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut pick = Vec::with_capacity(k);
    fn rec(start: usize, m: usize, k: usize, pick: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if pick.len() == k {
            out.push(pick.clone());
            return;
        }
        for i in start..m {
            pick.push(i);
            rec(i + 1, m, k, pick, out);
            pick.pop();
        }
    }
    rec(0, m, k, &mut pick, &mut out);
    out
}

/// Solves the square system `[A | b]` by Gaussian elimination with partial
/// pivoting; `None` when it is (numerically) singular.
fn gauss(mut a: Vec<Vec<f64>>) -> Option<Vec<f64>> {
    let k = a.len();
    for col in 0..k {
        let pivot = (col..k).max_by(|&r, &s| a[r][col].abs().total_cmp(&a[s][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        let pivot_row = a[col].clone();
        for (r, row) in a.iter_mut().enumerate() {
            let f = row[col] / pivot_row[col];
            if r != col && f != 0.0 {
                for (v, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *v -= f * p;
                }
            }
        }
    }
    Some((0..k).map(|r| a[r][k] / a[r][r]).collect())
}

/// Holds `solve_lp` on one instance to the oracle; returns whether the LP
/// is feasible.
///
/// A solver with a feasibility tolerance answers the LP somewhere between
/// the exact one and the one with its rows loosened by that tolerance, so
/// that is what is checked: it is feasible whenever the exact LP is,
/// infeasible whenever the loosened one is, its point satisfies the
/// loosened rows, and its objective lies between the two optima. On a
/// well-conditioned instance the two optima are ≈ 1e-6 apart, so it is a
/// tight check; two almost parallel rows pull them apart — the region
/// between them may be a thin wedge a tolerance widens a long way — and
/// there it is the check that remains.
fn agrees_with_vertex_enumeration(lp: &SmallLp, case: &str) -> bool {
    let exact = lp.vertex_optimum(0.0);
    let loose = lp.vertex_optimum(SOLVER_FEAS_TOL);
    match solve_lp(&lp.problem) {
        Ok(sol) => {
            let loose =
                loose.unwrap_or_else(|| panic!("{case}: solved an infeasible LP\n{}", lp.problem));
            assert!(
                lp.feasible(&sol.values, SOLVER_FEAS_TOL, ORACLE_FEAS_TOL),
                "{case}: solver point {:?} is not feasible\n{}",
                sol.values,
                lp.problem
            );
            let tol = |v: f64| 1e-6 * (1.0 + v.abs());
            assert!(
                (lp.objective(&sol.values) - sol.objective).abs() <= tol(sol.objective),
                "{case}: reported objective is not its point's\n{}",
                lp.problem
            );
            let exact = exact.unwrap_or(loose);
            let (worst, best) = match lp.direction {
                Direction::Minimize => (exact + tol(exact), loose - tol(loose)),
                Direction::Maximize => (exact - tol(exact), loose + tol(loose)),
            };
            assert!(
                !lp.beats(worst, sol.objective) && !lp.beats(sol.objective, best),
                "{case}: solver {} at {:?}, vertex optima {exact} exact and \
                 {loose} loosened\n{}box {:?} {:?}",
                sol.objective,
                sol.values,
                lp.problem,
                lp.lower,
                lp.upper
            );
            true
        }
        Err(SolveError::Infeasible) => {
            assert!(
                exact.is_none(),
                "{case}: missed the optimum {exact:?}\n{}",
                lp.problem
            );
            false
        }
        Err(e) => panic!("{case}: {e}\n{}", lp.problem),
    }
}

/// Holds `solve_lp` to the oracle on the instance `seed` draws of
/// `shape` and, when that is feasible, on each of its marginal cuts.
/// Returns whether the instance is feasible, and how many cuts were
/// checked and how many of those the solver called feasible.
///
/// Near-singular instances get no cuts: the oracle cannot judge them. Its
/// vertices meet each row within `ORACLE_FEAS_TOL`, and on two almost
/// parallel `Eq` rows that lets a variable the pair pins exactly drift by
/// `1e-3` and more, so a vertex of the cut LP can sit `1e-6` past the
/// exact range (seed 1: the pair forces `x2 = 2.25`, and the oracle
/// accepts `x2 = 2.2500023` with `x0` past its bound `−2.5`). The solver
/// calls that LP infeasible, as exact arithmetic does.
fn check_case(seed: u64, shape: Shape) -> (bool, usize, usize) {
    let lp = small_lp(seed, shape);
    let feasible = agrees_with_vertex_enumeration(&lp, &format!("seed {seed} {shape:?}"));
    let (mut cuts, mut cuts_feasible) = (0, 0);
    if feasible && !matches!(shape, Shape::NearSingular) {
        for (j, cut) in lp.marginal_cuts() {
            let case = format!(
                "seed {seed} {shape:?}, x{j} in {:?}",
                (cut.lower[j], cut.upper[j])
            );
            cuts += 1;
            cuts_feasible += usize::from(agrees_with_vertex_enumeration(&cut, &case));
        }
    }
    (feasible, cuts, cuts_feasible)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every family, every direction, one to four structurals and rows,
    /// and the marginal cuts of every feasible instance.
    #[test]
    fn solve_lp_matches_vertex_enumeration(seed in 0u64..1_000_000, family in 0u8..3) {
        let shape = [Shape::Plain, Shape::Degenerate, Shape::NearSingular][family as usize];
        check_case(seed, shape);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Thirty tightenings in a row, each closing one bound in on the
    /// anchor of a feasible-by-construction instance (so every LP of the
    /// chain stays feasible while vertex after vertex is cut off, and
    /// columns end up fixed), each solved under the whole chain's bounds
    /// so far.
    #[test]
    fn thirty_deep_bound_chains_match_vertex_enumeration(
        seed in 0u64..1_000_000,
        family in 0u8..2,
    ) {
        let shape = [Shape::Degenerate, Shape::NearSingular][family as usize];
        let mut lp = small_lp(seed, shape);
        let mut rng = rand::rngs::StdRng::seed_from_u64(!seed);
        for step in 0..30 {
            let j = rng.gen_range(0..lp.lower.len());
            let shrink = rng.gen_range(1..=4) as f64 / 4.0;
            let (mut lo, mut up) = (lp.lower[j], lp.upper[j]);
            if rng.gen_bool(0.5) {
                up -= shrink * (up - lp.anchor[j]);
            } else {
                lo += shrink * (lp.anchor[j] - lo);
            }
            lp = lp.with_bounds(j, lo, up);
            let case = format!("seed {seed} {shape:?} step {step}");
            prop_assert!(agrees_with_vertex_enumeration(&lp, &case), "{case}: the anchor is inside");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Branching is sound only if the two children of a split cover their
    /// parent: with one variable's range cut at `s` into `[lo, s]` and
    /// `[s, up]`, the parent is infeasible exactly when both children are,
    /// and otherwise its optimum is the better child's. Each child is also
    /// held to the oracle on its own.
    ///
    /// Near-singular instances are left out, as from the marginal cuts in
    /// [`check_case`]: a split can leave a child infeasible by less than
    /// the solver's feasibility tolerance (seed 888083: the `1e-6`-perturbed
    /// pair forces `x1 ≥ 2.5`, the cut `x2 ≥ 2.75` forces `x1 ≤ 2.41667`),
    /// and the oracle judges such a child by a different tolerance.
    #[test]
    fn a_split_variables_optimum_is_its_better_childs(
        seed in 0u64..1_000_000,
        family in 0u8..2,
        cut in 0u8..=4,
    ) {
        let shape = [Shape::Plain, Shape::Degenerate][family as usize];
        let lp = small_lp(seed, shape);
        let j = (seed % lp.lower.len() as u64) as usize;
        let (lo, up) = (lp.lower[j], lp.upper[j]);
        let s = lo + (up - lo) * f64::from(cut) / 4.0;
        let down = lp.with_bounds(j, lo, s);
        let up_child = lp.with_bounds(j, s, up);
        let case = format!("seed {seed} {shape:?}, x{j} split at {s}");
        agrees_with_vertex_enumeration(&down, &format!("{case}, down"));
        agrees_with_vertex_enumeration(&up_child, &format!("{case}, up"));
        let children: Vec<f64> = [&down, &up_child]
            .into_iter()
            .filter_map(|c| solve_lp(&c.problem).ok().map(|sol| sol.objective))
            .collect();
        match solve_lp(&lp.problem) {
            Ok(parent) => {
                let best = children
                    .iter()
                    .copied()
                    .reduce(|a, b| if lp.beats(a, b) { a } else { b });
                let best = best.unwrap_or_else(|| panic!("{case}: both children infeasible"));
                prop_assert!(
                    (parent.objective - best).abs() <= 1e-6 * (1.0 + best.abs()),
                    "{case}: parent {} but best child {best}",
                    parent.objective
                );
            }
            Err(SolveError::Infeasible) => {
                prop_assert!(children.is_empty(), "{case}: a child of an infeasible LP solved");
            }
            Err(e) => panic!("{case}: {e}"),
        }
    }
}

/// The properties above check little unless their cases reach both
/// verdicts: a fixed sweep of plain instances must contain feasible and
/// infeasible ones in fair numbers, every degenerate and near-singular
/// instance is feasible by construction, and the feasible ones must yield
/// marginal cuts in numbers.
#[test]
fn the_oracle_cases_reach_both_verdicts() {
    let (mut feasible, mut infeasible) = (0, 0);
    let (mut cuts, mut cuts_feasible) = (0, 0);
    for seed in 0..300 {
        for shape in [Shape::Plain, Shape::Degenerate, Shape::NearSingular] {
            let (ok, c, f) = check_case(seed, shape);
            match (shape, ok) {
                (Shape::Plain, true) => feasible += 1,
                (Shape::Plain, false) => infeasible += 1,
                (_, ok) => assert!(ok, "seed {seed} {shape:?} is feasible by construction"),
            }
            cuts += c;
            cuts_feasible += f;
        }
    }
    assert!(
        feasible >= 60 && infeasible >= 60 && cuts >= 300,
        "{feasible} feasible, {infeasible} infeasible, {cuts} marginal cuts \
         ({cuts_feasible} called feasible)"
    );
}

/// Beale's LP (1955), on which Dantzig's rule with a lowest-index
/// tie-break in the ratio test cycles: from the all-slack basis both
/// entering candidates meet degenerate rows, and the tableau returns to
/// where it started after six pivots. The solver must still terminate — its
/// Bland fallback takes over after `10·(m + n + 10)` iterations — at the
/// known optimum `−5/4`, `x = (1, 0, 1, 0)`.
#[test]
fn beales_cycling_lp_terminates_at_its_optimum() {
    let mut p = Problem::new(Direction::Minimize);
    let x: Vec<_> = (4..=7)
        .map(|i| p.add_var(format!("x{i}"), VarKind::Continuous, 0.0, f64::INFINITY))
        .collect();
    p.add_constraint(
        "r1",
        &[(x[0], 0.25), (x[1], -8.0), (x[2], -1.0), (x[3], 9.0)],
        Sense::Le,
        0.0,
    );
    p.add_constraint(
        "r2",
        &[(x[0], 0.5), (x[1], -12.0), (x[2], -0.5), (x[3], 3.0)],
        Sense::Le,
        0.0,
    );
    p.add_constraint("r3", &[(x[2], 1.0)], Sense::Le, 1.0);
    p.set_objective(&[(x[0], -0.75), (x[1], 20.0), (x[2], -0.5), (x[3], 6.0)]);

    let sol = solve_lp(&p).expect("Beale's LP has an optimum");
    assert!((sol.objective + 1.25).abs() < 1e-9, "{}", sol.objective);
    for (got, want) in sol.values.iter().zip([1.0, 0.0, 1.0, 0.0]) {
        assert!((got - want).abs() < 1e-9, "{:?}", sol.values);
    }

    // The same solve, counted (with no integer variable, the search is
    // its root LP): Dantzig's rule cycles until the fallback.
    let root = solve_milp(&p, &MilpOptions::default()).expect("Beale's LP has an optimum");
    let (m, n) = (3, 4 + 3);
    assert_eq!(root.effort.lp_solves, 1);
    assert!(
        root.effort.pivots >= 10 * (m + n + 10),
        "the solve never cycled into the Bland fallback: {:?}",
        root.effort
    );
}
