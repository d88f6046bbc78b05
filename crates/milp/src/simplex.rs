//! Bounded-variable primal simplex over a dense tableau.
//!
//! Variable bounds are handled natively: a nonbasic variable rests at its
//! lower bound, its upper bound, or (for free variables) at zero, and the
//! ratio tests account for both bounds — including bound-to-bound flips
//! that never touch the basis. Row senses are encoded as bounds on the
//! slack column (`<=` → slack in `[0, ∞)`, `>=` → slack in `(-∞, 0]`,
//! `=` → slack fixed at zero), so the tableau has exactly one row per
//! constraint and no artificial or bound rows. That keeps the DiffServe
//! allocator LP at ~18 rows instead of the ~90 the old
//! substitution-based formulation produced, and it makes the column
//! layout independent of the bound values.
//!
//! Every LP is solved cold, under the bounds it names: a composite phase 1
//! (minimize the total bound violation of the basics with a
//! first-breakpoint ratio test) from the all-slack basis, followed by a
//! primal phase 2. The bound-independent part of the LP is laid out once
//! per `LpSolver`, so a branch & bound search builds it once and solves
//! each node through it. Entering variables use Dantzig's rule with a
//! Bland fallback once the iteration count suggests degenerate cycling.

use crate::problem::{Direction, Problem, Sense, TOL};

/// Tolerance for primal feasibility decisions (bound violations).
const FEAS_TOL: f64 = 1e-7;

/// Why the solver could not return an optimum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// Iteration limit hit (indicates a numerically hostile instance).
    IterationLimit,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolveError::Infeasible => "problem is infeasible",
            SolveError::Unbounded => "problem is unbounded",
            SolveError::IterationLimit => "simplex iteration limit exceeded",
        })
    }
}

impl std::error::Error for SolveError {}

/// Where a column rests in a simplex basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// In the basis; its value lives in the corresponding tableau row.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable resting at zero.
    Free,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value in the problem's original direction.
    pub objective: f64,
    /// Optimal value of each variable, indexed by [`VarId::index`](crate::VarId::index).
    pub values: Vec<f64>,
}

/// Exact counts of the work an LP solver has done — loop counters, always
/// on. A branch & bound search stamps them on its
/// [`MilpSolution`](crate::MilpSolution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveEffort {
    /// LP relaxations solved, whatever their verdict. Each is a cold
    /// two-phase solve.
    pub lp_solves: usize,
    /// Simplex pivots (basis changes; bound flips are not counted).
    pub pivots: usize,
}

/// Solves the LP relaxation of `problem` (integrality ignored).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`] as
/// appropriate, and [`SolveError::IterationLimit`] on pathological inputs.
pub fn solve_lp(problem: &Problem) -> Result<LpSolution, SolveError> {
    LpSolver::new(problem).solve(&problem.lower_bounds(), &problem.upper_bounds())
}

/// One LP in solver form — `A x + s = b`, senses folded into the slack
/// bounds, costs in minimization form — ready to be solved under any
/// number of variable-bound vectors. Everything here is independent of
/// those bounds and built once per problem.
#[derive(Debug)]
pub(crate) struct LpSolver {
    /// Rows (constraints).
    m: usize,
    /// Columns: `ns` structurals then `m` slacks.
    n: usize,
    /// Structural columns (original problem variables).
    ns: usize,
    /// Original coefficient matrix, `m × n` row-major (slack identity
    /// included).
    a0: Vec<f64>,
    /// Right-hand sides, unnormalized (no row flipping, so the layout does
    /// not depend on rhs signs).
    b: Vec<f64>,
    /// Slack bounds, one pair per row: the row's sense.
    slack_bounds: Vec<(f64, f64)>,
    /// Minimization costs (slacks cost zero).
    cost: Vec<f64>,
    /// `+1` for minimize, `-1` for maximize (applied to costs).
    sign: f64,
    effort: SolveEffort,
}

/// One solve's working state: the tableau `B⁻¹A`, the basic values, the
/// column statuses, and the bounds it is solved under.
struct Tableau {
    /// `B⁻¹A`, `m × n` row-major.
    a: Vec<f64>,
    /// Value of the basic variable of each row.
    xb: Vec<f64>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Status of every column.
    status: Vec<ColStatus>,
    /// Per-column lower bounds (structurals then slacks).
    lower: Vec<f64>,
    /// Per-column upper bounds.
    upper: Vec<f64>,
    /// Scratch for [`LpSolver::pivot`]: the pivot row's nonzero entries.
    nonzero: Vec<(usize, f64)>,
}

impl Tableau {
    /// The resting value of nonbasic column `j`.
    fn nb_val(&self, j: usize) -> f64 {
        match self.status[j] {
            ColStatus::AtLower => self.lower[j],
            ColStatus::AtUpper => self.upper[j],
            ColStatus::Free => 0.0,
            ColStatus::Basic => unreachable!("basic column has no resting value"),
        }
    }
}

impl LpSolver {
    /// Lays out `problem`'s LP relaxation. Its own variable bounds are not
    /// read; every solve names the bounds it wants.
    pub(crate) fn new(problem: &Problem) -> LpSolver {
        let ns = problem.num_vars();
        let m = problem.constraints.len();
        let n = ns + m;
        let mut a0 = vec![0.0; m * n];
        let mut b = Vec::with_capacity(m);
        let mut slack_bounds = Vec::with_capacity(m);
        for (i, c) in problem.constraints.iter().enumerate() {
            for &(v, coef) in &c.terms {
                a0[i * n + v.0] += coef;
            }
            a0[i * n + ns + i] = 1.0;
            b.push(c.rhs);
            // Sense as slack bounds: a·x + s = rhs.
            slack_bounds.push(match c.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            });
        }
        let sign = match problem.direction {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n];
        for (c, &obj) in cost.iter_mut().zip(&problem.objective) {
            *c = obj * sign;
        }
        LpSolver {
            m,
            n,
            ns,
            a0,
            b,
            slack_bounds,
            cost,
            sign,
            effort: SolveEffort::default(),
        }
    }

    /// The work done through this solver so far.
    pub(crate) fn effort(&self) -> SolveEffort {
        self.effort
    }

    /// Solves cold under the variable bounds `lower`/`upper`, from the
    /// all-slack starting tableau (`B = I`).
    ///
    /// # Panics
    ///
    /// Panics if the bound vectors do not match the number of variables or
    /// if any pair is inverted.
    pub(crate) fn solve(&mut self, lower: &[f64], upper: &[f64]) -> Result<LpSolution, SolveError> {
        assert_eq!(lower.len(), self.ns, "lower bounds length mismatch");
        assert_eq!(upper.len(), self.ns, "upper bounds length mismatch");
        for (j, (&l, &u)) in lower.iter().zip(upper).enumerate() {
            assert!(l <= u + TOL, "inverted bounds for variable {j}: [{l}, {u}]");
        }
        self.effort.lp_solves += 1;
        // Equal-within-tolerance but numerically inverted pairs clamp.
        let mut lower: Vec<f64> = lower.iter().zip(upper).map(|(l, u)| l.min(*u)).collect();
        let mut upper = upper.to_vec();
        for &(slo, sup) in &self.slack_bounds {
            lower.push(slo);
            upper.push(sup);
        }
        let status = (0..self.n)
            .map(|j| {
                if j >= self.ns {
                    ColStatus::Basic
                } else if lower[j].is_finite() {
                    ColStatus::AtLower
                } else if upper[j].is_finite() {
                    ColStatus::AtUpper
                } else {
                    ColStatus::Free
                }
            })
            .collect();
        let mut t = Tableau {
            a: self.a0.clone(),
            xb: self.b.clone(),
            basis: (self.ns..self.n).collect(),
            status,
            lower,
            upper,
            nonzero: Vec::with_capacity(self.n),
        };
        self.rest_nonbasics(&mut t);
        self.primal_phase1(&mut t)?;
        self.primal_phase2(&mut t)?;
        Ok(self.solution(&t))
    }

    /// Reads the solution out of an optimal tableau: every structural's
    /// value at its vertex, and the objective there in the problem's
    /// original direction.
    fn solution(&self, t: &Tableau) -> LpSolution {
        let mut values: Vec<f64> = (0..self.ns)
            .map(|j| match t.status[j] {
                ColStatus::Basic => 0.0,
                _ => t.nb_val(j),
            })
            .collect();
        for (&bi, &x) in t.basis.iter().zip(&t.xb) {
            if bi < self.ns {
                // Snap to bounds against round-off.
                values[bi] = x.max(t.lower[bi]).min(t.upper[bi]);
            }
        }
        let min_obj: f64 = values.iter().zip(&self.cost).map(|(v, c)| v * c).sum();
        LpSolution {
            objective: min_obj * self.sign,
            values,
        }
    }

    fn max_iters(&self) -> usize {
        50 * (self.m + self.n + 10)
    }

    /// Turns `t.xb` from `B⁻¹b` into the basic values: `x_B = B⁻¹b −
    /// Σ_nonbasic (B⁻¹A)_j · v_j`, every nonbasic column at its resting
    /// value `v_j`.
    fn rest_nonbasics(&self, t: &mut Tableau) {
        for j in 0..self.n {
            if t.status[j] != ColStatus::Basic {
                let v = t.nb_val(j);
                if v != 0.0 {
                    self.shift_basics(t, j, v);
                }
            }
        }
    }

    /// Moves nonbasic column `j` by `delta`: every basic value follows by
    /// `−α_j·delta`.
    fn shift_basics(&self, t: &mut Tableau, j: usize, delta: f64) {
        for (i, x) in t.xb.iter_mut().enumerate() {
            let coef = t.a[i * self.n + j];
            if coef != 0.0 {
                *x -= coef * delta;
            }
        }
    }

    /// Reduced costs `r = c − c_B' B⁻¹A`, written into `r`.
    fn price_into(&self, t: &Tableau, r: &mut [f64]) {
        r.copy_from_slice(&self.cost);
        for i in 0..self.m {
            let cb = self.cost[t.basis[i]];
            if cb != 0.0 {
                let row = &t.a[i * self.n..(i + 1) * self.n];
                for (rj, &aij) in r.iter_mut().zip(row) {
                    *rj -= cb * aij;
                }
            }
        }
    }

    /// Picks the entering column for reduced costs `r`: the most negative
    /// improvement direction (Dantzig) or the first one (Bland). Returns
    /// `(column, direction)` where the direction is the sign of the
    /// entering variable's movement.
    fn pick_entering(&self, t: &Tableau, r: &[f64], bland: bool) -> Option<(usize, f64)> {
        let mut entering: Option<(usize, f64)> = None;
        let mut best = TOL;
        for (j, &rj) in r.iter().enumerate().take(self.n) {
            let (viol, sigma) = match t.status[j] {
                ColStatus::Basic => continue,
                _ if t.lower[j] == t.upper[j] => continue, // fixed
                ColStatus::AtLower => (-rj, 1.0),
                ColStatus::AtUpper => (rj, -1.0),
                ColStatus::Free => (rj.abs(), if rj > 0.0 { -1.0 } else { 1.0 }),
            };
            if viol > best {
                entering = Some((j, sigma));
                if bland {
                    break;
                }
                best = viol;
            }
        }
        entering
    }

    /// Moves entering column `e` by `sigma * step`, then either flips it
    /// to the opposite bound (`leave == None`) or pivots it into row `r`
    /// with the leaving variable parked at lower (`to_upper == false`) or
    /// upper.
    fn apply_step(
        &mut self,
        t: &mut Tableau,
        e: usize,
        sigma: f64,
        step: f64,
        leave: Option<(usize, bool)>,
    ) {
        if step != 0.0 {
            self.shift_basics(t, e, sigma * step);
        }
        match leave {
            None => {
                t.status[e] = match t.status[e] {
                    ColStatus::AtLower => ColStatus::AtUpper,
                    ColStatus::AtUpper => ColStatus::AtLower,
                    other => other,
                };
            }
            Some((r, to_upper)) => {
                let entering_val = t.nb_val(e) + sigma * step;
                let leaving = t.basis[r];
                t.status[leaving] = if to_upper {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
                t.status[e] = ColStatus::Basic;
                self.effort.pivots += 1;
                Self::pivot(t, self.n, r, e);
                t.xb[r] = entering_val;
            }
        }
    }

    /// Pivots the tableau on `(row, col)`. Only the pivot row's nonzero
    /// columns change in the other rows.
    fn pivot(t: &mut Tableau, n: usize, row: usize, col: usize) {
        let p = t.a[row * n + col];
        debug_assert!(p.abs() > 1e-12, "pivot on (near-)zero element");
        let (above, rest) = t.a.split_at_mut(row * n);
        let (pivot_row, below) = rest.split_at_mut(n);
        t.nonzero.clear();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            *v /= p;
            if *v != 0.0 {
                t.nonzero.push((j, *v));
            }
        }
        for other in above.chunks_exact_mut(n).chain(below.chunks_exact_mut(n)) {
            let factor = other[col];
            if factor == 0.0 {
                continue;
            }
            for &(j, pivot_v) in &t.nonzero {
                other[j] -= factor * pivot_v;
            }
            other[col] = 0.0; // exact zero against round-off
        }
        t.basis[row] = col;
    }

    /// Composite phase 1: drive every basic variable inside its bounds by
    /// minimizing the total violation, with a first-breakpoint ratio test
    /// (an infeasible basic leaving through its violated bound is a kink,
    /// not a wall).
    fn primal_phase1(&mut self, t: &mut Tableau) -> Result<(), SolveError> {
        let (m, n) = (self.m, self.n);
        let mut d = vec![0.0; m]; // violation direction per row
        let mut r = vec![0.0; n];
        let bland_after = 10 * (m + n + 10);
        for iter in 0..self.max_iters() {
            let mut infeasible = false;
            for ((di, &bi), &x) in d.iter_mut().zip(&t.basis).zip(&t.xb) {
                *di = if x < t.lower[bi] - FEAS_TOL * (1.0 + t.lower[bi].abs()) {
                    -1.0
                } else if x > t.upper[bi] + FEAS_TOL * (1.0 + t.upper[bi].abs()) {
                    1.0
                } else {
                    0.0
                };
                infeasible |= *di != 0.0;
            }
            if !infeasible {
                return Ok(());
            }
            // Phase-1 reduced costs: the violation decreases at rate
            // |r_j| along an eligible entering direction.
            r.fill(0.0);
            for (i, &di) in d.iter().enumerate() {
                if di != 0.0 {
                    let row = &t.a[i * n..(i + 1) * n];
                    for (rj, &aij) in r.iter_mut().zip(row) {
                        *rj -= di * aij;
                    }
                }
            }
            let Some((e, sigma)) = self.pick_entering(t, &r, iter >= bland_after) else {
                return Err(SolveError::Infeasible);
            };

            // First-breakpoint ratio test.
            let mut step = self.flip_cap(t, e);
            let mut leave: Option<(usize, bool)> = None;
            for (i, &di) in d.iter().enumerate() {
                let alpha = t.a[i * n + e];
                let rate = -sigma * alpha;
                if rate.abs() <= TOL {
                    continue;
                }
                let bi = t.basis[i];
                // Which bound does this basic run into (or, if currently
                // violated, become feasible at)?
                let (limit, to_upper) = if di == -1.0 {
                    if rate <= 0.0 {
                        continue; // moving further below its lower bound
                    }
                    (t.lower[bi], false)
                } else if di == 1.0 {
                    if rate >= 0.0 {
                        continue;
                    }
                    (t.upper[bi], true)
                } else if rate > 0.0 {
                    if !t.upper[bi].is_finite() {
                        continue;
                    }
                    (t.upper[bi], true)
                } else {
                    if !t.lower[bi].is_finite() {
                        continue;
                    }
                    (t.lower[bi], false)
                };
                let tstep = ((limit - t.xb[i]) / rate).max(0.0);
                if self.tighter(t, tstep, i, step, leave) {
                    step = step.min(tstep);
                    leave = Some((i, to_upper));
                }
            }
            if leave.is_none() && !step.is_finite() {
                // The violation would decrease forever — numerically
                // impossible (it is bounded below by zero); bail out.
                return Err(SolveError::IterationLimit);
            }
            self.apply_step(t, e, sigma, step, leave);
        }
        Err(SolveError::IterationLimit)
    }

    /// Primal phase 2 from a primal-feasible tableau.
    fn primal_phase2(&mut self, t: &mut Tableau) -> Result<(), SolveError> {
        let (m, n) = (self.m, self.n);
        let mut r = vec![0.0; n];
        let bland_after = 10 * (m + n + 10);
        for iter in 0..self.max_iters() {
            self.price_into(t, &mut r);
            let Some((e, sigma)) = self.pick_entering(t, &r, iter >= bland_after) else {
                return Ok(());
            };

            let mut step = self.flip_cap(t, e);
            let mut leave: Option<(usize, bool)> = None;
            for i in 0..m {
                let alpha = t.a[i * n + e];
                let rate = -sigma * alpha;
                if rate.abs() <= TOL {
                    continue;
                }
                let bi = t.basis[i];
                let (limit, to_upper) = if rate > 0.0 {
                    if !t.upper[bi].is_finite() {
                        continue;
                    }
                    (t.upper[bi], true)
                } else {
                    if !t.lower[bi].is_finite() {
                        continue;
                    }
                    (t.lower[bi], false)
                };
                let tstep = ((limit - t.xb[i]) / rate).max(0.0);
                if self.tighter(t, tstep, i, step, leave) {
                    step = step.min(tstep);
                    leave = Some((i, to_upper));
                }
            }
            if leave.is_none() && !step.is_finite() {
                return Err(SolveError::Unbounded);
            }
            self.apply_step(t, e, sigma, step, leave);
        }
        Err(SolveError::IterationLimit)
    }

    /// How far the entering column can travel before hitting its own
    /// opposite bound (a bound flip, no pivot needed).
    fn flip_cap(&self, t: &Tableau, e: usize) -> f64 {
        match t.status[e] {
            ColStatus::AtLower | ColStatus::AtUpper => t.upper[e] - t.lower[e],
            _ => f64::INFINITY,
        }
    }

    /// Ratio-test tie-breaking: a row beats the current candidate when
    /// its step is strictly smaller, or ties within tolerance with a
    /// smaller basic column index (the Bland-style tie-break the old
    /// solver used). A row always beats a same-step bound flip.
    fn tighter(
        &self,
        t: &Tableau,
        tstep: f64,
        row: usize,
        best: f64,
        leave: Option<(usize, bool)>,
    ) -> bool {
        match leave {
            None => tstep < best + TOL,
            Some((l, _)) => tstep < best - TOL || (tstep < best + TOL && t.basis[row] < t.basis[l]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Direction, Problem, Sense, VarKind};

    fn cont(p: &mut Problem, name: &str) -> crate::problem::VarId {
        p.add_var(name, VarKind::Continuous, 0.0, f64::INFINITY)
    }

    #[test]
    fn textbook_max() {
        // max 3x + 2y st x+y<=4, x+3y<=6 → (4,0), obj 12.
        let mut p = Problem::new(Direction::Maximize);
        let x = cont(&mut p, "x");
        let y = cont(&mut p, "y");
        p.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        p.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Sense::Le, 6.0);
        p.set_objective(&[(x, 3.0), (y, 2.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 12.0).abs() < 1e-8);
        assert!((s.values[0] - 4.0).abs() < 1e-8);
        assert!(s.values[1].abs() < 1e-8);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y st x + y >= 10, x <= 6 → x=6, y=4, obj 24.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = cont(&mut p, "y");
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.set_objective(&[(x, 2.0), (y, 3.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 24.0).abs() < 1e-8);
        assert!((s.values[0] - 6.0).abs() < 1e-8);
        assert!((s.values[1] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn equality_constraint() {
        // max x + y st x + 2y = 4, x <= 2 → x=2, y=1, obj 3.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 2.0);
        let y = cont(&mut p, "y");
        p.add_constraint("eq", &[(x, 1.0), (y, 2.0)], Sense::Eq, 4.0);
        p.set_objective(&[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_constraint("impossible", &[(x, 1.0)], Sense::Ge, 5.0);
        p.set_objective(&[(x, 1.0)]);
        assert_eq!(solve_lp(&p), Err(SolveError::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Direction::Maximize);
        let x = cont(&mut p, "x");
        p.set_objective(&[(x, 1.0)]);
        assert_eq!(solve_lp(&p), Err(SolveError::Unbounded));
    }

    #[test]
    fn bounded_by_upper_bound_only() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 7.5);
        p.set_objective(&[(x, 2.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 15.0).abs() < 1e-8);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x + y with x >= 3, y >= 2, x + y >= 8 → obj 8.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 3.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 2.0, f64::INFINITY);
        p.add_constraint("c", &[(x, 1.0), (y, 1.0)], Sense::Ge, 8.0);
        p.set_objective(&[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-8);
        assert!(s.values[0] >= 3.0 - 1e-9);
        assert!(s.values[1] >= 2.0 - 1e-9);
    }

    #[test]
    fn free_variable_split() {
        // min |ish|: minimize y st y >= x - 4, y >= 4 - x with x free → any x
        // near 4 gives y = 0.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        let y = cont(&mut p, "y");
        p.add_constraint("a", &[(y, 1.0), (x, -1.0)], Sense::Ge, -4.0);
        p.add_constraint("b", &[(y, 1.0), (x, 1.0)], Sense::Ge, 4.0);
        p.set_objective(&[(y, 1.0)]);
        let s = solve_lp(&p).unwrap();
        assert!(s.objective.abs() < 1e-8);
        assert!((s.values[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x - y <= -2 with x,y in [0,10]; max x → x = 8 when y = 10.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 10.0);
        p.add_constraint("gap", &[(x, 1.0), (y, -1.0)], Sense::Le, -2.0);
        p.set_objective(&[(x, 1.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints intersecting at the optimum.
        let mut p = Problem::new(Direction::Maximize);
        let x = cont(&mut p, "x");
        let y = cont(&mut p, "y");
        p.add_constraint("a", &[(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        p.add_constraint("b", &[(x, 2.0), (y, 2.0)], Sense::Le, 2.0);
        p.add_constraint("c", &[(x, 1.0)], Sense::Le, 1.0);
        p.add_constraint("d", &[(y, 1.0)], Sense::Le, 1.0);
        p.set_objective(&[(x, 1.0), (y, 1.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-8);
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 2.5, 2.5);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 10.0);
        p.add_constraint("c", &[(x, 1.0), (y, 1.0)], Sense::Le, 5.0);
        p.set_objective(&[(y, 1.0)]);
        let s = solve_lp(&p).unwrap();
        assert!((s.values[0] - 2.5).abs() < 1e-9);
        assert!((s.objective - 2.5).abs() < 1e-8);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            format!("{}", SolveError::Infeasible),
            "problem is infeasible"
        );
        assert_eq!(format!("{}", SolveError::Unbounded), "problem is unbounded");
    }

    /// `min x + 2y` over `x + y ≥ 1.5` with `x ≤ 0.5 − gap`, `y ≤ 1`:
    /// every point misses the row by at least `gap`. The cold solve ends
    /// with the miss on the row's slack, whose bound is 0, so `FEAS_TOL`
    /// itself decides: a gap under it is no gap, a wider one is infeasible.
    #[test]
    fn marginal_gaps_are_judged_by_the_feasibility_tolerance() {
        for multiple in [-3.0, -1.0, 0.0, 0.5, 0.9, 1.5, 3.0, 5.0, 1e4] {
            let gap = multiple * FEAS_TOL;
            let mut p = Problem::new(Direction::Minimize);
            let x = p.add_var("x", VarKind::Continuous, 0.0, 0.5 - gap);
            let y = p.add_var("y", VarKind::Continuous, 0.0, 1.0);
            p.add_constraint("cover", &[(x, 1.0), (y, 1.0)], Sense::Ge, 1.5);
            p.set_objective(&[(x, 1.0), (y, 2.0)]);
            let verdict = solve_lp(&p);
            if multiple > 1.0 {
                assert_eq!(
                    verdict,
                    Err(SolveError::Infeasible),
                    "gap {multiple}·FEAS_TOL"
                );
            } else {
                assert!(verdict.is_ok(), "gap {multiple}·FEAS_TOL is no gap");
            }
        }
    }

    fn sample_problem() -> Problem {
        // min 2x + 3y + z st x + y >= 10, y + z = 4, x <= 6, z <= 3 →
        // (6, 4, 0), obj 24.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = cont(&mut p, "y");
        let z = p.add_var("z", VarKind::Continuous, 0.0, 3.0);
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.add_constraint("link", &[(y, 1.0), (z, 1.0)], Sense::Eq, 4.0);
        p.set_objective(&[(x, 2.0), (y, 3.0), (z, 1.0)]);
        p
    }

    /// min 2x + 3y st x + y >= 10, x in [0, 6] → (6, 4), obj 24.
    fn demand_problem() -> Problem {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = cont(&mut p, "y");
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.set_objective(&[(x, 2.0), (y, 3.0)]);
        p
    }

    /// A branch & bound search solves every node through one solver: each
    /// solve starts over from its own bounds, so what an earlier solve left
    /// behind — an optimum, an infeasible verdict — never shows in a later
    /// answer, which is bit for bit a fresh solver's.
    #[test]
    fn one_solver_resolved_under_new_bounds_matches_a_fresh_one() {
        let p = sample_problem();
        let (lower, upper) = (p.lower_bounds(), p.upper_bounds());
        let with = |bounds: &[f64], j: usize, v: f64| {
            let mut b = bounds.to_vec();
            b[j] = v;
            b
        };
        let sequence = [
            (lower.clone(), upper.clone()),
            (lower.clone(), with(&upper, 2, 2.0)),
            // y + z = 4 caps y at 4, so x >= 6: x <= 4 is infeasible.
            (lower.clone(), with(&upper, 0, 4.0)),
            (with(&lower, 0, 6.0), upper.clone()),
            (lower.clone(), upper.clone()),
        ];
        let mut solver = LpSolver::new(&p);
        let mut answers = Vec::new();
        for (lo, up) in &sequence {
            let reused = solver.solve(lo, up);
            let fresh = LpSolver::new(&p).solve(lo, up);
            assert_eq!(reused, fresh, "bounds {lo:?} {up:?}");
            answers.push(reused);
        }
        assert_eq!(answers[2], Err(SolveError::Infeasible));
        assert_eq!(answers[4], answers[0]);
        let first = answers[0].as_ref().unwrap();
        assert!((first.objective - 24.0).abs() < 1e-9);
        assert_eq!(first.values, vec![6.0, 4.0, 0.0]);
    }

    /// The problem's own bounds are only its root's: a solve under tighter
    /// or looser ones answers for those.
    #[test]
    fn solves_read_the_bounds_they_are_given_not_the_problems() {
        let p = demand_problem();
        let mut solver = LpSolver::new(&p);
        let tight = solver.solve(&[0.0, 0.0], &[3.0, f64::INFINITY]).unwrap();
        assert!((tight.objective - 27.0).abs() < 1e-9, "{tight:?}");
        assert_eq!(tight.values, vec![3.0, 7.0]);
        let loose = solver.solve(&[0.0, 0.0], &[20.0, f64::INFINITY]).unwrap();
        assert!((loose.objective - 20.0).abs() < 1e-9, "{loose:?}");
        assert_eq!(loose.values, vec![10.0, 0.0]);
        let own = solver.solve(&p.lower_bounds(), &p.upper_bounds()).unwrap();
        assert_eq!(own, solve_lp(&p).unwrap());
        assert_eq!(own.values, vec![6.0, 4.0]);
    }

    /// Every solve counts, infeasible ones too, and a cold solve's pivots
    /// depend only on its bounds; an LP whose all-slack start is already
    /// optimal takes none.
    #[test]
    fn effort_counts_every_solve_and_its_pivots() {
        let p = sample_problem();
        let (lower, upper) = (p.lower_bounds(), p.upper_bounds());
        let mut solver = LpSolver::new(&p);
        assert_eq!(solver.effort(), SolveEffort::default());
        solver.solve(&lower, &upper).unwrap();
        let once = solver.effort();
        assert_eq!(once.lp_solves, 1);
        assert!(once.pivots > 0, "{once:?}");
        let mut capped = upper.clone();
        capped[0] = 4.0;
        assert_eq!(solver.solve(&lower, &capped), Err(SolveError::Infeasible));
        let after_infeasible = solver.effort();
        assert_eq!(after_infeasible.lp_solves, 2);
        solver.solve(&lower, &upper).unwrap();
        let thrice = solver.effort();
        assert_eq!(thrice.lp_solves, 3);
        assert_eq!(thrice.pivots - after_infeasible.pivots, once.pivots);

        // min x + y st x + y <= 4: the start (0, 0) is optimal.
        let mut q = Problem::new(Direction::Minimize);
        let x = q.add_var("x", VarKind::Continuous, 0.0, 5.0);
        let y = q.add_var("y", VarKind::Continuous, 0.0, 5.0);
        q.add_constraint("cap", &[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        q.set_objective(&[(x, 1.0), (y, 1.0)]);
        let mut solver = LpSolver::new(&q);
        let sol = solver.solve(&[1.0, 0.0], &[5.0, 5.0]).unwrap();
        assert_eq!(sol.values, vec![1.0, 0.0]);
        assert_eq!(
            solver.effort(),
            SolveEffort {
                lp_solves: 1,
                pivots: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "inverted bounds for variable 0")]
    fn inverted_bounds_panic() {
        let p = demand_problem();
        let _ = LpSolver::new(&p).solve(&[4.0, 0.0], &[3.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "upper bounds length mismatch")]
    fn bound_vectors_of_the_wrong_length_panic() {
        let p = demand_problem();
        let _ = LpSolver::new(&p).solve(&[0.0, 0.0], &[6.0]);
    }

    /// A lower bound above its upper one by no more than `TOL` is round-off,
    /// not an inversion: the variable is fixed at its upper bound.
    #[test]
    fn bounds_inverted_within_tolerance_fix_the_variable() {
        let p = demand_problem();
        let sol = LpSolver::new(&p)
            .solve(&[3.0 + 0.5 * TOL, 0.0], &[3.0, f64::INFINITY])
            .unwrap();
        assert_eq!(sol.values[0], 3.0);
        assert!((sol.values[1] - 7.0).abs() < 1e-9, "{sol:?}");
        assert!((sol.objective - 27.0).abs() < 1e-9, "{sol:?}");
    }

    /// The pivot skips the pivot row's zero columns and the rows with a zero
    /// in the pivot column; what it does compute is the dense update's
    /// arithmetic, so the two tableaus are equal entry for entry (`==`, under
    /// which the signs of zeros do not matter).
    #[test]
    fn sparse_pivot_matches_a_dense_pivot() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9170);
        for _ in 0..200 {
            let m = rng.gen_range(1..=6usize);
            let n = rng.gen_range(1..=9usize);
            let a: Vec<f64> = (0..m * n)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        0.0
                    } else {
                        rng.gen_range(-4.0..4.0)
                    }
                })
                .collect();
            let (row, col) = (rng.gen_range(0..m), rng.gen_range(0..n));
            let mut t = Tableau {
                a: a.clone(),
                xb: vec![0.0; m],
                basis: (0..m).collect(),
                status: vec![ColStatus::AtLower; n],
                lower: vec![0.0; n],
                upper: vec![1.0; n],
                nonzero: Vec::new(),
            };
            t.a[row * n + col] =
                rng.gen_range(0.5..4.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let before = t.a.clone();
            LpSolver::pivot(&mut t, n, row, col);

            let p = before[row * n + col];
            let pivot_row: Vec<f64> = before[row * n..(row + 1) * n]
                .iter()
                .map(|v| v / p)
                .collect();
            let mut dense = before.clone();
            for i in 0..m {
                for j in 0..n {
                    dense[i * n + j] = if i == row {
                        pivot_row[j]
                    } else if j == col {
                        0.0
                    } else {
                        before[i * n + j] - before[i * n + col] * pivot_row[j]
                    };
                }
            }
            assert_eq!(t.a, dense, "pivot on ({row}, {col}) of {m}×{n}");
            assert_eq!(t.basis[row], col);
        }
    }
}
