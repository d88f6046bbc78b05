//! Bounded-variable primal/dual simplex over a dense tableau.
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
//! layout independent of the bound values, so a tableau solved under one
//! bound vector is a valid start under another.
//!
//! An LP solved from its bounds ([`LpSolver::solve`]) is solved cold: a
//! composite phase 1 (minimize the total bound violation of the basics
//! with a first-breakpoint ratio test) followed by a primal phase 2. The
//! one warm path is a branch & bound child ([`LpSolver::solve_child`]): it
//! differs from its parent by one bound, so it copies the parent's solved
//! [`Tableau`], applies the bound change to it, and reoptimizes with a
//! bounded dual simplex. The bound-independent part of the LP is built
//! once per [`LpSolver`].
//!
//! A child's reoptimization returns one of three answers. An optimum is
//! re-checked for primal and dual feasibility before it is handed back.
//! When the dual simplex stops on a violated row that no column can
//! repair, the row is checked as an infeasibility certificate — every
//! nonbasic column moved to whichever bound helps the row most, the
//! columns too small to pivot on charged their full range — and a
//! certified row *is* the verdict. Anything else (a marginal or doubtful
//! certificate, an iteration limit, a failed re-check) falls back to a
//! cold two-phase solve under the child's bounds, so correctness never
//! depends on the fast path. Entering variables use Dantzig's rule with a
//! Bland fallback once the iteration count suggests degenerate cycling.

use crate::problem::{Direction, Problem, Sense, VarId};

/// Numerical tolerance used throughout the solver.
const TOL: f64 = 1e-9;

/// Tolerance for primal feasibility decisions (bound violations).
const FEAS_TOL: f64 = 1e-7;

/// Tolerance for dual feasibility decisions on a child's inherited
/// tableau.
const DUAL_TOL: f64 = 1e-7;

/// Margin by which a row must miss its bound, best case, before the dual
/// simplex may call the LP infeasible on its own. Ten times [`FEAS_TOL`]:
/// a gap within a few `FEAS_TOL` is where the cold path's round-off could
/// land on the other side, so those go cold.
const CERT_TOL: f64 = 1e-6;

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
    /// Optimal value of each variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
}

/// Exact counts of the work one [`LpSolver`] has done — loop counters,
/// always on. A branch & bound search stamps them on its
/// [`MilpSolution`](crate::MilpSolution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveEffort {
    /// LP relaxations solved ([`LpSolver::solve`] and
    /// [`LpSolver::solve_child`] calls), whatever their verdict.
    pub lp_solves: usize,
    /// Simplex pivots (basis changes; bound flips are not counted).
    pub pivots: usize,
    /// Cold two-phase solves: every [`LpSolver::solve`], and every child
    /// whose reoptimization fell back.
    pub cold_solves: usize,
    /// Children the dual simplex ended with a certified-infeasible row
    /// (no cold re-solve).
    pub certified_infeasible: usize,
}

/// Solves the LP relaxation of `problem` (integrality ignored).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`] as
/// appropriate, and [`SolveError::IterationLimit`] on pathological inputs.
pub fn solve_lp(problem: &Problem) -> Result<LpSolution, SolveError> {
    solve_lp_with_bounds(problem, &problem.lower_bounds(), &problem.upper_bounds())
}

/// Solves the LP relaxation with overridden variable bounds: a cold
/// [`LpSolver::solve`] on a solver built for the one call.
///
/// # Errors
///
/// See [`solve_lp`].
///
/// # Panics
///
/// Panics if the bound vectors do not match the number of variables or if
/// any pair is inverted.
pub fn solve_lp_with_bounds(
    problem: &Problem,
    lower: &[f64],
    upper: &[f64],
) -> Result<LpSolution, SolveError> {
    let mut solver = LpSolver::new(problem);
    let t = solver.solve(lower, upper)?;
    Ok(solver.solution(&t))
}

/// One LP in solver form — `A x + s = b`, senses folded into the slack
/// bounds, costs in minimization form — ready to be solved under any
/// number of variable-bound vectors. Everything here is independent of
/// those bounds and built once per problem; the bounds travel with each
/// [`Tableau`].
#[derive(Debug, Clone)]
pub struct LpSolver {
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

/// A solved LP relaxation: the tableau `B⁻¹A` at the optimum, the basic
/// values, the column statuses, and the bounds it was solved under.
/// [`LpSolver::solve_child`] continues from it.
#[derive(Debug, Clone)]
pub struct Tableau {
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
}

impl Tableau {
    /// The `[lower, upper]` bounds `var` was solved under.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lower[var.0], self.upper[var.0])
    }

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

/// Why a child's reoptimization stopped short of an optimum.
enum Stop {
    /// A violated row that no column movement can repair: the LP is
    /// infeasible, with [`CERT_TOL`] to spare.
    Infeasible,
    /// Anything else; the child is solved cold.
    Unsure,
}

impl LpSolver {
    /// Lays out `problem`'s LP relaxation. Its own variable bounds are not
    /// read; every solve names the bounds it wants.
    pub fn new(problem: &Problem) -> LpSolver {
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
    pub fn effort(&self) -> SolveEffort {
        self.effort
    }

    /// Solves cold under the variable bounds `lower`/`upper`.
    ///
    /// # Errors
    ///
    /// See [`solve_lp`].
    ///
    /// # Panics
    ///
    /// Panics if the bound vectors do not match the number of variables or
    /// if any pair is inverted.
    pub fn solve(&mut self, lower: &[f64], upper: &[f64]) -> Result<Tableau, SolveError> {
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
        self.solve_cold(lower, upper)
    }

    /// Solves `parent`'s LP with `var`'s bounds replaced by `[lower,
    /// upper]` — a branch & bound child. The child starts from a copy of
    /// the parent's tableau: a bound change leaves it dual feasible (a
    /// basic `var` keeps every basic value where it is; a nonbasic one
    /// resting on the moved bound shifts them by `−α·Δ`), so the dual
    /// simplex needs a handful of pivots. If that ends unsure, the child
    /// is solved cold under its own bounds.
    ///
    /// Meant for tightening; any other change is still answered
    /// correctly, because a tableau that lost dual feasibility is either
    /// finished by the primal simplex or handed to the fallback.
    ///
    /// # Errors
    ///
    /// See [`solve_lp`].
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or `parent` is not a tableau of this
    /// solver's shape.
    pub fn solve_child(
        &mut self,
        parent: &Tableau,
        var: VarId,
        lower: f64,
        upper: f64,
    ) -> Result<Tableau, SolveError> {
        assert!(lower <= upper, "inverted bounds [{lower}, {upper}]");
        assert_eq!(parent.a.len(), self.m * self.n, "tableau shape mismatch");
        self.effort.lp_solves += 1;
        let mut t = parent.clone();
        self.rebound(&mut t, var.0, lower, upper);
        match self.reoptimize(&mut t) {
            Ok(()) => Ok(t),
            Err(Stop::Infeasible) => Err(SolveError::Infeasible),
            Err(Stop::Unsure) => self.solve_cold(t.lower, t.upper),
        }
    }

    /// Reads the solution out of an optimal tableau.
    pub fn solution(&self, t: &Tableau) -> LpSolution {
        let values = self.values(t);
        LpSolution {
            objective: self.objective(&values),
            values,
        }
    }

    /// The value of every structural variable at `t`'s vertex.
    pub fn values(&self, t: &Tableau) -> Vec<f64> {
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
        values
    }

    /// The objective at `values`, in the problem's original direction.
    pub fn objective(&self, values: &[f64]) -> f64 {
        let min_obj: f64 = values.iter().zip(&self.cost).map(|(v, c)| v * c).sum();
        min_obj * self.sign
    }

    fn max_iters(&self) -> usize {
        50 * (self.m + self.n + 10)
    }

    /// The cold two-phase solve under the full-length column bounds
    /// `lower`/`upper`, from the all-slack starting tableau (`B = I`).
    fn solve_cold(&mut self, lower: Vec<f64>, upper: Vec<f64>) -> Result<Tableau, SolveError> {
        self.effort.cold_solves += 1;
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
        };
        self.rest_nonbasics(&mut t);
        self.primal_phase1(&mut t)?;
        self.primal_phase2(&mut t)?;
        Ok(t)
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

    /// Replaces column `j`'s bounds in a solved tableau. A basic column
    /// only gets new bounds to be checked against; a nonbasic one stays on
    /// the side it rests on (while that side is finite) and carries the
    /// basics along if its resting value moved.
    fn rebound(&self, t: &mut Tableau, j: usize, lower: f64, upper: f64) {
        let rested = (t.status[j] != ColStatus::Basic).then(|| t.nb_val(j));
        t.lower[j] = lower;
        t.upper[j] = upper;
        let Some(rested) = rested else { return };
        t.status[j] = match t.status[j] {
            ColStatus::AtLower if lower.is_finite() => ColStatus::AtLower,
            ColStatus::AtUpper if upper.is_finite() => ColStatus::AtUpper,
            _ if lower.is_finite() => ColStatus::AtLower,
            _ if upper.is_finite() => ColStatus::AtUpper,
            _ => ColStatus::Free,
        };
        let delta = t.nb_val(j) - rested;
        if delta != 0.0 {
            self.shift_basics(t, j, delta);
        }
    }

    /// Drives a tableau with a valid basis to the optimum of its bounds:
    /// dual simplex when it starts dual feasible, primal simplex when it
    /// starts primal feasible, and a final check that what comes out is an
    /// optimum.
    fn reoptimize(&mut self, t: &mut Tableau) -> Result<(), Stop> {
        if self.is_dual_feasible(t) {
            self.dual_simplex(t)?;
        } else if !self.is_primal_feasible(t) {
            // Neither dual nor primal feasible: the basis buys nothing.
            return Err(Stop::Unsure);
        }
        self.primal_phase2(t).map_err(|_| Stop::Unsure)?;
        // Paranoia: never hand back a tableau that is not an optimum.
        if self.is_primal_feasible(t) && self.is_dual_feasible(t) {
            Ok(())
        } else {
            Err(Stop::Unsure)
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

    fn is_primal_feasible(&self, t: &Tableau) -> bool {
        t.xb.iter().zip(&t.basis).all(|(&x, &b)| {
            x >= t.lower[b] - FEAS_TOL * (1.0 + t.lower[b].abs())
                && x <= t.upper[b] + FEAS_TOL * (1.0 + t.upper[b].abs())
        })
    }

    fn is_dual_feasible(&self, t: &Tableau) -> bool {
        let mut r = vec![0.0; self.n];
        self.price_into(t, &mut r);
        (0..self.n).all(|j| match t.status[j] {
            ColStatus::Basic => true,
            // Fixed columns can never enter, so their sign is irrelevant.
            _ if t.lower[j] == t.upper[j] => true,
            ColStatus::AtLower => r[j] >= -DUAL_TOL,
            ColStatus::AtUpper => r[j] <= DUAL_TOL,
            ColStatus::Free => r[j].abs() <= DUAL_TOL,
        })
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

    /// Pivots the tableau on `(row, col)`.
    fn pivot(t: &mut Tableau, n: usize, row: usize, col: usize) {
        let p = t.a[row * n + col];
        debug_assert!(p.abs() > 1e-12, "pivot on (near-)zero element");
        for v in &mut t.a[row * n..row * n + n] {
            *v /= p;
        }
        let m = t.xb.len();
        for i in 0..m {
            if i == row {
                continue;
            }
            let factor = t.a[i * n + col];
            if factor == 0.0 {
                continue;
            }
            for j in 0..n {
                let pivot_v = t.a[row * n + j];
                t.a[i * n + j] -= factor * pivot_v;
            }
            t.a[i * n + col] = 0.0; // exact zero against round-off
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

    /// Bounded dual simplex: starting dual feasible, repair primal
    /// feasibility row by row while keeping the reduced costs signed.
    fn dual_simplex(&mut self, t: &mut Tableau) -> Result<(), Stop> {
        let (m, n) = (self.m, self.n);
        let mut r = vec![0.0; n];
        for _ in 0..self.max_iters() {
            // Leaving row: the most violated basic.
            let mut leave: Option<(usize, bool)> = None; // (row, below lower)
            let mut worst: f64 = 0.0;
            for i in 0..m {
                let bi = t.basis[i];
                let below = (t.lower[bi] - t.xb[i]) / (1.0 + t.lower[bi].abs());
                let above = (t.xb[i] - t.upper[bi]) / (1.0 + t.upper[bi].abs());
                if below > worst.max(FEAS_TOL) {
                    worst = below;
                    leave = Some((i, true));
                }
                if above > worst.max(FEAS_TOL) {
                    worst = above;
                    leave = Some((i, false));
                }
            }
            let Some((row, below)) = leave else {
                return Ok(()); // primal feasible
            };

            self.price_into(t, &mut r);
            // Entering column: the dual ratio test — smallest |r_j / α_j|
            // over columns whose movement pushes the leaving basic toward
            // its violated bound — keeps every reduced cost signed.
            let mut best: Option<(usize, f64)> = None;
            for (j, &rj) in r.iter().enumerate().take(n) {
                if t.status[j] == ColStatus::Basic || t.lower[j] == t.upper[j] {
                    continue;
                }
                let alpha = t.a[row * n + j];
                if alpha.abs() <= TOL {
                    continue;
                }
                let eligible = match t.status[j] {
                    ColStatus::AtLower => {
                        if below {
                            alpha < 0.0
                        } else {
                            alpha > 0.0
                        }
                    }
                    ColStatus::AtUpper => {
                        if below {
                            alpha > 0.0
                        } else {
                            alpha < 0.0
                        }
                    }
                    ColStatus::Free => true,
                    ColStatus::Basic => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let ratio = (rj / alpha).abs();
                let better = match best {
                    None => true,
                    Some((bj, br)) => ratio < br - TOL || (ratio < br + TOL && j < bj),
                };
                if better {
                    best = Some((j, ratio));
                }
            }
            // No eligible column: this row may prove the LP infeasible.
            let Some((e, _)) = best else {
                return Err(if self.certifies_infeasibility(t, row, below) {
                    self.effort.certified_infeasible += 1;
                    Stop::Infeasible
                } else {
                    Stop::Unsure
                });
            };

            let alpha = t.a[row * n + e];
            let sigma = if below {
                -alpha.signum()
            } else {
                alpha.signum()
            };
            let bi = t.basis[row];
            let target = if below { t.lower[bi] } else { t.upper[bi] };
            let rate = -sigma * alpha;
            let step = ((target - t.xb[row]) / rate).max(0.0);
            self.apply_step(t, e, sigma, step, Some((row, !below)));
        }
        Err(Stop::Unsure)
    }

    /// Whether `row`, whose basic sits `below` its lower (or above its
    /// upper) bound, proves the LP infeasible. The row reads `x_B = x̄_B −
    /// Σ_j α_j·(x_j − x̄_j)` over the nonbasic columns, so the furthest the
    /// basic can travel toward its bound is the sum, over those columns,
    /// of the best each can do inside its own bounds — computed here
    /// column by column rather than inferred from "the ratio test found
    /// nothing". A column the ratio test skipped for `|α| ≤ TOL` is
    /// charged `|α|` times all the [`travel`](Self::travel) it has,
    /// whichever way it would have to move; unbounded travel that helps at
    /// all leaves the row uncertified. Certified means the bound is still
    /// out of reach by [`CERT_TOL`].
    fn certifies_infeasibility(&self, t: &Tableau, row: usize, below: bool) -> bool {
        let bi = t.basis[row];
        let (gap, bound) = if below {
            (t.lower[bi] - t.xb[row], t.lower[bi])
        } else {
            (t.xb[row] - t.upper[bi], t.upper[bi])
        };
        let mut reach = 0.0;
        for j in 0..self.n {
            let alpha = t.a[row * self.n + j];
            if t.status[j] == ColStatus::Basic || alpha == 0.0 || t.lower[j] == t.upper[j] {
                continue;
            }
            // Rate at which the basic nears its bound as x_j rises.
            let toward = if below { -alpha } else { alpha };
            let helps = alpha.abs() <= TOL
                || match t.status[j] {
                    ColStatus::AtLower => toward > 0.0,
                    ColStatus::AtUpper => toward < 0.0,
                    _ => true,
                };
            if helps {
                reach += alpha.abs() * self.travel(t, j);
            }
        }
        gap - reach > CERT_TOL * (1.0 + bound.abs())
    }

    /// How far nonbasic column `j` can sit from its resting value in any
    /// feasible point. For most columns that is the width of their bounds.
    /// A slack with an open side (`≤` and `≥` rows) is still confined by
    /// its row, `s = b − a·x` over the box the structurals live in — which
    /// is what keeps pivoting round-off of `1e-17` in such a column from
    /// voiding every certificate.
    fn travel(&self, t: &Tableau, j: usize) -> f64 {
        let width = t.upper[j] - t.lower[j];
        if width.is_finite() || j < self.ns {
            return width;
        }
        let i = j - self.ns;
        let (mut least, mut most) = (self.b[i], self.b[i]);
        for (k, &a) in self.a0[i * self.n..i * self.n + self.ns].iter().enumerate() {
            if a != 0.0 {
                let (p, q) = (a * t.lower[k], a * t.upper[k]);
                least -= p.max(q);
                most -= p.min(q);
            }
        }
        let rest = t.nb_val(j);
        (most - rest).abs().max((least - rest).abs())
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

    fn sample_problem() -> Problem {
        // min 2x + 3y + z st x + y >= 10, y + z = 4, x <= 6, z <= 3.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = cont(&mut p, "y");
        let z = p.add_var("z", VarKind::Continuous, 0.0, 3.0);
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.add_constraint("link", &[(y, 1.0), (z, 1.0)], Sense::Eq, 4.0);
        p.set_objective(&[(x, 2.0), (y, 3.0), (z, 1.0)]);
        p
    }

    /// A child whose bounds equal its parent's starts at an optimum: the
    /// copied tableau is handed back with no pivot and no cold solve.
    #[test]
    fn warm_restart_from_own_basis_reproduces_the_optimum() {
        let p = sample_problem();
        let mut solver = LpSolver::new(&p);
        let parent = solver.solve(&p.lower_bounds(), &p.upper_bounds()).unwrap();
        let before = solver.effort();
        let child = solver.solve_child(&parent, VarId(0), 0.0, 6.0).unwrap();
        let cold = solver.solution(&parent);
        let warm = solver.solution(&child);
        assert_eq!(warm.values, cold.values);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        let after = solver.effort();
        assert_eq!(after.lp_solves, before.lp_solves + 1);
        assert_eq!(after.pivots, before.pivots);
        assert_eq!(after.cold_solves, before.cold_solves);
    }

    #[test]
    fn warm_restart_after_bound_change_matches_cold() {
        // min 2x + 3y st x + y >= 10, x in [0, 6] → (6, 4), obj 24.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = cont(&mut p, "y");
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.set_objective(&[(x, 2.0), (y, 3.0)]);
        let mut solver = LpSolver::new(&p);
        let parent = solver.solve(&p.lower_bounds(), &p.upper_bounds()).unwrap();
        // Tighten x's upper bound to 3: the parent basis stays dual
        // feasible and the dual simplex repairs primal feasibility,
        // landing on (3, 7), obj 27, without a cold solve.
        let child = solver.solve_child(&parent, x, 0.0, 3.0).unwrap();
        assert_eq!(solver.effort().cold_solves, 1, "only the parent ran cold");
        let warm = solver.solution(&child);
        let mut upper = p.upper_bounds();
        upper[0] = 3.0;
        let re_cold = solve_lp_with_bounds(&p, &p.lower_bounds(), &upper).unwrap();
        assert!((warm.objective - 27.0).abs() < 1e-8);
        assert!((warm.objective - re_cold.objective).abs() < 1e-8);
        for (a, b) in warm.values.iter().zip(&re_cold.values) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn warm_restart_agrees_with_cold_on_infeasible_children() {
        let p = sample_problem();
        let mut solver = LpSolver::new(&p);
        let parent = solver.solve(&p.lower_bounds(), &p.upper_bounds()).unwrap();
        // y + z = 4 caps y at 4, so x >= 6; tightening x below that is
        // infeasible, and the warm path must agree with the cold verdict.
        let warm = solver.solve_child(&parent, VarId(0), 0.0, 4.0);
        assert_eq!(warm.err(), Some(SolveError::Infeasible));
        let mut upper = p.upper_bounds();
        upper[0] = 4.0;
        let cold = solve_lp_with_bounds(&p, &p.lower_bounds(), &upper);
        assert_eq!(cold, Err(SolveError::Infeasible));
    }

    /// min 2x + 3y st 10 <= x + y <= 15, x in [0, 6], y in [0, 20] → (6,
    /// 4), obj 24; and the tableau of the same LP maximized, whose optimum
    /// (0, 15) has basics y and the demand row's slack. That tableau is
    /// primal feasible for the minimization but not dual feasible.
    fn band_problem_and_max_tableau() -> (Problem, Tableau) {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 20.0);
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.add_constraint("cap", &[(x, 1.0), (y, 1.0)], Sense::Le, 15.0);
        p.set_objective(&[(x, 2.0), (y, 3.0)]);
        let max = LpSolver::new(&p)
            .solve(&p.lower_bounds(), &p.upper_bounds())
            .unwrap();
        p.direction = Direction::Minimize;
        (p, max)
    }

    /// A child of a primal-feasible but dual-infeasible tableau finishes
    /// with the primal simplex from the inherited basis, with no cold
    /// solve.
    #[test]
    fn children_that_lose_dual_feasibility_finish_by_primal_simplex() {
        let (p, parent) = band_problem_and_max_tableau();
        let mut solver = LpSolver::new(&p);
        assert!(solver.is_primal_feasible(&parent));
        assert!(!solver.is_dual_feasible(&parent));
        let child = solver.solve_child(&parent, VarId(0), 0.0, 6.0).unwrap();
        assert_eq!(solver.effort().cold_solves, 0);
        let warm = solver.solution(&child);
        assert_eq!(warm, solve_lp(&p).unwrap());
        assert_eq!(warm.values, vec![6.0, 4.0]);
    }

    /// Neither primal nor dual feasible after the bound change: the
    /// inherited basis buys nothing, and the child is solved cold under
    /// its own bounds.
    #[test]
    fn children_that_lose_both_feasibilities_are_solved_cold() {
        let (p, parent) = band_problem_and_max_tableau();
        let mut solver = LpSolver::new(&p);
        // The basic y = 15 now breaks its new upper bound 12.
        let child = solver.solve_child(&parent, VarId(1), 0.0, 12.0).unwrap();
        assert_eq!(solver.effort().cold_solves, 1, "the child fell back");
        let mut upper = p.upper_bounds();
        upper[1] = 12.0;
        let cold = solve_lp_with_bounds(&p, &p.lower_bounds(), &upper).unwrap();
        assert_eq!(solver.solution(&child), cold);
        assert_eq!(child.bounds(VarId(1)), (0.0, 12.0));
    }

    /// A child's tableau is its own copy: it reports the bounds it was
    /// solved under, its parent keeps the ones it had, and both keep the
    /// solver's shape (one row per constraint, one column per structural
    /// and slack).
    #[test]
    fn child_tableaus_report_their_own_bounds() {
        let p = sample_problem();
        let mut solver = LpSolver::new(&p);
        let parent = solver.solve(&p.lower_bounds(), &p.upper_bounds()).unwrap();
        let child = solver.solve_child(&parent, VarId(2), 0.0, 2.0).unwrap();
        assert_eq!(parent.bounds(VarId(2)), (0.0, 3.0));
        assert_eq!(child.bounds(VarId(2)), (0.0, 2.0));
        assert_eq!(solver.values(&child), solver.values(&parent));
        for v in [VarId(0), VarId(1)] {
            assert_eq!(child.bounds(v), parent.bounds(v));
        }
        for t in [&parent, &child] {
            assert_eq!(t.basis.len(), 2);
            assert_eq!(t.xb.len(), 2);
            assert_eq!(t.status.len(), p.num_vars() + 2);
            assert_eq!(t.a.len(), 2 * (p.num_vars() + 2));
        }
    }
}
