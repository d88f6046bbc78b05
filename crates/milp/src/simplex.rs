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
//! substitution-based formulation produced, and — more importantly — it
//! makes the column layout independent of the bound values, so a basis
//! from one solve can restart a related solve (branch & bound children,
//! tick-to-tick controller re-solves) via [`Basis`].
//!
//! Cold solves run a composite phase 1 (minimize the total bound
//! violation of the basics with a first-breakpoint ratio test) followed
//! by a primal phase 2. A warm solve reoptimizes with a bounded dual
//! simplex, and there are two ways into it. A [`Basis`] carried over from
//! another solve — whose coefficients may have moved since — is
//! refactorized against this problem first ([`LpSolver::solve`]). A
//! branch & bound child skips that: it differs from its parent by one
//! bound, so it copies the parent's solved [`Tableau`], applies the bound
//! change to it, and pivots on from there ([`LpSolver::solve_child`]);
//! the bound-independent part of the LP is built once per [`LpSolver`].
//! An [`LpSolver`] also outlives its problem: [`LpSolver::lay_out`] re-lays
//! a re-aimed problem of any shape into the buffers the last one used, and
//! the tableaus a search is done with come back through
//! [`LpSolver::recycle`], so a solver carried from search to search stops
//! allocating once it has seen the largest one.
//!
//! A warm solve returns one of three answers. An optimum is re-checked
//! for primal and dual feasibility before it is handed back. When the
//! dual simplex stops on a violated row that no column can repair, the
//! row is checked as an infeasibility certificate — every nonbasic column
//! moved to whichever bound helps the row most, the columns too small to
//! pivot on charged their full range — and a certified row *is* the
//! verdict. Anything else (a stale or singular basis, a marginal or
//! doubtful certificate, an iteration limit, a failed re-check) falls
//! back to refactorize → cold two-phase, so correctness never depends on
//! the fast path. Entering variables use Dantzig's rule with a Bland
//! fallback once the iteration count suggests degenerate cycling.

use crate::problem::{Direction, Problem, Sense, VarId};

/// Numerical tolerance used throughout the solver.
const TOL: f64 = 1e-9;

/// Tolerance for primal feasibility decisions (bound violations).
const FEAS_TOL: f64 = 1e-7;

/// Tolerance for dual feasibility decisions on warm-started bases.
const DUAL_TOL: f64 = 1e-7;

/// Smallest pivot magnitude accepted when refactorizing a warm basis.
const PIVOT_TOL: f64 = 1e-7;

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
pub enum ColStatus {
    /// In the basis; its value lives in the corresponding tableau row.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable resting at zero.
    Free,
}

/// A simplex basis: one status per column (structurals first, then one
/// slack per row) plus the basic column of each row.
///
/// Returned by every solve in [`LpSolution::basis`] and accepted back by
/// [`solve_lp_with_bounds`] to warm-start a related solve. A basis is
/// validated against the problem it is applied to — wrong shape, bound
/// mismatch, or a singular column selection silently falls back to the
/// cold two-phase solve, so a stale basis can cost time but never
/// correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    statuses: Vec<ColStatus>,
    basic: Vec<usize>,
}

impl Basis {
    /// Assembles a basis from raw parts: `statuses[j]` for each of the
    /// `num_vars + num_constraints` columns and the basic column of each
    /// row. No validation happens here — an inconsistent basis is
    /// detected (and ignored) by the solve it is passed to.
    pub fn from_parts(statuses: Vec<ColStatus>, basic: Vec<usize>) -> Self {
        Basis { statuses, basic }
    }

    /// Number of columns this basis describes (structurals + slacks).
    pub fn num_cols(&self) -> usize {
        self.statuses.len()
    }

    /// Number of rows (= basic columns) this basis describes.
    pub fn num_rows(&self) -> usize {
        self.basic.len()
    }
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value in the problem's original direction.
    pub objective: f64,
    /// Optimal value of each variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// The optimal basis, reusable to warm-start a related solve.
    pub basis: Basis,
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
    /// Gauss-Jordan refactorizations of a carried [`Basis`]. A search
    /// needs at most one, at its root; any more are children that fell
    /// back.
    pub refactorizations: usize,
    /// Cold two-phase solves: every solve without a usable warm start,
    /// and every warm one that fell back.
    pub cold_solves: usize,
    /// Warm solves the dual simplex ended with a certified-infeasible row
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
    solve_lp_with_bounds(
        problem,
        &problem.lower_bounds(),
        &problem.upper_bounds(),
        None,
    )
}

/// Solves the LP relaxation with overridden variable bounds, optionally
/// warm-started from a previous solve's [`Basis`].
///
/// This is [`LpSolver::solve`] on a solver built for the one call: the
/// basis, if it fits, is refactorized against `problem` and reoptimized
/// by the dual simplex, which either reaches the optimum or certifies
/// that none exists; a basis that does not fit (wrong shape, statuses
/// pointing at infinite bounds, singular) or a reoptimization that is not
/// sure of its answer gives way to the cold two-phase solve. The warm
/// path can never change the result, only the time to reach it. Branch &
/// bound does not come through here per node — it keeps one [`LpSolver`]
/// per search and continues each child from its parent's [`Tableau`] —
/// but this is the path every such child falls back to.
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
    warm: Option<&Basis>,
) -> Result<LpSolution, SolveError> {
    let mut solver = LpSolver::new(problem);
    let t = solver.solve(lower, upper, warm)?;
    Ok(solver.solution(&t))
}

/// One LP in solver form — `A x + s = b`, senses folded into the slack
/// bounds, costs in minimization form — ready to be solved under any
/// number of variable-bound vectors. Everything here is independent of
/// those bounds and built once per problem; the bounds travel with each
/// [`Tableau`].
///
/// The solver keeps its buffers: the layout, the tableaus handed back
/// through [`recycle`](Self::recycle), and the pricing, ratio-test and
/// refactorization scratch. [`lay_out`](Self::lay_out) re-lays a problem
/// into them, so a solver carried across searches (a
/// [`WarmStart`](crate::WarmStart) carries one) allocates only while its
/// problems still grow.
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
    /// Right-hand sides, unnormalized (no row flipping — the layout must
    /// not depend on bound or rhs signs, or bases would not be reusable).
    b: Vec<f64>,
    /// Slack bounds, one pair per row: the row's sense.
    slack_bounds: Vec<(f64, f64)>,
    /// Minimization costs (slacks cost zero).
    cost: Vec<f64>,
    /// `+1` for minimize, `-1` for maximize (applied to costs).
    sign: f64,
    effort: SolveEffort,
    /// Tableaus done with, reused by the next solve.
    spare: Vec<Tableau>,
    /// Reduced costs, one per column.
    r: Vec<f64>,
    /// Phase 1's violation direction, one per row.
    d: Vec<f64>,
    /// Refactorization scratch: the eliminated `[A | b]`, which rows a
    /// basic column has claimed, the new row → column map, and which
    /// columns the basis names.
    fact_a: Vec<f64>,
    fact_rhs: Vec<f64>,
    assigned: Vec<bool>,
    new_basis: Vec<usize>,
    seen: Vec<bool>,
}

/// A solved LP relaxation: the tableau `B⁻¹A` at the optimum, the basic
/// values, the column statuses, and the bounds it was solved under.
/// [`LpSolver::solve_child`] continues from it.
#[derive(Debug, Default)]
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

impl Clone for Tableau {
    fn clone(&self) -> Self {
        Tableau {
            a: self.a.clone(),
            xb: self.xb.clone(),
            basis: self.basis.clone(),
            status: self.status.clone(),
            lower: self.lower.clone(),
            upper: self.upper.clone(),
        }
    }

    /// Field by field, into the buffers `self` already has.
    fn clone_from(&mut self, source: &Self) {
        self.a.clone_from(&source.a);
        self.xb.clone_from(&source.xb);
        self.basis.clone_from(&source.basis);
        self.status.clone_from(&source.status);
        self.lower.clone_from(&source.lower);
        self.upper.clone_from(&source.upper);
    }
}

impl Tableau {
    /// The `[lower, upper]` bounds `var` was solved under.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lower[var.0], self.upper[var.0])
    }

    /// The optimal basis, reusable to warm-start a related solve.
    pub fn basis(&self) -> Basis {
        Basis {
            statuses: self.status.clone(),
            basic: self.basis.clone(),
        }
    }

    /// [`basis`](Self::basis), written into `out`'s buffers.
    pub(crate) fn basis_into(&self, out: &mut Basis) {
        out.statuses.clone_from(&self.status);
        out.basic.clone_from(&self.basis);
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

/// `v` cleared and refilled with `len` zeros, in the buffer it has. The
/// pivoting loops take their scratch out of the solver this way (so the
/// solver can be borrowed while the scratch is written) and put it back.
fn zeroed(mut v: Vec<f64>, len: usize) -> Vec<f64> {
    v.clear();
    v.resize(len, 0.0);
    v
}

/// Why a warm solve stopped short of an optimum.
enum Stop {
    /// A violated row that no column movement can repair: the LP is
    /// infeasible, with [`CERT_TOL`] to spare.
    Infeasible,
    /// Anything else; the cold path decides.
    Unsure,
}

impl LpSolver {
    /// Lays out `problem`'s LP relaxation. Its own variable bounds are not
    /// read; every solve names the bounds it wants.
    pub fn new(problem: &Problem) -> LpSolver {
        let mut solver = LpSolver {
            m: 0,
            n: 0,
            ns: 0,
            a0: Vec::new(),
            b: Vec::new(),
            slack_bounds: Vec::new(),
            cost: Vec::new(),
            sign: 1.0,
            effort: SolveEffort::default(),
            spare: Vec::new(),
            r: Vec::new(),
            d: Vec::new(),
            fact_a: Vec::new(),
            fact_rhs: Vec::new(),
            assigned: Vec::new(),
            new_basis: Vec::new(),
            seen: Vec::new(),
        };
        solver.lay_out(problem);
        solver
    }

    /// Re-lays this solver for `problem`, in place: afterwards it is what
    /// [`new`](Self::new) would build, with its [`effort`](Self::effort)
    /// back at zero, but the buffers it already has are reused. A
    /// controller that re-aims one problem's numbers between solves lays
    /// it out again before each.
    pub fn lay_out(&mut self, problem: &Problem) {
        let ns = problem.num_vars();
        let m = problem.constraints.len();
        let n = ns + m;
        self.a0.clear();
        self.a0.resize(m * n, 0.0);
        self.b.clear();
        self.b.resize(m, 0.0);
        self.slack_bounds.clear();
        for (i, c) in problem.constraints.iter().enumerate() {
            for &(v, coef) in &c.terms {
                self.a0[i * n + v.0] += coef;
            }
            self.a0[i * n + ns + i] = 1.0;
            self.b[i] = c.rhs;
            // Sense as slack bounds: a·x + s = rhs.
            self.slack_bounds.push(match c.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            });
        }
        self.sign = match problem.direction {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        self.cost.clear();
        self.cost.resize(n, 0.0);
        for (c, &obj) in self.cost.iter_mut().zip(&problem.objective) {
            *c = obj * self.sign;
        }
        (self.m, self.n, self.ns) = (m, n, ns);
        self.effort = SolveEffort::default();
    }

    /// Hands a tableau this solver returned back to it, for a later solve
    /// to reuse.
    pub fn recycle(&mut self, t: Tableau) {
        self.spare.push(t);
    }

    /// A tableau to solve into: a recycled one when there is one.
    fn take_tableau(&mut self) -> Tableau {
        self.spare.pop().unwrap_or_default()
    }

    /// `result` with `t` attached, or `t` recycled when there is no
    /// solution to attach it to.
    fn finish(
        &mut self,
        t: Tableau,
        result: Result<(), SolveError>,
    ) -> Result<Tableau, SolveError> {
        match result {
            Ok(()) => Ok(t),
            Err(e) => {
                self.recycle(t);
                Err(e)
            }
        }
    }

    /// The work done through this solver so far.
    pub fn effort(&self) -> SolveEffort {
        self.effort
    }

    /// Solves under the variable bounds `lower`/`upper`, warm-started from
    /// `warm` when it fits: refactorize, reoptimize, and — unless that
    /// ends in an optimum or a certified infeasibility — solve cold.
    ///
    /// # Errors
    ///
    /// See [`solve_lp`].
    ///
    /// # Panics
    ///
    /// Panics if the bound vectors do not match the number of variables or
    /// if any pair is inverted.
    pub fn solve(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
    ) -> Result<Tableau, SolveError> {
        assert_eq!(lower.len(), self.ns, "lower bounds length mismatch");
        assert_eq!(upper.len(), self.ns, "upper bounds length mismatch");
        for (j, (&l, &u)) in lower.iter().zip(upper).enumerate() {
            assert!(l <= u + TOL, "inverted bounds for variable {j}: [{l}, {u}]");
        }
        self.effort.lp_solves += 1;
        let mut t = self.take_tableau();
        // Equal-within-tolerance but numerically inverted pairs clamp.
        t.lower.clear();
        t.lower
            .extend(lower.iter().zip(upper).map(|(l, u)| l.min(*u)));
        t.upper.clear();
        t.upper.extend_from_slice(upper);
        for &(slo, sup) in &self.slack_bounds {
            t.lower.push(slo);
            t.upper.push(sup);
        }
        let warm = warm.map(|basis| (&basis.statuses[..], &basis.basic[..]));
        let result = self.solve_from(&mut t, warm);
        self.finish(t, result)
    }

    /// Solves `parent`'s LP with `var`'s bounds replaced by `[lower,
    /// upper]` — a branch & bound child. The child starts from a copy of
    /// the parent's tableau: a bound change leaves it dual feasible (a
    /// basic `var` keeps every basic value where it is; a nonbasic one
    /// resting on the moved bound shifts them by `−α·Δ`), so the dual
    /// simplex needs a handful of pivots and no refactorization. If that
    /// ends unsure, the child is solved as [`solve`](Self::solve) would
    /// from the parent's [`Basis`].
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
        let mut t = self.take_tableau();
        t.clone_from(parent);
        self.rebound(&mut t, var.0, lower, upper);
        let result = match self.reoptimize(&mut t) {
            Ok(()) => Ok(()),
            Err(Stop::Infeasible) => Err(SolveError::Infeasible),
            // `t` is under the child's bounds already; the fallback
            // overwrites the rest of it.
            Err(Stop::Unsure) => self.solve_from(&mut t, Some((&parent.status, &parent.basis))),
        };
        self.finish(t, result)
    }

    /// Reads the solution out of an optimal tableau.
    pub fn solution(&self, t: &Tableau) -> LpSolution {
        let values = self.values(t);
        LpSolution {
            objective: self.objective(&values),
            values,
            basis: t.basis(),
        }
    }

    /// The value of every structural variable at `t`'s vertex.
    pub fn values(&self, t: &Tableau) -> Vec<f64> {
        let mut values = Vec::with_capacity(self.ns);
        self.values_into(t, &mut values);
        values
    }

    /// [`values`](Self::values), written into `values`.
    pub fn values_into(&self, t: &Tableau, values: &mut Vec<f64>) {
        values.clear();
        values.extend((0..self.ns).map(|j| match t.status[j] {
            ColStatus::Basic => 0.0,
            _ => t.nb_val(j),
        }));
        for (&bi, &x) in t.basis.iter().zip(&t.xb) {
            if bi < self.ns {
                // Snap to bounds against round-off.
                values[bi] = x.max(t.lower[bi]).min(t.upper[bi]);
            }
        }
    }

    /// The objective at `values`, in the problem's original direction.
    pub fn objective(&self, values: &[f64]) -> f64 {
        let min_obj: f64 = values.iter().zip(&self.cost).map(|(v, c)| v * c).sum();
        min_obj * self.sign
    }

    fn max_iters(&self) -> usize {
        50 * (self.m + self.n + 10)
    }

    /// The whole path under `t`'s full-length column bounds, from a warm
    /// basis (column statuses and the basic column of each row): the warm
    /// start if it delivers a verdict, the cold two-phase solve otherwise.
    /// Every fallback ends here. Only `t`'s bounds are read; the rest of it
    /// is overwritten.
    fn solve_from(
        &mut self,
        t: &mut Tableau,
        warm: Option<(&[ColStatus], &[usize])>,
    ) -> Result<(), SolveError> {
        if warm.is_some_and(|(statuses, basic)| self.refactorize(statuses, basic, t)) {
            match self.reoptimize(t) {
                Ok(()) => return Ok(()),
                Err(Stop::Infeasible) => return Err(SolveError::Infeasible),
                Err(Stop::Unsure) => {}
            }
        }
        self.effort.cold_solves += 1;
        self.cold_start(t);
        self.primal_phase1(t)?;
        self.primal_phase2(t)
    }

    /// Resets `t` to the all-slack starting tableau (`B = I`) under its
    /// bounds.
    fn cold_start(&self, t: &mut Tableau) {
        let Tableau {
            status,
            lower,
            upper,
            ..
        } = t;
        status.clear();
        status.extend((0..self.ns).map(|j| {
            if lower[j].is_finite() {
                ColStatus::AtLower
            } else if upper[j].is_finite() {
                ColStatus::AtUpper
            } else {
                ColStatus::Free
            }
        }));
        status.resize(self.n, ColStatus::Basic);
        t.basis.clear();
        t.basis.extend(self.ns..self.n);
        t.a.clone_from(&self.a0);
        t.xb.clone_from(&self.b);
        self.rest_nonbasics(t);
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

    /// Rebuilds `t`'s tableau for the basis `statuses`/`basic` under `t`'s
    /// bounds by Gauss-Jordan elimination with row pivoting. Returns
    /// `false`, with `t` untouched, when the basis does not fit this
    /// problem or its columns are (near-)singular.
    fn refactorize(&mut self, statuses: &[ColStatus], basic: &[usize], t: &mut Tableau) -> bool {
        let (m, n) = (self.m, self.n);
        if statuses.len() != n || basic.len() != m {
            return false;
        }
        let mut n_basic = 0usize;
        for (j, &s) in statuses.iter().enumerate() {
            match s {
                ColStatus::Basic => n_basic += 1,
                ColStatus::AtLower if !t.lower[j].is_finite() => return false,
                ColStatus::AtUpper if !t.upper[j].is_finite() => return false,
                _ => {}
            }
        }
        if n_basic != m {
            return false;
        }
        let seen = &mut self.seen;
        seen.clear();
        seen.resize(n, false);
        for &c in basic {
            if c >= n || statuses[c] != ColStatus::Basic || seen[c] {
                return false;
            }
            seen[c] = true;
        }

        self.effort.refactorizations += 1;
        let (a, rhs) = (&mut self.fact_a, &mut self.fact_rhs);
        a.clone_from(&self.a0);
        rhs.clone_from(&self.b);
        let assigned = &mut self.assigned;
        assigned.clear();
        assigned.resize(m, false);
        let new_basis = &mut self.new_basis;
        new_basis.clear();
        new_basis.resize(m, usize::MAX);
        for &c in basic {
            // Partial pivoting over the rows not yet claimed by a basic
            // column; the basis is a set, so the row assignment is ours
            // to choose.
            let mut row = usize::MAX;
            let mut best = PIVOT_TOL;
            for (i, &taken) in assigned.iter().enumerate() {
                if !taken && a[i * n + c].abs() > best {
                    best = a[i * n + c].abs();
                    row = i;
                }
            }
            if row == usize::MAX {
                return false; // singular basis
            }
            let p = a[row * n + c];
            for v in &mut a[row * n..row * n + n] {
                *v /= p;
            }
            rhs[row] /= p;
            for i in 0..m {
                if i == row {
                    continue;
                }
                let factor = a[i * n + c];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[i * n + j] -= factor * a[row * n + j];
                }
                a[i * n + c] = 0.0;
                rhs[i] -= factor * rhs[row];
            }
            assigned[row] = true;
            new_basis[row] = c;
        }

        // The old buffers become the next refactorization's scratch.
        std::mem::swap(&mut t.a, a);
        std::mem::swap(&mut t.xb, rhs);
        std::mem::swap(&mut t.basis, new_basis);
        t.status.clear();
        t.status.extend_from_slice(statuses);
        self.rest_nonbasics(t);
        true
    }

    /// Reduced costs `r = c − c_B' B⁻¹A` for `costs`, written into `r`.
    fn price_into(&self, t: &Tableau, costs: &[f64], r: &mut [f64]) {
        r.copy_from_slice(costs);
        for i in 0..self.m {
            let cb = costs[t.basis[i]];
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

    fn is_dual_feasible(&mut self, t: &Tableau) -> bool {
        let mut r = zeroed(std::mem::take(&mut self.r), self.n);
        self.price_into(t, &self.cost, &mut r);
        let feasible = (0..self.n).all(|j| match t.status[j] {
            ColStatus::Basic => true,
            // Fixed columns can never enter, so their sign is irrelevant.
            _ if t.lower[j] == t.upper[j] => true,
            ColStatus::AtLower => r[j] >= -DUAL_TOL,
            ColStatus::AtUpper => r[j] <= DUAL_TOL,
            ColStatus::Free => r[j].abs() <= DUAL_TOL,
        });
        self.r = r;
        feasible
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
        let mut d = zeroed(std::mem::take(&mut self.d), self.m); // violation direction per row
        let mut r = zeroed(std::mem::take(&mut self.r), self.n);
        let result = self.phase1_pivots(t, &mut d, &mut r);
        (self.d, self.r) = (d, r);
        result
    }

    fn phase1_pivots(
        &mut self,
        t: &mut Tableau,
        d: &mut [f64],
        r: &mut [f64],
    ) -> Result<(), SolveError> {
        let (m, n) = (self.m, self.n);
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
            r.iter_mut().for_each(|v| *v = 0.0);
            for (i, &di) in d.iter().enumerate() {
                if di != 0.0 {
                    let row = &t.a[i * n..(i + 1) * n];
                    for (rj, &aij) in r.iter_mut().zip(row) {
                        *rj -= di * aij;
                    }
                }
            }
            let Some((e, sigma)) = self.pick_entering(t, r, iter >= bland_after) else {
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
        let mut r = zeroed(std::mem::take(&mut self.r), self.n);
        let result = self.phase2_pivots(t, &mut r);
        self.r = r;
        result
    }

    fn phase2_pivots(&mut self, t: &mut Tableau, r: &mut [f64]) -> Result<(), SolveError> {
        let (m, n) = (self.m, self.n);
        let bland_after = 10 * (m + n + 10);
        for iter in 0..self.max_iters() {
            self.price_into(t, &self.cost, r);
            let Some((e, sigma)) = self.pick_entering(t, r, iter >= bland_after) else {
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
        let mut r = zeroed(std::mem::take(&mut self.r), self.n);
        let result = self.dual_pivots(t, &mut r);
        self.r = r;
        result
    }

    fn dual_pivots(&mut self, t: &mut Tableau, r: &mut [f64]) -> Result<(), Stop> {
        let (m, n) = (self.m, self.n);
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

            self.price_into(t, &self.cost, r);
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

    #[test]
    fn warm_restart_from_own_basis_reproduces_the_optimum() {
        let p = sample_problem();
        let cold = solve_lp(&p).unwrap();
        let warm =
            solve_lp_with_bounds(&p, &p.lower_bounds(), &p.upper_bounds(), Some(&cold.basis))
                .unwrap();
        assert_eq!(warm.values, cold.values);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_restart_after_bound_change_matches_cold() {
        // min 2x + 3y st x + y >= 10, x in [0, 6] → (6, 4), obj 24.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 6.0);
        let y = cont(&mut p, "y");
        p.add_constraint("demand", &[(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        p.set_objective(&[(x, 2.0), (y, 3.0)]);
        let cold = solve_lp(&p).unwrap();
        // Tighten x's upper bound to 3: the parent basis stays dual
        // feasible and the dual simplex repairs primal feasibility,
        // landing on (3, 7), obj 27.
        let mut upper = p.upper_bounds();
        upper[0] = 3.0;
        let lower = p.lower_bounds();
        let warm = solve_lp_with_bounds(&p, &lower, &upper, Some(&cold.basis)).unwrap();
        let re_cold = solve_lp_with_bounds(&p, &lower, &upper, None).unwrap();
        assert!((warm.objective - 27.0).abs() < 1e-8);
        assert!((warm.objective - re_cold.objective).abs() < 1e-8);
        for (a, b) in warm.values.iter().zip(&re_cold.values) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn warm_restart_agrees_with_cold_on_infeasible_children() {
        let p = sample_problem();
        let cold = solve_lp(&p).unwrap();
        // y + z = 4 caps y at 4, so x >= 6; tightening x below that is
        // infeasible, and the warm path must agree with the cold verdict.
        let mut upper = p.upper_bounds();
        upper[0] = 4.0;
        let lower = p.lower_bounds();
        let warm = solve_lp_with_bounds(&p, &lower, &upper, Some(&cold.basis));
        assert_eq!(warm, Err(SolveError::Infeasible));
    }

    #[test]
    fn singular_basis_falls_back_to_phase_one() {
        let p = sample_problem();
        let cold = solve_lp(&p).unwrap();
        let n = cold.basis.num_cols();
        // A deliberately singular basis: x (appearing in row 0 only) and
        // the row-0 slack span a single row, so the refactorization runs
        // out of pivotable rows and must fall back to the cold two-phase
        // path rather than erroring.
        let mut st = vec![ColStatus::AtLower; n];
        st[0] = ColStatus::Basic;
        st[3] = ColStatus::Basic;
        let singular = Basis::from_parts(st, vec![0, 3]);
        let warm = solve_lp_with_bounds(&p, &p.lower_bounds(), &p.upper_bounds(), Some(&singular))
            .unwrap();
        assert_eq!(warm.values, cold.values);
        // A shape-mismatched basis is likewise ignored.
        let stale = Basis::from_parts(vec![ColStatus::AtLower; 2], vec![0]);
        let warm2 =
            solve_lp_with_bounds(&p, &p.lower_bounds(), &p.upper_bounds(), Some(&stale)).unwrap();
        assert_eq!(warm2.values, cold.values);
    }

    #[test]
    fn basis_accessors_report_shape() {
        let p = sample_problem();
        let s = solve_lp(&p).unwrap();
        assert_eq!(s.basis.num_cols(), p.num_vars() + 2);
        assert_eq!(s.basis.num_rows(), 2);
    }
}
