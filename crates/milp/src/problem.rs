//! Optimization problem builder.
//!
//! [`Problem`] is a lightweight modelling layer over the LP/MILP solvers:
//! named variables with bounds and integrality, linear constraints, and a
//! linear objective. The DiffServe resource manager (paper §3.3) builds its
//! allocation MILP through this API.

use std::fmt;

/// Identifier of a variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the problem's variable list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Variable integrality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable (branch & bound enforces integrality).
    Integer,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        })
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub(crate) name: String,
    pub(crate) kind: VarKind,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) name: String,
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) sense: Sense,
    pub(crate) rhs: f64,
}

/// A linear (mixed-integer) optimization problem.
///
/// # Examples
///
/// Build and solve `max 3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`:
///
/// ```
/// use diffserve_milp::{Direction, Problem, Sense, VarKind};
///
/// let mut p = Problem::new(Direction::Maximize);
/// let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
/// let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
/// p.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
/// p.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Sense::Le, 6.0);
/// p.set_objective(&[(x, 3.0), (y, 2.0)]);
///
/// let sol = diffserve_milp::solve_lp(&p)?;
/// assert!((sol.objective - 12.0).abs() < 1e-9);
/// # Ok::<(), diffserve_milp::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) direction: Direction,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Vec<f64>,
}

impl Problem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(direction: Direction) -> Self {
        Problem {
            direction,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// `lower` may be `-inf` and `upper` may be `+inf`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "bounds must not be NaN");
        assert!(
            lower <= upper,
            "lower bound {lower} exceeds upper bound {upper}"
        );
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            kind,
            lower,
            upper,
        });
        self.objective.push(0.0);
        id
    }

    /// Convenience: adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Integer, 0.0, 1.0)
    }

    /// Adds a linear constraint `Σ coef·var  sense  rhs` and returns its
    /// row index (the handle [`set_coefficient`](Self::set_coefficient)
    /// takes).
    ///
    /// Repeated variables in `terms` are accumulated.
    ///
    /// # Panics
    ///
    /// Panics if any [`VarId`] does not belong to this problem or any
    /// coefficient is non-finite.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        sense: Sense,
        rhs: f64,
    ) -> usize {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut acc: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "variable id out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
            if let Some(slot) = acc.iter_mut().find(|(id, _)| *id == v) {
                slot.1 += c;
            } else {
                acc.push((v, c));
            }
        }
        self.constraints.push(Constraint {
            name: name.into(),
            terms: acc,
            sense,
            rhs,
        });
        self.constraints.len() - 1
    }

    /// Replaces the coefficient of `var` in constraint `row`.
    ///
    /// Together with [`set_upper_bound`](Self::set_upper_bound) and
    /// [`set_objective_coefficient`](Self::set_objective_coefficient) this
    /// lets a caller build a problem shape once and re-aim its numbers at
    /// each related solve. None of them changes the column or row layout,
    /// so a point a [`WarmStart`](crate::WarmStart) remembers from an
    /// earlier solve still names the same variables.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, `coef` is non-finite, or `var` is
    /// not one of the constraint's terms (the sparsity pattern is fixed
    /// when the constraint is added).
    pub fn set_coefficient(&mut self, row: usize, var: VarId, coef: f64) {
        assert!(coef.is_finite(), "constraint coefficient must be finite");
        let slot = self.constraints[row]
            .terms
            .iter_mut()
            .find(|(id, _)| *id == var)
            .expect("variable is not a term of this constraint");
        slot.1 = coef;
    }

    /// Replaces the upper bound of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range, or `upper` is NaN or below the
    /// variable's lower bound.
    pub fn set_upper_bound(&mut self, var: VarId, upper: f64) {
        let v = &mut self.vars[var.0];
        assert!(
            v.lower <= upper,
            "lower bound {} exceeds upper bound {upper}",
            v.lower
        );
        v.upper = upper;
    }

    /// Replaces the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or `coef` is non-finite.
    pub fn set_objective_coefficient(&mut self, var: VarId, coef: f64) {
        assert!(coef.is_finite(), "objective coefficient must be finite");
        self.objective[var.0] = coef;
    }

    /// Sets the objective coefficients (unmentioned variables get 0).
    ///
    /// # Panics
    ///
    /// Panics if any [`VarId`] is out of range or a coefficient is
    /// non-finite.
    pub fn set_objective(&mut self, terms: &[(VarId, f64)]) {
        for c in &mut self.objective {
            *c = 0.0;
        }
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "variable id out of range");
            assert!(c.is_finite(), "objective coefficient must be finite");
            self.objective[v.0] += c;
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars[id.0].name
    }

    /// Ids of all integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// The optimization direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Lower bounds of all variables, in id order.
    pub fn lower_bounds(&self) -> Vec<f64> {
        self.vars.iter().map(|v| v.lower).collect()
    }

    /// Upper bounds of all variables, in id order.
    pub fn upper_bounds(&self) -> Vec<f64> {
        self.vars.iter().map(|v| v.upper).collect()
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {}",
            match self.direction {
                Direction::Maximize => "maximize",
                Direction::Minimize => "minimize",
            },
            self.vars
                .iter()
                .zip(&self.objective)
                .filter(|(_, &c)| c != 0.0)
                .map(|(v, c)| format!("{c}·{}", v.name))
                .collect::<Vec<_>>()
                .join(" + ")
        )?;
        for c in &self.constraints {
            writeln!(
                f,
                "  {}: {} {} {}",
                c.name,
                c.terms
                    .iter()
                    .map(|(v, coef)| format!("{coef}·{}", self.vars[v.0].name))
                    .collect::<Vec<_>>()
                    .join(" + "),
                c.sense,
                c.rhs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 10.0);
        let b = p.add_binary("b");
        p.add_constraint("c", &[(x, 1.0), (b, 5.0)], Sense::Le, 7.0);
        p.set_objective(&[(x, 1.0)]);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.integer_vars(), vec![b]);
        assert_eq!(p.lower_bounds(), vec![0.0, 0.0]);
        assert_eq!(p.upper_bounds(), vec![10.0, 1.0]);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_constraint("c", &[(x, 1.0), (x, 2.0)], Sense::Le, 3.0);
        assert_eq!(p.constraints[0].terms, vec![(x, 3.0)]);
        p.set_objective(&[(x, 1.0), (x, 1.5)]);
        assert_eq!(p.objective[0], 2.5);
    }

    #[test]
    fn patching_keeps_the_layout_and_moves_the_numbers() {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 8.0);
        let b = p.add_binary("b");
        let active = p.add_constraint("active", &[(x, 1.0), (b, -8.0)], Sense::Le, 0.0);
        let need = p.add_constraint("need", &[(x, 2.0)], Sense::Ge, 3.0);
        assert_eq!((active, need), (0, 1));
        p.set_coefficient(active, b, -3.0);
        p.set_upper_bound(x, 3.0);
        p.set_objective(&[(x, 1.0)]);
        p.set_objective_coefficient(b, 0.5);
        assert_eq!(p.constraints[need].rhs, 3.0);
        assert_eq!(p.constraints[active].terms, vec![(x, 1.0), (b, -3.0)]);
        assert_eq!(p.upper_bounds(), vec![3.0, 1.0]);
        assert_eq!(p.objective, vec![1.0, 0.5]);
        assert_eq!((p.num_vars(), p.num_constraints()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "not a term")]
    fn patching_a_missing_term_panics() {
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 1.0);
        let row = p.add_constraint("c", &[(x, 1.0)], Sense::Le, 1.0);
        p.set_coefficient(row, y, 2.0);
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn inverted_bounds_panic() {
        let mut p = Problem::new(Direction::Minimize);
        p.add_var("x", VarKind::Continuous, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_bound_panics() {
        Problem::new(Direction::Minimize).add_var("x", VarKind::Continuous, f64::NAN, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_var_id_panics() {
        let mut p1 = Problem::new(Direction::Minimize);
        let mut p2 = Problem::new(Direction::Minimize);
        let x = p1.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p2.add_constraint("c", &[(x, 1.0)], Sense::Le, 1.0);
    }

    #[test]
    fn display_contains_pieces() {
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_constraint("cap", &[(x, 2.0)], Sense::Le, 1.0);
        p.set_objective(&[(x, 3.0)]);
        let s = format!("{p}");
        assert!(s.contains("maximize"));
        assert!(s.contains("cap"));
        assert!(s.contains("<="));
    }
}
