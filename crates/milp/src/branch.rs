//! Branch & bound over the simplex LP relaxation.
//!
//! Every node's relaxation, the root's included, is solved cold under
//! that node's own variable bounds.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::problem::{Direction, Problem, Sense, VarKind};
use crate::simplex::{LpSolver, SolveEffort, SolveError};

/// Tolerance within which an LP value counts as integral.
pub const INT_TOL: f64 = 1e-6;

/// How much more fractional than the best candidate so far a variable
/// must be to be branched on instead: two relaxations that differ only in
/// round-off then branch on the same variable.
const TIE_TOL: f64 = 1e-9;

/// Options controlling the branch & bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilpOptions {
    /// Maximum number of B&B nodes to expand before giving up.
    pub node_limit: usize,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub gap: f64,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            node_limit: 100_000,
            gap: 1e-9,
        }
    }
}

/// Result of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Objective value at the best integral point found.
    pub objective: f64,
    /// Variable values (integer variables are exactly integral).
    pub values: Vec<f64>,
    /// Number of branch & bound nodes expanded.
    pub nodes: usize,
    /// `true` when the search completed (solution proved optimal); `false`
    /// when the node limit stopped the search with an incumbent in hand.
    pub proved_optimal: bool,
    /// What the search cost: LP solves and pivots.
    pub effort: SolveEffort,
}

/// The point a run of related solves remembers.
///
/// Controllers re-solve the same MILP shape with slowly moving
/// coefficients, so the last optimum is often still feasible, and often
/// still optimal. [`solve_milp_warm`] remembers its solution here and
/// seeds the next search's incumbent with it: the search prunes from its
/// first node, and when the root relaxation already proves the remembered
/// point optimal it returns after that one LP (no branching at all).
///
/// [`find_feasible`] goes through the same handle: a remembered point that
/// is still feasible *is* the answer to a feasibility question, so such a
/// probe returns without solving a single LP, and whatever witness a
/// probe finds is remembered for the next call of either kind.
///
/// A remembered point is re-validated against the *current* problem
/// (dimensions, bounds, integrality, every constraint) before it is used,
/// so a stale or mismatched one costs a cold search, never a wrong answer.
/// Nothing else is carried: every search solves its root LP cold.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    previous: Option<Vec<f64>>,
}

impl WarmStart {
    /// An empty handle; the first solve through it runs cold.
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Forgets the remembered solution; the next solve runs cold.
    pub fn clear(&mut self) {
        self.previous = None;
    }

    /// Whether a previous solution is currently remembered.
    pub fn is_primed(&self) -> bool {
        self.previous.is_some()
    }

    /// The remembered solution values: the last optimum or feasibility
    /// witness a search through this handle found.
    pub fn previous(&self) -> Option<&[f64]> {
        self.previous.as_deref()
    }

    /// Overrides the remembered solution values (testing hook; normal use
    /// lets [`solve_milp_warm`] manage the handle).
    pub fn set_previous(&mut self, values: Option<Vec<f64>>) {
        self.previous = values;
    }
}

/// Whether `values` is an integral feasible point of `problem`, usable as
/// a seeded branch & bound incumbent. Deliberately strict: rejecting a
/// genuinely feasible hint only costs a cold solve, while accepting an
/// infeasible one would corrupt the search.
fn usable_incumbent(problem: &Problem, values: &[f64]) -> bool {
    if values.len() != problem.num_vars() {
        return false;
    }
    let in_bounds = problem
        .vars
        .iter()
        .zip(values)
        .all(|(v, &x)| x.is_finite() && x >= v.lower - INT_TOL && x <= v.upper + INT_TOL);
    if !in_bounds {
        return false;
    }
    let integral = problem
        .vars
        .iter()
        .zip(values)
        .all(|(v, &x)| v.kind != VarKind::Integer || (x - x.round()).abs() <= INT_TOL);
    integral
        && problem.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|(v, a)| a * values[v.index()]).sum();
            match c.sense {
                Sense::Le => lhs <= c.rhs + 1e-9,
                Sense::Ge => lhs >= c.rhs - 1e-9,
                Sense::Eq => (lhs - c.rhs).abs() <= 1e-9,
            }
        })
}

/// An open node: a solved LP relaxation waiting to be branched on.
#[derive(Debug)]
struct Node {
    /// Depth in the tree when the search dives for a first feasible point
    /// ([`Goal::Feasible`]: deepest node first); 0 on every node of an
    /// optimality search, which `score` alone orders (best first).
    dive: usize,
    /// LP relaxation bound, normalized so larger is better.
    score: f64,
    /// The relaxation's optimal point.
    values: Vec<f64>,
    /// The node's variable bounds. Each child copies them and changes one.
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dive.cmp(&other.dive).then(
            self.score
                .partial_cmp(&other.score)
                .unwrap_or(Ordering::Equal),
        )
    }
}

/// Solves a mixed-integer linear program by best-first branch & bound.
///
/// Integer variables must have finite bounds (true for every model in this
/// workspace: worker counts are bounded by cluster size, selectors are
/// binary).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] when no integral point exists,
/// [`SolveError::Unbounded`] if the relaxation is unbounded, and
/// [`SolveError::IterationLimit`] if the node limit is hit before any
/// incumbent is found.
///
/// # Examples
///
/// A tiny knapsack: two items of values 5 and 4 with weights 3 and 2 and
/// capacity 4 — only one item fits, take the value-5 one.
///
/// ```
/// use diffserve_milp::{solve_milp, Direction, MilpOptions, Problem, Sense};
///
/// let mut p = Problem::new(Direction::Maximize);
/// let a = p.add_binary("a");
/// let b = p.add_binary("b");
/// p.add_constraint("cap", &[(a, 3.0), (b, 2.0)], Sense::Le, 4.0);
/// p.set_objective(&[(a, 5.0), (b, 4.0)]);
/// let sol = solve_milp(&p, &MilpOptions::default())?;
/// assert_eq!(sol.objective, 5.0);
/// # Ok::<(), diffserve_milp::SolveError>(())
/// ```
pub fn solve_milp(problem: &Problem, options: &MilpOptions) -> Result<MilpSolution, SolveError> {
    solve_seeded(problem, options, Goal::Optimal, None)
}

/// [`solve_milp`] seeded with the point remembered in a [`WarmStart`].
///
/// The previous solution remembered in `warm` (if any, and if still
/// feasible for `problem`) seeds the branch & bound incumbent; on success
/// the new solution is remembered for the next call. A fresh or
/// invalidated handle behaves exactly like [`solve_milp`].
///
/// In the steady-state case for a controller re-solving under a slowly
/// drifting demand estimate, the remembered point is still optimal: the
/// search then starts with the answer as its incumbent and only has to
/// close the bound — and when the root relaxation is already tight it
/// finishes after that single LP (`nodes == 1`).
///
/// # Errors
///
/// Exactly as [`solve_milp`]; a failed solve leaves the remembered
/// solution untouched (it is re-validated on every call anyway).
pub fn solve_milp_warm(
    problem: &Problem,
    options: &MilpOptions,
    warm: &mut WarmStart,
) -> Result<MilpSolution, SolveError> {
    let sol = solve_seeded(problem, options, Goal::Optimal, warm.previous())?;
    warm.previous = Some(sol.values.clone());
    Ok(sol)
}

/// Answers only *whether* `problem` has an integral feasible point. The
/// first one found is the witness; it is remembered in `warm` (readable
/// through [`WarmStart::previous`]) rather than returned, and what finding
/// it cost is.
///
/// `Ok` exactly when [`solve_milp`] would be `Ok`, and every error is the
/// same error: the search is the same branch & bound over the same LP
/// relaxations with the same tolerances, so `Infeasible` still takes the
/// exhausted tree. What it skips is the proof of optimality: it stops at
/// the first integral node, and it expands the deepest open node first
/// (a dive reaches an integral point in about one node per branched
/// variable, where best-first order keeps widening the top of the tree;
/// with no incumbent nothing is ever pruned, so the order cannot change
/// the verdict). When the point remembered in `warm` is still feasible
/// for `problem` it answers at once, without an LP (`lp_solves == 0`).
/// Searches that bisect on feasibility (the ladder allocator's threshold
/// probes) ask this instead of paying for an optimum they never read.
///
/// # Errors
///
/// Exactly as [`solve_milp`].
pub fn find_feasible(
    problem: &Problem,
    options: &MilpOptions,
    warm: &mut WarmStart,
) -> Result<SolveEffort, SolveError> {
    let sol = solve_seeded(problem, options, Goal::Feasible, warm.previous())?;
    // No node expanded: the remembered point answered, and stays.
    if sol.nodes > 0 {
        warm.previous = Some(sol.values);
    }
    Ok(sol.effort)
}

/// What a search must establish before it may stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Goal {
    /// The best integral point, proved by the exhausted (pruned) tree.
    Optimal,
    /// Any integral point.
    Feasible,
}

/// Core search, with `hint` as the seed incumbent when it is still an
/// integral feasible point of `problem`. A [`Goal::Feasible`] search that
/// the seed answers returns it with no values and `nodes == 0`, since the
/// seed is where the caller keeps it.
fn solve_seeded(
    problem: &Problem,
    options: &MilpOptions,
    goal: Goal,
    hint: Option<&[f64]>,
) -> Result<MilpSolution, SolveError> {
    for v in problem.vars.iter().filter(|v| v.kind == VarKind::Integer) {
        assert!(
            v.lower.is_finite() && v.upper.is_finite(),
            "integer variable {} must have finite bounds",
            v.name
        );
    }

    let seeded = hint.filter(|values| usable_incumbent(problem, values));
    if goal == Goal::Feasible && seeded.is_some() {
        // A still-feasible remembered point answers the question outright.
        return Ok(integral_point(problem, Vec::new(), 0, false));
    }
    let incumbent = seeded.map(|values| integral_point(problem, values.to_vec(), 0, false));

    // The bound-independent part of the LP is laid out once per search;
    // the root and every node below it solve through it.
    let mut search = Search {
        problem,
        options,
        goal,
        lp: LpSolver::new(problem),
        heap: BinaryHeap::new(),
    };
    let mut solution = search.run(incumbent)?;
    solution.effort = search.lp.effort();
    Ok(solution)
}

/// `values` snapped to an integral point of `problem`, with its objective
/// recomputed from the snapped values so it is independent of the LP
/// pivot path (warm and cold solves then agree bit for bit, not just
/// within round-off).
fn integral_point(
    problem: &Problem,
    mut values: Vec<f64>,
    nodes: usize,
    proved_optimal: bool,
) -> MilpSolution {
    for (x, v) in values.iter_mut().zip(&problem.vars) {
        if v.kind == VarKind::Integer {
            *x = x.round();
        }
    }
    let objective = problem
        .objective
        .iter()
        .zip(&values)
        .map(|(c, x)| c * x)
        .sum();
    MilpSolution {
        objective,
        values,
        nodes,
        proved_optimal,
        effort: SolveEffort::default(),
    }
}

/// One branch & bound search over one [`LpSolver`].
struct Search<'a> {
    problem: &'a Problem,
    options: &'a MilpOptions,
    goal: Goal,
    lp: LpSolver,
    heap: BinaryHeap<Node>,
}

impl Search<'_> {
    /// LP objective normalized so larger is better.
    fn norm(&self, objective: f64) -> f64 {
        match self.problem.direction() {
            Direction::Maximize => objective,
            Direction::Minimize => -objective,
        }
    }

    fn run(&mut self, mut incumbent: Option<MilpSolution>) -> Result<MilpSolution, SolveError> {
        let gap = self.options.gap;
        let (lower, upper) = (self.problem.lower_bounds(), self.problem.upper_bounds());
        let root = self.lp.solve(&lower, &upper)?;
        let score = self.norm(root.objective);
        if let Some(best) = &incumbent {
            // Fast path: the root bound already proves the seeded incumbent
            // optimal (within the gap) — no branching needed.
            if score <= self.norm(best.objective) + gap {
                let mut s = incumbent.take().expect("just matched Some");
                s.nodes = 1;
                s.proved_optimal = true;
                return Ok(s);
            }
        }
        self.heap.push(Node {
            dive: 0,
            score,
            values: root.values,
            lower,
            upper,
        });

        let mut nodes = 0usize;

        while let Some(node) = self.heap.pop() {
            if nodes >= self.options.node_limit {
                return match incumbent {
                    Some(mut s) => {
                        s.nodes = nodes;
                        s.proved_optimal = false;
                        Ok(s)
                    }
                    None => Err(SolveError::IterationLimit),
                };
            }
            nodes += 1;

            // Prune against the incumbent.
            if let Some(best) = &incumbent {
                if node.score <= self.norm(best.objective) + gap {
                    continue;
                }
            }

            // Find the most fractional integer variable; one that beats
            // the best so far by no more than `TIE_TOL` loses to it, so
            // near-ties go to the lowest index whatever the round-off.
            let mut branch: Option<(usize, f64)> = None;
            for (j, v) in self.problem.vars.iter().enumerate() {
                if v.kind != VarKind::Integer {
                    continue;
                }
                let x = node.values[j];
                let frac = (x - x.round()).abs();
                if frac > branch.map_or(INT_TOL, |(_, best)| best + TIE_TOL) {
                    branch = Some((j, frac));
                }
            }

            match branch {
                None => {
                    // Integral: snap and record as incumbent if better.
                    let point = integral_point(self.problem, node.values, nodes, true);
                    if self.goal == Goal::Feasible {
                        return Ok(MilpSolution {
                            proved_optimal: false,
                            ..point
                        });
                    }
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|b| self.norm(point.objective) > self.norm(b.objective) + gap);
                    if better {
                        incumbent = Some(point);
                    }
                }
                Some((j, _)) => {
                    let floor = node.values[j].floor();
                    let (lower, upper) = (node.lower[j], node.upper[j]);
                    let cutoff = incumbent
                        .as_ref()
                        .map(|best| self.norm(best.objective) + gap);
                    let dive = match self.goal {
                        Goal::Optimal => 0,
                        Goal::Feasible => node.dive + 1,
                    };
                    // Down branch: x <= floor.
                    if lower <= floor {
                        self.push_child(&node, j, (lower, floor), dive, cutoff);
                    }
                    // Up branch: x >= floor + 1.
                    if floor + 1.0 <= upper {
                        self.push_child(&node, j, (floor + 1.0, upper), dive, cutoff);
                    }
                }
            }
        }

        match incumbent {
            Some(mut s) => {
                s.nodes = nodes;
                // The heap drained, so the search is complete — relevant when a
                // seeded incumbent (created unproven) was never displaced.
                s.proved_optimal = true;
                Ok(s)
            }
            None => Err(SolveError::Infeasible),
        }
    }

    /// Solves the child of `parent` that confines variable `j` to `bounds`
    /// — cold, under the parent's bounds with that one changed — and
    /// queues it, unless it is infeasible or its bound cannot beat `cutoff`
    /// (the incumbent's normalized objective plus the gap).
    fn push_child(
        &mut self,
        parent: &Node,
        j: usize,
        bounds: (f64, f64),
        dive: usize,
        cutoff: Option<f64>,
    ) {
        let (mut lower, mut upper) = (parent.lower.clone(), parent.upper.clone());
        (lower[j], upper[j]) = bounds;
        // Infeasible children end here. So do unbounded/iteration-limit ones:
        // the root solve already screened for unboundedness.
        let Ok(lp) = self.lp.solve(&lower, &upper) else {
            return;
        };
        let score = self.norm(lp.objective);
        if cutoff.is_some_and(|c| score <= c) {
            return; // Bound: can't beat the incumbent.
        }
        self.heap.push(Node {
            dive,
            score,
            values: lp.values,
            lower,
            upper,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Sense, VarKind};

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c st 5a + 4b + 3c <= 9, binaries.
        // Best: a + b (weight 9, value 16).
        let mut p = Problem::new(Direction::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.add_constraint("w", &[(a, 5.0), (b, 4.0), (c, 3.0)], Sense::Le, 9.0);
        p.set_objective(&[(a, 10.0), (b, 6.0), (c, 4.0)]);
        let s = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert!((s.objective - 16.0).abs() < 1e-6);
        assert_eq!(s.values[0], 1.0);
        assert_eq!(s.values[1], 1.0);
        assert_eq!(s.values[2], 0.0);
        assert!(s.proved_optimal);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x st 2x <= 7 → LP gives 3.5, MILP must give 3.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 100.0);
        p.add_constraint("c", &[(x, 2.0)], Sense::Le, 7.0);
        p.set_objective(&[(x, 1.0)]);
        let s = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(s.objective, 3.0);
    }

    #[test]
    fn minimization_with_integers() {
        // min 3x + 5y st x + y >= 4, integers → try (4,0)=12, (0,4)=20, (1,3)=18...
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 10.0);
        p.add_constraint("c", &[(x, 1.0), (y, 1.0)], Sense::Ge, 4.0);
        p.set_objective(&[(x, 3.0), (y, 5.0)]);
        let s = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert_eq!(s.objective, 12.0);
        assert_eq!(s.values[0], 4.0);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 2x + y, x integer ≤ 2.5 constraint-wise, y continuous ≤ 0.75.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 0.75);
        p.add_constraint("c", &[(x, 1.0)], Sense::Le, 2.5);
        p.set_objective(&[(x, 2.0), (y, 1.0)]);
        let s = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert!((s.objective - 4.75).abs() < 1e-6);
        assert_eq!(s.values[0], 2.0);
        assert!((s.values[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 <= x <= 0.6 with x integer: no integral point.
        let mut p = Problem::new(Direction::Maximize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 1.0);
        p.add_constraint("lo", &[(x, 1.0)], Sense::Ge, 0.4);
        p.add_constraint("hi", &[(x, 1.0)], Sense::Le, 0.6);
        p.set_objective(&[(x, 1.0)]);
        assert_eq!(
            solve_milp(&p, &MilpOptions::default()),
            Err(SolveError::Infeasible)
        );
    }

    #[test]
    fn selector_pattern_like_allocator() {
        // Exactly-one selector over three options with different payoffs and
        // capacity usage — the shape the DiffServe allocator relies on.
        let mut p = Problem::new(Direction::Maximize);
        let z: Vec<_> = (0..3).map(|i| p.add_binary(format!("z{i}"))).collect();
        p.add_constraint(
            "one",
            &[(z[0], 1.0), (z[1], 1.0), (z[2], 1.0)],
            Sense::Eq,
            1.0,
        );
        // Option payoffs 0.2, 0.5, 0.9; capacity costs 1, 3, 10; budget 5.
        p.add_constraint(
            "budget",
            &[(z[0], 1.0), (z[1], 3.0), (z[2], 10.0)],
            Sense::Le,
            5.0,
        );
        p.set_objective(&[(z[0], 0.2), (z[1], 0.5), (z[2], 0.9)]);
        let s = solve_milp(&p, &MilpOptions::default()).unwrap();
        assert!((s.objective - 0.5).abs() < 1e-6);
        assert_eq!(s.values[1], 1.0);
    }

    #[test]
    fn node_limit_reports_incumbent_or_error() {
        let mut p = Problem::new(Direction::Maximize);
        let vars: Vec<_> = (0..12).map(|i| p.add_binary(format!("b{i}"))).collect();
        let weights: Vec<f64> = (0..12).map(|i| 3.0 + (i as f64 % 5.0)).collect();
        let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        p.add_constraint("cap", &terms, Sense::Le, 20.0);
        let obj: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + (i as f64) * 0.618 % 3.0))
            .collect();
        p.set_objective(&obj);
        let opts = MilpOptions {
            node_limit: 3,
            ..Default::default()
        };
        match solve_milp(&p, &opts) {
            Ok(s) => assert!(!s.proved_optimal || s.nodes <= 3),
            Err(SolveError::IterationLimit) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    fn knapsack(capacity: f64) -> Problem {
        // max 10a + 6b + 4c st 5a + 4b + 3c <= capacity, binaries.
        let mut p = Problem::new(Direction::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.add_constraint("w", &[(a, 5.0), (b, 4.0), (c, 3.0)], Sense::Le, capacity);
        p.set_objective(&[(a, 10.0), (b, 6.0), (c, 4.0)]);
        p
    }

    /// A search over `p` and the node of its LP relaxation under the
    /// bounds `lower`/`upper`.
    fn search_and_node<'a>(
        p: &'a Problem,
        options: &'a MilpOptions,
        lower: Vec<f64>,
        upper: Vec<f64>,
    ) -> (Search<'a>, Node) {
        let mut search = Search {
            problem: p,
            options,
            goal: Goal::Optimal,
            lp: LpSolver::new(p),
            heap: BinaryHeap::new(),
        };
        let lp = search.lp.solve(&lower, &upper).unwrap();
        let node = Node {
            dive: 0,
            score: search.norm(lp.objective),
            values: lp.values,
            lower,
            upper,
        };
        (search, node)
    }

    /// A child is its parent's bounds with one changed, solved under
    /// exactly those: the parent keeps its own, and the child's point is
    /// the cold optimum of its bounds.
    #[test]
    fn children_copy_their_parents_bounds_and_change_one() {
        let p = knapsack(8.0);
        let options = MilpOptions::default();
        let (mut search, parent) =
            search_and_node(&p, &options, p.lower_bounds(), p.upper_bounds());
        // LP optimum a = 1, b = 0.75: 14.5.
        assert_eq!(parent.values, vec![1.0, 0.75, 0.0]);
        for (bounds, want) in [
            ((0.0, 0.0), vec![1.0, 0.0, 1.0]),
            ((1.0, 1.0), vec![0.8, 1.0, 0.0]),
        ] {
            search.push_child(&parent, 1, bounds, 0, None);
            let child = search.heap.pop().expect("a feasible child is queued");
            assert_eq!((child.lower[1], child.upper[1]), bounds);
            for j in [0, 2] {
                assert_eq!(
                    (child.lower[j], child.upper[j]),
                    (parent.lower[j], parent.upper[j])
                );
            }
            for (got, want) in child.values.iter().zip(&want) {
                assert!((got - want).abs() < 1e-12, "{:?}", child.values);
            }
            assert!((child.score - 14.0).abs() < 1e-9, "{}", child.score);
            let cold = LpSolver::new(&p).solve(&child.lower, &child.upper).unwrap();
            assert_eq!(child.values, cold.values);
        }
        assert_eq!(
            (parent.lower, parent.upper),
            (p.lower_bounds(), p.upper_bounds())
        );
        assert_eq!(
            search.lp.effort().lp_solves,
            3,
            "the parent and two children"
        );
    }

    /// A child that is infeasible, or whose bound cannot beat the cutoff,
    /// costs its LP and is not queued.
    #[test]
    fn infeasible_and_cut_off_children_are_not_queued() {
        let p = knapsack(8.0);
        let options = MilpOptions::default();
        // a fixed at 1 leaves weight 3: b = 1 would need 4.
        let (mut search, parent) =
            search_and_node(&p, &options, vec![1.0, 0.0, 0.0], p.upper_bounds());
        search.push_child(&parent, 1, (1.0, 1.0), 0, None);
        assert!(search.heap.is_empty(), "infeasible child queued");
        // Down child: a = c = 1, value 14 — no better than a cutoff of 14.
        search.push_child(&parent, 1, (0.0, 0.0), 0, Some(14.0));
        assert!(search.heap.is_empty(), "cut-off child queued");
        search.push_child(&parent, 1, (0.0, 0.0), 0, Some(13.5));
        assert_eq!(search.heap.len(), 1);
        assert_eq!(search.lp.effort().lp_solves, 4);
    }

    #[test]
    fn warm_resolve_finishes_at_the_root() {
        let p = knapsack(9.0);
        let cold = solve_milp(&p, &MilpOptions::default()).unwrap();
        let mut warm = WarmStart::new();
        assert!(!warm.is_primed());
        let first = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert_eq!(first.values, cold.values);
        assert!(warm.is_primed());
        // Steady state: the remembered optimum short-circuits the search.
        let second = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert_eq!(second.values, cold.values);
        assert!((second.objective - cold.objective).abs() < 1e-9);
        assert_eq!(second.nodes, 1, "re-solve must stop after the root LP");
        assert!(second.proved_optimal);
    }

    #[test]
    fn stale_but_feasible_hint_does_not_hide_a_better_optimum() {
        let mut warm = WarmStart::new();
        // Capacity 9: only {a, b} fits (value 16).
        let tight = knapsack(9.0);
        solve_milp_warm(&tight, &MilpOptions::default(), &mut warm).unwrap();
        // Capacity 12: everything fits; the remembered point is feasible
        // but no longer optimal, and must not survive as the answer.
        let loose = knapsack(12.0);
        let s = solve_milp_warm(&loose, &MilpOptions::default(), &mut warm).unwrap();
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert_eq!(s.values, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn infeasible_hint_degrades_to_a_cold_solve() {
        let mut warm = WarmStart::new();
        let loose = knapsack(12.0);
        solve_milp_warm(&loose, &MilpOptions::default(), &mut warm).unwrap();
        // The remembered {a, b, c} overflows capacity 9: the hint must be
        // rejected and the solve still find the true optimum.
        let tight = knapsack(9.0);
        let s = solve_milp_warm(&tight, &MilpOptions::default(), &mut warm).unwrap();
        assert!((s.objective - 16.0).abs() < 1e-6);
        assert_eq!(s.values, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn dimension_mismatched_hint_is_ignored() {
        let mut warm = WarmStart::new();
        solve_milp_warm(&knapsack(9.0), &MilpOptions::default(), &mut warm).unwrap();
        // A two-variable problem cannot use the three-value hint.
        let mut p = Problem::new(Direction::Minimize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 10.0);
        p.add_constraint("c", &[(x, 1.0), (y, 1.0)], Sense::Ge, 4.0);
        p.set_objective(&[(x, 3.0), (y, 5.0)]);
        let s = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert_eq!(s.objective, 12.0);
        // The handle now remembers the new problem's solution...
        let again = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert_eq!(again.nodes, 1);
        // ...and clearing it forgets it.
        warm.clear();
        assert!(!warm.is_primed());
    }

    #[test]
    fn warm_matches_cold_on_random_ips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..30 {
            let n = rng.gen_range(2..5usize);
            let mut p = Problem::new(Direction::Maximize);
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, 4.0))
                .collect();
            let terms: Vec<_> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(0..=3) as f64))
                .collect();
            p.add_constraint("c", &terms, Sense::Le, rng.gen_range(1..10) as f64);
            let obj: Vec<_> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-5..=5) as f64))
                .collect();
            p.set_objective(&obj);

            let cold = solve_milp(&p, &MilpOptions::default()).expect("origin feasible");
            // Seeding a solve with its own cold optimum must reproduce it
            // bit for bit: the seeded incumbent prunes every alternate
            // optimum within the gap.
            let mut warm = WarmStart::new();
            warm.previous = Some(cold.values.clone());
            let seeded = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).unwrap();
            assert_eq!(seeded.values, cold.values, "trial {trial}\n{p}");
            assert!(
                (seeded.objective - cold.objective).abs() < 1e-9,
                "trial {trial}: {} vs {}",
                seeded.objective,
                cold.objective
            );
        }
    }

    /// Exhaustive reference solver for small pure-integer programs.
    fn brute_force(p: &Problem) -> Option<f64> {
        let ints = p.integer_vars();
        assert_eq!(ints.len(), p.num_vars(), "brute force wants pure IP");
        let lowers = p.lower_bounds();
        let uppers = p.upper_bounds();
        let mut best: Option<f64> = None;
        let mut assign = lowers.clone();
        fn rec(
            p: &Problem,
            idx: usize,
            assign: &mut Vec<f64>,
            lowers: &[f64],
            uppers: &[f64],
            best: &mut Option<f64>,
        ) {
            if idx == assign.len() {
                for c in &p.constraints {
                    let lhs: f64 = c.terms.iter().map(|(v, a)| a * assign[v.index()]).sum();
                    let ok = match c.sense {
                        Sense::Le => lhs <= c.rhs + 1e-9,
                        Sense::Ge => lhs >= c.rhs - 1e-9,
                        Sense::Eq => (lhs - c.rhs).abs() < 1e-9,
                    };
                    if !ok {
                        return;
                    }
                }
                let obj: f64 = p
                    .objective
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c * assign[i])
                    .sum();
                let better = match (p.direction(), *best) {
                    (_, None) => true,
                    (Direction::Maximize, Some(b)) => obj > b,
                    (Direction::Minimize, Some(b)) => obj < b,
                };
                if better {
                    *best = Some(obj);
                }
                return;
            }
            let mut v = lowers[idx];
            while v <= uppers[idx] + 1e-9 {
                assign[idx] = v;
                rec(p, idx + 1, assign, lowers, uppers, best);
                v += 1.0;
            }
        }
        rec(p, 0, &mut assign, &lowers, &uppers, &mut best);
        best
    }

    #[test]
    fn find_feasible_stops_at_a_witness_and_reuses_it() {
        let p = knapsack(9.0);
        let mut warm = WarmStart::new();
        let first = find_feasible(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert!(first.lp_solves > 0);
        let witness = warm.previous().expect("the witness is remembered").to_vec();
        assert!(usable_incumbent(&p, &witness));
        // The remembered witness still fits: answered without a single LP.
        let again = find_feasible(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert_eq!(again, SolveEffort::default());
        assert_eq!(warm.previous(), Some(&witness[..]));
        // A witness is a valid seed for the optimality solve, never its answer.
        let best = solve_milp_warm(&p, &MilpOptions::default(), &mut warm).unwrap();
        assert_eq!(best.values, vec![1.0, 1.0, 0.0]);
        assert!(best.proved_optimal);
    }

    #[test]
    fn find_feasible_agrees_with_solve_and_brute_force_under_any_hint() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1305);
        let opts = MilpOptions::default();
        // One handle carried across every trial: by the next trial its
        // point is stale, and often the wrong dimension.
        let mut carried = WarmStart::new();
        let (mut feasible, mut infeasible) = (0, 0);
        for trial in 0..120 {
            let n = rng.gen_range(2..5usize);
            let m = rng.gen_range(1..5usize);
            let mut p = Problem::new(Direction::Minimize);
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, 4.0))
                .collect();
            // Mixed senses and signed right-hand sides: about a third of
            // these have no integral point at all.
            for c in 0..m {
                let terms: Vec<_> = vars
                    .iter()
                    .map(|&v| (v, rng.gen_range(-3..=3) as f64))
                    .collect();
                let sense = [Sense::Le, Sense::Ge, Sense::Eq][rng.gen_range(0..3usize)];
                p.add_constraint(format!("c{c}"), &terms, sense, rng.gen_range(-4..12) as f64);
            }
            let obj: Vec<_> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-5..=5) as f64))
                .collect();
            p.set_objective(&obj);

            let reference = brute_force(&p).is_some();
            assert_eq!(
                solve_milp(&p, &opts).is_ok(),
                reference,
                "trial {trial}: optimality solve vs brute force\n{p}"
            );
            if reference {
                feasible += 1;
            } else {
                infeasible += 1;
            }

            let mut out_of_bounds = WarmStart::new();
            out_of_bounds.set_previous(Some(vec![9.0; n]));
            let mut wrong_dimension = WarmStart::new();
            wrong_dimension.set_previous(Some(vec![0.0; n + 1]));
            for (hint, warm) in [
                ("none", &mut WarmStart::new()),
                ("stale", &mut carried),
                ("infeasible", &mut out_of_bounds),
                ("wrong dimension", &mut wrong_dimension),
            ] {
                match find_feasible(&p, &opts, warm) {
                    Ok(_) => {
                        assert!(
                            reference,
                            "trial {trial}, {hint} hint: phantom witness\n{p}"
                        );
                        assert!(
                            usable_incumbent(&p, warm.previous().unwrap()),
                            "trial {trial}, {hint} hint: witness is not feasible\n{p}"
                        );
                    }
                    Err(e) => {
                        assert_eq!(e, SolveError::Infeasible, "trial {trial}, {hint} hint");
                        assert!(
                            !reference,
                            "trial {trial}, {hint} hint: missed a point\n{p}"
                        );
                    }
                }
            }
        }
        assert!(
            feasible >= 20 && infeasible >= 20,
            "the instances must exercise both verdicts: {feasible} feasible, {infeasible} not"
        );
    }

    #[test]
    fn matches_brute_force_on_random_ips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
        for trial in 0..40 {
            let n = rng.gen_range(2..5usize);
            let m = rng.gen_range(1..4usize);
            let dir = if rng.gen_bool(0.5) {
                Direction::Maximize
            } else {
                Direction::Minimize
            };
            let mut p = Problem::new(dir);
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, 4.0))
                .collect();
            for c in 0..m {
                let terms: Vec<_> = vars
                    .iter()
                    .map(|&v| (v, rng.gen_range(-3..=3) as f64))
                    .collect();
                // Keep rhs positive with a Le sense so the origin stays
                // feasible and the IP is never infeasible.
                p.add_constraint(
                    format!("c{c}"),
                    &terms,
                    Sense::Le,
                    rng.gen_range(1..10) as f64,
                );
            }
            let obj: Vec<_> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-5..=5) as f64))
                .collect();
            p.set_objective(&obj);

            let reference = brute_force(&p).expect("origin is feasible");
            let milp = solve_milp(&p, &MilpOptions::default())
                .unwrap_or_else(|e| panic!("trial {trial}: solver failed: {e}\n{p}"));
            assert!(
                (milp.objective - reference).abs() < 1e-6,
                "trial {trial}: milp={} brute={}\n{p}",
                milp.objective,
                reference
            );
        }
    }
}
