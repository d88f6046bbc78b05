//! # diffserve-milp
//!
//! A from-scratch linear and mixed-integer linear programming solver.
//!
//! The DiffServe paper formulates its resource-allocation problem as a MILP
//! and solves it with Gurobi (§3.3, §4.5). Gurobi is proprietary, so this
//! crate provides the substitute substrate: a dense bounded-variable
//! primal simplex ([`solve_lp`]) and a best-first branch & bound
//! ([`solve_milp`]) over it, behind a small modelling API ([`Problem`]).
//! Callers that only need to know *whether* an integral point exists ask
//! [`find_feasible`], which runs the same search but stops at the first
//! one.
//! Every branch & bound node, the root included, solves its LP relaxation
//! cold with two phases under its own bounds. Related searches share only
//! a remembered integral point ([`WarmStart`]), which seeds the next
//! search's incumbent. What a search cost is on its solution as a
//! [`SolveEffort`].
//!
//! The DiffServe allocation instances are tiny by MILP standards (tens of
//! integer variables, tens of constraints), and the paper reports ~10 ms
//! solve times on Gurobi. This solver is the reference the served
//! enumerators are checked against, kept simple rather than fast: the
//! repo benchmark's traced `milp.solve_cold_us` (`benchmark/`) reads
//! ≈ 65 ms for the full Eq. 1–5 MILP on `ladder_control` at seed 7 on a
//! 2-core host.
//!
//! # Examples
//!
//! ```
//! use diffserve_milp::{solve_milp, Direction, MilpOptions, Problem, Sense, VarKind};
//!
//! // Allocate 4 servers between two models; each light server handles 10
//! // QPS, each heavy server 2 QPS; need 20 light-QPS and 4 heavy-QPS.
//! let mut p = Problem::new(Direction::Minimize);
//! let x1 = p.add_var("light", VarKind::Integer, 0.0, 4.0);
//! let x2 = p.add_var("heavy", VarKind::Integer, 0.0, 4.0);
//! p.add_constraint("light-demand", &[(x1, 10.0)], Sense::Ge, 20.0);
//! p.add_constraint("heavy-demand", &[(x2, 2.0)], Sense::Ge, 4.0);
//! p.set_objective(&[(x1, 1.0), (x2, 1.0)]);
//! let sol = solve_milp(&p, &MilpOptions::default())?;
//! assert_eq!(sol.values, vec![2.0, 2.0]);
//! # Ok::<(), diffserve_milp::SolveError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod problem;
pub mod simplex;

pub use branch::{
    find_feasible, solve_milp, solve_milp_warm, MilpOptions, MilpSolution, WarmStart, INT_TOL,
};
pub use problem::{Direction, Problem, Sense, VarId, VarKind};
pub use simplex::{solve_lp, LpSolution, SolveEffort, SolveError};
