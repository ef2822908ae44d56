//! A small mixed-integer linear programming solver.
//!
//! Hermes formulates network-wide program deployment as an MILP (paper
//! §V). The original evaluation solves it with Gurobi; this crate is the
//! self-contained substitute: a Gurobi-style model builder ([`model`]), a
//! two-phase dense-tableau simplex for LP relaxations ([`simplex`]), and a
//! depth-first branch-and-bound with deadline/node limits ([`branch`]).
//!
//! It is deliberately an *exact* solver with *limits*: small instances
//! solve to proven optimality, while large instances run until their time
//! budget expires and return the best incumbent — reproducing the
//! exponential-blowup behaviour the paper reports for ILP-based
//! frameworks (Exp#3).
//!
//! # Quick start
//!
//! ```
//! use hermes_milp::{solve, Direction, LinExpr, Model, Sense, SolverConfig, SolveStatus};
//!
//! // max 10a + 13b subject to 3a + 4b <= 6, a, b binary.
//! let mut m = Model::new("tiny-knapsack");
//! let a = m.binary("a");
//! let b = m.binary("b");
//! m.add_constraint("w", LinExpr::from(a) * 3.0 + LinExpr::from(b) * 4.0, Sense::Le, 6.0);
//! m.set_objective(Direction::Maximize, LinExpr::from(a) * 10.0 + LinExpr::from(b) * 13.0);
//! let solution = solve(&m, &SolverConfig::default())?;
//! assert_eq!(solution.status, SolveStatus::Optimal);
//! assert_eq!(solution.objective, 13.0);
//! # Ok::<(), hermes_milp::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod model;
pub mod simplex;

pub use branch::{solve, MipSolution, SolveStatus, SolverConfig};
pub use model::{
    Constraint, Direction, LinExpr, Model, ModelError, Sense, VarId, VarKind, Variable,
};
pub use simplex::{solve_lp, solve_relaxation, solve_relaxation_interruptible, LpResult, LpStatus};
