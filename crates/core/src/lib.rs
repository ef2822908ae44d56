//! Hermes: network-wide data plane program deployment that minimizes the
//! per-packet byte overhead of inter-switch coordination.
//!
//! Reproduction of *"Toward Low-Overhead Inter-Switch Coordination in
//! Network-Wide Data Plane Program Deployment"* (ICDCS 2022). The crate
//! implements the paper's two components:
//!
//! - the **program analyzer** ([`analyzer`], Algorithm 1): programs →
//!   per-program TDGs → SPEED-merged TDG with per-edge metadata amounts;
//! - the **optimization framework**: the MILP formulation of problem P#1
//!   ([`milp_formulation`]), an exact combinatorial solver playing the
//!   Gurobi role ([`exact`]), and the paper's greedy heuristic
//!   ([`heuristic`], Algorithm 2), all producing [`DeploymentPlan`]s whose
//!   constraints are checked by a single verifier ([`verify()`]).
//!
//! Every solver implements the one [`DeploymentAlgorithm`] trait
//! ([`solver`]): `solve` takes a [`SearchContext`] carrying a deadline, a
//! worker budget and a proven objective floor, and returns a uniform
//! [`SolveOutcome`]; `deploy` is `solve` under a default budget. The
//! [`Portfolio`] is the pipeline over them, on the caller's thread:
//! pre-solve certificates, then the greedy plan, then the exact search that
//! plan seeds.
//!
//! # Quick start
//!
//! ```
//! use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
//! use hermes_dataplane::library;
//! use hermes_net::topology;
//!
//! // 1. Analyze ten real programs into a merged TDG.
//! let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
//! // 2. Deploy on a three-switch testbed with loose ε-bounds.
//! let net = topology::linear(3, 10.0);
//! let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose())?;
//! // 3. Inspect the per-packet byte overhead the deployment costs.
//! println!("A_max = {} bytes", plan.max_inter_switch_bytes(&tdg));
//! # Ok::<(), hermes_core::DeployError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod deployment;
pub mod eval;
pub mod exact;
pub mod fingerprint;
pub mod heuristic;
pub mod incremental;
pub mod migrate;
pub mod milp_formulation;
pub mod precheck;
pub mod refine;
pub mod report;
pub mod solver;
pub mod stage_assign;
pub mod test_support;
pub mod verify;

pub use analyzer::ProgramAnalyzer;
pub use deployment::{
    DeployError, DeploymentPlan, Epsilon, PlanMetrics, PlanRoute, StagePlacement,
};
pub use eval::IncrementalEval;
pub use exact::OptimalSolver;
pub use fingerprint::{fnv1a64, json_fingerprint, tdg_fingerprint};
pub use heuristic::{first_fit, placement_order, GreedyHeuristic, SplitStrategy};
pub use incremental::{IncrementalDeployer, IncrementalOutcome, RedeployOptions};
pub use migrate::{
    all_at_once_peak, MigrateError, MigrationOrder, MigrationProblem, MigrationSchedule,
    MigrationScheduler, MigrationStep,
};
pub use milp_formulation::{build_p1, MilpHermes, P1Variables};
pub use precheck::{Certificate, Precheck};
pub use refine::refine;
pub use report::{diff, explain, PlanDiff};
/// The solver trait under the second name the deploy-request benchmark
/// (`bench/`) imports.
pub use solver::DeploymentAlgorithm as Solver;
pub use solver::{
    DeploymentAlgorithm, Portfolio, SearchContext, SolveOutcome, SolveStats, DEFAULT_DEPLOY_BUDGET,
};
pub use stage_assign::{assign_stages, materialize, stage_feasible, StageAssignError, StageProbe};
pub use verify::{verify, Violation};
