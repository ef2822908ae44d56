//! Comparison deployment frameworks for the Hermes evaluation.
//!
//! Implements the two classes of solutions the paper compares against
//! (§VI-A):
//!
//! 1. **ILP-based frameworks** ([`ilp`]): Min-Stage, Sonata, SPEED, MTP,
//!    Flightplan, and P4All, each keeping its published objective but
//!    running on the workspace's `hermes-milp` solver in place of Gurobi.
//! 2. **Heuristic frameworks** ([`greedy`]): first fit by level (FFL) and
//!    first fit by level and size (FFLS).
//!
//! All implement [`hermes_core::DeploymentAlgorithm`], so experiments
//! iterate over one uniform suite (see [`standard_suite`]) and budget each
//! solve through its [`SearchContext`](hermes_core::SearchContext).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod greedy;
pub mod ilp;

pub use greedy::{FirstFitByLevel, FirstFitByLevelAndSize};
pub use ilp::{IlpBaseline, IlpObjective, Sonata, MAX_BINARIES, MAX_RANK_CELLS};

use hermes_core::{
    DeployError, DeploymentAlgorithm, DeploymentPlan, GreedyHeuristic, OptimalSolver, SolveOutcome,
    SolveStats,
};
use hermes_tdg::Tdg;
use std::time::Instant;

/// The full algorithm suite of the paper's evaluation, in its figure
/// order: MS, Sonata, SPEED, MTP, FP, P4All, FFL, FFLS, Hermes, Optimal.
///
/// The context each solve runs under bounds the ILP-based frameworks and
/// the Optimal search; the paper's Gurobi runs are capped at two hours the
/// same way.
pub fn standard_suite() -> Vec<Box<dyn DeploymentAlgorithm>> {
    vec![
        Box::new(IlpBaseline::min_stage()),
        Box::new(Sonata),
        Box::new(IlpBaseline::speed()),
        Box::new(IlpBaseline::mtp()),
        Box::new(IlpBaseline::flightplan()),
        Box::new(IlpBaseline::p4all()),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::new()),
    ]
}

/// The outcome of one construction, timed. None of these frameworks
/// optimizes `A_max`, so only zero overhead, a global lower bound, is
/// proven optimal.
fn timed(
    tdg: &Tdg,
    build: impl FnOnce() -> Result<DeploymentPlan, DeployError>,
) -> Result<SolveOutcome, DeployError> {
    let start = Instant::now();
    let plan = build()?;
    let objective = plan.max_inter_switch_bytes(tdg);
    let stats = SolveStats { nodes_explored: 0, wall: start.elapsed() };
    Ok(SolveOutcome { plan, objective, proven_optimal: objective == 0, stats })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_algorithms_with_unique_names() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 10);
        let names: std::collections::BTreeSet<&str> = suite.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains("Hermes"));
        assert!(names.contains("Optimal"));
    }
}
