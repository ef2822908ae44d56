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
//! iterate over one uniform suite (see [`standard_suite`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod greedy;
pub mod ilp;

pub use greedy::{FirstFitByLevel, FirstFitByLevelAndSize};
pub use ilp::{IlpBaseline, IlpConfig, IlpObjective, Sonata};

use hermes_core::{Budgeted, DeploymentAlgorithm, GreedyHeuristic, OptimalSolver};
use std::time::Duration;

/// The full algorithm suite of the paper's evaluation, in its figure
/// order: MS, Sonata, SPEED, MTP, FP, P4All, FFL, FFLS, Hermes, Optimal.
///
/// `ilp_budget` bounds each ILP-based framework's solve (and the Optimal
/// search); the paper's Gurobi runs are capped at two hours the same way.
pub fn standard_suite(ilp_budget: Duration) -> Vec<Box<dyn DeploymentAlgorithm>> {
    let config = IlpConfig { time_limit: ilp_budget, ..Default::default() };
    vec![
        Box::new(IlpBaseline::min_stage(config.clone())),
        Box::new(Sonata),
        Box::new(IlpBaseline::speed(config.clone())),
        Box::new(IlpBaseline::mtp(config.clone())),
        Box::new(IlpBaseline::flightplan(config.clone())),
        Box::new(IlpBaseline::p4all(config)),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
        Box::new(GreedyHeuristic::new()),
        Box::new(Budgeted::new(OptimalSolver::new(), ilp_budget)),
    ]
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_algorithms_with_unique_names() {
        let suite = standard_suite(Duration::from_secs(1));
        assert_eq!(suite.len(), 10);
        let names: std::collections::BTreeSet<&str> = suite.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains("Hermes"));
        assert!(names.contains("Optimal"));
    }
}
