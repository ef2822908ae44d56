//! First-fit greedy baselines: FFL and FFLS (Jose et al. \[8\], as extended
//! by the paper to deploy on switches one by one).
//!
//! Both walk the merged TDG level by level and pack MATs into the current
//! switch until it cannot take the next one, then move to the next
//! programmable switch. They never look at metadata amounts, so dependency
//! edges get cut wherever capacity happens to run out — exactly the
//! behaviour Hermes improves on.

use crate::timed;
use hermes_core::{
    first_fit, DeployError, DeploymentAlgorithm, DeploymentPlan, Epsilon, SearchContext,
    SolveOutcome,
};
use hermes_net::Network;
use hermes_tdg::{NodeId, Tdg};
use std::cmp::Ordering;

/// [`first_fit`] over the programmable switches of the largest component,
/// so routing between consecutive fill switches always exists (Table III
/// topology 5 is disconnected).
fn largest_component_first_fit(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    within_level: impl Fn(NodeId, NodeId) -> Ordering,
) -> Result<DeploymentPlan, DeployError> {
    let component = net.largest_component();
    let candidates: Vec<_> =
        net.programmable_switches().into_iter().filter(|s| component.contains(s)).collect();
    first_fit(tdg, net, eps, &candidates, within_level)
}

/// First fit by level.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitByLevel;

/// First fit by level and size.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFitByLevelAndSize;

impl DeploymentAlgorithm for FirstFitByLevel {
    fn name(&self) -> &str {
        "FFL"
    }

    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        largest_component_first_fit(tdg, net, eps, |a, b| a.cmp(&b))
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        _ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        timed(tdg, || self.deploy(tdg, net, eps))
    }
}

impl DeploymentAlgorithm for FirstFitByLevelAndSize {
    fn name(&self) -> &str {
        "FFLS"
    }

    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        // Within a level, largest resource first.
        let resource = |id: NodeId| tdg.node(id).mat.resource();
        largest_component_first_fit(tdg, net, eps, |a, b| {
            resource(b).partial_cmp(&resource(a)).unwrap_or(Ordering::Equal).then(a.cmp(&b))
        })
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        _ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        timed(tdg, || self.deploy(tdg, net, eps))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use hermes_core::{verify, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;

    fn testbed_inputs() -> (Tdg, Network) {
        hermes_core::test_support::linear_testbed(&library::real_programs())
    }

    #[test]
    fn ffl_places_everything_and_verifies() {
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::loose();
        let plan = FirstFitByLevel.deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ffls_places_everything_and_verifies() {
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::loose();
        let plan = FirstFitByLevelAndSize.deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn ffl_is_overhead_oblivious() {
        // On the testbed workload, Hermes should never be worse than FFL.
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::loose();
        let ffl = FirstFitByLevel.deploy(&tdg, &net, &eps).unwrap();
        let hermes = hermes_core::GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        assert!(
            hermes.max_inter_switch_bytes(&tdg) <= ffl.max_inter_switch_bytes(&tdg),
            "hermes {} vs ffl {}",
            hermes.max_inter_switch_bytes(&tdg),
            ffl.max_inter_switch_bytes(&tdg)
        );
        let _ = GreedyHeuristic::new();
    }

    #[test]
    fn no_programmable_switch_errors() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::acl()]);
        let mut net = Network::new();
        net.add_switch(hermes_net::Switch::legacy("l"));
        assert!(matches!(
            FirstFitByLevel.deploy(&tdg, &net, &Epsilon::loose()),
            Err(DeployError::NoProgrammableSwitch)
        ));
    }

    #[test]
    fn eps2_limits_switch_usage() {
        let (tdg, net) = testbed_inputs();
        let eps = Epsilon::new(f64::INFINITY, 1);
        // Ten merged programs do not fit one switch.
        let result = FirstFitByLevel.deploy(&tdg, &net, &eps);
        if let Ok(plan) = result {
            assert!(plan.occupied_switch_count() <= 1);
        }
    }
}
