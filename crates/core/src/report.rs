//! Human-readable deployment reports and plan diffs.
//!
//! `explain` renders what an operator needs to review before pushing a
//! deployment: per-switch stage layouts, the piggyback cost of every
//! coordinated pair, and the objective triple. `diff` quantifies the rule
//! churn between two plans — the operational cost the incremental
//! deployer (`crate::incremental`) exists to minimize.

use crate::deployment::DeploymentPlan;
use hermes_net::Network;
use hermes_tdg::{NodeId, Tdg};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Renders a multi-line report of the plan.
pub fn explain(tdg: &Tdg, net: &Network, plan: &DeploymentPlan) -> String {
    let mut out = String::new();
    let metrics = plan.metrics(tdg);
    let _ = writeln!(out, "deployment: {metrics}");

    for switch in plan.occupied_switches() {
        let sw = net.switch(switch);
        let nodes = plan.nodes_on(switch);
        let load: f64 =
            plan.placements().iter().filter(|p| p.switch == switch).map(|p| p.fraction).sum();
        let _ = writeln!(
            out,
            "  {} — {} MATs, {:.1}/{:.1} units",
            sw.name,
            nodes.len(),
            load,
            sw.total_capacity()
        );
        // Stage-ordered table listing.
        let mut by_first_stage: Vec<((usize, usize), NodeId)> =
            nodes.iter().filter_map(|&id| plan.stage_span(id).map(|span| (span, id))).collect();
        by_first_stage.sort_by_key(|&((begin, _), id)| (begin, id));
        for ((begin, end), id) in by_first_stage {
            let stages = if begin == end {
                format!("stage {begin}")
            } else {
                format!("stages {begin}-{end}")
            };
            let _ = writeln!(out, "    {:<40} {}", tdg.node(id).name, stages);
        }
    }

    let pairs = plan.inter_switch_bytes(tdg);
    if pairs.is_empty() {
        let _ = writeln!(out, "  no inter-switch coordination required");
    } else {
        for ((u, v), bytes) in pairs {
            let _ = writeln!(
                out,
                "  {} -> {}: {} B per packet",
                net.switch(u).name,
                net.switch(v).name,
                bytes
            );
        }
    }
    out
}

/// Churn between two plans over the same (or a grown) TDG, matched by
/// program-qualified MAT name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDiff {
    /// MATs on the same switch in both plans.
    pub unchanged: usize,
    /// MATs present in both but hosted by a different switch (rule
    /// migration required).
    pub moved: Vec<String>,
    /// MATs only in the new plan.
    pub added: Vec<String>,
    /// MATs only in the old plan.
    pub removed: Vec<String>,
}

impl PlanDiff {
    /// `true` iff nothing moved, appeared, or disappeared.
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }
}

/// Diffs two deployments, matching MATs by qualified name.
pub fn diff(
    old_tdg: &Tdg,
    old_plan: &DeploymentPlan,
    new_tdg: &Tdg,
    new_plan: &DeploymentPlan,
) -> PlanDiff {
    let host = |tdg: &Tdg, plan: &DeploymentPlan| -> BTreeMap<String, hermes_net::SwitchId> {
        tdg.node_ids()
            .filter_map(|id| plan.switch_of(id).map(|s| (tdg.node(id).name.clone(), s)))
            .collect()
    };
    let old = host(old_tdg, old_plan);
    let new = host(new_tdg, new_plan);
    let old_names: BTreeSet<&String> = old.keys().collect();
    let new_names: BTreeSet<&String> = new.keys().collect();

    let mut unchanged = 0usize;
    let mut moved = Vec::new();
    for name in old_names.intersection(&new_names) {
        if old[*name] == new[*name] {
            unchanged += 1;
        } else {
            moved.push((*name).clone());
        }
    }
    PlanDiff {
        unchanged,
        moved,
        added: new_names.difference(&old_names).map(|s| (*s).clone()).collect(),
        removed: old_names.difference(&new_names).map(|s| (*s).clone()).collect(),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::analyzer::ProgramAnalyzer;
    use crate::deployment::Epsilon;
    use crate::heuristic::GreedyHeuristic;
    use crate::incremental::IncrementalDeployer;
    use crate::solver::DeploymentAlgorithm;
    use hermes_dataplane::library;
    use hermes_net::topology;

    #[test]
    fn explain_covers_switches_and_pairs() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let text = explain(&tdg, &net, &plan);
        assert!(text.contains("deployment: A_max="));
        for s in plan.occupied_switches() {
            assert!(text.contains(&net.switch(s).name));
        }
        if plan.max_inter_switch_bytes(&tdg) > 0 {
            assert!(text.contains("B per packet"));
        }
    }

    #[test]
    fn diff_of_identical_plans_is_empty() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let d = diff(&tdg, &plan, &tdg, &plan);
        assert!(d.is_empty());
        assert_eq!(d.unchanged, tdg.node_count());
    }

    #[test]
    fn incremental_growth_shows_only_additions() {
        let net = topology::linear(4, 10.0);
        let eps = Epsilon::loose();
        let old_programs: Vec<_> = library::real_programs().into_iter().take(4).collect();
        let old_tdg = ProgramAnalyzer::new().analyze(&old_programs);
        let old_plan = GreedyHeuristic::new().deploy(&old_tdg, &net, &eps).unwrap();

        let new_programs: Vec<_> = library::real_programs().into_iter().take(5).collect();
        let new_tdg = ProgramAnalyzer::new().analyze(&new_programs);
        let out =
            IncrementalDeployer::new().redeploy(&old_tdg, &old_plan, &new_tdg, &net, &eps).unwrap();
        let d = diff(&old_tdg, &old_plan, &new_tdg, &out.plan);
        if !out.full_redeploy {
            assert!(d.moved.is_empty(), "pinned MATs must not move: {:?}", d.moved);
            assert!(d.removed.is_empty());
            assert!(!d.added.is_empty());
        }
    }

    #[test]
    fn moved_mats_detected() {
        // Deploy the same TDG on two different anchor offsets by using
        // different networks (switch identity differs in name).
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(4, 10.0);
        let eps = Epsilon::loose();
        let a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        // A fabricated "plan" with everything shifted by one switch.
        let ids: Vec<_> = net.switch_ids().collect();
        let mut shifted = DeploymentPlan::new();
        for p in a.placements() {
            let idx = ids.iter().position(|&s| s == p.switch).unwrap();
            shifted.place(crate::deployment::StagePlacement {
                switch: ids[(idx + 1) % ids.len()],
                ..p.clone()
            });
        }
        let d = diff(&tdg, &a, &tdg, &shifted);
        assert_eq!(d.moved.len(), tdg.node_count());
        assert_eq!(d.unchanged, 0);
    }
}
