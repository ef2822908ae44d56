//! Incremental redeployment: admit new programs without disturbing what
//! already runs.
//!
//! The paper deploys a fixed program set offline. Operationally,
//! administrators add measurement tasks one at a time, and reshuffling
//! every switch for each addition would churn rules network-wide. This
//! extension keeps every MAT of the existing deployment where it is
//! (matched by qualified name *and* structural signature), places only
//! the new MATs into residual capacity — respecting dependencies, stage
//! feasibility, and the established switch visit order — and falls back
//! to a full redeploy only when the pinned placement is infeasible.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use crate::heuristic::{placement_order, GreedyHeuristic};
use crate::solver::{DeploymentAlgorithm, Portfolio, SearchContext};
use crate::stage_assign::{materialize, StageProbe};
use hermes_net::{nearest_programmable, Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// Result of an incremental redeploy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalOutcome {
    /// The new plan covering the whole (new) merged TDG.
    pub plan: DeploymentPlan,
    /// MATs that kept their switch from the previous deployment.
    pub reused: usize,
    /// MATs that are new or had to move (0 moved unless full fallback).
    pub placed: usize,
    /// `true` when pinning failed and a full redeploy was performed.
    pub full_redeploy: bool,
}

impl fmt::Display for IncrementalOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reused + {} placed{} ({})",
            self.reused,
            self.placed,
            if self.full_redeploy { " via full redeploy" } else { "" },
            self.plan
        )
    }
}

/// Options controlling an incremental redeploy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RedeployOptions {
    /// Switches that must not host any MAT in the new plan (typically
    /// failed or draining switches). Pinned placements on these switches
    /// are dropped and their MATs re-homed into residual capacity
    /// elsewhere; the full-redeploy fallback also avoids them.
    pub exclude: BTreeSet<SwitchId>,
    /// When set, the full-redeploy fallback follows the greedy heuristic
    /// with the exact search it seeds ([`Portfolio::greedy_exact`]) under
    /// this wall-clock budget instead of running the heuristic alone: the
    /// heuristic guarantees an answer, and the exact search improves on it
    /// whenever the instance is small enough to finish in time.
    /// `None` (the default) keeps the plain heuristic fallback.
    pub exact_budget_ms: Option<u64>,
}

impl RedeployOptions {
    /// Options for healing after the given switches failed.
    pub fn excluding(switches: impl IntoIterator<Item = SwitchId>) -> Self {
        RedeployOptions { exclude: switches.into_iter().collect(), ..Default::default() }
    }

    /// Builder: greedy then exact under `budget` on full redeploys.
    #[must_use]
    pub fn with_exact_budget(mut self, budget: Duration) -> Self {
        self.exact_budget_ms = Some(budget.as_millis().try_into().unwrap_or(u64::MAX));
        self
    }

    /// `true` iff `s` may host MATs under these options and is up in `net`.
    fn usable(&self, net: &Network, s: SwitchId) -> bool {
        !self.exclude.contains(&s) && net.is_switch_up(s)
    }
}

/// Incremental deployer wrapping the greedy heuristic.
#[derive(Debug, Clone, Default)]
pub struct IncrementalDeployer {
    fallback: GreedyHeuristic,
}

impl IncrementalDeployer {
    /// Creates a deployer with the default (paper) heuristic as fallback.
    pub fn new() -> Self {
        IncrementalDeployer::default()
    }

    /// Redeploys `new_tdg` given the previous `(old_tdg, old_plan)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when neither pinned placement nor a full
    /// redeploy is feasible.
    pub fn redeploy(
        &self,
        old_tdg: &Tdg,
        old_plan: &DeploymentPlan,
        new_tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<IncrementalOutcome, DeployError> {
        self.redeploy_with(old_tdg, old_plan, new_tdg, net, eps, &RedeployOptions::default())
    }

    /// Like [`IncrementalDeployer::redeploy`], but honoring
    /// [`RedeployOptions`]: placements on excluded (or down) switches are
    /// not pinned, and neither the pinned attempt nor the full-redeploy
    /// fallback places MATs there. This is the healing entry point after a
    /// switch failure: exclude the failed switches and the surviving
    /// placements stay put while only the lost MATs are re-homed.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when neither pinned placement nor a full
    /// redeploy is feasible under the options.
    pub fn redeploy_with(
        &self,
        old_tdg: &Tdg,
        old_plan: &DeploymentPlan,
        new_tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        opts: &RedeployOptions,
    ) -> Result<IncrementalOutcome, DeployError> {
        match self.try_pinned(old_tdg, old_plan, new_tdg, net, eps, opts) {
            Some(outcome) => Ok(outcome),
            None => {
                // The fallback solvers only know programmability, so mask
                // excluded switches out of a scratch copy of the network.
                let masked;
                let deploy_net = if opts.exclude.is_empty() {
                    net
                } else {
                    let mut scratch = net.clone();
                    for &s in &opts.exclude {
                        scratch.switch_mut(s).programmable = false;
                    }
                    masked = scratch;
                    &masked
                };
                let plan = match opts.exact_budget_ms {
                    None => self.fallback.deploy(new_tdg, deploy_net, eps)?,
                    Some(ms) => {
                        let ctx = SearchContext::with_time_limit(Duration::from_millis(ms));
                        Portfolio::greedy_exact().solve(new_tdg, deploy_net, eps, &ctx)?.plan
                    }
                };
                Ok(IncrementalOutcome {
                    placed: new_tdg.node_count(),
                    reused: 0,
                    full_redeploy: true,
                    plan,
                })
            }
        }
    }

    fn try_pinned(
        &self,
        old_tdg: &Tdg,
        old_plan: &DeploymentPlan,
        new_tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        opts: &RedeployOptions,
    ) -> Option<IncrementalOutcome> {
        // Identify reusable nodes: same qualified name and signature, on a
        // switch that is still usable.
        let old_by_name: BTreeMap<&str, NodeId> =
            old_tdg.node_ids().map(|id| (old_tdg.node(id).name.as_str(), id)).collect();
        let old_assign = old_plan.switch_assignment(old_tdg.node_count());
        let mut home: Vec<Option<SwitchId>> = vec![None; new_tdg.node_count()];
        for id in new_tdg.node_ids() {
            let node = new_tdg.node(id);
            if let Some(&old_id) = old_by_name.get(node.name.as_str()) {
                if old_tdg.node(old_id).mat.signature() == node.mat.signature() {
                    if let Some(switch) = old_assign[old_id.index()] {
                        if opts.usable(net, switch) {
                            home[id.index()] = Some(switch);
                        }
                    }
                }
            }
        }

        // Establish a switch rank from the old plan's visit order (minus
        // unusable switches); new switches are appended after it (nearest
        // unused programmable).
        let mut order: Vec<SwitchId> = old_plan.switch_visit_order(old_tdg)?;
        order.retain(|&s| opts.usable(net, s));
        let anchor = order
            .first()
            .copied()
            .or_else(|| net.programmable_switches().into_iter().find(|&s| opts.usable(net, s)))?;
        if !order.contains(&anchor) {
            order.push(anchor);
        }
        for (s, _) in nearest_programmable(net, anchor, net.switch_count(), eps.max_latency_us) {
            if opts.usable(net, s) && !order.contains(&s) {
                order.push(s);
            }
        }
        let rank: BTreeMap<SwitchId, usize> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        // Pinned nodes on switches outside the order (shouldn't happen)
        // abort the pinned attempt.
        if home.iter().flatten().any(|s| !rank.contains_key(s)) {
            return None;
        }
        let reused = home.iter().flatten().count();

        // Assign the remaining nodes in clustered topological order.
        let mut probe = StageProbe::new(new_tdg);
        for id in placement_order(new_tdg)? {
            if home[id.index()].is_some() {
                continue;
            }
            // Dependencies force a minimum rank.
            let min_rank = new_tdg
                .in_edges(id)
                .filter_map(|e| home[e.from.index()])
                .map(|s| rank[&s])
                .max()
                .unwrap_or(0);
            let slot = order[min_rank..].iter().copied().find(|&s| {
                let model = net.switch(s).target_model();
                probe.fits(&model, |n| n == id || home[n.index()] == Some(s))
            })?;
            home[id.index()] = Some(slot);
        }

        // Dependencies must respect the established visit order, or the
        // pinned deployment would need recirculation.
        let home: Vec<SwitchId> = home.into_iter().collect::<Option<_>>()?;
        if new_tdg.edges().iter().any(|e| rank[&home[e.from.index()]] > rank[&home[e.to.index()]]) {
            return None;
        }
        let occupied: Vec<SwitchId> =
            home.iter().copied().collect::<BTreeSet<_>>().into_iter().collect();
        let assign: Vec<usize> =
            home.iter().map(|s| occupied.binary_search(s).unwrap_or(usize::MAX)).collect();
        let plan = materialize(new_tdg, net, eps, &occupied, &assign).ok()?;
        Some(IncrementalOutcome {
            placed: new_tdg.node_count() - reused,
            reused,
            full_redeploy: false,
            plan,
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::analyzer::ProgramAnalyzer;
    use crate::verify::verify;
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn deploy_first_n(n: usize) -> (Tdg, DeploymentPlan, Network) {
        let programs: Vec<_> = library::real_programs().into_iter().take(n).collect();
        let tdg = ProgramAnalyzer::new().analyze(&programs);
        let net = topology::linear(4, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        (tdg, plan, net)
    }

    #[test]
    fn adding_a_program_reuses_existing_placements() {
        let (old_tdg, old_plan, net) = deploy_first_n(4);
        let new_tdg = ProgramAnalyzer::new()
            .analyze(&library::real_programs().into_iter().take(5).collect::<Vec<_>>());
        let eps = Epsilon::loose();
        let out =
            IncrementalDeployer::new().redeploy(&old_tdg, &old_plan, &new_tdg, &net, &eps).unwrap();
        assert!(verify(&new_tdg, &net, &out.plan, &eps).is_empty());
        if !out.full_redeploy {
            assert_eq!(out.reused, old_tdg.node_count(), "every old MAT stays put");
            // Reused MATs really kept their switches.
            for old_id in old_tdg.node_ids() {
                let name = &old_tdg.node(old_id).name;
                let new_id = new_tdg.node_by_name(name).unwrap();
                assert_eq!(old_plan.switch_of(old_id), out.plan.switch_of(new_id), "{name}");
            }
        }
    }

    #[test]
    fn identical_workload_reuses_everything() {
        let (old_tdg, old_plan, net) = deploy_first_n(4);
        let out = IncrementalDeployer::new()
            .redeploy(&old_tdg, &old_plan, &old_tdg, &net, &Epsilon::loose())
            .unwrap();
        assert!(!out.full_redeploy);
        assert_eq!(out.reused, old_tdg.node_count());
        assert_eq!(out.placed, 0);
    }

    #[test]
    fn infeasible_pinning_falls_back_to_full_redeploy() {
        // Deploy 2 programs on 4 switches, then ask for all 10 with an
        // eps2 that the padded incremental layout cannot satisfy but a
        // fresh deployment can.
        let (old_tdg, old_plan, net) = deploy_first_n(2);
        let new_tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let eps = Epsilon::loose();
        let out =
            IncrementalDeployer::new().redeploy(&old_tdg, &old_plan, &new_tdg, &net, &eps).unwrap();
        assert!(verify(&new_tdg, &net, &out.plan, &eps).is_empty());
    }

    #[test]
    fn healing_rehomes_only_lost_mats() {
        let (tdg, plan, mut net) = deploy_first_n(4);
        let eps = Epsilon::loose();
        // Fail one occupied switch and heal with it excluded.
        let dead = *plan.occupied_switches().iter().next().expect("plan occupies switches");
        let lost = plan.nodes_on(dead).len();
        assert!(lost > 0);
        net.fail_switch(dead);
        let opts = RedeployOptions::excluding([dead]);
        let out =
            IncrementalDeployer::new().redeploy_with(&tdg, &plan, &tdg, &net, &eps, &opts).unwrap();
        assert!(verify(&tdg, &net, &out.plan, &eps).is_empty());
        assert!(!out.plan.occupied_switches().contains(&dead), "no MAT on the dead switch");
        if !out.full_redeploy {
            assert_eq!(out.reused, tdg.node_count() - lost);
            assert_eq!(out.placed, lost);
            // Survivors really kept their switches.
            for id in tdg.node_ids() {
                if plan.switch_of(id) != Some(dead) {
                    assert_eq!(plan.switch_of(id), out.plan.switch_of(id));
                }
            }
        }
    }

    #[test]
    fn excluding_an_up_switch_keeps_it_empty_even_on_fallback() {
        let (tdg, plan, net) = deploy_first_n(2);
        let eps = Epsilon::loose();
        for s in net.switch_ids() {
            if !net.switch(s).programmable {
                continue;
            }
            let opts = RedeployOptions::excluding([s]);
            let Ok(out) =
                IncrementalDeployer::new().redeploy_with(&tdg, &plan, &tdg, &net, &eps, &opts)
            else {
                continue; // capacity may not allow healing around s
            };
            assert!(!out.plan.occupied_switches().contains(&s), "excluded {s} must stay empty");
        }
    }

    #[test]
    fn exact_budget_runs_the_portfolio_on_full_redeploy() {
        // Two independent chains whose fabricated old plan crosses them
        // over the switches in opposite directions: the old visit order is
        // cyclic, so pinning always aborts and the fallback runs. With an
        // exact budget, the fallback is the greedy-then-exact portfolio.
        use crate::deployment::StagePlacement;
        let programs = hermes_dataplane::parser::parse_programs(
            "program p1 { metadata m.a: 4;
               table a { actions { w { m.a = hash(m.a); } } resource 0.2; }
               table b { key { m.a: exact; } actions { n { } } resource 0.2; } }
             program p2 { metadata m.c: 4;
               table c { actions { w { m.c = hash(m.c); } } resource 0.2; }
               table d { key { m.c: exact; } actions { n { } } resource 0.2; } }",
        )
        .unwrap();
        let tdg = ProgramAnalyzer::new().analyze(&programs);
        assert_eq!((tdg.node_count(), tdg.edge_count()), (4, 2));
        let net = topology::linear(2, 10.0);
        let switches: Vec<_> = net.programmable_switches();
        let (s0, s1) = (switches[0], switches[1]);
        let nodes: Vec<_> = tdg.node_ids().collect();
        // a -> s0, b -> s1 (forward), c -> s1, d -> s0 (backward): cyclic.
        let mut fake = DeploymentPlan::new();
        for (i, &node) in nodes.iter().enumerate() {
            let switch = if matches!(i, 0 | 3) { s0 } else { s1 };
            fake.place(StagePlacement { node, switch, stage: 0, fraction: 0.2 });
        }
        let eps = Epsilon::loose();
        let deployer = IncrementalDeployer::new();
        let budgeted = RedeployOptions::default().with_exact_budget(Duration::from_secs(5));
        assert_eq!(budgeted.exact_budget_ms, Some(5_000));
        let out = deployer.redeploy_with(&tdg, &fake, &tdg, &net, &eps, &budgeted).unwrap();
        assert!(out.full_redeploy, "cyclic old order must force the fallback");
        assert!(verify(&tdg, &net, &out.plan, &eps).is_empty());
        let base = deployer
            .redeploy_with(&tdg, &fake, &tdg, &net, &eps, &RedeployOptions::default())
            .unwrap();
        assert!(
            out.plan.max_inter_switch_bytes(&tdg) <= base.plan.max_inter_switch_bytes(&tdg),
            "the exact stage can only improve on the heuristic"
        );
    }

    #[test]
    fn growing_workload_stays_verified_at_each_step() {
        let net = topology::linear(4, 10.0);
        let eps = Epsilon::loose();
        let mut prev: Option<(Tdg, DeploymentPlan)> = None;
        for n in 1..=6usize {
            let programs: Vec<_> = library::real_programs().into_iter().take(n).collect();
            let tdg = ProgramAnalyzer::new().analyze(&programs);
            let plan = match &prev {
                None => GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap(),
                Some((old_tdg, old_plan)) => {
                    IncrementalDeployer::new()
                        .redeploy(old_tdg, old_plan, &tdg, &net, &eps)
                        .unwrap()
                        .plan
                }
            };
            assert!(verify(&tdg, &net, &plan, &eps).is_empty(), "step {n}");
            prev = Some((tdg, plan));
        }
    }
}
