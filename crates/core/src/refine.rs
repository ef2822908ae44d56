//! Local-search refinement of deployment plans.
//!
//! The splitting phase of Algorithm 2 restricts placements to contiguous
//! ranges of one topological linearization. When capacity is tight that
//! restriction leaves easy wins on the table: moving a single MAT across
//! the worst switch pair often removes the pair's crossing metadata
//! entirely. This pass hill-climbs on the exact objective — per move it
//! requires strictly smaller `A_max` and full feasibility (per-switch
//! stage assignment, switch-DAG acyclicity, ε-bounds) — so it terminates
//! and can only improve a plan. It refines *any* plan, including the
//! first-fit feasibility fallback.

use crate::deployment::{DeploymentPlan, Epsilon};
use crate::eval::IncrementalEval;
use crate::stage_assign::{materialize, StageProbe};
use hermes_net::{Network, SwitchId, TargetModel};
use hermes_tdg::{NodeId, Tdg};
use std::collections::{BTreeMap, BTreeSet};

/// Refines `plan` by single-node moves between its occupied switches.
/// Returns the improved plan, or the original when no strictly improving
/// move exists (or the plan has unplaced nodes).
///
/// Each trial move is evaluated through the shared hot-path machinery: the
/// [`IncrementalEval`] updates the objective and switch-DAG acyclicity in
/// O(degree) per move/revert, and the two switches a move touches are
/// repacked by one [`StageProbe`] selecting on the assignment vector.
pub fn refine(
    tdg: &Tdg,
    net: &Network,
    plan: DeploymentPlan,
    eps: &Epsilon,
    max_moves: usize,
) -> DeploymentPlan {
    let candidates: Vec<SwitchId> = plan.occupied_switches().into_iter().collect();
    if candidates.len() < 2 {
        return plan;
    }
    let index: BTreeMap<SwitchId, usize> =
        candidates.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut assign: Vec<usize> = Vec::with_capacity(tdg.node_count());
    for home in plan.switch_assignment(tdg.node_count()) {
        match home.and_then(|s| index.get(&s)) {
            Some(&c) => assign.push(c),
            None => return plan, // partial plans are not refined
        }
    }

    let q = candidates.len();
    let shapes: Vec<TargetModel> =
        candidates.iter().map(|&id| net.switch(id).target_model()).collect();
    let mut eval = IncrementalEval::new(tdg, q);
    let mut probe = StageProbe::new(tdg);
    for (node, &c) in assign.iter().enumerate() {
        eval.place(node, c);
    }

    let mut current = eval.amax();
    let mut moves = 0usize;
    while current > 0 && moves < max_moves {
        // The worst pair and the nodes whose edges feed it.
        let Some(worst) = (0..q * q).max_by_key(|&k| eval.pair_bytes(k / q, k % q)) else {
            break;
        };
        let (wu, wv) = (worst / q, worst % q);
        // Candidate movers: endpoints of edges crossing (wu, wv).
        let mut movers: BTreeSet<NodeId> = BTreeSet::new();
        for e in tdg.edges() {
            if assign[e.from.index()] == wu && assign[e.to.index()] == wv {
                movers.insert(e.from);
                movers.insert(e.to);
            }
        }
        let mut improved = false;
        'search: for &node in &movers {
            let n = node.index();
            let home = assign[n];
            for target in 0..q {
                if target == home {
                    continue;
                }
                // Trial: move the node, score, and check feasibility; on
                // rejection the move is reverted in O(degree).
                eval.unplace(n);
                eval.place(n, target);
                assign[n] = target;
                let gain = eval.amax();
                let accept = gain < current
                    && [home, target]
                        .iter()
                        .all(|&c| probe.fits(&shapes[c], |id| assign[id.index()] == c))
                    && eval.is_acyclic();
                if !accept {
                    eval.unplace(n);
                    eval.place(n, home);
                    assign[n] = home;
                    continue;
                }
                current = gain;
                improved = true;
                moves += 1;
                break 'search;
            }
        }
        if !improved {
            break;
        }
    }

    // Rebuild; if materialization fails or `A_max` grew, keep the original.
    match materialize(tdg, net, eps, &candidates, &assign) {
        Ok(refined) if refined.max_inter_switch_bytes(tdg) <= plan.max_inter_switch_bytes(tdg) => {
            refined
        }
        _ => plan,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::analyzer::ProgramAnalyzer;
    use crate::heuristic::GreedyHeuristic;
    use crate::solver::DeploymentAlgorithm;
    use crate::verify::verify;
    use hermes_dataplane::library;
    use hermes_net::topology;

    #[test]
    fn refinement_never_worsens_and_verifies() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let before = plan.max_inter_switch_bytes(&tdg);
        let refined = refine(&tdg, &net, plan, &eps, 1_000);
        assert!(refined.max_inter_switch_bytes(&tdg) <= before);
        assert!(verify(&tdg, &net, &refined, &eps).is_empty());
    }

    #[test]
    fn single_switch_plans_pass_through() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::l3_router()]);
        let net = topology::linear(2, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let refined = refine(&tdg, &net, plan.clone(), &eps, 100);
        assert_eq!(refined, plan);
    }

    #[test]
    fn zero_moves_budget_is_identity_quality() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let before = plan.max_inter_switch_bytes(&tdg);
        let refined = refine(&tdg, &net, plan, &eps, 0);
        assert_eq!(refined.max_inter_switch_bytes(&tdg), before);
    }
}
