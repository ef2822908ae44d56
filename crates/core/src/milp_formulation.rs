//! The MILP formulation of problem **P#1** (paper §V-A–§V-C).
//!
//! Encodes deployment as a mixed-integer program over `hermes-milp`:
//!
//! - binaries `z(a, u)` place MAT `a` on programmable switch `u`
//!   (the switch-level aggregation of the paper's `x(a, i, u)` — stage
//!   indices are recovered afterwards by the deterministic stage assigner,
//!   which is exact because per-switch stage feasibility is independent of
//!   the inter-switch objective);
//! - continuous `w(e, u, v) ≥ z(a,u) + z(b,v) − 1` linearize the products
//!   in Eq. 1, and the epigraph variable `A_max ≥ Σ_e A(e)·w(e, u, v)`
//!   per ordered switch pair yields Obj#1;
//! - rank variables `r(u)` with big-M order constraints keep the
//!   switch-level dependency graph acyclic (the chainability implied by
//!   Eq. 7);
//! - optional knapsack rows enforce per-switch resources (Eq. 9 in
//!   aggregate) and the ε-bounds (Eq. 4–5).
//!
//! The rows that do not mention `A_max` — `z` with Eq. 6, Eq. 9, the Eq. 7
//! ranks and the Eq. 5 occupancy bound — and the decode of `z` back into an
//! assignment are written once here ([`placement_rows`], [`rank_rows`],
//! [`occupancy_rows`], [`decode_assignment`]); the ILP baselines build
//! their models from the same functions, row for row.
//!
//! Solved exactly on small instances; on large ones the branch-and-bound
//! runs to its time budget and returns the incumbent — the behaviour the
//! execution-time experiment (Exp#3) measures.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use crate::solver::{DeploymentAlgorithm, SearchContext, SolveOutcome, SolveStats};
use crate::stage_assign::materialize;
use hermes_milp::{
    Direction, LinExpr, MipSolution, Model, Sense, SolveStatus, SolverConfig, VarId,
};
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_tdg::Tdg;
use std::time::Instant;

/// Variable handles of a built P#1 model.
#[derive(Debug, Clone)]
pub struct P1Variables {
    /// `z[a][c]`: node `a` on candidate switch index `c`.
    pub placement: Vec<Vec<VarId>>,
    /// The epigraph variable for `A_max`.
    pub a_max: VarId,
    /// The candidate (programmable) switches, indexing the inner `Vec`s.
    pub candidates: Vec<SwitchId>,
}

/// Builds the P#1 model for `tdg` on `net` under the ε-bounds.
///
/// # Panics
///
/// Panics if the network has no programmable switch; callers check first.
pub fn build_p1(tdg: &Tdg, net: &Network, eps: &Epsilon) -> (Model, P1Variables) {
    let candidates = net.programmable_switches();
    assert!(!candidates.is_empty(), "P#1 needs at least one programmable switch");
    let q = candidates.len();
    let mut model = Model::new("hermes-p1");
    let placement = placement_rows(&mut model, tdg, net, &candidates);
    let a_max = model.continuous("A_max", 0.0, f64::INFINITY);

    // Linearized pair products + the A_max epigraph (Eq. 1).
    let edges: Vec<_> = tdg.edges().to_vec();
    let mut pair_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); q * q];
    let mut w_vars: Vec<Vec<VarId>> = Vec::new();
    for (ei, e) in edges.iter().enumerate() {
        let mut per_edge = Vec::with_capacity(q * q);
        for u in 0..q {
            for v in 0..q {
                if u == v {
                    continue;
                }
                let w = model.continuous(format!("w_{ei}_{u}_{v}"), 0.0, 1.0);
                // w >= z(a,u) + z(b,v) - 1
                model.add_constraint(
                    format!("wlin_{ei}_{u}_{v}"),
                    LinExpr::from(w)
                        - LinExpr::from(placement[e.from.index()][u])
                        - LinExpr::from(placement[e.to.index()][v]),
                    Sense::Ge,
                    -1.0,
                );
                if e.bytes > 0 {
                    pair_terms[u * q + v].push((w, f64::from(e.bytes)));
                }
                per_edge.push(w);
            }
        }
        w_vars.push(per_edge);
    }
    for u in 0..q {
        for v in 0..q {
            if u == v || pair_terms[u * q + v].is_empty() {
                continue;
            }
            model.add_constraint(
                format!("amax_{u}_{v}"),
                LinExpr::from(a_max) - LinExpr::sum(pair_terms[u * q + v].iter().copied()),
                Sense::Ge,
                0.0,
            );
        }
    }

    rank_rows(&mut model, tdg, &placement, q);

    // Eq. 4: latency bound over shortest-path pair latencies (only when
    // finite — the experiments run with loose bounds).
    if eps.max_latency_us.is_finite() {
        let mut latency_terms: Vec<(VarId, f64)> = Vec::new();
        for (ei, _) in edges.iter().enumerate() {
            let mut idx = 0usize;
            for u in 0..q {
                for v in 0..q {
                    if u == v {
                        continue;
                    }
                    if let Some(p) = shortest_path(net, candidates[u], candidates[v]) {
                        latency_terms.push((w_vars[ei][idx], p.latency_us));
                    }
                    idx += 1;
                }
            }
        }
        model.add_constraint("eps1", LinExpr::sum(latency_terms), Sense::Le, eps.max_latency_us);
    }

    occupancy_rows(&mut model, &placement, q, eps.max_switches);

    model.set_objective(Direction::Minimize, LinExpr::from(a_max));
    (model, P1Variables { placement, a_max, candidates })
}

/// Adds the binaries `z(a, c)` (MAT `a` on candidate `c`, named `z_a_c`)
/// with Eq. 6 — every MAT on exactly one switch (`place_a`) — and Eq. 9
/// in aggregate — per-switch resource capacity (`cap_c`). Returns `z`,
/// indexed by node, then candidate.
pub fn placement_rows(
    model: &mut Model,
    tdg: &Tdg,
    net: &Network,
    candidates: &[SwitchId],
) -> Vec<Vec<VarId>> {
    let q = candidates.len();
    let z: Vec<Vec<VarId>> = (0..tdg.node_count())
        .map(|a| (0..q).map(|c| model.binary(format!("z_{a}_{c}"))).collect())
        .collect();
    for (a, vars) in z.iter().enumerate() {
        model.add_constraint(
            format!("place_{a}"),
            LinExpr::sum(vars.iter().map(|&v| (v, 1.0))),
            Sense::Eq,
            1.0,
        );
    }
    for (c, &sw) in candidates.iter().enumerate() {
        let cap = net.switch(sw).total_capacity();
        let load =
            LinExpr::sum(z.iter().zip(tdg.nodes()).map(|(vars, n)| (vars[c], n.mat.resource())));
        model.add_constraint(format!("cap_{c}"), load, Sense::Le, cap);
    }
    z
}

/// Eq. 7 (chainability): rank variables `r_c` for the `q` candidates with
/// one big-M row `rank_e_u_v` per edge and ordered candidate pair, keeping
/// the switch-level dependency graph acyclic.
pub fn rank_rows(model: &mut Model, tdg: &Tdg, z: &[Vec<VarId>], q: usize) {
    let big_m = (q + 1) as f64;
    let ranks: Vec<VarId> =
        (0..q).map(|c| model.continuous(format!("r_{c}"), 0.0, q as f64)).collect();
    for (ei, e) in tdg.edges().iter().enumerate() {
        for u in 0..q {
            for v in 0..q {
                if u == v {
                    continue;
                }
                // r_u + 1 <= r_v + M(2 - z(a,u) - z(b,v))
                model.add_constraint(
                    format!("rank_{ei}_{u}_{v}"),
                    LinExpr::from(ranks[u]) - LinExpr::from(ranks[v])
                        + LinExpr::from(z[e.from.index()][u]) * big_m
                        + LinExpr::from(z[e.to.index()][v]) * big_m,
                    Sense::Le,
                    2.0 * big_m - 1.0,
                );
            }
        }
    }
}

/// Eq. 5, only when binding (`max_switches` below the candidate count
/// `q`): binaries `occ_c` with rows `occ_a_c` (`occ_c ≥ z(a, c)`) and the
/// bound `eps2`.
pub fn occupancy_rows(model: &mut Model, z: &[Vec<VarId>], q: usize, max_switches: usize) {
    if max_switches >= q {
        return;
    }
    let occ: Vec<VarId> = (0..q).map(|c| model.binary(format!("occ_{c}"))).collect();
    for (a, vars) in z.iter().enumerate() {
        for c in 0..q {
            model.add_constraint(
                format!("occ_{a}_{c}"),
                LinExpr::from(occ[c]) - LinExpr::from(vars[c]),
                Sense::Ge,
                0.0,
            );
        }
    }
    model.add_constraint(
        "eps2",
        LinExpr::sum(occ.iter().map(|&v| (v, 1.0))),
        Sense::Le,
        max_switches as f64,
    );
}

/// The assignment an incumbent encodes: `assign[a]` = the candidate whose
/// `z(a, c)` is set. `None` if some MAT has none.
pub fn decode_assignment(solution: &MipSolution, z: &[Vec<VarId>]) -> Option<Vec<usize>> {
    z.iter().map(|vars| vars.iter().position(|&v| solution.value(v) > 0.5)).collect()
}

/// Hermes solved through the MILP formulation — the "Optimal (Gurobi)"
/// configuration of the paper, backed by `hermes-milp`.
#[derive(Debug, Clone, Default)]
pub struct MilpHermes {
    /// Branch-and-bound knobs. Its deadline is not one of them: each solve
    /// runs to its [`SearchContext`]'s.
    pub config: SolverConfig,
}

impl MilpHermes {
    /// MILP-backed Hermes with the given branch-and-bound knobs.
    pub fn new(config: SolverConfig) -> Self {
        MilpHermes { config }
    }
}

impl DeploymentAlgorithm for MilpHermes {
    fn name(&self) -> &str {
        "Hermes-MILP"
    }

    fn is_exhaustive(&self) -> bool {
        true
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let start = Instant::now();
        if net.programmable_switches().is_empty() {
            return Err(DeployError::NoProgrammableSwitch);
        }
        if tdg.node_count() == 0 {
            return Ok(SolveOutcome {
                plan: DeploymentPlan::new(),
                objective: 0,
                proven_optimal: true,
                stats: SolveStats { nodes_explored: 0, wall: start.elapsed() },
            });
        }
        let (model, vars) = build_p1(tdg, net, eps);
        let config = SolverConfig { deadline: ctx.deadline(), ..self.config.clone() };
        let solution = hermes_milp::solve(&model, &config)
            .map_err(|e| DeployError::NoFeasiblePlacement { reason: format!("milp error: {e}") })?;
        let nodes_explored = solution.nodes_explored as u64;
        match solution.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                let assign = decode_assignment(&solution, &vars.placement).ok_or_else(|| {
                    DeployError::NoFeasiblePlacement {
                        reason: "the milp incumbent leaves a MAT unplaced".to_owned(),
                    }
                })?;
                let plan = materialize(tdg, net, eps, &vars.candidates, &assign)?;
                Ok(SolveOutcome {
                    objective: plan.max_inter_switch_bytes(tdg),
                    plan,
                    proven_optimal: solution.status == SolveStatus::Optimal,
                    stats: SolveStats { nodes_explored, wall: start.elapsed() },
                })
            }
            other => Err(DeployError::NoFeasiblePlacement {
                reason: format!("milp terminated with {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::exact::OptimalSolver;
    use crate::test_support::{chain_tdg, tiny_switches};
    use std::time::Duration;

    #[test]
    fn milp_matches_exact_on_figure1() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::loose();
        let milp_plan = MilpHermes::default().deploy(&tdg, &net, &eps).unwrap();
        let exact = OptimalSolver::new()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(milp_plan.max_inter_switch_bytes(&tdg), exact.objective);
        assert_eq!(milp_plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn milp_solve_reports_proven_optimality() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(30));
        let outcome = MilpHermes::default().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap();
        assert!(outcome.proven_optimal);
        assert_eq!(outcome.objective, 1);
    }

    #[test]
    fn milp_plan_verifies() {
        let tdg = chain_tdg(&[3, 1, 2], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::loose();
        let plan = MilpHermes::default().deploy(&tdg, &net, &eps).unwrap();
        let violations = crate::verify::verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn model_shape_is_as_documented() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let (model, vars) = build_p1(&tdg, &net, &Epsilon::loose());
        // 3 nodes * 2 switches binaries + A_max + 2 edges * 2 pairs w + 2 ranks.
        assert_eq!(vars.placement.len(), 3);
        assert_eq!(model.variables().len(), 6 + 1 + 4 + 2);
        assert!(model.validate().is_ok());
    }

    #[test]
    fn zero_overhead_when_one_switch_suffices() {
        let tdg = chain_tdg(&[9, 9], 0.2);
        let net = tiny_switches(2, 12, 1.0);
        let plan = MilpHermes::default().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 0);
    }

    #[test]
    fn infeasible_capacity_is_reported() {
        // 3 x 0.5 units on a single 1-stage/0.5-capacity switch network.
        let tdg = chain_tdg(&[1, 1], 0.5);
        let net = tiny_switches(1, 1, 0.5);
        let err = MilpHermes::default().deploy(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
    }
}
