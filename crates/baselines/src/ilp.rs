//! ILP-based comparison frameworks: Min-Stage, Sonata, SPEED, MTP,
//! Flightplan, and P4All.
//!
//! Each framework keeps its published optimization objective but — like
//! the paper's re-implementations — runs on the same solver (here
//! `hermes-milp` in place of Gurobi) over the switch-granularity
//! assignment encoding of [`hermes_core::build_p1`], minus the `A_max`
//! objective none of them optimizes:
//!
//! | Framework | Objective encoded |
//! |---|---|
//! | Min-Stage (MS) | pack MATs into the lowest-indexed switches (stage-count proxy) |
//! | Sonata | per-program sequential pack-left ILPs |
//! | SPEED | minimize end-to-end coordination latency |
//! | MTP | SPEED + rule-capacity balance term (control-plane load) |
//! | Flightplan (FP) | minimize the number of cut dependency edges |
//! | P4All | minimize the maximum per-switch load (elastic headroom) |
//!
//! That encoding is P#1's own code: the placement binaries with Eq. 6 and
//! Eq. 9, the Eq. 7 ranks, the Eq. 5 occupancy bound and the decode back
//! into an assignment are [`hermes_core::milp_formulation`]'s functions,
//! called in P#1's order, so the rows match P#1's name for name. Every
//! plan is built by [`hermes_core::materialize`].
//!
//! Exactly as in the paper, these solvers blow up on large instances;
//! every framework therefore stops (a) at its [`SearchContext`]'s deadline,
//! using the incumbent, and (b) before it starts, for a documented greedy
//! *surrogate*, when the model would not even fit in memory
//! ([`MAX_BINARIES`], [`MAX_RANK_CELLS`]). Exp#3 measures the ILP attempt
//! time; overhead experiments consume the decisions.

use hermes_core::milp_formulation::{decode_assignment, occupancy_rows, placement_rows, rank_rows};
use hermes_core::{
    materialize, DeployError, DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic,
    SearchContext, SolveOutcome, SplitStrategy,
};
use hermes_milp::{solve, Direction, LinExpr, Model, Sense, SolveStatus, SolverConfig};
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use std::time::Instant;

use crate::greedy::{FirstFitByLevel, FirstFitByLevelAndSize};
use crate::timed;

/// Skip the ILP (use the surrogate) above this many binary variables
/// (`nodes x switches`).
pub const MAX_BINARIES: usize = 4_000;

/// Skip the ILP above this many rank-linearization cells
/// (`edges x switches²`) — the dense simplex tableau grows with the
/// constraint count, and past this point one LP relaxation would not even
/// fit in memory.
pub const MAX_RANK_CELLS: usize = 2_500;

/// Which published objective an [`IlpBaseline`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpObjective {
    /// Min-Stage: pack into the lowest switch indexes.
    PackLeft,
    /// SPEED: minimize summed coordination latency.
    MinLatency,
    /// MTP: latency plus a rule-capacity balance epigraph.
    LatencyAndRuleBalance,
    /// Flightplan: minimize the number of cross-switch dependency edges.
    MinCutEdges,
    /// P4All: minimize the maximum per-switch resource load.
    BalanceLoad,
}

/// An ILP-based deployment framework.
#[derive(Debug, Clone)]
pub struct IlpBaseline {
    name: &'static str,
    objective: IlpObjective,
}

impl IlpBaseline {
    /// Min-Stage \[8\] extended network-wide.
    pub fn min_stage() -> Self {
        IlpBaseline { name: "MS", objective: IlpObjective::PackLeft }
    }

    /// SPEED \[6\].
    pub fn speed() -> Self {
        IlpBaseline { name: "SPEED", objective: IlpObjective::MinLatency }
    }

    /// MTP \[57\].
    pub fn mtp() -> Self {
        IlpBaseline { name: "MTP", objective: IlpObjective::LatencyAndRuleBalance }
    }

    /// Flightplan \[7\].
    pub fn flightplan() -> Self {
        IlpBaseline { name: "FP", objective: IlpObjective::MinCutEdges }
    }

    /// P4All \[59\].
    pub fn p4all() -> Self {
        IlpBaseline { name: "P4All", objective: IlpObjective::BalanceLoad }
    }

    /// The configured objective.
    pub fn objective(&self) -> IlpObjective {
        self.objective
    }
}

impl DeploymentAlgorithm for IlpBaseline {
    fn name(&self) -> &str {
        self.name
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
        timed(tdg, || self.deploy_inner(tdg, net, eps, ctx.deadline()))
    }
}

impl IlpBaseline {
    fn deploy_inner(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        deadline: Option<Instant>,
    ) -> Result<DeploymentPlan, DeployError> {
        let component = net.largest_component();
        let candidates: Vec<SwitchId> =
            net.programmable_switches().into_iter().filter(|s| component.contains(s)).collect();
        if candidates.is_empty() {
            return Err(DeployError::NoProgrammableSwitch);
        }
        if tdg.node_count() == 0 {
            return Ok(DeploymentPlan::new());
        }
        let q = candidates.len();
        let binaries = tdg.node_count() * q;
        let rank_cells = tdg.edge_count() * q * q;
        if binaries > MAX_BINARIES || rank_cells > MAX_RANK_CELLS {
            return self.surrogate(tdg, net, eps);
        }
        match solve_assignment(tdg, net, eps, &candidates, self.objective, deadline) {
            Some(assign) => materialize(tdg, net, eps, &candidates, &assign)
                .or_else(|_| self.surrogate(tdg, net, eps)),
            None => self.surrogate(tdg, net, eps),
        }
    }

    /// Greedy fallback used beyond the size guard or when the ILP returns
    /// nothing within budget. Each surrogate mimics the objective's shape.
    fn surrogate(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        match self.objective {
            IlpObjective::PackLeft => FirstFitByLevel.deploy(tdg, net, eps),
            IlpObjective::MinLatency | IlpObjective::LatencyAndRuleBalance => {
                FirstFitByLevelAndSize.deploy(tdg, net, eps)
            }
            IlpObjective::MinCutEdges => {
                // Flightplan: split where the fewest edges cross, not the
                // fewest bytes — plan on a unit-weight clone of the TDG.
                let unit = tdg.with_uniform_edge_bytes(1);
                GreedyHeuristic::new().deploy(&unit, net, eps)
            }
            IlpObjective::BalanceLoad => {
                GreedyHeuristic::with_strategy(SplitStrategy::Balanced).deploy(tdg, net, eps)
            }
        }
    }
}

/// Builds and solves the assignment model, returning `assign[node] ->
/// candidate index` or `None` when no incumbent was found in budget.
#[allow(clippy::needless_range_loop)] // candidate-column index `c` is semantic in the encoding
fn solve_assignment(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    candidates: &[SwitchId],
    objective: IlpObjective,
    deadline: Option<Instant>,
) -> Option<Vec<usize>> {
    let q = candidates.len();
    let n = tdg.node_count();
    let mut model = Model::new("baseline-assignment");
    let nodes: Vec<NodeId> = tdg.node_ids().collect();
    // P#1's rows, in P#1's order.
    let z = placement_rows(&mut model, tdg, net, candidates);
    rank_rows(&mut model, tdg, &z, q);
    occupancy_rows(&mut model, &z, q, eps.max_switches);

    // Objective-specific machinery.
    match objective {
        IlpObjective::PackLeft => {
            let obj = LinExpr::sum(
                z.iter()
                    .flat_map(|vars| vars.iter().enumerate().map(|(c, &v)| (v, (c + 1) as f64))),
            );
            model.set_objective(Direction::Minimize, obj);
        }
        IlpObjective::MinLatency | IlpObjective::LatencyAndRuleBalance => {
            // cut edge (e, u, v) contributes shortest-path latency.
            let mut obj = LinExpr::new();
            for (ei, e) in tdg.edges().iter().enumerate() {
                for u in 0..q {
                    for v in 0..q {
                        if u == v {
                            continue;
                        }
                        let Some(p) = shortest_path(net, candidates[u], candidates[v]) else {
                            continue;
                        };
                        let w = model.continuous(format!("w_{ei}_{u}_{v}"), 0.0, 1.0);
                        model.add_constraint(
                            format!("wlin_{ei}_{u}_{v}"),
                            LinExpr::from(w)
                                - LinExpr::from(z[e.from.index()][u])
                                - LinExpr::from(z[e.to.index()][v]),
                            Sense::Ge,
                            -1.0,
                        );
                        obj += LinExpr::from(w) * p.latency_us;
                    }
                }
            }
            if objective == IlpObjective::LatencyAndRuleBalance {
                // Control-plane balance: epigraph over per-switch rule
                // capacity, lightly weighted against latency.
                let l = model.continuous("rule_load_max", 0.0, f64::INFINITY);
                for c in 0..q {
                    let load = LinExpr::sum(
                        (0..n).map(|a| (z[a][c], tdg.node(nodes[a]).mat.capacity() as f64)),
                    );
                    model.add_constraint(
                        format!("bal_{c}"),
                        LinExpr::from(l) - load,
                        Sense::Ge,
                        0.0,
                    );
                }
                obj += LinExpr::from(l) * 1e-3;
            }
            model.set_objective(Direction::Minimize, obj);
        }
        IlpObjective::MinCutEdges => {
            let mut obj = LinExpr::new();
            for (ei, e) in tdg.edges().iter().enumerate() {
                let cut = model.continuous(format!("cut_{ei}"), 0.0, 1.0);
                for c in 0..q {
                    // cut >= z(a,c) - z(b,c): 1 whenever endpoints differ.
                    model.add_constraint(
                        format!("cut_{ei}_{c}"),
                        LinExpr::from(cut) - LinExpr::from(z[e.from.index()][c])
                            + LinExpr::from(z[e.to.index()][c]),
                        Sense::Ge,
                        0.0,
                    );
                }
                obj += LinExpr::from(cut);
            }
            model.set_objective(Direction::Minimize, obj);
        }
        IlpObjective::BalanceLoad => {
            let l = model.continuous("load_max", 0.0, f64::INFINITY);
            for c in 0..q {
                let load =
                    LinExpr::sum((0..n).map(|a| (z[a][c], tdg.node(nodes[a]).mat.resource())));
                model.add_constraint(format!("bal_{c}"), LinExpr::from(l) - load, Sense::Ge, 0.0);
            }
            model.set_objective(Direction::Minimize, LinExpr::from(l));
        }
    }

    let solution = solve(&model, &SolverConfig { deadline, ..SolverConfig::default() }).ok()?;
    match solution.status {
        SolveStatus::Optimal | SolveStatus::Feasible => decode_assignment(&solution, &z),
        _ => None,
    }
}

/// Sonata \[4\]: deploys programs one at a time, each through its own small
/// pack-left ILP against the capacity left by earlier programs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sonata;

impl DeploymentAlgorithm for Sonata {
    fn name(&self) -> &str {
        "Sonata"
    }

    fn is_exhaustive(&self) -> bool {
        true
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

    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        let component = net.largest_component();
        let candidates: Vec<SwitchId> =
            net.programmable_switches().into_iter().filter(|s| component.contains(s)).collect();
        if candidates.is_empty() {
            return Err(DeployError::NoProgrammableSwitch);
        }
        if tdg.node_count() == 0 {
            return Ok(DeploymentPlan::new());
        }
        // Program order: first occurrence over node indexes.
        let mut programs: Vec<String> = Vec::new();
        for id in tdg.node_ids() {
            for p in &tdg.node(id).programs {
                if !programs.contains(p) {
                    programs.push(p.clone());
                }
            }
        }
        let q = candidates.len();
        let mut assign = vec![usize::MAX; tdg.node_count()];
        let mut used = vec![0.0f64; q];
        for prog in &programs {
            let members: Vec<NodeId> = tdg
                .node_ids()
                .filter(|&id| assign[id.index()] == usize::MAX)
                .filter(|&id| tdg.node(id).programs.contains(prog))
                .collect();
            if members.is_empty() {
                continue;
            }
            let partial = solve_program_packing(tdg, net, &candidates, &members, &assign, &used)
                .ok_or_else(|| DeployError::NoFeasiblePlacement {
                    reason: format!("sonata could not place program `{prog}`"),
                })?;
            for (&id, &c) in members.iter().zip(&partial) {
                assign[id.index()] = c;
                used[c] += tdg.node(id).mat.resource();
            }
        }
        materialize(tdg, net, eps, &candidates, &assign)
    }
}

/// Greedy pack-left of one program's nodes given fixed prior placements.
/// (Sonata's per-query planning is tiny, so a direct greedy matching its
/// pack-left ILP optimum is used; the network-wide ILPs above exercise the
/// solver.)
fn solve_program_packing(
    tdg: &Tdg,
    net: &Network,
    candidates: &[SwitchId],
    members: &[NodeId],
    assign: &[usize],
    used: &[f64],
) -> Option<Vec<usize>> {
    let q = candidates.len();
    let mut used = used.to_vec();
    let mut local_assign = assign.to_vec();
    // Current node sets per switch (for stage-feasibility checks).
    let mut on_switch: Vec<std::collections::BTreeSet<NodeId>> = vec![Default::default(); q];
    for id in tdg.node_ids() {
        let c = local_assign[id.index()];
        if c != usize::MAX {
            on_switch[c].insert(id);
        }
    }
    let mut out = Vec::with_capacity(members.len());
    // Members arrive in node-id order == topological order per program.
    for &id in members {
        let resource = tdg.node(id).mat.resource();
        // Earliest switch after every placed predecessor (chain order).
        let min_c = tdg
            .in_edges(id)
            .map(|e| local_assign[e.from.index()])
            .filter(|&c| c != usize::MAX)
            .max()
            .unwrap_or(0);
        let c = (min_c..q).find(|&c| {
            let model = net.switch(candidates[c]).target_model();
            if !model.fits_total(used[c] + resource) {
                return false;
            }
            let mut attempt = on_switch[c].clone();
            attempt.insert(id);
            hermes_core::stage_feasible(tdg, &attempt, &model)
        })?;
        used[c] += resource;
        local_assign[id.index()] = c;
        on_switch[c].insert(id);
        out.push(c);
    }
    Some(out)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use hermes_core::verify;
    use hermes_dataplane::library;
    use std::time::Duration;

    fn small_inputs() -> (Tdg, Network) {
        // Three programs keep the ILPs tiny enough for exact solves.
        hermes_core::test_support::linear_testbed(&[
            library::l3_router(),
            library::acl(),
            library::cm_sketch(),
        ])
    }

    /// Deploys under a 5 s budget.
    fn deploy(algo: &dyn DeploymentAlgorithm, tdg: &Tdg, net: &Network) -> DeploymentPlan {
        let ctx = SearchContext::with_time_limit(Duration::from_secs(5));
        let outcome = algo.solve(tdg, net, &Epsilon::loose(), &ctx);
        outcome.unwrap_or_else(|e| panic!("{}: {e}", algo.name())).plan
    }

    #[test]
    fn every_ilp_baseline_produces_verified_plans() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let baselines: Vec<IlpBaseline> = vec![
            IlpBaseline::min_stage(),
            IlpBaseline::speed(),
            IlpBaseline::mtp(),
            IlpBaseline::flightplan(),
            IlpBaseline::p4all(),
        ];
        for b in baselines {
            let plan = deploy(&b, &tdg, &net);
            let violations = verify(&tdg, &net, &plan, &eps);
            assert!(violations.is_empty(), "{}: {violations:?}", b.name());
        }
    }

    #[test]
    fn sonata_places_programs_sequentially() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let plan = Sonata.deploy(&tdg, &net, &eps).unwrap();
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn size_guard_falls_back_to_surrogate() {
        // Forty switches put the model past the rank-cell guard.
        let (tdg, _) = small_inputs();
        let net = hermes_net::topology::linear(40, 10.0);
        assert!(tdg.edge_count() * 40 * 40 > MAX_RANK_CELLS);
        let eps = Epsilon::loose();
        let baseline = IlpBaseline::min_stage();
        let plan = deploy(&baseline, &tdg, &net);
        assert_eq!(plan, baseline.surrogate(&tdg, &net, &eps).unwrap());
        assert!(verify(&tdg, &net, &plan, &eps).is_empty());
    }

    #[test]
    fn hermes_no_worse_than_any_baseline_on_testbed() {
        let (tdg, net) = small_inputs();
        let eps = Epsilon::loose();
        let hermes = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let h = hermes.max_inter_switch_bytes(&tdg);
        for plan in [
            deploy(&IlpBaseline::min_stage(), &tdg, &net),
            Sonata.deploy(&tdg, &net, &eps).unwrap(),
        ] {
            assert!(h <= plan.max_inter_switch_bytes(&tdg));
        }
    }

    #[test]
    fn p4all_balances_load() {
        let (tdg, net) = small_inputs();
        let plan = deploy(&IlpBaseline::p4all(), &tdg, &net);
        // The balanced objective should occupy more than one switch even
        // though everything could fit on one.
        assert!(plan.occupied_switch_count() >= 2);
    }

    #[test]
    fn min_stage_packs_left() {
        let (tdg, net) = small_inputs();
        let plan = deploy(&IlpBaseline::min_stage(), &tdg, &net);
        // Everything fits the first switch (total R small), so pack-left
        // should use exactly one switch.
        assert_eq!(plan.occupied_switch_count(), 1);
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 0);
    }
}
