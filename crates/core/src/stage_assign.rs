//! Dependency-respecting stage assignment within one switch.
//!
//! Once a set of MATs lands on a switch, each must occupy concrete pipeline
//! stages such that (a) per-stage resource capacity is respected (Eq. 9)
//! and (b) for every dependency `(a, b)` inside the switch, the last stage
//! of `a` precedes the first stage of `b` (Eq. 8). Large MATs may be split
//! across consecutive stages, mirroring the "(a portion of)" language of
//! the paper. The algorithm is a dependency-levelled first fit — the same
//! family as the FFL strategy of Jose et al. \[8\].
//!
//! All capacity questions are answered by the switch's [`TargetModel`]:
//! per-stage capacity, packing depth, and (for budgeted targets such as
//! SmartNICs) the per-switch total-resource budget enforced incrementally
//! by the internal `Packing` state. Budget-free targets take the exact code
//! path the scalar `(stages, stage_capacity)` API used to.
//!
//! [`materialize`] builds on it: a switch-level assignment becomes a whole
//! plan — stages on every switch, routes, ε-bounds — for every solver.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon, PlanRoute, StagePlacement};
use crate::verify::Violation;
use hermes_net::{fits, shortest_path, Network, SwitchId, TargetModel};
use hermes_tdg::{NodeId, Tdg};
use std::collections::BTreeSet;
use std::fmt;

/// Why stage assignment failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StageAssignError {
    /// The dependency chain among the given nodes is longer than the
    /// pipeline: even infinitely wide stages could not order them.
    ChainTooLong {
        /// Stages available.
        stages: usize,
    },
    /// Cumulative resources exceed what the remaining stages can hold.
    OutOfStages {
        /// Program-qualified name of the MAT that did not fit.
        mat: String,
    },
    /// One slice of a MAT exceeds a whole stage (cannot happen with valid
    /// capacities; kept for defense in depth).
    SliceTooLarge {
        /// Program-qualified name of the MAT.
        mat: String,
    },
    /// Placing the MAT would exceed the target's per-switch total-resource
    /// budget (only possible on budgeted targets such as SmartNICs).
    OverBudget {
        /// Program-qualified name of the MAT.
        mat: String,
    },
    /// The TDG's dependencies form a cycle, so its MATs have no stage
    /// order.
    DependencyCycle,
}

impl fmt::Display for StageAssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageAssignError::ChainTooLong { stages } => {
                write!(f, "dependency chain exceeds the {stages}-stage pipeline")
            }
            StageAssignError::OutOfStages { mat } => {
                write!(f, "ran out of stages while placing `{mat}`")
            }
            StageAssignError::SliceTooLarge { mat } => {
                write!(f, "a slice of `{mat}` exceeds one stage's capacity")
            }
            StageAssignError::OverBudget { mat } => {
                write!(f, "placing `{mat}` exceeds the switch's total-resource budget")
            }
            StageAssignError::DependencyCycle => f.write_str("the TDG has a dependency cycle"),
        }
    }
}

impl std::error::Error for StageAssignError {}

/// Assigns `nodes` (a subset of `tdg`) to the stages of `switch`, whose
/// pipeline shape (stage count, per-stage capacity, total budget) comes
/// from `model`.
///
/// Nodes are processed in topological order; each starts at the first
/// stage after all its in-subset predecessors finish and greedily fills
/// consecutive stages until its full `R(a)` is placed.
///
/// # Errors
///
/// Returns [`StageAssignError`] when the subset cannot fit.
pub fn assign_stages(
    tdg: &Tdg,
    nodes: &BTreeSet<NodeId>,
    switch: SwitchId,
    model: &TargetModel,
) -> Result<Vec<StagePlacement>, StageAssignError> {
    StageProbe::new(tdg).place(model, switch, |id| nodes.contains(&id))
}

/// `true` iff `nodes` admits a dependency-respecting stage assignment on
/// `model`'s pipeline: [`StageProbe::fits`] for a one-off question.
pub fn stage_feasible(tdg: &Tdg, nodes: &BTreeSet<NodeId>, model: &TargetModel) -> bool {
    StageProbe::new(tdg).fits(model, |id| nodes.contains(&id))
}

/// The one packing path: "do the nodes `select` picks fit `model`'s
/// pipeline", answered by one dependency-levelled first-fit pass in the
/// TDG's own topological order over a scratch `Packing` that is reset,
/// not reallocated, between questions.
///
/// A node set is whatever the caller's predicate says it is — a range of
/// the placement order, a slot in an assignment vector, a `BTreeSet` — so
/// no caller builds a set just to ask. The pass always runs in the
/// *canonical* order ([`Tdg::topo_order`]): pushing nodes onto a live
/// pipeline in level or placement order is a different first fit and can
/// disagree with the stage assignment a plan is finally built from.
#[derive(Debug)]
pub struct StageProbe<'a> {
    tdg: &'a Tdg,
    /// [`Tdg::topo_order`]: `None` on a cyclic TDG, where nothing fits.
    order: Option<&'a [NodeId]>,
    scratch: Packing,
}

impl<'a> StageProbe<'a> {
    /// A probe for `tdg`. On a cyclic TDG it answers every question "does
    /// not fit" ([`StageAssignError::DependencyCycle`]).
    pub fn new(tdg: &'a Tdg) -> Self {
        let order = tdg.topo_order();
        // A pipeline of no stages: every question brings its own shape.
        let scratch = Packing::new(&TargetModel::pipeline(0, 0.0), tdg.node_count());
        StageProbe { tdg, order, scratch }
    }

    /// The quick check of Algorithm 2 line 2 alone: `Σ R(a)` over the
    /// selected nodes, summed in node-index order, against
    /// [`TargetModel::fits_total`].
    pub fn fits_total(&self, model: &TargetModel, select: impl Fn(NodeId) -> bool) -> bool {
        let selected = self.tdg.node_ids().filter(|&id| select(id));
        model.fits_total(selected.map(|id| self.tdg.node(id).mat.resource()).sum())
    }

    /// Do the selected nodes fit one switch of this shape? The quick check
    /// first — packing drops residues of up to 1e-12 per node, so it does
    /// not subsume the capacity tolerance of [`hermes_net::fits`] — then
    /// the first-fit pass.
    pub fn fits(&mut self, model: &TargetModel, select: impl Fn(NodeId) -> bool) -> bool {
        self.fits_total(model, &select) && self.pack(model, select, |_, _, _| {}).is_ok()
    }

    /// The stage assignment of the selected nodes on `switch`: the pass
    /// itself, with its typed error.
    ///
    /// # Errors
    ///
    /// Returns [`StageAssignError`] when the selection cannot fit.
    pub fn place(
        &mut self,
        model: &TargetModel,
        switch: SwitchId,
        select: impl Fn(NodeId) -> bool,
    ) -> Result<Vec<StagePlacement>, StageAssignError> {
        let mut placements = Vec::new();
        self.pack(model, select, |node, stage, fraction| {
            placements.push(StagePlacement { node, switch, stage, fraction });
        })
        .map_err(|fail| match fail {
            PackFail::At(e, id) => e.with_name(self.tdg, id, model.stages),
            PackFail::Cycle => StageAssignError::DependencyCycle,
        })?;
        Ok(placements)
    }

    /// One first-fit pass over the canonical order; `emit` sees every
    /// `(node, stage, fraction)` slice. Fails at the first node that does
    /// not fit — on a cyclic TDG, before the first.
    fn pack(
        &mut self,
        model: &TargetModel,
        select: impl Fn(NodeId) -> bool,
        mut emit: impl FnMut(NodeId, usize, f64),
    ) -> Result<(), PackFail> {
        let order = self.order.ok_or(PackFail::Cycle)?;
        self.scratch.reset_to(model);
        let mut on_slice = |id, stage, _before, take| emit(id, stage, take);
        for &id in order.iter().filter(|&&id| select(id)) {
            self.scratch.push_core(self.tdg, id, &mut on_slice).map_err(|e| PackFail::At(e, id))?;
        }
        Ok(())
    }
}

/// The one way from a switch-level assignment to a plan, shared by every
/// solver in the workspace (the exact search, P#1, the splitter, first
/// fit, `refine`, the pinned redeploy and the ILP baselines), so plans
/// differ only in their placement decisions. `assign[node]` is an index
/// into `candidates` (`usize::MAX` = unplaced).
///
/// Stages are packed per candidate in list order, then one
/// latency-shortest route is built per dependent cross-switch pair —
/// every pair, not only adjacent ones, or Eq. 7 would break — ordered by
/// candidate index. Route order is plan bytes, so each caller's list order
/// pins its plans: a sorted list gives `SwitchId` order, the splitter's
/// anchor-first list gives segment order. Last, the plan is held to the
/// ε-bounds (Eq. 4–5).
///
/// # Errors
///
/// [`DeployError::NoFeasiblePlacement`] when a candidate's nodes do not
/// pack into its pipeline, a dependent pair has no path, or the plan
/// exceeds `ε₁` or `ε₂`.
pub fn materialize(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    candidates: &[SwitchId],
    assign: &[usize],
) -> Result<DeploymentPlan, DeployError> {
    let infeasible = |reason: String| DeployError::NoFeasiblePlacement { reason };
    let mut plan = DeploymentPlan::new();
    let mut probe = StageProbe::new(tdg);
    for (c, &switch) in candidates.iter().enumerate() {
        let model = net.switch(switch).target_model();
        let placements = probe
            .place(&model, switch, |id| assign[id.index()] == c)
            .map_err(|e| infeasible(format!("stage assignment on {switch} failed: {e}")))?;
        for p in placements {
            plan.place(p);
        }
    }
    let pairs: BTreeSet<(usize, usize)> = tdg
        .edges()
        .iter()
        .map(|e| (assign[e.from.index()], assign[e.to.index()]))
        .filter(|&(u, v)| u != v && u != usize::MAX && v != usize::MAX)
        .collect();
    for (u, v) in pairs {
        let (from, to) = (candidates[u], candidates[v]);
        let path = shortest_path(net, from, to)
            .ok_or_else(|| infeasible(format!("no path from {from} to {to}")))?;
        plan.route(PlanRoute { from, to, path });
    }
    let (latency_us, occupied) = (plan.end_to_end_latency_us(), plan.occupied_switch_count());
    if latency_us > eps.max_latency_us {
        let bound_us = eps.max_latency_us;
        return Err(infeasible(Violation::LatencyBound { latency_us, bound_us }.to_string()));
    }
    if occupied > eps.max_switches {
        let bound = eps.max_switches;
        return Err(infeasible(Violation::SwitchBound { occupied, bound }.to_string()));
    }
    Ok(plan)
}

/// Sentinel in [`Packing::end_stage`] for a node not placed yet (no stage
/// index reaches it). Doubles as the stage marker of budget-snapshot
/// entries in push logs.
pub(crate) const UNPLACED: usize = usize::MAX;

/// Name-free push failure for hot probe paths; [`StageAssignError`]
/// carries the MAT name, and building it clones a `String` — measurable
/// when the exact search rejects millions of pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushFail {
    /// See [`StageAssignError::ChainTooLong`].
    ChainTooLong,
    /// See [`StageAssignError::OutOfStages`].
    OutOfStages,
    /// See [`StageAssignError::SliceTooLarge`].
    SliceTooLarge,
    /// See [`StageAssignError::OverBudget`].
    OverBudget,
}

/// Why a [`StageProbe`] pass failed: a push, at the node it names, or the
/// TDG's lack of a topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackFail {
    At(PushFail, NodeId),
    Cycle,
}

impl PushFail {
    fn with_name(self, tdg: &Tdg, id: NodeId, stages: usize) -> StageAssignError {
        let mat = tdg.node(id).name.clone();
        match self {
            PushFail::ChainTooLong => StageAssignError::ChainTooLong { stages },
            PushFail::OutOfStages => StageAssignError::OutOfStages { mat },
            PushFail::SliceTooLarge => StageAssignError::SliceTooLarge { mat },
            PushFail::OverBudget => StageAssignError::OverBudget { mat },
        }
    }
}

/// Incremental first-fit pipeline state: per-stage remaining capacity, the
/// last stage occupied by each already-placed node, and (for budgeted
/// targets) the running total-resource usage.
///
/// [`StageProbe`] (every "does it fit" and every stage assignment) and the
/// exact search's live per-switch pipelines both drive this one
/// implementation, so the packing semantics cannot drift between them.
/// Nodes must be pushed in topological order; a predecessor that was never
/// pushed simply imposes no ordering constraint (the reference behaviour
/// for in-edges from outside the placed subset).
#[derive(Debug, Clone)]
pub(crate) struct Packing {
    /// The pipeline shape. Its `total_budget` is `INFINITY` on budget-free
    /// targets, where the budget check below is always false.
    model: TargetModel,
    /// Total resource of successfully placed nodes (budget accounting).
    used: f64,
    remaining: Vec<f64>,
    /// `end_stage[node index]` = last stage occupied, or [`UNPLACED`].
    end_stage: Vec<usize>,
}

impl Packing {
    /// An empty pipeline shaped like `model` for a TDG of `node_count`
    /// nodes.
    pub(crate) fn new(model: &TargetModel, node_count: usize) -> Self {
        Packing {
            model: *model,
            used: 0.0,
            remaining: vec![model.stage_capacity; model.stages],
            end_stage: vec![UNPLACED; node_count],
        }
    }

    /// Empties the pipeline, restoring the pristine post-construction
    /// state without reallocating — the per-subtree analogue of
    /// [`IncrementalEval::reset`](crate::eval::IncrementalEval::reset):
    /// `remaining` is reassigned (not incrementally repaired), so no float
    /// residue from prior placements survives.
    pub(crate) fn reset(&mut self) {
        self.used = 0.0;
        self.remaining.fill(self.model.stage_capacity);
        self.end_stage.fill(UNPLACED);
    }

    /// [`Packing::reset`] onto another pipeline shape, reusing both
    /// buffers.
    fn reset_to(&mut self, model: &TargetModel) {
        self.model = *model;
        self.remaining.resize(model.stages, 0.0);
        self.reset();
    }

    /// Reversible push of one node: the *prior* `remaining` of every
    /// modified stage is appended to `log`, so [`Packing::revert`]
    /// restores the exact bit-for-bit pipeline state. (Re-adding slice
    /// fractions instead would accumulate floating-point drift over
    /// millions of push/undo cycles in the exact search.) On budgeted
    /// targets the prior `used` total is snapshotted first under the
    /// [`UNPLACED`] stage marker — budget-free targets log nothing extra.
    /// A failed push changes nothing, `log` included.
    pub(crate) fn push_logged(
        &mut self,
        tdg: &Tdg,
        id: NodeId,
        log: &mut Vec<(usize, f64)>,
    ) -> bool {
        let Ok(earliest) = self.fit(tdg, id) else { return false };
        if self.model.total_budget.is_finite() {
            log.push((UNPLACED, self.used));
        }
        self.commit(tdg, id, earliest, &mut |_, stage, old, _| {
            log.push((stage, old));
        });
        true
    }

    /// Undoes a successful [`Packing::push_logged`] of `id`, restoring the
    /// logged `remaining` (and `used`) snapshots in reverse and truncating
    /// `log` back to `base` (its length before the push).
    pub(crate) fn revert(&mut self, id: NodeId, log: &mut Vec<(usize, f64)>, base: usize) {
        for &(stage, old) in log[base..].iter().rev() {
            if stage == UNPLACED {
                self.used = old;
            } else {
                self.remaining[stage] = old;
            }
        }
        log.truncate(base);
        self.end_stage[id.index()] = UNPLACED;
    }

    /// Pipeline depth.
    pub(crate) fn stages(&self) -> usize {
        self.model.stages
    }

    /// The last stage `node` (an index) occupies, if it was pushed.
    pub(crate) fn end_stage(&self, node: usize) -> Option<usize> {
        let stage = self.end_stage[node];
        (stage != UNPLACED).then_some(stage)
    }

    /// Writes into `room[s]` the capacity left in stages `s..`, for every
    /// `s` up to the depth (`room[stages]` = 0). A push that starts at
    /// stage `s` takes its slices from that capacity, so a node larger
    /// than `room[s]` (up to the 1e-12 a push may leave unplaced and the
    /// rounding of the sum) cannot start there, and pushes only shrink
    /// it: the exact search asks this of nodes it has not reached yet.
    pub(crate) fn room_from_each_stage(&self, room: &mut [f64]) {
        let stages = self.model.stages;
        let mut left = 0.0;
        room[stages] = 0.0;
        for (slot, &remaining) in room[..stages].iter_mut().zip(&self.remaining).rev() {
            left += remaining;
            *slot = left;
        }
    }

    /// The first-fit question without its side effects: `Ok` with the
    /// node's start stage — the first after its already-placed
    /// predecessors — when its full `R(a)` fits from there.
    fn fit(&self, tdg: &Tdg, id: NodeId) -> Result<usize, PushFail> {
        let resource = tdg.node(id).mat.resource();
        // Always-false on budget-free targets (`used + r` always fits INF).
        if !fits(self.used + resource, self.model.total_budget) {
            return Err(PushFail::OverBudget);
        }
        let earliest = tdg
            .in_edges(id)
            .map(|e| self.end_stage[e.from.index()])
            .filter(|&s| s != UNPLACED)
            .map(|s| s + 1)
            .max()
            .unwrap_or(0);
        if earliest >= self.model.stages {
            return Err(PushFail::ChainTooLong);
        }
        let mut need = resource;
        for &old in &self.remaining[earliest..] {
            if need <= 1e-12 {
                break;
            }
            let take = need.min(old);
            if take > 1e-12 {
                if !self.model.fits_stage(take) {
                    return Err(PushFail::SliceTooLarge);
                }
                need -= take;
            }
        }
        if need > 1e-12 {
            return Err(PushFail::OutOfStages);
        }
        Ok(earliest)
    }

    /// Places `id` from stage `earliest`, greedily filling consecutive
    /// stages — the same walk, in the same arithmetic, that
    /// [`Packing::fit`] just approved. `on_slice` sees `(node, stage,
    /// remaining-before, take)` for every placed slice.
    fn commit(
        &mut self,
        tdg: &Tdg,
        id: NodeId,
        earliest: usize,
        on_slice: &mut dyn FnMut(NodeId, usize, f64, f64),
    ) {
        let resource = tdg.node(id).mat.resource();
        let mut need = resource;
        let mut last = earliest;
        for stage in earliest..self.model.stages {
            if need <= 1e-12 {
                break;
            }
            let old = self.remaining[stage];
            let take = need.min(old);
            if take > 1e-12 {
                on_slice(id, stage, old, take);
                self.remaining[stage] = old - take;
                need -= take;
                last = stage;
            }
        }
        if self.model.total_budget.is_finite() {
            self.used += resource;
        }
        self.end_stage[id.index()] = last;
    }

    /// The one first-fit push: [`Packing::fit`], then [`Packing::commit`].
    fn push_core(
        &mut self,
        tdg: &Tdg,
        id: NodeId,
        on_slice: &mut dyn FnMut(NodeId, usize, f64, f64),
    ) -> Result<(), PushFail> {
        let earliest = self.fit(tdg, id)?;
        self.commit(tdg, id, earliest, on_slice);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_net::topology;
    use hermes_tdg::AnalysisMode;

    fn chain(resources: &[f64]) -> Tdg {
        let mut b = Program::builder("p");
        for (i, &r) in resources.iter().enumerate() {
            let mut mat = Mat::builder(format!("t{i}")).resource(r);
            if i > 0 {
                mat = mat.match_field(Field::metadata(format!("m{}", i - 1), 4), MatchKind::Exact);
            }
            let writes = if i + 1 < resources.len() {
                vec![Field::metadata(format!("m{i}"), 4)]
            } else {
                vec![]
            };
            mat = mat.action(Action::writing("w", writes));
            b = b.table(mat.build().unwrap());
        }
        Tdg::from_program(&b.build().unwrap(), AnalysisMode::PaperLiteral)
    }

    fn independent(resources: &[f64]) -> Tdg {
        let mut b = Program::builder("p");
        for (i, &r) in resources.iter().enumerate() {
            b = b.table(
                Mat::builder(format!("t{i}"))
                    .resource(r)
                    .action(Action::new("noop"))
                    .build()
                    .unwrap(),
            );
        }
        Tdg::from_program(&b.build().unwrap(), AnalysisMode::PaperLiteral)
    }

    fn sw() -> SwitchId {
        topology::linear(1, 1.0).switch_ids().next().unwrap()
    }

    fn all(tdg: &Tdg) -> BTreeSet<NodeId> {
        tdg.node_ids().collect()
    }

    fn shape(stages: usize, stage_capacity: f64) -> TargetModel {
        TargetModel::pipeline(stages, stage_capacity)
    }

    #[test]
    fn chain_occupies_increasing_stages() {
        let tdg = chain(&[0.5, 0.5, 0.5]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &shape(12, 1.0)).unwrap();
        let span = |i: usize| {
            let id = tdg.node_ids().nth(i).unwrap();
            let stages: Vec<usize> = p.iter().filter(|x| x.node == id).map(|x| x.stage).collect();
            (*stages.iter().min().unwrap(), *stages.iter().max().unwrap())
        };
        assert!(span(0).1 < span(1).0);
        assert!(span(1).1 < span(2).0);
    }

    #[test]
    fn independent_nodes_share_a_stage() {
        let tdg = independent(&[0.3, 0.3, 0.3]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &shape(12, 1.0)).unwrap();
        assert!(p.iter().all(|x| x.stage == 0), "all fit stage 0: {p:?}");
    }

    #[test]
    fn capacity_forces_next_stage() {
        let tdg = independent(&[0.7, 0.7]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &shape(12, 1.0)).unwrap();
        let stages: BTreeSet<usize> = p.iter().map(|x| x.stage).collect();
        assert_eq!(stages.len(), 2, "0.7 + 0.7 cannot share a unit stage");
    }

    #[test]
    fn large_mat_splits_across_stages() {
        let tdg = independent(&[2.5]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &shape(12, 1.0)).unwrap();
        assert_eq!(p.len(), 3, "2.5 units split over 3 stages: {p:?}");
        let total: f64 = p.iter().map(|x| x.fraction).sum();
        assert!((total - 2.5).abs() < 1e-9);
    }

    #[test]
    fn chain_longer_than_pipeline_fails() {
        let tdg = chain(&[0.1; 5]);
        let err = assign_stages(&tdg, &all(&tdg), sw(), &shape(4, 1.0)).unwrap_err();
        assert!(matches!(err, StageAssignError::ChainTooLong { stages: 4 }));
    }

    #[test]
    fn resource_overflow_fails() {
        let tdg = independent(&[1.0, 1.0, 1.0]);
        let err = assign_stages(&tdg, &all(&tdg), sw(), &shape(2, 1.0)).unwrap_err();
        assert!(matches!(err, StageAssignError::OutOfStages { .. }));
    }

    #[test]
    fn per_stage_capacity_respected() {
        let tdg = independent(&[0.6, 0.6, 0.6, 0.6]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &shape(12, 1.0)).unwrap();
        let mut load = std::collections::BTreeMap::new();
        for x in &p {
            *load.entry(x.stage).or_insert(0.0) += x.fraction;
        }
        for (&stage, &l) in &load {
            assert!(l <= 1.0 + 1e-9, "stage {stage} overloaded: {l}");
        }
    }

    #[test]
    fn subset_assignment_ignores_outside_predecessors() {
        // Chain t0 -> t1; assign only t1: it may start at stage 0.
        let tdg = chain(&[0.5, 0.5]);
        let t1 = tdg.node_ids().nth(1).unwrap();
        let p = assign_stages(&tdg, &BTreeSet::from([t1]), sw(), &shape(12, 1.0)).unwrap();
        assert_eq!(p[0].stage, 0);
    }

    #[test]
    fn empty_set_is_trivially_placed() {
        let tdg = chain(&[0.5]);
        let p = assign_stages(&tdg, &BTreeSet::new(), sw(), &shape(12, 1.0)).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn materialize_orders_routes_by_candidate_and_holds_eps() {
        // a -> b -> c, one MAT per switch, candidates out of id order.
        let tdg = crate::test_support::chain_tdg(&[1, 4], 0.5);
        let net = crate::test_support::tiny_switches(3, 2, 0.5);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let candidates = [ids[2], ids[0], ids[1]];
        let build = |eps| materialize(&tdg, &net, &eps, &candidates, &[0, 1, 2]);
        let plan = build(Epsilon::loose()).unwrap();
        let routes: Vec<_> = plan.routes().iter().map(|r| (r.from, r.to)).collect();
        assert_eq!(routes, [(ids[2], ids[0]), (ids[0], ids[1])], "candidate order, not id order");
        let latency = plan.end_to_end_latency_us();
        assert!(build(Epsilon::new(latency, 3)).is_ok());
        for (eps, bound) in
            [(Epsilon::new(latency - 1.0, 3), "eps1"), (Epsilon::new(latency, 2), "eps2")]
        {
            let err = build(eps).unwrap_err();
            assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }), "{err}");
            assert!(err.to_string().contains(bound), "{err}");
        }
    }

    #[test]
    fn fits_total_quick_check() {
        let tdg = independent(&[1.0, 1.0]);
        let probe = StageProbe::new(&tdg);
        assert!(probe.fits_total(&shape(2, 1.0), |_| true));
        assert!(!probe.fits_total(&shape(1, 1.0), |_| true));
    }

    #[test]
    fn split_mat_still_precedes_successor() {
        // t0 (1.5 units) -> t1: t1 must start after t0's last slice.
        let tdg = chain(&[1.5, 0.5]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &shape(12, 1.0)).unwrap();
        let id0 = tdg.node_ids().next().unwrap();
        let id1 = tdg.node_ids().nth(1).unwrap();
        let end0 = p.iter().filter(|x| x.node == id0).map(|x| x.stage).max().unwrap();
        let begin1 = p.iter().filter(|x| x.node == id1).map(|x| x.stage).min().unwrap();
        assert!(end0 < begin1, "end0={end0} begin1={begin1}");
    }

    #[test]
    fn budget_rejects_what_stages_alone_would_accept() {
        // 2.0 units over 12 x 1.0 stages fits easily — but not a 1.5 budget.
        let tdg = independent(&[1.0, 1.0]);
        let mut budgeted = shape(12, 1.0);
        budgeted.total_budget = 1.5;
        let err = assign_stages(&tdg, &all(&tdg), sw(), &budgeted).unwrap_err();
        assert!(matches!(err, StageAssignError::OverBudget { .. }), "{err}");
        assert!(!stage_feasible(&tdg, &all(&tdg), &budgeted));
        assert!(!StageProbe::new(&tdg).fits_total(&budgeted, |_| true));
        assert!(stage_feasible(&tdg, &all(&tdg), &shape(12, 1.0)));
    }

    #[test]
    fn smartnic_model_packs_deep_stages_within_budget() {
        // 1.5-unit MATs fit a 2.0-capacity SmartNIC stage whole; four of
        // them total 6.0 = exactly the budget.
        let nic = TargetModel::smartnic();
        let tdg = independent(&[1.5, 1.5, 1.5, 1.5]);
        let p = assign_stages(&tdg, &all(&tdg), sw(), &nic).unwrap();
        let total: f64 = p.iter().map(|x| x.fraction).sum();
        assert!((total - 6.0).abs() < 1e-9);
        let over = independent(&[1.5, 1.5, 1.5, 1.5, 0.5]);
        let err = assign_stages(&over, &all(&over), sw(), &nic).unwrap_err();
        assert!(matches!(err, StageAssignError::OverBudget { .. }));
    }

    #[test]
    fn push_logged_rolls_back_budget_exactly() {
        let tdg = independent(&[1.0, 1.0]);
        let ids: Vec<NodeId> = tdg.node_ids().collect();
        let mut budgeted = shape(12, 1.0);
        budgeted.total_budget = 1.5;
        let mut packing = Packing::new(&budgeted, tdg.node_count());
        let mut log = Vec::new();
        assert!(packing.push_logged(&tdg, ids[0], &mut log));
        let used_after_first = packing.used;
        let log_after_first = log.len();
        // Second push exceeds the budget: state must roll back exactly.
        assert!(!packing.push_logged(&tdg, ids[1], &mut log));
        assert_eq!(packing.used.to_bits(), used_after_first.to_bits());
        assert_eq!(log.len(), log_after_first);
        // Reverting the first push restores the pristine packing.
        packing.revert(ids[0], &mut log, 0);
        assert_eq!(packing.used.to_bits(), 0.0f64.to_bits());
        assert!(log.is_empty());
        assert!(packing.push_logged(&tdg, ids[1], &mut log), "budget freed");
    }

    #[test]
    fn reset_matches_freshly_constructed_packing() {
        let tdg = chain(&[0.7, 1.4, 0.3]);
        let ids: Vec<NodeId> = tdg.node_ids().collect();
        let mut budgeted = shape(12, 1.0);
        budgeted.total_budget = 5.0;
        let mut recycled = Packing::new(&budgeted, tdg.node_count());
        let mut log = Vec::new();
        for &id in &ids {
            assert!(recycled.push_logged(&tdg, id, &mut log));
        }
        recycled.reset();
        log.clear();
        let mut fresh = Packing::new(&budgeted, tdg.node_count());
        let mut fresh_log = Vec::new();
        // Replaying onto the recycled packing must agree bit-for-bit with a
        // fresh one, including the float budget/remaining bookkeeping.
        for &id in &ids {
            assert!(recycled.push_logged(&tdg, id, &mut log));
            assert!(fresh.push_logged(&tdg, id, &mut fresh_log));
        }
        assert_eq!(recycled.used.to_bits(), fresh.used.to_bits());
        assert_eq!(recycled.end_stage, fresh.end_stage);
        let bits = |p: &Packing| p.remaining.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&recycled), bits(&fresh));
        assert_eq!(log, fresh_log);
    }

    #[test]
    fn budget_free_push_logs_no_extra_entries() {
        let tdg = independent(&[0.5]);
        let id = tdg.node_ids().next().unwrap();
        let mut packing = Packing::new(&shape(12, 1.0), tdg.node_count());
        let mut log = Vec::new();
        assert!(packing.push_logged(&tdg, id, &mut log));
        assert_eq!(log.len(), 1, "one slice, one snapshot, no budget sentinel");
        assert_eq!(packing.used, 0.0, "budget accounting off for infinite budgets");
    }
}
