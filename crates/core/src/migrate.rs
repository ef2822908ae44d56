//! Staged A→B live reconfiguration scheduling.
//!
//! The deployment pipeline ends with a verified plan installed as one
//! atomic transaction; this module plans the *next* plan. Given an
//! installed plan A and a target plan B over the same TDG, a
//! [`MigrationScheduler`] searches over per-switch commit orderings and
//! returns a [`MigrationSchedule`]: an ordered sequence of per-switch
//! steps in which every intermediate (mixed) state is
//!
//! 1. **stage-feasible** — during switch `s`'s step, `s` holds its plan-A
//!    *and* plan-B MATs simultaneously (make-before-break), and that
//!    resident union must pack into `s`'s pipeline (one [`StageProbe`]
//!    question per switch, up front: the verdict is order-independent);
//! 2. **acyclic** — each checkpoint must be a valid standalone deployment
//!    whose switch-level dependency relation is a DAG, so the migration
//!    can pause at any checkpoint indefinitely;
//! 3. **cheap** — the objective is the *peak transient `A_max`* over all
//!    prefixes of the order, the worst per-packet coordination overhead
//!    any mid-migration state imposes.
//!
//! The intermediate state after committing a prefix `C` of the order puts
//! every node at its plan-B home when that home is in `C` and at its
//! plan-A home otherwise; stepping a switch moves exactly the nodes whose
//! plan-B home it is, so [`IncrementalEval`] maintains `A_max` and
//! acyclicity in O(moved-degree) per probe rather than O(edges).
//!
//! The `Auto` mode is a greedy orderer: repeatedly commit the switch whose
//! next state has the lowest `A_max`. No schedule can peak below
//! `max(A_max(A), A_max(B))` — both endpoints are states of every order —
//! and over the sweeps recorded in DESIGN.md §12 the exact
//! branch-and-bound that used to race greedy was never strictly ahead of
//! it, so no search races it. The ascending-id order — exactly the order
//! the runtime's all-at-once transaction commits in — is evaluated beside
//! it and wins on a strictly lower peak, so a returned schedule is never
//! worse than the all-at-once baseline it replaces.
//!
//! Per-packet consistency of every prefix (the mixed-epoch gate,
//! [`hermes_backend::check_transition`]) is deliberately *not* checked
//! here: it needs generated artifacts, which live in `hermes-backend`.
//! The runtime executor replays the gate over the chosen order before the
//! first commit and refuses the migration if any window could expose two
//! epochs to one packet.
//!
//! [`hermes_backend::check_transition`]: https://docs.rs/hermes-backend

use crate::deployment::DeploymentPlan;
use crate::eval::IncrementalEval;
use crate::solver::SearchContext;
use crate::stage_assign::StageProbe;
use hermes_net::{Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One A→B reconfiguration instance.
#[derive(Debug, Clone, Copy)]
pub struct MigrationProblem<'a> {
    /// The merged TDG both plans deploy (migration never changes the
    /// program set — that is a rollout, not a migration).
    pub tdg: &'a Tdg,
    /// The substrate network.
    pub net: &'a Network,
    /// The currently installed plan (A).
    pub from: &'a DeploymentPlan,
    /// The target plan (B).
    pub to: &'a DeploymentPlan,
}

/// One per-switch step of a migration schedule: the switch commits its
/// plan-B config, atomically adopting every node whose plan-B home it is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MigrationStep {
    /// The switch that commits in this step.
    pub switch: SwitchId,
    /// Nodes that move onto this switch when it commits (empty for
    /// neutral steps: unchanged or shrink-only switches).
    pub moved: Vec<NodeId>,
    /// `A_max` of the mixed state after this step commits, bytes.
    pub transient_amax: u64,
    /// Nodes resident during the step's make-before-break window (plan-A
    /// ∪ plan-B MATs of the switch); this union was proven stage-feasible.
    pub staged_nodes: usize,
}

/// An ordered, feasibility-checked commit schedule from plan A to plan B.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MigrationSchedule {
    /// Per-switch steps covering every switch the target plan occupies.
    pub steps: Vec<MigrationStep>,
    /// Worst `A_max` over all intermediate states (including both
    /// endpoints), bytes — the minimized objective.
    pub peak_transient_amax: u64,
    /// `A_max` of plan A, bytes.
    pub from_amax: u64,
    /// `A_max` of plan B, bytes.
    pub to_amax: u64,
    /// Peak transient `A_max` of the ascending-id commit order (the order
    /// an all-at-once transaction uses); `None` when that order hits a
    /// cyclic intermediate state.
    pub all_at_once_peak: Option<u64>,
    /// Which orderer produced the winning schedule.
    pub planner: String,
}

impl MigrationSchedule {
    /// The commit order, one switch per step.
    pub fn commit_order(&self) -> Vec<SwitchId> {
        self.steps.iter().map(|s| s.switch).collect()
    }

    /// `A_max` after each prefix: `from_amax`, then one value per step.
    /// This is the transient-overhead curve the bench plots.
    pub fn transient_curve(&self) -> Vec<u64> {
        let mut curve = Vec::with_capacity(self.steps.len() + 1);
        curve.push(self.from_amax);
        curve.extend(self.steps.iter().map(|s| s.transient_amax));
        curve
    }
}

/// Why no safe migration schedule exists (or could be found in budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// A node placed in one plan has no placement in the other; the two
    /// plans do not deploy the same TDG.
    UnplacedNode(NodeId),
    /// Plan-A and plan-B MATs of this switch cannot be resident together:
    /// the make-before-break staging window overflows its pipeline.
    StagingInfeasible(SwitchId),
    /// Every candidate order reaches an intermediate state whose
    /// switch-level dependency relation is cyclic.
    NoValidOrder,
    /// The search budget expired before any complete schedule was found.
    Interrupted,
    /// An explicit order did not cover exactly the switches whose commit
    /// moves nodes.
    OrderMismatch(String),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::UnplacedNode(n) => {
                write!(f, "node {n} is not placed by both plans; migrate requires one TDG")
            }
            MigrateError::StagingInfeasible(s) => write!(
                f,
                "switch {s} cannot hold its plan-A and plan-B MATs together; \
                 the make-before-break staging window overflows its stages"
            ),
            MigrateError::NoValidOrder => {
                write!(f, "every commit order reaches a cyclic intermediate state")
            }
            MigrateError::Interrupted => {
                write!(f, "search budget expired before any complete schedule was found")
            }
            MigrateError::OrderMismatch(detail) => write!(f, "bad explicit order: {detail}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// How the commit order is chosen.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MigrationOrder {
    /// Greedy: repeatedly commit the switch minimizing the next state's
    /// `A_max`; the ascending-id order an all-at-once transaction uses
    /// replaces it only on a strictly lower peak.
    #[default]
    Auto,
    /// A user-supplied order of the order-relevant switches (neutral
    /// switches are prepended automatically).
    Explicit(Vec<SwitchId>),
}

/// Plans safe A→B commit schedules. See the module docs for the model.
#[derive(Debug, Clone, Default)]
pub struct MigrationScheduler {
    order: MigrationOrder,
}

impl MigrationScheduler {
    /// A scheduler choosing the order itself ([`MigrationOrder::Auto`]).
    pub fn new() -> Self {
        MigrationScheduler::default()
    }

    /// A scheduler with an explicit ordering policy.
    pub fn with_order(order: MigrationOrder) -> Self {
        MigrationScheduler { order }
    }

    /// Plans a schedule for `problem` under `ctx`'s deadline/cancellation.
    ///
    /// Identical plans yield an empty (no-op) schedule. The result is
    /// deterministic for fixed inputs.
    pub fn plan(
        &self,
        problem: &MigrationProblem<'_>,
        ctx: &SearchContext,
    ) -> Result<MigrationSchedule, MigrateError> {
        let mut sim = StepSim::new(problem)?;
        // The ascending-id baseline is the all-at-once peak.
        let in_order: Vec<usize> = sim.active.clone();
        let baseline = evaluate_order(&mut sim, &in_order);
        let all_at_once_peak = baseline.as_ref().ok().copied();

        let (order, peak, planner) = match &self.order {
            MigrationOrder::Explicit(switches) => {
                let order = sim.resolve_explicit(switches)?;
                let peak = evaluate_order(&mut sim, &order)?;
                (order, peak, "explicit")
            }
            MigrationOrder::Auto => match (greedy_order(&mut sim, ctx), baseline) {
                (Ok((_, greedy)), Ok(peak)) if peak < greedy => (in_order, peak, "in-order"),
                (Ok((order, peak)), _) => (order, peak, "greedy"),
                (Err(_), Ok(peak)) => (in_order, peak, "in-order"),
                (Err(e), Err(_)) => return Err(e),
            },
        };
        Ok(sim.render_schedule(&order, peak, all_at_once_peak, planner))
    }
}

/// Convenience: the peak transient `A_max` of the ascending-id commit
/// order — what an all-at-once transaction exposes mid-commit. `None`
/// when that order reaches a cyclic intermediate state.
pub fn all_at_once_peak(problem: &MigrationProblem<'_>) -> Result<Option<u64>, MigrateError> {
    let mut sim = StepSim::new(problem)?;
    let order = sim.active.clone();
    Ok(evaluate_order(&mut sim, &order).ok())
}

/// The shared step simulator: an [`IncrementalEval`] over the union of
/// both plans' occupied switches, positioned at plan A, plus the per-slot
/// mover lists that stepping commits. Every orderer leaves it back at
/// plan A, so one simulator serves them all in turn.
#[derive(Debug)]
struct StepSim {
    /// Dense slot → switch id, ascending.
    slots: Vec<SwitchId>,
    /// Per node index: its plan-A slot.
    a_slot: Vec<usize>,
    /// Per slot: node indices whose plan-B home it is and whose plan-A
    /// home differs — exactly what moves when the slot's switch commits.
    movers: Vec<Vec<usize>>,
    /// Slots with a non-empty mover list, ascending: the only switches
    /// whose position in the order affects the objective.
    active: Vec<usize>,
    /// Occupied-in-B switches with no movers (unchanged or shrink-only),
    /// committed first as neutral steps.
    neutral: Vec<SwitchId>,
    /// Dense index → [`NodeId`] (ids are dense, so this is the inverse of
    /// [`NodeId::index`]).
    node_ids: Vec<NodeId>,
    /// Per occupied-in-B switch: resident node count during its
    /// make-before-break window (|plan-A ∪ plan-B MATs|).
    staged_nodes: BTreeMap<SwitchId, usize>,
    eval: IncrementalEval,
    from_amax: u64,
}

impl StepSim {
    fn new(problem: &MigrationProblem<'_>) -> Result<Self, MigrateError> {
        let MigrationProblem { tdg, net, from, to } = *problem;
        let slots: Vec<SwitchId> =
            from.occupied_switches().union(&to.occupied_switches()).copied().collect();
        let slot_of: BTreeMap<SwitchId, usize> =
            slots.iter().enumerate().map(|(i, &s)| (s, i)).collect();

        let n = tdg.node_count();
        let mut a_slot = vec![usize::MAX; n];
        let mut b_slot = vec![usize::MAX; n];
        let (from_assign, to_assign) = (from.switch_assignment(n), to.switch_assignment(n));
        for id in tdg.node_ids() {
            let a = from_assign[id.index()].ok_or(MigrateError::UnplacedNode(id))?;
            let b = to_assign[id.index()].ok_or(MigrateError::UnplacedNode(id))?;
            a_slot[id.index()] = slot_of[&a];
            b_slot[id.index()] = slot_of[&b];
        }

        let mut eval = IncrementalEval::new(tdg, slots.len());
        for id in tdg.node_ids() {
            eval.place(id.index(), a_slot[id.index()]);
        }
        let from_amax = eval.amax();

        let mut movers: Vec<Vec<usize>> = vec![Vec::new(); slots.len()];
        for id in tdg.node_ids() {
            let (a, b) = (a_slot[id.index()], b_slot[id.index()]);
            if a != b {
                movers[b].push(id.index());
            }
        }
        let active: Vec<usize> = (0..slots.len()).filter(|&s| !movers[s].is_empty()).collect();
        let occupied_b = to.occupied_switches();
        let neutral: Vec<SwitchId> =
            occupied_b.iter().copied().filter(|s| movers[slot_of[s]].is_empty()).collect();

        // Make-before-break staging: during its own step a switch holds
        // both plans' MATs. Prove each union packs into the pipeline once
        // up front.
        let mut probe = StageProbe::new(tdg);
        let mut staged_nodes = BTreeMap::new();
        for &s in &occupied_b {
            let slot = slot_of[&s];
            let resident = |id: NodeId| a_slot[id.index()] == slot || b_slot[id.index()] == slot;
            if !probe.fits(&net.switch(s).target_model(), resident) {
                return Err(MigrateError::StagingInfeasible(s));
            }
            staged_nodes.insert(s, tdg.node_ids().filter(|&id| resident(id)).count());
        }

        let node_ids: Vec<NodeId> = tdg.node_ids().collect();
        Ok(StepSim {
            slots,
            a_slot,
            movers,
            active,
            neutral,
            node_ids,
            staged_nodes,
            eval,
            from_amax,
        })
    }

    /// Commits `slot`: every node whose plan-B home it is moves in.
    fn commit(&mut self, slot: usize) {
        for &n in &self.movers[slot] {
            self.eval.unplace(n);
            self.eval.place(n, slot);
        }
    }

    /// Reverts [`StepSim::commit`], restoring the movers to plan A.
    fn uncommit(&mut self, slot: usize) {
        for &n in &self.movers[slot] {
            self.eval.unplace(n);
            self.eval.place(n, self.a_slot[n]);
        }
    }

    /// Maps an explicit switch list onto active slots, requiring it to
    /// cover exactly the order-relevant switches.
    fn resolve_explicit(&self, switches: &[SwitchId]) -> Result<Vec<usize>, MigrateError> {
        let active_set: BTreeSet<SwitchId> = self.active.iter().map(|&s| self.slots[s]).collect();
        let given: BTreeSet<SwitchId> = switches.iter().copied().collect();
        if given.len() != switches.len() {
            return Err(MigrateError::OrderMismatch("a switch is listed twice".to_string()));
        }
        if given != active_set {
            let expect: Vec<String> = active_set.iter().map(ToString::to_string).collect();
            return Err(MigrateError::OrderMismatch(format!(
                "the order must list exactly the switches whose commit moves MATs: {}",
                expect.join(", ")
            )));
        }
        let slot_of: BTreeMap<SwitchId, usize> =
            self.active.iter().map(|&s| (self.slots[s], s)).collect();
        Ok(switches.iter().map(|s| slot_of[s]).collect())
    }

    /// Renders a validated active-slot order as the full step schedule:
    /// neutral switches first (ascending), then the ordered active steps.
    fn render_schedule(
        &mut self,
        order: &[usize],
        peak: u64,
        all_at_once_peak: Option<u64>,
        planner: &str,
    ) -> MigrationSchedule {
        let mut steps = Vec::with_capacity(self.neutral.len() + order.len());
        for &switch in &self.neutral {
            steps.push(MigrationStep {
                switch,
                moved: Vec::new(),
                transient_amax: self.from_amax,
                staged_nodes: self.staged_nodes[&switch],
            });
        }
        let mut to_amax = self.from_amax;
        for &slot in order {
            self.commit(slot);
            let switch = self.slots[slot];
            let moved: Vec<NodeId> = self.movers[slot].iter().map(|&n| self.node_ids[n]).collect();
            to_amax = self.eval.amax();
            steps.push(MigrationStep {
                switch,
                moved,
                transient_amax: to_amax,
                staged_nodes: self.staged_nodes[&switch],
            });
        }
        MigrationSchedule {
            steps,
            peak_transient_amax: peak.max(self.from_amax),
            from_amax: self.from_amax,
            to_amax,
            all_at_once_peak,
            planner: planner.to_string(),
        }
    }
}

/// Replays a fixed active-slot order, returning its peak transient
/// `A_max` or [`MigrateError::NoValidOrder`] on a cyclic intermediate.
/// The simulator is left back at plan A.
fn evaluate_order(sim: &mut StepSim, order: &[usize]) -> Result<u64, MigrateError> {
    let mut peak = sim.from_amax;
    let mut committed = 0usize;
    let mut valid = true;
    for &slot in order {
        sim.commit(slot);
        committed += 1;
        if !sim.eval.is_acyclic() {
            valid = false;
            break;
        }
        peak = peak.max(sim.eval.amax());
    }
    for &slot in order[..committed].iter().rev() {
        sim.uncommit(slot);
    }
    if valid {
        Ok(peak)
    } else {
        Err(MigrateError::NoValidOrder)
    }
}

/// Greedy orderer: repeatedly commit the remaining switch whose next
/// state has the lowest `A_max` (ties: lowest switch id), skipping
/// candidates that would make the intermediate state cyclic.
fn greedy_order(sim: &mut StepSim, ctx: &SearchContext) -> Result<(Vec<usize>, u64), MigrateError> {
    let mut remaining = sim.active.clone();
    let mut order: Vec<usize> = Vec::with_capacity(remaining.len());
    let mut peak = sim.from_amax;
    while !remaining.is_empty() {
        if ctx.should_stop() {
            for &slot in order.iter().rev() {
                sim.uncommit(slot);
            }
            return Err(MigrateError::Interrupted);
        }
        let mut best: Option<(u64, usize)> = None;
        // `remaining` stays ascending, so strict improvement breaks ties
        // toward the lowest switch id.
        for &slot in &remaining {
            sim.commit(slot);
            let acyclic = sim.eval.is_acyclic();
            let amax = sim.eval.amax();
            sim.uncommit(slot);
            if acyclic && best.is_none_or(|(b, _)| amax < b) {
                best = Some((amax, slot));
            }
        }
        let Some((amax, slot)) = best else {
            for &s in order.iter().rev() {
                sim.uncommit(s);
            }
            return Err(MigrateError::NoValidOrder);
        };
        sim.commit(slot);
        peak = peak.max(amax);
        order.push(slot);
        remaining.retain(|&s| s != slot);
    }
    for &slot in order.iter().rev() {
        sim.uncommit(slot);
    }
    Ok((order, peak))
}
