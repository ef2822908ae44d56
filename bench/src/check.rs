//! Output checks that take nothing from the code under test on trust: the
//! objective and the stage loads are recomputed here from the plan's
//! placements and the TDG's edges, and the journal is read back.

use hermes_core::DeploymentPlan;
use hermes_net::{Network, SwitchId};
use hermes_runtime::{replay_bytes, DeploymentRuntime, InFlight, RecoveredIntent, RecoveryAction};
use hermes_tdg::Tdg;
use std::collections::BTreeMap;

/// Slack for sums of `f64` stage fractions, far below any table's size.
const LOAD_TOL: f64 = 1e-6;

/// `A_max` from first principles: the largest number of metadata bytes any
/// ordered switch pair must carry, over the TDG edges the plan cuts.
pub fn a_max(tdg: &Tdg, plan: &DeploymentPlan) -> Result<u64, String> {
    let mut home: Vec<Option<SwitchId>> = vec![None; tdg.node_count()];
    for p in plan.placements() {
        let slot = home.get_mut(p.node.index()).ok_or("placement of an unknown node")?;
        match slot {
            Some(s) if *s != p.switch => return Err(format!("node {:?} on two switches", p.node)),
            _ => *slot = Some(p.switch),
        }
    }
    let mut pairs: BTreeMap<(SwitchId, SwitchId), u64> = BTreeMap::new();
    for e in tdg.edges() {
        let from = home[e.from.index()].ok_or_else(|| format!("node {:?} unplaced", e.from))?;
        let to = home[e.to.index()].ok_or_else(|| format!("node {:?} unplaced", e.to))?;
        if from != to {
            *pairs.entry((from, to)).or_insert(0) += u64::from(e.bytes);
        }
    }
    Ok(pairs.values().copied().max().unwrap_or(0))
}

/// Checks the plan against the TDG and the network: every MAT wholly
/// placed, no stage over its capacity, and the objective the plan reports
/// equal to [`a_max`]. Returns the recomputed objective.
pub fn plan(tdg: &Tdg, net: &Network, plan: &DeploymentPlan) -> Result<u64, String> {
    let mut placed = vec![0.0f64; tdg.node_count()];
    let mut loads: BTreeMap<(SwitchId, usize), f64> = BTreeMap::new();
    for p in plan.placements() {
        *placed.get_mut(p.node.index()).ok_or("placement of an unknown node")? += p.fraction;
        *loads.entry((p.switch, p.stage)).or_insert(0.0) += p.fraction;
    }
    for (id, total) in tdg.node_ids().zip(&placed) {
        let want = tdg.node(id).mat.resource();
        if (total - want).abs() > LOAD_TOL {
            return Err(format!("{} holds {total} of its {want} stage-units", tdg.node(id).name));
        }
    }
    for (&(switch, stage), &load) in &loads {
        let model = net.switch(switch).target_model();
        if stage >= model.stages || load > model.stage_capacity + LOAD_TOL {
            return Err(format!("stage {stage} of {switch} carries {load}"));
        }
    }
    let recomputed = a_max(tdg, plan)?;
    let reported = plan.max_inter_switch_bytes(tdg);
    if recomputed != reported {
        return Err(format!("plan reports A_max {reported} B, its placements give {recomputed} B"));
    }
    Ok(recomputed)
}

/// Reads the controller's journal back and requires the plan a restarted
/// controller would restore from it to be `plan`.
pub fn journal_restores(runtime: &DeploymentRuntime, plan: &DeploymentPlan) -> Result<(), String> {
    let replay = replay_bytes(runtime.journal().bytes()).map_err(|e| format!("replay: {e}"))?;
    let intent = RecoveredIntent::from_replay(&replay);
    let action = intent.planned_action();
    // A durable commit decision or a completed migration rolls forward to
    // the operation's own plan; everything else restores the snapshot.
    let restored = match (action, &intent.in_flight) {
        (RecoveryAction::ResumeCommit, Some(InFlight::Txn { plan, .. }))
        | (RecoveryAction::CompleteMigration, Some(InFlight::Migration { plan, .. })) => Some(plan),
        (RecoveryAction::Cleared, _) => None,
        _ => intent.snapshot.as_ref().map(|s| &s.plan),
    };
    match restored {
        Some(restored) if restored == plan => Ok(()),
        Some(restored) => Err(format!(
            "journal ({action}) restores plan {:016x}, the serving plan is {:016x}",
            restored.fingerprint(),
            plan.fingerprint()
        )),
        None => Err(format!("journal ({action}) restores nothing")),
    }
}

/// Every live switch the active plan occupies serves the active epoch.
pub fn agents_on_active_epoch(runtime: &DeploymentRuntime) -> Result<(), String> {
    let (Some(plan), Some(epoch)) = (runtime.active_plan(), runtime.active_epoch()) else {
        return Ok(());
    };
    let down = runtime.network().down_switches();
    for switch in plan.occupied_switches() {
        let Some(agent) = runtime.agent(switch) else {
            return Err(format!("plan occupies {switch}, which has no agent"));
        };
        if down.contains(&switch) || agent.is_crashed() {
            continue;
        }
        if agent.active_epoch() != Some(epoch) {
            return Err(format!(
                "{switch} serves epoch {:?}, the active epoch is {epoch}",
                agent.active_epoch()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;

    #[test]
    fn recomputed_objective_matches_a_solved_plan_and_catches_a_moved_mat() {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = crate::workload::topology("linear:3");
        let solved = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan(&tdg, &net, &solved), Ok(solved.max_inter_switch_bytes(&tdg)));

        // Drop one placement: its MAT is no longer wholly placed.
        let mut short = DeploymentPlan::new();
        for p in &solved.placements()[1..] {
            short.place(p.clone());
        }
        assert!(plan(&tdg, &net, &short).is_err());
    }
}
