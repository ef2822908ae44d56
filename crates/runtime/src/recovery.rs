//! Post-crash recovery: journal replay, intent reconstruction, and
//! agent reconciliation.
//!
//! A controller crash ([`crate::runtime::ControllerCrash`]) loses every
//! piece of in-memory state — the epoch counter, the active deployment,
//! the in-flight transaction. What survives is the write-ahead
//! [`crate::journal::Journal`] and a fleet of agents frozen mid-protocol:
//! some serving the old plan, some with the new epoch staged, some
//! already committed to it, some with leases quietly lapsing.
//!
//! [`DeploymentRuntime::recover`] restores the invariant the runtime
//! promises everywhere else — *exactly plan A or exactly plan B, never a
//! mix* — in four moves:
//!
//! 1. **Replay** — decode the journal ([`crate::journal::replay_bytes`]),
//!    discarding a torn tail, and fold the records into a
//!    [`RecoveredIntent`]: the last durable snapshot plus whatever
//!    transaction or migration was in flight.
//! 2. **Fence by time and epoch** — the virtual clock jumps two lease
//!    windows, so every agent whose commit-window lease was running at
//!    the crash has provably self-fenced by the time recovery speaks to
//!    it. All reinstalls then run under a *fresh* epoch, strictly greater
//!    than any epoch the journal (and therefore any agent) has ever
//!    seen — write-ahead epoch advances make `max(journal) + 1` safe.
//! 3. **Reconcile** — probe every switch under the fresh epoch to learn
//!    what each agent actually serves ([`crate::event::Event::AgentReconciled`]).
//!    Probes never fence; dead switches are marked down so the repair
//!    plans around them.
//! 4. **Repair** — pick the [`RecoveryAction`] the journal dictates: a
//!    transaction whose commit decision was durable rolls *forward* (the
//!    decision is the point of no return — some agent may already serve
//!    it); one without rolls *back* to the snapshot; a migration rolls
//!    forward only if its completion record landed. The journal holds no
//!    per-switch configs: they are regenerated from the chosen plan and
//!    the TDG, and reinstalled switch by switch under the fresh epoch
//!    through the commit engine's per-switch step; a switch that refuses is
//!    force-activated out of band, and past the abort threshold (three
//!    failures, the migration's threshold) the surgical path is abandoned
//!    for a full out-of-band restore.
//!
//! Recovery assumes the single-fault model: crash injection is disarmed
//! on entry, and recovery's own journal writes bypass the injector, so a
//! recovering controller cannot crash again mid-repair. Nothing on this
//! path panics — corrupt journals surface as [`RecoveryError::Journal`],
//! a foreign journal as [`RecoveryError::TdgFingerprintMismatch`] and a
//! plan placed outside the TDG or the network as
//! [`RecoveryError::PlacementOutOfRange`] (enforced by the crate's
//! `clippy.toml` unwrap/expect ban).

use crate::agent::{AgentError, Reply, Request};
use crate::event::{Event, MessageKind};
use crate::journal::{JournalError, JournalRecord, RenderedPlan, Replay, TxnKind};
use crate::runtime::DeploymentRuntime;
use crate::txn::{ActiveDeployment, ABORT_THRESHOLD, LEASE_US, MAX_ATTEMPTS};
use hermes_backend::generate;
use hermes_core::{verify, DeploymentPlan};
use hermes_net::SwitchId;
use hermes_tdg::{NodeId, Tdg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The repair a recovery run decided on, derived purely from the journal
/// (see [`RecoveredIntent::planned_action`]) and demoted from a forward
/// action to its rollback counterpart only if the forward target no
/// longer verifies on the post-crash network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// No transaction was in flight: re-assert the snapshot so every
    /// agent provably serves it under the fresh epoch.
    AffirmSnapshot,
    /// A transaction died before its commit decision became durable (or
    /// after its abort did): abandon it and re-assert the snapshot.
    RollBackTxn,
    /// A transaction's commit decision was durable: finish its commits
    /// by reinstalling the target plan under the fresh epoch.
    ResumeCommit,
    /// Every migration step committed (the completion record landed):
    /// plan B is the intended state; reinstall it under the fresh epoch.
    CompleteMigration,
    /// The migration died mid-schedule (or mid-rollback): plan A is the
    /// intended state; reinstall it under the fresh epoch.
    RollBackMigration,
    /// The journal holds neither a snapshot nor a resumable intent: the
    /// controller deliberately serves nothing, and every live agent is
    /// wiped to match.
    Cleared,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryAction::AffirmSnapshot => "affirm-snapshot",
            RecoveryAction::RollBackTxn => "roll-back-txn",
            RecoveryAction::ResumeCommit => "resume-commit",
            RecoveryAction::CompleteMigration => "complete-migration",
            RecoveryAction::RollBackMigration => "roll-back-migration",
            RecoveryAction::Cleared => "cleared",
        })
    }
}

/// The last durable activation snapshot found in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// The epoch the snapshot was active under.
    pub epoch: u64,
    /// Fingerprint of the TDG the snapshot was validated against.
    pub tdg_fp: u64,
    /// Fingerprint of `plan`.
    pub plan_fp: u64,
    /// The snapshotted plan.
    pub plan: DeploymentPlan,
    /// Virtual time of the activation.
    pub clock_us: u64,
}

/// The unconcluded operation the journal's suffix describes, if any.
#[derive(Debug, Clone, PartialEq)]
pub enum InFlight {
    /// A two-phase transaction (deploy, heal, or recovery reinstall).
    Txn {
        /// The transaction epoch.
        epoch: u64,
        /// What initiated it.
        kind: TxnKind,
        /// Fingerprint of the TDG it was validated against.
        tdg_fp: u64,
        /// Fingerprint of `plan`.
        plan_fp: u64,
        /// The target plan.
        plan: DeploymentPlan,
        /// The journaled commit order — `Some` iff the point of no
        /// return was crossed durably.
        commit_order: Option<Vec<SwitchId>>,
        /// `true` when the whole-transaction commit record landed (the
        /// activation snapshot did not — it would have concluded the
        /// intent).
        committed: bool,
        /// `true` when the abort decision landed.
        aborted: bool,
    },
    /// A staged migration.
    Migration {
        /// The migration epoch.
        epoch: u64,
        /// Fingerprint of the TDG.
        tdg_fp: u64,
        /// Fingerprint of the target plan.
        plan_fp: u64,
        /// The target plan (plan B).
        plan: DeploymentPlan,
        /// The scheduled commit order.
        order: Vec<SwitchId>,
        /// `true` when the rollback decision landed.
        rolled_back: bool,
        /// `true` when the all-steps-committed record landed (but not
        /// the activation snapshot).
        completed: bool,
    },
}

impl InFlight {
    /// Folds one record of this operation's epoch into it.
    fn advance(&mut self, record: &JournalRecord) {
        match (self, record) {
            (InFlight::Txn { commit_order, .. }, JournalRecord::CommitDecided { order, .. }) => {
                *commit_order = Some(order.clone());
            }
            (InFlight::Txn { committed, .. }, JournalRecord::TxnCommitted { .. }) => {
                *committed = true;
            }
            (InFlight::Txn { aborted, .. }, JournalRecord::TxnAborted { .. }) => *aborted = true,
            (
                InFlight::Migration { rolled_back, .. },
                JournalRecord::MigrationRolledBack { .. },
            ) => {
                *rolled_back = true;
            }
            (InFlight::Migration { completed, .. }, JournalRecord::MigrationCompleted { .. }) => {
                *completed = true;
            }
            _ => {}
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            InFlight::Txn { epoch, .. } | InFlight::Migration { epoch, .. } => *epoch,
        }
    }

    fn tdg_fp(&self) -> u64 {
        match self {
            InFlight::Txn { tdg_fp, .. } | InFlight::Migration { tdg_fp, .. } => *tdg_fp,
        }
    }

    fn plan(&self) -> &DeploymentPlan {
        match self {
            InFlight::Txn { plan, .. } | InFlight::Migration { plan, .. } => plan,
        }
    }
}

/// Everything a journal replay says about where the controller was when
/// it died: the last durable snapshot, the operation in flight (if its
/// conclusion never became durable), and the highest epoch ever journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredIntent {
    /// The last durable activation snapshot, if any.
    pub snapshot: Option<SnapshotState>,
    /// The unconcluded operation, if any.
    pub in_flight: Option<InFlight>,
    /// `true` when the journal's last word on active state was
    /// [`JournalRecord::Cleared`] (deliberately serving nothing).
    pub cleared: bool,
    /// The highest epoch any journaled record carries. Write-ahead epoch
    /// advances guarantee `max_epoch + 1` is fresh: no agent has seen it.
    pub max_epoch: u64,
    /// Records replayed.
    pub records: usize,
    /// Torn-tail bytes the replay discarded.
    pub discarded_tail_bytes: usize,
}

impl RecoveredIntent {
    /// Folds a replay into recovered intent. Pure bookkeeping: no agent
    /// is touched, no state changed — the CLI's `recover` command uses
    /// this to explain a journal without acting on it.
    pub fn from_replay(replay: &Replay) -> Self {
        let mut intent = RecoveredIntent {
            snapshot: None,
            in_flight: None,
            cleared: false,
            max_epoch: 0,
            records: replay.records.len(),
            discarded_tail_bytes: replay.discarded_tail_bytes,
        };
        for record in &replay.records {
            intent.max_epoch = intent.max_epoch.max(record.epoch());
            match record {
                JournalRecord::TxnBegun { epoch, kind, tdg_fp, plan_fp, plan } => {
                    intent.in_flight = Some(InFlight::Txn {
                        epoch: *epoch,
                        kind: *kind,
                        tdg_fp: *tdg_fp,
                        plan_fp: *plan_fp,
                        plan: plan.plan().clone(),
                        commit_order: None,
                        committed: false,
                        aborted: false,
                    });
                }
                JournalRecord::Snapshot { epoch, tdg_fp, plan_fp, plan, clock_us } => {
                    // An activation snapshot concludes whatever was in
                    // flight: the controller reached a consistent state.
                    intent.snapshot = Some(SnapshotState {
                        epoch: *epoch,
                        tdg_fp: *tdg_fp,
                        plan_fp: *plan_fp,
                        plan: plan.plan().clone(),
                        clock_us: *clock_us,
                    });
                    intent.in_flight = None;
                    intent.cleared = false;
                }
                JournalRecord::Cleared { .. } => {
                    intent.snapshot = None;
                    intent.in_flight = None;
                    intent.cleared = true;
                }
                JournalRecord::MigrationBegun { epoch, tdg_fp, plan_fp, plan, order } => {
                    intent.in_flight = Some(InFlight::Migration {
                        epoch: *epoch,
                        tdg_fp: *tdg_fp,
                        plan_fp: *plan_fp,
                        plan: plan.plan().clone(),
                        order: order.clone(),
                        rolled_back: false,
                        completed: false,
                    });
                }
                // Every other record advances the operation in flight, if
                // it belongs to that operation's epoch.
                progress => {
                    let epoch = progress.epoch();
                    if let Some(op) = intent.in_flight.as_mut().filter(|op| op.epoch() == epoch) {
                        op.advance(progress);
                    }
                }
            }
        }
        intent
    }

    /// The action the journal alone dictates (before network reality can
    /// demote a forward action to its rollback counterpart).
    pub fn planned_action(&self) -> RecoveryAction {
        match &self.in_flight {
            Some(InFlight::Txn { aborted: true, .. }) => RecoveryAction::RollBackTxn,
            Some(InFlight::Txn { committed, commit_order, .. }) => {
                if *committed || commit_order.is_some() {
                    // The point of no return was durable: some agent may
                    // already serve the target, so backward is unsafe.
                    RecoveryAction::ResumeCommit
                } else {
                    RecoveryAction::RollBackTxn
                }
            }
            Some(InFlight::Migration { completed, rolled_back, .. }) => {
                if *completed && !*rolled_back {
                    RecoveryAction::CompleteMigration
                } else {
                    RecoveryAction::RollBackMigration
                }
            }
            None if self.snapshot.is_some() => RecoveryAction::AffirmSnapshot,
            None => RecoveryAction::Cleared,
        }
    }

    /// The TDG fingerprint the journal's most authoritative record
    /// carries (the in-flight intent, else the snapshot), if any.
    pub fn tdg_fp(&self) -> Option<u64> {
        self.in_flight
            .as_ref()
            .map(InFlight::tdg_fp)
            .or_else(|| self.snapshot.as_ref().map(|s| s.tdg_fp))
    }
}

/// Typed recovery failure. Either the journal itself is unusable, or it
/// describes a different workload than the one recovery was asked to
/// restore — both cases where acting would be worse than stopping.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The journal failed to replay (header damage or provable mid-log
    /// corruption; a torn tail is *not* an error).
    Journal(JournalError),
    /// The journal's records were validated against a different TDG than
    /// the one supplied: refusing beats reinstalling a plan whose
    /// workload assumptions no longer hold.
    TdgFingerprintMismatch {
        /// Fingerprint of the TDG recovery was called with.
        expected: u64,
        /// Fingerprint the journal records carry.
        found: u64,
    },
    /// A journaled plan places a MAT on a node the TDG does not have or on
    /// a switch the network does not have: its configs cannot be
    /// regenerated, and no agent could be told to serve it.
    PlacementOutOfRange {
        /// The placed node.
        node: NodeId,
        /// The hosting switch.
        switch: SwitchId,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal replay failed: {e}"),
            RecoveryError::TdgFingerprintMismatch { expected, found } => write!(
                f,
                "journal records a different workload: tdg fingerprint {found:#018x}, expected \
                 {expected:#018x}"
            ),
            RecoveryError::PlacementOutOfRange { node, switch } => write!(
                f,
                "journaled plan places node {node} on switch {switch}, outside the TDG or the \
                 network"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Journal(e) => Some(e),
            RecoveryError::TdgFingerprintMismatch { .. }
            | RecoveryError::PlacementOutOfRange { .. } => None,
        }
    }
}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

/// What one [`DeploymentRuntime::recover`] run did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The fresh epoch recovery ran (and the restored plan serves) under.
    pub epoch: u64,
    /// The repair that was applied.
    pub action: RecoveryAction,
    /// Journal records replayed.
    pub replayed: usize,
    /// Torn-tail bytes the replay discarded.
    pub discarded_tail_bytes: usize,
    /// Switches reinstalled through the prepare/commit protocol.
    pub reinstalled: usize,
    /// Switches force-activated out of band (including a full restore).
    pub forced: usize,
    /// Switches that answered no reconciliation probe at all.
    pub unreachable: usize,
    /// Control-plane messages recovery sent.
    pub messages: u64,
    /// Virtual time recovery took, including the two-lease fencing wait.
    pub recovery_us: u64,
}

impl DeploymentRuntime {
    /// Recovers a crashed (or merely restarted) controller from its
    /// journal: replays intent, reconciles every agent, and repairs the
    /// fleet to exactly one consistent deployment under a fresh epoch.
    /// See the module docs for the full protocol.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Journal`] when the journal cannot replay,
    /// [`RecoveryError::TdgFingerprintMismatch`] when it describes a
    /// different workload than `tdg`, and
    /// [`RecoveryError::PlacementOutOfRange`] when a plan it holds places a
    /// MAT outside `tdg` or the network. In every case nothing was changed.
    pub fn recover(&mut self, tdg: &Tdg) -> Result<RecoveryReport, RecoveryError> {
        // Replay before touching anything: a corrupt journal must leave
        // the runtime exactly as it was.
        let replay = self.journal.replay()?;
        let intent = RecoveredIntent::from_replay(&replay);
        let expected = hermes_core::tdg_fingerprint(tdg);
        if let Some(found) = intent.tdg_fp().filter(|&fp| fp != expected) {
            return Err(RecoveryError::TdgFingerprintMismatch { expected, found });
        }
        // Configs are regenerated from whichever plan is restored, which
        // indexes the TDG and the network by its placements.
        let bad = intent
            .snapshot
            .iter()
            .map(|s| &s.plan)
            .chain(intent.in_flight.iter().map(InFlight::plan))
            .flat_map(DeploymentPlan::placements)
            .find(|p| {
                p.node.index() >= tdg.node_count() || p.switch.index() >= self.net.switch_count()
            });
        if let Some(p) = bad {
            return Err(RecoveryError::PlacementOutOfRange { node: p.node, switch: p.switch });
        }

        let start_us = self.clock_us;
        let messages_before = self.channel.messages_sent();
        // The restarted controller is a new single fault domain: injected
        // crashes are disarmed, and the old process's in-flight messages
        // died with it.
        self.injector.disarm_controller_crash();
        self.channel.clear();
        // The dying process wrote no event; the restarted one records
        // what it found.
        if let Some(crash) = self.crashed.take() {
            self.log.push(Event::ControllerCrashed {
                epoch: crash.epoch,
                point: crash.point,
                at_us: self.clock_us,
            });
        }

        // Fence by time: after two lease windows of silence, every agent
        // whose commit-window lease was running at the crash has provably
        // self-fenced — no zombie can still be serving a lapsed epoch.
        self.clock_us += 2 * LEASE_US;
        // Fence by epoch: write-ahead advances make max(journal) + 1
        // strictly newer than anything any agent has seen. Recovery's own
        // journal writes bypass the injector (single-fault model).
        let fresh = intent.max_epoch + 1;
        self.journal.append(&JournalRecord::RecoveryBegun { epoch: fresh });
        self.epoch = fresh;
        self.log.push(Event::RecoveryStarted {
            epoch: fresh,
            replayed: intent.records,
            discarded_tail_bytes: intent.discarded_tail_bytes,
            at_us: self.clock_us,
        });

        let unreachable = self.reconcile_agents(fresh);

        // Decide the repair. Forward actions demote to their rollback
        // counterpart if the forward target no longer verifies on the
        // post-crash network (a switch may have died with the controller).
        let mut action = intent.planned_action();
        let forward = match (&action, &intent.in_flight) {
            (RecoveryAction::ResumeCommit, Some(InFlight::Txn { plan, .. }))
            | (RecoveryAction::CompleteMigration, Some(InFlight::Migration { plan, .. })) => {
                Some(plan)
            }
            _ => None,
        };
        let chosen = match forward {
            Some(plan) if verify(tdg, &self.net, plan, &self.eps).is_empty() => Some(plan),
            Some(_) => {
                action = match action {
                    RecoveryAction::CompleteMigration => RecoveryAction::RollBackMigration,
                    _ => RecoveryAction::RollBackTxn,
                };
                intent.snapshot.as_ref().map(|s| &s.plan)
            }
            None => match action {
                RecoveryAction::Cleared => None,
                _ => intent.snapshot.as_ref().map(|s| &s.plan),
            },
        };

        let (reinstalled, forced) = match chosen {
            Some(plan) => {
                // The journal holds plans, not configs: they are derived
                // from the plan and the TDG, as the controller derived them
                // before the crash.
                let artifacts = generate(tdg, &self.net, plan);
                self.reinstall(ActiveDeployment {
                    epoch: fresh,
                    tdg: tdg.clone(),
                    plan: RenderedPlan::new(plan.clone()),
                    artifacts,
                    tdg_fp: expected,
                })
            }
            None => {
                // Nothing to restore: journal the cleared state and wipe
                // every live agent to match it.
                self.journal.append(&JournalRecord::Cleared { epoch: fresh });
                self.restore_fleet(None);
                (0, 0)
            }
        };

        self.journal
            .append(&JournalRecord::RecoveryCompleted { epoch: fresh, action: action.to_string() });
        self.log.push(Event::RecoveryApplied {
            epoch: fresh,
            action: action.to_string(),
            reinstalled,
            forced,
            at_us: self.clock_us,
        });
        let messages = self.channel.messages_sent() - messages_before;
        let recovery_us = self.clock_us - start_us;
        self.log.push(Event::RecoveryFinished {
            epoch: fresh,
            messages,
            recovery_us,
            at_us: self.clock_us,
        });
        Ok(RecoveryReport {
            epoch: fresh,
            action,
            replayed: intent.records,
            discarded_tail_bytes: intent.discarded_tail_bytes,
            reinstalled,
            forced,
            unreachable,
            messages,
            recovery_us,
        })
    }

    /// Probes every switch under the fresh epoch to learn what it
    /// actually serves. Probes never fence; a `Crashed` answer marks the
    /// switch down in the substrate, and total silence is recorded as
    /// unreachable (the repair treats such switches like force-restore
    /// does: out of band, best effort). Returns the unreachable count.
    fn reconcile_agents(&mut self, fresh: u64) -> usize {
        let mut unreachable = 0usize;
        let switches: Vec<SwitchId> = self.net.switch_ids().collect();
        for switch in switches {
            let mut answered: Option<Reply> = None;
            for _ in 0..MAX_ATTEMPTS {
                if let Some(reply) =
                    self.exchange(switch, fresh, Request::Probe, MessageKind::Probe)
                {
                    answered = Some(reply);
                    break;
                }
            }
            match answered {
                Some(Reply::Nack { error: AgentError::Crashed, .. }) => {
                    if !self.net.down_switches().contains(&switch) {
                        self.fail_switch(switch);
                    }
                    self.log.push(Event::AgentReconciled {
                        switch,
                        serving_epoch: None,
                        reachable: true,
                        at_us: self.clock_us,
                    });
                }
                Some(reply) => {
                    self.log.push(Event::AgentReconciled {
                        switch,
                        serving_epoch: reply.active_epoch(),
                        reachable: true,
                        at_us: self.clock_us,
                    });
                }
                None => {
                    unreachable += 1;
                    self.log.push(Event::AgentReconciled {
                        switch,
                        serving_epoch: None,
                        reachable: false,
                        at_us: self.clock_us,
                    });
                }
            }
        }
        unreachable
    }

    /// Reinstalls `deployment` on every live switch it occupies, under its
    /// (fresh) epoch, one per-switch step each, falling back per switch to
    /// out-of-band force-activation and — past the abort threshold — to
    /// the full restore. Either way the fleet ends restored to exactly
    /// `deployment` (agents it does not occupy wiped, so nothing stale
    /// keeps serving beside it), which is journaled as the new snapshot.
    /// Returns `(reinstalled, forced)` counts.
    fn reinstall(&mut self, deployment: ActiveDeployment) -> (usize, usize) {
        let down = self.net.down_switches();
        let mut window = self.open_window(deployment.epoch);
        let mut forced = 0usize;
        let mut failures = 0u32;
        for (&switch, config) in &deployment.artifacts.switches {
            if down.contains(&switch) || self.step(&mut window, switch, config) == Ok(true) {
                continue;
            }
            failures += 1;
            if failures > ABORT_THRESHOLD {
                break;
            }
            // Surgical fallback for this switch alone.
            if let Some(agent) = self.agents.get_mut(&switch) {
                agent.force_activate(deployment.epoch, Some(config.clone()));
            }
            forced += 1;
        }
        let counts = if failures > ABORT_THRESHOLD {
            // Too much of the fleet refuses the protocol: stop being
            // surgical and restore everything out of band.
            self.channel.clear();
            (0, deployment.artifacts.switches.keys().filter(|s| !down.contains(s)).count())
        } else {
            // End commit-window supervision for the reinstalled agents
            // (the same sweep a committing transaction runs).
            self.close_window(&window);
            (window.committed.len(), forced)
        };
        self.journal.append(&deployment.snapshot(self.clock_us));
        self.restore_fleet(Some(deployment));
        counts
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultProfile};
    use crate::journal::{CrashPoint, CrashTiming, Journal};
    use crate::runtime::tests::{boundary_of, clean_runtime, workload};
    use crate::runtime::{RetryPolicy, RolloutOutcome};
    use hermes_core::{Epsilon, ProgramAnalyzer, StagePlacement};
    use hermes_dataplane::library;

    /// `rt` with a crash armed at the commit decision of its next rollout
    /// of `plan`.
    fn armed_at_decision(
        mut rt: DeploymentRuntime,
        tdg: &Tdg,
        plan: &DeploymentPlan,
        timing: CrashTiming,
    ) -> DeploymentRuntime {
        let nth = boundary_of(CrashPoint::CommitDecision, &rt, tdg, plan);
        rt.injector_mut().arm_controller_crash_at(nth, timing);
        rt
    }

    #[test]
    fn intent_folding_tracks_the_txn_state_machine() {
        let mut j = Journal::new();
        j.append(&JournalRecord::EpochAdvanced { epoch: 1 });
        let plan = RenderedPlan::new(workload().2);
        j.append(&JournalRecord::TxnBegun {
            epoch: 1,
            kind: TxnKind::Deploy,
            tdg_fp: 7,
            plan_fp: 8,
            plan: plan.clone(),
        });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::RollBackTxn);
        assert_eq!(intent.max_epoch, 1);
        assert_eq!(intent.tdg_fp(), Some(7));

        j.append(&JournalRecord::CommitDecided { epoch: 1, order: vec![] });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::ResumeCommit);

        j.append(&JournalRecord::TxnAborted { epoch: 1, reason: "no".into() });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::RollBackTxn);

        j.append(&JournalRecord::Snapshot { epoch: 1, tdg_fp: 7, plan_fp: 8, plan, clock_us: 0 });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::AffirmSnapshot);
        assert!(intent.in_flight.is_none());
    }

    #[test]
    fn intent_folding_tracks_migrations_and_cleared_state() {
        let plan = RenderedPlan::new(workload().2);
        let mut j = Journal::new();
        assert_eq!(
            RecoveredIntent::from_replay(&j.replay().unwrap()).planned_action(),
            RecoveryAction::Cleared
        );
        j.append(&JournalRecord::MigrationBegun {
            epoch: 2,
            tdg_fp: 7,
            plan_fp: 9,
            plan: plan.clone(),
            order: vec![],
        });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::RollBackMigration);

        j.append(&JournalRecord::MigrationCompleted { epoch: 2, steps: 3 });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::CompleteMigration);

        j.append(&JournalRecord::Cleared { epoch: 2 });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::Cleared);
        assert!(intent.cleared);
    }

    #[test]
    fn crash_after_commit_decision_resumes_forward() {
        let (tdg, net, plan) = workload();
        let mut rt = armed_at_decision(clean_runtime(&net), &tdg, &plan, CrashTiming::AfterWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(matches!(outcome, RolloutOutcome::ControllerCrashed { .. }));
        assert_eq!(rt.active_plan(), None);

        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::ResumeCommit);
        assert_eq!(report.reinstalled, plan.occupied_switch_count());
        assert_eq!(report.forced, 0);
        assert_eq!(rt.active_plan(), Some(&plan));
        assert_eq!(rt.active_epoch(), Some(report.epoch));
        assert!(rt.crashed().is_none(), "recovery clears the sticky crash");
        // Every live occupied agent serves the fresh epoch; nobody serves
        // the abandoned one.
        for switch in plan.occupied_switches() {
            assert_eq!(rt.agent(switch).unwrap().active_epoch(), Some(report.epoch));
        }
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(1), "epoch 1 died with the controller");
        }
        // The runtime accepts work again.
        assert!(rt.rollout(&tdg, plan).is_committed());
    }

    #[test]
    fn crash_after_the_prepares_rolls_back_to_nothing_on_first_deploy() {
        let (tdg, net, plan) = workload();
        // Every switch has staged; the commit decision does not land.
        let mut rt = armed_at_decision(clean_runtime(&net), &tdg, &plan, CrashTiming::BeforeWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        match outcome {
            RolloutOutcome::ControllerCrashed { point, .. } => {
                assert_eq!(point, CrashPoint::CommitDecision);
            }
            other => panic!("expected a crash, got {other}"),
        }
        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::RollBackTxn);
        assert_eq!(rt.active_plan(), None, "no snapshot existed to restore");
        for agent in rt.agents() {
            assert_eq!(agent.active_epoch(), None);
            assert_eq!(agent.staged_epoch(), None, "staged state is wiped");
        }
        // The journal records a consistent cleared state.
        let intent = RecoveredIntent::from_replay(&rt.journal().replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::Cleared);
    }

    #[test]
    fn crash_mid_second_rollout_restores_the_first_plan() {
        let (tdg, net, plan) = workload();
        let mut rt = clean_runtime(&net);
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        // Crash the second rollout before its commit decision lands: the
        // first plan's snapshot must come back.
        let mut rt = armed_at_decision(rt, &tdg, &plan, CrashTiming::BeforeWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(matches!(outcome, RolloutOutcome::ControllerCrashed { .. }));

        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::RollBackTxn);
        assert_eq!(rt.active_plan(), Some(&plan));
        for switch in plan.occupied_switches() {
            assert_eq!(rt.agent(switch).unwrap().active_epoch(), Some(report.epoch));
        }
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(2), "the abandoned epoch is gone");
        }
    }

    #[test]
    fn recovery_refuses_a_foreign_workload() {
        let (tdg, net, plan) = workload();
        let mut rt = clean_runtime(&net);
        assert!(rt.rollout(&tdg, plan).is_committed());
        let programs = library::real_programs();
        let other = ProgramAnalyzer::new().analyze(&programs[..programs.len() - 1]);
        assert_ne!(
            hermes_core::tdg_fingerprint(&other),
            hermes_core::tdg_fingerprint(&tdg),
            "the truncated workload must fingerprint differently"
        );
        match rt.recover(&other) {
            Err(RecoveryError::TdgFingerprintMismatch { expected, found }) => {
                assert_eq!(expected, hermes_core::tdg_fingerprint(&other));
                assert_eq!(found, hermes_core::tdg_fingerprint(&tdg));
            }
            other => panic!("foreign workload must be refused, got {other:?}"),
        }
    }

    #[test]
    fn a_plan_placed_outside_the_tdg_or_the_network_is_refused_untouched() {
        let (tdg, net, plan) = workload();
        let tdg_fp = hermes_core::tdg_fingerprint(&tdg);
        let first = plan.placements()[0].clone();
        let node: NodeId = serde_json::from_str(&tdg.node_count().to_string()).unwrap();
        let switch: SwitchId = serde_json::from_str(&net.switch_count().to_string()).unwrap();
        for (node, switch) in [(node, first.switch), (first.node, switch)] {
            let mut bad = plan.clone();
            bad.place(StagePlacement { node, switch, ..first.clone() });
            let bad = RenderedPlan::new(bad);
            let snapshot = vec![JournalRecord::Snapshot {
                epoch: 1,
                tdg_fp,
                plan_fp: bad.fingerprint(),
                plan: bad.clone(),
                clock_us: 0,
            }];
            let resumable = vec![
                JournalRecord::TxnBegun {
                    epoch: 1,
                    kind: TxnKind::Deploy,
                    tdg_fp,
                    plan_fp: bad.fingerprint(),
                    plan: bad.clone(),
                },
                JournalRecord::CommitDecided { epoch: 1, order: vec![] },
            ];
            for records in [snapshot, resumable] {
                let mut rt = clean_runtime(&net);
                for record in &records {
                    rt.journal.append(record);
                }
                let before = format!("{rt:?}");
                assert_eq!(
                    rt.recover(&tdg),
                    Err(RecoveryError::PlacementOutOfRange { node, switch })
                );
                assert_eq!(format!("{rt:?}"), before, "a refused recovery changes nothing");
            }
        }
    }

    /// The highest epoch any agent has staged, fenced, served or answered
    /// a request of.
    fn highest_epoch_seen(rt: &DeploymentRuntime) -> u64 {
        let cached = |a: &crate::agent::SwitchAgent| {
            (0..=rt.epoch).filter(|&e| (0..=rt.seq).any(|s| a.has_seen(e, s))).max()
        };
        rt.agents()
            .flat_map(|a| [a.active_epoch(), a.staged_epoch(), Some(a.fenced_epoch()), cached(a)])
            .flatten()
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn recovery_after_a_forced_restore_uses_an_epoch_no_agent_has_seen() {
        let (tdg, net, plan) = workload();
        let post_commit = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
        // A re-rollout whose heal fails restores the first deployment out
        // of band: a snapshot older than the epochs spent before it.
        let mut rt = (0..50u64)
            .find_map(|seed| {
                let mut rt = clean_runtime(&net);
                assert!(rt.rollout(&tdg, plan.clone()).is_committed());
                rt.set_injector(FaultInjector::new(seed, post_commit));
                let outcome = rt.rollout(&tdg, plan.clone());
                matches!(outcome, RolloutOutcome::RolledBack { .. }).then_some(rt)
            })
            .expect("some seed's heal fails");
        assert_eq!(rt.active_epoch(), Some(1), "the first deployment was restored");
        assert!(rt.epoch > 2, "the failed heal spent an epoch after the restored one");
        rt.injector_mut().arm_controller_crash_at(0, CrashTiming::BeforeWrite);
        assert!(matches!(rt.rollout(&tdg, plan), RolloutOutcome::ControllerCrashed { .. }));
        let seen = highest_epoch_seen(&rt);
        let report = rt.recover(&tdg).expect("recovery succeeds");
        assert!(report.epoch > seen, "recovery epoch {} reuses epoch {seen}", report.epoch);
    }

    #[test]
    fn recovery_is_idempotent_and_journaled() {
        let (tdg, net, plan) = workload();
        let mut rt = clean_runtime(&net);
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        let first = rt.recover(&tdg).expect("affirming recovery must succeed");
        assert_eq!(first.action, RecoveryAction::AffirmSnapshot);
        let second = rt.recover(&tdg).expect("recovery of a recovered state must succeed");
        assert_eq!(second.action, RecoveryAction::AffirmSnapshot);
        assert_eq!(rt.active_plan(), Some(&plan));
        // Epochs strictly increase across recoveries.
        assert!(second.epoch > first.epoch);
        let replay = rt.journal().replay().unwrap();
        assert!(replay
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::RecoveryCompleted { .. })));
    }

    #[test]
    fn recovery_with_a_down_switch_demotes_resume_to_rollback() {
        let (tdg, net, plan) = workload();
        let mut rt = armed_at_decision(clean_runtime(&net), &tdg, &plan, CrashTiming::AfterWrite);
        assert!(matches!(rt.rollout(&tdg, plan.clone()), RolloutOutcome::ControllerCrashed { .. }));
        // A switch the target occupies dies while the controller is down:
        // the forward target no longer verifies, so recovery demotes.
        let victim = *plan.occupied_switches().iter().next().unwrap();
        rt.fail_switch(victim);
        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::RollBackTxn);
        assert_eq!(rt.active_plan(), None, "no snapshot existed to fall back to");
    }

    #[test]
    fn probabilistic_controller_crashes_recover_across_seeds() {
        let (tdg, net, plan) = workload();
        let profile = FaultProfile { controller_crash_prob: 0.2, ..FaultProfile::none() };
        let mut crashes = 0;
        for seed in 0..20u64 {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            if let RolloutOutcome::ControllerCrashed { .. } = outcome {
                crashes += 1;
                let report = rt.recover(&tdg).expect("recovery must succeed");
                // Exactly plan A (nothing, pre-first-commit) or exactly
                // plan B — never a mix.
                match rt.active_plan() {
                    Some(active) => {
                        assert_eq!(active, &plan);
                        for switch in plan.occupied_switches() {
                            if !rt.network().down_switches().contains(&switch) {
                                assert_eq!(
                                    rt.agent(switch).unwrap().active_epoch(),
                                    Some(report.epoch)
                                );
                            }
                        }
                    }
                    None => {
                        for agent in rt.agents() {
                            if !agent.is_crashed() {
                                assert_eq!(agent.active_epoch(), None);
                            }
                        }
                    }
                }
            }
        }
        assert!(crashes > 0, "p=0.2 over 20 seeds must crash at least once");
    }
}
