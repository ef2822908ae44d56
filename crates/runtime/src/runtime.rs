//! The failure-aware deployment runtime.
//!
//! [`DeploymentRuntime`] installs a verified [`DeploymentPlan`] onto a
//! fleet of emulated [`SwitchAgent`]s as a two-phase transaction whose
//! every prepare/commit/abort/probe travels a lossy [`ControlChannel`]:
//!
//! 1. **Prepare** — each occupied switch stages its config through
//!    `(epoch, seq)`-stamped request/reply exchanges. Installs can fail
//!    through the seeded [`FaultInjector`], and the channel can drop,
//!    duplicate, reorder, or delay any message; transient failures are
//!    retried with exponential backoff plus deterministic jitter on a
//!    virtual clock, and agents deduplicate replays and answer
//!    idempotently.
//! 2. **Commit** — only when every switch staged, the plan still
//!    validates against the possibly-degraded network, and — for a
//!    same-program plan change — every mixed-epoch window of the commit
//!    order preserves per-packet consistency
//!    ([`hermes_backend::check_transition`]) does the runtime start
//!    committing switch by switch. Each acked commit starts a lease the
//!    runtime renews with probes; a switch that stops answering is waited
//!    out (its lease lapses, so an alive-but-unreachable agent has
//!    provably self-fenced) and declared `Down`, feeding the existing
//!    healing path. Before any commit is sent the transaction can still
//!    abort cleanly — the previous plan keeps serving, and epoch fencing
//!    guarantees an aborted epoch can never activate later, even on an
//!    agent that missed the abort.
//!
//! If a switch crashes *after* commit, the runtime marks it down in the
//! [`Network`], re-runs the incremental deployer with all surviving
//! placements pinned ([`RedeployOptions::excluding`]), revalidates the
//! healed plan (ε-verifier + packet-level equivalence), and transitions to
//! it — recording the recovery latency and `A_max` before/after in the
//! event log. Healing deliberately skips the mixed-epoch gate: a dead
//! switch already broke per-packet consistency, and repairing service
//! outranks preserving a guarantee the failure voided.
//!
//! The transaction itself runs on the commit engine (`txn`), which
//! migration and recovery share; this module keeps the public entry
//! points, the virtual-clock message pump and heal.

use crate::agent::{
    AgentError, HandleNote, Reply, ReplyEnvelope, Request, RequestEnvelope, SwitchAgent,
};
use crate::channel::{ChannelProfile, ControlChannel, Message, SendReceipt};
use crate::event::{Event, EventLog, MessageKind};
use crate::fault::{Fault, FaultInjector};
use crate::journal::{CrashPoint, CrashTiming, Journal, JournalRecord, RenderedPlan, TxnKind};
use crate::txn::{ActiveDeployment, TxnFailure, LEASE_US, PACKET_SEEDS, RPC_COST_US, TIMEOUT_US};
use hermes_backend::validate_plan;
use hermes_core::{DeploymentPlan, Epsilon, IncrementalDeployer, RedeployOptions};
use hermes_net::{Network, SwitchId};
use hermes_tdg::Tdg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The transaction protocol's retry, backoff and lease policy. It is fixed
/// — four attempts per request, backoff from 100 µs doubling to a 2 ms cap
/// plus up to 100 µs of jitter, a 200 µs reply timeout, 50 µs round trips
/// and a 20 ms commit-window lease — so `RetryPolicy::default()` is its
/// only value; the type is kept because [`DeploymentRuntime::new`] takes
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    fixed: (),
}

/// Terminal state of one [`DeploymentRuntime::rollout`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RolloutOutcome {
    /// The plan (or, after a post-commit failure, a healed variant of it)
    /// is active and validated.
    Committed {
        /// The epoch now serving.
        epoch: u64,
        /// `true` when a post-commit switch failure was healed around.
        healed: bool,
    },
    /// The transaction aborted; the previously active plan still serves.
    RolledBack {
        /// The abandoned epoch.
        epoch: u64,
        /// Why the transaction could not commit.
        reason: String,
    },
    /// The controller itself crashed mid-protocol, losing all in-memory
    /// state. Only the durable journal survives; the agents are on their
    /// own until [`DeploymentRuntime::recover`] runs.
    ControllerCrashed {
        /// The epoch in flight when the crash struck.
        epoch: u64,
        /// Which journal-write boundary the crash struck at.
        point: CrashPoint,
    },
}

impl RolloutOutcome {
    /// `true` for the committed case.
    pub fn is_committed(&self) -> bool {
        matches!(self, RolloutOutcome::Committed { .. })
    }
}

impl fmt::Display for RolloutOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutOutcome::Committed { epoch, healed: false } => {
                write!(f, "epoch {epoch} committed")
            }
            RolloutOutcome::Committed { epoch, healed: true } => {
                write!(f, "epoch {epoch} committed after healing")
            }
            RolloutOutcome::RolledBack { epoch, reason } => {
                write!(f, "epoch {epoch} rolled back: {reason}")
            }
            RolloutOutcome::ControllerCrashed { epoch, point } => {
                write!(f, "controller crashed at epoch {epoch} ({point} boundary)")
            }
        }
    }
}

/// The controller crashed at a journal-write boundary. All in-memory
/// state (epoch counter, active deployment, in-flight transaction) is
/// gone; only [`DeploymentRuntime::journal`] survives. Returned through
/// every protocol entry point via `Result`, and sticky: a crashed
/// runtime refuses further protocol calls until
/// [`DeploymentRuntime::recover`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerCrash {
    /// The epoch in flight when the crash struck.
    pub epoch: u64,
    /// Which journal-write boundary the crash struck at.
    pub point: CrashPoint,
    /// Whether the record at that boundary landed before the crash.
    pub timing: CrashTiming,
}

impl fmt::Display for ControllerCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let timing = match self.timing {
            CrashTiming::BeforeWrite => "before",
            CrashTiming::AfterWrite => "after",
        };
        write!(
            f,
            "controller crashed at epoch {} ({} boundary, {timing} the journal write)",
            self.epoch, self.point
        )
    }
}

/// The transactional, failure-aware deployment runtime.
///
/// Fields are crate-visible: the commit engine (`txn`), the
/// staged-migration executor ([`crate::migrate`]) and recovery
/// ([`crate::recovery`]) drive the same agents, channel, clock and log.
#[derive(Debug, Clone)]
pub struct DeploymentRuntime {
    pub(crate) net: Network,
    pub(crate) agents: BTreeMap<SwitchId, SwitchAgent>,
    pub(crate) injector: FaultInjector,
    pub(crate) channel: ControlChannel,
    pub(crate) eps: Epsilon,
    pub(crate) clock_us: u64,
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
    pub(crate) log: EventLog,
    pub(crate) active: Option<ActiveDeployment>,
    pub(crate) journal: Journal,
    pub(crate) crashed: Option<ControllerCrash>,
}

impl DeploymentRuntime {
    /// A runtime fronting `net` with one agent per switch and a perfect
    /// control channel ([`ChannelProfile::none`]); use
    /// [`DeploymentRuntime::with_channel_profile`] to make it lossy. The
    /// [`RetryPolicy`] is fixed.
    pub fn new(net: Network, eps: Epsilon, injector: FaultInjector, _: RetryPolicy) -> Self {
        let agents = net.switch_ids().map(|s| (s, SwitchAgent::new(s))).collect();
        let channel = ControlChannel::new(injector.seed(), ChannelProfile::none(), RPC_COST_US / 2);
        DeploymentRuntime {
            net,
            agents,
            injector,
            channel,
            eps,
            clock_us: 0,
            epoch: 0,
            seq: 0,
            log: EventLog::new(),
            active: None,
            journal: Journal::new(),
            crashed: None,
        }
    }

    /// Builder-style variant of [`DeploymentRuntime::set_channel_profile`].
    #[must_use]
    pub fn with_channel_profile(mut self, profile: ChannelProfile) -> Self {
        self.set_channel_profile(profile);
        self
    }

    /// Replaces the control channel with one drawing from `profile`,
    /// seeded from the fault injector's seed (any in-flight messages are
    /// discarded — configure the channel before rolling out).
    pub fn set_channel_profile(&mut self, profile: ChannelProfile) {
        self.channel = ControlChannel::new(self.injector.seed(), profile, RPC_COST_US / 2);
    }

    /// Total control-plane messages handed to the channel so far (both
    /// directions, before drop/duplicate decisions).
    pub fn messages_sent(&self) -> u64 {
        self.channel.messages_sent()
    }

    /// The substrate network, including any failure state accumulated so
    /// far.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The structured event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The durable write-ahead intent journal. `journal().bytes()` is
    /// what a resident controller would persist; the CLI's `--journal`
    /// flag writes exactly these bytes.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The pending controller crash, if an injected crash struck. While
    /// set, every protocol entry point short-circuits; only
    /// [`DeploymentRuntime::recover`] clears it.
    pub fn crashed(&self) -> Option<ControllerCrash> {
        self.crashed
    }

    /// Read access to the fault injector (soaks read
    /// [`FaultInjector::journal_writes`] after a crash-free dry run to
    /// learn how many crash boundaries a scenario has).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Mutable access to the fault injector, e.g. to arm a deterministic
    /// controller crash at an exact journal boundary
    /// ([`FaultInjector::arm_controller_crash_at`]).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// The plan currently serving, if any.
    pub fn active_plan(&self) -> Option<&DeploymentPlan> {
        self.active.as_ref().map(|a| a.plan.plan())
    }

    /// The epoch currently serving, if any.
    pub fn active_epoch(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.epoch)
    }

    /// The ε-bounds every activated plan is validated against.
    pub fn epsilon(&self) -> &Epsilon {
        &self.eps
    }

    /// The per-switch agents, in switch order (soak tests inspect their
    /// fencing/lease state to assert protocol invariants).
    pub fn agents(&self) -> impl Iterator<Item = &SwitchAgent> {
        self.agents.values()
    }

    /// One switch's agent, if the switch exists.
    pub fn agent(&self, switch: SwitchId) -> Option<&SwitchAgent> {
        self.agents.get(&switch)
    }

    /// Replaces the fault injector, e.g. to run one clean rollout and then
    /// turn chaos on for the next epoch. The control channel is reseeded
    /// from the new injector's seed, keeping its current profile.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        let profile = *self.channel.profile();
        self.injector = injector;
        self.set_channel_profile(profile);
    }

    /// Marks a switch as failed (operator- or injector-initiated) without
    /// healing. The agent is crashed and the network degraded.
    pub fn fail_switch(&mut self, switch: SwitchId) {
        self.net.fail_switch(switch);
        if let Some(agent) = self.agents.get_mut(&switch) {
            agent.crash();
        }
        self.log.push(Event::SwitchDown { switch, at_us: self.clock_us });
    }

    /// Installs `plan` for `tdg` as a two-phase transaction, healing
    /// post-commit switch failures if any occur. Exactly one of three
    /// terminal states results: a committed, validated plan is serving;
    /// the transaction rolled back and the previous plan is untouched; or
    /// the controller crashed (injected) and only the journal survives.
    pub fn rollout(&mut self, tdg: &Tdg, plan: DeploymentPlan) -> RolloutOutcome {
        let crashed = |c: ControllerCrash| RolloutOutcome::ControllerCrashed {
            epoch: c.epoch,
            point: c.point,
        };
        self.guarded(crashed, |rt| rt.try_rollout(tdg, plan))
    }

    fn try_rollout(
        &mut self,
        tdg: &Tdg,
        plan: DeploymentPlan,
    ) -> Result<RolloutOutcome, ControllerCrash> {
        let epoch = self.advance_epoch()?;
        let switches: Vec<SwitchId> = plan.occupied_switches().into_iter().collect();
        self.log.push(Event::RolloutStarted {
            epoch,
            switches: switches.clone(),
            at_us: self.clock_us,
        });

        // Pre-install validation: constraints + packet equivalence. A
        // refusal here touched no agent, so nothing beyond the epoch
        // advance needs journaling — recovery sees no in-flight intent.
        let (report, artifacts) = validate_plan(tdg, &self.net, &plan, &self.eps, &PACKET_SEEDS);
        if !report.is_ok() {
            self.log.push(Event::ValidationFailed {
                epoch,
                failures: report.failures.iter().map(ToString::to_string).collect(),
                at_us: self.clock_us,
            });
            return Ok(self.roll_back(epoch, "pre-install validation failed".to_string()));
        }

        let (plan, tdg_fp) = (RenderedPlan::new(plan), hermes_core::tdg_fingerprint(tdg));
        self.journal_note(JournalRecord::TxnBegun {
            epoch,
            kind: TxnKind::Deploy,
            tdg_fp,
            plan_fp: plan.fingerprint(),
            plan: plan.clone(),
        })?;
        let dead = match self.install_transaction(tdg, &plan, &artifacts, epoch, true) {
            Err(TxnFailure::Crashed(crash)) => return Err(crash),
            Err(TxnFailure::Aborted(reason)) => return Ok(self.roll_back(epoch, reason)),
            Ok(dead) => dead,
        };
        // The deployment this one replaces is what a failed heal rolls
        // back to.
        let prior =
            self.activate(ActiveDeployment { epoch, tdg: tdg.clone(), plan, artifacts, tdg_fp })?;
        if !dead.is_empty() {
            // Some switches were lost during the commit window itself
            // (unreachable or lease-lapsed): the committed deployment is
            // already degraded.
            return self.heal(prior);
        }
        // The committed deployment may immediately lose a switch.
        if let Some(dead) = self.injector.post_commit_crash(&switches) {
            self.fail_switch(dead);
            return self.heal(prior);
        }
        Ok(RolloutOutcome::Committed { epoch, healed: false })
    }

    /// Re-homes the MATs lost to down switches and transitions to the
    /// healed plan, looping if the heal's own commit window loses more
    /// switches. On any failure the runtime rolls back to `previous` (the
    /// last-known-good deployment before the failing rollout).
    fn heal(
        &mut self,
        previous: Option<ActiveDeployment>,
    ) -> Result<RolloutOutcome, ControllerCrash> {
        let healing_started_us = self.clock_us;
        let a_max_before =
            self.active.as_ref().map_or(0, |a| a.plan.max_inter_switch_bytes(&a.tdg));
        loop {
            let Some(active) = self.active.clone() else {
                return Ok(RolloutOutcome::RolledBack {
                    epoch: self.epoch,
                    reason: "nothing to heal".to_string(),
                });
            };
            let epoch = self.advance_epoch()?;
            let down = self.net.down_switches();
            self.log.push(Event::HealingStarted {
                epoch,
                down: down.clone(),
                at_us: self.clock_us,
            });

            let outcome = match IncrementalDeployer::new().redeploy_with(
                &active.tdg,
                &active.plan,
                &active.tdg,
                &self.net,
                &self.eps,
                &RedeployOptions::excluding(down),
            ) {
                Ok(outcome) => outcome,
                Err(e) => {
                    self.log.push(Event::HealingFailed {
                        epoch,
                        reason: e.to_string(),
                        at_us: self.clock_us,
                    });
                    return self.roll_back_to(previous, epoch, format!("healing infeasible: {e}"));
                }
            };
            self.log.push(Event::HealingPlanned {
                epoch,
                reused: outcome.reused,
                placed: outcome.placed,
                full_redeploy: outcome.full_redeploy,
                at_us: self.clock_us,
            });

            // Revalidate on the degraded network before activating. The
            // mixed-epoch gate is skipped (see module docs): the dead
            // switch already broke consistency, healing repairs service.
            let (report, artifacts) =
                validate_plan(&active.tdg, &self.net, &outcome.plan, &self.eps, &PACKET_SEEDS);
            if !report.is_ok() {
                self.log.push(Event::HealingFailed {
                    epoch,
                    reason: report.to_string(),
                    at_us: self.clock_us,
                });
                return self.roll_back_to(
                    previous,
                    epoch,
                    "healed plan failed validation".to_string(),
                );
            }
            let plan = RenderedPlan::new(outcome.plan);
            self.journal_note(JournalRecord::TxnBegun {
                epoch,
                kind: TxnKind::Heal,
                tdg_fp: active.tdg_fp,
                plan_fp: plan.fingerprint(),
                plan: plan.clone(),
            })?;
            match self.install_transaction(&active.tdg, &plan, &artifacts, epoch, false) {
                Err(TxnFailure::Crashed(crash)) => return Err(crash),
                Err(TxnFailure::Aborted(reason)) => {
                    return self.roll_back_to(previous, epoch, reason)
                }
                Ok(dead) => {
                    let a_max_after = plan.max_inter_switch_bytes(&active.tdg);
                    let healed = ActiveDeployment { epoch, plan, artifacts, ..active };
                    self.activate(healed)?;
                    if dead.is_empty() {
                        self.log.push(Event::RecoveryCompleted {
                            epoch,
                            recovery_us: self.clock_us - healing_started_us,
                            a_max_before,
                            a_max_after,
                            at_us: self.clock_us,
                        });
                        return Ok(RolloutOutcome::Committed { epoch, healed: true });
                    }
                    // The heal itself lost switches mid-commit: heal again
                    // (each pass kills at least one more switch, so this
                    // terminates — eventually redeploy becomes infeasible
                    // and the runtime rolls back).
                }
            }
        }
    }

    /// Sends one request and runs the virtual-clock message pump until its
    /// reply arrives or the exchange times out. In-flight messages for
    /// other exchanges (duplicates, delayed stragglers) are delivered
    /// along the way; stale replies are discarded.
    pub(crate) fn exchange(
        &mut self,
        switch: SwitchId,
        epoch: u64,
        body: Request,
        kind: MessageKind,
    ) -> Option<Reply> {
        self.seq += 1;
        let seq = self.seq;
        let req = RequestEnvelope { epoch, seq, switch, body };
        let receipt = self.channel.send(self.clock_us, Message::Request(req));
        self.log_receipt(&receipt, kind, epoch, seq, switch);
        let deadline = self.clock_us + TIMEOUT_US;
        while let Some((at, msg)) = self.channel.pop_due(deadline) {
            self.clock_us = self.clock_us.max(at);
            match msg {
                Message::Request(delivered) => self.deliver_request(delivered),
                Message::Reply(rep) => {
                    if rep.seq == seq && rep.epoch == epoch && rep.switch == switch {
                        return Some(rep.body);
                    }
                    self.log.push(Event::StaleReplyIgnored {
                        epoch: rep.epoch,
                        seq: rep.seq,
                        switch: rep.switch,
                        at_us: self.clock_us,
                    });
                }
            }
        }
        self.clock_us = deadline;
        None
    }

    /// Delivers one request to its agent: decides the install fate (fault
    /// injection happens at delivery, once per fresh attempt — replays and
    /// crashed agents never draw), runs the agent state machine, and sends
    /// the reply back through the channel.
    fn deliver_request(&mut self, req: RequestEnvelope) {
        let now = self.clock_us;
        // Every switch has an agent; a request for none goes unanswered.
        let Some(agent) = self.agents.get(&req.switch) else { return };
        let fresh = !agent.is_crashed() && !agent.has_seen(req.epoch, req.seq);
        let mut extra_delay_us = 0u64;
        let mut install_failure: Option<AgentError> = None;
        if fresh {
            if let Request::Prepare(config) = &req.body {
                if let Some(fault) =
                    self.injector.on_prepare(&self.net, config.stages.len(), TIMEOUT_US)
                {
                    self.log.push(Event::FaultInjected {
                        epoch: req.epoch,
                        switch: req.switch,
                        fault: fault.clone(),
                        at_us: now,
                    });
                    match fault {
                        Fault::SwitchCrash => self.fail_switch(req.switch),
                        Fault::LinkDown { a, b } => {
                            // The install attempt is lost with the link;
                            // the degradation is caught by the commit-time
                            // revalidation.
                            self.net.fail_link(a, b);
                            install_failure = Some(AgentError::InstallRejected);
                        }
                        Fault::SlowResponse { delay_us } => extra_delay_us = delay_us,
                        Fault::RejectInstall | Fault::PartialInstall { .. } => {
                            // Nothing (or only garbage, wiped on the spot)
                            // was staged; the attempt failed transiently.
                            install_failure = Some(AgentError::InstallRejected);
                        }
                    }
                }
            }
        }
        let Some(agent) = self.agents.get_mut(&req.switch) else { return };
        let reply = if let Some(error) = install_failure {
            // The install machinery failed before the agent's state
            // machine ran: nothing staged, nothing cached — a duplicate
            // delivery is a fresh install attempt.
            ReplyEnvelope {
                epoch: req.epoch,
                seq: req.seq,
                switch: req.switch,
                body: Reply::Nack { error, active_epoch: agent.active_epoch() },
            }
        } else {
            let (reply, notes) = agent.handle(&req, now, LEASE_US);
            let fenced = agent.fenced_epoch();
            for note in notes {
                match note {
                    HandleNote::Replayed => self.log.push(Event::ReplayAnswered {
                        epoch: req.epoch,
                        seq: req.seq,
                        switch: req.switch,
                        at_us: now,
                    }),
                    HandleNote::FencedStale { stale_epoch } => self.log.push(Event::EpochFenced {
                        switch: req.switch,
                        stale_epoch,
                        fenced,
                        at_us: now,
                    }),
                    HandleNote::LeaseExpired { epoch } => {
                        self.log.push(Event::LeaseExpired { switch: req.switch, epoch, at_us: now })
                    }
                }
            }
            reply
        };
        let receipt = self.channel.send(now + extra_delay_us, Message::Reply(reply));
        self.log_receipt(&receipt, MessageKind::Reply, req.epoch, req.seq, req.switch);
    }

    /// Logs the channel's misbehavior (if any) for one send.
    fn log_receipt(
        &mut self,
        receipt: &SendReceipt,
        kind: MessageKind,
        epoch: u64,
        seq: u64,
        switch: SwitchId,
    ) {
        let at_us = self.clock_us;
        if receipt.dropped {
            self.log.push(Event::MessageDropped { kind, epoch, seq, switch, at_us });
            return;
        }
        if receipt.duplicated {
            self.log.push(Event::MessageDuplicated { kind, epoch, seq, switch, at_us });
        }
        if receipt.delayed {
            let deliver_at_us = receipt.deliveries.iter().copied().max().unwrap_or(at_us);
            self.log.push(Event::MessageDelayed { kind, epoch, seq, switch, deliver_at_us, at_us });
        }
    }

    /// Aborts epoch `epoch`, leaving the current active deployment as-is.
    fn roll_back(&mut self, epoch: u64, reason: String) -> RolloutOutcome {
        self.log.push(Event::RolledBack { epoch, reason: reason.clone(), at_us: self.clock_us });
        RolloutOutcome::RolledBack { epoch, reason }
    }

    /// Aborts epoch `epoch` and restores `previous` as the active
    /// deployment out of band (the last-known-good rollback after a failed
    /// heal).
    fn roll_back_to(
        &mut self,
        previous: Option<ActiveDeployment>,
        epoch: u64,
        reason: String,
    ) -> Result<RolloutOutcome, ControllerCrash> {
        self.force_restore(previous)?;
        Ok(self.roll_back(epoch, reason))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use hermes_core::{verify, DeploymentAlgorithm, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;
    use hermes_net::topology;

    /// The first `programs` library programs, merged, on `linear:4`, and
    /// their greedy plan.
    pub(crate) fn workload_of(programs: usize) -> (Tdg, Network, DeploymentPlan) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs()[..programs]);
        let net = topology::linear(4, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        (tdg, net, plan)
    }

    /// Every library program on `linear:4`: a plan over four switches.
    pub(crate) fn workload() -> (Tdg, Network, DeploymentPlan) {
        workload_of(library::real_programs().len())
    }

    /// The boundary, counted from now, at which a rollout of `plan` on
    /// `rt` first journals a `point` record. A crash-free dry run on a
    /// copy counts the rollout's boundaries; a crash armed before each in
    /// turn, on another copy, then names the record written there, so no
    /// test encodes the record list.
    pub(crate) fn boundary_of(
        point: CrashPoint,
        rt: &DeploymentRuntime,
        tdg: &Tdg,
        plan: &DeploymentPlan,
    ) -> u64 {
        let mut dry = rt.clone();
        let start = dry.injector().journal_writes();
        assert!(dry.rollout(tdg, plan.clone()).is_committed(), "the dry run commits");
        (0..dry.injector().journal_writes() - start)
            .find(|&nth| {
                let mut probe = rt.clone();
                probe.injector_mut().arm_controller_crash_at(nth, CrashTiming::BeforeWrite);
                let outcome = probe.rollout(tdg, plan.clone());
                matches!(outcome, RolloutOutcome::ControllerCrashed { point: p, .. } if p == point)
            })
            .unwrap_or_else(|| panic!("the rollout journals no {point} record"))
    }

    /// A fault-free runtime on `net`.
    pub(crate) fn clean_runtime(net: &Network) -> DeploymentRuntime {
        DeploymentRuntime::new(
            net.clone(),
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        )
    }

    #[test]
    fn fault_free_rollout_commits() {
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        let outcome = rt.rollout(&tdg, plan.clone());
        assert_eq!(outcome, RolloutOutcome::Committed { epoch: 1, healed: false });
        assert_eq!(rt.active_plan(), Some(&plan));
        assert_eq!(rt.active_epoch(), Some(1));
        assert_eq!(rt.log().count(|e| matches!(e, Event::Committed { .. })), 1);
        // One attempt per occupied switch, no retries, a perfect channel.
        assert_eq!(
            rt.log().count(|e| matches!(e, Event::PrepareAttempt { .. })),
            plan.occupied_switch_count()
        );
        assert_eq!(rt.log().count(|e| matches!(e, Event::RetryScheduled { .. })), 0);
        assert_eq!(rt.log().count(|e| matches!(e, Event::MessageDropped { .. })), 0);
        // Every occupied switch's agent serves epoch 1 with its lease
        // released (steady state).
        for switch in plan.occupied_switches() {
            let agent = rt.agent(switch).unwrap();
            assert_eq!(agent.active_epoch(), Some(1));
            assert_eq!(agent.lease_until(), None);
        }
    }

    #[test]
    fn transient_rejects_are_retried_to_success() {
        let (tdg, net, plan) = workload();
        // Reject with p=0.5: with 4 attempts per switch a handful of seeds
        // still commit; pick one deterministically by scanning.
        let profile = FaultProfile { reject_prob: 0.5, ..FaultProfile::none() };
        let committed = (0..50u64).find(|&seed| {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            if outcome.is_committed() {
                assert!(
                    rt.log().count(|e| matches!(e, Event::RetryScheduled { .. })) > 0,
                    "seed {seed} committed without ever retrying — not the case we want"
                );
                true
            } else {
                assert_eq!(rt.active_plan(), None, "rollback must leave nothing active");
                false
            }
        });
        assert!(committed.is_some(), "no seed in 0..50 committed under 50% rejects");
    }

    #[test]
    fn rollback_keeps_previous_plan_serving() {
        let (tdg, net, plan) = workload();
        // First install cleanly, then roll out again under guaranteed
        // rejection: the second transaction must abort and epoch 1 serve.
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        rt.set_injector(FaultInjector::new(
            1,
            FaultProfile { reject_prob: 1.0, ..FaultProfile::none() },
        ));
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(!outcome.is_committed());
        assert_eq!(rt.active_epoch(), Some(1), "previous epoch keeps serving");
        assert_eq!(rt.active_plan(), Some(&plan));
        // And no agent was left serving (or able to activate) epoch 2.
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(2));
        }
    }

    #[test]
    fn post_commit_crash_heals_and_validates() {
        let (tdg, net, plan) = workload();
        let profile = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
        let mut healed_seen = false;
        for seed in 0..20u64 {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            match outcome {
                RolloutOutcome::Committed { healed, .. } => {
                    assert!(healed, "a post-commit crash was guaranteed");
                    healed_seen = true;
                    let active = rt.active_plan().unwrap();
                    // The healed plan avoids every down switch and still
                    // validates end to end.
                    for down in rt.network().down_switches() {
                        assert!(!active.occupied_switches().contains(&down));
                    }
                    assert!(verify(&tdg, rt.network(), active, &Epsilon::loose()).is_empty());
                    assert_eq!(rt.log().count(|e| matches!(e, Event::RecoveryCompleted { .. })), 1);
                }
                RolloutOutcome::RolledBack { .. } => {
                    assert_eq!(rt.active_plan(), None, "failed heal must roll back cleanly");
                }
                RolloutOutcome::ControllerCrashed { .. } => {
                    unreachable!("no controller crash was injected")
                }
            }
        }
        assert!(healed_seen, "no seed in 0..20 healed successfully");
    }

    #[test]
    fn event_log_is_reproducible_byte_for_byte() {
        let (tdg, net, plan) = workload();
        let run = |seed: u64| {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, FaultProfile::chaos()),
                RetryPolicy::default(),
            );
            rt.rollout(&tdg, plan.clone());
            rt.log().to_json()
        };
        for seed in [0u64, 7, 13] {
            assert_eq!(run(seed), run(seed), "seed {seed} diverged");
        }
    }

    #[test]
    fn lossy_channel_rollout_is_bimodal_and_reproducible() {
        let (tdg, net, plan) = workload();
        let run = |seed: u64| {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, FaultProfile::none()),
                RetryPolicy::default(),
            )
            .with_channel_profile(ChannelProfile::lossy());
            let outcome = rt.rollout(&tdg, plan.clone());
            (outcome, rt)
        };
        let mut committed = 0;
        for seed in 0..20u64 {
            let (outcome, rt) = run(seed);
            match outcome {
                RolloutOutcome::Committed { epoch, .. } => {
                    committed += 1;
                    for switch in rt.active_plan().unwrap().occupied_switches() {
                        if !rt.network().down_switches().contains(&switch) {
                            assert_eq!(rt.agent(switch).unwrap().active_epoch(), Some(epoch));
                        }
                    }
                }
                RolloutOutcome::RolledBack { epoch, .. } => {
                    for agent in rt.agents() {
                        assert_ne!(
                            agent.active_epoch(),
                            Some(epoch),
                            "no agent may serve a rolled-back epoch"
                        );
                    }
                }
                RolloutOutcome::ControllerCrashed { .. } => {
                    unreachable!("no controller crash was injected")
                }
            }
            let (_, rt2) = run(seed);
            assert_eq!(rt.log().to_json(), rt2.log().to_json(), "seed {seed} not reproducible");
        }
        assert!(committed > 0, "retries should beat the lossy channel for some seed");
    }

    #[test]
    fn mixed_epoch_gate_rolls_back_moved_mats() {
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net.clone(),
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        // A same-program plan that re-homes the MATs of one occupied
        // switch: committing it gradually would double- or skip-execute
        // the moved MATs mid-window.
        let exclude = *plan.occupied_switches().iter().next().unwrap();
        let moved = IncrementalDeployer::new()
            .redeploy_with(
                &tdg,
                &plan,
                &tdg,
                &net,
                &Epsilon::loose(),
                &RedeployOptions::excluding([exclude]),
            )
            .expect("residual capacity fits the moved MATs")
            .plan;
        assert_ne!(moved, plan, "the transition must actually move something");
        match rt.rollout(&tdg, moved) {
            RolloutOutcome::RolledBack { reason, .. } => {
                assert!(reason.contains("per-packet consistency"), "{reason}");
            }
            other => panic!("moved MATs must be refused, got: {other}"),
        }
        assert_eq!(rt.log().count(|e| matches!(e, Event::MixedEpochViolated { .. })), 1);
        assert_eq!(rt.active_epoch(), Some(1), "the old epoch keeps serving");
        // The abandoned epoch is fenced on every agent that staged it.
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(2));
            assert_ne!(agent.staged_epoch(), Some(2));
        }
    }

    #[test]
    fn fault_free_rollout_journals_a_replayable_clean_history() {
        use crate::journal::JournalRecord;
        let (tdg, net, plan) = workload();
        assert!(plan.occupied_switch_count() >= 2, "a multi-switch plan");
        let (one_tdg, _, one_plan) = workload_of(1);
        assert_eq!(one_plan.occupied_switch_count(), 1);
        // The journal keeps decisions, not per-switch acknowledgements: any
        // plan's clean rollout writes five records, whatever its width.
        for (tdg, plan) in [(&tdg, &plan), (&one_tdg, &one_plan)] {
            let mut rt = clean_runtime(&net);
            assert!(rt.rollout(tdg, plan.clone()).is_committed());
            assert_eq!(rt.injector().journal_writes(), 5);
            assert_eq!(rt.journal().appends(), 5);
        }
        let mut rt = clean_runtime(&net);
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        let replay = rt.journal().replay().expect("clean journal must replay");
        assert_eq!(replay.discarded_tail_bytes, 0);
        // The activation snapshot compacts the transaction's history away.
        assert!(matches!(replay.records[..], [JournalRecord::Snapshot { epoch: 1, .. }]));
        // A crash just before the snapshot lands leaves that history.
        let snapshot_boundary = rt.injector().journal_writes() - 1;
        let mut rt = clean_runtime(&net);
        rt.injector_mut().arm_controller_crash_at(snapshot_boundary, CrashTiming::BeforeWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        assert_eq!(
            outcome,
            RolloutOutcome::ControllerCrashed { epoch: 1, point: CrashPoint::Snapshot }
        );
        let replay = rt.journal().replay().expect("clean journal must replay");
        // Write-ahead order: epoch advance, txn begin, the commit decision
        // before any commit, then TxnCommitted.
        let kinds: Vec<CrashPoint> =
            replay.records.iter().map(JournalRecord::crash_point).collect();
        assert_eq!(
            kinds,
            [
                CrashPoint::EpochAdvance,
                CrashPoint::TxnBegin,
                CrashPoint::CommitDecision,
                CrashPoint::TxnCommit
            ]
        );
    }

    #[test]
    fn armed_controller_crash_is_terminal_and_sticky() {
        let (tdg, net, plan) = workload();
        // Crash at the commit-decision boundary and check stickiness.
        let mut rt = clean_runtime(&net);
        let decision = boundary_of(CrashPoint::CommitDecision, &rt, &tdg, &plan);
        rt.injector_mut().arm_controller_crash_at(decision, CrashTiming::AfterWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        match outcome {
            RolloutOutcome::ControllerCrashed { epoch, point } => {
                assert_eq!(epoch, 1);
                assert_eq!(point, CrashPoint::CommitDecision);
            }
            other => panic!("expected a controller crash, got {other}"),
        }
        assert!(rt.crashed().is_some());
        assert_eq!(rt.active_plan(), None, "the crash lost all in-memory state");
        // Sticky: further protocol calls refuse without touching agents.
        let again = rt.rollout(&tdg, plan);
        assert!(matches!(again, RolloutOutcome::ControllerCrashed { .. }));
        // The journal survived and replays cleanly up to the crash.
        let replay = rt.journal().replay().expect("journal must replay");
        assert!(matches!(
            replay.records.last(),
            Some(crate::journal::JournalRecord::CommitDecided { epoch: 1, .. })
        ));
    }

    #[test]
    fn identical_plan_rerollout_skips_the_gate_and_commits() {
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        assert!(rt.rollout(&tdg, plan).is_committed());
        assert_eq!(rt.log().count(|e| matches!(e, Event::MixedEpochChecked { .. })), 0);
        assert_eq!(rt.active_epoch(), Some(2));
    }
}
