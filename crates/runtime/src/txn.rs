//! The commit engine: the one prepare → commit protocol that deploy, heal,
//! migration and recovery install configs with.
//!
//! Each piece is written once, here:
//!
//! - the **journal boundary** ([`DeploymentRuntime::journal_note`]) and
//!   the write-ahead epoch advance;
//! - the **per-switch step** ([`DeploymentRuntime::step`]): prepare with
//!   bounded retry, exponential backoff and deterministic jitter on the
//!   virtual clock, then commit, resolved by probes when the ack is lost;
//! - the **commit window** ([`CommitWindow`]): the epoch, the switches
//!   committed so far and their last lease renewal. It is kept alive every
//!   `LEASE_US / 4`, a switch that answers nothing is waited out and
//!   declared down, and it closes with one lease sweep;
//! - the **mixed-epoch gate** ([`mixed_epoch_gate`]);
//! - the **fleet restore** ([`DeploymentRuntime::restore_fleet`]), which
//!   writes no journal record: protocol callers journal through
//!   `journal_note`, recovery through its injector-bypassing append;
//! - a deployment's **snapshot** ([`ActiveDeployment::snapshot`]).
//!
//! What genuinely differs stays at the call sites: deploy and heal
//! ([`DeploymentRuntime::install_transaction`]) prepare every switch before
//! the `CommitDecided` point of no return; a migration ([`crate::migrate`])
//! prepares and commits one switch per step; recovery
//! ([`crate::recovery`]) force-activates a switch that refuses.

use crate::agent::{AgentError, Reply, Request, SwitchAgent};
use crate::event::{Event, EventLog, MessageKind};
use crate::journal::{CrashTiming, JournalRecord, RenderedPlan};
use crate::runtime::{ControllerCrash, DeploymentRuntime};
use hermes_backend::{check_transition, DeploymentArtifacts, EpochTransition, SwitchConfig};
use hermes_core::{verify, DeploymentPlan};
use hermes_net::SwitchId;
use hermes_tdg::Tdg;

/// Attempts per request kind per switch, the first one included.
pub(crate) const MAX_ATTEMPTS: u32 = 4;
/// Backoff before attempt `n + 1` is `BASE_DELAY_US << (n - 1)`, capped at
/// `MAX_DELAY_US`, plus jitter in `[0, BASE_DELAY_US]`.
const BASE_DELAY_US: u64 = 100;
const MAX_DELAY_US: u64 = 2_000;
/// An exchange whose reply has not arrived after this long counts as a
/// timed-out attempt.
pub(crate) const TIMEOUT_US: u64 = 200;
/// Virtual cost of one well-behaved round trip (the channel's one-way
/// latency is half of it).
pub(crate) const RPC_COST_US: u64 = 50;
/// Commit-window lease: an agent whose lease is not renewed for this long
/// self-fences, and the runtime waits this long before declaring an
/// unresponsive switch down.
pub(crate) const LEASE_US: u64 = 20_000;
/// Packet seeds of the pre-activation equivalence check and of every
/// mixed-epoch window.
pub(crate) const PACKET_SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Failures a migration (steps and undo) or a recovery reinstall
/// tolerates before surgical repair gives way to the full restore.
pub(crate) const ABORT_THRESHOLD: u32 = 3;

/// Why [`DeploymentRuntime::install_transaction`] did not commit: a clean
/// pre-commit abort (previous plan untouched) or a controller crash.
pub(crate) enum TxnFailure {
    /// The transaction aborted before any commit was sent.
    Aborted(String),
    /// The controller died mid-transaction.
    Crashed(ControllerCrash),
}

impl From<ControllerCrash> for TxnFailure {
    fn from(crash: ControllerCrash) -> Self {
        TxnFailure::Crashed(crash)
    }
}

/// The plan currently serving traffic, with everything needed to heal it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveDeployment {
    pub(crate) epoch: u64,
    pub(crate) tdg: Tdg,
    /// Rendered once, when the transaction that installs it begins: its
    /// `TxnBegun` or `MigrationBegun` and every snapshot of it write
    /// those bytes.
    pub(crate) plan: RenderedPlan,
    /// The per-switch configs `plan` compiles to. Kept in memory for the
    /// mixed-epoch gate, migration undo and the fleet restore; never
    /// journaled (recovery regenerates them).
    pub(crate) artifacts: DeploymentArtifacts,
    /// [`hermes_core::tdg_fingerprint`] of `tdg`, computed once per
    /// rollout from the graph's structure and carried by every record
    /// that carries the plan.
    pub(crate) tdg_fp: u64,
}

impl ActiveDeployment {
    /// The deployment as a self-contained restart point: what activation,
    /// the out-of-band restore and recovery journal.
    pub(crate) fn snapshot(&self, clock_us: u64) -> JournalRecord {
        JournalRecord::Snapshot {
            epoch: self.epoch,
            tdg_fp: self.tdg_fp,
            plan_fp: self.plan.fingerprint(),
            plan: self.plan.clone(),
            clock_us,
        }
    }
}

/// One epoch's commit window: the switches committed so far, whose leases
/// stay alive until the window closes.
pub(crate) struct CommitWindow {
    epoch: u64,
    pub(crate) committed: Vec<SwitchId>,
    renewed_us: u64,
}

/// The mixed-epoch gate: a same-program plan change is committed switch by
/// switch, so every prefix of `order` must keep each packet on a single
/// observable epoch ([`check_transition`]). Logs the verdict; `Err` is the
/// reason to abort with, before the first commit.
pub(crate) fn mixed_epoch_gate(
    log: &mut EventLog,
    at_us: u64,
    epoch: u64,
    transition: &EpochTransition<'_>,
    order: &[SwitchId],
) -> Result<(), String> {
    match check_transition(transition, order, &PACKET_SEEDS) {
        Ok(windows) => {
            log.push(Event::MixedEpochChecked {
                epoch,
                windows,
                packets: PACKET_SEEDS.len(),
                at_us,
            });
            Ok(())
        }
        Err(v) => {
            log.push(Event::MixedEpochViolated { epoch, detail: v.to_string(), at_us });
            Err(format!("mixed-epoch window would break per-packet consistency: {v}"))
        }
    }
}

impl DeploymentRuntime {
    /// Runs one protocol entry point: `body`, unless a sticky controller
    /// crash refuses it, with a crash mapped to the entry point's outcome.
    pub(crate) fn guarded<O>(
        &mut self,
        crashed: impl FnOnce(ControllerCrash) -> O,
        body: impl FnOnce(&mut Self) -> Result<O, ControllerCrash>,
    ) -> O {
        match self.crashed {
            Some(crash) => crashed(crash),
            None => body(self).unwrap_or_else(crashed),
        }
    }

    /// Appends one record to the intent journal, letting the fault
    /// injector strike the controller at the boundary. Write-ahead
    /// discipline: call this *before* applying the transition the record
    /// describes, so a `BeforeWrite` crash loses both the record and the
    /// transition together.
    pub(crate) fn journal_note(&mut self, record: JournalRecord) -> Result<(), ControllerCrash> {
        let timing = self.injector.on_journal_write();
        if !matches!(timing, Some(CrashTiming::BeforeWrite)) {
            self.journal.append(&record);
        }
        match timing {
            None => Ok(()),
            Some(timing) => {
                let crash =
                    ControllerCrash { epoch: record.epoch(), point: record.crash_point(), timing };
                self.crashed = Some(crash);
                Err(crash)
            }
        }
    }

    /// Advances the controller epoch, journaling the new value *before*
    /// the in-memory counter moves — so `max(journaled epochs) + 1` is
    /// always a safe fresh epoch for recovery, no matter where a crash
    /// strikes.
    pub(crate) fn advance_epoch(&mut self) -> Result<u64, ControllerCrash> {
        let next = self.epoch + 1;
        self.journal_note(JournalRecord::EpochAdvanced { epoch: next })?;
        self.epoch = next;
        Ok(next)
    }

    /// An empty commit window for `epoch`, its leases renewed as of now.
    pub(crate) fn open_window(&self, epoch: u64) -> CommitWindow {
        CommitWindow { epoch, committed: Vec::new(), renewed_us: self.clock_us }
    }

    /// Keeps the window's committed leases alive through a long window:
    /// renews them once `LEASE_US / 4` has passed since the last renewal.
    pub(crate) fn keep_alive(&mut self, window: &mut CommitWindow) {
        if self.clock_us.saturating_sub(window.renewed_us) > LEASE_US / 4 {
            self.renew_leases(&window.committed, window.epoch);
            window.renewed_us = self.clock_us;
        }
    }

    /// The per-switch step: prepare `config` on `switch`, then commit it in
    /// the window's epoch. `Err` carries why the prepare failed for good;
    /// `Ok(true)` means the switch provably serves the epoch (and joined
    /// the window), `Ok(false)` that the commit went unanswered or was
    /// refused.
    pub(crate) fn step(
        &mut self,
        window: &mut CommitWindow,
        switch: SwitchId,
        config: &SwitchConfig,
    ) -> Result<bool, String> {
        self.prepare_with_retry(switch, config, window.epoch)?;
        Ok(self.commit_in(window, switch))
    }

    /// A switch answered neither commits nor probes. Wait out its lease —
    /// after `LEASE_US` of silence an alive-but-unreachable agent has
    /// provably self-fenced, so declaring it down cannot leave a zombie
    /// serving the epoch — then mark it down. The window's committed
    /// switches are probed immediately before and after the wait so
    /// *their* leases survive it.
    pub(crate) fn declare_unreachable(&mut self, window: &mut CommitWindow, switch: SwitchId) {
        self.renew_leases(&window.committed, window.epoch);
        self.clock_us += LEASE_US;
        let now = self.clock_us;
        if let Some(lapsed) = self.agents.get_mut(&switch).and_then(|a| a.expire_lease(now)) {
            self.log.push(Event::LeaseExpired { switch, epoch: lapsed, at_us: now });
        }
        self.log.push(Event::SwitchUnreachable { switch, epoch: window.epoch, at_us: now });
        if !self.agents.get(&switch).is_some_and(SwitchAgent::is_crashed) {
            self.fail_switch(switch);
        }
        self.renew_leases(&window.committed, window.epoch);
        window.renewed_us = self.clock_us;
    }

    /// Ends the window's supervision: a lease that lapsed without renewal
    /// means that agent stopped serving — it is logged, marked down and
    /// returned; every other lease is released into steady state.
    pub(crate) fn close_window(&mut self, window: &CommitWindow) -> Vec<SwitchId> {
        let now = self.clock_us;
        let mut lapsed = Vec::new();
        for &switch in &window.committed {
            let Some(agent) = self.agents.get_mut(&switch) else { continue };
            if let Some(epoch) = agent.expire_lease(now) {
                self.log.push(Event::LeaseExpired { switch, epoch, at_us: now });
                self.fail_switch(switch);
                lapsed.push(switch);
            } else {
                agent.release_lease();
            }
        }
        lapsed
    }

    /// Deploy's and heal's transaction: phase 1 (prepare every switch),
    /// mid-transaction revalidation, the mixed-epoch gate (a deploy's
    /// same-program plan change only: `check_mixed`), then phase 2 (commit
    /// switch by switch in one window).
    ///
    /// `Err(Aborted)` means the transaction aborted *before any commit
    /// was sent*: every staged agent received an abort (best-effort;
    /// fencing covers the lost ones) and nothing was activated.
    /// `Err(Crashed)` means the controller died at a journal boundary.
    /// `Ok(dead)` means the commit phase ran; `dead` lists switches
    /// declared down during it.
    pub(crate) fn install_transaction(
        &mut self,
        tdg: &Tdg,
        plan: &DeploymentPlan,
        artifacts: &DeploymentArtifacts,
        epoch: u64,
        check_mixed: bool,
    ) -> Result<Vec<SwitchId>, TxnFailure> {
        let mut prepared: Vec<SwitchId> = Vec::new();
        for (&switch, config) in &artifacts.switches {
            match self.prepare_with_retry(switch, config, epoch) {
                Ok(()) => prepared.push(switch),
                Err(reason) => return Err(self.abort_txn(&prepared, epoch, reason)),
            }
        }
        // Faults during prepare (link down, crashed bystander) may have
        // degraded the network under the transaction's feet; the plan must
        // still hold on what is actually left before anything activates.
        let violations = verify(tdg, &self.net, plan, &self.eps);
        if let Some(first) = violations.first() {
            let reason = format!("plan no longer valid at commit time: {first}");
            return Err(self.abort_txn(&prepared, epoch, reason));
        }
        // Checked BEFORE the first commit — afterwards a clean abort is no
        // longer possible.
        let gate = match &self.active {
            Some(active) if check_mixed && active.tdg == *tdg && *active.plan != *plan => {
                let transition = EpochTransition {
                    tdg,
                    old_plan: &active.plan,
                    old_artifacts: &active.artifacts,
                    new_plan: plan,
                    new_artifacts: artifacts,
                };
                mixed_epoch_gate(&mut self.log, self.clock_us, epoch, &transition, &prepared)
            }
            _ => Ok(()),
        };
        if let Err(reason) = gate {
            return Err(self.abort_txn(&prepared, epoch, reason));
        }

        // The point of no return: the decision to commit must be durable
        // *before* the first commit message, so a crashed controller that
        // already changed an agent's state can never be mistaken for one
        // that was still free to abort.
        self.journal_note(JournalRecord::CommitDecided { epoch, order: prepared.clone() })?;

        let mut window = self.open_window(epoch);
        let mut dead: Vec<SwitchId> = Vec::new();
        for &switch in &prepared {
            self.keep_alive(&mut window);
            if !self.commit_in(&mut window, switch) {
                self.declare_unreachable(&mut window, switch);
                dead.push(switch);
            }
        }
        dead.extend(self.close_window(&window));
        dead.sort_unstable();
        self.journal_note(JournalRecord::TxnCommitted { epoch, dead: dead.clone() })?;
        self.log.push(Event::Committed { epoch, at_us: self.clock_us });
        Ok(dead)
    }

    /// Journals the abort decision (write-ahead), then best-effort aborts
    /// every prepared switch. Returns the `TxnFailure` the transaction
    /// terminates with — `Crashed` if the controller dies at the abort
    /// boundary itself, `Aborted(reason)` otherwise.
    fn abort_txn(&mut self, prepared: &[SwitchId], epoch: u64, reason: String) -> TxnFailure {
        if let Err(crash) =
            self.journal_note(JournalRecord::TxnAborted { epoch, reason: reason.clone() })
        {
            return TxnFailure::Crashed(crash);
        }
        self.abort_prepared(prepared, epoch);
        TxnFailure::Aborted(reason)
    }

    /// Best-effort aborts to every prepared switch, fencing the epoch.
    /// Lost aborts are safe: aborts only happen before the first commit
    /// is sent, so the epoch can never activate anywhere — and any agent
    /// that hears a later epoch fences this one on its own.
    pub(crate) fn abort_prepared(&mut self, prepared: &[SwitchId], epoch: u64) {
        for &switch in prepared {
            let _ = self.exchange(switch, epoch, Request::Abort, MessageKind::Abort);
        }
    }

    /// One switch's prepare with bounded retry and exponential backoff.
    fn prepare_with_retry(
        &mut self,
        switch: SwitchId,
        config: &SwitchConfig,
        epoch: u64,
    ) -> Result<(), String> {
        let mut attempt = 1;
        loop {
            self.log.push(Event::PrepareAttempt { epoch, switch, attempt, at_us: self.clock_us });
            match self.exchange(
                switch,
                epoch,
                Request::Prepare(Box::new(config.clone())),
                MessageKind::Prepare,
            ) {
                Some(Reply::Ack { .. }) => {
                    self.log.push(Event::Prepared { epoch, switch, at_us: self.clock_us });
                    return Ok(());
                }
                Some(Reply::Nack { error: AgentError::Crashed, .. }) => {
                    return Err(format!("switch {switch} is down"));
                }
                // Transient refusal (install fault) or timeout: retry.
                Some(Reply::Nack { .. }) | None => {}
            }
            if attempt == MAX_ATTEMPTS {
                return Err(format!("switch {switch} failed all {MAX_ATTEMPTS} prepare attempts"));
            }
            self.schedule_retry(switch, epoch, attempt);
            attempt += 1;
        }
    }

    /// One switch's commit in `window` with bounded retry; unanswered
    /// commits are resolved by probing (the commit may have landed with
    /// its ack lost). Returns `true` iff the switch provably serves the
    /// window's epoch, and then adds it to the window.
    fn commit_in(&mut self, window: &mut CommitWindow, switch: SwitchId) -> bool {
        let committed = self.commit_with_retry(switch, window.epoch);
        if committed {
            window.committed.push(switch);
        }
        committed
    }

    fn commit_with_retry(&mut self, switch: SwitchId, epoch: u64) -> bool {
        for attempt in 1..=MAX_ATTEMPTS {
            match self.exchange(switch, epoch, Request::Commit, MessageKind::Commit) {
                Some(Reply::Ack { .. }) => {
                    self.log.push(Event::CommitAcked { epoch, switch, at_us: self.clock_us });
                    return true;
                }
                // A commit nack (fenced, mismatch, crashed) is final: this
                // switch cannot serve the epoch.
                Some(Reply::Nack { .. }) => return false,
                None => {}
            }
            if attempt < MAX_ATTEMPTS {
                self.schedule_retry(switch, epoch, attempt);
            }
        }
        for _ in 1..=MAX_ATTEMPTS {
            match self.exchange(switch, epoch, Request::Probe, MessageKind::Probe) {
                Some(Reply::Ack { .. }) => {
                    self.log.push(Event::ProbeAcked { switch, epoch, at_us: self.clock_us });
                    self.log.push(Event::CommitAcked { epoch, switch, at_us: self.clock_us });
                    return true;
                }
                Some(Reply::Nack { .. }) => return false,
                None => {}
            }
        }
        false
    }

    /// Burns backoff time (with deterministic jitter) before retrying.
    fn schedule_retry(&mut self, switch: SwitchId, epoch: u64, failed_attempt: u32) {
        let backoff_us = (BASE_DELAY_US << (failed_attempt - 1)).min(MAX_DELAY_US);
        let delay_us = backoff_us + self.injector.jitter_us(BASE_DELAY_US);
        self.clock_us += delay_us;
        self.log.push(Event::RetryScheduled {
            epoch,
            switch,
            next_attempt: failed_attempt + 1,
            delay_us,
            at_us: self.clock_us,
        });
    }

    /// Single-attempt lease-renewal probes to every committed switch. A
    /// lost probe is tolerated — the window's closing sweep catches agents
    /// whose leases genuinely lapsed.
    fn renew_leases(&mut self, committed: &[SwitchId], epoch: u64) {
        for &switch in committed {
            if self.agents.get(&switch).is_none_or(SwitchAgent::is_crashed) {
                continue;
            }
            if let Some(Reply::Ack { .. }) =
                self.exchange(switch, epoch, Request::Probe, MessageKind::Probe)
            {
                self.log.push(Event::ProbeAcked { switch, epoch, at_us: self.clock_us });
            }
        }
    }

    /// Makes `deployment` the serving one, journaling its snapshot first.
    /// Returns the deployment it replaces (what a failed heal rolls back
    /// to).
    pub(crate) fn activate(
        &mut self,
        deployment: ActiveDeployment,
    ) -> Result<Option<ActiveDeployment>, ControllerCrash> {
        // Activation snapshots are the journal's compaction points: a
        // self-contained restart state that makes everything before them
        // replay-irrelevant (the journal keeps only the highest epoch).
        self.journal_note(deployment.snapshot(self.clock_us))?;
        self.log.push(Event::Activated {
            epoch: deployment.epoch,
            a_max_bytes: deployment.plan.max_inter_switch_bytes(&deployment.tdg),
            latency_us: deployment.plan.end_to_end_latency_us(),
            occupied: deployment.plan.occupied_switch_count(),
            at_us: self.clock_us,
        });
        Ok(self.active.replace(deployment))
    }

    /// The protocol's out-of-band full restore: journals `previous`
    /// (write-ahead) as a fresh snapshot — or a `Cleared` marker when there
    /// is nothing to restore — then discards in-flight messages (the
    /// epochs they belong to are dead, and agents fence them anyway) and
    /// restores the fleet.
    pub(crate) fn force_restore(
        &mut self,
        previous: Option<ActiveDeployment>,
    ) -> Result<(), ControllerCrash> {
        let record = match &previous {
            Some(p) => p.snapshot(self.clock_us),
            None => JournalRecord::Cleared { epoch: self.epoch },
        };
        self.journal_note(record)?;
        self.channel.clear();
        self.restore_fleet(previous);
        Ok(())
    }

    /// Force-activates `deployment`'s configs on every live agent (nothing
    /// where it occupies no switch, or when there is no deployment),
    /// bypassing staging, fencing and leases, and makes it the active one.
    /// Writes no journal record: that is the caller's.
    pub(crate) fn restore_fleet(&mut self, deployment: Option<ActiveDeployment>) {
        let epoch = deployment.as_ref().map_or(0, |d| d.epoch);
        for (switch, agent) in &mut self.agents {
            let config = deployment.as_ref().and_then(|d| d.artifacts.switches.get(switch));
            agent.force_activate(epoch, config.cloned());
        }
        self.active = deployment;
    }
}
