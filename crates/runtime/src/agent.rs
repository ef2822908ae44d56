//! Emulated per-switch install agents: message-driven state machines.
//!
//! Each programmable switch is fronted by a [`SwitchAgent`] holding at
//! most two configurations: the *active* one (serving traffic) and a
//! *staged* one (written by the prepare phase of a transaction). The
//! agent no longer assumes a reliable controller: every operation arrives
//! as a [`RequestEnvelope`] stamped with `(epoch, seq)` over a channel
//! that may drop, duplicate, reorder, or delay it, and the agent must
//! behave correctly anyway:
//!
//! - **Idempotence / dedup** — an exact `(epoch, seq)` replay re-answers
//!   the cached reply without re-executing; a retransmission under a new
//!   `seq` is answered idempotently from current state (e.g. `Commit` for
//!   the already-active epoch acks again).
//! - **Epoch fencing** — observing epoch `e` proves every epoch `< e`
//!   terminated at the controller, so epochs `< e` are *fenced*: a
//!   delayed `Prepare`/`Commit` for a fenced epoch is refused. An
//!   explicit `Abort(e)` fences `e` itself, so an agent that missed an
//!   abort can never activate the abandoned epoch once it hears anything
//!   newer — and one that missed *everything* still cannot activate,
//!   because no `Commit(e)` was ever sent for an aborted epoch.
//! - **Commit leases** — activating a config starts a lease on the
//!   virtual clock, renewed by controller probes. If the lease lapses
//!   (controller unreachable), the agent self-fences: the active config
//!   stops serving rather than becoming a zombie serving stale state
//!   while the controller heals around it.

use hermes_backend::SwitchConfig;
use hermes_net::SwitchId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors an agent can answer with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AgentError {
    /// The switch is down; no operation is possible.
    Crashed,
    /// Commit was requested with no staged configuration.
    NothingStaged,
    /// Commit was requested for a different epoch than was staged.
    EpochMismatch {
        /// The epoch staged on the agent.
        staged: u64,
        /// The epoch the runtime asked to commit.
        requested: u64,
    },
    /// The requested epoch is fenced: the agent has proof it terminated
    /// (an abort arrived, or a newer epoch was observed) and will never
    /// stage or activate it again.
    EpochFenced {
        /// The highest fenced epoch.
        fenced: u64,
        /// The stale epoch the request carried.
        requested: u64,
    },
    /// The fault injector made the agent refuse this install attempt
    /// (transient; the controller retries).
    InstallRejected,
    /// A probe asked about an epoch the agent is not serving.
    NotServing {
        /// The epoch the probe asked about.
        requested: u64,
    },
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::Crashed => f.write_str("switch is down"),
            AgentError::NothingStaged => f.write_str("no staged configuration"),
            AgentError::EpochMismatch { staged, requested } => {
                write!(f, "staged epoch {staged} but commit requested epoch {requested}")
            }
            AgentError::EpochFenced { fenced, requested } => {
                write!(f, "epoch {requested} is fenced (epochs <= {fenced} can never activate)")
            }
            AgentError::InstallRejected => f.write_str("install rejected"),
            AgentError::NotServing { requested } => {
                write!(f, "not serving epoch {requested}")
            }
        }
    }
}

impl std::error::Error for AgentError {}

/// Operation a [`RequestEnvelope`] asks the agent to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stage this config for the envelope's epoch.
    Prepare(Box<SwitchConfig>),
    /// Atomically activate the staged config of the envelope's epoch and
    /// start its lease.
    Commit,
    /// Discard staged state for the epoch and fence it forever.
    Abort,
    /// Liveness check; renews the lease when the agent serves the
    /// envelope's epoch.
    Probe,
}

impl Request {
    /// Short tag for logs and displays.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Prepare(_) => "prepare",
            Request::Commit => "commit",
            Request::Abort => "abort",
            Request::Probe => "probe",
        }
    }
}

/// One controller-to-agent message.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// The transaction epoch the request belongs to.
    pub epoch: u64,
    /// Controller-unique sequence number (dedup key together with epoch).
    pub seq: u64,
    /// Target switch.
    pub switch: SwitchId,
    /// The operation.
    pub body: Request,
}

/// Agent answer to one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// The operation took effect (or had already taken effect).
    Ack {
        /// The epoch the agent actively serves after the operation.
        active_epoch: Option<u64>,
    },
    /// The operation was refused; agent state is unchanged except for
    /// fencing bookkeeping.
    Nack {
        /// Why.
        error: AgentError,
        /// The epoch the agent actively serves.
        active_epoch: Option<u64>,
    },
}

impl Reply {
    /// `true` for the ack case.
    pub fn is_ack(&self) -> bool {
        matches!(self, Reply::Ack { .. })
    }

    /// The active epoch the agent reported alongside the reply.
    pub fn active_epoch(&self) -> Option<u64> {
        match self {
            Reply::Ack { active_epoch } | Reply::Nack { active_epoch, .. } => *active_epoch,
        }
    }
}

/// One agent-to-controller message.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyEnvelope {
    /// Epoch of the request being answered.
    pub epoch: u64,
    /// Sequence number of the request being answered.
    pub seq: u64,
    /// The answering switch.
    pub switch: SwitchId,
    /// The answer.
    pub body: Reply,
}

/// Side observation from handling one request, surfaced so the runtime
/// can put protocol-level decisions into the event log (the agent itself
/// has no log access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandleNote {
    /// The request was an exact `(epoch, seq)` replay; the cached reply
    /// was re-sent without re-executing.
    Replayed,
    /// A stale epoch was refused by the fence.
    FencedStale {
        /// The refused epoch.
        stale_epoch: u64,
    },
    /// The active lease had lapsed before this request arrived; the agent
    /// self-fenced and dropped the active config.
    LeaseExpired {
        /// The epoch that stopped serving.
        epoch: u64,
    },
}

/// The install agent of one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchAgent {
    id: SwitchId,
    crashed: bool,
    staged: Option<(u64, SwitchConfig)>,
    active: Option<(u64, SwitchConfig)>,
    /// Highest epoch with termination proof: epochs `<= fence` can never
    /// stage or activate again (the already-active epoch keeps serving).
    fence: u64,
    /// Virtual-clock deadline of the active config's lease; `None` means
    /// no lease (force-activated or nothing active).
    lease_until: Option<u64>,
    /// Replay cache: exact `(epoch, seq)` duplicates re-answer from here.
    seen: BTreeMap<(u64, u64), Reply>,
}

impl SwitchAgent {
    /// A fresh agent with nothing installed.
    pub fn new(id: SwitchId) -> Self {
        SwitchAgent {
            id,
            crashed: false,
            staged: None,
            active: None,
            fence: 0,
            lease_until: None,
            seen: BTreeMap::new(),
        }
    }

    /// The switch this agent fronts.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Handles one delivered request at virtual time `now_us`. Commit
    /// starts (and probe renews) a lease of `lease_us`. Returns the reply
    /// to send back plus protocol observations for the runtime's log.
    pub fn handle(
        &mut self,
        req: &RequestEnvelope,
        now_us: u64,
        lease_us: u64,
    ) -> (ReplyEnvelope, Vec<HandleNote>) {
        let mut notes = Vec::new();
        if self.crashed {
            // Crashed agents answer nothing in a real network; the Nack is
            // the emulation's way of letting the pump observe the state.
            return (
                self.reply(req, Reply::Nack { error: AgentError::Crashed, active_epoch: None }),
                notes,
            );
        }
        if let Some(epoch) = self.expire_lease(now_us) {
            notes.push(HandleNote::LeaseExpired { epoch });
        }
        if let Some(cached) = self.seen.get(&(req.epoch, req.seq)) {
            notes.push(HandleNote::Replayed);
            return (self.reply(req, cached.clone()), notes);
        }

        let body = match &req.body {
            Request::Prepare(config) => self.on_prepare(req.epoch, config, &mut notes),
            Request::Commit => self.on_commit(req.epoch, now_us, lease_us, &mut notes),
            Request::Abort => self.on_abort(req.epoch),
            Request::Probe => self.on_probe(req.epoch, now_us, lease_us),
        };
        self.seen.insert((req.epoch, req.seq), body.clone());
        (self.reply(req, body), notes)
    }

    fn reply(&self, req: &RequestEnvelope, body: Reply) -> ReplyEnvelope {
        ReplyEnvelope { epoch: req.epoch, seq: req.seq, switch: self.id, body }
    }

    fn on_prepare(
        &mut self,
        epoch: u64,
        config: &SwitchConfig,
        notes: &mut Vec<HandleNote>,
    ) -> Reply {
        if epoch <= self.fence {
            notes.push(HandleNote::FencedStale { stale_epoch: epoch });
            return self.nack(AgentError::EpochFenced { fenced: self.fence, requested: epoch });
        }
        // Seeing epoch `e` proves epochs `< e` terminated at the
        // controller: fence them (the active one keeps serving).
        self.fence = self.fence.max(epoch.saturating_sub(1));
        self.staged = Some((epoch, config.clone()));
        self.ack()
    }

    fn on_commit(
        &mut self,
        epoch: u64,
        now_us: u64,
        lease_us: u64,
        notes: &mut Vec<HandleNote>,
    ) -> Reply {
        if self.active_epoch() == Some(epoch) {
            // Idempotent replay of a commit that already landed. Renew the
            // lease only while commit-window supervision is still running:
            // a straggler duplicate arriving after the controller released
            // the lease must not start a new one nobody will renew.
            if self.lease_until.is_some() {
                self.lease_until = Some(now_us + lease_us);
            }
            return self.ack();
        }
        if epoch <= self.fence {
            notes.push(HandleNote::FencedStale { stale_epoch: epoch });
            return self.nack(AgentError::EpochFenced { fenced: self.fence, requested: epoch });
        }
        match &self.staged {
            None => self.nack(AgentError::NothingStaged),
            Some((staged, _)) if *staged != epoch => {
                let staged = *staged;
                self.nack(AgentError::EpochMismatch { staged, requested: epoch })
            }
            Some(_) => {
                self.active = self.staged.take();
                self.fence = self.fence.max(epoch.saturating_sub(1));
                self.lease_until = Some(now_us + lease_us);
                self.ack()
            }
        }
    }

    fn on_abort(&mut self, epoch: u64) -> Reply {
        // Aborting is always idempotent and always fences: even if the
        // staged config was lost (or never arrived), epoch `epoch` can
        // never activate after this.
        self.fence = self.fence.max(epoch);
        if self.staged.as_ref().is_some_and(|(e, _)| *e <= epoch) {
            self.staged = None;
        }
        self.ack()
    }

    fn on_probe(&mut self, epoch: u64, now_us: u64, lease_us: u64) -> Reply {
        if self.active_epoch() == Some(epoch) {
            // Same steady-state rule as idempotent commits: only a running
            // lease is renewed.
            if self.lease_until.is_some() {
                self.lease_until = Some(now_us + lease_us);
            }
            self.ack()
        } else {
            self.nack(AgentError::NotServing { requested: epoch })
        }
    }

    fn ack(&self) -> Reply {
        Reply::Ack { active_epoch: self.active_epoch() }
    }

    fn nack(&self, error: AgentError) -> Reply {
        Reply::Nack { error, active_epoch: self.active_epoch() }
    }

    /// Drops the active config if its lease lapsed before `now_us`
    /// (self-fencing against zombie service). Returns the epoch that
    /// stopped serving, if any.
    pub fn expire_lease(&mut self, now_us: u64) -> Option<u64> {
        let (epoch, _) = self.active.as_ref()?;
        let deadline = self.lease_until?;
        if now_us <= deadline {
            return None;
        }
        let epoch = *epoch;
        self.fence = self.fence.max(epoch);
        self.active = None;
        self.lease_until = None;
        Some(epoch)
    }

    /// `true` iff `(epoch, seq)` is already in the replay cache (the
    /// runtime's pump uses this to decide whether a delivery re-executes
    /// install machinery or replays a cached answer).
    pub fn has_seen(&self, epoch: u64, seq: u64) -> bool {
        self.seen.contains_key(&(epoch, seq))
    }

    /// Ends commit-window supervision: the active config keeps serving
    /// with no lease running (steady state — later failures are the
    /// post-commit crash / healing model's job, not the lease's).
    pub fn release_lease(&mut self) {
        self.lease_until = None;
    }

    /// Kills the switch: staged state is lost, the active config stops
    /// serving (the switch is gone from the data plane).
    pub fn crash(&mut self) {
        self.crashed = true;
        self.staged = None;
    }

    /// `true` iff the switch is down.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Directly restores an active config (the runtime's out-of-band
    /// rollback path to a last-known-good deployment; bypasses staging,
    /// the channel, and the lease).
    pub fn force_activate(&mut self, epoch: u64, config: Option<SwitchConfig>) {
        if self.crashed {
            return;
        }
        self.staged = None;
        self.lease_until = None;
        self.active = config.map(|c| (epoch, c));
    }

    /// The epoch of the active config, if any.
    pub fn active_epoch(&self) -> Option<u64> {
        self.active.as_ref().map(|(e, _)| *e)
    }

    /// The active config, if any.
    pub fn active_config(&self) -> Option<&SwitchConfig> {
        self.active.as_ref().map(|(_, c)| c)
    }

    /// The epoch of the staged config, if any.
    pub fn staged_epoch(&self) -> Option<u64> {
        self.staged.as_ref().map(|(e, _)| *e)
    }

    /// The highest fenced epoch: epochs `<=` this can never activate.
    pub fn fenced_epoch(&self) -> u64 {
        self.fence
    }

    /// The lease deadline of the active config, if one is running.
    pub fn lease_until(&self) -> Option<u64> {
        self.lease_until
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use hermes_net::topology;
    use std::collections::{BTreeMap, BTreeSet};

    const LEASE: u64 = 1_000;

    fn some_switch() -> SwitchId {
        topology::linear(1, 10.0).switch_ids().next().unwrap()
    }

    fn config(name: &str) -> SwitchConfig {
        SwitchConfig {
            switch: some_switch(),
            switch_name: name.to_string(),
            stages: BTreeMap::new(),
            parses: BTreeSet::new(),
            appends: BTreeMap::new(),
        }
    }

    fn agent() -> SwitchAgent {
        SwitchAgent::new(some_switch())
    }

    fn req(epoch: u64, seq: u64, body: Request) -> RequestEnvelope {
        RequestEnvelope { epoch, seq, switch: some_switch(), body }
    }

    fn prepare(epoch: u64, seq: u64, name: &str) -> RequestEnvelope {
        req(epoch, seq, Request::Prepare(Box::new(config(name))))
    }

    #[test]
    fn prepare_commit_swaps_atomically_and_starts_lease() {
        let mut a = agent();
        let (reply, _) = a.handle(&prepare(1, 1, "one"), 0, LEASE);
        assert!(reply.body.is_ack());
        assert_eq!(a.active_epoch(), None, "staging must not activate");
        let (reply, _) = a.handle(&req(1, 2, Request::Commit), 10, LEASE);
        assert!(reply.body.is_ack());
        assert_eq!(a.active_epoch(), Some(1));
        assert_eq!(a.active_config().unwrap().switch_name, "one");
        assert_eq!(a.lease_until(), Some(10 + LEASE));
    }

    #[test]
    fn abort_after_prepare_keeps_active_and_fences() {
        let mut a = agent();
        a.handle(&prepare(1, 1, "one"), 0, LEASE);
        a.handle(&req(1, 2, Request::Commit), 0, LEASE);
        a.handle(&prepare(2, 3, "two"), 0, LEASE);
        let (reply, _) = a.handle(&req(2, 4, Request::Abort), 0, LEASE);
        assert!(reply.body.is_ack(), "abort is always acked");
        // A delayed commit for the aborted epoch can never activate it.
        let (reply, notes) = a.handle(&req(2, 5, Request::Commit), 0, LEASE);
        assert_eq!(
            reply.body,
            Reply::Nack {
                error: AgentError::EpochFenced { fenced: 2, requested: 2 },
                active_epoch: Some(1)
            }
        );
        assert!(notes.contains(&HandleNote::FencedStale { stale_epoch: 2 }));
        assert_eq!(a.active_config().unwrap().switch_name, "one");
    }

    #[test]
    fn commit_with_epoch_mismatch_is_refused() {
        let mut a = agent();
        a.handle(&prepare(3, 1, "three"), 0, LEASE);
        let (reply, _) = a.handle(&req(4, 2, Request::Commit), 0, LEASE);
        assert_eq!(
            reply.body,
            Reply::Nack {
                error: AgentError::EpochMismatch { staged: 3, requested: 4 },
                active_epoch: None
            }
        );
        assert_eq!(a.active_epoch(), None);
    }

    #[test]
    fn commit_with_nothing_staged_is_refused() {
        let mut a = agent();
        let (reply, _) = a.handle(&req(1, 1, Request::Commit), 0, LEASE);
        assert_eq!(
            reply.body,
            Reply::Nack { error: AgentError::NothingStaged, active_epoch: None }
        );
    }

    #[test]
    fn crashed_switch_refuses_prepare_and_commit() {
        let mut a = agent();
        a.handle(&prepare(1, 1, "one"), 0, LEASE);
        a.crash();
        assert!(a.is_crashed());
        let (reply, _) = a.handle(&req(1, 2, Request::Commit), 0, LEASE);
        assert_eq!(reply.body, Reply::Nack { error: AgentError::Crashed, active_epoch: None });
        let (reply, _) = a.handle(&prepare(2, 3, "two"), 0, LEASE);
        assert_eq!(reply.body, Reply::Nack { error: AgentError::Crashed, active_epoch: None });
        a.force_activate(2, Some(config("two")));
        assert_eq!(a.active_config(), None, "force_activate is a no-op on a dead switch");
    }

    #[test]
    fn exact_duplicates_replay_the_cached_reply() {
        let mut a = agent();
        let (first, _) = a.handle(&prepare(1, 7, "one"), 0, LEASE);
        a.handle(&req(1, 8, Request::Commit), 5, LEASE);
        // The duplicate prepare arrives late; replaying it must not
        // clobber the now-active config with a fresh staged copy.
        let staged_before = a.staged_epoch();
        let (dup, notes) = a.handle(&prepare(1, 7, "one"), 20, LEASE);
        assert_eq!(dup, first, "replay must re-answer the original reply");
        assert!(notes.contains(&HandleNote::Replayed));
        assert_eq!(a.staged_epoch(), staged_before, "replay must not re-execute");
        assert_eq!(a.active_epoch(), Some(1));

        // A replayed commit under a fresh seq acks idempotently.
        let (again, _) = a.handle(&req(1, 9, Request::Commit), 25, LEASE);
        assert_eq!(again.body, Reply::Ack { active_epoch: Some(1) });
        assert_eq!(a.active_epoch(), Some(1), "nothing re-activates");
        assert_eq!(a.lease_until(), Some(25 + LEASE), "idempotent commit renews the lease");
    }

    #[test]
    fn newer_epoch_fences_older_prepare_and_commit() {
        let mut a = agent();
        a.handle(&prepare(1, 1, "one"), 0, LEASE);
        // Controller moved on to epoch 3; the agent hears about it first
        // through a prepare.
        a.handle(&prepare(3, 2, "three"), 0, LEASE);
        // Delayed messages from epoch 1 (never committed anywhere) must
        // never activate it.
        let (reply, _) = a.handle(&req(1, 3, Request::Commit), 0, LEASE);
        assert_eq!(
            reply.body,
            Reply::Nack {
                error: AgentError::EpochFenced { fenced: 2, requested: 1 },
                active_epoch: None
            }
        );
        let (reply, _) = a.handle(&prepare(1, 4, "stale"), 0, LEASE);
        assert!(!reply.body.is_ack());
        assert_eq!(a.staged_epoch(), Some(3), "the fresh epoch stays staged");
    }

    #[test]
    fn lease_expiry_self_fences_the_active_config() {
        let mut a = agent();
        a.handle(&prepare(1, 1, "one"), 0, LEASE);
        a.handle(&req(1, 2, Request::Commit), 0, LEASE);
        // Probes renew the lease.
        let (reply, _) = a.handle(&req(1, 3, Request::Probe), LEASE / 2, LEASE);
        assert_eq!(reply.body, Reply::Ack { active_epoch: Some(1) });
        assert_eq!(a.lease_until(), Some(LEASE / 2 + LEASE));
        // Without renewal, the lease lapses and the agent stops serving
        // rather than becoming a zombie.
        assert_eq!(a.expire_lease(LEASE / 2 + LEASE + 1), Some(1));
        assert_eq!(a.active_epoch(), None);
        assert!(a.fenced_epoch() >= 1, "the lapsed epoch is fenced");
        // A probe for the lapsed epoch reports not-serving.
        let (reply, _) = a.handle(&req(1, 4, Request::Probe), 3 * LEASE, LEASE);
        assert_eq!(
            reply.body,
            Reply::Nack { error: AgentError::NotServing { requested: 1 }, active_epoch: None }
        );
    }

    #[test]
    fn probe_for_wrong_epoch_is_not_serving() {
        let mut a = agent();
        a.handle(&prepare(1, 1, "one"), 0, LEASE);
        a.handle(&req(1, 2, Request::Commit), 0, LEASE);
        let (reply, _) = a.handle(&req(2, 3, Request::Probe), 1, LEASE);
        assert_eq!(
            reply.body,
            Reply::Nack { error: AgentError::NotServing { requested: 2 }, active_epoch: Some(1) }
        );
    }
}
