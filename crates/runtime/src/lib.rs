//! Failure-aware deployment runtime: fault injection, transactional
//! rollout, and incremental healing.
//!
//! The paper's pipeline ends at a verified [`DeploymentPlan`]
//! (hermes-core) and per-switch configs (hermes-backend). This crate adds
//! the operational layer in between a plan and a running network:
//!
//! - [`agent`] — emulated per-switch install agents, each a
//!   message-driven state machine: `(epoch, seq)`-stamped requests are
//!   deduplicated and answered idempotently, stale epochs are fenced (an
//!   agent that missed an abort can never activate the abandoned epoch),
//!   and a commit-time lease makes an unrenewed agent self-fence instead
//!   of serving as a zombie.
//! - [`channel`] — the seeded, lossy [`ControlChannel`] every
//!   prepare/commit/abort/probe travels: a [`ChannelProfile`] decides per
//!   message whether it is dropped, duplicated, reordered, or delayed,
//!   deterministically per seed.
//! - [`fault`] — a seeded, deterministic [`FaultInjector`] modelling
//!   install rejections, switch crashes, link failures, slow responses,
//!   and partial-stage installs. Profiles are validated at construction.
//! - [`runtime`] — [`DeploymentRuntime`], which installs a plan as a
//!   two-phase transaction with bounded retry and exponential backoff on
//!   a virtual clock, refuses same-program plan changes whose mixed-epoch
//!   commit window would break Reitblatt-style per-packet consistency
//!   ([`hermes_backend::check_transition`]), rolls back atomically when
//!   the transaction cannot commit, and — when a switch dies after commit
//!   or stops answering probes — heals by re-running the incremental
//!   deployer with surviving placements pinned and revalidating
//!   (ε-verifier + packet-level equivalence) before activating the healed
//!   plan.
//! - `txn` (private) — the commit engine every installer above and below
//!   runs on: one per-switch prepare → commit step, one commit window
//!   (lease keep-alive, unreachable detection, the closing lease sweep),
//!   one mixed-epoch gate, one out-of-band fleet restore and the journal
//!   boundary. Deploy and heal prepare every switch before the point of no
//!   return; a migration prepares and commits one switch per step; recovery
//!   force-activates a switch that refuses.
//! - [`migrate`] — staged live reconfiguration: executes a
//!   [`hermes_core::MigrationSchedule`] switch by switch over the same
//!   lossy channel and fault injector, gating every prefix of the commit
//!   order through the mixed-epoch check, checkpointing after each
//!   committed step, and rolling back to the prior plan (stepwise, or by
//!   full restore past an abort threshold) when a step fails for good.
//! - [`event`] — the structured, deterministic [`EventLog`] recording
//!   epochs, retries, message fates, fencing, leases, rollbacks, recovery
//!   latency, and `A_max` before/after healing. Same seed, byte-identical
//!   JSON.
//! - [`journal`] — the durable write-ahead intent [`Journal`]: every
//!   controller decision (epoch advance, transaction or migration intent,
//!   commit, abort or rollback decision, conclusion, snapshot) is recorded
//!   as a length-framed, CRC-checked record *before* it takes effect;
//!   per-switch acknowledgements and leases are not journaled. Records
//!   hold plans, never the per-switch configs recovery can regenerate from
//!   them, and every snapshot compacts the image to itself and what
//!   follows (keeping the highest epoch). A torn tail is discarded
//!   silently; mid-log corruption is a typed [`JournalError`], never a
//!   panic.
//! - [`recovery`] — restart-time replay and reconciliation:
//!   [`DeploymentRuntime::recover`] rebuilds intent from the journal,
//!   probes every agent under a fresh fencing epoch, resumes
//!   transactions whose commit decision was journaled, rolls back those
//!   without one, and force-restores past an abort threshold — so the
//!   "exactly plan A or exactly plan B" invariant holds across
//!   controller crashes too.
//!
//! # Example
//!
//! ```
//! use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
//! use hermes_dataplane::library;
//! use hermes_net::topology;
//! use hermes_runtime::{DeploymentRuntime, FaultInjector, FaultProfile, RetryPolicy};
//!
//! let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
//! let net = topology::linear(4, 10.0);
//! let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose())?;
//!
//! let injector = FaultInjector::new(7, FaultProfile::chaos());
//! let mut runtime =
//!     DeploymentRuntime::new(net, Epsilon::loose(), injector, RetryPolicy::default());
//! let outcome = runtime.rollout(&tdg, plan);
//! // Exactly one of two terminal states: a committed, validated plan, or
//! // a clean rollback to the previous deployment.
//! if outcome.is_committed() {
//!     assert!(runtime.active_plan().is_some());
//! } else {
//!     assert!(runtime.active_plan().is_none());
//! }
//! println!("{}", runtime.log().to_json());
//! # Ok::<(), hermes_core::DeployError>(())
//! ```
//!
//! [`DeploymentPlan`]: hermes_core::DeploymentPlan

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod channel;
pub mod event;
pub mod fault;
pub mod journal;
pub mod migrate;
pub mod recovery;
pub mod runtime;
mod txn;

pub use agent::{
    AgentError, HandleNote, Reply, ReplyEnvelope, Request, RequestEnvelope, SwitchAgent,
};
pub use channel::{ChannelProfile, ControlChannel, Message, SendReceipt};
pub use event::{Event, EventLog, MessageKind, EVENT_SCHEMA_VERSION};
pub use fault::{Fault, FaultInjector, FaultProfile, ProfileError};
pub use journal::{
    replay_bytes, CrashPoint, CrashTiming, Journal, JournalError, JournalRecord, RenderedPlan,
    Replay, TxnKind, JOURNAL_FORMAT_VERSION,
};
pub use migrate::{MigrationConfig, MigrationOutcome};
pub use recovery::{
    InFlight, RecoveredIntent, RecoveryAction, RecoveryError, RecoveryReport, SnapshotState,
};
pub use runtime::{ControllerCrash, DeploymentRuntime, RetryPolicy, RolloutOutcome};
