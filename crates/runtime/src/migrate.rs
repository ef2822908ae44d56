//! Staged execution of A→B migration schedules with checkpoints and
//! rollback.
//!
//! [`DeploymentRuntime::migrate`] takes the scheduler's output
//! ([`MigrationSchedule`], planned in `hermes-core`) and executes it over
//! the same lossy channel, fault injector, and epoch-fenced agents the
//! all-at-once rollout uses — but switch by switch:
//!
//! 1. **Plan** — a [`MigrationScheduler`] orders the per-switch commits
//!    to minimize the peak transient `A_max`, proving every intermediate
//!    state stage-feasible and acyclic.
//! 2. **Gate** — before the first commit, every prefix of the chosen
//!    order is replayed through the mixed-epoch per-packet-consistency
//!    check ([`hermes_backend::check_transition`]). A violating window
//!    aborts the migration with plan A untouched.
//! 3. **Execute** — each step is the commit engine's per-switch step
//!    (prepare → commit, bounded retry/backoff) for one switch, all in one
//!    commit window. A committed step is a **checkpoint**: the mixed state
//!    it reaches was verified safe, so the migration can hold there
//!    through arbitrarily many retries of the next step.
//! 4. **Roll back** — when a step fails for good (its switch crashed, or
//!    the retry budget drained), committed steps are undone in reverse
//!    order by re-installing their plan-A configs under a fresh epoch, in
//!    a commit window of their own. If the undo itself fails, or total
//!    failures cross the abort threshold, the runtime falls back to the
//!    out-of-band full restore (clear the channel, force-activate plan A
//!    everywhere). Either way the terminal state is exactly plan B
//!    installed or exactly plan A serving — never a mix.
//!
//! Unlike [`DeploymentRuntime::rollout`], migration never heals: healing
//! changes the target mid-flight, and the contract here is bimodal (B or
//! A). A post-migration switch failure is the next rollout's problem.

use crate::agent::SwitchAgent;
use crate::event::Event;
use crate::journal::{CrashPoint, JournalRecord, RenderedPlan};
use crate::runtime::{ControllerCrash, DeploymentRuntime};
use crate::txn::{mixed_epoch_gate, ActiveDeployment, ABORT_THRESHOLD, PACKET_SEEDS};
use hermes_backend::{validate_plan, EpochTransition, SwitchConfig};
use hermes_core::{
    verify, DeploymentPlan, MigrationProblem, MigrationSchedule, MigrationScheduler, SearchContext,
};
use hermes_net::SwitchId;
use hermes_tdg::Tdg;
use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

/// Attempts per migration step. A failed prepare is re-attempted once
/// (each attempt already retries per message with backoff); a failed
/// *commit* never is: the switch may have silently committed, so it is
/// waited out and declared down instead.
const STEP_ATTEMPTS: u32 = 2;

/// The one knob of a migration run: the schedule search's budget. Step
/// attempts (two), the abort threshold (three failures) and the commit
/// order (the scheduler's `auto`) are fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationConfig {
    /// Budget for the schedule search, milliseconds.
    pub plan_budget_ms: u64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig { plan_budget_ms: 2_000 }
    }
}

/// Terminal state of one [`DeploymentRuntime::migrate`].
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationOutcome {
    /// Every step committed; plan B is active and validated.
    Migrated {
        /// The epoch now serving.
        epoch: u64,
        /// Steps executed (0 for a no-op migration to the same plan).
        steps: usize,
        /// Virtual time from schedule start to activation.
        reconfig_us: u64,
        /// Control-plane messages the migration sent.
        messages: u64,
    },
    /// Refused before any commit — scheduling, validation, or the
    /// mixed-epoch gate said no. Plan A was never disturbed.
    Aborted {
        /// The refused epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// A mid-migration failure: every committed step was rolled back and
    /// plan A serves again.
    RolledBack {
        /// The abandoned epoch.
        epoch: u64,
        /// Why.
        reason: String,
        /// `true` when the out-of-band full restore ran instead of
        /// reverse-order stepwise undo.
        forced: bool,
    },
    /// The controller itself crashed mid-migration; only the journal
    /// survives, and [`DeploymentRuntime::recover`] must run before the
    /// runtime accepts further work.
    ControllerCrashed {
        /// The epoch in flight when the crash struck.
        epoch: u64,
        /// Which journal-write boundary the crash struck at.
        point: CrashPoint,
    },
}

impl MigrationOutcome {
    /// `true` iff plan B ended up installed.
    pub fn is_migrated(&self) -> bool {
        matches!(self, MigrationOutcome::Migrated { .. })
    }
}

impl fmt::Display for MigrationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationOutcome::Migrated { epoch, steps, reconfig_us, messages } => write!(
                f,
                "epoch {epoch} migrated in {steps} steps ({reconfig_us} us, {messages} messages)"
            ),
            MigrationOutcome::Aborted { epoch, reason } => {
                write!(f, "migration to epoch {epoch} aborted: {reason}")
            }
            MigrationOutcome::RolledBack { epoch, reason, forced: false } => {
                write!(f, "epoch {epoch} rolled back step by step: {reason}")
            }
            MigrationOutcome::RolledBack { epoch, reason, forced: true } => {
                write!(f, "epoch {epoch} rolled back by full restore: {reason}")
            }
            MigrationOutcome::ControllerCrashed { epoch, point } => {
                write!(f, "controller crashed at epoch {epoch} ({point} boundary)")
            }
        }
    }
}

impl MigrationOutcome {
    fn crashed(crash: ControllerCrash) -> Self {
        MigrationOutcome::ControllerCrashed { epoch: crash.epoch, point: crash.point }
    }
}

impl DeploymentRuntime {
    /// Plans and executes a staged migration from the active plan to
    /// `target`. See the module docs for the full protocol; the terminal
    /// state is exactly one of: `target` active and validated, the
    /// migration refused with plan A untouched, or plan A restored.
    pub fn migrate(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        cfg: &MigrationConfig,
    ) -> MigrationOutcome {
        self.guarded(MigrationOutcome::crashed, |rt| {
            let schedule = match &rt.active {
                Some(active) if active.tdg == *tdg && *active.plan != target => {
                    let problem =
                        MigrationProblem { tdg, net: &rt.net, from: &active.plan, to: &target };
                    let ctx =
                        SearchContext::with_time_limit(Duration::from_millis(cfg.plan_budget_ms));
                    MigrationScheduler::new().plan(&problem, &ctx)
                }
                _ => return rt.refuse_or_skip(tdg),
            };
            match schedule {
                Ok(schedule) => rt.run_migration(tdg, target, &schedule),
                Err(e) => {
                    let epoch = rt.advance_epoch()?;
                    Ok(rt.migration_abort(epoch, format!("no safe schedule: {e}")))
                }
            }
        })
    }

    /// Executes a precomputed schedule (e.g. one the operator reviewed or
    /// an explicit `--order`). The schedule must cover exactly the
    /// switches `target` occupies; every prefix of its commit order is
    /// re-verified through the mixed-epoch gate before the first commit.
    pub fn migrate_with_schedule(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        schedule: &MigrationSchedule,
    ) -> MigrationOutcome {
        self.guarded(MigrationOutcome::crashed, |rt| match &rt.active {
            Some(active) if active.tdg == *tdg && *active.plan != target => {
                rt.run_migration(tdg, target, schedule)
            }
            _ => rt.refuse_or_skip(tdg),
        })
    }

    /// A migration that does not run: the target already serves (nothing
    /// to do, nothing to disturb), or nothing of `tdg` serves to migrate
    /// from.
    fn refuse_or_skip(&mut self, tdg: &Tdg) -> Result<MigrationOutcome, ControllerCrash> {
        let reason = match &self.active {
            Some(active) if active.tdg == *tdg => {
                return Ok(MigrationOutcome::Migrated {
                    epoch: active.epoch,
                    steps: 0,
                    reconfig_us: 0,
                    messages: 0,
                });
            }
            Some(_) => "the active deployment runs a different program set; use rollout",
            None => "no active deployment to migrate from; use rollout",
        };
        let epoch = self.advance_epoch()?;
        Ok(self.migration_abort(epoch, reason.to_string()))
    }

    /// The migration proper, from the active deployment (plan A), which
    /// stays active until `target` is activated or plan A restored.
    fn run_migration(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        schedule: &MigrationSchedule,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        let epoch = self.advance_epoch()?;
        let start_us = self.clock_us;
        let messages_before = self.channel.messages_sent();
        self.log.push(Event::MigrationStarted {
            epoch,
            steps: schedule.steps.len(),
            peak_transient_amax: schedule.peak_transient_amax,
            at_us: self.clock_us,
        });

        // Pre-flight validation: ε-constraints + packet equivalence on
        // the network as it is now.
        let (report, artifacts) = validate_plan(tdg, &self.net, &target, &self.eps, &PACKET_SEEDS);
        if !report.is_ok() {
            self.log.push(Event::ValidationFailed {
                epoch,
                failures: report.failures.iter().map(ToString::to_string).collect(),
                at_us: self.clock_us,
            });
            return Ok(self.migration_abort(epoch, "target plan failed validation".to_string()));
        }
        let order = schedule.commit_order();
        let configs: Vec<&SwitchConfig> =
            order.iter().filter_map(|s| artifacts.switches.get(s)).collect();
        let distinct = order.iter().collect::<BTreeSet<_>>().len();
        if configs.len() != order.len()
            || distinct != order.len()
            || order.len() != artifacts.switches.len()
        {
            return Ok(self.migration_abort(
                epoch,
                "schedule does not cover the target plan's switches exactly once".to_string(),
            ));
        }

        // Prefix gate: every window of the chosen commit order must keep
        // each packet on a single observable epoch end to end.
        let gate = match &self.active {
            Some(prior) => {
                let transition = EpochTransition {
                    tdg,
                    old_plan: &prior.plan,
                    old_artifacts: &prior.artifacts,
                    new_plan: &target,
                    new_artifacts: &artifacts,
                };
                mixed_epoch_gate(&mut self.log, self.clock_us, epoch, &transition, &order)
            }
            None => Err("no active deployment to migrate from; use rollout".to_string()),
        };
        if let Err(reason) = gate {
            return Ok(self.migration_abort(epoch, reason));
        }

        // The migration's intent becomes durable before the first step
        // touches an agent. Steps journal nothing: until the completion
        // record lands, recovery rolls back to plan A whichever prefix of
        // `order` had committed.
        let (target, tdg_fp) = (RenderedPlan::new(target), hermes_core::tdg_fingerprint(tdg));
        self.journal_note(JournalRecord::MigrationBegun {
            epoch,
            tdg_fp,
            plan_fp: target.fingerprint(),
            plan: target.clone(),
            order: order.clone(),
        })?;

        // Execute the schedule step by step; each committed step is a
        // checkpoint (its mixed state was verified safe above).
        let mut window = self.open_window(epoch);
        let mut failures = 0u32;
        for ((idx, step), config) in schedule.steps.iter().enumerate().zip(configs) {
            let switch = step.switch;
            self.keep_alive(&mut window);
            let mut step_ok = false;
            let mut last_reason = String::new();
            for _ in 0..STEP_ATTEMPTS {
                match self.step(&mut window, switch, config) {
                    Ok(true) => step_ok = true,
                    Ok(false) => {
                        failures += 1;
                        last_reason = format!("switch {switch} did not acknowledge the commit");
                        self.log.push(Event::MigrationStepFailed {
                            epoch,
                            step: idx,
                            switch,
                            reason: last_reason.clone(),
                            at_us: self.clock_us,
                        });
                        // The commit may have landed with its ack lost.
                        // Wait out the lease so an alive-but-unreachable
                        // agent provably self-fences before anything rolls
                        // back.
                        self.declare_unreachable(&mut window, switch);
                    }
                    Err(reason) => {
                        failures += 1;
                        last_reason.clone_from(&reason);
                        self.log.push(Event::MigrationStepFailed {
                            epoch,
                            step: idx,
                            switch,
                            reason,
                            at_us: self.clock_us,
                        });
                        let down = self.agents.get(&switch).is_some_and(SwitchAgent::is_crashed);
                        if !down && failures <= ABORT_THRESHOLD {
                            continue;
                        }
                    }
                }
                // Commit outcomes are final for the step either way.
                break;
            }
            if !step_ok {
                // Best-effort un-stage of a prepared-but-uncommitted
                // config; fencing covers a lost abort.
                self.abort_prepared(&[switch], epoch);
                let reason = format!("step {idx} (switch {switch}) failed: {last_reason}");
                return self.migration_roll_back(epoch, reason, &window.committed, failures);
            }
            self.log.push(Event::MigrationStepCommitted {
                epoch,
                step: idx,
                switch,
                transient_amax: step.transient_amax,
                at_us: self.clock_us,
            });
        }

        // Commit-window supervision ends: a lease that lapsed without
        // renewal means that agent stopped serving mid-migration.
        if let Some(&switch) = self.close_window(&window).first() {
            failures += 1;
            let reason = format!("switch {switch}'s lease lapsed during the migration window");
            return self.migration_roll_back(epoch, reason, &window.committed, failures);
        }
        // Faults during the steps (lost links, crashed bystanders) may
        // have degraded the network; the target must still hold on what
        // is actually left before it becomes the active deployment.
        if let Some(first) = verify(tdg, &self.net, &target, &self.eps).first() {
            failures += 1;
            let reason = format!("target plan no longer valid after migration: {first}");
            return self.migration_roll_back(epoch, reason, &window.committed, failures);
        }

        let steps = schedule.steps.len();
        self.journal_note(JournalRecord::MigrationCompleted { epoch, steps })?;
        self.activate(ActiveDeployment {
            epoch,
            tdg: tdg.clone(),
            plan: target,
            artifacts,
            tdg_fp,
        })?;
        let reconfig_us = self.clock_us - start_us;
        let messages = self.channel.messages_sent() - messages_before;
        self.log.push(Event::MigrationCompleted {
            epoch,
            steps,
            reconfig_us,
            messages,
            at_us: self.clock_us,
        });
        Ok(MigrationOutcome::Migrated { epoch, steps, reconfig_us, messages })
    }

    /// Logs and returns a pre-commit refusal (plan A untouched).
    fn migration_abort(&mut self, epoch: u64, reason: String) -> MigrationOutcome {
        self.log.push(Event::MigrationAborted {
            epoch,
            reason: reason.clone(),
            at_us: self.clock_us,
        });
        MigrationOutcome::Aborted { epoch, reason }
    }

    /// Rolls the committed prefix back to plan A: reverse-order stepwise
    /// re-install of plan-A configs under a fresh epoch, escalating to
    /// the out-of-band full restore when the undo itself fails or the
    /// abort threshold is crossed.
    fn migration_roll_back(
        &mut self,
        epoch: u64,
        reason: String,
        committed: &[SwitchId],
        failures: u32,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        // The abandonment decision is durable before any undo touches an
        // agent: a controller that crashes mid-undo is known (on replay)
        // to have been rolling back, not still migrating forward.
        let forced = failures > ABORT_THRESHOLD;
        self.journal_note(JournalRecord::MigrationRolledBack { epoch, forced })?;
        let forced = forced || !self.undo(committed)?;
        if forced {
            self.force_restore(self.active.clone())?;
        }
        self.log.push(Event::MigrationRolledBack {
            epoch,
            reason: reason.clone(),
            forced,
            undone: committed.len(),
            at_us: self.clock_us,
        });
        Ok(MigrationOutcome::RolledBack { epoch, reason, forced })
    }

    /// Undoes `committed` newest-first under a fresh epoch — the abandoned
    /// migration epoch is fenced wherever the undo lands, so a straggling
    /// migration commit can never re-activate it. `Ok(false)` when a
    /// switch refused or its lease lapsed before the undo's window closed.
    fn undo(&mut self, committed: &[SwitchId]) -> Result<bool, ControllerCrash> {
        let undo_epoch = self.advance_epoch()?;
        let mut window = self.open_window(undo_epoch);
        for &switch in committed.iter().rev() {
            let prior = self.active.as_ref();
            let (prior_epoch, config) = (
                prior.map_or(0, |p| p.epoch),
                prior.and_then(|p| p.artifacts.switches.get(&switch)).cloned(),
            );
            match config {
                Some(config) => {
                    if self.step(&mut window, switch, &config) != Ok(true) {
                        return Ok(false);
                    }
                }
                None => {
                    // The switch exists only in plan B; nothing in plan A
                    // routes through it, so decommission it out of band.
                    if let Some(agent) = self.agents.get_mut(&switch) {
                        agent.force_activate(prior_epoch, None);
                    }
                    window.committed.push(switch);
                }
            }
            self.log.push(Event::MigrationStepRolledBack {
                epoch: undo_epoch,
                switch,
                at_us: self.clock_us,
            });
        }
        Ok(self.close_window(&window).is_empty())
    }
}
