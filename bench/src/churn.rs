//! `churn-ft4`: controllers resident on `fattree:4`, each taking a seeded
//! stream of program adds and removes, switch drains, rollouts under chaos
//! and controller crashes through `DeploymentRuntime`'s public API.
//!
//! A chaos rollout takes about one switch in two out of the fabric for
//! good (the runtime's public API cannot revive one), so a single
//! controller would run out of switches well before 400 events. The round
//! is therefore sixteen controller lifetimes of 25 events, each starting
//! from a whole fabric with a deploy of six programs.

use crate::check;
use crate::layers::{Layers, RuntimeCounts, ShadowSolves};
use crate::request::{deploy_request, plan_request, Planned, Source};
use crate::trace::Tracer;
use crate::workload::{topology, Observed, Pool, Round};
use hermes_core::{
    DeploymentPlan, Epsilon, IncrementalDeployer, MigrationOrder, MigrationProblem,
    MigrationScheduler, RedeployOptions, SearchContext,
};
use hermes_dataplane::library;
use hermes_net::Network;
use hermes_runtime::{
    ChannelProfile, CrashTiming, DeploymentRuntime, FaultInjector, FaultProfile, MigrationConfig,
    MigrationOutcome, RolloutOutcome,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, RngExt, SeedableRng};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const LIFETIMES: usize = 16;
const EVENTS_PER_LIFETIME: usize = 25;
const INITIAL_PROGRAMS: usize = 6;
const SOLVER: &str = "portfolio";
/// Per lifetime, after the initial deploy: half program changes (adds and
/// removes), a quarter drains, a sixth chaos rollouts and a twelfth
/// controller crashes, of 24 events. (With the 35/35/15/10/5 % first
/// planned, the audit did as much of the work as the runtime, and this
/// workload is here to load the runtime.)
const MIX: [(Kind, usize); 4] =
    [(Kind::Add, 12), (Kind::Drain, 6), (Kind::Chaos, 4), (Kind::Crash, 2)];
/// Journal-write boundaries a crash may be armed at; a deploy of one
/// switch already crosses this many.
const CRASH_BOUNDARIES: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Initial,
    Add,
    Remove,
    Drain,
    Chaos,
    Crash,
}

struct ChurnEvent {
    kind: Kind,
    /// The program set the event asks for (for a drain, chaos rollout or
    /// crash: the set already deployed), and its text.
    programs: Vec<usize>,
    source: Source,
    /// The event's own seeded draw: which switch to drain, which fault
    /// schedule, which journal boundary.
    draw: u64,
}

/// What the timed window of one event left behind, for its check.
struct Ran {
    prior: Option<DeploymentPlan>,
    /// The plan the event tried to install, when it got as far as one.
    target: Option<Planned>,
    outcome: Result<&'static str, String>,
    before: RuntimeCounts,
    after: RuntimeCounts,
    lifetime_ends: bool,
}

pub struct ChurnRound {
    pool: Pool,
    specs: Vec<String>,
    net: Network,
    eps: Epsilon,
    events: Vec<ChurnEvent>,
    controller: Option<DeploymentRuntime>,
    /// Programs, TDG and plan of the deployment now serving.
    serving: Option<Planned>,
    ran: Option<Ran>,
}

/// The fixed event list: it follows the program set each event *asks*
/// for, so it does not depend on how the program under test responds.
pub fn churn(seed: u64) -> ChurnRound {
    let pool = Pool::new(library::real_programs());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572);
    let mut events = Vec::with_capacity(LIFETIMES * EVENTS_PER_LIFETIME);
    for _ in 0..LIFETIMES {
        let mut all: Vec<usize> = (0..pool.programs.len()).collect();
        all.shuffle(&mut rng);
        let mut active: Vec<usize> = all[..INITIAL_PROGRAMS].to_vec();
        let mut kinds: Vec<Kind> =
            MIX.iter().flat_map(|&(kind, n)| std::iter::repeat_n(kind, n)).collect();
        kinds.shuffle(&mut rng);
        kinds.insert(0, Kind::Initial);
        for kind in kinds {
            // A program change adds below the initial count, removes above
            // it and draws at it, so a controller always holds five to
            // seven programs and requests cost about the same at any seed.
            let kind = match (kind, active.len().cmp(&INITIAL_PROGRAMS)) {
                (Kind::Add, Ordering::Greater) => Kind::Remove,
                (Kind::Add, Ordering::Equal) if rng.random_bool(0.5) => Kind::Remove,
                (other, _) => other,
            };
            match kind {
                Kind::Add => {
                    let absent: Vec<usize> =
                        (0..pool.programs.len()).filter(|p| !active.contains(p)).collect();
                    active.push(absent[rng.random_range(0..absent.len())]);
                }
                Kind::Remove => {
                    active.remove(rng.random_range(0..active.len()));
                }
                _ => {}
            }
            let mut programs = active.clone();
            programs.sort_unstable();
            let source = pool.source(&programs);
            events.push(ChurnEvent { kind, programs, source, draw: rng.next_u64() });
        }
    }
    ChurnRound {
        pool,
        specs: vec!["fattree:4".to_owned()],
        net: topology("fattree:4"),
        eps: Epsilon::loose(),
        events,
        controller: None,
        serving: None,
        ran: None,
    }
}

fn rollout_label(outcome: &RolloutOutcome) -> &'static str {
    match outcome {
        RolloutOutcome::Committed { healed: false, .. } => "committed",
        RolloutOutcome::Committed { healed: true, .. } => "committed_healed",
        RolloutOutcome::RolledBack { .. } => "rolled_back",
        RolloutOutcome::ControllerCrashed { .. } => "controller_crashed",
    }
}

impl ChurnRound {
    /// The timed window of event `i`. Returns what it tried to install and
    /// how it ended; an `Err` is an outcome no seeded fault explains.
    fn execute(
        &mut self,
        i: usize,
        tracer: &mut Tracer,
    ) -> (Option<Planned>, Result<&'static str, String>) {
        let event = &self.events[i];
        if event.kind == Kind::Initial {
            return match deploy_request(&event.source, &self.net, &self.eps, SOLVER, tracer) {
                Ok(deployed) => {
                    self.controller = Some(deployed.runtime);
                    (Some(deployed.planned), Ok("committed"))
                }
                Err(refusal) => (None, Err(refusal.to_string())),
            };
        }
        let Some(rt) = self.controller.as_mut() else {
            return (None, Err("no controller is resident".to_owned()));
        };
        if event.kind == Kind::Drain {
            let Some(serving) = &self.serving else {
                return (None, Err("nothing is deployed to drain".to_owned()));
            };
            let occupied: Vec<_> = serving.plan.occupied_switches().into_iter().collect();
            let mut exclude = rt.network().down_switches();
            exclude.push(occupied[(event.draw % occupied.len() as u64) as usize]);
            let redeployed = tracer.span("core.redeploy", || {
                IncrementalDeployer::new().redeploy_with(
                    &serving.tdg,
                    &serving.plan,
                    &serving.tdg,
                    rt.network(),
                    &self.eps,
                    &RedeployOptions::excluding(exclude),
                )
            });
            let plan = match redeployed {
                Ok(outcome) => outcome.plan,
                Err(e) => return (None, Err(format!("cannot drain: {e}"))),
            };
            let outcome = tracer.span("runtime.migrate", || {
                rt.migrate(&serving.tdg, plan.clone(), &MigrationConfig::default())
            });
            let label = match outcome {
                MigrationOutcome::Migrated { .. } => "migrated",
                MigrationOutcome::Aborted { .. } => "migration_aborted",
                MigrationOutcome::RolledBack { .. } => "migration_rolled_back",
                MigrationOutcome::ControllerCrashed { .. } => {
                    return (None, Err("the controller crashed with no crash armed".to_owned()))
                }
            };
            return (Some(Planned { plan, ..serving.clone() }), Ok(label));
        }
        // Add, remove, chaos and crash all replan from text on the fabric
        // as it now is, and roll the plan out over the serving one. The
        // solvers know programmability, not liveness, so down switches are
        // masked out of a copy, as `IncrementalDeployer` does for its own
        // fallback solve.
        let mut fabric = rt.network().clone();
        for down in fabric.down_switches() {
            fabric.switch_mut(down).programmable = false;
        }
        let planned = match plan_request(&event.source, &fabric, &self.eps, SOLVER, tracer) {
            Ok(planned) => planned,
            Err(refusal) => return (None, Err(refusal.to_string())),
        };
        let outcome =
            tracer.span("runtime.rollout", || rt.rollout(&planned.tdg, planned.plan.clone()));
        let label = match (&outcome, event.kind) {
            (RolloutOutcome::ControllerCrashed { .. }, Kind::Crash) => {
                match tracer.span("runtime.recover", || rt.recover(&planned.tdg)) {
                    Ok(_) => "crashed_and_recovered",
                    Err(e) => return (Some(planned), Err(format!("recover: {e}"))),
                }
            }
            (RolloutOutcome::ControllerCrashed { .. }, _) => {
                return (
                    Some(planned),
                    Err("the controller crashed with no crash armed".to_owned()),
                )
            }
            (RolloutOutcome::RolledBack { reason, .. }, Kind::Add | Kind::Remove) => {
                return (
                    Some(planned),
                    Err(format!("rolled back with no fault injected: {reason}")),
                )
            }
            (other, _) => rollout_label(other),
        };
        (Some(planned), Ok(label))
    }
}

impl Round for ChurnRound {
    fn len(&self) -> usize {
        self.events.len()
    }

    fn warm_up(&mut self) {
        let _ = deploy_request(
            &self.events[0].source,
            &self.net,
            &self.eps,
            SOLVER,
            &mut Tracer::off(),
        );
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Duration {
        let (kind, draw) = (self.events[i].kind, self.events[i].draw);
        // Faults are armed before the window opens and cleared after it
        // closes; replacing the injector also restarts the channel's
        // message counter, so the counters are read in between.
        if let Some(rt) = self.controller.as_mut() {
            match kind {
                Kind::Chaos => {
                    rt.set_injector(FaultInjector::new(draw, FaultProfile::chaos()));
                    rt.set_channel_profile(ChannelProfile::lossy());
                }
                Kind::Crash => {
                    let timing = if draw % 2 == 0 {
                        CrashTiming::BeforeWrite
                    } else {
                        CrashTiming::AfterWrite
                    };
                    rt.injector_mut()
                        .arm_controller_crash_at((draw >> 1) % CRASH_BOUNDARIES, timing);
                }
                _ => {}
            }
        }
        let resident = if kind == Kind::Initial { None } else { self.controller.as_ref() };
        let prior = resident.and_then(|rt| rt.active_plan().cloned());
        let before = resident.map(RuntimeCounts::read).unwrap_or_default();

        let start = Instant::now();
        let (target, outcome) = self.execute(i, tracer);
        let wall = start.elapsed();

        let after = self.controller.as_ref().map(RuntimeCounts::read).unwrap_or_default();
        if let Some(rt) = self.controller.as_mut() {
            match kind {
                Kind::Chaos => {
                    rt.set_injector(FaultInjector::disabled());
                    rt.set_channel_profile(ChannelProfile::none());
                }
                Kind::Crash => rt.injector_mut().disarm_controller_crash(),
                _ => {}
            }
        }
        let lifetime_ends = (i + 1).is_multiple_of(EVENTS_PER_LIFETIME);
        self.ran = Some(Ran { prior, target, outcome, before, after, lifetime_ends });
        wall
    }

    fn check(&mut self, i: usize) -> Result<Observed, String> {
        let ran = self.ran.take().ok_or("no event was run")?;
        let outcome = ran.outcome?;
        let rt = self.controller.as_ref().ok_or("no controller is resident")?;
        let active = rt.active_plan().ok_or("the controller serves nothing")?;
        // Exactly the prior plan or exactly the target; a heal around a
        // switch the chaos schedule killed is the one sanctioned third.
        let on_target = ran.target.as_ref().is_some_and(|t| t.plan == *active);
        if on_target || outcome == "committed_healed" {
            let target = ran.target.ok_or("a plan is serving that no event produced")?;
            self.serving = Some(Planned { plan: active.clone(), ..target });
        } else if ran.prior.as_ref() != Some(active) {
            return Err(format!("after `{outcome}` the active plan is neither prior nor target"));
        }
        let serving = self.serving.as_ref().ok_or("nothing is serving")?;
        if on_target && !self.pool.holds(&self.events[i].programs, &serving.programs) {
            return Err("the programs read back differ from the programs sent".to_owned());
        }
        let a_max = check::plan(&serving.tdg, rt.network(), active)?;
        // Falling back to the prior plan keeps it even when the fault that
        // caused the fallback took one of its switches; a newly installed
        // plan must be on live switches only.
        let installed = matches!(outcome, "committed" | "committed_healed" | "migrated");
        let dead = active.occupied_switches().into_iter().find(|s| !rt.network().is_switch_up(*s));
        if let (true, Some(dead)) = (installed, dead) {
            return Err(format!(
                "after `{outcome}` the active plan occupies {dead}, which is down"
            ));
        }
        check::agents_on_active_epoch(rt)?;
        // Reading the journal back costs as much as several events, so it
        // is done where it matters: after a recovery and at a lifetime's end.
        if outcome == "crashed_and_recovered" || ran.lifetime_ends {
            check::journal_restores(rt, active)?;
        }
        Ok(Observed {
            a_max,
            messages: ran.after.messages - ran.before.messages,
            journal_bytes: ran.after.journal_bytes,
            virtual_us: ran.after.virtual_us - ran.before.virtual_us,
            outcome,
        })
    }

    fn observe(&mut self, i: usize, deep: bool, tracer: &mut Tracer, layers: &mut Layers) {
        let (Some(ran), Some(rt)) = (&self.ran, &self.controller) else { return };
        layers.observe_runtime(&ran.before, &ran.after);
        let event = &self.events[i];
        let Some(target) = &ran.target else { return };
        if event.kind != Kind::Drain {
            layers.observe_plan(&event.source, target);
        }
        if !deep {
            return;
        }
        tracer.shadow(|tracer| match (event.kind, &ran.prior) {
            (Kind::Drain, Some(prior)) => {
                let problem = MigrationProblem {
                    tdg: &target.tdg,
                    net: rt.network(),
                    from: prior,
                    to: &target.plan,
                };
                let ctx = SearchContext::with_time_limit(Duration::from_millis(
                    MigrationConfig::default().plan_budget_ms,
                ));
                let schedule = layers.time(tracer, "core.migrate_plan", || {
                    MigrationScheduler::with_order(MigrationOrder::Auto).plan(&problem, &ctx)
                });
                if let Ok(schedule) = schedule {
                    layers.add("runtime.migrate_steps", schedule.steps.len() as f64);
                }
            }
            (Kind::Drain, None) => {}
            _ => {
                layers.shadow_plan(
                    tracer,
                    target,
                    rt.network(),
                    &self.eps,
                    ShadowSolves::GreedyAndExact,
                );
                layers.shadow_runtime(tracer, rt, &target.tdg);
            }
        });
    }

    fn warm_up_request(&self) -> (&Source, &str, &'static str) {
        (&self.events[0].source, &self.specs[0], SOLVER)
    }

    fn topologies(&self) -> &[String] {
        &self.specs
    }

    fn unrendered(&self) -> &BTreeMap<String, String> {
        &self.pool.from_constructor
    }
}
