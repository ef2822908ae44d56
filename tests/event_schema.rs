//! Schema-drift gate for the event log (`EVENT_SCHEMA_VERSION` 3).
//!
//! PR 6 diffed hand-picked JSON fields; that misses the silent-drift
//! class where a variant is renamed, a field is added with a default, or
//! serde attributes change representation. The stronger property: any
//! *recorded* log — produced by real rollouts, heals, migrations,
//! controller crashes, and recoveries, not synthetic values — must
//! round-trip through serde to an equal value AND re-serialize
//! byte-identically.
//!
//! The write-ahead journal gets the same treatment against a committed
//! fixture: the journal of a clean deploy is byte-exact per format
//! version, so any wire or schema change lands with a reviewed update of
//! `tests/fixtures/journal_golden.txt`.

use hermes::backend::generate;
use hermes::core::test_support::chain_tdg;
use hermes::core::{
    fnv1a64, DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer,
    MigrationProblem, MigrationScheduler, ProgramAnalyzer, RedeployOptions, SearchContext,
};
use hermes::dataplane::library;
use hermes::net::{topology, Network, SwitchId};
use hermes::runtime::{
    replay_bytes, ChannelProfile, CrashPoint, CrashTiming, DeploymentRuntime, Event, EventLog,
    FaultInjector, FaultProfile, JournalRecord, MigrationConfig, RetryPolicy, RolloutOutcome,
    EVENT_SCHEMA_VERSION, JOURNAL_FORMAT_VERSION,
};
use hermes::tdg::Tdg;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The first two library programs on linear:3 with their greedy plan.
fn two_program_deploy() -> (Tdg, Network, Epsilon, DeploymentPlan) {
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("deploys");
    (tdg, net, eps, plan)
}

/// The boundary, counted from now, at which a rollout of `plan` on `rt`
/// first journals a `point` record. A crash-free dry run on a copy counts
/// the rollout's boundaries; a crash armed before each in turn, on another
/// copy, then names the record written there, so no scenario encodes the
/// record list.
fn boundary_of(point: CrashPoint, rt: &DeploymentRuntime, tdg: &Tdg, plan: &DeploymentPlan) -> u64 {
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

/// The round-trip property itself.
fn assert_round_trips(log: &EventLog, context: &str) {
    assert_eq!(log.schema_version, EVENT_SCHEMA_VERSION, "{context}");
    let json = log.to_json();
    let back: EventLog =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{context}: deserialize: {e}"));
    assert_eq!(&back, log, "{context}: serde round trip changed the log");
    assert_eq!(back.to_json(), json, "{context}: re-serialization is not byte-identical");
}

/// A crash + recovery run: covers `ControllerCrashed`, `Recovery*`,
/// `AgentReconciled` on top of the usual transaction events.
#[test]
fn crash_recovery_logs_round_trip() {
    let (tdg, net, eps, plan) = two_program_deploy();
    let mut rt = DeploymentRuntime::new(
        net,
        eps,
        FaultInjector::new(11, FaultProfile::none()),
        RetryPolicy::default(),
    );
    assert!(rt.rollout(&tdg, plan.clone()).is_committed());
    let decision = boundary_of(CrashPoint::CommitDecision, &rt, &tdg, &plan);
    rt.injector_mut().arm_controller_crash_at(decision, CrashTiming::AfterWrite);
    rt.rollout(&tdg, plan);
    rt.recover(&tdg).expect("recovery succeeds");
    let log = rt.log();
    assert!(
        log.count(|e| matches!(e, Event::ControllerCrashed { .. })) > 0
            && log.count(|e| matches!(e, Event::RecoveryFinished { .. })) > 0,
        "the scenario must actually record the new variants"
    );
    assert_round_trips(log, "crash+recovery");
}

/// A chaotic migration run: covers the `Migration*` family plus faults,
/// retries, fencing, and leases under a lossy channel.
#[test]
fn migration_logs_round_trip() {
    let tdg = chain_tdg(&[6, 2, 9, 3, 5, 4], 0.3);
    let net = topology::linear(4, 10.0);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    let mut rt =
        DeploymentRuntime::new(net, eps, FaultInjector::disabled(), RetryPolicy::default());
    assert!(rt.rollout(&tdg, plan_a).is_committed());
    rt.set_injector(FaultInjector::new(5, FaultProfile::chaos()));
    rt.set_channel_profile(ChannelProfile::lossy());
    rt.migrate(&tdg, plan_b, &MigrationConfig::default());
    assert_round_trips(rt.log(), "migration");
}

/// The journal of a clean two-program deploy on linear:3, hex-dumped
/// under both version stamps, equals the committed fixture.
/// `REGEN_GOLDEN=1` rewrites the fixture instead.
#[test]
fn clean_deploy_journal_matches_the_golden_fixture() {
    let (tdg, net, eps, plan) = two_program_deploy();
    let mut rt =
        DeploymentRuntime::new(net, eps, FaultInjector::disabled(), RetryPolicy::default());
    assert!(rt.rollout(&tdg, plan).is_committed());
    let bytes = rt.journal().bytes();
    let mut dump = format!(
        "journal_format_version={JOURNAL_FORMAT_VERSION}\n\
         event_schema_version={EVENT_SCHEMA_VERSION}\nbytes={}\n",
        bytes.len()
    );
    for chunk in bytes.chunks(32) {
        dump.extend(chunk.iter().map(|b| format!("{b:02x}")));
        dump.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/journal_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &dump).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    assert_eq!(
        dump, fixture,
        "journal bytes or schema versions drifted from tests/fixtures/journal_golden.txt; \
         re-generate with REGEN_GOLDEN=1 if the change is intentional"
    );
}

/// One line per durable artifact: its length and FNV-1a digest.
fn digest_line(what: &str, bytes: &[u8]) -> String {
    format!("{what}: {} bytes, fnv1a64 {:016x}\n", bytes.len(), fnv1a64(bytes))
}

/// Fixed-seed transactions of every kind that journals a plan — a rollout
/// healed after a post-commit switch death, a stepwise migration, and a
/// controller crash (the journal as the crash left it, `TxnBegun`
/// included) followed by recovery — leave journals and event logs whose
/// lengths and digests equal the committed fixture. The fixture was
/// written by the commit before fingerprints were computed once per
/// transaction, so it pins every journaled `tdg_fp`/`plan_fp` to the value
/// the per-record computation gave. `REGEN_GOLDEN=1` rewrites it.
#[test]
fn healed_migrated_and_recovered_records_match_the_golden_fixture() {
    let mut dump = format!(
        "journal_format_version={JOURNAL_FORMAT_VERSION}\n\
         event_schema_version={EVENT_SCHEMA_VERSION}\n"
    );
    let mut record = |scenario: &str, outcome: String, rt: &DeploymentRuntime| {
        dump += &format!("[{scenario}] {outcome}\n");
        dump += &digest_line("journal", rt.journal().bytes());
        dump += &digest_line("event log", rt.log().to_json().as_bytes());
    };

    let (tdg, net, eps, plan) = two_program_deploy();
    let post_commit = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
    let mut rt = DeploymentRuntime::new(
        net.clone(),
        eps,
        FaultInjector::new(7, post_commit),
        RetryPolicy::default(),
    );
    let outcome = rt.rollout(&tdg, plan.clone());
    assert!(
        matches!(outcome, hermes::runtime::RolloutOutcome::Committed { healed: true, .. }),
        "{outcome}"
    );
    record("rollout+heal", outcome.to_string(), &rt);

    let mut rt = DeploymentRuntime::new(
        net,
        eps,
        FaultInjector::new(11, FaultProfile::none()),
        RetryPolicy::default(),
    );
    assert!(rt.rollout(&tdg, plan.clone()).is_committed());
    let decision = boundary_of(CrashPoint::CommitDecision, &rt, &tdg, &plan);
    rt.injector_mut().arm_controller_crash_at(decision, CrashTiming::AfterWrite);
    let outcome = rt.rollout(&tdg, plan);
    record("crash", outcome.to_string(), &rt);
    let report = rt.recover(&tdg).expect("recovery succeeds");
    record("recover", format!("{report:?}"), &rt);

    let chain = chain_tdg(&[6, 2, 9, 3, 5, 4], 0.3);
    let net = topology::linear(4, 10.0);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&chain, &net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&chain, &plan_a, &chain, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible")
        .plan;
    let mut rt =
        DeploymentRuntime::new(net, eps, FaultInjector::disabled(), RetryPolicy::default());
    assert!(rt.rollout(&chain, plan_a).is_committed());
    let outcome = rt.migrate(&chain, plan_b, &MigrationConfig::default());
    assert!(matches!(outcome, hermes::runtime::MigrationOutcome::Migrated { .. }), "{outcome}");
    record("migrate", outcome.to_string(), &rt);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/transactions_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &dump).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    assert_eq!(
        dump, fixture,
        "a journal or event log drifted from tests/fixtures/transactions_golden.txt; \
         re-generate with REGEN_GOLDEN=1 if the change is intentional"
    );
}

/// Which stretch of the runtime a pinned scenario drives; it decides which
/// census entries the scenario's logs count towards.
#[derive(Clone, Copy, PartialEq)]
enum RuntimePath {
    Rollout,
    Migration,
    Recovery,
}

/// `runtime_paths_golden.txt` being written, plus the failure machinery
/// its scenarios were seen to reach.
struct Paths {
    dump: String,
    reached: BTreeSet<String>,
}

impl Paths {
    fn new() -> Self {
        Paths {
            dump: format!(
                "journal_format_version={JOURNAL_FORMAT_VERSION}\n\
                 event_schema_version={EVENT_SCHEMA_VERSION}\n"
            ),
            reached: BTreeSet::new(),
        }
    }

    /// One line: the outcome, the journal's and the event log's digests.
    /// `tdg` and `healthy` (the network before any fault) are what the
    /// scenario's plans were built for.
    fn record(
        &mut self,
        path: RuntimePath,
        scenario: &str,
        outcome: &str,
        rt: &DeploymentRuntime,
        tdg: &Tdg,
        healthy: &Network,
    ) {
        let (log, journal) = (rt.log(), rt.journal().bytes());
        self.dump += &format!(
            "[{scenario}] {outcome}; {}; {}\n",
            digest_line("journal", journal).trim_end(),
            digest_line("event log", log.to_json().as_bytes()).trim_end()
        );
        let records = replay_bytes(journal).expect("the journal replays").records;
        // The journal holds plans, not configs: whatever failures the
        // scenario left in the network, every plan it journaled or serves
        // compiles to the configs it compiled to on the healthy network.
        let plans = records.iter().filter_map(|r| match r {
            JournalRecord::TxnBegun { plan, .. }
            | JournalRecord::Snapshot { plan, .. }
            | JournalRecord::MigrationBegun { plan, .. } => Some(plan.plan()),
            _ => None,
        });
        for plan in plans.chain(rt.active_plan()) {
            assert_eq!(
                generate(tdg, rt.network(), plan),
                generate(tdg, healthy, plan),
                "[{scenario}]: the configs depend on the failed switches or links"
            );
        }
        if path != RuntimePath::Recovery {
            let side = if path == RuntimePath::Rollout { "a rollout" } else { "a migration" };
            if log.count(|e| matches!(e, Event::SwitchUnreachable { .. })) > 0 {
                self.reached.insert(format!("SwitchUnreachable in {side}"));
            }
            if log.count(|e| matches!(e, Event::LeaseExpired { .. })) > 0 {
                self.reached.insert(format!("LeaseExpired in {side}"));
            }
        }
        match path {
            RuntimePath::Rollout => {}
            RuntimePath::Migration => {
                if log.count(|e| matches!(e, Event::MigrationStepRolledBack { .. })) > 0 {
                    self.reached.insert("MigrationStepRolledBack".into());
                }
                // The full restore's snapshot compacts the journaled
                // decision away, but not the highest epoch: a stepwise undo
                // spends one past the migration's before it can escalate,
                // a restore the threshold chose spends none.
                let forced = log.events.iter().find_map(|e| match e {
                    Event::MigrationRolledBack { epoch, forced: true, .. } => Some(*epoch),
                    _ => None,
                });
                let highest = records.iter().map(JournalRecord::epoch).max();
                match forced {
                    Some(epoch) if highest == Some(epoch) => {
                        self.reached.insert("a forced restore decided by the threshold".into());
                    }
                    Some(_) => {
                        self.reached.insert("a forced restore escalated from undo".into());
                    }
                    None => {}
                }
            }
            // Per-switch force-activation stops at the abort threshold (3);
            // more forced switches than that is the full restore.
            RuntimePath::Recovery => {
                if log.count(|e| matches!(e, Event::RecoveryApplied { forced, .. } if *forced > 3))
                    > 0
                {
                    self.reached.insert("recovery's escalation".into());
                }
            }
        }
    }
}

/// Runtime under test, on a loose ε and the default retry policy.
fn runtime(net: &Network, injector: FaultInjector, channel: ChannelProfile) -> DeploymentRuntime {
    DeploymentRuntime::new(net.clone(), Epsilon::loose(), injector, RetryPolicy::default())
        .with_channel_profile(channel)
}

fn library_tdg() -> Tdg {
    ProgramAnalyzer::new().analyze(&library::real_programs())
}

fn greedy(tdg: &Tdg, net: &Network) -> DeploymentPlan {
    GreedyHeuristic::new().deploy(tdg, net, &Epsilon::loose()).expect("deploys")
}

/// Plan A (greedy) and plan B (plan A's last occupied switch drained).
fn drain_endpoints(tdg: &Tdg, net: &Network) -> (DeploymentPlan, DeploymentPlan) {
    let plan_a = greedy(tdg, net);
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(
            tdg,
            &plan_a,
            tdg,
            net,
            &Epsilon::loose(),
            &RedeployOptions::excluding([drained]),
        )
        .expect("drain is feasible")
        .plan;
    (plan_a, plan_b)
}

/// `migration_chaos.rs`'s capacity-bound reshaping of every switch.
fn shaped(mut net: Network) -> Network {
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    for id in ids {
        let sw = net.switch_mut(id);
        sw.stages = 5;
        sw.stage_capacity = 0.45;
    }
    net
}

/// (a) The library under chaos on both soak topologies, perfect and lossy.
fn chaos_rollouts(paths: &mut Paths, seeds: &[u64]) {
    let tdg = library_tdg();
    for (spec, net) in
        [("linear:4", topology::linear(4, 10.0)), ("fattree:4", topology::fat_tree(4, 10.0))]
    {
        let plan = greedy(&tdg, &net);
        for (channel, profile) in
            [("perfect", ChannelProfile::none()), ("lossy", ChannelProfile::lossy())]
        {
            for &seed in seeds {
                let injector = FaultInjector::new(seed, FaultProfile::chaos());
                let mut rt = runtime(&net, injector, profile);
                let outcome = rt.rollout(&tdg, plan.clone());
                let label = format!("rollout {spec} {channel} seed {seed}");
                paths.record(RuntimePath::Rollout, &label, &outcome.to_string(), &rt, &tdg, &net);
            }
        }
    }
}

/// (b) Post-commit-crash heals and (c) the mixed-epoch gate's two verdicts.
fn heals_and_gate(paths: &mut Paths) {
    let tdg = library_tdg();
    let net = topology::linear(4, 10.0);
    let plan = greedy(&tdg, &net);
    let post_commit = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
    for seed in 0..20 {
        let mut rt = runtime(&net, FaultInjector::new(seed, post_commit), ChannelProfile::none());
        let outcome = rt.rollout(&tdg, plan.clone());
        let label = format!("heal seed {seed}");
        paths.record(RuntimePath::Rollout, &label, &outcome.to_string(), &rt, &tdg, &net);
    }

    let exclude = *plan.occupied_switches().iter().next().expect("non-empty plan");
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
    for (label, second) in
        [("gate refuses moved MATs", moved), ("gate skips an identical plan", plan.clone())]
    {
        let mut rt = runtime(&net, FaultInjector::disabled(), ChannelProfile::none());
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        let outcome = rt.rollout(&tdg, second);
        paths.record(RuntimePath::Rollout, label, &outcome.to_string(), &rt, &tdg, &net);
    }
}

/// (d) Chaos + lossy migrations on `migration_chaos.rs`'s two shaped
/// chains, the reject-only threshold run, the three precondition refusals
/// and a schedule that misses a switch.
fn migrations(paths: &mut Paths, seeds: &[u64]) {
    let chains = [
        (
            "linear:5",
            shaped(topology::linear(5, 10.0)),
            chain_tdg(&[6, 2, 9, 3, 5, 4, 7, 2, 8], 0.4),
            &[451][..],
        ),
        (
            "star:4",
            shaped(topology::star(4, 10.0)),
            chain_tdg(&[4, 7, 3, 8, 2, 6, 5], 0.4),
            &[451, 162][..],
        ),
    ];
    let migrate = |net: &Network, tdg: &Tdg, seed, profile, channel| {
        let (plan_a, plan_b) = drain_endpoints(tdg, net);
        let mut rt = runtime(net, FaultInjector::disabled(), ChannelProfile::none());
        assert!(rt.rollout(tdg, plan_a).is_committed(), "clean install of plan A");
        rt.set_injector(FaultInjector::new(seed, profile));
        rt.set_channel_profile(channel);
        let outcome = rt.migrate(tdg, plan_b, &MigrationConfig::default());
        (rt, outcome)
    };
    for (spec, net, tdg, extras) in &chains {
        for &seed in seeds.iter().chain(*extras) {
            let (rt, outcome) =
                migrate(net, tdg, seed, FaultProfile::chaos(), ChannelProfile::lossy());
            let label = format!("migrate {spec} seed {seed}");
            paths.record(RuntimePath::Migration, &label, &outcome.to_string(), &rt, tdg, net);
        }
    }
    let (_, net, tdg, _) = &chains[0];
    let rejecting = FaultProfile { reject_prob: 0.6, ..FaultProfile::none() };
    let (rt, outcome) = migrate(net, tdg, 928, rejecting, ChannelProfile::none());
    paths.record(
        RuntimePath::Migration,
        "migrate linear:5 perfect, reject 0.6, seed 928",
        &outcome.to_string(),
        &rt,
        tdg,
        net,
    );

    let (plan_a, plan_b) = drain_endpoints(tdg, net);
    let mut rt = runtime(net, FaultInjector::disabled(), ChannelProfile::none());
    let outcome = rt.migrate(tdg, plan_b.clone(), &MigrationConfig::default());
    let label = "migrate with nothing active";
    paths.record(RuntimePath::Migration, label, &outcome.to_string(), &rt, tdg, net);
    assert!(rt.rollout(tdg, plan_a.clone()).is_committed());
    let other = chain_tdg(&[6, 2, 9, 3], 0.4);
    let outcome = rt.migrate(&other, greedy(&other, net), &MigrationConfig::default());
    paths.record(
        RuntimePath::Migration,
        "migrate a different program set",
        &outcome.to_string(),
        &rt,
        tdg,
        net,
    );
    let outcome = rt.migrate(tdg, plan_a.clone(), &MigrationConfig::default());
    let label = "migrate to the active plan";
    paths.record(RuntimePath::Migration, label, &outcome.to_string(), &rt, tdg, net);
    let problem = MigrationProblem { tdg, net, from: &plan_a, to: &plan_b };
    let mut schedule = MigrationScheduler::new()
        .plan(&problem, &SearchContext::with_time_limit(std::time::Duration::from_secs(10)))
        .expect("schedulable");
    schedule.steps.pop();
    let outcome = rt.migrate_with_schedule(tdg, plan_b, &schedule);
    paths.record(
        RuntimePath::Migration,
        "migrate on a schedule missing a switch",
        &outcome.to_string(),
        &rt,
        tdg,
        net,
    );
}

/// `recovery_chaos.rs`'s scenarios: a deploy, a post-commit heal and a
/// migration, each with an optional armed controller crash.
#[derive(Clone, Copy, Debug)]
enum Crashed {
    Deploy,
    Heal,
    Migrate,
}

fn crash_run(
    sc: Crashed,
    seed: u64,
    chaotic: bool,
    arm: Option<(u64, CrashTiming)>,
) -> DeploymentRuntime {
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2]);
    let net = topology::linear(3, 10.0);
    let (plan_a, plan_b) = drain_endpoints(&tdg, &net);
    let channel = if chaotic { ChannelProfile::lossy() } else { ChannelProfile::none() };
    let profile = if chaotic { FaultProfile::chaos() } else { FaultProfile::none() };
    let mut rt = match sc {
        Crashed::Deploy => runtime(&net, FaultInjector::new(seed, profile), channel),
        Crashed::Heal => {
            let profile = FaultProfile { post_commit_crash_prob: 1.0, ..profile };
            runtime(&net, FaultInjector::new(seed, profile), channel)
        }
        Crashed::Migrate => {
            let mut rt = runtime(&net, FaultInjector::disabled(), ChannelProfile::none());
            assert!(rt.rollout(&tdg, plan_a.clone()).is_committed(), "clean install of A");
            rt.set_injector(FaultInjector::new(seed, profile));
            rt.set_channel_profile(channel);
            rt
        }
    };
    if let Some((nth, timing)) = arm {
        rt.injector_mut().arm_controller_crash_at(nth, timing);
    }
    match sc {
        Crashed::Deploy | Crashed::Heal => drop(rt.rollout(&tdg, plan_a)),
        Crashed::Migrate => drop(rt.migrate(&tdg, plan_b, &MigrationConfig::default())),
    }
    rt
}

/// (e) A crash before and after every boundary (clean) and at a seed-derived one
/// (chaos), each followed by recovery; then recovery's threshold escalation.
fn recoveries(paths: &mut Paths, seeds: &[u64], sweep: bool) {
    let tdg = ProgramAnalyzer::new().analyze(&library::real_programs()[..2]);
    let net = topology::linear(3, 10.0);
    let mut recover = |label: String, mut rt: DeploymentRuntime| {
        let report = rt.recover(&tdg).expect("recovery succeeds");
        paths.record(RuntimePath::Recovery, &label, &format!("{report:?}"), &rt, &tdg, &net);
    };
    for sc in [Crashed::Deploy, Crashed::Heal, Crashed::Migrate] {
        if sweep {
            let writes = crash_run(sc, 7, false, None).injector().journal_writes();
            for nth in 0..writes {
                for timing in [CrashTiming::BeforeWrite, CrashTiming::AfterWrite] {
                    let rt = crash_run(sc, 7, false, Some((nth, timing)));
                    recover(format!("recover {sc:?} boundary {nth} {timing:?}"), rt);
                }
            }
        }
        for &seed in seeds {
            let writes = crash_run(sc, seed, true, None).injector().journal_writes();
            let nth = seed % writes;
            let timing =
                if seed % 2 == 0 { CrashTiming::BeforeWrite } else { CrashTiming::AfterWrite };
            let rt = crash_run(sc, seed, true, Some((nth, timing)));
            recover(format!("recover {sc:?} chaos seed {seed} boundary {nth} {timing:?}"), rt);
        }
    }

    let tdg = library_tdg();
    let net = topology::fat_tree(4, 10.0);
    let plan = greedy(&tdg, &net);
    let mut rt = runtime(&net, FaultInjector::disabled(), ChannelProfile::none());
    let decision = boundary_of(CrashPoint::CommitDecision, &rt, &tdg, &plan);
    rt.injector_mut().arm_controller_crash_at(decision, CrashTiming::AfterWrite);
    assert!(!rt.rollout(&tdg, plan).is_committed());
    rt.set_injector(FaultInjector::new(
        1,
        FaultProfile { reject_prob: 1.0, ..FaultProfile::none() },
    ));
    let report = rt.recover(&tdg).expect("recovery succeeds");
    paths.record(
        RuntimePath::Recovery,
        "recover fattree:4 all rejecting",
        &format!("{report:?}"),
        &rt,
        &tdg,
        &net,
    );
}

const RUNTIME_PATHS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/runtime_paths_golden.txt");

/// Every runtime path — rollout, heal, the mixed-epoch gate, migration with
/// its undo and full restore, recovery with its escalation — on fixed
/// seeds, one line per scenario. The fixture was written at the commit
/// before the runtime's installers were folded onto one commit engine.
/// `REGEN_GOLDEN=1 cargo test --release --test event_schema` rewrites it.
#[test]
fn every_runtime_path_matches_the_golden_fixture() {
    let seeds: Vec<u64> = (0..50).collect();
    let mut paths = Paths::new();
    chaos_rollouts(&mut paths, &[&seeds[..], &[1944]].concat());
    heals_and_gate(&mut paths);
    migrations(&mut paths, &seeds);
    recoveries(&mut paths, &seeds, true);
    for needed in [
        "SwitchUnreachable in a rollout",
        "LeaseExpired in a rollout",
        "SwitchUnreachable in a migration",
        "LeaseExpired in a migration",
        "MigrationStepRolledBack",
        "a forced restore escalated from undo",
        "a forced restore decided by the threshold",
        "recovery's escalation",
    ] {
        assert!(paths.reached.contains(needed), "no pinned scenario reaches {needed}");
    }
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(RUNTIME_PATHS, &paths.dump).expect("fixture is writable");
    }
    let fixture =
        std::fs::read_to_string(RUNTIME_PATHS).expect("run with REGEN_GOLDEN=1 to create");
    assert!(
        paths.dump == fixture,
        "a runtime path drifted from tests/fixtures/runtime_paths_golden.txt:\n{}",
        first_difference(&paths.dump, &fixture)
    );
}

/// The first line on which the two dumps part.
fn first_difference(dump: &str, fixture: &str) -> String {
    for (got, want) in dump.lines().zip(fixture.lines()) {
        if got != want {
            return format!("  got:     {got}\n  fixture: {want}");
        }
    }
    format!("line counts differ: {} against {}", dump.lines().count(), fixture.lines().count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every seeded chaos rollout's log round-trips, whatever mix of
    /// events the fault schedule produced.
    #[test]
    fn chaos_logs_round_trip(seed in 0u64..1_000) {
        let (tdg, net, eps, plan) = two_program_deploy();
        let mut rt = DeploymentRuntime::new(
            net,
            eps,
            FaultInjector::new(seed, FaultProfile::chaos()),
            RetryPolicy::default(),
        )
        .with_channel_profile(ChannelProfile::lossy());
        rt.rollout(&tdg, plan);
        assert_round_trips(rt.log(), &format!("chaos seed {seed}"));
    }
}
