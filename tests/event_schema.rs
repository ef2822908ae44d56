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

use hermes::core::test_support::chain_tdg;
use hermes::core::{
    fnv1a64, DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer,
    ProgramAnalyzer, RedeployOptions,
};
use hermes::dataplane::library;
use hermes::net::{topology, Network};
use hermes::runtime::{
    ChannelProfile, CrashTiming, DeploymentRuntime, Event, EventLog, FaultInjector, FaultProfile,
    MigrationConfig, RetryPolicy, EVENT_SCHEMA_VERSION, JOURNAL_FORMAT_VERSION,
};
use hermes::tdg::Tdg;
use proptest::prelude::*;

/// The first two library programs on linear:3 with their greedy plan.
fn two_program_deploy() -> (Tdg, Network, Epsilon, DeploymentPlan) {
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("deploys");
    (tdg, net, eps, plan)
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
    let n = plan.occupied_switch_count() as u64;
    rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
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
    let n = plan.occupied_switch_count() as u64;
    rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
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
