//! Heterogeneous-target equivalence and mixed-topology smoke suite.
//!
//! Two guarantees, per the target-model refactor contract:
//!
//! 1. **Byte identity on defaults.** Explicitly retargeting every switch
//!    with the pipeline [`TargetModel`] carrying its own numbers changes
//!    nothing: every solver's plan, its JSON serialization, its verify
//!    verdicts, and the precheck certificates are byte-identical to the
//!    untouched default network. The pre-refactor scalar path *is* the
//!    default target, so this pins the refactor to the old behavior.
//! 2. **Mixed topologies are first-class.** On a Tofino+SmartNIC+software
//!    mix, all seven solvers plus the portfolio return verified plans,
//!    deterministically, and the migration scheduler stages a drain.

use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize, IlpBaseline, Sonata};
use hermes::core::test_support::{chain_tdg, tiny_switches};
use hermes::core::{
    verify, DeploymentAlgorithm, Epsilon, GreedyHeuristic, IncrementalDeployer, MigrationOrder,
    MigrationProblem, MigrationScheduler, MilpHermes, OptimalSolver, Portfolio, Precheck,
    RedeployOptions, SearchContext,
};
use hermes::net::{parse_target, topology, Network, TargetKind, TargetModel};
use hermes::tdg::Tdg;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

fn all_solvers() -> Vec<Box<dyn DeploymentAlgorithm>> {
    vec![
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::new()),
        Box::new(MilpHermes::default()),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
        Box::new(IlpBaseline::min_stage()),
        Box::new(Sonata),
    ]
}

fn ctx() -> SearchContext {
    SearchContext::with_time_limit(Duration::from_secs(2))
}

/// A random chain workload on a tight linear network, the same family the
/// solver-portfolio suite uses.
fn random_instance(seed: u64) -> (Tdg, Network) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = rng.random_range(2..=5usize);
    let bytes: Vec<u32> = (0..edges).map(|_| rng.random_range(1..=12u32)).collect();
    let switches = rng.random_range(2..=3usize);
    let stages = edges / switches + 2;
    (chain_tdg(&bytes, 0.5), tiny_switches(switches, stages, 0.5))
}

/// `net`, with every switch re-stamped through the explicit pipeline
/// [`TargetModel`] built from that switch's own numbers. A faithful
/// refactor makes this a no-op.
fn explicitly_retargeted(net: &Network) -> Network {
    let mut out = net.clone();
    for id in out.switch_ids().collect::<Vec<_>>() {
        let (stages, cap) = {
            let s = out.switch(id);
            (s.stages, s.stage_capacity)
        };
        TargetModel::pipeline(stages, cap).apply_to(out.switch_mut(id));
    }
    out
}

/// Three programmable switches in a line: a Tofino, a SmartNIC (4 deep
/// stages, 6.0-unit budget), and a software switch (unbounded stages,
/// 64-unit budget, 20x latency).
fn mixed_network() -> Network {
    let mut net = topology::linear(3, 10.0);
    parse_target("mix:tofino+smartnic+soft").expect("builtin mix").apply(&mut net);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Explicitly stamping the default pipeline target onto every switch
    /// leaves every solver's plan, serialization, and verdicts
    /// byte-identical — the unit-Tofino model *is* the pre-refactor path.
    #[test]
    fn unit_pipeline_target_is_byte_identical_to_defaults(seed in 0u64..1_000) {
        let (tdg, net) = random_instance(seed);
        let retargeted = explicitly_retargeted(&net);
        prop_assert_eq!(
            serde_json::to_string(&net).unwrap(),
            serde_json::to_string(&retargeted).unwrap(),
            "explicit pipeline targets must not change the wire form"
        );
        let eps = Epsilon::loose();
        for solver in all_solvers() {
            let a = solver.solve(&tdg, &net, &eps, &ctx());
            let b = solver.solve(&tdg, &retargeted, &eps, &ctx());
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        serde_json::to_string(&a.plan).unwrap(),
                        serde_json::to_string(&b.plan).unwrap(),
                        "{} diverged on retargeted defaults", solver.name()
                    );
                    prop_assert_eq!(a.objective, b.objective);
                    let va = verify(&tdg, &net, &a.plan, &eps);
                    let vb = verify(&tdg, &retargeted, &b.plan, &eps);
                    prop_assert_eq!(format!("{va:?}"), format!("{vb:?}"));
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "{}: {a:?} vs {b:?}", solver.name()),
            }
        }
    }

    /// Precheck certificates are identical too, including on infeasible
    /// instances (oversized MATs against shrunken switches).
    #[test]
    fn precheck_certificates_match_on_defaults(seed in 0u64..1_000, cap_tenths in 2u32..12) {
        let (tdg, mut net) = random_instance(seed);
        let cap = f64::from(cap_tenths) / 10.0;
        for id in net.switch_ids().collect::<Vec<_>>() {
            net.switch_mut(id).stage_capacity = cap;
        }
        let retargeted = explicitly_retargeted(&net);
        let eps = Epsilon::loose();
        let a = Precheck::run(&tdg, &net, &eps);
        let b = Precheck::run(&tdg, &retargeted, &eps);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// The built-in target specs `results/targets.md` compares.
const TARGET_SPECS: [&str; 4] = ["tofino", "smartnic", "soft", "mix:tofino+smartnic+soft"];

#[test]
fn all_solvers_accept_a_mixed_target_topology() {
    let tdg = chain_tdg(&[6, 3, 8, 2], 0.5);
    let eps = Epsilon::loose();
    // The mix, which every solver must accept, and each of its targets
    // alone on the same three switches, where a solver may refuse (the
    // dense-tableau MILP does on `smartnic`) but not waver.
    for spec in TARGET_SPECS {
        let mut net = topology::linear(3, 10.0);
        parse_target(spec).expect("builtin spec").apply(&mut net);
        for solver in all_solvers() {
            let plan_json = || {
                solver.solve(&tdg, &net, &eps, &ctx()).map_err(|e| e.to_string()).map(|outcome| {
                    let violations = verify(&tdg, &net, &outcome.plan, &eps);
                    assert!(violations.is_empty(), "{} on `{spec}`: {violations:?}", solver.name());
                    serde_json::to_string(&outcome.plan).unwrap()
                })
            };
            let first = plan_json();
            assert!(
                first.is_ok() || !spec.starts_with("mix:"),
                "{} refused the mixed topology: {first:?}",
                solver.name()
            );
            // Determinism: the same solve twice is byte-identical.
            assert_eq!(first, plan_json(), "{} is nondeterministic on `{spec}`", solver.name());
        }
    }
}

#[test]
fn portfolio_wins_verified_on_a_mixed_target_topology() {
    let net = mixed_network();
    let tdg = chain_tdg(&[6, 3, 8, 2], 0.5);
    let eps = Epsilon::loose();
    let outcome = Portfolio::greedy_exact().solve(&tdg, &net, &eps, &ctx()).expect("portfolio");
    assert!(verify(&tdg, &net, &outcome.plan, &eps).is_empty());
    let again = Portfolio::greedy_exact().solve(&tdg, &net, &eps, &ctx()).expect("portfolio");
    assert_eq!(
        serde_json::to_string(&outcome.plan).unwrap(),
        serde_json::to_string(&again.plan).unwrap()
    );
}

#[test]
fn smartnic_budget_binds_during_planning() {
    // An eight-MAT unit chain on two 4-stage SmartNICs is stage-feasible
    // (four chain links per pipeline), but 3.0-unit budgets only admit
    // three MATs per switch — the budget, not the pipeline, must refuse.
    let mut net = topology::linear(2, 10.0);
    parse_target("smartnic:budget=3").expect("knob").apply(&mut net);
    let tdg = chain_tdg(&[4; 7], 1.0); // 8 MATs x 1.0 units
    let eps = Epsilon::loose();
    assert!(
        GreedyHeuristic::new().deploy(&tdg, &net, &eps).is_err(),
        "8 units must not fit two 3.0-unit budgets"
    );
    // The stock SmartNIC budget (6.0 units per switch) accepts it.
    parse_target("smartnic").expect("builtin").apply(&mut net);
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("stock budgets fit");
    assert!(verify(&tdg, &net, &plan, &eps).is_empty());
}

#[test]
fn mixed_target_topology_matches_the_golden_serde_fixture() {
    let net = mixed_network();
    let json = format!("{}\n", serde_json::to_string_pretty(&net).expect("networks serialize"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/targets_golden.json");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    assert_eq!(
        json, fixture,
        "mixed-target wire form drifted from tests/fixtures/targets_golden.json; \
         re-generate with REGEN_GOLDEN=1 if the change is intentional"
    );
    let back: Network = serde_json::from_str(&fixture).expect("fixture deserializes");
    assert_eq!(net, back, "round trip must preserve target kind and budget");
}

#[test]
fn migration_drains_a_switch_on_a_mixed_topology() {
    let net = mixed_network();
    assert_eq!(net.switch(net.switch_ids().nth(1).unwrap()).target, TargetKind::SmartNic);
    let tdg = chain_tdg(&[6, 2, 9, 3, 5, 4], 0.4);
    let eps = Epsilon::loose();
    let plan_a = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("plan A");
    let drained = *plan_a.occupied_switches().last().expect("non-empty plan");
    let plan_b = IncrementalDeployer::new()
        .redeploy_with(&tdg, &plan_a, &tdg, &net, &eps, &RedeployOptions::excluding([drained]))
        .expect("drain is feasible on the mix")
        .plan;
    let problem = MigrationProblem { tdg: &tdg, net: &net, from: &plan_a, to: &plan_b };
    let schedule = MigrationScheduler::new().plan(&problem, &ctx()).expect("schedulable");
    let again = MigrationScheduler::with_order(MigrationOrder::Auto)
        .plan(&problem, &ctx())
        .expect("schedulable");
    assert_eq!(schedule, again, "mixed-topology schedules must be deterministic");
    assert!(verify(&tdg, &net, &plan_b, &eps).is_empty());
}
