//! End-to-end pipeline tests spanning every crate: programs → analyzer →
//! deployment algorithms → verifier → simulator.

use hermes::baselines::standard_suite;
use hermes::core::{
    verify, DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer, SearchContext,
};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::topology;
use hermes::sim::testbed::{normalized_impact, TestbedConfig};
use std::time::Duration;

fn testbed_workload() -> hermes::tdg::Tdg {
    ProgramAnalyzer::new().analyze(&library::real_programs())
}

#[test]
fn every_algorithm_produces_verified_plans_on_the_testbed() {
    let tdg = testbed_workload();
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    for algo in standard_suite() {
        let ctx = SearchContext::with_time_limit(Duration::from_secs(1));
        let plan = algo
            .solve(&tdg, &net, &eps, &ctx)
            .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()))
            .plan;
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "{}: {violations:?}", algo.name());
    }
}

#[test]
fn hermes_dominates_overhead_oblivious_baselines() {
    let tdg = testbed_workload();
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let suite = standard_suite();
    let overhead = |name: &str| -> u64 {
        let ctx = SearchContext::with_time_limit(Duration::from_secs(1));
        let algo = suite.iter().find(|a| a.name() == name).unwrap();
        algo.solve(&tdg, &net, &eps, &ctx).unwrap().objective
    };
    let hermes = overhead("Hermes");
    for baseline in ["FFL", "FFLS", "MS", "Sonata"] {
        assert!(hermes <= overhead(baseline), "Hermes {hermes} vs {baseline}");
    }
    assert!(overhead("Optimal") <= hermes);
}

#[test]
fn wan_scale_deployment_works_for_all_topologies() {
    let mut generator = SyntheticGenerator::new(1, SyntheticConfig::default());
    let mut programs = library::real_programs();
    programs.extend(generator.programs(20));
    let tdg = ProgramAnalyzer::new().analyze(&programs);
    for i in 0..10 {
        let net = topology::table3_wan(i);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new()
            .deploy(&tdg, &net, &eps)
            .unwrap_or_else(|e| panic!("topology {i}: {e}"));
        let violations = verify(&tdg, &net, &plan, &eps);
        assert!(violations.is_empty(), "topology {i}: {violations:?}");
    }
}

#[test]
fn plan_overhead_feeds_the_simulator_sensibly() {
    let tdg = testbed_workload();
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
    let bytes = plan.max_inter_switch_bytes(&tdg) as u32;
    let sim = TestbedConfig { packets: 1_000, ..Default::default() };
    let perf = normalized_impact(&sim, 1024, bytes);
    assert!(perf.fct_ratio >= 1.0);
    assert!(perf.goodput_ratio <= 1.0);
    // A 200-byte overhead must hurt strictly more than the plan's.
    let worse = normalized_impact(&sim, 1024, bytes + 200);
    assert!(worse.fct_ratio > perf.fct_ratio);
}

#[test]
fn merging_reduces_and_never_inflates_resources() {
    let programs = library::real_programs();
    let standalone: f64 = programs.iter().map(|p| p.total_resource()).sum();
    let tdg = ProgramAnalyzer::new().analyze(&programs);
    assert!(tdg.total_resource() <= standalone + 1e-9);

    let net = topology::linear(3, 10.0);
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
    let deployed: f64 = plan.placements().iter().map(|p| p.fraction).sum();
    assert!(
        (deployed - tdg.total_resource()).abs() < 1e-6,
        "deployment must not add switch logic: {deployed} vs {}",
        tdg.total_resource()
    );
}
