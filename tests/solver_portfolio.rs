//! Property suite for the unified solver architecture: on random small
//! TDGs and topologies every [`DeploymentAlgorithm`]'s plan verifies, objectives obey
//! `exact <= portfolio <= greedy`, the portfolio's output is
//! byte-identical across repeated runs with the same seed and budget, and
//! the pipeline answers what the thread race it replaced answered.

use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize, IlpBaseline, Sonata};
use hermes::core::test_support::{chain_tdg, tiny_switches};
use hermes::core::ProgramAnalyzer;
use hermes::core::{
    verify, DeployError, DeploymentAlgorithm, Epsilon, GreedyHeuristic, MilpHermes, OptimalSolver,
    Portfolio, SearchContext,
};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::{topology, Network};
use hermes::tdg::Tdg;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// A random single-program chain (2–5 dependency edges, 1–12 B each) on a
/// linear network sized so every placement problem stays tiny but feasible.
fn random_chain_instance(seed: u64) -> (Tdg, Network) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = rng.random_range(2..=5usize);
    let bytes: Vec<u32> = (0..edges).map(|_| rng.random_range(1..=12u32)).collect();
    let switches = rng.random_range(2..=3usize);
    // `switches * stages` slots for `edges + 1` half-capacity MATs.
    let stages = edges / switches + 2;
    (chain_tdg(&bytes, 0.5), tiny_switches(switches, stages, 0.5))
}

/// A random multi-program synthetic TDG on a three-switch linear network
/// with deep pipelines (feasibility is all but guaranteed).
fn random_synthetic_instance(seed: u64, programs: usize) -> (Tdg, Network) {
    let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
    let tdg = ProgramAnalyzer::new().analyze(&generator.programs(programs));
    (tdg, tiny_switches(3, 12, 1.0))
}

/// Every registered [`DeploymentAlgorithm`], exercised through the one unified entry
/// point (no solver-private budget knobs anywhere).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever a solver returns must be a verified plan whose recorded
    /// objective matches the plan's recomputed `A_max`. Budgets are tight:
    /// this property needs feasible incumbents, not optimality proofs.
    #[test]
    fn every_solver_plan_verifies(seed in 0u64..1_000, programs in 1usize..3) {
        let (tdg, net) = random_synthetic_instance(seed, programs);
        let eps = Epsilon::loose();
        for solver in all_solvers() {
            let ctx = SearchContext::with_time_limit(Duration::from_secs(1));
            if let Ok(outcome) = solver.solve(&tdg, &net, &eps, &ctx) {
                let violations = verify(&tdg, &net, &outcome.plan, &eps);
                prop_assert!(violations.is_empty(), "{}: {violations:?}", solver.name());
                prop_assert_eq!(outcome.objective, outcome.plan.max_inter_switch_bytes(&tdg));
            }
        }
    }

    /// The proven exact optimum lower-bounds the portfolio, which never
    /// loses to the greedy heuristic it contains.
    #[test]
    fn objectives_ordered_exact_portfolio_greedy(seed in 0u64..1_000) {
        let (tdg, net) = random_chain_instance(seed);
        let eps = Epsilon::loose();
        let exact = OptimalSolver::new()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(20)))
            .expect("chain instances are feasible by construction");
        prop_assert!(exact.proven_optimal, "tiny instance not proven");
        let portfolio = Portfolio::greedy_exact()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(20)))
            .expect("same instance");
        let greedy = GreedyHeuristic::new()
            .solve(&tdg, &net, &eps, &SearchContext::unbounded())
            .expect("same instance");
        prop_assert!(exact.objective <= portfolio.objective);
        prop_assert!(portfolio.objective <= greedy.objective);
    }

    /// Determinism: the objective, optimality flag and plan serialize to
    /// byte-identical JSON across repeated solves with the same seed and
    /// budget (node counts and wall times are exempt).
    #[test]
    fn portfolio_output_is_byte_identical_across_runs(seed in 0u64..1_000) {
        let (tdg, net) = random_chain_instance(seed);
        let eps = Epsilon::loose();
        let budget = Duration::from_secs(10);
        let fingerprint = || {
            let outcome = Portfolio::greedy_exact()
                .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(budget))
                .expect("chain instances are feasible by construction");
            serde_json::to_string(&(outcome.objective, outcome.proven_optimal, &outcome.plan))
                .expect("plans serialize")
        };
        let first = fingerprint();
        for _ in 0..2 {
            prop_assert_eq!(fingerprint(), first.clone());
        }
    }
}

/// What the portfolio answers on one instance, as one golden line: the
/// objective, the optimality flag and the plan's fingerprint, or the
/// certificate code of a proven-infeasible verdict.
fn golden_line(label: &str, tdg: &Tdg, net: &Network, eps: &Epsilon) -> String {
    let ctx = SearchContext::with_time_limit(Duration::from_secs(30));
    match Portfolio::greedy_exact().solve(tdg, net, eps, &ctx) {
        Ok(o) => format!(
            "{label} objective={} proven_optimal={} plan={:016x}\n",
            o.objective,
            o.proven_optimal,
            o.plan.fingerprint()
        ),
        Err(DeployError::ProvenInfeasible { certificate }) => {
            format!("{label} certificate={}\n", certificate.code())
        }
        Err(e) => format!("{label} error={e}\n"),
    }
}

/// The portfolio pipeline answers exactly what the thread race it replaced
/// answered. The fixture was written by `Portfolio::race` at the commit
/// before the race was deleted: every subset of at least four library
/// programs whose bitmask is a multiple of seven, on `linear:3` and
/// `fattree:4` (220 instances, all settled by a zero-byte greedy plan), the
/// whole library and forty random chains, and the two infeasible cases and
/// the floor case of `tests/audit_soundness.rs`. `REGEN_GOLDEN=1` rewrites
/// it.
#[test]
fn pipeline_matches_the_race_it_replaced() {
    let library = library::real_programs();
    let topologies =
        [("linear:3", topology::linear(3, 10.0)), ("fattree:4", topology::fat_tree(4, 10.0))];
    let mut dump = String::new();
    for mask in (0u32..1 << library.len()).filter(|m| m.count_ones() >= 4 && m % 7 == 0) {
        let programs: Vec<_> = library
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, p)| p.clone())
            .collect();
        let tdg = ProgramAnalyzer::new().analyze(&programs);
        for (spec, net) in &topologies {
            dump += &golden_line(&format!("mask={mask:#05x} {spec}"), &tdg, net, &Epsilon::loose());
        }
    }
    // Where the search has work to do: the whole library on the testbed
    // (the exact stage beats the seed) and forty random chains (ties, which
    // go to greedy, and strict wins).
    let (tdg, net) = (ProgramAnalyzer::new().analyze(&library), &topologies[0].1);
    dump += &golden_line("library linear:3", &tdg, net, &Epsilon::loose());
    for seed in 0..40 {
        let (tdg, net) = random_chain_instance(seed);
        dump += &golden_line(&format!("chain seed={seed}"), &tdg, &net, &Epsilon::loose());
    }
    for (label, tdg, net, eps) in [
        (
            "eps2-floor",
            chain_tdg(&[1, 1, 1], 0.5),
            tiny_switches(3, 2, 0.5),
            Epsilon::new(f64::INFINITY, 1),
        ),
        ("capacity", chain_tdg(&[1, 1], 0.8), tiny_switches(2, 2, 0.5), Epsilon::loose()),
        ("amax-floor", chain_tdg(&[9], 0.7), tiny_switches(2, 2, 0.5), Epsilon::loose()),
    ] {
        dump += &golden_line(label, &tdg, &net, &eps);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/portfolio_pipeline_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &dump).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    assert_eq!(
        dump, fixture,
        "the portfolio's answers drifted from tests/fixtures/portfolio_pipeline_golden.txt"
    );
}
