//! The ε-constraint method (Eq. 4–5) across algorithms: bounds are either
//! honoured by the produced plan or reported as infeasible — never
//! silently violated.

use hermes::core::{verify, DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
use hermes::dataplane::library;
use hermes::net::topology;

fn workload() -> hermes::tdg::Tdg {
    ProgramAnalyzer::new().analyze(&library::real_programs())
}

#[test]
fn eps2_sweep_monotone_feasibility() {
    let tdg = workload();
    let net = topology::linear(5, 10.0);
    // Once feasible at some eps2, it stays feasible for larger eps2.
    let mut first_feasible = None;
    for eps2 in 1..=5usize {
        let eps = Epsilon::new(f64::INFINITY, eps2);
        match GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
            Ok(plan) => {
                assert!(plan.occupied_switch_count() <= eps2);
                assert!(verify(&tdg, &net, &plan, &eps).is_empty());
                first_feasible.get_or_insert(eps2);
            }
            Err(_) => {
                assert!(first_feasible.is_none(), "feasibility must be monotone in eps2");
            }
        }
    }
    assert!(first_feasible.is_some(), "five switches must suffice");
}

#[test]
fn eps1_zero_forces_single_switch_or_infeasible() {
    let tdg = workload();
    let net = topology::linear(5, 10.0);
    // With zero latency budget, any plan must avoid coordination entirely.
    let eps = Epsilon::new(0.0, usize::MAX);
    // An error is equally acceptable: the workload may need > 1 switch.
    if let Ok(plan) = GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
        assert_eq!(plan.routes().len(), 0);
        assert_eq!(plan.occupied_switch_count(), 1);
    }
}

#[test]
fn loose_bounds_never_fail_on_sufficient_hardware() {
    let tdg = workload();
    for switches in [3usize, 4, 8] {
        let net = topology::linear(switches, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert!(verify(&tdg, &net, &plan, &Epsilon::loose()).is_empty());
    }
}

#[test]
fn verifier_flags_epsilon_violations_post_hoc() {
    let tdg = workload();
    let net = topology::linear(3, 10.0);
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
    let occupied = plan.occupied_switch_count();
    if occupied > 1 {
        let tight = Epsilon::new(f64::INFINITY, occupied - 1);
        assert!(!verify(&tdg, &net, &plan, &tight).is_empty());
    }
}

/// ε₂ = 0 leaves no switch to occupy: every solver refuses a non-empty
/// workload itself — here one that fits a single switch, so the bound is
/// the only possible reason — and none hands the verifier a plan to catch.
#[test]
fn eps2_zero_is_refused_by_every_solver() {
    use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize};
    use hermes::core::{DeployError, OptimalSolver, Portfolio};
    let tdg = ProgramAnalyzer::new().analyze(&[library::l3_router()]);
    let net = topology::linear(3, 10.0);
    let one = Epsilon::new(f64::INFINITY, 1);
    assert!(GreedyHeuristic::new().deploy(&tdg, &net, &one).is_ok(), "one switch suffices");
    let solvers: [Box<dyn DeploymentAlgorithm>; 5] = [
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::new()),
        Box::new(Portfolio::greedy_exact()),
        Box::new(FirstFitByLevel),
        Box::new(FirstFitByLevelAndSize),
    ];
    for solver in solvers {
        match solver.deploy(&tdg, &net, &Epsilon::new(f64::INFINITY, 0)) {
            Ok(plan) => panic!("{} placed {plan} under eps2 = 0", solver.name()),
            Err(DeployError::NoFeasiblePlacement { .. } | DeployError::ProvenInfeasible { .. }) => {
            }
            Err(e) => panic!("{}: {e}", solver.name()),
        }
    }
}
