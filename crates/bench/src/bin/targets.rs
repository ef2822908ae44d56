//! Heterogeneous-target bench: the cost/performance frontier per target mix.
//!
//! Applies each built-in target spec (`tofino`, `smartnic`, `soft`, and the
//! three-way mix) to the linear testbed and, per workload size, measures
//! every frontier solver's wall time, `A_max`, and feasibility. The result
//! is the per-target frontier the ISSUE asks for: what retargeting the
//! same topology does to solve time and coordination overhead.
//!
//! Modes:
//! - default: text tables;
//! - `--json`: the same data as JSON (recorded as `results/BENCH_targets.json`).

use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, workload};
use hermes_core::{Epsilon, GreedyHeuristic, MilpHermes, OptimalSolver, SearchContext, Solver};
use hermes_net::{parse_target, topology, Network};
use serde::Serialize;
use std::time::Duration;

/// Per-solver budget; the instances are small enough that the exact
/// search proves optimality well inside it on hardware targets.
const BUDGET: Duration = Duration::from_secs(5);
/// Timing repetitions; wall times report the minimum.
const REPS: usize = 3;
/// The target specs under comparison, in report order.
const TARGET_SPECS: &[&str] = &["tofino", "smartnic", "soft", "mix:tofino+smartnic+soft"];
/// Library workload sizes per frontier point.
const WORKLOADS: &[usize] = &[4, 7, 10];

fn retargeted(spec: &str) -> Network {
    let mut net = topology::linear(3, 10.0);
    parse_target(spec).expect("specs above are valid").apply(&mut net);
    net
}

#[derive(Serialize)]
struct SolverPoint {
    solver: String,
    feasible: bool,
    /// `A_max` in bytes; `None` when the solver found no plan.
    objective: Option<u64>,
    proven_optimal: bool,
    wall_ms: f64,
}

#[derive(Serialize)]
struct FrontierPoint {
    programs: usize,
    tdg_nodes: usize,
    total_resource: f64,
    solvers: Vec<SolverPoint>,
}

#[derive(Serialize)]
struct TargetFrontier {
    target: String,
    /// Aggregate switch capacity under this targeting (budget-clamped).
    network_capacity: f64,
    points: Vec<FrontierPoint>,
    /// Fraction of (workload, solver) cells that produced a plan.
    feasibility_rate: f64,
}

#[derive(Serialize)]
struct Report {
    topology: String,
    budget_secs: u64,
    reps: usize,
    frontiers: Vec<TargetFrontier>,
}

fn solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::new()),
        Box::new(MilpHermes::default()),
    ]
}

fn frontier(spec: &str) -> TargetFrontier {
    let net = retargeted(spec);
    let eps = Epsilon::loose();
    let network_capacity: f64 =
        net.switch_ids().map(|s| net.switch(s).total_capacity()).sum::<f64>();
    let mut points = Vec::new();
    let (mut cells, mut feasible_cells) = (0usize, 0usize);
    for &programs in WORKLOADS {
        let tdg = analyze(&workload(programs));
        let stats = hermes_tdg::stats(&tdg);
        let mut rows = Vec::new();
        for solver in solvers() {
            let mut best: Option<hermes_core::SolveOutcome> = None;
            let mut wall = Duration::MAX;
            for _ in 0..REPS {
                match solver.solve(&tdg, &net, &eps, &SearchContext::with_time_limit(BUDGET)) {
                    Ok(outcome) => {
                        wall = wall.min(outcome.stats.wall);
                        best = Some(outcome);
                    }
                    Err(_) => break,
                }
            }
            cells += 1;
            feasible_cells += usize::from(best.is_some());
            rows.push(SolverPoint {
                solver: solver.name().to_owned(),
                feasible: best.is_some(),
                objective: best.as_ref().map(|o| o.objective),
                proven_optimal: best.as_ref().is_some_and(|o| o.proven_optimal),
                wall_ms: if wall == Duration::MAX { 0.0 } else { wall.as_secs_f64() * 1000.0 },
            });
        }
        points.push(FrontierPoint {
            programs,
            tdg_nodes: tdg.node_count(),
            total_resource: stats.total_resource,
            solvers: rows,
        });
    }
    TargetFrontier {
        target: spec.to_owned(),
        network_capacity,
        points,
        feasibility_rate: feasible_cells as f64 / cells.max(1) as f64,
    }
}

fn main() {
    let report = Report {
        topology: "linear-3".to_owned(),
        budget_secs: BUDGET.as_secs(),
        reps: REPS,
        frontiers: TARGET_SPECS.iter().map(|spec| frontier(spec)).collect(),
    };
    if maybe_json(&report) {
        return;
    }
    println!("Target frontier bench — linear-3 testbed, budget {BUDGET:?}, min of {REPS} reps\n");
    for f in &report.frontiers {
        println!(
            "target {} (network capacity {:.1} units, feasibility {:.0}%)",
            f.target,
            f.network_capacity,
            f.feasibility_rate * 100.0
        );
        let mut t = Table::new(["programs", "solver", "A_max (B)", "proven", "wall ms"]);
        for p in &f.points {
            for s in &p.solvers {
                t.row([
                    p.programs.to_string(),
                    s.solver.clone(),
                    s.objective.map_or("-".into(), |o| o.to_string()),
                    s.proven_optimal.to_string(),
                    format!("{:.2}", s.wall_ms),
                ]);
            }
        }
        println!("{}", t.markdown());
    }
}
