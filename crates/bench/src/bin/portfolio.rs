//! Portfolio bench: anytime behaviour of the unified solver stack.
//!
//! On the ten-program library, compares the *sequential* exact pipeline
//! (greedy seed, then branch-over-assignments — the pre-portfolio
//! `OptimalSolver`) against the greedy + exact [`Portfolio`] race on
//! time-to-proven-optimal, and isolates the effect of incumbent sharing by
//! re-running the bare exact search with and without a greedy-published
//! bound (`nodes_explored` with the bound must be strictly lower).
//!
//! Modes:
//! - default: text tables (objective-over-time of the race, speedup, pruning);
//! - `--json`: the same data as JSON (`results/BENCH_portfolio.json` is the
//!   historical record from when a four-racer preset was measured beside
//!   this one — the evidence it was removed on);
//! - `--smoke`: fixed-seed determinism probe for CI — races the 2-thread
//!   portfolio under a 2 s budget and prints only timing-independent fields
//!   (winner, objective, proof status, plan), so two runs must be
//!   byte-identical.

use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, workload};
use hermes_core::{Epsilon, GreedyHeuristic, OptimalSolver, Portfolio, SearchContext, Solver};
use hermes_net::{topology, Network};
use serde::Serialize;
use std::time::Duration;

/// Budget generous enough that every configuration proves optimality on
/// the library scenarios; the measurements are times-to-proof, not caps.
const BUDGET: Duration = Duration::from_secs(60);
/// Timing repetitions; wall times report the minimum (plans and node
/// counts of the deterministic configurations do not vary).
const REPS: usize = 3;

#[derive(Serialize)]
struct IncumbentPoint {
    /// Milliseconds into the race at which this racer returned.
    at_ms: f64,
    solver: String,
    objective: Option<u64>,
    proven_optimal: bool,
}

#[derive(Serialize)]
struct RaceResult {
    racers: Vec<String>,
    winner: String,
    objective: u64,
    proven_optimal: bool,
    /// Total race wall time, including thread spawn/join overhead.
    wall_ms: f64,
    /// Earliest moment a racer held a proven-optimal plan — the anytime
    /// time-to-proven-optimal (the rest of `wall_ms` is join overhead).
    time_to_proven_ms: Option<f64>,
    speedup_vs_sequential: f64,
    /// Per-racer completion events ordered by time: the race's
    /// objective-over-time trajectory.
    objective_over_time: Vec<IncumbentPoint>,
}

#[derive(Serialize)]
struct SequentialResult {
    wall_ms: f64,
    nodes_explored: u64,
    objective: u64,
    proven_optimal: bool,
}

#[derive(Serialize)]
struct PruningEvidence {
    /// Bare exact search, no bound published.
    nodes_unbounded: u64,
    /// Same search after the greedy heuristic published its incumbent.
    nodes_with_greedy_bound: u64,
    strictly_lower: bool,
}

#[derive(Serialize)]
struct Scenario {
    topology: String,
    tdg_nodes: usize,
    tdg_edges: usize,
    sequential_exact: SequentialResult,
    race: RaceResult,
    /// `None` when the optimum is zero (ablation would be vacuous).
    pruning: Option<PruningEvidence>,
}

#[derive(Serialize)]
struct Report {
    workload_programs: usize,
    budget_secs: u64,
    reps: usize,
    scenarios: Vec<Scenario>,
}

fn min_wall_ms(mut run: impl FnMut() -> Duration) -> f64 {
    (0..REPS).map(|_| run()).min().unwrap_or_default().as_secs_f64() * 1000.0
}

fn bench_scenario(name: &str, net: &Network) -> Scenario {
    let tdg = analyze(&workload(10));
    let eps = Epsilon::loose();

    // Sequential exact: greedy seed then exhaustive search, one thread.
    let sequential = OptimalSolver::new()
        .solve(&tdg, net, &eps, &SearchContext::with_time_limit(BUDGET))
        .expect("library workload is feasible");
    let seq_wall_ms = min_wall_ms(|| {
        OptimalSolver::new()
            .solve(&tdg, net, &eps, &SearchContext::with_time_limit(BUDGET))
            .expect("library workload is feasible")
            .stats
            .wall
    });

    // Incumbent-sharing ablation: the identical bare search with and
    // without a pre-published greedy bound. Skipped when the optimum is
    // zero — there a published bound of 0 prunes the whole tree trivially
    // while the unbounded run enumerates millions of nodes for nothing.
    let pruning = (sequential.objective > 0).then(|| {
        let nodes_unbounded = OptimalSolver::bare()
            .solve(&tdg, net, &eps, &SearchContext::with_time_limit(BUDGET))
            .expect("library workload is feasible")
            .stats
            .nodes_explored;
        let seeded_ctx = SearchContext::with_time_limit(BUDGET);
        GreedyHeuristic::new()
            .solve(&tdg, net, &eps, &seeded_ctx)
            .expect("library workload is feasible");
        let nodes_with_greedy_bound = OptimalSolver::bare()
            .solve(&tdg, net, &eps, &seeded_ctx)
            .map(|o| o.stats.nodes_explored)
            .unwrap_or(0); // the bound itself can already be optimal
        PruningEvidence {
            nodes_unbounded,
            nodes_with_greedy_bound,
            strictly_lower: nodes_with_greedy_bound < nodes_unbounded,
        }
    });

    let portfolio = Portfolio::greedy_exact();
    let mut best: Option<hermes_core::RaceReport> = None;
    let mut best_proven: Option<Duration> = None;
    for _ in 0..REPS {
        let race = portfolio
            .race(&tdg, net, &eps, &SearchContext::with_time_limit(BUDGET))
            .expect("library workload is feasible");
        let proven = race.reports.iter().filter(|r| r.proven_optimal).map(|r| r.wall).min();
        best_proven = match (best_proven, proven) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if best.as_ref().is_none_or(|b| race.wall < b.wall) {
            best = Some(race);
        }
    }
    let race = best.expect("REPS >= 1");
    let mut trajectory: Vec<IncumbentPoint> = race
        .reports
        .iter()
        .map(|r| IncumbentPoint {
            at_ms: r.wall.as_secs_f64() * 1000.0,
            solver: r.name.clone(),
            objective: r.objective,
            proven_optimal: r.proven_optimal,
        })
        .collect();
    trajectory.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    let wall_ms = race.wall.as_secs_f64() * 1000.0;
    let race = RaceResult {
        racers: portfolio.racer_names().iter().map(|s| (*s).to_owned()).collect(),
        winner: race.reports[race.winner].name.clone(),
        objective: race.outcome.objective,
        proven_optimal: race.outcome.proven_optimal,
        wall_ms,
        time_to_proven_ms: best_proven.map(|d| d.as_secs_f64() * 1000.0),
        speedup_vs_sequential: seq_wall_ms
            / best_proven.map_or(wall_ms, |d| d.as_secs_f64() * 1000.0).max(f64::EPSILON),
        objective_over_time: trajectory,
    };

    Scenario {
        topology: name.to_owned(),
        tdg_nodes: tdg.node_count(),
        tdg_edges: tdg.edge_count(),
        sequential_exact: SequentialResult {
            wall_ms: seq_wall_ms,
            nodes_explored: sequential.stats.nodes_explored,
            objective: sequential.objective,
            proven_optimal: sequential.proven_optimal,
        },
        race,
        pruning,
    }
}

/// Fixed-seed CI probe: prints only timing-independent race output.
fn smoke() {
    let tdg = analyze(&workload(10));
    let net = topology::linear(3, 10.0);
    let race = Portfolio::greedy_exact()
        .race(
            &tdg,
            &net,
            &Epsilon::loose(),
            &SearchContext::with_time_limit(Duration::from_secs(2)),
        )
        .expect("library workload is feasible");
    #[derive(Serialize)]
    struct Smoke {
        winner: String,
        objective: u64,
        proven_optimal: bool,
        plan: hermes_core::DeploymentPlan,
    }
    let out = Smoke {
        winner: race.reports[race.winner].name.clone(),
        objective: race.outcome.objective,
        proven_optimal: race.outcome.proven_optimal,
        plan: race.outcome.plan,
    };
    println!("{}", serde_json::to_string(&out).expect("plan serializes"));
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let scenarios: Vec<Scenario> = [
        ("linear-3", topology::linear(3, 10.0)),
        ("linear-4", topology::linear(4, 10.0)),
        ("star-3", topology::star(3, 10.0)),
    ]
    .iter()
    .map(|(name, net)| bench_scenario(name, net))
    .collect();
    let report =
        Report { workload_programs: 10, budget_secs: BUDGET.as_secs(), reps: REPS, scenarios };
    if maybe_json(&report) {
        return;
    }

    println!("Portfolio bench — ten-program library, budget {BUDGET:?}, min of {REPS} reps\n");
    let mut t = Table::new([
        "topology",
        "sequential ms",
        "race proven ms",
        "speedup",
        "objective",
        "proven",
    ]);
    for s in &report.scenarios {
        t.row([
            s.topology.clone(),
            format!("{:.2}", s.sequential_exact.wall_ms),
            s.race.time_to_proven_ms.map_or("-".into(), |ms| format!("{ms:.2}")),
            format!("{:.2}x", s.race.speedup_vs_sequential),
            s.race.objective.to_string(),
            (s.sequential_exact.proven_optimal && s.race.proven_optimal).to_string(),
        ]);
    }
    println!("(a) time-to-proven-optimal\n{}", t.render());

    let mut p = Table::new(["topology", "nodes bare", "nodes w/ greedy bound", "strictly lower"]);
    for s in &report.scenarios {
        match &s.pruning {
            Some(pr) => p.row([
                s.topology.clone(),
                pr.nodes_unbounded.to_string(),
                pr.nodes_with_greedy_bound.to_string(),
                pr.strictly_lower.to_string(),
            ]),
            None => p.row([s.topology.clone(), "-".into(), "-".into(), "- (optimum is 0)".into()]),
        }
    }
    println!("(b) incumbent-sharing ablation (exact-search nodes explored)\n{}", p.render());

    println!("(c) objective over time of the race");
    for s in &report.scenarios {
        println!("  {}:", s.topology);
        for point in &s.race.objective_over_time {
            println!(
                "    t={:>8.2} ms  {:<12} objective={:<6} {}",
                point.at_ms,
                point.solver,
                point.objective.map_or("-".into(), |o| o.to_string()),
                if point.proven_optimal { "(proven)" } else { "" }
            );
        }
    }

    // Headline on the paper's testbed (the first scenario) — the only one
    // where the exact search does real work; the trivial scenarios solve in
    // ~0.1 ms sequentially, below thread-spawn cost.
    let testbed = &report.scenarios[0];
    let race = &testbed.race;
    let ok = race.objective == testbed.sequential_exact.objective
        && race.time_to_proven_ms.is_some_and(|ms| ms <= testbed.sequential_exact.wall_ms);
    println!(
        "\nheadline ({}): the portfolio race proves the exact objective {} ({} vs {:.2} ms sequential)",
        testbed.topology,
        if ok { "at least as fast as sequential exact" } else { "SLOWER than sequential exact" },
        race.time_to_proven_ms.map_or("-".into(), |ms| format!("{ms:.2} ms")),
        testbed.sequential_exact.wall_ms,
    );
}
