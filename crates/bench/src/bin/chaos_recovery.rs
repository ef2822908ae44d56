//! Chaos recovery experiment: recovery latency and healed overhead.
//!
//! Rolls the real-program workload out through the failure-aware runtime
//! under the chaos fault profile, across a sweep of seeds on two
//! topologies, and reports per topology: how many runs committed cleanly,
//! committed after healing, or rolled back; the mean/max virtual recovery
//! latency of healed runs; and `A_max` before vs. after healing (healing
//! re-homes lost MATs into residual capacity, so the healed layout may pay
//! more per-packet overhead than the optimizer's original placement).

use hermes_bench::analyze;
use hermes_bench::report::{maybe_json, Table};
use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic};
use hermes_dataplane::library;
use hermes_net::topology;
use hermes_runtime::{
    DeploymentRuntime, Event, FaultInjector, FaultProfile, RetryPolicy, RolloutOutcome,
};
use serde::Serialize;

const SEEDS: u64 = 60;

#[derive(Serialize)]
struct TopologyReport {
    topology: String,
    runs: u64,
    committed_clean: u64,
    committed_healed: u64,
    rolled_back: u64,
    total_faults: u64,
    total_retries: u64,
    mean_recovery_us: f64,
    max_recovery_us: u64,
    mean_a_max_before: f64,
    mean_a_max_after: f64,
}

fn sweep(name: &str, net: &hermes_net::Network) -> TopologyReport {
    let tdg = analyze(&library::real_programs());
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new()
        .deploy(&tdg, net, &eps)
        .expect("workload deploys on the healthy topology");

    let mut report = TopologyReport {
        topology: name.to_string(),
        runs: SEEDS,
        committed_clean: 0,
        committed_healed: 0,
        rolled_back: 0,
        total_faults: 0,
        total_retries: 0,
        mean_recovery_us: 0.0,
        max_recovery_us: 0,
        mean_a_max_before: 0.0,
        mean_a_max_after: 0.0,
    };
    let mut recoveries: Vec<u64> = Vec::new();
    let mut before: Vec<u64> = Vec::new();
    let mut after: Vec<u64> = Vec::new();

    for seed in 0..SEEDS {
        let injector = FaultInjector::new(seed, FaultProfile::chaos());
        let mut rt = DeploymentRuntime::new(net.clone(), eps, injector, RetryPolicy::default());
        let outcome = rt.rollout(&tdg, plan.clone());
        let log = rt.log();
        report.total_faults += log.count(|e| matches!(e, Event::FaultInjected { .. })) as u64;
        report.total_retries += log.count(|e| matches!(e, Event::RetryScheduled { .. })) as u64;
        match outcome {
            RolloutOutcome::Committed { healed: false, .. } => report.committed_clean += 1,
            RolloutOutcome::Committed { healed: true, .. } => {
                report.committed_healed += 1;
                for e in &log.events {
                    if let Event::RecoveryCompleted {
                        recovery_us, a_max_before, a_max_after, ..
                    } = e
                    {
                        recoveries.push(*recovery_us);
                        before.push(*a_max_before);
                        after.push(*a_max_after);
                    }
                }
            }
            RolloutOutcome::RolledBack { .. } => report.rolled_back += 1,
            RolloutOutcome::ControllerCrashed { .. } => {
                unreachable!("FaultProfile::chaos() never injects a controller crash")
            }
        }
    }

    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    report.mean_recovery_us = mean(&recoveries);
    report.max_recovery_us = recoveries.iter().copied().max().unwrap_or(0);
    report.mean_a_max_before = mean(&before);
    report.mean_a_max_after = mean(&after);
    report
}

fn main() {
    let reports = vec![
        sweep("linear:4", &topology::linear(4, 10.0)),
        sweep("fattree:4", &topology::fat_tree(4, 10.0)),
    ];

    if maybe_json(&reports) {
        return;
    }

    let mut table = Table::new([
        "topology",
        "runs",
        "clean",
        "healed",
        "rolled back",
        "faults",
        "retries",
        "mean rec (us)",
        "max rec (us)",
        "A_max pre",
        "A_max post",
    ]);
    for r in &reports {
        table.row([
            r.topology.clone(),
            r.runs.to_string(),
            r.committed_clean.to_string(),
            r.committed_healed.to_string(),
            r.rolled_back.to_string(),
            r.total_faults.to_string(),
            r.total_retries.to_string(),
            format!("{:.0}", r.mean_recovery_us),
            r.max_recovery_us.to_string(),
            format!("{:.1}", r.mean_a_max_before),
            format!("{:.1}", r.mean_a_max_after),
        ]);
    }
    println!("Chaos recovery: {SEEDS} seeded fault schedules per topology\n");
    print!("{}", table.markdown());
}
