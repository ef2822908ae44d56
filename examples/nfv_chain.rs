//! NFV offload with service-level bounds: the ε-constraint method live.
//!
//! A chain of network functions — stateful firewall, NAT, load balancer —
//! is offloaded onto a WAN where only half the switches are programmable.
//! Administrators bound the coordination latency (ε₁) and the number of
//! occupied switches (ε₂); Hermes optimizes the byte overhead within those
//! bounds, and the exact solver certifies how close the heuristic lands.
//!
//! Run with: `cargo run --example nfv_chain`

use hermes::core::{
    verify, DeploymentAlgorithm, Epsilon, GreedyHeuristic, OptimalSolver, ProgramAnalyzer,
    SearchContext,
};
use hermes::dataplane::library;
use hermes::net::topology::{random_wan, WanConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let programs = vec![
        library::acl(),
        library::stateful_firewall(),
        library::nat(),
        library::tunnel(),
        library::ecmp_lb(),
    ];
    let tdg = ProgramAnalyzer::new().analyze(&programs);
    println!(
        "NF chain: ACL -> firewall -> NAT -> tunnel -> LB = {} MATs, {} dependencies",
        tdg.node_count(),
        tdg.edge_count()
    );

    let net = random_wan(40, 60, 7, &WanConfig::default());
    println!("substrate: {net}");

    // Sweep ε₂ (occupied switches) under a generous latency bound and
    // watch the overhead/footprint trade-off.
    println!("\n{:>4} {:>14} {:>10} {:>14}", "eps2", "overhead (B)", "switches", "latency (ms)");
    for eps2 in [1usize, 2, 3, 8] {
        let eps = Epsilon::new(1_000_000.0, eps2);
        match GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
            Ok(plan) => {
                assert!(verify(&tdg, &net, &plan, &eps).is_empty());
                println!(
                    "{eps2:>4} {:>14} {:>10} {:>14.1}",
                    plan.max_inter_switch_bytes(&tdg),
                    plan.occupied_switch_count(),
                    plan.end_to_end_latency_us().max(0.0) / 1000.0
                );
            }
            Err(e) => println!("{eps2:>4} infeasible: {e}"),
        }
    }

    // Certify the loose-bound result against the exact solver.
    let eps = Epsilon::loose();
    let heuristic = GreedyHeuristic::new().deploy(&tdg, &net, &eps)?;
    let ctx = SearchContext::with_time_limit(Duration::from_secs(10));
    let optimal = OptimalSolver::new().solve(&tdg, &net, &eps, &ctx)?;
    println!(
        "\nloose bounds: heuristic A_max = {} B, optimal A_max = {} B ({})",
        heuristic.max_inter_switch_bytes(&tdg),
        optimal.objective,
        if optimal.proven_optimal { "proven" } else { "time-limited incumbent" }
    );
    Ok(())
}
