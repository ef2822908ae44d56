//! End-to-end simulation of a concrete deployment.
//!
//! The bench harness evaluates plans on the abstract five-hop testbed of
//! §II-B. This module instead simulates the *actual* deployment: the flow
//! follows the plan's switch visit order, traverses every intermediate
//! switch of the installed coordination paths with the network's real
//! per-link latencies, and carries the piggyback load the emulator
//! derives for the plan (the paper's measurement: the maximum metadata
//! between any switch pair rides every packet).

use crate::config::DeploymentArtifacts;
use crate::emulator::{test_packet, CompiledPlan};
use hermes_core::DeploymentPlan;
use hermes_net::{shortest_path, Network, SwitchId};
use hermes_sim::{lone_flow, FlowStats};
use hermes_tdg::Tdg;

/// Flow parameters for a deployment simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFlowConfig {
    /// Packets in the flow.
    pub packets: u64,
    /// Application packet size in bytes (headers included, metadata not).
    pub packet_size: u32,
    /// Protocol header bytes within `packet_size`.
    pub header_bytes: u32,
    /// Line rate of every link, Gbit/s (the substrate model carries
    /// latencies but not rates; Tofino ports are 100 G).
    pub rate_gbps: f64,
}

impl Default for PlanFlowConfig {
    fn default() -> Self {
        PlanFlowConfig { packets: 5_000, packet_size: 1024, header_bytes: 54, rate_gbps: 100.0 }
    }
}

/// Result of simulating one flow through a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSimResult {
    /// Stats of the flow carrying the plan's metadata.
    pub loaded: FlowStats,
    /// Stats of the identical flow with zero metadata (baseline).
    pub baseline: FlowStats,
    /// Metadata bytes carried per packet (the emulator's max wire load).
    pub overhead_bytes: u32,
    /// Every switch the flow traverses, coordination path hops included.
    pub traversed: Vec<SwitchId>,
}

impl PlanSimResult {
    /// `FCT(loaded) / FCT(baseline)`.
    pub fn fct_ratio(&self) -> f64 {
        self.loaded.fct_us / self.baseline.fct_us
    }

    /// `goodput(loaded) / goodput(baseline)`.
    pub fn goodput_ratio(&self) -> f64 {
        self.loaded.goodput_gbps / self.baseline.goodput_gbps
    }
}

/// Simulates a flow through the deployment's coordination chain.
///
/// Returns `None` when the plan occupies no switch, its switch-level
/// dependencies are cyclic, or a coordination hop has no path (never the
/// case for verified plans on connected components).
pub fn simulate_plan(
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    config: &PlanFlowConfig,
) -> Option<PlanSimResult> {
    let compiled = CompiledPlan::compile(tdg, plan, artifacts)?;
    let order: Vec<SwitchId> = compiled.visit_order().collect();
    if order.is_empty() {
        return None;
    }
    // Expand the visit order into the physical switch sequence: installed
    // route hops where available, shortest paths otherwise.
    let mut traversed: Vec<SwitchId> = vec![order[0]];
    for w in order.windows(2) {
        let hops = match plan.route_between(w[0], w[1]) {
            Some(r) => r.path.hops.clone(),
            None => shortest_path(net, w[0], w[1])?.hops,
        };
        traversed.extend(hops.into_iter().skip(1));
    }

    // The realized per-packet metadata load (pass-through included).
    let overhead = compiled.run(test_packet(0)).max_wire_bytes();

    // host — traversed switches — host. Host links get a nominal 1 us;
    // switch-switch links use the substrate latency.
    let links: Vec<(f64, f64)> = std::iter::once(1.0)
        .chain(
            traversed
                .windows(2)
                .map(|w| net.link_between(w[0], w[1]).map_or(1.0, |l| l.latency_us)),
        )
        .chain(std::iter::once(1.0))
        .map(|delay| (config.rate_gbps, delay))
        .collect();
    let forwarding_us: f64 = traversed.iter().map(|&s| net.switch(s).latency_us).sum();
    let run = |overhead: u32| -> FlowStats {
        lone_flow(
            &links,
            forwarding_us,
            config.packets,
            config.packet_size + overhead,
            config.packet_size - config.header_bytes,
        )
    };

    Some(PlanSimResult {
        loaded: run(overhead),
        baseline: run(0),
        overhead_bytes: overhead,
        traversed,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::config::generate;
    use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn deployed() -> (Tdg, Network, DeploymentPlan, DeploymentArtifacts) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        (tdg, net, plan, art)
    }

    #[test]
    fn simulates_the_whole_coordination_chain() {
        let (tdg, net, plan, art) = deployed();
        let config = PlanFlowConfig { packets: 500, ..Default::default() };
        let result = simulate_plan(&tdg, &net, &plan, &art, &config).unwrap();
        assert_eq!(result.loaded.packets, 500);
        assert!(result.traversed.len() >= plan.occupied_switch_count());
        assert!(result.fct_ratio() >= 1.0);
        assert!(result.goodput_ratio() <= 1.0);
    }

    #[test]
    fn the_closed_form_matches_the_engine_on_the_plan_path() {
        // The same path as a discrete-event chain: WAN link latencies differ
        // per hop, so this also pins the per-link delays and the switch
        // forwarding latencies.
        use hermes_sim::{SimFlow, SimLink, SimNode, Simulation};
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::table3_wan(9);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        let config = PlanFlowConfig { packets: 300, ..Default::default() };
        let result = simulate_plan(&tdg, &net, &plan, &art, &config).unwrap();
        assert!(result.traversed.len() > 2, "{:?}", result.traversed);

        for (overhead, closed) in [(result.overhead_bytes, result.loaded), (0, result.baseline)] {
            let mut sim = Simulation::new();
            let mut nodes = vec![sim.add_node(SimNode { latency_us: 0.0 })];
            for &s in &result.traversed {
                nodes.push(sim.add_node(SimNode { latency_us: net.switch(s).latency_us }));
            }
            nodes.push(sim.add_node(SimNode { latency_us: 0.0 }));
            for (i, w) in nodes.windows(2).enumerate() {
                let delay = if i == 0 || i + 2 == nodes.len() {
                    1.0
                } else {
                    let (a, b) = (result.traversed[i - 1], result.traversed[i]);
                    net.link_between(a, b).map_or(1.0, |l| l.latency_us)
                };
                sim.add_link(SimLink { from: w[0], to: w[1], rate_gbps: 100.0, delay_us: delay });
            }
            sim.add_flow(SimFlow::constant(nodes, 300, 1024 + overhead, 1024 - 54));
            let engine = sim.run().unwrap()[0];
            assert_eq!(engine.packets, closed.packets);
            assert!((engine.fct_us - closed.fct_us).abs() <= 1e-9 * engine.fct_us);
            assert!((engine.goodput_gbps - closed.goodput_gbps).abs() <= 1e-9);
        }
    }

    #[test]
    fn zero_overhead_plan_shows_no_degradation() {
        let tdg = ProgramAnalyzer::new().analyze(&[library::l3_router()]);
        let net = topology::linear(2, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        let config = PlanFlowConfig { packets: 200, ..Default::default() };
        let result = simulate_plan(&tdg, &net, &plan, &art, &config).unwrap();
        assert_eq!(result.overhead_bytes, 0);
        assert!((result.fct_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavier_plans_degrade_more() {
        // Compare the heuristic against a deliberately bad (balanced)
        // split on the same workload and network.
        use hermes_core::SplitStrategy;
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let eps = Epsilon::loose();
        let config = PlanFlowConfig { packets: 500, ..Default::default() };

        let good_plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        let good_art = generate(&tdg, &net, &good_plan);
        let good = simulate_plan(&tdg, &net, &good_plan, &good_art, &config).unwrap();

        let bad_plan = GreedyHeuristic::with_strategy(SplitStrategy::Balanced)
            .deploy(&tdg, &net, &eps)
            .unwrap();
        let bad_art = generate(&tdg, &net, &bad_plan);
        let bad = simulate_plan(&tdg, &net, &bad_plan, &bad_art, &config).unwrap();

        assert!(good.overhead_bytes <= bad.overhead_bytes);
        assert!(good.fct_ratio() <= bad.fct_ratio() + 1e-9);
    }
}
