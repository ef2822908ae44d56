//! Multi-flow workload generation and aggregate statistics.
//!
//! Complements the single-flow §II-B harness with DCN-style workloads:
//! many flows with realistic size distributions arriving over time, plus
//! percentile reporting — the form in which FCT results are usually
//! quoted. Also provides the INT comparison: constant piggyback overhead
//! (Hermes-style pairwise coordination) vs. per-hop accumulating headers
//! (classic INT), the contrast the paper draws against PINT.

use crate::engine::{chain, FlowStats, SimError, SimFlow, Simulation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Flow size distributions. Deterministic given a seeded RNG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowSizes {
    /// All flows carry exactly this many bytes.
    Fixed(u64),
    /// Uniform in `[min, max]` bytes.
    Uniform {
        /// Smallest flow.
        min: u64,
        /// Largest flow.
        max: u64,
    },
    /// A heavy-tailed web-search-like mix: mostly mice with elephant
    /// flows; drawn from a three-bucket quantile approximation.
    WebSearch,
}

impl FlowSizes {
    fn draw(&self, rng: &mut StdRng) -> u64 {
        match self {
            FlowSizes::Fixed(bytes) => *bytes,
            FlowSizes::Uniform { min, max } => rng.random_range(*min..=*max),
            FlowSizes::WebSearch => {
                // ~50% mice (<100 KB), ~45% medium, ~5% elephants (>10 MB).
                let r: f64 = rng.random_range(0.0..1.0);
                if r < 0.5 {
                    rng.random_range(10_000..=100_000)
                } else if r < 0.95 {
                    rng.random_range(100_000..=1_000_000)
                } else {
                    rng.random_range(10_000_000..=30_000_000)
                }
            }
        }
    }
}

/// Workload shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of flows.
    pub flows: usize,
    /// Packet size on the wire before overhead (bytes).
    pub packet_size: u32,
    /// Protocol header bytes inside `packet_size`.
    pub header_bytes: u32,
    /// Flow size distribution (application bytes).
    pub sizes: FlowSizes,
    /// Gap between consecutive flow arrivals (µs).
    pub inter_arrival_us: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            flows: 50,
            packet_size: 1024,
            header_bytes: 54,
            sizes: FlowSizes::Uniform { min: 50_000, max: 500_000 },
            inter_arrival_us: 5.0,
            seed: 1,
        }
    }
}

/// How coordination metadata rides on packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverheadModel {
    /// A constant number of bytes per packet on every hop — the
    /// deployment-coordination model Hermes minimizes (`A_max`).
    Constant(u32),
    /// INT-style: `base` bytes at the source plus `per_hop` more at every
    /// switch the packet crosses.
    PerHopAccumulating {
        /// Bytes present when the packet enters the network.
        base: u32,
        /// Bytes appended per switch hop.
        per_hop: u32,
    },
}

impl OverheadModel {
    fn initial_bytes(self) -> u32 {
        match self {
            OverheadModel::Constant(bytes) => bytes,
            OverheadModel::PerHopAccumulating { base, .. } => base,
        }
    }

    fn growth(self) -> u32 {
        match self {
            OverheadModel::Constant(_) => 0,
            OverheadModel::PerHopAccumulating { per_hop, .. } => per_hop,
        }
    }
}

/// Generates the flows of a workload along `route`.
pub fn generate_flows(
    route: &[usize],
    config: &WorkloadConfig,
    overhead: OverheadModel,
) -> Vec<SimFlow> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let payload_per_packet = u64::from(config.packet_size - config.header_bytes);
    (0..config.flows)
        .map(|i| {
            let bytes = config.sizes.draw(&mut rng);
            let packets = bytes.div_ceil(payload_per_packet).max(1);
            SimFlow {
                route: route.to_vec(),
                packets,
                wire_bytes: config.packet_size + overhead.initial_bytes(),
                wire_growth_per_hop: overhead.growth(),
                payload_bytes: config.packet_size - config.header_bytes,
                start_us: i as f64 * config.inter_arrival_us,
            }
        })
        .collect()
}

/// Builds and runs a chain-topology workload, returning per-flow stats.
///
/// # Errors
///
/// Returns the [`SimError`] of [`Simulation::run`] should it reject a
/// generated flow.
///
/// # Panics
///
/// Panics if `config.packet_size <= config.header_bytes`.
pub fn run_workload(
    switches: usize,
    switch_latency_us: f64,
    rate_gbps: f64,
    link_delay_us: f64,
    config: &WorkloadConfig,
    overhead: OverheadModel,
) -> Result<Vec<FlowStats>, SimError> {
    assert!(config.packet_size > config.header_bytes, "packet must fit its headers");
    let (mut sim, route): (Simulation, Vec<usize>) =
        chain(switches, switch_latency_us, rate_gbps, link_delay_us);
    for flow in generate_flows(&route, config, overhead) {
        sim.add_flow(flow);
    }
    sim.run()
}

/// Aggregate FCT/goodput statistics over a set of flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateStats {
    /// Mean FCT (µs).
    pub mean_fct_us: f64,
    /// Median FCT (µs).
    pub p50_fct_us: f64,
    /// 95th-percentile FCT (µs).
    pub p95_fct_us: f64,
    /// 99th-percentile FCT (µs).
    pub p99_fct_us: f64,
    /// Mean per-flow goodput (Gbit/s).
    pub mean_goodput_gbps: f64,
}

/// Computes aggregate statistics (nearest-rank percentiles).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn aggregate(stats: &[FlowStats]) -> AggregateStats {
    assert!(!stats.is_empty(), "no flows to aggregate");
    let mut fcts: Vec<f64> = stats.iter().map(|s| s.fct_us).collect();
    fcts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pct = |p: f64| -> f64 {
        let rank = ((p / 100.0) * fcts.len() as f64).ceil().max(1.0) as usize;
        fcts[rank.min(fcts.len()) - 1]
    };
    AggregateStats {
        mean_fct_us: fcts.iter().sum::<f64>() / fcts.len() as f64,
        p50_fct_us: pct(50.0),
        p95_fct_us: pct(95.0),
        p99_fct_us: pct(99.0),
        mean_goodput_gbps: stats.iter().map(|s| s.goodput_gbps).sum::<f64>() / stats.len() as f64,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn small() -> WorkloadConfig {
        WorkloadConfig { flows: 10, sizes: FlowSizes::Fixed(100_000), ..Default::default() }
    }

    /// [`small`] over `hops` switches.
    fn run_small(hops: usize, overhead: OverheadModel) -> Vec<FlowStats> {
        run_workload(hops, 1.0, 100.0, 0.5, &small(), overhead).unwrap()
    }

    #[test]
    fn workload_is_deterministic() {
        let a = run_small(3, OverheadModel::Constant(0));
        let b = run_small(3, OverheadModel::Constant(0));
        assert_eq!(a, b);
    }

    #[test]
    fn overhead_slows_the_workload() {
        let base = aggregate(&run_small(3, OverheadModel::Constant(0)));
        let loaded = aggregate(&run_small(3, OverheadModel::Constant(100)));
        assert!(loaded.mean_fct_us > base.mean_fct_us);
        assert!(loaded.mean_goodput_gbps < base.mean_goodput_gbps);
    }

    #[test]
    fn accumulating_int_headers_cost_more_than_their_base() {
        let constant = aggregate(&run_small(5, OverheadModel::Constant(20)));
        let per_hop = OverheadModel::PerHopAccumulating { base: 20, per_hop: 22 };
        let int = aggregate(&run_small(5, per_hop));
        assert!(int.mean_fct_us > constant.mean_fct_us, "per-hop growth must cost extra");
    }

    #[test]
    fn flow_count_and_packetization() {
        let config = small();
        let flows = generate_flows(&[0, 1, 2], &config, OverheadModel::Constant(0));
        assert_eq!(flows.len(), 10);
        // 100 kB at 970 B payload per packet.
        let expected = 100_000u64.div_ceil(u64::from(config.packet_size - config.header_bytes));
        assert!(flows.iter().all(|f| f.packets == expected));
        // Staggered arrivals.
        assert_eq!(flows[3].start_us, 15.0);
    }

    #[test]
    fn percentiles_ordered() {
        let stats = run_workload(
            3,
            1.0,
            100.0,
            0.5,
            &WorkloadConfig { flows: 40, sizes: FlowSizes::WebSearch, ..Default::default() },
            OverheadModel::Constant(0),
        )
        .unwrap();
        let agg = aggregate(&stats);
        assert!(agg.p50_fct_us <= agg.p95_fct_us);
        assert!(agg.p95_fct_us <= agg.p99_fct_us);
        assert!(agg.mean_fct_us > 0.0);
    }

    #[test]
    fn web_search_mix_is_heavy_tailed() {
        let config =
            WorkloadConfig { flows: 100, sizes: FlowSizes::WebSearch, ..Default::default() };
        let flows = generate_flows(&[0, 1, 2], &config, OverheadModel::Constant(0));
        let min = flows.iter().map(|f| f.packets).min().unwrap();
        let max = flows.iter().map(|f| f.packets).max().unwrap();
        assert!(max > min * 20, "elephants dwarf mice: {min} vs {max}");
        // Elephants are the minority.
        let big = flows.iter().filter(|f| f.packets > 1_000).count();
        assert!(big * 5 < flows.len(), "{big}/100 elephants");
    }

    #[test]
    #[should_panic(expected = "no flows")]
    fn empty_aggregate_panics() {
        let _ = aggregate(&[]);
    }
}
