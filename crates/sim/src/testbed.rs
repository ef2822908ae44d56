//! The paper's testbed harness (§II-B and Exp#1/#4).
//!
//! Reproduces the overhead-impact measurement: a flow of fixed-size
//! packets crosses five switch hops (the paper loops one Tofino five
//! times); metadata piggybacked on every packet inflates its wire size,
//! so serialization takes longer and — with the MTU adaptively honoured —
//! end-to-end FCT rises and goodput falls. Results are reported
//! normalized against the zero-overhead run, exactly like Figure 2.

use crate::engine::FlowStats;
use serde::{Deserialize, Serialize};

/// Ethernet MTU (bytes).
pub const ETHERNET_MTU: u32 = 1500;
/// RDMA MTU (bytes).
pub const RDMA_MTU: u32 = 1024;
/// Typical DCN packet size (bytes) per the traffic study the paper cites.
pub const DCN_PACKET: u32 = 512;
/// Ethernet + IPv4 + TCP headers (bytes).
pub const PROTO_HEADER_BYTES: u32 = 54;
/// The three packet sizes the paper sweeps.
pub const PACKET_SIZES: [u32; 3] = [DCN_PACKET, RDMA_MTU, ETHERNET_MTU];

/// Testbed shape: §II-B defaults scaled to a deterministic simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Switch hops a packet traverses (paper: 5 within a DCN).
    pub hops: usize,
    /// Line rate in Gbit/s (paper: 100 G Tofino ports).
    pub rate_gbps: f64,
    /// Per-link propagation delay in µs.
    pub link_delay_us: f64,
    /// Per-switch forwarding latency in µs.
    pub switch_latency_us: f64,
    /// Packets per flow. The paper sends 10⁶; the default scales to 10⁴ —
    /// the normalized ratios are serialization-bound and size-independent
    /// beyond a few thousand packets.
    pub packets: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            hops: 5,
            rate_gbps: 100.0,
            link_delay_us: 0.5,
            switch_latency_us: 1.0,
            packets: 10_000,
        }
    }
}

/// FCT and goodput of a lone flow: `packets` packets of `wire_bytes` each,
/// all ready at time 0, crossing store-and-forward `links` (`(rate_gbps,
/// delay_us)` in path order) with no competing traffic; `forwarding_us` is
/// the summed latency of the nodes between the links.
///
/// Such a flow never queues behind another, so its FCT is closed-form: the
/// first packet arrives after every link's serialization and propagation
/// plus the forwarding latencies, and each later packet one serialization
/// of the slowest link behind it. [`Simulation`](crate::Simulation) gives
/// the same numbers; the engine is needed only where flows compete
/// ([`crate::workload`]).
pub fn lone_flow(
    links: &[(f64, f64)],
    forwarding_us: f64,
    packets: u64,
    wire_bytes: u32,
    payload_bytes: u32,
) -> FlowStats {
    let tx_us = |rate_gbps: f64| f64::from(wire_bytes) * 8.0 / (rate_gbps * 1000.0);
    let first: f64 =
        links.iter().map(|&(rate, delay)| tx_us(rate) + delay).sum::<f64>() + forwarding_us;
    let gap = links.iter().map(|&(rate, _)| tx_us(rate)).fold(0.0, f64::max);
    let fct_us = first + packets.saturating_sub(1) as f64 * gap;
    let payload_bits = f64::from(payload_bytes) * packets as f64 * 8.0;
    FlowStats {
        fct_us,
        goodput_gbps: if fct_us > 0.0 { payload_bits / fct_us / 1000.0 } else { 0.0 },
        packets,
    }
}

/// Runs one flow of `packets` fixed-size packets with `overhead_bytes` of
/// piggybacked metadata per packet through `hops` switches (host — switches
/// — host, so `hops + 1` links).
///
/// The wire size is `packet_size + overhead`; the application payload is
/// `packet_size - PROTO_HEADER_BYTES` (the paper tunes the MTU so the
/// enlarged packet is still accepted).
///
/// # Panics
///
/// Panics if `packet_size` does not exceed the protocol headers.
pub fn run_flow(config: &TestbedConfig, packet_size: u32, overhead_bytes: u32) -> FlowStats {
    assert!(packet_size > PROTO_HEADER_BYTES, "packet must fit its headers");
    lone_flow(
        &vec![(config.rate_gbps, config.link_delay_us); config.hops + 1],
        config.hops as f64 * config.switch_latency_us,
        config.packets,
        packet_size + overhead_bytes,
        packet_size - PROTO_HEADER_BYTES,
    )
}

/// FCT and goodput of an overhead-carrying run normalized to the
/// zero-overhead run (Figure 2's y-axes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalizedPerf {
    /// `FCT(overhead) / FCT(0)` — ≥ 1; higher is worse.
    pub fct_ratio: f64,
    /// `goodput(overhead) / goodput(0)` — ≤ 1; lower is worse.
    pub goodput_ratio: f64,
}

/// Measures the normalized impact of `overhead_bytes` at `packet_size`.
pub fn normalized_impact(
    config: &TestbedConfig,
    packet_size: u32,
    overhead_bytes: u32,
) -> NormalizedPerf {
    let base = run_flow(config, packet_size, 0);
    let loaded = run_flow(config, packet_size, overhead_bytes);
    NormalizedPerf {
        fct_ratio: loaded.fct_us / base.fct_us,
        goodput_ratio: loaded.goodput_gbps / base.goodput_gbps,
    }
}

/// One row of the Figure 2 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Metadata bytes added to each packet.
    pub overhead_bytes: u32,
    /// Normalized (FCT, goodput) per packet size, in [`PACKET_SIZES`]
    /// order.
    pub per_size: Vec<NormalizedPerf>,
}

/// The Figure 2 sweep: overhead 28–108 bytes in steps of 20 (the paper's
/// x-axis), for 512/1024/1500-byte packets.
pub fn fig2_sweep(config: &TestbedConfig) -> Vec<Fig2Row> {
    (28..=108)
        .step_by(20)
        .map(|overhead| Fig2Row {
            overhead_bytes: overhead,
            per_size: PACKET_SIZES
                .iter()
                .map(|&size| normalized_impact(config, size, overhead))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn quick() -> TestbedConfig {
        TestbedConfig { packets: 2_000, ..Default::default() }
    }

    #[test]
    fn zero_overhead_is_identity() {
        let n = normalized_impact(&quick(), 1024, 0);
        assert!((n.fct_ratio - 1.0).abs() < 1e-12);
        assert!((n.goodput_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_degrades_performance_monotonically() {
        let config = quick();
        let mut last_fct = 1.0;
        let mut last_goodput = 1.0;
        for overhead in [28, 48, 68, 88, 108] {
            let n = normalized_impact(&config, 512, overhead);
            assert!(n.fct_ratio >= last_fct, "fct not monotone at {overhead}");
            assert!(n.goodput_ratio <= last_goodput, "goodput not monotone at {overhead}");
            last_fct = n.fct_ratio;
            last_goodput = n.goodput_ratio;
        }
        assert!(last_fct > 1.1, "108 B on 512 B packets must hurt: {last_fct}");
        assert!(last_goodput < 0.9);
    }

    #[test]
    fn small_packets_suffer_more() {
        let config = quick();
        let small = normalized_impact(&config, 512, 68);
        let large = normalized_impact(&config, 1500, 68);
        assert!(small.fct_ratio > large.fct_ratio);
        assert!(small.goodput_ratio < large.goodput_ratio);
    }

    #[test]
    fn fig2_sweep_has_paper_axes() {
        let rows = fig2_sweep(&TestbedConfig { packets: 500, ..Default::default() });
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].overhead_bytes, 28);
        assert_eq!(rows[4].overhead_bytes, 108);
        for r in &rows {
            assert_eq!(r.per_size.len(), 3);
        }
    }

    #[test]
    fn fct_ratio_tracks_wire_inflation() {
        // Serialization-bound flows: FCT ratio ~ (size+overhead)/size.
        let config = quick();
        let n = normalized_impact(&config, 512, 108);
        let expected = (512.0 + 108.0) / 512.0;
        assert!((n.fct_ratio - expected).abs() < 0.02, "{} vs {expected}", n.fct_ratio);
    }

    #[test]
    fn closed_form_matches_the_engine_on_the_figure_2_grid() {
        // The discrete-event engine on the same chain, every cell of
        // Figure 2 at the default packet count, overhead 0 included.
        let config = TestbedConfig::default();
        for overhead in [0, 28, 48, 68, 88, 108] {
            for size in PACKET_SIZES {
                let (mut sim, route) = crate::engine::chain(
                    config.hops,
                    config.switch_latency_us,
                    config.rate_gbps,
                    config.link_delay_us,
                );
                sim.add_flow(crate::engine::SimFlow::constant(
                    route,
                    config.packets,
                    size + overhead,
                    size - PROTO_HEADER_BYTES,
                ));
                let engine = sim.run().unwrap()[0];
                let formula = run_flow(&config, size, overhead);
                assert_eq!(engine.packets, formula.packets);
                for (a, b) in
                    [(engine.fct_us, formula.fct_us), (engine.goodput_gbps, formula.goodput_gbps)]
                {
                    assert!((a - b).abs() <= 1e-9 * a, "{size} B + {overhead} B: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn a_lone_flow_is_paced_by_its_slowest_link() {
        // 1000 B: 0.08 us at 100 G, 0.8 us at 10 G. The first packet takes
        // 0.08 + 0.1 + 1.0 + 0.8 + 0.1 us; nine more follow 0.8 us apart.
        let stats = lone_flow(&[(100.0, 0.1), (10.0, 0.1)], 1.0, 10, 1000, 900);
        assert!((stats.fct_us - (2.08 + 9.0 * 0.8)).abs() < 1e-9, "{}", stats.fct_us);
        assert_eq!(stats.packets, 10);
    }

    #[test]
    #[should_panic(expected = "fit its headers")]
    fn tiny_packet_panics() {
        let _ = run_flow(&quick(), 10, 0);
    }
}
