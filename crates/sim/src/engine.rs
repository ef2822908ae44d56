//! Discrete-event packet-level simulation engine.
//!
//! Store-and-forward semantics: each packet occupies a directed link for
//! `size / rate` (serialization), then arrives after the link's
//! propagation delay; each node adds its forwarding latency. Links carry
//! FIFO queues, so competing flows interleave realistically. Everything is
//! deterministic: ties are broken by event sequence number.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Simulation time in microseconds.
pub type SimTime = f64;

/// A node on a simulated path: a host or switch with forwarding latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimNode {
    /// Forwarding latency added per packet, in µs.
    pub latency_us: f64,
}

/// A directed link between two node indexes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimLink {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Line rate in Gbit/s.
    pub rate_gbps: f64,
    /// Propagation delay in µs.
    pub delay_us: f64,
}

impl SimLink {
    /// Serialization time for `bytes` on this link, in µs.
    pub fn tx_time_us(&self, bytes: u32) -> f64 {
        // bits / (Gbit/s) = nanoseconds / 1000 -> µs.
        (f64::from(bytes) * 8.0) / (self.rate_gbps * 1000.0)
    }
}

/// One flow: a message split into wire packets pushed along a node route.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFlow {
    /// Node indexes the flow traverses (first = source host).
    pub route: Vec<usize>,
    /// Number of packets to send.
    pub packets: u64,
    /// Wire size of each packet in bytes (payload + headers + metadata).
    pub wire_bytes: u32,
    /// Extra bytes the packet gains at every switch hop (INT-style
    /// accumulating telemetry; 0 for constant-size coordination).
    pub wire_growth_per_hop: u32,
    /// Application payload bytes per packet (for goodput accounting).
    pub payload_bytes: u32,
    /// Injection start time (µs).
    pub start_us: SimTime,
}

impl SimFlow {
    /// A constant-wire-size flow (no per-hop growth).
    pub fn constant(route: Vec<usize>, packets: u64, wire_bytes: u32, payload_bytes: u32) -> Self {
        SimFlow { route, packets, wire_bytes, wire_growth_per_hop: 0, payload_bytes, start_us: 0.0 }
    }
}

/// Per-flow results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// Flow completion time: last-packet delivery − start, in µs.
    pub fct_us: f64,
    /// Application goodput in Gbit/s (payload bits / FCT).
    pub goodput_gbps: f64,
    /// Packets delivered.
    pub packets: u64,
}

impl fmt::Display for FlowStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FCT {:.1} us, goodput {:.3} Gbps, {} pkts",
            self.fct_us, self.goodput_gbps, self.packets
        )
    }
}

/// Errors detected while validating a simulation setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A flow route references a missing node or link.
    BrokenRoute {
        /// Index of the offending flow.
        flow: usize,
    },
    /// A flow has no packets or an empty route.
    EmptyFlow {
        /// Index of the offending flow.
        flow: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BrokenRoute { flow } => write!(f, "flow {flow} routes over a missing link"),
            SimError::EmptyFlow { flow } => write!(f, "flow {flow} is empty"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Packet {
    flow: usize,
    seq: u64,
    hop: usize, // index into the flow's route
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Packet finished switch processing; ready to queue on its next link.
    ReadyToSend(Packet),
    /// Packet fully received at route hop `packet.hop`.
    Arrive(Packet),
    /// A link finished serializing; it may start its next queued packet.
    LinkFree(usize),
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time first, then insertion order.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A complete simulation setup.
#[derive(Debug, Clone, Default)]
pub struct Simulation {
    nodes: Vec<SimNode>,
    links: Vec<SimLink>,
    flows: Vec<SimFlow>,
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Simulation::default()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, node: SimNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds a directed link.
    pub fn add_link(&mut self, link: SimLink) {
        self.links.push(link);
    }

    /// Adds a flow, returning its index.
    pub fn add_flow(&mut self, flow: SimFlow) -> usize {
        self.flows.push(flow);
        self.flows.len() - 1
    }

    fn link_index(&self, from: usize, to: usize) -> Option<usize> {
        self.links.iter().position(|l| l.from == from && l.to == to)
    }

    fn validate(&self) -> Result<(), SimError> {
        for (i, f) in self.flows.iter().enumerate() {
            if f.packets == 0 || f.route.len() < 2 {
                return Err(SimError::EmptyFlow { flow: i });
            }
            for w in f.route.windows(2) {
                if w[0] >= self.nodes.len()
                    || w[1] >= self.nodes.len()
                    || self.link_index(w[0], w[1]).is_none()
                {
                    return Err(SimError::BrokenRoute { flow: i });
                }
            }
        }
        Ok(())
    }

    /// Runs the simulation to completion and returns per-flow statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when a flow is empty or routes over missing
    /// links.
    pub fn run(&self) -> Result<Vec<FlowStats>, SimError> {
        self.validate()?;
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut event_seq = 0u64;
        let push = |heap: &mut BinaryHeap<Event>, time: SimTime, kind: EventKind, seq: &mut u64| {
            heap.push(Event { time, seq: *seq, kind });
            *seq += 1;
        };

        // Per-directed-link FIFO and busy flag.
        let mut queues: Vec<VecDeque<Packet>> = vec![VecDeque::new(); self.links.len()];
        let mut busy: Vec<bool> = vec![false; self.links.len()];
        let mut delivered: Vec<u64> = vec![0; self.flows.len()];
        let mut last_delivery: Vec<SimTime> = vec![0.0; self.flows.len()];

        // Source injection: every packet becomes ReadyToSend at the source
        // at the flow start; the first link's FIFO serializes them.
        for (fi, f) in self.flows.iter().enumerate() {
            for seq in 0..f.packets {
                push(
                    &mut heap,
                    f.start_us,
                    EventKind::ReadyToSend(Packet { flow: fi, seq, hop: 0 }),
                    &mut event_seq,
                );
            }
        }

        while let Some(Event { time, kind, .. }) = heap.pop() {
            match kind {
                EventKind::ReadyToSend(pkt) => {
                    let f = &self.flows[pkt.flow];
                    let li = self
                        .link_index(f.route[pkt.hop], f.route[pkt.hop + 1])
                        .ok_or(SimError::BrokenRoute { flow: pkt.flow })?;
                    queues[li].push_back(pkt);
                    if !busy[li] {
                        self.start_tx(li, time, &mut queues, &mut busy, &mut heap, &mut event_seq);
                    }
                }
                EventKind::LinkFree(li) => {
                    // start_tx clears the busy flag itself when the queue
                    // is empty — always call it, or the link deadlocks.
                    self.start_tx(li, time, &mut queues, &mut busy, &mut heap, &mut event_seq);
                }
                EventKind::Arrive(pkt) => {
                    let f = &self.flows[pkt.flow];
                    if pkt.hop + 1 == f.route.len() - 1 {
                        // Reached the destination host.
                        delivered[pkt.flow] += 1;
                        last_delivery[pkt.flow] = last_delivery[pkt.flow].max(time);
                    } else {
                        // Forwarding latency of the intermediate node, then
                        // ready for the next link.
                        let node = &self.nodes[f.route[pkt.hop + 1]];
                        push(
                            &mut heap,
                            time + node.latency_us,
                            EventKind::ReadyToSend(Packet { hop: pkt.hop + 1, ..pkt }),
                            &mut event_seq,
                        );
                    }
                }
            }
        }

        Ok(self
            .flows
            .iter()
            .enumerate()
            .map(|(fi, f)| {
                let fct = last_delivery[fi] - f.start_us;
                let payload_bits = f.payload_bytes as f64 * f.packets as f64 * 8.0;
                FlowStats {
                    fct_us: fct,
                    // bits / µs = Mbit/s * 1e... bits per µs / 1000 = Gbps.
                    goodput_gbps: if fct > 0.0 { payload_bits / fct / 1000.0 } else { 0.0 },
                    packets: delivered[fi],
                }
            })
            .collect())
    }

    #[allow(clippy::too_many_arguments)]
    fn start_tx(
        &self,
        li: usize,
        now: SimTime,
        queues: &mut [VecDeque<Packet>],
        busy: &mut [bool],
        heap: &mut BinaryHeap<Event>,
        event_seq: &mut u64,
    ) {
        let Some(pkt) = queues[li].pop_front() else {
            busy[li] = false;
            return;
        };
        busy[li] = true;
        let link = &self.links[li];
        let flow = &self.flows[pkt.flow];
        // INT-style growth: the packet has already crossed `pkt.hop`
        // switches' worth of accumulation when it leaves route[pkt.hop].
        let size = flow.wire_bytes + flow.wire_growth_per_hop * pkt.hop as u32;
        let tx = link.tx_time_us(size);
        // The link frees after serialization; the packet arrives after
        // serialization + propagation.
        heap.push(Event { time: now + tx, seq: *event_seq, kind: EventKind::LinkFree(li) });
        *event_seq += 1;
        heap.push(Event {
            time: now + tx + link.delay_us,
            seq: *event_seq,
            kind: EventKind::Arrive(pkt),
        });
        *event_seq += 1;
    }
}

/// Builds a bidirectional-link chain simulation: `host — n switches — host`
/// with uniform link rate/delay. Returns the simulation and the node
/// route (source .. destination).
pub fn chain(
    switches: usize,
    switch_latency_us: f64,
    rate_gbps: f64,
    link_delay_us: f64,
) -> (Simulation, Vec<usize>) {
    let mut sim = Simulation::new();
    let src = sim.add_node(SimNode { latency_us: 0.0 });
    let mut route = vec![src];
    for _ in 0..switches {
        let s = sim.add_node(SimNode { latency_us: switch_latency_us });
        route.push(s);
    }
    let dst = sim.add_node(SimNode { latency_us: 0.0 });
    route.push(dst);
    for w in route.windows(2) {
        sim.add_link(SimLink { from: w[0], to: w[1], rate_gbps, delay_us: link_delay_us });
        sim.add_link(SimLink { from: w[1], to: w[0], rate_gbps, delay_us: link_delay_us });
    }
    (sim, route)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn one_flow(packets: u64, wire: u32, payload: u32) -> (Simulation, Vec<usize>) {
        let (mut sim, route) = chain(1, 1.0, 100.0, 0.1);
        sim.add_flow(SimFlow::constant(route.clone(), packets, wire, payload));
        (sim, route)
    }

    #[test]
    fn single_packet_latency_decomposes() {
        let (sim, _) = one_flow(1, 1000, 900);
        let stats = sim.run().unwrap();
        // Two links: tx = 8000 bits / 100 Gbps = 0.08 us each; delay 0.1 each;
        // switch latency 1.0. FCT = 2*(0.08 + 0.1) + 1.0 = 1.36.
        assert!((stats[0].fct_us - 1.36).abs() < 1e-9, "fct {}", stats[0].fct_us);
        assert_eq!(stats[0].packets, 1);
    }

    #[test]
    fn pipeline_overlaps_transmissions() {
        // N packets: FCT ~= first-packet latency + (N-1) * tx bottleneck.
        let (sim, _) = one_flow(100, 1000, 900);
        let stats = sim.run().unwrap();
        let expected = 1.36 + 99.0 * 0.08;
        assert!((stats[0].fct_us - expected).abs() < 1e-6, "fct {}", stats[0].fct_us);
    }

    #[test]
    fn larger_packets_take_longer() {
        let (a, _) = one_flow(50, 500, 450);
        let (b, _) = one_flow(50, 1500, 1450);
        assert!(b.run().unwrap()[0].fct_us > a.run().unwrap()[0].fct_us);
    }

    #[test]
    fn goodput_counts_payload_only() {
        let (sim, _) = one_flow(1000, 1500, 1000);
        let stats = sim.run().unwrap();
        // Goodput strictly below line rate * payload fraction bound.
        assert!(stats[0].goodput_gbps > 0.0);
        assert!(stats[0].goodput_gbps < 100.0 * (1000.0 / 1500.0) + 1.0);
    }

    #[test]
    fn competing_flows_share_a_link() {
        let (mut sim, route) = chain(1, 0.0, 100.0, 0.0);
        for _ in 0..2 {
            sim.add_flow(SimFlow::constant(route.clone(), 100, 1000, 1000));
        }
        let stats = sim.run().unwrap();
        // Two flows interleave on the same links: each takes about twice
        // as long as it would alone.
        let (solo, _) = chain(1, 0.0, 100.0, 0.0);
        let mut solo = solo;
        solo.add_flow(SimFlow::constant(route.clone(), 100, 1000, 1000));
        let alone = solo.run().unwrap()[0].fct_us;
        // Burst injection queues flow 0's packets ahead of flow 1's, so
        // flow 0 finishes as if alone while flow 1 waits behind it.
        assert!((stats[0].fct_us - alone).abs() < 1e-6, "{} vs {}", stats[0].fct_us, alone);
        assert!(stats[1].fct_us > 1.8 * alone, "{} vs {}", stats[1].fct_us, alone);
        assert_eq!(stats[0].packets, 100);
        assert_eq!(stats[1].packets, 100);
    }

    #[test]
    fn broken_route_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_node(SimNode { latency_us: 0.0 });
        let b = sim.add_node(SimNode { latency_us: 0.0 });
        sim.add_flow(SimFlow::constant(vec![a, b], 1, 100, 100));
        assert_eq!(sim.run(), Err(SimError::BrokenRoute { flow: 0 }));
    }

    #[test]
    fn empty_flow_rejected() {
        let (mut sim, route) = chain(1, 0.0, 100.0, 0.0);
        sim.add_flow(SimFlow::constant(route, 0, 100, 100));
        assert_eq!(sim.run(), Err(SimError::EmptyFlow { flow: 0 }));
    }

    #[test]
    fn deterministic_across_runs() {
        let (sim, _) = one_flow(500, 1200, 1100);
        let a = sim.run().unwrap();
        let b = sim.run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn staggered_start_reflected_in_fct() {
        let (mut sim, route) = chain(1, 0.0, 100.0, 0.0);
        sim.add_flow(SimFlow {
            route,
            packets: 10,
            wire_bytes: 1000,
            wire_growth_per_hop: 0,
            payload_bytes: 1000,
            start_us: 50.0,
        });
        let stats = sim.run().unwrap();
        // FCT measured relative to the flow's own start.
        assert!(stats[0].fct_us < 10.0, "fct {}", stats[0].fct_us);
    }
}
