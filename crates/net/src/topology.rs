//! Topology generators.
//!
//! Provides the linear testbed of the paper's Exp#1, the ten WAN topologies
//! of Table III (seeded random graphs with the table's exact node/edge
//! counts, standing in for the Internet Topology Zoo graphs), and generic
//! fat-tree/star generators for the examples.

// The crate-level clippy.toml bans unwrap/expect so that target specs and
// switch JSON can never panic; these generators build graphs of a constant
// shape and keep their `add_link(..).expect`s, which the tests exercise.
#![allow(clippy::disallowed_methods)]

use crate::graph::{Network, Switch, SwitchId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Node/edge counts of the ten WAN topologies (paper Table III).
pub const TABLE3: [(usize, usize); 10] = [
    (79, 147),
    (70, 85),
    (78, 84),
    (75, 90),
    (73, 70),
    (75, 88),
    (68, 92),
    (65, 78),
    (74, 92),
    (69, 98),
];

/// Evaluation settings of the paper's §VI-A used when generating WANs.
#[derive(Debug, Clone, PartialEq)]
pub struct WanConfig {
    /// Fraction of switches that are programmable. Paper: 0.5.
    pub programmable_fraction: f64,
    /// Switch transmission latency in µs. Paper: 1 µs.
    pub switch_latency_us: f64,
    /// Minimum link latency in µs. Paper: 1 ms.
    pub link_latency_min_us: f64,
    /// Maximum link latency in µs. Paper: 10 ms.
    pub link_latency_max_us: f64,
}

impl Default for WanConfig {
    fn default() -> Self {
        WanConfig {
            programmable_fraction: 0.5,
            switch_latency_us: 1.0,
            link_latency_min_us: 1_000.0,
            link_latency_max_us: 10_000.0,
        }
    }
}

/// A linear chain of `n` Tofino-like switches with `link_latency_us` links —
/// the shape of the paper's three-switch testbed.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn linear(n: usize, link_latency_us: f64) -> Network {
    assert!(n > 0, "a linear topology needs at least one switch");
    let mut net = Network::new();
    let ids: Vec<SwitchId> =
        (0..n).map(|i| net.add_switch(Switch::tofino(format!("sw{i}")))).collect();
    for w in ids.windows(2) {
        net.add_link(w[0], w[1], link_latency_us).expect("chain links are unique");
    }
    net
}

/// A star: one programmable hub and `spokes` programmable leaves.
///
/// # Panics
///
/// Panics if `spokes` is zero.
pub fn star(spokes: usize, link_latency_us: f64) -> Network {
    assert!(spokes > 0, "a star needs at least one spoke");
    let mut net = Network::new();
    let hub = net.add_switch(Switch::tofino("hub"));
    for i in 0..spokes {
        let leaf = net.add_switch(Switch::tofino(format!("leaf{i}")));
        net.add_link(hub, leaf, link_latency_us).expect("star links are unique");
    }
    net
}

/// A `k`-ary fat-tree (k pods, `5k²/4` switches), all programmable, with
/// `link_latency_us` on every link. `k` must be even and ≥ 2.
///
/// # Panics
///
/// Panics if `k` is odd or < 2.
pub fn fat_tree(k: usize, link_latency_us: f64) -> Network {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even and >= 2");
    let half = k / 2;
    let mut net = Network::new();
    let core: Vec<SwitchId> =
        (0..half * half).map(|i| net.add_switch(Switch::tofino(format!("core{i}")))).collect();
    for pod in 0..k {
        let aggs: Vec<SwitchId> =
            (0..half).map(|j| net.add_switch(Switch::tofino(format!("agg{pod}_{j}")))).collect();
        let edges: Vec<SwitchId> =
            (0..half).map(|j| net.add_switch(Switch::tofino(format!("edge{pod}_{j}")))).collect();
        for &a in &aggs {
            for &e in &edges {
                net.add_link(a, e, link_latency_us).expect("pod links unique");
            }
        }
        for (j, &a) in aggs.iter().enumerate() {
            for c in 0..half {
                net.add_link(a, core[j * half + c], link_latency_us).expect("core links unique");
            }
        }
    }
    net
}

/// A seeded random WAN with exactly `nodes` switches and `edges` links.
///
/// When `edges >= nodes - 1` the graph is connected (random spanning tree
/// plus random extra links). Otherwise — which happens for topology 5 of
/// Table III (73 nodes, 70 edges), mirroring the disconnected Topology Zoo
/// graphs — the generator builds one tree over the first `edges + 1`
/// switches and leaves the rest isolated.
///
/// # Panics
///
/// Panics if `nodes` is zero or `edges` exceeds the simple-graph maximum.
pub fn random_wan(nodes: usize, edges: usize, seed: u64, config: &WanConfig) -> Network {
    assert!(nodes > 0, "need at least one node");
    assert!(edges <= nodes * (nodes - 1) / 2, "too many edges for a simple graph");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new();

    // Choose which switches are programmable: a seeded shuffle of exactly
    // the configured fraction.
    let programmable_count = ((nodes as f64) * config.programmable_fraction).round() as usize;
    let mut flags = vec![false; nodes];
    for f in flags.iter_mut().take(programmable_count) {
        *f = true;
    }
    flags.shuffle(&mut rng);

    for (i, &programmable) in flags.iter().enumerate() {
        let mut sw = if programmable {
            Switch::tofino(format!("wan{i}"))
        } else {
            Switch::legacy(format!("wan{i}"))
        };
        sw.latency_us = config.switch_latency_us;
        net.add_switch(sw);
    }

    let link_latency = |rng: &mut StdRng| {
        rng.random_range(config.link_latency_min_us..=config.link_latency_max_us)
    };

    // Spanning tree over as many nodes as the edge budget allows.
    let tree_nodes = (edges + 1).min(nodes);
    let mut order: Vec<usize> = (0..nodes).collect();
    order.shuffle(&mut rng);
    let mut used = 0usize;
    for i in 1..tree_nodes {
        let parent = order[rng.random_range(0..i)];
        let lat = link_latency(&mut rng);
        net.add_link(SwitchId(order[i]), SwitchId(parent), lat).expect("tree links unique");
        used += 1;
    }
    // Random extra links up to the budget.
    let mut guard = 0usize;
    while used < edges {
        let a = rng.random_range(0..nodes);
        let b = rng.random_range(0..nodes);
        guard += 1;
        assert!(guard < 1_000_000, "failed to place extra links (graph too dense?)");
        if a == b {
            continue;
        }
        let (a, b) = (SwitchId(a), SwitchId(b));
        if net.link_between(a, b).is_some() {
            continue;
        }
        let lat = link_latency(&mut rng);
        net.add_link(a, b, lat).expect("checked for duplicates");
        used += 1;
    }
    net
}

/// A Waxman random graph: switches scattered on a unit square, each pair
/// linked with probability `alpha * exp(-d / (beta * L))` where `d` is
/// Euclidean distance and `L` the diagonal — the classic WAN generator
/// the Topology Zoo graphs resemble. Isolated switches are connected to
/// their nearest neighbour so the result is usable for deployment.
///
/// # Panics
///
/// Panics if `nodes` is zero or the parameters leave `(0, 1]`.
pub fn waxman(nodes: usize, alpha: f64, beta: f64, seed: u64, config: &WanConfig) -> Network {
    assert!(nodes > 0, "need at least one node");
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0, 1]");
    assert!(beta > 0.0 && beta <= 1.0, "beta in (0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new();

    let programmable_count = ((nodes as f64) * config.programmable_fraction).round() as usize;
    let mut flags = vec![false; nodes];
    for f in flags.iter_mut().take(programmable_count) {
        *f = true;
    }
    flags.shuffle(&mut rng);

    let positions: Vec<(f64, f64)> =
        (0..nodes).map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))).collect();
    for (i, &programmable) in flags.iter().enumerate() {
        let mut sw = if programmable {
            Switch::tofino(format!("wax{i}"))
        } else {
            Switch::legacy(format!("wax{i}"))
        };
        sw.latency_us = config.switch_latency_us;
        net.add_switch(sw);
    }
    let diag = 2.0f64.sqrt();
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            let d = ((positions[i].0 - positions[j].0).powi(2)
                + (positions[i].1 - positions[j].1).powi(2))
            .sqrt();
            if rng.random_bool((alpha * (-d / (beta * diag)).exp()).clamp(0.0, 1.0)) {
                let lat = rng.random_range(config.link_latency_min_us..=config.link_latency_max_us);
                net.add_link(SwitchId(i), SwitchId(j), lat).expect("pairs visited once");
            }
        }
    }
    // Attach isolated switches to their nearest neighbour.
    for i in 0..nodes {
        if net.neighbors(SwitchId(i)).next().is_none() && nodes > 1 {
            let nearest = (0..nodes)
                .filter(|&j| j != i)
                .min_by(|&a, &b| {
                    let da = (positions[i].0 - positions[a].0).powi(2)
                        + (positions[i].1 - positions[a].1).powi(2);
                    let db = (positions[i].0 - positions[b].0).powi(2)
                        + (positions[i].1 - positions[b].1).powi(2);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("nodes > 1");
            let lat = rng.random_range(config.link_latency_min_us..=config.link_latency_max_us);
            net.add_link(SwitchId(i), SwitchId(nearest), lat).expect("was isolated");
        }
    }
    net
}

/// The `index`-th (0-based) Table III WAN topology with paper-default
/// settings and a deterministic per-topology seed.
///
/// # Panics
///
/// Panics if `index >= 10`.
pub fn table3_wan(index: usize) -> Network {
    let (nodes, edges) = TABLE3[index];
    random_wan(nodes, edges, 0xC0FFEE + index as u64, &WanConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_testbed_shape() {
        let net = linear(3, 10.0);
        assert_eq!(net.switch_count(), 3);
        assert_eq!(net.link_count(), 2);
        assert!(net.is_connected());
        assert_eq!(net.programmable_switches().len(), 3);
    }

    #[test]
    fn star_shape() {
        let net = star(4, 5.0);
        assert_eq!(net.switch_count(), 5);
        assert_eq!(net.link_count(), 4);
        assert!(net.is_connected());
    }

    #[test]
    fn fat_tree_k4_counts() {
        let net = fat_tree(4, 10.0);
        // 4 core + 4 pods * (2 agg + 2 edge) = 20 switches.
        assert_eq!(net.switch_count(), 20);
        // Per pod: 4 edge-agg + 4 agg-core = 8; 4 pods = 32 links.
        assert_eq!(net.link_count(), 32);
        assert!(net.is_connected());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_fat_tree_panics() {
        let _ = fat_tree(3, 10.0);
    }

    #[test]
    fn table3_counts_match_paper() {
        for (i, &(nodes, edges)) in TABLE3.iter().enumerate() {
            let net = table3_wan(i);
            assert_eq!(net.switch_count(), nodes, "topology {i} nodes");
            assert_eq!(net.link_count(), edges, "topology {i} edges");
        }
    }

    #[test]
    fn wan_is_deterministic() {
        let a = table3_wan(0);
        let b = table3_wan(0);
        assert_eq!(a, b);
    }

    #[test]
    fn wan_half_programmable() {
        let net = table3_wan(1); // 70 nodes
        assert_eq!(net.programmable_switches().len(), 35);
    }

    #[test]
    fn wan_connected_when_edges_allow() {
        for i in [0usize, 1, 3, 6, 9] {
            assert!(table3_wan(i).is_connected(), "topology {i}");
        }
    }

    #[test]
    fn sparse_wan_leaves_isolated_switches() {
        // Topology 5 (index 4): 73 nodes, 70 edges — cannot be connected.
        let net = table3_wan(4);
        assert!(!net.is_connected());
        assert_eq!(net.link_count(), 70);
    }

    #[test]
    fn link_latencies_in_configured_range() {
        let net = table3_wan(2);
        for l in net.links() {
            assert!((1_000.0..=10_000.0).contains(&l.latency_us));
        }
    }

    #[test]
    fn waxman_is_deterministic_and_sized() {
        let config = WanConfig::default();
        let a = waxman(50, 0.4, 0.3, 9, &config);
        let b = waxman(50, 0.4, 0.3, 9, &config);
        assert_eq!(a, b);
        assert_eq!(a.switch_count(), 50);
        // Every switch participates in at least one link.
        for s in a.switch_ids() {
            assert!(a.neighbors(s).next().is_some(), "{s} isolated");
        }
    }

    #[test]
    fn waxman_density_grows_with_alpha() {
        let config = WanConfig::default();
        let sparse = waxman(60, 0.1, 0.3, 5, &config);
        let dense = waxman(60, 0.9, 0.3, 5, &config);
        assert!(dense.link_count() > sparse.link_count());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn waxman_rejects_bad_alpha() {
        let _ = waxman(10, 1.5, 0.3, 0, &WanConfig::default());
    }

    #[test]
    fn wan_latency_settings_applied() {
        let net = table3_wan(0);
        for s in net.switches() {
            assert_eq!(s.latency_us, 1.0);
        }
    }
}
