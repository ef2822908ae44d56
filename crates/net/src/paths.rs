//! Shortest paths between switches.
//!
//! Every solver routes a dependent switch pair over the latency-shortest
//! path, and the greedy heuristic adds nearest-programmable-switch queries.
//! Path latency `t_p(p)` follows the paper (§V-A): the sum of `t_s` over
//! every switch **on** the path (endpoints included) plus `t_l` over every
//! link.

use crate::graph::{Network, SwitchId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simple (loop-free) path: the switch sequence from source to target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Path {
    /// Switches in traversal order; `hops[0]` is the source.
    pub hops: Vec<SwitchId>,
    /// `t_p(p)` — total latency in microseconds (switches + links).
    pub latency_us: f64,
}

impl Path {
    /// Number of links traversed.
    pub fn link_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// Source switch; `None` on an empty path, which [`shortest_path`]
    /// never produces but a plan read from JSON may hold.
    pub fn source(&self) -> Option<SwitchId> {
        self.hops.first().copied()
    }

    /// Target switch; `None` on an empty path (see [`Path::source`]).
    pub fn target(&self) -> Option<SwitchId> {
        self.hops.last().copied()
    }

    /// `true` iff the given switch lies on the path (the `E(a, p)`
    /// indicator of the paper).
    pub fn contains(&self, s: SwitchId) -> bool {
        self.hops.contains(&s)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist; ties on node index for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path by latency, or `None` if unreachable.
/// For `src == dst` the path is the single switch with latency `t_s(src)`.
pub fn shortest_path(net: &Network, src: SwitchId, dst: SwitchId) -> Option<Path> {
    let n = net.switch_count();
    if src.index() >= n || dst.index() >= n {
        return None;
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    dist[src.index()] = net.switch(src).latency_us;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry { dist: dist[src.index()], node: src.index() });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == dst.index() {
            break;
        }
        for (v, link_lat) in net.neighbors(SwitchId(u)) {
            let nd = d + link_lat + net.switch(v).latency_us;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                prev[v.index()] = u;
                heap.push(HeapEntry { dist: nd, node: v.index() });
            }
        }
    }
    if dist[dst.index()].is_infinite() {
        return None;
    }
    let mut hops = vec![dst];
    let mut cur = dst.index();
    while cur != src.index() {
        cur = prev[cur];
        if cur == usize::MAX {
            return None; // src == dst handled below; broken chain otherwise
        }
        hops.push(SwitchId(cur));
    }
    hops.reverse();
    Some(Path { hops, latency_us: dist[dst.index()] })
}

/// The programmable switches nearest to `origin` by shortest-path latency
/// (excluding `origin` itself), capped at `count` and at `max_latency_us`.
/// This is the `SELECT_SWITCHES` primitive of the greedy heuristic
/// (Algorithm 2, line 23).
pub fn nearest_programmable(
    net: &Network,
    origin: SwitchId,
    count: usize,
    max_latency_us: f64,
) -> Vec<(SwitchId, f64)> {
    let mut reachable: Vec<(SwitchId, f64)> = net
        .programmable_switches()
        .into_iter()
        .filter(|&s| s != origin)
        .filter_map(|s| shortest_path(net, origin, s).map(|p| (s, p.latency_us)))
        .filter(|&(_, lat)| lat <= max_latency_us)
        .collect();
    reachable.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal).then_with(|| a.0.cmp(&b.0))
    });
    reachable.truncate(count);
    reachable
}

/// `true` iff [`shortest_path`] finds a path between every ordered pair
/// of distinct `switches`. Links are undirected, so one traversal from the
/// first switch answers it in place of a Dijkstra run per pair: the others
/// must all be reached, over hops whose link and far switch have a finite
/// latency (the hops `shortest_path` can take).
pub fn mutually_reachable(net: &Network, switches: &[SwitchId]) -> bool {
    let n = net.switch_count();
    let [first, rest @ ..] = switches else { return true };
    if rest.is_empty() {
        return true;
    }
    if switches.iter().any(|s| s.index() >= n) || !net.switch(*first).latency_us.is_finite() {
        return false;
    }
    let mut seen = vec![false; n];
    seen[first.index()] = true;
    let mut stack = vec![*first];
    while let Some(u) = stack.pop() {
        for (v, link_latency_us) in net.neighbors(u) {
            if !seen[v.index()] && (link_latency_us + net.switch(v).latency_us).is_finite() {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    rest.iter().all(|s| seen[s.index()])
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::graph::{Network, Switch};

    /// a -1- b -1- d, a -5- c -1- d : two a->d paths (3-hop cheap, detour).
    fn diamond() -> (Network, [SwitchId; 4]) {
        let mut net = Network::new();
        let a = net.add_switch(Switch::tofino("a"));
        let b = net.add_switch(Switch::tofino("b"));
        let c = net.add_switch(Switch::tofino("c"));
        let d = net.add_switch(Switch::tofino("d"));
        net.add_link(a, b, 1.0).unwrap();
        net.add_link(b, d, 1.0).unwrap();
        net.add_link(a, c, 5.0).unwrap();
        net.add_link(c, d, 1.0).unwrap();
        (net, [a, b, c, d])
    }

    #[test]
    fn shortest_path_picks_cheapest() {
        let (net, [a, b, _, d]) = diamond();
        let p = shortest_path(&net, a, d).unwrap();
        assert_eq!(p.hops, vec![a, b, d]);
        // 3 switches * 1us + links 1 + 1 = 5.
        assert_eq!(p.latency_us, 5.0);
    }

    #[test]
    fn path_to_self_is_single_switch() {
        let (net, [a, ..]) = diamond();
        let p = shortest_path(&net, a, a).unwrap();
        assert_eq!(p.hops, vec![a]);
        assert_eq!(p.latency_us, 1.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = Network::new();
        let a = net.add_switch(Switch::tofino("a"));
        let b = net.add_switch(Switch::tofino("b"));
        assert!(shortest_path(&net, a, b).is_none());
    }

    #[test]
    fn nearest_programmable_sorted_and_bounded() {
        let (mut net, [a, b, c, d]) = diamond();
        net.switch_mut(c).programmable = false;
        let near = nearest_programmable(&net, a, 10, f64::INFINITY);
        assert_eq!(near.first().map(|x| x.0), Some(b));
        assert!(near.iter().all(|&(s, _)| s != c && s != a));
        assert_eq!(near.len(), 2);
        // Tight latency bound keeps only b (3us); d costs 5us.
        let near = nearest_programmable(&net, a, 10, 3.0);
        assert_eq!(near.iter().map(|x| x.0).collect::<Vec<_>>(), vec![b]);
        // Count bound.
        let near = nearest_programmable(&net, a, 1, f64::INFINITY);
        assert_eq!(near.len(), 1);
        let _ = d;
    }

    /// The per-pair form [`mutually_reachable`] replaces.
    fn every_pair_routes(net: &Network, switches: &[SwitchId]) -> bool {
        switches
            .iter()
            .all(|&a| switches.iter().all(|&b| a == b || shortest_path(net, a, b).is_some()))
    }

    #[test]
    fn mutually_reachable_matches_every_pair_on_the_wans_and_a_split_network() {
        let mut verdicts = Vec::new();
        for index in 0..10 {
            let mut net = crate::topology::table3_wan(index);
            let programmable = net.programmable_switches();
            let whole = mutually_reachable(&net, &programmable);
            assert_eq!(whole, every_pair_routes(&net, &programmable), "WAN {index}");
            verdicts.push(whole);
            // Cut every link of the first programmable switch, isolating it.
            let first = programmable[0];
            let cut: Vec<SwitchId> = net.neighbors(first).map(|(v, _)| v).collect();
            for v in cut {
                net.fail_link(first, v);
            }
            for switches in [&programmable[..], &programmable[1..], &programmable[..1]] {
                let fast = mutually_reachable(&net, switches);
                assert_eq!(fast, every_pair_routes(&net, switches), "WAN {index}");
                verdicts.push(fast);
            }
            assert!(!mutually_reachable(&net, &programmable), "WAN {index}");
        }
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
        // Two diamonds with no link between them.
        let (mut net, left) = diamond();
        let right: Vec<SwitchId> =
            (0..4).map(|i| net.add_switch(Switch::tofino(format!("r{i}")))).collect();
        net.add_link(right[0], right[1], 1.0).unwrap();
        net.add_link(right[1], right[2], 1.0).unwrap();
        net.add_link(right[2], right[3], 1.0).unwrap();
        let both: Vec<SwitchId> = left.iter().chain(&right).copied().collect();
        for switches in [&both[..], &left[..], &right[..], &both[3..5], &[]] {
            assert_eq!(mutually_reachable(&net, switches), every_pair_routes(&net, switches));
        }
        assert!(!mutually_reachable(&net, &both));
        assert!(mutually_reachable(&net, &left) && mutually_reachable(&net, &right));
    }
}
