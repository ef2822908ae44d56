//! Switch configuration generation.
//!
//! The Hermes backend (paper §VI-A, "Implementation") consumes the
//! optimizer's decision variables and produces, per programmable switch,
//! the artifact an off-the-shelf switch compiler would be fed: which MATs
//! sit on which stages, which rules they hold, and — crucially — the
//! **piggyback contract** of every inter-switch hop: the exact metadata
//! fields the egress pipeline must append to each packet so downstream
//! switches can keep processing it. A controller config carries the
//! routes (`y(u, v, p)`) used to steer coordinated traffic.

use hermes_core::DeploymentPlan;
use hermes_dataplane::fields::Field;
use hermes_net::{Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One MAT slice installed on a concrete stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageEntry {
    /// Program-qualified MAT name.
    pub table: String,
    /// TDG node the entry realizes.
    pub node: NodeId,
    /// Fraction of the stage consumed.
    pub fraction: f64,
}

/// The compiled configuration of one switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// The switch this config loads onto.
    pub switch: SwitchId,
    /// Human-readable switch name.
    pub switch_name: String,
    /// Per-stage table slices, indexed by stage.
    pub stages: BTreeMap<usize, Vec<StageEntry>>,
    /// Metadata fields this switch must parse from incoming packets
    /// (piggybacked by upstream switches).
    pub parses: BTreeSet<Field>,
    /// Metadata fields this switch must append to departing packets,
    /// keyed by next-hop switch.
    pub appends: BTreeMap<SwitchId, BTreeSet<Field>>,
}

impl SwitchConfig {
    /// Total bytes this switch appends toward `next` (its share of the
    /// per-packet byte overhead on that pair).
    pub fn append_bytes(&self, next: SwitchId) -> u32 {
        self.appends.get(&next).map_or(0, |fields| fields.iter().map(Field::size_bytes).sum())
    }

    /// Number of distinct MATs installed.
    pub fn table_count(&self) -> usize {
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for entries in self.stages.values() {
            for e in entries {
                names.insert(&e.table);
            }
        }
        names.len()
    }
}

impl fmt::Display for SwitchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} tables over {} stages, parses {} fields",
            self.switch_name,
            self.table_count(),
            self.stages.len(),
            self.parses.len()
        )
    }
}

/// One controller routing entry: steer coordinated traffic from `from` to
/// `to` along `path`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Upstream switch.
    pub from: SwitchId,
    /// Downstream switch.
    pub to: SwitchId,
    /// Switch-id sequence of the installed path.
    pub path: Vec<SwitchId>,
}

/// Everything the deployment produces: per-switch configs plus the
/// controller's routing table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentArtifacts {
    /// Per-switch configurations, keyed by switch.
    pub switches: BTreeMap<SwitchId, SwitchConfig>,
    /// Controller routes realizing `y(u, v, p)`.
    pub routes: Vec<RouteEntry>,
}

/// Generates the deployment artifacts for a verified plan.
///
/// The piggyback contract of a pair `(u, v)` is the set of metadata fields
/// written by MATs on `u` whose dependent MATs sit on `v` — exactly the
/// fields Algorithm 1 counted into `A(a, b)`.
pub fn generate(tdg: &Tdg, net: &Network, plan: &DeploymentPlan) -> DeploymentArtifacts {
    let mut switches: BTreeMap<SwitchId, SwitchConfig> = BTreeMap::new();
    for p in plan.placements() {
        let config = switches.entry(p.switch).or_insert_with(|| SwitchConfig {
            switch: p.switch,
            switch_name: net.switch(p.switch).name.clone(),
            stages: BTreeMap::new(),
            parses: BTreeSet::new(),
            appends: BTreeMap::new(),
        });
        config.stages.entry(p.stage).or_default().push(StageEntry {
            table: tdg.node(p.node).name.clone(),
            node: p.node,
            fraction: p.fraction,
        });
    }

    // Piggyback contracts from cross-switch dependency edges.
    let assign = plan.switch_assignment(tdg.node_count());
    for e in tdg.edges() {
        let (Some(u), Some(v)) = (assign[e.from.index()], assign[e.to.index()]) else {
            continue;
        };
        if u == v || e.bytes == 0 {
            continue;
        }
        let carried = || tdg.node(e.from).mat.written_metadata().cloned();
        if let Some(config) = switches.get_mut(&u) {
            config.appends.entry(v).or_default().extend(carried());
        }
        if let Some(config) = switches.get_mut(&v) {
            config.parses.extend(carried());
        }
    }

    let routes = plan
        .routes()
        .iter()
        .map(|r| RouteEntry { from: r.from, to: r.to, path: r.path.hops.clone() })
        .collect();
    DeploymentArtifacts { switches, routes }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn artifacts() -> (Tdg, Network, DeploymentPlan, DeploymentArtifacts) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        (tdg, net, plan, art)
    }

    #[test]
    fn every_placement_appears_in_a_config() {
        let (tdg, _, plan, art) = artifacts();
        let installed: usize = art.switches.values().map(SwitchConfig::table_count).sum();
        let placed: BTreeSet<NodeId> = plan.placements().iter().map(|p| p.node).collect();
        assert_eq!(installed, placed.len());
        let _ = tdg;
    }

    #[test]
    fn append_bytes_match_plan_overhead() {
        let (tdg, _, plan, art) = artifacts();
        // The most bytes appended on any one hop, the configs' realized
        // per-packet overhead, can only match or exceed per-edge
        // accounting; for PaperLiteral mode they coincide per pair.
        let max_append = art
            .switches
            .values()
            .flat_map(|c| c.appends.keys().map(|&next| c.append_bytes(next)))
            .max()
            .unwrap_or(0);
        assert_eq!(u64::from(max_append), plan.max_inter_switch_bytes(&tdg));
    }

    #[test]
    fn visit_order_is_dependency_consistent() {
        let (tdg, _, plan, _) = artifacts();
        let order = plan.switch_visit_order(&tdg).expect("verified plans are acyclic");
        assert_eq!(order.len(), plan.occupied_switch_count());
        let rank: BTreeMap<SwitchId, usize> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for e in tdg.edges() {
            let (u, v) = (plan.switch_of(e.from).unwrap(), plan.switch_of(e.to).unwrap());
            if u != v {
                assert!(rank[&u] < rank[&v]);
            }
        }
    }

    #[test]
    fn parses_cover_upstream_appends() {
        let (_, _, _, art) = artifacts();
        for config in art.switches.values() {
            for (next, fields) in &config.appends {
                let downstream = &art.switches[next];
                for f in fields {
                    assert!(downstream.parses.contains(f), "{} not parsed downstream", f.name());
                }
            }
        }
    }

    #[test]
    fn artifacts_serialize() {
        let (_, _, _, art) = artifacts();
        let json = serde_json::to_string(&art).unwrap();
        let back: DeploymentArtifacts = serde_json::from_str(&json).unwrap();
        assert_eq!(art, back);
    }
}
