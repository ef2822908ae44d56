//! Pre-solve infeasibility certificates and objective floors.
//!
//! Before a search burns its wall-clock budget on an instance, a handful
//! of O(V + E) bounds can already settle it: if a single MAT exceeds every
//! switch, if total demand exceeds network capacity, if the ε₂ switch
//! budget is below the provable minimum, or if ε₁ is below the latency any
//! feasible plan must pay, no search will ever find a plan. Each such
//! conclusion is a [`Certificate`] — a machine-readable proof object with a
//! stable diagnostic code — and [`Precheck::run`] collects all of them.
//!
//! Certificates come in two flavors:
//!
//! * **Infeasibility certificates** ([`Certificate::is_infeasible`] true):
//!   the instance provably has no feasible plan. [`Portfolio`] returns
//!   [`DeployError::ProvenInfeasible`] instantly instead of searching.
//! * **Objective floors** (`AmaxFloor`): a proven lower bound on `A_max`
//!   over *all* feasible plans. The portfolio hands it to the exact search
//!   as the context's [`SearchContext::objective_floor`]; a plan that
//!   reaches the floor is optimal by construction, which upgrades
//!   `proven_optimal` without waiting for an exhaustion proof.
//!
//! Every bound here must be *sound*: it may be arbitrarily loose, but a
//! certificate must never rule out a feasible instance and a floor must
//! never exceed the true optimum (`tests/audit_soundness.rs` pins both
//! against exhaustive search).
//!
//! [`Portfolio`]: crate::solver::Portfolio
//! [`DeployError::ProvenInfeasible`]: crate::deployment::DeployError::ProvenInfeasible
//! [`SearchContext::objective_floor`]: crate::solver::SearchContext::objective_floor

use crate::deployment::Epsilon;
use hermes_net::{fits, Network, TargetModel};
use hermes_tdg::{NodeId, Tdg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A machine-checkable pre-solve conclusion about a deployment instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Certificate {
    /// The network has no programmable switch that is up, but the TDG has
    /// MATs to place.
    NoProgrammableSwitch {
        /// Number of MATs awaiting placement.
        nodes: usize,
    },
    /// One MAT alone exceeds the total capacity of the largest switch
    /// (violates Eq. 9 on every switch).
    MatTooLarge {
        /// Program-qualified MAT name.
        mat: String,
        /// Its resource demand.
        resource: f64,
        /// The largest per-switch total capacity available.
        max_capacity: f64,
    },
    /// Total resource demand exceeds the summed capacity of every
    /// programmable switch that is up (Eq. 9 aggregated).
    InsufficientCapacity {
        /// Σ R(a) over all MATs.
        required: f64,
        /// Σ stages · C_stage over programmable up switches.
        available: f64,
    },
    /// One MAT would fit some switch's pipeline stages, but exceeds every
    /// programmable target's total-resource *budget* — the heterogeneity
    /// generalization of `MatTooLarge` (which fires when not even the
    /// pipeline sum suffices).
    MatExceedsTargetBudget {
        /// Program-qualified MAT name.
        mat: String,
        /// Its resource demand.
        resource: f64,
        /// The largest budget-clamped per-switch capacity available.
        max_capacity: f64,
        /// The largest raw pipeline sum (`C_stage × C_res`) available —
        /// `resource` fits under this, which is what makes the budget the
        /// binding constraint.
        max_pipeline: f64,
    },
    /// Aggregate demand fits the summed pipeline stages of the
    /// programmable switches but exceeds their summed target budgets —
    /// the heterogeneity generalization of `InsufficientCapacity`.
    BudgetedCapacityInsufficient {
        /// Σ R(a) over all MATs.
        required: f64,
        /// Σ budget-clamped capacities over programmable up switches.
        available: f64,
        /// Σ raw pipeline sums over the same switches.
        pipeline_available: f64,
    },
    /// A dependency chain is longer than any switch pipeline, so the
    /// program must span at least two switches — but the network has fewer
    /// programmable switches than that.
    SwitchFloorExceedsNetwork {
        /// Minimum number of occupied switches in any feasible plan.
        needed: usize,
        /// Programmable switches that are up.
        programmable: usize,
    },
    /// The provable minimum number of occupied switches exceeds the ε₂
    /// bound (Eq. 5 can never hold).
    SwitchFloorExceedsBound {
        /// Minimum `Q_occ` over all feasible plans.
        needed: usize,
        /// The administrator's ε₂.
        bound: usize,
    },
    /// The provable minimum end-to-end coordination latency exceeds the ε₁
    /// bound (Eq. 4 can never hold).
    LatencyFloorExceedsBound {
        /// Lower bound on `t_e2e` in microseconds over all feasible plans.
        floor_us: f64,
        /// The administrator's ε₁ in microseconds.
        bound_us: f64,
    },
    /// A proven lower bound on `A_max`: some dependency edge must cross
    /// switches in every feasible plan. Not an infeasibility — the
    /// portfolio uses it as an objective floor.
    AmaxFloor {
        /// `A_max` is at least this many bytes in every feasible plan.
        bytes: u64,
        /// Human-readable witness of the mandatory cut.
        witness: String,
    },
    /// Informational: the TDG carries state-access relaxations, so some
    /// edges were exempted from the chain and cut bounds above. Not an
    /// infeasibility — it records that the instance was prechecked under
    /// relaxed semantics and the verifier must certify every relaxed edge.
    RelaxationApplied {
        /// Number of relaxed edges in the TDG.
        relaxed_edges: usize,
        /// Total edge count, for scale.
        total_edges: usize,
    },
}

impl Certificate {
    /// Stable diagnostic code (`HC3xx` block).
    pub fn code(&self) -> &'static str {
        match self {
            Certificate::NoProgrammableSwitch { .. } => "HC301",
            Certificate::MatTooLarge { .. } => "HC302",
            Certificate::InsufficientCapacity { .. } => "HC303",
            Certificate::SwitchFloorExceedsNetwork { .. } => "HC304",
            Certificate::SwitchFloorExceedsBound { .. } => "HC305",
            Certificate::LatencyFloorExceedsBound { .. } => "HC306",
            Certificate::AmaxFloor { .. } => "HC307",
            Certificate::MatExceedsTargetBudget { .. } => "HC308",
            Certificate::BudgetedCapacityInsufficient { .. } => "HC309",
            Certificate::RelaxationApplied { .. } => "HC310",
        }
    }

    /// `true` when this certificate proves the instance has no feasible
    /// plan (everything except the `AmaxFloor` objective bound and the
    /// informational `RelaxationApplied` notice).
    pub fn is_infeasible(&self) -> bool {
        !matches!(self, Certificate::AmaxFloor { .. } | Certificate::RelaxationApplied { .. })
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certificate::NoProgrammableSwitch { nodes } => {
                write!(f, "{nodes} MAT(s) to place but no programmable switch is up")
            }
            Certificate::MatTooLarge { mat, resource, max_capacity } => write!(
                f,
                "MAT `{mat}` needs R={resource:.2} but the largest switch holds {max_capacity:.2}"
            ),
            Certificate::InsufficientCapacity { required, available } => write!(
                f,
                "total demand {required:.2} exceeds total programmable capacity {available:.2}"
            ),
            Certificate::SwitchFloorExceedsNetwork { needed, programmable } => write!(
                f,
                "any plan occupies >= {needed} switches but only {programmable} are programmable"
            ),
            Certificate::SwitchFloorExceedsBound { needed, bound } => {
                write!(f, "any plan occupies >= {needed} switches but eps2 = {bound}")
            }
            Certificate::LatencyFloorExceedsBound { floor_us, bound_us } => write!(
                f,
                "any plan pays >= {floor_us:.1} us of coordination latency but eps1 = {bound_us:.1} us"
            ),
            Certificate::AmaxFloor { bytes, witness } => {
                write!(f, "A_max >= {bytes} B in every feasible plan ({witness})")
            }
            Certificate::RelaxationApplied { relaxed_edges, total_edges } => write!(
                f,
                "{relaxed_edges} of {total_edges} dependency edges relaxed by state-access \
                 analysis; bounds exempt them and the verifier must certify each"
            ),
            Certificate::MatExceedsTargetBudget { mat, resource, max_capacity, max_pipeline } => {
                write!(
                    f,
                    "MAT `{mat}` needs R={resource:.2}, within the largest pipeline sum \
                     {max_pipeline:.2} but over every target budget (best: {max_capacity:.2})"
                )
            }
            Certificate::BudgetedCapacityInsufficient {
                required,
                available,
                pipeline_available,
            } => write!(
                f,
                "total demand {required:.2} fits the summed pipelines ({pipeline_available:.2}) \
                 but exceeds the summed target budgets ({available:.2})"
            ),
        }
    }
}

/// The result of running every pre-solve bound on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Precheck {
    /// Certificates in a deterministic order (infeasibility first, floors
    /// last).
    pub certificates: Vec<Certificate>,
}

impl Precheck {
    /// Runs every bound. O(V + E + S log S) — cheap enough to run in front
    /// of every solve.
    pub fn run(tdg: &Tdg, net: &Network, eps: &Epsilon) -> Precheck {
        let mut certs = Vec::new();
        let n = tdg.node_count();
        if n == 0 {
            return Precheck { certificates: certs };
        }

        let prog = net.programmable_switches();
        if prog.is_empty() {
            certs.push(Certificate::NoProgrammableSwitch { nodes: n });
            return Precheck { certificates: certs };
        }

        // Per-switch cost models; capacities descending — the prefix-sum
        // argument below needs the greedy (largest-first) packing order.
        let models: Vec<TargetModel> = prog.iter().map(|&s| net.switch(s).target_model()).collect();
        let mut caps: Vec<f64> = models.iter().map(TargetModel::total_capacity).collect();
        caps.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let cap_max = caps[0];
        // The budget-free view: what the pipelines could hold if only
        // per-stage capacity bound. On default networks this equals the
        // clamped numbers, so the budget-specific certificates never fire.
        let pipe_max =
            models.iter().map(TargetModel::pipeline_capacity).fold(f64::NEG_INFINITY, f64::max);

        for node in tdg.nodes() {
            let r = node.mat.resource();
            if !fits(r, cap_max) {
                if fits(r, pipe_max) {
                    certs.push(Certificate::MatExceedsTargetBudget {
                        mat: node.name.clone(),
                        resource: r,
                        max_capacity: cap_max,
                        max_pipeline: pipe_max,
                    });
                } else {
                    certs.push(Certificate::MatTooLarge {
                        mat: node.name.clone(),
                        resource: r,
                        max_capacity: cap_max,
                    });
                }
            }
        }

        let required = tdg.total_resource();
        let available: f64 = caps.iter().sum();
        if !fits(required, available) {
            let pipeline_available: f64 = models.iter().map(TargetModel::pipeline_capacity).sum();
            if fits(required, pipeline_available) {
                certs.push(Certificate::BudgetedCapacityInsufficient {
                    required,
                    available,
                    pipeline_available,
                });
            } else {
                certs.push(Certificate::InsufficientCapacity { required, available });
            }
        }

        // Minimum occupied switches: even packing greedily into the
        // largest switches, `needed` of them are required to hold Σ R.
        // Any real plan fragments at least this much, so this is a valid
        // lower bound on Q_occ.
        let mut needed = 1usize;
        {
            let mut acc = 0.0;
            let mut k = 0usize;
            while !fits(required, acc) && k < caps.len() {
                acc += caps[k];
                k += 1;
            }
            needed = needed.max(k.max(1));
        }

        // Chain bound: `longest` MATs in dependency sequence need strictly
        // increasing stages when co-resident (Eq. 8), so a chain longer
        // than the deepest pipeline must split across >= 2 switches —
        // and the chain's bottleneck edge byte count floors A_max. A
        // software target has no architectural stage limit
        // (`stage_limit() == None`), so its presence disables the bound.
        let max_stages = models
            .iter()
            .map(|m| m.stage_limit())
            .try_fold(0usize, |acc, limit| limit.map(|l| acc.max(l)));
        let longest = longest_chain(tdg);
        let mut amax_floor = 0u64;
        let mut witness = String::new();
        let mut route_needed = false;
        if let (Some((len, path)), Some(max_stages)) = (&longest, max_stages) {
            if *len > max_stages {
                route_needed = true;
                needed = needed.max(2);
                if prog.len() < 2 {
                    certs.push(Certificate::SwitchFloorExceedsNetwork {
                        needed: 2,
                        programmable: prog.len(),
                    });
                }
                if let Some(bottleneck) = chain_bottleneck(tdg, path) {
                    if bottleneck > amax_floor {
                        amax_floor = bottleneck;
                        witness = format!(
                            "a {len}-MAT chain exceeds the deepest {max_stages}-stage pipeline; \
                             its weakest edge carries {bottleneck} B"
                        );
                    }
                }
            }
        }

        // Pairwise bound: an edge whose endpoints cannot share even the
        // largest switch must cross in every plan, so its bytes floor
        // A_max directly. Relaxed edges still force a second switch when
        // their endpoints cannot co-reside (that part is pure resource
        // arithmetic) but they mandate no route and carry no bytes, so
        // they never raise the route count or the A_max floor.
        for e in tdg.edges() {
            let (a, b) = (tdg.node(e.from), tdg.node(e.to));
            if !fits(a.mat.resource() + b.mat.resource(), cap_max) {
                needed = needed.max(2);
                if e.dep.is_relaxed() {
                    continue;
                }
                route_needed = true;
                if u64::from(e.bytes) > amax_floor {
                    amax_floor = u64::from(e.bytes);
                    witness = format!(
                        "`{}` -> `{}` cannot co-reside (R = {:.2} + {:.2} > {:.2})",
                        a.name,
                        b.name,
                        a.mat.resource(),
                        b.mat.resource(),
                        cap_max
                    );
                }
            }
        }

        if needed > eps.max_switches {
            certs.push(Certificate::SwitchFloorExceedsBound { needed, bound: eps.max_switches });
        }

        // Latency floor: every inter-switch route pays at least its two
        // (distinct, programmable) endpoint switches plus one link. A
        // weakly connected TDG spread over `needed` switches crosses at
        // least `needed - 1` distinct switch pairs.
        let strict_edges = tdg.edge_count() - relaxed_edge_count(tdg);
        let mut min_routes = usize::from(route_needed);
        if needed >= 2 && strict_edges > 0 && weakly_connected(tdg) {
            min_routes = min_routes.max(needed - 1);
        }
        if min_routes > 0 && eps.max_latency_us.is_finite() {
            let mut lats: Vec<f64> = prog.iter().map(|&s| net.switch(s).latency_us).collect();
            lats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let endpoint_floor = if lats.len() >= 2 { lats[0] + lats[1] } else { lats[0] };
            let min_link = net
                .links()
                .iter()
                .filter(|l| net.is_link_up(l.a, l.b))
                .map(|l| l.latency_us)
                .fold(f64::INFINITY, f64::min);
            // No up link at all still lower-bounds each route by its
            // endpoints (the route itself is then impossible, but the
            // weaker bound keeps the certificate finite and sound).
            let link_floor = if min_link.is_finite() { min_link } else { 0.0 };
            let floor_us = min_routes as f64 * (endpoint_floor + link_floor);
            if floor_us > eps.max_latency_us {
                certs.push(Certificate::LatencyFloorExceedsBound {
                    floor_us,
                    bound_us: eps.max_latency_us,
                });
            }
        }

        if amax_floor > 0 {
            certs.push(Certificate::AmaxFloor { bytes: amax_floor, witness });
        }

        let relaxed_edges = relaxed_edge_count(tdg);
        if relaxed_edges > 0 {
            certs.push(Certificate::RelaxationApplied {
                relaxed_edges,
                total_edges: tdg.edge_count(),
            });
        }

        // Deterministic presentation: infeasibility certificates first
        // (stable within each class by construction order above).
        certs.sort_by_key(|c| usize::from(!c.is_infeasible()));
        Precheck { certificates: certs }
    }

    /// The first infeasibility certificate, if any.
    pub fn infeasible(&self) -> Option<&Certificate> {
        self.certificates.iter().find(|c| c.is_infeasible())
    }

    /// The proven lower bound on `A_max` (0 when no mandatory cut exists).
    pub fn amax_floor(&self) -> u64 {
        self.certificates
            .iter()
            .filter_map(|c| match c {
                Certificate::AmaxFloor { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Longest path in the DAG by node count, with one witness path.
/// `None` when the graph is cyclic (the audit reports that separately;
/// no chain bound is emitted then). Relaxed edges impose no Eq. 8 stage
/// ordering, so they do not extend chains — a relaxed dependency between
/// co-resident MATs never forces an extra pipeline stage.
fn longest_chain(tdg: &Tdg) -> Option<(usize, Vec<NodeId>)> {
    let order = tdg.topo_order()?;
    let n = tdg.node_count();
    // dist[v] = longest chain ending at v (in nodes); pred for the witness.
    let mut dist = vec![1usize; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    for &u in order {
        for e in tdg.out_edges(u) {
            if e.dep.is_relaxed() {
                continue;
            }
            let v = e.to;
            if dist[u.index()] + 1 > dist[v.index()] {
                dist[v.index()] = dist[u.index()] + 1;
                pred[v.index()] = Some(u);
            }
        }
    }
    let end = order.iter().copied().max_by_key(|v| dist[v.index()])?;
    let mut path = vec![end];
    while let Some(p) = pred[path[path.len() - 1].index()] {
        path.push(p);
    }
    path.reverse();
    Some((dist[end.index()], path))
}

/// The smallest edge weight along consecutive `path` hops — the bytes any
/// split of the chain must pay at minimum.
fn chain_bottleneck(tdg: &Tdg, path: &[NodeId]) -> Option<u64> {
    path.windows(2)
        .map(|w| {
            tdg.out_edges(w[0])
                .filter(|e| e.to == w[1] && !e.dep.is_relaxed())
                .map(|e| u64::from(e.bytes))
                .max()
                .unwrap_or(0)
        })
        .min()
}

/// Number of edges carrying a relaxed dependency type.
fn relaxed_edge_count(tdg: &Tdg) -> usize {
    tdg.edges().iter().filter(|e| e.dep.is_relaxed()).count()
}

/// Undirected connectivity of the dependency graph over *strict* edges
/// only. Relaxed edges mandate no route, so a graph held together solely
/// by them can legally split across switches without paying any
/// coordination latency — counting them here would make the latency
/// floor unsound.
fn weakly_connected(tdg: &Tdg) -> bool {
    let n = tdg.node_count();
    let mut seen = vec![false; n];
    let mut stack: Vec<NodeId> = tdg.node_ids().take(1).collect();
    let mut count = 0usize;
    while let Some(u) = stack.pop() {
        if std::mem::replace(&mut seen[u.index()], true) {
            continue;
        }
        count += 1;
        let neighbours =
            tdg.out_edges(u).map(|e| (e.dep, e.to)).chain(tdg.in_edges(u).map(|e| (e.dep, e.from)));
        stack.extend(neighbours.filter(|(dep, _)| !dep.is_relaxed()).map(|(_, v)| v));
    }
    count == n
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::test_support::{chain_tdg, tiny_switches};
    use hermes_net::{topology, Switch};

    #[test]
    fn empty_tdg_yields_no_certificates() {
        let tdg = Tdg::new(hermes_tdg::AnalysisMode::Intersection);
        let net = tiny_switches(2, 2, 1.0);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre.certificates.is_empty());
        assert!(pre.infeasible().is_none());
        assert_eq!(pre.amax_floor(), 0);
    }

    #[test]
    fn no_programmable_switch_is_certified() {
        let tdg = chain_tdg(&[4], 0.5);
        let mut net = hermes_net::Network::new();
        net.add_switch(Switch::legacy("l0"));
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        let cert = pre.infeasible().expect("infeasible");
        assert_eq!(cert.code(), "HC301");
    }

    #[test]
    fn oversized_mat_is_certified() {
        // Each switch holds 2 stages x 0.5 = 1.0; one MAT demands 3.0.
        let tdg = chain_tdg(&[4], 3.0);
        let net = tiny_switches(2, 2, 0.5);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre.certificates.iter().any(|c| matches!(c, Certificate::MatTooLarge { .. })));
    }

    #[test]
    fn total_demand_over_capacity_is_certified() {
        // 3 MATs x 0.8 = 2.4 demand vs 2 switches x 1.0 capacity.
        let tdg = chain_tdg(&[1, 1], 0.8);
        let net = tiny_switches(2, 2, 0.5);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre
            .certificates
            .iter()
            .any(|c| matches!(c, Certificate::InsufficientCapacity { .. })));
    }

    #[test]
    fn switch_floor_vs_eps2_is_certified() {
        // 4 MATs x 0.5 need 2 switches of capacity 1.0, eps2 = 1.
        let tdg = chain_tdg(&[1, 1, 1], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::new(f64::INFINITY, 1);
        let pre = Precheck::run(&tdg, &net, &eps);
        let cert = pre.infeasible().expect("infeasible");
        assert_eq!(cert.code(), "HC305");
        assert!(matches!(cert, Certificate::SwitchFloorExceedsBound { needed: 2, bound: 1 }));
    }

    #[test]
    fn latency_floor_vs_eps1_is_certified() {
        // Forced split (2.4 demand over 1.0-capacity switches) and an eps1
        // below one hop of the 1 us + 10 us + 1 us linear testbed.
        let tdg = chain_tdg(&[1, 1], 0.8);
        let net = tiny_switches(4, 2, 0.5);
        let eps = Epsilon::new(5.0, usize::MAX);
        let pre = Precheck::run(&tdg, &net, &eps);
        assert!(pre
            .certificates
            .iter()
            .any(|c| matches!(c, Certificate::LatencyFloorExceedsBound { .. })));
    }

    #[test]
    fn mandatory_cut_floors_amax() {
        // Two 0.7-resource MATs cannot share a 1.0-capacity switch; the
        // 9-byte edge between them must cross.
        let tdg = chain_tdg(&[9], 0.7);
        let net = tiny_switches(2, 2, 0.5);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre.infeasible().is_none(), "{:?}", pre.certificates);
        assert_eq!(pre.amax_floor(), 9);
    }

    #[test]
    fn chain_longer_than_pipeline_forces_split() {
        // 5-node chain vs 2-stage switches: must split; bottleneck edge
        // floors A_max at the minimum edge byte count.
        let tdg = chain_tdg(&[7, 5, 6, 8], 0.1);
        let net = tiny_switches(3, 2, 0.5);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre.infeasible().is_none());
        assert_eq!(pre.amax_floor(), 5);
    }

    #[test]
    fn feasible_instance_yields_no_infeasibility() {
        let tdg = chain_tdg(&[1, 4], 0.2);
        let net = topology::linear(3, 10.0);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre.infeasible().is_none(), "{:?}", pre.certificates);
    }

    #[test]
    fn relaxed_chain_is_exempt_from_split_bounds() {
        use hermes_dataplane::action::{Action, FoldOp, PrimitiveOp};
        use hermes_dataplane::fields::Field;
        use hermes_dataplane::mat::Mat;
        use hermes_tdg::{AnalysisMode, DependencyType};

        // Strict baseline: a 5-MAT chain exceeds the only switch's 2-stage
        // pipeline, so the split it forces cannot be hosted.
        let strict = chain_tdg(&[4, 4, 4, 4], 0.1);
        let net = tiny_switches(1, 2, 0.5);
        let pre = Precheck::run(&strict, &net, &Epsilon::loose());
        assert!(pre.infeasible().is_some());

        // Relaxed: the same shape over one commutative fold accumulator
        // mandates neither stage ordering nor routes — one switch suffices
        // and no A_max floor survives.
        let acc = Field::metadata("acc", 4);
        let src = Field::header("v", 4);
        let mats: Vec<(String, Mat)> = (0..5)
            .map(|i| {
                let mat = Mat::builder(format!("f{i}"))
                    .resource(0.1)
                    .capacity(8 + i)
                    .action(Action::new(format!("fold{i}")).with_op(PrimitiveOp::Fold {
                        dst: acc.clone(),
                        srcs: vec![src.clone()],
                        op: FoldOp::Add,
                    }))
                    .build()
                    .unwrap();
                (format!("p.f{i}"), mat)
            })
            .collect();
        let edges = (0..4).map(|i| (i, i + 1, DependencyType::RelaxedMatch)).collect();
        let relaxed = Tdg::from_mats_and_edges(mats, edges, AnalysisMode::RelaxedState);
        let pre = Precheck::run(&relaxed, &net, &Epsilon::loose());
        assert!(pre.infeasible().is_none(), "{:?}", pre.certificates);
        assert_eq!(pre.amax_floor(), 0);
        let notice = pre
            .certificates
            .iter()
            .find(|c| matches!(c, Certificate::RelaxationApplied { .. }))
            .expect("HC310 notice");
        assert_eq!(notice.code(), "HC310");
        assert!(!notice.is_infeasible());
    }

    #[test]
    fn relaxed_pair_still_counts_toward_switch_floor() {
        use hermes_dataplane::action::{Action, FoldOp, PrimitiveOp};
        use hermes_dataplane::fields::Field;
        use hermes_dataplane::mat::Mat;
        use hermes_tdg::{AnalysisMode, DependencyType};

        // Two 0.7-unit folders cannot share a 1.0-capacity switch. The
        // relaxed edge waives the route (no A_max floor) but the resource
        // arithmetic still needs two switches, so eps2 = 1 is infeasible.
        let acc = Field::metadata("acc", 4);
        let src = Field::header("v", 4);
        let mats: Vec<(String, Mat)> = (0..2)
            .map(|i| {
                let mat = Mat::builder(format!("f{i}"))
                    .resource(0.7)
                    .capacity(8 + i)
                    .action(Action::new(format!("fold{i}")).with_op(PrimitiveOp::Fold {
                        dst: acc.clone(),
                        srcs: vec![src.clone()],
                        op: FoldOp::Add,
                    }))
                    .build()
                    .unwrap();
                (format!("p.f{i}"), mat)
            })
            .collect();
        let edges = vec![(0, 1, DependencyType::RelaxedMatch)];
        let tdg = Tdg::from_mats_and_edges(mats, edges, AnalysisMode::RelaxedState);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::new(f64::INFINITY, 1);
        let pre = Precheck::run(&tdg, &net, &eps);
        assert!(matches!(
            pre.infeasible(),
            Some(Certificate::SwitchFloorExceedsBound { needed: 2, bound: 1 })
        ));
        assert_eq!(pre.amax_floor(), 0);
    }

    #[test]
    fn certificates_sort_infeasible_first() {
        // Oversized MAT (infeasible) + mandatory cut (floor): the
        // infeasibility must lead.
        let tdg = chain_tdg(&[9, 3], 1.5);
        let net = tiny_switches(2, 2, 0.5);
        let pre = Precheck::run(&tdg, &net, &Epsilon::loose());
        assert!(pre.certificates.len() >= 2);
        assert!(pre.certificates[0].is_infeasible());
        assert!(!pre.certificates.last().unwrap().is_infeasible());
    }
}
