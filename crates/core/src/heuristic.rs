//! The greedy-based heuristic of Hermes (paper §V-E, Algorithm 2).
//!
//! Two phases:
//!
//! 1. **Split** — recursively bisect the merged TDG at the topological
//!    prefix that minimizes the metadata crossing the cut, until every
//!    segment fits a single switch (total resource *and* a feasible stage
//!    assignment). Edges with large `A(a,b)` thus stay inside segments and
//!    only cheap edges cross switches.
//! 2. **Place** — for each programmable switch `u`, gather the `ε₂ − 1`
//!    nearest programmable switches within latency `ε₁` (`SELECT_SWITCHES`);
//!    when enough candidates exist, map the `i`-th segment to the `i`-th
//!    candidate and wire consecutive segments with latency-shortest paths.

use crate::deployment::{DeployError, DeploymentAlgorithm, DeploymentPlan, Epsilon, PlanRoute};
use crate::solver::{SearchContext, SolveOutcome, SolveStats, Solver};
use crate::stage_assign::{assign_stages, fits_total_capacity};
use crate::stage_cache::StageFeasCache;
use hermes_net::{nearest_programmable, shortest_path, Network, SwitchId, TargetModel};
use hermes_tdg::{NodeId, Tdg};
use std::collections::BTreeSet;
use std::time::Instant;

/// How the splitter chooses the cut position (ablation hook; the paper's
/// strategy is [`SplitStrategy::MinMetadata`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Cut at the topological prefix with minimum crossing metadata
    /// (Algorithm 2 lines 8–12).
    #[default]
    MinMetadata,
    /// Always cut in the middle (size-balanced); ignores metadata.
    Balanced,
    /// Cut at a position derived from a seed (deterministic "random").
    Random(u64),
}

/// The Hermes greedy heuristic.
///
/// # Examples
///
/// ```
/// use hermes_core::{GreedyHeuristic, DeploymentAlgorithm, Epsilon};
/// use hermes_dataplane::library;
/// use hermes_net::topology;
/// use hermes_tdg::{merge_all, AnalysisMode, Tdg};
///
/// let tdgs: Vec<Tdg> = library::real_programs()
///     .iter()
///     .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
///     .collect();
/// let merged = merge_all(tdgs);
/// let net = topology::linear(3, 10.0);
/// let plan = GreedyHeuristic::new().deploy(&merged, &net, &Epsilon::loose())?;
/// assert!(plan.occupied_switch_count() <= 3);
/// # Ok::<(), hermes_core::DeployError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GreedyHeuristic {
    strategy: SplitStrategy,
}

impl GreedyHeuristic {
    /// Heuristic with the paper's min-metadata split.
    pub fn new() -> Self {
        GreedyHeuristic::default()
    }

    /// Heuristic with an alternative split strategy (for ablations).
    pub fn with_strategy(strategy: SplitStrategy) -> Self {
        GreedyHeuristic { strategy }
    }

    /// Splits `tdg` into segments that each fit a switch with the given
    /// pipeline shape (the `SPLIT_TDG` recursion). Exposed so experiments
    /// can inspect segmentations directly.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::MatTooLarge`] when a single MAT cannot fit a
    /// switch by itself.
    pub fn split(
        &self,
        tdg: &Tdg,
        model: &TargetModel,
    ) -> Result<Vec<BTreeSet<NodeId>>, DeployError> {
        let order = placement_order(tdg);
        let all: BTreeSet<NodeId> = tdg.node_ids().collect();
        let mut segments = Vec::new();
        // One feasibility cache across the recursion *and* the coalescing
        // pass: the bisection re-probes the same node sets at many depths.
        let mut cache = StageFeasCache::new(tdg);
        self.split_rec(tdg, &order, all, model, &mut segments, 0, &mut cache)?;
        Ok(coalesce(tdg, segments, model, &mut cache))
    }

    #[allow(clippy::too_many_arguments)]
    fn split_rec(
        &self,
        tdg: &Tdg,
        topo: &[NodeId],
        nodes: BTreeSet<NodeId>,
        model: &TargetModel,
        out: &mut Vec<BTreeSet<NodeId>>,
        depth: u64,
        cache: &mut StageFeasCache,
    ) -> Result<(), DeployError> {
        if nodes.is_empty() {
            return Ok(());
        }
        // Algorithm 2 line 2: resource fit — tightened with a stage-assignment
        // probe so every returned segment is actually deployable.
        if fits_total_capacity(tdg, &nodes, model) && cache.feasible_set(tdg, model, &nodes) {
            out.push(nodes);
            return Ok(());
        }
        if nodes.len() == 1 {
            let id = *nodes.iter().next().expect("non-empty");
            return Err(DeployError::MatTooLarge {
                mat: tdg.node(id).name.clone(),
                resource: tdg.node(id).mat.resource(),
            });
        }

        // Restrict the global topological order to this segment.
        let local: Vec<NodeId> = topo.iter().copied().filter(|id| nodes.contains(id)).collect();
        let n = local.len();
        let cut = match self.strategy {
            SplitStrategy::MinMetadata => {
                // Enumerate prefix cuts, tracking crossing bytes incrementally:
                // moving node `a` into the prefix adds its out-edges into the
                // suffix and removes its in-edges from the prefix.
                let mut prefix: BTreeSet<NodeId> = BTreeSet::new();
                let mut best_cut = 1;
                let mut best_cross = u64::MAX;
                let mut cross: i64 = 0;
                for (k, &a) in local.iter().enumerate().take(n - 1) {
                    for e in tdg.in_edges(a) {
                        if prefix.contains(&e.from) {
                            cross -= i64::from(e.bytes);
                        }
                    }
                    for e in tdg.out_edges(a) {
                        if nodes.contains(&e.to) && !prefix.contains(&e.to) {
                            cross += i64::from(e.bytes);
                        }
                    }
                    prefix.insert(a);
                    let cross_u = u64::try_from(cross.max(0)).expect("non-negative");
                    if cross_u < best_cross {
                        best_cross = cross_u;
                        best_cut = k + 1;
                    }
                }
                best_cut
            }
            SplitStrategy::Balanced => n / 2,
            SplitStrategy::Random(seed) => {
                // splitmix64 on (seed, depth) for a deterministic pseudo-cut.
                let mut z = seed ^ depth.wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                1 + (z as usize) % (n - 1)
            }
        };
        let cut = cut.clamp(1, n - 1);
        let left: BTreeSet<NodeId> = local[..cut].iter().copied().collect();
        let right: BTreeSet<NodeId> = local[cut..].iter().copied().collect();
        self.split_rec(tdg, topo, left, model, out, depth * 2 + 1, cache)?;
        self.split_rec(tdg, topo, right, model, out, depth * 2 + 2, cache)?;
        Ok(())
    }
}

/// A topological order that keeps *related programs contiguous*: programs
/// sharing a (merged) MAT are unioned into a cluster, and Kahn's algorithm
/// breaks ties by `(cluster, program, node index)`. Prefix cuts then fall
/// between unrelated program groups, where the crossing metadata is
/// minimal — which is what lets the splitter co-locate, say, every sketch
/// with the 5-tuple hash they all consume.
pub fn placement_order(tdg: &Tdg) -> Vec<NodeId> {
    // Rank programs by first appearance over node indexes.
    let mut program_rank: std::collections::BTreeMap<&str, usize> = Default::default();
    for id in tdg.node_ids() {
        for p in &tdg.node(id).programs {
            let next = program_rank.len();
            program_rank.entry(p.as_str()).or_insert(next);
        }
    }
    // Union-find over programs: shared nodes merge their programs.
    let mut parent: Vec<usize> = (0..program_rank.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for id in tdg.node_ids() {
        let ranks: Vec<usize> =
            tdg.node(id).programs.iter().map(|p| program_rank[p.as_str()]).collect();
        for w in ranks.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    // Cluster rank = smallest member program rank; node keys follow.
    tdg.topo_order_by(|id| {
        let prog = tdg
            .node(id)
            .programs
            .iter()
            .map(|p| program_rank[p.as_str()])
            .min()
            .unwrap_or(usize::MAX);
        let cluster = if prog == usize::MAX { usize::MAX } else { find(&mut parent, prog) };
        (cluster, prog)
    })
    .expect("TDGs are DAGs")
}

/// The weakest pipeline any programmable switch offers: fewest
/// budget-effective stages, smallest per-stage capacity, tightest total
/// budget. Segments split against this model fit every switch. On a
/// homogeneous default network this is bit-identical to the paper's
/// `(min stages, min stage_capacity)` pair.
pub(crate) fn conservative_model(net: &Network, programmable: &[SwitchId]) -> TargetModel {
    let models: Vec<TargetModel> =
        programmable.iter().map(|&s| net.switch(s).target_model()).collect();
    let stages = models.iter().map(TargetModel::effective_stages).min().expect("non-empty");
    let capacity = models.iter().map(|m| m.stage_capacity).fold(f64::INFINITY, f64::min);
    let budget = models.iter().map(|m| m.total_budget).fold(f64::INFINITY, f64::min);
    let mut model = TargetModel::pipeline(stages, capacity);
    model.total_budget = budget;
    model
}

impl GreedyHeuristic {
    /// Capacity-bounded splitter used when the recursive bisection needs
    /// more switches than the network offers. Chooses cut positions along
    /// the topological order so that (a) every segment still fits one
    /// switch, (b) at most `max_segments` segments result, and (c) the
    /// *largest chosen boundary cost* — the metadata crossing that cut,
    /// which upper-bounds every pair's `A(u,v)` across it — is minimized
    /// via binary search over the distinct boundary costs.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::NoFeasiblePlacement`] when not even ignoring
    /// boundary costs yields `<= max_segments` feasible segments, and
    /// [`DeployError::MatTooLarge`] when one MAT alone overflows a switch.
    #[allow(clippy::needless_range_loop)] // `b` is a boundary position, not a `cost` iterator
    pub fn split_bounded(
        &self,
        tdg: &Tdg,
        model: &TargetModel,
        max_segments: usize,
    ) -> Result<Vec<BTreeSet<NodeId>>, DeployError> {
        let order = placement_order(tdg);
        let n = order.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        for &id in &order {
            let r = tdg.node(id).mat.resource();
            if !model.fits_total(r) {
                return Err(DeployError::MatTooLarge {
                    mat: tdg.node(id).name.clone(),
                    resource: r,
                });
            }
        }
        // cost[b] = metadata crossing the boundary before order[b].
        let pos: Vec<usize> = {
            let mut pos = vec![0usize; n];
            for (rank, id) in order.iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        let mut cost = vec![0u64; n + 1];
        for b in 1..n {
            cost[b] = tdg
                .edges()
                .iter()
                .filter(|e| pos[e.from.index()] < b && pos[e.to.index()] >= b)
                .map(|e| u64::from(e.bytes))
                .sum();
        }
        let mut thresholds: Vec<u64> = cost[1..n].to_vec();
        thresholds.push(u64::MAX);
        thresholds.sort_unstable();
        thresholds.dedup();

        // RefCell because both closures below need the memoized cache: the
        // binary search re-probes many (from, to) ranges across thresholds.
        let cache = std::cell::RefCell::new(StageFeasCache::new(tdg));
        let feasible_range = |from: usize, to: usize| -> bool {
            let set: BTreeSet<NodeId> = order[from..to].iter().copied().collect();
            fits_total_capacity(tdg, &set, model)
                && cache.borrow_mut().feasible_set(tdg, model, &set)
        };
        // Greedy check: extend each segment as far as possible, ending only
        // at boundaries within the cost threshold. Feasibility of a range
        // is monotone (removing nodes never hurts), so farthest-first is
        // optimal for segment count.
        let try_threshold = |t: u64| -> Option<Vec<(usize, usize)>> {
            let mut ranges = Vec::new();
            let mut from = 0usize;
            while from < n {
                let mut best_to = None;
                for to in (from + 1..=n).rev() {
                    if (to == n || cost[to] <= t) && feasible_range(from, to) {
                        best_to = Some(to);
                        break;
                    }
                }
                let to = best_to?;
                ranges.push((from, to));
                if ranges.len() > max_segments {
                    return None;
                }
                from = to;
            }
            Some(ranges)
        };

        let (mut lo, mut hi) = (0usize, thresholds.len() - 1);
        // Ensure some threshold works at all before bisecting.
        let mut best = match try_threshold(thresholds[hi]) {
            None => {
                return Err(DeployError::NoFeasiblePlacement {
                    reason: format!("cannot fit the TDG into {max_segments} switches"),
                })
            }
            Some(r) => Some((thresholds[hi], r)),
        };
        while lo < hi {
            let mid = (lo + hi) / 2;
            match try_threshold(thresholds[mid]) {
                Some(r) => {
                    best = Some((thresholds[mid], r));
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        let (_, ranges) = best.expect("checked above");
        Ok(ranges.into_iter().map(|(from, to)| order[from..to].iter().copied().collect()).collect())
    }
}

/// Merges adjacent segments back together whenever their union still fits
/// one switch. The recursive bisection can strand tiny segments (a cheap
/// cut near the graph's fringe); re-packing them onto the neighbouring
/// switch removes that pair's crossing metadata entirely, so coalescing
/// never increases `A_max` and reduces the switches required.
fn coalesce(
    tdg: &Tdg,
    segments: Vec<BTreeSet<NodeId>>,
    model: &TargetModel,
    cache: &mut StageFeasCache,
) -> Vec<BTreeSet<NodeId>> {
    let mut out: Vec<BTreeSet<NodeId>> = Vec::with_capacity(segments.len());
    for seg in segments {
        if let Some(last) = out.last_mut() {
            let mut union = last.clone();
            union.extend(seg.iter().copied());
            if fits_total_capacity(tdg, &union, model) && cache.feasible_set(tdg, model, &union) {
                *last = union;
                continue;
            }
        }
        out.push(seg);
    }
    out
}

/// Maximum accepted single-node moves of the refinement pass per deploy.
const REFINE_BUDGET: usize = 2_000;

impl DeploymentAlgorithm for GreedyHeuristic {
    fn name(&self) -> &str {
        match self.strategy {
            SplitStrategy::MinMetadata => "Hermes",
            SplitStrategy::Balanced => "Hermes(balanced-split)",
            SplitStrategy::Random(_) => "Hermes(random-split)",
        }
    }

    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        let programmable = net.programmable_switches();
        if programmable.is_empty() {
            return Err(DeployError::NoProgrammableSwitch);
        }
        if tdg.node_count() == 0 {
            return Ok(DeploymentPlan::new());
        }
        // Homogeneous-pipeline assumption of the paper, generalized to
        // heterogeneous targets: split against the weakest programmable
        // switch along every axis (fewest budget-effective stages, smallest
        // per-stage capacity, tightest budget) so segments fit anywhere.
        let split_model = conservative_model(net, &programmable);
        let mut segments = self.split(tdg, &split_model)?;

        // Algorithm 2 lines 21–29: enumerate anchor switches. Two passes:
        // first with the paper's recursive split, then — if no anchor has
        // enough candidates — with the capacity-bounded splitter.
        for pass in 0..2 {
            for u in net.switch_ids() {
                if !net.switch(u).programmable {
                    continue;
                }
                let extra = eps.max_switches.saturating_sub(1).min(programmable.len() - 1);
                let mut candidates = vec![u];
                candidates.extend(
                    nearest_programmable(net, u, extra, eps.max_latency_us)
                        .into_iter()
                        .map(|(s, _)| s),
                );
                if segments.len() > candidates.len() {
                    continue;
                }
                if let Some(plan) = self.try_place(tdg, net, eps, &segments, &candidates) {
                    return Ok(self.maybe_refine(tdg, net, plan, eps));
                }
            }
            if pass == 0 {
                let max_segments = eps.max_switches.min(programmable.len());
                match self.split_bounded(tdg, &split_model, max_segments) {
                    Ok(bounded) if bounded.len() < segments.len() => segments = bounded,
                    _ => break,
                }
            }
        }
        // Last-resort feasibility net: dependency-levelled first fit packs
        // tighter than any contiguous split of the clustered order, at the
        // cost of overhead-oblivious cuts — which the refinement pass then
        // claws back move by move.
        if let Some(plan) = self.first_fit_fallback(tdg, net, eps) {
            return Ok(self.maybe_refine(tdg, net, plan, eps));
        }
        Err(DeployError::NoFeasiblePlacement {
            reason: format!(
                "{} segments need {} candidate switches within eps2={} / eps1={} us",
                segments.len(),
                segments.len(),
                eps.max_switches,
                eps.max_latency_us
            ),
        })
    }
}

impl Solver for GreedyHeuristic {
    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let start = Instant::now();
        let plan = self.deploy(tdg, net, eps)?;
        let objective = plan.max_inter_switch_bytes(tdg);
        ctx.publish_incumbent(objective);
        Ok(SolveOutcome {
            plan,
            objective,
            // Zero bytes is a global lower bound, so a zero-overhead plan
            // is optimal; otherwise the heuristic proves nothing.
            proven_optimal: objective == 0,
            stats: SolveStats {
                nodes_explored: 0,
                wall: start.elapsed(),
                proven_bound: (objective == 0).then_some(0),
            },
        })
    }
}

impl GreedyHeuristic {
    /// Local-search refinement is part of the full Hermes pipeline; the
    /// ablation split strategies stay unrefined so their comparisons
    /// isolate the splitting objective.
    fn maybe_refine(
        &self,
        tdg: &Tdg,
        net: &Network,
        plan: DeploymentPlan,
        eps: &Epsilon,
    ) -> DeploymentPlan {
        match self.strategy {
            SplitStrategy::MinMetadata => crate::refine::refine(tdg, net, plan, eps, REFINE_BUDGET),
            _ => plan,
        }
    }

    /// Level-ordered first-fit packing (never returns to an earlier
    /// switch), used only when both splitters fail. Produces the same
    /// placements an overhead-oblivious baseline would.
    fn first_fit_fallback(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Option<DeploymentPlan> {
        // Dependency levels: a level sort is a topological sort.
        let order = tdg.topo_order().expect("TDGs are DAGs");
        let mut level = vec![0usize; tdg.node_count()];
        for &id in &order {
            for e in tdg.out_edges(id) {
                level[e.to.index()] = level[e.to.index()].max(level[id.index()] + 1);
            }
        }
        let mut nodes: Vec<NodeId> = tdg.node_ids().collect();
        nodes.sort_by_key(|&id| (level[id.index()], id.index()));

        let candidates = net.programmable_switches();
        let mut assign = vec![usize::MAX; tdg.node_count()];
        let mut current = 0usize;
        // The level order is a topological order, so every probe is an
        // incremental "current switch ∪ {id}" extension — the cache's
        // fast path — instead of a from-scratch repack per node.
        let mut cache = StageFeasCache::new(tdg);
        let mut words = vec![0u64; cache.word_len()];
        let mut on_current = 0usize;
        for &id in &nodes {
            loop {
                if current >= candidates.len() || current >= eps.max_switches {
                    return None;
                }
                let sw_model = net.switch(candidates[current]).target_model();
                if cache.feasible_with(tdg, &sw_model, &words, id) {
                    words[id.index() / 64] |= 1u64 << (id.index() % 64);
                    on_current += 1;
                    assign[id.index()] = current;
                    break;
                }
                if on_current == 0 {
                    return None; // a single MAT that fits no empty switch
                }
                current += 1;
                words.iter_mut().for_each(|w| *w = 0);
                on_current = 0;
            }
        }
        let plan = crate::exact::materialize(tdg, net, &candidates, &assign)?;
        (plan.end_to_end_latency_us() <= eps.max_latency_us
            && plan.occupied_switch_count() <= eps.max_switches)
            .then_some(plan)
    }

    fn try_place(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        segments: &[BTreeSet<NodeId>],
        candidates: &[SwitchId],
    ) -> Option<DeploymentPlan> {
        let mut plan = DeploymentPlan::new();
        for (i, segment) in segments.iter().enumerate() {
            let s = candidates[i];
            let model = net.switch(s).target_model();
            let placements = assign_stages(tdg, segment, s, &model).ok()?;
            for p in placements {
                plan.place(p);
            }
        }
        // Wire every dependent segment pair via the latency-shortest path
        // (lines 26–29 wire adjacent segments; non-adjacent dependencies —
        // e.g. a shared hash feeding a far-away consumer — need routes
        // too, or Eq. 7 is violated).
        let mut node_switch = vec![usize::MAX; tdg.node_count()];
        for (i, segment) in segments.iter().enumerate() {
            for &id in segment {
                node_switch[id.index()] = i;
            }
        }
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for e in tdg.edges() {
            let (u, v) = (node_switch[e.from.index()], node_switch[e.to.index()]);
            if u != usize::MAX && v != usize::MAX && u != v {
                pairs.insert((u, v));
            }
        }
        let mut total_latency = 0.0;
        for (u, v) in pairs {
            let path = shortest_path(net, candidates[u], candidates[v])?;
            total_latency += path.latency_us;
            plan.route(PlanRoute { from: candidates[u], to: candidates[v], path });
        }
        if total_latency > eps.max_latency_us {
            return None;
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Epsilon;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_net::{topology, Switch};
    use hermes_tdg::{merge_all, AnalysisMode};

    /// The Figure 4 worked example: five MATs a..e with dependency amounts
    /// chosen so the first min-metadata cut is {a,b,c}|{d,e} (3 bytes) and
    /// the final max inter-switch overhead is 4 bytes on switches that hold
    /// at most two MATs each.
    fn figure4_tdg() -> Tdg {
        let m = |n: &str, s: u32| Field::metadata(format!("meta.{n}"), s);
        let a = Mat::builder("a")
            .action(Action::writing("w", [m("ab", 4)]))
            .resource(0.5)
            .build()
            .unwrap();
        let b = Mat::builder("b")
            .match_field(m("ab", 4), MatchKind::Exact)
            .action(Action::writing("w", [m("bc", 4)]))
            .resource(0.5)
            .build()
            .unwrap();
        let c = Mat::builder("c")
            .match_field(m("bc", 4), MatchKind::Exact)
            .action(Action::writing("w", [m("cd", 1), m("ce", 2)]))
            .resource(0.5)
            .build()
            .unwrap();
        let d = Mat::builder("d")
            .match_field(m("cd", 1), MatchKind::Exact)
            .action(Action::writing("w", [m("de", 4)]))
            .resource(0.5)
            .build()
            .unwrap();
        let e = Mat::builder("e")
            .match_field(m("ce", 2), MatchKind::Exact)
            .match_field(m("de", 4), MatchKind::Exact)
            .action(Action::new("noop"))
            .resource(0.5)
            .build()
            .unwrap();
        let p =
            Program::builder("fig4").table(a).table(b).table(c).table(d).table(e).build().unwrap();
        // Intersection mode so each edge carries exactly its own field.
        Tdg::from_program(&p, AnalysisMode::Intersection)
    }

    /// Three switches that hold at most two 0.5-unit MATs each (2 stages of
    /// 0.5 capacity), linked linearly.
    fn figure4_network() -> Network {
        let mut net = Network::new();
        let mk = |name: &str| Switch { stages: 2, stage_capacity: 0.5, ..Switch::tofino(name) };
        let s1 = net.add_switch(mk("s1"));
        let s2 = net.add_switch(mk("s2"));
        let s3 = net.add_switch(mk("s3"));
        net.add_link(s1, s2, 10.0).unwrap();
        net.add_link(s2, s3, 10.0).unwrap();
        net
    }

    #[test]
    fn figure4_first_cut_minimizes_crossing_bytes() {
        let tdg = figure4_tdg();
        let h = GreedyHeuristic::new();
        let segments = h.split(&tdg, &TargetModel::pipeline(2, 0.5)).unwrap();
        assert_eq!(segments.len(), 3, "five MATs over two-MAT switches");
        // First segment boundary separates {a..} from {..e} such that the
        // overall plan overhead is 4 bytes.
        let net = figure4_network();
        let plan = h.deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 4);
    }

    #[test]
    fn figure4_beats_naive_packing() {
        // The paper's counterexample — {a,b}|{c,d}|{e} — is strictly worse.
        let tdg = figure4_tdg();
        let net = figure4_network();
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let naive_segments: Vec<BTreeSet<NodeId>> = vec![
            tdg.node_ids().take(2).collect(),
            tdg.node_ids().skip(2).take(2).collect(),
            tdg.node_ids().skip(4).collect(),
        ];
        let mut naive = DeploymentPlan::new();
        for (i, seg) in naive_segments.iter().enumerate() {
            for p in assign_stages(&tdg, seg, ids[i], &TargetModel::pipeline(2, 0.5)).unwrap() {
                naive.place(p);
            }
        }
        let hermes = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert!(
            hermes.max_inter_switch_bytes(&tdg) < naive.max_inter_switch_bytes(&tdg),
            "hermes {} vs naive {}",
            hermes.max_inter_switch_bytes(&tdg),
            naive.max_inter_switch_bytes(&tdg)
        );
    }

    #[test]
    fn whole_tdg_on_one_switch_when_it_fits() {
        let tdg = Tdg::from_program(&library::l3_router(), AnalysisMode::PaperLiteral);
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.occupied_switch_count(), 1);
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 0);
        assert!(plan.routes().is_empty());
    }

    #[test]
    fn all_real_programs_deploy_on_testbed() {
        let merged = merge_all(
            library::real_programs()
                .iter()
                .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
                .collect(),
        );
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&merged, &net, &Epsilon::loose()).unwrap();
        // Every node placed exactly on one switch.
        for id in merged.node_ids() {
            assert!(plan.switch_of(id).is_some(), "{} unplaced", merged.node(id).name);
        }
    }

    #[test]
    fn epsilon2_restricts_candidates() {
        let tdg = figure4_tdg();
        let net = figure4_network();
        // Needs 3 switches; eps2 = 2 makes it infeasible.
        let eps = Epsilon::new(f64::INFINITY, 2);
        let err = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
    }

    #[test]
    fn epsilon1_restricts_latency() {
        let tdg = figure4_tdg();
        let net = figure4_network();
        // Two coordination hops cost ~24us each side; 1us is impossible.
        let eps = Epsilon::new(1.0, usize::MAX);
        let err = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
    }

    #[test]
    fn no_programmable_switch_is_an_error() {
        let mut net = Network::new();
        net.add_switch(Switch::legacy("l"));
        let tdg = figure4_tdg();
        let err = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert_eq!(err, DeployError::NoProgrammableSwitch);
    }

    #[test]
    fn oversized_mat_reported() {
        let huge = Mat::builder("huge").resource(50.0).action(Action::new("a")).build().unwrap();
        let p = Program::builder("p").table(huge).build().unwrap();
        let tdg = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        let net = topology::linear(3, 10.0);
        let err = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert!(matches!(err, DeployError::MatTooLarge { .. }));
    }

    #[test]
    fn split_strategies_differ_but_stay_feasible() {
        let tdg = figure4_tdg();
        for strat in [SplitStrategy::Balanced, SplitStrategy::Random(7)] {
            let h = GreedyHeuristic::with_strategy(strat);
            let segs = h.split(&tdg, &TargetModel::pipeline(2, 0.5)).unwrap();
            let total: usize = segs.iter().map(BTreeSet::len).sum();
            assert_eq!(total, 5, "{strat:?} loses nodes");
        }
    }

    #[test]
    fn min_metadata_never_worse_than_random_on_chain() {
        let tdg = figure4_tdg();
        // A larger network than Figure 4's, because random splits can
        // produce more (smaller) segments than the min-metadata split.
        let mut net = Network::new();
        let mk = |name: String| Switch { stages: 2, stage_capacity: 0.5, ..Switch::tofino(name) };
        let ids: Vec<SwitchId> = (0..5).map(|i| net.add_switch(mk(format!("s{i}")))).collect();
        for w in ids.windows(2) {
            net.add_link(w[0], w[1], 10.0).unwrap();
        }
        let paper = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let random = GreedyHeuristic::with_strategy(SplitStrategy::Random(3))
            .deploy(&tdg, &net, &Epsilon::loose())
            .unwrap();
        assert!(paper.max_inter_switch_bytes(&tdg) <= random.max_inter_switch_bytes(&tdg));
    }

    #[test]
    fn empty_tdg_deploys_trivially() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        let net = topology::linear(2, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.placements().len(), 0);
    }
}
