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
//!
//! A segment is a range of the [`placement_order`]: the bisection only ever
//! cuts a contiguous run in two, coalescing joins neighbours and the
//! bounded splitter picks boundaries, so membership and prefix tests are
//! position comparisons and "does it fit" is one [`StageProbe`] question
//! over `pos ∈ range`. Node sets are built only at the `pub` boundary.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use crate::solver::{DeploymentAlgorithm, SearchContext, SolveOutcome, SolveStats};
use crate::stage_assign::{materialize, StageProbe};
use hermes_net::{nearest_programmable, Network, SwitchId, TargetModel};
use hermes_tdg::{NodeId, Tdg};
use std::collections::BTreeSet;
use std::ops::Range;
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
    /// switch by itself, and [`DeployError::NoFeasiblePlacement`] when the
    /// TDG has a dependency cycle.
    pub fn split(
        &self,
        tdg: &Tdg,
        model: &TargetModel,
    ) -> Result<Vec<BTreeSet<NodeId>>, DeployError> {
        let mut splitter = Splitter::new(tdg, model)?;
        let segments = splitter.split(self.strategy)?;
        Ok(splitter.node_sets(&segments))
    }

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
    /// boundary costs yields `<= max_segments` feasible segments or the TDG
    /// has a dependency cycle, and [`DeployError::MatTooLarge`] when one
    /// MAT alone overflows a switch.
    pub fn split_bounded(
        &self,
        tdg: &Tdg,
        model: &TargetModel,
        max_segments: usize,
    ) -> Result<Vec<BTreeSet<NodeId>>, DeployError> {
        let mut splitter = Splitter::new(tdg, model)?;
        let segments = splitter.split_bounded(max_segments)?;
        Ok(splitter.node_sets(&segments))
    }
}

fn mat_too_large(tdg: &Tdg, id: NodeId) -> DeployError {
    let node = tdg.node(id);
    DeployError::MatTooLarge { mat: node.name.clone(), resource: node.mat.resource() }
}

/// A run of consecutive positions of the [`placement_order`].
type Segment = Range<usize>;

/// Both splitters' state for one TDG and one pipeline shape.
struct Splitter<'a> {
    tdg: &'a Tdg,
    model: &'a TargetModel,
    /// The [`placement_order`].
    order: Vec<NodeId>,
    /// Node index → position in `order`.
    pos: Vec<usize>,
    probe: StageProbe<'a>,
}

impl<'a> Splitter<'a> {
    fn new(tdg: &'a Tdg, model: &'a TargetModel) -> Result<Self, DeployError> {
        let order = placement_order(tdg).ok_or_else(DeployError::dependency_cycle)?;
        let mut pos = vec![0usize; order.len()];
        for (rank, id) in order.iter().enumerate() {
            pos[id.index()] = rank;
        }
        Ok(Splitter { tdg, model, order, pos, probe: StageProbe::new(tdg) })
    }

    fn node_sets(&self, segments: &[Segment]) -> Vec<BTreeSet<NodeId>> {
        segments.iter().map(|seg| self.order[seg.clone()].iter().copied().collect()).collect()
    }

    /// Algorithm 2 line 2: resource fit — tightened with a stage-assignment
    /// probe so every returned segment is actually deployable.
    fn fits(&mut self, seg: &Segment) -> bool {
        let pos = &self.pos;
        self.probe.fits(self.model, |id| seg.contains(&pos[id.index()]))
    }

    /// The recursive bisection, then [`Splitter::coalesce`].
    fn split(&mut self, strategy: SplitStrategy) -> Result<Vec<Segment>, DeployError> {
        let mut segments = Vec::new();
        self.split_rec(strategy, 0..self.order.len(), 0, &mut segments)?;
        Ok(self.coalesce(segments))
    }

    fn split_rec(
        &mut self,
        strategy: SplitStrategy,
        seg: Segment,
        depth: u64,
        out: &mut Vec<Segment>,
    ) -> Result<(), DeployError> {
        if seg.is_empty() {
            return Ok(());
        }
        if self.fits(&seg) {
            out.push(seg);
            return Ok(());
        }
        let n = seg.len();
        if n == 1 {
            return Err(mat_too_large(self.tdg, self.order[seg.start]));
        }

        let cut = match strategy {
            SplitStrategy::MinMetadata => {
                // Enumerate prefix cuts, tracking crossing bytes incrementally:
                // moving node `a` into the prefix adds its out-edges into the
                // suffix and removes its in-edges from the prefix.
                let mut best_cut = 1;
                let mut best_cross = u64::MAX;
                let mut cross: i64 = 0;
                for at in seg.start..seg.end - 1 {
                    let a = self.order[at];
                    for e in self.tdg.in_edges(a) {
                        if (seg.start..at).contains(&self.pos[e.from.index()]) {
                            cross -= i64::from(e.bytes);
                        }
                    }
                    for e in self.tdg.out_edges(a) {
                        if (at + 1..seg.end).contains(&self.pos[e.to.index()]) {
                            cross += i64::from(e.bytes);
                        }
                    }
                    let cross_u = cross.max(0).unsigned_abs();
                    if cross_u < best_cross {
                        best_cross = cross_u;
                        best_cut = at + 1 - seg.start;
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
        let cut = seg.start + cut.clamp(1, n - 1);
        self.split_rec(strategy, seg.start..cut, depth * 2 + 1, out)?;
        self.split_rec(strategy, cut..seg.end, depth * 2 + 2, out)
    }

    /// Merges adjacent segments back together whenever their union still
    /// fits one switch. The recursive bisection can strand tiny segments (a
    /// cheap cut near the graph's fringe); re-packing them onto the
    /// neighbouring switch removes that pair's crossing metadata entirely,
    /// so coalescing never increases `A_max` and reduces the switches
    /// required.
    fn coalesce(&mut self, segments: Vec<Segment>) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
        for seg in segments {
            if let Some(last) = out.last_mut() {
                let union = last.start..seg.end;
                if self.fits(&union) {
                    *last = union;
                    continue;
                }
            }
            out.push(seg);
        }
        out
    }

    /// [`GreedyHeuristic::split_bounded`] on ranges.
    fn split_bounded(&mut self, max_segments: usize) -> Result<Vec<Segment>, DeployError> {
        let n = self.order.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let fits_alone = |id: NodeId| self.model.fits_total(self.tdg.node(id).mat.resource());
        if let Some(&id) = self.order.iter().find(|&&id| !fits_alone(id)) {
            return Err(mat_too_large(self.tdg, id));
        }
        // cost[b] = metadata crossing the boundary before order[b]: an edge
        // from position p to position q crosses the boundaries p + 1..=q.
        let mut cost = vec![0u64; n + 1];
        for e in self.tdg.edges() {
            let crossed = self.pos[e.from.index()] + 1..=self.pos[e.to.index()];
            cost[crossed].iter_mut().for_each(|c| *c += u64::from(e.bytes));
        }
        let mut thresholds: Vec<u64> = cost[1..n].to_vec();
        thresholds.push(u64::MAX);
        thresholds.sort_unstable();
        thresholds.dedup();

        // Greedy check: extend each segment as far as possible, ending only
        // at boundaries within the cost threshold. Feasibility of a range
        // is monotone (removing nodes never hurts), so farthest-first is
        // optimal for segment count.
        let mut try_threshold = |t: u64| -> Option<Vec<Segment>> {
            let mut segments = Vec::new();
            let mut from = 0usize;
            while from < n {
                let to = (from + 1..=n)
                    .rev()
                    .find(|&to| (to == n || cost[to] <= t) && self.fits(&(from..to)))?;
                segments.push(from..to);
                if segments.len() > max_segments {
                    return None;
                }
                from = to;
            }
            Some(segments)
        };

        let (mut lo, mut hi) = (0usize, thresholds.len() - 1);
        // Ensure some threshold works at all before bisecting.
        let Some(mut best) = try_threshold(thresholds[hi]) else {
            return Err(DeployError::NoFeasiblePlacement {
                reason: format!("cannot fit the TDG into {max_segments} switches"),
            });
        };
        while lo < hi {
            let mid = (lo + hi) / 2;
            match try_threshold(thresholds[mid]) {
                Some(segments) => {
                    best = segments;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        Ok(best)
    }

    /// Node index → index of the segment holding it: the assignment that
    /// puts the `i`-th segment on the `i`-th candidate (Algorithm 2 lines
    /// 24–29, wired by [`materialize`]).
    fn assignment(&self, segments: &[Segment]) -> Vec<usize> {
        let mut assign = vec![usize::MAX; self.order.len()];
        for (i, seg) in segments.iter().enumerate() {
            for &id in &self.order[seg.clone()] {
                assign[id.index()] = i;
            }
        }
        assign
    }
}

/// A topological order that keeps *related programs contiguous*: programs
/// sharing a (merged) MAT are unioned into a cluster, and Kahn's algorithm
/// breaks ties by `(cluster, program, node index)`. Prefix cuts then fall
/// between unrelated program groups, where the crossing metadata is
/// minimal — which is what lets the splitter co-locate, say, every sketch
/// with the 5-tuple hash they all consume. `None` when the TDG has a
/// cycle.
pub fn placement_order(tdg: &Tdg) -> Option<Vec<NodeId>> {
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
}

/// The weakest pipeline any programmable switch offers: fewest
/// budget-effective stages, smallest per-stage capacity, tightest total
/// budget. Segments split against this model fit every switch. On a
/// homogeneous default network this is bit-identical to the paper's
/// `(min stages, min stage_capacity)` pair.
pub(crate) fn conservative_model(net: &Network, programmable: &[SwitchId]) -> TargetModel {
    let models: Vec<TargetModel> =
        programmable.iter().map(|&s| net.switch(s).target_model()).collect();
    let stages = models.iter().map(TargetModel::effective_stages).min().unwrap_or(0);
    let capacity = models.iter().map(|m| m.stage_capacity).fold(f64::INFINITY, f64::min);
    let budget = models.iter().map(|m| m.total_budget).fold(f64::INFINITY, f64::min);
    let mut model = TargetModel::pipeline(stages, capacity);
    model.total_budget = budget;
    model
}

/// Dependency level of each node: longest path from a root, the classic
/// FFL level function. `None` when the TDG has a cycle.
fn levels(tdg: &Tdg) -> Option<Vec<usize>> {
    let mut level = vec![0usize; tdg.node_count()];
    for &id in tdg.topo_order()? {
        for e in tdg.out_edges(id) {
            level[e.to.index()] = level[e.to.index()].max(level[id.index()] + 1);
        }
    }
    Some(level)
}

/// Dependency-levelled first fit (Jose et al., extended by the paper to
/// deploy on switches one by one): walk the TDG level by level —
/// `within_level` orders the MATs of one level — and pack MATs into the
/// current candidate until it cannot take the next one, then move on, never
/// back. It never looks at metadata amounts, so edges are cut wherever
/// capacity happens to run out: the FFL / FFLS baselines, and the greedy
/// heuristic's last-resort feasibility net.
///
/// # Errors
///
/// [`DeployError::NoProgrammableSwitch`] without candidates,
/// [`DeployError::MatTooLarge`] for a MAT no empty candidate holds, and
/// [`DeployError::NoFeasiblePlacement`] when the TDG has a dependency
/// cycle, the candidates or `ε₂` run out, a dependent pair is unroutable
/// or the routes exceed `ε₁`.
pub fn first_fit(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    candidates: &[SwitchId],
    within_level: impl Fn(NodeId, NodeId) -> std::cmp::Ordering,
) -> Result<DeploymentPlan, DeployError> {
    if candidates.is_empty() {
        return Err(DeployError::NoProgrammableSwitch);
    }
    // Order nodes by (level, tie-break), preserving dependency legality:
    // a node's level strictly exceeds all its predecessors', so a level
    // sort is a topological sort.
    let level = levels(tdg).ok_or_else(DeployError::dependency_cycle)?;
    let mut nodes: Vec<NodeId> = tdg.node_ids().collect();
    nodes
        .sort_by(|&a, &b| level[a.index()].cmp(&level[b.index()]).then_with(|| within_level(a, b)));

    // Pack greedily: try the current switch; on failure advance. Never
    // returns to an earlier switch, matching one-by-one deployment. Every
    // probe repacks "current switch ∪ {id}" in the canonical topological
    // order — the level order is a different first fit.
    let mut assign = vec![usize::MAX; tdg.node_count()];
    let mut probe = StageProbe::new(tdg);
    let (mut current, mut on_current) = (0usize, 0usize);
    for &id in &nodes {
        loop {
            if current >= candidates.len() || current >= eps.max_switches {
                return Err(DeployError::NoFeasiblePlacement {
                    reason: format!(
                        "first-fit ran out of switches after {current} (eps2 = {})",
                        eps.max_switches
                    ),
                });
            }
            let model = net.switch(candidates[current]).target_model();
            if probe.fits(&model, |n| n == id || assign[n.index()] == current) {
                assign[id.index()] = current;
                on_current += 1;
                break;
            }
            // A single MAT that fits no empty switch can never be placed.
            if on_current == 0 {
                return Err(mat_too_large(tdg, id));
            }
            current += 1;
            on_current = 0;
        }
    }

    materialize(tdg, net, eps, candidates, &assign)
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

    /// The construction, timed; it claims optimality only at zero bytes,
    /// a global lower bound.
    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        _ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        let start = Instant::now();
        let plan = self.deploy(tdg, net, eps)?;
        let objective = plan.max_inter_switch_bytes(tdg);
        let stats = SolveStats { nodes_explored: 0, wall: start.elapsed() };
        Ok(SolveOutcome { plan, objective, proven_optimal: objective == 0, stats })
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
        if eps.max_switches == 0 {
            return Err(DeployError::NoFeasiblePlacement {
                reason: "eps2 = 0 leaves no switch to occupy".to_owned(),
            });
        }
        // Homogeneous-pipeline assumption of the paper, generalized to
        // heterogeneous targets: split against the weakest programmable
        // switch along every axis (fewest budget-effective stages, smallest
        // per-stage capacity, tightest budget) so segments fit anywhere.
        let split_model = conservative_model(net, &programmable);
        let mut splitter = Splitter::new(tdg, &split_model)?;
        let mut segments = splitter.split(self.strategy)?;
        // Local-search refinement is part of the full Hermes pipeline; the
        // ablation split strategies stay unrefined so their comparisons
        // isolate the splitting objective.
        let refined = |plan| match self.strategy {
            SplitStrategy::MinMetadata => crate::refine::refine(tdg, net, plan, eps, REFINE_BUDGET),
            _ => plan,
        };

        // Algorithm 2 lines 21–29: enumerate anchor switches. Two passes:
        // first with the paper's recursive split, then — if no anchor has
        // enough candidates — with the capacity-bounded splitter.
        let mut most_candidates = 0;
        for pass in 0..2 {
            let assign = splitter.assignment(&segments);
            for u in net.switch_ids() {
                if !net.switch(u).programmable {
                    continue;
                }
                let extra = (eps.max_switches - 1).min(programmable.len() - 1);
                let mut candidates = vec![u];
                candidates.extend(
                    nearest_programmable(net, u, extra, eps.max_latency_us)
                        .into_iter()
                        .map(|(s, _)| s),
                );
                most_candidates = most_candidates.max(candidates.len());
                if segments.len() > candidates.len() {
                    continue;
                }
                let candidates = &candidates[..segments.len()];
                if let Ok(plan) = materialize(tdg, net, eps, candidates, &assign) {
                    return Ok(refined(plan));
                }
            }
            if pass == 0 {
                let max_segments = eps.max_switches.min(programmable.len());
                match splitter.split_bounded(max_segments) {
                    Ok(bounded) if bounded.len() < segments.len() => segments = bounded,
                    _ => break,
                }
            }
        }
        // Last-resort feasibility net: dependency-levelled first fit packs
        // tighter than any contiguous split of the clustered order, at the
        // cost of overhead-oblivious cuts — which the refinement pass then
        // claws back move by move.
        if let Ok(plan) = first_fit(tdg, net, eps, &programmable, |a, b| a.cmp(&b)) {
            return Ok(refined(plan));
        }
        Err(DeployError::NoFeasiblePlacement {
            reason: format!(
                "no anchor places {} segments: at most {most_candidates} candidate switches \
                 within eps2={} / eps1={} us",
                segments.len(),
                eps.max_switches,
                eps.max_latency_us
            ),
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::deployment::Epsilon;
    use crate::stage_assign::assign_stages;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_net::{topology, Switch};
    use hermes_tdg::{merge_all, AnalysisMode, DependencyType};

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
        // Needs 3 switches; eps2 = 2 makes it infeasible, and the error
        // names both counts: the segments and the candidates on offer.
        let eps = Epsilon::new(f64::INFINITY, 2);
        let err = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }));
        let text = err.to_string();
        assert!(text.contains("3 segments: at most 2 candidate switches"), "{text}");
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
    fn levels_respect_dependencies() {
        let tdg = Tdg::from_program(&library::l3_router(), AnalysisMode::PaperLiteral);
        let level = levels(&tdg).unwrap();
        for e in tdg.edges() {
            assert!(level[e.from.index()] < level[e.to.index()]);
        }
    }

    #[test]
    fn empty_tdg_deploys_trivially() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        let net = topology::linear(2, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.placements().len(), 0);
    }

    #[test]
    fn a_cyclic_tdg_is_a_typed_error() {
        // Neither the analyzer nor the JSON reader makes a cycle; built
        // directly, every entry point refuses it instead of panicking.
        let mats = library::real_programs()[0].tables()[..2]
            .iter()
            .map(|m| (m.name().to_owned(), m.clone()))
            .collect();
        let edges = vec![(0, 1, DependencyType::Successor), (1, 0, DependencyType::Successor)];
        let tdg = Tdg::from_mats_and_edges(mats, edges, AnalysisMode::PaperLiteral);
        let net = topology::linear(2, 10.0);
        let (eps, cyclic) = (Epsilon::loose(), DeployError::dependency_cycle());
        assert_eq!(GreedyHeuristic::new().deploy(&tdg, &net, &eps), Err(cyclic.clone()));
        let model = TargetModel::tofino();
        assert_eq!(GreedyHeuristic::new().split(&tdg, &model), Err(cyclic.clone()));
        assert_eq!(GreedyHeuristic::new().split_bounded(&tdg, &model, 2), Err(cyclic.clone()));
        let candidates = net.programmable_switches();
        assert_eq!(first_fit(&tdg, &net, &eps, &candidates, |a, b| a.cmp(&b)), Err(cyclic));
        assert_eq!(placement_order(&tdg), None);
        let everything = tdg.node_ids().collect();
        let refused = assign_stages(&tdg, &everything, candidates[0], &model);
        assert_eq!(refused, Err(crate::StageAssignError::DependencyCycle));
        assert!(!StageProbe::new(&tdg).fits(&model, |_| true));
    }
}
