//! The "Optimal" solver: exact minimization of `A_max`.
//!
//! Plays the role of the paper's Gurobi-based Hermes variant. Rather than
//! feeding the full stage-level MILP to the LP-based solver (see
//! [`crate::milp_formulation`] for that encoding), this solver branches
//! directly over MAT → switch assignments in topological order with
//! aggressive incumbent pruning:
//!
//! - the running `A_max` is monotone in the partial assignment, so any
//!   partial plan at or above the incumbent is cut;
//! - all per-step bookkeeping (pair bytes, the running `A_max`, per-switch
//!   occupancy, the switch order's transitive closure) lives in one
//!   per-worker [`IncrementalEval`] updated in O(delta) per place/unplace;
//! - each candidate switch carries a live incremental pipeline packing
//!   with exact-snapshot undo (`Packing::push_logged` / `revert`): because
//!   nodes are assigned in topological order, the per-switch packed state
//!   is exactly the prefix of a full repack, so pushing the node *is* the
//!   stage-feasibility check and rejects precisely the subtrees whose
//!   leaves would fail stage assignment — no accepted leaf changes;
//! - under an infinite latency bound with fully routable candidates,
//!   leaves are accepted from the evaluator's running objective alone,
//!   without materializing a plan;
//! - identical switches under loose ε-bounds are interchangeable, so the
//!   search only ever opens one fresh switch at a time (symmetry breaking);
//! - the pruning bound combines the subtree's own best leaf, the seed's
//!   objective and the best leaf any worker has recorded (cut 1 below);
//! - the greedy heuristic provides the initial incumbent, and a seed at
//!   the context's proven objective floor (0 unless a
//!   [`Precheck`](crate::precheck::Precheck) set it, as
//!   [`crate::solver::Portfolio`] does) is returned without a search;
//! - galloping contours look for the optimum under low ceilings before
//!   the final search (below).
//!
//! # Three cuts that keep the returned leaf
//!
//! The search returns the first leaf of minimum objective in DFS order
//! (below the entry bound). A cut may drop any subtree that holds no leaf
//! that beats what the search has already recorded, and the three below
//! drop nothing else; the test-only `oracle` module holds the outcome to a
//! plain DFS without them.
//!
//! 1. **One incumbent key for all workers.** Every recorded leaf lowers a
//!    shared lexicographic minimum `(objective, subtree index)`. A later
//!    subtree is cut at `A_max >=` its objective — its leaves could only
//!    tie, and a tie loses to the lower index — and an earlier one only at
//!    `>`. The reduction's answer, the lowest-index optimum, is never cut,
//!    however the workers interleave.
//! 2. **A lookahead at node entry.** One allocation-free pass over the
//!    unplaced nodes gives each a domain: the candidates ε₂ and capacity
//!    leave open, that precede (transitively) no switch holding one of its
//!    placed ancestors, and whose live packing has room for it from its
//!    earliest stage there. Placements only fill switches, raise start
//!    stages and grow the switch order, so every leaf below puts each node
//!    inside its domain: an empty domain, or nodes forced onto one switch
//!    that overflow it, mean no leaf below. The same holds for the lower
//!    bound — per node, the cheapest candidate of its domain, costing the
//!    largest pair its placed predecessors would load; per pair, its bytes
//!    plus those of the nodes forced onto it — so the incumbent cut applied
//!    to it drops only subtrees the cut would drop leaf by leaf.
//! 3. **A cycle test before the push.** [`IncrementalEval`] keeps the
//!    switch order's transitive closure, so a placement that would make it
//!    cyclic is refused before the packing push, the evaluator update and
//!    their undo — the same placements as testing after them.
//!
//! # Contours: the optimum before the proof
//!
//! Most of a search seeded with a poor incumbent goes into lowering it:
//! under a ceiling one above the optimum the committed `tight-exact`
//! instances take a fifth of their nodes. So between the seed and the
//! final search run **contours** (iterative deepening on the objective,
//! after Korf's depth-first iterative deepening, *Artificial Intelligence*
//! 27, 1985): searches from the root, with every cut above, under the
//! ceilings F+1, F+2, F+4, F+8, … strictly below the entry bound g, where F
//! is the context's objective floor. They share one budget of
//! `CONTOUR_NODES` nodes. How a contour ends decides what comes next:
//!
//! - **It completes and recorded a leaf.** Every earlier contour proved
//!   that no leaf lies below its own ceiling, so this leaf is of minimum
//!   objective. On the calling thread the DFS records a leaf only when it
//!   beats the last one, and on the pool the reduction takes the
//!   lowest-index one: either way it is the *first* leaf of minimum
//!   objective in DFS order — exactly the leaf the final search would
//!   return. It is returned, proven, with no final search.
//! - **It completes without a leaf.** Every leaf is at or above its
//!   ceiling; the next contour runs.
//! - **The budget stops it after a leaf of objective v** (the least any of
//!   its workers recorded). Every optimum is at most v; the final search
//!   runs under the ceiling v + 1, not v, so that the first leaf at v stays
//!   acceptable when v is the optimum.
//! - **The budget stops it before a leaf, or the ceilings reach g.** The
//!   final search runs under the entry bound, as if no contour had run.
//! - **The deadline stops it.** The solve ends, unproven.
//!
//! Contour nodes and prunes count in [`ParallelStats`] with the rest.
//!
//! # Parallel search
//!
//! Every search, a contour or the final one, runs on the calling thread as
//! one DFS from the root until that thread has explored
//! `HELPER_START_NODES` nodes in all, so a search that ends sooner, as most
//! do, never pays for a thread it cannot use. With helpers, the search
//! that outlives that threshold runs again from the root on the pool, with
//! every helper started at once, and so does every later search of the
//! solve; contours there spend what is left of their budget 64 nodes at a
//! time, at each worker's poll.
//!
//! On the pool the DFS is sharded into **independent subtree tasks**: a
//! breadth-first frontier expansion (in exact DFS candidate order) splits
//! the tree at a depth where enough independent subtree roots exist to feed
//! the workers, and each worker (the calling thread is worker 0) claims the
//! next canonical root from one shared atomic cursor and runs an iterative
//! DFS over it with its own reversible [`IncrementalEval`] + stage-packing
//! state (reset and replayed per root — no cross-worker sharing of mutable
//! state). Search frames live in a per-worker arena (`Vec<Frame>`) that is
//! reused across subtrees, so steady-state search allocates nothing.
//!
//! The calling thread records its leaves under root 0. A search that
//! stops — on the budget, the deadline or the helper threshold — files its
//! leaves under `u32::MAX`, past every frontier root, since its indices
//! mean nothing in another search: such a leaf loses every tie in the
//! reduction, where it matters only if the final search is stopped. A
//! search that completes keeps its indices, which decide its answer.
//!
//! **Determinism:** results are byte-identical to the sequential search
//! regardless of worker count or timing. Each worker accepts a leaf only
//! when it strictly beats `min(its subtree's best, the search's ceiling)`
//! — the subtree's best is timing-independent, and the ceiling is above
//! the optimum whatever a budget-stopped contour recorded — and the only
//! thing workers share, the key of cut 1 above (reset for each frontier),
//! never cuts the lowest-index optimum. The final answer is the
//! lexicographic minimum over `(objective, canonical subtree index)`, i.e.
//! the lowest-index optimal solution — exactly the leaf the sequential DFS
//! would have accepted last, whichever frontier indexed it. Optimality is
//! proven only when the frontier enumeration and every subtree ran to
//! completion.
//!
//! The [`SearchContext`] deadline bounds the worst case (polled every 64
//! nodes, by each pool worker before its first root, and before the final
//! search); the outcome reports whether optimality was proven, which the
//! execution-time experiment (Exp#3) uses to flag timed-out ILP-style runs.
//! A deadline stop never proves a leaf, however far the contours got.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use crate::eval::{IncrementalEval, UNASSIGNED};
use crate::heuristic::GreedyHeuristic;
use crate::solver::{DeploymentAlgorithm, SearchContext, SolveOutcome, SolveStats};
use crate::stage_assign::{materialize, Packing};
use hermes_net::{fits, mutually_reachable, Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Target number of subtree roots per worker when splitting the search
/// tree (the frontier deepens until `workers × ROOTS_PER_WORKER` roots
/// exist or the tree is exhausted). More roots smooth load balance at the
/// cost of more prefix replays.
const ROOTS_PER_WORKER: usize = 8;

/// Nodes the calling thread explores on its own, over all the searches of
/// a solve, before the solve uses the helper threads. The search it has not
/// finished by then runs again from the root on the pool, and so does every
/// later one. Starting a thread costs about what exploring a few hundred
/// nodes does.
const HELPER_START_NODES: u64 = 4096;

/// Nodes all the contours of one solve may explore together before the
/// final search runs. On the pool the contour workers spend what is left
/// of it 64 nodes at a time, at their poll.
const CONTOUR_NODES: u64 = 1 << 16;

/// The subtree index a search that stopped files its leaves under: past
/// every frontier root and the calling thread's root 0, so such a leaf
/// loses every tie to a completed search's.
const CONTOUR_ROOT: u32 = u32::MAX;

/// Exact `A_max` minimizer driven entirely by a [`SearchContext`] (no
/// private time budget). The greedy heuristic seeds the incumbent before
/// the search, so a deadline expiry still returns a plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalSolver;

impl OptimalSolver {
    /// The exact solver.
    pub fn new() -> Self {
        OptimalSolver
    }

    /// Like [`DeploymentAlgorithm::solve`], but also reports parallel-search telemetry
    /// (contour/worker/frontier/prune counters) alongside the outcome.
    /// Telemetry is zeroed on the trivial early-out paths that never start
    /// a search.
    pub fn solve_instrumented(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> (Result<SolveOutcome, DeployError>, ParallelStats) {
        self.solve_with_contour_budget(tdg, net, eps, ctx, CONTOUR_NODES)
    }

    /// [`OptimalSolver::solve_instrumented`] with the contours limited to
    /// `contour_nodes` nodes in all.
    fn solve_with_contour_budget(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
        contour_nodes: u64,
    ) -> (Result<SolveOutcome, DeployError>, ParallelStats) {
        let start = Instant::now();
        let candidates = net.programmable_switches();
        if candidates.is_empty() {
            return (Err(DeployError::NoProgrammableSwitch), ParallelStats::default());
        }
        if tdg.node_count() == 0 {
            return (
                Ok(SolveOutcome {
                    plan: DeploymentPlan::new(),
                    objective: 0,
                    proven_optimal: true,
                    stats: SolveStats { nodes_explored: 0, wall: start.elapsed() },
                }),
                ParallelStats::default(),
            );
        }

        // Seed with the heuristic so deadline expiry still has a plan to
        // return.
        let mut seed_plan: Option<(u64, DeploymentPlan)> = None;
        if let Ok(plan) = GreedyHeuristic::new().deploy(tdg, net, eps) {
            let objective = plan.max_inter_switch_bytes(tdg);
            if objective <= ctx.objective_floor() {
                // An incumbent at the proven floor (zero overhead, when no
                // floor was set) is already optimal.
                return (
                    Ok(SolveOutcome {
                        plan,
                        objective,
                        proven_optimal: true,
                        stats: SolveStats { nodes_explored: 0, wall: start.elapsed() },
                    }),
                    ParallelStats::default(),
                );
            }
            seed_plan = Some((objective, plan));
        }
        let seed = seed_plan.as_ref().map_or(u64::MAX, |(objective, _)| *objective);

        let Some(order) = tdg.topo_order() else {
            return (Err(DeployError::dependency_cycle()), ParallelStats::default());
        };
        let shared = SharedSearch::new(tdg, net, eps, order, &candidates, ctx, seed);
        let mut pstats = ParallelStats { workers: 1, ..ParallelStats::default() };
        let mut searches = Searches::new(&shared, ctx.worker_count().max(1));

        // The contours, then — unless one settled the solve or the deadline
        // stopped it — the final search.
        let end = searches.run_contours(ctx.objective_floor(), contour_nodes, &mut pstats);
        let leaf = searches.least_leaf();
        let exhausted = if end == End::Deadline || end == End::Complete && leaf.is_some() {
            end == End::Complete
        } else {
            // After a leaf of objective `v` every optimum is at most `v`, and
            // the first leaf at `v` must stay acceptable: the ceiling is
            // `v + 1`, which is at most the contour's own, so below `seed`.
            let ceiling = leaf.map_or(seed, |v| v + 1);
            shared.nodes_left.store(u64::MAX, Ordering::Relaxed);
            // A deadline that has passed stops the solve before the final
            // search starts.
            !ctx.should_stop() && searches.run(ceiling, u64::MAX, &mut pstats) == End::Complete
        };

        // Phase 3: deterministic reduction — the lexicographic minimum
        // over (objective, canonical subtree index), i.e. the lowest-index
        // optimal solution, exactly what the sequential DFS returns.
        let mut best: Option<(u64, u32)> = None;
        let mut best_assign: Option<Vec<usize>> = None;
        let mut explored = 0;
        for ex in searches.explorers {
            explored += ex.explored;
            pstats.bound_prunes += ex.bound_prunes;
            pstats.lookahead_prunes += ex.lookahead_prunes;
            pstats.cycle_rejects += ex.cycle_rejects;
            if let Some(key) = ex.best {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    best_assign = Some(ex.best_assign);
                }
            }
        }
        let own_best = best.map_or(seed, |(objective, _)| objective.min(seed));
        let mut best_plan = seed_plan;
        if let Some(assign) = best_assign {
            if let Ok(plan) = materialize(tdg, net, eps, &candidates, &assign) {
                best_plan = Some((plan.max_inter_switch_bytes(tdg).min(own_best), plan));
            }
        }
        // Exhaustion proves that no plan strictly below the best objective
        // the search recorded was missed; a recorded leaf that failed to
        // materialize leaves the seed above it, unproven.
        let result = match best_plan {
            Some((objective, plan)) => Ok(SolveOutcome {
                plan,
                objective,
                proven_optimal: exhausted && objective <= own_best
                    || objective <= ctx.objective_floor(),
                stats: SolveStats { nodes_explored: explored, wall: start.elapsed() },
            }),
            None => Err(DeployError::NoFeasiblePlacement {
                reason: if exhausted {
                    "exhausted assignment search without a feasible plan".to_owned()
                } else {
                    "search budget expired before any feasible plan".to_owned()
                },
            }),
        };
        (result, pstats)
    }
}

impl DeploymentAlgorithm for OptimalSolver {
    fn name(&self) -> &str {
        "Optimal"
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        self.solve_instrumented(tdg, net, eps, ctx).0
    }

    fn is_exhaustive(&self) -> bool {
        true
    }
}

/// Telemetry of one parallel exact solve (see
/// [`OptimalSolver::solve_instrumented`]). Unlike
/// [`SolveStats`], these counters are *not* part of the deterministic
/// outcome: shared-key prune counts depend on thread timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Contours run before the final search (see the module docs); one the
    /// pool ran again from the root counts once.
    pub contours: usize,
    /// The most workers any search of the solve ran with: the calling
    /// thread plus the helpers a frontier search started. 1 when the
    /// calling thread searched alone.
    pub workers: usize,
    /// Depth of the last subtree-splitting frontier built, that of the
    /// solve's last search on the pool (0 when every search ended on the
    /// calling thread, as at one worker).
    pub frontier_depth: usize,
    /// Number of independent subtree roots in that frontier (0 when every
    /// search ended on the calling thread, or when the enumeration alone
    /// exhausted the tree).
    pub subtree_roots: usize,
    /// Nodes cut by the incumbent bound (the ceiling or the shared key),
    /// contours included, like the two counters below.
    pub bound_prunes: u64,
    /// Nodes cut by the lookahead: an empty domain, an overfull forced
    /// switch, or a lower bound the incumbent cut rejects.
    pub lookahead_prunes: u64,
    /// Placements refused because they would close a switch-order cycle.
    pub cycle_rejects: u64,
}

/// Immutable per-solve state shared (by reference) across workers.
struct SharedSearch<'a> {
    tdg: &'a Tdg,
    net: &'a Network,
    eps: &'a Epsilon,
    order: &'a [NodeId],
    candidates: &'a [SwitchId],
    symmetric: bool,
    /// Leaves may be scored from `eval.amax()` without materializing.
    fast_leaves: bool,
    /// Per node: the position in `order` of its first ancestor
    /// (`usize::MAX` for none), so at depth `d` it has a placed ancestor
    /// iff the value is below `d`.
    reached_from: Vec<usize>,
    /// Per-candidate [`hermes_net::TargetModel::total_capacity`] (budget
    /// clamp included).
    total_caps: Vec<f64>,
    /// The seed's objective (`u64::MAX` without a seed): the bound the
    /// contours' ceilings stay below, and the final search's deterministic
    /// acceptance ceiling unless a contour the node budget stopped lowers
    /// it.
    entry_bound: u64,
    /// The lexicographic minimum `(objective, subtree index)` over every
    /// leaf any worker of the running search recorded, packed as
    /// `objective << 32 | index` ([`NO_KEY`] until then, and again at the
    /// start of each frontier search, whose roots are indexed afresh;
    /// objectives of 2³² B and more are not shared). `Relaxed` suffices:
    /// the key publishes no other data, and any value a worker reads is the
    /// key of some recorded leaf, which is all [`Explorer::cut`] needs.
    best_key: AtomicU64,
    /// What is left of the contours' node budget while a contour runs on
    /// the pool, spent 64 nodes at a time at each worker's poll;
    /// `u64::MAX` (no limit) at any other time. `Relaxed` suffices: the
    /// count publishes no other data.
    nodes_left: AtomicU64,
    ctx: &'a SearchContext,
}

impl<'a> SharedSearch<'a> {
    fn new(
        tdg: &'a Tdg,
        net: &'a Network,
        eps: &'a Epsilon,
        order: &'a [NodeId],
        candidates: &'a [SwitchId],
        ctx: &'a SearchContext,
        entry_bound: u64,
    ) -> Self {
        let symmetric = eps.max_latency_us.is_infinite()
            && candidates.windows(2).all(|w| {
                net.switch(w[0]).target_model().symmetric_to(&net.switch(w[1]).target_model())
            });
        let mut position = vec![0; tdg.node_count()];
        for (k, id) in order.iter().enumerate() {
            position[id.index()] = k;
        }
        let mut reached_from = vec![usize::MAX; tdg.node_count()];
        for &id in order {
            for e in tdg.in_edges(id) {
                let u = e.from.index();
                let first = position[u].min(reached_from[u]);
                reached_from[id.index()] = reached_from[id.index()].min(first);
            }
        }
        SharedSearch {
            tdg,
            net,
            eps,
            order,
            candidates,
            symmetric,
            // Leaf fast path precondition: with no latency bound and every
            // ordered candidate pair routable, a stage-feasible full
            // assignment is always materializable, so leaves can be scored
            // from the evaluator's running objective without building a
            // plan.
            fast_leaves: eps.max_latency_us.is_infinite() && mutually_reachable(net, candidates),
            reached_from,
            total_caps: candidates.iter().map(|&id| net.switch(id).total_capacity()).collect(),
            entry_bound,
            best_key: AtomicU64::new(NO_KEY),
            nodes_left: AtomicU64::new(u64::MAX),
            ctx,
        }
    }

    /// The 64-node poll: `true` when the search must stop — the deadline
    /// has passed, or a contour on the pool has spent the node budget.
    fn poll_stops(&self) -> bool {
        self.ctx.should_stop()
            || self.nodes_left.load(Ordering::Relaxed) != u64::MAX
                && self
                    .nodes_left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(64))
                    .is_err()
    }
}

/// [`SharedSearch::best_key`] before any leaf is recorded.
const NO_KEY: u64 = u64::MAX;

/// Slack on the lookahead's room test, far above the 1e-9 of
/// [`hermes_net::fits`], the 1e-12 a push may leave unplaced and the
/// rounding of both: a domain may only ever be too wide.
const ROOM_SLACK: f64 = 1e-6;

/// Sentinel candidate index for "nothing placed at this frame" and for a
/// lookahead domain of more than one candidate.
const NO_CANDIDATE: usize = usize::MAX;

/// One level of the iterative DFS, in the per-worker frame arena.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Next candidate index to try at this depth.
    next_c: usize,
    /// Candidate currently placed at this depth ([`NO_CANDIDATE`] = none).
    placed_c: usize,
    /// Undo-log base of the current placement's `push_logged`.
    log_base: usize,
    /// Symmetry-break cap (occupied switches at frame entry).
    used_switches: usize,
}

/// The deterministic subtree frontier: `count` prefixes of length `depth`
/// flattened into `prefixes` (stride = `depth`), in exact DFS candidate
/// order. The prefix index is the canonical subtree index used for
/// tie-breaking.
struct Frontier {
    prefixes: Vec<usize>,
    count: usize,
    depth: usize,
}

impl Frontier {
    fn prefix(&self, root: u32) -> &[usize] {
        let base = root as usize * self.depth;
        &self.prefixes[base..base + self.depth]
    }
}

/// Expands the search tree breadth-first (in DFS candidate order, applying
/// only deterministic prunes) until at least `target` independent subtree
/// roots exist, the tree bottoms out, or the poll stops the search. A
/// level that expands to zero prefixes proves the tree has no feasible
/// leaves below the explorer's ceiling.
fn build_frontier(ex: &mut Explorer<'_>, target: usize) -> Frontier {
    let n = ex.sh.order.len();
    let mut level: Vec<usize> = Vec::new();
    let mut count = 1usize; // depth 0: the single empty prefix
    let mut depth = 0usize;
    while depth < n && count < target && count > 0 {
        let mut next: Vec<usize> = Vec::with_capacity(count.saturating_mul(depth + 2));
        let mut next_count = 0usize;
        for i in 0..count {
            let prefix = &level[i * depth..(i + 1) * depth];
            next_count += ex.expand(prefix, &mut next);
            if ex.stopped {
                return Frontier { prefixes: Vec::new(), count: 0, depth };
            }
        }
        level = next;
        count = next_count;
        depth += 1;
    }
    Frontier { prefixes: level, count, depth }
}

/// How a search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// It ran to completion.
    Complete,
    /// The contours' node budget stopped it.
    Budget,
    /// The deadline stopped it.
    Deadline,
}

/// The explorers of one solve's searches: the calling thread's first, then
/// those of every search on the pool.
struct Searches<'a> {
    shared: &'a SharedSearch<'a>,
    workers: usize,
    /// A search has outlived [`HELPER_START_NODES`] on the calling thread:
    /// every search from then on runs on the pool.
    pooled: bool,
    explorers: Vec<Explorer<'a>>,
}

impl<'a> Searches<'a> {
    fn new(shared: &'a SharedSearch<'a>, workers: usize) -> Self {
        Searches { shared, workers, pooled: false, explorers: vec![Explorer::new(shared)] }
    }

    /// The contours up from the proven `floor`, within `budget` nodes in
    /// all (see the module docs), until one completes with a leaf, which
    /// settles the solve, or stops. Returns how the last one ended.
    fn run_contours(&mut self, floor: u64, budget: u64, pstats: &mut ParallelStats) -> End {
        let entry = self.shared.entry_bound;
        let ceilings = (0..u64::BITS).map_while(|k| floor.checked_add(1 << k));
        for ceiling in ceilings.take_while(|&ceiling| ceiling < entry) {
            pstats.contours += 1;
            let end = self.run(ceiling, budget, pstats);
            if end != End::Complete || self.least_leaf().is_some() {
                return end;
            }
        }
        End::Complete
    }

    /// One search from the root under `ceiling`, stopped once the contours
    /// have explored `budget` nodes in all (`u64::MAX`: no budget, the
    /// final search). It runs on the calling thread, its leaves under root
    /// 0, until that thread has explored [`HELPER_START_NODES`] nodes in
    /// all; with helpers, the search that outlives that runs again from the
    /// root as a frontier search, and so does every later one. A search
    /// that stops files its leaves under [`CONTOUR_ROOT`].
    fn run(&mut self, ceiling: u64, budget: u64, pstats: &mut ParallelStats) -> End {
        let sh = self.shared;
        if !self.pooled {
            let calling = &mut self.explorers[0];
            let helper_start = if self.workers > 1 { HELPER_START_NODES } else { u64::MAX };
            calling.ceiling = ceiling;
            calling.node_budget = budget.min(helper_start);
            calling.run_root(0, &[]);
            if !std::mem::take(&mut calling.stopped) {
                return End::Complete;
            }
            calling.best = calling.best.map(|(objective, _)| (objective, CONTOUR_ROOT));
            if calling.explored <= calling.node_budget {
                return End::Deadline;
            }
            if calling.explored > budget {
                return End::Budget;
            }
            // The helper threshold: the pool runs this search again.
            self.pooled = true;
            if budget != u64::MAX {
                sh.nodes_left.store(budget - calling.explored, Ordering::Relaxed);
            }
        }
        let first = self.explorers.len();
        self.explorers.extend(search_frontier(sh, ceiling, self.workers, pstats));
        let ran = &mut self.explorers[first..];
        if ran.iter().all(|ex| !ex.stopped) {
            return End::Complete;
        }
        // Its root indices mean nothing in the next frontier.
        for ex in ran {
            ex.best = ex.best.map(|(objective, _)| (objective, CONTOUR_ROOT));
        }
        if sh.nodes_left.load(Ordering::Relaxed) < 64 {
            End::Budget
        } else {
            End::Deadline
        }
    }

    /// The least objective of any leaf recorded so far.
    fn least_leaf(&self) -> Option<u64> {
        self.explorers.iter().filter_map(|ex| ex.best).map(|(objective, _)| objective).min()
    }
}

/// Phases 1 and 2 of a search below `ceiling` on the pool: the frontier
/// enumeration (single-threaded, exact DFS candidate order), then the
/// subtree pool — workers take roots in canonical order from one shared
/// cursor (a stopped enumeration leaves none). The calling thread is worker
/// 0 and starts every helper at once. Returns every worker's explorer and
/// the enumerator's; a helper's panic goes on up.
fn search_frontier<'a>(
    shared: &'a SharedSearch<'a>,
    ceiling: u64,
    requested_workers: usize,
    pstats: &mut ParallelStats,
) -> Vec<Explorer<'a>> {
    shared.best_key.store(NO_KEY, Ordering::Relaxed);
    let mut enumerator = Explorer { ceiling, ..Explorer::new(shared) };
    let frontier = build_frontier(&mut enumerator, requested_workers * ROOTS_PER_WORKER);
    let workers = requested_workers.min(frontier.count);
    let cursor = AtomicU32::new(0);
    let run = || run_worker(shared, ceiling, &frontier, &cursor);
    let mut explorers: Vec<Explorer<'a>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
        let calling = (workers > 0).then(run);
        let helpers = helpers
            .into_iter()
            .map(|helper| helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        calling.into_iter().chain(helpers).collect()
    });
    pstats.workers = pstats.workers.max(explorers.len());
    pstats.frontier_depth = frontier.depth;
    pstats.subtree_roots = frontier.count;
    explorers.push(enumerator);
    explorers
}

/// Explores roots claimed from `cursor` until the frontier is used up or
/// the context stops the search. The cursor publishes no data (the
/// frontier is immutable and every claimed index is distinct), so
/// `Relaxed` suffices; which worker runs a root never reaches the result.
fn run_worker<'a>(
    sh: &'a SharedSearch<'a>,
    ceiling: u64,
    frontier: &Frontier,
    cursor: &AtomicU32,
) -> Explorer<'a> {
    let mut ex = Explorer { ceiling, ..Explorer::new(sh) };
    ex.stopped = sh.ctx.should_stop();
    while !ex.stopped {
        let root = cursor.fetch_add(1, Ordering::Relaxed);
        if root as usize >= frontier.count {
            break;
        }
        ex.run_root(root, frontier.prefix(root));
    }
    ex
}

/// A worker's private search state: one reversible evaluator + packing
/// set, reset and replayed per claimed subtree, plus the reusable frame
/// arena of the iterative DFS and the lookahead's scratch. Nothing here is
/// shared across workers.
struct Explorer<'a> {
    sh: &'a SharedSearch<'a>,
    /// Acceptance ceiling: leaves at or above it are never recorded. The
    /// running contour's, or the final search's.
    ceiling: u64,
    /// The search stops once it has explored more nodes than this.
    node_budget: u64,
    eval: IncrementalEval,
    /// Per-candidate incremental pipeline state: nodes reach each switch
    /// in topological order, so the packed state always equals the prefix
    /// state of a full repack — pushing is the exact stage-feasibility
    /// check for the grown set, with O(slices) undo.
    packings: Vec<Packing>,
    /// Shared undo log for [`Packing::push_logged`]; each DFS frame
    /// remembers its base index and reverts to it.
    stage_log: Vec<(usize, f64)>,
    /// Frame arena of the iterative DFS, reused across subtrees.
    frames: Vec<Frame>,
    /// Index of the subtree being explored.
    root: u32,
    /// Best objective in the subtree currently being explored.
    root_best: u64,
    root_found: bool,
    /// Assignment of the current subtree's best leaf.
    root_assign: Vec<usize>,
    /// Best `(objective, subtree index)` across this worker's subtrees.
    best: Option<(u64, u32)>,
    best_assign: Vec<usize>,
    explored: u64,
    bound_prunes: u64,
    lookahead_prunes: u64,
    cycle_rejects: u64,
    stopped: bool,
    /// Lookahead scratch, sized once. Per candidate (closure-row stride):
    /// the candidates preceding it; per node: the candidates that precede
    /// a switch holding one of its placed ancestors.
    before: Vec<u64>,
    blocked: Vec<u64>,
    /// Per candidate: the largest node that can still start at each stage
    /// (one past the last included), candidate `c` at
    /// `limit[room_at[c]..room_at[c + 1]]`; stale rows are rebuilt, all of
    /// them when ε₂ closes or reopens the empty switches.
    limit: Vec<f64>,
    limit_stale: Vec<bool>,
    limits_closed: bool,
    room_at: Vec<usize>,
    /// Per candidate, for the node at hand: the bytes its placed
    /// predecessors there add and its earliest stage there; `touched`
    /// lists the candidates holding any of them.
    added: Vec<u64>,
    start: Vec<usize>,
    touched: Vec<usize>,
    /// Per candidate: resource of the nodes forced onto it.
    forced_resource: Vec<f64>,
    /// Per ordered pair: bytes that nodes forced onto its second switch
    /// add to it.
    forced_bytes: Vec<u64>,
}

impl<'a> Explorer<'a> {
    fn new(sh: &'a SharedSearch<'a>) -> Self {
        let n = sh.tdg.node_count();
        let q = sh.candidates.len();
        let words = q.div_ceil(64);
        let packings: Vec<Packing> = sh
            .candidates
            .iter()
            .map(|&id| Packing::new(&sh.net.switch(id).target_model(), n))
            .collect();
        let mut room_at = vec![0];
        for p in &packings {
            room_at.push(room_at[room_at.len() - 1] + p.stages() + 1);
        }
        Explorer {
            sh,
            ceiling: sh.entry_bound,
            node_budget: u64::MAX,
            eval: IncrementalEval::new(sh.tdg, q),
            packings,
            stage_log: Vec::with_capacity(64),
            frames: Vec::with_capacity(n),
            root: 0,
            root_best: u64::MAX,
            root_found: false,
            root_assign: Vec::with_capacity(n),
            best: None,
            best_assign: Vec::new(),
            explored: 0,
            bound_prunes: 0,
            lookahead_prunes: 0,
            cycle_rejects: 0,
            stopped: false,
            before: vec![0; q * words],
            blocked: vec![0; n * words],
            limit: vec![0.0; room_at.last().copied().unwrap_or(0)],
            limit_stale: vec![true; q],
            limits_closed: false,
            room_at,
            added: vec![0; q],
            start: vec![0; q],
            touched: Vec::with_capacity(q),
            forced_resource: vec![0.0; q],
            forced_bytes: vec![0; q * q],
        }
    }

    /// Restores pristine evaluator/packing state (allocation-free) before
    /// replaying the next subtree prefix.
    fn reset_state(&mut self) {
        self.eval.reset();
        for p in &mut self.packings {
            p.reset();
        }
        self.stage_log.clear();
        self.limit_stale.fill(true);
    }

    /// The incumbent cut on a lower bound of every leaf below the node.
    /// The first disjunct is deterministic (subtree best ∧ ceiling, both
    /// timing-independent) and is all the frontier enumeration uses
    /// (`live == false`). The live part never cuts the leaf the reduction
    /// returns, the lowest-index optimal one: the shared key
    /// `(objective, index)` — a recorded leaf's — cuts at or above its
    /// objective only in subtrees after its own, and strictly above it in
    /// earlier ones.
    fn cut(&self, bound: u64, live: bool) -> bool {
        if bound >= self.root_best.min(self.ceiling) {
            return true;
        }
        if !live {
            return false;
        }
        let key = self.sh.best_key.load(Ordering::Relaxed);
        let (objective, root) = (key >> 32, key & u64::from(u32::MAX));
        key != NO_KEY
            && match u64::from(self.root).cmp(&root) {
                std::cmp::Ordering::Greater => bound >= objective,
                std::cmp::Ordering::Less => bound > objective,
                std::cmp::Ordering::Equal => false,
            }
    }

    /// Node-entry prologue shared by every depth: count, apply the node
    /// budget, poll the deadline and the contours' shared budget (every
    /// 64th node — `Instant::now` costs more than a whole branch step),
    /// apply the incumbent cut, accept leaves, run the lookahead. Returns
    /// `true` when the node's children should be explored.
    fn enter(&mut self, depth: usize) -> bool {
        self.explored += 1;
        if self.explored > self.node_budget {
            self.stopped = true;
            return false;
        }
        if self.explored & 0x3F == 0 && self.sh.poll_stops() {
            self.stopped = true;
            return false;
        }
        if self.cut(self.eval.amax(), true) {
            self.bound_prunes += 1;
            return false;
        }
        if depth == self.sh.order.len() {
            self.accept_leaf();
            return false;
        }
        if self.lookahead_cuts(depth, true) {
            self.lookahead_prunes += 1;
            return false;
        }
        true
    }

    /// The lookahead: one pass over the unplaced nodes `order[depth..]`
    /// gives each a domain — the candidates with room for it (ε₂ and
    /// capacity), that precede no switch holding one of its placed
    /// ancestors (it would close a cycle) and whose live packing has room
    /// for it from its earliest stage there. Every further placement only
    /// narrows these tests, so a domain holds every candidate the node
    /// takes in a leaf below. `true` when a domain is empty, when the nodes
    /// forced onto one switch overflow it, or when [`Explorer::cut`] holds
    /// for a lower bound on every leaf below: per node, the cheapest
    /// candidate of its domain, each costing the largest pair its placed
    /// predecessors would load; per pair, its bytes plus those the nodes
    /// forced onto its second switch add.
    fn lookahead_cuts(&mut self, depth: usize, live: bool) -> bool {
        let sh = self.sh;
        let q = sh.candidates.len();
        let words = q.div_ceil(64);
        let eval = &self.eval;
        let assign = eval.assignment();
        // `limit[s]` per candidate: the largest node that can still start
        // at stage `s` there — the room from `s` on, capped by what its
        // capacity has left, and nothing on a switch ε₂ keeps closed.
        // Rows are rebuilt only for candidates whose packing changed.
        let no_new_switch = eval.occupied() >= sh.eps.max_switches;
        if no_new_switch != self.limits_closed {
            self.limits_closed = no_new_switch;
            self.limit_stale.fill(true);
        }
        for (c, packing) in self.packings.iter().enumerate() {
            if !std::mem::take(&mut self.limit_stale[c]) {
                continue;
            }
            let limit = &mut self.limit[self.room_at[c]..self.room_at[c + 1]];
            if eval.nodes_on(c) == 0 && no_new_switch {
                limit.fill(f64::NEG_INFINITY);
                continue;
            }
            packing.room_from_each_stage(limit);
            let capacity_left = sh.total_caps[c] - eval.used_capacity(c);
            for room in limit.iter_mut() {
                *room = room.min(capacity_left) + ROOM_SLACK;
            }
            if let Some(past_the_end) = limit.last_mut() {
                *past_the_end = f64::NEG_INFINITY;
            }
        }
        // `before[a]`: the candidates that precede `a` in the switch order.
        self.before.fill(0);
        for x in 0..q {
            for (k, &word) in eval.successors_row(x).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let a = k * 64 + bits.trailing_zeros() as usize;
                    self.before[a * words + x / 64] |= 1 << (x % 64);
                    bits &= bits - 1;
                }
            }
        }
        self.forced_resource.fill(0.0);
        self.forced_bytes.fill(0);
        let mut bound = eval.amax();
        for &node in &sh.order[depth..] {
            let v = node.index();
            // A node none of whose ancestors is placed yet has no
            // predecessor bytes, start stage or order constraint.
            let reached = sh.reached_from[v] < depth;
            if reached {
                // The candidates that precede a switch holding one of its
                // placed ancestors: a placed predecessor's, or those an
                // unplaced one (earlier in the order) has.
                self.blocked[v * words..(v + 1) * words].fill(0);
                for &(u, bytes) in eval.in_edges(v) {
                    let a = assign[u];
                    if a == UNASSIGNED {
                        if sh.reached_from[u] < depth {
                            for k in 0..words {
                                let bits = self.blocked[u * words + k];
                                self.blocked[v * words + k] |= bits;
                            }
                        }
                        continue;
                    }
                    for k in 0..words {
                        self.blocked[v * words + k] |= self.before[a * words + k];
                    }
                    if !self.touched.contains(&a) {
                        self.touched.push(a);
                    }
                    self.added[a] += u64::from(bytes);
                    if let Some(end) = self.packings[a].end_stage(u) {
                        self.start[a] = self.start[a].max(end + 1);
                    }
                }
            }
            // The domain, and the cost of its cheapest candidate: the
            // largest pair its placed predecessors would load there.
            let resource = eval.resource(v);
            let (mut size, mut only, mut cheapest) = (0usize, NO_CANDIDATE, u64::MAX);
            for c in 0..q {
                if resource > self.limit[self.room_at[c] + self.start[c]]
                    || reached && self.blocked[v * words + c / 64] >> (c % 64) & 1 == 1
                {
                    continue;
                }
                size += 1;
                only = c;
                if cheapest > bound {
                    let cost = self
                        .touched
                        .iter()
                        .filter(|&&a| a != c)
                        .map(|&a| eval.pair_bytes(a, c) + self.added[a])
                        .max()
                        .unwrap_or(0);
                    cheapest = cheapest.min(cost);
                }
            }
            if size == 1 {
                self.forced_resource[only] += resource;
                for &a in self.touched.iter().filter(|&&a| a != only) {
                    self.forced_bytes[a * q + only] += self.added[a];
                }
            }
            for &a in &self.touched {
                self.added[a] = 0;
                self.start[a] = 0;
            }
            self.touched.clear();
            if size == 0 {
                return true;
            }
            if cheapest > bound {
                bound = cheapest;
                if self.cut(bound, live) {
                    return true;
                }
            }
        }
        for c in 0..q {
            let forced = self.forced_resource[c];
            if forced > 0.0 && eval.used_capacity(c) + forced > sh.total_caps[c] + ROOM_SLACK {
                return true;
            }
            for a in 0..q {
                bound = bound.max(eval.pair_bytes(a, c) + self.forced_bytes[a * q + c]);
            }
        }
        self.cut(bound, live)
    }

    /// Runs every feasibility check for placing the depth-`depth` node on
    /// candidate `c`; on success the node stays placed and the packing
    /// undo-log base is returned for the later revert.
    fn try_place(&mut self, depth: usize, c: usize) -> Option<usize> {
        let node = self.sh.order[depth];
        let resource = self.eval.resource(node.index());
        if !fits(self.eval.used_capacity(c) + resource, self.sh.total_caps[c]) {
            return None;
        }
        // ε₂: opening a new switch must stay within the bound.
        if self.eval.nodes_on(c) == 0 && self.eval.occupied() + 1 > self.sh.eps.max_switches {
            return None;
        }
        // The switch DAG must stay acyclic (no packet recirculation
        // through a switch): asked of the closure before anything moves.
        if self.eval.creates_cycle(node.index(), c) {
            self.cycle_rejects += 1;
            return None;
        }
        // Stage-feasibility prune: pushing onto the switch's live packing
        // is the exact check (its state equals the prefix state of a full
        // repack), cutting precisely the subtrees whose leaves would fail
        // `materialize`. A failed push leaves the packing and the log
        // untouched.
        let log_base = self.stage_log.len();
        if !self.packings[c].push_logged(self.sh.tdg, node, &mut self.stage_log) {
            return None;
        }
        self.eval.place(node.index(), c);
        self.limit_stale[c] = true;
        debug_assert!(self.eval.is_acyclic());
        Some(log_base)
    }

    fn undo(&mut self, depth: usize, c: usize, log_base: usize) {
        let node = self.sh.order[depth];
        self.eval.unplace(node.index());
        self.packings[c].revert(node, &mut self.stage_log, log_base);
        self.limit_stale[c] = true;
    }

    /// Appends every viable one-node extension of `prefix` (in candidate
    /// order, deterministic prunes only) to `out`; returns how many.
    /// Used by the frontier builder.
    fn expand(&mut self, prefix: &[usize], out: &mut Vec<usize>) -> usize {
        self.reset_state();
        for (k, &c) in prefix.iter().enumerate() {
            if self.try_place(k, c).is_none() {
                debug_assert!(false, "frontier prefix must replay cleanly");
                return 0;
            }
        }
        let depth = prefix.len();
        let q = self.sh.candidates.len();
        let used_switches = if self.sh.symmetric { self.eval.occupied() } else { 0 };
        let mut added = 0usize;
        for c in 0..q {
            // Symmetry breaking: only the first unused switch may be
            // opened.
            if self.sh.symmetric && c > used_switches {
                break;
            }
            let Some(log_base) = self.try_place(depth, c) else { continue };
            self.explored += 1;
            if (self.explored & 0x3F == 0) && self.sh.poll_stops() {
                self.stopped = true;
                return added;
            }
            // Child-entry incumbent cut and lookahead, deterministic parts
            // only: the frontier (and with it the canonical subtree
            // indexing) must not depend on the shared key's timing.
            if self.cut(self.eval.amax(), false) {
                self.bound_prunes += 1;
            } else if depth + 1 < self.sh.order.len() && self.lookahead_cuts(depth + 1, false) {
                self.lookahead_prunes += 1;
            } else {
                out.extend_from_slice(prefix);
                out.push(c);
                added += 1;
            }
            self.undo(depth, c, log_base);
        }
        added
    }

    /// Explores one claimed subtree: reset, replay the prefix, run the
    /// iterative DFS below it, then fold the subtree's best leaf into the
    /// worker's `(objective, subtree index)` minimum.
    fn run_root(&mut self, root: u32, prefix: &[usize]) {
        self.reset_state();
        for (k, &c) in prefix.iter().enumerate() {
            if self.try_place(k, c).is_none() {
                debug_assert!(false, "frontier prefix must replay cleanly");
                return;
            }
        }
        self.root = root;
        self.root_best = u64::MAX;
        self.root_found = false;
        self.run_subtree(prefix.len());
        if self.root_found {
            let key = (self.root_best, root);
            if self.best.is_none_or(|b| key < b) {
                self.best = Some(key);
                std::mem::swap(&mut self.best_assign, &mut self.root_assign);
            }
        }
    }

    /// Iterative DFS below an already-replayed prefix of length `base`,
    /// using the reusable frame arena instead of the call stack. Mirrors
    /// the recursive formulation exactly: undo-before-advance, candidate
    /// order, symmetric break, and poll/prune/leaf checks via `enter`.
    /// On stop the state is left dirty — `reset_state` runs before any
    /// reuse.
    fn run_subtree(&mut self, base: usize) {
        if !self.enter(base) {
            return;
        }
        self.frames.clear();
        self.frames.push(self.fresh_frame());
        while let Some(top) = self.frames.len().checked_sub(1) {
            if self.stopped {
                return;
            }
            let depth = base + top;
            // Undo the placement left by the previous descent, if any.
            let Frame { placed_c, log_base, used_switches, .. } = self.frames[top];
            if placed_c != NO_CANDIDATE {
                self.undo(depth, placed_c, log_base);
                self.frames[top].placed_c = NO_CANDIDATE;
            }
            // Advance to the next viable candidate at this depth.
            let q = self.sh.candidates.len();
            let mut descended = false;
            loop {
                let c = self.frames[top].next_c;
                if c >= q || (self.sh.symmetric && c > used_switches) {
                    break;
                }
                self.frames[top].next_c += 1;
                let Some(log_base) = self.try_place(depth, c) else { continue };
                self.frames[top].placed_c = c;
                self.frames[top].log_base = log_base;
                if self.enter(depth + 1) {
                    let frame = self.fresh_frame();
                    self.frames.push(frame);
                    descended = true;
                }
                // When `enter` declined (prune/leaf/stop) the placement
                // stays until the next loop iteration undoes it — the
                // same order as the recursive undo.
                break;
            }
            if !descended && self.frames[top].placed_c == NO_CANDIDATE {
                self.frames.pop();
            }
        }
    }

    fn fresh_frame(&self) -> Frame {
        Frame {
            next_c: 0,
            placed_c: NO_CANDIDATE,
            log_base: 0,
            used_switches: if self.sh.symmetric { self.eval.occupied() } else { 0 },
        }
    }

    fn accept_leaf(&mut self) {
        // Acceptance ceiling: subtree best ∧ ceiling — both deterministic,
        // so which leaves each subtree records never depends on other
        // workers' timing.
        let ceiling = self.root_best.min(self.ceiling);
        if self.sh.fast_leaves {
            // Stage feasibility was enforced on every step and all routes
            // exist, so the assignment is materializable by construction
            // and the evaluator's running maximum *is* the plan objective.
            let objective = self.eval.amax();
            if objective < ceiling {
                self.record(objective);
            }
            return;
        }
        // Full assignment below the ceiling: validate stages, routes and ε.
        let sh = self.sh;
        let Ok(plan) = materialize(sh.tdg, sh.net, sh.eps, sh.candidates, self.eval.assignment())
        else {
            return;
        };
        let objective = plan.max_inter_switch_bytes(sh.tdg);
        if objective < ceiling {
            self.record(objective);
        }
    }

    fn record(&mut self, objective: u64) {
        self.root_best = objective;
        self.root_found = true;
        self.root_assign.clear();
        self.root_assign.extend_from_slice(self.eval.assignment());
        if let Ok(objective) = u32::try_from(objective) {
            let key = u64::from(objective) << 32 | u64::from(self.root);
            self.sh.best_key.fetch_min(key, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod oracle;

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::test_support::{chain_tdg, tiny_switches};
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
    use hermes_net::Switch;
    use hermes_tdg::AnalysisMode;
    use std::num::NonZeroUsize;
    use std::time::Duration;

    fn solve_default(tdg: &Tdg, net: &Network, eps: &Epsilon) -> Result<SolveOutcome, DeployError> {
        OptimalSolver::new().solve(
            tdg,
            net,
            eps,
            &SearchContext::with_time_limit(Duration::from_secs(30)),
        )
    }

    #[test]
    fn finds_figure1_optimum() {
        // a -1-> b -4-> c, two switches of two MATs each: optimum cuts the
        // 1-byte edge.
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let out = solve_default(&tdg, &net, &Epsilon::loose()).unwrap();
        assert!(out.proven_optimal);
        assert_eq!(out.objective, 1);
        assert_eq!(out.plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn zero_overhead_when_everything_fits() {
        let tdg = chain_tdg(&[8, 8], 0.2);
        let net = tiny_switches(2, 12, 1.0);
        let out = solve_default(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(out.objective, 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn optimal_never_worse_than_heuristic() {
        // Non-chain TDG where a greedy prefix split can be suboptimal.
        let tdg = {
            let m = |n: &str, s: u32| Field::metadata(format!("x.{n}"), s);
            let a = Mat::builder("a")
                .action(Action::writing("w", [m("ab", 9), m("ac", 2)]))
                .resource(0.5)
                .build()
                .unwrap();
            let b = Mat::builder("b")
                .match_field(m("ab", 9), MatchKind::Exact)
                .action(Action::writing("w", [m("bd", 3)]))
                .resource(0.5)
                .build()
                .unwrap();
            let c = Mat::builder("c")
                .match_field(m("ac", 2), MatchKind::Exact)
                .action(Action::writing("w", [m("cd", 7)]))
                .resource(0.5)
                .build()
                .unwrap();
            let d = Mat::builder("d")
                .match_field(m("bd", 3), MatchKind::Exact)
                .match_field(m("cd", 7), MatchKind::Exact)
                .action(Action::new("noop"))
                .resource(0.5)
                .build()
                .unwrap();
            let p = Program::builder("p").table(a).table(b).table(c).table(d).build().unwrap();
            Tdg::from_program(&p, AnalysisMode::Intersection)
        };
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let heuristic =
            GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap().max_inter_switch_bytes(&tdg);
        let out = solve_default(&tdg, &net, &eps).unwrap();
        assert!(out.proven_optimal);
        assert!(out.objective <= heuristic, "optimal {} > heuristic {heuristic}", out.objective);
    }

    #[test]
    fn plan_verifies_clean() {
        let tdg = chain_tdg(&[1, 4, 2, 8], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let out = solve_default(&tdg, &net, &eps).unwrap();
        let violations = crate::verify::verify(&tdg, &net, &out.plan, &eps);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn respects_epsilon2() {
        let tdg = chain_tdg(&[1, 1, 1], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::new(f64::INFINITY, 2);
        let out = solve_default(&tdg, &net, &eps).unwrap();
        assert!(out.plan.occupied_switch_count() <= 2);
    }

    #[test]
    fn expired_deadline_reports_unproven() {
        // A larger instance with a 0 ms budget still returns the heuristic
        // incumbent but cannot prove optimality. (Plenty of switches: the
        // greedy splitter may oversegment a monotone chain.)
        let tdg = chain_tdg(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 0.5);
        let net = tiny_switches(12, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::ZERO);
        let out = OptimalSolver::new().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap();
        assert!(!out.proven_optimal);
        assert!(!out.plan.placements().is_empty());
    }

    #[test]
    fn exhaustion_without_a_plan_is_no_feasible_placement() {
        // 3 x 0.8 of demand over 2 x 1.0 of capacity: neither the seed nor
        // the search finds a plan.
        let tdg = chain_tdg(&[1, 1], 0.8);
        let net = tiny_switches(2, 2, 0.5);
        let err = solve_default(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert!(matches!(err, DeployError::NoFeasiblePlacement { .. }), "{err}");
    }

    #[test]
    fn no_programmable_switch_is_an_error() {
        let mut net = Network::new();
        net.add_switch(Switch::legacy("l"));
        let tdg = chain_tdg(&[1], 0.5);
        let err = solve_default(&tdg, &net, &Epsilon::loose()).unwrap_err();
        assert_eq!(err, DeployError::NoProgrammableSwitch);
    }

    #[test]
    fn empty_tdg_trivial() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        let net = tiny_switches(2, 2, 0.5);
        let out = solve_default(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(out.objective, 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn deploy_api_still_works() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let plan = OptimalSolver::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn outcome_is_identical_across_worker_counts() {
        // The ten-program library plus three synthetic programs on the
        // three-switch testbed, optimum 2: independent programs, so the
        // frontier holds several roots per worker and their subtrees differ
        // widely in size — roots finish, and the next ones are claimed, out
        // of worker order. Alone, the contours settle it (≈8·10³ nodes);
        // with no contour budget the frontier search finds the optimum, and
        // runs long enough that the helpers start.
        let config = SyntheticConfig { tables_min: 3, tables_max: 6, ..Default::default() };
        let mut programs = library::real_programs();
        programs.extend(SyntheticGenerator::new(3, config).programs(3));
        let (tdg, net) = crate::test_support::linear_testbed(&programs);
        let eps = Epsilon::loose();
        let solve = |workers: usize| {
            let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::new(workers).unwrap());
            let (result, stats) =
                OptimalSolver::new().solve_with_contour_budget(&tdg, &net, &eps, &ctx, 0);
            (result.unwrap(), stats)
        };
        let (reference, one) = solve(1);
        assert_eq!((reference.objective, reference.proven_optimal), (2, true));
        assert_eq!((one.contours, one.workers, one.subtree_roots), (1, 1, 0), "{one:?}");
        for workers in 2..=8 {
            let (out, stats) = solve(workers);
            assert_eq!(stats.workers, workers, "{stats:?}");
            assert!(stats.subtree_roots > workers, "{stats:?}");
            assert_eq!(out.plan, reference.plan, "plan diverged at {workers} workers");
            assert_eq!(out.objective, reference.objective);
            assert_eq!(out.proven_optimal, reference.proven_optimal);
        }
    }

    #[test]
    fn a_short_search_never_starts_the_helpers() {
        // The library alone is settled by a contour in ≈5·10² nodes: no
        // frontier is built and the calling thread is the whole pool.
        let (tdg, net) = crate::test_support::linear_testbed(&library::real_programs());
        let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::new(4).unwrap());
        let (result, stats) =
            OptimalSolver::new().solve_instrumented(&tdg, &net, &Epsilon::loose(), &ctx);
        assert!(result.unwrap().proven_optimal);
        assert!(stats.contours > 0, "{stats:?}");
        assert_eq!(stats.subtree_roots, 0, "{stats:?}");
        assert_eq!(stats.workers, 1, "{stats:?}");
    }

    #[test]
    fn a_search_that_ends_on_the_calling_thread_builds_no_frontier() {
        // The greedy seed is already optimal: every contour runs dry and the
        // final search proves the seed within a few nodes, all on the
        // calling thread, so no frontier is built and no helper starts.
        let tdg = chain_tdg(&[1, 4, 2, 8], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::new(4).unwrap());
        let (result, stats) =
            OptimalSolver::new().solve_instrumented(&tdg, &net, &Epsilon::loose(), &ctx);
        let out = result.unwrap();
        assert!(out.proven_optimal);
        assert!(stats.subtree_roots == 0 && stats.workers == 1, "{stats:?}");
    }
}
