//! The reference the exact search's cuts are held to: a plain recursive
//! depth-first search with the same seed, entry bound, candidate order and
//! symmetry break, and nothing else — no lookahead, no cycle test before
//! the push (acyclicity is recomputed from the assignment after it), no
//! incumbent key shared across subtrees, no frontier. It returns the first
//! leaf of minimum objective in DFS order, which is the leaf the
//! production search's reduction must return at every worker count.

use super::*;
use crate::eval::UNASSIGNED;
use crate::ProgramAnalyzer;
use hermes_dataplane::action::Action;
use hermes_dataplane::fields::Field;
use hermes_dataplane::library;
use hermes_dataplane::mat::{Mat, MatchKind};
use hermes_dataplane::program::Program;
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_net::{shortest_path, Switch};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::time::Duration;

/// [`OptimalSolver::solve`] by the reference search.
fn reference_solve(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    ctx: &SearchContext,
) -> Result<SolveOutcome, DeployError> {
    let outcome = |plan, objective, proven_optimal| SolveOutcome {
        plan,
        objective,
        proven_optimal,
        stats: SolveStats { nodes_explored: 0, wall: Duration::ZERO },
    };
    let candidates = net.programmable_switches();
    if candidates.is_empty() {
        return Err(DeployError::NoProgrammableSwitch);
    }
    if tdg.node_count() == 0 {
        return Ok(outcome(DeploymentPlan::new(), 0, true));
    }
    let mut seed = None;
    if let Ok(plan) = GreedyHeuristic::new().deploy(tdg, net, eps) {
        let objective = plan.max_inter_switch_bytes(tdg);
        if objective <= ctx.objective_floor() {
            return Ok(outcome(plan, objective, true));
        }
        seed = Some((objective, plan));
    }
    let entry_bound = seed.as_ref().map_or(u64::MAX, |(objective, _)| *objective);
    let q = candidates.len();
    let mut dfs = Dfs {
        tdg,
        net,
        eps,
        order: tdg.topo_order().expect("test TDGs are DAGs"),
        candidates: &candidates,
        symmetric: eps.max_latency_us.is_infinite()
            && candidates.windows(2).all(|w| {
                net.switch(w[0]).target_model().symmetric_to(&net.switch(w[1]).target_model())
            }),
        fast_leaves: eps.max_latency_us.is_infinite()
            && candidates
                .iter()
                .all(|&a| candidates.iter().all(|&b| a == b || shortest_path(net, a, b).is_some())),
        entry_bound,
        eval: IncrementalEval::new(tdg, q),
        packings: candidates
            .iter()
            .map(|&id| Packing::new(&net.switch(id).target_model(), tdg.node_count()))
            .collect(),
        log: Vec::new(),
        best: u64::MAX,
        best_assign: None,
    };
    dfs.visit(0);

    let own_best = entry_bound.min(dfs.best);
    let mut best_plan = seed;
    if let Some(assign) = dfs.best_assign {
        if let Ok(plan) = materialize(tdg, net, eps, &candidates, &assign) {
            best_plan = Some((plan.max_inter_switch_bytes(tdg).min(own_best), plan));
        }
    }
    match best_plan {
        Some((objective, plan)) => Ok(outcome(
            plan,
            objective,
            objective <= own_best || objective <= ctx.objective_floor(),
        )),
        None => Err(DeployError::NoFeasiblePlacement {
            reason: "exhausted assignment search without a feasible plan".to_owned(),
        }),
    }
}

struct Dfs<'a> {
    tdg: &'a Tdg,
    net: &'a Network,
    eps: &'a Epsilon,
    order: &'a [NodeId],
    candidates: &'a [SwitchId],
    symmetric: bool,
    fast_leaves: bool,
    entry_bound: u64,
    eval: IncrementalEval,
    packings: Vec<Packing>,
    log: Vec<(usize, f64)>,
    best: u64,
    best_assign: Option<Vec<usize>>,
}

impl Dfs<'_> {
    fn visit(&mut self, depth: usize) {
        if self.eval.amax() >= self.best.min(self.entry_bound) {
            return;
        }
        if depth == self.order.len() {
            self.leaf();
            return;
        }
        let node = self.order[depth];
        let q = self.candidates.len();
        let last = if self.symmetric { self.eval.occupied().min(q - 1) } else { q - 1 };
        for c in 0..=last {
            let capacity = self.net.switch(self.candidates[c]).total_capacity();
            let resource = self.tdg.node(node).mat.resource();
            if !fits(self.eval.used_capacity(c) + resource, capacity)
                || self.eval.nodes_on(c) == 0 && self.eval.occupied() >= self.eps.max_switches
            {
                continue;
            }
            let base = self.log.len();
            if !self.packings[c].push_logged(self.tdg, node, &mut self.log) {
                continue;
            }
            self.eval.place(node.index(), c);
            if switch_order_is_acyclic(self.tdg, self.eval.assignment(), q) {
                self.visit(depth + 1);
            }
            self.eval.unplace(node.index());
            self.packings[c].revert(node, &mut self.log, base);
        }
    }

    fn leaf(&mut self) {
        let ceiling = self.best.min(self.entry_bound);
        let objective = if self.fast_leaves {
            self.eval.amax()
        } else {
            let assign = self.eval.assignment();
            match materialize(self.tdg, self.net, self.eps, self.candidates, assign) {
                Ok(plan) => plan.max_inter_switch_bytes(self.tdg),
                Err(_) => return,
            }
        };
        if objective < ceiling {
            self.best = objective;
            self.best_assign = Some(self.eval.assignment().to_vec());
        }
    }
}

/// Kahn's algorithm over the switch order the assignment induces.
fn switch_order_is_acyclic(tdg: &Tdg, assign: &[usize], q: usize) -> bool {
    let mut edge = vec![false; q * q];
    for e in tdg.edges() {
        let (a, b) = (assign[e.from.index()], assign[e.to.index()]);
        if a != UNASSIGNED && b != UNASSIGNED && a != b {
            edge[a * q + b] = true;
        }
    }
    let mut indegree: Vec<usize> =
        (0..q).map(|b| (0..q).filter(|&a| edge[a * q + b]).count()).collect();
    let mut ready: Vec<usize> = (0..q).filter(|&b| indegree[b] == 0).collect();
    let mut seen = 0;
    while let Some(a) = ready.pop() {
        seen += 1;
        for b in 0..q {
            if edge[a * q + b] {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(b);
                }
            }
        }
    }
    seen == q
}

/// The production search at `workers`, normalized like the reference: node
/// count and wall clock zeroed, then rendered, so plans compare byte for
/// byte.
fn production(tdg: &Tdg, net: &Network, eps: &Epsilon, workers: usize) -> String {
    production_within(tdg, net, eps, &shaped(0, workers), CONTOUR_NODES)
}

fn reference(tdg: &Tdg, net: &Network, eps: &Epsilon) -> String {
    render(reference_solve(tdg, net, eps, &SearchContext::unbounded()))
}

fn render(result: Result<SolveOutcome, DeployError>) -> String {
    let result = result.map(|mut outcome| {
        outcome.stats.nodes_explored = 0;
        outcome.stats.wall = Duration::ZERO;
        outcome
    });
    format!("{result:?}")
}

/// A fresh unbounded context at `workers`, its floor raised to `floor`.
fn shaped(floor: u64, workers: usize) -> SearchContext {
    SearchContext::unbounded()
        .with_threads(NonZeroUsize::new(workers).expect("workers >= 1"))
        .with_floor(floor)
}

/// The production search under `ctx`, with the contours limited to
/// `budget` nodes, rendered like [`production`].
fn production_within(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    ctx: &SearchContext,
    budget: u64,
) -> String {
    render(OptimalSolver::new().solve_with_contour_budget(tdg, net, eps, ctx, budget).0)
}

/// The contours alone, as the production search runs them at one worker
/// under [`shaped`] and within `budget` nodes: the leaf recorded last, if
/// any, and whether the budget stopped them.
fn contours(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    floor: u64,
    budget: u64,
) -> (Option<u64>, bool) {
    let ctx = shaped(floor, 1);
    let seed = GreedyHeuristic::new()
        .deploy(tdg, net, eps)
        .map_or(u64::MAX, |plan| plan.max_inter_switch_bytes(tdg));
    let candidates = net.programmable_switches();
    let order = tdg.topo_order().expect("test TDGs are DAGs");
    let shared = SharedSearch::new(tdg, net, eps, order, &candidates, &ctx, seed);
    let mut searches = Searches::new(&shared, 1);
    let end = searches.run_contours(ctx.objective_floor(), budget, &mut ParallelStats::default());
    assert_eq!(searches.explorers.len(), 1, "one worker searches on the calling thread alone");
    (searches.least_leaf(), end == End::Budget)
}

/// The contour budget that stops the contours right after their first
/// leaf — the smallest at which they record one — or `None` when they
/// record none within [`CONTOUR_NODES`].
fn first_leaf_budget(tdg: &Tdg, net: &Network, eps: &Epsilon, floor: u64) -> Option<u64> {
    let records = |budget| contours(tdg, net, eps, floor, budget).0.is_some();
    if !records(CONTOUR_NODES) {
        return None;
    }
    let (mut below, mut at) = (0, CONTOUR_NODES);
    while at - below > 1 {
        let mid = below + (at - below) / 2;
        if records(mid) {
            at = mid;
        } else {
            below = mid;
        }
    }
    Some(at)
}

/// Splitmix64, so one proptest seed draws a whole instance.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One or two programs of 3–6 tables each. A table matches up to two
/// fields written by earlier tables of its program (so programs are DAGs,
/// not chains) and writes one field of 1–16 B; resources are 0.2–0.6.
fn random_programs(state: &mut u64) -> Vec<Program> {
    let programs = 1 + next(state) % 2;
    (0..programs)
        .map(|p| {
            let tables = 3 + next(state) % 4;
            let mut builder = Program::builder(format!("p{p}"));
            let mut written: Vec<Field> = Vec::new();
            for t in 0..tables {
                let mut mat =
                    Mat::builder(format!("t{t}")).resource(0.2 + 0.1 * (next(state) % 5) as f64);
                let mut read = 0;
                for field in &written {
                    if read < 2 && next(state).is_multiple_of(2) {
                        mat = mat.match_field(field.clone(), MatchKind::Exact);
                        read += 1;
                    }
                }
                let field = Field::metadata(format!("p{p}.f{t}"), 1 + (next(state) % 16) as u32);
                written.push(field.clone());
                let mat = mat.action(Action::writing("w", [field])).build().expect("valid table");
                builder = builder.table(mat);
            }
            builder.build().expect("valid program")
        })
        .collect()
}

/// 2–4 programmable switches in a line, 1–3 stages of 0.5–0.8 each; every
/// other instance gives the odd switches one stage more, so the switches
/// are not interchangeable and the symmetry break is off.
fn random_switches(state: &mut u64) -> Network {
    let q = 2 + (next(state) % 3) as usize;
    let stages = 1 + (next(state) % 3) as usize;
    let capacity = 0.5 + 0.1 * (next(state) % 4) as f64;
    let uneven = next(state).is_multiple_of(2);
    let mut net = Network::new();
    let ids: Vec<SwitchId> = (0..q)
        .map(|i| {
            let stages = stages + usize::from(uneven && i % 2 == 1);
            net.add_switch(Switch {
                stages,
                stage_capacity: capacity,
                ..Switch::tofino(format!("s{i}"))
            })
        })
        .collect();
    for w in ids.windows(2) {
        net.add_link(w[0], w[1], 10.0).expect("fresh link");
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The cuts never change what the search returns: plan, objective and
    /// optimality equal the reference's at one worker and at 2–4, on random
    /// DAG programs over tight switches, with ε₂ binding or not and a
    /// latency bound that forces leaves through `materialize`.
    #[test]
    fn the_cuts_return_the_reference_outcome(seed in 0u64..1 << 40, workers in 2usize..5) {
        let mut state = seed;
        let programs = random_programs(&mut state);
        let tdg = ProgramAnalyzer::new().analyze(&programs);
        let net = random_switches(&mut state);
        let eps = match next(&mut state) % 4 {
            0 => Epsilon::new(f64::INFINITY, 2),
            1 => Epsilon::new(200.0, usize::MAX),
            _ => Epsilon::loose(),
        };
        let expected = reference(&tdg, &net, &eps);
        for workers in [1, workers] {
            prop_assert_eq!(
                production(&tdg, &net, &eps, workers),
                expected.clone(),
                "workers = {}", workers
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The contours return the reference's outcome too, run to their
    /// budget or stopped right after their first leaf — where the final
    /// search must still find the lowest-index optimum at or below it —
    /// under a floor set as [`crate::solver::Portfolio`] sets it (to at
    /// most the optimum), at one worker and at 2–4.
    #[test]
    fn the_contours_return_the_reference_outcome(seed in 0u64..1 << 40, workers in 2usize..5) {
        let mut state = seed;
        let programs = random_programs(&mut state);
        let tdg = ProgramAnalyzer::new().analyze(&programs);
        let net = random_switches(&mut state);
        let eps = match next(&mut state) % 4 {
            0 => Epsilon::new(f64::INFINITY, 2),
            1 => Epsilon::new(200.0, usize::MAX),
            _ => Epsilon::loose(),
        };
        let optimum = reference_solve(&tdg, &net, &eps, &SearchContext::unbounded())
            .map_or(0, |outcome| outcome.objective);
        let floor = next(&mut state) % (optimum + 1);
        let expected = render(reference_solve(&tdg, &net, &eps, &shaped(floor, 1)));
        let first_leaf = first_leaf_budget(&tdg, &net, &eps, floor);
        for budget in [Some(CONTOUR_NODES), first_leaf].into_iter().flatten() {
            for workers in [1, workers] {
                let ctx = shaped(floor, workers);
                prop_assert_eq!(
                    production_within(&tdg, &net, &eps, &ctx, budget),
                    expected.clone(),
                    "floor = {}, budget = {}, workers = {}",
                    floor, budget, workers
                );
            }
        }
    }
}

/// The library plus `extra` programs from the synthetic generator on
/// `linear:<switches>`, as the committed `tight-exact` instances are built.
fn committed_instance(
    generator_seed: u64,
    tables: (usize, usize),
    extra: usize,
    switches: usize,
) -> (Tdg, Network) {
    let config =
        SyntheticConfig { tables_min: tables.0, tables_max: tables.1, ..Default::default() };
    let mut programs = library::real_programs();
    programs.extend(SyntheticGenerator::new(generator_seed, config).programs(extra));
    (ProgramAnalyzer::new().analyze(&programs), hermes_net::topology::linear(switches, 10.0))
}

/// A committed `tight-exact` instance (≈3·10⁴ nodes before the contours):
/// the same outcome as the reference at 1 and 2 workers.
#[test]
fn a_committed_instance_returns_the_reference_outcome() {
    let (tdg, net) = committed_instance(3, (3, 6), 3, 3);
    let eps = Epsilon::loose();
    let expected = reference(&tdg, &net, &eps);
    for workers in [1, 2] {
        assert_eq!(production(&tdg, &net, &eps, workers), expected, "workers = {workers}");
    }
}

/// A committed `tight-exact` instance: generator seed, table range, extra
/// programs, switches.
type Instance = (u64, (usize, usize), usize, usize);

/// The twelve committed `tight-exact` instances with their optimum and the
/// search's nodes at one worker (where the count is deterministic).
const COMMITTED: [(Instance, u64, u64); 12] = [
    ((2, (3, 6), 3, 3), 2, 11_524),
    ((6, (3, 8), 2, 3), 13, 414_785),
    ((0, (3, 8), 2, 3), 6, 58_246),
    ((2, (5, 8), 2, 3), 5, 54_078),
    ((6, (3, 6), 3, 3), 2, 4_031),
    ((0, (5, 8), 4, 4), 1, 36_257),
    ((3, (3, 6), 3, 3), 2, 8_025),
    ((2, (3, 8), 4, 4), 0, 1_114),
    ((5, (5, 8), 3, 5), 0, 1_277),
    ((7, (5, 8), 2, 4), 0, 227),
    ((0, (3, 8), 3, 4), 0, 396),
    ((1, (5, 8), 3, 5), 0, 28_210),
];

/// The cuts' and the contours' yield: every committed instance is proven
/// optimal at one worker in exactly its pinned node count (2 318 983 nodes
/// in all before the contours, 618 170 with them), and the cuts all fire.
#[test]
fn the_committed_instances_take_at_most_their_pinned_nodes() {
    let mut total = ParallelStats::default();
    for ((seed, tables, extra, switches), optimum, nodes) in COMMITTED {
        let (tdg, net) = committed_instance(seed, tables, extra, switches);
        let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::MIN);
        let (result, stats) =
            OptimalSolver::new().solve_instrumented(&tdg, &net, &Epsilon::loose(), &ctx);
        let outcome = result.expect("the instance is feasible");
        assert_eq!((outcome.objective, outcome.proven_optimal), (optimum, true), "seed {seed}");
        let explored = outcome.stats.nodes_explored;
        assert_eq!(explored, nodes, "seed {seed}: {stats:?}");
        assert_eq!(stats.subtree_roots, 0, "seed {seed}: one worker builds no frontier");
        total.lookahead_prunes += stats.lookahead_prunes;
        total.cycle_rejects += stats.cycle_rejects;
        total.bound_prunes += stats.bound_prunes;
    }
    assert!(total.lookahead_prunes > 0 && total.cycle_rejects > 0, "{total:?}");
    assert!(total.bound_prunes > 0, "{total:?}");
}

/// `TIGHT_INSTANCES[2]`: greedy finds no plan, the contours at 1, 2 and
/// 4 find no leaf, and the one at 8 records 7 before the optimum 6. A
/// contour stopped right after that leaf hands the final search the
/// ceiling 8, which still returns the optimum — the leaf of 7 is no
/// answer, proven or not. With helpers the budget outlasts the calling
/// thread's share, so the contours go to the pool, whose workers spend the
/// rest of it: whatever they record, the same optimum comes back.
#[test]
fn a_contour_stopped_after_its_first_leaf_hands_on_a_ceiling() {
    let (tdg, net) = committed_instance(0, (3, 8), 2, 3);
    let eps = Epsilon::loose();
    assert!(GreedyHeuristic::new().deploy(&tdg, &net, &eps).is_err());
    let budget = first_leaf_budget(&tdg, &net, &eps, 0).expect("a contour records a leaf");
    assert_eq!(contours(&tdg, &net, &eps, 0, budget), (Some(7), true));
    let expected = production_within(&tdg, &net, &eps, &shaped(0, 1), CONTOUR_NODES);
    assert!(expected.contains("objective: 6, proven_optimal: true"), "{expected}");
    for workers in [1, 2, 4] {
        let ctx = shaped(0, workers);
        assert_eq!(production_within(&tdg, &net, &eps, &ctx, budget), expected);
    }
}

/// A deadline stop proves nothing. On the generator's instance 394 (nine
/// tables on four switches, optimum 8) the contours record a leaf of 14 at
/// their 41st node and run on past their 64th, where they first read the
/// clock. Under a deadline that has already passed, whether the deadline
/// stops them there or the budget stops them right after that leaf (and
/// the final search then stops at once), the search returns a plan above
/// the optimum and never calls it optimal.
#[test]
fn a_deadline_stop_never_proves_the_contours_leaf() {
    let mut state = 394;
    let tdg = ProgramAnalyzer::new().analyze(&random_programs(&mut state));
    let net = random_switches(&mut state);
    let eps = Epsilon::loose();
    let first_leaf = first_leaf_budget(&tdg, &net, &eps, 0).expect("a contour records a leaf");
    assert!(first_leaf < 64, "the first leaf comes at node {first_leaf}");
    assert_eq!(contours(&tdg, &net, &eps, 0, first_leaf), (Some(14), true));
    let optimum = production_within(&tdg, &net, &eps, &shaped(0, 1), CONTOUR_NODES);
    assert!(optimum.contains("objective: 8, proven_optimal: true"), "{optimum}");
    for budget in [first_leaf, CONTOUR_NODES] {
        for workers in [1, 2] {
            let ctx = SearchContext::with_deadline(std::time::Instant::now())
                .with_threads(NonZeroUsize::new(workers).expect("workers >= 1"));
            let (result, stats) =
                OptimalSolver::new().solve_with_contour_budget(&tdg, &net, &eps, &ctx, budget);
            let outcome = result.expect("the contours' leaf is a plan");
            assert!(stats.contours > 0, "{stats:?}");
            assert!(
                !outcome.proven_optimal && outcome.objective > 8,
                "budget {budget}, workers {workers}: {outcome:?}"
            );
        }
    }
}

/// The lookahead's ancestor test on its own: `x -> y` puts switch 0
/// before switch 1, `a` sits on switch 1 and fills it, so its successor
/// `b` fits only on switch 0 — which would close a cycle. Only the
/// ancestor test empties `b`'s domain here.
#[test]
fn a_node_whose_only_room_precedes_its_ancestor_is_cut() {
    let field = |name: &str| Field::metadata(name.to_owned(), 4);
    let writer = |name: &str, out: &str| {
        Mat::builder(name).action(Action::writing("w", [field(out)])).resource(0.5).build()
    };
    let reader = |name: &str, input: &str| {
        Mat::builder(name)
            .match_field(field(input), MatchKind::Exact)
            .action(Action::new("noop"))
            .resource(0.5)
            .build()
    };
    let program = Program::builder("p")
        .table(writer("x", "m.xy").expect("table"))
        .table(reader("y", "m.xy").expect("table"))
        .table(writer("a", "m.ab").expect("table"))
        .table(reader("b", "m.ab").expect("table"))
        .build()
        .expect("program");
    let tdg = ProgramAnalyzer::new().analyze(&[program]);
    let net = crate::test_support::tiny_switches(2, 2, 0.5);
    let (eps, ctx) = (Epsilon::loose(), SearchContext::unbounded());
    let order = tdg.topo_order().expect("DAG");
    let names: Vec<&str> = order.iter().map(|&id| tdg.node(id).mat.name()).collect();
    assert_eq!(names, ["x", "y", "a", "b"]);
    let candidates = net.programmable_switches();
    let shared = SharedSearch::new(&tdg, &net, &eps, order, &candidates, &ctx, u64::MAX);
    let mut explorer = Explorer::new(&shared);
    let mut bases = Vec::new();
    for (depth, c) in [(0, 0), (1, 1), (2, 1)] {
        bases.push(explorer.try_place(depth, c).expect("x on 0, y and a on 1"));
    }
    assert!(explorer.eval.precedes(0, 1));
    assert!(explorer.lookahead_cuts(3, false));
    // One node earlier nothing is decided: `a` may still take switch 0.
    explorer.undo(2, 1, bases[2]);
    assert!(!explorer.lookahead_cuts(2, false));
}

/// Each frontier search starts from a fresh shared key: one left by
/// another frontier names a root index that means nothing in this one. On
/// `TIGHT_INSTANCES[11]` under the ceiling 1 the optimum 0 lies past root
/// 0, so a stale key of 0 at root 0 would cut every later root, the answer
/// with them.
#[test]
fn a_frontier_search_forgets_the_last_frontiers_key() {
    let (tdg, net) = committed_instance(1, (5, 8), 3, 5);
    let (eps, ctx) = (Epsilon::loose(), shaped(0, 2));
    let candidates = net.programmable_switches();
    let order = tdg.topo_order().expect("DAG");
    let shared = SharedSearch::new(&tdg, &net, &eps, order, &candidates, &ctx, u64::MAX);
    shared.best_key.store(0, Ordering::Relaxed);
    let mut pstats = ParallelStats::default();
    let explorers = search_frontier(&shared, 1, 2, &mut pstats);
    let best = explorers.iter().filter_map(|ex| ex.best).min().expect("a leaf at the optimum");
    assert!(best.0 == 0 && best.1 > 0, "{best:?}, {pstats:?}");
}

/// The shared key `(objective, subtree)` cuts a tie only in later
/// subtrees: an earlier one may still hold the lowest-index optimum.
#[test]
fn the_shared_key_cuts_ties_only_after_its_own_subtree() {
    let tdg = crate::test_support::chain_tdg(&[1, 4], 0.5);
    let net = crate::test_support::tiny_switches(2, 2, 0.5);
    let (eps, ctx) = (Epsilon::loose(), SearchContext::unbounded());
    let candidates = net.programmable_switches();
    let order = tdg.topo_order().expect("DAG");
    let shared = SharedSearch::new(&tdg, &net, &eps, order, &candidates, &ctx, u64::MAX);
    shared.best_key.store(5 << 32 | 3, Ordering::Relaxed);
    let mut explorer = Explorer::new(&shared);
    for (root, cuts) in
        [(1, [false, false, true]), (3, [false, false, false]), (4, [false, true, true])]
    {
        explorer.root = root;
        assert_eq!([4, 5, 6].map(|bound| explorer.cut(bound, true)), cuts, "subtree {root}");
        assert_eq!([4, 5, 6].map(|bound| explorer.cut(bound, false)), [false; 3]);
    }
}
