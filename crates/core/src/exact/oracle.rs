//! The reference the exact search's cuts are held to: a plain recursive
//! depth-first search with the same seed, entry bound, candidate order and
//! symmetry break, and nothing else — no lookahead, no cycle test before
//! the push (acyclicity is recomputed from the assignment after it), no
//! incumbent key shared across subtrees, no frontier. It returns the first
//! leaf of minimum objective in DFS order, which is the leaf the
//! production search's reduction must return at every worker count.

use super::*;
use crate::eval::UNASSIGNED;
use crate::solver::NO_BOUND;
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
    let outcome = |plan, objective, proven_optimal, proven_bound| SolveOutcome {
        plan,
        objective,
        proven_optimal,
        stats: SolveStats { nodes_explored: 0, wall: Duration::ZERO, proven_bound },
    };
    let candidates = net.programmable_switches();
    if candidates.is_empty() {
        return Err(DeployError::NoProgrammableSwitch);
    }
    if tdg.node_count() == 0 {
        ctx.publish_incumbent(0);
        return Ok(outcome(DeploymentPlan::new(), 0, true, Some(0)));
    }
    let mut seed = None;
    if let Ok(plan) = GreedyHeuristic::new().deploy(tdg, net, eps) {
        let objective = plan.max_inter_switch_bytes(tdg);
        ctx.publish_incumbent(objective);
        if objective <= ctx.objective_floor() {
            return Ok(outcome(plan, objective, true, Some(objective)));
        }
        seed = Some((objective, plan));
    }
    if ctx.incumbent_bound() == 0 {
        return match seed {
            Some((objective, plan)) => Ok(outcome(plan, objective, false, Some(0))),
            None => Err(DeployError::NoImprovementProven { bound: 0 }),
        };
    }
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
        entry_bound: ctx.incumbent_bound(),
        eval: IncrementalEval::new(tdg, q),
        packings: candidates
            .iter()
            .map(|&id| Packing::new(&net.switch(id).target_model(), tdg.node_count()))
            .collect(),
        log: Vec::new(),
        best: u64::MAX,
        best_assign: None,
        ctx,
    };
    dfs.visit(0);

    let own_best = seed.as_ref().map_or(u64::MAX, |(objective, _)| *objective).min(dfs.best);
    let mut best_plan = seed;
    if let Some(assign) = dfs.best_assign {
        if let Ok(plan) = materialize(tdg, net, eps, &candidates, &assign) {
            best_plan = Some((plan.max_inter_switch_bytes(tdg).min(own_best), plan));
        }
    }
    let shared_bound = ctx.incumbent_bound();
    let proven_bound = Some(own_best.min(shared_bound));
    match best_plan {
        Some((objective, plan)) => Ok(outcome(
            plan,
            objective,
            objective <= shared_bound || objective <= ctx.objective_floor(),
            proven_bound,
        )),
        None if shared_bound != NO_BOUND => {
            Err(DeployError::NoImprovementProven { bound: shared_bound })
        }
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
    log: Vec<(u32, f64)>,
    best: u64,
    best_assign: Option<Vec<usize>>,
    ctx: &'a SearchContext,
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
            self.ctx.publish_incumbent(objective);
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
fn production(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    prebound: Option<u64>,
    workers: usize,
) -> String {
    let ctx = context(prebound).with_threads(NonZeroUsize::new(workers).expect("workers >= 1"));
    render(OptimalSolver::new().solve(tdg, net, eps, &ctx))
}

fn reference(tdg: &Tdg, net: &Network, eps: &Epsilon, prebound: Option<u64>) -> String {
    render(reference_solve(tdg, net, eps, &context(prebound)))
}

fn context(prebound: Option<u64>) -> SearchContext {
    let ctx = SearchContext::unbounded();
    if let Some(bound) = prebound {
        ctx.publish_incumbent(bound);
    }
    ctx
}

fn render(result: Result<SolveOutcome, DeployError>) -> String {
    let result = result.map(|mut outcome| {
        outcome.stats.nodes_explored = 0;
        outcome.stats.wall = Duration::ZERO;
        outcome
    });
    format!("{result:?}")
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

    /// The cuts never change what the search returns: plan, objective,
    /// optimality and proven bound equal the reference's at one worker and
    /// at 2–4, on random DAG programs over tight switches, with ε₂ binding
    /// or not, a latency bound that forces leaves through `materialize`,
    /// and a pre-published bound above, at or below the optimum.
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
        let prebound = match next(&mut state) % 4 {
            0 => Some(next(&mut state) % 24),
            _ => None,
        };
        let expected = reference(&tdg, &net, &eps, prebound);
        for workers in [1, workers] {
            prop_assert_eq!(
                production(&tdg, &net, &eps, prebound, workers),
                expected.clone(),
                "workers = {}", workers
            );
        }
    }
}

/// The library plus three programs from the synthetic generator on
/// `linear:3`, as the committed `tight-exact` instances are built.
fn committed_instance(generator_seed: u64, tables: (usize, usize), extra: usize) -> (Tdg, Network) {
    let config =
        SyntheticConfig { tables_min: tables.0, tables_max: tables.1, ..Default::default() };
    let mut programs = library::real_programs();
    programs.extend(SyntheticGenerator::new(generator_seed, config).programs(extra));
    crate::test_support::linear_testbed(&programs)
}

/// A committed `tight-exact` instance the helper threads start on
/// (≈3·10⁴ nodes): the same outcome as the reference at 1 and 2 workers.
#[test]
fn a_committed_instance_returns_the_reference_outcome() {
    let (tdg, net) = committed_instance(3, (3, 6), 3);
    let eps = Epsilon::loose();
    let expected = reference(&tdg, &net, &eps, None);
    for workers in [1, 2] {
        assert_eq!(production(&tdg, &net, &eps, None, workers), expected, "workers = {workers}");
    }
}

/// The cuts' yield on the hardest committed instance, at one worker (where
/// the count is deterministic): 1 183 911 nodes before them.
#[test]
fn the_hardest_committed_instance_takes_at_most_800_000_nodes() {
    let (tdg, net) = committed_instance(2, (3, 6), 3);
    let ctx = SearchContext::unbounded().with_threads(NonZeroUsize::MIN);
    let (result, stats) =
        OptimalSolver::new().solve_instrumented(&tdg, &net, &Epsilon::loose(), &ctx);
    let outcome = result.expect("the instance is feasible");
    assert_eq!((outcome.objective, outcome.proven_optimal), (2, true));
    assert!(
        outcome.stats.nodes_explored <= 800_000,
        "{} nodes, {stats:?}",
        outcome.stats.nodes_explored
    );
    assert!(stats.lookahead_prunes > 0 && stats.cycle_rejects > 0, "{stats:?}");
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
    let shared = SharedSearch::new(&tdg, &net, &eps, order, &candidates, &ctx);
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

/// The shared key `(objective, subtree)` cuts a tie only in later
/// subtrees: an earlier one may still hold the lowest-index optimum.
#[test]
fn the_shared_key_cuts_ties_only_after_its_own_subtree() {
    let tdg = crate::test_support::chain_tdg(&[1, 4], 0.5);
    let net = crate::test_support::tiny_switches(2, 2, 0.5);
    let (eps, ctx) = (Epsilon::loose(), SearchContext::unbounded());
    let candidates = net.programmable_switches();
    let order = tdg.topo_order().expect("DAG");
    let shared = SharedSearch::new(&tdg, &net, &eps, order, &candidates, &ctx);
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
