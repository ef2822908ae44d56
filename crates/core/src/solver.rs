//! The solver architecture: one trait, one search context, and the
//! portfolio pipeline.
//!
//! Every optimizer in the workspace — the greedy heuristic, the exact
//! branch-over-assignments search, the MILP front end, and the baseline
//! frameworks — implements [`DeploymentAlgorithm`]. Its `solve` receives a
//! [`SearchContext`] carrying the time budget (a deadline: the one way a
//! budget reaches a solver), a worker budget and a proven objective floor,
//! and returns a uniform [`SolveOutcome`]; `deploy` is `solve` under
//! [`DEFAULT_DEPLOY_BUDGET`], or, for a constructive solver, the
//! construction itself. The context is plain data: solvers share nothing
//! through it.
//!
//! On top of the trait, [`Portfolio`] composes the stack's three answers
//! in order of cost, on the caller's thread: the pre-solve certificates
//! ([`Precheck`](crate::precheck::Precheck) — a proven-infeasible verdict
//! or a proven `A_max` floor), the greedy heuristic, and the exact search
//! that the greedy plan seeds. The exact search only ever accepts leaves
//! strictly below the seed, so ties go to the greedy plan; its own answer
//! is the lowest-index optimal leaf whatever the worker count or timing
//! (see [`crate::exact`]), so the pipeline's plan is a function of its
//! inputs whenever the budget lets the search finish.

use crate::deployment::{DeployError, DeploymentPlan, Epsilon};
use hermes_net::Network;
use hermes_tdg::Tdg;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Wall-clock budget of [`DeploymentAlgorithm::deploy`], which takes
/// none (matching the historic default of the exact solver).
pub const DEFAULT_DEPLOY_BUDGET: Duration = Duration::from_secs(30);

/// Everything a solver may consult while searching: the deadline, the
/// worker budget and the proven objective floor.
///
/// Solvers hold no private timers; the deadline is the time budget.
#[derive(Debug, Clone, Default)]
pub struct SearchContext {
    deadline: Option<Instant>,
    /// Proven lower bound on the objective; 0 = none.
    floor: u64,
    /// Worker budget for parallel searches; `None` = available parallelism.
    threads: Option<NonZeroUsize>,
}

impl SearchContext {
    /// Context with no deadline: exhaustive searches run to completion.
    pub fn unbounded() -> Self {
        SearchContext::default()
    }

    /// Context whose deadline is `limit` from now; a limit past the end
    /// of time is no deadline.
    pub fn with_time_limit(limit: Duration) -> Self {
        SearchContext { deadline: Instant::now().checked_add(limit), ..SearchContext::default() }
    }

    /// Context with an absolute deadline.
    pub fn with_deadline(deadline: Instant) -> Self {
        SearchContext { deadline: Some(deadline), ..SearchContext::default() }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Returns this context with an explicit worker budget for parallel
    /// searches (the parallel exact solver sizes its subtree pool from it).
    #[must_use]
    pub fn with_threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The worker count a parallel search should use: the explicit budget,
    /// else [`std::thread::available_parallelism`] (1 when unknown).
    pub fn worker_count(&self) -> usize {
        match self.threads {
            Some(n) => n.get(),
            None => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        }
    }

    /// `true` when the solver should stop searching: the deadline has
    /// passed. Solvers poll it at node granularity; nothing is ever
    /// interrupted preemptively.
    pub fn should_stop(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The proven lower bound on the objective (0 when none was set).
    ///
    /// A feasible plan whose objective reaches this floor is optimal by
    /// construction — no exhaustion proof needed.
    pub fn objective_floor(&self) -> u64 {
        self.floor
    }

    /// Returns this context with its floor raised to `floor`, which must
    /// be a *proven* lower bound over all feasible plans (e.g. a
    /// [`Precheck`](crate::precheck::Precheck) mandatory-cut certificate):
    /// solvers treat a plan at the floor as optimal.
    #[must_use]
    pub(crate) fn with_floor(mut self, floor: u64) -> Self {
        self.floor = self.floor.max(floor);
        self
    }
}

/// Search effort counters attached to every [`SolveOutcome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound / DFS nodes visited (0 for constructive solvers).
    pub nodes_explored: u64,
    /// Wall-clock time the solver ran.
    pub wall: Duration,
}

/// Uniform result of any [`DeploymentAlgorithm`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The best plan the solver found.
    pub plan: DeploymentPlan,
    /// Its `A_max` objective in bytes (Eq. 1) — always recomputed from the
    /// plan, whatever the solver's native objective is.
    pub objective: u64,
    /// `true` iff `plan` is proven `A_max`-optimal: by exhaustion, or by
    /// reaching the context's proven objective floor.
    pub proven_optimal: bool,
    /// Effort counters.
    pub stats: SolveStats,
}

/// The solver interface of every deployment framework.
///
/// [`solve`](Self::solve) must honour the context: poll
/// [`SearchContext::should_stop`] during long searches. A constructive
/// solver overrides [`deploy`](Self::deploy) with its construction, and its
/// `solve` wraps that.
pub trait DeploymentAlgorithm {
    /// Short display name used in experiment tables (e.g. `"Hermes"`).
    fn name(&self) -> &str;

    /// Runs the search under `ctx` and returns the best outcome found.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when no feasible plan was found.
    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError>;

    /// The plan [`solve`](Self::solve) finds under
    /// [`DEFAULT_DEPLOY_BUDGET`].
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when no feasible deployment was found.
    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        self.solve(tdg, net, eps, &SearchContext::with_time_limit(DEFAULT_DEPLOY_BUDGET))
            .map(|o| o.plan)
    }

    /// `true` for solver-backed frameworks whose running time explodes
    /// with instance size (ILP solvers, exhaustive search). Experiment
    /// harnesses cap their reported times the way the paper caps its
    /// execution-time bars at two hours.
    fn is_exhaustive(&self) -> bool {
        false
    }
}

/// The portfolio pipeline: certificates, then the greedy seed, then the
/// exact search, on the caller's thread (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Portfolio;

impl Portfolio {
    /// The one pairing: the greedy heuristic seeds the exact search.
    pub fn greedy_exact() -> Self {
        Portfolio
    }
}

impl DeploymentAlgorithm for Portfolio {
    fn name(&self) -> &str {
        "Portfolio"
    }

    fn is_exhaustive(&self) -> bool {
        true
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        // Pre-solve bounds: a proven-infeasible instance returns instantly
        // (certificate in hand) instead of burning the budget; a proven
        // A_max floor lets a plan that reaches it — the greedy seed's
        // included — stand as optimal without an exhaustion proof.
        let precheck = crate::precheck::Precheck::run(tdg, net, eps);
        if let Some(cert) = precheck.infeasible() {
            return Err(DeployError::ProvenInfeasible { certificate: cert.clone() });
        }
        let ctx = ctx.clone().with_floor(precheck.amax_floor());
        crate::exact::OptimalSolver::new().solve(tdg, net, eps, &ctx)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::exact::OptimalSolver;
    use crate::heuristic::GreedyHeuristic;
    use crate::test_support::{chain_tdg, tiny_switches};

    #[test]
    fn deadline_in_the_past_stops_immediately() {
        let ctx = SearchContext::with_time_limit(Duration::ZERO);
        assert!(ctx.should_stop());
    }

    #[test]
    fn time_limit_past_the_end_of_time_is_no_deadline() {
        let ctx = SearchContext::with_time_limit(Duration::MAX);
        assert_eq!(ctx.deadline(), None);
        assert!(!ctx.should_stop());
    }

    #[test]
    fn portfolio_matches_exact_and_proves() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let eps = Epsilon::loose();
        let outcome = Portfolio::greedy_exact()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(outcome.objective, 1);
        assert!(outcome.proven_optimal, "{:?}", outcome.stats);
    }

    #[test]
    fn portfolio_never_worse_than_greedy_alone() {
        let tdg = chain_tdg(&[3, 1, 4, 1, 5], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let greedy = GreedyHeuristic::new()
            .solve(&tdg, &net, &eps, &SearchContext::unbounded())
            .unwrap()
            .objective;
        let portfolio = Portfolio::greedy_exact()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
            .unwrap()
            .objective;
        assert!(portfolio <= greedy, "portfolio {portfolio} > greedy {greedy}");
    }

    #[test]
    fn deploy_is_solve_under_the_default_budget() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        let net = tiny_switches(2, 2, 0.5);
        let algo = OptimalSolver::new();
        assert_eq!(algo.name(), "Optimal");
        assert!(algo.is_exhaustive());
        let plan = algo.deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        assert_eq!(plan.max_inter_switch_bytes(&tdg), 1);
    }

    #[test]
    fn portfolio_returns_proven_infeasible_instantly() {
        // eps2 = 1 but the 4 x 0.5 MATs need two 1.0-capacity switches:
        // the precheck settles it without consuming the 10 s budget.
        let tdg = chain_tdg(&[1, 1, 1], 0.5);
        let net = tiny_switches(3, 2, 0.5);
        let eps = Epsilon::new(f64::INFINITY, 1);
        let start = Instant::now();
        let err = Portfolio::greedy_exact()
            .solve(&tdg, &net, &eps, &SearchContext::with_time_limit(Duration::from_secs(10)))
            .unwrap_err();
        assert!(matches!(err, DeployError::ProvenInfeasible { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_millis(100), "{:?}", start.elapsed());
    }

    #[test]
    fn mandatory_cut_floor_certifies_the_seed() {
        // Two 0.7 MATs cannot share a 1.0-capacity switch, so A_max >= 9;
        // the greedy seed achieves 9 and is optimal via the floor alone —
        // no search node is ever visited.
        let tdg = chain_tdg(&[9], 0.7);
        let net = tiny_switches(2, 2, 0.5);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(10));
        let outcome = Portfolio::greedy_exact().solve(&tdg, &net, &Epsilon::loose(), &ctx).unwrap();
        assert_eq!(outcome.objective, 9);
        assert!(outcome.proven_optimal);
        assert_eq!(outcome.stats.nodes_explored, 0);
    }
}
