//! Branch and bound over the simplex relaxation.
//!
//! Depth-first with best-child-first ordering, bound-based pruning, and
//! deadline / node-count limits. When a limit fires with an incumbent in
//! hand, the solver returns [`SolveStatus::Feasible`] — the behaviour the
//! execution-time experiments rely on to emulate "ILP exceeded two hours"
//! (paper Fig. 7).

use crate::model::{Direction, Model, ModelError, VarId};
use crate::simplex::{solve_relaxation_interruptible, LpStatus};
use std::time::{Duration, Instant};

/// Termination and tolerance knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Give up at this instant (returning the incumbent).
    pub deadline: Option<Instant>,
    /// Give up after exploring this many nodes.
    pub node_limit: Option<usize>,
    /// Stop when `(incumbent - bound) / max(|incumbent|, 1)` drops below
    /// this relative gap.
    pub mip_gap: f64,
    /// How close to an integer counts as integral.
    pub integrality_tol: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            deadline: None,
            node_limit: Some(2_000_000),
            mip_gap: 1e-9,
            integrality_tol: 1e-6,
        }
    }
}

impl SolverConfig {
    /// Config whose deadline is `limit` from now; a limit past the end of
    /// time is no deadline.
    pub fn with_time_limit(limit: Duration) -> Self {
        SolverConfig { deadline: Instant::now().checked_add(limit), ..Default::default() }
    }
}

/// Outcome of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal (within `mip_gap`).
    Optimal,
    /// A limit fired; the reported solution is the best incumbent found.
    Feasible,
    /// No feasible solution exists.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// A limit fired before any incumbent was found.
    LimitReached,
}

/// Result of [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct MipSolution {
    /// Solve outcome.
    pub status: SolveStatus,
    /// Objective of the incumbent (when `Optimal`/`Feasible`).
    pub objective: f64,
    /// Variable values of the incumbent (when `Optimal`/`Feasible`).
    pub values: Vec<f64>,
    /// Nodes explored by branch and bound.
    pub nodes_explored: usize,
    /// Best proven bound on the optimum (in the model's direction).
    pub best_bound: f64,
    /// Wall-clock time spent.
    pub wall_time: Duration,
}

impl MipSolution {
    /// The incumbent value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if no incumbent exists or `var` is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }
}

struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Parent relaxation objective, as a minimize-sense value.
    bound: f64,
}

/// Solves a mixed-integer linear program by branch and bound.
///
/// # Errors
///
/// Returns [`ModelError`] if the model fails validation.
pub fn solve(model: &Model, config: &SolverConfig) -> Result<MipSolution, ModelError> {
    model.validate()?;
    let start = Instant::now();
    let direction = *model.objective().ok_or(ModelError::NoObjective)?.0;
    // Internally compare in minimize sense.
    let sign = match direction {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };

    let int_vars = model.integral_vars();
    let root_lower: Vec<f64> = model.variables().iter().map(|v| v.lower).collect();
    let root_upper: Vec<f64> = model.variables().iter().map(|v| v.upper).collect();

    let mut nodes_explored = 0usize;
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // minimize-sense obj
    let mut root_bound = f64::NEG_INFINITY;
    let mut hit_limit = false;

    // Bound-based pruning: a node that cannot strictly beat the incumbent
    // is dead.
    let dead = |bound: f64, incumbent: &Option<(f64, Vec<f64>)>| {
        incumbent
            .as_ref()
            .is_some_and(|(best, _)| bound >= best - config.mip_gap * best.abs().max(1.0))
    };

    let past_deadline = || config.deadline.is_some_and(|d| Instant::now() >= d);

    let mut stack = vec![Node { lower: root_lower, upper: root_upper, bound: f64::NEG_INFINITY }];

    while let Some(node) = stack.pop() {
        if past_deadline() {
            hit_limit = true;
            break;
        }
        if let Some(limit) = config.node_limit {
            if nodes_explored >= limit {
                hit_limit = true;
                break;
            }
        }
        if dead(node.bound, &incumbent) {
            continue;
        }
        nodes_explored += 1;
        // One relaxation of a large model can outlast the whole budget, so
        // the deadline is polled inside the simplex loop too.
        let relax =
            solve_relaxation_interruptible(model, &node.lower, &node.upper, Some(&past_deadline))?;
        match relax.status {
            LpStatus::Interrupted => {
                hit_limit = true;
                break;
            }
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                // Unbounded relaxation at the root means an unbounded MIP
                // (for our models integrality never restores boundedness).
                return Ok(MipSolution {
                    status: SolveStatus::Unbounded,
                    objective: 0.0,
                    values: Vec::new(),
                    nodes_explored,
                    best_bound: f64::NEG_INFINITY * sign,
                    wall_time: start.elapsed(),
                });
            }
            LpStatus::Optimal => {}
        }
        let bound = sign * relax.objective;
        if nodes_explored == 1 {
            root_bound = bound;
        }
        if dead(bound, &incumbent) {
            continue;
        }
        // Most-fractional branching variable.
        let fractional = int_vars
            .iter()
            .map(|&v| {
                let x = relax.values[v.index()];
                (v, x, (x - x.round()).abs())
            })
            .filter(|&(_, _, frac)| frac > config.integrality_tol)
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));

        match fractional {
            None => {
                // Integer-feasible: snap and accept as incumbent.
                let mut values = relax.values.clone();
                for &v in &int_vars {
                    values[v.index()] = values[v.index()].round();
                }
                if incumbent.as_ref().is_none_or(|(best, _)| bound < *best) {
                    incumbent = Some((bound, values));
                }
            }
            Some((v, x, _)) => {
                let floor = x.floor();
                // Child exploring the "down" branch first is pushed last
                // (DFS pops it first) when its parent relaxation leans down.
                let mut down = Node { lower: node.lower.clone(), upper: node.upper.clone(), bound };
                down.upper[v.index()] = floor;
                let mut up = Node { lower: node.lower, upper: node.upper, bound };
                up.lower[v.index()] = floor + 1.0;
                if x - floor <= 0.5 {
                    stack.push(up);
                    stack.push(down);
                } else {
                    stack.push(down);
                    stack.push(up);
                }
            }
        }
    }

    let open_bound = stack
        .iter()
        .map(|n| n.bound)
        .fold(f64::INFINITY, f64::min)
        .min(incumbent.as_ref().map_or(f64::INFINITY, |(b, _)| *b))
        .max(root_bound);
    let wall_time = start.elapsed();
    Ok(match incumbent {
        Some((obj, values)) => MipSolution {
            status: if hit_limit { SolveStatus::Feasible } else { SolveStatus::Optimal },
            objective: sign * obj,
            values,
            nodes_explored,
            best_bound: sign * open_bound,
            wall_time,
        },
        None => MipSolution {
            status: if hit_limit { SolveStatus::LimitReached } else { SolveStatus::Infeasible },
            objective: 0.0,
            values: Vec::new(),
            nodes_explored,
            best_bound: sign * open_bound,
            wall_time,
        },
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    #[test]
    fn knapsack_optimal() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 -> a + c (17) vs b + c (20).
        let mut m = Model::new("knapsack");
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.add_constraint(
            "w",
            LinExpr::from(a) * 3.0 + LinExpr::from(b) * 4.0 + LinExpr::from(c) * 2.0,
            Sense::Le,
            6.0,
        );
        m.set_objective(
            Direction::Maximize,
            LinExpr::from(a) * 10.0 + LinExpr::from(b) * 13.0 + LinExpr::from(c) * 7.0,
        );
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6, "obj {}", s.objective);
        assert_eq!(s.value(b), 1.0);
        assert_eq!(s.value(c), 1.0);
        assert_eq!(s.value(a), 0.0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 5, x integer -> 2 (LP gives 2.5).
        let mut m = Model::new("t");
        let x = m.integer("x", 0.0, 10.0);
        m.add_constraint("c", LinExpr::from(x) * 2.0, Sense::Le, 5.0);
        m.set_objective(Direction::Maximize, LinExpr::from(x));
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 2.0);
    }

    #[test]
    fn infeasible_mip() {
        // x + y == 1.5 with x, y binary is LP-feasible but IP-infeasible…
        let mut m = Model::new("t");
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_constraint("c", LinExpr::from(x) + LinExpr::from(y), Sense::Eq, 1.5);
        m.set_objective(Direction::Minimize, LinExpr::from(x));
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn equality_assignment() {
        // Assign each of 2 items to exactly one of 2 bins minimizing cost.
        let mut m = Model::new("assign");
        let costs = [[1.0, 9.0], [8.0, 2.0]];
        let mut vars = [[VarId(0); 2]; 2];
        for (i, row) in costs.iter().enumerate() {
            for (j, _) in row.iter().enumerate() {
                vars[i][j] = m.binary(format!("x{i}{j}"));
            }
        }
        for (i, row) in vars.iter().enumerate() {
            m.add_constraint(
                format!("item{i}"),
                LinExpr::from(row[0]) + LinExpr::from(row[1]),
                Sense::Eq,
                1.0,
            );
        }
        let obj = LinExpr::sum(
            vars.iter()
                .enumerate()
                .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &v)| (v, costs[i][j]))),
        );
        m.set_objective(Direction::Minimize, obj);
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert_eq!(s.value(vars[0][0]), 1.0);
        assert_eq!(s.value(vars[1][1]), 1.0);
    }

    #[test]
    fn minimax_via_epigraph() {
        // min t s.t. t >= x, t >= 3 - x, x in {0..3} -> x in {1, 2}, t = 2.
        let mut m = Model::new("minimax");
        let x = m.integer("x", 0.0, 3.0);
        let t = m.continuous("t", 0.0, f64::INFINITY);
        m.add_constraint("t_ge_x", LinExpr::from(t) - LinExpr::from(x), Sense::Ge, 0.0);
        m.add_constraint("t_ge_3mx", LinExpr::from(t) + LinExpr::from(x), Sense::Ge, 3.0);
        m.set_objective(Direction::Minimize, LinExpr::from(t));
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn node_limit_returns_feasible_or_limit() {
        // A 12-item knapsack with a 1-node budget can't prove optimality.
        let mut m = Model::new("big");
        let vars: Vec<VarId> = (0..12).map(|i| m.binary(format!("x{i}"))).collect();
        let weights: Vec<f64> = (0..12).map(|i| 2.0 + (i as f64 * 1.37) % 5.0).collect();
        let values: Vec<f64> = (0..12).map(|i| 1.0 + (i as f64 * 2.11) % 7.0).collect();
        m.add_constraint(
            "w",
            LinExpr::sum(vars.iter().copied().zip(weights.iter().copied())),
            Sense::Le,
            14.0,
        );
        m.set_objective(
            Direction::Maximize,
            LinExpr::sum(vars.iter().copied().zip(values.iter().copied())),
        );
        let config = SolverConfig { node_limit: Some(1), ..Default::default() };
        let s = solve(&m, &config).unwrap();
        assert!(matches!(s.status, SolveStatus::Feasible | SolveStatus::LimitReached));
        assert!(s.nodes_explored <= 1);

        // With the default budget the same model solves to optimality and
        // the bound closes.
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.best_bound >= s.objective - 1e-6);
    }

    #[test]
    fn time_limit_respected() {
        let mut m = Model::new("timed");
        let vars: Vec<VarId> = (0..20).map(|i| m.binary(format!("x{i}"))).collect();
        m.add_constraint("w", LinExpr::sum(vars.iter().map(|&v| (v, 1.0))), Sense::Le, 10.0);
        m.set_objective(Direction::Maximize, LinExpr::sum(vars.iter().map(|&v| (v, 1.0))));
        let config = SolverConfig::with_time_limit(Duration::from_millis(50));
        let s = solve(&m, &config).unwrap();
        assert!(s.wall_time < Duration::from_secs(5));
    }

    /// min x + y over x + y >= 3, x,y integer in [0,5] — optimum 3.
    fn small_min_model() -> Model {
        let mut m = Model::new("min3");
        let x = m.integer("x", 0.0, 5.0);
        let y = m.integer("y", 0.0, 5.0);
        m.add_constraint("c", LinExpr::from(x) + LinExpr::from(y), Sense::Ge, 3.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x) + LinExpr::from(y));
        m
    }

    #[test]
    fn deadline_in_the_past_returns_limit() {
        let m = small_min_model();
        let config = SolverConfig {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..SolverConfig::default()
        };
        let s = solve(&m, &config).unwrap();
        assert_eq!(s.status, SolveStatus::LimitReached);
        assert_eq!(s.nodes_explored, 0);
    }

    #[test]
    fn unbounded_mip() {
        let mut m = Model::new("u");
        let x = m.integer("x", 0.0, f64::INFINITY);
        m.set_objective(Direction::Maximize, LinExpr::from(x));
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Unbounded);
    }

    #[test]
    fn maximize_and_minimize_agree() {
        // min -x == -(max x).
        let mut m1 = Model::new("min");
        let x1 = m1.integer("x", 0.0, 7.0);
        m1.add_constraint("c", LinExpr::from(x1) * 3.0, Sense::Le, 10.0);
        m1.set_objective(Direction::Minimize, -LinExpr::from(x1));
        let s1 = solve(&m1, &SolverConfig::default()).unwrap();

        let mut m2 = Model::new("max");
        let x2 = m2.integer("x", 0.0, 7.0);
        m2.add_constraint("c", LinExpr::from(x2) * 3.0, Sense::Le, 10.0);
        m2.set_objective(Direction::Maximize, LinExpr::from(x2));
        let s2 = solve(&m2, &SolverConfig::default()).unwrap();

        assert_eq!(s1.objective, -s2.objective);
        assert_eq!(s2.objective, 3.0);
    }

    #[test]
    fn bin_packing_small() {
        // 4 items of sizes 5,4,3,2 into bins of 7: optimum 2 bins.
        let sizes = [5.0, 4.0, 3.0, 2.0];
        let bins = 3usize;
        let mut m = Model::new("binpack");
        let y: Vec<VarId> = (0..bins).map(|b| m.binary(format!("y{b}"))).collect();
        let mut x = vec![vec![VarId(0); bins]; sizes.len()];
        for (i, xi) in x.iter_mut().enumerate() {
            for (b, xb) in xi.iter_mut().enumerate() {
                *xb = m.binary(format!("x{i}_{b}"));
            }
        }
        for (i, xi) in x.iter().enumerate() {
            m.add_constraint(
                format!("place{i}"),
                LinExpr::sum(xi.iter().map(|&v| (v, 1.0))),
                Sense::Eq,
                1.0,
            );
        }
        for b in 0..bins {
            let load = LinExpr::sum(x.iter().enumerate().map(|(i, xi)| (xi[b], sizes[i])));
            m.add_constraint(format!("cap{b}"), load - LinExpr::from(y[b]) * 7.0, Sense::Le, 0.0);
        }
        m.set_objective(Direction::Minimize, LinExpr::sum(y.iter().map(|&v| (v, 1.0))));
        let s = solve(&m, &SolverConfig::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 2.0);
    }
}
