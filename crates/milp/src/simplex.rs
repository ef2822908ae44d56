//! Two-phase primal simplex on a dense tableau.
//!
//! Solves the LP relaxation of a [`Model`] with per-call bound overrides
//! (branch and bound tightens bounds without rebuilding the model). The
//! implementation favours clarity and robustness over speed: a dense
//! tableau, a Dantzig pivot rule with a Bland fallback to guarantee
//! termination, and explicit artificial variables for phase 1.

use crate::model::{Direction, Model, ModelError, Sense};

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The solve was interrupted by its stop callback before convergence;
    /// no result fields are meaningful.
    Interrupted,
}

/// Result of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpResult {
    /// Solve outcome.
    pub status: LpStatus,
    /// Objective value in the *original* direction (meaningful only when
    /// `status == Optimal`).
    pub objective: f64,
    /// Values of the model's variables (original space; meaningful only
    /// when `status == Optimal`).
    pub values: Vec<f64>,
}

const EPS: f64 = 1e-9;

/// Upper bound on dense tableau cells (~1 GiB of f64s). Models beyond it
/// fail fast with [`ModelError::TooLarge`] instead of exhausting memory.
const MAX_TABLEAU_CELLS: usize = 128 * 1024 * 1024;

/// Solves the LP relaxation of `model` with the given bound overrides
/// (`lower`/`upper` replace the variables' declared bounds; integrality is
/// ignored).
///
/// # Errors
///
/// Returns [`ModelError`] if the model fails validation or an overridden
/// lower bound is not finite.
pub fn solve_relaxation(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
) -> Result<LpResult, ModelError> {
    solve_relaxation_interruptible(model, lower, upper, None)
}

/// [`solve_relaxation`] with a cooperative stop callback, polled once per
/// simplex iteration. A single relaxation of a large model can run for
/// seconds, so deadline-honouring callers (the branch-and-bound under a
/// [`crate::SolverConfig::deadline`]) must be able to interrupt *inside*
/// the pivot loop, not just between tree nodes. When the callback fires
/// the result carries [`LpStatus::Interrupted`].
///
/// # Errors
///
/// Returns [`ModelError`] if the model fails validation or an overridden
/// lower bound is not finite.
pub fn solve_relaxation_interruptible(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    stop: Option<&dyn Fn() -> bool>,
) -> Result<LpResult, ModelError> {
    model.validate()?;
    let n = model.variables().len();
    assert_eq!(lower.len(), n, "bound override length mismatch");
    assert_eq!(upper.len(), n, "bound override length mismatch");

    for (i, v) in model.variables().iter().enumerate() {
        if !lower[i].is_finite() {
            return Err(ModelError::BadBounds { variable: v.name.clone() });
        }
        if lower[i] > upper[i] + EPS {
            // Branching produced an empty box: trivially infeasible.
            return Ok(LpResult {
                status: LpStatus::Infeasible,
                objective: 0.0,
                values: Vec::new(),
            });
        }
    }

    // --- Standard-form conversion ------------------------------------
    // Substitute x_j = x'_j + lower_j with x'_j >= 0; finite upper bounds
    // become explicit rows x'_j <= upper_j - lower_j.
    #[derive(Clone)]
    struct Row {
        coeffs: Vec<f64>, // length n (structural variables only)
        sense: Sense,
        rhs: f64,
    }

    let mut rows: Vec<Row> = Vec::with_capacity(model.constraints().len() + n);
    for c in model.constraints() {
        let mut coeffs = vec![0.0; n];
        let mut shift = 0.0;
        for (v, a) in c.expr.terms() {
            coeffs[v.index()] = a;
            shift += a * lower[v.index()];
        }
        rows.push(Row { coeffs, sense: c.sense, rhs: c.rhs - c.expr.constant() - shift });
    }
    for j in 0..n {
        if upper[j].is_finite() {
            let mut coeffs = vec![0.0; n];
            coeffs[j] = 1.0;
            rows.push(Row { coeffs, sense: Sense::Le, rhs: upper[j] - lower[j] });
        }
    }

    // Objective: minimize c'x' (+ constant collected separately).
    let (direction, obj_expr) = {
        let (d, e) = model.objective().ok_or(ModelError::NoObjective)?;
        (*d, e.clone())
    };
    let mut costs = vec![0.0; n];
    let mut obj_offset = obj_expr.constant();
    for (v, a) in obj_expr.terms() {
        costs[v.index()] = a;
        obj_offset += a * lower[v.index()];
    }
    let maximize = direction == Direction::Maximize;
    if maximize {
        for c in &mut costs {
            *c = -*c;
        }
        obj_offset = -obj_offset;
    }

    // Normalize rhs >= 0, attach slack/surplus/artificial columns.
    let m = rows.len();
    let mut slack_count = 0usize;
    for r in &mut rows {
        if r.rhs < 0.0 {
            for c in &mut r.coeffs {
                *c = -*c;
            }
            r.rhs = -r.rhs;
            r.sense = match r.sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
        if !matches!(r.sense, Sense::Eq) {
            slack_count += 1;
        }
    }

    // Column layout: [structural n][slack/surplus][artificial][rhs].
    let total_cols = n + slack_count + m; // artificial upper bound: one per row
    let cells = m.saturating_mul(total_cols + 1);
    if cells > MAX_TABLEAU_CELLS {
        return Err(ModelError::TooLarge { cells });
    }
    let mut tab = vec![vec![0.0; total_cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut artificial_cols: Vec<usize> = Vec::new();
    let mut next_slack = n;
    let mut next_art = n + slack_count;

    for (i, r) in rows.iter().enumerate() {
        tab[i][..n].copy_from_slice(&r.coeffs);
        tab[i][total_cols] = r.rhs;
        match r.sense {
            Sense::Le => {
                tab[i][next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Sense::Ge => {
                tab[i][next_slack] = -1.0;
                next_slack += 1;
                tab[i][next_art] = 1.0;
                basis[i] = next_art;
                artificial_cols.push(next_art);
                next_art += 1;
            }
            Sense::Eq => {
                tab[i][next_art] = 1.0;
                basis[i] = next_art;
                artificial_cols.push(next_art);
                next_art += 1;
            }
        }
    }
    let used_cols = next_art;

    // --- Phase 1: minimize sum of artificials -------------------------
    if !artificial_cols.is_empty() {
        let mut phase1 = vec![0.0; used_cols];
        for &a in &artificial_cols {
            phase1[a] = 1.0;
        }
        let end = run_simplex(&mut tab, &mut basis, &phase1, used_cols, total_cols, stop);
        if end == SimplexEnd::Interrupted {
            return Ok(LpResult {
                status: LpStatus::Interrupted,
                objective: 0.0,
                values: Vec::new(),
            });
        }
        let phase1_obj = current_objective(&tab, &basis, &phase1, total_cols);
        if end == SimplexEnd::Unbounded || phase1_obj > 1e-6 {
            return Ok(LpResult {
                status: LpStatus::Infeasible,
                objective: 0.0,
                values: Vec::new(),
            });
        }
        // Pivot any residual artificial out of the basis (degenerate rows).
        for i in 0..m {
            if artificial_cols.contains(&basis[i]) {
                let pivot_col = (0..n + slack_count)
                    .find(|&j| tab[i][j].abs() > EPS && !artificial_cols.contains(&j));
                if let Some(j) = pivot_col {
                    pivot(&mut tab, &mut basis, i, j, total_cols);
                }
                // If no pivot exists the row is all-zero: harmless.
            }
        }
    }

    // --- Phase 2: minimize real costs ---------------------------------
    let mut phase2 = vec![0.0; used_cols];
    phase2[..n].copy_from_slice(&costs);
    // Forbid artificials from re-entering by pricing them prohibitively.
    for &a in &artificial_cols {
        phase2[a] = 1e30;
    }
    match run_simplex(&mut tab, &mut basis, &phase2, used_cols, total_cols, stop) {
        SimplexEnd::Interrupted => {
            return Ok(LpResult {
                status: LpStatus::Interrupted,
                objective: 0.0,
                values: Vec::new(),
            });
        }
        SimplexEnd::Unbounded => {
            return Ok(LpResult {
                status: LpStatus::Unbounded,
                objective: 0.0,
                values: Vec::new(),
            });
        }
        SimplexEnd::Optimal => {}
    }

    // Extract solution in original variable space.
    let mut shifted = vec![0.0; used_cols];
    for i in 0..m {
        if basis[i] != usize::MAX {
            shifted[basis[i]] = tab[i][total_cols];
        }
    }
    let mut values = vec![0.0; n];
    for j in 0..n {
        values[j] = shifted[j] + lower[j];
    }
    let raw_obj: f64 = (0..n).map(|j| costs[j] * shifted[j]).sum::<f64>() + obj_offset;
    let objective = if maximize { -raw_obj } else { raw_obj };
    Ok(LpResult { status: LpStatus::Optimal, objective, values })
}

/// How a phase of the simplex loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimplexEnd {
    /// No entering column remains (or the iteration valve tripped).
    Optimal,
    /// The problem is unbounded in the current phase.
    Unbounded,
    /// The stop callback fired mid-loop.
    Interrupted,
}

/// Runs the simplex loop minimizing `costs`, polling `stop` each iteration
/// (one pivot costs O(rows × cols) — vastly more than the callback).
fn run_simplex(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    costs: &[f64],
    used_cols: usize,
    rhs_col: usize,
    stop: Option<&dyn Fn() -> bool>,
) -> SimplexEnd {
    let m = tab.len();
    let max_iters = 50 * (m + used_cols).max(100);
    let bland_after = 10 * (m + used_cols).max(50);
    for iter in 0..max_iters {
        if stop.is_some_and(|s| s()) {
            return SimplexEnd::Interrupted;
        }
        // Reduced costs: c_j - c_B B^-1 A_j, computed from the tableau form.
        let mut entering = None;
        let mut best = -1e-7; // entering needs a meaningfully negative reduced cost
        for j in 0..used_cols {
            let mut reduced = costs[j];
            for i in 0..m {
                if basis[i] != usize::MAX {
                    reduced -= costs[basis[i]] * tab[i][j];
                }
            }
            if reduced < best {
                if iter >= bland_after {
                    // Bland: first eligible column.
                    entering = Some(j);
                    break;
                }
                best = reduced;
                entering = Some(j);
            }
        }
        let Some(col) = entering else {
            return SimplexEnd::Optimal;
        };
        // Ratio test.
        let mut leaving = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if tab[i][col] > EPS {
                let ratio = tab[i][rhs_col] / tab[i][col];
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving.is_some_and(|l: usize| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(row) = leaving else {
            return SimplexEnd::Unbounded;
        };
        pivot(tab, basis, row, col, rhs_col);
    }
    // Iteration safety valve: treat as converged (best effort).
    SimplexEnd::Optimal
}

#[allow(clippy::needless_range_loop)] // dense-tableau row ops read and write `tab` by column index
fn pivot(tab: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, rhs_col: usize) {
    let m = tab.len();
    let p = tab[row][col];
    debug_assert!(p.abs() > EPS, "pivot on (near-)zero element");
    for j in 0..=rhs_col {
        tab[row][j] /= p;
    }
    for i in 0..m {
        if i != row && tab[i][col].abs() > EPS {
            let factor = tab[i][col];
            for j in 0..=rhs_col {
                tab[i][j] -= factor * tab[row][j];
            }
        }
    }
    basis[row] = col;
}

fn current_objective(tab: &[Vec<f64>], basis: &[usize], costs: &[f64], rhs_col: usize) -> f64 {
    basis
        .iter()
        .enumerate()
        .filter(|(_, &b)| b != usize::MAX)
        .map(|(i, &b)| costs[b] * tab[i][rhs_col])
        .sum()
}

/// Convenience: solve the relaxation with the model's own bounds.
///
/// # Errors
///
/// Returns [`ModelError`] if the model fails validation.
pub fn solve_lp(model: &Model) -> Result<LpResult, ModelError> {
    let lower: Vec<f64> = model.variables().iter().map(|v| v.lower).collect();
    let upper: Vec<f64> = model.variables().iter().map(|v| v.upper).collect();
    solve_relaxation(model, &lower, &upper)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::model::{Direction, LinExpr, Model, Sense};

    #[test]
    fn maximize_2d_lp() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4,0), obj 12.
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.add_constraint("c2", LinExpr::from(x) + LinExpr::from(y) * 3.0, Sense::Le, 6.0);
        m.set_objective(Direction::Maximize, LinExpr::from(x) * 3.0 + LinExpr::from(y) * 2.0);
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 12.0).abs() < 1e-6, "obj {}", r.objective);
        assert!((r.values[0] - 4.0).abs() < 1e-6);
        assert!(r.values[1].abs() < 1e-6);
    }

    #[test]
    fn minimize_with_ge_constraints() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (1.6, 1.2), obj 2.8.
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x) + LinExpr::from(y) * 2.0, Sense::Ge, 4.0);
        m.add_constraint("c2", LinExpr::from(x) * 3.0 + LinExpr::from(y), Sense::Ge, 6.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 2.8).abs() < 1e-6, "obj {}", r.objective);
    }

    #[test]
    fn equality_constraint() {
        // min x s.t. x + y == 5, y <= 3 -> x = 2.
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, 3.0);
        m.add_constraint("c", LinExpr::from(x) + LinExpr::from(y), Sense::Eq, 5.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x), Sense::Ge, 2.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        m.set_objective(Direction::Maximize, LinExpr::from(x));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x, x in [2, 9] -> 2.
        let mut m = Model::new("lp");
        let x = m.continuous("x", 2.0, 9.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 2.0).abs() < 1e-9);
        assert!((r.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bound_overrides_respected() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 10.0);
        m.set_objective(Direction::Maximize, LinExpr::from(x));
        let r = solve_relaxation(&m, &[0.0], &[3.5]).unwrap();
        assert!((r.objective - 3.5).abs() < 1e-9);
        // Empty box -> infeasible.
        let r = solve_relaxation(&m, &[4.0], &[3.0]).unwrap();
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn objective_constant_carried() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 1.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x) + 10.0);
        let r = solve_lp(&m).unwrap();
        assert!((r.objective - 10.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // min y s.t. -x - y <= -3 (i.e. x + y >= 3), x <= 1 -> y = 2.
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 1.0);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c", -(LinExpr::from(x) + LinExpr::from(y)), Sense::Le, -3.0);
        m.set_objective(Direction::Minimize, LinExpr::from(y));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[1] - 2.0).abs() < 1e-6, "y = {}", r.values[1]);
    }

    #[test]
    fn stop_callback_interrupts_the_pivot_loop() {
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
        m.set_objective(Direction::Maximize, LinExpr::from(x) + LinExpr::from(y) * 2.0);
        let stop = || true;
        let r =
            solve_relaxation_interruptible(&m, &[0.0, 0.0], &[10.0, 10.0], Some(&stop)).unwrap();
        assert_eq!(r.status, LpStatus::Interrupted);
        assert!(r.values.is_empty());
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the optimum.
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        for i in 0..6 {
            m.add_constraint(
                format!("c{i}"),
                LinExpr::from(x) + LinExpr::from(y) * (1.0 + i as f64 * 1e-9),
                Sense::Le,
                2.0,
            );
        }
        m.set_objective(Direction::Maximize, LinExpr::from(x) + LinExpr::from(y));
        let r = solve_lp(&m).unwrap();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 2.0).abs() < 1e-5);
    }
}
