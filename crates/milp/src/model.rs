//! Model construction: variables, linear expressions, constraints.
//!
//! The builder mirrors the vocabulary of commodity solvers (Gurobi-style):
//! declare variables, combine them into [`LinExpr`]s with `+` and `*`, add
//! constraints with a comparison sense, and set a minimize/maximize
//! objective.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Identifier of a decision variable within one [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Variable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer in `{0, 1}`.
    Binary,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Diagnostic name.
    pub name: String,
    /// Domain kind.
    pub kind: VarKind,
    /// Lower bound (finite; the solver requires bounded-below variables).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
}

/// A linear expression `Σ cᵢ·xᵢ + constant`.
///
/// Built with operator sugar:
///
/// ```
/// use hermes_milp::{LinExpr, Model, VarKind};
///
/// let mut m = Model::new("demo");
/// let x = m.binary("x");
/// let y = m.continuous("y", 0.0, 10.0);
/// let expr = LinExpr::from(x) * 3.0 + LinExpr::from(y) + 1.0;
/// assert_eq!(expr.coefficient(x), 3.0);
/// assert_eq!(expr.constant(), 1.0);
/// # let _ = VarKind::Binary;
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        let entry = self.terms.entry(var).or_insert(0.0);
        *entry += coeff;
        if entry.abs() < 1e-12 {
            self.terms.remove(&var);
        }
        self
    }

    /// Sum of `coeff * var` pairs.
    pub fn sum<I: IntoIterator<Item = (VarId, f64)>>(pairs: I) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in pairs {
            e.add_term(v, c);
        }
        e
    }

    /// The coefficient of `var` (0 if absent).
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// The constant offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates `(var, coeff)` terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of distinct variables.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` iff the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression at a point (indexed by variable).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * values[v.0]).sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, 1.0);
        e
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

/// Comparison sense of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "==",
        })
    }
}

/// A linear constraint `expr (<=|>=|==) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Diagnostic name.
    pub name: String,
    /// Left-hand side (its constant is folded into `rhs` at solve time).
    pub expr: LinExpr,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Errors raised by model validation before solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A variable's bounds are inverted or its lower bound is not finite.
    BadBounds {
        /// The offending variable's name.
        variable: String,
    },
    /// A coefficient or bound is NaN/infinite where finiteness is required.
    NonFinite {
        /// Where the bad number appeared.
        location: String,
    },
    /// The model has no objective set.
    NoObjective,
    /// The dense simplex tableau for this model would exceed the memory
    /// cap; solve a smaller model or use a sparse solver.
    TooLarge {
        /// Tableau cells the model would need.
        cells: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadBounds { variable } => {
                write!(
                    f,
                    "variable `{variable}` has invalid bounds (lower must be finite and <= upper)"
                )
            }
            ModelError::NonFinite { location } => write!(f, "non-finite number in {location}"),
            ModelError::NoObjective => f.write_str("model has no objective"),
            ModelError::TooLarge { cells } => {
                write!(f, "dense tableau of {cells} cells exceeds the memory cap")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A mixed-integer linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: Option<(Direction, LinExpr)>,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model { name: name.into(), variables: Vec::new(), constraints: Vec::new(), objective: None }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a variable with explicit kind and bounds.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> VarId {
        self.variables.push(Variable { name: name.into(), kind, lower, upper });
        VarId(self.variables.len() - 1)
    }

    /// Adds a binary variable.
    pub fn binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds a continuous variable in `[lower, upper]`.
    pub fn continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, lower, upper)
    }

    /// Adds an integer variable in `[lower, upper]`.
    pub fn integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_var(name, VarKind::Integer, lower, upper)
    }

    /// Adds a constraint `expr (sense) rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) {
        self.constraints.push(Constraint { name: name.into(), expr, sense, rhs });
    }

    /// Sets the objective, replacing any previous one.
    pub fn set_objective(&mut self, direction: Direction, expr: LinExpr) {
        self.objective = Some((direction, expr));
    }

    /// The variables in declaration order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints in declaration order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective, if set.
    pub fn objective(&self) -> Option<(&Direction, &LinExpr)> {
        self.objective.as_ref().map(|(d, e)| (d, e))
    }

    /// Ids of variables whose domains are integral (integer or binary).
    pub fn integral_vars(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, VarKind::Integer | VarKind::Binary))
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Validates bounds, finiteness, and objective presence.
    ///
    /// # Errors
    ///
    /// See [`ModelError`].
    pub fn validate(&self) -> Result<(), ModelError> {
        for v in &self.variables {
            if !v.lower.is_finite() || v.lower > v.upper {
                return Err(ModelError::BadBounds { variable: v.name.clone() });
            }
        }
        for c in &self.constraints {
            if !c.rhs.is_finite() || !c.expr.constant().is_finite() {
                return Err(ModelError::NonFinite { location: format!("constraint `{}`", c.name) });
            }
            for (_, coeff) in c.expr.terms() {
                if !coeff.is_finite() {
                    return Err(ModelError::NonFinite {
                        location: format!("constraint `{}`", c.name),
                    });
                }
            }
        }
        match &self.objective {
            None => return Err(ModelError::NoObjective),
            Some((_, e)) => {
                for (_, coeff) in e.terms() {
                    if !coeff.is_finite() {
                        return Err(ModelError::NonFinite { location: "objective".to_owned() });
                    }
                }
            }
        }
        Ok(())
    }

    /// `true` iff the point satisfies every constraint and bound within
    /// `tol`, ignoring integrality.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            if values[i] < v.lower - tol || values[i] > v.upper + tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs = c.expr.eval(values);
            match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Model `{}` ({} vars / {} integral, {} constraints)",
            self.name,
            self.variables.len(),
            self.integral_vars().len(),
            self.constraints.len()
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn expr_arithmetic() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        let y = m.binary("y");
        let e = LinExpr::from(x) * 2.0 + LinExpr::from(y) - LinExpr::from(x) + 3.0;
        assert_eq!(e.coefficient(x), 1.0);
        assert_eq!(e.coefficient(y), 1.0);
        assert_eq!(e.constant(), 3.0);
        assert_eq!(e.eval(&[1.0, 0.0]), 4.0);
    }

    #[test]
    fn cancelled_terms_removed() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        let e = LinExpr::from(x) - LinExpr::from(x);
        assert!(e.is_empty());
        assert_eq!(e.coefficient(x), 0.0);
    }

    #[test]
    fn validate_catches_bad_bounds() {
        let mut m = Model::new("t");
        m.continuous("x", 5.0, 1.0);
        m.set_objective(Direction::Minimize, LinExpr::new());
        assert!(matches!(m.validate(), Err(ModelError::BadBounds { .. })));

        let mut m2 = Model::new("t2");
        m2.continuous("x", f64::NEG_INFINITY, 1.0);
        m2.set_objective(Direction::Minimize, LinExpr::new());
        assert!(matches!(m2.validate(), Err(ModelError::BadBounds { .. })));
    }

    #[test]
    fn validate_requires_objective() {
        let m = Model::new("t");
        assert_eq!(m.validate(), Err(ModelError::NoObjective));
    }

    #[test]
    fn validate_rejects_nan_coefficients() {
        let mut m = Model::new("t");
        let x = m.binary("x");
        m.add_constraint("bad", LinExpr::from(x) * f64::NAN, Sense::Le, 1.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x));
        assert!(matches!(m.validate(), Err(ModelError::NonFinite { .. })));
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0);
        let y = m.continuous("y", 0.0, 10.0);
        m.add_constraint("sum", LinExpr::from(x) + LinExpr::from(y), Sense::Le, 5.0);
        m.set_objective(Direction::Minimize, LinExpr::from(x));
        assert!(m.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[4.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[-1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[0.0], 1e-9));
    }

    #[test]
    fn integral_vars_listed() {
        let mut m = Model::new("t");
        let _x = m.continuous("x", 0.0, 1.0);
        let y = m.binary("y");
        let z = m.integer("z", 0.0, 7.0);
        assert_eq!(m.integral_vars(), vec![y, z]);
    }
}
