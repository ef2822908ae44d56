//! Actions executed by match-action tables.
//!
//! An action is a short straight-line sequence of primitive operations
//! (the ALU vocabulary of a RMT/Tofino-style pipeline). For deployment
//! purposes only two aspects matter: the set of fields the action *writes*
//! (drives dependency typing and metadata sizing) and the set it *reads*
//! (used together with match fields when estimating resource needs).

use crate::fields::{ContentHasher, Field};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The combining operator of a [`PrimitiveOp::Fold`]: a commutative,
/// associative binary operation with an identity element.
///
/// These four are exactly the operators whose algebra makes split
/// accumulation sound: partial folds computed independently (each starting
/// from the identity) can be combined in any order and any grouping and
/// still yield the value a single serialized accumulator would have
/// produced. That algebraic fact is what the state-access classification
/// pass proves and what the `RelaxedState` TDG mode exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FoldOp {
    /// `dst += f(srcs)` — identity 0.
    Add,
    /// `dst = max(dst, f(srcs))` — identity the type minimum.
    Max,
    /// `dst = min(dst, f(srcs))` — identity the type maximum.
    Min,
    /// `dst |= f(srcs)` — identity 0 (bitwise union).
    Or,
}

impl FoldOp {
    /// Stable lower-case name used by the p4dsl surface syntax
    /// (`fold_add`, `fold_max`, ...) and the state report.
    pub fn name(self) -> &'static str {
        match self {
            FoldOp::Add => "add",
            FoldOp::Max => "max",
            FoldOp::Min => "min",
            FoldOp::Or => "or",
        }
    }
}

impl fmt::Display for FoldOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A primitive operation inside an action body.
///
/// The operands let callers express realistic actions; dependency analysis
/// only consumes the derived read/write sets.
///
/// New variants are appended at the end: the derived `Ord` (which drives
/// MAT signatures and merge folding) and the serde wire form of existing
/// variants must stay stable across releases.
#[allow(missing_docs)] // variant fields are self-describing operands
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PrimitiveOp {
    /// `dst = const` — write an immediate value into a field.
    SetConst { dst: Field },
    /// `dst = src` — copy one field into another.
    Copy { dst: Field, src: Field },
    /// `dst = f(srcs...)` — arithmetic/boolean combination of fields.
    Compute { dst: Field, srcs: Vec<Field> },
    /// `dst = hash(srcs...)` — hash of a set of fields (e.g. a CRC index).
    Hash { dst: Field, srcs: Vec<Field> },
    /// Read-modify-write on a stateful register array addressed by `index`,
    /// optionally exporting the old value into `out`.
    RegisterOp { index: Field, out: Option<Field> },
    /// Drop the packet. Reads/writes nothing.
    Drop,
    /// Send the packet to an output port held in `port`.
    Forward { port: Field },
    /// `dst = op(dst, f(srcs...))` — accumulate into `dst` with a
    /// commutative-associative combiner. Reads `srcs` *and* `dst` (it is a
    /// read-modify-write), writes `dst`. The declared [`FoldOp`] is the
    /// evidence the state-access pass consumes to prove the accumulator
    /// `CommutativeUpdate`.
    Fold { dst: Field, srcs: Vec<Field>, op: FoldOp },
}

impl PrimitiveOp {
    /// Fields written by this operation.
    pub fn writes(&self) -> Vec<&Field> {
        match self {
            PrimitiveOp::SetConst { dst }
            | PrimitiveOp::Copy { dst, .. }
            | PrimitiveOp::Compute { dst, .. }
            | PrimitiveOp::Hash { dst, .. } => vec![dst],
            PrimitiveOp::RegisterOp { out, .. } => out.iter().collect(),
            PrimitiveOp::Drop => Vec::new(),
            PrimitiveOp::Forward { port } => vec![port],
            PrimitiveOp::Fold { dst, .. } => vec![dst],
        }
    }

    /// Fields read by this operation.
    pub fn reads(&self) -> Vec<&Field> {
        match self {
            PrimitiveOp::SetConst { .. } | PrimitiveOp::Drop => Vec::new(),
            PrimitiveOp::Copy { src, .. } => vec![src],
            PrimitiveOp::Compute { srcs, .. } | PrimitiveOp::Hash { srcs, .. } => {
                srcs.iter().collect()
            }
            PrimitiveOp::RegisterOp { index, .. } => vec![index],
            PrimitiveOp::Forward { port } => vec![port],
            // A fold is a read-modify-write: the accumulator is read too.
            PrimitiveOp::Fold { dst, srcs, .. } => {
                srcs.iter().chain(std::iter::once(dst)).collect()
            }
        }
    }

    /// `true` for operations that touch stateful switch memory.
    pub fn is_stateful(&self) -> bool {
        matches!(self, PrimitiveOp::RegisterOp { .. })
    }

    /// The fold operator, for fold operations.
    pub fn fold_op(&self) -> Option<FoldOp> {
        match self {
            PrimitiveOp::Fold { op, .. } => Some(*op),
            _ => None,
        }
    }

    /// Folds the operation into `h`: a variant tag, then each operand in
    /// declaration order, a field as its content word and a field list
    /// length first.
    pub fn write_content(&self, h: &mut ContentHasher) {
        let fields = |h: &mut ContentHasher, fields: &[Field]| {
            h.write_u64(fields.len() as u64);
            fields.iter().for_each(|f| h.write_u64(f.content_hash()));
        };
        match self {
            PrimitiveOp::SetConst { dst } => {
                h.write_u64(0);
                h.write_u64(dst.content_hash());
            }
            PrimitiveOp::Copy { dst, src } => {
                h.write_u64(1);
                h.write_u64(dst.content_hash());
                h.write_u64(src.content_hash());
            }
            PrimitiveOp::Compute { dst, srcs } => {
                h.write_u64(2);
                h.write_u64(dst.content_hash());
                fields(h, srcs);
            }
            PrimitiveOp::Hash { dst, srcs } => {
                h.write_u64(3);
                h.write_u64(dst.content_hash());
                fields(h, srcs);
            }
            PrimitiveOp::RegisterOp { index, out } => {
                h.write_u64(4);
                h.write_u64(index.content_hash());
                fields(h, out.as_slice());
            }
            PrimitiveOp::Drop => h.write_u64(5),
            PrimitiveOp::Forward { port } => {
                h.write_u64(6);
                h.write_u64(port.content_hash());
            }
            PrimitiveOp::Fold { dst, srcs, op } => {
                h.write_u64(7);
                h.write_u64(dst.content_hash());
                fields(h, srcs);
                h.write_u64(match op {
                    FoldOp::Add => 0,
                    FoldOp::Max => 1,
                    FoldOp::Min => 2,
                    FoldOp::Or => 3,
                });
            }
        }
    }

    /// `true` if every write this operation performs is *idempotent*:
    /// re-executing it (or executing a replica concurrently) yields the
    /// same final value because the written value does not depend on the
    /// destination's prior contents. This is the per-op evidence behind
    /// the `ReadMostlyReplicable` verdict.
    pub fn writes_are_idempotent(&self) -> bool {
        match self {
            PrimitiveOp::Drop => true,
            PrimitiveOp::SetConst { .. } | PrimitiveOp::Copy { .. } | PrimitiveOp::Hash { .. } => {
                true
            }
            // A compute is idempotent unless it reads its own destination
            // (e.g. `ttl = ttl - 1` is not; `v = f(a, b)` is).
            PrimitiveOp::Compute { dst, srcs } => !srcs.contains(dst),
            // Register read-modify-write and the exported old value are
            // order-sensitive by definition.
            PrimitiveOp::RegisterOp { .. } => false,
            PrimitiveOp::Forward { port: _ } => true,
            // A fold reads its accumulator; never idempotent.
            PrimitiveOp::Fold { .. } => false,
        }
    }
}

/// A named action: the unit a matching rule invokes.
///
/// # Examples
///
/// ```
/// use hermes_dataplane::action::{Action, PrimitiveOp};
/// use hermes_dataplane::fields::{Field, headers};
///
/// let idx = Field::metadata("meta.idx", 4);
/// let act = Action::new("compute_index")
///     .with_op(PrimitiveOp::Hash { dst: idx.clone(), srcs: vec![headers::ipv4_src()] });
/// assert!(act.writes().contains(&idx));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Action {
    name: String,
    ops: Vec<PrimitiveOp>,
}

impl Action {
    /// Creates an empty action with the given name (a no-op until ops are
    /// added with [`Action::with_op`]).
    pub fn new(name: impl Into<String>) -> Self {
        Action { name: name.into(), ops: Vec::new() }
    }

    /// Appends a primitive operation, returning the extended action.
    #[must_use]
    pub fn with_op(mut self, op: PrimitiveOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Convenience: an action that writes each of `fields` with a computed
    /// value (one `Compute` op per field, no reads).
    pub fn writing<I>(name: impl Into<String>, fields: I) -> Self
    where
        I: IntoIterator<Item = Field>,
    {
        let mut action = Action::new(name);
        for f in fields {
            action.ops.push(PrimitiveOp::Compute { dst: f, srcs: Vec::new() });
        }
        action
    }

    /// The action's name, unique within its table.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The primitive operations in execution order.
    pub fn ops(&self) -> &[PrimitiveOp] {
        &self.ops
    }

    /// The set of fields this action writes.
    pub fn writes(&self) -> BTreeSet<Field> {
        self.ops.iter().flat_map(|op| op.writes().into_iter().cloned()).collect()
    }

    /// The set of fields this action reads.
    pub fn reads(&self) -> BTreeSet<Field> {
        self.ops.iter().flat_map(|op| op.reads().into_iter().cloned()).collect()
    }

    /// Folds the action into `h`: its name, then its operations in order
    /// ([`PrimitiveOp::write_content`]), count first.
    pub fn write_content(&self, h: &mut ContentHasher) {
        h.write_str(&self.name);
        h.write_u64(self.ops.len() as u64);
        self.ops.iter().for_each(|op| op.write_content(h));
    }

    /// `true` if any operation uses stateful register memory.
    pub fn is_stateful(&self) -> bool {
        self.ops.iter().any(PrimitiveOp::is_stateful)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ops", self.name, self.ops.len())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::fields::headers;

    fn idx() -> Field {
        Field::metadata("meta.idx", 4)
    }

    #[test]
    fn hash_op_reads_srcs_writes_dst() {
        let op =
            PrimitiveOp::Hash { dst: idx(), srcs: vec![headers::ipv4_src(), headers::ipv4_dst()] };
        assert_eq!(op.writes(), vec![&idx()]);
        assert_eq!(op.reads().len(), 2);
    }

    #[test]
    fn register_op_is_stateful_and_optionally_writes() {
        let without_out = PrimitiveOp::RegisterOp { index: idx(), out: None };
        assert!(without_out.is_stateful());
        assert!(without_out.writes().is_empty());

        let out = Field::metadata("meta.count", 4);
        let with_out = PrimitiveOp::RegisterOp { index: idx(), out: Some(out.clone()) };
        assert_eq!(with_out.writes(), vec![&out]);
        assert_eq!(with_out.reads(), vec![&idx()]);
    }

    #[test]
    fn action_aggregates_reads_and_writes() {
        let act = Action::new("a")
            .with_op(PrimitiveOp::Hash { dst: idx(), srcs: vec![headers::ipv4_src()] })
            .with_op(PrimitiveOp::RegisterOp { index: idx(), out: None });
        assert!(act.writes().contains(&idx()));
        assert!(act.reads().contains(&headers::ipv4_src()));
        assert!(act.reads().contains(&idx()));
        assert!(act.is_stateful());
    }

    #[test]
    fn drop_consumes_no_alu() {
        let act = Action::new("deny").with_op(PrimitiveOp::Drop);
        assert!(!act.is_stateful());
        assert!(act.writes().is_empty());
        assert!(act.reads().is_empty());
    }

    #[test]
    fn fold_reads_accumulator_and_sources() {
        let acc = Field::metadata("meta.sum", 4);
        let src = headers::ipv4_src();
        let op = PrimitiveOp::Fold { dst: acc.clone(), srcs: vec![src.clone()], op: FoldOp::Add };
        assert_eq!(op.writes(), vec![&acc]);
        assert!(op.reads().contains(&&acc), "fold is a read-modify-write");
        assert!(op.reads().contains(&&src));
        assert!(!op.is_stateful());
        assert!(!op.writes_are_idempotent());
        assert_eq!(op.fold_op(), Some(FoldOp::Add));
    }

    #[test]
    fn idempotence_table() {
        let f = idx();
        assert!(PrimitiveOp::SetConst { dst: f.clone() }.writes_are_idempotent());
        assert!(
            PrimitiveOp::Copy { dst: f.clone(), src: headers::ipv4_src() }.writes_are_idempotent()
        );
        assert!(PrimitiveOp::Compute { dst: f.clone(), srcs: vec![headers::ipv4_src()] }
            .writes_are_idempotent());
        // Self-referential compute (ttl = ttl - 1) is not idempotent.
        assert!(
            !PrimitiveOp::Compute { dst: f.clone(), srcs: vec![f.clone()] }.writes_are_idempotent()
        );
        assert!(!PrimitiveOp::RegisterOp { index: f.clone(), out: Some(f.clone()) }
            .writes_are_idempotent());
    }

    #[test]
    fn writing_constructor_writes_all_fields() {
        let fields = [idx(), Field::metadata("meta.ts", 12)];
        let act = Action::writing("w", fields.clone());
        let w = act.writes();
        for f in &fields {
            assert!(w.contains(f));
        }
        assert!(act.reads().is_empty());
    }
}
