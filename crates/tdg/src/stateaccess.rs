//! State-access classification: which fields admit relaxed placement.
//!
//! Every field a workload touches gets a verdict from a four-point
//! lattice, ordered strongest-claim-first:
//!
//! | Verdict | Proof obligation |
//! |---|---|
//! | `ReadOnly` | no MAT writes the field |
//! | `ReadMostlyReplicable` | all writes idempotent, pure functions of packet headers; writer MATs match only on headers; strictly more reader MATs than writer MATs |
//! | `CommutativeUpdate(k)` | every write is a `Fold` of one common kind `k` whose sources are packet headers |
//! | `SingleWriter` | anything else (the conservative default) |
//!
//! `ReadMostlyReplicable` captures Cascone-style read-mostly state: the
//! producing MAT is a pure function of the packet plus control-plane
//! rules, so each consumer's switch can *replicate* the producer instead
//! of having the value shipped over. `CommutativeUpdate` captures
//! P4COM-style aggregation: fold kinds are commutative-associative
//! monoids, so each switch may accumulate into its own identity-initialized
//! partial and the partials combine at any true reader in any order.
//!
//! [`relaxed_type`] turns the verdicts into edge relaxations; it is the
//! single justification rule shared by TDG construction (applying the
//! relaxation) and the plan verifier (rejecting plans whose relaxed edges
//! the rule does not certify).
//!
//! The classifier is a single linear pass over ops with interned
//! accumulators; `hermes-analysis` keeps a naive set-based oracle pinned
//! byte-identical under proptest.

use crate::analysis::DependencyType;
use hermes_dataplane::action::{FoldOp, PrimitiveOp};
use hermes_dataplane::fields::Field;
use hermes_dataplane::Mat;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The lattice verdict for one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StateClass {
    /// No MAT writes the field.
    ReadOnly,
    /// Idempotent header-pure writes, more readers than writers: consumers
    /// may replicate the producer locally.
    ReadMostlyReplicable,
    /// All writes are folds of the carried kind with header sources:
    /// split accumulation is sound.
    CommutativeUpdate(FoldOp),
    /// The conservative default; no relaxation applies.
    SingleWriter,
}

impl StateClass {
    /// `true` when edges justified by this field may be relaxed at all.
    pub fn is_relaxable(self) -> bool {
        matches!(self, StateClass::ReadMostlyReplicable | StateClass::CommutativeUpdate(_))
    }

    /// Stable lower-case label used by diagnostics and the state report.
    pub fn label(self) -> &'static str {
        match self {
            StateClass::ReadOnly => "read-only",
            StateClass::ReadMostlyReplicable => "read-mostly-replicable",
            StateClass::CommutativeUpdate(_) => "commutative-update",
            StateClass::SingleWriter => "single-writer",
        }
    }
}

impl fmt::Display for StateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateClass::CommutativeUpdate(op) => write!(f, "commutative-update({op})"),
            other => f.write_str(other.label()),
        }
    }
}

/// Per-field evidence the classifier accumulated alongside the verdict —
/// surfaced in the `--state-report` view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldEvidence {
    /// The verdict.
    pub class: StateClass,
    /// Distinct MATs writing the field.
    pub writer_mats: usize,
    /// Distinct MATs consuming the field without writing it.
    pub reader_mats: usize,
}

/// The classification of every field a set of MATs touches.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateClassification {
    verdicts: BTreeMap<Field, FieldEvidence>,
}

/// Per-field accumulator for the linear classification pass.
struct FieldAcc {
    writer_mats: BTreeSet<usize>,
    reader_mats: BTreeSet<usize>,
    fold_kinds: BTreeSet<FoldOp>,
    non_fold_write: bool,
    fold_srcs_header_pure: bool,
    writes_replicable: bool,
    writer_matches_header_pure: bool,
}

// Not derived: an untouched field starts with every universally-quantified
// property vacuously true; evidence can only strike properties out.
impl Default for FieldAcc {
    fn default() -> Self {
        FieldAcc {
            writer_mats: BTreeSet::new(),
            reader_mats: BTreeSet::new(),
            fold_kinds: BTreeSet::new(),
            non_fold_write: false,
            fold_srcs_header_pure: true,
            writes_replicable: true,
            writer_matches_header_pure: true,
        }
    }
}

impl StateClassification {
    /// Classifies every field touched by `mats` (typically the node set of
    /// a merged TDG — classification is a property of the *final* workload,
    /// since merging can add writers and demote a verdict).
    pub fn of_mats<'a, I>(mats: I) -> Self
    where
        I: IntoIterator<Item = &'a Mat>,
    {
        let mut accs: BTreeMap<&Field, FieldAcc> = BTreeMap::new();
        for (i, mat) in mats.into_iter().enumerate() {
            let written = mat.written_fields();
            let match_headers_only = mat.match_fields().iter().all(Field::is_header);
            for f in mat.match_fields().iter().chain(mat.action_read_fields()) {
                if !written.contains(f) {
                    accs.entry(f).or_default().reader_mats.insert(i);
                }
            }
            for action in mat.actions() {
                for op in action.ops() {
                    let op_reads_headers_only = op.reads().iter().all(|f| f.is_header());
                    for dst in op.writes() {
                        let acc = accs.entry(dst).or_default();
                        acc.writer_mats.insert(i);
                        acc.writer_matches_header_pure &= match_headers_only;
                        match op {
                            PrimitiveOp::Fold { srcs, op: kind, .. } => {
                                acc.fold_kinds.insert(*kind);
                                acc.fold_srcs_header_pure &= srcs.iter().all(Field::is_header);
                            }
                            _ => acc.non_fold_write = true,
                        }
                        acc.writes_replicable &= !op.is_stateful()
                            && op.writes_are_idempotent()
                            && op_reads_headers_only;
                    }
                }
            }
        }
        let verdicts = accs
            .into_iter()
            .map(|(f, acc)| {
                let class = Self::verdict(f, &acc);
                let evidence = FieldEvidence {
                    class,
                    writer_mats: acc.writer_mats.len(),
                    reader_mats: acc.reader_mats.len(),
                };
                (f.clone(), evidence)
            })
            .collect();
        StateClassification { verdicts }
    }

    fn verdict(field: &Field, acc: &FieldAcc) -> StateClass {
        if acc.writer_mats.is_empty() {
            return StateClass::ReadOnly;
        }
        // Relaxation is only ever claimed for metadata: header writes alter
        // the packet itself and stay order-sensitive conservatively.
        if field.is_metadata() {
            if !acc.non_fold_write && acc.fold_srcs_header_pure {
                if let (1, Some(&kind)) = (acc.fold_kinds.len(), acc.fold_kinds.first()) {
                    return StateClass::CommutativeUpdate(kind);
                }
            }
            if acc.writes_replicable
                && acc.writer_matches_header_pure
                && acc.reader_mats.len() > acc.writer_mats.len()
            {
                return StateClass::ReadMostlyReplicable;
            }
        }
        StateClass::SingleWriter
    }

    /// The verdict for `field`; fields the workload never touches default
    /// to the conservative `SingleWriter`.
    pub fn class(&self, field: &Field) -> StateClass {
        self.verdicts.get(field).map_or(StateClass::SingleWriter, |e| e.class)
    }

    /// All verdicts with their evidence, in field order.
    pub fn verdicts(&self) -> impl Iterator<Item = (&Field, &FieldEvidence)> {
        self.verdicts.iter()
    }

    /// Number of classified fields.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// `true` when no field was classified.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

/// `true` iff every read of `field` inside `b`'s actions is a fold of
/// kind `kind` accumulating *into* `field` (not consuming it as a source).
fn consumes_only_via_fold(b: &Mat, field: &Field, kind: FoldOp) -> bool {
    b.actions().iter().flat_map(|a| a.ops()).all(|op| match op {
        PrimitiveOp::Fold { dst, srcs, op: k } if dst == field => {
            *k == kind && !srcs.contains(field)
        }
        other => !other.reads().contains(&field),
    })
}

/// The edge-relaxation rule: given an edge `a -> b` of base type `base`
/// and the workload's classification, returns the relaxed dependency type
/// when every field justifying the edge is proven relaxable, or `None`
/// when the edge must keep its full obligations.
///
/// - **Match** relaxes when each justifying field (written by `a`,
///   consumed by `b`) is `ReadMostlyReplicable` (consumer replicates the
///   producer), or `CommutativeUpdate(k)` with `b` consuming it *only* as
///   the accumulator of its own `Fold(k)` — never matched on and never
///   read as a source value (folder→folder edges; the combined total
///   still flows to true readers over un-relaxed edges).
/// - **Action** relaxes when each shared written field is
///   `CommutativeUpdate` (the writes commute, so write order is free).
/// - **ReverseMatch** (already zero bytes) relaxes its ordering when each
///   justifying field is relaxable: replicable state tolerates
///   epoch-skewed reads, and a commutative accumulator's observed partial
///   is within relaxed-read semantics.
/// - **Successor** never relaxes: control dependence is not a state
///   access.
pub fn relaxed_type(
    a: &Mat,
    b: &Mat,
    base: DependencyType,
    class: &StateClassification,
) -> Option<DependencyType> {
    // Nonempty, and every member relaxable under `ok`.
    fn justified<'a>(fields: impl Iterator<Item = &'a Field>, ok: impl Fn(&Field) -> bool) -> bool {
        let mut fields = fields.peekable();
        fields.peek().is_some() && fields.all(ok)
    }
    match base.base() {
        DependencyType::Match => {
            let justifying = a.written_fields().iter().filter(|f| b.consumes(f));
            justified(justifying, |f| match class.class(f) {
                StateClass::ReadMostlyReplicable => true,
                StateClass::CommutativeUpdate(k) => {
                    !b.match_fields().contains(f) && consumes_only_via_fold(b, f, k)
                }
                _ => false,
            })
            .then_some(DependencyType::RelaxedMatch)
        }
        DependencyType::Action => {
            let wb = b.written_fields();
            let justifying = a.written_fields().iter().filter(|f| wb.contains(f));
            justified(justifying, |f| matches!(class.class(f), StateClass::CommutativeUpdate(_)))
                .then_some(DependencyType::RelaxedAction)
        }
        DependencyType::ReverseMatch => {
            let wb = b.written_fields();
            let justifying = a.match_fields().iter().filter(|f| wb.contains(f));
            justified(justifying, |f| class.class(f).is_relaxable())
                .then_some(DependencyType::RelaxedReverse)
        }
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::MatchKind;

    fn meta(name: &str, size: u32) -> Field {
        Field::metadata(name.to_owned(), size)
    }

    fn folder(name: &str, acc: &Field, src: &Field, op: FoldOp) -> Mat {
        Mat::builder(name.to_owned())
            .action(Action::new("f").with_op(PrimitiveOp::Fold {
                dst: acc.clone(),
                srcs: vec![src.clone()],
                op,
            }))
            .resource(0.1)
            .build()
            .unwrap()
    }

    fn reader(name: &str, f: &Field) -> Mat {
        Mat::builder(name.to_owned())
            .action(Action::new("r").with_op(PrimitiveOp::Compute {
                dst: Field::header("pkt.out", 4),
                srcs: vec![f.clone()],
            }))
            .resource(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn unwritten_field_is_read_only() {
        let f = meta("meta.x", 4);
        let m = Mat::builder("m")
            .match_field(f.clone(), MatchKind::Exact)
            .action(Action::new("n"))
            .resource(0.1)
            .build()
            .unwrap();
        let c = StateClassification::of_mats([&m]);
        assert_eq!(c.class(&f), StateClass::ReadOnly);
    }

    #[test]
    fn common_fold_kind_is_commutative() {
        let acc = meta("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        let f2 = folder("f2", &acc, &src, FoldOp::Add);
        let c = StateClassification::of_mats([&f1, &f2]);
        assert_eq!(c.class(&acc), StateClass::CommutativeUpdate(FoldOp::Add));
    }

    #[test]
    fn mixed_fold_kinds_are_single_writer() {
        let acc = meta("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        let f2 = folder("f2", &acc, &src, FoldOp::Max);
        let c = StateClassification::of_mats([&f1, &f2]);
        assert_eq!(c.class(&acc), StateClass::SingleWriter);
    }

    #[test]
    fn fold_from_metadata_source_is_not_commutative() {
        // The per-packet fold input must travel with the packet (headers);
        // a metadata source would itself need delivery.
        let acc = meta("meta.sum", 4);
        let src = meta("meta.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        let c = StateClassification::of_mats([&f1]);
        assert_eq!(c.class(&acc), StateClass::SingleWriter);
    }

    #[test]
    fn const_writer_with_majority_readers_is_replicable() {
        let f = meta("meta.cfg", 1);
        let w = Mat::builder("w")
            .action(Action::new("set").with_op(PrimitiveOp::SetConst { dst: f.clone() }))
            .resource(0.1)
            .build()
            .unwrap();
        let r1 = reader("r1", &f);
        let r2 = reader("r2", &f);
        let c = StateClassification::of_mats([&w, &r1, &r2]);
        assert_eq!(c.class(&f), StateClass::ReadMostlyReplicable);
        // One reader is not a majority: 1 writer vs 1 reader.
        let c = StateClassification::of_mats([&w, &r1]);
        assert_eq!(c.class(&f), StateClass::SingleWriter);
    }

    #[test]
    fn metadata_matched_writer_is_not_replicable() {
        // A producer matching on metadata cannot be replicated from packet
        // content alone.
        let f = meta("meta.cfg", 1);
        let gate = meta("meta.gate", 1);
        let w = Mat::builder("w")
            .match_field(gate, MatchKind::Exact)
            .action(Action::new("set").with_op(PrimitiveOp::SetConst { dst: f.clone() }))
            .resource(0.1)
            .build()
            .unwrap();
        let r1 = reader("r1", &f);
        let r2 = reader("r2", &f);
        let c = StateClassification::of_mats([&w, &r1, &r2]);
        assert_eq!(c.class(&f), StateClass::SingleWriter);
    }

    #[test]
    fn register_and_self_referential_writes_stay_single_writer() {
        let out = meta("meta.count", 4);
        let idx = Field::header("pkt.idx", 4);
        let reg =
            Mat::builder("reg")
                .action(Action::new("bump").with_op(PrimitiveOp::RegisterOp {
                    index: idx.clone(),
                    out: Some(out.clone()),
                }))
                .resource(0.1)
                .build()
                .unwrap();
        let r1 = reader("r1", &out);
        let r2 = reader("r2", &out);
        let c = StateClassification::of_mats([&reg, &r1, &r2]);
        assert_eq!(c.class(&out), StateClass::SingleWriter);

        let ewma = meta("meta.ewma", 4);
        let s =
            Mat::builder("s")
                .action(Action::new("ewma").with_op(PrimitiveOp::Compute {
                    dst: ewma.clone(),
                    srcs: vec![ewma.clone(), idx],
                }))
                .resource(0.1)
                .build()
                .unwrap();
        let c = StateClassification::of_mats([&s, &reader("r1", &ewma), &reader("r2", &ewma)]);
        assert_eq!(c.class(&ewma), StateClass::SingleWriter);
    }

    #[test]
    fn written_header_is_single_writer() {
        let h = Field::header("pkt.mark", 1);
        let w = Mat::builder("w")
            .action(Action::new("set").with_op(PrimitiveOp::SetConst { dst: h.clone() }))
            .resource(0.1)
            .build()
            .unwrap();
        let c = StateClassification::of_mats([&w, &reader("r1", &h), &reader("r2", &h)]);
        assert_eq!(c.class(&h), StateClass::SingleWriter);
    }

    #[test]
    fn folder_pair_relaxes_but_reader_edge_does_not() {
        let acc = meta("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        let f2 = folder("f2", &acc, &src, FoldOp::Add);
        let r = reader("r", &acc);
        let c = StateClassification::of_mats([&f1, &f2, &r]);
        // Folder -> folder: the downstream consumes the accumulator only
        // as its own fold destination.
        assert_eq!(
            relaxed_type(&f1, &f2, DependencyType::Match, &c),
            Some(DependencyType::RelaxedMatch)
        );
        // Folder -> true reader: the partials must be delivered.
        assert_eq!(relaxed_type(&f1, &r, DependencyType::Match, &c), None);
    }

    #[test]
    fn matching_on_the_accumulator_blocks_relaxation() {
        let acc = meta("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        // A folder that ALSO matches on the accumulator observes the value.
        let f2 = Mat::builder("f2")
            .match_field(acc.clone(), MatchKind::Exact)
            .action(Action::new("f").with_op(PrimitiveOp::Fold {
                dst: acc.clone(),
                srcs: vec![src],
                op: FoldOp::Add,
            }))
            .resource(0.1)
            .build()
            .unwrap();
        let c = StateClassification::of_mats([&f1, &f2]);
        assert_eq!(relaxed_type(&f1, &f2, DependencyType::Match, &c), None);
    }

    #[test]
    fn successor_never_relaxes() {
        let acc = meta("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        let f2 = folder("f2", &acc, &src, FoldOp::Add);
        let c = StateClassification::of_mats([&f1, &f2]);
        assert_eq!(relaxed_type(&f1, &f2, DependencyType::Successor, &c), None);
    }

    #[test]
    fn action_edge_relaxes_only_for_commutative_fields() {
        let acc = meta("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let f1 = folder("f1", &acc, &src, FoldOp::Add);
        let f2 = folder("f2", &acc, &src, FoldOp::Add);
        let c = StateClassification::of_mats([&f1, &f2]);
        assert_eq!(
            relaxed_type(&f1, &f2, DependencyType::Action, &c),
            Some(DependencyType::RelaxedAction)
        );
        // Plain double-writers stay ordered.
        let w1 = Mat::builder("w1")
            .action(Action::writing("w", [acc.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let w2 = Mat::builder("w2")
            .action(Action::writing("w", [acc.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let c = StateClassification::of_mats([&w1, &w2]);
        assert_eq!(relaxed_type(&w1, &w2, DependencyType::Action, &c), None);
    }

    #[test]
    fn library_real_programs_classify_conservatively() {
        // The paper's testbed workload has no folds: nothing may claim
        // CommutativeUpdate, so relaxation cannot touch its plans.
        let programs = library::real_programs();
        let mats: Vec<&Mat> = programs.iter().flat_map(|p| p.tables()).collect();
        let c = StateClassification::of_mats(mats.iter().copied());
        assert!(c.verdicts().all(|(_, e)| !matches!(e.class, StateClass::CommutativeUpdate(_))));
    }

    #[test]
    fn allreduce_accumulator_is_commutative() {
        let p = library::aggregation::allreduce();
        let mats: Vec<&Mat> = p.tables().iter().collect();
        let c = StateClassification::of_mats(mats.iter().copied());
        assert_eq!(c.class(&meta("meta.agg_sum", 4)), StateClass::CommutativeUpdate(FoldOp::Add));
        assert_eq!(c.class(&Field::header("pkt.val", 4)), StateClass::ReadOnly);
    }
}
