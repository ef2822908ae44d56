//! Dependency typing and metadata-size analysis (paper §IV, Algorithm 1).
//!
//! Given two MATs `a` (upstream in program order) and `b` (downstream), the
//! dependency type is decided from their field read/write sets:
//!
//! | Type | Condition | Metadata `A(a,b)` |
//! |---|---|---|
//! | Match (𝕄) | `F^a_a ∩ F^m_b ≠ ∅` | metadata in `F^a_a` |
//! | Action (𝔸) | `F^a_a ∩ F^a_b ≠ ∅` | metadata in `F^a_a ∪ F^a_b` |
//! | Reverse match (ℝ) | `F^m_a ∩ F^a_b ≠ ∅` | 0 (ordering only) |
//! | Successor (𝕊) | explicit control gate | metadata in `F^a_a` |
//!
//! Precedence follows Jose et al. \[8\]: 𝕄 > 𝔸 > 𝕊 > ℝ (a pair that
//! qualifies for several types gets the strongest).
//!
//! The paper's Algorithm 1 sums the sizes of *all* metadata fields in the
//! relevant set ([`AnalysisMode::PaperLiteral`]). A tighter variant only
//! counts metadata actually consumed by the downstream MAT
//! ([`AnalysisMode::Intersection`]); it is exposed for ablation studies.

use hermes_dataplane::fields::Field;
use hermes_dataplane::fieldset::{FieldSet, FieldTable};
use hermes_dataplane::{Action, Mat};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four MAT dependency types of the paper, plus their *relaxed*
/// shadows produced by the state-access classification pass.
///
/// A relaxed edge records that the base dependency exists but that every
/// field justifying it was proven relaxable (`ReadMostlyReplicable` or
/// `CommutativeUpdate`): the edge carries zero metadata bytes and imposes
/// neither a stage ordering nor an inter-switch route. Relaxed variants
/// are appended after the paper's four so the derived `Ord` and the serde
/// wire form of existing graphs stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DependencyType {
    /// 𝕄 — downstream matches a field the upstream modifies.
    Match,
    /// 𝔸 — both MATs modify a common field.
    Action,
    /// ℝ — downstream modifies a field the upstream matches; pure ordering.
    ReverseMatch,
    /// 𝕊 — upstream's result gates whether downstream executes.
    Successor,
    /// 𝕄 whose justifying fields are all proven relaxable.
    RelaxedMatch,
    /// 𝔸 whose shared written fields are all proven `CommutativeUpdate`.
    RelaxedAction,
    /// ℝ whose justifying fields are all proven relaxable.
    RelaxedReverse,
}

impl DependencyType {
    /// The paper dependency type this edge relaxes; identity for the four
    /// base types.
    pub fn base(self) -> DependencyType {
        match self {
            DependencyType::RelaxedMatch => DependencyType::Match,
            DependencyType::RelaxedAction => DependencyType::Action,
            DependencyType::RelaxedReverse => DependencyType::ReverseMatch,
            other => other,
        }
    }

    /// `true` for the relaxed shadow variants.
    pub fn is_relaxed(self) -> bool {
        matches!(
            self,
            DependencyType::RelaxedMatch
                | DependencyType::RelaxedAction
                | DependencyType::RelaxedReverse
        )
    }
}

impl fmt::Display for DependencyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DependencyType::Match => "match",
            DependencyType::Action => "action",
            DependencyType::ReverseMatch => "reverse-match",
            DependencyType::Successor => "successor",
            DependencyType::RelaxedMatch => "relaxed-match",
            DependencyType::RelaxedAction => "relaxed-action",
            DependencyType::RelaxedReverse => "relaxed-reverse-match",
        };
        f.write_str(s)
    }
}

/// How `A(a,b)` counts metadata fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnalysisMode {
    /// Algorithm 1 as printed: every metadata field in the relevant
    /// write-set counts, whether or not the downstream MAT consumes it.
    #[default]
    PaperLiteral,
    /// Only metadata the downstream MAT actually reads/matches counts.
    /// Tighter; used by the ablation benchmarks.
    Intersection,
    /// [`PaperLiteral`](AnalysisMode::PaperLiteral) byte counting plus the
    /// state-access relaxation pass: after inference, edges whose only
    /// justification is a field proven `ReadMostlyReplicable` or
    /// `CommutativeUpdate` are downgraded to their relaxed shadow type and
    /// carry zero bytes. Opt-in; the default mode never relaxes.
    RelaxedState,
}

impl AnalysisMode {
    /// The byte-counting discipline of this mode: `RelaxedState` counts
    /// un-relaxed edges exactly like `PaperLiteral`.
    pub fn byte_mode(self) -> AnalysisMode {
        match self {
            AnalysisMode::Intersection => AnalysisMode::Intersection,
            AnalysisMode::PaperLiteral | AnalysisMode::RelaxedState => AnalysisMode::PaperLiteral,
        }
    }

    /// `true` when this mode runs the state-access relaxation pass.
    pub fn relaxes_state(self) -> bool {
        matches!(self, AnalysisMode::RelaxedState)
    }
}

/// Infers the dependency type between `a` (upstream) and `b` (downstream),
/// or `None` when the pair is independent.
///
/// `gated` reports whether the enclosing program declares a successor gate
/// `a -> b`; gates cannot be derived from field sets.
pub fn classify(a: &Mat, b: &Mat, gated: bool) -> Option<DependencyType> {
    let wa = a.written_fields();
    // Downstream *consumes* a field either by matching on it or by reading
    // it inside an action body (e.g. a register index). Both are data
    // dependencies in the Jose et al. sense, so both type as Match.
    if wa.iter().any(|f| b.consumes(f)) {
        return Some(DependencyType::Match);
    }
    let wb = b.written_fields();
    if wa.iter().any(|f| wb.contains(f)) {
        return Some(DependencyType::Action);
    }
    if gated {
        return Some(DependencyType::Successor);
    }
    let ma = a.match_fields();
    if wb.iter().any(|f| ma.contains(f)) {
        return Some(DependencyType::ReverseMatch);
    }
    None
}

fn metadata_bytes<'a>(fields: impl IntoIterator<Item = &'a Field>) -> u32 {
    fields.into_iter().map(Field::overhead_bytes).sum()
}

/// Computes `A(a,b)` — the bytes of metadata that must ride on every packet
/// if `a` and `b` end up on different switches — for an edge of the given
/// type (Algorithm 1, lines 10–18).
pub fn metadata_amount(a: &Mat, b: &Mat, dep: DependencyType, mode: AnalysisMode) -> u32 {
    // Relaxed edges never carry metadata: that is their entire point.
    if dep.is_relaxed() {
        return 0;
    }
    let wa = a.written_fields();
    match (dep, mode.byte_mode()) {
        (DependencyType::ReverseMatch, _) => 0,
        (DependencyType::Match, AnalysisMode::PaperLiteral)
        | (DependencyType::Successor, AnalysisMode::PaperLiteral) => metadata_bytes(wa),
        (DependencyType::Match, AnalysisMode::Intersection) => {
            metadata_bytes(wa.iter().filter(|f| b.consumes(f)))
        }
        (DependencyType::Successor, AnalysisMode::Intersection) => {
            // The gate outcome must travel; approximate it by the metadata
            // the downstream table consumes, falling back to 1 byte.
            metadata_bytes(wa.iter().filter(|f| b.consumes(f))).max(1)
        }
        (DependencyType::Action, AnalysisMode::PaperLiteral) => {
            let wb = b.written_fields();
            metadata_bytes(wa) + metadata_bytes(wb.iter().filter(|f| !wa.contains(f)))
        }
        (DependencyType::Action, AnalysisMode::Intersection) => {
            let wb = b.written_fields();
            metadata_bytes(wa.iter().filter(|f| wb.contains(f)))
        }
        // Relaxed deps returned early; `byte_mode` never yields RelaxedState.
        _ => unreachable!("normalized above"),
    }
}

/// A MAT's field sets interned against a shared [`FieldTable`] — the
/// hot-path mirror of the sorted-slice accessors on [`Mat`].
///
/// Built once per node before the pair loops of TDG construction and
/// merging; [`classify_profiles`] and [`metadata_amount_profiles`] then
/// decide every pair with word-AND/OR loops instead of `Field`
/// comparisons. It is interned straight from the MAT's match keys and
/// action bodies, not from the sets the MAT caches, so the profile path and
/// the reference path ([`classify`] / [`metadata_amount`], which read those
/// sets) stay two derivations from one `Mat`: the audit's graph check and
/// the `eval_equivalence` property suite compare one with the other.
#[derive(Debug, Clone)]
pub struct MatProfile {
    /// `F^m` — fields the MAT matches on.
    pub matched: FieldSet,
    /// `F^a` — fields the MAT's actions write.
    pub written: FieldSet,
    /// `F^m ∪ action-read fields` — everything the MAT consumes; the
    /// downstream side of a 𝕄 dependency test.
    pub consumed: FieldSet,
    /// Cached `metadata_bytes(written)` — the PaperLiteral 𝕄/𝕊 amount.
    pub written_overhead: u32,
}

impl MatProfile {
    /// Interns `mat`'s field sets into `table` and builds its profile.
    pub fn build(mat: &Mat, table: &mut FieldTable) -> Self {
        let mut matched = FieldSet::new();
        for spec in mat.match_specs() {
            matched.insert(table.intern(&spec.field));
        }
        let mut written = FieldSet::new();
        let mut consumed = matched.clone();
        for op in mat.actions().iter().flat_map(Action::ops) {
            for f in op.writes() {
                written.insert(table.intern(f));
            }
            for f in op.reads() {
                consumed.insert(table.intern(f));
            }
        }
        let written_overhead = table.overhead_sum(&written);
        MatProfile { matched, written, consumed, written_overhead }
    }
}

/// Interned-profile twin of [`classify`]: same precedence (𝕄 > 𝔸 > 𝕊 > ℝ),
/// decided with bitset intersection tests.
pub fn classify_profiles(a: &MatProfile, b: &MatProfile, gated: bool) -> Option<DependencyType> {
    if a.written.intersects(&b.consumed) {
        return Some(DependencyType::Match);
    }
    if a.written.intersects(&b.written) {
        return Some(DependencyType::Action);
    }
    if gated {
        return Some(DependencyType::Successor);
    }
    if a.matched.intersects(&b.written) {
        return Some(DependencyType::ReverseMatch);
    }
    None
}

/// Interned-profile twin of [`metadata_amount`]: computes `A(a,b)` with
/// overhead sums over word-AND/OR loops, no set materialization.
pub fn metadata_amount_profiles(
    table: &FieldTable,
    a: &MatProfile,
    b: &MatProfile,
    dep: DependencyType,
    mode: AnalysisMode,
) -> u32 {
    if dep.is_relaxed() {
        return 0;
    }
    match (dep, mode.byte_mode()) {
        (DependencyType::ReverseMatch, _) => 0,
        (DependencyType::Match, AnalysisMode::PaperLiteral)
        | (DependencyType::Successor, AnalysisMode::PaperLiteral) => a.written_overhead,
        (DependencyType::Match, AnalysisMode::Intersection) => {
            table.intersection_overhead(&a.written, &b.consumed)
        }
        (DependencyType::Successor, AnalysisMode::Intersection) => {
            table.intersection_overhead(&a.written, &b.consumed).max(1)
        }
        (DependencyType::Action, AnalysisMode::PaperLiteral) => {
            table.union_overhead(&a.written, &b.written)
        }
        (DependencyType::Action, AnalysisMode::Intersection) => {
            table.intersection_overhead(&a.written, &b.written)
        }
        // Relaxed deps returned early; `byte_mode` never yields RelaxedState.
        _ => unreachable!("normalized above"),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::headers;
    use hermes_dataplane::mat::MatchKind;

    fn writer(name: &str, fields: &[Field]) -> Mat {
        Mat::builder(name.to_owned())
            .action(Action::writing("w", fields.iter().cloned()))
            .resource(0.1)
            .build()
            .unwrap()
    }

    fn matcher(name: &str, fields: &[Field]) -> Mat {
        let mut b = Mat::builder(name.to_owned()).action(Action::new("noop")).resource(0.1);
        for f in fields {
            b = b.match_field(f.clone(), MatchKind::Exact);
        }
        b.build().unwrap()
    }

    fn meta(name: &str, size: u32) -> Field {
        Field::metadata(name.to_owned(), size)
    }

    #[test]
    fn match_dependency_detected() {
        let f = meta("meta.x", 4);
        let a = writer("a", std::slice::from_ref(&f));
        let b = matcher("b", &[f]);
        assert_eq!(classify(&a, &b, false), Some(DependencyType::Match));
    }

    #[test]
    fn action_dependency_detected() {
        let f = meta("meta.x", 4);
        let a = writer("a", std::slice::from_ref(&f));
        let b = writer("b", &[f]);
        assert_eq!(classify(&a, &b, false), Some(DependencyType::Action));
    }

    #[test]
    fn reverse_match_detected() {
        let f = meta("meta.x", 4);
        let a = matcher("a", std::slice::from_ref(&f));
        let b = writer("b", &[f]);
        assert_eq!(classify(&a, &b, false), Some(DependencyType::ReverseMatch));
    }

    #[test]
    fn successor_requires_gate() {
        let a = writer("a", &[meta("meta.x", 4)]);
        let b = matcher("b", &[meta("meta.y", 2)]);
        assert_eq!(classify(&a, &b, false), None);
        assert_eq!(classify(&a, &b, true), Some(DependencyType::Successor));
    }

    #[test]
    fn match_takes_precedence_over_action_and_gate() {
        let f = meta("meta.x", 4);
        let a = writer("a", std::slice::from_ref(&f));
        let b = Mat::builder("b")
            .match_field(f.clone(), MatchKind::Exact)
            .action(Action::writing("w", [f]))
            .resource(0.1)
            .build()
            .unwrap();
        assert_eq!(classify(&a, &b, true), Some(DependencyType::Match));
    }

    #[test]
    fn paper_literal_match_counts_all_written_metadata() {
        let shared = meta("meta.x", 4);
        let extra = meta("meta.z", 12);
        let a = writer("a", &[shared.clone(), extra]);
        let b = matcher("b", &[shared]);
        assert_eq!(metadata_amount(&a, &b, DependencyType::Match, AnalysisMode::PaperLiteral), 16);
    }

    #[test]
    fn intersection_match_counts_only_consumed_metadata() {
        let shared = meta("meta.x", 4);
        let extra = meta("meta.z", 12);
        let a = writer("a", &[shared.clone(), extra]);
        let b = matcher("b", &[shared]);
        assert_eq!(metadata_amount(&a, &b, DependencyType::Match, AnalysisMode::Intersection), 4);
    }

    #[test]
    fn header_fields_never_count() {
        let a = writer("a", &[headers::ipv4_ttl()]);
        let b = matcher("b", &[headers::ipv4_ttl()]);
        assert_eq!(classify(&a, &b, false), Some(DependencyType::Match));
        assert_eq!(metadata_amount(&a, &b, DependencyType::Match, AnalysisMode::PaperLiteral), 0);
    }

    #[test]
    fn reverse_match_carries_no_metadata() {
        let f = meta("meta.x", 4);
        let a = matcher("a", std::slice::from_ref(&f));
        let b = writer("b", &[f]);
        for mode in [AnalysisMode::PaperLiteral, AnalysisMode::Intersection] {
            assert_eq!(metadata_amount(&a, &b, DependencyType::ReverseMatch, mode), 0);
        }
    }

    #[test]
    fn action_dependency_unions_write_sets_in_paper_mode() {
        let f = meta("meta.x", 4);
        let g = meta("meta.g", 6);
        let a = writer("a", std::slice::from_ref(&f));
        let b = writer("b", &[f.clone(), g]);
        assert_eq!(metadata_amount(&a, &b, DependencyType::Action, AnalysisMode::PaperLiteral), 10);
        assert_eq!(metadata_amount(&a, &b, DependencyType::Action, AnalysisMode::Intersection), 4);
    }

    #[test]
    fn profiles_agree_with_reference_on_all_pairs() {
        let f = meta("meta.x", 4);
        let g = meta("meta.g", 6);
        let mats = [
            writer("w-f", std::slice::from_ref(&f)),
            writer("w-fg", &[f.clone(), g.clone()]),
            matcher("m-f", std::slice::from_ref(&f)),
            matcher("m-g", std::slice::from_ref(&g)),
            writer("w-hdr", &[headers::ipv4_ttl()]),
        ];
        let mut table = FieldTable::new();
        let profiles: Vec<MatProfile> =
            mats.iter().map(|m| MatProfile::build(m, &mut table)).collect();
        for (i, a) in mats.iter().enumerate() {
            for (j, b) in mats.iter().enumerate() {
                for gated in [false, true] {
                    let reference = classify(a, b, gated);
                    let interned = classify_profiles(&profiles[i], &profiles[j], gated);
                    assert_eq!(interned, reference, "classify {i}->{j} gated={gated}");
                    if let Some(dep) = reference {
                        for mode in [AnalysisMode::PaperLiteral, AnalysisMode::Intersection] {
                            assert_eq!(
                                metadata_amount_profiles(
                                    &table,
                                    &profiles[i],
                                    &profiles[j],
                                    dep,
                                    mode
                                ),
                                metadata_amount(a, b, dep, mode),
                                "amount {i}->{j} {dep:?} {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn successor_intersection_has_floor_of_one_byte() {
        let a = writer("a", &[meta("meta.x", 4)]);
        let b = matcher("b", &[meta("meta.unrelated", 2)]);
        assert_eq!(
            metadata_amount(&a, &b, DependencyType::Successor, AnalysisMode::Intersection),
            1
        );
    }
}
