//! Pass 4 — state-access reporting: the `HS5xx` diagnostics behind
//! `hermes audit --state-report`.
//!
//! [`hermes_tdg::stateaccess`] classifies fields in one linear pass over
//! interned accumulators; the crate's test-only `oracles` module pins it,
//! by unit and property tests, to a deliberately naive per-field rescan
//! written from the lattice definition rather than from the fast pass. A
//! divergence in either direction is a bug in one of the two derivations.
//!
//! [`state_report`] renders the classification of a workload (the *merged*
//! TDG node set — classification is a property of the final workload) as a
//! serializable [`StateReport`], and [`state_diagnostics`] re-emits it
//! through the typed diagnostic model:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `HS501` | info | field is read-mostly replicable |
//! | `HS502` | info | field admits commutative split accumulation |
//! | `HS503` | warning | multi-writer field stays single-writer (mixed ops) |
//! | `HS504` | info | workload summary: relaxable fields / relaxed edges |

use crate::diag::{Diagnostic, Severity, Span};
use hermes_core::ProgramAnalyzer;
use hermes_dataplane::program::Program;
use hermes_tdg::{AnalysisMode, StateClass, StateClassification, Tdg};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// The state report.
// ---------------------------------------------------------------------

/// One field's row in the state report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldReport {
    /// Field name.
    pub field: String,
    /// `"header"` or `"metadata"`.
    pub kind: String,
    /// Field width in bytes.
    pub bytes: u32,
    /// The verdict's display form (`commutative-update(add)` etc.).
    pub class: String,
    /// `true` when edges justified by this field may relax.
    pub relaxable: bool,
    /// Distinct MATs writing the field.
    pub writer_mats: usize,
    /// Distinct MATs consuming the field without writing it.
    pub reader_mats: usize,
}

/// The full state-access report of one workload, as `hermes audit
/// --state-report --json` emits it. Field order is lexicographic, so the
/// JSON is byte-reproducible and golden-diffable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateReport {
    /// The analysis mode the workload was analyzed under.
    pub mode: String,
    /// Per-field verdicts, sorted by field name.
    pub fields: Vec<FieldReport>,
    /// Count of fields classified.
    pub total_fields: usize,
    /// Count of fields with a relaxable verdict.
    pub relaxable_fields: usize,
    /// Edges of the merged TDG carrying a relaxed dependency type.
    pub relaxed_edges: usize,
    /// Total edges of the merged TDG.
    pub total_edges: usize,
}

impl StateReport {
    /// Deterministic pretty JSON. The report holds no value the writer
    /// refuses; were one to appear, the result is the serializer's error
    /// text instead.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| e.to_string())
    }
}

/// Builds the state report for a workload: merges the per-program TDGs
/// the way the deployment pipeline does, through [`ProgramAnalyzer`]
/// (classification is a property of the final node set), and classifies
/// every touched field.
pub fn state_report(programs: &[Program], mode: AnalysisMode) -> StateReport {
    state_report_of_tdg(&ProgramAnalyzer::with_mode(mode).analyze(programs))
}

/// [`state_report`] over an already-built (typically merged) TDG.
pub fn state_report_of_tdg(tdg: &Tdg) -> StateReport {
    let class = StateClassification::of_mats(tdg.nodes().iter().map(|n| &n.mat));
    let fields: Vec<FieldReport> = class
        .verdicts()
        .map(|(f, e)| FieldReport {
            field: f.name().to_owned(),
            kind: if f.is_header() { "header".to_owned() } else { "metadata".to_owned() },
            bytes: f.size_bytes(),
            class: e.class.to_string(),
            relaxable: e.class.is_relaxable(),
            writer_mats: e.writer_mats,
            reader_mats: e.reader_mats,
        })
        .collect();
    let relaxable_fields = fields.iter().filter(|f| f.relaxable).count();
    StateReport {
        mode: format!("{:?}", tdg.mode()),
        total_fields: fields.len(),
        relaxable_fields,
        relaxed_edges: tdg.edges().iter().filter(|e| e.dep.is_relaxed()).count(),
        total_edges: tdg.edge_count(),
        fields,
    }
}

// ---------------------------------------------------------------------
// HS5xx diagnostics.
// ---------------------------------------------------------------------

/// Re-renders a state report as `HS5xx` diagnostics: one per relaxable
/// field, one per missed multi-writer field, plus the workload summary.
pub fn state_diagnostics(report: &StateReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &report.fields {
        if f.class == StateClass::ReadMostlyReplicable.to_string() {
            out.push(
                Diagnostic::new(
                    "HS501",
                    Severity::Info,
                    format!(
                        "`{}` is read-mostly replicable ({} writer(s), {} reader(s))",
                        f.field, f.writer_mats, f.reader_mats
                    ),
                )
                .with_span(Span::field(&f.field))
                .with_hint(
                    "consumers may replicate the producer locally instead of shipping the value",
                ),
            );
        } else if f.relaxable {
            out.push(
                Diagnostic::new(
                    "HS502",
                    Severity::Info,
                    format!("`{}` admits commutative split accumulation ({})", f.field, f.class),
                )
                .with_span(Span::field(&f.field))
                .with_hint(
                    "each switch may fold into an identity-initialized partial; order is free",
                ),
            );
        } else if f.kind == "metadata" && f.writer_mats >= 2 {
            out.push(
                Diagnostic::new(
                    "HS503",
                    Severity::Warning,
                    format!(
                        "`{}` has {} writers but stays single-writer ({})",
                        f.field, f.writer_mats, f.class
                    ),
                )
                .with_span(Span::field(&f.field))
                .with_hint("mixed or non-commutative write ops serialize every writer pair; unify the fold kind"),
            );
        }
    }
    out.push(
        Diagnostic::new(
            "HS504",
            Severity::Info,
            format!(
                "{} of {} fields relaxable; {} of {} dependency edges relaxed",
                report.relaxable_fields,
                report.total_fields,
                report.relaxed_edges,
                report.total_edges
            ),
        )
        .with_hint("run with relaxation enabled to let solvers exploit the relaxable fields"),
    );
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_dataplane::action::{Action, FoldOp, PrimitiveOp};
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use std::collections::BTreeSet;

    #[test]
    fn state_report_rows_are_sorted_and_counted() {
        let report = state_report(&[library::aggregation::allreduce()], AnalysisMode::RelaxedState);
        assert_eq!(report.total_fields, report.fields.len());
        let names: Vec<&str> = report.fields.iter().map(|f| f.field.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "rows must come out in field order");
        assert!(report.relaxable_fields >= 1, "{report:?}");
        assert!(report.relaxed_edges >= 1, "{report:?}");
        // The JSON round-trips.
        let back: StateReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn conservative_report_relaxes_nothing() {
        let report = state_report(&[library::aggregation::allreduce()], AnalysisMode::PaperLiteral);
        assert_eq!(report.relaxed_edges, 0, "{report:?}");
        // Verdicts are mode-independent; only edge relaxation is gated.
        assert!(report.relaxable_fields >= 1);
    }

    #[test]
    fn hs_codes_cover_the_report() {
        let programs = library::aggregation::all();
        let report = state_report(&programs, AnalysisMode::RelaxedState);
        let diags = state_diagnostics(&report);
        let codes: BTreeSet<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        // The suite exercises replication (replicated_config), commutative
        // folds (allreduce/wordcount/telemetry), and a missed multi-writer
        // field is not guaranteed — but the summary always is.
        assert!(codes.contains("HS501"), "{codes:?}");
        assert!(codes.contains("HS502"), "{codes:?}");
        assert!(codes.contains("HS504"), "{codes:?}");
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn hs503_fires_on_mixed_fold_kinds() {
        use hermes_dataplane::mat::Mat;
        let acc = Field::metadata("meta.sum", 4);
        let src = Field::header("pkt.v", 4);
        let mk = |name: &str, op: FoldOp| {
            Mat::builder(name.to_owned())
                .action(Action::new(format!("f_{name}")).with_op(PrimitiveOp::Fold {
                    dst: acc.clone(),
                    srcs: vec![src.clone()],
                    op,
                }))
                .resource(0.1)
                .build()
                .unwrap()
        };
        let p = Program::builder("p")
            .table(mk("a", FoldOp::Add))
            .table(mk("b", FoldOp::Max))
            .build()
            .unwrap();
        let report = state_report(&[p], AnalysisMode::RelaxedState);
        let diags = state_diagnostics(&report);
        assert!(diags.iter().any(|d| d.code == "HS503"), "{diags:?}");
        assert_eq!(report.relaxed_edges, 0);
    }
}
