//! The typed diagnostic model: machine-readable findings with stable
//! codes, severities, spans, and fix hints.
//!
//! Every analysis pass in this crate — and the re-emitted `dataplane`
//! lints, `core` verifier violations, and precheck certificates — reduces
//! to a [`Diagnostic`]. The code blocks are fixed for the lifetime of the
//! tool so external tooling (CI golden snapshots, editors) can filter on
//! them:
//!
//! | block   | source                                         |
//! |---------|------------------------------------------------|
//! | `HL0xx` | program lints (`hermes_dataplane::lint`)       |
//! | `HD1xx` | TDG dataflow pass (`crate::dataflow`)          |
//! | `HG2xx` | dependency-graph soundness (`crate::graphcheck`)|
//! | `HC3xx` | pre-solve certificates (`hermes_core::precheck`)|
//! | `HV4xx` | plan verifier (`hermes_core::verify`)          |
//! | `HS5xx` | state-access report (`crate::stateaccess`)     |

use crate::stateaccess::StateReport;
use hermes_core::precheck::Certificate;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is. The derived order is `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory: a simplification or optimization opportunity.
    Info,
    /// Suspicious but deployable; behaviour may not match intent.
    Warning,
    /// The workload or instance is broken; deployment should not proceed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a finding points: any combination of program, MAT (plus a second
/// MAT for edge findings), and field. All-`None` means workload-global.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Span {
    /// Owning program name.
    pub program: Option<String>,
    /// Primary MAT (program-qualified where the pass works on merged
    /// graphs).
    pub mat: Option<String>,
    /// Second MAT for edge/pair findings (`mat -> mat_to`).
    pub mat_to: Option<String>,
    /// The field involved.
    pub field: Option<String>,
}

impl Span {
    /// A MAT-level span.
    pub fn mat(name: impl Into<String>) -> Self {
        Span { mat: Some(name.into()), ..Span::default() }
    }

    /// A MAT + field span.
    pub fn mat_field(mat: impl Into<String>, field: impl Into<String>) -> Self {
        Span { mat: Some(mat.into()), field: Some(field.into()), ..Span::default() }
    }

    /// An edge (`from -> to`) span.
    pub fn edge(from: impl Into<String>, to: impl Into<String>) -> Self {
        Span { mat: Some(from.into()), mat_to: Some(to.into()), ..Span::default() }
    }

    /// A field-only span.
    pub fn field(name: impl Into<String>) -> Self {
        Span { field: Some(name.into()), ..Span::default() }
    }

    /// Attaches the owning program.
    pub fn in_program(mut self, program: impl Into<String>) -> Self {
        self.program = Some(program.into());
        self
    }

    /// `true` when the span carries no location at all.
    pub fn is_empty(&self) -> bool {
        self.program.is_none()
            && self.mat.is_none()
            && self.mat_to.is_none()
            && self.field.is_none()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some(p) = &self.program {
            write!(f, "{p}")?;
            wrote = true;
        }
        if let Some(m) = &self.mat {
            if wrote {
                f.write_str("/")?;
            }
            write!(f, "{m}")?;
            wrote = true;
        }
        if let Some(t) = &self.mat_to {
            write!(f, " -> {t}")?;
            wrote = true;
        }
        if let Some(fd) = &self.field {
            if wrote {
                f.write_str(" ")?;
            }
            write!(f, "[{fd}]")?;
        }
        Ok(())
    }
}

/// One finding: a stable code, a severity, a human message, a span, and an
/// optional fix hint. Sort order (derived) is code-first, which groups
/// findings by kind and keeps reports deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable machine code (e.g. `HD101`); see the module table.
    pub code: String,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable one-liner.
    pub message: String,
    /// Where the finding points.
    pub span: Span,
    /// How to fix it, when the pass knows.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic with an empty span and no hint.
    pub fn new(code: &str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_owned(),
            severity,
            message: message.into(),
            span: Span::default(),
            hint: None,
        }
    }

    /// Sets the span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Sets the fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.span.is_empty() {
            write!(f, " (at {})", self.span)?;
        }
        if let Some(h) = &self.hint {
            write!(f, "\n  hint: {h}")?;
        }
        Ok(())
    }
}

/// Aggregate counts of one audit run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Error-severity diagnostics.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Info-severity diagnostics.
    pub infos: usize,
    /// Pre-solve certificates attached (infeasibility proofs and floors).
    pub certificates: usize,
    /// `true` when a certificate proves the instance infeasible.
    pub proven_infeasible: bool,
}

/// The complete result of an audit: sorted diagnostics, the raw precheck
/// certificates (proof objects, not just their diagnostic rendering), and
/// a summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// All findings, sorted by (code, severity, span, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Pre-solve certificates (empty when no instance was audited).
    pub certificates: Vec<Certificate>,
    /// Aggregate counts.
    pub summary: AuditSummary,
    /// The per-field state-access report, when the audit ran with
    /// `--state-report`. Absent otherwise, and omitted from JSON so
    /// reports without it stay byte-identical to older snapshots.
    pub state: Option<StateReport>,
}

// Hand-written (rather than derived) so an absent state report is omitted
// from the JSON instead of serialized as `"state": null` — existing report
// snapshots must not change shape when the feature is off.
impl Serialize for AuditReport {
    fn serialize<W: serde::Write>(&self, s: &mut serde::Serializer<W>) -> Result<(), serde::Error> {
        let mut map = s.begin_map()?;
        map.field("diagnostics", &self.diagnostics)?;
        map.field("certificates", &self.certificates)?;
        map.field("summary", &self.summary)?;
        if let Some(state) = &self.state {
            map.field("state", state)?;
        }
        map.end()
    }
}

impl Deserialize for AuditReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(AuditReport {
            diagnostics: Deserialize::from_value(v.get_field("diagnostics")?)?,
            certificates: Deserialize::from_value(v.get_field("certificates")?)?,
            summary: Deserialize::from_value(v.get_field("summary")?)?,
            state: match v.get_field("state") {
                Ok(sv) => Some(Deserialize::from_value(sv)?),
                Err(_) => None,
            },
        })
    }
}

impl AuditReport {
    /// Builds a report: stable-sorts the diagnostics keyed by
    /// `(code, span)` first — so findings group by kind and then by
    /// location, independently of message wording — with the remaining
    /// fields as tie-breakers for full byte-determinism, then dedups.
    pub fn new(mut diagnostics: Vec<Diagnostic>, certificates: Vec<Certificate>) -> Self {
        diagnostics.sort_by(|a, b| {
            (&a.code, &a.span, a.severity, &a.message, &a.hint)
                .cmp(&(&b.code, &b.span, b.severity, &b.message, &b.hint))
        });
        diagnostics.dedup();
        let summary = AuditSummary {
            errors: diagnostics.iter().filter(|d| d.severity == Severity::Error).count(),
            warnings: diagnostics.iter().filter(|d| d.severity == Severity::Warning).count(),
            infos: diagnostics.iter().filter(|d| d.severity == Severity::Info).count(),
            certificates: certificates.len(),
            proven_infeasible: certificates.iter().any(Certificate::is_infeasible),
        };
        AuditReport { diagnostics, certificates, summary, state: None }
    }

    /// Attaches a state-access report (see `crate::stateaccess`); the
    /// report's `HS5xx` diagnostics must already be in `diagnostics`.
    #[must_use]
    pub fn with_state(mut self, state: StateReport) -> Self {
        self.state = Some(state);
        self
    }

    /// `true` when any error-severity diagnostic is present (the CLI exits
    /// nonzero on this).
    pub fn has_errors(&self) -> bool {
        self.summary.errors > 0
    }

    /// Deterministic pretty JSON (field order is declaration order). The
    /// report holds no value the writer refuses; were one to appear, the
    /// result is the serializer's error text instead.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| e.to_string())
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        if let Some(state) = &self.state {
            for row in &state.fields {
                writeln!(
                    f,
                    "state: {} ({} {} B): {} — {} writer(s), {} reader(s)",
                    row.field, row.kind, row.bytes, row.class, row.writer_mats, row.reader_mats
                )?;
            }
            writeln!(
                f,
                "state: {} of {} fields relaxable; {} of {} dependency edges relaxed ({})",
                state.relaxable_fields,
                state.total_fields,
                state.relaxed_edges,
                state.total_edges,
                state.mode
            )?;
        }
        if self.summary.proven_infeasible {
            writeln!(f, "instance: PROVEN INFEASIBLE before search")?;
        }
        write!(
            f,
            "audit: {} error(s), {} warning(s), {} info(s), {} certificate(s)",
            self.summary.errors,
            self.summary.warnings,
            self.summary.infos,
            self.summary.certificates
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn span_renders_compactly() {
        let s = Span::mat_field("t1", "meta.x").in_program("p");
        assert_eq!(s.to_string(), "p/t1 [meta.x]");
        let e = Span::edge("a", "b");
        assert_eq!(e.to_string(), "a -> b");
        assert!(Span::default().is_empty());
    }

    #[test]
    fn report_sorts_counts_and_flags_errors() {
        let d1 = Diagnostic::new("HD103", Severity::Warning, "w");
        let d2 = Diagnostic::new("HD101", Severity::Error, "e");
        let report = AuditReport::new(vec![d1, d2], Vec::new());
        assert_eq!(report.diagnostics[0].code, "HD101");
        assert_eq!(report.summary.errors, 1);
        assert_eq!(report.summary.warnings, 1);
        assert!(report.has_errors());
    }

    #[test]
    fn report_json_round_trips() {
        let d = Diagnostic::new("HD101", Severity::Error, "boom")
            .with_span(Span::mat("t"))
            .with_hint("fix it");
        let report = AuditReport::new(vec![d], Vec::new());
        let json = report.to_json();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
