//! Pass 3 + orchestration: the audit entry points the `hermes audit` CLI
//! subcommand shells out to.
//!
//! [`audit_programs`] runs everything that needs only the workload: the
//! `hermes_dataplane` composition lints, the exhaustive per-program graph
//! cross-check, and the dataflow + recorded-edge passes over the merged
//! TDG. The per-program TDGs are built straight into the merge, and the
//! graph cross-check reads each program's edges as they are typed there.
//! [`audit_instance`] adds the
//! [`hermes_core::precheck`] bounds for a concrete network and ε budget —
//! the same certificates the portfolio consumes to return
//! proven-infeasible before burning wall clock.
//!
//! Lints and certificates carry their own stable codes (`HL0xx`,
//! `HC3xx`); this module only maps them onto the [`Diagnostic`] shape and
//! assigns severities.

use crate::dataflow::dataflow_diagnostics;
use crate::diag::{AuditReport, Diagnostic, Severity, Span};
use crate::graphcheck::{check_part, check_tdg};
use hermes_core::precheck::{Certificate, Precheck};
use hermes_core::Epsilon;
use hermes_dataplane::lint::{lint_composition, Lint};
use hermes_dataplane::program::Program;
use hermes_net::Network;
use hermes_tdg::{merge_programs, AnalysisMode, Tdg};

/// Re-renders a composition lint as a typed diagnostic.
pub fn lint_to_diagnostic(lint: &Lint) -> Diagnostic {
    let (severity, span, hint) = match lint {
        Lint::MetadataReadBeforeWrite { table, field } => (
            Severity::Error,
            Span::mat_field(table, field),
            "the field reads as zero on hardware; write it first or drop the match",
        ),
        Lint::MetadataNeverConsumed { table, field } => (
            Severity::Warning,
            Span::mat_field(table, field),
            "pure pipeline waste; the field also inflates A(a,b) when piggybacked",
        ),
        Lint::TableWithoutActions { table } => (
            Severity::Warning,
            Span::mat(table),
            "packets hit the table and nothing happens; add an action or remove it",
        ),
        Lint::RedundantGate { from, to } => (
            Severity::Info,
            Span::edge(from, to),
            "the data dependency already orders the pair; the gate adds nothing",
        ),
        Lint::OversizedCapacity { table, .. } => (
            Severity::Warning,
            Span::mat(table),
            "resources are billed by declared capacity; shrink C_a to what the rules need",
        ),
        Lint::DuplicateTableName { table, .. } => (
            Severity::Error,
            Span::mat(table),
            "structurally different same-named tables break merge bookkeeping; rename one",
        ),
        Lint::CrossProgramSharedWrite { field, first_table, second_table } => (
            Severity::Warning,
            Span {
                mat: Some(first_table.clone()),
                mat_to: Some(second_table.clone()),
                field: Some(field.clone()),
                program: None,
            },
            "the downstream program silently clobbers the upstream value; split the field",
        ),
        Lint::NonCommutativeMultiWriter { field, first_table, second_table } => (
            Severity::Warning,
            Span {
                mat: Some(first_table.clone()),
                mat_to: Some(second_table.clone()),
                field: Some(field.clone()),
                program: None,
            },
            "unify the writers on one fold kind to unlock commutative relaxation",
        ),
    };
    Diagnostic::new(lint.code(), severity, lint.to_string()).with_span(span).with_hint(hint)
}

/// Re-renders a pre-solve certificate as a diagnostic: infeasibility
/// proofs are errors, objective floors and relaxation notices are
/// informational.
pub fn certificate_to_diagnostic(cert: &Certificate) -> Diagnostic {
    if cert.is_infeasible() {
        Diagnostic::new(cert.code(), Severity::Error, cert.to_string())
            .with_hint("no search can find a plan; relax the eps budget or grow the network")
    } else if matches!(cert, Certificate::RelaxationApplied { .. }) {
        Diagnostic::new(cert.code(), Severity::Info, cert.to_string())
            .with_hint("relaxed edges carry no A(a,b) bytes; HV414 fires if one is unjustified")
    } else {
        Diagnostic::new(cert.code(), Severity::Info, cert.to_string())
            .with_hint("proven objective floor; a plan reaching it is optimal by construction")
    }
}

/// Everything the audit derives from the workload alone: composition
/// lints, exhaustive per-program dependency re-derivation, and the
/// dataflow + graph passes over the merged TDG, which it returns. The
/// merged TDG is built by [`merge_programs`], the pass
/// [`ProgramAnalyzer::analyze`] runs, and each program's cross-check reads
/// the edges that pass typed for it — so the graph checked is the graph
/// the solver gets.
///
/// [`ProgramAnalyzer::analyze`]: hermes_core::ProgramAnalyzer::analyze
fn workload_diagnostics(programs: &[Program], mode: AnalysisMode) -> (Vec<Diagnostic>, Tdg) {
    let mut diags: Vec<Diagnostic> =
        lint_composition(programs).iter().map(lint_to_diagnostic).collect();
    let merged =
        merge_programs(programs, mode, |p, edges| diags.extend(check_part(p, mode, edges)));
    diags.extend(dataflow_diagnostics(&merged));
    diags.extend(check_tdg(&merged));
    (diags, merged)
}

/// Audits a workload (no network needed): composition lints, exhaustive
/// per-program dependency re-derivation, and the dataflow + graph passes
/// over the merged TDG — built the way the deployment pipeline builds it.
pub fn audit_programs(programs: &[Program], mode: AnalysisMode) -> AuditReport {
    AuditReport::new(workload_diagnostics(programs, mode).0, Vec::new())
}

/// Audits a full deployment instance: everything [`audit_programs`] does,
/// plus the pre-solve bounds for `net` and `eps`, all over one merged TDG
/// — the graph the solver gets is the graph the audit certifies. The raw
/// certificates ride along in the report so callers can feed them to the
/// portfolio (or display the proofs) without re-deriving them.
pub fn audit_instance(
    programs: &[Program],
    net: &Network,
    eps: &Epsilon,
    mode: AnalysisMode,
) -> AuditReport {
    let (mut diags, merged) = workload_diagnostics(programs, mode);
    let precheck = Precheck::run(&merged, net, eps);
    diags.extend(precheck.certificates.iter().map(certificate_to_diagnostic));
    AuditReport::new(diags, precheck.certificates)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_core::ProgramAnalyzer;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};

    #[test]
    fn library_workload_audit_has_no_errors() {
        let programs = library::real_programs();
        let report = audit_programs(&programs, AnalysisMode::PaperLiteral);
        assert!(!report.has_errors(), "library workload should audit clean of errors: {report}");
    }

    #[test]
    fn broken_workload_surfaces_hl001_as_error() {
        let ghost = Field::metadata("meta.ghost", 4);
        let t = Mat::builder("r")
            .match_field(ghost, MatchKind::Exact)
            .action(Action::new("n"))
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        let report = audit_programs(&[p], AnalysisMode::PaperLiteral);
        assert!(report.has_errors());
        assert!(report.diagnostics.iter().any(|d| d.code == "HL001"));
        // The dataflow pass independently reaches the same conclusion.
        assert!(report.diagnostics.iter().any(|d| d.code == "HD101"));
    }

    #[test]
    fn instance_audit_attaches_certificates() {
        let programs = library::real_programs();
        // One tiny switch cannot hold the whole library.
        let net = hermes_core::test_support::tiny_switches(1, 4, 0.05);
        let eps = Epsilon::loose();
        let report = audit_instance(&programs, &net, &eps, AnalysisMode::PaperLiteral);
        assert!(report.summary.proven_infeasible, "{report}");
        assert!(report.diagnostics.iter().any(|d| d.code == "HC303"));
        assert!(!report.certificates.is_empty());
        // And it all serializes.
        let json = report.to_json();
        assert!(json.contains("HC303"));
    }

    #[test]
    fn budget_certificates_surface_through_the_audit_json() {
        let programs = library::real_programs();
        // A deep, wide pipeline whose total-resource budget is the only
        // binding constraint: HC309 must fire instead of HC303.
        let mut net = hermes_core::test_support::tiny_switches(1, 64, 4.0);
        let id = net.switch_ids().next().unwrap();
        net.switch_mut(id).total_budget = 0.5;
        let eps = Epsilon::loose();
        let report = audit_instance(&programs, &net, &eps, AnalysisMode::PaperLiteral);
        assert!(report.summary.proven_infeasible, "{report}");
        assert!(report.diagnostics.iter().any(|d| d.code == "HC309"), "{report}");
        assert!(!report.diagnostics.iter().any(|d| d.code == "HC303"), "{report}");
        let json = report.to_json();
        assert!(json.contains("HC309"));
    }

    #[test]
    fn feasible_instance_audit_is_error_free() {
        let programs = vec![library::l3_router()];
        let net = hermes_net::topology::fat_tree(4, 0.5);
        let eps = Epsilon::loose();
        let report = audit_instance(&programs, &net, &eps, AnalysisMode::PaperLiteral);
        assert!(!report.has_errors(), "{report}");
        assert!(!report.summary.proven_infeasible);
    }

    #[test]
    fn instance_audit_certifies_the_graph_the_solver_gets() {
        // The instance report is the workload report plus the certificates
        // of a precheck over the analyzer's merged TDG — the one graph the
        // deployment pipeline hands to the solver.
        let programs = library::real_programs();
        // fattree:4 holds the library; one tiny switch draws certificates.
        let nets = [
            hermes_net::topology::fat_tree(4, 0.5),
            hermes_core::test_support::tiny_switches(1, 4, 0.05),
        ];
        let eps = Epsilon::loose();
        let modes =
            [AnalysisMode::PaperLiteral, AnalysisMode::Intersection, AnalysisMode::RelaxedState];
        for (net, mode) in nets.iter().flat_map(|net| modes.map(|mode| (net, mode))) {
            let tdg = ProgramAnalyzer::with_mode(mode).analyze(&programs);
            let precheck = Precheck::run(&tdg, net, &eps);
            let mut diags = audit_programs(&programs, mode).diagnostics;
            diags.extend(precheck.certificates.iter().map(certificate_to_diagnostic));
            let expected = AuditReport::new(diags, precheck.certificates);
            let report = audit_instance(&programs, net, &eps, mode);
            assert_eq!(report.to_json(), expected.to_json(), "{mode:?}");
        }
    }
}
