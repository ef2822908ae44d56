//! One deployment request, composed from public functions exactly as
//! `hermes audit` followed by `hermes deploy --journal` compose them.

use crate::emit::Emitter;
use crate::trace::Tracer;
use hermes_analysis::audit_instance;
use hermes_cli::solver_with_threads;
use hermes_core::{verify, DeploymentPlan, Epsilon, ProgramAnalyzer};
use hermes_dataplane::lint::{lint, lint_composition};
use hermes_dataplane::parser::parse_programs;
use hermes_dataplane::Program;
use hermes_net::Network;
use hermes_runtime::{DeploymentRuntime, FaultInjector, RetryPolicy};
use hermes_tdg::{AnalysisMode, Tdg};
use std::time::Duration;

/// The solver budget of every request; no workload comes near it.
pub const TIME_LIMIT: Duration = Duration::from_secs(30);

/// The programs of one request, as the user hands them over.
#[derive(Debug, Clone)]
pub struct Source {
    /// Every program the grammar can state, as one DSL file.
    pub text: String,
    /// Programs it cannot (see `emit`), each with its index in the
    /// request's program list; they are deployed from their constructors.
    pub prebuilt: Vec<(usize, Program)>,
}

impl Source {
    /// `programs` pairs each program with whether its rendering, alone in
    /// a file, parses back to it; a clash with a field an earlier program
    /// of this file declared also sends it to `prebuilt`.
    pub fn render<'a>(programs: impl IntoIterator<Item = (&'a Program, bool)>) -> Source {
        let mut emitter = Emitter::new();
        let mut prebuilt = Vec::new();
        for (index, (program, renders)) in programs.into_iter().enumerate() {
            if !renders || emitter.push(program).is_err() {
                prebuilt.push((index, program.clone()));
            }
        }
        Source { text: emitter.finish(), prebuilt }
    }
}

/// Why a request produced no deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum Refusal {
    Parse(String),
    Audit { errors: usize },
    Solver(String),
    Verify(String),
    Rollout(String),
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refusal::Parse(e) => write!(f, "parse error: {e}"),
            Refusal::Audit { errors } => write!(f, "audit found {errors} error(s)"),
            Refusal::Solver(e) => write!(f, "solver failed: {e}"),
            Refusal::Verify(e) => write!(f, "plan failed verification: {e}"),
            Refusal::Rollout(e) => write!(f, "rollout did not commit: {e}"),
        }
    }
}

/// The part of a request up to a verified plan.
#[derive(Debug, Clone)]
pub struct Planned {
    pub programs: Vec<Program>,
    pub tdg: Tdg,
    pub plan: DeploymentPlan,
    /// Lint findings plus audit diagnostics, none of error severity.
    pub diagnostics: usize,
}

/// Text to verified plan: parse, lint, TDG build and merge, audit with
/// precheck, solve, verify.
pub fn plan_request(
    source: &Source,
    net: &Network,
    eps: &Epsilon,
    solver: &str,
    tracer: &mut Tracer,
) -> Result<Planned, Refusal> {
    let mut programs = tracer
        .span("dataplane.parse", || parse_programs(&source.text))
        .map_err(|e| Refusal::Parse(e.to_string()))?;
    for (index, program) in &source.prebuilt {
        programs.insert(*index, program.clone());
    }
    let lints = tracer.span("dataplane.lint", || {
        programs.iter().map(|p| lint(p).len()).sum::<usize>() + lint_composition(&programs).len()
    });
    let tdg = tracer.span("tdg.analyze", || ProgramAnalyzer::new().analyze(&programs));
    let report = tracer
        .span("analysis.audit", || audit_instance(&programs, net, eps, AnalysisMode::PaperLiteral));
    if report.has_errors() {
        return Err(Refusal::Audit { errors: report.summary.errors });
    }
    let solve_span = match solver {
        "greedy" => "core.solve_greedy",
        "exact" => "core.solve_exact",
        _ => "core.solve_portfolio",
    };
    let plan = tracer.span(solve_span, || {
        let algo = solver_with_threads(solver, TIME_LIMIT, None)
            .map_err(|e| Refusal::Solver(e.to_string()))?;
        algo.deploy(&tdg, net, eps).map_err(|e| Refusal::Solver(e.to_string()))
    })?;
    let violations = tracer.span("core.verify", || verify(&tdg, net, &plan, eps));
    if !violations.is_empty() {
        return Err(Refusal::Verify(format!("{violations:?}")));
    }
    let diagnostics = lints + report.diagnostics.len();
    Ok(Planned { programs, tdg, plan, diagnostics })
}

/// A committed fresh deployment and the controller that holds it.
#[derive(Debug, Clone)]
pub struct Deployed {
    pub planned: Planned,
    pub runtime: DeploymentRuntime,
    pub journal_len: usize,
}

/// The whole request: [`plan_request`], then a rollout over a clean
/// control plane, then the journal bytes a controller would persist.
pub fn deploy_request(
    source: &Source,
    net: &Network,
    eps: &Epsilon,
    solver: &str,
    tracer: &mut Tracer,
) -> Result<Deployed, Refusal> {
    let planned = plan_request(source, net, eps, solver, tracer)?;
    let mut runtime = tracer.span("runtime.new", || {
        DeploymentRuntime::new(net.clone(), *eps, FaultInjector::disabled(), RetryPolicy::default())
    });
    let outcome =
        tracer.span("runtime.rollout", || runtime.rollout(&planned.tdg, planned.plan.clone()));
    if !outcome.is_committed() {
        return Err(Refusal::Rollout(outcome.to_string()));
    }
    let journal_len = tracer.span("runtime.journal", || runtime.journal().bytes().len());
    Ok(Deployed { planned, runtime, journal_len })
}
