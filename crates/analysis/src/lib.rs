//! Workload audit engine: static diagnostics over programs, TDGs, and
//! deployment instances, plus pre-solve infeasibility certificates.
//!
//! The crate hosts three analysis passes and the typed diagnostic model
//! they all emit through:
//!
//! 1. [`dataflow`] — read-before-write, dead-write/dead-MAT, unused-field
//!    and conflicting-write detection over the TDG, valid across *all*
//!    topological orders. Runs on bitsets.
//! 2. [`graphcheck`] — dependency-graph soundness: brute-force pairwise
//!    re-derivation of 𝕄/𝔸/ℝ/𝕊 edges cross-checked against the recorded
//!    graph, plus transitive-redundancy and strength-downgrade reporting.
//! 3. [`audit`] — the orchestrator: lints + dataflow + graph checks over a
//!    workload, and [`hermes_core::precheck`] certificates over a full
//!    deployment instance. The `hermes audit` CLI subcommand is a thin
//!    shell around [`audit::audit_instance`].
//! 4. [`stateaccess`] — the state-access report behind `hermes audit
//!    --state-report`: per-field replicability/commutativity verdicts
//!    (`HS5xx`).
//!
//! The dataflow pass and the state-access classifier in
//! `hermes_tdg::stateaccess` are each pinned by property tests to a naive
//! oracle; the oracles are test code (`oracles`), not API.
//!
//! Every finding is a [`Diagnostic`] with a stable machine code (see
//! [`diag`] for the code-block table), so CI can golden-diff audit output
//! and editors can filter by code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod dataflow;
pub mod diag;
pub mod graphcheck;
mod oracles;
pub mod stateaccess;

pub use audit::{audit_instance, audit_programs};
pub use dataflow::dataflow_diagnostics;
pub use diag::{AuditReport, AuditSummary, Diagnostic, Severity, Span};
pub use graphcheck::{check_program, check_tdg};
pub use stateaccess::{
    state_diagnostics, state_report, state_report_of_tdg, FieldReport, StateReport,
};
