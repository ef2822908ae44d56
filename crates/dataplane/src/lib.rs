//! Data plane program model for the Hermes deployment framework.
//!
//! This crate models everything the Hermes optimizer needs to know about a
//! data plane program, independent of any concrete P4 dialect:
//!
//! - [`fields`] — header vs. metadata fields with byte widths (paper
//!   Table I); only metadata contributes to inter-switch byte overhead.
//! - [`fieldset`] — dense field interning ([`FieldTable`]) and `u64`-word
//!   bitset field sets ([`FieldSet`]) backing the hot analysis path.
//! - [`action`] — actions built from primitive pipeline operations with
//!   derived read/write sets.
//! - [`mat`] — match-action tables with the five properties of a TDG node
//!   (`F^m`, `A`, `F^a`, `R`, `C`) and a normalized resource requirement.
//! - [`program`] — ordered tables plus explicit successor gates.
//! - [`library`] — ten realistic programs (L3 routing, ACL, NAT, tunneling,
//!   ECMP, INT, stateful firewall, QoS, and sketches) standing in for the
//!   `switch.p4` variants of the paper's evaluation, plus ten measurement
//!   sketches for the resource-consumption experiment.
//! - [`parser`] — a P4-flavoured textual DSL front end for programs.
//! - [`synthetic`] — the seeded random program generator used by the
//!   large-scale simulations (10–20 MATs, 30 % dependency probability,
//!   10–50 % per-stage resource).
//!
//! # Quick start
//!
//! ```
//! use hermes_dataplane::library;
//!
//! let programs = library::real_programs();
//! assert_eq!(programs.len(), 10);
//! let total_tables: usize = programs.iter().map(|p| p.tables().len()).sum();
//! assert!(total_tables > 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod fields;
pub mod fieldset;
pub mod library;
pub mod lint;
pub mod mat;
pub mod parser;
pub mod program;
pub mod synthetic;

pub use action::{Action, PrimitiveOp};
pub use fields::{BuildFieldHasher, ContentHasher, Field, FieldHasher, FieldKind};
pub use fieldset::{FieldId, FieldSet, FieldTable};
pub use mat::{Mat, MatBuilder, MatchKind, MatchSpec, Rule};
pub use program::{Program, ProgramBuilder};
