//! Table dependency graphs (TDGs) for the Hermes deployment framework.
//!
//! Implements the program analyzer of the paper's §IV (Algorithm 1):
//!
//! - [`graph`] — the TDG itself: MAT nodes, typed dependency edges, DAG
//!   utilities (topological order, induced subgraphs, cross-cut metadata).
//! - [`analysis`] — dependency typing (match 𝕄 / action 𝔸 / reverse ℝ /
//!   successor 𝕊) and the metadata amount `A(a,b)` each edge carries.
//! - [`merge`] — SPEED-style merging of per-program TDGs into the merged
//!   TDG `T_m`, eliminating structurally redundant MATs; [`merge_programs`]
//!   builds the programs' TDGs straight into the merge.
//!
//! # Quick start
//!
//! ```
//! use hermes_dataplane::library;
//! use hermes_tdg::{merge_all, merge_programs, AnalysisMode, Tdg};
//!
//! let programs = library::real_programs();
//! let merged = merge_programs(&programs, AnalysisMode::PaperLiteral, |_, _| {});
//! assert!(merged.is_dag());
//! assert!(merged.max_edge_bytes() > 0);
//!
//! // The same graph from per-program TDGs.
//! let tdgs: Vec<Tdg> =
//!     programs.iter().map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral)).collect();
//! assert_eq!(merge_all(tdgs), merged);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod export;
pub mod graph;
pub mod merge;
mod merge_equivalence;
pub mod stateaccess;

pub use analysis::{
    classify, classify_profiles, metadata_amount, metadata_amount_profiles, AnalysisMode,
    DependencyType, MatProfile,
};
pub use export::{stats, to_dot, TdgStats};
pub use graph::{NodeId, Tdg, TdgEdge, TdgNode};
pub use merge::{merge_all, merge_programs};
pub use stateaccess::{relaxed_type, FieldEvidence, StateClass, StateClassification};
