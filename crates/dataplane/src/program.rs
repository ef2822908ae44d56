//! Data plane programs: an ordered collection of MATs plus control flow.
//!
//! A program lists its tables in *program order* (the order the P4 control
//! block applies them). Data dependencies (match/action/reverse-match) are
//! inferred later from field read/write sets by the TDG crate; **successor**
//! dependencies — "table `a`'s result decides whether `b` runs at all", i.e.
//! an `if` gating in the control block — cannot be inferred from field sets
//! and are therefore declared explicitly on the program.

use crate::mat::Mat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Errors produced while building a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildProgramError {
    /// Two tables in the program share a name.
    DuplicateTable {
        /// The offending program.
        program: String,
        /// The duplicated table name.
        table: String,
    },
    /// A gate references a table name not present in the program.
    UnknownTable {
        /// The offending program.
        program: String,
        /// The referenced table.
        table: String,
    },
    /// A gate points backwards or at itself with respect to program order;
    /// control flow in a pipeline only ever gates *later* tables.
    BackwardGate {
        /// The offending program.
        program: String,
        /// The gating (upstream) table.
        from: String,
        /// The gated (downstream) table.
        to: String,
    },
}

impl fmt::Display for BuildProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProgramError::DuplicateTable { program, table } => {
                write!(f, "program `{program}`: duplicate table `{table}`")
            }
            BuildProgramError::UnknownTable { program, table } => {
                write!(f, "program `{program}`: gate references unknown table `{table}`")
            }
            BuildProgramError::BackwardGate { program, from, to } => {
                write!(f, "program `{program}`: gate `{from}` -> `{to}` does not point forward in program order")
            }
        }
    }
}

impl std::error::Error for BuildProgramError {}

/// A complete data plane program.
///
/// # Examples
///
/// ```
/// use hermes_dataplane::program::Program;
/// use hermes_dataplane::mat::{Mat, MatchKind};
/// use hermes_dataplane::action::Action;
/// use hermes_dataplane::fields::{Field, headers};
///
/// let idx = Field::metadata("meta.idx", 4);
/// let hash = Mat::builder("hash")
///     .action(Action::writing("set", [idx.clone()]))
///     .build()?;
/// let count = Mat::builder("count")
///     .match_field(idx, MatchKind::Exact)
///     .action(Action::new("bump"))
///     .build()?;
/// let prog = Program::builder("counter")
///     .table(hash)
///     .table(count)
///     .build()?;
/// assert_eq!(prog.tables().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    name: String,
    tables: Vec<Mat>,
    /// Successor gates as index pairs `(upstream, downstream)` into `tables`.
    gates: Vec<(usize, usize)>,
}

impl Program {
    /// Starts building a program with the given name.
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder { name: name.into(), tables: Vec::new(), gates: Vec::new() }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tables in program order.
    pub fn tables(&self) -> &[Mat] {
        &self.tables
    }

    /// Successor gates as `(upstream, downstream)` index pairs into
    /// [`Program::tables`]; each means the upstream table's result decides
    /// whether the downstream table executes.
    pub fn gates(&self) -> &[(usize, usize)] {
        &self.gates
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<&Mat> {
        self.tables.iter().find(|t| t.name() == name)
    }

    /// Sum of the normalized resource requirements of all tables.
    pub fn total_resource(&self) -> f64 {
        self.tables.iter().map(Mat::resource).sum()
    }

    /// Every distinct field the program touches (matched, read, or written).
    pub fn fields(&self) -> BTreeSet<&crate::fields::Field> {
        let mut out = BTreeSet::new();
        for t in &self.tables {
            out.extend(t.match_fields());
            out.extend(t.written_fields());
            out.extend(t.action_read_fields());
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} tables, R={:.2})", self.name, self.tables.len(), self.total_resource())
    }
}

/// Builder for [`Program`]; see [`Program::builder`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    tables: Vec<Mat>,
    gates: Vec<(String, String)>,
}

impl ProgramBuilder {
    /// Appends a table in program order.
    #[must_use]
    pub fn table(mut self, mat: Mat) -> Self {
        self.tables.push(mat);
        self
    }

    /// Declares that `upstream`'s result gates execution of `downstream`
    /// (a successor dependency, type 𝕊 in the paper).
    #[must_use]
    pub fn gate(mut self, upstream: impl Into<String>, downstream: impl Into<String>) -> Self {
        self.gates.push((upstream.into(), downstream.into()));
        self
    }

    /// Finalizes the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildProgramError`] on duplicate table names, gates naming
    /// unknown tables, or gates that do not point forward in program order.
    pub fn build(self) -> Result<Program, BuildProgramError> {
        let mut seen = BTreeSet::new();
        for t in &self.tables {
            if !seen.insert(t.name()) {
                return Err(BuildProgramError::DuplicateTable {
                    program: self.name,
                    table: t.name().to_owned(),
                });
            }
        }
        let mut gates = Vec::with_capacity(self.gates.len());
        for (from, to) in &self.gates {
            let fi = self.tables.iter().position(|t| t.name() == from).ok_or_else(|| {
                BuildProgramError::UnknownTable { program: self.name.clone(), table: from.clone() }
            })?;
            let ti = self.tables.iter().position(|t| t.name() == to).ok_or_else(|| {
                BuildProgramError::UnknownTable { program: self.name.clone(), table: to.clone() }
            })?;
            if fi >= ti {
                return Err(BuildProgramError::BackwardGate {
                    program: self.name,
                    from: from.clone(),
                    to: to.clone(),
                });
            }
            gates.push((fi, ti));
        }
        Ok(Program { name: self.name, tables: self.tables, gates })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::fields::Field;

    fn mat(name: &str) -> Mat {
        Mat::builder(name)
            .action(Action::writing("w", [Field::metadata(format!("meta.{name}"), 4)]))
            .resource(0.2)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_program_in_order() {
        let p = Program::builder("p").table(mat("a")).table(mat("b")).build().unwrap();
        assert_eq!(p.tables()[0].name(), "a");
        assert!((p.total_resource() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn duplicate_table_rejected() {
        let err = Program::builder("p").table(mat("a")).table(mat("a")).build().unwrap_err();
        assert!(matches!(err, BuildProgramError::DuplicateTable { .. }));
    }

    #[test]
    fn gate_must_reference_known_tables() {
        let err = Program::builder("p").table(mat("a")).gate("a", "nope").build().unwrap_err();
        assert!(matches!(err, BuildProgramError::UnknownTable { .. }));
    }

    #[test]
    fn gate_must_point_forward() {
        let err = Program::builder("p")
            .table(mat("a"))
            .table(mat("b"))
            .gate("b", "a")
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildProgramError::BackwardGate { .. }));
        let err2 = Program::builder("p").table(mat("a")).gate("a", "a").build().unwrap_err();
        assert!(matches!(err2, BuildProgramError::BackwardGate { .. }));
    }

    #[test]
    fn gates_resolved_to_indices() {
        let p = Program::builder("p")
            .table(mat("a"))
            .table(mat("b"))
            .table(mat("c"))
            .gate("a", "c")
            .build()
            .unwrap();
        assert_eq!(p.gates(), &[(0, 2)]);
    }

    #[test]
    fn fields_unions_all_tables() {
        let p = Program::builder("p").table(mat("a")).table(mat("b")).build().unwrap();
        assert_eq!(p.fields().len(), 2);
    }
}
