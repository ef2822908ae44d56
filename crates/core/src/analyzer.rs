//! The program analyzer (paper §IV, Algorithm 1).
//!
//! Front end of the Hermes pipeline: converts each input program into a
//! TDG, merges all TDGs SPEED-style, and annotates every dependency edge
//! with its metadata amount `A(a, b)`. The merged TDG is the sole input
//! the optimization framework consumes.

use hermes_dataplane::Program;
use hermes_tdg::{merge_programs, AnalysisMode, Tdg};

/// The Hermes program analyzer.
///
/// # Examples
///
/// ```
/// use hermes_core::ProgramAnalyzer;
/// use hermes_dataplane::library;
///
/// let merged = ProgramAnalyzer::new().analyze(&library::real_programs());
/// assert!(merged.is_dag());
/// assert!(merged.node_count() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramAnalyzer {
    mode: AnalysisMode,
}

impl ProgramAnalyzer {
    /// Analyzer using the paper-literal metadata accounting.
    pub fn new() -> Self {
        ProgramAnalyzer::default()
    }

    /// Analyzer with an explicit [`AnalysisMode`].
    pub fn with_mode(mode: AnalysisMode) -> Self {
        ProgramAnalyzer { mode }
    }

    /// The analysis mode in use.
    pub fn mode(&self) -> AnalysisMode {
        self.mode
    }

    /// Algorithm 1: convert → merge → analyze, in one pass
    /// ([`merge_programs`]). Returns the merged TDG `T_m` with `A(a, b)`
    /// recorded on every edge.
    pub fn analyze(&self, programs: &[Program]) -> Tdg {
        merge_programs(programs, self.mode, |_, _| {})
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use hermes_dataplane::library;

    #[test]
    fn analyze_merges_and_annotates() {
        let programs = library::real_programs();
        let merged = ProgramAnalyzer::new().analyze(&programs);
        let raw: usize = programs.iter().map(|p| p.tables().len()).sum();
        assert!(merged.node_count() < raw, "redundancy eliminated");
        assert!(merged.edges().iter().any(|e| e.bytes > 0), "metadata annotated");
    }

    #[test]
    fn empty_input_yields_empty_tdg() {
        let merged = ProgramAnalyzer::new().analyze(&[]);
        assert_eq!(merged.node_count(), 0);
    }

    #[test]
    fn mode_is_propagated() {
        let a = ProgramAnalyzer::with_mode(AnalysisMode::Intersection);
        assert_eq!(a.mode(), AnalysisMode::Intersection);
        let merged = a.analyze(&[library::int_telemetry()]);
        assert_eq!(merged.mode(), AnalysisMode::Intersection);
    }

    #[test]
    fn intersection_never_exceeds_paper_literal() {
        let programs = library::real_programs();
        let literal = ProgramAnalyzer::with_mode(AnalysisMode::PaperLiteral).analyze(&programs);
        let tight = ProgramAnalyzer::with_mode(AnalysisMode::Intersection).analyze(&programs);
        assert_eq!(literal.edge_count(), tight.edge_count());
        for (l, t) in literal.edges().iter().zip(tight.edges()) {
            assert!(t.bytes <= l.bytes, "{l:?} vs {t:?}");
        }
    }
}
