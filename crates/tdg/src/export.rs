//! TDG inspection utilities: Graphviz export and structural analytics.
//!
//! These exist for operators and papers alike — `dot` renderings of
//! merged TDGs are how deployment decisions get debugged, and the
//! analytics (critical path, metadata totals, width) bound what any
//! placement can achieve before running a solver.

use crate::analysis::DependencyType;
use crate::graph::Tdg;
use std::fmt::Write as _;

/// Renders the TDG in Graphviz `dot` format. Node labels carry the MAT
/// name and resource; edge labels carry the dependency type and `A(a,b)`.
pub fn to_dot(tdg: &Tdg) -> String {
    let mut out = String::from("digraph tdg {\n  rankdir=LR;\n  node [shape=box];\n");
    for id in tdg.node_ids() {
        let node = tdg.node(id);
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\nR={:.2}\"];",
            id.index(),
            node.name,
            node.mat.resource()
        );
    }
    for e in tdg.edges() {
        let style = match e.dep {
            DependencyType::Match => "solid",
            DependencyType::Action => "bold",
            DependencyType::ReverseMatch => "dashed",
            DependencyType::Successor => "dotted",
            // Relaxed edges render like their base type but greyed out.
            DependencyType::RelaxedMatch
            | DependencyType::RelaxedAction
            | DependencyType::RelaxedReverse => "solid, color=gray",
        };
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{} {}B\", style={}];",
            e.from.index(),
            e.to.index(),
            e.dep,
            e.bytes,
            style
        );
    }
    out.push_str("}\n");
    out
}

/// Structural statistics of a TDG.
#[derive(Debug, Clone, PartialEq)]
pub struct TdgStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Total resource units.
    pub total_resource: f64,
    /// Total metadata bytes over all edges.
    pub total_metadata_bytes: u64,
    /// Length (in nodes) of the longest dependency chain — a lower bound
    /// on the pipeline stages any deployment needs end to end.
    pub critical_path_len: usize,
    /// Metadata bytes along the heaviest path — an upper bound on what a
    /// single unlucky packet could be asked to carry end to end.
    pub critical_path_bytes: u64,
    /// Maximum antichain-ish width: nodes with no incoming edges.
    pub roots: usize,
}

/// Computes [`TdgStats`], or `None` if the graph has a cycle (neither the
/// analyzer nor the JSON reader makes one, but
/// [`Tdg::from_mats_and_edges`] takes its edges on trust).
pub fn stats(tdg: &Tdg) -> Option<TdgStats> {
    let order = tdg.topo_order()?;
    let mut len = vec![1usize; tdg.node_count()];
    let mut bytes = vec![0u64; tdg.node_count()];
    for &id in order {
        for e in tdg.out_edges(id) {
            let t = e.to.index();
            len[t] = len[t].max(len[id.index()] + 1);
            bytes[t] = bytes[t].max(bytes[id.index()] + u64::from(e.bytes));
        }
    }
    let roots = tdg.node_ids().filter(|&id| tdg.in_edges(id).next().is_none()).count();
    Some(TdgStats {
        nodes: tdg.node_count(),
        edges: tdg.edge_count(),
        total_resource: tdg.total_resource(),
        total_metadata_bytes: tdg.edges().iter().map(|e| u64::from(e.bytes)).sum(),
        critical_path_len: len.iter().copied().max().unwrap_or(0),
        critical_path_bytes: bytes.iter().copied().max().unwrap_or(0),
        roots,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::analysis::AnalysisMode;
    use crate::merge::merge_all;
    use hermes_dataplane::library;

    fn merged() -> Tdg {
        merge_all(
            library::real_programs()
                .iter()
                .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
                .collect(),
        )
    }

    #[test]
    fn dot_contains_every_node_and_edge() {
        let tdg = merged();
        let dot = to_dot(&tdg);
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches("label=\"").count(), tdg.node_count() + tdg.edge_count());
        assert!(dot.contains("hash_5tuple"));
    }

    #[test]
    fn stats_are_consistent() {
        let tdg = merged();
        let s = stats(&tdg).unwrap();
        assert_eq!(s.nodes, tdg.node_count());
        assert_eq!(s.edges, tdg.edge_count());
        assert!(s.critical_path_len >= 2);
        assert!(s.critical_path_len <= s.nodes);
        assert!(s.roots >= 1);
        assert!(s.critical_path_bytes <= s.total_metadata_bytes);
    }

    #[test]
    fn empty_tdg_stats() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        let s = stats(&tdg).unwrap();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.critical_path_len, 0);
    }

    #[test]
    fn a_cyclic_tdg_has_no_stats() {
        // Neither the analyzer nor the JSON reader makes a cycle; built
        // directly, it still gets no stats rather than a panic.
        let mats = library::real_programs()[0].tables()[..2]
            .iter()
            .map(|m| (m.name().to_owned(), m.clone()))
            .collect();
        let edges = vec![(0, 1, DependencyType::Successor), (1, 0, DependencyType::Successor)];
        let cyclic = Tdg::from_mats_and_edges(mats, edges, AnalysisMode::PaperLiteral);
        assert_eq!(cyclic.edge_count(), 2);
        assert_eq!(stats(&cyclic), None);
    }
}
