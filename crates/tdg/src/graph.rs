//! The table dependency graph (TDG).
//!
//! Nodes are MATs; directed edges are typed MAT dependencies annotated with
//! the metadata amount `A(a,b)` from Algorithm 1. A TDG is always a DAG:
//! edges derived from a single program point forward in program order, and
//! [`crate::merge`] refuses merges that would introduce cycles.

use crate::analysis::{
    classify_profiles, metadata_amount, metadata_amount_profiles, AnalysisMode, DependencyType,
    MatProfile,
};
use hermes_dataplane::{FieldTable, Mat, Program};
use serde::{Deserialize, Serialize, Serializer, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a node within one [`Tdg`]. Ids are dense indices and are
/// only meaningful relative to the graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A TDG node: one MAT plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdgNode {
    /// Program-qualified name, e.g. `"acl/acl_classify"`. After merging, a
    /// shared node keeps the name of its first occurrence.
    pub name: String,
    /// The table itself.
    pub mat: Mat,
    /// Names of every program this node serves (grows during merging).
    pub programs: BTreeSet<String>,
}

impl TdgNode {
    /// The node of `table`, one of `program`'s tables, before any merge.
    pub(crate) fn of(program: &Program, table: &Mat) -> Self {
        TdgNode {
            name: format!("{}/{}", program.name(), table.name()),
            mat: table.clone(),
            programs: BTreeSet::from([program.name().to_owned()]),
        }
    }
}

/// Types every ordered pair `i < j` of `program`'s tables and appends an
/// edge per dependent pair to `edges`, in `(i, j)` order: the edges of the
/// program's own TDG before state relaxation, their ids the table indices.
/// `profiles[k]` is table `k`'s profile, interned against `table`. The one
/// pair loop [`Tdg::from_program`] and [`crate::merge_programs`] share.
pub(crate) fn type_program_pairs(
    program: &Program,
    table: &FieldTable,
    profiles: &[MatProfile],
    mode: AnalysisMode,
    edges: &mut Vec<TdgEdge>,
) {
    for (i, a) in profiles.iter().enumerate() {
        for (j, b) in profiles.iter().enumerate().skip(i + 1) {
            let gated = program.gates().contains(&(i, j));
            if let Some(dep) = classify_profiles(a, b, gated) {
                let bytes = metadata_amount_profiles(table, a, b, dep, mode);
                edges.push(TdgEdge { from: NodeId(i), to: NodeId(j), dep, bytes });
            }
        }
    }
}

/// A typed dependency edge with its metadata amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TdgEdge {
    /// Upstream MAT.
    pub from: NodeId,
    /// Downstream MAT.
    pub to: NodeId,
    /// Dependency type (𝕄/𝔸/ℝ/𝕊).
    pub dep: DependencyType,
    /// `A(a,b)` — metadata bytes that must ride on each packet when the two
    /// endpoints are deployed on different switches.
    pub bytes: u32,
}

/// One direction of a graph's adjacency in compressed-sparse-row form:
/// `idx[off[i]..off[i + 1]]` holds the positions in [`Tdg::edges`] of the
/// edges at node `i`, ascending.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    off: Vec<usize>,
    idx: Vec<usize>,
}

impl Csr {
    /// Counting sort of the edge positions by the endpoint `end` selects.
    fn build(node_count: usize, edges: &[TdgEdge], end: impl Fn(&TdgEdge) -> NodeId) -> Csr {
        let mut off = vec![0usize; node_count + 1];
        for e in edges {
            off[end(e).0 + 1] += 1;
        }
        for i in 0..node_count {
            off[i + 1] += off[i];
        }
        let mut next = off.clone();
        let mut idx = vec![0usize; edges.len()];
        for (k, e) in edges.iter().enumerate() {
            let slot = &mut next[end(e).0];
            idx[*slot] = k;
            *slot += 1;
        }
        Csr { off, idx }
    }

    /// Edge positions at `id`; none for an id of some other graph.
    fn at(&self, id: NodeId) -> &[usize] {
        if id.0 < self.off.len() - 1 {
            &self.idx[self.off[id.0]..self.off[id.0 + 1]]
        } else {
            &[]
        }
    }
}

/// A table dependency graph.
///
/// The graph owns its adjacency and its canonical topological order: the
/// one private constructor every construction path ends in indexes the
/// edges by both endpoints and runs Kahn's algorithm once. Endpoints never
/// change afterwards — the mutating passes ([`Tdg::reanalyze`],
/// [`Tdg::relax_edges`], [`Tdg::restore_base_edges`]) rewrite only `dep`
/// and `bytes` — so neither can go stale.
///
/// # Examples
///
/// ```
/// use hermes_dataplane::library;
/// use hermes_tdg::{AnalysisMode, Tdg};
///
/// let tdg = Tdg::from_program(&library::l3_router(), AnalysisMode::PaperLiteral);
/// assert_eq!(tdg.node_count(), 3);
/// assert!(tdg.is_dag());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tdg {
    nodes: Vec<TdgNode>,
    edges: Vec<TdgEdge>,
    mode: AnalysisMode,
    out: Csr,
    into: Csr,
    /// [`Tdg::topo_order`]: `None` for a cyclic graph.
    topo: Option<Vec<NodeId>>,
}

impl Tdg {
    /// Creates an empty TDG using the given analysis mode.
    pub fn new(mode: AnalysisMode) -> Self {
        Tdg::from_parts(Vec::new(), Vec::new(), mode)
    }

    /// Builds the TDG of a single program: one node per MAT, one typed edge
    /// per dependent ordered pair, with `A(a,b)` precomputed.
    pub fn from_program(program: &Program, mode: AnalysisMode) -> Self {
        let tables = program.tables();
        let nodes = tables.iter().map(|t| TdgNode::of(program, t)).collect();
        // Intern every field once so the O(n²) pair loop runs on bitset
        // profiles instead of `Field` comparisons; the equivalence with
        // `classify`/`metadata_amount` is pinned by the property suite.
        let mut table = FieldTable::new();
        let profiles: Vec<MatProfile> =
            tables.iter().map(|t| MatProfile::build(t, &mut table)).collect();
        let mut edges = Vec::new();
        type_program_pairs(program, &table, &profiles, mode, &mut edges);
        let mut tdg = Tdg::from_parts(nodes, edges, mode);
        if mode.relaxes_state() {
            tdg.relax_edges();
        }
        tdg
    }

    /// The analysis mode used for `A(a,b)`.
    pub fn mode(&self) -> AnalysisMode {
        self.mode
    }

    /// Number of nodes `|V_Tm|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E_Tm|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[TdgNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[TdgEdge] {
        &self.edges
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &TdgNode {
        &self.nodes[id.0]
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Looks a node up by its program-qualified name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Edges leaving `id`, in [`Tdg::edges`] order. O(out-degree).
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &TdgEdge> + '_ {
        self.out.at(id).iter().map(|&k| &self.edges[k])
    }

    /// Edges entering `id`, in [`Tdg::edges`] order. O(in-degree).
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &TdgEdge> + '_ {
        self.into.at(id).iter().map(|&k| &self.edges[k])
    }

    /// Total normalized resource requirement `Σ R(a)` over all nodes.
    pub fn total_resource(&self) -> f64 {
        self.nodes.iter().map(|n| n.mat.resource()).sum()
    }

    /// `true` iff the graph has no directed cycle.
    pub fn is_dag(&self) -> bool {
        self.topo.is_some()
    }

    /// The canonical topological order — Kahn's, ties broken by node index
    /// — computed once at construction, or `None` if the graph contains a
    /// cycle.
    pub fn topo_order(&self) -> Option<&[NodeId]> {
        self.topo.as_deref()
    }

    /// Kahn topological order that, among the nodes whose predecessors are
    /// all emitted, takes the one with the smallest `(key(id), id)` next.
    /// `None` if the graph contains a cycle.
    pub fn topo_order_by<K: Ord>(&self, mut key: impl FnMut(NodeId) -> K) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indegree: Vec<usize> = self.node_ids().map(|id| self.into.at(id).len()).collect();
        let mut ready: BTreeSet<(K, NodeId)> =
            self.node_ids().filter(|id| indegree[id.0] == 0).map(|id| (key(id), id)).collect();
        let mut order = Vec::with_capacity(n);
        while let Some((_, u)) = ready.pop_first() {
            order.push(u);
            for e in self.out_edges(u) {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    ready.insert((key(e.to), e.to));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Recomputes `A(a,b)` on every edge under a (possibly different)
    /// analysis mode. Used after merging and by ablations. Relaxations are
    /// rebuilt from scratch: edges are first restored to their base types,
    /// then re-relaxed only when the new mode asks for it.
    pub fn reanalyze(&mut self, mode: AnalysisMode) {
        self.mode = mode;
        let mut table = FieldTable::new();
        let profiles: Vec<MatProfile> =
            self.nodes.iter().map(|n| MatProfile::build(&n.mat, &mut table)).collect();
        for e in &mut self.edges {
            e.dep = e.dep.base();
            e.bytes = metadata_amount_profiles(
                &table,
                &profiles[e.from.0],
                &profiles[e.to.0],
                e.dep,
                mode,
            );
        }
        if mode.relaxes_state() {
            self.relax_edges();
        }
    }

    /// Restores every relaxed edge to its base dependency type with the
    /// conservative `A(a,b)`. The inverse of [`Tdg::relax_edges`]; merging
    /// runs it first because merging can add writers to a field and demote
    /// the verdict that justified a relaxation.
    pub fn restore_base_edges(&mut self) {
        if !self.edges.iter().any(|e| e.dep.is_relaxed()) {
            return;
        }
        let mut table = FieldTable::new();
        let profiles: Vec<MatProfile> =
            self.nodes.iter().map(|n| MatProfile::build(&n.mat, &mut table)).collect();
        for e in &mut self.edges {
            if e.dep.is_relaxed() {
                e.dep = e.dep.base();
                e.bytes = metadata_amount_profiles(
                    &table,
                    &profiles[e.from.0],
                    &profiles[e.to.0],
                    e.dep,
                    self.mode,
                );
            }
        }
    }

    /// Runs the state-access relaxation pass: classifies every field over
    /// the *current* node set and downgrades each edge whose justifying
    /// fields are all proven relaxable to its zero-byte relaxed shadow
    /// type. Sound only as a function of the final node set, which is why
    /// merging restores base edges first and re-relaxes at the end.
    pub fn relax_edges(&mut self) {
        let classification =
            crate::stateaccess::StateClassification::of_mats(self.nodes.iter().map(|n| &n.mat));
        for e in &mut self.edges {
            let a = &self.nodes[e.from.0].mat;
            let b = &self.nodes[e.to.0].mat;
            if let Some(relaxed) = crate::stateaccess::relaxed_type(a, b, e.dep, &classification) {
                e.dep = relaxed;
                e.bytes = 0;
            }
        }
    }

    /// The largest single-edge metadata amount in the graph.
    pub fn max_edge_bytes(&self) -> u32 {
        self.edges.iter().map(|e| e.bytes).max().unwrap_or(0)
    }

    /// A copy of the graph in which every edge carries `bytes` of
    /// metadata. This is the special case of the paper's Theorem 1
    /// (`A(a,b) = 1` reduces P#1 to bin packing) and is used by
    /// cut-count-minimizing baselines like Flightplan.
    pub fn with_uniform_edge_bytes(&self, bytes: u32) -> Tdg {
        let mut copy = self.clone();
        for e in &mut copy.edges {
            e.bytes = bytes;
        }
        copy
    }

    /// The one constructor: every other construction path (a program,
    /// merging, explicit MATs, deserialization) ends here, so the adjacency
    /// index and the topological order are built exactly once per graph.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a node index `>= nodes.len()`.
    pub(crate) fn from_parts(nodes: Vec<TdgNode>, edges: Vec<TdgEdge>, mode: AnalysisMode) -> Self {
        let out = Csr::build(nodes.len(), &edges, |e| e.from);
        let into = Csr::build(nodes.len(), &edges, |e| e.to);
        let mut tdg = Tdg { nodes, edges, mode, out, into, topo: None };
        tdg.topo = tdg.topo_order_by(|id| id);
        tdg
    }

    /// The inverse of [`Tdg::from_parts`]: merging moves a graph's nodes
    /// and edges out instead of cloning them.
    pub(crate) fn into_parts(self) -> (Vec<TdgNode>, Vec<TdgEdge>) {
        (self.nodes, self.edges)
    }

    /// Builds a TDG directly from explicit MATs and typed edges, computing
    /// `A(a,b)` for each. Mainly useful for tests and worked examples where
    /// the dependency structure is given rather than inferred.
    pub fn from_mats_and_edges(
        mats: Vec<(String, Mat)>,
        edges: Vec<(usize, usize, DependencyType)>,
        mode: AnalysisMode,
    ) -> Self {
        let nodes: Vec<TdgNode> = mats
            .into_iter()
            .map(|(name, mat)| TdgNode { name, mat, programs: BTreeSet::new() })
            .collect();
        let edges = edges
            .into_iter()
            .map(|(from, to, dep)| {
                let bytes = metadata_amount(&nodes[from].mat, &nodes[to].mat, dep, mode);
                TdgEdge { from: NodeId(from), to: NodeId(to), dep, bytes }
            })
            .collect();
        Tdg::from_parts(nodes, edges, mode)
    }
}

/// The derived shape (`nodes`, `edges`, `mode`); the index and the
/// topological order are not part of the serialized form.
impl Serialize for Tdg {
    fn serialize<W: serde::Write>(&self, s: &mut Serializer<W>) -> Result<(), serde::Error> {
        let mut map = s.begin_map()?;
        map.field("nodes", &self.nodes)?;
        map.field("edges", &self.edges)?;
        map.field("mode", &self.mode)?;
        map.end()
    }
}

/// Reads the derived shape and rebuilds the index, after checking what
/// the constructor takes on trust: every edge endpoint is a node, and the
/// edges form no cycle (every solver takes a TDG to be a DAG).
impl Deserialize for Tdg {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let nodes: Vec<TdgNode> = Deserialize::from_value(v.get_field("nodes")?)?;
        let edges: Vec<TdgEdge> = Deserialize::from_value(v.get_field("edges")?)?;
        let mode = Deserialize::from_value(v.get_field("mode")?)?;
        if let Some(e) = edges.iter().find(|e| e.from.0.max(e.to.0) >= nodes.len()) {
            return Err(serde::Error::custom(format!(
                "edge {} -> {} names a node outside the graph's {} nodes",
                e.from,
                e.to,
                nodes.len()
            )));
        }
        let tdg = Tdg::from_parts(nodes, edges, mode);
        if !tdg.is_dag() {
            return Err(serde::Error::custom("the edges form a cycle; a TDG must be acyclic"));
        }
        Ok(tdg)
    }
}

impl fmt::Display for Tdg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TDG({} nodes, {} edges, R={:.2}, max A={} B)",
            self.node_count(),
            self.edge_count(),
            self.total_resource(),
            self.max_edge_bytes()
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::MatchKind;

    fn chain_program(n: usize, bytes: u32) -> Program {
        // t0 -> t1 -> ... -> t{n-1}, each link carrying `bytes` of metadata.
        let mut b = Program::builder("chain");
        for i in 0..n {
            let mut mat = Mat::builder(format!("t{i}")).resource(0.1);
            if i > 0 {
                mat = mat.match_field(
                    Field::metadata(format!("meta.c{}", i - 1), bytes),
                    MatchKind::Exact,
                );
            }
            let writes = if i + 1 < n {
                vec![Field::metadata(format!("meta.c{i}"), bytes)]
            } else {
                Vec::new()
            };
            mat = mat.action(Action::writing("w", writes));
            b = b.table(mat.build().unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_yields_chain_edges() {
        let tdg = Tdg::from_program(&chain_program(4, 4), AnalysisMode::PaperLiteral);
        assert_eq!(tdg.node_count(), 4);
        assert_eq!(tdg.edge_count(), 3);
        for e in tdg.edges() {
            assert_eq!(e.dep, DependencyType::Match);
            assert_eq!(e.bytes, 4);
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let tdg = Tdg::from_program(&library::ecmp_lb(), AnalysisMode::PaperLiteral);
        let order = tdg.topo_order().expect("program TDGs are DAGs");
        let pos: Vec<usize> = {
            let mut pos = vec![0; order.len()];
            for (rank, id) in order.iter().enumerate() {
                pos[id.index()] = rank;
            }
            pos
        };
        for e in tdg.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn cycle_detected() {
        let prog = chain_program(2, 4);
        let (nodes, mut edges) = Tdg::from_program(&prog, AnalysisMode::PaperLiteral).into_parts();
        edges.push(TdgEdge {
            from: NodeId(1),
            to: NodeId(0),
            dep: DependencyType::Match,
            bytes: 1,
        });
        let tdg = Tdg::from_parts(nodes, edges, AnalysisMode::PaperLiteral);
        assert!(!tdg.is_dag());
        assert_eq!(tdg.topo_order(), None);
    }

    #[test]
    fn reanalyze_switches_modes() {
        // Upstream writes an extra metadata field nobody consumes.
        let extra = Field::metadata("meta.extra", 12);
        let key = Field::metadata("meta.key", 4);
        let a = Mat::builder("a")
            .action(Action::writing("w", [key.clone(), extra]))
            .resource(0.1)
            .build()
            .unwrap();
        let b = Mat::builder("b")
            .match_field(key, MatchKind::Exact)
            .action(Action::new("noop"))
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(a).table(b).build().unwrap();
        let mut tdg = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        assert_eq!(tdg.edges()[0].bytes, 16);
        tdg.reanalyze(AnalysisMode::Intersection);
        assert_eq!(tdg.edges()[0].bytes, 4);
    }

    #[test]
    fn total_resource_sums_nodes() {
        let tdg = Tdg::from_program(&chain_program(5, 4), AnalysisMode::PaperLiteral);
        assert!((tdg.total_resource() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn successor_gate_creates_edge_without_field_overlap() {
        let p = library::int_telemetry();
        let tdg = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        let transit = tdg.node_by_name("int_telemetry/int_transit").unwrap();
        let sink = tdg.node_by_name("int_telemetry/int_sink").unwrap();
        let edge = tdg
            .edges()
            .iter()
            .find(|e| e.from == transit && e.to == sink)
            .expect("gate edge present");
        // transit writes meta.int_report (1 B metadata) which the sink matches.
        assert_eq!(edge.dep, DependencyType::Match);
        assert_eq!(edge.bytes, 1);
    }

    #[test]
    fn relaxed_mode_zeroes_folder_edges_only() {
        let p = library::aggregation::allreduce();
        let conservative = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        let relaxed = Tdg::from_program(&p, AnalysisMode::RelaxedState);
        assert_eq!(conservative.node_count(), relaxed.node_count());
        assert_eq!(conservative.edge_count(), relaxed.edge_count());
        let emit = relaxed.node_by_name("allreduce/agg_emit").unwrap();
        for (c, r) in conservative.edges().iter().zip(relaxed.edges()) {
            assert_eq!(c.dep, r.dep.base(), "base types agree");
            if r.to == emit {
                // Partials must reach the true reader.
                assert!(!r.dep.is_relaxed());
                assert_eq!(r.bytes, c.bytes);
                assert!(r.bytes > 0);
            } else {
                // Folder -> folder edges relax to zero bytes.
                assert!(r.dep.is_relaxed(), "{:?}", r);
                assert_eq!(r.bytes, 0);
                assert!(c.bytes > 0);
            }
        }
    }

    #[test]
    fn default_mode_never_relaxes() {
        for p in library::aggregation::all() {
            let tdg = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
            assert!(tdg.edges().iter().all(|e| !e.dep.is_relaxed()));
        }
    }

    #[test]
    fn restore_base_edges_round_trips() {
        let p = library::aggregation::allreduce();
        let conservative = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        let mut relaxed = Tdg::from_program(&p, AnalysisMode::RelaxedState);
        relaxed.restore_base_edges();
        for (c, r) in conservative.edges().iter().zip(relaxed.edges()) {
            assert_eq!(c.dep, r.dep);
            assert_eq!(c.bytes, r.bytes);
        }
        // And reanalyze back into relaxed form.
        relaxed.reanalyze(AnalysisMode::RelaxedState);
        assert!(relaxed.edges().iter().any(|e| e.dep.is_relaxed()));
    }

    /// The index must answer what a scan of [`Tdg::edges`] answers — same
    /// edges, same order, current `dep` / `bytes` — and nothing for an id
    /// the graph does not have.
    fn assert_index_matches_scan(tdg: &Tdg) {
        for id in tdg.node_ids() {
            let out: Vec<&TdgEdge> = tdg.edges().iter().filter(|e| e.from == id).collect();
            assert_eq!(tdg.out_edges(id).collect::<Vec<_>>(), out, "out-edges of {id}");
            let into: Vec<&TdgEdge> = tdg.edges().iter().filter(|e| e.to == id).collect();
            assert_eq!(tdg.in_edges(id).collect::<Vec<_>>(), into, "in-edges of {id}");
        }
        for foreign in [NodeId(tdg.node_count()), NodeId(usize::MAX)] {
            assert_eq!(tdg.out_edges(foreign).count() + tdg.in_edges(foreign).count(), 0);
        }
    }

    #[test]
    fn index_matches_scan_on_every_construction_path() {
        use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
        let mut programs = library::real_programs();
        programs.extend(library::aggregation::all());
        for seed in 0..8 {
            programs.extend(SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(4));
        }
        // from_program, in both the conservative and the relaxing mode.
        let mut graphs: Vec<Tdg> = programs
            .iter()
            .flat_map(|p| {
                [AnalysisMode::PaperLiteral, AnalysisMode::RelaxedState]
                    .map(|mode| Tdg::from_program(p, mode))
            })
            .collect();
        // Merging: the ten library programs, and everything at once.
        let literal = |ps: &[Program]| -> Vec<Tdg> {
            ps.iter().map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral)).collect()
        };
        graphs.push(crate::merge_all(literal(&library::real_programs())));
        graphs.push(crate::merge_all(literal(&programs)));
        for tdg in &graphs {
            assert_index_matches_scan(tdg);
            // A serde round trip rebuilds the index on read.
            let back = Tdg::from_value(&serde_json::to_value(tdg).unwrap()).expect("round trip");
            assert_eq!(&back, tdg);
            assert_index_matches_scan(&back);
            assert_index_matches_scan(&tdg.with_uniform_edge_bytes(1));
        }
        // from_mats_and_edges, with edges given out of node order.
        let chain = chain_program(4, 4);
        let mats = chain.tables().iter().map(|t| (t.name().to_owned(), t.clone())).collect();
        let explicit = Tdg::from_mats_and_edges(
            mats,
            vec![
                (2, 3, DependencyType::Match),
                (0, 3, DependencyType::Successor),
                (0, 1, DependencyType::Match),
                (1, 2, DependencyType::Match),
            ],
            AnalysisMode::PaperLiteral,
        );
        assert_index_matches_scan(&explicit);
        assert_eq!(explicit.in_edges(NodeId(3)).map(|e| e.from.0).collect::<Vec<_>>(), [2, 0]);
    }

    #[test]
    fn index_sees_rewritten_edges_after_every_mutating_pass() {
        let mut programs = library::aggregation::all();
        programs.push(library::ecmp_lb());
        for p in &programs {
            let mut tdg = Tdg::from_program(p, AnalysisMode::PaperLiteral);
            tdg.relax_edges();
            assert_index_matches_scan(&tdg);
            tdg.restore_base_edges();
            assert_index_matches_scan(&tdg);
            for mode in
                [AnalysisMode::Intersection, AnalysisMode::RelaxedState, AnalysisMode::PaperLiteral]
            {
                tdg.reanalyze(mode);
                assert_index_matches_scan(&tdg);
            }
        }
        // And they do rewrite something for the index to show: relaxing
        // runs after construction, on edges the index already points at.
        let relaxed =
            Tdg::from_program(&library::aggregation::allreduce(), AnalysisMode::RelaxedState);
        assert!(relaxed.node_ids().any(|id| relaxed.in_edges(id).any(|e| e.dep.is_relaxed())));
    }

    #[test]
    fn deserialization_rejects_edges_that_name_no_node() {
        let tdg = Tdg::from_program(&chain_program(3, 4), AnalysisMode::PaperLiteral);
        for endpoint in ["from", "to"] {
            let mut value = serde_json::to_value(&tdg).unwrap();
            let Value::Map(fields) = &mut value else { panic!("a TDG serializes as a map") };
            let Value::Seq(edges) = &mut fields.iter_mut().find(|(k, _)| k == "edges").unwrap().1
            else {
                panic!("edges serialize as a seq")
            };
            let Value::Map(edge) = &mut edges[0] else { panic!("an edge serializes as a map") };
            edge.iter_mut().find(|(k, _)| k == endpoint).unwrap().1 = Value::UInt(3);
            let err = Tdg::from_value(&value).expect_err("node 3 of 3 does not exist");
            assert!(err.to_string().contains("outside the graph's 3 nodes"), "{err}");
        }
    }

    #[test]
    fn deserialization_rejects_a_cycle() {
        let program = chain_program(2, 4);
        let mats = program.tables().iter().map(|m| (m.name().to_owned(), m.clone())).collect();
        let edges = vec![(0, 1, DependencyType::Match), (1, 0, DependencyType::Successor)];
        let cyclic = Tdg::from_mats_and_edges(mats, edges, AnalysisMode::PaperLiteral);
        let err = Tdg::from_value(&serde_json::to_value(&cyclic).unwrap())
            .expect_err("every solver takes a TDG to be a DAG");
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn nodes_share_their_programs_table_bodies() {
        let programs = library::real_programs();
        for p in &programs {
            let tdg = Tdg::from_program(p, AnalysisMode::PaperLiteral);
            let copy = tdg.clone();
            for ((node, copied), table) in tdg.nodes().iter().zip(copy.nodes()).zip(p.tables()) {
                assert!(node.mat.shares_body(table), "{}", node.name);
                assert!(copied.mat.shares_body(table), "{}: a copied graph", node.name);
            }
        }
        // Merging moves nodes: every survivor is still its program's table.
        let merged = crate::merge_all(
            programs.iter().map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral)).collect(),
        );
        for node in merged.nodes() {
            let (program, table) = node.name.split_once('/').unwrap();
            let source = programs.iter().find(|p| p.name() == program).unwrap();
            assert!(node.mat.shares_body(source.table(table).unwrap()), "{}", node.name);
        }
    }

    #[test]
    fn empty_graph_behaves() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        assert!(tdg.is_dag());
        assert_eq!(tdg.max_edge_bytes(), 0);
        assert_eq!(tdg.total_resource(), 0.0);
    }
}
