//! The three naive oracles the fast passes are pinned to, and the suites
//! that hold each pair together.
//!
//! `dataflow_reference` is the dataflow pass on `BTreeSet`s and per-node
//! DFS; it must emit exactly what [`dataflow_diagnostics`] emits on every
//! input. `transitive_reference` is the HG205 search as a scan of every
//! successor, keeping the smallest name; [`check_tdg`]'s HG205 findings
//! must equal it byte for byte. `oracle_classification` is a per-field
//! rescan written from the state-access lattice definition rather than
//! from the accumulator plumbing of [`StateClassification::of_mats`]; the
//! two must agree field for field. All are written naively on purpose,
//! and being test code they are no part of the crate's API.

#![cfg(test)]
#![allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests

use crate::dataflow::{
    conflicting_writes, cyclic_graph, dataflow_diagnostics, dead_mat, dead_write, name_ordered,
    order_dependent_read, uninitialized_read, unused_field,
};
use crate::diag::Diagnostic;
use crate::graphcheck::{check_tdg, transitive_redundant};
use hermes_core::ProgramAnalyzer;
use hermes_dataplane::action::{Action, FoldOp, PrimitiveOp};
use hermes_dataplane::fields::Field;
use hermes_dataplane::library;
use hermes_dataplane::mat::{Mat, MatchKind};
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_tdg::{AnalysisMode, DependencyType, StateClass, StateClassification, Tdg};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// Dataflow: BTreeSet + per-node DFS.
// ---------------------------------------------------------------------

/// Strict descendants of every node, by DFS over out-edges.
fn descendants(tdg: &Tdg) -> Vec<BTreeSet<usize>> {
    tdg.node_ids()
        .map(|start| {
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            let mut stack: Vec<_> = tdg.out_edges(start).map(|e| e.to).collect();
            while let Some(v) = stack.pop() {
                if seen.insert(v.index()) {
                    stack.extend(tdg.out_edges(v).map(|e| e.to));
                }
            }
            seen
        })
        .collect()
}

/// Runs the dataflow pass on `BTreeSet`s (the reference oracle).
///
/// Must emit exactly what [`dataflow_diagnostics`] emits on every input —
/// the property suite enforces it.
pub(crate) fn dataflow_reference(tdg: &Tdg) -> Vec<Diagnostic> {
    let n = tdg.node_count();
    if n == 0 {
        return Vec::new();
    }
    if tdg.topo_order().is_none() {
        return vec![cyclic_graph()];
    }

    let reachable = descendants(tdg);
    let is_anc = |a: usize, b: usize| reachable[a].contains(&b);

    let consumed: Vec<BTreeSet<&Field>> = tdg
        .nodes()
        .iter()
        .map(|node| node.mat.consumed_fields().filter(|f| f.is_metadata()).collect())
        .collect();
    let written: Vec<BTreeSet<&Field>> =
        tdg.nodes().iter().map(|node| node.mat.written_metadata().collect()).collect();

    let mut writers: BTreeMap<&Field, Vec<usize>> = BTreeMap::new();
    let mut readers: BTreeMap<&Field, Vec<usize>> = BTreeMap::new();
    for v in 0..n {
        for &f in &written[v] {
            writers.entry(f).or_default().push(v);
        }
        for &f in &consumed[v] {
            readers.entry(f).or_default().push(v);
        }
    }
    let empty: Vec<usize> = Vec::new();
    let name = |v: usize| tdg.nodes()[v].name.as_str();

    let mut out = Vec::new();

    for b in 0..n {
        for &f in &consumed[b] {
            if written[b].contains(f) {
                continue;
            }
            let ws = writers.get(f).unwrap_or(&empty);
            if ws.iter().any(|&w| is_anc(w, b)) {
                continue;
            }
            let witness = ws.iter().copied().filter(|&w| w != b && !is_anc(b, w)).map(name).min();
            match witness {
                Some(w) => out.push(order_dependent_read(name(b), f.name(), w)),
                None => out.push(uninitialized_read(name(b), f.name())),
            }
        }
    }

    let mut dead: Vec<Vec<&Field>> = vec![Vec::new(); n];
    for a in 0..n {
        for &f in &written[a] {
            let rs = readers.get(f).unwrap_or(&empty);
            let alive = consumed[a].contains(f) || rs.iter().any(|&r| r != a && !is_anc(r, a));
            if !alive {
                dead[a].push(f);
            }
        }
    }
    for a in 0..n {
        let mat = &tdg.nodes()[a].mat;
        let all_meta =
            !mat.written_fields().is_empty() && mat.written_fields().iter().all(Field::is_metadata);
        let gates = tdg
            .node_ids()
            .nth(a)
            .map(|id| tdg.out_edges(id).any(|e| e.dep == DependencyType::Successor))
            .unwrap_or(false);
        if all_meta && dead[a].len() == written[a].len() && !mat.is_stateful() && !gates {
            out.push(dead_mat(name(a)));
        } else {
            for f in &dead[a] {
                out.push(dead_write(name(a), f.name()));
            }
        }
    }
    for (f, ws) in &writers {
        if !ws.is_empty() && !readers.contains_key(*f) {
            out.push(unused_field(f.name()));
        }
    }
    for (f, ws) in &writers {
        for (i, &a) in ws.iter().enumerate() {
            for &b in &ws[i + 1..] {
                if !is_anc(a, b) && !is_anc(b, a) {
                    let (x, y) = name_ordered(name(a), name(b));
                    out.push(conflicting_writes(x, y, f.name()));
                }
            }
        }
    }

    out.sort();
    out
}

// ---------------------------------------------------------------------
// HG205: every successor scanned, the smallest name kept.
// ---------------------------------------------------------------------

/// The HG205 findings of an acyclic `tdg` (the reference oracle): for
/// each edge u → v, every successor w ≠ v of u that reaches v is a
/// witness, and the finding names the smallest by name.
///
/// [`check_tdg`]'s HG205 findings must equal these byte for byte.
fn transitive_reference(tdg: &Tdg) -> Vec<Diagnostic> {
    let reachable = descendants(tdg);
    let name = |i: usize| tdg.nodes()[i].name.as_str();
    let mut out: Vec<Diagnostic> = tdg
        .edges()
        .iter()
        .filter_map(|e| {
            let (u, v) = (e.from.index(), e.to.index());
            let via = tdg
                .out_edges(e.from)
                .map(|out| out.to.index())
                .filter(|&w| w != v && reachable[w].contains(&v))
                .map(name)
                .min()?;
            Some(transitive_redundant(name(u), name(v), via))
        })
        .collect();
    out.sort();
    out
}

/// `check_tdg`'s HG205 findings against the reference's.
fn assert_transitive_matches(tdg: &Tdg) {
    let fast: Vec<Diagnostic> = check_tdg(tdg).into_iter().filter(|d| d.code == "HG205").collect();
    assert_eq!(fast, transitive_reference(tdg));
}

#[test]
fn transitive_search_matches_scan_on_library_merge() {
    let tdgs: Vec<Tdg> = library::real_programs()
        .iter()
        .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
        .collect();
    let merged = hermes_tdg::merge_all(tdgs);
    assert_transitive_matches(&merged);
    assert!(
        check_tdg(&merged).iter().any(|d| d.code == "HG205"),
        "the library merge has transitively implied edges to check"
    );
}

#[test]
fn transitive_search_matches_scan_on_fifty_program_merge() {
    let programs = SyntheticGenerator::new(50, SyntheticConfig::default()).programs(50);
    let merged = ProgramAnalyzer::new().analyze(&programs);
    assert!(merged.node_count() > 500, "{} nodes", merged.node_count());
    assert_transitive_matches(&merged);
}

/// A random DAG: `names[i]` picks node i's name from a pool of four, so
/// names repeat; node i sits at position `(keys[i], i)` of a hidden order,
/// and each `(a, b)` with `a != b` is an edge from the earlier of the two
/// in that order to the later. Node indices are thus no topological
/// order, and a repeated pair is a parallel edge.
fn random_dag(names: &[usize], keys: &[u32], pairs: &[(usize, usize)]) -> Tdg {
    let mat = Mat::builder("t").action(Action::new("n")).resource(0.1).build().unwrap();
    let mats = names.iter().map(|&k| (["d", "b", "c", "a"][k].to_owned(), mat.clone())).collect();
    let edges = pairs
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| {
            let (from, to) = if (keys[a], a) < (keys[b], b) { (a, b) } else { (b, a) };
            (from, to, DependencyType::Successor)
        })
        .collect();
    Tdg::from_mats_and_edges(mats, edges, AnalysisMode::PaperLiteral)
}

type DagSpec = (Vec<usize>, Vec<u32>, Vec<(usize, usize)>);

fn dag_spec() -> impl Strategy<Value = DagSpec> {
    (1usize..14).prop_flat_map(|n| {
        (
            proptest::collection::vec(0usize..4, n),
            proptest::collection::vec(0u32..1000, n),
            proptest::collection::vec((0..n, 0..n), 0..40),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `check_tdg`'s ranked first-hit HG205 search ≡ the full scan, on
    /// random DAGs with repeated names and parallel edges.
    #[test]
    fn transitive_search_matches_scan_on_random_dags(spec in dag_spec()) {
        let (names, keys, pairs) = spec;
        let tdg = random_dag(&names, &keys, &pairs);
        prop_assert!(tdg.is_dag());
        assert_transitive_matches(&tdg);
    }
}

// ---------------------------------------------------------------------
// State access: one verdict per field, recomputed from scratch.
// ---------------------------------------------------------------------

/// Every field the MAT set touches: match keys, action reads, and writes.
fn touched_fields<'a>(mats: &[&'a Mat]) -> BTreeSet<&'a Field> {
    let mut out = BTreeSet::new();
    for m in mats {
        out.extend(m.match_fields());
        out.extend(m.action_read_fields());
        out.extend(m.written_fields());
    }
    out
}

/// All primitive ops across `mat` that write `field`.
fn writing_ops<'a>(mat: &'a Mat, field: &Field) -> Vec<&'a PrimitiveOp> {
    mat.actions().iter().flat_map(|a| a.ops()).filter(|op| op.writes().contains(&field)).collect()
}

/// The reference verdict for one field, recomputed from scratch with
/// straightforward set logic. Mirrors the lattice definition, not the
/// fast pass's accumulator plumbing.
fn oracle_verdict(field: &Field, mats: &[&Mat]) -> StateClass {
    let writers: Vec<&Mat> =
        mats.iter().copied().filter(|m| !writing_ops(m, field).is_empty()).collect();
    if writers.is_empty() {
        return StateClass::ReadOnly;
    }
    if field.is_metadata() {
        let ops: Vec<&PrimitiveOp> = writers.iter().flat_map(|m| writing_ops(m, field)).collect();

        // CommutativeUpdate: every write is a fold of one common kind whose
        // per-packet sources ride the packet (headers).
        let kinds: BTreeSet<FoldOp> = ops
            .iter()
            .filter_map(|op| match op {
                PrimitiveOp::Fold { op: k, .. } => Some(*k),
                _ => None,
            })
            .collect();
        let all_folds = ops.iter().all(|op| matches!(op, PrimitiveOp::Fold { .. }));
        let srcs_header_pure = ops.iter().all(|op| match op {
            PrimitiveOp::Fold { srcs, .. } => srcs.iter().all(Field::is_header),
            _ => true,
        });
        if all_folds && kinds.len() == 1 && srcs_header_pure {
            return StateClass::CommutativeUpdate(*kinds.iter().next().expect("len 1"));
        }

        // ReadMostlyReplicable: idempotent stateless header-pure writes,
        // header-matched producers, strictly more readers than writers.
        let writes_replicable = ops.iter().all(|op| {
            !op.is_stateful()
                && op.writes_are_idempotent()
                && op.reads().iter().all(|f| f.is_header())
        });
        let producers_header_matched =
            writers.iter().all(|m| m.match_fields().iter().all(Field::is_header));
        let readers = mats
            .iter()
            .filter(|m| m.consumes(field) && !m.written_fields().contains(field))
            .count();
        if writes_replicable && producers_header_matched && readers > writers.len() {
            return StateClass::ReadMostlyReplicable;
        }
    }
    StateClass::SingleWriter
}

/// The naive set-based classification oracle: one verdict per touched
/// field, recomputed independently per field. Quadratic and proud of it —
/// its only job is to pin [`StateClassification::of_mats`] down.
fn oracle_classification<'a, I>(mats: I) -> BTreeMap<Field, StateClass>
where
    I: IntoIterator<Item = &'a Mat>,
{
    let mats: Vec<&Mat> = mats.into_iter().collect();
    touched_fields(&mats).into_iter().map(|f| (f.clone(), oracle_verdict(f, &mats))).collect()
}

// ---------------------------------------------------------------------
// The suites.
// ---------------------------------------------------------------------

/// Fast pass and oracle must agree field-for-field on a MAT set.
fn assert_oracle_agrees(mats: &[&Mat]) {
    let fast = StateClassification::of_mats(mats.iter().copied());
    let slow = oracle_classification(mats.iter().copied());
    assert_eq!(fast.len(), slow.len(), "field sets diverge");
    for (f, e) in fast.verdicts() {
        assert_eq!(Some(&e.class), slow.get(f), "verdict diverges on `{}`", f.name());
    }
}

#[test]
fn oracle_agrees_on_real_programs() {
    let programs = library::real_programs();
    for total in [1, 5, programs.len()] {
        let mats: Vec<&Mat> = programs[..total].iter().flat_map(|p| p.tables()).collect();
        assert_oracle_agrees(&mats);
    }
}

#[test]
fn oracle_agrees_on_aggregation_suite() {
    for p in library::aggregation::all() {
        let mats: Vec<&Mat> = p.tables().iter().collect();
        assert_oracle_agrees(&mats);
    }
    // And on the whole suite composed, where cross-program writers can
    // demote per-program verdicts.
    let programs = library::aggregation::all();
    let mats: Vec<&Mat> = programs.iter().flat_map(|p| p.tables()).collect();
    assert_oracle_agrees(&mats);
}

/// The small, fixed pool of fields random MATs draw from: enough aliasing
/// that generated workloads share accumulators and contend on state.
fn field_pool() -> Vec<Field> {
    vec![
        Field::header("pkt.h0", 2),
        Field::header("pkt.h1", 4),
        Field::metadata("meta.m0", 4),
        Field::metadata("meta.m1", 2),
        Field::metadata("meta.m2", 4),
    ]
}

/// One primitive op, decoded from proptest-drawn indices.
fn decode_op(kind: usize, dst: usize, src: usize, fold: usize) -> PrimitiveOp {
    let pool = field_pool();
    let dst = pool[dst % pool.len()].clone();
    let src_f = pool[src % pool.len()].clone();
    let fold_op = [FoldOp::Add, FoldOp::Max, FoldOp::Min, FoldOp::Or][fold % 4];
    match kind % 7 {
        0 => PrimitiveOp::SetConst { dst },
        1 => PrimitiveOp::Copy { dst, src: src_f },
        2 => PrimitiveOp::Compute { dst, srcs: vec![src_f] },
        3 => PrimitiveOp::Hash { dst, srcs: vec![src_f] },
        4 => PrimitiveOp::RegisterOp { index: src_f, out: Some(dst) },
        5 => PrimitiveOp::Fold { dst, srcs: vec![src_f], op: fold_op },
        // Fold with two sources, one of which may alias the accumulator —
        // the self-consuming case the commutativity rule must reject.
        _ => PrimitiveOp::Fold { dst: dst.clone(), srcs: vec![src_f, dst], op: fold_op },
    }
}

/// Builds a random MAT: an optional exact match (`match_on == 5` means
/// matchless) plus up to three ops.
fn decode_mat(i: usize, match_on: usize, ops: &[(usize, usize, usize, usize)]) -> Mat {
    let pool = field_pool();
    let mut action = Action::new(format!("a{i}"));
    for &(kind, dst, src, fold) in ops {
        action = action.with_op(decode_op(kind, dst, src, fold));
    }
    let mut builder = Mat::builder(format!("t{i}")).action(action).resource(0.3).capacity(8 + i);
    if match_on < pool.len() {
        builder = builder.match_field(pool[match_on].clone(), MatchKind::Exact);
    }
    builder.build().expect("generated MATs are structurally valid")
}

type MatSpec = (usize, Vec<(usize, usize, usize, usize)>);

fn mat_spec() -> impl Strategy<Value = MatSpec> {
    (0usize..6, proptest::collection::vec((0usize..7, 0usize..5, 0usize..5, 0usize..4), 0..3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast classifier ≡ naive oracle, field for field, on
    /// workloads drawn from the full op grammar.
    #[test]
    fn fast_classifier_agrees_with_oracle(specs in proptest::collection::vec(mat_spec(), 1..7)) {
        let mats: Vec<Mat> = specs
            .iter()
            .enumerate()
            .map(|(i, (m, ops))| decode_mat(i, *m, ops))
            .collect();
        assert_oracle_agrees(&mats.iter().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The production dataflow pass and the oracle agree on merged
    /// synthetic workloads of every size, byte for byte.
    #[test]
    fn dataflow_matches_oracle_on_synthetic_workloads(
        seed in 0u64..1000,
        count in 1usize..5,
    ) {
        let programs = SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(count);
        let merged = ProgramAnalyzer::new().analyze(&programs);
        prop_assert_eq!(dataflow_diagnostics(&merged), dataflow_reference(&merged));
        for p in &programs {
            for mode in [AnalysisMode::PaperLiteral, AnalysisMode::Intersection] {
                let tdg = Tdg::from_program(p, mode);
                prop_assert_eq!(dataflow_diagnostics(&tdg), dataflow_reference(&tdg));
            }
        }
    }
}
