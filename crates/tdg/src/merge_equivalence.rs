//! The pairwise merge as it was written before the accumulator — the
//! definition [`merge_all`] must reproduce to the byte
//! — and the suite that holds the two together.
//!
//! `merge_reference` is the former two-input merge's body, unchanged apart from
//! the [`Tally`] hooks: it rebuilds everything for the accumulated graph at
//! every step, types pairs through the `Field`-comparing reference
//! [`classify`] / [`metadata_amount`], and answers every cycle question
//! with a full Kahn pass. Being test code, it can count what it skipped,
//! so the suite also proves its corpus reaches the hard cases.
//!
//! `from_program_reference` is `Tdg::from_program` as it was before its
//! pair loop was shared with `merge_programs`, which the suite holds to
//! `merge_all` of the `from_program` graphs by JSON bytes.

#![cfg(test)]
#![allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests

use crate::analysis::{
    classify, classify_profiles, metadata_amount, metadata_amount_profiles, AnalysisMode,
    MatProfile,
};
use crate::graph::{NodeId, Tdg, TdgEdge, TdgNode};
use crate::merge::{merge_all, merge_programs};
use hermes_dataplane::action::Action;
use hermes_dataplane::fields::{headers, Field};
use hermes_dataplane::fieldset::FieldTable;
use hermes_dataplane::library;
use hermes_dataplane::mat::{Mat, MatchKind};
use hermes_dataplane::program::Program;
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// What the reference did across a corpus.
#[derive(Debug, Default)]
struct Tally {
    folds: usize,
    folds_skipped: usize,
    inferred_skipped: usize,
}

fn merge_reference(mut t1: Tdg, mut t2: Tdg, tally: &mut Tally) -> Tdg {
    let mode = t1.mode();
    if mode.relaxes_state() {
        t1.restore_base_edges();
        t2.restore_base_edges();
    }
    let offset = t1.node_count();

    let mut nodes: Vec<TdgNode> = t1.nodes().to_vec();
    nodes.extend(t2.nodes().iter().cloned());
    let mut edges: Vec<TdgEdge> = t1.edges().to_vec();
    edges.extend(t2.edges().iter().map(|e| TdgEdge {
        from: NodeId(e.from.index() + offset),
        to: NodeId(e.to.index() + offset),
        ..*e
    }));

    // Group nodes by structural signature; node order keeps determinism.
    let mut groups: BTreeMap<_, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        groups.entry(n.mat.signature()).or_default().push(i);
    }

    // rep[i] = the surviving node index i is folded into (itself initially).
    let mut rep: Vec<usize> = (0..nodes.len()).collect();
    for group in groups.values() {
        let head = group[0];
        for &dup in &group[1..] {
            rep[dup] = head;
            if has_cycle(nodes.len(), &edges, &rep) {
                rep[dup] = dup; // undo: this elimination would break the DAG
                tally.folds_skipped += 1;
            } else {
                tally.folds += 1;
            }
        }
    }

    // Compact surviving nodes and merge provenance of folded duplicates.
    let mut new_index = vec![usize::MAX; nodes.len()];
    let mut out_nodes: Vec<TdgNode> = Vec::new();
    for i in 0..nodes.len() {
        if rep[i] == i {
            new_index[i] = out_nodes.len();
            out_nodes.push(nodes[i].clone());
        }
    }
    for i in 0..nodes.len() {
        if rep[i] != i {
            let programs = nodes[i].programs.clone();
            out_nodes[new_index[rep[i]]].programs.extend(programs);
        }
    }

    // Remap edges, drop self-loops, and deduplicate parallel edges keeping
    // the largest metadata amount (endpoint signatures are equal, so the
    // dependency types of folded parallels agree).
    let mut dedup: BTreeMap<(usize, usize), TdgEdge> = BTreeMap::new();
    for e in &edges {
        let from = new_index[rep[e.from.index()]];
        let to = new_index[rep[e.to.index()]];
        if from == to {
            continue;
        }
        let remapped = TdgEdge { from: NodeId(from), to: NodeId(to), ..*e };
        dedup
            .entry((from, to))
            .and_modify(|existing| {
                if remapped.bytes > existing.bytes {
                    *existing = remapped;
                }
            })
            .or_insert(remapped);
    }

    // Cross-program dependencies: merging composes the programs
    // sequentially (`t1` upstream of `t2`), so two MATs touching the same
    // fields across the program boundary are as interdependent as within
    // one program — e.g. one program's counter table feeding another
    // program's policer through a shared metadata field. Shared
    // (deduplicated) nodes already carry both sides' edges, so inference
    // runs only between t1-only and t2-only survivors; an edge that would
    // close a cycle through a shared node is skipped, mirroring the
    // fold-skipping rule above.
    let shared: BTreeSet<usize> =
        (offset..nodes.len()).filter(|&i| rep[i] < offset).map(|i| new_index[rep[i]]).collect();
    let mut out_edges: Vec<TdgEdge> = dedup.into_values().collect();
    for i in 0..offset {
        if rep[i] != i || shared.contains(&new_index[i]) {
            continue;
        }
        for j in offset..nodes.len() {
            if rep[j] != j {
                continue;
            }
            let (from, to) = (new_index[i], new_index[j]);
            if out_edges.iter().any(|e| e.from.index() == from && e.to.index() == to) {
                continue;
            }
            let (a, b) = (&nodes[i].mat, &nodes[j].mat);
            if let Some(dep) = classify(a, b, false) {
                let bytes = metadata_amount(a, b, dep, mode);
                let edge = TdgEdge { from: NodeId(from), to: NodeId(to), dep, bytes };
                out_edges.push(edge);
                if !is_acyclic(out_nodes.len(), &out_edges) {
                    out_edges.pop();
                    tally.inferred_skipped += 1;
                }
            }
        }
    }

    let mut merged = Tdg::from_parts(out_nodes, out_edges, mode);
    debug_assert!(merged.is_dag(), "merge must preserve acyclicity");
    if mode.relaxes_state() {
        merged.relax_edges();
    }
    merged
}

/// [`Tdg::from_program`] as it was written before it shared its pair loop
/// with [`merge_programs`]: its own gate set, its own field table, every
/// `i < j` pair typed in place.
fn from_program_reference(program: &Program, mode: AnalysisMode) -> Tdg {
    let tables = program.tables();
    let nodes = tables
        .iter()
        .map(|t| TdgNode {
            name: format!("{}/{}", program.name(), t.name()),
            mat: t.clone(),
            programs: BTreeSet::from([program.name().to_owned()]),
        })
        .collect();
    let gates: BTreeSet<(usize, usize)> = program.gates().iter().copied().collect();
    let mut table = FieldTable::new();
    let profiles: Vec<MatProfile> =
        tables.iter().map(|t| MatProfile::build(t, &mut table)).collect();
    let mut edges = Vec::new();
    for i in 0..tables.len() {
        for j in (i + 1)..tables.len() {
            let gated = gates.contains(&(i, j));
            if let Some(dep) = classify_profiles(&profiles[i], &profiles[j], gated) {
                let bytes = metadata_amount_profiles(&table, &profiles[i], &profiles[j], dep, mode);
                edges.push(TdgEdge { from: NodeId(i), to: NodeId(j), dep, bytes });
            }
        }
    }
    let mut tdg = Tdg::from_parts(nodes, edges, mode);
    if mode.relaxes_state() {
        tdg.relax_edges();
    }
    tdg
}

/// Plain Kahn acyclicity check on dense node indexes.
fn is_acyclic(n: usize, edges: &[TdgEdge]) -> bool {
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        adj[e.from.index()].push(e.to.index());
        indegree[e.to.index()] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = stack.pop() {
        seen += 1;
        for &v in &adj[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                stack.push(v);
            }
        }
    }
    seen == n
}

/// Cycle check on the graph obtained by contracting every node into its
/// representative. O(V + E) Kahn.
fn has_cycle(n: usize, edges: &[TdgEdge], rep: &[usize]) -> bool {
    let mut indegree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut m = 0usize;
    for e in edges {
        let (f, t) = (rep[e.from.index()], rep[e.to.index()]);
        if f != t {
            adj[f].push(t);
            indegree[t] += 1;
            m += 1;
        }
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| rep[i] == i && indegree[i] == 0).collect();
    let mut seen = 0usize;
    let mut removed_edges = 0usize;
    while let Some(u) = stack.pop() {
        seen += 1;
        for &v in &adj[u] {
            removed_edges += 1;
            indegree[v] -= 1;
            if indegree[v] == 0 {
                stack.push(v);
            }
        }
    }
    let live_nodes = (0..n).filter(|&i| rep[i] == i).count();
    seen < live_nodes || removed_edges < m
}

const MODES: [AnalysisMode; 3] =
    [AnalysisMode::PaperLiteral, AnalysisMode::Intersection, AnalysisMode::RelaxedState];

/// A table matching `matches` and writing `writes`.
pub(crate) fn table(name: &str, matches: &[&Field], writes: &[&Field]) -> Mat {
    let mut b = Mat::builder(name.to_owned())
        .action(Action::writing("w", writes.iter().map(|&f| f.clone())))
        .resource(0.1);
    for &f in matches {
        b = b.match_field(f.clone(), MatchKind::Exact);
    }
    b.build().unwrap()
}

fn program(name: &str, tables: Vec<Mat>) -> Program {
    tables.into_iter().fold(Program::builder(name), |b, t| b.table(t)).build().unwrap()
}

/// `x -> y` in one program, `y -> x` in the other: folding both pairs
/// would cycle, so the second fold is skipped — and stays skipped when
/// later steps retry it.
fn fold_cycle_programs() -> Vec<Program> {
    let f = Field::metadata("meta.eq_f", 4);
    let g = Field::metadata("meta.eq_g", 4);
    let x = |n: &str| table(n, &[&g], &[&f]);
    let y = |n: &str| table(n, &[&f], &[&g]);
    vec![program("eq_p1", vec![x("x"), y("y")]), program("eq_p2", vec![y("y2"), x("x2")])]
}

/// `s -> i` in the first program, `j -> s` in the second, and `i` writes
/// what `j` matches: once the two `s` fold, the inferred `i -> j` would
/// close `j -> s -> i -> j` through the shared node.
fn inferred_cycle_programs() -> Vec<Program> {
    let f = Field::metadata("meta.eq_sf", 4);
    let g = Field::metadata("meta.eq_sg", 4);
    let h = Field::metadata("meta.eq_sh", 4);
    let s = |n: &str| table(n, &[&g], &[&f]);
    vec![
        program("eq_q1", vec![s("s"), table("i", &[&f], &[&h])]),
        program("eq_q2", vec![table("j", &[&h], &[&g]), s("s2")]),
    ]
}

/// The same two tables joined by a successor gate in one program and by a
/// reverse-match dependency in the other, neither carrying metadata: once
/// both pairs fold, the parallel edges tie on bytes and the one that comes
/// first in the step's edge list must win, whichever program leads.
fn gate_tie_programs() -> Vec<Program> {
    let ttl = headers::ipv4_ttl();
    let up = |n: &str| table(n, &[&ttl], &[]);
    let down = |n: &str| table(n, &[], &[&ttl]);
    vec![
        Program::builder("eq_gated")
            .table(up("u"))
            .table(down("d"))
            .gate("u", "d")
            .build()
            .unwrap(),
        program("eq_ungated", vec![up("u2"), down("d2")]),
    ]
}

/// Three structurally identical tables in one program, each writing the
/// same field (so action dependencies join every pair), and a reader.
fn twin_program(name: &str) -> Program {
    let acc = Field::metadata("meta.eq_twin", 4);
    let dst = headers::ipv4_dst();
    let twin = |n: &str| table(n, &[&dst], &[&acc]);
    program(name, vec![twin("t1"), twin("t2"), table("reader", &[&acc], &[]), twin("t3")])
}

/// A request of the `wan-50` benchmark workload, the scale the merge's
/// candidate index is for: the ten library programs plus 40 of the
/// 60-program pool it draws from — two of every three in table-count
/// order — some 620 surviving nodes and 1 900 edges.
pub(crate) fn wan_50_shaped() -> Vec<Program> {
    let pool = SyntheticGenerator::new(50, SyntheticConfig::default()).programs(60);
    let mut by_size: Vec<usize> = (0..pool.len()).collect();
    by_size.sort_by_key(|&i| (pool[i].tables().len(), i));
    let mut members: Vec<usize> =
        by_size.chunks(3).flat_map(|triple| &triple[..2]).copied().collect();
    members.sort_unstable();
    let mut programs = library::real_programs();
    programs.extend(members.into_iter().map(|i| pool[i].clone()));
    programs
}

/// The orders and repetitions every base list is merged in.
fn variants(base: &[Program]) -> Vec<Vec<Program>> {
    let reversed: Vec<Program> = base.iter().rev().cloned().collect();
    let mut duplicated = base.to_vec();
    duplicated.extend(base.iter().step_by(2).cloned());
    let mut with_twins = vec![twin_program("eq_twin_a")];
    with_twins.extend(base.iter().cloned());
    with_twins.insert(with_twins.len() / 2, twin_program("eq_twin_b"));
    vec![base.to_vec(), reversed, duplicated, with_twins]
}

/// `merge_programs` against `merge_all` of the `from_program` graphs, by
/// JSON bytes, with the edges it shows per program against that
/// program's unrelaxed graph; and `from_program` against its reference.
fn check_build_and_merge(programs: &[Program], mode: AnalysisMode) -> Result<(), TestCaseError> {
    let names: Vec<&str> = programs.iter().map(Program::name).collect();
    let mut shown = Vec::new();
    let built = merge_programs(programs, mode, |p, edges| {
        shown.push((p.name().to_owned(), edges.to_vec()));
    });
    let tdgs: Vec<Tdg> = programs.iter().map(|p| Tdg::from_program(p, mode)).collect();
    for (p, tdg) in programs.iter().zip(&tdgs) {
        let reference = from_program_reference(p, mode);
        prop_assert!(*tdg == reference, "from_program diverges ({mode:?}) on {}", p.name());
    }
    let expected = if programs.is_empty() { Tdg::new(mode) } else { merge_all(tdgs) };
    let json = |t: &Tdg| serde_json::to_string(t).unwrap();
    prop_assert!(
        json(&built) == json(&expected),
        "merge_programs diverges ({mode:?}) on {names:?}"
    );
    prop_assert_eq!(shown.len(), programs.len());
    for ((name, edges), p) in shown.iter().zip(programs) {
        let unrelaxed = Tdg::from_program(p, mode.byte_mode());
        prop_assert!(name == p.name() && edges == unrelaxed.edges(), "{mode:?}: {}", p.name());
    }
    Ok(())
}

/// `merge_all` against the reference on one program list and on its two
/// merged halves, and `merge_programs` against `merge_all`.
fn check(programs: &[Program], mode: AnalysisMode, tally: &mut Tally) -> Result<(), TestCaseError> {
    check_build_and_merge(programs, mode)?;
    let tdgs =
        |ps: &[Program]| -> Vec<Tdg> { ps.iter().map(|p| Tdg::from_program(p, mode)).collect() };
    let names: Vec<&str> = programs.iter().map(Program::name).collect();
    let expected = tdgs(programs)
        .into_iter()
        .reduce(|a, b| merge_reference(a, b, tally))
        .unwrap_or_else(|| Tdg::new(AnalysisMode::PaperLiteral));
    let actual = merge_all(tdgs(programs));
    prop_assert!(actual == expected, "merge_all diverges ({mode:?}) on {names:?}");

    // Two already-merged halves: inputs whose edges are not in `(from, to)`
    // order and whose nodes serve several programs.
    let (left, right) = programs.split_at(programs.len() / 2);
    if !left.is_empty() {
        let expected =
            merge_reference(merge_all(tdgs(left)), merge_all(tdgs(right)), &mut Tally::default());
        let actual = merge_all(vec![merge_all(tdgs(left)), merge_all(tdgs(right))]);
        prop_assert!(actual == expected, "merging two halves diverges ({mode:?}) on {names:?}");
    }
    Ok(())
}

#[test]
fn unshared_program_gets_every_typed_cross_edge() {
    // No node in common means no cycle query: every pair the reference
    // typing relates gets its edge, in loop order after the old edges.
    let mode = AnalysisMode::PaperLiteral;
    let programs = library::real_programs();
    let mut cross_edges = 0;
    for (pa, pb) in programs.iter().flat_map(|a| programs.iter().map(move |b| (a, b))) {
        let common =
            pa.tables().iter().any(|x| pb.tables().iter().any(|y| x.signature() == y.signature()));
        if common {
            continue;
        }
        let (a, b) = (Tdg::from_program(pa, mode), Tdg::from_program(pb, mode));
        let offset = a.node_count();
        let mut expected: Vec<TdgEdge> = a.edges().to_vec();
        expected.extend(b.edges().iter().map(|e| TdgEdge {
            from: NodeId(e.from.index() + offset),
            to: NodeId(e.to.index() + offset),
            ..*e
        }));
        for (i, x) in pa.tables().iter().enumerate() {
            for (j, y) in pb.tables().iter().enumerate() {
                if let Some(dep) = classify(x, y, false) {
                    let bytes = metadata_amount(x, y, dep, mode);
                    expected.push(TdgEdge { from: NodeId(i), to: NodeId(offset + j), dep, bytes });
                    cross_edges += 1;
                }
            }
        }
        let merged = merge_all(vec![a, b]);
        assert_eq!(merged.edges(), expected, "{} + {}", pa.name(), pb.name());
        assert!(merged.is_dag());
    }
    assert!(cross_edges > 0, "the library has cross-program dependencies");
}

#[test]
fn corpus() {
    let mut bases: Vec<Vec<Program>> = vec![
        Vec::new(),
        vec![library::ecmp_lb()],
        library::real_programs(),
        library::sketches::all(),
        library::aggregation::all(),
        fold_cycle_programs(),
        inferred_cycle_programs(),
        gate_tie_programs(),
    ];
    let mut mixed = library::aggregation::all();
    mixed.extend(fold_cycle_programs());
    mixed.extend(library::real_programs());
    mixed.extend(inferred_cycle_programs());
    mixed.extend(gate_tie_programs());
    bases.push(mixed);
    for seed in 0..8 {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let mut list = generator.programs(3 + seed as usize);
        if seed % 2 == 0 {
            list.extend(library::real_programs().into_iter().skip(seed as usize));
        }
        bases.push(list);
    }

    let mut tally = Tally::default();
    let mut lists = 0;
    for base in &bases {
        for list in variants(base) {
            for mode in MODES {
                if let Err(e) = check(&list, mode, &mut tally) {
                    panic!("{e}");
                }
                lists += 1;
            }
        }
    }
    // Once at the size the candidate index is for; the reference needs
    // about half a second for it, so no variants and one mode.
    if let Err(e) = check(&wan_50_shaped(), AnalysisMode::PaperLiteral, &mut tally) {
        panic!("{e}");
    }
    assert!(lists >= 120, "{lists} lists");
    assert!(tally.folds >= 100, "{tally:?}");
    assert!(tally.folds_skipped >= 1, "{tally:?}");
    assert!(tally.inferred_skipped >= 1, "{tally:?}");
}

#[test]
fn build_and_merge_matches_every_prefix_and_every_program_alone() {
    let mut programs = library::real_programs();
    programs.extend(library::aggregation::all());
    programs.extend(gate_tie_programs());
    programs.extend(SyntheticGenerator::new(7, SyntheticConfig::default()).programs(12));
    for mode in MODES {
        for end in 0..=programs.len() {
            check_build_and_merge(&programs[..end], mode).unwrap();
        }
        for p in &programs {
            check_build_and_merge(std::slice::from_ref(p), mode).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn build_and_merge_equals_merge_all_of_from_program(
        seed in 0u64..5_000,
        synthetic in 0usize..9,
        library_from in 0usize..11,
        aggregation in any::<bool>(),
        mode in 0usize..3,
    ) {
        let mut list = SyntheticGenerator::new(seed, SyntheticConfig::default()).programs(synthetic);
        let at = list.len() / 2;
        list.splice(at..at, library::real_programs().into_iter().skip(library_from));
        if aggregation {
            list.splice(0..0, library::aggregation::all());
        }
        if seed % 2 == 0 {
            list.extend(gate_tie_programs());
        }
        check_build_and_merge(&list, MODES[mode])?;
    }

    #[test]
    fn random_program_lists(
        seed in 0u64..5_000,
        synthetic in 0usize..7,
        library_from in 0usize..11,
        variant in 0usize..4,
        mode in 0usize..3,
    ) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let mut base = generator.programs(synthetic);
        let at = base.len() / 2;
        base.splice(at..at, library::real_programs().into_iter().skip(library_from));
        if seed % 3 == 0 {
            base.extend(fold_cycle_programs());
            base.splice(0..0, inferred_cycle_programs());
        }
        let list = variants(&base).swap_remove(variant);
        check(&list, MODES[mode], &mut Tally::default())?;
    }
}
