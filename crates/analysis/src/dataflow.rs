//! Pass 1 — dataflow over the TDG, valid across *all* topological orders.
//!
//! The deployment pipeline may execute the merged TDG in any
//! topological order (stage assignment only honours the recorded edges),
//! so a read is only safe when a writer is a strict *ancestor* — then
//! every legal order runs the write first. A writer that is merely
//! incomparable makes the read order-dependent; no writer at all (or
//! writers strictly downstream) means the field reads as zero on hardware
//! in every order.
//!
//! The same reachability machinery yields the write-side checks:
//! dead writes (no consumer can ever observe the value), dead MATs (every
//! effect is a dead metadata write), globally unused fields, and
//! conflicting writes (two incomparable writers — the final value depends
//! on the chosen order; the 𝔸 dependency type exists precisely to forbid
//! this).
//!
//! [`dataflow_diagnostics`] runs on bitsets: per-node ancestor/descendant
//! sets as `u64` words, fields interned in a [`FieldTable`] with
//! [`FieldSet`] membership, `O((V + E) · V/64)`. A second, naive
//! implementation on `BTreeSet` and per-node DFS lives in the crate's
//! test-only `oracles` module; the two must emit byte-identical
//! diagnostics on every input, and its property suite pins them together.

use crate::diag::{Diagnostic, Severity, Span};
use hermes_dataplane::fields::Field;
use hermes_dataplane::fieldset::{FieldSet, FieldTable};
use hermes_tdg::{DependencyType, Tdg};

// ---------------------------------------------------------------------
// Shared diagnostic constructors: this pass and its test-only oracle both
// emit through these, so their outputs are comparable byte-for-byte.
// ---------------------------------------------------------------------

pub(crate) fn cyclic_graph() -> Diagnostic {
    Diagnostic::new(
        "HD100",
        Severity::Error,
        "the dependency graph is cyclic; dataflow analysis skipped",
    )
    .with_hint("a TDG must be a DAG — check externally constructed edges")
}

pub(crate) fn uninitialized_read(mat: &str, field: &str) -> Diagnostic {
    Diagnostic::new(
        "HD101",
        Severity::Error,
        format!("`{mat}` consumes metadata `{field}` with no upstream writer in any order"),
    )
    .with_span(Span::mat_field(mat, field))
    .with_hint("the field reads as zero on hardware; add or order a producer before this MAT")
}

pub(crate) fn order_dependent_read(mat: &str, field: &str, writer: &str) -> Diagnostic {
    Diagnostic::new(
        "HD102",
        Severity::Warning,
        format!(
            "`{mat}` consumes metadata `{field}` whose only writers (e.g. `{writer}`) are \
             unordered relative to it"
        ),
    )
    .with_span(Span::mat_field(mat, field))
    .with_hint("some topological orders run the read first; add a dependency or gate")
}

pub(crate) fn dead_write(mat: &str, field: &str) -> Diagnostic {
    Diagnostic::new(
        "HD103",
        Severity::Warning,
        format!("`{mat}` writes metadata `{field}` that no later MAT can observe"),
    )
    .with_span(Span::mat_field(mat, field))
    .with_hint("drop the write, or the field inflates A(a,b) for nothing when piggybacked")
}

pub(crate) fn dead_mat(mat: &str) -> Diagnostic {
    Diagnostic::new(
        "HD104",
        Severity::Warning,
        format!("`{mat}` only produces metadata that nothing can observe — the MAT is dead"),
    )
    .with_span(Span::mat(mat))
    .with_hint("remove the MAT; it consumes stages and resources without effect")
}

pub(crate) fn unused_field(field: &str) -> Diagnostic {
    Diagnostic::new(
        "HD105",
        Severity::Info,
        format!("metadata `{field}` is written but never consumed anywhere"),
    )
    .with_span(Span::field(field))
    .with_hint("delete the field to shrink the metadata the deployment may have to carry")
}

pub(crate) fn conflicting_writes(first: &str, second: &str, field: &str) -> Diagnostic {
    Diagnostic::new(
        "HD106",
        Severity::Warning,
        format!(
            "`{first}` and `{second}` both write metadata `{field}` with no ordering between \
             them — the final value depends on the chosen topological order"
        ),
    )
    .with_span(Span {
        mat: Some(first.to_owned()),
        mat_to: Some(second.to_owned()),
        field: Some(field.to_owned()),
        program: None,
    })
    .with_hint("an A-type dependency should order the writers; check the edge inference inputs")
}

/// Name-ordered pair, so the pass and its oracle report one canonical
/// orientation per conflicting writer pair.
pub(crate) fn name_ordered<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

// ---------------------------------------------------------------------
// Production implementation: bitsets.
// ---------------------------------------------------------------------

/// Word-bitset over node indexes.
type NodeBits = Vec<u64>;

fn bit_set(bits: &mut NodeBits, i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

fn bit_get(bits: &NodeBits, i: usize) -> bool {
    bits[i / 64] & (1u64 << (i % 64)) != 0
}

fn bits_or(dst: &mut NodeBits, src: &NodeBits) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Runs the dataflow pass on bitsets (the production path).
///
/// Returns one diagnostic per finding, sorted; `HD100` alone when the
/// graph is cyclic.
pub fn dataflow_diagnostics(tdg: &Tdg) -> Vec<Diagnostic> {
    let n = tdg.node_count();
    if n == 0 {
        return Vec::new();
    }
    let Some(order) = tdg.topo_order() else {
        return vec![cyclic_graph()];
    };
    let words = n.div_ceil(64);

    // Strict ancestors per node, in topological order.
    let mut anc: Vec<NodeBits> = vec![vec![0u64; words]; n];
    for &id in order {
        let v = id.index();
        // Split-borrow via std::mem::take: anc[p] is final once p precedes
        // v in topo order.
        let mut mine = std::mem::take(&mut anc[v]);
        for p in tdg.in_edges(id).map(|e| e.from.index()) {
            bits_or(&mut mine, &anc[p]);
            bit_set(&mut mine, p);
        }
        anc[v] = mine;
    }
    let is_anc = |a: usize, b: usize| bit_get(&anc[b], a);

    // Field universe: consumed/written metadata as interned bitsets.
    // `fids[i]` is the id with dense index `i` (ids are handed out in
    // first-encounter order), so we can go from a raw index back to a
    // `FieldId` for table lookups.
    let mut ft = FieldTable::new();
    let mut fids: Vec<hermes_dataplane::FieldId> = Vec::new();
    let mut consumed: Vec<FieldSet> = Vec::with_capacity(n);
    let mut written: Vec<FieldSet> = Vec::with_capacity(n);
    for node in tdg.nodes() {
        let mut intern = |f: &Field, fids: &mut Vec<hermes_dataplane::FieldId>| {
            let id = ft.intern(f);
            if id.index() == fids.len() {
                fids.push(id);
            }
            id
        };
        let mut c = FieldSet::new();
        let consumed_fields = node.mat.match_fields().iter().chain(node.mat.action_read_fields());
        for f in consumed_fields.filter(|f| f.is_metadata()) {
            c.insert(intern(f, &mut fids));
        }
        let mut w = FieldSet::new();
        for f in node.mat.written_metadata() {
            w.insert(intern(f, &mut fids));
        }
        consumed.push(c);
        written.push(w);
    }
    let field_count = ft.len();
    let mut writers: Vec<Vec<usize>> = vec![Vec::new(); field_count];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); field_count];
    for v in 0..n {
        for id in written[v].iter() {
            writers[id.index()].push(v);
        }
        for id in consumed[v].iter() {
            readers[id.index()].push(v);
        }
    }
    let name = |v: usize| tdg.nodes()[v].name.as_str();

    let mut out = Vec::new();

    // Reads: HD101 / HD102.
    for b in 0..n {
        for id in consumed[b].iter() {
            if written[b].contains(id) {
                continue; // self-produced (hash + use) is fine
            }
            let ws = &writers[id.index()];
            if ws.iter().any(|&w| is_anc(w, b)) {
                continue;
            }
            let witness = ws.iter().copied().filter(|&w| w != b && !is_anc(b, w)).map(name).min();
            let field = ft.field(id).name();
            match witness {
                Some(w) => out.push(order_dependent_read(name(b), field, w)),
                None => out.push(uninitialized_read(name(b), field)),
            }
        }
    }

    // Writes: HD103 / HD104 / HD106; fields: HD105.
    let mut field_dead: Vec<Vec<usize>> = vec![Vec::new(); n]; // node -> dead field ids
    for a in 0..n {
        for id in written[a].iter() {
            let alive = consumed[a].contains(id)
                || readers[id.index()].iter().any(|&r| r != a && !is_anc(r, a));
            if !alive {
                field_dead[a].push(id.index());
            }
        }
    }
    for id in tdg.node_ids() {
        let a = id.index();
        let node = tdg.node(id);
        let all_meta = !node.mat.written_fields().is_empty()
            && node.mat.written_fields().iter().all(Field::is_metadata);
        let every_write_dead = field_dead[a].len() == written[a].len();
        let gates_out = tdg.out_edges(id).any(|e| e.dep == DependencyType::Successor);
        if all_meta && every_write_dead && !node.mat.is_stateful() && !gates_out {
            out.push(dead_mat(name(a)));
        } else {
            for &fid in &field_dead[a] {
                out.push(dead_write(name(a), ft.field(fids[fid]).name()));
            }
        }
    }
    for fid in 0..field_count {
        if !writers[fid].is_empty() && readers[fid].is_empty() {
            out.push(unused_field(ft.field(fids[fid]).name()));
        }
    }
    for fid in 0..field_count {
        let ws = &writers[fid];
        for (i, &a) in ws.iter().enumerate() {
            for &b in &ws[i + 1..] {
                if !is_anc(a, b) && !is_anc(b, a) {
                    let (x, y) = name_ordered(name(a), name(b));
                    out.push(conflicting_writes(x, y, ft.field(fids[fid]).name()));
                }
            }
        }
    }

    out.sort();
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::oracles::dataflow_reference;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_tdg::AnalysisMode;

    fn meta(name: &str, size: u32) -> Field {
        Field::metadata(name.to_owned(), size)
    }

    fn writer(name: &str, f: &Field) -> Mat {
        Mat::builder(name.to_owned())
            .action(Action::writing("w", [f.clone()]))
            .resource(0.1)
            .build()
            .unwrap()
    }

    fn reader(name: &str, f: &Field) -> Mat {
        Mat::builder(name.to_owned())
            .match_field(f.clone(), MatchKind::Exact)
            .action(Action::new("n"))
            .resource(0.1)
            .build()
            .unwrap()
    }

    fn tdg_of(p: &Program) -> Tdg {
        Tdg::from_program(p, AnalysisMode::PaperLiteral)
    }

    fn both(tdg: &Tdg) -> Vec<Diagnostic> {
        let fast = dataflow_diagnostics(tdg);
        let oracle = dataflow_reference(tdg);
        assert_eq!(fast, oracle, "bitset pass diverges from the oracle");
        fast
    }

    #[test]
    fn ordered_write_then_read_is_clean() {
        let f = meta("meta.x", 4);
        let p =
            Program::builder("p").table(writer("w", &f)).table(reader("r", &f)).build().unwrap();
        let diags = both(&tdg_of(&p));
        assert!(!diags.iter().any(|d| d.code == "HD101" || d.code == "HD102"), "{diags:?}");
    }

    #[test]
    fn missing_writer_is_uninitialized_read() {
        let f = meta("meta.ghost", 4);
        let p = Program::builder("p").table(reader("r", &f)).build().unwrap();
        let diags = both(&tdg_of(&p));
        assert!(diags.iter().any(|d| d.code == "HD101"), "{diags:?}");
    }

    #[test]
    fn downstream_only_writer_is_still_uninitialized() {
        // r reads meta.x, w writes it *after* (ReverseMatch edge r -> w):
        // in every topological order the read runs first.
        let f = meta("meta.x", 4);
        let p =
            Program::builder("p").table(reader("r", &f)).table(writer("w", &f)).build().unwrap();
        let diags = both(&tdg_of(&p));
        assert!(diags.iter().any(|d| d.code == "HD101"), "{diags:?}");
    }

    #[test]
    fn incomparable_writer_is_order_dependent() {
        // Writer and reader in two separate components of one merged
        // graph: build a TDG by hand with no edges.
        let f = meta("meta.x", 4);
        let tdg = Tdg::from_mats_and_edges(
            vec![("a/w".to_owned(), writer("w", &f)), ("b/r".to_owned(), reader("r", &f))],
            Vec::new(),
            AnalysisMode::PaperLiteral,
        );
        let diags = both(&tdg);
        assert!(diags.iter().any(|d| d.code == "HD102"), "{diags:?}");
    }

    #[test]
    fn dead_write_and_dead_mat_detected() {
        let f = meta("meta.waste", 4);
        let g = meta("meta.used", 2);
        // `wboth` writes a used and a wasted field -> HD103 on the wasted
        // one; `wdead` only writes waste -> HD104 (and no HD103 for it).
        let wboth = Mat::builder("wboth")
            .action(Action::writing("w", [f.clone(), g.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let wdead = Mat::builder("wdead")
            .action(Action::writing("w", [f.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let p =
            Program::builder("p").table(wboth).table(wdead).table(reader("r", &g)).build().unwrap();
        let diags = both(&tdg_of(&p));
        assert!(
            diags.iter().any(|d| d.code == "HD103" && d.span.mat.as_deref() == Some("p/wboth")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "HD104" && d.span.mat.as_deref() == Some("p/wdead")),
            "{diags:?}"
        );
        assert!(
            !diags.iter().any(|d| d.code == "HD103" && d.span.mat.as_deref() == Some("p/wdead")),
            "dead MAT suppresses its per-field dead writes: {diags:?}"
        );
        // meta.waste is written but never consumed anywhere -> HD105.
        assert!(
            diags
                .iter()
                .any(|d| d.code == "HD105" && d.span.field.as_deref() == Some("meta.waste")),
            "{diags:?}"
        );
    }

    #[test]
    fn conflicting_incomparable_writers_detected() {
        let f = meta("meta.x", 4);
        let r = reader("r", &f);
        let tdg = Tdg::from_mats_and_edges(
            vec![
                ("a/w1".to_owned(), writer("w1", &f)),
                ("b/w2".to_owned(), writer("w2", &f)),
                ("c/r".to_owned(), r),
            ],
            Vec::new(),
            AnalysisMode::PaperLiteral,
        );
        let diags = both(&tdg);
        assert!(diags.iter().any(|d| d.code == "HD106"), "{diags:?}");
    }

    #[test]
    fn stateful_mat_is_never_dead() {
        // A register write has externally visible state even if its
        // metadata output is unread.
        let idx = meta("meta.idx", 4);
        let t = Mat::builder("reg")
            .action(
                Action::new("a")
                    .with_op(hermes_dataplane::action::PrimitiveOp::Hash {
                        dst: idx.clone(),
                        srcs: vec![],
                    })
                    .with_op(hermes_dataplane::action::PrimitiveOp::RegisterOp {
                        index: idx,
                        out: None,
                    }),
            )
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        let diags = both(&tdg_of(&p));
        assert!(!diags.iter().any(|d| d.code == "HD104"), "{diags:?}");
    }

    #[test]
    fn empty_tdg_is_clean() {
        let tdg = Tdg::new(AnalysisMode::PaperLiteral);
        assert!(both(&tdg).is_empty());
    }

    #[test]
    fn library_merge_has_no_uninitialized_reads() {
        // The bench workloads: prefixes of the ten-program library, all ten
        // (the one that must be free of HD101), then four synthetic
        // programs on top, and every library program on its own.
        let mut programs = hermes_dataplane::library::real_programs();
        programs.extend(
            hermes_dataplane::synthetic::SyntheticGenerator::new(42, Default::default())
                .programs(4),
        );
        for total in [1, 5, 10, 14] {
            let tdgs: Vec<Tdg> = programs[..total].iter().map(tdg_of).collect();
            let diags = both(&hermes_tdg::merge_all(tdgs));
            assert!(total != 10 || !diags.iter().any(|d| d.code == "HD101"), "{diags:?}");
        }
        for p in &programs[..10] {
            both(&tdg_of(p));
        }
    }
}
