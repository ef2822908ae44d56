//! Pass 2 — dependency-graph soundness and minimality.
//!
//! The solver trusts the TDG blindly: a missing edge lets it split a
//! dependent pair with no metadata accounting, a spurious or over-typed
//! edge inflates `A(a,b)` and drags the whole Pareto front upward. This
//! pass re-derives the ground truth from the MAT field sets with the
//! *reference* `classify`/`metadata_amount` functions — deliberately not
//! the bitset-profile twins `from_program` runs on — and cross-checks the
//! recorded graph against it.
//!
//! Two entry points:
//!
//! * [`check_program`] — exhaustive: rebuilds the full `i < j` pair set of
//!   one program (including its declared gates) and compares both
//!   directions against the program's own edges, so a bug in either the
//!   profile path or the reference shows up as a divergence. The audit
//!   runs it on the edges `merge_programs` typed for each program on the
//!   way into the merged graph, not on a graph built for the purpose, so
//!   what it checks is what the solver gets. Only well-defined per
//!   program, because merged graphs intentionally drop folded /
//!   cycle-closing edges. Node names (`program/table`) are formatted only
//!   for a finding.
//! * [`check_tdg`] — validates whatever graph it is given (typically the
//!   merged workload TDG) edge-by-edge: every recorded edge must re-derive
//!   (spurious / mistyped / misweighted edges are reported), plus
//!   transitive-redundancy and cycle reporting. Successor edges are exempt
//!   from type re-derivation — gates are declared, not derivable from
//!   field sets — but their `A(a,b)` is still checked.
//!
//! HG205's witness for an edge u → v is the successor of u with the
//! smallest name that reaches v. Nodes are ranked by name once and each
//! node's successors sorted by rank once — an O(E log E) sort in all —
//! so the search per edge is a run of O(1) reachability probes in name
//! order that stops at the first hit; only an edge with no witness probes
//! every successor.

use crate::diag::{Diagnostic, Severity, Span};
use hermes_dataplane::program::Program;
use hermes_tdg::{classify, metadata_amount, AnalysisMode, DependencyType, Tdg, TdgEdge};

/// Paper precedence 𝕄 > 𝔸 > 𝕊 > ℝ as a comparable strength. Note the
/// derived `Ord` on [`DependencyType`] is declaration order, *not* this.
fn strength(dep: DependencyType) -> u8 {
    match dep {
        DependencyType::Match => 3,
        DependencyType::Action => 2,
        DependencyType::Successor => 1,
        DependencyType::ReverseMatch => 0,
        // Relaxed edges rank by the base type they were derived from.
        DependencyType::RelaxedMatch
        | DependencyType::RelaxedAction
        | DependencyType::RelaxedReverse => strength(dep.base()),
    }
}

// ---------------------------------------------------------------------
// Diagnostic constructors.
// ---------------------------------------------------------------------

fn missing_edge(from: &str, to: &str, dep: DependencyType) -> Diagnostic {
    Diagnostic::new(
        "HG201",
        Severity::Error,
        format!("derivable {dep} dependency `{from}` -> `{to}` is not in the recorded graph"),
    )
    .with_span(Span::edge(from, to))
    .with_hint("the solver may split this pair with no metadata accounting; rebuild the TDG")
}

fn spurious_edge(from: &str, to: &str, dep: DependencyType) -> Diagnostic {
    Diagnostic::new(
        "HG202",
        Severity::Error,
        format!("recorded {dep} edge `{from}` -> `{to}` has no derivable dependency"),
    )
    .with_span(Span::edge(from, to))
    .with_hint("a phantom edge inflates A_max and over-constrains stage ordering")
}

fn type_mismatch(
    from: &str,
    to: &str,
    recorded: DependencyType,
    derived: DependencyType,
) -> Diagnostic {
    Diagnostic::new(
        "HG203",
        Severity::Error,
        format!(
            "edge `{from}` -> `{to}` records type {recorded} but the field sets derive {derived}"
        ),
    )
    .with_span(Span::edge(from, to))
    .with_hint("the recorded type is not derivable; A(a,b) is computed from the wrong formula")
}

fn bytes_mismatch(from: &str, to: &str, recorded: u32, expected: u32) -> Diagnostic {
    Diagnostic::new(
        "HG204",
        Severity::Error,
        format!(
            "edge `{from}` -> `{to}` records A(a,b) = {recorded} B but Algorithm 1 gives \
             {expected} B"
        ),
    )
    .with_span(Span::edge(from, to))
    .with_hint("stale edge weights corrupt the objective; re-run reanalyze() after edits")
}

pub(crate) fn transitive_redundant(from: &str, to: &str, via: &str) -> Diagnostic {
    Diagnostic::new(
        "HG205",
        Severity::Info,
        format!("edge `{from}` -> `{to}` is transitively implied via `{via}`"),
    )
    .with_span(Span::edge(from, to))
    .with_hint("ordering is already forced; only its A(a,b) contribution is load-bearing")
}

fn type_downgrade(
    from: &str,
    to: &str,
    recorded: DependencyType,
    derived: DependencyType,
) -> Diagnostic {
    Diagnostic::new(
        "HG206",
        Severity::Warning,
        format!(
            "edge `{from}` -> `{to}` records {recorded} but the stronger {derived} is derivable"
        ),
    )
    .with_span(Span::edge(from, to))
    .with_hint("a weaker type undercounts A(a,b); the deployment may carry more bytes than planned")
}

fn cyclic_graph() -> Diagnostic {
    Diagnostic::new(
        "HG207",
        Severity::Error,
        "the dependency graph is cyclic; reachability checks skipped",
    )
    .with_hint("a TDG must be a DAG — check externally constructed edges")
}

// ---------------------------------------------------------------------
// check_program: exhaustive pairwise re-derivation.
// ---------------------------------------------------------------------

/// Re-derives every `i < j` pair of `program` with the reference
/// `classify`/`metadata_amount` and cross-checks `Tdg::from_program`'s
/// output (which runs on bitset profiles) in both directions.
///
/// A clean program yields no diagnostics; any divergence between the two
/// derivation paths — or a stale recorded edge — is an error.
pub fn check_program(program: &Program, mode: AnalysisMode) -> Vec<Diagnostic> {
    check_part(program, mode, Tdg::from_program(program, mode).edges())
}

/// [`check_program`] over `edges`, the edges recorded for `program`'s own
/// tables in `mode` (ids index [`Program::tables`]; edges with
/// `from >= to` are not judged) — for the audit, which checks the ones
/// the merge typed. `edges` must be sorted by `(from, to)`, one per pair,
/// as both the merge and [`Tdg::from_program`] hand them over. Nodes are
/// named `program/table` only in a finding.
pub(crate) fn check_part(
    program: &Program,
    mode: AnalysisMode,
    edges: &[TdgEdge],
) -> Vec<Diagnostic> {
    let tables = program.tables();
    let key = |e: &TdgEdge| (e.from.index(), e.to.index());
    debug_assert!(
        edges.windows(2).all(|w| key(&w[0]) < key(&w[1])),
        "edges must be sorted by (from, to), one per pair"
    );
    // A cursor into `edges`, moved along with the `(i, j)` loop below.
    let mut next = 0;

    let mut out = Vec::new();
    let mut report = |i: usize, j: usize, diagnostic: &dyn Fn(&str, &str) -> Diagnostic| {
        let from = format!("{}/{}", program.name(), tables[i].name());
        let to = format!("{}/{}", program.name(), tables[j].name());
        let span = Span::edge(&from, &to).in_program(program.name());
        out.push(diagnostic(&from, &to).with_span(span));
    };
    for i in 0..tables.len() {
        for j in (i + 1)..tables.len() {
            let gated = program.gates().contains(&(i, j));
            let derived = classify(&tables[i], &tables[j], gated);
            while edges.get(next).is_some_and(|e| key(e) < (i, j)) {
                next += 1;
            }
            let recorded = edges.get(next).filter(|e| key(e) == (i, j)).map(|e| (e.dep, e.bytes));
            match (derived, recorded) {
                (None, None) => {}
                (Some(dep), None) => report(i, j, &|a, b| missing_edge(a, b, dep)),
                (None, Some((dep, _))) => report(i, j, &|a, b| spurious_edge(a, b, dep)),
                (Some(dep), Some((rec_dep, rec_bytes))) => {
                    // Relaxed edges must re-derive as their base type; the
                    // relaxation itself is certified by the plan verifier,
                    // not re-proved here.
                    if dep != rec_dep.base() {
                        report(i, j, &|a, b| type_mismatch(a, b, rec_dep, dep));
                    }
                    let expected = metadata_amount(&tables[i], &tables[j], rec_dep, mode);
                    if expected != rec_bytes {
                        report(i, j, &|a, b| bytes_mismatch(a, b, rec_bytes, expected));
                    }
                }
            }
        }
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------
// check_tdg: recorded-edge validation on arbitrary (e.g. merged) graphs.
// ---------------------------------------------------------------------

/// Validates every recorded edge of `tdg` against the reference analysis,
/// and reports transitive redundancy and cycles.
///
/// Unlike [`check_program`] this cannot prove edges *missing* — merged
/// graphs drop folded and cycle-closing edges by design — so it only
/// judges what is recorded.
pub fn check_tdg(tdg: &Tdg) -> Vec<Diagnostic> {
    let n = tdg.node_count();
    let mode = tdg.mode();
    let name = |i: usize| tdg.nodes()[i].name.as_str();
    let mut out = Vec::new();

    for e in tdg.edges() {
        let (u, v) = (e.from.index(), e.to.index());
        let (a, b) = (&tdg.nodes()[u].mat, &tdg.nodes()[v].mat);
        if e.dep != DependencyType::Successor {
            // A relaxed edge re-derives as its base type; whether the
            // relaxation is justified is the verifier's job (HV414).
            match classify(a, b, false) {
                None => out.push(spurious_edge(name(u), name(v), e.dep)),
                Some(derived) if derived != e.dep.base() => {
                    if strength(e.dep) < strength(derived) {
                        out.push(type_downgrade(name(u), name(v), e.dep, derived));
                    } else {
                        out.push(type_mismatch(name(u), name(v), e.dep, derived));
                    }
                }
                Some(_) => {}
            }
        }
        let expected = metadata_amount(a, b, e.dep, mode);
        if expected != e.bytes {
            out.push(bytes_mismatch(name(u), name(v), e.bytes, expected));
        }
    }

    let Some(order) = tdg.topo_order() else {
        out.push(cyclic_graph());
        out.sort();
        return out;
    };

    // Strict-descendant bitsets, reverse topological order, as one flat
    // array of `words`-long rows (one allocation, not one per node); each
    // row is OR-ed together in `mine` from its successors' rows.
    let words = n.div_ceil(64);
    let mut desc = vec![0u64; n * words];
    let mut mine = vec![0u64; words];
    for &id in order.iter().rev() {
        mine.fill(0);
        for s in tdg.out_edges(id).map(|e| e.to.index()) {
            for (d, &w) in mine.iter_mut().zip(&desc[s * words..(s + 1) * words]) {
                *d |= w;
            }
            mine[s / 64] |= 1u64 << (s % 64);
        }
        let u = id.index();
        desc[u * words..(u + 1) * words].copy_from_slice(&mine);
    }
    let reaches = |a: usize, b: usize| desc[a * words + b / 64] & (1u64 << (b % 64)) != 0;

    // HG205 names, for an edge u -> v, the successor of u with the
    // smallest name that also reaches v. Rank the nodes by name once (ties
    // by index) and sort each node's successors by rank in one reused
    // buffer: the first that reaches v is that successor.
    let mut by_name: Vec<usize> = (0..n).collect();
    by_name.sort_by(|&a, &b| name(a).cmp(name(b)));
    let mut rank = vec![0usize; n];
    for (r, &i) in by_name.iter().enumerate() {
        rank[i] = r;
    }
    let mut succ: Vec<usize> = Vec::with_capacity(n);
    for id in tdg.node_ids() {
        succ.clear();
        succ.extend(tdg.out_edges(id).map(|e| rank[e.to.index()]));
        succ.sort_unstable();
        for v in tdg.out_edges(id).map(|e| e.to.index()) {
            let via = succ.iter().map(|&r| by_name[r]).find(|&w| w != v && reaches(w, v));
            if let Some(w) = via {
                out.push(transitive_redundant(name(id.index()), name(v), name(w)));
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
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};

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

    #[test]
    fn library_programs_cross_check_clean() {
        for p in library::real_programs() {
            for mode in [AnalysisMode::PaperLiteral, AnalysisMode::Intersection] {
                let diags = check_program(&p, mode);
                assert!(diags.is_empty(), "{}: {diags:?}", p.name());
            }
        }
    }

    /// The audit cross-checks the edges the merge typed for each program;
    /// a wrong list must still be caught, one code per kind of wrong.
    #[test]
    fn cross_check_of_the_merge_typed_edges_catches_each_kind_of_wrong_edge() {
        let (a, b, c) = (meta("meta.a", 4), meta("meta.b", 4), meta("meta.c", 2));
        let relay = Mat::builder("relay")
            .match_field(a.clone(), MatchKind::Exact)
            .action(Action::writing("w", [b.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p")
            .table(writer("src", &a))
            .table(relay)
            .table(reader("sink", &b))
            .table(writer("side", &c))
            .table(reader("side_sink", &c))
            .build()
            .unwrap();
        // `p` comes second, so its edges are typed inside the accumulator.
        let q = Program::builder("q").table(writer("other", &meta("meta.d", 4))).build().unwrap();
        let mode = AnalysisMode::PaperLiteral;
        let mut typed = Vec::new();
        hermes_tdg::merge_programs(&[q, p.clone()], mode, |prog, edges| {
            if prog.name() == "p" {
                typed = edges.to_vec();
            }
        });
        let pairs: Vec<(usize, usize)> =
            typed.iter().map(|e| (e.from.index(), e.to.index())).collect();
        assert_eq!(pairs, [(0, 1), (1, 2), (3, 4)]);
        assert!(check_part(&p, mode, &typed).is_empty());

        let mut wrong = typed.clone();
        wrong[1].dep = DependencyType::Action; // relay -> sink retyped
        wrong[2].bytes += 1; // side -> side_sink misweighted
        wrong.remove(0); // src -> relay dropped
        wrong.insert(0, TdgEdge { to: typed[2].from, ..typed[0] }); // src -> side added
        let diags = check_part(&p, mode, &wrong);
        let found = |code: &str, from: &str, to: &str| {
            diags.iter().any(|d| {
                d.code == code
                    && d.span.mat.as_deref() == Some(from)
                    && d.span.mat_to.as_deref() == Some(to)
                    && d.span.program.as_deref() == Some("p")
            })
        };
        assert!(found("HG201", "p/src", "p/relay"), "{diags:?}");
        assert!(found("HG202", "p/src", "p/side"), "{diags:?}");
        assert!(found("HG203", "p/relay", "p/sink"), "{diags:?}");
        assert!(found("HG204", "p/side", "p/side_sink"), "{diags:?}");
        assert_eq!(diags.len(), 4, "{diags:?}");
    }

    #[test]
    fn library_merged_graph_validates() {
        let tdgs: Vec<Tdg> = library::real_programs()
            .iter()
            .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
            .collect();
        let merged = hermes_tdg::merge_all(tdgs);
        let diags = check_tdg(&merged);
        // Transitive-redundancy infos are expected (from_program records
        // every dependent pair); errors are not.
        assert!(diags.iter().all(|d| d.code == "HG205"), "unexpected non-HG205: {diags:?}");
    }

    #[test]
    fn spurious_edge_detected() {
        let f = meta("meta.x", 4);
        let g = meta("meta.y", 4);
        // w writes x, r reads y: no dependency, but record a Match edge.
        let tdg = Tdg::from_mats_and_edges(
            vec![("p/w".to_owned(), writer("w", &f)), ("p/r".to_owned(), reader("r", &g))],
            vec![(0, 1, DependencyType::Match)],
            AnalysisMode::PaperLiteral,
        );
        let diags = check_tdg(&tdg);
        assert!(diags.iter().any(|d| d.code == "HG202"), "{diags:?}");
    }

    #[test]
    fn type_downgrade_and_mismatch_detected() {
        let f = meta("meta.x", 4);
        // w -> r derives Match; record the weaker ReverseMatch -> HG206.
        let down = Tdg::from_mats_and_edges(
            vec![("p/w".to_owned(), writer("w", &f)), ("p/r".to_owned(), reader("r", &f))],
            vec![(0, 1, DependencyType::ReverseMatch)],
            AnalysisMode::PaperLiteral,
        );
        assert!(check_tdg(&down).iter().any(|d| d.code == "HG206"));
        // w1 -> w2 derives Action; record the stronger Match -> HG203.
        let up = Tdg::from_mats_and_edges(
            vec![("p/w1".to_owned(), writer("w1", &f)), ("p/w2".to_owned(), writer("w2", &f))],
            vec![(0, 1, DependencyType::Match)],
            AnalysisMode::PaperLiteral,
        );
        assert!(check_tdg(&up).iter().any(|d| d.code == "HG203"));
    }

    #[test]
    fn stale_bytes_detected() {
        let f = meta("meta.x", 4);
        let tdg = Tdg::from_mats_and_edges(
            vec![("p/w".to_owned(), writer("w", &f)), ("p/r".to_owned(), reader("r", &f))],
            vec![(0, 1, DependencyType::Match)],
            AnalysisMode::PaperLiteral,
        );
        // Force every edge weight to zero: the 4-byte Match edge goes stale.
        let stale = tdg.with_uniform_edge_bytes(0);
        assert!(check_tdg(&stale).iter().any(|d| d.code == "HG204"));
    }

    #[test]
    fn cycle_detected() {
        let f = meta("meta.x", 4);
        let g = meta("meta.y", 4);
        let a = Mat::builder("a")
            .match_field(g.clone(), MatchKind::Exact)
            .action(Action::writing("w", [f.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let b = Mat::builder("b")
            .match_field(f.clone(), MatchKind::Exact)
            .action(Action::writing("w", [g.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let tdg = Tdg::from_mats_and_edges(
            vec![("p/a".to_owned(), a), ("p/b".to_owned(), b)],
            vec![(0, 1, DependencyType::Match), (1, 0, DependencyType::Match)],
            AnalysisMode::PaperLiteral,
        );
        assert!(check_tdg(&tdg).iter().any(|d| d.code == "HG207"));
    }

    #[test]
    fn transitive_redundant_edge_reported() {
        let f1 = meta("meta.a", 4);
        let f2 = meta("meta.b", 4);
        let t1 = writer("t1", &f1);
        let t2 = Mat::builder("t2")
            .match_field(f1.clone(), MatchKind::Exact)
            .action(Action::writing("w", [f2.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let t3 = Mat::builder("t3")
            .match_field(f1.clone(), MatchKind::Exact)
            .match_field(f2.clone(), MatchKind::Exact)
            .action(Action::new("n"))
            .resource(0.1)
            .build()
            .unwrap();
        let p =
            hermes_dataplane::Program::builder("p").table(t1).table(t2).table(t3).build().unwrap();
        let tdg = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        let diags = check_tdg(&tdg);
        // t1 -> t3 is implied via t2.
        assert!(
            diags.iter().any(|d| d.code == "HG205"
                && d.span.mat.as_deref() == Some("p/t1")
                && d.span.mat_to.as_deref() == Some("p/t3")),
            "{diags:?}"
        );
        // ...and the exhaustive per-program cross-check stays clean.
        assert!(check_program(&p, AnalysisMode::PaperLiteral).is_empty());
    }
}
