//! Static well-formedness checks for data plane programs.
//!
//! The deployment pipeline happily places whatever it is given; these
//! lints catch the program bugs that would otherwise surface as silent
//! packet-processing errors after deployment — above all metadata that is
//! matched before anything ever writes it (it reads as zero on hardware),
//! and metadata that is produced but never consumed (pure pipeline
//! waste, and a piggyback candidate that inflates `A(a,b)` for nothing).

use crate::fields::{BuildFieldHasher, Field};
use crate::program::Program;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lint {
    /// A table matches or reads a metadata field no earlier table writes.
    MetadataReadBeforeWrite {
        /// The consuming table.
        table: String,
        /// The field that reads as zero.
        field: String,
    },
    /// A metadata field is written but no later table consumes it.
    MetadataNeverConsumed {
        /// The producing table.
        table: String,
        /// The wasted field.
        field: String,
    },
    /// A table has no actions: packets hit it and nothing happens.
    TableWithoutActions {
        /// The inert table.
        table: String,
    },
    /// A declared gate duplicates an existing data dependency.
    RedundantGate {
        /// Gating table.
        from: String,
        /// Gated table.
        to: String,
    },
    /// A table's installed rules use less than 1 % of its capacity,
    /// suggesting a mis-sized `C_a` (resources are billed by capacity).
    OversizedCapacity {
        /// The table in question.
        table: String,
        /// Declared capacity.
        capacity: usize,
        /// Installed rules.
        rules: usize,
    },
    /// Two *different* tables carry the same name — within one program, or
    /// across programs with different structure. (Structurally identical
    /// same-named tables across programs are the intended merge-redundancy
    /// case and are not reported.)
    DuplicateTableName {
        /// The clashing table name.
        table: String,
        /// Program declaring the first occurrence.
        first_program: String,
        /// Program declaring the clashing occurrence.
        second_program: String,
    },
    /// Tables in two different programs write the same metadata field:
    /// the downstream program silently clobbers the upstream value.
    /// (Again, structurally identical tables — shared, to-be-merged MATs —
    /// are exempt.)
    CrossProgramSharedWrite {
        /// The doubly-written field.
        field: String,
        /// Program-qualified upstream writer.
        first_table: String,
        /// Program-qualified downstream writer.
        second_table: String,
    },
    /// Two different MATs of one program write the same field with
    /// non-commutative operations: the state-access pass will classify the
    /// field `SingleWriter`, so every placement of the pair is serialized.
    /// Rewriting the updates as a common commutative fold (add/max/min/or)
    /// would make the field `CommutativeUpdate` and relaxable.
    NonCommutativeMultiWriter {
        /// The multiply-written field.
        field: String,
        /// First writing table.
        first_table: String,
        /// Second writing table.
        second_table: String,
    },
}

impl Lint {
    /// Stable diagnostic code (`HL0xx` block), fixed for the lifetime of
    /// the tool so external tooling can filter on it.
    pub fn code(&self) -> &'static str {
        match self {
            Lint::MetadataReadBeforeWrite { .. } => "HL001",
            Lint::MetadataNeverConsumed { .. } => "HL002",
            Lint::TableWithoutActions { .. } => "HL003",
            Lint::RedundantGate { .. } => "HL004",
            Lint::OversizedCapacity { .. } => "HL005",
            Lint::DuplicateTableName { .. } => "HL006",
            Lint::CrossProgramSharedWrite { .. } => "HL007",
            Lint::NonCommutativeMultiWriter { .. } => "HL008",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::MetadataReadBeforeWrite { table, field } => {
                write!(f, "`{table}` consumes metadata `{field}` before any table writes it")
            }
            Lint::MetadataNeverConsumed { table, field } => {
                write!(f, "`{table}` writes metadata `{field}` that nothing consumes")
            }
            Lint::TableWithoutActions { table } => write!(f, "`{table}` has no actions"),
            Lint::RedundantGate { from, to } => {
                write!(f, "gate `{from}` -> `{to}` duplicates a data dependency")
            }
            Lint::OversizedCapacity { table, capacity, rules } => {
                write!(f, "`{table}` declares capacity {capacity} but installs {rules} rules")
            }
            Lint::DuplicateTableName { table, first_program, second_program } => write!(
                f,
                "table name `{table}` is declared by `{first_program}` and, with different \
                 structure, by `{second_program}`"
            ),
            Lint::CrossProgramSharedWrite { field, first_table, second_table } => write!(
                f,
                "`{first_table}` and `{second_table}` both write metadata `{field}` across \
                 programs; the later write clobbers the earlier one"
            ),
            Lint::NonCommutativeMultiWriter { field, first_table, second_table } => write!(
                f,
                "`{first_table}` and `{second_table}` both write `{field}` with \
                 non-commutative operations; the field stays single-writer and the pair \
                 is serialized everywhere"
            ),
        }
    }
}

/// Lints one program in isolation. Cross-program communication through
/// shared fields is legitimate (see the TDG merge), so call
/// [`lint_composition`] for whole-deployment checks instead when multiple
/// programs cooperate.
pub fn lint(program: &Program) -> Vec<Lint> {
    lint_composition(std::slice::from_ref(program))
}

/// Lints a set of programs as the sequential composition the TDG merge
/// produces: earlier programs' writes satisfy later programs' reads.
pub fn lint_composition(programs: &[Program]) -> Vec<Lint> {
    let mut findings = Vec::new();

    // Global pass over (program order, table order).
    let tables: Vec<(&Program, &crate::mat::Mat)> =
        programs.iter().flat_map(|p| p.tables().iter().map(move |t| (p, t))).collect();

    // Read-before-write over metadata. `written` and `all_consumed` are
    // only asked for membership, never iterated, so hashing them leaves
    // the findings' order as it is; a field hashes as its precomputed
    // word, passed through as it is.
    let mut written: HashSet<&Field, BuildFieldHasher> = HashSet::default();
    for (_, t) in &tables {
        for f in t.consumed_fields().filter(|f| f.is_metadata()) {
            // Self-produced metadata within the same table (hash + use) is
            // fine; check writes of *this* table too.
            if !written.contains(f) && !t.written_fields().contains(f) {
                findings.push(Lint::MetadataReadBeforeWrite {
                    table: t.name().to_owned(),
                    field: f.name().to_owned(),
                });
            }
        }
        written.extend(t.written_fields());
    }

    // Never-consumed metadata: collect all consumption, then check writes.
    let mut all_consumed: HashSet<&Field, BuildFieldHasher> = HashSet::default();
    for (_, t) in &tables {
        all_consumed.extend(t.match_fields());
        all_consumed.extend(t.action_read_fields());
    }
    for (_, t) in &tables {
        for f in t.written_metadata() {
            if !all_consumed.contains(f) {
                findings.push(Lint::MetadataNeverConsumed {
                    table: t.name().to_owned(),
                    field: f.name().to_owned(),
                });
            }
        }
    }

    // Per-table checks.
    for (_, t) in &tables {
        if t.actions().is_empty() {
            findings.push(Lint::TableWithoutActions { table: t.name().to_owned() });
        }
        if t.capacity() >= 1_000 && !t.rules().is_empty() && t.rules().len() * 100 < t.capacity() {
            findings.push(Lint::OversizedCapacity {
                table: t.name().to_owned(),
                capacity: t.capacity(),
                rules: t.rules().len(),
            });
        }
    }

    // Duplicate table names. Within a program every repeat clashes;
    // across programs only structurally *different* tables do — identical
    // signatures are the shared-MAT redundancy the TDG merge eliminates.
    // Names come from the program text: they hash with std's seeded
    // hasher, which text cannot make collide on purpose. A field hashes as
    // its precomputed word.
    let names = tables.iter().map(|&(p, t)| (t.name(), (p, t)));
    for occurrences in shared::<_, _, RandomState>(names).chunk_by(same_key) {
        for (i, &(_, (p2, t2))) in occurrences.iter().enumerate().skip(1) {
            let clashing = occurrences[..i]
                .iter()
                .find(|(_, (p1, t1))| std::ptr::eq(*p1, p2) || t1.signature() != t2.signature());
            if let Some(&(name, (p1, _))) = clashing {
                findings.push(Lint::DuplicateTableName {
                    table: name.to_owned(),
                    first_program: p1.name().to_owned(),
                    second_program: p2.name().to_owned(),
                });
            }
        }
    }

    // Cross-program writes to one metadata field: the later program
    // silently clobbers the earlier one's value. Identical-signature
    // writers (shared MATs) are exempt for the same reason as above.
    let writes = tables.iter().flat_map(|&(p, t)| t.written_metadata().map(move |f| (f, (p, t))));
    for ws in shared::<_, _, BuildFieldHasher>(writes).chunk_by(same_key) {
        // One finding per field: the first cross-program pair of
        // structurally different writers (writer lists are short, so the
        // quadratic scan is immaterial).
        let mut pairs =
            ws.iter().enumerate().flat_map(|(i, w2)| ws[..i].iter().map(move |w1| (w1, w2)));
        let clash = pairs.find(|((_, (p1, t1)), (_, (p2, t2)))| {
            !std::ptr::eq(*p1, *p2) && t1.signature() != t2.signature()
        });
        if let Some((&(field, (p1, t1)), &(_, (p2, t2)))) = clash {
            findings.push(Lint::CrossProgramSharedWrite {
                field: field.name().to_owned(),
                first_table: format!("{}/{}", p1.name(), t1.name()),
                second_table: format!("{}/{}", p2.name(), t2.name()),
            });
        }
    }

    // Non-commutative multi-writer fields within one program (HL008):
    // the state-access classification pass will pin such a field
    // `SingleWriter`, serializing every placement of the writing pair. If
    // every write were a fold of one common kind the field would instead
    // be `CommutativeUpdate` and the dependency relaxable.
    for p in programs {
        let writes = p.tables().iter().flat_map(|t| t.written_fields().iter().map(move |f| (f, t)));
        for ws in shared::<_, _, BuildFieldHasher>(writes).chunk_by(same_key) {
            let field = ws[0].0;
            let write_ops = ws.iter().flat_map(|(_, t)| {
                t.actions().iter().flat_map(|a| a.ops()).filter(|op| op.writes().contains(&field))
            });
            let mut kinds: BTreeSet<Option<crate::action::FoldOp>> =
                write_ops.map(crate::action::PrimitiveOp::fold_op).collect();
            let all_one_fold_kind =
                kinds.len() == 1 && kinds.pop_first().is_some_and(|k| k.is_some());
            if !all_one_fold_kind {
                findings.push(Lint::NonCommutativeMultiWriter {
                    field: field.name().to_owned(),
                    first_table: ws[0].1.name().to_owned(),
                    second_table: ws[1].1.name().to_owned(),
                });
            }
        }
    }

    // Redundant gates (per program).
    for p in programs {
        for &(from, to) in p.gates() {
            let a = &p.tables()[from];
            let b = &p.tables()[to];
            if a.written_fields().iter().any(|f| b.consumes(f)) {
                findings.push(Lint::RedundantGate {
                    from: a.name().to_owned(),
                    to: b.name().to_owned(),
                });
            }
        }
    }

    findings
}

/// The `items` whose key another item shares, sorted by key and, within
/// a key, in item order: what iterating a `BTreeMap` of every key's items
/// and skipping the keys with one gives, a key's run being one
/// [`slice::chunk_by`] chunk ([`same_key`]). Keys are counted in a hash
/// map built by `S`, so only the items returned are ever compared by key.
fn shared<K, V, S>(items: impl Iterator<Item = (K, V)>) -> Vec<(K, V)>
where
    K: Copy + Hash + Ord,
    S: BuildHasher + Default,
{
    let items: Vec<(K, V)> = items.collect();
    let mut counts: HashMap<K, u32, S> =
        HashMap::with_capacity_and_hasher(items.len(), S::default());
    for &(key, _) in &items {
        *counts.entry(key).or_default() += 1;
    }
    let mut shared: Vec<(K, V)> = items.into_iter().filter(|(key, _)| counts[key] > 1).collect();
    shared.sort_by_key(|item| item.0);
    shared
}

/// Whether two items of [`shared`]'s output belong to one key's run.
fn same_key<K: PartialEq, V>(a: &(K, V), b: &(K, V)) -> bool {
    a.0 == b.0
}

/// [`lint_composition`] as it grouped tables and fields before the
/// groups were hashed: every group in a name- or field-ordered
/// `BTreeMap`. The definition the hashed grouping is tested against.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    pub fn lint_composition(programs: &[Program]) -> Vec<Lint> {
        let mut findings = Vec::new();

        // Global pass over (program order, table order).
        let tables: Vec<(&Program, &crate::mat::Mat)> =
            programs.iter().flat_map(|p| p.tables().iter().map(move |t| (p, t))).collect();

        // Read-before-write over metadata. `written` and `all_consumed` are
        // only asked for membership, never iterated, so hashing them leaves
        // the findings' order as it is; a field hashes as its precomputed
        // word, passed through as it is.
        let mut written: HashSet<&Field, BuildFieldHasher> = HashSet::default();
        for (_, t) in &tables {
            for f in t.consumed_fields().filter(|f| f.is_metadata()) {
                // Self-produced metadata within the same table (hash + use) is
                // fine; check writes of *this* table too.
                if !written.contains(f) && !t.written_fields().contains(f) {
                    findings.push(Lint::MetadataReadBeforeWrite {
                        table: t.name().to_owned(),
                        field: f.name().to_owned(),
                    });
                }
            }
            written.extend(t.written_fields());
        }

        // Never-consumed metadata: collect all consumption, then check writes.
        let mut all_consumed: HashSet<&Field, BuildFieldHasher> = HashSet::default();
        for (_, t) in &tables {
            all_consumed.extend(t.match_fields());
            all_consumed.extend(t.action_read_fields());
        }
        for (_, t) in &tables {
            for f in t.written_metadata() {
                if !all_consumed.contains(f) {
                    findings.push(Lint::MetadataNeverConsumed {
                        table: t.name().to_owned(),
                        field: f.name().to_owned(),
                    });
                }
            }
        }

        // Per-table checks.
        for (_, t) in &tables {
            if t.actions().is_empty() {
                findings.push(Lint::TableWithoutActions { table: t.name().to_owned() });
            }
            if t.capacity() >= 1_000
                && !t.rules().is_empty()
                && t.rules().len() * 100 < t.capacity()
            {
                findings.push(Lint::OversizedCapacity {
                    table: t.name().to_owned(),
                    capacity: t.capacity(),
                    rules: t.rules().len(),
                });
            }
        }

        // Duplicate table names. Within a program every repeat clashes;
        // across programs only structurally *different* tables do — identical
        // signatures are the shared-MAT redundancy the TDG merge eliminates.
        {
            let mut by_name: BTreeMap<&str, Vec<(&Program, &crate::mat::Mat)>> = BTreeMap::new();
            for &(p, t) in &tables {
                by_name.entry(t.name()).or_default().push((p, t));
            }
            for (name, occurrences) in by_name {
                for (i, &(p2, t2)) in occurrences.iter().enumerate().skip(1) {
                    let clashing = occurrences[..i]
                        .iter()
                        .find(|(p1, t1)| std::ptr::eq(*p1, p2) || t1.signature() != t2.signature());
                    if let Some(&(p1, _)) = clashing {
                        findings.push(Lint::DuplicateTableName {
                            table: name.to_owned(),
                            first_program: p1.name().to_owned(),
                            second_program: p2.name().to_owned(),
                        });
                    }
                }
            }
        }

        // Cross-program writes to one metadata field: the later program
        // silently clobbers the earlier one's value. Identical-signature
        // writers (shared MATs) are exempt for the same reason as above.
        {
            let mut writers: BTreeMap<&Field, Vec<(&Program, &crate::mat::Mat)>> = BTreeMap::new();
            for &(p, t) in &tables {
                for f in t.written_metadata() {
                    writers.entry(f).or_default().push((p, t));
                }
            }
            for (field, ws) in writers {
                // One finding per field: the first cross-program pair of
                // structurally different writers (writer lists are short, so
                // the quadratic scan is immaterial).
                let clash = ws
                    .iter()
                    .enumerate()
                    .flat_map(|(i, w2)| ws[..i].iter().map(move |w1| (w1, w2)))
                    .find(|((p1, t1), (p2, t2))| {
                        !std::ptr::eq(*p1, *p2) && t1.signature() != t2.signature()
                    });
                if let Some((&(p1, t1), &(p2, t2))) = clash {
                    findings.push(Lint::CrossProgramSharedWrite {
                        field: field.name().to_owned(),
                        first_table: format!("{}/{}", p1.name(), t1.name()),
                        second_table: format!("{}/{}", p2.name(), t2.name()),
                    });
                }
            }
        }

        // Non-commutative multi-writer fields within one program (HL008):
        // the state-access classification pass will pin such a field
        // `SingleWriter`, serializing every placement of the writing pair. If
        // every write were a fold of one common kind the field would instead
        // be `CommutativeUpdate` and the dependency relaxable.
        for p in programs {
            let mut writers: BTreeMap<&Field, Vec<&crate::mat::Mat>> = BTreeMap::new();
            for t in p.tables() {
                for f in t.written_fields() {
                    writers.entry(f).or_default().push(t);
                }
            }
            for (field, ws) in writers {
                if ws.len() < 2 {
                    continue;
                }
                let write_ops = ws.iter().flat_map(|t| {
                    t.actions()
                        .iter()
                        .flat_map(|a| a.ops())
                        .filter(|op| op.writes().contains(&field))
                });
                let mut kinds: BTreeSet<Option<crate::action::FoldOp>> =
                    write_ops.map(crate::action::PrimitiveOp::fold_op).collect();
                let all_one_fold_kind =
                    kinds.len() == 1 && kinds.pop_first().is_some_and(|k| k.is_some());
                if !all_one_fold_kind {
                    findings.push(Lint::NonCommutativeMultiWriter {
                        field: field.name().to_owned(),
                        first_table: ws[0].name().to_owned(),
                        second_table: ws[1].name().to_owned(),
                    });
                }
            }
        }

        // Redundant gates (per program).
        for p in programs {
            for &(from, to) in p.gates() {
                let a = &p.tables()[from];
                let b = &p.tables()[to];
                if a.written_fields().iter().any(|f| b.consumes(f)) {
                    findings.push(Lint::RedundantGate {
                        from: a.name().to_owned(),
                        to: b.name().to_owned(),
                    });
                }
            }
        }

        findings
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::library;
    use crate::mat::{Mat, MatchKind, Rule};

    fn meta(name: &str, size: u32) -> Field {
        Field::metadata(name.to_owned(), size)
    }

    #[test]
    fn read_before_write_detected() {
        let t = Mat::builder("t")
            .match_field(meta("meta.ghost", 4), MatchKind::Exact)
            .action(Action::new("a"))
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        let findings = lint(&p);
        assert!(findings.iter().any(
            |l| matches!(l, Lint::MetadataReadBeforeWrite { field, .. } if field == "meta.ghost")
        ));
    }

    #[test]
    fn self_produced_metadata_is_fine() {
        // A table that hashes into meta.idx and immediately uses it as a
        // register index is legitimate.
        let idx = meta("meta.idx", 4);
        let t = Mat::builder("t")
            .action(
                Action::new("a")
                    .with_op(crate::action::PrimitiveOp::Hash { dst: idx.clone(), srcs: vec![] })
                    .with_op(crate::action::PrimitiveOp::RegisterOp { index: idx, out: None }),
            )
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        assert!(!lint(&p).iter().any(|l| matches!(l, Lint::MetadataReadBeforeWrite { .. })));
    }

    #[test]
    fn never_consumed_detected() {
        let t = Mat::builder("t")
            .action(Action::writing("w", [meta("meta.waste", 12)]))
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        assert!(lint(&p).iter().any(
            |l| matches!(l, Lint::MetadataNeverConsumed { field, .. } if field == "meta.waste")
        ));
    }

    #[test]
    fn composition_satisfies_cross_program_reads() {
        // Producer program then consumer program: no read-before-write.
        let producer = Program::builder("a")
            .table(
                Mat::builder("w")
                    .action(Action::writing("w", [meta("meta.shared", 4)]))
                    .resource(0.1)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let consumer = Program::builder("b")
            .table(
                Mat::builder("r")
                    .match_field(meta("meta.shared", 4), MatchKind::Exact)
                    .action(Action::new("n"))
                    .resource(0.1)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let findings = lint_composition(&[producer.clone(), consumer.clone()]);
        assert!(!findings.iter().any(|l| matches!(l, Lint::MetadataReadBeforeWrite { .. })));
        // Reverse order: the read happens first.
        let findings = lint_composition(&[consumer, producer]);
        assert!(findings.iter().any(|l| matches!(l, Lint::MetadataReadBeforeWrite { .. })));
    }

    #[test]
    fn inert_table_detected() {
        let t = Mat::builder("noop").resource(0.1).build().unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        assert!(lint(&p).iter().any(|l| matches!(l, Lint::TableWithoutActions { .. })));
    }

    #[test]
    fn redundant_gate_detected() {
        let f = meta("meta.x", 1);
        let a = Mat::builder("a")
            .action(Action::writing("w", [f.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let b = Mat::builder("b")
            .match_field(f, MatchKind::Exact)
            .action(Action::new("n"))
            .resource(0.1)
            .build()
            .unwrap();
        let p = Program::builder("p").table(a).table(b).gate("a", "b").build().unwrap();
        assert!(lint(&p).iter().any(|l| matches!(l, Lint::RedundantGate { .. })));
    }

    #[test]
    fn oversized_capacity_detected() {
        let t = Mat::builder("big")
            .action(Action::new("a"))
            .rule(Rule::new(Vec::<String>::new(), "a"))
            .capacity(100_000)
            .resource(0.5)
            .build()
            .unwrap();
        let p = Program::builder("p").table(t).build().unwrap();
        assert!(lint(&p).iter().any(|l| matches!(l, Lint::OversizedCapacity { .. })));
    }

    #[test]
    fn duplicate_name_within_program_rejected_at_construction() {
        // The builder already refuses same-name tables inside one program,
        // so the lint's live path is the cross-program one below.
        let mk = || Mat::builder("dup").action(Action::new("a")).resource(0.1).build().unwrap();
        let err = Program::builder("p").table(mk()).table(mk()).build().unwrap_err();
        assert!(format!("{err:?}").contains("dup"));
    }

    #[test]
    fn duplicate_name_across_programs_needs_different_structure() {
        // `signature()` covers match keys, actions, and capacity — vary
        // capacity to make structurally different same-named tables.
        let mk = |cap: usize| {
            Mat::builder("shared")
                .action(Action::new("a"))
                .capacity(cap)
                .resource(0.1)
                .build()
                .unwrap()
        };
        // Identical signature: the intended merge-redundancy case.
        let pa = Program::builder("a").table(mk(64)).build().unwrap();
        let pb = Program::builder("b").table(mk(64)).build().unwrap();
        assert!(!lint_composition(&[pa.clone(), pb])
            .iter()
            .any(|l| matches!(l, Lint::DuplicateTableName { .. })));
        // Different capacity -> different signature -> clash.
        let pc = Program::builder("c").table(mk(128)).build().unwrap();
        let findings = lint_composition(&[pa, pc]);
        assert!(
            findings.iter().any(|l| matches!(
                l,
                Lint::DuplicateTableName { second_program, .. } if second_program == "c"
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn cross_program_shared_write_detected() {
        let f = meta("meta.clobbered", 4);
        let mk = |name: &str, cap: usize| {
            Mat::builder(name.to_owned())
                .action(Action::writing("w", [f.clone()]))
                .capacity(cap)
                .resource(0.1)
                .build()
                .unwrap()
        };
        // Structurally different writers in different programs: clobber.
        let pa = Program::builder("a").table(mk("wa", 64)).build().unwrap();
        let pb = Program::builder("b").table(mk("wb", 128)).build().unwrap();
        let findings = lint_composition(&[pa.clone(), pb]);
        assert!(
            findings.iter().any(|l| matches!(
                l,
                Lint::CrossProgramSharedWrite { field, .. } if field == "meta.clobbered"
            )),
            "{findings:?}"
        );
        // An identical-signature writer shared across programs is the
        // merge case (folded into one MAT), not a clobber.
        let pb2 = Program::builder("b").table(mk("wb", 64)).build().unwrap();
        assert!(!lint_composition(&[pa, pb2])
            .iter()
            .any(|l| matches!(l, Lint::CrossProgramSharedWrite { .. })));
    }

    #[test]
    fn lint_codes_are_stable() {
        let mk = |l: &Lint| l.code().to_owned();
        assert_eq!(
            mk(&Lint::MetadataReadBeforeWrite { table: String::new(), field: String::new() }),
            "HL001"
        );
        assert_eq!(
            mk(&Lint::MetadataNeverConsumed { table: String::new(), field: String::new() }),
            "HL002"
        );
        assert_eq!(mk(&Lint::TableWithoutActions { table: String::new() }), "HL003");
        assert_eq!(mk(&Lint::RedundantGate { from: String::new(), to: String::new() }), "HL004");
        assert_eq!(
            mk(&Lint::OversizedCapacity { table: String::new(), capacity: 0, rules: 0 }),
            "HL005"
        );
        assert_eq!(
            mk(&Lint::DuplicateTableName {
                table: String::new(),
                first_program: String::new(),
                second_program: String::new(),
            }),
            "HL006"
        );
        assert_eq!(
            mk(&Lint::CrossProgramSharedWrite {
                field: String::new(),
                first_table: String::new(),
                second_table: String::new(),
            }),
            "HL007"
        );
        assert_eq!(
            mk(&Lint::NonCommutativeMultiWriter {
                field: String::new(),
                first_table: String::new(),
                second_table: String::new(),
            }),
            "HL008"
        );
    }

    #[test]
    fn non_commutative_multi_writer_detected() {
        use crate::action::{FoldOp, PrimitiveOp};
        let acc = meta("meta.acc", 4);
        let folder = |name: &str, op: FoldOp| {
            Mat::builder(name.to_owned())
                .action(Action::new("f").with_op(PrimitiveOp::Fold {
                    dst: acc.clone(),
                    srcs: vec![],
                    op,
                }))
                .resource(0.1)
                .build()
                .unwrap()
        };
        // Two same-kind folders: commutative, no finding.
        let p = Program::builder("p")
            .table(folder("f1", FoldOp::Add))
            .table(folder("f2", FoldOp::Add))
            .build()
            .unwrap();
        assert!(!lint(&p).iter().any(|l| matches!(l, Lint::NonCommutativeMultiWriter { .. })));
        // Mixed fold kinds: HL008.
        let p = Program::builder("p")
            .table(folder("f1", FoldOp::Add))
            .table(folder("f2", FoldOp::Max))
            .build()
            .unwrap();
        assert!(lint(&p).iter().any(|l| matches!(
            l,
            Lint::NonCommutativeMultiWriter { field, .. } if field == "meta.acc"
        )));
        // A plain overwrite plus a folder: HL008 too.
        let setter = Mat::builder("s")
            .action(Action::writing("w", [acc.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let p =
            Program::builder("p").table(setter).table(folder("f", FoldOp::Add)).build().unwrap();
        assert!(lint(&p).iter().any(|l| matches!(l, Lint::NonCommutativeMultiWriter { .. })));
    }

    /// Programs whose tables share names and written fields across and
    /// within programs, in no name order: some same-named tables alike,
    /// some not, some fields folded by one kind, some by several.
    fn clashing_programs() -> Vec<Program> {
        use crate::action::{FoldOp, PrimitiveOp};
        let names = ["zeta", "alpha", "mid", "beta", "omega"];
        let fields = [meta("meta.q", 4), meta("meta.c", 2), meta("meta.x", 8), meta("meta.c", 4)];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = |n: usize| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) as usize % n
        };
        (0..8)
            .map(|p| {
                let mut program = Program::builder(format!("p{}", 7 - p));
                for (t, name) in names.iter().enumerate().filter(|&(t, _)| (t + p) % 3 != 0) {
                    let field = fields[next(fields.len())].clone();
                    let op = match next(3) {
                        0 => PrimitiveOp::Compute { dst: field, srcs: vec![] },
                        k => PrimitiveOp::Fold {
                            dst: field,
                            srcs: vec![],
                            op: [FoldOp::Add, FoldOp::Max][k - 1],
                        },
                    };
                    let table = Mat::builder(*name)
                        .action(Action::new(format!("a{t}")).with_op(op))
                        .capacity(64 << next(2))
                        .resource(0.1)
                        .build()
                        .unwrap();
                    program = program.table(table);
                }
                program.build().unwrap()
            })
            .collect()
    }

    /// The hashed grouping reports what the ordered maps did, finding for
    /// finding and in their order, on the library, the 60-program
    /// `wan-50` pool, the audit fixture and crafted clashes.
    #[test]
    fn hashed_grouping_reports_as_its_definition() {
        use crate::synthetic::{SyntheticConfig, SyntheticGenerator};
        let fixture = include_str!("../../../tests/fixtures/audit_workload.p4dsl");
        let clashing = clashing_programs();
        let workloads = [
            library::real_programs(),
            SyntheticGenerator::new(50, SyntheticConfig::default()).programs(60),
            crate::parser::parse_programs(fixture).unwrap(),
            clashing.clone(),
        ];
        for programs in &workloads {
            assert_eq!(lint_composition(programs), oracle::lint_composition(programs));
            for p in programs {
                assert_eq!(lint(p), oracle::lint_composition(std::slice::from_ref(p)));
            }
        }
        let findings = lint_composition(&clashing);
        for code in ["HL006", "HL007", "HL008"] {
            let n = findings.iter().filter(|l| l.code() == code).count();
            assert!(n > 1, "{code}: {n} findings in {findings:?}");
        }
    }

    #[test]
    fn library_programs_compose_cleanly_for_serious_lints() {
        // The library is our reference workload: composed in order, no
        // read-before-write and no inert tables. (Unconsumed terminal
        // outputs like INT reports are expected and not asserted on.)
        let findings = lint_composition(&library::real_programs());
        assert!(
            !findings.iter().any(|l| matches!(
                l,
                Lint::MetadataReadBeforeWrite { .. } | Lint::TableWithoutActions { .. }
            )),
            "{findings:?}"
        );
    }
}
