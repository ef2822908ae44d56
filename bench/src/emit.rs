//! Renders a [`Program`] to the DSL grammar of `hermes_dataplane::parser`,
//! so every request starts from text as a `hermes` user's does.
//!
//! The grammar has no syntax for table rules and keeps one field
//! namespace per file, so a program with rules, or one that redeclares a
//! field with another kind or width, has no rendering; the caller deploys
//! such a program from its constructor and names it in the output.

use hermes_dataplane::action::PrimitiveOp;
use hermes_dataplane::parser::parse_programs;
use hermes_dataplane::{Field, Program};
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Why a program has no DSL rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unrenderable {
    /// The table carries rules, which the grammar cannot state.
    Rules { table: String },
    /// The file already declares this field with another kind or width.
    FieldClash { field: String },
    /// The lexer would not read this name back as one identifier.
    Name { name: String },
}

impl fmt::Display for Unrenderable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unrenderable::Rules { table } => write!(f, "table `{table}` has rules"),
            Unrenderable::FieldClash { field } => {
                write!(f, "field `{field}` is declared differently earlier in the file")
            }
            Unrenderable::Name { name } => write!(f, "`{name}` is not a DSL identifier"),
        }
    }
}

fn ident(name: &str) -> Result<&str, Unrenderable> {
    let lexes = !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '.');
    if lexes {
        Ok(name)
    } else {
        Err(Unrenderable::Name { name: name.to_owned() })
    }
}

fn args(fields: &[Field]) -> String {
    fields.iter().map(Field::name).collect::<Vec<_>>().join(", ")
}

fn statement(op: &PrimitiveOp) -> String {
    match op {
        PrimitiveOp::SetConst { dst } => format!("{} = const();", dst.name()),
        PrimitiveOp::Copy { dst, src } => format!("{} = copy({});", dst.name(), src.name()),
        PrimitiveOp::Compute { dst, srcs } => format!("{} = compute({});", dst.name(), args(srcs)),
        PrimitiveOp::Hash { dst, srcs } => format!("{} = hash({});", dst.name(), args(srcs)),
        PrimitiveOp::RegisterOp { index, out: None } => format!("register({});", index.name()),
        PrimitiveOp::RegisterOp { index, out: Some(out) } => {
            format!("{} = register({});", out.name(), index.name())
        }
        PrimitiveOp::Drop => "drop();".to_owned(),
        PrimitiveOp::Forward { port } => format!("forward({});", port.name()),
        PrimitiveOp::Fold { dst, srcs, op } => {
            format!("{} = fold_{}({});", dst.name(), op.name(), args(srcs))
        }
    }
}

/// One DSL file under construction: programs appended to it share its
/// field namespace, as `parse_programs` shares it when reading back.
#[derive(Debug, Default)]
pub struct Emitter {
    declared: BTreeMap<String, Field>,
    text: String,
}

impl Emitter {
    pub fn new() -> Self {
        Emitter::default()
    }

    /// Appends `program`, or leaves the file as it was and says why not.
    pub fn push(&mut self, program: &Program) -> Result<(), Unrenderable> {
        let mut fresh: Vec<Field> = Vec::new();
        let mut body = String::new();
        let mut declare = |field: &Field, declared: &BTreeMap<String, Field>| {
            ident(field.name())?;
            let known = declared
                .get(field.name())
                .or_else(|| fresh.iter().find(|f| f.name() == field.name()));
            match known {
                Some(known) if known == field => {}
                Some(_) => return Err(Unrenderable::FieldClash { field: field.name().to_owned() }),
                None => fresh.push(field.clone()),
            }
            Ok(())
        };
        for table in program.tables() {
            if !table.rules().is_empty() {
                return Err(Unrenderable::Rules { table: table.name().to_owned() });
            }
            let _ = writeln!(body, "    table {} {{", ident(table.name())?);
            if !table.match_specs().is_empty() {
                body.push_str("        key {");
                for spec in table.match_specs() {
                    declare(&spec.field, &self.declared)?;
                    let _ = write!(body, " {}: {};", spec.field.name(), spec.kind);
                }
                body.push_str(" }\n");
            }
            body.push_str("        actions {\n");
            for action in table.actions() {
                let _ = write!(body, "            {} {{", ident(action.name())?);
                for op in action.ops() {
                    for field in op.writes().into_iter().chain(op.reads()) {
                        declare(field, &self.declared)?;
                    }
                    let _ = write!(body, " {}", statement(op));
                }
                body.push_str(" }\n");
            }
            body.push_str("        }\n");
            let _ = writeln!(body, "        capacity {};", table.capacity());
            let _ = writeln!(body, "        resource {};", table.resource());
            body.push_str("    }\n");
        }
        for &(from, to) in program.gates() {
            let tables = program.tables();
            let _ = writeln!(body, "    gate {} -> {};", tables[from].name(), tables[to].name());
        }
        let _ = writeln!(self.text, "program {} {{", ident(program.name())?);
        for field in fresh {
            let _ = writeln!(
                self.text,
                "    {} {}: {};",
                field.kind(),
                field.name(),
                field.size_bytes()
            );
            self.declared.insert(field.name().to_owned(), field);
        }
        self.text.push_str(&body);
        self.text.push_str("}\n");
        Ok(())
    }

    pub fn finish(self) -> String {
        self.text
    }
}

/// Renders one program as a file of its own and checks that the parser
/// reads back exactly that program.
pub fn emit_checked(program: &Program) -> Result<String, String> {
    let mut emitter = Emitter::new();
    emitter.push(program).map_err(|e| e.to_string())?;
    let text = emitter.finish();
    match parse_programs(&text) {
        Ok(back) if back.len() == 1 && back[0] == *program => Ok(text),
        Ok(_) => Err("the parser reads back a different program".to_owned()),
        Err(e) => Err(format!("the parser rejects the rendering: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_dataplane::action::{Action, FoldOp};
    use hermes_dataplane::{library, Mat, MatchKind, Rule};

    fn every_statement() -> Program {
        let h = Field::header("ipv4.src", 4);
        let m = Field::metadata("meta.x", 2);
        let acc = Field::metadata("meta.acc", 8);
        let ops = [
            PrimitiveOp::SetConst { dst: m.clone() },
            PrimitiveOp::Copy { dst: m.clone(), src: h.clone() },
            PrimitiveOp::Compute { dst: m.clone(), srcs: vec![] },
            PrimitiveOp::Compute { dst: m.clone(), srcs: vec![h.clone(), m.clone()] },
            PrimitiveOp::Hash { dst: m.clone(), srcs: vec![h.clone()] },
            PrimitiveOp::RegisterOp { index: m.clone(), out: None },
            PrimitiveOp::RegisterOp { index: m.clone(), out: Some(acc.clone()) },
            PrimitiveOp::Drop,
            PrimitiveOp::Forward { port: m.clone() },
            PrimitiveOp::Fold { dst: acc.clone(), srcs: vec![h.clone()], op: FoldOp::Max },
        ];
        let action = ops.into_iter().fold(Action::new("all"), Action::with_op);
        let first = Mat::builder("first")
            .match_field(h, MatchKind::Lpm)
            .match_field(m, MatchKind::Ternary)
            .action(action)
            .action(Action::new("nothing"))
            .capacity(7)
            .resource(0.125)
            .build()
            .unwrap();
        let second = Mat::builder("second").action(Action::new("a")).resource(1.5).build().unwrap();
        Program::builder("p").table(first).table(second).gate("first", "second").build().unwrap()
    }

    #[test]
    fn every_statement_kind_round_trips() {
        emit_checked(&every_statement()).unwrap();
    }

    #[test]
    fn library_programs_round_trip_unless_they_carry_rules() {
        for program in library::real_programs() {
            let has_rules = program.tables().iter().any(|t| !t.rules().is_empty());
            assert_eq!(emit_checked(&program).is_err(), has_rules, "{}", program.name());
        }
    }

    #[test]
    fn a_refused_program_leaves_the_file_untouched() {
        let ruled = Mat::builder("t")
            .action(Action::new("a"))
            .rule(Rule::new(Vec::<String>::new(), "a"))
            .resource(0.5)
            .build()
            .unwrap();
        let with_rules = Program::builder("q").table(ruled).build().unwrap();
        let clash = Mat::builder("u")
            .match_field(Field::metadata("ipv4.src", 4), MatchKind::Exact)
            .action(Action::new("a"))
            .resource(0.5)
            .build()
            .unwrap();
        let clashing = Program::builder("r").table(clash).build().unwrap();

        let mut emitter = Emitter::new();
        emitter.push(&every_statement()).unwrap();
        assert!(matches!(emitter.push(&with_rules), Err(Unrenderable::Rules { .. })));
        assert!(matches!(emitter.push(&clashing), Err(Unrenderable::FieldClash { .. })));
        assert_eq!(parse_programs(&emitter.finish()).unwrap(), vec![every_statement()]);
    }
}
