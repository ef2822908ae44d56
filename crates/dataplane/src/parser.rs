//! A small P4-flavoured textual DSL for data plane programs.
//!
//! The paper's input is a set of P4 programs; this module provides the
//! equivalent textual front end so programs can live in files rather than
//! Rust constructors. The grammar (informally):
//!
//! ```text
//! program <name> {
//!     header   <field.name>: <bytes>;
//!     metadata <field.name>: <bytes>;
//!
//!     table <name> {
//!         key { <field>: exact|lpm|ternary|range; ... }
//!         actions {
//!             <action> {
//!                 <field> = const();
//!                 <field> = copy(<field>);
//!                 <field> = compute(<field>, ...);
//!                 <field> = hash(<field>, ...);
//!                 <field> = fold_add|fold_max|fold_min|fold_or(<field>, ...);
//!                 [<field> =] register(<field>);
//!                 drop();
//!                 forward(<field>);
//!             }
//!             ...
//!         }
//!         capacity <n>;
//!         resource <fraction>;
//!     }
//!     ...
//!     gate <table> -> <table>;
//! }
//! ```
//!
//! Tables appear in program order; `gate` declares a successor (𝕊)
//! dependency. Every field must be declared before use so widths and
//! header/metadata kinds are unambiguous.

use crate::action::{Action, FoldOp, PrimitiveOp};
use crate::fields::{Field, FieldKind, MAX_WIDTH_BYTES};
use crate::mat::{Mat, MatchKind};
use crate::program::Program;
use std::collections::BTreeMap;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Semi,
    Comma,
    Equals,
    Arrow,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Number(n) => write!(f, "`{n}`"),
            Token::LBrace => f.write_str("`{`"),
            Token::RBrace => f.write_str("`}`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::Colon => f.write_str("`:`"),
            Token::Semi => f.write_str("`;`"),
            Token::Comma => f.write_str("`,`"),
            Token::Equals => f.write_str("`=`"),
            Token::Arrow => f.write_str("`->`"),
        }
    }
}

fn tokenize(src: &str) -> Result<Vec<(Token, usize)>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                out.push((Token::LBrace, line));
                chars.next();
            }
            '}' => {
                out.push((Token::RBrace, line));
                chars.next();
            }
            '(' => {
                out.push((Token::LParen, line));
                chars.next();
            }
            ')' => {
                out.push((Token::RParen, line));
                chars.next();
            }
            ':' => {
                out.push((Token::Colon, line));
                chars.next();
            }
            ';' => {
                out.push((Token::Semi, line));
                chars.next();
            }
            ',' => {
                out.push((Token::Comma, line));
                chars.next();
            }
            '=' => {
                out.push((Token::Equals, line));
                chars.next();
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'>') {
                    chars.next();
                    out.push((Token::Arrow, line));
                } else {
                    return Err(ParseError { line, message: "expected `->` after `-`".into() });
                }
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n = s
                    .parse::<f64>()
                    .map_err(|_| ParseError { line, message: format!("bad number `{s}`") })?;
                out.push((Token::Number(n), line));
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Token::Ident(s), line));
            }
            other => {
                return Err(ParseError { line, message: format!("unexpected character `{other}`") })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    fields: BTreeMap<String, Field>,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map_or(1, |(_, l)| *l)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        let token = self
            .tokens
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(token)
    }

    fn expect(&mut self, want: Token) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(format!("expected {want}, found {got}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                Err(self.error(format!("expected {what}, found {other}")))
            }
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        match self.next()? {
            Token::Number(n) => Ok(n),
            other => {
                self.pos -= 1;
                Err(self.error(format!("expected {what}, found {other}")))
            }
        }
    }

    fn field(&mut self) -> Result<Field, ParseError> {
        let name = self.ident("a field name")?;
        self.fields
            .get(&name)
            .cloned()
            .ok_or_else(|| self.error(format!("field `{name}` used before declaration")))
    }

    fn field_decl(&mut self, kind: FieldKind) -> Result<(), ParseError> {
        let name = self.ident("a field name")?;
        self.expect(Token::Colon)?;
        let width = self.number("a byte width")?;
        let size = whole(width).and_then(|w| u32::try_from(w).ok());
        let Some(size) = size.filter(|w| (1..=MAX_WIDTH_BYTES).contains(w)) else {
            return Err(self.error(format!(
                "field `{name}` width must be an integer from 1 to {MAX_WIDTH_BYTES} bytes, \
                 found {width}"
            )));
        };
        self.expect(Token::Semi)?;
        if self.fields.contains_key(&name) {
            return Err(self.error(format!("field `{name}` declared twice")));
        }
        self.fields.insert(name.clone(), Field::new(name, kind, size));
        Ok(())
    }

    fn statement(&mut self) -> Result<PrimitiveOp, ParseError> {
        // Either `drop();` / `register(x);` / `forward(x);`, or
        // `<field> = <func>(args);`
        let first = self.ident("a statement")?;
        match self.peek() {
            Some(Token::LParen) => {
                // No-assignment form.
                self.expect(Token::LParen)?;
                let op = match first.as_str() {
                    "drop" => {
                        self.expect(Token::RParen)?;
                        PrimitiveOp::Drop
                    }
                    "register" => {
                        let index = self.field()?;
                        self.expect(Token::RParen)?;
                        PrimitiveOp::RegisterOp { index, out: None }
                    }
                    "forward" => {
                        let port = self.field()?;
                        self.expect(Token::RParen)?;
                        PrimitiveOp::Forward { port }
                    }
                    other => {
                        return Err(self.error(format!(
                            "unknown statement `{other}` (expected drop/register/forward)"
                        )))
                    }
                };
                self.expect(Token::Semi)?;
                Ok(op)
            }
            _ => {
                // Assignment form: first is the destination field.
                let dst = self.fields.get(&first).cloned().ok_or_else(|| {
                    self.error(format!("field `{first}` used before declaration"))
                })?;
                self.expect(Token::Equals)?;
                let func = self.ident("a function (const/copy/compute/hash/register)")?;
                self.expect(Token::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        args.push(self.field()?);
                        if self.peek() == Some(&Token::Comma) {
                            self.expect(Token::Comma)?;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Token::RParen)?;
                self.expect(Token::Semi)?;
                let op = match (func.as_str(), args.as_slice()) {
                    ("const", []) => PrimitiveOp::SetConst { dst },
                    ("copy", [src]) => PrimitiveOp::Copy { dst, src: src.clone() },
                    ("compute", _) => PrimitiveOp::Compute { dst, srcs: args },
                    ("hash", _) => PrimitiveOp::Hash { dst, srcs: args },
                    ("register", [index]) => {
                        PrimitiveOp::RegisterOp { index: index.clone(), out: Some(dst) }
                    }
                    ("fold_add", _) => PrimitiveOp::Fold { dst, srcs: args, op: FoldOp::Add },
                    ("fold_max", _) => PrimitiveOp::Fold { dst, srcs: args, op: FoldOp::Max },
                    ("fold_min", _) => PrimitiveOp::Fold { dst, srcs: args, op: FoldOp::Min },
                    ("fold_or", _) => PrimitiveOp::Fold { dst, srcs: args, op: FoldOp::Or },
                    (f, args) => {
                        let n = args.len();
                        return Err(self.error(format!("bad call `{f}` with {n} argument(s)")));
                    }
                };
                Ok(op)
            }
        }
    }

    fn table(&mut self) -> Result<Mat, ParseError> {
        let name = self.ident("a table name")?;
        self.expect(Token::LBrace)?;
        let mut builder = Mat::builder(name.clone());
        let mut capacity: Option<usize> = None;
        let mut resource: Option<f64> = None;
        loop {
            match self.next()? {
                Token::RBrace => break,
                Token::Ident(section) => match section.as_str() {
                    "key" => {
                        self.expect(Token::LBrace)?;
                        while self.peek() != Some(&Token::RBrace) {
                            let field = self.field()?;
                            self.expect(Token::Colon)?;
                            let kind = match self.ident("a match kind")?.as_str() {
                                "exact" => MatchKind::Exact,
                                "lpm" => MatchKind::Lpm,
                                "ternary" => MatchKind::Ternary,
                                "range" => MatchKind::Range,
                                other => {
                                    return Err(self.error(format!("unknown match kind `{other}`")))
                                }
                            };
                            self.expect(Token::Semi)?;
                            builder = builder.match_field(field, kind);
                        }
                        self.expect(Token::RBrace)?;
                    }
                    "actions" => {
                        self.expect(Token::LBrace)?;
                        while self.peek() != Some(&Token::RBrace) {
                            let action_name = self.ident("an action name")?;
                            self.expect(Token::LBrace)?;
                            let mut action = Action::new(action_name);
                            while self.peek() != Some(&Token::RBrace) {
                                action = action.with_op(self.statement()?);
                            }
                            self.expect(Token::RBrace)?;
                            builder = builder.action(action);
                        }
                        self.expect(Token::RBrace)?;
                    }
                    "capacity" => {
                        let n = self.number("a capacity")?;
                        let c = whole(n).and_then(|c| usize::try_from(c).ok());
                        let Some(c) = c.filter(|&c| c >= 1) else {
                            return Err(self.error(format!(
                                "table `{name}`: capacity must be a positive integer, found {n}"
                            )));
                        };
                        self.expect(Token::Semi)?;
                        capacity = Some(c);
                    }
                    "resource" => {
                        let r = self.number("a resource fraction")?;
                        self.expect(Token::Semi)?;
                        resource = Some(r);
                    }
                    other => {
                        let msg = format!(
                            "unknown table section `{other}` (expected key/actions/capacity/resource)"
                        );
                        return Err(self.error(msg));
                    }
                },
                other => return Err(self.error(format!("unexpected {other} in table `{name}`"))),
            }
        }
        if let Some(c) = capacity {
            builder = builder.capacity(c);
        }
        if let Some(r) = resource {
            builder = builder.resource(r);
        }
        builder.build().map_err(|e| self.error(e.to_string()))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        match self.ident("`program`")?.as_str() {
            "program" => {}
            other => return Err(self.error(format!("expected `program`, found `{other}`"))),
        }
        let name = self.ident("a program name")?;
        self.expect(Token::LBrace)?;
        let mut builder = Program::builder(name);
        loop {
            match self.next()? {
                Token::RBrace => break,
                Token::Ident(section) => match section.as_str() {
                    "header" => self.field_decl(FieldKind::Header)?,
                    "metadata" => self.field_decl(FieldKind::Metadata)?,
                    "table" => {
                        builder = builder.table(self.table()?);
                    }
                    "gate" => {
                        let from = self.ident("a table name")?;
                        self.expect(Token::Arrow)?;
                        let to = self.ident("a table name")?;
                        self.expect(Token::Semi)?;
                        builder = builder.gate(from, to);
                    }
                    other => {
                        return Err(self.error(format!(
                            "unknown section `{other}` (expected header/metadata/table/gate)"
                        )))
                    }
                },
                other => return Err(self.error(format!("unexpected {other} at program level"))),
            }
        }
        builder.build().map_err(|e| self.error(e.to_string()))
    }
}

/// `n` as an integer, if it is one an `f64` holds exactly (at most 2^53):
/// above that, two different numbers in the text can read as one.
fn whole(n: f64) -> Option<u64> {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    (n.fract() == 0.0 && (0.0..=EXACT).contains(&n)).then_some(n as u64)
}

/// Parses one program from DSL text.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line on malformed input,
/// undeclared fields, or structurally invalid tables/programs.
///
/// # Examples
///
/// ```
/// let src = r#"
/// program counter {
///     header ipv4.src: 4;
///     metadata meta.idx: 4;
///
///     table hash {
///         actions { go { meta.idx = hash(ipv4.src); } }
///         resource 0.1;
///     }
///     table count {
///         key { meta.idx: exact; }
///         actions { bump { register(meta.idx); } }
///         resource 0.3;
///     }
/// }
/// "#;
/// let program = hermes_dataplane::parser::parse_program(src)?;
/// assert_eq!(program.name(), "counter");
/// assert_eq!(program.tables().len(), 2);
/// # Ok::<(), hermes_dataplane::parser::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser { tokens, pos: 0, fields: BTreeMap::new() };
    let program = parser.program()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("trailing input after program"));
    }
    Ok(program)
}

/// Parses a file of several programs (concatenated `program` blocks).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub fn parse_programs(src: &str) -> Result<Vec<Program>, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser { tokens, pos: 0, fields: BTreeMap::new() };
    let mut out = Vec::new();
    while parser.pos < parser.tokens.len() {
        // Field namespaces are per-file: declarations carry across
        // programs so shared fields (e.g. a common hash index) agree.
        out.push(parser.program()?);
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    const COUNTER: &str = r#"
        # A hash-and-count program.
        program counter {
            header ipv4.src: 4;
            header ipv4.dst: 4;
            metadata meta.idx: 4;
            metadata meta.count: 4;

            table hash {
                actions { go { meta.idx = hash(ipv4.src, ipv4.dst); } }
                capacity 1;
                resource 0.1;
            }
            table count {
                key { meta.idx: exact; }
                actions { bump { meta.count = register(meta.idx); } }
                resource 0.3;
            }
            table export {
                key { meta.count: exact; }
                actions { fwd { forward(meta.idx); } drop_it { drop(); } }
                resource 0.1;
            }
            gate count -> export;
        }
    "#;

    #[test]
    fn parses_a_full_program() {
        let p = parse_program(COUNTER).unwrap();
        assert_eq!(p.name(), "counter");
        assert_eq!(p.tables().len(), 3);
        assert_eq!(p.gates(), &[(1, 2)]);
        let hash = p.table("hash").unwrap();
        assert_eq!(hash.resource(), 0.1);
        assert!(hash.written_fields().contains(&Field::metadata("meta.idx", 4)));
        let export = p.table("export").unwrap();
        assert_eq!(export.actions().len(), 2);
    }

    #[test]
    fn parsed_program_feeds_dependency_inference() {
        // The parser output must behave identically to built programs.
        let p = parse_program(COUNTER).unwrap();
        let hash = p.table("hash").unwrap();
        let count = p.table("count").unwrap();
        assert!(hash.written_metadata().any(|f| count.match_fields().contains(f)));
    }

    #[test]
    fn fold_statements_parse_to_fold_ops() {
        let src = r#"
            program agg {
                header pkt.val: 4;
                metadata meta.sum: 4;
                metadata meta.peak: 4;
                table accumulate {
                    actions {
                        add { meta.sum = fold_add(pkt.val); }
                        peak { meta.peak = fold_max(pkt.val); }
                    }
                    resource 0.5;
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let t = p.table("accumulate").unwrap();
        let ops: Vec<_> = t.actions().iter().flat_map(|a| a.ops()).collect();
        let sum = Field::metadata("meta.sum", 4);
        assert!(ops.iter().any(|op| matches!(
            op,
            PrimitiveOp::Fold { dst, op: FoldOp::Add, .. } if *dst == sum
        )));
        assert!(ops.iter().any(|op| matches!(op, PrimitiveOp::Fold { op: FoldOp::Max, .. })));
        // Folds read their accumulator.
        assert!(t.action_read_fields().contains(&sum));
    }

    #[test]
    fn undeclared_field_is_an_error() {
        let err = parse_program(
            "program p { table t { key { nope: exact; } actions { a { drop(); } } } }",
        )
        .unwrap_err();
        assert!(err.message.contains("before declaration"), "{err}");
    }

    #[test]
    fn duplicate_field_is_an_error() {
        let err = parse_program("program p { header x: 4; header x: 4; }").unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
    }

    #[test]
    fn bad_match_kind_is_an_error() {
        let err =
            parse_program("program p { header x: 4; table t { key { x: fuzzy; } } }").unwrap_err();
        assert!(err.message.contains("unknown match kind"), "{err}");
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "program p {\n  header x: 4;\n  junk;\n}";
        let err = parse_program(src).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
    }

    #[test]
    fn multiple_programs_share_field_declarations() {
        let src = r#"
            program a {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table h { actions { go { meta.idx = hash(ipv4.src); } } resource 0.1; }
            }
            program b {
                table consume {
                    key { meta.idx: exact; }
                    actions { n { register(meta.idx); } }
                    resource 0.2;
                }
            }
        "#;
        let programs = parse_programs(src).unwrap();
        assert_eq!(programs.len(), 2);
        // Program b's key resolves against the shared declaration.
        assert_eq!(programs[1].tables()[0].match_fields().iter().next().unwrap().size_bytes(), 4);
    }

    #[test]
    fn gate_to_missing_table_is_an_error() {
        let err = parse_program("program p { header x: 4; gate a -> b; }").unwrap_err();
        assert!(err.message.contains("unknown table"), "{err}");
    }

    #[test]
    fn unexpected_character_reported() {
        let err = parse_program("program p { @ }").unwrap_err();
        assert!(err.message.contains("unexpected character"), "{err}");
    }

    #[test]
    fn capacity_and_resource_applied() {
        let p = parse_program(
            "program p { header x: 4; table t { key { x: exact; } actions { a { drop(); } } capacity 77; resource 0.5; } }",
        )
        .unwrap();
        let t = p.table("t").unwrap();
        assert_eq!(t.capacity(), 77);
        assert_eq!(t.resource(), 0.5);
    }

    #[test]
    fn widths_outside_one_to_65535_bytes_are_errors() {
        for bad in ["0", "2.5", "65536", "3000000000", "1000000000000"] {
            let src = format!("program p {{\n  header x: 4;\n  metadata meta.w: {bad};\n}}");
            let err = parse_program(&src).unwrap_err();
            assert_eq!(err.line, 3, "{bad}: {err}");
            assert!(err.message.contains("width must be an integer from 1 to 65535"), "{err}");
            assert!(err.message.ends_with(&format!("found {bad}")), "{err}");
        }
        let widest = parse_program("program p { metadata meta.w: 65535; }").unwrap();
        assert!(widest.tables().is_empty());
    }

    #[test]
    fn capacities_that_are_not_positive_integers_are_errors() {
        for bad in ["0", "0.5", "2.9", "100000000000000000000"] {
            let src = format!(
                "program p {{\n  header x: 4;\n  table t {{\n    actions {{ a {{ drop(); }} }}\n    \
                 capacity {bad};\n  }}\n}}"
            );
            let err = parse_program(&src).unwrap_err();
            assert_eq!(err.line, 5, "{bad}: {err}");
            assert!(
                err.message.contains("table `t`: capacity must be a positive integer"),
                "{err}"
            );
        }
    }

    #[test]
    fn round_trip_through_tdg_and_deployment_types() {
        // Parsed programs are first-class: structural equality with the
        // builder API for an equivalent definition.
        let built = {
            let src4 = Field::header("ipv4.src", 4);
            let idx = Field::metadata("meta.idx", 4);
            let hash = Mat::builder("h")
                .action(
                    Action::new("go")
                        .with_op(PrimitiveOp::Hash { dst: idx.clone(), srcs: vec![src4.clone()] }),
                )
                .resource(0.1)
                .build()
                .unwrap();
            Program::builder("p").table(hash).build().unwrap()
        };
        let parsed = parse_program(
            "program p { header ipv4.src: 4; metadata meta.idx: 4; table h { actions { go { meta.idx = hash(ipv4.src); } } resource 0.1; } }",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }
}
