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
//!
//! Identifiers are runs of Unicode alphanumerics, `_` and `.`; a number
//! starts with an ASCII digit and runs over digits and dots; `#` comments
//! to the end of the line. The lexer borrows: a token is a `Copy` value
//! whose identifier is a slice of the source, the parser looks fields up
//! by that slice, and an owned `String` is made only for a name the
//! [`Program`] keeps (program, table, action and field names).

use crate::action::{Action, FoldOp, PrimitiveOp};
use crate::fields::{Field, FieldKind, MAX_WIDTH_BYTES};
use crate::mat::{Mat, MatchKind};
use crate::program::Program;
use std::collections::HashMap;
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

/// One lexeme. Identifiers borrow their text from the source, so a token
/// is a copy of two words and the lexer allocates nothing but the list.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
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

impl fmt::Display for Token<'_> {
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

/// Whether `c` continues an identifier: Unicode alphanumerics, `_`, `.`.
fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// Splits `src` into tokens with their 1-based lines. Walks bytes, and
/// decodes a `char` only where no ASCII rule applies: every byte of a
/// multi-byte UTF-8 sequence is non-ASCII, so an ASCII byte is a whole
/// character.
fn tokenize(src: &str) -> Result<Vec<(Token<'_>, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        let (token, len) = match b {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b'#' => {
                // Comment to end of line.
                match bytes[i..].iter().position(|&c| c == b'\n') {
                    Some(k) => {
                        line += 1;
                        i += k + 1;
                    }
                    None => i = bytes.len(),
                }
                continue;
            }
            b'{' => (Token::LBrace, 1),
            b'}' => (Token::RBrace, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b':' => (Token::Colon, 1),
            b';' => (Token::Semi, 1),
            b',' => (Token::Comma, 1),
            b'=' => (Token::Equals, 1),
            b'-' if bytes.get(i + 1) == Some(&b'>') => (Token::Arrow, 2),
            b'-' => return Err(ParseError { line, message: "expected `->` after `-`".into() }),
            b'0'..=b'9' => {
                let rest = &bytes[i..];
                let len = rest
                    .iter()
                    .position(|&c| !(c.is_ascii_digit() || c == b'.'))
                    .unwrap_or(rest.len());
                let s = &src[i..i + len];
                let n = s
                    .parse::<f64>()
                    .map_err(|_| ParseError { line, message: format!("bad number `{s}`") })?;
                (Token::Number(n), len)
            }
            _ => {
                let rest = &src[i..];
                let Some(c) = rest.chars().next() else { break };
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                if !ident_char(c) {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected character `{c}`"),
                    });
                }
                let len = rest
                    .char_indices()
                    .find(|&(_, c)| !ident_char(c))
                    .map_or(rest.len(), |(k, _)| k);
                (Token::Ident(&rest[..len]), len)
            }
        };
        out.push((token, line));
        i += len;
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    pos: usize,
    /// Declared fields by name; the keys borrow the source.
    fields: HashMap<&'a str, Field>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        Ok(Parser { tokens: tokenize(src)?, pos: 0, fields: HashMap::default() })
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map_or(1, |(_, l)| *l)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|&(t, _)| t)
    }

    fn next(&mut self) -> Result<Token<'a>, ParseError> {
        let token = self.peek().ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(token)
    }

    fn expect(&mut self, want: Token<'_>) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(format!("expected {want}, found {got}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
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

    /// The declared field `name`.
    fn declared(&self, name: &str) -> Result<Field, ParseError> {
        self.fields
            .get(name)
            .cloned()
            .ok_or_else(|| self.error(format!("field `{name}` used before declaration")))
    }

    fn field(&mut self) -> Result<Field, ParseError> {
        let name = self.ident("a field name")?;
        self.declared(name)
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
        if self.fields.contains_key(name) {
            return Err(self.error(format!("field `{name}` declared twice")));
        }
        self.fields.insert(name, Field::new(name.to_owned(), kind, size));
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
                let op = match first {
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
                let dst = self.declared(first)?;
                self.expect(Token::Equals)?;
                let func = self.ident("a function (const/copy/compute/hash/register)")?;
                self.expect(Token::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Some(Token::RParen) {
                    loop {
                        args.push(self.field()?);
                        if self.peek() == Some(Token::Comma) {
                            self.expect(Token::Comma)?;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Token::RParen)?;
                self.expect(Token::Semi)?;
                let op = match (func, args.as_slice()) {
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
        let mut builder = Mat::builder(name);
        let mut capacity: Option<usize> = None;
        let mut resource: Option<f64> = None;
        loop {
            match self.next()? {
                Token::RBrace => break,
                Token::Ident(section) => match section {
                    "key" => {
                        self.expect(Token::LBrace)?;
                        while self.peek() != Some(Token::RBrace) {
                            let field = self.field()?;
                            self.expect(Token::Colon)?;
                            let kind = match self.ident("a match kind")? {
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
                        while self.peek() != Some(Token::RBrace) {
                            let action_name = self.ident("an action name")?;
                            self.expect(Token::LBrace)?;
                            let mut action = Action::new(action_name);
                            while self.peek() != Some(Token::RBrace) {
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
        match self.ident("`program`")? {
            "program" => {}
            other => return Err(self.error(format!("expected `program`, found `{other}`"))),
        }
        let name = self.ident("a program name")?;
        self.expect(Token::LBrace)?;
        let mut builder = Program::builder(name);
        loop {
            match self.next()? {
                Token::RBrace => break,
                Token::Ident(section) => match section {
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
    let mut parser = Parser::new(src)?;
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
    let mut parser = Parser::new(src)?;
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
    use proptest::prelude::*;

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

    /// The lexer as it was before tokens borrowed the source: one `char`
    /// at a time, each identifier copied into a `String` of its own.
    /// [`tokenize`] must give the same tokens, lines and errors.
    #[derive(Debug, Clone, PartialEq)]
    enum OracleToken {
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

    fn owned(token: Token<'_>) -> OracleToken {
        match token {
            Token::Ident(s) => OracleToken::Ident(s.to_owned()),
            Token::Number(n) => OracleToken::Number(n),
            Token::LBrace => OracleToken::LBrace,
            Token::RBrace => OracleToken::RBrace,
            Token::LParen => OracleToken::LParen,
            Token::RParen => OracleToken::RParen,
            Token::Colon => OracleToken::Colon,
            Token::Semi => OracleToken::Semi,
            Token::Comma => OracleToken::Comma,
            Token::Equals => OracleToken::Equals,
            Token::Arrow => OracleToken::Arrow,
        }
    }

    fn oracle_tokenize(src: &str) -> Result<Vec<(OracleToken, usize)>, ParseError> {
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
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                }
                '{' | '}' | '(' | ')' | ':' | ';' | ',' | '=' => {
                    let token = match c {
                        '{' => OracleToken::LBrace,
                        '}' => OracleToken::RBrace,
                        '(' => OracleToken::LParen,
                        ')' => OracleToken::RParen,
                        ':' => OracleToken::Colon,
                        ';' => OracleToken::Semi,
                        ',' => OracleToken::Comma,
                        _ => OracleToken::Equals,
                    };
                    out.push((token, line));
                    chars.next();
                }
                '-' => {
                    chars.next();
                    if chars.peek() == Some(&'>') {
                        chars.next();
                        out.push((OracleToken::Arrow, line));
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
                    out.push((OracleToken::Number(n), line));
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
                    out.push((OracleToken::Ident(s), line));
                }
                other => {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected character `{other}`"),
                    })
                }
            }
        }
        Ok(out)
    }

    fn assert_lexes_like_the_oracle(src: &str) -> Result<(), TestCaseError> {
        let fast = tokenize(src).map(|ts| ts.into_iter().map(|(t, l)| (owned(t), l)).collect());
        prop_assert_eq!(fast, oracle_tokenize(src), "{:?}", src);
        // Total: every input parses or is refused, never a panic.
        let _ = parse_programs(src);
        Ok(())
    }

    /// Unicode letters and digits (some alphanumeric but not ASCII digits:
    /// `٣`, `²`, `Ⅻ`), the grammar's punctuation, and the whitespace
    /// `char::is_whitespace` knows beyond ASCII, listed twice as often as
    /// the characters no rule accepts (`@`, `€`, NUL).
    const LEXABLE: &[char] = &[
        'a', 'z', 'Q', '_', '.', '.', '0', '7', '9', '9', 'é', 'ß', 'Ж', '中', '٣', '²', 'Ⅻ', '-',
        '>', '>', '#', ' ', ' ', '{', '}', '(', ')', ';', ':', ',', '=', '\n', '\n', '\t', '\r',
        '\u{b}', '\u{a0}', '\u{85}', '\u{2028}', '\u{3000}', '@', '€', '\0',
    ];

    /// Whole words of the grammar, so a case gets past the lexer and into
    /// the parser's error paths.
    const WORDS: &[&str] = &[
        "program", "p", "q", "{", "}", "header", "metadata", "x", "meta.y", ":", "4", "0", "2.5",
        ";", "table", "t", "u", "key", "exact", "lpm", "actions", "a", "drop", "register",
        "forward", "(", ")", "=", "hash", "copy", "const", "fold_add", ",", "capacity", "resource",
        "0.5", "gate", "->", "# note\n", "\n", "é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lexer_agrees_with_the_char_by_char_oracle(
            picks in proptest::collection::vec(0..LEXABLE.len(), 0..48)
        ) {
            let src: String = picks.iter().map(|&k| LEXABLE[k]).collect();
            assert_lexes_like_the_oracle(&src)?;
        }

        #[test]
        fn grammar_words_lex_like_the_oracle_and_never_panic(
            picks in proptest::collection::vec(0..WORDS.len(), 0..40)
        ) {
            let src = picks.iter().map(|&k| WORDS[k]).collect::<Vec<_>>().join(" ");
            assert_lexes_like_the_oracle(&src)?;
        }
    }

    #[test]
    fn lexer_agrees_with_the_oracle_on_every_error_and_unicode_edge() {
        for src in [
            "",
            "-",
            "a-b",
            "x -> y",
            "1.2.3",
            "12abc",
            "٣x",
            "a\u{a0}b\n\u{2028}c",
            "# comment without newline",
            "a # comment\n#\n@",
            "ident.with.dots_and_é 3.25 €",
            COUNTER,
        ] {
            assert_lexes_like_the_oracle(src).unwrap();
        }
        let err = tokenize("p {\n\n  x €").unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (3, "unexpected character `€`"));
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
