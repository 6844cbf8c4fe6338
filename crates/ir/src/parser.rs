//! Parser for the textual IR produced by [`crate::printer`].
//!
//! A hand-rolled tokenizer + recursive-descent parser. Together with the
//! printer it gives a printable/parsable IR, which the test suite uses for
//! round-trip properties and for writing readable pass test cases.

use crate::attrs::{AttrMap, Attribute, Effects};
use crate::module::{BlockId, Module, OpId, ValueId};
use crate::op::Opcode;
use crate::types::Type;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure, with a human-readable message and source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl Error for ParseError {}

/// How deep regions (`scf.for` / `scf.if` bodies) and attribute arrays may
/// nest. The parser, like the walker, verifier and printer behind it,
/// recurses once per level, so unbounded nesting in input text would
/// overflow the stack and abort the process (10 000 nested `scf.for` did,
/// on the main thread of a release build); generated IR nests 3 deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a module from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem encountered,
/// or naming the `{` or `[` that would nest deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// let text = r#"
/// module {
///   func.func @f(%0: i64) {
///     %1 = arith.addi(%0, %0) : i64
///     func.return()
///   }
/// }
/// "#;
/// let module = accfg_ir::parse_module(text)?;
/// assert!(module.func_by_name("f").is_some());
/// # Ok::<(), accfg_ir::ParseError>(())
/// ```
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let tokens = tokenize(text)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        module: Module::new(),
        values: HashMap::new(),
        depth: 0,
    };
    p.parse_module()?;
    Ok(p.module)
}

// --- tokenizer -----------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Value(String),
    Symbol(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Comma,
    Colon,
    Equal,
    Arrow,
    Hash,
    Bang,
    Eof,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
    column: usize,
}

fn tokenize(text: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    macro_rules! push {
        ($tok:expr, $l:expr, $c:expr) => {
            out.push(SpannedTok {
                tok: $tok,
                line: $l,
                column: $c,
            })
        };
    }
    while i < chars.len() {
        let (l, c) = (line, col);
        let ch = chars[i];
        let advance = |i: &mut usize, line: &mut usize, col: &mut usize| {
            if chars[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        };
        match ch {
            ' ' | '\t' | '\n' | '\r' => {
                advance(&mut i, &mut line, &mut col);
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    advance(&mut i, &mut line, &mut col);
                }
            }
            '(' => {
                push!(Tok::LParen, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            ')' => {
                push!(Tok::RParen, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '{' => {
                push!(Tok::LBrace, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '}' => {
                push!(Tok::RBrace, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '[' => {
                push!(Tok::LBracket, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            ']' => {
                push!(Tok::RBracket, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '<' => {
                push!(Tok::Lt, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '>' => {
                push!(Tok::Gt, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            ',' => {
                push!(Tok::Comma, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            ':' => {
                push!(Tok::Colon, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '=' => {
                push!(Tok::Equal, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '#' => {
                push!(Tok::Hash, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '!' => {
                push!(Tok::Bang, l, c);
                advance(&mut i, &mut line, &mut col);
            }
            '-' => {
                advance(&mut i, &mut line, &mut col);
                if i < chars.len() && chars[i] == '>' {
                    advance(&mut i, &mut line, &mut col);
                    push!(Tok::Arrow, l, c);
                } else if i < chars.len() && chars[i].is_ascii_digit() {
                    let mut n = String::from("-");
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        n.push(chars[i]);
                        advance(&mut i, &mut line, &mut col);
                    }
                    let v = n.parse().map_err(|_| ParseError {
                        message: format!("invalid integer `{n}`"),
                        line: l,
                        column: c,
                    })?;
                    push!(Tok::Int(v), l, c);
                } else {
                    return Err(ParseError {
                        message: "unexpected `-`".into(),
                        line: l,
                        column: c,
                    });
                }
            }
            '%' => {
                advance(&mut i, &mut line, &mut col);
                let mut name = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    name.push(chars[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                if name.is_empty() {
                    return Err(ParseError {
                        message: "empty value name after `%`".into(),
                        line: l,
                        column: c,
                    });
                }
                push!(Tok::Value(name), l, c);
            }
            '@' => {
                advance(&mut i, &mut line, &mut col);
                let mut name = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    name.push(chars[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                push!(Tok::Symbol(name), l, c);
            }
            '"' => {
                advance(&mut i, &mut line, &mut col);
                let mut s = String::new();
                loop {
                    if i >= chars.len() {
                        return Err(ParseError {
                            message: "unterminated string".into(),
                            line: l,
                            column: c,
                        });
                    }
                    match chars[i] {
                        '"' => {
                            advance(&mut i, &mut line, &mut col);
                            break;
                        }
                        '\\' => {
                            advance(&mut i, &mut line, &mut col);
                            if i >= chars.len() {
                                return Err(ParseError {
                                    message: "unterminated escape".into(),
                                    line: l,
                                    column: c,
                                });
                            }
                            match chars[i] {
                                'n' => s.push('\n'),
                                other => s.push(other),
                            }
                            advance(&mut i, &mut line, &mut col);
                        }
                        other => {
                            s.push(other);
                            advance(&mut i, &mut line, &mut col);
                        }
                    }
                }
                push!(Tok::Str(s), l, c);
            }
            d if d.is_ascii_digit() => {
                let mut n = String::new();
                while i < chars.len() && chars[i].is_ascii_digit() {
                    n.push(chars[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                let v = n.parse().map_err(|_| ParseError {
                    message: format!("invalid integer `{n}`"),
                    line: l,
                    column: c,
                })?;
                push!(Tok::Int(v), l, c);
            }
            a if a.is_alphabetic() || a == '_' => {
                let mut name = String::new();
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    name.push(chars[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                push!(Tok::Ident(name), l, c);
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character `{other}`"),
                    line: l,
                    column: c,
                })
            }
        }
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        line,
        column: col,
    });
    Ok(out)
}

// --- parser ----------------------------------------------------------------------

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    module: Module,
    values: HashMap<String, ValueId>,
    /// Region bodies and attribute arrays currently open around `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = &self.tokens[self.pos];
        Err(ParseError {
            message: message.into(),
            line: t.line,
            column: t.column,
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok:?}, found {:?}", self.peek()))
        }
    }

    fn expect_ident(&mut self, word: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == word => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{word}`, found {other:?}")),
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn parse_value_name(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Value(n) => Ok(n),
            other => {
                self.pos -= 1;
                self.err(format!("expected value (%name), found {other:?}"))
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<ValueId, ParseError> {
        self.values.get(name).copied().ok_or_else(|| {
            let t = &self.tokens[self.pos.saturating_sub(1)];
            ParseError {
                message: format!("use of undefined value %{name}"),
                line: t.line,
                column: t.column,
            }
        })
    }

    fn parse_operand(&mut self) -> Result<ValueId, ParseError> {
        let name = self.parse_value_name()?;
        self.lookup(&name)
    }

    /// Runs `inner` one nesting level down, refusing to pass [`MAX_DEPTH`].
    /// Call it with the parser positioned just past the opening bracket,
    /// so the error names that bracket.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            self.pos -= 1;
            return self.err(format!("nesting deeper than the limit of {MAX_DEPTH}"));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn parse_module(&mut self) -> Result<(), ParseError> {
        let wrapped = self.eat_ident("module");
        if wrapped {
            self.expect(Tok::LBrace)?;
        }
        loop {
            match self.peek() {
                Tok::Ident(s) if s == "func.func" => self.parse_func()?,
                Tok::RBrace if wrapped => {
                    self.bump();
                    break;
                }
                Tok::Eof if !wrapped => break,
                _ => return self.err("expected `func.func` or end of module"),
            }
        }
        match self.peek() {
            Tok::Eof => Ok(()),
            _ => self.err("trailing input after module"),
        }
    }

    fn parse_func(&mut self) -> Result<(), ParseError> {
        self.expect_ident("func.func")?;
        let name = match self.bump() {
            Tok::Symbol(s) => s,
            other => {
                self.pos -= 1;
                return self.err(format!("expected @symbol, found {other:?}"));
            }
        };
        self.expect(Tok::LParen)?;
        let region = self.module.create_region();
        let block = self.module.create_block(region);
        if *self.peek() != Tok::RParen {
            loop {
                let vname = self.parse_value_name()?;
                self.expect(Tok::Colon)?;
                let ty = self.parse_type()?;
                let arg = self.module.add_block_arg(block, ty);
                self.values.insert(vname, arg);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        self.parse_block_body(block)?;
        let func =
            self.module
                .create_op(Opcode::Func, vec![], vec![], AttrMap::new(), vec![region]);
        self.module.set_attr(func, "sym_name", Attribute::Str(name));
        self.module.add_func(func);
        Ok(())
    }

    /// Parses ops until the closing `}` (consumed).
    fn parse_block_body(&mut self, block: BlockId) -> Result<(), ParseError> {
        loop {
            if *self.peek() == Tok::RBrace {
                self.bump();
                return Ok(());
            }
            self.parse_op(block)?;
        }
    }

    fn parse_op(&mut self, block: BlockId) -> Result<OpId, ParseError> {
        // optional results prefix: %a, %b = ...
        let mut result_names = Vec::new();
        if matches!(self.peek(), Tok::Value(_)) {
            loop {
                let n = self.parse_value_name()?;
                result_names.push(n);
                match self.peek() {
                    Tok::Comma => {
                        self.bump();
                    }
                    Tok::Equal => {
                        self.bump();
                        break;
                    }
                    _ => return self.err("expected `,` or `=` after result list"),
                }
            }
        }
        let opname = match self.bump() {
            Tok::Ident(s) => s,
            other => {
                self.pos -= 1;
                return self.err(format!("expected op name, found {other:?}"));
            }
        };
        match opname.as_str() {
            "scf.for" => self.parse_for(block, result_names),
            "scf.if" => self.parse_if(block, result_names),
            "accfg.setup" => self.parse_setup(block, result_names),
            "accfg.launch" => self.parse_launch(block, result_names),
            "accfg.await" => self.parse_await(block, result_names),
            _ => self.parse_generic(block, &opname, result_names),
        }
    }

    fn bind_results(&mut self, op: OpId, names: Vec<String>) -> Result<OpId, ParseError> {
        let results = self.module.op(op).results.clone();
        if results.len() != names.len() {
            return self.err(format!(
                "op has {} results but {} names were bound",
                results.len(),
                names.len()
            ));
        }
        for (name, value) in names.into_iter().zip(results.iter().copied()) {
            self.values.insert(name, value);
        }
        Ok(op)
    }

    fn parse_generic(
        &mut self,
        block: BlockId,
        opname: &str,
        result_names: Vec<String>,
    ) -> Result<OpId, ParseError> {
        let opcode = match Opcode::from_name(opname) {
            Some(o) => o,
            None => return self.err(format!("unknown op `{opname}`")),
        };
        self.expect(Tok::LParen)?;
        let mut operands = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                operands.push(self.parse_operand()?);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
        }
        self.expect(Tok::RParen)?;
        let attrs = self.parse_attr_dict()?;
        let mut result_types = Vec::new();
        if *self.peek() == Tok::Colon {
            self.bump();
            loop {
                result_types.push(self.parse_type()?);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
        }
        let op = self
            .module
            .create_op(opcode, operands, result_types, attrs, vec![]);
        self.module.append_op(block, op);
        self.bind_results(op, result_names)
    }

    fn parse_attr_dict(&mut self) -> Result<AttrMap, ParseError> {
        let mut attrs = AttrMap::new();
        if *self.peek() != Tok::LBrace {
            return Ok(attrs);
        }
        // `{` can also open a region body (scf.for / scf.if). An attr dict is
        // `{ ident = ...` or `{}`; a body starts with `%value` or `ident(`.
        let is_dict = matches!(
            (
                self.peek2(),
                &self.tokens[(self.pos + 2).min(self.tokens.len() - 1)].tok
            ),
            (Tok::RBrace, _) | (Tok::Ident(_), Tok::Equal)
        );
        if !is_dict {
            return Ok(attrs);
        }
        self.bump();
        if *self.peek() != Tok::RBrace {
            loop {
                let key = match self.bump() {
                    Tok::Ident(s) => s,
                    other => {
                        self.pos -= 1;
                        return self.err(format!("expected attribute name, found {other:?}"));
                    }
                };
                self.expect(Tok::Equal)?;
                let value = self.parse_attr()?;
                attrs.insert(key.into(), value);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(attrs)
    }

    fn parse_attr(&mut self) -> Result<Attribute, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Attribute::Int(v)),
            Tok::Str(s) => Ok(Attribute::Str(s)),
            Tok::Ident(s) if s == "true" => Ok(Attribute::Bool(true)),
            Tok::Ident(s) if s == "false" => Ok(Attribute::Bool(false)),
            Tok::LBracket => self.nested(|p| {
                let mut items = Vec::new();
                if *p.peek() != Tok::RBracket {
                    loop {
                        items.push(p.parse_attr()?);
                        if !matches!(p.peek(), Tok::Comma) {
                            break;
                        }
                        p.bump();
                    }
                }
                p.expect(Tok::RBracket)?;
                Ok(Attribute::Array(items))
            }),
            Tok::Hash => {
                self.expect_ident("accfg.effects")?;
                self.expect(Tok::Lt)?;
                let e = match self.bump() {
                    Tok::Ident(s) if s == "all" => Effects::All,
                    Tok::Ident(s) if s == "none" => Effects::None,
                    other => {
                        self.pos -= 1;
                        return self.err(format!("expected `all` or `none`, found {other:?}"));
                    }
                };
                self.expect(Tok::Gt)?;
                Ok(Attribute::Effects(e))
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected attribute, found {other:?}"))
            }
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.bump() {
            Tok::Ident(s) => match s.as_str() {
                "i1" => Ok(Type::I1),
                "i8" => Ok(Type::I8),
                "i16" => Ok(Type::I16),
                "i32" => Ok(Type::I32),
                "i64" => Ok(Type::I64),
                "index" => Ok(Type::Index),
                other => {
                    self.pos -= 1;
                    self.err(format!("unknown type `{other}`"))
                }
            },
            Tok::Bang => {
                let kind = match self.bump() {
                    Tok::Ident(s) => s,
                    other => {
                        self.pos -= 1;
                        return self.err(format!("expected accfg type name, found {other:?}"));
                    }
                };
                self.expect(Tok::Lt)?;
                let accel = match self.bump() {
                    Tok::Str(s) => s,
                    other => {
                        self.pos -= 1;
                        return self.err(format!("expected accelerator string, found {other:?}"));
                    }
                };
                self.expect(Tok::Gt)?;
                match kind.as_str() {
                    "accfg.state" => Ok(Type::state(accel)),
                    "accfg.token" => Ok(Type::token(accel)),
                    other => self.err(format!("unknown accfg type `{other}`")),
                }
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected type, found {other:?}"))
            }
        }
    }

    /// Appends an accfg op addressing `accel` to `block`. What the printed
    /// form spells outside the attribute dictionary is not an attribute: a
    /// dictionary entry named like it is dropped, as the printer always
    /// skipped it.
    fn accfg_op(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        accel: &str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        mut attrs: AttrMap,
    ) -> OpId {
        attrs.remove("accelerator");
        let op = self
            .module
            .create_op(opcode, operands, result_types, attrs, vec![]);
        let accel = self.module.intern(accel);
        self.module.set_accelerator(op, accel);
        self.module.append_op(block, op);
        op
    }

    fn parse_setup(
        &mut self,
        block: BlockId,
        result_names: Vec<String>,
    ) -> Result<OpId, ParseError> {
        let accel = match self.bump() {
            Tok::Str(s) => s,
            other => {
                self.pos -= 1;
                return self.err(format!("expected accelerator string, found {other:?}"));
            }
        };
        let mut operands = Vec::new();
        let has_input = if self.eat_ident("from") {
            operands.push(self.parse_operand()?);
            true
        } else {
            false
        };
        self.expect_ident("to")?;
        self.expect(Tok::LParen)?;
        let mut field_names = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let fname = match self.bump() {
                    Tok::Str(s) => s,
                    other => {
                        self.pos -= 1;
                        return self.err(format!("expected field name string, found {other:?}"));
                    }
                };
                self.expect(Tok::Equal)?;
                operands.push(self.parse_operand()?);
                field_names.push(self.module.intern(&fname));
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
        }
        self.expect(Tok::RParen)?;
        let mut attrs = self.parse_attr_dict()?;
        attrs.remove("fields");
        attrs.remove("has_input_state");
        self.expect(Tok::Colon)?;
        let ty = self.parse_type()?;
        let op = self.accfg_op(block, Opcode::AccfgSetup, &accel, operands, vec![ty], attrs);
        self.module.set_setup_fields(op, field_names);
        self.module.set_has_input_state(op, has_input);
        self.bind_results(op, result_names)
    }

    fn parse_launch(
        &mut self,
        block: BlockId,
        result_names: Vec<String>,
    ) -> Result<OpId, ParseError> {
        let accel = match self.bump() {
            Tok::Str(s) => s,
            other => {
                self.pos -= 1;
                return self.err(format!("expected accelerator string, found {other:?}"));
            }
        };
        self.expect_ident("with")?;
        let state = self.parse_operand()?;
        let attrs = self.parse_attr_dict()?;
        self.expect(Tok::Colon)?;
        let ty = self.parse_type()?;
        let op = self.accfg_op(
            block,
            Opcode::AccfgLaunch,
            &accel,
            vec![state],
            vec![ty],
            attrs,
        );
        self.bind_results(op, result_names)
    }

    fn parse_await(
        &mut self,
        block: BlockId,
        result_names: Vec<String>,
    ) -> Result<OpId, ParseError> {
        let accel = match self.bump() {
            Tok::Str(s) => s,
            other => {
                self.pos -= 1;
                return self.err(format!("expected accelerator string, found {other:?}"));
            }
        };
        let token = self.parse_operand()?;
        let attrs = self.parse_attr_dict()?;
        let op = self.accfg_op(
            block,
            Opcode::AccfgAwait,
            &accel,
            vec![token],
            vec![],
            attrs,
        );
        self.bind_results(op, result_names)
    }

    fn parse_for(&mut self, block: BlockId, result_names: Vec<String>) -> Result<OpId, ParseError> {
        let iv_name = self.parse_value_name()?;
        self.expect(Tok::Equal)?;
        let lb = self.parse_operand()?;
        self.expect_ident("to")?;
        let ub = self.parse_operand()?;
        self.expect_ident("step")?;
        let step = self.parse_operand()?;

        let region = self.module.create_region();
        let body = self.module.create_block(region);
        let iv = self.module.add_block_arg(body, Type::Index);
        self.values.insert(iv_name, iv);

        let mut operands = vec![lb, ub, step];
        let mut result_types = Vec::new();
        if self.eat_ident("iter_args") {
            self.expect(Tok::LParen)?;
            let mut pending = Vec::new();
            loop {
                let arg_name = self.parse_value_name()?;
                self.expect(Tok::Equal)?;
                let init = self.parse_operand()?;
                pending.push((arg_name, init));
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(Tok::RParen)?;
            self.expect(Tok::Arrow)?;
            self.expect(Tok::LParen)?;
            loop {
                result_types.push(self.parse_type()?);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(Tok::RParen)?;
            if result_types.len() != pending.len() {
                return self.err("iter_args count must match result type count");
            }
            for ((arg_name, init), ty) in pending.into_iter().zip(result_types.iter()) {
                let arg = self.module.add_block_arg(body, ty.clone());
                self.values.insert(arg_name, arg);
                operands.push(init);
            }
        }
        let attrs = self.parse_attr_dict()?;
        self.expect(Tok::LBrace)?;
        self.nested(|p| p.parse_block_body(body))?;
        let op = self
            .module
            .create_op(Opcode::For, operands, result_types, attrs, vec![region]);
        self.module.append_op(block, op);
        self.bind_results(op, result_names)
    }

    fn parse_if(&mut self, block: BlockId, result_names: Vec<String>) -> Result<OpId, ParseError> {
        let cond = self.parse_operand()?;
        let mut result_types = Vec::new();
        if *self.peek() == Tok::Arrow {
            self.bump();
            self.expect(Tok::LParen)?;
            loop {
                result_types.push(self.parse_type()?);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(Tok::RParen)?;
        }
        let attrs = self.parse_attr_dict()?;
        self.expect_ident("then")?;
        self.expect(Tok::LBrace)?;
        let then_region = self.module.create_region();
        let then_block = self.module.create_block(then_region);
        self.nested(|p| p.parse_block_body(then_block))?;
        self.expect_ident("else")?;
        self.expect(Tok::LBrace)?;
        let else_region = self.module.create_region();
        let else_block = self.module.create_block(else_region);
        self.nested(|p| p.parse_block_body(else_block))?;
        let op = self.module.create_op(
            Opcode::If,
            vec![cond],
            result_types,
            attrs,
            vec![then_region, else_region],
        );
        self.module.append_op(block, op);
        self.bind_results(op, result_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    #[test]
    fn parses_simple_func() {
        let text = r#"
        module {
          func.func @f(%a: i64, %b: i64) {
            %c = arith.addi(%a, %b) : i64
            func.return()
          }
        }
        "#;
        let m = parse_module(text).unwrap();
        assert!(m.func_by_name("f").is_some());
        assert_eq!(m.walk_module().len(), 3);
    }

    #[test]
    fn attributes_written_out_of_order_print_in_name_order_and_round_trip() {
        let text = r#"
        func.func @f(%a: i64) {
          opaque.op(%a) {name = "printf", effects = #accfg.effects<none>, callee = "x", name = "puts"}
          func.return()
        }
        "#;
        let m = parse_module(text).unwrap();
        let printed = print_module(&m);
        // sorted by name, and a repeated name keeps its last value
        assert!(
            printed.contains(
                r#"opaque.op(%0) {callee = "x", effects = #accfg.effects<none>, name = "puts"}"#
            ),
            "{printed}"
        );
        assert_eq!(print_module(&parse_module(&printed).unwrap()), printed);
    }

    #[test]
    fn parses_accfg_cluster() {
        let text = r#"
        func.func @f() {
          %x = arith.constant() {value = 64} : index
          %s = accfg.setup "gemm" to ("x" = %x, "y" = %x) : !accfg.state<"gemm">
          %s2 = accfg.setup "gemm" from %s to ("x" = %x) : !accfg.state<"gemm">
          %t = accfg.launch "gemm" with %s2 : !accfg.token<"gemm">
          accfg.await "gemm" %t
          func.return()
        }
        "#;
        let m = parse_module(text).unwrap();
        let ops = m.walk_module();
        assert_eq!(ops.len(), 7);
    }

    #[test]
    fn parses_for_with_iter_args() {
        let text = r#"
        func.func @f() {
          %lb = arith.constant() {value = 0} : index
          %ub = arith.constant() {value = 16} : index
          %st = arith.constant() {value = 1} : index
          %init = arith.constant() {value = 0} : i64
          %r = scf.for %i = %lb to %ub step %st iter_args(%acc = %init) -> (i64) {
            %next = arith.addi(%acc, %acc) : i64
            scf.yield(%next)
          }
          func.return()
        }
        "#;
        let m = parse_module(text).unwrap();
        let func = m.func_by_name("f").unwrap();
        let for_op = m
            .walk_collect(func)
            .into_iter()
            .find(|&o| m.op(o).opcode == Opcode::For)
            .unwrap();
        assert_eq!(m.op(for_op).operands.len(), 4);
        assert_eq!(m.op(for_op).results.len(), 1);
    }

    #[test]
    fn parses_if_then_else() {
        let text = r#"
        func.func @f(%c: i1) {
          %r = scf.if %c -> (i64) then {
            %a = arith.constant() {value = 1} : i64
            scf.yield(%a)
          } else {
            %b = arith.constant() {value = 2} : i64
            scf.yield(%b)
          }
          func.return()
        }
        "#;
        let m = parse_module(text).unwrap();
        assert!(m.func_by_name("f").is_some());
    }

    #[test]
    fn error_on_undefined_value() {
        let text = r#"
        func.func @f() {
          %c = arith.addi(%missing, %missing) : i64
          func.return()
        }
        "#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
    }

    #[test]
    fn error_reports_position() {
        let err = parse_module("garbage !!").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn round_trips_through_printer() {
        let text = r#"
        func.func @f(%p: i64) {
          %lb = arith.constant() {value = 0} : index
          %ub = arith.constant() {value = 4} : index
          %st = arith.constant() {value = 1} : index
          %s0 = accfg.setup "acc" to ("A" = %p) : !accfg.state<"acc">
          %r = scf.for %i = %lb to %ub step %st iter_args(%s = %s0) -> (!accfg.state<"acc">) {
            %s1 = accfg.setup "acc" from %s to ("i" = %i) : !accfg.state<"acc">
            %t = accfg.launch "acc" with %s1 : !accfg.token<"acc">
            accfg.await "acc" %t
            scf.yield(%s1)
          }
          func.return()
        }
        "#;
        let m1 = parse_module(text).unwrap();
        let p1 = print_module(&m1);
        let m2 = parse_module(&p1).unwrap();
        let p2 = print_module(&m2);
        assert_eq!(p1, p2);
    }
}
