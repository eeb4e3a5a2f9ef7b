//! Recursive-descent parser for the C subset.

use crate::ast::{Block, Expr, Function, Program, Stmt, StmtId, StmtKind};
use crate::lexer::{lex, LexError, Token, TokenKind};
use crate::span::Span;
use std::fmt;

/// Parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line of the offending token (0 = end of input).
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parse a translation unit.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
    };
    parser.program()
}

/// Deepest nesting of statements and expressions a source may have.
/// Parsing recurses once per level (a handful of frames for a
/// parenthesized expression), so deeper input is a [`ParseError`] rather
/// than a stack overflow that aborts the process. The limit is sized for
/// optimized frames (about 1.5 KB per level, so 64 levels fit a 256 KB
/// thread stack); unoptimized frames are several times larger, which is
/// why the workspace builds this crate at `opt-level = 3` in test builds.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Current statement/expression nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

/// Binary operator precedence levels, loosest first.
const BIN_LEVELS: [&[&str]; 10] = [
    &["||"],
    &["&&"],
    &["|"],
    &["^"],
    &["&"],
    &["==", "!="],
    &["<", "<=", ">", ">="],
    &["<<", ">>"],
    &["+", "-"],
    &["*", "/", "%"],
];

const ASSIGN_OPS: [&str; 5] = ["=", "+=", "-=", "*=", "/="];

impl Parser {
    /// Enter one more nesting level, refusing to pass [`MAX_DEPTH`]. The
    /// caller leaves it with `self.depth -= 1` on success; an error ends
    /// the parse, so it never needs to.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .map(|t| t.line)
            .unwrap_or(self.tokens.last().map(|t| t.line).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.line(),
        }
    }

    /// Span covering every token from `start` (inclusive) up to the
    /// current position (exclusive) — i.e. everything consumed since the
    /// caller recorded `start = self.pos`.
    fn span_since(&self, start: usize) -> Span {
        let first = match self.tokens.get(start) {
            Some(t) => t.span,
            None => return Span::default(),
        };
        let last = self
            .tokens
            .get(self.pos.saturating_sub(1))
            .map(|t| t.span)
            .unwrap_or(first);
        first.merge(last)
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Punct(x)) if x == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(TokenKind::Ident(n)) => Ok(n),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(n)) if n == name)
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut functions = Vec::new();
        while self.peek().is_some() {
            functions.push(self.function()?);
        }
        Ok(Program { functions })
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let ret = self.type_text()?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.at_punct(")") {
            loop {
                if self.at_ident("void")
                    && matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(TokenKind::Punct(p)) if p == ")")
                {
                    self.bump();
                    break;
                }
                let ty = self.type_text()?;
                let pname = self.ident()?;
                params.push((ty, pname));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Function {
            ret,
            name,
            params,
            body,
        })
    }

    /// Parse a type: one or more identifiers followed by `*`s.
    fn type_text(&mut self) -> Result<String, ParseError> {
        let mut words = vec![self.ident()?];
        // Multi-word types: `unsigned long`, `const char` …
        while matches!(self.peek(), Some(TokenKind::Ident(w))
            if is_type_continuation(words.last().unwrap(), w)
                && !matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct(p)) if p == "(" || p == "=" ))
        {
            // Only continue if the *next-next* token suggests this ident is
            // still part of the type (another ident, `*`).
            let after = self.tokens.get(self.pos + 1).map(|t| &t.kind);
            let continues = matches!(after, Some(TokenKind::Ident(_)))
                || matches!(after, Some(TokenKind::Punct(p)) if p == "*");
            if !continues {
                break;
            }
            words.push(self.ident()?);
        }
        let mut ty = words.join(" ");
        while self.eat_punct("*") {
            ty.push_str(" *");
        }
        Ok(ty)
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.at_punct("}") {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.statement()?);
        }
        self.expect_punct("}")?;
        Ok(Block { stmts })
    }

    /// A block, or a single statement promoted to a block (unbraced `if`
    /// bodies).
    fn block_or_stmt(&mut self) -> Result<Block, ParseError> {
        if self.at_punct("{") {
            self.block()
        } else {
            Ok(Block {
                stmts: vec![self.statement()?],
            })
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.pos;
        self.descend()?;
        let mut stmt = self.statement_unspanned()?;
        self.depth -= 1;
        stmt.span = self.span_since(start);
        Ok(stmt)
    }

    fn statement_unspanned(&mut self) -> Result<Stmt, ParseError> {
        let id = self.fresh_id();
        // Control flow keywords.
        if self.at_ident("if") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_block = self.block_or_stmt()?;
            let else_block = if self.at_ident("else") {
                self.bump();
                Some(self.block_or_stmt()?)
            } else {
                None
            };
            return Ok(Stmt::new(
                id,
                StmtKind::If {
                    cond,
                    then_block,
                    else_block,
                },
            ));
        }
        if self.at_ident("for") {
            self.bump();
            self.expect_punct("(")?;
            let init = Box::new(self.simple_statement()?);
            let cond = if self.at_punct(";") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            let update = if self.at_punct(")") {
                Box::new(Stmt::new(self.fresh_id(), StmtKind::Empty))
            } else {
                let uid = self.fresh_id();
                Box::new(self.statement_body(uid)?)
            };
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::new(
                id,
                StmtKind::For {
                    init,
                    cond,
                    update,
                    body,
                },
            ));
        }
        if self.at_ident("while") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::new(id, StmtKind::While { cond, body }));
        }
        if self.at_ident("do") {
            self.bump();
            let body = self.block()?;
            if !self.at_ident("while") {
                return Err(self.error("expected `while` after do-block"));
            }
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::new(id, StmtKind::DoWhile { body, cond }));
        }
        if self.at_ident("break") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt::new(id, StmtKind::Break));
        }
        if self.at_ident("continue") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt::new(id, StmtKind::Continue));
        }
        if self.at_ident("return") {
            self.bump();
            let value = if self.at_punct(";") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            return Ok(Stmt::new(id, StmtKind::Return(value)));
        }
        // Simple statements end in `;`.
        let stmt = self.statement_body(id)?;
        self.expect_punct(";")?;
        Ok(stmt)
    }

    /// `init;`-style statement for `for` headers — consumes trailing `;`.
    fn simple_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.pos;
        let mut stmt = self.simple_statement_unspanned()?;
        stmt.span = self.span_since(start);
        Ok(stmt)
    }

    fn simple_statement_unspanned(&mut self) -> Result<Stmt, ParseError> {
        let id = self.fresh_id();
        if self.at_punct(";") {
            self.bump();
            return Ok(Stmt::new(id, StmtKind::Empty));
        }
        let stmt = self.statement_body(id)?;
        self.expect_punct(";")?;
        Ok(stmt)
    }

    /// Declaration / assignment / expression without the trailing `;`.
    fn statement_body(&mut self, id: StmtId) -> Result<Stmt, ParseError> {
        let start = self.pos;
        let mut stmt = self.statement_body_unspanned(id)?;
        stmt.span = self.span_since(start);
        Ok(stmt)
    }

    fn statement_body_unspanned(&mut self, id: StmtId) -> Result<Stmt, ParseError> {
        if self.at_punct(";") || self.at_punct(")") {
            return Ok(Stmt::new(id, StmtKind::Empty));
        }
        // Try a declaration: type ident [array]? [= init]?
        if let Some(decl) = self.try_declaration(id)? {
            return Ok(decl);
        }
        // Expression or assignment.
        let lhs = self.expr()?;
        if let Some(TokenKind::Punct(p)) = self.peek() {
            if ASSIGN_OPS.contains(&p.as_str()) {
                let op = p.clone();
                self.bump();
                let rhs = self.expr()?;
                return Ok(Stmt::new(id, StmtKind::Assign { lhs, op, rhs }));
            }
        }
        Ok(Stmt::new(id, StmtKind::Expr(lhs)))
    }

    /// Attempt to parse a declaration, restoring position on failure.
    fn try_declaration(&mut self, id: StmtId) -> Result<Option<Stmt>, ParseError> {
        let start = self.pos;
        if !matches!(self.peek(), Some(TokenKind::Ident(_))) {
            return Ok(None);
        }
        let ty = match self.type_text() {
            Ok(t) => t,
            Err(_) => {
                self.pos = start;
                return Ok(None);
            }
        };
        // A declaration needs a following identifier (the variable name).
        let name = match self.peek() {
            Some(TokenKind::Ident(n)) => n.clone(),
            _ => {
                self.pos = start;
                return Ok(None);
            }
        };
        // Reject `foo (` (function call) and single-ident expressions.
        self.bump();
        let array = if self.at_punct("[") {
            self.bump();
            let mut text = String::from("[");
            loop {
                match self.bump() {
                    Some(TokenKind::Punct(p)) if p == "]" => {
                        text.push(']');
                        break;
                    }
                    Some(TokenKind::Int(v)) => text.push_str(&v.to_string()),
                    Some(TokenKind::Ident(n)) => text.push_str(&n),
                    Some(TokenKind::Punct(p)) => text.push_str(&p),
                    _ => {
                        self.pos = start;
                        return Ok(None);
                    }
                }
            }
            Some(text)
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            Some(self.expr()?)
        } else {
            None
        };
        // Must now be at `;` (or `,` which we do not support — restore).
        if !self.at_punct(";") && !self.at_punct(")") {
            self.pos = start;
            return Ok(None);
        }
        Ok(Some(Stmt::new(
            id,
            StmtKind::Decl {
                ty,
                name,
                array,
                init,
            },
        )))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let e = self.binary(0)?;
        self.depth -= 1;
        Ok(e)
    }

    /// Precedence climbing over [`BIN_LEVELS`]: a chain of operators of
    /// `level` or tighter, each left-associative. One frame per operand
    /// rather than one per precedence level keeps deep nesting cheap.
    fn binary(&mut self, level: usize) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op_level, op)) = self.binary_op(level) {
            self.bump();
            let rhs = self.binary(op_level + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    /// The binary operator at the cursor and its level, if it binds at
    /// `min_level` or tighter.
    fn binary_op(&self, min_level: usize) -> Option<(usize, String)> {
        let Some(TokenKind::Punct(p)) = self.peek() else {
            return None;
        };
        let level = BIN_LEVELS
            .iter()
            .position(|ops| ops.contains(&p.as_str()))?;
        (level >= min_level).then(|| (level, p.clone()))
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if let Some(TokenKind::Punct(p)) = self.peek() {
            if ["-", "!", "*", "&", "~", "++", "--"].contains(&p.as_str()) {
                let op = p.clone();
                self.bump();
                self.descend()?;
                let operand = self.unary()?;
                self.depth -= 1;
                return Ok(Expr::Unary {
                    op,
                    operand: Box::new(operand),
                });
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.at_punct("(") {
                // Only identifiers are callable in the subset.
                let name = match &e {
                    Expr::Ident(n) => n.clone(),
                    _ => return Err(self.error("only simple calls are supported")),
                };
                self.bump();
                let mut args = Vec::new();
                if !self.at_punct(")") {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                }
                self.expect_punct(")")?;
                e = Expr::Call { name, args };
            } else if self.at_punct("[") {
                self.bump();
                let index = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                };
            } else if self.at_punct(".") || self.at_punct("->") {
                let arrow = self.at_punct("->");
                self.bump();
                let field = self.ident()?;
                e = Expr::Member {
                    base: Box::new(e),
                    field,
                    arrow,
                };
            } else if self.at_punct("++") || self.at_punct("--") {
                let op = if self.at_punct("++") { "++" } else { "--" };
                self.bump();
                e = Expr::Postfix {
                    op: op.into(),
                    operand: Box::new(e),
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Some(TokenKind::Ident(n)) => Ok(Expr::Ident(n)),
            Some(TokenKind::Int(v)) => Ok(Expr::Int(v)),
            Some(TokenKind::Float(t)) => Ok(Expr::Float(t)),
            Some(TokenKind::Str(s)) => Ok(Expr::Str(s)),
            Some(TokenKind::Char(c)) => Ok(Expr::Char(c)),
            Some(TokenKind::Punct(p)) if p == "(" => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(ParseError {
                message: format!("expected expression, found {other:?}"),
                line,
            }),
        }
    }
}

/// Whether `next` can continue a multi-word type that currently ends with
/// `prev` (e.g. `unsigned` + `long`).
fn is_type_continuation(prev: &str, next: &str) -> bool {
    const QUALIFIERS: [&str; 6] = ["const", "unsigned", "signed", "struct", "static", "long"];
    const BASES: [&str; 7] = ["int", "long", "char", "short", "float", "double", "void"];
    QUALIFIERS.contains(&prev) && (BASES.contains(&next) || prev == "struct" || prev == "const")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;

    #[test]
    fn parses_simple_function() {
        let p = parse("int main() { return 0; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
        assert_eq!(p.functions[0].body.stmts.len(), 1);
    }

    #[test]
    fn parses_declaration_with_call_init() {
        let p = parse(r#"void f() { hid_t file_id = H5Fcreate("out.h5", 0); }"#).unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Decl { ty, name, init, .. } => {
                assert_eq!(ty, "hid_t");
                assert_eq!(name, "file_id");
                assert!(matches!(init, Some(Expr::Call { name, .. }) if name == "H5Fcreate"));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop_with_io() {
        let src = r#"
            void main() {
                for (int step = 0; step < 100; step++) {
                    H5Dwrite(dset, mem, data);
                }
            }
        "#;
        let p = parse(src).unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::For {
                init, cond, body, ..
            } => {
                assert!(matches!(init.kind, StmtKind::Decl { .. }));
                assert!(cond.is_some());
                assert_eq!(body.stmts.len(), 1);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_while() {
        let src = r#"
            void f() {
                if (rank == 0) { setup(); } else { wait(); }
                while (running) { step(); }
            }
        "#;
        let p = parse(src).unwrap();
        assert!(matches!(
            p.functions[0].body.stmts[0].kind,
            StmtKind::If { .. }
        ));
        assert!(matches!(
            p.functions[0].body.stmts[1].kind,
            StmtKind::While { .. }
        ));
    }

    #[test]
    fn parses_assignments_and_compound_ops() {
        let p = parse("void f() { x = y + 1; total += n; a[i] = b->c; }").unwrap();
        let stmts = &p.functions[0].body.stmts;
        assert!(matches!(&stmts[0].kind, StmtKind::Assign { op, .. } if op == "="));
        assert!(matches!(&stmts[1].kind, StmtKind::Assign { op, .. } if op == "+="));
        assert!(
            matches!(&stmts[2].kind, StmtKind::Assign { lhs, .. } if lhs.lvalue_root() == Some("a"))
        );
    }

    #[test]
    fn operator_precedence() {
        let p = parse("void f() { x = a + b * c; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Assign { rhs, .. } => match rhs {
                Expr::Binary { op, rhs, .. } => {
                    assert_eq!(op, "+");
                    assert!(matches!(&**rhs, Expr::Binary { op, .. } if op == "*"));
                }
                other => panic!("bad rhs {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stmt_ids_are_unique() {
        let src = r#"
            void f() {
                int a = 1;
                for (int i = 0; i < 3; i++) { a += i; }
                if (a > 1) { g(a); }
            }
        "#;
        let p = parse(src).unwrap();
        let mut ids = Vec::new();
        p.visit_stmts(|s, _| ids.push(s.id));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate statement ids");
    }

    #[test]
    fn pointer_types_and_params() {
        let p = parse("void f(double * data, int n) { double * p = data; }").unwrap();
        assert_eq!(p.functions[0].params.len(), 2);
        assert_eq!(p.functions[0].params[0].0, "double *");
        assert!(
            matches!(&p.functions[0].body.stmts[0].kind, StmtKind::Decl { ty, .. } if ty == "double *")
        );
    }

    #[test]
    fn array_declarations() {
        let p = parse("void f() { int dims[3]; dims[0] = 5; }").unwrap();
        assert!(matches!(
            &p.functions[0].body.stmts[0].kind,
            StmtKind::Decl { array: Some(a), .. } if a == "[3]"
        ));
    }

    #[test]
    fn statements_carry_source_spans() {
        let src = "void f() {\n    int x = g(1);\n    if (x > 0) {\n        h(x);\n    }\n}\n";
        let p = parse(src).unwrap();
        let stmts = &p.functions[0].body.stmts;
        // `int x = g(1);` covers line 2 columns 5..=17 (the `;`).
        assert_eq!(stmts[0].span.start, crate::span::Pos::new(2, 5));
        assert_eq!(stmts[0].span.end, crate::span::Pos::new(2, 17));
        // The `if` spans from its keyword to the closing brace.
        assert_eq!(stmts[1].span.start, crate::span::Pos::new(3, 5));
        assert_eq!(stmts[1].span.end.line, 5);
        // Nested statements carry their own tighter spans.
        match &stmts[1].kind {
            StmtKind::If { then_block, .. } => {
                let inner = &then_block.stmts[0];
                assert_eq!(inner.span.start, crate::span::Pos::new(4, 9));
                assert_eq!(inner.span.end.line, 4);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn for_header_children_carry_spans() {
        let p = parse("void f() { for (int i = 0; i < 3; i++) { g(i); } }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::For { init, update, .. } => {
                assert!(init.span.is_real(), "for-init has a span");
                assert!(update.span.is_real(), "for-update has a span");
                assert!(init.span.start.col < update.span.start.col);
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_with_line() {
        let err = parse("void f() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn postfix_and_unary_ops() {
        let p = parse("void f() { i++; --j; x = !y; }").unwrap();
        let stmts = &p.functions[0].body.stmts;
        assert!(matches!(&stmts[0].kind, StmtKind::Expr(Expr::Postfix { op, .. }) if op == "++"));
        assert!(matches!(&stmts[1].kind, StmtKind::Expr(Expr::Unary { op, .. }) if op == "--"));
    }
}

#[cfg(test)]
mod do_while_tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::printer::print_program;

    #[test]
    fn parses_and_prints_do_while() {
        let src = "void f() { int i = 0; do { H5Dwrite(d, b); i++; } while (i < 5); }";
        let prog = parse(src).unwrap();
        assert!(matches!(
            prog.functions[0].body.stmts[1].kind,
            StmtKind::DoWhile { .. }
        ));
        let printed = print_program(&prog);
        assert!(printed.text.contains("do"));
        assert!(printed.text.contains("while (i < 5);"));
        // Round-trips.
        let reparsed = parse(&printed.text).unwrap();
        assert_eq!(prog.stmt_count(), reparsed.stmt_count());
    }

    /// Hostile nesting is an error, not a stack overflow: each shape
    /// runs on a 256 KB stack, where 10,000 levels used to abort.
    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let deep = |open: &str, inner: &str, close: &str, n: usize| {
            format!(
                "void f() {{ {}{inner}{}; }}",
                open.repeat(n),
                close.repeat(n)
            )
        };
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                for src in [
                    deep("(", "x", ")", 10_000),
                    deep("-", "x", "", 10_000),
                    deep("a[", "0", "]", 10_000),
                    deep("f(", "1", ")", 10_000),
                    format!("void f() {{ {} x = 1; }}", "if (x) ".repeat(10_000)),
                ] {
                    let err = parse(&src).unwrap_err();
                    assert!(err.message.contains("nesting deeper than"), "{err}");
                }
                // Real code stays well inside the limit.
                let at_limit = deep("(", "x", ")", MAX_DEPTH - 2);
                assert!(parse(&at_limit).is_ok());
            })
            .unwrap();
        handle.join().expect("parser thread survived");
    }

    #[test]
    fn do_without_while_is_an_error() {
        assert!(parse("void f() { do { g(); } g(); }").is_err());
    }
}
