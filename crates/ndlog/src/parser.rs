//! Recursive-descent parser for NDlog programs.
//!
//! Grammar (terminals in caps):
//!
//! ```text
//! program  := rule*
//! rule     := LABEL atom ":-" item ("," item)* "."
//! item     := atom | expr CMPOP expr | VAR ":=" expr
//! atom     := RELNAME "(" "@"? term ("," term)* ")"
//! term     := VAR | const
//! expr     := addend (("+"|"-") addend)*
//! addend   := factor (("*"|"/") factor)*
//! factor   := VAR | const | FNAME "(" expr ("," expr)* ")" | "(" expr ")"
//! const    := INT | STRING | BOOL
//! ```
//!
//! Identifier case distinguishes variables (leading uppercase) from
//! relation/function names (leading lowercase or `_`); function names carry
//! the conventional `f_` prefix, which is how a body item starting with a
//! lowercase identifier followed by `(` is disambiguated between a
//! relational atom and a constraint on a function call.
//!
//! Every AST node is stamped with the [`Span`] of the tokens it was parsed
//! from, and every parse error reports the offending token's line/column
//! plus the set of tokens that would have been accepted at that point.

use dpc_common::{Error, Result, Value};

use crate::ast::{Atom, BinOp, BodyItem, CmpOp, Expr, ExprKind, Program, Rule, Term, TermKind};
use crate::lexer::{lex, Token, TokenKind};
use crate::span::Span;

/// Parse NDlog source text into a [`Program`].
pub fn parse_program(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    Parser { tokens, pos: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Span of the token the parser is currently looking at. Past the end
    /// of input this is a zero-width span just after the last token, so
    /// "unexpected end of input" errors point past the final token rather
    /// than at it.
    fn cur_span(&self) -> Span {
        if let Some(t) = self.tokens.get(self.pos) {
            return t.span;
        }
        match self.tokens.last() {
            Some(t) => {
                let width = t.span.end.saturating_sub(t.span.start);
                Span::new(t.span.end, t.span.end, t.span.line, t.span.col + width)
            }
            None => Span::DUMMY,
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> Error {
        let span = self.cur_span();
        Error::Parse {
            line: span.line,
            col: span.col,
            msg: msg.into(),
        }
    }

    fn found(&self) -> String {
        self.peek()
            .map_or_else(|| "end of input".into(), TokenKind::describe)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        match self.peek() {
            Some(k) if k == kind => Ok(self.bump().expect("peeked a token")),
            _ => Err(self.err_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.found()
            ))),
        }
    }

    /// Consume an identifier, returning its text and span.
    fn ident(&mut self) -> Result<(String, Span)> {
        match self.peek() {
            Some(TokenKind::Ident(_)) => {
                let tok = self.bump().expect("peeked an identifier");
                match tok.kind {
                    TokenKind::Ident(s) => Ok((s, tok.span)),
                    _ => unreachable!("peeked an identifier"),
                }
            }
            _ => Err(self.err_here(format!("expected identifier, found {}", self.found()))),
        }
    }

    fn program(mut self) -> Result<Program> {
        let mut rules: Vec<Rule> = Vec::new();
        while self.peek().is_some() {
            let rule = self.rule()?;
            // Rule labels must be unique — provenance identifies rule
            // executions partly by label. Report the duplicate at the
            // *second* occurrence, pointing back at the first.
            if let Some(first) = rules.iter().find(|r| r.label == rule.label) {
                return Err(Error::Parse {
                    line: rule.label_span.line,
                    col: rule.label_span.col,
                    msg: format!(
                        "duplicate rule label `{}` (first defined at {}:{})",
                        rule.label, first.label_span.line, first.label_span.col
                    ),
                });
            }
            rules.push(rule);
        }
        Ok(Program { rules })
    }

    fn rule(&mut self) -> Result<Rule> {
        let (label, label_span) = self.ident()?;
        if !label.starts_with(|c: char| c.is_ascii_lowercase()) {
            return Err(Error::Parse {
                line: label_span.line,
                col: label_span.col,
                msg: format!("rule label `{label}` must start with a lowercase letter"),
            });
        }
        let head = self.atom()?;
        self.expect(&TokenKind::ColonDash)?;
        let mut body = vec![self.body_item()?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.bump();
            body.push(self.body_item()?);
        }
        let period = self.expect(&TokenKind::Period)?;
        Ok(Rule {
            label,
            head,
            body,
            span: label_span.join(period.span),
            label_span,
        })
    }

    fn body_item(&mut self) -> Result<BodyItem> {
        match (self.peek(), self.peek2()) {
            // `Var := expr`
            (Some(TokenKind::Ident(v)), Some(TokenKind::ColonEq)) if is_var_name(v) => {
                let (var, var_span) = self.ident()?;
                self.bump(); // :=
                let expr = self.expr()?;
                Ok(BodyItem::Assign {
                    var,
                    var_span,
                    expr,
                })
            }
            // `rel(...)` — a relational atom, unless the name is a function
            // (`f_` prefix), in which case it must be part of a constraint.
            (Some(TokenKind::Ident(name)), Some(TokenKind::LParen))
                if !is_var_name(name) && !is_fn_name(name) =>
            {
                Ok(BodyItem::Atom(self.atom()?))
            }
            // Anything else: `expr CMPOP expr`.
            _ => {
                let left = self.expr()?;
                let op = self.cmp_op()?;
                let right = self.expr()?;
                Ok(BodyItem::constraint(left, op, right))
            }
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek() {
            Some(TokenKind::EqEq) => CmpOp::Eq,
            Some(TokenKind::NotEq) => CmpOp::Ne,
            Some(TokenKind::Lt) => CmpOp::Lt,
            Some(TokenKind::Le) => CmpOp::Le,
            Some(TokenKind::Gt) => CmpOp::Gt,
            Some(TokenKind::Ge) => CmpOp::Ge,
            _ => {
                return Err(self.err_here(format!(
                    "expected comparison operator (one of `==`, `!=`, `<`, `<=`, `>`, `>=`), \
                     found {}",
                    self.found()
                )))
            }
        };
        self.bump();
        Ok(op)
    }

    fn atom(&mut self) -> Result<Atom> {
        let (rel, rel_span) = self.ident()?;
        if is_var_name(&rel) {
            return Err(Error::Parse {
                line: rel_span.line,
                col: rel_span.col,
                msg: format!("relation name `{rel}` must start with a lowercase letter"),
            });
        }
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        // The `@` location marker is permitted (and conventional) on the
        // first argument only.
        if self.peek() == Some(&TokenKind::At) {
            self.bump();
        }
        args.push(self.term()?);
        while self.peek() == Some(&TokenKind::Comma) {
            self.bump();
            if self.peek() == Some(&TokenKind::At) {
                return Err(self.err_here("`@` is only allowed on the first attribute"));
            }
            args.push(self.term()?);
        }
        let rparen = self.expect(&TokenKind::RParen)?;
        Ok(Atom {
            rel,
            args,
            span: rel_span.join(rparen.span),
        })
    }

    fn term(&mut self) -> Result<Term> {
        match self.peek() {
            Some(TokenKind::Ident(name)) if is_var_name(name) => {
                let (name, span) = self.ident()?;
                Ok(Term::new(TermKind::Var(name), span))
            }
            Some(TokenKind::Int(_)) | Some(TokenKind::Str(_)) | Some(TokenKind::Bool(_)) => {
                let span = self.cur_span();
                Ok(Term::new(TermKind::Const(self.constant()?), span))
            }
            _ => Err(self.err_here(format!(
                "expected variable or constant (integer, string or boolean), found {}",
                self.found()
            ))),
        }
    }

    fn constant(&mut self) -> Result<Value> {
        match self.peek() {
            Some(TokenKind::Int(_)) | Some(TokenKind::Str(_)) | Some(TokenKind::Bool(_)) => {
                match self.bump().map(|t| t.kind) {
                    Some(TokenKind::Int(i)) => Ok(Value::Int(i)),
                    Some(TokenKind::Str(s)) => Ok(Value::str(s)),
                    Some(TokenKind::Bool(b)) => Ok(Value::Bool(b)),
                    _ => unreachable!("peeked a constant"),
                }
            }
            _ => Err(self.err_here(format!(
                "expected constant (integer, string or boolean), found {}",
                self.found()
            ))),
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.addend()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.addend()?;
            left = Expr::binop(op, left, right);
        }
        Ok(left)
    }

    fn addend(&mut self) -> Result<Expr> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.factor()?;
            left = Expr::binop(op, left, right);
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(TokenKind::LParen) => {
                let lparen = self.cur_span();
                self.bump();
                let mut e = self.expr()?;
                let rparen = self.expect(&TokenKind::RParen)?;
                e.span = lparen.join(rparen.span);
                Ok(e)
            }
            Some(TokenKind::Ident(name)) if is_var_name(name) => {
                let (name, span) = self.ident()?;
                Ok(Expr::new(ExprKind::Var(name), span))
            }
            Some(TokenKind::Ident(name)) if is_fn_name(name) => {
                let (name, name_span) = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let mut args = vec![self.expr()?];
                while self.peek() == Some(&TokenKind::Comma) {
                    self.bump();
                    args.push(self.expr()?);
                }
                let rparen = self.expect(&TokenKind::RParen)?;
                Ok(Expr::new(
                    ExprKind::Call(name, args),
                    name_span.join(rparen.span),
                ))
            }
            Some(TokenKind::Int(_)) | Some(TokenKind::Str(_)) | Some(TokenKind::Bool(_)) => {
                let span = self.cur_span();
                Ok(Expr::new(ExprKind::Const(self.constant()?), span))
            }
            _ => Err(self.err_here(format!(
                "expected expression (variable, constant, function call or `(`), found {}",
                self.found()
            ))),
        }
    }
}

/// Does an identifier denote a variable (leading uppercase)?
pub fn is_var_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase())
}

/// Does an identifier denote a user-defined function (`f_` prefix)?
pub fn is_fn_name(name: &str) -> bool {
    name.starts_with("f_")
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORWARDING: &str = r#"
        r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
        r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
    "#;

    #[test]
    fn parse_packet_forwarding() {
        let p = parse_program(FORWARDING).unwrap();
        assert_eq!(p.rules.len(), 2);
        let r1 = p.rule("r1").unwrap();
        assert_eq!(r1.head.rel, "packet");
        assert_eq!(r1.head.args[0], Term::var("N"));
        assert_eq!(r1.event().unwrap().rel, "packet");
        assert_eq!(r1.condition_atoms().count(), 1);
        let r2 = p.rule("r2").unwrap();
        assert_eq!(r2.constraints().count(), 1);
    }

    #[test]
    fn parse_dns_program_with_function_call() {
        let src = r#"
            r2 request(@SV, URL, HST, RQID) :- request(@X, URL, HST, RQID),
                nameServer(@X, DM, SV), f_isSubDomain(DM, URL) == true.
        "#;
        let p = parse_program(src).unwrap();
        let r2 = &p.rules[0];
        assert_eq!(r2.body.len(), 3);
        match &r2.body[2] {
            BodyItem::Constraint {
                left, op, right, ..
            } => {
                assert_eq!(*op, CmpOp::Eq);
                assert!(
                    matches!(&left.kind, ExprKind::Call(name, args) if name == "f_isSubDomain" && args.len() == 2)
                );
                assert_eq!(*right, Expr::cnst(Value::Bool(true)));
            }
            other => panic!("expected constraint, got {other:?}"),
        }
    }

    #[test]
    fn parse_assignment() {
        let src = "r2 recv(@L, S, N, DT) :- packet(@L, S, D, DT), N := L + 2.";
        let p = parse_program(src).unwrap();
        match &p.rules[0].body[1] {
            BodyItem::Assign { var, expr, .. } => {
                assert_eq!(var, "N");
                assert!(matches!(expr.kind, ExprKind::BinOp(BinOp::Add, _, _)));
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parse_constants_in_atoms() {
        let src = r#"r1 a(@X, 5, "hi", true) :- b(@X, -3)."#;
        let p = parse_program(src).unwrap();
        let head = &p.rules[0].head;
        assert_eq!(head.args[1], Term::cnst(Value::Int(5)));
        assert_eq!(head.args[2], Term::cnst(Value::str("hi")));
        assert_eq!(head.args[3], Term::cnst(Value::Bool(true)));
        assert_eq!(
            p.rules[0].event().unwrap().args[1],
            Term::cnst(Value::Int(-3))
        );
    }

    #[test]
    fn operator_precedence() {
        let src = "r1 a(@X, Y) :- b(@X, Z), Y := Z + Z * 2.";
        let p = parse_program(src).unwrap();
        match &p.rules[0].body[1] {
            BodyItem::Assign { expr, .. } => {
                // Must parse as Z + (Z * 2).
                assert_eq!(expr.to_string(), "(Z + (Z * 2))");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parenthesized_expressions() {
        let src = "r1 a(@X, Y) :- b(@X, Z), Y := (Z + 1) * 2.";
        let p = parse_program(src).unwrap();
        match &p.rules[0].body[1] {
            BodyItem::Assign { expr, .. } => assert_eq!(expr.to_string(), "((Z + 1) * 2)"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trip_through_display() {
        let p1 = parse_program(FORWARDING).unwrap();
        let p2 = parse_program(&p1.to_string()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let src = "r1 a(@X) :- b(@X). r1 c(@X) :- a(@X).";
        let err = parse_program(src).unwrap_err();
        assert!(err.to_string().contains("duplicate rule label"));
        // The error points at the second occurrence and names the first.
        match err {
            Error::Parse { line, col, msg } => {
                assert_eq!((line, col), (1, 20));
                assert!(msg.contains("first defined at 1:1"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn at_only_on_first_attribute() {
        let src = "r1 a(@X, @Y) :- b(@X).";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn uppercase_relation_rejected() {
        let src = "r1 Abc(@X) :- b(@X).";
        let err = parse_program(src).unwrap_err();
        match err {
            Error::Parse { line, col, .. } => assert_eq!((line, col), (1, 4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_period_rejected() {
        let src = "r1 a(@X) :- b(@X)";
        let err = parse_program(src).unwrap_err();
        assert!(err.to_string().contains("`.`"), "{err}");
        // End-of-input errors point just past the last token.
        match err {
            Error::Parse { line, col, .. } => assert_eq!((line, col), (1, 18)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_program_is_ok() {
        let p = parse_program("  % nothing here\n").unwrap();
        assert!(p.rules.is_empty());
    }

    #[test]
    fn error_position_is_reported() {
        let src = "r1 a(@X) :- b(@X),\n  ^bad.";
        match parse_program(src).unwrap_err() {
            Error::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cmp_op_errors_list_expected_set() {
        let src = "r1 a(@X) :- b(@X), X 1.";
        let err = parse_program(src).unwrap_err();
        let msg = err.to_string();
        for op in ["==", "!=", "<", "<=", ">", ">="] {
            assert!(msg.contains(op), "missing `{op}` in: {msg}");
        }
        match err {
            Error::Parse { line, col, .. } => assert_eq!((line, col), (1, 22)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spans_cover_source_text() {
        let src = "r1 recv(@L, S) :- packet(@L, S), S >= 2.";
        let p = parse_program(src).unwrap();
        let rule = &p.rules[0];
        assert_eq!(&src[rule.span.start..rule.span.end], src);
        assert_eq!(&src[rule.label_span.start..rule.label_span.end], "r1");
        assert_eq!(
            &src[rule.head.span.start..rule.head.span.end],
            "recv(@L, S)"
        );
        let event = rule.event().unwrap();
        assert_eq!(&src[event.span.start..event.span.end], "packet(@L, S)");
        assert_eq!((event.span.line, event.span.col), (1, 19));
        match &rule.body[1] {
            BodyItem::Constraint { span, .. } => {
                assert_eq!(&src[span.start..span.end], "S >= 2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
