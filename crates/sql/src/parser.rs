//! Recursive-descent parser for the fusion-query dialect.

use crate::ast::{AttrRef, Expr, ParsedQuery};
use crate::lexer::{tokenize, Token, TokenKind};
use fusion_types::error::{FusionError, Result};
use fusion_types::{CmpOp, Value};

/// Parses a fusion-dialect SQL query.
///
/// # Errors
/// Fails with [`FusionError::Parse`] on syntax errors (with byte offsets).
pub fn parse_query(sql: &str) -> Result<ParsedQuery> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, detail: impl Into<String>) -> Result<T> {
        Err(FusionError::Parse {
            detail: detail.into(),
            offset: Some(self.peek().offset),
        })
    }

    fn eat_kw(&mut self, word: &str) -> bool {
        if self.peek().kind.is_kw(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, word: &str) -> Result<()> {
        if self.eat_kw(word) {
            Ok(())
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek().kind, TokenKind::Eof) {
            Ok(())
        } else {
            self.err("unexpected trailing input")
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            _ => self.err(format!("expected {what}")),
        }
    }

    /// `SELECT ref FROM view alias (, view alias)* [WHERE expr]`
    fn query(&mut self) -> Result<ParsedQuery> {
        self.expect_kw("SELECT")?;
        // Projection is parsed as alias.attr; variable resolution happens
        // after FROM, so capture the raw pair first.
        let proj_alias = self.ident("projection variable")?;
        self.expect_kind(&TokenKind::Dot, "`.`")?;
        let proj_attr = self.ident("projection attribute")?;
        self.expect_kw("FROM")?;
        let mut view: Option<String> = None;
        let mut variables: Vec<String> = Vec::new();
        loop {
            let v = self.ident("union view name")?;
            match &view {
                None => view = Some(v),
                Some(existing) if existing.eq_ignore_ascii_case(&v) => {}
                Some(existing) => {
                    return self.err(format!(
                        "all FROM entries must use the same union view (`{existing}` vs `{v}`)"
                    ));
                }
            }
            let alias = self.ident("variable alias")?;
            if variables.iter().any(|a| a.eq_ignore_ascii_case(&alias)) {
                return self.err(format!("duplicate variable alias `{alias}`"));
            }
            variables.push(alias);
            if !matches!(self.peek().kind, TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        let where_clause = if self.eat_kw("WHERE") {
            self.or_expr(&variables)?
        } else {
            Expr::Const(true)
        };
        let proj_var = resolve_var(&variables, &proj_alias).ok_or_else(|| FusionError::Parse {
            detail: format!("projection variable `{proj_alias}` not in FROM"),
            offset: None,
        })?;
        Ok(ParsedQuery {
            projection: AttrRef {
                var: proj_var,
                attr: proj_attr,
            },
            variables,
            view: view.expect("at least one FROM entry"),
            where_clause,
        })
    }

    fn or_expr(&mut self, vars: &[String]) -> Result<Expr> {
        let mut parts = vec![self.and_expr(vars)?];
        while self.eat_kw("OR") {
            parts.push(self.and_expr(vars)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Expr::Or(parts)
        })
    }

    fn and_expr(&mut self, vars: &[String]) -> Result<Expr> {
        let mut parts = vec![self.not_expr(vars)?];
        while self.eat_kw("AND") {
            parts.push(self.not_expr(vars)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Expr::And(parts)
        })
    }

    fn not_expr(&mut self, vars: &[String]) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr(vars)?)))
        } else {
            self.primary(vars)
        }
    }

    fn primary(&mut self, vars: &[String]) -> Result<Expr> {
        match &self.peek().kind {
            TokenKind::LParen => {
                self.bump();
                let e = self.or_expr(vars)?;
                self.expect_kind(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("TRUE") => {
                self.bump();
                Ok(Expr::Const(true))
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("FALSE") => {
                self.bump();
                Ok(Expr::Const(false))
            }
            TokenKind::Ident(_) => self.atom(vars),
            _ => self.err("expected a condition"),
        }
    }

    /// An atom starting with a qualified reference.
    fn atom(&mut self, vars: &[String]) -> Result<Expr> {
        let lhs = self.attr_ref(vars)?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            let e = Expr::IsNull { lhs };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = self.eat_kw("NOT");
        if self.eat_kw("BETWEEN") {
            let lo = self.literal()?;
            self.expect_kw("AND")?;
            let hi = self.literal()?;
            let e = Expr::Between { lhs, lo, hi };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_kw("IN") {
            self.expect_kind(&TokenKind::LParen, "`(`")?;
            let mut values = vec![self.literal()?];
            while matches!(self.peek().kind, TokenKind::Comma) {
                self.bump();
                values.push(self.literal()?);
            }
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            let e = Expr::InList { lhs, values };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_kw("LIKE") {
            let pattern = match &self.peek().kind {
                TokenKind::Str(s) => {
                    let s = s.clone();
                    self.bump();
                    s
                }
                _ => return self.err("expected a string pattern after LIKE"),
            };
            let e = Expr::Like { lhs, pattern };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if negated {
            return self.err("expected BETWEEN, IN, or LIKE after NOT");
        }
        // Comparison: ref op (literal | ref).
        let op = match self.peek().kind {
            TokenKind::Cmp(op) => {
                self.bump();
                op
            }
            _ => return self.err("expected a comparison operator"),
        };
        // Right side: another qualified reference → merge-chain candidate.
        if let TokenKind::Ident(_) = self.peek().kind {
            if matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::Dot)
            ) {
                let right = self.attr_ref(vars)?;
                if op != CmpOp::Eq {
                    return self.err("only `=` is allowed between query variables");
                }
                return Ok(Expr::MergeEq { left: lhs, right });
            }
        }
        let rhs = self.literal()?;
        Ok(Expr::Cmp { lhs, op, rhs })
    }

    fn attr_ref(&mut self, vars: &[String]) -> Result<AttrRef> {
        let alias = self.ident("query variable")?;
        let Some(var) = resolve_var(vars, &alias) else {
            return self.err(format!("unknown query variable `{alias}`"));
        };
        self.expect_kind(&TokenKind::Dot, "`.` after query variable")?;
        let attr = self.ident("attribute name")?;
        Ok(AttrRef { var, attr })
    }

    fn literal(&mut self) -> Result<Value> {
        let negate = matches!(self.peek().kind, TokenKind::Minus);
        if negate {
            self.bump();
        }
        let v = match &self.peek().kind {
            TokenKind::Int(i) => Value::Int(*i),
            TokenKind::Float(f) => Value::Float(*f),
            TokenKind::Str(s) => Value::str(s.as_str()),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("NULL") => Value::Null,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Value::Bool(true),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Value::Bool(false),
            _ => return self.err("expected a literal"),
        };
        self.bump();
        match (negate, v) {
            (false, v) => Ok(v),
            (true, Value::Int(i)) => Ok(Value::Int(-i)),
            (true, Value::Float(f)) => Ok(Value::Float(-f)),
            (true, _) => self.err("`-` applies only to numeric literals"),
        }
    }
}

fn resolve_var(vars: &[String], alias: &str) -> Option<usize> {
    vars.iter().position(|v| v.eq_ignore_ascii_case(alias))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        let q = parse_query(
            "SELECT u1.L FROM U u1, U u2 \
             WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
        )
        .unwrap();
        assert_eq!(q.variables, vec!["u1", "u2"]);
        assert_eq!(q.view, "U");
        assert_eq!(
            q.projection,
            AttrRef {
                var: 0,
                attr: "L".into()
            }
        );
        match &q.where_clause {
            Expr::And(parts) => {
                assert_eq!(parts.len(), 3);
                assert!(matches!(parts[0], Expr::MergeEq { .. }));
                assert!(matches!(parts[1], Expr::Cmp { .. }));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn parses_rich_predicates() {
        let q = parse_query(
            "SELECT u1.L FROM U u1 WHERE u1.D BETWEEN 1990 AND 1995 \
             AND u1.V IN ('dui', 'sp') AND u1.V LIKE 'd%' \
             AND u1.D IS NOT NULL AND NOT (u1.D = 1993 OR u1.D > -2)",
        )
        .unwrap();
        let Expr::And(parts) = &q.where_clause else {
            panic!("expected And");
        };
        assert_eq!(parts.len(), 5);
        assert!(matches!(parts[0], Expr::Between { .. }));
        assert!(matches!(parts[1], Expr::InList { .. }));
        assert!(matches!(parts[2], Expr::Like { .. }));
        assert!(matches!(parts[3], Expr::Not(_)));
        assert!(matches!(parts[4], Expr::Not(_)));
    }

    #[test]
    fn missing_where_is_const_true() {
        let q = parse_query("SELECT u1.L FROM U u1").unwrap();
        assert_eq!(q.where_clause, Expr::Const(true));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse_query("select U1.l from u U1 where U1.v = 'x'").unwrap();
        assert_eq!(q.variables, vec!["U1"]);
    }

    #[test]
    fn or_and_precedence() {
        let q = parse_query("SELECT u1.L FROM U u1 WHERE u1.V = 'a' OR u1.V = 'b' AND u1.D = 1")
            .unwrap();
        // a OR (b AND d)
        let Expr::Or(parts) = &q.where_clause else {
            panic!("OR should be outermost");
        };
        assert_eq!(parts.len(), 2);
        assert!(matches!(parts[1], Expr::And(_)));
    }

    #[test]
    fn syntax_errors() {
        for bad in [
            "SELECT FROM U u1",
            "SELECT u1.L FROM U u1, V u2 WHERE u1.L = u2.L",
            "SELECT u1.L FROM U u1, U u1",
            "SELECT u3.L FROM U u1",
            "SELECT u1.L FROM U u1 WHERE u1.V <",
            "SELECT u1.L FROM U u1 WHERE u1.V = 'x' trailing",
            "SELECT u1.L FROM U u1 WHERE u2.V = 'x'",
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L < u2.L",
            "SELECT u1.L FROM U u1 WHERE u1.V NOT = 'x'",
            "SELECT u1.L FROM U u1 WHERE u1.V = -'x'",
        ] {
            assert!(parse_query(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn negative_literals() {
        let q = parse_query("SELECT u1.L FROM U u1 WHERE u1.D = -5").unwrap();
        match &q.where_clause {
            Expr::Cmp { rhs, .. } => assert_eq!(rhs, &Value::Int(-5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn is_null_and_is_not_null() {
        let q = parse_query("SELECT u1.L FROM U u1 WHERE u1.V IS NULL").unwrap();
        assert!(matches!(q.where_clause, Expr::IsNull { .. }));
        let q = parse_query("SELECT u1.L FROM U u1 WHERE u1.V IS NOT NULL").unwrap();
        assert!(matches!(q.where_clause, Expr::Not(_)));
    }
}
