//! Recursive-descent parser: tokens → [`SelectStmt`].
//!
//! The grammar is the `SELECT`/`FROM`/`WHERE`/`GROUP BY`/`HAVING`/`ORDER BY`/
//! `LIMIT` subset the engine can execute (see the supported-grammar table in
//! ARCHITECTURE.md): inner joins written as a comma list or `JOIN ... ON`
//! (an `ON` clause is a conjunction like `WHERE`), conjunctive (`AND`)
//! predicates, `+`/`-`/`*` arithmetic, `LIKE` on encoded
//! columns, the `SUM`/`AVG`/`MIN`/`MAX`/`COUNT(*)` aggregates and `HAVING`
//! conjuncts comparing a grouping key or a `SELECT`-list aggregate against a
//! literal. Recognisable constructs outside the subset (`OR`, outer joins,
//! `DISTINCT`, subqueries...) are rejected with a typed
//! [`SqlError::Unsupported`] rather than a generic syntax error.

use crate::ast::{
    AggFunc, BinOp, CmpOp, Condition, Expr, HavingCond, HavingLeft, OrderItem, OrderKey,
    OrderKeyColumn, SelectItem, SelectStmt, TableRef,
};
use crate::error::SqlError;
use crate::lexer::{lex, Tok, Token};

/// Parse one `SELECT` statement. Never panics: malformed input is a typed
/// [`SqlError`] with the offset of the offending token.
pub fn parse(sql: &str) -> Result<SelectStmt, SqlError> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        idx: 0,
        end: sql.len(),
    };
    let stmt = p.select_stmt()?;
    p.finish()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
    /// Byte length of the input, reported as the position of "end of input".
    end: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.idx)
    }

    fn pos(&self) -> usize {
        self.peek().map_or(self.end, |t| t.pos)
    }

    fn describe_current(&self) -> String {
        self.peek()
            .map_or_else(|| "end of input".to_string(), |t| t.tok.describe())
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.idx).cloned();
        if t.is_some() {
            self.idx += 1;
        }
        t
    }

    fn unexpected(&self, expected: &str) -> SqlError {
        SqlError::UnexpectedToken {
            found: self.describe_current(),
            expected: expected.to_string(),
            pos: self.pos(),
        }
    }

    /// Whether the current token is the given keyword (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the given keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.idx += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<usize, SqlError> {
        let pos = self.pos();
        if self.eat_keyword(kw) {
            Ok(pos)
        } else {
            Err(self.unexpected(&format!("keyword {kw}")))
        }
    }

    fn expect_tok(&mut self, tok: &Tok, expected: &str) -> Result<usize, SqlError> {
        match self.peek() {
            Some(t) if &t.tok == tok => {
                let pos = t.pos;
                self.idx += 1;
                Ok(pos)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// A plain identifier that is not a reserved clause keyword.
    fn ident(&mut self, expected: &str) -> Result<(String, usize), SqlError> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s),
                pos,
            }) if !is_reserved(s) => {
                let out = (s.clone(), *pos);
                self.idx += 1;
                Ok(out)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn finish(&mut self) -> Result<(), SqlError> {
        // One optional trailing semicolon, then the input must end.
        if matches!(self.peek(), Some(Token { tok: Tok::Semi, .. })) {
            self.idx += 1;
        }
        if self.peek().is_some() {
            return Err(self.unexpected("end of input"));
        }
        Ok(())
    }

    fn select_stmt(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_keyword("SELECT")?;
        if self.at_keyword("DISTINCT") {
            return Err(SqlError::Unsupported {
                what: "SELECT DISTINCT".into(),
                pos: self.pos(),
            });
        }
        let mut items = vec![self.select_item()?];
        while matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Comma,
                ..
            })
        ) {
            self.idx += 1;
            items.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = Vec::new();
        let mut conditions = Vec::new();
        self.table_ref(&mut from)?;
        loop {
            if matches!(
                self.peek(),
                Some(Token {
                    tok: Tok::Comma,
                    ..
                })
            ) {
                self.idx += 1;
                self.table_ref(&mut from)?;
            } else if self.at_keyword("JOIN") || self.at_keyword("INNER") {
                self.eat_keyword("INNER");
                self.expect_keyword("JOIN")?;
                self.table_ref(&mut from)?;
                self.expect_keyword("ON")?;
                self.conjunction(&mut conditions)?;
            } else if self.at_keyword("LEFT")
                || self.at_keyword("RIGHT")
                || self.at_keyword("FULL")
                || self.at_keyword("OUTER")
                || self.at_keyword("CROSS")
            {
                return Err(SqlError::Unsupported {
                    what: "only inner joins are supported".into(),
                    pos: self.pos(),
                });
            } else {
                break;
            }
        }
        if self.eat_keyword("WHERE") {
            self.conjunction(&mut conditions)?;
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                let (table, name, pos) = self.column_ref("a grouping column")?;
                group_by.push(OrderKeyColumn { table, name, pos });
                if matches!(
                    self.peek(),
                    Some(Token {
                        tok: Tok::Comma,
                        ..
                    })
                ) {
                    self.idx += 1;
                } else {
                    break;
                }
            }
        }
        let mut having = Vec::new();
        if self.eat_keyword("HAVING") {
            having.push(self.having_cond()?);
            loop {
                if self.eat_keyword("AND") {
                    having.push(self.having_cond()?);
                } else if self.at_keyword("OR") {
                    return Err(SqlError::Unsupported {
                        what: "OR disjunctions (predicates are conjunctive)".into(),
                        pos: self.pos(),
                    });
                } else {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                order_by.push(self.order_item()?);
                if matches!(
                    self.peek(),
                    Some(Token {
                        tok: Tok::Comma,
                        ..
                    })
                ) {
                    self.idx += 1;
                } else {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_keyword("LIMIT") {
            let pos = self.pos();
            match self.bump() {
                Some(Token {
                    tok: Tok::Number(v),
                    ..
                }) if v >= 0.0 && v.fract() == 0.0 => {
                    limit = Some((v as u64, pos));
                }
                _ => {
                    return Err(SqlError::UnexpectedToken {
                        found: self
                            .tokens
                            .get(self.idx.saturating_sub(1))
                            .map_or_else(|| "end of input".to_string(), |t| t.tok.describe()),
                        expected: "a non-negative integer LIMIT".into(),
                        pos,
                    })
                }
            }
        }
        Ok(SelectStmt {
            items,
            from,
            conditions,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// One `HAVING` conjunct: `(grouping column | aggregate) op literal`.
    /// The left side mirrors [`OrderKey`]; the right side must be a numeric
    /// literal so the finisher can run over already-folded group rows.
    fn having_cond(&mut self) -> Result<HavingCond, SqlError> {
        let pos = self.pos();
        let left = if let Some((func, fpos)) = self.peek_agg_func() {
            self.idx += 2; // function name + '('
            let arg = self.agg_arg(func, fpos)?;
            self.expect_tok(&Tok::RParen, "')'")?;
            HavingLeft::Aggregate {
                func,
                arg,
                pos: fpos,
            }
        } else {
            let (table, name, cpos) = self.column_ref("a HAVING column or aggregate")?;
            HavingLeft::Column {
                table,
                name,
                pos: cpos,
            }
        };
        let op = match self.peek().map(|t| &t.tok) {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Err(self.unexpected("a comparison operator")),
        };
        self.idx += 1;
        let value = match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::Number(v)) => {
                self.idx += 1;
                v
            }
            Some(Tok::Minus) => {
                self.idx += 1;
                match self.peek().map(|t| t.tok.clone()) {
                    Some(Tok::Number(v)) => {
                        self.idx += 1;
                        -v
                    }
                    _ => return Err(self.unexpected("a numeric literal after HAVING comparison")),
                }
            }
            _ => {
                return Err(SqlError::Unsupported {
                    what: "HAVING against a non-literal right-hand side".into(),
                    pos: self.pos(),
                })
            }
        };
        Ok(HavingCond {
            left,
            op,
            value,
            pos,
        })
    }

    fn table_ref(&mut self, from: &mut Vec<TableRef>) -> Result<(), SqlError> {
        let (name, pos) = self.ident("a table name")?;
        if self.at_keyword("AS") {
            return Err(SqlError::Unsupported {
                what: "table aliases".into(),
                pos: self.pos(),
            });
        }
        // A bare identifier right after the table name would be an implicit
        // alias — also out of the subset.
        if matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if !is_reserved(s)) {
            return Err(SqlError::Unsupported {
                what: "table aliases".into(),
                pos: self.pos(),
            });
        }
        from.push(TableRef { name, pos });
        Ok(())
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if let Some((func, pos)) = self.peek_agg_func() {
            self.idx += 2; // function name + '('
            let arg = self.agg_arg(func, pos)?;
            self.expect_tok(&Tok::RParen, "')'")?;
            return Ok(SelectItem::Aggregate { func, arg, pos });
        }
        let (table, name, pos) = self.column_ref("a column or aggregate")?;
        Ok(SelectItem::Column { table, name, pos })
    }

    /// If the cursor sits on `SUM (` / `AVG (` / ... return the function
    /// without consuming anything.
    fn peek_agg_func(&self) -> Option<(AggFunc, usize)> {
        let Token {
            tok: Tok::Ident(name),
            pos,
        } = self.peek()?
        else {
            return None;
        };
        if !matches!(
            self.tokens.get(self.idx + 1),
            Some(Token {
                tok: Tok::LParen,
                ..
            })
        ) {
            return None;
        }
        let func = match name.to_ascii_uppercase().as_str() {
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "COUNT" => AggFunc::Count,
            _ => return None,
        };
        Some((func, *pos))
    }

    fn agg_arg(&mut self, func: AggFunc, pos: usize) -> Result<Option<Expr>, SqlError> {
        if func == AggFunc::Count {
            self.expect_tok(&Tok::Star, "'*' (only COUNT(*) is supported)")
                .map_err(|_| SqlError::Unsupported {
                    what: "COUNT over an expression (only COUNT(*))".into(),
                    pos,
                })?;
            Ok(None)
        } else {
            Ok(Some(self.expr()?))
        }
    }

    /// `condition (AND condition)*` into `conditions`: the body of a
    /// `WHERE` or of a join's `ON`.
    fn conjunction(&mut self, conditions: &mut Vec<Condition>) -> Result<(), SqlError> {
        conditions.push(self.condition()?);
        loop {
            if self.eat_keyword("AND") {
                conditions.push(self.condition()?);
            } else if self.at_keyword("OR") {
                return Err(SqlError::Unsupported {
                    what: "OR disjunctions (predicates are conjunctive)".into(),
                    pos: self.pos(),
                });
            } else {
                return Ok(());
            }
        }
    }

    fn condition(&mut self) -> Result<Condition, SqlError> {
        if self.at_keyword("NOT") {
            return Err(SqlError::Unsupported {
                what: "NOT (negated predicates)".into(),
                pos: self.pos(),
            });
        }
        // LIKE needs one token of lookahead past a (possibly qualified)
        // column reference.
        let start = self.idx;
        if let Ok((table, column, pos)) = self.column_ref("a column") {
            if self.at_keyword("NOT") {
                return Err(SqlError::Unsupported {
                    what: "NOT LIKE / negated predicates".into(),
                    pos: self.pos(),
                });
            }
            if self.eat_keyword("LIKE") {
                match self.peek().map(|t| t.tok.clone()) {
                    Some(Tok::Str(pattern)) => {
                        self.idx += 1;
                        return Ok(Condition::Like {
                            table,
                            column,
                            pattern,
                            pos,
                        });
                    }
                    _ => return Err(self.unexpected("a string pattern after LIKE")),
                }
            }
        }
        self.idx = start;
        let lhs = self.expr()?;
        if self.at_keyword("BETWEEN") {
            return Err(SqlError::Unsupported {
                what: "BETWEEN (write two comparisons)".into(),
                pos: self.pos(),
            });
        }
        if self.at_keyword("IN") {
            return Err(SqlError::Unsupported {
                what: "IN lists".into(),
                pos: self.pos(),
            });
        }
        let pos = self.pos();
        let op = match self.peek().map(|t| &t.tok) {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Err(self.unexpected("a comparison operator")),
        };
        self.idx += 1;
        let rhs = self.expr()?;
        Ok(Condition::Cmp { lhs, op, rhs, pos })
    }

    fn order_item(&mut self) -> Result<OrderItem, SqlError> {
        let pos = self.pos();
        let key = if let Some((func, fpos)) = self.peek_agg_func() {
            self.idx += 2;
            let arg = self.agg_arg(func, fpos)?;
            self.expect_tok(&Tok::RParen, "')'")?;
            OrderKey::Aggregate {
                func,
                arg,
                pos: fpos,
            }
        } else {
            let (table, name, cpos) = self.column_ref("an ORDER BY column or aggregate")?;
            OrderKey::Column {
                table,
                name,
                pos: cpos,
            }
        };
        let desc = if self.eat_keyword("DESC") {
            true
        } else {
            self.eat_keyword("ASC");
            false
        };
        Ok(OrderItem { key, desc, pos })
    }

    /// `column` or `table.column`.
    fn column_ref(&mut self, expected: &str) -> Result<(Option<String>, String, usize), SqlError> {
        let (first, pos) = self.ident(expected)?;
        if matches!(self.peek(), Some(Token { tok: Tok::Dot, .. })) {
            self.idx += 1;
            let (name, _) = self.ident("a column name after '.'")?;
            Ok((Some(first), name, pos))
        } else {
            Ok((None, first, pos))
        }
    }

    // expr := term (('+'|'-') term)*
    fn expr(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().map(|t| &t.tok) {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            let pos = self.pos();
            self.idx += 1;
            let rhs = self.term()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    // term := factor ('*' factor)*
    fn term(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.factor()?;
        while matches!(self.peek(), Some(Token { tok: Tok::Star, .. })) {
            let pos = self.pos();
            self.idx += 1;
            let rhs = self.factor()?;
            lhs = Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    // factor := Number | '-' Number | column | '(' expr ')'
    fn factor(&mut self) -> Result<Expr, SqlError> {
        match self.peek().map(|t| t.tok.clone()) {
            Some(Tok::Number(value)) => {
                let pos = self.pos();
                self.idx += 1;
                Ok(Expr::Number { value, pos })
            }
            Some(Tok::Minus) => {
                let pos = self.pos();
                self.idx += 1;
                match self.peek().map(|t| t.tok.clone()) {
                    Some(Tok::Number(value)) => {
                        self.idx += 1;
                        Ok(Expr::Number { value: -value, pos })
                    }
                    _ => Err(SqlError::Unsupported {
                        what: "unary minus on a non-literal".into(),
                        pos,
                    }),
                }
            }
            Some(Tok::LParen) => {
                self.idx += 1;
                let inner = self.expr()?;
                self.expect_tok(&Tok::RParen, "')'")?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => {
                if is_reserved(&name) {
                    return Err(self.unexpected("an expression"));
                }
                // A non-aggregate function call is out of the subset.
                if matches!(
                    self.tokens.get(self.idx + 1),
                    Some(Token {
                        tok: Tok::LParen,
                        ..
                    })
                ) && self.peek_agg_func().is_none()
                {
                    return Err(SqlError::Unsupported {
                        what: format!("function {name}"),
                        pos: self.pos(),
                    });
                }
                if self.peek_agg_func().is_some() {
                    return Err(SqlError::Unsupported {
                        what: "nested aggregates inside expressions".into(),
                        pos: self.pos(),
                    });
                }
                let (table, name, pos) = self.column_ref("a column")?;
                Ok(Expr::Column { table, name, pos })
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

/// Clause keywords that cannot double as table/column identifiers — without
/// this, `FROM t WHERE ...` would happily read `WHERE` as an alias or a
/// column named "WHERE".
fn is_reserved(ident: &str) -> bool {
    matches!(
        ident.to_ascii_uppercase().as_str(),
        "SELECT"
            | "FROM"
            | "WHERE"
            | "AND"
            | "OR"
            | "NOT"
            | "GROUP"
            | "ORDER"
            | "BY"
            | "HAVING"
            | "LIMIT"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "RIGHT"
            | "FULL"
            | "OUTER"
            | "CROSS"
            | "ON"
            | "AS"
            | "ASC"
            | "DESC"
            | "LIKE"
            | "BETWEEN"
            | "IN"
            | "DISTINCT"
            | "UNION"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_query() {
        let stmt = parse(
            "SELECT o_ol_cnt, COUNT(*) FROM orders JOIN orderline \
             ON o_w_id = ol_w_id AND o_d_id = ol_d_id AND o_id = ol_o_id \
             WHERE o_entry_d >= 0 AND ol_amount >= 500 \
             GROUP BY o_ol_cnt ORDER BY COUNT(*) DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(stmt.items.len(), 2);
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.from[1].name, "orderline");
        // 3 ON conjuncts + 2 WHERE conjuncts.
        assert_eq!(stmt.conditions.len(), 5);
        // An ON clause takes no disjunction either.
        let err = parse("SELECT COUNT(*) FROM a JOIN b ON x = y OR z = w").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("OR")));
        assert_eq!(stmt.group_by.len(), 1);
        assert_eq!(stmt.order_by.len(), 1);
        assert!(stmt.order_by[0].desc);
        assert_eq!(stmt.limit.map(|(v, _)| v), Some(5));
    }

    #[test]
    fn arithmetic_precedence_is_mul_over_add() {
        let stmt = parse("SELECT SUM(a + b * c) FROM t").unwrap();
        let SelectItem::Aggregate { arg: Some(e), .. } = &stmt.items[0] else {
            panic!("expected aggregate");
        };
        // a + (b * c)
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!("expected top-level +: {e:?}");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parens_group_explicitly() {
        let stmt = parse("SELECT SUM((a + b) * c) FROM t").unwrap();
        let SelectItem::Aggregate { arg: Some(e), .. } = &stmt.items[0] else {
            panic!("expected aggregate");
        };
        let Expr::Binary {
            op: BinOp::Mul,
            lhs,
            ..
        } = e
        else {
            panic!("expected top-level *: {e:?}");
        };
        assert!(matches!(**lhs, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn comma_joins_and_where_conditions() {
        let stmt = parse("SELECT COUNT(*) FROM a, b WHERE x = y AND z < 3").unwrap();
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.conditions.len(), 2);
        assert!(matches!(
            &stmt.conditions[0],
            Condition::Cmp { op: CmpOp::Eq, .. }
        ));
    }

    #[test]
    fn like_parses_with_pattern() {
        let stmt = parse("SELECT COUNT(*) FROM item WHERE i_data LIKE 'PR%'").unwrap();
        assert_eq!(
            stmt.conditions,
            vec![Condition::Like {
                table: None,
                column: "i_data".into(),
                pattern: "PR%".into(),
                pos: 32,
            }]
        );
    }

    #[test]
    fn qualified_columns_parse() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE t.a >= 1").unwrap();
        let Condition::Cmp { lhs, .. } = &stmt.conditions[0] else {
            panic!("expected comparison");
        };
        assert_eq!(
            *lhs,
            Expr::Column {
                table: Some("t".into()),
                name: "a".into(),
                pos: 29
            }
        );
    }

    #[test]
    fn unsupported_constructs_are_typed_not_generic() {
        for (sql, needle) in [
            ("SELECT DISTINCT a FROM t", "DISTINCT"),
            ("SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2", "OR"),
            ("SELECT COUNT(*) FROM a LEFT JOIN b ON x = y", "inner joins"),
            (
                "SELECT COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1 OR g = 2",
                "OR",
            ),
            (
                "SELECT COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > g",
                "non-literal",
            ),
            ("SELECT COUNT(*) FROM t AS u", "alias"),
            ("SELECT COUNT(*) FROM t u", "alias"),
            ("SELECT COUNT(a) FROM t", "COUNT"),
            ("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 2", "BETWEEN"),
            ("SELECT COUNT(*) FROM t WHERE a IN (1)", "IN"),
            ("SELECT COUNT(*) FROM t WHERE NOT a LIKE 'x'", "NOT"),
            ("SELECT COUNT(*) FROM t WHERE sqrt(a) > 1", "function"),
            ("SELECT SUM(-a) FROM t", "unary minus"),
        ] {
            match parse(sql) {
                Err(SqlError::Unsupported { what, .. }) => {
                    assert!(what.contains(needle), "{sql}: {what:?} lacks {needle:?}")
                }
                other => panic!("{sql}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn syntax_errors_point_at_the_offending_token() {
        let err = parse("SELECT FROM t").unwrap_err();
        assert_eq!(
            err,
            SqlError::UnexpectedToken {
                found: "\"FROM\"".into(),
                expected: "a column or aggregate".into(),
                pos: 7
            }
        );
        let err = parse("SELECT COUNT(*) FROM t WHERE").unwrap_err();
        assert!(matches!(err, SqlError::UnexpectedToken { pos: 28, .. }));
        let err = parse("SELECT COUNT(*) FROM t LIMIT x").unwrap_err();
        assert!(matches!(err, SqlError::UnexpectedToken { .. }));
        let err = parse("SELECT COUNT(*) FROM t LIMIT 2.5").unwrap_err();
        assert!(matches!(err, SqlError::UnexpectedToken { .. }));
    }

    #[test]
    fn trailing_tokens_are_rejected_after_optional_semicolon() {
        assert!(parse("SELECT COUNT(*) FROM t;").is_ok());
        let err = parse("SELECT COUNT(*) FROM t; SELECT").unwrap_err();
        assert!(matches!(err, SqlError::UnexpectedToken { .. }));
    }

    #[test]
    fn negative_literals_fold_into_numbers() {
        let stmt = parse("SELECT COUNT(*) FROM t WHERE a < -1.5").unwrap();
        let Condition::Cmp { rhs, .. } = &stmt.conditions[0] else {
            panic!("expected comparison");
        };
        assert!(matches!(rhs, Expr::Number { value, .. } if *value == -1.5));
    }

    #[test]
    fn having_conjuncts_parse_as_key_or_aggregate_vs_literal() {
        let stmt = parse(
            "SELECT g, COUNT(*) FROM t GROUP BY g \
             HAVING COUNT(*) > 2 AND g <= -1.5 ORDER BY g",
        )
        .unwrap();
        assert_eq!(stmt.having.len(), 2);
        assert_eq!(
            stmt.having[0],
            HavingCond {
                left: HavingLeft::Aggregate {
                    func: AggFunc::Count,
                    arg: None,
                    pos: 44,
                },
                op: CmpOp::Gt,
                value: 2.0,
                pos: 44,
            }
        );
        let HavingCond {
            left: HavingLeft::Column { name, .. },
            op: CmpOp::Le,
            value,
            ..
        } = &stmt.having[1]
        else {
            panic!("expected key conjunct: {:?}", stmt.having[1]);
        };
        assert_eq!(name, "g");
        assert_eq!(*value, -1.5);
    }

    #[test]
    fn inner_join_keyword_is_accepted() {
        let stmt = parse("SELECT COUNT(*) FROM a INNER JOIN b ON x = y").unwrap();
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.conditions.len(), 1);
    }
}
