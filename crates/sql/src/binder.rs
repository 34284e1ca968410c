//! The binder: AST + catalog → a bound logical query.
//!
//! Binding resolves every table and column name against the [`Catalog`],
//! types every expression, splits the flat condition list into per-relation
//! filters and equi-join conditions, rewrites `LIKE` over encoded columns,
//! and validates the clauses against what the engine can evaluate — all with
//! typed [`SqlError`]s carrying positions, never panics.

use crate::ast::{
    self, AggFunc, BinOp, Condition, Expr, HavingLeft, OrderKey, SelectItem, SelectStmt,
};
use crate::catalog::Catalog;
use crate::error::SqlError;
use htap_olap::{AggExpr, CmpOp, HavingPred, Predicate, RowSlot, ScalarExpr};
use htap_storage::DataType;
use std::collections::BTreeSet;

/// One relation in scope, in `FROM` order.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTable {
    /// Relation name.
    pub name: String,
    /// Estimated row count from the catalog (the planner's cost input).
    pub rows: u64,
    /// The relation's primary-key column, if declared. Kept as catalog
    /// metadata; the planner no longer needs it for join-order correctness —
    /// the engine's hash probe preserves multiplicities, so the probe-side
    /// choice is pure cost.
    pub pk: Option<String>,
    /// Byte offset of the `FROM` entry.
    pub pos: usize,
}

/// One bound equi-join condition between two relations in scope.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundJoin {
    /// Index (into [`BoundQuery::tables`]) of the left side.
    pub left: usize,
    /// Join-key expression over the left relation's columns.
    pub left_key: ScalarExpr,
    /// Index of the right side.
    pub right: usize,
    /// Join-key expression over the right relation's columns.
    pub right_key: ScalarExpr,
    /// Byte offset of the condition.
    pub pos: usize,
}

/// A resolved `ORDER BY` target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundOrder {
    /// The `i`-th `GROUP BY` key, ascending.
    GroupKey(usize),
    /// The `i`-th aggregate of the `SELECT` list, descending.
    Aggregate(usize),
}

/// The bound logical query the planner lowers onto a physical shape.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Relations in `FROM` order.
    pub tables: Vec<BoundTable>,
    /// Per-relation filter predicates (parallel to `tables`), in text order.
    pub filters: Vec<Vec<Predicate>>,
    /// Equi-join conditions.
    pub joins: Vec<BoundJoin>,
    /// Grouping key columns (bare names, all from `group_table`).
    pub group_by: Vec<String>,
    /// Index of the relation the grouping keys come from.
    pub group_table: Option<usize>,
    /// Byte offset of the first grouping key.
    pub group_pos: usize,
    /// Aggregates of the `SELECT` list, in order.
    pub aggregates: Vec<AggExpr>,
    /// Byte offsets of the aggregates (parallel to `aggregates`).
    pub agg_pos: Vec<usize>,
    /// Relations referenced by aggregate arguments.
    pub agg_tables: BTreeSet<usize>,
    /// Bound `HAVING` conjuncts over the group rows, in text order.
    pub having: Vec<HavingPred>,
    /// Resolved `ORDER BY` items with their positions.
    pub order_by: Vec<(BoundOrder, usize)>,
    /// `LIMIT` value and its position.
    pub limit: Option<(u64, usize)>,
}

/// Bind a parsed statement against a catalog.
pub fn bind(stmt: &SelectStmt, catalog: &Catalog) -> Result<BoundQuery, SqlError> {
    let binder = Binder::new(stmt, catalog)?;
    binder.run()
}

struct Binder<'a> {
    stmt: &'a SelectStmt,
    catalog: &'a Catalog,
    tables: Vec<BoundTable>,
}

/// A lowered scalar expression plus the set of in-scope relations it reads.
struct Lowered {
    expr: ScalarExpr,
    tables: BTreeSet<usize>,
}

impl<'a> Binder<'a> {
    fn new(stmt: &'a SelectStmt, catalog: &'a Catalog) -> Result<Self, SqlError> {
        if stmt.from.is_empty() {
            return Err(SqlError::UnexpectedToken {
                found: "nothing".into(),
                expected: "a FROM relation".into(),
                pos: 0,
            });
        }
        let mut tables: Vec<BoundTable> = Vec::new();
        for table_ref in &stmt.from {
            if tables.iter().any(|t| t.name == table_ref.name) {
                return Err(SqlError::DuplicateTable {
                    name: table_ref.name.clone(),
                    pos: table_ref.pos,
                });
            }
            let info = catalog.resolve_table(&table_ref.name, table_ref.pos)?;
            tables.push(BoundTable {
                name: table_ref.name.clone(),
                rows: info.rows,
                pk: info
                    .schema
                    .primary_key
                    .map(|i| info.schema.column(i).name.clone()),
                pos: table_ref.pos,
            });
        }
        Ok(Binder {
            stmt,
            catalog,
            tables,
        })
    }

    /// Resolve a (possibly qualified) column to its relation index and dtype.
    fn resolve_column(
        &self,
        table: Option<&str>,
        name: &str,
        pos: usize,
    ) -> Result<(usize, DataType), SqlError> {
        let (idx, dtype) = if let Some(qualifier) = table {
            let idx = self
                .tables
                .iter()
                .position(|t| t.name == qualifier)
                .ok_or_else(|| SqlError::UnknownTable {
                    name: qualifier.to_string(),
                    pos,
                })?;
            let dtype = self.catalog.column_type(qualifier, name).ok_or_else(|| {
                SqlError::UnknownColumn {
                    name: format!("{qualifier}.{name}"),
                    pos,
                }
            })?;
            (idx, dtype)
        } else {
            let matches: Vec<(usize, DataType)> = self
                .tables
                .iter()
                .enumerate()
                .filter_map(|(i, t)| self.catalog.column_type(&t.name, name).map(|d| (i, d)))
                .collect();
            match matches.len() {
                0 => {
                    return Err(SqlError::UnknownColumn {
                        name: name.to_string(),
                        pos,
                    })
                }
                1 => matches[0],
                _ => {
                    return Err(SqlError::AmbiguousColumn {
                        name: name.to_string(),
                        tables: matches
                            .iter()
                            .map(|&(i, _)| self.tables[i].name.clone())
                            .collect(),
                        pos,
                    })
                }
            }
        };
        if dtype == DataType::Str {
            return Err(SqlError::Unsupported {
                what: format!(
                    "string column {name:?} (string data is only reachable through encoded LIKE rewrites)"
                ),
                pos,
            });
        }
        Ok((idx, dtype))
    }

    /// Lower an AST expression to a [`ScalarExpr`], collecting the relations
    /// it references.
    fn lower_expr(&self, expr: &Expr) -> Result<Lowered, SqlError> {
        match expr {
            Expr::Number { value, .. } => Ok(Lowered {
                expr: ScalarExpr::lit(*value),
                tables: BTreeSet::new(),
            }),
            Expr::Column { table, name, pos } => {
                let (idx, _) = self.resolve_column(table.as_deref(), name, *pos)?;
                let mut tables = BTreeSet::new();
                tables.insert(idx);
                Ok(Lowered {
                    // The engine addresses columns by bare name (CH column
                    // names are globally unique; ambiguity was just checked).
                    expr: ScalarExpr::col(name.clone()),
                    tables,
                })
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                let mut tables = l.tables;
                tables.extend(r.tables);
                let expr = match op {
                    BinOp::Add => l.expr + r.expr,
                    BinOp::Sub => l.expr - r.expr,
                    BinOp::Mul => l.expr * r.expr,
                };
                Ok(Lowered { expr, tables })
            }
        }
    }

    fn run(self) -> Result<BoundQuery, SqlError> {
        let mut filters: Vec<Vec<Predicate>> = vec![Vec::new(); self.tables.len()];
        let mut joins: Vec<BoundJoin> = Vec::new();

        for condition in &self.stmt.conditions {
            match condition {
                Condition::Like {
                    table,
                    column,
                    pattern,
                    pos,
                } => {
                    let (idx, predicate) =
                        self.bind_like(table.as_deref(), column, pattern, *pos)?;
                    filters[idx].push(predicate);
                }
                Condition::Cmp { lhs, op, rhs, pos } => {
                    self.bind_cmp(lhs, *op, rhs, *pos, &mut filters, &mut joins)?;
                }
            }
        }

        self.check_key_tuples(&joins)?;

        // GROUP BY: all keys from one relation, integer-typed.
        let mut group_by = Vec::new();
        let mut group_table: Option<usize> = None;
        let group_pos = self.stmt.group_by.first().map_or(0, |g| g.pos);
        for key in &self.stmt.group_by {
            let (idx, dtype) = self.resolve_column(key.table.as_deref(), &key.name, key.pos)?;
            if !matches!(dtype, DataType::I64 | DataType::I32) {
                return Err(SqlError::Unsupported {
                    what: format!("non-integer GROUP BY key {:?} ({dtype})", key.name),
                    pos: key.pos,
                });
            }
            match group_table {
                None => group_table = Some(idx),
                Some(t) if t == idx => {}
                Some(t) => {
                    return Err(SqlError::Unsupported {
                        what: format!(
                            "GROUP BY keys from more than one relation ({} and {})",
                            self.tables[t].name, self.tables[idx].name
                        ),
                        pos: key.pos,
                    })
                }
            }
            group_by.push(key.name.clone());
        }

        // SELECT list: the grouping keys (in order), then the aggregates.
        let mut aggregates = Vec::new();
        let mut agg_pos = Vec::new();
        let mut agg_tables = BTreeSet::new();
        let mut leading_columns = 0usize;
        for item in &self.stmt.items {
            match item {
                SelectItem::Column { table, name, pos } => {
                    if !aggregates.is_empty() {
                        return Err(SqlError::Unsupported {
                            what: "bare columns after an aggregate in the SELECT list".into(),
                            pos: *pos,
                        });
                    }
                    if group_by.is_empty() {
                        return Err(SqlError::Unsupported {
                            what: format!(
                                "bare column {name:?} without a GROUP BY (only aggregates)"
                            ),
                            pos: *pos,
                        });
                    }
                    let (idx, _) = self.resolve_column(table.as_deref(), name, *pos)?;
                    match group_by.get(leading_columns) {
                        Some(key) if *key == *name && Some(idx) == group_table => {}
                        _ => {
                            return Err(SqlError::Unsupported {
                                what: format!(
                                    "SELECT column {name:?} must list the GROUP BY keys in order"
                                ),
                                pos: *pos,
                            })
                        }
                    }
                    leading_columns += 1;
                }
                SelectItem::Aggregate { func, arg, pos } => {
                    let agg = self.bind_aggregate(*func, arg.as_ref(), *pos, &mut agg_tables)?;
                    aggregates.push(agg);
                    agg_pos.push(*pos);
                }
            }
        }
        if aggregates.is_empty() {
            return Err(SqlError::Unsupported {
                what: "a query without aggregates (the engine computes aggregations)".into(),
                pos: self.stmt.items.first().map_or(0, select_item_pos),
            });
        }
        if leading_columns != group_by.len() {
            return Err(SqlError::Unsupported {
                what: format!(
                    "the SELECT list must lead with all {} GROUP BY key(s)",
                    group_by.len()
                ),
                pos: group_pos,
            });
        }

        // ORDER BY: either a prefix of the grouping keys (ascending — the
        // order the engine already produces) or one aggregate descending
        // (the top-k path; the planner checks the shape supports it).
        let mut order_by = Vec::new();
        for (i, item) in self.stmt.order_by.iter().enumerate() {
            match &item.key {
                OrderKey::Column { table, name, pos } => {
                    let (idx, _) = self.resolve_column(table.as_deref(), name, *pos)?;
                    let matches_key =
                        group_by.get(i).is_some_and(|k| k == name) && Some(idx) == group_table;
                    if !matches_key {
                        return Err(SqlError::Unsupported {
                            what: format!(
                                "ORDER BY {name:?} (keys must follow the GROUP BY order, which \
                                 the engine already produces)"
                            ),
                            pos: *pos,
                        });
                    }
                    if item.desc {
                        return Err(SqlError::Unsupported {
                            what: "descending key order (groups are emitted ascending)".into(),
                            pos: item.pos,
                        });
                    }
                    order_by.push((BoundOrder::GroupKey(i), *pos));
                }
                OrderKey::Aggregate { func, arg, pos } => {
                    let mut scratch = BTreeSet::new();
                    let agg = self.bind_aggregate(*func, arg.as_ref(), *pos, &mut scratch)?;
                    let Some(agg_index) = aggregates.iter().position(|a| *a == agg) else {
                        return Err(SqlError::Unsupported {
                            what: "ORDER BY an aggregate that is not in the SELECT list".into(),
                            pos: *pos,
                        });
                    };
                    if !item.desc {
                        return Err(SqlError::Unsupported {
                            what: "ascending aggregate order (top-k keeps the largest)".into(),
                            pos: item.pos,
                        });
                    }
                    if i != 0 || self.stmt.order_by.len() != 1 {
                        return Err(SqlError::Unsupported {
                            what: "mixing aggregate and key ORDER BY items".into(),
                            pos: item.pos,
                        });
                    }
                    order_by.push((BoundOrder::Aggregate(agg_index), *pos));
                }
            }
        }

        // HAVING: each conjunct reads a grouping key or a SELECT-list
        // aggregate, so it can run as a finisher over already-folded group
        // rows without re-touching base data.
        let mut having = Vec::new();
        for cond in &self.stmt.having {
            if group_by.is_empty() {
                return Err(SqlError::Unsupported {
                    what: "HAVING without GROUP BY (scalar aggregates have no rows to filter)"
                        .into(),
                    pos: cond.pos,
                });
            }
            let slot = match &cond.left {
                HavingLeft::Column { table, name, pos } => {
                    let (idx, _) = self.resolve_column(table.as_deref(), name, *pos)?;
                    let key = group_by
                        .iter()
                        .position(|k| k == name)
                        .filter(|_| Some(idx) == group_table);
                    let Some(key) = key else {
                        return Err(SqlError::Unsupported {
                            what: format!("HAVING on column {name:?} that is not a GROUP BY key"),
                            pos: *pos,
                        });
                    };
                    RowSlot::Key(key)
                }
                HavingLeft::Aggregate { func, arg, pos } => {
                    let mut scratch = BTreeSet::new();
                    let agg = self.bind_aggregate(*func, arg.as_ref(), *pos, &mut scratch)?;
                    let Some(agg_index) = aggregates.iter().position(|a| *a == agg) else {
                        return Err(SqlError::Unsupported {
                            what: "HAVING on an aggregate that is not in the SELECT list".into(),
                            pos: *pos,
                        });
                    };
                    RowSlot::Agg(agg_index)
                }
            };
            having.push(HavingPred {
                slot,
                op: lower_cmp(cond.op),
                literal: cond.value,
            });
        }

        Ok(BoundQuery {
            tables: self.tables,
            filters,
            joins,
            group_by,
            group_table,
            group_pos,
            aggregates,
            agg_pos,
            agg_tables,
            having,
            order_by,
            limit: self.stmt.limit,
        })
    }

    fn bind_aggregate(
        &self,
        func: AggFunc,
        arg: Option<&Expr>,
        pos: usize,
        agg_tables: &mut BTreeSet<usize>,
    ) -> Result<AggExpr, SqlError> {
        match (func, arg) {
            (AggFunc::Count, None) => Ok(AggExpr::Count),
            (AggFunc::Count, Some(_)) => Err(SqlError::Unsupported {
                what: "COUNT over an expression (only COUNT(*))".into(),
                pos,
            }),
            (_, None) => Err(SqlError::UnexpectedToken {
                found: "'*'".into(),
                expected: "an expression argument".into(),
                pos,
            }),
            (func, Some(arg)) => {
                let lowered = self.lower_expr(arg)?;
                if lowered.tables.len() > 1 {
                    return Err(SqlError::Unsupported {
                        what: "an aggregate over columns of more than one relation".into(),
                        pos,
                    });
                }
                agg_tables.extend(lowered.tables.iter().copied());
                Ok(match func {
                    AggFunc::Sum => AggExpr::Sum(lowered.expr),
                    AggFunc::Avg => AggExpr::Avg(lowered.expr),
                    AggFunc::Min => AggExpr::Min(lowered.expr),
                    AggFunc::Max => AggExpr::Max(lowered.expr),
                    AggFunc::Count => unreachable!("handled above"),
                })
            }
        }
    }

    /// Resolve `column LIKE 'pattern'` through the catalog's encoded-column
    /// rewrites.
    fn bind_like(
        &self,
        table: Option<&str>,
        column: &str,
        pattern: &str,
        pos: usize,
    ) -> Result<(usize, Predicate), SqlError> {
        let rewrites = self.catalog.like_rewrites_for(column);
        // Candidate rewrites whose relation is in scope (and matches the
        // qualifier, if any).
        let in_scope: Vec<(usize, &crate::catalog::LikeRewrite)> = rewrites
            .iter()
            .filter(|r| table.is_none_or(|t| t == r.table))
            .filter_map(|r| {
                self.tables
                    .iter()
                    .position(|t| t.name == r.table)
                    .map(|i| (i, *r))
            })
            .collect();
        if in_scope.is_empty() {
            // Distinguish "no such column at all" from "real but non-encoded
            // column used with LIKE".
            return match self.resolve_column(table, column, pos) {
                Ok(_) => Err(SqlError::Unsupported {
                    what: format!("LIKE on column {column:?} (no encoded rewrite registered)"),
                    pos,
                }),
                // An unknown column is reported as such; every other
                // resolution error (unknown qualifier table, ambiguity, a
                // Str column) already names the actual problem — pass it
                // through rather than misdirecting the caret at the column.
                Err(SqlError::UnknownColumn { .. }) => Err(SqlError::UnknownColumn {
                    name: column.to_string(),
                    pos,
                }),
                Err(e) => Err(e),
            };
        }
        let tables_matching: BTreeSet<usize> = in_scope.iter().map(|&(i, _)| i).collect();
        if tables_matching.len() > 1 {
            return Err(SqlError::AmbiguousColumn {
                name: column.to_string(),
                tables: tables_matching
                    .iter()
                    .map(|&i| self.tables[i].name.clone())
                    .collect(),
                pos,
            });
        }
        match in_scope.iter().find(|(_, r)| r.pattern == pattern) {
            Some(&(idx, rewrite)) => Ok((idx, rewrite.predicate.clone())),
            None => Err(SqlError::Unsupported {
                what: format!(
                    "LIKE pattern {pattern:?} on {column:?} (encoded patterns: {})",
                    in_scope
                        .iter()
                        .map(|(_, r)| format!("{:?}", r.pattern))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                pos,
            }),
        }
    }

    fn bind_cmp(
        &self,
        lhs: &Expr,
        op: ast::CmpOp,
        rhs: &Expr,
        pos: usize,
        filters: &mut [Vec<Predicate>],
        joins: &mut Vec<BoundJoin>,
    ) -> Result<(), SqlError> {
        let l = self.lower_expr(lhs)?;
        let r = self.lower_expr(rhs)?;
        match (l.tables.is_empty(), r.tables.is_empty()) {
            (true, true) => Err(SqlError::Unsupported {
                what: "a comparison between two constants".into(),
                pos,
            }),
            // column-side vs constant-side: a per-relation filter.
            (false, true) => self.push_filter(&l, lower_cmp(op), &r.expr, pos, filters, lhs.pos()),
            (true, false) => self.push_filter(
                &r,
                flip_cmp(lower_cmp(op)),
                &l.expr,
                pos,
                filters,
                rhs.pos(),
            ),
            // both sides reference relations: an equi-join condition.
            (false, false) => {
                if op != ast::CmpOp::Eq {
                    return Err(SqlError::Unsupported {
                        what: "non-equality join conditions".into(),
                        pos,
                    });
                }
                if l.tables.len() > 1 || r.tables.len() > 1 {
                    return Err(SqlError::Unsupported {
                        what: "a join key mixing columns of several relations".into(),
                        pos,
                    });
                }
                // Both sides are non-empty in this arm; the else branch is a
                // typed error rather than a query-path panic.
                let (Some(&left), Some(&right)) = (l.tables.first(), r.tables.first()) else {
                    return Err(SqlError::Unsupported {
                        what: "a join condition with a side referencing no relation".into(),
                        pos,
                    });
                };
                if left == right {
                    return Err(SqlError::Unsupported {
                        what: "a column-to-column comparison within one relation".into(),
                        pos,
                    });
                }
                joins.push(BoundJoin {
                    left,
                    left_key: l.expr,
                    right,
                    right_key: r.expr,
                    pos,
                });
                Ok(())
            }
        }
    }

    /// Two or more equi-join conditions between one pair of relations join
    /// on the tuple of their keys, which the engine folds over the columns'
    /// value bounds: each side of each such condition must be a plain
    /// integer column.
    fn check_key_tuples(&self, joins: &[BoundJoin]) -> Result<(), SqlError> {
        let pair = |j: &BoundJoin| (j.left.min(j.right), j.left.max(j.right));
        for join in joins {
            if joins.iter().filter(|j| pair(j) == pair(join)).count() < 2 {
                continue;
            }
            for (side, key) in [(join.left, &join.left_key), (join.right, &join.right_key)] {
                let ScalarExpr::Col(name) = key else {
                    return Err(SqlError::Unsupported {
                        what: "a computed key in a multi-column join (each condition between \
                               one pair of relations compares two plain columns)"
                            .into(),
                        pos: join.pos,
                    });
                };
                let dtype = self.catalog.column_type(&self.tables[side].name, name);
                if !matches!(dtype, Some(DataType::I64 | DataType::I32)) {
                    return Err(SqlError::Unsupported {
                        what: format!("a multi-column join on the non-integer column {name}"),
                        pos: join.pos,
                    });
                }
            }
        }
        Ok(())
    }

    fn push_filter(
        &self,
        column_side: &Lowered,
        op: CmpOp,
        constant_side: &ScalarExpr,
        pos: usize,
        filters: &mut [Vec<Predicate>],
        column_pos: usize,
    ) -> Result<(), SqlError> {
        let ScalarExpr::Col(name) = &column_side.expr else {
            return Err(SqlError::Unsupported {
                what: "a filter over a computed expression (compare a single column with a \
                       literal)"
                    .into(),
                pos: column_pos,
            });
        };
        let literal = const_eval(constant_side).ok_or_else(|| SqlError::Unsupported {
            what: "a non-constant comparison value".into(),
            pos,
        })?;
        let table = *column_side
            .tables
            .first()
            .ok_or_else(|| SqlError::Unsupported {
                what: "a filter column that references no relation".into(),
                pos: column_pos,
            })?;
        filters[table].push(Predicate::new(name.clone(), op, literal));
        Ok(())
    }
}

fn select_item_pos(item: &SelectItem) -> usize {
    match item {
        SelectItem::Column { pos, .. } | SelectItem::Aggregate { pos, .. } => *pos,
    }
}

/// Evaluate a constant (column-free) expression.
fn const_eval(expr: &ScalarExpr) -> Option<f64> {
    match expr {
        ScalarExpr::Literal(v) => Some(*v),
        ScalarExpr::Col(_) => None,
        ScalarExpr::Add(a, b) => Some(const_eval(a)? + const_eval(b)?),
        ScalarExpr::Sub(a, b) => Some(const_eval(a)? - const_eval(b)?),
        ScalarExpr::Mul(a, b) => Some(const_eval(a)? * const_eval(b)?),
    }
}

fn lower_cmp(op: ast::CmpOp) -> CmpOp {
    match op {
        ast::CmpOp::Eq => CmpOp::Eq,
        ast::CmpOp::Ne => CmpOp::Ne,
        ast::CmpOp::Lt => CmpOp::Lt,
        ast::CmpOp::Le => CmpOp::Le,
        ast::CmpOp::Gt => CmpOp::Gt,
        ast::CmpOp::Ge => CmpOp::Ge,
    }
}

/// Mirror a comparison when the literal moves from right to left:
/// `5 < col` becomes `col > 5`.
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}
