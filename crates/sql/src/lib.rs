//! SQL frontend for the vectorized morsel engine: lexer → recursive-descent
//! parser → AST → binder → cost-aware planner.
//!
//! The pipeline turns query text into the engine's one physical plan type,
//! [`QueryPlan`] — an operator DAG — so SQL gets the full vectorized +
//! selection-vector execution path (compiled register programs,
//! open-addressing hash tables, per-worker scratch):
//!
//! ```text
//! SQL text ──lex──▶ tokens ──parse──▶ SelectStmt (AST)
//!          ──bind(catalog)──▶ BoundQuery (resolved names, typed errors)
//!          ──lower──▶ QueryPlan (a validated operator DAG)
//! ```
//!
//! Supported grammar (see the "SQL frontend" section of ARCHITECTURE.md for
//! the full table and the lowering rules): `SELECT` of grouping keys and
//! `SUM`/`AVG`/`MIN`/`MAX`/`COUNT(*)` aggregates, `FROM` any number of
//! relations chained by inner joins (comma list or `JOIN ... ON`; several
//! equalities between one pair of relations join on the column tuple),
//! conjunctive `WHERE` predicates (`column op literal`, `+`/`-`/`*`
//! arithmetic in join keys and aggregate arguments), `LIKE` on encoded
//! columns, `GROUP BY`, `HAVING` (key or `SELECT`-list aggregate vs a
//! literal), `ORDER BY` and `LIMIT` (lowering to the engine's deterministic
//! top-k).
//!
//! Everything outside the subset — and every unknown table/column, ambiguous
//! name, unclosed string or malformed number — is a typed [`SqlError`] with
//! the byte offset of the offending token. No input panics this crate.
//!
//! The planner is *cost-aware*: the probe side of a join is pinned by where
//! the aggregates and grouping keys live; a free (`COUNT(*)`-only) choice
//! follows the catalog's relation cardinalities alone — probe the largest
//! relation, build the hash table from the smallest. The choice is pure
//! cost because the engine's hash probe preserves multiplicities (duplicate
//! build keys contribute every matching tuple), so statistics can never
//! change an answer (see [`planner`]).

pub mod ast;
pub mod binder;
pub mod catalog;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use binder::{bind, BoundQuery};
pub use catalog::{Catalog, LikeRewrite, TableInfo};
pub use error::SqlError;
pub use parser::parse;
pub use planner::lower;

use htap_olap::QueryPlan;

/// Compile one SQL `SELECT` into a physical [`QueryPlan`]: parse, bind
/// against `catalog`, lower. The single entry point most callers need.
///
/// Each phase opens an `sql.parse` / `sql.bind` / `sql.plan` tracing span
/// (inert when tracing is off), so `execute_sql` traces show where
/// compilation time goes relative to execution.
pub fn plan(sql: &str, catalog: &Catalog) -> Result<QueryPlan, SqlError> {
    let stmt = {
        let _s = htap_obs::span("sql.parse");
        parser::parse(sql)?
    };
    let bound = {
        let _s = htap_obs::span("sql.bind");
        binder::bind(&stmt, catalog)?
    };
    let _s = htap_obs::span("sql.plan");
    planner::lower(&bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_olap::{
        AggExpr, CmpOp, DagBuilder, DagOp, HavingPred, Predicate, RowSlot, ScalarExpr, SortKey,
    };
    use htap_storage::{ColumnDef, DataType, TableSchema};

    /// fact(3000 rows) ⋈ mid(30) ⋈ far(12) ⋈ deep(4), plus an encoded LIKE
    /// on mid.
    fn catalog() -> Catalog {
        Catalog::new()
            .with_table(
                TableSchema::new(
                    "fact",
                    vec![
                        ColumnDef::new("f_id", DataType::I64),
                        ColumnDef::new("f_mid", DataType::I64),
                        ColumnDef::new("f_g", DataType::I32),
                        ColumnDef::new("f_a", DataType::F64),
                    ],
                    Some(0),
                ),
                3_000,
            )
            .with_table(
                TableSchema::new(
                    "mid",
                    vec![
                        ColumnDef::new("m_id", DataType::I64),
                        ColumnDef::new("m_far", DataType::I64),
                        ColumnDef::new("m_v", DataType::F64),
                        ColumnDef::new("m_name", DataType::Str),
                    ],
                    Some(0),
                ),
                30,
            )
            .with_table(
                TableSchema::new(
                    "far",
                    vec![
                        ColumnDef::new("r_id", DataType::I64),
                        ColumnDef::new("r_v", DataType::F64),
                        ColumnDef::new("r_deep", DataType::I64),
                    ],
                    Some(0),
                ),
                12,
            )
            .with_table(
                TableSchema::new("deep", vec![ColumnDef::new("d_id", DataType::I64)], Some(0)),
                4,
            )
            .with_like_rewrite(
                "mid",
                "m_data",
                "PR%",
                Predicate::new("m_v", CmpOp::Lt, 50.0),
            )
    }

    /// Push scan(table) → filter → [probe `(build, key column)`] and return
    /// the pipeline's top op — the unit the expected plans below are made of.
    fn pipeline(
        b: &mut DagBuilder,
        table: &str,
        filters: &[Predicate],
        probe: Option<(usize, &str)>,
    ) -> usize {
        let scan = b.scan(table);
        let at = b.filter(scan, filters);
        match probe {
            Some((build, key)) => b.probe(at, build, ScalarExpr::col(key)),
            None => at,
        }
    }

    #[test]
    fn scalar_aggregate_lowers_to_aggregate_shape() {
        let plan = plan(
            "SELECT SUM(f_a * f_a), COUNT(*) FROM fact WHERE f_a >= 1 AND f_g < 4",
            &catalog(),
        )
        .unwrap();
        let mut b = DagBuilder::default();
        let filters = [
            Predicate::new("f_a", CmpOp::Ge, 1.0),
            Predicate::new("f_g", CmpOp::Lt, 4.0),
        ];
        let at = pipeline(&mut b, "fact", &filters, None);
        b.aggregate(
            at,
            None,
            vec![
                AggExpr::Sum(ScalarExpr::col("f_a") * ScalarExpr::col("f_a")),
                AggExpr::Count,
            ],
        );
        assert_eq!(plan, b.finish().unwrap());
    }

    #[test]
    fn group_by_lowers_with_keys_leading_the_select_list() {
        let plan = plan(
            "SELECT f_g, AVG(f_a), COUNT(*) FROM fact GROUP BY f_g ORDER BY f_g",
            &catalog(),
        )
        .unwrap();
        let mut b = DagBuilder::default();
        let at = pipeline(&mut b, "fact", &[], None);
        b.aggregate(
            at,
            Some(vec!["f_g".into()]),
            vec![AggExpr::Avg(ScalarExpr::col("f_a")), AggExpr::Count],
        );
        assert_eq!(plan, b.finish().unwrap());
    }

    #[test]
    fn plain_key_join_lowers_to_join_aggregate() {
        let plan = plan(
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id WHERE m_v >= 10",
            &catalog(),
        )
        .unwrap();
        // The build side first, then the probing fact pipeline.
        let mut b = DagBuilder::default();
        let mid = pipeline(
            &mut b,
            "mid",
            &[Predicate::new("m_v", CmpOp::Ge, 10.0)],
            None,
        );
        let build = b.build(mid, ScalarExpr::col("m_id"));
        let fact = pipeline(&mut b, "fact", &[], Some((build, "f_mid")));
        b.aggregate(fact, None, vec![AggExpr::Sum(ScalarExpr::col("f_a"))]);
        assert_eq!(plan, b.finish().unwrap());
    }

    #[test]
    fn comma_join_with_where_condition_is_equivalent() {
        let a = plan(
            "SELECT SUM(f_a) FROM fact, mid WHERE f_mid = m_id",
            &catalog(),
        )
        .unwrap();
        let b = plan(
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id",
            &catalog(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    /// Two or more conditions between one pair of relations are one hop
    /// keyed by the tuple of their keys, in text order on each side,
    /// wherever the text puts them and whichever way round each is written.
    #[test]
    fn multi_column_join_lowers_to_one_tuple_hop() {
        let c = catalog();
        let plan = plan(
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id AND m_far = f_id \
             WHERE m_v >= 10",
            &c,
        )
        .unwrap();
        let mut b = DagBuilder::default();
        let mid = pipeline(
            &mut b,
            "mid",
            &[Predicate::new("m_v", CmpOp::Ge, 10.0)],
            None,
        );
        let col = ScalarExpr::col;
        let build = b.build(mid, vec![col("m_id"), col("m_far")]);
        let scan = b.scan("fact");
        let fact = b.probe(scan, build, vec![col("f_mid"), col("f_id")]);
        b.aggregate(fact, None, vec![AggExpr::Sum(col("f_a"))]);
        assert_eq!(plan, b.finish().unwrap());
        for alike in [
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id WHERE m_far = f_id AND m_v >= 10",
            "SELECT SUM(f_a) FROM fact, mid WHERE m_id = f_mid AND f_id = m_far AND m_v >= 10",
        ] {
            assert_eq!(plan, super::plan(alike, &c).unwrap(), "{alike}");
        }
        // A tuple hop inside a chain: fact ⋈ mid on a pair, mid ⋈ far on one key.
        let chain = super::plan(
            "SELECT COUNT(*) FROM fact JOIN mid ON f_mid = m_id AND f_id = m_far \
             JOIN far ON m_far = r_id",
            &c,
        )
        .unwrap();
        assert_eq!(chain.tables(), ["fact", "mid", "far"]);
        let builds: Vec<usize> = chain
            .ops()
            .iter()
            .filter_map(|op| match op {
                DagOp::HashBuild { keys, .. } => Some(keys.len()),
                _ => None,
            })
            .collect();
        assert_eq!(builds, [1, 2]);
    }

    /// What a tuple hop cannot be: conditions that join three relations
    /// pairwise (no chain), a condition over a non-integer column, and a
    /// computed key — each a typed error with the offending condition's
    /// position.
    #[test]
    fn multi_column_join_errors_are_typed() {
        let c = catalog();
        for (sql, needle) in [
            (
                "SELECT COUNT(*) FROM fact, mid, far \
                 WHERE f_mid = m_id AND f_id = m_far AND m_far = r_id AND f_id = r_id",
                "three relations (a chain joins exactly two)",
            ),
            (
                "SELECT COUNT(*) FROM fact JOIN mid ON f_mid = m_id AND f_a = m_v",
                "non-integer column f_a",
            ),
            (
                "SELECT COUNT(*) FROM fact JOIN mid ON f_mid = m_id AND f_g * 2 = m_far",
                "computed key",
            ),
        ] {
            match plan(sql, &c) {
                Err(SqlError::Unsupported { what, pos }) => {
                    assert!(what.contains(needle), "{sql}: {what:?} lacks {needle:?}");
                    assert!(pos > sql.find("WHERE").or(sql.find("ON")).unwrap(), "{sql}");
                }
                other => panic!("{sql}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn group_by_join_lowers_with_top_k() {
        let plan = plan(
            "SELECT f_g, COUNT(*) FROM fact JOIN mid ON f_mid = m_id \
             GROUP BY f_g ORDER BY COUNT(*) DESC LIMIT 5",
            &catalog(),
        )
        .unwrap();
        let mut b = DagBuilder::default();
        let mid = pipeline(&mut b, "mid", &[], None);
        let build = b.build(mid, ScalarExpr::col("m_id"));
        let fact = pipeline(&mut b, "fact", &[], Some((build, "f_mid")));
        let agg = b.aggregate(fact, Some(vec!["f_g".into()]), vec![AggExpr::Count]);
        let sorted = b.push(DagOp::Sort {
            input: agg,
            keys: vec![SortKey {
                slot: RowSlot::Agg(0),
                desc: true,
            }],
        });
        b.push(DagOp::Limit {
            input: sorted,
            rows: 5,
        });
        assert_eq!(plan, b.finish().unwrap());
    }

    #[test]
    fn three_table_chain_lowers_to_multi_join() {
        let plan = plan(
            "SELECT SUM(f_a), COUNT(*) FROM fact \
             JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id \
             WHERE f_a >= 0 AND m_v >= 1 AND r_v < 40",
            &catalog(),
        )
        .unwrap();
        // Far end first; mid probes far and builds for the fact.
        let mut b = DagBuilder::default();
        let far = pipeline(
            &mut b,
            "far",
            &[Predicate::new("r_v", CmpOp::Lt, 40.0)],
            None,
        );
        let far = b.build(far, ScalarExpr::col("r_id"));
        let mid_filters = [Predicate::new("m_v", CmpOp::Ge, 1.0)];
        let mid = pipeline(&mut b, "mid", &mid_filters, Some((far, "m_far")));
        let mid = b.build(mid, ScalarExpr::col("m_id"));
        let fact_filters = [Predicate::new("f_a", CmpOp::Ge, 0.0)];
        let fact = pipeline(&mut b, "fact", &fact_filters, Some((mid, "f_mid")));
        b.aggregate(
            fact,
            None,
            vec![AggExpr::Sum(ScalarExpr::col("f_a")), AggExpr::Count],
        );
        assert_eq!(plan, b.finish().unwrap());
    }

    #[test]
    fn chain_order_in_the_text_does_not_matter() {
        // far listed first: the chain is still discovered from the graph.
        let a = plan(
            "SELECT SUM(f_a) FROM far, mid, fact WHERE m_far = r_id AND f_mid = m_id",
            &catalog(),
        )
        .unwrap();
        let b = plan(
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id",
            &catalog(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn count_only_join_probes_the_larger_side() {
        // Nothing in the SELECT list pins the fact side, so cost decides:
        // fact (3000 rows) probes, mid (30 rows) builds — whatever order
        // the relations are written in.
        for sql in [
            "SELECT COUNT(*) FROM fact JOIN mid ON f_mid = m_id",
            "SELECT COUNT(*) FROM mid JOIN fact ON m_id = f_mid",
        ] {
            let plan = plan(sql, &catalog()).unwrap();
            assert_eq!(plan.tables(), ["fact", "mid"], "{sql}");
        }
    }

    #[test]
    fn free_join_probe_side_is_pure_cost() {
        let schemas = |pk: Option<usize>, fact_rows: u64, mid_rows: u64| {
            Catalog::new()
                .with_table(
                    TableSchema::new(
                        "fact",
                        vec![
                            ColumnDef::new("f_id", DataType::I64),
                            ColumnDef::new("f_mid", DataType::I64),
                        ],
                        pk,
                    ),
                    fact_rows,
                )
                .with_table(
                    TableSchema::new("mid", vec![ColumnDef::new("m_id", DataType::I64)], pk),
                    mid_rows,
                )
        };
        let probe = |catalog: &Catalog| {
            let plan = plan(
                "SELECT COUNT(*) FROM fact JOIN mid ON f_mid = m_id",
                catalog,
            )
            .unwrap();
            plan.tables()[0].to_string()
        };
        // The hash probe preserves multiplicities, so either probe order
        // returns the same COUNT(*): the planner follows cost alone — probe
        // the larger relation — and a declared primary key pins nothing.
        assert_eq!(probe(&schemas(Some(0), 3_000, 30)), "fact");
        assert_eq!(probe(&schemas(Some(0), 30, 3_000)), "mid");
        assert_eq!(probe(&schemas(None, 3_000, 30)), "fact");
        assert_eq!(probe(&schemas(None, 30, 3_000)), "mid");
    }

    #[test]
    fn count_only_chain_picks_an_endpoint_even_when_the_middle_is_largest() {
        // mid (the chain's middle relation) dwarfs both endpoints: the
        // planner must still probe an endpoint — no physical plan probes
        // the middle — instead of rejecting the query.
        let big_mid = Catalog::new()
            .with_table(
                TableSchema::new(
                    "fact",
                    vec![
                        ColumnDef::new("f_id", DataType::I64),
                        ColumnDef::new("f_mid", DataType::I64),
                    ],
                    Some(0),
                ),
                3_000,
            )
            .with_table(
                TableSchema::new(
                    "mid",
                    vec![
                        ColumnDef::new("m_id", DataType::I64),
                        ColumnDef::new("m_far", DataType::I64),
                    ],
                    Some(0),
                ),
                1_000_000,
            )
            .with_table(
                TableSchema::new("far", vec![ColumnDef::new("r_id", DataType::I64)], Some(0)),
                12,
            );
        let plan = plan(
            "SELECT COUNT(*) FROM fact JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id",
            &big_mid,
        )
        .unwrap();
        // Cost chooses among the *endpoints* only (fact: 3000 vs far: 12),
        // so the fact endpoint probes; mid stays the middle build no matter
        // how large it is.
        assert_eq!(plan.tables(), ["fact", "mid", "far"]);
    }

    #[test]
    fn aggregates_over_the_chain_middle_are_rejected_with_a_clear_error() {
        let err = plan(
            "SELECT SUM(m_v) FROM fact JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id",
            &catalog(),
        )
        .unwrap_err();
        assert!(
            matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("middle")),
            "expected a middle-relation error, got {err:?}"
        );
    }

    #[test]
    fn expression_join_keys_compile_to_scalar_exprs() {
        let plan = plan(
            "SELECT f_g, SUM(f_a) FROM fact JOIN mid ON f_g * 4 + f_id = m_id GROUP BY f_g \
             ORDER BY f_g",
            &catalog(),
        )
        .unwrap();
        let probe_keys: Vec<&Vec<ScalarExpr>> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                DagOp::HashProbe { keys, .. } => Some(keys),
                _ => None,
            })
            .collect();
        assert_eq!(
            probe_keys,
            [&vec![
                ScalarExpr::col("f_g") * ScalarExpr::lit(4.0) + ScalarExpr::col("f_id")
            ]]
        );
    }

    /// Regression: a scalar join keeps its one result row whatever the key
    /// expressions are — no GROUP BY in the text, no grouping in the plan
    /// (a grouped sink over an empty key list loses the row on empty input).
    #[test]
    fn scalar_join_with_computed_keys_has_no_grouping() {
        let plan = plan(
            "SELECT COUNT(*) FROM fact JOIN mid ON f_g * 4 + f_id = m_id WHERE f_a >= 1",
            &catalog(),
        )
        .unwrap();
        let sinks: Vec<_> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                DagOp::HashAggregate { group_by, .. } => Some(group_by),
                _ => None,
            })
            .collect();
        assert_eq!(sinks, [&None]);
        assert_eq!(plan.label(), "scan(fact)→filter→probe×1→aggregate");
    }

    #[test]
    fn having_lowers_to_a_dag_having_finisher() {
        let plan = plan(
            "SELECT f_g, COUNT(*) FROM fact GROUP BY f_g HAVING COUNT(*) > 10 AND f_g >= 2",
            &catalog(),
        )
        .unwrap();
        let having: Vec<_> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                DagOp::Having { predicates, .. } => Some(predicates.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            having,
            vec![vec![
                HavingPred {
                    slot: RowSlot::Agg(0),
                    op: CmpOp::Gt,
                    literal: 10.0,
                },
                HavingPred {
                    slot: RowSlot::Key(0),
                    op: CmpOp::Ge,
                    literal: 2.0,
                },
            ]]
        );
    }

    #[test]
    fn join_with_having_and_top_k_lowers_to_dag_finishers() {
        let plan = plan(
            "SELECT f_g, COUNT(*) FROM fact JOIN mid ON f_mid = m_id GROUP BY f_g \
             HAVING COUNT(*) >= 3 ORDER BY COUNT(*) DESC LIMIT 2",
            &catalog(),
        )
        .unwrap();
        // Scans listed probe side first, then the build side.
        assert_eq!(plan.tables(), ["fact", "mid"]);
        // The finishers run in clause order: having → sort → limit.
        let ops = plan.ops();
        let n = ops.len();
        assert!(matches!(&ops[n - 3], DagOp::Having { predicates, .. }
            if predicates.len() == 1));
        assert!(matches!(&ops[n - 2], DagOp::Sort { keys, .. }
            if keys.len() == 1 && keys[0].desc && keys[0].slot == RowSlot::Agg(0)));
        assert!(matches!(&ops[n - 1], DagOp::Limit { rows: 2, .. }));
    }

    #[test]
    fn having_binding_errors_are_typed() {
        let c = catalog();
        for (sql, needle) in [
            (
                "SELECT COUNT(*) FROM fact HAVING COUNT(*) > 1",
                "HAVING without GROUP BY",
            ),
            (
                "SELECT f_g, COUNT(*) FROM fact GROUP BY f_g HAVING f_a > 1",
                "not a GROUP BY key",
            ),
            (
                "SELECT f_g, COUNT(*) FROM fact GROUP BY f_g HAVING SUM(f_a) > 1",
                "not in the SELECT list",
            ),
        ] {
            let err = plan(sql, &c).unwrap_err();
            match &err {
                SqlError::Unsupported { what, .. } => {
                    assert!(what.contains(needle), "{sql}: {what:?} lacks {needle:?}")
                }
                other => panic!("{sql}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn four_relation_chains_lower_onto_an_operator_dag() {
        // The chain lowers onto a build/probe cascade from the far end
        // inward, however long it is.
        let plan = plan(
            "SELECT SUM(f_a), COUNT(*) FROM fact \
             JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id JOIN deep ON r_deep = d_id \
             WHERE m_v >= 1",
            &catalog(),
        )
        .unwrap();
        // Probe side first, then the builds walking down the chain.
        assert_eq!(plan.tables(), ["fact", "mid", "far", "deep"]);
        let builds = plan
            .ops()
            .iter()
            .filter(|op| matches!(op, DagOp::HashBuild { .. }))
            .count();
        let probes = plan
            .ops()
            .iter()
            .filter(|op| matches!(op, DagOp::HashProbe { .. }))
            .count();
        assert_eq!((builds, probes), (3, 3));
    }

    #[test]
    fn four_relation_chain_order_in_the_text_does_not_matter() {
        // The graph, not the FROM order, determines the chain roles.
        let a = plan(
            "SELECT SUM(f_a) FROM deep, far, mid, fact \
             WHERE r_deep = d_id AND m_far = r_id AND f_mid = m_id",
            &catalog(),
        )
        .unwrap();
        let b = plan(
            "SELECT SUM(f_a) FROM fact \
             JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id JOIN deep ON r_deep = d_id",
            &catalog(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn four_relation_non_chains_are_rejected() {
        let c = catalog();
        // Three conditions that do not touch `deep` at all: the two between
        // fact and mid are one tuple hop, so two hops join three relations
        // and `deep` is left out.
        let err = plan(
            "SELECT COUNT(*) FROM fact, mid, far, deep \
             WHERE f_mid = m_id AND f_id = m_id AND m_far = r_id",
            &c,
        )
        .unwrap_err();
        assert!(
            matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("chain")),
            "expected a chain error, got {err:?}"
        );
    }

    #[test]
    fn like_on_encoded_column_rewrites_to_the_registered_predicate() {
        let plan = plan(
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id WHERE m_data LIKE 'PR%'",
            &catalog(),
        )
        .unwrap();
        let filters: Vec<_> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                DagOp::Filter { predicates, .. } => Some(predicates.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(filters, [&[Predicate::new("m_v", CmpOp::Lt, 50.0)]]);
    }

    #[test]
    fn like_errors_are_typed() {
        let c = catalog();
        // Unknown pattern on a registered encoded column.
        let err = plan(
            "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id WHERE m_data LIKE 'XX%'",
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("PR%")));
        // LIKE on a real numeric column (no rewrite).
        let err = plan("SELECT SUM(f_a) FROM fact WHERE f_a LIKE 'x'", &c).unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("LIKE")));
        // LIKE on a column that exists nowhere.
        let err = plan("SELECT SUM(f_a) FROM fact WHERE ghost LIKE 'x'", &c).unwrap_err();
        assert!(matches!(err, SqlError::UnknownColumn { .. }));
        // LIKE on an encoded column whose relation is not in scope.
        let err = plan("SELECT SUM(f_a) FROM fact WHERE m_data LIKE 'PR%'", &c).unwrap_err();
        assert!(matches!(err, SqlError::UnknownColumn { .. }));
        // A qualified LIKE naming an out-of-scope table blames the *table*,
        // not the column — the qualifier is the actual problem.
        let err = plan("SELECT SUM(f_a) FROM fact WHERE mid.m_data LIKE 'PR%'", &c).unwrap_err();
        assert!(
            matches!(err, SqlError::UnknownTable { ref name, .. } if name == "mid"),
            "expected UnknownTable(mid), got {err:?}"
        );
    }

    #[test]
    fn name_resolution_errors_are_typed_with_positions() {
        let c = catalog();
        let err = plan("SELECT COUNT(*) FROM nope", &c).unwrap_err();
        assert_eq!(
            err,
            SqlError::UnknownTable {
                name: "nope".into(),
                pos: 21
            }
        );
        let err = plan("SELECT COUNT(*) FROM fact WHERE ghost > 1", &c).unwrap_err();
        assert!(matches!(err, SqlError::UnknownColumn { ref name, pos: 32 } if name == "ghost"));
        // m_v exists only in mid; referencing it from a fact-only scope fails.
        let err = plan("SELECT COUNT(*) FROM fact WHERE m_v > 1", &c).unwrap_err();
        assert!(matches!(err, SqlError::UnknownColumn { .. }));
        // r_v is unambiguous; a column carried by two relations is not.
        let two = Catalog::new()
            .with_table(
                TableSchema::new("a", vec![ColumnDef::new("x", DataType::I64)], Some(0)),
                10,
            )
            .with_table(
                TableSchema::new("b", vec![ColumnDef::new("x", DataType::I64)], Some(0)),
                10,
            );
        let err = plan("SELECT COUNT(*) FROM a, b WHERE x > 1", &two).unwrap_err();
        assert!(
            matches!(err, SqlError::AmbiguousColumn { ref name, ref tables, .. }
                if name == "x" && tables == &vec!["a".to_string(), "b".into()])
        );
        // Qualification resolves the ambiguity — but a cross join is still
        // out of the subset, which is the next typed error in line.
        let err = plan("SELECT COUNT(*) FROM a, b WHERE a.x > 1", &two).unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("cross")));
        let ok = plan(
            "SELECT COUNT(*) FROM a, b WHERE a.x = b.x AND a.x > 1",
            &two,
        )
        .unwrap();
        assert_eq!(ok.label(), "scan(a)→filter→probe×1→aggregate");
    }

    #[test]
    fn duplicate_tables_and_string_columns_are_rejected() {
        let c = catalog();
        let err = plan("SELECT COUNT(*) FROM fact, fact", &c).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateTable { ref name, .. } if name == "fact"));
        let err = plan("SELECT COUNT(*) FROM mid WHERE m_name = 1", &c).unwrap_err();
        assert!(matches!(err, SqlError::Unsupported { ref what, .. } if what.contains("string")));
    }

    #[test]
    fn shape_mismatches_are_unsupported_not_panics() {
        let c = catalog();
        for (sql, needle) in [
            // Aggregates from the build side.
            (
                "SELECT f_g, SUM(m_v) FROM fact JOIN mid ON f_mid = m_id GROUP BY f_g",
                "probe side",
            ),
            // Top-k without a join.
            (
                "SELECT f_g, COUNT(*) FROM fact GROUP BY f_g ORDER BY COUNT(*) DESC LIMIT 3",
                "GROUP BY",
            ),
            // LIMIT without the aggregate ordering.
            (
                "SELECT f_g, COUNT(*) FROM fact JOIN mid ON f_mid = m_id GROUP BY f_g LIMIT 3",
                "LIMIT",
            ),
            // Aggregate ordering without LIMIT.
            (
                "SELECT f_g, COUNT(*) FROM fact JOIN mid ON f_mid = m_id GROUP BY f_g \
                 ORDER BY COUNT(*) DESC",
                "LIMIT",
            ),
            // GROUP BY over three relations.
            (
                "SELECT f_g, COUNT(*) FROM fact JOIN mid ON f_mid = m_id \
                 JOIN far ON m_far = r_id GROUP BY f_g",
                "three-relation",
            ),
            // Non-equi join.
            (
                "SELECT COUNT(*) FROM fact JOIN mid ON f_mid < m_id",
                "non-equality",
            ),
            // Cross join of three relations.
            (
                "SELECT SUM(f_a) FROM fact, mid, far WHERE f_mid = m_id",
                "chain",
            ),
            // Both conditions touch the aggregate-bearing relation: the
            // chain puts it in the middle, which no physical plan probes.
            (
                "SELECT SUM(f_a) FROM fact, mid, far WHERE f_mid = m_id AND f_id = r_id",
                "middle",
            ),
            // Computed filter.
            ("SELECT SUM(f_a) FROM fact WHERE f_a * 2 > 1", "computed"),
            // Constant comparison.
            ("SELECT SUM(f_a) FROM fact WHERE 1 < 2", "constants"),
            // Non-integer group key.
            ("SELECT f_a, COUNT(*) FROM fact GROUP BY f_a", "non-integer"),
            // Grouped select list not led by the keys.
            ("SELECT COUNT(*) FROM fact GROUP BY f_g", "GROUP BY key"),
            // ORDER BY a non-key column.
            (
                "SELECT f_g, COUNT(*) FROM fact GROUP BY f_g ORDER BY f_id",
                "GROUP BY order",
            ),
            // Four relations.
            (
                "SELECT COUNT(*) FROM fact, mid, far, fact WHERE f_mid = m_id",
                "",
            ),
        ] {
            let err = plan(sql, &c).unwrap_err();
            match &err {
                SqlError::Unsupported { what, .. } => {
                    assert!(what.contains(needle), "{sql}: {what:?} lacks {needle:?}")
                }
                SqlError::DuplicateTable { .. } if sql.contains("fact, mid, far, fact") => {}
                other => panic!("{sql}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn literal_on_the_left_flips_the_operator() {
        let plan = plan("SELECT SUM(f_a) FROM fact WHERE 10 >= f_a", &catalog()).unwrap();
        let mut b = DagBuilder::default();
        let at = pipeline(
            &mut b,
            "fact",
            &[Predicate::new("f_a", CmpOp::Le, 10.0)],
            None,
        );
        b.aggregate(at, None, vec![AggExpr::Sum(ScalarExpr::col("f_a"))]);
        assert_eq!(plan, b.finish().unwrap());
    }

    #[test]
    fn constant_arithmetic_folds_into_the_literal() {
        let plan = plan(
            "SELECT SUM(f_a) FROM fact WHERE f_a < 2 * 3 + 1",
            &catalog(),
        )
        .unwrap();
        assert!(matches!(&plan.ops()[1], DagOp::Filter { predicates, .. }
            if predicates == &[Predicate::new("f_a", CmpOp::Lt, 7.0)]));
    }
}
