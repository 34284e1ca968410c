//! Proptest fuzzing of the SQL frontend: any input — token soup, mutated
//! valid queries, truncations — must come back as `Ok(plan)` or a typed
//! `Err(SqlError)`. A panic anywhere in lexing, parsing, binding or lowering
//! fails these tests.
//!
//! The complementary positive property (generated *valid* queries plan and
//! execute correctly against the row-at-a-time oracle) lives in the
//! workspace-level `tests/sql_differential.rs`, next to the engine it needs.

use htap_olap::{AggExpr, CmpOp, Pipeline, Predicate, ScalarExpr};
use htap_sql::{plan, Catalog, SqlError};
use htap_storage::{ColumnDef, DataType, TableSchema};
use proptest::prelude::*;

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
                ],
                Some(0),
            ),
            12,
        )
        .with_like_rewrite(
            "mid",
            "m_tag",
            "HI%",
            Predicate::new("m_v", CmpOp::Ge, 50.0),
        )
}

/// Vocabulary the token-soup generator draws from: every keyword and symbol
/// of the grammar, valid and invalid names, literals and junk.
const SOUP: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "GROUP",
    "BY",
    "ORDER",
    "LIMIT",
    "JOIN",
    "INNER",
    "LEFT",
    "ON",
    "AS",
    "ASC",
    "DESC",
    "LIKE",
    "NOT",
    "HAVING",
    "DISTINCT",
    "BETWEEN",
    "IN",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "COUNT",
    "fact",
    "mid",
    "far",
    "ghost",
    "f_id",
    "f_mid",
    "f_g",
    "f_a",
    "m_id",
    "m_v",
    "m_tag",
    "r_id",
    "r_v",
    "x",
    "(",
    ")",
    ",",
    "*",
    "+",
    "-",
    ".",
    ";",
    "=",
    "<>",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "'PR%'",
    "'HI%'",
    "'unclosed",
    "''",
    "0",
    "1",
    "2.5",
    "10000000",
    "1.2.3",
    "-3",
    "#",
    "?",
    "@",
];

/// Valid seed queries for the mutation property — one per physical shape,
/// plus LIKE, qualification and arithmetic coverage.
const VALID: &[&str] = &[
    "SELECT SUM(f_a), COUNT(*) FROM fact WHERE f_a >= 1 AND f_g < 4",
    "SELECT f_g, AVG(f_a), COUNT(*) FROM fact GROUP BY f_g ORDER BY f_g",
    "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id WHERE m_v >= 10",
    "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id WHERE m_tag LIKE 'HI%'",
    "SELECT COUNT(*) FROM mid JOIN fact ON m_id = f_mid",
    "SELECT SUM(f_a), COUNT(*) FROM fact JOIN mid ON f_mid = m_id JOIN far ON m_far = r_id \
     WHERE f_a >= 0 AND m_v >= 1 AND r_v < 40",
    "SELECT f_g, COUNT(*) FROM fact JOIN mid ON f_mid = m_id GROUP BY f_g \
     ORDER BY COUNT(*) DESC LIMIT 5",
    "SELECT SUM(f_a * f_a - f_id), MIN(f_a), MAX(f_a) FROM fact WHERE fact.f_g = 3",
    "SELECT COUNT(*) FROM fact, mid WHERE f_mid = m_id AND 10 >= f_a;",
    "SELECT SUM(f_a) FROM fact JOIN mid ON f_mid = m_id AND m_far = f_id WHERE f_g = m_id",
];

/// Characters the byte-level mutator splices in.
const MUTATION_CHARS: &[char] = &[
    ' ', '(', ')', ',', '*', '+', '-', '.', ';', '=', '<', '>', '!', '\'', 'x', '0', '9', 'S', '_',
    '%', '#',
];

proptest! {
    /// Random token soup: the frontend returns, it never panics.
    #[test]
    fn token_soup_never_panics(indices in prop::collection::vec(0usize..SOUP.len(), 0..40)) {
        let sql = indices
            .iter()
            .map(|&i| SOUP[i])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = plan(&sql, &catalog());
    }

    /// Token soup without separators (tokens may fuse into new ones).
    #[test]
    fn fused_token_soup_never_panics(indices in prop::collection::vec(0usize..SOUP.len(), 0..20)) {
        let sql = indices.iter().map(|&i| SOUP[i]).collect::<String>();
        let _ = plan(&sql, &catalog());
    }

    /// Mutated valid queries: delete, replace or insert a character — the
    /// result must still be a clean Ok/Err, and truncations at any char
    /// boundary must too.
    #[test]
    fn mutated_valid_queries_never_panic(
        query_idx in 0usize..VALID.len(),
        mutation in 0u32..3,
        at_permille in 0usize..1000,
        ch_idx in 0usize..MUTATION_CHARS.len(),
    ) {
        let base = VALID[query_idx];
        let at = (at_permille * base.len() / 1000).min(base.len().saturating_sub(1));
        let mut mutated = String::with_capacity(base.len() + 1);
        for (i, c) in base.chars().enumerate() {
            match mutation {
                0 if i == at => {}                                   // delete
                1 if i == at => mutated.push(MUTATION_CHARS[ch_idx]), // replace
                2 if i == at => {                                    // insert
                    mutated.push(MUTATION_CHARS[ch_idx]);
                    mutated.push(c);
                }
                _ => mutated.push(c),
            }
        }
        let _ = plan(&mutated, &catalog());
        // Truncation sweep around the mutation point.
        let cut = at.min(mutated.len());
        let _ = plan(&mutated[..cut], &catalog());
    }

    /// Structured random queries assembled from the grammar: always valid,
    /// must always plan (the binder/planner accept the whole subset).
    #[test]
    fn generated_valid_queries_always_plan(
        shape in 0u32..5,
        filters in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let sql = generate_valid(shape, filters, seed);
        match plan(&sql, &catalog()) {
            Ok(_) => {}
            Err(e) => panic!("valid query failed to plan: {sql:?}: {e}"),
        }
    }
}

/// The integer `(fact, mid)` column pairs a multi-column join draws from
/// (`m_id` serves twice: an element may repeat a column).
const TUPLE_PAIRS: [(&str, &str); 3] = [("f_mid", "m_id"), ("f_id", "m_far"), ("f_g", "m_id")];

proptest! {
    /// Two or three equi-conditions between `fact` and `mid`, each written
    /// either way round, the first `on` of them in the `ON` clause and the
    /// rest in `WHERE` among the filters: the query plans, into one hop
    /// keyed by the tuple — the same plan as with every condition in `ON`.
    #[test]
    fn multi_column_joins_plan_as_one_tuple_hop(
        pairs in 2usize..=3,
        on in 0usize..=3,
        flips in 0u8..8,
        filters in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let c = catalog();
        let conditions: Vec<String> = TUPLE_PAIRS[..pairs]
            .iter()
            .enumerate()
            .map(|(i, (f, m))| if flips >> i & 1 == 1 {
                format!("{m} = {f}")
            } else {
                format!("{f} = {m}")
            })
            .collect();
        let on = on.clamp(1, pairs);
        let head = format!(
            "SELECT SUM(f_a), COUNT(*) FROM fact JOIN mid ON {}",
            conditions[..on].join(" AND ")
        );
        let mut where_terms: Vec<String> = conditions[on..].to_vec();
        where_terms.extend(
            (0..filters).map(|i| format!("f_a >= {}", (seed >> (8 * i)) % 30)),
        );
        let sql = build_query(&head, &where_terms, "");
        let split = plan(&sql, &c).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        let all_on = build_query(
            &format!(
                "SELECT SUM(f_a), COUNT(*) FROM fact JOIN mid ON {}",
                conditions.join(" AND ")
            ),
            &where_terms[pairs - on..],
            "",
        );
        prop_assert_eq!(&split, &plan(&all_on, &c).unwrap());
        let side = |pick: fn((&'static str, &'static str)) -> &'static str| -> Vec<ScalarExpr> {
            TUPLE_PAIRS[..pairs].iter().map(|&p| ScalarExpr::col(pick(p))).collect()
        };
        let fact_filters: Vec<Predicate> = (0..filters)
            .map(|i| Predicate::new("f_a", CmpOp::Ge, ((seed >> (8 * i)) % 30) as f64))
            .collect();
        let expected = Pipeline::scan("fact")
            .filter(fact_filters)
            .probe(Pipeline::scan("mid").build(side(|p| p.1)), side(|p| p.0))
            .aggregate(vec![AggExpr::Sum(ScalarExpr::col("f_a")), AggExpr::Count])
            .finish()
            .unwrap();
        prop_assert_eq!(split, expected);
    }
}

/// Deterministically assemble a valid query of the given shape.
fn generate_valid(shape: u32, filters: usize, seed: u64) -> String {
    let fact_cols = ["f_id", "f_mid", "f_g", "f_a"];
    let ops = [">=", "<=", "<", ">", "=", "<>"];
    let aggs = [
        "SUM(f_a)",
        "AVG(f_a)",
        "MIN(f_a)",
        "MAX(f_a + f_g * 2)",
        "COUNT(*)",
    ];
    let pick = |n: usize, salt: u64| {
        (seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt) % n as u64) as usize
    };

    let mut where_terms: Vec<String> = (0..filters)
        .map(|i| {
            format!(
                "{} {} {}",
                fact_cols[pick(fact_cols.len(), i as u64)],
                ops[pick(ops.len(), 31 + i as u64)],
                pick(4000, 77 + i as u64)
            )
        })
        .collect();
    let agg = aggs[pick(aggs.len(), 7)];
    match shape {
        0 => build_query(
            &format!("SELECT {agg}, COUNT(*) FROM fact"),
            &where_terms,
            "",
        ),
        1 => build_query(
            &format!("SELECT f_g, {agg} FROM fact"),
            &where_terms,
            " GROUP BY f_g ORDER BY f_g",
        ),
        2 => {
            where_terms.push("m_v >= 1".into());
            build_query(
                &format!("SELECT {agg} FROM fact JOIN mid ON f_mid = m_id"),
                &where_terms,
                "",
            )
        }
        3 => {
            where_terms.push("r_v < 45".into());
            build_query(
                &format!(
                    "SELECT {agg}, COUNT(*) FROM fact JOIN mid ON f_mid = m_id \
                     JOIN far ON m_far = r_id"
                ),
                &where_terms,
                "",
            )
        }
        _ => build_query(
            &format!("SELECT f_g, COUNT(*), {agg} FROM fact JOIN mid ON f_mid = m_id"),
            &where_terms,
            &format!(
                " GROUP BY f_g ORDER BY COUNT(*) DESC LIMIT {}",
                1 + pick(7, 13)
            ),
        ),
    }
}

fn build_query(head: &str, where_terms: &[String], tail: &str) -> String {
    if where_terms.is_empty() {
        format!("{head}{tail}")
    } else {
        format!("{head} WHERE {}{tail}", where_terms.join(" AND "))
    }
}

/// Deterministic spot checks that the fuzz vocabulary actually reaches the
/// typed error variants (so the properties above exercise real paths).
#[test]
fn fuzz_vocabulary_reaches_every_error_variant() {
    let c = catalog();
    let expect = |sql: &str| plan(sql, &c).unwrap_err();
    assert!(matches!(
        expect("SELECT # FROM fact"),
        SqlError::UnexpectedChar { .. }
    ));
    assert!(matches!(
        expect("SELECT COUNT(*) FROM fact WHERE m_tag LIKE 'unclosed"),
        SqlError::UnclosedString { .. }
    ));
    assert!(matches!(
        expect("SELECT 1.2.3 FROM fact"),
        SqlError::BadNumber { .. }
    ));
    assert!(matches!(
        expect("SELECT FROM fact"),
        SqlError::UnexpectedToken { .. }
    ));
    assert!(matches!(
        expect("SELECT COUNT(*) FROM ghost"),
        SqlError::UnknownTable { .. }
    ));
    assert!(matches!(
        expect("SELECT SUM(ghost) FROM fact"),
        SqlError::UnknownColumn { .. }
    ));
    assert!(matches!(
        expect("SELECT COUNT(*) FROM fact, fact"),
        SqlError::DuplicateTable { .. }
    ));
    assert!(matches!(
        expect("SELECT COUNT(*) FROM fact WHERE f_a = 1 OR f_a = 2"),
        SqlError::Unsupported { .. }
    ));
}
