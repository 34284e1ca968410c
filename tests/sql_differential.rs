//! SQL differential suite: the frontend's plans, executed by the engine,
//! versus the row-at-a-time oracle.
//!
//! 1. Every CH query (defined as SQL text) executed over the populated CH
//!    database yields a `QueryOutput` bit-for-bit identical at 1, 2 and 4
//!    workers that agrees with the oracle — result rows within the SUM/AVG
//!    tolerance and every `WorkProfile` integer exactly — on both the
//!    contiguous (S2) and the split, fresh-tail (S3-NI) access paths.
//! 2. Randomized SQL texts over a synthetic star schema round-trip
//!    parse → bind → plan → vectorized execution and agree with the oracle
//!    the same way, with the engine bit-identical across worker counts.

use adaptive_htap::chbench::query_mix_wide;
use adaptive_htap::olap::{
    execute_reference_with_work, OlapError, QueryExecutor, QueryOutput, QueryPlan, QueryResult,
    ScanSource, WorkerTeam,
};
use adaptive_htap::sim::{CoreId, SocketId};
use adaptive_htap::sql::{plan as plan_sql, Catalog, SqlError};
use adaptive_htap::storage::{
    ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value,
};
use adaptive_htap::{HtapConfig, HtapSystem, SqlRunError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Layer 1: CH-catalog SQL over real data, engine vs oracle.
// ---------------------------------------------------------------------------

/// Run `sql` over the CH database under `state` at 1/2/4 workers: outputs
/// must be bit-identical across worker counts and agree with the oracle on
/// rows (SUM/AVG within tolerance) and on the whole `WorkProfile`, exactly.
fn assert_ch_sql_matches_oracle(system: &HtapSystem, sql: &str, ctx: &str) -> QueryOutput {
    let plan = system
        .plan_sql(sql)
        .unwrap_or_else(|e| panic!("{ctx}: SQL failed to plan: {e}"));
    // Schedule once and execute over the same access paths every time.
    let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
    let executor = QueryExecutor::with_block_rows(257);
    let run = |workers: u16| {
        let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
        executor
            .execute_parallel(&plan, &scheduled.sources, &team)
            .unwrap_or_else(|e| panic!("{ctx} {workers}w: engine failed: {e}"))
    };
    let solo = run(1);
    assert_matches_oracle(&solo, &plan, &scheduled.sources, ctx);
    for workers in [2u16, 4] {
        assert_eq!(run(workers), solo, "{ctx}: {workers} workers diverged");
    }
    solo
}

/// The seven CH queries under S2 (ETL, OLAP-local contiguous scan) and
/// S3-NI (split access — OLAP-local head plus the fresh OLTP tail), with
/// fresh OLTP rows in the mix.
#[test]
fn ch_sql_outputs_match_the_oracle_at_1_2_4_workers() {
    use adaptive_htap::{Schedule, SystemState};
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    // Ingest so the split path has a fresh tail to account for.
    system.run_oltp(10);
    for state in [SystemState::S2Isolated, SystemState::S3HybridNonIsolated] {
        system.set_schedule(Schedule::Static(state));
        for query in query_mix_wide() {
            let ctx = format!("{} {state:?}", query.label());
            let out = assert_ch_sql_matches_oracle(&system, &query.sql(), &ctx);
            assert!(out.work.tuples_scanned > 0, "{ctx}: vacuous comparison");
        }
    }
}

/// Regression: a scalar join whose keys are computed expressions used to be
/// planned as a grouped join over zero key columns, and an empty grouped
/// result has zero groups — the query printed no row at all. A scalar query
/// always yields its one row: `COUNT = 0` on empty input, and on non-empty
/// input the same values the one-group row carried.
#[test]
fn scalar_join_with_computed_keys_keeps_its_row_on_empty_input() {
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    system.run_oltp(10);
    let sql = |floor: u64| {
        format!(
            "SELECT COUNT(*) FROM orders JOIN orderline \
             ON o_key = (ol_w_id*100+ol_d_id)*10000000+ol_o_id WHERE ol_amount >= {floor}"
        )
    };
    let empty = assert_ch_sql_matches_oracle(&system, &sql(100_000_000), "empty computed-key join");
    assert_eq!(empty.result, QueryResult::Scalars(vec![0.0]));
    let some = assert_ch_sql_matches_oracle(&system, &sql(500), "computed-key join");
    assert!(some.result.scalars().unwrap()[0] > 0.0);
    // The plain-key twin always behaved; both now agree on the empty shape.
    let plain = "SELECT COUNT(*) FROM orderline JOIN item ON ol_i_id = i_id \
                 WHERE ol_amount >= 100000000";
    let twin = assert_ch_sql_matches_oracle(&system, plain, "empty plain-key join");
    assert_eq!(twin.result, empty.result);
}

// ---------------------------------------------------------------------------
// Layer 2: randomized SQL round-trips against the oracle.
// ---------------------------------------------------------------------------

const FACT_ROWS: u64 = 2_000;
const MID_ROWS: u64 = 30;
const FAR_ROWS: u64 = 12;

struct Dataset {
    fact: Arc<ColumnarTable>,
    mid: Arc<ColumnarTable>,
    far: Arc<ColumnarTable>,
}

impl Dataset {
    fn build() -> Self {
        let mut rng = StdRng::seed_from_u64(0x50_51);
        let fact = {
            let schema = TableSchema::new(
                "fact",
                vec![
                    ColumnDef::new("f_id", DataType::I64),
                    ColumnDef::new("f_mid", DataType::I64),
                    ColumnDef::new("f_g", DataType::I32),
                    ColumnDef::new("f_h", DataType::I32),
                    ColumnDef::new("f_a", DataType::F64),
                    ColumnDef::new("f_b", DataType::F64),
                ],
                Some(0),
            );
            let t = ColumnarTable::new(schema);
            for i in 0..FACT_ROWS {
                t.append_row(&[
                    Value::I64(i as i64),
                    Value::I64(rng.random_range(0..MID_ROWS) as i64),
                    Value::I32(rng.random_range(0..6)),
                    Value::I32(rng.random_range(0..4)),
                    Value::F64(rng.random_range(0.0..25.0)),
                    Value::F64(rng.random_range(-10.0..10.0)),
                ])
                .unwrap();
            }
            Arc::new(t)
        };
        let mid = {
            let schema = TableSchema::new(
                "mid",
                vec![
                    ColumnDef::new("m_id", DataType::I64),
                    ColumnDef::new("m_far", DataType::I64),
                    ColumnDef::new("m_v", DataType::F64),
                ],
                Some(0),
            );
            let t = ColumnarTable::new(schema);
            for i in 0..MID_ROWS {
                t.append_row(&[
                    Value::I64(i as i64),
                    Value::I64(rng.random_range(0..FAR_ROWS) as i64),
                    Value::F64(rng.random_range(0.0..100.0)),
                ])
                .unwrap();
            }
            Arc::new(t)
        };
        let far = {
            let schema = TableSchema::new(
                "far",
                vec![
                    ColumnDef::new("r_id", DataType::I64),
                    ColumnDef::new("r_v", DataType::F64),
                ],
                Some(0),
            );
            let t = ColumnarTable::new(schema);
            for i in 0..FAR_ROWS {
                t.append_row(&[
                    Value::I64(i as i64),
                    Value::F64(rng.random_range(0.0..50.0)),
                ])
                .unwrap();
            }
            Arc::new(t)
        };
        Dataset { fact, mid, far }
    }

    fn sources(&self, split_fact: bool) -> BTreeMap<String, ScanSource> {
        let mut sources = BTreeMap::new();
        let fact_snap = TableSnapshot::new("fact".into(), Arc::clone(&self.fact), FACT_ROWS);
        let fact_source = if split_fact {
            ScanSource::split(
                Arc::clone(&self.fact),
                FACT_ROWS / 2,
                SocketId(1),
                &fact_snap,
                SocketId(0),
            )
        } else {
            ScanSource::contiguous_snapshot(&fact_snap, SocketId(0))
        };
        sources.insert("fact".to_string(), fact_source);
        let mid_snap = TableSnapshot::new("mid".into(), Arc::clone(&self.mid), MID_ROWS);
        sources.insert(
            "mid".to_string(),
            ScanSource::contiguous_snapshot(&mid_snap, SocketId(1)),
        );
        let far_snap = TableSnapshot::new("far".into(), Arc::clone(&self.far), FAR_ROWS);
        sources.insert(
            "far".to_string(),
            ScanSource::contiguous_snapshot(&far_snap, SocketId(1)),
        );
        sources
    }

    /// The SQL catalog over this star schema, with an encoded LIKE on `mid`
    /// (`m_tag LIKE 'HI%'` ≡ `m_v >= 50` — the upper half of the range).
    fn catalog(&self) -> Catalog {
        Catalog::new()
            .with_table(self.fact.schema().clone(), FACT_ROWS)
            .with_table(self.mid.schema().clone(), MID_ROWS)
            .with_table(self.far.schema().clone(), FAR_ROWS)
            .with_like_rewrite(
                "mid",
                "m_tag",
                "HI%",
                adaptive_htap::olap::Predicate::new("m_v", adaptive_htap::olap::CmpOp::Ge, 50.0),
            )
    }
}

/// Random `column op literal` filter text over a column pool.
fn rand_filters(rng: &mut StdRng, pool: &[(&str, f64, f64)], max: u32) -> Vec<String> {
    (0..rng.random_range(0..=max))
        .map(|_| {
            let (col, lo, hi) = pool[rng.random_range(0..pool.len())];
            let op = ["=", "<>", "<", "<=", ">", ">="][rng.random_range(0..6usize)];
            let mut literal = rng.random_range(lo..hi);
            if matches!(op, "=" | "<>") {
                literal = literal.round();
            }
            // Rust's f64 Display is shortest-round-trip, so the parsed
            // literal is bit-identical to the generated one.
            format!("{col} {op} {literal}")
        })
        .collect()
}

const FACT_COLS: [(&str, f64, f64); 6] = [
    ("f_id", 0.0, 2_000.0),
    ("f_mid", 0.0, 30.0),
    ("f_g", 0.0, 6.0),
    ("f_h", 0.0, 4.0),
    ("f_a", 0.0, 25.0),
    ("f_b", -10.0, 10.0),
];
const MID_COLS: [(&str, f64, f64); 3] = [
    ("m_id", 0.0, 30.0),
    ("m_far", 0.0, 12.0),
    ("m_v", 0.0, 100.0),
];
const FAR_COLS: [(&str, f64, f64); 2] = [("r_id", 0.0, 12.0), ("r_v", 0.0, 50.0)];

/// 1..=3 random aggregate call texts over the fact measures; `count_first`
/// puts COUNT(*) first for top-k plans (counts are exact in both executors).
fn rand_aggregates(rng: &mut StdRng, count_first: bool) -> Vec<String> {
    let mut aggs: Vec<String> = Vec::new();
    if count_first {
        aggs.push("COUNT(*)".into());
    }
    let measures = ["f_a", "f_b"];
    for _ in 0..rng.random_range(1..=3usize) {
        let col = measures[rng.random_range(0..measures.len())];
        aggs.push(match rng.random_range(0..6u32) {
            0 => "COUNT(*)".to_string(),
            1 => format!("SUM({col})"),
            2 => format!("AVG({col})"),
            3 => format!("MIN({col})"),
            4 => format!("MAX({col})"),
            _ => format!("SUM(f_a * {col})"),
        });
    }
    aggs
}

fn rand_group_by(rng: &mut StdRng) -> Vec<&'static str> {
    if rng.random_range(0..3u32) == 0 {
        vec!["f_g", "f_h"]
    } else {
        vec![["f_g", "f_h"][rng.random_range(0..2usize)]]
    }
}

/// The fact-side join key text: usually the plain fk column, sometimes an
/// expression landing in the mid id range.
fn rand_fact_key(rng: &mut StdRng) -> &'static str {
    if rng.random_range(0..4u32) == 0 {
        "f_g * 4 + f_h"
    } else {
        "f_mid"
    }
}

fn where_clause(terms: &[String]) -> String {
    if terms.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", terms.join(" AND "))
    }
}

/// Generate one random valid SQL text of the given shape.
fn rand_sql(rng: &mut StdRng, shape: u32) -> String {
    match shape {
        0 => {
            let aggs = rand_aggregates(rng, false).join(", ");
            format!(
                "SELECT {aggs} FROM fact{}",
                where_clause(&rand_filters(rng, &FACT_COLS, 2))
            )
        }
        1 => {
            let group = rand_group_by(rng);
            let aggs = rand_aggregates(rng, false).join(", ");
            format!(
                "SELECT {}, {aggs} FROM fact{} GROUP BY {}",
                group.join(", "),
                where_clause(&rand_filters(rng, &FACT_COLS, 2)),
                group.join(", ")
            )
        }
        2 => {
            let aggs = rand_aggregates(rng, false).join(", ");
            let mut terms = rand_filters(rng, &FACT_COLS, 2);
            terms.extend(rand_filters(rng, &MID_COLS, 2));
            if rng.random_range(0..3u32) == 0 {
                terms.push("m_tag LIKE 'HI%'".into());
            }
            format!(
                "SELECT {aggs} FROM fact JOIN mid ON f_mid = m_id{}",
                where_clause(&terms)
            )
        }
        3 => {
            let aggs = rand_aggregates(rng, false).join(", ");
            let mut terms = rand_filters(rng, &FACT_COLS, 2);
            terms.extend(rand_filters(rng, &MID_COLS, 2));
            terms.extend(rand_filters(rng, &FAR_COLS, 2));
            format!(
                "SELECT {aggs} FROM fact JOIN mid ON {} = m_id JOIN far ON m_far = r_id{}",
                rand_fact_key(rng),
                where_clause(&terms)
            )
        }
        _ => {
            let group = rand_group_by(rng);
            let top_k = rng.random_range(0..2u32) == 0;
            let aggs = rand_aggregates(rng, top_k).join(", ");
            let mut terms = rand_filters(rng, &FACT_COLS, 2);
            terms.extend(rand_filters(rng, &MID_COLS, 2));
            let tail = if top_k {
                format!(
                    " ORDER BY COUNT(*) DESC LIMIT {}",
                    rng.random_range(1..=6u32)
                )
            } else {
                String::new()
            };
            format!(
                "SELECT {}, {aggs} FROM fact JOIN mid ON {} = m_id{} GROUP BY {}{tail}",
                group.join(", "),
                rand_fact_key(rng),
                where_clause(&terms),
                group.join(", ")
            )
        }
    }
}

/// Relative tolerance for SUM/AVG associativity differences between the
/// engine's morsel-merge order and the oracle's scan order.
fn assert_close(a: f64, b: f64, ctx: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{ctx}: engine {a} vs reference {b}");
}

fn assert_matches_reference(engine: &QueryResult, reference: &QueryResult, ctx: &str) {
    match (engine, reference) {
        (QueryResult::Scalars(e), QueryResult::Scalars(r)) => {
            assert_eq!(e.len(), r.len(), "{ctx}: scalar arity");
            for (i, (a, b)) in e.iter().zip(r).enumerate() {
                assert_close(*a, *b, &format!("{ctx} scalar {i}"));
            }
        }
        (QueryResult::Groups(e), QueryResult::Groups(r)) => {
            assert_eq!(e.len(), r.len(), "{ctx}: group count");
            for (i, ((ek, ea), (rk, ra))) in e.iter().zip(r).enumerate() {
                assert_eq!(ek, rk, "{ctx}: group {i} key");
                assert_eq!(ea.len(), ra.len(), "{ctx}: group {i} arity");
                for (j, (a, b)) in ea.iter().zip(ra).enumerate() {
                    assert_close(*a, *b, &format!("{ctx} group {i} agg {j}"));
                }
            }
        }
        _ => panic!("{ctx}: result shapes differ"),
    }
}

/// Engine output vs the oracle: rows within tolerance, work account exact.
fn assert_matches_oracle(
    engine: &QueryOutput,
    plan: &QueryPlan,
    sources: &BTreeMap<String, ScanSource>,
    ctx: &str,
) {
    let oracle = execute_reference_with_work(plan, sources)
        .unwrap_or_else(|e| panic!("{ctx}: oracle failed: {e}"));
    assert_matches_reference(&engine.result, &oracle.result, ctx);
    assert_eq!(engine.work, oracle.work, "{ctx}: work accounts diverged");
}

/// Two fixed texts the generator cannot produce, one per grouped-sink arm it
/// never reaches: nine aggregates in one `GROUP BY` (more than one fused
/// fold pass holds), and a three-column group key over a duplicate-key join
/// (`m_far` repeats across `mid`, so the survivors carry weights).
const WIDE_SQL: [&str; 2] = [
    "SELECT f_g, COUNT(*), SUM(f_a), AVG(f_b), MIN(f_a), MAX(f_b), SUM(f_a * f_b), \
     AVG(f_a), MAX(f_a), MIN(f_b) FROM fact WHERE f_a >= 2 GROUP BY f_g",
    "SELECT f_g, f_h, f_mid, COUNT(*), SUM(f_a), MAX(f_b) FROM fact JOIN mid \
     ON f_mid = m_far WHERE m_v < 80 GROUP BY f_g, f_h, f_mid",
];

/// 100 randomized SQL texts (20 per shape) and the fixed [`WIDE_SQL`] texts:
/// parse → bind → plan → execute. The engine must be bit-identical across
/// 1/2/4 workers and agree with the independent row-at-a-time oracle on
/// every plan.
#[test]
fn randomized_sql_round_trips_match_the_oracle() {
    let dataset = Dataset::build();
    let catalog = dataset.catalog();
    let mut rng = StdRng::seed_from_u64(0x5EED_05A1);
    for case in 0..100 + WIDE_SQL.len() as u32 {
        let shape = case % 5;
        let sql = match case.checked_sub(100) {
            Some(fixed) => WIDE_SQL[fixed as usize].to_string(),
            None => rand_sql(&mut rng, shape),
        };
        let ctx = format!("case {case}: {sql}");
        let plan = plan_sql(&sql, &catalog).unwrap_or_else(|e| panic!("{ctx}: plan: {e}"));
        let sources = dataset.sources(case % 3 == 0);
        let executor = QueryExecutor::with_block_rows(rng.random_range(16..512));

        let baseline = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
            .unwrap_or_else(|e| panic!("{ctx}: engine failed: {e}"));
        for workers in [2u16, 4] {
            let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
            let parallel = executor.execute_parallel(&plan, &sources, &team).unwrap();
            assert_eq!(baseline, parallel, "{ctx}: {workers} workers diverged");
        }
        assert_matches_oracle(&baseline, &plan, &sources, &ctx);
    }
}

/// The join-order choice must never change a query's answer. The planner
/// picks the probe side purely by cost (probe the relation the catalog
/// claims is larger), and that is safe because the hash probe preserves
/// join multiplicities whichever side builds — so flipping the statistics
/// flips the physical plan but the executed count stays the SQL inner-join
/// count (2000: every fact row has a mid match), and primary-key metadata
/// plays no part.
#[test]
fn join_order_is_cost_based_and_statistics_cannot_change_the_answer() {
    let dataset = Dataset::build();
    let sources = dataset.sources(false);
    let sql = "SELECT COUNT(*) FROM mid JOIN fact ON m_id = f_mid";
    let honest = dataset.catalog();
    let inverted = Catalog::new()
        .with_table(dataset.fact.schema().clone(), 10)
        .with_table(dataset.mid.schema().clone(), 10_000);
    // PK metadata must be irrelevant: stripping it changes no choice.
    let strip = |s: &adaptive_htap::storage::TableSchema| {
        TableSchema::new(s.name.clone(), s.columns.clone(), None)
    };
    let honest_free = Catalog::new()
        .with_table(strip(dataset.fact.schema()), FACT_ROWS)
        .with_table(strip(dataset.mid.schema()), MID_ROWS);
    let inverted_free = Catalog::new()
        .with_table(strip(dataset.fact.schema()), 10)
        .with_table(strip(dataset.mid.schema()), 10_000);
    let executor = QueryExecutor::with_block_rows(128);
    let team = WorkerTeam::from_cores(vec![CoreId(0)]);
    let mut counts = Vec::new();
    for (catalog, probe_side) in [
        (&honest, "fact"),
        (&inverted, "mid"),
        (&honest_free, "fact"),
        (&inverted_free, "mid"),
    ] {
        let plan = plan_sql(sql, catalog).unwrap();
        // Pure cost: the claimed-larger relation is probed.
        assert_eq!(plan.tables()[0], probe_side);
        let out = executor.execute_parallel(&plan, &sources, &team).unwrap();
        assert_matches_oracle(&out, &plan, &sources, "cost-ordered join");
        counts.push(out.result.scalars().unwrap()[0]);
    }
    // Same SQL, four statistics regimes, two physical plans, one answer —
    // the SQL inner-join count (every one of the 2000 fact rows joins one
    // mid row; probing mid folds each mid row once per matching fact row).
    assert!(counts.iter().all(|&c| c == FACT_ROWS as f64), "{counts:?}");
}

/// End-to-end malformed/unsupported SQL against the real CH catalog: typed
/// errors with positions, no panics, and the system stays usable afterwards.
#[test]
fn malformed_sql_is_rejected_with_typed_errors() {
    type ErrCheck = fn(&SqlError) -> bool;
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    let cases: Vec<(&str, ErrCheck)> = vec![
        ("", |e| matches!(e, SqlError::UnexpectedToken { .. })),
        ("SELECT", |e| matches!(e, SqlError::UnexpectedToken { .. })),
        ("SELECT COUNT(*) FROM nowhere", |e| {
            matches!(e, SqlError::UnknownTable { .. })
        }),
        ("SELECT SUM(nope) FROM orderline", |e| {
            matches!(e, SqlError::UnknownColumn { .. })
        }),
        ("SELECT COUNT(*) FROM item WHERE i_data LIKE 'PR", |e| {
            matches!(e, SqlError::UnclosedString { .. })
        }),
        ("SELECT COUNT(*) FROM item WHERE i_data LIKE 'ZZ%'", |e| {
            matches!(e, SqlError::Unsupported { .. })
        }),
        (
            "SELECT COUNT(*) FROM orderline WHERE ol_amount = 1 OR ol_amount = 2",
            |e| matches!(e, SqlError::Unsupported { .. }),
        ),
        (
            "SELECT COUNT(*) FROM orders JOIN orderline ON o_key < ol_o_id",
            |e| matches!(e, SqlError::Unsupported { .. }),
        ),
        (
            "SELECT o_id, COUNT(*) FROM orders GROUP BY o_id LIMIT 3",
            |e| matches!(e, SqlError::Unsupported { .. }),
        ),
    ];
    for (sql, check) in cases {
        match system.plan_sql(sql) {
            Err(e) => {
                assert!(check(&e), "{sql:?}: unexpected error {e:?}");
                assert!(e.pos() <= sql.len() + 1, "{sql:?}: position out of range");
            }
            Ok(plan) => panic!("{sql:?}: expected an error, planned {plan:?}"),
        }
    }
    // The system is unharmed: a valid query still runs.
    let report = system
        .execute_sql("SELECT SUM(ol_amount) FROM orderline")
        .unwrap();
    assert!(report.result_rows >= 1);
}

/// Join keys are exact `i64` affine forms; anything the key rule does not
/// cover — a float column, a fractional literal, a product of two columns —
/// is a typed engine error at bind, never a silent truncation (a float key
/// cast to `i64` would match 2.7 to key 2) and never a panic, in the engine
/// and the oracle alike, and through `HtapSystem::execute_sql` over the CH
/// catalog.
#[test]
fn unsupported_join_keys_are_typed_olap_errors() {
    let dataset = Dataset::build();
    let catalog = dataset.catalog();
    let sources = dataset.sources(false);
    for sql in [
        "SELECT COUNT(*) FROM fact JOIN mid ON f_a * 1 = m_id",
        "SELECT COUNT(*) FROM fact JOIN mid ON f_g * 1.5 = m_id",
        "SELECT COUNT(*) FROM fact JOIN mid ON f_g * f_h = m_id",
    ] {
        let plan = plan_sql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: plan: {e}"));
        let engine = QueryExecutor::default().execute(&plan, &sources);
        assert!(
            matches!(
                engine,
                Err(OlapError::UnsupportedColumnType { .. } | OlapError::UnsupportedKey { .. })
            ),
            "{sql}: engine returned {engine:?}"
        );
        let oracle = execute_reference_with_work(&plan, &sources);
        assert_eq!(oracle.unwrap_err(), engine.unwrap_err(), "{sql}: oracle");
    }
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    for sql in [
        "SELECT COUNT(*) FROM orderline JOIN orders ON ol_amount * 1 = o_key",
        "SELECT COUNT(*) FROM orderline JOIN orders ON ol_o_id * 1.5 = o_key",
        "SELECT COUNT(*) FROM orderline JOIN orders ON ol_w_id * ol_o_id = o_key",
    ] {
        match system.execute_sql(sql) {
            Err(SqlRunError::Olap(_)) => {}
            other => panic!("{sql}: expected an OLAP error, got {other:?}"),
        }
    }
    // The system is unharmed: a valid computed-key join still runs.
    let report = system
        .execute_sql(
            "SELECT COUNT(*) FROM orderline JOIN orders \
             ON (ol_w_id * 100 + ol_d_id) * 10000000 + ol_o_id = o_key",
        )
        .unwrap();
    assert!(report.result_rows >= 1);
}
