//! Differential test suite: randomized plans executed by both the
//! morsel-driven engine and the naive reference executor.
//!
//! The harness generates a deterministic random dataset (a fact relation and
//! two chained dimensions) plus 140 seeded random plans covering all five
//! plan shapes — Aggregate, GroupByAggregate, JoinAggregate,
//! MultiJoinAggregate and JoinGroupByAggregate — with random filters,
//! aggregates, group keys, morsel sizes and (every third plan) a split
//! two-segment access path. Each plan is executed by the engine with 1, 2,
//! 4 and 8 workers (results must be bit-for-bit identical) and by the
//! row-at-a-time oracle in `htap_olap::reference` (results must agree up to
//! floating-point associativity: the oracle accumulates in scan order while
//! the engine merges per-morsel partials, so SUM/AVG are compared with a
//! relative tolerance; COUNT, MIN, MAX and group keys match exactly by the
//! same comparison since both sides compute them order-insensitively).

use adaptive_htap::olap::{
    execute_reference_with_work, AggExpr, BaselineExecutor, BuildSide, CmpOp, DagBuilder, DagOp,
    HavingPred, Predicate, QueryExecutor, QueryOutput, QueryPlan, QueryResult, RowSlot, ScalarExpr,
    ScanSource, SortKey, TopK, WorkerTeam,
};
use adaptive_htap::sim::{CoreId, SocketId};
use adaptive_htap::storage::{
    ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const FACT_ROWS: u64 = 3_001;
const MID_ROWS: u64 = 30;
const FAR_ROWS: u64 = 12;

/// fact(f_id, f_mid, f_g, f_h, f_a, f_b): f_mid joins mid.m_id, and the
/// expression `f_g * 4 + f_h` lands in the mid key range too (used to
/// exercise expression-computed join keys).
fn fact_table(rng: &mut StdRng) -> Arc<ColumnarTable> {
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
}

/// mid(m_id, m_far, m_v): m_far joins far.r_id.
fn mid_table(rng: &mut StdRng) -> Arc<ColumnarTable> {
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
}

/// far(r_id, r_v).
fn far_table(rng: &mut StdRng) -> Arc<ColumnarTable> {
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
}

struct Dataset {
    fact: Arc<ColumnarTable>,
    mid: Arc<ColumnarTable>,
    far: Arc<ColumnarTable>,
}

impl Dataset {
    fn build() -> Self {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        Dataset {
            fact: fact_table(&mut rng),
            mid: mid_table(&mut rng),
            far: far_table(&mut rng),
        }
    }

    /// Access paths: the dimensions are contiguous snapshots; the fact side
    /// is either contiguous or a two-segment split (OLAP-local head + OLTP
    /// tail over the same rows), exercising multi-segment morsel layouts.
    fn sources(&self, split_fact: bool) -> BTreeMap<String, ScanSource> {
        let mut sources = BTreeMap::new();
        let fact_snap = TableSnapshot::new("fact".into(), Arc::clone(&self.fact), FACT_ROWS, 0);
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
        let mid_snap = TableSnapshot::new("mid".into(), Arc::clone(&self.mid), MID_ROWS, 0);
        sources.insert(
            "mid".to_string(),
            ScanSource::contiguous_snapshot(&mid_snap, SocketId(1)),
        );
        let far_snap = TableSnapshot::new("far".into(), Arc::clone(&self.far), FAR_ROWS, 0);
        sources.insert(
            "far".to_string(),
            ScanSource::contiguous_snapshot(&far_snap, SocketId(1)),
        );
        sources
    }
}

/// (column, sampling range) pools per relation.
const FACT_COLS: [(&str, f64, f64); 6] = [
    ("f_id", 0.0, 3_001.0),
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

fn rand_op(rng: &mut StdRng) -> CmpOp {
    match rng.random_range(0..6u32) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// Up to `max` random predicates over a column pool. Equality predicates on
/// float columns would be vacuous, so Eq/Ne literals are rounded (they then
/// actually hit the integer-valued columns).
fn rand_filters(rng: &mut StdRng, pool: &[(&str, f64, f64)], max: u32) -> Vec<Predicate> {
    (0..rng.random_range(0..=max))
        .map(|_| {
            let (col, lo, hi) = pool[rng.random_range(0..pool.len())];
            let op = rand_op(rng);
            let mut literal = rng.random_range(lo..hi);
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                literal = literal.round();
            }
            Predicate::new(col, op, literal)
        })
        .collect()
}

/// 1..=3 random aggregates over the fact measures. When `count_first` is set
/// the first aggregate is COUNT(*) (top-k plans order by it: counts are
/// exact in both executors, so the ordering is identical).
fn rand_aggregates(rng: &mut StdRng, count_first: bool) -> Vec<AggExpr> {
    let mut aggs: Vec<AggExpr> = Vec::new();
    if count_first {
        aggs.push(AggExpr::Count);
    }
    let measures = ["f_a", "f_b"];
    let n = rng.random_range(1..=3usize);
    for _ in 0..n {
        let col = ScalarExpr::col(measures[rng.random_range(0..measures.len())]);
        aggs.push(match rng.random_range(0..6u32) {
            0 => AggExpr::Count,
            1 => AggExpr::Sum(col),
            2 => AggExpr::Avg(col),
            3 => AggExpr::Min(col),
            4 => AggExpr::Max(col),
            _ => AggExpr::Sum(ScalarExpr::col("f_a") * col),
        });
    }
    aggs
}

fn rand_group_by(rng: &mut StdRng) -> Vec<String> {
    if rng.random_range(0..3u32) == 0 {
        vec!["f_g".to_string(), "f_h".into()]
    } else {
        vec![["f_g", "f_h"][rng.random_range(0..2usize)].to_string()]
    }
}

/// The fact-side join key: usually the plain fk column, sometimes an
/// expression-computed key (`f_g * 4 + f_h` also lands in the mid id range).
fn rand_fact_key(rng: &mut StdRng) -> ScalarExpr {
    if rng.random_range(0..4u32) == 0 {
        ScalarExpr::col("f_g") * ScalarExpr::lit(4.0) + ScalarExpr::col("f_h")
    } else {
        ScalarExpr::col("f_mid")
    }
}

fn rand_plan(rng: &mut StdRng, shape: u32) -> QueryPlan {
    match shape {
        0 => QueryPlan::Aggregate {
            table: "fact".into(),
            filters: rand_filters(rng, &FACT_COLS, 2),
            aggregates: rand_aggregates(rng, false),
        },
        1 => QueryPlan::GroupByAggregate {
            table: "fact".into(),
            filters: rand_filters(rng, &FACT_COLS, 2),
            group_by: rand_group_by(rng),
            aggregates: rand_aggregates(rng, false),
        },
        2 => QueryPlan::JoinAggregate {
            fact: "fact".into(),
            dim: "mid".into(),
            fact_key: "f_mid".into(),
            dim_key: "m_id".into(),
            fact_filters: rand_filters(rng, &FACT_COLS, 2),
            dim_filters: rand_filters(rng, &MID_COLS, 2),
            aggregates: rand_aggregates(rng, false),
        },
        3 => QueryPlan::MultiJoinAggregate {
            fact: "fact".into(),
            fact_key: rand_fact_key(rng),
            fact_filters: rand_filters(rng, &FACT_COLS, 2),
            mid: BuildSide::new(
                "mid",
                ScalarExpr::col("m_id"),
                rand_filters(rng, &MID_COLS, 2),
            ),
            mid_fk: ScalarExpr::col("m_far"),
            far: BuildSide::new(
                "far",
                ScalarExpr::col("r_id"),
                rand_filters(rng, &FAR_COLS, 2),
            ),
            aggregates: rand_aggregates(rng, false),
        },
        _ => {
            let top_k = if rng.random_range(0..2u32) == 0 {
                Some(TopK {
                    agg_index: 0,
                    k: rng.random_range(1..=6usize),
                })
            } else {
                None
            };
            QueryPlan::JoinGroupByAggregate {
                fact: "fact".into(),
                fact_key: rand_fact_key(rng),
                fact_filters: rand_filters(rng, &FACT_COLS, 2),
                dim: BuildSide::new(
                    "mid",
                    ScalarExpr::col("m_id"),
                    rand_filters(rng, &MID_COLS, 2),
                ),
                group_by: rand_group_by(rng),
                aggregates: rand_aggregates(rng, top_k.is_some()),
                top_k,
            }
        }
    }
}

/// Relative tolerance for SUM/AVG associativity differences.
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

/// Run the row-at-a-time oracle and compare: result rows within the SUM/AVG
/// tolerance, and the `WorkProfile` — bytes per socket, tuples, fresh rows,
/// probes, build and hash-table bytes — exactly (the oracle derives it from
/// the sources and the surviving rows, the engine from its morsels).
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

/// ≥ 100 randomized plans, every shape: 1/2/4/8-worker engine runs must be
/// bit-for-bit identical and all must agree with the reference oracle.
#[test]
fn randomized_plans_match_reference_across_worker_counts() {
    let dataset = Dataset::build();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut per_shape = [0u32; 5];
    for case in 0..140u32 {
        let shape = case % 5;
        per_shape[shape as usize] += 1;
        let plan = rand_plan(&mut rng, shape);
        let sources = dataset.sources(case % 3 == 0);
        let executor = QueryExecutor::with_block_rows(rng.random_range(16..512));
        let ctx = format!("case {case} ({})", plan.label());

        let baseline = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
            .unwrap_or_else(|e| panic!("{ctx}: engine failed: {e}"));
        for workers in [2u16, 4, 8] {
            let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
            let parallel = executor.execute_parallel(&plan, &sources, &team).unwrap();
            assert_eq!(
                baseline, parallel,
                "{ctx}: {workers} workers diverged from 1 worker"
            );
        }

        assert_matches_oracle(&baseline, &plan, &sources, &ctx);

        // The frozen pre-vectorization interpreter must agree with the
        // vectorized engine bit for bit — results AND WorkProfile accounting
        // (bytes, probes, tuples) — since both fold rows in morsel order.
        let interpreted = BaselineExecutor::with_block_rows(executor.block_rows)
            .execute(&plan, &sources)
            .unwrap_or_else(|e| panic!("{ctx}: interpreted baseline failed: {e}"));
        assert_eq!(
            interpreted, baseline,
            "{ctx}: vectorized engine diverged from the interpreted baseline"
        );
    }
    assert!(
        per_shape.iter().all(|&n| n >= 20),
        "every shape gets a fair share of the 140 cases: {per_shape:?}"
    );
}

/// The solo team (no cores, runs inline) is the same executor as the
/// spawned one-worker team — and both match the oracle.
#[test]
fn solo_and_single_worker_teams_agree_with_reference() {
    let dataset = Dataset::build();
    let mut rng = StdRng::seed_from_u64(7);
    for shape in 0..5u32 {
        let plan = rand_plan(&mut rng, shape);
        let sources = dataset.sources(false);
        let executor = QueryExecutor::with_block_rows(128);
        let solo = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::solo())
            .unwrap();
        let one = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
            .unwrap();
        assert_eq!(solo, one, "shape {shape}: solo vs one-worker");
        assert_matches_oracle(&solo, &plan, &sources, &format!("shape {shape}"));
    }
}

/// Contradictory filters drive every pipeline to an empty selection: the
/// engine and the oracle must agree on the defined empty values (0.0 for
/// SUM/AVG/MIN/MAX/COUNT, zero group rows) for every shape.
#[test]
fn empty_selections_agree_with_reference_for_every_shape() {
    let dataset = Dataset::build();
    let contradiction = vec![
        Predicate::new("f_a", CmpOp::Lt, 1.0),
        Predicate::new("f_a", CmpOp::Gt, 24.0),
    ];
    let aggregates = vec![
        AggExpr::Sum(ScalarExpr::col("f_a")),
        AggExpr::Avg(ScalarExpr::col("f_a")),
        AggExpr::Min(ScalarExpr::col("f_a")),
        AggExpr::Max(ScalarExpr::col("f_b")),
        AggExpr::Count,
    ];
    let plans = vec![
        QueryPlan::Aggregate {
            table: "fact".into(),
            filters: contradiction.clone(),
            aggregates: aggregates.clone(),
        },
        QueryPlan::GroupByAggregate {
            table: "fact".into(),
            filters: contradiction.clone(),
            group_by: vec!["f_g".into()],
            aggregates: aggregates.clone(),
        },
        QueryPlan::JoinAggregate {
            fact: "fact".into(),
            dim: "mid".into(),
            fact_key: "f_mid".into(),
            dim_key: "m_id".into(),
            fact_filters: contradiction.clone(),
            dim_filters: vec![],
            aggregates: aggregates.clone(),
        },
        QueryPlan::MultiJoinAggregate {
            fact: "fact".into(),
            fact_key: ScalarExpr::col("f_mid"),
            fact_filters: vec![],
            mid: BuildSide::new("mid", ScalarExpr::col("m_id"), vec![]),
            mid_fk: ScalarExpr::col("m_far"),
            // An empty far set empties the whole chain.
            far: BuildSide::new(
                "far",
                ScalarExpr::col("r_id"),
                vec![Predicate::new("r_v", CmpOp::Lt, -1.0)],
            ),
            aggregates: aggregates.clone(),
        },
        QueryPlan::JoinGroupByAggregate {
            fact: "fact".into(),
            fact_key: ScalarExpr::col("f_mid"),
            fact_filters: contradiction,
            dim: BuildSide::new("mid", ScalarExpr::col("m_id"), vec![]),
            group_by: vec!["f_g".into()],
            aggregates,
            top_k: Some(TopK { agg_index: 4, k: 3 }),
        },
    ];
    let sources = dataset.sources(true);
    let executor = QueryExecutor::with_block_rows(64);
    for plan in plans {
        let out = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
            .unwrap();
        assert_matches_oracle(&out, &plan, &sources, plan.label());
        match &out.result {
            QueryResult::Scalars(v) => {
                assert!(
                    v.iter().all(|x| *x == 0.0),
                    "{}: empty selection must finalise to 0.0, got {v:?}",
                    plan.label()
                );
            }
            QueryResult::Groups(g) => {
                assert!(g.is_empty(), "{}: expected zero groups", plan.label());
            }
        }
    }
}

/// Run one plan through the vectorized engine at 1/2/4/8 workers (bit-identical
/// required), the frozen interpreted baseline (bit-identical required, work
/// profile included) and the row-at-a-time oracle (tolerance comparison).
fn assert_all_engines_agree(
    plan: &QueryPlan,
    sources: &BTreeMap<String, ScanSource>,
    block_rows: usize,
    ctx: &str,
) {
    let executor = QueryExecutor::with_block_rows(block_rows);
    let solo = executor
        .execute_parallel(plan, sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
        .unwrap_or_else(|e| panic!("{ctx}: engine failed: {e}"));
    for workers in [2u16, 4, 8] {
        let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
        let parallel = executor.execute_parallel(plan, sources, &team).unwrap();
        assert_eq!(solo, parallel, "{ctx}: {workers} workers diverged");
    }
    let interpreted = BaselineExecutor::with_block_rows(block_rows)
        .execute(plan, sources)
        .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));
    assert_eq!(
        interpreted, solo,
        "{ctx}: baseline diverged from vectorized"
    );
    assert_matches_oracle(&solo, plan, sources, ctx);
}

/// Like [`assert_all_engines_agree`] but WITHOUT the frozen-baseline
/// comparison: 1/2/4/8-worker engine runs must be bit-identical and match
/// the row-at-a-time oracle. Used for plans with duplicate build-side join
/// keys — exactly the inputs the retired key-set semijoin got wrong, so the
/// frozen baseline is not a valid differential partner there.
fn assert_workers_match_oracle(
    plan: &QueryPlan,
    sources: &BTreeMap<String, ScanSource>,
    block_rows: usize,
    ctx: &str,
) -> QueryOutput {
    let executor = QueryExecutor::with_block_rows(block_rows);
    let solo = executor
        .execute_parallel(plan, sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
        .unwrap_or_else(|e| panic!("{ctx}: engine failed: {e}"));
    for workers in [2u16, 4, 8] {
        let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
        let parallel = executor.execute_parallel(plan, sources, &team).unwrap();
        assert_eq!(solo, parallel, "{ctx}: {workers} workers diverged");
    }
    assert_matches_oracle(&solo, plan, sources, ctx);
    solo
}

/// N:M regression: the build side joins on `m_far`, which repeats across
/// the 30 mid rows (12 distinct values, so the pigeonhole principle forces
/// duplicates) — a true inner join must count every matching build tuple.
/// The engine agrees with the oracle at every worker count, and the frozen
/// key-set baseline must *diverge* (it collapses duplicates into set
/// membership); the divergence is asserted explicitly so this case can
/// never silently regress to semijoin semantics.
#[test]
fn duplicate_build_keys_join_preserves_multiplicities() {
    let dataset = Dataset::build();
    for split in [false, true] {
        let sources = dataset.sources(split);
        let plan = QueryPlan::JoinAggregate {
            fact: "fact".into(),
            dim: "mid".into(),
            fact_key: "f_mid".into(),
            dim_key: "m_far".into(),
            fact_filters: vec![],
            dim_filters: vec![],
            aggregates: vec![
                AggExpr::Count,
                AggExpr::Sum(ScalarExpr::col("f_a")),
                AggExpr::Avg(ScalarExpr::col("f_b")),
                AggExpr::Min(ScalarExpr::col("f_a")),
            ],
        };
        let ctx = format!("N:M join split={split}");
        let engine = assert_workers_match_oracle(&plan, &sources, 112, &ctx);
        let interpreted = BaselineExecutor::with_block_rows(112)
            .execute(&plan, &sources)
            .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));
        assert_ne!(
            interpreted.result, engine.result,
            "{ctx}: the key-set baseline must undercount duplicate build keys"
        );
    }
}

/// N:M regression, grouped: duplicate build keys flow through the weighted
/// group-and-fold path (COUNT += weight, SUM += value * weight), per group.
#[test]
fn duplicate_build_keys_group_by_agrees_with_oracle() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    let plan = QueryPlan::JoinGroupByAggregate {
        fact: "fact".into(),
        fact_key: ScalarExpr::col("f_mid"),
        fact_filters: vec![],
        dim: BuildSide::new("mid", ScalarExpr::col("m_far"), vec![]),
        group_by: vec!["f_g".into(), "f_h".into()],
        aggregates: vec![
            AggExpr::Count,
            AggExpr::Sum(ScalarExpr::col("f_a") * ScalarExpr::col("f_b")),
            AggExpr::Avg(ScalarExpr::col("f_a")),
            AggExpr::Max(ScalarExpr::col("f_b")),
        ],
        top_k: None,
    };
    let engine = assert_workers_match_oracle(&plan, &sources, 96, "N:M grouped join");
    let interpreted = BaselineExecutor::with_block_rows(96)
        .execute(&plan, &sources)
        .unwrap();
    assert_ne!(
        interpreted.result, engine.result,
        "N:M grouped join: the key-set baseline must undercount"
    );
}

/// N:M regression, chained: the mid build itself carries duplicate keys, so
/// probe weights must multiply down the fact → mid → far cascade.
#[test]
fn duplicate_keys_compound_across_chained_probes() {
    let dataset = Dataset::build();
    let sources = dataset.sources(false);
    let plan = QueryPlan::MultiJoinAggregate {
        fact: "fact".into(),
        fact_key: ScalarExpr::col("f_mid"),
        fact_filters: vec![],
        mid: BuildSide::new("mid", ScalarExpr::col("m_far"), vec![]),
        mid_fk: ScalarExpr::col("m_far"),
        far: BuildSide::new("far", ScalarExpr::col("r_id"), vec![]),
        aggregates: vec![AggExpr::Count, AggExpr::Sum(ScalarExpr::col("f_a"))],
    };
    let engine = assert_workers_match_oracle(&plan, &sources, 80, "N:M chain");
    let interpreted = BaselineExecutor::with_block_rows(80)
        .execute(&plan, &sources)
        .unwrap();
    assert_ne!(
        interpreted.result, engine.result,
        "N:M chain: the key-set baseline must undercount"
    );
}

/// An explicitly authored [`QueryPlan::Dag`] — N:M probe, grouped fold and
/// the full having → sort → limit finisher stack — runs differentially
/// against the oracle, and the frozen baseline refuses DAG plans outright
/// (it predates the operator DAG; no silent wrong answers).
#[test]
fn authored_dag_plans_with_finishers_agree_and_baseline_refuses_them() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    let mut b = DagBuilder::default();
    let mid_scan = b.scan("mid");
    let build = b.build(mid_scan, ScalarExpr::col("m_far"));
    let fact_scan = b.scan("fact");
    let probed = b.probe(fact_scan, build, ScalarExpr::col("f_mid"));
    let agg = b.aggregate(
        probed,
        Some(vec!["f_g".into()]),
        vec![AggExpr::Count, AggExpr::Sum(ScalarExpr::col("f_a"))],
    );
    let having = b.push(DagOp::Having {
        input: agg,
        predicates: vec![HavingPred {
            slot: RowSlot::Agg(0),
            op: CmpOp::Gt,
            literal: 100.0,
        }],
    });
    let sorted = b.push(DagOp::Sort {
        input: having,
        keys: vec![SortKey {
            slot: RowSlot::Agg(1),
            desc: true,
        }],
    });
    b.push(DagOp::Limit {
        input: sorted,
        rows: 4,
    });
    let plan = QueryPlan::Dag(b.finish());
    let engine = assert_workers_match_oracle(&plan, &sources, 96, "authored dag");
    assert!(
        engine.result.groups().unwrap().len() <= 4,
        "the limit finisher caps the group rows"
    );
    assert!(
        BaselineExecutor::with_block_rows(96)
            .execute(&plan, &sources)
            .is_err(),
        "the frozen baseline must refuse DAG plans rather than guess"
    );
}

/// Adversarial vectorization case: sources that produce *no* morsels at all
/// (zero-row relations, including a split access path whose OLAP head is
/// empty), for every plan shape. The scratch machinery must cope with
/// pipelines that never load a block.
#[test]
fn empty_sources_and_empty_morsel_sets_agree() {
    let mut rng = StdRng::seed_from_u64(0xE111);
    let empty_fact = {
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
        Arc::new(ColumnarTable::new(schema))
    };
    let dataset = Dataset::build();
    let mut sources = dataset.sources(false);
    // Replace the fact side with a zero-row split source: both segments are
    // empty, so the morsel split is empty too.
    let snap = TableSnapshot::new("fact".into(), Arc::clone(&empty_fact), 0, 0);
    sources.insert(
        "fact".to_string(),
        ScanSource::split(empty_fact, 0, SocketId(1), &snap, SocketId(0)),
    );
    for shape in 0..5u32 {
        let plan = rand_plan(&mut rng, shape);
        assert_all_engines_agree(
            &plan,
            &sources,
            64,
            &format!("empty fact, {}", plan.label()),
        );
    }
}

/// Adversarial vectorization case: a filter that eliminates every row of
/// every morsel, and one that eliminates every row of *most* morsels (all
/// rows past a prefix), so whole selections collapse to empty mid-pipeline.
#[test]
fn fully_and_mostly_filtered_morsels_agree() {
    let dataset = Dataset::build();
    for split in [false, true] {
        let sources = dataset.sources(split);
        let aggregates = vec![
            AggExpr::Sum(ScalarExpr::col("f_a")),
            AggExpr::Min(ScalarExpr::col("f_b")),
            AggExpr::Count,
        ];
        // f_a is sampled from [0, 25): the first filter keeps nothing at
        // all; the second keeps only rows of the first few morsels.
        for (name, filters) in [
            (
                "all-eliminated",
                vec![Predicate::new("f_a", CmpOp::Ge, 25.0)],
            ),
            ("prefix-only", vec![Predicate::new("f_id", CmpOp::Lt, 97.0)]),
        ] {
            let plans = [
                QueryPlan::Aggregate {
                    table: "fact".into(),
                    filters: filters.clone(),
                    aggregates: aggregates.clone(),
                },
                QueryPlan::GroupByAggregate {
                    table: "fact".into(),
                    filters: filters.clone(),
                    group_by: vec!["f_g".into(), "f_h".into()],
                    aggregates: aggregates.clone(),
                },
                QueryPlan::JoinGroupByAggregate {
                    fact: "fact".into(),
                    fact_key: ScalarExpr::col("f_mid"),
                    fact_filters: filters.clone(),
                    dim: BuildSide::new("mid", ScalarExpr::col("m_id"), vec![]),
                    group_by: vec!["f_g".into()],
                    aggregates: aggregates.clone(),
                    top_k: None,
                },
            ];
            for plan in &plans {
                assert_all_engines_agree(
                    plan,
                    &sources,
                    97,
                    &format!("{name} split={split} {}", plan.label()),
                );
            }
        }
    }
}

/// Adversarial vectorization case: every surviving row carries the same
/// group key, so the open-addressing group table sees maximal duplication
/// (one group, thousands of upserts per morsel).
#[test]
fn all_duplicate_group_keys_agree() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    // f_g == 3 pins the single group; grouping by (f_g, f_h) still
    // exercises the two-column inline key path with a constant first part.
    for group_by in [
        vec!["f_g".to_string()],
        vec!["f_g".to_string(), "f_h".into()],
    ] {
        let plan = QueryPlan::GroupByAggregate {
            table: "fact".into(),
            filters: vec![Predicate::new("f_g", CmpOp::Eq, 3.0)],
            group_by,
            aggregates: vec![
                AggExpr::Count,
                AggExpr::Avg(ScalarExpr::col("f_a")),
                AggExpr::Max(ScalarExpr::col("f_b")),
            ],
        };
        assert_all_engines_agree(&plan, &sources, 128, "all-duplicate group keys");
    }
}

/// Adversarial vectorization case: group counts that blow far past the
/// group table's initial capacity within a single morsel, forcing
/// open-addressing growth (rehash) mid-morsel — grouping by the unique row
/// id makes every row a fresh group.
#[test]
fn group_table_growth_mid_morsel_agrees() {
    let dataset = Dataset::build();
    let sources = dataset.sources(false);
    let plan = QueryPlan::GroupByAggregate {
        table: "fact".into(),
        filters: vec![],
        group_by: vec!["f_id".into()],
        aggregates: vec![AggExpr::Sum(ScalarExpr::col("f_a")), AggExpr::Count],
    };
    // 512 distinct groups per 512-row morsel versus a 16-slot initial
    // table: several growth steps per morsel, for every worker count.
    assert_all_engines_agree(&plan, &sources, 512, "per-row groups force growth");
    let out = QueryExecutor::with_block_rows(512)
        .execute(&plan, &sources)
        .unwrap();
    assert_eq!(
        out.result.groups().unwrap().len(),
        FACT_ROWS as usize,
        "every row is its own group"
    );
    // The join-group-by pipeline hits the same growth path after a probe.
    let join_plan = QueryPlan::JoinGroupByAggregate {
        fact: "fact".into(),
        fact_key: ScalarExpr::col("f_mid"),
        fact_filters: vec![],
        dim: BuildSide::new("mid", ScalarExpr::col("m_id"), vec![]),
        group_by: vec!["f_id".into()],
        aggregates: vec![AggExpr::Count],
        top_k: Some(TopK {
            agg_index: 0,
            k: 40,
        }),
    };
    assert_all_engines_agree(&join_plan, &sources, 512, "join-group-by growth");
}

/// Review regression: `GROUP BY` over zero columns is the degenerate
/// single-global-group plan. The interpreted engine always returned one
/// group with an empty key; the vectorized group table must do the same
/// (and an all-eliminating filter must still yield zero groups).
#[test]
fn empty_group_by_produces_one_global_group() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    let plan = QueryPlan::GroupByAggregate {
        table: "fact".into(),
        filters: vec![Predicate::new("f_a", CmpOp::Ge, 5.0)],
        group_by: vec![],
        aggregates: vec![
            AggExpr::Sum(ScalarExpr::col("f_a")),
            AggExpr::Avg(ScalarExpr::col("f_b")),
            AggExpr::Count,
        ],
    };
    assert_all_engines_agree(&plan, &sources, 128, "empty group_by");
    let out = QueryExecutor::with_block_rows(128)
        .execute(&plan, &sources)
        .unwrap();
    let groups = out.result.groups().unwrap();
    assert_eq!(groups.len(), 1, "one global group");
    assert!(groups[0].0.is_empty(), "the global group has an empty key");

    // Same through the join-group-by pipeline.
    let join_plan = QueryPlan::JoinGroupByAggregate {
        fact: "fact".into(),
        fact_key: ScalarExpr::col("f_mid"),
        fact_filters: vec![],
        dim: BuildSide::new("mid", ScalarExpr::col("m_id"), vec![]),
        group_by: vec![],
        aggregates: vec![AggExpr::Count],
        top_k: None,
    };
    assert_all_engines_agree(&join_plan, &sources, 128, "empty group_by join");

    // An all-eliminating filter still produces zero groups, not one.
    let empty = QueryPlan::GroupByAggregate {
        table: "fact".into(),
        filters: vec![Predicate::new("f_a", CmpOp::Ge, 25.0)],
        group_by: vec![],
        aggregates: vec![AggExpr::Count],
    };
    assert_all_engines_agree(&empty, &sources, 128, "empty group_by, empty selection");
    let out = QueryExecutor::with_block_rows(128)
        .execute(&empty, &sources)
        .unwrap();
    assert!(out.result.groups().unwrap().is_empty());
}
