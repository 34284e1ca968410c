//! Differential test suite: randomized plans executed by both the
//! morsel-driven engine and the naive reference executor.
//!
//! The harness generates a deterministic random dataset (a fact relation and
//! two chained dimensions) plus 140 seeded random plans of five kinds —
//! scalar scan, grouped scan, scalar join, three-relation chain join, and
//! grouped join with optional top-k — with random filters, aggregates, group
//! keys, morsel sizes and (every third plan) a split two-segment access
//! path; every other plan reads dimensions with one wide-keyed row more, so
//! their builds run hashed tables where the others run direct ones (see
//! `htap_olap::JoinTable`). Each plan is executed by the engine with 1, 2, 4 and 8 workers
//! (results must be bit-for-bit identical) and by the row-at-a-time oracle
//! in `htap_olap::reference`: result rows must agree up to floating-point
//! associativity (the oracle accumulates in scan order while the engine
//! merges per-morsel partials, so SUM/AVG are compared with a relative
//! tolerance; COUNT, MIN, MAX and group keys match exactly by the same
//! comparison since both sides compute them order-insensitively), and the
//! `WorkProfile` integers — bytes per socket, tuples, fresh rows, probes,
//! build and hash-table bytes — must be equal.

use adaptive_htap::olap::{
    execute_reference_with_work, AggExpr, CmpOp, DagBuilder, DagOp, HavingPred, JoinTable,
    OlapError, Predicate, QueryExecutor, QueryOutput, QueryPlan, QueryResult, RowSlot, ScalarExpr,
    ScanSource, SortKey, WorkerTeam,
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

/// The key of the row [`Dataset::with_wide_keys`] adds to each dimension:
/// no fact row refers to it, and it widens the dimensions' key spans far
/// past what a direct join table may cover.
const WIDE_KEY: i64 = 1 << 40;

impl Dataset {
    fn build() -> Self {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        Dataset {
            fact: fact_table(&mut rng),
            mid: mid_table(&mut rng),
            far: far_table(&mut rng),
        }
    }

    /// [`Dataset::build`] plus one row keyed [`WIDE_KEY`] in `mid` and in
    /// `far`: the same joins, run through hashed build tables.
    fn with_wide_keys() -> Self {
        let dataset = Dataset::build();
        dataset
            .mid
            .append_row(&[Value::I64(WIDE_KEY), Value::I64(WIDE_KEY), Value::F64(50.0)])
            .unwrap();
        dataset
            .far
            .append_row(&[Value::I64(WIDE_KEY), Value::F64(25.0)])
            .unwrap();
        dataset
    }

    /// Access paths: the dimensions are contiguous snapshots; the fact side
    /// is either contiguous or a two-segment split (OLAP-local head + OLTP
    /// tail over the same rows), exercising multi-segment morsel layouts.
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
        let mid_rows = self.mid.row_count();
        let mid_snap = TableSnapshot::new("mid".into(), Arc::clone(&self.mid), mid_rows);
        sources.insert(
            "mid".to_string(),
            ScanSource::contiguous_snapshot(&mid_snap, SocketId(1)),
        );
        let far_rows = self.far.row_count();
        let far_snap = TableSnapshot::new("far".into(), Arc::clone(&self.far), far_rows);
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

/// One build side of a join: relation, build-key column, filters.
type Dim = (&'static str, &'static str, Vec<Predicate>);

/// `fact ⋈ dims[0] ⋈ dims[1] …` (no dims: a single-relation plan): the fact
/// probes `dims[0]` on `keys[0]`, each dim probes the next on `keys[i + 1]`;
/// then the scalar or grouped sink, then an optional `(agg_index, k)` top-k.
fn plan(
    fact_filters: Vec<Predicate>,
    keys: Vec<ScalarExpr>,
    dims: Vec<Dim>,
    group_by: Option<Vec<String>>,
    aggregates: Vec<AggExpr>,
    top_k: Option<(usize, usize)>,
) -> QueryPlan {
    let mut b = DagBuilder::default();
    let mut beyond: Option<usize> = None;
    for (i, (table, key, filters)) in dims.iter().enumerate().rev() {
        let scan = b.scan(*table);
        let mut at = b.filter(scan, filters);
        if let Some(build) = beyond {
            at = b.probe(at, build, keys[i + 1].clone());
        }
        beyond = Some(b.build(at, ScalarExpr::col(*key)));
    }
    let scan = b.scan("fact");
    let mut at = b.filter(scan, &fact_filters);
    if let Some(build) = beyond {
        at = b.probe(at, build, keys[0].clone());
    }
    let agg = b.aggregate(at, group_by, aggregates);
    if let Some((agg_index, k)) = top_k {
        let sorted = b.push(DagOp::Sort {
            input: agg,
            keys: vec![SortKey {
                slot: RowSlot::Agg(agg_index),
                desc: true,
            }],
        });
        b.push(DagOp::Limit {
            input: sorted,
            rows: k,
        });
    }
    b.finish().expect("the harness builds valid plans")
}

fn col(name: &str) -> ScalarExpr {
    ScalarExpr::col(name)
}

fn keys(names: &[&str]) -> Option<Vec<String>> {
    Some(names.iter().map(|n| n.to_string()).collect())
}

/// One random plan of the given kind: 0 scalar scan, 1 grouped scan, 2
/// scalar join, 3 three-relation chain join, 4 grouped join with optional
/// top-k.
fn rand_plan(rng: &mut StdRng, shape: u32) -> QueryPlan {
    match shape {
        0 => {
            let filters = rand_filters(rng, &FACT_COLS, 2);
            plan(
                filters,
                vec![],
                vec![],
                None,
                rand_aggregates(rng, false),
                None,
            )
        }
        1 => {
            let filters = rand_filters(rng, &FACT_COLS, 2);
            let group_by = rand_group_by(rng);
            let aggregates = rand_aggregates(rng, false);
            plan(filters, vec![], vec![], Some(group_by), aggregates, None)
        }
        2 => {
            let fact_filters = rand_filters(rng, &FACT_COLS, 2);
            let mid = ("mid", "m_id", rand_filters(rng, &MID_COLS, 2));
            let aggregates = rand_aggregates(rng, false);
            plan(
                fact_filters,
                vec![col("f_mid")],
                vec![mid],
                None,
                aggregates,
                None,
            )
        }
        3 => {
            let fact_key = rand_fact_key(rng);
            let fact_filters = rand_filters(rng, &FACT_COLS, 2);
            let mid = ("mid", "m_id", rand_filters(rng, &MID_COLS, 2));
            let far = ("far", "r_id", rand_filters(rng, &FAR_COLS, 2));
            let aggregates = rand_aggregates(rng, false);
            let keys = vec![fact_key, col("m_far")];
            plan(fact_filters, keys, vec![mid, far], None, aggregates, None)
        }
        _ => {
            let top_k = (rng.random_range(0..2u32) == 0).then(|| (0, rng.random_range(1..=6usize)));
            let fact_key = rand_fact_key(rng);
            let fact_filters = rand_filters(rng, &FACT_COLS, 2);
            let mid = ("mid", "m_id", rand_filters(rng, &MID_COLS, 2));
            let group_by = rand_group_by(rng);
            let aggregates = rand_aggregates(rng, top_k.is_some());
            plan(
                fact_filters,
                vec![fact_key],
                vec![mid],
                Some(group_by),
                aggregates,
                top_k,
            )
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

/// ≥ 100 randomized plans, every kind: 1/2/4/8-worker engine runs must be
/// bit-for-bit identical and all must agree with the reference oracle.
#[test]
fn randomized_plans_match_reference_across_worker_counts() {
    let (dense, wide) = (Dataset::build(), Dataset::with_wide_keys());
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut per_shape = [0u32; 5];
    for case in 0..140u32 {
        let shape = case % 5;
        per_shape[shape as usize] += 1;
        let plan = rand_plan(&mut rng, shape);
        let dataset = if case % 2 == 0 { &dense } else { &wide };
        let sources = dataset.sources(case % 3 == 0);
        let executor = QueryExecutor::with_block_rows(rng.random_range(16..512));
        let ctx = format!(
            "case {case} ({}, wide keys: {})",
            plan.label(),
            case % 2 == 1
        );

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
    }
    assert!(
        per_shape.iter().all(|&n| n >= 20),
        "every kind gets a fair share of the 140 cases: {per_shape:?}"
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
    let contradiction = || {
        vec![
            Predicate::new("f_a", CmpOp::Lt, 1.0),
            Predicate::new("f_a", CmpOp::Gt, 24.0),
        ]
    };
    let aggregates = vec![
        AggExpr::Sum(col("f_a")),
        AggExpr::Avg(col("f_a")),
        AggExpr::Min(col("f_a")),
        AggExpr::Max(col("f_b")),
        AggExpr::Count,
    ];
    let mid = || ("mid", "m_id", vec![]);
    // An empty far set empties the whole chain.
    let far = ("far", "r_id", vec![Predicate::new("r_v", CmpOp::Lt, -1.0)]);
    let no = contradiction;
    let aggs = || aggregates.clone();
    let plans = vec![
        plan(no(), vec![], vec![], None, aggs(), None),
        plan(no(), vec![], vec![], keys(&["f_g"]), aggs(), None),
        plan(no(), vec![col("f_mid")], vec![mid()], None, aggs(), None),
        plan(
            vec![],
            vec![col("f_mid"), col("m_far")],
            vec![mid(), far],
            None,
            aggs(),
            None,
        ),
        plan(
            no(),
            vec![col("f_mid")],
            vec![mid()],
            keys(&["f_g"]),
            aggs(),
            Some((4, 3)),
        ),
    ];
    let sources = dataset.sources(true);
    let executor = QueryExecutor::with_block_rows(64);
    for plan in plans {
        let out = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::from_cores(vec![CoreId(0)]))
            .unwrap();
        let label = plan.label();
        assert_matches_oracle(&out, &plan, &sources, &label);
        match &out.result {
            QueryResult::Scalars(v) => {
                assert!(
                    v.iter().all(|x| *x == 0.0),
                    "{label}: empty selection must finalise to 0.0, got {v:?}"
                );
            }
            QueryResult::Groups(g) => {
                assert!(g.is_empty(), "{label}: expected zero groups");
            }
        }
    }
}

/// Run one plan through the engine at 1/2/4/8 workers (bit-identical
/// required, work profile included) and the row-at-a-time oracle (tolerance
/// comparison on the rows, equality on the work account).
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

/// The N:M join `fact ⋈ mid ON f_mid = m_far`, computed straight from the
/// stored columns: the inner-join tuple count (every fact row times the
/// number of mid rows carrying its key) and the number of fact rows with at
/// least one match — what a semijoin would count.
fn joined_and_matching_rows(dataset: &Dataset) -> (f64, f64) {
    let i64s = |table: &ColumnarTable, name: &str, rows: u64| {
        let idx = table.schema().column_index(name).unwrap();
        table.column(idx).with_i64(rows as usize, <[i64]>::to_vec)
    };
    let mut multiplicity: BTreeMap<i64, u64> = BTreeMap::new();
    for key in i64s(&dataset.mid, "m_far", MID_ROWS) {
        *multiplicity.entry(key).or_insert(0) += 1;
    }
    let weights: Vec<u64> = i64s(&dataset.fact, "f_mid", FACT_ROWS)
        .iter()
        .filter_map(|k| multiplicity.get(k).copied())
        .collect();
    (weights.iter().sum::<u64>() as f64, weights.len() as f64)
}

/// N:M regression: the build side joins on `m_far`, which repeats across
/// the 30 mid rows (12 distinct values, so the pigeonhole principle forces
/// duplicates) — a true inner join must count every matching build tuple.
/// The engine agrees with the oracle at every worker count, and COUNT(*) is
/// the inner-join count computed from the raw columns, strictly above the
/// semijoin count — so this case can never silently regress to
/// set-membership semantics.
#[test]
fn duplicate_build_keys_join_preserves_multiplicities() {
    let dataset = Dataset::build();
    let (joined, matching) = joined_and_matching_rows(&dataset);
    assert!(joined > matching, "the dataset must carry duplicate keys");
    for split in [false, true] {
        let sources = dataset.sources(split);
        let aggregates = vec![
            AggExpr::Count,
            AggExpr::Sum(col("f_a")),
            AggExpr::Avg(col("f_b")),
            AggExpr::Min(col("f_a")),
        ];
        let mid = ("mid", "m_far", vec![]);
        let plan = plan(
            vec![],
            vec![col("f_mid")],
            vec![mid],
            None,
            aggregates,
            None,
        );
        let ctx = format!("N:M join split={split}");
        let engine = assert_workers_match_oracle(&plan, &sources, 112, &ctx);
        assert_eq!(engine.result.scalars().unwrap()[0], joined, "{ctx}");
    }
}

/// N:M regression, grouped: duplicate build keys flow through the weighted
/// group-and-fold path (COUNT += weight, SUM += value * weight), per group.
/// SUM(`f_a`) and AVG(`f_a`) share one weighted lane, which MIN(`f_a`) and
/// MAX(`f_b`) fold once per row beside.
#[test]
fn duplicate_build_keys_group_by_agrees_with_oracle() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    let aggregates = vec![
        AggExpr::Count,
        AggExpr::Sum(col("f_a") * col("f_b")),
        AggExpr::Avg(col("f_a")),
        AggExpr::Max(col("f_b")),
        AggExpr::Sum(col("f_a")),
        AggExpr::Min(col("f_a")),
    ];
    let mid = ("mid", "m_far", vec![]);
    let group_by = keys(&["f_g", "f_h"]);
    let plan = plan(
        vec![],
        vec![col("f_mid")],
        vec![mid],
        group_by,
        aggregates,
        None,
    );
    let engine = assert_workers_match_oracle(&plan, &sources, 96, "N:M grouped join");
    let counted: f64 = engine.result.groups().unwrap().iter().map(|g| g.1[0]).sum();
    assert_eq!(counted, joined_and_matching_rows(&dataset).0);
}

/// N:M regression, chained: the mid build itself carries duplicate keys, so
/// probe weights must multiply down the fact → mid → far cascade (every mid
/// row finds its one far row, so the chain keeps the two-way join's count).
#[test]
fn duplicate_keys_compound_across_chained_probes() {
    let dataset = Dataset::build();
    let sources = dataset.sources(false);
    let dims = vec![("mid", "m_far", vec![]), ("far", "r_id", vec![])];
    let aggregates = vec![AggExpr::Count, AggExpr::Sum(col("f_a"))];
    let join_keys = vec![col("f_mid"), col("m_far")];
    let plan = plan(vec![], join_keys, dims, None, aggregates, None);
    let engine = assert_workers_match_oracle(&plan, &sources, 80, "N:M chain");
    assert_eq!(
        engine.result.scalars().unwrap()[0],
        joined_and_matching_rows(&dataset).0
    );
}

/// A dimension `{name}({name}_id, {name}_v)` of `rows` rows that declares
/// `{name}_id` its primary key, row `i` holding key `key(i)`; read through a
/// two-segment split access path (OLAP head of `rows / 3` rows, OLTP tail).
fn keyed_dimension(name: &str, rows: u64, key: impl Fn(u64) -> i64) -> ScanSource {
    let schema = TableSchema::new(
        name,
        vec![
            ColumnDef::new(format!("{name}_id"), DataType::I64),
            ColumnDef::new(format!("{name}_v"), DataType::F64),
        ],
        Some(0),
    );
    let table = Arc::new(ColumnarTable::new(schema));
    let mut rng = StdRng::seed_from_u64(rows);
    for i in 0..rows {
        table
            .append_row(&[Value::I64(key(i)), Value::F64(rng.random_range(0.0..100.0))])
            .unwrap();
    }
    let snap = TableSnapshot::new(name.into(), Arc::clone(&table), rows);
    ScanSource::split(table, rows / 3, SocketId(1), &snap, SocketId(0))
}

/// `fact ⋈ dim ON f_id = <dim's key>`: COUNT(*), SUM(f_a) and MAX(f_b),
/// scalar or grouped by `f_g`.
fn fact_join_dimension(dim: Dim, grouped: bool) -> QueryPlan {
    let aggregates = vec![
        AggExpr::Count,
        AggExpr::Sum(col("f_a")),
        AggExpr::Max(col("f_b")),
    ];
    let group_by = if grouped { keys(&["f_g"]) } else { None };
    plan(
        vec![],
        vec![col("f_id")],
        vec![dim],
        group_by,
        aggregates,
        None,
    )
}

/// COUNT(*) of a [`fact_join_dimension`] result (the first aggregate).
fn joined_count(result: &QueryResult) -> f64 {
    match result {
        QueryResult::Scalars(s) => s[0],
        QueryResult::Groups(g) => g.iter().map(|row| row.1[0]).sum(),
    }
}

/// A build keyed by its relation's primary key is sized from the row count
/// up front — each worker's table for its share of the morsels, the merge
/// reserving once. A 5 001-row dimension cut into 52 morsels and filtered,
/// so every table holds fewer keys than it was sized for, joined at
/// 1/2/4/8 workers.
#[test]
fn primary_key_builds_agree_across_worker_counts() {
    let dataset = Dataset::build();
    let mut sources = dataset.sources(false);
    // Keys 3i - 1 000: every third fact row has a partner.
    let dim = keyed_dimension("dim", 5_001, |i| i as i64 * 3 - 1_000);
    const BLOCK_ROWS: usize = 97;
    assert!(dim.morsels(BLOCK_ROWS).len() >= 50);
    sources.insert("dim".to_string(), dim);
    for grouped in [false, true] {
        let filters = vec![Predicate::new("dim_v", CmpOp::Lt, 60.0)];
        let plan = fact_join_dimension(("dim", "dim_id", filters), grouped);
        let ctx = format!("primary-key build, grouped={grouped}");
        let out = assert_workers_match_oracle(&plan, &sources, BLOCK_ROWS, &ctx);
        let matched = joined_count(&out.result);
        assert!(
            matched > 500.0 && matched < 1_000.0,
            "{ctx}: {matched} rows"
        );
    }
}

/// The size hint is wrong when a declared primary-key column holds
/// duplicates: `dup_id` carries each of the keys 0..1 000 two or three
/// times. The build must stay an inner join — COUNT(*) is the multiplicity
/// sum, 2 500, not the semijoin count of 1 000 — and agree with the oracle
/// on rows and work account at 1/2/4/8 workers.
#[test]
fn duplicate_primary_keys_keep_their_multiplicities() {
    let dataset = Dataset::build();
    let mut sources = dataset.sources(true);
    sources.insert(
        "dup".to_string(),
        keyed_dimension("dup", 2_500, |i| (i % 1_000) as i64),
    );
    // Fact rows 0..500 match three dup rows each, 500..1 000 two each.
    let (joined, matching) = (2_500.0, 1_000.0);
    for grouped in [false, true] {
        let plan = fact_join_dimension(("dup", "dup_id", vec![]), grouped);
        let ctx = format!("duplicate primary keys, grouped={grouped}");
        let out = assert_workers_match_oracle(&plan, &sources, 61, &ctx);
        let counted = joined_count(&out.result);
        assert_eq!(counted, joined, "{ctx}: inner-join count");
        assert!(counted > matching, "{ctx}: semijoin count");
    }
}

/// An explicitly authored operator DAG — N:M probe, grouped fold and the
/// full having → sort → limit finisher stack — runs differentially against
/// the oracle, work account included.
#[test]
fn authored_dag_plans_with_finishers_agree_with_oracle() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    let mut b = DagBuilder::default();
    let mid_scan = b.scan("mid");
    let build = b.build(mid_scan, col("m_far"));
    let fact_scan = b.scan("fact");
    let probed = b.probe(fact_scan, build, col("f_mid"));
    let agg = b.aggregate(
        probed,
        keys(&["f_g"]),
        vec![AggExpr::Count, AggExpr::Sum(col("f_a"))],
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
    let plan = b.finish().unwrap();
    let engine = assert_workers_match_oracle(&plan, &sources, 96, "authored dag");
    assert!(
        engine.result.groups().unwrap().len() <= 4,
        "the limit finisher caps the group rows"
    );

    // The two grouped-sink arms plain SQL reaches but no case above does:
    // more aggregates in one GROUP BY than the fused fold's view array holds
    // (ten, so the fold runs in two chunks), and a group key wider than the
    // inline one- and two-column paths (the generic composite-key upsert) —
    // over a bare scan, a unique-key join (plain selection) and a
    // duplicate-key join (weighted survivors).
    let wide_aggregates = vec![
        AggExpr::Count,
        AggExpr::Sum(col("f_a")),
        AggExpr::Avg(col("f_b")),
        AggExpr::Min(col("f_a")),
        AggExpr::Max(col("f_b")),
        AggExpr::Sum(col("f_a") * col("f_b")),
        AggExpr::Avg(col("f_a")),
        AggExpr::Max(col("f_a")),
        AggExpr::Count,
        AggExpr::Min(col("f_b") - col("f_a")),
    ];
    let narrow_aggregates = vec![AggExpr::Count, AggExpr::Sum(col("f_a"))];
    for build_key in [None, Some("m_id"), Some("m_far")] {
        for (group_by, aggregates) in [
            (keys(&["f_g"]), &wide_aggregates),
            (keys(&["f_g", "f_h", "f_mid"]), &narrow_aggregates),
            (keys(&["f_h", "f_mid", "f_g", "f_id"]), &wide_aggregates),
        ] {
            let dims: Vec<Dim> = build_key
                .map(|key| ("mid", key, vec![Predicate::new("m_v", CmpOp::Lt, 80.0)]))
                .into_iter()
                .collect();
            let join_keys = dims.iter().map(|_| col("f_mid")).collect();
            // The bare scan stays filterless: the dense (no selection
            // vector) fold; the joins fold a filtered, probed selection.
            let filters: Vec<Predicate> = dims
                .iter()
                .map(|_| Predicate::new("f_a", CmpOp::Ge, 2.0))
                .collect();
            let plan = self::plan(filters, join_keys, dims, group_by, aggregates.clone(), None);
            let ctx = format!("build key {build_key:?}, {}", plan.label());
            let out = assert_workers_match_oracle(&plan, &sources, 96, &ctx);
            assert!(!out.result.groups().unwrap().is_empty(), "{ctx}: vacuous");
        }
    }
}

/// Adversarial vectorization case: sources that produce *no* morsels at all
/// (zero-row relations, including a split access path whose OLAP head is
/// empty), for every kind of plan. The scratch machinery must cope with
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
    let snap = TableSnapshot::new("fact".into(), Arc::clone(&empty_fact), 0);
    sources.insert(
        "fact".to_string(),
        ScanSource::split(empty_fact, 0, SocketId(1), &snap, SocketId(0)),
    );
    for shape in 0..5u32 {
        let plan = rand_plan(&mut rng, shape);
        assert_workers_match_oracle(
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
            AggExpr::Sum(col("f_a")),
            AggExpr::Min(col("f_b")),
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
            let (f, a) = (|| filters.clone(), || aggregates.clone());
            let mid = ("mid", "m_id", vec![]);
            let plans = [
                plan(f(), vec![], vec![], None, a(), None),
                plan(f(), vec![], vec![], keys(&["f_g", "f_h"]), a(), None),
                plan(
                    f(),
                    vec![col("f_mid")],
                    vec![mid],
                    keys(&["f_g"]),
                    a(),
                    None,
                ),
            ];
            for plan in &plans {
                assert_workers_match_oracle(
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
    for group_by in [keys(&["f_g"]), keys(&["f_g", "f_h"])] {
        let filters = vec![Predicate::new("f_g", CmpOp::Eq, 3.0)];
        let aggregates = vec![
            AggExpr::Count,
            AggExpr::Avg(col("f_a")),
            AggExpr::Max(col("f_b")),
        ];
        let plan = plan(filters, vec![], vec![], group_by, aggregates, None);
        assert_workers_match_oracle(&plan, &sources, 128, "all-duplicate group keys");
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
    let aggregates = vec![AggExpr::Sum(col("f_a")), AggExpr::Count];
    let plan = plan(vec![], vec![], vec![], keys(&["f_id"]), aggregates, None);
    // 512 distinct groups per 512-row morsel versus a 16-slot initial
    // table: several growth steps per morsel, for every worker count.
    assert_workers_match_oracle(&plan, &sources, 512, "per-row groups force growth");
    let out = QueryExecutor::with_block_rows(512)
        .execute(&plan, &sources)
        .unwrap();
    assert_eq!(
        out.result.groups().unwrap().len(),
        FACT_ROWS as usize,
        "every row is its own group"
    );
    // A grouped join hits the same growth path after a probe. Two
    // aggregates keep it hashed: with one, a morsel's 512 one-key groups
    // would be seated (span × aggregates ≤ rows), not grown into.
    let mid = ("mid", "m_id", vec![]);
    let aggregates = vec![AggExpr::Count, AggExpr::Sum(col("f_a"))];
    let join_plan = crate::plan(
        vec![],
        vec![col("f_mid")],
        vec![mid],
        keys(&["f_id"]),
        aggregates,
        Some((0, 40)),
    );
    assert_workers_match_oracle(&join_plan, &sources, 512, "grouped join growth");
}

/// `fact ⋈ mid ON f_mid = m_id`, COUNT(*) into the given sink.
fn join_count(group_by: Option<Vec<String>>, top_k: Option<(usize, usize)>) -> QueryPlan {
    let mid = ("mid", "m_id", vec![]);
    let aggregates = vec![AggExpr::Count];
    plan(
        vec![],
        vec![col("f_mid")],
        vec![mid],
        group_by,
        aggregates,
        top_k,
    )
}

/// Review regression: `GROUP BY` over zero columns is the degenerate
/// single-global-group plan: one group with an empty key (and an
/// all-eliminating filter must still yield zero groups).
#[test]
fn empty_group_by_produces_one_global_group() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    let filters = vec![Predicate::new("f_a", CmpOp::Ge, 5.0)];
    let aggregates = vec![
        AggExpr::Sum(col("f_a")),
        AggExpr::Avg(col("f_b")),
        AggExpr::Count,
    ];
    let plan = plan(filters, vec![], vec![], keys(&[]), aggregates, None);
    assert_workers_match_oracle(&plan, &sources, 128, "empty group_by");
    let out = QueryExecutor::with_block_rows(128)
        .execute(&plan, &sources)
        .unwrap();
    let groups = out.result.groups().unwrap();
    assert_eq!(groups.len(), 1, "one global group");
    assert!(groups[0].0.is_empty(), "the global group has an empty key");

    // Same through a join.
    let join_plan = join_count(keys(&[]), None);
    assert_workers_match_oracle(&join_plan, &sources, 128, "empty group_by join");

    // An all-eliminating filter still produces zero groups, not one.
    let filters = vec![Predicate::new("f_a", CmpOp::Ge, 25.0)];
    let empty = self::plan(
        filters,
        vec![],
        vec![],
        keys(&[]),
        vec![AggExpr::Count],
        None,
    );
    assert_workers_match_oracle(&empty, &sources, 128, "empty group_by, empty selection");
    let out = QueryExecutor::with_block_rows(128)
        .execute(&empty, &sources)
        .unwrap();
    assert!(out.result.groups().unwrap().is_empty());
}

/// The driver's two per-morsel decisions — "every row survived, stay dense"
/// and "no row survived, load nothing more" — over the S3-NI access path (an
/// OLAP copy plus the OLTP-snapshot tail) cut into morsels whose size divides
/// neither segment. Each filter set keeps every row of some morsels, no row
/// of others and some rows of the rest, and the filtered scan feeds every
/// sink: scalar root, grouped root (1, 2 and 3 keys, more aggregates than
/// any fused pass ever held, constant inputs included), a probing root, and
/// the build side of a join — unique keys, duplicate keys and computed keys.
#[test]
fn all_none_and_some_row_morsels_agree_over_a_split_source() {
    let dataset = Dataset::build();
    let sources = dataset.sources(true);
    // 1 500-row OLAP segment, 1 501-row tail: 97 divides neither.
    const BLOCK_ROWS: usize = 97;
    for segment_rows in [FACT_ROWS / 2, FACT_ROWS - FACT_ROWS / 2] {
        assert!(!segment_rows.is_multiple_of(BLOCK_ROWS as u64));
    }
    let filter_sets = [
        // Nothing, then one partial morsel, then everything.
        vec![Predicate::new("f_id", CmpOp::Ge, 250.0)],
        // A window across the segment boundary: none / some / all / some /
        // none, the second predicate refining an all-pass first one.
        vec![
            Predicate::new("f_id", CmpOp::Ge, 250.0),
            Predicate::new("f_id", CmpOp::Lt, 2_000.0),
        ],
        // A leading predicate every row passes (f_a is sampled from
        // [0, 25)), so the window is cut from a still-dense selection; the
        // trailing value filter then thins the all-pass morsels.
        vec![
            Predicate::new("f_a", CmpOp::Ge, 0.0),
            Predicate::new("f_id", CmpOp::Lt, 2_000.0),
            Predicate::new("f_id", CmpOp::Ge, 250.0),
        ],
        vec![
            Predicate::new("f_id", CmpOp::Lt, 1_600.0),
            Predicate::new("f_b", CmpOp::Lt, 12.0),
        ],
    ];
    let aggregates = vec![
        AggExpr::Sum(col("f_a")),
        AggExpr::Count,
        AggExpr::Avg(col("f_b")),
        AggExpr::Min(col("f_a")),
        AggExpr::Max(col("f_b")),
        AggExpr::Sum(col("f_a") * col("f_b")),
        AggExpr::Sum(ScalarExpr::lit(2.5)),
        AggExpr::Min(col("f_b") - col("f_a")),
        AggExpr::Avg(col("f_a") + ScalarExpr::lit(1.0)),
        AggExpr::Max(ScalarExpr::lit(3.0) * col("f_a")),
    ];
    assert!(aggregates.len() >= 9);
    for (set, filters) in filter_sets.iter().enumerate() {
        let (f, a) = (|| filters.clone(), || aggregates.clone());
        let mut plans = vec![
            plan(f(), vec![], vec![], None, a(), None),
            plan(f(), vec![], vec![], keys(&["f_g"]), a(), None),
            plan(f(), vec![], vec![], keys(&["f_g", "f_h"]), a(), None),
            plan(
                f(),
                vec![],
                vec![],
                keys(&["f_g", "f_h", "f_mid"]),
                a(),
                None,
            ),
        ];
        // The filtered scan as a probing root: a unique-key build (plain
        // survivors) and a duplicate-key one (weighted survivors).
        for build_key in ["m_id", "m_far"] {
            let dims = || vec![("mid", build_key, vec![])];
            let probe = || vec![col("f_mid")];
            plans.push(plan(f(), probe(), dims(), None, a(), None));
            plans.push(plan(f(), probe(), dims(), keys(&["f_h", "f_g"]), a(), None));
        }
        // The filtered scan as a join build: `mid` probes it on a unique
        // key (f_id, reached through a computed probe key), on a
        // duplicate-heavy exact key and on a duplicate-heavy computed key.
        for (build_key, probe_key) in [
            (
                col("f_id"),
                col("m_id") * ScalarExpr::lit(97.0) + col("m_far"),
            ),
            (col("f_mid"), col("m_id")),
            (col("f_g") * ScalarExpr::lit(4.0) + col("f_h"), col("m_far")),
        ] {
            for group_by in [None, keys(&["m_far"])] {
                let mut b = DagBuilder::default();
                let fact = b.scan("fact");
                let filtered = b.filter(fact, filters);
                let build = b.build(filtered, build_key.clone());
                let mid = b.scan("mid");
                let probed = b.probe(mid, build, probe_key.clone());
                let aggregates = vec![
                    AggExpr::Count,
                    AggExpr::Sum(col("m_v")),
                    AggExpr::Max(col("m_v")),
                ];
                b.aggregate(probed, group_by, aggregates);
                plans.push(b.finish().unwrap());
            }
        }
        for (i, plan) in plans.iter().enumerate() {
            let ctx = format!("filter set {set}, plan {i} ({})", plan.label());
            let out = assert_workers_match_oracle(plan, &sources, BLOCK_ROWS, &ctx);
            let vacuous = match &out.result {
                QueryResult::Scalars(s) => s.iter().all(|v| *v == 0.0),
                QueryResult::Groups(g) => g.is_empty(),
            };
            assert!(!vacuous, "{ctx}: vacuous");
        }
    }
}

/// One build of [`join_builds_at_the_edges_of_the_direct_kind_agree`]:
/// dimension and key column, rows, the fact-side join key, row `i`'s
/// dimension key, and the joined COUNT(*).
type EdgeBuild = (
    &'static str,
    &'static str,
    u64,
    ScalarExpr,
    fn(u64) -> i64,
    f64,
);

/// Join builds at the edges of the direct table kind, each joined as
/// `fact ⋈ dim ON <fact key> = {dim}_id` over a [`keyed_dimension`], scalar
/// and grouped by `f_g`, at 1/2/4/8 workers against the oracle:
///
/// * `at`, `past`: 1 000 rows keyed `4i`, the last one 4 095 or 4 096. A
///   direct table of 4 096 keys takes the bytes of the 2 048-slot hashed
///   array 1 000 rows would take, and one of 4 097 does not, so one query
///   shape runs both kinds; 751 fact rows (`f_id` = 0, 4, …, 3 000) find a
///   key either way.
/// * `neg`: keys `−1 499..=0`, a direct range below zero, which `−f_id`
///   meets 1 500 times; `ext`: the same with `i64::MIN` and `i64::MAX` in
///   place of 0 and −1, a span no `i64` (nor `u64`) difference holds — it
///   must pick the hashed table, not overflow or panic.
/// * `dupd`: 2 100 rows over the 700 keys `−350..=349`, three each, so the
///   direct table carries weight 3 into the weighted probe: COUNT(*) is the
///   inner-join count of the 700 matching fact rows, 2 100.
#[test]
fn join_builds_at_the_edges_of_the_direct_kind_agree() {
    assert!(JoinTable::direct_fits(0, 4_095, 1_000));
    assert!(!JoinTable::direct_fits(0, 4_096, 1_000));
    assert!(!JoinTable::direct_fits(i64::MIN, i64::MAX, 1_500));
    assert!(JoinTable::direct_fits(-350, 349, 2_100));
    let negated = || col("f_id") * ScalarExpr::lit(-1.0);
    let cases: [EdgeBuild; 5] = [
        (
            "at",
            "at_id",
            1_000,
            col("f_id"),
            |i| match i {
                999 => 4_095,
                i => i as i64 * 4,
            },
            751.0,
        ),
        (
            "past",
            "past_id",
            1_000,
            col("f_id"),
            |i| match i {
                999 => 4_096,
                i => i as i64 * 4,
            },
            751.0,
        ),
        ("neg", "neg_id", 1_500, negated(), |i| -(i as i64), 1_500.0),
        (
            "ext",
            "ext_id",
            1_500,
            negated(),
            |i| match i {
                0 => i64::MIN,
                1 => i64::MAX,
                i => -(i as i64),
            },
            1_498.0,
        ),
        (
            "dupd",
            "dupd_id",
            2_100,
            col("f_id") + ScalarExpr::lit(-350.0),
            |i| (i % 700) as i64 - 350,
            2_100.0,
        ),
    ];
    for (dim, dim_id, rows, fact_key, key, joined) in cases {
        let mut sources = Dataset::build().sources(true);
        sources.insert(dim.to_string(), keyed_dimension(dim, rows, key));
        for grouped in [false, true] {
            let aggregates = vec![
                AggExpr::Count,
                AggExpr::Sum(col("f_a")),
                AggExpr::Max(col("f_b")),
            ];
            let group_by = if grouped { keys(&["f_g"]) } else { None };
            let build = (dim, dim_id, vec![]);
            let plan = plan(
                vec![],
                vec![fact_key.clone()],
                vec![build],
                group_by,
                aggregates,
                None,
            );
            let ctx = format!("{dim} build, grouped={grouped}");
            let out = assert_workers_match_oracle(&plan, &sources, 89, &ctx);
            assert_eq!(joined_count(&out.result), joined, "{ctx}");
        }
    }
}

/// A grouping whose group column takes disjoint spans morsel by morsel:
/// `seq(s_id, s_grp, s_v)` has `s_grp = 2·(s_id / 10) − 200`, ten even keys
/// per 100-row morsel. The five aggregates fold one count and three lanes
/// (SUM and AVG share theirs), so a morsel seats the 19 keys of its span
/// when at least 19 × 4 = 76 of its rows are selected. Unfiltered, every
/// morsel seats, and nine of its keys get no row and must not be emitted;
/// `s_id ≥ 250` empties the first two morsels' selection and halves the
/// third's; `s_v < 80` leaves about 80 rows a morsel, so most morsels seat
/// and some hash — mixed kinds in one merge; `s_v < 20` leaves about 20, so
/// every morsel hashes. Every case at 1/2/4/8 workers against the oracle.
#[test]
fn group_keys_with_disjoint_morsel_spans_agree() {
    let schema = TableSchema::new(
        "seq",
        vec![
            ColumnDef::new("s_id", DataType::I64),
            ColumnDef::new("s_grp", DataType::I64),
            ColumnDef::new("s_v", DataType::F64),
        ],
        Some(0),
    );
    let table = Arc::new(ColumnarTable::new(schema));
    let mut rng = StdRng::seed_from_u64(0x5E9);
    const ROWS: u64 = 2_000;
    for i in 0..ROWS {
        let row = [
            Value::I64(i as i64),
            Value::I64(i as i64 / 10 * 2 - 200),
            Value::F64(rng.random_range(0.0..100.0)),
        ];
        table.append_row(&row).unwrap();
    }
    let snap = TableSnapshot::new("seq".into(), Arc::clone(&table), ROWS);
    let mut sources = BTreeMap::new();
    sources.insert(
        "seq".to_string(),
        ScanSource::split(table, 700, SocketId(1), &snap, SocketId(0)),
    );
    for (name, filters) in [
        ("unfiltered", vec![]),
        (
            "empty morsels",
            vec![Predicate::new("s_id", CmpOp::Ge, 250.0)],
        ),
        ("mixed", vec![Predicate::new("s_v", CmpOp::Lt, 80.0)]),
        ("sparse", vec![Predicate::new("s_v", CmpOp::Lt, 20.0)]),
    ] {
        let mut b = DagBuilder::default();
        let scan = b.scan("seq");
        let at = b.filter(scan, &filters);
        let aggregates = vec![
            AggExpr::Count,
            AggExpr::Sum(col("s_v")),
            AggExpr::Min(col("s_v")),
            AggExpr::Avg(col("s_v")),
            AggExpr::Max(col("s_v")),
        ];
        b.aggregate(at, keys(&["s_grp"]), aggregates);
        let plan = b.finish().unwrap();
        let out = assert_workers_match_oracle(&plan, &sources, 100, name);
        let groups = out.result.groups().unwrap();
        let expected = match name {
            "unfiltered" | "mixed" => 200..=200,
            "empty morsels" => 175..=175,
            _ => 150..=199,
        };
        assert!(
            expected.contains(&groups.len()),
            "{name}: {} groups",
            groups.len()
        );
        assert!(
            groups.iter().all(|g| g.0[0] % 2 == 0),
            "{name}: an unseen key emitted"
        );
        assert!(
            groups.windows(2).all(|w| w[0].0 < w[1].0),
            "{name}: key order"
        );
    }
}

// ---------------------------------------------------------------------------
// Tuple join keys: a build keyed by a tuple of integer columns folds each
// tuple over the box of the columns' storage-kept bounds.
// ---------------------------------------------------------------------------

/// The three tuple columns `{p}_w` (i64), `{p}_d` (i32) and `{p}_o` (i64),
/// then `{p}_a` (f64) and `{p}_g` (i32), one row per tuple of `rows`; read
/// through a two-segment split access path (OLAP head of a third of the
/// rows, OLTP tail), so the box is the union of two instances' bounds.
fn tuple_relation(
    name: &str,
    p: &str,
    rows: &[(i64, i64, i64)],
) -> (Arc<ColumnarTable>, ScanSource) {
    let schema = TableSchema::new(
        name,
        vec![
            ColumnDef::new(format!("{p}_w"), DataType::I64),
            ColumnDef::new(format!("{p}_d"), DataType::I32),
            ColumnDef::new(format!("{p}_o"), DataType::I64),
            ColumnDef::new(format!("{p}_a"), DataType::F64),
            ColumnDef::new(format!("{p}_g"), DataType::I32),
        ],
        None,
    );
    let table = Arc::new(ColumnarTable::new(schema));
    let mut rng = StdRng::seed_from_u64(rows.len() as u64);
    for &(w, d, o) in rows {
        table
            .append_row(&[
                Value::I64(w),
                Value::I32(d as i32),
                Value::I64(o),
                Value::F64(rng.random_range(0.0..10.0)),
                Value::I32(rng.random_range(0..4)),
            ])
            .unwrap();
    }
    let n = rows.len() as u64;
    let snap = TableSnapshot::new(name.into(), Arc::clone(&table), n);
    let source = ScanSource::split(Arc::clone(&table), n / 3, SocketId(1), &snap, SocketId(0));
    (table, source)
}

/// The `(w, d, o)` tuples a [`tuple_relation`] holds now, read back from
/// its columns.
fn stored_tuples(table: &ColumnarTable) -> Vec<(i64, i64, i64)> {
    let rows = table.row_count() as usize;
    let w = table.column(0).with_i64(rows, <[i64]>::to_vec);
    let d = table.column(1).with_i32(rows, <[i32]>::to_vec);
    let o = table.column(2).with_i64(rows, <[i64]>::to_vec);
    (0..rows).map(|i| (w[i], i64::from(d[i]), o[i])).collect()
}

/// The inner-join count of `fact ⋈ dim` on the whole tuple, computed from
/// the stored rows by counting, with no fold.
fn tuple_join_count(fact: &ColumnarTable, dim: &ColumnarTable) -> f64 {
    let mut weights: BTreeMap<(i64, i64, i64), u64> = BTreeMap::new();
    for t in stored_tuples(dim) {
        *weights.entry(t).or_insert(0) += 1;
    }
    stored_tuples(fact)
        .iter()
        .map(|t| weights.get(t).copied().unwrap_or(0))
        .sum::<u64>() as f64
}

/// `tf ⋈ {dim} ON (tf_w, tf_d, tf_o) = ({p}_w, {p}_d, {p}_o)`: COUNT(*),
/// SUM(tf_a) and MAX(tf_a), scalar or grouped by `tf_g`.
fn tuple_join(dim: &str, p: &str, grouped: bool) -> QueryPlan {
    let tuple = |q: &str| ["w", "d", "o"].map(|c| col(&format!("{q}_{c}"))).to_vec();
    let mut b = DagBuilder::default();
    let scan = b.scan(dim);
    let build = b.build(scan, tuple(p));
    let scan = b.scan("tf");
    let at = b.probe(scan, build, tuple("tf"));
    let aggregates = vec![
        AggExpr::Count,
        AggExpr::Sum(col("tf_a")),
        AggExpr::Max(col("tf_a")),
    ];
    b.aggregate(at, grouped.then(|| vec!["tf_g".to_string()]), aggregates);
    b.finish().unwrap()
}

/// The dimension box of the tuple cases: `w ∈ −3..=2`, `d ∈ 1..=10`,
/// `o ∈ −5..=20` — every column's min and max held, and the negative keys
/// with them — less a third of the tuples, except the two alias targets
/// `(−1, 10, 5)` and `(1, 4, 20)`, which are always held.
fn dim_tuples() -> Vec<(i64, i64, i64)> {
    let mut out = Vec::new();
    for w in -3..=2i64 {
        for d in 1..=10 {
            for o in -5..=20 {
                let target = (w, d, o) == (-1, 10, 5) || (w, d, o) == (1, 4, 20);
                if target || (w + d + o).rem_euclid(3) != 0 {
                    out.push((w, d, o));
                }
            }
        }
    }
    out
}

/// Fact tuples over one more value on each side of every column of the
/// box, plus the aliasing probes: `(0, 0, 5)` is one below `d`'s minimum,
/// and folds — were `d` not checked — onto `(−1, 10, 5)`; `(1, 5, −6)` is
/// one below `o`'s minimum and folds onto `(1, 4, 20)`; `(3, 1, 1)` is
/// past `w`'s maximum.
fn fact_tuples() -> Vec<(i64, i64, i64)> {
    let mut rng = StdRng::seed_from_u64(0x7u64);
    let mut out: Vec<(i64, i64, i64)> = (0..2_000)
        .map(|_| {
            (
                rng.random_range(-4..=3),
                rng.random_range(0..=11),
                rng.random_range(-6..=21),
            )
        })
        .collect();
    out.extend([(0, 0, 5), (1, 5, -6), (3, 1, 1), (-1, 10, 5), (1, 4, 20)]);
    out
}

/// Tuple keys at the box's edges, at 1/2/4/8 workers against the oracle
/// (which compares tuples column by column, with no fold) and against the
/// join count from the raw rows:
///
/// * `box`: the [`dim_tuples`] box, direct; the fact's tuples one past each
///   column's min and max and the aliasing probes of [`fact_tuples`] miss.
/// * `wide`: the same plus one tuple with `o = 10⁶`, a box too large for a
///   direct table: the fold keys a hashed table, and the probes outside the
///   box still miss.
/// * `dup`: every tuple of the box three times, so the direct table carries
///   weight 3 into the weighted probe.
#[test]
fn tuple_keys_at_the_edges_of_the_box_agree() {
    let (fact, fact_source) = tuple_relation("tf", "tf", &fact_tuples());
    let dim = dim_tuples();
    let mut wide = dim.clone();
    wide.push((0, 5, 1_000_000));
    let dup: Vec<_> = dim.iter().flat_map(|&t| [t, t, t]).collect();
    for (name, rows) in [("box", dim.clone()), ("wide", wide), ("dup", dup)] {
        let (table, source) = tuple_relation("td", "td", &rows);
        let mut sources = BTreeMap::new();
        sources.insert("tf".to_string(), fact_source.clone());
        sources.insert("td".to_string(), source);
        let joined = tuple_join_count(&fact, &table);
        assert!(joined > 0.0, "{name}: vacuous");
        for grouped in [false, true] {
            let plan = tuple_join("td", "td", grouped);
            let ctx = format!("{name}, grouped={grouped}");
            let out = assert_workers_match_oracle(&plan, &sources, 97, &ctx);
            assert_eq!(joined_count(&out.result), joined, "{ctx}");
        }
    }
}

/// A build tuple outside the box its columns' bounds describe: a value
/// written past the bounds (straight into the column, as no write path of
/// the storage layer does) must still join exactly as the oracle says —
/// the build meets it, widens the box and runs again, and never folds it
/// onto another tuple. The fact holds the outsider's tuple and the tuple
/// it would alias under the old box.
#[test]
fn a_build_tuple_outside_the_box_still_joins_exactly() {
    use adaptive_htap::storage::Column;
    let mut fact_rows = fact_tuples();
    fact_rows.extend([(0, 3, 500), (0, 3, 500)]);
    let (fact, fact_source) = tuple_relation("tf", "tf", &fact_rows);
    let dim = dim_tuples();
    let (table, source) = tuple_relation("td", "td", &dim);
    let before = table.column(2).bounds();
    let Column::I64(values, _) = table.column(2) else {
        panic!("td_o is an i64 column");
    };
    // `(0, 3, −5)` becomes `(0, 3, 500)`, past `o`'s maximum 20.
    let row = dim.iter().position(|&t| t == (0, 3, -5)).unwrap();
    values.write()[row] = 500;
    assert_eq!(table.column(2).bounds(), before, "the bounds missed it");
    assert_eq!(stored_tuples(&table)[row], (0, 3, 500));
    let mut sources = BTreeMap::new();
    sources.insert("tf".to_string(), fact_source);
    sources.insert("td".to_string(), source);
    let joined = tuple_join_count(&fact, &table);
    for grouped in [false, true] {
        let plan = tuple_join("td", "td", grouped);
        let ctx = format!("outsider, grouped={grouped}");
        let out = assert_workers_match_oracle(&plan, &sources, 61, &ctx);
        assert_eq!(joined_count(&out.result), joined, "{ctx}");
    }
}

/// A chain of tuple hops, CH-Q3's shape: `tf ⋈ tm ON (w, d, o)` and
/// `tm ⋈ tc ON (w, d, c)`, where the middle pipeline both probes one
/// folded build and builds another over a filtered source.
#[test]
fn chained_tuple_hops_agree() {
    let (_, fact_source) = tuple_relation("tf", "tf", &fact_tuples());
    // tm: the box's tuples with a customer `tm_g`-derived column, which is
    // the `o` column of the relation `tc` is keyed on.
    let (_, mid_source) = tuple_relation("tm", "tm", &dim_tuples());
    let customers: Vec<_> = (-3..=2)
        .flat_map(|w| (1..=10).flat_map(move |d| (0..4).map(move |c| (w, d, c))))
        .filter(|&(w, d, c)| (w * 7 + d + c) % 5 != 0)
        .collect();
    let (_, far_source) = tuple_relation("tc", "tc", &customers);
    let mut sources = BTreeMap::new();
    sources.insert("tf".to_string(), fact_source);
    sources.insert("tm".to_string(), mid_source);
    sources.insert("tc".to_string(), far_source);
    let cols = |cs: [&str; 3]| cs.map(col).to_vec();
    for filtered in [false, true] {
        let mut b = DagBuilder::default();
        let scan = b.scan("tc");
        let far = b.build(scan, cols(["tc_w", "tc_d", "tc_o"]));
        let scan = b.scan("tm");
        let filters = if filtered {
            vec![Predicate::new("tm_a", CmpOp::Lt, 5.0)]
        } else {
            vec![]
        };
        let at = b.filter(scan, &filters);
        let at = b.probe(at, far, cols(["tm_w", "tm_d", "tm_g"]));
        let mid = b.build(at, cols(["tm_w", "tm_d", "tm_o"]));
        let scan = b.scan("tf");
        let at = b.probe(scan, mid, cols(["tf_w", "tf_d", "tf_o"]));
        b.aggregate(at, None, vec![AggExpr::Count, AggExpr::Sum(col("tf_a"))]);
        let plan = b.finish().unwrap();
        let out = assert_workers_match_oracle(&plan, &sources, 113, &format!("chain {filtered}"));
        assert!(joined_count(&out.result) > 0.0, "chain {filtered}: vacuous");
    }
}

/// A tuple whose box holds more tuples than `i64` can count cannot fold
/// exactly: a typed error from the engine and from the oracle, not a wrong
/// answer; so is a probe tuple of a different arity (at plan time) and a
/// tuple element that is not a plain column.
#[test]
fn tuple_keys_outside_the_key_rule_are_typed_errors() {
    let (_, fact_source) = tuple_relation("tf", "tf", &fact_tuples());
    let (_, dim_source) = tuple_relation("td", "td", &[(0, 0, 0), (1 << 40, 1 << 30, 1 << 40)]);
    let mut sources = BTreeMap::new();
    sources.insert("tf".to_string(), fact_source);
    sources.insert("td".to_string(), dim_source);
    let overflow = OlapError::UnsupportedKey {
        reason: "a tuple whose box overflows i64",
    };
    let plan = tuple_join("td", "td", false);
    let engine = QueryExecutor::with_block_rows(64).execute(&plan, &sources);
    assert_eq!(engine.unwrap_err(), overflow);
    let oracle = execute_reference_with_work(&plan, &sources);
    assert_eq!(oracle.unwrap_err(), overflow);
    // Two of the three columns span 2^40 · 2^30 = 2^70 tuples as well.
    let mut b = DagBuilder::default();
    let scan = b.scan("td");
    let build = b.build(scan, vec![col("td_w"), col("td_d")]);
    let scan = b.scan("tf");
    let at = b.probe(scan, build, vec![col("tf_w"), col("tf_d")]);
    b.aggregate(at, None, vec![AggExpr::Count]);
    let plan = b.finish().unwrap();
    let engine = QueryExecutor::default().execute(&plan, &sources);
    assert_eq!(engine.unwrap_err(), overflow);
    assert_eq!(
        execute_reference_with_work(&plan, &sources).unwrap_err(),
        overflow
    );
    // A computed element.
    let computed = OlapError::UnsupportedKey {
        reason: "a tuple element that is not a plain column",
    };
    let mut b = DagBuilder::default();
    let scan = b.scan("tf");
    let build = b.build(scan, vec![col("tf_w"), col("tf_d") + ScalarExpr::lit(0.0)]);
    let scan = b.scan("td");
    let at = b.probe(scan, build, vec![col("td_w"), col("td_d")]);
    b.aggregate(at, None, vec![AggExpr::Count]);
    let plan = b.finish().unwrap();
    assert_eq!(
        QueryExecutor::default()
            .execute(&plan, &sources)
            .unwrap_err(),
        computed
    );
    assert_eq!(
        execute_reference_with_work(&plan, &sources).unwrap_err(),
        computed
    );
    // Arity: a plan error, before any execution.
    let mut b = DagBuilder::default();
    let scan = b.scan("td");
    let build = b.build(scan, vec![col("td_w"), col("td_d")]);
    let scan = b.scan("tf");
    let at = b.probe(scan, build, col("tf_w"));
    b.aggregate(at, None, vec![AggExpr::Count]);
    assert!(matches!(
        b.finish().unwrap_err(),
        OlapError::InvalidDag { .. }
    ));
}
