//! Criterion micro-benchmarks for the building blocks the figures depend on:
//! columnar scans, the cuckoo index, the exchange path (switch and
//! synchronisation of a ten-column twin relation, the ETL's inserted-range
//! copy), the lock table, the transaction path (the four CH transaction
//! bodies and their 45/43/6/6 stream), the durability window (checkpoint
//! write and checkpoint restore, on an in-memory medium), CH
//! query execution, the hand-off of a pipeline to the worker team and the
//! bandwidth/cost models.
//!
//! Run with `cargo bench -p htap-bench`. The harness uses small sample sizes
//! so a full run stays in the minutes range on a laptop-class host.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use htap_chbench::{ChConfig, ChGenerator, QueryId, TransactionDriver};
use htap_durability::{load_state, DurableStorage, MemStorage, Wal, WalConfig};
use htap_olap::QueryExecutor;
use htap_oltp::{
    apply_recovered, DurabilityController, LockKey, LockMode, LockTable, OltpEngine,
    CHECKPOINT_FILE, WAL_FILE,
};
use htap_rde::{AccessMethod, RdeConfig, RdeEngine};
use htap_sim::{BandwidthModel, CostModel, ExecPlacement, ScanWork, SocketId, Stream, Topology};
use htap_storage::{ColumnDef, CuckooIndex, DataType, TableSchema, TwinTable, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn column_scan(c: &mut Criterion) {
    let column = htap_storage::Column::new(DataType::F64);
    for i in 0..1_000_000 {
        column.append(&Value::F64(i as f64));
    }
    c.bench_function("storage/column_scan_sum_1M_f64", |b| {
        b.iter(|| column.with_f64(1_000_000, |v| black_box(v.iter().sum::<f64>())))
    });
}

fn cuckoo_index(c: &mut Criterion) {
    c.bench_function("storage/cuckoo_insert_100k", |b| {
        b.iter_batched(
            || CuckooIndex::<u64>::with_capacity(1 << 17),
            |idx| {
                for k in 0..100_000u64 {
                    idx.insert(k, k);
                }
                black_box(idx.len())
            },
            BatchSize::SmallInput,
        )
    });
    let idx = CuckooIndex::<u64>::with_capacity(1 << 17);
    for k in 0..100_000u64 {
        idx.insert(k, k);
    }
    c.bench_function("storage/cuckoo_lookup_100k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for k in 0..100_000u64 {
                if idx.get(k).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn twin_switch_sync(c: &mut Criterion) {
    let twin = wide_twin(100_000);
    c.bench_function("storage/twin_switch_sync_1k_dirty", |b| {
        b.iter_batched(
            || {
                for i in 0..1_000u64 {
                    let row = i * 97 % 100_000;
                    twin.update(row, 3, &Value::I32(1)).unwrap();
                    twin.update(row, 5, &Value::F64(1.0)).unwrap();
                }
            },
            |()| black_box(twin.switch_and_sync().copied_records),
            BatchSize::SmallInput,
        )
    });
}

/// A tiny CH database with enough ingested orders that every district's
/// last-20-orders window is full (StockLevel then does its ≈ 400 point reads).
fn oltp_fixture() -> (RdeEngine, TransactionDriver) {
    let rde = RdeEngine::bootstrap(RdeConfig::default());
    let config = ChConfig::tiny();
    ChGenerator::new(config.clone()).build(&rde).unwrap();
    let driver = TransactionDriver::for_config(&config);
    for worker in 0..2 {
        driver.run_new_orders(rde.oltp(), worker, 100, 3);
    }
    (rde, driver)
}

/// The four transaction bodies and the 45/43/6/6 stream, one worker, hot
/// caches. The untimed set-up keeps the database in the state the end-to-end
/// runs see between two queries: every 128 transactions it crosses the switch
/// gate, which collects the version chains (there, a query does every 50 ms),
/// and every 2 048 it starts from a fresh database, so that a time-bounded
/// sample never contains the rehash of a grown index or the reallocation of
/// a grown column (tens of milliseconds, once per doubling).
fn transactions(c: &mut Criterion) {
    use rand::Rng;
    use std::cell::RefCell;
    type Body<'a> = &'a mut dyn FnMut(&RdeEngine, &TransactionDriver, &mut StdRng, u64) -> bool;
    let fixture = RefCell::new(oltp_fixture());
    let mut rng = StdRng::seed_from_u64(2);
    let mut index = 0u64;
    let mut bench = |name: &str, body: Body| {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    index += 1;
                    if index.is_multiple_of(2048) {
                        fixture.replace(oltp_fixture());
                    } else if index.is_multiple_of(128) {
                        fixture.borrow().0.switch_and_sync();
                    }
                    index
                },
                |index| {
                    let (rde, driver) = &*fixture.borrow();
                    black_box(body(rde, driver, &mut rng, index))
                },
                BatchSize::SmallInput,
            )
        });
    };
    bench("oltp/neworder_transaction", &mut |rde, driver, rng, _| {
        let params = driver.generate_new_order(1, rng);
        driver.execute_new_order(rde.oltp(), &params).is_ok()
    });
    bench("oltp/payment_transaction", &mut |rde, driver, rng, _| {
        let (d_id, c_id) = (rng.random_range(1..=2), rng.random_range(1..=30));
        let amount = rng.random_range(1.0..5_000.0);
        driver
            .execute_payment(rde.oltp(), 1, d_id, c_id, amount)
            .is_ok()
    });
    bench(
        "oltp/stock_level_transaction",
        &mut |rde, driver, rng, _| {
            let d_id = rng.random_range(1..=2);
            driver.execute_stock_level(rde.oltp(), 1, d_id, 15).is_ok()
        },
    );
    bench("oltp/mixed_transaction", &mut |rde, driver, _, index| {
        driver.run_one_mixed(rde.oltp(), 0, 5, index)
    });
}

/// Ten-column relation in `orderline`'s shape, for the exchange-path benches.
fn wide_schema() -> TableSchema {
    let mut columns = vec![ColumnDef::new("k", DataType::I64)];
    for i in 1..10 {
        let dtype = match i % 3 {
            0 => DataType::I32,
            1 => DataType::I64,
            _ => DataType::F64,
        };
        columns.push(ColumnDef::new(format!("c{i}"), dtype));
    }
    TableSchema::new("wide", columns, Some(0))
}

/// Row `k` of the relation `schema` (a [`wide_schema`]).
fn wide_row(schema: &TableSchema, k: i64) -> Vec<Value> {
    schema
        .columns
        .iter()
        .map(|c| match c.dtype {
            DataType::I64 => Value::I64(k),
            DataType::F64 => Value::F64(k as f64),
            DataType::I32 => Value::I32(k as i32),
            DataType::Str => Value::from("x"),
        })
        .collect()
}

fn wide_twin(rows: i64) -> TwinTable {
    let schema = wide_schema();
    let twin = TwinTable::new(schema.clone());
    for k in 0..rows {
        twin.insert(&wide_row(&schema, k)).unwrap();
    }
    twin
}

/// An engine holding the (empty) wide relation.
fn wide_engine() -> OltpEngine {
    let engine = OltpEngine::new();
    engine.create_table(wide_schema()).unwrap();
    engine
}

/// The durability window's two bulk paths, each over one relation in
/// `orderline`'s shape on an in-memory medium: writing the checkpoint image
/// of 500 k rows (one slice append per column, file CRC, atomic write, the
/// log's restart as a bare header), and reopening it (read, CRC, decode into
/// columns, range copy into both twin instances, one index reservation and
/// batch insert from the key column).
fn durability_window(c: &mut Criterion) {
    const ROWS: i64 = 500_000;
    let disk = MemStorage::new();
    let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
    // No linger: the log below is written by one committer.
    let unbatched = WalConfig {
        flush_interval_micros: 0,
        max_batch: 1,
    };
    let open_wal = |storage: &Arc<dyn DurableStorage>| {
        Wal::open(Arc::clone(storage), WAL_FILE, unbatched).expect("in-memory medium")
    };
    let schema = wide_schema();
    let engine = wide_engine();
    for k in 0..ROWS {
        // Key cells in no particular order: row ids are not key order.
        let mut row = wide_row(&schema, k);
        row[0] = Value::I64(k.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64));
        engine.bulk_load("wide", row).unwrap();
    }
    let (wal, _) = open_wal(&storage);
    engine.attach_durability(Arc::new(DurabilityController::new(
        Arc::clone(&storage),
        wal,
        0,
    )));
    c.bench_function("durability/checkpoint_write_500k_rows", |b| {
        b.iter(|| black_box(engine.checkpoint_now().expect("in-memory medium")))
    });
    c.bench_function("durability/checkpoint_restore_500k_rows", |b| {
        b.iter_batched(
            wide_engine,
            |fresh| {
                let (_wal, log) = open_wal(&storage);
                let state = load_state(storage.as_ref(), log, CHECKPOINT_FILE).expect("image");
                black_box(apply_recovered(&fresh, &state).expect("image matches the schema"));
                fresh
            },
            BatchSize::LargeInput,
        )
    });
}

fn etl_insert_range(c: &mut Criterion) {
    use htap_olap::OlapEngine;
    let twin = wide_twin(100_000);
    twin.switch_and_sync();
    let snapshot = twin.snapshot();
    c.bench_function("storage/etl_insert_range_100k", |b| {
        b.iter_batched(
            || {
                let olap = OlapEngine::new(Topology::two_socket(), SocketId(1));
                olap.store().create_table(wide_schema()).unwrap();
                olap
            },
            |olap| black_box(olap.store().apply_delta(&snapshot, &[], 0..100_000)),
            BatchSize::LargeInput,
        )
    });
}

fn lock_table(c: &mut Criterion) {
    let locks = LockTable::new(64);
    c.bench_function("oltp/lock_acquire_release_10k", |b| {
        b.iter(|| {
            for i in 0..10_000u64 {
                let key = LockKey::new(1, i);
                assert!(locks.try_acquire(1, key, LockMode::Exclusive));
                locks.release(1, key);
            }
        })
    });
}

/// The SQL frontend's fixed per-query cost: parse, bind and plan of the
/// seven CH query texts, `QueryId::plan` over `query_mix_wide()` (each
/// call also builds the CH catalog, which `execute_sql` keeps in the
/// system instead).
///
/// On a 2-CPU Xeon container host, eight alternating runs each, per mix of
/// seven (the host was noisy: runs of one build spread ±25 %): 88–138 µs,
/// median 121 µs, while a plan carried an index-linked operator graph
/// beside its flattened pipelines and converted the one into the other;
/// 74–113 µs, median 89 µs, since the plan is the pipeline tree alone.
fn sql_planning(c: &mut Criterion) {
    let mix = htap_chbench::query_mix_wide();
    c.bench_function("sql/plan_ch_mix", |b| {
        b.iter(|| {
            for &q in &mix {
                black_box(q.plan().expect("the CH texts plan"));
            }
        })
    });
}

fn ch_query_execution(c: &mut Criterion) {
    let rde = RdeEngine::bootstrap(RdeConfig::default());
    ChGenerator::new(ChConfig::small()).build(&rde).unwrap();
    rde.switch_and_sync();
    rde.etl_to_olap();
    let executor = QueryExecutor::default();
    let q6 = QueryId::Q6.plan().expect("CH SQL compiles");
    let q1 = QueryId::Q1.plan().expect("CH SQL compiles");
    let sources_q6 = rde.sources_for(&q6.tables(), AccessMethod::OlapLocal);
    let sources_q1 = rde.sources_for(&q1.tables(), AccessMethod::OlapLocal);
    c.bench_function("olap/ch_q6_60k_rows", |b| {
        b.iter(|| {
            black_box(
                executor
                    .execute(&q6, &sources_q6)
                    .expect("CH plan matches its sources")
                    .result
                    .row_count(),
            )
        })
    });
    c.bench_function("olap/ch_q1_60k_rows", |b| {
        b.iter(|| {
            black_box(
                executor
                    .execute(&q1, &sources_q1)
                    .expect("CH plan matches its sources")
                    .result
                    .row_count(),
            )
        })
    });
}

/// Measured scaling of the morsel-driven executor: the same CH-Q6/CH-Q1 scan
/// with 1, 2 and 4 pipeline workers. Wall-clock time should drop
/// monotonically as workers are added (the acceptance signal of the elastic
/// core grants).
fn parallel_scan_scaling(c: &mut Criterion) {
    use htap_olap::WorkerTeam;
    use htap_sim::CoreId;

    let rde = RdeEngine::bootstrap(RdeConfig::default());
    ChGenerator::new(ChConfig::small()).build(&rde).unwrap();
    rde.switch_and_sync();
    rde.etl_to_olap();
    let executor = QueryExecutor::with_block_rows(4 * 1024);
    for (label, query) in [("q6", QueryId::Q6), ("q1", QueryId::Q1)] {
        let plan = query.plan().expect("CH SQL compiles");
        let sources = rde.sources_for(&plan.tables(), AccessMethod::OlapLocal);
        for workers in [1u16, 2, 4] {
            let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
            c.bench_function(&format!("olap/parallel_{label}_{workers}w"), |b| {
                b.iter(|| {
                    black_box(
                        executor
                            .execute_parallel(&plan, &sources, &team)
                            .expect("CH plan matches its sources")
                            .result
                            .row_count(),
                    )
                })
            });
        }
    }
}

/// The fixed cost of handing one pipeline to a team: post, run and wait,
/// over one tiny morsel of work per worker (a 64-value sum). One worker
/// runs inline on the calling thread; with two, the caller runs worker 0
/// and the long-lived helper of core 1 runs worker 1.
fn team_dispatch(c: &mut Criterion) {
    use htap_olap::WorkerTeam;
    use htap_sim::CoreId;

    let morsel: Vec<u64> = (0..64).collect();
    for workers in [1u16, 2] {
        let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
        c.bench_function(&format!("olap/team_dispatch_{workers}"), |b| {
            b.iter(|| black_box(team.run(|w| black_box(&morsel).iter().sum::<u64>() + w as u64)))
        });
    }
}

/// The six queries of `htap_bench::exec_trajectory` (a synthetic
/// orderline-like fact table with two dimensions) through the vectorized
/// engine on the inline solo worker — the interactive per-plan view; the
/// committed, gated numbers are `bench_e2e`'s.
fn vectorized_shapes(c: &mut Criterion) {
    let sources = htap_bench::exec_trajectory::sources(128 * 1024);
    let vectorized = QueryExecutor::with_block_rows(16 * 1024);
    for (label, plan) in htap_bench::exec_trajectory::plans() {
        c.bench_function(&format!("olap/vectorized_{label}"), |b| {
            b.iter(|| {
                black_box(
                    vectorized
                        .execute(&plan, &sources)
                        .expect("plan matches its sources")
                        .result
                        .row_count(),
                )
            })
        });
    }
}

/// The per-row kernels behind the pipeline driver, one default morsel
/// (16 Ki rows) per iteration: the unique-key join probe against a 10 k-key
/// build (CH `item`) with every probe key present and with half of them
/// absent — `olap/join_probe_*` through a hashed table (batch hash, then
/// branch-free compaction of the matching rows), `olap/join_probe_direct_*`
/// through a direct one over `0..10 000` (`key − min`, one bounds compare;
/// the absent keys lie past the range) — and the grouped sink's
/// group-ids-then-folds pass in Q1's shape (one key of 24 values, five
/// aggregates folding a count and two lanes, a filter every row passes):
/// `olap/group_fold_5aggs` with the
/// values 5·10⁷ apart, so the ids are hashed, `olap/group_fold_5aggs_direct`
/// with them 1 apart, so the morsel seats the 24 keys of the column's
/// storage bounds and a row's id is `key − min`.
fn join_and_group_kernels(c: &mut Criterion) {
    use htap_olap::JoinTable;
    use htap_storage::{ColumnarTable, TableSnapshot};
    use rand::Rng;
    use std::collections::BTreeMap;

    const ROWS: usize = 16 * 1024;
    const BUILD_KEYS: i64 = 10_000;
    let mut hashed = JoinTable::new();
    let mut direct = JoinTable::direct(0, BUILD_KEYS - 1);
    for k in 0..BUILD_KEYS {
        hashed.add(k, 1);
        direct.add(k, 1);
    }
    let mut rng = StdRng::seed_from_u64(0x10B);
    for (label, key_range) in [("hit", BUILD_KEYS), ("miss50", 2 * BUILD_KEYS)] {
        let keys: Vec<i64> = (0..ROWS).map(|_| rng.random_range(0..key_range)).collect();
        let (mut hashes, mut survivors) = (Vec::new(), Vec::new());
        for (kind, table) in [("", &hashed), ("direct_", &direct)] {
            c.bench_function(&format!("olap/join_probe_{kind}{label}"), |b| {
                b.iter(|| {
                    table.select(black_box(&keys), None, &mut hashes, &mut survivors);
                    black_box(survivors.len())
                })
            });
        }
    }

    let [fact, _, _] = htap_bench::exec_trajectory::schemas();
    let catalog = htap_sql::Catalog::new().with_table(fact.clone(), ROWS as u64);
    let plan = htap_sql::plan(
        "SELECT f_g, SUM(f_a), SUM(f_b), AVG(f_a), AVG(f_b), COUNT(*) FROM fact \
         WHERE f_a >= 0 GROUP BY f_g",
        &catalog,
    )
    .expect("fixture query compiles");
    let executor = QueryExecutor::default();
    for (label, stride) in [("", 50_000_000), ("_direct", 1)] {
        let table = ColumnarTable::new(fact.clone());
        for i in 0..ROWS as i64 {
            let row = [
                Value::I64(i),
                Value::I64(i % 100),
                Value::I32((i % 24) as i32 * stride),
                Value::I64(i % 4_096),
                Value::F64((i % 100) as f64 + 0.25),
                Value::F64((i % 13) as f64 * 0.5),
            ];
            table.append_row(&row).expect("row matches its schema");
        }
        let snap = TableSnapshot::new("fact".into(), Arc::new(table), ROWS as u64);
        let sources = BTreeMap::from([(
            "fact".to_string(),
            htap_olap::ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        )]);
        c.bench_function(&format!("olap/group_fold_5aggs{label}"), |b| {
            b.iter(|| {
                black_box(
                    executor
                        .execute(&plan, &sources)
                        .expect("plan matches its sources")
                        .result
                        .row_count(),
                )
            })
        });
    }
}

/// A primary-key join build as every query pays it: a fresh table takes the
/// keys of CH `item` (10 k dense `i_id`s) or of `orders` (130 k composite
/// `o_key`s, 4 warehouses × 10 districts × 3 250 orders), once grown from 16
/// slots and once presized with `JoinTable::with_capacity` from the row
/// count, as the executor now sizes a build keyed by its relation's primary
/// key. On a 2-CPU Xeon container host, two runs: 10 k keys grown 28 ns/key
/// (279 µs), presized 3.5–3.8 (35–38 µs); 130 k keys grown 27–28 ns/key
/// (3.5–3.7 ms), presized 11.5 (1.49–1.51 ms; its slot array is 4 MiB).
fn join_build_tables(c: &mut Criterion) {
    use htap_olap::JoinTable;

    let item: Vec<i64> = (1..=10_000).collect();
    let orders: Vec<i64> = (1..=4i64)
        .flat_map(|w| (1..=10i64).map(move |d| (w * 100 + d) * 10_000_000))
        .flat_map(|district| (1..=3_250i64).map(move |o| district + o))
        .collect();
    for (label, keys) in [("10k", &item), ("130k", &orders)] {
        for (variant, capacity) in [("grown", 0), ("presized", keys.len())] {
            c.bench_function(&format!("olap/join_build_pk_{label}/{variant}"), |b| {
                b.iter(|| {
                    let mut table = JoinTable::with_capacity(capacity);
                    for &k in black_box(keys.as_slice()) {
                        table.add(k, 1);
                    }
                    black_box(table.len())
                })
            });
        }
    }
}

/// Join builds shaped like CH Q4's: 180 k orders (4 warehouses × 10
/// districts × 4 500) of 10 order lines each, 1.8 M rows, built on the
/// inline solo worker; a one-row probe side keeps the rest of the query
/// negligible. Two keys over the same three `i64` columns:
///
/// * `olap/join_build_computed_key`: the computed order key
///   `(ol_w_id·100 + ol_d_id)·10⁷ + ol_o_id`, which folds at bind to
///   `10⁹·w + 10⁷·d + o` and evaluates in `i64` over the borrowed key
///   columns — spread over a span no direct table covers, so hashed.
/// * `olap/join_build_tuple_key`: the tuple `(ol_w_id, ol_d_id, ol_o_id)`,
///   folded by mixed radix over the columns' storage-kept bounds into a box
///   of 4 × 10 × 4 500 = 180 k keys — a direct table.
///
/// On a 2-CPU Xeon container host, three runs each: computed key
/// 12.03–12.12 ms per query, tuple key 7.17–7.18 ms.
fn join_build_q4_keys(c: &mut Criterion) {
    use htap_olap::{AggExpr, Pipeline, ScalarExpr, ScanSource};
    use htap_storage::{ColumnarTable, TableSnapshot};
    use std::collections::BTreeMap;

    let lines = ColumnarTable::new(TableSchema::new(
        "ol",
        ["ol_w_id", "ol_d_id", "ol_o_id"]
            .map(|name| ColumnDef::new(name, DataType::I64))
            .to_vec(),
        None,
    ));
    for w in 1..=4i64 {
        for d in 1..=10i64 {
            for o in 1..=4_500i64 {
                for _ in 0..10 {
                    lines
                        .append_row(&[Value::I64(w), Value::I64(d), Value::I64(o)])
                        .expect("row matches its schema");
                }
            }
        }
    }
    let orders = ColumnarTable::new(TableSchema::new(
        "o",
        ["o_key", "o_w_id", "o_d_id", "o_id"]
            .map(|name| ColumnDef::new(name, DataType::I64))
            .to_vec(),
        Some(0),
    ));
    orders
        .append_row(&[101 * 10_000_000 + 1, 1, 1, 1].map(Value::I64))
        .expect("row matches its schema");
    let mut sources = BTreeMap::new();
    for (name, table) in [("ol", lines), ("o", orders)] {
        let rows = table.row_count();
        let snap = TableSnapshot::new(name.into(), Arc::new(table), rows);
        sources.insert(
            name.to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
    }
    let col = ScalarExpr::col;
    let lit = ScalarExpr::lit;
    let computed = (col("ol_w_id") * lit(100.0) + col("ol_d_id")) * lit(1e7) + col("ol_o_id");
    let tuple = |cols: [&str; 3]| cols.map(ScalarExpr::col).to_vec();
    for (label, build_key, probe_key) in [
        ("computed_key", vec![computed], vec![col("o_key")]),
        (
            "tuple_key",
            tuple(["ol_w_id", "ol_d_id", "ol_o_id"]),
            tuple(["o_w_id", "o_d_id", "o_id"]),
        ),
    ] {
        let plan = Pipeline::scan("o")
            .probe(Pipeline::scan("ol").build(build_key), probe_key)
            .aggregate(vec![AggExpr::Count])
            .finish()
            .expect("probe and build keys match");
        let executor = QueryExecutor::default();
        c.bench_function(&format!("olap/join_build_{label}"), |b| {
            b.iter(|| {
                let out = executor
                    .execute(&plan, &sources)
                    .expect("plan matches its sources");
                black_box(out.result.scalars().map(|s| s[0]).unwrap_or(0.0))
            })
        });
    }
}

/// The tuple key fold alone, over the build-side key columns of CH Q4's
/// shape: 1.8 M order lines of 180 k orders (4 warehouses × 10 districts ×
/// 4 500, 10 lines each), three `i64` columns folded by mixed radix over
/// their box `1..=4 × 1..=10 × 1..=4 500`, one 16 Ki-row morsel at a time
/// into a reused key buffer, as a pipeline folds them:
/// `olap/tuple_key_fold/dense` every row, `olap/tuple_key_fold/sel50`
/// behind a selection of about half the rows, scattered.
///
/// On a 2-CPU Xeon container host (2 MiB L2), three alternating runs each,
/// per pass over the 1.8 M rows: the unfused evaluation the fused fold
/// replaced (a multiply-add pass, then one range-check pass per element)
/// took 5.52–5.60 ms dense and 3.38–3.40 ms behind the selection; the fused
/// fold takes 2.23–2.27 ms and 1.47–1.52 ms.
fn tuple_key_fold(c: &mut Criterion) {
    use htap_olap::kernels::{fold_tuple, hash_i64, FoldDim};

    const MORSEL: usize = 16 * 1024;
    let mut columns = [Vec::new(), Vec::new(), Vec::new()];
    for w in 1..=4i64 {
        for d in 1..=10i64 {
            for o in 1..=4_500i64 {
                for _ in 0..10 {
                    for (column, v) in columns.iter_mut().zip([w, d, o]) {
                        column.push(v);
                    }
                }
            }
        }
    }
    let rows = columns[0].len();
    let dims = [(4, 45_000), (10, 4_500), (4_500, 1)].map(|(span, stride)| FoldDim {
        min: 1,
        span,
        stride,
    });
    // Per morsel, the morsel-local ids of the rows whose hash is even.
    let selections: Vec<Vec<u32>> = (0..rows)
        .step_by(MORSEL)
        .map(|start| {
            (0..MORSEL.min(rows - start) as u32)
                .filter(|&i| hash_i64(start as i64 + i64::from(i)) & 1 == 0)
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(MORSEL);
    for label in ["dense", "sel50"] {
        c.bench_function(&format!("olap/tuple_key_fold/{label}"), |b| {
            b.iter(|| {
                let mut outside = false;
                for (m, start) in (0..rows).step_by(MORSEL).enumerate() {
                    let n = MORSEL.min(rows - start);
                    let column = |k: usize| &columns[k][start..start + n];
                    let sel = (label == "sel50").then(|| selections[m].as_slice());
                    outside |= fold_tuple(&dims, column, n, sel, &mut out);
                }
                black_box((outside, out[0]))
            })
        });
    }
}

fn etl_delta_copy(c: &mut Criterion) {
    c.bench_function("rde/switch_sync_etl_tiny_db", |b| {
        b.iter_batched(
            || {
                let rde = RdeEngine::bootstrap(RdeConfig::default());
                let config = ChConfig::tiny();
                ChGenerator::new(config.clone()).build(&rde).unwrap();
                rde
            },
            |rde| {
                rde.switch_and_sync();
                black_box(rde.etl_to_olap().copied_rows)
            },
            BatchSize::LargeInput,
        )
    });
}

fn cost_models(c: &mut Criterion) {
    let topology = Topology::two_socket();
    let bandwidth = BandwidthModel::new(topology.clone());
    let cost = CostModel::new(topology);
    let streams = vec![
        Stream::sequential(SocketId(0), SocketId(0), 6),
        Stream::sequential(SocketId(0), SocketId(1), 14),
        Stream::random(SocketId(0), SocketId(0), 8),
        Stream::sequential(SocketId(1), SocketId(1), 8),
    ];
    c.bench_function("sim/bandwidth_allocation_4_streams", |b| {
        b.iter(|| black_box(bandwidth.allocate(&streams).rates().to_vec()))
    });
    let scan = ScanWork::simple(SocketId(0), 10_000_000_000, 100_000_000);
    let placement = ExecPlacement::single_socket(SocketId(1), 10).with(SocketId(0), 4);
    c.bench_function("sim/scan_cost_evaluation", |b| {
        b.iter(|| black_box(cost.scan_time(&scan, &placement, None, None).total))
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = column_scan, cuckoo_index, twin_switch_sync, etl_insert_range, lock_table,
              transactions, durability_window, sql_planning,
              ch_query_execution, parallel_scan_scaling, team_dispatch,
              vectorized_shapes, join_and_group_kernels, join_build_tables, join_build_q4_keys,
              tuple_key_fold,
              etl_delta_copy,
              cost_models
}
criterion_main!(benches);
