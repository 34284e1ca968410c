//! The OLAP engine facade: engine-local storage, granted cores, executor and
//! cost model.
//!
//! The engine's storage manager "considers that data are stored in the
//! main-memory of a single server ... it accepts as input a pointer to the
//! memory areas where the data are stored at execution time, and it does not
//! load any data beforehand" (§3.3). Concretely, [`OlapStore`] holds the
//! engine's own columnar instance (filled by the RDE engine's ETL), and a
//! query is executed over whatever [`ScanSource`]s the RDE engine / scheduler
//! wires up — OLAP-local, OLTP snapshot, or split access.

use crate::error::OlapError;
use crate::exec::{QueryExecutor, QueryOutput};
use crate::plan::QueryPlan;
use crate::source::ScanSource;
use crate::worker::WorkerTeam;
use htap_sim::{CoreId, CostModel, ExecPlacement, ScanCost, SocketId, Topology, TxnWork};
use htap_storage::{ColumnarTable, RowId, TableSchema, TableSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The OLAP engine's private storage (decoupled-storage side of the design):
/// one columnar instance per relation. An instance's published
/// [`ColumnarTable::row_count`] is its queryable prefix — the ETL publishes
/// it after every column holds the copied rows, so once an ETL returns it
/// equals the twin table's propagation watermark
/// ([`htap_storage::TwinTable::olap_synced_rows`]); the store keeps no
/// row count of its own.
#[derive(Debug)]
pub struct OlapStore {
    tables: RwLock<BTreeMap<String, Arc<ColumnarTable>>>,
    /// Socket whose DRAM holds the OLAP instance.
    socket: SocketId,
}

impl OlapStore {
    /// Empty store resident on `socket`.
    pub fn new(socket: SocketId) -> Self {
        OlapStore {
            tables: RwLock::new(BTreeMap::new()),
            socket,
        }
    }

    /// Socket holding the OLAP instance.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// Create a relation in the OLAP instance.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<ColumnarTable>, String> {
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(format!(
                "table {} already exists in OLAP store",
                schema.name
            ));
        }
        let table = Arc::new(ColumnarTable::new(schema.clone()));
        tables.insert(schema.name, Arc::clone(&table));
        Ok(table)
    }

    /// Look up a relation.
    pub fn table(&self, name: &str) -> Option<Arc<ColumnarTable>> {
        self.tables.read().get(name).cloned()
    }

    /// Total queryable bytes of the OLAP instance.
    pub fn bytes(&self) -> u64 {
        self.tables.read().values().map(|t| t.bytes()).sum()
    }

    /// Apply an ETL delta from an OLTP snapshot: copy the updated rows and
    /// the inserted row range (which publishes the new row count).
    /// Returns the number of rows copied.
    pub fn apply_delta(
        &self,
        snapshot: &TableSnapshot,
        updated_rows: &[RowId],
        inserted: std::ops::Range<u64>,
    ) -> u64 {
        let Some(table) = self.table(snapshot.name()) else {
            return 0;
        };
        let copied = updated_rows.len() as u64 + inserted.end.saturating_sub(inserted.start);
        let columns = 0..table.schema().arity();
        table.copy_from(snapshot.table().columns(), columns, updated_rows, inserted);
        copied
    }

    /// A contiguous scan source over the local instance of `name`.
    pub fn local_source(&self, name: &str) -> Option<ScanSource> {
        self.table(name).map(|t| {
            let rows = t.row_count();
            ScanSource::contiguous_olap(name, t, rows, self.socket)
        })
    }
}

/// Result of executing a query through the engine: functional output plus
/// modelled execution time.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// Query result and work profile.
    pub output: QueryOutput,
    /// Modelled execution time on the simulated machine.
    pub modeled: ScanCost,
}

/// The OLAP engine.
#[derive(Debug)]
pub struct OlapEngine {
    store: OlapStore,
    /// The cores the RDE engine has granted, in worker order.
    cores: RwLock<Vec<CoreId>>,
    executor: QueryExecutor,
    cost_model: CostModel,
}

impl OlapEngine {
    /// Create an engine whose local instance lives on `home_socket`.
    pub fn new(topology: Topology, home_socket: SocketId) -> Self {
        OlapEngine {
            store: OlapStore::new(home_socket),
            cores: RwLock::new(Vec::new()),
            executor: QueryExecutor::default(),
            cost_model: CostModel::new(topology),
        }
    }

    /// The engine's private storage.
    pub fn store(&self) -> &OlapStore {
        &self.store
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Replace the granted cores with `cores`, one pipeline worker each
    /// (called by the RDE engine when it migrates).
    pub fn set_workers(&self, cores: &[CoreId]) {
        let mut granted = self.cores.write();
        granted.clear();
        granted.extend_from_slice(cores);
    }

    /// Number of pipeline workers the current grant fields.
    pub fn worker_count(&self) -> usize {
        self.cores.read().len()
    }

    /// Snapshot the current grant into an executable [`WorkerTeam`].
    pub fn team(&self) -> WorkerTeam {
        WorkerTeam::from_cores(self.cores.read().clone())
    }

    /// The execution placement (cores per socket) the cost model reads.
    pub fn placement(&self) -> ExecPlacement {
        ExecPlacement::of_cores(self.cost_model.topology(), &self.cores.read())
    }

    /// Execute a query over the provided access paths and model its execution
    /// time, optionally accounting for a concurrent transactional workload.
    ///
    /// Execution is morsel-driven and parallel: the worker team — one
    /// pipeline worker per core the RDE engine has granted — claims morsels
    /// of the scan, so elastic grants change the measured wall-clock time of
    /// the query, not just the modelled one. The calling thread runs worker
    /// 0 and the helper threads of the other granted cores run the rest (see
    /// [`WorkerTeam::run`]); with one core granted, or none, the query runs
    /// wholly on the calling thread.
    pub fn run_query(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
        concurrent_txn: Option<&TxnWork>,
    ) -> Result<QueryExecution, OlapError> {
        let team = self.team();
        let output = self.executor.execute_parallel(plan, sources, &team)?;
        let placement = self.placement();
        let scan_work = output.work.scan_work(plan.cpu_ns_per_tuple());
        let join_work = output.work.join_work();
        let modeled =
            self.cost_model
                .scan_time(&scan_work, &placement, join_work.as_ref(), concurrent_txn);
        Ok(QueryExecution { output, modeled })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, ScalarExpr};
    use htap_storage::{ColumnDef, DataType, TwinTable, Value};

    fn schema() -> TableSchema {
        TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        )
    }

    fn engine() -> OlapEngine {
        let topo = Topology::two_socket();
        let e = OlapEngine::new(topo.clone(), SocketId(1));
        e.set_workers(&topo.cores_of(SocketId(1)));
        e
    }

    /// Unfiltered scalar aggregation over `sales`.
    fn sales_plan(aggregates: Vec<AggExpr>) -> QueryPlan {
        crate::plan::Pipeline::scan("sales")
            .aggregate(aggregates)
            .finish()
            .unwrap()
    }

    fn twin_with_rows(n: u64) -> TwinTable {
        let twin = TwinTable::new(schema());
        for i in 0..n {
            twin.insert(&[Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        twin.switch_and_sync();
        twin
    }

    #[test]
    fn olap_store_applies_etl_deltas() {
        let e = engine();
        e.store().create_table(schema()).unwrap();
        assert!(e.store().create_table(schema()).is_err());
        let sales = e.store().table("sales").unwrap();

        let twin = twin_with_rows(10);
        let snap = twin.snapshot();
        let (updated, inserted) = twin.take_olap_delta();
        let copied = e.store().apply_delta(&snap, &updated, inserted);
        assert_eq!(copied, 10);
        assert_eq!(sales.row_count(), 10);
        assert_eq!(e.store().bytes(), 10 * 16);
        assert_eq!(sales.get_value(3, 1), Some(Value::F64(3.0)));
        assert_eq!(sales.get_value(30, 1), None);

        // A second delta with an update flows through as well.
        twin.update(2, 1, &Value::F64(222.0)).unwrap();
        twin.insert(&[Value::I64(10), Value::F64(10.0)]).unwrap();
        twin.switch_and_sync();
        let snap = twin.snapshot();
        let (updated, inserted) = twin.take_olap_delta();
        let copied = e.store().apply_delta(&snap, &updated, inserted);
        assert_eq!(copied, 2);
        assert_eq!(sales.get_value(2, 1), Some(Value::F64(222.0)));
        assert_eq!(sales.row_count(), 11);
        assert_eq!(sales.row_count(), twin.olap_synced_rows());
    }

    #[test]
    fn apply_delta_to_unknown_table_is_noop() {
        let e = engine();
        let twin = twin_with_rows(5);
        let snap = twin.snapshot();
        assert_eq!(e.store().apply_delta(&snap, &[], 0..5), 0);
    }

    #[test]
    fn run_query_over_local_source_returns_result_and_time() {
        let e = engine();
        e.store().create_table(schema()).unwrap();
        let twin = twin_with_rows(1000);
        let snap = twin.snapshot();
        let (updated, inserted) = twin.take_olap_delta();
        e.store().apply_delta(&snap, &updated, inserted);

        let plan = sales_plan(vec![
            AggExpr::Sum(ScalarExpr::col("amount")),
            AggExpr::Count,
        ]);
        let mut sources = BTreeMap::new();
        sources.insert(
            "sales".to_string(),
            e.store().local_source("sales").unwrap(),
        );
        let exec = e.run_query(&plan, &sources, None).unwrap();
        assert_eq!(exec.output.result.scalars().unwrap()[1], 1000.0);
        assert_eq!(
            exec.output.result.scalars().unwrap()[0],
            (0..1000).map(|i| i as f64).sum::<f64>()
        );
        assert!(exec.modeled.total > 0.0);
        assert_eq!(
            exec.output.work.fresh_rows, 0,
            "local source holds no fresh rows"
        );
    }

    #[test]
    fn remote_snapshot_query_is_modeled_slower_than_local() {
        let e = engine();
        e.store().create_table(schema()).unwrap();
        let twin = twin_with_rows(100_000);
        let snap = twin.snapshot();
        let (updated, inserted) = twin.take_olap_delta();
        e.store().apply_delta(&snap, &updated, inserted);

        let plan = sales_plan(vec![AggExpr::Sum(ScalarExpr::col("amount"))]);
        // Local access (OLAP instance on socket 1, workers on socket 1).
        let mut local = BTreeMap::new();
        local.insert(
            "sales".to_string(),
            e.store().local_source("sales").unwrap(),
        );
        let t_local = e.run_query(&plan, &local, None).unwrap().modeled.total;
        // Remote access (OLTP snapshot on socket 0, workers on socket 1).
        let mut remote = BTreeMap::new();
        remote.insert(
            "sales".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let t_remote = e.run_query(&plan, &remote, None).unwrap().modeled.total;
        assert!(
            t_remote > t_local * 1.5,
            "remote reads must be modeled slower: local={t_local} remote={t_remote}"
        );
    }

    #[test]
    fn concurrent_txn_slows_modeled_time_when_sharing_the_data_socket() {
        let e = engine();
        e.store().create_table(schema()).unwrap();
        let twin = twin_with_rows(100_000);
        let snap = twin.snapshot();
        let plan = sales_plan(vec![AggExpr::Count]);
        let mut sources = BTreeMap::new();
        sources.insert(
            "sales".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let alone = e.run_query(&plan, &sources, None).unwrap().modeled.total;
        let txn = TxnWork::colocated(SocketId(0), 14, 85_000.0);
        let contended = e
            .run_query(&plan, &sources, Some(&txn))
            .unwrap()
            .modeled
            .total;
        assert!(contended >= alone);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use htap_storage::{ColumnDef, DataType, TwinTable, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const ROW_WIDTH: u64 = 8 + 8 + 8 + 24;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("a", DataType::I64),
                ColumnDef::new("b", DataType::F64),
                ColumnDef::new("name", DataType::Str),
            ],
            Some(0),
        )
    }

    fn cell(column: usize, v: i64) -> Value {
        match column {
            1 => Value::I64(v),
            2 => Value::F64(v as f64),
            _ => Value::Str(format!("s{v}")),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(i64),
        Update(usize, usize, i64),
        SwitchAndSync,
        Etl,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<i64>().prop_map(Op::Insert),
            6 => (0usize..64, 1usize..4, any::<i64>()).prop_map(|(r, c, v)| Op::Update(r, c, v)),
            2 => Just(Op::SwitchAndSync),
            2 => Just(Op::Etl),
        ]
    }

    /// What the exchange path must keep true, in plain collections.
    #[derive(Default)]
    struct Model {
        /// Latest committed value of every cell.
        rows: Vec<Vec<Value>>,
        /// The rows as of the last switch: what the snapshot shows.
        snapshot: Vec<Vec<Value>>,
        /// Rows and columns updated since the last switch.
        cycle_rows: BTreeSet<usize>,
        cycle_columns: BTreeSet<usize>,
        /// Rows updated before the last switch and not yet in the OLAP copy.
        olap_pending: BTreeSet<usize>,
        /// Rows the OLAP copy holds.
        olap_rows: usize,
    }

    impl Model {
        fn fresh_rows(&self) -> u64 {
            let updated = self
                .olap_pending
                .union(&self.cycle_rows)
                .filter(|&&r| r < self.olap_rows)
                .count();
            (self.snapshot.len() - self.olap_rows + updated) as u64
        }
    }

    fn check_pending_state(twin: &TwinTable, model: &Model) {
        assert_eq!(
            twin.update_presence().is_set(),
            !model.cycle_rows.is_empty()
        );
        for column in 0..4 {
            assert_eq!(
                twin.active().column_stats(column).is_updated(),
                model.cycle_columns.contains(&column),
                "updated flag of column {column} on the active instance"
            );
            assert!(!twin
                .instance(twin.inactive_instance())
                .column_stats(column)
                .is_updated());
        }
        assert_eq!(twin.fresh_rows_vs_olap(), model.fresh_rows());
    }

    proptest! {
        /// Random interleavings of inserts, updates of several columns
        /// (strings included), switch + synchronisation and ETL, checked
        /// after every step against the model: both twin instances hold the
        /// latest values after each synchronisation, the OLAP copy equals
        /// the snapshot after each ETL, the accounting is row width ×
        /// records, and update bits, `updated` flags and the presence flag
        /// are set exactly while something is pending.
        #[test]
        fn exchange_path_matches_a_row_model(ops in prop::collection::vec(arb_op(), 1..160)) {
            let twin = TwinTable::new(schema());
            let store = OlapStore::new(SocketId(1));
            store.create_table(schema()).unwrap();
            let mut model = Model::default();
            for op in ops {
                match op {
                    Op::Insert(v) => {
                        let id = model.rows.len();
                        let row = vec![Value::I64(id as i64), cell(1, v), cell(2, v), cell(3, v)];
                        prop_assert_eq!(twin.insert(&row).unwrap(), id as u64);
                        for instance in 0..2 {
                            prop_assert_eq!(twin.instance(instance).get_row(id as u64).unwrap(), row.clone());
                        }
                        model.rows.push(row);
                    }
                    Op::Update(r, column, v) => {
                        if model.rows.is_empty() {
                            continue;
                        }
                        let r = r % model.rows.len();
                        let old = twin.update(r as u64, column, &cell(column, v)).unwrap();
                        prop_assert_eq!(&old, &model.rows[r][column]);
                        model.rows[r][column] = cell(column, v);
                        model.cycle_rows.insert(r);
                        model.cycle_columns.insert(column);
                        prop_assert_eq!(twin.get(r as u64, column), Some(cell(column, v)));
                    }
                    Op::SwitchAndSync => {
                        let synced = twin.switch_and_sync();
                        prop_assert_eq!(synced.copied_records, model.cycle_rows.len() as u64);
                        prop_assert_eq!(synced.copied_bytes, model.cycle_rows.len() as u64 * ROW_WIDTH);
                        for (r, expected) in model.rows.iter().enumerate() {
                            for instance in 0..2 {
                                prop_assert_eq!(
                                    &twin.instance(instance).get_row(r as u64).unwrap(), expected,
                                    "row {} of instance {} after the synchronisation", r, instance
                                );
                            }
                        }
                        model.olap_pending.append(&mut model.cycle_rows);
                        model.cycle_columns.clear();
                        model.snapshot = model.rows.clone();
                        prop_assert_eq!(twin.snapshot().rows(), model.snapshot.len() as u64);
                    }
                    Op::Etl => {
                        let (updated, inserted) = twin.take_olap_delta();
                        let expected: Vec<u64> = model
                            .olap_pending
                            .iter()
                            .filter(|&&r| r < model.olap_rows)
                            .map(|&r| r as u64)
                            .collect();
                        prop_assert_eq!(&updated, &expected);
                        prop_assert_eq!(inserted.clone(), model.olap_rows as u64..model.snapshot.len() as u64);
                        let copied = store.apply_delta(&twin.snapshot(), &updated, inserted.clone());
                        prop_assert_eq!(copied, expected.len() as u64 + (inserted.end - inserted.start));
                        model.olap_pending.clear();
                        model.olap_rows = model.snapshot.len();
                        let olap = store.table("t").unwrap();
                        prop_assert_eq!(olap.row_count(), model.olap_rows as u64);
                        prop_assert_eq!(olap.row_count(), twin.olap_synced_rows());
                        for (r, expected) in model.snapshot.iter().enumerate() {
                            for (column, value) in expected.iter().enumerate() {
                                prop_assert_eq!(
                                    olap.get_value(r as u64, column).as_ref(), Some(value),
                                    "row {} column {} of the OLAP copy after the ETL", r, column
                                );
                            }
                        }
                    }
                }
                check_pending_state(&twin, &model);
            }
        }
    }
}
