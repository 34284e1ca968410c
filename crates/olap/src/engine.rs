//! The OLAP engine facade: engine-local storage, worker manager, executor and
//! cost model.
//!
//! The engine's storage manager "considers that data are stored in the
//! main-memory of a single server ... it accepts as input a pointer to the
//! memory areas where the data are stored at execution time, and it does not
//! load any data beforehand" (§3.3). Concretely, [`OlapStore`] holds the
//! engine's own columnar instance (filled by the RDE engine's ETL), and a
//! query is executed over whatever [`ScanSource`]s the RDE engine / scheduler
//! wires up — OLAP-local, OLTP snapshot, or split access.

use crate::dag::QueryPlan;
use crate::error::OlapError;
use crate::exec::{QueryExecutor, QueryOutput};
use crate::source::ScanSource;
use crate::worker::OlapWorkerManager;
use htap_sim::{CostModel, CpuSet, ScanCost, SocketId, Topology, TxnWork};
use htap_storage::{ColumnarTable, RowId, TableSchema, TableSnapshot, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One relation of the OLAP engine's own instance.
#[derive(Debug)]
pub struct OlapTable {
    table: Arc<ColumnarTable>,
    /// Rows of the table that are loaded and queryable.
    rows: AtomicU64,
    /// Epoch of the OLTP snapshot the table was last synchronised with.
    synced_epoch: AtomicU64,
}

impl OlapTable {
    fn new(schema: TableSchema) -> Self {
        OlapTable {
            table: Arc::new(ColumnarTable::new(schema)),
            rows: AtomicU64::new(0),
            synced_epoch: AtomicU64::new(0),
        }
    }

    /// The underlying columnar instance.
    pub fn table(&self) -> &Arc<ColumnarTable> {
        &self.table
    }

    /// Queryable rows.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Acquire)
    }

    /// Epoch of the last synchronisation.
    pub fn synced_epoch(&self) -> u64 {
        self.synced_epoch.load(Ordering::Acquire)
    }
}

/// The OLAP engine's private storage (decoupled-storage side of the design).
#[derive(Debug)]
pub struct OlapStore {
    tables: RwLock<BTreeMap<String, Arc<OlapTable>>>,
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
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<OlapTable>, String> {
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(format!(
                "table {} already exists in OLAP store",
                schema.name
            ));
        }
        let table = Arc::new(OlapTable::new(schema.clone()));
        tables.insert(schema.name.clone(), Arc::clone(&table));
        Ok(table)
    }

    /// Look up a relation.
    pub fn table(&self, name: &str) -> Option<Arc<OlapTable>> {
        self.tables.read().get(name).cloned()
    }

    /// Names of all relations.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Total queryable bytes of the OLAP instance.
    pub fn bytes(&self) -> u64 {
        self.tables
            .read()
            .values()
            .map(|t| t.rows() * t.table.schema().row_width_bytes())
            .sum()
    }

    /// Apply an ETL delta from an OLTP snapshot: copy the updated rows and
    /// the inserted row range, then advance the watermark and epoch.
    /// Returns the number of rows copied.
    pub fn apply_delta(
        &self,
        snapshot: &TableSnapshot,
        updated_rows: &[RowId],
        inserted: std::ops::Range<u64>,
    ) -> u64 {
        let table = match self.table(snapshot.name()) {
            Some(t) => t,
            None => return 0,
        };
        let mut copied = 0u64;
        for &row in updated_rows {
            table.table.copy_row_from(snapshot.table(), row);
            copied += 1;
        }
        for row in inserted.clone() {
            table.table.copy_row_from(snapshot.table(), row);
            copied += 1;
        }
        let new_rows = inserted.end.max(table.rows.load(Ordering::Acquire));
        table.rows.store(new_rows, Ordering::Release);
        table
            .synced_epoch
            .store(snapshot.epoch(), Ordering::Release);
        copied
    }

    /// A contiguous scan source over the local instance of `name`.
    pub fn local_source(&self, name: &str) -> Option<ScanSource> {
        self.table(name).map(|t| {
            ScanSource::contiguous_olap(name, Arc::clone(t.table()), t.rows(), self.socket)
        })
    }

    /// Read one value from the local instance (tests / verification).
    pub fn get_value(&self, name: &str, row: RowId, column: usize) -> Option<Value> {
        self.table(name).and_then(|t| {
            if row < t.rows() {
                t.table().get_value(row, column)
            } else {
                None
            }
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
    workers: OlapWorkerManager,
    executor: QueryExecutor,
    cost_model: CostModel,
}

impl OlapEngine {
    /// Create an engine whose local instance lives on `home_socket`.
    pub fn new(topology: Topology, home_socket: SocketId) -> Self {
        OlapEngine {
            store: OlapStore::new(home_socket),
            workers: OlapWorkerManager::new(topology.clone()),
            executor: QueryExecutor::default(),
            cost_model: CostModel::new(topology),
        }
    }

    /// The engine's private storage.
    pub fn store(&self) -> &OlapStore {
        &self.store
    }

    /// The engine's worker manager.
    pub fn workers(&self) -> &OlapWorkerManager {
        &self.workers
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Grant compute resources (called by the RDE engine).
    pub fn set_workers(&self, cores: CpuSet) {
        self.workers.set_workers(cores);
    }

    /// Execute a query over the provided access paths and model its execution
    /// time, optionally accounting for a concurrent transactional workload.
    ///
    /// Execution is morsel-driven and parallel: the worker team — one
    /// pipeline worker per core the RDE engine has granted — claims morsels
    /// of the scan, so elastic grants change the measured wall-clock time of
    /// the query, not just the modelled one. With no cores granted the query
    /// still runs, on a single unpinned worker.
    pub fn run_query(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
        concurrent_txn: Option<&TxnWork>,
    ) -> Result<QueryExecution, OlapError> {
        let team = self.workers.team();
        let output = self.executor.execute_parallel(plan, sources, &team)?;
        let placement = self.workers.placement();
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
    use htap_storage::{ColumnDef, DataType, TwinTable};

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
        e.set_workers(CpuSet::socket(&topo, SocketId(1)));
        e
    }

    /// Unfiltered scalar aggregation over `sales`.
    fn sales_plan(aggregates: Vec<AggExpr>) -> QueryPlan {
        let mut b = crate::dag::DagBuilder::default();
        let scan = b.scan("sales");
        b.aggregate(scan, None, aggregates);
        b.finish().unwrap()
    }

    fn twin_with_rows(n: u64) -> TwinTable {
        let twin = TwinTable::new(schema());
        for i in 0..n {
            twin.insert(&[Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        twin.switch_active();
        twin
    }

    #[test]
    fn olap_store_applies_etl_deltas() {
        let e = engine();
        e.store().create_table(schema()).unwrap();
        assert!(e.store().create_table(schema()).is_err());
        assert_eq!(e.store().table_names(), vec!["sales".to_string()]);

        let twin = twin_with_rows(10);
        let snap = twin.snapshot();
        let (updated, inserted) = twin.olap_delta();
        let copied = e.store().apply_delta(&snap, &updated, inserted);
        assert_eq!(copied, 10);
        assert_eq!(e.store().table("sales").unwrap().rows(), 10);
        assert_eq!(e.store().bytes(), 10 * 16);
        assert_eq!(e.store().get_value("sales", 3, 1), Some(Value::F64(3.0)));
        assert_eq!(e.store().get_value("sales", 30, 1), None);

        // A second delta with an update flows through as well.
        twin.mark_olap_synced();
        twin.update(2, 1, &Value::F64(222.0)).unwrap();
        twin.insert(&[Value::I64(10), Value::F64(10.0)]).unwrap();
        twin.switch_active();
        let snap = twin.snapshot();
        let (updated, inserted) = twin.olap_delta();
        let copied = e.store().apply_delta(&snap, &updated, inserted);
        assert_eq!(copied, 2);
        assert_eq!(e.store().get_value("sales", 2, 1), Some(Value::F64(222.0)));
        assert_eq!(e.store().table("sales").unwrap().rows(), 11);
        assert_eq!(e.store().table("sales").unwrap().synced_epoch(), 2);
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
        let (updated, inserted) = twin.olap_delta();
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
        let (updated, inserted) = twin.olap_delta();
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
