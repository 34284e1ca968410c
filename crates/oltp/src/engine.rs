//! The OLTP engine facade: storage manager + transaction manager + worker
//! manager, plus the hooks the RDE engine drives (§3.2, §3.4).

use crate::durability::DurabilityController;
use crate::locks::LockKey;
use crate::txn::{Transaction, TxnManager};
use crate::worker::WorkerManager;
use htap_durability::DurabilityError;
use htap_storage::{
    CuckooIndex, DeltaStorage, RecordLocation, StorageError, SyncOutcome, TableSchema, TwinTable,
    Value,
};
use parking_lot::RwLock;
use std::sync::Arc;

/// Per-relation runtime state owned by the OLTP engine: the twin columnar
/// instances, the MVCC delta storage and the primary-key cuckoo index.
#[derive(Debug)]
pub struct TableRuntime {
    twin: TwinTable,
    delta: DeltaStorage,
    index: CuckooIndex<RecordLocation>,
    lock_tag: u64,
}

impl TableRuntime {
    /// The runtime of a new, empty relation whose lock keys carry
    /// `lock_tag` (its creation index in [`TxnManager::create_table`]).
    pub(crate) fn new(schema: TableSchema, lock_tag: u64) -> Self {
        TableRuntime {
            twin: TwinTable::new(schema),
            delta: DeltaStorage::new(),
            index: CuckooIndex::with_capacity(1 << 16),
            lock_tag,
        }
    }

    /// The lock key of `record` (a row id, or an encoded key) of this
    /// relation. The relation's part of it is its creation index in the
    /// engine's registry: the lock table never looks at the relation's name.
    pub fn lock_key(&self, record: u64) -> LockKey {
        LockKey::new(self.lock_tag, record)
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.twin.schema().name
    }

    /// The twin-instance storage of the relation.
    pub fn twin(&self) -> &TwinTable {
        &self.twin
    }

    /// The MVCC delta storage of the relation.
    pub fn delta(&self) -> &DeltaStorage {
        &self.delta
    }

    /// The primary-key index of the relation.
    pub fn index(&self) -> &CuckooIndex<RecordLocation> {
        &self.index
    }
}

/// The in-memory OLTP engine.
///
/// The engine is deliberately thin: it wires the transaction manager (which
/// holds every relation's [`TableRuntime`]) and the worker manager together
/// and exposes the operations the RDE engine needs — switching the active
/// instance and synchronising the twins in one step, and reporting fresh-data
/// statistics — without interfering with the design of either component.
#[derive(Debug)]
pub struct OltpEngine {
    txn_manager: TxnManager,
    worker_manager: WorkerManager,
    /// Switch gate: transactions hold a read lock while executing; an
    /// instance switch takes the write lock, which gives the quiescence point
    /// the storage manager requires ("when no active OLTP worker thread is
    /// using it any more", §3.2).
    switch_gate: RwLock<()>,
}

impl Default for OltpEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OltpEngine {
    /// Create an engine with an empty database.
    pub fn new() -> Self {
        OltpEngine {
            txn_manager: TxnManager::new(),
            worker_manager: WorkerManager::new(),
            switch_gate: RwLock::new(()),
        }
    }

    /// Enable durability: commits start appending to the controller's WAL
    /// (group-committed, durable before apply) and instance switches
    /// periodically checkpoint the store, inside the switch quiescence
    /// window (see [`Self::switch_and_sync_instances`]).
    pub fn attach_durability(&self, controller: Arc<DurabilityController>) {
        self.txn_manager.attach_durability(controller);
    }

    /// The attached durability controller, if any.
    pub fn durability(&self) -> Option<Arc<DurabilityController>> {
        self.txn_manager.durability()
    }

    /// Take a checkpoint immediately, inside its own quiescence window
    /// (blocks until in-flight transactions drain). Returns `Ok(false)` when
    /// no durability controller is attached.
    pub fn checkpoint_now(&self) -> Result<bool, DurabilityError> {
        let _guard = self.switch_gate.write();
        self.collect_versions();
        match self.durability() {
            Some(ctl) => ctl.checkpoint_quiesced(self).map(|()| true),
            None => Ok(false),
        }
    }

    /// Drop every saved version of every relation's delta storage. Only
    /// called with the switch gate held for writing: no transaction run
    /// through [`Self::execute`] is in flight, so no snapshot older than
    /// `now` exists and every saved version (all end at or before `now`) is
    /// invisible to every future reader.
    fn collect_versions(&self) {
        let now = self.txn_manager.now();
        for rt in self.tables() {
            rt.delta().gc(now);
        }
    }

    /// The transaction manager.
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txn_manager
    }

    /// The worker manager.
    pub fn worker_manager(&self) -> &WorkerManager {
        &self.worker_manager
    }

    /// Create a relation (see [`TxnManager::create_table`]).
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<TableRuntime>, StorageError> {
        self.txn_manager.create_table(schema)
    }

    /// Look up a relation runtime.
    pub fn table(&self, name: &str) -> Option<Arc<TableRuntime>> {
        self.txn_manager.table(name)
    }

    /// All relation runtimes, in name order.
    pub fn tables(&self) -> Vec<Arc<TableRuntime>> {
        self.txn_manager.tables()
    }

    /// Names of all relations.
    pub fn table_names(&self) -> Vec<String> {
        self.txn_manager.table_names()
    }

    /// Begin an interactive transaction outside the switch gate. Such a
    /// transaction must not span an instance switch: the switch's sync copy
    /// may overwrite what it reads, and the version collection in the same
    /// window drops the old versions its snapshot would need. Use
    /// [`Self::execute`] whenever a switch can run concurrently.
    pub fn begin(&self) -> Transaction<'_> {
        self.txn_manager.begin()
    }

    /// Execute a transaction body under the switch gate. The closure receives
    /// a fresh transaction and must either commit or abort it (returning the
    /// closure's result). Worker threads use this entry point so that instance
    /// switches observe a quiesced engine.
    pub fn execute<R>(&self, body: impl FnOnce(Transaction<'_>) -> R) -> R {
        let _guard = self.switch_gate.read();
        body(self.txn_manager.begin())
    }

    /// Bulk-load a row into a relation outside of any transaction (initial
    /// database population). The index is updated under the row's key cell
    /// and both twin instances receive the row; update bits are not touched.
    pub fn bulk_load(&self, table: &str, values: Vec<Value>) -> Result<u64, StorageError> {
        let rt = self
            .table(table)
            .ok_or_else(|| StorageError::TableMissing {
                table: table.to_string(),
            })?;
        let key = rt.twin().schema().key_of(&values)?;
        let row = rt
            .twin()
            .insert_rows_unchecked(std::iter::once(&values[..]))
            .start;
        rt.index().insert(key, RecordLocation::new(row));
        Ok(row)
    }

    /// Switch the active instance of every relation *and* synchronise the new
    /// active instance from the snapshot, inside one quiescence window: the
    /// switch gate is held across both steps so no transaction can execute
    /// against the un-synced active instance — it would read pre-switch
    /// values (e.g. a stale district order counter) or have its committed
    /// writes overwritten by the sync copy. With [`Self::checkpoint_now`] it
    /// is the only writer of the gate; the window also carries the periodic
    /// checkpoint and the collection of saved versions. Returns the
    /// synchronisation totals over all relations.
    pub fn switch_and_sync_instances(&self) -> SyncOutcome {
        let _guard = self.switch_gate.write();
        let mut synced = SyncOutcome::default();
        for rt in self.tables() {
            let outcome = rt.twin().switch_and_sync();
            synced.copied_records += outcome.copied_records;
            synced.copied_bytes += outcome.copied_bytes;
        }
        // Checkpoints piggyback on the quiescence window the switch already
        // paid for: the twins are synced and no transaction is in flight.
        if let Some(ctl) = self.durability() {
            ctl.note_switch(self);
        }
        self.collect_versions();
        synced
    }

    /// `of_table` summed over all relations.
    fn sum_over_tables(&self, of_table: fn(&TwinTable) -> u64) -> u64 {
        self.tables().iter().map(|rt| of_table(rt.twin())).sum()
    }

    /// Total fresh rows (inserted or updated since the last propagation to the
    /// OLAP instance), across all relations.
    pub fn fresh_rows_vs_olap(&self) -> u64 {
        self.sum_over_tables(TwinTable::fresh_rows_vs_olap)
    }

    /// Total rows across all relations.
    pub fn total_rows(&self) -> u64 {
        self.sum_over_tables(TwinTable::row_count)
    }

    /// Size in bytes of one instance of the database.
    pub fn instance_bytes(&self) -> u64 {
        self.sum_over_tables(TwinTable::instance_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_storage::{ColumnDef, DataType};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("qty", DataType::I32),
            ],
            Some(0),
        )
    }

    #[test]
    fn create_table_and_transact() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert_eq!(engine.table_names(), vec!["stock".to_string()]);
        assert!(engine.table("stock").is_some());
        assert!(engine.create_table(schema("stock")).is_err());

        let committed = engine.execute(|mut txn| {
            txn.insert("stock", vec![Value::I64(1), Value::I32(5)])
                .unwrap();
            txn.commit().is_ok()
        });
        assert!(committed);
        assert_eq!(engine.total_rows(), 1);
        assert_eq!(engine.begin().read("stock", 1, 1).unwrap(), Value::I32(5));
    }

    #[test]
    fn one_registry_lists_totals_and_switches_its_relations() {
        let accounts = TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("balance", DataType::F64),
            ],
            Some(0),
        );
        let engine = OltpEngine::new();
        engine.create_table(accounts.clone()).unwrap();
        assert!(engine.create_table(accounts).is_err());
        assert_eq!(engine.table_names(), vec!["accounts".to_string()]);
        assert!(engine.table("accounts").is_some());
        assert!(engine.table("missing").is_none());

        engine
            .bulk_load("accounts", vec![Value::I64(1), Value::F64(10.0)])
            .unwrap();
        assert_eq!(engine.total_rows(), 1);
        assert_eq!(engine.instance_bytes(), 16);
        assert_eq!(engine.switch_and_sync_instances(), SyncOutcome::default());
        assert_eq!(engine.fresh_rows_vs_olap(), 1);
    }

    #[test]
    fn duplicate_create_table_keeps_the_first_runtime() {
        let engine = OltpEngine::new();
        let first = engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", vec![Value::I64(1), Value::I32(10)])
            .unwrap();
        assert_eq!(
            engine.create_table(schema("stock")).unwrap_err(),
            StorageError::TableExists {
                table: "stock".into()
            }
        );
        let kept = engine.table("stock").unwrap();
        assert!(Arc::ptr_eq(&first, &kept));
        assert_eq!(engine.tables().len(), 1);
        assert_eq!(kept.twin().row_count(), 1);
        engine.execute(|mut txn| {
            txn.update("stock", 1, 1, Value::I32(11)).unwrap();
            txn.insert("stock", vec![Value::I64(2), Value::I32(20)])
                .unwrap();
            txn.commit().unwrap();
        });
        let t = engine.begin();
        assert_eq!(t.read("stock", 1, 1).unwrap(), Value::I32(11));
        assert_eq!(t.read("stock", 2, 1).unwrap(), Value::I32(20));
        assert_eq!(first.index().len(), 2);
    }

    #[test]
    fn lock_keys_are_engine_local_and_deterministic() {
        let names = ["warehouse", "district", "stock"];
        let engines = [OltpEngine::new(), OltpEngine::new()];
        for engine in &engines {
            for name in names {
                engine.create_table(schema(name)).unwrap();
            }
        }
        for name in names {
            let [a, b] = engines.each_ref().map(|e| e.table(name).unwrap());
            for record in [0, 7, u64::MAX] {
                assert_eq!(a.lock_key(record), b.lock_key(record), "{name}");
            }
        }
        let tables = engines[0].tables();
        for (i, a) in tables.iter().enumerate() {
            for b in &tables[i + 1..] {
                for record in [0, 7, u64::MAX] {
                    assert_ne!(a.lock_key(record), b.lock_key(record));
                }
            }
        }
    }

    #[test]
    fn bulk_load_populates_both_instances_and_index() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        for k in 0..100u64 {
            engine
                .bulk_load("stock", vec![Value::I64(k as i64), Value::I32(1)])
                .unwrap();
        }
        assert_eq!(engine.total_rows(), 100);
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.index().len(), 100);
        assert_eq!(rt.twin().instance(0).row_count(), 100);
        assert_eq!(rt.twin().instance(1).row_count(), 100);
        assert!(engine.bulk_load("missing", vec![]).is_err());
    }

    #[test]
    fn switch_and_snapshot_expose_committed_data() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", vec![Value::I64(1), Value::I32(10)])
            .unwrap();
        engine.execute(|mut txn| {
            txn.update("stock", 1, 1, Value::I32(42)).unwrap();
            txn.commit().unwrap();
        });

        let sync = engine.switch_and_sync_instances();
        let stock = engine.table("stock").unwrap().twin().snapshot();
        assert_eq!(stock.rows(), 1);
        assert_eq!(stock.table().get_value(0, 1), Some(Value::I32(42)));

        assert_eq!(sync.copied_records, 1);
        // After sync both instances agree.
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.twin().get_from(0, 0, 1), Some(Value::I32(42)));
        assert_eq!(rt.twin().get_from(1, 0, 1), Some(Value::I32(42)));
    }

    #[test]
    fn fresh_row_accounting_spans_tables() {
        let engine = OltpEngine::new();
        engine.create_table(schema("a")).unwrap();
        engine.create_table(schema("b")).unwrap();
        engine
            .bulk_load("a", vec![Value::I64(1), Value::I32(1)])
            .unwrap();
        engine
            .bulk_load("b", vec![Value::I64(1), Value::I32(1)])
            .unwrap();
        engine.switch_and_sync_instances();
        assert_eq!(engine.fresh_rows_vs_olap(), 2);
        assert!(engine.instance_bytes() > 0);
    }

    #[test]
    fn switch_and_sync_instances_is_one_quiescence_window() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", vec![Value::I64(1), Value::I32(10)])
            .unwrap();
        engine.execute(|mut txn| {
            txn.update("stock", 1, 1, Value::I32(42)).unwrap();
            txn.commit().unwrap();
        });
        let synced = engine.switch_and_sync_instances();
        assert_eq!(synced.copied_records, 1);
        assert_eq!(synced.copied_bytes, 12, "one record at the row width");
        // Both instances agree immediately after the combined step — no
        // transaction can ever observe the in-between state.
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.twin().get_from(0, 0, 1), Some(Value::I32(42)));
        assert_eq!(rt.twin().get_from(1, 0, 1), Some(Value::I32(42)));
    }

    /// Overwrite `qty` of stock row 1 `times` times, one commit each.
    fn overwrite_hot_row(engine: &OltpEngine, times: i32) {
        for v in 0..times {
            engine.execute(|mut txn| {
                txn.update("stock", 1, 1, Value::I32(v)).unwrap();
                txn.commit().unwrap();
            });
        }
    }

    #[test]
    fn one_switch_collects_every_saved_version() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", vec![Value::I64(1), Value::I32(0)])
            .unwrap();
        overwrite_hot_row(&engine, 1000);
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.delta().version_count(), 1000);
        engine.switch_and_sync_instances();
        assert_eq!(rt.delta().version_count(), 0);
        assert_eq!(rt.delta().versioned_rows(), 0);
        // The latest value is untouched, and commits keep working.
        assert_eq!(engine.begin().read("stock", 1, 1).unwrap(), Value::I32(999));
        overwrite_hot_row(&engine, 1);
        // An explicit checkpoint window collects too (no controller needed).
        assert!(!engine.checkpoint_now().unwrap());
        assert_eq!(rt.delta().version_count(), 0);
    }

    #[test]
    fn version_chains_stay_bounded_across_switch_cycles() {
        // The hot row's chain is what commit validation walks: its length at
        // commit time must depend on the overwrites since the last switch,
        // never on how long the engine has been running.
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", vec![Value::I64(1), Value::I32(0)])
            .unwrap();
        let rt = engine.table("stock").unwrap();
        for cycle in 0..200 {
            overwrite_hot_row(&engine, 25);
            assert_eq!(rt.delta().version_count(), 25, "cycle {cycle}");
            engine.switch_and_sync_instances();
            assert_eq!(rt.delta().version_count(), 0, "cycle {cycle}");
        }
    }

    #[test]
    fn switch_waits_for_inflight_transactions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let engine = Arc::new(OltpEngine::new());
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", vec![Value::I64(1), Value::I32(0)])
            .unwrap();

        let in_txn = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let worker = {
            let engine = Arc::clone(&engine);
            let in_txn = Arc::clone(&in_txn);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                engine.execute(|mut txn| {
                    txn.update("stock", 1, 1, Value::I32(7)).unwrap();
                    in_txn.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    txn.commit().unwrap();
                });
            })
        };
        while !in_txn.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // The switch must block until the worker commits; verify by running it
        // on another thread and checking it has not finished while the
        // transaction is still open.
        let switcher = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.switch_and_sync_instances())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !switcher.is_finished(),
            "switch must wait for the open transaction"
        );
        release.store(true, Ordering::SeqCst);
        worker.join().unwrap();
        let synced = switcher.join().unwrap();
        // The committed update is part of the snapshot.
        assert_eq!(synced.copied_records, 1);
        let snap = engine.table("stock").unwrap().twin().snapshot();
        assert_eq!(snap.table().get_value(0, 1), Some(Value::I32(7)));
    }
}
