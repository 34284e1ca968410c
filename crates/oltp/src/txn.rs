//! Transaction manager: MV2PL with NO-WAIT deadlock avoidance and
//! snapshot-isolation reads (§3.2).
//!
//! * **Writes** take exclusive record locks at declaration time and are
//!   buffered; they are applied to the *active* twin instance at commit, and
//!   the overwritten value is pushed to the delta storage so that concurrent
//!   snapshot readers can still reach it (newest-to-oldest traversal).
//! * **Reads** do not lock: they return the value visible at the
//!   transaction's start timestamp by consulting the delta chains first and
//!   falling back to the live value.
//! * **Conflicts**: a lock that cannot be granted immediately aborts the
//!   transaction (NO-WAIT); at commit, a first-committer-wins check aborts
//!   transactions whose write targets were overwritten after their snapshot.

use crate::engine::TableRuntime;
use crate::locks::{LockKey, LockMode, LockTable};
use htap_durability::{DurabilityError, Wal, WalOp, WalRecord};
use htap_storage::{RecordLocation, StorageError, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Transaction identifier.
pub type TxnId = u64;

/// Errors a transaction can encounter. All of them abort the transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A record lock could not be acquired immediately (NO-WAIT).
    LockConflict,
    /// First-committer-wins check failed: the record was overwritten by a
    /// transaction that committed after this transaction's snapshot.
    WriteConflict,
    /// Insert of a primary key that already exists.
    DuplicateKey(u64),
    /// The requested key does not exist (or is not yet visible to the snapshot).
    KeyNotFound(u64),
    /// The requested relation is not registered with the engine.
    TableMissing(String),
    /// The transaction has already committed or aborted.
    AlreadyFinished,
    /// A storage-level error (schema violation etc.).
    Storage(StorageError),
    /// The commit record could not be made durable; the transaction aborted
    /// without applying any of its writes, so live state stays identical to
    /// the durable state.
    Durability(DurabilityError),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::LockConflict => write!(f, "lock conflict (NO-WAIT abort)"),
            TxnError::WriteConflict => write!(f, "write-write conflict (first committer wins)"),
            TxnError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            TxnError::KeyNotFound(k) => write!(f, "key {k} not found"),
            TxnError::TableMissing(t) => write!(f, "table {t} not registered"),
            TxnError::AlreadyFinished => write!(f, "transaction already finished"),
            TxnError::Storage(e) => write!(f, "storage error: {e}"),
            TxnError::Durability(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Outcome of a finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed at the given timestamp.
    Committed(u64),
    /// The transaction aborted.
    Aborted,
}

#[derive(Debug)]
struct PendingUpdate {
    table: Arc<TableRuntime>,
    key: u64,
    row: u64,
    column: usize,
    value: Value,
}

#[derive(Debug)]
struct PendingInsert {
    table: Arc<TableRuntime>,
    key: u64,
    values: Vec<Value>,
}

/// The transaction manager: timestamp authority, lock table and the engine's
/// one registry of table runtimes.
#[derive(Debug)]
pub struct TxnManager {
    tables: RwLock<BTreeMap<String, Arc<TableRuntime>>>,
    locks: LockTable,
    clock: AtomicU64,
    next_txn_id: AtomicU64,
    /// Write-ahead log, when durability is enabled. Commits append their
    /// record and wait for the group-commit fsync *before* applying writes.
    wal: RwLock<Option<Wal>>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// New transaction manager with no registered tables.
    pub fn new() -> Self {
        TxnManager {
            tables: RwLock::new(BTreeMap::new()),
            locks: LockTable::default(),
            clock: AtomicU64::new(1),
            next_txn_id: AtomicU64::new(1),
            wal: RwLock::new(None),
        }
    }

    /// Enable write-ahead logging: every subsequent commit appends its record
    /// and blocks until the group-commit coordinator reports it durable.
    pub fn attach_wal(&self, wal: Wal) {
        *self.wal.write() = Some(wal);
    }

    /// Clone of the attached WAL handle, if any. The guard is dropped before
    /// any I/O happens so the lock is never held across an fsync.
    pub fn wal_handle(&self) -> Option<Wal> {
        self.wal.read().clone()
    }

    /// Advance the logical clock to at least `ts` (used by recovery so that
    /// new transactions see replayed commits as in the past).
    pub fn advance_clock(&self, ts: u64) {
        self.clock.fetch_max(ts, Ordering::AcqRel);
    }

    /// Register a table runtime so transactions can address it by name.
    pub fn register_table(&self, runtime: Arc<TableRuntime>) {
        self.tables
            .write()
            .insert(runtime.name().to_string(), runtime);
    }

    /// Look up a registered table runtime.
    pub fn table(&self, name: &str) -> Option<Arc<TableRuntime>> {
        self.tables.read().get(name).cloned()
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// All registered table runtimes, in name order.
    pub fn tables(&self) -> Vec<Arc<TableRuntime>> {
        self.tables.read().values().cloned().collect()
    }

    /// Current logical time (the timestamp the next snapshot will observe).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    fn next_ts(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Begin a new transaction with a snapshot at the current logical time.
    pub fn begin(&self) -> Transaction<'_> {
        Transaction {
            mgr: self,
            id: self.next_txn_id.fetch_add(1, Ordering::AcqRel),
            start_ts: self.now(),
            locks: Vec::new(),
            updates: Vec::new(),
            inserts: Vec::new(),
            finished: false,
        }
    }
}

/// An in-flight transaction. Dropping an unfinished transaction aborts it.
#[derive(Debug)]
pub struct Transaction<'a> {
    mgr: &'a TxnManager,
    id: TxnId,
    start_ts: u64,
    locks: Vec<LockKey>,
    updates: Vec<PendingUpdate>,
    inserts: Vec<PendingInsert>,
    finished: bool,
}

impl<'a> Transaction<'a> {
    /// The transaction identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp.
    pub fn start_ts(&self) -> u64 {
        self.start_ts
    }

    fn runtime(&self, table: &str) -> Result<Arc<TableRuntime>, TxnError> {
        self.mgr
            .table(table)
            .ok_or_else(|| TxnError::TableMissing(table.to_string()))
    }

    fn check_active(&self) -> Result<(), TxnError> {
        if self.finished {
            Err(TxnError::AlreadyFinished)
        } else {
            Ok(())
        }
    }

    /// Snapshot read of one attribute of the record with primary key `key`.
    pub fn read(&self, table: &str, key: u64, column: usize) -> Result<Value, TxnError> {
        self.check_active()?;
        let rt = self.runtime(table)?;

        // Read-your-own-writes.
        if let Some(ins) = self
            .inserts
            .iter()
            .rev()
            .find(|i| i.key == key && Arc::ptr_eq(&i.table, &rt))
        {
            return Ok(ins.values[column].clone());
        }
        let loc = rt.index().get(key).ok_or(TxnError::KeyNotFound(key))?;
        if let Some(upd) = self
            .updates
            .iter()
            .rev()
            .find(|u| u.row == loc.row && u.column == column && Arc::ptr_eq(&u.table, &rt))
        {
            return Ok(upd.value.clone());
        }

        // Records inserted after our snapshot are invisible.
        if loc.epoch > self.start_ts {
            return Err(TxnError::KeyNotFound(key));
        }
        // Snapshot-visible version: delta chain first, live value otherwise.
        if let Some(old) = rt.delta().visible_version(loc.row, column, self.start_ts) {
            return Ok(old);
        }
        rt.twin()
            .get(loc.row, column)
            .ok_or(TxnError::KeyNotFound(key))
    }

    /// Read the *latest committed* value, acquiring an exclusive lock on the
    /// record (read-for-update). Use before an [`Self::update`] that depends
    /// on the current value.
    pub fn read_for_update(
        &mut self,
        table: &str,
        key: u64,
        column: usize,
    ) -> Result<Value, TxnError> {
        self.check_active()?;
        let rt = self.runtime(table)?;
        let loc = rt.index().get(key).ok_or(TxnError::KeyNotFound(key))?;
        self.acquire(LockKey::new(table, loc.row), LockMode::Exclusive)?;
        if let Some(upd) = self
            .updates
            .iter()
            .rev()
            .find(|u| u.row == loc.row && u.column == column && Arc::ptr_eq(&u.table, &rt))
        {
            return Ok(upd.value.clone());
        }
        rt.twin()
            .get(loc.row, column)
            .ok_or(TxnError::KeyNotFound(key))
    }

    fn acquire(&mut self, key: LockKey, mode: LockMode) -> Result<(), TxnError> {
        if self.mgr.locks.try_acquire(self.id, key, mode) {
            self.locks.push(key);
            Ok(())
        } else {
            Err(TxnError::LockConflict)
        }
    }

    /// Declare an update of one attribute of the record with primary key `key`.
    /// Takes an exclusive lock; the write is applied at commit.
    pub fn update(
        &mut self,
        table: &str,
        key: u64,
        column: usize,
        value: Value,
    ) -> Result<(), TxnError> {
        self.check_active()?;
        let rt = self.runtime(table)?;
        let loc = rt.index().get(key).ok_or(TxnError::KeyNotFound(key))?;
        self.acquire(LockKey::new(table, loc.row), LockMode::Exclusive)?;
        self.updates.push(PendingUpdate {
            table: rt,
            key,
            row: loc.row,
            column,
            value,
        });
        Ok(())
    }

    /// Declare an insert of a new record with primary key `key`.
    /// The row is appended to both twin instances at commit.
    pub fn insert(&mut self, table: &str, key: u64, values: Vec<Value>) -> Result<(), TxnError> {
        self.check_active()?;
        let rt = self.runtime(table)?;
        // Lock the key space entry to serialise concurrent inserts of the same key.
        self.acquire(
            LockKey::new(table, key ^ 0x8000_0000_0000_0000),
            LockMode::Exclusive,
        )?;
        if rt.index().contains(key)
            || self
                .inserts
                .iter()
                .any(|i| i.key == key && Arc::ptr_eq(&i.table, &rt))
        {
            return Err(TxnError::DuplicateKey(key));
        }
        self.inserts.push(PendingInsert {
            table: rt,
            key,
            values,
        });
        Ok(())
    }

    /// Number of buffered writes (updates + inserts).
    pub fn write_count(&self) -> usize {
        self.updates.len() + self.inserts.len()
    }

    /// Commit the transaction: run the first-committer-wins validation, apply
    /// buffered writes to the active instance, push overwritten values to the
    /// delta storage, publish inserts to the index, and release all locks.
    pub fn commit(mut self) -> Result<u64, TxnError> {
        self.check_active()?;

        // Phase timing for the TxnCommit ring event (lock-validate /
        // WAL-wait / apply). One enabled check per commit; with tracing off
        // the clock is never read. No allocation either way — the phases are
        // bit-packed into one event word and re-inflated at trace export.
        let on = htap_obs::enabled();
        let t_lock = if on { htap_obs::now_us() } else { 0 };

        // Validation: any record we are about to overwrite must not have been
        // overwritten by a transaction that committed after our snapshot.
        for upd in &self.updates {
            if upd
                .table
                .delta()
                .visible_version(upd.row, upd.column, self.start_ts)
                .is_some()
            {
                self.finish_abort();
                return Err(TxnError::WriteConflict);
            }
        }

        let commit_ts = self.mgr.next_ts();
        let t_wal = if on { htap_obs::now_us() } else { 0 };

        // WAL-before-apply: the commit record must be durable before any
        // write touches the live store. On failure the transaction aborts
        // having applied nothing, so live committed state never diverges
        // from durable state. The record locks held across the append keep
        // WAL order consistent with apply order for conflicting keys.
        if self.write_count() > 0 {
            if let Some(wal) = self.mgr.wal_handle() {
                let mut ops = Vec::with_capacity(self.write_count());
                // Updates first, then inserts — the same order apply uses.
                for upd in &self.updates {
                    ops.push(WalOp::Update {
                        table: upd.table.name().to_string(),
                        key: upd.key,
                        column: upd.column as u32,
                        value: upd.value.clone(),
                    });
                }
                for ins in &self.inserts {
                    ops.push(WalOp::Insert {
                        table: ins.table.name().to_string(),
                        key: ins.key,
                        values: ins.values.clone(),
                    });
                }
                let record = WalRecord {
                    txn_id: self.id,
                    commit_ts,
                    ops,
                };
                if let Err(e) = wal.append_commit(&record) {
                    self.finish_abort();
                    return Err(TxnError::Durability(e));
                }
            }
        }

        let t_apply = if on { htap_obs::now_us() } else { 0 };
        for upd in &self.updates {
            let old = upd
                .table
                .twin()
                .update(upd.row, upd.column, &upd.value)
                .map_err(TxnError::Storage)?;
            // The overwritten value stays visible to snapshots older than this commit.
            upd.table
                .delta()
                .push_version(upd.row, upd.column, old, 0, commit_ts);
            // The index keeps pointing at the freshest instance.
            let active = upd.table.twin().active_instance() as u8;
            upd.table
                .index()
                .update(upd.key, |loc: &mut RecordLocation| {
                    loc.instance = active;
                });
        }

        for ins in &self.inserts {
            let row = ins
                .table
                .twin()
                .insert(&ins.values)
                .map_err(TxnError::Storage)?;
            let active = ins.table.twin().active_instance() as u8;
            let mut loc = RecordLocation::new(row, active);
            loc.epoch = commit_ts;
            ins.table.index().insert(ins.key, loc);
        }

        self.mgr.locks.release_all(self.id, &self.locks);
        self.finished = true;
        if on {
            let t_end = htap_obs::now_us();
            htap_obs::record_thread(
                htap_obs::EventKind::TxnCommit,
                t_lock,
                self.write_count() as u64,
                htap_obs::pack_phases(
                    t_wal.saturating_sub(t_lock),
                    t_apply.saturating_sub(t_wal),
                    t_end.saturating_sub(t_apply),
                ),
            );
        }
        Ok(commit_ts)
    }

    /// Abort the transaction, discarding buffered writes and releasing locks.
    pub fn abort(mut self) {
        if !self.finished {
            self.finish_abort();
        }
    }

    fn finish_abort(&mut self) {
        self.mgr.locks.release_all(self.id, &self.locks);
        self.finished = true;
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish_abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TableRuntime;
    use htap_storage::{ColumnDef, DataType, TableSchema};

    fn account_runtime() -> Arc<TableRuntime> {
        let schema = TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("balance", DataType::F64),
            ],
            Some(0),
        );
        Arc::new(TableRuntime::new(schema))
    }

    fn manager_with_accounts() -> TxnManager {
        let mgr = TxnManager::new();
        mgr.register_table(account_runtime());
        mgr
    }

    fn seed_account(mgr: &TxnManager, key: u64, balance: f64) {
        let mut t = mgr.begin();
        t.insert(
            "accounts",
            key,
            vec![Value::I64(key as i64), Value::F64(balance)],
        )
        .unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn insert_then_read_back() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let t = mgr.begin();
        assert_eq!(t.read("accounts", 1, 1).unwrap(), Value::F64(100.0));
        assert!(matches!(
            t.read("accounts", 99, 1),
            Err(TxnError::KeyNotFound(99))
        ));
    }

    #[test]
    fn read_your_own_writes() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut t = mgr.begin();
        t.update("accounts", 1, 1, Value::F64(50.0)).unwrap();
        assert_eq!(t.read("accounts", 1, 1).unwrap(), Value::F64(50.0));
        t.insert("accounts", 2, vec![Value::I64(2), Value::F64(7.0)])
            .unwrap();
        assert_eq!(t.read("accounts", 2, 1).unwrap(), Value::F64(7.0));
        t.commit().unwrap();
        let t2 = mgr.begin();
        assert_eq!(t2.read("accounts", 1, 1).unwrap(), Value::F64(50.0));
        assert_eq!(t2.read("accounts", 2, 1).unwrap(), Value::F64(7.0));
    }

    #[test]
    fn snapshot_reader_does_not_see_later_commits() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let reader = mgr.begin();
        // A later writer commits an update.
        {
            let mut w = mgr.begin();
            w.update("accounts", 1, 1, Value::F64(999.0)).unwrap();
            w.commit().unwrap();
        }
        // The reader still sees the value from its snapshot.
        assert_eq!(reader.read("accounts", 1, 1).unwrap(), Value::F64(100.0));
        // A fresh reader sees the new value.
        let fresh = mgr.begin();
        assert_eq!(fresh.read("accounts", 1, 1).unwrap(), Value::F64(999.0));
    }

    #[test]
    fn snapshot_reader_does_not_see_later_inserts() {
        let mgr = manager_with_accounts();
        let reader = mgr.begin();
        seed_account(&mgr, 5, 5.0);
        assert!(matches!(
            reader.read("accounts", 5, 1),
            Err(TxnError::KeyNotFound(5))
        ));
        let fresh = mgr.begin();
        assert!(fresh.read("accounts", 5, 1).is_ok());
    }

    #[test]
    fn no_wait_lock_conflict_aborts_second_writer() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut t1 = mgr.begin();
        let mut t2 = mgr.begin();
        t1.update("accounts", 1, 1, Value::F64(1.0)).unwrap();
        assert_eq!(
            t2.update("accounts", 1, 1, Value::F64(2.0)).unwrap_err(),
            TxnError::LockConflict
        );
        t2.abort();
        t1.commit().unwrap();
        assert_eq!(mgr.begin().read("accounts", 1, 1).unwrap(), Value::F64(1.0));
    }

    #[test]
    fn first_committer_wins_on_write_write_conflict() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        // t_late starts before t_early commits, then tries to overwrite the
        // same record after t_early released its lock.
        let late = mgr.begin();
        {
            let mut early = mgr.begin();
            early.update("accounts", 1, 1, Value::F64(10.0)).unwrap();
            early.commit().unwrap();
        }
        let mut late = late;
        late.update("accounts", 1, 1, Value::F64(20.0)).unwrap();
        assert_eq!(late.commit().unwrap_err(), TxnError::WriteConflict);
        // The early committer's value survives.
        assert_eq!(
            mgr.begin().read("accounts", 1, 1).unwrap(),
            Value::F64(10.0)
        );
    }

    #[test]
    fn duplicate_key_insert_is_rejected() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut t = mgr.begin();
        assert_eq!(
            t.insert("accounts", 1, vec![Value::I64(1), Value::F64(0.0)])
                .unwrap_err(),
            TxnError::DuplicateKey(1)
        );
        // Duplicate within the same transaction's buffer is also rejected.
        let mut t2 = mgr.begin();
        t2.insert("accounts", 7, vec![Value::I64(7), Value::F64(0.0)])
            .unwrap();
        assert_eq!(
            t2.insert("accounts", 7, vec![Value::I64(7), Value::F64(0.0)])
                .unwrap_err(),
            TxnError::DuplicateKey(7)
        );
    }

    #[test]
    fn abort_discards_buffered_writes_and_releases_locks() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        {
            let mut t = mgr.begin();
            t.update("accounts", 1, 1, Value::F64(0.0)).unwrap();
            t.abort();
        }
        assert_eq!(
            mgr.begin().read("accounts", 1, 1).unwrap(),
            Value::F64(100.0)
        );
        // Lock was released: a new writer succeeds.
        let mut t = mgr.begin();
        t.update("accounts", 1, 1, Value::F64(55.0)).unwrap();
        t.commit().unwrap();
        assert_eq!(
            mgr.begin().read("accounts", 1, 1).unwrap(),
            Value::F64(55.0)
        );
    }

    #[test]
    fn dropping_an_unfinished_transaction_aborts_it() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        {
            let mut t = mgr.begin();
            t.update("accounts", 1, 1, Value::F64(0.0)).unwrap();
            // dropped here without commit
        }
        let mut t = mgr.begin();
        assert!(t.update("accounts", 1, 1, Value::F64(42.0)).is_ok());
    }

    #[test]
    fn read_for_update_sees_latest_and_locks() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut t1 = mgr.begin();
        let v = t1.read_for_update("accounts", 1, 1).unwrap();
        assert_eq!(v, Value::F64(100.0));
        let mut t2 = mgr.begin();
        assert_eq!(
            t2.update("accounts", 1, 1, Value::F64(5.0)).unwrap_err(),
            TxnError::LockConflict
        );
        t1.update("accounts", 1, 1, Value::F64(v.as_f64() + 1.0))
            .unwrap();
        t1.commit().unwrap();
        assert_eq!(
            mgr.begin().read("accounts", 1, 1).unwrap(),
            Value::F64(101.0)
        );
    }

    #[test]
    fn missing_table_is_reported() {
        let mgr = manager_with_accounts();
        let t = mgr.begin();
        assert!(matches!(
            t.read("nope", 1, 0),
            Err(TxnError::TableMissing(_))
        ));
    }

    #[test]
    fn concurrent_transfers_preserve_total_balance() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mgr = Arc::new(manager_with_accounts());
        const ACCOUNTS: u64 = 20;
        const PER_ACCOUNT: f64 = 100.0;
        for k in 0..ACCOUNTS {
            seed_account(&mgr, k, PER_ACCOUNT);
        }
        let threads: Vec<_> = (0..4)
            .map(|seed| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut done = 0;
                    while done < 200 {
                        let from = rng.random_range(0..ACCOUNTS);
                        let to = rng.random_range(0..ACCOUNTS);
                        if from == to {
                            continue;
                        }
                        let mut t = mgr.begin();
                        let ok = (|| -> Result<(), TxnError> {
                            let a = t.read_for_update("accounts", from, 1)?.as_f64();
                            let b = t.read_for_update("accounts", to, 1)?.as_f64();
                            t.update("accounts", from, 1, Value::F64(a - 1.0))?;
                            t.update("accounts", to, 1, Value::F64(b + 1.0))?;
                            Ok(())
                        })();
                        match ok {
                            Ok(()) => {
                                if t.commit().is_ok() {
                                    done += 1;
                                }
                            }
                            Err(_) => t.abort(),
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let reader = mgr.begin();
        let total: f64 = (0..ACCOUNTS)
            .map(|k| reader.read("accounts", k, 1).unwrap().as_f64())
            .sum();
        assert!(
            (total - ACCOUNTS as f64 * PER_ACCOUNT).abs() < 1e-6,
            "money was created or destroyed: {total}"
        );
    }
}
