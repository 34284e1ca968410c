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
//!
//! A transaction resolves each thing it touches once. A relation is looked
//! up by name once ([`Transaction::table`] → [`TableRef`]); a record it
//! writes is probed in the index, locked and checked against the version
//! chains once ([`Transaction::lock`] → [`RowRef`]), and from then on
//! [`Transaction::get`] and [`Transaction::set`] are array accesses into the
//! transaction's *access set*. Holding the lock is what makes the one chain
//! check enough: nobody else can overwrite the record before this
//! transaction finishes, so the columns that were overwritten after its
//! snapshot — what commit validation and snapshot reads need — do not change.
//! The string-addressed methods (`read`, `read_for_update`, `update`,
//! `insert`) resolve the name and call the same operations.

use crate::durability::DurabilityController;
use crate::engine::TableRuntime;
use crate::locks::{LockKey, LockMode, LockTable};
use htap_durability::{DurabilityError, WalOp, WalRecord};
use htap_storage::{DataType, RecordLocation, RowId, StorageError, TableSchema, Value};
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
    /// An update of the named relation's key column, fixed at insert.
    KeyUpdate(String),
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
            TxnError::KeyUpdate(t) => write!(f, "the primary key of table {t} is not updatable"),
            TxnError::AlreadyFinished => write!(f, "transaction already finished"),
            TxnError::Storage(e) => write!(f, "storage error: {e}"),
            TxnError::Durability(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A relation a transaction has resolved by name: an index into that
/// transaction's table cache, meaningful only with the transaction whose
/// [`Transaction::table`] returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRef(u32);

/// A record a transaction holds exclusively: an index into that
/// transaction's access set, meaningful only with the transaction whose
/// [`Transaction::lock`] returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowRef(u32);

/// End of a record's chain of pending updates.
const NO_UPDATE: u32 = u32::MAX;

/// Inserts lock their key, not a row (there is none yet), in the upper half
/// of the relation's lock space, which row ids never reach.
const KEY_LOCK_SPACE: u64 = 0x8000_0000_0000_0000;

/// One entry of the access set: a record this transaction has locked.
#[derive(Debug)]
struct HeldRow {
    table: TableRef,
    key: u64,
    row: RowId,
    /// Commit timestamp of the record's insert (0 if bulk-loaded): snapshot
    /// reads older than it do not see the record.
    visible_since: u64,
    /// Columns overwritten by commits after this transaction's snapshot,
    /// read from the version chain when the lock was taken (and fixed since:
    /// only the lock's holder can add versions). Almost always empty.
    overwritten: Vec<usize>,
    /// The record's most recent pending update (index into `updates`), from
    /// which `PendingUpdate::previous` links lead to its older ones.
    last_update: u32,
}

#[derive(Debug)]
struct PendingUpdate {
    row: RowRef,
    column: usize,
    value: Value,
    /// The same record's previous pending update, or [`NO_UPDATE`].
    previous: u32,
}

/// A declared insert, under the key its key cell holds.
#[derive(Debug)]
struct PendingInsert {
    table: TableRef,
    key: u64,
    values: Vec<Value>,
}

/// The transaction manager: timestamp authority, lock table, the engine's
/// one registry of table runtimes and its one durability slot.
#[derive(Debug)]
pub struct TxnManager {
    tables: RwLock<BTreeMap<String, Arc<TableRuntime>>>,
    locks: LockTable,
    clock: AtomicU64,
    next_txn_id: AtomicU64,
    /// Durability controller, when enabled. Commits append their record to
    /// its WAL and wait for the group-commit fsync *before* applying writes.
    durability: RwLock<Option<Arc<DurabilityController>>>,
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
            durability: RwLock::new(None),
        }
    }

    /// Enable durability: every subsequent commit appends its record to the
    /// controller's WAL and blocks until the group-commit coordinator reports
    /// it durable.
    pub fn attach_durability(&self, controller: Arc<DurabilityController>) {
        *self.durability.write() = Some(controller);
    }

    /// The attached durability controller, if any. The guard is dropped
    /// before the caller does any I/O, so the lock is never held across an
    /// fsync.
    pub fn durability(&self) -> Option<Arc<DurabilityController>> {
        self.durability.read().clone()
    }

    /// Advance the logical clock to at least `ts` (used by recovery so that
    /// new transactions see replayed commits as in the past).
    pub fn advance_clock(&self, ts: u64) {
        self.clock.fetch_max(ts, Ordering::AcqRel);
    }

    /// Create a relation so transactions can address it by name; a taken
    /// name, or a schema without an `I64` primary key, is an error and leaves
    /// the registry as it was. The lock tag is the creation index:
    /// engine-local, and deterministic in creation order.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<TableRuntime>, StorageError> {
        let key = schema.primary_key.and_then(|pk| schema.columns.get(pk));
        if key.is_none_or(|c| c.dtype != DataType::I64) {
            return Err(StorageError::NoPrimaryKey { table: schema.name });
        }
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(StorageError::TableExists { table: schema.name });
        }
        let runtime = Arc::new(TableRuntime::new(schema, tables.len() as u64));
        tables.insert(runtime.name().to_string(), Arc::clone(&runtime));
        Ok(runtime)
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
        // Buffers sized for the largest transaction of the CH mix (a
        // 15-line NewOrder: 16 records, 31 locks, 31 updates, 17 inserts),
        // so that one grows at most once instead of four or five times.
        Transaction {
            mgr: self,
            id: self.next_txn_id.fetch_add(1, Ordering::AcqRel),
            start_ts: self.now(),
            tables: Vec::with_capacity(8),
            held: Vec::with_capacity(16),
            locks: Vec::with_capacity(32),
            updates: Vec::with_capacity(24),
            inserts: Vec::with_capacity(16),
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
    /// Relations resolved so far, in [`TableRef`] order.
    tables: Vec<Arc<TableRuntime>>,
    /// The access set: records locked so far, in [`RowRef`] order.
    held: Vec<HeldRow>,
    /// Every lock held, one entry per locked record or inserted key.
    locks: Vec<LockKey>,
    /// Buffered updates and inserts, each in declaration order (the order of
    /// the commit's WAL record).
    updates: Vec<PendingUpdate>,
    inserts: Vec<PendingInsert>,
    finished: bool,
}

/// Snapshot read of a record the reader does not hold: probe the index, then
/// the version chain, then the live value.
fn snapshot_read(
    rt: &TableRuntime,
    start_ts: u64,
    key: u64,
    column: usize,
) -> Result<Value, TxnError> {
    let loc = rt.index().get(key).ok_or(TxnError::KeyNotFound(key))?;
    // Records inserted after our snapshot are invisible.
    if loc.epoch > start_ts {
        return Err(TxnError::KeyNotFound(key));
    }
    // Snapshot-visible version: delta chain first, live value otherwise.
    if let Some(old) = rt.delta().visible_version(loc.row, column, start_ts) {
        return Ok(old);
    }
    rt.twin()
        .get(loc.row, column)
        .ok_or(TxnError::KeyNotFound(key))
}

impl<'a> Transaction<'a> {
    /// The transaction identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn check_active(&self) -> Result<(), TxnError> {
        if self.finished {
            Err(TxnError::AlreadyFinished)
        } else {
            Ok(())
        }
    }

    fn runtime(&self, table: TableRef) -> &TableRuntime {
        &self.tables[table.0 as usize]
    }

    /// The relation `name`, if this transaction has resolved it already.
    fn resolved(&self, name: &str) -> Option<TableRef> {
        let at = self.tables.iter().position(|rt| rt.name() == name)?;
        Some(TableRef(at as u32))
    }

    /// Resolve a relation by name: one lookup in the engine's registry per
    /// relation and transaction, remembered for later calls.
    pub fn table(&mut self, name: &str) -> Result<TableRef, TxnError> {
        if let Some(table) = self.resolved(name) {
            return Ok(table);
        }
        let runtime = self.registered(name)?;
        self.tables.push(runtime);
        Ok(TableRef(self.tables.len() as u32 - 1))
    }

    /// The engine's registry entry of relation `name`.
    fn registered(&self, name: &str) -> Result<Arc<TableRuntime>, TxnError> {
        self.mgr
            .table(name)
            .ok_or_else(|| TxnError::TableMissing(name.to_string()))
    }

    fn held_row(&self, table: TableRef, key: u64) -> Option<RowRef> {
        let at = self
            .held
            .iter()
            .position(|h| h.key == key && h.table == table)?;
        Some(RowRef(at as u32))
    }

    /// The pending value of `column` of a held record, if this transaction
    /// has written it (read-your-own-writes: the newest write wins).
    fn pending_value(&self, held: &HeldRow, column: usize) -> Option<&Value> {
        let mut at = held.last_update;
        while at != NO_UPDATE {
            let update = &self.updates[at as usize];
            if update.column == column {
                return Some(&update.value);
            }
            at = update.previous;
        }
        None
    }

    fn pending_insert(&self, table: TableRef, key: u64) -> Option<&PendingInsert> {
        self.inserts
            .iter()
            .rev()
            .find(|i| i.key == key && i.table == table)
    }

    fn acquire(&mut self, key: LockKey) -> Result<(), TxnError> {
        if self
            .mgr
            .locks
            .try_acquire(self.id, key, LockMode::Exclusive)
        {
            self.locks.push(key);
            Ok(())
        } else {
            Err(TxnError::LockConflict)
        }
    }

    /// Lock the record with primary key `key` exclusively (NO-WAIT) and add
    /// it to the access set: one index probe, one visit of the lock table and
    /// one look at the record's version chain, however often the record is
    /// then read and written through the returned handle. Locking a record
    /// this transaction already holds returns the same handle.
    pub fn lock(&mut self, table: TableRef, key: u64) -> Result<RowRef, TxnError> {
        self.check_active()?;
        if let Some(row) = self.held_row(table, key) {
            return Ok(row);
        }
        let rt = self.runtime(table);
        let loc = rt.index().get(key).ok_or(TxnError::KeyNotFound(key))?;
        self.acquire(rt.lock_key(loc.row))?;
        let overwritten = self
            .runtime(table)
            .delta()
            .columns_overwritten_after(loc.row, self.start_ts);
        self.held.push(HeldRow {
            table,
            key,
            row: loc.row,
            visible_since: loc.epoch,
            overwritten,
            last_update: NO_UPDATE,
        });
        Ok(RowRef(self.held.len() as u32 - 1))
    }

    /// The *latest committed* value of one attribute of a held record, or
    /// this transaction's own pending write of it.
    pub fn get(&self, row: RowRef, column: usize) -> Result<Value, TxnError> {
        self.check_active()?;
        let held = &self.held[row.0 as usize];
        if let Some(value) = self.pending_value(held, column) {
            return Ok(value.clone());
        }
        self.runtime(held.table)
            .twin()
            .get(held.row, column)
            .ok_or(TxnError::KeyNotFound(held.key))
    }

    /// Declare an update of one attribute of a held record; the write is
    /// applied at commit. Its type is checked, and the key column refused,
    /// here, so that a commit cannot fail half-applied.
    pub fn set(&mut self, row: RowRef, column: usize, value: Value) -> Result<(), TxnError> {
        self.check_active()?;
        let held = &self.held[row.0 as usize];
        let schema = self.runtime(held.table).twin().schema();
        if schema.primary_key == Some(column) {
            return Err(TxnError::KeyUpdate(schema.name.clone()));
        }
        let expected = schema.column(column).dtype;
        if value.data_type() != expected {
            return Err(TxnError::Storage(StorageError::TypeMismatch {
                table: schema.name.clone(),
                column,
                expected,
                got: value.data_type(),
            }));
        }
        let previous = held.last_update;
        self.held[row.0 as usize].last_update = self.updates.len() as u32;
        self.updates.push(PendingUpdate {
            row,
            column,
            value,
            previous,
        });
        Ok(())
    }

    /// Snapshot read of one attribute of the record with primary key `key`.
    pub fn read_at(&self, table: TableRef, key: u64, column: usize) -> Result<Value, TxnError> {
        self.check_active()?;
        // Read-your-own-writes.
        if let Some(ins) = self.pending_insert(table, key) {
            return Ok(ins.values[column].clone());
        }
        let rt = self.runtime(table);
        let Some(row) = self.held_row(table, key) else {
            return snapshot_read(rt, self.start_ts, key, column);
        };
        let held = &self.held[row.0 as usize];
        if let Some(value) = self.pending_value(held, column) {
            return Ok(value.clone());
        }
        if held.visible_since > self.start_ts {
            return Err(TxnError::KeyNotFound(key));
        }
        // Not overwritten since the snapshot, and locked since: the live
        // value is the snapshot's, without a visit of the version chain.
        let saved = if held.overwritten.contains(&column) {
            rt.delta().visible_version(held.row, column, self.start_ts)
        } else {
            None
        };
        saved
            .or_else(|| rt.twin().get(held.row, column))
            .ok_or(TxnError::KeyNotFound(key))
    }

    /// Declare an insert of a new record into a resolved relation; its key
    /// is its primary-key cell. The row is checked against the schema here
    /// and appended to both twin instances at commit.
    pub fn insert_at(&mut self, table: TableRef, values: Vec<Value>) -> Result<(), TxnError> {
        self.check_active()?;
        let rt = self.runtime(table);
        let key = rt
            .twin()
            .schema()
            .key_of(&values)
            .map_err(TxnError::Storage)?;
        // Lock the key space entry to serialise concurrent inserts of the
        // same key; an insert this transaction already declared holds it.
        let own = self.pending_insert(table, key).is_some();
        if !own {
            self.acquire(rt.lock_key(key ^ KEY_LOCK_SPACE))?;
        }
        if own || self.runtime(table).index().contains(key) {
            return Err(TxnError::DuplicateKey(key));
        }
        self.inserts.push(PendingInsert { table, key, values });
        Ok(())
    }

    /// Snapshot read of one attribute of the record with primary key `key`.
    pub fn read(&self, table: &str, key: u64, column: usize) -> Result<Value, TxnError> {
        self.check_active()?;
        match self.resolved(table) {
            Some(table) => self.read_at(table, key, column),
            // A relation this transaction never resolved holds none of its writes.
            None => snapshot_read(&*self.registered(table)?, self.start_ts, key, column),
        }
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
        let table = self.table(table)?;
        let row = self.lock(table, key)?;
        self.get(row, column)
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
        let table = self.table(table)?;
        let row = self.lock(table, key)?;
        self.set(row, column, value)
    }

    /// Declare an insert of a new record, keyed by its primary-key cell.
    /// The row is appended to both twin instances at commit.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<(), TxnError> {
        let table = self.table(table)?;
        self.insert_at(table, values)
    }

    /// Number of buffered writes (updates + inserts).
    pub fn write_count(&self) -> usize {
        self.updates.len() + self.inserts.len()
    }

    /// The commit's WAL record: updates in declaration order, then inserts.
    fn wal_record(&self, commit_ts: u64) -> WalRecord {
        let mut ops = Vec::with_capacity(self.write_count());
        for upd in &self.updates {
            let held = &self.held[upd.row.0 as usize];
            ops.push(WalOp::Update {
                table: self.runtime(held.table).name().to_string(),
                key: held.key,
                column: upd.column as u32,
                value: upd.value.clone(),
            });
        }
        for ins in &self.inserts {
            ops.push(WalOp::Insert {
                table: self.runtime(ins.table).name().to_string(),
                values: ins.values.clone(),
            });
        }
        WalRecord {
            txn_id: self.id,
            commit_ts,
            ops,
        }
    }

    /// Apply the buffered writes to the active instance, row by row: each
    /// cell is exchanged under one acquisition of its column's lock, the
    /// row's update bits are set once, and its overwritten values go to the
    /// delta storage in one visit. Inserts are appended and published to the
    /// index as one batch per run of consecutive inserts into one relation.
    fn apply(&mut self, commit_ts: u64) -> Result<(), StorageError> {
        let mut updates = std::mem::take(&mut self.updates);
        // Stable: a record's cells stay in declaration order.
        updates.sort_by_key(|upd| upd.row);
        for cells in updates.chunk_by_mut(|a, b| a.row == b.row) {
            let held = &self.held[cells[0].row.0 as usize];
            let rt = self.runtime(held.table);
            rt.twin()
                .update_row(held.row, cells.iter_mut().map(|c| (c.column, &mut c.value)))?;
            // After the exchange each cell holds the value it overwrote,
            // which stays visible to snapshots older than this commit.
            rt.delta().push_versions(
                held.row,
                cells
                    .iter_mut()
                    .map(|c| (c.column, std::mem::replace(&mut c.value, Value::I32(0)))),
                0,
                commit_ts,
            );
        }
        for batch in self.inserts.chunk_by(|a, b| a.table == b.table) {
            let rt = self.runtime(batch[0].table);
            let rows = rt
                .twin()
                .insert_rows_unchecked(batch.iter().map(|ins| ins.values.as_slice()));
            rt.index()
                .insert_many(batch.iter().zip(rows).map(|(ins, row)| {
                    let location = RecordLocation {
                        row,
                        epoch: commit_ts,
                    };
                    (ins.key, location)
                }));
        }
        Ok(())
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

        // Validation: any cell we are about to overwrite must not have been
        // overwritten by a transaction that committed after our snapshot.
        // Each record's answer was read when it was locked.
        let conflict = self.updates.iter().any(|upd| {
            self.held[upd.row.0 as usize]
                .overwritten
                .contains(&upd.column)
        });
        if conflict {
            self.finish_abort();
            return Err(TxnError::WriteConflict);
        }

        let commit_ts = self.mgr.next_ts();
        let t_wal = if on { htap_obs::now_us() } else { 0 };

        // WAL-before-apply: the commit record must be durable before any
        // write touches the live store. On failure the transaction aborts
        // having applied nothing, so live committed state never diverges
        // from durable state. The record locks held across the append keep
        // WAL order consistent with apply order for conflicting keys.
        let writes = self.write_count();
        if writes > 0 {
            if let Some(ctl) = self.mgr.durability() {
                if let Err(e) = ctl.wal().append_commit(&self.wal_record(commit_ts)) {
                    self.finish_abort();
                    return Err(TxnError::Durability(e));
                }
            }
        }

        let t_apply = if on { htap_obs::now_us() } else { 0 };
        self.apply(commit_ts).map_err(TxnError::Storage)?;
        self.mgr.locks.release_all(self.id, &self.locks);
        self.finished = true;
        if on {
            let t_end = htap_obs::now_us();
            htap_obs::record_thread(
                htap_obs::EventKind::TxnCommit,
                t_lock,
                writes as u64,
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
    use htap_storage::ColumnDef;

    /// Accounts: the key `id`, then `balance` and `tier`, two columns a
    /// transaction may write.
    fn manager_with_accounts() -> TxnManager {
        let mgr = TxnManager::new();
        let schema = TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("balance", DataType::F64),
                ColumnDef::new("tier", DataType::I32),
            ],
            Some(0),
        );
        mgr.create_table(schema).unwrap();
        mgr
    }

    /// The row of account `key`, in tier 0.
    fn account(key: u64, balance: f64) -> Vec<Value> {
        vec![Value::I64(key as i64), Value::F64(balance), Value::I32(0)]
    }

    fn seed_account(mgr: &TxnManager, key: u64, balance: f64) {
        let mut t = mgr.begin();
        t.insert("accounts", account(key, balance)).unwrap();
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
        t.insert("accounts", account(2, 7.0)).unwrap();
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
            t.insert("accounts", account(1, 0.0)).unwrap_err(),
            TxnError::DuplicateKey(1)
        );
        // Duplicate within the same transaction's buffer is also rejected.
        let mut t2 = mgr.begin();
        t2.insert("accounts", account(7, 0.0)).unwrap();
        assert_eq!(
            t2.insert("accounts", account(7, 0.0)).unwrap_err(),
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
    fn a_record_is_locked_once_and_released_once_on_commit_and_on_abort() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        for commit in [true, false] {
            let mut t = mgr.begin();
            let v = t.read_for_update("accounts", 1, 1).unwrap().as_f64();
            t.update("accounts", 1, 1, Value::F64(v + 1.0)).unwrap();
            t.update("accounts", 1, 2, Value::I32(1)).unwrap();
            assert_eq!(t.locks.len(), 1, "one record, one lock entry");
            assert_eq!(mgr.locks.locked_records(), 1);
            if commit {
                t.commit().unwrap();
            } else {
                t.abort();
            }
            assert_eq!(mgr.locks.locked_records(), 0, "commit = {commit}");
        }
        assert_eq!(
            mgr.begin().read("accounts", 1, 1).unwrap(),
            Value::F64(101.0),
            "the committed round applied, the aborted one did not"
        );
        // An insert holds its key's lock, once, until the end as well.
        let mut t = mgr.begin();
        t.insert("accounts", account(2, 0.0)).unwrap();
        assert!(t.insert("accounts", account(2, 0.0)).is_err());
        assert_eq!(t.locks.len(), 1);
        drop(t);
        assert_eq!(mgr.locks.locked_records(), 0);
    }

    #[test]
    fn handles_and_names_address_the_same_access_set() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut t = mgr.begin();
        let accounts = t.table("accounts").unwrap();
        assert_eq!(t.table("accounts").unwrap(), accounts);
        assert!(matches!(t.table("nope"), Err(TxnError::TableMissing(_))));
        let row = t.lock(accounts, 1).unwrap();
        assert_eq!(t.lock(accounts, 1).unwrap(), row, "locking again is free");
        assert!(matches!(t.lock(accounts, 9), Err(TxnError::KeyNotFound(9))));
        // Read-your-own-writes across two columns of one row, by handle and
        // by name, the newest write of a cell winning.
        t.set(row, 1, Value::F64(1.0)).unwrap();
        t.update("accounts", 1, 2, Value::I32(-1)).unwrap();
        t.set(row, 1, Value::F64(2.0)).unwrap();
        assert_eq!(t.get(row, 1).unwrap(), Value::F64(2.0));
        assert_eq!(t.get(row, 2).unwrap(), Value::I32(-1));
        assert_eq!(t.read("accounts", 1, 1).unwrap(), Value::F64(2.0));
        assert_eq!(t.read_at(accounts, 1, 2).unwrap(), Value::I32(-1));
        assert_eq!(
            t.read_for_update("accounts", 1, 1).unwrap(),
            Value::F64(2.0)
        );
        // ... and across an insert, which is not lockable before it commits.
        t.insert_at(accounts, account(2, 7.0)).unwrap();
        assert_eq!(t.read_at(accounts, 2, 1).unwrap(), Value::F64(7.0));
        assert_eq!(t.read("accounts", 2, 0).unwrap(), Value::I64(2));
        assert!(matches!(t.lock(accounts, 2), Err(TxnError::KeyNotFound(2))));
        assert_eq!(t.write_count(), 4);
        assert_eq!(t.locks.len(), 2);
        // Writes are type-checked when declared, not when applied.
        assert!(matches!(
            t.set(row, 1, Value::I64(0)),
            Err(TxnError::Storage(_))
        ));
        assert!(matches!(
            t.insert_at(accounts, vec![Value::I64(3)]),
            Err(TxnError::Storage(_))
        ));
        t.commit().unwrap();
        let check = mgr.begin();
        assert_eq!(check.read("accounts", 1, 2).unwrap(), Value::I32(-1));
        assert_eq!(check.read("accounts", 1, 1).unwrap(), Value::F64(2.0));
        assert_eq!(check.read("accounts", 2, 1).unwrap(), Value::F64(7.0));
        assert!(check.read("accounts", 3, 1).is_err());
    }

    #[test]
    fn a_held_record_still_reads_its_snapshot_where_it_was_overwritten() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut late = mgr.begin();
        {
            let mut early = mgr.begin();
            early.update("accounts", 1, 1, Value::F64(10.0)).unwrap();
            early.commit().unwrap();
        }
        let accounts = late.table("accounts").unwrap();
        let row = late.lock(accounts, 1).unwrap();
        // Snapshot read: the value of the snapshot; read for update: the latest.
        assert_eq!(late.read("accounts", 1, 1).unwrap(), Value::F64(100.0));
        assert_eq!(late.get(row, 1).unwrap(), Value::F64(10.0));
        // Writing a column nobody overwrote commits; the overwritten one
        // would not (first committer wins, per cell).
        late.set(row, 2, Value::I32(5)).unwrap();
        late.commit().unwrap();
        assert_eq!(mgr.begin().read("accounts", 1, 2).unwrap(), Value::I32(5));
        assert_eq!(
            mgr.begin().read("accounts", 1, 1).unwrap(),
            Value::F64(10.0)
        );
    }

    #[test]
    fn commit_logs_updates_in_declaration_order_then_inserts() {
        use htap_durability::{decode_wal, load_state, DurableStorage, MemStorage, Wal, WalConfig};
        let storage: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        seed_account(&mgr, 2, 200.0);
        let (wal, _) = Wal::open(Arc::clone(&storage), "wal.log", WalConfig::default()).unwrap();
        let controller = DurabilityController::new(Arc::clone(&storage), wal, 0);
        mgr.attach_durability(Arc::new(controller));
        let mut t = mgr.begin();
        // Declarations interleave two records and an insert; the same cell
        // is written twice.
        t.update("accounts", 2, 1, Value::F64(1.0)).unwrap();
        t.insert("accounts", account(3, 3.0)).unwrap();
        t.update("accounts", 1, 1, Value::F64(2.0)).unwrap();
        t.update("accounts", 2, 1, Value::F64(4.0)).unwrap();
        let (id, commit_ts) = (t.id(), t.commit().unwrap());
        let update = |key, value| WalOp::Update {
            table: "accounts".into(),
            key,
            column: 1,
            value: Value::F64(value),
        };
        let expected = WalRecord {
            txn_id: id,
            commit_ts,
            ops: vec![
                update(2, 1.0),
                update(1, 2.0),
                update(2, 4.0),
                WalOp::Insert {
                    table: "accounts".into(),
                    values: account(3, 3.0),
                },
            ],
        };
        let log = decode_wal(&storage.read("wal.log").unwrap().unwrap()).unwrap();
        let state = load_state(storage.as_ref(), log, "checkpoint.bin").unwrap();
        assert_eq!(state.tail.len(), 1);
        assert_eq!(state.tail[0].1, expected);
        // Applied row by row, the last write of the cell wins and a snapshot
        // from before the commit still sees what the commit overwrote.
        assert_eq!(mgr.begin().read("accounts", 2, 1).unwrap(), Value::F64(4.0));
        let rt = mgr.table("accounts").unwrap();
        assert_eq!(
            rt.delta().visible_version(1, 1, commit_ts - 1),
            Some(Value::F64(200.0))
        );
    }

    #[test]
    fn a_relation_without_an_i64_primary_key_is_refused() {
        let mgr = TxnManager::new();
        let columns = vec![
            ColumnDef::new("id", DataType::I64),
            ColumnDef::new("price", DataType::F64),
        ];
        let unkeyed = TableSchema::new("unkeyed", columns.clone(), None);
        // Built past `TableSchema::new`, which refuses it.
        let float_keyed = TableSchema {
            name: "float_keyed".into(),
            columns,
            primary_key: Some(1),
        };
        for schema in [unkeyed, float_keyed] {
            let table = schema.name.clone();
            assert_eq!(
                mgr.create_table(schema).unwrap_err(),
                StorageError::NoPrimaryKey { table }
            );
        }
        assert!(mgr.table_names().is_empty());
    }

    #[test]
    fn the_key_column_is_not_updatable_and_a_refused_update_applies_nothing() {
        let mgr = manager_with_accounts();
        seed_account(&mgr, 1, 100.0);
        let mut t = mgr.begin();
        let accounts = t.table("accounts").unwrap();
        let row = t.lock(accounts, 1).unwrap();
        let refused = TxnError::KeyUpdate("accounts".into());
        assert_eq!(t.set(row, 0, Value::I64(5)).unwrap_err(), refused);
        assert_eq!(
            t.update("accounts", 1, 0, Value::I64(6)).unwrap_err(),
            refused
        );
        assert_eq!(t.write_count(), 0);
        t.set(row, 1, Value::F64(7.0)).unwrap();
        t.commit().unwrap();
        // The key cell and the index still agree on the record's key.
        let rt = mgr.table("accounts").unwrap();
        let at = rt.index().get(1).unwrap().row;
        assert_eq!(rt.twin().get(at, 0), Some(Value::I64(1)));
        assert_eq!(rt.twin().get(at, 1), Some(Value::F64(7.0)));
        assert!(rt.index().get(5).is_none() && rt.index().get(6).is_none());
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
