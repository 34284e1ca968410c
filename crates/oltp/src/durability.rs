//! Engine-side durability orchestration: periodic column-segment checkpoints
//! inside the switch-gate quiescence window, and replay of recovered state
//! through the normal twin-table insert/update path.
//!
//! The byte formats, group-commit WAL and fault-injection plumbing live in
//! `htap-durability`; this module owns the *coordination* with the OLTP
//! engine — when a checkpoint may run (only while the instance-switch write
//! gate is held, so no transaction is mid-commit), what it captures (every
//! registered relation, its columns in row-id order), and how a
//! [`RecoveredState`] is applied back onto a freshly created schema. The
//! image moves column at a time in both directions — one slice append per
//! column to write it, one range copy per column and instance plus one batch
//! index insert from the key column to restore it; only the WAL tail is
//! replayed op by op. The log restarts empty behind each checkpoint.
//!
//! See `ARCHITECTURE.md` ("Durability & crash recovery").

use crate::engine::OltpEngine;
use htap_durability::{
    CheckpointData, CheckpointTable, DurabilityError, DurableStorage, RecoveredState, Wal, WalOp,
};
use htap_storage::{Column, ColumnGuard, RecordLocation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default WAL file name inside the durable storage root.
pub const WAL_FILE: &str = "wal.log";
/// Default checkpoint file name inside the durable storage root.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Running counters of the checkpoint machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Instance switches observed since attach (one per scheduled query).
    pub switches_seen: u64,
    /// Checkpoints successfully written, each followed by a restart of the
    /// WAL at the LSN the checkpoint covers up to.
    pub checkpoints_taken: u64,
    /// Checkpoint attempts that failed (the WAL keeps its tail; the engine
    /// keeps running — durability degrades to replay-from-older-checkpoint).
    pub checkpoint_errors: u64,
}

/// Coordinates the WAL and periodic checkpoints with the OLTP engine.
///
/// Attached to an [`OltpEngine`] via [`OltpEngine::attach_durability`]; the
/// engine calls [`DurabilityController::note_switch`] from inside
/// `switch_and_sync_instances` while the switch-gate write lock is held, so a
/// checkpoint always observes a quiesced, fully-synced store.
pub struct DurabilityController {
    storage: Arc<dyn DurableStorage>,
    wal: Wal,
    /// Take a checkpoint every N instance switches — every N scheduled
    /// queries, a query crosses the gate once; 0 disables periodic
    /// checkpoints (explicit [`OltpEngine::checkpoint_now`] still works).
    checkpoint_interval_switches: u64,
    switches_seen: AtomicU64,
    checkpoints_taken: AtomicU64,
    checkpoint_errors: AtomicU64,
}

impl std::fmt::Debug for DurabilityController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityController")
            .field(
                "checkpoint_interval_switches",
                &self.checkpoint_interval_switches,
            )
            .field("stats", &self.stats())
            .finish()
    }
}

impl DurabilityController {
    /// Wrap an open WAL and its backing storage. `checkpoint_interval_switches`
    /// of 0 disables periodic checkpoints.
    pub fn new(
        storage: Arc<dyn DurableStorage>,
        wal: Wal,
        checkpoint_interval_switches: u64,
    ) -> Self {
        DurabilityController {
            storage,
            wal,
            checkpoint_interval_switches,
            switches_seen: AtomicU64::new(0),
            checkpoints_taken: AtomicU64::new(0),
            checkpoint_errors: AtomicU64::new(0),
        }
    }

    /// The write-ahead log this controller restarts at checkpoints.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            switches_seen: self.switches_seen.load(Ordering::Relaxed),
            checkpoints_taken: self.checkpoints_taken.load(Ordering::Relaxed),
            checkpoint_errors: self.checkpoint_errors.load(Ordering::Relaxed),
        }
    }

    /// Called by the engine from inside the switch quiescence window (switch
    /// gate held for writing, twins synced) — once per scheduled query, the
    /// scheduler being the only caller that switches per query. Takes a
    /// checkpoint every `checkpoint_interval_switches` calls.
    ///
    /// A failed checkpoint is counted and swallowed: the engine keeps
    /// serving transactions and the WAL keeps its tail, so recovery falls
    /// back to the previous checkpoint plus a longer replay.
    pub(crate) fn note_switch(&self, engine: &OltpEngine) {
        let seen = self.switches_seen.fetch_add(1, Ordering::AcqRel) + 1;
        if self.checkpoint_interval_switches == 0
            || !seen.is_multiple_of(self.checkpoint_interval_switches)
        {
            return;
        }
        if self.checkpoint_quiesced(engine).is_err() {
            self.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write a checkpoint of the current store and restart the WAL behind
    /// it. The caller must hold the switch gate for writing (quiesced engine).
    pub(crate) fn checkpoint_quiesced(&self, engine: &OltpEngine) -> Result<(), DurabilityError> {
        // A WAL that failed a flush has numbered records it never wrote: an
        // image stamped with its `next_lsn` would claim to cover LSNs the
        // reopened log hands out again, and recovery would skip those commits.
        if self.wal.is_broken() {
            return Err(DurabilityError::Broken {
                detail: "no checkpoint of a store whose WAL failed a flush".into(),
            });
        }
        let on = htap_obs::enabled();
        let t_ckpt = if on { htap_obs::now_us() } else { 0 };
        if on {
            htap_obs::record_thread(htap_obs::EventKind::CheckpointBegin, t_ckpt, 0, 0);
        }
        // No transaction is in flight, so every numbered record is durable
        // and applied, and `next_lsn` covers exactly the captured state.
        let lsn = self.wal.next_lsn();
        let tables = engine.txn_manager().tables();
        // One buffer for the whole file: the fixed-width cells are about an
        // instance's size, strings and headers grow it if need be.
        let mut image = CheckpointData::begin(
            lsn,
            engine.txn_manager().now(),
            tables.len(),
            engine.instance_bytes() as usize,
        );
        for rt in &tables {
            let active = rt.twin().active();
            CheckpointTable::encode_into(
                &mut image,
                rt.name(),
                active.row_count(),
                active.columns(),
            )?;
        }
        // Checkpoint first, restart second: a crash between the two leaves
        // the old log, every record of which the new image covers, and
        // replay starts at the checkpoint LSN.
        self.storage
            .write_atomic(CHECKPOINT_FILE, &CheckpointData::seal(image))?;
        self.wal.restart_at(lsn)?;
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        if on {
            htap_obs::record_thread(
                htap_obs::EventKind::CheckpointEnd,
                t_ckpt,
                tables.len() as u64,
                htap_obs::now_us().saturating_sub(t_ckpt),
            );
        }
        Ok(())
    }
}

/// Apply a [`RecoveredState`] onto an engine whose relations have already
/// been created (empty). Each checkpointed relation is loaded column at a
/// time into both twin instances — row `i` of the image becomes row `i`
/// again — and the key cells of its key column are published to the index
/// in one batch: two rows with one key cell are an error. Then the WAL tail
/// is replayed through the normal twin-table insert/update path, and the
/// logical clock is advanced past the last recovered commit.
///
/// Returns the number of replayed WAL records.
pub fn apply_recovered(
    engine: &OltpEngine,
    state: &RecoveredState,
) -> Result<u64, DurabilityError> {
    for table in state.checkpoint.iter().flat_map(|ckpt| &ckpt.tables) {
        let rejected = |why: String| {
            DurabilityError::corrupt(format!(
                "checkpoint of table {} rejected: {why}",
                table.name
            ))
        };
        let rt = engine
            .table(&table.name)
            .ok_or_else(|| rejected("no such relation".into()))?;
        let rows = table.rows();
        // Compares the segments' types with the live schema, once.
        rt.twin()
            .load_columns(&table.columns, rows as u64)
            .map_err(|e| rejected(e.to_string()))?;
        let pk = rt.twin().schema().primary_key;
        let segment = pk.and_then(|pk| table.columns.get(pk));
        let Some(ColumnGuard::I64(keys)) = segment.map(Column::read_guard) else {
            return Err(rejected("no i64 key column".into()));
        };
        rt.index().reserve(rows);
        rt.index().insert_many(
            (0u64..)
                .zip(keys.iter().take(rows))
                .map(|(row, &key)| (key as u64, RecordLocation::new(row))),
        );
        let keyed = rt.index().len();
        if keyed != rows {
            return Err(rejected(format!("{keyed} distinct keys in {rows} rows")));
        }
    }
    for (lsn, record) in &state.tail {
        let rejected = |what: String| {
            DurabilityError::corrupt(format!("replay of lsn {lsn} rejected: {what}"))
        };
        for op in &record.ops {
            match op {
                WalOp::Insert { table, values } => {
                    engine
                        .bulk_load(table, values.clone())
                        .map_err(|e| rejected(format!("insert into {table}: {e}")))?;
                }
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                } => {
                    let rt = engine
                        .table(table)
                        .ok_or_else(|| rejected(format!("unknown table {table}")))?;
                    if rt.twin().schema().primary_key == Some(*column as usize) {
                        return Err(rejected(format!("update of the key column of {table}")));
                    }
                    let loc = rt.index().get(*key).ok_or_else(|| {
                        rejected(format!("update of missing key {key} in {table}"))
                    })?;
                    rt.twin()
                        .update(loc.row, *column as usize, value)
                        .map_err(|e| rejected(format!("update of {key} in {table}: {e}")))?;
                }
            }
        }
    }
    engine.txn_manager().advance_clock(state.last_commit_ts);
    Ok(state.tail.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_durability::{load_state, MemStorage, RecoveredState, WalConfig, WalRecord};
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("qty", DataType::I32),
                ColumnDef::new("note", DataType::Str),
            ],
            Some(0),
        )
    }

    fn durable_engine(disk: &MemStorage, interval: u64) -> (OltpEngine, Arc<DurabilityController>) {
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let (wal, _seg) = Wal::open(Arc::clone(&storage), WAL_FILE, WalConfig::default()).unwrap();
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        let ctl = Arc::new(DurabilityController::new(storage, wal, interval));
        engine.attach_durability(Arc::clone(&ctl));
        (engine, ctl)
    }

    /// What a reopen finds on `disk`: the WAL is opened (and read) once, its
    /// decoded segment goes to `load_state`.
    fn reload(disk: &MemStorage) -> RecoveredState {
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let (_wal, segment) =
            Wal::open(Arc::clone(&storage), WAL_FILE, WalConfig::default()).unwrap();
        load_state(storage.as_ref(), segment, CHECKPOINT_FILE).unwrap()
    }

    fn insert(engine: &OltpEngine, key: u64, qty: i32) {
        engine.execute(|mut txn| {
            txn.insert(
                "stock",
                vec![
                    Value::I64(key as i64),
                    Value::I32(qty),
                    Value::Str(format!("row-{key}")),
                ],
            )
            .unwrap();
            txn.commit().unwrap();
        });
    }

    #[test]
    fn commits_reach_the_wal_and_replay_restores_them() {
        let disk = MemStorage::new();
        {
            let (engine, _ctl) = durable_engine(&disk, 0);
            insert(&engine, 1, 10);
            insert(&engine, 2, 20);
            engine.execute(|mut txn| {
                txn.update("stock", 1, 1, Value::I32(11)).unwrap();
                txn.commit().unwrap();
            });
        }
        // "Reboot": fresh engine, schemas recreated, state replayed.
        let state = reload(&disk);
        assert!(state.checkpoint.is_none());
        assert_eq!(state.tail.len(), 3);
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert_eq!(apply_recovered(&engine, &state).unwrap(), 3);
        let t = engine.begin();
        assert_eq!(t.read("stock", 1, 1).unwrap(), Value::I32(11));
        assert_eq!(t.read("stock", 2, 1).unwrap(), Value::I32(20));
        assert_eq!(
            t.read("stock", 1, 2).unwrap(),
            Value::Str("row-1".to_string())
        );
        // New commits get timestamps after the recovered history.
        assert!(engine.txn_manager().now() >= state.last_commit_ts);
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovery_uses_it() {
        let disk = MemStorage::new();
        {
            let (engine, ctl) = durable_engine(&disk, 1);
            insert(&engine, 1, 10);
            insert(&engine, 2, 20);
            // Every switch checkpoints (interval 1).
            engine.switch_and_sync_instances();
            assert_eq!(ctl.stats().checkpoints_taken, 1);
            // Post-checkpoint traffic stays in the WAL tail.
            insert(&engine, 3, 30);
        }
        let state = reload(&disk);
        let ckpt = state.checkpoint.as_ref().unwrap();
        ckpt.tables[0].columns[0].with_i64(9, |keys| assert_eq!(keys, [1, 2]));
        assert_eq!(state.tail.len(), 1);
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        apply_recovered(&engine, &state).unwrap();
        let t = engine.begin();
        for (key, qty) in [(1u64, 10), (2, 20), (3, 30)] {
            assert_eq!(t.read("stock", key, 1).unwrap(), Value::I32(qty));
        }
    }

    #[test]
    fn explicit_checkpoint_now_works_without_interval() {
        let disk = MemStorage::new();
        let (engine, ctl) = durable_engine(&disk, 0);
        insert(&engine, 7, 70);
        engine.switch_and_sync_instances();
        assert_eq!(ctl.stats().checkpoints_taken, 0);
        assert!(engine.checkpoint_now().unwrap());
        assert_eq!(ctl.stats().checkpoints_taken, 1);
        // The WAL restarted at the checkpoint LSN.
        let state = reload(&disk);
        assert_eq!(state.tail.len(), 0);
        let ckpt = state.checkpoint.unwrap();
        ckpt.tables[0].columns[0].with_i64(9, |keys| assert_eq!(keys, [7]));
    }

    #[test]
    fn a_replayed_update_of_the_key_column_is_corrupt() {
        let disk = MemStorage::new();
        insert(&durable_engine(&disk, 0).0, 1, 10);
        let mut state = reload(&disk);
        let op = WalOp::Update {
            table: "stock".into(),
            key: 1,
            column: 0,
            value: Value::I64(2),
        };
        state.tail.push((
            1,
            WalRecord {
                txn_id: 9,
                commit_ts: 99,
                ops: vec![op],
            },
        ));
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert!(matches!(
            apply_recovered(&engine, &state),
            Err(DurabilityError::Corrupt { detail }) if detail.contains("key column of stock")
        ));
    }

    #[test]
    fn engine_without_durability_reports_no_checkpoint() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert!(!engine.checkpoint_now().unwrap());
    }
}
