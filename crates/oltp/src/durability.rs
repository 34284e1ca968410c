//! Engine-side durability orchestration: periodic column-segment checkpoints
//! inside the switch-gate quiescence window, and replay of recovered state
//! through the normal twin-table insert/update path.
//!
//! The byte formats, group-commit WAL and fault-injection plumbing live in
//! `htap-durability`; this module owns the *coordination* with the OLTP
//! engine — when a checkpoint may run (only while the instance-switch write
//! gate is held, so no transaction is mid-commit), what it captures (every
//! registered relation, key-ordered), and how a [`RecoveredState`] is applied
//! back onto a freshly created schema.
//!
//! See `ARCHITECTURE.md` ("Durability & crash recovery").

use crate::engine::OltpEngine;
use htap_durability::{
    CheckpointData, CheckpointTable, DurabilityError, DurableStorage, RecoveredState, Wal, WalOp,
};
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
    /// Checkpoints successfully written (and WAL truncated).
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
    checkpoint_file: String,
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
            .field("checkpoint_file", &self.checkpoint_file)
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
            checkpoint_file: CHECKPOINT_FILE.to_string(),
            checkpoint_interval_switches,
            switches_seen: AtomicU64::new(0),
            checkpoints_taken: AtomicU64::new(0),
            checkpoint_errors: AtomicU64::new(0),
        }
    }

    /// The write-ahead log this controller truncates at checkpoints.
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

    /// Write a checkpoint of the current store and truncate the WAL to it.
    /// The caller must hold the switch gate for writing (quiesced engine).
    pub(crate) fn checkpoint_quiesced(&self, engine: &OltpEngine) -> Result<(), DurabilityError> {
        let on = htap_obs::enabled();
        let t_ckpt = if on { htap_obs::now_us() } else { 0 };
        if on {
            htap_obs::record_thread(htap_obs::EventKind::CheckpointBegin, t_ckpt, 0, 0);
        }
        // No transaction is in flight, so every durable record is also
        // applied and `next_lsn` covers exactly the captured state.
        let lsn = self.wal.next_lsn();
        let last_ts = engine.txn_manager().now();
        let mut tables = Vec::new();
        for rt in engine.txn_manager().tables() {
            let name = rt.name().to_string();
            let dtypes: Vec<_> = rt.twin().schema().columns.iter().map(|c| c.dtype).collect();
            let entries = rt.index().entries();
            let mut keys = Vec::with_capacity(entries.len());
            let mut columns = vec![Vec::with_capacity(entries.len()); dtypes.len()];
            for (key, loc) in entries {
                keys.push(key);
                for (c, col) in columns.iter_mut().enumerate() {
                    let value = rt.twin().get(loc.row, c).ok_or_else(|| {
                        DurabilityError::corrupt(format!(
                            "row {} column {c} of table {name} unreadable",
                            loc.row
                        ))
                    })?;
                    col.push(value);
                }
            }
            tables.push(CheckpointTable {
                name,
                dtypes,
                keys,
                columns,
            });
        }
        let data = CheckpointData {
            lsn,
            last_ts,
            tables,
        };
        // Checkpoint first, truncate second: a crash between the two leaves
        // an un-truncated WAL prefix that recovery simply skips, because
        // replay starts at the checkpoint LSN.
        let table_count = data.tables.len() as u64;
        self.storage
            .write_atomic(&self.checkpoint_file, &data.encode())?;
        self.wal.truncate_to(lsn)?;
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        if on {
            htap_obs::record_thread(
                htap_obs::EventKind::CheckpointEnd,
                t_ckpt,
                table_count,
                htap_obs::now_us().saturating_sub(t_ckpt),
            );
        }
        Ok(())
    }
}

/// Apply a [`RecoveredState`] onto an engine whose relations have already
/// been created (empty). Checkpoint rows are bulk-loaded, then the WAL tail
/// is replayed through the normal twin-table insert/update path, and the
/// logical clock is advanced past the last recovered commit.
///
/// Returns the number of replayed WAL records.
pub fn apply_recovered(
    engine: &OltpEngine,
    state: &RecoveredState,
) -> Result<u64, DurabilityError> {
    if let Some(ckpt) = &state.checkpoint {
        for table in &ckpt.tables {
            for (i, &key) in table.keys.iter().enumerate() {
                engine
                    .bulk_load(&table.name, key, table.row(i))
                    .map_err(|e| {
                        DurabilityError::corrupt(format!(
                            "checkpoint row {key} of {} rejected: {e}",
                            table.name
                        ))
                    })?;
            }
        }
    }
    let mut replayed = 0u64;
    for (lsn, record) in &state.tail {
        for op in &record.ops {
            match op {
                WalOp::Insert { table, key, values } => {
                    engine.bulk_load(table, *key, values.clone()).map_err(|e| {
                        DurabilityError::corrupt(format!(
                            "replay of insert {key} into {table} (lsn {lsn}) rejected: {e}"
                        ))
                    })?;
                }
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                } => {
                    let rt = engine.table(table).ok_or_else(|| {
                        DurabilityError::corrupt(format!(
                            "replay references unknown table {table} (lsn {lsn})"
                        ))
                    })?;
                    let loc = rt.index().get(*key).ok_or_else(|| {
                        DurabilityError::corrupt(format!(
                            "replay updates missing key {key} in {table} (lsn {lsn})"
                        ))
                    })?;
                    rt.twin()
                        .update(loc.row, *column as usize, value)
                        .map_err(|e| {
                            DurabilityError::corrupt(format!(
                                "replay of update {key} in {table} (lsn {lsn}) rejected: {e}"
                            ))
                        })?;
                }
            }
        }
        replayed += 1;
    }
    engine.txn_manager().advance_clock(state.last_commit_ts);
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_durability::{load_state, MemStorage, WalConfig};
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

    fn insert(engine: &OltpEngine, key: u64, qty: i32) {
        engine.execute(|mut txn| {
            txn.insert(
                "stock",
                key,
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
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        assert!(state.checkpoint.is_none());
        assert_eq!(state.tail_len(), 3);
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
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        let ckpt = state.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.tables[0].keys, vec![1, 2]);
        assert_eq!(state.tail_len(), 1);
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
        // The WAL was truncated to the checkpoint LSN.
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        assert_eq!(state.tail_len(), 0);
        assert_eq!(state.checkpoint.unwrap().tables[0].keys, vec![7]);
    }

    #[test]
    fn engine_without_durability_reports_no_checkpoint() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert!(!engine.checkpoint_now().unwrap());
    }
}
