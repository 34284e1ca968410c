//! Twin-instance storage: two full columnar copies of every relation, of
//! which exactly one is *active* for transaction processing at any point in
//! time (§3.2, following Twin Blocks / Twin Tuples).
//!
//! * **Updates** are applied to the active instance only. Each sets, once per
//!   written row, the record's update-indication bit on that instance and
//!   the relation's update-presence flag, and flags the written column on
//!   the active instance.
//! * **Inserts** are appended to *both* instances, but become visible to the
//!   analytical side only after the next switch (the visible-row watermark is
//!   captured at switch time).
//! * **Switch and synchronisation** are one step, [`TwinTable::switch_and_sync`]:
//!   the freshest instance becomes the OLAP engine's immutable snapshot, the
//!   OLTP engine continues on the other one, and that one is first brought up
//!   to date from the snapshot. The synchronisation consumes the flags in the
//!   order of the hierarchy: a relation whose presence flag is clear is
//!   skipped; otherwise the update bits of the snapshot instance are swapped
//!   out word by word and, for the rows they name, only the columns flagged
//!   as updated on the snapshot instance are copied, column at a time. The
//!   same rows are then owed to the OLAP instance: the synchronisation adds
//!   them to the set an ETL consumes, so an ETL only ever takes rows whose
//!   new values are in the snapshot it copies from.

use crate::column::Column;
use crate::schema::TableSchema;
use crate::schema::Value;
use crate::snapshot::TableSnapshot;
use crate::stats::UpdatePresence;
use crate::table::ColumnarTable;
use crate::update_bits::AtomicBitmap;
use crate::RowId;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of one of the two twin instances (0 or 1).
pub type InstanceId = usize;

/// Result of a switch + twin-instance synchronisation (of one relation, or
/// summed over the relations of an engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Records copied from the snapshot instance into the active instance.
    pub copied_records: u64,
    /// Bytes copied, in the columnar accounting the cost model uses: every
    /// synchronised record counts at the relation's full row width,
    /// whichever of its columns had to move.
    pub copied_bytes: u64,
}

/// Bit indices of an update bitmap as the row ids they stand for.
fn row_ids(bits: Vec<usize>) -> Vec<RowId> {
    bits.into_iter().map(|bit| bit as RowId).collect()
}

/// One relation stored as two twin columnar instances.
#[derive(Debug)]
pub struct TwinTable {
    schema: TableSchema,
    instances: [Arc<ColumnarTable>; 2],
    active: AtomicUsize,
    /// Update bits per instance: rows updated in instance `i` that have not
    /// yet been synchronised into the other instance. Only the active
    /// instance's bitmap is ever non-empty: a switch is always followed, in
    /// the same step, by the synchronisation that drains it.
    dirty_twin: [AtomicBitmap; 2],
    /// Rows updated before the last switch and not yet propagated to the
    /// OLAP instance: what the synchronisations drained from `dirty_twin`
    /// since the last ETL. An update after the switch is not in here (its
    /// value is not in the snapshot either), so an ETL cannot consume it.
    olap_pending: AtomicBitmap,
    /// Rows already propagated to the OLAP instance (inserts beyond this
    /// watermark are fresh with respect to OLAP); the OLAP copy's published
    /// row count equals it.
    olap_synced_rows: AtomicU64,
    /// Visible-row watermark of each instance, captured when it last became
    /// the snapshot (inactive) instance.
    visible_rows: [AtomicU64; 2],
    /// Set by every update, cleared by the synchronisation: a relation whose
    /// flag is clear has nothing to synchronise.
    update_presence: UpdatePresence,
    /// Serialises concurrent inserts: the per-column appends within an
    /// instance, and the appends to the two instances, must not interleave
    /// across writers or the twins fall out of step (concurrent ingest
    /// workers commit inserts to the same relation at any time).
    append_lock: Mutex<()>,
}

impl TwinTable {
    /// Create a twin table with two empty instances.
    pub fn new(schema: TableSchema) -> Self {
        TwinTable {
            instances: [
                Arc::new(ColumnarTable::new(schema.clone())),
                Arc::new(ColumnarTable::new(schema.clone())),
            ],
            schema,
            active: AtomicUsize::new(0),
            dirty_twin: [AtomicBitmap::new(), AtomicBitmap::new()],
            olap_pending: AtomicBitmap::new(),
            olap_synced_rows: AtomicU64::new(0),
            visible_rows: [AtomicU64::new(0), AtomicU64::new(0)],
            update_presence: UpdatePresence::default(),
            append_lock: Mutex::new(()),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Identifier of the currently active instance.
    pub fn active_instance(&self) -> InstanceId {
        self.active.load(Ordering::Acquire)
    }

    /// Identifier of the currently inactive (snapshot) instance.
    pub fn inactive_instance(&self) -> InstanceId {
        1 - self.active_instance()
    }

    /// Access one instance directly (used by the RDE engine and tests).
    pub fn instance(&self, id: InstanceId) -> &Arc<ColumnarTable> {
        &self.instances[id]
    }

    /// The currently active instance.
    pub fn active(&self) -> &Arc<ColumnarTable> {
        &self.instances[self.active_instance()]
    }

    /// The relation's update-presence flag.
    pub fn update_presence(&self) -> &UpdatePresence {
        &self.update_presence
    }

    /// Number of committed rows (identical in both instances by construction).
    pub fn row_count(&self) -> u64 {
        self.active().row_count()
    }

    /// Insert a row into both instances. Returns the row id (identical in
    /// both instances — concurrent inserters are serialised per relation so
    /// the twins never fall out of step).
    pub fn insert(&self, row: &[Value]) -> Result<RowId, crate::StorageError> {
        self.schema.check_row(row)?;
        Ok(self.insert_rows_unchecked(std::iter::once(row)).start)
    }

    /// Insert a batch of rows into both instances; returns the row ids they
    /// occupy (identical in both). The append lock and each column's lock are
    /// taken once per batch and instance. Every row must already have passed
    /// [`TableSchema::check_row`] — a transaction checks when an insert is
    /// declared, so that its commit cannot fail half-applied; a mismatched
    /// value panics as in [`crate::Column::append`].
    pub fn insert_rows_unchecked<'a>(
        &self,
        rows: impl Iterator<Item = &'a [Value]> + Clone,
    ) -> Range<RowId> {
        let _guard = self.append_lock.lock();
        let ids = self.instances[0].append_rows_unchecked(rows.clone());
        let twin_ids = self.instances[1].append_rows_unchecked(rows);
        debug_assert_eq!(ids, twin_ids, "twin instances out of step");
        ids
    }

    /// Load the first `rows` values of every column of `columns` as rows
    /// `0..rows` of both instances of a still empty relation (a checkpoint
    /// restore): one range copy per column and instance under the append
    /// lock, instead of `rows` inserts. It leaves what those inserts would:
    /// both row counts at `rows`, no update bit or column flag set, and the
    /// OLAP watermark where it was — the rows are as fresh with respect to
    /// the OLAP instance as bulk-loaded ones. The columns are compared with
    /// the schema once, here.
    pub fn load_columns(&self, columns: &[Column], rows: u64) -> Result<(), crate::StorageError> {
        let table = || self.schema.name.clone();
        if columns.len() != self.schema.arity() {
            return Err(crate::StorageError::ArityMismatch {
                table: table(),
                expected: self.schema.arity(),
                got: columns.len(),
            });
        }
        for (column, (loaded, def)) in columns.iter().zip(&self.schema.columns).enumerate() {
            if loaded.dtype() != def.dtype {
                return Err(crate::StorageError::TypeMismatch {
                    table: table(),
                    column,
                    expected: def.dtype,
                    got: loaded.dtype(),
                });
            }
            let held = loaded.len() as u64;
            if held < rows {
                return Err(crate::StorageError::RowOutOfRange {
                    table: table(),
                    row: rows - 1,
                    rows: held,
                });
            }
        }
        let _guard = self.append_lock.lock();
        let present = self.row_count();
        if present != 0 {
            return Err(crate::StorageError::TableNotEmpty {
                table: table(),
                rows: present,
            });
        }
        for instance in &self.instances {
            instance.copy_from(columns, 0..columns.len(), &[], 0..rows);
        }
        Ok(())
    }

    /// Update one attribute of a row in the active instance, setting the
    /// update-indication bits. Returns the overwritten value (for the MVCC
    /// delta store).
    pub fn update(
        &self,
        row: RowId,
        column: usize,
        value: &Value,
    ) -> Result<Value, crate::StorageError> {
        let mut cell = value.clone();
        self.update_row(row, std::iter::once((column, &mut cell)))?;
        Ok(cell)
    }

    /// Update several attributes of one row in the active instance. Each
    /// `(column, value)` cell is exchanged in place — afterwards `value`
    /// holds what it overwrote — under one acquisition of its column's lock;
    /// the row's update-indication bit and the relation's presence flag are
    /// set once for the row, not per cell.
    pub fn update_row<'a>(
        &self,
        row: RowId,
        mut cells: impl Iterator<Item = (usize, &'a mut Value)>,
    ) -> Result<(), crate::StorageError> {
        let active = self.active_instance();
        let table = &self.instances[active];
        if row >= table.row_count() {
            return Err(crate::StorageError::RowMissing { row });
        }
        let written = cells.try_for_each(|(column, value)| table.swap_value(row, column, value));
        // Also when a later cell was rejected: the earlier ones are written.
        self.dirty_twin[active].set(row as usize);
        self.update_presence.mark();
        written
    }

    /// Read one attribute of a row from the active instance.
    pub fn get(&self, row: RowId, column: usize) -> Option<Value> {
        self.active().get_value(row, column)
    }

    /// Read one attribute of a row from a specific instance.
    pub fn get_from(&self, instance: InstanceId, row: RowId, column: usize) -> Option<Value> {
        self.instances[instance].get_value(row, column)
    }

    /// Switch the active instance and synchronise the new active instance
    /// from the snapshot (the previously active one), as one step. The caller
    /// (the OLTP engine, holding its switch gate) must have quiesced the
    /// workers: no update may run between the two halves.
    ///
    /// The halves are private because the update bits are per *row* while
    /// writes are per *cell*. Were they separate calls, `update(row, a)` →
    /// switch → `update(row, a')` → sync would copy the stale `a` over the
    /// newer `a'`; the parent of this change avoided that by skipping rows
    /// whose bit was also set on the new active instance, which instead lost
    /// `a` whenever the second write went to another column `b` (the
    /// snapshot's bit was drained without a copy, and the next cycle
    /// overwrote the fresh `a` with the stale one on both instances). With
    /// one entry point neither sequence can be written against the public
    /// API, and the skip — with `skipped_records` — is gone.
    pub fn switch_and_sync(&self) -> SyncOutcome {
        if self.switch_active() {
            self.sync_active_from_snapshot()
        } else {
            SyncOutcome::default()
        }
    }

    /// First half of [`Self::switch_and_sync`]: the previously active
    /// instance becomes the snapshot, bounded at its current row count.
    /// Returns whether the relation was updated since the last switch — its
    /// presence flag, which is cleared: a relation that was not has nothing
    /// to synchronise.
    fn switch_active(&self) -> bool {
        let previous_active = self.active_instance();
        let snapshot_rows = self.instances[previous_active].row_count();
        // The previously-active instance becomes the snapshot: record its
        // visible-row watermark before publishing the switch.
        self.visible_rows[previous_active].store(snapshot_rows, Ordering::Release);
        self.active.store(1 - previous_active, Ordering::Release);
        let updated = self.update_presence.is_set();
        if updated {
            self.update_presence.clear();
        }
        updated
    }

    /// Second half of [`Self::switch_and_sync`]: copy every record whose
    /// update bit is set in the snapshot instance into the active instance —
    /// only the columns flagged as updated there — and clear the consumed
    /// bits and flags. Performed right after the switch (§3.4).
    fn sync_active_from_snapshot(&self) -> SyncOutcome {
        let active = self.active_instance();
        let snapshot = &self.instances[1 - active];
        let pending = self.dirty_twin[1 - active].drain();
        self.olap_pending.set_many(&pending);
        let pending = row_ids(pending);
        let flagged = (0..self.schema.arity()).filter(|&idx| {
            let stats = snapshot.column_stats(idx);
            let updated = stats.is_updated();
            if updated {
                stats.clear_updated();
            }
            updated
        });
        self.instances[active].copy_from(snapshot.columns(), flagged, &pending, 0..0);
        SyncOutcome {
            copied_records: pending.len() as u64,
            copied_bytes: pending.len() as u64 * self.schema.row_width_bytes(),
        }
    }

    /// A read-only snapshot over the inactive instance, bounded at the
    /// visible-row watermark captured at the last switch.
    pub fn snapshot(&self) -> TableSnapshot {
        let inactive = self.inactive_instance();
        TableSnapshot::new(
            self.schema.name.clone(),
            Arc::clone(&self.instances[inactive]),
            self.visible_rows[inactive].load(Ordering::Acquire),
        )
    }

    /// `(propagation watermark, snapshot watermark)`: rows below the first
    /// are in the OLAP instance, rows between the two are inserts it lacks.
    fn olap_watermarks(&self) -> (u64, u64) {
        (
            self.olap_synced_rows.load(Ordering::Acquire),
            self.visible_rows[self.inactive_instance()].load(Ordering::Acquire),
        )
    }

    /// Rows that are fresh with respect to the OLAP instance: updated rows not
    /// yet propagated (whether the update is in the snapshot or newer) plus
    /// rows inserted beyond the propagation watermark, measured against the
    /// current snapshot watermark.
    pub fn fresh_rows_vs_olap(&self) -> u64 {
        let (synced, snapshot_rows) = self.olap_watermarks();
        let since_switch = &self.dirty_twin[self.active_instance()];
        // Updated rows below the synced watermark (those above are counted as inserts).
        let updated = if self.olap_pending.count() + since_switch.count() == 0 {
            0
        } else {
            self.olap_pending
                .count_union_below(since_switch, synced as usize)
        };
        snapshot_rows.saturating_sub(synced) + updated
    }

    /// The delta the OLAP instance lacks against the current snapshot —
    /// `(updated_rows_below_watermark, insert_range)`, the rows ascending —
    /// recorded as propagated in the same pass over the update bits: the
    /// pending bits below the snapshot watermark are swapped out and the
    /// propagation watermark advances to it. This is the one read of the
    /// ledger; the ETL copies the delta, the CoW baseline counts its pages.
    /// Rows updated since the last switch stay pending: their new values
    /// are not in the snapshot.
    pub fn take_olap_delta(&self) -> (Vec<RowId>, Range<u64>) {
        let (synced, snapshot_rows) = self.olap_watermarks();
        let mut updated = row_ids(self.olap_pending.drain_below(snapshot_rows as usize));
        if snapshot_rows > synced {
            self.olap_synced_rows
                .store(snapshot_rows, Ordering::Release);
        }
        // Bits at or above the old watermark belong to the insert range.
        updated.truncate(updated.partition_point(|&row| row < synced));
        (updated, synced..snapshot_rows)
    }

    /// Rows already propagated to the OLAP instance.
    pub fn olap_synced_rows(&self) -> u64 {
        self.olap_synced_rows.load(Ordering::Acquire)
    }

    /// Bytes of one instance of the relation.
    pub fn instance_bytes(&self) -> u64 {
        self.active().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("balance", DataType::F64),
            ],
            Some(0),
        )
    }

    fn row(id: i64, balance: f64) -> Vec<Value> {
        vec![Value::I64(id), Value::F64(balance)]
    }

    #[test]
    fn inserts_go_to_both_instances() {
        let t = TwinTable::new(schema());
        let r = t.insert(&row(1, 100.0)).unwrap();
        assert_eq!(r, 0);
        assert_eq!(t.instance(0).row_count(), 1);
        assert_eq!(t.instance(1).row_count(), 1);
        assert_eq!(t.get_from(0, 0, 1), Some(Value::F64(100.0)));
        assert_eq!(t.get_from(1, 0, 1), Some(Value::F64(100.0)));
    }

    #[test]
    fn updates_touch_only_active_instance_and_set_bits() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 100.0)).unwrap();
        let old = t.update(0, 1, &Value::F64(150.0)).unwrap();
        assert_eq!(old, Value::F64(100.0));
        let active = t.active_instance();
        assert_eq!(t.get_from(active, 0, 1), Some(Value::F64(150.0)));
        assert_eq!(t.get_from(1 - active, 0, 1), Some(Value::F64(100.0)));
        assert!(t.update_presence().is_set());
        assert_eq!(
            t.fresh_rows_vs_olap(),
            0,
            "no switch yet: snapshot watermark is 0"
        );
        assert_eq!(t.switch_and_sync().copied_records, 1, "one bit was set");
    }

    #[test]
    fn switch_exposes_fresh_snapshot_and_sync_catches_up() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 100.0)).unwrap();
        t.insert(&row(2, 200.0)).unwrap();
        t.update(0, 1, &Value::F64(111.0)).unwrap();

        assert!(t.switch_active(), "the relation was updated");
        assert_eq!((t.inactive_instance(), t.active_instance()), (0, 1));
        assert!(
            !t.update_presence().is_set(),
            "the switch consumed the flag"
        );

        // The snapshot (instance 0) holds the updated value.
        let snap = t.snapshot();
        assert_eq!(snap.rows(), 2);
        assert_eq!(snap.table().get_value(0, 1), Some(Value::F64(111.0)));

        // The new active instance still has the stale value until sync.
        assert_eq!(t.get(0, 1), Some(Value::F64(100.0)));
        let sync = t.sync_active_from_snapshot();
        assert_eq!(sync.copied_records, 1);
        assert_eq!(sync.copied_bytes, 16, "a record counts at the row width");
        assert_eq!(t.get(0, 1), Some(Value::F64(111.0)));
        // Bits and flags consumed: the next cycle has nothing to do.
        assert!(!t.instance(0).column_stats(1).is_updated());
        assert_eq!(t.switch_and_sync(), SyncOutcome::default());
    }

    fn wide_schema() -> TableSchema {
        TableSchema::new(
            "wide",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("a", DataType::I64),
                ColumnDef::new("b", DataType::I64),
                ColumnDef::new("name", DataType::Str),
            ],
            Some(0),
        )
    }

    fn wide_table() -> TwinTable {
        let t = TwinTable::new(wide_schema());
        for id in 0..3 {
            t.insert(&[
                Value::I64(id),
                Value::I64(1),
                Value::I64(2),
                Value::from("n"),
            ])
            .unwrap();
        }
        t
    }

    fn assert_row_on_both(t: &TwinTable, row: RowId, expected: &[Value]) {
        for instance in 0..2 {
            assert_eq!(
                t.instance(instance).get_row(row).unwrap(),
                expected,
                "instance {instance}"
            );
        }
    }

    /// The lost-cell sequence of the parent's row-granular skip, through the
    /// private halves (it cannot be written against the public API any
    /// more): a cell written before a switch must survive a write to
    /// *another* cell of its row between that switch and its sync.
    #[test]
    fn cell_written_before_a_switch_survives_a_write_to_its_row_after_it() {
        let t = wide_table();
        t.update(0, 1, &Value::I64(10)).unwrap();
        assert!(t.switch_active());
        t.update(0, 2, &Value::I64(20)).unwrap();
        assert_eq!(t.sync_active_from_snapshot().copied_records, 1);
        // Only the flagged column moved: `a` arrived, the newer `b` stayed.
        assert_eq!(t.get(0, 1), Some(Value::I64(10)));
        assert_eq!(t.get(0, 2), Some(Value::I64(20)));
        // The next cycle carries `b` over and must not bring a stale `a` back.
        assert_eq!(t.switch_and_sync().copied_records, 1);
        let expected = [
            Value::I64(0),
            Value::I64(10),
            Value::I64(20),
            Value::from("n"),
        ];
        assert_row_on_both(&t, 0, &expected);
        assert_eq!(t.switch_and_sync(), SyncOutcome::default());
        assert_row_on_both(&t, 0, &expected);
    }

    #[test]
    fn cells_of_one_row_written_in_different_cycles_all_reach_both_instances() {
        let t = wide_table();
        t.update(1, 1, &Value::I64(10)).unwrap();
        t.update(1, 3, &Value::from("renamed")).unwrap();
        let first = t.switch_and_sync();
        assert_eq!((first.copied_records, first.copied_bytes), (1, 48));
        t.update(1, 2, &Value::I64(20)).unwrap();
        t.update(2, 1, &Value::I64(30)).unwrap();
        assert_eq!(t.switch_and_sync().copied_records, 2);
        t.update(1, 1, &Value::I64(11)).unwrap();
        assert_eq!(t.switch_and_sync().copied_records, 1);
        assert_row_on_both(
            &t,
            1,
            &[
                Value::I64(1),
                Value::I64(11),
                Value::I64(20),
                Value::from("renamed"),
            ],
        );
        assert_row_on_both(
            &t,
            2,
            &[
                Value::I64(2),
                Value::I64(30),
                Value::I64(2),
                Value::from("n"),
            ],
        );
        assert_row_on_both(
            &t,
            0,
            &[
                Value::I64(0),
                Value::I64(1),
                Value::I64(2),
                Value::from("n"),
            ],
        );
    }

    #[test]
    fn update_row_sets_the_row_bits_once_and_swaps_cells_in_place() {
        let t = wide_table();
        let (mut a, mut name) = (Value::I64(10), Value::from("x"));
        t.update_row(2, [(1, &mut a), (3, &mut name)].into_iter())
            .unwrap();
        assert_eq!((a, name), (Value::I64(1), Value::from("n")));
        assert!(t.update_presence().is_set());
        assert!(t.active().column_stats(1).is_updated());
        assert!(!t.active().column_stats(2).is_updated());
        // A rejected cell leaves the earlier ones written and tracked.
        let (mut b, mut bad) = (Value::I64(7), Value::F64(0.0));
        assert!(t
            .update_row(0, [(2, &mut b), (1, &mut bad)].into_iter())
            .is_err());
        assert_eq!(t.get(0, 2), Some(Value::I64(7)));
        assert!(matches!(
            t.update_row(9, std::iter::empty()),
            Err(crate::StorageError::RowMissing { row: 9 })
        ));
        // One bit per written row: row 2's two cells and row 0's.
        assert_eq!(t.switch_and_sync().copied_records, 2);
    }

    #[test]
    fn insert_rows_unchecked_keeps_the_twins_in_step() {
        let t = TwinTable::new(schema());
        t.insert(&row(0, 0.0)).unwrap();
        let batch = [row(1, 1.0), row(2, 2.0), row(3, 3.0)];
        assert_eq!(
            t.insert_rows_unchecked(batch.iter().map(Vec::as_slice)),
            1..4
        );
        for instance in 0..2 {
            assert_eq!(t.instance(instance).row_count(), 4);
            assert_eq!(t.get_from(instance, 3, 1), Some(Value::F64(3.0)));
        }
    }

    #[test]
    fn load_columns_leaves_what_row_inserts_would() {
        let columns = [Column::new(DataType::I64), Column::new(DataType::F64)];
        for id in 0..5 {
            columns[0].append(&Value::I64(id));
            columns[1].append(&Value::F64(id as f64));
        }
        let t = TwinTable::new(schema());
        // Only the first `rows` values of longer columns are loaded.
        t.load_columns(&columns, 4).unwrap();
        let by_inserts = TwinTable::new(schema());
        for id in 0..4 {
            by_inserts.insert(&row(id, id as f64)).unwrap();
        }
        for instance in 0..2 {
            assert_eq!(t.instance(instance).row_count(), 4);
            assert_eq!(t.instance(instance).column(1).len(), 4);
            for r in 0..4 {
                assert_eq!(
                    t.instance(instance).get_row(r),
                    by_inserts.instance(instance).get_row(r)
                );
            }
            assert!(!t.instance(instance).column_stats(1).is_updated());
        }
        // A restore leaves both instances' integer bounds covering the
        // loaded values (here: the loaded columns' own, all five values).
        for instance in 0..2 {
            assert_eq!(t.instance(instance).column(0).bounds(), Some((0, 4)));
            assert_eq!(t.instance(instance).column(1).bounds(), None);
        }
        assert_eq!(t.fresh_rows_vs_olap(), by_inserts.fresh_rows_vs_olap());
        assert!(!t.update_presence().is_set());
        assert_eq!(t.olap_synced_rows(), 0);
        assert_eq!(t.switch_and_sync(), SyncOutcome::default());
        assert_eq!(t.take_olap_delta(), (vec![], 0..4));

        // Typed rejections: the relation holds rows, the shape disagrees
        // with the schema, a column is shorter than the load.
        assert!(matches!(
            t.load_columns(&columns, 1),
            Err(crate::StorageError::TableNotEmpty { rows: 4, .. })
        ));
        let empty = TwinTable::new(schema());
        assert!(matches!(
            empty.load_columns(&columns[..1], 1),
            Err(crate::StorageError::ArityMismatch { got: 1, .. })
        ));
        let swapped = [Column::new(DataType::F64), Column::new(DataType::I64)];
        assert!(matches!(
            empty.load_columns(&swapped, 0),
            Err(crate::StorageError::TypeMismatch { column: 0, .. })
        ));
        assert!(matches!(
            empty.load_columns(&columns, 6),
            Err(crate::StorageError::RowOutOfRange { rows: 5, .. })
        ));
        assert_eq!(empty.row_count(), 0);
    }

    #[test]
    fn inserts_become_visible_to_snapshot_only_after_switch() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 1.0)).unwrap();
        t.switch_and_sync();
        t.insert(&row(2, 2.0)).unwrap();
        let snap = t.snapshot();
        assert_eq!(
            snap.rows(),
            1,
            "row inserted after the switch is not yet visible"
        );
        t.switch_and_sync();
        let snap = t.snapshot();
        assert_eq!(snap.rows(), 2);
    }

    #[test]
    fn olap_freshness_tracking_counts_inserts_and_updates() {
        let t = TwinTable::new(schema());
        for i in 0..10 {
            t.insert(&row(i, i as f64)).unwrap();
        }
        t.switch_and_sync();
        // Nothing propagated yet: all 10 visible rows are fresh.
        assert_eq!(t.fresh_rows_vs_olap(), 10);
        assert_eq!(t.take_olap_delta(), (vec![], 0..10));
        assert_eq!(t.fresh_rows_vs_olap(), 0);
        assert_eq!(t.olap_synced_rows(), 10);

        // New update + new insert become fresh after the next switch.
        t.update(3, 1, &Value::F64(33.0)).unwrap();
        t.insert(&row(100, 100.0)).unwrap();
        assert_eq!(
            t.fresh_rows_vs_olap(),
            1,
            "update counts immediately; insert waits for switch"
        );
        t.switch_and_sync();
        assert_eq!(t.fresh_rows_vs_olap(), 2);
        assert_eq!(t.take_olap_delta(), (vec![3], 10..11));
        assert_eq!(t.fresh_rows_vs_olap(), 0);
    }

    #[test]
    fn take_olap_delta_returns_and_consumes_the_delta_in_one_pass() {
        let t = TwinTable::new(schema());
        for i in 0..10 {
            t.insert(&row(i, i as f64)).unwrap();
        }
        t.switch_and_sync();
        assert_eq!(t.take_olap_delta(), (vec![], 0..10));
        assert_eq!(t.take_olap_delta(), (vec![], 10..10), "nothing is left");

        // An updated old row, and a new row that is updated before the switch
        // (its bit lies in the insert range and is consumed with it).
        t.update(3, 1, &Value::F64(33.0)).unwrap();
        t.insert(&row(10, 10.0)).unwrap();
        t.update(10, 1, &Value::F64(11.0)).unwrap();
        t.switch_and_sync();
        // A row inserted and updated after the switch stays pending.
        t.insert(&row(11, 11.0)).unwrap();
        t.update(11, 1, &Value::F64(12.0)).unwrap();
        assert_eq!(t.fresh_rows_vs_olap(), 2);
        assert_eq!(t.take_olap_delta(), (vec![3], 10..11));
        assert_eq!(t.olap_synced_rows(), 11);
        assert_eq!(t.fresh_rows_vs_olap(), 0, "row 11 waits for the switch");
        t.switch_and_sync();
        assert_eq!(t.take_olap_delta(), (vec![], 11..12));
    }

    #[test]
    fn an_update_after_the_switch_is_not_consumed_by_that_snapshots_etl() {
        let t = TwinTable::new(schema());
        t.insert(&row(0, 0.0)).unwrap();
        t.switch_and_sync();
        t.take_olap_delta();
        t.update(0, 1, &Value::F64(1.0)).unwrap();
        t.switch_and_sync();
        // Ingest goes on between a query's switch and its ETL: this value is
        // not in the snapshot the ETL copies from.
        t.update(0, 1, &Value::F64(2.0)).unwrap();
        assert_eq!(t.fresh_rows_vs_olap(), 1, "one row, updated twice");
        assert_eq!(t.take_olap_delta(), (vec![0], 1..1));
        assert_eq!(t.fresh_rows_vs_olap(), 1, "the newer update is still owed");
        t.switch_and_sync();
        assert_eq!(t.take_olap_delta(), (vec![0], 1..1));
        assert_eq!(t.fresh_rows_vs_olap(), 0);
    }

    #[test]
    fn concurrent_inserts_keep_twins_in_step() {
        let t = TwinTable::new(schema());
        std::thread::scope(|scope| {
            for w in 0..4i64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..200i64 {
                        t.insert(&row(w * 1000 + i, i as f64)).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.instance(0).row_count(), 800);
        assert_eq!(t.instance(1).row_count(), 800);
        // Both instances hold the identical row at every id — interleaved
        // appends across writers must never cross-assign rows.
        for r in 0..800 {
            let id = t.get_from(0, r, 0);
            assert!(id.is_some());
            assert_eq!(id, t.get_from(1, r, 0), "row {r} diverged");
            assert_eq!(t.get_from(0, r, 1), t.get_from(1, r, 1), "row {r} diverged");
        }
    }

    #[test]
    fn consecutive_switches_alternate_instances() {
        let t = TwinTable::new(schema());
        assert_eq!(t.active_instance(), 0);
        t.switch_and_sync();
        assert_eq!(t.active_instance(), 1);
        t.switch_and_sync();
        assert_eq!(t.active_instance(), 0);
    }
}
