//! Columnar tables: a schema plus one [`Column`] per attribute.
//!
//! A `ColumnarTable` is one *instance* of a relation. The twin-instance
//! machinery in [`crate::twin`] owns two of them per relation plus the OLAP
//! engine's own instance.

use crate::column::Column;
use crate::schema::{TableSchema, Value};
use crate::stats::ColumnStats;
use crate::RowId;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// One columnar instance of a relation.
#[derive(Debug)]
pub struct ColumnarTable {
    schema: TableSchema,
    columns: Vec<Column>,
    column_stats: Vec<ColumnStats>,
    /// Number of fully appended rows (published after all columns are written).
    row_count: AtomicU64,
}

impl ColumnarTable {
    /// Create an empty instance for `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| Column::new(c.dtype))
            .collect();
        let column_stats = schema
            .columns
            .iter()
            .map(|_| ColumnStats::default())
            .collect();
        ColumnarTable {
            schema,
            columns,
            column_stats,
            row_count: AtomicU64::new(0),
        }
    }

    /// Create an empty instance with per-column capacity pre-allocated.
    pub fn with_capacity(schema: TableSchema, rows: usize) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| Column::with_capacity(c.dtype, rows))
            .collect();
        let column_stats = schema
            .columns
            .iter()
            .map(|_| ColumnStats::default())
            .collect();
        ColumnarTable {
            schema,
            columns,
            column_stats,
            row_count: AtomicU64::new(0),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of committed rows.
    pub fn row_count(&self) -> u64 {
        self.row_count.load(Ordering::Acquire)
    }

    /// Column accessor by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column accessor by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.column_index(name).map(|i| &self.columns[i])
    }

    /// Statistics of column `idx`.
    pub fn column_stats(&self, idx: usize) -> &ColumnStats {
        &self.column_stats[idx]
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Total bytes of the instance in columnar representation.
    pub fn bytes(&self) -> u64 {
        self.row_count() * self.schema.row_width_bytes()
    }

    /// Append a row; returns its [`RowId`]. The row must match the schema.
    pub fn append_row(&self, row: &[Value]) -> Result<RowId, crate::StorageError> {
        self.schema.check_row(row)?;
        Ok(self.append_rows_unchecked(std::iter::once(row)).start)
    }

    /// Append a batch of rows known to match the schema (validation is the
    /// caller's, once per row), one column at a time: each column's lock is
    /// taken once per batch. Returns the row ids the batch occupies.
    pub fn append_rows_unchecked<'a>(
        &self,
        rows: impl Iterator<Item = &'a [Value]> + Clone,
    ) -> Range<RowId> {
        for (idx, col) in self.columns.iter().enumerate() {
            col.append_each(rows.clone().map(|row| &row[idx]));
        }
        // Publish the rows only after every column holds them.
        let appended = rows.count() as u64;
        let first = self.row_count.fetch_add(appended, Ordering::AcqRel);
        first..first + appended
    }

    /// Exchange one attribute of an existing row with `value`: the instance
    /// takes the new value, `value` receives the overwritten one (which the
    /// MVCC delta store keeps), and the column is flagged as updated.
    pub fn swap_value(
        &self,
        row: RowId,
        column: usize,
        value: &mut Value,
    ) -> Result<(), crate::StorageError> {
        if row >= self.row_count() {
            return Err(crate::StorageError::RowOutOfRange {
                table: self.schema.name.clone(),
                row,
                rows: self.row_count(),
            });
        }
        if value.data_type() != self.schema.columns[column].dtype {
            return Err(crate::StorageError::TypeMismatch {
                table: self.schema.name.clone(),
                column,
                expected: self.schema.columns[column].dtype,
                got: value.data_type(),
            });
        }
        self.columns[column].swap(row as usize, value);
        self.column_stats[column].mark_updated();
        Ok(())
    }

    /// Read one attribute of a row.
    pub fn get_value(&self, row: RowId, column: usize) -> Option<Value> {
        if row >= self.row_count() {
            return None;
        }
        self.columns[column].get(row as usize)
    }

    /// Read a whole row.
    pub fn get_row(&self, row: RowId) -> Option<Vec<Value>> {
        if row >= self.row_count() {
            return None;
        }
        Some(
            self.columns
                .iter()
                // lint:allow(no-panic): row < row_count was checked above, and values are appended to every column before row_count is published
                .map(|c| c.get(row as usize).expect("row published but column short"))
                .collect(),
        )
    }

    /// Copy `rows` and then the contiguous `range` of the columns `src` into
    /// this instance, column at a time over `columns`, growing this instance
    /// if necessary (see [`Column::copy_from`]). `src` must hold one column
    /// per attribute of this instance's schema, of the same types: another
    /// instance's [`Self::columns`] (twin synchronisation, ETL) or the
    /// decoded segments of a checkpoint (restore).
    pub fn copy_from(
        &self,
        src: &[Column],
        columns: impl Iterator<Item = usize>,
        rows: &[RowId],
        range: Range<RowId>,
    ) {
        debug_assert_eq!(self.schema.arity(), src.len());
        for idx in columns {
            self.columns[idx].copy_from(&src[idx], rows, range.clone());
        }
        // Publishing: the row count only grows, never shrinks.
        let copied_up_to = rows.iter().max().map_or(0, |&row| row + 1);
        let range_end = if range.is_empty() { 0 } else { range.end };
        self.row_count
            .fetch_max(copied_up_to.max(range_end), Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn item_schema() -> TableSchema {
        TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64),
                ColumnDef::new("i_price", DataType::F64),
                ColumnDef::new("i_name", DataType::Str),
            ],
            Some(0),
        )
    }

    fn row(id: i64, price: f64, name: &str) -> Vec<Value> {
        vec![Value::I64(id), Value::F64(price), Value::from(name)]
    }

    #[test]
    fn append_and_read_rows() {
        let t = ColumnarTable::new(item_schema());
        let r0 = t.append_row(&row(1, 9.5, "bolt")).unwrap();
        let r1 = t.append_row(&row(2, 3.25, "nut")).unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get_value(1, 1), Some(Value::F64(3.25)));
        assert_eq!(t.get_row(0).unwrap()[2], Value::from("bolt"));
        assert_eq!(t.get_row(5), None);
    }

    #[test]
    fn append_rejects_schema_violation() {
        let t = ColumnarTable::new(item_schema());
        assert!(t.append_row(&[Value::I64(1)]).is_err());
        assert!(t
            .append_row(&[Value::F64(1.0), Value::F64(1.0), Value::from("x")])
            .is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn update_marks_column_stats() {
        let t = ColumnarTable::new(item_schema());
        t.append_row(&row(1, 9.5, "bolt")).unwrap();
        assert!(!t.column_stats(1).is_updated());
        t.swap_value(0, 1, &mut Value::F64(10.0)).unwrap();
        assert!(t.column_stats(1).is_updated());
        assert_eq!(t.get_value(0, 1), Some(Value::F64(10.0)));
    }

    #[test]
    fn update_rejects_bad_row_or_type() {
        let t = ColumnarTable::new(item_schema());
        t.append_row(&row(1, 9.5, "bolt")).unwrap();
        assert!(t.swap_value(3, 1, &mut Value::F64(1.0)).is_err());
        assert!(t.swap_value(0, 1, &mut Value::I64(1)).is_err());
    }

    #[test]
    fn bytes_accounting_scales_with_rows() {
        let t = ColumnarTable::new(item_schema());
        assert_eq!(t.bytes(), 0);
        for i in 0..10 {
            t.append_row(&row(i, 1.0, "x")).unwrap();
        }
        assert_eq!(t.bytes(), 10 * (8 + 8 + 24));
    }

    #[test]
    fn append_rows_unchecked_appends_a_batch_and_publishes_it_once() {
        let t = ColumnarTable::new(item_schema());
        t.append_row(&row(0, 0.0, "first")).unwrap();
        let batch = [row(1, 1.0, "a"), row(2, 2.0, "b")];
        let ids = t.append_rows_unchecked(batch.iter().map(Vec::as_slice));
        assert_eq!(ids, 1..3);
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.get_row(2).unwrap(), row(2, 2.0, "b"));
        assert_eq!(t.append_rows_unchecked(std::iter::empty()), 3..3);
    }

    #[test]
    fn swap_value_hands_back_the_overwritten_value() {
        let t = ColumnarTable::new(item_schema());
        t.append_row(&row(1, 9.5, "bolt")).unwrap();
        let mut value = Value::from("nut");
        t.swap_value(0, 2, &mut value).unwrap();
        assert_eq!(value, Value::from("bolt"));
        assert_eq!(t.get_value(0, 2), Some(Value::from("nut")));
        assert!(t.column_stats(2).is_updated());
        assert!(t.swap_value(0, 2, &mut Value::I64(1)).is_err());
        assert!(t.swap_value(9, 2, &mut Value::from("x")).is_err());
    }

    #[test]
    fn copy_from_replicates_selected_columns_and_publishes() {
        let schema = item_schema();
        let src = ColumnarTable::new(schema.clone());
        let dst = ColumnarTable::new(schema);
        for i in 0..5 {
            src.append_row(&row(i, i as f64, "n")).unwrap();
        }
        dst.copy_from(src.columns(), 0..3, &[4], 0..0);
        assert_eq!(dst.row_count(), 5);
        assert_eq!(dst.get_row(4).unwrap(), row(4, 4.0, "n"));
        // Earlier rows exist as zero-filled placeholders until copied.
        assert_eq!(dst.get_row(2).unwrap(), row(0, 0.0, ""));
        dst.copy_from(src.columns(), 0..3, &[2], 0..0);
        assert_eq!(dst.get_value(2, 1), Some(Value::F64(2.0)));
        assert_eq!(dst.row_count(), 5, "row count must not shrink");
        // Only the selected columns are touched; an inserted range extends.
        let other = ColumnarTable::new(item_schema());
        other.copy_from(src.columns(), [1usize].into_iter(), &[], 0..2);
        assert_eq!(other.row_count(), 2);
        assert_eq!(other.column(1).len(), 2);
        assert_eq!(other.column(0).len(), 0);
    }

    #[test]
    fn column_by_name_lookup() {
        let t = ColumnarTable::new(item_schema());
        assert!(t.column_by_name("i_price").is_some());
        assert!(t.column_by_name("nope").is_none());
    }
}
