//! Read-only snapshots over inactive twin instances.
//!
//! A [`TableSnapshot`] is what the RDE engine hands to the OLAP engine after
//! an instance switch: an immutable view of one columnar instance bounded at
//! the visible-row watermark captured at switch time. The OLAP engine reads
//! the instance's columns in place (`table().column(..)`), up to
//! [`TableSnapshot::rows`], without any synchronisation with the
//! transactional side. Snapshots are taken per relation, when a query's
//! scan source is built; there is no database-wide handle.

use crate::table::ColumnarTable;
use std::sync::Arc;

/// An immutable, row-bounded view over one columnar instance of a relation.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    name: String,
    table: Arc<ColumnarTable>,
    rows: u64,
}

impl TableSnapshot {
    /// Create a snapshot over `table`, exposing the first `rows` rows.
    pub fn new(name: String, table: Arc<ColumnarTable>, rows: u64) -> Self {
        TableSnapshot { name, table, rows }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying columnar instance. Readers must respect [`Self::rows`].
    pub fn table(&self) -> &Arc<ColumnarTable> {
        &self.table
    }

    /// Number of rows visible in the snapshot.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes of the visible part of the snapshot (columnar accounting).
    pub fn bytes(&self) -> u64 {
        self.rows * self.table.schema().row_width_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema, Value};

    fn table_with_rows(n: i64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::I64),
                ColumnDef::new("v", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i), Value::F64(i as f64 * 2.0)])
                .unwrap();
        }
        Arc::new(t)
    }

    #[test]
    fn snapshot_bounds_scans_to_watermark() {
        let table = table_with_rows(100);
        let snap = TableSnapshot::new("t".into(), table, 40);
        assert_eq!(snap.rows(), 40);
        assert_eq!(snap.name(), "t");
        // A reader bounds its column slices at the watermark.
        let bound = snap.rows() as usize;
        let sum = snap.table().column(0).with_i64(bound, |s| {
            assert_eq!(s.len(), 40);
            s.iter().sum::<i64>()
        });
        assert_eq!(sum, (0..40).sum::<i64>());
        let fsum = snap
            .table()
            .column(1)
            .with_f64(bound, |s| s.iter().sum::<f64>());
        assert_eq!(fsum, (0..40).map(|i| i as f64 * 2.0).sum::<f64>());
    }

    #[test]
    fn snapshot_byte_accounting() {
        let table = table_with_rows(10);
        let snap = TableSnapshot::new("t".into(), Arc::clone(&table), 10);
        assert_eq!(snap.bytes(), 10 * 16);
        assert_eq!(TableSnapshot::new("t".into(), table, 4).bytes(), 4 * 16);
    }
}
