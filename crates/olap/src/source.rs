//! Access-path plugins: how a query reads a relation.
//!
//! The paper's OLAP storage manager "is agnostic of the data format and
//! layout. The data access paths are decided by input plugins ... In our HTAP
//! setting, we use two access methods. The first method considers that data
//! are stored in the same contiguous memory area. The second method considers
//! that data are partitioned in several (contiguous) memory areas, and it is
//! useful when we need to access only the fresh data from the OLTP storage and
//! the rest from the OLAP storage" (§3.3).
//!
//! A [`ScanSource`] is a list of [`ScanSegmentSource`]s; a single segment is
//! the contiguous access method, several segments are the partitioned /
//! split-access method. Each segment carries the socket its memory lives on
//! so that work accounting and the cost model stay NUMA-aware.

use crate::block::Block;
use crate::error::OlapError;
use crate::morsel::{split_morsels, Morsel};
use htap_sim::SocketId;
use htap_storage::{ColumnarTable, DataType, TableSnapshot};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Provenance of a segment (used for reporting and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOrigin {
    /// Rows served from the OLAP engine's own instance.
    OlapInstance,
    /// Rows served from an OLTP twin-instance snapshot (fresh data).
    OltpSnapshot,
}

/// One contiguous memory area of a relation, visible to a query.
#[derive(Debug, Clone)]
pub struct ScanSegmentSource {
    /// The columnar instance holding the rows.
    pub table: Arc<ColumnarTable>,
    /// Row range served by this segment.
    pub rows: Range<u64>,
    /// Socket whose DRAM holds the segment.
    pub socket: SocketId,
    /// Where the segment comes from.
    pub origin: SegmentOrigin,
}

impl ScanSegmentSource {
    /// Number of rows in the segment.
    pub fn row_count(&self) -> u64 {
        self.rows.end.saturating_sub(self.rows.start)
    }
}

/// The access path of one relation for one query.
#[derive(Debug, Clone)]
pub struct ScanSource {
    /// Relation name.
    pub table: String,
    /// Ordered list of contiguous segments.
    pub segments: Vec<ScanSegmentSource>,
}

impl ScanSource {
    /// Contiguous access method over an OLTP snapshot (states S1/S3 full
    /// remote, or any query over the freshest twin instance).
    pub fn contiguous_snapshot(snapshot: &TableSnapshot, socket: SocketId) -> Self {
        ScanSource {
            table: snapshot.name().to_string(),
            segments: vec![ScanSegmentSource {
                table: Arc::clone(snapshot.table()),
                rows: 0..snapshot.rows(),
                socket,
                origin: SegmentOrigin::OltpSnapshot,
            }],
        }
    }

    /// Contiguous access method over the OLAP engine's own instance.
    pub fn contiguous_olap(
        name: impl Into<String>,
        table: Arc<ColumnarTable>,
        rows: u64,
        socket: SocketId,
    ) -> Self {
        ScanSource {
            table: name.into(),
            segments: vec![ScanSegmentSource {
                table,
                rows: 0..rows,
                socket,
                origin: SegmentOrigin::OlapInstance,
            }],
        }
    }

    /// Partitioned (split-access) method: OLAP-local rows `[0, olap_rows)`
    /// plus the fresh tail `[olap_rows, snapshot.rows())` read from the OLTP
    /// snapshot (§3.3, §5.2 "split-access").
    pub fn split(
        olap_table: Arc<ColumnarTable>,
        olap_rows: u64,
        olap_socket: SocketId,
        snapshot: &TableSnapshot,
        oltp_socket: SocketId,
    ) -> Self {
        let mut segments = Vec::new();
        if olap_rows > 0 {
            segments.push(ScanSegmentSource {
                table: olap_table,
                rows: 0..olap_rows,
                socket: olap_socket,
                origin: SegmentOrigin::OlapInstance,
            });
        }
        if snapshot.rows() > olap_rows {
            segments.push(ScanSegmentSource {
                table: Arc::clone(snapshot.table()),
                rows: olap_rows..snapshot.rows(),
                socket: oltp_socket,
                origin: SegmentOrigin::OltpSnapshot,
            });
        }
        ScanSource {
            table: snapshot.name().to_string(),
            segments,
        }
    }

    /// Total rows across segments.
    pub fn total_rows(&self) -> u64 {
        self.segments.iter().map(ScanSegmentSource::row_count).sum()
    }

    /// Bytes the query will read from each socket if it accesses `columns`
    /// of this source (columnar accounting). This is the input of the cost
    /// model's [`htap_sim::ScanWork`].
    pub fn bytes_per_socket(&self, columns: &[&str]) -> BTreeMap<SocketId, u64> {
        let mut out = BTreeMap::new();
        for seg in &self.segments {
            let schema = seg.table.schema();
            let width: u64 = columns
                .iter()
                .filter_map(|c| schema.column_index(c))
                .map(|i| schema.column(i).dtype.width_bytes())
                .sum();
            *out.entry(seg.socket).or_insert(0) += seg.row_count() * width;
        }
        out
    }

    /// Rows served from OLTP snapshots (fresh rows accessed by the query).
    pub fn fresh_rows(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.origin == SegmentOrigin::OltpSnapshot)
            .map(ScanSegmentSource::row_count)
            .sum()
    }

    /// The smallest and largest value of integer column `column` over the
    /// source: the union of the storage-kept bounds
    /// ([`htap_storage::Column::bounds`]) of every segment's instance, read
    /// without a pass over the rows. Conservative — an instance's bounds
    /// cover every value it has held, in or out of the segment's rows — and
    /// `None` when no segment's instance holds a value of the column (or
    /// the column is unknown or not an integer one).
    pub fn column_bounds(&self, column: &str) -> Option<(i64, i64)> {
        self.segments
            .iter()
            .filter_map(|seg| seg.table.column_by_name(column)?.bounds())
            .reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
    }

    /// Split the source into [`Morsel`]s of at most `morsel_rows` rows — the
    /// claimable work units of the parallel executor. Like
    /// [`split_morsels`], a `morsel_rows` of zero means one (unsplit) morsel
    /// per segment.
    pub fn morsels(&self, morsel_rows: usize) -> Vec<Morsel> {
        split_morsels(self, morsel_rows)
    }

    /// Resolve the column lists of one pipeline against every segment of
    /// this source, exactly once per query (plan-bind time).
    ///
    /// The returned [`BoundLayout`] carries, per segment, the column indices
    /// and dtypes of the `numeric` and `keys` load lists plus the byte width
    /// of one row over the `accessed` columns — so the steady-state morsel
    /// loop never repeats a name lookup, a dtype check or a width sum (the
    /// per-morsel byte accounting becomes one multiplication, consistent
    /// with [`ScanSource::bytes_per_socket`]).
    ///
    /// Binding validates eagerly: unknown columns and role-incompatible
    /// dtypes (strings as numerics, floats as keys) are typed errors here,
    /// before any morsel is claimed.
    pub fn bind_columns(
        &self,
        numeric: &[&str],
        keys: &[&str],
        accessed: &[&str],
    ) -> Result<BoundLayout, OlapError> {
        let mut segments = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            let schema = seg.table.schema();
            let resolve = |col: &str| {
                schema
                    .column_index(col)
                    .ok_or_else(|| OlapError::UnknownColumn {
                        table: self.table.clone(),
                        column: col.to_string(),
                    })
            };
            let mut numeric_cols = Vec::with_capacity(numeric.len());
            for &col in numeric {
                let index = resolve(col)?;
                let dtype = schema.column(index).dtype;
                if !matches!(dtype, DataType::F64 | DataType::I64 | DataType::I32) {
                    return Err(OlapError::UnsupportedColumnType {
                        table: self.table.clone(),
                        column: col.to_string(),
                        role: "a numeric input",
                    });
                }
                numeric_cols.push(BoundColumn { index, dtype });
            }
            let mut key_cols = Vec::with_capacity(keys.len());
            for &col in keys {
                let index = resolve(col)?;
                let dtype = schema.column(index).dtype;
                if !matches!(dtype, DataType::I64 | DataType::I32) {
                    return Err(OlapError::UnsupportedColumnType {
                        table: self.table.clone(),
                        column: col.to_string(),
                        role: "a key",
                    });
                }
                key_cols.push(BoundColumn { index, dtype });
            }
            let accessed_row_bytes: u64 = accessed
                .iter()
                .filter_map(|c| schema.column_index(c))
                .map(|i| schema.column(i).dtype.width_bytes())
                .sum();
            segments.push(SegmentBinding {
                numeric: numeric_cols,
                keys: key_cols,
                accessed_row_bytes,
            });
        }
        Ok(BoundLayout { segments })
    }

    /// Materialise the block of one morsel: `numeric` columns converted to
    /// `f64`, `keys` columns to `i64`.
    pub fn read_morsel(
        &self,
        morsel: &Morsel,
        numeric: &[&str],
        keys: &[&str],
    ) -> Result<Block, OlapError> {
        let seg = &self.segments[morsel.segment];
        let schema = seg.table.schema();
        let start = morsel.rows.start;
        let len = morsel.row_count();
        let mut block = Block::new(len, morsel.socket);
        for &col in numeric {
            let idx = schema
                .column_index(col)
                .ok_or_else(|| OlapError::UnknownColumn {
                    table: self.table.clone(),
                    column: col.to_string(),
                })?;
            let values = read_numeric(&seg.table, idx, start, len).ok_or_else(|| {
                OlapError::UnsupportedColumnType {
                    table: self.table.clone(),
                    column: col.to_string(),
                    role: "a numeric input",
                }
            })?;
            block.add_numeric(col, values);
        }
        for &col in keys {
            let idx = schema
                .column_index(col)
                .ok_or_else(|| OlapError::UnknownColumn {
                    table: self.table.clone(),
                    column: col.to_string(),
                })?;
            let values = read_key(&seg.table, idx, start, len).ok_or_else(|| {
                OlapError::UnsupportedColumnType {
                    table: self.table.clone(),
                    column: col.to_string(),
                    role: "a key",
                }
            })?;
            block.add_key(col, values);
        }
        Ok(block)
    }

    /// Produce the blocks of the requested columns, one segment at a time,
    /// `block_rows` tuples per block (zero = one block per segment).
    /// `numeric` columns are converted to `f64`; `keys` columns to `i64`.
    ///
    /// This is the sequential view of the morsel split: one block per morsel,
    /// in morsel order. The parallel executor claims the same morsels from
    /// worker threads instead. Stops at — and reports — the first morsel
    /// that cannot be materialised (unknown column, unsupported type).
    pub fn for_each_block<F: FnMut(Block)>(
        &self,
        numeric: &[&str],
        keys: &[&str],
        block_rows: usize,
        mut f: F,
    ) -> Result<(), OlapError> {
        for morsel in self.morsels(block_rows) {
            f(self.read_morsel(&morsel, numeric, keys)?);
        }
        Ok(())
    }
}

/// One load-list column resolved against one segment's schema.
#[derive(Debug, Clone, Copy)]
pub struct BoundColumn {
    /// Index of the column within the segment's schema.
    pub index: usize,
    /// The column's storage type (decides borrow vs convert at load time).
    pub dtype: DataType,
}

/// One segment's resolved load lists plus its per-row accounting width.
#[derive(Debug, Clone)]
pub struct SegmentBinding {
    /// Resolved numeric load list (aligned with the pipeline's list).
    pub numeric: Vec<BoundColumn>,
    /// Resolved key load list (aligned with the pipeline's list).
    pub keys: Vec<BoundColumn>,
    /// Bytes one row contributes over the accessed columns.
    pub accessed_row_bytes: u64,
}

/// A pipeline's column lists resolved against every segment of a source —
/// the bind-time product of [`ScanSource::bind_columns`].
#[derive(Debug, Clone)]
pub struct BoundLayout {
    /// One binding per source segment, index-aligned with
    /// [`ScanSource::segments`].
    pub segments: Vec<SegmentBinding>,
}

fn read_numeric(table: &ColumnarTable, column: usize, start: u64, len: usize) -> Option<Vec<f64>> {
    let col = table.column(column);
    let s = start as usize;
    match col.dtype() {
        DataType::F64 => Some(col.with_f64(s + len, |v| v[s..s + len].to_vec())),
        DataType::I64 => Some(col.with_i64(s + len, |v| {
            v[s..s + len].iter().map(|&x| x as f64).collect()
        })),
        DataType::I32 => Some(col.with_i32(s + len, |v| {
            v[s..s + len].iter().map(|&x| x as f64).collect()
        })),
        DataType::Str => None,
    }
}

fn read_key(table: &ColumnarTable, column: usize, start: u64, len: usize) -> Option<Vec<i64>> {
    let col = table.column(column);
    let s = start as usize;
    match col.dtype() {
        DataType::I64 => Some(col.with_i64(s + len, |v| v[s..s + len].to_vec())),
        DataType::I32 => Some(col.with_i32(s + len, |v| {
            v[s..s + len].iter().map(|&x| x as i64).collect()
        })),
        DataType::F64 | DataType::Str => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_storage::{ColumnDef, TableSchema, Value};

    fn table_with(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "lineitem",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("qty", DataType::I32),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[
                Value::I64(i as i64),
                Value::I32((i % 10) as i32),
                Value::F64(i as f64 * 1.5),
            ])
            .unwrap();
        }
        Arc::new(t)
    }

    #[test]
    fn contiguous_source_produces_all_rows_in_blocks() {
        let table = table_with(100);
        let snap = TableSnapshot::new("lineitem".into(), table, 100);
        let src = ScanSource::contiguous_snapshot(&snap, SocketId(0));
        assert_eq!(src.total_rows(), 100);
        assert_eq!(src.fresh_rows(), 100);
        let mut rows = 0usize;
        let mut blocks = 0usize;
        let mut sum = 0.0;
        src.for_each_block(&["amount"], &["id"], 32, |b| {
            rows += b.rows();
            blocks += 1;
            sum += b.numeric("amount").unwrap().iter().sum::<f64>();
            assert_eq!(b.socket(), SocketId(0));
        })
        .unwrap();
        assert_eq!(rows, 100);
        assert_eq!(blocks, 4); // 32+32+32+4
        assert_eq!(sum, (0..100).map(|i| i as f64 * 1.5).sum::<f64>());
    }

    #[test]
    fn split_source_partitions_rows_between_sockets() {
        let olap = table_with(80);
        let oltp = table_with(100);
        let snap = TableSnapshot::new("lineitem".into(), oltp, 100);
        let src = ScanSource::split(olap, 80, SocketId(1), &snap, SocketId(0));
        assert_eq!(src.segments.len(), 2);
        assert_eq!(src.total_rows(), 100);
        assert_eq!(src.fresh_rows(), 20);
        let bytes = src.bytes_per_socket(&["amount"]);
        assert_eq!(bytes[&SocketId(1)], 80 * 8);
        assert_eq!(bytes[&SocketId(0)], 20 * 8);

        let mut seen_sockets = Vec::new();
        let mut rows = 0;
        src.for_each_block(&["amount", "qty"], &[], 64, |b| {
            seen_sockets.push(b.socket());
            rows += b.rows();
        })
        .unwrap();
        assert_eq!(rows, 100);
        assert!(seen_sockets.contains(&SocketId(0)) && seen_sockets.contains(&SocketId(1)));
    }

    #[test]
    fn split_source_with_no_fresh_tail_has_single_segment() {
        let olap = table_with(50);
        let oltp = table_with(50);
        let snap = TableSnapshot::new("lineitem".into(), oltp, 50);
        let src = ScanSource::split(olap, 50, SocketId(1), &snap, SocketId(0));
        assert_eq!(src.segments.len(), 1);
        assert_eq!(src.fresh_rows(), 0);
        assert_eq!(src.segments[0].origin, SegmentOrigin::OlapInstance);
    }

    #[test]
    fn olap_contiguous_source_reports_olap_origin() {
        let olap = table_with(10);
        let src = ScanSource::contiguous_olap("lineitem", olap, 10, SocketId(1));
        assert_eq!(src.fresh_rows(), 0);
        assert_eq!(src.segments[0].origin, SegmentOrigin::OlapInstance);
        // i32 column can serve as both numeric and key.
        let mut key_sum = 0i64;
        src.for_each_block(&["qty"], &["qty"], 0, |b| {
            key_sum += b.key("qty").unwrap().iter().sum::<i64>();
        })
        .unwrap();
        assert_eq!(key_sum, (0..10).map(|i| i % 10).sum::<i64>());
    }

    #[test]
    fn bytes_per_socket_accounts_column_widths() {
        let table = table_with(10);
        let snap = TableSnapshot::new("lineitem".into(), table, 10);
        let src = ScanSource::contiguous_snapshot(&snap, SocketId(0));
        let bytes = src.bytes_per_socket(&["id", "qty", "amount"]);
        assert_eq!(bytes[&SocketId(0)], 10 * (8 + 4 + 8));
    }

    #[test]
    fn unknown_column_is_a_typed_error() {
        let table = table_with(5);
        let snap = TableSnapshot::new("lineitem".into(), table, 5);
        let err = ScanSource::contiguous_snapshot(&snap, SocketId(0))
            .for_each_block(&["nope"], &[], 0, |_| {})
            .unwrap_err();
        assert_eq!(
            err,
            OlapError::UnknownColumn {
                table: "lineitem".into(),
                column: "nope".into()
            }
        );
    }
}
