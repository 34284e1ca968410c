//! Typed, append-friendly columns.
//!
//! Each column stores its values contiguously (one `Vec` per type), which is
//! what gives the OLAP engine sequential scans at memory bandwidth over the
//! inactive twin instance (§3.2: "each instance keeps data in a columnar
//! layout, to allow the OLAP engine to perform fast scans"). Columns are
//! individually lockable so that transactional appends/updates on the active
//! instance never conflict with scans of the inactive one.

use crate::schema::{DataType, Value};
use crate::RowId;
use parking_lot::{RwLock, RwLockReadGuard};
use std::ops::Range;

/// Rows a range copy moves under one pair of locks. A transaction's insert
/// appends to the snapshot instance too, so it waits for the copy's read
/// guard: a chunk bounds that wait to tens of microseconds while the locks
/// still cost nothing per row.
const COPY_CHUNK_ROWS: usize = 64 * 1024;

/// Copy `rows` of `src` into the same rows of `dst`, growing `dst` with
/// default values if it is shorter. Gathered under the source's lock and
/// scattered under the destination's, never both at once: the twin
/// synchronisation copies between the same two columns in alternating
/// directions, and nesting the locks would take them in both orders.
fn copy_rows<T: Clone + Default>(dst: &RwLock<Vec<T>>, src: &RwLock<Vec<T>>, rows: &[RowId]) {
    let values: Vec<T> = {
        let src = src.read();
        rows.iter().map(|&row| src[row as usize].clone()).collect()
    };
    let mut dst = dst.write();
    let needed = rows.iter().max().map_or(0, |&row| row as usize + 1);
    if dst.len() < needed {
        dst.resize(needed, T::default());
    }
    for (&row, value) in rows.iter().zip(values) {
        dst[row as usize] = value;
    }
}

/// Copy the contiguous `range` of `src` over the same rows of `dst`: rows
/// `dst` already holds are overwritten, the rest appended (after default
/// values, should `dst` end before the range starts) — slice copies, one
/// lock pair per [`COPY_CHUNK_ROWS`]. The source is always locked first; the
/// one caller copies from a twin instance into the OLAP instance.
fn copy_range<T: Clone + Default>(dst: &RwLock<Vec<T>>, src: &RwLock<Vec<T>>, range: Range<usize>) {
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start + COPY_CHUNK_ROWS);
        let src = src.read();
        let mut dst = dst.write();
        if dst.len() < start {
            dst.resize(start, T::default());
        }
        let held = dst.len().min(end);
        dst[start..held].clone_from_slice(&src[start..held]);
        dst.extend_from_slice(&src[held..end]);
        start = end;
    }
}

/// A read guard over a whole typed column, exposing its values as a
/// contiguous slice for the guard's lifetime.
///
/// This is the zero-copy access path of the OLAP executor: instead of
/// copying a row range out of the column under the lock (the `with_*`
/// closures), a scan holds the guard for the duration of one morsel and
/// reads the slice in place.
pub enum ColumnGuard<'a> {
    /// Guard over a 64-bit integer column.
    I64(RwLockReadGuard<'a, Vec<i64>>),
    /// Guard over a 64-bit float column.
    F64(RwLockReadGuard<'a, Vec<f64>>),
    /// Guard over a 32-bit integer column.
    I32(RwLockReadGuard<'a, Vec<i32>>),
    /// Guard over a string column.
    Str(RwLockReadGuard<'a, Vec<String>>),
}

/// Typed column storage.
#[derive(Debug)]
pub enum Column {
    /// 64-bit integer column.
    I64(RwLock<Vec<i64>>),
    /// 64-bit float column.
    F64(RwLock<Vec<f64>>),
    /// 32-bit integer column.
    I32(RwLock<Vec<i32>>),
    /// String column.
    Str(RwLock<Vec<String>>),
}

/// A column holding `values` (a decoded checkpoint segment becomes a column
/// without a copy).
macro_rules! column_from_vec {
    ($($cell:ty => $variant:ident),*) => {$(
        impl From<Vec<$cell>> for Column {
            fn from(values: Vec<$cell>) -> Self {
                Column::$variant(RwLock::new(values))
            }
        }
    )*};
}
column_from_vec!(i64 => I64, f64 => F64, i32 => I32, String => Str);

impl Column {
    /// Create an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::I64 => Column::I64(RwLock::new(Vec::new())),
            DataType::F64 => Column::F64(RwLock::new(Vec::new())),
            DataType::I32 => Column::I32(RwLock::new(Vec::new())),
            DataType::Str => Column::Str(RwLock::new(Vec::new())),
        }
    }

    /// Create an empty column with pre-allocated capacity (the RDE engine
    /// pre-faults memory before handing it to the engines).
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Self {
        match dtype {
            DataType::I64 => Column::I64(RwLock::new(Vec::with_capacity(capacity))),
            DataType::F64 => Column::F64(RwLock::new(Vec::with_capacity(capacity))),
            DataType::I32 => Column::I32(RwLock::new(Vec::with_capacity(capacity))),
            DataType::Str => Column::Str(RwLock::new(Vec::with_capacity(capacity))),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::I64(_) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::I32(_) => DataType::I32,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.read().len(),
            Column::F64(v) => v.read().len(),
            Column::I32(v) => v.read().len(),
            Column::Str(v) => v.read().len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the stored values (columnar accounting, used by the
    /// cost model and the freshness metric).
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * self.dtype().width_bytes()
    }

    /// Append a value. Panics on type mismatch (schema violations are caught
    /// at the table layer; reaching this with a wrong type is a logic error).
    pub fn append(&self, value: &Value) {
        match (self, value) {
            (Column::I64(v), Value::I64(x)) => v.write().push(*x),
            (Column::F64(v), Value::F64(x)) => v.write().push(*x),
            (Column::I32(v), Value::I32(x)) => v.write().push(*x),
            (Column::Str(v), Value::Str(x)) => v.write().push(x.clone()),
            // lint:allow(no-panic): dtype contract documented on the method; the table layer validates values against the schema before dispatch
            (col, val) => panic!("type mismatch: column {:?} value {val:?}", col.dtype()),
        }
    }

    /// Append every value of `values` under one lock acquisition (a batch of
    /// inserted rows, one column at a time). Panics on type mismatch, like
    /// [`Self::append`].
    pub fn append_each<'a>(&self, values: impl Iterator<Item = &'a Value>) {
        match self {
            Column::I64(v) => v.write().extend(values.map(Value::as_i64)),
            Column::F64(v) => v.write().extend(values.map(Value::as_f64)),
            Column::I32(v) => v.write().extend(values.map(Value::as_i32)),
            Column::Str(v) => v.write().extend(values.map(|x| x.as_str().to_string())),
        }
    }

    /// Exchange the value at `row` with `value` under one lock acquisition:
    /// the column takes the new value and `value` receives the overwritten
    /// one. Panics on type mismatch or out-of-range row.
    pub fn swap(&self, row: usize, value: &mut Value) {
        match (self, value) {
            (Column::I64(v), Value::I64(x)) => std::mem::swap(&mut v.write()[row], x),
            (Column::F64(v), Value::F64(x)) => std::mem::swap(&mut v.write()[row], x),
            (Column::I32(v), Value::I32(x)) => std::mem::swap(&mut v.write()[row], x),
            (Column::Str(v), Value::Str(x)) => std::mem::swap(&mut v.write()[row], x),
            // lint:allow(no-panic): dtype contract documented on the method; the table layer validates values against the schema before dispatch
            (col, val) => panic!("type mismatch: column {:?} value {val:?}", col.dtype()),
        }
    }

    /// Read the value at `row`, or `None` if out of range.
    pub fn get(&self, row: usize) -> Option<Value> {
        match self {
            Column::I64(v) => v.read().get(row).map(|x| Value::I64(*x)),
            Column::F64(v) => v.read().get(row).map(|x| Value::F64(*x)),
            Column::I32(v) => v.read().get(row).map(|x| Value::I32(*x)),
            Column::Str(v) => v.read().get(row).map(|x| Value::Str(x.clone())),
        }
    }

    /// Copy `rows` and then the contiguous `range` of `src` into the same
    /// rows of `self`, growing `self` if needed — the one primitive of twin
    /// synchronisation (a row list) and ETL (the updated rows, then the
    /// inserted range). Locks are taken per call, not per row: the list is
    /// gathered and scattered under one acquisition each, the range moves as
    /// slice copies. Panics if the column types differ.
    pub fn copy_from(&self, src: &Column, rows: &[RowId], range: Range<RowId>) {
        fn copy<T: Clone + Default>(
            dst: &RwLock<Vec<T>>,
            src: &RwLock<Vec<T>>,
            rows: &[RowId],
            range: Range<RowId>,
        ) {
            if !rows.is_empty() {
                copy_rows(dst, src, rows);
            }
            copy_range(dst, src, range.start as usize..range.end as usize);
        }
        match (self, src) {
            (Column::I64(dst), Column::I64(src)) => copy(dst, src, rows, range),
            (Column::F64(dst), Column::F64(src)) => copy(dst, src, rows, range),
            (Column::I32(dst), Column::I32(src)) => copy(dst, src, rows, range),
            (Column::Str(dst), Column::Str(src)) => copy(dst, src, rows, range),
            // lint:allow(no-panic): synchronisation and ETL only pair columns cloned from one schema, so the dtypes always match
            _ => panic!("copy_from between mismatched column types"),
        }
    }

    /// Take a typed read guard over the column's storage. The caller can
    /// borrow contiguous value slices from the guard for as long as it is
    /// held (writers block for that duration; readers do not).
    pub fn read_guard(&self) -> ColumnGuard<'_> {
        match self {
            Column::I64(v) => ColumnGuard::I64(v.read()),
            Column::F64(v) => ColumnGuard::F64(v.read()),
            Column::I32(v) => ColumnGuard::I32(v.read()),
            Column::Str(v) => ColumnGuard::Str(v.read()),
        }
    }

    /// Run `f` over the column's `i64` values limited to the first `limit`
    /// rows. Panics if the column is not `I64`.
    pub fn with_i64<R>(&self, limit: usize, f: impl FnOnce(&[i64]) -> R) -> R {
        match self {
            Column::I64(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected i64 column, found {:?}", other.dtype()),
        }
    }

    /// Run `f` over the column's `f64` values limited to the first `limit`
    /// rows. Panics if the column is not `F64`.
    pub fn with_f64<R>(&self, limit: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        match self {
            Column::F64(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected f64 column, found {:?}", other.dtype()),
        }
    }

    /// Run `f` over the column's `i32` values limited to the first `limit`
    /// rows. Panics if the column is not `I32`.
    pub fn with_i32<R>(&self, limit: usize, f: impl FnOnce(&[i32]) -> R) -> R {
        match self {
            Column::I32(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected i32 column, found {:?}", other.dtype()),
        }
    }

    /// Run `f` over the column's string values limited to the first `limit`
    /// rows. Panics if the column is not `Str`.
    pub fn with_str<R>(&self, limit: usize, f: impl FnOnce(&[String]) -> R) -> R {
        match self {
            Column::Str(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected str column, found {:?}", other.dtype()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_get_update_roundtrip() {
        let col = Column::new(DataType::I64);
        col.append(&Value::I64(10));
        col.append(&Value::I64(20));
        assert_eq!(col.len(), 2);
        assert_eq!(col.get(1), Some(Value::I64(20)));
        let mut value = Value::I64(25);
        col.swap(1, &mut value);
        assert_eq!(
            value,
            Value::I64(20),
            "swap hands back the overwritten value"
        );
        assert_eq!(col.get(1), Some(Value::I64(25)));
        assert_eq!(col.get(5), None);
    }

    #[test]
    fn string_column_roundtrip() {
        let col = Column::new(DataType::Str);
        col.append(&Value::from("a"));
        col.append(&Value::from("b"));
        let mut value = Value::from("z");
        col.swap(0, &mut value);
        assert_eq!(value, Value::from("a"));
        assert_eq!(col.get(0), Some(Value::from("z")));
        col.with_str(10, |s| assert_eq!(s, &["z".to_string(), "b".to_string()]));
    }

    #[test]
    fn bytes_accounting_uses_type_width() {
        let col = Column::new(DataType::I32);
        for i in 0..10 {
            col.append(&Value::I32(i));
        }
        assert_eq!(col.bytes(), 40);
        assert!(!col.is_empty());
    }

    #[test]
    fn slice_access_respects_limit() {
        let col = Column::new(DataType::F64);
        for i in 0..100 {
            col.append(&Value::F64(i as f64));
        }
        let sum = col.with_f64(10, |s| s.iter().sum::<f64>());
        assert_eq!(sum, 45.0);
        let all = col.with_f64(1000, |s| s.len());
        assert_eq!(all, 100);
    }

    fn i64_column(values: impl IntoIterator<Item = i64>) -> Column {
        let col = Column::new(DataType::I64);
        let values: Vec<Value> = values.into_iter().map(Value::I64).collect();
        col.append_each(values.iter());
        col
    }

    fn i64_values(col: &Column) -> Vec<i64> {
        col.with_i64(usize::MAX, <[i64]>::to_vec)
    }

    #[test]
    fn append_each_appends_a_batch_in_order() {
        let col = i64_column([1, 2, 3]);
        col.append_each([Value::I64(4)].iter());
        col.append_each(std::iter::empty());
        assert_eq!(i64_values(&col), vec![1, 2, 3, 4]);
    }

    #[test]
    fn copy_from_row_list_overwrites_and_grows_destination() {
        let src = i64_column((0..6).map(|i| i * 100));
        let dst = i64_column([7]);
        dst.copy_from(&src, &[], 0..0);
        assert_eq!(
            i64_values(&dst),
            vec![7],
            "empty list and range copy nothing"
        );
        dst.copy_from(&src, &[0, 3], 0..0);
        // Rows that were never written are zero-filled placeholders.
        assert_eq!(i64_values(&dst), vec![0, 0, 0, 300]);
    }

    #[test]
    fn copy_from_range_appends_overwrites_and_pads() {
        let src = i64_column(0..10);
        // Contiguous append.
        let dst = i64_column([0, 1]);
        dst.copy_from(&src, &[], 2..5);
        assert_eq!(i64_values(&dst), vec![0, 1, 2, 3, 4]);
        // A range overlapping rows the destination already holds.
        let dst = i64_column([-1, -1, -1, -1]);
        dst.copy_from(&src, &[], 2..7);
        assert_eq!(i64_values(&dst), vec![-1, -1, 2, 3, 4, 5, 6]);
        // A range entirely inside the destination.
        let dst = i64_column([-1; 8]);
        dst.copy_from(&src, &[], 1..3);
        assert_eq!(i64_values(&dst), vec![-1, 1, 2, -1, -1, -1, -1, -1]);
        // A range starting past the destination's length pads with defaults.
        let dst = i64_column([9]);
        dst.copy_from(&src, &[], 3..5);
        assert_eq!(i64_values(&dst), vec![9, 0, 0, 3, 4]);
        // The list is copied before the range.
        let dst = i64_column([-1, -1]);
        dst.copy_from(&src, &[1], 2..4);
        assert_eq!(i64_values(&dst), vec![-1, 1, 2, 3]);
    }

    #[test]
    fn copy_from_clones_strings() {
        let src = Column::new(DataType::Str);
        for name in ["a", "b", "c", "d"] {
            src.append(&Value::from(name));
        }
        let dst = Column::new(DataType::Str);
        dst.append(&Value::from("x"));
        dst.copy_from(&src, &[0], 2..4);
        dst.with_str(10, |s| assert_eq!(s, &["a", "", "c", "d"]));
        src.with_str(10, |s| assert_eq!(s, &["a", "b", "c", "d"]));
    }

    #[test]
    fn copy_from_range_longer_than_one_chunk() {
        let rows = COPY_CHUNK_ROWS as i64 * 2 + 17;
        let src = i64_column(0..rows);
        let dst = i64_column(0..10);
        dst.copy_from(&src, &[], 5..rows as u64);
        assert_eq!(i64_values(&dst), i64_values(&src));
    }

    #[test]
    #[should_panic(expected = "mismatched column types")]
    fn copy_from_type_mismatch_panics() {
        Column::new(DataType::I64).copy_from(&Column::new(DataType::F64), &[], 0..0);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn append_type_mismatch_panics() {
        Column::new(DataType::I64).append(&Value::F64(1.0));
    }

    #[test]
    #[should_panic(expected = "expected i64 column")]
    fn wrong_slice_accessor_panics() {
        Column::new(DataType::F64).with_i64(1, |_| ());
    }

    #[test]
    fn read_guard_borrows_contiguous_slices() {
        let col = Column::new(DataType::F64);
        for i in 0..8 {
            col.append(&Value::F64(i as f64));
        }
        match col.read_guard() {
            ColumnGuard::F64(g) => assert_eq!(&g[2..5], &[2.0, 3.0, 4.0]),
            _ => panic!("expected an F64 guard"),
        }
        let keys = Column::new(DataType::I64);
        keys.append(&Value::I64(7));
        match keys.read_guard() {
            ColumnGuard::I64(g) => assert_eq!(g.as_slice(), &[7]),
            _ => panic!("expected an I64 guard"),
        };
    }

    #[test]
    fn from_vec_takes_the_values_as_they_are() {
        let col = Column::from(vec![1.5, -0.0]);
        assert_eq!(col.dtype(), DataType::F64);
        col.with_f64(9, |v| assert_eq!(v, [1.5, -0.0]));
        assert_eq!(Column::from(vec![7i32]).get(0), Some(Value::I32(7)));
        assert_eq!(Column::from(vec![7i64]).dtype(), DataType::I64);
        assert_eq!(
            Column::from(vec!["a".to_string()]).get(0),
            Some(Value::from("a"))
        );
    }

    #[test]
    fn with_capacity_preallocates() {
        let col = Column::with_capacity(DataType::I64, 1000);
        assert_eq!(col.len(), 0);
        if let Column::I64(v) = &col {
            assert!(v.read().capacity() >= 1000);
        } else {
            unreachable!();
        }
    }
}
