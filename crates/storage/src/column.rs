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
use std::sync::atomic::{AtomicI64, Ordering};

/// Rows a range copy moves under one pair of locks. A transaction's insert
/// appends to the snapshot instance too, so it waits for the copy's read
/// guard: a chunk bounds that wait to tens of microseconds while the locks
/// still cost nothing per row.
const COPY_CHUNK_ROWS: usize = 64 * 1024;

/// The `(destination, source)` bounds of an integer column copy; `None`
/// for a float or string column, which keeps none.
type CopyBounds<'a> = Option<(&'a Bounds, &'a Bounds)>;

/// Widen the destination's bounds by the source's, read under the source's
/// lock (so they cover every value the copy moves), and by the default
/// value 0 when the copy pads the destination. The caller holds the
/// destination's write lock and has not yet written.
fn widen_copy(bounds: CopyBounds<'_>, seen: Option<(i64, i64)>, pads: bool) {
    if let Some((dst, _)) = bounds {
        if let Some((lo, hi)) = seen {
            dst.widen(lo, hi);
        }
        if pads {
            dst.widen(0, 0);
        }
    }
}

/// Copy `rows` of `src` into the same rows of `dst`, growing `dst` with
/// default values if it is shorter. Gathered under the source's lock and
/// scattered under the destination's, never both at once: the twin
/// synchronisation copies between the same two columns in alternating
/// directions, and nesting the locks would take them in both orders.
fn copy_rows<T: Clone + Default>(
    dst: &RwLock<Vec<T>>,
    src: &RwLock<Vec<T>>,
    rows: &[RowId],
    bounds: CopyBounds<'_>,
) {
    let (values, seen): (Vec<T>, _) = {
        let src = src.read();
        let seen = bounds.and_then(|(_, src)| src.get());
        (
            rows.iter().map(|&row| src[row as usize].clone()).collect(),
            seen,
        )
    };
    let mut dst = dst.write();
    let needed = rows.iter().max().map_or(0, |&row| row as usize + 1);
    widen_copy(bounds, seen, dst.len() < needed);
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
fn copy_range<T: Clone + Default>(
    dst: &RwLock<Vec<T>>,
    src: &RwLock<Vec<T>>,
    range: Range<usize>,
    bounds: CopyBounds<'_>,
) {
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start + COPY_CHUNK_ROWS);
        let src = src.read();
        let mut dst = dst.write();
        widen_copy(
            bounds,
            bounds.and_then(|(_, src)| src.get()),
            dst.len() < start,
        );
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

/// The smallest and largest value an integer column has held: a
/// conservative range, widened before a value is written and never
/// narrowed, so it covers every value the column holds now (and may cover
/// values since overwritten). Empty until the first value.
///
/// Every widening happens under the column's write lock, so writers never
/// race one another, and a reader that sees a value — which it reads under
/// the read lock the writer's release published — sees bounds that cover
/// it. A reader may take the bounds without the lock (they are two atomics):
/// the OLAP engine reads them at bind time to size direct join tables and
/// to fold tuple keys, at no cost per row.
#[derive(Debug)]
pub struct Bounds {
    min: AtomicI64,
    max: AtomicI64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            min: AtomicI64::new(i64::MAX),
            max: AtomicI64::new(i64::MIN),
        }
    }
}

/// The smallest and largest of `values`; `(i64::MAX, i64::MIN)` when there
/// are none, which widens nothing.
fn range_of(values: impl Iterator<Item = i64>) -> (i64, i64) {
    values.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

impl Bounds {
    /// Bounds covering `values` (`default` when there are none).
    fn of(values: impl Iterator<Item = i64>) -> Self {
        let bounds = Bounds::default();
        let (lo, hi) = range_of(values);
        bounds.widen(lo, hi);
        bounds
    }

    /// `(min, max)`, or `None` before the column held a value.
    pub fn get(&self) -> Option<(i64, i64)> {
        let (lo, hi) = (
            self.min.load(Ordering::Acquire),
            self.max.load(Ordering::Acquire),
        );
        (lo <= hi).then_some((lo, hi))
    }

    /// Widen to cover `lo..=hi` (a no-op for the empty range of
    /// [`range_of`]). The caller holds
    /// the column's write lock, so the load-compare-store loses no widening
    /// to another writer.
    #[inline]
    fn widen(&self, lo: i64, hi: i64) {
        if lo < self.min.load(Ordering::Relaxed) {
            self.min.store(lo, Ordering::Release);
        }
        if hi > self.max.load(Ordering::Relaxed) {
            self.max.store(hi, Ordering::Release);
        }
    }
}

/// Typed column storage. An integer column carries its [`Bounds`].
#[derive(Debug)]
pub enum Column {
    /// 64-bit integer column.
    I64(RwLock<Vec<i64>>, Bounds),
    /// 64-bit float column.
    F64(RwLock<Vec<f64>>),
    /// 32-bit integer column.
    I32(RwLock<Vec<i32>>, Bounds),
    /// String column.
    Str(RwLock<Vec<String>>),
}

/// A column holding `values` (a decoded checkpoint segment becomes a column
/// without a copy; an integer one takes one pass for its bounds).
impl From<Vec<i64>> for Column {
    fn from(values: Vec<i64>) -> Self {
        let bounds = Bounds::of(values.iter().copied());
        Column::I64(RwLock::new(values), bounds)
    }
}

impl From<Vec<i32>> for Column {
    fn from(values: Vec<i32>) -> Self {
        let bounds = Bounds::of(values.iter().map(|&v| i64::from(v)));
        Column::I32(RwLock::new(values), bounds)
    }
}

impl From<Vec<f64>> for Column {
    fn from(values: Vec<f64>) -> Self {
        Column::F64(RwLock::new(values))
    }
}

impl From<Vec<String>> for Column {
    fn from(values: Vec<String>) -> Self {
        Column::Str(RwLock::new(values))
    }
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        Self::with_capacity(dtype, 0)
    }

    /// Create an empty column with pre-allocated capacity (the RDE engine
    /// pre-faults memory before handing it to the engines).
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Self {
        match dtype {
            DataType::I64 => {
                Column::I64(RwLock::new(Vec::with_capacity(capacity)), Bounds::default())
            }
            DataType::F64 => Column::F64(RwLock::new(Vec::with_capacity(capacity))),
            DataType::I32 => {
                Column::I32(RwLock::new(Vec::with_capacity(capacity)), Bounds::default())
            }
            DataType::Str => Column::Str(RwLock::new(Vec::with_capacity(capacity))),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::I64(..) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::I32(..) => DataType::I32,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v, _) => v.read().len(),
            Column::F64(v) => v.read().len(),
            Column::I32(v, _) => v.read().len(),
            Column::Str(v) => v.read().len(),
        }
    }

    /// The smallest and largest value the column has held (see [`Bounds`]):
    /// `None` for a float or string column and for an empty one.
    pub fn bounds(&self) -> Option<(i64, i64)> {
        match self {
            Column::I64(_, bounds) | Column::I32(_, bounds) => bounds.get(),
            Column::F64(_) | Column::Str(_) => None,
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
    /// An integer column's bounds widen under the write lock, before the push.
    pub fn append(&self, value: &Value) {
        match (self, value) {
            (Column::I64(v, b), Value::I64(x)) => {
                let mut v = v.write();
                b.widen(*x, *x);
                v.push(*x);
            }
            (Column::F64(v), Value::F64(x)) => v.write().push(*x),
            (Column::I32(v, b), Value::I32(x)) => {
                let mut v = v.write();
                b.widen(i64::from(*x), i64::from(*x));
                v.push(*x);
            }
            (Column::Str(v), Value::Str(x)) => v.write().push(x.clone()),
            // lint:allow(no-panic): dtype contract documented on the method; the table layer validates values against the schema before dispatch
            (col, val) => panic!("type mismatch: column {:?} value {val:?}", col.dtype()),
        }
    }

    /// Append every value of `values` under one lock acquisition (a batch of
    /// inserted rows, one column at a time). Panics on type mismatch, like
    /// [`Self::append`].
    pub fn append_each<'a>(&self, values: impl Iterator<Item = &'a Value> + Clone) {
        // The batch's range, taken before the lock: the bounds widen once,
        // under the lock and before the first value lands.
        match self {
            Column::I64(v, b) => {
                let (lo, hi) = range_of(values.clone().map(Value::as_i64));
                let mut v = v.write();
                b.widen(lo, hi);
                v.extend(values.map(Value::as_i64));
            }
            Column::F64(v) => v.write().extend(values.map(Value::as_f64)),
            Column::I32(v, b) => {
                let (lo, hi) = range_of(values.clone().map(|x| i64::from(x.as_i32())));
                let mut v = v.write();
                b.widen(lo, hi);
                v.extend(values.map(Value::as_i32));
            }
            Column::Str(v) => v.write().extend(values.map(|x| x.as_str().to_string())),
        }
    }

    /// Exchange the value at `row` with `value` under one lock acquisition:
    /// the column takes the new value and `value` receives the overwritten
    /// one. Panics on type mismatch or out-of-range row. An integer
    /// column's bounds widen under the write lock, before the exchange.
    pub fn swap(&self, row: usize, value: &mut Value) {
        match (self, value) {
            (Column::I64(v, b), Value::I64(x)) => {
                let mut v = v.write();
                b.widen(*x, *x);
                std::mem::swap(&mut v[row], x)
            }
            (Column::F64(v), Value::F64(x)) => std::mem::swap(&mut v.write()[row], x),
            (Column::I32(v, b), Value::I32(x)) => {
                let mut v = v.write();
                b.widen(i64::from(*x), i64::from(*x));
                std::mem::swap(&mut v[row], x)
            }
            (Column::Str(v), Value::Str(x)) => std::mem::swap(&mut v.write()[row], x),
            // lint:allow(no-panic): dtype contract documented on the method; the table layer validates values against the schema before dispatch
            (col, val) => panic!("type mismatch: column {:?} value {val:?}", col.dtype()),
        }
    }

    /// Read the value at `row`, or `None` if out of range.
    pub fn get(&self, row: usize) -> Option<Value> {
        match self {
            Column::I64(v, _) => v.read().get(row).map(|x| Value::I64(*x)),
            Column::F64(v) => v.read().get(row).map(|x| Value::F64(*x)),
            Column::I32(v, _) => v.read().get(row).map(|x| Value::I32(*x)),
            Column::Str(v) => v.read().get(row).map(|x| Value::Str(x.clone())),
        }
    }

    /// Copy `rows` and then the contiguous `range` of `src` into the same
    /// rows of `self`, growing `self` if needed — the one primitive of twin
    /// synchronisation (a row list) and ETL (the updated rows, then the
    /// inserted range). Locks are taken per call, not per row: the list is
    /// gathered and scattered under one acquisition each, the range moves as
    /// slice copies. Panics if the column types differ. An integer column's
    /// bounds widen by the source's (and by 0 where the copy pads), under
    /// the write lock and before the values land: no pass over the values.
    pub fn copy_from(&self, src: &Column, rows: &[RowId], range: Range<RowId>) {
        fn copy<T: Clone + Default>(
            dst: &RwLock<Vec<T>>,
            src: &RwLock<Vec<T>>,
            rows: &[RowId],
            range: Range<RowId>,
            bounds: CopyBounds<'_>,
        ) {
            if !rows.is_empty() {
                copy_rows(dst, src, rows, bounds);
            }
            copy_range(dst, src, range.start as usize..range.end as usize, bounds);
        }
        match (self, src) {
            (Column::I64(dst, db), Column::I64(src, sb)) => {
                copy(dst, src, rows, range, Some((db, sb)))
            }
            (Column::F64(dst), Column::F64(src)) => copy(dst, src, rows, range, None),
            (Column::I32(dst, db), Column::I32(src, sb)) => {
                copy(dst, src, rows, range, Some((db, sb)))
            }
            (Column::Str(dst), Column::Str(src)) => copy(dst, src, rows, range, None),
            // lint:allow(no-panic): synchronisation and ETL only pair columns cloned from one schema, so the dtypes always match
            _ => panic!("copy_from between mismatched column types"),
        }
    }

    /// Take a typed read guard over the column's storage. The caller can
    /// borrow contiguous value slices from the guard for as long as it is
    /// held (writers block for that duration; readers do not).
    pub fn read_guard(&self) -> ColumnGuard<'_> {
        match self {
            Column::I64(v, _) => ColumnGuard::I64(v.read()),
            Column::F64(v) => ColumnGuard::F64(v.read()),
            Column::I32(v, _) => ColumnGuard::I32(v.read()),
            Column::Str(v) => ColumnGuard::Str(v.read()),
        }
    }

    /// Run `f` over the column's `i64` values limited to the first `limit`
    /// rows. Panics if the column is not `I64`.
    pub fn with_i64<R>(&self, limit: usize, f: impl FnOnce(&[i64]) -> R) -> R {
        match self {
            Column::I64(v, _) => {
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
            Column::I32(v, _) => {
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
    fn an_empty_or_non_integer_column_reports_no_bounds() {
        for dtype in [DataType::I64, DataType::I32, DataType::F64, DataType::Str] {
            assert_eq!(Column::new(dtype).bounds(), None, "{dtype:?}");
        }
        let floats = Column::from(vec![1.5, -2.0]);
        assert_eq!(floats.bounds(), None);
        assert_eq!(Column::from(Vec::<i64>::new()).bounds(), None);
    }

    #[test]
    fn bounds_widen_on_append_and_append_each() {
        let col = Column::new(DataType::I64);
        col.append(&Value::I64(7));
        assert_eq!(col.bounds(), Some((7, 7)));
        col.append(&Value::I64(-3));
        assert_eq!(col.bounds(), Some((-3, 7)));
        col.append_each([Value::I64(5), Value::I64(i64::MAX)].iter());
        assert_eq!(col.bounds(), Some((-3, i64::MAX)));
        col.append_each(std::iter::empty());
        assert_eq!(col.bounds(), Some((-3, i64::MAX)));
        let narrow = Column::new(DataType::I32);
        narrow.append_each([Value::I32(4), Value::I32(i32::MIN)].iter());
        narrow.append(&Value::I32(9));
        assert_eq!(narrow.bounds(), Some((i64::from(i32::MIN), 9)));
    }

    #[test]
    fn bounds_widen_on_swap_and_never_narrow() {
        let col = i64_column([10, 20, 30]);
        assert_eq!(col.bounds(), Some((10, 30)));
        let mut value = Value::I64(-5);
        col.swap(0, &mut value);
        assert_eq!(col.bounds(), Some((-5, 30)));
        // Overwriting the extremes leaves the range as wide as it was: the
        // bounds cover every value the column has held.
        col.swap(0, &mut Value::I64(15));
        col.swap(2, &mut Value::I64(15));
        assert_eq!(i64_values(&col), vec![15, 20, 15]);
        assert_eq!(col.bounds(), Some((-5, 30)));
        let narrow = Column::from(vec![1i32, 2]);
        assert_eq!(narrow.bounds(), Some((1, 2)));
        narrow.swap(1, &mut Value::I32(100));
        assert_eq!(narrow.bounds(), Some((1, 100)));
    }

    #[test]
    fn bounds_widen_on_copy_from_by_the_source_and_the_padding() {
        let src = i64_column([-40, 2, 3, 90]);
        // A range copy past the destination's end pads with 0.
        let dst = i64_column([50]);
        dst.copy_from(&src, &[], 2..3);
        assert_eq!(i64_values(&dst), vec![50, 0, 3]);
        assert_eq!(dst.bounds(), Some((-40, 90)));
        // A row-list copy takes the source's bounds too.
        let dst = i64_column([50, 60, 70, 80]);
        dst.copy_from(&src, &[1], 0..0);
        assert_eq!(dst.bounds(), Some((-40, 90)));
        // A copy that writes nothing widens nothing.
        let dst = i64_column([5]);
        dst.copy_from(&src, &[], 0..0);
        assert_eq!(dst.bounds(), Some((5, 5)));
        // Only the padding widens by 0 where the source's range excludes it.
        let positive = i64_column([7, 8, 9]);
        let dst = Column::new(DataType::I64);
        dst.copy_from(&positive, &[], 1..3);
        assert_eq!(i64_values(&dst), vec![0, 8, 9]);
        assert_eq!(dst.bounds(), Some((0, 9)));
        let dst = Column::new(DataType::I32);
        dst.copy_from(&Column::from(vec![3i32, -8]), &[], 0..2);
        assert_eq!(dst.bounds(), Some((-8, 3)));
    }

    #[test]
    fn from_vec_takes_the_bounds_of_its_values() {
        assert_eq!(Column::from(vec![4i64, -9, 2]).bounds(), Some((-9, 4)));
        assert_eq!(Column::from(vec![6i32]).bounds(), Some((6, 6)));
    }

    #[test]
    fn with_capacity_preallocates() {
        let col = Column::with_capacity(DataType::I64, 1000);
        assert_eq!(col.len(), 0);
        if let Column::I64(v, _) = &col {
            assert!(v.read().capacity() >= 1000);
        } else {
            unreachable!();
        }
    }
}
