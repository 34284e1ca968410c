//! Per-worker execution scratch: the reusable buffers that make the
//! steady-state morsel loop allocation-free.
//!
//! Every pipeline worker owns one [`ExecScratch`] for the lifetime of the
//! pipeline. Each claimed morsel reuses the same column buffers, register
//! file and selection vectors — the buffers grow to the morsel
//! size once and are then recycled, so after the first morsel the hot loop
//! performs no heap allocation (verified by `tests/alloc_steady_state.rs`).
//!
//! Column access is zero-copy where the storage layout allows it: an `f64`
//! column serving as a numeric input, or an `i64` column serving as a key,
//! is *borrowed* straight out of the columnar storage (a read guard held
//! for the duration of the morsel) instead of copied. Only genuine type
//! conversions (`i32`/`i64` → `f64` aggregate inputs, `i32` → `i64` keys)
//! write into the scratch conversion buffers. Integer columns nothing
//! aggregates — join-key and group columns, integer filter columns — load
//! as keys, so the common case is a borrow: a computed join key evaluates
//! its `i64` affine form over borrowed key slices into [`ExecScratch::keys`],
//! and a filter compares the `i64` lanes in place.
//!
//! A morsel is loaded in two passes ([`LoadPass`]): the columns its filters
//! read first, every other column only once the filters have left a row —
//! a morsel the filters reject whole costs no further guard or conversion.

use crate::kernels;
use crate::morsel::Morsel;
use crate::source::{BoundLayout, ScanSource};
use htap_storage::{ColumnGuard, DataType};
use parking_lot::RwLockReadGuard;

/// One numeric column of the current morsel: borrowed from storage or
/// converted into the aligned scratch buffer.
pub(crate) enum NumCol<'env> {
    /// Not loaded for this morsel (reads as the empty slice).
    Unloaded,
    /// Borrowed `f64` storage (zero copy); slices `[start, start + rows)`.
    Borrowed(RwLockReadGuard<'env, Vec<f64>>),
    /// Converted values live in `MorselData::num_bufs` at the same index.
    Converted,
}

/// One key column of the current morsel.
pub(crate) enum KeyCol<'env> {
    /// Not loaded for this morsel (reads as the empty slice).
    Unloaded,
    /// Borrowed `i64` storage (zero copy).
    Borrowed(RwLockReadGuard<'env, Vec<i64>>),
    /// Converted values live in `MorselData::key_bufs` at the same index.
    Converted,
}

/// The column data of the morsel currently being processed: borrowed slices
/// plus conversion buffers, reused across morsels.
pub(crate) struct MorselData<'env> {
    num: Vec<NumCol<'env>>,
    key: Vec<KeyCol<'env>>,
    num_bufs: Vec<Vec<f64>>,
    key_bufs: Vec<Vec<i64>>,
    start: usize,
    rows: usize,
}

impl<'env> MorselData<'env> {
    /// Scratch for a pipeline loading `n_num` numeric and `n_key` key
    /// columns.
    pub fn with_columns(n_num: usize, n_key: usize) -> Self {
        MorselData {
            num: Vec::with_capacity(n_num),
            key: Vec::with_capacity(n_key),
            num_bufs: (0..n_num).map(|_| Vec::new()).collect(),
            key_bufs: (0..n_key).map(|_| Vec::new()).collect(),
            start: 0,
            rows: 0,
        }
    }

    /// Rows in the current morsel.
    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The `j`-th numeric column of the current morsel as a dense slice.
    #[inline(always)]
    pub fn numeric(&self, j: usize) -> &[f64] {
        match &self.num[j] {
            NumCol::Unloaded => &[],
            NumCol::Borrowed(g) => &g[self.start..self.start + self.rows],
            NumCol::Converted => &self.num_bufs[j][..self.rows],
        }
    }

    /// The `j`-th key column of the current morsel as a dense slice.
    #[inline(always)]
    pub fn key(&self, j: usize) -> &[i64] {
        match &self.key[j] {
            KeyCol::Unloaded => &[],
            KeyCol::Borrowed(g) => &g[self.start..self.start + self.rows],
            KeyCol::Converted => &self.key_bufs[j][..self.rows],
        }
    }

    /// Release the previous morsel's guards (buffers keep their capacity)
    /// and mark every column unloaded.
    fn reset(&mut self, start: usize, rows: usize) {
        self.num.clear();
        self.num
            .resize_with(self.num_bufs.len(), || NumCol::Unloaded);
        self.key.clear();
        self.key
            .resize_with(self.key_bufs.len(), || KeyCol::Unloaded);
        self.start = start;
        self.rows = rows;
    }

    /// Populate the scratch with literal columns (unit tests of the compiled
    /// kernels, which need morsel data without a storage segment).
    #[cfg(test)]
    pub fn set_test_columns(&mut self, numeric: Vec<Vec<f64>>, keys: Vec<Vec<i64>>) {
        let rows = numeric
            .first()
            .map(Vec::len)
            .or_else(|| keys.first().map(Vec::len))
            .unwrap_or(0);
        self.reset(0, rows);
        self.num_bufs = numeric;
        self.key_bufs = keys;
        self.num = self.num_bufs.iter().map(|_| NumCol::Converted).collect();
        self.key = self.key_bufs.iter().map(|_| KeyCol::Converted).collect();
    }
}

/// Which of a pipeline's load-list columns its filters read, per numeric and
/// key slot — what splits a morsel's load into its two passes.
#[derive(Debug, Default)]
pub(crate) struct FilterColumns {
    pub num: Vec<bool>,
    pub key: Vec<bool>,
}

/// One of the two passes of a morsel's load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadPass {
    /// Start the morsel: release the previous one's guards and load the
    /// columns the filters read.
    Filters,
    /// Load every other column (skipped when the filters left no row).
    Rest,
}

/// Run one load pass of `morsel` into `data`: `f64` numerics and `i64` keys
/// are borrowed from the columnar storage, everything else converts into the
/// reused scratch buffers. The layout was validated at bind time, so the
/// load itself is infallible.
pub(crate) fn load_morsel<'env>(
    source: &'env ScanSource,
    layout: &BoundLayout,
    morsel: &Morsel,
    data: &mut MorselData<'env>,
    filter_columns: &FilterColumns,
    pass: LoadPass,
) {
    let seg = &source.segments[morsel.segment];
    let binding = &layout.segments[morsel.segment];
    let start = morsel.rows.start as usize;
    let rows = morsel.row_count();
    let filters = pass == LoadPass::Filters;
    if filters {
        data.reset(start, rows);
    }
    for (j, bc) in binding.numeric.iter().enumerate() {
        if filter_columns.num[j] != filters {
            continue;
        }
        let col = seg.table.column(bc.index);
        data.num[j] = match bc.dtype {
            DataType::F64 => match col.read_guard() {
                ColumnGuard::F64(g) => NumCol::Borrowed(g),
                _ => unreachable!("bind checked the dtype"),
            },
            DataType::I64 => {
                let buf = &mut data.num_bufs[j];
                buf.clear();
                col.with_i64(start + rows, |v| {
                    buf.extend(v[start..start + rows].iter().map(|&x| x as f64))
                });
                NumCol::Converted
            }
            DataType::I32 => {
                let buf = &mut data.num_bufs[j];
                buf.clear();
                col.with_i32(start + rows, |v| {
                    buf.extend(v[start..start + rows].iter().map(|&x| x as f64))
                });
                NumCol::Converted
            }
            DataType::Str => unreachable!("bind rejected string numerics"),
        };
    }
    for (j, bc) in binding.keys.iter().enumerate() {
        if filter_columns.key[j] != filters {
            continue;
        }
        let col = seg.table.column(bc.index);
        data.key[j] = match bc.dtype {
            DataType::I64 => match col.read_guard() {
                ColumnGuard::I64(g) => KeyCol::Borrowed(g),
                _ => unreachable!("bind checked the dtype"),
            },
            DataType::I32 => {
                let buf = &mut data.key_bufs[j];
                buf.clear();
                col.with_i32(start + rows, |v| {
                    buf.extend(v[start..start + rows].iter().map(|&x| x as i64))
                });
                KeyCol::Converted
            }
            _ => unreachable!("bind rejected non-integer keys"),
        };
    }
}

/// Smallest and largest value of key slot `slot` over every row of
/// `morsels` (`None` when they hold no row), read the way [`load_morsel`]
/// reads it: one guard per morsel, so no writer waits on a whole column.
pub(crate) fn key_range(
    source: &ScanSource,
    layout: &BoundLayout,
    slot: usize,
    morsels: &[Morsel],
) -> Option<(i64, i64)> {
    let mut range: Option<(i64, i64)> = None;
    for morsel in morsels {
        let binding = &layout.segments[morsel.segment].keys[slot];
        let col = source.segments[morsel.segment].table.column(binding.index);
        let rows = morsel.rows.start as usize..morsel.rows.end as usize;
        let part = match binding.dtype {
            DataType::I64 => {
                col.with_i64(rows.end, |v| v.get(rows).and_then(kernels::min_max_dense))
            }
            DataType::I32 => col.with_i32(rows.end, |v| {
                let v = v.get(rows)?;
                Some((i64::from(*v.iter().min()?), i64::from(*v.iter().max()?)))
            }),
            _ => None,
        };
        if let Some((l, h)) = part {
            range = Some(range.map_or((l, h), |(lo, hi)| (lo.min(l), hi.max(h))));
        }
    }
    range
}

/// The probe chain's ping-pong buffers: every hop reads the previous hop's
/// survivors from the `_b` pair and writes its own into the `_a` pair, so an
/// N-way join needs no per-morsel allocation.
#[derive(Default)]
pub(crate) struct ProbeBufs {
    /// Surviving row ids of the hop being written.
    pub sel_a: Vec<u32>,
    /// Surviving row ids of the previous hop.
    pub sel_b: Vec<u32>,
    /// Join multiplicity per row of `sel_a` (empty while every probed build
    /// side is unique).
    pub w_a: Vec<u64>,
    /// Join multiplicity per row of `sel_b`.
    pub w_b: Vec<u64>,
}

/// The full per-worker scratch of one pipeline — everything the driver needs
/// up to the sink, whose own per-worker state lives in its partial output.
pub(crate) struct ExecScratch<'env> {
    /// Column data of the current morsel.
    pub data: MorselData<'env>,
    /// Expression evaluation registers (one dense `f64` lane per register).
    pub regs: Vec<Vec<f64>>,
    /// Primary selection vector (filter output).
    pub sel: Vec<u32>,
    /// Probe-chain output buffers.
    pub probe: ProbeBufs,
    /// Batch-hash output buffer: one `u64` hash per selected row, filled by
    /// the chunked hash kernels before the probe/upsert loop.
    pub hashes: Vec<u64>,
    /// The `i64` values of a computed join key, one lane per row, evaluated
    /// from its affine form over the key columns (a plain key column is
    /// read in place).
    pub keys: Vec<i64>,
}

impl ExecScratch<'_> {
    /// Scratch with `n_regs` evaluation registers and no column buffers
    /// (kernel unit tests).
    #[cfg(test)]
    pub fn new(n_regs: usize) -> Self {
        Self::for_pipeline(n_regs, 0, 0)
    }

    /// Scratch for a pipeline with the given register and load-list sizes.
    pub fn for_pipeline(n_regs: usize, n_num: usize, n_key: usize) -> Self {
        ExecScratch {
            data: MorselData::with_columns(n_num, n_key),
            regs: (0..n_regs).map(|_| Vec::new()).collect(),
            sel: Vec::new(),
            probe: ProbeBufs::default(),
            hashes: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Grow every register to at least `rows` lanes (no-op after the first
    /// full-size morsel).
    pub fn ensure_regs(&mut self, rows: usize) {
        for reg in &mut self.regs {
            if reg.len() < rows {
                reg.resize(rows, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OlapError;
    use htap_sim::SocketId;
    use htap_storage::{ColumnDef, ColumnarTable, TableSchema, TableSnapshot, Value};
    use std::sync::Arc;

    fn source() -> ScanSource {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("qty", DataType::I32),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..100u64 {
            t.append_row(&[
                Value::I64(i as i64),
                Value::I32((i % 10) as i32),
                Value::F64(i as f64 * 1.5),
            ])
            .unwrap();
        }
        let snap = TableSnapshot::new("t".into(), Arc::new(t), 100);
        ScanSource::contiguous_snapshot(&snap, SocketId(0))
    }

    #[test]
    fn load_borrows_f64_numerics_and_i64_keys() {
        let src = source();
        let layout = src
            .bind_columns(&["amount", "qty"], &["id", "qty"], &["amount", "qty", "id"])
            .unwrap();
        let morsels = src.morsels(32);
        let mut data = MorselData::with_columns(2, 2);
        // `qty` is the filter column: the first pass loads it alone.
        let split = FilterColumns {
            num: vec![false, true],
            key: vec![false, true],
        };
        load_morsel(
            &src,
            &layout,
            &morsels[1],
            &mut data,
            &split,
            LoadPass::Filters,
        );
        assert!(matches!(data.num[0], NumCol::Unloaded) && data.numeric(0).is_empty());
        assert!(matches!(data.key[0], KeyCol::Unloaded) && data.key(0).is_empty());
        assert_eq!(data.numeric(1)[0], 2.0);
        load_morsel(
            &src,
            &layout,
            &morsels[1],
            &mut data,
            &split,
            LoadPass::Rest,
        );
        assert_eq!(data.rows(), 32);
        // amount (f64) is borrowed; qty (i32) converts.
        assert!(matches!(data.num[0], NumCol::Borrowed(_)));
        assert!(matches!(data.num[1], NumCol::Converted));
        assert_eq!(data.numeric(0)[0], 32.0 * 1.5);
        assert_eq!(data.numeric(1)[0], 2.0);
        // id (i64) is borrowed as a key; qty (i32) converts.
        assert!(matches!(data.key[0], KeyCol::Borrowed(_)));
        assert!(matches!(data.key[1], KeyCol::Converted));
        assert_eq!(data.key(0)[0], 32);
        assert_eq!(data.key(1)[31], (63 % 10) as i64);
    }

    #[test]
    fn bind_validates_columns_and_roles() {
        let src = source();
        assert_eq!(
            src.bind_columns(&["ghost"], &[], &[]).unwrap_err(),
            OlapError::UnknownColumn {
                table: "t".into(),
                column: "ghost".into()
            }
        );
        assert_eq!(
            src.bind_columns(&[], &["amount"], &[]).unwrap_err(),
            OlapError::UnsupportedColumnType {
                table: "t".into(),
                column: "amount".into(),
                role: "a key"
            }
        );
        let layout = src.bind_columns(&["qty"], &["id"], &["qty", "id"]).unwrap();
        assert_eq!(layout.segments.len(), 1);
        assert_eq!(layout.segments[0].accessed_row_bytes, 4 + 8);
    }
}
