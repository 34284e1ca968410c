//! Chunked, data-parallel kernels for the vectorized hot path.
//!
//! Every inner loop of the morsel engine that touches a whole column —
//! filter comparisons, key hashing, aggregate folds — lives here as an
//! explicit fixed-width-chunk kernel: the input is processed in
//! [`LANES`]-wide blocks (`[f64; 8]` / `[i64; 8]`) with a scalar tail, the
//! shape LLVM's autovectorizer reliably turns into SIMD on every target the
//! repo builds for (no intrinsics, no `target_feature` gates). Four kernel
//! families:
//!
//! * **Filters** ([`filter_dense_f64`] and friends) — compare one column
//!   against a literal and produce/compact a `u32` selection vector via
//!   branchless compaction: each lane writes its row id unconditionally and
//!   the output cursor advances by the comparison result, so the loop body
//!   carries no data-dependent branch.
//! * **Hashing** ([`hash1_dense`] and friends) — batch multiplicative
//!   hashing of a morsel's key column(s) into a reused `u64` buffer, so the
//!   probe/upsert loops of [`crate::hashtable`] take precomputed hashes
//!   instead of hashing row at a time. The scalar [`hash_i64`] /
//!   [`hash_combine`] / [`hash_key`] primitives are defined here and shared
//!   with the tables (integer ops: batch and scalar are trivially
//!   bit-identical). Beside them, [`min_max_dense`] and [`min_max_gather`]
//!   find a key column's span: a join build that met a tuple outside its
//!   box records its morsel's ranges with them.
//! * **Tuple folds** ([`fold_tuple`]) — a tuple join key folded by mixed
//!   radix over its build's box in one fused pass per three elements: every
//!   row reads each element once, range-checks it and adds its share of
//!   the key, so no pass re-reads a column to check it. No row depends on
//!   another, so the plain row loop needs no chunking to vectorize.
//! * **Folds** ([`fold_dense`], [`fold_gather`]) — one running value's
//!   `Add`, `Min` or `Max` ([`Fold`]) over a dense column or a selection
//!   vector. Floating-point accumulation order is **observable**: results
//!   must be bit-for-bit identical for every worker count and morsel size,
//!   and every kernel bit-for-bit its scalar twin, so the fold kernels keep
//!   the strict sequential row order and win by *gathering* chunks of
//!   selected lanes (and by being monomorphised per fold, with the
//!   `ValView` dispatch hoisted out of the loop) — never by lane-parallel
//!   partial accumulators, which would reassociate the sums.
//!
//! Output buffers (`out`, `sel`) are the worker's, reused morsel after
//! morsel: a kernel sizes one with a bare `resize` — which zero-fills only
//! growth, nothing once the buffer has seen a full morsel — and overwrites
//! every lane it keeps, so whatever the buffer held on entry never shows.
//!
//! Every chunked kernel has a `_scalar` twin: the obvious one-row-at-a-time
//! loop (the dense fold is that loop already; it is checked against the
//! gather twin over every row). The twins are the reference the property
//! tests (`crates/olap/tests/kernels_proptest.rs`) compare against on
//! adversarial inputs — NaN/±INF in filters, keys at ±2^53 and
//! `i64::MIN`/`MAX`, selections with ragged tails shorter than one chunk —
//! and they double as readable documentation of each kernel's exact
//! semantics.

use crate::expr::{CmpOp, Fold};

/// Fixed chunk width of every kernel: 8 lanes fill one 64-byte cache line
/// of `f64`/`i64` and map onto one AVX-512 / two AVX2 / four NEON registers.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// Multiplicative hashing.
// ---------------------------------------------------------------------------

/// Multiplicative hash of one `i64` key (Knuth's 2^64 golden-ratio constant
/// with an xor-shift finalizer so the masked low bits are well mixed).
#[inline(always)]
pub fn hash_i64(k: i64) -> u64 {
    let mut h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h
}

/// Combine a running hash with the next key part of a composite key.
#[inline(always)]
pub fn hash_combine(h: u64, k: i64) -> u64 {
    let mut h = (h ^ (k as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h
}

/// Hash a composite key of any width ≥ 1 (the order the parts are combined
/// in is the key-column order, same as the per-row upsert paths).
#[inline]
pub fn hash_key(key: &[i64]) -> u64 {
    let mut h = hash_i64(key[0]);
    for &k in &key[1..] {
        h = hash_combine(h, k);
    }
    h
}

/// Batch-hash a dense key column into `out` (`out[i] = hash_i64(keys[i])`).
pub fn hash1_dense(keys: &[i64], out: &mut Vec<u64>) {
    out.resize(keys.len(), 0);
    let mut chunks = keys.chunks_exact(LANES);
    let mut at = 0;
    for chunk in &mut chunks {
        let mut h = [0u64; LANES];
        for l in 0..LANES {
            h[l] = hash_i64(chunk[l]);
        }
        out[at..at + LANES].copy_from_slice(&h);
        at += LANES;
    }
    for (l, &k) in chunks.remainder().iter().enumerate() {
        out[at + l] = hash_i64(k);
    }
}

/// Scalar twin of [`hash1_dense`].
pub fn hash1_dense_scalar(keys: &[i64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(keys.iter().map(|&k| hash_i64(k)));
}

/// Batch-hash the selected rows of a key column (`out[pos] =
/// hash_i64(keys[sel[pos]])`, one output lane per selection entry).
pub fn hash1_gather(keys: &[i64], sel: &[u32], out: &mut Vec<u64>) {
    out.resize(sel.len(), 0);
    let mut chunks = sel.chunks_exact(LANES);
    let mut at = 0;
    for chunk in &mut chunks {
        let mut lanes = [0i64; LANES];
        for l in 0..LANES {
            lanes[l] = keys[chunk[l] as usize];
        }
        let mut h = [0u64; LANES];
        for l in 0..LANES {
            h[l] = hash_i64(lanes[l]);
        }
        out[at..at + LANES].copy_from_slice(&h);
        at += LANES;
    }
    for (l, &i) in chunks.remainder().iter().enumerate() {
        out[at + l] = hash_i64(keys[i as usize]);
    }
}

/// Scalar twin of [`hash1_gather`].
pub fn hash1_gather_scalar(keys: &[i64], sel: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.extend(sel.iter().map(|&i| hash_i64(keys[i as usize])));
}

/// Smallest and largest key of a dense key column (`None` when it is
/// empty). [`LANES`] running minima and maxima, folded once at the end,
/// keep the lanes independent.
pub fn min_max_dense(keys: &[i64]) -> Option<(i64, i64)> {
    let first = *keys.first()?;
    let (mut lo, mut hi) = ([first; LANES], [first; LANES]);
    let mut chunks = keys.chunks_exact(LANES);
    for chunk in &mut chunks {
        for l in 0..LANES {
            lo[l] = lo[l].min(chunk[l]);
            hi[l] = hi[l].max(chunk[l]);
        }
    }
    let lanes = lo.iter().zip(&hi).map(|(&l, &h)| (l, h));
    let tail = chunks.remainder().iter().map(|&k| (k, k));
    Some(
        lanes
            .chain(tail)
            .fold((first, first), |(lo, hi), (l, h)| (lo.min(l), hi.max(h))),
    )
}

/// Scalar twin of [`min_max_dense`].
pub fn min_max_dense_scalar(keys: &[i64]) -> Option<(i64, i64)> {
    Some((*keys.iter().min()?, *keys.iter().max()?))
}

/// [`min_max_dense`] over the selected rows of a key column.
pub fn min_max_gather(keys: &[i64], sel: &[u32]) -> Option<(i64, i64)> {
    let first = keys[*sel.first()? as usize];
    let (mut lo, mut hi) = ([first; LANES], [first; LANES]);
    let mut chunks = sel.chunks_exact(LANES);
    for chunk in &mut chunks {
        for l in 0..LANES {
            let k = keys[chunk[l] as usize];
            lo[l] = lo[l].min(k);
            hi[l] = hi[l].max(k);
        }
    }
    let lanes = lo.iter().zip(&hi).map(|(&l, &h)| (l, h));
    let tail = chunks
        .remainder()
        .iter()
        .map(|&i| (keys[i as usize], keys[i as usize]));
    Some(
        lanes
            .chain(tail)
            .fold((first, first), |(lo, hi), (l, h)| (lo.min(l), hi.max(h))),
    )
}

/// Scalar twin of [`min_max_gather`].
pub fn min_max_gather_scalar(keys: &[i64], sel: &[u32]) -> Option<(i64, i64)> {
    let selected = || sel.iter().map(|&i| keys[i as usize]);
    Some((selected().min()?, selected().max()?))
}

/// Batch-hash a dense two-column composite key
/// (`out[i] = hash_combine(hash_i64(k0[i]), k1[i])`).
pub fn hash2_dense(k0: &[i64], k1: &[i64], out: &mut Vec<u64>) {
    debug_assert_eq!(k0.len(), k1.len());
    out.resize(k0.len(), 0);
    let mut a = k0.chunks_exact(LANES);
    let mut b = k1.chunks_exact(LANES);
    let mut at = 0;
    for (ca, cb) in (&mut a).zip(&mut b) {
        let mut h = [0u64; LANES];
        for l in 0..LANES {
            h[l] = hash_combine(hash_i64(ca[l]), cb[l]);
        }
        out[at..at + LANES].copy_from_slice(&h);
        at += LANES;
    }
    for (l, (&ka, &kb)) in a.remainder().iter().zip(b.remainder()).enumerate() {
        out[at + l] = hash_combine(hash_i64(ka), kb);
    }
}

/// Scalar twin of [`hash2_dense`].
pub fn hash2_dense_scalar(k0: &[i64], k1: &[i64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(
        k0.iter()
            .zip(k1)
            .map(|(&a, &b)| hash_combine(hash_i64(a), b)),
    );
}

/// Batch-hash the selected rows of a two-column composite key.
pub fn hash2_gather(k0: &[i64], k1: &[i64], sel: &[u32], out: &mut Vec<u64>) {
    out.resize(sel.len(), 0);
    let mut chunks = sel.chunks_exact(LANES);
    let mut at = 0;
    for chunk in &mut chunks {
        let mut h = [0u64; LANES];
        for l in 0..LANES {
            let i = chunk[l] as usize;
            h[l] = hash_combine(hash_i64(k0[i]), k1[i]);
        }
        out[at..at + LANES].copy_from_slice(&h);
        at += LANES;
    }
    for (l, &i) in chunks.remainder().iter().enumerate() {
        let i = i as usize;
        out[at + l] = hash_combine(hash_i64(k0[i]), k1[i]);
    }
}

/// Scalar twin of [`hash2_gather`].
pub fn hash2_gather_scalar(k0: &[i64], k1: &[i64], sel: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.extend(sel.iter().map(|&i| {
        let i = i as usize;
        hash_combine(hash_i64(k0[i]), k1[i])
    }));
}

// ---------------------------------------------------------------------------
// Filter kernels: branchless selection-vector compaction.
// ---------------------------------------------------------------------------

/// Monomorphise a kernel body per comparison operator: `keep` becomes a
/// concrete `f64 x f64` comparison the autovectorizer can lower to a packed
/// compare, instead of a per-row `match` on the operator.
macro_rules! for_each_cmp {
    ($op:expr, $lit:expr, |$keep:ident| $body:expr) => {
        match $op {
            CmpOp::Eq => {
                let $keep = |v: f64| v == $lit;
                $body
            }
            CmpOp::Ne => {
                let $keep = |v: f64| v != $lit;
                $body
            }
            CmpOp::Lt => {
                let $keep = |v: f64| v < $lit;
                $body
            }
            CmpOp::Le => {
                let $keep = |v: f64| v <= $lit;
                $body
            }
            CmpOp::Gt => {
                let $keep = |v: f64| v > $lit;
                $body
            }
            CmpOp::Ge => {
                let $keep = |v: f64| v >= $lit;
                $body
            }
        }
    };
}

/// Dense filter body: `sel` is sized to `vals.len()` up front, every lane
/// writes its row id at the output cursor unconditionally, and the cursor
/// advances by the comparison result — no data-dependent branch, so a
/// selective predicate costs the same as a permissive one.
#[inline(always)]
fn filter_dense_with(vals: &[f64], keep: impl Fn(f64) -> bool, sel: &mut Vec<u32>) {
    sel.resize(vals.len(), 0);
    let mut len = 0usize;
    let mut base = 0u32;
    let mut chunks = vals.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut flags = [0u32; LANES];
        for l in 0..LANES {
            flags[l] = keep(chunk[l]) as u32;
        }
        for (l, &f) in flags.iter().enumerate() {
            sel[len] = base + l as u32;
            len += f as usize;
        }
        base += LANES as u32;
    }
    for (l, &v) in chunks.remainder().iter().enumerate() {
        sel[len] = base + l as u32;
        len += keep(v) as usize;
    }
    sel.truncate(len);
}

/// Refine body: compact the existing selection in place. The write cursor
/// never overtakes the read cursor (each chunk's ids are copied out first),
/// so reading and writing the same vector is safe.
#[inline(always)]
fn filter_refine_with(vals: &[f64], keep: impl Fn(f64) -> bool, sel: &mut Vec<u32>) {
    let n = sel.len();
    let mut kept = 0usize;
    let mut pos = 0usize;
    while pos + LANES <= n {
        let mut ids = [0u32; LANES];
        ids.copy_from_slice(&sel[pos..pos + LANES]);
        let mut flags = [0u32; LANES];
        for l in 0..LANES {
            flags[l] = keep(vals[ids[l] as usize]) as u32;
        }
        for (l, &f) in flags.iter().enumerate() {
            sel[kept] = ids[l];
            kept += f as usize;
        }
        pos += LANES;
    }
    while pos < n {
        let i = sel[pos];
        sel[kept] = i;
        kept += keep(vals[i as usize]) as usize;
        pos += 1;
    }
    sel.truncate(kept);
}

/// Filter a dense `f64` column into a fresh selection vector.
pub fn filter_dense_f64(vals: &[f64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    for_each_cmp!(op, lit, |keep| filter_dense_with(vals, keep, sel));
}

/// Scalar twin of [`filter_dense_f64`].
pub fn filter_dense_f64_scalar(vals: &[f64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    sel.clear();
    for (i, &v) in vals.iter().enumerate() {
        if op.apply(v, lit) {
            sel.push(i as u32);
        }
    }
}

/// Filter a dense `i64` key column (compared as `f64`, mirroring the
/// predicate fallback the row-at-a-time oracle applies to key columns).
pub fn filter_dense_i64(vals: &[i64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    for_each_cmp!(op, lit, |keep| {
        sel.resize(vals.len(), 0);
        let mut len = 0usize;
        let mut base = 0u32;
        let mut chunks = vals.chunks_exact(LANES);
        for chunk in &mut chunks {
            let mut flags = [0u32; LANES];
            for l in 0..LANES {
                flags[l] = keep(chunk[l] as f64) as u32;
            }
            for (l, &f) in flags.iter().enumerate() {
                sel[len] = base + l as u32;
                len += f as usize;
            }
            base += LANES as u32;
        }
        for (l, &v) in chunks.remainder().iter().enumerate() {
            sel[len] = base + l as u32;
            len += keep(v as f64) as usize;
        }
        sel.truncate(len);
    });
}

/// Scalar twin of [`filter_dense_i64`].
pub fn filter_dense_i64_scalar(vals: &[i64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    sel.clear();
    for (i, &v) in vals.iter().enumerate() {
        if op.apply(v as f64, lit) {
            sel.push(i as u32);
        }
    }
}

/// Refine an existing selection against an `f64` column, compacting in place.
pub fn filter_refine_f64(vals: &[f64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    for_each_cmp!(op, lit, |keep| filter_refine_with(vals, keep, sel));
}

/// Scalar twin of [`filter_refine_f64`].
pub fn filter_refine_f64_scalar(vals: &[f64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    let mut kept = 0usize;
    for pos in 0..sel.len() {
        let i = sel[pos];
        if op.apply(vals[i as usize], lit) {
            sel[kept] = i;
            kept += 1;
        }
    }
    sel.truncate(kept);
}

/// Refine an existing selection against an `i64` key column (compared as
/// `f64`), compacting in place.
pub fn filter_refine_i64(vals: &[i64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    for_each_cmp!(op, lit, |keep| {
        let n = sel.len();
        let mut kept = 0usize;
        let mut pos = 0usize;
        while pos + LANES <= n {
            let mut ids = [0u32; LANES];
            ids.copy_from_slice(&sel[pos..pos + LANES]);
            let mut flags = [0u32; LANES];
            for l in 0..LANES {
                flags[l] = keep(vals[ids[l] as usize] as f64) as u32;
            }
            for (l, &f) in flags.iter().enumerate() {
                sel[kept] = ids[l];
                kept += f as usize;
            }
            pos += LANES;
        }
        while pos < n {
            let i = sel[pos];
            sel[kept] = i;
            kept += keep(vals[i as usize] as f64) as usize;
            pos += 1;
        }
        sel.truncate(kept);
    });
}

/// Scalar twin of [`filter_refine_i64`].
pub fn filter_refine_i64_scalar(vals: &[i64], op: CmpOp, lit: f64, sel: &mut Vec<u32>) {
    let mut kept = 0usize;
    for pos in 0..sel.len() {
        let i = sel[pos];
        if op.apply(vals[i as usize] as f64, lit) {
            sel[kept] = i;
            kept += 1;
        }
    }
    sel.truncate(kept);
}

// ---------------------------------------------------------------------------
// Aggregate fold kernels.
// ---------------------------------------------------------------------------

/// Monomorphise a fold kernel body per [`Fold`]: `step` becomes a concrete
/// `(acc, value) -> acc` the loop inlines, instead of a per-row `match` on
/// the fold.
macro_rules! for_each_fold {
    ($fold:expr, |$step:ident| $body:expr) => {
        match $fold {
            Fold::Add => {
                let $step = |acc: f64, v: f64| Fold::Add.apply(acc, v);
                $body
            }
            Fold::Min => {
                let $step = |acc: f64, v: f64| Fold::Min.apply(acc, v);
                $body
            }
            Fold::Max => {
                let $step = |acc: f64, v: f64| Fold::Max.apply(acc, v);
                $body
            }
        }
    };
}

/// Fold a dense value slice into the running value `acc`, in row order.
pub fn fold_dense(fold: Fold, acc: &mut f64, vals: &[f64]) {
    for_each_fold!(fold, |step| {
        for &v in vals {
            *acc = step(*acc, v);
        }
    });
}

/// Fold the selected rows of a value slice into the running value `acc`,
/// in selection order: chunked gather, sequential fold.
pub fn fold_gather(fold: Fold, acc: &mut f64, vals: &[f64], sel: &[u32]) {
    for_each_fold!(fold, |step| {
        let mut chunks = sel.chunks_exact(LANES);
        for chunk in &mut chunks {
            let mut lanes = [0.0f64; LANES];
            for l in 0..LANES {
                lanes[l] = vals[chunk[l] as usize];
            }
            for &v in &lanes {
                *acc = step(*acc, v);
            }
        }
        for &i in chunks.remainder() {
            *acc = step(*acc, vals[i as usize]);
        }
    });
}

/// Scalar twin of [`fold_gather`] (and, over the identity selection, of
/// [`fold_dense`], whose loop has no chunked gather to diverge from).
pub fn fold_gather_scalar(fold: Fold, acc: &mut f64, vals: &[f64], sel: &[u32]) {
    for &i in sel {
        *acc = fold.apply(*acc, vals[i as usize]);
    }
}

// ---------------------------------------------------------------------------
// Tuple key folds.
// ---------------------------------------------------------------------------

/// What a folded tuple key evaluates to for a row outside its box on any
/// element: every tuple inside a box whose cell count fits `i64` folds into
/// `0..cells`, so no in-box tuple folds to this value.
pub const OUTSIDE: i64 = i64::MIN;

/// One element of a tuple key folded by mixed radix: the smallest value of
/// its box range, the range's span (`max − min + 1`; 0 when the range is
/// empty, so every value is outside) and its stride (the product of the
/// later elements' spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldDim {
    pub min: i64,
    pub span: u64,
    pub stride: i64,
}

/// Fold a tuple key for every selected row (`None`: the dense range
/// `0..rows`) in one fused pass over its elements: each row reads each
/// element `c` once, takes `u = (c − min) as u64` in wrapping arithmetic,
/// ORs the tests `u ≥ span` and sums `u·stride`, and writes the sum, or
/// [`OUTSIDE`] when any element is off. `column(k)` is element `k`'s
/// column (two elements may share one); a tuple has at least one element
/// (a plan's key tuples are never empty). A tuple of more than three
/// elements folds three per pass, the later passes adding onto what the
/// earlier ones left and keeping [`OUTSIDE`] where they wrote it — which
/// requires the box's cell count to fit `i64`, so that no partial sum is
/// [`OUTSIDE`].
/// `out` grows to `rows` lanes; rows off the selection keep what they held.
/// Returns whether any selected row was outside.
pub fn fold_tuple<'a>(
    dims: &[FoldDim],
    column: impl Fn(usize) -> &'a [i64],
    rows: usize,
    sel: Option<&[u32]>,
    out: &mut Vec<i64>,
) -> bool {
    if out.len() < rows {
        out.resize(rows, 0);
    }
    let out = &mut out[..rows];
    let mut outside = false;
    for (pass, group) in dims.chunks(3).enumerate() {
        let col = |k: usize| column(3 * pass + k);
        outside |= match (pass, group) {
            (0, &[a]) => fold_pass::<1, true>(out, sel, [a], [col(0)]),
            (0, &[a, b]) => fold_pass::<2, true>(out, sel, [a, b], [col(0), col(1)]),
            (0, &[a, b, c]) => fold_pass::<3, true>(out, sel, [a, b, c], [col(0), col(1), col(2)]),
            (_, &[a]) => fold_pass::<1, false>(out, sel, [a], [col(0)]),
            (_, &[a, b]) => fold_pass::<2, false>(out, sel, [a, b], [col(0), col(1)]),
            (_, &[a, b, c]) => fold_pass::<3, false>(out, sel, [a, b, c], [col(0), col(1), col(2)]),
            _ => unreachable!("chunks of three"),
        };
    }
    outside
}

/// One pass of [`fold_tuple`] over up to three elements: the first pass
/// (`FIRST`) starts each key from 0, a later one from what `out` holds.
#[inline(always)]
fn fold_pass<const N: usize, const FIRST: bool>(
    out: &mut [i64],
    sel: Option<&[u32]>,
    dims: [FoldDim; N],
    cols: [&[i64]; N],
) -> bool {
    let fold = |base: i64, vals: [i64; N]| {
        let (mut key, mut off) = if FIRST {
            (0i64, false)
        } else {
            (base, base == OUTSIDE)
        };
        for (d, c) in dims.iter().zip(vals) {
            let u = c.wrapping_sub(d.min) as u64;
            off |= u >= d.span;
            key = key.wrapping_add((u as i64).wrapping_mul(d.stride));
        }
        (if off { OUTSIDE } else { key }, off)
    };
    let mut outside = false;
    match sel {
        None => {
            // A dense pass reads exactly `out.len()` lanes of every column;
            // saying so up front drops the row loop's bounds checks.
            let cols = cols.map(|c| &c[..out.len()]);
            for (i, o) in out.iter_mut().enumerate() {
                let (key, off) = fold(*o, cols.map(|c| c[i]));
                *o = key;
                outside |= off;
            }
        }
        Some(ids) => {
            for &i in ids {
                let i = i as usize;
                let (key, off) = fold(out[i], cols.map(|c| c[i]));
                out[i] = key;
                outside |= off;
            }
        }
    }
    outside
}

/// Scalar twin of [`fold_tuple`], evaluated the unfused way: the affine
/// form `Σ stride·c − Σ min·stride` in wrapping `i64`, then one range check
/// per element that sends a row outside its box to [`OUTSIDE`].
pub fn fold_tuple_scalar<'a>(
    dims: &[FoldDim],
    column: impl Fn(usize) -> &'a [i64],
    rows: usize,
    sel: Option<&[u32]>,
    out: &mut Vec<i64>,
) -> bool {
    if out.len() < rows {
        out.resize(rows, 0);
    }
    let ids: Vec<usize> = match sel {
        None => (0..rows).collect(),
        Some(ids) => ids.iter().map(|&i| i as usize).collect(),
    };
    let constant = dims.iter().fold(0i64, |acc, d| {
        acc.wrapping_sub(d.min.wrapping_mul(d.stride))
    });
    for &i in &ids {
        out[i] = dims.iter().enumerate().fold(constant, |acc, (k, d)| {
            acc.wrapping_add(d.stride.wrapping_mul(column(k)[i]))
        });
    }
    let mut outside = false;
    for (k, d) in dims.iter().enumerate() {
        for &i in &ids {
            if column(k)[i].wrapping_sub(d.min) as u64 >= d.span {
                out[i] = OUTSIDE;
                outside = true;
            }
        }
    }
    outside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn dense_filter_agrees_with_scalar_on_special_values() {
        let vals = vec![
            1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            2.5,
            -2.5,
            1.0,
            f64::NAN,
            3.0,
        ];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for lit in [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                filter_dense_f64(&vals, op, lit, &mut a);
                filter_dense_f64_scalar(&vals, op, lit, &mut b);
                assert_eq!(a, b, "{op:?} {lit}");
            }
        }
    }

    #[test]
    fn refine_compacts_in_place_like_scalar() {
        let vals: Vec<f64> = (0..37).map(|i| (i % 5) as f64).collect();
        let mut a = ids(37);
        let mut b = ids(37);
        filter_refine_f64(&vals, CmpOp::Ge, 2.0, &mut a);
        filter_refine_f64_scalar(&vals, CmpOp::Ge, 2.0, &mut b);
        assert_eq!(a, b);
        // Second refinement over the already-sparse selection.
        let mut a2 = a.clone();
        let mut b2 = a;
        filter_refine_f64(&vals, CmpOp::Lt, 4.0, &mut a2);
        filter_refine_f64_scalar(&vals, CmpOp::Lt, 4.0, &mut b2);
        assert_eq!(a2, b2);
    }

    #[test]
    fn i64_filters_compare_through_f64_like_the_interpreter() {
        // 2^53 and 2^53 + 1 collapse to the same f64 — the kernel must
        // reproduce that (documented) behaviour, not "fix" it.
        let vals = vec![i64::MIN, -1, 0, 1, 1 << 53, (1 << 53) + 1, i64::MAX];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        filter_dense_i64(&vals, CmpOp::Eq, (1u64 << 53) as f64, &mut a);
        filter_dense_i64_scalar(&vals, CmpOp::Eq, (1u64 << 53) as f64, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![4, 5], "both 2^53 and 2^53+1 compare equal as f64");
    }

    #[test]
    fn batch_hashes_match_the_scalar_primitives() {
        let keys: Vec<i64> = (0..29).map(|i| i * 7 - 90).collect();
        let k1: Vec<i64> = (0..29).map(|i| i * 3 + 1).collect();
        let sel: Vec<u32> = (0..29).step_by(2).map(|i| i as u32).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        hash1_dense(&keys, &mut a);
        hash1_dense_scalar(&keys, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().zip(&keys).all(|(&h, &k)| h == hash_i64(k)));
        hash1_gather(&keys, &sel, &mut a);
        hash1_gather_scalar(&keys, &sel, &mut b);
        assert_eq!(a, b);
        hash2_dense(&keys, &k1, &mut a);
        hash2_dense_scalar(&keys, &k1, &mut b);
        assert_eq!(a, b);
        hash2_gather(&keys, &k1, &sel, &mut a);
        hash2_gather_scalar(&keys, &k1, &sel, &mut b);
        assert_eq!(a, b);
        assert_eq!(hash_key(&[5]), hash_i64(5));
        assert_eq!(hash_key(&[5, 9]), hash_combine(hash_i64(5), 9));
    }

    #[test]
    fn gather_folds_keep_sequential_order() {
        // A sum whose value depends on accumulation order: huge alternating
        // terms cancel only when folded strictly left to right.
        let vals = vec![1e308, -1e308, 1.0, 1e308, -1e308, 2.0, 3.0, 4.0, 5.0, 6.0];
        let sel = ids(vals.len());
        let (mut chunked, mut scalar, mut dense) = (0.0, 0.0, 0.0);
        fold_gather(Fold::Add, &mut chunked, &vals, &sel);
        fold_gather_scalar(Fold::Add, &mut scalar, &vals, &sel);
        fold_dense(Fold::Add, &mut dense, &vals);
        assert_eq!(chunked.to_bits(), scalar.to_bits());
        assert_eq!(dense.to_bits(), chunked.to_bits());
    }

    #[test]
    fn ragged_tails_shorter_than_one_chunk() {
        for n in 0..(2 * LANES + 3) {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            filter_dense_f64(&vals, CmpOp::Gt, 0.0, &mut a);
            filter_dense_f64_scalar(&vals, CmpOp::Gt, 0.0, &mut b);
            assert_eq!(a, b, "dense filter, {n} rows");
            let keys: Vec<i64> = (0..n as i64).collect();
            let (mut ha, mut hb) = (Vec::new(), Vec::new());
            hash1_dense(&keys, &mut ha);
            hash1_dense_scalar(&keys, &mut hb);
            assert_eq!(ha, hb, "dense hash, {n} rows");
            let (mut sa, mut sb) = (f64::INFINITY, f64::INFINITY);
            fold_gather(Fold::Min, &mut sa, &vals, &b);
            fold_gather_scalar(Fold::Min, &mut sb, &vals, &b);
            assert_eq!(sa.to_bits(), sb.to_bits(), "gather fold, {n} rows");
        }
    }
}
