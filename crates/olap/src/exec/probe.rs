//! The hash-probe operator: a morsel's filtered rows run through the
//! pipeline's chain of build tables, leaving the [`Survivors`] every sink
//! consumes.

use super::pipeline::MorselCtx;
use crate::program::JoinKey;
use crate::scratch::{MorselData, ProbeBufs};

/// The `i64` join-key lane of every selected row of one morsel, indexed by
/// row, and whether a selected row of a folded tuple fell outside its box:
/// a plain key column is read in place; any other key evaluates its affine
/// form in wrapping `i64` over the key columns into the worker's key buffer
/// `buf` — a tuple's fold, with each row outside the box sent to
/// [`crate::program::OUTSIDE`]. All are exact over the full `i64` range,
/// and every probe and build loop downstream sees one kind of key.
#[inline]
pub(super) fn key_vals<'a>(
    key: &JoinKey,
    data: &'a MorselData<'_>,
    buf: &'a mut Vec<i64>,
    rows: usize,
    sel: Option<&[u32]>,
) -> (&'a [i64], bool) {
    if let Some(slot) = key.column() {
        return (data.key(slot as usize), false);
    }
    let outside = key.eval(|slot| data.key(slot as usize), rows, sel, buf);
    (&buf[..rows], outside)
}

/// Run `f(pos, row)` over every selected row: `pos` is the row's position in
/// the selection (equal to the row index on a dense range).
#[inline(always)]
pub(super) fn for_each_selected(rows: usize, sel: Option<&[u32]>, mut f: impl FnMut(usize, usize)) {
    match sel {
        None => (0..rows).for_each(|i| f(i, i)),
        Some(ids) => ids
            .iter()
            .enumerate()
            .for_each(|(pos, &i)| f(pos, i as usize)),
    }
}

/// Final survivors of one morsel's filter + probe chain.
#[derive(Clone, Copy)]
pub(super) enum Survivors<'a> {
    /// Every weight is 1: a plain selection (`None` = all rows survive).
    Plain(Option<&'a [u32]>),
    /// At least one probed build has duplicate keys: the surviving rows and
    /// their join multiplicities, parallel slices.
    Weighted(&'a [u32], &'a [u64]),
}

impl<'a> Survivors<'a> {
    /// The surviving row ids as a plain selection (multiplicities dropped).
    pub fn selection(&self) -> Option<&'a [u32]> {
        match self {
            Survivors::Plain(sel) => *sel,
            Survivors::Weighted(ids, _) => Some(ids),
        }
    }

    /// Surviving *tuple* count: the sum of multiplicities — for a weighted
    /// join, one surviving probe row stands for `w` joined tuples.
    pub fn tuple_count(&self, rows: usize) -> u64 {
        match self {
            Survivors::Plain(sel) => sel.map_or(rows, <[u32]>::len) as u64,
            Survivors::Weighted(_, weights) => weights.iter().sum(),
        }
    }
}

/// Probe the morsel's rows through the pipeline's chain of build tables,
/// compacting survivors hop by hop (ping-ponging between the two buffer
/// pairs of `bufs`). Returns the probe count — one per input row of each
/// hop — and the final survivors.
///
/// While every probed build is unique and no weights are in flight, each
/// hop is a plain membership probe: [`JoinTable::select`] compacts the
/// matching rows without a data-dependent branch (a hashed table after the
/// chunked hash kernels filled the hash buffer for the whole selection, a
/// direct one by `key − min`). The first hop over a duplicate-key build
/// switches the chain to weight tracking
/// ([`JoinTable::select_weighted`]): a surviving row's multiplicity is the
/// product of the matched build weights, and downstream sinks fold it that
/// many times. Each hop decides the table's kind once, in the table's
/// method; no row loop branches on it.
///
/// [`JoinTable::select`]: crate::hashtable::JoinTable::select
/// [`JoinTable::select_weighted`]: crate::hashtable::JoinTable::select_weighted
pub(super) fn probe_chain<'s>(
    cx: &mut MorselCtx<'_, '_>,
    sel: Option<&'s [u32]>,
    bufs: &'s mut ProbeBufs,
) -> (u64, Survivors<'s>) {
    let (pipe, rows) = (cx.pipe, cx.rows);
    let mut total_probes = 0u64;
    let mut weighted = false;
    let mut ran = false;
    for &(ref key, table) in &pipe.probes {
        let track = weighted || !table.unique();
        // After the first hop, swap so the current survivors sit in
        // `sel_b`/`w_b` and this hop writes fresh output into `sel_a`/`w_a`
        // (the first hop always writes `sel_a`/`w_a`: a one-hop chain never
        // grows the second pair).
        if ran {
            std::mem::swap(&mut bufs.sel_a, &mut bufs.sel_b);
            std::mem::swap(&mut bufs.w_a, &mut bufs.w_b);
        }
        let src: Option<&[u32]> = if ran { Some(&bufs.sel_b) } else { sel };
        let src_w: Option<&[u64]> = weighted.then_some(bufs.w_b.as_slice());
        let (out, out_w) = (&mut bufs.sel_a, &mut bufs.w_a);
        total_probes += src.map_or(rows, <[u32]>::len) as u64;
        // Exactly `rows` lanes — or none, when the filters emptied the
        // morsel and the key column was never loaded.
        if table.is_empty() {
            // No build row: every row misses, and no key is evaluated.
            out.clear();
            out_w.clear();
        } else {
            // A tuple outside the build's box folded to a key no build
            // holds: it misses like any other.
            let (keys, _) = key_vals(key, cx.data, cx.keys, rows, src);
            if track {
                table.select_weighted(keys, src, src_w, out, out_w);
            } else {
                table.select(keys, src, cx.hashes, out);
            }
        }
        weighted = track;
        ran = true;
    }
    if !ran {
        (0, Survivors::Plain(sel))
    } else if weighted {
        (total_probes, Survivors::Weighted(&bufs.sel_a, &bufs.w_a))
    } else {
        (total_probes, Survivors::Plain(Some(&bufs.sel_a)))
    }
}
