//! The grouped-aggregate sink: one flat group table per morsel, merged
//! radix-partitioned in morsel order.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{for_each_selected, Survivors};
use super::scalar::fold_weighted_row;
use super::GroupRow;
use crate::error::OlapError;
use crate::expr::{AggExpr, AggState};
use crate::hashtable::GroupTable;
use crate::kernels;
use crate::program::{eval_expr, resolve, AggKind, CompiledAgg, ValView};
use crate::scratch::MorselData;

/// Hash-radix fan-out of the partitioned group merge. The partition of a
/// group is the *top* `RADIX_BITS` of its key hash — the linear-probing
/// tables consume the hash from the low bits up, so the high bits stay
/// well-distributed and independent of any table's slot mask.
const RADIX_BITS: u32 = 4;
/// Number of radix partitions (16).
const RADIX_PARTS: usize = 1 << RADIX_BITS;

/// Radix partition of one key hash.
#[inline(always)]
fn radix_part(h: u64) -> usize {
    (h >> (64 - RADIX_BITS)) as usize
}

/// Aggregates one fused fold pass covers (the width of its value-view
/// array); a longer aggregate list takes one pass per chunk of this width.
const FUSED_AGGS: usize = 8;

/// Groups every morsel's survivors into that morsel's own table and merges
/// the per-morsel tables in morsel order (same discipline as the scalar
/// sink), so results stay identical across worker counts. An empty
/// `group_by` is the degenerate single global group — a grouped result with
/// no key columns.
pub(super) struct GroupSink<'q> {
    aggregates: &'q [AggExpr],
    /// Key-list slot of each group-by column.
    slots: Vec<usize>,
}

impl<'q> GroupSink<'q> {
    pub fn bind(
        pipe: &Pipeline<'_>,
        group_by: &[String],
        aggregates: &'q [AggExpr],
    ) -> Result<Self, OlapError> {
        let slots = group_by
            .iter()
            .map(|g| pipe.key_slot(g))
            .collect::<Result<_, _>>()?;
        Ok(GroupSink { aggregates, slots })
    }
}

/// Per-worker output of a grouping pipeline: the worker's group table
/// (reused across morsels) and the per-morsel flat group tables it emitted,
/// in claim order, with each morsel's groups scattered into hash-radix
/// partition order so the final merge can process one disjoint partition at
/// a time (see [`GroupSink::merge`]).
pub(super) struct GroupOut {
    table: GroupTable,
    /// Composite-key assembly buffer for > 2 group columns.
    key_tmp: Vec<i64>,
    order: Vec<u32>,
    /// Groups per radix partition per processed morsel: `RADIX_PARTS`
    /// entries per entry of `order`.
    part_counts: Vec<u32>,
    /// Flat keys: `n_keys` per group, morsels concatenated in claim order,
    /// groups within a morsel in partition-then-first-seen order.
    keys: Vec<i64>,
    /// Flat states: `n_aggs` per group, same order as `keys`.
    states: Vec<AggState>,
    /// Key hash per group, same order as `keys` — reused by the merge's
    /// prehashed upserts.
    hashes: Vec<u64>,
}

impl GroupOut {
    /// Upsert every selected row's group key, calling
    /// `fold(table, group, pos, row)` per row (`pos` as in
    /// [`for_each_selected`]). One- and two-column keys (the common shapes)
    /// batch-hash the whole selection with the chunked kernels of
    /// [`crate::kernels`] into `hashes` first; wider keys hash per row.
    #[inline(always)]
    fn upsert_rows(
        &mut self,
        slots: &[usize],
        data: &MorselData<'_>,
        hashes: &mut Vec<u64>,
        rows: usize,
        sel: Option<&[u32]>,
        mut fold: impl FnMut(&mut GroupTable, usize, usize, usize),
    ) {
        let (table, key_tmp) = (&mut self.table, &mut self.key_tmp);
        match slots {
            // GROUP BY over no columns: one global group.
            [] => for_each_selected(rows, sel, |pos, i| {
                let g = table.upsert0();
                fold(table, g, pos, i);
            }),
            [s0] => {
                let k0 = data.key(*s0);
                match sel {
                    None => kernels::hash1_dense(k0, hashes),
                    Some(ids) => kernels::hash1_gather(k0, ids, hashes),
                }
                for_each_selected(rows, sel, |pos, i| {
                    let g = table.upsert1_prehashed(hashes[pos], k0[i]);
                    fold(table, g, pos, i);
                });
            }
            [s0, s1] => {
                let (k0, k1) = (data.key(*s0), data.key(*s1));
                match sel {
                    None => kernels::hash2_dense(k0, k1, hashes),
                    Some(ids) => kernels::hash2_gather(k0, k1, ids, hashes),
                }
                for_each_selected(rows, sel, |pos, i| {
                    let g = table.upsert2_prehashed(hashes[pos], k0[i], k1[i]);
                    fold(table, g, pos, i);
                });
            }
            slots => {
                key_tmp.resize(slots.len(), 0);
                for_each_selected(rows, sel, |pos, i| {
                    for (part, &slot) in key_tmp.iter_mut().zip(slots) {
                        *part = data.key(slot)[i];
                    }
                    let g = table.upsert(key_tmp);
                    fold(table, g, pos, i);
                });
            }
        }
    }

    /// Append morsel `idx`'s group table, counting-sort-scattered by radix
    /// partition. The scatter is stable, so within a partition the groups
    /// keep their first-seen (row) order — the merge folds partitions morsel
    /// by morsel, which therefore preserves the scan-order fold discipline
    /// that makes results bit-for-bit identical across worker counts.
    fn emit_morsel(&mut self, idx: usize, n_keys: usize, n_aggs: usize) {
        let groups = &self.table;
        let count = groups.group_count();
        let hashes = groups.hashes_flat();
        let keys = groups.keys_flat();
        let states = groups.states_flat();
        let mut counts = [0u32; RADIX_PARTS];
        for &h in hashes {
            counts[radix_part(h)] += 1;
        }
        let mut offsets = [0u32; RADIX_PARTS];
        let mut at = 0u32;
        for (off, &c) in offsets.iter_mut().zip(&counts) {
            *off = at;
            at += c;
        }
        let key_base = self.keys.len();
        let state_base = self.states.len();
        let hash_base = self.hashes.len();
        self.keys.resize(key_base + count * n_keys, 0);
        self.states
            .resize(state_base + count * n_aggs, AggState::default());
        self.hashes.resize(hash_base + count, 0);
        for (g, &h) in hashes.iter().enumerate() {
            let p = radix_part(h);
            let dst = offsets[p] as usize;
            offsets[p] += 1;
            self.hashes[hash_base + dst] = h;
            self.keys[key_base + dst * n_keys..key_base + (dst + 1) * n_keys]
                .copy_from_slice(&keys[g * n_keys..(g + 1) * n_keys]);
            self.states[state_base + dst * n_aggs..state_base + (dst + 1) * n_aggs]
                .copy_from_slice(&states[g * n_aggs..(g + 1) * n_aggs]);
        }
        self.order.push(idx as u32);
        self.part_counts.extend_from_slice(&counts);
    }
}

/// Fold one row's value of every aggregate of a fused pass into its group's
/// states.
#[inline(always)]
fn fold_row(states: &mut [AggState], aggs: &[CompiledAgg], views: &[ValView<'_>], i: usize) {
    for ((state, agg), view) in states.iter_mut().zip(aggs).zip(views) {
        match agg {
            CompiledAgg::Count => state.update_count(),
            CompiledAgg::Fold(AggKind::Sum, _) => state.fold_sum(view.get(i)),
            CompiledAgg::Fold(AggKind::Avg, _) => state.fold_avg(view.get(i)),
            CompiledAgg::Fold(AggKind::Min, _) => state.fold_min(view.get(i)),
            CompiledAgg::Fold(AggKind::Max, _) => state.fold_max(view.get(i)),
        }
    }
}

/// [`fold_row`] for a row standing for `w` joined tuples: COUNT advances by
/// `w`, the folds follow [`fold_weighted_row`].
#[inline(always)]
fn fold_row_weighted(
    states: &mut [AggState],
    aggs: &[CompiledAgg],
    views: &[ValView<'_>],
    i: usize,
    w: u64,
) {
    for ((state, agg), view) in states.iter_mut().zip(aggs).zip(views) {
        match agg {
            CompiledAgg::Count => state.update_count_n(w),
            CompiledAgg::Fold(kind, _) => fold_weighted_row(*kind, state, view.get(i), w),
        }
    }
}

impl Sink for GroupSink<'_> {
    type Partial = GroupOut;
    type Output = Vec<GroupRow>;
    const ROOT: bool = true;

    fn partial(&self, morsels: usize) -> GroupOut {
        let mut table = GroupTable::default();
        table.configure(self.slots.len(), self.aggregates.len());
        GroupOut {
            table,
            key_tmp: Vec::new(),
            order: Vec::with_capacity(morsels),
            part_counts: Vec::with_capacity(morsels * RADIX_PARTS),
            keys: Vec::new(),
            states: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Assign every surviving row to its group and fold all aggregate inputs
    /// in a single row-wise pass: one upsert plus one state-slice fetch per
    /// row. More aggregates than one pass covers re-run the pass per chunk
    /// of the list (the upserts then find the groups the first pass made);
    /// either way every state folds its rows in row order.
    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, out: &mut GroupOut) {
        let (pipe, rows) = (cx.pipe, cx.rows);
        let (aggs, consts) = (&pipe.aggs, &pipe.pool.consts);
        let sel = survivors.selection();
        out.table.begin_morsel();
        // Evaluate every fold input up front (each compiled expression
        // writes its own registers, so there is no aliasing between
        // aggregates).
        for agg in aggs {
            if let CompiledAgg::Fold(_, e) = agg {
                eval_expr(e, cx.data, cx.regs, consts, rows, sel);
            }
        }
        for base in (0..aggs.len().max(1)).step_by(FUSED_AGGS) {
            let chunk = &aggs[base..aggs.len().min(base + FUSED_AGGS)];
            let mut views = [ValView::Const(0.0); FUSED_AGGS];
            for (view, agg) in views.iter_mut().zip(chunk) {
                if let CompiledAgg::Fold(_, e) = agg {
                    *view = resolve(e.output, cx.data, cx.regs, consts);
                }
            }
            match survivors {
                Survivors::Plain(_) => out.upsert_rows(
                    &self.slots,
                    cx.data,
                    cx.hashes,
                    rows,
                    sel,
                    |table, g, _, i| {
                        fold_row(&mut table.group_states_mut(g)[base..], chunk, &views, i)
                    },
                ),
                Survivors::Weighted(_, weights) => out.upsert_rows(
                    &self.slots,
                    cx.data,
                    cx.hashes,
                    rows,
                    sel,
                    |table, g, pos, i| {
                        let states = &mut table.group_states_mut(g)[base..];
                        fold_row_weighted(states, chunk, &views, i, weights[pos])
                    },
                ),
            }
        }
        out.emit_morsel(cx.idx, self.slots.len(), self.aggregates.len());
    }

    /// Merge per-worker group outputs into the final sorted rows via the
    /// radix partitioning the workers already applied at emission: every
    /// group key lives in exactly one hash-radix partition, so the merge
    /// processes one partition at a time through a single reused prehashed
    /// [`GroupTable`] — re-hashing nothing, probing a table 16x smaller than
    /// a global one — and the partitions concatenate disjointly. Within each
    /// partition the morsels are folded in morsel-index order (first
    /// occurrence *copies* the partial state; `AggState::default().merge` is
    /// not a bitwise identity), which keeps every group's aggregation order
    /// equal to the scan order — hence bit-for-bit identical results for
    /// every worker count. Keys are sorted exactly once, over the final rows.
    fn merge(&self, partials: Vec<GroupOut>) -> Vec<GroupRow> {
        let (n_keys, n_aggs) = (self.slots.len(), self.aggregates.len());
        let morsels = partials.iter().map(|out| out.order.len()).sum();
        let mut parts: Vec<(u32, MorselGroups<'_>)> = Vec::with_capacity(morsels);
        for out in &partials {
            let mut key_at = 0usize;
            let mut state_at = 0usize;
            let mut hash_at = 0usize;
            for (k, &m) in out.order.iter().enumerate() {
                let counts = &out.part_counts[k * RADIX_PARTS..(k + 1) * RADIX_PARTS];
                let mut offsets = [0u32; RADIX_PARTS + 1];
                for (p, &c) in counts.iter().enumerate() {
                    offsets[p + 1] = offsets[p] + c;
                }
                let groups = offsets[RADIX_PARTS] as usize;
                parts.push((
                    m,
                    MorselGroups {
                        keys: &out.keys[key_at..key_at + groups * n_keys],
                        states: &out.states[state_at..state_at + groups * n_aggs],
                        hashes: &out.hashes[hash_at..hash_at + groups],
                        offsets,
                    },
                ));
                key_at += groups * n_keys;
                state_at += groups * n_aggs;
                hash_at += groups;
            }
        }
        parts.sort_unstable_by_key(|(m, _)| *m);
        let mut table = GroupTable::default();
        table.configure(n_keys, n_aggs);
        let mut rows: Vec<GroupRow> = Vec::new();
        for p in 0..RADIX_PARTS {
            table.begin_morsel();
            for (_, part) in &parts {
                let range = part.offsets[p] as usize..part.offsets[p + 1] as usize;
                for g in range {
                    let key = &part.keys[g * n_keys..(g + 1) * n_keys];
                    let chunk = &part.states[g * n_aggs..(g + 1) * n_aggs];
                    let before = table.group_count();
                    let gi = table.upsert_prehashed(part.hashes[g], key);
                    let states = table.group_states_mut(gi);
                    // New groups are appended, so a fresh claim returns the
                    // previous count as its index.
                    if gi == before {
                        states.copy_from_slice(chunk);
                    } else {
                        for (merged, state) in states.iter_mut().zip(chunk) {
                            merged.merge(state);
                        }
                    }
                }
            }
            for gi in 0..table.group_count() {
                let key = &table.keys_flat()[gi * n_keys..(gi + 1) * n_keys];
                let states = &table.states_flat()[gi * n_aggs..(gi + 1) * n_aggs];
                let aggs = self
                    .aggregates
                    .iter()
                    .zip(states)
                    .map(|(agg, st)| st.finalize(agg))
                    .collect();
                rows.push((key.to_vec(), aggs));
            }
        }
        // Partitions are disjoint key sets, so one final sort yields the
        // ascending-key order of the result.
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

/// One morsel's partition-scattered group segment, borrowed from a
/// [`GroupOut`] for the radix merge.
struct MorselGroups<'a> {
    keys: &'a [i64],
    states: &'a [AggState],
    hashes: &'a [u64],
    /// Exclusive prefix offsets of the radix partitions within this
    /// morsel's segment (`offsets[p]..offsets[p + 1]` is partition `p`).
    offsets: [u32; RADIX_PARTS + 1],
}
