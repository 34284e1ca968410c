//! The grouped-aggregate sink: one flat group table per morsel, merged
//! radix-partitioned in morsel order.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{for_each_selected, Survivors};
use super::GroupRow;
use crate::error::OlapError;
use crate::expr::{AggExpr, AggState};
use crate::hashtable::GroupTable;
use crate::kernels;
use crate::morsel::Morsel;
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
    /// Group index of every surviving row of the current morsel, in
    /// selection order (reused across morsels).
    gids: Vec<u32>,
    /// Whether each group of the current morsel got a row, when its groups
    /// were seated from a key range ([`GroupTable::seat_range`]); empty when
    /// they were upserted, each by a row.
    seen: Vec<bool>,
    order: Vec<u32>,
    /// Groups per radix partition per processed morsel: `RADIX_PARTS`
    /// entries per entry of `order`.
    part_counts: Vec<u32>,
    /// Flat keys: `n_keys` per group, morsels concatenated in claim order,
    /// groups within a morsel in partition-then-first-seen order (key order
    /// within a partition for a seated morsel).
    keys: Vec<i64>,
    /// Flat states: `n_aggs` per group, same order as `keys`.
    states: Vec<AggState>,
    /// Key hash per group, same order as `keys` — reused by the merge's
    /// prehashed upserts.
    hashes: Vec<u64>,
}

/// Whether a morsel takes its group ids straight from its one key column:
/// its selected keys span `min..=max`, and seating every key of the span
/// costs no more aggregate states than the morsel's rows fold
/// (`span × n_aggs ≤ selected`, one state per key without aggregates) —
/// so the set-up visits no more states than the folds themselves. The
/// span is computed in `u128`: `i64::MIN..=i64::MAX` is merely too wide.
fn seats_range(min: i64, max: i64, n_aggs: usize, selected: usize) -> bool {
    let span = u128::from(max.abs_diff(min)) + 1;
    span * n_aggs.max(1) as u128 <= selected as u128
}

impl GroupOut {
    /// Resolve every selected row's group and record it: `gids[pos]` is the
    /// group index of the `pos`-th selected row.
    ///
    /// A one-column key whose selected values span few keys
    /// ([`seats_range`]) is not hashed: the table seats the whole span in
    /// key order and a row's group is `key − min`; `seen` marks the groups
    /// that got a row, the only ones [`GroupOut::emit_morsel`] emits. Other
    /// one- and two-column keys (the common shapes) batch-hash the whole
    /// selection with the chunked kernels of [`crate::kernels`] into
    /// `hashes` and upsert; wider keys hash per row.
    ///
    /// Seating changes the order of a morsel's groups — key order instead of
    /// first-seen order — and cannot change a bit of the result: each
    /// group's states still fold its rows in row order, the radix merge
    /// folds one group's per-morsel partials in morsel order (a group
    /// appears once per morsel, wherever in it), and the final rows are
    /// sorted by key. Which path a morsel takes depends on its own rows
    /// only, so it is the same for every worker count.
    fn resolve_groups(
        &mut self,
        slots: &[usize],
        n_aggs: usize,
        data: &MorselData<'_>,
        hashes: &mut Vec<u64>,
        rows: usize,
        sel: Option<&[u32]>,
    ) {
        let (table, key_tmp, gids) = (&mut self.table, &mut self.key_tmp, &mut self.gids);
        let seen = &mut self.seen;
        seen.clear();
        // Sized up front (only growth is zero-filled; every arm overwrites
        // the buffer in full): the loops below store by position and carry
        // no capacity check.
        gids.resize(sel.map_or(rows, <[u32]>::len), 0);
        match slots {
            // GROUP BY over no columns: one global group, index 0.
            [] => {
                if !gids.is_empty() {
                    table.upsert0();
                }
                gids.fill(0);
            }
            [s0] => {
                let k0 = data.key(*s0);
                let range = match sel {
                    None => kernels::min_max_dense(k0),
                    Some(ids) => kernels::min_max_gather(k0, ids),
                };
                let selected = gids.len();
                if let Some((min, max)) =
                    range.filter(|&(min, max)| seats_range(min, max, n_aggs, selected))
                {
                    table.seat_range(min, max);
                    seen.resize(table.group_count(), false);
                    for_each_selected(rows, sel, |pos, i| {
                        let g = k0[i].wrapping_sub(min) as usize;
                        gids[pos] = g as u32;
                        seen[g] = true;
                    });
                    return;
                }
                match sel {
                    None => kernels::hash1_dense(k0, hashes),
                    Some(ids) => kernels::hash1_gather(k0, ids, hashes),
                }
                for_each_selected(rows, sel, |pos, i| {
                    gids[pos] = table.upsert1_prehashed(hashes[pos], k0[i]) as u32;
                });
            }
            [s0, s1] => {
                let (k0, k1) = (data.key(*s0), data.key(*s1));
                match sel {
                    None => kernels::hash2_dense(k0, k1, hashes),
                    Some(ids) => kernels::hash2_gather(k0, k1, ids, hashes),
                }
                for_each_selected(rows, sel, |pos, i| {
                    gids[pos] = table.upsert2_prehashed(hashes[pos], k0[i], k1[i]) as u32;
                });
            }
            slots => {
                key_tmp.resize(slots.len(), 0);
                for_each_selected(rows, sel, |pos, i| {
                    for (part, &slot) in key_tmp.iter_mut().zip(slots) {
                        *part = data.key(slot)[i];
                    }
                    gids[pos] = table.upsert(key_tmp) as u32;
                });
            }
        }
    }

    /// Append morsel `idx`'s group table, counting-sort-scattered by radix
    /// partition; a seated morsel's groups that got no row are left out. The
    /// scatter is stable, so within a partition the groups keep their table
    /// order — the merge folds partitions morsel by morsel, which therefore
    /// preserves the scan-order fold discipline that makes results
    /// bit-for-bit identical across worker counts.
    fn emit_morsel(&mut self, idx: usize, n_keys: usize, n_aggs: usize) {
        let groups = &self.table;
        let seen = &self.seen;
        let live = |g: usize| seen.is_empty() || seen[g];
        let hashes = groups.hashes_flat();
        let keys = groups.keys_flat();
        let states = groups.states_flat();
        let mut counts = [0u32; RADIX_PARTS];
        for (g, &h) in hashes.iter().enumerate() {
            counts[radix_part(h)] += u32::from(live(g));
        }
        let count = counts.iter().sum::<u32>() as usize;
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
        for (g, &h) in hashes.iter().enumerate().filter(|&(g, _)| live(g)) {
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

/// Fold one aggregate over the morsel's surviving rows, each into the state
/// of its row's group: `fold(state, pos)` folds the `pos`-th selected row.
/// `(n_aggs, j)` locates aggregate `j` in the group table's state arena,
/// `n_aggs` states per group.
#[inline(always)]
fn fold_column(
    states: &mut [AggState],
    (n_aggs, j): (usize, usize),
    gids: &[u32],
    mut fold: impl FnMut(&mut AggState, usize),
) {
    for (pos, &g) in gids.iter().enumerate() {
        fold(&mut states[g as usize * n_aggs + j], pos);
    }
}

/// Fold aggregate `agg` (input `view`, arena position `at`) of every
/// surviving row into its group's state, in row order. Aggregate kind, input
/// shape (constant, dense lanes, lanes behind a selection) and weighting are
/// fixed for the whole morsel, so they are dispatched once, here, and each
/// combination runs its own tight loop over `(group id, value)`.
fn fold_grouped(
    states: &mut [AggState],
    at: (usize, usize),
    gids: &[u32],
    agg: &CompiledAgg,
    view: ValView<'_>,
    survivors: Survivors<'_>,
) {
    let weights = match survivors {
        Survivors::Plain(_) => None,
        Survivors::Weighted(_, weights) => Some(weights),
    };
    // `fold!(|state, value, pos| ...)`: the loop of one fold, once per
    // input shape.
    macro_rules! fold {
        (|$st:ident, $v:ident, $pos:ident| $body:expr) => {
            match (view, survivors.selection()) {
                (ValView::Const($v), _) => fold_column(states, at, gids, |$st, $pos| $body),
                (ValView::Slice(s), None) => fold_column(states, at, gids, |$st, $pos| {
                    let $v = s[$pos];
                    $body
                }),
                (ValView::Slice(s), Some(ids)) => fold_column(states, at, gids, |$st, $pos| {
                    let $v = s[ids[$pos] as usize];
                    $body
                }),
            }
        };
    }
    match (agg, weights) {
        (CompiledAgg::Count, None) => fold_column(states, at, gids, |st, _| st.update_count()),
        (CompiledAgg::Count, Some(ws)) => {
            fold_column(states, at, gids, |st, pos| st.update_count_n(ws[pos]))
        }
        (CompiledAgg::Fold(AggKind::Sum, _), None) => fold!(|st, v, _pos| st.fold_sum(v)),
        (CompiledAgg::Fold(AggKind::Avg, _), None) => fold!(|st, v, _pos| st.fold_avg(v)),
        (CompiledAgg::Fold(AggKind::Sum, _), Some(ws)) => {
            fold!(|st, v, pos| st.fold_sum_weighted(v, ws[pos]))
        }
        (CompiledAgg::Fold(AggKind::Avg, _), Some(ws)) => {
            fold!(|st, v, pos| st.fold_avg_weighted(v, ws[pos]))
        }
        // Repeated folds of one value cannot move an extremum: a row
        // standing for `w` tuples folds once.
        (CompiledAgg::Fold(AggKind::Min, _), _) => fold!(|st, v, _pos| st.fold_min(v)),
        (CompiledAgg::Fold(AggKind::Max, _), _) => fold!(|st, v, _pos| st.fold_max(v)),
    }
}

impl Sink for GroupSink<'_> {
    type Partial = GroupOut;
    type Output = Vec<GroupRow>;
    const ROOT: bool = true;

    fn partial(&self, morsels: &[Morsel], _workers: usize) -> GroupOut {
        let mut table = GroupTable::default();
        table.configure(self.slots.len(), self.aggregates.len());
        GroupOut {
            table,
            key_tmp: Vec::new(),
            gids: Vec::new(),
            seen: Vec::new(),
            order: Vec::with_capacity(morsels.len()),
            part_counts: Vec::with_capacity(morsels.len() * RADIX_PARTS),
            keys: Vec::new(),
            states: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Assign every surviving row to its group first — one upsert per row,
    /// the group ids kept in a reused buffer — then fold one aggregate at a
    /// time over `(group id, value)` pairs. Every state still folds its rows
    /// in row order.
    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, out: &mut GroupOut) {
        let (pipe, rows) = (cx.pipe, cx.rows);
        let (aggs, consts) = (&pipe.aggs, &pipe.pool.consts);
        let sel = survivors.selection();
        out.table.begin_morsel();
        out.resolve_groups(&self.slots, aggs.len(), cx.data, cx.hashes, rows, sel);
        for (j, agg) in aggs.iter().enumerate() {
            let view = match agg {
                CompiledAgg::Count => ValView::Const(0.0),
                CompiledAgg::Fold(_, e) => {
                    eval_expr(e, cx.data, cx.regs, consts, rows, sel);
                    resolve(e.output, cx.data, cx.regs, consts)
                }
            };
            let states = out.table.states_flat_mut();
            fold_grouped(states, (aggs.len(), j), &out.gids, agg, view, survivors);
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
