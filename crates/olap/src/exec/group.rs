//! The grouped-aggregate sink: one flat group table per morsel, merged
//! radix-partitioned in morsel order.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{for_each_selected, Survivors};
use super::GroupRow;
use crate::error::OlapError;
use crate::expr::{AggExpr, Fold};
use crate::hashtable::GroupTable;
use crate::kernels;
use crate::morsel::Morsel;
use crate::program::{eval_expr, resolve, CompiledAggs, ValView};
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
    /// The pipeline's aggregates bound to their lanes.
    aggs: &'q CompiledAggs,
    /// Key-list slot of each group-by column.
    slots: Vec<usize>,
    /// The range a one-column key's morsels seat their groups over: the
    /// bounds storage keeps for the column, read once at bind — when the
    /// largest morsel could seat them ([`seats_range`]).
    seat: Option<(i64, i64)>,
}

impl<'q> GroupSink<'q> {
    /// Bind the grouping of `pipe` by `group_by`, whose morsels hold at
    /// most `morsel_rows` rows (0: one morsel per segment).
    pub fn bind(
        pipe: &'q Pipeline<'_>,
        group_by: &[String],
        aggregates: &'q [AggExpr],
        morsel_rows: usize,
    ) -> Result<Self, OlapError> {
        let slots = group_by
            .iter()
            .map(|g| pipe.key_slot(g))
            .collect::<Result<_, _>>()?;
        let most = match morsel_rows {
            0 => pipe.source.total_rows() as usize,
            rows => rows,
        };
        let n_lanes = pipe.aggs.lanes.len();
        let seat = match group_by {
            [column] => pipe
                .source
                .column_bounds(column)
                .filter(|&(min, max)| seats_range(min, max, n_lanes, most)),
            _ => None,
        };
        Ok(GroupSink {
            aggregates,
            aggs: &pipe.aggs,
            slots,
            seat,
        })
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
    order: Vec<u32>,
    /// Groups per radix partition per processed morsel: `RADIX_PARTS`
    /// entries per entry of `order`.
    part_counts: Vec<u32>,
    /// Flat keys: `n_keys` per group, morsels concatenated in claim order,
    /// groups within a morsel in partition-then-first-seen order (key order
    /// within a partition for a seated morsel).
    keys: Vec<i64>,
    /// Row count per group, same order as `keys`.
    counts: Vec<u64>,
    /// Flat lanes: one value per lane per group, same order as `keys`.
    lanes: Vec<f64>,
    /// Key hash per group, same order as `keys` — reused by the merge's
    /// prehashed upserts.
    hashes: Vec<u64>,
}

/// Whether a morsel seats the groups of its one key column over
/// `min..=max` (the column's storage bounds): seating every key of the
/// range visits no more state cells — a count and `n_lanes` lanes per key —
/// than the morsel's `selected` rows fold (`span × (n_lanes + 1) ≤
/// selected`). The span is computed in `u128`: `i64::MIN..=i64::MAX` is
/// merely too wide.
fn seats_range(min: i64, max: i64, n_lanes: usize, selected: usize) -> bool {
    let span = u128::from(max.abs_diff(min)) + 1;
    span * (n_lanes as u128 + 1) <= selected as u128
}

/// Seated group ids: `gids[pos] = key − min` for the `pos`-th selected row,
/// with a branch-free check that every key lies in `min..=max` (whose span
/// [`seats_range`] keeps within `u32`). Returns whether all of them do;
/// when one does not, `gids` holds garbage the caller overwrites.
#[inline]
fn seat_ids(
    keys: &[i64],
    min: i64,
    max: i64,
    rows: usize,
    sel: Option<&[u32]>,
    gids: &mut [u32],
) -> bool {
    let last = max.wrapping_sub(min) as u64;
    let mut off = false;
    match sel {
        None => {
            for (g, &k) in gids.iter_mut().zip(&keys[..rows]) {
                let u = k.wrapping_sub(min) as u64;
                off |= u > last;
                *g = u as u32;
            }
        }
        Some(ids) => {
            for (g, &i) in gids.iter_mut().zip(ids) {
                let u = keys[i as usize].wrapping_sub(min) as u64;
                off |= u > last;
                *g = u as u32;
            }
        }
    }
    !off
}

/// Marks the path of a morsel that could seat its groups but holds a key
/// outside the bounds read at bind as cold: it is hashed instead.
#[cold]
#[inline]
fn outside_the_bounds() {}

impl GroupOut {
    /// Resolve every selected row's group and record it: `gids[pos]` is the
    /// group index of the `pos`-th selected row.
    ///
    /// A one-column key whose bounds the sink holds is not hashed when the
    /// morsel's selected rows can seat them ([`seats_range`]): a row's group
    /// is `key − min`, one pass with a branch-free range check, and the
    /// table seats the whole range in key order; only the groups whose
    /// count a row advanced are emitted ([`GroupOut::emit_morsel`]). No
    /// pass looks for the morsel's own smallest and largest key. A morsel
    /// that holds a key outside the bounds (a value no write path widened
    /// them for) is hashed instead, on a cold path, so the answer never
    /// rests on the bounds. Other one- and two-column keys (the common
    /// shapes) batch-hash the whole selection with the chunked kernels of
    /// [`crate::kernels`] into `hashes` and upsert; wider keys hash per row.
    ///
    /// Seating changes the order of a morsel's groups — key order instead of
    /// first-seen order — and cannot change a bit of the result: each
    /// group's lanes still fold its rows in row order, the radix merge
    /// folds one group's per-morsel partials in morsel order (a group
    /// appears once per morsel, wherever in it), and the final rows are
    /// sorted by key. Which path a morsel takes depends on the bounds read
    /// at bind and its own rows only, so it is the same for every worker
    /// count.
    fn resolve_groups(
        &mut self,
        sink: &GroupSink<'_>,
        data: &MorselData<'_>,
        hashes: &mut Vec<u64>,
        rows: usize,
        sel: Option<&[u32]>,
    ) {
        let (table, key_tmp, gids) = (&mut self.table, &mut self.key_tmp, &mut self.gids);
        let (seat, n_lanes) = (sink.seat, sink.aggs.lanes.len());
        // Sized up front (only growth is zero-filled; every arm overwrites
        // the buffer in full): the loops below store by position and carry
        // no capacity check.
        gids.resize(sel.map_or(rows, <[u32]>::len), 0);
        match &sink.slots[..] {
            // GROUP BY over no columns: one global group, index 0.
            [] => {
                if !gids.is_empty() {
                    table.upsert0();
                }
                gids.fill(0);
            }
            [s0] => {
                let k0 = data.key(*s0);
                let selected = gids.len();
                if let Some((min, max)) =
                    seat.filter(|&(min, max)| seats_range(min, max, n_lanes, selected))
                {
                    if seat_ids(k0, min, max, rows, sel, gids) {
                        table.seat_range(min, max);
                        return;
                    }
                    outside_the_bounds();
                }
                match sel {
                    None => kernels::hash1_dense(k0, hashes),
                    Some(ids) => kernels::hash1_gather(k0, ids, hashes),
                }
                for_each_selected(rows, sel, |pos, i| {
                    gids[pos] = table.upsert_prehashed(hashes[pos], &[k0[i]]) as u32;
                });
            }
            [s0, s1] => {
                let (k0, k1) = (data.key(*s0), data.key(*s1));
                match sel {
                    None => kernels::hash2_dense(k0, k1, hashes),
                    Some(ids) => kernels::hash2_gather(k0, k1, ids, hashes),
                }
                for_each_selected(rows, sel, |pos, i| {
                    gids[pos] = table.upsert_prehashed(hashes[pos], &[k0[i], k1[i]]) as u32;
                });
            }
            slots => {
                key_tmp.resize(slots.len(), 0);
                for_each_selected(rows, sel, |pos, i| {
                    for (part, &slot) in key_tmp.iter_mut().zip(slots) {
                        *part = data.key(slot)[i];
                    }
                    gids[pos] = table.upsert_prehashed(kernels::hash_key(key_tmp), key_tmp) as u32;
                });
            }
        }
    }

    /// Append morsel `idx`'s group table, counting-sort-scattered by radix
    /// partition; a seated morsel's groups that got no row (count 0) are
    /// left out. The scatter is stable, so within a partition the groups
    /// keep their table order — the merge folds partitions morsel by
    /// morsel, which therefore preserves the scan-order fold discipline
    /// that makes results bit-for-bit identical across worker counts.
    fn emit_morsel(&mut self, idx: usize, n_keys: usize, n_lanes: usize) {
        let groups = &self.table;
        let hashes = groups.hashes_flat();
        let keys = groups.keys_flat();
        let counts = groups.counts();
        let lanes = groups.lanes_flat();
        let live = |g: usize| counts[g] != 0;
        let mut part_counts = [0u32; RADIX_PARTS];
        for (g, &h) in hashes.iter().enumerate() {
            part_counts[radix_part(h)] += u32::from(live(g));
        }
        let emitted = part_counts.iter().sum::<u32>() as usize;
        let mut offsets = [0u32; RADIX_PARTS];
        let mut at = 0u32;
        for (off, &c) in offsets.iter_mut().zip(&part_counts) {
            *off = at;
            at += c;
        }
        let base = self.hashes.len();
        self.keys.resize((base + emitted) * n_keys, 0);
        self.counts.resize(base + emitted, 0);
        self.lanes.resize((base + emitted) * n_lanes, 0.0);
        self.hashes.resize(base + emitted, 0);
        for (g, &h) in hashes.iter().enumerate().filter(|&(g, _)| live(g)) {
            let p = radix_part(h);
            let dst = base + offsets[p] as usize;
            offsets[p] += 1;
            self.hashes[dst] = h;
            self.counts[dst] = counts[g];
            self.keys[dst * n_keys..(dst + 1) * n_keys]
                .copy_from_slice(&keys[g * n_keys..(g + 1) * n_keys]);
            self.lanes[dst * n_lanes..(dst + 1) * n_lanes]
                .copy_from_slice(&lanes[g * n_lanes..(g + 1) * n_lanes]);
        }
        self.order.push(idx as u32);
        self.part_counts.extend_from_slice(&part_counts);
    }
}

/// Fold one lane over the morsel's surviving rows, each into its row's
/// group: `fold(lane, pos)` folds the `pos`-th selected row. `(n_lanes, j)`
/// locates lane `j` in the group table's lane arena, `n_lanes` per group.
#[inline(always)]
fn fold_column(
    lanes: &mut [f64],
    (n_lanes, j): (usize, usize),
    gids: &[u32],
    mut fold: impl FnMut(&mut f64, usize),
) {
    for (pos, &g) in gids.iter().enumerate() {
        fold(&mut lanes[g as usize * n_lanes + j], pos);
    }
}

/// Advance every surviving row's group count: by 1, or by the row's weight.
fn fold_counts(counts: &mut [u64], gids: &[u32], survivors: Survivors<'_>) {
    match survivors {
        Survivors::Plain(_) => gids.iter().for_each(|&g| counts[g as usize] += 1),
        Survivors::Weighted(_, weights) => {
            for (&g, &w) in gids.iter().zip(weights) {
                counts[g as usize] += w;
            }
        }
    }
}

/// Fold lane `j` (fold `fold`, input `view`) of every surviving row into
/// its group, in row order. Fold, input shape (constant, dense values,
/// values behind a selection) and weighting are fixed for the whole morsel,
/// so they are dispatched once, here, and each combination runs its own
/// tight loop over `(group id, value)`.
fn fold_grouped(
    lanes: &mut [f64],
    at: (usize, usize),
    gids: &[u32],
    fold: Fold,
    view: ValView<'_>,
    survivors: Survivors<'_>,
) {
    let weights = match survivors {
        Survivors::Plain(_) => None,
        Survivors::Weighted(_, weights) => Some(weights),
    };
    // `fold!(|acc, value, pos| ...)`: the loop of one fold, once per
    // input shape.
    macro_rules! fold {
        (|$acc:ident, $v:ident, $pos:ident| $body:expr) => {
            match (view, survivors.selection()) {
                (ValView::Const($v), _) => fold_column(lanes, at, gids, |$acc, $pos| $body),
                (ValView::Slice(s), None) => fold_column(lanes, at, gids, |$acc, $pos| {
                    let $v = s[$pos];
                    $body
                }),
                (ValView::Slice(s), Some(ids)) => fold_column(lanes, at, gids, |$acc, $pos| {
                    let $v = s[ids[$pos] as usize];
                    $body
                }),
            }
        };
    }
    match (fold, weights) {
        (Fold::Add, None) => fold!(|acc, v, _pos| *acc = Fold::Add.apply(*acc, v)),
        (Fold::Add, Some(ws)) => {
            fold!(|acc, v, pos| *acc = Fold::Add.apply_weighted(*acc, v, ws[pos]))
        }
        // A row standing for `w` tuples folds an extremum once.
        (Fold::Min, _) => fold!(|acc, v, _pos| *acc = Fold::Min.apply(*acc, v)),
        (Fold::Max, _) => fold!(|acc, v, _pos| *acc = Fold::Max.apply(*acc, v)),
    }
}

impl Sink for GroupSink<'_> {
    type Partial = GroupOut;
    type Output = Vec<GroupRow>;
    const ROOT: bool = true;

    fn partial(&self, morsels: &[Morsel], _workers: usize) -> GroupOut {
        let mut table = GroupTable::default();
        table.configure(self.slots.len(), self.aggs.identities());
        GroupOut {
            table,
            key_tmp: Vec::new(),
            gids: Vec::new(),
            order: Vec::with_capacity(morsels.len()),
            part_counts: Vec::with_capacity(morsels.len() * RADIX_PARTS),
            keys: Vec::new(),
            counts: Vec::new(),
            lanes: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Assign every surviving row to its group first — one upsert per row,
    /// the group ids kept in a reused buffer — then fold the counts, then
    /// one lane at a time over `(group id, value)` pairs. Every lane still
    /// folds its rows in row order.
    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, out: &mut GroupOut) {
        let (rows, consts) = (cx.rows, &cx.pipe.pool.consts);
        let lanes = &self.aggs.lanes;
        let sel = survivors.selection();
        out.table.begin_morsel();
        out.resolve_groups(self, cx.data, cx.hashes, rows, sel);
        let (counts, lane_arena) = out.table.counts_and_lanes_mut();
        fold_counts(counts, &out.gids, survivors);
        for (j, &(fold, ref e)) in lanes.iter().enumerate() {
            eval_expr(e, cx.data, cx.regs, consts, rows, sel);
            let view = resolve(e.output, cx.data, cx.regs, consts);
            fold_grouped(
                lane_arena,
                (lanes.len(), j),
                &out.gids,
                fold,
                view,
                survivors,
            );
        }
        out.emit_morsel(cx.idx, self.slots.len(), lanes.len());
    }

    /// Merge per-worker group outputs into the final sorted rows via the
    /// radix partitioning the workers already applied at emission: every
    /// group key lives in exactly one hash-radix partition, so the merge
    /// processes one partition at a time through a single reused prehashed
    /// [`GroupTable`] — re-hashing nothing, probing a table 16x smaller than
    /// a global one — and the partitions concatenate disjointly. Within each
    /// partition the morsels are folded in morsel-index order (first
    /// occurrence *copies* the partial lanes; folding them into the
    /// identity is not a bitwise copy, `0.0 + -0.0` being `0.0`), which
    /// keeps every group's aggregation order equal to the scan order —
    /// hence bit-for-bit identical results for every worker count. Keys are
    /// sorted exactly once, over the final rows.
    fn merge(&self, partials: Vec<GroupOut>) -> Vec<GroupRow> {
        let (n_keys, n_lanes) = (self.slots.len(), self.aggs.lanes.len());
        let morsels = partials.iter().map(|out| out.order.len()).sum();
        let mut parts: Vec<(u32, MorselGroups<'_>)> = Vec::with_capacity(morsels);
        for out in &partials {
            let mut at = 0usize;
            for (k, &m) in out.order.iter().enumerate() {
                let counts = &out.part_counts[k * RADIX_PARTS..(k + 1) * RADIX_PARTS];
                let mut offsets = [0u32; RADIX_PARTS + 1];
                for (p, &c) in counts.iter().enumerate() {
                    offsets[p + 1] = offsets[p] + c;
                }
                let end = at + offsets[RADIX_PARTS] as usize;
                parts.push((
                    m,
                    MorselGroups {
                        keys: &out.keys[at * n_keys..end * n_keys],
                        counts: &out.counts[at..end],
                        lanes: &out.lanes[at * n_lanes..end * n_lanes],
                        hashes: &out.hashes[at..end],
                        offsets,
                    },
                ));
                at = end;
            }
        }
        parts.sort_unstable_by_key(|(m, _)| *m);
        let mut table = GroupTable::default();
        table.configure(n_keys, self.aggs.identities());
        let mut rows: Vec<GroupRow> = Vec::new();
        for p in 0..RADIX_PARTS {
            table.begin_morsel();
            for (_, part) in &parts {
                let range = part.offsets[p] as usize..part.offsets[p + 1] as usize;
                for g in range {
                    let key = &part.keys[g * n_keys..(g + 1) * n_keys];
                    let lanes = &part.lanes[g * n_lanes..(g + 1) * n_lanes];
                    let before = table.group_count();
                    let gi = table.upsert_prehashed(part.hashes[g], key);
                    let (count, merged) = table.group_mut(gi);
                    *count += part.counts[g];
                    // New groups are appended, so a fresh claim returns the
                    // previous count as its index.
                    if gi == before {
                        merged.copy_from_slice(lanes);
                    } else {
                        self.aggs.merge(merged, lanes);
                    }
                }
            }
            for gi in 0..table.group_count() {
                let key = &table.keys_flat()[gi * n_keys..(gi + 1) * n_keys];
                let lanes = &table.lanes_flat()[gi * n_lanes..(gi + 1) * n_lanes];
                let count = table.counts()[gi];
                let aggs = self.aggs.finalize(self.aggregates, count, lanes);
                rows.push((key.to_vec(), aggs));
            }
        }
        // Partitions are disjoint key sets, so one final sort yields the
        // ascending-key order of the result.
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// `seated`: 1 when a one-column key seats its groups over the bounds
    /// read at bind, 0 when every morsel hashes.
    fn span_arg(&self) -> Option<(&'static str, f64)> {
        Some(("seated", f64::from(u8::from(self.seat.is_some()))))
    }
}

/// One morsel's partition-scattered group segment, borrowed from a
/// [`GroupOut`] for the radix merge.
struct MorselGroups<'a> {
    keys: &'a [i64],
    counts: &'a [u64],
    lanes: &'a [f64],
    hashes: &'a [u64],
    /// Exclusive prefix offsets of the radix partitions within this
    /// morsel's segment (`offsets[p]..offsets[p + 1]` is partition `p`).
    offsets: [u32; RADIX_PARTS + 1],
}
