//! Cache-friendly open-addressing hash tables for the vectorized hot path.
//!
//! Two flavours, both linear-probing with multiplicative hashing:
//!
//! * [`JoinTable`] — the join build sides of the operator DAG: an
//!   insert-only map from `i64` key to row multiplicity, making the
//!   hash-probe operator a true inner join (duplicate build keys weight the
//!   probe instead of collapsing into a set). One array of inline
//!   `(key, weight)` entries at a load factor of at most 50 %, so a lookup
//!   reads one cache line and its walk has one, predictable, exit. One table
//!   per worker is reused across all the morsels that worker claims, and
//!   the per-worker tables are merged ([`JoinTable::merge`]) — weight
//!   addition is order-insensitive, so determinism is untouched. A table
//!   grows by doubling from 16 slots unless its builder knows a bound:
//!   [`JoinTable::with_capacity`] allocates the final slot array once (the
//!   executor does so for builds keyed by the relation's primary key), and
//!   the merge makes room for the smaller tables with one
//!   [`JoinTable::reserve`], so the union never grows. Capacity is a hint:
//!   a table that receives more keys grows as any other.
//! * [`GroupTable`] — the group-by operator's hash table. Group keys are
//!   stored inline in a flat `i64` arena (`n_keys` slots per group, no
//!   per-key heap `Vec`), aggregate states in a parallel flat
//!   [`AggState`] arena. Clearing between morsels is O(1) via an epoch
//!   stamp, so a worker's table is reused across morsels without paying a
//!   full `memset` of the slot array.
//!
//! Neither table ever sorts: per-morsel partials are emitted in insertion
//! order and the deterministic merge sorts group keys exactly once, at
//! final result assembly (see [`crate::exec::QueryExecutor`]).
//!
//! The multiplicative hash primitives live in [`crate::kernels`] alongside
//! the batch-hash kernels, and both tables expose `*_hashed`/`*_prehashed`
//! entry points so the hot loops can hash a whole morsel's keys up front
//! and probe/upsert with precomputed hashes. [`GroupTable`] additionally
//! stores each group's hash in a flat arena ([`GroupTable::hashes_flat`]):
//! growth rehashes from the arena instead of recomputing, and the executor's
//! radix-partitioned merge reads the stored hashes to scatter groups into
//! disjoint partitions.

use crate::expr::AggState;
use crate::kernels::{hash_i64, hash_key};

const INITIAL_SLOTS: usize = 16;

/// A [`JoinTable`] keeps at least this many slots per key (a load factor of
/// at most 50 %): with inline entries the walk to a key or to the empty slot
/// that proves it absent then ends on the first slot for most lookups, which
/// is what keeps the probe loop's one exit branch predictable (at 70 % a
/// present key costs 7.7 ns to find, at 50 % 2.9).
const JOIN_SLOTS_PER_KEY: usize = 2;

/// One slot of a [`JoinTable`]: key and multiplicity side by side, so a
/// lookup that lands on its slot reads one cache line and nothing else.
/// `weight == 0` marks an empty slot — no key is ever stored with weight 0,
/// so every `i64` (0, `i64::MIN`, `i64::MAX`) is an ordinary key.
#[derive(Debug, Clone, Copy, Default)]
struct JoinEntry {
    key: i64,
    weight: u64,
}

/// The multiplicity-preserving join build table: an open-addressing map from
/// an `i64` join key to the number of build-side rows carrying that key.
///
/// This is what makes the engine's join a true inner join rather than a
/// semijoin: the probe side multiplies each surviving row by the build
/// key's weight instead of merely checking membership, so duplicate
/// build-side keys contribute every matching tuple to the aggregate. When
/// every key is unique ([`JoinTable::unique`]), weight lookups degenerate to
/// membership tests and the executor takes the plain-selection fold path.
///
/// Chained builds compose multiplicities: a build pipeline that itself
/// probes an earlier table inserts its key with the probed weight, so an
/// N-way join's root probe sees the product of the downstream match counts.
#[derive(Debug, Clone, Default)]
pub struct JoinTable {
    /// Linear-probing slot array of inline entries (power-of-two length,
    /// empty until the first insert).
    entries: Vec<JoinEntry>,
    /// Distinct keys stored.
    len: usize,
    /// Largest single-key weight inserted so far (1 on unique builds).
    max_weight: u64,
    /// Key count at which the slot array must grow.
    grow_at: usize,
}

impl JoinTable {
    /// An empty table (allocates its first slot array on first insert).
    pub fn new() -> Self {
        JoinTable::default()
    }

    /// An empty table that takes `keys` distinct keys before it grows: one
    /// slot array of `next_pow2(2·keys)` entries, the size a table grown to
    /// `keys` keys ends at. `keys` is a hint, not a limit — more keys grow
    /// the table exactly as from [`JoinTable::new`], and `0` allocates
    /// nothing.
    pub fn with_capacity(keys: usize) -> Self {
        let mut table = JoinTable::new();
        table.reserve(keys);
        table
    }

    /// Make room for `additional` more distinct keys with at most one
    /// reallocation of the slot array.
    pub fn reserve(&mut self, additional: usize) {
        let keys = self.len + additional;
        if keys > self.grow_at {
            self.rehash(
                (keys * JOIN_SLOTS_PER_KEY)
                    .next_power_of_two()
                    .max(INITIAL_SLOTS),
            );
        }
    }

    /// Number of *distinct* keys inserted (hash-table entries, the figure
    /// the cost model's `hash_table_bytes` charges).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every key has weight 1 — the semijoin-compatible case the
    /// executor's fast fold path requires.
    pub fn unique(&self) -> bool {
        self.max_weight <= 1
    }

    /// Add `w` build rows of key `k` (`w` > 1 when the inserting pipeline
    /// itself probed an earlier build).
    #[inline]
    pub fn add(&mut self, k: i64, w: u64) {
        if w == 0 {
            return;
        }
        if self.len >= self.grow_at {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut slot = (hash_i64(k) as usize) & mask;
        loop {
            let entry = &mut self.entries[slot];
            if entry.weight == 0 {
                *entry = JoinEntry { key: k, weight: w };
                self.len += 1;
                self.max_weight = self.max_weight.max(w);
                return;
            }
            if entry.key == k {
                entry.weight += w;
                self.max_weight = self.max_weight.max(entry.weight);
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The weight of `k` (0 when absent).
    #[inline]
    pub fn weight(&self, k: i64) -> u64 {
        self.weight_hashed(hash_i64(k), k)
    }

    /// [`JoinTable::weight`] with the key's hash precomputed (the batch-hash
    /// probe path). The walk stops at the key or at the first empty slot,
    /// and either way the slot's weight is the answer — an empty slot holds
    /// 0 — so hit and miss leave through the same exit and the caller gets
    /// a value to compute with, not a branch.
    ///
    /// "Key matches or slot is empty" is tested as `min(key ^ k, weight) ==
    /// 0` on purpose: written as `==` `||` `==` it compiles to two
    /// conditional jumps, and the first — "is it a hit" — mispredicts on
    /// every other row of a probe with a 50 % match rate
    /// (`olap/join_probe_miss50` in the micro benches: 11 ns per row
    /// against 5.7).
    #[inline(always)]
    pub fn weight_hashed(&self, hash: u64, k: i64) -> u64 {
        // A table with no insert yet probes one empty slot, so the loop
        // needs no "no table" case.
        let slots = match self.entries.as_slice() {
            [] => &[JoinEntry { key: 0, weight: 0 }],
            slots => slots,
        };
        let mask = slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = slots[slot];
            if ((entry.key ^ k) as u64).min(entry.weight) == 0 {
                return entry.weight;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Iterate the `(key, weight)` pairs (slot order).
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.weight != 0)
            .map(|e| (e.key, e.weight))
    }

    /// Sum another table's weights into this one (weight addition is
    /// order-insensitive, so determinism holds).
    pub fn union(&mut self, other: &JoinTable) {
        for (k, w) in other.iter() {
            self.add(k, w);
        }
    }

    /// The per-worker build merge: the largest table — at least a
    /// `1/tables` share of the keys — is adopted as it stands, makes room
    /// for every other table's keys with one [`JoinTable::reserve`], and
    /// the others are unioned into it, so the union never grows the table.
    pub fn merge(mut tables: Vec<JoinTable>) -> JoinTable {
        let Some(largest) = (0..tables.len()).max_by_key(|&i| tables[i].len()) else {
            return JoinTable::new();
        };
        let mut merged = tables.swap_remove(largest);
        merged.reserve(tables.iter().map(JoinTable::len).sum());
        for table in &tables {
            merged.union(table);
        }
        merged
    }

    /// Membership-probe the selected rows of a key column (`sel == None`:
    /// rows `0..hashes.len()`): `hashes[pos]` is [`hash_i64`] of the
    /// `pos`-th selected row's key, and `out` receives, in order, the ids of
    /// the rows whose key is present. Survivors are compacted the way the
    /// filter kernels compact — every row writes its id at the output
    /// cursor and the cursor advances by the match — so a 50 % hit rate
    /// costs no mispredicted branch.
    pub fn select(&self, keys: &[i64], sel: Option<&[u32]>, hashes: &[u64], out: &mut Vec<u32>) {
        out.resize(hashes.len(), 0);
        let mut len = 0usize;
        let mut probe = |i: u32, h: u64| {
            out[len] = i;
            len += (self.weight_hashed(h, keys[i as usize]) != 0) as usize;
        };
        match sel {
            None => (0..).zip(hashes).for_each(|(i, &h)| probe(i, h)),
            Some(ids) => ids.iter().zip(hashes).for_each(|(&i, &h)| probe(i, h)),
        }
        out.truncate(len);
    }

    /// Scalar twin of [`JoinTable::select`].
    pub fn select_scalar(
        &self,
        keys: &[i64],
        sel: Option<&[u32]>,
        hashes: &[u64],
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for (pos, &h) in hashes.iter().enumerate() {
            let i = sel.map_or(pos as u32, |ids| ids[pos]);
            if self.weight_hashed(h, keys[i as usize]) != 0 {
                out.push(i);
            }
        }
    }

    fn grow(&mut self) {
        self.rehash((self.entries.len() * 2).max(INITIAL_SLOTS));
    }

    /// Re-seat every entry in a fresh slot array of `new_len` (a power of
    /// two) entries.
    fn rehash(&mut self, new_len: usize) {
        let old = std::mem::replace(&mut self.entries, vec![JoinEntry::default(); new_len]);
        self.grow_at = new_len / JOIN_SLOTS_PER_KEY;
        let mask = new_len - 1;
        for entry in old.into_iter().filter(|e| e.weight != 0) {
            let mut slot = (hash_i64(entry.key) as usize) & mask;
            while self.entries[slot].weight != 0 {
                slot = (slot + 1) & mask;
            }
            self.entries[slot] = entry;
        }
    }
}

/// The vectorized group-by hash table: open addressing over inline
/// fixed-width composite keys with flat aggregate-state storage.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    /// Packed slot: `epoch << 32 | (group + 1)`; a slot whose epoch differs
    /// from the current one is empty (O(1) clear between morsels).
    slots: Vec<u64>,
    epoch: u32,
    n_keys: usize,
    n_aggs: usize,
    /// Groups since the last clear (cached so the hot upsert path divides
    /// nothing).
    groups: usize,
    /// Group count at which the slot array must grow (cached so the hot
    /// upsert path multiplies nothing).
    grow_at: usize,
    /// Flat key arena, `n_keys` values per group, insertion order.
    keys: Vec<i64>,
    /// Flat state arena, `n_aggs` states per group, insertion order.
    states: Vec<AggState>,
    /// Hash of each group's key, insertion order (reused on growth and by
    /// the radix-partitioned merge).
    hashes: Vec<u64>,
}

/// Largest group count a slot array of `slots` entries accepts before
/// growing (70% load factor).
#[inline(always)]
fn grow_threshold(slots: usize) -> usize {
    slots * 7 / 10
}

impl GroupTable {
    /// Configure the table for a pipeline's key/aggregate arity. Retains
    /// allocated capacity from previous pipelines. A key arity of zero is
    /// the degenerate "one global group" grouping (`GROUP BY` over no
    /// columns): every upsert lands in group 0.
    pub fn configure(&mut self, n_keys: usize, n_aggs: usize) {
        self.n_keys = n_keys;
        self.n_aggs = n_aggs;
        self.keys.clear();
        self.states.clear();
        self.hashes.clear();
        self.groups = 0;
        if self.slots.is_empty() {
            self.slots.resize(INITIAL_SLOTS, 0);
        }
        self.grow_at = grow_threshold(self.slots.len());
        self.bump_epoch();
    }

    /// O(1) clear between morsels: advance the epoch, truncate the arenas.
    pub fn begin_morsel(&mut self) {
        self.keys.clear();
        self.states.clear();
        self.hashes.clear();
        self.groups = 0;
        self.grow_at = grow_threshold(self.slots.len());
        self.bump_epoch();
    }

    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: pay one full clear every 2^32 morsels.
            self.slots.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Groups inserted since the last [`GroupTable::begin_morsel`].
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// The flat key arena (insertion order, `n_keys` per group).
    pub fn keys_flat(&self) -> &[i64] {
        &self.keys
    }

    /// The flat state arena (insertion order, `n_aggs` per group).
    pub fn states_flat(&self) -> &[AggState] {
        &self.states
    }

    /// The flat state arena, mutably: the grouped sink folds one aggregate
    /// at a time across all groups, striding it by `n_aggs`.
    pub fn states_flat_mut(&mut self) -> &mut [AggState] {
        &mut self.states
    }

    /// The flat hash arena (insertion order, one hash per group; `0` for
    /// the degenerate zero-key group).
    pub fn hashes_flat(&self) -> &[u64] {
        &self.hashes
    }

    /// Mutable state of aggregate `agg` of group `group`.
    #[inline(always)]
    pub fn agg_state(&mut self, group: usize, agg: usize) -> &mut AggState {
        &mut self.states[group * self.n_aggs + agg]
    }

    /// All aggregate states of one group (one bounds computation per row
    /// instead of one per aggregate).
    #[inline(always)]
    pub fn group_states_mut(&mut self, group: usize) -> &mut [AggState] {
        let base = group * self.n_aggs;
        &mut self.states[base..base + self.n_aggs]
    }

    /// Upsert the empty group key (zero key columns): every row belongs to
    /// the single global group.
    #[inline]
    pub fn upsert0(&mut self) -> usize {
        debug_assert_eq!(self.n_keys, 0);
        if self.groups == 0 {
            // Claim through the generic path (hash 0, empty key) so the
            // slot array and hash arena stay coherent with it.
            return self.upsert_prehashed(0, &[]);
        }
        0
    }

    /// Upsert a single-column group key, returning the group index.
    #[inline]
    pub fn upsert1(&mut self, k: i64) -> usize {
        self.upsert_prehashed(hash_i64(k), &[k])
    }

    /// Upsert a two-column group key.
    #[inline]
    pub fn upsert2(&mut self, k0: i64, k1: i64) -> usize {
        self.upsert_prehashed(hash_key(&[k0, k1]), &[k0, k1])
    }

    /// Upsert a composite key of any width (`key.len() == n_keys`).
    #[inline]
    pub fn upsert(&mut self, key: &[i64]) -> usize {
        debug_assert_eq!(key.len(), self.n_keys);
        self.upsert_prehashed(hash_key(key), key)
    }

    /// [`GroupTable::upsert1`] with the key's hash precomputed (the
    /// batch-hash group-by path).
    #[inline]
    pub fn upsert1_prehashed(&mut self, hash: u64, k: i64) -> usize {
        self.upsert_prehashed(hash, &[k])
    }

    /// [`GroupTable::upsert2`] with the composite hash precomputed.
    #[inline]
    pub fn upsert2_prehashed(&mut self, hash: u64, k0: i64, k1: i64) -> usize {
        self.upsert_prehashed(hash, &[k0, k1])
    }

    /// Upsert with a precomputed hash. `hash` must equal
    /// [`crate::kernels::hash_key`] of `key` — batch kernels and the radix
    /// merge (which replays hashes from [`GroupTable::hashes_flat`]) both
    /// satisfy this by construction. Inlined unconditionally: the grouped
    /// sink's row loops are monomorphised per key arity and survivor kind,
    /// and left to its own judgement the compiler stops inlining the probe
    /// into that many of them (≈ 10 % of a grouped scan).
    #[inline(always)]
    pub fn upsert_prehashed(&mut self, hash: u64, key: &[i64]) -> usize {
        debug_assert_eq!(key.len(), self.n_keys);
        debug_assert!(key.is_empty() || hash == hash_key(key));
        let mask = self.slots.len() - 1;
        let live = (self.epoch as u64) << 32;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if entry & 0xFFFF_FFFF_0000_0000 != live || entry & 0xFFFF_FFFF == 0 {
                // Empty (stale epoch or never written): a new group.
                return self.claim(slot, hash, key);
            }
            let group = ((entry & 0xFFFF_FFFF) - 1) as usize;
            // The one- and two-column callers pass array literals, so after
            // inlining this match is decided at compile time and the common
            // shapes compare words, not slices.
            let same = match *key {
                [k] => self.keys[group] == k,
                [k0, k1] => self.keys[2 * group] == k0 && self.keys[2 * group + 1] == k1,
                _ => &self.keys[group * self.n_keys..(group + 1) * self.n_keys] == key,
            };
            if same {
                return group;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Append a new group whose probe ended on the empty slot `slot`. Out of
    /// line: a morsel upserts every row and claims once per group, so the
    /// lookup loop above stays free of the arena bookkeeping and of the
    /// growth check, which only an insert can trip.
    #[cold]
    #[inline(never)]
    fn claim(&mut self, mut slot: usize, hash: u64, key: &[i64]) -> usize {
        if self.groups >= self.grow_at {
            self.grow();
            let mask = self.slots.len() - 1;
            slot = (hash as usize) & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
        }
        let group = self.groups;
        self.groups += 1;
        self.keys.extend_from_slice(key);
        self.states
            .resize(self.states.len() + self.n_aggs, AggState::default());
        self.hashes.push(hash);
        self.slots[slot] = (self.epoch as u64) << 32 | (group as u64 + 1);
        group
    }

    /// Re-hash into a doubled slot array (mid-morsel growth: amortised, and
    /// only until the table has seen its high-water group count). Slot
    /// targets come from the stored hash arena — the hashes batch-computed
    /// *before* the growth stay valid, no key is ever rehashed.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(INITIAL_SLOTS);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        self.grow_at = grow_threshold(new_len);
        // A fresh slot array has no stale entries; restart the epoch.
        self.epoch = 1;
        let mask = new_len - 1;
        let live = (self.epoch as u64) << 32;
        for group in 0..self.groups {
            let mut slot = (self.hashes[group] as usize) & mask;
            while self.slots[slot] & 0xFFFF_FFFF_0000_0000 == live
                && self.slots[slot] & 0xFFFF_FFFF != 0
            {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = live | (group as u64 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggExpr;
    use crate::expr::ScalarExpr;

    #[test]
    fn group_table_single_key_accumulates() {
        let mut t = GroupTable::default();
        t.configure(1, 2);
        for i in 0..100i64 {
            let g = t.upsert1(i % 4);
            t.agg_state(g, 0).fold_sum(i as f64);
            t.agg_state(g, 1).update_count();
        }
        assert_eq!(t.group_count(), 4);
        let sum_agg = AggExpr::Sum(ScalarExpr::lit(0.0));
        for g in 0..4 {
            let key = t.keys_flat()[g];
            let expected: f64 = (0..100i64).filter(|i| i % 4 == key).map(|i| i as f64).sum();
            assert_eq!(t.states_flat()[g * 2].finalize(&sum_agg), expected);
            assert_eq!(t.states_flat()[g * 2 + 1].finalize(&AggExpr::Count), 25.0);
        }
    }

    #[test]
    fn group_table_composite_keys_do_not_collide() {
        let mut t = GroupTable::default();
        t.configure(2, 1);
        // (1, 2) and (2, 1) must be distinct groups.
        let a = t.upsert2(1, 2);
        let b = t.upsert2(2, 1);
        let a_again = t.upsert2(1, 2);
        assert_ne!(a, b);
        assert_eq!(a, a_again);
        assert_eq!(t.group_count(), 2);
        // Wide keys through the generic path.
        let mut w = GroupTable::default();
        w.configure(3, 1);
        assert_eq!(w.upsert(&[1, 2, 3]), 0);
        assert_eq!(w.upsert(&[1, 2, 4]), 1);
        assert_eq!(w.upsert(&[1, 2, 3]), 0);
    }

    #[test]
    fn group_table_grows_mid_morsel_without_losing_groups() {
        let mut t = GroupTable::default();
        t.configure(1, 1);
        // Far beyond INITIAL_SLOTS within one morsel: forces rehash mid-loop.
        for i in 0..5_000i64 {
            let g = t.upsert1(i);
            t.agg_state(g, 0).update_count();
        }
        assert_eq!(t.group_count(), 5_000);
        for i in 0..5_000i64 {
            let g = t.upsert1(i);
            assert_eq!(g as i64, i, "insertion order preserved across growth");
        }
        assert_eq!(t.group_count(), 5_000, "re-upserts create no new groups");
    }

    #[test]
    fn group_table_epoch_clear_is_a_real_clear() {
        let mut t = GroupTable::default();
        t.configure(1, 1);
        t.upsert1(7);
        t.upsert1(8);
        assert_eq!(t.group_count(), 2);
        t.begin_morsel();
        assert_eq!(t.group_count(), 0);
        // Stale slots from the previous epoch are invisible.
        let g = t.upsert1(7);
        assert_eq!(g, 0);
        assert_eq!(t.group_count(), 1);
        assert_eq!(t.keys_flat(), &[7]);
    }

    /// The batch-hash path hashes a whole morsel's keys *before* any upsert
    /// runs; a mid-morsel growth must re-seat every existing group from its
    /// stored hash so the precomputed hashes keep landing in the right slots
    /// after the rehash.
    #[test]
    fn group_table_growth_under_precomputed_hashes() {
        use crate::kernels;
        let keys: Vec<i64> = (0..5_000).map(|i| i * 11 - 20_000).collect();
        let mut hashes = Vec::new();
        kernels::hash1_dense(&keys, &mut hashes);
        let mut t = GroupTable::default();
        t.configure(1, 1);
        // All 5 000 upserts use hashes computed against the initial 16-slot
        // table; the table grows many times mid-loop.
        for (i, (&k, &h)) in keys.iter().zip(&hashes).enumerate() {
            let g = t.upsert1_prehashed(h, k);
            assert_eq!(g, i, "fresh key claims the next group index");
            t.agg_state(g, 0).update_count();
        }
        assert_eq!(t.group_count(), 5_000);
        // Re-upserting with the same precomputed hashes finds every group.
        for (i, (&k, &h)) in keys.iter().zip(&hashes).enumerate() {
            assert_eq!(t.upsert1_prehashed(h, k), i, "group lost across growth");
        }
        assert_eq!(t.group_count(), 5_000);
        // The stored hash arena is exactly the batch-computed hashes, and
        // the prehashed path is indistinguishable from the hash-at-upsert
        // path.
        assert_eq!(t.hashes_flat(), hashes.as_slice());
        let mut u = GroupTable::default();
        u.configure(1, 1);
        for &k in &keys {
            u.upsert1(k);
        }
        assert_eq!(u.keys_flat(), t.keys_flat());
        assert_eq!(u.hashes_flat(), t.hashes_flat());
    }

    #[test]
    fn zero_key_grouping_keeps_the_hash_arena_aligned() {
        let mut t = GroupTable::default();
        t.configure(0, 2);
        assert_eq!(t.upsert0(), 0);
        assert_eq!(t.upsert0(), 0);
        assert_eq!(t.group_count(), 1);
        assert_eq!(t.hashes_flat(), &[0], "one hash entry per group");
        // The generic prehashed path accepts the empty key too (the radix
        // merge replays zero-key groups through it).
        assert_eq!(t.upsert_prehashed(0, &[]), 0);
        assert_eq!(t.group_count(), 1);
    }

    #[test]
    fn join_table_accumulates_duplicate_key_weights() {
        let mut t = JoinTable::new();
        assert!(t.is_empty() && t.unique());
        t.add(5, 1);
        assert!(t.unique());
        t.add(5, 1);
        t.add(-7, 1);
        assert!(!t.unique(), "duplicate key 5 has weight 2");
        assert_eq!(t.len(), 2, "distinct keys only");
        assert_eq!(t.weight(5), 2);
        assert_eq!(t.weight(-7), 1);
        assert_eq!(t.weight(6), 0);
        // Chained multiplicities compose additively per key.
        t.add(5, 3);
        assert_eq!(t.weight(5), 5);
        // Zero-weight inserts are no-ops (a chained row that missed).
        t.add(99, 0);
        assert_eq!(t.weight(99), 0);
        assert_eq!(t.len(), 2);
        // Extreme keys are ordinary keys; 2^53 and 2^53 + 1 stay distinct.
        for k in [i64::MIN, i64::MAX, 0, -1, 1 << 53] {
            t.add(k, 1);
        }
        for k in [i64::MIN, i64::MAX, 0, -1, 1 << 53] {
            assert_eq!(t.weight(k), 1, "key {k}");
        }
        assert_eq!(t.weight((1 << 53) + 1), 0);
    }

    #[test]
    fn join_table_union_sums_weights_and_survives_growth() {
        let mut a = JoinTable::new();
        let mut b = JoinTable::new();
        for k in 0..5_000i64 {
            a.add(k * 3, 1 + (k % 2) as u64);
            b.add(k * 3, 2);
        }
        a.union(&b);
        for k in 0..5_000i64 {
            assert_eq!(a.weight(k * 3), 3 + (k % 2) as u64, "key {k}");
        }
        assert_eq!(a.len(), 5_000);
        assert!(!a.unique());
        // Prehashed probes agree with the hashing probe.
        let probes: Vec<i64> = vec![0, 3, 1, i64::MIN, i64::MAX, 14_997];
        let mut hashes = Vec::new();
        crate::kernels::hash1_dense(&probes, &mut hashes);
        for (&k, &h) in probes.iter().zip(&hashes) {
            assert_eq!(a.weight_hashed(h, k), a.weight(k), "key {k}");
        }
        assert_eq!(JoinTable::new().weight_hashed(hash_i64(7), 7), 0);
    }

    /// `n` distinct keys (`k · 7919`, spread over the hash's input range).
    fn keys(n: usize) -> impl Iterator<Item = i64> {
        (0..n as i64).map(|k| k * 7_919 - 1_000_000)
    }

    #[test]
    fn join_table_with_capacity_takes_its_keys_without_growing() {
        for n in [1, 7, 8, 9, 1_000, 10_000] {
            let mut t = JoinTable::with_capacity(n);
            let (slots, capacity) = (t.entries.as_ptr(), t.grow_at);
            assert!(capacity >= n, "{n} keys fit: capacity {capacity}");
            for k in keys(n) {
                t.add(k, 1);
            }
            assert_eq!(t.grow_at, capacity, "{n} keys: the table grew");
            assert_eq!(t.entries.as_ptr(), slots, "{n} keys: slots reallocated");
            // The size a table grown key by key to `n` keys ends at.
            let mut grown = JoinTable::new();
            keys(n).for_each(|k| grown.add(k, 1));
            assert_eq!(grown.entries.len(), t.entries.len(), "{n} keys");
            assert!(keys(n).all(|k| t.weight(k) == 1) && t.len() == n);
        }
        let empty = JoinTable::with_capacity(0);
        assert!(empty.entries.is_empty() && empty.grow_at == 0);
        assert_eq!(empty.weight(0), 0);
    }

    #[test]
    fn join_table_reserve_then_inserts_does_not_grow() {
        let mut t = JoinTable::new();
        keys(100).for_each(|k| t.add(k, 2));
        t.reserve(5_000);
        let (slots, capacity) = (t.entries.as_ptr(), t.grow_at);
        assert!(capacity >= 5_100, "capacity {capacity}");
        keys(5_100).for_each(|k| t.add(k, 1));
        assert_eq!(t.entries.as_ptr(), slots, "the slot array was reallocated");
        assert_eq!((t.grow_at, t.len()), (capacity, 5_100));
        assert!(keys(5_100)
            .enumerate()
            .all(|(i, k)| t.weight(k) == if i < 100 { 3 } else { 1 }));
        // Room already there: a reserve is a no-op.
        t.reserve(capacity - t.len());
        assert_eq!(t.entries.as_ptr(), slots);
    }

    #[test]
    fn join_table_grows_past_an_undersized_hint() {
        let mut t = JoinTable::with_capacity(10);
        let mut model = std::collections::BTreeMap::new();
        for (i, k) in keys(3_000).enumerate() {
            let w = 1 + (i % 3) as u64;
            t.add(k, w);
            t.add(k / 2, 1);
            *model.entry(k).or_insert(0) += w;
            *model.entry(k / 2).or_insert(0) += 1;
        }
        assert!(t.grow_at >= model.len());
        assert_eq!(t.len(), model.len());
        let pairs: std::collections::BTreeMap<i64, u64> = t.iter().collect();
        assert_eq!(pairs, model);
    }

    #[test]
    fn join_table_merge_adopts_the_largest_and_reserves_once() {
        let parts = |sizes: &[usize]| -> Vec<JoinTable> {
            let mut next = 0;
            sizes
                .iter()
                .map(|&n| {
                    let mut t = JoinTable::new();
                    keys(next + n).skip(next).for_each(|k| t.add(k, 1));
                    next += n;
                    t
                })
                .collect()
        };
        let tables = parts(&[300, 5_000, 40]);
        let largest = tables[1].entries.as_ptr();
        let merged = JoinTable::merge(tables);
        assert_eq!(merged.len(), 5_340);
        assert!(keys(5_340).all(|k| merged.weight(k) == 1));
        // Growing to 5 000 keys left the largest table at 16 384 slots
        // (capacity 8 192): the reserve for 340 more keys fits in place.
        assert_eq!(merged.entries.as_ptr(), largest);
        // Overlapping partials sum their weights.
        let mut a = JoinTable::new();
        let mut b = JoinTable::new();
        keys(50).for_each(|k| a.add(k, 1));
        keys(80).for_each(|k| b.add(k, 2));
        let merged = JoinTable::merge(vec![a, b]);
        assert_eq!(merged.len(), 80);
        assert!(keys(80).take(50).all(|k| merged.weight(k) == 3));
        assert!(!merged.unique());
        assert!(JoinTable::merge(Vec::new()).is_empty());
    }

    #[test]
    fn group_table_duplicate_heavy_keys() {
        let mut t = GroupTable::default();
        t.configure(1, 1);
        for _ in 0..10_000 {
            let g = t.upsert1(42);
            t.agg_state(g, 0).update_count();
        }
        assert_eq!(t.group_count(), 1);
        assert_eq!(t.states_flat()[0].finalize(&AggExpr::Count), 10_000.0);
    }
}
