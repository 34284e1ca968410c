//! Cache-friendly tables for the vectorized hot path.
//!
//! * [`JoinTable`] — the join build sides of a plan: an
//!   insert-only map from `i64` key to row multiplicity, making the
//!   hash-probe operator a true inner join (duplicate build keys weight the
//!   probe instead of collapsing into a set). A table is one of two kinds:
//!   - *hashed* — one linear-probing array of inline `(key, weight)` entries
//!     at a load factor of at most 50 %, so a lookup reads one cache line
//!     and its walk has one, predictable, exit. A table grows by doubling
//!     from 16 slots unless its builder knows a bound:
//!     [`JoinTable::with_capacity`] allocates the final slot array once
//!     (the executor does so for builds keyed by the relation's primary
//!     key), and the merge makes room for the smaller tables with one
//!     [`JoinTable::reserve`], so the union never grows. Capacity is a hint:
//!     a table that receives more keys grows as any other.
//!   - *direct* — one `u64` weight per key of a range `min..=max`, indexed
//!     by `key − min` ([`JoinTable::direct`]): no hash and no slot walk, one
//!     unsigned bounds compare per lookup. The executor builds one when the
//!     build key's span — a plain integer column's storage-kept bounds, or
//!     the `0..cells` a tuple of integer columns folds into over its box —
//!     takes no more bytes (8 per key of the span) than the hashed slot
//!     array [`JoinTable::with_capacity`] would allocate for the source's
//!     rows (16 per slot, at least two slots per key) —
//!     [`JoinTable::direct_fits`]. CH `item.i_id`, a primary key over
//!     1–10 000, is direct, and so are the `(w, d, id)` tuples of `orders`,
//!     `customer` and `orderline`. A key outside the range, which no write
//!     the bounds saw can hold, re-seats the table into the hashed kind on a
//!     cold path: the answer never depends on the range being right.
//!
//!   Both kinds give [`JoinTable::len`] (distinct keys, what the cost model
//!   charges) and [`JoinTable::unique`] one meaning, so the work account
//!   does not see which kind ran. One table per worker is reused across all
//!   the morsels that worker claims, and the per-worker tables are merged
//!   ([`JoinTable::merge`]; direct tables over one range by an element-wise
//!   sum) — weight addition is order-insensitive, so determinism is
//!   untouched. The build ([`JoinTable`]'s `Extend`) and the probes
//!   ([`JoinTable::select`], [`JoinTable::select_weighted`]) decide the kind
//!   once per call, never per row.
//! * [`GroupTable`] — the group-by operator's hash table. Group keys are
//!   stored inline in a flat `i64` arena (`n_keys` slots per group, no
//!   per-key heap `Vec`); beside them each group keeps a `u64` row count
//!   and one `f64` per lane — a running value of its aggregates
//!   ([`crate::expr::Fold`]) — in flat parallel arenas. Clearing between
//!   morsels is O(1) via an epoch stamp, so a worker's table is reused
//!   across morsels without paying a full `memset` of the slot array. A
//!   morsel whose one group column's storage bounds span few keys skips the
//!   hash instead: [`GroupTable::seat_range`] seats every key of the bounds
//!   in key order, and a row's group is `key − min`.
//!
//! Neither table ever sorts: per-morsel partials are emitted in insertion
//! order and the deterministic merge sorts group keys exactly once, at
//! final result assembly (see [`crate::exec::QueryExecutor`]).
//!
//! The multiplicative hash primitives live in [`crate::kernels`] alongside
//! the batch-hash kernels. [`GroupTable::upsert_prehashed`] takes the key's
//! hash from its caller, so the grouped sink can hash a whole morsel's keys
//! up front and upsert with precomputed hashes, and the table stores each group's hash in a flat arena
//! ([`GroupTable::hashes_flat`]): growth rehashes from the arena instead of
//! recomputing, and the executor's radix-partitioned merge reads the stored
//! hashes to scatter groups into disjoint partitions.

use crate::kernels::{self, hash_i64, hash_key};

const INITIAL_SLOTS: usize = 16;

/// A hashed [`JoinTable`] keeps at least this many slots per key (a load
/// factor of at most 50 %): with inline entries the walk to a key or to the
/// empty slot that proves it absent then ends on the first slot for most
/// lookups, which is what keeps the probe loop's one exit branch
/// predictable (at 70 % a present key costs 7.7 ns to find, at 50 % 2.9).
const JOIN_SLOTS_PER_KEY: usize = 2;

/// One slot of a hashed [`JoinTable`]: key and multiplicity side by side,
/// so a lookup that lands on its slot reads one cache line and nothing else.
/// `weight == 0` marks an empty slot — no key is ever stored with weight 0,
/// so every `i64` (0, `i64::MIN`, `i64::MAX`) is an ordinary key.
#[derive(Debug, Clone, Copy, Default)]
struct JoinEntry {
    key: i64,
    weight: u64,
}

/// The multiplicity-preserving join build table: a map from an `i64` join
/// key to the number of build-side rows carrying that key, hashed or direct
/// (see the module documentation for the two kinds).
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
#[derive(Debug, Clone)]
pub struct JoinTable {
    kind: Kind,
}

/// The slot storage of a [`JoinTable`].
#[derive(Debug, Clone)]
enum Kind {
    Hashed(HashSlots),
    Direct(DirectSlots),
}

impl Default for JoinTable {
    fn default() -> Self {
        JoinTable {
            kind: Kind::Hashed(HashSlots::default()),
        }
    }
}

impl JoinTable {
    /// An empty hashed table (allocates its first slot array on first
    /// insert).
    pub fn new() -> Self {
        JoinTable::default()
    }

    /// An empty hashed table that takes `keys` distinct keys before it
    /// grows: one slot array of `next_pow2(2·keys)` entries, the size a
    /// table grown to `keys` keys ends at. `keys` is a hint, not a limit —
    /// more keys grow the table exactly as from [`JoinTable::new`], and `0`
    /// allocates nothing.
    pub fn with_capacity(keys: usize) -> Self {
        let mut table = JoinTable::new();
        table.reserve(keys);
        table
    }

    /// An empty direct table over the keys `min..=max`: one zeroed `u64`
    /// weight per key of the span, allocated once. Size it with
    /// [`JoinTable::direct_fits`] first; the span is not checked here. A key
    /// added outside the range re-seats the table into the hashed kind.
    pub fn direct(min: i64, max: i64) -> Self {
        let span = max.abs_diff(min) as usize + 1;
        JoinTable {
            kind: Kind::Direct(DirectSlots {
                base: min.min(max),
                weights: vec![0; span],
                len: 0,
                max_weight: 0,
            }),
        }
    }

    /// Whether a direct table over `min..=max` takes no more bytes than the
    /// slot array [`JoinTable::with_capacity`]`(keys)` allocates: 8 bytes
    /// per key of the span against 16 per slot. The sizes are compared in
    /// `u128`, so no span overflows — `i64::MIN..=i64::MAX` is simply too
    /// wide — and `keys == 0` (no slot array at all) never fits.
    pub fn direct_fits(min: i64, max: i64, keys: usize) -> bool {
        let span = u128::from(max.abs_diff(min)) + 1;
        let direct = span * std::mem::size_of::<u64>() as u128;
        let hashed = slots_for(keys) as u128 * std::mem::size_of::<JoinEntry>() as u128;
        keys > 0 && direct <= hashed
    }

    /// Whether this table is direct-indexed.
    pub fn is_direct(&self) -> bool {
        matches!(self.kind, Kind::Direct(_))
    }

    /// Make room for `additional` more distinct keys with at most one
    /// reallocation of the slot array. A direct table already has a slot
    /// for every key of its range: a no-op.
    pub fn reserve(&mut self, additional: usize) {
        if let Kind::Hashed(hashed) = &mut self.kind {
            hashed.reserve(additional);
        }
    }

    /// Number of *distinct* keys inserted (the figure the cost model's
    /// `hash_table_bytes` charges, whichever the kind).
    pub fn len(&self) -> usize {
        match &self.kind {
            Kind::Hashed(hashed) => hashed.len,
            Kind::Direct(direct) => direct.len,
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every key has weight 1 — the semijoin-compatible case the
    /// executor's fast fold path requires.
    pub fn unique(&self) -> bool {
        let max_weight = match &self.kind {
            Kind::Hashed(hashed) => hashed.max_weight,
            Kind::Direct(direct) => direct.max_weight,
        };
        max_weight <= 1
    }

    /// Add `w` build rows of key `k` (`w` > 1 when the inserting pipeline
    /// itself probed an earlier build; `w == 0` is a no-op).
    #[inline]
    pub fn add(&mut self, k: i64, w: u64) {
        if let Kind::Direct(direct) = &mut self.kind {
            if direct.add(k, w) {
                return;
            }
            self.reseat();
        }
        if let Kind::Hashed(hashed) = &mut self.kind {
            hashed.add(k, w);
        }
    }

    /// Re-seat a direct table into the hashed kind (a hashed one stays as
    /// it is): a key arrived outside its range, or a merge met mixed kinds.
    /// Out of line: the rows a range was read from never take this path.
    #[cold]
    #[inline(never)]
    fn reseat(&mut self) {
        if let Kind::Direct(direct) = &self.kind {
            let mut hashed = HashSlots::default();
            hashed.reserve(direct.len + 1);
            direct.iter().for_each(|(k, w)| hashed.add(k, w));
            self.kind = Kind::Hashed(hashed);
        }
    }

    /// The weight of `k` (0 when absent).
    #[inline]
    pub fn weight(&self, k: i64) -> u64 {
        match &self.kind {
            Kind::Hashed(hashed) => hashed.weight(k),
            Kind::Direct(direct) => direct.weight(k),
        }
    }

    /// Iterate the `(key, weight)` pairs (slot order; key order for a
    /// direct table).
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        let (hashed, direct) = match &self.kind {
            Kind::Hashed(hashed) => (Some(hashed), None),
            Kind::Direct(direct) => (None, Some(direct)),
        };
        hashed
            .into_iter()
            .flat_map(HashSlots::iter)
            .chain(direct.into_iter().flat_map(DirectSlots::iter))
    }

    /// Sum another table's weights into this one (weight addition is
    /// order-insensitive, so determinism holds).
    pub fn union(&mut self, other: &JoinTable) {
        self.extend(other.iter());
    }

    /// The per-worker build merge. Direct tables over one range — every
    /// worker's partial of a direct build — sum element-wise into one of
    /// them, allocating nothing. Otherwise any direct table is re-seated
    /// into the hashed kind, and the largest table — at least a `1/tables`
    /// share of the keys — is adopted as it stands, makes room for every
    /// other table's keys with one [`JoinTable::reserve`], and the others
    /// are unioned into it, so the union never grows the table.
    pub fn merge(mut tables: Vec<JoinTable>) -> JoinTable {
        let Some(mut merged) = tables.pop() else {
            return JoinTable::new();
        };
        if let Kind::Direct(target) = &mut merged.kind {
            let same_range = |t: &JoinTable| match &t.kind {
                Kind::Direct(d) => d.base == target.base && d.weights.len() == target.weights.len(),
                Kind::Hashed(_) => false,
            };
            if tables.iter().all(same_range) {
                // A worker that inserted nothing adds nothing: its array is
                // never read (a large one's pages are never even touched).
                let mut summed = false;
                for table in &tables {
                    if let Kind::Direct(direct) = &table.kind {
                        if direct.len > 0 {
                            target.sum(direct);
                            summed = true;
                        }
                    }
                }
                if summed {
                    target.recount();
                }
                return merged;
            }
        }
        tables.push(merged);
        tables.iter_mut().for_each(JoinTable::reseat);
        let largest = (0..tables.len())
            .max_by_key(|&i| tables[i].len())
            .unwrap_or_default();
        let mut merged = tables.swap_remove(largest);
        merged.reserve(tables.iter().map(JoinTable::len).sum());
        for table in &tables {
            merged.union(table);
        }
        merged
    }

    /// Membership-probe the selected rows of a key column (`sel == None`:
    /// every row of `keys`): `out` receives, in order, the ids of the rows
    /// whose key is present. A hashed table first batch-hashes the selected
    /// keys into `hashes` (the caller's reused buffer) with the chunked
    /// kernels of [`crate::kernels`]; a direct table needs no hash and
    /// leaves `hashes` alone. Survivors are compacted the way the filter
    /// kernels compact — every row writes its id at the output cursor and
    /// the cursor advances by the match — so a 50 % hit rate costs no
    /// mispredicted branch.
    pub fn select(
        &self,
        keys: &[i64],
        sel: Option<&[u32]>,
        hashes: &mut Vec<u64>,
        out: &mut Vec<u32>,
    ) {
        match &self.kind {
            Kind::Hashed(hashed) => {
                match sel {
                    None => kernels::hash1_dense(keys, hashes),
                    Some(ids) => kernels::hash1_gather(keys, ids, hashes),
                }
                hashed.select(keys, sel, hashes, out);
            }
            Kind::Direct(direct) => direct.select(keys, sel, out),
        }
    }

    /// Scalar twin of [`JoinTable::select`]: one [`JoinTable::weight`] per
    /// selected row.
    pub fn select_scalar(&self, keys: &[i64], sel: Option<&[u32]>, out: &mut Vec<u32>) {
        out.clear();
        let n = sel.map_or(keys.len(), <[u32]>::len);
        for pos in 0..n {
            let i = sel.map_or(pos as u32, |ids| ids[pos]);
            if self.weight(keys[i as usize]) != 0 {
                out.push(i);
            }
        }
    }

    /// The weighted probe: every selected row (`sel == None`: every row of
    /// `keys`) whose key is present survives into `out` with its
    /// multiplicity in `out_w` — its incoming weight (`weights`, one per
    /// selected row; `None`: 1) times the key's weight.
    pub fn select_weighted(
        &self,
        keys: &[i64],
        sel: Option<&[u32]>,
        weights: Option<&[u64]>,
        out: &mut Vec<u32>,
        out_w: &mut Vec<u64>,
    ) {
        match &self.kind {
            Kind::Hashed(hashed) => {
                weigh_rows(keys, sel, weights, out, out_w, |k| hashed.weight(k))
            }
            Kind::Direct(direct) => {
                weigh_rows(keys, sel, weights, out, out_w, |k| direct.weight(k))
            }
        }
    }
}

impl Extend<(i64, u64)> for JoinTable {
    /// Add every `(key, weight)` pair — the build sink's per-morsel insert.
    /// The kind is decided once per call: a direct table adds in range until
    /// the first key outside it, re-seats itself into the hashed kind (cold)
    /// and the rest goes through the hashed loop.
    fn extend<I: IntoIterator<Item = (i64, u64)>>(&mut self, rows: I) {
        let mut rows = rows.into_iter();
        if let Kind::Direct(direct) = &mut self.kind {
            let Some((k, w)) = rows.find(|&(k, w)| !direct.add(k, w)) else {
                return;
            };
            self.reseat();
            self.add(k, w);
        }
        if let Kind::Hashed(hashed) = &mut self.kind {
            rows.for_each(|(k, w)| hashed.add(k, w));
        }
    }
}

/// The weighted probe's row loop, compiled once per table kind: `weight` is
/// that kind's lookup.
#[inline(always)]
fn weigh_rows(
    keys: &[i64],
    sel: Option<&[u32]>,
    weights: Option<&[u64]>,
    out: &mut Vec<u32>,
    out_w: &mut Vec<u64>,
    weight: impl Fn(i64) -> u64,
) {
    out.clear();
    out_w.clear();
    let mut keep = |pos: usize, i: usize| {
        let w = weights.map_or(1, |ws| ws[pos]) * weight(keys[i]);
        if w != 0 {
            out.push(i as u32);
            out_w.push(w);
        }
    };
    match sel {
        None => (0..keys.len()).for_each(|i| keep(i, i)),
        Some(ids) => ids
            .iter()
            .enumerate()
            .for_each(|(pos, &i)| keep(pos, i as usize)),
    }
}

/// Slots of the array a hashed table sized for `keys` keys allocates (0 for
/// none).
fn slots_for(keys: usize) -> usize {
    if keys == 0 {
        return 0;
    }
    keys.saturating_mul(JOIN_SLOTS_PER_KEY)
        .checked_next_power_of_two()
        .unwrap_or(usize::MAX)
        .max(INITIAL_SLOTS)
}

/// The hashed kind: an open-addressing slot array of inline entries.
#[derive(Debug, Clone, Default)]
struct HashSlots {
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

impl HashSlots {
    fn reserve(&mut self, additional: usize) {
        let keys = self.len + additional;
        if keys > self.grow_at {
            self.rehash(slots_for(keys));
        }
    }

    #[inline]
    fn add(&mut self, k: i64, w: u64) {
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

    #[inline]
    fn weight(&self, k: i64) -> u64 {
        self.weight_hashed(hash_i64(k), k)
    }

    /// [`HashSlots::weight`] with the key's hash precomputed (`hash` is
    /// [`hash_i64`] of `k`). The walk stops at the key or at the first empty
    /// slot, and either way the slot's weight is the answer — an empty slot
    /// holds 0 — so hit and miss leave through the same exit and the caller
    /// gets a value to compute with, not a branch.
    ///
    /// "Key matches or slot is empty" is tested as `min(key ^ k, weight) ==
    /// 0` on purpose: written as `==` `||` `==` it compiles to two
    /// conditional jumps, and the first — "is it a hit" — mispredicts on
    /// every other row of a probe with a 50 % match rate
    /// (`olap/join_probe_miss50` in the micro benches: 11 ns per row
    /// against 5.7).
    #[inline(always)]
    fn weight_hashed(&self, hash: u64, k: i64) -> u64 {
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

    fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.weight != 0)
            .map(|e| (e.key, e.weight))
    }

    /// `hashes[pos]` is [`hash_i64`] of the `pos`-th selected row's key.
    fn select(&self, keys: &[i64], sel: Option<&[u32]>, hashes: &[u64], out: &mut Vec<u32>) {
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

/// The direct kind: the weight of key `base + i` at `weights[i]` (0 for a
/// key no row carries), for every key of the range `base..base +
/// weights.len()`, which never runs past `i64::MAX`. Never empty.
#[derive(Debug, Clone)]
struct DirectSlots {
    base: i64,
    weights: Vec<u64>,
    /// Non-zero weights.
    len: usize,
    /// Largest weight.
    max_weight: u64,
}

impl DirectSlots {
    /// The slot of `k`: `k − base` in wrapping `u64`, so a key below `base`
    /// lands far above the range and one unsigned compare rejects keys on
    /// either side of it.
    #[inline(always)]
    fn slot(&self, k: i64) -> u64 {
        (k as u64).wrapping_sub(self.base as u64)
    }

    /// Add `w` rows of `k` if `k` lies in the range; `false` (nothing
    /// added) if it does not and `w` is not 0.
    #[inline(always)]
    fn add(&mut self, k: i64, w: u64) -> bool {
        let slot = self.slot(k);
        let Some(weight) = usize::try_from(slot)
            .ok()
            .and_then(|s| self.weights.get_mut(s))
        else {
            return w == 0;
        };
        self.len += usize::from(*weight == 0 && w != 0);
        *weight += w;
        self.max_weight = self.max_weight.max(*weight);
        true
    }

    /// The weight of `k`, 0 outside the range. The load is clamped into the
    /// array and the range test multiplies, so a hit, a miss and an
    /// out-of-range key take one path, with no branch to mispredict.
    #[inline(always)]
    fn weight(&self, k: i64) -> u64 {
        let slot = self.slot(k);
        let last = self.weights.len().saturating_sub(1) as u64;
        self.weights
            .get(slot.min(last) as usize)
            .map_or(0, |&w| w * u64::from(slot <= last))
    }

    fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        (self.base..=i64::MAX)
            .zip(&self.weights)
            .filter(|&(_, &w)| w != 0)
            .map(|(k, &w)| (k, w))
    }

    /// [`HashSlots::select`] without the hash: the compaction is the same.
    fn select(&self, keys: &[i64], sel: Option<&[u32]>, out: &mut Vec<u32>) {
        out.resize(sel.map_or(keys.len(), <[u32]>::len), 0);
        let mut len = 0usize;
        let mut probe = |i: u32| {
            out[len] = i;
            len += (self.weight(keys[i as usize]) != 0) as usize;
        };
        match sel {
            None => (0..keys.len() as u32).for_each(&mut probe),
            Some(ids) => ids.iter().for_each(|&i| probe(i)),
        }
        out.truncate(len);
    }

    /// Add `other`'s weights slot by slot (same range); `len` and
    /// `max_weight` are stale until [`DirectSlots::recount`].
    fn sum(&mut self, other: &DirectSlots) {
        for (weight, &w) in self.weights.iter_mut().zip(&other.weights) {
            *weight += w;
        }
    }

    /// Recompute `len` and `max_weight` from the weights.
    fn recount(&mut self) {
        self.len = self.weights.iter().filter(|&&w| w != 0).count();
        self.max_weight = self.weights.iter().copied().max().unwrap_or(0);
    }
}

/// The vectorized group-by hash table: open addressing over inline
/// fixed-width composite keys, with a row count and flat lanes per group.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    /// Packed slot: `epoch << 32 | (group + 1)`; a slot whose epoch differs
    /// from the current one is empty (O(1) clear between morsels).
    slots: Vec<u64>,
    epoch: u32,
    n_keys: usize,
    /// Each lane's starting value (see [`crate::expr::Fold`]): a new group's
    /// lanes are a copy.
    identity: Vec<f64>,
    /// Groups since the last clear (cached so the hot upsert path divides
    /// nothing).
    groups: usize,
    /// Group count at which the slot array must grow (cached so the hot
    /// upsert path multiplies nothing).
    grow_at: usize,
    /// Flat key arena, `n_keys` values per group, insertion order.
    keys: Vec<i64>,
    /// Row count per group, insertion order.
    counts: Vec<u64>,
    /// Flat lane arena, one `f64` per lane per group, insertion order.
    lanes: Vec<f64>,
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
    /// Configure the table for a pipeline's key arity and lanes, given by
    /// their starting values. Retains allocated capacity from previous
    /// pipelines. A key arity of zero is the degenerate "one global group"
    /// grouping (`GROUP BY` over no columns): every upsert lands in group 0.
    pub fn configure(&mut self, n_keys: usize, identity: impl IntoIterator<Item = f64>) {
        self.n_keys = n_keys;
        self.identity.clear();
        self.identity.extend(identity);
        self.keys.clear();
        self.counts.clear();
        self.lanes.clear();
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
        self.counts.clear();
        self.lanes.clear();
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

    /// The row count of every group (insertion order).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The flat lane arena (insertion order, one value per lane per group).
    pub fn lanes_flat(&self) -> &[f64] {
        &self.lanes
    }

    /// The counts and the lane arena, mutably: the grouped sink folds the
    /// counts, then one lane at a time across all groups, striding the
    /// arena by the lane count.
    pub fn counts_and_lanes_mut(&mut self) -> (&mut [u64], &mut [f64]) {
        (&mut self.counts, &mut self.lanes)
    }

    /// The flat hash arena (insertion order, one hash per group; `0` for
    /// the degenerate zero-key group).
    pub fn hashes_flat(&self) -> &[u64] {
        &self.hashes
    }

    /// The row count and the lanes of one group, mutably.
    #[inline(always)]
    pub fn group_mut(&mut self, group: usize) -> (&mut u64, &mut [f64]) {
        let n = self.identity.len();
        (
            &mut self.counts[group],
            &mut self.lanes[group * n..(group + 1) * n],
        )
    }

    /// Seat the groups of a morsel whose one key column's values all lie in
    /// `min..=max` (`min <= max`): group `g` is key `min + g`, in key order, with a zero
    /// count, identity lanes and stored hashes — so a row's group is `key − min`, found
    /// without a hash or a probe. Call it on a cleared table
    /// ([`GroupTable::begin_morsel`]). The slot array is not written: a
    /// seated morsel takes no upsert.
    pub fn seat_range(&mut self, min: i64, max: i64) {
        debug_assert!(self.n_keys == 1 && self.groups == 0 && min <= max);
        self.keys.extend(min..=max);
        self.hashes.extend((min..=max).map(hash_i64));
        self.groups = self.keys.len();
        self.counts.resize(self.groups, 0);
        for _ in 0..self.groups {
            self.lanes.extend_from_slice(&self.identity);
        }
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

    /// Upsert `key` (`key.len() == n_keys`), returning its group index.
    /// `hash` must equal [`crate::kernels::hash_key`] of `key` — the batch
    /// kernels, the wide-key path (which calls it) and the radix merge
    /// (which replays hashes from [`GroupTable::hashes_flat`]) all satisfy
    /// this by construction. Inlined unconditionally: the grouped
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
        self.counts.push(0);
        self.lanes.extend_from_slice(&self.identity);
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

    /// Upsert `key`, hashed as the grouped sink's wide-key path hashes it.
    fn upsert(t: &mut GroupTable, key: &[i64]) -> usize {
        t.upsert_prehashed(hash_key(key), key)
    }

    /// The slot storage of a hashed table.
    fn hashed(table: &JoinTable) -> &HashSlots {
        match &table.kind {
            Kind::Hashed(hashed) => hashed,
            Kind::Direct(_) => panic!("a direct table"),
        }
    }

    #[test]
    fn group_table_single_key_accumulates() {
        let mut t = GroupTable::default();
        t.configure(1, [0.0, f64::NEG_INFINITY]);
        for i in 0..100i64 {
            let g = upsert(&mut t, &[i % 4]);
            let (count, lanes) = t.group_mut(g);
            *count += 1;
            lanes[0] += i as f64;
            lanes[1] = lanes[1].max(i as f64);
        }
        assert_eq!(t.group_count(), 4);
        assert_eq!(t.counts(), &[25; 4]);
        for g in 0..4 {
            let key = t.keys_flat()[g];
            let expected: f64 = (0..100i64).filter(|i| i % 4 == key).map(|i| i as f64).sum();
            assert_eq!(
                t.lanes_flat()[g * 2..g * 2 + 2],
                [expected, (96 + key) as f64]
            );
        }
    }

    #[test]
    fn group_table_composite_keys_do_not_collide() {
        let mut t = GroupTable::default();
        t.configure(2, [0.0]);
        // (1, 2) and (2, 1) must be distinct groups.
        let a = upsert(&mut t, &[1, 2]);
        let b = upsert(&mut t, &[2, 1]);
        let a_again = upsert(&mut t, &[1, 2]);
        assert_ne!(a, b);
        assert_eq!(a, a_again);
        assert_eq!(t.group_count(), 2);
        // Wide keys through the generic path.
        let mut w = GroupTable::default();
        w.configure(3, [0.0]);
        assert_eq!(upsert(&mut w, &[1, 2, 3]), 0);
        assert_eq!(upsert(&mut w, &[1, 2, 4]), 1);
        assert_eq!(upsert(&mut w, &[1, 2, 3]), 0);
    }

    #[test]
    fn group_table_grows_mid_morsel_without_losing_groups() {
        let mut t = GroupTable::default();
        t.configure(1, [0.0]);
        // Far beyond INITIAL_SLOTS within one morsel: forces rehash mid-loop.
        for i in 0..5_000i64 {
            let g = upsert(&mut t, &[i]);
            *t.group_mut(g).0 += 1;
        }
        assert_eq!(t.group_count(), 5_000);
        for i in 0..5_000i64 {
            let g = upsert(&mut t, &[i]);
            assert_eq!(g as i64, i, "insertion order preserved across growth");
        }
        assert_eq!(t.group_count(), 5_000, "re-upserts create no new groups");
    }

    #[test]
    fn group_table_epoch_clear_is_a_real_clear() {
        let mut t = GroupTable::default();
        t.configure(1, [0.0]);
        upsert(&mut t, &[7]);
        upsert(&mut t, &[8]);
        assert_eq!(t.group_count(), 2);
        t.begin_morsel();
        assert_eq!(t.group_count(), 0);
        // Stale slots from the previous epoch are invisible.
        let g = upsert(&mut t, &[7]);
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
        t.configure(1, [0.0]);
        // All 5 000 upserts use hashes computed against the initial 16-slot
        // table; the table grows many times mid-loop.
        for (i, (&k, &h)) in keys.iter().zip(&hashes).enumerate() {
            let g = t.upsert_prehashed(h, &[k]);
            assert_eq!(g, i, "fresh key claims the next group index");
            *t.group_mut(g).0 += 1;
        }
        assert_eq!(t.group_count(), 5_000);
        // Re-upserting with the same precomputed hashes finds every group.
        for (i, (&k, &h)) in keys.iter().zip(&hashes).enumerate() {
            assert_eq!(t.upsert_prehashed(h, &[k]), i, "group lost across growth");
        }
        assert_eq!(t.group_count(), 5_000);
        // The stored hash arena is exactly the batch-computed hashes, and
        // the prehashed path is indistinguishable from the hash-at-upsert
        // path.
        assert_eq!(t.hashes_flat(), hashes.as_slice());
        let mut u = GroupTable::default();
        u.configure(1, [0.0]);
        for &k in &keys {
            upsert(&mut u, &[k]);
        }
        assert_eq!(u.keys_flat(), t.keys_flat());
        assert_eq!(u.hashes_flat(), t.hashes_flat());
    }

    #[test]
    fn zero_key_grouping_keeps_the_hash_arena_aligned() {
        let mut t = GroupTable::default();
        t.configure(0, [0.0, 0.0]);
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
            assert_eq!(hashed(&a).weight_hashed(h, k), a.weight(k), "key {k}");
        }
        assert_eq!(hashed(&JoinTable::new()).weight_hashed(hash_i64(7), 7), 0);
    }

    /// `n` distinct keys (`k · 7919`, spread over the hash's input range).
    fn keys(n: usize) -> impl Iterator<Item = i64> {
        (0..n as i64).map(|k| k * 7_919 - 1_000_000)
    }

    #[test]
    fn join_table_with_capacity_takes_its_keys_without_growing() {
        for n in [1, 7, 8, 9, 1_000, 10_000] {
            let mut t = JoinTable::with_capacity(n);
            let (slots, capacity) = (hashed(&t).entries.as_ptr(), hashed(&t).grow_at);
            assert!(capacity >= n, "{n} keys fit: capacity {capacity}");
            for k in keys(n) {
                t.add(k, 1);
            }
            assert_eq!(hashed(&t).grow_at, capacity, "{n} keys: the table grew");
            assert_eq!(
                hashed(&t).entries.as_ptr(),
                slots,
                "{n} keys: slots reallocated"
            );
            // The size a table grown key by key to `n` keys ends at.
            let mut grown = JoinTable::new();
            keys(n).for_each(|k| grown.add(k, 1));
            assert_eq!(
                hashed(&grown).entries.len(),
                hashed(&t).entries.len(),
                "{n} keys"
            );
            assert!(keys(n).all(|k| t.weight(k) == 1) && t.len() == n);
        }
        let empty = JoinTable::with_capacity(0);
        assert!(hashed(&empty).entries.is_empty() && hashed(&empty).grow_at == 0);
        assert_eq!(empty.weight(0), 0);
    }

    #[test]
    fn join_table_reserve_then_inserts_does_not_grow() {
        let mut t = JoinTable::new();
        keys(100).for_each(|k| t.add(k, 2));
        t.reserve(5_000);
        let (slots, capacity) = (hashed(&t).entries.as_ptr(), hashed(&t).grow_at);
        assert!(capacity >= 5_100, "capacity {capacity}");
        keys(5_100).for_each(|k| t.add(k, 1));
        assert_eq!(
            hashed(&t).entries.as_ptr(),
            slots,
            "the slot array was reallocated"
        );
        assert_eq!((hashed(&t).grow_at, t.len()), (capacity, 5_100));
        assert!(keys(5_100)
            .enumerate()
            .all(|(i, k)| t.weight(k) == if i < 100 { 3 } else { 1 }));
        // Room already there: a reserve is a no-op.
        t.reserve(capacity - t.len());
        assert_eq!(hashed(&t).entries.as_ptr(), slots);
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
        assert!(hashed(&t).grow_at >= model.len());
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
        let largest = hashed(&tables[1]).entries.as_ptr();
        let merged = JoinTable::merge(tables);
        assert_eq!(merged.len(), 5_340);
        assert!(keys(5_340).all(|k| merged.weight(k) == 1));
        // Growing to 5 000 keys left the largest table at 16 384 slots
        // (capacity 8 192): the reserve for 340 more keys fits in place.
        assert_eq!(hashed(&merged).entries.as_ptr(), largest);
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

    /// The rows of a build as `(key, weight)` pairs: keys `0..100`, every
    /// tenth twice, so weights reach 2.
    fn build_rows() -> Vec<(i64, u64)> {
        (0..100i64)
            .map(|k| (k, 1))
            .chain((0..100).step_by(10).map(|k| (k, 1)))
            .collect()
    }

    /// The table `rows` leaves in a hashed table, as sorted pairs with its
    /// `len` and `unique`.
    fn contents(table: &JoinTable) -> (Vec<(i64, u64)>, usize, bool) {
        let mut pairs: Vec<(i64, u64)> = table.iter().collect();
        pairs.sort_unstable();
        (pairs, table.len(), table.unique())
    }

    #[test]
    fn direct_table_reseats_on_an_out_of_range_key() {
        for outsider in [100, -1, i64::MIN, i64::MAX] {
            let mut rows = build_rows();
            // The out-of-range key arrives mid-build, twice, then the rest.
            rows.insert(50, (outsider, 1));
            rows.push((outsider, 1));
            let mut hashed = JoinTable::new();
            rows.iter().for_each(|&(k, w)| hashed.add(k, w));
            let mut extended = JoinTable::direct(0, 99);
            extended.extend(rows.iter().copied());
            let mut added = JoinTable::direct(0, 99);
            rows.iter().for_each(|&(k, w)| added.add(k, w));
            for table in [&extended, &added] {
                assert!(!table.is_direct(), "key {outsider}: re-seated");
                assert_eq!(contents(table), contents(&hashed), "key {outsider}");
                for k in [outsider, 0, 10, 11, 99, 100, -1] {
                    assert_eq!(table.weight(k), hashed.weight(k), "key {k}");
                }
            }
            assert_eq!(hashed.weight(outsider), 2);
            assert!(!hashed.unique());
        }
        // A zero-weight row outside the range adds nothing and keeps the
        // table direct.
        let mut table = JoinTable::direct(0, 9);
        table.extend([(3, 1), (50, 0), (4, 1)]);
        assert!(table.is_direct() && table.unique());
        assert_eq!((table.len(), table.weight(50)), (2, 0));
    }

    #[test]
    fn direct_table_matches_a_hashed_one() {
        let rows = build_rows();
        let mut hashed = JoinTable::new();
        let mut direct = JoinTable::direct(-5, 120);
        rows.iter().for_each(|&(k, w)| hashed.add(k, w));
        direct.extend(rows.iter().copied());
        assert!(direct.is_direct());
        assert_eq!(contents(&direct), contents(&hashed));
        assert_eq!((direct.len(), direct.unique()), (100, false));
        let probes: Vec<i64> = (-10..130).chain([i64::MIN, i64::MAX]).collect();
        let (mut out, mut expected, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
        direct.select(&probes, None, &mut hashes, &mut out);
        assert!(hashes.is_empty(), "a direct probe hashes nothing");
        hashed.select(&probes, None, &mut hashes, &mut expected);
        assert_eq!(out, expected);
        let sel: Vec<u32> = (0..probes.len() as u32).step_by(3).collect();
        let weights: Vec<u64> = sel.iter().map(|&i| 1 + u64::from(i % 2 == 0)).collect();
        let (mut w_out, mut w_expected) = (Vec::new(), Vec::new());
        direct.select_weighted(&probes, Some(&sel), Some(&weights), &mut out, &mut w_out);
        hashed.select_weighted(
            &probes,
            Some(&sel),
            Some(&weights),
            &mut expected,
            &mut w_expected,
        );
        assert_eq!((&out, &w_out), (&expected, &w_expected));
        assert!(w_out.contains(&4), "weight 2 times key weight 2");
    }

    #[test]
    fn direct_tables_at_the_ends_of_the_key_domain() {
        for (min, max) in [(i64::MAX - 3, i64::MAX), (i64::MIN, i64::MIN + 3)] {
            let mut table = JoinTable::direct(min, max);
            table.extend((min..=max).map(|k| (k, 1)));
            assert!(table.is_direct() && table.len() == 4);
            assert_eq!(
                table.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                (min..=max).collect::<Vec<_>>()
            );
            // The keys on the far side of the domain wrap far from the range.
            for k in [i64::MIN, i64::MIN + 3, i64::MAX - 3, i64::MAX, 0] {
                assert_eq!(
                    table.weight(k),
                    u64::from((min..=max).contains(&k)),
                    "key {k}"
                );
            }
        }
    }

    #[test]
    fn direct_fits_compares_with_the_slot_array() {
        // 1 000 keys take 2 048 slots of 16 bytes: up to 4 096 keys of span.
        assert!(JoinTable::direct_fits(0, 4_095, 1_000));
        assert!(!JoinTable::direct_fits(0, 4_096, 1_000));
        assert!(JoinTable::direct_fits(-4_096, -1, 1_000));
        // The 16-slot minimum: one key allows a span of 32.
        assert!(JoinTable::direct_fits(1, 32, 1) && !JoinTable::direct_fits(1, 33, 1));
        // No slot array, no direct table; the whole domain never fits.
        assert!(!JoinTable::direct_fits(7, 7, 0));
        assert!(!JoinTable::direct_fits(i64::MIN, i64::MAX, 1 << 40));
        assert!(!JoinTable::direct_fits(i64::MAX, i64::MIN, 1 << 20));
    }

    #[test]
    fn direct_partials_merge_in_place_and_mixed_ones_hash() {
        let rows = build_rows();
        let partials = || -> Vec<JoinTable> {
            rows.chunks(37)
                .map(|chunk| {
                    let mut table = JoinTable::direct(0, 99);
                    table.extend(chunk.iter().copied());
                    table
                })
                .collect()
        };
        let mut hashed = JoinTable::new();
        rows.iter().for_each(|&(k, w)| hashed.add(k, w));
        let tables = partials();
        let target = tables.last().map(|t| match &t.kind {
            Kind::Direct(d) => d.weights.as_ptr(),
            Kind::Hashed(_) => std::ptr::null(),
        });
        let merged = JoinTable::merge(tables);
        assert!(merged.is_direct());
        assert_eq!(contents(&merged), contents(&hashed));
        match &merged.kind {
            Kind::Direct(d) => assert_eq!(Some(d.weights.as_ptr()), target, "summed in place"),
            Kind::Hashed(_) => unreachable!(),
        }
        // One partial re-seated by an outsider: the merge hashes them all.
        let mut mixed = partials();
        mixed[1].add(1_000, 1);
        hashed.add(1_000, 1);
        let merged = JoinTable::merge(mixed);
        assert!(!merged.is_direct());
        assert_eq!(contents(&merged), contents(&hashed));
    }

    #[test]
    fn group_table_seats_a_key_range_in_key_order() {
        let mut t = GroupTable::default();
        t.configure(1, [0.0, f64::INFINITY]);
        upsert(&mut t, &[40]);
        t.begin_morsel();
        t.seat_range(-2, 3);
        assert_eq!(t.group_count(), 6);
        assert_eq!(t.keys_flat(), &[-2, -1, 0, 1, 2, 3]);
        let hashes: Vec<u64> = (-2..=3).map(hash_i64).collect();
        assert_eq!(t.hashes_flat(), hashes.as_slice());
        assert_eq!(t.counts(), &[0; 6]);
        assert_eq!(t.lanes_flat(), [0.0, f64::INFINITY].repeat(6).as_slice());
        // The next morsel is an ordinary hashed one again.
        t.begin_morsel();
        assert_eq!(
            (
                upsert(&mut t, &[40]),
                upsert(&mut t, &[3]),
                upsert(&mut t, &[40])
            ),
            (0, 1, 0)
        );
    }

    #[test]
    fn group_table_duplicate_heavy_keys() {
        let mut t = GroupTable::default();
        t.configure(1, []);
        for _ in 0..10_000 {
            let g = upsert(&mut t, &[42]);
            *t.group_mut(g).0 += 1;
        }
        assert_eq!(t.group_count(), 1);
        assert_eq!(t.counts(), &[10_000]);
        assert!(t.lanes_flat().is_empty());
    }
}
