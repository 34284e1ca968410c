//! Cuckoo-hash primary-key index.
//!
//! Two hash functions, four-slot buckets, displacement on insertion with a
//! bounded relocation path, and doubling on failure — the classic design of
//! Pagh & Rodler that the paper cites for its OLTP index (§3.2). Lookups probe
//! at most two buckets, which keeps the transactional read path short and
//! predictable.
//!
//! The table is protected by a sharded-free single `RwLock`: lookups take a
//! read lock (shared, uncontended with each other), inserts take a write
//! lock. This matches the usage pattern of the OLTP engine, where the index
//! is read on every record access but only written on inserts.

use parking_lot::RwLock;

const SLOTS_PER_BUCKET: usize = 4;
const MAX_DISPLACEMENTS: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<V> {
    key: u64,
    value: V,
}

#[derive(Debug)]
struct Inner<V> {
    buckets: Vec<[Option<Entry<V>>; SLOTS_PER_BUCKET]>,
    len: usize,
}

/// A cuckoo hash map from `u64` keys to copyable values.
#[derive(Debug)]
pub struct CuckooIndex<V: Copy> {
    inner: RwLock<Inner<V>>,
}

impl<V: Copy> Default for CuckooIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> CuckooIndex<V> {
    /// Create an index with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Create an index able to hold roughly `capacity` keys before resizing.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / SLOTS_PER_BUCKET).next_power_of_two().max(2);
        CuckooIndex {
            inner: RwLock::new(Inner {
                buckets: vec![[None; SLOTS_PER_BUCKET]; buckets],
                len: 0,
            }),
        }
    }

    #[inline]
    fn hash1(key: u64, nbuckets: usize) -> usize {
        // SplitMix64 finalizer.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) as usize) & (nbuckets - 1)
    }

    #[inline]
    fn hash2(key: u64, nbuckets: usize) -> usize {
        // A distinct mix (Murmur3 finalizer) so the two candidate buckets are
        // independent.
        let mut k = key ^ 0xD6E8_FEB8_6659_FD93;
        k = (k ^ (k >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        k = (k ^ (k >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        ((k ^ (k >> 33)) as usize) & (nbuckets - 1)
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.inner.read().len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of slots (capacity before the next resize).
    pub fn capacity(&self) -> usize {
        self.inner.read().buckets.len() * SLOTS_PER_BUCKET
    }

    /// Look up a key. At most two buckets are probed.
    pub fn get(&self, key: u64) -> Option<V> {
        let inner = self.inner.read();
        let n = inner.buckets.len();
        for bucket in [Self::hash1(key, n), Self::hash2(key, n)] {
            for e in inner.buckets[bucket].iter().flatten() {
                if e.key == key {
                    return Some(e.value);
                }
            }
        }
        None
    }

    /// Whether the key is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert or overwrite a key. Returns the previous value if the key was
    /// already present.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        let mut inner = self.inner.write();
        Self::insert_inner(&mut inner, key, value)
    }

    /// Insert or overwrite every `(key, value)` pair under one acquisition of
    /// the write lock (a committing transaction publishes the records of one
    /// insert batch together).
    pub fn insert_many(&self, entries: impl Iterator<Item = (u64, V)>) {
        let mut inner = self.inner.write();
        for (key, value) in entries {
            Self::insert_inner(&mut inner, key, value);
        }
    }

    /// Make room for `additional` more keys with at most one rehash: the
    /// table grows once, to the size at which all of them fit at no more than
    /// three quarters load, instead of doubling (and rehashing every entry
    /// under the write lock) each time an insert fails to place. A restore
    /// knows its row count before it publishes the first key.
    pub fn reserve(&self, additional: usize) {
        let mut inner = self.inner.write();
        let slots = (inner.len + additional).saturating_mul(4) / 3;
        let buckets = slots.div_ceil(SLOTS_PER_BUCKET).next_power_of_two();
        if buckets > inner.buckets.len() {
            Self::rehash(&mut inner, buckets);
        }
    }

    /// Update an existing key in place via `f`; returns `false` if the key is
    /// absent.
    pub fn update<F: FnOnce(&mut V)>(&self, key: u64, f: F) -> bool {
        let mut inner = self.inner.write();
        let n = inner.buckets.len();
        for bucket in [Self::hash1(key, n), Self::hash2(key, n)] {
            for e in inner.buckets[bucket].iter_mut().flatten() {
                if e.key == key {
                    f(&mut e.value);
                    return true;
                }
            }
        }
        false
    }

    /// Remove a key; returns its value if it was present.
    pub fn remove(&self, key: u64) -> Option<V> {
        let mut inner = self.inner.write();
        let n = inner.buckets.len();
        for bucket in [Self::hash1(key, n), Self::hash2(key, n)] {
            for slot in inner.buckets[bucket].iter_mut() {
                if let Some(e) = slot {
                    if e.key == key {
                        let value = e.value;
                        *slot = None;
                        inner.len -= 1;
                        return Some(value);
                    }
                }
            }
        }
        None
    }

    fn insert_inner(inner: &mut Inner<V>, key: u64, value: V) -> Option<V> {
        let n = inner.buckets.len();
        // Overwrite if present.
        for bucket in [Self::hash1(key, n), Self::hash2(key, n)] {
            for e in inner.buckets[bucket].iter_mut().flatten() {
                if e.key == key {
                    let old = e.value;
                    e.value = value;
                    return Some(old);
                }
            }
        }
        // Insert with displacement; resize and retry on failure.
        let mut pending = Entry { key, value };
        loop {
            match Self::place(inner, pending) {
                Ok(()) => {
                    inner.len += 1;
                    return None;
                }
                Err(bounced) => {
                    pending = bounced;
                    Self::rehash(inner, inner.buckets.len() * 2);
                }
            }
        }
    }

    /// Try to place `entry`, displacing existing entries along a bounded path.
    /// On failure returns the entry that could not be placed (which may be a
    /// displaced one, not necessarily the original).
    fn place(inner: &mut Inner<V>, mut entry: Entry<V>) -> Result<(), Entry<V>> {
        let n = inner.buckets.len();
        let mut bucket = Self::hash1(entry.key, n);
        for attempt in 0..MAX_DISPLACEMENTS {
            // Any free slot in the candidate bucket?
            for slot in inner.buckets[bucket].iter_mut() {
                if slot.is_none() {
                    *slot = Some(entry);
                    return Ok(());
                }
            }
            // Evict the slot chosen by the attempt counter (deterministic,
            // keeps the structure reproducible across runs).
            let victim_slot = attempt % SLOTS_PER_BUCKET;
            let victim = inner.buckets[bucket][victim_slot]
                .replace(entry)
                // lint:allow(no-panic): the free-slot scan above found every slot occupied, so replace() always returns the old entry
                .expect("victim slot was occupied");
            entry = victim;
            // Move the victim to its alternate bucket.
            let h1 = Self::hash1(entry.key, n);
            let h2 = Self::hash2(entry.key, n);
            bucket = if bucket == h1 { h2 } else { h1 };
        }
        Err(entry)
    }

    /// Move every entry into a fresh table of `new_buckets` buckets.
    fn rehash(inner: &mut Inner<V>, new_buckets: usize) {
        let old = std::mem::replace(
            &mut inner.buckets,
            vec![[None; SLOTS_PER_BUCKET]; new_buckets],
        );
        inner.len = 0;
        for bucket in old {
            for slot in bucket.into_iter().flatten() {
                // Re-insert; growth inside recursion is possible but bounded.
                Self::insert_inner(inner, slot.key, slot.value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite_remove() {
        let idx: CuckooIndex<u64> = CuckooIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.insert(10, 100), None);
        assert_eq!(idx.insert(20, 200), None);
        assert_eq!(idx.get(10), Some(100));
        assert_eq!(idx.get(30), None);
        assert_eq!(idx.insert(10, 111), Some(100));
        assert_eq!(idx.get(10), Some(111));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.remove(10), Some(111));
        assert_eq!(idx.remove(10), None);
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(20));
    }

    #[test]
    fn insert_many_inserts_and_overwrites() {
        let idx: CuckooIndex<u64> = CuckooIndex::with_capacity(8);
        idx.insert(3, 30);
        idx.insert_many((0..100u64).map(|k| (k, k + 1)));
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.get(3), Some(4));
        assert_eq!(idx.get(99), Some(100));
    }

    #[test]
    fn reserve_grows_once_and_keeps_every_entry() {
        let idx: CuckooIndex<u64> = CuckooIndex::with_capacity(8);
        idx.insert_many((0..50u64).map(|k| (k, k + 1)));
        idx.reserve(10_000);
        let reserved = idx.capacity();
        assert!(reserved * 3 >= 10_050 * 4, "three quarters load at most");
        assert_eq!(idx.len(), 50);
        idx.insert_many((50..10_050u64).map(|k| (k, k + 1)));
        assert_eq!(idx.capacity(), reserved, "no rehash while loading");
        for k in (0..10_050u64).step_by(37) {
            assert_eq!(idx.get(k), Some(k + 1));
        }
        // Never shrinks, and a reservation that already fits is a no-op.
        idx.reserve(1);
        assert_eq!(idx.capacity(), reserved);
    }

    #[test]
    fn update_in_place() {
        let idx: CuckooIndex<u64> = CuckooIndex::new();
        idx.insert(5, 1);
        assert!(idx.update(5, |v| *v += 10));
        assert_eq!(idx.get(5), Some(11));
        assert!(!idx.update(6, |v| *v += 10));
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let idx: CuckooIndex<u64> = CuckooIndex::with_capacity(8);
        let initial_capacity = idx.capacity();
        for k in 0..10_000u64 {
            idx.insert(k, k * 2);
        }
        assert_eq!(idx.len(), 10_000);
        assert!(idx.capacity() > initial_capacity);
        for k in (0..10_000u64).step_by(97) {
            assert_eq!(idx.get(k), Some(k * 2), "lost key {k}");
        }
    }

    #[test]
    fn handles_adversarially_similar_keys() {
        // Sequential keys and keys differing only in high bits.
        let idx: CuckooIndex<u32> = CuckooIndex::with_capacity(16);
        for k in 0..2_000u64 {
            idx.insert(k << 48, k as u32);
        }
        for k in 0..2_000u64 {
            assert_eq!(idx.get(k << 48), Some(k as u32));
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let idx: Arc<CuckooIndex<u64>> = Arc::new(CuckooIndex::with_capacity(1024));
        for k in 0..1000 {
            idx.insert(k, k);
        }
        let writer = {
            let idx = Arc::clone(&idx);
            std::thread::spawn(move || {
                for k in 1000..3000u64 {
                    idx.insert(k, k);
                }
            })
        };
        let reader = {
            let idx = Arc::clone(&idx);
            std::thread::spawn(move || {
                let mut found = 0;
                for _ in 0..10 {
                    for k in 0..1000u64 {
                        if idx.get(k) == Some(k) {
                            found += 1;
                        }
                    }
                }
                found
            })
        };
        writer.join().unwrap();
        assert_eq!(
            reader.join().unwrap(),
            10_000,
            "pre-existing keys must stay visible"
        );
        assert_eq!(idx.len(), 3000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Update(u64, u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..500, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..500).prop_map(Op::Remove),
            (0u64..500, any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        ]
    }

    proptest! {
        /// The cuckoo index behaves exactly like a HashMap under arbitrary
        /// insert/remove/update interleavings.
        #[test]
        fn model_based_against_hashmap(ops in prop::collection::vec(arb_op(), 0..400)) {
            let idx: CuckooIndex<u64> = CuckooIndex::with_capacity(8);
            let mut model: HashMap<u64, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(idx.insert(k, v), model.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(idx.remove(k), model.remove(&k));
                    }
                    Op::Update(k, v) => {
                        let in_model = if let Some(slot) = model.get_mut(&k) { *slot = v; true } else { false };
                        prop_assert_eq!(idx.update(k, |x| *x = v), in_model);
                    }
                }
            }
            prop_assert_eq!(idx.len(), model.len());
            for (k, v) in model {
                prop_assert_eq!(idx.get(k), Some(v));
            }
        }
    }
}
