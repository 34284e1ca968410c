//! Atomic update-indication bitmaps.
//!
//! The paper's storage manager "maintains an update indication bit for each
//! record, which is set when the record gets updated. Access to the update
//! indication bits is synchronized using atomic operations" (§3.2). A twin
//! table keeps one bitmap per instance — set once per written row by the
//! committing transaction, swapped out word by word by the synchronisation
//! that follows the next switch — and one for the rows the OLAP instance is
//! still owed, which that synchronisation feeds and the ETL drains.
//!
//! The bitmap also keeps an exact popcount so that the scheduler can ask
//! "how much fresh data is there?" (the `Nft` input of Algorithm 2) without
//! scanning the bit words when there is none; below a watermark, and over
//! the union of two bitmaps, bits are counted word by word (`count_ones`),
//! never materialised. Indices are only ever listed by a drain, which
//! clears what it returns: the bits are a ledger of owed rows, and reading
//! one is consuming it.

use std::sync::atomic::{AtomicU64, Ordering};

const BITS_PER_WORD: usize = 64;

/// A concurrently updatable bitmap that grows on demand.
#[derive(Debug, Default)]
pub struct AtomicBitmap {
    words: parking_lot::RwLock<Vec<AtomicU64>>,
    /// Number of bits currently set (maintained on 0→1 and 1→0 transitions).
    set_count: AtomicU64,
}

impl AtomicBitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmap pre-sized for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        let words = bits.div_ceil(BITS_PER_WORD);
        AtomicBitmap {
            words: parking_lot::RwLock::new((0..words).map(|_| AtomicU64::new(0)).collect()),
            set_count: AtomicU64::new(0),
        }
    }

    /// Set bit `bit`. Returns `true` if the bit transitioned from 0 to 1.
    /// One shared lock on the common path; the exclusive lock is taken only
    /// when the bitmap must grow to hold the bit.
    pub fn set(&self, bit: usize) -> bool {
        let (word, mask) = (bit / BITS_PER_WORD, 1u64 << (bit % BITS_PER_WORD));
        let prev = {
            let words = self.words.read();
            words.get(word).map(|w| w.fetch_or(mask, Ordering::AcqRel))
        };
        let prev = prev.unwrap_or_else(|| {
            let mut words = self.words.write();
            while words.len() <= word {
                words.push(AtomicU64::new(0));
            }
            words[word].fetch_or(mask, Ordering::AcqRel)
        });
        let newly_set = prev & mask == 0;
        if newly_set {
            self.set_count.fetch_add(1, Ordering::AcqRel);
        }
        newly_set
    }

    /// Set every bit of `bits` under one lock acquisition (the exclusive one,
    /// once, if the bitmap must grow to hold the largest).
    pub fn set_many(&self, bits: &[usize]) {
        let Some(&max) = bits.iter().max() else {
            return;
        };
        let needed = max / BITS_PER_WORD + 1;
        let grow = self.words.read().len() < needed;
        if grow {
            let mut words = self.words.write();
            while words.len() < needed {
                words.push(AtomicU64::new(0));
            }
        }
        let words = self.words.read();
        let mut newly_set = 0;
        for &bit in bits {
            let mask = 1u64 << (bit % BITS_PER_WORD);
            let prev = words[bit / BITS_PER_WORD].fetch_or(mask, Ordering::AcqRel);
            newly_set += u64::from(prev & mask == 0);
        }
        self.set_count.fetch_add(newly_set, Ordering::AcqRel);
    }

    /// Number of set bits (exact, maintained incrementally).
    pub fn count(&self) -> u64 {
        self.set_count.load(Ordering::Acquire)
    }

    /// Mask of the bits of word `word_index` that lie below `limit`.
    fn mask_below(word_index: usize, limit: usize) -> u64 {
        if limit / BITS_PER_WORD > word_index {
            u64::MAX
        } else {
            (1u64 << (limit % BITS_PER_WORD)) - 1
        }
    }

    fn push_bits(out: &mut Vec<usize>, word_index: usize, mut bits: u64) {
        while bits != 0 {
            out.push(word_index * BITS_PER_WORD + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }

    /// Number of bits below `limit` that are set in `self` or in `other`,
    /// counted word by word (either bitmap may hold fewer words than the
    /// other).
    pub fn count_union_below(&self, other: &AtomicBitmap, limit: usize) -> u64 {
        let (a, b) = (self.words.read(), other.words.read());
        let words = a.len().max(b.len()).min(limit.div_ceil(BITS_PER_WORD));
        let load = |w: &[AtomicU64], wi: usize| w.get(wi).map_or(0, |x| x.load(Ordering::Acquire));
        (0..words)
            .map(|wi| {
                let bits = (load(&a, wi) | load(&b, wi)) & Self::mask_below(wi, limit);
                u64::from(bits.count_ones())
            })
            .sum()
    }

    /// Clear every bit below `limit` and return the indices that were set,
    /// in ascending order. Whole words are swapped out, so a bit set
    /// concurrently is either returned or left set — never lost.
    pub fn drain_below(&self, limit: usize) -> Vec<usize> {
        let words = self.words.read();
        let mut out = Vec::new();
        for (wi, w) in words.iter().enumerate().take(limit.div_ceil(BITS_PER_WORD)) {
            // Most words of a large relation are clear: look before the
            // (exclusive) read-modify-write.
            if w.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mask = Self::mask_below(wi, limit);
            let taken = if mask == u64::MAX {
                w.swap(0, Ordering::AcqRel)
            } else {
                w.fetch_and(!mask, Ordering::AcqRel) & mask
            };
            Self::push_bits(&mut out, wi, taken);
        }
        self.set_count.fetch_sub(out.len() as u64, Ordering::AcqRel);
        out
    }

    /// Clear every bit and return the indices that were set.
    pub fn drain(&self) -> Vec<usize> {
        self.drain_below(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drain_clears_and_returns() {
        let b = AtomicBitmap::with_capacity(1024);
        for i in [5usize, 63, 64, 512, 7] {
            b.set(i);
        }
        assert_eq!(b.count(), 5);
        assert_eq!(b.drain(), vec![5, 7, 63, 64, 512], "ascending");
        assert_eq!(b.count(), 0);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn below_a_limit_only_lower_bits_are_counted_listed_and_drained() {
        let (b, empty) = (AtomicBitmap::new(), AtomicBitmap::new());
        b.set_many(&[0, 63, 64, 100, 127, 128, 300]);
        b.set_many(&[]);
        assert_eq!(b.count(), 7);
        for (limit, below) in [
            (0, 0),
            (1, 1),
            (64, 2),
            (101, 4),
            (128, 5),
            (129, 6),
            (9999, 7),
            (usize::MAX, 7),
        ] {
            assert_eq!(b.count_union_below(&empty, limit), below, "limit {limit}");
            assert_eq!(empty.count_union_below(&b, limit), below, "limit {limit}");
        }
        assert_eq!(b.drain_below(101), vec![0, 63, 64, 100]);
        assert_eq!(b.count(), 3);
        assert!(b.drain_below(0).is_empty());
        assert_eq!(b.drain(), vec![127, 128, 300]);
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn unions_count_a_bit_set_on_both_sides_once() {
        let (a, b) = (AtomicBitmap::new(), AtomicBitmap::with_capacity(1024));
        a.set_many(&[1, 70]);
        b.set_many(&[1, 2, 700]);
        assert_eq!(a.count_union_below(&b, usize::MAX), 4);
        assert_eq!(b.count_union_below(&a, 700), 3);
        assert_eq!(a.count_union_below(&b, 701), 4);
        assert_eq!(b.count_union_below(&a, 70), 2);
    }

    #[test]
    fn set_grows_the_bitmap_under_one_call() {
        let b = AtomicBitmap::with_capacity(64);
        assert!(b.set(10_000), "a bit past the capacity is set by growing");
        assert!(!b.set(10_000), "second set is not a transition");
        assert_eq!(b.count(), 1);
        assert_eq!(b.drain(), vec![10_000]);
    }

    #[test]
    fn concurrent_sets_count_exactly_once_per_bit() {
        let b = Arc::new(AtomicBitmap::with_capacity(10_000));
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                // Threads overlap on every other bit.
                for i in 0..5_000usize {
                    b.set(i * 2 + (t % 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.count(), 10_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// The bitmap behaves exactly like a set of indices: a set inserts
        /// one, a drain below a limit removes (and returns) every index
        /// under it.
        #[test]
        fn model_based_against_btreeset(ops in prop::collection::vec((0usize..2048, prop::bool::ANY), 0..300)) {
            let bitmap = AtomicBitmap::new();
            let mut model = BTreeSet::new();
            for (bit, set) in ops {
                if set {
                    prop_assert_eq!(bitmap.set(bit), model.insert(bit));
                } else {
                    let above = model.split_off(&bit);
                    prop_assert_eq!(bitmap.drain_below(bit), model.into_iter().collect::<Vec<_>>());
                    model = above;
                }
            }
            prop_assert_eq!(bitmap.count() as usize, model.len());
            prop_assert_eq!(bitmap.drain(), model.into_iter().collect::<Vec<_>>());
        }
    }
}
