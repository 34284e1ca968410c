//! A hasher for the engine's own 64-bit identifiers.
//!
//! Row ids, primary keys and lock tags are produced by this program (dense
//! counters and encoded CH keys), never crafted by a caller, so the version
//! store and the lock table do not need SipHash's collision resistance — and
//! they hash on every record access of every transaction. One folded 128-bit
//! multiply per word mixes high and low bits both ways, which `HashMap`
//! needs (it indexes with the low bits and tags with the top seven).

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for maps keyed by record identifiers.
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// Folded-multiply hasher over `u64` words.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    #[test]
    fn dense_and_strided_ids_spread_over_low_and_high_bits() {
        let build = BuildIdHasher::default();
        for stride in [1u64, 16, 1 << 32, 1 << 48] {
            let hashes: Vec<u64> = (0..4096u64).map(|i| build.hash_one(i * stride)).collect();
            let low: BTreeSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
            let high: BTreeSet<u64> = hashes.iter().map(|h| h >> 52).collect();
            assert!(
                low.len() > 2400,
                "stride {stride}: {} low values",
                low.len()
            );
            assert!(
                high.len() > 2400,
                "stride {stride}: {} high values",
                high.len()
            );
        }
    }

    #[test]
    fn byte_input_agrees_with_word_input() {
        let mut words = IdHasher::default();
        words.write_u64(7);
        let mut bytes = IdHasher::default();
        bytes.write(&7u64.to_le_bytes());
        assert_eq!(words.finish(), bytes.finish());
    }
}
