//! A fast, non-cryptographic hasher for the store's key index.
//!
//! [`crate::ShardedStore`] looks a key up on every operation it issues.
//! `std`'s default SipHash resists keys crafted to collide; the store runs
//! in-process on the keys its own caller issues, so a multiply-xor hash in
//! the fxhash family is the trade. Deliberately `std`-only.
//!
//! **Not for iteration-order-sensitive tables.** Changing a hasher changes
//! iteration order; every use must be membership/lookup only (or the
//! container's iteration order must not influence behavior).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the golden ratio (same constant family as fxhash /
/// FNV-style mixers): odd, high bit entropy.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiply-xor hasher.
#[derive(Default, Clone)]
pub(crate) struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail so "ab" and "ab\0" hash differently.
            word[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub(crate) type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub(crate) type FastHashMap<K, V> = HashMap<K, V, BuildFastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn distinguishes_nearby_keys() {
        let build = BuildFastHasher::default();
        let hashes: HashSet<u64> = (0u64..10_000)
            .map(|k| std::hash::BuildHasher::hash_one(&build, k))
            .collect();
        assert_eq!(hashes.len(), 10_000, "sequential keys must not collide");
    }

    #[test]
    fn byte_tail_is_length_tagged() {
        let build = BuildFastHasher::default();
        let h = |bytes: &[u8]| std::hash::BuildHasher::hash_one(&build, bytes);
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b""), h(b"\0"));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut map: FastHashMap<(u32, u64), &str> = FastHashMap::default();
        map.insert((1, 2), "a");
        map.insert((1, 3), "b");
        assert_eq!(map.get(&(1, 2)), Some(&"a"));
        let mut set: HashSet<u64, BuildFastHasher> = HashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
    }
}
