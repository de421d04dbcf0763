//! Consistent-hash placement of a byte-string keyspace onto shards.
//!
//! The map is an explicit ring of virtual nodes rather than a closed-form
//! `hash(key) % shards`, so a later rebalancing change can move individual
//! ring points between shards (and stream the affected keys) without
//! rehashing the whole keyspace. With `V` virtual nodes per shard the
//! expected keyspace share of each shard concentrates around `1/S` with
//! relative deviation `O(1/√V)`.

/// 64-bit FNV-1a — the store's only hashing need is deterministic, seedable
/// dispersion (no adversarial collision resistance), and the container has no
/// crates.io hashers.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The ring: sorted virtual-node points, each owned by a shard.
///
/// A key is placed on the shard owning the first point clockwise of the key's
/// hash (wrapping at the top of the 64-bit space).
#[derive(Clone, Debug)]
pub(crate) struct ShardMap {
    /// `(ring position, shard index)`, sorted by position.
    points: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds the ring for `shards` shards with `vnodes_per_shard` virtual
    /// nodes each. Positions are derived from the shard/vnode indices alone,
    /// so every store with the same shape agrees on placement.
    ///
    /// # Panics
    /// Panics if `shards` or `vnodes_per_shard` is zero.
    pub(crate) fn new(shards: usize, vnodes_per_shard: usize) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        assert!(vnodes_per_shard > 0, "each shard needs at least one vnode");
        let mut points = Vec::with_capacity(shards * vnodes_per_shard);
        for shard in 0..shards {
            for vnode in 0..vnodes_per_shard {
                let mut label = Vec::with_capacity(17);
                label.extend_from_slice(&(shard as u64).to_le_bytes());
                label.push(b'/');
                label.extend_from_slice(&(vnode as u64).to_le_bytes());
                points.push((fnv1a(&label), shard as u32));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        ShardMap { points }
    }

    /// The shard responsible for `key`.
    pub(crate) fn shard_of(&self, key: &[u8]) -> usize {
        let h = fnv1a(key);
        let idx = match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0, // wrap past the top
            Err(i) => i,
        };
        self.points[idx].1 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let map = ShardMap::new(8, 16);
        for i in 0..1000 {
            let key = format!("key-{i}");
            let a = map.shard_of(key.as_bytes());
            let b = map.shard_of(key.as_bytes());
            assert_eq!(a, b);
            assert!(a < 8);
        }
    }

    #[test]
    fn every_shard_owns_a_slice_of_the_keyspace() {
        let map = ShardMap::new(8, 32);
        let mut hit = vec![0usize; 8];
        for i in 0..4000 {
            hit[map.shard_of(format!("k{i}").as_bytes())] += 1;
        }
        for (shard, &count) in hit.iter().enumerate() {
            assert!(count > 0, "shard {shard} owns no keys out of 4000");
        }
        // With 32 vnodes the spread should be within a factor ~4 of uniform.
        let max = *hit.iter().max().unwrap();
        let min = *hit.iter().min().unwrap();
        assert!(max < min * 6, "spread too skewed: {hit:?}");
    }

    #[test]
    fn more_vnodes_balance_better() {
        let skew = |vnodes: usize| {
            let map = ShardMap::new(4, vnodes);
            let mut hit = [0usize; 4];
            for i in 0..8000 {
                hit[map.shard_of(format!("obj/{i}").as_bytes())] += 1;
            }
            *hit.iter().max().unwrap() as f64 / (8000.0 / 4.0)
        };
        assert!(skew(64) <= skew(1) + 0.05, "vnodes should not hurt balance");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardMap::new(0, 4);
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1, 4);
        assert_eq!(map.shard_of(b"anything"), 0);
        assert_eq!(map.shard_of(b""), 0);
    }
}
