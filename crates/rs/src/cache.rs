//! Encode- and decode-matrix caches.
//!
//! Building a systematic `[n, k]` encoding matrix costs a `k × k` inversion
//! plus an `n × k` multiply, and every erasure decode costs another `k × k`
//! inversion — yet a deployment uses one `(n, k)` pair for its whole
//! lifetime, and reads, reassembly and repair overwhelmingly see the *same*
//! survivor index sets over and over. Two caches remove that repeated work:
//!
//! * a process-wide encode-matrix cache keyed by `(n, k)` (the matrix is
//!   identical for every code instance with the same parameters, so a
//!   sharded store spinning up hundreds of per-key clusters builds it once);
//! * a per-code-instance LRU cache of decode (inverted sub-)matrices keyed
//!   by the sorted survivor index set, shared by clones of the instance, so
//!   inversion happens once per survivor set, not once per operation.
//!
//! The decode cache counts hits, misses and inversions; the counters surface
//! through [`crate::VandermondeCode`]'s `cache_stats` and, at the top of the
//! stack, through the store's `StoreMetrics`.

use soda_gf::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Decode-matrix cache counters of one code instance (and its clones).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Decodes served from a cached inverted matrix.
    pub hits: u64,
    /// Decodes that had to invert (first sight of the survivor set, or the
    /// set had been evicted).
    pub misses: u64,
    /// Matrix inversions actually performed (= misses; kept separate so the
    /// invariant is visible in metrics).
    pub inversions: u64,
}

impl CodeCacheStats {
    /// Fraction of decodes served from cache (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum, for aggregating across clusters.
    pub fn merge(&mut self, other: &CodeCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inversions += other.inversions;
    }
}

/// Map from code parameters `(n, k)` to the shared encoding matrix.
type EncodeMatrixMap = HashMap<(usize, usize), Arc<Matrix>>;

/// Process-wide cache of systematic encoding matrices, keyed by `(n, k)`.
static ENCODE_MATRICES: OnceLock<Mutex<EncodeMatrixMap>> = OnceLock::new();

/// Returns the cached systematic encoding matrix for `(n, k)`, building it
/// with `build` on first use.
pub(crate) fn encode_matrix_for(n: usize, k: usize, build: impl FnOnce() -> Matrix) -> Arc<Matrix> {
    let cache = ENCODE_MATRICES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("encode-matrix cache poisoned");
    map.entry((n, k))
        .or_insert_with(|| Arc::new(build()))
        .clone()
}

/// Maximum survivor sets a decode cache retains before evicting the least
/// recently used. `n ≤ 255` bounds the universe of sets, but a handful
/// covers real traffic (fault-free reads see one set; each crash pattern
/// adds one more).
const DECODE_CACHE_CAPACITY: usize = 64;

/// LRU map from sorted survivor index sets to the inverted decode matrix.
#[derive(Debug, Default)]
struct DecodeCacheState {
    /// Insertion/recency order: most recently used last.
    order: Vec<Box<[usize]>>,
    map: HashMap<Box<[usize]>, Arc<Matrix>>,
}

/// Shared decode-matrix cache of one code instance; clones of the instance
/// share it (an `Arc` of this sits inside `VandermondeCode`).
#[derive(Debug, Default)]
pub(crate) struct DecodeCache {
    state: Mutex<DecodeCacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    inversions: AtomicU64,
}

impl DecodeCache {
    /// Returns the inverted decode matrix for the given **sorted** survivor
    /// index set, calling `invert` (and counting an inversion) on a miss.
    /// `invert` failures are not cached.
    pub(crate) fn get_or_invert<E>(
        &self,
        indices: &[usize],
        invert: impl FnOnce() -> Result<Matrix, E>,
    ) -> Result<Arc<Matrix>, E> {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "key must be sorted"
        );
        {
            let mut state = self.state.lock().expect("decode cache poisoned");
            if let Some(matrix) = state.map.get(indices).cloned() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Refresh recency.
                if let Some(pos) = state.order.iter().position(|key| **key == *indices) {
                    let key = state.order.remove(pos);
                    state.order.push(key);
                }
                return Ok(matrix);
            }
        }
        // Invert outside the lock: inversion is the expensive part, and a
        // racing decode of the same set at worst inverts twice.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.inversions.fetch_add(1, Ordering::Relaxed);
        let matrix = Arc::new(invert()?);
        let mut state = self.state.lock().expect("decode cache poisoned");
        if !state.map.contains_key(indices) {
            let key: Box<[usize]> = indices.into();
            state.order.push(key.clone());
            state.map.insert(key, matrix.clone());
            if state.map.len() > DECODE_CACHE_CAPACITY {
                let evicted = state.order.remove(0);
                state.map.remove(&evicted);
            }
        }
        Ok(matrix)
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> CodeCacheStats {
        CodeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inversions: self.inversions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_gf::MatrixError;

    fn identity(n: usize) -> Result<Matrix, MatrixError> {
        Ok(Matrix::identity(n))
    }

    #[test]
    fn encode_matrix_is_shared_per_parameters() {
        let a = encode_matrix_for(201, 7, || Matrix::vandermonde(201, 7));
        let b = encode_matrix_for(201, 7, || panic!("must be cached"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn decode_cache_counts_hits_and_misses() {
        let cache = DecodeCache::default();
        let set_a = [0usize, 2, 4];
        let set_b = [1usize, 2, 3];
        cache
            .get_or_invert::<MatrixError>(&set_a, || identity(3))
            .unwrap();
        cache
            .get_or_invert::<MatrixError>(&set_a, || panic!("cached"))
            .unwrap();
        cache
            .get_or_invert::<MatrixError>(&set_a, || panic!("cached"))
            .unwrap();
        cache
            .get_or_invert::<MatrixError>(&set_b, || identity(3))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.inversions, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_inversions_are_not_cached() {
        let cache = DecodeCache::default();
        let set = [0usize, 1];
        let err: Result<Arc<Matrix>, MatrixError> =
            cache.get_or_invert(&set, || Err(MatrixError::Singular));
        assert!(err.is_err());
        // The next lookup must try again (miss), not return a phantom entry.
        cache
            .get_or_invert::<MatrixError>(&set, || identity(2))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_set() {
        let cache = DecodeCache::default();
        // Fill beyond capacity with distinct single-index sets.
        for i in 0..=DECODE_CACHE_CAPACITY {
            cache
                .get_or_invert::<MatrixError>(&[i], || identity(1))
                .unwrap();
        }
        // Set [0] was the oldest and must have been evicted: a fresh lookup
        // is a miss. Set [1] survived: a hit. (Check [1] first — re-inserting
        // [0] evicts the then-oldest [1].)
        let before = cache.stats();
        cache
            .get_or_invert::<MatrixError>(&[1], || panic!("must be cached"))
            .unwrap();
        cache
            .get_or_invert::<MatrixError>(&[0], || identity(1))
            .unwrap();
        let after = cache.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn hit_refreshes_recency() {
        let cache = DecodeCache::default();
        for i in 0..DECODE_CACHE_CAPACITY {
            cache
                .get_or_invert::<MatrixError>(&[i], || identity(1))
                .unwrap();
        }
        // Touch the oldest set, then insert one more: the eviction victim
        // must be [1] (now oldest), not [0].
        cache
            .get_or_invert::<MatrixError>(&[0], || panic!("cached"))
            .unwrap();
        cache
            .get_or_invert::<MatrixError>(&[DECODE_CACHE_CAPACITY], || identity(1))
            .unwrap();
        cache
            .get_or_invert::<MatrixError>(&[0], || panic!("still cached"))
            .unwrap();
        let stats = cache.stats();
        // [1] is gone.
        cache
            .get_or_invert::<MatrixError>(&[1], || identity(1))
            .unwrap();
        assert_eq!(cache.stats().misses, stats.misses + 1);
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = CodeCacheStats {
            hits: 1,
            misses: 2,
            inversions: 2,
        };
        let b = CodeCacheStats {
            hits: 10,
            misses: 0,
            inversions: 0,
        };
        a.merge(&b);
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 2);
        assert!(a.hit_rate() > 0.8);
        assert_eq!(CodeCacheStats::default().hit_rate(), 0.0);
    }
}
