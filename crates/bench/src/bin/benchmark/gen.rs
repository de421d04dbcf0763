//! The load generator's own randomness: keys, values and choices all come
//! from a seeded SplitMix64 stream owned by the benchmark, so the program
//! under test sees only generated inputs and a `--seed` reproduces them.

/// SplitMix64 — small, fast, and good enough for picking keys and bytes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// One stream per purpose, so changing how many draws one purpose makes does
/// not shift the others.
pub fn stream(seed: u64, purpose: u64) -> Rng {
    let mut mix = Rng::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    Rng::new(mix.next_u64())
}

/// `count` distinct keys `k/<16 hex digits>`, the same number on each of
/// `shards` shards as `shard_of` places them.
///
/// Random names, because sequential ones leave shards of the FNV-1a ring
/// empty; equal shares, because shards run different protocols at different
/// costs, so letting the share of keys per protocol vary with the seed made
/// throughput vary with it too (see the README).
pub fn balanced_keys(
    rng: &mut Rng,
    count: usize,
    shards: usize,
    shard_of: impl Fn(&[u8]) -> usize,
) -> Vec<Vec<u8>> {
    let quota = count.div_ceil(shards);
    let mut owned = vec![0usize; shards];
    let mut seen = std::collections::BTreeSet::new();
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let id = rng.next_u64();
        let key = format!("k/{id:016x}").into_bytes();
        let shard = shard_of(&key);
        if owned[shard] < quota && seen.insert(id) {
            owned[shard] += 1;
            keys.push(key);
        }
    }
    keys
}

/// A pseudo-random value of `len` bytes.
pub fn value(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// 64-bit hash of a value, eight bytes per step, kept by the generator for
/// every value it writes so a get can be checked against them.
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of eight bytes"));
        h = (h ^ word)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }
    for &byte in chunks.remainder() {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (h >> 32)
}

/// The first `count` entries of `indices` become a uniform sample without
/// replacement (partial Fisher–Yates).
pub fn choose(rng: &mut Rng, indices: &mut [usize], count: usize) {
    for i in 0..count.min(indices.len()) {
        let j = i + rng.below(indices.len() - i);
        indices.swap(i, j);
    }
}
