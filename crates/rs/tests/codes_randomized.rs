//! Randomized tests for the MDS code: random values, random `[n, k]`
//! parameters, random erasure patterns and random corruption patterns must
//! always round-trip (or be detected) according to the code's guarantees
//! (formerly a proptest suite; now driven by the seeded `SimRng`).

use soda_rs_code::{CodedElement, MdsCode, VandermondeCode};
use soda_simnet::rng::SimRng;

const CASES: usize = 64;

fn rng(salt: u64) -> SimRng {
    SimRng::new(0x7275_5400 ^ salt)
}

/// Draws `(n, k, value)` with `2 <= n <= 12`, `1 <= k <= n` and a value of up
/// to 300 bytes.
fn code_params(rng: &mut SimRng) -> (usize, usize, Vec<u8>) {
    let n = rng.gen_range(2usize..=12);
    let k = rng.gen_range(1usize..=n);
    let len = rng.gen_range(0usize..300);
    let value: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    (n, k, value)
}

#[test]
fn vandermonde_round_trips_any_k_subset() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let mut shuffled = code.encode(&value).unwrap();
        rng.shuffle(&mut shuffled);
        shuffled.truncate(k);
        assert_eq!(code.decode(&shuffled).unwrap(), value);
    }
}

#[test]
fn element_sizes_are_value_over_k() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let elements = code.encode(&value).unwrap();
        let expected = (value.len() + 8).div_ceil(k);
        for e in &elements {
            assert_eq!(e.data.len(), expected);
        }
        assert_eq!(elements.len(), n);
    }
}

#[test]
fn bw_code_corrects_random_corruption() {
    let mut rng = rng(3);
    let mut checked = 0usize;
    while checked < CASES {
        let (n, k, value) = code_params(&mut rng);
        let e_budget = rng.gen_range(0usize..=2);
        if k + 2 * e_budget > n {
            continue;
        }
        checked += 1;
        let code = VandermondeCode::new(n, k).unwrap();
        // Keep exactly k + 2e elements (simulating f crashes), corrupt up to
        // e of them.
        let mut kept = code.encode(&value).unwrap();
        rng.shuffle(&mut kept);
        kept.truncate(k + 2 * e_budget);
        let corrupt_count = e_budget.min(kept.len());
        let mut indices: Vec<usize> = (0..kept.len()).collect();
        rng.shuffle(&mut indices);
        for &i in indices.iter().take(corrupt_count) {
            for b in kept[i].data.make_mut() {
                *b ^= 0x5A;
            }
        }
        let decoded = code.decode_with_errors(&kept, e_budget).unwrap();
        assert_eq!(decoded, value);
    }
}

#[test]
fn bw_partial_byte_corruption_is_corrected() {
    let mut rng = rng(4);
    let mut checked = 0usize;
    while checked < CASES {
        let (n, k, value) = code_params(&mut rng);
        if k + 2 > n || value.is_empty() {
            continue;
        }
        checked += 1;
        let code = VandermondeCode::new(n, k).unwrap();
        let mut elements = code.encode(&value).unwrap();
        // Corrupt a random subset of bytes within one random element.
        let victim = rng.gen_range(0usize..n);
        let bytes = elements[victim].data.make_mut();
        for byte in bytes.iter_mut() {
            if rng.gen_bool(0.5) {
                *byte ^= 0xFF;
            }
        }
        let decoded = code.decode_with_errors(&elements, 1).unwrap();
        assert_eq!(decoded, value);
    }
}

#[test]
fn encode_one_repair_matches_full_encode() {
    // Server repair re-encodes a single element from the decoded value; the
    // single-row fast path must produce bit-identical elements to Φ(v).
    let mut rng = rng(6);
    for _ in 0..CASES {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let all = code.encode(&value).unwrap();
        let index = rng.gen_range(0usize..n);
        let one = code.encode_one(&value, index).unwrap();
        assert_eq!(one, all[index], "n={n} k={k} index={index}");
    }
}

#[test]
fn decode_after_cache_hit_is_identical_to_first_decode() {
    // The cached inverted matrix must yield byte-identical reconstructions.
    let mut rng = rng(7);
    for _ in 0..CASES {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let mut subset = code.encode(&value).unwrap();
        rng.shuffle(&mut subset);
        subset.truncate(k);
        let first = code.decode(&subset).unwrap();
        let second = code.decode(&subset).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, value);
    }
}

#[test]
fn decode_never_panics_on_garbage() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..=8);
        let k = rng.gen_range(1usize..=n);
        let num_elements = rng.gen_range(0usize..8);
        let elements: Vec<CodedElement> = (0..num_elements)
            .map(|_| {
                let idx = rng.gen_range(0usize..16);
                let len = rng.gen_range(0usize..32);
                CodedElement::new(idx, (0..len).map(|_| rng.gen()).collect::<Vec<u8>>())
            })
            .collect();
        // Must return an error or a value, never panic.
        let code = VandermondeCode::new(n, k).unwrap();
        let _ = code.decode(&elements);
        let _ = code.decode_with_errors(&elements, 1);
    }
}
