//! Randomized tests for the MDS code: random values, random `[n, k]`
//! parameters, random erasure patterns and random corruption patterns must
//! always round-trip (or be detected) according to the code's guarantees
//! (formerly a proptest suite; now driven by the seeded `SimRng`).
//!
//! The case count per property is 64 by default and scales with
//! `KERNEL_EQ_CASES`, like the GF kernel equivalence suite (see
//! `.github/workflows/ci.yml`).

use soda_rs_code::{
    pad_and_split, reassemble, Bytes, CodeError, CodedElement, MdsCode, VandermondeCode,
    LENGTH_HEADER,
};
use soda_simnet::rng::SimRng;

fn cases() -> usize {
    std::env::var("KERNEL_EQ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

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

/// A decode returns the buffer its elements were cut from exactly when a
/// view of it is among them; otherwise, and always at `k = 1` (the one data
/// element carries the end marker, so it is never a view), a buffer of its
/// own.
fn assert_shares_exactly_with_a_view(
    decoded: &Bytes,
    source: &Bytes,
    elements: &[CodedElement],
    k: usize,
    what: &str,
) {
    let shares = Bytes::ptr_eq(decoded, source);
    let with_view = elements.iter().any(|e| e.data.is_view());
    assert_eq!(shares, with_view, "{what}");
    assert!(k > 1 || !shares, "{what}: shared at k = 1");
}

#[test]
fn vandermonde_round_trips_any_k_subset() {
    let mut rng = rng(1);
    for _ in 0..cases() {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let shared = Bytes::from(value.clone());
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        order.truncate(k);
        let what = format!("n={n} k={k} |v|={} rows {order:?}", value.len());
        // The same rows from the slice encode (every element owned) and from
        // the value's buffer (interior data elements are views of it).
        let (owned, viewed) = (code.encode(&value).unwrap(), code.encode_shared(&shared));
        let pick = |all: &[CodedElement]| -> Vec<CodedElement> {
            order.iter().map(|&i| all[i].clone()).collect()
        };
        let (owned, viewed) = (pick(&owned), pick(&viewed));
        let decoded = code.decode(&owned).unwrap();
        assert_eq!(decoded, value, "{what}");
        assert_shares_exactly_with_a_view(&decoded, &shared, &owned, k, &what);
        let decoded = code.decode(&viewed).unwrap();
        assert_eq!(decoded, value, "{what}");
        assert_shares_exactly_with_a_view(&decoded, &shared, &viewed, k, &what);
    }
}

#[test]
fn element_sizes_are_value_over_k() {
    let mut rng = rng(2);
    for _ in 0..cases() {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let elements = code.encode(&value).unwrap();
        let expected = (value.len() + 1).div_ceil(k);
        for e in &elements {
            assert_eq!(e.data.len(), expected);
        }
        assert_eq!(elements.len(), n);
    }
}

#[test]
fn element_length_is_the_papers_unless_k_divides_the_value() {
    // The one end-marker byte costs a byte per element only when `k`
    // divides `|v|`; otherwise the element is the paper's `⌈|v|/k⌉`.
    for k in 1..=12usize {
        let code = VandermondeCode::new(12, k).unwrap();
        for len in 0..200usize {
            let element = code.encode_one(&vec![0xA5; len], 0).unwrap().len();
            assert_eq!(
                element,
                (len + LENGTH_HEADER).div_ceil(k),
                "k={k} |v|={len}"
            );
            if len % k != 0 {
                assert_eq!(element, len.div_ceil(k), "k={k} |v|={len}");
            } else {
                assert_eq!(element, len / k + 1, "k={k} |v|={len}");
            }
        }
    }
}

#[test]
fn bw_code_corrects_random_corruption() {
    let mut rng = rng(3);
    let mut checked = 0usize;
    while checked < cases() {
        let (n, k, value) = code_params(&mut rng);
        let e_budget = rng.gen_range(0usize..=2);
        if k + 2 * e_budget > n {
            continue;
        }
        checked += 1;
        let code = VandermondeCode::new(n, k).unwrap();
        // Keep exactly k + 2e elements (simulating f crashes), corrupt up to
        // e of them. A corrupted view is copied first, so it stops being one.
        let shared = Bytes::from(value.clone());
        let mut kept = code.encode_shared(&shared);
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
        // Every byte of a corrupted element flips, so the first column finds
        // them all and the corrected decode runs on the intact ones.
        let what = format!("n={n} k={k} e={e_budget} |v|={}", value.len());
        assert_shares_exactly_with_a_view(&decoded, &shared, &kept, k, &what);
    }
}

#[test]
fn bw_partial_byte_corruption_is_corrected() {
    let mut rng = rng(4);
    let mut checked = 0usize;
    while checked < cases() {
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
    for _ in 0..cases() {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let all = code.encode(&value).unwrap();
        let index = rng.gen_range(0usize..n);
        let one = code.encode_one(&value, index).unwrap();
        assert_eq!(one, all[index], "n={n} k={k} index={index}");
    }
}

#[test]
fn encode_shared_views_exactly_the_interior_data_shards() {
    // The value-taking encode computes Φ(v) like the slice encode, but a
    // data element whose shard lies wholly inside the value is a view of
    // the value's buffer; the data elements holding the end marker or
    // padding and every parity element own their buffers. Element 0 is a
    // view whenever an element is no longer than the value.
    let mut rng = rng(8);
    for _ in 0..cases() {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let shared = Bytes::from(value.clone());
        let viewed = code.encode_shared(&shared);
        assert_eq!(viewed, code.encode(&value).unwrap(), "n={n} k={k}");
        let len = (value.len() + LENGTH_HEADER).div_ceil(k);
        for (i, element) in viewed.iter().enumerate() {
            let interior = i < k && (i + 1) * len <= value.len();
            let what = format!("n={n} k={k} |v|={} i={i}", value.len());
            assert_eq!(element.index, i, "{what}");
            assert_eq!(element.data.shares(&shared), interior, "{what}");
            // A shard that is the whole value is the value's buffer itself.
            let part = interior && len < value.len();
            assert_eq!(element.data.is_view(), part, "{what}");
        }
    }
}

#[test]
fn make_mut_on_a_view_copies_and_leaves_the_value_unchanged() {
    let mut rng = rng(9);
    let mut checked = 0usize;
    while checked < cases() {
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let shared = Bytes::from(value.clone());
        let mut elements = code.encode_shared(&shared);
        let Some(view) = elements.iter_mut().find(|e| e.data.is_view()) else {
            continue;
        };
        checked += 1;
        let before = view.data.to_vec();
        let salt = rng.gen::<u8>() | 1;
        for b in view.data.make_mut() {
            *b ^= salt;
        }
        assert!(!view.data.is_view() && !view.data.shares(&shared));
        let flipped: Vec<u8> = before.iter().map(|b| b ^ salt).collect();
        assert_eq!(view.data, flipped);
        assert_eq!(shared, value, "the viewed value is unchanged");
        // Every other element still decodes to the value.
        let index = view.index;
        let rest: Vec<CodedElement> = elements.into_iter().filter(|e| e.index != index).collect();
        if rest.len() >= k {
            assert_eq!(code.decode(&rest).unwrap(), value);
        }
        // Views made owned with their bytes unchanged still decode to the
        // value, but never to the buffer they were cut from.
        let mut owned = code.encode_shared(&shared);
        for element in &mut owned {
            element.data.make_mut();
        }
        let decoded = code.decode(&owned).unwrap();
        assert_eq!(decoded, value);
        assert!(!Bytes::ptr_eq(&decoded, &shared), "n={n} k={k}");
    }
}

#[test]
fn repeated_decodes_are_identical() {
    // Decoding is a pure function of the elements: decoding the same subset
    // twice yields byte-identical values.
    let mut rng = rng(7);
    for _ in 0..cases() {
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
    for _ in 0..cases() {
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

/// The reference code: the padded buffer split by [`pad_and_split`], every
/// row of the systematic encoding matrix applied with
/// `Matrix::apply_to_shards`, and decoding by inverting the chosen rows,
/// applying the inverse to whole shards and [`reassemble`]-ing them.
mod reference {
    use super::*;

    /// `Φ(v)` of the `k` data shards `data` (which may carry a forged end
    /// marker).
    pub fn encode_shards(code: &VandermondeCode, data: &[Vec<u8>]) -> Vec<CodedElement> {
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        code.encoding_matrix()
            .apply_to_shards(&refs)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, e)| CodedElement::new(i, e))
            .collect()
    }

    pub fn encode(code: &VandermondeCode, value: &[u8]) -> Vec<CodedElement> {
        encode_shards(code, &pad_and_split(value, code.k()))
    }

    pub fn decode(code: &VandermondeCode, elements: &[CodedElement]) -> Result<Vec<u8>, CodeError> {
        let (n, k) = (code.n(), code.k());
        if elements.len() < k {
            return Err(CodeError::NotEnoughElements {
                have: elements.len(),
                need: k,
            });
        }
        let mut seen = vec![false; n];
        for e in elements {
            if e.index >= n {
                return Err(CodeError::InvalidIndex { index: e.index, n });
            }
            if std::mem::replace(&mut seen[e.index], true) {
                return Err(CodeError::DuplicateIndex { index: e.index });
            }
            if e.data.len() != elements[0].data.len() {
                return Err(CodeError::InconsistentElementLength);
            }
        }
        let mut chosen: Vec<&CodedElement> = elements.iter().take(k).collect();
        chosen.sort_by_key(|e| e.index);
        let rows: Vec<usize> = chosen.iter().map(|e| e.index).collect();
        let inverse = code
            .encoding_matrix()
            .select_rows(&rows)
            .inverse()
            .map_err(|_| CodeError::TooManyErrors)?;
        let shards: Vec<&[u8]> = chosen.iter().map(|e| &e.data[..]).collect();
        let data = inverse.apply_to_shards(&shards).unwrap();
        reassemble(&data).map_err(|_| CodeError::CorruptPayload)
    }
}

/// `decode` against the reference on `elements`, the same `Ok` value or the
/// same `Err`.
fn assert_decodes_like_reference(code: &VandermondeCode, elements: &[CodedElement], what: &str) {
    assert_eq!(
        code.decode(elements).map(|v| v.to_vec()),
        reference::decode(code, elements),
        "{what}: {code:?}, indices {:?}",
        elements.iter().map(|e| e.index).collect::<Vec<_>>()
    );
}

#[test]
fn encode_and_decode_match_the_padded_buffer_reference() {
    let mut rng = rng(8);
    let mut tail_spans_shards = 0;
    let large: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
    let mut params: Vec<(usize, usize, Vec<u8>)> =
        (0..cases()).map(|_| code_params(&mut rng)).collect();
    params.push((7, 5, large.clone()));
    params.push((12, 3, large));
    for (n, k, value) in params {
        let code = VandermondeCode::new(n, k).unwrap();
        let expected = reference::encode(&code, &value);
        // The decoder searches the payload's last k bytes for the marker.
        if expected[0].data.len() < k {
            tail_spans_shards += 1;
        }
        assert_eq!(code.encode(&value).unwrap(), expected, "n={n} k={k}");
        for (i, element) in expected.iter().enumerate() {
            assert_eq!(
                &code.encode_one(&value, i).unwrap(),
                element,
                "n={n} k={k} i={i}"
            );
        }
        let mut subset = expected;
        rng.shuffle(&mut subset);
        subset.truncate(rng.gen_range(k..=n));
        assert_decodes_like_reference(&code, &subset, "honest elements");
        assert_eq!(code.decode(&subset).unwrap(), value);
    }
    assert!(
        tail_spans_shards > 0,
        "no case put the last k bytes in two shards"
    );
}

/// The `k` data shards of `value` with the padded payload's last bytes
/// replaced by `tail`.
fn with_tail(value: &[u8], k: usize, tail: &[u8]) -> Vec<Vec<u8>> {
    let mut data = pad_and_split(value, k);
    let mut padded = data.concat();
    let at = padded.len() - tail.len();
    padded[at..].copy_from_slice(tail);
    for (shard, bytes) in data.iter_mut().zip(padded.chunks_exact(padded.len() / k)) {
        shard.copy_from_slice(bytes);
    }
    data
}

#[test]
fn decode_matches_the_reference_on_garbage_and_forged_markers() {
    let mut rng = rng(9);
    let mut forged_outcomes = [0usize; 2];
    for _ in 0..cases() {
        // Random elements: wrong counts, indices, lengths and bytes.
        let n = rng.gen_range(2usize..=12);
        let k = rng.gen_range(1usize..=n);
        let code = VandermondeCode::new(n, k).unwrap();
        let len = rng.gen_range(0usize..24);
        let garbage: Vec<CodedElement> = (0..rng.gen_range(0usize..=n + 1))
            .map(|_| {
                let index = rng.gen_range(0usize..n + 2);
                let len = if rng.gen_bool(0.9) { len } else { len + 1 };
                CodedElement::new(index, (0..len).map(|_| rng.gen()).collect::<Vec<u8>>())
            })
            .collect();
        assert_decodes_like_reference(&code, &garbage, "garbage");

        // A consistent codeword whose payload ends in a forged tail: the
        // marker moved (or past the last k bytes), missing, followed by a
        // non-zero byte, or any bytes at all.
        let (n, k, value) = code_params(&mut rng);
        let code = VandermondeCode::new(n, k).unwrap();
        let padded_len = (value.len() + LENGTH_HEADER).div_ceil(k) * k;
        let mut tail = vec![0u8; rng.gen_range(1..=padded_len.min(k + 1))];
        match rng.gen_range(0usize..4) {
            0 => tail[0] = 0x80,
            1 => {}
            2 => {
                tail[0] = 0x80;
                *tail.last_mut().unwrap() |= rng.gen::<u8>() | 1;
            }
            _ => tail.iter_mut().for_each(|b| *b = rng.gen()),
        }
        let mut elements = reference::encode_shards(&code, &with_tail(&value, k, &tail));
        rng.shuffle(&mut elements);
        elements.truncate(k);
        assert_decodes_like_reference(&code, &elements, "forged marker");
        forged_outcomes[usize::from(code.decode(&elements).is_ok())] += 1;
    }
    assert!(
        forged_outcomes.iter().all(|&count| count > 0),
        "forged markers must be both accepted and refused: {forged_outcomes:?}"
    );
}

#[test]
fn a_payload_without_its_end_marker_is_a_corrupt_payload() {
    // A consistent codeword whose decoded tail holds no marker: all zero, or
    // a last non-zero byte other than 0x80. Both decoders refuse it, the
    // correcting one also after correcting a corrupt element.
    let mut rng = rng(10);
    let mut checked = 0usize;
    while checked < cases() {
        let (n, k, value) = code_params(&mut rng);
        if k + 2 > n {
            continue;
        }
        checked += 1;
        let padded_len = (value.len() + LENGTH_HEADER).div_ceil(k) * k;
        let zeros = vec![0u8; padded_len.min(k)];
        let wrong = [rng.gen_range(1u8..0x80) | rng.gen_range(0u8..2) << 7];
        for tail in [&zeros[..], &wrong[..]] {
            let code = VandermondeCode::new(n, k).unwrap();
            let mut elements = reference::encode_shards(&code, &with_tail(&value, k, tail));
            let what = format!("n={n} k={k} |v|={} tail={tail:?}", value.len());
            assert_eq!(
                code.decode(&elements),
                Err(CodeError::CorruptPayload),
                "{what}"
            );
            assert_eq!(
                code.decode_with_errors(&elements, 1),
                Err(CodeError::CorruptPayload),
                "{what}"
            );
            let victim = rng.gen_range(0..n);
            elements[victim]
                .data
                .make_mut()
                .iter_mut()
                .for_each(|b| *b ^= 0x5A);
            assert_eq!(
                code.decode_with_errors(&elements, 1),
                Err(CodeError::CorruptPayload),
                "{what}, element {victim} corrupt"
            );
        }
    }
}
