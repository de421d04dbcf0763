//! Value ↔ shard conversion.
//!
//! A value is an arbitrary byte string. To feed it through an `[n, k]` code it
//! is (1) prefixed with an 8-byte little-endian length header, (2) padded with
//! zeros to a multiple of `k`, and (3) cut into `k` equal contiguous data
//! shards: shard `i` is bytes `[i·L, (i+1)·L)` of the padded buffer, where
//! `L = ceil((len+8)/k)`. Byte `j` of the `k` data shards together is one
//! Reed–Solomon message word, so shard length = coded-element length = `L`,
//! matching the paper's "each coded element has size 1/k" accounting.
//! Splitting and reassembly are slice copies, never per-byte work, and the
//! encoder and decoder never build the padded buffer: the encoder copies each data shard
//! straight from the value into its coded element (parity rows borrow the
//! shards that lie wholly inside the value), and the decoder writes each
//! data shard's value bytes straight into the decoded value.

use crate::Bytes;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// One coded element `c_i = Φ_i(v)`: the index identifies which of the `n`
/// code positions (equivalently, which server) this element belongs to.
///
/// The payload is a [`Bytes`] buffer: cloning an element — which the
/// simulated network does on every relay, duplication and storage step — is
/// O(1) and shares the underlying bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CodedElement {
    /// Code position in `0..n`.
    pub index: usize,
    /// The element payload (all elements of one codeword have equal length).
    pub data: Bytes,
}

impl CodedElement {
    /// Creates a coded element from anything convertible to [`Bytes`]
    /// (`Vec<u8>`, `&[u8]`, an existing `Bytes`, …).
    pub fn new(index: usize, data: impl Into<Bytes>) -> Self {
        CodedElement {
            index,
            data: data.into(),
        }
    }

    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl fmt::Debug for CodedElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CodedElement(idx={}, {} bytes)",
            self.index,
            self.data.len()
        )
    }
}

/// Length of the length header prepended to every value before splitting.
pub const LENGTH_HEADER: usize = 8;

/// Why [`reassemble`] rejected its input. Every variant indicates corruption
/// (or a protocol bug): honestly encoded shards always reassemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassembleError {
    /// No shards were supplied.
    NoShards,
    /// The shards do not all have the same length.
    RaggedShards,
    /// The combined shards are shorter than the 8-byte length header, so no
    /// length can even be read.
    TruncatedHeader {
        /// Combined payload bytes available.
        available: usize,
    },
    /// The embedded length header claims more payload bytes than the shards
    /// can hold (`shards.len() * shard_len − 8`).
    LengthOutOfBounds {
        /// The length the header claims.
        claimed: usize,
        /// Maximum payload the shards could carry.
        capacity: usize,
    },
}

impl fmt::Display for ReassembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassembleError::NoShards => write!(f, "no shards to reassemble"),
            ReassembleError::RaggedShards => write!(f, "shards have unequal lengths"),
            ReassembleError::TruncatedHeader { available } => write!(
                f,
                "shards too short for the {LENGTH_HEADER}-byte length header \
                 ({available} bytes available)"
            ),
            ReassembleError::LengthOutOfBounds { claimed, capacity } => write!(
                f,
                "length header claims {claimed} bytes but shards hold at most {capacity}"
            ),
        }
    }
}

impl std::error::Error for ReassembleError {}

/// Length of each of the `k` data shards of a `value_len`-byte value.
fn shard_len(value_len: usize, k: usize) -> usize {
    assert!(k > 0, "k must be positive");
    (value_len + LENGTH_HEADER).div_ceil(k)
}

/// The padded payload: the length header, the value, then zeros up to a
/// multiple of `k` — `k` data shards of [`shard_len`] bytes back to back.
fn pad(value: &[u8], k: usize) -> Vec<u8> {
    let padded_len = shard_len(value.len(), k) * k;
    let mut padded = Vec::with_capacity(padded_len);
    padded.extend_from_slice(&(value.len() as u64).to_le_bytes());
    padded.extend_from_slice(value);
    padded.resize(padded_len, 0);
    padded
}

/// Writes data shard `i` of `value` — bytes `[i·L, (i+1)·L)` of [`pad`]'s
/// output, `L = out.len()` — into `out`, without padding the rest of the
/// value: its part of the length header, its part of the value, then zeros.
fn fill_data_shard(value: &[u8], i: usize, out: &mut [u8]) {
    let (start, end) = (i * out.len(), (i + 1) * out.len());
    let header = (value.len() as u64).to_le_bytes();
    let header = &header[start.min(LENGTH_HEADER)..end.min(LENGTH_HEADER)];
    let body = |at: usize| at.saturating_sub(LENGTH_HEADER).min(value.len());
    let body = &value[body(start)..body(end)];
    let (head, rest) = out.split_at_mut(header.len());
    head.copy_from_slice(header);
    let (middle, padding) = rest.split_at_mut(body.len());
    middle.copy_from_slice(body);
    padding.fill(0);
}

/// Data shard `i` of `value` as a coded element's payload: the systematic
/// element `Φ_i(v)`, copied once from the value into its own buffer.
pub(crate) fn data_element(value: &[u8], k: usize, i: usize) -> Bytes {
    Bytes::filled(shard_len(value.len(), k), |out| {
        fill_data_shard(value, i, out)
    })
}

/// The `k` data shards of `value`. A shard that lies wholly inside the value
/// is borrowed from it; only the shards holding the length header or the
/// zero padding are assembled.
pub(crate) fn data_shards(value: &[u8], k: usize) -> Vec<Cow<'_, [u8]>> {
    let len = shard_len(value.len(), k);
    (0..k)
        .map(|i| {
            let start = i * len;
            if start >= LENGTH_HEADER && start + len <= LENGTH_HEADER + value.len() {
                Cow::Borrowed(&value[start - LENGTH_HEADER..start + len - LENGTH_HEADER])
            } else {
                let mut shard = vec![0; len];
                fill_data_shard(value, i, &mut shard);
                Cow::Owned(shard)
            }
        })
        .collect()
}

/// Prefixes the value with its length, pads it to a multiple of `k`, and
/// splits it into `k` equal-length data shards.
///
/// The split is *contiguous*: shard `i` is bytes `[i·L, (i+1)·L)` of the
/// padded payload, so byte `j` of every shard together is one codeword
/// symbol vector.
pub fn pad_and_split(value: &[u8], k: usize) -> Vec<Vec<u8>> {
    let padded = pad(value, k);
    padded
        .chunks_exact(shard_len(value.len(), k))
        .map(<[u8]>::to_vec)
        .collect()
}

/// The value length a length header claims, checked against the `capacity`
/// payload bytes the shards hold after the header.
fn claimed_len(header: [u8; LENGTH_HEADER], capacity: usize) -> Result<usize, ReassembleError> {
    let claimed = u64::from_le_bytes(header);
    // Compare in u64: a header claiming close to 2^64 must not wrap when cast
    // to usize on 32-bit targets.
    if claimed > capacity as u64 {
        return Err(ReassembleError::LengthOutOfBounds {
            claimed: claimed.min(usize::MAX as u64) as usize,
            capacity,
        });
    }
    Ok(claimed as usize)
}

/// Inverse of [`pad_and_split`]: reassembles the original value from the `k`
/// data shards, validating the 8-byte length header against the shard
/// capacity before trusting it.
pub fn reassemble(shards: &[Vec<u8>]) -> Result<Vec<u8>, ReassembleError> {
    let k = shards.len();
    if k == 0 {
        return Err(ReassembleError::NoShards);
    }
    let shard_len = shards[0].len();
    if shards.iter().any(|s| s.len() != shard_len) {
        return Err(ReassembleError::RaggedShards);
    }
    let padded_len = shard_len * k;
    if padded_len < LENGTH_HEADER {
        return Err(ReassembleError::TruncatedHeader {
            available: padded_len,
        });
    }
    let mut len_bytes = [0u8; LENGTH_HEADER];
    for (slot, &byte) in len_bytes.iter_mut().zip(shards.iter().flatten()) {
        *slot = byte;
    }
    let claimed = claimed_len(len_bytes, padded_len - LENGTH_HEADER)?;
    // Concatenate the shards' bytes in `[8, 8 + claimed)` of the padded
    // payload: one slice copy per shard.
    let (start, end) = (LENGTH_HEADER, LENGTH_HEADER + claimed);
    let mut value = Vec::with_capacity(end - start);
    for (i, shard) in shards.iter().enumerate() {
        let at = i * shard_len;
        let from = start.clamp(at, at + shard_len) - at;
        let to = end.clamp(at, at + shard_len) - at;
        value.extend_from_slice(&shard[from..to]);
    }
    Ok(value)
}

/// The value carried by `k` data shards of `shard_len` bytes each, which
/// `shard(i, cols, out)` computes on demand: it adds columns `cols` of data
/// shard `i` into the zeroed `out`. The 8 header bytes are computed first
/// and checked against the shards' capacity, then each shard's value bytes
/// once, straight into the value's one buffer; no shard is materialized
/// whole. Fails exactly where [`reassemble`] fails on the same shards.
pub(crate) fn value_from_shards(
    k: usize,
    shard_len: usize,
    mut shard: impl FnMut(usize, Range<usize>, &mut [u8]),
) -> Result<Bytes, ReassembleError> {
    let padded_len = shard_len * k;
    if padded_len < LENGTH_HEADER {
        return Err(ReassembleError::TruncatedHeader {
            available: padded_len,
        });
    }
    // Header byte `j` is column `j mod L` of shard `j / L`.
    let mut header = [0u8; LENGTH_HEADER];
    for (i, part) in header.chunks_mut(shard_len).enumerate() {
        shard(i, 0..part.len(), part);
    }
    let len = claimed_len(header, padded_len - LENGTH_HEADER)?;
    let (start, end) = (LENGTH_HEADER, LENGTH_HEADER + len);
    Ok(Bytes::filled(len, |value| {
        for i in 0..k {
            let at = i * shard_len;
            let from = start.clamp(at, at + shard_len);
            let to = end.clamp(at, at + shard_len);
            if from < to {
                shard(i, from - at..to - at, &mut value[from - start..to - start]);
            }
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_sizes_and_k() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let value: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            for k in [1usize, 2, 3, 5, 8, 17] {
                let shards = pad_and_split(&value, k);
                assert_eq!(shards.len(), k);
                let shard_len = shards[0].len();
                assert!(shards.iter().all(|s| s.len() == shard_len));
                assert!(shard_len * k >= value.len() + LENGTH_HEADER);
                assert_eq!(
                    reassemble(&shards).expect("reassemble"),
                    value,
                    "len={len} k={k}"
                );
            }
        }
    }

    #[test]
    fn empty_value_round_trips() {
        let shards = pad_and_split(&[], 4);
        assert_eq!(reassemble(&shards).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn shard_length_is_ceiling_of_total_over_k() {
        let shards = pad_and_split(&[0u8; 100], 7);
        assert_eq!(shards[0].len(), (100usize + LENGTH_HEADER).div_ceil(7));
    }

    #[test]
    fn reassemble_rejects_ragged_shards() {
        let mut shards = pad_and_split(b"hello world", 3);
        shards[1].push(0);
        assert_eq!(reassemble(&shards), Err(ReassembleError::RaggedShards));
    }

    #[test]
    fn reassemble_rejects_empty_input() {
        assert_eq!(reassemble(&[]), Err(ReassembleError::NoShards));
    }

    #[test]
    fn reassemble_rejects_truncated_header() {
        // 3 shards of 2 bytes = 6 bytes total, shorter than the 8-byte header.
        let shards = vec![vec![0u8; 2]; 3];
        assert_eq!(
            reassemble(&shards),
            Err(ReassembleError::TruncatedHeader { available: 6 })
        );
        // Zero-length shards: 0 bytes available.
        let shards = vec![Vec::new(); 4];
        assert_eq!(
            reassemble(&shards),
            Err(ReassembleError::TruncatedHeader { available: 0 })
        );
    }

    #[test]
    fn reassemble_rejects_oversized_length_header() {
        let mut shards = pad_and_split(b"abc", 2);
        // Overwrite the length header with an absurd value.
        shards[0][0] = 0xff;
        shards[1][0] = 0xff;
        shards[0][1] = 0xff;
        let err = reassemble(&shards).unwrap_err();
        assert!(
            matches!(err, ReassembleError::LengthOutOfBounds { claimed, capacity }
                if claimed > capacity),
            "got {err:?}"
        );
    }

    /// `shards` with their length header replaced by `claimed`: bytes `0..8`
    /// of the padded payload are overwritten, then the payload is split again.
    fn with_header(shards: &[Vec<u8>], claimed: u64) -> Vec<Vec<u8>> {
        let mut padded = shards.concat();
        padded[..LENGTH_HEADER].copy_from_slice(&claimed.to_le_bytes());
        padded
            .chunks_exact(shards[0].len())
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn reassemble_rejects_length_one_past_capacity() {
        // The tightest off-by-one: header claims exactly capacity + 1. With
        // 3 shards of 6 bytes the header spans shards 0 and 1.
        let value = vec![7u8; 10];
        let shards = pad_and_split(&value, 3);
        assert!(shards[0].len() < LENGTH_HEADER);
        let capacity = shards[0].len() * 3 - LENGTH_HEADER;
        assert_eq!(
            reassemble(&with_header(&shards, capacity as u64 + 1)),
            Err(ReassembleError::LengthOutOfBounds {
                claimed: capacity + 1,
                capacity,
            })
        );
        // A claim whose excess sits in a high header byte — in the second
        // shard — is caught the same way.
        let claimed = capacity as u64 | 1 << 56;
        assert_eq!(
            reassemble(&with_header(&shards, claimed)),
            Err(ReassembleError::LengthOutOfBounds {
                claimed: claimed as usize,
                capacity,
            })
        );
        // Claiming exactly `capacity` is structurally valid (padding bytes
        // become payload, but the header is in bounds).
        let whole = reassemble(&with_header(&shards, capacity as u64)).unwrap();
        assert_eq!(whole.len(), capacity);
        assert_eq!(whole[..value.len()], value[..]);
    }

    #[test]
    fn shards_are_contiguous_slices_of_the_padded_value() {
        for len in [0usize, 1, 7, 8, 9, 100, 1000] {
            let value: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
            for k in [1usize, 2, 3, 5, 17] {
                let padded = pad(&value, k);
                assert_eq!(&padded[..LENGTH_HEADER], &(len as u64).to_le_bytes());
                assert_eq!(&padded[LENGTH_HEADER..LENGTH_HEADER + len], &value[..]);
                let shards = pad_and_split(&value, k);
                assert_eq!(shards.concat(), padded, "len={len} k={k}");
                let borrowed = data_shards(&value, k);
                for (i, shard) in shards.iter().enumerate() {
                    assert_eq!(&data_element(&value, k, i), shard, "len={len} k={k} i={i}");
                    assert_eq!(&*borrowed[i], &shard[..], "len={len} k={k} i={i}");
                    // Only the shards holding header or padding bytes are
                    // assembled; every other one is a slice of the value.
                    let inside = i * shard.len() >= LENGTH_HEADER
                        && (i + 1) * shard.len() <= LENGTH_HEADER + len;
                    assert_eq!(matches!(borrowed[i], Cow::Borrowed(_)), inside);
                }
            }
        }
    }

    #[test]
    fn value_from_shards_matches_reassemble() {
        // Honest shards, a header spanning shards, and every header that
        // claims a length around the capacity.
        for (len, k) in [(0usize, 1usize), (10, 3), (100, 7), (5, 17), (1000, 4)] {
            let value: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let shards = pad_and_split(&value, k);
            let capacity = shards[0].len() * k - LENGTH_HEADER;
            for claimed in [len as u64, capacity as u64, capacity as u64 + 1, u64::MAX] {
                let shards = with_header(&shards, claimed);
                let computed = value_from_shards(k, shards[0].len(), |i, cols, out| {
                    for (o, &b) in out.iter_mut().zip(&shards[i][cols]) {
                        *o ^= b;
                    }
                });
                assert_eq!(
                    computed.map(|v| v.to_vec()),
                    reassemble(&shards),
                    "len={len} k={k} claimed={claimed}"
                );
            }
        }
        // Too few bytes for a header at all.
        assert_eq!(
            value_from_shards(3, 2, |_, _, _| unreachable!()),
            Err(ReassembleError::TruncatedHeader { available: 6 })
        );
    }

    #[test]
    fn reassemble_error_display_is_informative() {
        let msgs = [
            ReassembleError::NoShards.to_string(),
            ReassembleError::RaggedShards.to_string(),
            ReassembleError::TruncatedHeader { available: 4 }.to_string(),
            ReassembleError::LengthOutOfBounds {
                claimed: 100,
                capacity: 8,
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[3].contains("100"));
        assert!(msgs[3].contains('8'));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = pad_and_split(b"x", 0);
    }

    #[test]
    fn coded_element_accessors() {
        let e = CodedElement::new(3, vec![1, 2, 3]);
        assert_eq!(e.index, 3);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert!(CodedElement::new(0, vec![]).is_empty());
        let dbg = format!("{e:?}");
        assert!(dbg.contains("idx=3"));
    }

    #[test]
    fn coded_element_clone_shares_payload() {
        let e = CodedElement::new(1, vec![1u8; 4096]);
        let f = e.clone();
        assert!(Bytes::ptr_eq(&e.data, &f.data), "clone must be zero-copy");
    }
}
