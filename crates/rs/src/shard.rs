//! Value ↔ shard conversion.
//!
//! A value is an arbitrary byte string. To feed it through an `[n, k]` code it
//! is (1) followed by one end-marker byte, `0x80`, (2) padded with fewer than
//! `k` zeros to a multiple of `k`, and (3) cut into `k` equal contiguous data
//! shards: shard `i` is bytes `[i·L, (i+1)·L)` of the padded payload
//! `v ‖ 0x80 ‖ 0…0`, where `L = ⌈(|v|+1)/k⌉`. The value ends at the payload's
//! last non-zero byte, which must be the marker. Byte `j` of the `k` data
//! shards together is one Reed–Solomon message word, so shard length =
//! coded-element length = `L`: the paper's `⌈|v|/k⌉` ("each coded element
//! has size 1/k") unless `k` divides `|v|`, when the marker costs one more
//! byte per element. Splitting and reassembly are slice copies, never
//! per-byte work, and the encoder and decoder never build the padded buffer.
//! A data shard that lies wholly inside the value (every shard but the ones
//! holding the marker and padding: only the last one once `L ≥ k`) is read
//! in place: parity rows borrow it, and its data element is a view of the
//! value's buffer when the encoder is given one, or else one copy. Only the
//! edge shards are assembled, each once. The decoder computes the payload's
//! last `k` bytes to find the marker, then writes each data shard's value
//! bytes straight into the decoded value.

use crate::{Bytes, Payload};
use std::fmt;
use std::ops::Range;

/// One coded element `c_i = Φ_i(v)`: the index identifies which of the `n`
/// code positions (equivalently, which server) this element belongs to.
///
/// The payload is a [`Payload`]: cloning an element — which the simulated
/// network does on every relay, duplication and storage step — is O(1) and
/// shares the underlying bytes, which may be a part of the written value's
/// own buffer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CodedElement {
    /// Code position in `0..n`.
    pub index: usize,
    /// The element payload (all elements of one codeword have equal length).
    pub data: Payload,
}

impl CodedElement {
    /// Creates a coded element from anything convertible to [`Payload`]
    /// (`Vec<u8>`, `&[u8]`, a whole [`Bytes`], …).
    pub fn new(index: usize, data: impl Into<Payload>) -> Self {
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

/// Bytes the framing adds to a value before it is split: the one end-marker
/// byte. A value `v` becomes `k` data shards, and so coded elements, of
/// `⌈(|v| + LENGTH_HEADER)/k⌉` bytes each.
pub const LENGTH_HEADER: usize = 1;

/// The byte that ends the value in the padded payload; only zeros follow it.
const END_MARKER: u8 = 0x80;

/// Why [`reassemble`] rejected its input. Every variant indicates corruption
/// (or a protocol bug): honestly encoded shards always reassemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassembleError {
    /// No shards were supplied.
    NoShards,
    /// The shards do not all have the same length.
    RaggedShards,
    /// The payload's last `k` bytes hold no end marker: they are all zero,
    /// or their last non-zero byte is not `0x80`.
    MissingEndMarker,
}

impl fmt::Display for ReassembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassembleError::NoShards => write!(f, "no shards to reassemble"),
            ReassembleError::RaggedShards => write!(f, "shards have unequal lengths"),
            ReassembleError::MissingEndMarker => write!(
                f,
                "the payload's last non-zero byte is not the {END_MARKER:#04x} end marker"
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

/// The padded payload: the value, the end marker, then zeros up to a
/// multiple of `k` — `k` data shards of [`shard_len`] bytes back to back.
fn pad(value: &[u8], k: usize) -> Vec<u8> {
    let padded_len = shard_len(value.len(), k) * k;
    let mut padded = Vec::with_capacity(padded_len);
    padded.extend_from_slice(value);
    padded.push(END_MARKER);
    padded.resize(padded_len, 0);
    padded
}

/// Writes data shard `i` of `value` — bytes `[i·L, (i+1)·L)` of [`pad`]'s
/// output, `L = out.len()` — into the zeroed `out`, without padding the rest
/// of the value: its part of the value, then the marker if it falls there.
fn fill_data_shard(value: &[u8], i: usize, out: &mut [u8]) {
    let start = (i * out.len()).min(value.len());
    let body = &value[start..value.len().min(start + out.len())];
    out[..body.len()].copy_from_slice(body);
    let marker = value.len().checked_sub(i * out.len());
    if let Some(slot) = marker.and_then(|at| out.get_mut(at)) {
        *slot = END_MARKER;
    }
}

/// Data shard `i` of a value, as the encoder reads it.
pub(crate) enum DataShard {
    /// The shard lies wholly inside the value: bytes `range` of it.
    Inside(Range<usize>),
    /// The shard holds the end marker or padding, assembled into a buffer of
    /// its own.
    Edge(Bytes),
}

impl DataShard {
    /// Data shard `i` of `value` with `k` data shards: a range of the value
    /// if it lies wholly inside it, else assembled once.
    pub(crate) fn of(value: &[u8], k: usize, i: usize) -> Self {
        let len = shard_len(value.len(), k);
        let start = i * len;
        if start + len <= value.len() {
            DataShard::Inside(start..start + len)
        } else {
            DataShard::Edge(Bytes::filled(len, |out| fill_data_shard(value, i, out)))
        }
    }

    /// The shard's bytes, `value` being the value it was cut from.
    pub(crate) fn bytes<'a>(&'a self, value: &'a [u8]) -> &'a [u8] {
        match self {
            DataShard::Inside(range) => &value[range.clone()],
            DataShard::Edge(shard) => shard,
        }
    }

    /// The shard as a data element's payload: a view of `shared`, the
    /// buffer holding `value`, if given and the shard lies inside it;
    /// otherwise the shard's own buffer (an inside shard copied once).
    pub(crate) fn payload(&self, value: &[u8], shared: Option<&Bytes>) -> Payload {
        match (self, shared) {
            (DataShard::Inside(range), Some(shared)) => Payload::view(shared, range.clone()),
            (DataShard::Inside(range), None) => Payload::from(&value[range.clone()]),
            (DataShard::Edge(shard), _) => Payload::from(shard.clone()),
        }
    }
}

/// Appends the end marker to the value, pads it with zeros to a multiple of
/// `k`, and splits it into `k` equal-length data shards.
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

/// Where the value ends in `tail`, the padded payload's last `k` bytes (or
/// all of it, if shorter): at its last non-zero byte, which must be the end
/// marker. An honest payload ends in fewer than `k` zeros, so its marker
/// always lies there.
fn marker_at(tail: &[u8]) -> Result<usize, ReassembleError> {
    match tail.iter().rposition(|&byte| byte != 0) {
        Some(at) if tail[at] == END_MARKER => Ok(at),
        _ => Err(ReassembleError::MissingEndMarker),
    }
}

/// Inverse of [`pad_and_split`]: reassembles the original value from the `k`
/// data shards, cutting it at the end marker among the payload's last `k`
/// bytes.
pub fn reassemble(shards: &[Vec<u8>]) -> Result<Vec<u8>, ReassembleError> {
    let k = shards.len();
    if k == 0 {
        return Err(ReassembleError::NoShards);
    }
    if shards.iter().any(|s| s.len() != shards[0].len()) {
        return Err(ReassembleError::RaggedShards);
    }
    let mut payload = shards.concat();
    let tail = payload.len() - k.min(payload.len());
    payload.truncate(tail + marker_at(&payload[tail..])?);
    Ok(payload)
}

/// Adds bytes `range` of the padded payload into the zeroed `out`, asking
/// `shard` for each data shard's part of it.
fn payload_range(
    shard_len: usize,
    range: Range<usize>,
    out: &mut [u8],
    shard: &mut impl FnMut(usize, Range<usize>, &mut [u8]),
) {
    let mut at = range.start;
    while at < range.end {
        let (i, col) = (at / shard_len, at % shard_len);
        let to = range.end.min((i + 1) * shard_len);
        shard(
            i,
            col..col + to - at,
            &mut out[at - range.start..to - range.start],
        );
        at = to;
    }
}

/// The value carried by `k ≤ 255` data shards of `shard_len` bytes each,
/// which `shard(i, cols, out)` computes on demand: it adds columns `cols` of
/// data shard `i` into the zeroed `out`. The payload's last `k` bytes are
/// computed first, onto the stack, to find the end marker; then each shard's
/// value bytes once, straight into the value's one buffer. No shard is
/// materialized whole. Fails exactly where [`reassemble`] fails on the same
/// shards.
pub(crate) fn value_from_shards(
    k: usize,
    shard_len: usize,
    mut shard: impl FnMut(usize, Range<usize>, &mut [u8]),
) -> Result<Bytes, ReassembleError> {
    let padded_len = shard_len * k;
    let tail_start = padded_len - k.min(padded_len);
    let mut tail = [0u8; 255];
    let tail = &mut tail[..padded_len - tail_start];
    payload_range(shard_len, tail_start..padded_len, tail, &mut shard);
    let len = tail_start + marker_at(tail)?;
    Ok(Bytes::filled(len, |value| {
        payload_range(shard_len, 0..len, value, &mut shard)
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

    /// `shards` with the padded payload's last `tail.len()` bytes replaced
    /// by `tail`, split again.
    fn with_tail(shards: &[Vec<u8>], tail: &[u8]) -> Vec<Vec<u8>> {
        let mut padded = shards.concat();
        let at = padded.len() - tail.len();
        padded[at..].copy_from_slice(tail);
        padded
            .chunks_exact(shards[0].len())
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn reassemble_rejects_truncated_header() {
        // Shards too short to hold the framing byte, or holding only zeros,
        // carry no end marker: 3 all-zero shards of 2 bytes, then 4
        // zero-length shards.
        let shards = vec![vec![0u8; 2]; 3];
        assert_eq!(reassemble(&shards), Err(ReassembleError::MissingEndMarker));
        let shards = vec![Vec::new(); 4];
        assert_eq!(reassemble(&shards), Err(ReassembleError::MissingEndMarker));
    }

    #[test]
    fn reassemble_rejects_oversized_length_header() {
        // A forged framing byte is an error, never a panic. "abc" over 2
        // shards pads to `abc ‖ 0x80`; overwrite the marker, then the byte
        // before it too, with 0xff.
        let mut shards = pad_and_split(b"abc", 2);
        assert_eq!(shards, [b"ab".to_vec(), b"c\x80".to_vec()]);
        shards[1][1] = 0xff;
        assert_eq!(reassemble(&shards), Err(ReassembleError::MissingEndMarker));
        shards[1][0] = 0xff;
        assert_eq!(reassemble(&shards), Err(ReassembleError::MissingEndMarker));
        // A marker moved earlier, behind a forged non-zero byte, is not the
        // last non-zero byte and is not taken.
        shards[1] = vec![0x80, 0xff];
        assert_eq!(reassemble(&shards), Err(ReassembleError::MissingEndMarker));
    }

    #[test]
    fn reassemble_rejects_a_missing_end_marker() {
        // 3 shards of 4 bytes: the last 3 bytes are searched.
        let shards = pad_and_split(b"ten bytes!", 3);
        assert_eq!(shards[0].len(), 4);
        assert_eq!(reassemble(&shards).unwrap(), b"ten bytes!");
        for tail in [[0, 0, 0], [0x80, 0, 0x01], [0, 0x7f, 0], [0xff, 0xff, 0xff]] {
            assert_eq!(
                reassemble(&with_tail(&shards, &tail)),
                Err(ReassembleError::MissingEndMarker),
                "tail {tail:?}"
            );
        }
    }

    #[test]
    fn only_the_last_k_bytes_are_searched_for_the_marker() {
        // An honest payload ends in fewer than k zeros, so a marker exactly
        // k bytes from the end is the furthest one accepted; one byte further
        // and the last k bytes are all zero.
        let shards = pad_and_split(&[7u8; 10], 3);
        let padded_len = shards[0].len() * 3;
        let whole = reassemble(&with_tail(&shards, &[0x80, 0, 0])).unwrap();
        assert_eq!(whole.len(), padded_len - 3);
        assert_eq!(
            reassemble(&with_tail(&shards, &[0x80, 0, 0, 0])),
            Err(ReassembleError::MissingEndMarker)
        );
        // A marker in the last byte keeps every byte before it.
        let whole = reassemble(&with_tail(&shards, &[0x80])).unwrap();
        assert_eq!(whole.len(), padded_len - 1);
        assert_eq!(whole[..10], [7u8; 10]);
    }

    #[test]
    fn shards_are_contiguous_slices_of_the_padded_value() {
        for len in [0usize, 1, 7, 8, 9, 100, 1000] {
            let value: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
            for k in [1usize, 2, 3, 5, 17] {
                let padded = pad(&value, k);
                assert_eq!(&padded[..len], &value[..]);
                assert_eq!(padded[len], END_MARKER);
                assert!(padded[len + 1..].iter().all(|&b| b == 0));
                assert!(padded.len() - len - 1 < k, "fewer than k zeros");
                let shards = pad_and_split(&value, k);
                assert_eq!(shards.concat(), padded, "len={len} k={k}");
                let shared = Bytes::from(&value[..]);
                for (i, shard) in shards.iter().enumerate() {
                    let data = DataShard::of(&value, k, i);
                    assert_eq!(data.bytes(&value), &shard[..], "len={len} k={k} i={i}");
                    assert_eq!(&data.payload(&value, None), shard, "len={len} k={k} i={i}");
                    let view = data.payload(&shared, Some(&shared));
                    assert_eq!(&view, shard, "len={len} k={k} i={i}");
                    // Only the shards holding the marker or padding are
                    // assembled; every other one is a range of the value.
                    let inside = (i + 1) * shard.len() <= len;
                    assert_eq!(matches!(data, DataShard::Inside(_)), inside);
                    assert_eq!(view.shares(&shared), inside);
                }
            }
        }
    }

    #[test]
    fn value_from_shards_matches_reassemble() {
        // Honest shards, and forged tails: a moved marker, no marker, a
        // wrong last non-zero byte, and a marker spanning shards' bounds.
        for (len, k) in [(0usize, 1usize), (10, 3), (100, 7), (5, 17), (1000, 4)] {
            let value: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let shards = pad_and_split(&value, k);
            let tails: [&[u8]; 6] = [&[], &[0], &[0x80], &[0x80, 0], &[0x80, 0x42], &[0x01]];
            for tail in tails.into_iter().filter(|t| t.len() <= shards[0].len() * k) {
                let shards = with_tail(&shards, tail);
                let computed = value_from_shards(k, shards[0].len(), |i, cols, out| {
                    for (o, &b) in out.iter_mut().zip(&shards[i][cols]) {
                        *o ^= b;
                    }
                });
                assert_eq!(
                    computed.map(|v| v.to_vec()),
                    reassemble(&shards),
                    "len={len} k={k} tail={tail:?}"
                );
            }
        }
        // No bytes at all: no marker, and no shard is asked for.
        assert_eq!(
            value_from_shards(3, 0, |_, _, _| unreachable!()),
            Err(ReassembleError::MissingEndMarker)
        );
    }

    #[test]
    fn reassemble_error_display_is_informative() {
        let msgs = [
            ReassembleError::NoShards.to_string(),
            ReassembleError::RaggedShards.to_string(),
            ReassembleError::MissingEndMarker.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[2].contains("0x80"));
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
        assert!(Payload::ptr_eq(&e.data, &f.data), "clone must be zero-copy");
    }
}
