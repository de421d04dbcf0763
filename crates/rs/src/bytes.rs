//! A cheaply-clonable immutable byte buffer.
//!
//! Coded-element payloads flow through the simulated network (which clones
//! every message on duplication and relay), through per-server storage, and
//! through reader-side collection maps. With `Vec<u8>` payloads each of those
//! steps memcpy'd the element bytes; [`Bytes`] wraps them in an `Arc<[u8]>`
//! so a clone is one atomic increment and the bytes are shared — a single
//! allocation with no extra indirection (unlike `Arc<Vec<u8>>`, the length
//! lives in the fat pointer, not behind a second pointer chase).
//!
//! Whole object values are [`Bytes`] too, and one value is one allocation
//! for its whole life: the writer's invocation, every network message that
//! carries it, the client's completed-operation log, the store's ticket
//! outcome and the checker's history all hold the same buffer. A decoded
//! value is one allocation from the start: the decoder writes each data
//! shard's bytes straight into it (and the encoder each coded element it
//! computes), so no `Vec` is built and then copied into an `Arc`. The
//! checker crate depends on no protocol crate, so it stores plain
//! `Arc<[u8]>`, and `Arc::<[u8]>::from(bytes)` hands the buffer over without
//! a copy.
//!
//! A coded element's payload is a [`Payload`]: a [`Bytes`] and the part of
//! it the element is. An element computed into a buffer of its own is the
//! whole buffer. A systematic data element that
//! [`VandermondeCode::encode_shared`] encodes from a value's buffer is a
//! view of that buffer when its data shard lies in the value byte for byte,
//! so it costs no bytes beyond the value its writer already holds. Values
//! stay whole 16-byte [`Bytes`]: only the element payload carries the
//! offset and length, so a value handed to the checker is still the `Arc`
//! itself.
//!
//! A read that returned a write's value shares that write's buffer when a
//! view is among the elements it decoded: [`MdsCode::decode`] compares the
//! bytes it rebuilt with the buffer a view is part of, and on a match
//! returns that buffer and frees its copy. A read keeps an equal copy at
//! `k = 1`, where the one data element carries the end marker and so is
//! never a view; when no interior data element is among its elements; and
//! when the ones it has were repaired or corrupted, since a re-encode of a
//! decoded value and [`Payload::make_mut`] both copy.
//!
//! [`VandermondeCode::encode_shared`]: crate::VandermondeCode::encode_shared
//! [`MdsCode::decode`]: crate::MdsCode::decode
//!
//! Cost accounting is unaffected: every message still reports the full byte
//! length of the payload it carries, matching the paper's model where sending
//! a value costs its size regardless of sharing tricks inside the simulator.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply-clonable byte buffer (`Arc<[u8]>` with ergonomics).
#[derive(Clone, PartialOrd, Ord)]
pub struct Bytes(Arc<[u8]>);

// Manual impl alongside the manual `PartialEq`: both look only at the byte
// contents, so equal buffers hash equally whether or not they share an
// allocation.
impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Bytes {
    /// An empty buffer (no allocation is shared, but creation is cheap).
    pub fn new() -> Self {
        Bytes(Arc::from(&[][..]))
    }

    /// The bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// A `len`-byte buffer written in place by `fill`, which receives it
    /// zeroed: one allocation, no copy. The encoder computes each coded
    /// element this way and the decoder each value.
    pub(crate) fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Arc::get_mut(&mut buf).expect("a fresh buffer is unique"));
        Bytes(buf)
    }

    /// Copies the bytes into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Mutable access via copy-on-write: if this buffer is shared, the bytes
    /// are copied into a fresh unique allocation first. Used by fault
    /// injection (byzantine senders) and tests; the protocol hot paths never
    /// mutate payloads.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::from(&self.0[..]);
        }
        Arc::get_mut(&mut self.0).expect("unique after copy-on-write")
    }

    /// True if two buffers share the same allocation (zero-copy check).
    pub fn ptr_eq(a: &Bytes, b: &Bytes) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

/// Zero-copy: the `Arc` is the buffer itself.
impl From<Bytes> for Arc<[u8]> {
    fn from(bytes: Bytes) -> Self {
        bytes.0
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes(Arc::from(v))
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Bytes(Arc::from(&v[..]))
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Bytes(Arc::from(&v[..]))
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes(iter.into_iter().collect())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.0[..] == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == &other.0[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.0[..] == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.0.len())
    }
}

/// A coded element's payload: `len` bytes at `start` of a shared buffer.
/// An element the code computed into a buffer of its own is that whole
/// buffer; a data element encoded from a value's buffer may be a view of
/// the part of the value its data shard is. A clone is one `Arc` bump
/// either way, and equality, hashing and [`Deref`] see only the viewed
/// bytes.
#[derive(Clone)]
pub struct Payload {
    buf: Bytes,
    start: u32,
    len: u32,
}

impl Payload {
    /// The bytes `range` of `buf`, without a copy. A range past `u32::MAX`
    /// is copied out instead.
    pub(crate) fn view(buf: &Bytes, range: std::ops::Range<usize>) -> Self {
        match (u32::try_from(range.start), u32::try_from(range.len())) {
            (Ok(start), Ok(len)) if range.end <= buf.len() => Payload {
                buf: buf.clone(),
                start,
                len,
            },
            _ => Payload::from(&buf[range]),
        }
    }

    /// True if the payload is a part of a larger buffer (a data element
    /// left in a longer value) rather than a whole buffer.
    pub fn is_view(&self) -> bool {
        self.len as usize != self.buf.len()
    }

    /// The buffer a view is part of, or `None` for a whole buffer. A decode
    /// looks here for the value its elements were cut from.
    pub(crate) fn viewed(&self) -> Option<&Bytes> {
        self.is_view().then_some(&self.buf)
    }

    /// True if the payload's bytes lie in `buf`'s allocation.
    pub fn shares(&self, buf: &Bytes) -> bool {
        Bytes::ptr_eq(&self.buf, buf)
    }

    /// True if two payloads are the same bytes of the same allocation.
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Bytes::ptr_eq(&a.buf, &b.buf) && (a.start, a.len) == (b.start, b.len)
    }

    /// Mutable access via copy-on-write: a view is first copied into a
    /// buffer of its own, so the value it views never changes; a whole
    /// buffer follows [`Bytes::make_mut`]. Used by fault injection
    /// (byzantine senders) and tests; the protocol hot paths never mutate
    /// payloads.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.is_view() {
            *self = Payload::from(&self[..]);
        }
        self.buf.make_mut()
    }
}

impl Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }
}

impl From<Bytes> for Payload {
    /// The whole buffer. Panics on a buffer of 4 GiB or more.
    fn from(buf: Bytes) -> Self {
        let len = u32::try_from(buf.len()).expect("a coded element is under 4 GiB");
        Payload { buf, start: 0, len }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from(Bytes::from(v))
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from(Bytes::from(v))
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        Payload::ptr_eq(self, other) || self[..] == other[..]
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(Bytes::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        a.make_mut()[0] = 9;
        assert_eq!(a, vec![9u8, 2, 3]);
        assert_eq!(b, vec![1u8, 2, 3], "shared copy untouched");
        assert!(!Bytes::ptr_eq(&a, &b));
        // Unique buffer: mutation happens in place, no new allocation.
        let before = a.as_slice().as_ptr();
        a.make_mut()[1] = 8;
        assert_eq!(a.as_slice().as_ptr(), before);
        assert_eq!(a, vec![9u8, 8, 3]);
    }

    #[test]
    fn equality_and_conversions() {
        let a = Bytes::from(vec![5u8, 6]);
        assert_eq!(a, [5u8, 6]);
        assert_eq!(a, vec![5u8, 6]);
        assert_eq!(a[..], [5u8, 6][..]);
        assert_eq!(a.to_vec(), vec![5, 6]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().is_empty());
        let c: Bytes = (0u8..4).collect();
        assert_eq!(c, vec![0u8, 1, 2, 3]);
        assert_eq!(Bytes::from(&[7u8, 8][..]), Bytes::from([7u8, 8]));
        assert!(format!("{a:?}").contains("2 bytes"));
    }

    #[test]
    fn filled_writes_into_a_zeroed_buffer() {
        let b = Bytes::filled(5, |buf| {
            assert_eq!(buf, [0u8; 5]);
            buf[1] = 7;
        });
        assert_eq!(b, [0u8, 7, 0, 0, 0]);
        assert!(Bytes::filled(0, |buf| assert!(buf.is_empty())).is_empty());
    }

    #[test]
    fn a_view_reads_its_range_and_copies_on_write() {
        let value = Bytes::from((0u8..16).collect::<Vec<_>>());
        let mut view = Payload::view(&value, 4..10);
        assert_eq!(view[..], [4u8, 5, 6, 7, 8, 9]);
        assert!(view.is_view() && view.shares(&value));
        assert_eq!(view, Payload::from(vec![4u8, 5, 6, 7, 8, 9]));
        assert!(Payload::ptr_eq(&view, &view.clone()));
        view.make_mut()[0] = 99;
        assert_eq!(view[..], [99u8, 5, 6, 7, 8, 9]);
        assert!(!view.is_view() && !view.shares(&value));
        assert_eq!(value[4], 4, "the viewed value is unchanged");
        let whole = Payload::view(&value, 0..16);
        assert!(!whole.is_view() && whole.shares(&value));
    }

    #[test]
    fn conversion_to_arc_shares_the_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let arc: Arc<[u8]> = a.clone().into();
        assert_eq!(arc.as_ptr(), a.as_slice().as_ptr());
        assert_eq!(arc[..], a[..]);
    }
}
