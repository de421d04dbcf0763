//! Object values.
//!
//! The simulated network clones messages on every hop, so values are
//! [`Bytes`] — a shared immutable buffer whose clone is O(1) (an `Arc` bump,
//! no copy). A value is allocated once, when a write is invoked, and every
//! later holder shares that allocation: the network messages that carry it,
//! the client's completed-operation log ([`OpRecord`](crate::OpRecord),
//! [`PendingWrite`](crate::PendingWrite)), a sharded store's ticket outcome
//! and the atomicity checker's history — a read's too. A decoding read
//! writes the value into a buffer of its own (`MdsCode::decode` fills one
//! buffer, and the reader completes with it as is); when the run that
//! completed the read ends, the cluster harness hands the read's record the
//! buffer of the write whose tag it returned, if the bytes are equal, and
//! the decoded copy is freed.
//!
//! A write's coded elements share its buffer too. The writer's encode
//! (`VandermondeCode::encode_shared`, in SODA's MD-VALUE dispersal and in
//! CAS's pre-write) makes each data element whose shard lies wholly inside
//! the value a view of the value's allocation rather than a copy, so a
//! server storing it keeps no bytes beyond the value the writer's log
//! already holds. Element 0 (it holds the 8-byte length header), a last
//! data element holding padding, and the parity elements own their
//! buffers. A repair's re-encode of a *decoded* value copies, since a view
//! would pin the whole decoded buffer for a `1/k` part of it.
//!
//! Cost accounting still reports the full byte length of the value for every
//! message that carries it, matching the paper's model where sending a value
//! costs its size regardless of any sharing tricks inside the simulator.

pub use soda_rs_code::Bytes;

/// A cheaply clonable object value.
pub type Value = Bytes;

/// Wraps raw bytes as a [`Value`].
pub fn value_from(bytes: Vec<u8>) -> Value {
    Bytes::from(bytes)
}

/// Byte length of a value.
pub fn value_len(value: &Value) -> usize {
    value.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_and_length() {
        let v = value_from(vec![1, 2, 3, 4]);
        assert_eq!(value_len(&v), 4);
        let v2 = v.clone();
        assert!(Bytes::ptr_eq(&v, &v2), "clone shares the allocation");
    }

    #[test]
    fn empty_value() {
        let v = value_from(Vec::new());
        assert_eq!(value_len(&v), 0);
    }
}
