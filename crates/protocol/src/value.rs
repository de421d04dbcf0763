//! Object values.
//!
//! The simulated network clones messages on every hop, so values are
//! [`Bytes`] — a shared immutable buffer whose clone is O(1) (an `Arc` bump,
//! no copy). A value is allocated once, when it is invoked (a write) or
//! decoded (a read: `MdsCode::decode` writes the value into its one buffer,
//! and the reader completes with that buffer as is), and every later holder
//! shares that allocation: the network messages that carry it, the client's
//! completed-operation log ([`OpRecord`](crate::OpRecord),
//! [`PendingWrite`](crate::PendingWrite)), a sharded store's ticket outcome
//! and the atomicity checker's history.
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
