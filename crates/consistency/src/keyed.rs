//! Per-key history projection for multi-object stores.
//!
//! Atomic registers compose: a key-value store built from one register per
//! key is atomic iff every per-key history is atomic (each operation touches
//! exactly one register, so the per-key serializations interleave freely).
//! This module gives the store layer the checker-side counterpart of that
//! argument: a [`KeyedHistory`] collects operations labeled with the key they
//! touched, and [`KeyedHistory::check_each_key`] projects it onto each key's
//! [`History`] in one pass and runs the tag-based atomicity checker over
//! every projection independently.
//!
//! Timestamps are only compared *within* a projection, so operations on
//! different keys may carry clocks from different simulations (the sharded
//! store runs one deterministic simulation per register).

use crate::checker::Violation;
use crate::history::{History, Kind, Version};
use std::collections::HashMap;
use std::sync::Arc;

/// One completed (or pending-closed) operation labeled with the key it
/// touched.
///
/// Derives `Eq` so whole histories can be compared field-for-field — the
/// store's runtime-conformance tests assert that its serial and parallel
/// drains produce **bit-identical** per-key histories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyedOp {
    /// The key the operation addressed. A store shares one allocation per
    /// key across all of that key's operations.
    pub key: Arc<[u8]>,
    /// Store-wide unique client identifier. Callers composing histories from
    /// several simulations must namespace per-simulation process ids into
    /// this field themselves.
    pub client: u64,
    /// Read or write.
    pub kind: Kind,
    /// Invocation time (comparable only to other ops on the same key).
    pub invoked: u64,
    /// Response time (`u64::MAX` for writes closed under pending).
    pub responded: u64,
    /// The value written or returned, shared with the operation record it
    /// came from.
    pub value: Arc<[u8]>,
    /// The version the protocol associated with the operation.
    pub version: Version,
}

/// A multi-key operation history, checked one key's projection at a time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyedHistory {
    initial_value: Vec<u8>,
    ops: Vec<KeyedOp>,
}

impl KeyedHistory {
    /// Creates an empty keyed history. `initial_value` is the initial value
    /// of *every* key's register (stores built on fresh registers use the
    /// empty value).
    pub fn new(initial_value: Vec<u8>) -> Self {
        KeyedHistory {
            initial_value,
            ops: Vec::new(),
        }
    }

    /// Adds one labeled operation.
    pub fn push(&mut self, op: KeyedOp) {
        self.ops.push(op);
    }

    /// All labeled operations, in insertion order.
    pub fn ops(&self) -> &[KeyedOp] {
        &self.ops
    }

    /// Number of labeled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Every key's single-register history, in first-appearance order of
    /// the keys, built in one pass over the operations. Values and keys are
    /// shared with this history, not copied.
    fn projections(&self) -> Vec<(Arc<[u8]>, History)> {
        let mut slot: HashMap<&[u8], usize> = HashMap::new();
        let mut projections: Vec<(Arc<[u8]>, History)> = Vec::new();
        for op in &self.ops {
            let index = *slot.entry(&op.key).or_insert_with(|| {
                projections.push((op.key.clone(), History::new(self.initial_value.clone())));
                projections.len() - 1
            });
            projections[index].1.push(
                op.client,
                op.kind,
                op.invoked,
                op.responded,
                op.value.clone(),
                op.version,
            );
        }
        projections
    }

    /// Checks every key's projected history for atomicity, returning the
    /// first offending key (in first-appearance order) and its violation.
    pub fn check_each_key(&self) -> Result<(), KeyViolation> {
        for (key, history) in self.projections() {
            if let Err(violation) = history.check_atomicity() {
                return Err(KeyViolation {
                    key: key.to_vec(),
                    violation,
                });
            }
        }
        Ok(())
    }
}

/// A per-key atomicity violation: which key failed, and how.
#[derive(Clone, Debug)]
pub struct KeyViolation {
    /// The offending key.
    pub key: Vec<u8>,
    /// The violation the single-register checker reported for the key's
    /// projection.
    pub violation: Violation,
}

impl std::fmt::Display for KeyViolation {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            out,
            "key {}: {}",
            String::from_utf8_lossy(&self.key),
            self.violation
        )
    }
}

impl std::error::Error for KeyViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(key: &[u8], client: u64, kind: Kind, t: (u64, u64), v: &[u8], ver: Version) -> KeyedOp {
        KeyedOp {
            key: key.into(),
            client,
            kind,
            invoked: t.0,
            responded: t.1,
            value: v.into(),
            version: ver,
        }
    }

    #[test]
    fn projection_separates_keys() {
        let mut h = KeyedHistory::new(Vec::new());
        h.push(op(b"a", 1, Kind::Write, (0, 10), b"x", Version::new(1, 1)));
        h.push(op(b"b", 2, Kind::Write, (0, 10), b"y", Version::new(1, 2)));
        h.push(op(b"a", 3, Kind::Read, (12, 20), b"x", Version::new(1, 1)));
        assert_eq!(h.len(), 3);
        let projections = h.projections();
        let keys: Vec<&[u8]> = projections.iter().map(|(key, _)| &key[..]).collect();
        assert_eq!(keys, [b"a".as_slice(), b"b"], "first-appearance order");
        let lens: Vec<usize> = projections
            .iter()
            .map(|(_, history)| history.len())
            .collect();
        assert_eq!(lens, [2, 1]);
        assert!(KeyedHistory::default().projections().is_empty());
        assert!(h.check_each_key().is_ok());
    }

    #[test]
    fn per_key_check_catches_the_offending_key_only() {
        let mut h = KeyedHistory::new(Vec::new());
        // Key "good" is atomic.
        h.push(op(
            b"good",
            1,
            Kind::Write,
            (0, 10),
            b"x",
            Version::new(1, 1),
        ));
        h.push(op(
            b"good",
            2,
            Kind::Read,
            (12, 20),
            b"x",
            Version::new(1, 1),
        ));
        // Key "bad": a read strictly after a write returns the older version.
        h.push(op(
            b"bad",
            3,
            Kind::Write,
            (0, 10),
            b"new",
            Version::new(1, 3),
        ));
        h.push(op(b"bad", 4, Kind::Read, (12, 20), b"", Version::INITIAL));
        let err = h.check_each_key().unwrap_err();
        assert_eq!(err.key, b"bad".to_vec());
        assert!(err.to_string().contains("bad"), "{err}");
    }

    #[test]
    fn the_first_failing_key_to_appear_is_reported() {
        // Both keys fail and "late" fails earlier in the history, but
        // "early" appeared first.
        let mut h = KeyedHistory::new(Vec::new());
        let stale_read =
            |key: &[u8], t: u64| op(key, 9, Kind::Read, (t, t + 1), b"", Version::INITIAL);
        h.push(op(
            b"early",
            1,
            Kind::Write,
            (0, 10),
            b"x",
            Version::new(1, 1),
        ));
        h.push(op(
            b"late",
            2,
            Kind::Write,
            (0, 10),
            b"y",
            Version::new(1, 2),
        ));
        h.push(stale_read(b"late", 20));
        h.push(stale_read(b"early", 30));
        assert_eq!(h.check_each_key().unwrap_err().key, b"early".to_vec());
    }

    #[test]
    fn clocks_do_not_leak_across_keys() {
        // Two keys with wildly different clock bases (as produced by
        // independent simulations) both check out, because projections never
        // compare timestamps across keys.
        let mut h = KeyedHistory::new(Vec::new());
        h.push(op(b"a", 1, Kind::Write, (0, 5), b"x", Version::new(1, 1)));
        h.push(op(b"a", 2, Kind::Read, (6, 9), b"x", Version::new(1, 1)));
        h.push(op(
            b"b",
            3,
            Kind::Write,
            (1_000_000, 1_000_010),
            b"y",
            Version::new(1, 3),
        ));
        h.push(op(
            b"b",
            4,
            Kind::Read,
            (1_000_020, 1_000_030),
            b"y",
            Version::new(1, 3),
        ));
        assert!(h.check_each_key().is_ok());
    }
}
