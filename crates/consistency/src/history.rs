//! Operation histories.

use std::sync::Arc;

/// A protocol-independent version identifier: `(z, writer)` pairs exactly like
/// the paper's tags, but without depending on the protocol crates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Version {
    /// Version number.
    pub z: u64,
    /// Tie-breaking writer identifier.
    pub writer: u64,
}

impl Version {
    /// The initial version `t0`.
    pub const INITIAL: Version = Version { z: 0, writer: 0 };

    /// Creates a version.
    pub fn new(z: u64, writer: u64) -> Self {
        Version { z, writer }
    }
}

/// Identifier of an operation within a history.
pub type OpId = usize;

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A write operation.
    Write,
    /// A read operation.
    Read,
}

/// One completed operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// Identifier unique within the history.
    pub id: OpId,
    /// The client that performed the operation.
    pub client: u64,
    /// Read or write.
    pub kind: Kind,
    /// Invocation time.
    pub invoked: u64,
    /// Response time.
    pub responded: u64,
    /// The value written (for writes) or returned (for reads). Shared, not
    /// copied, with whatever the history was built from.
    pub value: Arc<[u8]>,
    /// The version (tag) the protocol associated with the operation.
    pub version: Version,
}

impl Op {
    /// Whether this operation finished strictly before `other` was invoked.
    pub fn precedes(&self, other: &Op) -> bool {
        self.responded < other.invoked
    }
}

/// A history of completed operations on a single register, plus the initial
/// value of that register.
#[derive(Clone, Debug, Default)]
pub struct History {
    initial_value: Vec<u8>,
    ops: Vec<Op>,
}

impl History {
    /// Creates an empty history with the given initial register value.
    pub fn new(initial_value: Vec<u8>) -> Self {
        History {
            initial_value,
            ops: Vec::new(),
        }
    }

    /// Adds a completed operation and returns its id. An `Arc<[u8]>` value
    /// is kept as is, so a history shares the values it is built from.
    pub fn push(
        &mut self,
        client: u64,
        kind: Kind,
        invoked: u64,
        responded: u64,
        value: impl Into<Arc<[u8]>>,
        version: Version,
    ) -> OpId {
        let id = self.ops.len();
        self.ops.push(Op {
            id,
            client,
            kind,
            invoked,
            responded,
            value: value.into(),
            version,
        });
        id
    }

    /// The operations, in insertion order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The register's initial value.
    pub fn initial_value(&self) -> &[u8] {
        &self.initial_value
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Checks well-formedness: each client's operations must not overlap
    /// (a client invokes a new operation only after the previous one
    /// responded). Returns the ids of the first offending pair if any.
    pub fn check_well_formed(&self) -> Result<(), (OpId, OpId)> {
        let mut by_client: std::collections::BTreeMap<u64, Vec<&Op>> = Default::default();
        for op in &self.ops {
            by_client.entry(op.client).or_default().push(op);
        }
        for ops in by_client.values_mut() {
            ops.sort_by_key(|op| op.invoked);
            for pair in ops.windows(2) {
                if pair[1].invoked < pair[0].responded {
                    return Err((pair[0].id, pair[1].id));
                }
            }
        }
        Ok(())
    }

    /// The number of write operations that are concurrent with the given read
    /// (neither precedes the other) — the per-read `δw` of Theorem 5.6.
    pub fn concurrent_writes(&self, read_id: OpId) -> usize {
        let read = &self.ops[read_id];
        self.ops
            .iter()
            .filter(|op| op.kind == Kind::Write)
            .filter(|w| !w.precedes(read) && !read.precedes(w))
            .count()
    }

    /// Checks the tag-based atomicity conditions P1/P2/P3 of Lemma 2.1 (the
    /// ordering the SODA proof uses). Returns the first violation found.
    pub fn check_atomicity(&self) -> Result<(), crate::Violation> {
        crate::checker::check_atomicity(self)
    }

    /// Brute-force linearizability check (exponential; use only for small
    /// histories). Ignores versions entirely and searches for an explicit
    /// serialization consistent with real time and the read values.
    pub fn check_linearizable_brute_force(&self) -> bool {
        crate::checker::check_linearizable(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_history() -> History {
        let mut h = History::new(b"init".to_vec());
        h.push(1, Kind::Write, 0, 10, b"a".to_vec(), Version::new(1, 1));
        h.push(2, Kind::Read, 12, 20, b"a".to_vec(), Version::new(1, 1));
        h
    }

    #[test]
    fn push_and_accessors() {
        let h = quick_history();
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert_eq!(h.initial_value(), b"init");
        assert_eq!(h.ops()[0].kind, Kind::Write);
        assert!(h.ops()[0].precedes(&h.ops()[1]));
        assert!(!h.ops()[1].precedes(&h.ops()[0]));
    }

    #[test]
    fn well_formedness_detects_overlapping_client_ops() {
        let mut h = History::new(Vec::new());
        h.push(1, Kind::Write, 0, 10, vec![1], Version::new(1, 1));
        h.push(1, Kind::Write, 5, 15, vec![2], Version::new(2, 1));
        assert_eq!(h.check_well_formed(), Err((0, 1)));

        let h = quick_history();
        assert!(h.check_well_formed().is_ok());
    }

    #[test]
    fn concurrent_write_count() {
        let mut h = History::new(Vec::new());
        let _w1 = h.push(1, Kind::Write, 0, 10, vec![1], Version::new(1, 1));
        let _w2 = h.push(2, Kind::Write, 15, 30, vec![2], Version::new(2, 2));
        let r = h.push(3, Kind::Read, 12, 25, vec![2], Version::new(2, 2));
        // w1 finished before the read started; w2 overlaps it.
        assert_eq!(h.concurrent_writes(r), 1);
    }

    #[test]
    fn versions_order_like_tags() {
        assert!(Version::new(2, 1) > Version::new(1, 9));
        assert!(Version::new(1, 2) > Version::new(1, 1));
        assert_eq!(Version::INITIAL, Version::new(0, 0));
    }
}
