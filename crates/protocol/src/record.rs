//! Records of client operations, shared by every protocol.
//!
//! Clients keep an append-only log of the operations they completed, with
//! invocation and response times and the `(tag, value)` pair the paper
//! associates with each operation for the atomicity argument (Section V-A).
//! Every protocol's clients append this one record type, so harnesses,
//! experiments and the atomicity checker consume histories without knowing
//! which algorithm produced them, and without a conversion step.

use crate::{Tag, Value};
use soda_simnet::SimTime;

/// Whether an operation was a read or a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// A write operation.
    Write,
    /// A read operation.
    Read,
}

impl OpKind {
    /// True for reads.
    pub fn is_read(&self) -> bool {
        matches!(self, OpKind::Read)
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::Write)
    }
}

/// A completed client operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Identifier of the invoking client (its simulated process id).
    pub client: u64,
    /// Per-client operation sequence number (starts at 1).
    pub seq: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Simulated time of the invocation step.
    pub invoked_at: SimTime,
    /// Simulated time of the response step.
    pub completed_at: SimTime,
    /// The tag associated with the operation (`tag(π)` in the paper).
    pub tag: Tag,
    /// The value written (for writes) or returned (for reads): the
    /// allocation the write's invocation carried, shared rather than copied.
    /// A read holds that write's allocation too: the cluster harness swaps
    /// a decoded copy for it when the read's run ends, and a read whose
    /// bytes differ from its tag's write keeps the buffer it returned.
    pub value: Option<Value>,
}

impl OpRecord {
    /// Operation latency in ticks.
    pub fn latency(&self) -> u64 {
        self.completed_at.since(self.invoked_at)
    }
}

/// A write that was invoked but has not (yet) completed — because the
/// execution ended first, the writer crashed mid-operation, or the network
/// adversary starved it of responses.
///
/// Atomicity is a property of *completed* operations, but a completed read
/// may legitimately return the value of an uncompleted write (the write then
/// linearizes at some point after its invocation even though no response
/// ever happened), so checking a faulty execution needs the history *closed*
/// under pending writes.
#[derive(Clone, Debug)]
pub struct PendingWrite {
    /// Identifier of the invoking client (its simulated process id).
    pub client: u64,
    /// Per-client operation sequence number (starts at 1).
    pub seq: u64,
    /// Simulated time of the invocation step.
    pub invoked_at: SimTime,
    /// The tag the protocol assigned, once known. `None` while the write is
    /// still in its query phase — no server has seen the value yet, so no
    /// read can have observed it.
    pub tag: Option<Tag>,
    /// The value being written (shared with the writer's invocation).
    pub value: Value,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(OpKind::Read.is_read());
        assert!(!OpKind::Read.is_write());
        assert!(OpKind::Write.is_write());
    }

    #[test]
    fn latency_is_response_minus_invocation() {
        let rec = OpRecord {
            client: 1,
            seq: 1,
            kind: OpKind::Write,
            invoked_at: SimTime::from_ticks(10),
            completed_at: SimTime::from_ticks(35),
            tag: Tag::INITIAL,
            value: None,
        };
        assert_eq!(rec.latency(), 25);
    }
}
