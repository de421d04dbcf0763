//! The client half every protocol shares.
//!
//! The paper's clients are well-formed: one operation at a time, so an
//! invocation that arrives while one is in flight waits. SODA's writer and
//! reader and the ABD and CAS clients differ only in their quorum phases;
//! the queue, the sequence numbers, the operation in flight and the log of
//! completed operations are the same, and live here once.

use crate::{OpKind, OpRecord, PendingWrite, Tag, Value};
use soda_simnet::{ProcessId, SimTime};
use std::collections::VecDeque;

/// An operation a client was asked to perform.
#[derive(Clone, Debug)]
pub enum Invocation {
    /// Write this value.
    Write(Value),
    /// Read the register.
    Read,
}

#[derive(Debug)]
struct InFlight {
    kind: OpKind,
    /// The value being written; `None` for a read.
    value: Option<Value>,
    invoked_at: SimTime,
    tag: Option<Tag>,
}

/// One client's operations: the invocations not started yet, the one in
/// flight, and the append-only log of those that completed. The client runs
/// its phases between [`start_next`](Self::start_next) and
/// [`complete`](Self::complete).
#[derive(Debug)]
pub struct OpQueue {
    client: u64,
    pending: VecDeque<Invocation>,
    /// Sequence number of the most recently started operation.
    seq: u64,
    current: Option<InFlight>,
    completed: Vec<OpRecord>,
}

impl OpQueue {
    /// The queue of client process `client`, with nothing invoked yet.
    pub fn new(client: ProcessId) -> Self {
        OpQueue {
            client: u64::from(client.0),
            pending: VecDeque::new(),
            seq: 0,
            current: None,
            completed: Vec::new(),
        }
    }

    /// Queues an invocation behind those not started yet.
    pub fn push(&mut self, op: Invocation) {
        self.pending.push_back(op);
    }

    /// Starts the oldest queued invocation at `now` if no operation is in
    /// flight, and returns its sequence number (the first is 1) and kind. A
    /// write's value stays here, for [`value`](Self::value).
    pub fn start_next(&mut self, now: SimTime) -> Option<(u64, OpKind)> {
        if self.current.is_some() {
            return None;
        }
        let (kind, value) = match self.pending.pop_front()? {
            Invocation::Write(value) => (OpKind::Write, Some(value)),
            Invocation::Read => (OpKind::Read, None),
        };
        self.seq += 1;
        self.current = Some(InFlight {
            kind,
            value,
            invoked_at: now,
            tag: None,
        });
        Some((self.seq, kind))
    }

    /// Records the tag the protocol chose for the operation in flight.
    /// Panics if no operation is in flight.
    pub fn set_tag(&mut self, tag: Tag) {
        self.current.as_mut().expect("no operation in flight").tag = Some(tag);
    }

    /// Completes the operation in flight at `now` with `tag` and appends its
    /// record. `returned` is the value a read returns; a write passes `None`
    /// and its record keeps the value it wrote, without a copy. A read's
    /// record keeps the buffer its decode returned: the write's own when a
    /// view of it was among the decoded elements, a copy otherwise.
    /// Panics if no operation is in flight.
    pub fn complete(&mut self, now: SimTime, tag: Tag, returned: Option<Value>) {
        let op = self.current.take().expect("no operation in flight");
        self.completed.push(OpRecord {
            client: self.client,
            seq: self.seq,
            kind: op.kind,
            invoked_at: op.invoked_at,
            completed_at: now,
            tag,
            value: returned.or(op.value),
        });
    }

    /// Sequence number of the most recently started operation (0 before the
    /// first).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Tag of the operation in flight, once set.
    pub fn tag(&self) -> Option<Tag> {
        self.current.as_ref()?.tag
    }

    /// The value the write in flight carries.
    pub fn value(&self) -> Option<&Value> {
        self.current.as_ref()?.value.as_ref()
    }

    /// Invocations waiting behind the operation in flight.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Completed operations, in completion (and `seq`) order.
    pub fn completed(&self) -> &[OpRecord] {
        &self.completed
    }

    /// The operation in flight if it is a write. Its tag is `None` until the
    /// protocol chose one: before that no server has seen the value, so no
    /// read can have observed it. Reads and queued invocations are not
    /// reported: they have had no effect yet.
    pub fn in_flight_write(&self) -> Option<PendingWrite> {
        let op = self.current.as_ref()?;
        Some(PendingWrite {
            client: self.client,
            seq: self.seq,
            invoked_at: op.invoked_at,
            tag: op.tag,
            value: op.value.clone()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_from;

    #[test]
    fn one_operation_at_a_time_and_only_a_started_write_is_pending() {
        let (me, t) = (ProcessId(7), SimTime::from_ticks);
        let mut ops = OpQueue::new(me);
        ops.push(Invocation::Read);
        let written = value_from(b"v".to_vec());
        ops.push(Invocation::Write(written.clone()));
        assert_eq!(ops.start_next(t(1)), Some((1, OpKind::Read)));
        assert_eq!((ops.start_next(t(2)), ops.queued()), (None, 1), "busy");
        assert!(ops.in_flight_write().is_none(), "reads and queued writes");
        ops.complete(t(4), Tag::INITIAL, Some(value_from(b"v0".to_vec())));

        assert_eq!(ops.start_next(t(5)), Some((2, OpKind::Write)));
        let pending = ops.in_flight_write().unwrap();
        assert_eq!((pending.client, pending.seq, pending.tag), (7, 2, None));
        assert!(Value::ptr_eq(&pending.value, &written), "no copy");
        ops.set_tag(Tag::new(1, me));
        assert_eq!(ops.in_flight_write().unwrap().tag, Some(Tag::new(1, me)));
        ops.complete(t(9), Tag::new(1, me), None);

        let values: Vec<_> = ops.completed().iter().map(|op| op.value.clone()).collect();
        assert_eq!(
            values,
            [Some(value_from(b"v0".to_vec())), Some(written.clone())]
        );
        assert!(
            Value::ptr_eq(values[1].as_ref().unwrap(), &written),
            "no copy"
        );
        assert_eq!(ops.completed()[1].latency(), 4);
        assert!(ops.in_flight_write().is_none() && ops.start_next(t(9)).is_none());
    }
}
