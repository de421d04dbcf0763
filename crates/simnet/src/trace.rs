//! Message accounting.
//!
//! The paper's cost model (Section II-h) counts, for communication, the bytes
//! of object-value data carried in messages and, for storage, the bytes of
//! coded elements held by servers; metadata is free. A simulation's [`Stats`]
//! collect the communication side of this: every send is recorded with its
//! data-byte count (as reported by [`crate::Message::data_bytes`]), aggregated
//! globally and per process. A window's cost is a counter's difference
//! across it.

use crate::process::ProcessId;

/// Per-process message counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Messages sent by this process.
    pub messages_sent: u64,
    /// Messages delivered to this process.
    pub messages_received: u64,
    /// Object-value data bytes sent by this process.
    pub data_bytes_sent: u64,
    /// Object-value data bytes delivered to this process.
    pub data_bytes_received: u64,
}

/// Aggregate message counters for a whole execution (or a window of it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped because the destination crashed, or lost by the
    /// network adversary (see [`Stats::messages_lost`] for the latter alone).
    pub messages_dropped: u64,
    /// Messages dropped by the network adversary
    /// ([`crate::NetFaultPlan`] drop faults). Also counted in
    /// [`Stats::messages_dropped`].
    pub messages_lost: u64,
    /// Messages cut by a scheduled isolation
    /// ([`crate::NetFaultPlan::with_isolation`]). Deterministic drops,
    /// counted separately from the probabilistic [`Stats::messages_lost`];
    /// also counted in [`Stats::messages_dropped`].
    pub messages_partitioned: u64,
    /// Extra deliveries created by adversarial duplication. Duplicates are
    /// channel artifacts: they are *not* counted in [`Stats::messages_sent`]
    /// or [`Stats::data_bytes_sent`] (the protocol's communication cost),
    /// only here and in the delivery-side counters.
    pub messages_duplicated: u64,
    /// Messages whose payload the byzantine corruption hook mutated.
    pub messages_corrupted: u64,
    /// Total object-value data bytes sent (the paper's communication cost,
    /// un-normalized).
    pub data_bytes_sent: u64,
    /// Messages that carried no object-value data (metadata-only).
    pub metadata_messages: u64,
    /// Per-process counters, indexed by process id.
    pub per_process: Vec<ProcessStats>,
}

impl Stats {
    fn ensure_process(&mut self, id: ProcessId) -> Option<&mut ProcessStats> {
        if id == ProcessId::ENV {
            return None;
        }
        let idx = id.index();
        if self.per_process.len() <= idx {
            self.per_process.resize(idx + 1, ProcessStats::default());
        }
        Some(&mut self.per_process[idx])
    }

    /// Records a message send (called by the simulation at send time);
    /// `dropped` says the message is already known to be undeliverable.
    pub(crate) fn record_send(&mut self, from: ProcessId, data_bytes: usize, dropped: bool) {
        self.messages_sent += 1;
        self.data_bytes_sent += data_bytes as u64;
        if data_bytes == 0 {
            self.metadata_messages += 1;
        }
        if dropped {
            self.messages_dropped += 1;
        }
        if let Some(p) = self.ensure_process(from) {
            p.messages_sent += 1;
            p.data_bytes_sent += data_bytes as u64;
        }
    }

    /// Records a message delivery (called by the simulation at delivery time).
    pub(crate) fn record_delivery(&mut self, to: ProcessId, data_bytes: usize) {
        self.messages_delivered += 1;
        if let Some(p) = self.ensure_process(to) {
            p.messages_received += 1;
            p.data_bytes_received += data_bytes as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_per_process_counters() {
        let mut s = Stats::default();
        s.record_send(ProcessId(0), 100, false);
        s.record_send(ProcessId(1), 0, false);
        s.record_delivery(ProcessId(1), 100);
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.data_bytes_sent, 100);
        assert_eq!(s.metadata_messages, 1);
        assert_eq!(s.per_process[0].messages_sent, 1);
        assert_eq!(s.per_process[0].data_bytes_sent, 100);
        assert_eq!(s.per_process[1].messages_received, 1);
        assert_eq!(s.per_process[1].data_bytes_received, 100);
    }

    #[test]
    fn env_sender_is_not_tracked_per_process() {
        let mut s = Stats::default();
        s.record_send(ProcessId::ENV, 50, false);
        assert_eq!(s.messages_sent, 1);
        assert!(s.per_process.is_empty());
        // ENV has no per-process slot; only process 0 exists after delivery.
        s.record_delivery(ProcessId(0), 50);
        assert_eq!(s.per_process[0].messages_received, 1);
    }
}
