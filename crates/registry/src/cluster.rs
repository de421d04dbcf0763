//! The protocol-agnostic client API over a simulated atomic-register
//! deployment.

use crate::kind::ClusterDescriptor;
use crate::record::{history_from_records, history_with_pending, sort_records};
use soda_consistency::History;
use soda_protocol::{Deployment, OpRecord, PendingWrite, RepairStatus};
use soda_simnet::{ProcessId, RunOutcome, SimTime, Stats};

/// One client API over every register emulation in this workspace (SODA,
/// SODAerr, ABD, CAS, CASGC).
///
/// A cluster exposes `num_writers` writer handles and `num_readers` reader
/// handles, addressed by index. For SODA the two map onto distinct writer and
/// reader processes; for ABD and CAS (whose clients perform both kinds of
/// operation) the harness partitions the client processes into a writer range
/// and a reader range, so the same scenario code drives all five protocols.
///
/// The one implementation is the generic [`Harness`](crate::Harness); the
/// trait exists so that callers can hold clusters of different protocols
/// behind one `Box<dyn RegisterCluster>`. State only one protocol has (SODA's
/// reader registrations, CAS's stored versions) is not reached through this
/// trait: build the typed cluster with
/// [`ClusterBuilder::build_soda`](crate::ClusterBuilder::build_soda) or
/// [`ClusterBuilder::build_cas`](crate::ClusterBuilder::build_cas) and use its
/// inherent methods.
///
/// Invocations are *queued*: asking a busy client for another operation is
/// legal and the client starts it once the current one completes. Crash
/// injection, deterministic scheduling (`*_at` methods take simulated times)
/// and the cost accounting all behave identically across implementations, so
/// measured numbers are directly comparable — which is the whole point of the
/// paper's Table I.
///
/// Clusters are `Send` (every process, message and RNG in the stack is), and
/// boxed clusters are `'static`, so higher layers — the sharded store in
/// `crates/store` — can drive disjoint clusters from parallel OS threads.
pub trait RegisterCluster: Send {
    /// The static description of this cluster (protocol, `n`, `f`, client
    /// counts).
    fn descriptor(&self) -> &ClusterDescriptor;

    /// The deployment every process of this cluster shares: its layout, its
    /// code (replication is the `k = 1` code), its error budget and the
    /// quorums every phase's threshold is read from.
    fn deployment(&self) -> &Deployment;

    /// The simulated process id behind writer handle `writer`.
    ///
    /// # Panics
    /// Panics if `writer >= descriptor().num_writers`.
    fn writer_process(&self, writer: usize) -> ProcessId;

    /// The simulated process id behind reader handle `reader`.
    ///
    /// # Panics
    /// Panics if `reader >= descriptor().num_readers`.
    fn reader_process(&self, reader: usize) -> ProcessId;

    /// Asks writer `writer` to write `value` now (queued if it is busy).
    fn invoke_write(&mut self, writer: usize, value: Vec<u8>);

    /// Asks writer `writer` to write `value` at simulated time `at`.
    fn invoke_write_at(&mut self, at: SimTime, writer: usize, value: Vec<u8>);

    /// Asks reader `reader` to read now (queued if it is busy).
    fn invoke_read(&mut self, reader: usize);

    /// Asks reader `reader` to read at simulated time `at`.
    fn invoke_read_at(&mut self, at: SimTime, reader: usize);

    /// Crashes the server with the given rank at time `at`.
    fn crash_server_at(&mut self, at: SimTime, rank: usize);

    /// Schedules the **repair** of the server with the given rank at time
    /// `at`: a fresh replacement with empty state takes over the rank's
    /// process id and re-acquires its state from survivors — by re-encoding
    /// coded elements fetched from `k` (SODA) or `k + 2e` (SODAerr)
    /// survivors, by adopting the majority-maximum `(tag, value)` pair
    /// (ABD), or by full-replica state transfer (CAS / CASGC).
    ///
    /// Until the repair completes the replacement counts against the crash
    /// budget `f` (see [`RegisterCluster::dead_or_repairing`]); the cluster
    /// tolerates at most `f` *currently*-dead-or-repairing servers at any
    /// instant, not `f` crashes in total.
    fn repair_server_at(&mut self, at: SimTime, rank: usize);

    /// Number of servers currently dead **or still repairing** — the
    /// quantity the dynamic fault-tolerance invariant bounds by `f`.
    fn dead_or_repairing(&self) -> usize;

    /// The repair record of rank `rank`, if its *current* incarnation is (or
    /// was) a replacement: repair bandwidth, latency and outcome — the
    /// replacement's own [`RepairStatus`]. `None` for a server that was never
    /// replaced.
    ///
    /// # Panics
    /// Panics if `rank >= descriptor().n`.
    fn repair_report(&self, rank: usize) -> Option<RepairStatus>;

    /// One report per rank whose *current* incarnation is (or was) a
    /// replacement, in rank order.
    fn repair_reports(&self) -> Vec<RepairStatus> {
        (0..self.descriptor().n)
            .filter_map(|rank| self.repair_report(rank))
            .collect()
    }

    /// Total repair bandwidth (bytes of value / coded-element data received
    /// by replacements) across all ranks' current incarnations.
    fn repair_traffic_bytes(&self) -> u64 {
        self.repair_reports().iter().map(|r| r.traffic_bytes).sum()
    }

    /// Crashes the process behind writer handle `writer` at time `at`.
    fn crash_writer_at(&mut self, at: SimTime, writer: usize);

    /// Crashes the process behind reader handle `reader` at time `at`.
    fn crash_reader_at(&mut self, at: SimTime, reader: usize);

    /// Runs the simulation until no events remain.
    fn run_to_quiescence(&mut self) -> RunOutcome;

    /// Runs the simulation until the given deadline.
    fn run_until(&mut self, deadline: SimTime) -> RunOutcome;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Message statistics accumulated so far. A windowed measurement reads a
    /// counter before the window and subtracts it after.
    fn stats(&self) -> &Stats;

    /// Appends to `out` the operations client process `client` completed
    /// beyond its first `from`, in the order the client completed them —
    /// which is `seq` order, because a client runs one operation at a time.
    ///
    /// `from` is a cursor the caller owns: a client's log only ever grows at
    /// its end, so a caller that advances `from` by the number of records
    /// each call appended sees every completed operation exactly once, and a
    /// call costs time per *new* record, not per record ever completed. The
    /// appended records share their values with the client's log. A cursor
    /// at or past the end of the log, or a process that is not one of this
    /// cluster's clients, appends nothing. Implementations must only append.
    fn completed_since(&self, client: ProcessId, from: usize, out: &mut Vec<OpRecord>);

    /// All operations completed by all clients, ordered by completion time
    /// (ties by client id, then `seq`). Clones every record (values are
    /// shared, not copied); callers that follow a cluster over time should
    /// hold cursors into [`Self::completed_since`] instead.
    fn completed_ops(&self) -> Vec<OpRecord> {
        let descriptor = self.descriptor();
        let writers = (0..descriptor.num_writers).map(|w| self.writer_process(w));
        let readers = (0..descriptor.num_readers).map(|r| self.reader_process(r));
        let mut ops = Vec::new();
        for client in writers.chain(readers) {
            self.completed_since(client, 0, &mut ops);
        }
        sort_records(&mut ops);
        ops
    }

    /// Writes that were invoked but have not completed (writer still
    /// mid-operation, crashed mid-operation, or starved by the network
    /// adversary). Writes whose tag the protocol has not assigned yet are
    /// included with `tag: None`; queued-but-unstarted invocations are not
    /// reported at all.
    fn pending_writes(&self) -> Vec<PendingWrite>;

    /// Bytes of object-value data stored at each server, by rank (the
    /// per-server contribution to the paper's total storage cost).
    fn stored_bytes_per_server(&self) -> Vec<u64>;

    /// Total bytes of object-value data stored across all servers.
    fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes_per_server().iter().sum()
    }

    /// Builds the atomicity-checkable history of everything completed so far.
    ///
    /// In fault-free executions this is the whole story. Under crash or
    /// network faults, prefer [`RegisterCluster::closed_history`]: a
    /// completed read may return the value of a write that never completed,
    /// which this history cannot explain.
    fn history(&self, initial_value: &[u8]) -> History {
        history_from_records(initial_value, &self.completed_ops())
    }

    /// Builds the history of completed operations *closed* under pending
    /// writes (see [`history_with_pending`]), which is the right input for
    /// atomicity checking of executions with crashes or network faults.
    fn closed_history(&self, initial_value: &[u8]) -> History {
        history_with_pending(initial_value, &self.completed_ops(), &self.pending_writes())
    }
}
