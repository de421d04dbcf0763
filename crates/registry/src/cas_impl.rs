//! [`RegisterCluster`] over the CAS / CASGC coded baseline.

use crate::builder::ClusterBuilder;
use crate::cluster::RegisterCluster;
use crate::kind::{ClusterDescriptor, ProtocolKind};
use crate::record::{OpKind, OpRecord, PendingWriteRecord, RepairReport};
use soda_baselines::cas::{CasCluster, CasParams};
use soda_protocol::MdsCode;
use soda_simnet::{ProcessId, RunOutcome, SimTime, Stats};
use std::any::Any;

/// A CAS / CASGC deployment behind the shared facade.
///
/// Like ABD, CAS clients perform both writes and reads, so the facade builds
/// `num_writers + num_readers` clients and partitions them into writer and
/// reader handle ranges.
pub struct CasRegisterCluster {
    inner: CasCluster,
    writers: Vec<ProcessId>,
    readers: Vec<ProcessId>,
    descriptor: ClusterDescriptor,
}

impl CasRegisterCluster {
    pub(crate) fn from_builder(builder: ClusterBuilder) -> Self {
        let descriptor = builder.descriptor();
        let gc_versions = match builder.kind {
            ProtocolKind::Casgc { gc } => Some(gc + 1),
            _ => None,
        };
        let mut inner = CasCluster::build(CasParams {
            n: builder.n,
            f: builder.f,
            gc_versions,
            num_clients: builder.num_writers + builder.num_readers,
            seed: builder.seed,
            network: builder.network,
            initial_value: builder.initial_value,
        });
        inner.sim_mut().set_net_fault_plan(builder.net_faults);
        let clients = inner.clients().to_vec();
        let (writers, readers) = clients.split_at(builder.num_writers);
        CasRegisterCluster {
            writers: writers.to_vec(),
            readers: readers.to_vec(),
            inner,
            descriptor,
        }
    }

    /// The wrapped cluster (full access to CAS-specific state).
    pub fn inner(&self) -> &CasCluster {
        &self.inner
    }

    /// Mutable access to the wrapped cluster.
    pub fn inner_mut(&mut self) -> &mut CasCluster {
        &mut self.inner
    }

    /// Maximum number of versions with stored elements at any single server
    /// (the quantity CASGC's `δ + 1` bound constrains).
    pub fn max_stored_versions(&self) -> usize {
        self.inner.max_stored_versions()
    }
}

impl RegisterCluster for CasRegisterCluster {
    fn descriptor(&self) -> &ClusterDescriptor {
        &self.descriptor
    }

    fn writer_process(&self, writer: usize) -> ProcessId {
        *self.writers.get(writer).unwrap_or_else(|| {
            panic!(
                "writer handle {writer} out of range: cluster has {} writers",
                self.writers.len()
            )
        })
    }

    fn reader_process(&self, reader: usize) -> ProcessId {
        *self.readers.get(reader).unwrap_or_else(|| {
            panic!(
                "reader handle {reader} out of range: cluster has {} readers",
                self.readers.len()
            )
        })
    }

    fn invoke_write(&mut self, writer: usize, value: Vec<u8>) {
        let id = self.writer_process(writer);
        self.inner.invoke_write(id, value);
    }

    fn invoke_write_at(&mut self, at: SimTime, writer: usize, value: Vec<u8>) {
        let id = self.writer_process(writer);
        self.inner.invoke_write_at(at, id, value);
    }

    fn invoke_read(&mut self, reader: usize) {
        let id = self.reader_process(reader);
        self.inner.invoke_read(id);
    }

    fn invoke_read_at(&mut self, at: SimTime, reader: usize) {
        let id = self.reader_process(reader);
        self.inner.invoke_read_at(at, id);
    }

    fn crash_server_at(&mut self, at: SimTime, rank: usize) {
        self.inner.crash_server_at(at, rank);
    }

    fn repair_server_at(&mut self, at: SimTime, rank: usize) {
        self.inner.repair_server_at(at, rank);
    }

    fn dead_or_repairing(&self) -> usize {
        self.inner.dead_or_repairing()
    }

    fn repair_report(&self, rank: usize) -> Option<RepairReport> {
        self.inner.repair_status(rank).map(|s| RepairReport {
            rank,
            started_at: s.started_at,
            completed_at: s.completed_at,
            traffic_bytes: s.traffic_bytes,
            error: s.failed.then_some(crate::record::RepairError::Unreachable),
        })
    }

    fn crash_writer_at(&mut self, at: SimTime, writer: usize) {
        let id = self.writer_process(writer);
        self.inner.crash_process_at(at, id);
    }

    fn crash_reader_at(&mut self, at: SimTime, reader: usize) {
        let id = self.reader_process(reader);
        self.inner.crash_process_at(at, id);
    }

    fn run_to_quiescence(&mut self) -> RunOutcome {
        self.inner.run_to_quiescence()
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.inner.run_until(deadline)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn stats_ref(&self) -> &Stats {
        self.inner.sim().trace().stats_ref()
    }

    fn decode_cache_stats(&self) -> soda_protocol::CodeCacheStats {
        self.inner.config().code().cache_stats()
    }

    fn completed_since(&self, client: ProcessId, from: usize, out: &mut Vec<OpRecord>) {
        let log = self.inner.client_records(client);
        out.extend(log.iter().skip(from).map(|record| OpRecord {
            client: client.0 as u64,
            seq: record.seq,
            kind: if record.is_read {
                OpKind::Read
            } else {
                OpKind::Write
            },
            invoked_at: record.invoked_at,
            completed_at: record.completed_at,
            tag: record.tag,
            value: Some(record.value.clone()),
        }));
    }

    fn pending_writes(&self) -> Vec<PendingWriteRecord> {
        self.inner
            .pending_writes()
            .into_iter()
            .map(PendingWriteRecord::from)
            .collect()
    }

    fn stored_bytes_per_server(&self) -> Vec<u64> {
        self.inner.stored_bytes_per_server()
    }

    fn total_stored_bytes(&self) -> u64 {
        self.inner.total_stored_bytes()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
