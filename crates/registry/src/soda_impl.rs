//! [`RegisterCluster`] over the SODA / SODAerr harness.

use crate::builder::ClusterBuilder;
use crate::cluster::RegisterCluster;
use crate::kind::ClusterDescriptor;
use crate::record::{OpKind, OpRecord, PendingWriteRecord, RepairReport};
use soda::harness::{ClusterConfig, SodaCluster};
use soda_protocol::Tag;
use soda_simnet::{ProcessId, RunOutcome, SimTime, Stats};
use std::any::Any;
use std::collections::BTreeSet;

/// A SODA or SODAerr deployment behind the shared facade.
///
/// Beyond the [`RegisterCluster`] API it exposes the SODA-specific state the
/// paper's theorems talk about (reader registrations, `H` bookkeeping,
/// per-server stored tags), plus [`inner`](Self::inner) for anything else.
pub struct SodaRegisterCluster {
    inner: SodaCluster,
    descriptor: ClusterDescriptor,
}

impl SodaRegisterCluster {
    pub(crate) fn from_builder(builder: ClusterBuilder) -> Self {
        let descriptor = builder.descriptor();
        let mut config = ClusterConfig::new(builder.n, builder.f)
            .with_seed(builder.seed)
            .with_clients(builder.num_writers, builder.num_readers)
            .with_error_tolerance(builder.kind.error_budget())
            .with_network(builder.network)
            .with_initial_value(builder.initial_value)
            .with_faulty_disks(builder.faulty_disks);
        if !builder.relay_enabled {
            config = config.with_relay_disabled();
        }
        let mut inner = SodaCluster::build(config);
        let mut plan = builder.net_faults;
        if !builder.byzantine_servers.is_empty() {
            // Servers are registered first, so rank i is ProcessId(i).
            plan = plan.with_corrupt_senders(
                builder
                    .byzantine_servers
                    .iter()
                    .map(|&r| ProcessId(r as u32)),
            );
            let ranks: BTreeSet<usize> = builder.byzantine_servers.iter().copied().collect();
            inner
                .sim_mut()
                .set_corruption_hook(soda::coded_element_corruptor(ranks));
        }
        inner.sim_mut().set_net_fault_plan(plan);
        SodaRegisterCluster { inner, descriptor }
    }

    /// The wrapped harness (full access to SODA-specific state).
    pub fn inner(&self) -> &SodaCluster {
        &self.inner
    }

    /// Mutable access to the wrapped harness.
    pub fn inner_mut(&mut self) -> &mut SodaCluster {
        &mut self.inner
    }

    /// The tag stored by the server with the given rank.
    pub fn stored_tag(&self, rank: usize) -> Tag {
        self.inner.server_state(rank).stored_tag()
    }

    /// Reader registrations still held by the server with the given rank.
    pub fn registered_readers(&self, rank: usize) -> usize {
        self.inner.server_state(rank).registered_readers()
    }

    /// Total reader registrations still held across all servers (Theorem 5.5
    /// implies this returns to zero after all reads finish or crash).
    pub fn total_registered_readers(&self) -> usize {
        self.inner.total_registered_readers()
    }

    /// Total `H` bookkeeping entries left across servers.
    pub fn total_history_entries(&self) -> usize {
        self.inner.total_history_entries()
    }

    /// Total decode failures across all readers (must stay zero whenever the
    /// error budget covers the corrupted disks).
    pub fn decode_failures(&self) -> u64 {
        (0..self.descriptor.num_readers)
            .map(|r| {
                let id = self.inner.readers()[r];
                self.inner.reader_state(id).decode_failures()
            })
            .sum()
    }
}

impl RegisterCluster for SodaRegisterCluster {
    fn descriptor(&self) -> &ClusterDescriptor {
        &self.descriptor
    }

    fn writer_process(&self, writer: usize) -> ProcessId {
        let writers = self.inner.writers();
        *writers.get(writer).unwrap_or_else(|| {
            panic!(
                "writer handle {writer} out of range: cluster has {} writers",
                writers.len()
            )
        })
    }

    fn reader_process(&self, reader: usize) -> ProcessId {
        let readers = self.inner.readers();
        *readers.get(reader).unwrap_or_else(|| {
            panic!(
                "reader handle {reader} out of range: cluster has {} readers",
                readers.len()
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
        let status = self.inner.server_state(rank).repair_status()?;
        Some(RepairReport {
            rank,
            started_at: status.started_at,
            completed_at: status.completed_at,
            traffic_bytes: status.traffic_bytes,
            error: (status.phase == soda::RepairPhase::Failed)
                .then_some(crate::record::RepairError::Unreachable),
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
        self.inner.soda_config().code().cache_stats()
    }

    fn completed_since(&self, client: ProcessId, from: usize, out: &mut Vec<OpRecord>) {
        let log = self.inner.client_ops(client);
        out.extend(log.iter().skip(from).map(|record| OpRecord {
            client: record.op.client.0 as u64,
            seq: record.op.seq,
            kind: match record.kind {
                soda::OpKind::Write => OpKind::Write,
                soda::OpKind::Read => OpKind::Read,
            },
            invoked_at: record.invoked_at,
            completed_at: record.completed_at,
            tag: record.tag,
            value: record.value.clone(),
        }));
    }

    fn pending_writes(&self) -> Vec<PendingWriteRecord> {
        self.inner
            .pending_writes()
            .into_iter()
            .map(|write| PendingWriteRecord {
                client: write.op.client.0 as u64,
                seq: write.op.seq,
                invoked_at: write.invoked_at,
                tag: write.tag,
                value: write.value,
            })
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
