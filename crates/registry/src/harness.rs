//! The one cluster harness: a complete deployment of any protocol inside the
//! discrete-event simulator, behind [`RegisterCluster`].

use crate::builder::ClusterBuilder;
use crate::cluster::RegisterCluster;
use crate::kind::ClusterDescriptor;
use soda::{ReaderProcess, ServerProcess, SodaSpec};
use soda_baselines::abd::AbdSpec;
use soda_baselines::cas::{CasServer, CasSpec};
use soda_protocol::{value_from, OpKind, OpRecord, PendingWrite, ProtocolSpec, RepairStatus, Tag};
use soda_simnet::{CorruptionHook, ProcessId, RunOutcome, SimTime, Simulation, Stats};
use std::any::Any;
use std::ops::Range;

/// A simulated deployment of protocol `P`: `n` servers plus writer and reader
/// clients, all registered with one [`Simulation`].
///
/// Processes are registered servers first (so rank `i` is `ProcessId(i)`),
/// then the writer handles' clients, then the reader handles' clients. For
/// protocols whose clients perform both kinds of operation the two ranges
/// still hold distinct clients, so the same scenario code drives every
/// protocol.
///
/// Everything a cluster does is written here once, against
/// [`ProtocolSpec`]; state only one protocol has is reached through the
/// inherent methods of [`SodaRegisterCluster`] and [`CasRegisterCluster`].
pub struct Harness<P: ProtocolSpec> {
    spec: P,
    sim: Simulation<P::Msg>,
    /// Server process ids, by rank.
    servers: Vec<ProcessId>,
    /// Process ids (as raw indices) behind the writer and reader handles.
    writers: Range<u32>,
    readers: Range<u32>,
    /// Per-rank incarnation counter: bumped on every scheduled repair so each
    /// replacement gets a fresh message-id namespace.
    epochs: Vec<u64>,
    descriptor: ClusterDescriptor,
}

/// A SODA or SODAerr deployment. Beyond the [`RegisterCluster`] API it
/// exposes the SODA-specific state the paper's theorems talk about (reader
/// registrations, `H` bookkeeping, per-server stored tags).
pub type SodaRegisterCluster = Harness<SodaSpec>;

/// An ABD deployment.
pub type AbdRegisterCluster = Harness<AbdSpec>;

/// A CAS / CASGC deployment. Beyond the [`RegisterCluster`] API it exposes
/// the stored version counts CASGC's `δ + 1` bound constrains.
pub type CasRegisterCluster = Harness<CasSpec>;

impl<P: ProtocolSpec> Harness<P> {
    /// Builds the validated `builder`'s cluster out of `spec`'s processes.
    /// `corruptor` is the payload-corruption hook of the builder's byzantine
    /// servers, if it names any; the hook filters by rank itself.
    pub(crate) fn new(
        spec: P,
        mut builder: ClusterBuilder,
        corruptor: Option<CorruptionHook<P::Msg>>,
    ) -> Self {
        let descriptor = builder.descriptor();
        let net_faults = builder.take_net_fault_plan();
        let mut sim = Simulation::new(builder.seed, builder.network);
        let initial = value_from(builder.initial_value);
        let servers: Vec<ProcessId> = (0..builder.n)
            .map(|rank| sim.add_process(spec.server(rank, &initial)))
            .collect();
        let mut add_clients = |count: usize, role: OpKind| {
            let first = sim.num_processes() as u32;
            for _ in 0..count {
                // Ids are dense, so a client's id is known before it is added.
                let id = ProcessId(sim.num_processes() as u32);
                sim.add_process(spec.client(id, role));
            }
            first..sim.num_processes() as u32
        };
        let writers = add_clients(builder.num_writers, OpKind::Write);
        let readers = add_clients(builder.num_readers, OpKind::Read);
        sim.set_net_fault_plan(net_faults);
        if let Some(hook) = corruptor {
            sim.set_corruption_hook(hook);
        }
        Harness {
            spec,
            sim,
            servers,
            writers,
            readers,
            epochs: vec![0; builder.n],
            descriptor,
        }
    }

    /// The protocol's spec: the deployment's shared configuration.
    pub fn spec(&self) -> &P {
        &self.spec
    }

    fn client_process(role: &str, handles: &Range<u32>, handle: usize) -> ProcessId {
        assert!(
            handle < handles.len(),
            "{role} handle {handle} out of range: cluster has {} {role}s",
            handles.len()
        );
        ProcessId(handles.start + handle as u32)
    }
}

impl<P: ProtocolSpec> RegisterCluster for Harness<P> {
    fn descriptor(&self) -> &ClusterDescriptor {
        &self.descriptor
    }

    fn writer_process(&self, writer: usize) -> ProcessId {
        Self::client_process("writer", &self.writers, writer)
    }

    fn reader_process(&self, reader: usize) -> ProcessId {
        Self::client_process("reader", &self.readers, reader)
    }

    fn invoke_write(&mut self, writer: usize, value: Vec<u8>) {
        self.invoke_write_at(self.sim.now(), writer, value);
    }

    fn invoke_write_at(&mut self, at: SimTime, writer: usize, value: Vec<u8>) {
        let id = self.writer_process(writer);
        self.sim
            .send_external_at(at, id, P::invoke_write(value_from(value)));
    }

    fn invoke_read(&mut self, reader: usize) {
        self.invoke_read_at(self.sim.now(), reader);
    }

    fn invoke_read_at(&mut self, at: SimTime, reader: usize) {
        let id = self.reader_process(reader);
        self.sim.send_external_at(at, id, P::invoke_read());
    }

    fn crash_server_at(&mut self, at: SimTime, rank: usize) {
        self.sim.schedule_crash(at, self.servers[rank]);
    }

    fn repair_server_at(&mut self, at: SimTime, rank: usize) {
        self.epochs[rank] += 1;
        let replacement = self.spec.replacement(rank, self.epochs[rank]);
        self.sim
            .schedule_recovery(at, self.servers[rank], replacement);
    }

    fn dead_or_repairing(&self) -> usize {
        self.servers
            .iter()
            .filter(|&&id| {
                self.sim.is_crashed(id)
                    || P::repair_status(&self.sim, id).is_some_and(|s| s.in_progress())
            })
            .count()
    }

    fn repair_report(&self, rank: usize) -> Option<RepairStatus> {
        P::repair_status(&self.sim, self.servers[rank])
    }

    fn crash_writer_at(&mut self, at: SimTime, writer: usize) {
        let id = self.writer_process(writer);
        self.sim.schedule_crash(at, id);
    }

    fn crash_reader_at(&mut self, at: SimTime, reader: usize) {
        let id = self.reader_process(reader);
        self.sim.schedule_crash(at, id);
    }

    fn run_to_quiescence(&mut self) -> RunOutcome {
        self.sim.run_to_quiescence()
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn stats_ref(&self) -> &Stats {
        self.sim.trace().stats_ref()
    }

    fn completed_since(&self, client: ProcessId, from: usize, out: &mut Vec<OpRecord>) {
        if let Some(ops) = P::client_ops(&self.sim, client) {
            out.extend_from_slice(ops.completed().get(from..).unwrap_or_default());
        }
    }

    fn pending_writes(&self) -> Vec<PendingWrite> {
        self.writers
            .clone()
            .filter_map(|id| P::client_ops(&self.sim, ProcessId(id))?.in_flight_write())
            .collect()
    }

    fn stored_bytes_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|&id| P::stored_bytes(&self.sim, id))
            .collect()
    }

    fn read_cost_bytes(&self, window: &Stats, reader: usize) -> u64 {
        window
            .per_process
            .get(self.reader_process(reader).index())
            .map_or(0, P::read_cost_bytes)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Harness<SodaSpec> {
    /// The state of the server with the given rank.
    pub fn server_state(&self, rank: usize) -> &ServerProcess {
        self.sim
            .process_as(self.servers[rank])
            .expect("every rank holds a SODA server")
    }

    /// The tag stored by the server with the given rank.
    pub fn stored_tag(&self, rank: usize) -> Tag {
        self.server_state(rank).stored_tag()
    }

    /// Reader registrations still held by the server with the given rank.
    pub fn registered_readers(&self, rank: usize) -> usize {
        self.server_state(rank).registered_readers()
    }

    /// Total reader registrations still held across all servers (Theorem 5.5
    /// implies this returns to zero after all reads finish or crash).
    pub fn total_registered_readers(&self) -> usize {
        (0..self.servers.len())
            .map(|rank| self.registered_readers(rank))
            .sum()
    }

    /// Total `H` bookkeeping entries left across servers.
    pub fn total_history_entries(&self) -> usize {
        (0..self.servers.len())
            .map(|rank| self.server_state(rank).history_len())
            .sum()
    }

    /// Total decode failures across all readers (must stay zero whenever the
    /// error budget `e` covers the byzantine servers).
    pub fn decode_failures(&self) -> u64 {
        self.readers
            .clone()
            .filter_map(|id| self.sim.process_as::<ReaderProcess>(ProcessId(id)))
            .map(ReaderProcess::decode_failures)
            .sum()
    }
}

impl Harness<CasSpec> {
    /// Maximum number of versions with stored elements at any single server
    /// (the quantity CASGC's `δ + 1` bound constrains).
    pub fn max_stored_versions(&self) -> usize {
        self.servers
            .iter()
            .filter_map(|&id| self.sim.process_as::<CasServer>(id))
            .map(CasServer::stored_versions)
            .max()
            .unwrap_or(0)
    }
}
