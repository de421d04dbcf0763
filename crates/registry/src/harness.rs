//! The one cluster harness: a complete deployment of any protocol inside the
//! discrete-event simulator, behind [`RegisterCluster`].

use crate::builder::ClusterBuilder;
use crate::cluster::RegisterCluster;
use crate::kind::ClusterDescriptor;
use soda::{ReaderProcess, ServerProcess, SodaSpec};
use soda_baselines::abd::AbdSpec;
use soda_baselines::cas::{CasServer, CasSpec};
use soda_protocol::{
    value_from, Deployment, Layout, OpKind, OpRecord, PendingWrite, ProtocolSpec, RepairStatus,
    Tag, Value,
};
use soda_simnet::{CorruptionHook, ProcessId, RunOutcome, SimTime, Simulation, Stats};
use std::ops::Range;
use std::sync::Arc;

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
/// A cluster is one [`Deployment`], which the harness builds and hands to
/// every process, plus the protocol's one option in `P`.
pub struct Harness<P: ProtocolSpec> {
    spec: P,
    deployment: Arc<Deployment>,
    sim: Simulation<P::Msg>,
    /// Process ids (as raw indices) behind the writer and reader handles.
    writers: Range<u32>,
    readers: Range<u32>,
    /// Per-rank incarnation counter: bumped on every scheduled repair so each
    /// replacement gets a fresh message-id namespace.
    epochs: Vec<u64>,
    /// Per reader handle, how many of its client's completed reads
    /// [`Harness::share_write_buffers`] has already passed over.
    shared_reads: Vec<usize>,
    /// Reads invoked on the reader handles that no pass has visited yet.
    /// While it is zero no read can complete, so the pass is skipped.
    unshared_reads: usize,
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
        // Servers are registered first, so rank `i` is `ProcessId(i)`; and
        // replication is the `k = 1` code.
        let layout = Layout::new((0..builder.n as u32).map(ProcessId).collect(), builder.f);
        let k = descriptor.k().unwrap_or(1);
        let deployment = Arc::new(Deployment::new(layout, k, descriptor.kind.error_budget()));
        let net_faults = builder.take_net_fault_plan();
        let mut sim = Simulation::new(builder.seed, builder.network);
        let initial = value_from(builder.initial_value);
        for rank in 0..builder.n {
            sim.add_process(spec.server(&deployment, rank, &initial));
        }
        let mut add_clients = |count: usize, role: OpKind| {
            let first = sim.num_processes() as u32;
            for _ in 0..count {
                // Ids are dense, so a client's id is known before it is added.
                let id = ProcessId(sim.num_processes() as u32);
                sim.add_process(spec.client(&deployment, id, role));
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
            deployment,
            sim,
            writers,
            readers,
            epochs: vec![0; builder.n],
            shared_reads: vec![0; builder.num_readers],
            unshared_reads: 0,
            descriptor,
        }
    }

    /// Hands every read completed since the last pass the buffer of the
    /// write whose tag it returned, when the two hold equal bytes, so the
    /// read's decoded copy is freed at once and the reader's log, a store's
    /// outcomes and its keyed history all hold the write's one allocation. A
    /// read whose bytes differ keeps its own, so every history is what it
    /// was. Runs when a run ends; only records and their buffers change, so
    /// no message, RNG draw, schedule or charged byte moves. While every
    /// invoked read has been visited, a pass reads one counter and touches
    /// no process, so idle clusters and runs of writes alone pay nothing;
    /// otherwise it costs one length compare per reader beyond the reads it
    /// visits.
    fn share_write_buffers(&mut self) {
        if self.unshared_reads == 0 {
            return;
        }
        let sim = &mut self.sim;
        for (reader, shared) in self.readers.clone().zip(&mut self.shared_reads) {
            let reader = ProcessId(reader);
            let Some(completed) = P::client_ops(sim, reader).map(|ops| ops.completed().len())
            else {
                continue;
            };
            for index in *shared..completed {
                let read = &P::client_ops(sim, reader).expect("a client").completed()[index];
                let Some(written) = Self::written_value(sim, read.tag) else {
                    continue;
                };
                // ABD's reads already return their write's buffer.
                if read
                    .value
                    .as_ref()
                    .is_some_and(|v| Value::ptr_eq(v, written))
                {
                    continue;
                }
                let written = written.clone();
                let ops = P::client_ops_mut(sim, reader).expect("a client");
                ops.share_value(index, &written);
            }
            self.unshared_reads -= completed - *shared;
            *shared = completed;
        }
    }

    /// The value the write tagged `tag` carries, if its writer still holds it:
    /// as the write in flight, or in its completed log. A writer's tags only
    /// increase, and a read mostly returns one of its writer's last writes,
    /// so the search starts at the log's end and doubles the tail it covers
    /// until the tail's first tag is at most `tag`.
    fn written_value(sim: &Simulation<P::Msg>, tag: Tag) -> Option<&Value> {
        let ops = P::client_ops(sim, tag.writer)?;
        if ops.tag() == Some(tag) {
            return ops.value();
        }
        let log = ops.completed();
        let mut tail = 1;
        while tail < log.len() && log[log.len() - tail].tag > tag {
            tail *= 2;
        }
        let tail = &log[log.len().saturating_sub(tail)..];
        let write = tail.get(tail.partition_point(|op| op.tag < tag))?;
        (write.tag == tag && write.kind.is_write())
            .then_some(write.value.as_ref())
            .flatten()
    }

    /// Server process ids, by rank.
    fn servers(&self) -> &[ProcessId] {
        self.deployment.layout().servers()
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

    fn deployment(&self) -> &Deployment {
        &self.deployment
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
        self.unshared_reads += 1;
        self.sim.send_external_at(at, id, P::invoke_read());
    }

    fn crash_server_at(&mut self, at: SimTime, rank: usize) {
        self.sim.schedule_crash(at, self.servers()[rank]);
    }

    fn repair_server_at(&mut self, at: SimTime, rank: usize) {
        self.epochs[rank] += 1;
        let epoch = self.epochs[rank];
        let replacement = self.spec.replacement(&self.deployment, rank, epoch);
        self.sim
            .schedule_recovery(at, self.servers()[rank], replacement);
    }

    fn dead_or_repairing(&self) -> usize {
        self.servers()
            .iter()
            .filter(|&&id| {
                self.sim.is_crashed(id)
                    || P::repair_status(&self.sim, id).is_some_and(|s| s.in_progress())
            })
            .count()
    }

    fn repair_report(&self, rank: usize) -> Option<RepairStatus> {
        P::repair_status(&self.sim, self.servers()[rank])
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
        let outcome = self.sim.run_to_quiescence();
        self.share_write_buffers();
        outcome
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let outcome = self.sim.run_until(deadline);
        self.share_write_buffers();
        outcome
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn stats(&self) -> &Stats {
        self.sim.stats()
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
        self.servers()
            .iter()
            .map(|&id| P::stored_bytes(&self.sim, id))
            .collect()
    }
}

impl Harness<SodaSpec> {
    /// The state of the server with the given rank.
    pub fn server_state(&self, rank: usize) -> &ServerProcess {
        self.sim
            .process_as(self.servers()[rank])
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
        (0..self.servers().len())
            .map(|rank| self.registered_readers(rank))
            .sum()
    }

    /// Total `H` bookkeeping entries left across servers.
    pub fn total_history_entries(&self) -> usize {
        (0..self.servers().len())
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
    /// The state of the server with the given rank.
    pub fn server_state(&self, rank: usize) -> &CasServer {
        self.sim
            .process_as(self.servers()[rank])
            .expect("every rank holds a CAS server")
    }

    /// Maximum number of versions with stored elements at any single server
    /// (the quantity CASGC's `δ + 1` bound constrains).
    pub fn max_stored_versions(&self) -> usize {
        (0..self.servers().len())
            .map(|rank| self.server_state(rank).stored_versions())
            .max()
            .unwrap_or(0)
    }
}
