//! Cluster harness: builds a complete SODA / SODAerr deployment inside the
//! discrete-event simulator, injects client operations, and exposes the state
//! needed by tests and experiments (operation histories, storage occupancy,
//! message statistics).

use crate::config::{DiskFaultModel, SodaConfig};
use crate::messages::SodaMsg;
use crate::reader::ReaderProcess;
use crate::record::OpRecord;
use crate::server::ServerProcess;
use crate::writer::WriterProcess;
use soda_protocol::{value_from, Layout};
use soda_simnet::{NetworkConfig, ProcessId, RunOutcome, SimTime, Simulation, Stats};
use std::sync::Arc;

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of servers.
    pub n: usize,
    /// Number of server crashes to tolerate.
    pub f: usize,
    /// Error budget `e` (0 selects plain SODA, > 0 selects SODAerr).
    pub e: usize,
    /// Number of writer clients.
    pub num_writers: usize,
    /// Number of reader clients.
    pub num_readers: usize,
    /// RNG seed controlling message delays (and thus the interleaving).
    pub seed: u64,
    /// Network delay configuration.
    pub network: NetworkConfig,
    /// The initial object value `v0`.
    pub initial_value: Vec<u8>,
    /// Ranks of servers whose local disks silently corrupt elements
    /// (SODAerr's threat model).
    pub faulty_disks: Vec<usize>,
    /// Ablation switch: disable the relaying of concurrent writes to
    /// registered readers at every server (default `true` = paper behaviour).
    pub relay_enabled: bool,
}

impl ClusterConfig {
    /// A cluster of `n` servers tolerating `f` crashes, with one writer and
    /// one reader, uniform random delays in `[1, 10]` and an empty initial
    /// value.
    pub fn new(n: usize, f: usize) -> Self {
        ClusterConfig {
            n,
            f,
            e: 0,
            num_writers: 1,
            num_readers: 1,
            seed: 0,
            network: NetworkConfig::uniform(10),
            initial_value: Vec::new(),
            faulty_disks: Vec::new(),
            relay_enabled: true,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of writer and reader clients.
    pub fn with_clients(mut self, writers: usize, readers: usize) -> Self {
        self.num_writers = writers;
        self.num_readers = readers;
        self
    }

    /// Selects SODAerr with the given error budget.
    pub fn with_error_tolerance(mut self, e: usize) -> Self {
        self.e = e;
        self
    }

    /// Sets the network delay model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Sets the initial object value `v0`.
    pub fn with_initial_value(mut self, value: Vec<u8>) -> Self {
        self.initial_value = value;
        self
    }

    /// Marks the given server ranks as having error-prone local disks.
    pub fn with_faulty_disks(mut self, ranks: Vec<usize>) -> Self {
        self.faulty_disks = ranks;
        self
    }

    /// Disables concurrent-write relaying at every server (ablation only).
    pub fn with_relay_disabled(mut self) -> Self {
        self.relay_enabled = false;
        self
    }
}

/// A complete simulated deployment: `n` servers plus writer and reader
/// clients, all registered with one [`Simulation`].
pub struct SodaCluster {
    sim: Simulation<SodaMsg>,
    config: Arc<SodaConfig>,
    servers: Vec<ProcessId>,
    writers: Vec<ProcessId>,
    readers: Vec<ProcessId>,
    /// Per-rank incarnation counter: bumped on every scheduled repair so each
    /// replacement gets a fresh message-id namespace (see
    /// [`ServerProcess::replacement`]).
    epochs: Vec<u64>,
}

impl SodaCluster {
    /// Builds the cluster described by `cfg`.
    pub fn build(cfg: ClusterConfig) -> Self {
        let mut sim = Simulation::new(cfg.seed, cfg.network.clone());
        // Servers are registered first so that rank i has ProcessId(i).
        let server_ids: Vec<ProcessId> = (0..cfg.n as u32).map(ProcessId).collect();
        let layout = Layout::new(server_ids, cfg.f);
        let config = if cfg.e == 0 {
            SodaConfig::soda(layout)
        } else {
            SodaConfig::soda_err(layout, cfg.e)
        };
        let initial = value_from(cfg.initial_value.clone());
        let mut servers = Vec::with_capacity(cfg.n);
        for rank in 0..cfg.n {
            let mut server = ServerProcess::new(config.clone(), rank, &initial);
            if cfg.faulty_disks.contains(&rank) {
                server = server.with_disk_fault(DiskFaultModel::Always);
            }
            if !cfg.relay_enabled {
                server = server.with_relay_disabled();
            }
            let id = sim.add_process(Box::new(server));
            debug_assert_eq!(id.index(), rank);
            servers.push(id);
        }
        let mut writers = Vec::with_capacity(cfg.num_writers);
        for _ in 0..cfg.num_writers {
            // The process id is known before insertion because ids are dense.
            let id = ProcessId(sim.num_processes() as u32);
            let writer = WriterProcess::new(config.clone(), id);
            let actual = sim.add_process(Box::new(writer));
            debug_assert_eq!(actual, id);
            writers.push(id);
        }
        let mut readers = Vec::with_capacity(cfg.num_readers);
        for _ in 0..cfg.num_readers {
            let id = ProcessId(sim.num_processes() as u32);
            let reader = ReaderProcess::new(config.clone(), id);
            let actual = sim.add_process(Box::new(reader));
            debug_assert_eq!(actual, id);
            readers.push(id);
        }
        let epochs = vec![0; cfg.n];
        SodaCluster {
            sim,
            config,
            servers,
            writers,
            readers,
            epochs,
        }
    }

    /// The shared protocol configuration.
    pub fn soda_config(&self) -> &Arc<SodaConfig> {
        &self.config
    }

    /// Server process ids, by rank.
    pub fn servers(&self) -> &[ProcessId] {
        &self.servers
    }

    /// Writer client process ids.
    pub fn writers(&self) -> &[ProcessId] {
        &self.writers
    }

    /// Reader client process ids.
    pub fn readers(&self) -> &[ProcessId] {
        &self.readers
    }

    /// The underlying simulation (read access).
    pub fn sim(&self) -> &Simulation<SodaMsg> {
        &self.sim
    }

    /// The underlying simulation (mutable access, e.g. for custom scheduling).
    pub fn sim_mut(&mut self) -> &mut Simulation<SodaMsg> {
        &mut self.sim
    }

    /// Asks writer `writer` to write `value` now (queued if it is busy).
    pub fn invoke_write(&mut self, writer: ProcessId, value: Vec<u8>) {
        self.sim
            .send_external(writer, SodaMsg::InvokeWrite(value_from(value)));
    }

    /// Asks writer `writer` to write `value` at simulated time `at`.
    pub fn invoke_write_at(&mut self, at: SimTime, writer: ProcessId, value: Vec<u8>) {
        self.sim
            .send_external_at(at, writer, SodaMsg::InvokeWrite(value_from(value)));
    }

    /// Asks reader `reader` to read now (queued if it is busy).
    pub fn invoke_read(&mut self, reader: ProcessId) {
        self.sim.send_external(reader, SodaMsg::InvokeRead);
    }

    /// Asks reader `reader` to read at simulated time `at`.
    pub fn invoke_read_at(&mut self, at: SimTime, reader: ProcessId) {
        self.sim.send_external_at(at, reader, SodaMsg::InvokeRead);
    }

    /// Crashes the server with the given rank at time `at`.
    pub fn crash_server_at(&mut self, at: SimTime, rank: usize) {
        let id = self.servers[rank];
        self.sim.schedule_crash(at, id);
    }

    /// Crashes an arbitrary process (e.g. a client) at time `at`.
    pub fn crash_process_at(&mut self, at: SimTime, id: ProcessId) {
        self.sim.schedule_crash(at, id);
    }

    /// Schedules the repair of the server with the given rank at time `at`:
    /// a fresh replacement (empty state) takes over the rank's process id and
    /// runs the SODA repair protocol, re-encoding its coded element from
    /// survivor responses. Until the repair completes the replacement counts
    /// against the crash budget `f` (it answers no tag queries).
    pub fn repair_server_at(&mut self, at: SimTime, rank: usize) {
        self.epochs[rank] += 1;
        let replacement = ServerProcess::replacement(self.config.clone(), rank, self.epochs[rank]);
        self.sim
            .schedule_recovery(at, self.servers[rank], Box::new(replacement));
    }

    /// Number of servers currently dead **or under repair** — the quantity
    /// the dynamic fault-tolerance invariant bounds by `f`.
    pub fn dead_or_repairing(&self) -> usize {
        (0..self.servers.len())
            .filter(|&rank| {
                self.sim.is_crashed(self.servers[rank])
                    || self
                        .sim
                        .process_as::<ServerProcess>(self.servers[rank])
                        .is_some_and(|s| s.is_repairing())
            })
            .count()
    }

    /// Repair status of each rank's *current* incarnation (`None` for
    /// original servers that were never replaced).
    pub fn repair_statuses(&self) -> Vec<Option<crate::server::RepairStatus>> {
        (0..self.servers.len())
            .map(|rank| {
                self.sim
                    .process_as::<ServerProcess>(self.servers[rank])
                    .and_then(|s| s.repair_status())
            })
            .collect()
    }

    /// Total repair traffic (bytes of coded-element data received by
    /// replacements during repair) across all ranks' current incarnations.
    pub fn repair_traffic_bytes(&self) -> u64 {
        self.repair_statuses()
            .iter()
            .flatten()
            .map(|s| s.traffic_bytes)
            .sum()
    }

    /// Runs the simulation until no events remain.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.sim.run_to_quiescence()
    }

    /// Runs the simulation until the given deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Message statistics accumulated so far.
    pub fn stats(&self) -> Stats {
        self.sim.stats()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The operations one client (writer or reader) has completed, in the
    /// order it completed them — its append-only log, which is also `seq`
    /// order because a client runs one operation at a time. Empty for a
    /// process that is not a client of this cluster.
    pub fn client_ops(&self, client: ProcessId) -> &[OpRecord] {
        if let Some(writer) = self.sim.process_as::<WriterProcess>(client) {
            writer.completed_ops()
        } else if let Some(reader) = self.sim.process_as::<ReaderProcess>(client) {
            reader.completed_ops()
        } else {
            &[]
        }
    }

    /// All operations completed by all clients, ordered by completion time.
    pub fn completed_ops(&self) -> Vec<OpRecord> {
        let mut ops: Vec<OpRecord> = self
            .writers
            .iter()
            .chain(&self.readers)
            .flat_map(|&client| self.client_ops(client).iter().cloned())
            .collect();
        ops.sort_by_key(|op| (op.completed_at, op.op));
        ops
    }

    /// Writes invoked but not completed (the writer is mid-operation, was
    /// crashed mid-operation, or was starved by a network adversary).
    /// Adversarial harnesses need these to close the operation history
    /// before atomicity checking.
    pub fn pending_writes(&self) -> Vec<crate::record::PendingWrite> {
        self.writers
            .iter()
            .filter_map(|&w| self.sim.process_as::<WriterProcess>(w))
            .filter_map(|writer| writer.in_flight())
            .collect()
    }

    /// Typed access to a server's state by rank.
    pub fn server_state(&self, rank: usize) -> &ServerProcess {
        self.sim
            .process_as::<ServerProcess>(self.servers[rank])
            .expect("server process exists")
    }

    /// Typed access to a writer's state.
    pub fn writer_state(&self, id: ProcessId) -> &WriterProcess {
        self.sim
            .process_as::<WriterProcess>(id)
            .expect("writer process exists")
    }

    /// Typed access to a reader's state.
    pub fn reader_state(&self, id: ProcessId) -> &ReaderProcess {
        self.sim
            .process_as::<ReaderProcess>(id)
            .expect("reader process exists")
    }

    /// Bytes of coded-element data stored at each server, by rank.
    pub fn stored_bytes_per_server(&self) -> Vec<u64> {
        self.stored_bytes_by_rank().collect()
    }

    /// Total bytes of coded-element data stored across all servers (the
    /// numerator of the paper's total storage cost).
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes_by_rank().sum()
    }

    fn stored_bytes_by_rank(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.servers.len()).map(|rank| self.server_state(rank).stored_bytes() as u64)
    }

    /// Total number of reader registrations still held by servers. Theorem 5.5
    /// implies this returns to zero after all reads finish (or crash).
    pub fn total_registered_readers(&self) -> usize {
        (0..self.servers.len())
            .map(|rank| self.server_state(rank).registered_readers())
            .sum()
    }

    /// Total number of `H` entries across servers (bookkeeping left over).
    pub fn total_history_entries(&self) -> usize {
        (0..self.servers.len())
            .map(|rank| self.server_state(rank).history_len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OpKind;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn crash_then_repair_restores_the_coded_element() {
        let mut cluster = SodaCluster::build(
            ClusterConfig::new(5, 2)
                .with_seed(7)
                .with_initial_value(b"v0".to_vec()),
        );
        let writer = cluster.writers()[0];
        let reader = cluster.readers()[0];
        let value = b"the written value, long enough to split".to_vec();
        cluster.invoke_write_at(t(10), writer, value.clone());
        cluster.run_until(t(500));
        assert_eq!(cluster.completed_ops().len(), 1, "write completed");
        let healthy_element = cluster.server_state(1).stored_element().clone();
        let healthy_tag = cluster.server_state(1).stored_tag();

        cluster.crash_server_at(t(600), 1);
        cluster.run_until(t(700));
        assert_eq!(cluster.dead_or_repairing(), 1);

        cluster.repair_server_at(t(800), 1);
        cluster.run_to_quiescence();
        let repaired = cluster.server_state(1);
        assert!(!repaired.is_repairing());
        assert_eq!(repaired.stored_tag(), healthy_tag);
        assert_eq!(repaired.stored_element().data, healthy_element.data);
        assert_eq!(cluster.dead_or_repairing(), 0);

        // Repair bandwidth: read_threshold coded elements, well under the
        // n·(size/k)+metadata acceptance bound.
        let status = cluster.repair_statuses()[1].clone().expect("was repaired");
        let elem_len = repaired.stored_bytes() as u64;
        let threshold = cluster.soda_config().read_threshold() as u64;
        assert_eq!(status.traffic_bytes, threshold * elem_len);
        assert!(status.traffic_bytes <= cluster.soda_config().n() as u64 * elem_len);
        assert_eq!(cluster.repair_traffic_bytes(), status.traffic_bytes);

        // A read after the repair still returns the written value.
        cluster.invoke_read(reader);
        cluster.run_to_quiescence();
        let ops = cluster.completed_ops();
        let read = ops.iter().find(|op| op.kind == OpKind::Read).unwrap();
        assert_eq!(read.value.as_ref(), Some(&value));
    }

    #[test]
    fn repair_during_inflight_write_reaches_the_replacement() {
        let mut cluster = SodaCluster::build(
            ClusterConfig::new(5, 2)
                .with_seed(11)
                .with_initial_value(b"v0".to_vec()),
        );
        let writer = cluster.writers()[0];
        cluster.crash_server_at(t(5), 0);
        // The write starts while rank 0 is down and its replacement repairs
        // concurrently: the md-value relay must still deliver the new
        // element to the replacement.
        cluster.invoke_write_at(t(10), writer, b"concurrent write".to_vec());
        cluster.repair_server_at(t(12), 0);
        cluster.run_to_quiescence();
        assert_eq!(cluster.completed_ops().len(), 1, "write completed");
        let repaired = cluster.server_state(0);
        assert!(!repaired.is_repairing());
        let write_tag = cluster.server_state(1).stored_tag();
        assert_eq!(repaired.stored_tag(), write_tag);
        assert_eq!(
            repaired.stored_element().data,
            cluster
                .soda_config()
                .code()
                .encode_one(b"concurrent write", 0)
                .unwrap()
                .data
        );
    }

    #[test]
    fn sodaerr_repair_collects_k_plus_2e_elements() {
        let mut cluster = SodaCluster::build(
            ClusterConfig::new(7, 2)
                .with_error_tolerance(1)
                .with_seed(3)
                .with_initial_value(b"seed value".to_vec()),
        );
        let writer = cluster.writers()[0];
        cluster.invoke_write_at(t(10), writer, b"sodaerr repair".to_vec());
        cluster.run_until(t(500));
        cluster.crash_server_at(t(600), 2);
        cluster.repair_server_at(t(700), 2);
        cluster.run_to_quiescence();
        let repaired = cluster.server_state(2);
        assert!(!repaired.is_repairing());
        let status = cluster.repair_statuses()[2].clone().unwrap();
        let elem_len = repaired.stored_bytes() as u64;
        // k + 2e = 3 + 2 elements for [7, 3] SODAerr with e = 1.
        assert_eq!(cluster.soda_config().read_threshold(), 5);
        assert_eq!(status.traffic_bytes, 5 * elem_len);
        assert_eq!(
            repaired.stored_element().data,
            cluster
                .soda_config()
                .code()
                .encode_one(b"sodaerr repair", 2)
                .unwrap()
                .data
        );
    }
}
