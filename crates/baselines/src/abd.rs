//! The ABD algorithm (Attiya–Bar-Noy–Dolev), multi-writer multi-reader
//! variant, used as the replication baseline.
//!
//! Every server stores the full `(tag, value)` pair. A write queries a
//! majority for tags, picks the next tag, and stores the value at a majority.
//! A read queries a majority for `(tag, value)` pairs, picks the highest, and
//! *writes it back* to a majority before returning (the write-back is what
//! makes concurrent reads atomic rather than merely regular).
//!
//! Costs (Table I): write cost `n`, read cost `n` (the value travels to/from
//! every server in the worst case), total storage cost `n`.

use soda_protocol::{value_from, Layout, QuorumTracker, Tag, Value};
use soda_simnet::{
    Context, Message, NetworkConfig, Process, ProcessId, RunOutcome, SimTime, Simulation, Stats,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Messages of the ABD protocol.
#[derive(Clone, Debug)]
pub enum AbdMsg {
    /// Ask a writer to write a value.
    InvokeWrite(Value),
    /// Ask a reader to read.
    InvokeRead,
    /// Phase-1 query (from writers and readers alike).
    Query {
        /// Operation sequence number local to the client.
        seq: u64,
    },
    /// Server response to a query: its stored tag and value.
    QueryResp {
        /// The queried operation.
        seq: u64,
        /// Stored tag.
        tag: Tag,
        /// Stored value (this is what makes ABD reads cost `n`).
        value: Value,
    },
    /// Phase-2 store request carrying the full value.
    Store {
        /// The operation this store belongs to.
        seq: u64,
        /// Tag to store under.
        tag: Tag,
        /// Full replicated value.
        value: Value,
    },
    /// Server acknowledgement of a store.
    StoreAck {
        /// The operation being acknowledged.
        seq: u64,
    },
}

impl Message for AbdMsg {
    fn data_bytes(&self) -> usize {
        match self {
            AbdMsg::QueryResp { value, .. } | AbdMsg::Store { value, .. } => value.len(),
            _ => 0,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            AbdMsg::InvokeWrite(_) => "invoke-write",
            AbdMsg::InvokeRead => "invoke-read",
            AbdMsg::Query { .. } => "query",
            AbdMsg::QueryResp { .. } => "query-resp",
            AbdMsg::Store { .. } => "store",
            AbdMsg::StoreAck { .. } => "store-ack",
        }
    }
}

/// A completed ABD operation (mirrors `soda::OpRecord` but lives here to keep
/// the baseline crate independent of the SODA core).
#[derive(Clone, Debug)]
pub struct AbdOpRecord {
    /// Per-client sequence number.
    pub seq: u64,
    /// True if this was a read.
    pub is_read: bool,
    /// Invocation time.
    pub invoked_at: SimTime,
    /// Response time.
    pub completed_at: SimTime,
    /// The tag associated with the operation.
    pub tag: Tag,
    /// Written or returned value.
    pub value: Vec<u8>,
}

/// In-flight state re-acquisition of a replacement ABD server.
struct AbdRepair {
    layout: Layout,
    seq: u64,
    tracker: QuorumTracker<(Tag, Value)>,
    started_at: SimTime,
    completed_at: Option<SimTime>,
    traffic_bytes: u64,
    /// Fan-out attempts so far (the initial send counts as one).
    attempts: u32,
    /// The retry budget ran out with the survivors unreachable; the
    /// replacement halted itself and the rank is plain dead again.
    failed: bool,
}

/// The ABD server: stores the full `(tag, value)` pair.
pub struct AbdServer {
    tag: Tag,
    value: Value,
    repair: Option<AbdRepair>,
}

impl AbdServer {
    /// Creates a server holding the initial value.
    pub fn new(initial: &Value) -> Self {
        AbdServer {
            tag: Tag::INITIAL,
            value: initial.clone(),
            repair: None,
        }
    }

    /// Creates a **replacement** server with empty state that repairs itself
    /// on start: it queries every peer, waits for a majority of responses and
    /// adopts the maximum `(tag, value)` pair. A majority of survivors
    /// intersects every completed write's store quorum in at least one full
    /// replica, so the adopted pair is at least as new as any completed
    /// write — the same argument that makes ABD reads atomic.
    ///
    /// Until the repair completes the replacement answers no queries (its
    /// `Tag::INITIAL` could otherwise stand in for the crashed server in a
    /// reader's majority and hide a completed write), but it applies and
    /// acknowledges stores — a stored pair is durable from that moment on.
    /// `epoch` distinguishes successive incarnations of the same rank.
    pub fn replacement(layout: Layout, epoch: u64) -> Self {
        let majority = layout.majority();
        AbdServer {
            tag: Tag::INITIAL,
            value: value_from(Vec::new()),
            repair: Some(AbdRepair {
                layout,
                seq: epoch,
                tracker: QuorumTracker::new(majority),
                started_at: SimTime::ZERO,
                completed_at: None,
                traffic_bytes: 0,
                attempts: 0,
                failed: false,
            }),
        }
    }

    /// Bytes of value data stored (storage-cost contribution).
    pub fn stored_bytes(&self) -> usize {
        self.value.len()
    }

    /// The stored tag.
    pub fn stored_tag(&self) -> Tag {
        self.tag
    }

    /// Whether this server is a replacement whose repair has not finished.
    pub fn is_repairing(&self) -> bool {
        matches!(&self.repair, Some(r) if r.completed_at.is_none() && !r.failed)
    }

    /// Whether this replacement gave up (retry budget exhausted with the
    /// survivors unreachable) and halted itself.
    pub fn repair_failed(&self) -> bool {
        matches!(&self.repair, Some(r) if r.failed)
    }

    /// Repair progress, if this server is (or was) a replacement.
    pub fn repair_status(&self) -> Option<crate::RepairStatus> {
        self.repair.as_ref().map(|r| crate::RepairStatus {
            started_at: r.started_at,
            completed_at: r.completed_at,
            traffic_bytes: r.traffic_bytes,
            failed: r.failed,
        })
    }

    /// Sends (or re-sends) the repair query fan-out to every peer.
    fn send_repair_queries(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        let Some(repair) = self.repair.as_ref() else {
            return;
        };
        let seq = repair.seq;
        let peers: Vec<ProcessId> = repair
            .layout
            .servers()
            .iter()
            .copied()
            .filter(|&p| p != ctx.self_id())
            .collect();
        for peer in peers {
            ctx.send(peer, AbdMsg::Query { seq });
        }
    }
}

impl Process<AbdMsg> for AbdServer {
    fn on_start(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        {
            let Some(repair) = self.repair.as_mut() else {
                return;
            };
            repair.started_at = ctx.now();
            repair.attempts = 1;
        }
        self.send_repair_queries(ctx);
        ctx.set_timer(crate::REPAIR_RETRY_INTERVAL, crate::REPAIR_RETRY_TOKEN);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, AbdMsg>) {
        if token != crate::REPAIR_RETRY_TOKEN {
            return;
        }
        {
            let Some(repair) = self.repair.as_mut() else {
                return;
            };
            if repair.completed_at.is_some() || repair.failed {
                return;
            }
            if repair.attempts >= crate::REPAIR_MAX_ATTEMPTS {
                // Survivors unreachable for the whole retry budget: give up
                // and halt, reverting the rank to plain dead so the
                // crash-budget slot can be reclaimed by a later repair.
                repair.failed = true;
                ctx.halt();
                return;
            }
            repair.attempts += 1;
        }
        // Duplicate queries are idempotent: the quorum tracker records each
        // responder once.
        self.send_repair_queries(ctx);
        ctx.set_timer(crate::REPAIR_RETRY_INTERVAL, crate::REPAIR_RETRY_TOKEN);
    }

    fn on_message(&mut self, from: ProcessId, msg: AbdMsg, ctx: &mut Context<'_, AbdMsg>) {
        match msg {
            AbdMsg::Query { seq } => {
                if self.is_repairing() {
                    return;
                }
                ctx.send(
                    from,
                    AbdMsg::QueryResp {
                        seq,
                        tag: self.tag,
                        value: self.value.clone(),
                    },
                );
            }
            AbdMsg::Store { seq, tag, value } => {
                if tag > self.tag {
                    self.tag = tag;
                    self.value = value;
                }
                ctx.send(from, AbdMsg::StoreAck { seq });
            }
            // Peers' responses to this server's own repair query.
            AbdMsg::QueryResp { seq, tag, value } => {
                let Some(repair) = self.repair.as_mut() else {
                    return;
                };
                if repair.completed_at.is_some() || seq != repair.seq {
                    return;
                }
                repair.traffic_bytes += value.len() as u64;
                repair.tracker.record(from, (tag, value));
                if !repair.tracker.is_complete() {
                    return;
                }
                let (max_tag, max_value) = repair
                    .tracker
                    .responses()
                    .max_by_key(|(_, (tag, _))| *tag)
                    .map(|(_, (tag, value))| (*tag, value.clone()))
                    .expect("a complete quorum is non-empty");
                repair.completed_at = Some(ctx.now());
                // Monotone adoption: a concurrent write's store may already
                // have installed a newer pair.
                if max_tag > self.tag {
                    self.tag = max_tag;
                    self.value = max_value;
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Phase of an in-flight ABD client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbdPhase {
    Idle,
    Query,
    Store,
}

enum PendingOp {
    Write(Value),
    Read,
}

/// An ABD client: performs both writes and reads (the two differ only in how
/// the phase-2 tag/value are chosen and in what is recorded on completion).
pub struct AbdClient {
    layout: Layout,
    self_id: ProcessId,
    /// Responses each phase waits for. Always `layout.majority()` in correct
    /// deployments; see [`AbdClient::with_quorum`].
    quorum: usize,
    phase: AbdPhase,
    pending: VecDeque<PendingOp>,
    seq: u64,
    current_is_read: bool,
    current_value: Option<Value>,
    invoked_at: SimTime,
    store_tag: Option<Tag>,
    store_value: Option<Value>,
    query_tracker: QuorumTracker<(Tag, Value)>,
    ack_tracker: QuorumTracker<()>,
    completed: Vec<AbdOpRecord>,
}

impl AbdClient {
    /// Creates a client for the given layout.
    pub fn new(layout: Layout, self_id: ProcessId) -> Self {
        let majority = layout.majority();
        AbdClient {
            layout,
            self_id,
            quorum: majority,
            phase: AbdPhase::Idle,
            pending: VecDeque::new(),
            seq: 0,
            current_is_read: false,
            current_value: None,
            invoked_at: SimTime::ZERO,
            store_tag: None,
            store_value: None,
            query_tracker: QuorumTracker::new(majority),
            ack_tracker: QuorumTracker::new(majority),
            completed: Vec::new(),
        }
    }

    /// **Test-only.** Overrides the number of responses each phase waits
    /// for. Anything below `layout.majority()` breaks the quorum-intersection
    /// argument ABD's atomicity rests on; the schedule-exploration harness
    /// uses this deliberately broken configuration to verify that the
    /// atomicity checker catches non-atomic executions.
    pub fn with_quorum(mut self, quorum: usize) -> Self {
        self.quorum = quorum.clamp(1, self.layout.n());
        self
    }

    /// Completed operations in completion order.
    pub fn completed_ops(&self) -> &[AbdOpRecord] {
        &self.completed
    }

    /// The in-flight *write*, if one exists: `(seq, invoked_at, tag, value)`
    /// where the tag is `None` until the store phase starts (before that, no
    /// server has seen the value, so no read can have observed it). Needed to
    /// close operation histories under crash/network faults. In-flight reads
    /// are not reported: an unfinished read returns nothing.
    pub fn in_flight_write(&self) -> Option<(u64, SimTime, Option<Tag>, Vec<u8>)> {
        if self.phase == AbdPhase::Idle || self.current_is_read {
            return None;
        }
        let value = self
            .current_value
            .as_ref()
            .expect("an in-flight write always carries its value")
            .to_vec();
        Some((self.seq, self.invoked_at, self.store_tag, value))
    }

    fn start_next(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        if self.phase != AbdPhase::Idle {
            return;
        }
        let Some(op) = self.pending.pop_front() else {
            return;
        };
        self.seq += 1;
        self.invoked_at = ctx.now();
        match op {
            PendingOp::Write(value) => {
                self.current_is_read = false;
                self.current_value = Some(value);
            }
            PendingOp::Read => {
                self.current_is_read = true;
                self.current_value = None;
            }
        }
        self.phase = AbdPhase::Query;
        self.query_tracker = QuorumTracker::new(self.quorum);
        for &server in self.layout.servers() {
            ctx.send(server, AbdMsg::Query { seq: self.seq });
        }
    }

    fn begin_store(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        let (max_tag, max_value) = self
            .query_tracker
            .responses()
            .max_by_key(|(_, (tag, _))| *tag)
            .map(|(_, (tag, value))| (*tag, value.clone()))
            .unwrap_or((Tag::INITIAL, value_from(Vec::new())));
        let (tag, value) = if self.current_is_read {
            (max_tag, max_value)
        } else {
            (
                max_tag.next(self.self_id),
                self.current_value.clone().expect("write has a value"),
            )
        };
        self.store_tag = Some(tag);
        self.store_value = Some(value.clone());
        self.phase = AbdPhase::Store;
        self.ack_tracker = QuorumTracker::new(self.quorum);
        for &server in self.layout.servers() {
            ctx.send(
                server,
                AbdMsg::Store {
                    seq: self.seq,
                    tag,
                    value: value.clone(),
                },
            );
        }
    }

    fn complete(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        let record = AbdOpRecord {
            seq: self.seq,
            is_read: self.current_is_read,
            invoked_at: self.invoked_at,
            completed_at: ctx.now(),
            tag: self.store_tag.take().expect("store tag set"),
            value: self
                .store_value
                .take()
                .map(|v| v.to_vec())
                .unwrap_or_default(),
        };
        self.completed.push(record);
        self.phase = AbdPhase::Idle;
        self.current_value = None;
        self.start_next(ctx);
    }
}

impl Process<AbdMsg> for AbdClient {
    fn on_message(&mut self, from: ProcessId, msg: AbdMsg, ctx: &mut Context<'_, AbdMsg>) {
        match msg {
            AbdMsg::InvokeWrite(value) => {
                self.pending.push_back(PendingOp::Write(value));
                self.start_next(ctx);
            }
            AbdMsg::InvokeRead => {
                self.pending.push_back(PendingOp::Read);
                self.start_next(ctx);
            }
            AbdMsg::QueryResp { seq, tag, value }
                if self.phase == AbdPhase::Query && seq == self.seq =>
            {
                self.query_tracker.record(from, (tag, value));
                if self.query_tracker.is_complete() {
                    self.begin_store(ctx);
                }
            }
            AbdMsg::StoreAck { seq } if self.phase == AbdPhase::Store && seq == self.seq => {
                self.ack_tracker.record(from, ());
                if self.ack_tracker.is_complete() {
                    self.complete(ctx);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Parameters of an ABD deployment.
///
/// This replaces the former six-positional-argument `AbdCluster::build`
/// signature. Application code should not use it directly: build clusters
/// through `soda_registry::ClusterBuilder`, which validates parameters and
/// returns the protocol-agnostic `RegisterCluster` facade.
#[derive(Clone, Debug)]
pub struct AbdParams {
    /// Number of servers.
    pub n: usize,
    /// Number of server crashes the experiments inject (ABD itself always
    /// uses majority quorums regardless of `f`).
    pub f: usize,
    /// Number of clients (each performs both writes and reads).
    pub num_clients: usize,
    /// RNG seed controlling message delays.
    pub seed: u64,
    /// Network delay configuration.
    pub network: NetworkConfig,
    /// The initial object value `v0`.
    pub initial_value: Vec<u8>,
    /// **Test-only.** Overrides the per-phase quorum size of every client
    /// (see [`AbdClient::with_quorum`]). `None` (the default) uses the
    /// correct majority quorum.
    pub quorum_override: Option<usize>,
}

impl AbdParams {
    /// Parameters for an `(n, f)` cluster with two clients, seed 0, uniform
    /// delays in `[1, 10]` and an empty initial value.
    pub fn new(n: usize, f: usize) -> Self {
        AbdParams {
            n,
            f,
            num_clients: 2,
            seed: 0,
            network: NetworkConfig::uniform(10),
            initial_value: Vec::new(),
            quorum_override: None,
        }
    }
}

/// A complete simulated ABD deployment.
pub struct AbdCluster {
    sim: Simulation<AbdMsg>,
    layout: Layout,
    servers: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    /// Per-rank incarnation counter for replacement servers.
    epochs: Vec<u64>,
}

impl AbdCluster {
    /// Builds the cluster described by `params`.
    pub fn build(params: AbdParams) -> Self {
        let AbdParams {
            n,
            f,
            num_clients,
            seed,
            network,
            initial_value,
            quorum_override,
        } = params;
        let mut sim = Simulation::new(seed, network);
        let server_ids: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
        let layout = Layout::new(server_ids.clone(), f);
        let initial = value_from(initial_value);
        for _ in 0..n {
            sim.add_process(Box::new(AbdServer::new(&initial)));
        }
        let mut clients = Vec::new();
        for _ in 0..num_clients {
            let id = ProcessId(sim.num_processes() as u32);
            let mut client = AbdClient::new(layout.clone(), id);
            if let Some(q) = quorum_override {
                client = client.with_quorum(q);
            }
            sim.add_process(Box::new(client));
            clients.push(id);
        }
        let epochs = vec![0; n];
        AbdCluster {
            sim,
            layout,
            servers: server_ids,
            clients,
            epochs,
        }
    }

    /// Client process ids.
    pub fn clients(&self) -> &[ProcessId] {
        &self.clients
    }

    /// Server process ids.
    pub fn servers(&self) -> &[ProcessId] {
        &self.servers
    }

    /// Queues a write at client `client`.
    pub fn invoke_write(&mut self, client: ProcessId, value: Vec<u8>) {
        self.sim
            .send_external(client, AbdMsg::InvokeWrite(value_from(value)));
    }

    /// Queues a write at a given simulated time.
    pub fn invoke_write_at(&mut self, at: SimTime, client: ProcessId, value: Vec<u8>) {
        self.sim
            .send_external_at(at, client, AbdMsg::InvokeWrite(value_from(value)));
    }

    /// Queues a read at client `client`.
    pub fn invoke_read(&mut self, client: ProcessId) {
        self.sim.send_external(client, AbdMsg::InvokeRead);
    }

    /// Queues a read at a given simulated time.
    pub fn invoke_read_at(&mut self, at: SimTime, client: ProcessId) {
        self.sim.send_external_at(at, client, AbdMsg::InvokeRead);
    }

    /// Crashes the server with the given rank.
    pub fn crash_server_at(&mut self, at: SimTime, rank: usize) {
        let id = self.servers[rank];
        self.sim.schedule_crash(at, id);
    }

    /// Crashes an arbitrary process (e.g. a client) at time `at`.
    pub fn crash_process_at(&mut self, at: SimTime, id: ProcessId) {
        self.sim.schedule_crash(at, id);
    }

    /// Schedules the repair of the server with the given rank at time `at`:
    /// a fresh replacement adopts the majority-maximum `(tag, value)` pair
    /// from survivors (see [`AbdServer::replacement`]).
    pub fn repair_server_at(&mut self, at: SimTime, rank: usize) {
        self.epochs[rank] += 1;
        let replacement = AbdServer::replacement(self.layout.clone(), self.epochs[rank]);
        self.sim
            .schedule_recovery(at, self.servers[rank], Box::new(replacement));
    }

    /// Number of servers currently dead **or under repair**.
    pub fn dead_or_repairing(&self) -> usize {
        self.servers
            .iter()
            .filter(|&&id| {
                self.sim.is_crashed(id)
                    || self
                        .sim
                        .process_as::<AbdServer>(id)
                        .is_some_and(|s| s.is_repairing())
            })
            .count()
    }

    /// Repair status of rank `rank`'s current incarnation (`None` for a
    /// server that was never replaced).
    ///
    /// # Panics
    /// Panics if `rank` is not a server rank of this cluster.
    pub fn repair_status(&self, rank: usize) -> Option<crate::RepairStatus> {
        self.sim
            .process_as::<AbdServer>(self.servers[rank])
            .and_then(|s| s.repair_status())
    }

    /// Runs until quiescent.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.sim.run_to_quiescence()
    }

    /// Runs the simulation until the given deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Message statistics.
    pub fn stats(&self) -> Stats {
        self.sim.stats()
    }

    /// All completed operations across clients, ordered by completion time.
    pub fn completed_ops(&self) -> Vec<AbdOpRecord> {
        let mut ops: Vec<AbdOpRecord> = self
            .clients
            .iter()
            .filter_map(|&c| self.sim.process_as::<AbdClient>(c))
            .flat_map(|c| c.completed_ops().iter().cloned())
            .collect();
        ops.sort_by_key(|op| op.completed_at);
        ops
    }

    /// In-flight writes of every client, as `(client, seq, invoked_at, tag,
    /// value)` tuples (see [`AbdClient::in_flight_write`]).
    pub fn pending_writes(&self) -> Vec<crate::PendingWriteInfo> {
        self.clients
            .iter()
            .filter_map(|&c| {
                let client = self.sim.process_as::<AbdClient>(c)?;
                let (seq, invoked_at, tag, value) = client.in_flight_write()?;
                Some((c, seq, invoked_at, tag, value))
            })
            .collect()
    }

    /// The operations one client has completed, in the order it completed
    /// them — its append-only log, which is also `seq` order because a
    /// client runs one operation at a time. Empty for a process that is not
    /// a client of this cluster.
    pub fn client_records(&self, client: ProcessId) -> &[AbdOpRecord] {
        self.sim
            .process_as::<AbdClient>(client)
            .map_or(&[], AbdClient::completed_ops)
    }

    /// Bytes of value data stored at each server, by rank.
    pub fn stored_bytes_per_server(&self) -> Vec<u64> {
        self.stored_bytes_by_rank().collect()
    }

    /// Total bytes of value data stored across all servers.
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes_by_rank().sum()
    }

    fn stored_bytes_by_rank(&self) -> impl Iterator<Item = u64> + '_ {
        self.servers.iter().map(|&s| {
            self.sim
                .process_as::<AbdServer>(s)
                .map_or(0, |s| s.stored_bytes() as u64)
        })
    }

    /// Immutable access to the underlying simulation.
    pub fn sim(&self) -> &Simulation<AbdMsg> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<AbdMsg> {
        &mut self.sim
    }
}

/// Shared-pointer alias used by the workload adapters.
pub type SharedLayout = Arc<Layout>;
