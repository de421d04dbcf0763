//! The ABD algorithm (Attiya–Bar-Noy–Dolev), multi-writer multi-reader
//! variant, used as the replication baseline.
//!
//! Every server stores the full `(tag, value)` pair. A write queries a
//! majority for tags, picks the next tag, and stores the value at a majority.
//! A read queries a majority for `(tag, value)` pairs, picks the highest, and
//! *writes it back* to a majority before returning (the write-back is what
//! makes concurrent reads atomic rather than merely regular).
//!
//! Costs (Table I): write cost `n` (a writer's query is answered without the
//! value, so only the store phase carries it), read cost `2n` (every server's
//! value to the reader, then the write-back to every server), total storage
//! cost `n`.

use soda_protocol::{
    value_from, Deployment, Invocation, OpKind, OpQueue, PhaseDriver, ProtocolSpec, Quorum,
    QuorumPhase, QuorumSizes, RepairDriver, RepairStatus, Reply, Tag, Value,
};
use soda_simnet::{Context, Message, Process, ProcessId, Simulation};
use std::sync::Arc;

/// Messages of the ABD protocol.
#[derive(Clone, Debug)]
pub enum AbdMsg {
    /// Ask a writer to write a value.
    InvokeWrite(Value),
    /// Ask a reader to read.
    InvokeRead,
    /// Phase-1 query (from writers and readers alike, and from a
    /// replacement server repairing itself).
    Query {
        /// Operation sequence number local to the client.
        seq: u64,
        /// Whether the answer must carry the stored value. A writer only
        /// needs the tag.
        with_value: bool,
    },
    /// Server response to a query: its stored tag and, if asked for, value.
    QueryResp {
        /// The queried operation.
        seq: u64,
        /// Stored tag.
        tag: Tag,
        /// Stored value, or `None` when the query asked for the tag only.
        value: Option<Value>,
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
            AbdMsg::QueryResp {
                value: Some(value), ..
            }
            | AbdMsg::Store { value, .. } => value.len(),
            _ => 0,
        }
    }
}

/// The phases of an ABD operation. A replacement server's repair runs the
/// query phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbdPhase {
    /// Ask every server for its `(tag, value)`, or its tag alone.
    Query,
    /// Store the written value, or write the read one back.
    Store,
}

/// ABD's thresholds: both phases wait for a majority. A test may shrink the
/// clients' majority (see [`AbdClient::with_quorum`]); a repair never does.
impl QuorumPhase for AbdPhase {
    const QUORUMS: &'static [(AbdPhase, Quorum)] = &[
        (AbdPhase::Query, Quorum::Majority),
        (AbdPhase::Store, Quorum::Majority),
    ];
}

/// The highest query reply so far, with its responder: the highest tag, and
/// of equal tags the highest responder id, so the pick does not depend on
/// the order the replies arrived in.
type MaxReply<V> = Option<(Tag, ProcessId, V)>;

/// Folds a query reply from `from` into `max`.
fn fold_max<V>(max: &mut MaxReply<V>, tag: Tag, from: ProcessId, value: V) {
    if max.as_ref().is_none_or(|&(t, p, _)| (tag, from) > (t, p)) {
        *max = Some((tag, from, value));
    }
}

/// In-flight state re-acquisition of a replacement ABD server.
struct AbdRepair {
    deployment: Arc<Deployment>,
    seq: u64,
    phase: PhaseDriver<AbdPhase>,
    max: MaxReply<Value>,
    driver: RepairDriver,
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
    pub fn replacement(deployment: Arc<Deployment>, epoch: u64) -> Self {
        let mut phase = PhaseDriver::default();
        phase.begin(AbdPhase::Query, epoch, deployment.quorums());
        AbdServer {
            tag: Tag::INITIAL,
            value: value_from(Vec::new()),
            repair: Some(AbdRepair {
                deployment,
                seq: epoch,
                phase,
                max: None,
                driver: RepairDriver::default(),
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
        self.repair.as_ref().is_some_and(|r| r.driver.in_progress())
    }

    /// Repair progress, if this server is (or was) a replacement.
    pub fn repair_status(&self) -> Option<RepairStatus> {
        self.repair.as_ref().map(|r| r.driver.status())
    }
}

impl Process<AbdMsg> for AbdServer {
    fn on_start(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        if let Some(repair) = self.repair.as_mut() {
            let (layout, seq) = (repair.deployment.layout(), repair.seq);
            repair.driver.start(ctx, |ctx| {
                let query = AbdMsg::Query {
                    seq,
                    with_value: true,
                };
                ctx.send_all(layout.peers_of(ctx.self_id()), query)
            });
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, AbdMsg>) {
        if let Some(repair) = self.repair.as_mut() {
            // Duplicate queries are idempotent: the phase driver counts each
            // responder once.
            let (layout, seq) = (repair.deployment.layout(), repair.seq);
            repair.driver.on_timer(token, ctx, |ctx| {
                let query = AbdMsg::Query {
                    seq,
                    with_value: true,
                };
                ctx.send_all(layout.peers_of(ctx.self_id()), query)
            });
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: AbdMsg, ctx: &mut Context<'_, AbdMsg>) {
        match msg {
            AbdMsg::Query { seq, with_value } => {
                if self.is_repairing() {
                    return;
                }
                ctx.send(
                    from,
                    AbdMsg::QueryResp {
                        seq,
                        tag: self.tag,
                        value: with_value.then(|| self.value.clone()),
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
            // Peers' responses to this server's own repair query, which
            // always asks for values.
            AbdMsg::QueryResp {
                seq,
                tag,
                value: Some(value),
            } => {
                let Some(repair) = self.repair.as_mut() else {
                    return;
                };
                if !repair.driver.in_progress() || !repair.phase.is_running(AbdPhase::Query, seq) {
                    return;
                }
                repair.driver.add_traffic(value.len());
                let reply = repair.phase.record(AbdPhase::Query, seq, from);
                if reply != Reply::Ignored {
                    fold_max(&mut repair.max, tag, from, value);
                }
                if reply != Reply::Completed {
                    return;
                }
                let (max_tag, _, max_value) =
                    repair.max.take().expect("a complete quorum is non-empty");
                repair.driver.finish(ctx.now());
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
}

/// An ABD client: performs both writes and reads (the two differ only in how
/// the phase-2 tag/value are chosen and in what is recorded on completion).
pub struct AbdClient {
    deployment: Arc<Deployment>,
    self_id: ProcessId,
    /// The deployment's quorums, every phase's threshold, copied so that a
    /// test may shrink the majority (see [`AbdClient::with_quorum`]).
    quorums: QuorumSizes,
    ops: OpQueue,
    phase: PhaseDriver<AbdPhase>,
    /// The highest `(tag, value)` the query phase has heard so far; taken
    /// when the store phase begins.
    max: MaxReply<Option<Value>>,
    /// The value a read writes back in its store phase, and returns.
    read_value: Option<Value>,
}

impl AbdClient {
    /// Creates a client of `deployment`, whose code is the `k = 1` code: a
    /// full replica.
    pub fn new(deployment: Arc<Deployment>, self_id: ProcessId) -> Self {
        AbdClient {
            quorums: *deployment.quorums(),
            deployment,
            self_id,
            ops: OpQueue::new(self_id),
            phase: PhaseDriver::default(),
            max: None,
            read_value: None,
        }
    }

    /// **Test-only.** Overrides the number of responses each phase waits
    /// for. Anything below a majority breaks the quorum-intersection
    /// argument ABD's atomicity rests on; the schedule-exploration harness
    /// uses this deliberately broken configuration to verify that the
    /// atomicity checker catches non-atomic executions.
    pub fn with_quorum(mut self, quorum: usize) -> Self {
        let n = self.deployment.layout().n();
        self.quorums = self.quorums.with_majority(quorum.clamp(1, n));
        self
    }

    /// The client's operations: those completed and the one in flight. A
    /// write's tag is set when its store phase starts.
    pub fn ops(&self) -> &OpQueue {
        &self.ops
    }

    fn start_next(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        let Some((seq, kind)) = self.ops.start_next(ctx.now()) else {
            return;
        };
        self.phase.begin(AbdPhase::Query, seq, &self.quorums);
        let query = AbdMsg::Query {
            seq,
            with_value: kind.is_read(),
        };
        ctx.send_all(self.deployment.layout().servers().iter().copied(), query);
    }

    fn begin_store(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        let (max_tag, max_value) = self
            .max
            .take()
            .map_or((Tag::INITIAL, None), |(tag, _, value)| (tag, value));
        let (tag, value) = match self.ops.value() {
            Some(written) => (max_tag.next(self.self_id), written.clone()),
            None => {
                let read = max_value.unwrap_or_default();
                self.read_value = Some(read.clone());
                (max_tag, read)
            }
        };
        self.ops.set_tag(tag);
        self.phase
            .begin(AbdPhase::Store, self.ops.seq(), &self.quorums);
        let store = AbdMsg::Store {
            seq: self.ops.seq(),
            tag,
            value,
        };
        ctx.send_all(self.deployment.layout().servers().iter().copied(), store);
    }

    fn complete(&mut self, ctx: &mut Context<'_, AbdMsg>) {
        let tag = self.ops.tag().expect("store tag set");
        self.ops.complete(ctx.now(), tag, self.read_value.take());
        self.phase.end();
        self.start_next(ctx);
    }
}

impl Process<AbdMsg> for AbdClient {
    fn on_message(&mut self, from: ProcessId, msg: AbdMsg, ctx: &mut Context<'_, AbdMsg>) {
        match msg {
            AbdMsg::InvokeWrite(value) => {
                self.ops.push(Invocation::Write(value));
                self.start_next(ctx);
            }
            AbdMsg::InvokeRead => {
                self.ops.push(Invocation::Read);
                self.start_next(ctx);
            }
            AbdMsg::QueryResp { seq, tag, value } => {
                let reply = self.phase.record(AbdPhase::Query, seq, from);
                if reply != Reply::Ignored {
                    fold_max(&mut self.max, tag, from, value);
                }
                if reply == Reply::Completed {
                    self.begin_store(ctx);
                }
            }
            AbdMsg::StoreAck { seq }
                if self.phase.record(AbdPhase::Store, seq, from) == Reply::Completed =>
            {
                self.complete(ctx)
            }
            _ => {}
        }
    }
}

/// ABD's one option, as the cluster harness sees it. ABD itself always uses
/// majority quorums, regardless of the layout's `f`.
pub struct AbdSpec {
    /// **Test-only.** Overrides the per-phase quorum size of every client
    /// (see [`AbdClient::with_quorum`]). `None` uses the correct majority
    /// quorum.
    pub quorum_override: Option<usize>,
}

impl ProtocolSpec for AbdSpec {
    type Msg = AbdMsg;

    fn invoke_write(value: Value) -> AbdMsg {
        AbdMsg::InvokeWrite(value)
    }

    fn invoke_read() -> AbdMsg {
        AbdMsg::InvokeRead
    }

    fn server(
        &self,
        _deployment: &Arc<Deployment>,
        _rank: usize,
        initial: &Value,
    ) -> Box<dyn Process<AbdMsg>> {
        Box::new(AbdServer::new(initial))
    }

    /// A replacement repairs with the deployment's true majority: the
    /// unsound override reaches clients only.
    fn replacement(
        &self,
        deployment: &Arc<Deployment>,
        _rank: usize,
        epoch: u64,
    ) -> Box<dyn Process<AbdMsg>> {
        Box::new(AbdServer::replacement(deployment.clone(), epoch))
    }

    fn client(
        &self,
        deployment: &Arc<Deployment>,
        id: ProcessId,
        _role: OpKind,
    ) -> Box<dyn Process<AbdMsg>> {
        let client = AbdClient::new(deployment.clone(), id);
        Box::new(match self.quorum_override {
            Some(quorum) => client.with_quorum(quorum),
            None => client,
        })
    }

    fn stored_bytes(sim: &Simulation<AbdMsg>, server: ProcessId) -> u64 {
        sim.process_as::<AbdServer>(server)
            .map_or(0, |s| s.stored_bytes() as u64)
    }

    fn repair_status(sim: &Simulation<AbdMsg>, server: ProcessId) -> Option<RepairStatus> {
        sim.process_as::<AbdServer>(server)?.repair_status()
    }

    fn client_ops(sim: &Simulation<AbdMsg>, client: ProcessId) -> Option<&OpQueue> {
        sim.process_as::<AbdClient>(client).map(AbdClient::ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::Layout;
    use soda_simnet::testkit::{deliver, start};
    use soda_simnet::SimTime;

    /// Replication on five servers tolerating two crashes.
    fn deployment() -> Arc<Deployment> {
        let layout = Layout::new((0..5u32).map(ProcessId).collect(), 2);
        Arc::new(Deployment::new(layout, 1, 0))
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn a_client_waits_for_its_threshold_and_ties_go_to_the_highest_responder() {
        let me = ProcessId(7);
        let tag = Tag::new(2, ProcessId(9));
        // A majority of five, then the test-only override, clamped to 1..=n.
        for (quorum, needed) in [(None, 3), (Some(1), 1), (Some(9), 5)] {
            let mut c = AbdClient::new(deployment(), me);
            if let Some(quorum) = quorum {
                c = c.with_quorum(quorum);
            }
            deliver(&mut c, me, t(1), ProcessId::ENV, AbdMsg::InvokeRead);
            // One tag from every server, each with its own value; the
            // highest responder of the first `needed` is not the last.
            let order = [3u32, 4, 2, 1, 0];
            let mut step = None;
            for &server in &order[..needed] {
                let value = Some(value_from(vec![server as u8]));
                let resp = AbdMsg::QueryResp { seq: 1, tag, value };
                step = Some(deliver(&mut c, me, t(2), ProcessId(server), resp));
            }
            let stores = step.unwrap().sends;
            assert_eq!(stores.len(), 5, "quorum {quorum:?}: the store phase began");
            let picked = order[..needed].iter().max().unwrap();
            assert!(stores.iter().all(|(_, m)| matches!(
                m,
                AbdMsg::Store { value, .. } if value[..] == [*picked as u8]
            )));
            for server in 0..needed as u32 {
                assert!(c.ops().completed().is_empty(), "quorum {quorum:?}");
                deliver(&mut c, me, t(3), ProcessId(0), AbdMsg::StoreAck { seq: 1 });
                deliver(
                    &mut c,
                    me,
                    t(3),
                    ProcessId(server),
                    AbdMsg::StoreAck { seq: 1 },
                );
            }
            let read = &c.ops().completed()[0];
            assert_eq!(read.value.as_deref(), Some([*picked as u8].as_slice()));
        }
    }

    #[test]
    fn replacement_adopts_the_majority_maximum_and_charges_its_traffic() {
        let me = ProcessId(0);
        let writer = ProcessId(9);
        let mut s = AbdServer::replacement(deployment(), 3);

        let started = start(&mut s, me, t(10));
        let queried: Vec<ProcessId> = started.sends.iter().map(|(to, _)| *to).collect();
        assert_eq!(queried, (1..5u32).map(ProcessId).collect::<Vec<_>>());
        assert!(started.sends.iter().all(|(_, m)| matches!(
            m,
            AbdMsg::Query {
                seq: 3,
                with_value: true
            }
        )));
        assert_eq!(started.timers.len(), 1, "retry timer armed");

        // Its empty state must not stand in for the crashed server.
        let query = |seq: u64| AbdMsg::Query {
            seq,
            with_value: false,
        };
        let asked = deliver(&mut s, me, t(11), writer, query(1));
        assert!(asked.sends.is_empty());

        let resp = |seq: u64, z: u64| AbdMsg::QueryResp {
            seq,
            tag: Tag::new(z, writer),
            value: Some(value_from(vec![z as u8; 6])),
        };
        // An answer to an earlier incarnation's query is not counted.
        deliver(&mut s, me, t(12), ProcessId(1), resp(2, 99));
        for (peer, z) in [(1u32, 4u64), (2, 7)] {
            deliver(&mut s, me, t(13), ProcessId(peer), resp(3, z));
            assert!(s.is_repairing(), "two answers are no majority of five");
        }
        deliver(&mut s, me, t(14), ProcessId(3), resp(3, 5));

        assert!(!s.is_repairing());
        assert_eq!(s.stored_tag(), Tag::new(7, writer));
        assert_eq!(s.stored_bytes(), 6);
        assert_eq!(
            s.repair_status(),
            Some(RepairStatus {
                started_at: t(10),
                completed_at: Some(t(14)),
                traffic_bytes: 18,
                error: None,
            })
        );
        let asked = deliver(&mut s, me, t(15), writer, query(2));
        assert!(matches!(
            asked.sends[0].1,
            AbdMsg::QueryResp {
                tag,
                value: None,
                ..
            } if tag == Tag::new(7, writer)
        ));
    }
}
