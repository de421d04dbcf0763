//! The CAS and CASGC algorithms (Cadambe, Lynch, Médard, Musial), used as the
//! erasure-coded baseline.
//!
//! CAS uses an `[n, k = n − 2f]` MDS code and quorums of size `n − f` (any two
//! such quorums intersect in at least `k` servers). Servers store coded
//! elements for **multiple versions**, each labelled `pre` (pre-written) or
//! `fin` (finalized):
//!
//! * **write**: query the highest finalized tag from a quorum → pre-write the
//!   coded elements to a quorum → finalize at a quorum.
//! * **read**: query the highest finalized tag `t_r` from a quorum → request
//!   `t_r` from all servers (each responds with its stored element for `t_r`
//!   if it has one) → decode from `k` elements.
//!
//! CASGC adds garbage collection: after a finalize, a server keeps coded
//! elements only for the `δ + 1` highest finalized versions, which bounds the
//! total storage cost at `n/(n−2f) · (δ + 1)` — the rigid bound SODA's elastic
//! per-read cost is compared against in Table I and Section I-B.

use soda_protocol::{
    Deployment, Invocation, OpKind, OpQueue, PhaseDriver, ProtocolSpec, Quorum, QuorumPhase,
    RepairDriver, RepairStatus, Reply, Tag, Value,
};
use soda_rs_code::{CodedElement, MdsCode, Payload};
use soda_simnet::{Context, Message, Process, ProcessId, SimTime, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages of the CAS / CASGC protocol.
#[derive(Clone, Debug)]
pub enum CasMsg {
    /// Ask a client to write a value.
    InvokeWrite(Value),
    /// Ask a client to read.
    InvokeRead,
    /// Query the highest finalized tag.
    QueryTag {
        /// Client-local operation sequence number.
        seq: u64,
    },
    /// Response to [`CasMsg::QueryTag`].
    QueryTagResp {
        /// The queried operation.
        seq: u64,
        /// Highest finalized tag at the responding server.
        tag: Tag,
    },
    /// Pre-write of one coded element.
    PreWrite {
        /// The write operation.
        seq: u64,
        /// Tag being written.
        tag: Tag,
        /// The destination server's coded element.
        element: CodedElement,
    },
    /// Acknowledgement of a pre-write.
    PreWriteAck {
        /// The acknowledged operation.
        seq: u64,
    },
    /// Finalize a tag (from a writer).
    Finalize {
        /// The write operation.
        seq: u64,
        /// Tag to finalize.
        tag: Tag,
    },
    /// Acknowledgement of a finalize.
    FinalizeAck {
        /// The acknowledged operation.
        seq: u64,
    },
    /// Read request for a particular finalized tag.
    ReadFinalize {
        /// The read operation.
        seq: u64,
        /// The tag the reader wants.
        tag: Tag,
    },
    /// Response to [`CasMsg::ReadFinalize`]: the element if the server has it.
    ReadFinalizeResp {
        /// The read operation.
        seq: u64,
        /// The tag requested.
        tag: Tag,
        /// The responding server's element for that tag, if stored.
        element: Option<CodedElement>,
    },
    /// Full-replica state pull from a replacement server (server-to-server).
    RepairPull {
        /// Incarnation number of the pulling replacement.
        seq: u64,
    },
    /// Response to [`CasMsg::RepairPull`]: every version the responder knows,
    /// with its stored coded element (if retained) and finalization flag.
    RepairState {
        /// The pull this responds to.
        seq: u64,
        /// `(tag, element-if-stored, finalized)` triples.
        versions: Vec<(Tag, Option<CodedElement>, bool)>,
    },
}

impl Message for CasMsg {
    fn data_bytes(&self) -> usize {
        match self {
            CasMsg::PreWrite { element, .. } => element.data.len(),
            CasMsg::ReadFinalizeResp {
                element: Some(e), ..
            } => e.data.len(),
            CasMsg::RepairState { versions, .. } => versions
                .iter()
                .filter_map(|(_, e, _)| e.as_ref())
                .map(|e| e.data.len())
                .sum(),
            _ => 0,
        }
    }
}

/// Version label in a server's store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Label {
    Pre,
    Fin,
}

/// The phases of a CAS operation, and the state pull of a replacement
/// server's repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CasPhase {
    /// `query-tag`: ask every server for its highest finalized tag.
    QueryTag,
    /// `pre-write`: send every server its coded element, labelled `pre`.
    PreWrite,
    /// `finalize`: label the written tag `fin` at every server.
    Finalize,
    /// `read-finalize`: label the read tag `fin` and collect its elements.
    ReadValue,
    /// A replacement's pull of every survivor's version store.
    RepairPull,
}

/// CAS's and CASGC's thresholds: every phase waits for a quorum of `n − f`,
/// and any two such quorums intersect in `k = n − 2f` servers. `read-value`
/// also needs `k` elements of its tag, beside the count (see the client's
/// `try_complete_read`).
impl QuorumPhase for CasPhase {
    const QUORUMS: &'static [(CasPhase, Quorum)] = &[
        (CasPhase::QueryTag, Quorum::NMinusF),
        (CasPhase::PreWrite, Quorum::NMinusF),
        (CasPhase::Finalize, Quorum::NMinusF),
        (CasPhase::ReadValue, Quorum::NMinusF),
        (CasPhase::RepairPull, Quorum::NMinusF),
    ];
}

/// In-flight full-replica state transfer of a replacement CAS server.
struct CasRepair {
    seq: u64,
    phase: PhaseDriver<CasPhase>,
    /// Union of survivor state: tag → (elements by index, finalized).
    collected: BTreeMap<Tag, (BTreeMap<usize, CodedElement>, bool)>,
    driver: RepairDriver,
}

/// A CAS / CASGC server.
pub struct CasServer {
    deployment: Arc<Deployment>,
    /// `Some(δ + 1)` keeps at most that many finalized versions (CASGC);
    /// `None` never garbage-collects (plain CAS).
    gc_versions: Option<usize>,
    my_rank: usize,
    /// All known versions: tag → (this rank's element payload if stored,
    /// label). The element's index is always `my_rank`, so only its payload
    /// is kept. CASGC drops every version below its collection's cutoff.
    versions: BTreeMap<Tag, (Option<Payload>, Label)>,
    /// The highest finalized tag, the answer to a `query-tag`; it survives
    /// every collection.
    max_fin: Tag,
    repair: Option<CasRepair>,
}

impl CasServer {
    /// Creates a server holding the initial value's coded element, finalized.
    /// `gc_versions` is CASGC's `δ + 1`, `None` for plain CAS.
    pub fn new(
        deployment: Arc<Deployment>,
        gc_versions: Option<usize>,
        my_rank: usize,
        initial: &Value,
    ) -> Self {
        let element = deployment
            .code()
            .encode_one(initial, my_rank)
            .expect("rank within range");
        let mut versions = BTreeMap::new();
        versions.insert(Tag::INITIAL, (Some(element.data), Label::Fin));
        CasServer {
            deployment,
            gc_versions,
            my_rank,
            versions,
            max_fin: Tag::INITIAL,
            repair: None,
        }
    }

    /// Creates a **replacement** server with empty state that repairs itself
    /// on start by *full-replica state transfer*: it pulls every survivor's
    /// version store, merges labels (`fin` wins) across a quorum of `n − f`
    /// responses, and re-encodes its own coded element for every tag with at
    /// least `k` distinct survivor elements. A finalized write pre-wrote its
    /// elements to a quorum, which intersects the repair quorum in at least
    /// `k = n − 2f` full replicas — so every finalized version is recovered
    /// with both its label and its element.
    ///
    /// Until the repair completes the replacement answers no `query-tag` or
    /// `read-finalize` requests (a missing `fin` label could hide a
    /// finalized write from a reader's quorum maximum), but it applies and
    /// acknowledges pre-writes and finalizes — those are durable and are
    /// preserved by the merge. `epoch` distinguishes incarnations.
    pub fn replacement(
        deployment: Arc<Deployment>,
        gc_versions: Option<usize>,
        my_rank: usize,
        epoch: u64,
    ) -> Self {
        let mut phase = PhaseDriver::default();
        phase.begin(CasPhase::RepairPull, epoch, deployment.quorums());
        CasServer {
            deployment,
            gc_versions,
            my_rank,
            versions: BTreeMap::new(),
            max_fin: Tag::INITIAL,
            repair: Some(CasRepair {
                seq: epoch,
                phase,
                collected: BTreeMap::new(),
                driver: RepairDriver::default(),
            }),
        }
    }

    /// Whether this server is a replacement whose repair has not finished.
    pub fn is_repairing(&self) -> bool {
        self.repair.as_ref().is_some_and(|r| r.driver.in_progress())
    }

    /// Repair progress, if this server is (or was) a replacement.
    pub fn repair_status(&self) -> Option<RepairStatus> {
        self.repair.as_ref().map(|r| r.driver.status())
    }

    /// Merges the collected survivor state into the local store once a
    /// quorum of `repair-state` responses has arrived: labels first, then a
    /// collection, then this rank's element of each version the collection
    /// kept, decoded from `k` survivor elements and re-encoded. A version
    /// below the cutoff would be dropped as soon as it was re-encoded, so it
    /// is never decoded.
    fn finish_repair(&mut self, now: SimTime) {
        let Some(repair) = self.repair.as_mut() else {
            return;
        };
        repair.driver.finish(now);
        let collected = std::mem::take(&mut repair.collected);
        for (&tag, &(_, fin)) in &collected {
            let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
            if fin {
                entry.1 = Label::Fin;
                self.max_fin = self.max_fin.max(tag);
            }
        }
        self.garbage_collect();
        let code = self.deployment.code();
        for (tag, (elements, _)) in collected {
            // Concurrent pre-writes during the repair already stored this
            // rank's own element; never overwrite it.
            let Some(entry) = self.versions.get_mut(&tag) else {
                continue;
            };
            if entry.0.is_none() && elements.len() >= code.k() {
                let elems: Vec<CodedElement> = elements.into_values().collect();
                if let Ok(value) = code.decode(&elems) {
                    entry.0 = code.encode_one(&value, self.my_rank).ok().map(|e| e.data);
                }
            }
        }
    }

    /// Bytes of coded-element data currently stored (across all versions).
    pub fn stored_bytes(&self) -> usize {
        self.versions
            .values()
            .filter_map(|(e, _)| e.as_ref())
            .map(|e| e.len())
            .sum()
    }

    /// Number of versions whose coded element is still stored.
    pub fn stored_versions(&self) -> usize {
        self.versions.values().filter(|(e, _)| e.is_some()).count()
    }

    /// The stored element payload of every version that keeps one, by tag.
    pub fn stored_payloads(&self) -> impl Iterator<Item = (Tag, &Payload)> {
        (self.versions.iter()).filter_map(|(&tag, (payload, _))| Some((tag, payload.as_ref()?)))
    }

    /// Labels `tag` finalized and returns its entry.
    fn finalize(&mut self, tag: Tag) -> &mut (Option<Payload>, Label) {
        self.max_fin = self.max_fin.max(tag);
        let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
        entry.1 = Label::Fin;
        entry
    }

    /// CASGC garbage collection: keep only the `δ + 1` highest finalized
    /// versions and the versions above the lowest of them, the cutoff; every
    /// version below it goes, entry and all. A version that arrives below
    /// the cutoff later (a late pre-write) goes at the next collection. The
    /// cutoff and `max_fin` are kept, so the cutoff only rises and tag
    /// queries keep their answers.
    fn garbage_collect(&mut self) {
        let Some(keep) = self.gc_versions else {
            return;
        };
        let Some(cutoff) = (self.versions.iter().rev())
            .filter(|(_, (_, label))| *label == Label::Fin)
            .nth(keep.max(1) - 1)
            .map(|(tag, _)| *tag)
        else {
            return;
        };
        // In place: a `split_off` would allocate a tree per collection.
        while let Some(oldest) = self.versions.first_entry().filter(|e| *e.key() < cutoff) {
            oldest.remove();
        }
    }
}

impl Process<CasMsg> for CasServer {
    fn on_start(&mut self, ctx: &mut Context<'_, CasMsg>) {
        if let Some(repair) = self.repair.as_mut() {
            let (layout, seq) = (self.deployment.layout(), repair.seq);
            repair.driver.start(ctx, |ctx| {
                ctx.send_all(layout.peers_of(ctx.self_id()), CasMsg::RepairPull { seq })
            });
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, CasMsg>) {
        if let Some(repair) = self.repair.as_mut() {
            // Duplicate pulls are idempotent for state: the collected map
            // merges by tag and element index, and the phase driver counts
            // each responder once.
            let (layout, seq) = (self.deployment.layout(), repair.seq);
            repair.driver.on_timer(token, ctx, |ctx| {
                ctx.send_all(layout.peers_of(ctx.self_id()), CasMsg::RepairPull { seq })
            });
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: CasMsg, ctx: &mut Context<'_, CasMsg>) {
        match msg {
            // A replacement under repair answers no tag queries and serves no
            // reads: its missing `fin` labels could hide a finalized write
            // from a quorum maximum. With at most `f` dead-or-repairing
            // servers the `n − f` full replicas still form a quorum.
            CasMsg::QueryTag { seq } => {
                if self.is_repairing() {
                    return;
                }
                ctx.send(
                    from,
                    CasMsg::QueryTagResp {
                        seq,
                        tag: self.max_fin,
                    },
                );
            }
            CasMsg::PreWrite { seq, tag, element } => {
                let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
                entry.0.get_or_insert(element.data);
                ctx.send(from, CasMsg::PreWriteAck { seq });
            }
            CasMsg::Finalize { seq, tag } => {
                self.finalize(tag);
                self.garbage_collect();
                ctx.send(from, CasMsg::FinalizeAck { seq });
            }
            CasMsg::ReadFinalize { seq, tag } => {
                if self.is_repairing() {
                    return;
                }
                let rank = self.my_rank;
                let element = (self.finalize(tag).0.clone()).map(|p| CodedElement::new(rank, p));
                self.garbage_collect();
                ctx.send(from, CasMsg::ReadFinalizeResp { seq, tag, element });
            }
            CasMsg::RepairPull { seq } => {
                // A repairing server has no authoritative state to transfer.
                if self.is_repairing() {
                    return;
                }
                let versions: Vec<(Tag, Option<CodedElement>, bool)> = self
                    .versions
                    .iter()
                    .map(|(&tag, (payload, label))| {
                        let element = payload.clone().map(|p| CodedElement::new(self.my_rank, p));
                        (tag, element, *label == Label::Fin)
                    })
                    .collect();
                ctx.send(from, CasMsg::RepairState { seq, versions });
            }
            CasMsg::RepairState { seq, versions } => {
                {
                    let Some(repair) = self.repair.as_mut() else {
                        return;
                    };
                    if !repair.driver.in_progress()
                        || !repair.phase.is_running(CasPhase::RepairPull, seq)
                    {
                        return;
                    }
                    // A repeated responder's versions are merged too: a
                    // retry's answer may know more.
                    for (tag, element, fin) in versions {
                        let entry = repair.collected.entry(tag).or_default();
                        entry.1 |= fin;
                        if let Some(element) = element {
                            repair.driver.add_traffic(element.data.len());
                            entry.0.insert(element.index, element);
                        }
                    }
                    if repair.phase.record(CasPhase::RepairPull, seq, from) != Reply::Completed {
                        return;
                    }
                }
                self.finish_repair(ctx.now());
            }
            _ => {}
        }
    }
}

/// A CAS / CASGC client performing both writes and reads.
pub struct CasClient {
    deployment: Arc<Deployment>,
    self_id: ProcessId,
    ops: OpQueue,
    phase: PhaseDriver<CasPhase>,
    /// The highest finalized tag the tag query has heard so far.
    max_tag: Tag,
    read_elements: BTreeMap<usize, CodedElement>,
}

impl CasClient {
    /// Creates a client of `deployment`.
    pub fn new(deployment: Arc<Deployment>, self_id: ProcessId) -> Self {
        CasClient {
            deployment,
            self_id,
            ops: OpQueue::new(self_id),
            phase: PhaseDriver::default(),
            max_tag: Tag::INITIAL,
            read_elements: BTreeMap::new(),
        }
    }

    /// The client's operations: those completed and the one in flight. A
    /// write's tag is set when its pre-write phase starts.
    pub fn ops(&self) -> &OpQueue {
        &self.ops
    }

    /// The same operations, mutably, for
    /// [`ProtocolSpec::client_ops_mut`].
    pub fn ops_mut(&mut self) -> &mut OpQueue {
        &mut self.ops
    }

    fn start_next(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let Some((seq, _)) = self.ops.start_next(ctx.now()) else {
            return;
        };
        self.phase
            .begin(CasPhase::QueryTag, seq, self.deployment.quorums());
        self.max_tag = Tag::INITIAL;
        ctx.send_all(self.servers(), CasMsg::QueryTag { seq });
    }

    fn servers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.deployment.layout().servers().iter().copied()
    }

    fn after_tag_query(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let (max_tag, seq) = (self.max_tag, self.ops.seq());
        match self.ops.value().cloned() {
            None => {
                self.ops.set_tag(max_tag);
                self.phase
                    .begin(CasPhase::ReadValue, seq, self.deployment.quorums());
                self.read_elements.clear();
                ctx.send_all(self.servers(), CasMsg::ReadFinalize { seq, tag: max_tag });
            }
            Some(value) => {
                let tag = max_tag.next(self.self_id);
                self.ops.set_tag(tag);
                self.phase
                    .begin(CasPhase::PreWrite, seq, self.deployment.quorums());
                // Data elements inside the value are views of its buffer,
                // which the writer's log keeps anyway.
                let elements = self.deployment.code().encode_shared(&value);
                for (server, element) in self.servers().zip(elements) {
                    ctx.send(server, CasMsg::PreWrite { seq, tag, element });
                }
            }
        }
    }

    fn begin_finalize(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let seq = self.ops.seq();
        self.phase
            .begin(CasPhase::Finalize, seq, self.deployment.quorums());
        let tag = self.ops.tag().expect("finalize requires a tag");
        ctx.send_all(self.servers(), CasMsg::Finalize { seq, tag });
    }

    fn try_complete_read(&mut self, ctx: &mut Context<'_, CasMsg>) {
        if !self.phase.reached() || self.read_elements.len() < self.deployment.k() {
            return;
        }
        let elements: Vec<CodedElement> = self.read_elements.values().cloned().collect();
        let value = self
            .deployment
            .code()
            .decode(&elements)
            .expect("quorum intersection provides k consistent elements");
        self.complete(Some(value), ctx);
    }

    /// Completes the operation in flight: `read` is the value a read
    /// returns, `None` for a write.
    fn complete(&mut self, read: Option<Value>, ctx: &mut Context<'_, CasMsg>) {
        let tag = self.ops.tag().expect("tag set");
        self.ops.complete(ctx.now(), tag, read);
        self.phase.end();
        self.read_elements.clear();
        self.start_next(ctx);
    }
}

impl Process<CasMsg> for CasClient {
    fn on_message(&mut self, from: ProcessId, msg: CasMsg, ctx: &mut Context<'_, CasMsg>) {
        match msg {
            CasMsg::InvokeWrite(value) => {
                self.ops.push(Invocation::Write(value));
                self.start_next(ctx);
            }
            CasMsg::InvokeRead => {
                self.ops.push(Invocation::Read);
                self.start_next(ctx);
            }
            CasMsg::QueryTagResp { seq, tag } => {
                let reply = self.phase.record(CasPhase::QueryTag, seq, from);
                if reply != Reply::Ignored {
                    self.max_tag = self.max_tag.max(tag);
                }
                if reply == Reply::Completed {
                    self.after_tag_query(ctx);
                }
            }
            CasMsg::PreWriteAck { seq }
                if self.phase.record(CasPhase::PreWrite, seq, from) == Reply::Completed =>
            {
                self.begin_finalize(ctx)
            }
            CasMsg::FinalizeAck { seq }
                if self.phase.record(CasPhase::Finalize, seq, from) == Reply::Completed =>
            {
                self.complete(None, ctx)
            }
            // A repeated responder's element is kept too: it may hold the
            // element now. The read completes once the quorum has answered
            // and `k` elements are in, whichever comes last.
            CasMsg::ReadFinalizeResp { seq, tag, element }
                if self.phase.is_running(CasPhase::ReadValue, seq)
                    && Some(tag) == self.ops.tag() =>
            {
                self.phase.record(CasPhase::ReadValue, seq, from);
                if let Some(element) = element {
                    self.read_elements.insert(element.index, element);
                }
                self.try_complete_read(ctx);
            }
            _ => {}
        }
    }
}

/// CAS's or CASGC's one option, as the cluster harness sees it.
pub struct CasSpec {
    /// `Some(δ + 1)` keeps at most that many finalized versions at every
    /// server (CASGC); `None` never garbage-collects (plain CAS).
    pub gc_versions: Option<usize>,
}

impl ProtocolSpec for CasSpec {
    type Msg = CasMsg;

    fn invoke_write(value: Value) -> CasMsg {
        CasMsg::InvokeWrite(value)
    }

    fn invoke_read() -> CasMsg {
        CasMsg::InvokeRead
    }

    fn server(
        &self,
        deployment: &Arc<Deployment>,
        rank: usize,
        initial: &Value,
    ) -> Box<dyn Process<CasMsg>> {
        let server = CasServer::new(deployment.clone(), self.gc_versions, rank, initial);
        Box::new(server)
    }

    fn replacement(
        &self,
        deployment: &Arc<Deployment>,
        rank: usize,
        epoch: u64,
    ) -> Box<dyn Process<CasMsg>> {
        let server = CasServer::replacement(deployment.clone(), self.gc_versions, rank, epoch);
        Box::new(server)
    }

    fn client(
        &self,
        deployment: &Arc<Deployment>,
        id: ProcessId,
        _role: OpKind,
    ) -> Box<dyn Process<CasMsg>> {
        Box::new(CasClient::new(deployment.clone(), id))
    }

    fn stored_bytes(sim: &Simulation<CasMsg>, server: ProcessId) -> u64 {
        sim.process_as::<CasServer>(server)
            .map_or(0, |s| s.stored_bytes() as u64)
    }

    fn repair_status(sim: &Simulation<CasMsg>, server: ProcessId) -> Option<RepairStatus> {
        sim.process_as::<CasServer>(server)?.repair_status()
    }

    fn client_ops(sim: &Simulation<CasMsg>, client: ProcessId) -> Option<&OpQueue> {
        sim.process_as::<CasClient>(client).map(CasClient::ops)
    }

    fn client_ops_mut(sim: &mut Simulation<CasMsg>, client: ProcessId) -> Option<&mut OpQueue> {
        sim.process_as_mut::<CasClient>(client)
            .map(CasClient::ops_mut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::{value_from, Layout};
    use soda_simnet::testkit::{deliver, start};

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    /// CAS on five servers tolerating one crash: `k = n − 2f = 3`, quorums
    /// of four.
    fn deployment() -> Arc<Deployment> {
        let layout = Layout::new((0..5u32).map(ProcessId).collect(), 1);
        Arc::new(Deployment::new(layout, 3, 0))
    }

    #[test]
    fn replacement_merges_a_quorum_of_survivor_state_and_reencodes_its_element() {
        let me = ProcessId(0);
        let writer = ProcessId(9);
        let deployment = deployment();
        let mut s = CasServer::replacement(deployment.clone(), None, 0, 2);

        let started = start(&mut s, me, t(10));
        assert_eq!(started.sends.len(), 4, "pulls from every peer");
        assert!(started
            .sends
            .iter()
            .all(|(_, m)| matches!(m, CasMsg::RepairPull { seq: 2 })));
        assert_eq!(started.timers.len(), 1, "retry timer armed");

        // Its missing `fin` labels must not enter a quorum maximum.
        let asked = deliver(&mut s, me, t(11), writer, CasMsg::QueryTag { seq: 1 });
        assert!(asked.sends.is_empty());

        let tag = Tag::new(1, writer);
        let value = value_from(b"a finalized value".to_vec());
        let elements = deployment.code().encode(&value).unwrap();
        let elem_len = elements[0].data.len();
        // Three survivors hold the element; only one has seen the finalize.
        for peer in 1..=4usize {
            let element = elements.get(peer).filter(|_| peer <= 3).cloned();
            let versions = vec![(tag, element, peer == 2)];
            assert!(s.is_repairing());
            deliver(
                &mut s,
                me,
                t(12),
                ProcessId(peer as u32),
                CasMsg::RepairState { seq: 2, versions },
            );
        }

        assert!(!s.is_repairing());
        let status = s.repair_status().unwrap();
        assert_eq!(status.completed_at, Some(t(12)));
        assert_eq!(status.traffic_bytes, 3 * elem_len as u64);
        assert!(!status.failed());
        // `fin` wins the merge, and rank 0's own element was re-encoded.
        let asked = deliver(&mut s, me, t(13), writer, CasMsg::QueryTag { seq: 1 });
        assert!(matches!(
            asked.sends[0].1,
            CasMsg::QueryTagResp { tag: max, .. } if max == tag
        ));
        let read = CasMsg::ReadFinalize { seq: 1, tag };
        let served = deliver(&mut s, me, t(14), writer, read);
        match &served.sends[0].1 {
            CasMsg::ReadFinalizeResp { element, .. } => {
                assert_eq!(element.as_ref().unwrap().data, elements[0].data);
            }
            other => panic!("expected a read-finalize response, got {other:?}"),
        }
    }

    #[test]
    fn garbage_collection_matches_the_full_scan_rule() {
        use soda_simnet::rng::SimRng;
        use std::collections::BTreeSet;
        /// A version as the reference sees it: element stored, label.
        type Model = BTreeMap<Tag, (bool, Label)>;
        /// The cutoff of a collection: the `keep`-th highest finalized tag,
        /// found by scanning every version; `None` while fewer are finalized.
        fn cutoff(model: &Model, keep: usize) -> Option<Tag> {
            let mut fin: Vec<Tag> = (model.iter())
                .filter(|(_, (_, label))| *label == Label::Fin)
                .map(|(tag, _)| *tag)
                .collect();
            fin.sort_unstable_by(|a, b| b.cmp(a));
            fin.get(keep - 1).copied()
        }
        /// The rule the collection must keep: drop every version below the
        /// cutoff.
        fn full_scan(model: &mut Model, keep: usize) {
            if let Some(cutoff) = cutoff(model, keep) {
                model.retain(|tag, _| *tag >= cutoff);
            }
        }
        // Whether `tag` lies below the last collection's cutoff.
        let below = |model: &Model, keep: usize, tag: Tag| cutoff(model, keep) > Some(tag);
        let (me, client) = (ProcessId(0), ProcessId(9));
        let deployment = deployment();
        let value = value_from(b"one value for every version".to_vec());
        for (keep, replacement) in [(1, false), (2, false), (3, false), (2, true)] {
            let elements = deployment.code().encode(&value).unwrap();
            let elem_len = elements[0].data.len();
            let name = format!("keep {keep}, replacement {replacement}");
            let (mut server, mut model) = if replacement {
                let mut server = CasServer::replacement(deployment.clone(), Some(keep), 0, 1);
                start(&mut server, me, t(0));
                (server, Model::new())
            } else {
                let server = CasServer::new(deployment.clone(), Some(keep), 0, &value);
                (server, Model::from([(Tag::INITIAL, (true, Label::Fin))]))
            };
            let mut rng = SimRng::new(keep as u64 + 10 * replacement as u64);
            let (mut top, mut below_floor) = (1u64, 0);
            // Mostly at the newest versions, sometimes far behind them.
            let random_tag = |rng: &mut SimRng, top: &mut u64| {
                *top += u64::from(rng.gen_bool(0.2));
                let top = *top;
                let z = if rng.gen_bool(0.15) {
                    rng.gen_range(1..top + 1)
                } else {
                    top.saturating_sub(rng.gen_range(0..3u64)).max(1)
                };
                Tag::new(z, ProcessId(rng.gen_range(1..3u64) as u32))
            };
            for step in 0..2000u64 {
                let tag = random_tag(&mut rng, &mut top);
                let now = t(step + 1);
                match rng.gen_range(0..3u64) {
                    0 => {
                        let late = below(&model, keep, tag);
                        let entry = model.entry(tag).or_insert((false, Label::Pre));
                        below_floor += usize::from(!entry.0 && late);
                        entry.0 = true;
                        let element = elements[0].clone();
                        let msg = CasMsg::PreWrite {
                            seq: 1,
                            tag,
                            element,
                        };
                        deliver(&mut server, me, now, client, msg);
                    }
                    1 => {
                        model.entry(tag).or_insert((false, Label::Pre)).1 = Label::Fin;
                        full_scan(&mut model, keep);
                        deliver(
                            &mut server,
                            me,
                            now,
                            client,
                            CasMsg::Finalize { seq: 1, tag },
                        );
                    }
                    _ if server.is_repairing() => {
                        let msg = CasMsg::ReadFinalize { seq: 1, tag };
                        let served = deliver(&mut server, me, now, client, msg);
                        assert!(
                            served.sends.is_empty(),
                            "{name}: a repairing server serves no read"
                        );
                    }
                    _ => {
                        let entry = model.entry(tag).or_insert((false, Label::Pre));
                        entry.1 = Label::Fin;
                        let stored = entry.0;
                        full_scan(&mut model, keep);
                        let msg = CasMsg::ReadFinalize { seq: 1, tag };
                        let served = deliver(&mut server, me, now, client, msg);
                        assert!(matches!(
                            &served.sends[0].1,
                            CasMsg::ReadFinalizeResp { element, .. } if element.is_some() == stored
                        ));
                    }
                }
                // The replacement's repair: a quorum of survivors answers with
                // most versions so far, and the merge re-encodes every version
                // with `k` survivor elements that the server does not hold,
                // many of them below the floor.
                if replacement && step == 400 {
                    let floor = cutoff(&model, keep);
                    let mut collected: BTreeMap<Tag, (BTreeSet<usize>, bool)> = BTreeMap::new();
                    // Every peer but this server's rank 0, each with its own element.
                    for (peer, own) in elements.iter().enumerate().skip(1) {
                        let tags =
                            (1..=top).flat_map(|z| [1, 2].map(|w| Tag::new(z, ProcessId(w))));
                        let mut versions = Vec::new();
                        for tag in tags {
                            if rng.gen_bool(0.8) {
                                let element = rng.gen_bool(0.8).then(|| own.clone());
                                versions.push((tag, element, rng.gen_bool(0.3)));
                            }
                        }
                        for (tag, element, fin) in &versions {
                            let entry = collected.entry(*tag).or_default();
                            if element.is_some() {
                                entry.0.insert(peer);
                            }
                            entry.1 |= fin;
                        }
                        let msg = CasMsg::RepairState { seq: 1, versions };
                        deliver(&mut server, me, now, ProcessId(peer as u32), msg);
                    }
                    assert!(!server.is_repairing(), "{name}: the quorum answered");
                    for (tag, (peers, fin)) in collected {
                        let entry = model.entry(tag).or_insert((false, Label::Pre));
                        if fin {
                            entry.1 = Label::Fin;
                        }
                        if !entry.0 && peers.len() >= deployment.k() {
                            entry.0 = true;
                            below_floor += usize::from(floor > Some(tag));
                        }
                    }
                    full_scan(&mut model, keep);
                }
                let versions: Vec<_> = (server.versions.iter())
                    .map(|(tag, (element, label))| (*tag, element.is_some(), *label))
                    .collect();
                let expected: Vec<_> = (model.iter())
                    .map(|(tag, (element, label))| (*tag, *element, *label))
                    .collect();
                assert_eq!(versions, expected, "{name}: step {step}");
                let stored = model.values().filter(|(element, _)| *element).count();
                assert_eq!(
                    server.stored_bytes(),
                    stored * elem_len,
                    "{name}: step {step}"
                );
                if !server.is_repairing() {
                    let asked = deliver(&mut server, me, now, client, CasMsg::QueryTag { seq: 1 });
                    let max_fin = (model.iter().rev())
                        .find(|(_, (_, label))| *label == Label::Fin)
                        .map_or(Tag::INITIAL, |(tag, _)| *tag);
                    assert!(
                        matches!(asked.sends[0].1, CasMsg::QueryTagResp { tag, .. } if tag == max_fin),
                        "{name}: step {step}"
                    );
                }
            }
            assert!(
                below_floor > 20,
                "{name}: {below_floor} pre-writes below the floor"
            );
        }
    }

    /// A replacement decodes only the versions its closing collection keeps
    /// and ends holding exactly what its earlier merge left, which decoded
    /// and re-encoded every collected version and then collected. That merge
    /// is kept here as the reference.
    #[test]
    fn a_repair_decodes_only_the_versions_it_keeps_and_ends_as_decoding_all() {
        use soda_simnet::rng::SimRng;
        type Versions = BTreeMap<Tag, (Option<Payload>, Label)>;
        type Collected = BTreeMap<Tag, (BTreeMap<usize, CodedElement>, bool)>;
        /// The earlier merge. Returns the versions and how many re-encoded
        /// elements the collection dropped.
        fn decode_everything(
            mut versions: Versions,
            collected: Collected,
            keep: Option<usize>,
            code: &soda_rs_code::VandermondeCode,
        ) -> (Versions, usize) {
            let mut encoded = Vec::new();
            for (tag, (elements, fin)) in collected {
                let entry = versions.entry(tag).or_insert((None, Label::Pre));
                if fin {
                    entry.1 = Label::Fin;
                }
                if entry.0.is_none() && elements.len() >= code.k() {
                    let elems: Vec<CodedElement> = elements.into_values().collect();
                    if let Ok(value) = code.decode(&elems) {
                        entry.0 = code.encode_one(&value, 0).ok().map(|e| e.data);
                        encoded.push(tag);
                    }
                }
            }
            let cutoff = keep.and_then(|keep| {
                (versions.iter().rev())
                    .filter(|(_, (_, label))| *label == Label::Fin)
                    .nth(keep - 1)
                    .map(|(tag, _)| *tag)
            });
            if let Some(cutoff) = cutoff {
                versions.retain(|tag, _| *tag >= cutoff);
            }
            let dropped = encoded.iter().filter(|tag| Some(**tag) < cutoff).count();
            (versions, dropped)
        }
        let (me, client) = (ProcessId(0), ProcessId(9));
        let deployment = deployment();
        let value_of = |tag: Tag| value_from(format!("the value of {tag:?}").into_bytes());
        for keep in [None, Some(1), Some(2), Some(3)] {
            let mut dropped_in_all = 0;
            for seed in 0..20u64 {
                let name = format!("keep {keep:?}, seed {seed}");
                let mut rng = SimRng::new(seed);
                let mut server = CasServer::replacement(deployment.clone(), keep, 0, 1);
                start(&mut server, me, t(0));
                let tags: Vec<Tag> = (1..=12u64)
                    .flat_map(|z| [1, 2].map(|w| Tag::new(z, ProcessId(w))))
                    .collect();
                // Writes that reach the replacement while it repairs: their
                // elements must survive the merge.
                for (seq, &tag) in (1..).zip(&tags) {
                    if !rng.gen_bool(0.2) {
                        continue;
                    }
                    let element = deployment.code().encode_one(&value_of(tag), 0).unwrap();
                    let pre_write = CasMsg::PreWrite { seq, tag, element };
                    deliver(&mut server, me, t(1), client, pre_write);
                    if rng.gen_bool(0.5) {
                        deliver(&mut server, me, t(1), client, CasMsg::Finalize { seq, tag });
                    }
                }
                let before = server.versions.clone();
                let mut collected = Collected::new();
                for peer in 1..=4usize {
                    let mut versions = Vec::new();
                    for &tag in &tags {
                        if rng.gen_bool(0.8) {
                            let element = rng.gen_bool(0.8).then(|| {
                                deployment.code().encode_one(&value_of(tag), peer).unwrap()
                            });
                            let fin = rng.gen_bool(0.4);
                            let entry = collected.entry(tag).or_default();
                            entry.1 |= fin;
                            if let Some(element) = &element {
                                entry.0.insert(peer, element.clone());
                            }
                            versions.push((tag, element, fin));
                        }
                    }
                    let msg = CasMsg::RepairState { seq: 1, versions };
                    deliver(&mut server, me, t(2), ProcessId(peer as u32), msg);
                }
                assert!(!server.is_repairing(), "{name}: the quorum answered");
                let (expected, dropped) =
                    decode_everything(before, collected, keep, deployment.code());
                assert_eq!(server.versions, expected, "{name}");
                let max_fin = (expected.iter().rev())
                    .find(|(_, (_, label))| *label == Label::Fin)
                    .map_or(Tag::INITIAL, |(tag, _)| *tag);
                assert_eq!(server.max_fin, max_fin, "{name}");
                dropped_in_all += dropped;
            }
            // The reference re-encodes versions its collection then drops,
            // except under plain CAS, which never collects.
            assert_eq!(
                dropped_in_all > 100,
                keep.is_some(),
                "keep {keep:?}: {dropped_in_all}"
            );
        }
    }

    #[test]
    fn a_casgc_server_holds_at_most_its_kept_versions() {
        let (me, client) = (ProcessId(0), ProcessId(9));
        let deployment = deployment();
        let value = value_from(b"v".to_vec());
        let element = deployment.code().encode_one(&value, 0).unwrap();
        let keep = 3;
        let mut server = CasServer::new(deployment, Some(keep), 0, &value);
        for z in 1..=10_000u64 {
            let (seq, tag) = (z, Tag::new(z, client));
            let element = element.clone();
            let pre_write = CasMsg::PreWrite { seq, tag, element };
            deliver(&mut server, me, t(z), client, pre_write);
            deliver(&mut server, me, t(z), client, CasMsg::Finalize { seq, tag });
        }
        assert!(server.versions.len() <= keep, "{}", server.versions.len());
        assert_eq!(server.stored_versions(), keep);
    }
}
