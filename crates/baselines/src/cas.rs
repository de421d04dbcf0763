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
    Invocation, Layout, OpKind, OpQueue, PhaseDriver, ProtocolSpec, RepairDriver, RepairStatus,
    Reply, Tag, Value,
};
use soda_rs_code::{CodedElement, MdsCode, VandermondeCode};
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

/// Shared configuration of a CAS / CASGC deployment.
pub struct CasConfig {
    layout: Layout,
    code: VandermondeCode,
    /// `Some(δ + 1)` keeps at most that many finalized versions with elements
    /// (CASGC); `None` never garbage-collects (plain CAS).
    gc_versions: Option<usize>,
}

impl CasConfig {
    /// Creates the configuration. `f` is the number of tolerated crashes; the
    /// code dimension is `k = n − 2f`.
    ///
    /// # Panics
    /// Panics if `n − 2f < 1`.
    pub fn new(layout: Layout, gc_versions: Option<usize>) -> Arc<Self> {
        let n = layout.n();
        let f = layout.f();
        assert!(n > 2 * f, "CAS requires n > 2f");
        let code = VandermondeCode::new(n, n - 2 * f).expect("valid CAS code parameters");
        Arc::new(CasConfig {
            layout,
            code,
            gc_versions,
        })
    }

    /// Code dimension `k = n − 2f`.
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// The system layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The erasure code.
    pub fn code(&self) -> &VandermondeCode {
        &self.code
    }
}

/// The phases of a CAS operation, and the state pull of a replacement
/// server's repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CasPhase {
    QueryTag,
    PreWrite,
    Finalize,
    ReadValue,
    RepairPull,
}

impl CasPhase {
    /// The replies `self` waits for: CAS's thresholds, written once. Every
    /// phase waits for a quorum of `n − f`, and any two such quorums
    /// intersect in `k = n − 2f` servers. `read-value` also needs `k`
    /// elements of its tag, beside the count (see
    /// [`CasClient::try_complete_read`]).
    fn needed(self, layout: &Layout) -> usize {
        match self {
            CasPhase::QueryTag
            | CasPhase::PreWrite
            | CasPhase::Finalize
            | CasPhase::ReadValue
            | CasPhase::RepairPull => layout.n() - layout.f(),
        }
    }
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
    config: Arc<CasConfig>,
    my_rank: usize,
    /// All known versions: tag → (element if stored, label).
    versions: BTreeMap<Tag, (Option<CodedElement>, Label)>,
    /// The highest finalized tag, the answer to a `query-tag`.
    max_fin: Tag,
    /// CASGC: the cutoff of the last collection. No version below it holds
    /// an element, except those in `late`.
    gc_floor: Tag,
    /// Versions below `gc_floor` that received an element since the last
    /// collection (a late pre-write, or a repair's re-encoding); the next
    /// collection clears them, as it clears every version below its cutoff.
    late: Vec<Tag>,
    repair: Option<CasRepair>,
}

impl CasServer {
    /// Creates a server holding the initial value's coded element, finalized.
    pub fn new(config: Arc<CasConfig>, my_rank: usize, initial: &Value) -> Self {
        let element = config
            .code
            .encode_one(initial, my_rank)
            .expect("rank within range");
        let mut versions = BTreeMap::new();
        versions.insert(Tag::INITIAL, (Some(element), Label::Fin));
        CasServer {
            config,
            my_rank,
            versions,
            max_fin: Tag::INITIAL,
            gc_floor: Tag::INITIAL,
            late: Vec::new(),
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
    pub fn replacement(config: Arc<CasConfig>, my_rank: usize, epoch: u64) -> Self {
        let mut phase = PhaseDriver::default();
        let needed = CasPhase::RepairPull.needed(config.layout());
        phase.begin(CasPhase::RepairPull, epoch, needed);
        CasServer {
            config,
            my_rank,
            versions: BTreeMap::new(),
            max_fin: Tag::INITIAL,
            gc_floor: Tag::INITIAL,
            late: Vec::new(),
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
    /// quorum of `repair-state` responses has arrived.
    fn finish_repair(&mut self, now: SimTime) {
        let Some(repair) = self.repair.as_mut() else {
            return;
        };
        repair.driver.finish(now);
        let collected = std::mem::take(&mut repair.collected);
        let k = self.config.k();
        for (tag, (elements, fin)) in collected {
            let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
            if fin {
                entry.1 = Label::Fin;
                self.max_fin = self.max_fin.max(tag);
            }
            // Concurrent pre-writes during the repair already stored this
            // rank's own element; never overwrite it.
            if entry.0.is_none() && elements.len() >= k {
                let elems: Vec<CodedElement> = elements.into_values().collect();
                if let Ok(value) = self.config.code.decode(&elems) {
                    entry.0 = self.config.code.encode_one(&value, self.my_rank).ok();
                    if tag < self.gc_floor {
                        self.late.push(tag);
                    }
                }
            }
        }
        self.garbage_collect();
    }

    /// Bytes of coded-element data currently stored (across all versions).
    pub fn stored_bytes(&self) -> usize {
        self.versions
            .values()
            .filter_map(|(e, _)| e.as_ref())
            .map(|e| e.data.len())
            .sum()
    }

    /// Number of versions whose coded element is still stored.
    pub fn stored_versions(&self) -> usize {
        self.versions.values().filter(|(e, _)| e.is_some()).count()
    }

    /// Labels `tag` finalized and returns its entry.
    fn finalize(&mut self, tag: Tag) -> &mut (Option<CodedElement>, Label) {
        self.max_fin = self.max_fin.max(tag);
        let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
        entry.1 = Label::Fin;
        entry
    }

    /// CASGC garbage collection: keep elements only for the `δ + 1` highest
    /// finalized versions (and any pre-written versions newer than the cutoff).
    /// Finalized tags only accumulate, so the cutoff only rises: a collection
    /// walks down from the newest version to the cutoff and clears the
    /// versions between the last cutoff and this one, plus the late ones.
    fn garbage_collect(&mut self) {
        let Some(keep) = self.config.gc_versions else {
            return;
        };
        let Some(cutoff) = (self.versions.iter().rev())
            .filter(|(_, (_, label))| *label == Label::Fin)
            .nth(keep.max(1) - 1)
            .map(|(tag, _)| *tag)
        else {
            return;
        };
        for (_, (element, _)) in self.versions.range_mut(self.gc_floor..cutoff) {
            *element = None;
        }
        for tag in self.late.drain(..) {
            if let Some((element, _)) = self.versions.get_mut(&tag) {
                *element = None;
            }
        }
        self.gc_floor = cutoff;
    }
}

impl Process<CasMsg> for CasServer {
    fn on_start(&mut self, ctx: &mut Context<'_, CasMsg>) {
        if let Some(repair) = self.repair.as_mut() {
            let (layout, seq) = (self.config.layout(), repair.seq);
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
            let (layout, seq) = (self.config.layout(), repair.seq);
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
                if entry.0.is_none() {
                    entry.0 = Some(element);
                    if tag < self.gc_floor {
                        self.late.push(tag);
                    }
                }
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
                let element = self.finalize(tag).0.clone();
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
                    .map(|(&tag, (element, label))| (tag, element.clone(), *label == Label::Fin))
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

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A CAS / CASGC client performing both writes and reads.
pub struct CasClient {
    config: Arc<CasConfig>,
    self_id: ProcessId,
    ops: OpQueue,
    phase: PhaseDriver<CasPhase>,
    /// The highest finalized tag the tag query has heard so far.
    max_tag: Tag,
    read_elements: BTreeMap<usize, CodedElement>,
}

impl CasClient {
    /// Creates a client.
    pub fn new(config: Arc<CasConfig>, self_id: ProcessId) -> Self {
        CasClient {
            config,
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

    fn start_next(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let Some((seq, _)) = self.ops.start_next(ctx.now()) else {
            return;
        };
        self.begin(CasPhase::QueryTag);
        self.max_tag = Tag::INITIAL;
        ctx.send_all(self.servers(), CasMsg::QueryTag { seq });
    }

    /// Starts `phase` of the operation in flight.
    fn begin(&mut self, phase: CasPhase) {
        let needed = phase.needed(self.config.layout());
        self.phase.begin(phase, self.ops.seq(), needed);
    }

    fn servers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.config.layout().servers().iter().copied()
    }

    fn after_tag_query(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let (max_tag, seq) = (self.max_tag, self.ops.seq());
        match self.ops.value().cloned() {
            None => {
                self.ops.set_tag(max_tag);
                self.begin(CasPhase::ReadValue);
                self.read_elements.clear();
                ctx.send_all(self.servers(), CasMsg::ReadFinalize { seq, tag: max_tag });
            }
            Some(value) => {
                let tag = max_tag.next(self.self_id);
                self.ops.set_tag(tag);
                self.begin(CasPhase::PreWrite);
                let elements = self
                    .config
                    .code()
                    .encode(&value)
                    .expect("encoding never fails for valid parameters");
                for (server, element) in self.servers().zip(elements) {
                    ctx.send(server, CasMsg::PreWrite { seq, tag, element });
                }
            }
        }
    }

    fn begin_finalize(&mut self, ctx: &mut Context<'_, CasMsg>) {
        self.begin(CasPhase::Finalize);
        let seq = self.ops.seq();
        let tag = self.ops.tag().expect("finalize requires a tag");
        ctx.send_all(self.servers(), CasMsg::Finalize { seq, tag });
    }

    fn try_complete_read(&mut self, ctx: &mut Context<'_, CasMsg>) {
        if !self.phase.reached() || self.read_elements.len() < self.config.k() {
            return;
        }
        let elements: Vec<CodedElement> = self.read_elements.values().cloned().collect();
        let value = self
            .config
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

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One CAS / CASGC deployment, as the cluster harness sees it.
pub struct CasSpec {
    /// The shared configuration (layout, code, garbage-collection depth).
    pub config: Arc<CasConfig>,
}

impl ProtocolSpec for CasSpec {
    type Msg = CasMsg;

    fn invoke_write(value: Value) -> CasMsg {
        CasMsg::InvokeWrite(value)
    }

    fn invoke_read() -> CasMsg {
        CasMsg::InvokeRead
    }

    fn server(&self, rank: usize, initial: &Value) -> Box<dyn Process<CasMsg>> {
        Box::new(CasServer::new(self.config.clone(), rank, initial))
    }

    fn replacement(&self, rank: usize, epoch: u64) -> Box<dyn Process<CasMsg>> {
        Box::new(CasServer::replacement(self.config.clone(), rank, epoch))
    }

    fn client(&self, id: ProcessId, _role: OpKind) -> Box<dyn Process<CasMsg>> {
        Box::new(CasClient::new(self.config.clone(), id))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::value_from;
    use soda_simnet::testkit::{deliver, start};

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn replacement_merges_a_quorum_of_survivor_state_and_reencodes_its_element() {
        let me = ProcessId(0);
        let writer = ProcessId(9);
        let layout = Layout::new((0..5u32).map(ProcessId).collect(), 1);
        let config = CasConfig::new(layout, None); // k = 3, quorum = 4
        let mut s = CasServer::replacement(config.clone(), 0, 2);

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
        let elements = config.code().encode(&value).unwrap();
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
        /// The rule the collection must keep: clear every element below the
        /// `keep`-th highest finalized tag, found by scanning every version.
        fn full_scan(model: &mut Model, keep: usize) {
            let mut fin: Vec<Tag> = (model.iter())
                .filter(|(_, (_, label))| *label == Label::Fin)
                .map(|(tag, _)| *tag)
                .collect();
            fin.sort_unstable_by(|a, b| b.cmp(a));
            let Some(&cutoff) = fin.get(keep.saturating_sub(1).min(fin.len().saturating_sub(1)))
            else {
                return;
            };
            if fin.len() < keep {
                return;
            }
            for (tag, (element, _)) in model.iter_mut() {
                if *tag < cutoff {
                    *element = false;
                }
            }
        }
        let (me, client) = (ProcessId(0), ProcessId(9));
        let layout = Layout::new((0..5u32).map(ProcessId).collect(), 1); // k = 3
        let value = value_from(b"one value for every version".to_vec());
        for (keep, replacement) in [(1, false), (2, false), (3, false), (2, true)] {
            let config = CasConfig::new(layout.clone(), Some(keep));
            let elements = config.code().encode(&value).unwrap();
            let elem_len = elements[0].data.len();
            let name = format!("keep {keep}, replacement {replacement}");
            let (mut server, mut model) = if replacement {
                let mut server = CasServer::replacement(config.clone(), 0, 1);
                start(&mut server, me, t(0));
                (server, Model::new())
            } else {
                let server = CasServer::new(config.clone(), 0, &value);
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
                        let entry = model.entry(tag).or_insert((false, Label::Pre));
                        below_floor += usize::from(!entry.0 && tag < server.gc_floor);
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
                    let floor = server.gc_floor;
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
                        if !entry.0 && peers.len() >= config.k() {
                            entry.0 = true;
                            below_floor += usize::from(tag < floor);
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
}
