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

use soda_protocol::{value_from, Layout, QuorumTracker, Tag, Value};
use soda_rs_code::{CodedElement, MdsCode, VandermondeCode};
use soda_simnet::{
    Context, Message, NetworkConfig, Process, ProcessId, RunOutcome, SimTime, Simulation, Stats,
};
use std::collections::{BTreeMap, VecDeque};
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

    fn kind(&self) -> &'static str {
        match self {
            CasMsg::InvokeWrite(_) => "invoke-write",
            CasMsg::InvokeRead => "invoke-read",
            CasMsg::QueryTag { .. } => "query-tag",
            CasMsg::QueryTagResp { .. } => "query-tag-resp",
            CasMsg::PreWrite { .. } => "pre-write",
            CasMsg::PreWriteAck { .. } => "pre-write-ack",
            CasMsg::Finalize { .. } => "finalize",
            CasMsg::FinalizeAck { .. } => "finalize-ack",
            CasMsg::ReadFinalize { .. } => "read-finalize",
            CasMsg::ReadFinalizeResp { .. } => "read-finalize-resp",
            CasMsg::RepairPull { .. } => "repair-pull",
            CasMsg::RepairState { .. } => "repair-state",
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

    /// The quorum size `n − f`.
    pub fn quorum(&self) -> usize {
        self.layout.n() - self.layout.f()
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

/// A completed CAS operation.
#[derive(Clone, Debug)]
pub struct CasOpRecord {
    /// Per-client sequence number.
    pub seq: u64,
    /// True if this was a read.
    pub is_read: bool,
    /// Invocation time.
    pub invoked_at: SimTime,
    /// Response time.
    pub completed_at: SimTime,
    /// Tag associated with the operation.
    pub tag: Tag,
    /// Written or returned value.
    pub value: Vec<u8>,
}

/// In-flight full-replica state transfer of a replacement CAS server.
struct CasRepair {
    seq: u64,
    responses: QuorumTracker<()>,
    /// Union of survivor state: tag → (elements by index, finalized).
    collected: BTreeMap<Tag, (BTreeMap<usize, CodedElement>, bool)>,
    started_at: SimTime,
    completed_at: Option<SimTime>,
    traffic_bytes: u64,
    /// Fan-out attempts so far (the initial send counts as one).
    attempts: u32,
    /// The retry budget ran out with the survivors unreachable; the
    /// replacement halted itself and the rank is plain dead again.
    failed: bool,
}

/// A CAS / CASGC server.
pub struct CasServer {
    config: Arc<CasConfig>,
    my_rank: usize,
    /// All known versions: tag → (element if stored, label).
    versions: BTreeMap<Tag, (Option<CodedElement>, Label)>,
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
        let quorum = config.quorum();
        CasServer {
            config,
            my_rank,
            versions: BTreeMap::new(),
            repair: Some(CasRepair {
                seq: epoch,
                responses: QuorumTracker::new(quorum),
                collected: BTreeMap::new(),
                started_at: SimTime::ZERO,
                completed_at: None,
                traffic_bytes: 0,
                attempts: 0,
                failed: false,
            }),
        }
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

    /// Sends (or re-sends) the repair pull fan-out to every peer.
    fn send_repair_pulls(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let Some(repair) = self.repair.as_ref() else {
            return;
        };
        let seq = repair.seq;
        let peers: Vec<ProcessId> = self
            .config
            .layout()
            .servers()
            .iter()
            .copied()
            .filter(|&p| p != ctx.self_id())
            .collect();
        for peer in peers {
            ctx.send(peer, CasMsg::RepairPull { seq });
        }
    }

    /// Merges the collected survivor state into the local store once a
    /// quorum of `repair-state` responses has arrived.
    fn finish_repair(&mut self, now: SimTime) {
        let Some(repair) = self.repair.as_mut() else {
            return;
        };
        repair.completed_at = Some(now);
        let collected = std::mem::take(&mut repair.collected);
        let k = self.config.k();
        for (tag, (elements, fin)) in collected {
            let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
            if fin {
                entry.1 = Label::Fin;
            }
            // Concurrent pre-writes during the repair already stored this
            // rank's own element; never overwrite it.
            if entry.0.is_none() && elements.len() >= k {
                let elems: Vec<CodedElement> = elements.into_values().collect();
                if let Ok(value) = self.config.code.decode(&elems) {
                    entry.0 = self.config.code.encode_one(&value, self.my_rank).ok();
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

    /// The highest finalized tag.
    fn max_fin_tag(&self) -> Tag {
        self.versions
            .iter()
            .filter(|(_, (_, label))| *label == Label::Fin)
            .map(|(tag, _)| *tag)
            .max()
            .unwrap_or(Tag::INITIAL)
    }

    /// CASGC garbage collection: keep elements only for the `δ + 1` highest
    /// finalized versions (and any pre-written versions newer than the cutoff).
    fn garbage_collect(&mut self) {
        let Some(keep) = self.config.gc_versions else {
            return;
        };
        let mut fin_tags: Vec<Tag> = self
            .versions
            .iter()
            .filter(|(_, (_, label))| *label == Label::Fin)
            .map(|(tag, _)| *tag)
            .collect();
        fin_tags.sort_unstable_by(|a, b| b.cmp(a));
        let Some(&cutoff) =
            fin_tags.get(keep.saturating_sub(1).min(fin_tags.len().saturating_sub(1)))
        else {
            return;
        };
        if fin_tags.len() < keep {
            return;
        }
        for (tag, (element, _)) in self.versions.iter_mut() {
            if *tag < cutoff {
                *element = None;
            }
        }
    }
}

impl Process<CasMsg> for CasServer {
    fn on_start(&mut self, ctx: &mut Context<'_, CasMsg>) {
        {
            let Some(repair) = self.repair.as_mut() else {
                return;
            };
            repair.started_at = ctx.now();
            repair.attempts = 1;
        }
        self.send_repair_pulls(ctx);
        ctx.set_timer(crate::REPAIR_RETRY_INTERVAL, crate::REPAIR_RETRY_TOKEN);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, CasMsg>) {
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
        // Duplicate pulls are idempotent for state (the collected map merges
        // by tag and element index; the quorum tracker records each
        // responder once), though re-transferred elements are charged to
        // `traffic_bytes` — retried repairs genuinely cost that bandwidth.
        self.send_repair_pulls(ctx);
        ctx.set_timer(crate::REPAIR_RETRY_INTERVAL, crate::REPAIR_RETRY_TOKEN);
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
                        tag: self.max_fin_tag(),
                    },
                );
            }
            CasMsg::PreWrite { seq, tag, element } => {
                let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
                if entry.0.is_none() {
                    entry.0 = Some(element);
                }
                ctx.send(from, CasMsg::PreWriteAck { seq });
            }
            CasMsg::Finalize { seq, tag } => {
                let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
                entry.1 = Label::Fin;
                self.garbage_collect();
                ctx.send(from, CasMsg::FinalizeAck { seq });
            }
            CasMsg::ReadFinalize { seq, tag } => {
                if self.is_repairing() {
                    return;
                }
                let entry = self.versions.entry(tag).or_insert((None, Label::Pre));
                entry.1 = Label::Fin;
                let element = entry.0.clone();
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
                    if repair.completed_at.is_some() || seq != repair.seq {
                        return;
                    }
                    for (tag, element, fin) in versions {
                        let entry = repair.collected.entry(tag).or_default();
                        entry.1 |= fin;
                        if let Some(element) = element {
                            repair.traffic_bytes += element.data.len() as u64;
                            entry.0.insert(element.index, element);
                        }
                    }
                    repair.responses.record(from, ());
                    if !repair.responses.is_complete() {
                        return;
                    }
                }
                self.finish_repair(ctx.now());
            }
            _ => {}
        }
        let _ = self.my_rank;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CasPhase {
    Idle,
    QueryTag,
    PreWrite,
    Finalize,
    ReadValue,
}

enum PendingOp {
    Write(Value),
    Read,
}

/// A CAS / CASGC client performing both writes and reads.
pub struct CasClient {
    config: Arc<CasConfig>,
    self_id: ProcessId,
    phase: CasPhase,
    pending: VecDeque<PendingOp>,
    seq: u64,
    current_is_read: bool,
    current_value: Option<Value>,
    current_tag: Option<Tag>,
    invoked_at: SimTime,
    tag_tracker: QuorumTracker<Tag>,
    ack_tracker: QuorumTracker<()>,
    read_elements: BTreeMap<usize, CodedElement>,
    read_responses: QuorumTracker<()>,
    completed: Vec<CasOpRecord>,
}

impl CasClient {
    /// Creates a client.
    pub fn new(config: Arc<CasConfig>, self_id: ProcessId) -> Self {
        let q = config.quorum();
        CasClient {
            config,
            self_id,
            phase: CasPhase::Idle,
            pending: VecDeque::new(),
            seq: 0,
            current_is_read: false,
            current_value: None,
            current_tag: None,
            invoked_at: SimTime::ZERO,
            tag_tracker: QuorumTracker::new(q),
            ack_tracker: QuorumTracker::new(q),
            read_elements: BTreeMap::new(),
            read_responses: QuorumTracker::new(q),
            completed: Vec::new(),
        }
    }

    /// Completed operations in completion order.
    pub fn completed_ops(&self) -> &[CasOpRecord] {
        &self.completed
    }

    /// The in-flight *write*, if one exists: `(seq, invoked_at, tag, value)`
    /// where the tag is `None` until the pre-write phase starts (before
    /// that, no server has seen the value, so no read can have observed it).
    /// Needed to close operation histories under crash/network faults.
    pub fn in_flight_write(&self) -> Option<(u64, SimTime, Option<Tag>, Vec<u8>)> {
        if self.phase == CasPhase::Idle || self.current_is_read {
            return None;
        }
        let value = self
            .current_value
            .as_ref()
            .expect("an in-flight write always carries its value")
            .to_vec();
        Some((self.seq, self.invoked_at, self.current_tag, value))
    }

    fn servers(&self) -> Vec<ProcessId> {
        self.config.layout().servers().to_vec()
    }

    fn start_next(&mut self, ctx: &mut Context<'_, CasMsg>) {
        if self.phase != CasPhase::Idle {
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
        self.current_tag = None;
        self.phase = CasPhase::QueryTag;
        self.tag_tracker = QuorumTracker::new(self.config.quorum());
        for server in self.servers() {
            ctx.send(server, CasMsg::QueryTag { seq: self.seq });
        }
    }

    fn after_tag_query(&mut self, ctx: &mut Context<'_, CasMsg>) {
        let max_tag = self
            .tag_tracker
            .max_response()
            .copied()
            .unwrap_or(Tag::INITIAL);
        if self.current_is_read {
            self.current_tag = Some(max_tag);
            self.phase = CasPhase::ReadValue;
            self.read_elements.clear();
            self.read_responses = QuorumTracker::new(self.config.quorum());
            for server in self.servers() {
                ctx.send(
                    server,
                    CasMsg::ReadFinalize {
                        seq: self.seq,
                        tag: max_tag,
                    },
                );
            }
        } else {
            let tag = max_tag.next(self.self_id);
            self.current_tag = Some(tag);
            self.phase = CasPhase::PreWrite;
            self.ack_tracker = QuorumTracker::new(self.config.quorum());
            let value = self.current_value.clone().expect("write has a value");
            let elements = self
                .config
                .code()
                .encode(&value)
                .expect("encoding never fails for valid parameters");
            for (rank, server) in self.servers().into_iter().enumerate() {
                ctx.send(
                    server,
                    CasMsg::PreWrite {
                        seq: self.seq,
                        tag,
                        element: elements[rank].clone(),
                    },
                );
            }
        }
    }

    fn begin_finalize(&mut self, ctx: &mut Context<'_, CasMsg>) {
        self.phase = CasPhase::Finalize;
        self.ack_tracker = QuorumTracker::new(self.config.quorum());
        let tag = self.current_tag.expect("finalize requires a tag");
        for server in self.servers() {
            ctx.send(server, CasMsg::Finalize { seq: self.seq, tag });
        }
    }

    fn try_complete_read(&mut self, ctx: &mut Context<'_, CasMsg>) {
        if !self.read_responses.is_complete() || self.read_elements.len() < self.config.k() {
            return;
        }
        let elements: Vec<CodedElement> = self.read_elements.values().cloned().collect();
        let value = self
            .config
            .code()
            .decode(&elements)
            .expect("quorum intersection provides k consistent elements");
        self.complete(value, ctx);
    }

    fn complete(&mut self, value: Vec<u8>, ctx: &mut Context<'_, CasMsg>) {
        let record = CasOpRecord {
            seq: self.seq,
            is_read: self.current_is_read,
            invoked_at: self.invoked_at,
            completed_at: ctx.now(),
            tag: self.current_tag.expect("tag set"),
            value,
        };
        self.completed.push(record);
        self.phase = CasPhase::Idle;
        self.current_value = None;
        self.current_tag = None;
        self.read_elements.clear();
        self.start_next(ctx);
    }
}

impl Process<CasMsg> for CasClient {
    fn on_message(&mut self, from: ProcessId, msg: CasMsg, ctx: &mut Context<'_, CasMsg>) {
        match msg {
            CasMsg::InvokeWrite(value) => {
                self.pending.push_back(PendingOp::Write(value));
                self.start_next(ctx);
            }
            CasMsg::InvokeRead => {
                self.pending.push_back(PendingOp::Read);
                self.start_next(ctx);
            }
            CasMsg::QueryTagResp { seq, tag }
                if self.phase == CasPhase::QueryTag && seq == self.seq =>
            {
                self.tag_tracker.record(from, tag);
                if self.tag_tracker.is_complete() {
                    self.after_tag_query(ctx);
                }
            }
            CasMsg::PreWriteAck { seq } if self.phase == CasPhase::PreWrite && seq == self.seq => {
                self.ack_tracker.record(from, ());
                if self.ack_tracker.is_complete() {
                    self.begin_finalize(ctx);
                }
            }
            CasMsg::FinalizeAck { seq } if self.phase == CasPhase::Finalize && seq == self.seq => {
                self.ack_tracker.record(from, ());
                if self.ack_tracker.is_complete() {
                    let value = self
                        .current_value
                        .clone()
                        .map(|v| v.to_vec())
                        .unwrap_or_default();
                    self.complete(value, ctx);
                }
            }
            CasMsg::ReadFinalizeResp { seq, tag, element }
                if self.phase == CasPhase::ReadValue
                    && seq == self.seq
                    && Some(tag) == self.current_tag =>
            {
                self.read_responses.record(from, ());
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

/// Parameters of a CAS / CASGC deployment.
///
/// This replaces the former seven-positional-argument `CasCluster::build`
/// signature. Application code should not use it directly: build clusters
/// through `soda_registry::ClusterBuilder`, which validates parameters and
/// returns the protocol-agnostic `RegisterCluster` facade.
#[derive(Clone, Debug)]
pub struct CasParams {
    /// Number of servers.
    pub n: usize,
    /// Tolerated server crashes (the code dimension is `k = n − 2f`).
    pub f: usize,
    /// `Some(δ + 1)` keeps at most that many finalized versions with elements
    /// (CASGC); `None` never garbage-collects (plain CAS).
    pub gc_versions: Option<usize>,
    /// Number of clients (each performs both writes and reads).
    pub num_clients: usize,
    /// RNG seed controlling message delays.
    pub seed: u64,
    /// Network delay configuration.
    pub network: NetworkConfig,
    /// The initial object value `v0`.
    pub initial_value: Vec<u8>,
}

impl CasParams {
    /// Parameters for an `(n, f)` CAS cluster (no garbage collection) with
    /// two clients, seed 0, uniform delays in `[1, 10]` and an empty initial
    /// value.
    pub fn new(n: usize, f: usize) -> Self {
        CasParams {
            n,
            f,
            gc_versions: None,
            num_clients: 2,
            seed: 0,
            network: NetworkConfig::uniform(10),
            initial_value: Vec::new(),
        }
    }
}

/// A complete simulated CAS / CASGC deployment.
pub struct CasCluster {
    sim: Simulation<CasMsg>,
    config: Arc<CasConfig>,
    servers: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    /// Per-rank incarnation counter for replacement servers.
    epochs: Vec<u64>,
}

impl CasCluster {
    /// Builds the cluster described by `params`.
    pub fn build(params: CasParams) -> Self {
        let CasParams {
            n,
            f,
            gc_versions,
            num_clients,
            seed,
            network,
            initial_value,
        } = params;
        let mut sim = Simulation::new(seed, network);
        let server_ids: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
        let layout = Layout::new(server_ids.clone(), f);
        let config = CasConfig::new(layout, gc_versions);
        let initial = value_from(initial_value);
        for rank in 0..n {
            sim.add_process(Box::new(CasServer::new(config.clone(), rank, &initial)));
        }
        let mut clients = Vec::new();
        for _ in 0..num_clients {
            let id = ProcessId(sim.num_processes() as u32);
            sim.add_process(Box::new(CasClient::new(config.clone(), id)));
            clients.push(id);
        }
        let epochs = vec![0; n];
        CasCluster {
            sim,
            config,
            servers: server_ids,
            clients,
            epochs,
        }
    }

    /// Client process ids.
    pub fn clients(&self) -> &[ProcessId] {
        &self.clients
    }

    /// The shared configuration.
    pub fn config(&self) -> &Arc<CasConfig> {
        &self.config
    }

    /// Queues a write.
    pub fn invoke_write(&mut self, client: ProcessId, value: Vec<u8>) {
        self.sim
            .send_external(client, CasMsg::InvokeWrite(value_from(value)));
    }

    /// Queues a write at a given time.
    pub fn invoke_write_at(&mut self, at: SimTime, client: ProcessId, value: Vec<u8>) {
        self.sim
            .send_external_at(at, client, CasMsg::InvokeWrite(value_from(value)));
    }

    /// Queues a read.
    pub fn invoke_read(&mut self, client: ProcessId) {
        self.sim.send_external(client, CasMsg::InvokeRead);
    }

    /// Queues a read at a given time.
    pub fn invoke_read_at(&mut self, at: SimTime, client: ProcessId) {
        self.sim.send_external_at(at, client, CasMsg::InvokeRead);
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
    /// a fresh replacement pulls every survivor's version store and
    /// re-encodes its own elements (see [`CasServer::replacement`]).
    pub fn repair_server_at(&mut self, at: SimTime, rank: usize) {
        self.epochs[rank] += 1;
        let replacement = CasServer::replacement(self.config.clone(), rank, self.epochs[rank]);
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
                        .process_as::<CasServer>(id)
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
            .process_as::<CasServer>(self.servers[rank])
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

    /// Message statistics.
    pub fn stats(&self) -> Stats {
        self.sim.stats()
    }

    /// All completed operations, ordered by completion time.
    pub fn completed_ops(&self) -> Vec<CasOpRecord> {
        let mut ops: Vec<CasOpRecord> = self
            .clients
            .iter()
            .filter_map(|&c| self.sim.process_as::<CasClient>(c))
            .flat_map(|c| c.completed_ops().iter().cloned())
            .collect();
        ops.sort_by_key(|op| op.completed_at);
        ops
    }

    /// Bytes of coded-element data stored at each server, by rank (across all
    /// retained versions).
    pub fn stored_bytes_per_server(&self) -> Vec<u64> {
        self.stored_bytes_by_rank().collect()
    }

    /// Total bytes of coded-element data stored across all servers and all
    /// retained versions.
    pub fn total_stored_bytes(&self) -> u64 {
        self.stored_bytes_by_rank().sum()
    }

    fn stored_bytes_by_rank(&self) -> impl Iterator<Item = u64> + '_ {
        self.servers.iter().map(|&s| {
            self.sim
                .process_as::<CasServer>(s)
                .map_or(0, |s| s.stored_bytes() as u64)
        })
    }

    /// Immutable access to the underlying simulation.
    pub fn sim(&self) -> &Simulation<CasMsg> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<CasMsg> {
        &mut self.sim
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// In-flight writes of every client, as `(client, seq, invoked_at, tag,
    /// value)` tuples (see [`CasClient::in_flight_write`]).
    pub fn pending_writes(&self) -> Vec<crate::PendingWriteInfo> {
        self.clients
            .iter()
            .filter_map(|&c| {
                let client = self.sim.process_as::<CasClient>(c)?;
                let (seq, invoked_at, tag, value) = client.in_flight_write()?;
                Some((c, seq, invoked_at, tag, value))
            })
            .collect()
    }

    /// The operations one client has completed, in the order it completed
    /// them — its append-only log, which is also `seq` order because a
    /// client runs one operation at a time. Empty for a process that is not
    /// a client of this cluster.
    pub fn client_records(&self, client: ProcessId) -> &[CasOpRecord] {
        self.sim
            .process_as::<CasClient>(client)
            .map_or(&[], CasClient::completed_ops)
    }

    /// Maximum number of versions with stored elements at any single server.
    pub fn max_stored_versions(&self) -> usize {
        self.servers
            .iter()
            .filter_map(|&s| self.sim.process_as::<CasServer>(s))
            .map(|s| s.stored_versions())
            .max()
            .unwrap_or(0)
    }
}
