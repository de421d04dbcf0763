//! The SODA server automaton (Fig. 5, with the Fig. 6 modification for
//! SODAerr).
//!
//! Each server stores exactly one `(tag, coded element)` pair — that is where
//! the `n/(n−f)` storage optimality comes from — plus metadata:
//!
//! * `Rc` — the set of registered readers `(r, t_r)` currently being served;
//! * `H`  — a set of `(tag, server, reader)` triples recording which servers
//!   have sent which coded elements to which readers (fed by the
//!   READ-DISPERSE messages), used to decide when a registered reader has
//!   certainly received enough elements and can be unregistered, even if the
//!   reader itself crashed (Theorem 5.5: no server relays forever).
//!
//! `H` empties at quiescence: once a read is closed here (its registration
//! handled and gone), the server keeps only the read's id, in a run set of
//! closed reads, and records nothing more for it.
//!
//! The server participates in both message-disperse primitives: it relays the
//! MD-VALUE dispersal of writes and the MD-META dispersal of READ-VALUE /
//! READ-COMPLETE / READ-DISPERSE metadata.
//!
//! # Repair (crash recovery)
//!
//! A crashed server is replaced by a **fresh process with empty state**
//! ([`ServerProcess::replacement`]) that must re-acquire a valid
//! `(tag, coded element)` pair before it may serve get queries again — the
//! paper's §V discussion and its RADON sequel. The repair procedure is
//! deliberately *a read that re-encodes*: the replacement runs the reader's
//! own read of Fig. 4 (the same `Read` a [`crate::ReaderProcess`] runs)
//! against the survivors (read-get majority → READ-VALUE registration →
//! collect `k` / `k + 2e` coded elements → decode), then re-encodes **its
//! own** coded element from the decoded value via `encode_one` and adopts
//! the pair. The server adds only what is the repair's own: the survivors-
//! only fan-out and its retries, the traffic accounting, the monotone
//! adoption and the deferred readers. Registration means survivors relay the
//! elements of concurrent writes to the repairing server exactly as they
//! would to a reader, so repair inherits the liveness of Theorem 5.1 and the
//! quorum-intersection safety of reads: the adopted tag is at least the tag
//! of every write that completed before the repair started.
//!
//! While the repair is in flight the replacement:
//!
//! * answers **no** `write-get` / `read-get` queries (its `t0` tag is stale;
//!   an answer could poison a majority's `max` and regress tags) — with at
//!   most `f` servers dead *or under repair*, `n − f ≥ ⌈(n+1)/2⌉` full
//!   replicas still answer, so clients stay live;
//! * fully participates in both message-disperse relays, acks MD-VALUE
//!   deliveries (it really stores those elements), and registers readers —
//!   but defers serving its stored element until the repair is done.
//!
//! Its outgoing [`MessageId`]s are offset by the repair epoch so they can
//! never collide with the tombstones survivors hold for the previous
//! incarnation's dispersals.

use crate::config::Phase;
use crate::messages::{MetaPayload, OpId, SodaMsg};
use crate::reader::Read;
use soda_protocol::md::{md_meta_send, MdRelay, MdValueMsg, MessageId};
use soda_protocol::{Deployment, RepairDriver, RepairStatus, RunSet, Tag, Value};
use soda_rs_code::{CodedElement, MdsCode};
use soda_simnet::{Context, Process, ProcessId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Internal repair state machine of a replacement server.
struct RepairState {
    /// The reader's read, under an op id unique per incarnation (via the
    /// epoch). It ends once it has decoded; whether the repair is still in
    /// flight is the [`RepairDriver`]'s to say.
    read: Read,
    /// Retry cadence, give-up and cost accounting. Its traffic is coded-
    /// element bytes, bounded by `n · ⌈size/k⌉` plus relayed concurrent
    /// writes.
    driver: RepairDriver,
}

/// A SODA / SODAerr server process.
pub struct ServerProcess {
    deployment: Arc<Deployment>,
    my_rank: usize,
    /// Locally stored `(t, c_s)` pair.
    tag: Tag,
    element: CodedElement,
    /// `Rc`: registered readers and the tag each requested.
    registered: BTreeMap<OpId, Tag>,
    /// `H`: the `(tag, sender rank, reader op)` triples of the paper, indexed
    /// by reader op. Every query the protocol makes is per-op (count distinct
    /// senders of one tag, drop a finished read's triples, check the
    /// READ-COMPLETE marker), so the per-op index makes those O(own triples)
    /// instead of a scan over every in-flight read's entries. Only reads that
    /// are not yet [`closed`](Self::closed) have entries, so `H` is empty
    /// whenever no read is in flight here.
    history: BTreeMap<OpId, Vec<(Tag, usize)>>,
    /// Reads *closed* at this server: their READ-VALUE has been handled here
    /// and they are no longer registered — unregistered by `H`, by a
    /// READ-COMPLETE, or never registered because the READ-COMPLETE marker
    /// was already there. A READ-DISPERSE or READ-COMPLETE for a closed read
    /// records nothing in `H`.
    ///
    /// This drops exactly the entries nothing would read. `H`'s entries for a
    /// read are read only to decide its registration: by the unregistration
    /// count, which needs the read registered, and by the marker check, which
    /// runs on its READ-VALUE. A reader disperses READ-VALUE once per read,
    /// under one [`MessageId`], so the MD-META relay delivers it at most once
    /// per server; a closed read is never registered again and its READ-VALUE
    /// never comes back. The reads of a replacement's repair are not closed:
    /// their READ-VALUE is re-sent under fresh ids (see
    /// [`Self::send_repair_fan_out`]), so they keep recording as before.
    closed: RunSet,
    /// Relay state of the MD-VALUE primitive.
    md_value: MdRelay,
    /// Relay state of the MD-META primitive.
    md_meta: MdRelay,
    /// Counter for this server's own MD-META invocations (READ-DISPERSE).
    md_counter: u64,
    /// Ablation switch: when `false`, the server does not relay the elements
    /// of concurrent writes to registered readers (Fig. 5, response 3, lines
    /// 4–8 disabled). Used by the relay ablation of the paper gate to show
    /// that reader registration + relaying is what makes reads live under
    /// concurrent writes.
    relay_enabled: bool,
    /// Repair state machine, present on replacement servers. Stays around
    /// after completion so metrics remain inspectable.
    repair: Option<RepairState>,
    /// Scratch for the reader fan-out of `on_md_value_deliver`, reused across
    /// deliveries so the per-message hot path does not allocate.
    scratch_interested: Vec<OpId>,
}

impl ServerProcess {
    /// Creates the server with the given rank, storing the coded element of
    /// the initial value `v0` under the initial tag `t0`.
    pub fn new(deployment: Arc<Deployment>, my_rank: usize, initial_value: &Value) -> Self {
        let element = deployment
            .code()
            .encode_one(initial_value, my_rank)
            .expect("rank is within 0..n by construction");
        Self::holding(deployment, my_rank, element)
    }

    /// Creates a **replacement** for a crashed server: same rank, empty state.
    /// On start it runs the repair procedure (see the module docs) against the
    /// survivors and only then behaves like a full replica. `epoch` counts the
    /// incarnations of this rank (1 for the first replacement) and must be
    /// distinct per incarnation: it namespaces the replacement's MD message
    /// ids and its repair operation id away from anything the previous
    /// incarnation sent, so survivors' deduplication tombstones cannot
    /// swallow the new dispersals.
    pub fn replacement(deployment: Arc<Deployment>, my_rank: usize, epoch: u64) -> Self {
        let op = OpId::new(deployment.layout().server(my_rank), epoch);
        let mut read = Read::new(op);
        read.begin(&deployment, op);
        let driver = RepairDriver::default();
        ServerProcess {
            md_counter: epoch << 32,
            repair: Some(RepairState { read, driver }),
            ..Self::holding(deployment, my_rank, CodedElement::new(my_rank, Vec::new()))
        }
    }

    /// The server of rank `my_rank` storing `element` under `t0`, with no
    /// reader, dispersal or repair yet.
    fn holding(deployment: Arc<Deployment>, my_rank: usize, element: CodedElement) -> Self {
        ServerProcess {
            deployment,
            my_rank,
            tag: Tag::INITIAL,
            element,
            registered: BTreeMap::new(),
            history: BTreeMap::new(),
            closed: RunSet::default(),
            md_value: MdRelay::new(my_rank),
            md_meta: MdRelay::new(my_rank),
            md_counter: 0,
            relay_enabled: true,
            repair: None,
            scratch_interested: Vec::new(),
        }
    }

    /// Disables relaying of concurrent writes to registered readers
    /// (ablation only — this breaks the liveness argument of Theorem 5.1).
    pub fn with_relay_disabled(mut self) -> Self {
        self.relay_enabled = false;
        self
    }

    /// The tag of the locally stored element.
    pub fn stored_tag(&self) -> Tag {
        self.tag
    }

    /// Number of bytes of coded-element data stored locally (the storage cost
    /// contribution of this server, un-normalized).
    pub fn stored_bytes(&self) -> usize {
        self.element.data.len()
    }

    /// The locally stored coded element.
    pub fn stored_element(&self) -> &CodedElement {
        &self.element
    }

    /// Number of currently registered readers (`|Rc|`).
    pub fn registered_readers(&self) -> usize {
        self.registered.len()
    }

    /// Number of entries in the history set `H`: zero whenever no read is
    /// in flight at this server.
    pub fn history_len(&self) -> usize {
        self.history.values().map(Vec::len).sum()
    }

    /// Number of message-id tombstones retained by the two message-disperse
    /// relays (metadata only; see Theorem 3.2).
    pub fn md_tombstones(&self) -> usize {
        self.md_value.tombstones() + self.md_meta.tombstones()
    }

    /// The tombstones of the MD-VALUE and the MD-META relay, in that order.
    pub fn md_tombstone_sets(&self) -> [&RunSet; 2] {
        [self.md_value.handled(), self.md_meta.handled()]
    }

    /// Whether this server is a replacement whose repair has not finished.
    /// While true the server answers no get queries and is still "dead" for
    /// the purposes of the dynamic fault-tolerance budget. A replacement that
    /// gave up has halted itself and is plain dead, not repairing.
    pub fn is_repairing(&self) -> bool {
        self.repair.as_ref().is_some_and(|r| r.driver.in_progress())
    }

    /// Repair progress and cost accounting, if this server is (or was) a
    /// replacement.
    pub fn repair_status(&self) -> Option<RepairStatus> {
        self.repair.as_ref().map(|r| r.driver.status())
    }

    fn server_pid(&self, rank: usize) -> ProcessId {
        self.deployment.layout().server(rank)
    }

    /// Disperses `payload` to every server through MD-META, under a fresh
    /// message id of this server.
    fn disperse_meta(&mut self, payload: MetaPayload, ctx: &mut Context<'_, SodaMsg>) {
        self.md_counter += 1;
        let mid = MessageId::new(self.server_pid(self.my_rank), self.md_counter);
        for dispatch in md_meta_send(self.deployment.layout(), mid, payload) {
            let dest = self.server_pid(dispatch.to_rank);
            ctx.send(dest, SodaMsg::MdMeta(dispatch.msg));
        }
    }

    /// Sends `(tag, element)` to the reader of `op` and performs the
    /// bookkeeping the paper attaches to that send: record the triple in `H`,
    /// disperse READ-DISPERSE to the other servers, and re-check whether the
    /// reader can be unregistered.
    fn send_element_to_reader(
        &mut self,
        op: OpId,
        tag: Tag,
        element: CodedElement,
        ctx: &mut Context<'_, SodaMsg>,
    ) {
        ctx.send(op.client, SodaMsg::CodedToReader { op, tag, element });
        Self::record_triple(self.history.entry(op).or_default(), (tag, self.my_rank));
        let payload = MetaPayload::ReadDisperse {
            tag,
            server_rank: self.my_rank,
            op,
        };
        self.disperse_meta(payload, ctx);
        self.maybe_unregister(tag, op);
    }

    /// Adds one `(tag, sender rank)` triple to a reader's history entry,
    /// preserving set semantics. A reader's entry holds at most one triple
    /// per (sender, tag) — a handful of elements — so a linear dedup scan
    /// over a flat `Vec` beats a tree set and its per-node allocations.
    fn record_triple(triples: &mut Vec<(Tag, usize)>, triple: (Tag, usize)) {
        if !triples.contains(&triple) {
            triples.push(triple);
        }
    }

    /// Fig. 5 lines 30-37 (with the Fig. 6 threshold): once `H` records that
    /// at least `k` (SODA) or `k + 2e` (SODAerr) distinct servers have sent the
    /// element of some tag to reader `op`, unregister the reader and drop its
    /// history entries.
    fn maybe_unregister(&mut self, tag: Tag, op: OpId) {
        if !self.registered.contains_key(&op) {
            return;
        }
        let sent_count = self.history.get(&op).map_or(0, |triples| {
            triples.iter().filter(|(t, _)| *t == tag).count()
        });
        if sent_count >= self.deployment.quorum(Phase::ReadValue) {
            self.registered.remove(&op);
            self.close(op);
        }
    }

    /// Drops a read's `H` entries once its READ-VALUE has been handled here
    /// and it is not registered, and remembers it as closed unless it is a
    /// replacement's repair (see [`Self::closed`]).
    fn close(&mut self, op: OpId) {
        self.history.remove(&op);
        // A `BTreeMap` keeps its root node after its last `remove`; `clear`
        // frees it, so a server with no read in flight holds neither map.
        if self.history.is_empty() {
            self.history.clear();
        }
        if self.registered.is_empty() {
            self.registered.clear();
        }
        if !self.deployment.layout().servers().contains(&op.client) {
            self.closed.insert(op.client, op.seq);
        }
    }

    /// Whether `op` is a closed read, for which `H` records nothing more.
    fn is_closed(&self, op: OpId) -> bool {
        self.closed.contains(op.client, op.seq)
    }

    /// Handles `md-value-deliver(t_w, c_s)`: relay to registered readers,
    /// update local storage if the tag is newer, and acknowledge the writer
    /// (Fig. 5, response 3).
    fn on_md_value_deliver(
        &mut self,
        tag: Tag,
        element: CodedElement,
        ctx: &mut Context<'_, SodaMsg>,
    ) {
        let mut interested = std::mem::take(&mut self.scratch_interested);
        if self.relay_enabled {
            interested.extend(
                self.registered
                    .iter()
                    .filter(|&(_, &tr)| tag >= tr)
                    .map(|(&op, _)| op),
            );
        }
        for &op in &interested {
            self.send_element_to_reader(op, tag, element.clone(), ctx);
        }
        interested.clear();
        self.scratch_interested = interested;
        if tag > self.tag {
            self.tag = tag;
            self.element = element;
        }
        ctx.send(tag.writer, SodaMsg::WriteAck { tag });
    }

    /// Handles delivery of a READ-VALUE registration (Fig. 5, response 5).
    fn on_read_value(&mut self, op: OpId, requested: Tag, ctx: &mut Context<'_, SodaMsg>) {
        // If the READ-COMPLETE marker `(t0, s, r)` is already present, the read
        // finished before its registration arrived here: drop the stale
        // bookkeeping and do not register.
        let marker = (Tag::INITIAL, self.my_rank);
        if self.history.get(&op).is_some_and(|t| t.contains(&marker)) {
            self.close(op);
            return;
        }
        self.registered.insert(op, requested);
        // A replacement under repair has no valid element yet: register the
        // reader (so concurrent writes are relayed to it) but defer serving
        // the stored element until the repair completes.
        if !self.is_repairing() && self.tag >= requested {
            let (tag, element) = (self.tag, self.element.clone());
            self.send_element_to_reader(op, tag, element, ctx);
        }
    }

    /// Handles delivery of a READ-COMPLETE (Fig. 5, response 6).
    fn on_read_complete(&mut self, op: OpId) {
        if self.is_closed(op) {
            return;
        }
        if self.registered.remove(&op).is_some() {
            self.close(op);
        } else {
            // Registration has not arrived yet; leave a marker so the later
            // READ-VALUE is ignored instead of re-registering a finished read.
            Self::record_triple(
                self.history.entry(op).or_default(),
                (Tag::INITIAL, self.my_rank),
            );
        }
    }

    /// Handles delivery of a READ-DISPERSE report (Fig. 5, response 7 /
    /// Fig. 6 for SODAerr).
    fn on_read_disperse(&mut self, tag: Tag, server_rank: usize, op: OpId) {
        if self.is_closed(op) {
            return;
        }
        Self::record_triple(self.history.entry(op).or_default(), (tag, server_rank));
        self.maybe_unregister(tag, op);
    }

    /// Sends the repair read's fan-out to the survivors: the `read-get`
    /// query, or the READ-VALUE registration under `t_r`. Both are
    /// idempotent (the read deduplicates responders and elements, and
    /// survivors re-register the same op id), so the retry loop may repeat
    /// them; a repeated registration goes out under a fresh message id so the
    /// survivors' tombstones for the earlier dispersal do not swallow it.
    fn send_repair_fan_out(&mut self, read: &Read, ctx: &mut Context<'_, SodaMsg>) {
        let op = read.op();
        if read.phase() == Some(Phase::ReadGet) {
            let peers = self.deployment.layout().peers_of(ctx.self_id());
            ctx.send_all(peers, SodaMsg::ReadGet { op });
        } else {
            self.disperse_meta(MetaPayload::ReadValue { op, tag: read.tr() }, ctx);
        }
    }

    /// Ends the repair once its read decoded `(tag, value)`: re-encodes this
    /// rank's element, adopts the pair, and flushes deferred reader service.
    fn finish_repair(&mut self, tag: Tag, value: Value, ctx: &mut Context<'_, SodaMsg>) {
        let my_element = self
            .deployment
            .code()
            .encode_one(&value, self.my_rank)
            .expect("rank is within 0..n by construction");
        // Adopt monotonically: a concurrent write may already have installed
        // a newer pair via md-value-deliver while the repair was in flight.
        if tag >= self.tag {
            self.tag = tag;
            self.element = my_element;
        }
        let repair = self.repair.as_mut().expect("only a repair finishes");
        repair.driver.finish(ctx.now());
        let (op, tr) = (repair.read.op(), repair.read.tr());
        // read-complete: let the survivors unregister the repair.
        self.disperse_meta(MetaPayload::ReadComplete { op, tag: tr }, ctx);
        // Serve the readers that registered while the repair was in flight
        // and were deferred (skipping the repair's own self-registration,
        // which the READ-COMPLETE above cleans up).
        let interested: Vec<OpId> = self
            .registered
            .iter()
            .filter(|&(&o, &treq)| o != op && self.tag >= treq)
            .map(|(&o, _)| o)
            .collect();
        for reader_op in interested {
            let (tag, element) = (self.tag, self.element.clone());
            self.send_element_to_reader(reader_op, tag, element, ctx);
        }
    }
}

impl Process<SodaMsg> for ServerProcess {
    // Both handlers lift the repair state out for the call: the fan-out
    // needs the rest of the server mutably while the driver runs it.
    fn on_start(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        if let Some(mut repair) = self.repair.take() {
            let read = &repair.read;
            repair
                .driver
                .start(ctx, |ctx| self.send_repair_fan_out(read, ctx));
            self.repair = Some(repair);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, SodaMsg>) {
        if let Some(mut repair) = self.repair.take() {
            let read = &repair.read;
            repair
                .driver
                .on_timer(token, ctx, |ctx| self.send_repair_fan_out(read, ctx));
            self.repair = Some(repair);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: SodaMsg, ctx: &mut Context<'_, SodaMsg>) {
        match msg {
            // A replacement under repair stays silent on tag queries: its
            // `Tag::INITIAL` could lower a writer's (or reader's) majority
            // max below a completed write's tag and break real-time order.
            // With at most `f` dead-or-repairing servers, `n − f` full
            // replicas still answer, which meets both the majority and the
            // `k + 2e` read threshold.
            SodaMsg::WriteGet { op } => {
                if self.is_repairing() {
                    return;
                }
                ctx.send(from, SodaMsg::WriteGetResp { op, tag: self.tag });
            }
            SodaMsg::ReadGet { op } => {
                if self.is_repairing() {
                    return;
                }
                ctx.send(from, SodaMsg::ReadGetResp { op, tag: self.tag });
            }
            // The repair's read: its replies and the elements survivors send
            // or relay to it.
            SodaMsg::ReadGetResp { op, tag } => {
                let Some(repair) = self.repair.as_mut() else {
                    return;
                };
                if repair.read.on_get_resp(&self.deployment, from, op, tag) {
                    let tr = repair.read.tr();
                    self.disperse_meta(MetaPayload::ReadValue { op, tag: tr }, ctx);
                }
            }
            SodaMsg::CodedToReader { op, tag, element } => {
                let Some(repair) = self.repair.as_mut() else {
                    return;
                };
                // Once the read decoded it collects nothing, so stragglers
                // from slower survivors are neither charged nor collected.
                if !repair.read.collects(op) {
                    return;
                }
                repair.driver.add_traffic(element.data.len());
                // Over-budget corruption (SODAerr) leaves the read collecting:
                // relays of concurrent writes may still complete the repair.
                if let Some((tag, Ok(value))) =
                    repair.read.on_element(&self.deployment, op, tag, element)
                {
                    self.finish_repair(tag, value, ctx);
                }
            }
            SodaMsg::MdValue(md_msg) => {
                let deployment = &self.deployment;
                let deliver = match md_msg {
                    MdValueMsg::Full { mid, tag, value } => self.md_value.on_full(
                        deployment.layout(),
                        deployment.code(),
                        mid,
                        tag,
                        &value,
                        |dispatch| {
                            let dest = deployment.layout().server(dispatch.to_rank);
                            ctx.send(dest, SodaMsg::MdValue(dispatch.msg));
                        },
                    ),
                    MdValueMsg::Coded { mid, tag, element } => {
                        self.md_value.on_coded(mid, tag, element)
                    }
                };
                if let Some((tag, element)) = deliver {
                    self.on_md_value_deliver(tag, element, ctx);
                }
            }
            SodaMsg::MdMeta(meta) => {
                let deployment = &self.deployment;
                let deliver = self.md_meta.on_meta(
                    deployment.layout(),
                    meta.mid,
                    &meta.payload,
                    |dispatch| {
                        let dest = deployment.layout().server(dispatch.to_rank);
                        ctx.send(dest, SodaMsg::MdMeta(dispatch.msg));
                    },
                );
                if let Some(payload) = deliver {
                    match payload {
                        MetaPayload::ReadValue { op, tag } => self.on_read_value(op, tag, ctx),
                        MetaPayload::ReadComplete { op, .. } => self.on_read_complete(op),
                        MetaPayload::ReadDisperse {
                            tag,
                            server_rank,
                            op,
                        } => self.on_read_disperse(tag, server_rank, op),
                    }
                }
            }
            // Servers ignore client-side messages.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::md::{DispersedValue, MdMetaMsg};
    use soda_protocol::{value_from, Layout};
    use soda_simnet::testkit::deliver;
    use soda_simnet::SimTime;

    const WRITER: ProcessId = ProcessId(100);
    const READER: ProcessId = ProcessId(200);

    fn deployment(n: usize, f: usize) -> Arc<Deployment> {
        let layout = Layout::new((0..n as u32).map(ProcessId).collect(), f);
        Arc::new(Deployment::new(layout, n - f, 0))
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn server(cfg: &Arc<Deployment>, rank: usize) -> ServerProcess {
        ServerProcess::new(cfg.clone(), rank, &value_from(b"initial".to_vec()))
    }

    fn full_msg(_cfg: &Arc<Deployment>, tag: Tag, value: &[u8], counter: u64) -> SodaMsg {
        SodaMsg::MdValue(MdValueMsg::Full {
            mid: MessageId::new(tag.writer, counter),
            tag,
            value: DispersedValue::new(value_from(value.to_vec())),
        })
    }

    fn read_value_msg(op: OpId, tag: Tag, counter: u64) -> SodaMsg {
        SodaMsg::MdMeta(MdMetaMsg {
            mid: MessageId::new(op.client, counter),
            payload: MetaPayload::ReadValue { op, tag },
        })
    }

    fn read_complete_msg(op: OpId, tag: Tag, counter: u64) -> SodaMsg {
        SodaMsg::MdMeta(MdMetaMsg {
            mid: MessageId::new(op.client, counter),
            payload: MetaPayload::ReadComplete { op, tag },
        })
    }

    fn read_disperse_msg(tag: Tag, server_rank: usize, op: OpId, counter: u64) -> SodaMsg {
        SodaMsg::MdMeta(MdMetaMsg {
            mid: MessageId::new(ProcessId(server_rank as u32), counter),
            payload: MetaPayload::ReadDisperse {
                tag,
                server_rank,
                op,
            },
        })
    }

    #[test]
    fn initial_state_stores_initial_value_element() {
        let cfg = deployment(5, 2);
        let s = server(&cfg, 3);
        assert_eq!(s.stored_tag(), Tag::INITIAL);
        assert!(s.stored_bytes() > 0);
        assert_eq!(s.registered_readers(), 0);
        assert_eq!(s.history_len(), 0);
        assert_eq!(s.md_tombstones(), 0);
    }

    #[test]
    fn write_get_and_read_get_respond_with_stored_tag() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 0);
        let op = OpId::new(WRITER, 1);
        let r = deliver(&mut s, ProcessId(0), t(1), WRITER, SodaMsg::WriteGet { op });
        assert_eq!(r.sends.len(), 1);
        assert!(matches!(
            r.sends[0].1,
            SodaMsg::WriteGetResp { tag, .. } if tag == Tag::INITIAL
        ));
        let rop = OpId::new(READER, 1);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            READER,
            SodaMsg::ReadGet { op: rop },
        );
        assert!(matches!(r.sends[0].1, SodaMsg::ReadGetResp { .. }));
    }

    #[test]
    fn md_value_full_updates_storage_relays_and_acks() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 0);
        let tag = Tag::new(1, WRITER);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(2),
            WRITER,
            full_msg(&cfg, tag, b"value-one", 1),
        );
        assert_eq!(s.stored_tag(), tag);
        // Relays: full to ranks 1..2 (backbone), coded to ranks 3..4, plus an
        // ack back to the writer.
        let ack_count = r
            .sends
            .iter()
            .filter(|(to, m)| *to == WRITER && matches!(m, SodaMsg::WriteAck { .. }))
            .count();
        assert_eq!(ack_count, 1);
        let fulls = r
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, SodaMsg::MdValue(MdValueMsg::Full { .. })))
            .count();
        let codeds = r
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, SodaMsg::MdValue(MdValueMsg::Coded { .. })))
            .count();
        assert_eq!(fulls, 2);
        assert_eq!(codeds, 2);
    }

    #[test]
    fn older_tag_does_not_overwrite_but_still_acks() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 4); // outside the backbone: receives Coded
        let newer = Tag::new(5, WRITER);
        let older = Tag::new(2, WRITER);
        let elements = cfg.code().encode(b"newer").unwrap();
        deliver(
            &mut s,
            ProcessId(4),
            t(1),
            ProcessId(0),
            SodaMsg::MdValue(MdValueMsg::Coded {
                mid: MessageId::new(WRITER, 1),
                tag: newer,
                element: elements[4].clone(),
            }),
        );
        assert_eq!(s.stored_tag(), newer);
        let old_elements = cfg.code().encode(b"older").unwrap();
        let r = deliver(
            &mut s,
            ProcessId(4),
            t(2),
            ProcessId(1),
            SodaMsg::MdValue(MdValueMsg::Coded {
                mid: MessageId::new(WRITER, 2),
                tag: older,
                element: old_elements[4].clone(),
            }),
        );
        assert_eq!(
            s.stored_tag(),
            newer,
            "older write must not regress storage"
        );
        assert!(r.sends.iter().any(
            |(to, m)| *to == WRITER && matches!(m, SodaMsg::WriteAck { tag } if *tag == older)
        ));
    }

    #[test]
    fn registration_sends_stored_element_when_tag_is_high_enough() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 1);
        let tw = Tag::new(3, WRITER);
        deliver(
            &mut s,
            ProcessId(1),
            t(1),
            WRITER,
            full_msg(&cfg, tw, b"stored", 1),
        );
        let op = OpId::new(READER, 1);
        let r = deliver(
            &mut s,
            ProcessId(1),
            t(2),
            READER,
            read_value_msg(op, Tag::new(2, WRITER), 1),
        );
        assert_eq!(s.registered_readers(), 1);
        let to_reader: Vec<_> = r
            .sends
            .iter()
            .filter(|(to, m)| *to == READER && matches!(m, SodaMsg::CodedToReader { .. }))
            .collect();
        assert_eq!(to_reader.len(), 1);
        match &to_reader[0].1 {
            SodaMsg::CodedToReader { tag, element, .. } => {
                assert_eq!(*tag, tw);
                assert_eq!(element.index, 1);
            }
            _ => unreachable!(),
        }
        // READ-DISPERSE metadata went out to the backbone (f + 1 = 3 servers).
        let disperse = r
            .sends
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    SodaMsg::MdMeta(MdMetaMsg {
                        payload: MetaPayload::ReadDisperse { .. },
                        ..
                    })
                )
            })
            .count();
        assert_eq!(disperse, 3);
        assert_eq!(s.history_len(), 1);
    }

    #[test]
    fn registration_with_higher_requested_tag_sends_nothing_until_a_write_arrives() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 2);
        let op = OpId::new(READER, 1);
        let requested = Tag::new(4, WRITER);
        let r = deliver(
            &mut s,
            ProcessId(2),
            t(1),
            READER,
            read_value_msg(op, requested, 1),
        );
        assert_eq!(s.registered_readers(), 1);
        assert!(r.sends.iter().all(|(to, _)| *to != READER));
        // A concurrent write with tag >= requested is relayed to the reader.
        let tw = Tag::new(4, ProcessId(101));
        let r = deliver(
            &mut s,
            ProcessId(2),
            t(2),
            ProcessId(101),
            full_msg(&cfg, tw, b"concurrent", 1),
        );
        assert!(r.sends.iter().any(|(to, m)| *to == READER
            && matches!(m, SodaMsg::CodedToReader { tag, .. } if *tag == tw)));
    }

    #[test]
    fn read_complete_unregisters_and_cleans_history() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 0);
        let op = OpId::new(READER, 1);
        deliver(
            &mut s,
            ProcessId(0),
            t(1),
            READER,
            read_value_msg(op, Tag::INITIAL, 1),
        );
        assert_eq!(s.registered_readers(), 1);
        assert!(s.history_len() > 0);
        deliver(
            &mut s,
            ProcessId(0),
            t(2),
            READER,
            read_complete_msg(op, Tag::INITIAL, 2),
        );
        assert_eq!(s.registered_readers(), 0);
        assert_eq!(s.history_len(), 0);
    }

    #[test]
    fn read_complete_before_registration_leaves_marker_and_prevents_registration() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 0);
        let op = OpId::new(READER, 7);
        deliver(
            &mut s,
            ProcessId(0),
            t(1),
            READER,
            read_complete_msg(op, Tag::INITIAL, 1),
        );
        assert_eq!(s.registered_readers(), 0);
        assert_eq!(s.history_len(), 1, "marker (t0, s, r) present");
        // The late registration is ignored and the marker is cleaned up.
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(2),
            READER,
            read_value_msg(op, Tag::INITIAL, 2),
        );
        assert_eq!(s.registered_readers(), 0);
        assert_eq!(s.history_len(), 0);
        assert!(r.sends.iter().all(|(to, _)| *to != READER));
    }

    #[test]
    fn k_read_disperse_reports_unregister_the_reader() {
        let cfg = deployment(5, 2); // k = 3
        let mut s = server(&cfg, 4); // outside backbone; no local element sent for high tags
        let op = OpId::new(READER, 1);
        let requested = Tag::new(2, WRITER);
        deliver(
            &mut s,
            ProcessId(4),
            t(1),
            READER,
            read_value_msg(op, requested, 1),
        );
        assert_eq!(s.registered_readers(), 1);
        // Reports that servers 0 and 1 sent the element of tag (2, w).
        for (i, rank) in [0usize, 1].iter().enumerate() {
            deliver(
                &mut s,
                ProcessId(4),
                t(2),
                ProcessId(*rank as u32),
                read_disperse_msg(requested, *rank, op, i as u64 + 1),
            );
        }
        assert_eq!(s.registered_readers(), 1, "only 2 of k=3 elements reported");
        deliver(
            &mut s,
            ProcessId(4),
            t(3),
            ProcessId(2),
            read_disperse_msg(requested, 2, op, 3),
        );
        assert_eq!(s.registered_readers(), 0, "k distinct senders reached");
        assert_eq!(s.history_len(), 0, "history for the reader cleaned up");
    }

    /// Registers `op` at rank 4 of a (5, 2) cluster under a tag it does not
    /// hold, unregisters it with k = 3 READ-DISPERSE reports, then delivers
    /// one more report and the READ-COMPLETE, as a slow relay would.
    fn late_reports_after_unregistration(op: OpId) -> ServerProcess {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 4);
        let requested = Tag::new(2, WRITER);
        deliver(
            &mut s,
            ProcessId(4),
            t(1),
            op.client,
            read_value_msg(op, requested, 1),
        );
        for rank in 0..4usize {
            deliver(
                &mut s,
                ProcessId(4),
                t(2),
                ProcessId(rank as u32),
                read_disperse_msg(requested, rank, op, 10),
            );
        }
        deliver(
            &mut s,
            ProcessId(4),
            t(3),
            op.client,
            read_complete_msg(op, requested, 2),
        );
        assert_eq!(s.registered_readers(), 0);
        s
    }

    #[test]
    fn late_reports_for_a_closed_read_record_nothing() {
        let s = late_reports_after_unregistration(OpId::new(READER, 1));
        assert_eq!(s.history_len(), 0, "H is empty once the read is closed");
        assert_eq!(s.closed.len(), 1);
    }

    #[test]
    fn repair_reads_are_never_closed() {
        // A replacement's repair re-sends READ-VALUE under fresh ids, so its
        // late reports are still recorded, as before.
        let s = late_reports_after_unregistration(OpId::new(ProcessId(1), 1));
        assert_eq!(s.history_len(), 2, "the late report and the marker");
        assert!(s.closed.is_empty());
    }

    #[test]
    fn disperse_counts_require_distinct_servers_and_matching_tag() {
        let cfg = deployment(5, 2); // k = 3
        let mut s = server(&cfg, 4);
        let op = OpId::new(READER, 1);
        let tag_a = Tag::new(2, WRITER);
        let tag_b = Tag::new(3, WRITER);
        deliver(
            &mut s,
            ProcessId(4),
            t(1),
            READER,
            read_value_msg(op, tag_a, 1),
        );
        // Same server reported twice and a report for a different tag: neither
        // completes the count for tag_a.
        deliver(
            &mut s,
            ProcessId(4),
            t(2),
            ProcessId(0),
            read_disperse_msg(tag_a, 0, op, 1),
        );
        deliver(
            &mut s,
            ProcessId(4),
            t(2),
            ProcessId(0),
            read_disperse_msg(tag_a, 0, op, 2),
        );
        deliver(
            &mut s,
            ProcessId(4),
            t(2),
            ProcessId(1),
            read_disperse_msg(tag_b, 1, op, 3),
        );
        assert_eq!(s.registered_readers(), 1);
    }

    #[test]
    fn duplicate_md_value_messages_are_idempotent() {
        let cfg = deployment(5, 2);
        let mut s = server(&cfg, 0);
        let tag = Tag::new(1, WRITER);
        let msg = full_msg(&cfg, tag, b"dup", 1);
        let first = deliver(&mut s, ProcessId(0), t(1), WRITER, msg.clone());
        let second = deliver(&mut s, ProcessId(0), t(2), WRITER, msg);
        assert!(first.sends.len() > second.sends.len());
        assert!(
            second.sends.is_empty(),
            "duplicate produces no relays or acks"
        );
        assert_eq!(s.md_tombstones(), 1);
    }

    #[test]
    fn client_messages_are_ignored_by_servers() {
        let cfg = deployment(3, 1);
        let mut s = server(&cfg, 0);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeRead,
        );
        assert!(r.sends.is_empty());
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![1])),
        );
        assert!(r.sends.is_empty());
    }

    /// Drives a replacement through its full repair exchange by hand:
    /// start → read-get responses → coded elements → done.
    fn run_repair(
        cfg: &Arc<Deployment>,
        s: &mut ServerProcess,
        epoch: u64,
        tag: Tag,
        value: &[u8],
    ) -> Vec<(ProcessId, SodaMsg)> {
        let self_pid = ProcessId(0);
        let op = OpId::new(self_pid, epoch);
        let r = soda_simnet::testkit::start(s, self_pid, t(1));
        let get_count = r
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, SodaMsg::ReadGet { op: o } if *o == op))
            .count();
        assert_eq!(get_count, cfg.layout().n() - 1, "queries every survivor");
        // Survivors report their stored tag; majority completes the get phase.
        let mut registration = Vec::new();
        for rank in 1..=cfg.layout().majority() {
            let r = deliver(
                s,
                self_pid,
                t(2),
                ProcessId(rank as u32),
                SodaMsg::ReadGetResp { op, tag },
            );
            registration.extend(r.sends);
        }
        assert!(registration.iter().any(|(_, m)| matches!(
            m,
            SodaMsg::MdMeta(meta) if matches!(meta.payload, MetaPayload::ReadValue { op: o, tag: tr } if o == op && tr == tag)
        )), "registers with survivors under the majority max tag");
        // Survivors send their stored coded elements. `rank` doubles as the
        // sender's process id and its element index under the code's layout.
        let elements = cfg.code().encode(value).unwrap();
        let mut finish = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for rank in 1..=cfg.quorum(Phase::ReadValue) {
            let r = deliver(
                s,
                self_pid,
                t(3),
                ProcessId(rank as u32),
                SodaMsg::CodedToReader {
                    op,
                    tag,
                    element: elements[rank].clone(),
                },
            );
            finish.extend(r.sends);
        }
        finish
    }

    #[test]
    fn replacement_repairs_by_reencoding_from_survivors() {
        let cfg = deployment(5, 2);
        let mut s = ServerProcess::replacement(cfg.clone(), 0, 1);
        assert!(s.is_repairing());
        assert_eq!(s.stored_tag(), Tag::INITIAL);

        let tw = Tag::new(7, WRITER);
        let value = b"repaired value".to_vec();
        let finish = run_repair(&cfg, &mut s, 1, tw, &value);

        assert!(!s.is_repairing());
        assert_eq!(s.stored_tag(), tw);
        let expected = cfg.code().encode_one(&value, 0).unwrap();
        assert_eq!(s.stored_element().data, expected.data);
        // read-complete lets the survivors unregister the repair op.
        assert!(finish.iter().any(|(_, m)| matches!(
            m,
            SodaMsg::MdMeta(meta) if matches!(meta.payload, MetaPayload::ReadComplete { .. })
        )));
        let status = s.repair_status().unwrap();
        assert!(!status.failed());
        assert!(status.completed_at.is_some());
        let element_len = expected.data.len() as u64;
        assert_eq!(
            status.traffic_bytes,
            element_len * cfg.quorum(Phase::ReadValue) as u64,
            "repair bandwidth is read_threshold coded elements"
        );
    }

    #[test]
    fn under_repair_server_is_silent_on_gets_and_defers_readers() {
        let cfg = deployment(5, 2);
        let mut s = ServerProcess::replacement(cfg.clone(), 0, 1);

        // Tag queries get no answer: INITIAL would poison majority maxima.
        let wop = OpId::new(WRITER, 1);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            WRITER,
            SodaMsg::WriteGet { op: wop },
        );
        assert!(r.sends.is_empty());
        let rop = OpId::new(READER, 1);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            READER,
            SodaMsg::ReadGet { op: rop },
        );
        assert!(r.sends.is_empty());

        // A reader registering during the repair is recorded but not served.
        let tw = Tag::new(3, WRITER);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            READER,
            read_value_msg(rop, Tag::INITIAL, 1),
        );
        assert!(
            !r.sends
                .iter()
                .any(|(_, m)| matches!(m, SodaMsg::CodedToReader { .. })),
            "no element served while the stored element is garbage"
        );
        assert_eq!(s.registered_readers(), 1);

        // Once the repair completes the deferred reader is served.
        let finish = run_repair(&cfg, &mut s, 1, tw, b"deferred");
        let served = finish
            .iter()
            .find_map(|(to, m)| match m {
                SodaMsg::CodedToReader { op, tag, element } if *to == READER => {
                    Some((*op, *tag, element.clone()))
                }
                _ => None,
            })
            .expect("deferred reader served after repair");
        assert_eq!(served.0, rop);
        assert_eq!(served.1, tw);
        assert_eq!(
            served.2.data,
            cfg.code().encode_one(b"deferred", 0).unwrap().data
        );

        // After repair the server answers tag queries again.
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(9),
            WRITER,
            SodaMsg::WriteGet { op: wop },
        );
        assert!(matches!(r.sends[0].1, SodaMsg::WriteGetResp { tag, .. } if tag == tw));
    }

    #[test]
    fn repair_adoption_is_monotone_under_concurrent_writes() {
        let cfg = deployment(5, 2);
        let mut s = ServerProcess::replacement(cfg.clone(), 0, 1);

        // A concurrent write's md-value delivery lands mid-repair and is
        // stored (the relay/gossip path still reaches the replacement).
        let newer = Tag::new(9, WRITER);
        let r = deliver(
            &mut s,
            ProcessId(0),
            t(1),
            WRITER,
            full_msg(&cfg, newer, b"newer", 1),
        );
        assert!(r
            .sends
            .iter()
            .any(|(to, m)| *to == WRITER && matches!(m, SodaMsg::WriteAck { .. })));
        assert_eq!(s.stored_tag(), newer);
        assert!(
            s.is_repairing(),
            "md-value delivery does not end the repair"
        );

        // The repair then decodes an older tag; adoption must not go back.
        let older = Tag::new(4, WRITER);
        run_repair(&cfg, &mut s, 1, older, b"older value");
        assert!(!s.is_repairing());
        assert_eq!(s.stored_tag(), newer, "adoption is monotone");
    }

    #[test]
    fn replacement_epoch_namespaces_message_ids() {
        let cfg = deployment(5, 2);
        let epoch = 3u64;
        let mut s = ServerProcess::replacement(cfg.clone(), 0, epoch);
        let self_pid = ProcessId(0);
        let op = OpId::new(self_pid, epoch);
        soda_simnet::testkit::start(&mut s, self_pid, t(1));
        let mut sends = Vec::new();
        for rank in 1..=cfg.layout().majority() {
            let r = deliver(
                &mut s,
                self_pid,
                t(2),
                ProcessId(rank as u32),
                SodaMsg::ReadGetResp {
                    op,
                    tag: Tag::INITIAL,
                },
            );
            sends.extend(r.sends);
        }
        let mid = sends
            .iter()
            .find_map(|(_, m)| match m {
                SodaMsg::MdMeta(meta) => Some(meta.mid),
                _ => None,
            })
            .expect("repair registration dispersed");
        assert_eq!(
            mid.counter >> 32,
            epoch,
            "message ids of incarnation {epoch} cannot collide with tombstones of earlier ones"
        );
    }
}
