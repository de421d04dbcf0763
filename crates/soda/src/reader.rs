//! The SODA reader automaton (Fig. 4 of the paper).
//!
//! A read proceeds in three phases:
//!
//! 1. **read-get** — query all servers for their stored tags, wait for a
//!    majority, and pick the highest tag `t_r`.
//! 2. **read-value** — disperse `(READ-VALUE, (r, t_r))` through MD-META so
//!    that every non-faulty server registers the reader. Registered servers
//!    send their stored coded element (if its tag is `≥ t_r`) and keep
//!    relaying the elements of concurrent writes until the reader is
//!    unregistered. The reader accumulates elements until it holds enough for
//!    a single tag `t ≥ t_r` — `k` of them for SODA, `k + 2e` for SODAerr —
//!    and decodes.
//! 3. **read-complete** — disperse `(READ-COMPLETE, (r, t_r))` so servers can
//!    unregister the reader, then return the decoded value.
//!
//! Readers are well-formed clients: invocations that arrive while a read is in
//! flight wait in the reader's [`OpQueue`].

use crate::config::Phase;
use crate::messages::{MetaPayload, OpId, SodaMsg};
use soda_protocol::md::{md_meta_send, MessageId};
use soda_protocol::{Deployment, Invocation, OpQueue, PhaseDriver, Reply, Tag, Value};
use soda_rs_code::{CodeError, CodedElement};
use soda_simnet::{Context, Process, ProcessId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One SODA read of Fig. 4, up to its decode: the `read-get` phase picks
/// `t_r`, the `read-value` phase collects coded elements of tags `≥ t_r`,
/// grouped by tag and keyed by element index, and decodes the highest tag
/// holding the `read-value` threshold of them. Whoever runs the read sends
/// its messages: a reader, or a replacement server, whose repair is a read
/// that re-encodes.
pub(crate) struct Read {
    op: OpId,
    /// The phase in flight: `read-get`, then `read-value`; ended once the
    /// read has decoded.
    phase: PhaseDriver<Phase, OpId>,
    /// `t_r`: the highest tag the read-get phase heard, raised as its
    /// replies arrive; no element is collected before that phase is over.
    tr: Tag,
    by_tag: BTreeMap<Tag, BTreeMap<usize, CodedElement>>,
}

impl Read {
    /// An idle read of `op`: no phase runs until [`Self::begin`].
    pub(crate) fn new(op: OpId) -> Self {
        Read {
            op,
            phase: PhaseDriver::default(),
            tr: Tag::INITIAL,
            by_tag: BTreeMap::new(),
        }
    }

    /// Begins the `read-get` phase of `op`, forgetting the previous read.
    pub(crate) fn begin(&mut self, deployment: &Deployment, op: OpId) {
        self.op = op;
        self.phase.begin(Phase::ReadGet, op, deployment.quorums());
        self.tr = Tag::INITIAL;
        self.by_tag.clear();
    }

    /// The read's operation id.
    pub(crate) fn op(&self) -> OpId {
        self.op
    }

    /// `t_r`, final once `read-value` has begun.
    pub(crate) fn tr(&self) -> Tag {
        self.tr
    }

    /// The phase in flight; `None` before the read begins and after it
    /// decoded.
    pub(crate) fn phase(&self) -> Option<Phase> {
        self.phase.phase()
    }

    /// Whether `read-value` of `op` is collecting elements.
    pub(crate) fn collects(&self, op: OpId) -> bool {
        self.phase.is_running(Phase::ReadValue, op)
    }

    /// Folds `from`'s `read-get` reply; returns true once the reply that
    /// completes the majority has begun `read-value` under [`Self::tr`].
    pub(crate) fn on_get_resp(
        &mut self,
        deployment: &Deployment,
        from: ProcessId,
        op: OpId,
        tag: Tag,
    ) -> bool {
        let reply = self.phase.record(Phase::ReadGet, op, from);
        if reply != Reply::Ignored {
            self.tr = self.tr.max(tag);
        }
        if reply != Reply::Completed {
            return false;
        }
        self.phase.begin(Phase::ReadValue, op, deployment.quorums());
        true
    }

    /// Collects `element` for `read-value` of `op` unless its tag is below
    /// `t_r`, then decodes the highest tag holding enough elements (any would
    /// do for correctness; the highest is deterministic). Elements are
    /// counted per tag, not per responder: a server also relays concurrent
    /// writes' elements. A decoded value ends the read; a failed decode (more
    /// corrupted elements than the budget) leaves it collecting, since more
    /// relays may arrive.
    pub(crate) fn on_element(
        &mut self,
        deployment: &Deployment,
        op: OpId,
        tag: Tag,
        element: CodedElement,
    ) -> Option<(Tag, Result<Value, CodeError>)> {
        if !self.collects(op) || tag < self.tr {
            return None;
        }
        let elements = self.by_tag.entry(tag).or_default();
        elements.insert(element.index, element);
        let threshold = deployment.quorum(Phase::ReadValue);
        let (&tag, elements) = self
            .by_tag
            .iter()
            .rev()
            .find(|(_, e)| e.len() >= threshold)?;
        let elements: Vec<CodedElement> = elements.values().cloned().collect();
        let decoded = deployment.decode(&elements);
        if decoded.is_ok() {
            self.phase.end();
            self.by_tag.clear();
        }
        Some((tag, decoded))
    }
}

/// A SODA / SODAerr reader client process.
pub struct ReaderProcess {
    deployment: Arc<Deployment>,
    self_id: ProcessId,
    ops: OpQueue,
    md_counter: u64,
    /// The read in flight, restarted for each operation.
    read: Read,
    /// Count of decode attempts that failed (diagnostics; should stay 0 when
    /// the corruption budget is respected).
    decode_failures: u64,
}

impl ReaderProcess {
    /// Creates a reader. `self_id` must be the process id under which the
    /// reader is registered with the simulation.
    pub fn new(deployment: Arc<Deployment>, self_id: ProcessId) -> Self {
        ReaderProcess {
            deployment,
            self_id,
            ops: OpQueue::new(self_id),
            md_counter: 0,
            read: Read::new(OpId::new(self_id, 0)),
            decode_failures: 0,
        }
    }

    /// The reader's operations: those completed and the one in flight.
    pub fn ops(&self) -> &OpQueue {
        &self.ops
    }

    /// Number of decode attempts that failed (0 unless the corruption budget
    /// was exceeded).
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }

    fn start_next(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        let Some((seq, _)) = self.ops.start_next(ctx.now()) else {
            return;
        };
        let op = OpId::new(self.self_id, seq);
        self.read.begin(&self.deployment, op);
        let servers = self.deployment.layout().servers().iter().copied();
        ctx.send_all(servers, SodaMsg::ReadGet { op });
    }

    /// Disperses `payload` to every server through MD-META, under a fresh
    /// message id of this reader.
    fn disperse(&mut self, payload: MetaPayload, ctx: &mut Context<'_, SodaMsg>) {
        self.md_counter += 1;
        let mid = MessageId::new(self.self_id, self.md_counter);
        for dispatch in md_meta_send(self.deployment.layout(), mid, payload) {
            let dest = self.deployment.layout().server(dispatch.to_rank);
            ctx.send(dest, SodaMsg::MdMeta(dispatch.msg));
        }
    }

    fn complete(&mut self, tag: Tag, value: Value, ctx: &mut Context<'_, SodaMsg>) {
        // read-complete phase: tell the servers to unregister this read.
        let (op, tr) = (self.read.op(), self.read.tr());
        self.disperse(MetaPayload::ReadComplete { op, tag: tr }, ctx);
        self.ops.complete(ctx.now(), tag, Some(value));
        self.start_next(ctx);
    }
}

impl Process<SodaMsg> for ReaderProcess {
    fn on_message(&mut self, from: ProcessId, msg: SodaMsg, ctx: &mut Context<'_, SodaMsg>) {
        match msg {
            SodaMsg::InvokeRead => {
                self.ops.push(Invocation::Read);
                self.start_next(ctx);
            }
            // The reply that completes the majority begins `read-value`:
            // register with the servers under `t_r`.
            SodaMsg::ReadGetResp { op, tag }
                if self.read.on_get_resp(&self.deployment, from, op, tag) =>
            {
                let tr = self.read.tr();
                self.disperse(MetaPayload::ReadValue { op, tag: tr }, ctx);
            }
            SodaMsg::CodedToReader { op, tag, element } => {
                match self.read.on_element(&self.deployment, op, tag, element) {
                    Some((tag, Ok(value))) => self.complete(tag, value, ctx),
                    Some((_, Err(_))) => self.decode_failures += 1,
                    None => {}
                }
            }
            // Readers ignore write-protocol traffic and stray messages.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::md::MdMetaMsg;
    use soda_protocol::{Layout, MdsCode, OpKind};
    use soda_simnet::testkit::{deliver, StepResult};
    use soda_simnet::SimTime;

    const READER: ProcessId = ProcessId(200);

    fn deployment(n: usize, f: usize) -> Arc<Deployment> {
        let layout = Layout::new((0..n as u32).map(ProcessId).collect(), f);
        Arc::new(Deployment::new(layout, n - f, 0))
    }

    /// Delivers `msg` from `from` at `ticks`.
    fn send(
        r: &mut ReaderProcess,
        ticks: u64,
        from: ProcessId,
        msg: SodaMsg,
    ) -> StepResult<SodaMsg> {
        deliver(r, READER, SimTime::from_ticks(ticks), from, msg)
    }

    /// Delivers server `rank`'s coded element for `tag` to read `op`.
    fn element(
        r: &mut ReaderProcess,
        ticks: u64,
        rank: usize,
        op: OpId,
        tag: Tag,
        element: &CodedElement,
    ) -> StepResult<SodaMsg> {
        let element = element.clone();
        send(
            r,
            ticks,
            ProcessId(rank as u32),
            SodaMsg::CodedToReader { op, tag, element },
        )
    }

    fn start_read(reader: &mut ReaderProcess) -> OpId {
        send(reader, 1, ProcessId::ENV, SodaMsg::InvokeRead);
        reader.read.op()
    }

    fn answer_get_phase(reader: &mut ReaderProcess, op: OpId, tags: &[Tag]) {
        for (i, &tag) in tags.iter().enumerate() {
            send(
                reader,
                2,
                ProcessId(i as u32),
                SodaMsg::ReadGetResp { op, tag },
            );
        }
    }

    #[test]
    fn invoke_queries_all_servers() {
        let mut r = ReaderProcess::new(deployment(5, 2), READER);
        assert_eq!((r.read.phase(), r.ops().queued()), (None, 0));
        send(&mut r, 1, ProcessId::ENV, SodaMsg::InvokeRead);
        assert_eq!(r.read.phase(), Some(Phase::ReadGet));
    }

    #[test]
    fn majority_get_responses_trigger_read_value_registration() {
        let mut r = ReaderProcess::new(deployment(5, 2), READER);
        let op = start_read(&mut r);
        // Two responses are not a majority of 5.
        answer_get_phase(&mut r, op, &[Tag::INITIAL, Tag::new(1, ProcessId(1))]);
        assert_eq!(r.read.phase(), Some(Phase::ReadGet));
        // Third response: the reader registers via MD-META with tr = (1, p1).
        let tag = Tag::INITIAL;
        let result = send(&mut r, 3, ProcessId(2), SodaMsg::ReadGetResp { op, tag });
        assert_eq!(r.read.phase(), Some(Phase::ReadValue));
        assert_eq!(result.sends.len(), 3, "READ-VALUE goes to the f+1 backbone");
        for (dest, msg) in &result.sends {
            assert!(dest.0 < 3);
            match msg {
                SodaMsg::MdMeta(MdMetaMsg {
                    payload: MetaPayload::ReadValue { op: o, tag },
                    ..
                }) => {
                    assert_eq!(*o, op);
                    assert_eq!(*tag, Tag::new(1, ProcessId(1)));
                }
                other => panic!("expected READ-VALUE, got {other:?}"),
            }
        }
    }

    #[test]
    fn read_completes_once_k_elements_of_one_tag_arrive() {
        let cfg = deployment(5, 2); // k = 3
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        let tw = Tag::new(2, ProcessId(50));
        answer_get_phase(&mut r, op, &[tw, Tag::INITIAL, Tag::INITIAL]);
        assert_eq!(r.read.phase(), Some(Phase::ReadValue));

        let value = b"the committed object value".to_vec();
        let elements = code.encode(&value).unwrap();
        // Elements for an *older* tag are ignored (below tr).
        let old = element(&mut r, 4, 0, op, Tag::new(1, ProcessId(50)), &elements[0]);
        assert!(old.sends.is_empty());
        // Two elements with tag tw: not enough yet.
        for (rank, e) in elements.iter().enumerate().take(2) {
            element(&mut r, 5, rank, op, tw, e);
        }
        assert!(r.ops().completed().is_empty());
        // Duplicate element from the same server does not count.
        element(&mut r, 5, 1, op, tw, &elements[1]);
        assert!(r.ops().completed().is_empty());
        // Third distinct element completes the read.
        let done = element(&mut r, 6, 4, op, tw, &elements[4]);
        assert_eq!(r.ops().completed().len(), 1);
        let rec = &r.ops().completed()[0];
        assert_eq!(rec.kind, OpKind::Read);
        assert_eq!(rec.tag, tw);
        assert_eq!(rec.value.as_deref(), Some(value.as_slice()));
        assert_eq!(r.read.phase(), None);
        // READ-COMPLETE is dispersed to the backbone.
        assert_eq!(done.sends.len(), 3);
        assert!(done.sends.iter().all(|(_, m)| matches!(
            m,
            SodaMsg::MdMeta(MdMetaMsg {
                payload: MetaPayload::ReadComplete { .. },
                ..
            })
        )));
        assert_eq!(r.decode_failures(), 0);
    }

    #[test]
    fn elements_of_a_newer_concurrent_write_can_serve_the_read() {
        let cfg = deployment(5, 2);
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        answer_get_phase(&mut r, op, &[Tag::INITIAL, Tag::INITIAL, Tag::INITIAL]);
        // A concurrent write with a higher tag is relayed by the servers.
        let tw = Tag::new(7, ProcessId(60));
        let value = b"newer value".to_vec();
        let elements = code.encode(&value).unwrap();
        for rank in [4usize, 2, 0] {
            element(&mut r, 5, rank, op, tw, &elements[rank]);
        }
        assert_eq!(r.ops().completed().len(), 1);
        assert_eq!(r.ops().completed()[0].tag, tw);
        assert_eq!(
            r.ops().completed()[0].value.as_deref(),
            Some(value.as_slice())
        );
    }

    #[test]
    fn stale_op_elements_are_ignored() {
        let cfg = deployment(5, 2);
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        answer_get_phase(&mut r, op, &[Tag::INITIAL, Tag::INITIAL, Tag::INITIAL]);
        let stale_op = OpId::new(READER, 42);
        let elements = code.encode(b"x").unwrap();
        for (rank, e) in elements.iter().enumerate().take(3) {
            element(&mut r, 4, rank, stale_op, Tag::new(1, ProcessId(0)), e);
        }
        assert!(r.ops().completed().is_empty());
    }

    #[test]
    fn queued_reads_run_back_to_back() {
        let cfg = deployment(3, 1); // k = 2, majority = 2
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        send(&mut r, 1, ProcessId::ENV, SodaMsg::InvokeRead);
        send(&mut r, 1, ProcessId::ENV, SodaMsg::InvokeRead);
        let op1 = OpId::new(READER, 1);
        answer_get_phase(&mut r, op1, &[Tag::INITIAL, Tag::INITIAL]);
        let elements = code.encode(b"v").unwrap();
        for (rank, e) in elements.iter().enumerate().take(2) {
            element(&mut r, 3, rank, op1, Tag::INITIAL, e);
        }
        assert_eq!(r.ops().completed().len(), 1);
        // The second read started automatically.
        assert_eq!(r.read.phase(), Some(Phase::ReadGet));
        assert_eq!(r.read.op(), OpId::new(READER, 2));
    }

    #[test]
    fn sodaerr_reader_waits_for_k_plus_2e_and_tolerates_corruption() {
        let layout = Layout::new((0..7u32).map(ProcessId).collect(), 2);
        let cfg = Arc::new(Deployment::new(layout, 3, 1)); // threshold k + 2e = 5
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        answer_get_phase(&mut r, op, &[Tag::INITIAL; 4]);
        assert_eq!(r.read.phase(), Some(Phase::ReadValue));
        let tw = Tag::new(1, ProcessId(33));
        let value = b"guarded against silent corruption".to_vec();
        let mut elements = code.encode(&value).unwrap();
        // One of the five delivered elements is silently corrupted.
        for b in elements[3].data.make_mut() {
            *b ^= 0xA5;
        }
        for (rank, e) in elements.iter().enumerate().take(4) {
            element(&mut r, 4, rank, op, tw, e);
            assert!(r.ops().completed().is_empty(), "needs k + 2e = 5 elements");
        }
        element(&mut r, 5, 4, op, tw, &elements[4]);
        assert_eq!(r.ops().completed().len(), 1);
        assert_eq!(
            r.ops().completed()[0].value.as_deref(),
            Some(value.as_slice())
        );
    }
}
