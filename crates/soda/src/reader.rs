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
//! flight are queued.

use crate::config::SodaConfig;
use crate::messages::{MetaPayload, OpId, SodaMsg};
use soda_protocol::md::{md_meta_send, MessageId};
use soda_protocol::{OpKind, OpRecord, QuorumTracker, Tag};
use soda_rs_code::CodedElement;
use soda_simnet::{Context, Process, ProcessId, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Phase of the in-flight read operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPhase {
    /// No operation in flight.
    Idle,
    /// Waiting for a majority of `read-get` responses.
    Get,
    /// Registered with the servers; accumulating coded elements.
    Value,
}

/// A SODA / SODAerr reader client process.
pub struct ReaderProcess {
    config: Arc<SodaConfig>,
    self_id: ProcessId,
    phase: ReadPhase,
    pending: VecDeque<()>,
    op_seq: u64,
    md_counter: u64,
    current_op: Option<OpId>,
    requested_tag: Option<Tag>,
    invoked_at: SimTime,
    get_tracker: QuorumTracker<Tag>,
    /// Coded elements accumulated in the current read, grouped by tag and
    /// keyed by the sending server's rank (the element index).
    collected: BTreeMap<Tag, BTreeMap<usize, CodedElement>>,
    completed: Vec<OpRecord>,
    /// Count of decode attempts that failed (diagnostics; should stay 0 when
    /// the corruption budget is respected).
    decode_failures: u64,
}

impl ReaderProcess {
    /// Creates a reader. `self_id` must be the process id under which the
    /// reader is registered with the simulation.
    pub fn new(config: Arc<SodaConfig>, self_id: ProcessId) -> Self {
        let majority = config.layout().majority();
        ReaderProcess {
            config,
            self_id,
            phase: ReadPhase::Idle,
            pending: VecDeque::new(),
            op_seq: 0,
            md_counter: 0,
            current_op: None,
            requested_tag: None,
            invoked_at: SimTime::ZERO,
            get_tracker: QuorumTracker::new(majority),
            collected: BTreeMap::new(),
            completed: Vec::new(),
            decode_failures: 0,
        }
    }

    /// Operations completed so far, in completion order.
    pub fn completed_ops(&self) -> &[OpRecord] {
        &self.completed
    }

    /// Current phase.
    pub fn phase(&self) -> ReadPhase {
        self.phase
    }

    /// Whether the reader has no operation in flight and no queued invocations.
    pub fn is_idle(&self) -> bool {
        self.phase == ReadPhase::Idle && self.pending.is_empty()
    }

    /// Number of decode attempts that failed (0 unless the corruption budget
    /// was exceeded).
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }

    fn next_mid(&mut self) -> MessageId {
        self.md_counter += 1;
        MessageId::new(self.self_id, self.md_counter)
    }

    fn start_next(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        if self.phase != ReadPhase::Idle || self.pending.pop_front().is_none() {
            return;
        }
        self.op_seq += 1;
        let op = OpId::new(self.self_id, self.op_seq);
        self.current_op = Some(op);
        self.requested_tag = None;
        self.invoked_at = ctx.now();
        self.phase = ReadPhase::Get;
        self.get_tracker = QuorumTracker::new(self.config.layout().majority());
        self.collected.clear();
        for &server in self.config.layout().servers() {
            ctx.send(server, SodaMsg::ReadGet { op });
        }
    }

    fn begin_value_phase(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        let op = self.current_op.expect("value phase requires an op");
        let tr = self
            .get_tracker
            .max_response()
            .copied()
            .unwrap_or(Tag::INITIAL);
        self.requested_tag = Some(tr);
        self.phase = ReadPhase::Value;
        let mid = self.next_mid();
        let payload = MetaPayload::ReadValue { op, tag: tr };
        for dispatch in md_meta_send(self.config.layout(), mid, payload) {
            let dest = self.config.layout().server(dispatch.to_rank);
            ctx.send(dest, SodaMsg::MdMeta(dispatch.msg));
        }
    }

    fn try_decode(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        let threshold = self.config.read_threshold();
        // Find the highest tag with enough elements (any qualifying tag would
        // do for correctness; the highest is chosen deterministically).
        let candidate = self
            .collected
            .iter()
            .rev()
            .find(|(_, elems)| elems.len() >= threshold)
            .map(|(tag, elems)| (*tag, elems.values().cloned().collect::<Vec<_>>()));
        let Some((tag, elements)) = candidate else {
            return;
        };
        match self.config.decode(&elements) {
            Ok(value) => self.complete(tag, value, ctx),
            Err(_) => {
                // More corrupted elements than the budget allows; keep
                // collecting (more relays may arrive) and record the failure.
                self.decode_failures += 1;
            }
        }
    }

    fn complete(&mut self, tag: Tag, value: Vec<u8>, ctx: &mut Context<'_, SodaMsg>) {
        let op = self.current_op.take().expect("completing without an op");
        let tr = self.requested_tag.take().unwrap_or(Tag::INITIAL);
        // read-complete phase: tell the servers to unregister this read.
        let mid = self.next_mid();
        let payload = MetaPayload::ReadComplete { op, tag: tr };
        for dispatch in md_meta_send(self.config.layout(), mid, payload) {
            let dest = self.config.layout().server(dispatch.to_rank);
            ctx.send(dest, SodaMsg::MdMeta(dispatch.msg));
        }
        self.completed.push(OpRecord {
            client: u64::from(op.client.0),
            seq: op.seq,
            kind: OpKind::Read,
            invoked_at: self.invoked_at,
            completed_at: ctx.now(),
            tag,
            value: Some(value),
        });
        self.collected.clear();
        self.phase = ReadPhase::Idle;
        self.start_next(ctx);
    }
}

impl Process<SodaMsg> for ReaderProcess {
    fn on_message(&mut self, from: ProcessId, msg: SodaMsg, ctx: &mut Context<'_, SodaMsg>) {
        match msg {
            SodaMsg::InvokeRead => {
                self.pending.push_back(());
                self.start_next(ctx);
            }
            SodaMsg::ReadGetResp { op, tag }
                if self.phase == ReadPhase::Get && self.current_op == Some(op) =>
            {
                self.get_tracker.record(from, tag);
                if self.get_tracker.is_complete() {
                    self.begin_value_phase(ctx);
                }
            }
            SodaMsg::CodedToReader { op, tag, element }
                if self.phase == ReadPhase::Value && self.current_op == Some(op) =>
            {
                let tr = self.requested_tag.unwrap_or(Tag::INITIAL);
                if tag >= tr {
                    self.collected
                        .entry(tag)
                        .or_default()
                        .insert(element.index, element);
                    self.try_decode(ctx);
                }
            }
            // Readers ignore write-protocol traffic and stray messages.
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

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::md::MdMetaMsg;
    use soda_protocol::{Layout, MdsCode};
    use soda_simnet::testkit::deliver;

    const READER: ProcessId = ProcessId(200);

    fn config(n: usize, f: usize) -> Arc<SodaConfig> {
        let layout = Layout::new((0..n as u32).map(ProcessId).collect(), f);
        SodaConfig::soda(layout)
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn start_read(reader: &mut ReaderProcess) -> OpId {
        deliver(reader, READER, t(1), ProcessId::ENV, SodaMsg::InvokeRead);
        OpId::new(READER, reader.op_seq)
    }

    fn answer_get_phase(reader: &mut ReaderProcess, op: OpId, tags: &[Tag]) {
        for (i, &tag) in tags.iter().enumerate() {
            deliver(
                reader,
                READER,
                t(2),
                ProcessId(i as u32),
                SodaMsg::ReadGetResp { op, tag },
            );
        }
    }

    #[test]
    fn invoke_queries_all_servers() {
        let mut r = ReaderProcess::new(config(5, 2), READER);
        assert!(r.is_idle());
        deliver(&mut r, READER, t(1), ProcessId::ENV, SodaMsg::InvokeRead);
        assert_eq!(r.phase(), ReadPhase::Get);
    }

    #[test]
    fn majority_get_responses_trigger_read_value_registration() {
        let cfg = config(5, 2);
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        // Two responses are not a majority of 5.
        answer_get_phase(&mut r, op, &[Tag::INITIAL, Tag::new(1, ProcessId(1))]);
        assert_eq!(r.phase(), ReadPhase::Get);
        // Third response: the reader registers via MD-META with tr = (1, p1).
        let result = deliver(
            &mut r,
            READER,
            t(3),
            ProcessId(2),
            SodaMsg::ReadGetResp {
                op,
                tag: Tag::INITIAL,
            },
        );
        assert_eq!(r.phase(), ReadPhase::Value);
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
        let cfg = config(5, 2); // k = 3
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        let tw = Tag::new(2, ProcessId(50));
        answer_get_phase(&mut r, op, &[tw, Tag::INITIAL, Tag::INITIAL]);
        assert_eq!(r.phase(), ReadPhase::Value);

        let value = b"the committed object value".to_vec();
        let elements = code.encode(&value).unwrap();
        // Elements for an *older* tag are ignored (below tr).
        let old = deliver(
            &mut r,
            READER,
            t(4),
            ProcessId(0),
            SodaMsg::CodedToReader {
                op,
                tag: Tag::new(1, ProcessId(50)),
                element: elements[0].clone(),
            },
        );
        assert!(old.sends.is_empty());
        // Two elements with tag tw: not enough yet.
        for (rank, element) in elements.iter().enumerate().take(2) {
            deliver(
                &mut r,
                READER,
                t(5),
                ProcessId(rank as u32),
                SodaMsg::CodedToReader {
                    op,
                    tag: tw,
                    element: element.clone(),
                },
            );
        }
        assert!(r.completed_ops().is_empty());
        // Duplicate element from the same server does not count.
        deliver(
            &mut r,
            READER,
            t(5),
            ProcessId(1),
            SodaMsg::CodedToReader {
                op,
                tag: tw,
                element: elements[1].clone(),
            },
        );
        assert!(r.completed_ops().is_empty());
        // Third distinct element completes the read.
        let done = deliver(
            &mut r,
            READER,
            t(6),
            ProcessId(4),
            SodaMsg::CodedToReader {
                op,
                tag: tw,
                element: elements[4].clone(),
            },
        );
        assert_eq!(r.completed_ops().len(), 1);
        let rec = &r.completed_ops()[0];
        assert_eq!(rec.kind, OpKind::Read);
        assert_eq!(rec.tag, tw);
        assert_eq!(rec.value.as_deref(), Some(value.as_slice()));
        assert_eq!(r.phase(), ReadPhase::Idle);
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
        let cfg = config(5, 2);
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        answer_get_phase(&mut r, op, &[Tag::INITIAL, Tag::INITIAL, Tag::INITIAL]);
        // A concurrent write with a higher tag is relayed by the servers.
        let tw = Tag::new(7, ProcessId(60));
        let value = b"newer value".to_vec();
        let elements = code.encode(&value).unwrap();
        for rank in [4usize, 2, 0] {
            deliver(
                &mut r,
                READER,
                t(5),
                ProcessId(rank as u32),
                SodaMsg::CodedToReader {
                    op,
                    tag: tw,
                    element: elements[rank].clone(),
                },
            );
        }
        assert_eq!(r.completed_ops().len(), 1);
        assert_eq!(r.completed_ops()[0].tag, tw);
        assert_eq!(
            r.completed_ops()[0].value.as_deref(),
            Some(value.as_slice())
        );
    }

    #[test]
    fn stale_op_elements_are_ignored() {
        let cfg = config(5, 2);
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        answer_get_phase(&mut r, op, &[Tag::INITIAL, Tag::INITIAL, Tag::INITIAL]);
        let stale_op = OpId::new(READER, 42);
        let elements = code.encode(b"x").unwrap();
        for (rank, element) in elements.iter().enumerate().take(3) {
            deliver(
                &mut r,
                READER,
                t(4),
                ProcessId(rank as u32),
                SodaMsg::CodedToReader {
                    op: stale_op,
                    tag: Tag::new(1, ProcessId(0)),
                    element: element.clone(),
                },
            );
        }
        assert!(r.completed_ops().is_empty());
    }

    #[test]
    fn queued_reads_run_back_to_back() {
        let cfg = config(3, 1); // k = 2, majority = 2
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        deliver(&mut r, READER, t(1), ProcessId::ENV, SodaMsg::InvokeRead);
        deliver(&mut r, READER, t(1), ProcessId::ENV, SodaMsg::InvokeRead);
        let op1 = OpId::new(READER, 1);
        answer_get_phase(&mut r, op1, &[Tag::INITIAL, Tag::INITIAL]);
        let elements = code.encode(b"v").unwrap();
        for (rank, element) in elements.iter().enumerate().take(2) {
            deliver(
                &mut r,
                READER,
                t(3),
                ProcessId(rank as u32),
                SodaMsg::CodedToReader {
                    op: op1,
                    tag: Tag::INITIAL,
                    element: element.clone(),
                },
            );
        }
        assert_eq!(r.completed_ops().len(), 1);
        // The second read started automatically.
        assert_eq!(r.phase(), ReadPhase::Get);
        assert_eq!(r.current_op, Some(OpId::new(READER, 2)));
    }

    #[test]
    fn sodaerr_reader_waits_for_k_plus_2e_and_tolerates_corruption() {
        let layout = Layout::new((0..7u32).map(ProcessId).collect(), 2);
        let cfg = SodaConfig::soda_err(layout, 1); // k = 3, threshold 5
        let code = cfg.code().clone();
        let mut r = ReaderProcess::new(cfg, READER);
        let op = start_read(&mut r);
        answer_get_phase(
            &mut r,
            op,
            &[Tag::INITIAL, Tag::INITIAL, Tag::INITIAL, Tag::INITIAL],
        );
        assert_eq!(r.phase(), ReadPhase::Value);
        let tw = Tag::new(1, ProcessId(33));
        let value = b"guarded against silent disk corruption".to_vec();
        let mut elements = code.encode(&value).unwrap();
        // One of the five delivered elements is silently corrupted.
        for b in elements[3].data.make_mut() {
            *b ^= 0xA5;
        }
        for (rank, element) in elements.iter().enumerate().take(4) {
            deliver(
                &mut r,
                READER,
                t(4),
                ProcessId(rank as u32),
                SodaMsg::CodedToReader {
                    op,
                    tag: tw,
                    element: element.clone(),
                },
            );
            assert!(r.completed_ops().is_empty(), "needs k + 2e = 5 elements");
        }
        deliver(
            &mut r,
            READER,
            t(5),
            ProcessId(4),
            SodaMsg::CodedToReader {
                op,
                tag: tw,
                element: elements[4].clone(),
            },
        );
        assert_eq!(r.completed_ops().len(), 1);
        assert_eq!(
            r.completed_ops()[0].value.as_deref(),
            Some(value.as_slice())
        );
    }
}
