//! The SODA writer automaton (Fig. 3 of the paper).
//!
//! A write proceeds in two phases:
//!
//! 1. **write-get** — query all servers for their stored tags, wait for a
//!    majority, and pick the highest tag `t_max`.
//! 2. **write-put** — create the new tag `t_w = (t_max.z + 1, w)` and disperse
//!    `(t_w, v)` through the MD-VALUE primitive (the full value goes only to
//!    the first `f + 1` servers; they fan out coded elements to the rest).
//!    The write completes once `k` servers have acknowledged.
//!
//! Writers are well-formed clients: a new operation starts only after the
//! previous one completed, so invocations that arrive while an operation is in
//! flight wait in the writer's [`OpQueue`].

use crate::config::SodaConfig;
use crate::messages::{OpId, SodaMsg};
use soda_protocol::md::{md_value_send, MessageId};
use soda_protocol::{Invocation, OpQueue, QuorumTracker, Tag};
use soda_simnet::{Context, Process, ProcessId};
use std::sync::Arc;

/// Phase of the in-flight write operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePhase {
    /// No operation in flight.
    Idle,
    /// Waiting for a majority of `write-get` responses.
    Get,
    /// Value dispersed; waiting for `k` acknowledgements.
    Put,
}

/// A SODA writer client process.
pub struct WriterProcess {
    config: Arc<SodaConfig>,
    self_id: ProcessId,
    phase: WritePhase,
    ops: OpQueue,
    get_tracker: QuorumTracker<Tag>,
    ack_tracker: QuorumTracker<()>,
}

impl WriterProcess {
    /// Creates a writer. `self_id` must be the process id under which the
    /// writer is registered with the simulation.
    pub fn new(config: Arc<SodaConfig>, self_id: ProcessId) -> Self {
        let majority = config.layout().majority();
        let k = config.k();
        WriterProcess {
            config,
            self_id,
            phase: WritePhase::Idle,
            ops: OpQueue::new(self_id),
            get_tracker: QuorumTracker::new(majority),
            ack_tracker: QuorumTracker::new(k),
        }
    }

    /// The writer's operations: those completed and the one in flight (also
    /// after a crash, since crashed processes keep their state).
    pub fn ops(&self) -> &OpQueue {
        &self.ops
    }

    /// Current phase.
    pub fn phase(&self) -> WritePhase {
        self.phase
    }

    /// The id of the operation in flight.
    fn op(&self) -> OpId {
        OpId::new(self.self_id, self.ops.seq())
    }

    fn start_next(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        let Some((seq, _)) = self.ops.start_next(ctx.now()) else {
            return;
        };
        let op = OpId::new(self.self_id, seq);
        self.phase = WritePhase::Get;
        self.get_tracker = QuorumTracker::new(self.config.layout().majority());
        for &server in self.config.layout().servers() {
            ctx.send(server, SodaMsg::WriteGet { op });
        }
    }

    fn begin_put(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        let t_max = self
            .get_tracker
            .max_response()
            .copied()
            .unwrap_or(Tag::INITIAL);
        let tag = t_max.next(self.self_id);
        self.ops.set_tag(tag);
        self.phase = WritePhase::Put;
        self.ack_tracker = QuorumTracker::new(self.config.k());
        let value = self
            .ops
            .value()
            .cloned()
            .expect("put phase requires a value");
        let mid = MessageId::new(self.self_id, self.ops.seq());
        for dispatch in md_value_send(self.config.layout(), mid, tag, value) {
            let dest = self.config.layout().server(dispatch.to_rank);
            ctx.send(dest, SodaMsg::MdValue(dispatch.msg));
        }
    }

    fn complete(&mut self, tag: Tag, ctx: &mut Context<'_, SodaMsg>) {
        self.ops.complete(ctx.now(), tag, None);
        self.phase = WritePhase::Idle;
        self.start_next(ctx);
    }
}

impl Process<SodaMsg> for WriterProcess {
    fn on_message(&mut self, from: ProcessId, msg: SodaMsg, ctx: &mut Context<'_, SodaMsg>) {
        match msg {
            SodaMsg::InvokeWrite(value) => {
                self.ops.push(Invocation::Write(value));
                self.start_next(ctx);
            }
            SodaMsg::WriteGetResp { op, tag }
                if self.phase == WritePhase::Get && self.op() == op =>
            {
                self.get_tracker.record(from, tag);
                if self.get_tracker.is_complete() {
                    self.begin_put(ctx);
                }
            }
            SodaMsg::WriteAck { tag }
                if self.phase == WritePhase::Put && self.ops.tag() == Some(tag) =>
            {
                self.ack_tracker.record(from, ());
                if self.ack_tracker.is_complete() {
                    self.complete(tag, ctx);
                }
            }
            // Writers ignore read-protocol traffic and stray messages.
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
    use soda_protocol::md::MdValueMsg;
    use soda_protocol::{value_from, Layout, OpKind};
    use soda_simnet::testkit::deliver;
    use soda_simnet::SimTime;

    const WRITER: ProcessId = ProcessId(100);

    fn config(n: usize, f: usize) -> Arc<SodaConfig> {
        let layout = Layout::new((0..n as u32).map(ProcessId).collect(), f);
        SodaConfig::soda(layout)
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn initial_state_is_idle() {
        let w = WriterProcess::new(config(5, 2), WRITER);
        assert_eq!(w.phase(), WritePhase::Idle);
        assert_eq!(w.ops().queued(), 0);
        assert!(w.ops().completed().is_empty());
    }

    #[test]
    fn invoke_starts_get_phase_querying_all_servers() {
        let cfg = config(5, 2);
        let mut w = WriterProcess::new(cfg, WRITER);
        let result = deliver(
            &mut w,
            WRITER,
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![1, 2, 3])),
        );
        assert_eq!(w.phase(), WritePhase::Get);
        assert_eq!(result.sends.len(), 5);
        assert!(result
            .sends
            .iter()
            .all(|(_, m)| matches!(m, SodaMsg::WriteGet { .. })));
    }

    #[test]
    fn majority_of_get_responses_triggers_md_value_dispersal() {
        let cfg = config(5, 2);
        let mut w = WriterProcess::new(cfg, WRITER);
        deliver(
            &mut w,
            WRITER,
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![7u8; 40])),
        );
        let op = OpId::new(WRITER, 1);
        // Two responses: still in Get phase (majority of 5 is 3).
        for s in 0..2u32 {
            let r = deliver(
                &mut w,
                WRITER,
                t(2),
                ProcessId(s),
                SodaMsg::WriteGetResp {
                    op,
                    tag: Tag::new(s as u64, ProcessId(s)),
                },
            );
            assert!(r.sends.is_empty());
            assert_eq!(w.phase(), WritePhase::Get);
        }
        // Third response completes the majority; the writer picks the highest
        // tag (2, p1... actually (1, p1)) and disperses with (2, WRITER).
        let r = deliver(
            &mut w,
            WRITER,
            t(3),
            ProcessId(2),
            SodaMsg::WriteGetResp {
                op,
                tag: Tag::new(2, ProcessId(2)),
            },
        );
        assert_eq!(w.phase(), WritePhase::Put);
        // Full value goes to the first f + 1 = 3 servers only.
        assert_eq!(r.sends.len(), 3);
        for (i, (dest, msg)) in r.sends.iter().enumerate() {
            assert_eq!(*dest, ProcessId(i as u32));
            match msg {
                SodaMsg::MdValue(MdValueMsg::Full { tag, value, .. }) => {
                    assert_eq!(*tag, Tag::new(3, WRITER));
                    assert_eq!(value.len(), 40);
                }
                other => panic!("expected Full, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_get_responses_do_not_advance_phase() {
        let cfg = config(5, 2);
        let mut w = WriterProcess::new(cfg, WRITER);
        deliver(
            &mut w,
            WRITER,
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![1])),
        );
        let op = OpId::new(WRITER, 1);
        for _ in 0..5 {
            deliver(
                &mut w,
                WRITER,
                t(2),
                ProcessId(0),
                SodaMsg::WriteGetResp {
                    op,
                    tag: Tag::INITIAL,
                },
            );
        }
        assert_eq!(w.phase(), WritePhase::Get, "same server repeated");
    }

    #[test]
    fn k_acks_complete_the_write_and_start_the_next() {
        let cfg = config(5, 2); // k = 3
        let mut w = WriterProcess::new(cfg, WRITER);
        deliver(
            &mut w,
            WRITER,
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![1])),
        );
        // Queue a second write while the first is in flight.
        deliver(
            &mut w,
            WRITER,
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![2])),
        );
        assert_eq!(w.ops().queued(), 1);
        let op = OpId::new(WRITER, 1);
        for s in 0..3u32 {
            deliver(
                &mut w,
                WRITER,
                t(2),
                ProcessId(s),
                SodaMsg::WriteGetResp {
                    op,
                    tag: Tag::INITIAL,
                },
            );
        }
        let tag = Tag::new(1, WRITER);
        assert_eq!(w.phase(), WritePhase::Put);
        // Acks from 2 servers: not yet complete.
        for s in 0..2u32 {
            deliver(
                &mut w,
                WRITER,
                t(4),
                ProcessId(s),
                SodaMsg::WriteAck { tag },
            );
        }
        assert!(w.ops().completed().is_empty());
        // Ack with the wrong tag is ignored.
        deliver(
            &mut w,
            WRITER,
            t(4),
            ProcessId(4),
            SodaMsg::WriteAck {
                tag: Tag::new(9, WRITER),
            },
        );
        assert!(w.ops().completed().is_empty());
        // Third matching ack completes the write and starts the queued one.
        let r = deliver(
            &mut w,
            WRITER,
            t(5),
            ProcessId(2),
            SodaMsg::WriteAck { tag },
        );
        assert_eq!(w.ops().completed().len(), 1);
        let rec = &w.ops().completed()[0];
        assert_eq!(rec.tag, tag);
        assert_eq!(rec.kind, OpKind::Write);
        assert_eq!(rec.value.as_deref(), Some([1u8].as_slice()));
        assert_eq!(rec.latency(), 4);
        // The queued write immediately issued its write-get round.
        assert_eq!(w.phase(), WritePhase::Get);
        assert_eq!(r.sends.len(), 5);
        assert_eq!(w.ops().queued(), 0);
    }

    #[test]
    fn responses_for_stale_ops_are_ignored() {
        let cfg = config(5, 1);
        let mut w = WriterProcess::new(cfg, WRITER);
        deliver(
            &mut w,
            WRITER,
            t(1),
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(vec![1])),
        );
        let stale = OpId::new(WRITER, 99);
        let r = deliver(
            &mut w,
            WRITER,
            t(2),
            ProcessId(0),
            SodaMsg::WriteGetResp {
                op: stale,
                tag: Tag::INITIAL,
            },
        );
        assert!(r.sends.is_empty());
        assert_eq!(w.phase(), WritePhase::Get);
        // Irrelevant message kinds are ignored too.
        let r = deliver(&mut w, WRITER, t(2), ProcessId(0), SodaMsg::InvokeRead);
        assert!(r.sends.is_empty());
    }
}
