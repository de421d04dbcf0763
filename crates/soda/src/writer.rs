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

use crate::config::Phase;
use crate::messages::{OpId, SodaMsg};
use soda_protocol::md::{md_value_send, MessageId};
use soda_protocol::{Deployment, Invocation, OpQueue, PhaseDriver, Reply, Tag};
use soda_simnet::{Context, Process, ProcessId};
use std::sync::Arc;

/// A SODA writer client process.
pub struct WriterProcess {
    deployment: Arc<Deployment>,
    self_id: ProcessId,
    ops: OpQueue,
    /// The phase in flight: `write-get`, then `write-put`.
    phase: PhaseDriver<Phase, OpId>,
    /// `t_max`: the highest tag the write-get phase has heard so far.
    max_tag: Tag,
}

impl WriterProcess {
    /// Creates a writer. `self_id` must be the process id under which the
    /// writer is registered with the simulation.
    pub fn new(deployment: Arc<Deployment>, self_id: ProcessId) -> Self {
        WriterProcess {
            deployment,
            self_id,
            ops: OpQueue::new(self_id),
            phase: PhaseDriver::default(),
            max_tag: Tag::INITIAL,
        }
    }

    /// The writer's operations: those completed and the one in flight (also
    /// after a crash, since crashed processes keep their state).
    pub fn ops(&self) -> &OpQueue {
        &self.ops
    }

    /// The same operations, mutably, for
    /// [`ProtocolSpec::client_ops_mut`](soda_protocol::ProtocolSpec::client_ops_mut).
    pub fn ops_mut(&mut self) -> &mut OpQueue {
        &mut self.ops
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
        self.phase
            .begin(Phase::WriteGet, op, self.deployment.quorums());
        self.max_tag = Tag::INITIAL;
        let servers = self.deployment.layout().servers().iter().copied();
        ctx.send_all(servers, SodaMsg::WriteGet { op });
    }

    fn begin_put(&mut self, ctx: &mut Context<'_, SodaMsg>) {
        let tag = self.max_tag.next(self.self_id);
        self.ops.set_tag(tag);
        self.phase
            .begin(Phase::WritePut, self.op(), self.deployment.quorums());
        let value = self
            .ops
            .value()
            .cloned()
            .expect("put phase requires a value");
        let mid = MessageId::new(self.self_id, self.ops.seq());
        for dispatch in md_value_send(self.deployment.layout(), mid, tag, value) {
            let dest = self.deployment.layout().server(dispatch.to_rank);
            ctx.send(dest, SodaMsg::MdValue(dispatch.msg));
        }
    }

    fn complete(&mut self, tag: Tag, ctx: &mut Context<'_, SodaMsg>) {
        self.ops.complete(ctx.now(), tag, None);
        self.phase.end();
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
            SodaMsg::WriteGetResp { op, tag } => {
                let reply = self.phase.record(Phase::WriteGet, op, from);
                if reply != Reply::Ignored {
                    self.max_tag = self.max_tag.max(tag);
                }
                if reply == Reply::Completed {
                    self.begin_put(ctx);
                }
            }
            // Acks name the write by its tag: the servers send them as
            // MD-VALUE deliveries land, not as replies to one request.
            SodaMsg::WriteAck { tag }
                if self.ops.tag() == Some(tag)
                    && self.phase.record(Phase::WritePut, self.op(), from) == Reply::Completed =>
            {
                self.complete(tag, ctx)
            }
            // Writers ignore read-protocol traffic and stray messages.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::md::MdValueMsg;
    use soda_protocol::{value_from, Layout, OpKind};
    use soda_simnet::testkit::{deliver, StepResult};
    use soda_simnet::SimTime;

    const WRITER: ProcessId = ProcessId(100);
    /// The writer's first operation.
    const OP: OpId = OpId {
        client: WRITER,
        seq: 1,
    };

    fn deployment(n: usize, f: usize) -> Arc<Deployment> {
        let layout = Layout::new((0..n as u32).map(ProcessId).collect(), f);
        Arc::new(Deployment::new(layout, n - f, 0))
    }

    /// Delivers `msg` from server `from` (or the environment) at `ticks`.
    fn send(
        w: &mut WriterProcess,
        ticks: u64,
        from: ProcessId,
        msg: SodaMsg,
    ) -> StepResult<SodaMsg> {
        deliver(w, WRITER, SimTime::from_ticks(ticks), from, msg)
    }

    fn invoke(w: &mut WriterProcess, value: Vec<u8>) -> StepResult<SodaMsg> {
        send(
            w,
            1,
            ProcessId::ENV,
            SodaMsg::InvokeWrite(value_from(value)),
        )
    }

    fn get_resp(
        w: &mut WriterProcess,
        ticks: u64,
        from: u32,
        op: OpId,
        tag: Tag,
    ) -> StepResult<SodaMsg> {
        send(w, ticks, ProcessId(from), SodaMsg::WriteGetResp { op, tag })
    }

    #[test]
    fn initial_state_is_idle() {
        let w = WriterProcess::new(deployment(5, 2), WRITER);
        assert_eq!(w.phase.phase(), None);
        assert_eq!(w.ops().queued(), 0);
        assert!(w.ops().completed().is_empty());
    }

    #[test]
    fn invoke_starts_get_phase_querying_all_servers() {
        let mut w = WriterProcess::new(deployment(5, 2), WRITER);
        let result = invoke(&mut w, vec![1, 2, 3]);
        assert_eq!(w.phase.phase(), Some(Phase::WriteGet));
        assert_eq!(result.sends.len(), 5);
        assert!(result
            .sends
            .iter()
            .all(|(_, m)| matches!(m, SodaMsg::WriteGet { .. })));
    }

    #[test]
    fn majority_of_get_responses_triggers_md_value_dispersal() {
        let mut w = WriterProcess::new(deployment(5, 2), WRITER);
        invoke(&mut w, vec![7u8; 40]);
        // Two responses: still in Get phase (majority of 5 is 3).
        for s in 0..2u32 {
            let r = get_resp(&mut w, 2, s, OP, Tag::new(s as u64, ProcessId(s)));
            assert!(r.sends.is_empty());
            assert_eq!(w.phase.phase(), Some(Phase::WriteGet));
        }
        // Third response completes the majority; the writer picks the
        // highest tag, (2, p2), and disperses with (3, WRITER).
        let r = get_resp(&mut w, 3, 2, OP, Tag::new(2, ProcessId(2)));
        assert_eq!(w.phase.phase(), Some(Phase::WritePut));
        // Full value goes to the first f + 1 = 3 servers only.
        assert_eq!(r.sends.len(), 3);
        for (i, (dest, msg)) in r.sends.iter().enumerate() {
            assert_eq!(*dest, ProcessId(i as u32));
            match msg {
                SodaMsg::MdValue(MdValueMsg::Full { tag, value, .. }) => {
                    assert_eq!(*tag, Tag::new(3, WRITER));
                    assert_eq!(value.value().len(), 40);
                }
                other => panic!("expected Full, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_get_responses_do_not_advance_phase() {
        let mut w = WriterProcess::new(deployment(5, 2), WRITER);
        invoke(&mut w, vec![1]);
        for _ in 0..5 {
            get_resp(&mut w, 2, 0, OP, Tag::INITIAL);
        }
        let phase = w.phase.phase();
        assert_eq!(phase, Some(Phase::WriteGet), "same server repeated");
    }

    #[test]
    fn k_acks_complete_the_write_and_start_the_next() {
        let mut w = WriterProcess::new(deployment(5, 2), WRITER); // k = 3
        invoke(&mut w, vec![1]);
        // Queue a second write while the first is in flight.
        invoke(&mut w, vec![2]);
        assert_eq!(w.ops().queued(), 1);
        for s in 0..3u32 {
            get_resp(&mut w, 2, s, OP, Tag::INITIAL);
        }
        let tag = Tag::new(1, WRITER);
        assert_eq!(w.phase.phase(), Some(Phase::WritePut));
        // Acks from 2 servers: not yet complete.
        for s in 0..2u32 {
            send(&mut w, 4, ProcessId(s), SodaMsg::WriteAck { tag });
        }
        assert!(w.ops().completed().is_empty());
        // Ack with the wrong tag is ignored.
        let wrong = Tag::new(9, WRITER);
        send(&mut w, 4, ProcessId(4), SodaMsg::WriteAck { tag: wrong });
        assert!(w.ops().completed().is_empty());
        // Third matching ack completes the write and starts the queued one.
        let r = send(&mut w, 5, ProcessId(2), SodaMsg::WriteAck { tag });
        assert_eq!(w.ops().completed().len(), 1);
        let rec = &w.ops().completed()[0];
        assert_eq!(rec.tag, tag);
        assert_eq!(rec.kind, OpKind::Write);
        assert_eq!(rec.value.as_deref(), Some([1u8].as_slice()));
        assert_eq!(rec.latency(), 4);
        // The queued write immediately issued its write-get round.
        assert_eq!(w.phase.phase(), Some(Phase::WriteGet));
        assert_eq!(r.sends.len(), 5);
        assert_eq!(w.ops().queued(), 0);
    }

    #[test]
    fn responses_for_stale_ops_are_ignored() {
        let mut w = WriterProcess::new(deployment(5, 1), WRITER);
        invoke(&mut w, vec![1]);
        let r = get_resp(&mut w, 2, 0, OpId::new(WRITER, 99), Tag::INITIAL);
        assert!(r.sends.is_empty());
        assert_eq!(w.phase.phase(), Some(Phase::WriteGet));
        // Irrelevant message kinds are ignored too.
        let r = send(&mut w, 2, ProcessId(0), SodaMsg::InvokeRead);
        assert!(r.sends.is_empty());
    }
}
