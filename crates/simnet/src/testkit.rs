//! Utilities for unit-testing [`Process`] implementations without a full
//! simulation: deliver a single message, timer or start event to a process and
//! observe exactly which sends, timers and halts it produced.

use crate::process::{Action, Context, Message, Process, ProcessId, Sink};
use crate::time::SimTime;

/// The externally visible effects of delivering one event to a process.
#[derive(Debug)]
pub struct StepResult<M> {
    /// Messages the process sent, in order.
    pub sends: Vec<(ProcessId, M)>,
    /// Timers the process set, as `(delay, token)` pairs.
    pub timers: Vec<(u64, u64)>,
    /// Whether the process halted itself.
    pub halted: bool,
}

impl<M> StepResult<M> {
    fn from_actions(actions: Vec<Action<M>>) -> Self {
        let mut result = StepResult {
            sends: Vec::new(),
            timers: Vec::new(),
            halted: false,
        };
        for action in actions {
            match action {
                Action::Send { to, msg } => result.sends.push((to, msg)),
                Action::SetTimer { delay, token } => result.timers.push((delay, token)),
                Action::Halt => result.halted = true,
            }
        }
        result
    }
}

fn run_step<M: Message, P: Process<M> + ?Sized>(
    process: &mut P,
    self_id: ProcessId,
    now: SimTime,
    handler: impl FnOnce(&mut P, &mut Context<'_, M>),
) -> StepResult<M> {
    let mut actions = Vec::new();
    let mut ctx = Context {
        self_id,
        now,
        sink: Sink::Buffer(&mut actions),
    };
    handler(process, &mut ctx);
    StepResult::from_actions(actions)
}

/// Delivers the start event to a process and returns its effects.
pub fn start<M: Message, P: Process<M> + ?Sized>(
    process: &mut P,
    self_id: ProcessId,
    now: SimTime,
) -> StepResult<M> {
    run_step(process, self_id, now, |p, ctx| p.on_start(ctx))
}

/// Delivers one message to a process and returns its effects.
pub fn deliver<M: Message, P: Process<M> + ?Sized>(
    process: &mut P,
    self_id: ProcessId,
    now: SimTime,
    from: ProcessId,
    msg: M,
) -> StepResult<M> {
    run_step(process, self_id, now, |p, ctx| p.on_message(from, msg, ctx))
}

/// Fires the timer `token` on a process and returns its effects.
pub fn fire_timer<M: Message, P: Process<M> + ?Sized>(
    process: &mut P,
    self_id: ProcessId,
    now: SimTime,
    token: u64,
) -> StepResult<M> {
    run_step(process, self_id, now, |p, ctx| p.on_timer(token, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Echo(u32);
    impl Message for Echo {}

    struct Doubler;
    impl Process<Echo> for Doubler {
        fn on_start(&mut self, ctx: &mut Context<'_, Echo>) {
            ctx.set_timer(5, 77);
        }
        fn on_message(&mut self, from: ProcessId, msg: Echo, ctx: &mut Context<'_, Echo>) {
            ctx.send(from, Echo(msg.0 * 2));
            if msg.0 == 0 {
                ctx.halt();
            }
        }
    }

    #[test]
    fn start_and_deliver_capture_effects() {
        let mut p = Doubler;
        let started = start(&mut p, ProcessId(0), SimTime::ZERO);
        assert_eq!(started.timers, vec![(5, 77)]);
        assert!(started.sends.is_empty());

        let stepped = deliver(
            &mut p,
            ProcessId(0),
            SimTime::from_ticks(3),
            ProcessId(9),
            Echo(21),
        );
        assert_eq!(stepped.sends.len(), 1);
        assert_eq!(stepped.sends[0].0, ProcessId(9));
        assert_eq!(stepped.sends[0].1 .0, 42);
        assert!(!stepped.halted);

        let halted = deliver(
            &mut p,
            ProcessId(0),
            SimTime::from_ticks(4),
            ProcessId(9),
            Echo(0),
        );
        assert!(halted.halted);
    }
}
