//! Process (actor) abstraction and the handler-side context.

use crate::sim::Simulation;
use crate::time::SimTime;
use std::any::Any;
use std::fmt;

/// Identifier of a process in the simulation.
///
/// Identifiers are assigned densely starting at 0 in the order processes are
/// added, and form a totally ordered set as the paper requires (the
/// message-disperse primitive relies on an agreed ordering of the servers).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The distinguished "environment" sender used for externally injected
    /// messages (operation invocations from the workload driver).
    pub const ENV: ProcessId = ProcessId(u32::MAX);

    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ProcessId::ENV {
            write!(f, "env")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

/// Trait for messages exchanged between processes.
///
/// `data_bytes` reports how many bytes of *object-value data* (full values or
/// coded elements) the message carries. The paper's communication-cost model
/// counts only these bytes and treats metadata (tags, ids, acknowledgements)
/// as free, so metadata-only messages keep the default of `0`.
pub trait Message: Clone + fmt::Debug + Send + 'static {
    /// Bytes of object-value data carried by this message (0 for metadata).
    fn data_bytes(&self) -> usize {
        0
    }
}

/// A protocol automaton.
///
/// Handlers receive a [`Context`] through which they can send messages, set
/// timers and read the current simulated time. Tests and experiment harnesses
/// inspect a process's state with [`Simulation::process_as`], which downcasts
/// through the [`Any`] supertrait; a process writes nothing for it.
pub trait Process<M: Message>: Any + Send {
    /// Called once when the simulation starts (before any message delivery).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message is delivered to this process.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, M>) {}

    /// Unused: [`Simulation::process_as`] downcasts through the [`Any`]
    /// supertrait. Kept because the benchmark's echo probe implements it.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// Unused, as [`Process::as_any`]. Kept because the benchmark's echo
    /// probe implements it.
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

/// A handler's effect as [`crate::testkit`] records it.
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send { to: ProcessId, msg: M },
    SetTimer { delay: u64, token: u64 },
    Halt,
}

/// Where a [`Context`]'s effects go: into the running simulation, or into
/// the list [`crate::testkit`] hands back.
pub(crate) enum Sink<'a, M: Message> {
    Sim(&'a mut Simulation<M>),
    Buffer(&'a mut Vec<Action<M>>),
}

/// Handler-side view of the simulation: lets a process send messages, set
/// timers, halt and read the clock. Each effect enters the scheduler at the
/// call, in the order the handler makes the calls: a send samples its delay
/// and faults then, a timer is queued then and a halt crashes the process
/// then. No effect runs another handler, so none re-enters the process.
/// Handlers draw no randomness: every draw in a run is the network's.
pub struct Context<'a, M: Message> {
    pub(crate) self_id: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) sink: Sink<'a, M>,
}

impl<'a, M: Message> Context<'a, M> {
    /// The id of the process whose handler is running.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the reliable point-to-point channel. Delivery
    /// is asynchronous; the delay is sampled from the network configuration.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        match &mut self.sink {
            Sink::Sim(sim) => sim.enqueue_send(self.self_id, to, msg),
            Sink::Buffer(actions) => actions.push(Action::Send { to, msg }),
        }
    }

    /// Sends the same message to every process in `to`, in order.
    pub fn send_all<I: IntoIterator<Item = ProcessId>>(&mut self, to: I, msg: M) {
        for dest in to {
            self.send(dest, msg.clone());
        }
    }

    /// Schedules `on_timer(token)` on this process after `delay` ticks.
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        match &mut self.sink {
            Sink::Sim(sim) => sim.enqueue_timer(self.self_id, delay, token),
            Sink::Buffer(actions) => actions.push(Action::SetTimer { delay, token }),
        }
    }

    /// Crashes this process: no further events will be delivered to it.
    /// Messages it has sent, before the halt or after it in the same
    /// handler, remain in the channels, matching the paper's channel model.
    pub fn halt(&mut self) {
        match &mut self.sink {
            Sink::Sim(sim) => sim.crash_now(self.self_id),
            Sink::Buffer(actions) => actions.push(Action::Halt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_order() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(ProcessId::ENV.to_string(), "env");
        assert!(ProcessId(1) < ProcessId(2));
        assert_eq!(ProcessId(5).index(), 5);
    }

    #[derive(Clone, Debug)]
    struct Dummy;
    impl Message for Dummy {}

    #[test]
    fn default_message_metadata_is_free() {
        assert_eq!(Dummy.data_bytes(), 0);
    }

    #[test]
    fn context_buffers_actions() {
        let mut actions = Vec::new();
        let mut ctx: Context<'_, Dummy> = Context {
            self_id: ProcessId(0),
            now: SimTime::from_ticks(5),
            sink: Sink::Buffer(&mut actions),
        };
        ctx.send(ProcessId(1), Dummy);
        ctx.send_all([ProcessId(2), ProcessId(3)], Dummy);
        ctx.set_timer(10, 99);
        ctx.halt();
        assert_eq!(ctx.now().ticks(), 5);
        assert_eq!(ctx.self_id(), ProcessId(0));
        assert_eq!(actions.len(), 5);
    }
}
