//! The discrete-event scheduler.

use crate::config::NetworkConfig;
use crate::netfault::NetFaultPlan;
use crate::process::{Context, Message, Process, ProcessId, Sink};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::Stats;
use crate::wheel::{EventWheel, Scheduled};
use std::any::Any;
use std::cmp::Ordering;

/// Message-type-specific payload corruption, offered every process-to-process
/// send the [`NetFaultPlan`] does not cut. Receives `(from, to, message)` and
/// returns whether it actually mutated the message (so the stats can count
/// corrupted deliveries). The hook alone decides which senders are byzantine
/// and which payloads it touches; it draws no randomness. Installed with
/// [`Simulation::set_corruption_hook`]; protocol crates provide hooks that
/// corrupt only the payloads their threat model allows (e.g. SODAerr corrupts
/// coded elements its byzantine servers send to readers, never metadata).
pub type CorruptionHook<M> = Box<dyn FnMut(ProcessId, ProcessId, &mut M) -> bool + Send>;

/// What happens when an event fires.
enum EventKind<M> {
    /// Deliver a message from `from`.
    Deliver { from: ProcessId, msg: M },
    /// Fire a timer with the given token.
    Timer { token: u64 },
    /// Crash the target process.
    Crash,
    /// Replace the target process with a fresh one (crash recovery). The
    /// replacement's `on_start` runs before the next event is processed.
    Recover { replacement: Box<dyn Process<M>> },
}

// Manual impl: `Box<dyn Process<M>>` is not `Debug`, so the derive would
// reject the `Recover` variant.
impl<M: std::fmt::Debug> std::fmt::Debug for EventKind<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Deliver { from, msg } => f
                .debug_struct("Deliver")
                .field("from", from)
                .field("msg", msg)
                .finish(),
            EventKind::Timer { token } => f.debug_struct("Timer").field("token", token).finish(),
            EventKind::Crash => f.write_str("Crash"),
            EventKind::Recover { .. } => f.write_str("Recover"),
        }
    }
}

/// A scheduled event. Ordering is by `(time, sequence number)`, which makes
/// executions fully deterministic for a fixed seed.
#[derive(Debug)]
struct Event<M> {
    at: SimTime,
    seq: u64,
    target: ProcessId,
    kind: EventKind<M>,
    /// Data bytes carried (cached so delivery accounting does not need the
    /// message after a drop).
    data_bytes: usize,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl<M> Scheduled for Event<M> {
    fn at_ticks(&self) -> u64 {
        self.at.ticks()
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Result of running the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of events processed during this run call.
    pub events_processed: u64,
    /// Simulated time when the run stopped.
    pub final_time: SimTime,
    /// True if the run stopped because the event cap was reached rather than
    /// because the system became quiescent (usually indicates a protocol bug
    /// such as an infinite relay loop).
    pub hit_event_cap: bool,
}

/// A deterministic discrete-event simulation of asynchronous processes
/// connected by reliable point-to-point channels.
pub struct Simulation<M: Message> {
    config: NetworkConfig,
    processes: Vec<Option<Box<dyn Process<M>>>>,
    crashed: Vec<bool>,
    started: Vec<bool>,
    queue: EventWheel<Event<M>>,
    /// Events injected since the last run began, in `seq` order. They enter
    /// the queue when the next run begins, so injecting into a
    /// quiescent simulation takes no queue memory until it runs.
    staged: Vec<Event<M>>,
    now: SimTime,
    seq: u64,
    /// True once every registered, non-crashed process has had `on_start`
    /// run; cleared when a process is added or replaced. Lets the event loop
    /// skip the all-processes scan on the hot path.
    all_started: bool,
    /// The network's stream: base delays and link faults, nothing else.
    rng: SimRng,
    stats: Stats,
    event_cap: u64,
    net_faults: NetFaultPlan,
    /// Cached "the plan is [`NetFaultPlan::is_passthrough`] and no corruption
    /// hook is installed", so the per-send fast path is a single flag test.
    net_passthrough: bool,
    corruptor: Option<CorruptionHook<M>>,
}

impl<M: Message> Simulation<M> {
    /// Creates a simulation with the given RNG seed and network configuration.
    pub fn new(seed: u64, config: NetworkConfig) -> Self {
        Simulation {
            config,
            processes: Vec::new(),
            crashed: Vec::new(),
            started: Vec::new(),
            queue: EventWheel::new(),
            staged: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            all_started: true,
            rng: SimRng::network(seed),
            stats: Stats::default(),
            event_cap: 50_000_000,
            net_faults: NetFaultPlan::none(),
            net_passthrough: true,
            corruptor: None,
        }
    }

    /// Installs the network adversary consulted on every process-to-process
    /// send (externally injected messages and timers are never faulted).
    /// A passthrough plan consumes no randomness, so installing
    /// [`NetFaultPlan::none`] leaves executions bit-identical.
    pub fn set_net_fault_plan(&mut self, plan: NetFaultPlan) {
        self.net_passthrough = plan.is_passthrough() && self.corruptor.is_none();
        self.net_faults = plan;
    }

    /// Installs the payload-corruption hook, which is offered every
    /// process-to-process send the installed [`NetFaultPlan`] does not cut.
    /// Either setter may be called first.
    pub fn set_corruption_hook(&mut self, hook: CorruptionHook<M>) {
        self.net_passthrough = false;
        self.corruptor = Some(hook);
    }

    /// Overrides the safety cap on processed events per run call.
    pub fn with_event_cap(mut self, cap: u64) -> Self {
        self.event_cap = cap;
        self
    }

    /// Registers a process and returns its id. Ids are assigned densely in
    /// registration order, giving the total order on processes the protocols
    /// rely on.
    pub fn add_process(&mut self, process: Box<dyn Process<M>>) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(Some(process));
        self.crashed.push(false);
        self.started.push(false);
        self.all_started = false;
        id
    }

    /// Number of registered processes.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether a process has crashed.
    pub fn is_crashed(&self, id: ProcessId) -> bool {
        self.crashed.get(id.index()).copied().unwrap_or(false)
    }

    /// Aggregate message statistics so far. A window's cost is a counter's
    /// difference across it.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Immutable typed access to a process's state.
    pub fn process_as<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        let process: &dyn Any = self.processes.get(id.index())?.as_deref()?;
        process.downcast_ref::<T>()
    }

    /// Mutable typed access to a process's state.
    pub fn process_as_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        let process: &mut dyn Any = self.processes.get_mut(id.index())?.as_deref_mut()?;
        process.downcast_mut::<T>()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Injects a message from the environment, delivered at the current time
    /// (before any later-scheduled events).
    pub fn send_external(&mut self, to: ProcessId, msg: M) {
        self.send_external_at(self.now, to, msg);
    }

    /// Injects a message from the environment for delivery at `at`.
    pub fn send_external_at(&mut self, at: SimTime, to: ProcessId, msg: M) {
        let at = at.max(self.now);
        let data_bytes = msg.data_bytes();
        self.stats.record_send(ProcessId::ENV, data_bytes, false);
        let seq = self.next_seq();
        self.stage(Event {
            at,
            seq,
            target: to,
            kind: EventKind::Deliver {
                from: ProcessId::ENV,
                msg,
            },
            data_bytes,
        });
    }

    /// Schedules a crash of `process` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, process: ProcessId) {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.stage(Event {
            at,
            seq,
            target: process,
            kind: EventKind::Crash,
            data_bytes: 0,
        });
    }

    /// Schedules a recovery of `process` at time `at`: `replacement` (a fresh
    /// process, typically with empty state) takes over the id, the crashed
    /// flag is cleared, and the replacement's `on_start` runs before the next
    /// event is processed. Messages still in flight towards the id — whether
    /// sent before the crash or during the outage — are delivered to the
    /// replacement, exactly as an asynchronous network may deliver arbitrarily
    /// old messages to a repaired server.
    pub fn schedule_recovery(
        &mut self,
        at: SimTime,
        process: ProcessId,
        replacement: Box<dyn Process<M>>,
    ) {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.stage(Event {
            at,
            seq,
            target: process,
            kind: EventKind::Recover { replacement },
            data_bytes: 0,
        });
    }

    /// Crashes a process immediately.
    pub(crate) fn crash_now(&mut self, process: ProcessId) {
        if let Some(flag) = self.crashed.get_mut(process.index()) {
            *flag = true;
        }
    }

    /// Replaces a process immediately (see [`Self::schedule_recovery`]). The
    /// replacement's `on_start` runs before the next event is processed.
    fn recover_now(&mut self, process: ProcessId, replacement: Box<dyn Process<M>>) {
        let idx = process.index();
        if idx >= self.processes.len() {
            return;
        }
        self.processes[idx] = Some(replacement);
        self.crashed[idx] = false;
        self.started[idx] = false;
        self.all_started = false;
    }

    /// Ensures `on_start` has run for every registered process. A dirty
    /// flag makes the per-event call a single branch once everything has
    /// started.
    fn ensure_started(&mut self) {
        if self.all_started {
            return;
        }
        self.all_started = true;
        for idx in 0..self.processes.len() {
            if self.started[idx] || self.crashed[idx] {
                continue;
            }
            self.started[idx] = true;
            self.dispatch(ProcessId(idx as u32), |process, ctx| process.on_start(ctx));
        }
    }

    /// Runs a handler on a process. The process is out of its slot while
    /// the handler runs, and its [`Context`] applies each send, timer and
    /// halt to this simulation at the call.
    fn dispatch<F>(&mut self, target: ProcessId, handler: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Context<'_, M>),
    {
        let idx = target.index();
        let Some(slot) = self.processes.get_mut(idx) else {
            return;
        };
        let Some(mut process) = slot.take() else {
            return;
        };
        let mut ctx = Context {
            self_id: target,
            now: self.now,
            sink: Sink::Sim(self),
        };
        handler(process.as_mut(), &mut ctx);
        self.processes[idx] = Some(process);
    }

    /// Schedules `on_timer(token)` on `source` after `delay` ticks, at
    /// least one.
    pub(crate) fn enqueue_timer(&mut self, source: ProcessId, delay: u64, token: u64) {
        let at = self.now + delay.max(1);
        let seq = self.next_seq();
        self.queue.push(Event {
            at,
            seq,
            target: source,
            kind: EventKind::Timer { token },
            data_bytes: 0,
        });
    }

    /// Sends `msg` from `from` to `to`: samples its delay and the plan's
    /// faults and schedules its delivery.
    pub(crate) fn enqueue_send(&mut self, from: ProcessId, to: ProcessId, mut msg: M) {
        if self.net_passthrough {
            // Reliable network (the common case): no drop/duplicate/corrupt
            // sampling to do. A passthrough plan consumes no randomness, so
            // this is the exact same execution as the general path below.
            let data_bytes = msg.data_bytes();
            let delay = self.config.delay_for(from, to).sample(&mut self.rng);
            let at = self.now + delay;
            let already_crashed = self.is_crashed(to);
            self.stats.record_send(from, data_bytes, already_crashed);
            let seq = self.next_seq();
            self.queue.push(Event {
                at,
                seq,
                target: to,
                kind: EventKind::Deliver { from, msg },
                data_bytes,
            });
            return;
        }
        // Scheduled isolations cut the link deterministically. The
        // membership test consumes no randomness and runs before every
        // sampling step (and before the corruption hook), so seeds without
        // isolations keep their schedules and seeds with them keep the RNG
        // stream of the still-connected links.
        if self.net_faults.is_partitioned(from, to, self.now) {
            self.stats.record_send(from, msg.data_bytes(), true);
            self.stats.messages_partitioned += 1;
            return;
        }
        let faults = self.net_faults.faults;
        // The hook decides which sends a byzantine sender corrupts. It runs
        // before delivery (and before duplication, so both copies carry the
        // same corruption, as a byzantine sender would produce).
        if let Some(hook) = self.corruptor.as_mut() {
            if hook(from, to, &mut msg) {
                self.stats.messages_corrupted += 1;
            }
        }
        let data_bytes = msg.data_bytes();
        if faults.sample_drop(&mut self.rng) {
            // The send happened (and is charged) but the channel lost it.
            self.stats.record_send(from, data_bytes, true);
            self.stats.messages_lost += 1;
            return;
        }
        if faults.sample_duplicate(&mut self.rng) {
            let copy = msg.clone();
            // The duplicate is a channel artifact, not a protocol send: it
            // is excluded from the sent-side cost accounting (the paper's
            // communication cost counts what the protocol sends) and shows
            // up only in `messages_duplicated` and the delivery-side
            // counters.
            self.enqueue_delivery(&faults, from, to, copy, data_bytes, false);
            self.stats.messages_duplicated += 1;
        }
        self.enqueue_delivery(&faults, from, to, msg, data_bytes, true);
    }

    /// Samples the (possibly adversarially extended) delay for one delivery
    /// and schedules it. `count_send` is false for adversarial duplicates,
    /// which must not inflate the protocol's communication cost.
    fn enqueue_delivery(
        &mut self,
        faults: &crate::netfault::LinkFaults,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        data_bytes: usize,
        count_send: bool,
    ) {
        let delay = self.config.delay_for(from, to).sample(&mut self.rng)
            + faults.sample_extra_delay(&mut self.rng);
        let at = self.now + delay;
        let already_crashed = self.is_crashed(to);
        if count_send {
            self.stats.record_send(from, data_bytes, already_crashed);
        }
        let seq = self.next_seq();
        self.queue.push(Event {
            at,
            seq,
            target: to,
            kind: EventKind::Deliver { from, msg },
            data_bytes,
        });
    }

    /// Adds an injection to the staged list. The list keeps its buffer
    /// across runs: freeing it at every run cost a one-shard ABD store whose
    /// keys all run every round about 4 % of its throughput (2-vCPU host).
    /// It starts with room for one event, so a simulation that stages one
    /// operation between runs keeps one event's worth.
    fn stage(&mut self, event: Event<M>) {
        if self.staged.capacity() == 0 {
            self.staged.reserve_exact(1);
        }
        self.staged.push(event);
    }

    /// Moves the staged injections into the queue, lowest `seq` first. Runs
    /// before any handler of the run, so every event the run schedules
    /// carries a higher `seq` than the staged ones and is pushed after them,
    /// as when the injections went straight into the queue.
    fn admit_staged(&mut self) {
        for event in self.staged.drain(..) {
            self.queue.push(event);
        }
    }

    /// Processes one event the queue has popped.
    fn step(&mut self, event: Event<M>) {
        self.now = self.now.max(event.at);
        let target = event.target;
        match event.kind {
            EventKind::Crash => {
                self.crash_now(target);
            }
            EventKind::Recover { replacement } => {
                self.recover_now(target, replacement);
                // Run the replacement's `on_start` before the next event so
                // repair begins at the recovery time, not at the next
                // delivery.
                self.ensure_started();
            }
            EventKind::Timer { token } => {
                if !self.is_crashed(target) {
                    self.dispatch(target, |process, ctx| process.on_timer(token, ctx));
                }
            }
            EventKind::Deliver { from, msg } => {
                if self.is_crashed(target) || target.index() >= self.processes.len() {
                    self.stats.messages_dropped += 1;
                } else {
                    self.stats.record_delivery(target, event.data_bytes);
                    self.dispatch(target, |process, ctx| process.on_message(from, msg, ctx));
                }
            }
        }
    }

    /// Runs until no events remain (or the event cap is hit).
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the next event is strictly after `deadline`, the queue is
    /// empty, or the event cap is hit.
    ///
    /// The run first moves the events injected since the last run into the
    /// queue, in the order they were injected. A run that ends with the
    /// queue empty gives the queue's slots and chain links to this thread's
    /// spare for the message type, and the next simulation of that type to
    /// run on this thread takes them, so a quiescent simulation holds no
    /// queue memory and a thread that runs many simulations in turn keeps
    /// one warm set. A run that leaves events queued keeps its memory.
    /// Neither draws randomness or changes a schedule.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.admit_staged();
        self.ensure_started();
        let mut processed = 0u64;
        let hit_event_cap = loop {
            if processed >= self.event_cap {
                break true;
            }
            let Some(event) = self.queue.pop_due(deadline.ticks()) else {
                break false;
            };
            self.step(event);
            processed += 1;
        };
        self.queue.give_back_if_empty();
        RunOutcome {
            events_processed: processed,
            final_time: self.now,
            hit_event_cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayModel;
    use crate::netfault::{LinkFaults, NetFaultPlan};

    #[derive(Clone, Debug)]
    enum TestMsg {
        Ping(u64),
        Data(Vec<u8>),
    }

    impl Message for TestMsg {
        fn data_bytes(&self) -> usize {
            match self {
                TestMsg::Ping(_) => 0,
                TestMsg::Data(d) => d.len(),
            }
        }
    }

    /// Echoes pings back with an incremented counter until a limit.
    struct PingPong {
        limit: u64,
        received: Vec<u64>,
        started: bool,
        timer_fired: bool,
    }

    impl PingPong {
        fn new(limit: u64) -> Self {
            PingPong {
                limit,
                received: Vec::new(),
                started: false,
                timer_fired: false,
            }
        }
    }

    impl Process<TestMsg> for PingPong {
        fn on_start(&mut self, _ctx: &mut Context<'_, TestMsg>) {
            self.started = true;
        }
        fn on_message(&mut self, from: ProcessId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            if let TestMsg::Ping(v) = msg {
                self.received.push(v);
                if v < self.limit && from != ProcessId::ENV {
                    ctx.send(from, TestMsg::Ping(v + 1));
                } else if from == ProcessId::ENV {
                    // Kick off by pinging the next process.
                    let next = ProcessId(ctx.self_id().0 + 1);
                    ctx.send(next, TestMsg::Ping(v + 1));
                }
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, TestMsg>) {
            self.timer_fired = true;
        }
    }

    fn two_process_sim(seed: u64) -> (Simulation<TestMsg>, ProcessId, ProcessId) {
        let mut sim = Simulation::new(seed, NetworkConfig::uniform(5));
        let a = sim.add_process(Box::new(PingPong::new(6)));
        let b = sim.add_process(Box::new(PingPong::new(6)));
        (sim, a, b)
    }

    #[test]
    fn ping_pong_reaches_limit_and_quiesces() {
        let (mut sim, a, b) = two_process_sim(1);
        sim.send_external(a, TestMsg::Ping(0));
        let outcome = sim.run_to_quiescence();
        assert!(!outcome.hit_event_cap);
        let pa: &PingPong = sim.process_as(a).unwrap();
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert!(pa.started && pb.started);
        assert_eq!(pa.received, vec![0, 2, 4, 6]);
        assert_eq!(pb.received, vec![1, 3, 5]);
    }

    #[test]
    fn same_seed_same_execution_different_seed_may_differ() {
        let run = |seed| {
            let (mut sim, a, _b) = two_process_sim(seed);
            sim.send_external(a, TestMsg::Ping(0));
            sim.run_to_quiescence();
            (sim.now(), sim.stats().messages_sent)
        };
        assert_eq!(run(7), run(7), "determinism for equal seeds");
    }

    #[test]
    fn crashed_process_receives_nothing() {
        let (mut sim, a, b) = two_process_sim(3);
        sim.schedule_crash(SimTime::ZERO, b);
        sim.send_external(a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert!(pb.received.is_empty());
        assert!(sim.is_crashed(b));
        assert!(!sim.is_crashed(a));
        assert!(sim.stats().messages_dropped > 0);
    }

    #[test]
    fn data_bytes_are_accounted() {
        let mut sim: Simulation<TestMsg> = Simulation::new(0, NetworkConfig::constant(2));
        struct Sink;
        impl Process<TestMsg> for Sink {
            fn on_message(&mut self, _f: ProcessId, _m: TestMsg, _c: &mut Context<'_, TestMsg>) {}
        }
        let s = sim.add_process(Box::new(Sink));
        sim.send_external(s, TestMsg::Data(vec![0u8; 123]));
        sim.send_external(s, TestMsg::Ping(1));
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.data_bytes_sent, 123);
        assert_eq!(stats.metadata_messages, 1);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(stats.per_process[0].data_bytes_received, 123);
    }

    #[test]
    fn timers_fire_unless_crashed() {
        struct TimerProc {
            fired: bool,
        }
        #[derive(Clone, Debug)]
        struct Nothing;
        impl Message for Nothing {}
        impl Process<Nothing> for TimerProc {
            fn on_start(&mut self, ctx: &mut Context<'_, Nothing>) {
                ctx.set_timer(10, 1);
            }
            fn on_message(&mut self, _f: ProcessId, _m: Nothing, _c: &mut Context<'_, Nothing>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Nothing>) {
                assert_eq!(token, 1);
                self.fired = true;
            }
        }
        let mut sim: Simulation<Nothing> = Simulation::new(0, NetworkConfig::default());
        let p = sim.add_process(Box::new(TimerProc { fired: false }));
        let q = sim.add_process(Box::new(TimerProc { fired: false }));
        sim.schedule_crash(SimTime::from_ticks(5), q);
        sim.run_to_quiescence();
        assert!(sim.process_as::<TimerProc>(p).unwrap().fired);
        assert!(!sim.process_as::<TimerProc>(q).unwrap().fired);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, a, _b) = two_process_sim(9);
        sim.send_external_at(SimTime::from_ticks(100), a, TestMsg::Ping(0));
        let outcome = sim.run_until(SimTime::from_ticks(50));
        assert_eq!(outcome.events_processed, 0);
        assert!(sim.now() <= SimTime::from_ticks(50));
        let outcome = sim.run_to_quiescence();
        assert!(outcome.events_processed > 0);
    }

    #[test]
    fn event_cap_detects_livelock() {
        // Two processes that ping forever.
        struct Forever;
        impl Process<TestMsg> for Forever {
            fn on_message(
                &mut self,
                from: ProcessId,
                msg: TestMsg,
                ctx: &mut Context<'_, TestMsg>,
            ) {
                if let TestMsg::Ping(v) = msg {
                    let peer = if from == ProcessId::ENV {
                        ProcessId(1)
                    } else {
                        from
                    };
                    ctx.send(peer, TestMsg::Ping(v + 1));
                }
            }
        }
        let mut sim: Simulation<TestMsg> =
            Simulation::new(0, NetworkConfig::constant(1)).with_event_cap(500);
        let a = sim.add_process(Box::new(Forever));
        let _b = sim.add_process(Box::new(Forever));
        sim.send_external(a, TestMsg::Ping(0));
        let outcome = sim.run_to_quiescence();
        assert!(outcome.hit_event_cap);
        assert_eq!(outcome.events_processed, 500);
    }

    #[test]
    fn link_override_slows_one_direction() {
        let cfg = NetworkConfig::constant(1).with_link(
            ProcessId(0),
            ProcessId(1),
            DelayModel::Constant(100),
        );
        let mut sim: Simulation<TestMsg> = Simulation::new(0, cfg);
        let a = sim.add_process(Box::new(PingPong::new(2)));
        let b = sim.add_process(Box::new(PingPong::new(2)));
        sim.send_external(a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        // a -> b took 100 ticks, b -> a took 1 tick.
        assert!(sim.now() >= SimTime::from_ticks(101));
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert_eq!(pb.received, vec![1]);
    }

    #[test]
    fn net_fault_plan_passthrough_preserves_executions_bit_for_bit() {
        let run = |install_plan: bool| {
            let (mut sim, a, _b) = two_process_sim(11);
            if install_plan {
                sim.set_net_fault_plan(NetFaultPlan::none());
            }
            sim.send_external(a, TestMsg::Ping(0));
            sim.run_to_quiescence();
            (sim.now(), sim.stats().messages_sent)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn future_partition_window_disables_passthrough_but_keeps_the_schedule() {
        // A window that never overlaps the execution forces the general
        // (non-passthrough) send path; since the membership test consumes no
        // randomness the execution must still be bit-identical.
        let run = |isolated: bool| {
            let (mut sim, a, _b) = two_process_sim(11);
            if isolated {
                let plan = NetFaultPlan::none().with_isolation(
                    [ProcessId(1)],
                    SimTime::from_ticks(1_000_000),
                    SimTime::from_ticks(2_000_000),
                );
                assert!(!plan.is_passthrough());
                sim.set_net_fault_plan(plan);
            }
            sim.send_external(a, TestMsg::Ping(0));
            sim.run_to_quiescence();
            (
                sim.now(),
                sim.stats().messages_sent,
                sim.stats().messages_delivered,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn partition_window_cuts_then_heals_and_is_counted_separately() {
        let (mut sim, a, b) = two_process_sim(13);
        // Isolate b during [0, 50): the first relay is lost; a retry kicked
        // off after the heal goes through and the ping-pong completes.
        sim.set_net_fault_plan(NetFaultPlan::none().with_isolation(
            [b],
            SimTime::ZERO,
            SimTime::from_ticks(50),
        ));
        sim.send_external(a, TestMsg::Ping(0));
        sim.send_external_at(SimTime::from_ticks(100), a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert_eq!(pb.received, vec![1, 3, 5], "post-heal traffic flows");
        let stats = sim.stats();
        assert_eq!(stats.messages_partitioned, 1, "one send hit the window");
        assert_eq!(stats.messages_lost, 0, "partition drops are not net drops");
        assert!(stats.messages_dropped >= 1);
    }

    #[test]
    fn adversarial_drops_lose_messages_and_are_counted() {
        // Drop everything: the ping never reaches b after the ENV kick-off.
        let (mut sim, a, b) = two_process_sim(5);
        sim.set_net_fault_plan(NetFaultPlan::none().with_default(LinkFaults {
            drop_p: 1.0,
            ..LinkFaults::NONE
        }));
        sim.send_external(a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert!(pb.received.is_empty(), "every relayed ping was dropped");
        let stats = sim.stats();
        assert!(stats.messages_lost > 0);
        assert!(stats.messages_dropped >= stats.messages_lost);
    }

    #[test]
    fn adversarial_duplication_delivers_twice() {
        struct Counter {
            seen: u64,
        }
        impl Process<TestMsg> for Counter {
            fn on_message(&mut self, from: ProcessId, _m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                self.seen += 1;
                // First delivery from ENV: fire one process-to-process send
                // that the adversary can duplicate.
                if from == ProcessId::ENV {
                    ctx.send(ProcessId(1), TestMsg::Ping(1));
                }
            }
        }
        let mut sim: Simulation<TestMsg> = Simulation::new(3, NetworkConfig::constant(2));
        let a = sim.add_process(Box::new(Counter { seen: 0 }));
        let b = sim.add_process(Box::new(Counter { seen: 0 }));
        sim.set_net_fault_plan(NetFaultPlan::none().with_default(LinkFaults {
            duplicate_p: 1.0,
            ..LinkFaults::NONE
        }));
        sim.send_external(a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        assert_eq!(sim.process_as::<Counter>(b).unwrap().seen, 2);
        let stats = sim.stats();
        assert_eq!(stats.messages_duplicated, 1);
        // The duplicate is a channel artifact: sent-side cost accounting
        // counts the ENV injection and one protocol send, while the
        // delivery side sees all three arrivals.
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.messages_delivered, 3);
        assert_eq!(stats.per_process[a.index()].messages_sent, 1);
        assert_eq!(stats.per_process[b.index()].messages_received, 2);
    }

    #[test]
    fn extra_delay_slows_delivery_and_corruption_hook_mutates_payloads() {
        struct Sink {
            got: Vec<Vec<u8>>,
        }
        impl Process<TestMsg> for Sink {
            fn on_message(&mut self, from: ProcessId, m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                if from == ProcessId::ENV {
                    ctx.send(ProcessId(1), TestMsg::Data(vec![7, 7, 7]));
                } else if let TestMsg::Data(d) = m {
                    self.got.push(d);
                }
            }
        }
        let mut sim: Simulation<TestMsg> = Simulation::new(0, NetworkConfig::constant(1));
        let a = sim.add_process(Box::new(Sink { got: vec![] }));
        let b = sim.add_process(Box::new(Sink { got: vec![] }));
        sim.set_net_fault_plan(NetFaultPlan::none().with_default(LinkFaults {
            extra_delay: Some(DelayModel::Constant(100)),
            ..LinkFaults::NONE
        }));
        sim.set_corruption_hook(Box::new(|_from, _to, msg| {
            if let TestMsg::Data(d) = msg {
                for byte in d.iter_mut() {
                    *byte ^= 0xFF;
                }
                true
            } else {
                false
            }
        }));
        sim.send_external(a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        let pb: &Sink = sim.process_as(b).unwrap();
        assert_eq!(pb.got, vec![vec![0xF8, 0xF8, 0xF8]]);
        assert!(sim.now() >= SimTime::from_ticks(101), "extra delay applied");
        assert_eq!(sim.stats().messages_corrupted, 1);
    }

    #[test]
    fn corruption_hook_alone_decides_and_disables_passthrough() {
        /// Forwards its ENV kick-off to the next of three processes as data.
        struct Relay {
            got: Vec<Vec<u8>>,
        }
        impl Process<TestMsg> for Relay {
            fn on_message(&mut self, from: ProcessId, m: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                if from == ProcessId::ENV {
                    let next = ProcessId((ctx.self_id().0 + 1) % 3);
                    ctx.send(next, TestMsg::Data(vec![7, 7, 7]));
                } else if let TestMsg::Data(d) = m {
                    self.got.push(d);
                }
            }
        }
        // Corrupts whatever process 0 sends, and nothing else.
        let hook = || -> CorruptionHook<TestMsg> {
            Box::new(|from, _to, msg| match msg {
                TestMsg::Data(d) if from == ProcessId(0) => {
                    d.iter_mut().for_each(|byte| *byte ^= 0xFF);
                    true
                }
                _ => false,
            })
        };
        for hook_first in [false, true] {
            let mut sim: Simulation<TestMsg> = Simulation::new(0, NetworkConfig::constant(1));
            let ids: Vec<ProcessId> = (0..3)
                .map(|_| sim.add_process(Box::new(Relay { got: vec![] })))
                .collect();
            if hook_first {
                sim.set_corruption_hook(hook());
                sim.set_net_fault_plan(NetFaultPlan::none());
            } else {
                sim.set_net_fault_plan(NetFaultPlan::none());
                assert!(sim.net_passthrough, "clean plan, no hook");
                sim.set_corruption_hook(hook());
            }
            assert!(!sim.net_passthrough, "hook_first: {hook_first}");
            for &id in &ids {
                sim.send_external(id, TestMsg::Ping(0));
            }
            sim.run_to_quiescence();
            let got = |id| sim.process_as::<Relay>(id).unwrap().got.clone();
            assert_eq!(got(ids[1]), vec![vec![0xF8; 3]], "0 → 1 is corrupted");
            assert_eq!(got(ids[2]), vec![vec![7; 3]], "1 → 2 is not");
            assert_eq!(got(ids[0]), vec![vec![7; 3]], "2 → 0 is not");
            assert_eq!(sim.stats().messages_corrupted, 1);
        }
    }

    #[test]
    fn network_draws_are_the_documented_count() {
        // Constant delays draw nothing; uniform ones draw once per send.
        for (config, draws) in [
            (NetworkConfig::constant(3), 0),
            (NetworkConfig::uniform(5), 6),
        ] {
            let mut sim: Simulation<TestMsg> = Simulation::new(1, config);
            let a = sim.add_process(Box::new(PingPong::new(6)));
            sim.add_process(Box::new(PingPong::new(6)));
            sim.send_external(a, TestMsg::Ping(0));
            sim.run_to_quiescence();
            assert_eq!(sim.stats().messages_sent, 7, "one injection, six sends");
            assert_eq!(sim.rng.draws(), draws);
        }
        // A send an isolation cuts draws nothing, also with the corruption
        // hook on.
        for hooked in [false, true] {
            let (mut sim, a, b) = two_process_sim(13);
            sim.set_net_fault_plan(NetFaultPlan::none().with_isolation(
                [b],
                SimTime::ZERO,
                SimTime::MAX,
            ));
            if hooked {
                sim.set_corruption_hook(Box::new(|_, _, _| true));
            }
            sim.send_external(a, TestMsg::Ping(0));
            sim.run_to_quiescence();
            let stats = sim.stats();
            assert_eq!(
                (stats.messages_partitioned, stats.messages_corrupted),
                (1, 0)
            );
            assert_eq!(sim.rng.draws(), 0, "hooked: {hooked}");
        }
    }

    #[test]
    fn recovery_replaces_a_crashed_process_with_fresh_state() {
        let (mut sim, a, b) = two_process_sim(3);
        sim.schedule_crash(SimTime::ZERO, b);
        sim.send_external(a, TestMsg::Ping(0));
        sim.run_to_quiescence();
        assert!(sim.is_crashed(b));

        // A fresh replacement joins: crashed flag clears, on_start runs, and
        // new messages reach it.
        sim.schedule_recovery(sim.now(), b, Box::new(PingPong::new(6)));
        sim.send_external_at(sim.now() + 50, b, TestMsg::Ping(0));
        sim.run_to_quiescence();
        assert!(!sim.is_crashed(b));
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert!(pb.started, "replacement's on_start must run");
        assert_eq!(pb.received, vec![0], "replacement state is fresh");
    }

    #[test]
    fn messages_in_flight_during_the_outage_reach_the_replacement() {
        // Crash b, send while dead with a delivery time after the recovery:
        // the replacement receives it (asynchronous channels may deliver
        // arbitrarily late).
        let (mut sim, _a, b) = two_process_sim(5);
        sim.schedule_crash(SimTime::from_ticks(10), b);
        sim.send_external_at(SimTime::from_ticks(50), b, TestMsg::Ping(9));
        sim.schedule_recovery(SimTime::from_ticks(30), b, Box::new(PingPong::new(6)));
        sim.run_to_quiescence();
        let pb: &PingPong = sim.process_as(b).unwrap();
        assert_eq!(pb.received, vec![9]);
    }

    #[test]
    fn injections_between_runs_pop_in_time_then_seq_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use std::sync::{Arc, Mutex};
        /// Every delivery, start and timer, as `(now, process, tag)`.
        type Log = Vec<(u64, u32, u64)>;
        const START: u64 = u64::MAX;
        const TIMER: u64 = u64::MAX - 1;
        /// Each start sets a timer this far ahead, so every run also
        /// schedules events of its own, behind the injected ones.
        const TIMER_DELAY: u64 = 8;
        /// Logs what reaches it and sends nothing.
        struct Logger {
            log: Arc<Mutex<Log>>,
        }
        impl Logger {
            fn record(&self, ctx: &Context<'_, TestMsg>, tag: u64) {
                let entry = (ctx.now().ticks(), ctx.self_id().0, tag);
                self.log.lock().unwrap().push(entry);
            }
        }
        impl Process<TestMsg> for Logger {
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                self.record(ctx, START);
                ctx.set_timer(TIMER_DELAY, 0);
            }
            fn on_message(&mut self, _: ProcessId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
                if let TestMsg::Ping(tag) = msg {
                    self.record(ctx, tag);
                }
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, TestMsg>) {
                self.record(ctx, TIMER);
            }
        }
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Kind {
            Deliver(u64),
            Crash,
            Recover,
            Timer,
        }
        /// The reference: a heap ordered by `(at, seq)` that numbers events
        /// as the simulation does and applies each one as it does.
        #[derive(Default)]
        struct Model {
            heap: BinaryHeap<Reverse<(u64, u64, u32, Kind)>>,
            seq: u64,
            now: u64,
            crashed: [bool; 3],
            log: Log,
        }
        impl Model {
            fn schedule(&mut self, at: u64, target: u32, kind: Kind) {
                self.seq += 1;
                self.heap.push(Reverse((at, self.seq, target, kind)));
            }
            fn start(&mut self, target: u32) {
                self.log.push((self.now, target, START));
                self.schedule(self.now + TIMER_DELAY, target, Kind::Timer);
            }
            fn run_until(&mut self, deadline: u64) {
                while self
                    .heap
                    .peek()
                    .is_some_and(|Reverse((at, ..))| *at <= deadline)
                {
                    let Reverse((at, _, target, kind)) = self.heap.pop().unwrap();
                    self.now = at;
                    let down = &mut self.crashed[target as usize];
                    match kind {
                        Kind::Deliver(tag) if !*down => self.log.push((at, target, tag)),
                        Kind::Timer if !*down => self.log.push((at, target, TIMER)),
                        Kind::Deliver(_) | Kind::Timer => {}
                        Kind::Crash => *down = true,
                        Kind::Recover => {
                            *down = false;
                            self.start(target);
                        }
                    }
                }
            }
        }
        // Epochs of injections between runs, some a window or more ahead,
        // each followed by a run to a random deadline that often leaves
        // events queued. Coarse times make many events share a tick, within
        // an epoch and across epochs, so `seq` order is checked too.
        let log = Arc::new(Mutex::new(Vec::new()));
        let logger = || Box::new(Logger { log: log.clone() });
        let mut sim: Simulation<TestMsg> = Simulation::new(0, NetworkConfig::constant(1));
        let mut model = Model::default();
        for _ in 0..model.crashed.len() {
            sim.add_process(logger());
        }
        let mut rng = SimRng::network(21);
        let (mut far, mut left_queued, mut recoveries) = (0, 0, 0);
        for epoch in 0..60 {
            for _ in 0..rng.gen_range(1..16u64) {
                let at = model.now + rng.gen_range(0..25u64) * 8;
                let target = rng.gen_range(0..model.crashed.len() as u64) as u32;
                let (time, id) = (SimTime::from_ticks(at), ProcessId(target));
                let kind = match rng.gen_range(0..10u64) {
                    0 => {
                        sim.schedule_crash(time, id);
                        Kind::Crash
                    }
                    1 => {
                        sim.schedule_recovery(time, id, logger());
                        recoveries += 1;
                        Kind::Recover
                    }
                    _ => {
                        sim.send_external_at(time, id, TestMsg::Ping(model.seq));
                        Kind::Deliver(model.seq)
                    }
                };
                far += usize::from(at >= model.now + 64);
                model.schedule(at, target, kind);
            }
            if epoch == 0 {
                (0..model.crashed.len() as u32).for_each(|p| model.start(p));
            }
            let deadline = model.now + rng.gen_range(0..150u64);
            sim.run_until(SimTime::from_ticks(deadline));
            model.run_until(deadline);
            assert_eq!(*log.lock().unwrap(), model.log, "epoch {epoch}");
            assert_eq!(sim.now().ticks(), model.now, "epoch {epoch}");
            assert!(sim.staged.is_empty(), "the run took every injection");
            if model.heap.is_empty() {
                assert_eq!(
                    sim.queue.memory_held(),
                    (0, 0),
                    "a quiescent run holds nothing"
                );
            } else {
                left_queued += 1;
            }
        }
        sim.run_to_quiescence();
        model.run_until(u64::MAX);
        assert_eq!(*log.lock().unwrap(), model.log);
        assert_eq!(sim.queue.memory_held(), (0, 0));
        assert!(
            far > 20 && left_queued > 20 && recoveries > 5,
            "{far} far, {left_queued} runs left events queued, {recoveries} recoveries"
        );
    }

    #[test]
    fn handler_effects_keep_their_order_under_a_faulty_plan() {
        use std::sync::{Arc, Mutex};
        /// Every delivery as `(tick, from, to, payload)`; a `Data` payload
        /// logs as `1000 + its byte`, so a corrupted one shows.
        type Log = Vec<(u64, u32, u32, u64)>;
        const PEERS: u32 = 4;
        /// A handler that mixes every effect. An invocation from the
        /// environment makes it send, send to all, set a timer, halt (rank
        /// 0 only) and send again, in that order; pings bounce back up to a
        /// hop limit, data hops round the ring and timers send once more.
        struct Chatter {
            log: Arc<Mutex<Log>>,
            replacement: bool,
        }
        impl Process<TestMsg> for Chatter {
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                if self.replacement {
                    let me = ctx.self_id().0;
                    ctx.send(ProcessId((me + 1) % PEERS), TestMsg::Ping(50));
                }
            }
            fn on_message(
                &mut self,
                from: ProcessId,
                msg: TestMsg,
                ctx: &mut Context<'_, TestMsg>,
            ) {
                let me = ctx.self_id().0;
                let payload = match &msg {
                    TestMsg::Ping(v) => *v,
                    TestMsg::Data(d) => 1000 + u64::from(d[0]),
                };
                let entry = (ctx.now().ticks(), from.0, me, payload);
                self.log.lock().unwrap().push(entry);
                let next = ProcessId((me + 1) % PEERS);
                match msg {
                    TestMsg::Ping(v) if from == ProcessId::ENV => {
                        ctx.send(next, TestMsg::Ping(v + 1));
                        let others = (0..PEERS).filter(|&p| p != me).map(ProcessId);
                        ctx.send_all(others, TestMsg::Data(vec![v as u8]));
                        ctx.set_timer(3, v);
                        if me == 0 {
                            ctx.halt();
                        }
                        ctx.send(ProcessId((me + PEERS - 1) % PEERS), TestMsg::Ping(v + 2));
                    }
                    TestMsg::Ping(v) if v % 10 < 6 => ctx.send(from, TestMsg::Ping(v + 1)),
                    TestMsg::Data(d) if d[0] % 10 < 3 => {
                        ctx.send(next, TestMsg::Data(vec![d[0] + 1]))
                    }
                    _ => {}
                }
            }
            fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, TestMsg>) {
                let me = ctx.self_id().0;
                ctx.send(ProcessId((me + 2) % PEERS), TestMsg::Ping(token + 20));
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let chatter = |replacement| {
            Box::new(Chatter {
                log: log.clone(),
                replacement,
            })
        };
        let mut sim: Simulation<TestMsg> = Simulation::new(45, NetworkConfig::uniform(5));
        for _ in 0..PEERS {
            sim.add_process(chatter(false));
        }
        sim.set_net_fault_plan(NetFaultPlan::none().with_default(LinkFaults {
            drop_p: 0.15,
            duplicate_p: 0.2,
            reorder_p: 0.3,
            reorder_window: 6,
            ..LinkFaults::NONE
        }));
        // Rank 1 corrupts the data it sends.
        sim.set_corruption_hook(Box::new(|from, _to, msg| match msg {
            TestMsg::Data(d) if from == ProcessId(1) => {
                d[0] ^= 0x80;
                true
            }
            _ => false,
        }));
        sim.send_external(ProcessId(0), TestMsg::Ping(0));
        sim.send_external_at(SimTime::from_ticks(4), ProcessId(2), TestMsg::Ping(10));
        sim.schedule_recovery(SimTime::from_ticks(20), ProcessId(0), chatter(true));
        sim.send_external_at(SimTime::from_ticks(30), ProcessId(0), TestMsg::Ping(30));
        sim.run_to_quiescence();
        // Recorded when handler effects were still buffered and applied
        // after the handler returned: effects applied at the call keep
        // every sequence number, draw and crash check in the same order.
        const ENV: u32 = u32::MAX;
        #[rustfmt::skip]
        let expected: Log = vec![
            (0, ENV, 0, 0), (1, 0, 2, 1000), (1, 0, 3, 2), (2, 0, 1, 1), (2, 0, 1, 1000),
            (2, 0, 2, 1000), (3, 2, 3, 1001), (3, 2, 3, 1001), (4, ENV, 2, 10),
            (4, 2, 3, 1001), (5, 2, 3, 1010), (6, 2, 1, 1010), (7, 1, 2, 1129),
            (8, 2, 1, 12), (9, 2, 3, 11), (9, 1, 2, 1139), (10, 0, 1, 1), (10, 1, 2, 13),
            (11, 1, 2, 13), (15, 2, 1, 14), (20, 1, 2, 15), (23, 0, 1, 50), (25, 2, 1, 16),
            (25, 1, 0, 51), (27, 2, 1, 16), (28, 0, 1, 52), (30, ENV, 0, 30),
            (31, 0, 1, 1030), (31, 0, 3, 32), (33, 0, 1, 31), (33, 1, 2, 1159),
            (34, 0, 2, 1030), (35, 0, 3, 1030), (35, 1, 2, 1159), (37, 2, 3, 1031),
        ];
        assert_eq!(*log.lock().unwrap(), expected);
        let stats = sim.stats();
        assert_eq!(
            (
                stats.messages_sent,
                stats.messages_delivered,
                stats.messages_dropped,
                stats.messages_lost,
                stats.messages_partitioned,
                stats.messages_duplicated,
                stats.messages_corrupted,
                stats.data_bytes_sent,
                stats.metadata_messages,
            ),
            (46, 35, 31, 4, 0, 8, 3, 21, 25)
        );
        let per_process: Vec<_> = stats
            .per_process
            .iter()
            .map(|p| {
                let sent = (p.messages_sent, p.data_bytes_sent);
                (sent, (p.messages_received, p.data_bytes_received))
            })
            .collect();
        assert_eq!(
            per_process,
            [
                ((12, 6), (3, 0)),
                ((10, 3), (12, 3)),
                ((12, 6), (11, 7)),
                ((9, 6), (9, 6))
            ]
        );
        assert_eq!(sim.rng.draws(), 185);
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let (mut sim, a, _b) = two_process_sim(0);
        assert!(sim.process_as::<String>(a).is_none());
        assert!(sim.process_as::<PingPong>(ProcessId(99)).is_none());
        assert!(sim.process_as_mut::<String>(a).is_none());
        assert!(sim.process_as_mut::<PingPong>(ProcessId(99)).is_none());
        assert!(sim.process_as_mut::<PingPong>(a).is_some());
    }

    #[test]
    fn halt_action_crashes_self() {
        struct Suicidal;
        #[derive(Clone, Debug)]
        struct Poke;
        impl Message for Poke {}
        impl Process<Poke> for Suicidal {
            fn on_message(&mut self, _f: ProcessId, _m: Poke, ctx: &mut Context<'_, Poke>) {
                ctx.halt();
            }
        }
        let mut sim: Simulation<Poke> = Simulation::new(0, NetworkConfig::default());
        let p = sim.add_process(Box::new(Suicidal));
        sim.send_external(p, Poke);
        sim.send_external_at(SimTime::from_ticks(100), p, Poke);
        sim.run_to_quiescence();
        assert!(sim.is_crashed(p));
        assert_eq!(sim.stats().messages_dropped, 1);
    }
}
