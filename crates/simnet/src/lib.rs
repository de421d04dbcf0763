//! Deterministic discrete-event simulation of an asynchronous message-passing
//! system, used as the execution substrate for the SODA / SODAerr / ABD / CAS
//! protocol implementations.
//!
//! The paper's model (Section II) is: a set of client and server processes,
//! each pair connected by a **reliable point-to-point channel** — a message
//! sent to a non-faulty destination is eventually delivered, after an
//! arbitrary finite delay, with no ordering guarantees; processes may **crash**
//! (servers up to `f` of them, clients arbitrarily); computation is
//! asynchronous. This crate reproduces that model exactly:
//!
//! * [`Simulation`] — a seeded, deterministic event-driven scheduler. Message
//!   delays are sampled from a configurable [`DelayModel`] with the
//!   simulation's [`rng::SimRng`], so the same seed always produces the same
//!   interleaving (important for debugging and for property tests that shrink
//!   on failure).
//! * [`Process`] — the actor trait protocol automata implement
//!   (`on_start` / `on_message` / `on_timer`). Its [`std::any::Any`]
//!   supertrait lets [`Simulation::process_as`] hand back a process's
//!   concrete state for inspection.
//! * [`Simulation::schedule_crash`] — crash injection at arbitrary points,
//!   including mid-operation client crashes — and crash–*recovery*:
//!   [`Simulation::schedule_recovery`] replaces a crashed process with a
//!   fresh (empty-state) one, modelling server repair.
//! * [`NetFaultPlan`] / [`Simulation::set_net_fault_plan`] — the network
//!   adversary: message drop, extra delay, reordering (hold-back) and
//!   duplication on every link, and scheduled isolations
//!   ([`NetFaultPlan::with_isolation`]) that cut a set of processes off from
//!   everyone else during `[start, end)` and heal — without consuming any
//!   randomness, so seeds keep their schedules. Byzantine payload
//!   corruption is a message-type specific [`CorruptionHook`]
//!   ([`Simulation::set_corruption_hook`]) that picks its own senders.
//! * [`Stats`] — accounting of messages and **data bytes** (bytes
//!   of object-value payload, excluding metadata) exactly mirroring the
//!   paper's storage/communication cost model, which ignores metadata.
//!
//! # Example
//!
//! ```
//! use soda_simnet::{Context, Message, NetworkConfig, Process, ProcessId, Simulation};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Message for Ping {}
//!
//! struct Echo { peer: ProcessId, got: Vec<u32> }
//! impl Process<Ping> for Echo {
//!     fn on_message(&mut self, _from: ProcessId, msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         self.got.push(msg.0);
//!         if msg.0 < 3 { ctx.send(self.peer, Ping(msg.0 + 1)); }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, NetworkConfig::default());
//! // Ids are assigned densely in registration order: 0 then 1.
//! let a = sim.add_process(Box::new(Echo { peer: ProcessId(1), got: vec![] }));
//! let b = sim.add_process(Box::new(Echo { peer: ProcessId(0), got: vec![] }));
//! sim.send_external(a, Ping(0));
//! sim.run_to_quiescence();
//! // Inspection downcasts through `Process`'s `Any` supertrait.
//! let a_state: &Echo = sim.process_as(a).unwrap();
//! assert_eq!(a_state.got, vec![0, 2]);
//! let b_state: &Echo = sim.process_as(b).unwrap();
//! assert_eq!(b_state.got, vec![1, 3]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod netfault;
mod process;
pub mod rng;
mod sim;
pub mod testkit;
mod time;
mod trace;
mod wheel;

pub use config::{DelayModel, NetworkConfig};
pub use netfault::{LinkFaults, NetFaultPlan};
pub use process::{Context, Message, Process, ProcessId};
pub use sim::{CorruptionHook, RunOutcome, Simulation};
pub use time::SimTime;
pub use trace::{ProcessStats, Stats};
