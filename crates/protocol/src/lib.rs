//! Shared protocol substrate for the SODA family of atomic-register
//! algorithms.
//!
//! This crate contains the pieces that SODA, SODAerr and the baselines
//! (ABD, CAS, CASGC) have in common:
//!
//! * [`Tag`] — the `(z, writer-id)` version identifiers with the total order
//!   defined in Section IV of the paper.
//! * [`Layout`] — the static system layout (which simulated processes are the
//!   `n` servers, which are clients, what `f` is), including the majority
//!   quorum size and the ordered "first `f + 1` servers" set `D` used by the
//!   message-disperse primitives.
//! * [`PhaseDriver`], [`Reply`] — the quorum phase every client and repair
//!   runs: which phase is in flight for which operation, stale replies
//!   dropped, each responder counted once, completion reported once. The
//!   protocols fold the replies' payloads and write their thresholds.
//! * [`md`] — the **message-disperse primitives** MD-VALUE and MD-META
//!   (Section III): pure state machines that, given a received message,
//!   produce the relays and local deliveries the IO Automata specification
//!   prescribes. The protocol processes in `soda` drive these over the
//!   simulated network.
//! * [`RunSet`] — an exact set of per-origin counters stored as runs: the
//!   relays' tombstones and a SODA server's closed reads.
//! * [`cost`] — normalization helpers implementing the paper's cost model
//!   (everything is measured in units of the object-value size; metadata is
//!   free).
//! * [`Value`] — cheaply clonable object values (`Bytes` over one
//!   `Arc<[u8]>`), since the simulator clones messages on every hop.
//! * [`OpRecord`], [`OpKind`], [`PendingWrite`] — the one record vocabulary
//!   every protocol's clients log their operations in.
//! * [`OpQueue`], [`Invocation`] — the client half every protocol shares:
//!   queued invocations, the one operation in flight and the log of those
//!   completed. A client adds only its own phases.
//! * [`RepairDriver`], [`RepairStatus`], [`RepairError`] — the retry /
//!   give-up loop of a replacement server's repair, and the one record of
//!   its progress, cost and outcome.
//! * [`ProtocolSpec`] — what a protocol supplies so that one generic cluster
//!   harness can build, drive and inspect it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod md;

mod client;
mod layout;
mod phase;
mod record;
mod repair;
mod runs;
mod spec;
mod tag;
mod value;

pub use client::{Invocation, OpQueue};
pub use layout::Layout;
pub use phase::{PhaseDriver, Reply};
pub use record::{OpKind, OpRecord, PendingWrite};
pub use repair::{
    RepairDriver, RepairError, RepairStatus, REPAIR_MAX_ATTEMPTS, REPAIR_RETRY_INTERVAL,
};
pub use runs::RunSet;
pub use soda_rs_code::MdsCode;
pub use spec::ProtocolSpec;
pub use tag::Tag;
pub use value::{value_from, value_len, Value};
