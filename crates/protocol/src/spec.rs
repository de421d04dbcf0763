//! What one register protocol must supply for a generic cluster harness to
//! run it.
//!
//! SODA, SODAerr, ABD, CAS and CASGC share one shape — servers holding the
//! object, clients running quorum phases against them, replacements that
//! repair by asking the survivors — over one network model. A harness that
//! owns the simulation can therefore build, drive, crash, repair and inspect
//! any of them through this trait, and everything else about a cluster is
//! written once.

use crate::{Deployment, OpKind, OpQueue, RepairStatus, Value};
use soda_simnet::{Message, Process, ProcessId, Simulation};
use std::sync::Arc;

/// One register protocol, as seen by a cluster harness: its message type,
/// the processes it is made of, and probes into their state.
///
/// The harness builds the cluster's one [`Deployment`] (layout, code, error
/// budget, quorums) and hands it to every process it asks for; a spec value
/// carries only the protocol's own option. The probes are associated
/// functions over the simulation because a process is only reachable by id
/// through it. Every protocol's clients keep their operations in an
/// [`OpQueue`], so one client probe, [`client_ops`](Self::client_ops),
/// serves both the completed log and the write in flight, and
/// [`client_ops_mut`](Self::client_ops_mut) lets the harness hand a read the
/// buffer of the write it returned; the server probes read state that
/// differs per protocol.
pub trait ProtocolSpec: Send + 'static {
    /// The protocol's message type.
    type Msg: Message;

    /// The message that asks a client to write `value`.
    fn invoke_write(value: Value) -> Self::Msg;

    /// The message that asks a client to read.
    fn invoke_read() -> Self::Msg;

    /// The original server of rank `rank` of `deployment`, holding the
    /// initial value.
    fn server(
        &self,
        deployment: &Arc<Deployment>,
        rank: usize,
        initial: &Value,
    ) -> Box<dyn Process<Self::Msg>>;

    /// A replacement for the crashed server of rank `rank`: empty state,
    /// repairs itself from the survivors on start. `epoch` counts the rank's
    /// incarnations (1 for the first replacement) and is distinct per
    /// incarnation.
    fn replacement(
        &self,
        deployment: &Arc<Deployment>,
        rank: usize,
        epoch: u64,
    ) -> Box<dyn Process<Self::Msg>>;

    /// The client of `deployment` registered under process id `id`, behind a
    /// handle that performs operations of kind `role`. Protocols whose
    /// clients do both ignore `role`.
    fn client(
        &self,
        deployment: &Arc<Deployment>,
        id: ProcessId,
        role: OpKind,
    ) -> Box<dyn Process<Self::Msg>>;

    /// Bytes of object-value data the server stores.
    fn stored_bytes(sim: &Simulation<Self::Msg>, server: ProcessId) -> u64;

    /// Repair progress of the server, if its current incarnation is (or was)
    /// a replacement.
    fn repair_status(sim: &Simulation<Self::Msg>, server: ProcessId) -> Option<RepairStatus>;

    /// The client's operations — the log of those it completed and the one
    /// in flight — or `None` for a process that is not a client.
    fn client_ops(sim: &Simulation<Self::Msg>, client: ProcessId) -> Option<&OpQueue>;

    /// The same queue as [`client_ops`](Self::client_ops), mutably, so the
    /// harness can swap a completed record's value for an equal buffer
    /// ([`OpQueue::share_value`]).
    fn client_ops_mut(sim: &mut Simulation<Self::Msg>, client: ProcessId) -> Option<&mut OpQueue>;
}
