//! SODA / SODAerr as a [`ProtocolSpec`]: how a cluster harness builds and
//! inspects the three automata of this crate.

use crate::messages::SodaMsg;
use crate::reader::ReaderProcess;
use crate::server::ServerProcess;
use crate::writer::WriterProcess;
use soda_protocol::{Deployment, OpKind, OpQueue, ProtocolSpec, RepairStatus, Value};
use soda_simnet::{Process, ProcessId, Simulation};
use std::sync::Arc;

/// SODA's or SODAerr's one option, the ablation switch the experiments set
/// on its servers; which of the two runs is the deployment's error budget.
/// Byzantine servers are not the spec's business: the network corrupts what
/// they send (see [`crate::adversary`]).
pub struct SodaSpec {
    /// Ablation switch: `false` disables the relaying of concurrent writes
    /// to registered readers at every server (`true` is the paper's
    /// behaviour).
    pub relay_enabled: bool,
}

impl ProtocolSpec for SodaSpec {
    type Msg = SodaMsg;

    fn invoke_write(value: Value) -> SodaMsg {
        SodaMsg::InvokeWrite(value)
    }

    fn invoke_read() -> SodaMsg {
        SodaMsg::InvokeRead
    }

    fn server(
        &self,
        deployment: &Arc<Deployment>,
        rank: usize,
        initial: &Value,
    ) -> Box<dyn Process<SodaMsg>> {
        let mut server = ServerProcess::new(deployment.clone(), rank, initial);
        if !self.relay_enabled {
            server = server.with_relay_disabled();
        }
        Box::new(server)
    }

    fn replacement(
        &self,
        deployment: &Arc<Deployment>,
        rank: usize,
        epoch: u64,
    ) -> Box<dyn Process<SodaMsg>> {
        Box::new(ServerProcess::replacement(deployment.clone(), rank, epoch))
    }

    fn client(
        &self,
        deployment: &Arc<Deployment>,
        id: ProcessId,
        role: OpKind,
    ) -> Box<dyn Process<SodaMsg>> {
        match role {
            OpKind::Write => Box::new(WriterProcess::new(deployment.clone(), id)),
            OpKind::Read => Box::new(ReaderProcess::new(deployment.clone(), id)),
        }
    }

    fn stored_bytes(sim: &Simulation<SodaMsg>, server: ProcessId) -> u64 {
        sim.process_as::<ServerProcess>(server)
            .map_or(0, |s| s.stored_bytes() as u64)
    }

    fn repair_status(sim: &Simulation<SodaMsg>, server: ProcessId) -> Option<RepairStatus> {
        sim.process_as::<ServerProcess>(server)?.repair_status()
    }

    fn client_ops(sim: &Simulation<SodaMsg>, client: ProcessId) -> Option<&OpQueue> {
        sim.process_as::<WriterProcess>(client)
            .map(WriterProcess::ops)
            .or_else(|| {
                sim.process_as::<ReaderProcess>(client)
                    .map(ReaderProcess::ops)
            })
    }

    fn client_ops_mut(sim: &mut Simulation<SodaMsg>, client: ProcessId) -> Option<&mut OpQueue> {
        // Two lookups: a failed mutable downcast would hold `sim` borrowed.
        if sim.process_as::<ReaderProcess>(client).is_some() {
            return sim
                .process_as_mut::<ReaderProcess>(client)
                .map(ReaderProcess::ops_mut);
        }
        sim.process_as_mut::<WriterProcess>(client)
            .map(WriterProcess::ops_mut)
    }
}
