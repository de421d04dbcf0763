//! SODA / SODAerr as a [`ProtocolSpec`]: how a cluster harness builds and
//! inspects the three automata of this crate.

use crate::config::SodaConfig;
use crate::messages::SodaMsg;
use crate::reader::ReaderProcess;
use crate::server::ServerProcess;
use crate::writer::WriterProcess;
use soda_protocol::{OpKind, OpQueue, ProtocolSpec, RepairStatus, Value};
use soda_simnet::{Process, ProcessId, Simulation};
use std::sync::Arc;

/// One SODA or SODAerr deployment: the shared configuration plus the
/// ablation switch the experiments set on its servers. Byzantine servers are
/// not the spec's business: the network corrupts what they send (see
/// [`crate::adversary`]).
pub struct SodaSpec {
    /// The shared protocol configuration (layout, variant, code).
    pub config: Arc<SodaConfig>,
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

    fn server(&self, rank: usize, initial: &Value) -> Box<dyn Process<SodaMsg>> {
        let mut server = ServerProcess::new(self.config.clone(), rank, initial);
        if !self.relay_enabled {
            server = server.with_relay_disabled();
        }
        Box::new(server)
    }

    fn replacement(&self, rank: usize, epoch: u64) -> Box<dyn Process<SodaMsg>> {
        Box::new(ServerProcess::replacement(self.config.clone(), rank, epoch))
    }

    fn client(&self, id: ProcessId, role: OpKind) -> Box<dyn Process<SodaMsg>> {
        match role {
            OpKind::Write => Box::new(WriterProcess::new(self.config.clone(), id)),
            OpKind::Read => Box::new(ReaderProcess::new(self.config.clone(), id)),
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
}
