//! Message types exchanged by SODA processes.
//!
//! Two families of messages exist, mirroring Section IV of the paper:
//! *metadata* messages (phase queries, acknowledgements, registration and the
//! READ-DISPERSE bookkeeping) which are free in the cost model, and *data*
//! messages (the MD-VALUE dispersal of a write and the coded elements relayed
//! to readers) which are charged their payload size.

use soda_protocol::md::{MdMetaMsg, MdValueMsg};
use soda_protocol::{Tag, Value};
use soda_rs_code::CodedElement;
use soda_simnet::{Message, ProcessId};

/// Identifier of a single client operation (read or write).
///
/// The paper (Section IV, note 3) requires each read to carry a unique
/// identifier in addition to the reader id so that stale bookkeeping entries
/// from earlier reads cannot interfere; pairing the client id with a
/// per-client sequence number achieves exactly that, for writes as well.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId {
    /// The invoking client process.
    pub client: ProcessId,
    /// Per-client operation sequence number (starts at 1).
    pub seq: u64,
}

impl OpId {
    /// Creates an operation id.
    pub fn new(client: ProcessId, seq: u64) -> Self {
        OpId { client, seq }
    }
}

/// Metadata payloads dispersed through the MD-META primitive.
#[derive(Clone, Debug, PartialEq)]
pub enum MetaPayload {
    /// `READ-VALUE`: reader `op` requests registration with requested tag.
    ReadValue {
        /// The read operation (identifies the reader process and the read).
        op: OpId,
        /// The tag `t_r` the reader selected in its get phase.
        tag: Tag,
    },
    /// `READ-COMPLETE`: reader `op` finished; servers may unregister it.
    ReadComplete {
        /// The read operation.
        op: OpId,
        /// The tag the reader had requested.
        tag: Tag,
    },
    /// `READ-DISPERSE`: server `server_rank` reports that it sent the coded
    /// element for `tag` to reader `op`.
    ReadDisperse {
        /// The tag whose element was sent.
        tag: Tag,
        /// Rank of the server that sent the element.
        server_rank: usize,
        /// The read operation the element was sent to.
        op: OpId,
    },
}

/// All messages of the SODA / SODAerr protocol.
#[derive(Clone, Debug)]
pub enum SodaMsg {
    // ----- client operation invocations (injected by the environment) -----
    /// Ask a writer process to perform a write of the given value.
    InvokeWrite(Value),
    /// Ask a reader process to perform a read.
    InvokeRead,

    // ----- write protocol -----
    /// `write-get` query from a writer.
    WriteGet {
        /// The write operation.
        op: OpId,
    },
    /// Server's response to `write-get`: its locally stored tag.
    WriteGetResp {
        /// The write operation this responds to.
        op: OpId,
        /// The responding server's stored tag.
        tag: Tag,
    },
    /// A message of the MD-VALUE dispersal (full value along the backbone or a
    /// coded element to its destination server). Carries object-value data.
    MdValue(MdValueMsg),
    /// Server acknowledgement that it processed the MD-VALUE delivery for
    /// `tag` (sent to the writer identified inside the tag).
    WriteAck {
        /// The tag being acknowledged.
        tag: Tag,
    },

    // ----- read protocol -----
    /// `read-get` query from a reader.
    ReadGet {
        /// The read operation.
        op: OpId,
    },
    /// Server's response to `read-get`: its locally stored tag.
    ReadGetResp {
        /// The read operation this responds to.
        op: OpId,
        /// The responding server's stored tag.
        tag: Tag,
    },
    /// A metadata message dispersed through MD-META (READ-VALUE,
    /// READ-COMPLETE or READ-DISPERSE).
    MdMeta(MdMetaMsg<MetaPayload>),
    /// A coded element sent from a server to a registered reader (either the
    /// server's stored element or the element of a concurrent write). Carries
    /// object-value data.
    CodedToReader {
        /// The read operation the element is for.
        op: OpId,
        /// The tag of the element.
        tag: Tag,
        /// The coded element (its `index` is the sending server's rank).
        element: CodedElement,
    },
}

impl Message for SodaMsg {
    fn data_bytes(&self) -> usize {
        match self {
            SodaMsg::InvokeWrite(_) => 0, // local hand-off, not a network transfer
            SodaMsg::MdValue(inner) => inner.data_bytes(),
            SodaMsg::CodedToReader { element, .. } => element.data.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::md::{DispersedValue, MessageId};
    use soda_protocol::value_from;

    #[test]
    fn data_bytes_charged_only_for_value_carrying_messages() {
        let value = value_from(vec![0u8; 100]);
        let full = SodaMsg::MdValue(MdValueMsg::Full {
            mid: MessageId::new(ProcessId(1), 1),
            tag: Tag::INITIAL,
            value: DispersedValue::new(value),
        });
        assert_eq!(full.data_bytes(), 100);

        let coded = SodaMsg::MdValue(MdValueMsg::Coded {
            mid: MessageId::new(ProcessId(1), 1),
            tag: Tag::INITIAL,
            element: CodedElement::new(2, vec![1, 2, 3]),
        });
        assert_eq!(coded.data_bytes(), 3);

        let to_reader = SodaMsg::CodedToReader {
            op: OpId::new(ProcessId(9), 1),
            tag: Tag::INITIAL,
            element: CodedElement::new(0, vec![5; 7]),
        };
        assert_eq!(to_reader.data_bytes(), 7);

        // Metadata messages are free.
        for msg in [
            SodaMsg::WriteGet {
                op: OpId::new(ProcessId(1), 1),
            },
            SodaMsg::WriteGetResp {
                op: OpId::new(ProcessId(1), 1),
                tag: Tag::INITIAL,
            },
            SodaMsg::WriteAck { tag: Tag::INITIAL },
            SodaMsg::ReadGet {
                op: OpId::new(ProcessId(1), 1),
            },
            SodaMsg::ReadGetResp {
                op: OpId::new(ProcessId(1), 1),
                tag: Tag::INITIAL,
            },
            SodaMsg::InvokeRead,
        ] {
            assert_eq!(msg.data_bytes(), 0, "{msg:?}");
        }
    }

    #[test]
    fn invoke_write_is_not_a_network_transfer() {
        let msg = SodaMsg::InvokeWrite(value_from(vec![1u8; 50]));
        assert_eq!(msg.data_bytes(), 0);
    }

    #[test]
    fn op_ids_are_ordered_and_unique_per_client_seq() {
        let a = OpId::new(ProcessId(1), 1);
        let b = OpId::new(ProcessId(1), 2);
        let c = OpId::new(ProcessId(2), 1);
        assert!(a < b);
        assert_ne!(a, c);
        assert_eq!(a, OpId::new(ProcessId(1), 1));
    }
}
