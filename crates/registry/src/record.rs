//! What a cluster reports about its operations, in one shape for every
//! protocol.
//!
//! The records themselves ([`OpRecord`], [`OpKind`], [`PendingWrite`] and
//! the repair record [`soda_protocol::RepairStatus`]) are the shared
//! vocabulary of `soda-protocol`: every protocol logs them directly, and
//! this crate re-exports them. This module adds what only the facade knows
//! how to say: the conversion of records into a history the atomicity
//! checker of `soda-consistency` accepts.

use soda_consistency::{History, Kind, Version};
use soda_protocol::{OpKind, OpRecord, PendingWrite, Tag};

/// Converts a protocol tag into a checker version.
pub fn version_of_tag(tag: Tag) -> Version {
    Version::new(tag.z, tag.writer.0 as u64)
}

/// Builds a checker [`History`] from shared operation records. The history
/// shares each record's value allocation; nothing is copied.
pub fn history_from_records(initial_value: &[u8], records: &[OpRecord]) -> History {
    let mut history = History::new(initial_value.to_vec());
    for record in records {
        history.push(
            record.client,
            match record.kind {
                OpKind::Write => Kind::Write,
                OpKind::Read => Kind::Read,
            },
            record.invoked_at.ticks(),
            record.completed_at.ticks(),
            record.value.clone().unwrap_or_default(),
            version_of_tag(record.tag),
        );
    }
    history
}

/// Builds a checker [`History`] from completed records *plus* pending
/// writes, so faulty executions (crashed writers, adversarial message loss)
/// can be atomicity-checked without spuriously flagging reads of
/// partially-propagated writes as `ReadOfUnknownVersion`.
///
/// A pending write whose tag is known enters the history with a response
/// time of `u64::MAX` (it precedes nothing, so only its invocation
/// constrains the order — exactly the semantics of an operation that never
/// returned). Pending writes without a tag are omitted: their value has not
/// reached any server, so no completed operation can depend on them.
pub fn history_with_pending(
    initial_value: &[u8],
    completed: &[OpRecord],
    pending: &[PendingWrite],
) -> History {
    let mut history = history_from_records(initial_value, completed);
    for write in pending {
        let Some(tag) = write.tag else {
            continue;
        };
        history.push(
            write.client,
            Kind::Write,
            write.invoked_at.ticks(),
            u64::MAX,
            write.value.clone(),
            version_of_tag(tag),
        );
    }
    history
}

/// Sorts records the way [`crate::RegisterCluster::completed_ops`] reports
/// them: by completion time, breaking ties by client id and sequence number.
pub(crate) fn sort_records(records: &mut [OpRecord]) {
    records.sort_by_key(|op| (op.completed_at, op.client, op.seq));
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_protocol::value_from;
    use soda_simnet::{ProcessId, SimTime};

    #[test]
    fn tag_conversion_preserves_order() {
        let a = version_of_tag(Tag::new(1, ProcessId(5)));
        let b = version_of_tag(Tag::new(2, ProcessId(1)));
        let c = version_of_tag(Tag::new(2, ProcessId(3)));
        assert!(a < b);
        assert!(b < c);
        assert_eq!(version_of_tag(Tag::INITIAL), Version::INITIAL);
    }

    #[test]
    fn records_convert_to_a_checkable_history() {
        let records = vec![
            OpRecord {
                client: 10,
                seq: 1,
                kind: OpKind::Write,
                invoked_at: SimTime::from_ticks(0),
                completed_at: SimTime::from_ticks(20),
                tag: Tag::new(1, ProcessId(10)),
                value: Some(value_from(b"x".to_vec())),
            },
            OpRecord {
                client: 11,
                seq: 1,
                kind: OpKind::Read,
                invoked_at: SimTime::from_ticks(30),
                completed_at: SimTime::from_ticks(50),
                tag: Tag::new(1, ProcessId(10)),
                value: Some(value_from(b"x".to_vec())),
            },
        ];
        let history = history_from_records(b"", &records);
        assert_eq!(history.len(), 2);
        assert!(history.check_atomicity().is_ok());
        assert_eq!(history.ops()[0].kind, Kind::Write);
        assert_eq!(history.ops()[1].kind, Kind::Read);
    }
}
