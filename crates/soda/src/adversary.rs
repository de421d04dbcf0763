//! SODAerr's byzantine adversary: in-flight corruption of coded elements.
//!
//! Section VI's threat model is that up to `e` servers may serve *corrupted
//! coded elements* to readers without noticing — the tags, acknowledgements
//! and dispersal metadata they produce stay correct. This is the repo's one
//! model of it: a designated server's **every** coded element to a reader is
//! corrupted, its stored element and the relays of concurrent writes alike.
//! A server whose disk silently rots corrupts a subset of that. The decoder
//! is provisioned for `e` bad elements per tag, and a server sends a read at
//! most one element per tag, so `e` byzantine servers stay within budget.
//! The rank stays byzantine across crashes: its replacement, once repaired,
//! corrupts what it sends just the same.
//!
//! The hook plugs into the simulator's delivery path: install
//! [`coded_element_corruptor`] with
//! [`soda_simnet::Simulation::set_corruption_hook`]. The simulator offers
//! it every send the network does not cut, and the hook itself picks the
//! byzantine servers' messages. The `soda-registry` facade installs it from
//! `ClusterBuilder::with_byzantine_servers`.

use crate::messages::SodaMsg;
use soda_simnet::{CorruptionHook, ProcessId};
use std::collections::BTreeSet;

/// Flips bits of a coded element's payload.
pub(crate) fn corrupt_element_data(data: &mut [u8]) {
    for byte in data.iter_mut() {
        *byte ^= 0x5A;
    }
    // Perturb the first byte as well so even payloads that are fixed points
    // of the XOR pattern (and empty-value edge cases) change shape.
    if let Some(first) = data.first_mut() {
        *first = first.wrapping_add(1);
    }
}

/// A [`CorruptionHook`] that corrupts the [`SodaMsg::CodedToReader`] payloads
/// sent by the given server ranks and leaves every other message intact —
/// exactly the messages SODAerr's error budget `e` is provisioned against.
/// Write dispersals (`MdValue`) and all metadata are deliberately untouched:
/// corrupting those models a stronger adversary than the paper's, under which
/// no storage-optimal protocol can be correct.
pub fn coded_element_corruptor(ranks: BTreeSet<usize>) -> CorruptionHook<SodaMsg> {
    Box::new(move |from: ProcessId, _to, msg: &mut SodaMsg| {
        if !ranks.contains(&from.index()) {
            return false;
        }
        match msg {
            // Empty payloads (coded elements of an empty v0) have no bits to
            // flip; report them unmutated so the corruption counter stays
            // honest.
            SodaMsg::CodedToReader { element, .. } if !element.data.is_empty() => {
                corrupt_element_data(element.data.make_mut());
                true
            }
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::OpId;
    use soda_protocol::{value_from, Tag};
    use soda_rs_code::CodedElement;

    fn element() -> CodedElement {
        CodedElement::new(3, vec![1, 2, 3, 4])
    }

    #[test]
    fn corrupts_only_coded_elements_of_designated_ranks() {
        let mut hook = coded_element_corruptor([2usize].into_iter().collect());
        let op = OpId::new(ProcessId(9), 1);
        let tag = Tag::new(1, ProcessId(9));

        let mut msg = SodaMsg::CodedToReader {
            op,
            tag,
            element: element(),
        };
        assert!(hook(ProcessId(2), ProcessId(9), &mut msg));
        match &msg {
            SodaMsg::CodedToReader { element: e, .. } => {
                assert_ne!(e.data, vec![1, 2, 3, 4], "payload must change");
                assert_eq!(e.index, 3, "the element index is metadata: untouched");
            }
            _ => unreachable!(),
        }

        // Same message from a non-designated rank: untouched.
        let mut msg = SodaMsg::CodedToReader {
            op,
            tag,
            element: element(),
        };
        assert!(!hook(ProcessId(1), ProcessId(9), &mut msg));

        // Non-element messages from the designated rank: untouched.
        let mut msg = SodaMsg::WriteGetResp { op, tag };
        assert!(!hook(ProcessId(2), ProcessId(9), &mut msg));

        // Empty elements cannot be mutated and must not be reported as
        // corrupted.
        let mut msg = SodaMsg::CodedToReader {
            op,
            tag,
            element: CodedElement::new(2, Vec::new()),
        };
        assert!(!hook(ProcessId(2), ProcessId(9), &mut msg));
        let mut msg = SodaMsg::InvokeWrite(value_from(vec![1]));
        assert!(!hook(ProcessId(2), ProcessId(9), &mut msg));
    }

    #[test]
    fn corruption_changes_empty_and_fixed_point_payloads() {
        let mut data = vec![0x5Au8];
        let before = data.clone();
        corrupt_element_data(&mut data);
        assert_ne!(data, before);
        let mut empty: Vec<u8> = Vec::new();
        corrupt_element_data(&mut empty);
        assert!(empty.is_empty(), "empty payloads stay empty but harmless");
    }
}
