//! The sizes of the hot message types, pinned. The simulated network moves
//! messages by value and its event slab stores them inline, so a byte added
//! to a message is paid on every send, in every queued event and in every
//! idle key's spare slab. A change that grows one of these fails here and
//! says so in review; update the figure with the reason.

use soda::SodaMsg;
use soda_baselines::abd::AbdMsg;
use soda_baselines::cas::CasMsg;
use soda_rs_code::{CodedElement, Payload};
use std::mem::size_of;

#[test]
fn hot_message_sizes_are_pinned() {
    let sizes = [
        ("Payload", size_of::<Payload>(), 24),
        ("CodedElement", size_of::<CodedElement>(), 32),
        ("SodaMsg", size_of::<SodaMsg>(), 72),
        ("CasMsg", size_of::<CasMsg>(), 64),
        ("AbdMsg", size_of::<AbdMsg>(), 48),
    ];
    for (name, size, _) in sizes {
        println!("{name}: {size} B");
    }
    let moved: Vec<_> = sizes.iter().filter(|(_, size, pin)| size != pin).collect();
    assert!(
        moved.is_empty(),
        "sizes moved (name, now, pinned): {moved:?}"
    );
}
