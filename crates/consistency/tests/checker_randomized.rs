//! Randomized tests cross-validating the tag-based atomicity checker against
//! the brute-force linearizability search.
//!
//! The tag-based conditions (Lemma 2.1) are *sufficient* for atomicity, so any
//! history the fast checker accepts must also be accepted by the brute-force
//! checker. The converse need not hold (a history can be linearizable even if
//! the tags recorded by a buggy protocol are inconsistent), so only the
//! implication is asserted. (Formerly a proptest suite; now driven by the
//! seeded `SimRng`.)

use soda_consistency::{History, Kind, Version};
use soda_simnet::rng::SimRng;

const CASES: usize = 512;

/// Builds a well-formed random history (per-client operations serialized).
/// Values are derived from versions for writes so that a "correct protocol"
/// shape is likely, but reads may carry arbitrary versions/values, exercising
/// both accepting and rejecting paths.
fn random_history(rng: &mut SimRng) -> History {
    let mut history = History::new(b"v0".to_vec());
    let num_ops = rng.gen_range(0usize..7);
    // Serialize each client's operations to keep the history well-formed.
    let mut next_free: std::collections::BTreeMap<u64, u64> = Default::default();
    for _ in 0..num_ops {
        let client = rng.gen_range(0u64..3);
        let is_read = rng.gen_bool(0.5);
        let start = rng.gen_range(0u64..50);
        let duration = rng.gen_range(1u64..20);
        let version_z = rng.gen_range(0u64..4);
        let version_w = rng.gen_range(0u64..3);
        let value_seed: u8 = rng.gen();

        let start = (*next_free.get(&client).unwrap_or(&0)).max(start);
        let end = start + duration;
        next_free.insert(client, end + 1);
        let version = Version::new(version_z, version_w);
        let value = if version_z == 0 {
            b"v0".to_vec()
        } else {
            vec![version_z as u8, version_w as u8, value_seed % 2]
        };
        history.push(
            client,
            if is_read { Kind::Read } else { Kind::Write },
            start,
            end,
            value,
            version,
        );
    }
    history
}

#[test]
fn tag_checker_acceptance_implies_linearizability() {
    let mut rng = SimRng::new(0xc0de);
    let mut accepted = 0usize;
    for _ in 0..CASES {
        let history = random_history(&mut rng);
        if history.check_well_formed().is_err() {
            continue;
        }
        if history.check_atomicity().is_ok() {
            accepted += 1;
            assert!(
                history.check_linearizable_brute_force(),
                "tag-based checker accepted a non-linearizable history: {history:?}"
            );
        }
    }
    assert!(
        accepted > 0,
        "the generator must produce some accepting histories"
    );
}

#[test]
fn checkers_never_panic_on_well_formed_histories() {
    let mut rng = SimRng::new(0xbeef);
    for _ in 0..CASES {
        let history = random_history(&mut rng);
        let _ = history.check_atomicity();
        if history.len() <= 8 {
            let _ = history.check_linearizable_brute_force();
        }
        for read in history.ops().iter().filter(|o| o.kind == Kind::Read) {
            let _ = history.concurrent_writes(read.id);
        }
    }
}
