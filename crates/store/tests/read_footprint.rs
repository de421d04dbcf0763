//! The heap a read keeps: a get that decodes its value holds the buffer of
//! the put it returned, not a second copy, so N puts then N gets of one
//! value each keep about N values, not 2N.
//!
//! A counting global allocator (`counting/mod.rs`) tracks live heap bytes.
//! It counts every thread, so this binary holds a single `#[test]`: no other
//! test can allocate while it measures.

mod counting;

use counting::live_bytes;
use soda_registry::ProtocolKind;
use soda_store::StoreBuilder;

/// Keys per kind: each serves one put, then one get.
const KEYS: usize = 32;

/// The value size: large enough that a value copy dwarfs a record.
const VALUE_BYTES: usize = 16 * 1024;

/// Live heap growth, in values per key, of a one-shard store of `kind`
/// clusters while [`KEYS`] keys each serve one put and then while each
/// serves one get.
fn values_per_key(kind: ProtocolKind, n: usize, f: usize) -> [f64; 2] {
    let mut store = StoreBuilder::new(1, kind, n, f)
        .with_seed(11)
        .build()
        .expect("valid store");
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|i| format!("key/{i}").into_bytes()).collect();
    let per_key = |bytes: isize| bytes as f64 / (KEYS * VALUE_BYTES) as f64;
    let start = live_bytes();
    for (i, key) in keys.iter().enumerate() {
        store.put(key.clone(), vec![i as u8 + 1; VALUE_BYTES]);
    }
    store.run_until_quiescent();
    let after_puts = live_bytes();
    let gets: Vec<_> = keys.iter().map(|key| store.get(key.clone())).collect();
    let outcome = store.run_until_quiescent();
    let after_gets = live_bytes();
    assert_eq!(outcome.pending_tickets, 0, "{kind:?}: every op completed");
    for (i, ticket) in gets.into_iter().enumerate() {
        let value = store.poll(ticket).value().map(<[u8]>::to_vec);
        assert_eq!(value, Some(vec![i as u8 + 1; VALUE_BYTES]), "{kind:?}");
    }
    [
        per_key(after_puts - start),
        per_key(after_gets - after_puts),
    ]
}

#[test]
fn a_get_holds_its_puts_value_for_every_decoding_kind() {
    // A put keeps its value in the writer's log beside the servers' coded
    // elements; a get that held its own decoded copy would add one value
    // more (1.0 or above per key here), a get that holds the put's buffer
    // adds only its records. ABD never decodes, so it is not measured.
    let cases = [
        (ProtocolKind::Soda, 5, 2),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2),
        (ProtocolKind::Cas, 5, 1),
        (ProtocolKind::Casgc { gc: 2 }, 5, 1),
    ];
    let measured: Vec<_> = cases
        .iter()
        .map(|&(kind, n, f)| (kind, values_per_key(kind, n, f)))
        .collect();
    for (kind, [puts, gets]) in &measured {
        println!("{kind:?}: puts {puts:.3}, gets {gets:.3} values of {VALUE_BYTES} B per key");
    }
    let copies: Vec<_> = measured
        .iter()
        .filter(|(_, [_, gets])| *gets > 0.25)
        .collect();
    assert!(copies.is_empty(), "gets that keep a copy: {copies:?}");
}
