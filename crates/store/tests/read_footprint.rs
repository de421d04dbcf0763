//! The heap a put and a read keep. A put keeps its value once, in the
//! writer's log, and each server's coded element; a data element whose
//! shard lies inside the value is a view of that buffer, so it adds no
//! bytes. A get that decodes its value holds the buffer of the put it
//! returned, not a second copy, so N puts then N gets of one value each keep
//! about N values, not 2N.
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

/// The value size: large enough that a value copy dwarfs a record. With
/// `k = 3` each data shard is `⌈16 385 / 3⌉ = 5 462` bytes, so data shards 0
/// and 1 lie inside the value and shard 2 holds its end marker.
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
    // elements. Of those, element 2 (it holds the end marker) and the
    // `n − k` parity elements own their buffers, `(n − k + 1) / k` values;
    // data elements 0 and 1 are views of the value. With a fresh key's
    // cluster state (about 5.3–6.5 KiB, 0.32–0.40 of a value here) a put
    // measures 2.323 / 3.064 / 2.400 / 2.396 values per key (CAS's and
    // CASGC's include their servers' 16 B stored-bytes counters). Copying
    // every data element, as the encoder once did, measured 2.989 / 3.729 /
    // 3.063 / 3.060: `(k − 1) / k` of a value more, over the bound below.
    //
    // A get that held its own decoded copy would add one value more (1.0 or
    // above per key here), a get that holds the put's buffer adds only its
    // records: 2 264 B (SODA), 2 960 B (SODAerr) and 656 B (CAS, CASGC) per
    // key, the same at 4, 16 and 64 KiB values. That residue is fixed
    // per-get protocol state, not value data. ABD never decodes, so it is
    // not measured.
    let cases = [
        (ProtocolKind::Soda, 5, 2),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2),
        (ProtocolKind::Cas, 5, 1),
        (ProtocolKind::Casgc { gc: 2 }, 5, 1),
    ];
    let measured: Vec<_> = cases
        .iter()
        .map(|&(kind, n, f)| {
            let k = kind.code_dimension(n, f).expect("a coded kind");
            // The value, the last data element and the parity elements,
            // plus half a value for the key's cluster state.
            let put_bound = 1.0 + (n - k + 1) as f64 / k as f64 + 0.5;
            (kind, values_per_key(kind, n, f), put_bound)
        })
        .collect();
    for (kind, [puts, gets], put_bound) in &measured {
        let bytes = |values: f64| values * VALUE_BYTES as f64;
        println!(
            "{kind:?}: puts {puts:.3} ({:.0} B, bound {put_bound:.3}), gets {gets:.3} ({:.0} B) \
             values of {VALUE_BYTES} B per key",
            bytes(*puts),
            bytes(*gets),
        );
    }
    let copies: Vec<_> = measured
        .iter()
        .filter(|(_, [puts, gets], put_bound)| puts > put_bound || *gets > 0.25)
        .collect();
    assert!(
        copies.is_empty(),
        "puts or gets that keep a copy: {copies:?}"
    );
}
