//! The heap an idle key keeps: after a round that skips it, a key's cluster
//! holds its protocol state and not the scheduler and bookkeeping memory its
//! last operations grew.
//!
//! A counting global allocator (`counting/mod.rs`) tracks live heap bytes.
//! It counts every thread, so this binary holds a single `#[test]`: no other
//! test can allocate while it measures.

mod counting;

use counting::live_bytes;
use soda_registry::ProtocolKind;
use soda_store::{ShardedStore, StoreBuilder};

/// Keys measured per kind; the per-key figure is their mean.
const KEYS: usize = 64;

/// Rounds like the measured ones served before them. The first run of a
/// message type on a thread allocates that thread's spare event slab, which
/// every later run of the type borrows and gives back, and the store's key
/// tables grow by doubling. After these rounds the spare exists and the
/// tables have room for both measured rounds, so the difference is the
/// measured keys alone. Two measured rounds agreeing checks that: with no
/// priming, the first round also pays for the spare and a doubling.
const PRIME_ROUNDS: usize = 4;

/// Serves one put, then one get (64 B values) on each of `keys`, then a
/// round in which only `busy` serves a put, so each key sits out a round.
fn serve_then_idle(store: &mut ShardedStore, keys: &[Vec<u8>], busy: &[u8]) {
    for key in keys {
        store.put(key.clone(), vec![2; 64]);
    }
    store.run_until_quiescent();
    for key in keys {
        store.get(key.clone());
    }
    store.run_until_quiescent();
    store.put(busy.to_vec(), vec![3; 64]);
    let outcome = store.run_until_quiescent();
    assert_eq!(outcome.pending_tickets, 0, "every op completed");
}

/// Live heap bytes per key of a one-shard store of `kind` clusters after
/// each key served one put and one get and then sat out a round, for two
/// rounds of [`KEYS`] new keys in a row.
fn idle_bytes_per_key(kind: ProtocolKind, n: usize, f: usize) -> [isize; 2] {
    let mut store = StoreBuilder::new(1, kind, n, f)
        .with_clients_per_key(2, 2)
        .with_seed(7)
        .build()
        .expect("valid store");
    let keys = |prefix: &str, count: usize| -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| format!("{prefix}/{i}").into_bytes())
            .collect()
    };
    for round in 0..PRIME_ROUNDS {
        serve_then_idle(&mut store, &keys(&format!("prime{round}"), KEYS), b"busy");
    }
    [0, 1].map(|round| {
        let before = live_bytes();
        serve_then_idle(&mut store, &keys(&format!("key{round}"), KEYS), b"busy");
        (live_bytes() - before) / KEYS as isize
    })
}

#[test]
fn an_idle_key_keeps_only_its_protocol_state() {
    // (kind, n, f, bound in bytes per key). An idle key measures 7 867,
    // 9 721, 4 785, 8 024 and 8 017 B. Each bound was set at about 5 % over
    // the figure of its day. A decoding kind's bound then fell by 32 B, as
    // its key did: its last get holds its put's 64 B value rather than a
    // decoded copy (80 B with the buffer's counts), less the 48 B of the
    // harness's read cursors, which also raised ABD's key from 4 737 B.
    // SODA's and SODAerr's bounds then fell by 32 and 16 B, as their keys
    // did (from 7 899 and 9 737 B): a stored data element whose shard lies
    // inside the 64 B value is a view of the put's buffer, not a copy. The
    // 8 B that each kind's staged event grew with its message (`SodaMsg`
    // 64 → 72 B, `CasMsg` 56 → 64 B) is inside these figures; CAS and CASGC
    // (k = 1, so no data element lies inside a value) rose by those 8 B,
    // from 7 936 and 7 929 B, and their bound stays. A CAS version entry
    // keeps its payload without the element index (always the server's own
    // rank): with the index, each of the five servers' B-tree nodes (room
    // for 11 entries) would grow by 88 B, about 440 B per key. CAS and
    // CASGC then rose 80 B (from 7 944 and 7 937 B): each of the five
    // servers keeps its stored bytes and versions as two counters.
    // An idle key whose simulation kept a buffer for its handlers' actions
    // measured 8 551, 10 973, 5 353, 8 628 and 8 621 B; each of those is
    // over its bound here.
    let cases = [
        (ProtocolKind::Soda, 5, 2, 8_286),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2, 10_252),
        (ProtocolKind::Abd, 5, 2, 5_150),
        (ProtocolKind::Cas, 5, 2, 8_468),
        (ProtocolKind::Casgc { gc: 2 }, 5, 2, 8_468),
    ];
    let measured: Vec<_> = cases
        .iter()
        .map(|&(kind, n, f, bound)| (kind, idle_bytes_per_key(kind, n, f), bound))
        .collect();
    for (kind, [first, second], bound) in &measured {
        println!("{kind:?}: {first} then {second} B per idle key (bound {bound} B)");
    }
    // A spare slab or a table doubling would be charged to the first round.
    let unsettled: Vec<_> = measured
        .iter()
        .filter(|(_, [first, second], _)| first.abs_diff(*second) > 64)
        .collect();
    assert!(unsettled.is_empty(), "rounds disagree: {unsettled:?}");
    let over: Vec<_> = measured
        .iter()
        .filter(|(_, bytes, bound)| bytes.iter().any(|b| b > bound))
        .collect();
    assert!(over.is_empty(), "idle keys over their bounds: {over:?}");
}
