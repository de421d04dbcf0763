//! Cross-protocol conformance: the same store scenario over every
//! [`ProtocolKind`], with per-key atomicity machine-checked.

use soda_registry::ProtocolKind;
use soda_store::{ShardedStore, StoreBuilder, Ticket};

/// `(kind, n, f)` cluster shapes valid for every protocol.
fn all_kinds() -> Vec<(ProtocolKind, usize, usize)> {
    vec![
        (ProtocolKind::Soda, 5, 2),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2),
        (ProtocolKind::Abd, 5, 2),
        (ProtocolKind::Cas, 5, 2),
        (ProtocolKind::Casgc { gc: 2 }, 5, 2),
    ]
}

/// Drives the shared scenario: three rounds of batched puts over 12 keys with
/// interleaved gets, all queued before a single drain so every key sees
/// write/read concurrency.
fn drive(store: &mut ShardedStore) -> (Vec<Ticket>, Vec<Ticket>) {
    let keys: Vec<Vec<u8>> = (0..12).map(|i| format!("obj/{i}").into_bytes()).collect();
    let mut puts = Vec::new();
    let mut gets = Vec::new();
    for round in 0..3 {
        puts.extend(store.put_batch(keys.iter().map(|k| {
            let mut v = k.clone();
            v.extend_from_slice(format!("=r{round}").as_bytes());
            (k.clone(), v)
        })));
        gets.extend(store.multi_get(keys.iter().cloned()));
    }
    let outcome = store.run_until_quiescent();
    assert!(
        !outcome.hit_event_cap,
        "no simulation may hit its event cap"
    );
    (puts, gets)
}

#[test]
fn every_protocol_serves_the_same_store_scenario_atomically() {
    for (kind, n, f) in all_kinds() {
        let mut store = StoreBuilder::new(3, kind, n, f)
            .with_clients_per_key(2, 2)
            .with_seed(11)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let (puts, gets) = drive(&mut store);
        for &t in puts.iter().chain(&gets) {
            assert!(
                store.poll(t).is_done(),
                "{}: ticket left pending in a fault-free run",
                kind.name()
            );
        }
        store
            .check_per_key_atomicity()
            .unwrap_or_else(|v| panic!("{}: per-key atomicity violated: {v}", kind.name()));

        let metrics = store.metrics();
        assert_eq!(metrics.aggregate.completed_puts, 36, "{}", kind.name());
        assert_eq!(metrics.aggregate.completed_gets, 36, "{}", kind.name());
        assert_eq!(metrics.aggregate.pending_tickets, 0, "{}", kind.name());
        assert_eq!(metrics.aggregate.keys, 12, "{}", kind.name());
        assert!(metrics.aggregate.messages_sent > 0, "{}", kind.name());
        assert!(metrics.aggregate.stored_bytes > 0, "{}", kind.name());
        assert_eq!(metrics.per_shard.len(), 3, "{}", kind.name());
        assert_eq!(metrics.aggregate.put_latency.count(), 36, "{}", kind.name());
    }
}

#[test]
fn gets_after_a_drained_put_return_the_latest_value() {
    for (kind, n, f) in all_kinds() {
        let mut store = StoreBuilder::new(4, kind, n, f)
            .with_seed(3)
            .build()
            .unwrap();
        let keys: Vec<Vec<u8>> = (0..8).map(|i| format!("user:{i}").into_bytes()).collect();
        store.put_batch(
            keys.iter()
                .map(|k| (k.clone(), [k.as_slice(), b"#v1"].concat())),
        );
        store.run_until_quiescent();
        store.put_batch(
            keys.iter()
                .map(|k| (k.clone(), [k.as_slice(), b"#v2"].concat())),
        );
        store.run_until_quiescent();

        let gets = store.multi_get(keys.iter().cloned());
        store.run_until_quiescent();
        for (key, &t) in keys.iter().zip(&gets) {
            let expected = [key.as_slice(), b"#v2"].concat();
            assert_eq!(
                store.poll(t).value(),
                Some(expected.as_slice()),
                "{}: stale or missing read of {}",
                kind.name(),
                String::from_utf8_lossy(key)
            );
        }
        store.check_per_key_atomicity().unwrap();
    }
}

#[test]
fn absent_keys_read_as_none() {
    let mut store = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
        .build()
        .unwrap();
    let t = store.get(b"never-written".to_vec());
    store.run_until_quiescent();
    let status = store.poll(t);
    assert!(status.is_done());
    assert_eq!(status.value(), None);
}

#[test]
fn mixed_fleets_route_keys_to_their_shards_protocol() {
    let kinds = vec![
        ProtocolKind::Soda,
        ProtocolKind::Abd,
        ProtocolKind::Cas,
        ProtocolKind::Casgc { gc: 1 },
    ];
    let mut store = StoreBuilder::new(4, ProtocolKind::Soda, 5, 2)
        .with_shard_kinds(kinds.clone())
        .with_seed(9)
        .build()
        .unwrap();
    let (puts, gets) = drive(&mut store);
    assert!(puts.iter().chain(&gets).all(|&t| store.poll(t).is_done()));
    store.check_per_key_atomicity().unwrap();
    let metrics = store.metrics();
    for (shard, m) in metrics.per_shard.iter().enumerate() {
        assert_eq!(m.protocol, kinds[shard].name());
    }
    // 12 keys spread over 4 shards: the consistent-hash ring must not dump
    // everything on one shard.
    let populated = metrics.per_shard.iter().filter(|m| m.keys > 0).count();
    assert!(
        populated >= 2,
        "placement too skewed: {:?}",
        store.keys_per_shard()
    );
}

#[test]
fn deterministic_replay_per_seed() {
    let run = || {
        let mut store = StoreBuilder::new(4, ProtocolKind::Soda, 5, 2)
            .with_seed(77)
            .build()
            .unwrap();
        drive(&mut store);
        let m = store.metrics();
        (
            m.aggregate.messages_sent,
            m.aggregate.data_bytes_sent,
            m.aggregate.put_latency.mean(),
            store.total_simulated_ticks(),
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce the same execution");
}
