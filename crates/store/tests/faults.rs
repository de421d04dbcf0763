//! Fault handling at the store layer: crashed shards must not block the
//! rest of the fleet, and adversarial networks must never break per-key
//! atomicity — in either runtime.

use soda_registry::ProtocolKind;
use soda_simnet::{DelayModel, LinkFaults, NetFaultPlan};
use soda_store::{ShardedStore, StoreBuilder, StoreError, StoreRuntime, TicketStatus};

fn adversary() -> NetFaultPlan {
    NetFaultPlan::none().with_default(LinkFaults {
        drop_p: 0.08,
        duplicate_p: 0.15,
        extra_delay: Some(DelayModel::Uniform { min: 1, max: 25 }),
        reorder_p: 0.2,
        reorder_window: 40,
    })
}

/// The acceptance scenario: an 8-shard mixed-protocol store, one writer
/// handle per key, under adversarial network faults.
fn mixed_adversarial_store(runtime: StoreRuntime, seed: u64) -> ShardedStore {
    StoreBuilder::new(8, ProtocolKind::Soda, 5, 2)
        .with_shard_kinds(vec![
            ProtocolKind::Soda,
            ProtocolKind::SodaErr { e: 1 }, // k = n - f - 2e = 1 at (5, 2)
            ProtocolKind::Abd,
            ProtocolKind::Cas,
            ProtocolKind::Casgc { gc: 2 },
            ProtocolKind::Soda,
            ProtocolKind::Abd,
            ProtocolKind::Casgc { gc: 1 },
        ])
        .with_clients_per_key(1, 2)
        .with_net_faults(adversary())
        .with_seed(seed)
        .with_runtime(runtime)
        .build()
        .unwrap()
}

fn drive_mixed(store: &mut ShardedStore) {
    let keys: Vec<Vec<u8>> = (0..24).map(|i| format!("acc/{i}").into_bytes()).collect();
    for round in 0..3 {
        store.put_batch(
            keys.iter()
                .map(|k| (k.clone(), format!("r{round}").into_bytes())),
        );
        store.multi_get(keys.iter().cloned());
    }
    let outcome = store.run_until_quiescent();
    assert!(!outcome.hit_event_cap);
}

#[test]
fn mixed_store_under_net_faults_is_per_key_atomic_in_the_simulator() {
    for seed in 0..4 {
        let mut store = mixed_adversarial_store(StoreRuntime::Simulation, seed);
        drive_mixed(&mut store);
        store
            .check_per_key_atomicity()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        // The adversary must actually have been active for the run to mean
        // anything.
        assert!(store.metrics().aggregate.messages_lost > 0, "seed {seed}");
    }
}

#[test]
fn mixed_store_under_net_faults_is_per_key_atomic_in_the_threaded_runtime() {
    let mut store = mixed_adversarial_store(StoreRuntime::Threaded, 1);
    drive_mixed(&mut store);
    store.check_per_key_atomicity().unwrap();
    assert!(store.metrics().aggregate.completed_ops() > 0);
}

#[test]
fn threaded_and_simulated_runs_agree_exactly() {
    // Shards are driven by self-contained deterministic simulations, so the
    // parallel runtimes must reproduce the serial backend's histories bit
    // for bit — worker threads only change wall-clock, never outcomes. The
    // explicit worker count keeps parallel drains exercised even on
    // single-core hosts.
    let mut results = Vec::new();
    for runtime in [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 3 },
    ] {
        let mut store = mixed_adversarial_store(runtime, 5);
        drive_mixed(&mut store);
        let m = store.metrics();
        results.push((
            m.aggregate.messages_sent,
            m.aggregate.data_bytes_sent,
            m.aggregate.completed_puts,
            m.aggregate.completed_gets,
            m.aggregate.put_latency.mean(),
            store.total_simulated_ticks(),
        ));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

#[test]
fn a_crashed_shard_does_not_block_the_others() {
    let mut store = StoreBuilder::new(4, ProtocolKind::Soda, 5, 2)
        .with_seed(13)
        .build()
        .unwrap();

    // Find keys on two different shards.
    let keys: Vec<Vec<u8>> = (0..32).map(|i| format!("k{i}").into_bytes()).collect();
    let dead_shard = store.shard_of(&keys[0]);
    let victim = keys[0].clone();
    let survivor = keys
        .iter()
        .find(|k| store.shard_of(k) != dead_shard)
        .expect("32 keys must hit at least two of four shards")
        .clone();

    // Kill the victim's shard beyond its fault tolerance (f = 2, so three
    // crashed servers leave no majority). The checked API refuses …
    let err = store.crash_shard_servers(dead_shard, 3).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::ExceedsCrashBudget {
                requested: 3,
                tolerated: 2,
                ..
            }
        ),
        "{err}"
    );
    // … so wedging the shard takes the explicitly-adversarial entry point.
    store.crash_shard_servers_unchecked(dead_shard, 3);

    let doomed_put = store.put(victim.clone(), b"lost".to_vec());
    let doomed_get = store.get(victim);
    let live_put = store.put(survivor.clone(), b"alive".to_vec());
    let live_get = store.get(survivor);

    // Must terminate (the dead shard quiesces with its ops pending) …
    let outcome = store.run_until_quiescent();
    assert!(!outcome.hit_event_cap);

    // … with the dead shard's operations pending and the live shard served.
    assert!(matches!(store.poll(doomed_put), TicketStatus::Pending));
    assert!(matches!(store.poll(doomed_get), TicketStatus::Pending));
    assert!(store.poll(live_put).is_done());
    assert_eq!(store.poll(live_get).value(), Some(b"alive".as_slice()));
    assert_eq!(outcome.pending_tickets, 2);

    // The surviving history still checks out (the doomed write is closed
    // under pending).
    store.check_per_key_atomicity().unwrap();

    // Late arrivals on the dead shard stay pending too, without hanging.
    let late = store.put(b"k0-late-sibling".to_vec(), b"x".to_vec());
    store.run_until_quiescent();
    if store.shard_of(b"k0-late-sibling") == dead_shard {
        assert!(matches!(store.poll(late), TicketStatus::Pending));
    } else {
        assert!(store.poll(late).is_done());
    }
}
