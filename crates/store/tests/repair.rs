//! Shard-level crash–recovery: the dynamic fault-tolerance invariant (at
//! most `f` *currently*-dead-or-repairing servers), repair metrics, and the
//! acceptance scenario — crash a server, repair it, crash a *different* one,
//! and the store stays per-key atomic.

use soda_registry::ProtocolKind;
use soda_store::{ShardedStore, StoreBuilder, StoreError, StoreRuntime};

/// The 8-shard mixed-protocol acceptance fleet (all five protocols).
fn mixed_store(runtime: StoreRuntime, seed: u64) -> ShardedStore {
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
        .with_seed(seed)
        .with_runtime(runtime)
        .build()
        .unwrap()
}

/// Crash → repair → crash-a-different-server on every shard of the mixed
/// fleet, with writes racing the repairs, in the given runtime. Returns the
/// store for further inspection.
fn drive_crash_repair_crash(runtime: StoreRuntime, seed: u64) -> ShardedStore {
    let mut store = mixed_store(runtime, seed);
    // Pick keys so every shard (hence every protocol) holds exactly two —
    // consistent hashing alone can leave a shard empty.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut placed = vec![0usize; store.num_shards()];
    for i in 0.. {
        if placed.iter().all(|&c| c >= 2) {
            break;
        }
        let key = format!("rep/{i}").into_bytes();
        let shard = store.shard_of(&key);
        if placed[shard] < 2 {
            placed[shard] += 1;
            keys.push(key);
        }
    }

    // Round 1: populate every shard, fault-free.
    store.put_batch(keys.iter().map(|k| (k.clone(), b"round-one".to_vec())));
    store.run_until_quiescent();

    // Crash rank 0 everywhere and keep serving.
    for shard in 0..store.num_shards() {
        store.crash_shard_server(shard, 0).unwrap();
    }
    store.put_batch(keys.iter().map(|k| (k.clone(), b"round-two".to_vec())));
    store.multi_get(keys.iter().cloned());
    store.run_until_quiescent();

    // Repair rank 0 everywhere *while* round-three writes are in flight.
    store.put_batch(keys.iter().map(|k| (k.clone(), b"round-three".to_vec())));
    for shard in 0..store.num_shards() {
        store.repair_shard_server(shard, 0).unwrap();
        assert_eq!(store.shard_dead_or_repairing(shard).unwrap(), 1);
    }
    store.run_until_quiescent();

    // Repairs completed, so the budget is free again: crash a *different*
    // rank — the request the static watermark could never have granted after
    // an earlier f-sized crash.
    for shard in 0..store.num_shards() {
        assert_eq!(
            store.shard_dead_or_repairing(shard).unwrap(),
            0,
            "shard {shard}"
        );
        store.crash_shard_server(shard, 1).unwrap();
    }
    store.put_batch(keys.iter().map(|k| (k.clone(), b"round-four".to_vec())));
    store.multi_get(keys.iter().cloned());
    let outcome = store.run_until_quiescent();
    assert!(!outcome.hit_event_cap);
    assert_eq!(outcome.pending_tickets, 0, "every shard kept its quorums");
    store
}

#[test]
fn crash_repair_crash_a_different_server_stays_per_key_atomic() {
    let store = drive_crash_repair_crash(StoreRuntime::Simulation, 11);
    store.check_per_key_atomicity().unwrap();

    let m = store.metrics();
    // Every populated cluster of every shard was repaired exactly once.
    let clusters: usize = store.keys_per_shard().iter().sum();
    assert_eq!(m.aggregate.repairs_completed, clusters as u64);
    assert_eq!(
        m.aggregate.repair_latency.count(),
        m.aggregate.repairs_completed
    );
    assert!(m.aggregate.repair_traffic_bytes > 0);
    assert!(m.aggregate.repair_latency.max() > 0);
    for shard in &m.per_shard {
        assert!(
            shard.repairs_completed > 0,
            "shard {} ({}) repaired nothing",
            shard.shard,
            shard.protocol
        );
    }
}

#[test]
fn crash_repair_crash_is_bit_identical_across_runtimes() {
    let mut results = Vec::new();
    for runtime in [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 4 },
    ] {
        let store = drive_crash_repair_crash(runtime, 5);
        store.check_per_key_atomicity().unwrap();
        let m = store.metrics();
        results.push((
            m.aggregate.messages_sent,
            m.aggregate.data_bytes_sent,
            m.aggregate.completed_puts,
            m.aggregate.completed_gets,
            m.aggregate.repairs_completed,
            m.aggregate.repair_traffic_bytes,
            m.aggregate.repair_latency.mean().to_bits(),
            store.total_simulated_ticks(),
        ));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

#[test]
fn crash_budget_is_dynamic_and_validated() {
    let mut store = StoreBuilder::new(1, ProtocolKind::Soda, 5, 2)
        .with_seed(3)
        .build()
        .unwrap();
    store.put(b"k".to_vec(), b"v".to_vec());
    store.run_until_quiescent();

    // Addressing errors.
    assert!(matches!(
        store.crash_shard_servers(9, 1),
        Err(StoreError::ShardOutOfRange {
            shard: 9,
            shards: 1
        })
    ));
    assert!(matches!(
        store.crash_shard_server(0, 7),
        Err(StoreError::RankOutOfRange { rank: 7, n: 5, .. })
    ));
    assert!(matches!(
        store.repair_shard_server(0, 3),
        Err(StoreError::ServerNotDown { rank: 3, .. })
    ));
    let missing = StoreError::ShardOutOfRange {
        shard: 1,
        shards: 1,
    };
    assert_eq!(
        store.crash_shard_servers_unchecked(1, 1),
        Err(missing.clone())
    );
    assert_eq!(store.shard_downed_servers(1), Err(missing.clone()));
    assert_eq!(store.shard_dead_or_repairing(1), Err(missing));

    // Fill the budget, then one more is refused.
    store.crash_shard_servers(0, 2).unwrap();
    assert!(matches!(
        store.crash_shard_server(0, 2),
        Err(StoreError::ExceedsCrashBudget {
            requested: 3,
            tolerated: 2,
            ..
        })
    ));
    // Re-crashing an already-dead rank is a no-op, not a budget violation.
    store.crash_shard_server(0, 1).unwrap();
    assert_eq!(store.shard_downed_servers(0).unwrap(), vec![0, 1]);

    // A *scheduled* repair does not free the budget yet …
    store.repair_shard_server(0, 0).unwrap();
    assert_eq!(store.shard_dead_or_repairing(0).unwrap(), 2);
    assert!(matches!(
        store.crash_shard_server(0, 2),
        Err(StoreError::ExceedsCrashBudget { .. })
    ));

    // … only an observed-complete repair does.
    store.run_until_quiescent();
    assert_eq!(store.shard_dead_or_repairing(0).unwrap(), 1);
    store.crash_shard_server(0, 2).unwrap();
    assert_eq!(store.shard_downed_servers(0).unwrap(), vec![1, 2]);

    store.run_until_quiescent();
    store.check_per_key_atomicity().unwrap();
}

#[test]
fn soda_repair_bandwidth_is_coded_not_replicated() {
    // One SODA shard, n = 5, f = 2 ⇒ k = 3. A repaired server must fetch
    // k coded elements of ⌈(size + 1) / k⌉ bytes — (n/k)·size + O(metadata)
    // spread across survivors — never the n·size of full replication.
    let (n, k, size, num_keys) = (5usize, 3usize, 300usize, 6usize);
    let mut store = StoreBuilder::new(1, ProtocolKind::Soda, n, 2)
        .with_seed(21)
        .build()
        .unwrap();
    let keys: Vec<Vec<u8>> = (0..num_keys)
        .map(|i| format!("bw/{i}").into_bytes())
        .collect();
    store.put_batch(keys.iter().map(|key| (key.clone(), vec![0xAB; size])));
    store.run_until_quiescent();

    store.crash_shard_server(0, 2).unwrap();
    store.repair_shard_server(0, 2).unwrap();
    store.run_until_quiescent();

    let m = store.metrics();
    assert_eq!(m.aggregate.repairs_completed, num_keys as u64);
    let elem_len = (size + 1).div_ceil(k) as u64;
    let per_cluster = m.aggregate.repair_traffic_bytes / num_keys as u64;
    assert_eq!(per_cluster, k as u64 * elem_len);
    assert!(
        per_cluster <= (n as u64) * elem_len,
        "exceeds the paper bound"
    );
    assert!(
        per_cluster < (n * size) as u64,
        "repair must beat full replication"
    );

    // And the repaired shard still serves reads of the pre-crash values.
    let gets = store.multi_get(keys.iter().cloned());
    store.run_until_quiescent();
    for get in gets {
        assert_eq!(store.poll(get).value(), Some(vec![0xAB; size].as_slice()));
    }
    store.check_per_key_atomicity().unwrap();
}
