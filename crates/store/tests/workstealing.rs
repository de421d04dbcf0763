//! Runtime-conformance suite for parallel drains (threads claiming key
//! clusters from one shared cursor): how many threads drain the store must
//! be invisible in every observable outcome. The acceptance
//! scenario is an 8-shard mixed-protocol store under adversarial network
//! faults with crash → repair chains running *while* writes are in flight —
//! the full fault surface — and the assertion is not a digest but the whole
//! per-key history, op for op, across all three runtimes.

use soda_registry::ProtocolKind;
use soda_simnet::{DelayModel, LinkFaults, NetFaultPlan};
use soda_store::{ShardedStore, StoreBuilder, StoreRuntime};

fn adversary() -> NetFaultPlan {
    NetFaultPlan::none().with_default(LinkFaults {
        drop_p: 0.06,
        duplicate_p: 0.1,
        extra_delay: Some(DelayModel::Uniform { min: 1, max: 20 }),
        reorder_p: 0.15,
        reorder_window: 32,
    })
}

/// Build the 8-shard mixed-protocol store, then drive three write/read
/// rounds interleaved with a crash → repair chain on every shard.
fn drive_chaos(runtime: StoreRuntime, seed: u64) -> ShardedStore {
    let mut store = StoreBuilder::new(8, ProtocolKind::Soda, 5, 2)
        .with_shard_kinds(vec![
            ProtocolKind::Soda,
            ProtocolKind::SodaErr { e: 1 },
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
        .unwrap();

    let keys: Vec<Vec<u8>> = (0..32).map(|i| format!("ws/{i}").into_bytes()).collect();

    // Round 1: populate every key, fault-free apart from the adversary.
    store.put_batch(keys.iter().map(|k| (k.clone(), b"one".to_vec())));
    store.run_until_quiescent();

    // Crash rank 0 on every shard, keep serving degraded.
    for shard in 0..store.num_shards() {
        store.crash_shard_server(shard, 0).unwrap();
    }
    store.put_batch(keys.iter().map(|k| (k.clone(), b"two".to_vec())));
    store.multi_get(keys.iter().cloned());
    store.run_until_quiescent();

    // Repair every crashed rank while round-three writes race the repairs.
    store.put_batch(keys.iter().map(|k| (k.clone(), b"three".to_vec())));
    for shard in 0..store.num_shards() {
        store.repair_shard_server(shard, 0).unwrap();
    }
    store.multi_get(keys.iter().cloned());
    let outcome = store.run_until_quiescent();
    assert!(!outcome.hit_event_cap);
    store
}

#[test]
fn chaos_histories_and_metrics_are_bit_identical_across_all_runtimes() {
    let runtimes = [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        // An explicit worker count keeps parallel drains (several threads
        // claiming clusters from one cursor) exercised even when the test
        // host has a single hardware thread.
        StoreRuntime::WorkStealing { workers: 4 },
    ];
    let stores: Vec<ShardedStore> = runtimes
        .iter()
        .map(|&runtime| {
            let store = drive_chaos(runtime, 11);
            store.check_per_key_atomicity().unwrap();
            store
        })
        .collect();

    // The entire per-key history — every op's key, kind, value, tag and
    // interval — must be bit-identical, not merely digest-equal.
    let baseline_history = stores[0].keyed_history();
    assert!(!baseline_history.ops().is_empty());
    for store in &stores[1..] {
        assert_eq!(baseline_history, store.keyed_history());
    }

    // Per-shard operation counts and cost metrics must agree too: the
    // runtime may only change wall-clock, never who did what.
    let baseline = stores[0].metrics();
    for store in &stores[1..] {
        let m = store.metrics();
        for (a, b) in baseline.per_shard.iter().zip(&m.per_shard) {
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.completed_puts, b.completed_puts, "shard {}", a.shard);
            assert_eq!(a.completed_gets, b.completed_gets, "shard {}", a.shard);
            assert_eq!(a.pending_tickets, b.pending_tickets, "shard {}", a.shard);
            assert_eq!(a.messages_sent, b.messages_sent, "shard {}", a.shard);
            assert_eq!(a.data_bytes_sent, b.data_bytes_sent, "shard {}", a.shard);
            assert_eq!(
                a.repairs_completed, b.repairs_completed,
                "shard {}",
                a.shard
            );
            assert_eq!(
                a.repair_traffic_bytes, b.repair_traffic_bytes,
                "shard {}",
                a.shard
            );
        }
        assert_eq!(
            baseline.aggregate.completed_ops(),
            m.aggregate.completed_ops()
        );
    }

    // The scheduling counters, by contrast, tell the backends apart: none
    // under Simulation, live ones under the parallel runtimes. All 32 keys
    // exist from the first of the three drains, and each drain runs each
    // cluster once.
    assert!(stores[0].pool_metrics().is_none());
    assert_eq!(stores[0].pool_workers(), 1);
    let ws = stores[2]
        .pool_metrics()
        .expect("an explicit worker count above one always drains in parallel");
    assert_eq!(ws.workers, 4);
    assert_eq!(stores[2].pool_workers(), 4);
    assert_eq!(ws.tasks_executed, 3 * 32);
    assert_eq!(ws.steals, 0);
}

/// A 1-shard SODA store driven through two put + multi-get rounds over
/// `keys` keys. Also returns the clusters the drains had to run: the sum,
/// over drains, of the clusters that existed at each.
fn drive_hot_shard(runtime: StoreRuntime, keys: usize) -> (ShardedStore, u64) {
    let keys: Vec<Vec<u8>> = (0..keys).map(|i| format!("hot/{i}").into_bytes()).collect();
    let mut store = StoreBuilder::new(1, ProtocolKind::Soda, 5, 2)
        .with_seed(7)
        .with_runtime(runtime)
        .build()
        .unwrap();
    let mut clusters = 0;
    for round in 0..2 {
        store.put_batch(
            keys.iter()
                .map(|k| (k.clone(), format!("v{round}").into_bytes())),
        );
        store.multi_get(keys.iter().cloned());
        clusters += store.keys_per_shard().iter().sum::<usize>() as u64;
        let outcome = store.run_until_quiescent();
        assert_eq!(outcome.pending_tickets, 0);
    }
    store.check_per_key_atomicity().unwrap();
    (store, clusters)
}

#[test]
fn a_single_hot_shard_fans_out_one_task_per_key_cluster() {
    // Every parallel runtime runs each key cluster once per drain, so even a
    // 1-shard store spreads its hot keys over every thread. `Threaded` is
    // the automatic worker count under another name. Three keys under eight
    // threads, and no key at all, leave threads that find the cursor empty
    // and return at once.
    let runtimes = [
        StoreRuntime::Simulation,
        StoreRuntime::WorkStealing { workers: 3 },
        StoreRuntime::WorkStealing { workers: 8 },
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 0 },
        StoreRuntime::WorkStealing { workers: 1 },
    ];
    for keys in [48, 3, 0] {
        let runs: Vec<(ShardedStore, u64)> = runtimes
            .iter()
            .map(|&runtime| drive_hot_shard(runtime, keys))
            .collect();
        let (serial, clusters) = &runs[0];
        assert_eq!(*clusters, 2 * keys as u64);
        assert_eq!(serial.keyed_history().len(), 4 * keys);
        for (store, _) in &runs[1..] {
            assert_eq!(serial.keyed_history(), store.keyed_history(), "{keys} keys");
        }

        for (store, workers) in [(&runs[1].0, 3), (&runs[2].0, 8)] {
            let metrics = store.pool_metrics().expect("explicit workers drain");
            assert_eq!(
                (metrics.workers, metrics.tasks_executed, metrics.steals),
                (workers, *clusters, 0),
                "{keys} keys: every cluster runs once per drain, and one \
                 shared cursor leaves nothing to steal"
            );
        }

        // `Threaded` sizes its drains like `workers: 0` and, wherever that
        // is more than one thread, runs the same clusters.
        let (threaded, auto) = (&runs[3].0, &runs[4].0);
        assert_eq!(threaded.pool_workers(), auto.pool_workers());
        if let Some(metrics) = threaded.pool_metrics() {
            assert_eq!(metrics.tasks_executed, *clusters);
        }

        // One explicit worker is the calling thread alone, like Simulation.
        let one = &runs[5].0;
        assert_eq!(one.pool_metrics(), None);
        assert_eq!(one.pool_workers(), 1);
    }
}

#[test]
fn a_parallel_drain_runs_every_key_cluster_exactly_once() {
    // 64 keys over 2 shards, one put each, drained by 3 threads: every
    // cluster is claimed once, so the drain counts 64 clusters and every
    // ticket completes with its own key's value.
    let mut store = StoreBuilder::new(2, ProtocolKind::Abd, 3, 1)
        .with_seed(5)
        .with_runtime(StoreRuntime::WorkStealing { workers: 3 })
        .build()
        .unwrap();
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("once/{i}").into_bytes()).collect();
    let tickets = store.put_batch(keys.iter().map(|k| (k.clone(), k.clone())));
    let outcome = store.run_until_quiescent();
    assert_eq!(outcome.pending_tickets, 0);

    for (key, ticket) in keys.iter().zip(tickets) {
        let op = store.outcome(ticket).expect("every put completes");
        assert_eq!(&*op.key, key.as_slice());
        assert_eq!(op.value.as_deref(), Some(key.as_slice()));
    }
    assert_eq!(store.keyed_history().len(), 64);
    let metrics = store
        .pool_metrics()
        .expect("three workers drain in parallel");
    assert_eq!((metrics.workers, metrics.tasks_executed), (3, 64));
}

#[test]
fn a_drain_of_an_empty_store_returns_at_once() {
    // With no key there is no cluster to claim: every thread finds the
    // cursor empty, and repeated drains run nothing.
    let mut store = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
        .with_runtime(StoreRuntime::WorkStealing { workers: 2 })
        .build()
        .unwrap();
    for _ in 0..2 {
        let outcome = store.run_until_quiescent();
        assert_eq!((outcome.completed_tickets, outcome.pending_tickets), (0, 0));
        assert!(!outcome.hit_event_cap);
    }
    assert_eq!(store.pool_metrics().map(|m| m.tasks_executed), Some(0));
}
