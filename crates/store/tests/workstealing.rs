//! Runtime-conformance suite for the work-stealing pool: the scheduling
//! backend must be invisible in every observable outcome. The acceptance
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
        // An explicit worker count keeps the pool machinery (deques,
        // stealing, cluster ownership transfer) exercised even when the
        // test host has a single hardware thread.
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

    // The scheduling counters, by contrast, tell the three backends apart:
    // no pool under Simulation, a live one under the parallel runtimes.
    assert!(stores[0].pool_metrics().is_none());
    assert_eq!(stores[0].pool_workers(), 1);
    let ws = stores[2]
        .pool_metrics()
        .expect("WorkStealing with explicit workers always builds a pool");
    assert_eq!(ws.workers, 4);
    assert_eq!(stores[2].pool_workers(), 4);
    assert!(
        ws.tasks_executed > 0,
        "the pool must have run the cluster tasks"
    );
}

#[test]
fn a_single_hot_shard_fans_out_one_task_per_key_cluster() {
    // Every pool runtime schedules one task per key cluster per drain, so
    // even a 1-shard store spreads its hot keys over every worker.
    // `Threaded` is the automatic-worker pool under another name.
    let keys: Vec<Vec<u8>> = (0..48).map(|i| format!("hot/{i}").into_bytes()).collect();

    let mut results = Vec::new();
    let mut pool_tasks = Vec::new();
    let mut pool_workers = Vec::new();
    for runtime in [
        StoreRuntime::Simulation,
        StoreRuntime::WorkStealing { workers: 3 },
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 0 },
    ] {
        let mut store = StoreBuilder::new(1, ProtocolKind::Soda, 5, 2)
            .with_seed(7)
            .with_runtime(runtime)
            .build()
            .unwrap();
        for round in 0..2 {
            store.put_batch(
                keys.iter()
                    .map(|k| (k.clone(), format!("v{round}").into_bytes())),
            );
            store.multi_get(keys.iter().cloned());
            store.run_until_quiescent();
        }
        store.check_per_key_atomicity().unwrap();
        results.push(store.keyed_history());
        pool_tasks.push(store.pool_metrics().map_or(0, |m| m.tasks_executed));
        pool_workers.push(store.pool_workers());
    }

    for history in &results[1..] {
        assert_eq!(&results[0], history);
    }
    // Each of the two drains dispatches every active cluster as its own
    // task, so the counter must reach well past the key count.
    assert!(
        pool_tasks[1] >= keys.len() as u64,
        "expected at least {} cluster tasks, saw {}",
        keys.len(),
        pool_tasks[1]
    );
    // `Threaded` sizes its pool like `workers: 0` and, wherever that is a
    // pool (more than one hardware thread), runs the same per-cluster tasks.
    assert_eq!(pool_workers[2], pool_workers[3]);
    if pool_workers[2] > 1 {
        assert!(
            pool_tasks[2] >= keys.len() as u64,
            "expected at least {} cluster tasks under Threaded, saw {}",
            keys.len(),
            pool_tasks[2]
        );
    }
}
