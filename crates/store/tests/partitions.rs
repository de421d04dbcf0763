//! Scheduled partition windows at the store level: windows cut every
//! cross-group link of a shard's clusters and heal on schedule, repairs
//! survive partition/heal cycles (failing with a typed, retryable error when
//! the window outlives the whole retry budget), and everything stays
//! deterministic across runtimes.

use soda_registry::{BuildError, PartitionWindow, ProtocolKind};
use soda_store::{ShardedStore, StoreBuildError, StoreBuilder, StoreRuntime};

fn window(ranks: &[usize], start: u64, end: u64) -> PartitionWindow {
    PartitionWindow {
        ranks: ranks.to_vec(),
        start,
        end,
    }
}

/// The 8-shard mixed-protocol fleet with rank 4 partitioned away from every
/// other process during `[0, 200)` ticks on every shard.
fn partitioned_mixed_store(runtime: StoreRuntime, seed: u64) -> ShardedStore {
    let mut builder = StoreBuilder::new(8, ProtocolKind::Soda, 5, 2)
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
        .with_seed(seed)
        .with_runtime(runtime);
    for shard in 0..8 {
        builder = builder.with_shard_partition(shard, &window(&[4], 0, 200));
    }
    builder.build().unwrap()
}

/// Operations racing a partition window complete through the reachable
/// majority side (isolating 1 ≤ f ranks leaves the `n − f` quorum intact),
/// the cuts are counted separately from probabilistic loss, and per-key
/// atomicity holds through the heal. Each round quiesces between puts and
/// gets so the gets observe the round's value; simulated time advances with
/// the traffic, so early rounds run inside the window and late rounds past
/// the heal at tick 200 with all five servers participating again.
fn drive_partitioned_round_trip(runtime: StoreRuntime, seed: u64) -> ShardedStore {
    let mut store = partitioned_mixed_store(runtime, seed);
    // Pick keys so every shard (hence every protocol) holds exactly two —
    // consistent hashing alone can leave a shard empty.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut placed = vec![0usize; store.num_shards()];
    for i in 0.. {
        if placed.iter().all(|&c| c >= 2) {
            break;
        }
        let key = format!("pw/{i}").into_bytes();
        let shard = store.shard_of(&key);
        if placed[shard] < 2 {
            placed[shard] += 1;
            keys.push(key);
        }
    }
    for round in 0..4 {
        let value = format!("round-{round}").into_bytes();
        store.put_batch(keys.iter().map(|k| (k.clone(), value.clone())));
        let outcome = store.run_until_quiescent();
        assert!(!outcome.hit_event_cap);
        assert_eq!(
            outcome.pending_tickets, 0,
            "a ≤ f partition must not starve operations (round {round})"
        );
        let gets = store.multi_get(keys.iter().cloned());
        store.run_until_quiescent();
        for get in gets {
            assert_eq!(store.poll(get).value(), Some(value.as_slice()));
        }
    }
    store
}

#[test]
fn partition_window_heals_and_the_store_stays_atomic() {
    let store = drive_partitioned_round_trip(StoreRuntime::Simulation, 17);
    store.check_per_key_atomicity().unwrap();

    let m = store.metrics();
    assert!(
        m.aggregate.messages_partitioned > 0,
        "round 1 must have hit the window"
    );
    assert_eq!(
        m.aggregate.messages_lost, 0,
        "partition cuts are deterministic, not probabilistic loss"
    );
    for shard in &m.per_shard {
        assert!(
            shard.messages_partitioned > 0,
            "shard {} ({}) never hit its window",
            shard.shard,
            shard.protocol
        );
    }
}

#[test]
fn partitioned_store_is_bit_identical_across_runtimes() {
    let mut results = Vec::new();
    for runtime in [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 4 },
    ] {
        let store = drive_partitioned_round_trip(runtime, 23);
        store.check_per_key_atomicity().unwrap();
        let m = store.metrics();
        results.push((
            m.aggregate.messages_sent,
            m.aggregate.messages_partitioned,
            m.aggregate.data_bytes_sent,
            m.aggregate.completed_puts,
            m.aggregate.completed_gets,
            m.aggregate.put_latency.mean().to_bits(),
            m.aggregate.get_latency.mean().to_bits(),
            store.total_simulated_ticks(),
        ));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

/// The crash → partition → heal → repair cycle: a repair scheduled while the
/// replacement is cut off from every survivor exhausts its retry budget and
/// fails with the typed, retryable error — the rank returns to the crash
/// budget as plain dead — and a *second* repair attempt, whose retries
/// straddle the heal, succeeds.
#[test]
fn repair_behind_a_partition_fails_retryably_then_succeeds_after_heal() {
    // Rank 0 is unreachable from everyone during [0, 4000): long enough to
    // outlive the first repair's whole retry budget (8 attempts spanning
    // 2800 ticks), short enough that the second repair's retries cross it.
    let mut store = StoreBuilder::new(1, ProtocolKind::Soda, 5, 2)
        .with_seed(9)
        .with_shard_partition(0, &window(&[0], 0, 4000))
        .build()
        .unwrap();
    store.put(b"k".to_vec(), b"survives-partitions".to_vec());
    store.run_until_quiescent();

    // Crash the isolated rank and try to repair it mid-window: the
    // replacement's survivor fan-outs are all cut, every retry included.
    store.crash_shard_server(0, 0).unwrap();
    store.repair_shard_server(0, 0).unwrap();
    assert_eq!(store.shard_dead_or_repairing(0).unwrap(), 1);
    store.run_until_quiescent();

    // The repair gave up: the rank is plain dead again (still holding its
    // crash-budget slot), and the give-up is visible in the metrics.
    assert_eq!(store.shard_downed_servers(0).unwrap(), vec![0]);
    assert_eq!(store.shard_dead_or_repairing(0).unwrap(), 1);
    let m = store.metrics();
    assert_eq!(m.aggregate.repairs_failed, 1);
    assert_eq!(m.aggregate.repairs_completed, 0);

    // Retry. The replacement starts inside the window but its retry cadence
    // reaches past the heal at tick 4000, where survivors answer.
    store.repair_shard_server(0, 0).unwrap();
    store.run_until_quiescent();
    assert_eq!(store.shard_dead_or_repairing(0).unwrap(), 0);
    let m = store.metrics();
    assert_eq!(m.aggregate.repairs_completed, 1);
    assert_eq!(
        m.aggregate.repairs_failed, 0,
        "the retry replaced the failure"
    );
    assert!(m.aggregate.repair_traffic_bytes > 0);

    // The repaired shard serves the pre-partition value and stays atomic.
    let get = store.get(b"k".to_vec());
    store.run_until_quiescent();
    assert_eq!(
        store.poll(get).value(),
        Some(b"survives-partitions".as_slice())
    );
    store.check_per_key_atomicity().unwrap();
}

#[test]
fn malformed_partitions_are_rejected_at_build() {
    let err = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
        .with_shard_partition(1, &window(&[6], 0, 100))
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            StoreBuildError::Shard {
                shard: 1,
                source: BuildError::PartitionRankOutOfRange { rank: 6, n: 5 }
            }
        ),
        "{err}"
    );

    let err = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
        .with_shard_partition(0, &window(&[1], 200, 200))
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            StoreBuildError::Shard {
                shard: 0,
                source: BuildError::PartitionEmptyWindow { .. }
            }
        ),
        "{err}"
    );

    let err = StoreBuilder::new(2, ProtocolKind::Soda, 5, 2)
        .with_shard_partition(9, &window(&[1], 0, 100))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, StoreBuildError::ShardOutOfRange { shard: 9, .. }),
        "{err}"
    );
}
