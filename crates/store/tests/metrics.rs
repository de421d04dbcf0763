//! `ShardedStore::metrics()` reads counters bumped as tickets settle. These
//! tests pin the counters to the thing they replaced — a recomputation from
//! the full operation history — under every runtime, with repairs in the
//! history and a wedged shard holding pending tickets.

use soda_consistency::Kind;
use soda_registry::ProtocolKind;
use soda_store::{LatencyHistogram, ShardedStore, StoreBuilder, StoreMetrics, StoreRuntime};

/// What `metrics()` must report per shard, recomputed from `keyed_history()`
/// and the test's own count of the tickets it issued.
#[derive(Debug, Default, PartialEq)]
struct Recomputed {
    puts: u64,
    gets: u64,
    put_latency: LatencyHistogram,
    get_latency: LatencyHistogram,
    pending: u64,
}

fn recompute(store: &ShardedStore, issued: &[u64]) -> Vec<Recomputed> {
    let mut shards: Vec<Recomputed> = issued
        .iter()
        .map(|&pending| Recomputed {
            pending,
            ..Recomputed::default()
        })
        .collect();
    for op in store.keyed_history().ops() {
        if op.responded == u64::MAX {
            continue; // a pending write the history was closed under
        }
        let shard = &mut shards[store.shard_of(&op.key)];
        shard.pending -= 1;
        let latency = op.responded - op.invoked;
        match op.kind {
            Kind::Write => {
                shard.puts += 1;
                shard.put_latency.record(latency);
            }
            Kind::Read => {
                shard.gets += 1;
                shard.get_latency.record(latency);
            }
        }
    }
    shards
}

fn reported(metrics: &StoreMetrics) -> Vec<Recomputed> {
    metrics
        .per_shard
        .iter()
        .map(|m| Recomputed {
            puts: m.completed_puts,
            gets: m.completed_gets,
            put_latency: m.put_latency.clone(),
            get_latency: m.get_latency.clone(),
            pending: m.pending_tickets,
        })
        .collect()
}

/// Six shards: all five protocols, plus a second SODA shard that is wedged
/// (three of five servers crashed) half-way through.
fn drive(runtime: StoreRuntime) -> (ShardedStore, Vec<u64>) {
    const WEDGED: usize = 5;
    let mut store = StoreBuilder::new(6, ProtocolKind::Soda, 5, 2)
        .with_shard_kinds(vec![
            ProtocolKind::Soda,
            ProtocolKind::SodaErr { e: 1 },
            ProtocolKind::Abd,
            ProtocolKind::Cas,
            ProtocolKind::Casgc { gc: 2 },
            ProtocolKind::Soda,
        ])
        .with_clients_per_key(2, 2)
        .with_seed(29)
        .with_runtime(runtime)
        .build()
        .unwrap();
    // Three keys on every shard.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut placed = vec![0usize; store.num_shards()];
    for i in 0.. {
        if placed.iter().all(|&c| c == 3) {
            break;
        }
        let key = format!("m/{i}").into_bytes();
        let shard = store.shard_of(&key);
        if placed[shard] < 3 {
            placed[shard] += 1;
            keys.push(key);
        }
    }
    let mut issued = vec![0u64; store.num_shards()];
    let round = |store: &mut ShardedStore, label: &str, issued: &mut Vec<u64>| {
        for key in &keys {
            let shard = store.shard_of(key);
            // A put and two gets per key, concurrent on the key's cluster.
            store.put(key.clone(), format!("{label}/{shard}").into_bytes());
            store.get(key.clone());
            store.get(key.clone());
            issued[shard] += 3;
        }
    };

    round(&mut store, "populate", &mut issued);
    store.run_until_quiescent();
    assert_eq!(reported(&store.metrics()), recompute(&store, &issued));

    for shard in 0..WEDGED {
        store.crash_shard_server(shard, 1).unwrap();
    }
    round(&mut store, "degraded", &mut issued);
    // Issued, not yet driven: nothing may have moved but the pending count.
    let before = store.metrics();
    assert_eq!(before, store.metrics(), "two calls in a row agree");
    assert_eq!(reported(&before), recompute(&store, &issued));
    store.run_until_quiescent();

    store.crash_shard_servers_unchecked(WEDGED, 3).unwrap();
    round(&mut store, "repairing", &mut issued);
    for shard in 0..WEDGED {
        store.repair_shard_server(shard, 1).unwrap();
    }
    let outcome = store.run_until_quiescent();
    assert!(!outcome.hit_event_cap);
    assert_eq!(outcome.pending_tickets, 9, "the wedged shard's last round");
    (store, issued)
}

#[test]
fn settlement_counters_equal_a_recomputation_from_the_history_under_every_runtime() {
    let mut across_runtimes = Vec::new();
    for runtime in [
        StoreRuntime::Simulation,
        StoreRuntime::Threaded,
        StoreRuntime::WorkStealing { workers: 3 },
    ] {
        let (mut store, issued) = drive(runtime);
        let metrics = store.metrics();
        assert_eq!(metrics, store.metrics(), "{runtime:?}: two calls agree");
        assert_eq!(
            reported(&metrics),
            recompute(&store, &issued),
            "{runtime:?}"
        );
        assert_eq!(metrics.per_shard[5].pending_tickets, 9, "{runtime:?}");
        assert_eq!(metrics.aggregate.pending_tickets, 9, "{runtime:?}");
        assert!(metrics.aggregate.repairs_completed > 0, "{runtime:?}");
        assert_eq!(
            metrics.aggregate.completed_ops(),
            issued.iter().sum::<u64>() - 9,
            "{runtime:?}"
        );
        // A drain with nothing to do changes nothing.
        store.run_until_quiescent();
        assert_eq!(metrics, store.metrics(), "{runtime:?}: idle drain");
        across_runtimes.push(metrics);
    }
    assert_eq!(across_runtimes[0], across_runtimes[1]);
    assert_eq!(across_runtimes[0], across_runtimes[2]);
}
