//! A sharded, erasure-coded key-value store built from SODA registers.
//!
//! The paper's model is a single atomic object; a practical store composes one
//! register per key (atomic objects compose). The `soda-store` crate now owns
//! that composition: `ShardedStore` places a byte-string keyspace onto shards
//! by consistent hashing, backs every key with its own register cluster built
//! from the owning shard's spec, and machine-checks per-key atomicity over the
//! store-wide history. This example drives a 4-shard mixed-protocol fleet
//! (SODA, SODAerr, ABD, CASGC) through the batched ticket API.
//!
//! Run with: `cargo run --example concurrent_kv_store`

use soda_repro::soda_registry::ProtocolKind;
use soda_repro::soda_store::{StoreBuilder, TicketStatus};

fn main() {
    println!("== concurrent erasure-coded KV store (ShardedStore, mixed fleet) ==");
    let kinds = vec![
        ProtocolKind::Soda,
        ProtocolKind::SodaErr { e: 1 },
        ProtocolKind::Abd,
        ProtocolKind::Casgc { gc: 2 },
    ];
    let mut store = StoreBuilder::new(4, ProtocolKind::Soda, 7, 3)
        .with_shard_kinds(kinds.clone())
        .with_clients_per_key(2, 2)
        .with_seed(1000)
        .build()
        .expect("valid parameters");

    let keys = [
        "user:1", "user:2", "cart:1", "cart:2", "inv:1", "inv:2", "cfg", "audit",
    ];

    // Four rounds of writes against every key, with reads queued in the same
    // batch so they observe genuine write/read concurrency, then one more
    // round of reads after a drain to pick up the settled values.
    let mut gets = Vec::new();
    for round in 0..4u64 {
        store.put_batch(keys.iter().map(|key| {
            (
                key.as_bytes().to_vec(),
                format!("{key}=v{round}").into_bytes(),
            )
        }));
        gets.extend(store.multi_get(keys.iter().map(|key| key.as_bytes().to_vec())));
    }
    let outcome = store.run_until_quiescent();
    assert!(!outcome.hit_event_cap, "every shard quiesced");
    assert_eq!(
        outcome.pending_tickets, 0,
        "fault-free run serves everything"
    );

    let final_reads = store.multi_get(keys.iter().map(|key| key.as_bytes().to_vec()));
    store.run_until_quiescent();

    store
        .check_per_key_atomicity()
        .unwrap_or_else(|violation| panic!("per-key atomicity violated: {violation}"));

    for (key, &ticket) in keys.iter().zip(&final_reads) {
        let status = store.poll(ticket);
        let TicketStatus::Done(done) = &status else {
            panic!("final read of {key} left pending");
        };
        let shard = store.shard_of(key.as_bytes());
        println!(
            "key {key:>7}: shard {shard} ({}), latest = {:?}, read latency {} ticks",
            kinds[shard].name(),
            String::from_utf8_lossy(status.value().expect("written keys read back")),
            done.latency_ticks,
        );
    }

    let metrics = store.metrics();
    println!("---");
    for shard in &metrics.per_shard {
        println!(
            "shard {} ({:>7}): {} keys, {} puts, {} gets, {} messages",
            shard.shard,
            shard.protocol,
            shard.keys,
            shard.completed_puts,
            shard.completed_gets,
            shard.messages_sent
        );
    }
    println!(
        "total: {} operations across {} keys on {} shards, {} messages, every per-key history atomic",
        metrics.aggregate.completed_ops(),
        keys.len(),
        store.num_shards(),
        metrics.aggregate.messages_sent
    );
}
