//! SODA / SODAerr behaviour through the facade: cluster-level tests driven
//! via `ClusterBuilder` (storage, liveness, cleanup, and repair down to the
//! re-encoded coded element), plus randomized workload-shape executions (the
//! former property-based suite, rewritten over the seeded `SimRng`).

use soda::Phase;
use soda_protocol::{MdsCode, Value};
use soda_registry::{ClusterBuilder, OpKind, ProtocolKind, RegisterCluster};
use soda_simnet::rng::SimRng;
use soda_simnet::{NetworkConfig, SimTime};

fn soda(n: usize, f: usize) -> ClusterBuilder {
    ClusterBuilder::new(ProtocolKind::Soda, n, f)
}

fn t(ticks: u64) -> SimTime {
    SimTime::from_ticks(ticks)
}

#[test]
fn single_write_then_read_round_trips() {
    let mut cluster = soda(5, 2).with_seed(3).build_soda().unwrap();
    cluster.invoke_write(0, b"abc".to_vec());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 2);
    assert!(ops[0].kind.is_write());
    assert!(ops[1].kind.is_read());
    assert_eq!(ops[1].value.as_deref(), Some(b"abc".as_slice()));
    assert_eq!(ops[1].tag, ops[0].tag);
    // All servers eventually store the written tag (uniformity).
    for rank in 0..5 {
        assert_eq!(cluster.stored_tag(rank), ops[0].tag);
    }
    // No reader remains registered anywhere after quiescence.
    assert_eq!(cluster.total_registered_readers(), 0);
}

#[test]
fn storage_cost_matches_n_over_n_minus_f() {
    let value = vec![7u8; 6000];
    let mut cluster = soda(6, 2).with_seed(1).build().unwrap();
    cluster.invoke_write(0, value.clone());
    cluster.run_to_quiescence();
    let stored = cluster.total_stored_bytes() as f64 / value.len() as f64;
    let expected = 6.0 / 4.0;
    // Chunking overhead (length header + padding) is a few bytes per
    // element, so allow a small tolerance.
    assert!(
        (stored - expected).abs() < 0.05,
        "normalized storage {stored:.3} vs expected {expected:.3}"
    );
}

#[test]
fn operations_complete_despite_f_crashes() {
    let mut cluster = soda(5, 2).with_seed(9).build().unwrap();
    // Crash two servers right away.
    cluster.crash_server_at(SimTime::ZERO, 1);
    cluster.crash_server_at(SimTime::ZERO, 3);
    cluster.invoke_write(0, b"resilient".to_vec());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 2, "write and read must both complete");
    assert_eq!(ops[1].value.as_deref(), Some(b"resilient".as_slice()));
}

#[test]
fn sodaerr_cluster_reads_correctly_with_a_byzantine_server() {
    let mut cluster = ClusterBuilder::new(ProtocolKind::SodaErr { e: 1 }, 7, 2)
        .with_seed(5)
        .with_byzantine_servers(vec![2])
        .build_soda()
        .unwrap();
    cluster.invoke_write(0, b"error protected".to_vec());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    let read = ops
        .iter()
        .find(|o| o.kind.is_read())
        .expect("read completed");
    assert_eq!(read.value.as_deref(), Some(b"error protected".as_slice()));
    assert_eq!(cluster.decode_failures(), 0);
}

/// A SODAerr read that Berlekamp–Welch corrects around an in-budget
/// byzantine rank decodes its own copy of the write's bytes; once the run
/// ends it holds the write's buffer instead.
#[test]
fn a_corrected_sodaerr_read_holds_its_writes_buffer() {
    let mut cluster = ClusterBuilder::new(ProtocolKind::SodaErr { e: 1 }, 7, 2)
        .with_seed(5)
        .with_byzantine_servers(vec![2])
        .build_soda()
        .unwrap();
    // With two ranks down, rank 2's corrupted element is one of the
    // k + 2e = 5 the read decodes from.
    cluster.crash_server_at(SimTime::ZERO, 0);
    cluster.crash_server_at(SimTime::ZERO, 1);
    let value: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
    cluster.invoke_write(0, value.clone());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    let (write, read) = (&ops[0], &ops[1]);
    assert!(write.kind.is_write() && read.kind.is_read());
    assert_eq!(read.tag, write.tag);
    let (written, returned) = (write.value.as_ref().unwrap(), read.value.as_ref().unwrap());
    assert_eq!(returned.as_slice(), &value[..]);
    assert!(Value::ptr_eq(written, returned), "the read keeps a copy");
    assert!(cluster.stats().messages_corrupted > 0);
    assert_eq!(cluster.decode_failures(), 0);
}

#[test]
fn concurrent_writers_and_readers_all_terminate() {
    let mut cluster = soda(5, 2)
        .with_seed(42)
        .with_clients(2, 2)
        .build_soda()
        .unwrap();
    for writer in 0..2usize {
        for round in 0..3u64 {
            cluster.invoke_write_at(
                SimTime::from_ticks(round * 7),
                writer,
                format!("writer {writer} round {round}").into_bytes(),
            );
        }
    }
    for reader in 0..2usize {
        for round in 0..3u64 {
            cluster.invoke_read_at(SimTime::from_ticks(3 + round * 9), reader);
        }
    }
    let outcome = cluster.run_to_quiescence();
    assert!(!outcome.hit_event_cap, "protocol must quiesce");
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 2 * 3 + 2 * 3);
    assert_eq!(cluster.total_registered_readers(), 0);
}

#[test]
fn quiescent_servers_keep_no_history_and_one_tombstone_run_per_origin() {
    // 2 000 fault-free operations from two writers and two readers, queued
    // up front so reads and writes overlap, on SODA and on SODAerr.
    for kind in [ProtocolKind::Soda, ProtocolKind::SodaErr { e: 1 }] {
        let n = if kind == ProtocolKind::Soda { 5 } else { 7 };
        let mut cluster = ClusterBuilder::new(kind, n, 2)
            .with_seed(17)
            .with_clients(2, 2)
            .build_soda()
            .unwrap();
        for i in 0..500u32 {
            for client in 0..2 {
                cluster.invoke_write(client, i.to_le_bytes().to_vec());
                cluster.invoke_read(client);
            }
        }
        let outcome = cluster.run_to_quiescence();
        assert!(!outcome.hit_event_cap);
        assert_eq!(cluster.completed_ops().len(), 2_000);
        assert_eq!(cluster.total_registered_readers(), 0);
        assert_eq!(cluster.total_history_entries(), 0, "{}", kind.name());
        for rank in 0..n {
            for tombstones in cluster.server_state(rank).md_tombstone_sets() {
                assert!(!tombstones.is_empty());
                assert_eq!(
                    tombstones.runs(),
                    tombstones.origins(),
                    "{} rank {rank}: more than one run for an origin",
                    kind.name()
                );
            }
        }
    }
}

/// One randomized workload shape: delays, operation mix, timing and crash
/// schedule all drawn from a seeded generator (formerly a proptest strategy).
fn run_random_shape(seed: u64) {
    let mut rng = SimRng::new(seed);
    let n = 7usize;
    let f = 2usize;
    let delay = rng.gen_range(1u64..25);
    let mut cluster = soda(n, f)
        .with_seed(rng.gen::<u64>())
        .with_clients(2, 2)
        .with_network(NetworkConfig::uniform(delay))
        .build_soda()
        .unwrap();
    // At most f distinct servers crash.
    let mut crashed = std::collections::BTreeSet::new();
    for _ in 0..rng.gen_range(0usize..3) {
        let rank = rng.gen_range(0usize..n);
        if crashed.len() < f && crashed.insert(rank) {
            cluster.crash_server_at(SimTime::from_ticks(rng.gen_range(0u64..150)), rank);
        }
    }
    let num_writes = rng.gen_range(1usize..6);
    for i in 0..num_writes {
        let writer = rng.gen_range(0usize..2);
        cluster.invoke_write_at(
            SimTime::from_ticks(rng.gen_range(0u64..200)),
            writer,
            format!("prop-{i}").into_bytes(),
        );
    }
    let num_reads = rng.gen_range(1usize..6);
    for _ in 0..num_reads {
        let reader = rng.gen_range(0usize..2);
        cluster.invoke_read_at(SimTime::from_ticks(rng.gen_range(0u64..200)), reader);
    }

    let outcome = cluster.run_to_quiescence();
    assert!(
        !outcome.hit_event_cap,
        "seed {seed}: execution must quiesce"
    );

    // Liveness: every invoked operation completes (clients never crash in
    // this test and at most f servers do).
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), num_writes + num_reads, "seed {seed}");

    // Atomicity of the history under the tag order.
    assert!(
        cluster.history(&[]).check_atomicity().is_ok(),
        "seed {seed}"
    );

    // Storage invariant: every live server stores exactly one coded element,
    // whose tag is one of the completed writes' tags (or the initial tag).
    let write_tags: std::collections::BTreeSet<_> = ops
        .iter()
        .filter(|o| o.kind.is_write())
        .map(|o| o.tag)
        .collect();
    for rank in 0..n {
        if crashed.contains(&rank) {
            continue;
        }
        let tag = cluster.stored_tag(rank);
        assert!(
            tag.is_initial() || write_tags.contains(&tag),
            "seed {seed}: server {rank} stores an unknown tag {tag:?}"
        );
    }

    // Cleanup: no *non-faulty* server keeps a reader registered once
    // everything quiesced (crashed servers may die holding a registration;
    // Theorem 5.5 only speaks about non-faulty servers).
    let live_registered: usize = (0..n)
        .filter(|rank| !crashed.contains(rank))
        .map(|rank| cluster.registered_readers(rank))
        .sum();
    assert_eq!(live_registered, 0, "seed {seed}");
}

#[test]
fn every_generated_execution_terminates_and_is_atomic() {
    for seed in 0..48 {
        run_random_shape(seed);
    }
}

#[test]
fn quiescent_servers_converge_when_no_reads_run() {
    // With only writes, MD-VALUE uniformity forces every non-faulty server
    // to end up with the same (highest) tag.
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let delay = rng.gen_range(1u64..20);
        let num_writes = rng.gen_range(1usize..5);
        let mut cluster = soda(5, 2)
            .with_seed(rng.gen::<u64>())
            .with_network(NetworkConfig::uniform(delay))
            .build_soda()
            .unwrap();
        for i in 0..num_writes {
            cluster.invoke_write(0, vec![i as u8; 64]);
        }
        cluster.run_to_quiescence();
        let tags: Vec<_> = (0..5).map(|r| cluster.stored_tag(r)).collect();
        assert!(
            tags.windows(2).all(|p| p[0] == p[1]),
            "seed {seed}: tags diverge: {tags:?}"
        );
        let ops = cluster.completed_ops();
        assert_eq!(ops.len(), num_writes, "seed {seed}");
        assert_eq!(tags[0], ops.last().unwrap().tag, "seed {seed}");
    }
}

#[test]
fn crash_then_repair_restores_the_coded_element() {
    let mut cluster = soda(5, 2)
        .with_seed(7)
        .with_initial_value(b"v0".to_vec())
        .build_soda()
        .unwrap();
    let value = b"the written value, long enough to split".to_vec();
    cluster.invoke_write_at(t(10), 0, value.clone());
    cluster.run_until(t(500));
    assert_eq!(cluster.completed_ops().len(), 1, "write completed");
    let healthy_element = cluster.server_state(1).stored_element().clone();
    let healthy_tag = cluster.stored_tag(1);
    // [5, 3]: rank 1's data shard is value bytes 8..24, so the write left
    // its element in the value's buffer.
    assert!(healthy_element.data.is_view());

    cluster.crash_server_at(t(600), 1);
    cluster.run_until(t(700));
    assert_eq!(cluster.dead_or_repairing(), 1);

    cluster.repair_server_at(t(800), 1);
    cluster.run_to_quiescence();
    let repaired = cluster.server_state(1);
    assert!(!repaired.is_repairing());
    assert_eq!(repaired.stored_tag(), healthy_tag);
    assert_eq!(repaired.stored_element().data, healthy_element.data);
    // The re-encoded element owns a buffer of its own size: a view would pin
    // the whole decoded value, which nothing else holds.
    assert!(!repaired.stored_element().data.is_view());
    assert_eq!(cluster.dead_or_repairing(), 0);

    // Repair bandwidth: read-value's quorum of coded elements, well under the
    // n·(size/k)+metadata acceptance bound.
    let report = cluster.repair_report(1).expect("was repaired");
    let elem_len = repaired.stored_bytes() as u64;
    let deployment = cluster.deployment();
    assert_eq!(
        report.traffic_bytes,
        deployment.quorum(Phase::ReadValue) as u64 * elem_len
    );
    assert!(report.traffic_bytes <= deployment.layout().n() as u64 * elem_len);
    assert_eq!(cluster.repair_traffic_bytes(), report.traffic_bytes);

    // A read after the repair still returns the written value.
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    let read = ops.iter().find(|op| op.kind == OpKind::Read).unwrap();
    assert_eq!(read.value.as_deref(), Some(&value[..]));
}

#[test]
fn repair_during_inflight_write_reaches_the_replacement() {
    let mut cluster = soda(5, 2)
        .with_seed(11)
        .with_initial_value(b"v0".to_vec())
        .build_soda()
        .unwrap();
    cluster.crash_server_at(t(5), 0);
    // The write starts while rank 0 is down and its replacement repairs
    // concurrently: the md-value relay must still deliver the new
    // element to the replacement.
    cluster.invoke_write_at(t(10), 0, b"concurrent write".to_vec());
    cluster.repair_server_at(t(12), 0);
    cluster.run_to_quiescence();
    assert_eq!(cluster.completed_ops().len(), 1, "write completed");
    let repaired = cluster.server_state(0);
    assert!(!repaired.is_repairing());
    assert_eq!(repaired.stored_tag(), cluster.stored_tag(1));
    assert_eq!(
        repaired.stored_element().data,
        cluster
            .deployment()
            .code()
            .encode_one(b"concurrent write", 0)
            .unwrap()
            .data
    );
}

#[test]
fn a_byzantine_rank_corrupting_views_leaves_the_written_value_intact() {
    // [7, 3] SODAerr with e = 1: a 100 B value has 36 B shards, and rank 1's
    // (value bytes 28..64) lies wholly inside the value, so every element
    // rank 1 stores and sends is a view of the write's buffer. Its
    // corruption is copy-on-write: the write's buffer must not change.
    let value = (0..100u8).collect::<Vec<u8>>();
    let mut cluster = ClusterBuilder::new(ProtocolKind::SodaErr { e: 1 }, 7, 2)
        .with_seed(5)
        .with_clients(1, 2)
        .with_byzantine_servers(vec![1])
        .build_soda()
        .unwrap();
    cluster.invoke_write(0, value.clone());
    cluster.run_to_quiescence();
    let write = cluster.completed_ops()[0]
        .value
        .clone()
        .expect("a write's value");
    assert!(cluster.server_state(1).stored_element().data.shares(&write));
    for round in 0..3 {
        let at = cluster.now() + 5;
        cluster.invoke_read_at(at, round % 2);
        cluster.run_to_quiescence();
    }
    assert!(
        cluster.stats().messages_corrupted >= 3,
        "every read got a corrupt element"
    );
    assert_eq!(cluster.decode_failures(), 0);
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 4);
    // The writer's log, every read and the history the checker sees (a
    // store's `keyed_history()` is each cluster's closed history) all hold
    // the written bytes.
    for op in &ops {
        assert_eq!(op.value.as_deref(), Some(&value[..]), "{:?}", op.kind);
    }
    for op in cluster.closed_history(&[]).ops() {
        assert_eq!(&op.value[..], &value[..]);
    }
    assert_eq!(write, value);
    assert!(cluster.server_state(1).stored_element().data.shares(&write));
}

#[test]
fn sodaerr_repair_collects_k_plus_2e_elements() {
    let mut cluster = ClusterBuilder::new(ProtocolKind::SodaErr { e: 1 }, 7, 2)
        .with_seed(3)
        .with_initial_value(b"seed value".to_vec())
        .build_soda()
        .unwrap();
    cluster.invoke_write_at(t(10), 0, b"sodaerr repair".to_vec());
    cluster.run_until(t(500));
    cluster.crash_server_at(t(600), 2);
    cluster.repair_server_at(t(700), 2);
    cluster.run_to_quiescence();
    let repaired = cluster.server_state(2);
    assert!(!repaired.is_repairing());
    let report = cluster.repair_report(2).unwrap();
    let elem_len = repaired.stored_bytes() as u64;
    // k + 2e = 3 + 2 elements for [7, 3] SODAerr with e = 1.
    assert_eq!(cluster.deployment().quorum(Phase::ReadValue), 5);
    assert_eq!(report.traffic_bytes, 5 * elem_len);
    assert_eq!(
        repaired.stored_element().data,
        cluster
            .deployment()
            .code()
            .encode_one(b"sodaerr repair", 2)
            .unwrap()
            .data
    );
}
