//! ABD and CAS/CASGC behaviour through the facade: the cluster-level tests
//! that used to live inside `soda_baselines`, now driven via
//! `ClusterBuilder`.

use soda_registry::{ClusterBuilder, ProtocolKind, RegisterCluster};
use soda_simnet::{NetworkConfig, SimTime};

fn abd(n: usize, f: usize) -> ClusterBuilder {
    ClusterBuilder::new(ProtocolKind::Abd, n, f)
}

fn cas(n: usize, f: usize) -> ClusterBuilder {
    ClusterBuilder::new(ProtocolKind::Cas, n, f)
}

fn casgc(n: usize, f: usize, delta: usize) -> ClusterBuilder {
    ClusterBuilder::new(ProtocolKind::Casgc { gc: delta }, n, f)
}

// ---------------------------------------------------------------------------
// ABD
// ---------------------------------------------------------------------------

#[test]
fn abd_storage_cost_is_n_copies() {
    let value = vec![3u8; 4096];
    let mut cluster = abd(6, 2)
        .with_seed(2)
        .with_network(NetworkConfig::uniform(5))
        .with_clients(1, 0)
        .build()
        .unwrap();
    cluster.invoke_write(0, value.clone());
    cluster.run_to_quiescence();
    // Every server that received the store holds the full value; with no
    // crashes all n do.
    assert_eq!(cluster.total_stored_bytes(), 6 * value.len() as u64);
}

#[test]
fn abd_operations_survive_f_crashes() {
    let mut cluster = abd(5, 2)
        .with_seed(4)
        .with_network(NetworkConfig::uniform(6))
        .build()
        .unwrap();
    cluster.crash_server_at(SimTime::ZERO, 0);
    cluster.crash_server_at(SimTime::ZERO, 4);
    cluster.invoke_write(0, b"still here".to_vec());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 2);
    assert_eq!(ops[1].value.as_deref(), Some(b"still here".as_slice()));
}

#[test]
fn abd_sequential_writes_are_ordered_by_tags() {
    let mut cluster = abd(4, 1)
        .with_seed(5)
        .with_network(NetworkConfig::uniform(3))
        .with_clients(1, 0)
        .build()
        .unwrap();
    for i in 0..4u8 {
        cluster.invoke_write(0, vec![i]);
    }
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 4);
    for pair in ops.windows(2) {
        assert!(pair[0].tag < pair[1].tag);
        assert!(pair[0].completed_at <= pair[1].completed_at);
    }
}

#[test]
fn abd_write_communication_cost_is_order_n() {
    let value_size = 2000usize;
    let mut cluster = abd(8, 3)
        .with_seed(6)
        .with_network(NetworkConfig::uniform(5))
        .with_clients(1, 0)
        .build()
        .unwrap();
    // Phase 2 ships the value to all n = 8 servers and phase 1 answers a
    // writer with tags only, so every write costs exactly n values — the
    // second too, when the servers' stored value is no longer empty.
    for fill in 1..=2u8 {
        let before = cluster.stats().data_bytes_sent;
        cluster.invoke_write(0, vec![fill; value_size]);
        cluster.run_to_quiescence();
        let bytes = cluster.stats().data_bytes_sent - before;
        assert_eq!(bytes, 8 * value_size as u64, "write {fill}");
    }
}

/// One rule charges every protocol's read: the value-data bytes into plus out
/// of its reader's process over the read. Only ABD's reader sends value data
/// (its write-back); the others send metadata alone, so their charge is what
/// they receive.
#[test]
fn read_charge_is_the_readers_value_bytes_for_every_kind() {
    let value_size = 2000usize;
    for (kind, n, f) in [
        (ProtocolKind::Soda, 5, 2),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2),
        (ProtocolKind::Abd, 5, 2),
        (ProtocolKind::Cas, 5, 1),
        (ProtocolKind::Casgc { gc: 1 }, 5, 1),
    ] {
        let name = kind.name();
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(9)
            .with_network(NetworkConfig::uniform(5))
            .build()
            .unwrap();
        cluster.invoke_write(0, vec![1u8; value_size]);
        cluster.run_to_quiescence();
        let reader = cluster.reader_process(0).index();
        let before = cluster
            .stats()
            .per_process
            .get(reader)
            .copied()
            .unwrap_or_default();
        cluster.invoke_read(0);
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.completed_ops().len(),
            2,
            "{name}: the read completes"
        );
        let after = cluster.stats().per_process[reader];
        let sent = after.data_bytes_sent - before.data_bytes_sent;
        let received = after.data_bytes_received - before.data_bytes_received;
        if matches!(kind, ProtocolKind::Abd) {
            assert_eq!(sent, (n * value_size) as u64, "{name}: the write-back");
        } else {
            assert_eq!(sent, 0, "{name}: a reader sends only metadata");
        }
        assert!(
            received >= value_size as u64,
            "{name}: the value reaches the reader"
        );
        // A coded element is ⌈(|v| + 1)/k⌉ bytes: the value and its
        // end-marker byte, split in k and padded.
        let descriptor = cluster.descriptor();
        let padded = descriptor
            .k()
            .map_or(value_size, |k| k * (value_size + 1).div_ceil(k));
        let bound = descriptor.paper_read_cost(0) * padded as f64;
        let charge = (sent + received) as f64;
        assert!(
            charge <= bound * (1.0 + 1e-9),
            "{name}: read charge {charge} above the paper's {bound}"
        );
    }
}

/// The unsound quorum override shrinks the clients' majority only: a
/// replacement still repairs from a true majority of its peers.
#[test]
fn abds_unsound_quorum_reaches_clients_only() {
    let value = vec![5u8; 100];
    let mut cluster = abd(5, 2)
        .with_seed(9)
        .with_unsound_quorum(1)
        .build()
        .unwrap();
    cluster.invoke_write(0, value.clone());
    cluster.run_to_quiescence();
    let now = cluster.now();
    cluster.crash_server_at(now + 1, 0);
    cluster.repair_server_at(now + 2, 0);
    cluster.run_to_quiescence();
    let report = cluster.repair_report(0).expect("rank 0 was repaired");
    assert!(
        report.completed_at.is_some() && !report.failed(),
        "{report:?}"
    );
    // Three of the four peers, each with the whole value; the override
    // would have stopped at one.
    assert_eq!(report.traffic_bytes, 3 * value.len() as u64);
}

// ---------------------------------------------------------------------------
// CAS / CASGC
// ---------------------------------------------------------------------------

#[test]
fn cas_quorum_and_k_parameters() {
    let cluster = cas(9, 2).build().unwrap();
    assert_eq!(cluster.descriptor().k(), Some(5)); // k = n - 2f
}

#[test]
fn cas_tolerates_f_crashes() {
    let mut cluster = cas(7, 2)
        .with_seed(3)
        .with_network(NetworkConfig::uniform(7))
        .build()
        .unwrap();
    cluster.crash_server_at(SimTime::ZERO, 0);
    cluster.crash_server_at(SimTime::ZERO, 6);
    cluster.invoke_write(0, b"resilient cas".to_vec());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 2);
    assert_eq!(ops[1].value.as_deref(), Some(b"resilient cas".as_slice()));
}

#[test]
fn cas_without_gc_accumulates_versions() {
    let mut cluster = cas(5, 1)
        .with_seed(4)
        .with_network(NetworkConfig::uniform(7))
        .build_cas()
        .unwrap();
    for i in 0..5u8 {
        cluster.invoke_write(0, vec![i; 300]);
    }
    cluster.run_to_quiescence();
    // Initial version + 5 writes, no GC.
    assert_eq!(cluster.max_stored_versions(), 6);
}

#[test]
fn casgc_bounds_stored_versions_to_delta_plus_one() {
    let delta = 1usize;
    let mut cluster = casgc(5, 1, delta)
        .with_seed(5)
        .with_network(NetworkConfig::uniform(7))
        .build_cas()
        .unwrap();
    for i in 0..6u8 {
        cluster.invoke_write(0, vec![i; 300]);
    }
    cluster.run_to_quiescence();
    assert!(
        cluster.max_stored_versions() <= delta + 1,
        "stored versions {} exceed δ+1 = {}",
        cluster.max_stored_versions(),
        delta + 1
    );
}

#[test]
fn casgc_stores_views_of_written_values_and_repairs_into_owned_buffers() {
    // [5, 3] with 300 B values: each element is 101 B, and data shards 0
    // and 1 (value bytes 0..202) lie wholly inside the value.
    let element_len = (300 + 1usize).div_ceil(3);
    let mut cluster = casgc(5, 1, 2).with_seed(9).build_cas().unwrap();
    for i in 0..3u8 {
        cluster.invoke_write(0, vec![i + 1; 300]);
    }
    cluster.run_to_quiescence();
    let written = |cluster: &soda_registry::CasRegisterCluster| -> Vec<_> {
        (cluster.server_state(1).stored_payloads())
            .filter(|(_, payload)| payload.len() == element_len)
            .map(|(tag, payload)| (tag, payload.clone()))
            .collect()
    };
    let healthy = written(&cluster);
    assert_eq!(healthy.len(), 3, "δ + 1 written versions kept");
    assert!(
        healthy.iter().all(|(_, payload)| payload.is_view()),
        "a pre-written element is a view of its write's value"
    );
    cluster.crash_server_at(cluster.now() + 10, 1);
    cluster.run_to_quiescence();
    cluster.repair_server_at(cluster.now() + 10, 1);
    cluster.run_to_quiescence();
    let repaired = written(&cluster);
    assert_eq!(
        repaired, healthy,
        "the repair re-encodes every kept version"
    );
    // A re-encoded element owns a buffer of its own size: a view would pin
    // the whole decoded value, which nothing else holds.
    assert!(repaired.iter().all(|(_, payload)| !payload.is_view()));
}

#[test]
fn casgc_storage_cost_tracks_paper_formula() {
    let (n, f, delta) = (6, 1, 2usize);
    let value_size = 3000usize;
    let mut cluster = casgc(n, f, delta)
        .with_seed(6)
        .with_network(NetworkConfig::uniform(4))
        .with_clients(1, 0)
        .build()
        .unwrap();
    for i in 0..8u8 {
        cluster.invoke_write(0, vec![i; value_size]);
    }
    cluster.run_to_quiescence();
    let normalized = cluster.total_stored_bytes() as f64 / value_size as f64;
    let formula = cluster.descriptor().paper_storage_cost();
    assert!(
        normalized <= formula + 0.2,
        "measured {normalized:.2} exceeds paper bound {formula:.2}"
    );
    assert!(
        normalized > formula * 0.6,
        "measured {normalized:.2} implausibly below bound {formula:.2}"
    );
}

#[test]
fn cas_write_communication_cost_matches_n_over_n_minus_2f() {
    let (n, f) = (8, 2);
    let value_size = 4000usize;
    let mut cluster = cas(n, f)
        .with_seed(7)
        .with_network(NetworkConfig::uniform(5))
        .with_clients(1, 0)
        .build()
        .unwrap();
    cluster.invoke_write(0, vec![9u8; value_size]);
    cluster.run_to_quiescence();
    let normalized = cluster.stats().data_bytes_sent as f64 / value_size as f64;
    let formula = n as f64 / (n - 2 * f) as f64;
    assert!(
        (normalized - formula).abs() < 0.2,
        "measured {normalized:.2} vs formula {formula:.2}"
    );
}

#[test]
fn cas_sequential_writes_have_increasing_tags() {
    let mut cluster = cas(5, 2)
        .with_seed(8)
        .with_network(NetworkConfig::uniform(7))
        .with_clients(1, 0)
        .build()
        .unwrap();
    for i in 0..4u8 {
        cluster.invoke_write(0, vec![i]);
    }
    cluster.run_to_quiescence();
    let ops = cluster.completed_ops();
    assert_eq!(ops.len(), 4);
    for pair in ops.windows(2) {
        assert!(pair[0].tag < pair[1].tag);
    }
}
