//! Randomized end-to-end atomicity tests: drive SODA, SODAerr, ABD and CASGC
//! with concurrent clients over many random schedules (seeds control both the
//! message delays and the workload timing) and machine-check every resulting
//! history against the atomicity conditions of Lemma 2.1.
//!
//! All four protocols are driven by the *same* generic function through the
//! `RegisterCluster` facade.

use soda_consistency::History;
use soda_registry::{ClusterBuilder, ProtocolKind, RegisterCluster};
use soda_simnet::rng::SimRng;
use soda_simnet::{NetworkConfig, SimTime};

/// Builds a cluster of `kind`, drives it with a random interleaving of writes
/// and reads and returns the history. SODA and SODAerr clusters are built
/// typed, so their reader registrations can be checked after quiescence.
fn run_random(
    kind: ProtocolKind,
    seed: u64,
    n: usize,
    f: usize,
    byzantine: Vec<usize>,
    value_prefix: &str,
) -> History {
    let builder = ClusterBuilder::new(kind, n, f)
        .with_seed(seed)
        .with_clients(2, 2)
        .with_byzantine_servers(byzantine)
        .with_network(NetworkConfig::uniform(1 + seed % 20));
    if !kind.is_soda_family() {
        let mut cluster = builder
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        return drive(cluster.as_mut(), seed, value_prefix);
    }
    let mut soda = builder
        .build_soda()
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    let history = drive(&mut soda, seed, value_prefix);
    assert_eq!(
        soda.total_registered_readers(),
        0,
        "seed {seed}: no reader stays registered after quiescence"
    );
    history
}

/// Drives any protocol's cluster with a random interleaving of writes and
/// reads, runs it to quiescence and returns the history.
fn drive(cluster: &mut dyn RegisterCluster, seed: u64, value_prefix: &str) -> History {
    let mut rng = SimRng::network(seed);
    let mut counter = 0u32;
    for _ in 0..8 {
        let at = SimTime::from_ticks(rng.gen_range(0u64..300));
        if rng.gen_bool(0.5) {
            let writer = rng.gen_range(0usize..2);
            counter += 1;
            cluster.invoke_write_at(at, writer, format!("{value_prefix}-{counter}").into_bytes());
        } else {
            let reader = rng.gen_range(0usize..2);
            cluster.invoke_read_at(at, reader);
        }
    }
    let outcome = cluster.run_to_quiescence();
    let name = cluster.descriptor().kind.name();
    assert!(
        !outcome.hit_event_cap,
        "{name} seed {seed}: protocol must quiesce"
    );
    cluster.history(&[])
}

#[test]
fn soda_histories_are_atomic_across_many_random_schedules() {
    for seed in 0..25 {
        let history = run_random(ProtocolKind::Soda, seed, 5, 2, vec![], "value");
        history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("seed {seed}: atomicity violated: {v}"));
    }
}

#[test]
fn soda_histories_are_atomic_on_larger_clusters() {
    for seed in 0..6 {
        let history = run_random(ProtocolKind::Soda, 1000 + seed, 11, 5, vec![], "value");
        history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("seed {seed}: atomicity violated: {v}"));
    }
}

#[test]
fn sodaerr_histories_are_atomic_with_corrupted_disks() {
    for seed in 0..12 {
        let history = run_random(
            ProtocolKind::SodaErr { e: 2 },
            2000 + seed,
            9,
            2,
            vec![1, 6],
            "value",
        );
        history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("seed {seed}: atomicity violated: {v}"));
        // Every read must have returned a value some write produced (or the
        // initial value) — corruption never leaks to clients.
        for op in history.ops() {
            if op.kind == soda_consistency::Kind::Read && !op.value.is_empty() {
                assert!(
                    op.value.starts_with(b"value-"),
                    "seed {seed}: read returned corrupted data {:?}",
                    op.value
                );
            }
        }
    }
}

#[test]
fn abd_histories_are_atomic() {
    for seed in 0..15 {
        let history = run_random(ProtocolKind::Abd, seed, 5, 2, vec![], "abd");
        history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("ABD seed {seed}: atomicity violated: {v}"));
    }
}

#[test]
fn casgc_histories_are_atomic() {
    for seed in 0..15 {
        let history = run_random(ProtocolKind::Casgc { gc: 3 }, seed, 5, 1, vec![], "cas");
        history
            .check_atomicity()
            .unwrap_or_else(|v| panic!("CASGC seed {seed}: atomicity violated: {v}"));
    }
}

#[test]
fn small_histories_cross_validate_against_brute_force_linearizability() {
    // For small executions, additionally run the exponential checker so we are
    // not relying solely on the tag-based sufficient condition.
    for seed in 0..10 {
        let mut cluster = ClusterBuilder::new(ProtocolKind::Soda, 5, 2)
            .with_seed(3000 + seed)
            .with_clients(2, 1)
            .with_network(NetworkConfig::uniform(12))
            .build()
            .unwrap();
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"alpha".to_vec());
        cluster.invoke_write_at(SimTime::from_ticks(5), 1, b"beta".to_vec());
        cluster.invoke_read_at(SimTime::from_ticks(8), 0);
        cluster.invoke_read_at(SimTime::from_ticks(60), 0);
        cluster.run_to_quiescence();
        let history = cluster.history(&[]);
        assert!(history.check_atomicity().is_ok(), "seed {seed}");
        assert!(
            history.check_linearizable_brute_force(),
            "seed {seed}: brute force disagrees"
        );
    }
}
