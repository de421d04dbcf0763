//! SODAerr corruption-budget regression tests: corruption *within* the error
//! budget `e` is transparently corrected, and corruption *strictly beyond*
//! the budget is **detected** (the read fails to complete and the decoder
//! flags the error) rather than silently returning a wrong value. The
//! adversary is `with_byzantine_servers`: a byzantine rank corrupts every
//! coded element it sends a reader, its stored element and its relays of
//! concurrent writes alike, and stays byzantine once repaired.

use soda_registry::{ClusterBuilder, OpKind, ProtocolKind, RegisterCluster, SodaRegisterCluster};
use soda_simnet::NetworkConfig;

const N: usize = 7;
const F: usize = 2;
const E: usize = 1; // k = n - f - 2e = 3, read threshold k + 2e = 5

fn sodaerr() -> ClusterBuilder {
    ClusterBuilder::new(ProtocolKind::SodaErr { e: E }, N, F)
}

fn write_then_read(mut cluster: SodaRegisterCluster) -> SodaRegisterCluster {
    cluster.invoke_write(0, b"the protected object value".to_vec());
    cluster.run_to_quiescence();
    cluster.invoke_read(0);
    let outcome = cluster.run_to_quiescence();
    assert!(!outcome.hit_event_cap);
    cluster
}

/// Reads completed by the cluster, as `(value)` payloads.
fn completed_read_values(cluster: &SodaRegisterCluster) -> Vec<Vec<u8>> {
    cluster
        .completed_ops()
        .into_iter()
        .filter(|op| op.kind == OpKind::Read)
        .map(|op| op.value.unwrap_or_default().to_vec())
        .collect()
}

#[test]
fn in_budget_byzantine_corruption_is_transparently_corrected() {
    for seed in 0..5u64 {
        // Without byzantine servers nothing is corrupted.
        let clean = write_then_read(sodaerr().with_seed(seed).build_soda().unwrap());
        assert_eq!(clean.stats().messages_corrupted, 0, "seed {seed}");

        let cluster = write_then_read(
            sodaerr()
                .with_seed(seed)
                .with_byzantine_servers(vec![2])
                .build_soda()
                .unwrap(),
        );
        // Rank 2 sends the reader one coded element, and the hook corrupts it.
        assert_eq!(cluster.stats().messages_corrupted, 1, "seed {seed}");
        let reads = completed_read_values(&cluster);
        assert_eq!(reads.len(), 1, "seed {seed}: the read must complete");
        assert_eq!(
            reads[0], b"the protected object value",
            "seed {seed}: corrected value"
        );
        assert!(
            cluster.history(&[]).check_atomicity().is_ok(),
            "seed {seed}"
        );
    }

    // A read concurrent with a write: rank 2 also relays the write's element
    // to the registered reader, and the hook corrupts the relay. Constant
    // delays make the read register at rank 2 before the write reaches it.
    let mut cluster = sodaerr()
        .with_network(NetworkConfig::constant(10))
        .with_byzantine_servers(vec![2])
        .build_soda()
        .unwrap();
    let (old, new) = (b"the protected object value", b"a concurrent write");
    cluster.invoke_write(0, old.to_vec());
    cluster.run_to_quiescence();
    let at = cluster.now() + 10;
    cluster.invoke_read_at(at, 0);
    cluster.invoke_write_at(at + 5, 0, new.to_vec());
    assert!(!cluster.run_to_quiescence().hit_event_cap);
    // Rank 2 serves the read its stored element at most once; every
    // corrupted message beyond that is a relay.
    assert!(
        cluster.stats().messages_corrupted > 1,
        "a relay was corrupted"
    );
    let reads = completed_read_values(&cluster);
    assert_eq!(reads.len(), 1, "the read must complete");
    assert!(
        reads[0] == old || reads[0] == new,
        "the read returns a written value"
    );
    assert_eq!(cluster.decode_failures(), 0);
    assert!(cluster.history(&[]).check_atomicity().is_ok());
}

#[test]
fn a_repaired_byzantine_rank_stays_byzantine() {
    let mut cluster = sodaerr()
        .with_seed(3)
        .with_byzantine_servers(vec![2])
        .build_soda()
        .unwrap();
    cluster.invoke_write(0, b"the protected object value".to_vec());
    cluster.run_to_quiescence();
    let crash_at = cluster.now() + 1;
    cluster.crash_server_at(crash_at, 2);
    cluster.repair_server_at(crash_at + 50, 2);
    cluster.run_to_quiescence();
    let report = cluster.repair_report(2).expect("rank 2 was repaired");
    assert!(
        report.completed_at.is_some() && !report.failed(),
        "{report:?}"
    );
    assert_eq!(cluster.dead_or_repairing(), 0);

    let before = cluster.stats().messages_corrupted;
    for _ in 0..3 {
        cluster.invoke_read(0);
        cluster.run_to_quiescence();
    }
    let reads = completed_read_values(&cluster);
    assert_eq!(reads.len(), 3, "every later read completes");
    assert!(reads.iter().all(|v| v == b"the protected object value"));
    assert_eq!(cluster.decode_failures(), 0);
    assert!(
        cluster.stats().messages_corrupted > before,
        "the replacement still corrupts what it sends"
    );
}

#[test]
fn byzantine_corruption_beyond_e_is_detected_not_silently_wrong() {
    // Two byzantine servers with e = 1: every batch of gathered elements
    // contains up to 2 corrupted ones, beyond what the [n, k] code can
    // correct. The decoder must flag this (decode failures accumulate and
    // the read never completes with a bogus value).
    for seed in 0..5u64 {
        let cluster = write_then_read(
            sodaerr()
                .with_seed(seed)
                .with_byzantine_servers(vec![2, 5])
                .build_soda()
                .unwrap(),
        );
        let reads = completed_read_values(&cluster);
        for value in &reads {
            assert_eq!(
                value.as_slice(),
                b"the protected object value",
                "seed {seed}: a read that completes despite over-budget \
                 corruption must still be correct, never silently wrong"
            );
        }
        assert!(
            !reads.is_empty() || cluster.decode_failures() > 0,
            "seed {seed}: an unfinished read must come with flagged decode \
             failures, not silence"
        );
        if reads.is_empty() {
            // The common outcome: every decode attempt saw 2 errors with
            // budget 1 and was rejected.
            assert!(cluster.decode_failures() > 0, "seed {seed}");
        }
    }
}

#[test]
fn over_budget_corruption_never_contaminates_the_stored_state() {
    // Corruption is a read-path phenomenon: even with every element in
    // flight corrupted beyond the budget, the servers' stored tags and a
    // subsequent clean cluster view of the write remain intact (writes
    // travel through MdValue, which byzantine element corruption never
    // touches — corrupting dispersals would model a stronger adversary than
    // the paper's).
    let mut cluster = sodaerr()
        .with_seed(9)
        .with_byzantine_servers(vec![1, 4])
        .build_soda()
        .unwrap();
    cluster.invoke_write(0, b"dispersal stays clean".to_vec());
    cluster.run_to_quiescence();
    let tag = cluster.stored_tag(0);
    for rank in 1..N {
        assert_eq!(cluster.stored_tag(rank), tag, "uniform stored tag");
    }
    assert!(cluster.history(&[]).check_atomicity().is_ok());
}
