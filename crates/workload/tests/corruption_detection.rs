//! SODAerr corruption-budget regression tests: corruption *within* the error
//! budget `e` is transparently corrected, and corruption *strictly beyond*
//! the budget is **detected** (the read fails to complete and the decoder
//! flags the error) rather than silently returning a wrong value. Both the
//! disk-level threat model (`with_faulty_disks`) and the stronger in-flight
//! byzantine model (`with_byzantine_servers`) are covered.

use soda_registry::{ClusterBuilder, OpKind, ProtocolKind, RegisterCluster, SodaRegisterCluster};

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
fn disk_corruption_beyond_e_is_detected_too() {
    // Same property through the original disk-fault threat model.
    for seed in 0..5u64 {
        let cluster = write_then_read(
            sodaerr()
                .with_seed(seed)
                .with_faulty_disks(vec![0, 3])
                .build_soda()
                .unwrap(),
        );
        for value in completed_read_values(&cluster) {
            assert_eq!(
                value.as_slice(),
                b"the protected object value",
                "seed {seed}: no silent wrong value"
            );
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
