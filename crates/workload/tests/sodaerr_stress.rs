//! SODAerr stress tests: concurrent workloads where up to `e` byzantine
//! servers corrupt every coded element they send a reader, combined with
//! server crashes. Every read must still return a value some write
//! actually produced, every history must be atomic, and the system must
//! quiesce and clean up its bookkeeping. Clusters are built through the
//! `RegisterCluster` facade.

use soda_consistency::Kind;
use soda_registry::{ClusterBuilder, ProtocolKind, RegisterCluster};
use soda_simnet::{NetworkConfig, SimTime};

fn run_stress(seed: u64, n: usize, f: usize, e: usize, byzantine: Vec<usize>, crash: Vec<usize>) {
    let kind = if e == 0 {
        ProtocolKind::Soda
    } else {
        ProtocolKind::SodaErr { e }
    };
    let mut cluster = ClusterBuilder::new(kind, n, f)
        .with_seed(seed)
        .with_clients(2, 2)
        .with_byzantine_servers(byzantine)
        .with_network(NetworkConfig::uniform(9))
        .build_soda()
        .unwrap();
    for (i, rank) in crash.iter().enumerate() {
        cluster.crash_server_at(SimTime::from_ticks(30 + 20 * i as u64), *rank);
    }
    for round in 0..4u64 {
        for writer in 0..2usize {
            cluster.invoke_write_at(
                SimTime::from_ticks(round * 45 + 3 * writer as u64),
                writer,
                format!("payload-{seed}-{round}-{writer}").into_bytes(),
            );
        }
        for reader in 0..2usize {
            cluster.invoke_read_at(
                SimTime::from_ticks(round * 45 + 12 + 7 * reader as u64),
                reader,
            );
        }
    }
    let outcome = cluster.run_to_quiescence();
    assert!(!outcome.hit_event_cap, "seed {seed}: must quiesce");

    let ops = cluster.completed_ops();
    let expected_ops = 2 * 4 + 2 * 4;
    assert_eq!(
        ops.len(),
        expected_ops,
        "seed {seed}: all operations complete"
    );

    let history = cluster.history(&[]);
    history
        .check_atomicity()
        .unwrap_or_else(|v| panic!("seed {seed}: atomicity violated: {v}"));

    // No read may ever observe corrupted bytes: every non-initial value read
    // must be exactly one of the written payloads.
    for op in history.ops() {
        if op.kind == Kind::Read && !op.value.is_empty() {
            assert!(
                op.value.starts_with(b"payload-"),
                "seed {seed}: read returned corrupted data {:?}",
                String::from_utf8_lossy(&op.value)
            );
        }
    }

    // No *non-faulty* server keeps a reader registered (crashed servers may
    // die holding one), and no reader ever failed a decode.
    let live_registered: usize = (0..n)
        .filter(|rank| !crash.contains(rank))
        .map(|rank| cluster.registered_readers(rank))
        .sum();
    assert_eq!(live_registered, 0, "seed {seed}");
    assert_eq!(cluster.decode_failures(), 0, "seed {seed}: decode failures");
}

#[test]
fn sodaerr_with_one_bad_disk_across_seeds() {
    for seed in 0..8 {
        run_stress(seed, 7, 2, 1, vec![3], vec![]);
    }
}

#[test]
fn sodaerr_with_two_bad_disks_and_crashes() {
    // n = 11, f = 2, e = 2 → k = 5, read threshold 9. Crash 2 servers (the
    // budget) while 2 other servers serve corrupted elements.
    for seed in 0..5 {
        run_stress(100 + seed, 11, 2, 2, vec![0, 5], vec![8, 10]);
    }
}

#[test]
fn sodaerr_bad_disks_on_backbone_servers() {
    // The byzantine servers sit on the MD backbone (ranks 0 and 1), which
    // also relays the dispersal. Their relays to readers are corrupted as
    // well, yet each sends a read at most one element per tag, so reads
    // stay within the budget and succeed.
    for seed in 0..5 {
        run_stress(200 + seed, 9, 2, 2, vec![0, 1], vec![]);
    }
}

#[test]
fn plain_soda_is_unaffected_when_no_disk_is_faulty() {
    for seed in 0..5 {
        run_stress(300 + seed, 6, 2, 0, vec![], vec![4]);
    }
}
