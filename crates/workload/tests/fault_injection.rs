//! Fault-injection integration tests: server crashes up to `f`, writer crashes
//! in the middle of the MD-VALUE dispersal (uniformity, Theorem 3.1 /
//! consistency properties), and reader crashes before read-complete
//! (Theorem 5.5: servers eventually stop serving and unregister the reader).
//! All clusters are built and driven through the `RegisterCluster` facade.

use soda_consistency::Kind;
use soda_registry::{ClusterBuilder, ProtocolKind, RegisterCluster};
use soda_simnet::{NetworkConfig, SimTime};
use soda_workload::experiments::relay_ablation;

fn soda(n: usize, f: usize) -> ClusterBuilder {
    ClusterBuilder::new(ProtocolKind::Soda, n, f)
}

#[test]
fn operations_complete_with_f_crashes_at_arbitrary_times() {
    for seed in 0..10u64 {
        let n = 7;
        let f = 3;
        let mut cluster = soda(n, f)
            .with_seed(seed)
            .with_clients(2, 2)
            .with_network(NetworkConfig::uniform(10))
            .build()
            .unwrap();
        // Crash f servers at staggered times while the workload runs.
        for (i, rank) in [0usize, 3, 6].iter().enumerate() {
            cluster.crash_server_at(SimTime::from_ticks(seed * 3 + i as u64 * 40), *rank);
        }
        for round in 0..3u64 {
            for writer in 0..2usize {
                cluster.invoke_write_at(
                    SimTime::from_ticks(round * 50 + writer as u64),
                    writer,
                    format!("crashy-{round}-{writer}").into_bytes(),
                );
            }
            for reader in 0..2usize {
                cluster.invoke_read_at(SimTime::from_ticks(round * 50 + 20), reader);
            }
        }
        let outcome = cluster.run_to_quiescence();
        assert!(!outcome.hit_event_cap);
        let ops = cluster.completed_ops();
        // All 6 writes and 6 reads must complete despite the crashes
        // (liveness, Theorem 5.1).
        assert_eq!(ops.len(), 12, "seed {seed}: every operation must complete");
        cluster
            .history(&[])
            .check_atomicity()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
    }
}

#[test]
fn writer_crash_mid_dispersal_preserves_uniformity() {
    // The writer crashes shortly after starting its write-put phase. The
    // MD-VALUE primitive guarantees that either no server or every non-faulty
    // server ends up delivering the coded element; in both cases the surviving
    // servers agree on their stored tag once the system quiesces.
    for crash_delay in [5u64, 15, 30, 60, 120] {
        let mut cluster = soda(7, 2)
            .with_seed(crash_delay)
            .with_network(NetworkConfig::uniform(10))
            .build_soda()
            .unwrap();
        cluster.invoke_write(0, vec![9u8; 2048]);
        cluster.crash_writer_at(SimTime::from_ticks(crash_delay), 0);
        cluster.run_to_quiescence();

        let tags: Vec<_> = (0..7).map(|rank| cluster.stored_tag(rank)).collect();
        let first = tags[0];
        assert!(
            tags.iter().all(|&t| t == first),
            "crash_delay={crash_delay}: servers diverge: {tags:?}"
        );
        // A subsequent read must still complete and return a decodable value.
        cluster.invoke_read(0);
        cluster.run_to_quiescence();
        let ops = cluster.completed_ops();
        let read = ops
            .iter()
            .find(|o| o.kind.is_read())
            .expect("read completes");
        if first.is_initial() {
            assert_eq!(read.value.as_deref(), Some(&[][..]));
        } else {
            assert_eq!(read.value.as_deref(), Some(&[9u8; 2048][..]));
        }
    }
}

#[test]
fn crashed_reader_is_eventually_unregistered_everywhere() {
    // Theorem 5.5: a reader that crashes after registering does not keep the
    // servers relaying forever — once k distinct servers have (provably) sent
    // elements for some tag, everyone unregisters it.
    let mut cluster = soda(5, 2)
        .with_seed(4)
        .with_network(NetworkConfig::uniform(8))
        .build_soda()
        .unwrap();
    // Establish a first version so the read has something to fetch.
    cluster.invoke_write(0, b"v1".to_vec());
    cluster.run_to_quiescence();
    // Start a read and kill the reader before it can possibly finish.
    let start = cluster.now() + 5;
    cluster.invoke_read_at(start, 0);
    cluster.crash_reader_at(start + 1, 0);
    cluster.run_to_quiescence();
    // The reader never sent READ-COMPLETE; a later write triggers relaying,
    // READ-DISPERSE bookkeeping, and finally unregistration at every server.
    cluster.invoke_write(0, b"v2".to_vec());
    cluster.run_to_quiescence();
    assert_eq!(
        cluster.total_registered_readers(),
        0,
        "crashed reader must be unregistered by every server"
    );
    assert_eq!(
        cluster.total_history_entries(),
        0,
        "history entries cleaned up"
    );
}

#[test]
fn relay_mechanism_is_required_for_liveness_under_concurrency() {
    // Ablation A1 as a test: with the relay mechanism the racing read
    // completes; with it disabled (and an adversarial but legal schedule) the
    // read never terminates even though the concurrent write does.
    let table = relay_ablation(1024, 77);
    assert!(table.claims.iter().all(|c| c.holds), "{table}");
}

#[test]
fn delta_w_accounting_matches_schedule_shape() {
    // A read scheduled in the middle of a burst of writes must report a
    // non-zero δw, and a read run in isolation must report zero.
    let mut cluster = soda(5, 2)
        .with_seed(11)
        .with_clients(2, 1)
        .with_network(NetworkConfig::uniform(10))
        .build()
        .unwrap();
    cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"w0".to_vec());
    cluster.run_to_quiescence();

    // Isolated read.
    cluster.invoke_read(0);
    cluster.run_to_quiescence();

    // Read racing two writes.
    let start = cluster.now() + 10;
    cluster.invoke_read_at(start, 0);
    cluster.invoke_write_at(start, 0, b"w1".to_vec());
    cluster.invoke_write_at(start, 1, b"w2".to_vec());
    cluster.run_to_quiescence();

    let history = cluster.history(&[]);
    let read_deltas: Vec<usize> = history
        .ops()
        .iter()
        .filter(|o| o.kind == Kind::Read)
        .map(|o| history.concurrent_writes(o.id))
        .collect();
    assert_eq!(read_deltas.len(), 2);
    assert_eq!(read_deltas[0], 0, "isolated read has no concurrent writes");
    assert!(read_deltas[1] >= 1, "racing read must observe concurrency");
    history.check_atomicity().expect("history atomic");
}

#[test]
fn baseline_clusters_also_survive_client_crashes() {
    // The facade's crash injection works uniformly: a crashed ABD / CAS
    // writer never blocks the remaining clients.
    for kind in [ProtocolKind::Abd, ProtocolKind::Casgc { gc: 1 }] {
        let mut cluster = ClusterBuilder::new(kind, 5, 2)
            .with_seed(13)
            .with_clients(2, 1)
            .build()
            .unwrap();
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"doomed".to_vec());
        cluster.crash_writer_at(SimTime::from_ticks(6), 0);
        cluster.invoke_write_at(SimTime::from_ticks(150), 1, b"alive".to_vec());
        cluster.invoke_read_at(SimTime::from_ticks(400), 0);
        let outcome = cluster.run_to_quiescence();
        assert!(!outcome.hit_event_cap, "{}", kind.name());
        let read = cluster
            .completed_ops()
            .into_iter()
            .find(|o| o.kind.is_read())
            .unwrap_or_else(|| panic!("{}: read completes", kind.name()));
        assert_eq!(
            read.value.as_deref(),
            Some(b"alive".as_slice()),
            "{}",
            kind.name()
        );
    }
}
