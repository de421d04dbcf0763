//! Facade-level tests of the adversarial knobs: every protocol kind accepts
//! the same `NetFaultPlan`, histories stay checkable under faults via
//! `closed_history`, and the builder validates the SODA-only / ABD-only
//! switches.

use soda_registry::{BuildError, ClusterBuilder, OpKind, ProtocolKind, ALL_KINDS};
use soda_simnet::{LinkFaults, NetFaultPlan, SimTime};

fn lossy_plan() -> NetFaultPlan {
    NetFaultPlan::none().with_default(LinkFaults {
        drop_p: 0.1,
        duplicate_p: 0.15,
        extra_delay: Some(soda_simnet::DelayModel::Uniform { min: 1, max: 25 }),
        reorder_p: 0.25,
        reorder_window: 40,
    })
}

#[test]
fn every_kind_accepts_the_same_net_fault_knobs() {
    for kind in ALL_KINDS {
        let n = if kind.error_budget() > 0 { 7 } else { 5 };
        let mut cluster = ClusterBuilder::new(kind, n, 2)
            .with_seed(3)
            .with_clients(1, 1)
            .with_net_faults(lossy_plan())
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        cluster.invoke_write(0, b"under fire".to_vec());
        cluster.invoke_read_at(SimTime::from_ticks(40), 0);
        let outcome = cluster.run_to_quiescence();
        assert!(!outcome.hit_event_cap, "{}", kind.name());
        // Safety holds whether or not the lossy network let things finish.
        cluster
            .closed_history(&[])
            .check_atomicity()
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
        // The adversary actually acted (duplication at 15% over dozens of
        // messages is effectively certain for these seeds).
        let stats = cluster.stats();
        assert!(
            stats.messages_lost + stats.messages_duplicated > 0,
            "{}: adversary was a no-op",
            kind.name()
        );
    }
}

#[test]
fn closed_history_explains_reads_of_a_crashed_writers_value() {
    // Crash the SODA writer right after its dispersal starts; with relaying,
    // a read can return the crashed writer's value even though the write
    // never completed. `history()` alone cannot explain that read —
    // `closed_history()` must.
    for seed in 0..20u64 {
        let mut cluster = ClusterBuilder::new(ProtocolKind::Soda, 5, 2)
            .with_seed(seed)
            .with_clients(1, 1)
            .build()
            .unwrap();
        cluster.invoke_write(0, b"first".to_vec());
        cluster.run_to_quiescence();
        let start = cluster.now();
        cluster.invoke_write_at(start + 1, 0, b"doomed".to_vec());
        cluster.crash_writer_at(start + 8, 0);
        cluster.invoke_read_at(start + 12, 0);
        cluster.run_to_quiescence();
        let closed = cluster.closed_history(&[]);
        closed
            .check_atomicity()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}\nhistory: {closed:?}"));
        // If the doomed write is pending, it must be reported.
        let writes_completed = cluster
            .completed_ops()
            .iter()
            .filter(|op| op.kind == OpKind::Write)
            .count();
        assert_eq!(
            writes_completed + cluster.pending_writes().len(),
            2,
            "seed {seed}: every invoked write is either completed or pending"
        );
    }
}

#[test]
fn pending_writes_report_the_in_flight_operation_for_every_protocol() {
    for kind in ALL_KINDS {
        let n = if kind.error_budget() > 0 { 7 } else { 5 };
        let mut cluster = ClusterBuilder::new(kind, n, 2)
            .with_seed(1)
            .with_clients(1, 1)
            .build()
            .unwrap();
        let name = kind.name();
        cluster.invoke_write(0, b"stalled".to_vec());
        cluster.invoke_write(0, b"queued".to_vec());
        // Run only a moment: the first write is in its query phase, and the
        // second, queued behind it, has had no effect yet.
        cluster.run_until(SimTime::from_ticks(1));
        let pending = cluster.pending_writes();
        assert_eq!(pending.len(), 1, "{name}");
        assert_eq!((pending[0].seq, pending[0].tag), (1, None), "{name}");
        assert_eq!(pending[0].value, *b"stalled", "{name}");
        // Step until the protocol has chosen the write's tag.
        let mut tick = 1;
        let tagged = loop {
            tick += 1;
            cluster.run_until(SimTime::from_ticks(tick));
            let pending = cluster.pending_writes();
            assert_eq!(pending.len(), 1, "{name}: tick {tick}");
            if pending[0].tag.is_some() {
                break pending[0].clone();
            }
        };
        // The record of the completed write is the pending write, tagged.
        while cluster.completed_ops().is_empty() {
            tick += 1;
            cluster.run_until(SimTime::from_ticks(tick));
        }
        let done = &cluster.completed_ops()[0];
        assert_eq!(Some(done.tag), tagged.tag, "{name}");
        assert_eq!(
            (done.client, done.seq, done.invoked_at),
            (tagged.client, tagged.seq, tagged.invoked_at),
            "{name}"
        );
        assert_eq!(done.value, Some(tagged.value), "{name}");
        // After quiescence both completed and nothing is pending.
        cluster.run_to_quiescence();
        assert!(cluster.pending_writes().is_empty(), "{name}");
        assert_eq!(cluster.completed_ops().len(), 2, "{name}");
    }
}

#[test]
fn byzantine_servers_are_a_soda_family_switch() {
    let err = ClusterBuilder::new(ProtocolKind::Abd, 5, 2)
        .with_byzantine_servers(vec![0])
        .validate()
        .unwrap_err();
    assert_eq!(err, BuildError::ByzantineUnsupported { kind: "ABD" });

    let err = ClusterBuilder::new(ProtocolKind::SodaErr { e: 1 }, 7, 2)
        .with_byzantine_servers(vec![7])
        .validate()
        .unwrap_err();
    assert_eq!(err, BuildError::ByzantineOutOfRange { rank: 7, n: 7 });

    ClusterBuilder::new(ProtocolKind::SodaErr { e: 1 }, 7, 2)
        .with_byzantine_servers(vec![0, 6])
        .validate()
        .expect("in-range ranks are accepted, even beyond e (detection tests)");
}

#[test]
fn quorum_override_is_abd_only() {
    for kind in ALL_KINDS {
        let n = if kind.error_budget() > 0 { 7 } else { 5 };
        let result = ClusterBuilder::new(kind, n, 2)
            .with_unsound_quorum(1)
            .validate();
        if kind == ProtocolKind::Abd {
            result.expect("ABD accepts the test-only override");
        } else {
            assert_eq!(
                result.unwrap_err(),
                BuildError::QuorumOverrideUnsupported { kind: kind.name() }
            );
        }
    }
}

#[test]
fn build_errors_for_adversary_knobs_render_helpfully() {
    let message = BuildError::ByzantineUnsupported { kind: "CAS" }.to_string();
    assert!(message.contains("SODA/SODAerr"), "{message}");
    let message = BuildError::QuorumOverrideUnsupported { kind: "CASGC" }.to_string();
    assert!(message.contains("ABD"), "{message}");
    let message = BuildError::ByzantineOutOfRange { rank: 9, n: 5 }.to_string();
    assert!(message.contains("rank 9"), "{message}");
}
