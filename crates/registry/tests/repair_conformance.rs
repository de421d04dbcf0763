//! Cross-protocol crash–recovery conformance: every [`ProtocolKind`] must
//! survive crash → repair → read with an atomic history, produce bit-identical
//! executions when replayed, keep atomicity when a repair races an in-flight
//! write, and never double-count a repaired server's replayed acknowledgements
//! in the closed history.

use soda_protocol::{REPAIR_MAX_ATTEMPTS, REPAIR_RETRY_INTERVAL};
use soda_registry::{ClusterBuilder, OpRecord, ProtocolKind, RegisterCluster, RepairError, Value};
use soda_simnet::{NetFaultPlan, ProcessId, SimTime};
use std::collections::BTreeSet;

/// Representative parameters per protocol: `(kind, n, f)` chosen so every
/// kind is valid and tolerates the crashes the scenarios inject.
fn matrix() -> Vec<(ProtocolKind, usize, usize)> {
    vec![
        (ProtocolKind::Soda, 5, 2),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2),
        (ProtocolKind::Abd, 5, 2),
        (ProtocolKind::Cas, 5, 2),
        (ProtocolKind::Casgc { gc: 2 }, 5, 2),
    ]
}

/// The shared crash → repair → read scenario: populate, crash rank 0, keep
/// writing, repair rank 0 with a write still racing it, then read after the
/// repair has settled.
fn drive_crash_repair_read(cluster: &mut dyn RegisterCluster) {
    cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"before-crash".to_vec());
    cluster.invoke_read_at(SimTime::from_ticks(30), 0);
    cluster.crash_server_at(SimTime::from_ticks(60), 0);
    cluster.invoke_write_at(SimTime::from_ticks(80), 0, b"while-down".to_vec());
    // The repair starts while this write is still in flight.
    cluster.invoke_write_at(SimTime::from_ticks(160), 0, b"racing-repair".to_vec());
    cluster.repair_server_at(SimTime::from_ticks(161), 0);
    cluster.invoke_read_at(SimTime::from_ticks(400), 1);
    cluster.run_to_quiescence();
}

fn fingerprint(ops: &[OpRecord]) -> Vec<(u64, u64, bool, u64, u64, Value)> {
    ops.iter()
        .map(|op| {
            (
                op.client,
                op.seq,
                op.kind.is_write(),
                op.invoked_at.ticks(),
                op.completed_at.ticks(),
                op.value.clone().unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn crash_repair_read_is_atomic_for_every_kind() {
    for (kind, n, f) in matrix() {
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(7)
            .with_clients(1, 2)
            .build()
            .unwrap();
        drive_crash_repair_read(cluster.as_mut());

        // The repair settled: the budget is free again and the report is
        // complete, with real data traffic and a measurable latency.
        assert_eq!(cluster.dead_or_repairing(), 0, "{}", kind.name());
        let reports = cluster.repair_reports();
        assert_eq!(reports.len(), 1, "{}", kind.name());
        assert_eq!(
            cluster.repair_report(0),
            Some(reports[0]),
            "{}",
            kind.name()
        );
        assert!(reports[0].latency().is_some(), "{}", kind.name());
        assert!(reports[0].traffic_bytes > 0, "{}", kind.name());

        // Every operation completed (the cluster never lost its quorums) and
        // the final read saw the last write.
        let ops = cluster.completed_ops();
        assert_eq!(ops.len(), 5, "{}", kind.name());
        let last_read = ops.iter().rfind(|o| o.kind.is_read()).unwrap();
        assert_eq!(
            last_read.value.as_deref(),
            Some(b"racing-repair".as_slice()),
            "{}",
            kind.name()
        );
        cluster
            .closed_history(&[])
            .check_atomicity()
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
    }
}

#[test]
fn crash_repair_read_replays_bit_identically() {
    // Two independent builds of the same seeded scenario must produce the
    // same operations at the same ticks with the same repair traffic — the
    // property that makes every repair counterexample replayable.
    for (kind, n, f) in matrix() {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut cluster = ClusterBuilder::new(kind, n, f)
                .with_seed(23)
                .with_clients(1, 2)
                .build()
                .unwrap();
            drive_crash_repair_read(cluster.as_mut());
            runs.push((
                fingerprint(&cluster.completed_ops()),
                cluster.repair_reports(),
                cluster.repair_traffic_bytes(),
                cluster.now(),
            ));
        }
        assert_eq!(runs[0], runs[1], "{}", kind.name());
    }
}

#[test]
fn repair_during_inflight_write_preserves_atomicity_across_seeds() {
    // Sweep the repair start across the write's whole in-flight window so
    // every interleaving of repair messages with write propagation is
    // exercised, not just one lucky tick.
    for (kind, n, f) in matrix() {
        for repair_at in [81, 85, 90, 100, 120] {
            let mut cluster = ClusterBuilder::new(kind, n, f)
                .with_seed(repair_at)
                .with_clients(1, 2)
                .build()
                .unwrap();
            cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"base".to_vec());
            cluster.crash_server_at(SimTime::from_ticks(50), 1);
            cluster.invoke_write_at(SimTime::from_ticks(80), 0, b"in-flight".to_vec());
            cluster.repair_server_at(SimTime::from_ticks(repair_at), 1);
            cluster.invoke_read_at(SimTime::from_ticks(300), 0);
            cluster.invoke_read_at(SimTime::from_ticks(300), 1);
            let outcome = cluster.run_to_quiescence();
            assert!(!outcome.hit_event_cap, "{} at {repair_at}", kind.name());
            assert_eq!(cluster.dead_or_repairing(), 0, "{}", kind.name());
            assert_eq!(
                cluster.completed_ops().len(),
                4,
                "{} at {repair_at}",
                kind.name()
            );
            cluster
                .closed_history(&[])
                .check_atomicity()
                .unwrap_or_else(|v| panic!("{} repair at {repair_at}: {v}", kind.name()));
        }
    }
}

/// A plan that cuts rank 0 off from every other process — servers *and*
/// client handles — during `[start, end)` ticks.
fn isolate_rank_zero(start: u64, end: u64) -> NetFaultPlan {
    NetFaultPlan::none().with_isolation(
        [ProcessId(0)],
        SimTime::from_ticks(start),
        SimTime::from_ticks(end),
    )
}

/// The crash → partition(repairer ⟂ survivors) → heal → repair-settles
/// scenario: rank 0 crashes behind a window that outlives the repair's first
/// attempts, and the retry cadence crosses the heal.
fn drive_partitioned_repair(cluster: &mut dyn RegisterCluster) {
    cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"pre-partition".to_vec());
    cluster.crash_server_at(SimTime::from_ticks(60), 0);
    // The replacement's survivor fan-out is cut (and retried) until the heal
    // at tick 1000; the retry at 1300 is the first to get through.
    cluster.repair_server_at(SimTime::from_ticks(100), 0);
    cluster.invoke_read_at(SimTime::from_ticks(1500), 0);
    cluster.run_to_quiescence();
}

#[test]
fn repair_behind_a_partition_settles_after_the_heal_for_every_kind() {
    for (kind, n, f) in matrix() {
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(11)
            .with_clients(1, 2)
            .with_net_faults(isolate_rank_zero(50, 1000))
            .build()
            .unwrap();
        drive_partitioned_repair(cluster.as_mut());

        assert_eq!(cluster.dead_or_repairing(), 0, "{}", kind.name());
        let reports = cluster.repair_reports();
        assert_eq!(reports.len(), 1, "{}", kind.name());
        assert!(!reports[0].failed(), "{}", kind.name());
        assert!(reports[0].error.is_none(), "{}", kind.name());
        let settled = reports[0].completed_at.expect("repair must settle");
        assert!(
            settled.ticks() >= 1000,
            "{}: settled at {} — inside the window",
            kind.name(),
            settled.ticks()
        );
        assert!(reports[0].traffic_bytes > 0, "{}", kind.name());

        let ops = cluster.completed_ops();
        let last_read = ops.iter().rfind(|o| o.kind.is_read()).unwrap();
        assert_eq!(
            last_read.value.as_deref(),
            Some(b"pre-partition".as_slice()),
            "{}",
            kind.name()
        );
        cluster
            .closed_history(&[])
            .check_atomicity()
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
    }
}

#[test]
fn partitioned_repair_replays_bit_identically() {
    // Two independent builds of the partitioned scenario must agree on every
    // operation tick, the repair report, and the final clock — partition cuts
    // consume no RNG draws, so window plans cannot perturb the schedule.
    for (kind, n, f) in matrix() {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut cluster = ClusterBuilder::new(kind, n, f)
                .with_seed(29)
                .with_clients(1, 2)
                .with_net_faults(isolate_rank_zero(50, 1000))
                .build()
                .unwrap();
            drive_partitioned_repair(cluster.as_mut());
            runs.push((
                fingerprint(&cluster.completed_ops()),
                cluster.repair_reports(),
                cluster.repair_traffic_bytes(),
                cluster.now(),
            ));
        }
        assert_eq!(runs[0], runs[1], "{}", kind.name());
    }
}

#[test]
fn repair_that_outlives_the_window_fails_retryably_for_every_kind() {
    // The window outlives the whole retry budget (8 attempts spanning 2800
    // ticks): the repair must give up with the typed, retryable error and
    // return the crash-budget slot — and a second repair after the heal must
    // settle and replace the failure report.
    for (kind, n, f) in matrix() {
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(13)
            .with_clients(1, 2)
            .with_net_faults(isolate_rank_zero(50, 5000))
            .build()
            .unwrap();
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"outlives".to_vec());
        cluster.crash_server_at(SimTime::from_ticks(60), 0);
        cluster.repair_server_at(SimTime::from_ticks(100), 0);
        cluster.run_to_quiescence();

        // Gave up: the rank is plain dead again, still holding its budget
        // slot, with the typed error on the report.
        assert_eq!(cluster.dead_or_repairing(), 1, "{}", kind.name());
        let reports = cluster.repair_reports();
        assert_eq!(reports.len(), 1, "{}", kind.name());
        assert!(reports[0].failed(), "{}", kind.name());
        assert_eq!(
            reports[0].error,
            Some(RepairError::Unreachable),
            "{}",
            kind.name()
        );

        // Retry after the heal: settles promptly and replaces the report.
        cluster.repair_server_at(SimTime::from_ticks(5100), 0);
        cluster.invoke_read_at(SimTime::from_ticks(6000), 1);
        cluster.run_to_quiescence();
        assert_eq!(cluster.dead_or_repairing(), 0, "{}", kind.name());
        let reports = cluster.repair_reports();
        assert_eq!(reports.len(), 1, "{}", kind.name());
        assert!(!reports[0].failed(), "{}", kind.name());
        let ops = cluster.completed_ops();
        let last_read = ops.iter().rfind(|o| o.kind.is_read()).unwrap();
        assert_eq!(
            last_read.value.as_deref(),
            Some(b"outlives".as_slice()),
            "{}",
            kind.name()
        );
        cluster
            .closed_history(&[])
            .check_atomicity()
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
    }
}

#[test]
fn every_kind_gives_up_a_cut_off_repair_at_the_same_instant() {
    // One retry loop drives every protocol's replacement, so a repair whose
    // survivors stay unreachable fails exactly one retry budget after it
    // started, whatever the protocol. The give-up is the run's last event.
    let budget = u64::from(REPAIR_MAX_ATTEMPTS) * REPAIR_RETRY_INTERVAL;
    for (kind, n, f) in matrix() {
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(17)
            .with_clients(1, 2)
            .with_net_faults(isolate_rank_zero(50, 10_000))
            .build()
            .unwrap();
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"cut off".to_vec());
        cluster.crash_server_at(SimTime::from_ticks(60), 0);
        cluster.repair_server_at(SimTime::from_ticks(230), 0);
        cluster.run_to_quiescence();

        let report = cluster.repair_report(0).expect("rank 0 was replaced");
        assert_eq!(
            report.started_at,
            SimTime::from_ticks(230),
            "{}",
            kind.name()
        );
        assert_eq!(
            report.error,
            Some(RepairError::Unreachable),
            "{}",
            kind.name()
        );
        assert_eq!(report.completed_at, None, "{}", kind.name());
        assert_eq!(cluster.now(), report.started_at + budget, "{}", kind.name());
    }
}

#[test]
fn repaired_runs_never_double_count_operations() {
    // A replacement replays relay/gossip state from survivors; none of that
    // may surface as duplicate client acknowledgements. Each (client, seq)
    // appears at most once among completed operations, never in both the
    // completed and pending sets, and the closed history's length is exactly
    // completed + tagged-pending — no operation is counted twice under the
    // `responded = u64::MAX` pending convention.
    for (kind, n, f) in matrix() {
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(31)
            .with_clients(2, 2)
            .build()
            .unwrap();
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"a".to_vec());
        cluster.invoke_write_at(SimTime::from_ticks(5), 1, b"b".to_vec());
        cluster.crash_server_at(SimTime::from_ticks(40), 0);
        cluster.invoke_write_at(SimTime::from_ticks(90), 0, b"c".to_vec());
        cluster.repair_server_at(SimTime::from_ticks(91), 0);
        // A writer crashed mid-operation leaves a genuinely pending write in
        // the closed history, exercising the sentinel path too.
        cluster.invoke_write_at(SimTime::from_ticks(200), 1, b"never-acked".to_vec());
        cluster.crash_writer_at(SimTime::from_ticks(201), 1);
        cluster.invoke_read_at(SimTime::from_ticks(400), 0);
        cluster.invoke_read_at(SimTime::from_ticks(420), 1);
        cluster.run_to_quiescence();

        let completed = cluster.completed_ops();
        let mut seen = BTreeSet::new();
        for op in &completed {
            assert!(
                seen.insert((op.client, op.seq)),
                "{}: duplicate completed op (client {}, seq {})",
                kind.name(),
                op.client,
                op.seq
            );
        }
        let pending = cluster.pending_writes();
        for write in &pending {
            assert!(
                !seen.contains(&(write.client, write.seq)),
                "{}: (client {}, seq {}) is both completed and pending",
                kind.name(),
                write.client,
                write.seq
            );
        }
        let tagged_pending = pending.iter().filter(|w| w.tag.is_some()).count();
        let closed = cluster.closed_history(&[]);
        assert_eq!(
            closed.len(),
            completed.len() + tagged_pending,
            "{}: closed history double-counts",
            kind.name()
        );
        closed
            .check_atomicity()
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
    }
}
