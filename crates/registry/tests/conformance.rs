//! Cross-protocol conformance suite: the same scenarios run through every
//! [`ProtocolKind`] via the [`RegisterCluster`] trait, and every resulting
//! history is machine-checked for atomicity with `soda_consistency`.

use soda_consistency::{Kind, Version};
use soda_registry::{
    ClusterBuilder, OpRecord, PartitionWindow, ProtocolKind, RegisterCluster, Value,
};
use soda_simnet::{ProcessId, SimTime, Stats};
use std::sync::Arc;

/// Representative parameters per protocol: `(kind, n, f)` chosen so every
/// kind is valid and tolerates two crashes where the scenario injects them.
fn matrix() -> Vec<(ProtocolKind, usize, usize)> {
    vec![
        (ProtocolKind::Soda, 5, 2),
        (ProtocolKind::SodaErr { e: 1 }, 7, 2),
        (ProtocolKind::Abd, 5, 2),
        (ProtocolKind::Cas, 5, 2),
        (ProtocolKind::Casgc { gc: 2 }, 5, 2),
    ]
}

fn build(kind: ProtocolKind, n: usize, f: usize, seed: u64) -> Box<dyn RegisterCluster> {
    ClusterBuilder::new(kind, n, f)
        .with_seed(seed)
        .build()
        .unwrap_or_else(|e| panic!("{}: build failed: {e}", kind.name()))
}

#[test]
fn write_then_read_round_trips_for_every_kind() {
    for (kind, n, f) in matrix() {
        let mut cluster = build(kind, n, f, 3);
        cluster.invoke_write(0, b"conformance".to_vec());
        cluster.run_to_quiescence();
        cluster.invoke_read(0);
        cluster.run_to_quiescence();
        let ops = cluster.completed_ops();
        assert_eq!(ops.len(), 2, "{}", kind.name());
        assert!(ops[0].kind.is_write(), "{}", kind.name());
        assert!(ops[1].kind.is_read(), "{}", kind.name());
        assert_eq!(
            ops[1].value.as_deref(),
            Some(b"conformance".as_slice()),
            "{}",
            kind.name()
        );
        assert_eq!(ops[1].tag, ops[0].tag, "{}", kind.name());
        assert!(
            cluster.history(&[]).check_atomicity().is_ok(),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn read_before_any_write_returns_initial_value_for_every_kind() {
    for (kind, n, f) in matrix() {
        let initial = b"genesis".to_vec();
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(11)
            .with_initial_value(initial.clone())
            .build()
            .unwrap();
        cluster.invoke_read(0);
        cluster.run_to_quiescence();
        let ops = cluster.completed_ops();
        assert_eq!(ops.len(), 1, "{}", kind.name());
        assert_eq!(
            ops[0].value.as_deref(),
            Some(initial.as_slice()),
            "{}",
            kind.name()
        );
        assert!(ops[0].tag.is_initial(), "{}", kind.name());
    }
}

#[test]
fn concurrent_workload_with_crashes_is_atomic_for_every_kind() {
    for (kind, n, f) in matrix() {
        for seed in 0..4u64 {
            let mut cluster = ClusterBuilder::new(kind, n, f)
                .with_seed(seed)
                .with_clients(2, 2)
                .build()
                .unwrap();
            // Crash up to f = 2 servers at staggered times while the
            // workload runs.
            cluster.crash_server_at(SimTime::from_ticks(10), 0);
            cluster.crash_server_at(SimTime::from_ticks(60), n - 1);
            for round in 0..3u64 {
                for writer in 0..2 {
                    cluster.invoke_write_at(
                        SimTime::from_ticks(round * 50 + writer as u64),
                        writer,
                        format!("v-{round}-{writer}").into_bytes(),
                    );
                }
                for reader in 0..2 {
                    cluster.invoke_read_at(
                        SimTime::from_ticks(round * 50 + 20 + reader as u64),
                        reader,
                    );
                }
            }
            let outcome = cluster.run_to_quiescence();
            assert!(
                !outcome.hit_event_cap,
                "{} seed {seed}: must quiesce",
                kind.name()
            );
            let ops = cluster.completed_ops();
            assert_eq!(
                ops.len(),
                12,
                "{} seed {seed}: every operation must complete",
                kind.name()
            );
            // Every read returned either the initial value or something a
            // write actually produced.
            for op in ops.iter().filter(|o| o.kind.is_read()) {
                let value = op.value.as_deref().unwrap_or_default();
                assert!(
                    value.is_empty() || value.starts_with(b"v-"),
                    "{} seed {seed}: read returned garbage {value:?}",
                    kind.name()
                );
            }
            cluster
                .history(&[])
                .check_atomicity()
                .unwrap_or_else(|v| panic!("{} seed {seed}: {v}", kind.name()));
        }
    }
}

#[test]
fn crashed_writer_never_blocks_other_clients() {
    for (kind, n, f) in matrix() {
        let mut cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(17)
            .with_clients(2, 1)
            .build()
            .unwrap();
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"doomed".to_vec());
        cluster.crash_writer_at(SimTime::from_ticks(8), 0);
        cluster.invoke_write_at(SimTime::from_ticks(120), 1, b"survivor".to_vec());
        cluster.invoke_read_at(SimTime::from_ticks(400), 0);
        let outcome = cluster.run_to_quiescence();
        assert!(!outcome.hit_event_cap, "{}", kind.name());
        let ops = cluster.completed_ops();
        let read = ops
            .iter()
            .find(|o| o.kind.is_read())
            .unwrap_or_else(|| panic!("{}: read must complete", kind.name()));
        // The surviving writer's value must win over the crashed write.
        assert_eq!(
            read.value.as_deref(),
            Some(b"survivor".as_slice()),
            "{}",
            kind.name()
        );
        cluster
            .history(&[])
            .check_atomicity()
            .unwrap_or_else(|v| panic!("{}: {v}", kind.name()));
    }
}

#[test]
fn storage_costs_track_the_paper_formulas() {
    // One write of a large value, then quiescence; measured normalized
    // storage must track each protocol's Table I expression.
    let value = vec![7u8; 6000];
    for (kind, n, f) in matrix() {
        if kind == ProtocolKind::Cas {
            continue; // unbounded storage: no finite formula to compare
        }
        let mut cluster = build(kind, n, f, 1);
        cluster.invoke_write(0, value.clone());
        cluster.run_to_quiescence();
        let measured = cluster.total_stored_bytes() as f64 / value.len() as f64;
        let formula = cluster.descriptor().paper_storage_cost();
        // CASGC provisions for δ + 1 versions but only one non-initial
        // version exists here, so it sits below its bound; the others must
        // match within chunking slack.
        match kind {
            ProtocolKind::Casgc { .. } => assert!(
                measured <= formula + 0.2,
                "{}: measured {measured:.2} above bound {formula:.2}",
                kind.name()
            ),
            _ => assert!(
                (measured - formula).abs() < 0.1,
                "{}: measured {measured:.2} vs formula {formula:.2}",
                kind.name()
            ),
        }
    }
}

/// Liveness under partition duty cycles: four 2 000-tick periods each cut
/// ranks `0..=2` — a majority of `n = 5` — off from every process for the
/// duty share of the period, while 16 + 16 one-shot handles invoke one
/// operation each across the schedule (one per handle, so a starved op
/// cannot block a handle's queue). Clients send once, so an operation whose
/// phase meets a window starves for good: the completion count falls by the
/// duty share exactly, for SODA and ABD alike, and what completes is still
/// atomic. ROADMAP item 1 (retransmitting clients) flips every completion
/// count to 32.
#[test]
fn partition_duty_cycles_starve_the_operations_they_cut() {
    const PERIOD: u64 = 2000;
    const CYCLES: u64 = 4;
    const HANDLES: usize = 16;
    let step = PERIOD * CYCLES / HANDLES as u64;
    for kind in [ProtocolKind::Soda, ProtocolKind::Abd] {
        for (duty_pct, completed, partitioned) in
            [(0, 32, 0), (25, 24, 24), (50, 16, 48), (75, 8, 72)]
        {
            let mut builder = ClusterBuilder::new(kind, 5, 2)
                .with_seed(41)
                .with_clients(HANDLES, HANDLES);
            // A 0 % duty cycle schedules no window at all.
            for i in (0..CYCLES).filter(|_| duty_pct > 0) {
                builder = builder.with_partition_window(&PartitionWindow {
                    ranks: vec![0, 1, 2],
                    start: i * PERIOD,
                    end: i * PERIOD + PERIOD * duty_pct / 100,
                });
            }
            let mut cluster = builder.build().unwrap();
            // Writes on the grid, reads half a step later, so both race
            // every window edge.
            for j in 0..HANDLES {
                let at = SimTime::from_ticks(j as u64 * step);
                cluster.invoke_write_at(at, j, vec![j as u8 + 1; 64]);
            }
            for j in 0..HANDLES {
                cluster.invoke_read_at(SimTime::from_ticks(j as u64 * step + step / 2), j);
            }
            let label = format!("{} at duty {duty_pct}%", kind.name());
            assert!(!cluster.run_to_quiescence().hit_event_cap, "{label}");
            assert_eq!(cluster.completed_ops().len(), completed, "{label}");
            assert_eq!(cluster.stats().messages_partitioned, partitioned, "{label}");
            if let Err(violation) = cluster.closed_history(&[]).check_atomicity() {
                panic!("{label}: {violation}");
            }
        }
    }
}

#[test]
fn descriptor_reports_the_built_shape() {
    for (kind, n, f) in matrix() {
        let cluster = ClusterBuilder::new(kind, n, f)
            .with_clients(3, 2)
            .build()
            .unwrap();
        let desc = cluster.descriptor();
        assert_eq!(desc.kind, kind);
        assert_eq!((desc.n, desc.f), (n, f));
        assert_eq!((desc.num_writers, desc.num_readers), (3, 2));
        // Writer and reader handles map to distinct live processes.
        let mut ids: Vec<_> = (0..3)
            .map(|w| cluster.writer_process(w))
            .chain((0..2).map(|r| cluster.reader_process(r)))
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 5, "{}", kind.name());
    }
}

#[test]
fn processes_register_servers_then_writers_then_readers() {
    // Seeded schedules depend on this order: process ids break ties between
    // same-tick events, and a client's id is part of every tag it creates.
    for (kind, n, f) in matrix() {
        let cluster = ClusterBuilder::new(kind, n, f)
            .with_clients(3, 2)
            .build()
            .unwrap();
        let ids = |first: usize, count: usize| -> Vec<ProcessId> {
            (first..first + count)
                .map(|i| ProcessId(i as u32))
                .collect()
        };
        let writers: Vec<_> = (0..3).map(|w| cluster.writer_process(w)).collect();
        let readers: Vec<_> = (0..2).map(|r| cluster.reader_process(r)).collect();
        assert_eq!(writers, ids(n, 3), "{}", kind.name());
        assert_eq!(readers, ids(n + 3, 2), "{}", kind.name());
    }
}

#[test]
#[should_panic(expected = "reader handle 2 out of range: cluster has 2 readers")]
fn a_handle_beyond_the_built_clients_panics() {
    let mut cluster = ClusterBuilder::new(ProtocolKind::Cas, 5, 2)
        .with_clients(1, 2)
        .build()
        .unwrap();
    cluster.invoke_read(2);
}

/// Once the run that completed it ends, a read holds the buffer of the
/// write whose tag it returned, whether that write was still in flight or
/// lay behind later writes in its writer's log. Returns how many reads
/// found their write each way.
fn reads_hold_their_writes_buffers(cluster: &dyn RegisterCluster, name: &str) -> [usize; 2] {
    let ops = cluster.completed_ops();
    let writes: Vec<&OpRecord> = ops.iter().filter(|op| op.kind.is_write()).collect();
    let pending = cluster.pending_writes();
    let mut found = [0, 0];
    let reads = ops
        .iter()
        .filter(|op| op.kind.is_read() && !op.tag.is_initial());
    for read in reads {
        let written = match writes.iter().position(|write| write.tag == read.tag) {
            Some(at) => {
                let client = writes[at].client;
                let later = writes[at + 1..].iter().any(|write| write.client == client);
                found[1] += usize::from(later);
                writes[at].value.as_ref()
            }
            None => {
                found[0] += 1;
                (pending.iter())
                    .find(|write| write.tag == Some(read.tag))
                    .map(|write| &write.value)
            }
        };
        let (written, returned) = (written.expect("a write"), read.value.as_ref().unwrap());
        assert!(Value::ptr_eq(written, returned), "{name}: {:?}", read.tag);
    }
    found
}

#[test]
fn every_read_holds_the_buffer_of_the_write_it_returned_for_every_kind() {
    let t = SimTime::from_ticks;
    for (kind, n, f) in matrix() {
        let name = kind.name();
        let builder = ClusterBuilder::new(kind, n, f)
            .with_seed(21)
            .with_clients(2, 2);
        // Reads during a burst of queued writes: their writes lie behind
        // later ones when the run ends.
        let mut cluster = builder.clone().build().unwrap();
        for i in 0..24u8 {
            cluster.invoke_write(usize::from(i % 2), vec![i + 1; 512]);
        }
        for at in (0..600).step_by(20) {
            cluster.invoke_read_at(t(at), at as usize % 40 / 20);
        }
        cluster.run_to_quiescence();
        let behind = reads_hold_their_writes_buffers(&*cluster, name)[1];
        assert!(behind > 0, "{name}: no read returned an overwritten value");
        // Reads after a writer crashed mid-write: once its value reached the
        // servers, they return a write that stays in flight.
        let mut in_flight = 0;
        for crash_at in 1..=30 {
            let mut cluster = builder.clone().build().unwrap();
            cluster.invoke_write(0, vec![7; 512]);
            cluster.crash_writer_at(t(crash_at), 0);
            cluster.invoke_read_at(t(60), 0);
            cluster.run_to_quiescence();
            in_flight += reads_hold_their_writes_buffers(&*cluster, name)[0];
        }
        assert!(in_flight > 0, "{name}: no read returned a write in flight");
    }
}

#[test]
fn run_until_stops_at_the_deadline() {
    for (kind, n, f) in matrix() {
        let mut cluster = build(kind, n, f, 23);
        cluster.invoke_write_at(SimTime::from_ticks(0), 0, b"timed".to_vec());
        cluster.run_until(SimTime::from_ticks(2));
        assert!(cluster.now() <= SimTime::from_ticks(2), "{}", kind.name());
        cluster.run_to_quiescence();
        assert_eq!(cluster.completed_ops().len(), 1, "{}", kind.name());
    }
}

/// Every field of a record, comparable (`OpRecord` itself is not `PartialEq`).
fn fields(op: &OpRecord) -> (u64, u64, bool, u64, u64, u64, u64, Option<Value>) {
    (
        op.client,
        op.seq,
        op.kind.is_write(),
        op.invoked_at.ticks(),
        op.completed_at.ticks(),
        op.tag.z,
        op.tag.writer.0 as u64,
        op.value.clone(),
    )
}

/// A client and everything its advancing cursor saw.
type Followed = (ProcessId, Vec<OpRecord>);

/// A 2-writer, 2-reader cluster driven through the staged scenario of
/// [`follow_with_cursors`], with its clients' cursors.
struct Staged {
    cluster: Box<dyn RegisterCluster>,
    seen: Vec<Followed>,
}

/// Stages of the scenario: concurrent operations, a server crash, a repair
/// racing a write, one handle alone, and a quiet tail.
const STAGES: u64 = 5;

impl Staged {
    fn new(kind: ProtocolKind, n: usize, f: usize, seed: u64) -> Self {
        let cluster = ClusterBuilder::new(kind, n, f)
            .with_seed(seed)
            .with_clients(2, 2)
            .build()
            .unwrap();
        let seen = (0..2)
            .map(|w| cluster.writer_process(w))
            .chain((0..2).map(|r| cluster.reader_process(r)))
            .map(|client| (client, Vec::new()))
            .collect();
        Staged { cluster, seen }
    }

    /// Injects stage `stage`, runs the cluster to quiescence and reads one
    /// `completed_since` per client from its cursor. With `idle_polls`, a
    /// second `run_to_quiescence` follows, which finds nothing to run.
    fn run_stage(&mut self, stage: u64, idle_polls: bool) {
        let cluster = &mut self.cluster;
        let name = cluster.descriptor().kind.name();
        let now = cluster.now();
        match stage {
            // Two operations queued per handle, all concurrent.
            0 => {
                for handle in 0..2 {
                    cluster.invoke_write(handle, format!("s0-a-{handle}").into_bytes());
                    cluster.invoke_write(handle, format!("s0-b-{handle}").into_bytes());
                    cluster.invoke_read(handle);
                    cluster.invoke_read(handle);
                }
            }
            // A crash in the middle of a burst.
            1 => {
                cluster.crash_server_at(now + 3, 0);
                for handle in 0..2 {
                    cluster.invoke_write_at(now + handle as u64, handle, b"s1".to_vec());
                    cluster.invoke_read_at(now + 5, handle);
                }
            }
            // The repair starts while a write is in flight.
            2 => {
                cluster.invoke_write_at(now, 1, b"s2-racing-repair".to_vec());
                cluster.repair_server_at(now + 1, 0);
                cluster.invoke_read_at(now + 2, 0);
            }
            // One handle only: the other cursors must see nothing new.
            3 => cluster.invoke_read(1),
            // Nothing at all.
            _ => {}
        }
        let outcome = cluster.run_to_quiescence();
        assert!(!outcome.hit_event_cap, "{name} stage {stage}");
        if idle_polls {
            let idle = cluster.run_to_quiescence();
            assert_eq!(idle.events_processed, 0, "{name} stage {stage}");
        }
        for (client, records) in &mut self.seen {
            let before = records.len();
            cluster.completed_since(*client, before, records);
            if stage == STAGES - 1 {
                assert_eq!(records.len(), before, "{name}: quiet stage");
            }
        }
    }
}

/// Drives the staged scenario on a 2-writer, 2-reader cluster — concurrent
/// operations, a server crash, a repair racing a write, a quiet tail — and
/// follows it the way the store does: after every `run_to_quiescence`, one
/// `completed_since` per client from the cursor that client's previous reads
/// left. With `idle_polls`, every stage ends with a second
/// `run_to_quiescence`, which finds nothing to run, as the store's drain
/// does for every key a round skips. Returns the cluster and, per client,
/// everything its cursor saw.
fn follow_with_cursors(
    kind: ProtocolKind,
    n: usize,
    f: usize,
    seed: u64,
    idle_polls: bool,
) -> (Box<dyn RegisterCluster>, Vec<Followed>) {
    let mut staged = Staged::new(kind, n, f, seed);
    for stage in 0..STAGES {
        staged.run_stage(stage, idle_polls);
    }
    (staged.cluster, staged.seen)
}

/// What a run of a cluster must reproduce: every completed operation, every
/// counter and the closed history.
type Outcome = (
    Vec<(u64, u64, bool, u64, u64, u64, u64, Option<Value>)>,
    Stats,
    Vec<(u64, Kind, u64, u64, Arc<[u8]>, Version)>,
);

fn outcome(cluster: &dyn RegisterCluster) -> Outcome {
    let ops = cluster.completed_ops().iter().map(fields).collect();
    let history = (cluster.closed_history(&[]).ops().iter())
        .map(|op| {
            (
                op.client,
                op.kind,
                op.invoked,
                op.responded,
                op.value.clone(),
                op.version,
            )
        })
        .collect();
    (ops, cluster.stats().clone(), history)
}

#[test]
fn advancing_cursors_see_each_completed_op_exactly_once_for_every_kind() {
    for (kind, n, f) in matrix() {
        let name = kind.name();
        let (cluster, seen) = follow_with_cursors(kind, n, f, 17, false);
        assert!(
            cluster
                .repair_reports()
                .iter()
                .all(|r| r.latency().is_some()),
            "{name}: the repair completed"
        );
        let all = cluster.completed_ops();
        assert_eq!(all.len(), 8 + 4 + 2 + 1, "{name}: every op completed");

        for (client, records) in &seen {
            // The cursor reads concatenate to the client's projection of the
            // whole history: same records, same (seq) order, same contents.
            let projection: Vec<_> = all
                .iter()
                .filter(|op| op.client == client.0 as u64)
                .map(fields)
                .collect();
            let followed: Vec<_> = records.iter().map(fields).collect();
            assert_eq!(followed, projection, "{name}: client {client:?}");
            assert!(
                records.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
                "{name}: client {client:?} is in seq order without gaps"
            );

            // A cursor at the end, or past it, yields nothing; a cursor in
            // the middle yields exactly the tail, appended after what the
            // buffer already held.
            let mut out = Vec::new();
            cluster.completed_since(*client, records.len(), &mut out);
            cluster.completed_since(*client, records.len() + 100, &mut out);
            assert!(out.is_empty(), "{name}: client {client:?}");
            cluster.completed_since(*client, 1, &mut out);
            cluster.completed_since(*client, records.len() - 1, &mut out);
            let mut expected = followed[1..].to_vec();
            expected.push(followed[followed.len() - 1].clone());
            assert_eq!(out.iter().map(fields).collect::<Vec<_>>(), expected);
        }
        // A server is not a client: it has completed nothing.
        let mut out = Vec::new();
        cluster.completed_since(ProcessId(0), 0, &mut out);
        assert!(out.is_empty(), "{name}: server process");

        // Replay is bit-identical, cursor read by cursor read.
        let (_, replay) = follow_with_cursors(kind, n, f, 17, false);
        for ((client, a), (_, b)) in seen.iter().zip(&replay) {
            assert_eq!(
                a.iter().map(fields).collect::<Vec<_>>(),
                b.iter().map(fields).collect::<Vec<_>>(),
                "{name}: client {client:?} replay"
            );
        }
    }
}

#[test]
fn idle_polls_change_no_schedule_for_every_kind() {
    // An idle poll gives nothing back that a run did not, and the next stage
    // takes the thread's spare event slab again, maybe another simulation's.
    // Neither may move an event: the two runs must agree on every operation,
    // every counter and the closed history.
    for (kind, n, f) in matrix() {
        let name = kind.name();
        for seed in [5, 17] {
            let (plain, _) = follow_with_cursors(kind, n, f, seed, false);
            let (polled, _) = follow_with_cursors(kind, n, f, seed, true);
            assert_eq!(outcome(&*plain), outcome(&*polled), "{name} seed {seed}");
        }
    }
}

#[test]
fn clusters_sharing_a_thread_keep_their_schedules_for_every_kind() {
    // Eight clusters driven round-robin, stage by stage, on one thread: each
    // run takes the slab the previous cluster's run gave back. They must
    // agree with the same clusters driven one at a time, and with the
    // round-robin run again on a scoped thread, which starts with no spare
    // slab and frees it when it ends.
    const CLUSTERS: u64 = 8;
    let round_robin = |kind, n, f| -> Vec<Outcome> {
        let mut clusters: Vec<_> = (0..CLUSTERS)
            .map(|seed| Staged::new(kind, n, f, 100 + seed))
            .collect();
        for stage in 0..STAGES {
            for staged in &mut clusters {
                staged.run_stage(stage, false);
            }
        }
        clusters.iter().map(|s| outcome(&*s.cluster)).collect()
    };
    for (kind, n, f) in matrix() {
        let name = kind.name();
        let alone: Vec<_> = (0..CLUSTERS)
            .map(|seed| outcome(&*follow_with_cursors(kind, n, f, 100 + seed, false).0))
            .collect();
        let shared = round_robin(kind, n, f);
        let scoped =
            std::thread::scope(|scope| scope.spawn(|| round_robin(kind, n, f)).join().unwrap());
        for (seed, ((alone, shared), scoped)) in alone.iter().zip(&shared).zip(&scoped).enumerate()
        {
            assert_eq!(alone, shared, "{name} cluster {seed}: round-robin");
            assert_eq!(alone, scoped, "{name} cluster {seed}: scoped thread");
        }
    }
}
