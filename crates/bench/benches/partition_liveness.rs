//! Operation liveness under partition/heal duty cycles: SODA vs ABD.
//!
//! The paper's liveness claims assume every operation eventually sees a
//! responsive quorum. This bench quantifies what happens when that assumption
//! is stressed on a schedule: periodic partition windows cut a **majority**
//! (`f + 1` of `n`) of servers off from everyone for a configurable fraction
//! of each period (the duty cycle). Clients do not retransmit, so an
//! operation whose phase messages fall inside a window starves — the
//! completed/invoked ratio across duty cycles is the measured liveness, and
//! the mean completion latency of the operations that *do* finish shows the
//! protocols' latency under the same outage schedule.
//!
//! Every handle invokes exactly one operation (handles are FIFO, so a
//! starved op would otherwise block its handle's queue and conflate one
//! starvation with many). At duty 0 every operation must complete — that row
//! doubles as a liveness regression gate — and each run's closed history is
//! checked for atomicity: safety must hold no matter what the windows cut.
//!
//! Plain `harness = false` timing loop (criterion is unavailable offline).
//! Run with: `cargo bench -p soda-bench --bench partition_liveness [out.json]`
//! — with a path argument the measurements are also written as JSON rows in
//! the repo's standard format (see `BENCH_partition.json`).

use soda_bench::maybe_write_json;
use soda_registry::{ClusterBuilder, PartitionWindow, ProtocolKind};
use soda_simnet::SimTime;
use soda_workload::json::to_json;
use soda_workload::json_row;
use std::time::Instant;

const N: usize = 5;
const F: usize = 2;
/// One-shot client handles: each invokes exactly one operation.
const WRITERS: usize = 16;
const READERS: usize = 16;
/// Window period in ticks; `CYCLES` periods cover the whole schedule.
const PERIOD: u64 = 2000;
const CYCLES: u64 = 4;
const HORIZON: u64 = PERIOD * CYCLES;

#[derive(Clone)]
struct Row {
    protocol: String,
    n: usize,
    f: usize,
    duty_pct: u64,
    invoked: usize,
    completed: usize,
    completion_ratio: f64,
    mean_latency_ticks: f64,
    messages_partitioned: u64,
    seconds: f64,
}

json_row!(Row {
    protocol,
    n,
    f,
    duty_pct,
    invoked,
    completed,
    completion_ratio,
    mean_latency_ticks,
    messages_partitioned,
    seconds,
});

/// `duty_pct`% of every period, servers `0..=f` (a majority of `n = 5`) are
/// unreachable from every other process; the cuts heal for the rest of the
/// period.
fn measure(kind: ProtocolKind, duty_pct: u64) -> Row {
    let mut builder = ClusterBuilder::new(kind, N, F)
        .with_seed(41)
        .with_clients(WRITERS, READERS);
    for i in 0..CYCLES {
        builder = builder.with_partition_window(&PartitionWindow {
            ranks: (0..=F).collect(),
            start: i * PERIOD,
            end: i * PERIOD + PERIOD * duty_pct / 100,
        });
    }
    let mut cluster = builder.build().expect("valid bench parameters");

    // One op per handle, spread uniformly over the schedule: writes on the
    // period grid, reads half a step later, so both races every window edge.
    let step = HORIZON / WRITERS as u64;
    let start = Instant::now();
    for j in 0..WRITERS {
        let at = SimTime::from_ticks(j as u64 * step);
        cluster.invoke_write_at(at, j, vec![j as u8 + 1; 64]);
    }
    for j in 0..READERS {
        let at = SimTime::from_ticks(j as u64 * step + step / 2);
        cluster.invoke_read_at(at, j);
    }
    let outcome = cluster.run_to_quiescence();
    let seconds = start.elapsed().as_secs_f64();
    assert!(!outcome.hit_event_cap, "{}", kind.name());

    let ops = cluster.completed_ops();
    let invoked = WRITERS + READERS;
    let completed = ops.len();
    if duty_pct == 0 {
        assert_eq!(
            completed,
            invoked,
            "{}: duty 0 must complete every operation",
            kind.name()
        );
    }
    // Whatever completed must still read atomically.
    cluster
        .closed_history(&[])
        .check_atomicity()
        .unwrap_or_else(|v| panic!("{} at duty {duty_pct}: {v}", kind.name()));

    let total_latency: u64 = ops
        .iter()
        .map(|op| op.completed_at.ticks() - op.invoked_at.ticks())
        .sum();
    Row {
        protocol: kind.name().to_string(),
        n: N,
        f: F,
        duty_pct,
        invoked,
        completed,
        completion_ratio: completed as f64 / invoked as f64,
        mean_latency_ticks: if completed == 0 {
            0.0
        } else {
            total_latency as f64 / completed as f64
        },
        messages_partitioned: cluster.stats().messages_partitioned,
        seconds,
    }
}

fn main() {
    let mut rows = Vec::new();
    for kind in [ProtocolKind::Soda, ProtocolKind::Abd] {
        for duty_pct in [0u64, 25, 50, 75] {
            let row = measure(kind, duty_pct);
            println!(
                "partition/{:<4} duty={:>2}% completed {:>2}/{} (ratio {:.3}), \
                 mean latency {:>6.1} ticks, {:>5} msgs cut",
                row.protocol,
                row.duty_pct,
                row.completed,
                row.invoked,
                row.completion_ratio,
                row.mean_latency_ticks,
                row.messages_partitioned
            );
            rows.push(row);
        }
    }
    // `cargo bench` forwards flags like `--bench` to the binary; the JSON
    // output path is the first non-flag argument.
    let json_path = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
    maybe_write_json(json_path.as_deref(), &to_json(&rows));
}
