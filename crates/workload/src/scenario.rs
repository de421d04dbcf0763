//! The measurement scenario: build a cluster, drive a shaped workload, and
//! return the normalized costs, latencies and the atomicity-checked history.
//!
//! There is exactly **one** runner for all five protocols, driving them
//! through the [`soda_registry::RegisterCluster`] facade; the algorithm is selected by
//! [`ScenarioParams::kind`]. Every protocol is therefore measured with the
//! same three-phase procedure, so Table I's numbers are directly comparable:
//!
//! 1. **setup** — one write establishes a non-initial version everywhere;
//! 2. **solo write** — a single write with nothing else running measures the
//!    write communication cost and write latency;
//! 3. **read under concurrency** — one read is invoked together with `δw`
//!    writes (one per concurrent writer), measuring the read communication
//!    cost, the read latency and the *actual* number of concurrent writes.
//!    One rule charges a read under every protocol: the value-data bytes
//!    into plus out of its reader's process over the phase. Readers that send
//!    only metadata (SODA, SODAerr, CAS, CASGC) are charged what they
//!    receive; an ABD read is also charged the value it writes back.
//!
//! Storage cost is measured at the end, after the system quiesces.

use soda_consistency::{History, Kind};
use soda_registry::{ClusterBuilder, ClusterDescriptor, ProtocolKind};
use soda_simnet::{NetworkConfig, Stats};

/// Parameters of one measurement scenario.
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// The algorithm to measure.
    pub kind: ProtocolKind,
    /// Number of servers.
    pub n: usize,
    /// Tolerated crashes.
    pub f: usize,
    /// Number of writes invoked concurrently with the measured read.
    pub delta_w: usize,
    /// Size of every written value, in bytes.
    pub value_size: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Network delay bound Δ (uniform delays in `[1, Δ]`).
    pub delta: u64,
    /// Use a constant delay of exactly Δ instead of uniform `[1, Δ]`.
    pub constant_delay: bool,
    /// Ranks of byzantine servers, which corrupt every coded element they
    /// send a reader (SODA / SODAerr only).
    pub byzantine_servers: Vec<usize>,
}

impl ScenarioParams {
    /// Sensible defaults for a `kind` cluster of `(n, f)`: no concurrency,
    /// 4 KiB values, Δ = 10.
    pub fn new(kind: ProtocolKind, n: usize, f: usize) -> Self {
        ScenarioParams {
            kind,
            n,
            f,
            delta_w: 0,
            value_size: 4096,
            seed: 1,
            delta: 10,
            constant_delay: false,
            byzantine_servers: Vec::new(),
        }
    }
}

/// The measurements extracted from one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The cluster that was measured; its `paper_*` methods give the closed
    /// forms the measurements are compared against.
    pub descriptor: ClusterDescriptor,
    /// Normalized communication cost of the solo write (data bytes / value size).
    pub write_cost: f64,
    /// Normalized communication cost of the measured read.
    pub read_cost: f64,
    /// Normalized total storage cost at the end of the run.
    pub storage_cost: f64,
    /// Number of writes that were actually concurrent with the measured read.
    pub delta_w_actual: usize,
    /// Latency of the solo write in ticks.
    pub write_latency: u64,
    /// Latency of the measured read in ticks.
    pub read_latency: u64,
    /// The Δ bound used by the network (for converting latencies to Δ units).
    pub delta: u64,
    /// Number of reads that completed.
    pub reads_completed: usize,
    /// The full operation history.
    pub history: History,
    /// Whether the history passed the atomicity checker.
    pub atomic: bool,
}

impl ScenarioOutcome {
    /// Write latency in units of Δ.
    pub fn write_latency_deltas(&self) -> f64 {
        self.write_latency as f64 / self.delta as f64
    }

    /// Read latency in units of Δ.
    pub fn read_latency_deltas(&self) -> f64 {
        self.read_latency as f64 / self.delta as f64
    }
}

fn network(delta: u64, constant: bool) -> NetworkConfig {
    if constant {
        NetworkConfig::constant(delta)
    } else {
        NetworkConfig::uniform(delta)
    }
}

pub(crate) fn value_of(size: usize, fill: u8) -> Vec<u8> {
    (0..size).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// Runs the standard measurement scenario against any protocol.
///
/// # Panics
/// Panics if the parameter combination is invalid (see
/// [`ClusterBuilder::validate`]).
pub fn run_scenario(params: &ScenarioParams) -> ScenarioOutcome {
    let writers_needed = params.delta_w.max(1);
    let mut cluster = ClusterBuilder::new(params.kind, params.n, params.f)
        .with_seed(params.seed)
        .with_clients(writers_needed, 1)
        .with_network(network(params.delta, params.constant_delay))
        .with_byzantine_servers(params.byzantine_servers.clone())
        .build()
        .unwrap_or_else(|e| panic!("invalid scenario parameters: {e}"));
    let value_size = params.value_size;

    // Phase 1: setup write.
    cluster.invoke_write(0, value_of(value_size, 1));
    cluster.run_to_quiescence();

    // Phase 2: solo write to measure write cost.
    let before_write = cluster.stats().data_bytes_sent;
    cluster.invoke_write(0, value_of(value_size, 2));
    cluster.run_to_quiescence();
    let write_bytes = cluster.stats().data_bytes_sent - before_write;
    let write_cost = write_bytes as f64 / value_size as f64;

    // Phase 3: one read invoked together with delta_w concurrent writes,
    // charged the value bytes into and out of its reader.
    let reader = cluster.reader_process(0).index();
    let reader_bytes = |stats: &Stats| {
        stats
            .per_process
            .get(reader)
            .map_or(0, |p| p.data_bytes_received + p.data_bytes_sent)
    };
    let before_read = reader_bytes(cluster.stats());
    let start = cluster.now() + 10;
    cluster.invoke_read_at(start, 0);
    for i in 0..params.delta_w {
        cluster.invoke_write_at(start, i % writers_needed, value_of(value_size, 3 + i as u8));
    }
    cluster.run_to_quiescence();
    let read_bytes = reader_bytes(cluster.stats()) - before_read;
    let read_cost = read_bytes as f64 / value_size as f64;

    let storage_cost = cluster.total_stored_bytes() as f64 / value_size as f64;

    let ops = cluster.completed_ops();
    let history = cluster.history(&[]);
    let atomic = history.check_atomicity().is_ok();

    let write_latency = ops
        .iter()
        .filter(|o| o.kind.is_write())
        .nth(1)
        .map(|o| o.latency())
        .unwrap_or(0);
    let reads: Vec<_> = ops.iter().filter(|o| o.kind.is_read()).collect();
    let read_latency = reads.first().map(|o| o.latency()).unwrap_or(0);
    let reads_completed = reads.len();
    let delta_w_actual = history
        .ops()
        .iter()
        .filter(|o| o.kind == Kind::Read)
        .map(|o| history.concurrent_writes(o.id))
        .max()
        .unwrap_or(0);

    ScenarioOutcome {
        descriptor: *cluster.descriptor(),
        write_cost,
        read_cost,
        storage_cost,
        delta_w_actual,
        write_latency,
        read_latency,
        delta: params.delta,
        reads_completed,
        history,
        atomic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soda_scenario_produces_consistent_measurements() {
        let params = ScenarioParams {
            value_size: 2048,
            ..ScenarioParams::new(ProtocolKind::Soda, 5, 2)
        };
        let outcome = run_scenario(&params);
        assert!(outcome.atomic, "history must be atomic");
        assert!(outcome.write_cost > 0.0);
        assert!(outcome.read_cost > 0.0);
        // Storage is close to n/(n-f) = 5/3.
        assert!((outcome.storage_cost - 5.0 / 3.0).abs() < 0.1);
        assert_eq!(outcome.reads_completed, 1);
        assert!(outcome.write_latency > 0);
        assert!(outcome.read_latency > 0);
    }

    #[test]
    fn soda_scenario_with_concurrency_reports_delta_w() {
        let params = ScenarioParams {
            delta_w: 3,
            value_size: 1024,
            ..ScenarioParams::new(ProtocolKind::Soda, 5, 2)
        };
        let outcome = run_scenario(&params);
        assert!(outcome.atomic);
        assert!(outcome.delta_w_actual >= 1, "writes must overlap the read");
        // Read cost grows with concurrency but stays within the paper bound
        // n/(n-f) * (delta_w_actual + 1) plus chunking slack.
        let bound = 5.0 / 3.0 * (outcome.delta_w_actual + 1) as f64 + 0.5;
        assert!(
            outcome.read_cost <= bound,
            "read cost {} exceeds bound {}",
            outcome.read_cost,
            bound
        );
    }

    #[test]
    fn abd_scenario_costs_scale_with_n() {
        let outcome = run_scenario(&ScenarioParams {
            value_size: 2048,
            seed: 3,
            delta: 8,
            ..ScenarioParams::new(ProtocolKind::Abd, 5, 2)
        });
        assert!(outcome.atomic);
        assert!(outcome.storage_cost > 4.9, "ABD stores n full copies");
        assert!(outcome.write_cost >= 5.0, "ABD write cost is at least n");
    }

    #[test]
    fn casgc_scenario_costs_match_coded_baseline() {
        let outcome = run_scenario(&ScenarioParams {
            value_size: 2048,
            seed: 4,
            delta: 8,
            ..ScenarioParams::new(ProtocolKind::Casgc { gc: 2 }, 5, 1)
        });
        assert!(outcome.atomic);
        // Per-op communication ~ n/(n-2f) = 5/3.
        assert!(outcome.write_cost < 3.0);
        assert!(outcome.read_cost < 3.0);
    }

    #[test]
    fn every_kind_runs_the_same_scenario() {
        for kind in [
            ProtocolKind::Soda,
            ProtocolKind::SodaErr { e: 1 },
            ProtocolKind::Abd,
            ProtocolKind::Cas,
            ProtocolKind::Casgc { gc: 1 },
        ] {
            let n = if kind.error_budget() > 0 { 7 } else { 5 };
            let outcome = run_scenario(&ScenarioParams {
                delta_w: 1,
                value_size: 1024,
                ..ScenarioParams::new(kind, n, 2)
            });
            assert!(outcome.atomic, "{}: history must be atomic", kind.name());
            assert_eq!(outcome.reads_completed, 1, "{}", kind.name());
            assert!(outcome.write_cost > 0.0, "{}", kind.name());
        }
    }
}
