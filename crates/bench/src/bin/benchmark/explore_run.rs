//! One epoch of the exploration workload: rounds of seeded adversarial
//! schedules against every configured protocol, checkers in the loop.

use crate::gen;
use crate::spec::ExploreShape;
use crate::store_run::{EpochId, EpochOutcome, ModelCost};
use crate::trace::{Tracer, NONE};
use soda_registry::{ClusterBuilder, OpKind};
use soda_workload::explore::explore;
use std::time::Instant;

/// Bare clusters per config behind one epoch's cost model: enough operations
/// that the mean latencies repeat within a fraction of a per cent over seeds.
const MODEL_CLUSTERS: usize = 128;

/// The paper's cost model for the campaign's configs. `explore()` reports no
/// cost counters, so every config is replayed without the adversary on bare
/// clusters of its shape: `cfg.ops` operations each, alternately a put and a
/// get, one at a time. Exact per seed.
fn model_cost(shape: &ExploreShape, seed: u64) -> ModelCost {
    let mut rng = gen::stream(seed, 5);
    let (mut put_ticks, mut puts, mut get_ticks, mut gets) = (0u64, 0u64, 0u64, 0u64);
    let (mut data_bytes, mut op_bytes, mut stored_bytes, mut value_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    for cfg in &shape.configs {
        for _ in 0..MODEL_CLUSTERS {
            let mut cluster = ClusterBuilder::new(cfg.kind, cfg.n, cfg.f)
                .with_clients(cfg.writers, cfg.readers)
                .with_seed(rng.next_u64())
                .build()
                .expect("the campaign's cluster parameters are valid");
            for op in 0..cfg.ops {
                if op % 2 == 0 {
                    cluster
                        .invoke_write(op / 2 % cfg.writers, gen::value(&mut rng, cfg.value_size));
                } else {
                    cluster.invoke_read(op / 2 % cfg.readers);
                }
                cluster.run_to_quiescence();
            }
            for op in cluster.completed_ops() {
                op_bytes += cfg.value_size as u64;
                match op.kind {
                    OpKind::Write => (put_ticks, puts) = (put_ticks + op.latency(), puts + 1),
                    OpKind::Read => (get_ticks, gets) = (get_ticks + op.latency(), gets + 1),
                }
            }
            data_bytes += cluster.stats().data_bytes_sent;
            stored_bytes += cluster.total_stored_bytes();
            value_bytes += cfg.value_size as u64;
        }
    }
    ModelCost {
        sim_put_ticks_mean: put_ticks as f64 / puts as f64,
        sim_get_ticks_mean: get_ticks as f64 / gets as f64,
        comm_cost: data_bytes as f64 / op_bytes as f64,
        storage_cost: stored_bytes as f64 / value_bytes as f64,
    }
}

/// Runs one epoch of `rounds` rounds, and with `with_model` works out the
/// cost model afterwards (a measured epoch; a warm-up has no use for it).
///
/// `attempted` counts planned operations and `completed` the ones that
/// finished; the difference is operations the adversary starved (clients do
/// not retransmit), which the liveness checker excuses. Returns `Err` when a
/// schedule violates atomicity or liveness or hits the event cap.
pub fn run_epoch(
    shape: &ExploreShape,
    rounds: usize,
    id: EpochId,
    with_model: bool,
    tracer: &mut Tracer,
) -> Result<EpochOutcome, String> {
    // Schedule seeds of an epoch are consecutive within its block of the
    // campaign's swept window.
    let base = shape.block_start(id.seed);
    let mut outcome = EpochOutcome {
        wall_s: 0.0,
        cpu_s: 0.0,
        round_ms: Vec::with_capacity(rounds),
        attempted: 0,
        completed: 0,
        model: None,
        store: None,
    };
    let cpu_start = crate::host::cpu_seconds();
    let span = tracer.open("epoch", NONE, id.index, 0);
    for round in 0..rounds {
        let r = round as u32 + 1;
        let seed_start = base + (round * shape.seeds_per_round) as u64;
        let round_span = tracer.open("round", span, id.index, r);
        let start = Instant::now();
        for cfg in &shape.configs {
            let explore_span = tracer.open("explore", round_span, id.index, r);
            let report = explore(cfg, seed_start, shape.seeds_per_round);
            tracer.close(explore_span);
            if !report.all_atomic() || !report.all_live() || report.event_cap_hits != 0 {
                return Err(format!(
                    "{} from seed {seed_start}: {} atomicity and {} liveness counterexamples, \
                     {} event-cap hits",
                    cfg.kind.name(),
                    report.counterexamples.len(),
                    report.liveness_counterexamples.len(),
                    report.event_cap_hits
                ));
            }
            outcome.attempted += (report.schedules * cfg.ops) as u64;
            outcome.completed += report.completed_ops as u64;
        }
        let elapsed = start.elapsed().as_secs_f64();
        tracer.close(round_span);
        outcome.wall_s += elapsed;
        outcome.round_ms.push(elapsed * 1e3);
    }
    tracer.close(span);
    outcome.cpu_s = crate::host::cpu_seconds() - cpu_start;
    outcome.model = with_model.then(|| model_cost(shape, id.seed));
    Ok(outcome)
}
