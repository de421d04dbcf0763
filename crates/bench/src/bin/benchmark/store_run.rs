//! One epoch of a store workload: build a store, preload one put per key, run
//! the closed-loop rounds, then verify everything the store returned.
//!
//! Only calls into the store are timed. The generator's work between rounds
//! (drawing keys, filling values, checking hashes) is outside every timed
//! segment, so `wall_s` is the time a user of the store would have waited.

use crate::gen::{self, Rng};
use crate::spec::{kind_slug, StoreShape};
use crate::trace::{SpanId, Tracer, NONE};
use soda_registry::OpKind;
use soda_store::{PoolMetrics, ShardedStore, StoreBuilder, StoreRuntime, Ticket};
use std::hint::black_box;
use std::time::Instant;

/// One operation of a round's plan. The key is cloned ahead of time because
/// the store's API takes it by value.
struct PlannedOp {
    key_index: usize,
    key: Vec<u8>,
    /// `Some` for a put, `None` for a get.
    value: Option<Vec<u8>>,
}

/// What the paper's cost model says about an epoch: exact per seed, the same
/// under every runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelCost {
    pub sim_put_ticks_mean: f64,
    pub sim_get_ticks_mean: f64,
    pub comm_cost: f64,
    pub storage_cost: f64,
}

/// Facts about a finished store epoch beyond its timings.
pub struct StoreFacts {
    /// `(kind slug, completed puts, completed gets)` per shard.
    pub ops_by_shard: Vec<(&'static str, u64, u64)>,
    pub decode_cache_hits: u64,
    pub decode_cache_misses: u64,
    pub decode_inversions: u64,
    pub pool: Option<PoolMetrics>,
    pub workers: usize,
    pub drains: u64,
    pub keyed_history_s: f64,
    pub check_s: f64,
    /// Hash of every field of every operation of `keyed_history()`, when
    /// asked for.
    pub history_digest: Option<u64>,
}

pub struct EpochOutcome {
    /// Sum of the timed segments.
    pub wall_s: f64,
    /// Process CPU time between the epoch's first and last timed segment.
    pub cpu_s: f64,
    pub round_ms: Vec<f64>,
    pub attempted: u64,
    /// Operations that completed with a correct result.
    pub completed: u64,
    /// `None` for a warm-up epoch, whose results are discarded.
    pub model: Option<ModelCost>,
    pub store: Option<StoreFacts>,
}

/// How much of an epoch's output is checked. Every epoch checks each round
/// as it goes (nothing pending, every get returns a value written to its
/// key); a measured epoch also checks per-key atomicity afterwards.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Round-by-round checks only: warm-up epochs, whose results are discarded.
    Rounds,
    Atomicity,
    /// Atomicity, and a digest of the whole history for `--selfcheck`.
    AtomicityAndDigest,
}

/// Where an epoch sits in the run, for its spans.
#[derive(Clone, Copy)]
pub struct EpochId {
    pub seed: u64,
    pub index: u32,
}

struct Epoch<'a> {
    tracer: &'a mut Tracer,
    span: SpanId,
    index: u32,
    store: ShardedStore,
    /// Hashes of every value written to each key so far.
    written: Vec<Vec<u64>>,
    wall_s: f64,
    round_ms: Vec<f64>,
    attempted: u64,
    completed: u64,
    drains: u64,
}

/// Runs `call` under a span named `name` at `(parent, epoch, round)`; returns
/// its result and how many seconds it took.
fn spanned<T>(
    tracer: &mut Tracer,
    name: &'static str,
    (parent, epoch, round): (SpanId, u32, u32),
    call: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.open(name, parent, epoch, round);
    let start = Instant::now();
    let out = call();
    let seconds = start.elapsed().as_secs_f64();
    tracer.close(span);
    (out, seconds)
}

impl Epoch<'_> {
    /// Times `call` as one segment of the epoch under a span named `name`.
    fn timed<T>(
        &mut self,
        name: &'static str,
        round: u32,
        call: impl FnOnce(&mut ShardedStore) -> T,
    ) -> T {
        let at = (self.span, self.index, round);
        let (out, seconds) = spanned(self.tracer, name, at, || call(&mut self.store));
        self.wall_s += seconds;
        out
    }

    /// Issues the plan, drains the store, redeems every ticket (all timed as
    /// one round), then checks each outcome against the generator's record.
    fn round(
        &mut self,
        name: &'static str,
        round: u32,
        plan: Vec<PlannedOp>,
    ) -> Result<(), String> {
        let mut expected: Vec<(usize, bool)> = Vec::with_capacity(plan.len());
        for op in &plan {
            if let Some(value) = &op.value {
                self.written[op.key_index].push(gen::hash(value));
            }
            expected.push((op.key_index, op.value.is_some()));
        }
        let mut tickets: Vec<Ticket> = Vec::with_capacity(plan.len());
        let tracer = &mut *self.tracer;
        let store = &mut self.store;

        let round_span = tracer.open(name, self.span, self.index, round);
        let start = Instant::now();
        let span = tracer.open("issue", round_span, self.index, round);
        for op in plan {
            tickets.push(match op.value {
                Some(value) => store.put(op.key, value),
                None => store.get(op.key),
            });
        }
        tracer.close(span);
        let span = tracer.open("drain", round_span, self.index, round);
        let drained = store.run_until_quiescent();
        tracer.close(span);
        let span = tracer.open("redeem", round_span, self.index, round);
        let done = tickets
            .iter()
            .filter(|&&ticket| store.outcome(ticket).is_some())
            .count();
        black_box(done);
        tracer.close(span);
        let elapsed = start.elapsed().as_secs_f64();
        tracer.close(round_span);

        self.wall_s += elapsed;
        self.round_ms.push(elapsed * 1e3);
        self.drains += 1;
        self.attempted += tickets.len() as u64;
        if drained.hit_event_cap {
            return Err(format!("round {round}: a shard hit its event cap"));
        }
        if drained.pending_tickets != 0 {
            return Err(format!(
                "round {round}: {} tickets still pending after the drain",
                drained.pending_tickets
            ));
        }
        for (&ticket, &(key_index, is_put)) in tickets.iter().zip(&expected) {
            let Some(outcome) = self.store.outcome(ticket) else {
                continue;
            };
            let right_kind = (outcome.kind == OpKind::Write) == is_put;
            let right_value = is_put
                || outcome
                    .value
                    .as_deref()
                    .is_some_and(|v| self.written[key_index].contains(&gen::hash(v)));
            self.completed += u64::from(right_kind && right_value);
        }
        Ok(())
    }
}

/// Draws one round's plan: every chosen key gets a put with probability
/// `1 − read_share`, else a get, and with probability 1/8 both — a get
/// concurrent with a put on the same key, so reads overlap writes.
fn plan_round(
    shape: &StoreShape,
    keys: &[Vec<u8>],
    order: &mut [usize],
    choices: &mut Rng,
    values: &mut Rng,
) -> Vec<PlannedOp> {
    gen::choose(choices, order, shape.keys_per_round);
    let mut plan = Vec::with_capacity(shape.keys_per_round * 9 / 8 + 1);
    for &key_index in &order[..shape.keys_per_round] {
        let both = choices.chance(0.125);
        let put = both || !choices.chance(shape.read_share);
        let mut push = |value| {
            plan.push(PlannedOp {
                key_index,
                key: keys[key_index].clone(),
                value,
            })
        };
        if put {
            push(Some(gen::value(values, shape.value_size)));
        }
        if both || !put {
            push(None);
        }
    }
    plan
}

/// Runs one epoch of `shape` with `rounds` rounds under `runtime`.
///
/// Returns `Err` with a description when the store's output is wrong: an
/// operation left pending, a get returning a value never written to its key,
/// or a per-key atomicity violation.
pub fn run_epoch(
    shape: &StoreShape,
    runtime: StoreRuntime,
    rounds: usize,
    id: EpochId,
    verify: Verify,
    tracer: &mut Tracer,
) -> Result<EpochOutcome, String> {
    let mut choices = gen::stream(id.seed, 2);
    let mut values = gen::stream(id.seed, 3);
    let mut order: Vec<usize> = (0..shape.keys).collect();
    let shards = shape.kinds.len();

    let cpu_start = crate::host::cpu_seconds();
    let span = tracer.open("epoch", NONE, id.index, 0);
    let build_span = tracer.open("build", span, id.index, 0);
    let start = Instant::now();
    let store = StoreBuilder::new(shards, shape.kinds[0], shape.n, shape.f)
        .with_shard_kinds(shape.kinds.clone())
        .with_clients_per_key(2, 2)
        .with_seed(id.seed)
        .with_runtime(runtime)
        .build()
        .map_err(|e| format!("store construction failed: {e}"))?;
    let build_s = start.elapsed().as_secs_f64();
    tracer.close(build_span);

    let keys = gen::balanced_keys(&mut gen::stream(id.seed, 1), shape.keys, shards, |key| {
        store.shard_of(key)
    });
    let preload: Vec<PlannedOp> = keys
        .iter()
        .enumerate()
        .map(|(key_index, key)| PlannedOp {
            key_index,
            key: key.clone(),
            value: Some(gen::value(&mut values, shape.value_size)),
        })
        .collect();
    let mut epoch = Epoch {
        tracer,
        span,
        index: id.index,
        store,
        written: vec![Vec::new(); shape.keys],
        wall_s: build_s,
        round_ms: Vec::with_capacity(rounds),
        attempted: 0,
        completed: 0,
        drains: 0,
    };
    epoch.round("preload", 0, preload)?;
    // The preload is part of the epoch but not one of its rounds.
    epoch.round_ms.clear();

    let crash_rank = id.index as usize % shape.n;
    for round in 0..rounds {
        let r = round as u32 + 1;
        if shape.crash_and_repair && round == rounds / 4 {
            epoch
                .timed("crash", r, |store| {
                    (0..shards).try_for_each(|shard| store.crash_shard_server(shard, crash_rank))
                })
                .map_err(|e| format!("crash refused: {e}"))?;
        }
        if shape.crash_and_repair && round == rounds / 2 {
            epoch
                .timed("repair", r, |store| {
                    (0..shards).try_for_each(|shard| store.repair_shard_server(shard, crash_rank))
                })
                .map_err(|e| format!("repair refused: {e}"))?;
        }
        let plan = plan_round(shape, &keys, &mut order, &mut choices, &mut values);
        epoch.round("round", r, plan)?;
        if shape.metrics_every > 0 && (round + 1) % shape.metrics_every == 0 {
            epoch.timed("metrics", r, |store| {
                black_box(store.metrics().aggregate.completed_ops());
            });
        }
    }
    let cpu_s = crate::host::cpu_seconds() - cpu_start;
    let Epoch {
        tracer,
        store,
        wall_s,
        round_ms,
        attempted,
        completed,
        drains,
        ..
    } = epoch;
    tracer.close(span);
    let mut outcome = EpochOutcome {
        wall_s,
        cpu_s,
        round_ms,
        attempted,
        completed,
        model: None,
        store: None,
    };
    if verify == Verify::Rounds {
        return Ok(outcome);
    }

    // Verification and the cost model's numbers — outside the timed region.
    let verify_span = tracer.open("verify", NONE, id.index, 0);
    let at = (verify_span, id.index, 0);
    let (metrics, _) = spanned(tracer, "metrics", at, || store.metrics());
    let (history, keyed_history_s) = spanned(tracer, "keyed_history", at, || store.keyed_history());
    let (checked, check_s) = spanned(tracer, "check", at, || history.check_each_key());
    tracer.close(verify_span);
    checked.map_err(|violation| format!("per-key atomicity violated: {violation:?}"))?;

    let totals = &metrics.aggregate;
    if totals.pending_tickets != 0 {
        return Err(format!(
            "{} tickets pending at epoch end",
            totals.pending_tickets
        ));
    }
    let value_size = shape.value_size as f64;
    let history_digest = (verify == Verify::AtomicityAndDigest).then(|| {
        history.ops().iter().fold(0u64, |digest, op| {
            let fields = [
                digest,
                gen::hash(&op.key),
                op.client,
                gen::hash(format!("{:?}", op.kind).as_bytes()),
                op.invoked,
                op.responded,
                gen::hash(&op.value),
                op.version.z,
                op.version.writer,
            ];
            gen::hash(&fields.map(u64::to_le_bytes).concat())
        })
    });
    outcome.model = Some(ModelCost {
        sim_put_ticks_mean: totals.put_latency.mean(),
        sim_get_ticks_mean: totals.get_latency.mean(),
        comm_cost: totals.data_bytes_sent as f64 / (totals.completed_ops() as f64 * value_size),
        storage_cost: totals.stored_bytes as f64 / (totals.keys as f64 * value_size),
    });
    outcome.store = Some(StoreFacts {
        ops_by_shard: metrics
            .per_shard
            .iter()
            .zip(&shape.kinds)
            .map(|(m, &kind)| (kind_slug(kind), m.completed_puts, m.completed_gets))
            .collect(),
        decode_cache_hits: totals.decode_cache_hits,
        decode_cache_misses: totals.decode_cache_misses,
        decode_inversions: totals.decode_inversions,
        pool: store.pool_metrics(),
        workers: store.pool_workers(),
        drains,
        keyed_history_s,
        check_s,
        history_digest,
    });
    Ok(outcome)
}
