//! The per-layer numbers of a traced run: derived from the spans of the
//! traced epochs, the store's own counters, and the micro-probes — plus the
//! reconciliation of the layers' numbers with the store's.

use crate::probes::{self, ProbeParams};
use crate::run::one_epoch;
use crate::spec::{kind_slug, Shape, StoreShape, Workload};
use crate::stats;
use crate::store_run::{EpochId, EpochOutcome, StoreFacts, Verify};
use crate::trace::{Span, Tracer, NONE};
use soda_registry::ProtocolKind;
use soda_store::{PoolMetrics, StoreRuntime};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<String, f64>,
    /// Reconciliation lines, for people.
    pub notes: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// Sums of the spans one traced store epoch recorded.
#[derive(Default)]
struct EpochSpans {
    build_s: f64,
    preload_issue_s: f64,
    preload_drain_s: f64,
    issue_s: f64,
    redeem_s: f64,
    round_s: f64,
    /// Drain wall-clock of each round, in order.
    drains_s: Vec<f64>,
    metrics_s: Vec<f64>,
}

fn spans_by_epoch(spans: &[Span]) -> Vec<EpochSpans> {
    let mut by_epoch: BTreeMap<u32, EpochSpans> = BTreeMap::new();
    for span in spans {
        let epoch = by_epoch.entry(span.epoch).or_default();
        let in_preload = span.parent != NONE && spans[span.parent as usize].name == "preload";
        let s = span.seconds();
        match (span.name, in_preload) {
            ("build", _) => epoch.build_s += s,
            ("issue", true) => epoch.preload_issue_s += s,
            ("drain", true) => epoch.preload_drain_s += s,
            ("issue", false) => epoch.issue_s += s,
            ("redeem", false) => epoch.redeem_s += s,
            ("drain", false) => epoch.drains_s.push(s),
            ("round", _) => epoch.round_s += s,
            ("metrics", _) => epoch.metrics_s.push(s),
            _ => {}
        }
    }
    by_epoch.into_values().collect()
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(f).collect::<Vec<_>>())
}

fn sum_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).fold(0.0, |a, b| a + b)
}

/// The kinds a workload uses, one of each slug, in order of first use.
fn distinct_kinds(own: impl Iterator<Item = ProtocolKind>) -> Vec<ProtocolKind> {
    let mut kinds: Vec<ProtocolKind> = Vec::new();
    for kind in own {
        if !kinds.iter().any(|&k| kind_slug(k) == kind_slug(kind)) {
            kinds.push(kind);
        }
    }
    kinds
}

/// Derives the per-layer metrics of `workload` from a traced run whose even
/// epochs were traced and odd epochs were not. Only the layers and kinds the
/// workload exercises are measured; the other names stay undefined.
pub fn derive(
    workload: &Workload,
    seed: u64,
    base: u64,
    epochs: &[EpochOutcome],
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let traced: Vec<&EpochOutcome> = epochs.iter().step_by(2).collect();
    let untraced: Vec<&EpochOutcome> = epochs.iter().skip(1).step_by(2).collect();
    layers.set(
        "trace.overhead_share",
        median_of(&traced, |e| e.wall_s) / median_of(&untraced, |e| e.wall_s) - 1.0,
    );

    let (params, kinds) = match &workload.shape {
        Shape::Store(shape) => (
            ProbeParams {
                n: shape.n,
                f: shape.f,
                value_size: shape.value_size,
                ops_per_key: (traced[0].attempted as usize).div_ceil(shape.keys),
                seed,
            },
            distinct_kinds(shape.kinds.iter().copied()),
        ),
        // The campaign's configs share one cluster shape.
        Shape::Explore(shape) => (
            ProbeParams {
                n: shape.configs[0].n,
                f: shape.configs[0].f,
                value_size: shape.configs[0].value_size,
                ops_per_key: shape.configs[0].ops,
                seed,
            },
            distinct_kinds(shape.configs.iter().map(|c| c.kind)),
        ),
    };

    let mut measured = Vec::new();
    for &kind in &kinds {
        probes::registry(&params, kind, kind_slug(kind), &mut measured);
    }
    let is_campaign = matches!(workload.shape, Shape::Explore(_));
    probes::simnet(&params, is_campaign, &mut measured);
    // ABD replicates whole values: a workload of ABD alone codes nothing.
    if kinds.iter().any(|&k| k != ProtocolKind::Abd) {
        let with_errors = kinds
            .iter()
            .any(|k| matches!(k, ProtocolKind::SodaErr { .. }));
        probes::rs(&params, with_errors, &mut measured);
        probes::gf(&params, &mut measured);
    }
    if let Shape::Explore(shape) = &workload.shape {
        probes::workload(shape, seed, &mut measured);
    }
    for (name, value) in measured {
        layers.set(&name, value);
    }

    if let Shape::Store(shape) = &workload.shape {
        let facts: Vec<&StoreFacts> = traced
            .iter()
            .map(|e| {
                e.store
                    .as_ref()
                    .expect("a verified store epoch carries facts")
            })
            .collect();
        store_layers(&mut layers, workload.name, shape, &traced, &facts, tracer);
        if shape.runtime != StoreRuntime::Simulation {
            // One more epoch of the first traced epoch's inputs, serially.
            let id = EpochId {
                seed: base,
                index: u32::MAX,
            };
            let serial = Some(StoreRuntime::Simulation);
            let serial = one_epoch(workload, serial, shape.rounds, id, Verify::Rounds, tracer)?;
            let ops_per_s = |e: &EpochOutcome| e.completed as f64 / e.wall_s;
            layers.set(
                "pool.speedup_vs_serial",
                ops_per_s(traced[0]) / ops_per_s(&serial),
            );
        }
    }
    Ok(layers)
}

fn store_layers(
    layers: &mut Layers,
    name: &str,
    shape: &StoreShape,
    traced: &[&EpochOutcome],
    facts: &[&StoreFacts],
    tracer: &Tracer,
) {
    let epochs = spans_by_epoch(tracer.spans());
    let keys = shape.keys as f64;
    let all_ops = sum_of(traced, |e| e.attempted as f64);
    let round_ops = all_ops - keys * traced.len() as f64;
    let drains_ms: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.drains_s.iter().map(|s| s * 1e3))
        .collect();
    let rounds = drains_ms.len() as f64;
    let drains_sorted = stats::sorted(&drains_ms);
    let (issue_s, redeem_s, round_s) = (
        sum_of(&epochs, |e| e.issue_s),
        sum_of(&epochs, |e| e.redeem_s),
        sum_of(&epochs, |e| e.round_s),
    );
    let drain_s = sum_of(&epochs, |e| e.drains_s.iter().sum());
    let all_drain_s = drain_s + sum_of(&epochs, |e| e.preload_drain_s);

    // Clusters are built lazily, on a key's first put, so construction is
    // the builder plus the preload's issue.
    layers.set(
        "store.construct_us_per_key",
        median_of(&epochs, |e| (e.build_s + e.preload_issue_s) / keys * 1e6),
    );
    layers.set("store.issue_us_per_op", issue_s / round_ops * 1e6);
    layers.set("store.redeem_us_per_op", redeem_s / round_ops * 1e6);
    layers.set("store.drain_ms_p50", stats::quantile(&drains_sorted, 0.5));
    layers.set("store.drain_ms_p95", stats::quantile(&drains_sorted, 0.95));
    layers.set("store.drain_share", drain_s / round_s);
    let metrics_ms: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.metrics_s.iter().map(|s| s * 1e3))
        .collect();
    layers.set("store.metrics_call_ms", stats::median(&metrics_ms));
    let decile_ms = |e: &EpochSpans, last: bool| {
        let width = e.drains_s.len().div_ceil(10);
        let from = if last { e.drains_s.len() - width } else { 0 };
        stats::median(&e.drains_s[from..from + width]) * 1e3
    };
    layers.set(
        "store.drain_first_decile_ms",
        median_of(&epochs, |e| decile_ms(e, false)),
    );
    layers.set(
        "store.drain_last_decile_ms",
        median_of(&epochs, |e| decile_ms(e, true)),
    );
    layers.set(
        "store.uptime_slowdown",
        median_of(&epochs, |e| decile_ms(e, true) / decile_ms(e, false)),
    );
    // What the layers below explain of the store's drains.
    let explained_s = sum_of(facts, |f| {
        sum_of(&f.ops_by_shard, |&(slug, puts, gets)| {
            let us = |op: &str| layers.values[&format!("registry.{slug}.{op}_us")];
            (puts as f64 * us("put") + gets as f64 * us("get")) * 1e-6
        })
    });
    let residue = (all_drain_s - explained_s) / all_drain_s;
    layers.set("store.residue_share", residue);
    // A round's self time is what its three children leave unexplained.
    let round_self_s: f64 = (0..tracer.spans().len() as u32)
        .filter(|&id| tracer.spans()[id as usize].name == "round")
        .map(|id| tracer.self_seconds(id))
        .sum();
    let gap = round_self_s / round_s;
    layers.notes.push(format!(
        "reconcile {name} round = issue + drain + redeem: {:.3} ms = {:.3} + {:.3} + {:.3} ms, \
         gap {:.2} % ({})",
        round_s / rounds * 1e3,
        issue_s / rounds * 1e3,
        drain_s / rounds * 1e3,
        redeem_s / rounds * 1e3,
        gap * 100.0,
        if gap.abs() <= 0.02 {
            "closes"
        } else {
            "DOES NOT CLOSE within 2 %"
        },
    ));
    layers.notes.push(format!(
        "reconcile {name} drain = layers below + residue: {:.1} us/op drained, {:.1} us/op \
         explained by the registry put/get probes, residue {:.1} % (harvest, settlement, pool \
         hand-off)",
        all_drain_s / all_ops * 1e6,
        explained_s / all_ops * 1e6,
        residue * 100.0,
    ));

    // Only a workload with a coded kind decodes at all.
    let decodes = sum_of(facts, |f| {
        (f.decode_cache_hits + f.decode_cache_misses) as f64
    });
    if decodes > 0.0 {
        layers.set(
            "rs.decode_cache_hit_rate",
            sum_of(facts, |f| f.decode_cache_hits as f64) / decodes,
        );
        layers.set(
            "rs.inversions_per_kop",
            sum_of(facts, |f| f.decode_inversions as f64) / all_ops * 1e3,
        );
    }
    layers.set(
        "consistency.check_us_per_op",
        sum_of(facts, |f| f.check_s) / all_ops * 1e6,
    );
    layers.set(
        "consistency.keyed_history_us_per_op",
        sum_of(facts, |f| f.keyed_history_s) / all_ops * 1e6,
    );

    // Scheduling counters vary run to run; histories never do. A serial
    // runtime has no pool.
    if shape.runtime == StoreRuntime::Simulation {
        return;
    }
    let workers = facts[0].workers as f64;
    let drains = sum_of(facts, |f| f.drains as f64);
    let pool = |f: fn(&PoolMetrics) -> u64| {
        sum_of(facts, |facts| {
            facts.pool.as_ref().map_or(0.0, |p| f(p) as f64)
        })
    };
    layers.set("pool.workers", workers);
    layers.set("pool.tasks_per_drain", pool(|p| p.tasks_executed) / drains);
    layers.set("pool.steals_per_drain", pool(|p| p.steals) / drains);
    layers.set(
        "pool.busy_share",
        pool(|p| p.busy_nanos) * 1e-9 / (workers * all_drain_s),
    );
}
