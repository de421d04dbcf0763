//! One run of one workload: set-up (warm-up epochs), the timed epochs, and —
//! in a traced run — the layer numbers derived from spans, store facts and
//! micro-probes.

use crate::explore_run;
use crate::gen;
use crate::host;
use crate::layers;
use crate::spec::{self, Shape, Workload};
use crate::stats::{self, Summary};
use crate::store_run::{self, EpochId, EpochOutcome, ModelCost, Verify};
use crate::trace::Tracer;
use crate::Options;
use soda_store::StoreRuntime;
use std::time::Instant;

/// One reported number. `spread` is present for wall-clock metrics: the
/// quartiles and count of the samples the value is the median (or a
/// percentile) of.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub epochs: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reconciliation lines of a traced run.
    pub notes: Vec<String>,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// An end-to-end run measures at least this many epochs however slow the
/// host, so every median has three samples, and the cost model — the mean
/// over exactly these first epochs — is the same number on any host.
const MIN_EPOCHS: usize = 3;

/// The share of `--seconds` a traced run spends on epochs; the rest is for
/// the micro-probes.
const TRACED_EPOCH_SHARE: f64 = 0.7;

/// Runs one epoch of `workload`, whichever kind it is.
pub fn one_epoch(
    workload: &Workload,
    runtime: Option<StoreRuntime>,
    rounds: usize,
    id: EpochId,
    verify: Verify,
    tracer: &mut Tracer,
) -> Result<EpochOutcome, String> {
    match &workload.shape {
        Shape::Store(shape) => store_run::run_epoch(
            shape,
            runtime.unwrap_or(shape.runtime),
            rounds,
            id,
            verify,
            tracer,
        ),
        Shape::Explore(shape) => {
            explore_run::run_epoch(shape, rounds, id, verify != Verify::Rounds, tracer)
        }
    }
    .map_err(|why| {
        format!(
            "{} epoch {} (seed {}): {why}",
            workload.name, id.index, id.seed
        )
    })
}

/// Runs `workload` once: set-up, then epochs for `cfg.seconds` of wall-clock
/// (verification between epochs included, so a run's length is predictable).
/// `started` is when the process started, so the first set-up pays process
/// start like a user's first scenario does.
pub fn run(
    workload: &Workload,
    cfg: &Options,
    started: Instant,
) -> Result<(RunResult, Tracer), String> {
    // Epoch seeds are consecutive from a base hashed out of `--seed`, so
    // neighbouring `--seed` values share no epoch; warm-up seeds count down
    // from the complement and never meet them.
    let base = gen::stream(cfg.seed, 0).next_u64();
    let mut tracer = Tracer::new(1 << 16);

    // One set-up is the workload's warm-up epochs: full epochs on disjoint
    // seeds, results discarded. An end-to-end run sets up several times.
    let mut setup_samples = Vec::new();
    let mut warm_seed = !base;
    for setup in 0..if cfg.traced { 1 } else { SETUPS } {
        let start = if setup == 0 { started } else { Instant::now() };
        for _ in 0..workload.warmup_epochs {
            let id = EpochId {
                seed: warm_seed,
                index: u32::MAX,
            };
            warm_seed = warm_seed.wrapping_sub(1);
            let rounds = workload.warmup_rounds;
            one_epoch(workload, None, rounds, id, Verify::Rounds, &mut tracer)?;
        }
        setup_samples.push(start.elapsed().as_secs_f64());
    }

    // A traced run traces its even epochs only, so that the odd ones measure
    // what tracing costs; it needs one of each.
    let (budget, at_least) = if cfg.traced {
        (cfg.seconds * TRACED_EPOCH_SHARE, 2)
    } else {
        (cfg.seconds, MIN_EPOCHS)
    };
    let mut epochs: Vec<EpochOutcome> = Vec::new();
    let timed = Instant::now();
    // Another epoch starts only if at least half of it fits the budget, so a
    // run's length is the budget to within half an epoch either way.
    let fits = |done: usize| {
        let elapsed = timed.elapsed().as_secs_f64();
        elapsed + 0.5 * elapsed / done as f64 <= budget
    };
    while epochs.len() < at_least || fits(epochs.len()) {
        let index = epochs.len() as u32;
        tracer.set_on(cfg.traced && index.is_multiple_of(2));
        let id = EpochId {
            seed: base.wrapping_add(u64::from(index)),
            index,
        };
        let rounds = workload.rounds();
        epochs.push(one_epoch(
            workload,
            None,
            rounds,
            id,
            Verify::Atomicity,
            &mut tracer,
        )?);
    }
    tracer.set_on(false);

    let attempted: u64 = epochs.iter().map(|e| e.attempted).sum();
    let completed: u64 = epochs.iter().map(|e| e.completed).sum();
    // On a store workload every operation must complete with a correct
    // result. In the exploration campaign the adversary starves operations by
    // design and the liveness checker (which passed) excuses exactly those,
    // so they lower `completed_ops_share` but are not failures.
    let failed = match workload.shape {
        Shape::Store(_) => attempted - completed,
        Shape::Explore(_) => 0,
    };
    if failed > 0 {
        return Err(format!(
            "{}: {failed} of {attempted} operations did not complete with a correct result",
            workload.name
        ));
    }

    let mut result = RunResult {
        workload: workload.name,
        seed: cfg.seed,
        traced: cfg.traced,
        epochs: epochs.len(),
        attempted,
        failed,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    result.notes.push(format!(
        "timing {}: set-ups {:.3?} s; {} epochs, {:.3} s timed, {:.3} s verifying, {:.3} s in all",
        workload.name,
        setup_samples,
        epochs.len(),
        epochs.iter().map(|e| e.wall_s).sum::<f64>(),
        epochs
            .iter()
            .filter_map(|e| e.store.as_ref())
            .fold(0.0, |sum, s| sum + s.keyed_history_s + s.check_s),
        started.elapsed().as_secs_f64(),
    ));
    if cfg.traced {
        let mut layers = layers::derive(workload, cfg.seed, base, &epochs, &mut tracer)?;
        result.notes.append(&mut layers.notes);
        // In the list's order; a name the workload does not define is left out.
        for (name, unit) in spec::per_layer() {
            if let Some(value) = layers.values.remove(&name) {
                result.metrics.push(Metric {
                    name,
                    unit,
                    value,
                    spread: None,
                });
            }
        }
        assert!(
            layers.values.is_empty(),
            "layer metrics missing from the list: {:?}",
            layers.values.keys()
        );
    } else {
        end_to_end(
            &epochs,
            &setup_samples,
            completed,
            attempted,
            &mut result.metrics,
        );
    }
    Ok((result, tracer))
}

fn end_to_end(
    epochs: &[EpochOutcome],
    setups: &[f64],
    completed: u64,
    attempted: u64,
    out: &mut Vec<Metric>,
) {
    // Every wall-clock metric but the tail is a median over epochs of a
    // per-epoch number, so one disturbed epoch moves none of them.
    let over_epochs = |f: &dyn Fn(&EpochOutcome) -> f64| {
        stats::summarize(&epochs.iter().map(f).collect::<Vec<_>>())
    };
    let round_median = |e: &EpochOutcome| stats::median(&e.round_ms);
    // The tail: every round as a ratio to its own epoch's median round,
    // pooled over the epochs, so the 95th percentile has dozens of samples
    // beyond it. As a ratio, because a slow moment on the host moves median
    // and tail alike: the ratio repeats where milliseconds do not.
    let ratios: Vec<f64> = epochs
        .iter()
        .flat_map(|e| {
            let median = round_median(e);
            e.round_ms.iter().map(move |ms| ms / median)
        })
        .collect();
    let tail = stats::quantile(&stats::sorted(&ratios), 0.95);
    // CPU time comes in 10 ms ticks, too coarse for one epoch: take it over
    // all of them.
    let cpu_s: f64 = epochs.iter().map(|e| e.cpu_s).sum();
    // The cost model is exact per seed; the mean over a fixed number of
    // epochs keeps it so whatever number the host's speed allows.
    let model = |f: fn(&ModelCost) -> f64| {
        let firsts = epochs[..MIN_EPOCHS].iter();
        let sum: f64 = firsts
            .map(|e| f(e.model.as_ref().expect("a measured epoch has its model")))
            .sum();
        (sum / MIN_EPOCHS as f64, None)
    };
    let spread = |summary: Summary| (summary.p50, Some(summary));
    let values = [
        spread(stats::summarize(setups)),
        spread(over_epochs(&|e| e.completed as f64 / e.wall_s)),
        spread(over_epochs(&round_median)),
        (tail, Some(stats::summarize(&ratios))),
        (cpu_s * 1e6 / completed as f64, None),
        (host::rss_peak_mib(), None),
        (completed as f64 / attempted as f64, None),
        model(|m| m.sim_put_ticks_mean),
        model(|m| m.sim_get_ticks_mean),
        model(|m| m.comm_cost),
        model(|m| m.storage_cost),
    ];
    for (def, (value, spread)) in spec::END_TO_END.iter().zip(values) {
        out.push(Metric {
            name: def.name.to_string(),
            unit: def.unit,
            value,
            spread,
        });
    }
}
