//! The five ways to run the benchmark: one workload in this process (what
//! the driver calls), all five in child processes, the determinism
//! self-check, the two-set noise gate, and the sweep of the campaign's seeds.

use crate::probes::{self, ProbeParams};
use crate::report::{self, Row};
use crate::run::{self, one_epoch};
use crate::spec::{self, Shape, Workload};
use crate::stats;
use crate::store_run::{EpochId, ModelCost, Verify};
use crate::trace::Tracer;
use crate::Options;
use soda_store::StoreRuntime;
use soda_workload::explore::explore;
use std::process::{Command, Stdio};
use std::time::Instant;

fn find_workload(name: &str) -> Result<Workload, String> {
    spec::workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// Runs one workload in this process and prints its metrics; the last line
/// of standard output is the driver's result line.
pub fn single(options: &Options, started: Instant) -> Result<(), String> {
    let name = options
        .workload
        .as_deref()
        .expect("single mode has a workload");
    let workload = find_workload(name)?;
    let (result, tracer) = run::run(&workload, options, started)?;
    if let Some(path) = &options.trace_out {
        std::fs::write(path, tracer.chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let rows = report::rows(&result);
    if let Some(path) = &options.out {
        report::write_document(path, options.seed, &rows)?;
    }
    println!(
        "workload {} seed {} epochs {} traced {}",
        result.workload, result.seed, result.epochs, result.traced as u8
    );
    report::print_rows(&rows);
    for note in &result.notes {
        println!("{note}");
    }
    println!("{}", report::result_line(&result));
    Ok(())
}

/// Runs every workload, each in a child process of its own so that
/// `rss_peak_mib` is per workload, and returns all their rows.
pub fn all(options: &Options) -> Result<Vec<Row>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut rows = Vec::new();
    for workload in spec::workloads() {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload.name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.traced { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(path) = &options.trace_out {
            command.args(["--trace-out", &format!("{path}.{}", workload.name)]);
        }
        let output = command
            .output()
            .map_err(|e| format!("cannot run the {} child: {e}", workload.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!(
                "workload {} failed ({})",
                workload.name, output.status
            ));
        }
        rows.extend(stdout.lines().filter_map(report::parse_row));
    }
    if let Some(path) = &options.out {
        report::write_document(path, options.seed, &rows)?;
    }
    Ok(rows)
}

/// What must repeat bit for bit: the cost model, the operation counts and —
/// for store workloads — the history digest.
#[derive(Debug, PartialEq)]
struct Exact {
    attempted: u64,
    completed: u64,
    model: Option<ModelCost>,
    digest: Option<u64>,
}

fn exact_epoch(workload: &Workload, runtime: Option<StoreRuntime>) -> Result<Exact, String> {
    let id = EpochId {
        seed: 0x5E1F_C4EC,
        index: 0,
    };
    let mut tracer = Tracer::new(0);
    let epoch = one_epoch(
        workload,
        runtime,
        workload.selfcheck_rounds,
        id,
        Verify::AtomicityAndDigest,
        &mut tracer,
    )?;
    Ok(Exact {
        attempted: epoch.attempted,
        completed: epoch.completed,
        model: epoch.model,
        digest: epoch.store.as_ref().and_then(|s| s.history_digest),
    })
}

/// Fast determinism check: every workload's shortened epoch twice with one
/// seed, and the mixed fleet under all three runtimes, must agree exactly on
/// everything that is not a wall-clock reading.
pub fn selfcheck() -> Result<(), String> {
    let started = Instant::now();
    for workload in spec::workloads() {
        let first = exact_epoch(&workload, None)?;
        let second = exact_epoch(&workload, None)?;
        if first != second {
            return Err(format!(
                "{}: two runs of one seed differ: {first:?} vs {second:?}",
                workload.name
            ));
        }
        println!("selfcheck {:<17} repeats exactly: {first:?}", workload.name);
        if let Shape::Store(shape) = &workload.shape {
            if shape.runtime == StoreRuntime::Simulation {
                continue;
            }
            for runtime in [StoreRuntime::Simulation, StoreRuntime::Threaded] {
                let other = exact_epoch(&workload, Some(runtime))?;
                if other != first {
                    return Err(format!(
                        "{}: {runtime:?} differs from {:?}: {other:?} vs {first:?}",
                        workload.name, shape.runtime
                    ));
                }
                println!(
                    "selfcheck {:<17} identical under {runtime:?}",
                    workload.name
                );
            }
        }
    }
    // The registry probe's counts are a pure function of its seed.
    let counts = || {
        let params = ProbeParams {
            n: 5,
            f: 2,
            value_size: 64,
            ops_per_key: 8,
            seed: 7,
        };
        let mut out = Vec::new();
        for kind in spec::ALL_KINDS {
            probes::registry(&params, kind, spec::kind_slug(kind), &mut out);
        }
        out.retain(|(name, _)| name.ends_with("_per_op"));
        out
    };
    if counts() != counts() {
        return Err("registry per-op counts differ between two runs of one seed".into());
    }
    println!("selfcheck registry msgs_per_op repeat exactly");
    println!(
        "selfcheck passed in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Runs every schedule of the campaign's seed window against every config
/// with all checkers, and lists the ones that fail. The window must be clean
/// for `explore_campaign` to pass on every `--seed`; sweep again after a
/// change that moves the schedules (a protocol's messages, the adversary's
/// draws). Ten minutes on one core.
pub fn sweep() -> Result<(), String> {
    let workload = find_workload("explore_campaign")?;
    let Shape::Explore(shape) = &workload.shape else {
        unreachable!("explore_campaign is the exploration workload");
    };
    let started = Instant::now();
    let mut bad = 0;
    for block in 0..spec::CAMPAIGN_BLOCKS {
        let first = shape.block_start(block);
        for cfg in &shape.configs {
            let report = explore(cfg, first, shape.block_len() as usize);
            for seed in (report.counterexamples.iter().map(|c| c.seed))
                .chain(report.liveness_counterexamples.iter().map(|c| c.seed))
            {
                println!(
                    "sweep block {block}: {} fails on seed {seed}",
                    cfg.kind.name()
                );
                bad += 1;
            }
            if report.event_cap_hits > 0 {
                println!("sweep block {block}: {} hit the event cap", cfg.kind.name());
                bad += 1;
            }
        }
        if (block + 1) % 20 == 0 {
            println!(
                "sweep: {} of {} blocks, {:.0} s",
                block + 1,
                spec::CAMPAIGN_BLOCKS,
                started.elapsed().as_secs_f64()
            );
        }
    }
    if bad > 0 {
        return Err(format!("{bad} failures in the campaign's seed window"));
    }
    println!(
        "sweep passed: {} schedules per config, no counterexample",
        spec::CAMPAIGN_BLOCKS * shape.block_len()
    );
    Ok(())
}

/// The noise gate: 2 × N full runs of this binary, assigned alternately to
/// set A and set B so slow host drift falls on both, compared metric by
/// metric against the bounds.
pub fn agree(options: &Options) -> Result<(), String> {
    let mut sets: [Vec<Vec<Row>>; 2] = [Vec::new(), Vec::new()];
    for run in 0..2 * options.sets_of {
        let run_options = Options {
            traced: false,
            out: None,
            trace_out: None,
            ..options.clone()
        };
        println!(
            "agree run {} of {} (set {})",
            run + 1,
            2 * options.sets_of,
            ["A", "B"][run % 2]
        );
        sets[run % 2].push(all(&run_options)?);
    }
    let median_of = |set: &[Vec<Row>], workload: &str, metric: &str| {
        let values: Vec<f64> = set
            .iter()
            .flatten()
            .filter(|r| r.workload == workload && r.metric == metric)
            .map(|r| r.value)
            .collect();
        stats::median(&values)
    };
    let mut worst = 0usize;
    println!(
        "{:<17} {:<20} {:<6} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "better", "median A", "median B", "diff", "bound"
    );
    for workload in spec::workloads() {
        for def in &spec::END_TO_END {
            let (a, b) = (
                median_of(&sets[0], workload.name, def.name),
                median_of(&sets[1], workload.name, def.name),
            );
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let over = diff > def.bound;
            worst += over as usize;
            println!(
                "{:<17} {:<20} {:<6} {a:>14.4} {b:>14.4} {:>7.2}% {:>6.1}%{}",
                workload.name,
                def.name,
                if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                diff * 100.0,
                def.bound * 100.0,
                if over { "  EXCEEDS" } else { "" }
            );
        }
    }
    if worst > 0 {
        return Err(format!(
            "{worst} workload × metric pairs disagree by more than their bound"
        ));
    }
    println!("agree passed: both sets agree within every bound");
    Ok(())
}
