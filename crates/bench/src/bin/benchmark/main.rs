//! The repo's one benchmark: five named workloads through the public APIs of
//! the store, workload, registry, simnet, rs and gf crates; end-to-end metrics
//! with tracing off, per-layer metrics from a separate traced run. See the
//! README beside this file for the contract and the reasons behind it.

mod explore_run;
mod gen;
mod host;
mod layers;
mod modes;
mod probes;
mod report;
mod run;
mod spec;
mod stats;
mod store_run;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                 [--out FILE] [--trace-out FILE]
       benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark --selfcheck
       benchmark --agree [--sets-of N] [--seed N] [--seconds S]
       benchmark --sweep
workloads: small_wide large_values hot_sustained mixed_fleet explore_campaign";

/// Command-line options, checked where they enter.
#[derive(Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub all: bool,
    pub selfcheck: bool,
    pub agree: bool,
    pub sweep: bool,
    pub sets_of: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<String>,
    pub trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        selfcheck: false,
        agree: false,
        sweep: false,
        sets_of: 3,
        seed: 1,
        seconds: 15.0,
        traced: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--all" => o.all = true,
            "--selfcheck" => o.selfcheck = true,
            "--agree" => o.agree = true,
            "--sweep" => o.sweep = true,
            "--sets-of" => {
                o.sets_of = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=50).contains(n))
                    .ok_or("--sets-of takes a count from 1 to 50")?;
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned 64-bit number")?;
            }
            "--seconds" => {
                o.seconds = value("a duration")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 600")?;
            }
            "--trace" => {
                o.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => o.out = Some(value("a file")?),
            "--trace-out" => o.trace_out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = [o.workload.is_some(), o.all, o.selfcheck, o.agree, o.sweep];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck, --agree, --sweep".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let started = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if options.selfcheck {
        modes::selfcheck()
    } else if options.agree {
        modes::agree(&options)
    } else if options.sweep {
        modes::sweep()
    } else if options.all {
        modes::all(&options).map(|_| ())
    } else {
        modes::single(&options, started)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark: FAILED: {why}");
            ExitCode::FAILURE
        }
    }
}
