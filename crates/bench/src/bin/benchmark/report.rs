//! Output: one line per metric for people (and for a parent process to parse
//! back), the result line the driver reads, and the JSON document of `--out`.

use crate::host::Header;
use crate::run::RunResult;
use crate::spec;
use soda_workload::json::to_json;
use soda_workload::json_row;

/// One metric of one workload, flat, as written to `--out`. Wall-clock
/// metrics carry the count and quartiles of their samples; the others 0.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    pub p25: f64,
    pub p75: f64,
    pub seed: u64,
    pub epochs: usize,
    pub traced: bool,
}

json_row!(Row {
    workload,
    metric,
    value,
    unit,
    samples,
    p25,
    p75,
    seed,
    epochs,
    traced,
});

json_row!(Header {
    nproc,
    cpu_model,
    rustc,
    git_commit,
    utc_time,
    seed,
});

pub fn rows(result: &RunResult) -> Vec<Row> {
    result
        .metrics
        .iter()
        .map(|m| {
            let spread = m.spread.unwrap_or_default();
            Row {
                workload: result.workload.to_string(),
                metric: m.name.clone(),
                value: m.value,
                unit: m.unit.to_string(),
                samples: spread.count,
                p25: spread.p25,
                p75: spread.p75,
                seed: result.seed,
                epochs: result.epochs,
                traced: result.traced,
            }
        })
        .collect()
}

/// `metric <workload> <name> <value> <unit> <samples> <p25> <p75> <seed>
/// <epochs> <traced>` — fixed columns, so `parse_row` can read it back.
pub fn print_rows(rows: &[Row]) {
    for r in rows {
        println!(
            "metric {:<17} {:<36} {:>16} {:<9} {:>6} {:>14} {:>14} {} {} {}",
            r.workload,
            r.metric,
            r.value,
            r.unit,
            r.samples,
            r.p25,
            r.p75,
            r.seed,
            r.epochs,
            r.traced as u8
        );
    }
}

pub fn parse_row(line: &str) -> Option<Row> {
    let mut f = line.strip_prefix("metric ")?.split_whitespace();
    Some(Row {
        workload: f.next()?.to_string(),
        metric: f.next()?.to_string(),
        value: f.next()?.parse().ok()?,
        unit: f.next()?.to_string(),
        samples: f.next()?.parse().ok()?,
        p25: f.next()?.parse().ok()?,
        p75: f.next()?.parse().ok()?,
        seed: f.next()?.parse().ok()?,
        epochs: f.next()?.parse().ok()?,
        traced: f.next()? == "1",
    })
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits. The driver wants every listed
/// per-layer name from a traced run, so here — and only here — a name the
/// workload does not define reads 0.
pub fn result_line(result: &RunResult) -> String {
    let entry = |name: &str, unit: &str, value: f64| {
        assert!(value.is_finite(), "{name} is not a finite number");
        format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
    };
    let metrics: Vec<String> = if result.traced {
        spec::per_layer()
            .iter()
            .map(|(name, unit)| {
                let defined = result.metrics.iter().find(|m| m.name == *name);
                entry(name, unit, defined.map_or(0.0, |m| m.value))
            })
            .collect()
    } else {
        result
            .metrics
            .iter()
            .map(|m| entry(&m.name, m.unit, m.value))
            .collect()
    };
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Writes the single JSON document of a run: the host header and one flat
/// row per workload × metric.
pub fn write_document(path: &str, seed: u64, rows: &[Row]) -> Result<(), String> {
    let header = to_json(&[Header::gather(seed)]);
    // `to_json` renders an array; the header is its only element.
    let header = header.trim_start_matches('[').trim_end_matches(']').trim();
    let document = format!(
        "{{\n\"header\": {header},\n\"metrics\": {}\n}}\n",
        to_json(rows)
    );
    std::fs::write(path, document).map_err(|e| format!("cannot write {path}: {e}"))
}
