//! The paper gate: runs every table of the paper this repo reproduces —
//! Table I, Theorems 3.2, 5.3, 5.4, 5.6, 5.7 and 6.3 and the two ablations —
//! prints each measured quantity beside its closed form, ends with
//! `N of N claims hold`, and exits 1 if any claim fails. The optional
//! argument is a path the claim list is written to as JSON.
//!
//! Usage: `cargo run --release -p soda-bench --bin reproduce [out.json]`

use soda_workload::experiments::{reproduce, Claim};
use soda_workload::json::to_json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let tables = reproduce();
    for table in &tables {
        println!("{table}");
    }
    let claims: Vec<Claim> = tables.into_iter().flat_map(|t| t.claims).collect();
    let held = claims.iter().filter(|c| c.holds).count();
    println!("{held} of {} claims hold", claims.len());
    if let Some(path) = std::env::args().nth(1) {
        if let Err(err) = std::fs::write(&path, to_json(&claims)) {
            eprintln!("failed to write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if held == claims.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
