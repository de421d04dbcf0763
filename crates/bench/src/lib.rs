//! Benchmark and experiment harness for the SODA reproduction.
//!
//! The paper's evaluation is analytical: its quantitative artifacts are
//! Table I (the ABD / CASGC / SODA comparison at `f = fmax`) and the cost and
//! latency theorems (5.3, 5.4, 5.6, 5.7, 6.3) plus the state-cleanup property
//! of the message-disperse primitive (Theorem 3.2). Every one of those is
//! regenerated by a binary in `src/bin/`:
//!
//! | binary | experiment | paper artifact |
//! |---|---|---|
//! | `table1` | T1 | Table I |
//! | `storage_cost` | F1 | Theorem 5.3 (`n/(n−f)`) |
//! | `write_cost` | F2 | Theorem 5.4 (`≤ 5f²`) |
//! | `read_cost` | F3 | Theorem 5.6 (`n/(n−f)(δw+1)`) |
//! | `latency` | F4 | Theorem 5.7 (`5Δ`, `6Δ`) |
//! | `sodaerr_cost` | F5 | Theorem 6.3 |
//! | `md_state` | F6 | Theorem 3.2 |
//! | `ablation_relay` | A1 | reader-registration relay ablation |
//! | `ablation_storage_elasticity` | A2 | CASGC δ rigidity vs SODA elasticity |
//!
//! Each binary prints a fixed-width table (measured vs paper formula) and, if
//! a path is given as the first CLI argument, also writes the rows as JSON.
//! The `harness = false` benches in `benches/` are scenario sweeps with
//! committed outputs (coding throughput, store throughput, repair bandwidth,
//! partition liveness, exploration throughput); `coding_throughput` uses the
//! [`timeit`] loop below. Wall-clock numbers per layer come from the
//! `benchmark` binary, not from these.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;
use std::time::Instant;

/// Minimal timing loop for the `harness = false` benches: runs `op` once to
/// warm up, then `iters` timed times, and prints the mean per-iteration time
/// (plus throughput when `bytes > 0` bytes are processed per iteration).
/// Returns the measured throughput in MiB/s (0 when `bytes == 0`).
pub fn timeit<F: FnMut()>(label: &str, bytes: u64, iters: u32, mut op: F) -> f64 {
    op();
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    let elapsed = start.elapsed();
    let per_iter = elapsed / iters;
    if bytes > 0 {
        let throughput = bytes as f64 / per_iter.as_secs_f64() / (1024.0 * 1024.0);
        println!("{label:<44} {per_iter:>12.2?}/iter {throughput:>10.1} MiB/s");
        throughput
    } else {
        println!("{label:<44} {per_iter:>12.2?}/iter");
        0.0
    }
}

/// Writes experiment rows as JSON to `path` when a path is supplied, creating
/// parent directories as needed. Used by every experiment binary.
pub fn maybe_write_json(path: Option<&str>, json: &str) {
    let Some(path) = path else {
        return;
    };
    let path = Path::new(path);
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    match fs::write(path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}

/// Standard argument handling for the experiment binaries: the optional first
/// argument is a JSON output path.
pub fn json_path_from_args() -> Option<String> {
    std::env::args().nth(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_creates_directories() {
        let dir = std::env::temp_dir().join("soda_bench_test_output");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        maybe_write_json(Some(path.to_str().unwrap()), "[]");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[]");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_path_is_a_noop() {
        maybe_write_json(None, "[1, 2]");
    }
}
