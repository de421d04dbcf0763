//! The paper gate at seeded random parameter points. `reproduce` checks the
//! claims at a fixed list of points; the theorems hold for every `n`, `f`,
//! `e`, `δw` and `|v|`, so this test runs the same public sweeps at random
//! ones and requires every claim to hold.
//!
//! Tier-1 runs 50 points; `GATE_POINTS` sets the count (the nightly fuzz
//! job runs 10 000 in release). A failing point prints one line,
//! `GATE_POINT="n f e δw |v| seed"`; set that variable to run that point
//! alone.

use soda_simnet::rng::SimRng;
use soda_workload::experiments::{
    latency_sweep, read_cost_sweep, sodaerr_sweep, storage_cost_sweep, table1, write_cost_sweep,
    Table,
};

/// One parameter point: `n` servers tolerating `f` crashes, SODAerr's error
/// budget `e`, `δw` writes concurrent with the measured read, `|v|`-byte
/// values and the sweeps' seed.
#[derive(Clone, Copy, Debug)]
struct Point {
    n: usize,
    f: usize,
    e: usize,
    delta_w: usize,
    value_size: usize,
    seed: u64,
}

impl Point {
    /// `3 ≤ n ≤ 16`, `1 ≤ f ≤ ⌊(n−1)/2⌋`, `e` leaving SODAerr a code
    /// dimension `n − f − 2e ≥ 1`, `δw ≤ 4` and `|v|` from 64 B to 16 KiB.
    fn draw(rng: &mut SimRng) -> Point {
        let n = rng.gen_range(3usize..=16);
        let f = rng.gen_range(1..=(n - 1) / 2);
        Point {
            n,
            f,
            e: rng.gen_range(0..=(n - f - 1) / 2),
            delta_w: rng.gen_range(0usize..=4),
            value_size: rng.gen_range(64usize..=16 * 1024),
            seed: rng.next_u64(),
        }
    }

    /// The point a `GATE_POINT` line names.
    fn parse(line: &str) -> Point {
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(|field| field.parse().expect("GATE_POINT holds six integers"))
            .collect();
        let &[n, f, e, delta_w, value_size, seed] = fields.as_slice() else {
            panic!("GATE_POINT is \"n f e δw |v| seed\", got {line:?}");
        };
        let size = |x: u64| x as usize;
        Point {
            n: size(n),
            f: size(f),
            e: size(e),
            delta_w: size(delta_w),
            value_size: size(value_size),
            seed,
        }
    }

    /// The line that reruns this point.
    fn line(&self) -> String {
        let Point {
            n,
            f,
            e,
            delta_w,
            value_size,
            seed,
        } = *self;
        format!("GATE_POINT=\"{n} {f} {e} {delta_w} {value_size} {seed}\"")
    }

    /// Every public sweep at this point.
    fn tables(&self) -> Vec<Table> {
        let Point {
            n,
            f,
            e,
            delta_w,
            value_size,
            seed,
        } = *self;
        vec![
            table1(&[n], delta_w, value_size, seed),
            storage_cost_sweep(&[(n, f)], value_size, seed),
            write_cost_sweep(&[f], value_size, seed),
            read_cost_sweep(n, f, &[delta_w], value_size, seed),
            latency_sweep(&[(n, f)], 100, value_size, seed),
            sodaerr_sweep(n, f, &[e], value_size, seed),
        ]
    }
}

fn points() -> Vec<Point> {
    if let Ok(line) = std::env::var("GATE_POINT") {
        return vec![Point::parse(&line)];
    }
    let count = std::env::var("GATE_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let mut rng = SimRng::new(0x6761_7465);
    (0..count).map(|_| Point::draw(&mut rng)).collect()
}

#[test]
fn every_claim_holds_at_random_parameter_points() {
    let (mut claims, mut failures) = (0, Vec::new());
    for point in points() {
        for table in point.tables() {
            claims += table.claims.len();
            let failed = table.claims.iter().filter(|claim| !claim.holds);
            failures.extend(failed.map(|claim| {
                format!(
                    "{}: {} {} measured {} {} {}",
                    point.line(),
                    claim.source,
                    claim.quantity,
                    claim.measured,
                    claim.relation,
                    claim.bound
                )
            }));
        }
    }
    assert!(claims > 0, "no claim was checked");
    assert!(
        failures.is_empty(),
        "{} of {claims} claims failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
