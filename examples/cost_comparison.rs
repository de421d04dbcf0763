//! Side-by-side cost comparison of ABD, CASGC and SODA on the same workload —
//! a miniature, single-`n` version of the paper's Table I, printed with the
//! paper's closed-form expressions next to the measured numbers. All three
//! protocols run through the same `RegisterCluster` facade and the same
//! generic scenario runner.
//!
//! Run with: `cargo run --example cost_comparison`

use soda_repro::soda_workload::experiments::table1;

fn main() {
    let n = 10;
    let delta_w = 3;
    println!(
        "== storage and communication costs at n = {n}, f = fmax, {delta_w} concurrent writes ==\n"
    );
    let table = table1(&[n], delta_w, 8 * 1024, 7);
    println!("{table}");
    assert!(
        table.claims.iter().all(|c| c.holds),
        "a Table I claim failed"
    );
    println!("Reading the table:");
    println!(" * ABD replicates: writes and storage cost n, reads 2n (the write-back).");
    println!(" * CASGC sends coded elements (~n/(n-2f) per op) but must provision storage for δ+1 versions.");
    println!(
        " * SODA stores exactly one coded element per server (n/(n-f) total) and pays an elastic"
    );
    println!("   read cost proportional to the concurrency the read actually experienced.");
}
