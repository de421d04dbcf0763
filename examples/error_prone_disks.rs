//! SODAerr in action: servers with bad disks silently corrupt the coded
//! elements they send readers, and the `[n, n−f−2e]` code still returns the
//! correct value.
//!
//! The example runs the same workload twice on a 9-server cluster where two
//! servers are byzantine (`with_byzantine_servers`): every coded element they
//! send a reader is corrupted, as a disk that rots without noticing would
//! do, and the relays of concurrent writes too.
//!
//! * with **SODAerr** (`e = 2`): every read decodes correctly;
//! * with **plain SODA** (`e = 0`), to show why the extra redundancy matters:
//!   a reader that happens to pick up a corrupted element cannot decode (or
//!   has to be lucky enough to avoid the bad servers).
//!
//! Run with: `cargo run --example error_prone_disks`

use soda_repro::soda_registry::{ClusterBuilder, ProtocolKind};

fn run(kind: ProtocolKind, bad_disks: Vec<usize>, seed: u64) -> (usize, usize) {
    let mut cluster = ClusterBuilder::new(kind, 9, 2)
        .with_seed(seed)
        .with_byzantine_servers(bad_disks)
        .build()
        .expect("valid parameters");
    let expected = b"checksummed by the code itself, not the disk".to_vec();
    cluster.invoke_write(0, expected.clone());
    cluster.run_to_quiescence();

    let mut correct = 0;
    let mut total = 0;
    for _ in 0..5 {
        cluster.invoke_read(0);
        cluster.run_to_quiescence();
    }
    for op in cluster.completed_ops().iter().filter(|o| o.kind.is_read()) {
        total += 1;
        if op.value.as_deref() == Some(expected.as_slice()) {
            correct += 1;
        }
    }
    (correct, total)
}

fn main() {
    println!("== SODAerr vs corrupted local disks (n = 9, f = 2, two bad-disk servers) ==\n");

    let (correct, total) = run(ProtocolKind::SodaErr { e: 2 }, vec![0, 4], 7);
    println!(
        "SODAerr (e = 2, k = n - f - 2e = 3): {correct}/{total} reads returned the correct value"
    );
    assert_eq!(correct, total, "SODAerr must mask the corrupted elements");

    let (correct_plain, total_plain) = run(ProtocolKind::Soda, vec![0, 4], 7);
    println!(
        "plain SODA (e = 0, k = n - f = 7):  {correct_plain}/{total_plain} reads returned the correct value (5 attempted)"
    );
    println!(
        "\nWith e = 2 the decoder gathers k + 2e = 7 elements and corrects up to 2 corrupted ones;\n\
         plain SODA has no slack, so a read whose k-element set includes a bad disk cannot decode."
    );
    if total_plain == 0 {
        println!(
            "(under plain SODA every read picked up a corrupted element, failed to decode and never completed)"
        );
    } else if correct_plain < total_plain {
        println!(
            "(observed {} corrupted read(s) under plain SODA, as expected)",
            total_plain - correct_plain
        );
    } else {
        println!("(this seed happened to avoid the bad disks under plain SODA — rerun with another seed to see failures)");
    }
}
