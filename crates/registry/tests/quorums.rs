//! Every kind's quorum table against the quorum intersections its atomicity
//! proof uses, and every kind's code dimension against the code its cluster
//! runs, over every legal `(kind, n, f, e)` with `n ≤ 12`.

use soda::Phase;
use soda_baselines::abd::AbdPhase;
use soda_baselines::cas::CasPhase;
use soda_registry::{ClusterBuilder, ProtocolKind, Quorum, QuorumTable};

/// Every legal `(kind, n, f)` with `n ≤ 12`: `2f < n`, and for SODAerr every
/// error budget `e` that leaves a code dimension `n − f − 2e ≥ 1`.
fn legal_points() -> Vec<(ProtocolKind, usize, usize)> {
    let mut points = Vec::new();
    for n in 1..=12 {
        for f in 0..=(n - 1) / 2 {
            let fixed = [
                ProtocolKind::Soda,
                ProtocolKind::Abd,
                ProtocolKind::Cas,
                ProtocolKind::Casgc { gc: 1 },
            ];
            let sodaerr = (0..).take_while(|e| f + 2 * e < n);
            let kinds = fixed
                .into_iter()
                .chain(sodaerr.map(|e| ProtocolKind::SodaErr { e }));
            points.extend(kinds.map(|kind| (kind, n, f)));
        }
    }
    for &(kind, n, f) in &points {
        let builder = ClusterBuilder::new(kind, n, f);
        assert!(builder.validate().is_ok(), "{kind:?} n={n} f={f}");
    }
    points
}

/// What a phase does in the proofs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Completes a write, or makes a read's tag stick (ABD's write-back,
    /// CAS's read-finalize): every later tag query must meet it.
    Completes,
    /// Queries tags: a client's first phase, or a repair's pull.
    Queries,
    /// CAS's pre-write: the elements a read must find `k` of.
    PreWrites,
    /// CAS's read-value, which collects those elements.
    CollectsElements,
}

/// One row of a quorum table, with its phase's roles.
struct Row {
    phase: String,
    quorum: Quorum,
    roles: &'static [Role],
}

/// `kind`'s quorum table, each phase with the roles the proofs give it.
fn rows(kind: ProtocolKind) -> Vec<Row> {
    use Role::{CollectsElements, Completes, PreWrites, Queries};
    fn row<P: std::fmt::Debug>(phase: P, quorum: Quorum, roles: &'static [Role]) -> Row {
        let phase = format!("{phase:?}");
        Row {
            phase,
            quorum,
            roles,
        }
    }
    let rows: Vec<Row> = match kind.quorum_table() {
        QuorumTable::Soda(table) => table
            .iter()
            .map(|&(phase, quorum)| {
                let roles: &'static [Role] = match phase {
                    Phase::WriteGet | Phase::ReadGet => &[Queries],
                    Phase::WritePut => &[Completes],
                    Phase::ReadValue => &[],
                };
                row(phase, quorum, roles)
            })
            .collect(),
        QuorumTable::Abd(table) => table
            .iter()
            .map(|&(phase, quorum)| {
                let roles: &'static [Role] = match phase {
                    AbdPhase::Query => &[Queries],
                    AbdPhase::Store => &[Completes],
                };
                row(phase, quorum, roles)
            })
            .collect(),
        QuorumTable::Cas(table) => table
            .iter()
            .map(|&(phase, quorum)| {
                let roles: &'static [Role] = match phase {
                    CasPhase::QueryTag | CasPhase::RepairPull => &[Queries],
                    CasPhase::PreWrite => &[PreWrites],
                    CasPhase::Finalize => &[Completes],
                    CasPhase::ReadValue => &[Completes, CollectsElements],
                };
                row(phase, quorum, roles)
            })
            .collect(),
    };
    for (i, a) in rows.iter().enumerate() {
        let repeats = rows[..i].iter().any(|b| b.phase == a.phase);
        assert!(!repeats, "{kind:?}: {} has two rows", a.phase);
    }
    rows
}

/// The obligations `kind`'s table misses at `(n, f)`, one line each, in the
/// deployment a cluster built there runs.
fn violations(kind: ProtocolKind, n: usize, f: usize) -> Vec<String> {
    let cluster = ClusterBuilder::new(kind, n, f).build().unwrap();
    let (sizes, k) = (cluster.deployment().quorums(), cluster.deployment().k());
    let rows = rows(kind);
    let size = |row: &Row| sizes.of(row.quorum);
    let with = |role: Role| rows.iter().filter(move |row| row.roles.contains(&role));
    let mut missed = Vec::new();
    for done in with(Role::Completes) {
        for query in with(Role::Queries) {
            if size(done) + size(query) <= n {
                missed.push(format!("{} + {} <= n", done.phase, query.phase));
            }
        }
    }
    for pre in with(Role::PreWrites) {
        for read in with(Role::CollectsElements) {
            if size(pre) + size(read) < n + k {
                missed.push(format!("{} + {} < n + k", pre.phase, read.phase));
            }
        }
    }
    for row in &rows {
        if size(row) > n - f {
            missed.push(format!("{} > n - f", row.phase));
        }
    }
    missed
}

#[test]
fn soda_abd_cas_and_casgc_tables_meet_every_intersection_the_proofs_use() {
    let failures: Vec<String> = legal_points()
        .into_iter()
        .filter(|(kind, _, _)| !matches!(kind, ProtocolKind::SodaErr { .. }))
        .flat_map(|(kind, n, f)| {
            let at = format!("{kind:?} n={n} f={f}");
            violations(kind, n, f)
                .into_iter()
                .map(move |missed| format!("{at}: {missed}"))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// SODAerr's table at every error budget: `write-put` waits for
/// `max(k, majority)` acks, so a completed write meets both gets' majorities
/// also at the 70 points where `k = n − f − 2e` is below a majority, and
/// the row stays at most `n − f`.
#[test]
fn sodaerr_tables_meet_every_intersection_the_proofs_use() {
    let (mut points, mut k_below_a_majority) = (0, 0);
    for (kind, n, f) in legal_points() {
        let ProtocolKind::SodaErr { e } = kind else {
            continue;
        };
        let missed = violations(kind, n, f);
        assert!(missed.is_empty(), "SODAerr n={n} f={f} e={e}: {missed:?}");
        points += 1;
        k_below_a_majority += usize::from(n - f - 2 * e + n / 2 < n);
    }
    assert_eq!((points, k_below_a_majority), (147, 70));
}

#[test]
fn every_phase_has_one_row_in_its_tables() {
    let phases = |kind: ProtocolKind| -> Vec<String> {
        let mut phases: Vec<String> = rows(kind).into_iter().map(|row| row.phase).collect();
        phases.sort();
        phases
    };
    assert_eq!(
        phases(ProtocolKind::Soda),
        ["ReadGet", "ReadValue", "WriteGet", "WritePut"]
    );
    assert_eq!(phases(ProtocolKind::Abd), ["Query", "Store"]);
    assert_eq!(
        phases(ProtocolKind::Cas),
        [
            "Finalize",
            "PreWrite",
            "QueryTag",
            "ReadValue",
            "RepairPull"
        ]
    );
}

/// The paper's cost closed forms read `k` from the descriptor; every built
/// cluster's descriptor must report the `k` of the code its deployment runs,
/// and replication must run the `k = 1` code.
#[test]
fn a_built_clusters_descriptor_reports_the_code_dimension_it_runs() {
    for (kind, n, f) in legal_points() {
        let cluster = ClusterBuilder::new(kind, n, f).build().unwrap();
        let runs = cluster.deployment().k();
        match cluster.descriptor().k() {
            Some(reported) => assert_eq!(reported, runs, "{kind:?} n={n} f={f}"),
            None => assert_eq!((kind, runs), (ProtocolKind::Abd, 1), "n={n} f={f}"),
        }
    }
}
