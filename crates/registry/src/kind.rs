//! Protocol selection and the static description of a built cluster.

use soda::Phase;
use soda_baselines::{abd::AbdPhase, cas::CasPhase};
use soda_protocol::{Quorum, QuorumPhase};

/// Which atomic-register algorithm a cluster runs.
///
/// The five variants are exactly the columns the paper's Table I compares:
/// the replication baseline (ABD), the coded baseline with and without
/// garbage collection (CAS, CASGC), and the paper's contributions (SODA,
/// SODAerr).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// SODA (Section IV): `[n, n − f]` code, storage `n/(n−f)`, elastic read
    /// cost `n/(n−f)·(δw + 1)`, write cost `≤ 5f²`.
    Soda,
    /// SODAerr (Section VI): `[n, n − f − 2e]` code tolerating up to `e`
    /// silently corrupted coded elements per read.
    SodaErr {
        /// Maximum number of corrupted coded elements tolerated per read.
        e: usize,
    },
    /// ABD (Attiya, Bar-Noy, Dolev): full replication; write and storage
    /// cost `n`, read cost `2n` (the write-back ships the value again).
    Abd,
    /// CAS (Cadambe, Lynch, Médard, Musial): `[n, n − 2f]` code, quorums of
    /// size `n − f`, no garbage collection (storage grows with history).
    Cas,
    /// CASGC: CAS plus garbage collection provisioned for a concurrency
    /// bound `δ`; servers keep coded elements for the `δ + 1` highest
    /// finalized versions, so storage is `n/(n−2f)·(δ + 1)`.
    Casgc {
        /// The provisioned concurrency bound `δ`.
        gc: usize,
    },
}

impl ProtocolKind {
    /// Human-readable algorithm name (as used in Table I).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Soda => "SODA",
            ProtocolKind::SodaErr { .. } => "SODAerr",
            ProtocolKind::Abd => "ABD",
            ProtocolKind::Cas => "CAS",
            ProtocolKind::Casgc { .. } => "CASGC",
        }
    }

    /// True for SODA and SODAerr (the kinds that support byzantine servers
    /// and the relay ablation switch).
    pub fn is_soda_family(&self) -> bool {
        matches!(self, ProtocolKind::Soda | ProtocolKind::SodaErr { .. })
    }

    /// The error budget `e` (non-zero only for SODAerr).
    pub fn error_budget(&self) -> usize {
        match self {
            ProtocolKind::SodaErr { e } => *e,
            _ => 0,
        }
    }

    /// The MDS code dimension `k` for an `(n, f)` cluster, or `None` for the
    /// replication baseline (which stores full copies, the `k = 1` code).
    /// Returns `None` as well when the parameters leave no valid dimension
    /// (`k < 1`). This is the one place `k` is derived: the harness builds
    /// every cluster's [`Deployment`](soda_protocol::Deployment) from it.
    pub fn code_dimension(&self, n: usize, f: usize) -> Option<usize> {
        let k = match self {
            ProtocolKind::Soda => n.checked_sub(f)?,
            ProtocolKind::SodaErr { e } => n.checked_sub(f + 2 * e)?,
            ProtocolKind::Abd => return None,
            ProtocolKind::Cas | ProtocolKind::Casgc { .. } => n.checked_sub(2 * f)?,
        };
        (k >= 1).then_some(k)
    }

    /// The quorum table this kind's clients and repairs read every threshold
    /// from.
    pub fn quorum_table(&self) -> QuorumTable {
        match self {
            ProtocolKind::Soda | ProtocolKind::SodaErr { .. } => QuorumTable::Soda(Phase::QUORUMS),
            ProtocolKind::Abd => QuorumTable::Abd(AbdPhase::QUORUMS),
            ProtocolKind::Cas | ProtocolKind::Casgc { .. } => QuorumTable::Cas(CasPhase::QUORUMS),
        }
    }
}

/// One protocol's quorum table: every phase with the replies it waits for.
#[derive(Clone, Copy, Debug)]
pub enum QuorumTable {
    /// SODA's and SODAerr's.
    Soda(&'static [(Phase, Quorum)]),
    /// ABD's.
    Abd(&'static [(AbdPhase, Quorum)]),
    /// CAS's and CASGC's.
    Cas(&'static [(CasPhase, Quorum)]),
}

/// Static description of a built cluster: which algorithm it runs and its
/// size parameters. Exposed by every
/// [`RegisterCluster`](crate::RegisterCluster) so generic drivers can label
/// measurements and evaluate the paper's closed-form cost expressions.
#[derive(Clone, Copy, Debug)]
pub struct ClusterDescriptor {
    /// The algorithm.
    pub kind: ProtocolKind,
    /// Number of servers.
    pub n: usize,
    /// Tolerated server crashes.
    pub f: usize,
    /// Number of writer handles.
    pub num_writers: usize,
    /// Number of reader handles.
    pub num_readers: usize,
}

impl ClusterDescriptor {
    /// The MDS code dimension, if the algorithm uses coding.
    pub fn k(&self) -> Option<usize> {
        self.kind.code_dimension(self.n, self.f)
    }

    /// The paper's write communication cost (or bound) for these parameters,
    /// normalized to the value size (Table I). SODA's is Theorem 5.4's
    /// `5f²`; SODAerr's is the MD-VALUE fan-out, which `5f²` does not bound
    /// once `e` shrinks `k` (see [`paper::md_value_fanout`]).
    ///
    /// [`paper::md_value_fanout`]: soda_protocol::cost::paper::md_value_fanout
    pub fn paper_write_cost(&self) -> f64 {
        use soda_protocol::cost::paper;
        match self.kind {
            ProtocolKind::Soda => paper::soda_write_bound(self.f),
            ProtocolKind::SodaErr { .. } => {
                let k = self.k().expect("SODAerr parameters leave k ≥ 1");
                paper::md_value_fanout(self.n, self.f, k)
            }
            ProtocolKind::Abd => paper::abd_write(self.n),
            ProtocolKind::Cas | ProtocolKind::Casgc { .. } => {
                paper::casgc_communication(self.n, self.f)
            }
        }
    }

    /// The paper's read communication cost for these parameters and `delta_w`
    /// writes concurrent with the read, normalized to the value size.
    pub fn paper_read_cost(&self, delta_w: usize) -> f64 {
        use soda_protocol::cost::paper;
        match self.kind {
            ProtocolKind::Soda => paper::soda_read(self.n, self.f, delta_w),
            ProtocolKind::SodaErr { e } => paper::sodaerr_read(self.n, self.f, e, delta_w),
            ProtocolKind::Abd => paper::abd_read(self.n),
            ProtocolKind::Cas | ProtocolKind::Casgc { .. } => {
                paper::casgc_communication(self.n, self.f)
            }
        }
    }

    /// The paper's total storage cost for these parameters, normalized to the
    /// value size. Plain CAS never garbage-collects, so its storage grows
    /// without bound with the number of versions written; this returns
    /// [`f64::INFINITY`] for it.
    pub fn paper_storage_cost(&self) -> f64 {
        use soda_protocol::cost::paper;
        match self.kind {
            ProtocolKind::Soda => paper::soda_storage(self.n, self.f),
            ProtocolKind::SodaErr { e } => paper::sodaerr_storage(self.n, self.f, e),
            ProtocolKind::Abd => paper::abd_storage(self.n),
            ProtocolKind::Cas => f64::INFINITY,
            ProtocolKind::Casgc { gc } => paper::casgc_storage(self.n, self.f, gc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_table_one() {
        assert_eq!(ProtocolKind::Soda.name(), "SODA");
        assert_eq!(ProtocolKind::SodaErr { e: 1 }.name(), "SODAerr");
        assert_eq!(ProtocolKind::Abd.name(), "ABD");
        assert_eq!(ProtocolKind::Cas.name(), "CAS");
        assert_eq!(ProtocolKind::Casgc { gc: 2 }.name(), "CASGC");
    }

    #[test]
    fn code_dimensions() {
        assert_eq!(ProtocolKind::Soda.code_dimension(5, 2), Some(3));
        assert_eq!(ProtocolKind::SodaErr { e: 1 }.code_dimension(7, 2), Some(3));
        assert_eq!(ProtocolKind::SodaErr { e: 2 }.code_dimension(5, 2), None);
        assert_eq!(ProtocolKind::Abd.code_dimension(5, 2), None);
        assert_eq!(ProtocolKind::Cas.code_dimension(5, 2), Some(1));
        assert_eq!(ProtocolKind::Casgc { gc: 1 }.code_dimension(4, 2), None);
    }

    #[test]
    fn paper_costs_match_table_one_shapes() {
        let soda = ClusterDescriptor {
            kind: ProtocolKind::Soda,
            n: 6,
            f: 2,
            num_writers: 1,
            num_readers: 1,
        };
        assert!((soda.paper_storage_cost() - 1.5).abs() < 1e-9);
        assert!((soda.paper_read_cost(1) - 3.0).abs() < 1e-9);
        assert!((soda.paper_write_cost() - 20.0).abs() < 1e-9);

        let abd = ClusterDescriptor {
            kind: ProtocolKind::Abd,
            ..soda
        };
        assert!((abd.paper_storage_cost() - 6.0).abs() < 1e-9);
        assert!((abd.paper_write_cost() - 6.0).abs() < 1e-9);
        assert!((abd.paper_read_cost(1) - 12.0).abs() < 1e-9);

        // [6, 2] code: 6 full values + 12 elements of 1/2 each.
        let sodaerr = ClusterDescriptor {
            kind: ProtocolKind::SodaErr { e: 1 },
            ..soda
        };
        assert!((sodaerr.paper_write_cost() - 12.0).abs() < 1e-9);

        let casgc = ClusterDescriptor {
            kind: ProtocolKind::Casgc { gc: 2 },
            ..soda
        };
        assert!((casgc.paper_storage_cost() - 9.0).abs() < 1e-9);

        let cas = ClusterDescriptor {
            kind: ProtocolKind::Cas,
            ..soda
        };
        assert!(cas.paper_storage_cost().is_infinite());
    }
}
