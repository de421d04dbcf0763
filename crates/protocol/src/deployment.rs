//! One cluster's deployment: what every process of a cluster shares.

use crate::{Layout, QuorumPhase, QuorumSizes, Value};
use soda_rs_code::{CodeError, CodedElement, MdsCode, VandermondeCode};

/// A cluster's layout, its `[n, k]` code (replication is the `k = 1` code),
/// its error budget `e` and the quorums they give, built once per cluster.
/// Its processes share it behind an `Arc` and read every threshold and every
/// code operation from it.
#[derive(Debug)]
pub struct Deployment {
    layout: Layout,
    code: VandermondeCode,
    /// Reads decode past up to `e` corrupted elements; 0 but for SODAerr.
    e: usize,
    quorums: QuorumSizes,
}

impl Deployment {
    /// The deployment on `layout` of the `[n, k]` code with error budget `e`.
    ///
    /// # Panics
    /// Panics if `k` is no code dimension on `n` servers (`k = 0`, `k > n`
    /// or `n > 255`).
    pub fn new(layout: Layout, k: usize, e: usize) -> Self {
        let code = VandermondeCode::new(layout.n(), k).expect("k is a code dimension on n servers");
        let quorums = QuorumSizes::new(&layout, k, e);
        Deployment {
            layout,
            code,
            e,
            quorums,
        }
    }

    /// The system layout (servers, `f`).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The `[n, k]` code.
    pub fn code(&self) -> &VandermondeCode {
        &self.code
    }

    /// The code dimension `k`.
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// The quorums every phase's threshold is read from.
    pub fn quorums(&self) -> &QuorumSizes {
        &self.quorums
    }

    /// How many replies `phase` waits for: its row of its protocol's quorum
    /// table, evaluated here.
    pub fn quorum<P: QuorumPhase>(&self, phase: P) -> usize {
        self.quorums.of(phase.quorum())
    }

    /// Decodes a value from gathered coded elements, correcting up to `e` of
    /// them; plain erasure decoding at `e = 0`.
    pub fn decode(&self, elements: &[CodedElement]) -> Result<Value, CodeError> {
        self.code.decode_with_errors(elements, self.e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quorum;
    use soda_simnet::ProcessId;

    fn layout(n: usize, f: usize) -> Layout {
        Layout::new((0..n as u32).map(ProcessId).collect(), f)
    }

    #[test]
    fn the_code_and_the_quorums_follow_k_and_e() {
        // SODA on (9, 4), SODAerr with e = 2 on (9, 2), replication on 5.
        for (n, f, k, e, reads) in [(9, 4, 5, 0, 5), (9, 2, 3, 2, 7), (5, 2, 1, 0, 1)] {
            let deployment = Deployment::new(layout(n, f), k, e);
            assert_eq!((deployment.code().n(), deployment.k()), (n, k));
            assert_eq!(deployment.layout().f(), f);
            assert_eq!(deployment.quorums().of(Quorum::KPlus2E), reads);
            assert_eq!(deployment.quorums().of(Quorum::NMinusF), n - f);
        }
    }

    #[test]
    fn decode_round_trip_both_variants() {
        let value = b"some object value".to_vec();
        let soda = Deployment::new(layout(5, 2), 3, 0);
        let elements = soda.code().encode(&value).unwrap();
        assert_eq!(soda.decode(&elements[..3]).unwrap(), value);

        let sodaerr = Deployment::new(layout(7, 2), 3, 1);
        let mut elements = sodaerr.code().encode(&value).unwrap();
        // Corrupt one element; SODAerr must still decode from k + 2e = 5.
        for b in elements[1].data.make_mut() {
            *b ^= 0xFF;
        }
        elements.truncate(5);
        assert_eq!(sodaerr.decode(&elements).unwrap(), value);
    }
}
