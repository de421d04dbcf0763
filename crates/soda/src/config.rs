//! Shared configuration of one SODA / SODAerr deployment.

use soda_protocol::{Layout, Quorum, QuorumPhase, QuorumSizes, Value};
use soda_rs_code::{BerlekampWelchCode, MdsCode, VandermondeCode};
use std::sync::Arc;

/// The phases of a SODA operation. A replacement server's repair is a read
/// that re-encodes, so it runs the read's two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `write-get`: query every server's tag.
    WriteGet,
    /// `write-put`: disperse the value, collect acks.
    WritePut,
    /// `read-get`: query every server's tag.
    ReadGet,
    /// `read-value`: registered with the servers, collecting coded elements.
    ReadValue,
}

/// SODA's and SODAerr's thresholds: the two gets wait for a majority of
/// responders and `write-put` for `k` acks. `read-value` waits for `k + 2e`
/// coded elements *of one tag*, which the read counts per tag beside the
/// phase driver's count of responders.
impl QuorumPhase for Phase {
    const QUORUMS: &'static [(Phase, Quorum)] = &[
        (Phase::WriteGet, Quorum::Majority),
        (Phase::WritePut, Quorum::K),
        (Phase::ReadGet, Quorum::Majority),
        (Phase::ReadValue, Quorum::KPlus2E),
    ];
}

/// Immutable configuration shared by all processes of one deployment.
#[derive(Debug)]
pub struct SodaConfig {
    layout: Layout,
    /// The error budget `e`: SODAerr's reads decode past up to `e`
    /// corrupted elements. 0 for plain SODA.
    e: usize,
    code: VandermondeCode,
    quorums: QuorumSizes,
}

impl SodaConfig {
    /// Configuration for plain SODA (Section IV): `[n, n − f]` code,
    /// erasure decoding.
    pub fn soda(layout: Layout) -> Arc<Self> {
        Self::soda_err(layout, 0)
    }

    /// Configuration for SODAerr with error budget `e` (Section VI): the
    /// same code at `[n, n − f − 2e]`, whose reads gather `k + 2e` elements
    /// and decode through its Berlekamp–Welch decoder.
    ///
    /// # Panics
    /// Panics if `f + 2e >= n` (no valid code dimension).
    pub fn soda_err(layout: Layout, e: usize) -> Arc<Self> {
        let code = BerlekampWelchCode::for_fault_tolerance(layout.n(), layout.f(), e)
            .expect("invalid SODAerr parameters: need f + 2e < n");
        let quorums = QuorumSizes::new(&layout, code.k(), e);
        Arc::new(SodaConfig {
            layout,
            e,
            code,
            quorums,
        })
    }

    /// The system layout (servers, `f`).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The erasure code in use.
    pub fn code(&self) -> &VandermondeCode {
        &self.code
    }

    /// Code dimension `k` (`n − f` for SODA, `n − f − 2e` for SODAerr).
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// The quorums every phase's threshold is read from.
    pub fn quorums(&self) -> &QuorumSizes {
        &self.quorums
    }

    /// How many distinct coded elements (for one tag) a reader must gather
    /// before decoding: `read-value`'s row of the quorum table, `k` for SODA
    /// and `k + 2e` for SODAerr. The same threshold governs when servers
    /// conclude that a registered reader is satisfied (READ-DISPERSE
    /// bookkeeping).
    pub fn read_threshold(&self) -> usize {
        self.quorums.of(Phase::ReadValue.quorum())
    }

    /// Decodes a value from the gathered elements, correcting up to the
    /// error budget `e` of them (none for plain SODA).
    pub fn decode(
        &self,
        elements: &[soda_rs_code::CodedElement],
    ) -> Result<Value, soda_rs_code::CodeError> {
        self.code.decode_with_errors(elements, self.e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_simnet::ProcessId;

    fn layout(n: usize, f: usize) -> Layout {
        Layout::new((0..n as u32).map(ProcessId).collect(), f)
    }

    #[test]
    fn soda_config_uses_k_equals_n_minus_f() {
        let cfg = SodaConfig::soda(layout(9, 4));
        assert_eq!(cfg.k(), 5);
        assert_eq!(cfg.read_threshold(), 5);
        assert_eq!(cfg.layout().n(), 9);
        assert_eq!(cfg.layout().f(), 4);
        assert!(format!("{cfg:?}").contains("n"));
    }

    #[test]
    fn sodaerr_config_uses_k_equals_n_minus_f_minus_2e() {
        let cfg = SodaConfig::soda_err(layout(9, 2), 2);
        assert_eq!(cfg.k(), 3);
        assert_eq!(cfg.read_threshold(), 7);
    }

    #[test]
    #[should_panic(expected = "invalid SODAerr parameters")]
    fn sodaerr_rejects_impossible_parameters() {
        let _ = SodaConfig::soda_err(layout(5, 2), 2);
    }

    #[test]
    fn decode_round_trip_both_variants() {
        let value = b"some object value".to_vec();
        let cfg = SodaConfig::soda(layout(5, 2));
        let elements = cfg.code().encode(&value).unwrap();
        assert_eq!(cfg.decode(&elements[..3]).unwrap(), value);

        let cfg = SodaConfig::soda_err(layout(7, 2), 1);
        let mut elements = cfg.code().encode(&value).unwrap();
        // Corrupt one element; SODAerr must still decode from k + 2e = 5.
        for b in elements[1].data.make_mut() {
            *b ^= 0xFF;
        }
        elements.truncate(5);
        assert_eq!(cfg.decode(&elements).unwrap(), value);
    }
}
