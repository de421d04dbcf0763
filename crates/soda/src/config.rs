//! Shared configuration of one SODA / SODAerr deployment.

use soda_protocol::{Layout, Value};
use soda_rs_code::{BerlekampWelchCode, MdsCode, VandermondeCode};
use std::fmt;
use std::sync::Arc;

/// Which algorithm variant a cluster runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SodaVariant {
    /// Plain SODA: `k = n − f`, erasure-only decoding (Section IV).
    Soda,
    /// SODAerr: `k = n − f − 2e`, reads gather `k + 2e` elements and decode
    /// through the error-correcting decoder (Section VI).
    SodaErr {
        /// Maximum number of error-prone coded elements tolerated per read.
        e: usize,
    },
}

impl SodaVariant {
    /// The error budget `e` (0 for plain SODA).
    pub fn error_budget(&self) -> usize {
        match *self {
            SodaVariant::Soda => 0,
            SodaVariant::SodaErr { e } => e,
        }
    }
}

/// The phases of a SODA operation. A replacement server's repair is a read
/// that re-encodes, so it runs the read's two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// `write-get`: query every server's tag.
    WriteGet,
    /// `write-put`: disperse the value, collect acks.
    WritePut,
    /// `read-get`: query every server's tag.
    ReadGet,
    /// `read-value`: registered with the servers, collecting coded elements.
    ReadValue,
}

/// Immutable configuration shared by all processes of one deployment.
pub struct SodaConfig {
    layout: Layout,
    variant: SodaVariant,
    code: VandermondeCode,
}

impl fmt::Debug for SodaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SodaConfig")
            .field("n", &self.layout.n())
            .field("f", &self.layout.f())
            .field("variant", &self.variant)
            .field("k", &self.code.k())
            .finish()
    }
}

impl SodaConfig {
    /// Configuration for plain SODA: `[n, n − f]` code, erasure decoding.
    pub fn soda(layout: Layout) -> Arc<Self> {
        let code = VandermondeCode::new(layout.n(), layout.n() - layout.f())
            .expect("layout guarantees 1 <= k <= n <= 255");
        Arc::new(SodaConfig {
            layout,
            variant: SodaVariant::Soda,
            code,
        })
    }

    /// Configuration for SODAerr with error budget `e`: the same code at
    /// `[n, n − f − 2e]`, read through its Berlekamp–Welch decoder.
    ///
    /// # Panics
    /// Panics if `f + 2e >= n` (no valid code dimension).
    pub fn soda_err(layout: Layout, e: usize) -> Arc<Self> {
        let code = BerlekampWelchCode::for_fault_tolerance(layout.n(), layout.f(), e)
            .expect("invalid SODAerr parameters: need f + 2e < n");
        Arc::new(SodaConfig {
            layout,
            variant: SodaVariant::SodaErr { e },
            code,
        })
    }

    /// The system layout (servers, `f`).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The algorithm variant.
    pub fn variant(&self) -> SodaVariant {
        self.variant
    }

    /// The erasure code in use.
    pub fn code(&self) -> &VandermondeCode {
        &self.code
    }

    /// Code dimension `k` (`n − f` for SODA, `n − f − 2e` for SODAerr).
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// Number of servers `n`.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Fault tolerance `f`.
    pub fn f(&self) -> usize {
        self.layout.f()
    }

    /// How many distinct coded elements (for one tag) a reader must gather
    /// before decoding: `k` for SODA, `k + 2e` for SODAerr. The same threshold
    /// governs when servers conclude that a registered reader is satisfied
    /// (READ-DISPERSE bookkeeping).
    pub fn read_threshold(&self) -> usize {
        self.k() + 2 * self.variant.error_budget()
    }

    /// The replies `phase` waits for: SODA's thresholds, written once. The
    /// two get phases wait for a majority of responders and `write-put` for
    /// `k` acks. `read-value` waits for [`Self::read_threshold`] coded
    /// elements *of one tag*, which the read counts per tag, not the phase
    /// driver.
    pub(crate) fn needed(&self, phase: Phase) -> usize {
        match phase {
            Phase::WriteGet | Phase::ReadGet => self.layout.majority(),
            Phase::WritePut => self.k(),
            Phase::ReadValue => self.read_threshold(),
        }
    }

    /// Decodes a value from the gathered elements, correcting up to the
    /// variant's error budget `e` of them (none for plain SODA).
    pub fn decode(
        &self,
        elements: &[soda_rs_code::CodedElement],
    ) -> Result<Value, soda_rs_code::CodeError> {
        self.code
            .decode_with_errors(elements, self.variant.error_budget())
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
        assert_eq!(cfg.variant().error_budget(), 0);
        assert_eq!(cfg.n(), 9);
        assert_eq!(cfg.f(), 4);
        assert!(format!("{cfg:?}").contains("n"));
    }

    #[test]
    fn sodaerr_config_uses_k_equals_n_minus_f_minus_2e() {
        let cfg = SodaConfig::soda_err(layout(9, 2), 2);
        assert_eq!(cfg.k(), 3);
        assert_eq!(cfg.read_threshold(), 7);
        assert_eq!(cfg.variant(), SodaVariant::SodaErr { e: 2 });
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
