//! Reed–Solomon `[n, k]` MDS codes for the SODA reproduction.
//!
//! The paper abstracts erasure coding as three functions over a value `v`:
//!
//! * `Φ(v)` — the encoder, producing `n` coded elements `c_1 … c_n`, one per
//!   server (`Φ_i(v)` is the projection onto server `i`'s element);
//! * `Φ⁻¹(C)` — the erasure decoder, recovering `v` from any `k` coded
//!   elements with **known** indices (used by SODA with `k = n − f`);
//! * `Φ⁻¹_err(C)` — the error-and-erasure decoder, recovering `v` from
//!   `k + 2e` coded elements of which up to `e` may be **silently corrupted**
//!   (used by SODAerr with `k = n − f − 2e`).
//!
//! One systematic Reed–Solomon code, [`VandermondeCode`], realizes all
//! three. Encoding is a matrix–shard product; [`MdsCode::decode`] inverts
//! the `k × k` submatrix of surviving rows; [`MdsCode::decode_with_errors`]
//! with `max_errors > 0` runs a Berlekamp–Welch decoder on the same code.
//! A cluster builds it once with [`VandermondeCode::new`]: `k = n − f` for
//! SODA, `k = n − f − 2e` for SODAerr, `k = n − 2f` for CAS and `k = 1` for
//! ABD's replication.
//!
//! Values of arbitrary byte length are cut into `k` contiguous data shards
//! (see [`pad_and_split`]); byte `j` of every element together is one
//! independent RS codeword.
//!
//! # Example
//!
//! ```
//! use soda_rs_code::{MdsCode, VandermondeCode};
//!
//! let code = VandermondeCode::new(5, 3).unwrap();            // tolerate f = 2 erasures
//! let value = b"atomic registers from coded shards".to_vec();
//! let elements = code.encode(&value).unwrap();                 // Φ(v): 5 coded elements
//! // Any 3 of the 5 elements reconstruct the value (here: 0, 2, 4).
//! let subset = vec![elements[0].clone(), elements[2].clone(), elements[4].clone()];
//! assert_eq!(code.decode(&subset).unwrap(), value);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod bw;
mod bytes;
mod error;
mod shard;
mod vandermonde;

pub use bw::BerlekampWelchCode;
pub use bytes::{Bytes, Payload};
pub use error::CodeError;
pub use shard::{pad_and_split, reassemble, CodedElement, ReassembleError, LENGTH_HEADER};
pub use vandermonde::VandermondeCode;

/// The interface of the `[n, k]` MDS code used by the protocols.
///
/// All methods operate on whole values (arbitrary byte strings); the
/// implementation chunks them into per-server coded elements internally.
pub trait MdsCode: Send + Sync {
    /// Total number of coded elements (= number of servers), the `n` in `[n, k]`.
    fn n(&self) -> usize;

    /// Number of data elements required for reconstruction, the `k` in `[n, k]`.
    fn k(&self) -> usize;

    /// Encodes the value into `n` coded elements, one per server index
    /// `0..n`. This is the paper's `Φ(v)`. Each element is one allocation,
    /// written in place. A value held in a [`Bytes`] is encoded with
    /// [`VandermondeCode::encode_shared`], whose data elements view it.
    fn encode(&self, value: &[u8]) -> Result<Vec<CodedElement>, CodeError>;

    /// Encodes and returns only the element for server `index`
    /// (the paper's `Φ_i(v)`).
    fn encode_one(&self, value: &[u8], index: usize) -> Result<CodedElement, CodeError>;

    /// Decodes a value from at least `k` coded elements with distinct, known
    /// indices and no corruption. This is the paper's `Φ⁻¹(C)`. Each call
    /// inverts the `k × k` submatrix of the first `k` elements' rows; nothing
    /// is cached between calls. The value is returned as [`Bytes`], one
    /// allocation that each data shard's bytes are computed straight into,
    /// ready to be shared as a protocol value.
    fn decode(&self, elements: &[CodedElement]) -> Result<Bytes, CodeError>;

    /// Decodes a value from coded elements of which up to `max_errors` may be
    /// silently corrupted (wrong bytes under a correct index). Requires at
    /// least `k + 2 * max_errors` elements. This is the paper's `Φ⁻¹_err(C)`;
    /// with `max_errors = 0` it is [`Self::decode`].
    fn decode_with_errors(
        &self,
        elements: &[CodedElement],
        max_errors: usize,
    ) -> Result<Bytes, CodeError>;

    /// The normalized size of one coded element relative to the value size
    /// (`1/k` in the paper's cost model).
    fn element_fraction(&self) -> f64 {
        1.0 / self.k() as f64
    }

    /// Normalized total storage cost when every server stores one coded
    /// element (`n/k` in the paper's cost model).
    fn total_storage_fraction(&self) -> f64 {
        self.n() as f64 / self.k() as f64
    }
}

/// Validates `[n, k]` code parameters.
pub(crate) fn validate_params(n: usize, k: usize) -> Result<(), CodeError> {
    if k == 0 || n == 0 || k > n || n > 255 {
        return Err(CodeError::InvalidParameters { n, k });
    }
    Ok(())
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn element_and_storage_fractions() {
        let code = VandermondeCode::new(10, 5).unwrap();
        assert!((code.element_fraction() - 0.2).abs() < 1e-12);
        assert!((code.total_storage_fraction() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(validate_params(0, 0).is_err());
        assert!(validate_params(5, 0).is_err());
        assert!(validate_params(4, 5).is_err());
        assert!(validate_params(256, 100).is_err());
        assert!(validate_params(255, 255).is_ok());
        assert!(validate_params(5, 5).is_ok());
    }

    #[test]
    fn encode_one_matches_full_encode() {
        let code = VandermondeCode::new(7, 4).unwrap();
        let value = b"projection check".to_vec();
        let all = code.encode(&value).unwrap();
        for (i, expected) in all.iter().enumerate() {
            let one = code.encode_one(&value, i).unwrap();
            assert_eq!(&one, expected);
        }
        assert!(code.encode_one(&value, 7).is_err());
    }
}
