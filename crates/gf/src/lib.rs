//! Galois-field arithmetic for MDS erasure codes.
//!
//! This crate provides the algebraic substrate used by the Reed–Solomon
//! implementation in `soda-rs-code`:
//!
//! * [`Gf256`] — the finite field GF(2^8) with the AES/Rijndael-compatible
//!   primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), implemented with
//!   precomputed exponential/logarithm tables.
//! * [`mul_slice`] / [`mul_slice_xor`] / [`xor_slice`] — wide slice kernels
//!   over split 4-bit-nibble lookup tables. The multiply kernels process 32
//!   bytes per iteration with AVX2 shuffles where the CPU has them (detected
//!   at run time) and eight bytes per `u64` word otherwise and on the tail.
//!   These are the bulk-data hot path; the per-byte loops on [`Gf256`] remain
//!   as the reference implementation. The AVX2 kernel is the crate's only
//!   `unsafe` code.
//! * [`Poly`] — dense polynomials over GF(2^8) (addition, multiplication,
//!   Euclidean division, evaluation). Used by the Berlekamp–Welch
//!   error-and-erasure decoder in `soda-rs-code`, which solves for an error
//!   locator `E` and a product `Q = p·E`, then divides `Q` by `E`.
//! * [`Matrix`] — row-major matrices over GF(2^8) with Gauss–Jordan inversion
//!   and a Vandermonde constructor. Used by the systematic encoder and the
//!   erasure decoder.
//!
//! The paper ("Storage-Optimized Data-Atomic Algorithms…", Konwar et al.)
//! abstracts the code as an encoder Φ and decoders Φ⁻¹ / Φ⁻¹_err over an
//! `[n, k]` MDS code; everything in this crate exists to realize those three
//! functions concretely without external dependencies.
//!
//! # Example
//!
//! ```
//! use soda_gf::Gf256;
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! let p = a * b;
//! assert_eq!(p / b, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2
//! ```

#![deny(missing_docs)]
// `deny`, not `forbid`: the AVX2 module in `kernel.rs` allows it locally.
#![deny(unsafe_code)]

mod gf256;
mod kernel;
mod matrix;
mod poly;

pub use gf256::Gf256;
pub use kernel::{mul_slice, mul_slice_xor, xor_slice};
pub use matrix::{Matrix, MatrixError};
pub use poly::Poly;
