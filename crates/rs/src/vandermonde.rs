//! Systematic generator-matrix Reed–Solomon code.
//!
//! The encoding matrix is built from an `n × k` Vandermonde matrix `V` by
//! right-multiplying with the inverse of its top `k × k` block, yielding a
//! systematic matrix whose first `k` rows are the identity: coded elements
//! `0..k` are the data shards verbatim and elements `k..n` are parity. Any
//! `k` rows of the resulting matrix remain linearly independent (the MDS
//! property is preserved by column operations), so the value can be decoded
//! from any `k` coded elements by inverting the corresponding row submatrix.
//!
//! The encoding matrix is built once per `(n, k)` and shared process-wide,
//! so a sharded store spinning up thousands of per-key clusters builds it
//! once. Decoding caches nothing: each [`MdsCode::decode`] inverts the
//! `k × k` submatrix of the rows it was given.
//!
//! Every byte is written at most once, straight into the buffer that keeps
//! it. One private row path serves every encode: the data shards that lie
//! wholly inside the value are read in place and only the ones holding the
//! end marker or padding are assembled, each once; each parity row is
//! computed into its element's buffer. [`VandermondeCode::encode_shared`]
//! takes the value's [`Bytes`] and leaves each inside data element in it, a
//! view that copies nothing; [`MdsCode::encode`] and [`MdsCode::encode_one`]
//! take a slice and copy such an element once (no padded copy of the whole
//! value). A re-encode of a decoded value keeps copying, since a `1/k` view
//! would pin a whole buffer that nothing else holds. [`MdsCode::decode`]
//! computes the payload's last `k` bytes first to find the end marker, then
//! writes each data shard's value bytes straight into the decoded value's
//! one allocation. If a view among its elements is part of a buffer holding
//! the same bytes, the value they were encoded from, it returns that buffer
//! and drops its own.
//!
//! The same code corrects silent corruption: `decode_with_errors` with
//! `max_errors > 0` runs the Berlekamp–Welch decoder (`bw.rs`).

use crate::shard::{value_from_shards, DataShard};
use crate::{validate_params, Bytes, CodeError, CodedElement, MdsCode};
use soda_gf::{mul_slice_xor, Matrix};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Map from code parameters `(n, k)` to the shared encoding matrix.
type EncodeMatrixMap = HashMap<(usize, usize), Arc<Matrix>>;

/// Process-wide cache of systematic encoding matrices, keyed by `(n, k)`.
static ENCODE_MATRICES: OnceLock<Mutex<EncodeMatrixMap>> = OnceLock::new();

/// Returns the cached systematic encoding matrix for `(n, k)`, building it
/// with `build` on first use.
fn encode_matrix_for(n: usize, k: usize, build: impl FnOnce() -> Matrix) -> Arc<Matrix> {
    let cache = ENCODE_MATRICES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("encode-matrix cache poisoned");
    map.entry((n, k))
        .or_insert_with(|| Arc::new(build()))
        .clone()
}

/// Systematic Vandermonde-derived `[n, k]` MDS code, with an erasure decoder
/// and a Berlekamp–Welch error-and-erasure decoder.
#[derive(Clone)]
pub struct VandermondeCode {
    n: usize,
    k: usize,
    /// The full `n × k` systematic encoding matrix (shared per `(n, k)`).
    encoding: Arc<Matrix>,
    /// Rows `k..n` of `encoding` — the parity rows. Encoding only multiplies
    /// these: the systematic rows are the identity, so the data shards are
    /// the first `k` coded elements verbatim.
    parity: Matrix,
}

impl std::fmt::Debug for VandermondeCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VandermondeCode[n={}, k={}]", self.n, self.k)
    }
}

impl VandermondeCode {
    /// Creates an `[n, k]` systematic code. Fails if the parameters are not
    /// representable in GF(2^8) (`k = 0`, `k > n`, or `n > 255`).
    pub fn new(n: usize, k: usize) -> Result<Self, CodeError> {
        validate_params(n, k)?;
        let encoding = encode_matrix_for(n, k, || {
            let vandermonde = Matrix::vandermonde(n, k);
            let top: Vec<usize> = (0..k).collect();
            let top_inv = vandermonde
                .select_rows(&top)
                .inverse()
                .expect("top block of a Vandermonde matrix is invertible");
            vandermonde
                .mul(&top_inv)
                .expect("dimensions agree by construction")
        });
        let parity_rows: Vec<usize> = (k..n).collect();
        let parity = encoding.select_rows(&parity_rows);
        Ok(VandermondeCode {
            n,
            k,
            encoding,
            parity,
        })
    }

    /// Convenience constructor matching SODA's choice `k = n - f`. No
    /// protocol calls it (a cluster builds its code once, with
    /// [`Self::new`]); the benchmark's code probes do.
    pub fn for_fault_tolerance(n: usize, f: usize) -> Result<Self, CodeError> {
        if f >= n {
            return Err(CodeError::InvalidParameters { n, k: 0 });
        }
        VandermondeCode::new(n, n - f)
    }

    /// The systematic encoding matrix (first `k` rows are the identity).
    pub fn encoding_matrix(&self) -> &Matrix {
        &self.encoding
    }

    /// Parity element `Φ_i(v)`, `i ≥ k`, computed straight into its buffer
    /// from the `k` data shards.
    fn parity_row<S: AsRef<[u8]>>(&self, i: usize, data: &[S]) -> Bytes {
        Bytes::filled(data[0].as_ref().len(), |out| {
            self.parity
                .apply_row_to_shards(i - self.k, data, out)
                .expect("shard count equals k by construction")
        })
    }

    /// `Φ(v)` of a value held in `value`: the same `n` elements as
    /// [`MdsCode::encode`], but each data element whose shard lies wholly
    /// inside the value is a view of `value`'s buffer rather than a copy.
    /// Only the last data element (it holds the end marker and padding; the
    /// last few when an element is shorter than `k` bytes) and the parity
    /// elements get buffers of their own.
    pub fn encode_shared(&self, value: &Bytes) -> Vec<CodedElement> {
        self.encode_rows(value, Some(value), 0..self.n)
    }

    /// `Φ_i(v)` for each `i` in `rows`, in order, computing only those rows.
    /// A data row is its shard (see [`DataShard::payload`]: a view of
    /// `shared`, the buffer holding `value`, when given); a parity row reads
    /// the `k` data shards, cut from the value once for all parity rows.
    /// Every `i` is below `n`.
    pub(crate) fn encode_rows(
        &self,
        value: &[u8],
        shared: Option<&Bytes>,
        rows: impl IntoIterator<Item = usize> + Clone,
    ) -> Vec<CodedElement> {
        let k = self.k;
        let shards: Option<Vec<DataShard>> = (rows.clone().into_iter().any(|i| i >= k))
            .then(|| (0..k).map(|i| DataShard::of(value, k, i)).collect());
        let slices: Vec<&[u8]> = shards.iter().flatten().map(|s| s.bytes(value)).collect();
        rows.into_iter()
            .map(|i| {
                let payload = match &shards {
                    _ if i >= k => self.parity_row(i, &slices).into(),
                    Some(shards) => shards[i].payload(value, shared),
                    None => DataShard::of(value, k, i).payload(value, shared),
                };
                CodedElement::new(i, payload)
            })
            .collect()
    }

    /// Validates a set of coded elements: distinct in-range indices, equal
    /// lengths, at least `need` of them. Returns the first `need` elements.
    pub(crate) fn validate_elements<'a>(
        &self,
        elements: &'a [CodedElement],
        need: usize,
    ) -> Result<&'a [CodedElement], CodeError> {
        if elements.len() < need {
            return Err(CodeError::NotEnoughElements {
                have: elements.len(),
                need,
            });
        }
        let mut seen = vec![false; self.n];
        let len = elements[0].data.len();
        for e in elements {
            if e.index >= self.n {
                return Err(CodeError::InvalidIndex {
                    index: e.index,
                    n: self.n,
                });
            }
            if seen[e.index] {
                return Err(CodeError::DuplicateIndex { index: e.index });
            }
            seen[e.index] = true;
            if e.data.len() != len {
                return Err(CodeError::InconsistentElementLength);
            }
        }
        Ok(&elements[..need])
    }
}

impl MdsCode for VandermondeCode {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn encode(&self, value: &[u8]) -> Result<Vec<CodedElement>, CodeError> {
        // Systematic: rows `0..k` of the encoding matrix are the identity,
        // so the data shards *are* the first `k` coded elements. Only the
        // `n - k` parity rows need GF multiplies.
        Ok(self.encode_rows(value, None, 0..self.n))
    }

    fn encode_one(&self, value: &[u8], index: usize) -> Result<CodedElement, CodeError> {
        if index >= self.n {
            return Err(CodeError::InvalidIndex { index, n: self.n });
        }
        Ok(self.encode_rows(value, None, [index]).remove(0))
    }

    fn decode(&self, elements: &[CodedElement]) -> Result<Bytes, CodeError> {
        let chosen = self.validate_elements(elements, self.k)?;
        // The encoding rows of the chosen elements, copied straight in.
        let mut rows = Matrix::zero(self.k, self.k);
        for (r, element) in chosen.iter().enumerate() {
            for c in 0..self.k {
                rows[(r, c)] = self.encoding[(element.index, c)];
            }
        }
        let inv = rows.inverse().map_err(|_| CodeError::TooManyErrors)?;
        // Data shard `i` is row `i` of the inverse applied to the chosen
        // elements; `value_from_shards` asks for the payload's last `k`
        // columns first and then for each shard's value columns, written
        // into the value.
        let value = value_from_shards(self.k, chosen[0].data.len(), |i, cols, out| {
            for (j, element) in chosen.iter().enumerate() {
                mul_slice_xor(inv[(i, j)], &element.data[cols.clone()], out);
            }
        })?;
        // A data element left in its write's value is a view of that
        // buffer; if the decode rebuilt the same bytes, the write's buffer
        // is returned and the copy freed.
        let mut views = elements.iter().filter_map(|e| e.data.viewed());
        Ok(views.find(|buf| **buf == value).cloned().unwrap_or(value))
    }

    fn decode_with_errors(
        &self,
        elements: &[CodedElement],
        max_errors: usize,
    ) -> Result<Bytes, CodeError> {
        if max_errors == 0 {
            return self.decode(elements);
        }
        self.decode_correcting(elements, max_errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(37) % 256) as u8).collect()
    }

    #[test]
    fn systematic_property_first_k_elements_are_data() {
        let code = VandermondeCode::new(6, 4).unwrap();
        let value = sample_value(50);
        let elements = code.encode(&value).unwrap();
        let data_shards = crate::pad_and_split(&value, 4);
        for i in 0..4 {
            assert_eq!(
                elements[i].data, data_shards[i],
                "element {i} not systematic"
            );
        }
    }

    #[test]
    fn decode_from_any_k_subset() {
        let code = VandermondeCode::new(7, 3).unwrap();
        let value = sample_value(100);
        let elements = code.encode(&value).unwrap();
        // Try every 3-subset of the 7 elements.
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    let subset = vec![
                        elements[a].clone(),
                        elements[b].clone(),
                        elements[c].clone(),
                    ];
                    assert_eq!(code.decode(&subset).unwrap(), value, "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn decode_is_order_independent() {
        let code = VandermondeCode::new(6, 3).unwrap();
        let value = sample_value(64);
        let elements = code.encode(&value).unwrap();
        let orders: [[usize; 3]; 4] = [[5, 1, 3], [3, 5, 1], [1, 3, 5], [5, 3, 1]];
        for order in orders {
            let subset: Vec<CodedElement> = order.iter().map(|&i| elements[i].clone()).collect();
            assert_eq!(code.decode(&subset).unwrap(), value, "order {order:?}");
        }
    }

    #[test]
    fn decode_uses_first_k_of_more_than_k_elements() {
        let code = VandermondeCode::new(5, 2).unwrap();
        let value = sample_value(33);
        let elements = code.encode(&value).unwrap();
        assert_eq!(code.decode(&elements).unwrap(), value);
    }

    #[test]
    fn decode_with_insufficient_elements_fails() {
        let code = VandermondeCode::new(5, 3).unwrap();
        let value = sample_value(10);
        let elements = code.encode(&value).unwrap();
        let result = code.decode(&elements[..2]);
        assert_eq!(
            result,
            Err(CodeError::NotEnoughElements { have: 2, need: 3 })
        );
    }

    #[test]
    fn decode_rejects_duplicate_indices() {
        let code = VandermondeCode::new(5, 3).unwrap();
        let value = sample_value(10);
        let elements = code.encode(&value).unwrap();
        let bad = vec![
            elements[0].clone(),
            elements[0].clone(),
            elements[1].clone(),
        ];
        assert_eq!(
            code.decode(&bad),
            Err(CodeError::DuplicateIndex { index: 0 })
        );
    }

    #[test]
    fn decode_rejects_out_of_range_index() {
        let code = VandermondeCode::new(4, 2).unwrap();
        let bad = vec![
            CodedElement::new(9, vec![0; 4]),
            CodedElement::new(1, vec![0; 4]),
        ];
        assert!(matches!(
            code.decode(&bad),
            Err(CodeError::InvalidIndex { index: 9, .. })
        ));
    }

    #[test]
    fn decode_rejects_inconsistent_lengths() {
        let code = VandermondeCode::new(4, 2).unwrap();
        let value = sample_value(20);
        let mut elements = code.encode(&value).unwrap();
        let mut shorter = elements[1].data.to_vec();
        shorter.pop();
        elements[1].data = shorter.into();
        assert_eq!(
            code.decode(&elements[..2]),
            Err(CodeError::InconsistentElementLength)
        );
    }

    #[test]
    fn corrects_errors_from_k_plus_2e_elements() {
        // [7, 3] corrects e = 2 from k + 2e = 7 elements, and e = 1 from any
        // k + 2e = 5 of them, with up to e corrupted.
        let code = VandermondeCode::new(7, 3).unwrap();
        let value = sample_value(45);
        let mut elements = code.encode(&value).unwrap();
        for victim in [1, 5] {
            for b in elements[victim].data.make_mut() {
                *b ^= 0x3C;
            }
        }
        assert_eq!(code.decode_with_errors(&elements, 2).unwrap(), value);
        let five = [
            &elements[0],
            &elements[2],
            &elements[3],
            &elements[5],
            &elements[6],
        ];
        let five: Vec<CodedElement> = five.into_iter().cloned().collect();
        assert_eq!(code.decode_with_errors(&five, 1).unwrap(), value);
        // max_errors = 0 is the erasure decoder.
        assert_eq!(
            code.decode_with_errors(&elements[2..5], 0),
            code.decode(&elements[2..5])
        );
    }

    #[test]
    fn replication_degenerate_case_k_equals_one() {
        let code = VandermondeCode::new(3, 1).unwrap();
        let value = sample_value(40);
        let elements = code.encode(&value).unwrap();
        for e in &elements {
            assert_eq!(code.decode(std::slice::from_ref(e)).unwrap(), value);
        }
    }

    #[test]
    fn trivial_case_k_equals_n() {
        let code = VandermondeCode::new(4, 4).unwrap();
        let value = sample_value(25);
        let elements = code.encode(&value).unwrap();
        assert_eq!(code.decode(&elements).unwrap(), value);
    }

    #[test]
    fn for_fault_tolerance_sets_k() {
        let code = VandermondeCode::for_fault_tolerance(9, 4).unwrap();
        assert_eq!(code.n(), 9);
        assert_eq!(code.k(), 5);
        assert!(VandermondeCode::for_fault_tolerance(5, 5).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(VandermondeCode::new(3, 5).is_err());
        assert!(VandermondeCode::new(0, 0).is_err());
        assert!(VandermondeCode::new(300, 10).is_err());
    }

    #[test]
    fn encode_matrix_is_shared_per_parameters() {
        let a = encode_matrix_for(201, 7, || Matrix::vandermonde(201, 7));
        let b = encode_matrix_for(201, 7, || panic!("must be cached"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn encoding_matrix_is_shared_across_instances() {
        let a = VandermondeCode::new(11, 7).unwrap();
        let b = VandermondeCode::new(11, 7).unwrap();
        assert!(
            std::ptr::eq(a.encoding_matrix(), a.encoding_matrix()),
            "sanity"
        );
        assert!(
            Arc::ptr_eq(&a.encoding, &b.encoding),
            "same (n, k) shares one matrix"
        );
    }

    #[test]
    fn large_value_round_trip() {
        let code = VandermondeCode::new(12, 8).unwrap();
        let value = sample_value(64 * 1024);
        let elements = code.encode(&value).unwrap();
        let subset: Vec<CodedElement> = elements.into_iter().skip(4).collect();
        assert_eq!(code.decode(&subset).unwrap(), value);
    }

    #[test]
    fn empty_value_round_trip() {
        let code = VandermondeCode::new(5, 3).unwrap();
        let elements = code.encode(&[]).unwrap();
        let subset = vec![
            elements[4].clone(),
            elements[2].clone(),
            elements[0].clone(),
        ];
        assert!(code.decode(&subset).unwrap().is_empty());
    }
}
