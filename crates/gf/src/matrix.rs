//! Row-major matrices over GF(2^8).
//!
//! The MDS encoder in `soda-rs-code` is a matrix-vector product of an `n × k`
//! encoding matrix with the `k` data shards, and the erasure decoder inverts a
//! `k × k` submatrix of surviving rows. This module provides exactly those
//! operations, together with the Vandermonde construction whose square
//! submatrices of distinct rows are guaranteed invertible (the MDS property).

use crate::Gf256;
use std::fmt;

/// Errors produced by matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is singular and cannot be inverted.
    Singular,
    /// Operand dimensions do not agree.
    DimensionMismatch {
        /// Human-readable description of the mismatching operation.
        context: &'static str,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows have uneven lengths.
    pub fn from_rows(rows: Vec<Vec<Gf256>>) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in &rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix from nested byte rows (convenience for tests).
    pub fn from_bytes(rows: &[&[u8]]) -> Self {
        Matrix::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|&b| Gf256::new(b)).collect())
                .collect(),
        )
    }

    /// A (non-systematic) `rows × cols` Vandermonde matrix: entry `(i, j)` is
    /// `α_i^j` where `α_i` is the field element with value `i`.
    ///
    /// Every square submatrix formed by choosing distinct rows is invertible as
    /// long as the evaluation points are distinct, which holds for
    /// `rows <= 256`.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= 256,
            "at most 256 distinct evaluation points in GF(2^8)"
        );
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let x = Gf256::new(i as u8);
            for j in 0..cols {
                m[(i, j)] = x.pow(j as u64);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow a row as a slice.
    pub fn row(&self, i: usize) -> &[Gf256] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Matrix multiplication.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                context: "matrix multiply",
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(l, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector multiplication.
    pub fn mul_vec(&self, v: &[Gf256]) -> Result<Vec<Gf256>, MatrixError> {
        if self.cols != v.len() {
            return Err(MatrixError::DimensionMismatch {
                context: "matrix-vector multiply",
            });
        }
        let mut out = vec![Gf256::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = Gf256::ZERO;
            for (j, &x) in v.iter().enumerate() {
                acc += self[(i, j)] * x;
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Applies the matrix to `k` equal-length byte shards, producing
    /// `self.rows()` output shards: `out[i] = Σ_j self[i][j] * shards[j]`.
    ///
    /// Each output shard is one [`Self::apply_row_to_shards`] into a zeroed
    /// buffer.
    pub fn apply_to_shards(&self, shards: &[&[u8]]) -> Result<Vec<Vec<u8>>, MatrixError> {
        let shard_len = shards.first().map_or(0, |s| s.len());
        (0..self.rows)
            .map(|row| {
                let mut out = vec![0u8; shard_len];
                self.apply_row_to_shards(row, shards, &mut out)?;
                Ok(out)
            })
            .collect()
    }

    /// Adds one row of the matrix applied to `k` byte shards into `out`:
    /// `out ^= Σ_j self[row][j] * shards[j]` (addition in GF(2^8) is XOR), so
    /// a zeroed `out` receives the product. Every shard must be as long as
    /// `out`.
    ///
    /// This is the bulk-data path of the Reed–Solomon code: the encoder
    /// computes a parity row, and the decoder a data shard (or the columns of
    /// one it needs), straight into the buffer that keeps it. It runs on the
    /// wide split-nibble kernel ([`crate::mul_slice_xor`]).
    pub fn apply_row_to_shards<S: AsRef<[u8]>>(
        &self,
        row: usize,
        shards: &[S],
        out: &mut [u8],
    ) -> Result<(), MatrixError> {
        if shards.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "apply_row_to_shards",
            });
        }
        if shards.iter().any(|s| s.as_ref().len() != out.len()) {
            return Err(MatrixError::DimensionMismatch {
                context: "apply_row_to_shards: unequal shard lengths",
            });
        }
        for (j, shard) in shards.iter().enumerate() {
            crate::mul_slice_xor(self[(row, j)], shard.as_ref(), out);
        }
        Ok(())
    }

    /// Gauss–Jordan inversion. Returns [`MatrixError::Singular`] if the matrix
    /// has no inverse, and a dimension error if it is not square.
    pub fn inverse(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::DimensionMismatch {
                context: "inverse of non-square matrix",
            });
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find pivot.
            let pivot_row = (col..n).find(|&r| !work[(r, col)].is_zero());
            let pivot_row = match pivot_row {
                Some(r) => r,
                None => return Err(MatrixError::Singular),
            };
            work.swap_rows(col, pivot_row);
            inv.swap_rows(col, pivot_row);
            // Normalize pivot row.
            let pivot_inv = work[(col, col)].inverse();
            for j in 0..n {
                work[(col, j)] *= pivot_inv;
                inv[(col, j)] *= pivot_inv;
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work[(r, col)];
                if factor.is_zero() {
                    continue;
                }
                for j in 0..n {
                    let w = work[(col, j)];
                    let v = inv[(col, j)];
                    work[(r, j)] -= factor * w;
                    inv[(r, j)] -= factor * v;
                }
            }
        }
        Ok(inv)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Gf256 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Gf256 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:02x} ", self[(i, j)].value())?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_identity_map() {
        let m = Matrix::from_bytes(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let id = Matrix::identity(3);
        assert_eq!(id.mul(&m).unwrap(), m);
        assert_eq!(m.mul(&id).unwrap(), m);
    }

    #[test]
    fn mul_dimension_mismatch_is_error() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn inverse_round_trip_small() {
        let m = Matrix::from_bytes(&[&[1, 2], &[3, 4]]);
        let inv = m.inverse().unwrap();
        assert_eq!(m.mul(&inv).unwrap(), Matrix::identity(2));
        assert_eq!(inv.mul(&m).unwrap(), Matrix::identity(2));
    }

    #[test]
    fn inverse_of_singular_matrix_fails() {
        // Two identical rows -> singular.
        let m = Matrix::from_bytes(&[&[1, 2], &[1, 2]]);
        assert_eq!(m.inverse(), Err(MatrixError::Singular));
    }

    #[test]
    fn inverse_of_non_square_fails() {
        let m = Matrix::zero(2, 3);
        assert!(matches!(
            m.inverse(),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn vandermonde_square_submatrices_invertible() {
        // MDS property backbone: any k rows of an n x k Vandermonde matrix with
        // distinct evaluation points form an invertible matrix.
        let n = 10;
        let k = 4;
        let v = Matrix::vandermonde(n, k);
        let row_sets: [&[usize]; 4] = [&[0, 1, 2, 3], &[0, 2, 5, 9], &[6, 7, 8, 9], &[1, 3, 5, 7]];
        for rows in row_sets {
            let sub = v.select_rows(rows);
            let inv = sub
                .inverse()
                .expect("Vandermonde submatrix must be invertible");
            assert_eq!(sub.mul(&inv).unwrap(), Matrix::identity(k));
        }
    }

    #[test]
    fn mul_vec_matches_mul_with_column_matrix() {
        let m = Matrix::from_bytes(&[&[1, 2, 3], &[4, 5, 6]]);
        let v = vec![Gf256::new(7), Gf256::new(8), Gf256::new(9)];
        let out = m.mul_vec(&v).unwrap();
        let col = Matrix::from_rows(v.iter().map(|&x| vec![x]).collect());
        let expected = m.mul(&col).unwrap();
        assert_eq!(out[0], expected[(0, 0)]);
        assert_eq!(out[1], expected[(1, 0)]);
    }

    #[test]
    fn mul_vec_dimension_mismatch() {
        let m = Matrix::zero(2, 3);
        assert!(m.mul_vec(&[Gf256::ONE]).is_err());
    }

    #[test]
    fn apply_to_shards_matches_per_byte_mul_vec() {
        let m = Matrix::vandermonde(5, 3);
        let shards: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
        let shard_refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let out = m.apply_to_shards(&shard_refs).unwrap();
        assert_eq!(out.len(), 5);
        for byte_idx in 0..4 {
            let v: Vec<Gf256> = shards.iter().map(|s| Gf256::new(s[byte_idx])).collect();
            let expected = m.mul_vec(&v).unwrap();
            for (i, row) in out.iter().enumerate() {
                assert_eq!(Gf256::new(row[byte_idx]), expected[i]);
            }
        }
    }

    #[test]
    fn apply_row_to_shards_matches_full_apply() {
        let m = Matrix::vandermonde(5, 3);
        let shards: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
        let shard_refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let full = m.apply_to_shards(&shard_refs).unwrap();
        for (i, expected) in full.iter().enumerate() {
            let mut out = vec![0u8; 4];
            m.apply_row_to_shards(i, &shards, &mut out).unwrap();
            assert_eq!(&out, expected);
            // The row is added into `out`: applying it again cancels it.
            m.apply_row_to_shards(i, &shard_refs, &mut out).unwrap();
            assert_eq!(out, [0u8; 4]);
        }
        let ragged: Vec<&[u8]> = vec![&[1, 2], &[3]];
        assert!(m.apply_row_to_shards(0, &ragged, &mut [0u8; 2]).is_err());
        assert!(m
            .apply_row_to_shards(0, &shard_refs[..2], &mut [0u8; 4])
            .is_err());
        assert!(m
            .apply_row_to_shards(0, &shard_refs, &mut [0u8; 3])
            .is_err());
    }

    #[test]
    fn apply_to_shards_rejects_ragged_input() {
        let m = Matrix::vandermonde(3, 2);
        let a = vec![1u8, 2, 3];
        let b = vec![1u8, 2];
        assert!(m.apply_to_shards(&[&a, &b]).is_err());
    }

    #[test]
    fn select_rows_and_row_access() {
        let m = Matrix::from_bytes(&[&[1, 2], &[3, 4], &[5, 6]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[Gf256::new(5), Gf256::new(6)]);
        assert_eq!(s.row(1), &[Gf256::new(1), Gf256::new(2)]);
    }

    #[test]
    fn swap_rows_same_index_is_noop() {
        let mut m = Matrix::from_bytes(&[&[1, 2], &[3, 4]]);
        let before = m.clone();
        m.swap_rows(1, 1);
        assert_eq!(m, before);
    }

    #[test]
    fn random_invertible_matrices_round_trip() {
        let mut rng = soda_simnet::rng::SimRng::new(42);
        let mut found = 0;
        while found < 20 {
            let n = rng.gen_range(1..=6);
            let mut m = Matrix::zero(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = Gf256::new(rng.gen());
                }
            }
            if let Ok(inv) = m.inverse() {
                assert_eq!(m.mul(&inv).unwrap(), Matrix::identity(n));
                found += 1;
            }
        }
    }
}
