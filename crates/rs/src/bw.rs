//! Berlekamp–Welch error-and-erasure decoding (`Φ⁻¹_err`).
//!
//! SODAerr must reconstruct a value from `k + 2e` coded elements when up to
//! `e` of them are *silently corrupted* — the indices are right but the bytes
//! are wrong, and the decoder does not know which ones. Missing elements
//! (crashed servers) are simply absent, i.e. they never enter the decoder, so
//! erasures are handled implicitly by decoding from whatever subset arrived.
//!
//! This is a second decoder for the one systematic `[n, k]` code,
//! [`VandermondeCode`], reached through its `decode_with_errors` with
//! `max_errors > 0`. Every codeword is the evaluation of a degree-`< k`
//! polynomial `p` at the points `x_i = i` (as GF(2^8) elements), and the data
//! symbols are the first `k` evaluations. The Berlekamp–Welch algorithm
//! recovers `p` from `m ≥ k + 2e` evaluations with at most `e` wrong values by
//! solving a single linear system for an error-locator polynomial `E` (monic,
//! degree `e`) and a product polynomial `Q = p·E` (degree `< k + e`) such that
//! `Q(x_i) = y_i · E(x_i)` at every received point; then `p = Q / E`.
//!
//! Because corruption happens at *element* granularity (a corrupt element is
//! wrong in the same position of every byte column), the decoder runs
//! Berlekamp–Welch on the first byte column only, derives the set of corrupt
//! element indices, drops them, and bulk erasure-decodes the rest — with a
//! verification pass and a per-column fallback for the (adversarial) case
//! where a corrupt element happens to agree with the true codeword in the
//! probed column.

use crate::{reassemble, Bytes, CodeError, CodedElement, MdsCode, VandermondeCode};
use soda_gf::{Gf256, Poly};

/// The `[n, n − f − 2e]` constructor for the one code type: the
/// [`VandermondeCode`] whose `decode_with_errors(elements, e)` corrects up
/// to `e` corrupt elements among `k + 2e`. No protocol calls it (a cluster
/// builds its code once, with [`VandermondeCode::new`]); the benchmark's
/// code probes do.
#[derive(Debug)]
pub enum BerlekampWelchCode {}

impl BerlekampWelchCode {
    /// The code SODAerr runs, `k = n − f − 2e`. Fails if `f + 2e >= n`.
    pub fn for_fault_tolerance(n: usize, f: usize, e: usize) -> Result<VandermondeCode, CodeError> {
        if f + 2 * e >= n {
            return Err(CodeError::InvalidParameters { n, k: 0 });
        }
        VandermondeCode::new(n, n - f - 2 * e)
    }
}

impl VandermondeCode {
    /// Evaluation point associated with code position `i`.
    fn point(i: usize) -> Gf256 {
        Gf256::new(i as u8)
    }

    /// Recovers the message polynomial of one byte column via
    /// Berlekamp–Welch. `points` are `(x_i, y_i)` pairs; at most `max_errors`
    /// of the `y_i` may be wrong. Returns the polynomial `p` (degree `< k`)
    /// or `None` when no consistent decoding exists.
    fn solve_column(points: &[(Gf256, Gf256)], k: usize, max_errors: usize) -> Option<Poly> {
        let e = max_errors;
        let m = points.len();
        debug_assert!(m >= k + 2 * e);
        if e == 0 {
            // Plain interpolation through the first k points would ignore the
            // rest; instead solve the overdetermined system to catch
            // inconsistencies — equivalent to BW with an empty locator.
            return Self::interpolate_checked(points, k);
        }
        // Unknowns: q_0..q_{k+e-1} (Q coefficients) then e_0..e_{e-1}
        // (non-leading E coefficients, E is monic of degree e).
        let unknowns = k + 2 * e;
        let mut rows: Vec<Vec<Gf256>> = Vec::with_capacity(m);
        let mut rhs: Vec<Gf256> = Vec::with_capacity(m);
        for &(x, y) in points {
            let mut row = vec![Gf256::ZERO; unknowns];
            let mut xp = Gf256::ONE;
            for coeff in row.iter_mut().take(k + e) {
                *coeff = xp;
                xp *= x;
            }
            // -y * (e_0 + e_1 x + … + e_{e-1} x^{e-1}); minus is plus in GF(2^8).
            let mut xp = Gf256::ONE;
            for j in 0..e {
                row[k + e + j] = y * xp;
                xp *= x;
            }
            // Right-hand side: y * x^e (from the monic leading term of E).
            rhs.push(y * x.pow(e as u64));
            rows.push(row);
        }
        let solution = solve_linear_system(&mut rows, &mut rhs)?;
        let q = Poly::from_coeffs(solution[..k + e].to_vec());
        let mut e_coeffs = solution[k + e..].to_vec();
        e_coeffs.push(Gf256::ONE); // monic leading term
        let e_poly = Poly::from_coeffs(e_coeffs);
        let (p, rem) = q.div_rem(&e_poly);
        if !rem.is_zero() {
            return None;
        }
        if p.degree().is_some_and(|d| d >= k) {
            return None;
        }
        // Sanity: p must agree with all but at most e received points.
        let disagreements = points.iter().filter(|&&(x, y)| p.eval(x) != y).count();
        if disagreements > e {
            return None;
        }
        Some(p)
    }

    /// Interpolates a degree-`< k` polynomial through the points and checks it
    /// is consistent with *all* of them (used for the `max_errors == 0` path).
    fn interpolate_checked(points: &[(Gf256, Gf256)], k: usize) -> Option<Poly> {
        let mut rows: Vec<Vec<Gf256>> = Vec::with_capacity(points.len());
        let mut rhs: Vec<Gf256> = Vec::with_capacity(points.len());
        for &(x, y) in points {
            let mut row = vec![Gf256::ZERO; k];
            let mut xp = Gf256::ONE;
            for coeff in row.iter_mut() {
                *coeff = xp;
                xp *= x;
            }
            rows.push(row);
            rhs.push(y);
        }
        let solution = solve_linear_system(&mut rows, &mut rhs)?;
        let p = Poly::from_coeffs(solution);
        if points.iter().all(|&(x, y)| p.eval(x) == y) {
            Some(p)
        } else {
            None
        }
    }

    /// Full per-column Berlekamp–Welch decode (slow path).
    fn decode_per_column(
        &self,
        elements: &[CodedElement],
        max_errors: usize,
    ) -> Result<Bytes, CodeError> {
        let k = self.k();
        let shard_len = elements[0].data.len();
        let mut data_shards = vec![vec![0u8; shard_len]; k];
        for col in 0..shard_len {
            let points: Vec<(Gf256, Gf256)> = elements
                .iter()
                .map(|e| (Self::point(e.index), Gf256::new(e.data[col])))
                .collect();
            let p = Self::solve_column(&points, k, max_errors).ok_or(CodeError::TooManyErrors)?;
            for (i, shard) in data_shards.iter_mut().enumerate() {
                shard[col] = p.eval(Self::point(i)).value();
            }
        }
        Ok(reassemble(&data_shards)?.into())
    }

    /// `Φ⁻¹_err` with `max_errors > 0`: decodes from at least
    /// `k + 2·max_errors` elements of which up to `max_errors` may be
    /// corrupt.
    pub(crate) fn decode_correcting(
        &self,
        elements: &[CodedElement],
        max_errors: usize,
    ) -> Result<Bytes, CodeError> {
        let k = self.k();
        self.validate_elements(elements, k + 2 * max_errors)?;
        if elements[0].data.is_empty() {
            return Err(CodeError::CorruptPayload);
        }

        // Fast path: locate corrupt elements using the first byte column, drop
        // them, and bulk erasure-decode from the survivors.
        let col0: Vec<(Gf256, Gf256)> = elements
            .iter()
            .map(|e| (Self::point(e.index), Gf256::new(e.data[0])))
            .collect();
        if let Some(p0) = Self::solve_column(&col0, k, max_errors) {
            let good: Vec<CodedElement> = elements
                .iter()
                .filter(|e| p0.eval(Self::point(e.index)) == Gf256::new(e.data[0]))
                .cloned()
                .collect();
            if good.len() >= k {
                if let Ok(value) = self.decode(&good) {
                    // Verify the decoded value explains every element we kept
                    // (re-encoding only those rows); if a corrupt element
                    // slipped into `good` (it matched the true codeword in
                    // column 0 only), fall back to the exact per-column
                    // decoder. The re-encoding is dropped at once, so its
                    // data rows may view the decoded value.
                    let rows = good.iter().map(|e| e.index);
                    let reencoded = self.encode_rows(&value, Some(&value), rows);
                    if reencoded.iter().zip(&good).all(|(r, e)| r.data == e.data) {
                        return Ok(value);
                    }
                }
            }
        }
        // Slow path: exact Berlekamp–Welch on every byte column.
        self.decode_per_column(elements, max_errors)
    }
}

/// Solves `A·x = b` over GF(2^8) by Gaussian elimination, returning one
/// solution (free variables set to zero) or `None` if the system is
/// inconsistent. `rows` and `rhs` are consumed as scratch space.
fn solve_linear_system(rows: &mut [Vec<Gf256>], rhs: &mut [Gf256]) -> Option<Vec<Gf256>> {
    let m = rows.len();
    if m == 0 {
        return Some(Vec::new());
    }
    let n = rows[0].len();
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; n];
    let mut rank = 0;
    for col in 0..n {
        // Find a pivot row at or below `rank`.
        let pivot = (rank..m).find(|&r| !rows[r][col].is_zero());
        let Some(pivot) = pivot else { continue };
        rows.swap(rank, pivot);
        rhs.swap(rank, pivot);
        let inv = rows[rank][col].inverse();
        for val in rows[rank].iter_mut() {
            *val *= inv;
        }
        rhs[rank] *= inv;
        for r in 0..m {
            if r == rank {
                continue;
            }
            let factor = rows[r][col];
            if factor.is_zero() {
                continue;
            }
            let (pivot_row, pivot_rhs) = (rows[rank].clone(), rhs[rank]);
            for (dst, &src) in rows[r].iter_mut().zip(pivot_row.iter()) {
                *dst -= factor * src;
            }
            rhs[r] -= factor * pivot_rhs;
        }
        pivot_of_col[col] = Some(rank);
        rank += 1;
        if rank == m {
            break;
        }
    }
    // Inconsistency check: a zero row with non-zero rhs.
    for r in rank..m {
        if rows[r].iter().all(|v| v.is_zero()) && !rhs[r].is_zero() {
            return None;
        }
    }
    // Rows below `rank` that are non-zero were never used as pivots; they must
    // also be consistent. Because we eliminated every column with a pivot,
    // any remaining non-zero row would have its leading entry in a pivot-free
    // column; setting free variables to zero could violate it, so check.
    let mut solution = vec![Gf256::ZERO; n];
    for (col, pivot) in pivot_of_col.iter().enumerate() {
        if let Some(r) = *pivot {
            solution[col] = rhs[r];
        }
    }
    // Final verification against all original (now reduced) rows: cheap and
    // guards the free-variable choice.
    for (r, row) in rows.iter().enumerate() {
        let lhs: Gf256 = row.iter().zip(solution.iter()).map(|(&a, &x)| a * x).sum();
        if lhs != rhs[r] {
            return None;
        }
    }
    Some(solution)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(131) % 256) as u8)
            .collect()
    }

    fn corrupt(element: &mut CodedElement, seed: u8) {
        for (i, b) in element.data.make_mut().iter_mut().enumerate() {
            *b ^= seed.wrapping_add(i as u8) | 1;
        }
    }

    #[test]
    fn decode_without_errors_matches_erasure_decode() {
        let code = VandermondeCode::new(7, 3).unwrap();
        let value = sample_value(64);
        let elements = code.encode(&value).unwrap();
        assert_eq!(code.decode(&elements[2..5]).unwrap(), value);
        assert_eq!(code.decode_with_errors(&elements[2..5], 0).unwrap(), value);
    }

    #[test]
    fn corrects_single_corrupt_element() {
        // n = 7, k = 3, f = 2, e = 1  (n = k + f + 2e)
        let code = BerlekampWelchCode::for_fault_tolerance(7, 2, 1).unwrap();
        assert_eq!(code.k(), 3);
        let value = sample_value(100);
        let mut elements = code.encode(&value).unwrap();
        // Two servers "crash": drop elements 0 and 3. Corrupt element 5.
        elements.remove(3);
        elements.remove(0);
        let corrupt_pos = elements.iter().position(|e| e.index == 5).unwrap();
        corrupt(&mut elements[corrupt_pos], 0xA5);
        let decoded = code.decode_with_errors(&elements, 1).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn corrects_two_corrupt_elements() {
        // n = 9, k = 3, e = 2 (f = 2).
        let code = BerlekampWelchCode::for_fault_tolerance(9, 2, 2).unwrap();
        let value = sample_value(257);
        let mut elements = code.encode(&value).unwrap();
        elements.remove(8);
        elements.remove(1); // two crashes
        corrupt(&mut elements[0], 0x3C);
        corrupt(&mut elements[4], 0x77);
        assert_eq!(code.decode_with_errors(&elements, 2).unwrap(), value);
    }

    #[test]
    fn corrupt_element_matching_first_column_still_decodes() {
        // Adversarial case for the fast path: the corrupted element keeps the
        // first byte (column 0) identical to the true value and differs later,
        // forcing the verification + per-column fallback.
        let code = VandermondeCode::new(6, 2).unwrap(); // 2e <= 4
        let value = sample_value(40);
        let mut elements = code.encode(&value).unwrap();
        let original_first = elements[3].data[0];
        corrupt(&mut elements[3], 0x55);
        elements[3].data.make_mut()[0] = original_first;
        let decoded = code.decode_with_errors(&elements, 2).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn zero_magnitude_columns_do_not_confuse_decoder() {
        // Corrupt only a single byte in the middle of one element.
        let code = VandermondeCode::new(5, 3).unwrap();
        let value = sample_value(30);
        let mut elements = code.encode(&value).unwrap();
        let mid = elements[2].data.len() / 2;
        elements[2].data.make_mut()[mid] ^= 0xFF;
        assert_eq!(code.decode_with_errors(&elements, 1).unwrap(), value);
    }

    #[test]
    fn too_few_elements_for_error_correction() {
        let code = VandermondeCode::new(6, 3).unwrap();
        let value = sample_value(10);
        let elements = code.encode(&value).unwrap();
        let err = code.decode_with_errors(&elements[..4], 1);
        assert_eq!(err, Err(CodeError::NotEnoughElements { have: 4, need: 5 }));
    }

    #[test]
    fn more_errors_than_budget_is_detected_or_fails() {
        // With e = 1 budget but 2 corrupted elements out of 5 (k = 3), decoding
        // must not silently return the wrong value when detection is possible.
        let code = VandermondeCode::new(5, 3).unwrap();
        let value = sample_value(50);
        let mut elements = code.encode(&value).unwrap();
        corrupt(&mut elements[0], 0x13);
        corrupt(&mut elements[4], 0x87);
        match code.decode_with_errors(&elements, 1) {
            Err(_) => {} // detected — fine
            Ok(v) => assert_ne!(v, value, "cannot be the true value by construction"),
        }
    }

    #[test]
    fn all_elements_intact_with_error_budget() {
        let code = VandermondeCode::new(8, 4).unwrap();
        let value = sample_value(80);
        let elements = code.encode(&value).unwrap();
        assert_eq!(code.decode_with_errors(&elements, 2).unwrap(), value);
    }

    #[test]
    fn duplicate_and_out_of_range_indices_rejected() {
        let code = VandermondeCode::new(6, 2).unwrap();
        let value = sample_value(12);
        let elements = code.encode(&value).unwrap();
        let mut dup = elements.clone();
        dup[1] = dup[0].clone();
        assert!(matches!(
            code.decode_with_errors(&dup, 1),
            Err(CodeError::DuplicateIndex { .. })
        ));
        let mut oob = elements;
        oob[0].index = 42;
        assert!(matches!(
            code.decode_with_errors(&oob, 1),
            Err(CodeError::InvalidIndex { index: 42, .. })
        ));
    }

    #[test]
    fn sodaerr_parameterization() {
        // n - k = f + 2e exactly as Section VI prescribes.
        for (n, f, e) in [(5, 1, 1), (7, 1, 2), (9, 3, 2), (11, 5, 1)] {
            let code = BerlekampWelchCode::for_fault_tolerance(n, f, e).unwrap();
            assert_eq!(code.k(), n - f - 2 * e, "n={n} f={f} e={e}");
        }
        assert!(BerlekampWelchCode::for_fault_tolerance(5, 3, 1).is_err());
    }

    #[test]
    fn empty_value_with_errors() {
        let code = VandermondeCode::new(6, 2).unwrap();
        let mut elements = code.encode(&[]).unwrap();
        corrupt(&mut elements[1], 0x2F);
        assert_eq!(
            code.decode_with_errors(&elements, 2).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn linear_solver_handles_inconsistent_system() {
        // x = 1 and x = 2 simultaneously.
        let mut rows = vec![vec![Gf256::ONE], vec![Gf256::ONE]];
        let mut rhs = vec![Gf256::new(1), Gf256::new(2)];
        assert!(solve_linear_system(&mut rows, &mut rhs).is_none());
    }

    #[test]
    fn linear_solver_solves_underdetermined_system() {
        // x + y = 5 with one equation, two unknowns: free variable set to 0.
        let mut rows = vec![vec![Gf256::ONE, Gf256::ONE]];
        let mut rhs = vec![Gf256::new(5)];
        let sol = solve_linear_system(&mut rows, &mut rhs).unwrap();
        assert_eq!(sol[0] + sol[1], Gf256::new(5));
    }

    #[test]
    fn linear_solver_exact_square_system() {
        // Build a random invertible system and verify the solution.
        let mut rng = soda_simnet::rng::SimRng::new(7);
        for _ in 0..10 {
            let n = 5;
            let a: Vec<Vec<Gf256>> = (0..n)
                .map(|_| (0..n).map(|_| Gf256::new(rng.gen())).collect())
                .collect();
            let x: Vec<Gf256> = (0..n).map(|_| Gf256::new(rng.gen())).collect();
            let b: Vec<Gf256> = a
                .iter()
                .map(|row| row.iter().zip(&x).map(|(&r, &xx)| r * xx).sum())
                .collect();
            let mut rows = a.clone();
            let mut rhs = b.clone();
            if let Some(sol) = solve_linear_system(&mut rows, &mut rhs) {
                // Solution must satisfy the original system (may differ from x
                // only if `a` is singular).
                for (row, &bb) in a.iter().zip(b.iter()) {
                    let lhs: Gf256 = row.iter().zip(&sol).map(|(&r, &s)| r * s).sum();
                    assert_eq!(lhs, bb);
                }
            }
        }
    }

    #[test]
    fn data_shard_split_consistency_with_inner_code() {
        // The first k coded elements must equal the contiguous data shards; the BW
        // decoder reconstructs exactly those symbols.
        let code = VandermondeCode::new(9, 4).unwrap();
        let value = sample_value(77);
        let elements = code.encode(&value).unwrap();
        let shards = crate::pad_and_split(&value, 4);
        for i in 0..4 {
            assert_eq!(elements[i].data, shards[i]);
        }
    }
}
