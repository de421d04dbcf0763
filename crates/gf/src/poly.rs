//! Dense polynomials over GF(2^8).
//!
//! Coefficients are stored lowest-degree first (`coeffs[i]` is the coefficient
//! of `x^i`). The representation is kept normalized: the highest-degree
//! coefficient is non-zero, except for the zero polynomial which is an empty
//! vector.
//!
//! These polynomials back the Berlekamp–Welch error-and-erasure decoder in
//! `soda-rs-code`. It builds the product polynomial `Q` and the error locator
//! `E` with [`Poly::from_coeffs`], recovers the message as `Q / E` with
//! [`Poly::div_rem`], rejects the result by [`Poly::is_zero`] (a non-zero
//! remainder) and [`Poly::degree`], and checks it against every received
//! point with [`Poly::eval`].

use crate::Gf256;
use std::fmt;
use std::ops::{Add, Mul};

/// A polynomial over GF(2^8), lowest-degree coefficient first.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Poly {
    coeffs: Vec<Gf256>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly {
            coeffs: vec![Gf256::ONE],
        }
    }

    /// Builds a polynomial from coefficients, lowest degree first, and
    /// normalizes away trailing zeros.
    pub fn from_coeffs(coeffs: Vec<Gf256>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// Builds a polynomial from raw bytes, lowest degree first.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Poly::from_coeffs(bytes.iter().map(|&b| Gf256::new(b)).collect())
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree of the polynomial. The zero polynomial reports `None`.
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Coefficient of `x^i` (zero if beyond the stored degree).
    pub fn coeff(&self, i: usize) -> Gf256 {
        self.coeffs.get(i).copied().unwrap_or(Gf256::ZERO)
    }

    /// Borrow the coefficient vector (lowest degree first, normalized).
    pub fn coeffs(&self) -> &[Gf256] {
        &self.coeffs
    }

    /// Leading (highest-degree) coefficient; zero for the zero polynomial.
    pub fn leading_coeff(&self) -> Gf256 {
        self.coeffs.last().copied().unwrap_or(Gf256::ZERO)
    }

    fn normalize(&mut self) {
        while let Some(last) = self.coeffs.last() {
            if last.is_zero() {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }

    /// Evaluates the polynomial at `x` using Horner's rule.
    pub fn eval(&self, x: Gf256) -> Gf256 {
        let mut acc = Gf256::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        if self.is_zero() {
            return (Poly::zero(), Poly::zero());
        }
        let d_deg = divisor.degree().unwrap();
        let n_deg = match self.degree() {
            Some(d) if d >= d_deg => d,
            _ => return (Poly::zero(), self.clone()),
        };
        let inv_lead = divisor.leading_coeff().inverse();
        let mut rem = self.coeffs.clone();
        let mut quot = vec![Gf256::ZERO; n_deg - d_deg + 1];
        for i in (d_deg..=n_deg).rev() {
            let c = rem[i];
            if c.is_zero() {
                continue;
            }
            let q = c * inv_lead;
            quot[i - d_deg] = q;
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[i - d_deg + j] -= q * dc;
            }
        }
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate().rev() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{:02x}", c.value())?,
                1 => write!(f, "{:02x}·x", c.value())?,
                _ => write!(f, "{:02x}·x^{}", c.value(), i)?,
            }
        }
        write!(f, ")")
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let len = self.coeffs.len().max(rhs.coeffs.len());
        let coeffs = (0..len).map(|i| self.coeff(i) + rhs.coeff(i)).collect();
        Poly::from_coeffs(coeffs)
    }
}

impl Add for Poly {
    type Output = Poly;
    fn add(self, rhs: Poly) -> Poly {
        &self + &rhs
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Gf256::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Poly::from_coeffs(coeffs)
    }
}

impl Mul for Poly {
    type Output = Poly;
    fn mul(self, rhs: Poly) -> Poly {
        &self * &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(bytes: &[u8]) -> Poly {
        Poly::from_bytes(bytes)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::one().degree(), Some(0));
        assert_eq!(Poly::one().eval(Gf256::new(42)), Gf256::ONE);
    }

    #[test]
    fn normalization_strips_leading_zeros() {
        let q = p(&[1, 2, 0, 0]);
        assert_eq!(q.degree(), Some(1));
        assert_eq!(q.coeffs().len(), 2);
        let z = p(&[0, 0, 0]);
        assert!(z.is_zero());
    }

    #[test]
    fn addition_is_coefficientwise_xor() {
        let a = p(&[1, 2, 3]);
        let b = p(&[5, 2]);
        let s = &a + &b;
        assert_eq!(s, p(&[4, 0, 3]));
        // addition is its own inverse
        assert!((&s + &b).eq(&a));
    }

    #[test]
    fn multiplication_by_zero_and_one() {
        let a = p(&[7, 0, 9]);
        assert!((&a * &Poly::zero()).is_zero());
        assert_eq!(&a * &Poly::one(), a);
    }

    #[test]
    fn multiplication_degree_adds() {
        let a = p(&[1, 1]); // x + 1
        let b = p(&[2, 0, 1]); // x^2 + 2
        let c = &a * &b;
        assert_eq!(c.degree(), Some(3));
    }

    #[test]
    fn eval_horner_matches_naive() {
        let q = p(&[3, 1, 4, 1, 5, 9, 2, 6]);
        for x in [0u8, 1, 2, 17, 255] {
            let x = Gf256::new(x);
            let naive: Gf256 = q
                .coeffs()
                .iter()
                .enumerate()
                .map(|(i, &c)| c * x.pow(i as u64))
                .sum();
            assert_eq!(q.eval(x), naive);
        }
    }

    #[test]
    fn div_rem_round_trip() {
        let a = p(&[1, 2, 3, 4, 5, 6, 7]);
        let b = p(&[3, 1, 1]);
        let (q, r) = a.div_rem(&b);
        let recombined = &(&q * &b) + &r;
        assert_eq!(recombined, a);
        assert!(r.degree().unwrap_or(0) < b.degree().unwrap());
    }

    #[test]
    fn div_rem_smaller_dividend() {
        let a = p(&[1, 2]);
        let b = p(&[3, 1, 1]);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = p(&[1, 2]).div_rem(&Poly::zero());
    }

    #[test]
    fn generator_polynomial_has_alpha_powers_as_roots() {
        // g(x) = ∏_{i<6} (x - α^i); (x - α^i) == (x + α^i) in characteristic 2
        let alpha = |i: u64| Gf256::GENERATOR.pow(i);
        let g = (0..6).fold(Poly::one(), |g, i| {
            &g * &Poly::from_coeffs(vec![alpha(i), Gf256::ONE])
        });
        assert_eq!(g.degree(), Some(6));
        for i in 0..6 {
            assert_eq!(g.eval(alpha(i)), Gf256::ZERO, "root α^{i} missing");
        }
        // and α^6 is not a root
        assert_ne!(g.eval(alpha(6)), Gf256::ZERO);
    }

    #[test]
    fn error_locator_product_has_reciprocal_roots() {
        let locs = [Gf256::GENERATOR.pow(3), Gf256::GENERATOR.pow(10)];
        let sigma = locs.iter().fold(Poly::one(), |acc, &loc| {
            &acc * &Poly::from_coeffs(vec![Gf256::ONE, loc])
        });
        assert_eq!(sigma.degree(), Some(2));
        for loc in locs {
            // σ(X) = ∏ (1 - X_i x): zero at x = X_i^{-1}
            assert_eq!(sigma.eval(loc.inverse()), Gf256::ZERO);
        }
    }
}
