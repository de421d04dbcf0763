//! The finite field GF(2^8).
//!
//! Elements are bytes; addition is XOR; multiplication is carry-less
//! polynomial multiplication modulo the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d). The generator `α = 0x02` is primitive
//! for this modulus, so every non-zero element is `α^i` for a unique
//! `i ∈ [0, 254]`, which lets multiplication and division run off a pair of
//! 256/512-entry lookup tables.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The primitive (irreducible) polynomial used for GF(2^8): `x^8+x^4+x^3+x^2+1`.
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Order of the multiplicative group of GF(2^8).
const GROUP_ORDER: usize = 255;

/// Precomputed tables for GF(2^8) arithmetic.
struct Tables {
    /// `exp[i] = α^i` for `i` in `0..512` (doubled to avoid a modular
    /// reduction when adding logarithms).
    exp: [u8; 512],
    /// `log[x] = i` such that `α^i = x`, for `x != 0`. `log[0]` is unused.
    log: [u16; 256],
}

impl Tables {
    const fn build() -> Tables {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        let mut i = 0;
        while i < GROUP_ORDER {
            exp[i] = x as u8;
            log[x as usize] = i as u16;
            // multiply x by the generator α = 2 in GF(2^8)
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
            i += 1;
        }
        // Duplicate the exponent table so exp[log a + log b] never needs a
        // `% 255` reduction (log a + log b <= 508).
        let mut j = GROUP_ORDER;
        while j < 512 {
            exp[j] = exp[j - GROUP_ORDER];
            j += 1;
        }
        Tables { exp, log }
    }
}

/// Compile-time constructed exp/log tables.
static TABLES: Tables = Tables::build();

/// An element of the finite field GF(2^8).
///
/// The representation is a single byte. All arithmetic operators are
/// implemented; division by zero panics (mirroring integer division).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The canonical generator α = 2 of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Wraps a byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the underlying byte.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Discrete logarithm base α. Returns `None` for zero.
    #[inline]
    pub fn log(self) -> Option<u16> {
        if self.is_zero() {
            None
        } else {
            Some(TABLES.log[self.0 as usize])
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    #[inline]
    pub fn inverse(self) -> Self {
        assert!(!self.is_zero(), "attempt to invert zero in GF(2^8)");
        let l = TABLES.log[self.0 as usize] as usize;
        Gf256(TABLES.exp[GROUP_ORDER - l])
    }

    /// Raises the element to the given power (with `0^0 == 1`).
    pub fn pow(self, mut exp: u64) -> Self {
        if exp == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let l = TABLES.log[self.0 as usize] as u64;
        exp %= GROUP_ORDER as u64;
        let idx = (l * exp) % GROUP_ORDER as u64;
        Gf256(TABLES.exp[idx as usize])
    }

    /// Multiplies a slice of bytes (interpreted as field elements) by a scalar
    /// in place. This is the hot loop of Reed–Solomon encoding.
    pub fn scale_slice(scalar: Gf256, data: &mut [u8]) {
        if scalar.is_zero() {
            data.fill(0);
            return;
        }
        if scalar == Gf256::ONE {
            return;
        }
        let ls = TABLES.log[scalar.0 as usize] as usize;
        for byte in data.iter_mut() {
            if *byte != 0 {
                let lb = TABLES.log[*byte as usize] as usize;
                *byte = TABLES.exp[ls + lb];
            } else {
                *byte = 0;
            }
        }
    }

    /// Computes `dst[i] ^= scalar * src[i]` over whole slices, the
    /// multiply-accumulate kernel used by matrix-vector products on shards.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn mul_acc_slice(scalar: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "mul_acc_slice length mismatch");
        if scalar.is_zero() {
            return;
        }
        let ls = TABLES.log[scalar.0 as usize] as usize;
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            if s != 0 {
                let lb = TABLES.log[s as usize] as usize;
                *d ^= TABLES.exp[ls + lb];
            }
        }
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // GF(2^8) addition IS xor (characteristic 2), not a disguised bit trick.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // In characteristic 2, subtraction equals addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let la = TABLES.log[self.0 as usize] as usize;
        let lb = TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[la + lb])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        assert!(!rhs.is_zero(), "attempt to divide by zero in GF(2^8)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let la = TABLES.log[self.0 as usize] as usize;
        let lb = TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[la + GROUP_ORDER - lb])
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook carry-less multiplication used as an oracle for the
    /// table-based implementation.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let mut result: u16 = 0;
        let mut a16 = a as u16;
        let mut b16 = b as u16;
        while b16 != 0 {
            if b16 & 1 != 0 {
                result ^= a16;
            }
            b16 >>= 1;
            a16 <<= 1;
            if a16 & 0x100 != 0 {
                a16 ^= PRIMITIVE_POLY;
            }
        }
        result as u8
    }

    #[test]
    fn addition_is_xor() {
        assert_eq!(Gf256::new(0b1010) + Gf256::new(0b0110), Gf256::new(0b1100));
        assert_eq!(Gf256::new(0xff) + Gf256::new(0xff), Gf256::ZERO);
    }

    #[test]
    fn subtraction_equals_addition() {
        for a in 0..=255u8 {
            let x = Gf256::new(a);
            assert_eq!(x - x, Gf256::ZERO);
            assert_eq!(x + x, Gf256::ZERO);
            assert_eq!(-x, x);
        }
    }

    #[test]
    fn multiplication_matches_schoolbook_oracle() {
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                let fast = Gf256::new(a as u8) * Gf256::new(b as u8);
                let slow = slow_mul(a as u8, b as u8);
                assert_eq!(fast.value(), slow, "mismatch at {a} * {b}");
            }
        }
    }

    #[test]
    fn multiplicative_identity_and_zero() {
        for a in (0..=255).map(Gf256::new) {
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn inverse_round_trip() {
        for a in 1..=255u8 {
            let x = Gf256::new(a);
            assert_eq!(x * x.inverse(), Gf256::ONE);
            assert_eq!(x / x, Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn inverse_of_zero_panics() {
        let _ = Gf256::ZERO.inverse();
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                let x = Gf256::new(a);
                let y = Gf256::new(b);
                assert_eq!((x * y) / y, x);
            }
        }
    }

    #[test]
    fn generator_is_primitive() {
        // α must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(!seen[x.value() as usize], "generator has order < 255");
            seen[x.value() as usize] = true;
            x *= Gf256::GENERATOR;
        }
        assert_eq!(x, Gf256::ONE);
        assert!(!seen[0]);
        assert_eq!(seen.iter().filter(|&&s| s).count(), 255);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in 0..=255u8 {
            let x = Gf256::new(a);
            let mut acc = Gf256::ONE;
            for e in 0..20u64 {
                assert_eq!(x.pow(e), acc, "a={a} e={e}");
                acc *= x;
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::new(17).pow(0), Gf256::ONE);
    }

    #[test]
    fn log_exp_round_trip() {
        for a in 1..=255u8 {
            let x = Gf256::new(a);
            let l = x.log().unwrap();
            assert_eq!(Gf256::GENERATOR.pow(u64::from(l)), x);
        }
        assert_eq!(Gf256::ZERO.log(), None);
    }

    #[test]
    fn alpha_pow_wraps_at_group_order() {
        assert_eq!(Gf256::GENERATOR.pow(0), Gf256::ONE);
        assert_eq!(Gf256::GENERATOR.pow(255), Gf256::ONE);
        assert_eq!(Gf256::GENERATOR.pow(256), Gf256::GENERATOR);
        assert_eq!(Gf256::GENERATOR.pow(1), Gf256::GENERATOR);
    }

    #[test]
    fn scale_slice_matches_elementwise() {
        let data: Vec<u8> = (0..=255).collect();
        for s in [0u8, 1, 2, 3, 0x1d, 0xff] {
            let scalar = Gf256::new(s);
            let mut scaled = data.clone();
            Gf256::scale_slice(scalar, &mut scaled);
            for (i, &orig) in data.iter().enumerate() {
                assert_eq!(Gf256::new(scaled[i]), Gf256::new(orig) * scalar);
            }
        }
    }

    #[test]
    fn mul_acc_slice_matches_elementwise() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst: Vec<u8> = (0..=255).rev().collect();
        let expected: Vec<u8> = src
            .iter()
            .zip(dst.iter())
            .map(|(&s, &d)| (Gf256::new(d) + Gf256::new(s) * Gf256::new(0x57)).value())
            .collect();
        Gf256::mul_acc_slice(Gf256::new(0x57), &src, &mut dst);
        assert_eq!(dst, expected);
    }

    #[test]
    fn mul_acc_slice_with_zero_scalar_is_noop() {
        let src = vec![1u8, 2, 3, 4];
        let mut dst = vec![9u8, 8, 7, 6];
        let before = dst.clone();
        Gf256::mul_acc_slice(Gf256::ZERO, &src, &mut dst);
        assert_eq!(dst, before);
    }

    #[test]
    fn sum_and_product_fold_correctly() {
        let elems = [Gf256::new(3), Gf256::new(5), Gf256::new(7)];
        let s: Gf256 = elems.iter().copied().sum();
        assert_eq!(s, Gf256::new(3 ^ 5 ^ 7));
        let p: Gf256 = elems.iter().copied().product();
        assert_eq!(p, Gf256::new(3) * Gf256::new(5) * Gf256::new(7));
    }

    #[test]
    fn distributivity_exhaustive_sample() {
        // a*(b+c) == a*b + a*c over a structured sample of triples.
        for a in (0..=255u16).step_by(7) {
            for b in (0..=255u16).step_by(11) {
                for c in (0..=255u16).step_by(13) {
                    let (a, b, c) = (
                        Gf256::new(a as u8),
                        Gf256::new(b as u8),
                        Gf256::new(c as u8),
                    );
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }
}
