//! Randomized tests for the GF(2^8) field axioms, polynomial ring laws and
//! matrix identities. These are the invariants the Reed–Solomon layer relies
//! on, so they are checked over many seeded-random inputs rather than
//! hand-picked cases (formerly a proptest suite; now driven by the
//! seeded `SimRng`).

use soda_gf::{Gf256, Matrix, Poly};
use soda_simnet::rng::SimRng;

const CASES: usize = 256;

fn rng(salt: u64) -> SimRng {
    SimRng::new(0x6f64_a000 ^ salt)
}

fn random_poly(rng: &mut SimRng, max_len: usize) -> Poly {
    let len = rng.gen_range(0usize..max_len);
    let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    Poly::from_bytes(&bytes)
}

#[test]
fn field_axioms_hold() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let a = Gf256::new(rng.gen());
        let b = Gf256::new(rng.gen());
        let c = Gf256::new(rng.gen());
        // Commutativity and associativity of both operations.
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a * b, b * a);
        assert_eq!((a * b) * c, a * (b * c));
        // Distributivity.
        assert_eq!(a * (b + c), a * b + a * c);
        // Characteristic 2: every element is its own additive inverse.
        assert_eq!(a + a, Gf256::ZERO);
        assert_eq!(a - a, Gf256::ZERO);
    }
}

#[test]
fn multiplicative_inverse_and_division() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let a = Gf256::new(rng.gen());
        let b = Gf256::new(rng.gen_range(1u8..=255));
        assert_eq!(b * b.inverse(), Gf256::ONE);
        assert_eq!(a / b, a * b.inverse());
    }
}

#[test]
fn pow_adds_exponents() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let a = Gf256::new(rng.gen_range(1u8..=255));
        let e1 = rng.gen_range(0u64..500);
        let e2 = rng.gen_range(0u64..500);
        assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }
}

#[test]
fn poly_ring_laws() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let a = random_poly(&mut rng, 12);
        let b = random_poly(&mut rng, 12);
        let c = random_poly(&mut rng, 12);
        assert_eq!(&a + &b, &b + &a);
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }
}

#[test]
fn poly_div_rem_invariant() {
    let mut rng = rng(5);
    let mut checked = 0usize;
    while checked < CASES {
        let a = random_poly(&mut rng, 20);
        let b = random_poly(&mut rng, 10);
        if b.is_zero() {
            continue;
        }
        checked += 1;
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        if let (Some(rd), Some(bd)) = (r.degree(), b.degree()) {
            assert!(rd < bd);
        }
    }
}

#[test]
fn poly_eval_is_ring_homomorphism() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let a = random_poly(&mut rng, 10);
        let b = random_poly(&mut rng, 10);
        let x = Gf256::new(rng.gen());
        let sum = &a + &b;
        let prod = &a * &b;
        assert_eq!(sum.eval(x), a.eval(x) + b.eval(x));
        assert_eq!(prod.eval(x), a.eval(x) * b.eval(x));
    }
}

#[test]
fn vandermonde_submatrix_invertible() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let k = rng.gen_range(1usize..6);
        let extra = rng.gen_range(0usize..6);
        let n = k + extra;
        let v = Matrix::vandermonde(n, k);
        let mut indices: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut indices);
        indices.truncate(k);
        let sub = v.select_rows(&indices);
        let inv = sub.inverse();
        assert!(
            inv.is_ok(),
            "Vandermonde submatrix {indices:?} not invertible"
        );
        assert_eq!(sub.mul(&inv.unwrap()).unwrap(), Matrix::identity(k));
    }
}

#[test]
fn matrix_inverse_round_trips() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let m = Matrix::from_rows(
            (0..4)
                .map(|_| (0..4).map(|_| Gf256::new(rng.gen())).collect())
                .collect(),
        );
        if let Ok(inv) = m.inverse() {
            assert_eq!(m.mul(&inv).unwrap(), Matrix::identity(4));
            assert_eq!(inv.mul(&m).unwrap(), Matrix::identity(4));
        }
    }
}
