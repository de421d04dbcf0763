//! Randomized equivalence of the wide split-nibble slice kernels against the
//! scalar `Gf256` reference loops, so the kernels can never silently diverge
//! from the field definition.
//!
//! Coverage axes:
//! * **all 256 constants** — every row of the nibble tables is exercised,
//!   including the `c = 0` and `c = 1` fast paths;
//! * **ragged lengths** — slices shorter than, equal to, and not a multiple
//!   of the 32-byte AVX2 lane and the 8-byte portable word, including
//!   `32·m ± r` and slices over 1 KiB, so the vector prefix and the word
//!   tail are both exercised and meet at every split point;
//! * **unaligned offsets** — kernels run on sub-slices starting at every
//!   offset in `0..32` of a larger buffer, so lane and word loads are checked
//!   at every alignment.
//!
//! Tier-1 runs a fixed budget; the nightly fuzz job scales it with
//! `KERNEL_EQ_CASES` (see `.github/workflows/ci.yml`).

use soda_gf::{mul_slice, mul_slice_xor, xor_slice, Gf256};
use soda_simnet::rng::SimRng;

fn cases() -> usize {
    std::env::var("KERNEL_EQ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn rng(salt: u64) -> SimRng {
    SimRng::new(0x6b65_7200 ^ salt)
}

/// Random length that lands on both sides of the 32-byte lane and the
/// 8-byte word boundaries.
fn ragged_len(rng: &mut SimRng) -> usize {
    match rng.gen_range(0u8..7) {
        0 => rng.gen_range(0usize..8),     // below one word
        1 => 8 * rng.gen_range(1usize..9), // whole words
        2 => 8 * rng.gen_range(1usize..9) + rng.gen_range(1usize..8), // ragged tail
        3 => rng.gen_range(31usize..=33),  // one lane, give or take a byte
        4 => {
            // whole lanes, give or take up to a lane
            let lanes = 32 * rng.gen_range(1usize..40);
            let r = rng.gen_range(0usize..32);
            if rng.gen() {
                lanes + r
            } else {
                lanes - r
            }
        }
        5 => rng.gen_range(1025usize..4100), // over 1 KiB
        _ => rng.gen_range(0usize..300),     // anything
    }
}

#[test]
fn mul_slice_equals_scale_slice_for_all_constants() {
    let mut rng = rng(1);
    for round in 0..cases() {
        let len = ragged_len(&mut rng);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // Sweep every constant on this buffer; rounds vary length/content.
        for c in 0..=255u8 {
            let mut kernel = data.clone();
            let mut scalar = data.clone();
            mul_slice(Gf256::new(c), &mut kernel);
            Gf256::scale_slice(Gf256::new(c), &mut scalar);
            assert_eq!(kernel, scalar, "round={round} c={c} len={len}");
        }
    }
}

#[test]
fn mul_slice_xor_equals_mul_acc_slice_for_all_constants() {
    let mut rng = rng(2);
    for round in 0..cases() {
        let len = ragged_len(&mut rng);
        let src: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let dst: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        for c in 0..=255u8 {
            let mut kernel = dst.clone();
            let mut scalar = dst.clone();
            mul_slice_xor(Gf256::new(c), &src, &mut kernel);
            Gf256::mul_acc_slice(Gf256::new(c), &src, &mut scalar);
            assert_eq!(kernel, scalar, "round={round} c={c} len={len}");
        }
    }
}

#[test]
fn kernels_are_correct_at_every_alignment_offset() {
    let mut rng = rng(3);
    for round in 0..cases() {
        let buf_len = 96 + rng.gen_range(0usize..96);
        let src: Vec<u8> = (0..buf_len).map(|_| rng.gen()).collect();
        let dst: Vec<u8> = (0..buf_len).map(|_| rng.gen()).collect();
        let c = Gf256::new(rng.gen());
        for offset in 0..32usize {
            for tail in 0..8usize {
                let end = buf_len - tail;
                let mut kernel = dst.clone();
                let mut scalar = dst.clone();
                mul_slice_xor(c, &src[offset..end], &mut kernel[offset..end]);
                Gf256::mul_acc_slice(c, &src[offset..end], &mut scalar[offset..end]);
                assert_eq!(kernel, scalar, "round={round} offset={offset} tail={tail}");
                // Bytes outside the sub-slice must be untouched.
                assert_eq!(kernel[..offset], dst[..offset]);
                assert_eq!(kernel[end..], dst[end..]);

                let mut kernel = src.clone();
                let mut scalar = src.clone();
                mul_slice(c, &mut kernel[offset..end]);
                Gf256::scale_slice(c, &mut scalar[offset..end]);
                assert_eq!(kernel, scalar, "round={round} offset={offset} tail={tail}");
            }
        }
    }
}

#[test]
fn xor_slice_equals_elementwise_xor() {
    let mut rng = rng(4);
    for _ in 0..cases() {
        let len = ragged_len(&mut rng);
        let src: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut dst: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let expected: Vec<u8> = src.iter().zip(dst.iter()).map(|(a, b)| a ^ b).collect();
        xor_slice(&src, &mut dst);
        assert_eq!(dst, expected);
    }
}

#[test]
fn kernel_linearity_cross_check() {
    // c·(a ⊕ b) == c·a ⊕ c·b computed entirely through the kernels — an
    // internal consistency check independent of the scalar reference.
    let mut rng = rng(5);
    for _ in 0..cases() {
        let len = ragged_len(&mut rng);
        let a: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let b: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let c = Gf256::new(rng.gen());

        let mut sum_then_mul: Vec<u8> = a.clone();
        xor_slice(&b, &mut sum_then_mul);
        mul_slice(c, &mut sum_then_mul);

        let mut mul_then_sum = vec![0u8; len];
        mul_slice_xor(c, &a, &mut mul_then_sum);
        mul_slice_xor(c, &b, &mut mul_then_sum);

        assert_eq!(sum_then_mul, mul_then_sum);
    }
}
