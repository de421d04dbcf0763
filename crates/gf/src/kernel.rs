//! Wide slice kernels for GF(2^8) multiply and multiply-accumulate.
//!
//! The scalar loops in [`Gf256`] ([`Gf256::scale_slice`],
//! [`Gf256::mul_acc_slice`]) walk one byte at a time through the log/exp
//! tables, with a data-dependent branch per byte for the zero case. The
//! kernels here use the classic *split-nibble* technique instead: for a fixed
//! constant `c`, the products `c·x` for all 256 values of `x` decompose as
//!
//! ```text
//! c·x = c·(x_lo ⊕ (x_hi << 4)) = c·x_lo ⊕ c·(x_hi << 4)
//! ```
//!
//! by linearity of GF(2^8) multiplication over XOR, so two 16-entry tables
//! per constant (one indexed by the low nibble, one by the high nibble)
//! replace the log/exp lookups and the zero branch entirely. Both tables for
//! one constant fit in a single 32-byte row — one cache line — and the whole
//! table set for all 256 constants is 8 KiB, built at compile time.
//!
//! Two kernels walk a slice with those tables:
//!
//! * on x86-64 hosts with AVX2 (detected once at run time), 32 bytes per
//!   iteration: each 16-byte half of the row is broadcast to both lanes of a
//!   256-bit register and `_mm256_shuffle_epi8` looks up 32 nibbles at once.
//!   This is the crate's only `unsafe` code;
//! * everywhere, a portable kernel over `u64` words, eight bytes per
//!   iteration: one load of the source word, eight table lookups assembled
//!   into a product word, one XOR against the destination word, one store.
//!   It runs the whole slice where AVX2 is missing and the sub-32-byte tail
//!   where it is present.
//!
//! The scalar `Gf256` loops are kept untouched as the *reference
//! implementation*; randomized equivalence tests in
//! `tests/kernel_equivalence.rs` pin the public kernels to them for every
//! constant, ragged lengths and unaligned offsets, and the unit tests below
//! pin each of the two kernels on its own.

use crate::Gf256;

/// Carry-less multiply modulo the primitive polynomial, usable in const
/// context (the log/exp tables of `gf256.rs` are private and not needed
/// here — this runs only at compile time).
const fn const_mul(a: u8, b: u8) -> u8 {
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
            a16 ^= crate::gf256::PRIMITIVE_POLY;
        }
    }
    result as u8
}

/// Split-nibble product tables: `NIB[c][x] = c·x` for `x < 16` (low nibble)
/// and `NIB[c][16 + x] = c·(x << 4)` (high nibble). Row `c` is 32 bytes —
/// one cache line per constant.
static NIB: [[u8; 32]; 256] = build_nibble_tables();

const fn build_nibble_tables() -> [[u8; 32]; 256] {
    let mut tables = [[0u8; 32]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            tables[c][x] = const_mul(c as u8, x as u8);
            tables[c][16 + x] = const_mul(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    tables
}

/// Bytes per iteration of the portable word kernel.
const WORD: usize = 8;

/// Looks up the product word for eight source bytes packed in `s`.
#[inline(always)]
fn product_word(tab: &[u8; 32], s: u64) -> u64 {
    let bytes = s.to_le_bytes();
    let mut out = [0u8; WORD];
    let mut i = 0;
    while i < WORD {
        let b = bytes[i] as usize;
        out[i] = tab[b & 0xf] ^ tab[16 + (b >> 4)];
        i += 1;
    }
    u64::from_le_bytes(out)
}

/// Portable word kernel for `data[i] = c * data[i]`, where `tab` is `NIB[c]`.
fn word_mul_slice(tab: &[u8; 32], data: &mut [u8]) {
    let mut chunks = data.chunks_exact_mut(WORD);
    for chunk in chunks.by_ref() {
        let s = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        chunk.copy_from_slice(&product_word(tab, s).to_le_bytes());
    }
    for byte in chunks.into_remainder() {
        let b = *byte as usize;
        *byte = tab[b & 0xf] ^ tab[16 + (b >> 4)];
    }
}

/// Portable word kernel for `dst[i] ^= c * src[i]`, where `tab` is `NIB[c]`.
fn word_mul_slice_xor(tab: &[u8; 32], src: &[u8], dst: &mut [u8]) {
    let mut dst_chunks = dst.chunks_exact_mut(WORD);
    let mut src_chunks = src.chunks_exact(WORD);
    for (d, s) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
        let sw = u64::from_le_bytes(s.try_into().expect("exact chunk"));
        let dw = u64::from_le_bytes((&*d).try_into().expect("exact chunk"));
        d.copy_from_slice(&(dw ^ product_word(tab, sw)).to_le_bytes());
    }
    for (d, &s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        let b = s as usize;
        *d ^= tab[b & 0xf] ^ tab[16 + (b >> 4)];
    }
}

/// Multiplies every byte of `data` (as a GF(2^8) element) by the constant
/// `c`, in place: `data[i] = c * data[i]`.
///
/// Wide split-nibble kernel; equivalent to [`Gf256::scale_slice`].
pub fn mul_slice(c: Gf256, data: &mut [u8]) {
    if c.is_zero() {
        data.fill(0);
        return;
    }
    if c == Gf256::ONE {
        return;
    }
    let tab = &NIB[c.value() as usize];
    let done = simd::mul_slice(tab, data);
    word_mul_slice(tab, &mut data[done..]);
}

/// Multiply-accumulate over whole slices: `dst[i] ^= c * src[i]`.
///
/// Wide split-nibble kernel; equivalent to [`Gf256::mul_acc_slice`]. This is
/// the inner loop of every Reed–Solomon matrix × shard product.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice_xor(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice_xor length mismatch");
    if c.is_zero() {
        return;
    }
    if c == Gf256::ONE {
        xor_slice(src, dst);
        return;
    }
    let tab = &NIB[c.value() as usize];
    let done = simd::mul_slice_xor(tab, src, dst);
    word_mul_slice_xor(tab, &src[done..], &mut dst[done..]);
}

/// XOR of whole slices over `u64` words: `dst[i] ^= src[i]` (the
/// `c = 1` case of [`mul_slice_xor`], also useful on its own for parity).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
    let mut dst_chunks = dst.chunks_exact_mut(WORD);
    let mut src_chunks = src.chunks_exact(WORD);
    for (d, s) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
        let sw = u64::from_le_bytes(s.try_into().expect("exact chunk"));
        let dw = u64::from_le_bytes((&*d).try_into().expect("exact chunk"));
        d.copy_from_slice(&(dw ^ sw).to_le_bytes());
    }
    for (d, &s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d ^= s;
    }
}

/// The AVX2 kernel. Each entry point handles the longest prefix of its slice
/// that is a whole number of 32-byte lanes and returns that prefix's length,
/// or 0 when the CPU lacks AVX2; the caller runs the word kernel on the rest.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::{
        _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256, _mm256_set1_epi8,
        _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
        _mm_loadu_si128,
    };

    /// Bytes per iteration: one 256-bit register.
    const LANE: usize = 32;

    /// `data[i] = c * data[i]` over whole lanes; `tab` is `NIB[c]`.
    pub(super) fn mul_slice(tab: &[u8; 32], data: &mut [u8]) -> usize {
        let len = data.len() - data.len() % LANE;
        if len == 0 || !is_x86_feature_detected!("avx2") {
            return 0;
        }
        let ptr = data.as_mut_ptr();
        // SAFETY: AVX2 was detected just above. `ptr` comes from the unique
        // borrow `data`, so it is valid for reads and writes of
        // `len <= data.len()` bytes and nothing else touches them during the
        // call; `len` is a multiple of `LANE`. Passing it as both source and
        // destination is allowed because `mul_lanes` loads each lane before
        // it stores that lane.
        unsafe { mul_lanes::<false>(tab, ptr, ptr, len) };
        len
    }

    /// `dst[i] ^= c * src[i]` over whole lanes; `tab` is `NIB[c]`.
    pub(super) fn mul_slice_xor(tab: &[u8; 32], src: &[u8], dst: &mut [u8]) -> usize {
        let len = src.len().min(dst.len());
        let len = len - len % LANE;
        if len == 0 || !is_x86_feature_detected!("avx2") {
            return 0;
        }
        // SAFETY: AVX2 was detected just above. `len` is a multiple of
        // `LANE` and at most the length of either slice, so `src` is valid
        // for reads and `dst` for reads and writes of `len` bytes; a shared
        // and a unique borrow cannot overlap.
        unsafe { mul_lanes::<true>(tab, src.as_ptr(), dst.as_mut_ptr(), len) };
        len
    }

    /// `dst[i] = c * src[i]`, or `dst[i] ^= c * src[i]` when `ACC`, for
    /// `i < len`, where `tab` is `NIB[c]`.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `len` must be a multiple of `LANE`.
    /// `src` must be valid for reads and `dst` for reads and writes of `len`
    /// bytes. The two may be the same pointer; otherwise they must not
    /// overlap.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lanes<const ACC: bool>(tab: &[u8; 32], src: *const u8, dst: *mut u8, len: usize) {
        // SAFETY: `tab` is 32 bytes long, so the unaligned 16-byte loads at
        // offsets 0 and 16 stay inside it.
        let (lo_tab, hi_tab) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.as_ptr().add(16).cast())),
            )
        };
        let nibble = _mm256_set1_epi8(0x0f);
        let mut at = 0;
        while at < len {
            // SAFETY: `at + LANE <= len` because `len` is a multiple of
            // `LANE`, and the caller guarantees `len` readable bytes at `src`
            // and `len` readable and writable bytes at `dst`. The loads and
            // the store are unaligned, so any address is fine.
            unsafe {
                let s = _mm256_loadu_si256(src.add(at).cast());
                let lo = _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(s, nibble));
                let hi = _mm256_shuffle_epi8(
                    hi_tab,
                    _mm256_and_si256(_mm256_srli_epi64::<4>(s), nibble),
                );
                let mut product = _mm256_xor_si256(lo, hi);
                if ACC {
                    product = _mm256_xor_si256(product, _mm256_loadu_si256(dst.add(at).cast()));
                }
                _mm256_storeu_si256(dst.add(at).cast(), product);
            }
            at += LANE;
        }
    }
}

/// No vector kernel off x86-64: the word kernel runs the whole slice.
#[cfg(not(target_arch = "x86_64"))]
mod simd {
    pub(super) fn mul_slice(_tab: &[u8; 32], _data: &mut [u8]) -> usize {
        0
    }

    pub(super) fn mul_slice_xor(_tab: &[u8; 32], _src: &[u8], _dst: &mut [u8]) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_tables_match_field_multiplication() {
        for c in 0..=255u8 {
            for x in 0..16u8 {
                assert_eq!(
                    Gf256::new(NIB[c as usize][x as usize]),
                    Gf256::new(c) * Gf256::new(x),
                    "lo table c={c} x={x}"
                );
                assert_eq!(
                    Gf256::new(NIB[c as usize][16 + x as usize]),
                    Gf256::new(c) * Gf256::new(x << 4),
                    "hi table c={c} x={x}"
                );
            }
        }
    }

    #[test]
    fn mul_slice_matches_scalar_reference() {
        let data: Vec<u8> = (0..=255).cycle().take(300).collect();
        for c in [0u8, 1, 2, 0x1d, 0x80, 0xff] {
            let mut kernel = data.clone();
            let mut scalar = data.clone();
            mul_slice(Gf256::new(c), &mut kernel);
            Gf256::scale_slice(Gf256::new(c), &mut scalar);
            assert_eq!(kernel, scalar, "c={c}");
        }
    }

    #[test]
    fn mul_slice_xor_matches_scalar_reference() {
        let src: Vec<u8> = (0..=255).cycle().take(300).collect();
        let base: Vec<u8> = (0..=255).rev().cycle().take(300).collect();
        for c in [0u8, 1, 3, 0x1d, 0x80, 0xff] {
            let mut kernel = base.clone();
            let mut scalar = base.clone();
            mul_slice_xor(Gf256::new(c), &src, &mut kernel);
            Gf256::mul_acc_slice(Gf256::new(c), &src, &mut scalar);
            assert_eq!(kernel, scalar, "c={c}");
        }
    }

    #[test]
    fn short_and_ragged_lengths() {
        for len in 0..=17usize {
            let src: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let mut kernel = vec![0xAB; len];
            let mut scalar = vec![0xAB; len];
            mul_slice_xor(Gf256::new(0x57), &src, &mut kernel);
            Gf256::mul_acc_slice(Gf256::new(0x57), &src, &mut scalar);
            assert_eq!(kernel, scalar, "len={len}");
        }
    }

    /// Deterministic filler whose bytes cover every nibble pair.
    fn bytes(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn word_kernel_matches_scalar_reference() {
        // On an AVX2 host the public kernels give the word kernel only their
        // sub-32-byte tails, so it is checked here on whole slices.
        for len in (0..=80).chain([255, 1024, 1031]) {
            let src = bytes(len, 7);
            let base = bytes(len, 201);
            for c in 2..=255u8 {
                let tab = &NIB[c as usize];
                let mut kernel = base.clone();
                let mut scalar = base.clone();
                word_mul_slice_xor(tab, &src, &mut kernel);
                Gf256::mul_acc_slice(Gf256::new(c), &src, &mut scalar);
                assert_eq!(kernel, scalar, "mul_slice_xor c={c} len={len}");

                let mut kernel = src.clone();
                let mut scalar = src.clone();
                word_mul_slice(tab, &mut kernel);
                Gf256::scale_slice(Gf256::new(c), &mut scalar);
                assert_eq!(kernel, scalar, "mul_slice c={c} len={len}");
            }
        }
    }

    #[test]
    fn vector_kernel_covers_whole_lanes_and_leaves_the_tail() {
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 100, 1024, 1055] {
            let src = bytes(len, 3);
            let base = bytes(len, 99);
            let c = Gf256::new(0x8e);
            let tab = &NIB[c.value() as usize];

            let mut kernel = base.clone();
            let done = simd::mul_slice_xor(tab, &src, &mut kernel);
            assert!(
                done <= len && done.is_multiple_of(32),
                "len={len} done={done}"
            );
            let mut scalar = base.clone();
            Gf256::mul_acc_slice(c, &src[..done], &mut scalar[..done]);
            assert_eq!(kernel, scalar, "mul_slice_xor len={len}");

            let mut kernel = src.clone();
            let done_in_place = simd::mul_slice(tab, &mut kernel);
            assert_eq!(done_in_place, done, "len={len}");
            let mut scalar = src.clone();
            Gf256::scale_slice(c, &mut scalar[..done]);
            assert_eq!(kernel, scalar, "mul_slice len={len}");
        }
    }

    #[test]
    fn xor_slice_is_plain_xor() {
        let src: Vec<u8> = (0..100).collect();
        let mut dst: Vec<u8> = (100..200).collect();
        let expected: Vec<u8> = src.iter().zip(dst.iter()).map(|(a, b)| a ^ b).collect();
        xor_slice(&src, &mut dst);
        assert_eq!(dst, expected);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let src = [1u8, 2];
        let mut dst = [0u8; 3];
        mul_slice_xor(Gf256::ONE, &src, &mut dst);
    }
}
