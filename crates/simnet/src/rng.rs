//! The workspace's one pseudo-random generator.
//!
//! [`SimRng`] is SplitMix64: not cryptographic, but a pure function of its
//! seed, which is what makes every simulated schedule, generated scenario
//! and randomized test replay exactly. Two constructors apply the two seed
//! mixes the workspace's streams were recorded under: [`SimRng::new`] for
//! workload generators and tests, [`SimRng::network`] for the stream a
//! [`crate::Simulation`] samples delays and link faults from. The unit tests
//! below pin both streams, so a change to either mix or to any sampling
//! method fails here before it moves a digest.
//!
//! `gen_range` and `shuffle` reduce a 64-bit draw modulo the span. The bias
//! is below `span / 2⁶⁴`, so under 2⁻³² for every span below 2³², which
//! covers every caller; determinism, not uniformity, is the requirement.

use std::ops::{Range, RangeInclusive};

/// A seeded SplitMix64 stream that counts its draws.
#[derive(Debug)]
pub struct SimRng {
    state: u64,
    draws: u64,
}

impl SimRng {
    /// The general-purpose stream for `seed`.
    pub fn new(seed: u64) -> Self {
        // XOR with a constant so seed 0 does not start from the all-zero
        // state; SplitMix64's output mixing does the rest.
        let state = seed ^ 0x5DEE_CE66_D1CE_4E5B;
        SimRng { state, draws: 0 }
    }

    /// The network stream for `seed`, as [`crate::Simulation::new`] seeds
    /// it. A second mix, so the two constructors never share a stream.
    pub fn network(seed: u64) -> Self {
        let state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x6A09_E667_F3BC_C909;
        SimRng { state, draws: 0 }
    }

    /// How many 64-bit words the stream has produced. Every method below
    /// costs exactly one, except `shuffle` (one per element after the
    /// first), so "draws no randomness" is `draws()` not moving.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A float in `[0, 1)` from the top 53 bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// One draw as a `T`: integers keep its low bits, `bool` its lowest.
    pub fn gen<T: Draw>(&mut self) -> T {
        T::from_word(self.next_u64())
    }

    /// A value in `range`, by modulo (see the module doc).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Shuffles `slice` in place (Fisher–Yates, by modulo).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

/// Types [`SimRng::gen`] makes from one 64-bit draw.
pub trait Draw {
    /// The value one draw maps to.
    fn from_word(word: u64) -> Self;
}

/// Ranges [`SimRng::gen_range`] samples from.
pub trait SampleRange<T> {
    /// One value of the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

impl Draw for bool {
    fn from_word(word: u64) -> Self {
        word & 1 == 1
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Draw for $t {
            fn from_word(word: u64) -> Self {
                word as $t
            }
        }
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}
impl_int!(u8, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 4] = [0, 1, 0x50DA_5EED, u64::MAX];

    /// The first eight words of [`SimRng::new`] for each of [`SEEDS`], as the
    /// workspace recorded them.
    #[rustfmt::skip]
    const GENERAL: [[u64; 8]; 4] = [
        [0x95B1_6F87_C43B_DE85, 0x5D89_FAF7_885C_0810, 0x9B89_248D_3008_3767, 0xD2C1_3D5B_F7B9_6E17,
         0xB0FE_0476_A494_04DF, 0xC8A9_361C_E151_905B, 0xDF54_29AB_AAF6_7FA8, 0x2B0E_5087_8781_D6ED],
        [0x79BF_AE01_79B0_AE6B, 0xCDAC_BBC9_DE73_113D, 0x57C8_D1E2_ABBE_91C5, 0xBDC6_C77E_4793_C53A,
         0x1026_3BCF_115E_560E, 0x512F_42E5_437A_72F9, 0xBFF7_5837_05BD_C1F0, 0xBBBC_2AA2_68C8_C0F6],
        [0x95CA_1029_668C_A379, 0x99B0_602B_109B_B830, 0xEFBF_75C0_F14F_DFAE, 0xBB08_A06B_8613_9BE9,
         0x91AE_30E9_91B5_A37C, 0xEDB1_38C8_AE53_DDA3, 0x98EB_FBDB_8999_422A, 0x78DF_1FC0_82DC_CB53],
        [0xC9EB_98BD_D2CD_8A61, 0x4C4D_A650_259F_85A4, 0xF397_6F97_0325_9F46, 0xFAFB_1058_798B_C488,
         0xA72B_5E77_46F7_5C2B, 0x0E97_0F70_6914_7173, 0x2E28_B7B6_7D71_3E02, 0x0504_B324_538B_6BB4],
    ];

    /// The same for [`SimRng::network`].
    #[rustfmt::skip]
    const NETWORK: [[u64; 8]; 4] = [
        [0x63CF_C62A_2B09_7592, 0xDC07_46B4_1946_6AEC, 0x0826_4674_F98A_A19E, 0x3CA4_EB47_B26D_E7AC,
         0xA5B3_84AD_339C_FCC3, 0x08F7_20D0_5989_2BC4, 0xFE66_75C9_2D60_F3DF, 0x1D59_C7B9_C3A5_6969],
        [0x2031_1022_0C15_276D, 0xBFA3_0CFF_EC86_D7BE, 0x27A0_CE85_888F_40BF, 0x24AE_15B0_6306_CD5D,
         0x887E_2D12_A426_DE69, 0x129C_2D5E_F3AB_93F3, 0xF448_8706_8F5C_3BF3, 0x14FD_1883_FE7C_7711],
        [0xCFB1_C597_548C_5A58, 0x5A37_2D0C_4CBA_D4EF, 0xF830_339C_4D46_FE00, 0x96A3_2B01_F7CA_E87A,
         0x2EEA_E4E2_EB09_B253, 0x89E4_56DA_A555_9318, 0xA1D3_A0F2_C99E_1C63, 0x31E5_15F5_E4F9_456A],
        [0x1D4D_8E2D_04AF_D4BB, 0x9324_EE58_231C_8678, 0xEDE7_0F3B_C40C_8BB2, 0x72A9_81DA_27CE_72F5,
         0xF6B7_8902_B79C_327B, 0x9771_A0C5_1D7E_A8B4, 0xD3A8_B42A_03FB_201C, 0xC28B_7017_3D8A_7D10],
    ];

    /// Every seeded schedule, scenario and digest rests on these words.
    #[test]
    fn both_streams_are_pinned() {
        let first_eight = |mut rng: SimRng| -> [u64; 8] { std::array::from_fn(|_| rng.next_u64()) };
        for (i, seed) in SEEDS.into_iter().enumerate() {
            assert_eq!(first_eight(SimRng::new(seed)), GENERAL[i], "{seed:#x}");
            assert_eq!(first_eight(SimRng::network(seed)), NETWORK[i], "{seed:#x}");
        }
    }

    #[test]
    fn sampling_methods_are_pinned() {
        // Each sequence from a fresh seed 7, sixteen draws long.
        let mut rng = SimRng::new(7);
        let r: Vec<u64> = (0..16).map(|_| rng.gen_range(3u64..17)).collect();
        assert_eq!(r, [9, 5, 15, 15, 11, 10, 13, 3, 4, 4, 15, 9, 13, 7, 14, 13]);
        let mut rng = SimRng::network(7);
        let r: Vec<u64> = (0..16).map(|_| rng.gen_range(3u64..17)).collect();
        assert_eq!(r, [9, 7, 13, 4, 10, 4, 10, 4, 13, 7, 14, 16, 4, 5, 15, 10]);
        let mut rng = SimRng::new(7);
        let r: Vec<usize> = (0..16).map(|_| rng.gen_range(5usize..=9)).collect();
        assert_eq!(r, [9, 9, 8, 7, 9, 7, 6, 8, 9, 9, 9, 5, 8, 8, 5, 8]);
        let mut rng = SimRng::new(7);
        let heads: Vec<usize> = (0..16).filter(|_| rng.gen_bool(0.3)).collect();
        assert_eq!(heads, [1, 3, 4, 6, 7]);
        let mut rng = SimRng::new(7);
        let mut deck: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut deck);
        assert_eq!(deck, [0, 3, 8, 7, 6, 2, 5, 9, 1, 4]);
        assert_eq!(rng.draws(), 9, "one draw per element after the first");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        assert_eq!((a.draws(), b.draws()), (100, 100));
    }

    #[test]
    fn deterministic_per_seed() {
        let stream = |rng: &mut SimRng| -> Vec<u64> { (0..32).map(|_| rng.gen()).collect() };
        let a = stream(&mut SimRng::network(42));
        assert_eq!(a, stream(&mut SimRng::network(42)));
        assert_ne!(a, stream(&mut SimRng::network(43)));
        // The two mixes never share a stream.
        assert_ne!(a, stream(&mut SimRng::new(42)));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let x = rng.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&y));
            assert_eq!(rng.gen_range(4u8..=4), 4);
        }
        // The full inclusive span is the one range that skips the modulo.
        assert_eq!(SimRng::new(0).gen_range(0..=u64::MAX), GENERAL[0][0]);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(2);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
