//! The workspace's seeded random source: the splitmix64 step and a
//! xoshiro256** generator seeded through it.
//!
//! Every stream is a pure function of its seed and identical on every
//! platform, so a campaign's fault masks and a fuzz seed's kernels
//! reproduce exactly.  Bounded draws use Lemire's multiply-then-reject
//! method, so they are exactly uniform.

/// splitmix64's increment: 2⁶⁴ divided by the golden ratio.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: advances `state` by [`GAMMA`] and returns the
/// full-avalanche mix of the new state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman & Vigna), its state expanded from a 64-bit seed
/// by four splitmix64 steps.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds a generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut st = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut st);
        }
        // splitmix64 cannot emit four zero words from one stream, but keep
        // the all-zero guard anyway: xoshiro's state must never be zero.
        if s == [0; 4] {
            s[0] = GAMMA;
        }
        Rng { s }
    }

    /// Returns the next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws uniformly from `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, n: usize, mut f: impl FnMut(&mut Rng) -> u64) -> Vec<u64> {
        let mut r = Rng::new(seed);
        (0..n).map(|_| f(&mut r)).collect()
    }

    /// The streams every campaign CSV, journal and fuzz kernel is drawn
    /// from; a change here moves every pinned output of the workspace.
    #[test]
    fn streams_are_pinned() {
        assert_eq!(
            draws(0, 8, Rng::next_u64),
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
                0xbba5_ad4a_1f84_2e59,
                0xffef_8375_d9eb_caca,
                0x6c16_0dee_d2f5_4c98,
                0x8920_ad64_8fc3_0a3f,
            ]
        );
        assert_eq!(
            draws(42, 8, Rng::next_u64),
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1,
                0xfde6_dc7f_e2ec_5e64,
                0xc50d_a531_0179_5238,
                0xb821_5485_5a65_ddb2,
                0xd99a_2743_ebe6_0087,
            ]
        );
        assert_eq!(
            draws(42, 16, |r| r.below(5)),
            [0, 1, 3, 4, 4, 3, 3, 4, 3, 2, 3, 1, 4, 1, 3, 4]
        );
        assert_eq!(
            draws(42, 16, |r| r.below(3)),
            [0, 1, 2, 2, 2, 2, 2, 2, 2, 1, 2, 0, 2, 0, 2, 2]
        );
        // A bound just above 2⁶³ rejects about half of all words.
        assert_eq!(
            draws(7, 8, |r| r.below((1 << 63) + 3)),
            [
                2_571_026_295_167_391_337,
                7_744_196_453_246_319_821,
                9_049_029_322_324_588_834,
                9_139_072_988_219_048_334,
                1_400_256_439_129_669_809,
                1_443_456_880_271_936_157,
                1_233_180_231_008_125_398,
                6_007_701_357_827_324_247,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(draws(42, 64, Rng::next_u64), draws(42, 64, Rng::next_u64));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(draws(0, 8, Rng::next_u64), draws(1, 8, Rng::next_u64));
    }

    #[test]
    fn below_respects_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.below(3) < 3);
        }
    }

    #[test]
    fn below_covers_small_domains() {
        let mut seen = [false; 5];
        for v in draws(9, 200, |r| r.below(5)) {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        assert!(draws(0, 4, Rng::next_u64).iter().any(|&x| x != 0));
    }
}
