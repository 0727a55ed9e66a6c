//! Deterministic pseudo-random numbers.
//!
//! The simulator must be reproducible bit-for-bit from a seed (both for
//! debugging coherence races and so that the paper's figures regenerate
//! identically), so it uses its own small generator rather than an
//! OS-seeded one: xoshiro256++ seeded through SplitMix64, the standard
//! construction recommended by the xoshiro authors.

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// # Examples
///
/// ```
/// use piranha_kernel::Prng;
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = Prng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

/// A Bernoulli probability precomputed for [`Prng::draw`].
///
/// [`Prng::chance`] compares `k * 2^-53` against `p`, where `k` is the
/// top 53 bits of a draw. That product is exact, so the comparison is
/// `k < p * 2^53`, and for an integer `k` that is `k < ceil(p * 2^53)`.
/// The threshold is that ceiling, clamped to `[0, 2^53]`; NaN and
/// `p <= 0` give 0. Building it costs a float `ceil`, so build it once
/// per probability, not per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chance(u64);

impl Chance {
    /// The threshold for probability `p`.
    pub fn new(p: f64) -> Self {
        const ONE: u64 = 1 << 53;
        if p.is_nan() || p <= 0.0 {
            Chance(0)
        } else if p >= 1.0 {
            Chance(ONE)
        } else {
            Chance((p * ONE as f64).ceil() as u64)
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Seed the generator from a single 64-bit value.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Derive an independent stream for a named subcomponent. Streams with
    /// different tags are statistically independent, so each CPU, workload
    /// process, and router can have its own without correlation.
    pub fn derive(&self, tag: u64) -> Prng {
        let mut sm = self.s[0] ^ self.s[2] ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift with rejection for exact uniformity.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`: never for `p <= 0` or NaN, always
    /// for `p >= 1`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// `true` with the probability `c` was built from: the same result,
    /// from the same single draw, as [`Prng::chance`] with that
    /// probability, without the float conversion.
    ///
    /// # Examples
    ///
    /// ```
    /// use piranha_kernel::{Chance, Prng};
    /// let mut a = Prng::seed_from_u64(3);
    /// let mut b = a.clone();
    /// let c = Chance::new(0.25);
    /// for _ in 0..100 {
    ///     assert_eq!(a.draw(c), b.chance(0.25));
    /// }
    /// ```
    pub fn draw(&mut self, c: Chance) -> bool {
        (self.next_u64() >> 11) < c.0
    }

    /// A geometrically-distributed value (number of failures before the
    /// first success) with success probability `p`; used for dependency-
    /// distance and run-length draws in the workload models.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(
            p > 0.0 && p <= 1.0,
            "geometric probability out of range: {p}"
        );
        if p >= 1.0 {
            return 0;
        }
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()) as u64
    }

    /// Pick an index according to `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut x = self.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn derived_streams_are_independent_and_deterministic() {
        let root = Prng::seed_from_u64(1);
        let mut x = root.derive(10);
        let mut y = root.derive(11);
        let mut x2 = root.derive(10);
        assert_eq!(x.next_u64(), x2.next_u64());
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = Prng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all values of below(10) should appear"
        );
    }

    #[test]
    fn range_bounds() {
        let mut r = Prng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = r.range(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn unit_f64_in_unit_interval_and_roughly_uniform() {
        let mut r = Prng::seed_from_u64(5);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Prng::seed_from_u64(6);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac} too far from 0.3");
    }

    #[test]
    fn threshold_draws_match_float_draws() {
        let tiny = f64::powi(2.0, -53);
        let mut ps = vec![
            0.0,
            -0.0,
            1e-300,
            f64::from_bits(1), // smallest subnormal
            tiny,
            0.1,
            0.5,
            0.58,
            1.0 - tiny,
            1.0,
            1.5,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut pick = Prng::seed_from_u64(12);
        for i in 0..10_000 {
            // Uniform p, then p spread across magnitudes and just off the
            // grid of representable draws.
            ps.push(match i % 3 {
                0 => pick.unit_f64(),
                1 => pick.unit_f64() * f64::powi(2.0, -(pick.below(60) as i32)),
                _ => (pick.below(1 << 20) as f64 + 0.5) * f64::powi(2.0, -20),
            });
        }
        let src = Prng::seed_from_u64(13);
        for (i, p) in ps.into_iter().enumerate() {
            let c = Chance::new(p);
            let mut a = src.derive(i as u64);
            let mut b = a.clone();
            for _ in 0..1000 {
                assert_eq!(a.draw(c), b.chance(p), "p = {p:e}");
            }
            assert_eq!(a, b, "both consume one draw");
        }
    }

    #[test]
    fn threshold_edges() {
        let one = 1u64 << 53;
        assert_eq!(Chance::new(f64::NAN), Chance(0));
        assert_eq!(Chance::new(-0.0), Chance(0));
        assert_eq!(Chance::new(f64::NEG_INFINITY), Chance(0));
        assert_eq!(Chance::new(1e-300), Chance(1));
        assert_eq!(Chance::new(0.5), Chance(one / 2));
        assert_eq!(Chance::new(1.0 - f64::powi(2.0, -53)), Chance(one - 1));
        assert_eq!(Chance::new(1.0), Chance(one));
        assert_eq!(Chance::new(f64::INFINITY), Chance(one));
    }

    #[test]
    fn geometric_mean_is_plausible() {
        let mut r = Prng::seed_from_u64(9);
        let p = 0.25;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.geometric(p) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p; // 3.0
        assert!(
            (mean - expect).abs() < 0.1,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = Prng::seed_from_u64(11);
        let w = [1.0, 3.0];
        let n = 100_000;
        let ones = (0..n).filter(|_| r.weighted(&w) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac} too far from 0.75");
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        Prng::seed_from_u64(0).below(0);
    }
}
