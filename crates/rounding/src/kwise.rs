//! `k`-wise independent biased coins from short seeds (Lemma 3.3).
//!
//! The classical construction: a uniformly random polynomial of degree `k-1`
//! over a prime field, evaluated at distinct points, yields `k`-wise
//! independent (near-)uniform values; comparing the value at point `i` against
//! a probability `p_i` yields `k`-wise independent biased coins. The seed is
//! the coefficient vector — `k · 61` fair bits — matching the
//! `K = O(k log² N)` seed length of Lemma 3.3 up to the choice of constants.
//!
//! The field is `GF(2^61 - 1)` (a Mersenne prime), so arithmetic stays exact
//! in `u128` intermediates and the quantisation bias of the uniform values is
//! below `2^-61`, far below the `1/n^10` transmittable-value granularity the
//! paper already tolerates.

use rand::Rng;

/// The Mersenne prime `2^61 - 1` used as the field size.
pub const FIELD_PRIME: u64 = (1u64 << 61) - 1;

/// Number of fair coins (bits) required to seed a generator with independence
/// parameter `k`.
pub fn seed_length_bits(k: usize) -> usize {
    61 * k.max(1)
}

/// A `k`-wise independent generator of uniform values and biased coins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseGenerator {
    coefficients: Vec<u64>,
}

impl KWiseGenerator {
    /// Builds a generator with independence parameter `k` using `rng` as the
    /// seed source.
    pub fn from_rng<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        let coefficients = (0..k.max(1))
            .map(|_| rng.gen_range(0..FIELD_PRIME))
            .collect();
        KWiseGenerator { coefficients }
    }

    /// Builds a generator from an explicit seed of fair coins (the object a
    /// cluster leader would broadcast in Lemma 3.4). The seed must contain at
    /// least [`seed_length_bits`]`(k)` bits; extra bits are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the seed is shorter than `seed_length_bits(k)`.
    pub fn from_fair_coins(bits: &[bool], k: usize) -> Self {
        let k = k.max(1);
        assert!(
            bits.len() >= seed_length_bits(k),
            "seed of {} bits is shorter than the required {}",
            bits.len(),
            seed_length_bits(k)
        );
        let coefficients = (0..k)
            .map(|j| {
                let mut acc: u64 = 0;
                for &bit in &bits[j * 61..(j + 1) * 61] {
                    acc = (acc << 1) | u64::from(bit);
                }
                acc % FIELD_PRIME
            })
            .collect();
        KWiseGenerator { coefficients }
    }

    /// Evaluates the underlying polynomial at `point` and maps the result to
    /// `[0, 1)`. Values at distinct points are `k`-wise independent and
    /// (up to `2^-61` quantisation) uniform.
    pub fn value(&self, point: u64) -> f64 {
        let x = (point % FIELD_PRIME) as u128;
        let mut acc: u128 = 0;
        // Horner evaluation, highest coefficient first.
        for &c in self.coefficients.iter().rev() {
            acc = (acc * x + c as u128) % FIELD_PRIME as u128;
        }
        acc as f64 / FIELD_PRIME as f64
    }

    /// A biased coin at `point` that is 1 with probability `prob`.
    pub fn coin(&self, point: u64, prob: f64) -> bool {
        self.value(point) < prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seed_length_matches_coefficients() {
        assert_eq!(seed_length_bits(1), 61);
        assert_eq!(seed_length_bits(4), 244);
        assert_eq!(seed_length_bits(0), 61);
    }

    #[test]
    fn from_fair_coins_is_deterministic() {
        let bits: Vec<bool> = (0..244).map(|i| i % 3 == 0).collect();
        let g1 = KWiseGenerator::from_fair_coins(&bits, 4);
        let g2 = KWiseGenerator::from_fair_coins(&bits, 4);
        assert_eq!(g1, g2);
        for i in 0..10 {
            assert_eq!(g1.value(i), g2.value(i));
        }
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn short_seed_panics() {
        let bits = vec![true; 10];
        let _ = KWiseGenerator::from_fair_coins(&bits, 2);
    }

    #[test]
    fn values_are_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = KWiseGenerator::from_rng(8, &mut rng);
        for i in 0..1000 {
            let v = g.value(i);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn marginals_are_close_to_uniform() {
        // Empirical check of Lemma 3.3: each individual coin has (almost)
        // exactly its nominal bias, averaged over random seeds.
        let prob = 0.3;
        let trials = 400usize;
        let points = 50u64;
        let mut hits = 0usize;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..trials {
            let g = KWiseGenerator::from_rng(4, &mut rng);
            for p in 0..points {
                if g.coin(p, prob) {
                    hits += 1;
                }
            }
        }
        let freq = hits as f64 / (trials as f64 * points as f64);
        assert!(
            (freq - prob).abs() < 0.02,
            "empirical bias {freq} too far from {prob}"
        );
    }

    #[test]
    fn pairwise_correlation_is_small_for_k_at_least_two() {
        // For k >= 2 the coins at two distinct points are independent; their
        // empirical correlation over seeds must vanish.
        let trials = 2000usize;
        let mut rng = StdRng::seed_from_u64(11);
        let (mut a, mut b, mut ab) = (0usize, 0usize, 0usize);
        for _ in 0..trials {
            let g = KWiseGenerator::from_rng(2, &mut rng);
            let ca = g.coin(3, 0.5);
            let cb = g.coin(17, 0.5);
            a += usize::from(ca);
            b += usize::from(cb);
            ab += usize::from(ca && cb);
        }
        let pa = a as f64 / trials as f64;
        let pb = b as f64 / trials as f64;
        let pab = ab as f64 / trials as f64;
        assert!(
            (pab - pa * pb).abs() < 0.05,
            "joint {pab} vs product {}",
            pa * pb
        );
    }

    #[test]
    fn degree_one_generator_is_constant_translation() {
        // With k = 1 the polynomial is a constant: all points give the same
        // value — the degenerate case of "1-wise independence".
        let bits = vec![true; 61];
        let g = KWiseGenerator::from_fair_coins(&bits, 1);
        assert_eq!(g.value(0), g.value(5));
    }
}
