//! CONGEST-transmittable values (Section 2).
//!
//! A value in `[0, 1]` is *transmittable* if it is a multiple of `2^-ι`, where
//! `ι` is the smallest integer with `2^-ι ≤ n^-10`. Such values fit into a
//! single `O(log n)`-bit message, and a biased coin with a transmittable
//! probability can be realised with polylogarithmically many fair coins.
//! The rounding algorithms round every value *up* to the next transmittable
//! value before derandomizing; the aggregate slack this introduces is the
//! `n^-9` term carried through Lemmas 3.8, 3.9, 3.13 and 3.14.

/// The exponent `ι(n)`: the smallest integer such that `2^-ι ≤ n^-10`,
/// capped at 52 so that transmittable values remain exactly representable as
/// `f64`.
pub fn iota(n: usize) -> u32 {
    let n = n.max(2) as f64;
    let needed = (10.0 * n.log2()).ceil() as u32;
    needed.clamp(1, 52)
}

/// The granularity `2^-ι(n)`.
pub fn granularity(n: usize) -> f64 {
    (0.5f64).powi(iota(n) as i32)
}

/// Rounds `value ∈ [0, 1]` *up* to the next transmittable value for an
/// `n`-node network, capping at 1.
pub fn round_up(value: f64, n: usize) -> f64 {
    let g = granularity(n);
    ((value / g).ceil() * g).min(1.0)
}

/// Whether `value` is transmittable for an `n`-node network.
pub fn is_transmittable(value: f64, n: usize) -> bool {
    let g = granularity(n);
    let q = value / g;
    (q - q.round()).abs() < 1e-9 && (0.0..=1.0).contains(&value)
}

/// Rounds every value of an assignment up to a transmittable value; the total
/// increase is at most `n · 2^-ι ≤ n^-9`.
pub fn round_assignment_up(
    assignment: &crate::FractionalAssignment,
    n: usize,
) -> crate::FractionalAssignment {
    crate::FractionalAssignment::from_values(
        assignment
            .values()
            .iter()
            .map(|&v| round_up(v, n))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iota_grows_with_n_and_is_capped() {
        assert!(iota(4) >= 20);
        assert!(iota(1 << 20) == 52);
        assert_eq!(iota(0), iota(2));
    }

    #[test]
    fn rounding_directions() {
        let n = 16;
        let g = granularity(n);
        let v = 0.3;
        let up = round_up(v, n);
        assert!(up >= v && up - v <= g + 1e-15);
        assert!(is_transmittable(up, n));
    }

    #[test]
    fn endpoints_are_fixed_points() {
        for n in [2usize, 100, 10_000] {
            assert_eq!(round_up(0.0, n), 0.0);
            assert_eq!(round_up(1.0, n), 1.0);
            assert!(is_transmittable(0.0, n));
            assert!(is_transmittable(1.0, n));
        }
    }

    #[test]
    fn round_up_never_exceeds_one() {
        let n = 1 << 20;
        let v = 0.999_999_999_999;
        let up = round_up(v, n);
        assert!(up >= v && up <= 1.0);
        assert_eq!(round_up(1.0 - granularity(n) / 2.0, n), 1.0);
    }

    #[test]
    fn assignment_rounding_increases_size_negligibly() {
        let n = 64usize;
        let x = crate::FractionalAssignment::from_values(vec![0.123456789; n]);
        let y = round_assignment_up(&x, n);
        assert!(y.size() >= x.size());
        assert!(y.size() - x.size() <= n as f64 * granularity(n) + 1e-12);
        for &v in y.values() {
            assert!(is_transmittable(v, n));
        }
    }

    #[test]
    fn granularity_satisfies_paper_bound_for_moderate_n() {
        // For n where the 52-bit cap is not hit, 2^-ι ≤ n^-10.
        for n in [2usize, 4, 8, 16, 32] {
            assert!(granularity(n) <= (n as f64).powi(-10) + 1e-18);
        }
    }
}
