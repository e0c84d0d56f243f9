//! Skip sampling of Bernoulli trial streams.
//!
//! A run of independent trials, each an "exit" with probability
//! `1 − s` and a "survive" otherwise, can be simulated with one uniform
//! per trial, or with one uniform per exit: the number of survives
//! before the next exit is geometric, `P(gap = k) = s^k · (1 − s)`,
//! and one logarithm inverts its CDF. [`geometric_gap`] is that
//! inversion and [`inv_log_survive`] its constant, computed once per
//! run. `divrel_protection`'s rate-plant demand gaps and compiled
//! Markov dwells share them with the adaptive demand trials of
//! `divrel_devsim::adaptive`.

use rand::Rng;

/// Capped geometric sampler: the number of consecutive "survive"
/// trials before the first "exit" trial, `P(gap = k) = s^k · (1 − s)`
/// with survive probability `s`, truncated at `remaining` (a return of
/// `remaining` means no exit among the next `remaining` trials).
/// `inv_log_survive = 1 / ln(s)`, with `0.0` encoding `s = 0` (exit
/// every trial); see [`inv_log_survive`]. One draw per call, none when
/// `s = 0`.
///
/// ```
/// use divrel_numerics::sampling::{geometric_gap, inv_log_survive};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let ils = inv_log_survive(0.75, 0.25);
/// let mean = (0..20_000)
///     .map(|_| geometric_gap(ils, u64::MAX, &mut rng) as f64)
///     .sum::<f64>()
///     / 20_000.0;
/// assert!((mean - 3.0).abs() < 0.1); // E[gap] = s / (1 − s)
/// assert_eq!(geometric_gap(inv_log_survive(0.0, 1.0), 9, &mut rng), 0);
/// ```
pub fn geometric_gap<R: Rng + ?Sized>(inv_log_survive: f64, remaining: u64, rng: &mut R) -> u64 {
    if inv_log_survive == 0.0 {
        return 0; // s = 0: every trial exits
    }
    let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let gap = u.ln() * inv_log_survive; // >= 0
    if gap >= remaining as f64 {
        remaining
    } else {
        gap as u64
    }
}

/// The constant of [`geometric_gap`] for a trial that survives with
/// probability `survive` and exits with probability `exit`, both as the
/// caller computed them: `1 / ln(survive)`, or `0.0` when `survive ≤ 0`
/// (exit every trial).
///
/// When `survive` rounds to 1.0 (an exit below about `1.1e-16`) or
/// above, `ln(survive)` is `0` or positive, and the gap sampler would
/// read its reciprocal as "exit every trial"; `1 / ln_1p(−exit)` is used
/// there instead. Every other input keeps the bits of `1 / ln(survive)`.
///
/// ```
/// use divrel_numerics::sampling::inv_log_survive;
///
/// assert_eq!(inv_log_survive(0.5, 0.5), 0.5f64.ln().recip());
/// assert_eq!(inv_log_survive(0.0, 1.0), 0.0);
/// // 1 − 1e-17 rounds to 1.0: the exit keeps its rate.
/// assert_eq!(1.0 - 1e-17, 1.0);
/// assert!((inv_log_survive(1.0 - 1e-17, 1e-17) / -1e17 - 1.0).abs() < 1e-15);
/// ```
#[must_use]
pub fn inv_log_survive(survive: f64, exit: f64) -> f64 {
    if survive <= 0.0 {
        0.0
    } else if survive >= 1.0 {
        (-exit).ln_1p().recip()
    } else {
        survive.ln().recip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaps_follow_the_geometric_law() {
        let s: f64 = 0.9;
        let ils = inv_log_survive(s, 1.0 - s);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let g = geometric_gap(ils, u64::MAX, &mut rng);
            if g < 4 {
                counts[g as usize] += 1;
            }
        }
        for (k, &c) in counts.iter().enumerate() {
            let p = s.powi(k as i32) * (1.0 - s);
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (c as f64 - n as f64 * p).abs() < 5.0 * sd,
                "P(gap = {k}): {c} of {n}, expected {p}"
            );
        }
    }

    #[test]
    fn gaps_are_capped_at_the_remaining_trials() {
        let ils = inv_log_survive(1.0 - 1e-9, 1e-9);
        let mut rng = StdRng::seed_from_u64(3);
        for remaining in [0u64, 1, 17, 1_000] {
            assert_eq!(geometric_gap(ils, remaining, &mut rng), remaining);
        }
    }

    #[test]
    fn a_survive_that_rounds_to_one_keeps_its_exit_rate() {
        for exit in [1e-17, 1e-300] {
            let ils = inv_log_survive(1.0 - exit, exit);
            assert!(ils.is_finite() && ils < 0.0, "exit {exit}: {ils}");
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..1_000 {
                assert_eq!(geometric_gap(ils, 1_000, &mut rng), 1_000);
            }
        }
    }

    #[test]
    fn ordinary_survives_keep_their_bits() {
        for s in [1e-300, 0.3, 0.5, 0.999, 1.0 - f64::EPSILON] {
            assert_eq!(
                inv_log_survive(s, 1.0 - s).to_bits(),
                s.ln().recip().to_bits()
            );
        }
        assert_eq!(inv_log_survive(-0.0, 1.0), 0.0);
    }
}
