//! Kolmogorov–Smirnov goodness-of-fit machinery.
//!
//! The paper (§7) observes that the Knight–Leveson data "do not fit … a
//! normal approximation for the distribution of PFD", and §3/§5 concede the
//! CLT quality is unknown in a specific case. This module makes those
//! statements checkable: a one-sample KS test of data against any reference
//! CDF, and a discrete-vs-continuous sup-distance for comparing the *exact*
//! PFD distribution against its normal approximation (experiment E12).

use crate::descriptive::Ecdf;
use crate::error::NumericsError;
use crate::weighted_sum::WeightedBernoulliSum;

/// Result of a one-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D = sup |F_n(x) − F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value of observing a statistic at least this large
    /// under the null hypothesis that the sample is drawn from `F`.
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

/// One-sample KS test of `sample` against the reference CDF `cdf`.
///
/// The p-value uses the asymptotic Kolmogorov distribution
/// (`Q(λ) = 2 Σ (−1)^{k−1} exp(−2k²λ²)` with the Stephens small-sample
/// correction), accurate enough for `n ≳ 10` — the regime in which the test
/// is meaningful anyway.
///
/// # Errors
///
/// [`NumericsError::EmptyData`] for an empty sample;
/// [`NumericsError::DomainError`] for NaN observations.
///
/// ```
/// use divrel_numerics::ks::ks_test;
///
/// // Uniform sample against the uniform CDF: should not reject.
/// let sample: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) / 100.0).collect();
/// let t = ks_test(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
/// assert!(t.p_value > 0.99);
/// ```
pub fn ks_test<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> Result<KsTest, NumericsError> {
    let ecdf = Ecdf::new(sample.to_vec())?;
    let n = ecdf.len();
    let nf = n as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in ecdf.sorted_sample().iter().enumerate() {
        let f = cdf(x);
        let d_plus = (i as f64 + 1.0) / nf - f;
        let d_minus = f - i as f64 / nf;
        d = d.max(d_plus).max(d_minus);
    }
    let p_value = kolmogorov_sf((nf.sqrt() + 0.12 + 0.11 / nf.sqrt()) * d);
    Ok(KsTest {
        statistic: d,
        p_value,
        n,
    })
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² λ²)`.
///
/// ```
/// use divrel_numerics::ks::kolmogorov_sf;
/// // Known point: Q(1.36) ≈ 0.049, the classic 5% critical value.
/// assert!((kolmogorov_sf(1.3581) - 0.05).abs() < 1e-3);
/// ```
pub fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-18 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Result of a chi-squared goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquaredTest {
    /// The chi-squared statistic `Σ (Oᵢ−Eᵢ)²/Eᵢ` after pooling.
    pub statistic: f64,
    /// Degrees of freedom (pooled cells − 1).
    pub dof: usize,
    /// p-value `P(χ²_dof ≥ statistic)`.
    pub p_value: f64,
}

/// Chi-squared goodness-of-fit of a sample against a **discrete**
/// distribution given by its atoms.
///
/// The KS machinery above assumes a continuous reference CDF; for atomic
/// references (the exact PFD law of a small fault model) ties make the KS
/// statistic meaningless, and this is the appropriate test instead.
/// Sample values are matched to the nearest atom; cells with expected
/// count below 5 are pooled (rarest-first) in the standard way.
///
/// # Errors
///
/// [`NumericsError::EmptyData`] for an empty sample;
/// [`NumericsError::DomainError`] if fewer than two pooled cells remain
/// (no test possible) or a sample value lies far from every atom.
///
/// ```
/// use divrel_numerics::ks::chi_squared_gof;
/// use divrel_numerics::weighted_sum::WeightedBernoulliSum;
///
/// let d = WeightedBernoulliSum::enumerate(&[(0.5, 1.0)]).unwrap();
/// // A perfectly balanced sample of the two atoms {0, 1}:
/// let sample: Vec<f64> = (0..100).map(|i| f64::from(i % 2)).collect();
/// let t = chi_squared_gof(&sample, &d).unwrap();
/// assert!(t.p_value > 0.9);
/// ```
pub fn chi_squared_gof(
    sample: &[f64],
    reference: &WeightedBernoulliSum,
) -> Result<ChiSquaredTest, NumericsError> {
    if sample.is_empty() {
        return Err(NumericsError::EmptyData("chi_squared_gof"));
    }
    let atoms = reference.atoms();
    let values: Vec<f64> = atoms.iter().map(|a| a.value).collect();
    let mut observed = vec![0u64; atoms.len()];
    let span = values.last().copied().unwrap_or(0.0) - values.first().copied().unwrap_or(0.0);
    let tol = (span * 1e-9).max(1e-12);
    for &x in sample {
        // Nearest atom by binary search on the sorted atom values.
        let idx = match values.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => i,
            Err(i) => {
                let before = i.checked_sub(1);
                let candidates = [before, (i < values.len()).then_some(i)];
                candidates
                    .into_iter()
                    .flatten()
                    .min_by(|&a, &b| (values[a] - x).abs().total_cmp(&(values[b] - x).abs()))
                    .ok_or_else(|| crate::error::domain("reference distribution has no atoms"))?
            }
        };
        if (values[idx] - x).abs() > tol {
            return Err(crate::error::domain(format!(
                "sample value {x} matches no atom of the reference"
            )));
        }
        observed[idx] += 1;
    }
    let masses: Vec<f64> = atoms.iter().map(|a| a.mass).collect();
    chi_squared_counts(&observed, &masses)
}

/// Chi-squared goodness-of-fit of category counts against a discrete
/// law: `observed[i]` draws fell in category `i`, which has probability
/// `probs[i]`. Cells with expected count below 5 are pooled
/// (rarest-first) as in [`chi_squared_gof`], which is this test after
/// matching each sample value to its atom.
///
/// # Errors
///
/// [`NumericsError::EmptyData`] when no draw was counted;
/// [`NumericsError::DomainError`] for mismatched lengths or fewer than
/// two pooled cells.
///
/// ```
/// use divrel_numerics::ks::chi_squared_counts;
///
/// let t = chi_squared_counts(&[26, 49, 25], &[0.25, 0.5, 0.25]).unwrap();
/// assert!(t.p_value > 0.9);
/// let t = chi_squared_counts(&[60, 20, 20], &[0.25, 0.5, 0.25]).unwrap();
/// assert!(t.p_value < 1e-10);
/// ```
pub fn chi_squared_counts(
    observed: &[u64],
    probs: &[f64],
) -> Result<ChiSquaredTest, NumericsError> {
    use crate::special::gamma_q;
    if observed.len() != probs.len() {
        return Err(crate::error::domain(format!(
            "{} counts for {} categories",
            observed.len(),
            probs.len()
        )));
    }
    let total: u64 = observed.iter().sum();
    if total == 0 {
        return Err(NumericsError::EmptyData("chi_squared_counts"));
    }
    // Pool cells with expected count < 5, rarest first.
    let n = total as f64;
    let mut order: Vec<usize> = (0..probs.len()).collect();
    order.sort_by(|&a, &b| probs[a].total_cmp(&probs[b]));
    let mut pooled: Vec<(f64, f64)> = Vec::new(); // (observed, expected)
    let mut acc_o = 0.0;
    let mut acc_e = 0.0;
    for &i in &order {
        acc_o += observed[i] as f64;
        acc_e += probs[i] * n;
        if acc_e >= 5.0 {
            pooled.push((acc_o, acc_e));
            acc_o = 0.0;
            acc_e = 0.0;
        }
    }
    if acc_e > 0.0 {
        if let Some(last) = pooled.last_mut() {
            last.0 += acc_o;
            last.1 += acc_e;
        }
    }
    if pooled.len() < 2 {
        return Err(crate::error::domain(
            "fewer than two cells with adequate expected count",
        ));
    }
    let statistic: f64 = pooled.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let dof = pooled.len() - 1;
    let p_value = gamma_q(dof as f64 / 2.0, statistic / 2.0)?;
    Ok(ChiSquaredTest {
        statistic,
        dof,
        p_value,
    })
}

/// Chi-squared **homogeneity** test of two independent samples of
/// category counts: were `a` and `b` drawn from the same discrete
/// distribution?
///
/// This is the two-sample companion of [`chi_squared_gof`], used when no
/// analytic reference exists — e.g. comparing the demand-interval
/// distribution of a compiled Markov-plant sampler against the legacy
/// tick-by-tick simulation of the same plant. Categories are pooled
/// (rarest combined total first) until every pooled cell's expected
/// count is at least 5 in both rows; the statistic is the standard 2×k
/// contingency `Σ (O − E)²/E` with `k − 1` degrees of freedom.
///
/// # Errors
///
/// [`NumericsError::EmptyData`] if either sample is empty;
/// [`NumericsError::DomainError`] for mismatched category counts or
/// fewer than two pooled cells.
///
/// ```
/// use divrel_numerics::ks::chi_squared_homogeneity;
///
/// // Two samples with proportional counts: perfectly homogeneous.
/// let t = chi_squared_homogeneity(&[40, 30, 30], &[80, 60, 60]).unwrap();
/// assert!(t.p_value > 0.99);
/// // Opposite skews: decisively rejected.
/// let t = chi_squared_homogeneity(&[90, 10], &[10, 90]).unwrap();
/// assert!(t.p_value < 1e-10);
/// ```
pub fn chi_squared_homogeneity(a: &[u64], b: &[u64]) -> Result<ChiSquaredTest, NumericsError> {
    use crate::special::gamma_q;
    if a.len() != b.len() {
        return Err(crate::error::domain(format!(
            "category counts differ: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    if na == 0 || nb == 0 {
        return Err(NumericsError::EmptyData("chi_squared_homogeneity"));
    }
    // Pool rarest categories (by combined count) until both rows'
    // expected counts clear the usual >= 5 rule.
    let (na_f, nb_f) = (na as f64, nb as f64);
    let total = na_f + nb_f;
    let mut order: Vec<usize> = (0..a.len()).collect();
    order.sort_by_key(|&i| a[i] + b[i]);
    let mut pooled: Vec<(f64, f64)> = Vec::new(); // (observed a, observed b)
    let (mut acc_a, mut acc_b) = (0.0f64, 0.0f64);
    for &i in &order {
        acc_a += a[i] as f64;
        acc_b += b[i] as f64;
        let combined = acc_a + acc_b;
        // Expected count in a cell: row total × column total / total.
        if na_f * combined / total >= 5.0 && nb_f * combined / total >= 5.0 {
            pooled.push((acc_a, acc_b));
            acc_a = 0.0;
            acc_b = 0.0;
        }
    }
    if acc_a + acc_b > 0.0 {
        if let Some(last) = pooled.last_mut() {
            last.0 += acc_a;
            last.1 += acc_b;
        }
    }
    if pooled.len() < 2 {
        return Err(crate::error::domain(
            "fewer than two cells with adequate expected count",
        ));
    }
    let mut statistic = 0.0;
    for &(oa, ob) in &pooled {
        let col = oa + ob;
        let ea = na_f * col / total;
        let eb = nb_f * col / total;
        statistic += (oa - ea) * (oa - ea) / ea + (ob - eb) * (ob - eb) / eb;
    }
    let dof = pooled.len() - 1;
    let p_value = gamma_q(dof as f64 / 2.0, statistic / 2.0)?;
    Ok(ChiSquaredTest {
        statistic,
        dof,
        p_value,
    })
}

/// Sup-distance `sup_x |F(x) − G(x)|` between a **discrete** distribution
/// (the exact PFD law from [`WeightedBernoulliSum`]) and an arbitrary
/// continuous CDF `G`.
///
/// The supremum over a discrete-vs-continuous pair is attained at an atom:
/// we evaluate both the pre-jump and post-jump gaps at every atom.
/// This is the quantity the paper implicitly appeals to when judging "how
/// good an approximation" the normal is (§3, §5, §7).
///
/// ```
/// use divrel_numerics::ks::sup_distance_to_cdf;
/// use divrel_numerics::normal::Normal;
/// use divrel_numerics::weighted_sum::WeightedBernoulliSum;
///
/// // A fair-coin PFD (two atoms of mass 1/2) is far from *any* continuous
/// // CDF: at an atom of mass m the gap is at least m/2.
/// let d = WeightedBernoulliSum::enumerate(&[(0.5, 1.0)]).unwrap();
/// let approx = Normal::new(d.mean(), d.std_dev()).unwrap();
/// let dist = sup_distance_to_cdf(&d, |x| approx.cdf(x));
/// assert!(dist >= 0.25);
/// ```
pub fn sup_distance_to_cdf<G: Fn(f64) -> f64>(d: &WeightedBernoulliSum, g: G) -> f64 {
    let mut sup: f64 = 0.0;
    let mut acc = 0.0;
    for a in d.atoms() {
        let gv = g(a.value);
        // Just below the atom, F = acc; just at/above it, F = acc + mass.
        sup = sup.max((gv - acc).abs());
        acc += a.mass;
        sup = sup.max((gv - acc).abs());
    }
    sup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::Normal;

    #[test]
    fn kolmogorov_sf_boundaries() {
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert_eq!(kolmogorov_sf(-1.0), 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
        // Monotone decreasing.
        let mut prev = 1.0;
        for i in 1..40 {
            let v = kolmogorov_sf(i as f64 * 0.1);
            assert!(v <= prev + 1e-15);
            prev = v;
        }
    }

    #[test]
    fn ks_accepts_data_from_the_null() {
        // Deterministic uniform grid is the best-case fit.
        let sample: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 500.0).collect();
        let t = ks_test(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(t.statistic < 0.002);
        assert!(t.p_value > 0.999);
        assert_eq!(t.n, 500);
    }

    #[test]
    fn ks_rejects_shifted_data() {
        // Sample from U(0.3, 1.3) tested against U(0, 1).
        let sample: Vec<f64> = (0..200).map(|i| 0.3 + (i as f64 + 0.5) / 200.0).collect();
        let t = ks_test(&sample, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!(t.statistic > 0.25);
        assert!(t.p_value < 1e-6);
    }

    #[test]
    fn ks_rejects_empty_sample() {
        assert!(ks_test(&[], |x| x).is_err());
    }

    #[test]
    fn ks_against_normal_cdf() {
        // Normal quantile grid against its own CDF fits essentially perfectly.
        let n = Normal::standard();
        let sample: Vec<f64> = (0..300)
            .map(|i| n.quantile((i as f64 + 0.5) / 300.0).unwrap())
            .collect();
        let t = ks_test(&sample, |x| n.cdf(x)).unwrap();
        assert!(t.p_value > 0.999, "p={}", t.p_value);
    }

    #[test]
    fn chi_squared_accepts_matching_counts() {
        let d = WeightedBernoulliSum::enumerate(&[(0.5, 0.1), (0.5, 0.2)]).unwrap();
        // Atoms 0/0.1/0.2/0.3 each mass 0.25; feed 25 of each.
        let mut sample = Vec::new();
        for v in [0.0, 0.1, 0.2, 0.30000000000000004] {
            sample.extend(std::iter::repeat_n(v, 25));
        }
        let t = chi_squared_gof(&sample, &d).unwrap();
        assert!(t.p_value > 0.99, "p = {}", t.p_value);
        assert_eq!(t.dof, 3);
        assert!(t.statistic < 1e-9);
    }

    #[test]
    fn chi_squared_rejects_biased_counts() {
        let d = WeightedBernoulliSum::enumerate(&[(0.5, 1.0)]).unwrap();
        // 90/10 split against a fair 50/50 reference.
        let mut sample = vec![0.0; 90];
        sample.extend(std::iter::repeat_n(1.0, 10));
        let t = chi_squared_gof(&sample, &d).unwrap();
        assert!(t.p_value < 1e-10, "p = {}", t.p_value);
    }

    #[test]
    fn chi_squared_validation() {
        let d = WeightedBernoulliSum::enumerate(&[(0.5, 1.0)]).unwrap();
        assert!(chi_squared_gof(&[], &d).is_err());
        assert!(chi_squared_gof(&[0.5], &d).is_err()); // matches no atom
                                                       // Too small a sample to form two cells of expected >= 5.
        let tiny = chi_squared_gof(&[0.0, 1.0], &d);
        assert!(tiny.is_err());
    }

    #[test]
    fn homogeneity_accepts_same_distribution_and_rejects_shifts() {
        // Same geometric-ish shape at different sample sizes: accept.
        let a = [400u64, 200, 100, 50, 25, 12, 6];
        let b: Vec<u64> = a.iter().map(|&c| c * 3).collect();
        let t = chi_squared_homogeneity(&a, &b).unwrap();
        assert!(t.p_value > 0.95, "p = {}", t.p_value);
        // A shifted shape: reject.
        let shifted = [6u64, 12, 25, 50, 100, 200, 400];
        let t = chi_squared_homogeneity(&a, &shifted).unwrap();
        assert!(t.p_value < 1e-10, "p = {}", t.p_value);
        // Sparse tails pool away rather than erroring.
        let sparse_a = [500u64, 3, 0, 1, 0, 0, 496];
        let sparse_b = [480u64, 1, 1, 0, 1, 0, 517];
        let t = chi_squared_homogeneity(&sparse_a, &sparse_b).unwrap();
        assert!(t.dof >= 1);
        assert!(t.p_value > 0.01);
    }

    #[test]
    fn homogeneity_validation() {
        assert!(chi_squared_homogeneity(&[1, 2], &[1, 2, 3]).is_err());
        assert!(chi_squared_homogeneity(&[0, 0], &[1, 2]).is_err());
        assert!(chi_squared_homogeneity(&[10], &[10]).is_err());
    }

    #[test]
    fn sup_distance_degenerate_vs_normal() {
        // Single-fault model: exact distribution is two atoms; the normal
        // approximation must be visibly bad. Paper §7 observed exactly this
        // about the KL data.
        let d = WeightedBernoulliSum::enumerate(&[(0.3, 0.01)]).unwrap();
        let approx = Normal::new(d.mean(), d.std_dev()).unwrap();
        let dist = sup_distance_to_cdf(&d, |x| approx.cdf(x));
        assert!(dist > 0.2, "distance {dist} suspiciously small");
    }

    #[test]
    fn sup_distance_shrinks_with_many_faults() {
        // Many comparable faults: CLT kicks in and the distance drops.
        let small: Vec<(f64, f64)> = (0..4).map(|_| (0.5, 0.01)).collect();
        let large: Vec<(f64, f64)> = (0..18).map(|_| (0.5, 0.01)).collect();
        let ds = WeightedBernoulliSum::enumerate(&small).unwrap();
        let dl = WeightedBernoulliSum::enumerate(&large).unwrap();
        let ns = Normal::new(ds.mean(), ds.std_dev()).unwrap();
        let nl = Normal::new(dl.mean(), dl.std_dev()).unwrap();
        let dist_s = sup_distance_to_cdf(&ds, |x| ns.cdf(x));
        let dist_l = sup_distance_to_cdf(&dl, |x| nl.cdf(x));
        assert!(
            dist_l < dist_s,
            "expected CLT improvement: {dist_l} !< {dist_s}"
        );
    }
}
