//! The rare-event estimation engine: exact importance sampling and
//! fault-count stratification for PFD regimes plain Monte Carlo cannot
//! reach.
//!
//! At realistic protection-system PFDs (`1e-6 … 1e-9`) almost every
//! naive sample draws a fault-free demand and contributes nothing: the
//! `O(1/√n)` convergence of [`crate::experiment`] needs `~100/PFD`
//! samples for 10% relative error, which at `1e-9` is `1e11` demands —
//! beyond what any hardware speedup buys. Variance reduction is the
//! multiplier that remains, and this module supplies two exact forms
//! over the β-factor shared-cause model of PR 8:
//!
//! * **Importance tilting** ([`RareEstimator::ImportanceTilt`]): the
//!   common-cause layer (`γᵢ`) and one residual layer (`ρᵢ`) per
//!   channel, concatenated into one bit universe `γ ++ ρ×channels`,
//!   are sampled from exponentially tilted probabilities by one
//!   bit-plane plan over the packed universe (the form
//!   [`BiasedBitSampler`](crate::sampler::BiasedBitSampler) documents),
//!   and every sample is reweighted by its exact likelihood ratio — the
//!   estimate is unbiased by construction, and the weight bookkeeping
//!   lives in the log domain ([`WeightedMean`]) so squared weights
//!   never underflow.
//! * **Fault-count stratification**
//!   ([`RareEstimator::StratifyByCount`]): the concatenated
//!   common+residual Bernoulli universe is partitioned by its exact
//!   Poisson-binomial bit count ([`CountConditionedSampler`]). Each
//!   draw picks a count stratum `h` from a fixed mixture `π` — uniform
//!   over the strata `h ≥ 1` of positive probability — draws a word
//!   conditional on `h`, and carries the exact log weight
//!   `ln(Wₕ/πₕ)`, `Wₕ` being the stratum's probability. The all-absent
//!   stratum carries nearly all the probability and pays exactly zero,
//!   so the mixture skips it without biasing the estimate.
//!
//! Every estimator is therefore a proposal whose draws fold into one
//! [`WeightedMean`], on the deterministic sweep engine: cells are pure
//! functions of `(spec, cell index)`, and thread-invariance, journaling
//! and fleet distribution hold bit-for-bit, exactly as for the plain
//! Monte-Carlo path.
//!
//! Because the per-fault layers stay independent of each other, the
//! engine also knows the **exact answer** ([`RareEventExperiment::true_pfd`])
//! — which is what makes the statistical-equivalence suite possible:
//! every estimator is tested against the closed form, not just against
//! another sampler.

use crate::error::DevSimError;
use crate::sampler::{exponential_tilt, BiasedUniverse, CountConditionedSampler};
use crate::sweep::{run_sweep, GridSpec};
use divrel_demand::fault_set::WORD_BITS;
use divrel_model::shared::SharedCauseModel;
use divrel_numerics::estimator::WeightedMean;
use divrel_numerics::special::ln_binomial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples per sweep cell: coarser than the plain Monte-Carlo grid
/// (2048) because rare-event cells do less work per observation on
/// average (most strata/words short-circuit).
pub const RARE_CELL_SAMPLES: usize = 4096;

/// Number of count strata (exact counts `0 .. STRATA-1`, final stratum
/// `≥ STRATA-1`). Eight captures everything: beyond 7 simultaneous
/// bits the Poisson-binomial mass is negligible for any model in the
/// rare regime, and the tail stratum keeps the partition exhaustive
/// regardless.
pub const STRATA: usize = 8;

/// Fewest effective failing draws ([`RareOutcome::payoff_ess`]) at
/// which a run's standard error is trusted. In a probe over 400 pinned
/// seeds at 8192 samples, configurations whose ± 1.96 SE interval held
/// the closed form at about the nominal rate read medians of 200–300,
/// and every one that held it in at most 315 of 400 runs read below
/// 100 in every run, except count stratification on a system whose
/// common cause it rarely samples: no weight statistic sees a region
/// the proposal never visits.
pub const MIN_PAYOFF_ESS: f64 = 100.0;

/// Which rare-event estimator a run uses.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RareEstimator {
    /// Plain Monte Carlo over the two-layer model (the unbiased
    /// baseline every variance-reduced estimator is tested against).
    Naive,
    /// Exponential importance tilt of strength `theta` on both layers,
    /// with exact per-sample likelihood-ratio reweighting.
    ImportanceTilt {
        /// Tilt strength `θ ≥ 0` (0 reduces exactly to `Naive`).
        theta: f64,
    },
    /// Stratification by the exact count of set bits in the
    /// concatenated common+residual universe: each draw picks its
    /// stratum from a fixed mixture and carries the stratum's exact
    /// likelihood ratio.
    StratifyByCount,
}

/// The reduced outcome of a rare-event run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareOutcome {
    /// The PFD estimate.
    pub estimate: f64,
    /// Standard error of the estimate.
    pub std_error: f64,
    /// `std_error / estimate` (`+∞` when the estimate is zero — the
    /// naive estimator at budgets that never saw a failure).
    pub relative_error: f64,
    /// Kish effective sample size `(Σw)²/Σw²` (the draw count for the
    /// naive estimator, whose weights are all 1).
    pub ess: f64,
    /// Payoff effective sample size `(Σwy)²/Σ(wy)²`: the effective
    /// number of failing draws. Below [`MIN_PAYOFF_ESS`] the standard
    /// error, and any interval built from it, cannot be trusted.
    pub payoff_ess: f64,
    /// Total samples drawn.
    pub samples: u64,
    /// The exact closed-form PFD of the same system (the layers stay
    /// independent across faults, so the engine knows the answer).
    pub true_pfd: f64,
}

/// `P(Binomial(n, p) ≥ m)` by direct ascending tail summation in log
/// space — exact enough at any `p`, including the `ρ ≈ 1e-3` residuals
/// where the tail is the product of tiny per-channel probabilities.
fn binomial_sf(n: u32, p: f64, m: u32) -> f64 {
    if m == 0 {
        return 1.0;
    }
    if m > n || p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    let mut acc = 0.0;
    for j in m..=n {
        let lb = ln_binomial(u64::from(n), u64::from(j)).unwrap_or(f64::NEG_INFINITY);
        acc += (lb + f64::from(j) * lp + f64::from(n - j) * lq).exp();
    }
    acc.min(1.0)
}

/// The precompiled sampling kernel of one estimator. Both draw states
/// of the concatenated `γ ++ ρ×channels` universe: the common-cause
/// bits first, then one block of residual bits per channel, packed
/// densely into `⌈faults·(1+channels)/64⌉` words.
#[derive(Debug, Clone)]
enum Kernel {
    /// Naive and tilted paths: one biased plan over the universe (the
    /// naive plan is the exact zero tilt, every weight 1).
    Tilted(BiasedUniverse),
    /// Stratified path: conditional sampler over the (≤ 64-bit)
    /// universe, and the mixture's strata with their log weights
    /// `ln(Wₕ/πₕ)`.
    Stratified {
        cond: CountConditionedSampler,
        mixture: Vec<(usize, f64)>,
    },
}

/// A rare-event estimation run over a `k`-out-of-`n` protection system
/// with β-factor shared causes: builder-style configuration, a
/// deterministic sweep grid, and pure per-cell evaluation — the same
/// shape as [`crate::experiment::MonteCarloExperiment`], so the
/// scenario and distribution layers treat it uniformly.
///
/// The system fails on a demand exposed to fault `i` iff at least
/// `m = channels − k + 1` channels carry the fault (the shared cause
/// plants it in all channels at once); the per-demand PFD is
/// `Σᵢ qᵢ·1[fault i defeats the vote]`, matching
/// [`SharedCauseModel::mean_pfd`] at `k = 1`.
#[derive(Debug, Clone)]
pub struct RareEventExperiment {
    gammas: Vec<f64>,
    rhos: Vec<f64>,
    qs: Vec<f64>,
    channels: u32,
    /// Failing channels needed to defeat the vote: `channels − k + 1`.
    threshold: u32,
    fault_mask: u64,
    samples: usize,
    seed: u64,
    threads: usize,
    estimator: RareEstimator,
    kernel: Kernel,
}

impl RareEventExperiment {
    /// Compiles the estimator kernel for `model` protecting a
    /// `k`-out-of-`channels` system.
    ///
    /// # Errors
    ///
    /// [`DevSimError::InvalidConfig`] for an empty fault model, more
    /// than 64 faults, `k ∉ [1, channels]`, a non-finite/negative
    /// tilt, or a stratified universe exceeding 64 bits
    /// (`faults × (1 + channels)`).
    pub fn from_shared(
        model: &SharedCauseModel,
        channels: u32,
        k: u32,
        estimator: RareEstimator,
    ) -> Result<Self, DevSimError> {
        let faults = model.base().len();
        if faults == 0 || faults > 64 {
            return Err(DevSimError::InvalidConfig(format!(
                "rare-event engine needs 1..=64 faults, got {faults}"
            )));
        }
        if channels == 0 || k == 0 || k > channels {
            return Err(DevSimError::InvalidConfig(format!(
                "need 1 <= k <= channels, got k = {k}, channels = {channels}"
            )));
        }
        let mut gammas = Vec::with_capacity(faults);
        let mut rhos = Vec::with_capacity(faults);
        let mut qs = Vec::with_capacity(faults);
        for f in model.base().faults() {
            let (gamma, rho) = model.layers(f.p());
            gammas.push(gamma);
            rhos.push(rho);
            qs.push(f.q());
        }
        let concat = |common: Vec<f64>, residual: &[f64]| {
            let mut universe = common;
            for _ in 0..channels {
                universe.extend_from_slice(residual);
            }
            universe
        };
        let universe = concat(gammas.clone(), &rhos);
        let kernel = match estimator {
            RareEstimator::Naive => {
                Kernel::Tilted(BiasedUniverse::new(&universe, universe.clone())?)
            }
            RareEstimator::ImportanceTilt { theta } => {
                if !theta.is_finite() || theta < 0.0 {
                    return Err(DevSimError::InvalidConfig(format!(
                        "tilt theta must be finite and >= 0, got {theta}"
                    )));
                }
                // The common-cause layer sits a factor β below the
                // residual layer (`γᵢ = β·pᵢ` vs `ρᵢ ≈ pᵢ`), so under a
                // flat tilt it stays rare long after residual failures
                // are commonplace — and it often carries a large share
                // of the PFD. Give it `ln(1/β)` of extra exposure so
                // both layers reach the same proposal scale; the
                // likelihood ratio is exact for *any* proposal, so the
                // estimate stays unbiased by construction. θ = 0 keeps
                // the exact naive identity (no exposure correction).
                let theta_common = if theta > 0.0 && model.beta() > 0.0 {
                    (theta + (1.0 / model.beta()).ln()).min(theta + 300.0)
                } else {
                    theta
                };
                let tilted = concat(
                    exponential_tilt(&gammas, theta_common),
                    &exponential_tilt(&rhos, theta),
                );
                Kernel::Tilted(BiasedUniverse::new(&universe, tilted)?)
            }
            RareEstimator::StratifyByCount => {
                let bits = universe.len();
                if bits > WORD_BITS {
                    return Err(DevSimError::InvalidConfig(format!(
                        "stratified universe needs faults x (1 + channels) <= 64 bits, \
                         got {faults} x {} = {bits}",
                        1 + channels
                    )));
                }
                let cond = CountConditionedSampler::new(&universe)?;
                let mixture = stratum_mixture(cond.count_pmf());
                Kernel::Stratified { cond, mixture }
            }
        };
        Ok(RareEventExperiment {
            gammas,
            rhos,
            qs,
            channels,
            threshold: channels - k + 1,
            fault_mask: u64::MAX >> (64 - faults),
            samples: 1 << 16,
            seed: 0,
            threads: 1,
            estimator,
            kernel,
        })
    }

    /// Sets the total sample budget.
    #[must_use]
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Sets the master sweep seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread count (an execution hint; results never depend
    /// on it).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured estimator.
    pub fn estimator(&self) -> RareEstimator {
        self.estimator
    }

    /// The total sample budget.
    pub fn sample_budget(&self) -> usize {
        self.samples
    }

    /// The deterministic cell layout of this run.
    pub fn grid_spec(&self) -> GridSpec {
        GridSpec::new(self.samples, RARE_CELL_SAMPLES)
    }

    /// The exact PFD: `Σᵢ qᵢ·Pᵢ` with
    /// `Pᵢ = γᵢ + (1−γᵢ)·P(Binomial(channels, ρᵢ) ≥ m)`.
    pub fn true_pfd(&self) -> f64 {
        self.fault_failure_probs()
            .iter()
            .zip(&self.qs)
            .map(|(&pi, &q)| q * pi)
            .sum()
    }

    /// The exact per-demand standard deviation of the payoff `Y`
    /// (faults are independent of each other, so the cross terms
    /// vanish): `√(Σᵢ qᵢ²·Pᵢ(1−Pᵢ))`.
    pub fn exact_std_dev(&self) -> f64 {
        self.fault_failure_probs()
            .iter()
            .zip(&self.qs)
            .map(|(&pi, &q)| q * q * pi * (1.0 - pi))
            .sum::<f64>()
            .sqrt()
    }

    /// `Pᵢ = P(fault i defeats the vote)` per fault.
    fn fault_failure_probs(&self) -> Vec<f64> {
        self.gammas
            .iter()
            .zip(&self.rhos)
            .map(|(&gamma, &rho)| {
                gamma + (1.0 - gamma) * binomial_sf(self.channels, rho, self.threshold)
            })
            .collect()
    }

    /// The payoff of one state of the packed concatenated universe:
    /// `Σᵢ qᵢ` over faults whose common-cause bit is set (the shared
    /// cause plants the fault in every channel) or whose residual bit
    /// is set in at least `threshold` channels. `at_least` is scratch
    /// of `threshold` words, bit-sliced counters: after each channel,
    /// `at_least[j]` holds the faults seen in more than `j` channels.
    fn payoff(&self, words: &[u64], at_least: &mut [u64]) -> f64 {
        let faults = self.qs.len();
        at_least.fill(0);
        for ch in 1..=self.channels as usize {
            let residual = bits_at(words, faults * ch, self.fault_mask);
            if residual == 0 {
                continue;
            }
            for j in (1..at_least.len()).rev() {
                at_least[j] |= at_least[j - 1] & residual;
            }
            at_least[0] |= residual;
        }
        let mut failing = bits_at(words, 0, self.fault_mask) | at_least[at_least.len() - 1];
        let mut y = 0.0;
        while failing != 0 {
            y += self.qs[failing.trailing_zeros() as usize];
            failing &= failing - 1;
        }
        y
    }

    /// Evaluates one sweep cell: `count` observations from the cell's
    /// split RNG stream. A pure function of `(self, count, seed)` —
    /// the distribution layer calls this on any host and gets the
    /// exact bits the in-process sweep produces.
    pub fn run_cell(&self, count: usize, seed: u64) -> WeightedMean {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = WeightedMean::new();
        let mut at_least = vec![0u64; self.threshold as usize];
        match &self.kernel {
            Kernel::Tilted(plan) => {
                let mut words = vec![0u64; plan.words()];
                for _ in 0..count {
                    plan.sample_into(&mut rng, &mut words);
                    acc.push(plan.log_weight(&words), self.payoff(&words, &mut at_least));
                }
            }
            Kernel::Stratified { cond, mixture } => {
                // One uniform picks a stratum of the mixture, then a
                // word is drawn conditional on it (the last stratum is
                // the `≥ STRATA−1` tail).
                let tail = STRATA.min(cond.count_pmf().len()) - 1;
                for _ in 0..count {
                    let (h, log_w) = mixture[rng.gen_range(0..mixture.len())];
                    let word = if h < tail {
                        cond.sample_exact(&mut rng, h)
                    } else {
                        cond.sample_at_least(&mut rng, h)
                    };
                    acc.push(log_w, self.payoff(&[word], &mut at_least));
                }
            }
        }
        acc
    }

    /// Runs the full sweep at the configured thread count.
    ///
    /// # Errors
    ///
    /// Estimator-assembly errors from [`Self::finish`].
    pub fn run(&self) -> Result<RareOutcome, DevSimError> {
        let grid = self.grid_spec().grid(self.seed);
        let acc = run_sweep(grid.cells(), self.threads, |cell| {
            self.run_cell(cell.config, cell.seed)
        })
        .expect("grid has at least one cell");
        self.finish(acc)
    }

    /// Assembles the outcome from a fully folded accumulator —
    /// bit-identical whether the cells ran in-process or across a
    /// fleet.
    ///
    /// # Errors
    ///
    /// [`DevSimError::Numerics`] if the accumulator holds fewer than
    /// two draws.
    pub fn finish(&self, acc: WeightedMean) -> Result<RareOutcome, DevSimError> {
        Ok(RareOutcome {
            estimate: acc.estimate(),
            std_error: acc.std_error()?,
            relative_error: acc.relative_error()?,
            ess: acc.ess(),
            payoff_ess: acc.payoff_ess(),
            samples: acc.count(),
            true_pfd: self.true_pfd(),
        })
    }
}

/// The `mask`-wide (≤ 64) field of a densely packed bit array that
/// starts at bit `at`; it may straddle two words.
#[inline]
fn bits_at(words: &[u64], at: usize, mask: u64) -> u64 {
    let (w, shift) = (at / WORD_BITS, at % WORD_BITS);
    let mut field = words[w] >> shift;
    if shift != 0 && w + 1 < words.len() {
        field |= words[w + 1] << (WORD_BITS - shift);
    }
    field & mask
}

/// Stratum probabilities from a count PMF: exact counts `0..strata-1`,
/// the final stratum absorbing the whole remaining tail.
fn stratum_weights(pmf: &[f64], strata: usize) -> Vec<f64> {
    let mut w: Vec<f64> = pmf[..strata - 1].to_vec();
    w.push(pmf[strata - 1..].iter().sum());
    w
}

/// The fixed stratum mixture of a count PMF: `πₕ = 1/m` over the `m`
/// strata `h ≥ 1` of positive probability, each with its exact log
/// weight `ln(Wₕ/πₕ)`. The all-absent stratum pays exactly 0, so
/// leaving it out keeps `E_π[w·y] = Σₕ Wₕ·E[y | h]` the PFD. A universe
/// whose only word of positive probability is the all-absent one gets
/// the mixture of stratum 0 alone.
fn stratum_mixture(pmf: &[f64]) -> Vec<(usize, f64)> {
    let weights = stratum_weights(pmf, STRATA.min(pmf.len()));
    let mut strata: Vec<usize> = (1..weights.len()).filter(|&h| weights[h] > 0.0).collect();
    if strata.is_empty() {
        strata.push(0);
    }
    let ln_m = (strata.len() as f64).ln();
    strata
        .into_iter()
        .map(|h| (h, weights[h].ln() + ln_m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use divrel_model::FaultModel;
    use divrel_numerics::sweep::SweepReduce;
    use divrel_numerics::wire::{Wire, WireForm};

    fn shared(beta: f64) -> SharedCauseModel {
        let base = FaultModel::from_params(
            &[0.02, 0.05, 0.01, 0.08, 0.03],
            &[0.04, 0.01, 0.09, 0.02, 0.05],
        )
        .unwrap();
        SharedCauseModel::new(base, beta).unwrap()
    }

    fn rare_shared() -> SharedCauseModel {
        let base = FaultModel::from_params(
            &[1e-3, 2e-3, 5e-4, 1.5e-3, 8e-4, 1e-3],
            &[0.005, 0.003, 0.008, 0.004, 0.006, 0.005],
        )
        .unwrap();
        SharedCauseModel::new(base, 0.002).unwrap()
    }

    #[test]
    fn binomial_sf_matches_direct_enumeration() {
        // n = 3, p = 0.2: P(X >= 2) = 3·0.04·0.8 + 0.008 = 0.104
        assert!((binomial_sf(3, 0.2, 2) - 0.104).abs() < 1e-12);
        assert_eq!(binomial_sf(3, 0.2, 0), 1.0);
        assert_eq!(binomial_sf(3, 0.0, 1), 0.0);
        assert_eq!(binomial_sf(3, 1.0, 3), 1.0);
        assert_eq!(binomial_sf(3, 0.5, 4), 0.0);
        // Tiny p: P(X >= 3) = p³ exactly (one term dominates).
        let p = 1e-4;
        let sf = binomial_sf(3, p, 3);
        assert!((sf - p * p * p).abs() < 1e-24);
    }

    #[test]
    fn true_pfd_matches_shared_cause_model_at_k_equals_one() {
        // k = 1 (1-out-of-N): the vote is defeated only when ALL
        // channels carry the fault — exactly mean_pfd(channels).
        let m = shared(0.15);
        for channels in [1u32, 2, 3] {
            let exp =
                RareEventExperiment::from_shared(&m, channels, 1, RareEstimator::Naive).unwrap();
            assert!(
                (exp.true_pfd() - m.mean_pfd(channels)).abs() < 1e-15,
                "channels = {channels}"
            );
        }
    }

    #[test]
    fn naive_estimate_converges_to_the_closed_form() {
        // Moderate probabilities so the naive estimator converges fast.
        let m = shared(0.1);
        let exp = RareEventExperiment::from_shared(&m, 3, 2, RareEstimator::Naive)
            .unwrap()
            .samples(200_000)
            .seed(41)
            .threads(2);
        let out = exp.run().unwrap();
        assert!(
            (out.estimate - out.true_pfd).abs() < 4.0 * out.std_error + 1e-12,
            "estimate {} vs true {} (se {})",
            out.estimate,
            out.true_pfd,
            out.std_error
        );
        assert!((out.ess - out.samples as f64).abs() < 1e-6);
    }

    #[test]
    fn tilted_estimate_is_unbiased_on_a_rare_system() {
        let m = rare_shared();
        let exp = RareEventExperiment::from_shared(
            &m,
            3,
            2,
            RareEstimator::ImportanceTilt { theta: 5.0 },
        )
        .unwrap()
        .samples(1 << 16)
        .seed(42)
        .threads(2);
        let out = exp.run().unwrap();
        assert!(
            out.true_pfd > 1e-8 && out.true_pfd < 1e-6,
            "{}",
            out.true_pfd
        );
        assert!(
            (out.estimate - out.true_pfd).abs() < 5.0 * out.std_error,
            "estimate {} vs true {} (se {})",
            out.estimate,
            out.true_pfd,
            out.std_error
        );
        // The tilt must be a real variance reduction at this budget.
        assert!(out.relative_error < 0.2, "rel err {}", out.relative_error);
        assert!(out.ess > 0.0 && out.ess < out.samples as f64);
    }

    #[test]
    fn stratified_estimate_is_unbiased_on_a_rare_system() {
        let m = rare_shared();
        let exp = RareEventExperiment::from_shared(&m, 3, 2, RareEstimator::StratifyByCount)
            .unwrap()
            .samples(1 << 16)
            .seed(43)
            .threads(2);
        let out = exp.run().unwrap();
        assert!(
            (out.estimate - out.true_pfd).abs() < 5.0 * out.std_error,
            "estimate {} vs true {} (se {})",
            out.estimate,
            out.true_pfd,
            out.std_error
        );
        assert!(out.relative_error < 0.2, "rel err {}", out.relative_error);
    }

    #[test]
    fn all_estimators_are_thread_invariant_bit_for_bit() {
        let m = rare_shared();
        for est in [
            RareEstimator::Naive,
            RareEstimator::ImportanceTilt { theta: 4.0 },
            RareEstimator::StratifyByCount,
        ] {
            let run = |threads: usize| {
                RareEventExperiment::from_shared(&m, 3, 2, est)
                    .unwrap()
                    .samples(20_000)
                    .seed(7)
                    .threads(threads)
                    .run()
                    .unwrap()
            };
            let base = run(1);
            for threads in [2, 7] {
                let r = run(threads);
                assert_eq!(
                    r.estimate.to_bits(),
                    base.estimate.to_bits(),
                    "{est:?} threads = {threads}"
                );
                assert_eq!(
                    r.std_error.to_bits(),
                    base.std_error.to_bits(),
                    "{est:?} threads = {threads}"
                );
                assert_eq!(r.samples, base.samples);
            }
        }
    }

    #[test]
    fn cell_level_wire_round_trip_reassembles_bit_identically() {
        let m = rare_shared();
        for est in [
            RareEstimator::ImportanceTilt { theta: 5.0 },
            RareEstimator::StratifyByCount,
        ] {
            let exp = RareEventExperiment::from_shared(&m, 3, 2, est)
                .unwrap()
                .samples(3 * RARE_CELL_SAMPLES + 17)
                .seed(9);
            let direct = exp.run().unwrap();
            // Evaluate each cell independently, ship through JSON wire
            // text, fold in canonical order, assemble.
            let grid = exp.grid_spec().grid(9);
            let mut acc: Option<WeightedMean> = None;
            for cell in grid.cells() {
                let a = exp.run_cell(cell.config, cell.seed);
                let json = serde_json::to_string(&a.to_wire()).unwrap();
                let wire: Wire = serde_json::from_str(&json).unwrap();
                let back = WeightedMean::from_wire(&wire).unwrap();
                assert_eq!(back, a);
                match acc.as_mut() {
                    Some(x) => x.absorb(back),
                    None => acc = Some(back),
                }
            }
            let refolded = exp.finish(acc.unwrap()).unwrap();
            assert_eq!(refolded.estimate.to_bits(), direct.estimate.to_bits());
            assert_eq!(refolded.std_error.to_bits(), direct.std_error.to_bits());
        }
    }

    #[test]
    fn zero_tilt_reproduces_the_naive_stream_exactly() {
        let m = shared(0.05);
        let run = |est| {
            RareEventExperiment::from_shared(&m, 2, 1, est)
                .unwrap()
                .samples(10_000)
                .seed(5)
                .run()
                .unwrap()
        };
        let naive = run(RareEstimator::Naive);
        let zero_tilt = run(RareEstimator::ImportanceTilt { theta: 0.0 });
        assert_eq!(naive.estimate.to_bits(), zero_tilt.estimate.to_bits());
        assert_eq!(naive.ess.to_bits(), zero_tilt.ess.to_bits());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let m = shared(0.1);
        assert!(RareEventExperiment::from_shared(&m, 0, 1, RareEstimator::Naive).is_err());
        assert!(RareEventExperiment::from_shared(&m, 2, 3, RareEstimator::Naive).is_err());
        assert!(RareEventExperiment::from_shared(
            &m,
            2,
            1,
            RareEstimator::ImportanceTilt { theta: -1.0 }
        )
        .is_err());
        // 5 faults x (1 + 15 channels) = 80 bits > 64.
        assert!(
            RareEventExperiment::from_shared(&m, 15, 1, RareEstimator::StratifyByCount).is_err()
        );
    }

    /// `faults` faults with moderate, distinct probabilities behind a
    /// shared cause of factor `beta`.
    fn wide_shared(faults: usize, beta: f64) -> SharedCauseModel {
        let ps: Vec<f64> = (0..faults).map(|i| 0.02 + 0.01 * (i % 7) as f64).collect();
        let qs: Vec<f64> = (0..faults).map(|i| 0.001 * (1 + i % 5) as f64).collect();
        SharedCauseModel::new(FaultModel::from_params(&ps, &qs).unwrap(), beta).unwrap()
    }

    fn tilted_plan(exp: &RareEventExperiment) -> &BiasedUniverse {
        match &exp.kernel {
            Kernel::Tilted(plan) => plan,
            Kernel::Stratified { .. } => panic!("not a tilted kernel"),
        }
    }

    /// The universe's untilted probabilities, `γ ++ ρ×channels`.
    fn universe_ps(exp: &RareEventExperiment) -> Vec<f64> {
        let mut ps = exp.gammas.clone();
        for _ in 0..exp.channels {
            ps.extend_from_slice(&exp.rhos);
        }
        ps
    }

    /// Every word of a 3-fault, 3-channel universe (12 bits), whose
    /// common-cause layer is tilted by `θ + ln(1/β)` and whose residual
    /// layers by `θ`: the likelihood ratios integrate to exactly 1 under
    /// the proposal, and the weighted payoff to exactly the closed-form
    /// PFD.
    #[test]
    fn concatenated_likelihood_ratios_integrate_to_one() {
        let (theta, beta) = (2.0, 0.1);
        let exp = RareEventExperiment::from_shared(
            &wide_shared(3, beta),
            3,
            2,
            RareEstimator::ImportanceTilt { theta },
        )
        .unwrap();
        let plan = tilted_plan(&exp);
        let (ps, tilted) = (universe_ps(&exp), plan.tilted_ps());
        assert_eq!((ps.len(), plan.words()), (12, 1));
        let log_odds_ratio = |b: usize| {
            let odds = |p: f64| p / (1.0 - p);
            (odds(tilted[b]) / odds(ps[b])).ln()
        };
        for b in 0..3 {
            assert!((log_odds_ratio(b) - (theta + (1.0 / beta).ln())).abs() < 1e-9);
        }
        for b in 3..12 {
            assert!((log_odds_ratio(b) - theta).abs() < 1e-9, "bit {b}");
        }
        let (mut mass, mut weight, mut pfd) = (0.0, 0.0, 0.0);
        let mut at_least = vec![0u64; exp.threshold as usize];
        for word in 0u64..1 << 12 {
            let q: f64 = tilted
                .iter()
                .enumerate()
                .map(|(b, &t)| if word >> b & 1 == 1 { t } else { 1.0 - t })
                .product();
            let w = plan.log_weight(&[word]).exp();
            mass += q;
            weight += q * w;
            pfd += q * w * exp.payoff(&[word], &mut at_least);
        }
        assert!((mass - 1.0).abs() < 1e-12, "proposal mass {mass}");
        assert!((weight - 1.0).abs() < 1e-12, "E_q[w] = {weight}");
        assert!(
            (pfd - exp.true_pfd()).abs() < 1e-12 * exp.true_pfd(),
            "E_q[w·y] = {pfd} vs closed form {}",
            exp.true_pfd()
        );
    }

    /// 20 faults x 4 layers = 80 bits in two words, so the third
    /// channel's block (bits 60..80) straddles the word boundary: on
    /// seeded random universes the packed payoff and log weight equal
    /// a bit-by-bit reference, at every vote threshold.
    #[test]
    fn packed_payoff_and_log_weight_match_a_bit_by_bit_reference() {
        let m = wide_shared(20, 0.05);
        for k in 1..=3 {
            let exp = RareEventExperiment::from_shared(
                &m,
                3,
                k,
                RareEstimator::ImportanceTilt { theta: 1.5 },
            )
            .unwrap();
            let plan = tilted_plan(&exp);
            let (ps, tilted) = (universe_ps(&exp), plan.tilted_ps());
            assert_eq!((ps.len(), plan.words()), (80, 2));
            let mut rng = StdRng::seed_from_u64(80 + u64::from(k));
            let mut at_least = vec![0u64; exp.threshold as usize];
            for _ in 0..2_000 {
                // Each bit set with probability 1/4.
                let words = [
                    rng.gen::<u64>() & rng.gen::<u64>(),
                    rng.gen::<u64>() & rng.gen::<u64>() & 0xffff,
                ];
                let bit = |i: usize| words[i / 64] >> (i % 64) & 1 == 1;
                let mut y = 0.0;
                for i in 0..20 {
                    let residual = (1..=3).filter(|&ch| bit(20 * ch + i)).count() as u32;
                    if bit(i) || residual >= exp.threshold {
                        y += exp.qs[i];
                    }
                }
                let mut lw = 0.0;
                for (i, (&p, &t)) in ps.iter().zip(tilted).enumerate() {
                    lw += if bit(i) {
                        (p / t).ln()
                    } else {
                        ((1.0 - p) / (1.0 - t)).ln()
                    };
                }
                let got = exp.payoff(&words, &mut at_least);
                assert_eq!(got.to_bits(), y.to_bits(), "k = {k}, {words:x?}");
                let got = plan.log_weight(&words);
                assert!(
                    (got - lw).abs() < 1e-12 * lw.abs().max(1.0),
                    "k = {k}, {words:x?}: {got} vs {lw}"
                );
            }
        }
    }

    /// Per-bit sample rates of the 80-bit plan against its tilted
    /// probabilities. Each count is Binomial(n, p'), so a 5σ band
    /// misses with probability 5.7e-7 per bit, 4.6e-5 over 80 bits.
    #[test]
    fn packed_plan_samples_each_bit_at_its_tilted_probability() {
        let exp = RareEventExperiment::from_shared(
            &wide_shared(20, 0.05),
            3,
            2,
            RareEstimator::ImportanceTilt { theta: 1.5 },
        )
        .unwrap();
        let plan = tilted_plan(&exp);
        let mut rng = StdRng::seed_from_u64(81);
        let n = 20_000;
        let mut counts = [0u64; 80];
        let mut words = [0u64; 2];
        for _ in 0..n {
            plan.sample_into(&mut rng, &mut words);
            for (b, c) in counts.iter_mut().enumerate() {
                *c += words[b / 64] >> (b % 64) & 1;
            }
        }
        assert_eq!(words[1] >> 16, 0, "bits past the universe stay clear");
        for (b, (&c, &t)) in counts.iter().zip(plan.tilted_ps()).enumerate() {
            let rate = c as f64 / n as f64;
            let sd = (t * (1.0 - t) / n as f64).sqrt();
            assert!(
                (rate - t).abs() < 5.0 * sd,
                "bit {b}: rate {rate} vs tilted {t}"
            );
        }
    }

    /// Naive and tilted runs take up to 64 faults at any channel count:
    /// 64 faults x 10 layers is a 640-bit universe.
    #[test]
    fn naive_and_tilt_take_universes_wider_than_a_word() {
        let m = wide_shared(64, 0.01);
        for est in [
            RareEstimator::Naive,
            RareEstimator::ImportanceTilt { theta: 3.0 },
        ] {
            let exp = RareEventExperiment::from_shared(&m, 9, 5, est).unwrap();
            assert_eq!(tilted_plan(&exp).words(), 10);
            let acc = exp.run_cell(256, 3);
            assert_eq!(acc.count(), 256);
            assert!(acc.estimate().is_finite());
        }
        assert!(
            RareEventExperiment::from_shared(&m, 9, 5, RareEstimator::StratifyByCount).is_err()
        );
    }

    #[test]
    fn stratum_mixture_weights_integrate_to_the_mass_outside_stratum_zero() {
        // E_π[w] = Σₕ πₕ·Wₕ/πₕ = 1 − W₀: every stratum the mixture can
        // pick is reweighted to its exact probability.
        let pmf = [0.9, 0.06, 0.02, 0.01, 0.0, 0.005, 0.003, 0.001, 0.001];
        let mixture = stratum_mixture(&pmf);
        let strata: Vec<usize> = mixture.iter().map(|&(h, _)| h).collect();
        assert_eq!(strata, vec![1, 2, 3, 5, 6, 7]);
        let m = mixture.len() as f64;
        let total: f64 = mixture.iter().map(|&(_, lw)| lw.exp() / m).sum();
        assert!((total - 0.1).abs() < 1e-12, "{total}");
        // No mass outside stratum 0: the all-absent word at weight 1.
        assert_eq!(stratum_mixture(&[1.0, 0.0, 0.0]), vec![(0, 0.0)]);
    }

    #[test]
    fn stratum_weights_cover_the_whole_pmf() {
        let pmf = [0.5, 0.3, 0.1, 0.05, 0.03, 0.01, 0.005, 0.003, 0.002];
        let w = stratum_weights(&pmf, 4);
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[3] - 0.1f64).abs() < 1e-12); // 0.05+0.03+0.01+0.005+0.003+0.002
    }
}
