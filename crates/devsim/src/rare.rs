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
//! * **Importance tilting** ([`RareEstimator::ImportanceTilt`]): both
//!   the common-cause layer (`γᵢ`) and the per-channel residual layer
//!   (`ρᵢ`) are sampled from exponentially tilted probabilities via
//!   [`BiasedBitSampler`], and every sample is reweighted by its exact
//!   per-word likelihood ratio — the estimate is unbiased by
//!   construction, and the weight bookkeeping lives in the log domain
//!   ([`WeightedMean`]) so squared weights never underflow.
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
use crate::sampler::{BiasedBitSampler, CountConditionedSampler};
use crate::sweep::{run_sweep, GridSpec};
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

/// The precompiled sampling kernel of one estimator.
#[derive(Debug, Clone)]
enum Kernel {
    /// Naive and tilted paths share one shape: a biased sampler per
    /// layer (the naive case is the exact zero tilt, every weight 1).
    Layered {
        common: BiasedBitSampler,
        residual: Box<BiasedBitSampler>,
    },
    /// Stratified path: conditional sampler over the concatenated
    /// `γ ++ ρ×channels` universe, and the mixture's strata with their
    /// log weights `ln(Wₕ/πₕ)`.
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
        let kernel = match estimator {
            RareEstimator::Naive => Kernel::Layered {
                common: BiasedBitSampler::exponential(&gammas, 0.0)?,
                residual: Box::new(BiasedBitSampler::exponential(&rhos, 0.0)?),
            },
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
                Kernel::Layered {
                    common: BiasedBitSampler::exponential(&gammas, theta_common)?,
                    residual: Box::new(BiasedBitSampler::exponential(&rhos, theta)?),
                }
            }
            RareEstimator::StratifyByCount => {
                let bits = faults * (1 + channels as usize);
                if bits > 64 {
                    return Err(DevSimError::InvalidConfig(format!(
                        "stratified universe needs faults x (1 + channels) <= 64 bits, \
                         got {faults} x {} = {bits}",
                        1 + channels
                    )));
                }
                let mut concat = gammas.clone();
                for _ in 0..channels {
                    concat.extend_from_slice(&rhos);
                }
                let cond = CountConditionedSampler::new(&concat)?;
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

    /// The payoff of one sampled state: `Σᵢ qᵢ` over faults carried by
    /// at least `threshold` channels (a shared-cause bit counts as all
    /// channels at once).
    fn payoff(&self, commons: u64, residuals: &[u64]) -> f64 {
        let mut any = commons;
        for &r in residuals {
            any |= r;
        }
        let mut y = 0.0;
        let mut bits = any & self.fault_mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            let failing = commons >> i & 1 == 1 || {
                let mut c = 0u32;
                for &r in residuals {
                    c += (r >> i & 1) as u32;
                }
                c >= self.threshold
            };
            if failing {
                y += self.qs[i];
            }
            bits &= bits - 1;
        }
        y
    }

    /// Splits a concatenated-universe word (`γ` bits low, then one
    /// `ρ` block per channel) into the layered form and evaluates it.
    fn payoff_concat(&self, word: u64, scratch: &mut Vec<u64>) -> f64 {
        let f = self.qs.len();
        let commons = word & self.fault_mask;
        scratch.clear();
        for ch in 0..self.channels as usize {
            scratch.push(word >> (f * (1 + ch)) & self.fault_mask);
        }
        self.payoff(commons, scratch)
    }

    /// Evaluates one sweep cell: `count` observations from the cell's
    /// split RNG stream. A pure function of `(self, count, seed)` —
    /// the distribution layer calls this on any host and gets the
    /// exact bits the in-process sweep produces.
    pub fn run_cell(&self, count: usize, seed: u64) -> WeightedMean {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = WeightedMean::new();
        match &self.kernel {
            Kernel::Layered { common, residual } => {
                let mut resid = vec![0u64; self.channels as usize];
                for _ in 0..count {
                    let cw = common.sample(&mut rng);
                    let mut log_w = common.log_weight(cw);
                    for r in resid.iter_mut() {
                        *r = residual.sample(&mut rng);
                        log_w += residual.log_weight(*r);
                    }
                    acc.push(log_w, self.payoff(cw, &resid));
                }
            }
            Kernel::Stratified { cond, mixture } => {
                self.run_stratified_cell(cond, mixture, count, &mut rng, &mut acc);
            }
        }
        acc
    }

    /// The stratified draws of one cell: one uniform picks a stratum
    /// of the mixture, then a word is drawn conditional on it (the
    /// last stratum is the `≥ STRATA−1` tail).
    fn run_stratified_cell(
        &self,
        cond: &CountConditionedSampler,
        mixture: &[(usize, f64)],
        count: usize,
        rng: &mut StdRng,
        acc: &mut WeightedMean,
    ) {
        let tail = STRATA.min(cond.count_pmf().len()) - 1;
        let mut scratch = Vec::with_capacity(self.channels as usize);
        for _ in 0..count {
            let (h, log_w) = mixture[rng.gen_range(0..mixture.len())];
            let word = if h < tail {
                cond.sample_exact(rng, h)
            } else {
                cond.sample_at_least(rng, h)
            };
            acc.push(log_w, self.payoff_concat(word, &mut scratch));
        }
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
            samples: acc.count(),
            true_pfd: self.true_pfd(),
        })
    }
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
