//! Monte-Carlo experiments over the fault-creation process.
//!
//! Estimates, with confidence intervals, every quantity the analytic model
//! predicts — eq (1)–(3) moments, §4 fault-free probabilities and the
//! eq (10) risk ratio — so the model can be checked against its own
//! sampling semantics (experiment E1) and against the §6.1 correlated
//! variants the analytic model does *not* cover (experiment E13).
//!
//! The driver runs on the [`crate::sweep`] engine: samples are cut into
//! fixed-size grid cells whose RNG streams are split from the experiment
//! seed by counter-based SplitMix64 ([`divrel_numerics::sweep::split_seed`]),
//! executed by work-stealing workers and reduced in canonical cell order —
//! so the results are **bit-identical for every thread count**, not merely
//! statistically close.

use crate::error::DevSimError;
use crate::factory::VersionFactory;
use crate::process::FaultIntroduction;
use crate::sweep::{run_sweep, GridSpec};
use divrel_model::FaultModel;
use divrel_numerics::descriptive::Moments;
use divrel_numerics::normal::standard_quantile;
use divrel_numerics::sweep::SweepReduce;
use divrel_numerics::wire::{Wire, WireError, WireForm};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Summary statistics for one system level (single version or pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Empirical mean PFD.
    pub mean_pfd: f64,
    /// Empirical standard deviation of the PFD.
    pub std_pfd: f64,
    /// Fraction of samples with zero (common) faults.
    pub fault_free_rate: f64,
    /// Mean number of (common) faults.
    pub mean_fault_count: f64,
}

/// A Wilson-score confidence interval for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionCi {
    /// Point estimate `successes / trials`.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Wilson score interval for `successes` out of `trials` at the given
/// confidence level.
///
/// # Errors
///
/// [`DevSimError::TooFewSamples`] for `trials == 0`;
/// [`DevSimError::InvalidConfig`] for `successes > trials` or a confidence
/// outside `(0, 1)`.
///
/// ```
/// use divrel_devsim::experiment::wilson_ci;
/// let ci = wilson_ci(8, 10, 0.95)?;
/// assert!(ci.lo < 0.8 && 0.8 < ci.hi);
/// assert!(ci.lo > 0.4 && ci.hi < 0.98);
/// # Ok::<(), divrel_devsim::DevSimError>(())
/// ```
pub fn wilson_ci(
    successes: u64,
    trials: u64,
    confidence: f64,
) -> Result<ProportionCi, DevSimError> {
    if trials == 0 {
        return Err(DevSimError::TooFewSamples { got: 0, need: 1 });
    }
    if successes > trials {
        return Err(DevSimError::InvalidConfig(format!(
            "{successes} successes out of {trials} trials"
        )));
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(DevSimError::InvalidConfig(format!(
            "confidence {confidence} not in (0, 1)"
        )));
    }
    let z = standard_quantile(0.5 + confidence / 2.0)?;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    Ok(ProportionCi {
        estimate: p,
        lo: (centre - half).max(0.0),
        hi: (centre + half).min(1.0),
    })
}

/// Results of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Number of pairs sampled (each pair contributes one single-version
    /// observation from its first member to keep observations independent).
    pub samples: usize,
    /// Statistics of single versions.
    pub single: LevelStats,
    /// Statistics of 1-out-of-2 pairs.
    pub pair: LevelStats,
    /// Empirical eq (10) risk ratio
    /// `#(pairs with common faults) / #(versions with faults)`.
    pub risk_ratio: Option<f64>,
    /// Wilson CI (95%) on `P(N₁ > 0)`.
    pub risk_single_ci: ProportionCi,
    /// Wilson CI (95%) on `P(N₂ > 0)`.
    pub risk_pair_ci: ProportionCi,
}

/// A configurable Monte-Carlo experiment (consuming builder).
#[derive(Debug, Clone)]
pub struct MonteCarloExperiment {
    model: FaultModel,
    introduction: FaultIntroduction,
    samples: usize,
    seed: u64,
    threads: usize,
}

impl MonteCarloExperiment {
    /// Creates an experiment with defaults: 100 000 samples, seed 0, one
    /// thread per available CPU (capped at 8).
    pub fn new(model: FaultModel, introduction: FaultIntroduction) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        MonteCarloExperiment {
            model,
            introduction,
            samples: 100_000,
            seed: 0,
            threads,
        }
    }

    /// Sets the number of sampled pairs.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the RNG seed. Results are bit-reproducible per seed and
    /// **independent of the thread count**: the sweep-cell layout depends
    /// only on the sample count, and each cell's stream only on
    /// `(seed, cell index)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads (an execution hint only — the
    /// results do not depend on it).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the experiment on the deterministic sweep engine.
    ///
    /// # Errors
    ///
    /// [`DevSimError::TooFewSamples`] for fewer than 2 samples; factory
    /// validation errors otherwise.
    pub fn run(&self) -> Result<ExperimentResult, DevSimError> {
        let factory = self.factory()?;
        let grid = self.grid_spec().grid(self.seed);
        let acc = run_sweep(grid.cells(), self.threads, |cell| {
            run_cell(&factory, cell.config, cell.seed)
        })
        .expect("at least one cell for samples >= 2");
        self.finish(acc)
    }

    /// The version factory this experiment samples from — built the
    /// same way [`Self::run`] builds it, so external executors (the
    /// distributed sweep runtime) evaluate cells with identical bits.
    ///
    /// # Errors
    ///
    /// [`DevSimError::TooFewSamples`] for fewer than 2 samples; factory
    /// validation errors otherwise.
    pub fn factory(&self) -> Result<VersionFactory, DevSimError> {
        if self.samples < 2 {
            return Err(DevSimError::TooFewSamples {
                got: self.samples,
                need: 2,
            });
        }
        VersionFactory::new(self.model.clone(), self.introduction)
    }

    /// Converts the fully-folded cell accumulator into the experiment
    /// result. `acc` must be the canonical-order fold of every grid
    /// cell's [`run_cell`] output (in-process or shipped over the wire
    /// — the bits are the same either way).
    ///
    /// # Errors
    ///
    /// Statistics errors for an accumulator that does not cover the
    /// experiment's sample count.
    pub fn finish(&self, acc: McAccumulator) -> Result<ExperimentResult, DevSimError> {
        let n = self.samples as u64;
        let risk_single_ci = wilson_ci(acc.single_with_faults, n, 0.95)?;
        let risk_pair_ci = wilson_ci(acc.pair_with_common, n, 0.95)?;
        let risk_ratio = if acc.single_with_faults > 0 {
            Some(acc.pair_with_common as f64 / acc.single_with_faults as f64)
        } else {
            None
        };
        Ok(ExperimentResult {
            samples: self.samples,
            single: LevelStats {
                mean_pfd: acc.single_pfd.mean().map_err(DevSimError::from)?,
                std_pfd: acc.single_pfd.sample_std_dev().map_err(DevSimError::from)?,
                fault_free_rate: 1.0 - acc.single_with_faults as f64 / n as f64,
                mean_fault_count: acc.single_faults as f64 / n as f64,
            },
            pair: LevelStats {
                mean_pfd: acc.pair_pfd.mean().map_err(DevSimError::from)?,
                std_pfd: acc.pair_pfd.sample_std_dev().map_err(DevSimError::from)?,
                fault_free_rate: 1.0 - acc.pair_with_common as f64 / n as f64,
                mean_fault_count: acc.pair_faults as f64 / n as f64,
            },
            risk_ratio,
            risk_single_ci,
            risk_pair_ci,
        })
    }

    /// The declarative grid layout of this experiment: the sample budget
    /// in cells of `MC_CELL_SAMPLES` (2048). A function of `samples`
    /// alone — never of the thread count — which is what makes the
    /// reduced result thread-invariant.
    pub fn grid_spec(&self) -> GridSpec {
        GridSpec::new(self.samples, MC_CELL_SAMPLES)
    }

    /// Draws the raw PFD samples `(single-version PFDs, pair PFDs)`
    /// instead of summary statistics — for ECDFs, histograms and
    /// goodness-of-fit tests against the exact distribution.
    ///
    /// Single-threaded and seed-deterministic.
    ///
    /// # Errors
    ///
    /// Factory validation errors.
    pub fn sample_pfds(&self) -> Result<(Vec<f64>, Vec<f64>), DevSimError> {
        let factory = VersionFactory::new(self.model.clone(), self.introduction)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut singles = Vec::with_capacity(self.samples);
        let mut pairs = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let p = factory.sample_pair(&mut rng);
            singles.push(p.a.pfd);
            pairs.push(p.pfd);
        }
        Ok((singles, pairs))
    }
}

/// Samples per sweep cell of the Monte-Carlo driver. Small enough to
/// keep plenty of cells for work stealing at 10k-sample grids, large
/// enough that per-cell overhead (RNG seeding, accumulator merge) is
/// noise.
const MC_CELL_SAMPLES: usize = 2048;

/// The mergeable per-cell accumulator of the Monte-Carlo driver:
/// Welford partials of the PFD samples plus the fault counters. Public
/// so distributed executors can evaluate grid cells remotely
/// ([`run_cell`]) and ship the partials home ([`WireForm`]) for the
/// canonical-order fold that [`MonteCarloExperiment::finish`] consumes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct McAccumulator {
    single_pfd: Moments,
    pair_pfd: Moments,
    single_with_faults: u64,
    pair_with_common: u64,
    single_faults: u64,
    pair_faults: u64,
}

impl SweepReduce for McAccumulator {
    fn absorb(&mut self, other: Self) {
        self.single_pfd.merge(&other.single_pfd);
        self.pair_pfd.merge(&other.pair_pfd);
        self.single_with_faults += other.single_with_faults;
        self.pair_with_common += other.pair_with_common;
        self.single_faults += other.single_faults;
        self.pair_faults += other.pair_faults;
    }
}

impl WireForm for McAccumulator {
    fn to_wire(&self) -> Wire {
        Wire::record([
            ("single_pfd", self.single_pfd.to_wire()),
            ("pair_pfd", self.pair_pfd.to_wire()),
            ("single_with_faults", Wire::U64(self.single_with_faults)),
            ("pair_with_common", Wire::U64(self.pair_with_common)),
            ("single_faults", Wire::U64(self.single_faults)),
            ("pair_faults", Wire::U64(self.pair_faults)),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(McAccumulator {
            single_pfd: Moments::from_wire(wire.field("single_pfd")?)?,
            pair_pfd: Moments::from_wire(wire.field("pair_pfd")?)?,
            single_with_faults: wire.field("single_with_faults")?.as_u64()?,
            pair_with_common: wire.field("pair_with_common")?.as_u64()?,
            single_faults: wire.field("single_faults")?.as_u64()?,
            pair_faults: wire.field("pair_faults")?.as_u64()?,
        })
    }
}

/// Evaluates one Monte-Carlo grid cell: `count` sampled pairs from the
/// split stream `seed`. A pure function of its arguments, so any worker
/// anywhere reproduces the exact cell bits.
pub fn run_cell(factory: &VersionFactory, count: usize, seed: u64) -> McAccumulator {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = McAccumulator::default();
    // One reusable pair buffer per shard: the sampling loop allocates
    // nothing per iteration.
    let mut pair = crate::factory::SampledPair::empty(factory.model().len());
    for _ in 0..count {
        factory.sample_pair_into(&mut rng, &mut pair);
        acc.single_pfd.push(pair.a.pfd);
        acc.pair_pfd.push(pair.pfd);
        let fc = pair.a.fault_count() as u64;
        acc.single_faults += fc;
        if fc > 0 {
            acc.single_with_faults += 1;
        }
        acc.pair_faults += pair.common_faults as u64;
        if pair.common_faults > 0 {
            acc.pair_with_common += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FaultModel {
        FaultModel::from_params(&[0.4, 0.2, 0.1, 0.05], &[0.01, 0.02, 0.03, 0.04]).unwrap()
    }

    #[test]
    fn wilson_ci_basics() {
        let ci = wilson_ci(50, 100, 0.95).unwrap();
        assert!((ci.estimate - 0.5).abs() < 1e-15);
        assert!(ci.lo < 0.5 && ci.hi > 0.5);
        assert!(ci.lo > 0.39 && ci.hi < 0.61);
        // Extremes stay within [0, 1].
        let ci = wilson_ci(0, 10, 0.95).unwrap();
        assert_eq!(ci.estimate, 0.0);
        assert!(ci.lo.abs() < 1e-12);
        assert!(ci.hi > 0.0);
        let ci = wilson_ci(10, 10, 0.95).unwrap();
        assert_eq!(ci.hi, 1.0);
        assert!(ci.lo < 1.0);
    }

    #[test]
    fn wilson_ci_validation() {
        assert!(wilson_ci(1, 0, 0.95).is_err());
        assert!(wilson_ci(11, 10, 0.95).is_err());
        assert!(wilson_ci(5, 10, 1.0).is_err());
    }

    #[test]
    fn experiment_matches_analytic_model() {
        let m = model();
        let res = MonteCarloExperiment::new(m.clone(), FaultIntroduction::Independent)
            .samples(200_000)
            .seed(42)
            .run()
            .unwrap();
        let tol_mean1 = 6.0 * m.std_pfd_single() / (200_000f64).sqrt();
        assert!((res.single.mean_pfd - m.mean_pfd_single()).abs() < tol_mean1);
        let tol_mean2 = 6.0 * m.std_pfd_pair() / (200_000f64).sqrt();
        assert!((res.pair.mean_pfd - m.mean_pfd_pair()).abs() < tol_mean2);
        // Std devs within 5%.
        assert!((res.single.std_pfd / m.std_pfd_single() - 1.0).abs() < 0.05);
        assert!((res.pair.std_pfd / m.std_pfd_pair() - 1.0).abs() < 0.05);
        // Fault-free rates bracket the analytic values.
        assert!((res.single.fault_free_rate - m.prob_fault_free_single()).abs() < 0.01);
        assert!((res.pair.fault_free_rate - m.prob_fault_free_pair()).abs() < 0.01);
        // Risk ratio near eq (10).
        let rr = res.risk_ratio.unwrap();
        assert!((rr - m.risk_ratio().unwrap()).abs() < 0.02);
        // The analytic risks lie inside the 95% CIs (should essentially
        // always hold at this sample size with these tolerances).
        assert!(res.risk_single_ci.lo <= m.risk_any_fault_single());
        assert!(res.risk_single_ci.hi >= m.risk_any_fault_single());
    }

    #[test]
    fn deterministic_per_seed_and_thread_invariant() {
        // The sweep-cell layout depends only on the sample count and each
        // cell's stream only on (seed, index), so changing the thread
        // count changes NOTHING about the result — bitwise.
        let m = model();
        let r1 = MonteCarloExperiment::new(m.clone(), FaultIntroduction::Independent)
            .samples(10_000)
            .seed(7)
            .threads(1)
            .run()
            .unwrap();
        for threads in [2, 4, 7] {
            let rt = MonteCarloExperiment::new(m.clone(), FaultIntroduction::Independent)
                .samples(10_000)
                .seed(7)
                .threads(threads)
                .run()
                .unwrap();
            assert_eq!(r1, rt, "threads = {threads}");
            assert_eq!(
                r1.single.mean_pfd.to_bits(),
                rt.single.mean_pfd.to_bits(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn cell_level_api_reassembles_run_bit_identically() {
        // Evaluate every grid cell by hand (as a distributed worker
        // would), ship each accumulator through the wire form, fold in
        // canonical order, finish — and land on the exact bits of run().
        let exp = MonteCarloExperiment::new(model(), FaultIntroduction::Independent)
            .samples(9_000)
            .seed(23)
            .threads(2);
        let direct = exp.run().unwrap();
        let factory = exp.factory().unwrap();
        let grid = exp.grid_spec().grid(23);
        let mut acc: Option<McAccumulator> = None;
        for cell in grid.cells() {
            let local = run_cell(&factory, cell.config, cell.seed);
            let text = serde_json::to_string(&local.to_wire()).unwrap();
            let shipped = McAccumulator::from_wire(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(shipped, local);
            match acc.as_mut() {
                Some(a) => a.absorb(shipped),
                None => acc = Some(shipped),
            }
        }
        let reassembled = exp.finish(acc.unwrap()).unwrap();
        assert_eq!(reassembled, direct);
        assert_eq!(
            reassembled.single.mean_pfd.to_bits(),
            direct.single.mean_pfd.to_bits()
        );
        assert_eq!(
            reassembled.pair.std_pfd.to_bits(),
            direct.pair.std_pfd.to_bits()
        );
    }

    #[test]
    fn too_few_samples_rejected() {
        let e = MonteCarloExperiment::new(model(), FaultIntroduction::Independent)
            .samples(1)
            .run()
            .unwrap_err();
        assert!(matches!(e, DevSimError::TooFewSamples { .. }));
    }

    #[test]
    fn correlated_introduction_shifts_distribution_not_means() {
        // §6.1 concerns correlation between mistakes *within one version*.
        // Because the two versions of a pair are still developed
        // independently, P(fault i common) = pᵢ² is untouched, so BOTH
        // mean PFDs are invariant — only the distribution shape (variance,
        // fault-free probability) moves. This is exactly why the paper can
        // argue §6.1 violations "do not much reduce the usefulness" of its
        // mean-level results.
        let m = FaultModel::uniform(6, 0.2, 0.01).unwrap();
        let indep = MonteCarloExperiment::new(m.clone(), FaultIntroduction::Independent)
            .samples(60_000)
            .seed(1)
            .run()
            .unwrap();
        let corr =
            MonteCarloExperiment::new(m.clone(), FaultIntroduction::CommonCause { lambda: 0.8 })
                .samples(60_000)
                .seed(1)
                .run()
                .unwrap();
        // Means preserved (within MC error) at both levels.
        assert!((corr.single.mean_pfd - indep.single.mean_pfd).abs() < 8e-4);
        assert!((corr.pair.mean_pfd - indep.pair.mean_pfd).abs() < 3e-4);
        // Single-version PFD variance rises sharply (faults cluster).
        assert!(
            corr.single.std_pfd > 1.8 * indep.single.std_pfd,
            "correlated std {} vs independent {}",
            corr.single.std_pfd,
            indep.single.std_pfd
        );
        // Comonotone clustering concentrates faults in fewer versions, so
        // a randomly chosen version is MORE often fault-free...
        assert!(corr.single.fault_free_rate > indep.single.fault_free_rate + 0.1);
        // ...and so is the pair.
        assert!(corr.pair.fault_free_rate > indep.pair.fault_free_rate);
    }

    #[test]
    fn zero_risk_model_yields_no_ratio() {
        let m = FaultModel::uniform(3, 0.0, 0.1).unwrap();
        let res = MonteCarloExperiment::new(m, FaultIntroduction::Independent)
            .samples(100)
            .seed(5)
            .run()
            .unwrap();
        assert_eq!(res.risk_ratio, None);
        assert_eq!(res.single.fault_free_rate, 1.0);
    }

    #[test]
    fn sampled_pfds_pass_chi_squared_against_exact_distribution() {
        // The sampled PFDs must be statistically indistinguishable from
        // the exact model distribution — the strongest consistency check
        // between the analytic and sampling layers (tests the whole
        // distribution, not just moments). The reference is atomic, so the
        // right test is chi-squared over atoms, not KS.
        let m = model();
        let exact = divrel_numerics::WeightedBernoulliSum::enumerate(&m.terms(1)).unwrap();
        let (singles, pairs) = MonteCarloExperiment::new(m.clone(), FaultIntroduction::Independent)
            .samples(5_000)
            .seed(13)
            .sample_pfds()
            .unwrap();
        assert_eq!(singles.len(), 5_000);
        let t = divrel_numerics::ks::chi_squared_gof(&singles, &exact).unwrap();
        assert!(
            t.p_value > 0.01,
            "single-version sample rejected: chi2 = {}, p = {}",
            t.statistic,
            t.p_value
        );
        let exact2 = divrel_numerics::WeightedBernoulliSum::enumerate(&m.terms(2)).unwrap();
        let t2 = divrel_numerics::ks::chi_squared_gof(&pairs, &exact2).unwrap();
        assert!(
            t2.p_value > 0.01,
            "pair sample rejected: p = {}",
            t2.p_value
        );
    }

    #[test]
    fn cell_sizes_cover_samples_and_ignore_threads() {
        for samples in [3usize, 10, 2048, 2049, 10_000, 100_000] {
            let exp = MonteCarloExperiment::new(model(), FaultIntroduction::Independent)
                .samples(samples)
                .threads(4);
            let cells = exp.grid_spec().cell_sizes();
            assert_eq!(cells.iter().sum::<usize>(), samples);
            assert!(cells.iter().all(|&c| c > 0 && c <= MC_CELL_SAMPLES));
            // The layout is a pure function of the sample count.
            let exp16 = MonteCarloExperiment::new(model(), FaultIntroduction::Independent)
                .samples(samples)
                .threads(16);
            assert_eq!(cells, exp16.grid_spec().cell_sizes());
        }
    }
}
