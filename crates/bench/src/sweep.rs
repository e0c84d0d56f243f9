//! Experiment sweeps on the deterministic sharding engine.
//!
//! The paper's artifacts are demonstrated through grids of Monte-Carlo
//! cells; this module expresses those grids on
//! [`divrel_devsim::sweep`] so that every experiment statistic is
//! **bit-identical across thread counts** and the regression suite can
//! pin them. Each sweep here is shared by three consumers: the
//! experiment module that reports it, the `bench` binary that measures
//! its thread scaling (the `sweep/*` rows), and
//! `tests/sweep_determinism.rs`, which checks its bits at 1, 2 and 7
//! threads.

use divrel_devsim::kl::KnightLevesonExperiment;
use divrel_devsim::process::FaultIntroduction;
use divrel_devsim::sweep::SweepCell;
use divrel_devsim::sweep::{try_run_sweep, GridSpec, SweepGrid};
use divrel_devsim::{DevSimError, VersionFactory};
use divrel_model::forced::ForcedDiversityModel;
use divrel_model::{FaultModel, ModelError};
use divrel_numerics::sweep::SweepReduce;
use divrel_numerics::wire::{Wire, WireError, WireForm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Reduced statistics of a Knight–Leveson replication sweep (E16): one
/// synthetic 27-version experiment per cell.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct KlSweepStats {
    /// Replications executed.
    pub replications: u64,
    /// Replications in which diversity reduced both mean and σ.
    pub reduced_both: u64,
    /// Replications whose version PFDs rejected a normal fit at 5%.
    pub normal_rejected: u64,
    /// Replications with a non-degenerate normality test.
    pub normal_tested: u64,
    /// Mean-reduction factors, in canonical cell order.
    pub mean_factors: Vec<f64>,
    /// σ-reduction factors, in canonical cell order.
    pub std_factors: Vec<f64>,
}

impl SweepReduce for KlSweepStats {
    fn absorb(&mut self, mut other: Self) {
        self.replications += other.replications;
        self.reduced_both += other.reduced_both;
        self.normal_rejected += other.normal_rejected;
        self.normal_tested += other.normal_tested;
        self.mean_factors.append(&mut other.mean_factors);
        self.std_factors.append(&mut other.std_factors);
    }
}

/// Counters plus canonical-order factor vectors cross the wire raw, so
/// a distributed E16 grid reduces to the in-process bits.
impl WireForm for KlSweepStats {
    fn to_wire(&self) -> Wire {
        Wire::record([
            ("replications", Wire::U64(self.replications)),
            ("reduced_both", Wire::U64(self.reduced_both)),
            ("normal_rejected", Wire::U64(self.normal_rejected)),
            ("normal_tested", Wire::U64(self.normal_tested)),
            ("mean_factors", self.mean_factors.to_wire()),
            ("std_factors", self.std_factors.to_wire()),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(KlSweepStats {
            replications: wire.field("replications")?.as_u64()?,
            reduced_both: wire.field("reduced_both")?.as_u64()?,
            normal_rejected: wire.field("normal_rejected")?.as_u64()?,
            normal_tested: wire.field("normal_tested")?.as_u64()?,
            mean_factors: Vec::from_wire(wire.field("mean_factors")?)?,
            std_factors: Vec::from_wire(wire.field("std_factors")?)?,
        })
    }
}

impl KlSweepStats {
    /// Median of a factor list (NaN when empty).
    fn median(mut v: Vec<f64>) -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }

    /// Median mean-reduction factor.
    pub fn median_mean_factor(&self) -> f64 {
        Self::median(self.mean_factors.clone())
    }

    /// Median σ-reduction factor.
    pub fn median_std_factor(&self) -> f64 {
        Self::median(self.std_factors.clone())
    }
}

/// Runs the E16 replication grid: `replications` cells, each one
/// synthetic Knight–Leveson experiment seeded from its split stream.
///
/// # Errors
///
/// Propagates model/simulation errors from the first failing cell in
/// canonical order.
pub fn kl_sweep(
    model: &FaultModel,
    replications: usize,
    sweep_seed: u64,
    threads: usize,
) -> Result<KlSweepStats, DevSimError> {
    // One shared model for the whole grid: each worker closure takes an
    // `Arc` bump per cell instead of deep-copying the fault vector twice
    // (once for the experiment, once inside its factory) — the ROADMAP
    // allocation hot spot at 100k-cell scales.
    let model = Arc::new(model.clone());
    let grid = kl_grid(replications, sweep_seed);
    let stats = try_run_sweep(grid.cells(), threads, |cell| kl_cell(&model, cell))?;
    Ok(stats.unwrap_or_default())
}

/// The E16 grid layout: one `()`-configured cell per replication, each
/// stream split from `sweep_seed`. A pure function of its arguments, so
/// remote workers rebuild the exact grid a local sweep runs.
pub fn kl_grid(replications: usize, sweep_seed: u64) -> SweepGrid<()> {
    SweepGrid::new(sweep_seed, vec![(); replications])
}

/// Evaluates one E16 grid cell — one synthetic Knight–Leveson
/// experiment seeded from the cell's split stream. The per-cell worker
/// [`kl_sweep`] folds; the E16 cell job ([`crate::job`]) calls it
/// directly.
///
/// # Errors
///
/// Model/simulation errors from the replication.
pub fn kl_cell(model: &Arc<FaultModel>, cell: &SweepCell<()>) -> Result<KlSweepStats, DevSimError> {
    let r = KnightLevesonExperiment::shared(Arc::clone(model))
        .seed(cell.seed)
        .run()?;
    let mut s = KlSweepStats {
        replications: 1,
        ..KlSweepStats::default()
    };
    if r.diversity_reduced_mean_and_std() {
        s.reduced_both = 1;
    }
    if let Some(f) = r.mean_reduction() {
        s.mean_factors.push(f);
    }
    if let Some(f) = r.std_reduction() {
        s.std_factors.push(f);
    }
    if let Some(ks) = r.normality {
        s.normal_tested = 1;
        if ks.p_value < 0.05 {
            s.normal_rejected = 1;
        }
    }
    Ok(s)
}

/// Reduced statistics of the E17 forced-diversity sweep over random
/// process pairs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ForcedSweepStats {
    /// Random process pairs evaluated.
    pub trials: u64,
    /// Pairs in which the forced pair was *worse* than the averaged
    /// unforced pair (AM–GM forbids any).
    pub worse_than_unforced: u64,
    /// Sum of forced/unforced mean-PFD ratios (canonical-order f64 fold,
    /// so bit-stable across thread counts).
    pub advantage_sum: f64,
}

impl SweepReduce for ForcedSweepStats {
    fn absorb(&mut self, other: Self) {
        self.trials += other.trials;
        self.worse_than_unforced += other.worse_than_unforced;
        self.advantage_sum += other.advantage_sum;
    }
}

impl ForcedSweepStats {
    /// Mean forced/unforced PFD ratio across trials.
    pub fn mean_ratio(&self) -> f64 {
        self.advantage_sum / self.trials as f64
    }
}

/// The ratio sum travels as its exact bit pattern, so the distributed
/// fold reproduces the in-process canonical-order f64 fold bitwise.
impl WireForm for ForcedSweepStats {
    fn to_wire(&self) -> Wire {
        Wire::record([
            ("trials", Wire::U64(self.trials)),
            ("worse_than_unforced", Wire::U64(self.worse_than_unforced)),
            ("advantage_sum", Wire::F64(self.advantage_sum)),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(ForcedSweepStats {
            trials: wire.field("trials")?.as_u64()?,
            worse_than_unforced: wire.field("worse_than_unforced")?.as_u64()?,
            advantage_sum: wire.field("advantage_sum")?.as_f64()?,
        })
    }
}

/// Trials per cell of [`forced_sweep`].
pub const FORCED_TRIALS_PER_CELL: usize = 250;

/// Runs the E17 grid: random forced-diversity process pairs in cells of
/// [`FORCED_TRIALS_PER_CELL`], each cell drawing from its split stream.
///
/// # Errors
///
/// Propagates model-construction errors from the first failing cell in
/// canonical order.
pub fn forced_sweep(
    trials: usize,
    sweep_seed: u64,
    threads: usize,
) -> Result<ForcedSweepStats, ModelError> {
    let grid = forced_grid(trials, sweep_seed);
    let stats = try_run_sweep(grid.cells(), threads, forced_cell)?;
    Ok(stats.unwrap_or_default())
}

/// The E17 grid layout: `trials` split into cells of
/// [`FORCED_TRIALS_PER_CELL`]. A pure function of its arguments.
pub fn forced_grid(trials: usize, sweep_seed: u64) -> SweepGrid<usize> {
    GridSpec::new(trials, FORCED_TRIALS_PER_CELL).grid(sweep_seed)
}

/// Evaluates one E17 grid cell — `cell.config` random process pairs
/// drawn from the cell's split stream.
///
/// # Errors
///
/// Model-construction errors.
pub fn forced_cell(cell: &SweepCell<usize>) -> Result<ForcedSweepStats, ModelError> {
    let mut rng = StdRng::seed_from_u64(cell.seed);
    let mut s = ForcedSweepStats::default();
    for _ in 0..cell.config {
        let n = rng.gen_range(1..=12);
        let pa: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let pb: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let qs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 0.5 / n as f64).collect();
        let forced = ForcedDiversityModel::from_params(&pa, &pb, &qs)?;
        let unforced = forced.averaged_process()?;
        s.trials += 1;
        if forced.mean_pfd_pair() > unforced.mean_pfd_pair() + 1e-12 {
            s.worse_than_unforced += 1;
        }
        if unforced.mean_pfd_pair() > 0.0 {
            s.advantage_sum += forced.mean_pfd_pair() / unforced.mean_pfd_pair();
        }
    }
    Ok(s)
}

/// Raw PFD samples from a sharded development-process grid: the sample
/// vectors are assembled in canonical cell order, so they are
/// bit-identical across thread counts and usable as regression artifacts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PfdSampleSweep {
    /// Single-version PFDs.
    pub singles: Vec<f64>,
    /// 1-out-of-2 pair PFDs.
    pub pairs: Vec<f64>,
}

impl SweepReduce for PfdSampleSweep {
    fn absorb(&mut self, mut other: Self) {
        self.singles.append(&mut other.singles);
        self.pairs.append(&mut other.pairs);
    }
}

/// Samples per cell of [`pfd_sample_sweep`].
pub const PFD_SAMPLES_PER_CELL: usize = 512;

/// Draws `samples` development-process PFD observations over a sharded
/// grid (the Monte-Carlo pair experiment as a sweep): cells of
/// [`PFD_SAMPLES_PER_CELL`] pairs, each sampled from its split stream.
///
/// # Errors
///
/// Factory validation errors.
pub fn pfd_sample_sweep(
    model: &FaultModel,
    introduction: FaultIntroduction,
    samples: usize,
    sweep_seed: u64,
    threads: usize,
) -> Result<PfdSampleSweep, DevSimError> {
    let factory = VersionFactory::new(model.clone(), introduction)?;
    let grid = GridSpec::new(samples, PFD_SAMPLES_PER_CELL).grid(sweep_seed);
    let samples = try_run_sweep(grid.cells(), threads, |cell| {
        let mut rng = StdRng::seed_from_u64(cell.seed);
        let mut out = PfdSampleSweep {
            singles: Vec::with_capacity(cell.config),
            pairs: Vec::with_capacity(cell.config),
        };
        let mut buf = divrel_devsim::factory::SampledPair::empty(factory.model().len());
        for _ in 0..cell.config {
            factory.sample_pair_into(&mut rng, &mut buf);
            out.singles.push(buf.a.pfd);
            out.pairs.push(buf.pfd);
        }
        Ok::<_, DevSimError>(out)
    })?;
    Ok(samples.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workloads;

    #[test]
    fn kl_sweep_is_bit_identical_across_thread_counts() {
        let model = workloads::safety_model();
        let base = kl_sweep(&model, 24, 2001, 1).unwrap();
        assert_eq!(base.replications, 24);
        for threads in [2, 7] {
            let r = kl_sweep(&model, 24, 2001, threads).unwrap();
            assert_eq!(base, r, "threads = {threads}");
        }
        // A different sweep seed is a genuinely different experiment.
        assert_ne!(base, kl_sweep(&model, 24, 2002, 1).unwrap());
    }

    #[test]
    fn forced_sweep_confirms_am_gm_and_is_thread_invariant() {
        let base = forced_sweep(600, 7, 1).unwrap();
        assert_eq!(base.trials, 600);
        assert_eq!(base.worse_than_unforced, 0);
        assert!(base.mean_ratio() > 0.0 && base.mean_ratio() <= 1.0 + 1e-12);
        let sharded = forced_sweep(600, 7, 3).unwrap();
        assert_eq!(base, sharded);
        assert_eq!(
            base.advantage_sum.to_bits(),
            sharded.advantage_sum.to_bits()
        );
    }

    #[test]
    fn pfd_sample_sweep_matches_model_statistics() {
        let model = workloads::safety_model();
        let s = pfd_sample_sweep(&model, FaultIntroduction::Independent, 4_000, 11, 2).unwrap();
        assert_eq!(s.singles.len(), 4_000);
        assert_eq!(s.pairs.len(), 4_000);
        let mean1: f64 = s.singles.iter().sum::<f64>() / 4_000.0;
        let tol = 6.0 * model.std_pfd_single() / (4_000f64).sqrt();
        assert!((mean1 - model.mean_pfd_single()).abs() < tol);
        // Thread invariance of the assembled sample vectors.
        let again = pfd_sample_sweep(&model, FaultIntroduction::Independent, 4_000, 11, 7).unwrap();
        assert_eq!(s, again);
    }
}
