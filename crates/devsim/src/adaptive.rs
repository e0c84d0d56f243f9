//! The cell-level runtime of **posterior-driven adaptive sweeps**.
//!
//! A fixed-budget sweep spends its samples uniformly across the grid;
//! the paper's closing argument (§6–7) is that the fault-creation model
//! should *drive* assessment — spend demands where the posterior is
//! still wide, not where the grid happens to be. This module holds the
//! deterministic ground layer of that loop:
//!
//! * [`AdaptivePfdRuntime`] — a grid of cells, each holding **one
//!   version sampled from the fault model** (its own SplitMix64 stream,
//!   independent of every demand stream), exposed to rounds of demand
//!   trials that each fail with the version's exact PFD. A round's
//!   failure count is drawn as the geometric gaps between failures, so
//!   it costs one draw per failure, not one per demand;
//! * [`CellEvidence`] — one version's `(failures, demands)`, merged
//!   across rounds, and [`EvidenceBatch`] — the evidence of a run of
//!   consecutive versions in one round, the accumulator that crosses
//!   threads, journals and worker fleets in wire form;
//! * [`uniform_allocation`] / [`refine_allocation`] — the budget
//!   allocators: round 0 spreads the initial budget evenly, every later
//!   round leases its budget to the cells with the widest posterior
//!   bounds (largest-remainder apportionment, so the allocation is an
//!   exact integer partition of the budget and a pure function of the
//!   widths).
//!
//! Determinism is by construction: cell `c`'s version stream is
//! `split_seed(split_seed(seed, VERSION_STREAM), c)` and its round-`r`
//! demand stream is `split_seed(split_seed(seed, round_stream(r)), c)`,
//! so any thread count, worker fleet or crash/resume history reproduces
//! the same evidence bit for bit. The posterior side of the loop (exact
//! Bayes updates, stopping rule) lives upstream in `divrel-bayes` and
//! the scenario driver — this layer never sees a probability it didn't
//! simulate.

use crate::error::DevSimError;
use crate::factory::VersionFactory;
use crate::process::FaultIntroduction;
use divrel_model::FaultModel;
use divrel_numerics::sampling::geometric_gap;
use divrel_numerics::sweep::{split_seed, SweepReduce};
use divrel_numerics::wire::{Wire, WireError, WireForm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Stream salt of the per-cell **version sampling** streams. Distinct
/// from every [`round_stream`] salt, so re-sampling a cell's version is
/// independent of any round's demand draws.
pub const VERSION_STREAM: u64 = 0;

/// Stream salt of round `round`'s demand streams: rounds are explicit
/// in the seed layout, which is what keeps an adaptive run reproducible
/// when the number of rounds is itself data-dependent.
#[must_use]
pub fn round_stream(round: u32) -> u64 {
    1 + u64::from(round)
}

/// One version's operational evidence: `failures` failures observed in
/// `demands` demands. Merged across rounds by [`SweepReduce::absorb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellEvidence {
    /// Failures observed.
    pub failures: u64,
    /// Demands exercised.
    pub demands: u64,
}

impl SweepReduce for CellEvidence {
    fn absorb(&mut self, other: Self) {
        self.failures += other.failures;
        self.demands += other.demands;
    }
}

/// The evidence of consecutive versions in one round, as two lists of
/// equal length: the accumulator of a batched round cell, shipped as
/// `{failures: [..], demands: [..]}` — one list per field, not one
/// record per version.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvidenceBatch {
    /// Failures observed, one entry per version.
    pub failures: Vec<u64>,
    /// Demands exercised, one entry per version.
    pub demands: Vec<u64>,
}

impl EvidenceBatch {
    /// An empty batch with room for `versions` entries.
    #[must_use]
    pub fn with_capacity(versions: usize) -> Self {
        EvidenceBatch {
            failures: Vec::with_capacity(versions),
            demands: Vec::with_capacity(versions),
        }
    }

    /// Appends the next version's evidence.
    pub fn push(&mut self, ev: CellEvidence) {
        self.failures.push(ev.failures);
        self.demands.push(ev.demands);
    }

    /// The per-version evidence in version order (as many entries as
    /// the shorter list holds).
    pub fn evidence(&self) -> impl Iterator<Item = CellEvidence> + '_ {
        self.failures
            .iter()
            .zip(&self.demands)
            .map(|(&failures, &demands)| CellEvidence { failures, demands })
    }
}

impl WireForm for EvidenceBatch {
    fn to_wire(&self) -> Wire {
        Wire::record([
            ("failures", self.failures.to_wire()),
            ("demands", self.demands.to_wire()),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(EvidenceBatch {
            failures: Vec::from_wire(wire.field("failures")?)?,
            demands: Vec::from_wire(wire.field("demands")?)?,
        })
    }
}

/// A compiled adaptive-PFD grid: `cells` versions sampled once from the
/// fault model (seed layout above), each exposed to per-round demand
/// trials at its exact PFD. [`Self::run_cell`] is a pure
/// function of `(spec, cell, demands, round)` — the property the
/// in-process sweep, the distributed runtime and the journal all lean
/// on.
#[derive(Debug, Clone)]
pub struct AdaptivePfdRuntime {
    sweep_seed: u64,
    true_pfds: Vec<f64>,
    fault_counts: Vec<usize>,
}

impl AdaptivePfdRuntime {
    /// Samples the grid's versions from `model` (one per cell, each
    /// from its own split stream) and records their exact PFDs.
    ///
    /// # Errors
    ///
    /// Factory construction errors.
    pub fn new(model: Arc<FaultModel>, sweep_seed: u64, cells: usize) -> Result<Self, DevSimError> {
        let factory = VersionFactory::shared(model, FaultIntroduction::Independent)?;
        let version_base = split_seed(sweep_seed, VERSION_STREAM);
        let mut true_pfds = Vec::with_capacity(cells);
        let mut fault_counts = Vec::with_capacity(cells);
        for c in 0..cells {
            let mut rng = StdRng::seed_from_u64(split_seed(version_base, c as u64));
            let version = factory.sample_version(&mut rng);
            true_pfds.push(version.pfd);
            fault_counts.push(version.fault_count());
        }
        Ok(AdaptivePfdRuntime {
            sweep_seed,
            true_pfds,
            fault_counts,
        })
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.true_pfds.len()
    }

    /// The exact PFD of cell `cell`'s sampled version.
    pub fn true_pfd(&self, cell: usize) -> f64 {
        self.true_pfds[cell]
    }

    /// How many faults cell `cell`'s sampled version carries.
    pub fn fault_count(&self, cell: usize) -> usize {
        self.fault_counts[cell]
    }

    /// Runs `demands` demand trials against cell `cell`'s version in
    /// round `round`, on the cell's round-specific split stream. Each
    /// trial fails with the version's exact PFD `p`, so the failure
    /// count is Binomial(`demands`, `p`). It is drawn as the geometric
    /// gaps between failures ([`geometric_gap`] with `1 / ln_1p(−p)`):
    /// each draw places one failure or runs past the last demand, about
    /// `p · demands + 1` draws in all. `demands = 0`, `p = 0` and
    /// `p ≥ 1` consume no randomness — unrefined cells cost nothing.
    pub fn run_cell(&self, cell: usize, demands: u64, round: u32) -> CellEvidence {
        let pfd = self.true_pfds[cell];
        if demands == 0 || pfd <= 0.0 {
            return CellEvidence {
                failures: 0,
                demands,
            };
        }
        if pfd >= 1.0 {
            return CellEvidence {
                failures: demands,
                demands,
            };
        }
        let seed = split_seed(
            split_seed(self.sweep_seed, round_stream(round)),
            cell as u64,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let inv_log_survive = (-pfd).ln_1p().recip();
        let mut failures = 0u64;
        let mut left = demands;
        while left > 0 {
            let gap = geometric_gap(inv_log_survive, left, &mut rng);
            if gap >= left {
                break;
            }
            failures += 1;
            left -= gap + 1;
        }
        CellEvidence { failures, demands }
    }
}

/// Splits `budget` demands evenly over `cells` cells: every cell gets
/// `⌊budget/cells⌋`, the first `budget mod cells` cells one more. The
/// round-0 allocation (no posterior exists yet), and the per-round
/// allocation of the fixed-budget baseline the adaptive driver is
/// benchmarked against.
#[must_use]
pub fn uniform_allocation(budget: u64, cells: usize) -> Vec<u64> {
    if cells == 0 {
        return Vec::new();
    }
    let base = budget / cells as u64;
    let extra = (budget % cells as u64) as usize;
    (0..cells).map(|c| base + u64::from(c < extra)).collect()
}

/// Apportions `budget` demands to the cells still above the target:
/// cell `c` with posterior width `widths[c] > target_width` receives a
/// share proportional to its width, by the largest-remainder method
/// (floors first, then one extra demand each down the largest
/// fractional remainders, ties to the lower cell index). Cells at or
/// below the target receive nothing; if every cell has converged the
/// allocation is all zeros and the sweep is done.
///
/// The result is an exact integer partition of `budget` (whenever any
/// cell is eligible) and a pure function of `(widths, target_width,
/// budget)` — which is what lets in-process, distributed and resumed
/// runs recompute identical rounds instead of shipping them.
#[must_use]
pub fn refine_allocation(widths: &[f64], target_width: f64, budget: u64) -> Vec<u64> {
    let mut alloc = vec![0u64; widths.len()];
    let total: f64 = widths.iter().filter(|&&w| w > target_width).sum();
    if total.is_nan() || total <= 0.0 || budget == 0 {
        return alloc;
    }
    let mut remainders: Vec<(usize, f64)> = Vec::new();
    let mut assigned = 0u64;
    for (c, &w) in widths.iter().enumerate() {
        if w > target_width {
            let ideal = budget as f64 * (w / total);
            let floor = ideal.floor();
            alloc[c] = floor as u64;
            assigned += alloc[c];
            remainders.push((c, ideal - floor));
        }
    }
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let mut left = budget.saturating_sub(assigned);
    for (c, _) in remainders {
        if left == 0 {
            break;
        }
        alloc[c] += 1;
        left -= 1;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn runtime(cells: usize) -> AdaptivePfdRuntime {
        let model = FaultModel::uniform(3, 0.4, 0.05).expect("valid model");
        AdaptivePfdRuntime::new(Arc::new(model), 97, cells).expect("valid runtime")
    }

    #[test]
    fn cell_evaluation_is_a_pure_function_of_its_arguments() {
        let rt = runtime(12);
        for cell in [0usize, 5, 11] {
            for round in [0u32, 1, 7] {
                let a = rt.run_cell(cell, 500, round);
                let b = rt.run_cell(cell, 500, round);
                assert_eq!(a, b);
                assert_eq!(a.demands, 500);
                assert!(a.failures <= a.demands);
            }
        }
        // Distinct rounds draw distinct demand streams: the raw u64
        // draws of round 0 and round 1 must differ even on a
        // fault-free cell, so replaying a round never doubles its
        // evidence silently.
        let s0 = split_seed(split_seed(97, round_stream(0)), 3);
        let s1 = split_seed(split_seed(97, round_stream(1)), 3);
        assert_ne!(
            StdRng::seed_from_u64(s0).gen::<u64>(),
            StdRng::seed_from_u64(s1).gen::<u64>(),
            "independent rounds must draw from independent streams"
        );
    }

    #[test]
    fn versions_are_stable_across_rounds_and_clones() {
        let a = runtime(20);
        let b = runtime(20);
        for c in 0..20 {
            assert_eq!(a.true_pfd(c).to_bits(), b.true_pfd(c).to_bits());
            assert_eq!(a.fault_count(c), b.fault_count(c));
        }
        // The empirical failure rate tracks the recorded exact PFD.
        let cell = (0..20)
            .find(|&c| a.true_pfd(c) > 0.02)
            .expect("some cell carries faults");
        let ev = a.run_cell(cell, 50_000, 3);
        let rate = ev.failures as f64 / ev.demands as f64;
        assert!(
            (rate - a.true_pfd(cell)).abs() < 0.01,
            "rate {rate} vs pfd {}",
            a.true_pfd(cell)
        );
    }

    #[test]
    fn zero_demand_cells_return_empty_evidence() {
        let rt = runtime(4);
        assert_eq!(rt.run_cell(2, 0, 5), CellEvidence::default());
    }

    #[test]
    fn certain_pfds_need_no_draws_and_keep_the_allocation() {
        // `ps = [1]` pins every cell's PFD to `q`.
        for (q, failures) in [(0.0, 0u64), (1.0, 700)] {
            let model = FaultModel::from_params(&[1.0], &[q]).expect("valid model");
            let rt = AdaptivePfdRuntime::new(Arc::new(model), 5, 3).expect("valid runtime");
            for cell in 0..3 {
                assert_eq!(
                    rt.run_cell(cell, 700, 2),
                    CellEvidence {
                        failures,
                        demands: 700
                    }
                );
            }
        }
    }

    #[test]
    fn evidence_merges_and_round_trips() {
        let mut a = CellEvidence {
            failures: 3,
            demands: 100,
        };
        a.absorb(CellEvidence {
            failures: 1,
            demands: 50,
        });
        assert_eq!(
            a,
            CellEvidence {
                failures: 4,
                demands: 150,
            }
        );
        let mut batch = EvidenceBatch::with_capacity(2);
        batch.push(a);
        batch.push(CellEvidence::default());
        let back = EvidenceBatch::from_wire(&batch.to_wire()).expect("round trip");
        assert_eq!(back, batch);
        assert_eq!(
            back.evidence().collect::<Vec<_>>(),
            vec![a, CellEvidence::default()]
        );
    }

    #[test]
    fn uniform_allocation_partitions_the_budget_exactly() {
        for (budget, cells) in [(100u64, 7usize), (5, 8), (0, 3), (2048, 1)] {
            let alloc = uniform_allocation(budget, cells);
            assert_eq!(alloc.len(), cells);
            assert_eq!(alloc.iter().sum::<u64>(), budget);
            let min = alloc.iter().min().copied().unwrap_or(0);
            let max = alloc.iter().max().copied().unwrap_or(0);
            assert!(max - min <= 1, "uniform split is off by more than 1");
        }
        assert!(uniform_allocation(10, 0).is_empty());
    }

    #[test]
    fn refinement_allocates_proportionally_to_width() {
        let widths = [0.4, 0.0, 0.1, 0.0005, 0.5];
        let alloc = refine_allocation(&widths, 0.001, 1_000);
        assert_eq!(alloc.iter().sum::<u64>(), 1_000);
        // Converged cells get nothing.
        assert_eq!(alloc[1], 0);
        assert_eq!(alloc[3], 0);
        // Wider cells get more.
        assert!(alloc[4] > alloc[2]);
        assert!(alloc[0] > alloc[2]);
        // Proportionality within rounding.
        assert!((alloc[4] as f64 - 500.0).abs() <= 1.0);
        assert!((alloc[0] as f64 - 400.0).abs() <= 1.0);
    }

    #[test]
    fn refinement_stops_allocating_when_everything_converged() {
        let widths = [0.0, 0.0009, 0.001];
        assert_eq!(refine_allocation(&widths, 0.001, 500), vec![0, 0, 0]);
        assert_eq!(refine_allocation(&[], 0.001, 500), Vec::<u64>::new());
        assert_eq!(refine_allocation(&[0.5, 0.2], 0.001, 0), vec![0, 0]);
    }

    #[test]
    fn refinement_remainders_break_ties_deterministically() {
        // Three equal widths, budget 100: 33/33/33 floors + 1 remainder
        // to the lowest index.
        let alloc = refine_allocation(&[0.2, 0.2, 0.2], 0.01, 100);
        assert_eq!(alloc, vec![34, 33, 33]);
    }
}
