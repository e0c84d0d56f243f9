//! The **posterior-driven refinement driver**: rounds of demand trials
//! whose budgets chase the widest posterior credible intervals.
//!
//! A fixed sweep decides its per-cell budget before seeing a single
//! demand. The adaptive driver instead runs a *round loop*: an initial
//! uniform round seeds every cell's posterior (exact discrete Bayes,
//! via [`divrel_bayes::update::observe_batch`] on the fault model's
//! [`PfdPrior::exact_single`]), then each refinement round leases its
//! whole budget to the cells whose credible intervals are still wider
//! than the target, proportionally to their widths
//! ([`divrel_devsim::adaptive::refine_allocation`]). The loop stops when
//! every cell's `confidence`-level credible width is at or below
//! `target_width`, or after `max_rounds` rounds.
//!
//! Two properties make the loop distributable:
//!
//! * each round's allocation is a **pure function of the accumulated
//!   evidence** — coordinators, workers and resumed runs recompute it
//!   instead of shipping it;
//! * each round's evidence is a pure function of `(spec, round)` — the
//!   cell layer draws from round-salted split streams
//!   ([`divrel_devsim::adaptive::round_stream`]), so any thread count,
//!   fleet shape or crash/resume history reproduces the run bit for
//!   bit.
//!
//! The driver here is executor-generic: [`drive`] takes a closure that
//! evaluates one round's allocation to per-cell evidence. The
//! in-process executor ([`crate::job::in_process_rounds`]) runs each
//! round as a cell job; the distributed executor
//! (`dist::AdaptiveCoordinator`) leases the same job to a worker fleet.

use crate::scenario::ScenarioResult;
use divrel_bayes::update::observe_batch;
use divrel_bayes::{PfdPosterior, PfdPrior};
use divrel_devsim::adaptive::{
    refine_allocation, uniform_allocation, AdaptivePfdRuntime, CellEvidence,
};
use divrel_model::FaultModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The refinement vocabulary of an `AdaptivePfd` experiment: the
/// stopping rule and the per-round budgets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefinementSpec {
    /// Credible level of the convergence bound (`0.5 < confidence <
    /// 1`): each cell's interval runs from the `1 − confidence` to the
    /// `confidence` posterior quantile.
    pub confidence: f64,
    /// The sweep converges when every cell's credible width is at or
    /// below this (`> 0`).
    pub target_width: f64,
    /// Round 0's budget, spread uniformly over all cells (no posterior
    /// exists yet).
    pub initial_demands: u64,
    /// Every refinement round's budget, leased to unconverged cells in
    /// proportion to their posterior widths.
    pub round_demands: u64,
    /// Hard round cap (≥ 1, counting round 0): the sweep reports
    /// `converged = false` if the bound is still open when it hits.
    pub max_rounds: u32,
}

impl RefinementSpec {
    /// Validates the stopping rule and budgets.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> ScenarioResult<()> {
        if !(self.confidence > 0.5 && self.confidence < 1.0) {
            return Err("refinement.confidence must lie in (0.5, 1)".into());
        }
        if self.target_width.is_nan() || self.target_width <= 0.0 {
            return Err("refinement.target_width must be > 0".into());
        }
        if self.initial_demands == 0 {
            return Err("refinement.initial_demands must be >= 1".into());
        }
        if self.round_demands == 0 {
            return Err("refinement.round_demands must be >= 1".into());
        }
        if self.max_rounds == 0 {
            return Err("refinement.max_rounds must be >= 1".into());
        }
        Ok(())
    }
}

/// One pinned round of an adaptive sweep: the execution form the
/// distributed runtime leases out. A spec carrying a `RoundPlan` runs
/// exactly that round (evidence only, no posterior loop) — the
/// coordinator pins each round it derived so workers never need the
/// evidence history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundPlan {
    /// Which round (salts the demand streams).
    pub round: u32,
    /// Per-cell demand budgets, cell order (length = `cells`).
    pub allocations: Vec<u64>,
}

/// The reduced outcome of one pinned round: per-cell evidence in cell
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRoundOutcome {
    /// The round that ran.
    pub round: u32,
    /// Per-cell evidence, cell order.
    pub evidence: Vec<CellEvidence>,
}

/// One cell's final state after the round loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The exact PFD of the cell's sampled version (simulation ground
    /// truth — the posterior never sees it).
    pub true_pfd: f64,
    /// Total failures observed across all rounds.
    pub failures: u64,
    /// Total demands spent across all rounds.
    pub demands: u64,
    /// Posterior mean PFD.
    pub posterior_mean: f64,
    /// Lower credible bound (the `1 − confidence` quantile).
    pub lower: f64,
    /// Upper credible bound (the `confidence` quantile).
    pub upper: f64,
    /// Credible width `upper − lower`.
    pub width: f64,
}

/// One round's record in the provenance trail.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index.
    pub round: u32,
    /// The allocation the round ran (cell order).
    pub allocations: Vec<u64>,
    /// Budget actually spent (`Σ allocations`).
    pub demands: u64,
    /// Widest posterior credible interval *after* folding the round's
    /// evidence in.
    pub max_width: f64,
}

impl RoundRecord {
    /// A compact human-readable allocation summary for provenance
    /// lines: how many cells got demands, and the min/max non-zero
    /// share.
    pub fn allocation_summary(&self) -> String {
        let active: Vec<u64> = self
            .allocations
            .iter()
            .copied()
            .filter(|&a| a > 0)
            .collect();
        if active.is_empty() {
            return "0 cells".into();
        }
        let min = active.iter().min().copied().unwrap_or(0);
        let max = active.iter().max().copied().unwrap_or(0);
        format!(
            "{} demands over {}/{} cells ({min}..{max} each)",
            self.demands,
            active.len(),
            self.allocations.len()
        )
    }
}

/// Everything an adaptive sweep reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Per-cell final state, cell order.
    pub cells: Vec<CellReport>,
    /// Per-round provenance, round order.
    pub rounds: Vec<RoundRecord>,
    /// Total demands spent across all rounds and cells.
    pub total_demands: u64,
    /// Whether the credible bound closed before `max_rounds`.
    pub converged: bool,
    /// The credible level the bound was assessed at.
    pub confidence: f64,
    /// The target width of the stopping rule.
    pub target_width: f64,
}

/// How a round's budget is spread — the adaptive driver vs the
/// fixed-budget baseline it is benchmarked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Width-proportional leasing to unconverged cells
    /// ([`refine_allocation`]).
    PosteriorDriven,
    /// Uniform spread over all cells regardless of posterior state
    /// ([`uniform_allocation`]) — the fixed-sweep baseline, run under
    /// the same stopping rule so samples-to-bound is comparable.
    Uniform,
}

/// Runs the round loop with a caller-supplied round executor:
/// `exec(runtime, round, allocations)` must return per-cell evidence
/// for exactly that round (cell order, one entry per cell). The
/// posterior side — exact Bayes updates, widths, the stopping rule,
/// the next allocation — lives here, identically for every executor.
///
/// # Errors
///
/// Model/prior construction errors, executor errors, evidence of the
/// wrong length, posterior quantile errors.
pub fn drive<F>(
    model: Arc<FaultModel>,
    sweep_seed: u64,
    cells: usize,
    refinement: &RefinementSpec,
    strategy: AllocationStrategy,
    mut exec: F,
) -> ScenarioResult<AdaptiveOutcome>
where
    F: FnMut(&AdaptivePfdRuntime, u32, &[u64]) -> ScenarioResult<Vec<CellEvidence>>,
{
    refinement.validate()?;
    let prior = PfdPrior::exact_single(&model)?;
    let runtime = AdaptivePfdRuntime::new(model, sweep_seed, cells)?;
    let mut cumulative = vec![CellEvidence::default(); cells];
    let mut rounds: Vec<RoundRecord> = Vec::new();
    let mut allocations = uniform_allocation(refinement.initial_demands, cells);
    let mut converged = false;
    let mut final_posteriors: Vec<PfdPosterior> = Vec::new();
    let mut widths = vec![f64::INFINITY; cells];
    for round in 0..refinement.max_rounds {
        let evidence = exec(&runtime, round, &allocations)?;
        if evidence.len() != cells {
            return Err(format!(
                "adaptive round {round} returned {} evidence entries, want {cells}",
                evidence.len()
            )
            .into());
        }
        for (acc, ev) in cumulative.iter_mut().zip(&evidence) {
            use divrel_numerics::sweep::SweepReduce;
            acc.absorb(*ev);
        }
        let flat: Vec<(u64, u64)> = cumulative.iter().map(|e| (e.failures, e.demands)).collect();
        let posteriors = observe_batch(&prior, &flat)?;
        for (w, p) in widths.iter_mut().zip(&posteriors) {
            let upper = p.quantile(refinement.confidence)?;
            let lower = p.quantile(1.0 - refinement.confidence)?;
            *w = upper - lower;
        }
        let max_width = widths.iter().fold(0.0f64, |m, &w| m.max(w));
        rounds.push(RoundRecord {
            round,
            allocations: allocations.clone(),
            demands: allocations.iter().sum(),
            max_width,
        });
        final_posteriors = posteriors;
        if max_width <= refinement.target_width {
            converged = true;
            break;
        }
        allocations = match strategy {
            AllocationStrategy::PosteriorDriven => {
                refine_allocation(&widths, refinement.target_width, refinement.round_demands)
            }
            AllocationStrategy::Uniform => uniform_allocation(refinement.round_demands, cells),
        };
    }
    let cell_reports = cumulative
        .iter()
        .zip(&final_posteriors)
        .enumerate()
        .map(|(c, (ev, p))| {
            let upper = p.quantile(refinement.confidence)?;
            let lower = p.quantile(1.0 - refinement.confidence)?;
            Ok(CellReport {
                true_pfd: runtime.true_pfd(c),
                failures: ev.failures,
                demands: ev.demands,
                posterior_mean: p.mean(),
                lower,
                upper,
                width: upper - lower,
            })
        })
        .collect::<ScenarioResult<Vec<_>>>()?;
    Ok(AdaptiveOutcome {
        total_demands: rounds.iter().map(|r| r.demands).sum(),
        cells: cell_reports,
        rounds,
        converged,
        confidence: refinement.confidence,
        target_width: refinement.target_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::in_process_rounds;

    fn spec() -> RefinementSpec {
        RefinementSpec {
            confidence: 0.99,
            target_width: 0.002,
            initial_demands: 2_000,
            round_demands: 8_000,
            max_rounds: 30,
        }
    }

    #[test]
    fn validation_rejects_bad_stopping_rules() {
        for (mangle, msg) in [
            (
                Box::new(|s: &mut RefinementSpec| s.confidence = 0.5) as Box<dyn Fn(&mut _)>,
                "confidence",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.confidence = 1.0),
                "confidence",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.target_width = 0.0),
                "target_width",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.initial_demands = 0),
                "initial_demands",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.round_demands = 0),
                "round_demands",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.max_rounds = 0),
                "max_rounds",
            ),
        ] {
            let mut s = spec();
            mangle(&mut s);
            let err = s.validate().expect_err("must reject").to_string();
            assert!(err.contains(msg), "{err} should mention {msg}");
        }
        spec().validate().expect("the base spec is valid");
    }

    #[test]
    fn the_round_loop_converges_and_records_its_rounds() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let out = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("the drive succeeds");
        assert!(out.converged, "rounds: {:?}", out.rounds.len());
        assert_eq!(out.cells.len(), 16);
        assert!(!out.rounds.is_empty());
        // Round indices are consecutive from 0 and the budget ledger
        // adds up.
        for (i, r) in out.rounds.iter().enumerate() {
            assert_eq!(r.round as usize, i);
            assert_eq!(r.demands, r.allocations.iter().sum::<u64>());
        }
        let ledger: u64 = out.rounds.iter().map(|r| r.demands).sum();
        assert_eq!(out.total_demands, ledger);
        let spent: u64 = out.cells.iter().map(|c| c.demands).sum();
        assert_eq!(out.total_demands, spent);
        // Every cell's bound closed, and the interval brackets sanely.
        for c in &out.cells {
            assert!(c.width <= spec().target_width);
            assert!(c.lower <= c.upper);
            assert!(c.failures <= c.demands);
        }
        // max_width is monotone enough to have ended below target.
        assert!(out.rounds.last().expect("nonempty").max_width <= spec().target_width);
    }

    #[test]
    fn adaptive_spends_no_demands_on_converged_cells() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let out = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("the drive succeeds");
        // Refinement rounds (1+) must leave some cells unfunded once
        // posteriors diverge — that is the point of the strategy.
        assert!(
            out.rounds
                .iter()
                .filter(|r| r.round > 0)
                .any(|r| r.allocations.contains(&0)),
            "some refinement round should skip converged cells: {:?}",
            out.rounds
                .iter()
                .map(|r| r.allocation_summary())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_baseline_spends_more_to_reach_the_same_bound() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let adaptive = drive(
            Arc::new(model.clone()),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("adaptive drive succeeds");
        let uniform = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::Uniform,
            in_process_rounds(1),
        )
        .expect("uniform drive succeeds");
        assert!(adaptive.converged && uniform.converged);
        assert!(
            adaptive.total_demands < uniform.total_demands,
            "adaptive {} vs uniform {}",
            adaptive.total_demands,
            uniform.total_demands
        );
    }

    #[test]
    fn the_drive_is_deterministic() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let a = drive(
            Arc::new(model.clone()),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("first drive");
        let b = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("second drive");
        assert_eq!(a, b);
    }

    #[test]
    fn allocation_summaries_read_sanely() {
        let r = RoundRecord {
            round: 2,
            allocations: vec![0, 500, 300, 0],
            demands: 800,
            max_width: 0.01,
        };
        assert_eq!(
            r.allocation_summary(),
            "800 demands over 2/4 cells (300..500 each)"
        );
        let idle = RoundRecord {
            round: 3,
            allocations: vec![0, 0],
            demands: 0,
            max_width: 0.0,
        };
        assert_eq!(idle.allocation_summary(), "0 cells");
    }
}
