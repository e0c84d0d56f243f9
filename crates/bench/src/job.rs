//! The cell-job core: every experiment family compiled to one fixed
//! grid of independently evaluable cells whose accumulators fold in
//! cell order.
//!
//! A `CellJob` is the family's whole execution form — model definition
//! (`compile`), per-cell propagation (`CellJob::run_cell`) and result
//! processing (`CellJob::finish`). [`Scenario::run`] evaluates a job in
//! process with typed accumulators; the distributed runtime
//! ([`DistJob`](crate::dist::DistJob)) leases the same job's cells to
//! workers and folds the same accumulators from their wire form.
//! Because a cell's bits depend only on the spec and the cell index,
//! both paths reduce to the same outcome bit for bit.
//!
//! | experiment | cell | accumulator |
//! |---|---|---|
//! | `KnightLeveson` | one replication | [`KlSweepStats`] |
//! | `ForcedDiversity` | ≤ 250 process pairs | [`ForcedSweepStats`] |
//! | `MonteCarlo` | ≤ 2048 sampled pairs | [`McAccumulator`] |
//! | `Protection` | one campaign shard of one system | [`OperationLog`](divrel_protection::OperationLog) |
//! | `RareEvent` | ≤ 4096 weighted draws | [`WeightedMean`] |
//! | `AdaptivePfd` (one round) | ≤ 256 cells of consecutive versions | [`EvidenceBatch`] |
//!
//! An un-pinned `AdaptivePfd` spec is a loop of rounds, not one grid:
//! [`crate::adaptive::drive`] compiles its [`AdaptivePfdRuntime`] once
//! and runs each round as its own job over that runtime, in process and
//! on a fleet alike.

use crate::adaptive::AdaptiveRoundOutcome;
use crate::scenario::{CampaignRuntime, ExperimentSpec, Scenario, ScenarioOutcome, ScenarioResult};
use crate::sweep::{forced_cell, forced_grid, kl_cell, kl_grid, ForcedSweepStats, KlSweepStats};
use divrel_devsim::adaptive::{AdaptivePfdRuntime, CellEvidence, EvidenceBatch};
use divrel_devsim::experiment::{run_cell as mc_cell, McAccumulator, MonteCarloExperiment};
use divrel_devsim::factory::VersionFactory;
use divrel_devsim::rare::RareEventExperiment;
use divrel_devsim::sweep::{run_cells, CellRange, SweepCell, SweepGrid};
use divrel_model::FaultModel;
use divrel_numerics::estimator::WeightedMean;
use divrel_numerics::sweep::SweepReduce;
use divrel_numerics::wire::{Wire, WireError, WireForm};
use std::ops::Range;
use std::sync::Arc;

/// One experiment family compiled to a grid of `cells()` cells.
pub(crate) trait CellJob: Sync {
    /// The kind tag of this family's cell accumulators on the wire.
    const KIND: &'static str;
    /// One cell's accumulator.
    type Acc: WireForm + Send;

    /// Number of cells; the lease space is `0..cells()`.
    fn cells(&self) -> u64;

    /// Evaluates cell `k < cells()`: a pure function of the spec and
    /// `k`. Errors are `String`s so they cross worker threads.
    fn run_cell(&self, k: u64) -> Result<Self::Acc, String>;

    /// Checks an accumulator for cell `k` that arrived from outside the
    /// process (a worker result, a journal record) before it is folded.
    fn admit(&self, _k: u64, _acc: &Self::Acc) -> Result<(), String> {
        Ok(())
    }

    /// Folds every cell's accumulator, in cell order, into the outcome.
    fn finish(&self, accs: Vec<Self::Acc>) -> ScenarioResult<ScenarioOutcome>;
}

/// Folds accumulators in slice order; `None` for an empty grid.
fn fold<T: SweepReduce>(accs: Vec<T>) -> Option<T> {
    accs.into_iter().reduce(|mut acc, t| {
        acc.absorb(t);
        acc
    })
}

/// The E16 grid: one Knight–Leveson replication per cell.
struct KlJob {
    model: Arc<FaultModel>,
    grid: SweepGrid<()>,
}

impl CellJob for KlJob {
    const KIND: &'static str = "kl";
    type Acc = KlSweepStats;

    fn cells(&self) -> u64 {
        self.grid.len() as u64
    }

    fn run_cell(&self, k: u64) -> Result<KlSweepStats, String> {
        kl_cell(&self.model, &self.grid.cells()[k as usize]).map_err(|e| e.to_string())
    }

    fn finish(&self, accs: Vec<KlSweepStats>) -> ScenarioResult<ScenarioOutcome> {
        Ok(ScenarioOutcome::KnightLeveson(
            fold(accs).unwrap_or_default(),
        ))
    }
}

/// The E17 grid: random forced-diversity process pairs.
struct ForcedJob {
    grid: SweepGrid<usize>,
}

impl CellJob for ForcedJob {
    const KIND: &'static str = "forced";
    type Acc = ForcedSweepStats;

    fn cells(&self) -> u64 {
        self.grid.len() as u64
    }

    fn run_cell(&self, k: u64) -> Result<ForcedSweepStats, String> {
        forced_cell(&self.grid.cells()[k as usize]).map_err(|e| e.to_string())
    }

    fn finish(&self, accs: Vec<ForcedSweepStats>) -> ScenarioResult<ScenarioOutcome> {
        Ok(ScenarioOutcome::ForcedDiversity(
            fold(accs).unwrap_or_default(),
        ))
    }
}

/// The Monte-Carlo driver's grid of sampled version pairs.
struct McJob {
    exp: MonteCarloExperiment,
    factory: VersionFactory,
    grid: SweepGrid<usize>,
}

impl CellJob for McJob {
    const KIND: &'static str = "mc";
    type Acc = McAccumulator;

    fn cells(&self) -> u64 {
        self.grid.len() as u64
    }

    fn run_cell(&self, k: u64) -> Result<McAccumulator, String> {
        let cell = &self.grid.cells()[k as usize];
        Ok(mc_cell(&self.factory, cell.config, cell.seed))
    }

    fn finish(&self, accs: Vec<McAccumulator>) -> ScenarioResult<ScenarioOutcome> {
        let acc = fold(accs).ok_or("Monte-Carlo grid reduced to nothing")?;
        Ok(ScenarioOutcome::MonteCarlo(self.exp.finish(acc)?))
    }
}

/// The rare-event engine's grid of weighted draws (naive, tilted or
/// stratified).
struct RareJob {
    exp: RareEventExperiment,
    grid: SweepGrid<usize>,
}

impl CellJob for RareJob {
    const KIND: &'static str = "rare";
    type Acc = WeightedMean;

    fn cells(&self) -> u64 {
        self.grid.len() as u64
    }

    fn run_cell(&self, k: u64) -> Result<WeightedMean, String> {
        let cell = &self.grid.cells()[k as usize];
        Ok(self.exp.run_cell(cell.config, cell.seed))
    }

    fn finish(&self, accs: Vec<WeightedMean>) -> ScenarioResult<ScenarioOutcome> {
        let acc = fold(accs).ok_or("rare-event grid reduced to nothing")?;
        Ok(ScenarioOutcome::RareEvent(self.exp.finish(acc)?))
    }
}

/// Most cells an adaptive round is cut into: cell `k` holds versions
/// `[k·b, (k+1)·b)` with `b = ⌈versions / ADAPTIVE_ROUND_CELLS⌉`, so a
/// round of up to 256 versions keeps one version per cell and a larger
/// one batches versions like the other families batch their draws.
const ADAPTIVE_ROUND_CELLS: usize = 256;

/// One round of an adaptive sweep: version `v` spends `allocations[v]`
/// demands on the round-salted stream of its sampled version, and the
/// versions are batched into at most [`ADAPTIVE_ROUND_CELLS`] cells.
/// The runtime is the session's, compiled once for every round.
struct AdaptiveRound {
    runtime: Arc<AdaptivePfdRuntime>,
    round: u32,
    allocations: Vec<u64>,
    /// Versions per cell.
    batch: usize,
}

impl AdaptiveRound {
    fn new(runtime: Arc<AdaptivePfdRuntime>, round: u32, allocations: Vec<u64>) -> Self {
        let batch = allocations.len().div_ceil(ADAPTIVE_ROUND_CELLS).max(1);
        AdaptiveRound {
            runtime,
            round,
            allocations,
            batch,
        }
    }

    /// The versions of cell `k`.
    fn versions(&self, k: u64) -> Range<usize> {
        let start = (k as usize).saturating_mul(self.batch);
        start..start.saturating_add(self.batch).min(self.allocations.len())
    }
}

impl CellJob for AdaptiveRound {
    const KIND: &'static str = "adaptive";
    type Acc = EvidenceBatch;

    fn cells(&self) -> u64 {
        self.allocations.len().div_ceil(self.batch) as u64
    }

    fn run_cell(&self, k: u64) -> Result<EvidenceBatch, String> {
        let versions = self.versions(k);
        let mut batch = EvidenceBatch::with_capacity(versions.len());
        for v in versions {
            batch.push(self.runtime.run_cell(v, self.allocations[v], self.round));
        }
        Ok(batch)
    }

    /// A cell must hold one entry per version, and each version's
    /// evidence must spend exactly its allocation and cannot fail more
    /// often than it was demanded: any of these defects would pass the
    /// wire-shape check and only surface later, as a wrong fold or as a
    /// posterior update that aborts the round loop.
    fn admit(&self, k: u64, batch: &EvidenceBatch) -> Result<(), String> {
        let versions = self.versions(k);
        let (failures, demands) = (batch.failures.len(), batch.demands.len());
        if failures != versions.len() || demands != versions.len() {
            return Err(format!(
                "round {} cell {k}: {failures} failure and {demands} demand entries, \
                 but the cell holds {} versions",
                self.round,
                versions.len()
            ));
        }
        for (v, ev) in versions.zip(batch.evidence()) {
            let want = self.allocations[v];
            if ev.demands != want || ev.failures > ev.demands {
                return Err(format!(
                    "round {} cell {k} version {v}: evidence of {} failures in {} demands, \
                     but the version was allocated {want} demands",
                    self.round, ev.failures, ev.demands
                ));
            }
        }
        Ok(())
    }

    fn finish(&self, batches: Vec<EvidenceBatch>) -> ScenarioResult<ScenarioOutcome> {
        Ok(ScenarioOutcome::AdaptiveRound(AdaptiveRoundOutcome {
            round: self.round,
            evidence: batches.iter().flat_map(EvidenceBatch::evidence).collect(),
        }))
    }
}

/// Round `round` of the adaptive session over `runtime`: the job both
/// the in-process executor and a fleet run.
///
/// # Errors
///
/// An allocation vector whose length is not the runtime's version
/// count.
pub(crate) fn adaptive_round(
    runtime: Arc<AdaptivePfdRuntime>,
    round: u32,
    allocations: Vec<u64>,
) -> ScenarioResult<Box<dyn AnyJob>> {
    if allocations.len() != runtime.cells() {
        return Err(format!(
            "adaptive round {round} has {} allocations, want one per version ({})",
            allocations.len(),
            runtime.cells()
        )
        .into());
    }
    Ok(Box::new(AdaptiveRound::new(runtime, round, allocations)))
}

/// Evaluates the cells of `range` (clamped to the grid) with up to
/// `threads` work-stealing workers, passing each accumulator through
/// `f` on the worker that computed it. Results come back in cell
/// order; so does the first error.
fn each_cell<J: CellJob, T: Send>(
    job: &J,
    range: CellRange,
    threads: usize,
    f: impl Fn(J::Acc) -> T + Sync,
) -> Result<Vec<T>, String> {
    let cells: Vec<SweepCell<u64>> = (range.start..range.end.min(job.cells()))
        .map(|k| SweepCell {
            index: k,
            // Each job derives its cell streams itself; the engine only
            // needs the index to keep results in cell order.
            seed: 0,
            config: k,
        })
        .collect();
    run_cells(&cells, threads, |cell| job.run_cell(cell.config).map(&f))
        .into_iter()
        .collect()
}

/// The in-process round executor of [`crate::adaptive::drive`]: each
/// round runs as one job over every cell with up to `threads` workers,
/// bit-identical at any thread count and to any fleet execution of the
/// same round.
pub fn in_process_rounds(
    threads: usize,
) -> impl Fn(&Arc<AdaptivePfdRuntime>, u32, &[u64]) -> ScenarioResult<Vec<CellEvidence>> {
    move |runtime, round, allocations| {
        let job = adaptive_round(Arc::clone(runtime), round, allocations.to_vec())?;
        match job.run_all(threads)? {
            ScenarioOutcome::AdaptiveRound(r) => Ok(r.evidence),
            other => Err(format!("adaptive round {round} folded to {other:?}").into()),
        }
    }
}

/// Compiles a validated scenario to its cell job: the one place that
/// dispatches on the experiment family at execution time.
///
/// # Errors
///
/// Model and constructor errors; an un-pinned `AdaptivePfd` spec,
/// which is a round loop rather than one grid.
pub(crate) fn compile(scenario: &Scenario) -> ScenarioResult<Box<dyn AnyJob>> {
    let seed = scenario.seed.seed;
    Ok(match &scenario.experiment {
        ExperimentSpec::KnightLeveson {
            model,
            replications,
        } => Box::new(KlJob {
            model: Arc::new(model.build()?),
            grid: kl_grid(*replications, seed),
        }),
        ExperimentSpec::ForcedDiversity { trials } => Box::new(ForcedJob {
            grid: forced_grid(*trials, seed),
        }),
        ExperimentSpec::MonteCarlo {
            model,
            introduction,
            samples,
        } => {
            let exp = MonteCarloExperiment::new(model.build()?, *introduction)
                .samples(*samples)
                .seed(seed);
            Box::new(McJob {
                factory: exp.factory()?,
                grid: exp.grid_spec().grid(seed),
                exp,
            })
        }
        ExperimentSpec::Protection(campaign) => Box::new(CampaignRuntime::new(campaign, seed)?),
        ExperimentSpec::RareEvent {
            model,
            channels,
            k,
            samples,
            estimator,
        } => {
            let exp = RareEventExperiment::from_shared(
                &model.build_shared()?,
                *channels,
                *k,
                *estimator,
            )?
            .samples(*samples)
            .seed(seed);
            Box::new(RareJob {
                grid: exp.grid_spec().grid(seed),
                exp,
            })
        }
        ExperimentSpec::AdaptivePfd {
            model,
            cells,
            round,
            ..
        } => {
            let plan = round.as_ref().ok_or(
                "AdaptivePfd compiles one pinned round at a time; this spec \
                 has no round plan — run the round loop through Scenario::run or \
                 a dist::Coordinator, which build each round they derive",
            )?;
            let runtime = AdaptivePfdRuntime::new(Arc::new(model.build()?), seed, *cells)?;
            adaptive_round(Arc::new(runtime), plan.round, plan.allocations.clone())?
        }
    })
}

/// A [`CellJob`] behind a trait object (the associated const keeps
/// `CellJob` itself from being one): typed in-process execution, plus
/// the wire form the fleet leases, admits and folds. Each cell travels
/// as a `{kind, data}` record, so a shape mismatch fails loudly with
/// the family named.
pub(crate) trait AnyJob: Send + Sync {
    /// Number of cells.
    fn cell_count(&self) -> u64;

    /// Runs every cell in process and folds the typed accumulators.
    fn run_all(&self, threads: usize) -> ScenarioResult<ScenarioOutcome>;

    /// Runs the cells of `range` and wire-encodes each accumulator.
    fn run_wire(&self, range: CellRange, threads: usize) -> ScenarioResult<Vec<Wire>>;

    /// Decodes one cell record and, when its index is known, runs the
    /// family's admission check on it.
    fn check_wire(&self, cell: Option<u64>, wire: &Wire) -> Result<(), WireError>;

    /// Decodes every cell record (index `i` holding cell `i`) and folds.
    fn finish_wire(&self, cells: &[Wire]) -> ScenarioResult<ScenarioOutcome>;
}

/// Decodes one cell record of `J`'s kind.
fn decode<J: CellJob>(wire: &Wire) -> Result<J::Acc, WireError> {
    let kind = wire.field("kind")?.as_text()?;
    if kind != J::KIND {
        return Err(WireError(format!(
            "cell accumulator kind mismatch: expected {:?}, got {kind:?}",
            J::KIND
        )));
    }
    J::Acc::from_wire(wire.field("data")?)
}

impl<J: CellJob + Send> AnyJob for J {
    fn cell_count(&self) -> u64 {
        self.cells()
    }

    fn run_all(&self, threads: usize) -> ScenarioResult<ScenarioOutcome> {
        let accs = each_cell(self, CellRange::new(0, self.cells()), threads, |acc| acc)?;
        self.finish(accs)
    }

    fn run_wire(&self, range: CellRange, threads: usize) -> ScenarioResult<Vec<Wire>> {
        Ok(each_cell(self, range, threads, |acc| {
            Wire::record([
                ("kind", Wire::Text(J::KIND.into())),
                ("data", acc.to_wire()),
            ])
        })?)
    }

    fn check_wire(&self, cell: Option<u64>, wire: &Wire) -> Result<(), WireError> {
        let acc = decode::<J>(wire)?;
        cell.map_or(Ok(()), |k| self.admit(k, &acc))
            .map_err(WireError)
    }

    fn finish_wire(&self, cells: &[Wire]) -> ScenarioResult<ScenarioOutcome> {
        let accs = cells.iter().map(decode::<J>).collect::<Result<_, _>>()?;
        self.finish(accs)
    }
}
