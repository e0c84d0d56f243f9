//! The traced in-process pass: the coordinator's data path (compile,
//! per-cell kernel, result framing, admission check, journal, fold,
//! render) run in one process at one thread, with a timer around each
//! call into a layer's public API.

use divrel_bench::adaptive::{drive, AllocationStrategy, RoundPlan};
use divrel_bench::dist::framing::{encode_result_frame, try_extract, Extracted};
use divrel_bench::dist::{spec_hash, DistJob, Journal, Message, DEFAULT_LEASE_CELLS};
use divrel_bench::scenario::{ExperimentSpec, ScenarioOutcome, ScenarioResult};
use divrel_bench::Scenario;
use divrel_devsim::sweep::CellRange;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Layer totals of one traced pass, in seconds unless named otherwise.
#[derive(Default)]
pub struct Layers {
    pub job_compile: f64,
    pub cell_times: Vec<f64>,
    pub encode: f64,
    pub decode: f64,
    pub wire_bytes: u64,
    pub journal: f64,
    pub journal_bytes: u64,
    pub fold: f64,
    pub render: f64,
    pub rounds: usize,
    pub exec: f64,
    pub posterior: f64,
    /// Wall time of the whole pass.
    pub wall: f64,
}

impl Layers {
    /// The part of the pass no layer timer covers: glue and the cost of
    /// tracing itself.
    pub fn unattributed(&self) -> f64 {
        let kernel: f64 = self.cell_times.iter().sum();
        self.wall
            - (self.job_compile
                + kernel
                + self.encode
                + self.decode
                + self.journal
                + self.fold
                + self.render
                + self.posterior)
    }
}

/// Runs `scenario` through the traced data path, journaling under
/// `scratch`, and returns the outcome (which must equal the in-process
/// `Scenario::run` outcome) with its layer times.
pub fn run(scenario: &Scenario, scratch: &Path) -> ScenarioResult<(ScenarioOutcome, Layers)> {
    let mut layers = Layers::default();
    let started = Instant::now();
    let outcome = match &scenario.experiment {
        ExperimentSpec::AdaptivePfd {
            model,
            cells,
            refinement,
            round: None,
        } => {
            let driving = Instant::now();
            let outcome = drive(
                Arc::new(model.build()?),
                scenario.seed.seed,
                *cells,
                refinement,
                AllocationStrategy::PosteriorDriven,
                |_runtime, round, allocations| {
                    let t = Instant::now();
                    let mut pinned = scenario.clone();
                    if let ExperimentSpec::AdaptivePfd { round: slot, .. } = &mut pinned.experiment
                    {
                        *slot = Some(RoundPlan {
                            round,
                            allocations: allocations.to_vec(),
                        });
                    }
                    let evidence = match run_job(&pinned, scratch, &mut layers)? {
                        ScenarioOutcome::AdaptiveRound(r) => r.evidence,
                        other => return Err(format!("round {round} folded to {other:?}").into()),
                    };
                    layers.exec += t.elapsed().as_secs_f64();
                    Ok(evidence)
                },
            )?;
            layers.posterior = driving.elapsed().as_secs_f64() - layers.exec;
            layers.rounds = outcome.rounds.len();
            ScenarioOutcome::Adaptive(outcome)
        }
        _ => run_job(scenario, scratch, &mut layers)?,
    };
    let t = Instant::now();
    std::hint::black_box(outcome.card(&scenario.name).to_markdown());
    layers.render = t.elapsed().as_secs_f64();
    layers.wall = started.elapsed().as_secs_f64();
    Ok((outcome, layers))
}

/// One grid job the way a 1-thread worker and the coordinator see it:
/// cells run one `run_range` call at a time (a worker's heartbeat chunk
/// at one thread), each base-size lease is framed, decoded and
/// admission-checked, journaled, and the board is folded at the end.
fn run_job(
    spec: &Scenario,
    scratch: &Path,
    layers: &mut Layers,
) -> ScenarioResult<ScenarioOutcome> {
    // A coordinator's compile: canonical text, its hash, the job.
    let t = Instant::now();
    let hash = spec_hash(&spec.to_toml()?);
    let job = DistJob::new(spec.clone(), 1)?;
    layers.job_compile += t.elapsed().as_secs_f64();
    let n = job.cell_count();
    let path = scratch.join("journal");
    let t = Instant::now();
    let mut journal = Journal::create(&path, &hash, n)?;
    layers.journal += t.elapsed().as_secs_f64();
    let mut board = Vec::with_capacity(n as usize);
    let mut start = 0;
    while start < n {
        let end = (start + DEFAULT_LEASE_CELLS).min(n);
        let mut wires = Vec::with_capacity((end - start) as usize);
        for k in start..end {
            let t = Instant::now();
            let cell = job.run_range(CellRange::new(k, k + 1))?;
            layers.cell_times.push(t.elapsed().as_secs_f64());
            wires.extend(cell);
        }
        let t = Instant::now();
        let frame = encode_result_frame(start, end, &wires);
        layers.encode += t.elapsed().as_secs_f64();
        layers.wire_bytes += frame.len() as u64;
        let t = Instant::now();
        let cells = match try_extract(&frame)? {
            Extracted::Frame(Message::Result { cells, .. }, used) if used == frame.len() => cells,
            _ => return Err(format!("lease [{start}, {end}) did not round-trip its frame").into()),
        };
        for cell in &cells {
            job.check_cell(cell)?;
        }
        layers.decode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        journal.append(CellRange::new(start, end), &cells)?;
        layers.journal += t.elapsed().as_secs_f64();
        board.extend(cells);
        start = end;
    }
    drop(journal);
    layers.journal_bytes += std::fs::metadata(&path)?.len();
    std::fs::remove_file(&path)?;
    let t = Instant::now();
    let outcome = job.finish(&board)?;
    layers.fold += t.elapsed().as_secs_f64();
    Ok(outcome)
}
