//! The load generator: each workload is a committed scenario with one
//! field scaled and the benchmark seed in place of the spec's seed.
//! Nothing here is a copy of a spec, so the workloads follow the
//! committed files.

use divrel_bayes::PfdPrior;
use divrel_bench::adaptive::RoundPlan;
use divrel_bench::dist::DistJob;
use divrel_bench::scenario::{ExperimentSpec, ScenarioResult};
use divrel_bench::Scenario;

/// Repeated-sample scale of the adaptive workload: cells and both
/// demand budgets grow by the same factor, so the round structure of
/// the committed spec is kept.
const ADAPTIVE_SCALE: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `slow_markov_plant.toml`, `steps` 400k → 2e9: 16 large cells,
    /// dominated by the plant compiler and the compiled-walk kernel.
    CampaignMarkov,
    /// `rare_event_protection.toml`, `samples` 131072 → 8388608: 2048
    /// small cells, so wire, framing and fold costs show on the fleet.
    RareTilt,
    /// `adaptive_confidence.toml`, `cells` 24 → 12288 and both demand
    /// budgets × 512: posterior work per round and one fleet per round.
    AdaptiveRounds,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "campaign_markov" => Ok(Workload::CampaignMarkov),
            "rare_tilt" => Ok(Workload::RareTilt),
            "adaptive_rounds" => Ok(Workload::AdaptiveRounds),
            other => Err(format!(
                "unknown workload {other:?} (campaign_markov|rare_tilt|adaptive_rounds)"
            )),
        }
    }

    fn committed_spec(self) -> &'static str {
        match self {
            Workload::CampaignMarkov => "scenarios/slow_markov_plant.toml",
            Workload::RareTilt => "scenarios/rare_event_protection.toml",
            Workload::AdaptiveRounds => "scenarios/adaptive_confidence.toml",
        }
    }
}

/// Reads the workload's committed spec (relative to the repository
/// root), swaps in `seed` and scales the workload's one field. Returns
/// the scenario and its canonical TOML text, which is what a fleet
/// ships and what the spec hash covers.
pub fn generate(workload: Workload, seed: u64) -> ScenarioResult<(Scenario, String)> {
    let path = workload.committed_spec();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut scenario = Scenario::from_spec_text(&text)?;
    scenario.seed.seed = seed;
    match (workload, &mut scenario.experiment) {
        (Workload::CampaignMarkov, ExperimentSpec::Protection(campaign)) => {
            campaign.steps = 2_000_000_000;
        }
        (Workload::RareTilt, ExperimentSpec::RareEvent { samples, .. }) => {
            *samples = 8_388_608;
        }
        (
            Workload::AdaptiveRounds,
            ExperimentSpec::AdaptivePfd {
                cells, refinement, ..
            },
        ) => {
            *cells *= ADAPTIVE_SCALE;
            refinement.initial_demands *= ADAPTIVE_SCALE as u64;
            refinement.round_demands *= ADAPTIVE_SCALE as u64;
        }
        _ => {
            return Err(format!("{path} no longer declares the family {workload:?} scales").into())
        }
    }
    let canonical = scenario.to_toml()?;
    Ok((scenario, canonical))
}

/// Compiles `scenario` the way a run does before its first cell:
/// `DistJob::new` for a grid spec. An adaptive round loop compiles one
/// round at a time, so its set-up compiles round 0 with the initial
/// budget spread evenly (the allocation values do not change the
/// compile work) and builds the prior every round's posterior starts
/// from, which is the process-wide `TermsLru`'s first entry.
pub fn compile(scenario: &Scenario) -> ScenarioResult<()> {
    let mut pinned = scenario.clone();
    if let ExperimentSpec::AdaptivePfd {
        model,
        cells,
        refinement,
        round,
    } = &mut pinned.experiment
    {
        std::hint::black_box(PfdPrior::exact_single(&model.build()?)?);
        let n = *cells as u64;
        let (base, extra) = (
            refinement.initial_demands / n,
            refinement.initial_demands % n,
        );
        *round = Some(RoundPlan {
            round: 0,
            allocations: (0..n).map(|c| base + u64::from(c < extra)).collect(),
        });
    }
    std::hint::black_box(DistJob::new(pinned, 1)?);
    Ok(())
}

/// Domain work of one run: plant steps, rare-event samples, or demands
/// spent by the adaptive rounds (read from the outcome).
pub fn work(scenario: &Scenario, outcome: &divrel_bench::scenario::ScenarioOutcome) -> f64 {
    match &scenario.experiment {
        ExperimentSpec::Protection(campaign) => {
            campaign.steps as f64 * campaign.systems.len() as f64
        }
        ExperimentSpec::RareEvent { samples, .. } => *samples as f64,
        _ => outcome
            .as_adaptive()
            .map_or(0.0, |a| a.total_demands as f64),
    }
}
