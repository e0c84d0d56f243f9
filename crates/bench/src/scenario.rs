//! Declarative scenarios: experiments as serialisable data.
//!
//! Every experiment in this repository used to exist only as a
//! hand-coded module behind a registry entry — opening a new variant
//! meant writing Rust. A [`Scenario`] is the alternative: a **value**
//! (serde-serialisable, JSON or TOML) composed from the workspace's spec
//! types —
//!
//! * [`FaultModelSpec`] (`divrel_model::spec`) — the fault-creation
//!   model;
//! * [`FaultIntroduction`] (`divrel_devsim::process`) — how faults are
//!   introduced;
//! * [`RareEstimator`] (`divrel_devsim::rare`) — the rare-event
//!   estimator;
//! * [`CampaignSpec`]/[`PlantSpec`]/`ProfileSpec`/`SystemSpec`
//!   (`divrel_protection::spec`) — protection campaigns;
//! * [`SeedSpec`] (`divrel_numerics::sweep`) — the random-stream layout;
//! * `GridSpec` (`divrel_devsim::sweep`) — sample-budget grids —
//!
//! that [`Scenario::run`] compiles onto the deterministic sweep engine
//! (`SweepGrid`/`SweepCell`, reduced via `SweepReduce`; protection
//! campaigns reduce through `OperationLog`'s merge). Because a spec pins
//! the grid layout and the seed, **a scenario's reduced output is
//! bit-reproducible** — and the built-in presets ([`Scenario::preset`]:
//! `"E16"`, `"E17"`, `"F1"`, `"MC"`) are bit-identical to the hand-coded
//! runners they re-express, which `tests/scenario_equivalence.rs`
//! enforces.
//!
//! ```
//! use divrel_bench::scenario::{ExperimentSpec, Scenario};
//! use divrel_model::spec::FaultModelSpec;
//! use divrel_numerics::sweep::SeedSpec;
//!
//! let scenario = Scenario {
//!     name: "tiny-grid".into(),
//!     seed: SeedSpec::new(7),
//!     experiment: ExperimentSpec::MonteCarlo {
//!         model: FaultModelSpec::Uniform { n: 4, p: 0.2, q: 0.01 },
//!         introduction: divrel_devsim::FaultIntroduction::Independent,
//!         samples: 2_000,
//!     },
//! };
//! let outcome = scenario.run(2)?;
//! let mc = outcome.as_monte_carlo().expect("MC outcome");
//! assert_eq!(mc.samples, 2_000);
//! // The spec ↔ text round trip is the identity (JSON or TOML).
//! let text = scenario.to_toml()?;
//! assert_eq!(Scenario::from_spec_text(&text)?, scenario);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::adaptive::{
    drive, AdaptiveOutcome, AdaptiveRoundOutcome, AllocationStrategy, RefinementSpec, RoundPlan,
};
use crate::context::Context;
use crate::job::{self, CellJob};
use crate::sweep::{ForcedSweepStats, KlSweepStats};
use divrel_demand::region::Region;
use divrel_demand::space::GridSpace2D;
use divrel_demand::version::ProgramVersion;
use divrel_devsim::experiment::ExperimentResult;
use divrel_devsim::factory::VersionFactory;
use divrel_devsim::process::FaultIntroduction;
use divrel_devsim::rare::{RareEstimator, RareEventExperiment, RareOutcome, MIN_PAYOFF_ESS};
use divrel_model::spec::FaultModelSpec;
use divrel_model::FaultModel;
use divrel_numerics::sweep::SeedSpec;
use divrel_protection::spec::{CampaignSpec, PlantSpec, ProfileSpec, SystemSpec};
use divrel_protection::{simulation, Adjudicator, Channel, OperationLog, ProtectionSystem};
use divrel_report::fmt::sig;
use divrel_report::{ScenarioCard, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::sync::Arc;

/// The scenario layer's error/result alias: executors compose every
/// sub-crate's error type.
pub type ScenarioResult<T> = Result<T, Box<dyn Error>>;

/// A whole experiment as one serialisable value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display name (also names the artifact directory).
    pub name: String,
    /// The random-stream layout: one master seed, everything derives.
    pub seed: SeedSpec,
    /// What to run.
    pub experiment: ExperimentSpec,
}

/// The experiment families a scenario can declare.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentSpec {
    /// A Knight–Leveson replication grid (the E16 protocol): one
    /// synthetic 27-version experiment per sweep cell.
    KnightLeveson {
        /// The fault model versions are developed from.
        model: FaultModelSpec,
        /// Number of replications (grid cells).
        replications: usize,
    },
    /// The E17 forced-diversity grid: random process pairs, checking the
    /// AM–GM worst-case claim.
    ForcedDiversity {
        /// Number of random process pairs.
        trials: usize,
    },
    /// The Monte-Carlo driver: single/pair PFD statistics of a model
    /// under an introduction model.
    MonteCarlo {
        /// The fault model.
        model: FaultModelSpec,
        /// How faults are introduced.
        introduction: FaultIntroduction,
        /// Number of sampled pairs.
        samples: usize,
    },
    /// An operational protection campaign (the F1 protocol and its
    /// variants: any plant, channel layout, voting logic, and any number
    /// of development processes for forced diversity).
    Protection(CampaignSpec),
    /// The rare-event engine: PFD estimation of a `k`-out-of-`channels`
    /// protection system under a (possibly shared-cause) fault model,
    /// with a declarative choice of estimator — naive Monte Carlo,
    /// exact importance tilting, or fault-count stratification.
    RareEvent {
        /// The fault model ([`FaultModelSpec::SharedCause`] is welcome
        /// here — the engine samples its two layers exactly).
        model: FaultModelSpec,
        /// Number of redundant channels.
        channels: u32,
        /// Voting threshold: the system works while at least `k`
        /// channels work (`k = 1` is 1-out-of-N).
        k: u32,
        /// Total sample budget.
        samples: usize,
        /// Which estimator to run.
        estimator: RareEstimator,
    },
    /// The posterior-driven adaptive sweep: a grid of sampled versions
    /// assessed by rounds of demand trials, each round's budget leased
    /// to the cells with the widest posterior credible intervals, until
    /// every cell's bound closes (see [`crate::adaptive`]).
    AdaptivePfd {
        /// The fault model versions are sampled from.
        model: FaultModelSpec,
        /// Number of grid cells (sampled versions).
        cells: usize,
        /// The stopping rule and round budgets.
        refinement: RefinementSpec,
        /// When present, pins the spec to **one** round of that plan,
        /// a one-job grid spec (committed spec files leave it absent —
        /// the round loop derives each plan from the accumulated
        /// evidence, and a fleet ships each round as a delta).
        round: Option<RoundPlan>,
    },
}

impl Scenario {
    /// The built-in preset ids, in registry order.
    pub const PRESETS: [&'static str; 4] = ["E16", "E17", "F1", "MC"];

    /// A full-scale built-in scenario: `"E16"` (Knight–Leveson
    /// replication), `"E17"` (forced diversity), `"F1"` (Fig 1
    /// protection campaign), `"MC"` (the Monte-Carlo driver on the
    /// safety workload). Results are bit-identical to the corresponding
    /// hand-coded runners.
    pub fn preset(id: &str) -> Option<Scenario> {
        Self::preset_with(id, &Context::new())
    }

    /// A preset scaled by a [`Context`] (smoke contexts scale the sample
    /// budgets down exactly as the experiment registry does).
    pub fn preset_with(id: &str, ctx: &Context) -> Option<Scenario> {
        match id {
            "E16" => Some(presets::e16(ctx)),
            "E17" => Some(presets::e17(ctx)),
            "F1" => Some(presets::f1(ctx)),
            "MC" => Some(presets::mc(ctx)),
            _ => None,
        }
    }

    /// Checks the spec for inconsistencies a serialised file can carry.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> ScenarioResult<()> {
        // Seeds span the full u64 range: the vendored serde carries
        // integers losslessly (`Value::Int`), so any seed survives a
        // spec-file round trip bit-exactly — there is no 2^53 cliff.
        match &self.experiment {
            ExperimentSpec::KnightLeveson {
                replications,
                model,
            } => {
                if *replications == 0 {
                    return Err("KnightLeveson needs >= 1 replication".into());
                }
                reject_shared_cause(model, "KnightLeveson")?;
            }
            ExperimentSpec::ForcedDiversity { trials } => {
                if *trials == 0 {
                    return Err("ForcedDiversity needs >= 1 trial".into());
                }
            }
            ExperimentSpec::MonteCarlo { samples, model, .. } => {
                if *samples < 2 {
                    return Err("MonteCarlo needs >= 2 samples".into());
                }
                reject_shared_cause(model, "MonteCarlo")?;
            }
            ExperimentSpec::Protection(campaign) => campaign.validate()?,
            ExperimentSpec::RareEvent {
                model,
                channels,
                k,
                samples,
                estimator,
            } => {
                if *samples < 2 {
                    return Err("RareEvent needs >= 2 samples".into());
                }
                // The engine's constructor is the authoritative check
                // (k vs channels, tilt finiteness, the 64-bit
                // stratified-universe bound) — run it on the built
                // model so a bad spec file fails here, not mid-run.
                let shared = model.build_shared()?;
                RareEventExperiment::from_shared(&shared, *channels, *k, *estimator)?;
            }
            ExperimentSpec::AdaptivePfd {
                model,
                cells,
                refinement,
                round,
            } => {
                if *cells == 0 {
                    return Err("AdaptivePfd needs >= 1 cell".into());
                }
                refinement.validate()?;
                reject_shared_cause(model, "AdaptivePfd")?;
                if let Some(plan) = round {
                    if plan.allocations.len() != *cells {
                        return Err(format!(
                            "AdaptivePfd round plan has {} allocations, want one per cell ({cells})",
                            plan.allocations.len()
                        )
                        .into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles the spec to its cell job ([`crate::job`]) and runs every
    /// cell in process with up to `threads` workers; an un-pinned
    /// adaptive spec runs its round loop, one job per round. `threads`
    /// is an execution hint only: every outcome is bit-identical at any
    /// thread count (campaign shard counts are part of the spec, not of
    /// this parameter) and to any fleet execution of the same spec.
    ///
    /// # Errors
    ///
    /// Validation errors plus whatever the underlying constructors and
    /// simulators report.
    pub fn run(&self, threads: usize) -> ScenarioResult<ScenarioOutcome> {
        self.validate()?;
        if let ExperimentSpec::AdaptivePfd {
            model,
            cells,
            refinement,
            round: None,
        } = &self.experiment
        {
            let outcome = drive(
                Arc::new(model.build()?),
                self.seed.seed,
                *cells,
                refinement,
                AllocationStrategy::PosteriorDriven,
                job::in_process_rounds(threads),
            )?;
            return Ok(ScenarioOutcome::Adaptive(outcome));
        }
        job::compile(self)?.run_all(threads)
    }

    /// Parses a scenario from spec text, auto-detecting the format: JSON
    /// if the first non-whitespace byte is `{`, TOML otherwise.
    ///
    /// # Errors
    ///
    /// The format's parse errors or a shape mismatch.
    pub fn from_spec_text(text: &str) -> ScenarioResult<Scenario> {
        let first = text.chars().find(|c| !c.is_whitespace());
        if first == Some('{') {
            Ok(serde_json::from_str(text)?)
        } else {
            Ok(crate::toml::from_str(text)?)
        }
    }

    /// Renders the scenario as a TOML document.
    ///
    /// # Errors
    ///
    /// [`crate::toml::to_string`] errors (not reachable from a valid
    /// scenario).
    pub fn to_toml(&self) -> ScenarioResult<String> {
        Ok(crate::toml::to_string(self)?)
    }

    /// Renders the scenario as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`serde_json::to_string_pretty`] errors (not reachable from a
    /// valid scenario).
    pub fn to_json(&self) -> ScenarioResult<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

/// The sampling executors draw one version at a time from a marginal
/// model — a `SharedCause` spec would silently lose its correlation
/// there, so the families that cannot honour it refuse it up front.
/// Correlated creation is expressed campaign-side instead, through
/// [`divrel_protection::spec::CommonCauseSpec`] layers.
fn reject_shared_cause(model: &FaultModelSpec, family: &str) -> ScenarioResult<()> {
    if matches!(model, FaultModelSpec::SharedCause { .. }) {
        return Err(format!(
            "{family} samples versions independently and cannot honour a \
             SharedCause model; declare common_causes on a Protection \
             campaign instead"
        )
        .into());
    }
    Ok(())
}

/// The reduced accumulators a scenario run produces.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// Reduced Knight–Leveson replication statistics.
    KnightLeveson(KlSweepStats),
    /// Reduced forced-diversity statistics.
    ForcedDiversity(ForcedSweepStats),
    /// Monte-Carlo driver result.
    MonteCarlo(ExperimentResult),
    /// Protection-campaign outcome.
    Protection(CampaignOutcome),
    /// Rare-event estimation outcome.
    RareEvent(RareOutcome),
    /// Adaptive-sweep outcome (the full round loop).
    Adaptive(AdaptiveOutcome),
    /// One round of an adaptive sweep (evidence only — what each round
    /// of the loop, and a pinned-round spec, reduces to).
    AdaptiveRound(AdaptiveRoundOutcome),
}

impl ScenarioOutcome {
    /// The KL statistics, if this is a Knight–Leveson outcome.
    pub fn as_knight_leveson(&self) -> Option<&KlSweepStats> {
        match self {
            ScenarioOutcome::KnightLeveson(s) => Some(s),
            _ => None,
        }
    }

    /// The forced-diversity statistics, if applicable.
    pub fn as_forced(&self) -> Option<&ForcedSweepStats> {
        match self {
            ScenarioOutcome::ForcedDiversity(s) => Some(s),
            _ => None,
        }
    }

    /// The Monte-Carlo result, if applicable.
    pub fn as_monte_carlo(&self) -> Option<&ExperimentResult> {
        match self {
            ScenarioOutcome::MonteCarlo(r) => Some(r),
            _ => None,
        }
    }

    /// The campaign outcome, if applicable.
    pub fn as_protection(&self) -> Option<&CampaignOutcome> {
        match self {
            ScenarioOutcome::Protection(c) => Some(c),
            _ => None,
        }
    }

    /// The rare-event outcome, if applicable.
    pub fn as_rare_event(&self) -> Option<&RareOutcome> {
        match self {
            ScenarioOutcome::RareEvent(r) => Some(r),
            _ => None,
        }
    }

    /// The adaptive-sweep outcome, if applicable.
    pub fn as_adaptive(&self) -> Option<&AdaptiveOutcome> {
        match self {
            ScenarioOutcome::Adaptive(a) => Some(a),
            _ => None,
        }
    }

    /// The pinned-round outcome, if applicable.
    pub fn as_adaptive_round(&self) -> Option<&AdaptiveRoundOutcome> {
        match self {
            ScenarioOutcome::AdaptiveRound(r) => Some(r),
            _ => None,
        }
    }

    /// Renders the reduced accumulators as a [`ScenarioCard`] titled
    /// `name`.
    pub fn card(&self, name: &str) -> ScenarioCard {
        let mut card = ScenarioCard::new(name);
        match self {
            ScenarioOutcome::KnightLeveson(s) => {
                card.field("replications", s.replications.to_string())
                    .field(
                        "reduced mean AND σ",
                        format!("{}/{}", s.reduced_both, s.replications),
                    )
                    .field(
                        "normality rejected at 5%",
                        format!("{}/{}", s.normal_rejected, s.normal_tested),
                    )
                    .field("median mean-reduction", sig(s.median_mean_factor(), 4))
                    .field("median σ-reduction", sig(s.median_std_factor(), 4));
            }
            ScenarioOutcome::ForcedDiversity(s) => {
                card.field("process pairs", s.trials.to_string())
                    .field(
                        "forced worse than unforced",
                        format!("{}/{} (AM–GM forbids any)", s.worse_than_unforced, s.trials),
                    )
                    .field("mean forced/unforced PFD ratio", sig(s.mean_ratio(), 4));
            }
            ScenarioOutcome::MonteCarlo(r) => {
                card.field("sampled pairs", r.samples.to_string());
                let mut t = Table::new([
                    "level",
                    "mean PFD",
                    "std PFD",
                    "fault-free rate",
                    "mean fault count",
                ]);
                t.row([
                    "single version".to_string(),
                    sig(r.single.mean_pfd, 4),
                    sig(r.single.std_pfd, 4),
                    sig(r.single.fault_free_rate, 4),
                    sig(r.single.mean_fault_count, 4),
                ]);
                t.row([
                    "1oo2 pair".to_string(),
                    sig(r.pair.mean_pfd, 4),
                    sig(r.pair.std_pfd, 4),
                    sig(r.pair.fault_free_rate, 4),
                    sig(r.pair.mean_fault_count, 4),
                ]);
                card.table("levels", t);
                if let Some(rr) = r.risk_ratio {
                    card.field("risk ratio (eq 10)", sig(rr, 4));
                }
            }
            ScenarioOutcome::Protection(c) => {
                let mut vt = Table::new(["version", "process", "faults", "true PFD"]);
                for (i, v) in c.versions.iter().enumerate() {
                    vt.row([
                        format!("V{i}"),
                        v.process.to_string(),
                        format!("{:?}", v.fault_indices),
                        sig(v.true_pfd, 3),
                    ]);
                }
                card.table("sampled versions", vt);
                let mut st = Table::new([
                    "system",
                    "demands seen",
                    "observed PFD",
                    "true PFD (geometry)",
                ]);
                for s in &c.systems {
                    st.row([
                        s.label.clone(),
                        s.log.demands().to_string(),
                        sig(s.log.pfd_estimate().unwrap_or(f64::NAN), 3),
                        sig(s.true_pfd, 3),
                    ]);
                }
                card.table("operational campaigns", st);
                let mut pt = Table::new(["process", "E[PFD] single", "E[PFD] pair"]);
                for (i, p) in c.processes.iter().enumerate() {
                    pt.row([
                        i.to_string(),
                        sig(p.mean_pfd_single, 4),
                        sig(p.mean_pfd_pair, 4),
                    ]);
                }
                card.table("development processes", pt);
            }
            ScenarioOutcome::RareEvent(r) => {
                card.field("samples", r.samples.to_string())
                    .field("PFD estimate", sig(r.estimate, 4))
                    .field("true PFD (closed form)", sig(r.true_pfd, 4))
                    .field("std error", sig(r.std_error, 4))
                    .field("relative error", sig(r.relative_error, 4))
                    .field("effective sample size", sig(r.ess, 4))
                    .field("effective failing draws (payoff ESS)", sig(r.payoff_ess, 4));
                if r.payoff_ess < MIN_PAYOFF_ESS {
                    card.field(
                        "warning",
                        format!(
                            "fewer than {MIN_PAYOFF_ESS} effective failing draws: the \
                             std error and any interval built from it cannot be trusted"
                        ),
                    );
                }
            }
            ScenarioOutcome::Adaptive(a) => {
                card.field("cells", a.cells.len().to_string())
                    .field("confidence", sig(a.confidence, 4))
                    .field("target width", sig(a.target_width, 4))
                    .field("rounds", a.rounds.len().to_string())
                    .field("total demands", a.total_demands.to_string())
                    .field("converged", a.converged.to_string());
                let mut t = Table::new([
                    "cell",
                    "true PFD",
                    "demands",
                    "failures",
                    "posterior mean",
                    "credible interval",
                    "width",
                ]);
                for (c, cell) in a.cells.iter().enumerate() {
                    t.row([
                        c.to_string(),
                        sig(cell.true_pfd, 4),
                        cell.demands.to_string(),
                        cell.failures.to_string(),
                        sig(cell.posterior_mean, 4),
                        format!("[{}, {}]", sig(cell.lower, 4), sig(cell.upper, 4)),
                        sig(cell.width, 4),
                    ]);
                }
                card.table("cells", t);
                // Every round's allocation is provenance: how the
                // posterior steered the budget, replayable from the
                // spec alone.
                for r in &a.rounds {
                    card.provenance(
                        format!("round {}", r.round),
                        format!(
                            "{}; max width {}",
                            r.allocation_summary(),
                            sig(r.max_width, 4)
                        ),
                    );
                }
            }
            ScenarioOutcome::AdaptiveRound(r) => {
                let demands: u64 = r.evidence.iter().map(|e| e.demands).sum();
                let failures: u64 = r.evidence.iter().map(|e| e.failures).sum();
                card.field("round", r.round.to_string())
                    .field("cells", r.evidence.len().to_string())
                    .field("demands", demands.to_string())
                    .field("failures", failures.to_string());
            }
        }
        card
    }
}

/// One sampled version of a protection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionOutcome {
    /// Index of the development process that produced the version.
    pub process: usize,
    /// The faults the version carries.
    pub fault_indices: Vec<usize>,
    /// The version's exact PFD (geometric measure of its failure set).
    pub true_pfd: f64,
}

/// One protection system's campaign results.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOutcome {
    /// The system's label from the spec.
    pub label: String,
    /// The merged operation log of the sharded campaign.
    pub log: OperationLog,
    /// The system's exact PFD (intersection measure through the voting
    /// logic).
    pub true_pfd: f64,
}

/// Population-level expectations of one development process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOutcome {
    /// Eq (1) single-version mean PFD.
    pub mean_pfd_single: f64,
    /// Eq (1) 1oo2 pair mean PFD.
    pub mean_pfd_pair: f64,
}

/// Everything a protection-campaign scenario reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Per sampled version, in sampling order.
    pub versions: Vec<VersionOutcome>,
    /// Per system, in spec order.
    pub systems: Vec<SystemOutcome>,
    /// Per development process, in spec order.
    pub processes: Vec<ProcessOutcome>,
}

/// A protection campaign compiled to independently-evaluable shard
/// cells: the execution form both the in-process path and the
/// distributed runtime share.
///
/// The campaign's work is a grid of `systems × shards` cells; cell
/// `k` simulates shard `k % shards` of system `k / shards`, with the
/// exact per-shard seed and compile decision
/// [`simulation::run_sharded`] would use, so merging the per-cell logs
/// in cell order reproduces the sharded run **bit for bit** wherever
/// the cells actually executed. The sampling order (all versions first,
/// from one RNG stream seeded with the scenario seed) and the
/// per-system campaign seeds (`seed ^ seed_xor`) follow the F1
/// experiment's conventions exactly, which is what makes the `F1`
/// preset bit-identical to the hand-coded runner.
pub struct CampaignRuntime {
    spec: CampaignSpec,
    seed: u64,
    map: divrel_demand::mapping::FaultRegionMap,
    profile: divrel_demand::profile::Profile,
    plant: divrel_protection::Plant,
    compiled: Option<divrel_protection::compiler::CompiledPlant>,
    models: Vec<Arc<FaultModel>>,
    sampled: Vec<ProgramVersion>,
    systems: Vec<ProtectionSystem>,
    shard_counts: Vec<u64>,
}

impl CampaignRuntime {
    /// Compiles a campaign spec: builds the map, profile, plant (with
    /// the campaign-level compile decision), fault models, the sampled
    /// versions and every protection system.
    ///
    /// # Errors
    ///
    /// Spec validation and constructor errors.
    pub fn new(spec: &CampaignSpec, seed: u64) -> ScenarioResult<Self> {
        spec.validate()?;
        let map = spec.build_map()?;
        let profile = spec.build_profile()?;
        let models: Vec<Arc<FaultModel>> = spec
            .processes
            .iter()
            .map(|ps| Ok(Arc::new(map.to_fault_model(ps, &profile)?)))
            .collect::<Result<_, Box<dyn Error>>>()?;
        let factories: Vec<VersionFactory> = models
            .iter()
            .map(|m| VersionFactory::shared(Arc::clone(m), FaultIntroduction::Independent))
            .collect::<Result<_, _>>()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampled: Vec<ProgramVersion> = spec
            .versions
            .iter()
            .map(|&pi| {
                ProgramVersion::from_fault_set(factories[pi].sample_version(&mut rng).faults)
            })
            .collect();
        // Common-cause layers: one Bernoulli draw per declared cause,
        // *after* the independent sampling, on the same RNG stream — a
        // striking cause ORs its fault set into every covered version
        // at once. Specs without causes consume no extra draws, so
        // pre-existing scenarios reproduce bit for bit.
        if let Some(causes) = &spec.common_causes {
            use rand::Rng;
            for cause in causes {
                let strikes = rng.gen::<f64>() < cause.p;
                if !strikes {
                    continue;
                }
                let covered: Vec<usize> = match &cause.versions {
                    Some(vs) => vs.clone(),
                    None => (0..sampled.len()).collect(),
                };
                for vi in covered {
                    let mut indices = sampled[vi].fault_indices();
                    indices.extend_from_slice(&cause.regions);
                    indices.sort_unstable();
                    indices.dedup();
                    sampled[vi] = ProgramVersion::from_fault_indices(map.len(), &indices)?;
                }
            }
        }
        let plant = spec.build_plant(&profile)?;
        let compiled = simulation::campaign_compile(&plant, spec.steps)?;
        let systems = spec
            .systems
            .iter()
            .map(|sys| {
                let channels: Vec<Channel> = sys
                    .channels
                    .iter()
                    .map(|&vi| Channel::new(format!("V{vi}"), sampled[vi].clone()))
                    .collect();
                Ok(sys.build(channels, map.clone())?)
            })
            .collect::<Result<_, Box<dyn Error>>>()?;
        let shard_counts = simulation::shard_layout(spec.steps, spec.shards);
        Ok(CampaignRuntime {
            spec: spec.clone(),
            seed,
            map,
            profile,
            plant,
            compiled,
            models,
            sampled,
            systems,
            shard_counts,
        })
    }

    /// Shards per system in the deterministic layout (may be fewer than
    /// the spec's `shards` for very short campaigns).
    pub fn shards_per_system(&self) -> u64 {
        self.shard_counts.len() as u64
    }
}

impl CellJob for CampaignRuntime {
    const KIND: &'static str = "campaign";
    type Acc = OperationLog;

    fn cells(&self) -> u64 {
        self.systems.len() as u64 * self.shards_per_system()
    }

    fn run_cell(&self, k: u64) -> Result<OperationLog, String> {
        let shards = self.shards_per_system();
        let sys = (k / shards) as usize;
        let shard = (k % shards) as usize;
        let campaign_seed = self.seed ^ self.spec.systems[sys].seed_xor;
        simulation::run_campaign_shard(
            &self.plant,
            self.compiled.as_ref(),
            &self.systems[sys],
            self.spec.steps,
            self.shard_counts[shard],
            simulation::shard_seed(campaign_seed, shard),
        )
        .map_err(|e| e.to_string())
    }

    /// Also derives the deterministic side products: version outcomes,
    /// exact PFDs and process expectations.
    fn finish(&self, logs: Vec<OperationLog>) -> ScenarioResult<ScenarioOutcome> {
        let versions = self
            .spec
            .versions
            .iter()
            .zip(&self.sampled)
            .map(|(&pi, pv)| {
                Ok(VersionOutcome {
                    process: pi,
                    fault_indices: pv.fault_indices(),
                    true_pfd: pv.true_pfd(&self.map, &self.profile)?,
                })
            })
            .collect::<Result<_, Box<dyn Error>>>()?;
        let shards = self.shards_per_system() as usize;
        let mut systems = Vec::with_capacity(self.systems.len());
        for (si, (sys, system)) in self.spec.systems.iter().zip(&self.systems).enumerate() {
            let mut log = OperationLog::new(system.channels().len());
            for shard_log in &logs[si * shards..(si + 1) * shards] {
                log.merge(shard_log);
            }
            let true_pfd = system.true_pfd(&self.profile)?;
            systems.push(SystemOutcome {
                label: sys.label.clone(),
                log,
                true_pfd,
            });
        }
        let processes = self
            .models
            .iter()
            .map(|m| ProcessOutcome {
                mean_pfd_single: m.mean_pfd_single(),
                mean_pfd_pair: m.mean_pfd_pair(),
            })
            .collect();
        Ok(ScenarioOutcome::Protection(CampaignOutcome {
            versions,
            systems,
            processes,
        }))
    }
}

/// The built-in presets: each function re-expresses one hand-coded
/// runner as a spec, scaled by the [`Context`] exactly as the registry
/// entry scales itself.
pub mod presets {
    use super::*;
    use crate::experiments::knight_leveson::student_experiment_model;
    use crate::experiments::workloads;

    /// E16 — the Knight–Leveson replication grid over the
    /// student-experiment model.
    pub fn e16(ctx: &Context) -> Scenario {
        let model = student_experiment_model().expect("static parameters are valid");
        Scenario {
            name: "E16-knight-leveson".into(),
            seed: SeedSpec::new(ctx.seed),
            experiment: ExperimentSpec::KnightLeveson {
                model: FaultModelSpec::from_model(&model),
                replications: (ctx.samples(2_000) / 10).max(50),
            },
        }
    }

    /// E17 — the forced-diversity grid over random process pairs.
    pub fn e17(ctx: &Context) -> Scenario {
        Scenario {
            name: "E17-forced-diversity".into(),
            seed: SeedSpec::new(ctx.seed),
            experiment: ExperimentSpec::ForcedDiversity {
                trials: ctx.samples(5_000),
            },
        }
    }

    /// F1 — the Fig 1 protection campaign: 8 failure regions, three
    /// versions from one process, a 1oo2 OR system and a 2oo3 majority
    /// system against a rate-0.2 memoryless plant.
    pub fn f1(ctx: &Context) -> Scenario {
        let spec = CampaignSpec {
            space: GridSpace2D::new(100, 100).expect("static dimensions are valid"),
            regions: vec![
                Region::rect(0, 0, 19, 9),        // 200 cells, q = 0.02
                Region::rect(30, 0, 39, 9),       // 100 cells, q = 0.01
                Region::rect(50, 0, 54, 9),       // 50 cells,  q = 0.005
                Region::rect(60, 0, 63, 4),       // 20 cells,  q = 0.002
                Region::rect(70, 0, 72, 2),       // 9 cells,   q = 0.0009
                Region::lattice(0, 20, 5, 0, 10), // 10 cells, q = 0.001
                Region::lattice(0, 30, 3, 3, 8),  // 8 cells,  q = 0.0008
                Region::rect(90, 90, 99, 99),     // 100 cells, q = 0.01
            ],
            profile: ProfileSpec::Uniform,
            processes: vec![vec![0.25, 0.20, 0.15, 0.30, 0.10, 0.12, 0.08, 0.18]],
            versions: vec![0, 0, 0],
            systems: vec![
                SystemSpec::flat("1oo2 (Fig 1, OR)", vec![0, 1], Adjudicator::OneOutOfN, 0xF1),
                SystemSpec::flat(
                    "2oo3 (majority)",
                    vec![0, 1, 2],
                    Adjudicator::Majority,
                    0xF2,
                ),
            ],
            plant: PlantSpec::Rate { demand_rate: 0.2 },
            steps: ctx.samples(5_000_000) as u64,
            // Part of the RNG layout: pinned in the spec, never taken
            // from the host's core count.
            shards: 4,
            common_causes: None,
        };
        Scenario {
            name: "F1-protection".into(),
            seed: SeedSpec::new(ctx.seed),
            experiment: ExperimentSpec::Protection(spec),
        }
    }

    /// MC — the Monte-Carlo driver on the standard safety workload.
    pub fn mc(ctx: &Context) -> Scenario {
        Scenario {
            name: "MC-driver".into(),
            seed: SeedSpec::new(ctx.seed),
            experiment: ExperimentSpec::MonteCarlo {
                model: FaultModelSpec::from_model(&workloads::safety_model()),
                introduction: FaultIntroduction::Independent,
                samples: ctx.samples(100_000),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mc() -> Scenario {
        Scenario {
            name: "tiny".into(),
            seed: SeedSpec::new(11),
            experiment: ExperimentSpec::MonteCarlo {
                model: FaultModelSpec::Uniform {
                    n: 4,
                    p: 0.2,
                    q: 0.01,
                },
                introduction: FaultIntroduction::Independent,
                samples: 3_000,
            },
        }
    }

    #[test]
    fn monte_carlo_scenario_is_thread_invariant() {
        let s = tiny_mc();
        let base = s.run(1).unwrap();
        let sharded = s.run(3).unwrap();
        assert_eq!(base, sharded);
        let r = base.as_monte_carlo().unwrap();
        assert_eq!(r.samples, 3_000);
    }

    #[test]
    fn presets_exist_and_validate() {
        let ctx = Context::smoke();
        for id in Scenario::PRESETS {
            let s = Scenario::preset_with(id, &ctx).unwrap();
            s.validate().unwrap();
            // Full-scale presets parse the same way.
            assert!(Scenario::preset(id).is_some());
        }
        assert!(Scenario::preset("E99").is_none());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut s = tiny_mc();
        s.experiment = ExperimentSpec::MonteCarlo {
            model: FaultModelSpec::Uniform {
                n: 4,
                p: 0.2,
                q: 0.01,
            },
            introduction: FaultIntroduction::Independent,
            samples: 1,
        };
        assert!(s.validate().is_err());
        s.experiment = ExperimentSpec::ForcedDiversity { trials: 0 };
        assert!(s.validate().is_err());
        s.experiment = ExperimentSpec::KnightLeveson {
            model: FaultModelSpec::Uniform {
                n: 2,
                p: 0.1,
                q: 0.01,
            },
            replications: 0,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        // Integer-carrying spec numbers (`Value::Int`) have no f64
        // cliff: a seed anywhere in the u64 range survives both spec
        // formats bit-exactly.
        for seed in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let mut s = tiny_mc();
            s.seed = SeedSpec::new(seed);
            s.validate().expect("full-range seeds are valid");
            let toml = s.to_toml().unwrap();
            assert_eq!(Scenario::from_spec_text(&toml).unwrap().seed.seed, seed);
            let json = s.to_json().unwrap();
            assert_eq!(Scenario::from_spec_text(&json).unwrap().seed.seed, seed);
        }
        let ctx = Context::smoke();
        let mut f1 = Scenario::preset_with("F1", &ctx).unwrap();
        if let ExperimentSpec::Protection(campaign) = &mut f1.experiment {
            campaign.systems[0].seed_xor = (1 << 60) + 1;
        }
        f1.validate().expect("full-range seed_xor is valid");
        let toml = f1.to_toml().unwrap();
        let back = Scenario::from_spec_text(&toml).unwrap();
        assert_eq!(back, f1, "seed_xor above 2^53 drifted through TOML");
    }

    #[test]
    fn deeply_nested_spec_text_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(Scenario::from_spec_text(&format!("{{\"name\": {deep}")).is_err());
        assert!(Scenario::from_spec_text(&format!("name = {deep}")).is_err());
    }

    #[test]
    fn spec_text_round_trips_in_both_formats() {
        let ctx = Context::smoke();
        for id in Scenario::PRESETS {
            let s = Scenario::preset_with(id, &ctx).unwrap();
            let json = s.to_json().unwrap();
            assert_eq!(Scenario::from_spec_text(&json).unwrap(), s, "{id} JSON");
            let toml = s.to_toml().unwrap();
            assert_eq!(Scenario::from_spec_text(&toml).unwrap(), s, "{id} TOML");
        }
    }

    #[test]
    fn invalid_model_fails_at_run_time_with_context() {
        let mut s = tiny_mc();
        s.experiment = ExperimentSpec::MonteCarlo {
            model: FaultModelSpec::Uniform {
                n: 3,
                p: 1.5,
                q: 0.1,
            },
            introduction: FaultIntroduction::Independent,
            samples: 100,
        };
        assert!(s.run(1).is_err());
    }

    fn tiny_rare(estimator: RareEstimator) -> Scenario {
        Scenario {
            name: "tiny-rare".into(),
            seed: SeedSpec::new(13),
            experiment: ExperimentSpec::RareEvent {
                model: FaultModelSpec::SharedCause {
                    beta: 0.05,
                    base: Box::new(FaultModelSpec::Uniform {
                        n: 5,
                        p: 0.02,
                        q: 0.01,
                    }),
                },
                channels: 3,
                k: 2,
                samples: 20_000,
                estimator,
            },
        }
    }

    #[test]
    fn rare_event_scenarios_run_and_round_trip() {
        for est in [
            RareEstimator::Naive,
            RareEstimator::ImportanceTilt { theta: 3.0 },
            RareEstimator::StratifyByCount,
        ] {
            let s = tiny_rare(est);
            s.validate().unwrap();
            let toml = s.to_toml().unwrap();
            assert_eq!(Scenario::from_spec_text(&toml).unwrap(), s, "{est:?} TOML");
            let json = s.to_json().unwrap();
            assert_eq!(Scenario::from_spec_text(&json).unwrap(), s, "{est:?} JSON");
            let base = s.run(1).unwrap();
            assert_eq!(base, s.run(3).unwrap(), "{est:?} thread variance");
            let r = base.as_rare_event().unwrap();
            assert_eq!(r.samples, 20_000);
            assert!(
                (r.estimate - r.true_pfd).abs() < 6.0 * r.std_error,
                "{est:?}: estimate {} vs true {}",
                r.estimate,
                r.true_pfd
            );
            let md = base.card(&s.name).to_markdown();
            assert!(md.contains("true PFD"));
            assert!(md.contains("relative error"));
        }
    }

    #[test]
    fn rare_event_validation_rejects_bad_specs() {
        let mut s = tiny_rare(RareEstimator::Naive);
        if let ExperimentSpec::RareEvent { k, .. } = &mut s.experiment {
            *k = 5; // > channels
        }
        assert!(s.validate().is_err());
        let mut s = tiny_rare(RareEstimator::ImportanceTilt { theta: -2.0 });
        assert!(s.validate().is_err());
        if let ExperimentSpec::RareEvent {
            estimator,
            channels,
            k,
            ..
        } = &mut s.experiment
        {
            // 5 faults x (1 + 15 channels) = 80 bits > 64.
            *estimator = RareEstimator::StratifyByCount;
            *channels = 15;
            *k = 1;
        }
        assert!(s.validate().is_err());
    }

    fn tiny_adaptive() -> Scenario {
        Scenario {
            name: "tiny-adaptive".into(),
            seed: SeedSpec::new(29),
            experiment: ExperimentSpec::AdaptivePfd {
                model: FaultModelSpec::Uniform {
                    n: 2,
                    p: 0.25,
                    q: 0.004,
                },
                cells: 12,
                refinement: RefinementSpec {
                    confidence: 0.99,
                    target_width: 0.002,
                    initial_demands: 1_800,
                    round_demands: 6_000,
                    max_rounds: 40,
                },
                round: None,
            },
        }
    }

    #[test]
    fn adaptive_scenario_is_thread_invariant_and_round_trips() {
        let s = tiny_adaptive();
        s.validate().unwrap();
        let toml = s.to_toml().unwrap();
        assert_eq!(Scenario::from_spec_text(&toml).unwrap(), s, "TOML");
        // The hidden round slot leaves the committed spec text clean.
        assert!(
            !toml.contains("round ="),
            "round slot leaked into TOML:\n{toml}"
        );
        let json = s.to_json().unwrap();
        assert_eq!(Scenario::from_spec_text(&json).unwrap(), s, "JSON");
        let base = s.run(1).unwrap();
        for threads in [2, 7] {
            assert_eq!(
                base,
                s.run(threads).unwrap(),
                "thread variance at {threads}"
            );
        }
        let a = base.as_adaptive().unwrap();
        assert!(a.converged);
        assert!(
            a.rounds.len() >= 2,
            "refinement should take multiple rounds"
        );
        let md = base.card(&s.name).to_markdown();
        assert!(md.contains("total demands"));
        assert!(md.contains("credible interval"));
        // Every round's allocation is in the provenance trail.
        for r in 0..a.rounds.len() {
            assert!(
                md.contains(&format!("round {r}")),
                "round {r} missing:\n{md}"
            );
        }
    }

    #[test]
    fn pinned_rounds_run_and_round_trip() {
        let mut s = tiny_adaptive();
        if let ExperimentSpec::AdaptivePfd { round, .. } = &mut s.experiment {
            *round = Some(RoundPlan {
                round: 3,
                allocations: (0..12).map(|c| (c % 4) * 100).collect(),
            });
        }
        s.validate().unwrap();
        let toml = s.to_toml().unwrap();
        assert_eq!(Scenario::from_spec_text(&toml).unwrap(), s, "pinned TOML");
        let base = s.run(1).unwrap();
        assert_eq!(base, s.run(3).unwrap(), "pinned-round thread variance");
        let r = base.as_adaptive_round().unwrap();
        assert_eq!(r.round, 3);
        assert_eq!(r.evidence.len(), 12);
        for (c, ev) in r.evidence.iter().enumerate() {
            assert_eq!(ev.demands, ((c as u64) % 4) * 100);
        }
    }

    #[test]
    fn adaptive_validation_rejects_bad_specs() {
        let mut s = tiny_adaptive();
        if let ExperimentSpec::AdaptivePfd { cells, .. } = &mut s.experiment {
            *cells = 0;
        }
        assert!(s.validate().is_err());
        let mut s = tiny_adaptive();
        if let ExperimentSpec::AdaptivePfd { refinement, .. } = &mut s.experiment {
            refinement.confidence = 0.3;
        }
        assert!(s.validate().is_err());
        let mut s = tiny_adaptive();
        if let ExperimentSpec::AdaptivePfd { round, .. } = &mut s.experiment {
            *round = Some(RoundPlan {
                round: 0,
                allocations: vec![5; 3], // wrong length
            });
        }
        assert!(s.validate().is_err());
        let mut s = tiny_adaptive();
        if let ExperimentSpec::AdaptivePfd { model, .. } = &mut s.experiment {
            *model = FaultModelSpec::SharedCause {
                beta: 0.1,
                base: Box::new(FaultModelSpec::Uniform {
                    n: 2,
                    p: 0.2,
                    q: 0.01,
                }),
            };
        }
        assert!(s.validate().is_err());
    }

    #[test]
    fn campaign_card_lists_every_section() {
        let ctx = Context::smoke();
        let s = Scenario::preset_with("F1", &ctx).unwrap();
        let outcome = s.run(2).unwrap();
        let card = outcome.card(&s.name);
        let md = card.to_markdown();
        assert!(md.contains("sampled versions"));
        assert!(md.contains("operational campaigns"));
        assert!(md.contains("development processes"));
        assert!(md.contains("1oo2 (Fig 1, OR)"));
    }
}
