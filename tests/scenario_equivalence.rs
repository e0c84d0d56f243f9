//! The declarative scenario layer's contract, enforced end to end:
//!
//! 1. **Serde round trips are the identity** — `Scenario → JSON →
//!    Scenario` and `Scenario → TOML → Scenario` reproduce the spec
//!    exactly (proptests over the whole spec vocabulary).
//! 2. **Presets are bit-identical to the direct runners** — the `E16`,
//!    `E17`, `F1` and `MC` presets reduce to exactly the bits the
//!    hand-coded experiment paths produce (golden pins, compared down to
//!    `f64::to_bits`).
//! 3. **Committed example specs stay loadable** — every file in
//!    `scenarios/` parses and validates.
//! 4. **Hostile spec text is refused, never a panic** — arbitrary
//!    strings and committed specs mutated with TOML's structural tokens
//!    either load or fail with a typed error.

use divrel::demand::mapping::FaultRegionMap;
use divrel::demand::profile::Profile;
use divrel::demand::region::Region;
use divrel::demand::space::{Demand, GridSpace2D};
use divrel::demand::version::ProgramVersion;
use divrel::devsim::experiment::MonteCarloExperiment;
use divrel::devsim::factory::VersionFactory;
use divrel::devsim::process::FaultIntroduction;
use divrel::model::spec::FaultModelSpec;
use divrel::numerics::sweep::SeedSpec;
use divrel::protection::spec::{CampaignSpec, CommonCauseSpec, PlantSpec, ProfileSpec, SystemSpec};
use divrel::protection::{simulation, Adjudicator, Channel, FaultTree, ProtectionSystem};
use divrel_bench::experiments::knight_leveson::student_experiment_model;
use divrel_bench::experiments::workloads;
use divrel_bench::scenario::{presets, ExperimentSpec, Scenario};
use divrel_bench::sweep::{forced_sweep, kl_sweep};
use divrel_bench::toml::TomlError;
use divrel_bench::Context;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Golden pins: preset vs direct runner, bit for bit.
// ---------------------------------------------------------------------

#[test]
fn golden_e16_preset_bit_identical_to_direct_kl_sweep() {
    let ctx = Context::smoke();
    let scenario = presets::e16(&ctx);
    let outcome = scenario.run(ctx.threads).unwrap();
    let stats = outcome.as_knight_leveson().unwrap();
    // The scaled smoke preset asks for exactly 100 replications.
    assert_eq!(stats.replications, 100);
    let direct = kl_sweep(
        &student_experiment_model().unwrap(),
        100,
        ctx.seed,
        ctx.threads,
    )
    .unwrap();
    assert_eq!(*stats, direct);
    for (a, b) in stats.std_factors.iter().zip(&direct.std_factors) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in stats.mean_factors.iter().zip(&direct.mean_factors) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn golden_e17_preset_bit_identical_to_direct_forced_sweep() {
    let ctx = Context::smoke();
    let scenario = presets::e17(&ctx);
    let outcome = scenario.run(ctx.threads).unwrap();
    let stats = outcome.as_forced().unwrap();
    assert_eq!(stats.trials, 1_000);
    let direct = forced_sweep(1_000, ctx.seed, ctx.threads).unwrap();
    assert_eq!(*stats, direct);
    assert_eq!(
        stats.advantage_sum.to_bits(),
        direct.advantage_sum.to_bits()
    );
}

#[test]
fn golden_mc_preset_bit_identical_to_direct_driver() {
    let ctx = Context::smoke();
    let scenario = presets::mc(&ctx);
    let outcome = scenario.run(ctx.threads).unwrap();
    let r = outcome.as_monte_carlo().unwrap();
    let direct =
        MonteCarloExperiment::new(workloads::safety_model(), FaultIntroduction::Independent)
            .samples(ctx.samples(100_000))
            .seed(ctx.seed)
            .threads(ctx.threads)
            .run()
            .unwrap();
    assert_eq!(*r, direct);
    assert_eq!(
        r.single.mean_pfd.to_bits(),
        direct.single.mean_pfd.to_bits()
    );
    assert_eq!(r.pair.std_pfd.to_bits(), direct.pair.std_pfd.to_bits());
}

/// The F1 direct runner, replicated literally (the pre-scenario code
/// path of `experiments::protection_f1`): this pin guarantees the
/// scenario executor reproduces the hand-coded campaign bit for bit —
/// same version-sampling stream, same per-system campaign seeds, same
/// sharded reduction.
#[test]
fn golden_f1_preset_bit_identical_to_direct_campaign() {
    let ctx = Context::smoke();
    let scenario = presets::f1(&ctx);
    let outcome = scenario.run(ctx.threads).unwrap();
    let c = outcome.as_protection().unwrap();

    // --- direct path -------------------------------------------------
    let space = GridSpace2D::new(100, 100).unwrap();
    let profile = Profile::uniform(&space);
    let regions = vec![
        Region::rect(0, 0, 19, 9),
        Region::rect(30, 0, 39, 9),
        Region::rect(50, 0, 54, 9),
        Region::rect(60, 0, 63, 4),
        Region::rect(70, 0, 72, 2),
        Region::lattice(0, 20, 5, 0, 10),
        Region::lattice(0, 30, 3, 3, 8),
        Region::rect(90, 90, 99, 99),
    ];
    let map = FaultRegionMap::new(space, regions).unwrap();
    let ps = [0.25, 0.20, 0.15, 0.30, 0.10, 0.12, 0.08, 0.18];
    let model = map.to_fault_model(&ps, &profile).unwrap();
    let factory = VersionFactory::new(model, FaultIntroduction::Independent).unwrap();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let va = factory.sample_version(&mut rng);
    let vb = factory.sample_version(&mut rng);
    let vc = factory.sample_version(&mut rng);
    let pa = ProgramVersion::from_fault_set(va.faults.clone());
    let pb = ProgramVersion::from_fault_set(vb.faults.clone());
    let pc = ProgramVersion::from_fault_set(vc.faults.clone());
    let one_oo_two = ProtectionSystem::new(
        vec![Channel::new("A", pa.clone()), Channel::new("B", pb.clone())],
        Adjudicator::OneOutOfN,
        map.clone(),
    )
    .unwrap();
    let two_oo_three = ProtectionSystem::new(
        vec![
            Channel::new("A", pa.clone()),
            Channel::new("B", pb),
            Channel::new("C", pc),
        ],
        Adjudicator::Majority,
        map.clone(),
    )
    .unwrap();
    let plant = divrel::protection::Plant::with_demand_rate(profile.clone(), 0.2).unwrap();
    let steps = ctx.samples(5_000_000) as u64;
    let threads = 4;
    let log2 =
        simulation::run_sharded(&plant, &one_oo_two, steps, threads, ctx.seed ^ 0xF1).unwrap();
    let log3 =
        simulation::run_sharded(&plant, &two_oo_three, steps, threads, ctx.seed ^ 0xF2).unwrap();
    let truth2 = one_oo_two.true_pfd(&profile).unwrap();
    let truth3 = two_oo_three.true_pfd(&profile).unwrap();

    // --- bitwise agreement -------------------------------------------
    assert_eq!(c.systems.len(), 2);
    assert_eq!(c.systems[0].log, log2);
    assert_eq!(c.systems[1].log, log3);
    assert_eq!(c.systems[0].true_pfd.to_bits(), truth2.to_bits());
    assert_eq!(c.systems[1].true_pfd.to_bits(), truth3.to_bits());
    assert_eq!(c.versions[0].fault_indices, pa.fault_indices());
    assert_eq!(
        c.versions[0].true_pfd.to_bits(),
        pa.true_pfd(&map, &profile).unwrap().to_bits()
    );
    assert_eq!(
        c.processes[0].mean_pfd_pair.to_bits(),
        factory.model().mean_pfd_pair().to_bits()
    );
}

#[test]
fn scenario_outcomes_are_thread_invariant() {
    let ctx = Context::smoke();
    for id in ["E16", "E17", "MC"] {
        let s = Scenario::preset_with(id, &ctx).unwrap();
        let base = s.run(1).unwrap();
        for threads in [2, 7] {
            assert_eq!(base, s.run(threads).unwrap(), "{id} at {threads} threads");
        }
    }
    // The campaign's shard count lives in the spec, so the worker-thread
    // hint cannot change the F1 outcome either.
    let f1 = Scenario::preset_with("F1", &ctx).unwrap();
    assert_eq!(f1.run(1).unwrap(), f1.run(3).unwrap());
}

// ---------------------------------------------------------------------
// Committed example specs.
// ---------------------------------------------------------------------

#[test]
fn committed_scenario_files_parse_and_validate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut names = Vec::new();
    let mut saw_markov = false;
    for entry in std::fs::read_dir(dir).expect("scenarios/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario = Scenario::from_spec_text(&text)
            .unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{path:?} does not validate: {e}"));
        if let ExperimentSpec::Protection(campaign) = &scenario.experiment {
            saw_markov |= matches!(campaign.plant, PlantSpec::MarkovWalk { .. });
        }
        names.push(scenario.name.clone());
    }
    assert!(
        names.len() >= 4,
        "expected >= 4 example specs, got {names:?}"
    );
    assert!(saw_markov, "expected a Markov-walk example spec");
    // The examples go beyond the paper: none of them is a preset.
    for id in Scenario::PRESETS {
        let preset = Scenario::preset(id).unwrap();
        assert!(
            !names.contains(&preset.name),
            "{id} duplicated in scenarios/"
        );
    }
}

// ---------------------------------------------------------------------
// Serde round-trip proptests.
// ---------------------------------------------------------------------

fn arb_model_spec() -> impl Strategy<Value = FaultModelSpec> {
    prop_oneof![
        proptest::collection::vec((0.0..1.0f64, 0.0..0.05f64), 1..8).prop_map(|terms| {
            let (ps, qs) = terms.into_iter().unzip();
            FaultModelSpec::Params { ps, qs }
        }),
        (1usize..30, 0.0..1.0f64, 0.0..0.05f64).prop_map(|(n, p, q)| FaultModelSpec::Uniform {
            n,
            p,
            q
        }),
        (
            1usize..20,
            0.0..0.5f64,
            0.0..1.0f64,
            0.0..0.05f64,
            0.0..1.0f64
        )
            .prop_map(|(n, p0, p_ratio, q0, q_ratio)| FaultModelSpec::Geometric {
                n,
                p0,
                p_ratio,
                q0,
                q_ratio
            }),
        (
            1usize..4,
            0.0..1.0f64,
            0.0..0.1f64,
            0usize..40,
            0.0..0.5f64,
            0.0..0.01f64
        )
            .prop_map(|(n_large, p_large, q_large, n_small, p_small, q_small)| {
                FaultModelSpec::Bimodal {
                    n_large,
                    p_large,
                    q_large,
                    n_small,
                    p_small,
                    q_small,
                }
            }),
    ]
}

fn arb_introduction() -> impl Strategy<Value = FaultIntroduction> {
    prop_oneof![
        Just(FaultIntroduction::Independent),
        (0.0..1.0f64).prop_map(|lambda| FaultIntroduction::CommonCause { lambda }),
        (0.0..1.0f64).prop_map(|lambda| FaultIntroduction::Antithetic { lambda }),
    ]
}

fn arb_leaf_region() -> Union<Region> {
    prop_oneof![
        (0u32..60, 0u32..60, 0u32..8, 0u32..8).prop_map(|(x0, y0, w, h)| Region::rect(
            x0,
            y0,
            x0 + w,
            y0 + h
        )),
        (0u32..60, 0u32..60, 1u32..4, 0u32..4, 1u32..8)
            .prop_map(|(x0, y0, dx, dy, count)| Region::lattice(x0, y0, dx, dy, count)),
        proptest::collection::vec((0u32..60, 0u32..60), 0..5)
            .prop_map(|pts| Region::points(pts.into_iter().map(|(a, b)| Demand::new(a, b)))),
    ]
}

fn arb_region() -> impl Strategy<Value = Region> {
    prop_oneof![
        arb_leaf_region(),
        proptest::collection::vec(arb_leaf_region(), 1..3).prop_map(Region::union),
    ]
}

fn arb_profile() -> impl Strategy<Value = ProfileSpec> {
    prop_oneof![
        Just(ProfileSpec::Uniform),
        proptest::collection::vec(0.0..1.0f64, 1..6).prop_map(ProfileSpec::Weights),
        (
            proptest::collection::vec((0u32..60, 0u32..60), 0..4),
            0.0..1.0f64
        )
            .prop_map(|(pts, mass)| ProfileSpec::Hotspot {
                centres: pts.into_iter().map(|(a, b)| Demand::new(a, b)).collect(),
                mass
            }),
    ]
}

fn arb_plant() -> impl Strategy<Value = PlantSpec> {
    prop_oneof![
        (0.001..1.0f64).prop_map(|demand_rate| PlantSpec::Rate { demand_rate }),
        (arb_region(), 1u32..5).prop_map(|(trip, step)| PlantSpec::Trajectory { trip, step }),
        (arb_region(), 1u32..5, 0.001..1.0f64).prop_map(|(trip, step, move_prob)| {
            PlantSpec::MarkovWalk {
                trip,
                step,
                move_prob,
            }
        }),
    ]
}

fn arb_label() -> impl Strategy<Value = String> {
    // Printable ASCII, including the characters the TOML renderer must
    // escape or quote (" \\ # = [ ] { }).
    proptest::collection::vec(32u8..127, 0..16)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

fn arb_tree() -> impl Strategy<Value = FaultTree> {
    // The vendored proptest facade has no recursion combinator, so the
    // tree shapes are enumerated: leaves, flat gates, and nested gates
    // covering every variant (and every serialised form).
    (0usize..6, 1usize..4, 0usize..4).prop_map(|(shape, k, c)| match shape {
        0 => FaultTree::Channel(c),
        1 => FaultTree::AnyOf(vec![FaultTree::Channel(c), FaultTree::Channel(c + 1)]),
        2 => FaultTree::AllOf(vec![FaultTree::Channel(c), FaultTree::Channel(c + 1)]),
        3 => FaultTree::k_of_first_n(k.min(3), 3),
        4 => FaultTree::AnyOf(vec![
            FaultTree::AllOf(vec![FaultTree::Channel(0), FaultTree::Channel(1)]),
            FaultTree::Channel(c),
        ]),
        _ => FaultTree::KOfN {
            k: 2,
            of: vec![
                FaultTree::Channel(c),
                FaultTree::AnyOf(vec![FaultTree::Channel(0), FaultTree::Channel(1)]),
                FaultTree::AllOf(vec![FaultTree::Channel(2), FaultTree::Channel(3)]),
            ],
        },
    })
}

fn arb_system() -> impl Strategy<Value = SystemSpec> {
    (
        arb_label(),
        proptest::collection::vec(0usize..8, 1..4),
        prop_oneof![
            Just(Adjudicator::OneOutOfN).prop_map(Some),
            Just(Adjudicator::AllOutOfN).prop_map(Some),
            Just(Adjudicator::Majority).prop_map(Some),
            (1usize..5).prop_map(|k| Some(Adjudicator::KOutOfN { k })),
            Just(None),
        ],
        prop_oneof![Just(None), arb_tree().prop_map(Some)],
        0u64..(1 << 32),
    )
        .prop_map(
            |(label, channels, adjudicator, tree, seed_xor)| SystemSpec {
                label,
                channels,
                adjudicator,
                tree,
                seed_xor,
            },
        )
}

fn arb_campaign() -> impl Strategy<Value = CampaignSpec> {
    (
        (
            (2u32..100, 2u32..100),
            proptest::collection::vec(arb_region(), 1..4),
            arb_profile(),
            proptest::collection::vec(proptest::collection::vec(0.0..1.0f64, 0..5), 1..3),
            proptest::collection::vec(0usize..3, 1..5),
        ),
        (
            proptest::collection::vec(arb_system(), 1..3),
            arb_plant(),
            0u64..1_000_000_000,
            1usize..9,
            prop_oneof![
                Just(None),
                proptest::collection::vec(arb_cause(), 1..3).prop_map(Some)
            ],
        ),
    )
        .prop_map(
            |(
                ((nx, ny), regions, profile, processes, versions),
                (systems, plant, steps, shards, common_causes),
            )| {
                CampaignSpec {
                    space: GridSpace2D::new(nx, ny).expect("positive dims"),
                    regions,
                    profile,
                    processes,
                    versions,
                    systems,
                    plant,
                    steps,
                    shards,
                    common_causes,
                }
            },
        )
}

fn arb_cause() -> impl Strategy<Value = CommonCauseSpec> {
    (
        0.0..=1.0f64,
        proptest::collection::vec(0usize..4, 1..3),
        prop_oneof![
            Just(None),
            proptest::collection::vec(0usize..5, 1..3).prop_map(Some)
        ],
    )
        .prop_map(|(p, regions, versions)| CommonCauseSpec {
            p,
            regions,
            versions,
        })
}

fn arb_experiment() -> impl Strategy<Value = ExperimentSpec> {
    prop_oneof![
        (arb_model_spec(), 1usize..10_000).prop_map(|(model, replications)| {
            ExperimentSpec::KnightLeveson {
                model,
                replications,
            }
        }),
        (1usize..1_000_000).prop_map(|trials| ExperimentSpec::ForcedDiversity { trials }),
        (arb_model_spec(), arb_introduction(), 2usize..10_000_000).prop_map(
            |(model, introduction, samples)| ExperimentSpec::MonteCarlo {
                model,
                introduction,
                samples
            }
        ),
        arb_campaign().prop_map(ExperimentSpec::Protection),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (arb_label(), 0u64..(1 << 53), arb_experiment()).prop_map(|(name, seed, experiment)| Scenario {
        name,
        seed: SeedSpec::new(seed),
        experiment,
    })
}

proptest! {
    /// Scenario → JSON → Scenario is the identity (including every f64,
    /// bit for bit, via PartialEq on the spec tree).
    #[test]
    fn scenario_json_round_trip_is_identity(scenario in arb_scenario()) {
        let json = scenario.to_json().unwrap();
        let back = Scenario::from_spec_text(&json).unwrap();
        prop_assert_eq!(back, scenario);
    }

    /// Scenario → TOML → Scenario is the identity.
    #[test]
    fn scenario_toml_round_trip_is_identity(scenario in arb_scenario()) {
        let toml = scenario.to_toml().unwrap();
        let back = match Scenario::from_spec_text(&toml) {
            Ok(back) => back,
            Err(e) => return Err(format!("TOML reparse failed: {e}\n{toml}")),
        };
        prop_assert_eq!(back, scenario);
    }
}

// ---------------------------------------------------------------------
// Hostile spec text.
// ---------------------------------------------------------------------

/// The committed specs' texts.
fn committed_spec_texts() -> &'static [String] {
    static TEXTS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    TEXTS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("scenarios/ directory exists")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "toml"))
            .collect();
        paths.sort();
        let texts = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("spec reads"));
        texts.collect()
    })
}

/// TOML's structural tokens, escapes, and numbers at the edges of what
/// the parser reads.
const TOML_TOKENS: &[&str] = &[
    "[",
    "]",
    "[[",
    "]]",
    "{",
    "}",
    "=",
    ",",
    ".",
    "\"",
    "'",
    "\"\"\"",
    "'''",
    "#",
    "\n",
    "\\",
    "\\u",
    "-",
    "+",
    "inf",
    "nan",
    "0x",
    "1e999",
    "18446744073709551616",
    "true",
    " ",
];

/// `text` with each edit applied, in characters: `(0, at, t)` inserts
/// token `t` at `at`, `(1, at, t)` puts it in place of the character
/// there, and `(2, at, _)` deletes from `at` to the end of its line.
fn mutate_spec(text: &str, edits: Vec<(u8, usize, usize)>) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for (op, at, token) in edits {
        let at = at % (chars.len() + 1);
        let token = TOML_TOKENS[token % TOML_TOKENS.len()].chars();
        match op {
            0 => drop(chars.splice(at..at, token)),
            1 => drop(chars.splice(at..(at + 1).min(chars.len()), token)),
            _ => {
                let end = chars[at..].iter().position(|&c| c == '\n');
                chars.drain(at..end.map_or(chars.len(), |n| at + n));
            }
        }
    }
    chars.into_iter().collect()
}

/// Feeds `text` through the TOML reader and the spec loader: each
/// either accepts it or returns its typed error, and a loaded spec
/// validates or is refused.
fn load_hostile(text: &str) -> Result<(), String> {
    let parsed: Result<_, TomlError> = divrel_bench::toml::parse(text);
    match Scenario::from_spec_text(text) {
        Ok(scenario) => {
            prop_assert!(parsed.is_ok() || text.trim_start().starts_with('{'));
            if let Err(e) = scenario.validate() {
                prop_assert!(!e.to_string().is_empty());
            }
        }
        Err(e) => prop_assert!(
            e.is::<TomlError>() || e.is::<serde_json::Error>(),
            "an untyped load error: {e}"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_never_panics_the_spec_loader(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        load_hostile(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_committed_specs_never_panic_the_spec_loader(
        spec in 0usize..64,
        edits in proptest::collection::vec((0u8..3, 0usize..1 << 16, 0usize..64), 1..6),
    ) {
        let texts = committed_spec_texts();
        load_hostile(&mutate_spec(&texts[spec % texts.len()], edits))?;
    }
}
