//! Golden spec-hash pins for the committed `scenarios/` files.
//!
//! The coordinator/worker runtime, the persistent-worker compiled-spec
//! caches, and the write-ahead lease journals are all keyed by
//! [`spec_hash`] of the **canonical TOML** a scenario re-renders to.
//! These pins freeze the canonical form of every committed spec: if a
//! spec-vocabulary change (new adjudicator variants, new optional
//! fields, renderer edits) perturbs the canonical text of an existing
//! file, warm worker caches and resumable journals in the field would
//! silently invalidate — so the change fails here first and must be
//! made back-compatible instead. The wire pins do the same for the
//! per-cell accumulator bytes those journals and result frames carry.

use divrel::devsim::adaptive::uniform_allocation;
use divrel::devsim::sweep::CellRange;
use divrel_bench::adaptive::{drive, AllocationStrategy, RoundPlan};
use divrel_bench::dist::{round_digest, spec_hash, DistJob};
use divrel_bench::job::in_process_rounds;
use divrel_bench::scenario::{ExperimentSpec, Scenario};
use divrel_bench::Context;
use std::sync::Arc;

/// `(committed file, pinned fnv1a hash of the canonical TOML)`.
///
/// The first four pins date from PR 7 (before fault-tree adjudication
/// and common-cause layers entered the vocabulary) and must never
/// change for these files; the next two pin the canonical form of the
/// fault-tree and common-cause specs the vocabulary change introduced,
/// the next pins the PR 9 rare-event estimator spec, and the last pins
/// the PR 10 posterior-driven adaptive sweep spec.
const PINS: &[(&str, &str)] = &[
    (
        "scenarios/asymmetric_difficulty.toml",
        "fnv1a:b74c16896b9f2033",
    ),
    ("scenarios/kl_bimodal.toml", "fnv1a:960b976c8fb3a971"),
    ("scenarios/slow_markov_plant.toml", "fnv1a:07add158125d75fc"),
    (
        "scenarios/three_channel_forced.toml",
        "fnv1a:8991b09e4b04f926",
    ),
    ("scenarios/tree_2oo3.toml", "fnv1a:88c379311537d74e"),
    (
        "scenarios/common_cause_diversity.toml",
        "fnv1a:51c55f1850138822",
    ),
    (
        "scenarios/rare_event_protection.toml",
        "fnv1a:b03c45370317bc43",
    ),
    (
        "scenarios/adaptive_confidence.toml",
        "fnv1a:70a79100810d4457",
    ),
];

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn committed_scenario_spec_hashes_are_pinned() {
    for (file, pinned) in PINS {
        let text =
            std::fs::read_to_string(repo_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let scenario =
            Scenario::from_spec_text(&text).unwrap_or_else(|e| panic!("{file}: parse: {e}"));
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{file}: validate: {e}"));
        let canonical = scenario
            .to_toml()
            .unwrap_or_else(|e| panic!("{file}: to_toml: {e}"));
        let hash = spec_hash(&canonical);
        assert_eq!(
            &hash, pinned,
            "{file}: canonical spec hash drifted — persistent-worker \
             caches and lease journals keyed by the old hash would be \
             invalidated"
        );
    }
}

/// The canonical form must also be a fixed point: re-parsing the
/// canonical text and re-rendering it reproduces the same bytes (and
/// therefore the same hash) — the property the cached-spec handshake
/// relies on when a worker re-derives the hash from shipped text.
#[test]
fn canonical_toml_is_a_fixed_point_for_committed_specs() {
    for (file, _) in PINS {
        let text =
            std::fs::read_to_string(repo_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let scenario = Scenario::from_spec_text(&text).expect("parses");
        let canonical = scenario.to_toml().expect("renders");
        let reparsed = Scenario::from_spec_text(&canonical).expect("canonical parses");
        let again = reparsed.to_toml().expect("re-renders");
        assert_eq!(
            canonical, again,
            "{file}: canonical TOML is not a fixed point"
        );
    }
}

/// `(input, pinned spec_hash of the hex of its cells' binary wire
/// bytes)`: every committed spec plus the E17 smoke preset, the one
/// forced-diversity input. Result frames and lease journals carry
/// these bytes, so a renamed kind tag or a reordered accumulator field
/// would strand every journal an earlier build wrote.
///
/// `adaptive_confidence` moved once on purpose, from
/// `fnv1a:a72531a798da3763`, when adaptive cells began drawing their
/// failures as geometric gaps: same law, another random stream (journal
/// format v2 refuses the older evidence).
///
/// `adaptive_confidence` moved a second time on purpose, from
/// `fnv1a:184aed6b5ddd68b0`, when a round's cells began batching
/// consecutive versions: a cell is `{failures: [..], demands: [..]}`,
/// one list entry per version, instead of one `{failures, demands}`
/// record per version; the committed spec's 24 versions still make 24
/// one-version cells, and every count kept its value (journal format v4
/// refuses the older records).
///
/// `rare_event_protection` moved once on purpose, from
/// `fnv1a:910c8965ef5490e9`, when every rare-event estimator began
/// folding into one weighted mean: a cell is the bare `WeightedMean`,
/// without the empty `strata` field beside it, and its numbers kept
/// every bit (journal format v3 refuses the older records).
///
/// `rare_event_protection` moved a second time on purpose, from
/// `fnv1a:d34e11ac5a71d005`, when naive and tilted rare-event cells
/// began drawing the concatenated `γ ++ ρ×channels` fault universe from
/// one plan instead of one lane per layer: same law, another random
/// stream (journal format v5 and protocol v6 refuse the older cells).
const WIRE_PINS: &[(&str, &str)] = &[
    ("adaptive_confidence", "fnv1a:222cc249e61709b8"),
    ("asymmetric_difficulty", "fnv1a:59b21e44ecac7cde"),
    ("common_cause_diversity", "fnv1a:048b97a663a44ba9"),
    ("kl_bimodal", "fnv1a:a2957f2279c0ee6b"),
    ("rare_event_protection", "fnv1a:93c68a8d0df76fc8"),
    ("slow_markov_plant", "fnv1a:848956bf34709885"),
    ("three_channel_forced", "fnv1a:fce94f013c249d76"),
    ("tree_2oo3", "fnv1a:245ef89de10eeaf9"),
    ("E17", "fnv1a:daad843ae86cd621"),
];

/// The scenario behind a [`WIRE_PINS`] input. The adaptive spec is a
/// round loop, so its grid is round 0 at the uniform initial
/// allocation.
fn wire_pin_input(input: &str) -> Scenario {
    if input == "E17" {
        return Scenario::preset_with(input, &Context::smoke()).expect("E17 preset");
    }
    let file = format!("scenarios/{input}.toml");
    let text = std::fs::read_to_string(repo_path(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut scenario =
        Scenario::from_spec_text(&text).unwrap_or_else(|e| panic!("{file}: parse: {e}"));
    if let ExperimentSpec::AdaptivePfd {
        cells,
        refinement,
        round,
        ..
    } = &mut scenario.experiment
    {
        *round = Some(RoundPlan {
            round: 0,
            allocations: uniform_allocation(refinement.initial_demands, *cells),
        });
    }
    scenario
}

#[test]
fn cell_wire_bytes_are_pinned() {
    let mut inputs: Vec<String> = std::fs::read_dir(repo_path("scenarios"))
        .expect("scenarios/ exists")
        .filter_map(|entry| {
            let path = entry.expect("readable entry").path();
            let stem = path.file_stem()?.to_str()?.to_string();
            path.extension()
                .is_some_and(|e| e == "toml")
                .then_some(stem)
        })
        .collect();
    inputs.push("E17".into());
    inputs.sort();
    let mut pinned: Vec<&str> = WIRE_PINS.iter().map(|(input, _)| *input).collect();
    pinned.sort_unstable();
    assert_eq!(inputs, pinned, "every committed spec needs a wire pin");
    for (input, digest) in WIRE_PINS {
        let job = DistJob::new(wire_pin_input(input), 1).unwrap_or_else(|e| panic!("{input}: {e}"));
        let wires = job
            .run_range(CellRange::new(0, job.cell_count()))
            .unwrap_or_else(|e| panic!("{input}: {e}"));
        let mut bytes = Vec::new();
        for wire in &wires {
            wire.encode_binary(&mut bytes);
        }
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            &spec_hash(&hex),
            digest,
            "{input}: cell wire bytes drifted — journals and result frames \
             written by earlier builds would no longer fold"
        );
    }
}

/// The [`round_digest`]s of the committed adaptive spec's first three
/// rounds. A round's journal header pins its digest and a worker's
/// `Ready` echoes it, so a change to the digest's byte layout, to the
/// session's canonical spec or to the allocations the posterior loop
/// derives strands every round journal an earlier build wrote.
const ROUND_PINS: [&str; 3] = [
    "fnv1a:0546380813354757",
    "fnv1a:933d3a013349ca36",
    "fnv1a:3ed3d85bdd61b9a8",
];

#[test]
fn committed_round_digests_are_pinned() {
    let file = "scenarios/adaptive_confidence.toml";
    let text = std::fs::read_to_string(repo_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let scenario = Scenario::from_spec_text(&text).expect("the adaptive spec parses");
    let hash = spec_hash(&scenario.to_toml().expect("renders"));
    let ExperimentSpec::AdaptivePfd {
        model,
        cells,
        refinement,
        ..
    } = &scenario.experiment
    else {
        panic!("{file} is an adaptive spec");
    };
    let run_round = in_process_rounds(1);
    let mut digests = Vec::new();
    drive(
        Arc::new(model.build().expect("model builds")),
        scenario.seed.seed,
        *cells,
        refinement,
        AllocationStrategy::PosteriorDriven,
        |runtime, round, allocations| {
            digests.push(round_digest(&hash, round, allocations));
            run_round(runtime, round, allocations)
        },
    )
    .expect("the round loop runs");
    assert_eq!(
        digests[..ROUND_PINS.len()],
        ROUND_PINS,
        "{file}: round digests drifted — round journals written by earlier \
         builds would be refused"
    );
}
