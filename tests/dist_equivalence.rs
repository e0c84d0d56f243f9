//! Distributed-execution equivalence: the acceptance gate of the
//! coordinator/worker runtime.
//!
//! The contract under test is the PR 3 determinism guarantee lifted one
//! level: for **every committed spec in `scenarios/` and every built-in
//! preset**, executing the scenario on a coordinator + worker fleet —
//! any worker count, any lease partitioning, and any worker
//! failure/retry history — reduces to the **exact bits** of the
//! single-process [`Scenario::run`]. The suite drives real [`Worker`]s
//! over in-memory OS pipes (the same `JsonLines` framing the stdio and
//! TCP fleets use), kills one mid-lease to force a re-issue, and
//! additionally holds every wire-format accumulator to the
//! `from_wire(to_wire(x)) == x` bit-identity contract with proptests.

use divrel::devsim::adaptive::CellEvidence;
use divrel::devsim::experiment::{run_cell, McAccumulator, MonteCarloExperiment};
use divrel::devsim::process::FaultIntroduction;
use divrel::model::FaultModel;
use divrel::numerics::descriptive::Moments;
use divrel::numerics::sweep::SweepReduce;
use divrel::numerics::wire::{Wire, WireForm};
use divrel::protection::OperationLog;
use divrel_bench::dist::{
    AdaptiveCoordinator, AdaptiveDistRun, Coordinator, DistRun, JsonLines, Transport, Worker,
    WorkerSummary,
};
use divrel_bench::scenario::{ExperimentSpec, Scenario, ScenarioOutcome};
use divrel_bench::sweep::{ForcedSweepStats, KlSweepStats};
use divrel_bench::Context;
use proptest::prelude::*;

/// Drives `coordinator` against real workers over in-memory pipes; each
/// worker serves on its own thread. Returns the distributed run plus
/// each worker's summary (`Err` for injected crashes).
fn run_fleet(
    coordinator: &Coordinator,
    workers: Vec<Worker>,
) -> (DistRun, Vec<Result<WorkerSummary, String>>) {
    let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for worker in workers {
        let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
        let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
        coord_ends.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
        handles.push(std::thread::spawn(move || {
            let mut transport = JsonLines::new(c2w_r, w2c_w);
            worker.serve(&mut transport).map_err(|e| e.to_string())
        }));
    }
    let run = coordinator.run(coord_ends).expect("fleet completes");
    let exits = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread joins"))
        .collect();
    (run, exits)
}

/// Asserts two outcomes are bit-identical: structural equality plus a
/// full-precision `Debug` comparison (Rust's shortest-round-trip float
/// formatting distinguishes any two different finite bit patterns).
fn assert_bit_identical(label: &str, distributed: &ScenarioOutcome, single: &ScenarioOutcome) {
    assert_eq!(
        distributed, single,
        "{label}: distributed outcome diverged structurally"
    );
    assert_eq!(
        format!("{distributed:?}"),
        format!("{single:?}"),
        "{label}: distributed outcome diverged bitwise"
    );
}

fn committed_specs() -> Vec<(String, Scenario)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "toml") {
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let scenario = Scenario::from_spec_text(&text)
                .unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
            out.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                scenario,
            ));
        }
    }
    assert!(
        out.len() >= 4,
        "expected the committed spec set, found {}",
        out.len()
    );
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Drives an adaptive round loop against a fresh fleet of `workers`
/// real workers per round, over in-memory pipes. Every worker must
/// exit cleanly.
fn run_adaptive_fleet(coordinator: &AdaptiveCoordinator, workers: usize) -> AdaptiveDistRun {
    let mut handles = Vec::new();
    let run = coordinator
        .run(|_round| {
            let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
            for _ in 0..workers {
                let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
                let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
                coord_ends.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
                handles.push(std::thread::spawn(move || {
                    let mut transport = JsonLines::new(c2w_r, w2c_w);
                    Worker::new()
                        .threads(2)
                        .serve(&mut transport)
                        .map_err(|e| e.to_string())
                }));
            }
            Ok(coord_ends)
        })
        .expect("adaptive fleet completes");
    for h in handles {
        h.join()
            .expect("worker thread joins")
            .expect("worker exits cleanly");
    }
    run
}

#[test]
fn every_committed_spec_is_bit_identical_across_fleet_layouts() {
    let mut adaptive_specs = 0;
    for (name, scenario) in committed_specs() {
        let single = scenario.run(2).expect("in-process run");
        // Two deliberately different fleet shapes: a lone worker with
        // coarse leases, and a 2-worker fleet at the finest possible
        // lease granularity (maximum interleaving).
        for (workers, lease_cells) in [(1usize, 7u64), (2, 1)] {
            // An un-pinned adaptive spec is a round loop, not one grid:
            // it distributes through its own coordinator, same fleet
            // shapes.
            if matches!(scenario.experiment, ExperimentSpec::AdaptivePfd { .. }) {
                adaptive_specs += 1;
                let coordinator = AdaptiveCoordinator::new(scenario.clone())
                    .expect("compiles")
                    .lease_cells(lease_cells);
                let run = run_adaptive_fleet(&coordinator, workers);
                assert_bit_identical(
                    &format!("{name} ({workers} workers, lease {lease_cells})"),
                    &ScenarioOutcome::Adaptive(run.outcome),
                    &single,
                );
                for stats in &run.rounds {
                    assert_eq!(stats.retries, 0, "{name}: unexpected lease retries");
                    assert_eq!(stats.workers, workers, "{name}: fleet size drift");
                }
                continue;
            }
            let coordinator = Coordinator::new(scenario.clone())
                .expect("compiles")
                .lease_cells(lease_cells);
            let fleet = (0..workers).map(|_| Worker::new().threads(2)).collect();
            let (run, exits) = run_fleet(&coordinator, fleet);
            assert_bit_identical(
                &format!("{name} ({workers} workers, lease {lease_cells})"),
                &run.outcome,
                &single,
            );
            assert_eq!(run.stats.retries, 0, "{name}: unexpected lease retries");
            assert_eq!(run.stats.spec_hash, coordinator.spec_hash());
            assert!(exits.iter().all(Result::is_ok), "{name}: worker failed");
            // Lease balance is provenance: it never reaches the results.
            let mut card = run.outcome.card(&name);
            card.provenance("cells per worker", format!("{:?}", run.stats.worker_cells));
            assert_eq!(
                card.results_markdown(),
                single.card(&name).results_markdown(),
                "{name}: provenance leaked into the results section"
            );
        }
    }
    assert!(
        adaptive_specs >= 2,
        "the committed adaptive spec was not exercised"
    );
}

#[test]
fn guided_leases_spread_the_markov_campaign_over_two_workers() {
    let (name, scenario) = committed_specs()
        .into_iter()
        .find(|(n, _)| n == "slow_markov_plant.toml")
        .expect("slow_markov_plant.toml is committed");
    let single = scenario.run(2).expect("in-process run");
    let coordinator = Coordinator::new(scenario).expect("compiles");
    let (run, exits) = run_fleet(
        &coordinator,
        vec![Worker::new().threads(1), Worker::new().threads(1)],
    );
    assert_bit_identical(&format!("{name} (default leases)"), &run.outcome, &single);
    assert!(exits.iter().all(Result::is_ok), "{name}: worker failed");
    assert_eq!(run.stats.cells, 16, "{name}: the campaign has 16 shards");
    assert_eq!(run.stats.worker_cells.len(), 2, "stats: {:?}", run.stats);
    assert_eq!(
        run.stats.worker_cells.iter().sum::<u64>(),
        16,
        "stats: {:?}",
        run.stats
    );
    // Each claim gets at most ceil(unleased / (2 workers × 2 pipeline
    // slots)) cells: 4, 3, 3, 2, 1, 1, 1, 1 in any claim order, so the
    // first worker to reach Ready can never hold the whole grid.
    assert!(run.stats.leases >= 8, "stats: {:?}", run.stats);
}

#[test]
fn every_preset_is_bit_identical_under_distribution() {
    let ctx = Context::smoke();
    for id in Scenario::PRESETS {
        let scenario = Scenario::preset_with(id, &ctx).expect("known preset");
        let single = scenario.run(3).expect("in-process run");
        let coordinator = Coordinator::new(scenario).expect("compiles").lease_cells(2);
        let (run, exits) = run_fleet(&coordinator, vec![Worker::new(), Worker::new().threads(2)]);
        assert_bit_identical(&format!("preset {id}"), &run.outcome, &single);
        assert_eq!(run.stats.workers, 2, "preset {id}");
        assert!(
            exits.iter().all(Result::is_ok),
            "preset {id}: worker failed"
        );
    }
}

#[test]
fn killed_worker_mid_lease_is_reissued_and_stays_bit_identical() {
    // kl_bimodal has 120 one-replication cells — plenty of leases for a
    // mid-run crash. Worker A serves exactly one lease and then drops
    // its connection *while holding the next lease*; the coordinator
    // must re-queue that lease, hand it to the healthy worker B, and
    // still reduce to the exact single-process bits.
    let (name, scenario) = committed_specs()
        .into_iter()
        .find(|(n, _)| n.contains("kl_bimodal"))
        .expect("kl_bimodal.toml is committed");
    let single = scenario.run(2).expect("in-process run");
    let coordinator = Coordinator::new(scenario).expect("compiles").lease_cells(5);
    let (run, exits) = run_fleet(
        &coordinator,
        vec![Worker::new().fail_after_leases(1), Worker::new().threads(2)],
    );
    assert_bit_identical(&format!("{name} after worker kill"), &run.outcome, &single);
    assert!(
        run.stats.retries >= 1,
        "the killed worker's lease was never re-issued (stats: {:?})",
        run.stats
    );
    // The injected fault surfaced as a worker error; the survivor is
    // clean and carried the rest of the grid.
    assert!(exits[0]
        .as_ref()
        .is_err_and(|e| e.contains("fault injection")));
    // Worker A computed exactly one 5-cell lease before dying; the
    // survivor must carry everything else. (Adaptive lease growth means
    // it does so in far fewer than 23 grants, so count cells, not
    // leases.)
    let survivor = exits[1].as_ref().expect("healthy worker completes");
    assert!(
        survivor.cells_run >= 115,
        "survivor ran only {} cells of the 120-cell grid",
        survivor.cells_run
    );
}

#[test]
fn whole_fleet_loss_degrades_to_in_process_execution() {
    let ctx = Context::smoke();
    let scenario = Scenario::preset_with("E16", &ctx).expect("known preset");
    let single = scenario.run(2).expect("in-process run");
    let coordinator = Coordinator::new(scenario).expect("compiles").lease_cells(5);
    // Every worker dies after one lease: the fleet cannot finish the
    // grid. The coordinator must keep the leases it collected, run the
    // remaining cells itself, and still fold the exact bits.
    let (run, exits) = run_fleet(
        &coordinator,
        vec![
            Worker::new().fail_after_leases(1),
            Worker::new().fail_after_leases(1),
        ],
    );
    assert_bit_identical("E16 after whole-fleet loss", &run.outcome, &single);
    assert!(
        run.stats.recovered_in_process > 0,
        "degradation never ran in-process (stats: {:?})",
        run.stats
    );
    assert!(
        exits.iter().all(Result::is_err),
        "every worker was meant to die"
    );
}

// ---------------------------------------------------------------------
// Wire-form round trips: every SweepReduce accumulator that crosses the
// wire must reconstruct bit-identically, f64 payloads included.
// ---------------------------------------------------------------------

/// JSON round trip of a wire tree (a v2 connection's `Result` frames).
fn through_json(w: &Wire) -> Wire {
    let text = serde_json::to_string(w).expect("wire serialises");
    serde_json::from_str(&text).expect("wire parses")
}

/// Binary round trip of a wire tree (a v3 connection's `Result`
/// frames): both framings must carry the exact same bits.
fn through_binary(w: &Wire) -> Wire {
    Wire::from_bytes(&w.to_bytes()).expect("binary wire decodes")
}

fn assert_wire_round_trip<T: WireForm + PartialEq + std::fmt::Debug>(value: &T) {
    let wire = value.to_wire();
    for (framing, shipped) in [
        ("json", through_json(&wire)),
        ("binary", through_binary(&wire)),
    ] {
        let back = T::from_wire(&shipped).expect("round trip decodes");
        assert_eq!(&back, value, "{framing} framing drift");
        assert_eq!(
            format!("{back:?}"),
            format!("{value:?}"),
            "{framing} framing bitwise drift"
        );
    }
    // Cross-framing: re-encoding a JSON-shipped tree in binary (and
    // back) is still the identity.
    assert_eq!(
        through_binary(&through_json(&wire)),
        wire,
        "mixed framing drift"
    );
}

/// Strategy for f64 payloads including awkward bit patterns.
fn wire_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12..1.0e12f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        Just(1.0 / 3.0),
    ]
}

proptest! {
    #[test]
    fn moments_round_trip_bit_identically(xs in proptest::collection::vec(wire_f64(), 0..40)) {
        let mut m = Moments::new();
        for x in xs {
            m.push(x);
        }
        assert_wire_round_trip(&m);
    }

    #[test]
    fn counters_vectors_and_pairs_round_trip(
        n in 0u64..u64::MAX,
        xs in proptest::collection::vec(wire_f64(), 0..16),
    ) {
        assert_wire_round_trip(&n);
        assert_wire_round_trip(&xs);
        assert_wire_round_trip(&(n, xs));
    }

    #[test]
    fn operation_logs_round_trip(
        quiet in 0u64..1_000_000_000,
        demands in proptest::collection::vec(
            (prop_oneof![Just(true), Just(false)], 0u64..16),
            0..12,
        ),
    ) {
        let mut log = OperationLog::new(4);
        log.record_quiet_n(quiet);
        for (tripped, mask) in demands {
            log.record_demand_bits(tripped, mask);
        }
        assert_wire_round_trip(&log);
    }

    #[test]
    fn kl_stats_round_trip(
        reps in 0u64..10_000,
        both in 0u64..10_000,
        rejected in 0u64..10_000,
        tested in 0u64..10_000,
        means in proptest::collection::vec(wire_f64(), 0..10),
        stds in proptest::collection::vec(wire_f64(), 0..10),
    ) {
        let stats = KlSweepStats {
            replications: reps,
            reduced_both: both,
            normal_rejected: rejected,
            normal_tested: tested,
            mean_factors: means,
            std_factors: stds,
        };
        assert_wire_round_trip(&stats);
    }

    #[test]
    fn forced_stats_round_trip(
        trials in 0u64..1_000_000,
        worse in 0u64..1_000_000,
        advantage in wire_f64(),
    ) {
        let stats = ForcedSweepStats {
            trials,
            worse_than_unforced: worse,
            advantage_sum: advantage,
        };
        assert_wire_round_trip(&stats);
    }

    #[test]
    fn cell_evidence_round_trips_and_merges_identically(
        failures in 0u64..1 << 62,
        extra in 0u64..1 << 62,
        more_failures in 0u64..1 << 62,
        more_extra in 0u64..1 << 62,
    ) {
        // demands >= failures by construction, as the runtime guarantees.
        let a = CellEvidence { failures, demands: failures + extra };
        let b = CellEvidence { failures: more_failures, demands: more_failures + more_extra };
        assert_wire_round_trip(&a);
        let mut direct = a;
        direct.absorb(b);
        let mut shipped = CellEvidence::from_wire(&through_json(&a.to_wire())).expect("decodes");
        shipped.absorb(CellEvidence::from_wire(&through_binary(&b.to_wire())).expect("decodes"));
        prop_assert_eq!(shipped, direct);
    }

    #[test]
    fn mc_accumulators_round_trip_and_merge_identically(
        seed_a in 0u64..1 << 48,
        seed_b in 0u64..1 << 48,
        count in 1usize..200,
    ) {
        let model = FaultModel::uniform(6, 0.25, 0.02).expect("valid model");
        let exp = MonteCarloExperiment::new(model, FaultIntroduction::Independent).samples(count.max(2));
        let factory = exp.factory().expect("valid factory");
        let a = run_cell(&factory, count, seed_a);
        let b = run_cell(&factory, count, seed_b);
        assert_wire_round_trip(&a);
        // Merging shipped partials equals merging the originals — under
        // either framing, and even when a partial was re-encoded from
        // one framing to the other in between.
        let mut direct = a.clone();
        direct.absorb(b.clone());
        let mut shipped = McAccumulator::from_wire(&through_json(&a.to_wire())).expect("decodes");
        shipped.absorb(McAccumulator::from_wire(&through_json(&b.to_wire())).expect("decodes"));
        assert_eq!(format!("{shipped:?}"), format!("{direct:?}"));
        let mut binary = McAccumulator::from_wire(&through_binary(&a.to_wire())).expect("decodes");
        binary.absorb(
            McAccumulator::from_wire(&through_binary(&through_json(&b.to_wire())))
                .expect("decodes"),
        );
        assert_eq!(format!("{binary:?}"), format!("{direct:?}"));
    }
}
