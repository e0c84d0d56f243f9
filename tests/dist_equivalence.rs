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
//! TCP fleets use), kills one mid-lease to force a re-issue, holds an
//! adaptive round loop to one session on one fleet, and additionally
//! holds every wire-format accumulator to the
//! `from_wire(to_wire(x)) == x` bit-identity contract with proptests,
//! and the frame reader, the round-frame decoder and journal resume to
//! hostile bytes.

use divrel::devsim::adaptive::{CellEvidence, EvidenceBatch};
use divrel::devsim::experiment::{run_cell, McAccumulator, MonteCarloExperiment};
use divrel::devsim::process::FaultIntroduction;
use divrel::devsim::sweep::CellRange;
use divrel::model::FaultModel;
use divrel::numerics::descriptive::Moments;
use divrel::numerics::sweep::SweepReduce;
use divrel::numerics::wire::{Wire, WireForm};
use divrel::protection::OperationLog;
use divrel_bench::dist::framing::{
    decode_round_payload, encode_round_frame, try_extract, Extracted, BINARY_FRAME_MARKER,
    ROUND_FRAME_MARKER,
};
use divrel_bench::dist::{
    AdaptiveCoordinator, Coordinator, DistRun, DistStats, Fault, FaultPlan, Journal, JsonLines,
    Message, Transport, Worker, WorkerSummary, PROTOCOL_VERSION,
};
use divrel_bench::scenario::{ExperimentSpec, Scenario, ScenarioOutcome};
use divrel_bench::sweep::{ForcedSweepStats, KlSweepStats};
use divrel_bench::Context;
use proptest::prelude::*;

/// Real workers over in-memory pipes, each serving one session on its
/// own thread.
#[derive(Default)]
struct PipeFleet {
    /// Fleets handed out.
    supplied: usize,
    handles: Vec<std::thread::JoinHandle<Result<WorkerSummary, String>>>,
}

impl PipeFleet {
    /// Starts `workers` and returns the coordinator's ends.
    fn supply(&mut self, workers: Vec<Worker>) -> Vec<Box<dyn Transport>> {
        self.supplied += 1;
        let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
        for worker in workers {
            let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
            let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
            coord_ends.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
            self.handles.push(std::thread::spawn(move || {
                let mut transport = JsonLines::new(c2w_r, w2c_w);
                worker.serve(&mut transport).map_err(|e| e.to_string())
            }));
        }
        coord_ends
    }

    /// Each worker's summary (`Err` for injected crashes).
    fn join(self) -> Vec<Result<WorkerSummary, String>> {
        self.handles
            .into_iter()
            .map(|h| h.join().expect("worker thread joins"))
            .collect()
    }

    /// Joins an adaptive run's fleet and checks that it served one
    /// session: the fleet was supplied once, each worker's single
    /// `serve` returned `Ok` after the last round, and the leases the
    /// workers served add up to the rounds' leases.
    fn check_session(self, rounds: &[DistStats]) {
        assert_eq!(self.supplied, 1, "one fleet per run, not one per round");
        let served: u64 = self
            .join()
            .into_iter()
            .map(|exit| {
                exit.expect("a worker serves the whole session")
                    .leases_served
            })
            .sum();
        assert_eq!(served, rounds.iter().map(|r| r.leases).sum::<u64>());
    }
}

/// Drives `coordinator` against real workers over in-memory pipes; each
/// worker serves on its own thread. Returns the distributed run plus
/// each worker's summary (`Err` for injected crashes).
fn run_fleet(
    coordinator: &Coordinator,
    workers: Vec<Worker>,
) -> (DistRun, Vec<Result<WorkerSummary, String>>) {
    let mut fleet = PipeFleet::default();
    let run = coordinator
        .run(fleet.supply(workers))
        .expect("fleet completes");
    (run, fleet.join())
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

/// Drives an adaptive round loop as one session on `workers` real
/// workers over in-memory pipes, and checks the session
/// ([`PipeFleet::check_session`]).
fn run_adaptive_fleet(coordinator: &Coordinator, workers: usize) -> DistRun {
    let mut fleet = PipeFleet::default();
    let run = coordinator
        .run(fleet.supply((0..workers).map(|_| Worker::new().threads(2)).collect()))
        .expect("adaptive fleet completes");
    fleet.check_session(&run.rounds);
    run
}

fn committed_adaptive_spec() -> (String, Scenario) {
    committed_specs()
        .into_iter()
        .find(|(n, _)| n == "adaptive_confidence.toml")
        .expect("adaptive_confidence.toml is committed")
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
            let coordinator = Coordinator::new(scenario.clone())
                .expect("compiles")
                .lease_cells(lease_cells);
            // An un-pinned adaptive spec is a round loop, not one grid:
            // one session whose rounds are jobs, same fleet shapes.
            if matches!(scenario.experiment, ExperimentSpec::AdaptivePfd { .. }) {
                adaptive_specs += 1;
                let run = run_adaptive_fleet(&coordinator, workers);
                assert_bit_identical(
                    &format!("{name} ({workers} workers, lease {lease_cells})"),
                    &run.outcome,
                    &single,
                );
                for stats in &run.rounds {
                    assert_eq!(stats.retries, 0, "{name}: unexpected lease retries");
                    assert_eq!(stats.workers, workers, "{name}: fleet size drift");
                }
                continue;
            }
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

/// The adapter the scenario benchmark drives: its fleet supplier runs
/// once per run, not once per round.
#[test]
fn the_adaptive_adapter_asks_for_one_fleet_per_run() {
    let (name, scenario) = committed_adaptive_spec();
    let single = scenario.run(2).expect("in-process run");
    let mut fleet = PipeFleet::default();
    let run = AdaptiveCoordinator::new(scenario)
        .expect("an un-pinned adaptive spec")
        .run(|_round| Ok(fleet.supply((0..2).map(|_| Worker::new().threads(2)).collect())))
        .expect("adaptive fleet completes");
    fleet.check_session(&run.rounds);
    assert!(run.rounds.len() > 1, "{name}: the loop ran one round");
    assert_bit_identical(&name, &ScenarioOutcome::Adaptive(run.outcome), &single);
}

/// A worker lost in round 0 stays out of every later round: the rest of
/// the loop runs on the survivor and folds the same bits.
#[test]
fn a_worker_lost_in_round_zero_stays_out_of_later_rounds() {
    let (name, scenario) = committed_adaptive_spec();
    let single = scenario.run(2).expect("in-process run");
    let coordinator = Coordinator::new(scenario).expect("compiles").lease_cells(2);
    // The survivor's first lease is slow, so the doomed worker gets
    // round-0 leases however the threads are scheduled: it serves one
    // and drops the connection holding the next.
    let survivor = Worker::new()
        .threads(2)
        .fault_plan(FaultPlan::new().inject(0, Fault::Slow { millis: 200 }));
    let doomed = Worker::new().threads(2).fail_after_leases(1);
    let (run, exits) = run_fleet(&coordinator, vec![doomed, survivor]);
    assert_bit_identical(
        &format!("{name} after a round-0 loss"),
        &run.outcome,
        &single,
    );
    assert!(
        exits[0]
            .as_ref()
            .is_err_and(|e| e.contains("fault injection")),
        "{exits:?}"
    );
    let survivor = exits[1].as_ref().expect("the survivor serves every round");
    assert_eq!(survivor.jobs, run.rounds.len() as u64);
    let (first, later) = run.rounds.split_first().expect("rounds ran");
    assert_eq!(first.workers, 2, "round 0: {first:?}");
    assert!(first.retries >= 1, "round 0: {first:?}");
    assert!(!later.is_empty(), "{name}: the loop ended in round 0");
    for (r, stats) in later.iter().enumerate() {
        assert_eq!(stats.workers, 1, "round {}: {stats:?}", r + 1);
        assert_eq!(stats.worker_cells[0], 0, "round {}: {stats:?}", r + 1);
    }
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

/// JSON round trip of a wire tree (`Result` frames under the
/// `DIVREL_DIST_FRAMING=json` override).
fn through_json(w: &Wire) -> Wire {
    let text = serde_json::to_string(w).expect("wire serialises");
    serde_json::from_str(&text).expect("wire parses")
}

/// Binary round trip of a wire tree (the default framing of `Result`
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
        versions in proptest::collection::vec((0u64..1 << 62, 0u64..1 << 62), 0..64),
        split in 0usize..64,
    ) {
        // demands >= failures by construction, as the runtime guarantees.
        let evidence: Vec<CellEvidence> = versions
            .iter()
            .map(|&(failures, extra)| CellEvidence { failures, demands: failures + extra })
            .collect();
        // Two batched cells of one round, cut at `split`.
        let split = split.min(evidence.len());
        let mut a = EvidenceBatch::default();
        let mut b = EvidenceBatch::default();
        evidence[..split].iter().for_each(|&ev| a.push(ev));
        evidence[split..].iter().for_each(|&ev| b.push(ev));
        assert_wire_round_trip(&a);
        assert_wire_round_trip(&b);
        // Shipped under either framing, the cells unbatch to the
        // versions' evidence, which merges into the running totals
        // exactly as the unshipped evidence does.
        let a = EvidenceBatch::from_wire(&through_json(&a.to_wire())).expect("decodes");
        let b = EvidenceBatch::from_wire(&through_binary(&b.to_wire())).expect("decodes");
        let shipped: Vec<CellEvidence> = a.evidence().chain(b.evidence()).collect();
        prop_assert_eq!(&shipped, &evidence);
        let mut direct = evidence.clone();
        let mut merged = evidence.clone();
        direct.iter_mut().zip(&evidence).for_each(|(t, &ev)| t.absorb(ev));
        merged.iter_mut().zip(&shipped).for_each(|(t, &ev)| t.absorb(ev));
        prop_assert_eq!(merged, direct);
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

// ---------------------------------------------------------------------
// Hostile bytes on the frame reader. No input is known to panic it;
// these proptests guard that, they do not fix anything.
// ---------------------------------------------------------------------

/// Reads `bytes` as one protocol stream until it ends or fails. Every
/// call must yield a frame, a clean end, or `InvalidData`.
fn read_hostile_stream(bytes: Vec<u8>) -> Result<(), String> {
    let mut t = JsonLines::new(std::io::Cursor::new(bytes), std::io::sink());
    loop {
        match Transport::recv(&mut t) {
            Ok(Some(_)) => {}
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => return Ok(()),
            Err(e) => return Err(format!("unexpected {:?} error: {e}", e.kind())),
        }
    }
}

/// A valid protocol stream with both directions' frames: JSON control
/// frames interleaved with binary and JSON `Result` and `Round` frames.
fn valid_stream() -> Vec<u8> {
    let mut batch = EvidenceBatch::default();
    batch.push(CellEvidence {
        failures: 3,
        demands: 400,
    });
    let cells = vec![
        batch.to_wire(),
        Wire::record([("n", Wire::U64(u64::MAX)), ("mean", Wire::F64(1.0 / 3.0))]),
    ];
    let result = Message::Result {
        start: 4,
        end: 6,
        cells,
    };
    let round = Message::Round {
        hash: "fnv1a:00".into(),
        round: 2,
        allocations: vec![0, 300, u64::MAX],
    };
    let mut out = JsonLines::new(std::io::empty(), Vec::new());
    for msg in [
        Message::Join {
            protocol: PROTOCOL_VERSION,
        },
        Message::SpecHash {
            hash: "fnv1a:00".into(),
        },
        Message::NeedSpec {
            hash: "fnv1a:00".into(),
        },
        Message::Spec {
            hash: "fnv1a:00".into(),
            text: "name = \"x\"\n[seed]\nseed = 7\n".into(),
        },
        Message::Ready {
            hash: "fnv1a:00".into(),
        },
        Message::Lease { start: 4, end: 6 },
        Message::Progress { start: 4, end: 6 },
    ] {
        Transport::send(&mut out, &msg).expect("in-memory send");
    }
    Transport::send_binary(&mut out, &result).expect("in-memory send");
    Transport::send(&mut out, &result).expect("in-memory send");
    Transport::send_binary(&mut out, &round).expect("in-memory send");
    Transport::send(&mut out, &round).expect("in-memory send");
    Transport::send_binary(&mut out, &result).expect("in-memory send");
    Transport::send(&mut out, &Message::Done).expect("in-memory send");
    out.into_writer()
}

/// Applies `edits` (flip, insert, remove, truncate) to `bytes`.
fn mutate(bytes: &mut Vec<u8>, edits: Vec<(u8, usize, u8)>) {
    for (kind, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] ^= byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
}

/// `marker`, then `payload` behind its true length prefix or none.
fn binary_frame(marker: u8, payload: Vec<u8>, length_prefixed: bool) -> Vec<u8> {
    let mut bytes = vec![marker];
    if length_prefixed {
        divrel::numerics::wire::write_varint(&mut bytes, payload.len() as u64);
    }
    bytes.extend(payload);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        read_hostile_stream(bytes)?;
    }

    #[test]
    fn mutated_protocol_streams_never_panic_the_frame_reader(
        edits in proptest::collection::vec((0u8..4, 0usize..1 << 16, 1u8..=255), 1..6),
    ) {
        let mut bytes = valid_stream();
        mutate(&mut bytes, edits);
        read_hostile_stream(bytes)?;
    }

    #[test]
    fn arbitrary_bytes_after_the_binary_marker_never_panic_try_extract(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        length_prefixed in proptest::bool::ANY,
    ) {
        // With a true length prefix, the payload decoder itself reads
        // the arbitrary bytes.
        let bytes = binary_frame(BINARY_FRAME_MARKER, payload, length_prefixed);
        match try_extract(&bytes) {
            Ok(Extracted::Frame(_, used)) => prop_assert!(used <= bytes.len()),
            Ok(Extracted::Incomplete) => {}
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn arbitrary_bytes_after_the_round_marker_never_panic_try_extract(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        length_prefixed in proptest::bool::ANY,
    ) {
        let bytes = binary_frame(ROUND_FRAME_MARKER, payload, length_prefixed);
        match try_extract(&bytes) {
            Ok(Extracted::Frame(msg, used)) => {
                prop_assert!(used <= bytes.len());
                prop_assert!(matches!(msg, Message::Round { .. }), "{msg:?}");
            }
            Ok(Extracted::Incomplete) => {}
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn mutated_round_frames_decode_no_more_than_their_bytes(
        allocations in proptest::collection::vec(0u64..1 << 40, 0..64),
        edits in proptest::collection::vec((0u8..4, 0usize..1 << 10, 1u8..=255), 1..6),
    ) {
        // The payload of a valid round frame (marker and one-or-two-byte
        // length prefix stripped), then edited.
        let frame = encode_round_frame("fnv1a:0123456789abcdef", 9, &allocations);
        let prefix = if frame[1] & 0x80 == 0 { 2 } else { 3 };
        let mut payload = frame[prefix..].to_vec();
        mutate(&mut payload, edits);
        if let Ok(Message::Round { allocations, .. }) = decode_round_payload(&payload) {
            prop_assert!(allocations.len() <= payload.len());
        }
    }
}

// ---------------------------------------------------------------------
// Hostile journals: a resumed coordinator reads whatever the journal
// file holds. Truncation at any byte must resume exactly the complete
// records before the cut, and no edit may panic resume.
// ---------------------------------------------------------------------

const JOURNAL_HASH: &str = "fnv1a:00000000000journal";
const JOURNAL_CELLS: u64 = 12;

/// The `(cell, wire)` pairs of one lease record.
type LeaseCells = Vec<(u64, Wire)>;

/// A journal of four leases, two of them overlapping: its bytes, its
/// line ends, and the cells each record carries.
fn valid_journal(path: &std::path::Path) -> (Vec<u8>, Vec<usize>, Vec<LeaseCells>) {
    let cell = |k: u64| {
        Wire::record([
            ("kind", Wire::Text("t".into())),
            (
                "data",
                Wire::List(vec![Wire::U64(k), Wire::F64(k as f64 / 3.0)]),
            ),
        ])
    };
    let mut journal = Journal::create(path, JOURNAL_HASH, JOURNAL_CELLS).expect("journal opens");
    let mut records = Vec::new();
    for (start, end) in [(0, 3), (3, 4), (2, 6), (9, 12)] {
        let cells: LeaseCells = (start..end).map(|k| (k, cell(k + 100 * start))).collect();
        let wires: Vec<Wire> = cells.iter().map(|(_, w)| w.clone()).collect();
        journal
            .append(CellRange::new(start, end), &wires)
            .expect("append");
        records.push(cells);
    }
    drop(journal);
    let bytes = std::fs::read(path).expect("journal reads");
    let ends = (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect();
    (bytes, ends, records)
}

fn hostile_journal_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "divrel-hostile-journal-{tag}-{}.ndjson",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncated_journals_resume_exactly_their_complete_records(cut in 0usize..1 << 12) {
        let path = hostile_journal_path("truncated");
        let (bytes, ends, records) = valid_journal(&path);
        let cut = cut % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).expect("journal writes");
        let resumed = Journal::resume(&path, JOURNAL_HASH, JOURNAL_CELLS);
        let kept = ends.iter().filter(|&&end| end <= cut).count();
        match resumed {
            Ok((_, load)) => {
                prop_assert!(kept >= 1, "a journal cut inside its header resumed");
                prop_assert_eq!(load.records as usize, kept - 1);
                prop_assert_eq!(load.torn_tail, !ends.contains(&cut) && cut > 0);
                // First write wins across the complete records.
                let mut want: LeaseCells = Vec::new();
                for (k, w) in records[..kept - 1].iter().flatten() {
                    if !want.iter().any(|(seen, _)| seen == k) {
                        want.push((*k, w.clone()));
                    }
                }
                prop_assert_eq!(load.cells, want);
                // The torn tail is gone: the file ends on a line boundary.
                let len = std::fs::metadata(&path).expect("journal stats").len() as usize;
                prop_assert_eq!(len, ends[kept - 1]);
            }
            Err(e) => prop_assert_eq!(kept, 0, "{}", e),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutated_journals_resume_or_refuse_without_panicking(
        edits in proptest::collection::vec((0u8..4, 0usize..1 << 12, 1u8..=255), 1..6),
    ) {
        let path = hostile_journal_path("mutated");
        let (mut bytes, _, _) = valid_journal(&path);
        mutate(&mut bytes, edits);
        std::fs::write(&path, &bytes).expect("journal writes");
        if let Ok((_, load)) = Journal::resume(&path, JOURNAL_HASH, JOURNAL_CELLS) {
            prop_assert!(load.cells.iter().all(|(k, _)| *k < JOURNAL_CELLS));
            let left = std::fs::read(&path).expect("journal reads");
            prop_assert!(left.len() <= bytes.len());
            prop_assert_eq!(left.last(), Some(&b'\n'), "resume left a torn line");
        }
        let _ = std::fs::remove_file(&path);
    }
}
