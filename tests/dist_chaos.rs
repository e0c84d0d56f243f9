//! Chaos acceptance gate of the durable distributed runtime: **any
//! fleet shape × any fault plan × any crash/resume point folds to
//! bit-identical results.**
//!
//! The suite drives real [`Worker`]s over in-memory OS pipes (the same
//! `JsonLines` framing the stdio and TCP fleets use) and injects every
//! [`Fault`] the chaos layer models — a worker that dies mid-lease,
//! stalls silently, returns corrupt wire payloads, echoes a wrong spec
//! hash, or straggles — plus seeded random schedules and a forced
//! coordinator kill with a `--resume`-style journal recovery. Every
//! history must reduce to the exact bits of the single-process
//! [`Scenario::run`], and a stalled worker must never block completion
//! (the run is wall-clock bounded by the lease deadline machinery, not
//! by the stall).

use divrel_bench::dist::{
    round_journal_path, Coordinator, DistRun, Fault, FaultPlan, JsonLines, Transport, Worker,
    WorkerSummary,
};
use divrel_bench::scenario::{Scenario, ScenarioOutcome};
use divrel_bench::Context;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The chaos substrate: the E16 preset in smoke shape (100 independent
/// grid cells — enough leases for any schedule to bite).
fn scenario() -> Scenario {
    let ctx = Context::smoke();
    Scenario::preset_with("E16", &ctx).expect("known preset")
}

/// The single-process reference bits, computed once.
fn single() -> &'static ScenarioOutcome {
    static SINGLE: OnceLock<ScenarioOutcome> = OnceLock::new();
    SINGLE.get_or_init(|| scenario().run(2).expect("in-process run"))
}

fn assert_bit_identical(label: &str, distributed: &ScenarioOutcome) {
    let reference = single();
    assert_eq!(
        distributed, reference,
        "{label}: distributed outcome diverged structurally"
    );
    assert_eq!(
        format!("{distributed:?}"),
        format!("{reference:?}"),
        "{label}: distributed outcome diverged bitwise"
    );
    // The byte-comparable results section of the report, too.
    assert_eq!(
        distributed.card("chaos").results_markdown(),
        reference.card("chaos").results_markdown(),
        "{label}: rendered results section diverged"
    );
}

/// A coordinator tuned for chaos: fine leases, a deadline short enough
/// to catch test-sized stalls quickly, fast backoff.
fn chaos_coordinator(scenario: Scenario) -> Coordinator {
    Coordinator::new(scenario)
        .expect("compiles")
        .lease_cells(5)
        .lease_timeout(Duration::from_millis(150))
        .backoff(Duration::from_millis(5), Duration::from_millis(50))
}

/// Drives `coordinator` against real workers over in-memory pipes; each
/// worker serves on its own thread.
fn run_fleet(
    coordinator: &Coordinator,
    workers: Vec<Worker>,
) -> (DistRun, Vec<Result<u64, String>>) {
    let (run, exits) = try_run_fleet(coordinator, workers);
    (run.expect("fleet completes"), exits)
}

fn try_run_fleet(
    coordinator: &Coordinator,
    workers: Vec<Worker>,
) -> (Result<DistRun, String>, Vec<Result<u64, String>>) {
    let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for worker in workers {
        let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
        let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
        coord_ends.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
        handles.push(std::thread::spawn(move || {
            let mut transport = JsonLines::new(c2w_r, w2c_w);
            worker
                .serve(&mut transport)
                .map(|s| s.leases_served)
                .map_err(|e| e.to_string())
        }));
    }
    let run = coordinator.run(coord_ends).map_err(|e| e.to_string());
    let exits = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread joins"))
        .collect();
    (run, exits)
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("divrel-chaos-{tag}-{}.ndjson", std::process::id()))
}

#[test]
fn clean_run_and_every_fault_plan_variant_fold_bit_identically() {
    let hold = Duration::from_millis(400);
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::new()),
        ("die", FaultPlan::new().inject(1, Fault::Die)),
        (
            "stall",
            FaultPlan::new().inject(0, Fault::Stall).stall_hold(hold),
        ),
        ("corrupt", FaultPlan::new().inject(0, Fault::CorruptWire)),
        ("wrong-hash", FaultPlan::new().inject(0, Fault::WrongHash)),
        (
            "slow",
            FaultPlan::new()
                .inject(0, Fault::Slow { millis: 30 })
                .inject(2, Fault::Slow { millis: 30 }),
        ),
    ];
    for (label, plan) in plans {
        let faulty = !plan.is_empty();
        let coordinator = chaos_coordinator(scenario());
        let (run, exits) = run_fleet(
            &coordinator,
            vec![
                Worker::new().threads(2).fault_plan(plan),
                Worker::new().threads(2),
            ],
        );
        assert_bit_identical(&format!("fault plan {label}"), &run.outcome);
        match label {
            "corrupt" | "wrong-hash" => {
                assert!(
                    run.stats.quarantined_workers >= 1,
                    "{label}: offender was not quarantined (stats: {:?})",
                    run.stats
                );
                assert!(
                    !run.stats.worker_faults.is_empty(),
                    "{label}: no fault note recorded"
                );
            }
            "die" => assert!(
                run.stats.retries >= 1,
                "{label}: dropped lease never re-issued (stats: {:?})",
                run.stats
            ),
            "stall" => assert!(
                run.stats.timeouts >= 1,
                "{label}: the stall never tripped a deadline (stats: {:?})",
                run.stats
            ),
            _ => {}
        }
        // A merely slow worker survives; every other fault is terminal
        // for the worker (it dies, errors out, or is quarantined).
        if faulty && label != "slow" {
            assert!(
                exits[0].is_err(),
                "{label}: the chaos worker was meant to fail (got {:?})",
                exits[0]
            );
        }
        assert!(
            exits[1].is_ok(),
            "{label}: healthy worker failed: {:?}",
            exits[1]
        );
    }
}

#[test]
fn stalled_worker_never_blocks_completion() {
    // The stall holds its lease far longer than the whole run should
    // take; only the deadline machinery can finish the grid.
    let hold = Duration::from_secs(8);
    let coordinator = chaos_coordinator(scenario());
    let plan = FaultPlan::new().inject(0, Fault::Stall).stall_hold(hold);
    let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for worker in [
        Worker::new().threads(2).fault_plan(plan),
        Worker::new().threads(2),
    ] {
        let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
        let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
        coord_ends.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
        handles.push(std::thread::spawn(move || {
            let mut t = JsonLines::new(c2w_r, w2c_w);
            let _ = worker.serve(&mut t);
        }));
    }
    let started = Instant::now();
    let run = coordinator.run(coord_ends).expect("fleet completes");
    let elapsed = started.elapsed();
    assert!(
        elapsed < hold,
        "completion took {elapsed:?} — the coordinator waited out the {hold:?} stall \
         instead of re-issuing the lease"
    );
    assert_bit_identical("stalled worker", &run.outcome);
    assert!(run.stats.timeouts >= 1, "stats: {:?}", run.stats);
    // Reap the stall thread (it wakes, fails, and exits on its own).
    for h in handles {
        h.join().expect("worker thread joins");
    }
}

#[test]
fn forced_coordinator_kill_and_resume_are_bit_identical() {
    let path = temp_journal("resume");
    // First incarnation: journals every lease, halts dead after the
    // third append — the mid-run kill.
    let first = chaos_coordinator(scenario())
        .journal(&path)
        .halt_after_journal_appends(3);
    let (run, _) = try_run_fleet(
        &first,
        vec![Worker::new().threads(2), Worker::new().threads(2)],
    );
    let err = run.expect_err("the halted coordinator must not finish");
    assert!(err.contains("chaos halt"), "unexpected failure: {err}");

    // Second incarnation: resumes the journal, re-leases only what is
    // missing, folds the exact single-process bits.
    let second = chaos_coordinator(scenario()).resume(&path);
    let (run, exits) = run_fleet(
        &second,
        vec![Worker::new().threads(2), Worker::new().threads(2)],
    );
    assert_bit_identical("kill + resume", &run.outcome);
    assert!(run.stats.resumed_from_journal, "stats: {:?}", run.stats);
    assert!(
        run.stats.resumed_cells >= 15,
        "three 5-cell leases were journaled before the halt (stats: {:?})",
        run.stats
    );
    assert!(exits.iter().all(Result::is_ok), "exits: {exits:?}");
    std::fs::remove_file(&path).expect("journal cleans up");
}

/// Drives an adaptive round loop as one session on one pipe fleet for
/// the whole loop, and checks that every worker's single `serve`
/// returns `Ok` after the last round — on a chaos halt too, when the
/// coordinator ends the session — and, for a completed loop, that the
/// leases the workers served add up to the rounds' leases.
fn try_adaptive_fleet(coordinator: &Coordinator, workers: usize) -> Result<DistRun, String> {
    let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
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
    let run = coordinator.run(coord_ends).map_err(|e| e.to_string());
    let served: Vec<WorkerSummary> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .expect("worker thread joins")
                .expect("a worker serves the whole session")
        })
        .collect();
    if let Ok(run) = &run {
        assert_eq!(
            served.iter().map(|s| s.leases_served).sum::<u64>(),
            run.rounds.iter().map(|r| r.leases).sum::<u64>()
        );
    }
    run
}

/// The adaptive round loop under the same kill/resume contract: the
/// coordinator dies mid-round-0 leaving a partial per-round journal,
/// and a second incarnation resumes it, re-leases only the missing
/// cells, finishes every later round, and folds the exact bits of the
/// uninterrupted in-process round loop.
#[test]
fn adaptive_mid_round_kill_and_resume_are_bit_identical() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/adaptive_confidence.toml"
    ))
    .expect("committed adaptive spec");
    let scenario = Scenario::from_spec_text(&text).expect("spec parses");
    let single = scenario.run(2).expect("in-process round loop");

    let base = temp_journal("adaptive-resume");
    // First incarnation: journals every lease into per-round journals,
    // halts dead after the second append — a mid-round-0 kill (round 0
    // spans five 5-cell leases over the 24 cells).
    let first = Coordinator::new(scenario.clone())
        .expect("adaptive spec")
        .lease_cells(5)
        .lease_timeout(Duration::from_millis(500))
        .journal(&base)
        .halt_after_journal_appends(2);
    let err = try_adaptive_fleet(&first, 2).expect_err("the halted coordinator must not finish");
    assert!(err.contains("chaos halt"), "unexpected failure: {err}");
    assert!(
        round_journal_path(&base, 0).exists(),
        "the round-0 journal must survive the kill"
    );

    // Second incarnation: resumes the partial round-0 journal and runs
    // the loop to convergence.
    let second = Coordinator::new(scenario)
        .expect("adaptive spec")
        .lease_cells(5)
        .lease_timeout(Duration::from_millis(500))
        .resume(&base);
    let run = try_adaptive_fleet(&second, 2).expect("resumed round loop completes");
    let DistRun {
        outcome: distributed,
        rounds,
        ..
    } = run;
    assert_eq!(
        distributed, single,
        "kill + resume diverged structurally from the in-process loop"
    );
    assert_eq!(
        format!("{distributed:?}"),
        format!("{single:?}"),
        "kill + resume diverged bitwise from the in-process loop"
    );
    assert!(
        rounds[0].resumed_from_journal,
        "round 0 did not resume its journal (stats: {:?})",
        rounds[0]
    );
    assert!(
        rounds[0].resumed_cells >= 10,
        "two 5-cell leases were journaled before the halt (stats: {:?})",
        rounds[0]
    );
    for round in 0..rounds.len() as u32 {
        std::fs::remove_file(round_journal_path(&base, round)).expect("round journal cleans up");
    }
}

#[test]
fn resume_of_a_journal_for_a_different_spec_is_rejected() {
    let path = temp_journal("wrong-spec");
    let e16 = chaos_coordinator(scenario())
        .journal(&path)
        .halt_after_journal_appends(1);
    let (run, _) = try_run_fleet(&e16, vec![Worker::new().threads(2)]);
    run.expect_err("halted");
    let ctx = Context::smoke();
    let other = Scenario::preset_with("E17", &ctx).expect("known preset");
    let err = Coordinator::new(other)
        .expect("compiles")
        .resume(&path)
        .run(Vec::new())
        .expect_err("a journal for another spec must be refused")
        .to_string();
    assert!(
        err.contains("written for spec"),
        "unexpected rejection: {err}"
    );
    std::fs::remove_file(&path).expect("journal cleans up");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded random chaos schedules: three workers, two of them on
    /// independent seeded fault plans (dying, stalling, corrupting,
    /// straggling at seeded lease ordinals), every history folding to
    /// the reference bits. Whole-fleet loss inside a case is fine — the
    /// coordinator degrades in-process and the bits still match.
    #[test]
    fn seeded_chaos_schedules_fold_bit_identically(seed in 0u64..1 << 32) {
        let coordinator = chaos_coordinator(scenario());
        let (run, _exits) = run_fleet(
            &coordinator,
            vec![
                Worker::new().threads(2).fault_plan(FaultPlan::seeded(seed)),
                Worker::new()
                    .threads(2)
                    .fault_plan(FaultPlan::seeded(seed.wrapping_add(0x9e37_79b9))),
                Worker::new().threads(2),
            ],
        );
        assert_bit_identical(&format!("chaos seed {seed}"), &run.outcome);
    }
}
