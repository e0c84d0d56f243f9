//! Chaos acceptance gate of the durable distributed runtime: **any
//! fleet shape × any fault plan × any crash/resume point folds to
//! bit-identical results.**
//!
//! Two fleets drive the coordinator. The wall-clock tests run real
//! [`Worker`]s over in-memory OS pipes (the same `JsonLines` framing
//! the stdio and TCP fleets use) and inject every [`Fault`] the chaos
//! layer models — a worker that dies mid-lease, stalls silently,
//! returns corrupt wire payloads, echoes a wrong spec hash, or
//! straggles — plus a forced coordinator kill with a `--resume`-style
//! journal recovery, and check that no thread of the real driver waits
//! on a stalled peer.
//!
//! The simulator ([`SimFleet`]) implements the coordinator's [`Fleet`]
//! seam on a virtual clock: simulated workers follow
//! [`Worker::serve`]'s protocol and fault plans, and seeded compute
//! times and frame delays set the interleaving, so thousands of
//! schedules run in the time one wall-clock stall takes. Each schedule
//! checks that the outcome is bit-identical to the single-process
//! [`Scenario::run`], that a journal halted after `K` appends holds
//! exactly the `K` records the schedule implies and resumes to the same
//! bits, and that every cell came from the journal, a worker or the
//! in-process recovery.

use divrel::devsim::sweep::CellRange;
use divrel::numerics::sweep::split_seed;
use divrel::numerics::wire::Wire;
use divrel_bench::dist::{
    round_journal_path, spec_hash, Coordinator, DistJob, DistRun, DistStats, Fault, FaultPlan,
    Fleet, FleetEvent, JsonLines, Message, Transport, Worker, WorkerSummary, PROTOCOL_VERSION,
};
use divrel_bench::scenario::{ExperimentSpec, Scenario, ScenarioOutcome};
use divrel_bench::Context;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
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

/// The lease records a journal holds after its header line, as their
/// `[start, end)` cell ranges. Only each record's head is read: the
/// record is `{"kind":"s:cells","start":"u64:S","end":"u64:E",...`,
/// and parsing every cell's payload would dominate the simulator's
/// sweeps.
fn lease_records(path: &Path) -> Vec<Range<u64>> {
    let text = std::fs::read_to_string(path).expect("journal reads");
    text.lines()
        .skip(1)
        .map(|line| {
            let bound = |rest: &str, field: &str| -> (u64, usize) {
                let tag = format!("\"{field}\":\"u64:");
                let at = rest.find(&tag).expect("a lease bound") + tag.len();
                let digits = rest[at..].find('"').expect("a closed bound");
                let value = rest[at..at + digits].parse().expect("a decimal bound");
                (value, at + digits)
            };
            assert!(line.starts_with("{\"kind\":\"s:cells\","), "{line}");
            let (start, used) = bound(line, "start");
            let (end, _) = bound(&line[used..], "end");
            start..end
        })
        .collect()
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

/// The wall-clock check that no thread of the real driver waits on a
/// stalled peer: the stall outlasts the whole run, so only the deadline
/// machinery can finish the grid. The stalled worker's thread is left
/// to wake and exit on its own.
#[test]
fn stalled_worker_never_blocks_completion() {
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
        elapsed < hold / 2,
        "completion took {elapsed:?} — the coordinator waited on the {hold:?} stall \
         instead of re-issuing the lease"
    );
    assert_bit_identical("stalled worker", &run.outcome);
    assert!(run.stats.timeouts >= 1, "stats: {:?}", run.stats);
    assert_eq!(run.stats.quarantined_workers, 1, "stats: {:?}", run.stats);
    // The healthy worker got `Done`; the stalled one sleeps on, holding
    // nothing the run needs.
    let healthy = handles.pop().expect("the healthy worker");
    healthy.join().expect("the healthy worker joins");
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
    // Results that drain in after the halt are not journaled.
    assert_eq!(
        lease_records(&path).len(),
        3,
        "the kill point is the third append"
    );

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
    let journaled = lease_records(&round_journal_path(&base, 0));
    assert_eq!(journaled.len(), 2, "the kill point is the second append");
    let journaled_cells = journaled.into_iter().flatten().collect::<BTreeSet<u64>>();

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
    // Guided leases shrink as round 0's 24 cells run out, so how many
    // cells the two journaled leases hold depends on which finished
    // first.
    assert_eq!(
        rounds[0].resumed_cells,
        journaled_cells.len() as u64,
        "round 0 resumed exactly the cells of its two journaled leases (stats: {:?})",
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

// ---------------------------------------------------------------------
// The virtual-clock fleet simulator.
// ---------------------------------------------------------------------

/// A schedule's seeded stream: the sweep engine's `split_seed` over a
/// counter.
struct Rng {
    seed: u64,
    drawn: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng { seed, drawn: 0 }
    }

    fn next(&mut self) -> u64 {
        self.drawn += 1;
        split_seed(self.seed, self.drawn)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn ms(&mut self, lo: u64, hi: u64) -> Duration {
        Duration::from_millis(self.range(lo, hi))
    }
}

/// Every cell of a spec, computed once per spec hash by the job a
/// worker compiles — `DistJob::run_range` is a pure function of spec
/// and range, so a slice of this is what any worker returns.
fn spec_cells(hash: &str, text: &str) -> Arc<Vec<Wire>> {
    static CELLS: OnceLock<Mutex<HashMap<String, Arc<Vec<Wire>>>>> = OnceLock::new();
    let cache = CELLS.get_or_init(Mutex::default);
    if let Some(cells) = cache.lock().expect("cell cache").get(hash) {
        return Arc::clone(cells);
    }
    let scenario = Scenario::from_spec_text(text).expect("the coordinator's spec parses");
    let job = DistJob::new(scenario, 1).expect("the coordinator's spec compiles");
    let cells = Arc::new(
        job.run_range(CellRange::new(0, job.cell_count()))
            .expect("cells evaluate"),
    );
    cache
        .lock()
        .expect("cell cache")
        .insert(hash.to_string(), Arc::clone(&cells));
    cells
}

/// What a simulated worker does besides serving its fault plan.
#[derive(Clone, Copy, PartialEq)]
enum Behaviour {
    /// `Worker::serve`'s protocol.
    Faithful,
    /// Joins and answers `Ready`, then heartbeats a range it was never
    /// leased every 40 ms and runs no lease.
    BogusHeartbeat,
}

/// One simulated worker: `Worker::serve` as a state machine on the
/// virtual clock.
struct SimWorker {
    behaviour: Behaviour,
    plan: FaultPlan,
    /// The specs this worker has compiled, by hash (its `SpecCache`).
    cached: HashMap<String, Arc<Vec<Wire>>>,
    /// The job it is ready on: its spec hash and cells.
    job: Option<(String, Arc<Vec<Wire>>)>,
    /// The spec it asked for with `NeedSpec`.
    awaiting_spec: Option<String>,
    /// After a wrong-hash `Ready`, it waits to be cut off.
    wrong_hash_echoed: bool,
    leases_seen: u64,
    /// Frames delivered but not yet read, `None` for end of stream.
    inbox: VecDeque<Option<Message>>,
    /// Computing a lease, stalled, or done: reads nothing.
    busy: bool,
    /// The ordinal of the lease it is computing.
    computing: Option<u64>,
    exited: bool,
    /// Per-cell compute time.
    cell_cost: Duration,
    /// When the last frame on each direction of its link arrives, so
    /// every stream stays in order.
    to_worker_at: Duration,
    to_coordinator_at: Duration,
    /// The coordinator closed its side of the stream.
    closed: bool,
}

/// A scheduled happening on the virtual clock.
enum Sim {
    /// A frame (or end of stream) reaches worker `i`.
    ToWorker(usize, Option<Message>),
    /// Worker `i` finishes computing its lease of this ordinal,
    /// `[start, end)`.
    Computed(usize, u64, u64, u64),
    /// Worker `i`'s heartbeat timer for its lease of this ordinal.
    Heartbeat(usize, u64, u64, u64),
    /// A bogus heartbeat from worker `i`.
    Bogus(usize),
    /// A stalled worker `i` gives up and drops its connection.
    Wake(usize),
    /// An event reaches the coordinator.
    ToCoordinator(FleetEvent),
}

/// A fleet of simulated workers behind the coordinator's [`Fleet`]
/// seam, on a virtual clock. Frame delays, compute times and fault
/// plans all come from one seed, so a schedule replays exactly.
struct SimFleet {
    now: Duration,
    rng: Rng,
    seq: u64,
    queue: BTreeMap<(Duration, u64), Sim>,
    workers: Vec<SimWorker>,
    /// Results the coordinator received from workers still in the
    /// session, with genuine cells: `(job hash, range)`, in order.
    accepted: Vec<(String, CellRange)>,
    /// Events handled, to catch a livelock.
    steps: u64,
}

/// Heartbeat cadence of a computing worker (`Worker`'s default).
const HEARTBEAT: Duration = Duration::from_millis(200);

impl SimFleet {
    /// A fleet of `workers` simulated workers drawn from `seed`; each
    /// sends its `Join` after a seeded delay.
    fn new(seed: u64, workers: &[(Behaviour, FaultPlan)]) -> Self {
        let mut fleet = SimFleet {
            now: Duration::ZERO,
            rng: Rng::new(seed),
            seq: 0,
            queue: BTreeMap::new(),
            workers: Vec::new(),
            accepted: Vec::new(),
            steps: 0,
        };
        for (behaviour, plan) in workers {
            let cell_cost = Duration::from_micros(fleet.rng.range(100, 4_000));
            fleet.workers.push(SimWorker {
                behaviour: *behaviour,
                plan: plan.clone(),
                cached: HashMap::new(),
                job: None,
                awaiting_spec: None,
                wrong_hash_echoed: false,
                leases_seen: 0,
                inbox: VecDeque::new(),
                busy: false,
                computing: None,
                exited: false,
                cell_cost,
                to_worker_at: Duration::ZERO,
                to_coordinator_at: Duration::ZERO,
                closed: false,
            });
        }
        for w in 0..workers.len() {
            fleet.reply(
                w,
                Message::Join {
                    protocol: PROTOCOL_VERSION,
                },
            );
        }
        fleet
    }

    fn at(&mut self, t: Duration, what: Sim) {
        self.seq += 1;
        self.queue.insert((t, self.seq), what);
    }

    /// A frame delay: mostly a few milliseconds, now and then a long
    /// one.
    fn delay(&mut self) -> Duration {
        if self.rng.range(0, 15) == 0 {
            self.rng.ms(20, 120)
        } else {
            Duration::from_micros(self.rng.range(0, 3_000))
        }
    }

    /// Sends `event` from worker `w` to the coordinator, in stream
    /// order.
    fn upstream(&mut self, w: usize, event: FleetEvent) {
        let t = (self.now + self.delay()).max(self.workers[w].to_coordinator_at);
        self.workers[w].to_coordinator_at = t;
        self.at(t, Sim::ToCoordinator(event));
    }

    fn reply(&mut self, w: usize, msg: Message) {
        self.upstream(w, FleetEvent::Frame(w, msg));
    }

    /// Worker `w`'s `serve` returns: its stream closes after its last
    /// frame.
    fn exit(&mut self, w: usize) {
        let worker = &mut self.workers[w];
        worker.exited = true;
        worker.busy = true;
        worker.computing = None;
        worker.inbox.clear();
        self.upstream(w, FleetEvent::Closed(w, None));
    }

    /// Lets worker `w` read its inbox until it blocks.
    fn run_worker(&mut self, w: usize) {
        while !self.workers[w].busy {
            let Some(frame) = self.workers[w].inbox.pop_front() else {
                return;
            };
            self.read(w, frame);
        }
    }

    /// Worker `w` reads one frame, as `Worker::serve` would.
    fn read(&mut self, w: usize, frame: Option<Message>) {
        let worker = &self.workers[w];
        if worker.wrong_hash_echoed {
            if matches!(frame, None | Some(Message::Abort { .. })) {
                self.exit(w);
            }
            return;
        }
        if let Some(wanted) = worker.awaiting_spec.clone() {
            match frame {
                Some(Message::Spec { hash, text }) if hash == wanted => {
                    assert_eq!(spec_hash(&text), hash, "the coordinator's spec hashes");
                    let cells = spec_cells(&hash, &text);
                    let worker = &mut self.workers[w];
                    worker.awaiting_spec = None;
                    worker.cached.insert(hash.clone(), Arc::clone(&cells));
                    self.ready(w, hash, cells);
                }
                _ => self.exit(w),
            }
            return;
        }
        match frame {
            Some(Message::SpecHash { hash }) => {
                if let Some(cells) = self.workers[w].cached.get(&hash).cloned() {
                    self.ready(w, hash, cells);
                } else {
                    self.workers[w].awaiting_spec = Some(hash.clone());
                    self.reply(w, Message::NeedSpec { hash });
                }
            }
            Some(Message::Lease { start, end }) => self.lease(w, start, end),
            // `Done`, an abort, end of stream, or a frame out of turn.
            _ => self.exit(w),
        }
    }

    fn ready(&mut self, w: usize, hash: String, cells: Arc<Vec<Wire>>) {
        if self.workers[w].plan.wrong_hash() {
            self.workers[w].wrong_hash_echoed = true;
            self.reply(
                w,
                Message::Ready {
                    hash: "fnv1a:0000000000c0ffee".into(),
                },
            );
            return;
        }
        self.workers[w].job = Some((hash.clone(), cells));
        self.reply(w, Message::Ready { hash });
        if self.workers[w].behaviour == Behaviour::BogusHeartbeat {
            self.workers[w].busy = true;
            self.at(self.now + Duration::from_millis(40), Sim::Bogus(w));
        }
    }

    fn lease(&mut self, w: usize, start: u64, end: u64) {
        if self.workers[w].job.is_none() {
            return self.exit(w);
        }
        let ordinal = self.workers[w].leases_seen;
        self.workers[w].leases_seen += 1;
        let mut compute = self.workers[w].cell_cost * (end - start) as u32;
        if self.rng.range(0, 9) == 0 {
            // Now and then a lease runs far past any deadline, and
            // only its heartbeats keep it alive.
            compute += self.rng.ms(200, 1_500);
        }
        match self.workers[w].plan.fault_at(ordinal).cloned() {
            Some(Fault::Die) => return self.exit(w),
            Some(Fault::Stall) => {
                self.workers[w].busy = true;
                let hold = self.workers[w].plan.stall_hold_duration();
                return self.at(self.now + hold, Sim::Wake(w));
            }
            Some(Fault::CorruptWire) => {
                let n = (end - start) as usize;
                let cells = vec![Wire::Text("chaos: corrupt cell".into()); n];
                return self.reply(w, Message::Result { start, end, cells });
            }
            Some(Fault::Slow { millis }) => compute += Duration::from_millis(millis),
            Some(Fault::WrongHash) | None => {}
        }
        self.workers[w].busy = true;
        self.workers[w].computing = Some(ordinal);
        self.at(self.now + compute, Sim::Computed(w, ordinal, start, end));
        self.at(self.now + HEARTBEAT, Sim::Heartbeat(w, ordinal, start, end));
    }

    /// Handles one happening addressed to a worker.
    fn step(&mut self, what: Sim) {
        match what {
            Sim::ToWorker(w, frame) => {
                if !self.workers[w].exited {
                    self.workers[w].inbox.push_back(frame);
                    self.run_worker(w);
                }
            }
            Sim::Computed(w, ordinal, start, end) => {
                if self.workers[w].computing != Some(ordinal) {
                    return;
                }
                let (_, cells) = self.workers[w].job.as_ref().expect("a leased job");
                let cells = cells[start as usize..end as usize].to_vec();
                self.reply(w, Message::Result { start, end, cells });
                let worker = &mut self.workers[w];
                worker.computing = None;
                worker.busy = false;
                self.run_worker(w);
            }
            Sim::Heartbeat(w, ordinal, start, end) => {
                if self.workers[w].computing == Some(ordinal) {
                    self.reply(w, Message::Progress { start, end });
                    let next = self.now + HEARTBEAT;
                    self.at(next, Sim::Heartbeat(w, ordinal, start, end));
                }
            }
            Sim::Bogus(w) => {
                if !self.workers[w].exited && !self.workers[w].closed {
                    self.reply(
                        w,
                        Message::Progress {
                            start: 999_000,
                            end: 999_001,
                        },
                    );
                    self.at(self.now + Duration::from_millis(40), Sim::Bogus(w));
                } else if !self.workers[w].exited {
                    self.exit(w);
                }
            }
            Sim::Wake(w) => {
                if !self.workers[w].exited {
                    self.exit(w);
                }
            }
            Sim::ToCoordinator(_) => unreachable!("delivered by wait"),
        }
    }

    /// Logs a result the coordinator is about to receive if it counts:
    /// genuine cells from a worker still in the session.
    fn log_delivery(&mut self, event: &FleetEvent) {
        let FleetEvent::Frame(w, Message::Result { start, end, cells }) = event else {
            return;
        };
        let worker = &self.workers[*w];
        let Some((hash, genuine)) = &worker.job else {
            return;
        };
        let range = CellRange::new(*start, *end);
        if !worker.closed && cells[..] == genuine[range.start as usize..range.end as usize] {
            self.accepted.push((hash.clone(), range));
        }
    }
}

impl Fleet for SimFleet {
    fn now(&self) -> Duration {
        self.now
    }

    fn send(&mut self, worker: usize, msg: Message) {
        if self.workers[worker].closed {
            return;
        }
        let t = (self.now + self.delay()).max(self.workers[worker].to_worker_at);
        self.workers[worker].to_worker_at = t;
        self.at(t, Sim::ToWorker(worker, Some(msg)));
    }

    fn close(&mut self, worker: usize) {
        if !self.workers[worker].closed {
            self.workers[worker].closed = true;
            let t = self.workers[worker].to_worker_at.max(self.now);
            self.at(t, Sim::ToWorker(worker, None));
        }
    }

    fn wait(&mut self, until: Option<Duration>) -> (Duration, Option<FleetEvent>) {
        loop {
            self.steps += 1;
            assert!(self.steps < 1_000_000, "the schedule does not settle");
            let Some(entry) = self.queue.first_entry() else {
                let until = until.expect("the coordinator waits forever on a silent fleet");
                self.now = self.now.max(until);
                return (self.now, None);
            };
            let (t, _) = *entry.key();
            if until.is_some_and(|until| t > until) {
                self.now = self.now.max(until.expect("checked"));
                return (self.now, None);
            }
            let what = entry.remove();
            self.now = self.now.max(t);
            match what {
                Sim::ToCoordinator(event) => {
                    self.log_delivery(&event);
                    return (self.now, Some(event));
                }
                other => self.step(other),
            }
        }
    }
}

/// A spec the simulator sweeps, with its single-process reference.
struct Subject {
    scenario: Scenario,
    reference: ScenarioOutcome,
    reference_bits: String,
    /// Cells of each job (for a round loop, of every round).
    job_cells: u64,
    /// Whether each job journals to its own round file.
    rounds: bool,
}

impl Subject {
    fn new(scenario: Scenario, job_cells: u64, rounds: bool) -> Self {
        let reference = scenario.run(2).expect("in-process run");
        Subject {
            reference_bits: format!("{reference:?}"),
            reference,
            scenario,
            job_cells,
            rounds,
        }
    }

    fn journal(&self, base: &Path, job: usize) -> PathBuf {
        if self.rounds {
            round_journal_path(base, job as u32)
        } else {
            assert_eq!(job, 0, "a grid spec is one job");
            base.to_path_buf()
        }
    }
}

/// E16 in smoke shape: 100 grid cells, one job.
fn e16() -> &'static Subject {
    static E16: OnceLock<Subject> = OnceLock::new();
    E16.get_or_init(|| Subject::new(scenario(), 100, false))
}

/// E16 with its grid cut to 40 replications, for the debug sweep: a
/// schedule's cost is mostly its cells' journal JSON, and 40 cells
/// still take from 5 to 40 leases.
fn e16_40() -> &'static Subject {
    static E16_40: OnceLock<Subject> = OnceLock::new();
    E16_40.get_or_init(|| {
        let mut scenario = scenario();
        if let ExperimentSpec::KnightLeveson { replications, .. } = &mut scenario.experiment {
            *replications = 40;
        }
        Subject::new(scenario, 40, false)
    })
}

/// The committed adaptive spec: a round loop of 24-cell jobs.
fn adaptive() -> &'static Subject {
    static ADAPTIVE: OnceLock<Subject> = OnceLock::new();
    ADAPTIVE.get_or_init(|| {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/scenarios/adaptive_confidence.toml"
        );
        let text = std::fs::read_to_string(path).expect("committed adaptive spec");
        Subject::new(
            Scenario::from_spec_text(&text).expect("spec parses"),
            24,
            true,
        )
    })
}

/// One seeded fleet shape: workers and their fault plans, lease size
/// and deadline.
struct Shape {
    workers: Vec<(Behaviour, FaultPlan)>,
    lease_cells: u64,
    lease_timeout: Duration,
}

impl Shape {
    /// Each worker gets a seeded fault plan with odds of one in
    /// `faulty_in`. Lone workers are one draw in eight: a fleet whose
    /// every worker fails strands its job, and the in-process recovery
    /// of a whole job is the costliest part of a schedule in a debug
    /// build.
    fn draw(rng: &mut Rng, faulty_in: u64) -> Self {
        let workers = [1, 2, 2, 2, 3, 3, 3, 3][rng.range(0, 7) as usize];
        let workers = (0..workers)
            .map(|_| {
                let plan = if rng.range(1, faulty_in) > 1 {
                    FaultPlan::new()
                } else {
                    FaultPlan::seeded(rng.next()).stall_hold(rng.ms(50, 10_000))
                };
                (Behaviour::Faithful, plan)
            })
            .collect();
        Shape {
            workers,
            lease_cells: [1, 2, 5, 8][rng.range(0, 3) as usize],
            lease_timeout: Duration::from_millis([150, 500, 1_000][rng.range(0, 2) as usize]),
        }
    }

    fn coordinator(&self, subject: &Subject) -> Coordinator {
        Coordinator::new(subject.scenario.clone())
            .expect("compiles")
            .lease_cells(self.lease_cells)
            .lease_timeout(self.lease_timeout)
    }
}

/// The header's spec hash of a journal.
fn journal_hash(path: &Path) -> String {
    use std::io::BufRead;
    let mut line = String::new();
    std::io::BufReader::new(std::fs::File::open(path).expect("journal opens"))
        .read_line(&mut line)
        .expect("journal reads");
    let header: Wire = serde_json::from_str(&line).expect("header parses");
    let hash = header.field("spec_hash").and_then(Wire::as_text);
    hash.expect("header names its spec").to_string()
}

/// The results of job `hash` the coordinator received and counts, in
/// arrival order.
fn accepted<'a>(fleet: &'a SimFleet, hash: &'a str) -> impl Iterator<Item = CellRange> + 'a {
    fleet
        .accepted
        .iter()
        .filter(move |(h, _)| h == hash)
        .map(|(_, range)| *range)
}

/// The journal records of job `hash` that the schedule implies, before
/// any kill point: each counted worker result in arrival order, then —
/// had the whole fleet gone — the in-process recovery of the remaining
/// gaps in base-sized ranges.
fn implied_records(fleet: &SimFleet, hash: &str, cells: u64, lease_cells: u64) -> Vec<Range<u64>> {
    let mut covered = BTreeSet::new();
    let mut records = Vec::new();
    for range in accepted(fleet, hash) {
        covered.extend(range.start..range.end);
        records.push(range.start..range.end);
    }
    let mut k = 0;
    while k < cells {
        if covered.contains(&k) {
            k += 1;
            continue;
        }
        let gap = k;
        while k < cells && !covered.contains(&k) {
            k += 1;
        }
        for start in (gap..k).step_by(lease_cells as usize) {
            records.push(start..(start + lease_cells).min(k));
        }
    }
    records
}

/// No cell is lost: each of a job's cells came from its journal, from a
/// counted worker result, or from the in-process recovery, which ran
/// exactly the rest.
fn assert_no_cell_lost(
    label: &str,
    stats: &DistStats,
    fleet: &SimFleet,
    journaled: &BTreeSet<u64>,
    cells: u64,
) {
    let mut covered = journaled.clone();
    for range in accepted(fleet, &stats.spec_hash) {
        covered.extend(range.start..range.end);
    }
    assert_eq!(stats.cells, cells, "{label}: {stats:?}");
    assert_eq!(
        stats.resumed_cells,
        journaled.len() as u64,
        "{label}: {stats:?}"
    );
    assert_eq!(
        covered.len() as u64 + stats.recovered_in_process,
        cells,
        "{label}: cells lost or run twice in process ({stats:?})"
    );
}

fn assert_reference(label: &str, subject: &Subject, outcome: &ScenarioOutcome) {
    assert_eq!(
        outcome, &subject.reference,
        "{label}: diverged structurally"
    );
    assert_eq!(
        format!("{outcome:?}"),
        subject.reference_bits,
        "{label}: diverged bitwise"
    );
}

/// Each job's stats in a run, in job order.
fn job_stats(run: &DistRun) -> Vec<&DistStats> {
    if run.rounds.is_empty() {
        vec![&run.stats]
    } else {
        run.rounds.iter().collect()
    }
}

/// Runs one seeded schedule on the virtual clock and checks it:
///
/// 1. a journaled run halted after `K` appends leaves exactly the `K`
///    records the schedule implies (or, when it finishes first, every
///    record, and folds the reference bits);
/// 2. a second incarnation on a fresh seeded fleet resumes that journal
///    and folds the reference bits;
/// 3. in every finished run, no cell is lost.
fn check_schedule(subject: &Subject, seed: u64) {
    let label = format!("schedule {seed}");
    let mut rng = Rng::new(seed);
    let base = std::env::temp_dir().join(format!(
        "divrel-sim-{}-{seed}-{}.ndjson",
        if subject.rounds { "rounds" } else { "grid" },
        std::process::id()
    ));
    // Mostly a kill within the first jobs' leases; one schedule in
    // sixteen runs to completion under a kill point it never reaches.
    let kill = if rng.range(0, 15) == 0 {
        1_000
    } else {
        rng.range(1, 8)
    };

    let shape = Shape::draw(&mut rng, 2);
    let coordinator = shape
        .coordinator(subject)
        .journal(&base)
        .halt_after_journal_appends(kill);
    let mut fleet = SimFleet::new(rng.next(), &shape.workers);
    let first = coordinator.run_on(&mut fleet, shape.workers.len());
    let halted = match &first {
        Err(e) => {
            assert!(e.to_string().contains("chaos halt"), "{label}: {e}");
            true
        }
        Ok(run) => {
            assert_reference(&label, subject, &run.outcome);
            for stats in job_stats(run) {
                let none = BTreeSet::new();
                assert_no_cell_lost(&label, stats, &fleet, &none, subject.job_cells);
            }
            false
        }
    };
    // The kill point: every journal but the halted one holds all its
    // records, fewer than K; the halted one exactly its first K.
    let mut journaled = Vec::new();
    let mut lengths = Vec::new();
    for job in 0.. {
        let path = subject.journal(&base, job);
        if !path.exists() {
            break;
        }
        let hash = journal_hash(&path);
        let mut implied = implied_records(&fleet, &hash, subject.job_cells, shape.lease_cells);
        implied.truncate(kill as usize);
        let records = lease_records(&path);
        assert_eq!(
            records, implied,
            "{label}: job {job} journal (kill at {kill})"
        );
        lengths.push(records.len() as u64);
        journaled.push(records.into_iter().flatten().collect::<BTreeSet<u64>>());
        if !subject.rounds {
            break;
        }
    }
    let (last, earlier) = lengths.split_last().expect("a journal was written");
    assert!(earlier.iter().all(|&n| n < kill), "{label}: {lengths:?}");
    assert_eq!(
        *last == kill,
        halted,
        "{label}: {lengths:?}, kill at {kill}"
    );

    let shape = Shape::draw(&mut rng, 4);
    let coordinator = shape.coordinator(subject).resume(&base);
    let mut fleet = SimFleet::new(rng.next(), &shape.workers);
    let run = coordinator
        .run_on(&mut fleet, shape.workers.len())
        .unwrap_or_else(|e| panic!("{label}: the resumed run fails: {e}"));
    assert_reference(&format!("{label} resumed"), subject, &run.outcome);
    let none = BTreeSet::new();
    for (job, stats) in job_stats(&run).into_iter().enumerate() {
        let journaled = journaled.get(job).unwrap_or(&none);
        assert_no_cell_lost(&label, stats, &fleet, journaled, subject.job_cells);
    }
    for job in 0..job_stats(&run).len() {
        let _ = std::fs::remove_file(subject.journal(&base, job));
    }
}

/// Checks the schedules of `seeds`, split over two threads: the
/// sweeps are the bulk of this suite's work.
fn sweep(subject: &'static Subject, seeds: Range<u64>) {
    let mid = seeds.start + (seeds.end - seeds.start) / 2;
    std::thread::scope(|scope| {
        for half in [seeds.start..mid, mid..seeds.end] {
            scope.spawn(move || half.for_each(|seed| check_schedule(subject, seed)));
        }
    });
}

/// Seeded chaos schedules on the virtual clock: one to three workers on
/// seeded fault plans and stall holds, seeded lease sizes and
/// deadlines, compute times and frame delays, a seeded kill point and a
/// resume on a second seeded fleet.
#[test]
fn seeded_chaos_schedules_fold_bit_identically() {
    sweep(e16_40(), 0..900);
}

/// The same schedules on the committed adaptive spec: a session of
/// round jobs, each journaled to its own file.
#[test]
fn seeded_adaptive_schedules_fold_bit_identically() {
    sweep(adaptive(), 0..100);
}

/// A large sweep for release builds:
/// `cargo test --release --test dist_chaos -- --ignored`.
#[test]
#[ignore = "a release-mode sweep; run with --release -- --ignored"]
fn twenty_thousand_simulated_schedules_fold_bit_identically() {
    let started = Instant::now();
    sweep(e16(), 0..18_000);
    sweep(adaptive(), 0..2_000);
    eprintln!("20000 simulated schedules in {:?}", started.elapsed());
}

/// A peer that heartbeats a range it was never leased is quarantined,
/// and the leases it held go to the healthy worker: on the virtual
/// clock, in every interleaving the seeds draw. Guided sizing leaves
/// the bogus peer leases in each of them, so only its quarantine can
/// finish the grid.
#[test]
fn a_heartbeat_for_no_held_lease_quarantines_its_worker() {
    let subject = e16();
    for seed in 0..50 {
        let coordinator = chaos_coordinator(subject.scenario.clone()).lease_cells(2);
        let workers = [
            (Behaviour::BogusHeartbeat, FaultPlan::new()),
            (Behaviour::Faithful, FaultPlan::new()),
        ];
        let mut fleet = SimFleet::new(seed, &workers);
        let run = coordinator
            .run_on(&mut fleet, workers.len())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_reference(&format!("seed {seed}"), subject, &run.outcome);
        assert_eq!(
            run.stats.quarantined_workers, 1,
            "seed {seed}: {:?}",
            run.stats
        );
        let fault = &run.stats.worker_faults[0];
        assert!(
            fault.contains("unexpected frame") && fault.contains("999000"),
            "seed {seed}: {fault}"
        );
        assert_eq!(run.stats.worker_cells[0], 0, "seed {seed}");
        assert!(run.stats.retries >= 1, "seed {seed}: {:?}", run.stats);
    }
}
