//! `scenario_run` — execute any declarative scenario spec end to end,
//! in process or across a fleet of worker processes.
//!
//! ```text
//! scenario_run <spec.toml|spec.json> [--threads N] [--results DIR]
//! scenario_run --preset <E16|E17|F1|MC> [--smoke] [--threads N] [--results DIR]
//! scenario_run --preset <id> --emit <toml|json>
//! scenario_run --coordinator N [--bind ADDR] [--lease-cells K] [--lease-timeout-ms T]
//!              [--journal PATH [--resume]] [--chaos MAP] [--chaos-exit-after K]
//!              [--check-single] <spec>
//! scenario_run --worker <ADDR> [--persist] [--threads N] [--fault PLAN]
//! ```
//!
//! The spec format is auto-detected (JSON if the file starts with `{`,
//! TOML otherwise). The scenario is validated, compiled onto the
//! deterministic sweep engine, and its reduced accumulators are rendered
//! to stdout and into `DIR/scenario-<name>/` (report + canonical spec).
//! `--emit` prints a preset as a spec file instead of running it — the
//! quickest way to start a new scenario is to emit one and edit it.
//!
//! `--coordinator N` executes the spec on a fleet: by default it spawns
//! `N` local worker processes (this same binary in a hidden
//! `--worker-stdio` mode) and talks line-delimited JSON over their
//! stdin/stdout; with `--bind ADDR` it listens on a TCP socket and
//! waits for `N` remote workers started as `scenario_run --worker ADDR`
//! on any host. Either way the fleet is assembled once and serves the
//! run as one session of jobs: a grid spec is one job, and an
//! `AdaptivePfd` spec's round loop runs each posterior-derived round,
//! pinned into the spec, as the next job on the same workers. The
//! reduced outcome is **bit-identical** to the in-process run — any
//! worker count, any lease partitioning, any failure/recovery history —
//! and `--check-single` re-runs the spec in process afterwards and
//! fails loudly if a single bit differs.
//!
//! Durability and chaos:
//!
//! * `--journal PATH` write-ahead journals every completed lease (an
//!   adaptive spec journals round `r` to `PATH.r<r>`); `--resume`
//!   restarts a killed campaign from its journals, leasing only the
//!   cells they are missing and re-deriving every adaptive allocation —
//!   bit-identical to an uninterrupted run.
//! * `--chaos "0=die@1;1=stall@0"` installs a per-worker
//!   [`FaultPlan`] on a spawned fleet (`--fault PLAN` is the
//!   worker-side flag it compiles to; lease ordinals count over the
//!   whole run); `--chaos-exit-after K` makes the coordinator stop dead
//!   after the `K`-th append to one journal — the crash/resume
//!   rehearsal the CI chaos jobs run.
//!
//! Protocol v4 does not negotiate: every worker must be the
//! coordinator's build. Result frames use the compact binary framing;
//! `DIVREL_DIST_FRAMING=json` on a worker sends them as JSON lines, a
//! debugging aid. `--worker ... --persist` keeps a TCP worker alive
//! across successive runs: after each run it reconnects and serves the
//! next one, keeping its compiled-spec cache warm, so a re-run of the
//! same committed spec handshakes with just the spec hash and never
//! re-ships (or re-compiles) the spec.

use divrel_bench::context::default_sweep_threads;
use divrel_bench::dist::{
    spawn_stdio_fleet, Coordinator, DistStats, FaultPlan, JsonLines, StdioFleet, Transport, Worker,
};
use divrel_bench::{Context, Scenario};
use divrel_report::{ArtifactSink, ScenarioCard};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
scenario_run — execute a declarative scenario spec

USAGE:
  scenario_run <spec.toml|spec.json> [--threads N] [--results DIR]
  scenario_run --preset <E16|E17|F1|MC> [--smoke] [--threads N] [--results DIR]
  scenario_run --preset <id> --emit <toml|json>
  scenario_run --coordinator N [--bind ADDR] [--lease-cells K] [--lease-timeout-ms T]
               [--journal PATH [--resume]] [--chaos MAP] [--chaos-exit-after K]
               [--check-single] <spec>
  scenario_run --worker <ADDR> [--persist] [--threads N] [--fault PLAN]

A spec file declares the whole experiment — fault model, plant, channel
layout, grid and seed — and the engine guarantees the reduced output is
bit-identical at every thread count, worker count, lease layout and
failure/recovery history. Presets re-express the paper's hand-coded
runners; --emit prints one as a starting point:

  scenario_run --preset F1 --emit toml > my_scenario.toml

Distributed execution of a committed spec (one fleet per run; an
adaptive spec's rounds run as jobs on it; every worker must be the
coordinator's build):

  scenario_run --coordinator 4 scenarios/slow_markov_plant.toml
  scenario_run --coordinator 2 --bind 0.0.0.0:9301 my_scenario.toml   # host A
  scenario_run --worker hostA:9301                                    # hosts B, C

Durable + chaos-tested execution:

  scenario_run --coordinator 3 --journal run.ndjson my_scenario.toml
  scenario_run --coordinator 3 --journal run.ndjson --resume my_scenario.toml
  scenario_run --coordinator 3 --journal run.ndjson \\
               --chaos '0=stall@0;1=die@1' --chaos-exit-after 2 my_scenario.toml

Fault plans: die@N, stall@N, corrupt@N, wrong-hash, slow:MS@N, hold:MS,
seed:S or none — comma-separated, keyed by 0-based lease ordinal.
";

/// Writes `line` and its newline to stderr in one `write_all` on the
/// locked handle. The processes of a spawned fleet share one stderr,
/// and `eprintln!` writes each formatted piece separately, so their
/// lines could splice mid-line.
fn log_line(line: &str) {
    let _ = std::io::stderr()
        .lock()
        .write_all(format!("{line}\n").as_bytes());
}

struct Args {
    spec_path: Option<String>,
    preset: Option<String>,
    emit: Option<String>,
    smoke: bool,
    threads: Option<usize>,
    results: String,
    coordinator: Option<usize>,
    bind: Option<String>,
    lease_cells: Option<u64>,
    lease_timeout_ms: Option<u64>,
    journal: Option<String>,
    resume: bool,
    chaos: Option<String>,
    chaos_exit_after: Option<u64>,
    check_single: bool,
    worker: Option<String>,
    worker_stdio: bool,
    persist: bool,
    fault: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        spec_path: None,
        preset: None,
        emit: None,
        smoke: false,
        threads: None,
        results: "results".into(),
        coordinator: None,
        bind: None,
        lease_cells: None,
        lease_timeout_ms: None,
        journal: None,
        resume: false,
        chaos: None,
        chaos_exit_after: None,
        check_single: false,
        worker: None,
        worker_stdio: false,
        persist: false,
        fault: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--preset" | "--emit" | "--threads" | "--results" | "--coordinator" | "--bind"
            | "--lease-cells" | "--lease-timeout-ms" | "--journal" | "--chaos"
            | "--chaos-exit-after" | "--worker" | "--fault" => {
                let key = argv[i].clone();
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("missing value for {key}"))?
                    .clone();
                match key.as_str() {
                    "--preset" => args.preset = Some(value),
                    "--emit" => args.emit = Some(value),
                    "--results" => args.results = value,
                    "--bind" => args.bind = Some(value),
                    "--journal" => args.journal = Some(value),
                    "--chaos" => args.chaos = Some(value),
                    "--worker" => args.worker = Some(value),
                    "--fault" => args.fault = Some(value),
                    "--threads" => {
                        args.threads = Some(
                            value
                                .parse::<usize>()
                                .ok()
                                .filter(|&t| t >= 1)
                                .ok_or_else(|| format!("--threads: invalid count {value:?}"))?,
                        );
                    }
                    "--coordinator" => {
                        args.coordinator =
                            Some(value.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                                || format!("--coordinator: invalid worker count {value:?}"),
                            )?);
                    }
                    "--lease-cells" => {
                        args.lease_cells =
                            Some(value.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(
                                || format!("--lease-cells: invalid cell count {value:?}"),
                            )?);
                    }
                    "--lease-timeout-ms" => {
                        args.lease_timeout_ms =
                            Some(value.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(
                                || format!("--lease-timeout-ms: invalid timeout {value:?}"),
                            )?);
                    }
                    "--chaos-exit-after" => {
                        args.chaos_exit_after =
                            Some(value.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(
                                || format!("--chaos-exit-after: invalid count {value:?}"),
                            )?);
                    }
                    _ => unreachable!(),
                }
                i += 2;
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            "--resume" => {
                args.resume = true;
                i += 1;
            }
            "--check-single" => {
                args.check_single = true;
                i += 1;
            }
            "--worker-stdio" => {
                args.worker_stdio = true;
                i += 1;
            }
            "--persist" => {
                args.persist = true;
                i += 1;
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                if args.spec_path.replace(path.to_string()).is_some() {
                    return Err("more than one spec path given".into());
                }
                i += 1;
            }
        }
    }
    if args.worker.is_some() || args.worker_stdio {
        if args.worker.is_some() && args.worker_stdio {
            return Err("provide --worker ADDR or --worker-stdio, not both".into());
        }
        if args.spec_path.is_some() || args.preset.is_some() || args.coordinator.is_some() {
            return Err("worker mode takes no spec: the coordinator ships it".into());
        }
        if args.persist && args.worker_stdio {
            return Err("--persist needs --worker ADDR: a stdio pipe cannot reconnect".into());
        }
        // A worker only accepts --threads, --fault and --persist;
        // silently ignoring a coordinator flag would let an operator
        // believe it took effect.
        for (flag, present) in [
            ("--bind", args.bind.is_some()),
            ("--lease-cells", args.lease_cells.is_some()),
            ("--lease-timeout-ms", args.lease_timeout_ms.is_some()),
            ("--journal", args.journal.is_some()),
            ("--resume", args.resume),
            ("--chaos", args.chaos.is_some()),
            ("--chaos-exit-after", args.chaos_exit_after.is_some()),
            ("--check-single", args.check_single),
            ("--emit", args.emit.is_some()),
            ("--smoke", args.smoke),
            ("--results", args.results != "results"),
        ] {
            if present {
                return Err(format!(
                    "{flag} is a coordinator flag; workers take --threads, --fault and \
                     --persist only"
                ));
            }
        }
        if let Some(plan) = &args.fault {
            FaultPlan::parse(plan).map_err(|e| format!("--fault: {e}"))?;
        }
        return Ok(args);
    }
    if args.fault.is_some() {
        return Err("--fault is a worker flag; use --chaos on the coordinator".into());
    }
    if args.persist {
        return Err("--persist is a worker flag; it needs --worker ADDR".into());
    }
    if args.spec_path.is_none() && args.preset.is_none() {
        return Err("provide a spec file or --preset".into());
    }
    if args.spec_path.is_some() && args.preset.is_some() {
        return Err("provide a spec file OR --preset, not both".into());
    }
    if args.coordinator.is_none() {
        for (flag, present) in [
            ("--bind", args.bind.is_some()),
            ("--lease-cells", args.lease_cells.is_some()),
            ("--lease-timeout-ms", args.lease_timeout_ms.is_some()),
            ("--journal", args.journal.is_some()),
            ("--resume", args.resume),
            ("--chaos", args.chaos.is_some()),
            ("--chaos-exit-after", args.chaos_exit_after.is_some()),
            ("--check-single", args.check_single),
        ] {
            if present {
                return Err(format!("{flag} needs --coordinator N"));
            }
        }
    }
    if args.resume && args.journal.is_none() {
        return Err("--resume needs --journal PATH".into());
    }
    if args.chaos_exit_after.is_some() && args.journal.is_none() {
        return Err("--chaos-exit-after counts journal appends; it needs --journal PATH".into());
    }
    if args.chaos.is_some() && args.bind.is_some() {
        return Err(
            "--chaos configures spawned local workers; with --bind, start remote \
             workers with --fault instead"
                .into(),
        );
    }
    Ok(args)
}

fn load_scenario(args: &Args) -> Result<Scenario, String> {
    if let Some(id) = &args.preset {
        let ctx = if args.smoke {
            Context::smoke()
        } else {
            Context::new()
        };
        return Scenario::preset_with(id, &ctx).ok_or_else(|| {
            format!(
                "unknown preset {id:?} (available: {})",
                Scenario::PRESETS.join(", ")
            )
        });
    }
    let path = args.spec_path.as_deref().expect("checked by parse_args");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    Scenario::from_spec_text(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))
}

fn write_artifacts(args: &Args, scenario: &Scenario, card: &ScenarioCard) -> Result<(), String> {
    let sink = ArtifactSink::new(&args.results, &format!("scenario-{}", scenario.name))
        .map_err(|e| format!("cannot open artifact directory: {e}"))?;
    sink.write_text("report", &card.to_markdown())
        .map_err(|e| format!("cannot write report: {e}"))?;
    let canonical = scenario
        .to_toml()
        .map_err(|e| format!("cannot render canonical spec: {e}"))?;
    sink.write_text("spec", &canonical)
        .map_err(|e| format!("cannot write spec: {e}"))?;
    log_line(&format!("artifacts in {}", sink.dir().display()));
    Ok(())
}

/// Read/write timeout on every TCP transport: long enough to never trip
/// on a healthy fleet (the frame reader rides timeouts out without
/// losing partial frames), short enough that no end can block on a
/// wedged peer forever.
const TCP_IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Applies the anti-silent-hang socket options every TCP transport
/// gets: no Nagle delay on the tiny JSON frames, and bounded reads and
/// writes.
fn tune_tcp(stream: &TcpStream) -> Result<(), String> {
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot disable Nagle: {e}"))?;
    stream
        .set_read_timeout(Some(TCP_IO_TIMEOUT))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    stream
        .set_write_timeout(Some(TCP_IO_TIMEOUT))
        .map_err(|e| format!("cannot set write timeout: {e}"))?;
    Ok(())
}

/// Builds the worker a `--worker`/`--worker-stdio` invocation serves
/// with. One `Worker` value lives for the whole process, so a
/// `--persist` worker keeps its compiled-spec cache across connections.
fn build_worker(threads: usize, fault: &Option<String>) -> Result<Worker, String> {
    let mut worker = Worker::new().threads(threads);
    if let Some(plan) = fault {
        let plan = FaultPlan::parse(plan).map_err(|e| format!("--fault: {e}"))?;
        if !plan.is_empty() {
            log_line(&format!("worker chaos plan: {}", plan.to_arg()));
        }
        worker = worker.fault_plan(plan);
    }
    Ok(worker)
}

/// Serve one coordinator session as a worker; the protocol rides the
/// given transport, diagnostics go to stderr.
fn serve_connection<T: Transport>(worker: &Worker, mut transport: T) -> Result<(), String> {
    let summary = worker
        .serve(&mut transport)
        .map_err(|e| format!("worker failed: {e}"))?;
    log_line(&format!(
        "worker done: {} job(s) ({} from cache), {} lease(s), {} cell(s), last spec {}",
        summary.jobs,
        summary.cached_jobs,
        summary.leases_served,
        summary.cells_run,
        if summary.spec_hash.is_empty() {
            "-"
        } else {
            &summary.spec_hash
        },
    ));
    Ok(())
}

/// How long a `--persist` worker keeps retrying the coordinator address
/// between runs before concluding the campaign is over.
const PERSIST_RECONNECT_WINDOW: Duration = Duration::from_secs(10);

/// Connects to the coordinator, retrying refused connections within
/// `window` — between back-to-back coordinator runs the listener is
/// briefly down, and a persistent worker must ride that out.
fn connect_within(addr: &str, window: Duration) -> Result<TcpStream, String> {
    let deadline = std::time::Instant::now() + window;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if std::time::Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("cannot reach coordinator {addr}: {e}")),
        }
    }
}

/// Parses `--chaos "0=die@1;1=stall@0"` into per-worker extra argv for
/// the spawned fleet.
fn parse_chaos(text: &str, workers: usize) -> Result<Vec<Vec<String>>, String> {
    let mut extra = vec![Vec::new(); workers];
    for item in text.split(';').filter(|s| !s.trim().is_empty()) {
        let (idx, plan) = item
            .split_once('=')
            .ok_or_else(|| format!("--chaos item {item:?} is not WORKER=PLAN"))?;
        let idx: usize = idx
            .trim()
            .parse()
            .map_err(|e| format!("--chaos worker index {idx:?}: {e}"))?;
        if idx >= workers {
            return Err(format!(
                "--chaos worker index {idx} out of range (fleet of {workers})"
            ));
        }
        let plan = FaultPlan::parse(plan.trim()).map_err(|e| format!("--chaos: {e}"))?;
        extra[idx] = vec!["--fault".to_string(), plan.to_arg()];
    }
    Ok(extra)
}

/// Spawn `n` local worker child processes (this same binary in
/// `--worker-stdio` mode) via the shared fleet assembler.
fn spawn_local_workers(
    n: usize,
    threads: usize,
    extra_args: &[Vec<String>],
) -> Result<StdioFleet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    spawn_stdio_fleet(&exe, n, threads, false, extra_args)
        .map_err(|e| format!("cannot spawn workers: {e}"))
}

/// Accept `n` TCP workers on `addr`.
fn accept_tcp_workers(addr: &str, n: usize) -> Result<Vec<Box<dyn Transport>>, String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot bind coordinator on {addr}: {e}"))?;
    log_line(&format!(
        "coordinator listening on {} for {n} worker(s)…",
        listener.local_addr().map_err(|e| e.to_string())?
    ));
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
    for i in 0..n {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| format!("accepting worker {i}: {e}"))?;
        tune_tcp(&stream).map_err(|e| format!("tuning stream of {peer}: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning stream of {peer}: {e}"))?;
        log_line(&format!("worker {i} joined from {peer}"));
        transports.push(Box::new(JsonLines::new(reader, stream)));
    }
    Ok(transports)
}

/// Cells each worker returned, in fleet order (`8/8`): the lease
/// balance a provenance line shows.
fn cells_per_worker(stats: &DistStats) -> String {
    let counts: Vec<String> = stats.worker_cells.iter().map(u64::to_string).collect();
    if counts.is_empty() {
        "-".into()
    } else {
        counts.join("/")
    }
}

/// Runs the spec as one session on a fleet assembled once: spawned, or
/// accepted over `--bind`.
fn run_coordinator(args: &Args, scenario: Scenario, workers: usize) -> Result<(), String> {
    let mut coordinator = Coordinator::new(scenario.clone())
        .map_err(|e| format!("cannot compile scenario for distribution: {e}"))?;
    if let Some(cells) = args.lease_cells {
        coordinator = coordinator.lease_cells(cells);
    }
    if let Some(ms) = args.lease_timeout_ms {
        coordinator = coordinator.lease_timeout(Duration::from_millis(ms));
    }
    if let Some(path) = &args.journal {
        let path = Path::new(path);
        coordinator = if args.resume {
            log_line(&format!("resuming from journal {}", path.display()));
            coordinator.resume(path)
        } else {
            coordinator.journal(path)
        };
    }
    if let Some(k) = args.chaos_exit_after {
        coordinator = coordinator.halt_after_journal_appends(k);
        log_line(&format!(
            "chaos: coordinator will halt after {k} append(s) to one journal"
        ));
    }
    log_line(&format!(
        "coordinating scenario {:?} (seed {}, spec {}) over {workers} worker(s)…",
        scenario.name,
        scenario.seed.seed,
        coordinator.spec_hash(),
    ));
    let fleet_threads = args.threads.unwrap_or_else(default_sweep_threads);
    let (mut children, transports) = match &args.bind {
        Some(addr) => (Vec::new(), accept_tcp_workers(addr, workers)?),
        None => {
            let extra = match &args.chaos {
                Some(map) => parse_chaos(map, workers)?,
                None => Vec::new(),
            };
            let fleet = spawn_local_workers(workers, fleet_threads, &extra)?;
            (fleet.children, fleet.transports)
        }
    };
    let started = std::time::Instant::now();
    let run = coordinator
        .run(transports)
        .map_err(|e| format!("distributed run failed: {e}"));
    for child in &mut children {
        // Workers exit on Done/EOF; reap them so none outlive the run.
        let _ = child.wait();
    }
    let run = run?;
    let elapsed = started.elapsed();
    let stats = &run.stats;
    let mut card = run.outcome.card(&scenario.name);
    card.provenance("spec hash", &stats.spec_hash)
        .provenance("workers", stats.workers.to_string())
        .provenance(
            "leases",
            format!(
                "{} ({} retried, {} timed out); cells per worker {}",
                stats.leases,
                stats.retries,
                stats.timeouts,
                cells_per_worker(stats)
            ),
        )
        .provenance("quarantined workers", stats.quarantined_workers.to_string())
        .provenance("cells", stats.cells.to_string());
    if stats.resumed_from_journal {
        card.provenance(
            "resumed from journal",
            format!("{} cell(s) preloaded", stats.resumed_cells),
        );
    }
    if stats.recovered_in_process > 0 {
        card.provenance(
            "recovered in-process",
            format!("{} cell(s) after fleet loss", stats.recovered_in_process),
        );
    }
    for (i, round) in run.rounds.iter().enumerate() {
        let mut note = format!(
            "{} workers, {} leases ({} retried, {} timed out), {} cells",
            round.workers, round.leases, round.retries, round.timeouts, round.cells
        );
        if round.resumed_from_journal {
            note.push_str(&format!(", {} cell(s) from journal", round.resumed_cells));
        }
        note.push_str(&format!("; cells per worker {}", cells_per_worker(round)));
        card.provenance(format!("round {i} fleet"), note);
    }
    for note in &stats.worker_faults {
        log_line(&format!("survived worker fault: {note}"));
    }
    println!("{}", card.to_markdown());
    log_line(&format!("completed in {:.2}s", elapsed.as_secs_f64()));

    if args.check_single {
        // Re-run in process; fail unless the fleet's outcome and
        // rendered results match it bit for bit.
        log_line("re-running in process for the bit-identity check…");
        let single = scenario
            .run(args.threads.unwrap_or_else(default_sweep_threads))
            .map_err(|e| format!("in-process check run failed: {e}"))?;
        let dist_md = run.outcome.card(&scenario.name).results_markdown();
        let single_md = single.card(&scenario.name).results_markdown();
        if single != run.outcome || dist_md != single_md {
            return Err(format!(
                "BIT-IDENTITY VIOLATION: coordinator outcome differs from the in-process run \
                 of the same spec\n--- distributed ---\n{dist_md}\n\
                 --- in-process ---\n{single_md}"
            ));
        }
        let mut detail = format!(
            "{} workers, {} leases, {} retried, {} timed out",
            stats.workers, stats.leases, stats.retries, stats.timeouts
        );
        if !run.rounds.is_empty() {
            detail.push_str(&format!(", {} round(s)", run.rounds.len()));
        }
        log_line(&format!(
            "check passed: fleet outcome is bit-identical to the in-process run ({detail})"
        ));
    }
    write_artifacts(args, &scenario, &card)
}

fn run(args: Args) -> Result<(), String> {
    if args.worker_stdio {
        // Protocol rides stdout: nothing else may print there.
        let worker = build_worker(
            args.threads.unwrap_or_else(default_sweep_threads),
            &args.fault,
        )?;
        return serve_connection(&worker, JsonLines::new(std::io::stdin(), std::io::stdout()));
    }
    if let Some(addr) = &args.worker {
        let worker = build_worker(
            args.threads.unwrap_or_else(default_sweep_threads),
            &args.fault,
        )?;
        let mut connections = 0u64;
        loop {
            // The first connection fails fast (a wrong address should
            // not sit retrying); reconnects of a persistent worker ride
            // out the gap between coordinator runs.
            let window = if connections == 0 {
                Duration::ZERO
            } else {
                PERSIST_RECONNECT_WINDOW
            };
            let stream = match connect_within(addr, window) {
                Ok(stream) => stream,
                Err(e) if connections > 0 => {
                    log_line(&format!(
                        "coordinator gone after {connections} connection(s): {e}"
                    ));
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            tune_tcp(&stream)?;
            let reader = stream.try_clone().map_err(|e| e.to_string())?;
            log_line(&format!("joined coordinator at {addr}"));
            serve_connection(&worker, JsonLines::new(reader, stream))?;
            connections += 1;
            if !args.persist {
                return Ok(());
            }
        }
    }

    let scenario = load_scenario(&args)?;
    scenario
        .validate()
        .map_err(|e| format!("invalid scenario {:?}: {e}", scenario.name))?;

    if let Some(format) = &args.emit {
        let text = match format.as_str() {
            "toml" => scenario.to_toml(),
            "json" => scenario.to_json(),
            other => return Err(format!("unknown emit format {other:?} (toml|json)")),
        }
        .map_err(|e| format!("cannot render spec: {e}"))?;
        println!("{text}");
        return Ok(());
    }

    if let Some(workers) = args.coordinator {
        return run_coordinator(&args, scenario, workers);
    }

    let threads = args.threads.unwrap_or_else(default_sweep_threads);
    log_line(&format!(
        "running scenario {:?} (seed {}, {} worker thread(s))…",
        scenario.name, scenario.seed.seed, threads
    ));
    let started = std::time::Instant::now();
    let outcome = scenario
        .run(threads)
        .map_err(|e| format!("scenario {:?} failed: {e}", scenario.name))?;
    let elapsed = started.elapsed();
    let mut card = outcome.card(&scenario.name);
    if let Ok(canonical) = scenario.to_toml() {
        card.provenance("spec hash", divrel_bench::dist::spec_hash(&canonical));
    }
    card.provenance("workers", format!("in-process ({threads} threads)"));
    println!("{}", card.to_markdown());
    log_line(&format!("completed in {:.2}s", elapsed.as_secs_f64()));
    write_artifacts(&args, &scenario, &card)
}

fn main() -> ExitCode {
    // Only argument errors earn the usage text; runtime failures (a
    // faulted worker, an aborted run) report just the error.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            let error = if msg.is_empty() {
                String::new()
            } else {
                format!("error: {msg}\n\n")
            };
            log_line(&format!("{error}{}", USAGE.trim_end()));
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            log_line(&format!("error: {msg}"));
            ExitCode::FAILURE
        }
    }
}
