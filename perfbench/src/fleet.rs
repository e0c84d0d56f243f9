//! The fleet pass: `scenario_run --worker-stdio` children driven by the
//! library's coordinators, optionally through a transport tap that
//! timestamps and sizes every frame without touching `dist.rs`.

use divrel_bench::dist::framing::encode_result_frame;
use divrel_bench::dist::{
    spawn_stdio_fleet, AdaptiveCoordinator, Coordinator, DistStats, FrameRecv, FrameSend,
    FramingMode, Message, Transport, PROTOCOL_VERSION,
};
use divrel_bench::scenario::{ExperimentSpec, ScenarioOutcome, ScenarioResult};
use divrel_bench::Scenario;
use std::path::Path;
use std::process::Child;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workers per fleet, one compute thread each: two threads on a
/// two-core host, the same budget as the in-process pass at one thread
/// plus the coordinator, which mostly waits.
pub const WORKERS: usize = 2;

/// One fleet pass, start to rendered card.
pub struct FleetPass {
    pub outcome: ScenarioOutcome,
    pub wall_s: f64,
    /// Coordinator time with spawning taken out.
    pub coordinate_s: f64,
    /// Per-fleet statistics (one fleet, or one per adaptive round).
    pub stats: Vec<DistStats>,
}

/// Runs `scenario` on fresh 2-worker fleets of `exe`: one fleet for a
/// grid spec, one per round for an adaptive round loop (stdio workers
/// exit on `Done`). With a `tape`, every frame is recorded.
pub fn run(scenario: &Scenario, exe: &Path, tape: Option<&Tape>) -> ScenarioResult<FleetPass> {
    let adaptive = matches!(
        scenario.experiment,
        ExperimentSpec::AdaptivePfd { round: None, .. }
    );
    let mut reaper = Reaper(Vec::new());
    let mut spawn_s = 0.0;
    let mut spawn = |reaper: &mut Reaper| -> ScenarioResult<Vec<Box<dyn Transport>>> {
        let started = Instant::now();
        let fleet = spawn_stdio_fleet(exe, WORKERS, 1, true, &[])
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        spawn_s += started.elapsed().as_secs_f64();
        reaper.0.extend(fleet.children);
        let Some(tape) = tape else {
            return Ok(fleet.transports);
        };
        let id = tape.open_fleet(started);
        Ok(fleet
            .transports
            .into_iter()
            .enumerate()
            .map(|(worker, inner)| {
                Box::new(Tap {
                    inner,
                    tape: tape.clone(),
                    fleet: id,
                    worker,
                }) as Box<dyn Transport>
            })
            .collect())
    };
    let started = Instant::now();
    let (outcome, stats, run_s) = if adaptive {
        let coordinator = AdaptiveCoordinator::new(scenario.clone())?;
        let t = Instant::now();
        let run = coordinator.run(|_round| spawn(&mut reaper));
        let run_s = t.elapsed().as_secs_f64();
        reaper.reap();
        let run = run?;
        (ScenarioOutcome::Adaptive(run.outcome), run.rounds, run_s)
    } else {
        let coordinator = Coordinator::new(scenario.clone())?;
        let transports = spawn(&mut reaper)?;
        let t = Instant::now();
        let run = coordinator.run(transports);
        let run_s = t.elapsed().as_secs_f64();
        reaper.reap();
        let run = run?;
        (run.outcome, vec![run.stats], run_s)
    };
    std::hint::black_box(outcome.card(&scenario.name).to_markdown());
    let wall_s = started.elapsed().as_secs_f64();
    // An adaptive loop spawns its per-round fleets inside the
    // coordinator's run; a grid spec spawns before it.
    let coordinate_s = if adaptive { run_s - spawn_s } else { run_s };
    Ok(FleetPass {
        outcome,
        wall_s,
        coordinate_s,
        stats,
    })
}

/// Owns the worker processes of a pass. `reap` waits for workers that
/// were sent `Done`; dropping kills whatever is still running (an
/// error path) and waits for it, so no worker outlives the pass.
struct Reaper(Vec<Child>);

impl Reaper {
    fn reap(&mut self) {
        for mut child in self.0.drain(..) {
            let _ = child.wait();
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Ready,
    Lease { start: u64, end: u64 },
    Result { start: u64, end: u64, cells: u64 },
    Done,
    Other,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    fleet: usize,
    worker: usize,
    at: Instant,
    kind: Kind,
    bytes: u64,
}

/// The frame log of a traced fleet pass, shared by every tap half.
#[derive(Clone, Default)]
pub struct Tape(Arc<Mutex<TapeInner>>);

#[derive(Default)]
struct TapeInner {
    fleet_starts: Vec<Instant>,
    frames: Vec<Frame>,
}

impl Tape {
    fn open_fleet(&self, spawned_at: Instant) -> usize {
        let mut t = self.0.lock().expect("tape poisoned");
        t.fleet_starts.push(spawned_at);
        t.fleet_starts.len() - 1
    }

    fn record(&self, fleet: usize, worker: usize, msg: &Message) {
        let at = Instant::now();
        let kind = match msg {
            Message::Join { .. } => Kind::Join,
            Message::Ready { .. } => Kind::Ready,
            Message::Lease { start, end } => Kind::Lease {
                start: *start,
                end: *end,
            },
            Message::Result { start, end, cells } => Kind::Result {
                start: *start,
                end: *end,
                cells: cells.len() as u64,
            },
            Message::Done => Kind::Done,
            _ => Kind::Other,
        };
        let bytes = frame_bytes(msg);
        self.0.lock().expect("tape poisoned").frames.push(Frame {
            fleet,
            worker,
            at,
            kind,
            bytes,
        });
    }

    /// The `dist.*` metrics the frame log yields.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let t = self.0.lock().expect("tape poisoned");
        let (mut spawn, mut handshake, mut idle) = (0.0, 0.0, 0.0);
        let (mut busiest, mut total) = (0u64, 0u64);
        for (fleet, &started) in t.fleet_starts.iter().enumerate() {
            let mut fleet_cells = Vec::new();
            for worker in 0..WORKERS {
                let frames: Vec<&Frame> = t
                    .frames
                    .iter()
                    .filter(|f| f.fleet == fleet && f.worker == worker)
                    .collect();
                let at =
                    |kind: fn(&Kind) -> bool| frames.iter().find(|f| kind(&f.kind)).map(|f| f.at);
                let (Some(join), Some(ready)) = (
                    at(|k| matches!(k, Kind::Join)),
                    at(|k| matches!(k, Kind::Ready)),
                ) else {
                    continue;
                };
                let done = at(|k| matches!(k, Kind::Done))
                    .or_else(|| frames.last().map(|f| f.at))
                    .unwrap_or(ready);
                spawn += secs(started, join) / WORKERS as f64;
                handshake += secs(join, ready) / WORKERS as f64;
                // Busy while at least one lease is outstanding: the
                // union of [lease sent, result received] intervals.
                let mut spans: Vec<(Instant, Instant)> = Vec::new();
                let mut cells = 0;
                for f in &frames {
                    if let Kind::Result {
                        start,
                        end,
                        cells: n,
                    } = f.kind
                    {
                        cells += n;
                        let granted = frames
                            .iter()
                            .find(|g| g.kind == Kind::Lease { start, end } && g.at <= f.at);
                        spans.push((granted.map_or(f.at, |g| g.at), f.at));
                    }
                }
                spans.sort();
                let mut busy = 0.0;
                let mut covered: Option<(Instant, Instant)> = None;
                for (s, e) in spans {
                    covered = match covered {
                        Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            busy += secs(cs, ce);
                            Some((s, e))
                        }
                        None => Some((s, e)),
                    };
                }
                if let Some((cs, ce)) = covered {
                    busy += secs(cs, ce);
                }
                idle += (secs(ready, done) - busy).max(0.0);
                fleet_cells.push(cells);
            }
            busiest += fleet_cells.iter().copied().max().unwrap_or(0);
            total += fleet_cells.iter().sum::<u64>();
        }
        vec![
            ("dist.spawn_s", spawn),
            ("dist.handshake_s", handshake),
            (
                "dist.busiest_share",
                if total == 0 {
                    0.0
                } else {
                    busiest as f64 / total as f64
                },
            ),
            ("dist.worker_idle_s", idle),
            ("dist.frames", t.frames.len() as f64),
            (
                "dist.bytes",
                t.frames.iter().map(|f| f.bytes).sum::<u64>() as f64,
            ),
        ]
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Bytes a frame occupies on a stdio stream: a JSON line, or the binary
/// form a worker uses for `Result` frames under the negotiated
/// protocol. Every fleet worker is the same binary, so the protocol is
/// [`PROTOCOL_VERSION`].
fn frame_bytes(msg: &Message) -> u64 {
    match msg {
        Message::Result { start, end, cells }
            if FramingMode::from_env().use_binary(PROTOCOL_VERSION) =>
        {
            encode_result_frame(*start, *end, cells).len() as u64
        }
        other => serde_json::to_string(other).map_or(0, |line| line.len() as u64 + 1),
    }
}

/// A worker transport that records every frame it carries.
struct Tap<T: ?Sized> {
    inner: Box<T>,
    tape: Tape,
    fleet: usize,
    worker: usize,
}

impl<T: ?Sized> Tap<T> {
    fn with<U: ?Sized>(&self, inner: Box<U>) -> Tap<U> {
        Tap {
            inner,
            tape: self.tape.clone(),
            fleet: self.fleet,
            worker: self.worker,
        }
    }

    fn log<R>(&self, msg: &Message, sent: std::io::Result<R>) -> std::io::Result<R> {
        if sent.is_ok() {
            self.tape.record(self.fleet, self.worker, msg);
        }
        sent
    }

    fn log_recv(&self, got: std::io::Result<Option<Message>>) -> std::io::Result<Option<Message>> {
        if let Ok(Some(msg)) = &got {
            self.tape.record(self.fleet, self.worker, msg);
        }
        got
    }
}

impl Transport for Tap<dyn Transport> {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        let sent = self.inner.send(msg);
        self.log(msg, sent)
    }

    fn recv(&mut self) -> std::io::Result<Option<Message>> {
        let got = self.inner.recv();
        self.log_recv(got)
    }

    fn send_binary(&mut self, msg: &Message) -> std::io::Result<()> {
        let sent = self.inner.send_binary(msg);
        self.log(msg, sent)
    }

    fn split(self: Box<Self>) -> (Box<dyn FrameSend>, Box<dyn FrameRecv>) {
        let Tap {
            inner,
            tape,
            fleet,
            worker,
        } = *self;
        let (tx, rx) = inner.split();
        let tx = Tap {
            inner: tx,
            tape,
            fleet,
            worker,
        };
        let rx = tx.with(rx);
        (Box::new(tx), Box::new(rx))
    }
}

impl FrameSend for Tap<dyn FrameSend> {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        let sent = self.inner.send(msg);
        self.log(msg, sent)
    }

    fn send_binary(&mut self, msg: &Message) -> std::io::Result<()> {
        let sent = self.inner.send_binary(msg);
        self.log(msg, sent)
    }
}

impl FrameRecv for Tap<dyn FrameRecv> {
    fn recv(&mut self) -> std::io::Result<Option<Message>> {
        let got = self.inner.recv();
        self.log_recv(got)
    }
}
