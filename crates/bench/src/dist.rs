//! Distributed sweep execution: a durable coordinator/worker runtime
//! for committed scenario specs.
//!
//! The scenario layer made experiments **shippable** — a spec file pins
//! the grid layout, the seed and therefore the exact output bits. This
//! module executes one committed spec across many processes (or hosts)
//! without giving up a single bit of that guarantee, and — since the
//! runtime itself must be the reliable system for long campaigns — it
//! treats failure as a modeled input, not an exception:
//!
//! * A [`Coordinator`] owns a validated [`Scenario`] and runs it as one
//!   **session** on a fleet: each worker joins once, then serves the
//!   session's jobs on the same connection — one job for a grid spec,
//!   one per round of an adaptive round loop. Each job's grid is
//!   partitioned into [`CellRange`] leases handed out over a
//!   line-delimited JSON protocol ([`Message`], one frame per line —
//!   the same frames work over a child process's stdin/stdout or a TCP
//!   socket), and the returned accumulators are folded **in canonical
//!   cell order**.
//! * A [`Worker`] (driven by [`Worker::serve`]) joins a coordinator,
//!   checks each job's spec hash, evaluates leased cell ranges of the
//!   same cell job the in-process path runs ([`DistJob::run_range`],
//!   see [`crate::job`]), streams [`Message::Progress`] heartbeats
//!   while a long lease runs, and returns per-cell accumulators in
//!   [wire form](divrel_numerics::wire) — `f64`s as bit patterns, so
//!   nothing rounds in transit.
//!
//! The fault-tolerance layer has three coupled pieces:
//!
//! * **Lease checkpointing** ([`journal`]): the coordinator appends a
//!   write-ahead [`Journal`] record as each lease completes; a
//!   restarted coordinator ([`Coordinator::resume`]) reloads collected
//!   accumulators and re-leases only the missing ranges. An adaptive
//!   loop journals each round to its own file ([`round_journal_path`]).
//! * **Deadlines and degradation**: every lease carries a deadline
//!   ([`Coordinator::lease_timeout`]); a silent worker's lease is
//!   re-issued with exponential backoff, a repeat offender is
//!   quarantined after [`Coordinator::straggler_strikes`] missed
//!   deadlines, corrupt or hash-mismatched responses quarantine the
//!   worker rather than abort the run, and whole-fleet loss degrades
//!   to in-process execution of the remaining cells.
//! * **Chaos injection** ([`chaos`]): a [`FaultPlan`] makes a worker
//!   die, stall, corrupt its wire payloads, echo a wrong hash, or run
//!   slow on a declared schedule, so tests can sweep failure
//!   histories.
//!
//! Because every cell's RNG stream is a pure function of
//! `(spec seed, cell index)` and the coordinator folds per-**cell**
//! accumulators in canonical order (never per-lease partials in arrival
//! order, first write wins on duplicates), the reduced outcome is
//! **bit-identical for any worker count, any lease partitioning, and
//! any failure/recovery history** — the PR 3 thread-invariance
//! guarantee lifted to unreliable fleets. `tests/dist_equivalence.rs`
//! and `tests/dist_chaos.rs` enforce this against the in-process
//! executor for every committed spec, preset, fault plan, and
//! crash/resume point.

pub mod chaos;
pub mod framing;
pub mod journal;

pub use chaos::{Fault, FaultPlan};
pub use framing::FramingMode;
pub use journal::{Journal, JournalError, JournalLoad};

use crate::adaptive::{drive, AdaptiveOutcome, AllocationStrategy, RoundPlan};
use crate::job::{compile, AnyJob};
use crate::scenario::{ExperimentSpec, Scenario, ScenarioOutcome, ScenarioResult};
use divrel_devsim::sweep::CellRange;
use divrel_numerics::wire::{Wire, WireError};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The protocol revision this build speaks. v2 added
/// [`Message::Progress`] heartbeats; v3 the cached-spec handshake
/// ([`Message::SpecHash`]/[`Message::NeedSpec`]) and binary `Result`
/// frames ([`framing`]); v4 sessions: one `Join` per connection, then a
/// `SpecHash` per job and `Done` after the last. There is no
/// negotiation: a `Join` at any other revision is refused, so every
/// worker of a fleet runs the coordinator's build.
pub const PROTOCOL_VERSION: u64 = 4;

/// Default base lease (see [`Coordinator::lease_cells`]): a worker's
/// starting grant and the granularity a failed lease is retried at.
/// Fleet balance comes from guided sizing, not from this value.
pub const DEFAULT_LEASE_CELLS: u64 = 8;

/// Default per-lease deadline: generous enough that only a genuinely
/// wedged worker trips it on real workloads. Chaos tests shrink it.
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(120);

/// Default straggler cap: a worker that misses this many consecutive
/// deadlines on one lease is quarantined.
pub const DEFAULT_STRAGGLER_STRIKES: u32 = 2;

/// Hash of a canonical spec text (64-bit FNV-1a, hex): the fingerprint
/// a worker checks before running leased cells, so a fleet can never
/// silently mix two versions of "the same" experiment.
#[must_use]
pub fn spec_hash(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

/// One protocol frame. Frames are serialised as single-line JSON
/// (externally tagged, like every spec type in the workspace) and
/// exchanged over any ordered byte stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator: first frame after connecting, once per
    /// session.
    Join {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Coordinator → worker: the committed spec, verbatim, plus its
    /// hash, in answer to [`Message::NeedSpec`]. The worker re-hashes
    /// the text and refuses a mismatch.
    Spec {
        /// [`spec_hash`] of `text`.
        hash: String,
        /// Canonical spec text (TOML).
        text: String,
    },
    /// Coordinator → worker: the next job's spec fingerprint — after
    /// the `Join` and again after each job, when the worker is idle. A
    /// worker that has already compiled this spec answers
    /// [`Message::Ready`] straight away; otherwise it answers
    /// [`Message::NeedSpec`] and the full [`Message::Spec`] follows — so
    /// a worker parses and compiles each spec once per hash.
    SpecHash {
        /// [`spec_hash`] of the job's committed spec.
        hash: String,
    },
    /// Worker → coordinator: the spec behind `hash` is not cached;
    /// send the full [`Message::Spec`].
    NeedSpec {
        /// Echo of the requested hash.
        hash: String,
    },
    /// Worker → coordinator: spec parsed, validated and hash-checked;
    /// ready for leases.
    Ready {
        /// Echo of the verified hash.
        hash: String,
    },
    /// Coordinator → worker: evaluate cells `[start, end)`.
    Lease {
        /// First cell index of the lease.
        start: u64,
        /// One past the last cell index.
        end: u64,
    },
    /// Worker → coordinator: heartbeat while a lease runs — `done` of
    /// the lease's cells are evaluated so far. Resets the lease
    /// deadline; carries no data.
    Progress {
        /// Echo of the lease start.
        start: u64,
        /// Echo of the lease end.
        end: u64,
        /// Cells of the lease evaluated so far.
        done: u64,
    },
    /// Worker → coordinator: the lease's per-cell accumulators, in
    /// ascending cell order, wire-encoded.
    Result {
        /// Echo of the lease start.
        start: u64,
        /// Echo of the lease end.
        end: u64,
        /// One wire accumulator per cell of the lease.
        cells: Vec<Wire>,
    },
    /// Coordinator → worker: the session is over; disconnect cleanly.
    Done,
    /// Either direction: a fatal error (spec mismatch, cell failure).
    /// Unlike a dropped connection, an abort is **not** retried — it
    /// means the work itself is broken, not the worker.
    Abort {
        /// Human-readable reason.
        reason: String,
    },
}

/// The sending half of a split [`Transport`].
pub trait FrameSend: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn send(&mut self, msg: &Message) -> std::io::Result<()>;

    /// Sends one frame in the compact binary form where the transport
    /// supports it, falling back to JSON otherwise (only
    /// [`Message::Result`] has a binary form). Custom transports get
    /// the fallback for free.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn send_binary(&mut self, msg: &Message) -> std::io::Result<()> {
        self.send(msg)
    }
}

/// The receiving half of a split [`Transport`].
pub trait FrameRecv: Send {
    /// Receives the next frame; `None` on a cleanly closed stream.
    ///
    /// A `TimedOut`/`WouldBlock` error (from a socket read timeout) is
    /// **retryable**: implementations must preserve any partially read
    /// frame across it.
    ///
    /// # Errors
    ///
    /// I/O errors; `InvalidData` for malformed frames.
    fn recv(&mut self) -> std::io::Result<Option<Message>>;
}

/// An ordered, framed byte stream a coordinator and a worker talk over.
pub trait Transport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn send(&mut self, msg: &Message) -> std::io::Result<()>;

    /// Receives the next frame; `None` on a cleanly closed stream.
    ///
    /// # Errors
    ///
    /// I/O errors, including malformed frames.
    fn recv(&mut self) -> std::io::Result<Option<Message>>;

    /// Sends one frame in the compact binary form where the transport
    /// supports it, falling back to JSON otherwise. See
    /// [`FrameSend::send_binary`].
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    fn send_binary(&mut self, msg: &Message) -> std::io::Result<()> {
        self.send(msg)
    }

    /// Splits the transport into independently owned send/receive
    /// halves, so a reader thread can pump frames while the driver
    /// writes — the shape the coordinator's deadline machinery needs.
    fn split(self: Box<Self>) -> (Box<dyn FrameSend>, Box<dyn FrameRecv>);
}

/// The writing half of [`JsonLines`]: one JSON document per
/// `\n`-terminated line, flushed per frame.
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write + Send> FrameSend for FrameWriter<W> {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        let line = serde_json::to_string(msg)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        self.inner.write_all(line.as_bytes())?;
        self.inner.write_all(b"\n")?;
        self.inner.flush()
    }

    fn send_binary(&mut self, msg: &Message) -> std::io::Result<()> {
        match msg {
            Message::Result { start, end, cells } => {
                let frame = framing::encode_result_frame(*start, *end, cells);
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
            other => self.send(other),
        }
    }
}

/// The reading half of [`JsonLines`]. Unlike a plain `BufReader`
/// `read_line` loop, partially read frames survive a socket read
/// timeout: bytes accumulate in an internal buffer and a
/// `TimedOut`/`WouldBlock` error simply surfaces to the caller, who may
/// retry `recv` without losing framing.
///
/// The reader demultiplexes the two frame forms on the first byte of
/// each frame: [`framing::BINARY_FRAME_MARKER`] (`0x00`, never the
/// start of a JSON document) opens a length-prefixed binary frame,
/// anything else a `\n`-terminated JSON line. Accepting both forms
/// unconditionally means a receiver never has to know which framing
/// the peer chose — mixed streams parse cleanly.
pub struct FrameReader<R: Read> {
    inner: R,
    pending: Vec<u8>,
    /// Leading bytes of `pending` already searched for a JSON line's
    /// `\n`, so each read is scanned once.
    scanned: usize,
}

impl<R: Read> FrameReader<R> {
    fn new(inner: R) -> Self {
        FrameReader {
            inner,
            pending: Vec::new(),
            scanned: 0,
        }
    }

    /// One read into the pending buffer. `Ok(false)` means clean EOF.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.pending.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Extracts one complete frame from the head of the pending buffer,
    /// or `None` if more bytes are needed. A JSON line is held to the
    /// binary payload cap, [`framing::MAX_BINARY_PAYLOAD`].
    fn take_frame(&mut self) -> std::io::Result<Option<Message>> {
        loop {
            match self.pending.first() {
                // Blank-line noise between JSON frames.
                Some(b'\n') | Some(b'\r') => {
                    self.pending.remove(0);
                }
                Some(&framing::BINARY_FRAME_MARKER) => {
                    return match framing::try_extract(&self.pending)? {
                        framing::Extracted::Frame(msg, used) => {
                            self.pending.drain(..used);
                            Ok(Some(msg))
                        }
                        framing::Extracted::Incomplete => Ok(None),
                    };
                }
                Some(_) => {
                    let Some(pos) = self.pending[self.scanned..]
                        .iter()
                        .position(|&b| b == b'\n')
                    else {
                        self.scanned = self.pending.len();
                        if self.scanned as u64 > framing::MAX_BINARY_PAYLOAD {
                            return Err(std::io::Error::new(
                                ErrorKind::InvalidData,
                                format!(
                                    "JSON line runs past {} bytes without a newline",
                                    framing::MAX_BINARY_PAYLOAD
                                ),
                            ));
                        }
                        return Ok(None);
                    };
                    let mut line: Vec<u8> = self.pending.drain(..=self.scanned + pos).collect();
                    self.scanned = 0;
                    line.pop();
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let line = String::from_utf8(line)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    return serde_json::from_str(&line)
                        .map(Some)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()));
                }
                None => return Ok(None),
            }
        }
    }
}

impl<R: Read + Send> FrameRecv for FrameReader<R> {
    fn recv(&mut self) -> std::io::Result<Option<Message>> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(Some(msg));
            }
            if !self.fill()? {
                if self.pending.is_empty() {
                    return Ok(None);
                }
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "connection closed mid-frame",
                ));
            }
        }
    }
}

/// The canonical transport: one JSON document per `\n`-terminated line.
/// Works over any `(Read, Write)` pair — a child process's
/// stdout/stdin, a TCP stream cloned for reading, an in-memory pipe in
/// tests.
pub struct JsonLines<R: Read, W: Write> {
    rx: FrameReader<R>,
    tx: FrameWriter<W>,
}

impl<R: Read, W: Write> JsonLines<R, W> {
    /// Wraps a read/write pair.
    pub fn new(reader: R, writer: W) -> Self {
        JsonLines {
            rx: FrameReader::new(reader),
            tx: FrameWriter { inner: writer },
        }
    }

    /// Unwraps the write end (for tests inspecting sent bytes).
    pub fn into_writer(self) -> W {
        self.tx.inner
    }
}

impl<R: Read + Send + 'static, W: Write + Send + 'static> Transport for JsonLines<R, W> {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.tx.send(msg)
    }

    fn recv(&mut self) -> std::io::Result<Option<Message>> {
        self.rx.recv()
    }

    fn send_binary(&mut self, msg: &Message) -> std::io::Result<()> {
        self.tx.send_binary(msg)
    }

    fn split(self: Box<Self>) -> (Box<dyn FrameSend>, Box<dyn FrameRecv>) {
        (Box::new(self.tx), Box::new(self.rx))
    }
}

/// A scenario compiled for range-at-a-time execution: the wire face of
/// its [`CellJob`](crate::job) — the job `Scenario::run` evaluates in
/// process. Workers evaluate leased [`CellRange`]s to `{kind, data}`
/// cell records; the coordinator admits each record and folds the full
/// list in canonical cell order, so `run_range` on any host produces
/// the exact per-cell bits of the in-process run.
///
/// An `AdaptivePfd` spec is distributable **one pinned round at a
/// time** (`round = Some`): [`Coordinator`] runs the round loop itself,
/// pinning each derived round and running it as the next job of the
/// same session.
pub struct DistJob {
    job: Box<dyn AnyJob>,
    threads: usize,
}

impl DistJob {
    /// Compiles a validated scenario into its distributable form.
    /// `threads` bounds the worker-side parallelism *within* one lease
    /// (an execution hint — the bits never depend on it).
    ///
    /// # Errors
    ///
    /// Spec validation and constructor errors.
    pub fn new(scenario: Scenario, threads: usize) -> ScenarioResult<Self> {
        scenario.validate()?;
        Ok(DistJob {
            job: compile(&scenario)?,
            threads: threads.max(1),
        })
    }

    /// Total grid cells (the lease space is `[0, cell_count)`).
    pub fn cell_count(&self) -> u64 {
        self.job.cell_count()
    }

    /// Evaluates the cells of `range` (clamped to the grid) and returns
    /// one wire-encoded accumulator per cell, in ascending cell order.
    /// A pure function of `(spec, range)` — any worker anywhere returns
    /// the same bytes.
    ///
    /// # Errors
    ///
    /// Simulation/model errors from any cell of the range.
    pub fn run_range(&self, range: CellRange) -> ScenarioResult<Vec<Wire>> {
        self.job.run_wire(range, self.threads)
    }

    /// Validates that `wire` is a well-formed cell accumulator for this
    /// job's experiment family.
    ///
    /// # Errors
    ///
    /// Wire-shape mismatches.
    pub fn check_cell(&self, wire: &Wire) -> Result<(), WireError> {
        self.job.check_wire(None, wire)
    }

    /// The admission check the coordinator runs on every untrusted
    /// payload for cell `k` (worker results, journal records) *before*
    /// publishing it to the reduction board: the shape check plus the
    /// family's per-cell check.
    fn admit_cell(&self, k: u64, wire: &Wire) -> Result<(), WireError> {
        self.job.check_wire(Some(k), wire)
    }

    /// Folds the full per-cell accumulator list (index `i` holding cell
    /// `i`'s wire form) in canonical cell order and assembles the
    /// scenario outcome — bit-identical to [`Scenario::run`].
    ///
    /// # Errors
    ///
    /// Wire-shape mismatches; outcome-assembly errors.
    pub fn finish(&self, cells: &[Wire]) -> ScenarioResult<ScenarioOutcome> {
        if cells.len() as u64 != self.cell_count() {
            return Err(format!(
                "reduction needs {} cell accumulators, got {}",
                self.cell_count(),
                cells.len()
            )
            .into());
        }
        self.job.finish_wire(cells)
    }
}

/// Execution statistics of a distributed run — the provenance the
/// scenario report records (kept out of the byte-comparable results
/// section).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistStats {
    /// [`spec_hash`] of the canonical spec the fleet executed.
    pub spec_hash: String,
    /// Workers that completed the handshake (for a session, the most
    /// in any one job).
    pub workers: usize,
    /// Leases issued, including re-issues.
    pub leases: u64,
    /// Leases re-issued after a worker died, misbehaved or timed out.
    pub retries: u64,
    /// Lease deadlines missed (each also counts one retry the first
    /// time the lease goes back in the queue).
    pub timeouts: u64,
    /// Workers quarantined for misbehaviour (wrong hash, corrupt
    /// payloads, straggling past the strike cap).
    pub quarantined_workers: usize,
    /// Human-readable notes on worker faults the run survived
    /// (quarantine reasons, transport errors) — diagnostics only.
    pub worker_faults: Vec<String>,
    /// Grid cells reduced.
    pub cells: u64,
    /// Cells each worker returned in accepted results, in the order
    /// the transports were handed to [`Coordinator::run`].
    pub worker_cells: Vec<u64>,
    /// Whether the run started from a resumed journal.
    pub resumed_from_journal: bool,
    /// Cells preloaded from the journal before any lease was issued.
    pub resumed_cells: u64,
    /// Cells the coordinator evaluated in-process after losing the
    /// whole fleet (graceful degradation).
    pub recovered_in_process: u64,
}

impl DistStats {
    /// Adds one job's statistics to a session's totals.
    fn absorb(&mut self, job: &DistStats) {
        self.workers = self.workers.max(job.workers);
        self.leases += job.leases;
        self.retries += job.retries;
        self.timeouts += job.timeouts;
        self.quarantined_workers += job.quarantined_workers;
        self.worker_faults.extend(job.worker_faults.iter().cloned());
        self.cells += job.cells;
        for (total, cells) in self.worker_cells.iter_mut().zip(&job.worker_cells) {
            *total += cells;
        }
        self.resumed_from_journal |= job.resumed_from_journal;
        self.resumed_cells += job.resumed_cells;
        self.recovered_in_process += job.recovered_in_process;
    }
}

/// A distributed scenario execution: outcome plus provenance.
#[derive(Debug)]
pub struct DistRun {
    /// The reduced outcome — bit-identical to [`Scenario::run`].
    pub outcome: ScenarioOutcome,
    /// How the fleet earned it, over the whole session.
    pub stats: DistStats,
    /// One entry per round of an adaptive round loop, round order;
    /// empty for a grid spec.
    pub rounds: Vec<DistStats>,
}

/// Pipeline depth: leases a worker may hold at once, so the next lease
/// is already granted while the current one computes.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Guided self-scheduling (Polychronopoulos & Kuck, 1987): a claim gets
/// the worker's adaptive `grant`, capped at its share of the `unleased`
/// cells so that no worker holds the tail while the others idle.
fn guided_lease_size(grant: u64, unleased: u64, live_workers: usize) -> u64 {
    let slots = (live_workers.max(1) * DEFAULT_PIPELINE_DEPTH) as u64;
    grant.min(unleased.div_ceil(slots).max(1))
}

/// A compiled job and the canonical spec text workers verify it by.
struct Compiled {
    dist: DistJob,
    text: String,
    hash: String,
}

impl Compiled {
    fn new(scenario: Scenario) -> ScenarioResult<Self> {
        let text = scenario.to_toml()?;
        let hash = spec_hash(&text);
        // The job doubles as the degradation executor, so give it real
        // parallelism; worker-side bits never depend on thread count.
        let dist = DistJob::new(scenario, crate::context::default_sweep_threads())?;
        Ok(Compiled { dist, text, hash })
    }
}

/// What a session runs.
enum Plan {
    /// A grid spec's one job, compiled up front.
    Grid(Arc<Compiled>),
    /// An un-pinned `AdaptivePfd` spec: each round is pinned into the
    /// spec and compiled when the loop derives it.
    Rounds(Box<Scenario>),
}

/// Coordinates a fleet of workers over one committed scenario. A run is
/// one **session**: every worker joins once, then serves the session's
/// jobs on the same connection. A grid spec is a session of one job; an
/// un-pinned `AdaptivePfd` spec runs its round loop ([`drive`]) with
/// each round as the next job, under the same settings.
pub struct Coordinator {
    plan: Plan,
    spec_hash: String,
    lease_cells: u64,
    lease_timeout: Duration,
    backoff_base: Duration,
    backoff_cap: Duration,
    straggler_strikes: u32,
    journal: Option<PathBuf>,
    resume: bool,
    halt_after_appends: Option<u64>,
}

impl Coordinator {
    /// Compiles `scenario` for distribution. The canonical spec text
    /// (TOML) is what travels to workers, whatever format the spec was
    /// loaded from.
    ///
    /// # Errors
    ///
    /// Spec validation and compilation errors.
    pub fn new(scenario: Scenario) -> ScenarioResult<Self> {
        scenario.validate()?;
        let (plan, hash) = if matches!(
            scenario.experiment,
            ExperimentSpec::AdaptivePfd { round: None, .. }
        ) {
            let hash = spec_hash(&scenario.to_toml()?);
            (Plan::Rounds(Box::new(scenario)), hash)
        } else {
            let job = Compiled::new(scenario)?;
            let hash = job.hash.clone();
            (Plan::Grid(Arc::new(job)), hash)
        };
        Ok(Coordinator {
            plan,
            spec_hash: hash,
            lease_cells: DEFAULT_LEASE_CELLS,
            lease_timeout: DEFAULT_LEASE_TIMEOUT,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            straggler_strikes: DEFAULT_STRAGGLER_STRIKES,
            journal: None,
            resume: false,
            halt_after_appends: None,
        })
    }

    /// Sets the base lease granularity (cells per lease, minimum 1).
    /// Purely an execution knob: the reduced bits are identical for
    /// every value because the fold is per-cell, never per-lease.
    ///
    /// Leases grow adaptively from this base: a worker that returns a
    /// lease without missing a deadline has its next grant doubled (up
    /// to 8× the base), and a missed deadline shrinks it back to the
    /// base. Every grant is also capped at the worker's share of the
    /// cells still unleased (guided self-scheduling), so leases shrink
    /// towards the end of the grid and every worker stays busy to the
    /// tail. Failed leases are re-queued in base-sized pieces.
    #[must_use]
    pub fn lease_cells(mut self, cells: u64) -> Self {
        self.lease_cells = cells.max(1);
        self
    }

    /// Sets the per-lease deadline: how long a worker may go without a
    /// [`Message::Progress`] or [`Message::Result`] frame before its
    /// lease is re-issued elsewhere.
    #[must_use]
    pub fn lease_timeout(mut self, timeout: Duration) -> Self {
        self.lease_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Sets the exponential backoff window for re-issuing a timed-out
    /// lease: the `n`-th re-issue waits `base * 2^n`, capped at `cap`.
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// Sets the straggler cap: a worker missing this many consecutive
    /// deadlines on one lease is quarantined (minimum 1).
    #[must_use]
    pub fn straggler_strikes(mut self, strikes: u32) -> Self {
        self.straggler_strikes = strikes.max(1);
        self
    }

    /// Journals every completed lease to a fresh file at `path`
    /// (truncating any existing one) before its cells are published to
    /// the reduction, so a later [`Coordinator::resume`] can pick up
    /// where a killed coordinator left off. Round `r` of an adaptive
    /// loop journals to [`round_journal_path`]`(path, r)`.
    #[must_use]
    pub fn journal(mut self, path: &Path) -> Self {
        self.journal = Some(path.to_path_buf());
        self.resume = false;
        self
    }

    /// Resumes from the journal at `path`: each job checks its journal
    /// against its spec hash and grid, preloads every recorded cell
    /// (first-write-wins), keeps appending to the same file, and leases
    /// out only the missing ranges. A round of an adaptive loop whose
    /// journal was never written runs fresh, and a fully journaled round
    /// runs no lease. [`Coordinator::run`] refuses a grid journal that is
    /// missing, written for another spec or grid, or holds a corrupt
    /// record.
    #[must_use]
    pub fn resume(mut self, path: &Path) -> Self {
        self.journal = Some(path.to_path_buf());
        self.resume = true;
        self
    }

    /// Chaos knob: the coordinator stops (as if killed) right after the
    /// `n`-th append to one job's journal — the deterministic crash
    /// point the resume tests and the CI chaos job rehearse. In an
    /// adaptive loop, the first round to reach `n` appends halts it.
    #[must_use]
    pub fn halt_after_journal_appends(mut self, n: u64) -> Self {
        self.halt_after_appends = Some(n.max(1));
        self
    }

    /// The fingerprint of the session's spec (for an adaptive loop,
    /// of the un-pinned spec; each round's job has its own).
    pub fn spec_hash(&self) -> &str {
        &self.spec_hash
    }

    /// Runs the session to completion. Each worker joins once; then each
    /// job offers its spec hash, hands out [`CellRange`] leases with
    /// deadlines, re-issues leases whose workers disconnect or go silent
    /// (exponential backoff, straggler cap), journals every completed
    /// lease and folds the per-cell accumulators in canonical order. A
    /// worker drains its leases before it gets the next job's
    /// [`Message::SpecHash`], or [`Message::Done`] after the last job.
    ///
    /// Worker death, silence, corrupt payloads and hash mismatches are
    /// all **recoverable** — the lease goes back in the queue and the
    /// offender is dropped or quarantined for the rest of the session.
    /// Losing the whole fleet is recoverable too: the remaining cells
    /// are evaluated in-process. Only a worker [`Message::Abort`]
    /// (broken *work*, not a broken worker) or a journal failure is
    /// fatal.
    ///
    /// # Errors
    ///
    /// A worker abort; journals that cannot be created, resumed or
    /// written; cell evaluation errors on the in-process degradation
    /// path; model, reduction and assembly errors.
    pub fn run(&self, workers: Vec<Box<dyn Transport>>) -> ScenarioResult<DistRun> {
        std::thread::scope(|scope| {
            // One job queue per worker. The queues close when this
            // closure returns (or unwinds), and each idle worker then
            // gets `Done`, so the scope can join it.
            let mut fleet = Fleet(Vec::new());
            for (worker, transport) in workers.into_iter().enumerate() {
                let (queue, jobs) = std::sync::mpsc::channel();
                fleet.0.push(Some(queue));
                scope.spawn(move || {
                    let (mut tx, mut rx) = transport.split();
                    let (events_tx, events) = std::sync::mpsc::channel();
                    // Deliberately unscoped: a pump blocked on a stalled
                    // peer must not be able to park the whole run at
                    // scope exit. It dies with the process or when the
                    // stream closes; the channel going dead tells it to
                    // stop forwarding.
                    std::thread::spawn(move || pump_frames(rx.as_mut(), &events_tx));
                    self.serve_worker(worker, tx.as_mut(), &events, jobs);
                });
            }
            self.run_jobs(&mut fleet)
        })
    }

    /// The session's job sequence, run while the worker threads serve
    /// it.
    fn run_jobs(&self, fleet: &mut Fleet) -> ScenarioResult<DistRun> {
        let scenario = match &self.plan {
            Plan::Grid(job) => {
                let (outcome, stats) =
                    self.run_job(fleet, Arc::clone(job), self.journal.clone(), false)?;
                return Ok(DistRun {
                    outcome,
                    stats,
                    rounds: Vec::new(),
                });
            }
            Plan::Rounds(scenario) => scenario.as_ref(),
        };
        let ExperimentSpec::AdaptivePfd {
            model,
            cells,
            refinement,
            ..
        } = &scenario.experiment
        else {
            unreachable!("a round loop is an AdaptivePfd spec");
        };
        let mut rounds: Vec<DistStats> = Vec::new();
        let outcome = drive(
            Arc::new(model.build()?),
            scenario.seed.seed,
            *cells,
            refinement,
            AllocationStrategy::PosteriorDriven,
            |_runtime, round, allocations| {
                let mut pinned = scenario.clone();
                if let ExperimentSpec::AdaptivePfd { round: slot, .. } = &mut pinned.experiment {
                    *slot = Some(RoundPlan {
                        round,
                        allocations: allocations.to_vec(),
                    });
                }
                let journal = self
                    .journal
                    .as_deref()
                    .map(|base| round_journal_path(base, round));
                let job = Arc::new(Compiled::new(pinned)?);
                let (outcome, stats) = self.run_job(fleet, job, journal, true)?;
                rounds.push(stats);
                match outcome {
                    ScenarioOutcome::AdaptiveRound(r) => Ok(r.evidence),
                    other => Err(format!(
                        "adaptive round {round} reduced to a non-round outcome: {other:?}"
                    )
                    .into()),
                }
            },
        )?;
        let mut stats = DistStats {
            spec_hash: self.spec_hash.clone(),
            worker_cells: vec![0; fleet.0.len()],
            ..DistStats::default()
        };
        for round in &rounds {
            stats.absorb(round);
        }
        Ok(DistRun {
            outcome: ScenarioOutcome::Adaptive(outcome),
            stats,
            rounds,
        })
    }

    /// Runs one job on the session's fleet, evaluates in process
    /// whatever cells the fleet left, and folds. The job journals to
    /// `journal` if one is attached; on resume it preloads that file,
    /// which a round of a loop may not have written yet
    /// (`fresh_if_missing`).
    fn run_job(
        &self,
        fleet: &mut Fleet,
        compiled: Arc<Compiled>,
        journal: Option<PathBuf>,
        fresh_if_missing: bool,
    ) -> ScenarioResult<(ScenarioOutcome, DistStats)> {
        let cell_count = compiled.dist.cell_count();
        let mut cells: Vec<Option<Wire>> = vec![None; cell_count as usize];
        let mut resumed = None;
        let journal = match journal {
            Some(path) if self.resume && (path.exists() || !fresh_if_missing) => {
                let (j, load) = Journal::resume(&path, &compiled.hash, cell_count)
                    .map_err(|e| format!("cannot resume journal {}: {e}", path.display()))?;
                resumed = Some(load.cells.len() as u64);
                for (idx, wire) in load.cells {
                    compiled
                        .dist
                        .admit_cell(idx, &wire)
                        .map_err(|e| format!("journal cell {idx} is corrupt: {e}"))?;
                    cells[idx as usize] = Some(wire);
                }
                Some(Mutex::new(j))
            }
            Some(path) => Some(Mutex::new(
                Journal::create(&path, &compiled.hash, cell_count)
                    .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?,
            )),
            None => None,
        };
        let filled = cells.iter().filter(|c| c.is_some()).count();
        // Whole gaps: claims split their leases off the front.
        let pending = missing_ranges(&cells, cell_count)
            .into_iter()
            .map(|range| PendingLease {
                range,
                attempt: 0,
                ready_at: None,
            })
            .collect();
        let job = Arc::new(Job {
            compiled,
            journal,
            board: Mutex::new(Board {
                pending,
                unleased: cell_count - filled as u64,
                worker_cells: vec![0; fleet.0.len()],
                cells,
                filled,
                ..Board::default()
            }),
            wakeup: Condvar::new(),
        });
        // A fully journaled job runs no lease.
        if (filled as u64) < cell_count {
            fleet.publish(&job);
            let mut b = job.board.lock().expect("lease board poisoned");
            while b.live > 0 {
                b = job.wakeup.wait(b).expect("lease board poisoned");
            }
        }
        let mut board = std::mem::take(&mut *job.board.lock().expect("lease board poisoned"));
        let mut recovered = 0u64;
        if board.fatal.is_none() && (board.filled as u64) < cell_count {
            // The whole fleet is gone with cells outstanding: degrade
            // to in-process execution. Same cells, same seeds, same
            // bits — only slower.
            for range in missing_ranges(&board.cells, self.lease_cells) {
                let wires = job.compiled.dist.run_range(range)?;
                match self.journal_append(&job, range, &wires) {
                    Err(e) => return Err(e.into()),
                    Ok(true) => {
                        board.fatal = Some(halt_message(self));
                        break;
                    }
                    Ok(false) => {}
                }
                for (i, w) in wires.into_iter().enumerate() {
                    let slot = &mut board.cells[range.start as usize + i];
                    if slot.is_none() {
                        *slot = Some(w);
                        board.filled += 1;
                        recovered += 1;
                    }
                }
            }
        }
        if let Some(fatal) = board.fatal {
            return Err(format!("distributed run aborted: {fatal}").into());
        }
        let cells: Vec<Wire> = board
            .cells
            .into_iter()
            .map(|c| c.expect("filled board has every cell"))
            .collect();
        let outcome = job.compiled.dist.finish(&cells)?;
        let stats = DistStats {
            spec_hash: job.compiled.hash.clone(),
            workers: board.handshaken,
            leases: board.leases,
            retries: board.retries,
            timeouts: board.timeouts,
            quarantined_workers: board.quarantined,
            worker_faults: board.faults,
            cells: cell_count,
            worker_cells: board.worker_cells,
            resumed_from_journal: resumed.is_some(),
            resumed_cells: resumed.unwrap_or(0),
            recovered_in_process: recovered,
        };
        Ok((outcome, stats))
    }

    /// Appends a completed lease to the job's journal (if one is
    /// attached). Returns `true` when the chaos halt point is reached.
    fn journal_append(&self, job: &Job, range: CellRange, cells: &[Wire]) -> Result<bool, String> {
        let Some(journal) = &job.journal else {
            return Ok(false);
        };
        let mut j = journal.lock().expect("journal poisoned");
        let appends = j
            .append(range, cells)
            .map_err(|e| format!("journal write failed: {e}"))?;
        Ok(self.halt_after_appends.is_some_and(|n| appends >= n))
    }

    /// Serves one worker for the whole session: its `Join` with its
    /// first job, then each queued job's handshake and lease loop, then
    /// `Done` once the queue closes. A worker that fails a job leaves
    /// the session.
    fn serve_worker(
        &self,
        worker: usize,
        tx: &mut dyn FrameSend,
        events: &Receiver<RxEvent>,
        jobs: Receiver<Arc<Job>>,
    ) {
        let mut joined = false;
        while let Ok(job) = jobs.recv() {
            let mut serve = || {
                if !joined {
                    self.check_join(tx, events)?;
                    joined = true;
                }
                self.handshake_ready(&job, tx, events)?;
                job.board.lock().expect("lease board poisoned").handshaken += 1;
                self.lease_loop(worker, tx, events, &job)
            };
            let served = serve();
            if served.is_err() {
                // Close the queue before releasing the job, so that no
                // later job counts on this worker.
                drop(jobs);
                return job.release(served);
            }
            job.release(served);
        }
        // Sent outside every lock: a worker that has stopped draining
        // its socket must not park this blocking write while other
        // coordinator threads wait on a mutex.
        let _ = tx.send(&Message::Done);
    }

    /// The first frame of a session must be a `Join` at this build's
    /// [`PROTOCOL_VERSION`]. There is no negotiation: a worker of any
    /// other version is told why and quarantined. Bounded by the lease
    /// deadline.
    fn check_join(
        &self,
        tx: &mut dyn FrameSend,
        events: &Receiver<RxEvent>,
    ) -> Result<(), DriveExit> {
        match wait_frame(events, self.lease_timeout) {
            RxWait::Event(RxEvent::Frame(Message::Join { protocol }))
                if protocol == PROTOCOL_VERSION =>
            {
                Ok(())
            }
            RxWait::Event(RxEvent::Frame(Message::Join { protocol })) => {
                let reason = format!(
                    "protocol mismatch: coordinator v{PROTOCOL_VERSION}, worker v{protocol} \
                     (every worker must run the coordinator's build)"
                );
                let _ = tx.send(&Message::Abort {
                    reason: reason.clone(),
                });
                Err(DriveExit::Quarantined(reason))
            }
            RxWait::Event(RxEvent::Corrupt(e)) => {
                Err(DriveExit::Quarantined(format!("corrupt Join frame: {e}")))
            }
            _ => Err(DriveExit::Dead(None)),
        }
    }

    /// A job's handshake: offer the spec hash, ship the full text only
    /// on a cache miss ([`Message::NeedSpec`]), and wait for a verified
    /// `Ready`. Each step is bounded by the lease deadline.
    fn handshake_ready(
        &self,
        job: &Job,
        tx: &mut dyn FrameSend,
        events: &Receiver<RxEvent>,
    ) -> Result<(), DriveExit> {
        let hash = &job.compiled.hash;
        tx.send(&Message::SpecHash { hash: hash.clone() })
            .map_err(|_| DriveExit::Dead(None))?;
        let mut spec_sent = false;
        loop {
            match wait_frame(events, self.lease_timeout) {
                RxWait::Event(RxEvent::Frame(Message::Ready { hash: echoed }))
                    if echoed == *hash =>
                {
                    return Ok(())
                }
                RxWait::Event(RxEvent::Frame(Message::Ready { hash: echoed })) => {
                    let reason =
                        format!("worker echoed spec hash {echoed}, coordinator expects {hash}");
                    let _ = tx.send(&Message::Abort {
                        reason: reason.clone(),
                    });
                    return Err(DriveExit::Quarantined(reason));
                }
                RxWait::Event(RxEvent::Frame(Message::NeedSpec { hash: wanted }))
                    if !spec_sent && wanted == *hash =>
                {
                    tx.send(&Message::Spec {
                        hash: hash.clone(),
                        text: job.compiled.text.clone(),
                    })
                    .map_err(|_| DriveExit::Dead(None))?;
                    spec_sent = true;
                }
                RxWait::Event(RxEvent::Frame(Message::NeedSpec { hash: wanted })) => {
                    let reason =
                        format!("worker requested spec {wanted}, coordinator offers {hash}");
                    let _ = tx.send(&Message::Abort {
                        reason: reason.clone(),
                    });
                    return Err(DriveExit::Quarantined(reason));
                }
                RxWait::Event(RxEvent::Frame(Message::Abort { reason })) => {
                    return Err(DriveExit::Abort(reason))
                }
                RxWait::Event(RxEvent::Corrupt(e)) => {
                    return Err(DriveExit::Quarantined(format!(
                        "corrupt handshake frame: {e}"
                    )))
                }
                _ => return Err(DriveExit::Dead(None)),
            }
        }
    }

    /// One worker's leases of one job, until the job's board is drained
    /// and none of the worker's leases is outstanding.
    fn lease_loop(
        &self,
        worker: usize,
        tx: &mut dyn FrameSend,
        events: &Receiver<RxEvent>,
        job: &Job,
    ) -> Result<(), DriveExit> {
        // Pipelined, adaptive lease loop. Up to `DEFAULT_PIPELINE_DEPTH`
        // leases stay outstanding per worker so the next range is
        // already granted while the current one computes (the grant
        // rides the wire during compute instead of after it), and the
        // per-worker grant doubles on every clean completion — up to 8×
        // the base — then snaps back to the base on a missed deadline.
        // `guided_lease_size` caps each grant at the worker's share of
        // what is left, so the tail is spread over the whole fleet.
        enum Claim {
            /// The run is over (all cells filled, or fatal).
            Drained,
            /// Nothing eligible right now, but this worker has work in
            /// flight — keep draining frames instead of parking.
            Busy,
            Lease(PendingLease),
        }
        let base = self.lease_cells;
        let cap = base.saturating_mul(8);
        let mut grant = base;
        let mut strikes: u32 = 0;
        let mut outstanding: VecDeque<InFlight> = VecDeque::new();
        loop {
            // Top-up phase: grant new leases while the pipeline has room
            // and the worker is keeping its deadlines. After a strike,
            // granting pauses until a (late) frame clears it — handing
            // more work to a straggler only deepens the hole.
            'grant: while strikes == 0 && outstanding.len() < DEFAULT_PIPELINE_DEPTH {
                let claim = {
                    let mut b = job.board.lock().expect("lease board poisoned");
                    loop {
                        if b.fatal.is_some() || b.filled == b.cells.len() {
                            break Claim::Drained;
                        }
                        let now = Instant::now();
                        if let Some(pos) = b
                            .pending
                            .iter()
                            .position(|p| p.ready_at.is_none_or(|t| t <= now))
                        {
                            let size = guided_lease_size(grant, b.unleased, b.live);
                            let rest = &mut b.pending[pos];
                            let mut lease = *rest;
                            lease.range.end = rest.range.end.min(rest.range.start + size);
                            rest.range.start = lease.range.end;
                            if rest.range.is_empty() {
                                b.pending.remove(pos);
                            }
                            b.unleased -= lease.range.len();
                            b.leases += 1;
                            break Claim::Lease(lease);
                        }
                        if !outstanding.is_empty() {
                            break Claim::Busy;
                        }
                        // Idle worker, nothing eligible: a range held by
                        // another worker may yet come back to the queue,
                        // and a backed-off range becomes eligible when
                        // its delay expires.
                        if let Some(earliest) = b.pending.iter().filter_map(|p| p.ready_at).min() {
                            let wait = earliest.saturating_duration_since(now);
                            b = job
                                .wakeup
                                .wait_timeout(b, wait.max(Duration::from_millis(1)))
                                .expect("lease board poisoned")
                                .0;
                        } else {
                            b = job.wakeup.wait(b).expect("lease board poisoned");
                        }
                    }
                };
                match claim {
                    Claim::Drained => {
                        if outstanding.is_empty() {
                            return Ok(());
                        }
                        // Results are still in flight: stop granting and
                        // drain them first, so the next job's SpecHash
                        // or Done only ever reaches an idle worker.
                        break 'grant;
                    }
                    Claim::Busy => break 'grant,
                    Claim::Lease(lease) => {
                        if tx
                            .send(&Message::Lease {
                                start: lease.range.start,
                                end: lease.range.end,
                            })
                            .is_err()
                        {
                            self.requeue(job, &lease, true);
                            self.requeue_outstanding(job, &mut outstanding, true);
                            return Err(DriveExit::Dead(None));
                        }
                        outstanding.push_back(InFlight {
                            lease,
                            requeued: false,
                        });
                    }
                }
            }
            // `outstanding` is never empty here: the claim block parks
            // on the condvar (or returns) rather than yielding Busy for
            // an idle worker, and strikes only accrue with work in
            // flight.
            match wait_frame(events, self.lease_timeout) {
                RxWait::Event(RxEvent::Frame(Message::Progress { start, end, .. })) => {
                    if outstanding
                        .iter()
                        .any(|f| start == f.lease.range.start && end == f.lease.range.end)
                    {
                        strikes = 0;
                    }
                }
                RxWait::Event(RxEvent::Frame(Message::Result { start, end, cells })) => {
                    let range = CellRange::new(start, end);
                    match self.accept(job, worker, range, cells) {
                        Ok(()) => {
                            // A result for a lease that already went
                            // back in the queue (or was re-split) is
                            // still a valid result — first write wins —
                            // it just doesn't grow the grant.
                            strikes = 0;
                            if let Some(pos) = outstanding.iter().position(|f| {
                                f.lease.range.start == start && f.lease.range.end == end
                            }) {
                                let done = outstanding.remove(pos).expect("position was valid");
                                if !done.requeued {
                                    grant = grant.saturating_mul(2).min(cap);
                                }
                            }
                        }
                        Err(reason) => {
                            self.requeue_outstanding(job, &mut outstanding, true);
                            let _ = tx.send(&Message::Abort {
                                reason: reason.clone(),
                            });
                            return Err(DriveExit::Quarantined(reason));
                        }
                    }
                }
                RxWait::Event(RxEvent::Frame(Message::Abort { reason })) => {
                    self.requeue_outstanding(job, &mut outstanding, false);
                    return Err(DriveExit::Abort(reason));
                }
                RxWait::Event(RxEvent::Frame(other)) => {
                    let reason = format!(
                        "unexpected frame with {} lease(s) outstanding: {other:?}",
                        outstanding.len()
                    );
                    self.requeue_outstanding(job, &mut outstanding, true);
                    let _ = tx.send(&Message::Abort {
                        reason: reason.clone(),
                    });
                    return Err(DriveExit::Quarantined(reason));
                }
                RxWait::Event(RxEvent::Corrupt(e)) => {
                    self.requeue_outstanding(job, &mut outstanding, true);
                    return Err(DriveExit::Quarantined(format!("corrupt frame: {e}")));
                }
                RxWait::Event(RxEvent::Closed) => {
                    self.requeue_outstanding(job, &mut outstanding, true);
                    return Err(DriveExit::Dead(None));
                }
                RxWait::Event(RxEvent::Io(e)) => {
                    self.requeue_outstanding(job, &mut outstanding, true);
                    return Err(DriveExit::Dead(Some(format!(
                        "transport error mid-lease: {e}"
                    ))));
                }
                RxWait::Event(RxEvent::Idle) => {}
                RxWait::Deadline => {
                    strikes += 1;
                    job.board.lock().expect("lease board poisoned").timeouts += 1;
                    self.requeue_outstanding(job, &mut outstanding, true);
                    // A straggler loses its grown grant; if it comes
                    // back it re-earns size one completion at a time.
                    grant = base;
                    if strikes > self.straggler_strikes {
                        let reason = format!(
                            "quarantined as a straggler: {strikes} missed deadlines with \
                             {} lease(s) outstanding",
                            outstanding.len()
                        );
                        let _ = tx.send(&Message::Abort {
                            reason: reason.clone(),
                        });
                        return Err(DriveExit::Quarantined(reason));
                    }
                }
            }
        }
    }

    /// Requeues every not-yet-requeued outstanding lease (marking it so)
    /// while keeping the entries in the pipeline: a late result for a
    /// requeued range is still accepted under first-write-wins, it just
    /// no longer grows the grant.
    fn requeue_outstanding(&self, job: &Job, outstanding: &mut VecDeque<InFlight>, retry: bool) {
        for f in outstanding.iter_mut() {
            if !f.requeued {
                self.requeue(job, &f.lease, retry);
                f.requeued = true;
            }
        }
    }

    /// Puts a lease back in the queue, split back down to the base
    /// granularity — an adaptively grown lease that failed must not be
    /// retried as one big all-or-nothing chunk. `retry` counts it as a
    /// retry (once, however many chunks it splits into) and schedules
    /// the chunks with exponential backoff; `false` (abort paths)
    /// re-queues immediately so the fatal-path bookkeeping stays exact.
    fn requeue(&self, job: &Job, lease: &PendingLease, retry: bool) {
        let mut b = job.board.lock().expect("lease board poisoned");
        let ready_at = retry.then(|| Instant::now() + self.backoff_delay(lease.attempt));
        b.unleased += lease.range.len();
        let mut s = lease.range.start;
        while s < lease.range.end {
            let e = (s + self.lease_cells).min(lease.range.end);
            b.pending.push(PendingLease {
                range: CellRange::new(s, e),
                attempt: lease.attempt + 1,
                ready_at,
            });
            s = e;
        }
        if retry {
            b.retries += 1;
        }
        job.wakeup.notify_all();
    }

    fn backoff_delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(10);
        // A pathological user-supplied base (`.backoff(Duration::MAX,
        // ..)`) must clamp to the cap, not panic the coordinator on
        // `Duration * u32` overflow.
        self.backoff_base
            .checked_mul(factor)
            .map_or(self.backoff_cap, |d| d.min(self.backoff_cap))
    }

    /// Admits one lease result: validates its shape and every cell
    /// payload, journals it, then publishes it to the board
    /// (first-write-wins). A malformed result is the *worker's* fault —
    /// returned as `Err` so the caller quarantines it. A journal
    /// failure (or the chaos halt point) is the *coordinator's* problem
    /// and is recorded as fatal directly.
    fn accept(
        &self,
        job: &Job,
        worker: usize,
        range: CellRange,
        cells: Vec<Wire>,
    ) -> Result<(), String> {
        let cell_count = job.compiled.dist.cell_count();
        if range.start >= range.end || range.end > cell_count || cells.len() as u64 != range.len() {
            return Err(format!(
                "malformed lease result: [{}, {}) with {} cells over a {cell_count}-cell grid",
                range.start,
                range.end,
                cells.len()
            ));
        }
        for (k, wire) in (range.start..).zip(&cells) {
            job.compiled.dist.admit_cell(k, wire).map_err(|e| {
                format!(
                    "corrupt cell payload for cell {k} of lease [{}, {}): {e}",
                    range.start, range.end
                )
            })?;
        }
        let halted = match self.journal_append(job, range, &cells) {
            Ok(halted) => halted,
            Err(e) => {
                let mut b = job.board.lock().expect("lease board poisoned");
                b.fatal.get_or_insert(e);
                job.wakeup.notify_all();
                return Ok(());
            }
        };
        let mut b = job.board.lock().expect("lease board poisoned");
        if halted {
            b.fatal.get_or_insert(halt_message(self));
            job.wakeup.notify_all();
            return Ok(());
        }
        b.worker_cells[worker] += range.len();
        for (i, wire) in cells.into_iter().enumerate() {
            let slot = &mut b.cells[range.start as usize + i];
            if slot.is_none() {
                *slot = Some(wire);
                b.filled += 1;
            }
        }
        job.wakeup.notify_all();
        Ok(())
    }
}

fn halt_message(c: &Coordinator) -> String {
    format!(
        "chaos halt: coordinator stopped after {} journal append(s)",
        c.halt_after_appends.unwrap_or(0)
    )
}

/// One job of a session: its compiled spec, its journal, and the lease
/// board its workers share.
struct Job {
    compiled: Arc<Compiled>,
    journal: Option<Mutex<Journal>>,
    board: Mutex<Board>,
    /// Signalled on every board change a waiting thread may act on.
    wakeup: Condvar,
}

impl Job {
    /// Releases a worker from this job: `Ok` once it has drained its
    /// leases, else the reason it left the session.
    fn release(&self, exit: Result<(), DriveExit>) {
        let mut b = self.board.lock().expect("lease board poisoned");
        b.live -= 1;
        match exit {
            Ok(()) | Err(DriveExit::Dead(None)) => {}
            Err(DriveExit::Abort(msg)) => {
                b.fatal.get_or_insert(msg);
            }
            Err(DriveExit::Quarantined(msg)) => {
                b.quarantined += 1;
                b.faults.push(msg);
            }
            Err(DriveExit::Dead(Some(msg))) => b.faults.push(msg),
        }
        self.wakeup.notify_all();
    }
}

/// The fleet side of a session: one job queue per worker, in transport
/// order; `None` once the worker has left.
struct Fleet(Vec<Option<Sender<Arc<Job>>>>);

impl Fleet {
    /// Queues `job` for every worker still in the session. Each counts
    /// as live on the job's board until it drains or leaves.
    fn publish(&mut self, job: &Arc<Job>) {
        job.board.lock().expect("lease board poisoned").live = self.0.iter().flatten().count();
        for queue in &mut self.0 {
            if queue
                .as_ref()
                .is_some_and(|q| q.send(Arc::clone(job)).is_err())
            {
                *queue = None;
                job.release(Err(DriveExit::Dead(None)));
            }
        }
    }
}

/// A distributed adaptive sweep: the full round-loop outcome plus one
/// [`DistStats`] per round the fleet executed.
#[derive(Debug)]
pub struct AdaptiveDistRun {
    /// The reduced outcome — bit-identical to [`Scenario::run`] on the
    /// same (un-pinned) spec.
    pub outcome: AdaptiveOutcome,
    /// Per-round fleet provenance, round order.
    pub rounds: Vec<DistStats>,
}

/// Round `round`'s journal file under the loop's base journal path.
pub fn round_journal_path(base: &Path, round: u32) -> PathBuf {
    PathBuf::from(format!("{}.r{round}", base.display()))
}

/// An un-pinned `AdaptivePfd` spec on one fleet at the default
/// settings. [`Coordinator`] runs every spec, this one included; the
/// adapter is kept only because the scenario benchmark (`perfbench/`)
/// drives it, and goes with that benchmark's next change.
pub struct AdaptiveCoordinator(Coordinator);

impl AdaptiveCoordinator {
    /// Wraps an **un-pinned** `AdaptivePfd` scenario.
    ///
    /// # Errors
    ///
    /// Spec validation errors; any other spec, a pinned round included
    /// (run those through [`Coordinator`]).
    pub fn new(scenario: Scenario) -> ScenarioResult<Self> {
        let coordinator = Coordinator::new(scenario)?;
        match coordinator.plan {
            Plan::Rounds(_) => Ok(AdaptiveCoordinator(coordinator)),
            Plan::Grid(_) => {
                Err("AdaptiveCoordinator needs an un-pinned AdaptivePfd scenario".into())
            }
        }
    }

    /// Runs the round loop as one session on the fleet `fleet(0)`
    /// supplies; the supplier is called once.
    ///
    /// # Errors
    ///
    /// Fleet assembly errors and everything [`Coordinator::run`]
    /// reports.
    pub fn run<F>(&self, mut fleet: F) -> ScenarioResult<AdaptiveDistRun>
    where
        F: FnMut(u32) -> ScenarioResult<Vec<Box<dyn Transport>>>,
    {
        let run = self.0.run(fleet(0)?)?;
        let ScenarioOutcome::Adaptive(outcome) = run.outcome else {
            unreachable!("a round loop reduces to an adaptive outcome");
        };
        Ok(AdaptiveDistRun {
            outcome,
            rounds: run.rounds,
        })
    }
}

/// The contiguous runs of unfilled cells, chunked to the lease size.
fn missing_ranges(cells: &[Option<Wire>], lease_cells: u64) -> Vec<CellRange> {
    let lease_cells = lease_cells.max(1);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < cells.len() {
        if cells[i].is_some() {
            i += 1;
            continue;
        }
        let start = i as u64;
        while i < cells.len() && cells[i].is_none() {
            i += 1;
        }
        let end = i as u64;
        let mut s = start;
        while s < end {
            let e = (s + lease_cells).min(end);
            out.push(CellRange::new(s, e));
            s = e;
        }
    }
    out
}

/// What a pump thread forwards from a worker's receive half.
enum RxEvent {
    /// A well-formed frame.
    Frame(Message),
    /// Clean EOF: the worker closed its stream.
    Closed,
    /// A malformed frame (the stream can no longer be trusted).
    Corrupt(String),
    /// A non-retryable I/O error.
    Io(String),
    /// A retryable read timeout from the transport — forwarded so the
    /// pump loop stays responsive, filtered out by [`wait_frame`]. The
    /// *coordinator's* deadline comes from `recv_timeout` on the
    /// channel, not from the transport.
    Idle,
}

/// Forwards frames from a receive half into a channel until the stream
/// ends, breaks, or the driver hangs up.
fn pump_frames(rx: &mut dyn FrameRecv, events: &Sender<RxEvent>) {
    loop {
        match rx.recv() {
            Ok(Some(msg)) => {
                if events.send(RxEvent::Frame(msg)).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = events.send(RxEvent::Closed);
                return;
            }
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                if events.send(RxEvent::Idle).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let _ = events.send(RxEvent::Corrupt(e.to_string()));
                return;
            }
            Err(e) => {
                let _ = events.send(RxEvent::Io(e.to_string()));
                return;
            }
        }
    }
}

enum RxWait {
    Event(RxEvent),
    Deadline,
}

/// Waits up to `timeout` for the next meaningful receive event,
/// ignoring transport-level idle ticks.
fn wait_frame(events: &Receiver<RxEvent>, timeout: Duration) -> RxWait {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return RxWait::Deadline;
        }
        match events.recv_timeout(remaining) {
            Ok(RxEvent::Idle) => {}
            Ok(ev) => return RxWait::Event(ev),
            Err(RecvTimeoutError::Timeout) => return RxWait::Deadline,
            Err(RecvTimeoutError::Disconnected) => return RxWait::Event(RxEvent::Closed),
        }
    }
}

enum DriveExit {
    /// The worker is gone (connection dropped / silent past the
    /// handshake deadline); its lease was re-queued. An optional note
    /// explains abnormal exits (transport errors).
    Dead(Option<String>),
    /// The worker misbehaved (wrong hash, corrupt payloads, straggling
    /// past the strike cap): dropped and counted, lease re-queued.
    Quarantined(String),
    /// The worker reported the work itself is broken.
    Abort(String),
}

#[derive(Clone, Copy)]
struct PendingLease {
    range: CellRange,
    attempt: u32,
    /// Backed-off re-issues are not eligible before this instant.
    ready_at: Option<Instant>,
}

/// A lease granted to a worker and not yet resolved. It stays in the
/// pipeline even after a missed deadline puts its range back in the
/// queue (`requeued`), because a late result is still a valid result.
struct InFlight {
    lease: PendingLease,
    requeued: bool,
}

/// One job's lease board, shared by the threads serving its workers.
#[derive(Default)]
struct Board {
    pending: Vec<PendingLease>,
    /// Cells in `pending`, kept in step with every claim and requeue.
    unleased: u64,
    /// Workers still on this job: neither drained nor gone.
    live: usize,
    worker_cells: Vec<u64>,
    cells: Vec<Option<Wire>>,
    filled: usize,
    leases: u64,
    retries: u64,
    timeouts: u64,
    quarantined: usize,
    handshaken: usize,
    faults: Vec<String>,
    fatal: Option<String>,
}

/// Default worker-side parallelism: `DIVREL_WORKER_THREADS` if set to a
/// positive integer, else the sweep engine's default (available
/// parallelism capped at 8).
#[must_use]
pub fn default_worker_threads() -> usize {
    std::env::var("DIVREL_WORKER_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(crate::context::default_sweep_threads)
}

/// Compiled-spec cache shared across a worker's connections, keyed by
/// spec hash. A persistent worker that reconnects to coordinators
/// running the same committed spec compiles the [`DistJob`] once and
/// answers every later [`Message::SpecHash`] offer from cache —
/// skipping both the spec transfer and the model/grid build.
///
/// Cloning is cheap (the map is behind an `Arc`), so one cache can back
/// a whole in-process fleet. The cache stores jobs compiled with the
/// owning worker's thread hint; thread count never affects the bits, so
/// sharing a cache between workers with different `threads` settings is
/// safe for correctness (the hint of whoever compiled first wins).
#[derive(Clone, Default)]
pub struct SpecCache(Arc<Mutex<HashMap<String, Arc<DistJob>>>>);

impl std::fmt::Debug for SpecCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecCache")
            .field("specs", &self.len())
            .finish()
    }
}

impl SpecCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, hash: &str) -> Option<Arc<DistJob>> {
        self.0
            .lock()
            .expect("spec cache poisoned")
            .get(hash)
            .cloned()
    }

    fn insert(&self, hash: String, job: Arc<DistJob>) {
        self.0
            .lock()
            .expect("spec cache poisoned")
            .insert(hash, job);
    }

    /// Number of distinct specs compiled into this cache.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.lock().expect("spec cache poisoned").len()
    }

    /// Whether the cache holds no compiled specs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How long a worker rides out a silent coordinator (retryable
/// transport read timeouts) before giving up.
const WORKER_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

/// Worker-side configuration.
#[derive(Debug, Clone)]
pub struct Worker {
    threads: usize,
    plan: FaultPlan,
    heartbeat_interval: Duration,
    cache: SpecCache,
    framing: FramingMode,
}

impl Default for Worker {
    fn default() -> Self {
        Worker::new()
    }
}

impl Worker {
    /// A healthy worker evaluating leases with
    /// [`default_worker_threads`] threads.
    #[must_use]
    pub fn new() -> Self {
        Worker {
            threads: default_worker_threads(),
            plan: FaultPlan::new(),
            heartbeat_interval: Duration::from_millis(200),
            cache: SpecCache::new(),
            framing: FramingMode::from_env(),
        }
    }

    /// Worker-side threads per lease (execution hint only). A lease's
    /// cells are evaluated in chunks of this many, with a
    /// [`Message::Progress`] heartbeat due after each.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Installs a chaos [`FaultPlan`]. Its lease ordinals count over the
    /// whole session, across jobs.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Fault injection shorthand: the worker serves `leases` leases,
    /// then **drops the connection without replying** to the next one —
    /// exactly the failure mode the coordinator must survive by
    /// re-issuing the lease elsewhere.
    #[must_use]
    pub fn fail_after_leases(mut self, leases: u64) -> Self {
        self.plan = self.plan.inject(leases, Fault::Die);
        self
    }

    /// Wall-clock heartbeat cadence *within* a chunk (default 200 ms):
    /// even when a single cell computes longer than the coordinator's
    /// lease deadline, [`Message::Progress`] frames keep flowing, so a
    /// slow-but-alive worker is never mistaken for a dead one.
    #[must_use]
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Shares (or replaces) the compiled-spec cache. Reusing one cache
    /// across connections — or across an in-process fleet — is what
    /// makes a re-run's handshakes spec-transfer-free.
    #[must_use]
    pub fn spec_cache(mut self, cache: SpecCache) -> Self {
        self.cache = cache;
        self
    }

    /// Overrides the `Result` framing (default: the
    /// `DIVREL_DIST_FRAMING` environment override, else
    /// [`FramingMode::Auto`]).
    #[must_use]
    pub fn framing(mut self, mode: FramingMode) -> Self {
        self.framing = mode;
        self
    }

    /// Receives a frame, riding out transport read timeouts up to
    /// [`WORKER_IDLE_TIMEOUT`].
    fn recv_patient<T: Transport + ?Sized>(&self, t: &mut T) -> std::io::Result<Option<Message>> {
        let deadline = Instant::now() + WORKER_IDLE_TIMEOUT;
        loop {
            match t.recv() {
                Err(e)
                    if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
                        && Instant::now() < deadline => {}
                other => return other,
            }
        }
    }

    /// Serves one coordinator session to completion: the `Join`, then
    /// for each job its spec handshake and its leases, with heartbeats,
    /// until [`Message::Done`].
    ///
    /// # Errors
    ///
    /// Transport errors; a spec whose hash does not match its text; a
    /// cell that fails to evaluate (reported to the coordinator as an
    /// abort); injected faults.
    pub fn serve<T: Transport + ?Sized>(&self, t: &mut T) -> ScenarioResult<WorkerSummary> {
        t.send(&Message::Join {
            protocol: PROTOCOL_VERSION,
        })?;
        let use_binary = self.framing.use_binary(PROTOCOL_VERSION);
        let mut summary = WorkerSummary::default();
        let mut job: Option<Arc<DistJob>> = None;
        let mut leases_seen: u64 = 0;
        loop {
            let (start, end) = match self.recv_patient(t)? {
                Some(Message::SpecHash { hash }) => {
                    job = Some(self.ready(t, hash, &mut summary)?);
                    continue;
                }
                Some(Message::Lease { start, end }) => (start, end),
                Some(Message::Done) | None => return Ok(summary),
                Some(Message::Abort { reason }) => {
                    return Err(format!("coordinator aborted: {reason}").into())
                }
                other => return Err(format!("unexpected frame: {other:?}").into()),
            };
            let Some(job) = &job else {
                return Err(format!("lease [{start}, {end}) arrived before any spec").into());
            };
            let ordinal = leases_seen;
            leases_seen += 1;
            let mut slow_ms = None;
            match self.plan.fault_at(ordinal) {
                Some(Fault::Die) => {
                    // Simulated crash: vanish mid-lease, no reply.
                    return Err(format!(
                        "worker fault injection: dropped connection holding lease \
                         [{start}, {end})"
                    )
                    .into());
                }
                Some(Fault::Stall) => {
                    // Go silent holding the lease, then die — the
                    // coordinator's deadline must fire. Unlike Slow, the
                    // stall happens *outside* the heartbeat pump: a
                    // stalled worker must stay silent.
                    std::thread::sleep(self.plan.stall_hold_duration());
                    return Err(format!(
                        "worker fault injection: stalled holding lease [{start}, {end})"
                    )
                    .into());
                }
                Some(Fault::CorruptWire) => {
                    let n = CellRange::new(start, end).len() as usize;
                    t.send(&Message::Result {
                        start,
                        end,
                        cells: vec![Wire::Text("chaos: corrupt cell".into()); n],
                    })?;
                    continue;
                }
                Some(Fault::Slow { millis }) => {
                    // Handled inside the evaluation thread so the
                    // heartbeat pump covers it — a slow worker is alive,
                    // and must look alive.
                    slow_ms = Some(*millis);
                }
                Some(Fault::WrongHash) | None => {}
            }
            let cells = match self.evaluate(t, job, CellRange::new(start, end), slow_ms)? {
                Ok(cells) => cells,
                Err(e) => {
                    let reason = format!("cells [{start}, {end}) failed: {e}");
                    let _ = t.send(&Message::Abort {
                        reason: reason.clone(),
                    });
                    return Err(reason.into());
                }
            };
            summary.leases_served += 1;
            summary.cells_run += cells.len() as u64;
            let msg = Message::Result { start, end, cells };
            if use_binary {
                t.send_binary(&msg)?;
            } else {
                t.send(&msg)?;
            }
        }
    }

    /// Answers a job's [`Message::SpecHash`] offer with `Ready`: the
    /// compiled job comes from the cache, or from the spec text the
    /// worker asks for.
    fn ready<T: Transport + ?Sized>(
        &self,
        t: &mut T,
        hash: String,
        summary: &mut WorkerSummary,
    ) -> ScenarioResult<Arc<DistJob>> {
        let cached = self.cache.get(&hash);
        let job = match &cached {
            Some(job) => Arc::clone(job),
            None => {
                t.send(&Message::NeedSpec { hash: hash.clone() })?;
                match self.recv_patient(t)? {
                    Some(Message::Spec { hash: echoed, text }) if echoed == hash => {
                        self.compile(t, &hash, &text)?
                    }
                    Some(Message::Abort { reason }) => {
                        return Err(format!("coordinator aborted: {reason}").into())
                    }
                    other => return Err(format!("expected Spec for {hash}, got {other:?}").into()),
                }
            }
        };
        if self.plan.wrong_hash() {
            // Chaos: echo a wrong hash and wait for the coordinator to
            // cut us off.
            t.send(&Message::Ready {
                hash: "fnv1a:0000000000c0ffee".into(),
            })?;
            loop {
                match self.recv_patient(t)? {
                    Some(Message::Abort { reason }) => {
                        return Err(format!(
                            "worker fault injection: wrong hash echoed; coordinator said: {reason}"
                        )
                        .into())
                    }
                    None => {
                        return Err("worker fault injection: wrong hash echoed; \
                                    coordinator hung up"
                            .into())
                    }
                    _ => {}
                }
            }
        }
        t.send(&Message::Ready { hash: hash.clone() })?;
        summary.jobs += 1;
        summary.cached_jobs += u64::from(cached.is_some());
        summary.spec_hash = hash;
        Ok(job)
    }

    /// Evaluates a lease's cells on a scoped thread while this thread
    /// pumps [`Message::Progress`] heartbeats on a wall-clock cadence:
    /// a single cell that computes longer than the lease deadline still
    /// heartbeats, so it is never spuriously re-leased or quarantined.
    /// The outer error is the transport's; the inner one a cell's.
    fn evaluate<T: Transport + ?Sized>(
        &self,
        t: &mut T,
        job: &DistJob,
        range: CellRange,
        slow_ms: Option<u64>,
    ) -> std::io::Result<Result<Vec<Wire>, String>> {
        let chunk = self.threads as u64;
        let done = AtomicU64::new(0);
        let (tick_tx, tick_rx) = std::sync::mpsc::channel::<()>();
        let done_ref = &done;
        let (evaled, io_err) = std::thread::scope(|s| {
            let eval = s.spawn(move || {
                if let Some(ms) = slow_ms {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                let mut cells = Vec::with_capacity(range.len() as usize);
                let mut at = range.start;
                while at < range.end {
                    let sub_end = (at + chunk).min(range.end);
                    match job.run_range(CellRange::new(at, sub_end)) {
                        Ok(sub) => cells.extend(sub),
                        // Box<dyn Error> is not Send; carry the message
                        // across the join.
                        Err(e) => return Err(e.to_string()),
                    }
                    at = sub_end;
                    done_ref.store(at - range.start, Ordering::Relaxed);
                    if at < range.end {
                        let _ = tick_tx.send(());
                    }
                }
                Ok(cells)
            });
            let mut io_err: Option<std::io::Error> = None;
            let mut last_beat = Instant::now();
            while let Ok(()) | Err(RecvTimeoutError::Timeout) =
                tick_rx.recv_timeout(self.heartbeat_interval)
            {
                // Ticks arrive per chunk — much faster than the
                // heartbeat cadence on healthy leases — so rate-limit
                // the actual frames to one per interval; the timeout
                // arm keeps a slow single cell heartbeating.
                if last_beat.elapsed() < self.heartbeat_interval {
                    continue;
                }
                last_beat = Instant::now();
                if io_err.is_none() {
                    if let Err(e) = t.send(&Message::Progress {
                        start: range.start,
                        end: range.end,
                        done: done.load(Ordering::Relaxed),
                    }) {
                        // Keep pumping the channel dry so the eval
                        // thread is joined either way.
                        io_err = Some(e);
                    }
                }
            }
            (eval.join().expect("evaluation thread panicked"), io_err)
        });
        match io_err {
            Some(e) => Err(e),
            None => Ok(evaled),
        }
    }

    /// Verifies `text` against its claimed `hash`, compiles it into a
    /// [`DistJob`], and caches the result for future connections.
    fn compile<T: Transport + ?Sized>(
        &self,
        t: &mut T,
        hash: &str,
        text: &str,
    ) -> ScenarioResult<Arc<DistJob>> {
        if spec_hash(text) != hash {
            let reason = format!(
                "spec hash mismatch: coordinator claims {hash}, text hashes to {}",
                spec_hash(text)
            );
            let _ = t.send(&Message::Abort {
                reason: reason.clone(),
            });
            return Err(reason.into());
        }
        let scenario = match Scenario::from_spec_text(text) {
            Ok(s) => s,
            Err(e) => {
                let reason = format!("spec does not parse on worker: {e}");
                let _ = t.send(&Message::Abort {
                    reason: reason.clone(),
                });
                return Err(reason.into());
            }
        };
        let job = Arc::new(DistJob::new(scenario, self.threads)?);
        self.cache.insert(hash.to_string(), Arc::clone(&job));
        Ok(job)
    }
}

/// A spawned local worker fleet: the child processes (reap them after
/// the coordinator finishes) and their protocol transports.
pub struct StdioFleet {
    /// The worker processes, in spawn order.
    pub children: Vec<std::process::Child>,
    /// One transport per child, over its stdin/stdout.
    pub transports: Vec<Box<dyn Transport>>,
}

/// Spawns `n` worker processes as `exe --worker-stdio --threads T` and
/// wires each child's stdin/stdout as a protocol transport — the one
/// fleet-assembly routine shared by `scenario_run --coordinator` and
/// the bench driver. `quiet` routes worker stderr to the null device
/// (measurement loops); otherwise workers inherit stderr for
/// diagnostics. `extra_args[i]` (if present) is appended to worker
/// `i`'s command line — how chaos fault plans reach spawned fleets.
///
/// # Errors
///
/// Spawn failures (missing binary, resource limits).
pub fn spawn_stdio_fleet(
    exe: &std::path::Path,
    n: usize,
    threads: usize,
    quiet: bool,
    extra_args: &[Vec<String>],
) -> std::io::Result<StdioFleet> {
    use std::process::{Command, Stdio};
    let mut fleet = StdioFleet {
        children: Vec::with_capacity(n),
        transports: Vec::with_capacity(n),
    };
    for i in 0..n {
        let mut cmd = Command::new(exe);
        cmd.args(["--worker-stdio", "--threads", &threads.max(1).to_string()]);
        if let Some(extra) = extra_args.get(i) {
            cmd.args(extra);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(if quiet {
                Stdio::null()
            } else {
                Stdio::inherit()
            })
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        fleet
            .transports
            .push(Box::new(JsonLines::new(stdout, stdin)));
        fleet.children.push(child);
    }
    Ok(fleet)
}

/// What a worker did for one coordinator session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The last job's verified spec fingerprint (empty if it served
    /// none).
    pub spec_hash: String,
    /// Jobs served: one for a grid spec, one per round of an adaptive
    /// loop.
    pub jobs: u64,
    /// Jobs whose compiled spec came from the worker's [`SpecCache`]
    /// (a hash-only handshake against a previously compiled spec).
    pub cached_jobs: u64,
    /// Leases evaluated and returned.
    pub leases_served: u64,
    /// Cells evaluated across all leases.
    pub cells_run: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::presets;
    use crate::Context;
    use divrel_devsim::adaptive::CellEvidence;
    use divrel_numerics::wire::WireForm;

    #[test]
    fn spec_hash_is_stable_and_sensitive() {
        let h = spec_hash("name = \"x\"\n");
        assert_eq!(h, spec_hash("name = \"x\"\n"));
        assert_ne!(h, spec_hash("name = \"y\"\n"));
        assert!(h.starts_with("fnv1a:"));
        assert_eq!(h.len(), "fnv1a:".len() + 16);
    }

    #[test]
    fn messages_frame_and_round_trip() {
        let msgs = vec![
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
            Message::Lease { start: 3, end: 9 },
            Message::Progress {
                start: 3,
                end: 9,
                done: 4,
            },
            Message::Result {
                start: 3,
                end: 4,
                cells: vec![Wire::record([
                    ("kind", Wire::Text("mc".into())),
                    ("data", Wire::U64(5)),
                ])],
            },
            Message::Done,
            Message::Abort {
                reason: "multi\nline\treason".into(),
            },
        ];
        let mut out = JsonLines::new(std::io::empty(), Vec::new());
        for m in &msgs {
            Transport::send(&mut out, m).unwrap();
        }
        let buf = out.into_writer();
        // One frame per line, newline-framed even with embedded \n.
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), msgs.len());
        let mut t = JsonLines::new(std::io::Cursor::new(buf), std::io::sink());
        for want in &msgs {
            assert_eq!(&Transport::recv(&mut t).unwrap().unwrap(), want);
        }
        assert!(Transport::recv(&mut t).unwrap().is_none());
    }

    /// A reader that alternates between yielding a few bytes and a
    /// `WouldBlock` error — the shape of a TCP stream with a read
    /// timeout.
    struct ChoppyReader {
        data: Vec<u8>,
        at: usize,
        step: usize,
        block_next: bool,
    }

    impl Read for ChoppyReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "try again"));
            }
            self.block_next = true;
            let n = self.step.min(self.data.len() - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_preserves_partial_frames_across_read_timeouts() {
        let msgs = [
            Message::Lease { start: 0, end: 100 },
            Message::Progress {
                start: 0,
                end: 100,
                done: 42,
            },
        ];
        let data = {
            let mut out = JsonLines::new(std::io::empty(), Vec::new());
            for m in &msgs {
                Transport::send(&mut out, m).unwrap();
            }
            out.into_writer()
        };
        let mut rx = FrameReader::new(ChoppyReader {
            data,
            at: 0,
            step: 3,
            block_next: false,
        });
        let mut got = Vec::new();
        let mut blocks = 0;
        loop {
            match rx.recv() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock => blocks += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, msgs);
        assert!(blocks > 10, "choppy reader should have blocked repeatedly");
    }

    #[test]
    fn frame_reader_refuses_an_endless_json_line() {
        /// Hands out the wrapped reader's bytes, counting them.
        struct Counting<R> {
            inner: R,
            read: Arc<AtomicU64>,
        }
        impl<R: Read> Read for Counting<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.read.fetch_add(n as u64, Ordering::Relaxed);
                Ok(n)
            }
        }
        let cap = framing::MAX_BINARY_PAYLOAD;
        let read = Arc::new(AtomicU64::new(0));
        let mut rx = FrameReader::new(Counting {
            inner: std::io::repeat(b'x').take(cap + (1 << 20)),
            read: Arc::clone(&read),
        });
        let err = rx.recv().expect_err("a line past the cap is refused");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let read = read.load(Ordering::Relaxed);
        assert!(read <= cap + 4096, "read {read} bytes before refusing");
    }

    #[test]
    fn deeply_nested_json_line_is_an_error_not_a_stack_overflow() {
        // Runs on the test harness's default thread stack, the size a
        // coordinator's per-worker frame pump gets.
        let mut line = "[".repeat(100_000).into_bytes();
        line.push(b'\n');
        let mut transport = JsonLines::new(std::io::Cursor::new(line), std::io::sink());
        let err = Transport::recv(&mut transport).expect_err("nesting past the cap");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn job_ranges_reassemble_every_preset_bit_identically() {
        let ctx = Context::smoke();
        for id in Scenario::PRESETS {
            let scenario = Scenario::preset_with(id, &ctx).unwrap();
            let direct = scenario.run(2).unwrap();
            let job = DistJob::new(scenario, 2).unwrap();
            let n = job.cell_count();
            assert!(n >= 1, "{id}: empty grid");
            // Awkward partitioning on purpose: 3-cell leases, collected
            // out of order, reassembled by index.
            let mut cells = vec![None; n as usize];
            let mut ranges = CellRange::partition(n, 3);
            ranges.reverse();
            for range in ranges {
                for (i, wire) in job.run_range(range).unwrap().into_iter().enumerate() {
                    cells[range.start as usize + i] = Some(wire);
                }
            }
            let cells: Vec<Wire> = cells.into_iter().map(Option::unwrap).collect();
            let reassembled = job.finish(&cells).unwrap();
            assert_eq!(
                format!("{reassembled:?}"),
                format!("{direct:?}"),
                "{id}: distributed reassembly diverged"
            );
        }
    }

    #[test]
    fn fleet_over_in_memory_pipes_matches_in_process_run() {
        let ctx = Context::smoke();
        let scenario = presets::mc(&ctx);
        let direct = scenario.run(1).unwrap();
        let cell_count = DistJob::new(scenario.clone(), 1).unwrap().cell_count();
        let coordinator = Coordinator::new(scenario).unwrap().lease_cells(1);
        let (worker_ends, coord_ends) = duplex_pairs(2);
        let handles: Vec<_> = worker_ends
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    Worker::new()
                        .threads(1)
                        .serve(&mut t)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        let run = coordinator.run(coord_ends).unwrap();
        let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
        assert_eq!(run.stats.workers, 2);
        assert_eq!(run.stats.retries, 0);
        assert_eq!(run.stats.timeouts, 0);
        assert_eq!(run.stats.quarantined_workers, 0);
        assert!(run.stats.worker_faults.is_empty());
        assert_eq!(run.stats.cells, cell_count);
        assert_eq!(run.stats.worker_cells.iter().sum::<u64>(), cell_count);
        assert!(!run.stats.resumed_from_journal);
        assert_eq!(run.stats.recovered_in_process, 0);
        assert!(run.rounds.is_empty(), "a grid spec is one job");
        // One job each, and every issued lease was served.
        let served: Vec<WorkerSummary> = served.into_iter().map(Result::unwrap).collect();
        assert!(served.iter().all(|s| s.jobs == 1), "{served:?}");
        assert_eq!(
            served.iter().map(|s| s.leases_served).sum::<u64>(),
            run.stats.leases
        );
    }

    #[test]
    fn backoff_saturates_on_pathological_bases() {
        let ctx = Context::smoke();
        let c = Coordinator::new(presets::mc(&ctx))
            .unwrap()
            .backoff(Duration::MAX, Duration::from_secs(60));
        // `Duration::MAX * 2` would panic; the delay must clamp to the
        // cap (which itself clamps up to the base) instead.
        for attempt in [0, 1, 5, 31, u32::MAX] {
            assert_eq!(c.backoff_delay(attempt), Duration::MAX);
        }
        let c = Coordinator::new(presets::mc(&ctx))
            .unwrap()
            .backoff(Duration::from_millis(10), Duration::from_secs(1));
        assert_eq!(c.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(c.backoff_delay(3), Duration::from_millis(80));
        assert_eq!(c.backoff_delay(u32::MAX), Duration::from_secs(1));
    }

    /// Regression: a single lease that computes longer than the lease
    /// deadline used to heartbeat only *between* chunks, so a slow but
    /// healthy worker was spuriously re-leased (and with strict strikes,
    /// quarantined). The wall-clock heartbeat pump must keep the lease
    /// alive through the whole computation.
    #[test]
    fn slow_lease_heartbeats_outlive_the_deadline() {
        let ctx = Context::smoke();
        let scenario = presets::mc(&ctx);
        let direct = scenario.run(1).unwrap();
        let coordinator = Coordinator::new(scenario)
            .unwrap()
            .lease_cells(1_000_000) // leases as large as guided sizing allows
            .lease_timeout(Duration::from_millis(150))
            .straggler_strikes(1);
        let (mut worker_ends, coord_ends) = duplex_pairs(1);
        let handle = std::thread::spawn(move || {
            Worker::new()
                .threads(1)
                .heartbeat_interval(Duration::from_millis(40))
                .fault_plan(FaultPlan::new().inject(0, Fault::Slow { millis: 500 }))
                .serve(&mut worker_ends[0])
                .map_err(|e| e.to_string())
        });
        let run = coordinator.run(coord_ends).unwrap();
        let summary = handle.join().unwrap().expect("slow worker survives");
        assert_eq!(run.stats.timeouts, 0, "stats: {:?}", run.stats);
        assert_eq!(run.stats.retries, 0, "stats: {:?}", run.stats);
        assert_eq!(run.stats.quarantined_workers, 0, "stats: {:?}", run.stats);
        assert_eq!(run.stats.recovered_in_process, 0, "stats: {:?}", run.stats);
        assert_eq!(summary.leases_served, run.stats.leases);
        assert_eq!(run.stats.worker_cells, vec![run.stats.cells]);
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
    }

    #[test]
    fn guided_lease_size_floors_at_one_and_never_exceeds_grant_or_queue() {
        for grant in [1, 2, 8, 64, u64::MAX] {
            for unleased in 1..=300 {
                for live in 0..=5 {
                    let size = guided_lease_size(grant, unleased, live);
                    assert!(
                        (1..=grant.min(unleased)).contains(&size),
                        "grant {grant}, unleased {unleased}, live {live}: size {size}"
                    );
                }
            }
        }
        // The tail: one cell per claim once the queue is thinner than
        // the fleet's pipeline slots.
        assert_eq!(guided_lease_size(64, 3, 2), 1);
        assert_eq!(guided_lease_size(64, 1, 1), 1);
        // The adaptive grant still bounds a large queue.
        assert_eq!(guided_lease_size(8, 2048, 2), 8);
    }

    #[test]
    fn guided_lease_share_grows_as_workers_exit() {
        let sizes: Vec<u64> = (1..=4)
            .rev()
            .map(|live| guided_lease_size(u64::MAX, 96, live))
            .collect();
        assert_eq!(sizes, vec![12, 16, 24, 48]);
    }

    #[test]
    fn guided_leases_split_a_16_cell_grid_over_two_workers() {
        // Two live workers at the default base grant: whatever order
        // they claim in, the sizes follow ceil(unleased / 4).
        let (mut unleased, mut sizes) = (16, Vec::new());
        while unleased > 0 {
            let size = guided_lease_size(DEFAULT_LEASE_CELLS, unleased, 2);
            sizes.push(size);
            unleased -= size;
        }
        assert_eq!(sizes, vec![4, 3, 3, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn cached_spec_handshake_skips_the_spec_on_reconnect() {
        let ctx = Context::smoke();
        let scenario = presets::mc(&ctx);
        let direct = scenario.run(1).unwrap();
        let worker = Worker::new().threads(1);
        for (round, want_cached) in [(1, 0), (2, 1)] {
            let coordinator = Coordinator::new(scenario.clone()).unwrap();
            let (mut worker_ends, coord_ends) = duplex_pairs(1);
            // Clones share the spec cache, so the second connection
            // answers the hash-only offer without a spec transfer.
            let w = worker.clone();
            let handle =
                std::thread::spawn(move || w.serve(&mut worker_ends[0]).map_err(|e| e.to_string()));
            let run = coordinator.run(coord_ends).unwrap();
            let summary = handle.join().unwrap().expect("worker completes");
            assert_eq!(summary.jobs, 1, "connection {round}");
            assert_eq!(summary.cached_jobs, want_cached, "connection {round}");
            assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
        }
    }

    #[test]
    fn json_and_binary_workers_share_a_fleet_bit_identically() {
        let ctx = Context::smoke();
        let scenario = presets::mc(&ctx);
        let direct = scenario.run(1).unwrap();
        let coordinator = Coordinator::new(scenario).unwrap().lease_cells(2);
        let (worker_ends, coord_ends) = duplex_pairs(2);
        // A worker sending JSON results next to one sending binary.
        let handles: Vec<_> = worker_ends
            .into_iter()
            .zip([FramingMode::Json, FramingMode::Binary])
            .map(|(mut t, framing)| {
                std::thread::spawn(move || {
                    Worker::new()
                        .threads(1)
                        .framing(framing)
                        .serve(&mut t)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        let run = coordinator.run(coord_ends).unwrap();
        for h in handles {
            h.join().unwrap().expect("worker completes");
        }
        assert_eq!(run.stats.quarantined_workers, 0, "stats: {:?}", run.stats);
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
    }

    /// There is no protocol negotiation: a worker announcing any other
    /// revision is told both versions and quarantined, and the run
    /// completes on the rest of the fleet.
    #[test]
    fn a_worker_of_another_protocol_is_refused_and_quarantined() {
        let ctx = Context::smoke();
        let scenario = presets::mc(&ctx);
        let direct = scenario.run(1).unwrap();
        let coordinator = Coordinator::new(scenario).unwrap().lease_cells(2);
        let (mut worker_ends, coord_ends) = duplex_pairs(2);
        let mut current = worker_ends.pop().expect("two pairs");
        let mut old = worker_ends.pop().expect("two pairs");
        let old_peer = std::thread::spawn(move || {
            Transport::send(&mut old, &Message::Join { protocol: 3 }).unwrap();
            Transport::recv(&mut old).unwrap()
        });
        let healthy = std::thread::spawn(move || {
            Worker::new()
                .threads(1)
                .serve(&mut current)
                .map_err(|e| e.to_string())
        });
        let run = coordinator.run(coord_ends).unwrap();
        let reply = old_peer.join().unwrap();
        healthy
            .join()
            .unwrap()
            .expect("the current worker completes");
        let Some(Message::Abort { reason }) = reply else {
            panic!("the old worker got {reply:?}, not an Abort");
        };
        assert!(reason.contains("v3") && reason.contains("v4"), "{reason}");
        assert_eq!(run.stats.quarantined_workers, 1, "stats: {:?}", run.stats);
        assert_eq!(run.stats.worker_faults, vec![reason]);
        assert_eq!(run.stats.worker_cells[0], 0);
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
    }

    #[test]
    fn missing_ranges_chunk_only_the_gaps() {
        let w = Wire::U64(1);
        let cells = vec![
            None,
            Some(w.clone()),
            None,
            None,
            None,
            Some(w.clone()),
            None,
        ];
        let ranges = missing_ranges(&cells, 2);
        let spans: Vec<(u64, u64)> = ranges.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(spans, vec![(0, 1), (2, 4), (4, 5), (6, 7)]);
        assert!(missing_ranges(&[Some(w)], 8).is_empty());
    }

    /// A pinned adaptive round whose cell `c` is allocated
    /// [`pinned_allocation`]`(c)` demands.
    fn pinned_round() -> Scenario {
        use crate::adaptive::RefinementSpec;
        use divrel_model::spec::FaultModelSpec;
        Scenario {
            name: "pinned-round".into(),
            seed: divrel_numerics::sweep::SeedSpec::new(29),
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
                round: Some(RoundPlan {
                    round: 2,
                    allocations: (0..12).map(pinned_allocation).collect(),
                }),
            },
        }
    }

    fn pinned_allocation(cell: u64) -> u64 {
        100 + 50 * cell
    }

    fn evidence_cell(ev: CellEvidence) -> Wire {
        Wire::record([
            ("kind", Wire::Text("adaptive".into())),
            ("data", ev.to_wire()),
        ])
    }

    /// Made-up evidence for a cell's allocation.
    type Forge = fn(u64) -> CellEvidence;

    /// A hand-rolled worker: completes the handshake, then answers its
    /// leases with well-formed evidence that `forge` makes up, and
    /// waits to be cut off.
    fn forging_worker(t: &mut PipeTransport, forge: Forge) {
        Transport::send(
            t,
            &Message::Join {
                protocol: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        loop {
            match Transport::recv(t) {
                Ok(Some(Message::SpecHash { hash, .. })) => {
                    Transport::send(t, &Message::NeedSpec { hash }).unwrap();
                }
                Ok(Some(Message::Spec { hash, .. })) => {
                    Transport::send(t, &Message::Ready { hash }).unwrap();
                }
                Ok(Some(Message::Lease { start, end })) => {
                    let cells = (start..end)
                        .map(|k| evidence_cell(forge(pinned_allocation(k))))
                        .collect();
                    let _ = Transport::send(t, &Message::Result { start, end, cells });
                }
                Ok(Some(Message::Abort { .. } | Message::Done) | None) | Err(_) => return,
                Ok(Some(other)) => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn forged_adaptive_evidence_quarantines_its_worker() {
        let scenario = pinned_round();
        let direct = scenario.run(1).unwrap();
        let forgeries: [(&str, Forge); 2] = [
            ("more failures than demands", |a| CellEvidence {
                failures: a + 1,
                demands: a,
            }),
            ("demands off the allocation", |a| CellEvidence {
                failures: 0,
                demands: a + 1,
            }),
        ];
        for (label, forge) in forgeries {
            let coordinator = Coordinator::new(scenario.clone()).unwrap();
            let (mut worker_ends, coord_ends) = duplex_pairs(1);
            let handle = std::thread::spawn(move || forging_worker(&mut worker_ends[0], forge));
            let run = coordinator.run(coord_ends).unwrap();
            handle.join().unwrap();
            assert_eq!(run.stats.quarantined_workers, 1, "{label}: {:?}", run.stats);
            assert!(
                run.stats.worker_faults[0].contains("allocated"),
                "{label}: {:?}",
                run.stats.worker_faults
            );
            assert_eq!(run.stats.worker_cells, vec![0], "{label}");
            assert_eq!(run.stats.recovered_in_process, 12, "{label}");
            assert_eq!(
                format!("{:?}", run.outcome),
                format!("{direct:?}"),
                "{label}"
            );
        }
    }

    #[test]
    fn resume_rejects_forged_adaptive_evidence() {
        let scenario = pinned_round();
        let hash = spec_hash(&scenario.to_toml().unwrap());
        let path = std::env::temp_dir().join(format!(
            "divrel-forged-evidence-{}.ndjson",
            std::process::id()
        ));
        let mut journal = Journal::create(&path, &hash, 12).unwrap();
        let forged = CellEvidence {
            failures: 0,
            demands: pinned_allocation(3) + 1,
        };
        journal
            .append(CellRange::new(3, 4), &[evidence_cell(forged)])
            .unwrap();
        drop(journal);
        let err = Coordinator::new(scenario)
            .unwrap()
            .resume(&path)
            .run(Vec::new())
            .expect_err("forged journal evidence must not resume");
        let _ = std::fs::remove_file(&path);
        let err = err.to_string();
        assert!(err.contains("journal cell 3"), "{err}");
        assert!(err.contains("allocated"), "{err}");
    }

    type PipeTransport = JsonLines<std::io::PipeReader, std::io::PipeWriter>;

    /// In-memory duplex transports: `n` worker ends paired with `n`
    /// coordinator ends over `std::io` pipes.
    fn duplex_pairs(n: usize) -> (Vec<PipeTransport>, Vec<Box<dyn Transport>>) {
        let mut workers = Vec::new();
        let mut coords: Vec<Box<dyn Transport>> = Vec::new();
        for _ in 0..n {
            let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
            let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
            workers.push(JsonLines::new(c2w_r, w2c_w));
            coords.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
        }
        (workers, coords)
    }
}
