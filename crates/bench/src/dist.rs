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
//! * A [`Worker`] joins a coordinator, checks each job's spec hash,
//!   evaluates leased cell ranges of the same cell job the in-process
//!   path runs ([`DistJob::run_range`], see [`crate::job`]), streams
//!   [`Message::Progress`] heartbeats every [`HEARTBEAT_INTERVAL`]
//!   while a lease runs, and returns per-cell accumulators in
//!   [wire form](divrel_numerics::wire) — `f64`s as bit patterns, so
//!   nothing rounds in transit.
//! * An adaptive round loop ships its spec **once per worker**: the
//!   worker compiles the session's version runtime from it and caches
//!   it under the spec hash, and each round then travels as a
//!   [`Message::Round`] — its number and allocation vector, identified
//!   by [`round_digest`] — from which both sides build the round's job
//!   over the runtime they already hold.
//!
//! Both ends of the protocol are sans-IO values that read no clock.
//! The coordinator's lease decisions all live in one `Scheduler`
//! (`dist/scheduler.rs`): it takes a worker's frame, a worker gone or
//! the time, and answers with frames to send, streams to close and
//! leases to journal. [`Coordinator::run`] splits each transport into a
//! reader and a writer thread that only move frames, and one driver
//! loop on the caller's thread waits on them through the [`Fleet`]
//! seam, feeds the scheduler and carries out its actions;
//! [`Coordinator::run_on`] runs the same loop over any other [`Fleet`].
//! The worker's protocol lives in one [`WorkerSession`]
//! (`dist/worker.rs`): it takes each coordinator frame and answers with
//! [`WorkerStep`]s — a frame to send, a lease to run, a stall, the end
//! of the session — which [`Worker::serve`] carries out over a real
//! transport. `tests/dist_chaos.rs` drives both values on a virtual
//! clock: the coordinator's loop over its simulated fleet, whose
//! workers are `WorkerSession`s.
//!
//! The fault-tolerance layer has three coupled pieces:
//!
//! * **Lease checkpointing** ([`journal`]): the coordinator appends a
//!   write-ahead [`Journal`] record as each lease completes; a
//!   restarted coordinator ([`Coordinator::resume`]) reloads collected
//!   accumulators and re-leases only the missing ranges. An adaptive
//!   loop journals each round to its own file ([`round_journal_path`]),
//!   whose header pins the round's digest.
//! * **Deadlines and degradation**: every lease carries a deadline
//!   ([`Coordinator::lease_timeout`]) that only a frame about one of the
//!   worker's leases restarts; a silent worker's lease is re-issued
//!   with exponential backoff (25 ms doubling to 2 s), a worker that
//!   misses three deadlines in a row is quarantined, corrupt or
//!   hash-mismatched responses and unexpected frames quarantine the
//!   worker rather than abort the run, and whole-fleet loss degrades to
//!   in-process execution of the remaining cells.
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
mod scheduler;
mod worker;

pub use chaos::{Fault, FaultPlan};
pub use framing::FramingMode;
pub use journal::{Journal, JournalError, JournalLoad};
pub use worker::{WorkerSession, WorkerStep};

use crate::adaptive::{drive, AdaptiveOutcome, AllocationStrategy};
use crate::job::{adaptive_round, compile, AnyJob};
use crate::scenario::{ExperimentSpec, Scenario, ScenarioOutcome, ScenarioResult};
use divrel_devsim::adaptive::AdaptivePfdRuntime;
use divrel_devsim::sweep::CellRange;
use divrel_numerics::wire::{Wire, WireError};
use scheduler::{Action, JobState, Scheduler};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The protocol revision this build speaks. v2 added
/// [`Message::Progress`] heartbeats; v3 the cached-spec handshake
/// ([`Message::SpecHash`]/[`Message::NeedSpec`]) and binary `Result`
/// frames ([`framing`]); v4 sessions: one `Join` per connection, then a
/// `SpecHash` per job and `Done` after the last; v5 rounds as deltas:
/// an adaptive round is offered as a binary [`Message::Round`] against
/// the session spec the worker compiled once, its `Ready` echoes the
/// [`round_digest`], and its cells batch consecutive versions' evidence
/// ([`crate::job`]); v6 changes no frame: naive and tilted rare-event
/// cells draw another random stream, so a v5 worker's rare cells, which
/// would pass every shape check, must not fold into a v6 run. There is
/// no negotiation: a `Join` at any other revision is refused, so every
/// worker of a fleet runs the coordinator's build.
pub const PROTOCOL_VERSION: u64 = 6;

/// Default base lease (see [`Coordinator::lease_cells`]): a worker's
/// starting grant and the granularity a failed lease is retried at.
/// Fleet balance comes from guided sizing, not from this value.
pub const DEFAULT_LEASE_CELLS: u64 = 8;

/// Default per-lease deadline: generous enough that only a genuinely
/// wedged worker trips it on real workloads. Chaos tests shrink it.
pub const DEFAULT_LEASE_TIMEOUT: Duration = Duration::from_secs(120);

/// 64-bit FNV-1a over `bytes`, rendered `fnv1a:<16 hex digits>`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

/// Hash of a canonical spec text (64-bit FNV-1a, hex): the fingerprint
/// a worker checks before running leased cells, so a fleet can never
/// silently mix two versions of "the same" experiment.
#[must_use]
pub fn spec_hash(text: &str) -> String {
    fnv1a(text.bytes())
}

/// The identity of round `round` of the adaptive session whose spec
/// hashes to `spec_hash`: 64-bit FNV-1a, rendered like [`spec_hash`],
/// over these bytes in this order —
///
/// 1. `spec_hash` as UTF-8, then one `0x00` byte;
/// 2. `round` as 4 little-endian bytes;
/// 3. the allocation count as 8 little-endian bytes;
/// 4. each allocation as 8 little-endian bytes, in version order.
///
/// A worker recomputes it from the [`Message::Round`] it was offered and
/// echoes it in [`Message::Ready`]; the round's journal header pins it,
/// so resume refuses another round's or another allocation's journal.
#[must_use]
pub fn round_digest(spec_hash: &str, round: u32, allocations: &[u64]) -> String {
    let head = spec_hash.bytes().chain([0]);
    let round = round.to_le_bytes().into_iter();
    let count = (allocations.len() as u64).to_le_bytes().into_iter();
    let allocations = allocations.iter().flat_map(|a| a.to_le_bytes());
    fnv1a(head.chain(round).chain(count).chain(allocations))
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
    /// Coordinator → worker: the next job is round `round` of the
    /// adaptive session whose un-pinned spec hashes to `hash`, offered
    /// when the worker is idle as [`Message::SpecHash`] is. A worker
    /// that has not compiled that spec asks for it with
    /// [`Message::NeedSpec`] first; it then builds the round's job over
    /// the session's runtime and echoes the [`round_digest`] in
    /// [`Message::Ready`]. A coordinator sends it in the binary form
    /// ([`framing`]).
    Round {
        /// [`spec_hash`] of the session's un-pinned spec.
        hash: String,
        /// Which round (salts the demand streams).
        round: u32,
        /// Per-version demand budgets, version order; one per version
        /// of the session.
        allocations: Vec<u64>,
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
        /// Echo of the verified job identity: the spec hash of a
        /// [`Message::SpecHash`] offer, the [`round_digest`] of a
        /// [`Message::Round`].
        hash: String,
    },
    /// Coordinator → worker: evaluate cells `[start, end)`.
    Lease {
        /// First cell index of the lease.
        start: u64,
        /// One past the last cell index.
        end: u64,
    },
    /// Worker → coordinator: heartbeat while a lease runs. Resets the
    /// lease deadline; carries no data.
    Progress {
        /// Echo of the lease start.
        start: u64,
        /// Echo of the lease end.
        end: u64,
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
    /// [`Message::Result`] and [`Message::Round`] have a binary form).
    /// Custom transports get the fallback for free.
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
    /// halves, so a reader thread and a writer thread move frames
    /// independently — the shape the coordinator's driver loop needs.
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
        let frame = match msg {
            Message::Result { start, end, cells } => {
                framing::encode_result_frame(*start, *end, cells)
            }
            Message::Round {
                hash,
                round,
                allocations,
            } => framing::encode_round_frame(hash, *round, allocations),
            other => return self.send(other),
        };
        self.inner.write_all(&frame)?;
        self.inner.flush()
    }
}

/// The reading half of [`JsonLines`]. Unlike a plain `BufReader`
/// `read_line` loop, partially read frames survive a socket read
/// timeout: bytes accumulate in an internal buffer and a
/// `TimedOut`/`WouldBlock` error simply surfaces to the caller, who may
/// retry `recv` without losing framing.
///
/// The reader demultiplexes the frame forms on the first byte of each
/// frame: a binary marker ([`framing::is_binary_marker`], never the
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
                Some(&b) if framing::is_binary_marker(b) => {
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
/// An `AdaptivePfd` spec compiles here **one pinned round at a time**
/// (`round = Some`). An un-pinned one is a round loop: [`Coordinator`]
/// runs it, and each round's job is built over the session's runtime
/// on both sides of the wire.
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

    /// Round `round` of the adaptive session over `runtime`.
    fn round(
        runtime: Arc<AdaptivePfdRuntime>,
        round: u32,
        allocations: Vec<u64>,
        threads: usize,
    ) -> ScenarioResult<Self> {
        Ok(DistJob {
            job: adaptive_round(runtime, round, allocations)?,
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
    /// [`spec_hash`] of the canonical spec the fleet executed; for one
    /// round of an adaptive loop, the round's [`round_digest`].
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
        self.worker_cells.resize(job.worker_cells.len(), 0);
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

/// A canonical spec text and its [`spec_hash`]: what a worker's
/// [`Message::NeedSpec`] is answered with.
struct SpecText {
    hash: String,
    text: String,
}

impl SpecText {
    fn new(scenario: &Scenario) -> ScenarioResult<Arc<Self>> {
        let text = scenario.to_toml()?;
        Ok(Arc::new(SpecText {
            hash: spec_hash(&text),
            text,
        }))
    }
}

/// A compiled job, how it is offered to a worker, and the spec a
/// worker compiles it from.
struct Compiled {
    dist: DistJob,
    /// The job's identity, which a worker's `Ready` echoes: the spec
    /// hash of a grid spec, the [`round_digest`] of a round.
    hash: String,
    /// The frame that offers the job to an idle worker.
    offer: Message,
    /// The spec behind the job: for a round, the session's.
    spec: Arc<SpecText>,
}

impl Compiled {
    fn grid(scenario: Scenario) -> ScenarioResult<Self> {
        let spec = SpecText::new(&scenario)?;
        // The job doubles as the degradation executor, so give it real
        // parallelism; worker-side bits never depend on thread count.
        let dist = DistJob::new(scenario, crate::context::default_sweep_threads())?;
        Ok(Compiled {
            dist,
            hash: spec.hash.clone(),
            offer: Message::SpecHash {
                hash: spec.hash.clone(),
            },
            spec,
        })
    }

    /// Round `round` of the session over `runtime`, whose un-pinned spec
    /// is `spec`.
    fn round(
        spec: &Arc<SpecText>,
        runtime: &Arc<AdaptivePfdRuntime>,
        round: u32,
        allocations: &[u64],
    ) -> ScenarioResult<Self> {
        let threads = crate::context::default_sweep_threads();
        let dist = DistJob::round(Arc::clone(runtime), round, allocations.to_vec(), threads)?;
        Ok(Compiled {
            dist,
            hash: round_digest(&spec.hash, round, allocations),
            offer: Message::Round {
                hash: spec.hash.clone(),
                round,
                allocations: allocations.to_vec(),
            },
            spec: Arc::clone(spec),
        })
    }
}

/// What a session runs.
enum Plan {
    /// A grid spec's one job, compiled up front.
    Grid(Arc<Compiled>),
    /// An un-pinned `AdaptivePfd` spec: each round's job is built over
    /// the runtime [`drive`] compiles once.
    Rounds(Box<Scenario>, Arc<SpecText>),
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
            let spec = SpecText::new(&scenario)?;
            let hash = spec.hash.clone();
            (Plan::Rounds(Box::new(scenario), spec), hash)
        } else {
            let job = Compiled::grid(scenario)?;
            let hash = job.hash.clone();
            (Plan::Grid(Arc::new(job)), hash)
        };
        Ok(Coordinator {
            plan,
            spec_hash: hash,
            lease_cells: DEFAULT_LEASE_CELLS,
            lease_timeout: DEFAULT_LEASE_TIMEOUT,
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
    /// [`Message::Progress`] or [`Message::Result`] frame about one of
    /// its leases before they are re-issued elsewhere. The same
    /// deadline bounds each step of a worker's handshake.
    #[must_use]
    pub fn lease_timeout(mut self, timeout: Duration) -> Self {
        self.lease_timeout = timeout.max(Duration::from_millis(1));
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
    /// of the un-pinned spec; each round's job is identified by its
    /// [`round_digest`]).
    pub fn spec_hash(&self) -> &str {
        &self.spec_hash
    }

    /// Runs the session to completion over real transports. Each worker
    /// joins once; then each job is offered — its spec hash, or an
    /// adaptive round's number and allocation — and hands out
    /// [`CellRange`] leases with deadlines, re-issues leases whose
    /// workers disconnect or go silent (exponential backoff, straggler
    /// cap), journals every completed lease before publishing it and
    /// folds the per-cell accumulators in canonical order. A worker
    /// drains its leases before it gets the next job's offer, or
    /// [`Message::Done`] after the last job.
    ///
    /// Each transport gets a reader and a writer thread that only move
    /// frames; the lease decisions run on the caller's thread
    /// ([`Coordinator::run_on`]). Both threads are left detached, so a
    /// peer that stops reading or writing cannot keep `run` from
    /// returning; each ends when its stream does.
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
        let count = workers.len();
        self.run_on(&mut ThreadFleet::spawn(workers), count)
    }

    /// Runs the session over `fleet`, whose workers are numbered
    /// `0..workers`: the driver loop [`Coordinator::run`] uses, open to
    /// any other [`Fleet`] — a virtual-clock simulator, for one.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run`].
    pub fn run_on(&self, fleet: &mut dyn Fleet, workers: usize) -> ScenarioResult<DistRun> {
        let sched = Scheduler::new(self, workers);
        let mut session = Session { sched, fleet };
        let run = self.run_jobs(&mut session);
        session.sched.end_session();
        session.carry_out(&mut None);
        run
    }

    /// The session's job sequence.
    fn run_jobs(&self, session: &mut Session<'_>) -> ScenarioResult<DistRun> {
        let (scenario, spec) = match &self.plan {
            Plan::Grid(job) => {
                let (outcome, stats) =
                    self.run_job(session, Arc::clone(job), self.journal.clone(), false)?;
                return Ok(DistRun {
                    outcome,
                    stats,
                    rounds: Vec::new(),
                });
            }
            Plan::Rounds(scenario, spec) => (scenario.as_ref(), spec),
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
            |runtime, round, allocations| {
                let journal = self
                    .journal
                    .as_deref()
                    .map(|base| round_journal_path(base, round));
                let job = Arc::new(Compiled::round(spec, runtime, round, allocations)?);
                let (outcome, stats) = self.run_job(session, job, journal, true)?;
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
        session: &mut Session<'_>,
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
                Some(j)
            }
            Some(path) => Some(
                Journal::create(&path, &compiled.hash, cell_count)
                    .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let (cells, mut stats) = session.drive_job(&compiled, cells, journal)?;
        let outcome = compiled.dist.finish(&cells)?;
        stats.spec_hash = compiled.hash.clone();
        stats.cells = cell_count;
        stats.resumed_from_journal = resumed.is_some();
        stats.resumed_cells = resumed.unwrap_or(0);
        Ok((outcome, stats))
    }
}

/// A session's scheduler and the fleet its actions go to.
struct Session<'a> {
    sched: Scheduler,
    fleet: &'a mut dyn Fleet,
}

impl Session<'_> {
    /// Runs one job from its preloaded `cells` to every cell in
    /// canonical order, or to the reason it failed.
    fn drive_job(
        &mut self,
        compiled: &Arc<Compiled>,
        cells: Vec<Option<Wire>>,
        mut journal: Option<Journal>,
    ) -> ScenarioResult<(Vec<Wire>, DistStats)> {
        let now = self.fleet.now();
        let journaling = journal.is_some();
        self.sched
            .start_job(now, Arc::clone(compiled), cells, journaling);
        loop {
            self.carry_out(&mut journal);
            match self.sched.state() {
                JobState::Done => break,
                JobState::Running => {
                    let (now, event) = self.fleet.wait(self.sched.next_deadline());
                    self.sched.advance(now, event);
                }
                // The whole fleet is gone with cells outstanding:
                // degrade to in-process execution. Same cells, same
                // seeds, same bits — only slower.
                JobState::Stranded => {
                    for range in self.sched.missing() {
                        let wires = compiled.dist.run_range(range)?;
                        self.sched.recovered(range, wires);
                        self.carry_out(&mut journal);
                        if self.sched.state() == JobState::Done {
                            break;
                        }
                    }
                }
            }
        }
        let finished = self.sched.finish_job();
        finished.map_err(|fatal| format!("distributed run aborted: {fatal}").into())
    }

    /// Carries out the scheduler's queued actions in order. A lease is
    /// published only once its journal append succeeds; an append that
    /// fails goes back to the scheduler as fatal.
    fn carry_out(&mut self, journal: &mut Option<Journal>) {
        for action in self.sched.take_actions() {
            match action {
                Action::Send(worker, msg) => self.fleet.send(worker, msg),
                Action::Close(worker) => self.fleet.close(worker),
                Action::Journal { from, range, cells } => {
                    let journal = journal.as_mut().expect("a journaling job has a journal");
                    match journal.append_cells(range, cells) {
                        Ok(cells) => self.sched.publish(from, range, cells),
                        Err(e) => self.sched.fail(format!("journal write failed: {e}")),
                    }
                }
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
            Plan::Rounds(..) => Ok(AdaptiveCoordinator(coordinator)),
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

/// What a [`Fleet`] reports to the coordinator's driver loop.
#[derive(Debug)]
pub enum FleetEvent {
    /// A well-formed frame from worker `i`.
    Frame(usize, Message),
    /// Worker `i` sent a malformed frame; its stream can no longer be
    /// trusted.
    Corrupt(usize, String),
    /// Worker `i`'s stream ended: `None` on a clean close or a failed
    /// write, else the read error.
    Closed(usize, Option<String>),
}

/// The seam the coordinator's driver loop waits on: frames out to
/// numbered workers, and their events back, stamped with the session
/// time. [`Coordinator::run`] implements it over threads and real
/// transports; a simulator implements it on a virtual clock and runs
/// the same loop through [`Coordinator::run_on`].
pub trait Fleet {
    /// The session time: how long ago the session started.
    fn now(&self) -> Duration;

    /// Queues `msg` for worker `worker`. Never waits on the peer; a
    /// frame for a closed or broken stream is dropped.
    fn send(&mut self, worker: usize, msg: Message);

    /// Closes the coordinator's side of worker `worker`'s stream: the
    /// worker has left the session. Frames already queued still go
    /// out first.
    fn close(&mut self, worker: usize);

    /// Waits for the next event, or until session time `until` when
    /// one is given. Returns the session time it stopped at, with the
    /// event or `None` when `until` came first.
    fn wait(&mut self, until: Option<Duration>) -> (Duration, Option<FleetEvent>);
}

/// The fleet behind [`Coordinator::run`]: per transport, a reader
/// thread forwarding frames into one event channel and a writer thread
/// draining a frame queue, in the binary form where a frame has one (a
/// [`Message::Round`]).
struct ThreadFleet {
    started: Instant,
    queues: Vec<Option<Sender<Message>>>,
    /// Events, with `None` for a transport's retryable read timeout: the
    /// send that tells a reader whether the driver is still listening.
    events: Receiver<Option<FleetEvent>>,
}

impl ThreadFleet {
    fn spawn(transports: Vec<Box<dyn Transport>>) -> Self {
        let (events_tx, events) = std::sync::mpsc::channel();
        let queues = transports
            .into_iter()
            .enumerate()
            .map(|(worker, transport)| {
                let (mut tx, mut rx) = transport.split();
                let (queue, frames) = std::sync::mpsc::channel::<Message>();
                let reader_events = events_tx.clone();
                std::thread::spawn(move || pump_frames(worker, rx.as_mut(), &reader_events));
                let writer_events = events_tx.clone();
                std::thread::spawn(move || {
                    for msg in frames {
                        if tx.send_binary(&msg).is_err() {
                            let _ = writer_events.send(Some(FleetEvent::Closed(worker, None)));
                            return;
                        }
                    }
                });
                Some(queue)
            })
            .collect();
        ThreadFleet {
            started: Instant::now(),
            queues,
            events,
        }
    }
}

impl Fleet for ThreadFleet {
    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    fn send(&mut self, worker: usize, msg: Message) {
        if let Some(queue) = &self.queues[worker] {
            let _ = queue.send(msg);
        }
    }

    fn close(&mut self, worker: usize) {
        self.queues[worker] = None;
    }

    fn wait(&mut self, until: Option<Duration>) -> (Duration, Option<FleetEvent>) {
        loop {
            let event = match until {
                None => self.events.recv().ok(),
                Some(t) => self.events.recv_timeout(t.saturating_sub(self.now())).ok(),
            };
            if !matches!(event, Some(None)) {
                return (self.now(), event.flatten());
            }
        }
    }
}

/// Forwards frames from a receive half into the event channel until the
/// stream ends, breaks, or the driver hangs up.
fn pump_frames(worker: usize, rx: &mut dyn FrameRecv, events: &Sender<Option<FleetEvent>>) {
    loop {
        let event = match rx.recv() {
            Ok(Some(msg)) => Some(FleetEvent::Frame(worker, msg)),
            Ok(None) => Some(FleetEvent::Closed(worker, None)),
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => None,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                Some(FleetEvent::Corrupt(worker, e.to_string()))
            }
            Err(e) => Some(FleetEvent::Closed(worker, Some(e.to_string()))),
        };
        let last = matches!(
            event,
            Some(FleetEvent::Corrupt(..) | FleetEvent::Closed(..))
        );
        if events.send(event).is_err() || last {
            return;
        }
    }
}

/// What a worker compiles a spec into.
#[derive(Clone)]
enum WorkerSpec {
    /// A grid spec's job.
    Grid(Arc<DistJob>),
    /// An un-pinned adaptive spec: the runtime each round's job is
    /// built over.
    Session(Arc<AdaptivePfdRuntime>),
}

/// Compiled-spec cache shared across a worker's connections, keyed by
/// spec hash: a grid spec's [`DistJob`], or an adaptive session's
/// runtime, which serves every round of the session. A persistent
/// worker that reconnects to coordinators running the same committed
/// spec compiles it once and answers every later offer from cache —
/// skipping both the spec transfer and the model/grid build.
///
/// Cloning is cheap (the map is behind an `Arc`), so one cache can back
/// a whole in-process fleet. The cache stores jobs compiled with the
/// owning worker's thread hint; thread count never affects the bits, so
/// sharing a cache between workers with different `threads` settings is
/// safe for correctness (the hint of whoever compiled first wins).
#[derive(Clone, Default)]
pub struct SpecCache(Arc<Mutex<HashMap<String, WorkerSpec>>>);

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

    fn get(&self, hash: &str) -> Option<WorkerSpec> {
        self.0
            .lock()
            .expect("spec cache poisoned")
            .get(hash)
            .cloned()
    }

    fn insert(&self, hash: String, spec: WorkerSpec) {
        self.0
            .lock()
            .expect("spec cache poisoned")
            .insert(hash, spec);
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

/// Heartbeat cadence while a lease runs: even when a lease computes
/// longer than the coordinator's lease deadline, [`Message::Progress`]
/// frames keep flowing, so a slow-but-alive worker is never mistaken
/// for a dead one. A fleet simulator heartbeats its simulated workers
/// at the same cadence.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// Worker-side configuration, and the driver that serves a
/// [`WorkerSession`] over a real transport.
#[derive(Debug, Clone)]
pub struct Worker {
    threads: usize,
    plan: FaultPlan,
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
    /// [`default_sweep_threads`](crate::context::default_sweep_threads)
    /// threads.
    #[must_use]
    pub fn new() -> Self {
        Worker {
            threads: crate::context::default_sweep_threads(),
            plan: FaultPlan::new(),
            cache: SpecCache::new(),
            framing: FramingMode::from_env(),
        }
    }

    /// Worker-side threads per lease (execution hint only).
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

    /// A new session of this worker's protocol, with the step that
    /// starts it: sending the `Join`.
    #[must_use]
    pub fn session(&self) -> (WorkerSession, WorkerStep) {
        WorkerSession::new(self.threads, self.plan.clone(), self.cache.clone())
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

    /// Serves one coordinator session to completion by driving a
    /// [`WorkerSession`] over `t`: the `Join`, then for each job its
    /// spec handshake and its leases, with heartbeats, until
    /// [`Message::Done`].
    ///
    /// # Errors
    ///
    /// Transport errors, and every error the session ends on: a spec
    /// whose hash does not match its text, a cell that fails to
    /// evaluate (reported to the coordinator as an abort), injected
    /// faults.
    pub fn serve<T: Transport + ?Sized>(&self, t: &mut T) -> ScenarioResult<WorkerSummary> {
        let binary = self.framing.use_binary(PROTOCOL_VERSION);
        let (mut session, join) = self.session();
        let mut steps = VecDeque::from([join]);
        loop {
            let Some(step) = steps.pop_front() else {
                steps.extend(session.on_frame(self.recv_patient(t)?));
                continue;
            };
            match step {
                WorkerStep::Send(msg) => {
                    // An abort is followed by the exit that carries its
                    // reason, which a failed send must not replace.
                    if let Err(e) = t.send(&msg) {
                        if !matches!(msg, Message::Abort { .. }) {
                            return Err(e.into());
                        }
                    }
                }
                WorkerStep::Run { range, delay } => {
                    let job = Arc::clone(session.job().expect("a lease runs on a confirmed job"));
                    let cells = self.evaluate(t, &job, range, delay)?;
                    for step in session.computed(range, cells) {
                        match step {
                            // A lease's result goes out in the worker's
                            // framing.
                            WorkerStep::Send(msg @ Message::Result { .. }) if binary => {
                                t.send_binary(&msg)?;
                            }
                            step => steps.push_back(step),
                        }
                    }
                }
                WorkerStep::Stall(hold) => std::thread::sleep(hold),
                WorkerStep::Exit(exit) => return exit.map_err(Into::into),
            }
        }
    }

    /// Evaluates a lease's cells with one [`DistJob::run_range`] call,
    /// after `delay`, on a scoped thread while this thread sends a
    /// [`Message::Progress`] heartbeat every [`HEARTBEAT_INTERVAL`]
    /// until it returns: a lease that computes longer than the lease
    /// deadline still heartbeats, so it is never spuriously re-leased
    /// or quarantined. The outer error is the transport's; the inner
    /// one a cell's.
    fn evaluate<T: Transport + ?Sized>(
        &self,
        t: &mut T,
        job: &DistJob,
        range: CellRange,
        delay: Duration,
    ) -> std::io::Result<Result<Vec<Wire>, String>> {
        // The evaluation thread holds the sender; its drop on return
        // ends the heartbeat loop.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (evaled, io_err) = std::thread::scope(|s| {
            let eval = s.spawn(move || {
                let _done = done_tx;
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                // Box<dyn Error> is not Send; carry the message across
                // the join.
                job.run_range(range).map_err(|e| e.to_string())
            });
            let mut io_err: Option<std::io::Error> = None;
            while let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(HEARTBEAT_INTERVAL) {
                if io_err.is_none() {
                    if let Err(e) = t.send(&Message::Progress {
                        start: range.start,
                        end: range.end,
                    }) {
                        // Keep waiting, so the eval thread is joined
                        // either way.
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
    use crate::adaptive::{RefinementSpec, RoundPlan};
    use crate::scenario::presets;
    use crate::Context;
    use divrel_devsim::adaptive::{CellEvidence, EvidenceBatch};
    use divrel_numerics::wire::WireForm;
    use std::sync::atomic::{AtomicU64, Ordering};

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
            Message::Round {
                hash: "fnv1a:00".into(),
                round: 3,
                allocations: vec![0, u64::MAX, 7],
            },
            Message::Lease { start: 3, end: 9 },
            Message::Progress { start: 3, end: 9 },
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
            Message::Progress { start: 0, end: 100 },
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

    /// Regression: a single lease that computes longer than the lease
    /// deadline used to heartbeat only *between* chunks, so a slow but
    /// healthy worker was spuriously re-leased (and with strict strikes,
    /// quarantined). The wall-clock heartbeat pump must keep the lease
    /// alive through the whole computation: here a 1 s lease against a
    /// 400 ms deadline, twice [`HEARTBEAT_INTERVAL`].
    #[test]
    fn slow_lease_heartbeats_outlive_the_deadline() {
        let ctx = Context::smoke();
        let scenario = presets::mc(&ctx);
        let direct = scenario.run(1).unwrap();
        let coordinator = Coordinator::new(scenario)
            .unwrap()
            .lease_cells(1_000_000) // leases as large as guided sizing allows
            .lease_timeout(2 * HEARTBEAT_INTERVAL);
        let (mut worker_ends, coord_ends) = duplex_pairs(1);
        let handle = std::thread::spawn(move || {
            Worker::new()
                .threads(1)
                .fault_plan(FaultPlan::new().inject(0, Fault::Slow { millis: 1_000 }))
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
            .zip([FramingMode::Json, FramingMode::Auto])
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
            let protocol = PROTOCOL_VERSION - 1;
            Transport::send(&mut old, &Message::Join { protocol }).unwrap();
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
        assert!(reason.contains("v5") && reason.contains("v6"), "{reason}");
        assert_eq!(run.stats.quarantined_workers, 1, "stats: {:?}", run.stats);
        assert_eq!(run.stats.worker_faults, vec![reason]);
        assert_eq!(run.stats.worker_cells[0], 0);
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
    }

    /// A pinned adaptive round of `versions` versions, version `v`
    /// allocated [`pinned_allocation`]`(v)` demands.
    fn pinned_round(versions: usize) -> Scenario {
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
                cells: versions,
                refinement: RefinementSpec {
                    confidence: 0.99,
                    target_width: 0.002,
                    initial_demands: 1_800,
                    round_demands: 6_000,
                    max_rounds: 40,
                },
                round: Some(RoundPlan {
                    round: 2,
                    allocations: (0..versions as u64).map(pinned_allocation).collect(),
                }),
            },
        }
    }

    fn pinned_allocation(version: u64) -> u64 {
        100 + 50 * version
    }

    /// The same session un-pinned: a round loop of `versions` versions.
    fn round_loop(versions: usize) -> Scenario {
        let mut scenario = pinned_round(versions);
        if let ExperimentSpec::AdaptivePfd { round, .. } = &mut scenario.experiment {
            *round = None;
        }
        scenario
    }

    fn evidence_cell(batch: &EvidenceBatch) -> Wire {
        Wire::record([
            ("kind", Wire::Text("adaptive".into())),
            ("data", batch.to_wire()),
        ])
    }

    /// Made-up evidence for a version's allocation.
    type Forge = fn(u64) -> CellEvidence;

    /// A hand-rolled worker: completes the handshake and compiles the
    /// spec, then answers its leases with the genuine cells except that
    /// the middle version of each lease's first cell carries evidence
    /// `forge` makes up, and waits to be cut off.
    fn forging_worker(t: &mut PipeTransport, forge: Forge) {
        Transport::send(
            t,
            &Message::Join {
                protocol: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let mut job = None;
        loop {
            match Transport::recv(t) {
                Ok(Some(Message::SpecHash { hash, .. })) => {
                    Transport::send(t, &Message::NeedSpec { hash }).unwrap();
                }
                Ok(Some(Message::Spec { hash, text })) => {
                    let scenario = Scenario::from_spec_text(&text).unwrap();
                    job = Some(DistJob::new(scenario, 1).unwrap());
                    Transport::send(t, &Message::Ready { hash }).unwrap();
                }
                Ok(Some(Message::Lease { start, end })) => {
                    let job = job.as_ref().expect("a lease after the spec");
                    let mut cells = job.run_range(CellRange::new(start, end)).unwrap();
                    let data = cells[0].field("data").unwrap();
                    let mut batch = EvidenceBatch::from_wire(data).unwrap();
                    let mid = batch.demands.len() / 2;
                    let forged = forge(batch.demands[mid]);
                    batch.failures[mid] = forged.failures;
                    batch.demands[mid] = forged.demands;
                    cells[0] = evidence_cell(&batch);
                    let _ = Transport::send(t, &Message::Result { start, end, cells });
                }
                Ok(Some(Message::Abort { .. } | Message::Done) | None) | Err(_) => return,
                Ok(Some(other)) => panic!("unexpected frame {other:?}"),
            }
        }
    }

    /// Runs `scenario` on one forging worker and checks that its first
    /// result quarantined it for the version `version_note` names, and
    /// that the coordinator ran every cell in process instead.
    fn check_forgeries(scenario: &Scenario, version_note: &str) {
        let direct = scenario.run(1).unwrap();
        let cells = DistJob::new(scenario.clone(), 1).unwrap().cell_count();
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
            let fault = &run.stats.worker_faults[0];
            assert!(
                fault.contains("allocated") && fault.contains(version_note),
                "{label}: {fault}"
            );
            assert_eq!(run.stats.worker_cells, vec![0], "{label}");
            assert_eq!(run.stats.recovered_in_process, cells, "{label}");
            assert_eq!(
                format!("{:?}", run.outcome),
                format!("{direct:?}"),
                "{label}"
            );
        }
    }

    #[test]
    fn forged_adaptive_evidence_quarantines_its_worker() {
        // 12 versions, one per cell: the first lease's first version.
        check_forgeries(&pinned_round(12), "cell 0 version 0:");
    }

    #[test]
    fn a_forged_version_inside_a_batched_cell_quarantines_its_worker() {
        // 600 versions batch 3 to a cell; the forgery is version 1, the
        // middle of cell 0, between two genuine versions.
        let scenario = pinned_round(600);
        assert_eq!(DistJob::new(scenario.clone(), 1).unwrap().cell_count(), 200);
        check_forgeries(&scenario, "cell 0 version 1:");
    }

    #[test]
    fn resume_rejects_forged_adaptive_evidence() {
        let scenario = pinned_round(12);
        let hash = spec_hash(&scenario.to_toml().unwrap());
        let path = std::env::temp_dir().join(format!(
            "divrel-forged-evidence-{}.ndjson",
            std::process::id()
        ));
        let mut journal = Journal::create(&path, &hash, 12).unwrap();
        let mut forged = EvidenceBatch::default();
        forged.push(CellEvidence {
            failures: 0,
            demands: pinned_allocation(3) + 1,
        });
        journal
            .append(CellRange::new(3, 4), &[evidence_cell(&forged)])
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

    /// Runs `scenario`, a round loop, on one pipe worker per entry of
    /// `workers`, each with a cache of its own; returns the run and
    /// each worker's cache and summary.
    fn run_round_loop(
        scenario: Scenario,
        workers: Vec<Worker>,
    ) -> (DistRun, Vec<(SpecCache, WorkerSummary)>) {
        let (worker_ends, coord_ends) = duplex_pairs(workers.len());
        let handles: Vec<_> = worker_ends
            .into_iter()
            .zip(workers)
            .map(|(mut t, worker)| {
                let cache = SpecCache::new();
                let worker = worker.threads(1).spec_cache(cache.clone());
                std::thread::spawn(move || {
                    let served = worker.serve(&mut t).map_err(|e| e.to_string());
                    (cache, served)
                })
            })
            .collect();
        let run = Coordinator::new(scenario).unwrap().run(coord_ends).unwrap();
        let served = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter_map(|(cache, served)| Some((cache, served.ok()?)))
            .collect();
        (run, served)
    }

    /// Rounds as deltas: each worker is shipped the session's spec once,
    /// compiles one runtime for the whole round loop and answers every
    /// later round from its cache.
    #[test]
    fn an_adaptive_session_ships_its_spec_once_per_worker() {
        let scenario = round_loop(12);
        let direct = scenario.run(1).unwrap();
        let (run, served) = run_round_loop(scenario, vec![Worker::new(), Worker::new()]);
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
        let rounds = run.rounds.len() as u64;
        assert!(rounds >= 3, "{rounds} rounds");
        assert_eq!(served.len(), 2);
        for (cache, summary) in served {
            assert_eq!(cache.len(), 1, "one compiled session, not one per round");
            assert_eq!(summary.jobs, rounds, "{summary:?}");
            assert_eq!(summary.cached_jobs, rounds - 1, "{summary:?}");
        }
    }

    /// A worker whose `Ready` does not echo the round's digest is
    /// quarantined, and the loop finishes on the rest of the fleet.
    #[test]
    fn a_wrong_round_digest_quarantines_its_worker() {
        let scenario = round_loop(12);
        let direct = scenario.run(1).unwrap();
        let liar = Worker::new().fault_plan(FaultPlan::new().inject(0, Fault::WrongHash));
        let (run, served) = run_round_loop(scenario, vec![liar, Worker::new()]);
        assert_eq!(format!("{:?}", run.outcome), format!("{direct:?}"));
        assert_eq!(run.stats.quarantined_workers, 1, "{:?}", run.stats);
        assert!(
            run.stats.worker_faults[0].contains("echoed job identity"),
            "{:?}",
            run.stats.worker_faults
        );
        assert_eq!(run.stats.worker_cells[0], 0);
        assert_eq!(served.len(), 1, "only the honest worker serves the session");
    }

    #[test]
    fn round_digests_follow_their_documented_bytes() {
        let digest = round_digest("fnv1a:0123", 7, &[1, 2]);
        let mut bytes = b"fnv1a:0123\0".to_vec();
        bytes.extend(7u32.to_le_bytes());
        bytes.extend(2u64.to_le_bytes());
        bytes.extend(1u64.to_le_bytes());
        bytes.extend(2u64.to_le_bytes());
        assert_eq!(digest, fnv1a(bytes));
        // Every input moves it.
        assert_ne!(digest, round_digest("fnv1a:0124", 7, &[1, 2]));
        assert_ne!(digest, round_digest("fnv1a:0123", 8, &[1, 2]));
        assert_ne!(digest, round_digest("fnv1a:0123", 7, &[2, 1]));
        assert_ne!(digest, round_digest("fnv1a:0123", 7, &[1, 2, 0]));
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
