//! The coordinator's lease scheduler: every lease decision of a fleet
//! session in one value that reads no clock and does no I/O.
//!
//! A [`Scheduler`] takes events — a worker's frame, a worker gone, time
//! advanced — with the session time passed in as a [`Duration`], and
//! queues [`Action`]s: frames to send, streams to close, completed
//! leases to journal. The coordinator's driver loop waits on a
//! [`Fleet`](super::Fleet), feeds what it reports here and carries the
//! actions out; the loop is the only place the session touches a clock,
//! a transport or a file. Because the schedule depends on nothing but
//! the events and their times, a virtual-clock fleet replays any
//! failure history exactly (`tests/dist_chaos.rs`).
//!
//! The policies, all per job:
//!
//! * **Guided, growing grants.** A worker starts each job at the base
//!   lease size; each lease it returns before its deadline doubles its
//!   grant, up to 8× the base, and a missed deadline resets it. Each
//!   claim is also capped by [`guided_lease_size`], and a worker holds
//!   at most [`PIPELINE_DEPTH`] leases.
//! * **Deadlines.** Only a frame about one of the worker's leases (a
//!   `Progress` heartbeat or a `Result`) restarts its deadline. A
//!   missed deadline puts the worker's leases back in the queue in
//!   base-sized pieces with exponential backoff, pauses its grants until
//!   it is heard from again, and after more than [`STRAGGLER_STRIKES`]
//!   misses in a row quarantines it.
//! * **Write-ahead.** With a journal, an admitted result is published
//!   only after its record is appended; without one, on admission.
//! * **First write wins.** A result for a lease that already went back
//!   in the queue is still accepted; duplicate cells keep their first
//!   value, and no later grant leases an accepted cell.
//! * **Quarantine.** A wrong protocol, spec hash or round digest, a
//!   corrupt stream or payload, a forged cell, or any frame the
//!   protocol does not expect (a `Progress` or `Result` naming no lease
//!   the worker holds included) removes the worker for the rest of the
//!   session.
//! * **The halt.** With a kill point of `K` journal appends, the `K`-th
//!   append is the last one; the job then drains and fails.
//! * **Idle handshakes.** A job is done only when every worker still in
//!   the session holds no lease and has finished its handshake, so the
//!   next job's offer (`SpecHash` or `Round`), or the session's `Done`,
//!   reaches only idle workers.
//! * **Degradation.** A job whose whole fleet is gone asks for its
//!   missing cells to be run in process.

use super::{Compiled, Coordinator, DistStats, FleetEvent, Message, PROTOCOL_VERSION};
use divrel_devsim::sweep::CellRange;
use divrel_numerics::wire::Wire;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Leases a worker may hold at once, so the next lease is already
/// granted while the current one computes.
const PIPELINE_DEPTH: usize = 2;

/// Consecutive missed deadlines a worker may run up; one more
/// quarantines it as a straggler.
const STRAGGLER_STRIKES: u32 = 2;

/// Backoff before the first re-issue of a timed-out lease; each later
/// re-issue of the same cells waits twice as long, up to
/// [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// The longest backoff of a re-issued lease.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Guided self-scheduling (Polychronopoulos & Kuck, 1987): a claim gets
/// the worker's adaptive `grant`, capped at its share of the `unleased`
/// cells so that no worker holds the tail while the others idle.
fn guided_lease_size(grant: u64, unleased: u64, live_workers: usize) -> u64 {
    let slots = (live_workers.max(1) * PIPELINE_DEPTH) as u64;
    grant.min(unleased.div_ceil(slots).max(1))
}

/// The wait before the re-issue of a lease on its `attempt`-th retry.
fn backoff_delay(attempt: u32) -> Duration {
    (BACKOFF_BASE * (1u32 << attempt.min(10))).min(BACKOFF_CAP)
}

/// `range` cut into pieces of at most `size` cells.
fn chunks(range: CellRange, size: u64) -> impl Iterator<Item = CellRange> {
    let size = size.max(1);
    (range.start..range.end)
        .step_by(size as usize)
        .map(move |s| CellRange::new(s, s.saturating_add(size).min(range.end)))
}

/// The contiguous runs of unfilled cells, chunked to the lease size.
fn missing_ranges(cells: &[Option<Wire>], lease_cells: u64) -> Vec<CellRange> {
    let (mut out, mut start) = (Vec::new(), 0);
    for run in cells.chunk_by(|a, b| a.is_some() == b.is_some()) {
        let end = start + run.len() as u64;
        if run[0].is_none() {
            out.extend(chunks(CellRange::new(start, end), lease_cells));
        }
        start = end;
    }
    out
}

/// What the scheduler asks its driver to do, in order.
#[derive(Debug)]
pub(crate) enum Action {
    /// Send this frame to worker `i`.
    Send(usize, Message),
    /// Worker `i` has left the session: close its stream.
    Close(usize),
    /// Append this admitted lease to the job's journal, then hand it
    /// back through [`Scheduler::publish`]; a failed append goes back
    /// through [`Scheduler::fail`] instead. `from` is the worker, `None`
    /// the in-process recovery.
    Journal {
        from: Option<usize>,
        range: CellRange,
        cells: Vec<Wire>,
    },
}

/// Where the current job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobState {
    /// Leases or handshakes are in flight: wait for the fleet.
    Running,
    /// Every worker is gone with cells missing: run
    /// [`Scheduler::missing`] in process.
    Stranded,
    /// Every cell is in (or the job failed) and every worker left in
    /// the session is idle.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    /// Its `Join` not yet seen.
    #[default]
    Joining,
    /// Offered the current job; `spec_sent` once the full spec
    /// followed.
    Offered { spec_sent: bool },
    /// Joined, and ready on the current job once offered one.
    Ready,
    /// Left the session.
    Gone,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    range: CellRange,
    attempt: u32,
    /// A backed-off re-issue is not eligible before this session time.
    ready_at: Duration,
}

/// A lease granted to a worker and not yet resolved. It stays in the
/// pipeline even after a missed deadline puts its range back in the
/// queue (`requeued`), because a late result is still a valid result.
#[derive(Debug)]
struct InFlight {
    lease: Pending,
    requeued: bool,
}

#[derive(Debug, Default)]
struct Slot {
    phase: Phase,
    grant: u64,
    strikes: u32,
    outstanding: VecDeque<InFlight>,
    /// When the frame the coordinator awaits from this worker is
    /// overdue: its `Join`, its handshake reply, or word on a lease.
    /// `None` exactly when the worker owes the coordinator nothing.
    deadline: Option<Duration>,
}

/// A fleet session's lease schedule: the per-worker protocol state,
/// which persists across the session's jobs, and the current job's
/// lease board.
#[derive(Default)]
pub(crate) struct Scheduler {
    lease_cells: u64,
    lease_timeout: Duration,
    halt_after: Option<u64>,
    now: Duration,
    workers: Vec<Slot>,
    actions: Vec<Action>,
    // The current job's board.
    job: Option<Arc<Compiled>>,
    pending: Vec<Pending>,
    cells: Vec<Option<Wire>>,
    /// Which cells are accepted: published, or queued to be journaled
    /// and then published.
    accepted: Vec<bool>,
    /// Accepted cells.
    filled: usize,
    /// Appends to the job's journal so far; `None` without a journal.
    appends: Option<u64>,
    stats: DistStats,
    fatal: Option<String>,
}

impl Scheduler {
    /// A session of `coordinator` over `workers` connected workers,
    /// none joined yet.
    pub(crate) fn new(coordinator: &Coordinator, workers: usize) -> Self {
        Scheduler {
            lease_cells: coordinator.lease_cells,
            lease_timeout: coordinator.lease_timeout,
            halt_after: coordinator.halt_after_appends,
            workers: (0..workers).map(|_| Slot::default()).collect(),
            ..Scheduler::default()
        }
    }

    /// Starts `job` at session time `now`. `cells` holds the cells
    /// preloaded from a journal; every missing one is leased out, and a
    /// job with none missing runs no handshake. `journaling` makes each
    /// accepted lease an [`Action::Journal`] first.
    pub(crate) fn start_job(
        &mut self,
        now: Duration,
        job: Arc<Compiled>,
        cells: Vec<Option<Wire>>,
        journaling: bool,
    ) {
        self.now = self.now.max(now);
        self.accepted = cells.iter().map(Option::is_some).collect();
        self.filled = self.accepted.iter().filter(|&&a| a).count();
        // Whole gaps: claims split their leases off the front.
        self.pending = missing_ranges(&cells, cells.len() as u64)
            .into_iter()
            .map(|range| Pending {
                range,
                attempt: 0,
                ready_at: Duration::ZERO,
            })
            .collect();
        self.cells = cells;
        self.appends = journaling.then_some(0);
        self.fatal = None;
        self.stats = DistStats {
            worker_cells: vec![0; self.workers.len()],
            ..DistStats::default()
        };
        self.job = Some(job);
        if self.drained() {
            return;
        }
        for w in 0..self.workers.len() {
            match self.workers[w].phase {
                Phase::Ready => self.offer(w),
                Phase::Joining => self.heard(w),
                Phase::Offered { .. } | Phase::Gone => {}
            }
        }
    }

    /// Feeds what the fleet reported at session time `now`: an event,
    /// or `None` when a wait reached its deadline. Then fires every
    /// deadline due and grants what it can.
    pub(crate) fn advance(&mut self, now: Duration, event: Option<FleetEvent>) {
        self.now = self.now.max(now);
        match event {
            Some(FleetEvent::Frame(w, msg)) => self.on_frame(w, msg),
            Some(FleetEvent::Corrupt(w, e)) => self.on_corrupt(w, e),
            Some(FleetEvent::Closed(w, note)) => self.on_closed(w, note),
            None => {}
        }
        self.expire();
        self.grant();
    }

    /// Records a failure of the driver's own (a journal append) as the
    /// job's fatal error.
    pub(crate) fn fail(&mut self, reason: String) {
        self.fatal.get_or_insert(reason);
    }

    /// The actions queued since the last call, in order.
    pub(crate) fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// The session time by which [`Scheduler::advance`] must run even
    /// if the fleet stays silent: the earliest worker deadline, or the
    /// moment a backed-off range becomes eligible for a worker with
    /// room for it.
    pub(crate) fn next_deadline(&self) -> Option<Duration> {
        let deadlines = self.workers.iter().filter_map(|s| s.deadline);
        let room = !self.drained() && self.workers.iter().any(|s| self.can_claim(s));
        let backoffs = self
            .pending
            .iter()
            .map(|p| p.ready_at)
            .filter(|&t| room && t > self.now);
        deadlines.chain(backoffs).min()
    }

    pub(crate) fn state(&self) -> JobState {
        if !self.drained() && self.workers.iter().all(|s| s.phase == Phase::Gone) {
            JobState::Stranded
        } else if self.drained() && self.workers.iter().all(|s| s.deadline.is_none()) {
            JobState::Done
        } else {
            JobState::Running
        }
    }

    /// The missing cells in base-sized ranges, for a stranded job to
    /// run in process.
    pub(crate) fn missing(&self) -> Vec<CellRange> {
        missing_ranges(&self.cells, self.lease_cells)
    }

    /// Publishes a range the coordinator ran in process.
    pub(crate) fn recovered(&mut self, range: CellRange, cells: Vec<Wire>) {
        self.accept(None, range, cells);
    }

    /// Ends the job: every cell in canonical order with its statistics,
    /// or the reason it failed.
    pub(crate) fn finish_job(&mut self) -> Result<(Vec<Wire>, DistStats), String> {
        if let Some(fatal) = self.fatal.take() {
            return Err(fatal);
        }
        let cells = std::mem::take(&mut self.cells)
            .into_iter()
            .map(|c| c.expect("a finished job has every cell"))
            .collect();
        Ok((cells, std::mem::take(&mut self.stats)))
    }

    /// Ends the session: `Done` to every worker still in it.
    pub(crate) fn end_session(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].phase != Phase::Gone {
                self.send(w, Message::Done);
            }
        }
    }

    fn send(&mut self, w: usize, msg: Message) {
        self.actions.push(Action::Send(w, msg));
    }

    fn spec(&self) -> &Compiled {
        self.job.as_deref().expect("a job is running")
    }

    /// Whether the job needs no more leases: it failed, or every cell
    /// is accepted, so the grant after the last result leases nothing
    /// even while that result still waits for its journal append.
    fn drained(&self) -> bool {
        self.fatal.is_some() || self.filled == self.cells.len()
    }

    fn can_claim(&self, slot: &Slot) -> bool {
        slot.phase == Phase::Ready && slot.strikes == 0 && slot.outstanding.len() < PIPELINE_DEPTH
    }

    /// Restarts worker `w`'s deadline, a full timeout from now while
    /// the coordinator awaits anything from it.
    fn heard(&mut self, w: usize) {
        let slot = &mut self.workers[w];
        let awaits = slot.phase != Phase::Ready || !slot.outstanding.is_empty();
        slot.deadline = awaits.then_some(self.now + self.lease_timeout);
    }

    /// Offers the current job to worker `w`.
    fn offer(&mut self, w: usize) {
        let offer = self.spec().offer.clone();
        self.send(w, offer);
        self.workers[w].phase = Phase::Offered { spec_sent: false };
        self.heard(w);
    }

    fn on_frame(&mut self, w: usize, msg: Message) {
        match (self.workers[w].phase, msg) {
            (Phase::Joining, Message::Join { protocol }) if protocol == PROTOCOL_VERSION => {
                self.offer(w);
            }
            (Phase::Joining, Message::Join { protocol }) => self.quarantine(
                w,
                format!(
                    "protocol mismatch: coordinator v{PROTOCOL_VERSION}, worker v{protocol} \
                     (every worker must run the coordinator's build)"
                ),
                true,
            ),
            (Phase::Joining, _) => self.leave(w),
            // The work itself is broken, not the worker: the job fails.
            (Phase::Offered { .. } | Phase::Ready, Message::Abort { reason }) => {
                self.fatal.get_or_insert(reason);
                self.leave(w);
            }
            (Phase::Offered { spec_sent }, msg) => self.on_handshake(w, msg, spec_sent),
            (Phase::Ready, msg) => self.on_lease_frame(w, msg),
            (Phase::Gone, _) => {}
        }
    }

    /// A job's handshake: the spec text ships only on a cache miss
    /// ([`Message::NeedSpec`]), and a `Ready` echoing the job's identity
    /// opens leasing.
    fn on_handshake(&mut self, w: usize, msg: Message, spec_sent: bool) {
        let spec = self.spec();
        match msg {
            Message::Ready { hash } if hash == spec.hash => {
                self.stats.workers += 1;
                let slot = &mut self.workers[w];
                slot.phase = Phase::Ready;
                slot.grant = self.lease_cells;
                slot.deadline = None;
            }
            Message::Ready { hash } => {
                let reason = format!(
                    "worker echoed job identity {hash}, coordinator expects {}",
                    spec.hash
                );
                self.quarantine(w, reason, true);
            }
            Message::NeedSpec { hash } if !spec_sent && hash == spec.spec.hash => {
                let text = spec.spec.text.clone();
                self.send(w, Message::Spec { hash, text });
                self.workers[w].phase = Phase::Offered { spec_sent: true };
                self.heard(w);
            }
            Message::NeedSpec { hash } => {
                let reason = format!(
                    "worker requested spec {hash}, coordinator offers {}",
                    spec.spec.hash
                );
                self.quarantine(w, reason, true);
            }
            _ => self.leave(w),
        }
    }

    fn on_lease_frame(&mut self, w: usize, msg: Message) {
        let leases = &self.workers[w].outstanding;
        let held = match &msg {
            Message::Progress { start, end } | Message::Result { start, end, .. } => leases
                .iter()
                .position(|f| f.lease.range == CellRange::new(*start, *end)),
            _ => None,
        };
        match (msg, held) {
            (Message::Progress { .. }, Some(_)) => {
                self.workers[w].strikes = 0;
                self.heard(w);
            }
            (Message::Result { start, end, cells }, Some(pos)) => {
                let range = CellRange::new(start, end);
                if let Err(reason) = self.admit(range, &cells) {
                    self.quarantine(w, reason, true);
                    return;
                }
                let cap = self.lease_cells.saturating_mul(8);
                let slot = &mut self.workers[w];
                slot.strikes = 0;
                let done = slot.outstanding.remove(pos).expect("position is valid");
                // A late result for a lease that already went back in
                // the queue counts, but does not grow the grant.
                if !done.requeued {
                    slot.grant = slot.grant.saturating_mul(2).min(cap);
                }
                self.heard(w);
                self.accept(Some(w), range, cells);
            }
            (other, _) => {
                let n = self.workers[w].outstanding.len();
                let reason = format!("unexpected frame with {n} lease(s) outstanding: {other:?}");
                self.quarantine(w, reason, true);
            }
        }
    }

    fn on_corrupt(&mut self, w: usize, error: String) {
        let reason = match self.workers[w].phase {
            Phase::Joining => format!("corrupt Join frame: {error}"),
            Phase::Offered { .. } => format!("corrupt handshake frame: {error}"),
            Phase::Ready => format!("corrupt frame: {error}"),
            Phase::Gone => return,
        };
        self.quarantine(w, reason, false);
    }

    fn on_closed(&mut self, w: usize, error: Option<String>) {
        if let (Some(e), false) = (error, self.workers[w].outstanding.is_empty()) {
            self.stats
                .worker_faults
                .push(format!("transport error mid-lease: {e}"));
        }
        self.leave(w);
    }

    /// The admission check on an untrusted lease result: the cell count
    /// plus the family's check of every cell.
    fn admit(&self, range: CellRange, cells: &[Wire]) -> Result<(), String> {
        let dist = &self.spec().dist;
        if cells.len() as u64 != range.len() {
            return Err(format!(
                "malformed lease result: [{}, {}) with {} cells over a {}-cell grid",
                range.start,
                range.end,
                cells.len(),
                dist.cell_count()
            ));
        }
        for (k, wire) in (range.start..).zip(cells) {
            dist.admit_cell(k, wire).map_err(|e| {
                format!(
                    "corrupt cell payload for cell {k} of lease [{}, {}): {e}",
                    range.start, range.end
                )
            })?;
        }
        Ok(())
    }

    /// Takes an admitted lease result: with a journal, queues its append
    /// (which publishes it once written); without one, publishes it.
    /// `from` is the worker, `None` the in-process recovery. A failed
    /// job — the kill point reached included — journals and publishes
    /// nothing more.
    fn accept(&mut self, from: Option<usize>, range: CellRange, cells: Vec<Wire>) {
        if self.fatal.is_some() {
            return;
        }
        for seen in &mut self.accepted[range.start as usize..range.end as usize] {
            self.filled += usize::from(!std::mem::replace(seen, true));
        }
        let Some(appends) = &mut self.appends else {
            return self.publish(from, range, cells);
        };
        self.actions.push(Action::Journal { from, range, cells });
        *appends += 1;
        if self.halt_after == Some(*appends) {
            let n = *appends;
            self.fatal = Some(format!(
                "chaos halt: coordinator stopped after {n} journal append(s)"
            ));
        }
    }

    /// Publishes an accepted lease's cells first-write-wins, once its
    /// journal record (if any) is written.
    pub(crate) fn publish(&mut self, from: Option<usize>, range: CellRange, cells: Vec<Wire>) {
        if self.fatal.is_some() {
            return;
        }
        if let Some(w) = from {
            self.stats.worker_cells[w] += range.len();
        }
        for (slot, wire) in self.cells[range.start as usize..range.end as usize]
            .iter_mut()
            .zip(cells)
        {
            if slot.is_none() {
                *slot = Some(wire);
                self.stats.recovered_in_process += u64::from(from.is_none());
            }
        }
    }

    /// Fires every deadline due: a missed handshake drops the worker; a
    /// missed lease deadline requeues its leases, resets its grant and
    /// strikes it.
    fn expire(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].deadline.is_none_or(|t| t > self.now) {
                continue;
            }
            if self.workers[w].phase != Phase::Ready {
                self.leave(w);
                continue;
            }
            self.stats.timeouts += 1;
            self.requeue_outstanding(w);
            self.heard(w);
            let slot = &mut self.workers[w];
            slot.strikes += 1;
            // A straggler loses its grown grant; if it comes back it
            // re-earns size one completion at a time.
            slot.grant = self.lease_cells;
            if slot.strikes > STRAGGLER_STRIKES {
                let (missed, held) = (slot.strikes, slot.outstanding.len());
                let reason = format!(
                    "quarantined as a straggler: {missed} missed deadlines with {held} lease(s) outstanding"
                );
                self.quarantine(w, reason, true);
            }
        }
    }

    /// Tops up every ready worker's pipeline from the eligible queue,
    /// in worker order. A lease never names an accepted cell: a late
    /// result can accept cells whose requeued pieces are still queued,
    /// so a claim skips the accepted cells at the front of its piece and
    /// ends at the next one.
    fn grant(&mut self) {
        if self.drained() {
            return;
        }
        let live = self
            .workers
            .iter()
            .filter(|s| s.phase != Phase::Gone)
            .count();
        for w in 0..self.workers.len() {
            while self.can_claim(&self.workers[w]) {
                let Some(pos) = self.pending.iter().position(|p| p.ready_at <= self.now) else {
                    return;
                };
                let unleased = self.pending.iter().map(|p| p.range.len()).sum();
                let size = guided_lease_size(self.workers[w].grant, unleased, live);
                let rest = &mut self.pending[pos];
                let accepted = |k: u64| self.accepted[k as usize];
                while rest.range.start < rest.range.end && accepted(rest.range.start) {
                    rest.range.start += 1;
                }
                let mut lease = *rest;
                lease.range.end = rest.range.end.min(rest.range.start + size);
                lease.range.end = (lease.range.start..lease.range.end)
                    .find(|&k| accepted(k))
                    .unwrap_or(lease.range.end);
                rest.range.start = lease.range.end;
                if rest.range.is_empty() {
                    self.pending.remove(pos);
                }
                if lease.range.is_empty() {
                    continue;
                }
                self.stats.leases += 1;
                let (start, end) = (lease.range.start, lease.range.end);
                self.send(w, Message::Lease { start, end });
                let slot = &mut self.workers[w];
                let idle = slot.outstanding.is_empty();
                slot.outstanding.push_back(InFlight {
                    lease,
                    requeued: false,
                });
                if idle {
                    self.heard(w);
                }
            }
        }
    }

    /// Quarantines worker `w` for the rest of the session, telling it
    /// why first when `abort`.
    fn quarantine(&mut self, w: usize, reason: String, abort: bool) {
        if abort {
            let reason = reason.clone();
            self.send(w, Message::Abort { reason });
        }
        self.stats.quarantined_workers += 1;
        self.stats.worker_faults.push(reason);
        self.leave(w);
    }

    /// Worker `w` leaves the session; the leases it held go back in the
    /// queue.
    fn leave(&mut self, w: usize) {
        self.requeue_outstanding(w);
        let slot = &mut self.workers[w];
        slot.phase = Phase::Gone;
        slot.deadline = None;
        slot.outstanding.clear();
        self.actions.push(Action::Close(w));
    }

    /// Requeues every not-yet-requeued lease of worker `w`, marking it
    /// so while keeping it in the worker's pipeline. Each counts one
    /// retry, and goes back in the queue split down to the base
    /// granularity — an adaptively grown lease that failed must not be
    /// retried as one big all-or-nothing chunk — with exponential
    /// backoff.
    fn requeue_outstanding(&mut self, w: usize) {
        for f in self.workers[w]
            .outstanding
            .iter_mut()
            .filter(|f| !f.requeued)
        {
            f.requeued = true;
            let lease = f.lease;
            let ready_at = self.now + backoff_delay(lease.attempt);
            let pieces = chunks(lease.range, self.lease_cells).map(|range| Pending {
                range,
                attempt: lease.attempt + 1,
                ready_at,
            });
            self.pending.extend(pieces);
            self.stats.retries += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Plan, DEFAULT_LEASE_CELLS};
    use crate::scenario::Scenario;
    use crate::Context;

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
    fn backoff_doubles_per_attempt_up_to_its_cap() {
        let ms = |attempt| backoff_delay(attempt).as_millis();
        assert_eq!([ms(0), ms(1), ms(3), ms(6)], [25, 50, 200, 1600]);
        assert_eq!(backoff_delay(7), BACKOFF_CAP);
        assert_eq!(backoff_delay(u32::MAX), BACKOFF_CAP);
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

    /// A scheduler over the E16 smoke preset (100 cells) at 1-cell
    /// leases and `timeout`, every cell but those of `missing`
    /// preloaded, with one worker joined and ready; returns it with the
    /// genuine cells of `missing`.
    fn ready_with_missing(
        timeout: Duration,
        missing: std::ops::Range<usize>,
        journaling: bool,
    ) -> (Scheduler, Vec<Wire>) {
        let e16 = Scenario::preset_with("E16", &Context::smoke()).unwrap();
        let coordinator = Coordinator::new(e16)
            .unwrap()
            .lease_cells(1)
            .lease_timeout(timeout);
        let Plan::Grid(job) = &coordinator.plan else {
            unreachable!("a grid spec is one job");
        };
        let n = job.dist.cell_count();
        let mut cells: Vec<Option<Wire>> = job
            .dist
            .run_range(CellRange::new(0, n))
            .unwrap()
            .into_iter()
            .map(Some)
            .collect();
        let genuine = cells[missing].iter_mut().map(|c| c.take().unwrap());
        let genuine = genuine.collect();
        let mut sched = Scheduler::new(&coordinator, 1);
        sched.start_job(Duration::ZERO, Arc::clone(job), cells, journaling);
        let protocol = PROTOCOL_VERSION;
        sched.advance(Duration::ZERO, frame(Message::Join { protocol }));
        let hash = job.hash.clone();
        sched.advance(Duration::ZERO, frame(Message::Ready { hash }));
        (sched, genuine)
    }

    /// `msg` from worker 0.
    fn frame(msg: Message) -> Option<FleetEvent> {
        Some(FleetEvent::Frame(0, msg))
    }

    /// The `[start, end)` of each lease among `actions`.
    fn leases(actions: Vec<Action>) -> Vec<(u64, u64)> {
        let leases = actions.into_iter().filter_map(|a| match a {
            Action::Send(_, Message::Lease { start, end }) => Some((start, end)),
            _ => None,
        });
        leases.collect()
    }

    /// A late result that completes a journaled job leases nothing
    /// more, although the timed-out lease's piece is back in the queue
    /// and past its backoff: its cells count as accepted before they are
    /// journaled and published.
    #[test]
    fn a_late_result_completing_a_journaled_job_leases_nothing_more() {
        let timeout = Duration::from_secs(1);
        let (mut sched, last) = ready_with_missing(timeout, 0..1, true);
        assert_eq!(leases(sched.take_actions()), [(0, 1)]);
        // The lease misses its deadline and goes back in the queue.
        sched.advance(timeout + Duration::from_millis(1), None);
        assert_eq!(sched.stats.retries, 1);
        assert!(leases(sched.take_actions()).is_empty());
        // Its result arrives once the requeued piece is eligible again.
        let (start, end) = (0, 1);
        let result = Message::Result {
            start,
            end,
            cells: last,
        };
        sched.advance(timeout + BACKOFF_CAP, frame(result));
        let mut actions = sched.take_actions();
        assert!(
            matches!(actions.as_slice(), [Action::Journal { .. }]),
            "{actions:?}"
        );
        let Some(Action::Journal { from, range, cells }) = actions.pop() else {
            unreachable!();
        };
        sched.publish(from, range, cells);
        assert_eq!(sched.state(), JobState::Done);
        let n = sched.cells.len();
        assert_eq!(sched.finish_job().unwrap().0.len(), n);
    }

    /// A late result accepts cells whose requeued pieces are still in
    /// the queue, and no later lease names them: two 1-cell leases time
    /// out, the first one's result arrives past its backoff, and only
    /// the second cell goes out again.
    #[test]
    fn a_late_result_keeps_its_cells_out_of_later_leases() {
        let timeout = Duration::from_secs(1);
        let (mut sched, mut genuine) = ready_with_missing(timeout, 0..2, false);
        assert_eq!(leases(sched.take_actions()), [(0, 1), (1, 2)]);
        sched.advance(timeout + Duration::from_millis(1), None);
        assert_eq!(sched.stats.retries, 2);
        assert!(leases(sched.take_actions()).is_empty());
        genuine.truncate(1);
        let result = Message::Result {
            start: 0,
            end: 1,
            cells: genuine,
        };
        sched.advance(timeout + BACKOFF_CAP, frame(result));
        assert_eq!(leases(sched.take_actions()), [(1, 2)]);
    }
}
