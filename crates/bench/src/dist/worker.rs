//! The worker's end of the protocol: one session of a worker with its
//! coordinator, in one value that reads no clock and does no I/O.
//!
//! A [`WorkerSession`] takes each frame the coordinator sends, or the
//! end of its stream, and answers with [`WorkerStep`]s: a frame to
//! send, a lease range to run, a stall, the end of the session. It owns
//! the `Join`, each job's handshake over the worker's
//! [`SpecCache`](super::SpecCache) (a cached spec answers `Ready` at
//! once; a miss asks `NeedSpec`, then checks, parses and compiles the
//! `Spec` that follows), each lease through the worker's
//! [`FaultPlan`], and every error a session ends on.
//! [`Worker::serve`](super::Worker::serve) drives it over a real
//! transport with a patient receive, one evaluation thread per lease
//! that heartbeats every [`HEARTBEAT_INTERVAL`](super::HEARTBEAT_INTERVAL),
//! and the worker's `Result` framing; `tests/dist_chaos.rs` drives the
//! same session on a virtual clock.
//!
//! A session that ends because the work is broken tells the
//! coordinator first: a spec whose text does not hash to its claim, a
//! spec that does not parse, an offer the spec cannot run and a cell
//! that fails each send an `Abort` before the session ends. A spec that
//! parses but fails to validate or build, a lease before any spec and
//! an injected [`Fault::Die`] only end it, so the coordinator sees the
//! stream close.

use super::{
    round_digest, spec_hash, DistJob, Fault, FaultPlan, Message, SpecCache, WorkerSpec,
    WorkerSummary, PROTOCOL_VERSION,
};
use crate::scenario::{ExperimentSpec, Scenario, ScenarioResult};
use divrel_devsim::adaptive::AdaptivePfdRuntime;
use divrel_devsim::sweep::CellRange;
use divrel_numerics::wire::Wire;
use std::sync::Arc;
use std::time::Duration;

/// What a worker's driver does next, in order.
#[derive(Debug)]
pub enum WorkerStep {
    /// Send this frame to the coordinator.
    Send(Message),
    /// Evaluate `range` of [`WorkerSession::job`], first waiting
    /// `delay` (an injected [`Fault::Slow`]), heartbeating
    /// [`Message::Progress`] for the range until it is done, then hand
    /// the cells to [`WorkerSession::computed`].
    Run {
        /// The leased cells.
        range: CellRange,
        /// How long the run waits before it computes.
        delay: Duration,
    },
    /// Go silent this long, sending and reading nothing (an injected
    /// [`Fault::Stall`]).
    Stall(Duration),
    /// The session is over: what the worker served, or the error it
    /// ended on.
    Exit(Result<WorkerSummary, String>),
}

/// A job offer: the spec hash, and for an adaptive round its number and
/// allocation.
struct Offer {
    hash: String,
    round: Option<(u32, Vec<u64>)>,
}

/// What the session waits for.
enum Wait {
    /// A job offer, a lease or the end of the session.
    Frame,
    /// The spec text the offer asked for with `NeedSpec`.
    Spec(Offer),
    /// After a wrong-hash `Ready` (chaos): the coordinator cutting the
    /// worker off.
    CutOff,
}

/// One worker's side of one coordinator session. Start one with
/// [`Worker::session`](super::Worker::session), whose first step sends
/// the `Join`.
pub struct WorkerSession {
    threads: usize,
    plan: FaultPlan,
    cache: SpecCache,
    summary: WorkerSummary,
    /// The job the last `Ready` confirmed, which leases run on.
    job: Option<Arc<DistJob>>,
    /// `Lease` frames received over the whole session: the ordinals the
    /// fault plan is keyed by.
    leases: u64,
    wait: Wait,
}

/// Ends the session on `reason`.
fn exit(reason: String) -> Vec<WorkerStep> {
    vec![WorkerStep::Exit(Err(reason))]
}

/// Tells the coordinator `reason` with an `Abort`, then ends the
/// session on it.
fn abort(reason: String) -> Vec<WorkerStep> {
    let frame = Message::Abort {
        reason: reason.clone(),
    };
    vec![WorkerStep::Send(frame), WorkerStep::Exit(Err(reason))]
}

impl WorkerSession {
    /// A session of a worker evaluating leases with `threads` threads,
    /// under `plan`, over `cache`; the step sends its `Join`.
    pub(super) fn new(threads: usize, plan: FaultPlan, cache: SpecCache) -> (Self, WorkerStep) {
        let session = WorkerSession {
            threads,
            plan,
            cache,
            summary: WorkerSummary::default(),
            job: None,
            leases: 0,
            wait: Wait::Frame,
        };
        let join = Message::Join {
            protocol: PROTOCOL_VERSION,
        };
        (session, WorkerStep::Send(join))
    }

    /// The job the last `Ready` confirmed: what a [`WorkerStep::Run`]
    /// evaluates.
    #[must_use]
    pub fn job(&self) -> Option<&Arc<DistJob>> {
        self.job.as_ref()
    }

    /// Takes the coordinator's next frame, `None` for the end of its
    /// stream, and returns what to do about it.
    pub fn on_frame(&mut self, frame: Option<Message>) -> Vec<WorkerStep> {
        match std::mem::replace(&mut self.wait, Wait::Frame) {
            Wait::Frame => match frame {
                Some(Message::SpecHash { hash }) => self.offer(Offer { hash, round: None }),
                Some(Message::Round {
                    hash,
                    round,
                    allocations,
                }) => self.offer(Offer {
                    hash,
                    round: Some((round, allocations)),
                }),
                Some(Message::Lease { start, end }) => self.lease(start, end),
                Some(Message::Done) | None => vec![WorkerStep::Exit(Ok(self.summary.clone()))],
                Some(Message::Abort { reason }) => exit(format!("coordinator aborted: {reason}")),
                other => exit(format!("unexpected frame: {other:?}")),
            },
            Wait::Spec(offer) => match frame {
                Some(Message::Spec { hash, text }) if hash == offer.hash => {
                    match self.compile(&hash, &text) {
                        Ok(spec) => self.ready(offer, spec, false),
                        Err(steps) => steps,
                    }
                }
                Some(Message::Abort { reason }) => exit(format!("coordinator aborted: {reason}")),
                other => exit(format!("expected Spec for {}, got {other:?}", offer.hash)),
            },
            Wait::CutOff => match frame {
                Some(Message::Abort { reason }) => exit(format!(
                    "worker fault injection: wrong hash echoed; coordinator said: {reason}"
                )),
                None => exit(
                    "worker fault injection: wrong hash echoed; coordinator hung up".to_string(),
                ),
                Some(_) => {
                    self.wait = Wait::CutOff;
                    Vec::new()
                }
            },
        }
    }

    /// Takes the outcome of a [`WorkerStep::Run`] of `range`: its cells,
    /// or the error of the cell that failed.
    pub fn computed(
        &mut self,
        range: CellRange,
        cells: Result<Vec<Wire>, String>,
    ) -> Vec<WorkerStep> {
        let CellRange { start, end } = range;
        match cells {
            Ok(cells) => {
                self.summary.leases_served += 1;
                self.summary.cells_run += cells.len() as u64;
                vec![WorkerStep::Send(Message::Result { start, end, cells })]
            }
            Err(e) => abort(format!("cells [{start}, {end}) failed: {e}")),
        }
    }

    /// A job is offered: ready from the cache, or ask for the spec.
    fn offer(&mut self, offer: Offer) -> Vec<WorkerStep> {
        self.job = None;
        match self.cache.get(&offer.hash) {
            Some(spec) => self.ready(offer, spec, true),
            None => {
                let hash = offer.hash.clone();
                self.wait = Wait::Spec(offer);
                vec![WorkerStep::Send(Message::NeedSpec { hash })]
            }
        }
    }

    /// Answers `offer` with `Ready` over its compiled `spec`: a
    /// [`Message::SpecHash`] offer runs a grid spec's job, a
    /// [`Message::Round`] offer builds the round's job over the
    /// session's runtime and echoes its [`round_digest`].
    fn ready(&mut self, offer: Offer, spec: WorkerSpec, cached: bool) -> Vec<WorkerStep> {
        let Offer { hash, round } = offer;
        let built = match (spec, round) {
            (WorkerSpec::Grid(job), None) => Ok((job, hash.clone())),
            (WorkerSpec::Session(runtime), Some((round, allocations))) => {
                let digest = round_digest(&hash, round, &allocations);
                DistJob::round(runtime, round, allocations, self.threads)
                    .map(|job| (Arc::new(job), digest))
                    .map_err(|e| e.to_string())
            }
            (_, round) => Err(format!(
                "spec {hash} cannot run the offered {}",
                if round.is_some() { "round" } else { "grid job" }
            )),
        };
        let (job, echo) = match built {
            Ok(built) => built,
            Err(reason) => return abort(reason),
        };
        if self.plan.wrong_hash() {
            // Chaos: echo a wrong hash and wait for the coordinator to
            // cut us off.
            self.wait = Wait::CutOff;
            let hash = "fnv1a:0000000000c0ffee".to_string();
            return vec![WorkerStep::Send(Message::Ready { hash })];
        }
        self.job = Some(job);
        self.summary.jobs += 1;
        self.summary.cached_jobs += u64::from(cached);
        self.summary.spec_hash = hash;
        vec![WorkerStep::Send(Message::Ready { hash: echo })]
    }

    /// A lease arrives: run it, or serve the fault the plan holds for
    /// its ordinal.
    fn lease(&mut self, start: u64, end: u64) -> Vec<WorkerStep> {
        if self.job.is_none() {
            return exit(format!("lease [{start}, {end}) arrived before any spec"));
        }
        let range = CellRange::new(start, end);
        let ordinal = self.leases;
        self.leases += 1;
        let delay = match self.plan.fault_at(ordinal) {
            // Simulated crash: vanish mid-lease, no reply.
            Some(Fault::Die) => {
                return exit(format!(
                    "worker fault injection: dropped connection holding lease [{start}, {end})"
                ))
            }
            // Go silent holding the lease, then die: the coordinator's
            // deadline must fire. Unlike Slow, the stall is not a run,
            // so no heartbeat covers it.
            Some(Fault::Stall) => {
                let reason =
                    format!("worker fault injection: stalled holding lease [{start}, {end})");
                let hold = self.plan.stall_hold_duration();
                return vec![WorkerStep::Stall(hold), WorkerStep::Exit(Err(reason))];
            }
            Some(Fault::CorruptWire) => {
                let cells = vec![Wire::Text("chaos: corrupt cell".into()); range.len() as usize];
                return vec![WorkerStep::Send(Message::Result { start, end, cells })];
            }
            // The delay is part of the run, so the heartbeats cover it:
            // a slow worker is alive, and must look alive.
            Some(Fault::Slow { millis }) => Duration::from_millis(*millis),
            Some(Fault::WrongHash) | None => Duration::ZERO,
        };
        vec![WorkerStep::Run { range, delay }]
    }

    /// Verifies `text` against its claimed `hash`, compiles it and
    /// caches the result for the worker's later connections; on
    /// failure, the steps the session ends with.
    fn compile(&self, hash: &str, text: &str) -> Result<WorkerSpec, Vec<WorkerStep>> {
        let actual = spec_hash(text);
        if actual != hash {
            return Err(abort(format!(
                "spec hash mismatch: coordinator claims {hash}, text hashes to {actual}"
            )));
        }
        let scenario = Scenario::from_spec_text(text)
            .map_err(|e| abort(format!("spec does not parse on worker: {e}")))?;
        let spec = build(scenario, self.threads).map_err(|e| exit(e.to_string()))?;
        self.cache.insert(hash.to_string(), spec.clone());
        Ok(spec)
    }
}

/// Compiles a parsed spec: a grid spec into its [`DistJob`], an
/// un-pinned adaptive spec into its session runtime.
fn build(scenario: Scenario, threads: usize) -> ScenarioResult<WorkerSpec> {
    Ok(match &scenario.experiment {
        ExperimentSpec::AdaptivePfd {
            model,
            cells,
            round: None,
            ..
        } => {
            scenario.validate()?;
            let model = Arc::new(model.build()?);
            let runtime = AdaptivePfdRuntime::new(model, scenario.seed.seed, *cells)?;
            WorkerSpec::Session(Arc::new(runtime))
        }
        _ => WorkerSpec::Grid(Arc::new(DistJob::new(scenario, threads)?)),
    })
}
