//! Chaos injection for the distributed runtime: declarative worker
//! fault plans and deterministic seeded failure schedules.
//!
//! PR 5's `fail_after_leases` could only make a worker vanish. A
//! [`FaultPlan`] generalises that into the full menagerie the
//! coordinator must survive:
//!
//! | fault | what the worker does | what the coordinator must do |
//! |---|---|---|
//! | [`Fault::Die`] | drops the connection without replying | re-issue the lease |
//! | [`Fault::Stall`] | holds the lease silently, then dies | deadline, re-issue with backoff, quarantine after three misses |
//! | [`Fault::CorruptWire`] | returns garbage cell payloads | quarantine, re-issue |
//! | [`Fault::WrongHash`] | echoes a wrong spec hash at handshake | quarantine at handshake |
//! | [`Fault::Slow`] | sleeps before answering one lease, heartbeating | keep the lease alive on its heartbeats; accept a duplicate result first-write-wins |
//!
//! Faults are keyed by **lease ordinal** (the how-many-th `Lease` frame
//! the worker has received, 0-based), so a schedule is reproducible for
//! a given fleet shape. [`FaultPlan::seeded`] derives a whole schedule
//! from one integer via the same SplitMix64 stream the sweep engine
//! uses — `tests/dist_chaos.rs` sweeps seeds, on real pipes and on its
//! virtual-clock fleet simulator, which applies the same plans to
//! simulated workers, and asserts the one invariant that matters:
//! **any fault history folds to bit-identical results**.
//!
//! Plans round-trip through a compact text form (`die@1,slow:40@2` …)
//! so `scenario_run` can carry them across process boundaries
//! (`--fault` on workers, `--chaos` on the coordinator).

use divrel_numerics::sweep::split_seed;
use std::time::Duration;

/// One injected worker fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Drop the connection without replying to the lease.
    Die,
    /// Go silent holding the lease for [`FaultPlan::stall_hold`], then
    /// drop the connection — the failure mode a blocking `recv` can
    /// never survive, and the reason the coordinator has deadlines.
    Stall,
    /// Reply with a full-length lease result whose cell payloads are
    /// garbage (wrong wire shape).
    CorruptWire,
    /// Echo a wrong spec hash during the handshake.
    WrongHash,
    /// Sleep `millis` before answering this lease, heartbeating all
    /// the while — a straggler, not a corpse.
    Slow {
        /// Injected delay per lease, in milliseconds.
        millis: u64,
    },
}

/// A deterministic per-worker fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<(u64, Fault)>,
    stall_hold_ms: Option<u64>,
}

/// How long a stalled worker holds its lease before dropping the
/// connection, unless the plan overrides it. Long enough to trip any
/// sane coordinator deadline, short enough that test fleets reap their
/// worker threads quickly.
pub const DEFAULT_STALL_HOLD_MS: u64 = 2_000;

impl FaultPlan {
    /// An empty plan: a healthy worker.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds `fault` at lease ordinal `lease` (0-based count of `Lease`
    /// frames received).
    #[must_use]
    pub fn inject(mut self, lease: u64, fault: Fault) -> Self {
        self.faults.push((lease, fault));
        self
    }

    /// Overrides how long a [`Fault::Stall`] holds its lease before the
    /// connection drops.
    #[must_use]
    pub fn stall_hold(mut self, hold: Duration) -> Self {
        self.stall_hold_ms = Some(hold.as_millis() as u64);
        self
    }

    /// The configured stall hold.
    #[must_use]
    pub fn stall_hold_duration(&self) -> Duration {
        Duration::from_millis(self.stall_hold_ms.unwrap_or(DEFAULT_STALL_HOLD_MS))
    }

    /// The fault scheduled at lease ordinal `lease`, if any. With
    /// several faults on one ordinal the first wins.
    #[must_use]
    pub fn fault_at(&self, lease: u64) -> Option<&Fault> {
        self.faults
            .iter()
            .find(|(at, f)| *at == lease && !matches!(f, Fault::WrongHash))
            .map(|(_, f)| f)
    }

    /// True if the plan corrupts the handshake (a [`Fault::WrongHash`]
    /// anywhere — the handshake happens once, before any lease).
    #[must_use]
    pub fn wrong_hash(&self) -> bool {
        self.faults
            .iter()
            .any(|(_, f)| matches!(f, Fault::WrongHash))
    }

    /// Derives a reproducible schedule from `seed`: zero to two faults
    /// at small lease ordinals, kinds and delays drawn from the same
    /// SplitMix64 stream the sweep engine seeds cells with. A fixed
    /// short stall hold keeps seeded fleets fast to reap.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut plan = FaultPlan::new().stall_hold(Duration::from_millis(400));
        let count = split_seed(seed, 0) % 3;
        for k in 0..count {
            let draw = split_seed(seed, k + 1);
            let lease = draw % 4;
            let fault = match (draw >> 8) % 5 {
                0 => Fault::Die,
                1 => Fault::Stall,
                2 => Fault::CorruptWire,
                3 => Fault::WrongHash,
                _ => Fault::Slow {
                    millis: 20 + (draw >> 16) % 80,
                },
            };
            plan = plan.inject(lease, fault);
        }
        plan
    }

    /// Renders the plan in the `--fault` argument form parsed by
    /// [`FaultPlan::parse`].
    #[must_use]
    pub fn to_arg(&self) -> String {
        let mut parts: Vec<String> = self
            .faults
            .iter()
            .map(|(at, f)| match f {
                Fault::Die => format!("die@{at}"),
                Fault::Stall => format!("stall@{at}"),
                Fault::CorruptWire => format!("corrupt@{at}"),
                Fault::WrongHash => "wrong-hash".to_string(),
                Fault::Slow { millis } => format!("slow:{millis}@{at}"),
            })
            .collect();
        if let Some(ms) = self.stall_hold_ms {
            parts.push(format!("hold:{ms}"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Parses the compact text form: comma-separated
    /// `die@N` / `stall@N` / `corrupt@N` / `wrong-hash` / `slow:MS@N`
    /// items, an optional `hold:MS` stall override, `seed:S` for a
    /// [`FaultPlan::seeded`] schedule, or `none`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed item.
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        if text.is_empty() || text == "none" {
            return Ok(FaultPlan::new());
        }
        if let Some(seed) = text.strip_prefix("seed:") {
            let seed = seed
                .parse::<u64>()
                .map_err(|e| format!("bad chaos seed {seed:?}: {e}"))?;
            return Ok(FaultPlan::seeded(seed));
        }
        let mut plan = FaultPlan::new();
        for item in text.split(',') {
            let item = item.trim();
            if item == "wrong-hash" {
                plan = plan.inject(0, Fault::WrongHash);
                continue;
            }
            if let Some(ms) = item.strip_prefix("hold:") {
                let ms = ms
                    .parse::<u64>()
                    .map_err(|e| format!("bad stall hold {item:?}: {e}"))?;
                plan = plan.stall_hold(Duration::from_millis(ms));
                continue;
            }
            let (head, at) = item
                .split_once('@')
                .ok_or_else(|| format!("fault item {item:?} lacks a @LEASE ordinal"))?;
            let at = at
                .parse::<u64>()
                .map_err(|e| format!("bad lease ordinal in {item:?}: {e}"))?;
            let fault = match head {
                "die" => Fault::Die,
                "stall" => Fault::Stall,
                "corrupt" => Fault::CorruptWire,
                other => {
                    if let Some(ms) = other.strip_prefix("slow:") {
                        Fault::Slow {
                            millis: ms
                                .parse::<u64>()
                                .map_err(|e| format!("bad slow delay in {item:?}: {e}"))?,
                        }
                    } else {
                        return Err(format!(
                            "unknown fault {head:?} in {item:?} \
                             (die, stall, corrupt, wrong-hash, slow:MS, hold:MS, seed:S)"
                        ));
                    }
                }
            };
            plan = plan.inject(at, fault);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_the_argument_form() {
        let plans = vec![
            FaultPlan::new(),
            FaultPlan::new().inject(1, Fault::Die),
            FaultPlan::new()
                .inject(0, Fault::Slow { millis: 35 })
                .inject(2, Fault::CorruptWire)
                .stall_hold(Duration::from_millis(700)),
            FaultPlan::new().inject(0, Fault::WrongHash),
            FaultPlan::new()
                .inject(3, Fault::Stall)
                .stall_hold(Duration::from_millis(250)),
        ];
        for plan in plans {
            let arg = plan.to_arg();
            let back = FaultPlan::parse(&arg).unwrap_or_else(|e| panic!("{arg}: {e}"));
            assert_eq!(back, plan, "argument form {arg:?} did not round-trip");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_kinds() {
        assert_eq!(FaultPlan::seeded(7), FaultPlan::seeded(7));
        let mut kinds = std::collections::BTreeSet::new();
        let mut nonempty = 0;
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed);
            if !plan.is_empty() {
                nonempty += 1;
            }
            for (_, f) in &plan.faults {
                kinds.insert(match f {
                    Fault::Die => 0,
                    Fault::Stall => 1,
                    Fault::CorruptWire => 2,
                    Fault::WrongHash => 3,
                    Fault::Slow { .. } => 4,
                });
            }
        }
        assert!(nonempty >= 16, "seeded schedules almost always empty");
        assert!(kinds.len() >= 4, "seeded schedules cover kinds {kinds:?}");
        // seed:S in the argument grammar reproduces the seeded plan.
        assert_eq!(FaultPlan::parse("seed:42").unwrap(), FaultPlan::seeded(42));
    }

    #[test]
    fn lookup_and_handshake_semantics() {
        let plan = FaultPlan::new()
            .inject(1, Fault::Die)
            .inject(0, Fault::WrongHash);
        assert!(plan.wrong_hash());
        // WrongHash is a handshake fault, never a lease fault.
        assert!(plan.fault_at(0).is_none());
        assert_eq!(plan.fault_at(1), Some(&Fault::Die));
        assert!(plan.fault_at(2).is_none());
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("die@x").is_err());
        assert!(FaultPlan::parse("none").unwrap().is_empty());
    }
}
