//! The controlled plant: the source of demands.
//!
//! §2.1: "A demand occurs when the controlled system enters a state that
//! requires the intervention of the protection system." Two plant models
//! are provided:
//!
//! * [`Plant::with_demand_rate`] — each step is a demand with a fixed
//!   probability, and the demand's detail (the sensed state variables) is
//!   drawn from an operational [`Profile`]. This realises the paper's
//!   demand-space semantics exactly.
//! * [`Plant::trajectory`] — the two sensed variables perform a bounded
//!   random walk; a demand occurs whenever the state enters a configured
//!   *trip set*, and the demand value is the state itself. This produces a
//!   physically-flavoured, autocorrelated demand stream whose *induced*
//!   profile is an emergent property, used to stress the assumption that
//!   demands are profile-i.i.d.
//! * [`Plant::markov_walk`] — a *sticky* random walk: each tick the state
//!   moves with probability `move_prob` (taking a trajectory step) and
//!   holds its operating point otherwise. Operating points that persist
//!   for many ticks are what real plants do between transients, and they
//!   are exactly the structure the demand compiler
//!   ([`crate::compiler::CompiledPlant`]) exploits: the holding time in a
//!   state is geometric, so quiet ticks can be skipped analytically.
//!
//! Trajectory and Markov-walk plants expose their exact one-step
//! transition law through [`Plant::transition_row`]; the rate plant is
//! memoryless and exposes [`Plant::rate_parts`] instead.

use crate::error::ProtectionError;
use divrel_demand::profile::Profile;
use divrel_demand::region::Region;
use divrel_demand::space::{Demand, GridSpace2D};
use rand::Rng;

/// What the plant did in one simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantEvent {
    /// Nothing requiring protection happened.
    Quiet,
    /// The plant entered a state requiring protection.
    Demand(Demand),
}

/// A stochastic plant emitting demands.
#[derive(Debug, Clone)]
pub struct Plant {
    kind: PlantKind,
}

#[derive(Debug, Clone)]
enum PlantKind {
    Rate {
        profile: Profile,
        demand_rate: f64,
    },
    Trajectory {
        space: GridSpace2D,
        trip_set: Region,
        step: u32,
    },
    Markov {
        space: GridSpace2D,
        trip_set: Region,
        step: u32,
        move_prob: f64,
    },
}

impl Plant {
    /// A memoryless plant: every step is a demand with probability
    /// `demand_rate`, its value drawn from `profile`.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::InvalidConfig`] unless `0 < demand_rate <= 1`.
    pub fn with_demand_rate(profile: Profile, demand_rate: f64) -> Result<Self, ProtectionError> {
        if !(demand_rate > 0.0 && demand_rate <= 1.0) {
            return Err(ProtectionError::InvalidConfig(format!(
                "demand rate {demand_rate} not in (0, 1]"
            )));
        }
        Ok(Plant {
            kind: PlantKind::Rate {
                profile,
                demand_rate,
            },
        })
    }

    /// A random-walk plant over `space`: the state starts at the centre
    /// and moves up to `step` cells per tick in each coordinate (clamped
    /// to the space); entering `trip_set` raises a demand at the current
    /// state.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::InvalidConfig`] for `step == 0`;
    /// [`ProtectionError::Demand`] if the trip set leaves the space.
    pub fn trajectory(
        space: GridSpace2D,
        trip_set: Region,
        step: u32,
    ) -> Result<Self, ProtectionError> {
        if step == 0 {
            return Err(ProtectionError::InvalidConfig(
                "trajectory step must be >= 1".into(),
            ));
        }
        trip_set.validate_within(&space)?;
        Ok(Plant {
            kind: PlantKind::Trajectory {
                space,
                trip_set,
                step,
            },
        })
    }

    /// A sticky random-walk plant over `space`: each tick the state takes
    /// a [`Plant::trajectory`]-style step with probability `move_prob`
    /// and holds its current operating point otherwise. Entering
    /// `trip_set` raises a demand at the new state (holding *inside* the
    /// trip set re-raises the demand, exactly as the trajectory plant
    /// does).
    ///
    /// Small `move_prob` models a plant that dwells at operating points
    /// for `~1/move_prob` ticks between excursions — the regime in which
    /// the compiled gap sampler pays off.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::InvalidConfig`] for `step == 0` or
    /// `move_prob` outside `(0, 1]`; [`ProtectionError::Demand`] if the
    /// trip set leaves the space.
    pub fn markov_walk(
        space: GridSpace2D,
        trip_set: Region,
        step: u32,
        move_prob: f64,
    ) -> Result<Self, ProtectionError> {
        if step == 0 {
            return Err(ProtectionError::InvalidConfig(
                "markov-walk step must be >= 1".into(),
            ));
        }
        if !(move_prob > 0.0 && move_prob <= 1.0) {
            return Err(ProtectionError::InvalidConfig(format!(
                "move probability {move_prob} not in (0, 1]"
            )));
        }
        trip_set.validate_within(&space)?;
        Ok(Plant {
            kind: PlantKind::Markov {
                space,
                trip_set,
                step,
                move_prob,
            },
        })
    }

    /// The demand space the plant's demands live in.
    pub fn space(&self) -> &GridSpace2D {
        match &self.kind {
            PlantKind::Rate { profile, .. } => profile.space(),
            PlantKind::Trajectory { space, .. } | PlantKind::Markov { space, .. } => space,
        }
    }

    /// Runs the plant for one step from `state`, returning the new state
    /// and the event. For the rate plant the state is ignored and returned
    /// unchanged.
    pub fn step<R: Rng + ?Sized>(&self, state: Demand, rng: &mut R) -> (Demand, PlantEvent) {
        match &self.kind {
            PlantKind::Rate {
                profile,
                demand_rate,
            } => {
                if rng.gen::<f64>() < *demand_rate {
                    (state, PlantEvent::Demand(profile.sample(rng)))
                } else {
                    (state, PlantEvent::Quiet)
                }
            }
            PlantKind::Trajectory {
                space,
                trip_set,
                step,
            } => {
                let next = walk_step(state, *step, space, rng);
                (next, classify(next, trip_set))
            }
            PlantKind::Markov {
                space,
                trip_set,
                step,
                move_prob,
            } => {
                let next = if rng.gen::<f64>() < *move_prob {
                    walk_step(state, *step, space, rng)
                } else {
                    state
                };
                (next, classify(next, trip_set))
            }
        }
    }

    /// The exact one-step transition law from `state`, as
    /// `(successor, probability)` pairs with positive probability summing
    /// to 1 — the row of the plant's Markov transition matrix that the
    /// demand compiler consumes. `None` for the memoryless rate plant
    /// (whose structure is exposed by [`Plant::rate_parts`] instead).
    ///
    /// Rows are exact: the clamped random-walk deltas of each axis are
    /// enumerated combinatorially, so the returned distribution is the
    /// law [`Plant::step`] samples from, not an estimate of it.
    ///
    /// Allocates a fresh row per call; hot paths that probe many states
    /// (the demand compiler's first-visit builds) use
    /// [`Plant::transition_row_into`] with a reused [`RowScratch`]
    /// instead.
    pub fn transition_row(&self, state: Demand) -> Option<Vec<(Demand, f64)>> {
        let mut buf = RowScratch::new();
        self.transition_row_into(state, &mut buf).then_some(buf.row)
    }

    /// Writes the exact one-step law from `state` into `buf` (replacing
    /// its previous contents), returning `false` for the memoryless rate
    /// plant. Identical values in identical order to
    /// [`Plant::transition_row`] — the compiler relies on this to build
    /// bit-identical rows from either entry point — but free of the
    /// per-call `Vec` allocations: after warm-up the scratch buffers are
    /// reused across every probed state.
    pub fn transition_row_into(&self, state: Demand, buf: &mut RowScratch) -> bool {
        match &self.kind {
            PlantKind::Rate { .. } => false,
            PlantKind::Trajectory { space, step, .. } => {
                walk_row_into(state, *step, space, 1.0, buf);
                true
            }
            PlantKind::Markov {
                space,
                step,
                move_prob,
                ..
            } => {
                walk_row_into(state, *step, space, *move_prob, buf);
                let hold = 1.0 - move_prob;
                if hold > 0.0 {
                    match buf.row.iter_mut().find(|(d, _)| *d == state) {
                        Some((_, p)) => *p += hold,
                        None => buf.row.push((state, hold)),
                    }
                }
                true
            }
        }
    }

    /// The trip set of a trajectory or Markov-walk plant (`None` for the
    /// rate plant, whose demands carry their own values).
    pub fn trip_set(&self) -> Option<&Region> {
        match &self.kind {
            PlantKind::Rate { .. } => None,
            PlantKind::Trajectory { trip_set, .. } | PlantKind::Markov { trip_set, .. } => {
                Some(trip_set)
            }
        }
    }

    /// For memoryless (rate) plants: the demand probability per step
    /// and the profile demands are drawn from. `None` for trajectory
    /// plants, whose demand process has memory.
    ///
    /// The simulation driver uses this to skip quiet ticks analytically
    /// (geometric demand-gap sampling) — valid precisely because the
    /// rate plant's steps are i.i.d.
    pub fn rate_parts(&self) -> Option<(&Profile, f64)> {
        match &self.kind {
            PlantKind::Rate {
                profile,
                demand_rate,
            } => Some((profile, *demand_rate)),
            PlantKind::Trajectory { .. } | PlantKind::Markov { .. } => None,
        }
    }

    /// A sensible initial state: the centre of the space.
    pub fn initial_state(&self) -> Demand {
        let s = self.space();
        Demand::new(s.nx() / 2, s.ny() / 2)
    }
}

/// One clamped random-walk step (shared by the trajectory and Markov
/// kinds).
fn walk_step<R: Rng + ?Sized>(
    state: Demand,
    step: u32,
    space: &GridSpace2D,
    rng: &mut R,
) -> Demand {
    let walk = |v: u32, max: u32, rng: &mut R| -> u32 {
        let delta = rng.gen_range(-(step as i64)..=step as i64);
        (v as i64 + delta).clamp(0, max as i64 - 1) as u32
    };
    Demand::new(
        walk(state.var1, space.nx(), rng),
        walk(state.var2, space.ny(), rng),
    )
}

fn classify(next: Demand, trip_set: &Region) -> PlantEvent {
    if trip_set.contains(next) {
        PlantEvent::Demand(next)
    } else {
        PlantEvent::Quiet
    }
}

/// Reusable scratch for [`Plant::transition_row_into`]: the row buffer
/// plus the per-axis work areas, so row probes and lazy per-state
/// compilation stop allocating once warm.
#[derive(Debug, Default, Clone)]
pub struct RowScratch {
    xs: Vec<(u32, f64)>,
    ys: Vec<(u32, f64)>,
    row: Vec<(Demand, f64)>,
}

impl RowScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently built transition row.
    pub fn row(&self) -> &[(Demand, f64)] {
        &self.row
    }
}

/// The exact distribution of one clamped-walk axis: each delta in
/// `[-step, step]` is equally likely and clamping folds out-of-range
/// deltas onto the boundary cells.
fn axis_row_into(v: u32, max: u32, step: u32, out: &mut Vec<(u32, f64)>) {
    out.clear();
    let per = 1.0 / (2 * step + 1) as f64;
    for delta in -(step as i64)..=step as i64 {
        let t = (v as i64 + delta).clamp(0, max as i64 - 1) as u32;
        match out.last_mut() {
            // Deltas are scanned in order, so clamped duplicates are
            // adjacent and fold into the previous entry.
            Some((prev, p)) if *prev == t => *p += per,
            _ => out.push((t, per)),
        }
    }
}

/// The joint clamped-walk row, scaled by `scale` (the move probability).
fn walk_row_into(state: Demand, step: u32, space: &GridSpace2D, scale: f64, buf: &mut RowScratch) {
    axis_row_into(state.var1, space.nx(), step, &mut buf.xs);
    axis_row_into(state.var2, space.ny(), step, &mut buf.ys);
    buf.row.clear();
    buf.row.reserve(buf.xs.len() * buf.ys.len());
    for &(y, py) in &buf.ys {
        for &(x, px) in &buf.xs {
            buf.row.push((Demand::new(x, y), scale * px * py));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rate_plant_validation() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let p = Profile::uniform(&s);
        assert!(Plant::with_demand_rate(p.clone(), 0.0).is_err());
        assert!(Plant::with_demand_rate(p.clone(), 1.5).is_err());
        assert!(Plant::with_demand_rate(p, 1.0).is_ok());
    }

    #[test]
    fn rate_plant_demand_frequency() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let plant = Plant::with_demand_rate(Profile::uniform(&s), 0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = plant.initial_state();
        let mut demands = 0;
        let n = 40_000;
        for _ in 0..n {
            let (next, ev) = plant.step(state, &mut rng);
            state = next;
            if matches!(ev, PlantEvent::Demand(_)) {
                demands += 1;
            }
        }
        let rate = demands as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn rate_plant_demands_follow_profile() {
        let s = GridSpace2D::new(2, 1).unwrap();
        let profile = Profile::from_weights(&s, vec![0.9, 0.1]).unwrap();
        let plant = Plant::with_demand_rate(profile, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut left = 0;
        let n = 20_000;
        for _ in 0..n {
            if let (_, PlantEvent::Demand(d)) = plant.step(Demand::new(0, 0), &mut rng) {
                if d.var1 == 0 {
                    left += 1;
                }
            }
        }
        assert!((left as f64 / n as f64 - 0.9).abs() < 0.01);
    }

    #[test]
    fn trajectory_plant_validation() {
        let s = GridSpace2D::new(10, 10).unwrap();
        assert!(Plant::trajectory(s, Region::rect(0, 0, 2, 2), 0).is_err());
        assert!(Plant::trajectory(s, Region::rect(0, 0, 12, 2), 1).is_err());
        assert!(Plant::trajectory(s, Region::rect(0, 0, 2, 2), 1).is_ok());
    }

    #[test]
    fn trajectory_stays_in_space_and_trips_in_trip_set() {
        let s = GridSpace2D::new(20, 20).unwrap();
        let trip = Region::rect(0, 0, 3, 3);
        let plant = Plant::trajectory(s, trip.clone(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut state = plant.initial_state();
        let mut demand_count = 0;
        for _ in 0..20_000 {
            let (next, ev) = plant.step(state, &mut rng);
            assert!(s.contains(next), "state {next} left the space");
            match ev {
                PlantEvent::Demand(d) => {
                    assert!(trip.contains(d), "demand {d} outside trip set");
                    assert_eq!(d, next);
                    demand_count += 1;
                }
                PlantEvent::Quiet => assert!(!trip.contains(next)),
            }
            state = next;
        }
        assert!(demand_count > 0, "random walk never hit the trip set");
    }

    #[test]
    fn initial_state_is_centre() {
        let s = GridSpace2D::new(10, 30).unwrap();
        let plant = Plant::trajectory(s, Region::rect(0, 0, 1, 1), 1).unwrap();
        assert_eq!(plant.initial_state(), Demand::new(5, 15));
    }

    #[test]
    fn markov_walk_validation() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let trip = Region::rect(0, 0, 2, 2);
        assert!(Plant::markov_walk(s, trip.clone(), 0, 0.5).is_err());
        assert!(Plant::markov_walk(s, trip.clone(), 1, 0.0).is_err());
        assert!(Plant::markov_walk(s, trip.clone(), 1, 1.5).is_err());
        assert!(Plant::markov_walk(s, Region::rect(0, 0, 12, 2), 1, 0.5).is_err());
        assert!(Plant::markov_walk(s, trip, 1, 1.0).is_ok());
    }

    #[test]
    fn markov_walk_holds_its_state() {
        // move_prob 0.25: roughly three quarters of the ticks hold.
        let s = GridSpace2D::new(20, 20).unwrap();
        let plant = Plant::markov_walk(s, Region::rect(0, 0, 1, 1), 2, 0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut state = plant.initial_state();
        let mut held = 0;
        let n = 20_000;
        for _ in 0..n {
            let (next, _) = plant.step(state, &mut rng);
            if next == state {
                held += 1;
            }
            state = next;
        }
        // P(hold) = 0.75 + 0.25 / 25 (a move that draws delta (0, 0)).
        let want = 0.75 + 0.25 / 25.0;
        assert!((held as f64 / n as f64 - want).abs() < 0.02);
    }

    #[test]
    fn transition_row_is_a_distribution_matching_step() {
        let s = GridSpace2D::new(12, 12).unwrap();
        let trip = Region::rect(0, 0, 1, 1);
        for plant in [
            Plant::trajectory(s, trip.clone(), 2).unwrap(),
            Plant::markov_walk(s, trip.clone(), 2, 0.3).unwrap(),
        ] {
            // Interior state and a corner state (clamping folds mass).
            for state in [Demand::new(6, 6), Demand::new(0, 0)] {
                let row = plant.transition_row(state).unwrap();
                let total: f64 = row.iter().map(|&(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-12, "row mass {total}");
                assert!(row.iter().all(|&(_, p)| p > 0.0));
                // Empirical one-step frequencies match the row.
                let mut rng = StdRng::seed_from_u64(21);
                let n = 40_000;
                let mut counts = std::collections::HashMap::new();
                for _ in 0..n {
                    let (next, _) = plant.step(state, &mut rng);
                    *counts.entry(next).or_insert(0u32) += 1;
                }
                for &(d, p) in &row {
                    let freq = *counts.get(&d).unwrap_or(&0) as f64 / n as f64;
                    assert!((freq - p).abs() < 0.015, "{d}: freq {freq} vs row prob {p}");
                }
            }
        }
    }

    #[test]
    fn transition_row_into_reproduces_transition_row_bitwise() {
        let s = GridSpace2D::new(12, 12).unwrap();
        let trip = Region::rect(0, 0, 1, 1);
        let mut buf = RowScratch::new();
        for plant in [
            Plant::trajectory(s, trip.clone(), 2).unwrap(),
            Plant::markov_walk(s, trip.clone(), 3, 0.3).unwrap(),
            Plant::markov_walk(s, trip, 1, 1.0).unwrap(),
        ] {
            // One shared scratch across states and plants: stale contents
            // must never leak into the next row.
            for state in [Demand::new(6, 6), Demand::new(0, 0), Demand::new(11, 3)] {
                let owned = plant.transition_row(state).unwrap();
                assert!(plant.transition_row_into(state, &mut buf));
                assert_eq!(buf.row().len(), owned.len());
                for (&(d, p), &(od, op)) in buf.row().iter().zip(&owned) {
                    assert_eq!(d, od);
                    assert_eq!(p.to_bits(), op.to_bits(), "{state} -> {d}");
                }
            }
        }
        let rate = Plant::with_demand_rate(Profile::uniform(&GridSpace2D::new(4, 4).unwrap()), 0.5)
            .unwrap();
        assert!(!rate.transition_row_into(Demand::new(0, 0), &mut buf));
    }

    #[test]
    fn rate_plant_has_no_transition_row_or_trip_set() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let plant = Plant::with_demand_rate(Profile::uniform(&s), 0.5).unwrap();
        assert!(plant.transition_row(Demand::new(0, 0)).is_none());
        assert!(plant.trip_set().is_none());
        let t = Plant::trajectory(s, Region::rect(0, 0, 2, 2), 1).unwrap();
        assert!(t.trip_set().is_some());
    }
}
