//! The demand compiler: analytic quiet-gap sampling for Markov plants.
//!
//! PR 1 gave memoryless (rate) plants a geometric demand-gap fast path;
//! state-dependent plants still paid one RNG draw per tick. This module
//! extends the "exploit the stochastic structure instead of simulating
//! it" idea to any plant that can state its exact one-step law
//! ([`crate::plant::Plant::transition_row`]):
//!
//! 1. **Compile.** For a plant state `s`, split the transition row into
//!    the *demand* mass (successors inside the trip set), the quiet
//!    *self-loop* mass `R(s, s)`, and the quiet *move* mass. Build one
//!    Walker–Vose alias row over each of the two non-self successor
//!    classes.
//! 2. **Sample.** The number of consecutive ticks the chain holds in `s`
//!    before an exit (demand or move) is geometric with parameter
//!    `p_exit(s) = 1 − R(s, s)` (self-loops inside the trip set count as
//!    demands, not holds), so the whole dwell is one `ln` draw. The exit
//!    tick is a demand with probability `p_demand(s) / p_exit(s)`, and
//!    the successor is one alias lookup.
//!
//! The compiled process is **exactly** the chain the tick loop simulates
//! — the decomposition is algebra, not approximation — so compiled and
//! stepwise runs are statistically indistinguishable (the repository's
//! chi-squared equivalence suite holds this to account). The win is the
//! work per *event* instead of per tick: a plant that dwells `1/p`
//! ticks per operating point does `~p · steps` iterations instead of
//! `steps`.
//!
//! States compile **on first visit**. [`CompiledPlant::compile`] builds
//! the initial state's row; every other row is built the first time a
//! walk enters its state, from one reusable set of scratch buffers, so a
//! slow-mixing chain pays only for the small part of its space it
//! reaches. [`CompiledPlant::occupancy`] reports that part. Built rows
//! live in one of two stores, chosen by the size of the space:
//!
//! * up to [`MAX_COMPILED_CELLS`] cells, one slot per cell: a built row
//!   is read with one acquire load, and a lock is taken only inside a
//!   first-visit build;
//! * past that, up to [`MAX_SPARSE_CELLS`], a hash map behind a mutex,
//!   because a slot per cell of such a space does not fit in memory.
//!
//! The store decides only where a row is kept. Rows are built by one
//! function and read by one sampler loop, and builds consume no RNG, so
//! a seed's event stream is **bit-identical** in either store (held to
//! account by this module's tests).
//!
//! Plants whose law cannot be enumerated (the rate plant, or spaces
//! beyond [`MAX_SPARSE_CELLS`]) are simply not compilable —
//! [`CompiledPlant::compile`] returns `None` and the simulation driver
//! degrades gracefully to the tick loop.

use crate::error::ProtectionError;
use crate::plant::{Plant, RowScratch};
use divrel_demand::space::{Demand, GridSpace2D};
use divrel_numerics::sampling::{geometric_gap, inv_log_survive};
use rand::Rng;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// Largest demand-space cell count whose rows are kept in one slot per
/// cell. A slot takes 96 bytes, so at this ceiling the slots take
/// 384 MiB; larger spaces keep their rows in a hash map instead.
pub const MAX_COMPILED_CELLS: usize = 1 << 22;

/// Largest demand-space cell count the compiler accepts. Rows are built
/// lazily, so this bounds only the trip-set bitmap (one bit per cell)
/// and the cell-index width, not compile time; beyond it plants are not
/// compilable at all.
pub const MAX_SPARSE_CELLS: usize = 1 << 28;

/// What the compiled sampler produced for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledEvent {
    /// A demand occurred after `quiet_gap` quiet ticks (the demand tick
    /// itself is not counted in the gap). Total ticks consumed:
    /// `quiet_gap + 1`.
    Demand {
        /// Quiet ticks that preceded the demand.
        quiet_gap: u64,
        /// The demand raised (also the plant's new state).
        demand: Demand,
    },
    /// The tick budget ran out with no demand; all `ticks` were quiet.
    Quiet {
        /// Quiet ticks consumed (the whole requested budget).
        ticks: u64,
    },
}

/// A plant compiled to per-state analytic demand-gap samplers.
///
/// ```
/// use divrel_demand::region::Region;
/// use divrel_demand::space::GridSpace2D;
/// use divrel_protection::compiler::{CompiledEvent, CompiledPlant};
/// use divrel_protection::plant::Plant;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = GridSpace2D::new(40, 40)?;
/// let plant = Plant::markov_walk(space, Region::rect(0, 0, 2, 2), 2, 0.05)?;
/// let compiled = CompiledPlant::compile(&plant)?.expect("markov plants compile");
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut state = compiled.initial_state();
/// match compiled.next_demand(&mut state, 1_000_000, &mut rng) {
///     CompiledEvent::Demand { demand, .. } => assert!(demand.var1 <= 2),
///     CompiledEvent::Quiet { ticks } => assert_eq!(ticks, 1_000_000),
/// }
/// # Ok(())
/// # }
/// ```
pub struct CompiledPlant {
    space: GridSpace2D,
    start: u32,
    plant: Plant,
    /// Bit per cell: is this cell a demand when entered?
    trip_bits: Vec<u64>,
    rows: RowStore,
    builder: Mutex<RowBuilder>,
}

/// Where built rows live (see the module docs for the choice). Both
/// are needed: past [`MAX_COMPILED_CELLS`] a slot per cell does not fit
/// in memory, and below it the hash map's lock on every row fetch slows
/// a walk 1.5–1.8× (40×40 to 100×100 plants, 2-vCPU x86 host).
enum RowStore {
    /// A slot per cell: a built row is read with one acquire load.
    Dense(Box<[OnceLock<StateRow>]>),
    /// The mutex is taken once per **state change**: lookups amortise
    /// over the geometric dwell, not per tick.
    Hashed(Mutex<HashMap<u32, Arc<StateRow>>>),
}

/// One compiled state: its dwell parameters plus the alias rows of its
/// two exit classes.
#[derive(Debug, Clone)]
struct StateRow {
    /// `1 − R(s, s)` with self-loops inside the trip set counted as
    /// exits (they are demands).
    exit_prob: f64,
    /// `1 / ln(R(s, s))` — the geometric dwell sampler's constant; `0.0`
    /// encodes "exit every tick" (no quiet self-loop mass), and a hold
    /// that rounds to 1.0 takes `1 / ln_1p(−exit_prob)`.
    inv_log_hold: f64,
    /// `p_demand(s) / p_exit(s)`; meaningless (0) where `p_exit = 0`.
    demand_given_exit: f64,
    /// Alias row over the successors inside the trip set.
    demands: AliasRow,
    /// Alias row over the quiet successors other than `s` itself.
    quiet_moves: AliasRow,
}

/// A Walker–Vose alias row: bucket `i` yields `cells[i]` when its coin
/// falls below `accept[i]`, else its alias `cells[n + i]`. The aliases
/// sit apart from the cells because a draw almost always accepts, so
/// they stay out of the cache a walk depends on.
#[derive(Debug, Clone)]
struct AliasRow {
    accept: Box<[f64]>,
    /// Each bucket's cell, then each bucket's alias.
    cells: Box<[u32]>,
}

/// What first-visit builds share: one set of scratch buffers, so builds
/// allocate nothing but the row itself, and the count of rows built.
#[derive(Debug, Default)]
struct RowBuilder {
    scratch: CompileScratch,
    built: usize,
}

impl std::fmt::Debug for CompiledPlant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlant")
            .field("space", &self.space)
            .field("start", &self.start)
            .field("compiled_states", &self.compiled_states())
            .finish_non_exhaustive()
    }
}

impl Clone for CompiledPlant {
    /// A copy holding the rows built so far; it builds the rest on its
    /// own.
    fn clone(&self) -> Self {
        let rows = match &self.rows {
            RowStore::Dense(slots) => RowStore::Dense(slots.clone()),
            RowStore::Hashed(map) => {
                RowStore::Hashed(Mutex::new(map.lock().expect("row store lock").clone()))
            }
        };
        let built = match &rows {
            RowStore::Dense(slots) => slots.iter().filter(|s| s.get().is_some()).count(),
            RowStore::Hashed(map) => map.lock().expect("row store lock").len(),
        };
        CompiledPlant {
            space: self.space,
            start: self.start,
            plant: self.plant.clone(),
            trip_bits: self.trip_bits.clone(),
            rows,
            builder: Mutex::new(RowBuilder {
                built,
                ..RowBuilder::default()
            }),
        }
    }
}

impl CompiledPlant {
    /// Compiles `plant`, or returns `None` when the plant does not expose
    /// an enumerable transition law (rate plants) or its space exceeds
    /// [`MAX_SPARSE_CELLS`].
    ///
    /// Only the initial state's row is built here; every other row is
    /// built on its state's first visit, so compiling costs one row plus
    /// a slot per cell (none past [`MAX_COMPILED_CELLS`]). One compiled
    /// plant can drive any number of runs: it is `Sync`, so sharded
    /// campaigns share a single instance across threads, and a row one
    /// shard builds serves them all.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::InvalidConfig`] if the initial state's
    /// transition row is not a probability distribution (a
    /// plant-implementation bug, not a caller error). Any other state's
    /// row is checked at its first visit, which panics on a bad row.
    pub fn compile(plant: &Plant) -> Result<Option<Self>, ProtectionError> {
        Self::compile_into(plant, plant.space().cell_count() <= MAX_COMPILED_CELLS)
    }

    /// [`CompiledPlant::compile`] into the dense store when `dense`, else
    /// into the hash store.
    fn compile_into(plant: &Plant, dense: bool) -> Result<Option<Self>, ProtectionError> {
        let space = *plant.space();
        let cells = space.cell_count();
        if cells > MAX_SPARSE_CELLS || plant.transition_row(plant.initial_state()).is_none() {
            return Ok(None);
        }
        let trip_bits = trip_bitmap(plant, &space);
        let start = space
            .index_of(plant.initial_state())
            .expect("initial state in space");
        // Build the initial state's row now: its mass check surfaces a
        // plant-implementation bug as a typed error here rather than a
        // panic mid-run, and every run starts there anyway.
        let mut builder = RowBuilder {
            built: 1,
            ..RowBuilder::default()
        };
        let first = build_state_row(plant, &space, &trip_bits, start, &mut builder.scratch)?;
        let rows = if dense {
            let slots: Box<[OnceLock<StateRow>]> = (0..cells).map(|_| OnceLock::new()).collect();
            slots[start].set(first).expect("fresh slot");
            RowStore::Dense(slots)
        } else {
            let map = HashMap::from([(start as u32, Arc::new(first))]);
            RowStore::Hashed(Mutex::new(map))
        };
        Ok(Some(CompiledPlant {
            space,
            start: start as u32,
            plant: plant.clone(),
            trip_bits,
            rows,
            builder: Mutex::new(builder),
        }))
    }

    /// Whether compiling `plant` is likely to beat the tick loop for a
    /// one-shot run: true when the plant is *sticky* (the quiet
    /// self-loop mass at its initial state is at least 1/2, i.e. the
    /// chain dwells ≥ 2 ticks per state on average). Fast-mixing plants
    /// (e.g. plain trajectories, whose hold mass is `1/(2·step+1)²`)
    /// spend more on per-event sampling plus compilation than the tick
    /// loop costs, so the driver leaves them on the exact stepwise path.
    ///
    /// This is a cheap probe — one transition row at the initial state —
    /// not a compilation. Callers that reuse one [`CompiledPlant`]
    /// across many runs (sharded campaigns, repeated experiments) can
    /// ignore it and compile unconditionally: the compiled sampler is
    /// never *wrong*, only unprofitable for thin workloads.
    pub fn is_profitable(plant: &Plant) -> bool {
        let state = plant.initial_state();
        match plant.transition_row(state) {
            None => false,
            Some(row) => {
                let hold: f64 = row
                    .iter()
                    .filter(|(d, _)| *d == state)
                    .map(|&(_, p)| p)
                    .sum();
                // Holding inside the trip set is a demand, not a dwell.
                let quiet_hold = match plant.trip_set() {
                    Some(trip) if trip.contains(state) => 0.0,
                    _ => hold,
                };
                quiet_hold >= 0.5
            }
        }
    }

    /// The demand space of the compiled plant.
    pub fn space(&self) -> &GridSpace2D {
        &self.space
    }

    /// Number of plant states (demand-space cells).
    pub fn states(&self) -> usize {
        self.space.cell_count()
    }

    /// Number of states whose rows have been built: the initial state
    /// plus every state a walk or [`CompiledPlant::demand_prob`] has
    /// visited.
    pub fn compiled_states(&self) -> usize {
        self.builder.lock().expect("row builder lock").built
    }

    /// Fraction of the state space with built rows
    /// (`compiled_states / states`) — the occupancy figure the
    /// `markov_sparse` bench row records.
    pub fn occupancy(&self) -> f64 {
        self.compiled_states() as f64 / self.states() as f64
    }

    /// The plant's initial state as a cell index.
    pub fn initial_state(&self) -> u32 {
        self.start
    }

    /// Per-state demand probability `P(next tick is a demand | state)` —
    /// exposed for diagnostics and tests. Builds the row of `cell` if
    /// no walk has visited it yet.
    pub fn demand_prob(&self, cell: usize) -> f64 {
        let of = |row: &StateRow| row.exit_prob * row.demand_given_exit;
        match &self.rows {
            RowStore::Dense(slots) => of(self.dense_row(slots, cell as u32)),
            RowStore::Hashed(map) => of(&self.hashed_row(map, cell as u32)),
        }
    }

    /// Advances the chain until the next demand or until `budget` ticks
    /// are consumed, whichever comes first, updating `state` in place.
    ///
    /// Equivalent in distribution to calling [`Plant::step`] `budget`
    /// times and stopping at the first demand — but the cost is one
    /// geometric draw plus one **fused** exit draw per *state change*,
    /// not per tick. The exit tick used to spend up to three uniforms
    /// (demand-vs-move coin, alias bucket, alias coin); one uniform now
    /// covers all three where the chain's branch masses allow it,
    /// halving the RNG work per state change.
    pub fn next_demand<R: Rng + ?Sized>(
        &self,
        state: &mut u32,
        budget: u64,
        rng: &mut R,
    ) -> CompiledEvent {
        match &self.rows {
            RowStore::Dense(slots) => {
                self.walk(|cell| self.dense_row(slots, cell), state, budget, rng)
            }
            RowStore::Hashed(map) => {
                self.walk(|cell| self.hashed_row(map, cell), state, budget, rng)
            }
        }
    }

    /// The sampler loop of [`CompiledPlant::next_demand`], over rows
    /// fetched by `row_of`.
    fn walk<T, R>(
        &self,
        row_of: impl Fn(u32) -> T,
        state: &mut u32,
        budget: u64,
        rng: &mut R,
    ) -> CompiledEvent
    where
        T: Deref<Target = StateRow>,
        R: Rng + ?Sized,
    {
        let mut quiet = 0u64;
        let mut row = row_of(*state);
        while quiet < budget {
            if row.exit_prob <= 0.0 {
                // Absorbing quiet state: every remaining tick is quiet.
                return CompiledEvent::Quiet { ticks: budget };
            }
            let left = budget - quiet;
            let dwell = geometric_gap(row.inv_log_hold, left, rng);
            if dwell >= left {
                return CompiledEvent::Quiet { ticks: budget };
            }
            quiet += dwell;
            // The exit tick itself: demand or quiet move, plus the
            // successor alias lookup, all from one uniform.
            let u: f64 = rng.gen();
            let dge = row.demand_given_exit;
            if u < dge {
                let cell = row.demands.pick(branch_uniform(u, 0.0, dge, rng));
                *state = cell;
                return CompiledEvent::Demand {
                    quiet_gap: quiet,
                    demand: self
                        .space
                        .demand_at(cell as usize)
                        .expect("compiled successor in range"),
                };
            }
            quiet += 1;
            *state = row.quiet_moves.pick(branch_uniform(u, dge, 1.0 - dge, rng));
            row = row_of(*state);
        }
        CompiledEvent::Quiet { ticks: budget }
    }

    /// The row of `cell` in the dense store, built on first visit.
    fn dense_row<'a>(&'a self, slots: &'a [OnceLock<StateRow>], cell: u32) -> &'a StateRow {
        slots[cell as usize].get_or_init(|| self.build_row(cell))
    }

    /// The row of `cell` in the hash store, built on first visit. The
    /// lock is held for the lookup or build only, never across sampling.
    fn hashed_row(&self, map: &Mutex<HashMap<u32, Arc<StateRow>>>, cell: u32) -> Arc<StateRow> {
        let mut map = map.lock().expect("row store lock");
        Arc::clone(
            map.entry(cell)
                .or_insert_with(|| Arc::new(self.build_row(cell))),
        )
    }

    /// Builds the row of `cell` at its first visit.
    #[cold]
    fn build_row(&self, cell: u32) -> StateRow {
        let mut builder = self.builder.lock().expect("row builder lock");
        builder.built += 1;
        build_state_row(
            &self.plant,
            &self.space,
            &self.trip_bits,
            cell as usize,
            &mut builder.scratch,
        )
        .unwrap_or_else(|e| panic!("first-visit compile of cell {cell}: {e}"))
    }
}

/// The trip-set bitmap successors are classified with (bit per cell: is
/// this cell a demand when entered?).
fn trip_bitmap(plant: &Plant, space: &GridSpace2D) -> Vec<u64> {
    let trip_set = plant
        .trip_set()
        .expect("plants with transition rows have trip sets");
    let mut trip_bits = vec![0u64; space.cell_count().div_ceil(64)];
    for cell in trip_set.cell_indices(space) {
        trip_bits[cell / 64] |= 1u64 << (cell % 64);
    }
    trip_bits
}

/// Scratch buffers shared by every row build: the plant's row buffer,
/// the demand/quiet split, and the Walker–Vose work areas.
#[derive(Debug, Default)]
struct CompileScratch {
    rows: RowScratch,
    quiet_row: Vec<(u32, f64)>,
    demand_row: Vec<(u32, f64)>,
    work: AliasWork,
}

/// Compiles one state: splits its exact transition row into dwell
/// parameters plus the demand and quiet successor rows, and builds an
/// alias row over each.
fn build_state_row(
    plant: &Plant,
    space: &GridSpace2D,
    trip_bits: &[u64],
    cell: usize,
    scratch: &mut CompileScratch,
) -> Result<StateRow, ProtectionError> {
    let state = space.demand_at(cell).expect("cell index in range");
    assert!(
        plant.transition_row_into(state, &mut scratch.rows),
        "compilable plant has rows for every state"
    );
    let in_trip = |cell: usize| trip_bits[cell / 64] >> (cell % 64) & 1 == 1;
    let mut hold = 0.0;
    let mut p_demand = 0.0;
    let mut p_move = 0.0;
    let mut total = 0.0;
    scratch.quiet_row.clear();
    scratch.demand_row.clear();
    for &(succ, p) in scratch.rows.row() {
        let t = space.index_of(succ).map_err(|e| {
            ProtectionError::InvalidConfig(format!(
                "transition row of {state} leaves the space: {e}"
            ))
        })?;
        total += p;
        if in_trip(t) {
            p_demand += p;
            scratch.demand_row.push((t as u32, p));
        } else if t == cell {
            hold += p;
        } else {
            p_move += p;
            scratch.quiet_row.push((t as u32, p));
        }
    }
    if (total - 1.0).abs() > 1e-9 || total.is_nan() {
        return Err(ProtectionError::InvalidConfig(format!(
            "transition row of {state} has mass {total}, expected 1"
        )));
    }
    let p_exit = p_demand + p_move;
    Ok(StateRow {
        exit_prob: p_exit,
        inv_log_hold: inv_log_survive(hold, p_exit),
        demand_given_exit: if p_exit > 0.0 { p_demand / p_exit } else { 0.0 },
        demands: build_alias_tables(&scratch.demand_row, &mut scratch.work),
        quiet_moves: build_alias_tables(&scratch.quiet_row, &mut scratch.work),
    })
}

/// Smallest branch mass whose conditional uniform is recycled. Below
/// this, `(u − lo) / width` would stretch a `2⁻⁵³`-granular uniform past
/// ~33 bits of resolution, so the sampler pays one fresh draw instead
/// of biasing the alias lookup. Branches this improbable are taken
/// ~once per million state changes, so the fallback costs nothing
/// measurable.
const FUSE_MIN_BRANCH: f64 = 1.0 / (1u64 << 20) as f64;

/// Largest `f64` below 1.0 — keeps a recycled uniform inside `[0, 1)`.
const ONE_BELOW: f64 = 1.0 - f64::EPSILON / 2.0;

/// The conditional uniform of a branch decision: given `u` uniform on
/// `[0, 1)` and the taken branch covering `[lo, lo + width)`,
/// `(u − lo) / width` is again uniform on `[0, 1)` — algebra, not
/// approximation — so the draw that picked the branch is **reused** for
/// the successor alias lookup. Branches too thin to rescale without
/// losing resolution ([`FUSE_MIN_BRANCH`]) draw fresh.
#[inline]
fn branch_uniform<R: Rng + ?Sized>(u: f64, lo: f64, width: f64, rng: &mut R) -> f64 {
    if width >= FUSE_MIN_BRANCH {
        ((u - lo) / width).clamp(0.0, ONE_BELOW)
    } else {
        rng.gen()
    }
}

impl AliasRow {
    /// Draws one successor using a **single** uniform `v ∈ [0, 1)`:
    /// `⌊v·n⌋` picks the bucket and the fractional part `v·n − ⌊v·n⌋` —
    /// independent of the bucket and itself uniform — plays the
    /// accept/alias coin. One draw where Walker–Vose is usually written
    /// with two. Must not be called on an empty row (the caller's branch
    /// probabilities guarantee this).
    #[inline]
    fn pick(&self, v: f64) -> u32 {
        let n = self.accept.len();
        debug_assert!(n > 0, "alias sample from empty successor set");
        debug_assert!((0.0..1.0).contains(&v), "alias uniform out of range: {v}");
        let (cells, aliases) = self.cells.split_at(n);
        if n == 1 {
            return cells[0];
        }
        let scaled = v * n as f64;
        let i = (scaled as usize).min(n - 1);
        let coin = scaled - i as f64;
        if coin < self.accept[i] {
            cells[i]
        } else {
            aliases[i]
        }
    }
}

/// Walker–Vose work areas, reused across builds.
#[derive(Debug, Default)]
struct AliasWork {
    scaled: Vec<f64>,
    small: Vec<usize>,
    large: Vec<usize>,
}

/// Builds the Walker–Vose alias row over `row` (`(cell, weight)` pairs,
/// weights positive but not necessarily normalised). Split entries into
/// under/over-full relative to the uniform share, pairing each
/// under-full entry with an over-full alias.
fn build_alias_tables(row: &[(u32, f64)], work: &mut AliasWork) -> AliasRow {
    let n = row.len();
    // Each bucket starts as its own alias with acceptance 1, so a bucket
    // left unpaired below never reads its alias.
    let mut accept = vec![1.0; n];
    let mut cells: Vec<u32> = row.iter().map(|&(cell, _)| cell).collect();
    cells.extend_from_within(..);
    let total: f64 = row.iter().map(|&(_, w)| w).sum();
    work.scaled.clear();
    work.scaled
        .extend(row.iter().map(|&(_, w)| w * n as f64 / total));
    work.small.clear();
    work.large.clear();
    work.small.extend((0..n).filter(|&i| work.scaled[i] < 1.0));
    work.large.extend((0..n).filter(|&i| work.scaled[i] >= 1.0));
    while let (Some(&s), Some(&l)) = (work.small.last(), work.large.last()) {
        work.small.pop();
        accept[s] = work.scaled[s];
        cells[n + s] = row[l].0;
        work.scaled[l] -= 1.0 - work.scaled[s];
        if work.scaled[l] < 1.0 {
            work.large.pop();
            work.small.push(l);
        }
    }
    // Leftovers (numerical residue) accept unconditionally.
    for &i in work.small.iter().chain(work.large.iter()) {
        accept[i] = 1.0;
    }
    AliasRow {
        accept: accept.into_boxed_slice(),
        cells: cells.into_boxed_slice(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjudicator::Adjudicator;
    use crate::channel::Channel;
    use crate::plant::PlantEvent;
    use crate::simulation::{run_compiled, shard_seed};
    use crate::system::ProtectionSystem;
    use divrel_demand::mapping::FaultRegionMap;
    use divrel_demand::profile::Profile;
    use divrel_demand::region::Region;
    use divrel_demand::version::ProgramVersion;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn markov_plant() -> Plant {
        let space = GridSpace2D::new(30, 30).unwrap();
        Plant::markov_walk(space, Region::rect(0, 0, 3, 3), 2, 0.2).unwrap()
    }

    /// `plant` compiled into the hash store, which `compile` keeps for
    /// spaces past `MAX_COMPILED_CELLS`.
    fn compile_hashed(plant: &Plant) -> Result<Option<CompiledPlant>, ProtectionError> {
        CompiledPlant::compile_into(plant, false)
    }

    /// `plant` compiled into the dense store, then into the hash store.
    fn both_stores(plant: &Plant) -> [CompiledPlant; 2] {
        [
            CompiledPlant::compile(plant).unwrap().unwrap(),
            compile_hashed(plant).unwrap().unwrap(),
        ]
    }

    #[test]
    fn profitability_probe_prefers_sticky_plants() {
        let s = GridSpace2D::new(20, 20).unwrap();
        let trip = Region::rect(0, 0, 2, 2);
        // Fast-mixing trajectory: hold mass 1/25 — not worth compiling.
        let traj = Plant::trajectory(s, trip.clone(), 2).unwrap();
        assert!(!CompiledPlant::is_profitable(&traj));
        // Sticky Markov walk: hold mass ~0.9 — compiled wins.
        let sticky = Plant::markov_walk(s, trip.clone(), 2, 0.1).unwrap();
        assert!(CompiledPlant::is_profitable(&sticky));
        // Barely-moving walk right at move_prob 1: same as trajectory.
        let jumpy = Plant::markov_walk(s, trip, 2, 1.0).unwrap();
        assert!(!CompiledPlant::is_profitable(&jumpy));
        // Rate plants have no rows at all.
        let rate = Plant::with_demand_rate(Profile::uniform(&s), 0.1).unwrap();
        assert!(!CompiledPlant::is_profitable(&rate));
    }

    #[test]
    fn rate_plants_do_not_compile() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let plant = Plant::with_demand_rate(Profile::uniform(&s), 0.1).unwrap();
        assert!(CompiledPlant::compile(&plant).unwrap().is_none());
        assert!(compile_hashed(&plant).unwrap().is_none());
    }

    #[test]
    fn trajectory_and_markov_plants_compile() {
        let s = GridSpace2D::new(20, 20).unwrap();
        let t = Plant::trajectory(s, Region::rect(0, 0, 2, 2), 1).unwrap();
        let c = CompiledPlant::compile(&t).unwrap().unwrap();
        assert_eq!(c.states(), 400);
        assert_eq!(c.initial_state(), 10 * 20 + 10);
        assert!(matches!(c.rows, RowStore::Dense(_)));
        // Only the initial state is built up front.
        assert_eq!(c.compiled_states(), 1);
        assert!((c.occupancy() - 1.0 / 400.0).abs() < 1e-15);
        let m = markov_plant();
        assert!(CompiledPlant::compile(&m).unwrap().is_some());
    }

    #[test]
    fn demand_prob_matches_row_mass_into_trip_set() {
        let plant = markov_plant();
        for c in both_stores(&plant) {
            let space = *plant.space();
            let trip = plant.trip_set().unwrap().clone();
            for cell in [0usize, 5, 62, 200, 465, 899] {
                let state = space.demand_at(cell).unwrap();
                let want: f64 = plant
                    .transition_row(state)
                    .unwrap()
                    .iter()
                    .filter(|(d, _)| trip.contains(*d))
                    .map(|&(_, p)| p)
                    .sum();
                assert!(
                    (c.demand_prob(cell) - want).abs() < 1e-12,
                    "cell {cell}: {} vs {want}",
                    c.demand_prob(cell)
                );
            }
        }
    }

    #[test]
    fn next_demand_respects_budget_and_lands_in_trip_set() {
        let plant = markov_plant();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        let trip = plant.trip_set().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut state = c.initial_state();
        let mut budget_hits = 0;
        let mut demands = 0;
        for _ in 0..200 {
            match c.next_demand(&mut state, 3_000, &mut rng) {
                CompiledEvent::Demand { quiet_gap, demand } => {
                    assert!(quiet_gap < 3_000);
                    assert!(trip.contains(demand));
                    assert_eq!(
                        state as usize,
                        c.space().index_of(demand).unwrap(),
                        "state must follow the demand"
                    );
                    demands += 1;
                }
                CompiledEvent::Quiet { ticks } => {
                    assert_eq!(ticks, 3_000);
                    budget_hits += 1;
                }
            }
        }
        assert!(demands > 0, "compiled sampler never produced a demand");
        // With a 16-cell trip set on 900 cells and slow mixing, some
        // 3000-tick windows should be demand-free too.
        assert!(budget_hits > 0, "budget cap never exercised");
        // Zero budget is all-quiet.
        assert_eq!(
            c.next_demand(&mut state, 0, &mut rng),
            CompiledEvent::Quiet { ticks: 0 }
        );
    }

    #[test]
    fn dense_and_hash_stores_emit_bit_identical_streams() {
        // On any plant, the same seed must produce the exact same event
        // sequence from either store — builds consume no RNG and both
        // stores hold rows from the same build.
        let plants = [
            markov_plant(),
            Plant::markov_walk(
                GridSpace2D::new(57, 23).unwrap(),
                Region::rect(0, 0, 4, 4),
                3,
                0.03,
            )
            .unwrap(),
            Plant::trajectory(
                GridSpace2D::new(25, 25).unwrap(),
                Region::rect(0, 0, 2, 2),
                2,
            )
            .unwrap(),
        ];
        for (pi, plant) in plants.iter().enumerate() {
            let [dense, hashed] = both_stores(plant);
            assert!(matches!(dense.rows, RowStore::Dense(_)));
            assert!(matches!(hashed.rows, RowStore::Hashed(_)));
            assert_eq!(dense.initial_state(), hashed.initial_state());
            for seed in [1u64, 7, 1234] {
                let mut rng_d = StdRng::seed_from_u64(seed);
                let mut rng_h = StdRng::seed_from_u64(seed);
                let mut st_d = dense.initial_state();
                let mut st_h = hashed.initial_state();
                for step in 0..400 {
                    let ev_d = dense.next_demand(&mut st_d, 2_000, &mut rng_d);
                    let ev_h = hashed.next_demand(&mut st_h, 2_000, &mut rng_h);
                    assert_eq!(
                        ev_d, ev_h,
                        "plant {pi} seed {seed} event {step}: stores diverged"
                    );
                    assert_eq!(st_d, st_h, "plant {pi} seed {seed} event {step}: state");
                }
            }
            // Both stores built exactly the states the walks visited.
            assert_eq!(dense.compiled_states(), hashed.compiled_states());
            assert!(dense.compiled_states() <= dense.states());
            assert!(dense.occupancy() > 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn hash_store_matches_dense_on_arbitrary_plants(
            nx in 2u32..34,
            ny in 2u32..34,
            step in 1u32..4,
            move_prob in 0.01..=1.0f64,
            trip in (0u32..6, 0u32..6),
            seed in 0u64..u64::MAX,
        ) {
            let space = GridSpace2D::new(nx, ny).unwrap();
            let region = Region::rect(0, 0, trip.0.min(nx - 1), trip.1.min(ny - 1));
            let plant = Plant::markov_walk(space, region, step, move_prob).unwrap();
            let [dense, hashed] = both_stores(&plant);
            let mut rng_d = StdRng::seed_from_u64(seed);
            let mut rng_h = StdRng::seed_from_u64(seed);
            let mut st_d = dense.initial_state();
            let mut st_h = hashed.initial_state();
            for _ in 0..60 {
                let ev_d = dense.next_demand(&mut st_d, 700, &mut rng_d);
                let ev_h = hashed.next_demand(&mut st_h, 700, &mut rng_h);
                prop_assert_eq!(ev_d, ev_h);
                prop_assert_eq!(st_d, st_h);
            }
        }
    }

    #[test]
    fn clone_preserves_rows_and_stream() {
        let plant = markov_plant();
        for c in both_stores(&plant) {
            // Warm a few states, then clone: the clone must continue the
            // exact same stream from the same rows.
            let mut rng = StdRng::seed_from_u64(5);
            let mut state = c.initial_state();
            for _ in 0..20 {
                c.next_demand(&mut state, 1_000, &mut rng);
            }
            let cloned = c.clone();
            assert_eq!(cloned.compiled_states(), c.compiled_states());
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let mut sa = c.initial_state();
            let mut sb = cloned.initial_state();
            for _ in 0..100 {
                assert_eq!(
                    c.next_demand(&mut sa, 500, &mut rng_a),
                    cloned.next_demand(&mut sb, 500, &mut rng_b)
                );
            }
        }
    }

    #[test]
    fn racing_first_visits_build_each_row_once() {
        // Four shards start together on one cold compile, so their walks
        // race to build the rows around the shared initial state. Each
        // log must equal its shard run alone, and the rows built must
        // equal those a one-after-another run builds: none twice, none
        // missed.
        let space = GridSpace2D::new(48, 48).unwrap();
        let plant = Plant::markov_walk(space, Region::rect(0, 0, 5, 5), 2, 0.3).unwrap();
        let regions = vec![Region::rect(0, 0, 3, 3), Region::rect(2, 2, 5, 5)];
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            FaultRegionMap::new(space, regions).unwrap(),
        )
        .unwrap();
        let shard = |c: &CompiledPlant, i: usize| {
            let mut rng = StdRng::seed_from_u64(shard_seed(41, i));
            run_compiled(c, &system, 60_000, &mut rng).unwrap()
        };
        for (store, dense) in [("dense", true), ("hash", false)] {
            let compile = || CompiledPlant::compile_into(&plant, dense).unwrap().unwrap();
            let alone: Vec<_> = (0..4).map(|i| shard(&compile(), i)).collect();
            let in_turn = compile();
            for i in 0..4 {
                shard(&in_turn, i);
            }
            let shared = compile();
            let barrier = std::sync::Barrier::new(4);
            let raced: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|i| {
                        let (shared, barrier) = (&shared, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            shard(shared, i)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(raced, alone, "{store} store");
            assert!(in_turn.compiled_states() > 100);
            assert_eq!(
                shared.compiled_states(),
                in_turn.compiled_states(),
                "{store} store"
            );
        }
    }

    #[test]
    fn a_dense_slot_takes_at_most_96_bytes() {
        // `MAX_COMPILED_CELLS` is sized by this footprint.
        assert!(std::mem::size_of::<OnceLock<StateRow>>() <= 96);
    }

    #[test]
    fn huge_spaces_take_the_hash_store_and_sample() {
        // 2080 × 2080 = 4,326,400 cells: just past MAX_COMPILED_CELLS
        // (4,194,304), so `compile` must pick the hash store — and a
        // slow-mixing walk must ride it without enumerating the space.
        let space = GridSpace2D::new(2080, 2080).unwrap();
        assert!(space.cell_count() > MAX_COMPILED_CELLS);
        let plant = Plant::markov_walk(space, Region::rect(0, 0, 40, 40), 2, 0.02).unwrap();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        assert!(matches!(c.rows, RowStore::Hashed(_)));
        assert_eq!(c.states(), 4_326_400);
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = c.initial_state();
        let mut quiet_total = 0u64;
        for _ in 0..50 {
            match c.next_demand(&mut state, 100_000, &mut rng) {
                CompiledEvent::Quiet { ticks } => quiet_total += ticks,
                CompiledEvent::Demand { quiet_gap, .. } => quiet_total += quiet_gap,
            }
        }
        assert!(quiet_total > 0);
        // The chain visited a vanishing fraction of the space.
        assert!(
            c.compiled_states() < 100_000,
            "hash store built {} states",
            c.compiled_states()
        );
        assert!(c.occupancy() < 0.05);
    }

    #[test]
    fn degenerate_single_cell_space_demands_every_tick() {
        // A 1×1 space with the trip set on its only cell: every tick
        // re-enters the trip set, so the compiled demand gap is always 0.
        let s = GridSpace2D::new(1, 1).unwrap();
        let plant = Plant::markov_walk(s, Region::rect(0, 0, 0, 0), 1, 1.0).unwrap();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut state = c.initial_state();
        match c.next_demand(&mut state, 10, &mut rng) {
            CompiledEvent::Demand { quiet_gap, .. } => assert_eq!(quiet_gap, 0),
            other => panic!("expected an immediate demand, got {other:?}"),
        }
    }

    #[test]
    fn interval_distribution_matches_stepwise_simulation() {
        // The compiled sampler and the tick loop are the same process:
        // compare mean demand interval over many demands.
        let plant = markov_plant();
        let c = CompiledPlant::compile(&plant).unwrap().unwrap();
        let demands_wanted = 4_000;

        let mut rng = StdRng::seed_from_u64(10);
        let mut state = c.initial_state();
        let mut compiled_gaps = Vec::with_capacity(demands_wanted);
        while compiled_gaps.len() < demands_wanted {
            if let CompiledEvent::Demand { quiet_gap, .. } =
                c.next_demand(&mut state, u64::MAX, &mut rng)
            {
                compiled_gaps.push(quiet_gap as f64);
            }
        }

        let mut rng = StdRng::seed_from_u64(11);
        let mut s = plant.initial_state();
        let mut stepwise_gaps = Vec::with_capacity(demands_wanted);
        let mut gap = 0u64;
        while stepwise_gaps.len() < demands_wanted {
            let (next, ev) = plant.step(s, &mut rng);
            s = next;
            match ev {
                PlantEvent::Quiet => gap += 1,
                PlantEvent::Demand(_) => {
                    stepwise_gaps.push(gap as f64);
                    gap = 0;
                }
            }
        }

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mc, ms) = (mean(&compiled_gaps), mean(&stepwise_gaps));
        // Heavy-tailed-ish intervals: compare means within 10%.
        assert!(
            (mc - ms).abs() / ms < 0.1,
            "compiled mean gap {mc} vs stepwise {ms}"
        );
    }

    #[test]
    fn alias_table_reproduces_weights() {
        let mut work = AliasWork::default();
        let table = build_alias_tables(&[(0, 0.1), (1, 0.3), (2, 0.6)], &mut work);
        assert!(build_alias_tables(&[], &mut work).accept.is_empty());
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[table.pick(rng.gen()) as usize] += 1;
        }
        for (i, want) in [0.1, 0.3, 0.6].iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - want).abs() < 0.01, "cell {i}: {freq} vs {want}");
        }
    }

    #[test]
    fn single_uniform_alias_reproduces_weights_exactly_on_a_grid() {
        // Sweep a dense uniform grid through `pick`: the measure of
        // v-values landing on each cell must equal the cell's weight to
        // grid resolution — the single-draw lookup is exact, not
        // approximate.
        let weights = [0.15, 0.05, 0.5, 0.3];
        let mut work = AliasWork::default();
        let table = build_alias_tables(
            &[
                (0, weights[0]),
                (1, weights[1]),
                (2, weights[2]),
                (3, weights[3]),
            ],
            &mut work,
        );
        let grid = 400_000usize;
        let mut counts = [0u64; 4];
        for k in 0..grid {
            let v = (k as f64 + 0.5) / grid as f64;
            counts[table.pick(v) as usize] += 1;
        }
        for (i, want) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / grid as f64;
            assert!(
                (freq - want).abs() < 2e-5,
                "cell {i}: measure {freq} vs weight {want}"
            );
        }
        // The extreme uniforms stay in range.
        let _ = table.pick(0.0);
        let _ = table.pick(ONE_BELOW);
    }

    #[test]
    fn branch_uniform_rescales_wide_branches_and_redraws_thin_ones() {
        let mut rng = StdRng::seed_from_u64(9);
        // Wide branch: pure algebra, no draw, linear map onto [0, 1).
        let v = branch_uniform(0.25, 0.2, 0.4, &mut rng);
        assert!((v - 0.125).abs() < 1e-15);
        let v = branch_uniform(0.599_999, 0.2, 0.4, &mut rng);
        assert!(v < 1.0);
        assert!((0.0..1.0).contains(&branch_uniform(0.2, 0.2, 0.4, &mut rng)));
        // Rounding at the top edge clamps inside [0, 1).
        assert!(branch_uniform(0.6, 0.2, 0.4, &mut rng) < 1.0);
        // Thin branch: the recycled uniform would have too little
        // resolution, so a fresh draw is taken instead (the two calls
        // advance the stream — their outputs differ).
        let thin = FUSE_MIN_BRANCH / 4.0;
        let a = branch_uniform(thin / 2.0, 0.0, thin, &mut rng);
        let b = branch_uniform(thin / 2.0, 0.0, thin, &mut rng);
        assert_ne!(a.to_bits(), b.to_bits(), "thin branch must redraw");
        assert!((0.0..1.0).contains(&a) && (0.0..1.0).contains(&b));
    }
}
