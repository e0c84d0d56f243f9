//! Microbenchmark rows for the fast paths, each against the baseline it
//! replaced.
//!
//! Usage: `bench OUT.json`. Prints one line per row, with its verdict
//! when the row is gated, writes the schema-2 export to `OUT.json` (see
//! [`divrel_bench::perf`]) and exits 1 if any gated row misses its gate.
//!
//! Every row checks that its two sides agree before it measures them —
//! bit for bit where both compute the same thing — so a speedup never
//! hides a changed result. The rows, by group:
//!
//! * `protection/*`: the compiled fault-tree table against a per-cell
//!   tree walk (gated ≥ 1×); the Markov demand compiler against the tick
//!   loop, including its hash store on a 16.7M-cell plant (gated
//!   ≥ 10×); the fused exit draw against a reconstruction of the
//!   four-draw sampler it replaced; a sharded campaign against one
//!   thread.
//! * `sweep/*`: whole experiment grids at one thread against all cores,
//!   and the demand trials posterior-driven allocation needs to close
//!   every credible bound against a fixed uniform schedule (samples,
//!   gated ≥ 3×).
//! * `scenario/*`: a workload declared as a spec against the direct
//!   call; the gate allows 10% overhead.
//! * `dist/*`: a persistent 2-process fleet against in-process
//!   execution (gated ≥ 1.5× on hosts with at least 4 cores, ≥ 0.1×
//!   elsewhere), the lease journal's cost (15% allowed), and a warm
//!   worker's cached-spec handshake against a cold worker (gated ≥ 1.5×).
//! * `rare_event/*`: the samples the tilted and stratified estimators
//!   need for 10% relative error on a ~2e-7 PFD, against the exact need
//!   of naive Monte Carlo (the tilt gated ≥ 50×).
//!
//! `BENCH_pr1.json` … `BENCH_pr10.json` hold earlier exports, in the
//! schema-1 form and with rows since retired.

use divrel_bench::adaptive::{drive, AllocationStrategy, RefinementSpec};
use divrel_bench::context::default_sweep_threads;
use divrel_bench::job::in_process_rounds;
use divrel_bench::perf::{Bench, Row};
use divrel_bench::scenario::{ExperimentSpec, Scenario};
use divrel_bench::sweep::{forced_sweep, kl_sweep, pfd_sample_sweep};
use divrel_demand::mapping::FaultRegionMap;
use divrel_demand::profile::Profile;
use divrel_demand::region::Region;
use divrel_demand::space::GridSpace2D;
use divrel_demand::version::ProgramVersion;
use divrel_devsim::experiment::MonteCarloExperiment;
use divrel_devsim::process::FaultIntroduction;
use divrel_devsim::rare::{RareEstimator, RareEventExperiment};
use divrel_model::shared::SharedCauseModel;
use divrel_model::spec::FaultModelSpec;
use divrel_model::FaultModel;
use divrel_numerics::sweep::SeedSpec;
use divrel_protection::adjudicator::Adjudicator;
use divrel_protection::channel::Channel;
use divrel_protection::compiler::CompiledPlant;
use divrel_protection::plant::Plant;
use divrel_protection::simulation;
use divrel_protection::system::ProtectionSystem;
use divrel_protection::tree::FaultTree;
use divrel_protection::OperationLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn model_of_size(n: usize) -> FaultModel {
    let ps: Vec<f64> = (0..n)
        .map(|i| 0.01 + 0.3 * ((i % 17) as f64 / 16.0))
        .collect();
    let qs: Vec<f64> = (0..n).map(|_| 0.9 / n as f64).collect();
    FaultModel::from_params(&ps, &qs).expect("valid parameters")
}

/// Channels A and B, one overlapping corner fault each, voting
/// 1-out-of-2 on `space`: the system every Markov-plant row protects.
fn pair_system(space: GridSpace2D) -> ProtectionSystem {
    let regions = vec![Region::rect(0, 0, 2, 2), Region::rect(1, 1, 3, 3)];
    let map = FaultRegionMap::new(space, regions).expect("valid map");
    ProtectionSystem::new(
        vec![
            Channel::new("A", ProgramVersion::new(vec![true, false])),
            Channel::new("B", ProgramVersion::new(vec![false, true])),
        ],
        Adjudicator::OneOutOfN,
        map,
    )
    .expect("valid system")
}

/// A fresh generator per call, seeded `start + 1`, `start + 2`, …
fn reseeded(start: u64) -> impl FnMut() -> StdRng {
    let mut seed = start;
    move || {
        seed += 1;
        StdRng::seed_from_u64(seed)
    }
}

fn main() {
    let Some(out_path) = std::env::args_os().nth(1) else {
        eprintln!("usage: bench OUT.json");
        std::process::exit(2);
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut bench = Bench::new(host_cores);
    tree_row(&mut bench);
    markov_rows(&mut bench, host_cores.min(8));
    sweep_rows(&mut bench);
    scenario_rows(&mut bench);
    fused_row(&mut bench);
    dist_rows(&mut bench, host_cores);
    rare_event_rows(&mut bench);
    adaptive_row(&mut bench);
    sparse_row(&mut bench);
    let out_path = std::path::Path::new(&out_path);
    if let Err(e) = bench.finish(out_path) {
        eprintln!("\nbench: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {}: every gate met", out_path.display());
}

/// A nested fault-tree voter (3-of-8 threshold OR an 8-wide AND) over
/// 16 channels: the legacy side re-derives the exact PFD by walking the
/// tree on every demand cell over the per-channel failure tables; the
/// fast side reads the one-bit-per-cell system table the constructor
/// compiles the tree into.
fn tree_row(bench: &mut Bench) {
    let space = GridSpace2D::new(200, 200).expect("valid space");
    let profile = Profile::uniform(&space);
    let regions: Vec<Region> = (0..32)
        .map(|i| {
            let x = (i * 6) as u32 % 180;
            let y = (i * 11) as u32 % 180;
            Region::rect(x, y, x + 12, y + 12)
        })
        .collect();
    let map = FaultRegionMap::new(space, regions).expect("valid map");
    let n_ch = 16usize;
    let channels: Vec<Channel> = (0..n_ch)
        .map(|i| {
            let faults = [(i * 2) % 32, (i * 7 + 3) % 32];
            Channel::new(
                format!("C{i}"),
                ProgramVersion::from_fault_indices(32, &faults).expect("in range"),
            )
        })
        .collect();
    let tree = FaultTree::AnyOf(vec![
        FaultTree::k_of_first_n(3, 8),
        FaultTree::AllOf((8..n_ch).map(FaultTree::Channel).collect()),
    ]);
    let sys = ProtectionSystem::with_tree(channels, tree.clone(), map).expect("valid system");
    let cells = space.cell_count();
    let walk_pfd = || {
        let mut failing = 0usize;
        let mut trips = vec![false; n_ch];
        for cell in 0..cells {
            for (ch, trip) in trips.iter_mut().enumerate() {
                *trip = !sys.channel_fails_cell(ch, cell);
            }
            if !tree.decide(&trips) {
                failing += 1;
            }
        }
        failing as f64 / cells as f64
    };
    // Cell-level bit-identity between the walk and the compiled table,
    // then the derived PFDs.
    let mut trips = vec![false; n_ch];
    for cell in 0..cells {
        for (ch, trip) in trips.iter_mut().enumerate() {
            *trip = !sys.channel_fails_cell(ch, cell);
        }
        assert_eq!(
            !sys.system_fails_cell(cell),
            tree.decide(&trips),
            "compiled table disagrees with tree walk at cell {cell}"
        );
    }
    let fast = sys.true_pfd(&profile).expect("computes");
    assert!(
        (walk_pfd() - fast).abs() < 1e-12,
        "tree-walk PFD {} vs compiled {}",
        walk_pfd(),
        fast
    );
    bench.push(
        Row::time(
            "protection/tree_compiled_vs_walk/16ch_200x200",
            || {
                black_box(walk_pfd());
            },
            || {
                black_box(sys.true_pfd(&profile).expect("computes"));
            },
        )
        .gate(1.0),
    );
}

/// A sticky Markov plant (operating points persist ~1/move ticks) with
/// a rare-demand trip set: the tick loop (`run_stepwise`, one RNG
/// decision per tick) against the compiled demand sampler (geometric
/// dwells and alias jumps, one iteration per state change); then a
/// 2M-step campaign at one thread against `threads`.
fn markov_rows(bench: &mut Bench, threads: usize) {
    let space = GridSpace2D::new(100, 100).expect("valid space");
    let trip = Region::rect(0, 0, 4, 4);
    let system = pair_system(space);
    for (label, move_prob, steps) in [
        ("move0.002/400k", 0.002, 400_000u64),
        ("move0.01/400k", 0.01, 400_000u64),
        ("move0.1/400k", 0.1, 400_000u64),
    ] {
        let plant = Plant::markov_walk(space, trip.clone(), 2, move_prob).expect("valid plant");
        let compiled = CompiledPlant::compile(&plant)
            .expect("compilable")
            .expect("markov plants compile");
        let (mut rng_l, mut rng_f) = (reseeded(500), reseeded(500));
        bench.push(Row::time(
            &format!("protection/markov_run/{label}"),
            || {
                black_box(
                    simulation::run_stepwise(&plant, &system, steps, &mut rng_l()).expect("runs"),
                );
            },
            || {
                black_box(
                    simulation::run_compiled(&compiled, &system, steps, &mut rng_f())
                        .expect("runs"),
                );
            },
        ));
    }

    // The speedup tracks the host's core count (≈1× on one core).
    let plant = Plant::markov_walk(space, trip, 2, 0.1).expect("valid plant");
    let steps = 2_000_000u64;
    let (mut seed_l, mut seed_f) = (700u64, 700u64);
    bench.push(Row::time(
        &format!("protection/run_sharded/{threads}threads/2M"),
        || {
            seed_l += 1;
            black_box(simulation::run_sharded(&plant, &system, steps, 1, seed_l).expect("runs"));
        },
        || {
            seed_f += 1;
            black_box(
                simulation::run_sharded(&plant, &system, steps, threads, seed_f).expect("runs"),
            );
        },
    ));
}

/// Whole experiment grids on the deterministic sweep engine, cell by
/// cell on one worker against all cores. The reduced statistics are
/// bit-identical either way (asserted first), so the rows measure
/// scheduling alone and record ≈1× on single-core hosts.
fn sweep_rows(bench: &mut Bench) {
    let threads = default_sweep_threads();

    // The 10k-pair devsim Monte-Carlo grid.
    let exp = MonteCarloExperiment::new(model_of_size(32), FaultIntroduction::Independent)
        .samples(10_000)
        .seed(1);
    let serial = exp.clone().threads(1).run().expect("runs");
    let sharded = exp.clone().threads(threads).run().expect("runs");
    assert_eq!(serial, sharded, "sweep results diverged across threads");
    bench.push(Row::time(
        &format!("sweep/mc_10k_pairs/{threads}threads"),
        || {
            black_box(exp.clone().threads(1).run().expect("runs"));
        },
        || {
            black_box(exp.clone().threads(threads).run().expect("runs"));
        },
    ));

    // The E16 Knight–Leveson replication grid.
    let kl_model =
        divrel_bench::experiments::knight_leveson::student_experiment_model().expect("valid model");
    assert_eq!(
        kl_sweep(&kl_model, 48, 2001, 1).expect("runs"),
        kl_sweep(&kl_model, 48, 2001, threads).expect("runs"),
        "KL sweep diverged across threads"
    );
    bench.push(Row::time(
        &format!("sweep/knight_leveson/{threads}threads"),
        || {
            black_box(kl_sweep(&kl_model, 48, 2001, 1).expect("runs"));
        },
        || {
            black_box(kl_sweep(&kl_model, 48, 2001, threads).expect("runs"));
        },
    ));

    // The E17 forced-diversity random-process grid.
    assert_eq!(
        forced_sweep(2_000, 2001, 1).expect("runs"),
        forced_sweep(2_000, 2001, threads).expect("runs"),
        "forced sweep diverged across threads"
    );
    bench.push(Row::time(
        &format!("sweep/forced_diversity/{threads}threads"),
        || {
            black_box(forced_sweep(2_000, 2001, 1).expect("runs"));
        },
        || {
            black_box(forced_sweep(2_000, 2001, threads).expect("runs"));
        },
    ));

    // Raw PFD sample assembly over the sharded grid.
    let m32 = model_of_size(32);
    let samples = |t: usize| {
        pfd_sample_sweep(&m32, FaultIntroduction::Independent, 10_000, 5, t).expect("runs")
    };
    assert_eq!(
        samples(1),
        samples(threads),
        "PFD sample sweep diverged across threads"
    );
    bench.push(Row::time(
        &format!("sweep/pfd_samples_10k/{threads}threads"),
        || {
            black_box(samples(1));
        },
        || {
            black_box(samples(threads));
        },
    ));
}

/// Spec-compiled execution against the direct experiment call: the
/// same workload and the same bits (asserted first), so each row
/// measures the declarative layer's overhead alone (≤ 10% allowed).
fn scenario_rows(bench: &mut Bench) {
    let threads = default_sweep_threads();
    let gate = 1.0 / 1.10;

    // The E17 forced-diversity grid as a spec.
    let forced_scn = Scenario {
        name: "bench-forced".into(),
        seed: SeedSpec::new(2001),
        experiment: ExperimentSpec::ForcedDiversity { trials: 2_000 },
    };
    let direct = forced_sweep(2_000, 2001, threads).expect("runs");
    let via_spec = forced_scn.run(threads).expect("runs");
    assert_eq!(
        via_spec.as_forced().expect("forced outcome"),
        &direct,
        "scenario-compiled forced sweep diverged from the direct call"
    );
    bench.push(
        Row::time(
            &format!("scenario/forced_2k/{threads}threads"),
            || {
                black_box(forced_sweep(2_000, 2001, threads).expect("runs"));
            },
            || {
                black_box(forced_scn.run(threads).expect("runs"));
            },
        )
        .gate(gate),
    );

    // The Monte-Carlo driver as a spec.
    let mc_model = model_of_size(32);
    let mc_scn = Scenario {
        name: "bench-mc".into(),
        seed: SeedSpec::new(1),
        experiment: ExperimentSpec::MonteCarlo {
            model: FaultModelSpec::from_model(&mc_model),
            introduction: FaultIntroduction::Independent,
            samples: 10_000,
        },
    };
    let direct_exp = MonteCarloExperiment::new(mc_model, FaultIntroduction::Independent)
        .samples(10_000)
        .seed(1)
        .threads(threads);
    assert_eq!(
        mc_scn
            .run(threads)
            .expect("runs")
            .as_monte_carlo()
            .expect("MC outcome"),
        &direct_exp.run().expect("runs"),
        "scenario-compiled MC driver diverged from the direct call"
    );
    bench.push(
        Row::time(
            &format!("scenario/mc_10k/{threads}threads"),
            || {
                black_box(direct_exp.clone().run().expect("runs"));
            },
            || {
                black_box(mc_scn.run(threads).expect("runs"));
            },
        )
        .gate(gate),
    );
}

/// One state's Walker–Vose table (cells, acceptance masses, in-segment
/// alias targets), built like the unfused sampler's.
struct AliasRow {
    cells: Vec<u32>,
    accept: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasRow {
    fn build(row: &[(u32, f64)]) -> Self {
        let n = row.len();
        let total: f64 = row.iter().map(|&(_, w)| w).sum();
        let mut scaled: Vec<f64> = row
            .iter()
            .map(|&(_, w)| w * n as f64 / total.max(f64::MIN_POSITIVE))
            .collect();
        let mut alias = vec![0u32; n];
        let mut accept = vec![1.0f64; n];
        let mut small: Vec<usize> = (0..n).filter(|&i| scaled[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..n).filter(|&i| scaled[i] >= 1.0).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            accept[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            accept[i] = 1.0;
        }
        AliasRow {
            cells: row.iter().map(|&(c, _)| c).collect(),
            accept,
            alias,
        }
    }

    /// The two-draw lookup: bucket (when > 1 entry), then an acceptance
    /// coin.
    fn sample(&self, rng: &mut StdRng) -> u32 {
        let n = self.cells.len();
        let i = if n == 1 { 0 } else { rng.gen_range(0..n) };
        let coin: f64 = rng.gen();
        let k = if coin < self.accept[i] {
            i
        } else {
            self.alias[i] as usize
        };
        self.cells[k]
    }
}

/// The compiled sampler before its exit draws were fused: the same
/// analytic decomposition, spending a dwell draw, a branch coin, a
/// bucket and an acceptance coin per exit.
struct UnfusedCompiled {
    exit_prob: Vec<f64>,
    inv_log_hold: Vec<f64>,
    demand_given_exit: Vec<f64>,
    demand_succ: Vec<AliasRow>,
    quiet_succ: Vec<AliasRow>,
    start: u32,
}

impl UnfusedCompiled {
    fn compile(plant: &Plant) -> Self {
        let space = *plant.space();
        let trip = plant
            .trip_set()
            .expect("markov plants have trip sets")
            .clone();
        let cells = space.cell_count();
        let mut exit_prob = Vec::with_capacity(cells);
        let mut inv_log_hold = Vec::with_capacity(cells);
        let mut demand_given_exit = Vec::with_capacity(cells);
        let mut demand_succ = Vec::with_capacity(cells);
        let mut quiet_succ = Vec::with_capacity(cells);
        for cell in 0..cells {
            let state = space.demand_at(cell).expect("cell in range");
            let row = plant.transition_row(state).expect("enumerable plant");
            let (mut hold, mut p_demand, mut p_move) = (0.0f64, 0.0f64, 0.0f64);
            let (mut ds, mut qs) = (Vec::new(), Vec::new());
            for (succ, p) in row {
                let t = space.index_of(succ).expect("successor in space");
                if trip.contains(succ) {
                    p_demand += p;
                    ds.push((t as u32, p));
                } else if t == cell {
                    hold += p;
                } else {
                    p_move += p;
                    qs.push((t as u32, p));
                }
            }
            let p_exit = p_demand + p_move;
            exit_prob.push(p_exit);
            inv_log_hold.push(if hold > 0.0 { hold.ln().recip() } else { 0.0 });
            demand_given_exit.push(if p_exit > 0.0 { p_demand / p_exit } else { 0.0 });
            demand_succ.push(AliasRow::build(&ds));
            quiet_succ.push(AliasRow::build(&qs));
        }
        let start = space
            .index_of(plant.initial_state())
            .expect("initial state in space") as u32;
        UnfusedCompiled {
            exit_prob,
            inv_log_hold,
            demand_given_exit,
            demand_succ,
            quiet_succ,
            start,
        }
    }

    /// Dwell, branch coin, bucket (when > 1 successor), accept coin.
    fn run(&self, system: &ProtectionSystem, steps: u64, rng: &mut StdRng) -> OperationLog {
        let mut log = OperationLog::new(system.channels().len());
        let mut state = self.start as usize;
        let mut remaining = steps;
        'run: while remaining > 0 {
            if self.exit_prob[state] <= 0.0 {
                log.record_quiet_n(remaining);
                break;
            }
            let ilh = self.inv_log_hold[state];
            let dwell = if ilh == 0.0 {
                0
            } else {
                let u: f64 = 1.0 - rng.gen::<f64>();
                let gap = u.ln() * ilh;
                if gap >= remaining as f64 {
                    log.record_quiet_n(remaining);
                    break 'run;
                }
                gap as u64
            };
            if dwell >= remaining {
                log.record_quiet_n(remaining);
                break;
            }
            log.record_quiet_n(dwell);
            remaining -= dwell + 1;
            let coin: f64 = rng.gen();
            let (table, is_demand) = if coin < self.demand_given_exit[state] {
                (&self.demand_succ[state], true)
            } else {
                (&self.quiet_succ[state], false)
            };
            state = table.sample(rng) as usize;
            if is_demand {
                let d = system
                    .map()
                    .space()
                    .demand_at(state)
                    .expect("successor in space");
                let (tripped, mask) = system.respond_bits(d).expect("in space");
                log.record_demand_bits(tripped, mask);
            }
        }
        log
    }
}

/// The compiled sampler's exit tick once spent up to three uniforms
/// (demand-vs-move coin, successor bucket, accept coin) on top of the
/// dwell draw; one recycled uniform now covers all three. The legacy
/// side is [`UnfusedCompiled`].
fn fused_row(bench: &mut Bench) {
    let space = GridSpace2D::new(100, 100).expect("valid space");
    let system = pair_system(space);
    let steps = 400_000u64;
    let plant = Plant::markov_walk(space, Region::rect(0, 0, 4, 4), 2, 0.01).expect("valid plant");
    let unfused = UnfusedCompiled::compile(&plant);
    let compiled = CompiledPlant::compile(&plant)
        .expect("compilable")
        .expect("markov plants compile");
    // Sanity: same process, so the two samplers must see statistically
    // similar demand traffic. The measured plant is slow-mixing (huge
    // per-run hitting-time variance), so the check runs on a
    // fast-mixing sibling and averages seeds.
    {
        let sanity_space = GridSpace2D::new(40, 40).expect("valid space");
        let sanity_plant = Plant::markov_walk(sanity_space, Region::rect(0, 0, 7, 7), 2, 0.15)
            .expect("valid plant");
        let sanity_map =
            FaultRegionMap::new(sanity_space, vec![Region::rect(0, 0, 2, 2)]).expect("map");
        let sanity_system = ProtectionSystem::new(
            vec![Channel::new("A", ProgramVersion::new(vec![true]))],
            Adjudicator::OneOutOfN,
            sanity_map,
        )
        .expect("valid system");
        let sanity_unfused = UnfusedCompiled::compile(&sanity_plant);
        let sanity_compiled = CompiledPlant::compile(&sanity_plant)
            .expect("compilable")
            .expect("markov plants compile");
        let (mut demands_l, mut demands_f) = (0.0f64, 0.0f64);
        for seed in 40..45u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            demands_l += sanity_unfused
                .run(&sanity_system, 2_000_000, &mut rng)
                .demands() as f64;
            let mut rng = StdRng::seed_from_u64(seed + 100);
            demands_f +=
                simulation::run_compiled(&sanity_compiled, &sanity_system, 2_000_000, &mut rng)
                    .expect("runs")
                    .demands() as f64;
        }
        assert!(
            (demands_l - demands_f).abs() / demands_f < 0.3,
            "unfused reconstruction drifted: {demands_l} vs {demands_f} demands"
        );
    }
    let (mut rng_l, mut rng_f) = (reseeded(900), reseeded(900));
    bench.push(Row::time(
        "protection/markov_fused/move0.01/400k",
        || {
            black_box(unfused.run(&system, steps, &mut rng_l()));
        },
        || {
            black_box(
                simulation::run_compiled(&compiled, &system, steps, &mut rng_f()).expect("runs"),
            );
        },
    ));
}

/// One spec executed in process against a coordinator over a
/// **persistent** 2-process TCP fleet: the workers are spawned once
/// (`scenario_run --worker ADDR --persist --threads 2`), reconnect after
/// every coordinator run and keep their compiled-spec caches warm, so
/// each measured iteration pays what a re-run of a committed spec pays
/// (hash handshake, binary result frames, adaptive leases), not process
/// spawn and spec compile. Both sides are bit-identical (asserted
/// first). Without the sibling `scenario_run` binary the fleet falls
/// back to in-process pipe workers sharing a warm [`SpecCache`].
///
/// [`SpecCache`]: divrel_bench::dist::SpecCache
fn dist_rows(bench: &mut Bench, host_cores: usize) {
    use divrel_bench::dist::{Coordinator, JsonLines, SpecCache, Transport, Worker};
    use divrel_bench::scenario::ScenarioOutcome;
    use divrel_bench::Context;
    use std::net::TcpListener;

    struct TcpFleet {
        listener: TcpListener,
        children: Vec<std::process::Child>,
    }

    impl TcpFleet {
        /// Spawns `n` persistent sibling workers against a fresh
        /// loopback listener. The workers outlive individual
        /// coordinator runs: after each run they reconnect and the
        /// connection waits in the listener backlog.
        fn spawn(n: usize) -> Option<TcpFleet> {
            let sibling = std::env::current_exe()
                .ok()?
                .parent()?
                .join(format!("scenario_run{}", std::env::consts::EXE_SUFFIX));
            if !sibling.exists() {
                return None;
            }
            let listener = TcpListener::bind("127.0.0.1:0").ok()?;
            let addr = listener.local_addr().ok()?.to_string();
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                // 2 threads per worker: an execution hint (the bits
                // never depend on it) that lets a 2-process fleet use
                // 4 cores where the host has them.
                children.push(
                    std::process::Command::new(&sibling)
                        .args(["--worker", &addr, "--persist", "--threads", "2"])
                        .stderr(std::process::Stdio::null())
                        .spawn()
                        .ok()?,
                );
            }
            Some(TcpFleet { listener, children })
        }

        fn accept(&self, n: usize) -> Vec<Box<dyn Transport>> {
            let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
            for _ in 0..n {
                let (stream, _) = self.listener.accept().expect("worker connects");
                stream.set_nodelay(true).expect("nodelay");
                let reader = stream.try_clone().expect("stream clones");
                transports.push(Box::new(JsonLines::new(reader, stream)));
            }
            transports
        }
    }

    impl Drop for TcpFleet {
        fn drop(&mut self) {
            for child in &mut self.children {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    let fleet = TcpFleet::spawn(2);
    let fallback_cache = SpecCache::new();
    let run_dist = |scenario: &Scenario, journal: Option<&std::path::Path>| -> ScenarioOutcome {
        let mut coordinator = Coordinator::new(scenario.clone()).expect("compiles");
        if let Some(path) = journal {
            let _ = std::fs::remove_file(path);
            coordinator = coordinator.journal(path);
        }
        if let Some(fleet) = &fleet {
            coordinator
                .run(fleet.accept(2))
                .expect("distributed run")
                .outcome
        } else {
            // Fallback fleet: real workers on threads over OS pipes,
            // warm cache shared across iterations.
            let mut coord_ends: Vec<Box<dyn Transport>> = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
                let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
                coord_ends.push(Box::new(JsonLines::new(w2c_r, c2w_w)));
                let worker = Worker::new().threads(2).spec_cache(fallback_cache.clone());
                handles.push(std::thread::spawn(move || {
                    let mut t = JsonLines::new(c2w_r, w2c_w);
                    worker.serve(&mut t).map(|_| ()).map_err(|e| e.to_string())
                }));
            }
            let run = coordinator.run(coord_ends).expect("distributed run");
            for h in handles {
                h.join().expect("worker thread joins").expect("worker ok");
            }
            run.outcome
        }
    };

    let mc_scn = Scenario {
        name: "bench-dist-mc".into(),
        seed: SeedSpec::new(3),
        experiment: ExperimentSpec::MonteCarlo {
            model: FaultModelSpec::from_model(&model_of_size(32)),
            introduction: FaultIntroduction::Independent,
            samples: 50_000,
        },
    };
    // 4× the smoke scale: enough campaign steps that the fleet's fixed
    // protocol cost amortises and multi-core hosts see the compute
    // scaling rather than the handshake.
    let f1_ctx = {
        let mut ctx = Context::smoke();
        ctx.scale = 0.08;
        ctx
    };
    let f1_scn = Scenario::preset_with("F1", &f1_ctx).expect("known preset");
    // A host with fewer than 4 cores can only show protocol overhead,
    // so there the gate is a pathology floor.
    let fleet_gate = if host_cores >= 4 { 1.5 } else { 0.1 };
    for (label, scenario) in [("mc_50k", &mc_scn), ("f1_campaign", &f1_scn)] {
        let single = scenario.run(1).expect("in-process run");
        let distributed = run_dist(scenario, None);
        assert_eq!(
            format!("{distributed:?}"),
            format!("{single:?}"),
            "dist/{label}: 2-process outcome diverged from the in-process run"
        );
        bench.push(
            Row::time(
                &format!("dist/{label}/2proc"),
                || {
                    black_box(scenario.run(1).expect("runs"));
                },
                || {
                    black_box(run_dist(scenario, None));
                },
            )
            .gate(fleet_gate),
        );
    }

    // The same 2-worker run with and without the write-ahead lease
    // journal: both sides are bit-identical, so the ratio records the
    // journal's cost alone (≤ 15% allowed; the run is protocol-bound,
    // so the budget carries a noise margin).
    let journal = std::env::temp_dir().join(format!(
        "divrel-bench-journal-{}.ndjson",
        std::process::id()
    ));
    let plain = run_dist(&mc_scn, None);
    let journaled = run_dist(&mc_scn, Some(&journal));
    assert_eq!(
        format!("{journaled:?}"),
        format!("{plain:?}"),
        "dist/resume_overhead: journaled outcome diverged from the plain run"
    );
    bench.push(
        Row::time(
            "dist/resume_overhead",
            || {
                black_box(run_dist(&mc_scn, None));
            },
            || {
                black_box(run_dist(&mc_scn, Some(&journal)));
            },
        )
        .gate(1.0 / 1.15),
    );
    let _ = std::fs::remove_file(&journal);

    // One worker serving the same spec over back-to-back connections:
    // cold (a fresh worker per connection ships and compiles the spec
    // every time) against warm (a persistent worker whose compiled-spec
    // cache turns the handshake into a hash exchange). The F1 campaign
    // with its steps cut down keeps the cost under measurement in spec
    // shipping and compilation, and the coordinator is built once, so
    // its own compile is outside the loop. Independent of core count.
    let mut scenario = Scenario::preset_with("F1", &Context::smoke()).expect("known preset");
    scenario.name = "bench-handshake".into();
    if let ExperimentSpec::Protection(spec) = &mut scenario.experiment {
        spec.steps = 2_000;
    }
    let coordinator = Coordinator::new(scenario.clone()).expect("compiles");
    let serve_once = |worker: Worker| -> ScenarioOutcome {
        let (c2w_r, c2w_w) = std::io::pipe().expect("pipe");
        let (w2c_r, w2c_w) = std::io::pipe().expect("pipe");
        let handle = std::thread::spawn(move || {
            let mut t = JsonLines::new(c2w_r, w2c_w);
            worker.serve(&mut t).map_err(|e| e.to_string())
        });
        let ends: Vec<Box<dyn Transport>> = vec![Box::new(JsonLines::new(w2c_r, c2w_w))];
        let run = coordinator.run(ends).expect("distributed run");
        let summary = handle
            .join()
            .expect("worker thread joins")
            .expect("worker ok");
        black_box(summary);
        run.outcome
    };
    let warm = Worker::new().threads(1);
    let single = scenario.run(1).expect("in-process run");
    let cold_out = serve_once(Worker::new().threads(1));
    let prewarm = serve_once(warm.clone()); // populates the cache
    let warm_out = serve_once(warm.clone());
    for (label, out) in [
        ("cold", &cold_out),
        ("prewarm", &prewarm),
        ("warm", &warm_out),
    ] {
        assert_eq!(
            format!("{out:?}"),
            format!("{single:?}"),
            "dist/handshake_reuse: {label} outcome diverged from the in-process run"
        );
    }
    bench.push(
        Row::time(
            "dist/handshake_reuse",
            || {
                black_box(serve_once(Worker::new().threads(1)));
            },
            || {
                black_box(serve_once(warm.clone()));
            },
        )
        .gate(1.5),
    );
}

/// Samples each estimator needs for 10% relative error on the committed
/// ~2e-7 PFD scenario (`scenarios/rare_event_protection.toml`, rebuilt
/// here so the binary reads no file). The naive side is exact,
/// `σ²/(0.1·µ)²` from the closed-form per-demand variance; each
/// variant's side is its measured relative error at the committed
/// budget, scaled to the 10% target. The speedup is the variance
/// reduction factor.
fn rare_event_rows(bench: &mut Bench) {
    let base = FaultModel::from_params(
        &[0.001, 0.002, 0.0005, 0.0015, 0.0008, 0.001, 0.0012, 0.0006],
        &[0.005, 0.003, 0.008, 0.004, 0.006, 0.005, 0.002, 0.007],
    )
    .expect("valid parameters");
    let shared = SharedCauseModel::new(base, 0.002).expect("valid beta");
    let budget = 1usize << 17;
    let exact = RareEventExperiment::from_shared(&shared, 3, 2, RareEstimator::Naive)
        .expect("valid config");
    let (mu, sigma) = (exact.true_pfd(), exact.exact_std_dev());
    let naive_needed = (sigma / (0.1 * mu)).powi(2);
    for (label, est) in [
        ("tilt", RareEstimator::ImportanceTilt { theta: 4.0 }),
        ("stratified", RareEstimator::StratifyByCount),
    ] {
        let out = RareEventExperiment::from_shared(&shared, 3, 2, est)
            .expect("valid config")
            .samples(budget)
            .seed(4242)
            .run()
            .expect("rare-event run");
        // Sanity: the estimate must agree with the closed form it
        // claims to be unbiased for.
        assert!(
            (out.estimate - out.true_pfd).abs() < 6.0 * out.std_error,
            "rare_event/{label}: estimate {} vs closed form {} (se {})",
            out.estimate,
            out.true_pfd,
            out.std_error
        );
        let needed = (budget as f64 * (out.relative_error / 0.1).powi(2)).max(1.0);
        let row = Row::samples(
            &format!("rare_event/{label}_vs_naive_samples_to_10pct"),
            naive_needed,
            needed,
        );
        bench.push(if label == "tilt" { row.gate(50.0) } else { row });
    }
}

/// Demand trials the posterior-driven refinement loop needs to close
/// every cell's 99% credible interval below the target width, against a
/// fixed uniform schedule under the same stopping rule. Both share the
/// round-loop driver and the per-cell demand streams, so the speedup is
/// the sampling efficiency of posterior-driven allocation alone.
fn adaptive_row(bench: &mut Bench) {
    // The committed scenarios/adaptive_confidence.toml workload, rebuilt
    // here so the binary reads no file.
    let spec_text = r#"
name = "adaptive-confidence-bench"

[seed]
seed = 4242

[experiment.AdaptivePfd]
cells = 24

[experiment.AdaptivePfd.model.Params]
ps = [0.3, 0.18]
qs = [0.004, 0.03]

[experiment.AdaptivePfd.refinement]
confidence = 0.99
target_width = 0.002
initial_demands = 4800
round_demands = 9600
max_rounds = 40
"#;
    let scenario = Scenario::from_spec_text(spec_text).expect("adaptive spec parses");
    // Sanity: the adaptive loop is bit-identical at any thread count
    // before anything is measured.
    let one = scenario.run(1).expect("1-thread adaptive run");
    let many = scenario
        .run(default_sweep_threads())
        .expect("threaded adaptive run");
    assert_eq!(
        format!("{one:?}"),
        format!("{many:?}"),
        "sweep/adaptive: outcome depends on thread count"
    );
    let model =
        Arc::new(FaultModel::from_params(&[0.3, 0.18], &[0.004, 0.03]).expect("valid parameters"));
    // Same stopping rule for both sides; the uniform baseline needs a
    // generous round cap to reach the bound at all.
    let refinement = RefinementSpec {
        confidence: 0.99,
        target_width: 0.002,
        initial_demands: 4800,
        round_demands: 9600,
        max_rounds: 400,
    };
    let total_demands = |strategy: AllocationStrategy| {
        let run = drive(
            Arc::clone(&model),
            4242,
            24,
            &refinement,
            strategy,
            in_process_rounds(1),
        )
        .expect("adaptive drive");
        assert!(run.converged, "{strategy:?} allocation did not converge");
        run.total_demands as f64
    };
    bench.push(
        Row::samples(
            "sweep/adaptive_vs_fixed_samples_to_bound",
            total_demands(AllocationStrategy::Uniform),
            total_demands(AllocationStrategy::PosteriorDriven),
        )
        .gate(3.0),
    );
}

/// A 4096 × 4096 plant (16,777,216 cells, four times past the
/// compiler's `MAX_COMPILED_CELLS` ceiling), whose rows the compiler
/// keeps in its hash store and builds only for the states the walk
/// visits, against the tick loop. The compiler's own tests hold the hash
/// store bit-identical to the dense one.
fn sparse_row(bench: &mut Bench) {
    let space = GridSpace2D::new(4096, 4096).expect("valid space");
    let system = pair_system(space);
    let plant = Plant::markov_walk(space, Region::rect(0, 0, 4, 4), 2, 0.002).expect("valid plant");
    let compiled = CompiledPlant::compile(&plant)
        .expect("compilable")
        .expect("markov plants compile");
    let steps = 400_000u64;
    let (mut rng_l, mut rng_f) = (reseeded(900), reseeded(900));
    bench.push(
        Row::time(
            "protection/markov_sparse/16M_cells",
            || {
                black_box(
                    simulation::run_stepwise(&plant, &system, steps, &mut rng_l()).expect("runs"),
                );
            },
            || {
                black_box(
                    simulation::run_compiled(&compiled, &system, steps, &mut rng_f())
                        .expect("runs"),
                );
            },
        )
        .gate(10.0),
    );
    println!(
        "{:<44} {} of {} states compiled ({:.5}% occupancy)",
        "  hash store",
        compiled.compiled_states(),
        compiled.states(),
        compiled.occupancy() * 100.0
    );
}
