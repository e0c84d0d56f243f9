//! Before/after benchmark driver: measures the previous-PR baselines
//! against the current fast paths and exports the results as
//! `BENCH_<tag>.json` (default `BENCH_pr10.json` in the current
//! directory; override with `DIVREL_BENCH_TAG` / first CLI argument as
//! the output path).
//!
//! Five baseline generations appear:
//!
//! * the **seed** algorithms (`Vec<bool>` fault sets, one RNG draw per
//!   potential fault, per-fault geometric region tests) — kept so the
//!   PR 1 wins stay visible in the trajectory;
//! * the **PR 1** tick loop (`run_stepwise`) as the "legacy" side of
//!   the PR 2 rows: the Markov demand compiler, sharded campaigns and
//!   parallel `true_pfd` are all measured against it or the serial
//!   equivalent;
//! * the **PR 2** cell-by-cell execution (1 worker) as the "legacy"
//!   side of the PR 3 `sweep/*` rows: whole experiment grids on the
//!   deterministic sweep engine, 1 thread vs all cores. Both sides are
//!   bit-identical by construction (asserted before measuring), so the
//!   row records pure scheduling gain — ≈1× on a single-core host, by
//!   design;
//! * the **PR 3** direct experiment calls as the "legacy" side of the
//!   PR 4 `scenario/*` rows: the same workload declared as a
//!   [`Scenario`] spec and compiled through the scenario layer. Both
//!   sides are bit-identical (asserted first), so the row records pure
//!   spec-compilation overhead — the target is ≤ 2% (speedup ≥ 0.98×);
//! * the **PR 4** in-process scenario executor as the "legacy" side of
//!   the PR 5 `dist/*` rows: the same committed spec run by a
//!   coordinator over a fleet of worker processes (1 process vs N).
//!   Both sides are bit-identical (asserted first), so the row records
//!   pure distribution overhead/gain — ≈1× minus protocol cost on a
//!   single-core host, by design. The PR 5 `protection/markov_fused/*`
//!   row measures the compiled sampler's fused exit draw (one uniform
//!   for branch + alias where the chain's masses allow) against a
//!   faithful reconstruction of the PR 2 four-draw sampler. The PR 6
//!   `dist/resume_overhead` row re-runs the distributed workload with
//!   the write-ahead lease journal enabled; both sides are
//!   bit-identical, so the ratio records pure journaling cost
//!   (target ≤ 2%). The PR 7 `dist/*` rows run against a **persistent**
//!   TCP fleet (workers spawned once, reconnecting between runs with
//!   warm compiled-spec caches) so they measure what the v3 protocol —
//!   hash handshake, binary result frames, adaptive pipelined leases —
//!   actually costs on a re-run of a committed spec; the new
//!   `dist/handshake_reuse` row isolates the cached-spec handshake by
//!   serving the same spec to a cold vs a warm worker. The PR 8
//!   `protection/tree_compiled_vs_walk` row measures the fault-tree
//!   voter's compiled one-bit-per-cell system table against a direct
//!   per-cell tree walk over the channel trip tables; both sides are
//!   bit-identical on every demand cell (asserted first), so the row
//!   records the pure gain of compiling gate topologies down to the
//!   flat-vote hot path. The PR 9 `rare_event/*` rows change unit:
//!   they record **samples needed for 10% relative error** on the
//!   committed ~2e-7 PFD scenario — closed-form exact for the naive
//!   side, measured for the importance-tilted and count-stratified
//!   estimators — so the speedup column is the variance-reduction
//!   factor of the rare-event engine, gated at ≥ 50× in CI. The PR 10
//!   `sweep/adaptive_vs_fixed_samples_to_bound` row is also
//!   samples-unit: the demand trials the posterior-driven refinement
//!   loop needs to close every cell's 99% credible interval below the
//!   target width, against a fixed uniform schedule reaching the same
//!   bound (gated ≥ 3× in CI); and the PR 10
//!   `protection/markov_sparse/16M_cells` row runs a 4096 × 4096 plant
//!   — four times past the eager compiler's `MAX_COMPILED_CELLS`
//!   ceiling — on the sparse on-demand backend against the PR 1 tick
//!   loop (gated ≥ 10× in CI), after asserting the sparse backend
//!   bit-identical to the eager compiler on a small both-backends
//!   space.

use divrel_bench::adaptive::{drive, AllocationStrategy, RefinementSpec};
use divrel_bench::context::default_sweep_threads;
use divrel_bench::job::in_process_rounds;
use divrel_bench::perf::{to_json, Comparison};
use divrel_bench::scenario::{ExperimentSpec, Scenario};
use divrel_bench::sweep::{forced_sweep, kl_sweep, pfd_sample_sweep};
use divrel_demand::mapping::FaultRegionMap;
use divrel_demand::profile::Profile;
use divrel_demand::region::Region;
use divrel_demand::space::{Demand, GridSpace2D};
use divrel_demand::version::ProgramVersion;
use divrel_devsim::experiment::MonteCarloExperiment;
use divrel_devsim::factory::{SampledPair, VersionFactory};
use divrel_devsim::process::FaultIntroduction;
use divrel_devsim::rare::{RareEstimator, RareEventExperiment};
use divrel_model::shared::SharedCauseModel;
use divrel_model::spec::FaultModelSpec;
use divrel_model::FaultModel;
use divrel_numerics::descriptive::Moments;
use divrel_numerics::sweep::SeedSpec;
use divrel_protection::adjudicator::Adjudicator;
use divrel_protection::channel::Channel;
use divrel_protection::compiler::CompiledPlant;
use divrel_protection::plant::{Plant, PlantEvent};
use divrel_protection::simulation;
use divrel_protection::system::ProtectionSystem;
use divrel_protection::tree::FaultTree;
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

/// The seed's Monte-Carlo shard loop: reference pair sampling with
/// Welford accumulators.
fn legacy_mc(factory: &VersionFactory, samples: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut single = Moments::default();
    let mut pair = Moments::default();
    for _ in 0..samples {
        let p = factory.sample_pair_reference(&mut rng);
        single.push(p.a.pfd);
        pair.push(p.pfd);
    }
    (single.mean().unwrap(), pair.mean().unwrap())
}

/// The fast shard loop: bitset sampling into a reusable buffer.
fn fast_mc(factory: &VersionFactory, samples: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut single = Moments::default();
    let mut pair = Moments::default();
    let mut buf = SampledPair::empty(factory.model().len());
    for _ in 0..samples {
        factory.sample_pair_into(&mut rng, &mut buf);
        single.push(buf.a.pfd);
        pair.push(buf.pfd);
    }
    (single.mean().unwrap(), pair.mean().unwrap())
}

/// The seed's `respond`: per-channel, per-fault geometric region tests
/// plus a fresh `Vec<bool>` per demand.
fn legacy_respond(
    versions: &[Vec<bool>],
    regions: &[Region],
    adjudicator: Adjudicator,
    d: Demand,
) -> (bool, Vec<bool>) {
    let trips: Vec<bool> = versions
        .iter()
        .map(|present| {
            !present
                .iter()
                .zip(regions)
                .any(|(&b, r)| b && r.contains(d))
        })
        .collect();
    (adjudicator.decide(&trips), trips)
}

/// The seed's operational loop: one RNG draw per plant tick, legacy
/// respond per demand.
fn legacy_protection_run(
    profile: &Profile,
    rate: f64,
    versions: &[Vec<bool>],
    regions: &[Region],
    steps: u64,
    seed: u64,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut demands = 0u64;
    let mut failures = 0u64;
    for _ in 0..steps {
        if rng.gen::<f64>() < rate {
            let d = profile.sample(&mut rng);
            demands += 1;
            let (tripped, trips) = legacy_respond(versions, regions, Adjudicator::OneOutOfN, d);
            black_box(trips);
            if !tripped {
                failures += 1;
            }
        }
    }
    black_box(demands + failures)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        let tag = std::env::var("DIVREL_BENCH_TAG").unwrap_or_else(|_| "pr10".into());
        format!("BENCH_{tag}.json")
    });
    let mut results: Vec<Comparison> = Vec::new();

    // --- devsim_factory/sample_pair ------------------------------------
    for n in [16usize, 256] {
        let factory = VersionFactory::new(model_of_size(n), FaultIntroduction::Independent)
            .expect("valid factory");
        let mut rng_l = StdRng::seed_from_u64(1);
        let mut rng_f = StdRng::seed_from_u64(1);
        let mut buf = SampledPair::empty(n);
        let c = Comparison::measure(
            &format!("devsim_factory/sample_pair/{n}"),
            || {
                black_box(factory.sample_pair_reference(&mut rng_l));
            },
            || {
                factory.sample_pair_into(&mut rng_f, &mut buf);
                black_box(buf.pfd);
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- devsim_experiment/mc_10k_pairs --------------------------------
    {
        let factory = VersionFactory::new(model_of_size(32), FaultIntroduction::Independent)
            .expect("valid factory");
        // Sanity: both paths reproduce the analytic means (6-sigma MC
        // bands).
        let n_check = 50_000;
        let tol1 = 6.0 * factory.model().std_pfd_single() / (n_check as f64).sqrt();
        let tol2 = 6.0 * factory.model().std_pfd_pair() / (n_check as f64).sqrt();
        let (mu1, mu2) = (
            factory.model().mean_pfd_single(),
            factory.model().mean_pfd_pair(),
        );
        let (l1, l2) = legacy_mc(&factory, n_check, 7);
        let (f1, f2) = fast_mc(&factory, n_check, 7);
        assert!((l1 - mu1).abs() < tol1, "legacy single mean {l1} vs {mu1}");
        assert!((f1 - mu1).abs() < tol1, "fast single mean {f1} vs {mu1}");
        assert!((l2 - mu2).abs() < tol2, "legacy pair mean {l2} vs {mu2}");
        assert!((f2 - mu2).abs() < tol2, "fast pair mean {f2} vs {mu2}");
        let mut seed_l = 0u64;
        let mut seed_f = 0u64;
        let c = Comparison::measure(
            "devsim_experiment/mc_10k_pairs",
            || {
                seed_l += 1;
                black_box(legacy_mc(&factory, 10_000, seed_l));
            },
            || {
                seed_f += 1;
                black_box(fast_mc(&factory, 10_000, seed_f));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);

        // The threaded experiment driver end to end (fast path only —
        // recorded for the trajectory, not a comparison).
        let exp = MonteCarloExperiment::new(model_of_size(32), FaultIntroduction::Independent)
            .samples(10_000)
            .threads(1)
            .seed(1);
        let ns = divrel_bench::perf::time_ns(|| {
            black_box(exp.run().expect("runs"));
        });
        println!(
            "{:<44} {:>23.1} ns",
            "devsim_experiment/driver_10k(fast)", ns
        );
    }

    // --- protection/run_400k_steps -------------------------------------
    {
        let space = GridSpace2D::new(100, 100).expect("valid space");
        let profile = Profile::uniform(&space);
        let regions = vec![Region::rect(0, 0, 9, 9), Region::rect(5, 5, 14, 14)];
        let map = FaultRegionMap::new(space, regions.clone()).expect("valid map");
        let versions = vec![vec![true, false], vec![false, true]];
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(versions[0].clone())),
                Channel::new("B", ProgramVersion::new(versions[1].clone())),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .expect("valid system");
        for (label, rate, steps) in [
            ("rate0.2/100k", 0.2, 100_000u64),
            ("rate0.001/400k", 0.001, 400_000u64),
        ] {
            let plant = Plant::with_demand_rate(profile.clone(), rate).expect("valid plant");
            let mut seed = 100u64;
            let mut seed_f = 100u64;
            let c = Comparison::measure(
                &format!("protection/run/{label}"),
                || {
                    seed += 1;
                    black_box(legacy_protection_run(
                        &profile, rate, &versions, &regions, steps, seed,
                    ));
                },
                || {
                    seed_f += 1;
                    let mut rng = StdRng::seed_from_u64(seed_f);
                    black_box(simulation::run(&plant, &system, steps, &mut rng).expect("runs"));
                },
            );
            println!(
                "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
                c.name,
                c.legacy_ns,
                c.fast_ns,
                c.speedup()
            );
            results.push(c);
        }
        // Trajectory plants keep the stepwise loop; record it so the
        // trajectory is visible in the export too.
        let plant = Plant::trajectory(space, Region::rect(0, 0, 6, 6), 2).expect("valid plant");
        let mut s1 = 300u64;
        let mut s2 = 300u64;
        let c = Comparison::measure(
            "protection/run_trajectory/50k",
            || {
                s1 += 1;
                let mut rng = StdRng::seed_from_u64(s1);
                // Seed loop: legacy respond per demand.
                let mut state = plant.initial_state();
                let mut fails = 0u64;
                for _ in 0..50_000 {
                    let (next, ev) = plant.step(state, &mut rng);
                    state = next;
                    if let PlantEvent::Demand(d) = ev {
                        let (tripped, trips) =
                            legacy_respond(&versions, &regions, Adjudicator::OneOutOfN, d);
                        black_box(trips);
                        fails += u64::from(!tripped);
                    }
                }
                black_box(fails);
            },
            || {
                s2 += 1;
                let mut rng = StdRng::seed_from_u64(s2);
                black_box(simulation::run(&plant, &system, 50_000, &mut rng).expect("runs"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- demand/true_pfd ------------------------------------------------
    {
        let space = GridSpace2D::new(200, 200).expect("valid space");
        let profile = Profile::uniform(&space);
        let regions: Vec<Region> = (0..32)
            .map(|i| {
                let x = (i * 6) as u32 % 180;
                let y = (i * 11) as u32 % 180;
                Region::rect(x, y, x + 12, y + 12)
            })
            .collect();
        let map = FaultRegionMap::new(space, regions.clone()).expect("valid map");
        let version = ProgramVersion::new((0..32).map(|i| i % 2 == 0).collect());
        let indices = version.fault_indices();
        let c = Comparison::measure(
            "demand/true_pfd/32_regions_200x200",
            || {
                // Seed algorithm: gather regions, BTreeSet union, measure.
                let parts: Vec<Region> = indices.iter().map(|&i| regions[i].clone()).collect();
                black_box(Region::union(parts).measure(&profile));
            },
            || {
                black_box(version.true_pfd(&map, &profile).expect("in range"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- protection/tree_compiled_vs_walk: the PR 8 headline -----------
    // A nested fault-tree voter (3-of-8 threshold OR an 8-wide AND) over
    // 16 channels: the legacy side re-derives the exact PFD by walking
    // the tree on every demand cell over the per-channel failure tables;
    // the fast side reads the one-bit-per-cell system table the
    // constructor compiles the tree into. Both sides are bit-identical
    // on every cell (asserted first), so the row records the pure gain
    // of compiling gate topologies down to the flat-vote hot path.
    {
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
        // Cell-level bit-identity between the walk and the compiled
        // table, then the derived PFDs.
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
        let c = Comparison::measure(
            "protection/tree_compiled_vs_walk/16ch_200x200",
            || {
                black_box(walk_pfd());
            },
            || {
                black_box(sys.true_pfd(&profile).expect("computes"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- protection/markov_run: the PR 2 headline ----------------------
    // A sticky Markov plant (operating points persist ~100 ticks) with a
    // rare-demand trip set: the PR 1 baseline is the tick loop
    // (`run_stepwise`, one RNG decision per tick); the fast side is the
    // compiled demand sampler (geometric dwells + alias jumps, one
    // iteration per state change).
    {
        let space = GridSpace2D::new(100, 100).expect("valid space");
        let trip = Region::rect(0, 0, 4, 4);
        let regions = vec![Region::rect(0, 0, 2, 2), Region::rect(1, 1, 3, 3)];
        let map = FaultRegionMap::new(space, regions).expect("valid map");
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .expect("valid system");
        for (label, move_prob, steps) in [
            ("move0.002/400k", 0.002, 400_000u64),
            ("move0.01/400k", 0.01, 400_000u64),
            ("move0.1/400k", 0.1, 400_000u64),
        ] {
            let plant = Plant::markov_walk(space, trip.clone(), 2, move_prob).expect("valid plant");
            let compiled = CompiledPlant::compile(&plant)
                .expect("compilable")
                .expect("markov plants compile");
            let mut seed_l = 500u64;
            let mut seed_f = 500u64;
            let c = Comparison::measure(
                &format!("protection/markov_run/{label}"),
                || {
                    seed_l += 1;
                    let mut rng = StdRng::seed_from_u64(seed_l);
                    black_box(
                        simulation::run_stepwise(&plant, &system, steps, &mut rng).expect("runs"),
                    );
                },
                || {
                    seed_f += 1;
                    let mut rng = StdRng::seed_from_u64(seed_f);
                    black_box(
                        simulation::run_compiled(&compiled, &system, steps, &mut rng)
                            .expect("runs"),
                    );
                },
            );
            println!(
                "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
                c.name,
                c.legacy_ns,
                c.fast_ns,
                c.speedup()
            );
            results.push(c);
        }

        // Sharded campaign: single-threaded compiled run vs the scoped-
        // thread campaign runner. The speedup tracks the host's core
        // count (≈1x on a single-core box — the row records scaling
        // honestly rather than asserting it).
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        let plant = Plant::markov_walk(space, trip.clone(), 2, 0.1).expect("valid plant");
        let steps = 2_000_000u64;
        let mut seed_l = 700u64;
        let mut seed_f = 700u64;
        let c = Comparison::measure(
            &format!("protection/run_sharded/{threads}threads/2M"),
            || {
                seed_l += 1;
                black_box(
                    simulation::run_sharded(&plant, &system, steps, 1, seed_l).expect("runs"),
                );
            },
            || {
                seed_f += 1;
                black_box(
                    simulation::run_sharded(&plant, &system, steps, threads, seed_f).expect("runs"),
                );
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- demand/true_pfd_parallel --------------------------------------
    {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        let space = GridSpace2D::new(400, 400).expect("valid space");
        let profile = Profile::uniform(&space);
        let regions: Vec<Region> = (0..48)
            .map(|i| {
                let x = (i * 17) as u32 % 360;
                let y = (i * 31) as u32 % 360;
                Region::rect(x, y, x + 24, y + 24)
            })
            .collect();
        let map = FaultRegionMap::new(space, regions).expect("valid map");
        let sys = ProtectionSystem::new(
            vec![
                Channel::new(
                    "A",
                    ProgramVersion::new((0..48).map(|i| i % 2 == 0).collect()),
                ),
                Channel::new(
                    "B",
                    ProgramVersion::new((0..48).map(|i| i % 3 == 0).collect()),
                ),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .expect("valid system");
        let serial = sys.true_pfd(&profile).expect("computable");
        let parallel = sys
            .true_pfd_parallel(&profile, threads)
            .expect("computable");
        assert!(
            (serial - parallel).abs() < 1e-12,
            "parallel true_pfd diverged: {parallel} vs {serial}"
        );
        let c = Comparison::measure(
            &format!("protection/true_pfd/{threads}threads/48_regions_400x400"),
            || {
                black_box(sys.true_pfd(&profile).expect("computable"));
            },
            || {
                black_box(
                    sys.true_pfd_parallel(&profile, threads)
                        .expect("computable"),
                );
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- sweep/*: the PR 3 headline ------------------------------------
    // Whole experiment grids on the deterministic sweep engine: the
    // legacy side runs the identical grid cell-by-cell (1 worker), the
    // fast side shards it over all cores. The reduced statistics are
    // bit-identical either way (asserted first), so the rows measure
    // scheduling alone and honestly record ≈1× on single-core hosts.
    {
        let threads = default_sweep_threads();

        // The 10k-pair devsim grid as a sweep (the mc_10k_pairs workload).
        let exp = MonteCarloExperiment::new(model_of_size(32), FaultIntroduction::Independent)
            .samples(10_000)
            .seed(1);
        let serial = exp.clone().threads(1).run().expect("runs");
        let sharded = exp.clone().threads(threads).run().expect("runs");
        assert_eq!(serial, sharded, "sweep results diverged across threads");
        let c = Comparison::measure(
            &format!("sweep/mc_10k_pairs/{threads}threads"),
            || {
                black_box(exp.clone().threads(1).run().expect("runs"));
            },
            || {
                black_box(exp.clone().threads(threads).run().expect("runs"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);

        // The E16 Knight–Leveson replication grid.
        let kl_model = divrel_bench::experiments::knight_leveson::student_experiment_model()
            .expect("valid model");
        assert_eq!(
            kl_sweep(&kl_model, 48, 2001, 1).expect("runs"),
            kl_sweep(&kl_model, 48, 2001, threads).expect("runs"),
            "KL sweep diverged across threads"
        );
        let c = Comparison::measure(
            &format!("sweep/knight_leveson/{threads}threads"),
            || {
                black_box(kl_sweep(&kl_model, 48, 2001, 1).expect("runs"));
            },
            || {
                black_box(kl_sweep(&kl_model, 48, 2001, threads).expect("runs"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);

        // The E17 forced-diversity random-process grid.
        assert_eq!(
            forced_sweep(2_000, 2001, 1).expect("runs"),
            forced_sweep(2_000, 2001, threads).expect("runs"),
            "forced sweep diverged across threads"
        );
        let c = Comparison::measure(
            &format!("sweep/forced_diversity/{threads}threads"),
            || {
                black_box(forced_sweep(2_000, 2001, 1).expect("runs"));
            },
            || {
                black_box(forced_sweep(2_000, 2001, threads).expect("runs"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);

        // Raw PFD sample assembly over the sharded grid.
        let m32 = model_of_size(32);
        assert_eq!(
            pfd_sample_sweep(&m32, FaultIntroduction::Independent, 10_000, 5, 1).expect("runs"),
            pfd_sample_sweep(&m32, FaultIntroduction::Independent, 10_000, 5, threads)
                .expect("runs"),
            "PFD sample sweep diverged across threads"
        );
        let c = Comparison::measure(
            &format!("sweep/pfd_samples_10k/{threads}threads"),
            || {
                black_box(
                    pfd_sample_sweep(&m32, FaultIntroduction::Independent, 10_000, 5, 1)
                        .expect("runs"),
                );
            },
            || {
                black_box(
                    pfd_sample_sweep(&m32, FaultIntroduction::Independent, 10_000, 5, threads)
                        .expect("runs"),
                );
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- scenario/*: the PR 4 rows --------------------------------------
    // Spec-compiled execution vs the direct experiment call: identical
    // workload, identical bits (asserted first), so the row measures the
    // declarative layer's overhead alone. Target: ≤ 2%.
    {
        let threads = default_sweep_threads();

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
        let c = Comparison::measure(
            &format!("scenario/forced_2k/{threads}threads"),
            || {
                black_box(forced_sweep(2_000, 2001, threads).expect("runs"));
            },
            || {
                black_box(forced_scn.run(threads).expect("runs"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);

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
        let c = Comparison::measure(
            &format!("scenario/mc_10k/{threads}threads"),
            || {
                black_box(direct_exp.clone().run().expect("runs"));
            },
            || {
                black_box(mc_scn.run(threads).expect("runs"));
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- protection/markov_fused: the PR 5 sampler satellite ------------
    // The compiled sampler's exit tick used to spend up to three
    // uniforms (demand-vs-move coin, successor bucket, accept coin) on
    // top of the dwell draw; one recycled uniform now covers all three.
    // The "legacy" side is a faithful reconstruction of the PR 2
    // sampler: the same analytic decomposition with its own Walker–Vose
    // tables and the original two-draw alias lookup.
    {
        use divrel_protection::OperationLog;

        /// One state's Walker–Vose table (cells, acceptance masses,
        /// in-segment alias targets), built exactly like the PR 2
        /// compiler's.
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

            /// The PR 2 two-draw lookup: bucket (when > 1 entry), then
            /// an acceptance coin.
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

            /// The PR 2 draw pattern: dwell, branch coin, bucket
            /// (when > 1 successor), accept coin.
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

        let space = GridSpace2D::new(100, 100).expect("valid space");
        let trip = Region::rect(0, 0, 4, 4);
        let map = FaultRegionMap::new(
            space,
            vec![Region::rect(0, 0, 2, 2), Region::rect(1, 1, 3, 3)],
        )
        .expect("valid map");
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .expect("valid system");
        let steps = 400_000u64;
        let plant = Plant::markov_walk(space, trip, 2, 0.01).expect("valid plant");
        let unfused = UnfusedCompiled::compile(&plant);
        let compiled = CompiledPlant::compile(&plant)
            .expect("compilable")
            .expect("markov plants compile");
        // Sanity: same process, so the two samplers must see
        // statistically similar demand traffic. The measured plant is
        // slow-mixing (huge per-run hitting-time variance), so the
        // check runs on a fast-mixing sibling and averages seeds.
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
        let mut seed_l = 900u64;
        let mut seed_f = 900u64;
        let c = Comparison::measure(
            "protection/markov_fused/move0.01/400k",
            || {
                seed_l += 1;
                let mut rng = StdRng::seed_from_u64(seed_l);
                black_box(unfused.run(&system, steps, &mut rng));
            },
            || {
                seed_f += 1;
                let mut rng = StdRng::seed_from_u64(seed_f);
                black_box(
                    simulation::run_compiled(&compiled, &system, steps, &mut rng).expect("runs"),
                );
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- dist/*: the PR 5 coordinator/worker rows, PR 7 methodology ------
    // One committed-style spec executed in process (1 process) vs by a
    // coordinator over a **persistent** 2-process TCP fleet: the
    // workers are spawned once (`scenario_run --worker ADDR --persist
    // --threads 1`), reconnect after every coordinator run, and keep
    // their compiled-spec caches warm — so each measured iteration pays
    // only what a re-run of a committed spec actually pays under the
    // v3 protocol (hash handshake, binary result frames, adaptive
    // leases), not process spawn + spec compile. Both sides are
    // bit-identical — asserted before measuring — so the rows record
    // pure distribution overhead/gain: ≈1× minus protocol cost on a
    // single-core host, real scaling on CI's multi-core runners. When
    // the sibling binary is absent the fleet falls back to in-process
    // pipe workers sharing a warm [`SpecCache`].
    {
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
                    // never depend on it) that lets a 2-process fleet
                    // use 4 cores where the runner has them.
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
        let run_dist =
            |scenario: &Scenario, journal: Option<&std::path::Path>| -> ScenarioOutcome {
                let mut coordinator = Coordinator::new(scenario.clone()).expect("compiles");
                if let Some(path) = journal {
                    let _ = std::fs::remove_file(path);
                    coordinator = coordinator.journal(path).expect("journal creates");
                }
                if let Some(fleet) = &fleet {
                    coordinator
                        .run(fleet.accept(2))
                        .expect("distributed run")
                        .outcome
                } else {
                    // Fallback fleet: real workers on threads over OS
                    // pipes, warm cache shared across iterations.
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
        // 4× the smoke scale: enough campaign steps that the fleet's
        // fixed protocol cost amortises and multi-core runners see the
        // compute scaling rather than the handshake.
        let f1_ctx = {
            let mut ctx = Context::smoke();
            ctx.scale = 0.08;
            ctx
        };
        let f1_scn = Scenario::preset_with("F1", &f1_ctx).expect("known preset");
        for (label, scenario) in [("mc_50k", &mc_scn), ("f1_campaign", &f1_scn)] {
            let single = scenario.run(1).expect("in-process run");
            let distributed = run_dist(scenario, None);
            assert_eq!(
                format!("{distributed:?}"),
                format!("{single:?}"),
                "dist/{label}: 2-process outcome diverged from the in-process run"
            );
            let c = Comparison::measure(
                &format!("dist/{label}/2proc"),
                || {
                    black_box(scenario.run(1).expect("runs"));
                },
                || {
                    black_box(run_dist(scenario, None));
                },
            );
            println!(
                "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
                c.name,
                c.legacy_ns,
                c.fast_ns,
                c.speedup()
            );
            results.push(c);
        }

        // --- dist/resume_overhead: cost of the PR 6 durable coordinator.
        // The same 2-worker distributed run with and without a
        // write-ahead lease journal; both sides are bit-identical, so
        // the ratio records pure journal-append overhead. The budget is
        // 2% (≈1x, well inside measurement noise).
        {
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
            let c = Comparison::measure(
                "dist/resume_overhead",
                || {
                    black_box(run_dist(&mc_scn, None));
                },
                || {
                    black_box(run_dist(&mc_scn, Some(&journal)));
                },
            );
            println!(
                "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
                c.name,
                c.legacy_ns,
                c.fast_ns,
                c.speedup()
            );
            results.push(c);
            let _ = std::fs::remove_file(&journal);
        }

        // --- dist/handshake_reuse: the PR 7 cached-spec handshake ------
        // One worker serving the same committed spec over back-to-back
        // connections: cold (a fresh worker per connection — the full
        // spec ships and compiles every time, the v2 behaviour) vs warm
        // (one persistent worker whose compiled-spec cache turns the
        // handshake into a hash exchange). The spec is the F1 campaign
        // with the step count cut down, so the connection cost under
        // measurement is dominated by spec shipping + compilation, not
        // by plant simulation — and the coordinator is built once, so
        // its own compile is outside the loop. Core-count independent:
        // the row measures the protocol, not the compute.
        {
            use divrel_bench::scenario::ExperimentSpec as Exp;
            let mut scenario =
                Scenario::preset_with("F1", &Context::smoke()).expect("known preset");
            scenario.name = "bench-handshake".into();
            if let Exp::Protection(spec) = &mut scenario.experiment {
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
            let c = Comparison::measure(
                "dist/handshake_reuse",
                || {
                    black_box(serve_once(Worker::new().threads(1)));
                },
                || {
                    black_box(serve_once(warm.clone()));
                },
            );
            println!(
                "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
                c.name,
                c.legacy_ns,
                c.fast_ns,
                c.speedup()
            );
            results.push(c);
        }
    }

    // --- rare_event/samples to 10% relative error ----------------------
    // Unlike every row above, this group's unit is *samples*, not
    // nanoseconds: how many demands each estimator needs for a 10%
    // relative error on the committed ~2e-7 PFD scenario
    // (scenarios/rare_event_protection.toml, reconstructed here so the
    // binary has no file dependency). The naive side is exact —
    // `σ²/(0.1·µ)²` from the engine's closed-form per-demand variance —
    // and each variant's side is its measured relative error at the
    // committed budget scaled to the 10% target. The speedup column is
    // therefore the variance-reduction factor the CI gate checks
    // (>= 50x for the tilt row).
    {
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
        println!(
            "{:<44} {:>23.0} samples",
            "rare_event/naive_samples_to_10pct", naive_needed
        );
        for (label, est) in [
            ("tilt", RareEstimator::ImportanceTilt { theta: 4.0 }),
            ("stratified", RareEstimator::StratifyByCount { rounds: 3 }),
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
            let c = Comparison {
                name: format!("rare_event/{label}_vs_naive_samples_to_10pct"),
                legacy_ns: naive_needed,
                fast_ns: needed,
            };
            println!(
                "{:<44} {:>10.0} -> {:>9.0} samples  ({:.2}x)",
                c.name,
                c.legacy_ns,
                c.fast_ns,
                c.speedup()
            );
            results.push(c);
        }
    }

    // --- sweep/adaptive_vs_fixed: samples to close every bound ---------
    // Samples-unit row (like rare_event/*): how many demand trials the
    // posterior-driven refinement loop needs to close every cell's 99%
    // credible interval below the target width, against a fixed uniform
    // schedule run under the same stopping rule until it reaches the
    // same bound. Both sides share the round-loop driver and the
    // per-cell demand streams, so the speedup column is the pure
    // sampling-efficiency factor of posterior-driven allocation — the
    // CI gate checks >= 3x.
    {
        // The committed scenarios/adaptive_confidence.toml workload,
        // reconstructed inline so the binary has no file dependency.
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
        // Sanity: the adaptive loop is bit-identical at any thread
        // count before anything is measured.
        let one = scenario.run(1).expect("1-thread adaptive run");
        let many = scenario
            .run(default_sweep_threads())
            .expect("threaded adaptive run");
        assert_eq!(
            format!("{one:?}"),
            format!("{many:?}"),
            "sweep/adaptive: outcome depends on thread count"
        );
        let model = Arc::new(
            FaultModel::from_params(&[0.3, 0.18], &[0.004, 0.03]).expect("valid parameters"),
        );
        // Same stopping rule for both sides; the uniform baseline needs
        // a generous round cap to reach the bound at all.
        let refinement = RefinementSpec {
            confidence: 0.99,
            target_width: 0.002,
            initial_demands: 4800,
            round_demands: 9600,
            max_rounds: 400,
        };
        let adaptive = drive(
            Arc::clone(&model),
            4242,
            24,
            &refinement,
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("adaptive drive");
        let uniform = drive(
            model,
            4242,
            24,
            &refinement,
            AllocationStrategy::Uniform,
            in_process_rounds(1),
        )
        .expect("uniform drive");
        assert!(adaptive.converged, "adaptive loop did not converge");
        assert!(uniform.converged, "uniform baseline did not converge");
        let c = Comparison {
            name: "sweep/adaptive_vs_fixed_samples_to_bound".into(),
            legacy_ns: uniform.total_demands as f64,
            fast_ns: adaptive.total_demands as f64,
        };
        println!(
            "{:<44} {:>10.0} -> {:>9.0} samples  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        results.push(c);
    }

    // --- protection/markov_sparse: 16M cells on demand -----------------
    // The sparse on-demand compiler: a 4096 x 4096 plant (16,777,216
    // cells — four times past the eager compiler's MAX_COMPILED_CELLS
    // ceiling) rides the compiled analytic fast path, with only the
    // states the walk actually visits ever compiled. The legacy side is
    // the PR 1 tick loop; the sparse backend is first asserted
    // bit-identical to the eager compiler on a small both-backends
    // space.
    {
        let regions = vec![Region::rect(0, 0, 2, 2), Region::rect(1, 1, 3, 3)];
        let channels = || {
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ]
        };
        // Identity gate: both backends exist for a small space and must
        // produce the same bits for the same seed.
        let small = GridSpace2D::new(64, 64).expect("valid space");
        let small_map = FaultRegionMap::new(small, regions.clone()).expect("valid map");
        let small_system = ProtectionSystem::new(channels(), Adjudicator::OneOutOfN, small_map)
            .expect("valid system");
        let small_plant =
            Plant::markov_walk(small, Region::rect(0, 0, 4, 4), 2, 0.002).expect("valid plant");
        let eager = CompiledPlant::compile_eager(&small_plant)
            .expect("compilable")
            .expect("markov plants compile");
        let sparse = CompiledPlant::compile_sparse(&small_plant)
            .expect("compilable")
            .expect("markov plants compile");
        assert!(!eager.is_sparse() && sparse.is_sparse());
        for seed in 900u64..910 {
            let mut rng_e = StdRng::seed_from_u64(seed);
            let mut rng_s = StdRng::seed_from_u64(seed);
            let e = simulation::run_compiled(&eager, &small_system, 50_000, &mut rng_e)
                .expect("eager runs");
            let s = simulation::run_compiled(&sparse, &small_system, 50_000, &mut rng_s)
                .expect("sparse runs");
            assert_eq!(
                format!("{e:?}"),
                format!("{s:?}"),
                "sparse backend diverged from the eager compiler at seed {seed}"
            );
        }

        let space = GridSpace2D::new(4096, 4096).expect("valid space");
        let map = FaultRegionMap::new(space, regions).expect("valid map");
        let system =
            ProtectionSystem::new(channels(), Adjudicator::OneOutOfN, map).expect("valid system");
        let plant =
            Plant::markov_walk(space, Region::rect(0, 0, 4, 4), 2, 0.002).expect("valid plant");
        let compiled = CompiledPlant::compile(&plant)
            .expect("compilable")
            .expect("markov plants compile");
        assert!(
            compiled.is_sparse(),
            "a 16.7M-cell space must take the sparse path"
        );
        let steps = 400_000u64;
        let mut seed_l = 900u64;
        let mut seed_f = 900u64;
        let c = Comparison::measure(
            "protection/markov_sparse/16M_cells",
            || {
                seed_l += 1;
                let mut rng = StdRng::seed_from_u64(seed_l);
                black_box(
                    simulation::run_stepwise(&plant, &system, steps, &mut rng).expect("runs"),
                );
            },
            || {
                seed_f += 1;
                let mut rng = StdRng::seed_from_u64(seed_f);
                black_box(
                    simulation::run_compiled(&compiled, &system, steps, &mut rng).expect("runs"),
                );
            },
        );
        println!(
            "{:<44} {:>10.1} -> {:>9.1} ns  ({:.2}x)",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        );
        println!(
            "{:<44} {} of {} states compiled ({:.5}% occupancy)",
            "  sparse backend",
            compiled.compiled_states(),
            compiled.states(),
            compiled.occupancy() * 100.0
        );
        results.push(c);
    }

    let json = to_json(10, &results);
    std::fs::write(&out_path, &json).expect("write bench export");
    println!("\nwrote {out_path}");
    let below: Vec<&Comparison> = results.iter().filter(|c| c.speedup() < 5.0).collect();
    if !below.is_empty() {
        println!("note: {} comparison(s) below 5x:", below.len());
        for c in below {
            println!("  {} at {:.2}x", c.name, c.speedup());
        }
    }
}
