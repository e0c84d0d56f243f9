//! The sweep-sharding engine's headline guarantees, asserted end-to-end:
//!
//! 1. **Bit-identity across thread counts** — the same sweep seed gives
//!    byte-for-byte identical reduced results at 1, 2 and 7 workers, for
//!    the devsim Monte-Carlo grid, the ported bench sweeps and a grid of
//!    protection campaigns.
//! 2. **Order-insensitivity of `SweepReduce` merges** — a proptest
//!    shuffles the cell listing arbitrarily and the reduced output does
//!    not move a bit (the fold is by canonical cell index, never by
//!    schedule or listing order).
//! 3. **Statistical faithfulness of stream splitting** — chi-squared
//!    homogeneity between sharded (split-stream) and sequential
//!    (single-stream) PFD samples of the same grid: sharding must not
//!    distort the sampled distribution (p > 0.01), and the sharded
//!    sample must match the exact analytic law (p > 0.01).

use divrel::demand::mapping::FaultRegionMap;
use divrel::demand::profile::Profile;
use divrel::demand::region::Region;
use divrel::demand::space::GridSpace2D;
use divrel::demand::version::ProgramVersion;
use divrel::devsim::experiment::MonteCarloExperiment;
use divrel::devsim::process::FaultIntroduction;
use divrel::devsim::sweep::{run_sweep, SweepCell, SweepGrid};
use divrel::model::FaultModel;
use divrel::numerics::descriptive::Moments;
use divrel::numerics::ks::{chi_squared_gof, chi_squared_homogeneity};
use divrel::numerics::weighted_sum::WeightedBernoulliSum;
use divrel::protection::adjudicator::Adjudicator;
use divrel::protection::channel::Channel;
use divrel::protection::plant::Plant;
use divrel::protection::simulation;
use divrel::protection::system::ProtectionSystem;
use divrel::protection::OperationLog;
use divrel_bench::sweep::{forced_sweep, kl_sweep, pfd_sample_sweep};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model() -> FaultModel {
    FaultModel::from_params(
        &[0.10, 0.07, 0.05, 0.03, 0.02, 0.01],
        &[0.004, 0.010, 0.002, 0.020, 0.006, 0.030],
    )
    .expect("valid model")
}

#[test]
fn monte_carlo_grid_is_bit_identical_across_thread_counts() {
    let base = MonteCarloExperiment::new(model(), FaultIntroduction::Independent)
        .samples(12_000)
        .seed(2001)
        .threads(1)
        .run()
        .expect("runs");
    for threads in [2usize, 7] {
        let r = MonteCarloExperiment::new(model(), FaultIntroduction::Independent)
            .samples(12_000)
            .seed(2001)
            .threads(threads)
            .run()
            .expect("runs");
        // Structural equality AND bit equality of every float statistic.
        assert_eq!(base, r, "threads = {threads}");
        for (a, b) in [
            (base.single.mean_pfd, r.single.mean_pfd),
            (base.single.std_pfd, r.single.std_pfd),
            (base.pair.mean_pfd, r.pair.mean_pfd),
            (base.pair.std_pfd, r.pair.std_pfd),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
        }
    }
}

#[test]
fn ported_bench_sweeps_are_bit_identical_across_thread_counts() {
    let m = model();
    let kl1 = kl_sweep(&m, 20, 2001, 1).expect("runs");
    let forced1 = forced_sweep(500, 2001, 1).expect("runs");
    let pfd1 = pfd_sample_sweep(&m, FaultIntroduction::Independent, 3_000, 2001, 1).expect("runs");
    for threads in [2usize, 7] {
        assert_eq!(kl1, kl_sweep(&m, 20, 2001, threads).expect("runs"));
        assert_eq!(forced1, forced_sweep(500, 2001, threads).expect("runs"));
        assert_eq!(
            pfd1,
            pfd_sample_sweep(&m, FaultIntroduction::Independent, 3_000, 2001, threads)
                .expect("runs")
        );
    }
    // And the f64 accumulator is bitwise stable, not just approximately.
    let forced7 = forced_sweep(500, 2001, 7).expect("runs");
    assert_eq!(
        forced1.advantage_sum.to_bits(),
        forced7.advantage_sum.to_bits()
    );
}

#[test]
fn protection_campaign_grid_is_bit_identical_across_thread_counts() {
    // Rate-plant campaigns as sweep cells, 8 cells of 20,000 steps,
    // reduced through OperationLog's SweepReduce merge.
    let space = GridSpace2D::new(50, 50).expect("valid space");
    let profile = Profile::uniform(&space);
    let regions = vec![Region::rect(0, 0, 9, 9), Region::rect(5, 5, 14, 14)];
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
    let plant = Plant::with_demand_rate(profile, 0.05).expect("valid plant");
    let grid = SweepGrid::new(2001, vec![20_000u64; 8]);
    let campaign = |threads: usize| -> OperationLog {
        run_sweep(grid.cells(), threads, |cell| {
            let mut rng = StdRng::seed_from_u64(cell.seed);
            simulation::run(&plant, &system, cell.config, &mut rng).expect("runs")
        })
        .expect("non-empty grid")
    };
    let base = campaign(1);
    assert!(base.demands() > 0 && base.system_failures() > 0);
    for threads in [2usize, 7] {
        assert_eq!(base, campaign(threads), "threads = {threads}");
    }
}

fn sweep_moments(cells: &[SweepCell<u32>], threads: usize) -> Moments {
    run_sweep(cells, threads, |cell| {
        let mut rng = StdRng::seed_from_u64(cell.seed);
        let mut m = Moments::new();
        for _ in 0..40 {
            m.push(rng.gen::<f64>());
        }
        m
    })
    .expect("non-empty grid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn shuffled_cell_order_reduces_bit_identically(
        shuffle_seed in 0u64..u64::MAX,
        threads in 1usize..5,
        sweep_seed in 0u64..1000,
    ) {
        let grid = SweepGrid::new(sweep_seed, (0..24u32).collect::<Vec<_>>());
        let canonical = sweep_moments(grid.cells(), 1);
        // Re-list the same cells in an arbitrary order (Fisher–Yates from
        // the proptest-drawn seed); the reduce must fold by cell index,
        // so the result cannot move a bit.
        let mut shuffled: Vec<SweepCell<u32>> = grid.cells().to_vec();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let reduced = sweep_moments(&shuffled, threads);
        prop_assert_eq!(reduced.count(), canonical.count());
        prop_assert_eq!(
            reduced.mean().unwrap().to_bits(),
            canonical.mean().unwrap().to_bits()
        );
        prop_assert_eq!(
            reduced.sample_variance().unwrap().to_bits(),
            canonical.sample_variance().unwrap().to_bits()
        );
    }
}

/// Buckets PFD samples into counts over the exact atom set of the
/// reference distribution (nearest atom, as in `chi_squared_gof`).
fn atom_counts(sample: &[f64], reference: &WeightedBernoulliSum) -> Vec<u64> {
    let values: Vec<f64> = reference.atoms().iter().map(|a| a.value).collect();
    let mut counts = vec![0u64; values.len()];
    for &x in sample {
        let idx = match values.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => i,
            Err(i) => {
                let lo = i.checked_sub(1);
                let hi = (i < values.len()).then_some(i);
                [lo, hi]
                    .into_iter()
                    .flatten()
                    .min_by(|&a, &b| (values[a] - x).abs().total_cmp(&(values[b] - x).abs()))
                    .expect("reference has atoms")
            }
        };
        counts[idx] += 1;
    }
    counts
}

#[test]
fn sharded_and_sequential_pfd_samples_are_homogeneous() {
    let m = model();
    let n = 6_000;
    // Sharded: split streams over a 7-thread grid.
    let sharded = pfd_sample_sweep(&m, FaultIntroduction::Independent, n, 31, 7).expect("runs");
    // Sequential: one classic single-stream RNG walk over the same grid
    // size (the pre-sweep execution model).
    let (seq_singles, seq_pairs) =
        MonteCarloExperiment::new(m.clone(), FaultIntroduction::Independent)
            .samples(n)
            .seed(77)
            .sample_pfds()
            .expect("runs");
    let exact1 = WeightedBernoulliSum::enumerate(&m.terms(1)).expect("enumerable");
    let exact2 = WeightedBernoulliSum::enumerate(&m.terms(2)).expect("enumerable");
    // Homogeneity: sharding must not distort the sampled distribution.
    let t1 = chi_squared_homogeneity(
        &atom_counts(&sharded.singles, &exact1),
        &atom_counts(&seq_singles, &exact1),
    )
    .expect("testable");
    assert!(
        t1.p_value > 0.01,
        "single-version samples heterogeneous: chi2 = {}, p = {}",
        t1.statistic,
        t1.p_value
    );
    let t2 = chi_squared_homogeneity(
        &atom_counts(&sharded.pairs, &exact2),
        &atom_counts(&seq_pairs, &exact2),
    )
    .expect("testable");
    assert!(
        t2.p_value > 0.01,
        "pair samples heterogeneous: chi2 = {}, p = {}",
        t2.statistic,
        t2.p_value
    );
    // And absolute goodness of fit of the sharded sample against the
    // exact law — split streams must sample the true distribution.
    let gof = chi_squared_gof(&sharded.singles, &exact1).expect("testable");
    assert!(
        gof.p_value > 0.01,
        "sharded sample rejected against exact law: p = {}",
        gof.p_value
    );
}
