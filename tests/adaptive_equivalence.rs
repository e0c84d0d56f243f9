//! The adaptive family's demand trials, checked two ways.
//!
//! **Sampler equivalence.** `AdaptivePfdRuntime::run_cell` draws a
//! cell's failure count as the geometric gaps between failures: one
//! draw per failure instead of one per demand. It must still draw the
//! count from Binomial(`demands`, `pfd`). Models with `ps = [1.0]` pin
//! every cell's PFD to `q`, so the public runtime runs at chosen PFDs.
//! At each of five PFDs, 4000 cells × 400 demands on a pinned seed, the
//! failure counts are tested against the exact law
//! (`PoissonBinomial` over 400 equal trials, chi-squared goodness of
//! fit) and against the per-demand reference loop the runtime used
//! before (chi-squared homogeneity). Each of these 10 tests accepts at
//! p > α = 1e-3, so a reseed of a correct sampler raises a false alarm
//! with probability at most 10 × 1e-3 = 1% (Bonferroni).
//!
//! **Calibration of the credible bounds.** The committed adaptive spec
//! reports, per cell, the `[1 − c, c]` posterior interval at
//! `c = confidence = 0.99`, nominally 98%. Its versions are sampled from
//! the very fault model its exact discrete prior is built from, so given
//! the data each cell's truth lies outside the interval with probability
//! below 2%, independently across cells, whatever the round loop
//! allocated. Over 400 pinned seeds (9600 cells) the miss count is
//! therefore dominated by Binomial(9600, 0.02), and the one-sided gate,
//! which fails when misses exceed that law's `1 − 1e-3` quantile, raises
//! a false alarm with probability at most 1e-3. An interval that covers
//! less often than it claims fails it.

use divrel::devsim::adaptive::AdaptivePfdRuntime;
use divrel::model::FaultModel;
use divrel::numerics::ks::{chi_squared_counts, chi_squared_homogeneity};
use divrel::numerics::special::ln_binomial;
use divrel::numerics::sweep::split_seed;
use divrel::numerics::PoissonBinomial;
use divrel_bench::adaptive::{drive, AllocationStrategy};
use divrel_bench::job::in_process_rounds;
use divrel_bench::scenario::{ExperimentSpec, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The PFDs tested, with the pinned seed of each.
const PFDS: [(f64, u64); 5] = [
    (1e-4, 101),
    (0.004, 102),
    (0.03, 103),
    (0.034, 104),
    (0.5, 105),
];
const CELLS: usize = 4000;
const DEMANDS: u64 = 400;
/// Per-test false-alarm rate of the sampler tests.
const ALPHA: f64 = 1e-3;

/// Histogram over `0..=DEMANDS` of the failure counts the public runtime
/// draws for `CELLS` cells whose PFD is pinned to `pfd`.
fn gap_counts(pfd: f64, seed: u64) -> Vec<u64> {
    let model = FaultModel::from_params(&[1.0], &[pfd]).expect("valid model");
    let runtime = AdaptivePfdRuntime::new(Arc::new(model), seed, CELLS).expect("valid runtime");
    let mut histogram = vec![0u64; DEMANDS as usize + 1];
    for cell in 0..CELLS {
        assert_eq!(runtime.true_pfd(cell), pfd, "ps = [1] pins the PFD");
        let evidence = runtime.run_cell(cell, DEMANDS, 0);
        assert_eq!(evidence.demands, DEMANDS);
        histogram[evidence.failures as usize] += 1;
    }
    histogram
}

/// The same histogram from the reference sampler: one uniform per
/// demand, failing below `pfd` (the loop `run_cell` ran before gap
/// sampling), on its own pinned streams.
fn reference_counts(pfd: f64, seed: u64) -> Vec<u64> {
    let mut histogram = vec![0u64; DEMANDS as usize + 1];
    for cell in 0..CELLS {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, cell as u64));
        let failures = (0..DEMANDS).filter(|_| rng.gen::<f64>() < pfd).count();
        histogram[failures] += 1;
    }
    histogram
}

#[test]
fn gap_failure_counts_follow_the_exact_binomial_law() {
    let mut verdicts = Vec::new();
    for (pfd, seed) in PFDS {
        let law = PoissonBinomial::new(&[pfd; DEMANDS as usize]).expect("valid law");
        let t = chi_squared_counts(&gap_counts(pfd, seed), law.pmf_vec()).expect("testable");
        verdicts.push((pfd, t.p_value));
    }
    assert!(
        verdicts.iter().all(|&(_, p)| p > ALPHA),
        "p-values by pfd: {verdicts:?}"
    );
}

#[test]
fn gap_failure_counts_match_the_per_demand_reference_loop() {
    let mut verdicts = Vec::new();
    for (pfd, seed) in PFDS {
        let t = chi_squared_homogeneity(&gap_counts(pfd, seed), &reference_counts(pfd, seed + 100))
            .expect("testable");
        verdicts.push((pfd, t.p_value));
    }
    assert!(
        verdicts.iter().all(|&(_, p)| p > ALPHA),
        "p-values by pfd: {verdicts:?}"
    );
}

/// Coverage of reported intervals over pinned seeds: `(misses,
/// intervals)`, where `run(seed)` returns each interval as `(truth,
/// lower, upper)` and a miss is a truth outside `[lower, upper]`.
fn interval_misses(
    seeds: std::ops::RangeInclusive<u64>,
    run: impl Fn(u64) -> Vec<(f64, f64, f64)>,
) -> (u64, u64) {
    let (mut misses, mut intervals) = (0, 0);
    for seed in seeds {
        for (truth, lower, upper) in run(seed) {
            intervals += 1;
            misses += u64::from(!(lower <= truth && truth <= upper));
        }
    }
    (misses, intervals)
}

/// The smallest `k` with `P(Binomial(n, rate) ≤ k) ≥ level`, summing
/// the exact pmf upward from 0.
fn binomial_quantile(n: u64, rate: f64, level: f64) -> u64 {
    let mut cdf = 0.0;
    for k in 0..=n {
        let ln_pmf = ln_binomial(n, k).expect("k <= n")
            + k as f64 * rate.ln()
            + (n - k) as f64 * (-rate).ln_1p();
        cdf += ln_pmf.exp();
        if cdf >= level {
            return k;
        }
    }
    n
}

#[test]
fn adaptive_credible_bounds_cover_at_their_nominal_rate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/adaptive_confidence.toml"
    );
    let text = std::fs::read_to_string(path).expect("committed spec");
    let scenario = Scenario::from_spec_text(&text).expect("spec parses");
    let ExperimentSpec::AdaptivePfd {
        model,
        cells,
        refinement,
        ..
    } = scenario.experiment
    else {
        panic!("adaptive_confidence.toml is not an AdaptivePfd spec");
    };
    let model = Arc::new(model.build().expect("valid model"));
    let (misses, intervals) = interval_misses(1..=400, |seed| {
        let outcome = drive(
            Arc::clone(&model),
            seed,
            cells,
            &refinement,
            AllocationStrategy::PosteriorDriven,
            in_process_rounds(1),
        )
        .expect("adaptive drive");
        outcome
            .cells
            .iter()
            .map(|c| (c.true_pfd, c.lower, c.upper))
            .collect()
    });
    assert_eq!(intervals, 400 * cells as u64);
    let nominal_miss = 2.0 * (1.0 - refinement.confidence);
    let allowed = binomial_quantile(intervals, nominal_miss, 1.0 - 1e-3);
    assert!(
        misses <= allowed,
        "{misses} of {intervals} credible intervals missed the true PFD; \
         a {nominal_miss} miss rate allows at most {allowed}"
    );
}

#[test]
fn binomial_quantile_matches_known_values() {
    // P(Bin(10, 0.5) <= 7) = 0.9453, P(<= 8) = 0.9893.
    assert_eq!(binomial_quantile(10, 0.5, 0.95), 8);
    assert_eq!(binomial_quantile(10, 0.5, 0.9), 7);
    assert_eq!(binomial_quantile(4, 0.1, 1e-9), 0);
}
