//! One repetition of the divrel scenario benchmark.
//!
//! ```text
//! perfbench --workload <campaign_markov|rare_tilt|adaptive_rounds> --seed <n>
//!           --trace <0|1> --worker <path to scenario_run> --scratch <dir>
//!           [--setup-only]
//! ```
//!
//! A repetition generates the workload's spec, times set-up, runs the
//! in-process pass at one thread and the 2-worker fleet pass, checks
//! that both produced the same outcome, and prints one JSON line. With
//! `--trace 1` it prints per-layer figures instead: a traced
//! in-process pass and a fleet pass through a transport tap.
//! `perfbench/run.py` builds this binary, runs one fresh process per
//! repetition (so every repetition starts with cold process-wide
//! caches) and aggregates.

mod fleet;
mod layers;
mod workload;

use divrel_bench::dist::spec_hash;
use divrel_bench::scenario::{ExperimentSpec, ScenarioOutcome, ScenarioResult};
use divrel_bench::Scenario;
use divrel_numerics::weighted_sum::WeightedBernoulliSum;
use divrel_protection::compiler::CompiledPlant;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    worker: PathBuf,
    scratch: PathBuf,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    Ok(Args {
        workload: Workload::parse(value("--workload")?)?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        worker: PathBuf::from(value("--worker")?),
        scratch: PathBuf::from(value("--scratch")?),
        setup_only: argv.iter().any(|a| a == "--setup-only"),
    })
}

/// What one repetition measured and checked.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64)>,
    checks: u64,
    failures: Vec<String>,
    digest: String,
    rounds: usize,
    spec_hash: String,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The fleet (or traced) outcome must equal the in-process one,
    /// both as a value and as the card's results section.
    fn check_same(
        &mut self,
        pass: &str,
        name: &str,
        got: &ScenarioOutcome,
        want: &ScenarioOutcome,
    ) {
        let same =
            got == want && got.card(name).results_markdown() == want.card(name).results_markdown();
        self.check(same, || {
            format!("{pass} outcome differs from the in-process outcome")
        });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| serde_json::to_string(f).unwrap_or_else(|_| "\"?\"".into()))
            .collect();
        format!(
            "{{\"metrics\": {{{}}}, \"checks\": {}, \"failures\": [{}], \"digest\": \"{}\", \
             \"rounds\": {}, \"spec_hash\": \"{}\"}}",
            metrics.join(", "),
            self.checks,
            failures.join(", "),
            self.digest,
            self.rounds,
            self.spec_hash
        )
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (coordinator and in-process pass)
/// in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn repetition(args: &Args) -> ScenarioResult<Report> {
    let mut report = Report::default();
    let (generated, canonical) = workload::generate(args.workload, args.seed)?;
    report.spec_hash = spec_hash(&canonical);

    // Set-up: what a user pays before any cell runs. Timed cold: this
    // is the first thing the process does with the spec.
    let t = Instant::now();
    let scenario = Scenario::from_spec_text(&canonical)?;
    let parse_s = secs(t);
    let t = Instant::now();
    scenario.validate()?;
    let validate_s = secs(t);
    let t = Instant::now();
    workload::compile(&scenario)?;
    let compile_s = secs(t);
    if scenario != generated {
        return Err("the canonical spec text does not parse back to the generated spec".into());
    }
    if args.setup_only {
        report.put("setup_s", parse_s + validate_s + compile_s);
        return Ok(report);
    }

    let cache = WeightedBernoulliSum::cache_stats();
    let t = Instant::now();
    let expected = scenario.run(1)?;
    std::hint::black_box(expected.card(&scenario.name).to_markdown());
    let run_s = secs(t);
    let cache_after = WeightedBernoulliSum::cache_stats();
    let work = workload::work(&scenario, &expected);
    report.digest = spec_hash(&expected.card(&scenario.name).results_markdown());
    report.rounds = expected.as_adaptive().map_or(0, |a| a.rounds.len());
    if let Some(rare) = expected.as_rare_event() {
        report.check(
            (rare.estimate - rare.true_pfd).abs() <= 5.0 * rare.std_error,
            || {
                format!(
                "rare-event estimate {} is more than 5 standard errors ({}) from the true PFD {}",
                rare.estimate, rare.std_error, rare.true_pfd
            )
            },
        );
    }

    let tape = args.trace.then(fleet::Tape::default);
    let fleet = fleet::run(&scenario, &args.worker, tape.as_ref())?;
    report.check_same("fleet", &scenario.name, &fleet.outcome, &expected);

    if !args.trace {
        report.put("setup_s", parse_s + validate_s + compile_s);
        report.put("run_s", run_s);
        report.put("throughput", work / run_s);
        report.put("fleet_run_s", fleet.wall_s);
        report.put("fleet_throughput", work / fleet.wall_s);
        report.put("peak_rss_mb", peak_rss_mb());
        return Ok(report);
    }

    let (traced, layers) = layers::run(&scenario, &args.scratch)?;
    report.check_same("traced", &scenario.name, &traced, &expected);
    let (plant_s, states, occupancy) = match &scenario.experiment {
        ExperimentSpec::Protection(campaign) => {
            let plant = campaign.build_plant(&campaign.build_profile()?)?;
            let t = Instant::now();
            let compiled = CompiledPlant::compile(&plant)?;
            let plant_s = secs(t);
            compiled.map_or((plant_s, 0.0, 0.0), |c| {
                (plant_s, c.compiled_states() as f64, c.occupancy())
            })
        }
        _ => (0.0, 0.0, 0.0),
    };
    let mut cells = layers.cell_times.clone();
    cells.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        cells
            .get(((cells.len() as f64 - 1.0) * q).round() as usize)
            .copied()
    };
    let sum_u64 = |f: fn(&divrel_bench::dist::DistStats) -> u64| {
        fleet.stats.iter().map(f).sum::<u64>() as f64
    };

    report.put("toml.parse_s", parse_s);
    report.put("scenario.validate_s", validate_s);
    report.put("dist.compile_s", compile_s);
    report.put("compiler.plant_s", plant_s);
    report.put("compiler.states", states);
    report.put("compiler.occupancy", occupancy);
    report.put("kernel.busy_s", cells.iter().sum());
    report.put("kernel.cells", cells.len() as f64);
    report.put("kernel.cell_p50_s", quantile(0.5).unwrap_or(0.0));
    report.put("kernel.cell_p90_s", quantile(0.9).unwrap_or(0.0));
    report.put("wire.encode_s", layers.encode);
    report.put("wire.decode_s", layers.decode);
    report.put("wire.bytes", layers.wire_bytes as f64);
    report.put("fold.finish_s", layers.fold);
    report.put("journal.append_s", layers.journal);
    report.put("journal.bytes", layers.journal_bytes as f64);
    report.put("dist.job_compile_s", layers.job_compile);
    for (name, value) in tape.expect("traced runs record a tape").metrics() {
        report.put(name, value);
    }
    report.put("dist.leases", sum_u64(|s| s.leases));
    report.put("dist.retries", sum_u64(|s| s.retries));
    report.put("dist.coordinate_s", fleet.coordinate_s);
    report.put("adaptive.rounds", layers.rounds as f64);
    report.put("adaptive.exec_s", layers.exec);
    report.put("adaptive.posterior_s", layers.posterior);
    report.put(
        "numerics.terms_cache_hits",
        (cache_after.hits - cache.hits) as f64,
    );
    report.put(
        "numerics.terms_cache_misses",
        (cache_after.misses - cache.misses) as f64,
    );
    report.put("report.render_s", layers.render);
    report.put("trace.unattributed_s", layers.unattributed());
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match repetition(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
