//! Runs the paper-reproduction experiments and writes their artifacts
//! under `results/`.
//!
//! Usage: `cargo run -p divrel-bench --release --bin all_experiments --
//! [--smoke] [ID ...]`. With no ID it runs every `registry()` entry in
//! order and writes the verdicts to `results/SUMMARY.md`. With IDs it
//! runs just those entries, in registry order, and leaves the summary
//! alone. An unknown ID exits with status 2 and lists the known IDs.

use divrel_bench::{select, Context};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let ids: Vec<&String> = args.iter().filter(|a| *a != "--smoke").collect();
    let entries = select(&ids).unwrap_or_else(|e| {
        eprintln!("all_experiments: {e}");
        std::process::exit(2);
    });
    let mut ctx = Context::new();
    if smoke {
        ctx.scale = 0.02;
    }
    let mut failures = 0usize;
    let mut verdicts: Vec<(String, String)> = Vec::new();
    for (id, title, runner) in entries {
        println!("\n──────────────────────────────────────────────────────");
        println!("Running {id}: {title}");
        println!("──────────────────────────────────────────────────────");
        match runner(&ctx) {
            Ok(summary) => {
                println!("{}", summary.to_console());
                verdicts.push((format!("{id} — {title}"), summary.verdict));
            }
            Err(e) => {
                eprintln!("EXPERIMENT {id} FAILED: {e}");
                verdicts.push((format!("{id} — {title}"), format!("FAILED: {e}")));
                failures += 1;
            }
        }
    }
    println!("\n================= REPRODUCTION SUMMARY =================");
    let mut summary_md = String::from(
        "# Reproduction summary\n\nGenerated by `all_experiments`. One verdict \
         per paper artifact; detailed tables in the sibling directories.\n\n",
    );
    for (what, verdict) in &verdicts {
        println!("• {what}\n    {verdict}");
        summary_md.push_str(&format!("* **{what}** — {verdict}\n"));
    }
    summary_md.push_str(&format!(
        "\n{} experiments, {} failed.\n",
        verdicts.len(),
        failures
    ));
    // A run of named experiments leaves the full run's summary alone.
    if ids.is_empty() {
        let summary_path = ctx.results_root.join("SUMMARY.md");
        if let Err(e) = std::fs::write(&summary_path, summary_md) {
            eprintln!("could not write {}: {e}", summary_path.display());
        }
    }
    println!(
        "\n{} experiments, {} failed. Artifacts in {}/",
        verdicts.len(),
        failures,
        ctx.results_root.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
