//! # divrel-bench
//!
//! The reproduction harness: one experiment module per table/figure/result
//! of Popov & Strigini (DSN 2001), each regenerating the paper's artifact
//! and reporting paper-value vs measured-value side by side.
//!
//! | ID | Paper artifact | Module |
//! |----|----------------|--------|
//! | E1 | §3 eq (1)–(3) moment formulas vs Monte Carlo | [`experiments::moments`] |
//! | E2/E3 | §3.1 lemmas (4) and (9) | [`experiments::lemmas`] |
//! | E4 | §4.1 eq (10) risk ratio | [`experiments::fault_free`] |
//! | E5 | §4.2.1 + Appendix A gain reversal | [`experiments::appendix_a`] |
//! | E6 | §4.2.2 + Appendix B monotonicity | [`experiments::appendix_b`] |
//! | E7 | §5.1 β-factor table | [`experiments::beta_factor`] |
//! | E8 | §5.1 worked example | [`experiments::worked_example`] |
//! | E9–E11 | §5.2 conjectures | [`experiments::bound_conjectures`] |
//! | E12 | §5 normal-approximation quality | [`experiments::normal_quality`] |
//! | E13–E15 | §6 assumption sensitivity | [`experiments::sensitivity`] |
//! | E16 | §7 Knight–Leveson qualitative check | [`experiments::knight_leveson`] |
//! | F1 | Fig 1 protection system in operation | [`experiments::protection_f1`] |
//! | F2 | Fig 2 failure regions | [`experiments::failure_regions`] |
//!
//! Run everything with `cargo run -p divrel-bench --release --bin
//! all_experiments`, or name experiments by ID to run just those
//! (`… --bin all_experiments -- --smoke E1 F2`).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adaptive;
pub mod context;
pub mod dist;
pub mod experiments;
pub mod job;
pub mod perf;
pub mod scenario;
pub mod sweep;
pub mod toml;

pub use context::{Context, Summary};
pub use scenario::Scenario;

/// An experiment entry point: takes the shared context, returns a summary.
pub type Runner = fn(&Context) -> Result<Summary, Box<dyn std::error::Error>>;

/// A registry entry: `(id, title, runner)`.
pub type RegistryEntry = (&'static str, &'static str, Runner);

/// All experiments in paper order.
pub fn registry() -> Vec<RegistryEntry> {
    vec![
        (
            "E1",
            "Eq (1)-(3) moments vs Monte Carlo",
            experiments::moments::run,
        ),
        (
            "E2-E3",
            "Section 3.1 lemmas (4) and (9)",
            experiments::lemmas::run,
        ),
        (
            "E4",
            "Section 4.1 eq (10) risk ratio",
            experiments::fault_free::run,
        ),
        (
            "E5",
            "Appendix A gain reversal",
            experiments::appendix_a::run,
        ),
        (
            "E6",
            "Appendix B proportional monotonicity",
            experiments::appendix_b::run,
        ),
        (
            "E7",
            "Section 5.1 beta-factor table",
            experiments::beta_factor::run,
        ),
        (
            "E8",
            "Section 5.1 worked example",
            experiments::worked_example::run,
        ),
        (
            "E9-E11",
            "Section 5.2 conjectures",
            experiments::bound_conjectures::run,
        ),
        (
            "E12",
            "Normal approximation quality",
            experiments::normal_quality::run,
        ),
        (
            "E13-E15",
            "Section 6 assumption sensitivity",
            experiments::sensitivity::run,
        ),
        (
            "E16",
            "Section 7 Knight-Leveson check",
            experiments::knight_leveson::run,
        ),
        (
            "F1",
            "Fig 1 protection system",
            experiments::protection_f1::run,
        ),
        (
            "F2",
            "Fig 2 failure regions",
            experiments::failure_regions::run,
        ),
        (
            "E17",
            "Forced diversity and 1-out-of-N",
            experiments::forced_diversity::run,
        ),
        (
            "E18",
            "Testing effects on the diversity gain",
            experiments::testing_effects::run,
        ),
        (
            "E19",
            "Eckhardt-Lee difficulty-function bridge",
            experiments::el_bridge::run,
        ),
        (
            "E20",
            "Functional diversity continuum",
            experiments::functional_diversity::run,
        ),
        ("E21", "Implied IEC beta-factor", experiments::beta_ccf::run),
        (
            "E22",
            "Epistemic parameter uncertainty",
            experiments::ensemble_uncertainty::run,
        ),
        (
            "A1",
            "Lattice resolution ablation",
            experiments::lattice_ablation::run,
        ),
    ]
}

/// The registry entries named by `ids`, in registry order; every entry
/// when `ids` is empty.
///
/// # Errors
///
/// A message naming the first unknown ID and listing the known ones.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<RegistryEntry>, String> {
    let entries = registry();
    if let Some(unknown) = ids
        .iter()
        .find(|id| !entries.iter().any(|(known, ..)| *known == id.as_ref()))
    {
        let known: Vec<&str> = entries.iter().map(|(id, ..)| *id).collect();
        return Err(format!(
            "unknown experiment ID {:?}; known IDs: {}",
            unknown.as_ref(),
            known.join(" ")
        ));
    }
    Ok(entries
        .into_iter()
        .filter(|(id, ..)| ids.is_empty() || ids.iter().any(|x| x.as_ref() == *id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let ids: Vec<&str> = registry().iter().map(|(id, ..)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate registry IDs in {ids:?}");
    }

    #[test]
    fn select_keeps_registry_order_and_refuses_unknown_ids() {
        assert_eq!(select::<&str>(&[]).unwrap().len(), registry().len());
        let picked: Vec<&str> = select(&["F2", "E1"])
            .unwrap()
            .iter()
            .map(|(id, ..)| *id)
            .collect();
        assert_eq!(picked, ["E1", "F2"]);
        let err = select(&["E1", "E99"]).map(|_| ()).unwrap_err();
        assert!(err.contains("\"E99\"") && err.contains("E2-E3 "), "{err}");
    }
}
