//! The measurement core of the `bench` binary: wall-clock timing, one
//! [`Row`] per comparison, and the schema-2 export.
//!
//! A row compares a baseline side (`legacy`) with the current path
//! (`fast`) in one unit: nanoseconds per iteration, or the samples an
//! estimator needs. A gated row also carries the least speedup it must
//! show. [`Bench::push`] prints each row as it is recorded, with its
//! verdict when it is gated, and [`Bench::finish`] writes the export and
//! fails the run if any gated row misses its gate. An overhead budget
//! `fast / legacy − 1 ≤ x` is the gate `speedup ≥ 1 / (1 + x)`.

use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Iterations of `f` in one ~10 ms sample, from a ~5 ms calibration.
fn sample_iters<F: FnMut()>(f: &mut F) -> u64 {
    let mut iters: u64 = 1;
    let per_iter = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos();
        if ns >= 5_000_000 || iters >= 1 << 30 {
            break ns as f64 / iters as f64;
        }
        iters = iters.saturating_mul(4);
    };
    ((10.0e6 / per_iter.max(0.5)) as u64).max(1)
}

/// Nanoseconds per iteration over one sample of `iters` calls.
fn sample_ns<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// The least, median and greatest of one side's samples.
#[derive(Debug, Clone, Copy)]
struct Spread {
    min: f64,
    median: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }
}

/// Nanoseconds per iteration of each side over 31 samples. The sides
/// take their samples in alternation, so bursts of load on the host
/// land on both alike instead of skewing their ratio: on a shared
/// 2-vCPU host, timing one side after the other failed the 10% overhead
/// gate of two sides with identical bits in most runs.
fn time_pair<L: FnMut(), F: FnMut()>(mut legacy: L, mut fast: F) -> (Spread, Spread) {
    let (legacy_iters, fast_iters) = (sample_iters(&mut legacy), sample_iters(&mut fast));
    let (l, f): (Vec<f64>, Vec<f64>) = (0..31)
        .map(|_| {
            (
                sample_ns(&mut legacy, legacy_iters),
                sample_ns(&mut fast, fast_iters),
            )
        })
        .unzip();
    (Spread::of(l), Spread::of(f))
}

/// The commit checked out in the source tree this binary was built
/// from, suffixed `-dirty` when that tree has uncommitted changes, or
/// `None` when git or the checkout is missing. Tags are excluded, so
/// it is always a commit hash. It is read when the binary runs, so it
/// names the tree's state then.
fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "describe", "--always"])
        .args(["--dirty", "--abbrev=40", "--exclude=*"])
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| rev.trim().to_string())
}

/// One comparison row of the export.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Row name (`group/case` convention).
    name: String,
    /// What both sides count: `"ns"` per iteration or `"samples"`.
    unit: &'static str,
    /// The baseline side (the median sample of an `ns` row).
    legacy: f64,
    /// The current side (the median sample of an `ns` row).
    fast: f64,
    /// The least and greatest baseline sample of an `ns` row.
    legacy_min: Option<f64>,
    legacy_max: Option<f64>,
    /// The least and greatest current sample of an `ns` row.
    fast_min: Option<f64>,
    fast_max: Option<f64>,
    /// `legacy / fast`: how many times less the current side costs.
    speedup: f64,
    /// The gate: the run fails unless `speedup >= min_speedup`.
    min_speedup: Option<f64>,
}

impl Row {
    /// Times both sides (ns per iteration, after calibration) into an
    /// ungated `ns` row of their medians and extremes.
    pub fn time<L: FnMut(), F: FnMut()>(name: &str, legacy: L, fast: F) -> Row {
        let (l, f) = time_pair(legacy, fast);
        Row {
            legacy_min: Some(l.min),
            legacy_max: Some(l.max),
            fast_min: Some(f.min),
            fast_max: Some(f.max),
            ..Row::new(name, "ns", l.median, f.median)
        }
    }

    /// An ungated row of sample counts.
    pub fn samples(name: &str, legacy: f64, fast: f64) -> Row {
        Row::new(name, "samples", legacy, fast)
    }

    fn new(name: &str, unit: &'static str, legacy: f64, fast: f64) -> Row {
        Row {
            name: name.to_string(),
            unit,
            legacy,
            fast,
            legacy_min: None,
            legacy_max: None,
            fast_min: None,
            fast_max: None,
            speedup: legacy / fast,
            min_speedup: None,
        }
    }

    /// The same row, gated at `min` speedup.
    pub fn gate(self, min: f64) -> Row {
        Row {
            min_speedup: Some(min),
            ..self
        }
    }

    /// Whether the row meets its gate; an ungated row always does.
    fn passes(&self) -> bool {
        self.min_speedup.is_none_or(|min| self.speedup >= min)
    }
}

/// A bench run: the measuring host's core count, the commit measured
/// and the rows so far.
#[derive(Debug, Serialize)]
pub struct Bench {
    schema: u32,
    host_cores: usize,
    git_revision: Option<String>,
    rows: Vec<Row>,
}

impl Bench {
    /// An empty run on a host with `host_cores` available cores.
    pub fn new(host_cores: usize) -> Bench {
        Bench {
            schema: 2,
            host_cores,
            git_revision: git_revision(),
            rows: Vec::new(),
        }
    }

    /// Records a row: prints it, with its verdict when it is gated, and
    /// adds it to the export.
    pub fn push(&mut self, row: Row) {
        let digits = usize::from(row.unit == "ns");
        let verdict = match row.min_speedup {
            Some(min) if row.passes() => format!("  ok, gate {min:.2}x"),
            Some(min) => format!("  MISS, gate {min:.2}x"),
            None => String::new(),
        };
        println!(
            "{:<44} {:>10.digits$} -> {:>9.digits$} {}  ({:.2}x){verdict}",
            row.name, row.legacy, row.fast, row.unit, row.speedup
        );
        self.rows.push(row);
    }

    /// Writes the schema-2 export to `path`:
    /// `{"schema": 2, "host_cores", "git_revision", "rows": [{"name",
    /// "unit", "legacy", "fast", "legacy_min", "legacy_max", "fast_min",
    /// "fast_max", "speedup", "min_speedup"}]}`. The extremes are `null`
    /// in a `samples` row, and `git_revision` is `null` outside a git
    /// checkout.
    ///
    /// # Errors
    ///
    /// A failed write, or the gated rows below their gate (the export
    /// is written first, so it records the misses too).
    pub fn finish(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        let misses: Vec<String> = self
            .rows
            .iter()
            .filter(|r| !r.passes())
            .map(|r| format!("{} at {:.2}x", r.name, r.speedup))
            .collect();
        if misses.is_empty() {
            Ok(())
        } else {
            Err(format!("rows below their gate: {}", misses.join(", ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn export_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("divrel-perf-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn exports_schema_two() {
        let mut bench = Bench::new(2);
        bench.push(Row::samples("g/samples", 100.0, 20.0).gate(3.0));
        let tick = || {
            std::hint::black_box(1u64);
        };
        bench.push(Row::time("g/ns", tick, tick));
        assert!((bench.rows[0].speedup - 5.0).abs() < 1e-12);
        let path = export_path("schema");
        bench.finish(&path).expect("every gate met");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(v["schema"], 2.0);
        assert_eq!(v["host_cores"], 2.0);
        let rows = v["rows"].as_seq().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["name"], "g/samples");
        assert_eq!(rows[0]["unit"], "samples");
        assert_eq!(rows[0]["legacy"], 100.0);
        assert_eq!(rows[0]["fast"], 20.0);
        assert_eq!(rows[0]["speedup"], 5.0);
        assert_eq!(rows[0]["min_speedup"], 3.0);
        assert_eq!(rows[0]["legacy_min"], serde_json::Value::Null);
        assert_eq!(rows[0]["fast_max"], serde_json::Value::Null);
        assert_eq!(rows[1]["unit"], "ns");
        assert_eq!(rows[1]["min_speedup"], serde_json::Value::Null);
        for side in ["legacy", "fast"] {
            let at = |key: String| rows[1][key.as_str()].as_f64().unwrap();
            let (min, max) = (at(format!("{side}_min")), at(format!("{side}_max")));
            assert!(0.0 < min && min <= at(side.to_string()) && at(side.to_string()) <= max);
        }
        match &v["git_revision"] {
            serde_json::Value::Null => {}
            rev => {
                let rev = rev.as_str().unwrap();
                let hash = rev.strip_suffix("-dirty").unwrap_or(rev);
                assert!(hash.len() == 40 && hash.chars().all(|c| c.is_ascii_hexdigit()));
            }
        }
    }

    #[test]
    fn a_row_below_its_gate_fails_the_run() {
        let mut bench = Bench::new(1);
        bench.push(Row::samples("g/met", 10.0, 1.0).gate(10.0));
        bench.push(Row::samples("g/ungated", 1.0, 10.0));
        assert!(bench.rows.iter().all(Row::passes));
        // An overhead budget of 10% is the gate 1/1.1: 11% over misses.
        bench.push(Row::samples("g/overhead", 100.0, 111.0).gate(1.0 / 1.10));
        assert!(!bench.rows[2].passes());
        let path = export_path("miss");
        let err = bench
            .finish(&path)
            .expect_err("a missed gate fails the run");
        assert!(
            err.contains("g/overhead") && !err.contains("g/met"),
            "{err}"
        );
        // The export is still written, recording the miss.
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(v["rows"].as_seq().unwrap().len(), 3);
    }

    #[test]
    fn time_pair_returns_positive() {
        let (mut a, mut b) = (0u64, 0u64);
        let (l, f) = time_pair(
            || a = a.wrapping_add(std::hint::black_box(1)),
            || b = b.wrapping_add(std::hint::black_box(2)),
        );
        for s in [l, f] {
            assert!(0.0 < s.min && s.min <= s.median && s.median <= s.max);
        }
    }
}
