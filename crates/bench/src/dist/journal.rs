//! Write-ahead lease journal: the durability layer of a distributed
//! sweep.
//!
//! The coordinator appends one line-delimited record per **completed
//! lease** — the leased [`CellRange`] plus its wire-encoded per-cell
//! accumulators — under a header that pins the spec fingerprint and the
//! grid size. A restarted coordinator replays the journal, pre-fills
//! every recorded cell, and re-leases only what is missing; because the
//! fold is per-cell in canonical order, the resumed run's results
//! section is **byte-identical** to an uninterrupted one.
//!
//! The format is deliberately boring: each line is one
//! [`Wire`] record rendered as JSON (the
//! same self-describing encoding the worker protocol uses — `f64`s as
//! bit patterns, counters as decimal strings), so a journal survives
//! hosts, architectures and text tooling.
//!
//! Robustness rules, enforced by [`Journal::resume`]:
//!
//! * a **truncated or garbled trailing line** (a torn write from a
//!   crash mid-append) is tolerated: the tail is dropped and the file
//!   truncated back to the last good record before new appends;
//! * **duplicate cell records** are first-write-wins, mirroring the
//!   coordinator's lease board (re-issued leases may complete twice);
//! * a journal whose header carries a **different `spec_hash`** (or
//!   grid size) is rejected loudly — resuming someone else's campaign
//!   would silently mix experiments.

use divrel_devsim::sweep::CellRange;
use divrel_numerics::wire::Wire;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal format revision. v2: adaptive cells draw their failures as
/// geometric gaps, so a v1 journal's evidence comes from another random
/// stream; resuming it would splice two streams into one run, and the
/// spec hash cannot tell them apart.
pub const JOURNAL_VERSION: u64 = 2;

/// A journal failure: I/O, a malformed non-trailing record, or a
/// header that does not match the campaign being resumed.
#[derive(Debug)]
pub struct JournalError(pub String);

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal error: {}", self.0)
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError(format!("I/O failure: {e}"))
    }
}

type JournalResult<T> = Result<T, JournalError>;

/// An append-only lease journal, open for writing.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    appends: u64,
}

/// What [`Journal::resume`] recovered from an existing journal file.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Recorded per-cell accumulators as `(cell index, wire)` pairs,
    /// already deduplicated first-write-wins.
    pub cells: Vec<(u64, Wire)>,
    /// Complete lease records replayed.
    pub records: u64,
    /// Whether a torn trailing line was dropped (the file has been
    /// truncated back to the last good record).
    pub torn_tail: bool,
}

fn header_record(spec_hash: &str, cell_count: u64) -> Wire {
    Wire::record([
        ("kind", Wire::Text("header".into())),
        ("journal", Wire::U64(JOURNAL_VERSION)),
        ("spec_hash", Wire::Text(spec_hash.to_string())),
        ("cells", Wire::U64(cell_count)),
    ])
}

fn lease_record(range: CellRange, cells: &[Wire]) -> Wire {
    Wire::record([
        ("kind", Wire::Text("cells".into())),
        ("start", Wire::U64(range.start)),
        ("end", Wire::U64(range.end)),
        ("cells", Wire::List(cells.to_vec())),
    ])
}

fn parse_line(line: &str) -> Result<Wire, String> {
    serde_json::from_str::<Wire>(line).map_err(|e| e.to_string())
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any previous file)
    /// and writes the header record pinning `spec_hash` and the grid
    /// size.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing the file.
    pub fn create(path: &Path, spec_hash: &str, cell_count: u64) -> JournalResult<Journal> {
        let mut file = File::create(path)
            .map_err(|e| JournalError(format!("cannot create {}: {e}", path.display())))?;
        let header = serde_json::to_string(&header_record(spec_hash, cell_count))
            .map_err(|e| JournalError(format!("cannot render header: {e}")))?;
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            appends: 0,
        })
    }

    /// Re-opens an existing journal for a resumed campaign: replays
    /// every complete lease record (first-write-wins per cell),
    /// tolerates a torn trailing line by truncating it away, and
    /// rejects a journal written for a different spec or grid.
    ///
    /// # Errors
    ///
    /// A missing/unreadable file, a missing or mismatched header, or a
    /// malformed record *before* the final line.
    pub fn resume(
        path: &Path,
        spec_hash: &str,
        cell_count: u64,
    ) -> JournalResult<(Journal, JournalLoad)> {
        let file = File::open(path)
            .map_err(|e| JournalError(format!("cannot open {}: {e}", path.display())))?;
        let mut reader = BufReader::new(file);
        let mut load = JournalLoad::default();
        let mut seen = vec![false; cell_count as usize];
        let mut good_bytes: u64 = 0;
        let mut line = String::new();
        let mut header_checked = false;
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| JournalError(format!("cannot read {}: {e}", path.display())))?;
            if n == 0 {
                break;
            }
            let complete = line.ends_with('\n');
            if line.trim().is_empty() {
                if complete {
                    good_bytes += n as u64;
                }
                continue;
            }
            let record = match parse_line(line.trim_end()) {
                Ok(w) if complete => w,
                // A torn or garbled tail — tolerated if and only if it
                // is the last thing in the file.
                bad => {
                    let mut rest = String::new();
                    reader.read_to_string(&mut rest).map_err(|e| {
                        JournalError(format!("cannot read {}: {e}", path.display()))
                    })?;
                    if rest.trim().is_empty() {
                        load.torn_tail = true;
                        break;
                    }
                    let why = match bad {
                        Ok(_) => "truncated line".to_string(),
                        Err(e) => e,
                    };
                    return Err(JournalError(format!(
                        "{}: corrupt record before end of journal ({why}); \
                         only a trailing torn write is recoverable",
                        path.display()
                    )));
                }
            };
            if !header_checked {
                Self::check_header(&record, path, spec_hash, cell_count)?;
                header_checked = true;
                good_bytes += n as u64;
                continue;
            }
            match Self::apply_record(&record, cell_count, &mut seen, &mut load.cells) {
                Ok(()) => {
                    load.records += 1;
                    good_bytes += n as u64;
                }
                Err(why) => {
                    // Same torn-tail rule as a parse failure: a shape
                    // error on the final line is a torn write.
                    let mut rest = String::new();
                    reader.read_to_string(&mut rest).map_err(|e| {
                        JournalError(format!("cannot read {}: {e}", path.display()))
                    })?;
                    if rest.trim().is_empty() {
                        load.torn_tail = true;
                        break;
                    }
                    return Err(JournalError(format!(
                        "{}: corrupt record before end of journal ({why})",
                        path.display()
                    )));
                }
            }
        }
        if !header_checked {
            return Err(JournalError(format!(
                "{}: journal has no header record",
                path.display()
            )));
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        // Drop any torn tail so the next append starts on a clean line
        // boundary.
        file.set_len(good_bytes)?;
        file.seek(SeekFrom::Start(good_bytes))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
                appends: 0,
            },
            load,
        ))
    }

    fn check_header(
        record: &Wire,
        path: &Path,
        spec_hash: &str,
        cell_count: u64,
    ) -> JournalResult<()> {
        let fail = |why: String| JournalError(format!("{}: {why}", path.display()));
        let kind = record
            .field("kind")
            .and_then(Wire::as_text)
            .map_err(|e| fail(format!("first record is not a header: {e}")))?;
        if kind != "header" {
            return Err(fail(format!(
                "first record has kind {kind:?}, expected \"header\""
            )));
        }
        let version = record
            .field("journal")
            .and_then(Wire::as_u64)
            .map_err(|e| fail(e.to_string()))?;
        if version != JOURNAL_VERSION {
            return Err(fail(format!(
                "journal format v{version}, this build reads v{JOURNAL_VERSION}"
            )));
        }
        let hash = record
            .field("spec_hash")
            .and_then(Wire::as_text)
            .map_err(|e| fail(e.to_string()))?;
        if hash != spec_hash {
            return Err(fail(format!(
                "journal was written for spec {hash}, but the current spec is {spec_hash} \
                 — refusing to resume a different campaign"
            )));
        }
        let cells = record
            .field("cells")
            .and_then(Wire::as_u64)
            .map_err(|e| fail(e.to_string()))?;
        if cells != cell_count {
            return Err(fail(format!(
                "journal grid has {cells} cells, the current spec compiles to {cell_count}"
            )));
        }
        Ok(())
    }

    fn apply_record(
        record: &Wire,
        cell_count: u64,
        seen: &mut [bool],
        out: &mut Vec<(u64, Wire)>,
    ) -> Result<(), String> {
        let kind = record
            .field("kind")
            .and_then(Wire::as_text)
            .map_err(|e| e.to_string())?;
        if kind != "cells" {
            return Err(format!("unexpected record kind {kind:?}"));
        }
        let start = record
            .field("start")
            .and_then(Wire::as_u64)
            .map_err(|e| e.to_string())?;
        let end = record
            .field("end")
            .and_then(Wire::as_u64)
            .map_err(|e| e.to_string())?;
        let cells = record
            .field("cells")
            .and_then(Wire::as_list)
            .map_err(|e| e.to_string())?;
        if end < start || end > cell_count {
            return Err(format!(
                "lease [{start}, {end}) is outside the {cell_count}-cell grid"
            ));
        }
        if cells.len() as u64 != end - start {
            return Err(format!(
                "lease [{start}, {end}) carries {} cell(s), expected {}",
                cells.len(),
                end - start
            ));
        }
        for (i, wire) in cells.iter().enumerate() {
            let index = start + i as u64;
            // First-write-wins: a re-issued lease may have completed
            // twice; the board keeps the first copy, so does the replay.
            if !seen[index as usize] {
                seen[index as usize] = true;
                out.push((index, wire.clone()));
            }
        }
        Ok(())
    }

    /// Appends one completed lease (its range plus per-cell wire
    /// accumulators) and flushes. Returns the number of appends this
    /// journal handle has written.
    ///
    /// # Errors
    ///
    /// Render or I/O failures — a journal that cannot take appends has
    /// lost its durability guarantee, so callers treat this as fatal.
    pub fn append(&mut self, range: CellRange, cells: &[Wire]) -> JournalResult<u64> {
        let line = serde_json::to_string(&lease_record(range, cells))
            .map_err(|e| JournalError(format!("cannot render lease record: {e}")))?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.appends += 1;
        Ok(self.appends)
    }

    /// Appends written through this handle (resumed records excluded).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "divrel-journal-{tag}-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn wire_cell(v: u64) -> Wire {
        Wire::record([("kind", Wire::Text("t".into())), ("data", Wire::U64(v))])
    }

    #[test]
    fn create_append_resume_round_trips() {
        let path = temp_path("round");
        let mut j = Journal::create(&path, "fnv1a:0011", 6).unwrap();
        j.append(CellRange::new(0, 2), &[wire_cell(0), wire_cell(1)])
            .unwrap();
        j.append(CellRange::new(4, 6), &[wire_cell(4), wire_cell(5)])
            .unwrap();
        assert_eq!(j.appends(), 2);
        drop(j);
        let (mut j, load) = Journal::resume(&path, "fnv1a:0011", 6).unwrap();
        assert_eq!(load.records, 2);
        assert!(!load.torn_tail);
        let mut got: Vec<u64> = load.cells.iter().map(|(i, _)| *i).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 5]);
        // Appending after a resume keeps the file replayable.
        j.append(CellRange::new(2, 3), &[wire_cell(2)]).unwrap();
        drop(j);
        let (_, load) = Journal::resume(&path, "fnv1a:0011", 6).unwrap();
        assert_eq!(load.records, 3);
        assert_eq!(load.cells.len(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_cells_are_first_write_wins() {
        let path = temp_path("dup");
        let mut j = Journal::create(&path, "fnv1a:0022", 4).unwrap();
        j.append(CellRange::new(0, 2), &[wire_cell(10), wire_cell(11)])
            .unwrap();
        // A re-issued lease completing twice writes a second copy with
        // different payloads; replay must keep the first.
        j.append(CellRange::new(0, 2), &[wire_cell(90), wire_cell(91)])
            .unwrap();
        drop(j);
        let (_, load) = Journal::resume(&path, "fnv1a:0022", 4).unwrap();
        assert_eq!(load.cells.len(), 2);
        for (i, w) in &load.cells {
            assert_eq!(w.field("data").unwrap().as_u64().unwrap(), 10 + i);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_tolerated_and_truncated() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path, "fnv1a:0033", 4).unwrap();
        j.append(CellRange::new(0, 1), &[wire_cell(0)]).unwrap();
        drop(j);
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"s:cells\",\"start\":\"u64:1\",\"TORNMARK")
            .unwrap();
        drop(f);
        let (mut j, load) = Journal::resume(&path, "fnv1a:0033", 4).unwrap();
        assert!(load.torn_tail);
        assert_eq!(load.records, 1);
        assert_eq!(load.cells.len(), 1);
        // The torn bytes are gone and the file takes clean appends.
        j.append(CellRange::new(1, 2), &[wire_cell(1)]).unwrap();
        drop(j);
        let (_, load) = Journal::resume(&path, "fnv1a:0033", 4).unwrap();
        assert!(!load.torn_tail);
        assert_eq!(load.records, 2);
        let mut text = String::new();
        File::open(&path)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        assert!(!text.contains("TORNMARK"), "torn bytes survived truncation");
        assert!(text.ends_with('\n'), "journal must end on a line boundary");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbled_trailing_line_is_tolerated() {
        let path = temp_path("garble");
        let mut j = Journal::create(&path, "fnv1a:0044", 4).unwrap();
        j.append(CellRange::new(0, 1), &[wire_cell(0)]).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"!!! not json at all !!!\n").unwrap();
        drop(f);
        let (_, load) = Journal::resume(&path, "fnv1a:0044", 4).unwrap();
        assert!(load.torn_tail);
        assert_eq!(load.records, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbled_middle_line_is_an_error() {
        let path = temp_path("middle");
        let mut j = Journal::create(&path, "fnv1a:0055", 4).unwrap();
        j.append(CellRange::new(0, 1), &[wire_cell(0)]).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"garbage\n").unwrap();
        drop(f);
        let mut j = OpenOptions::new().append(true).open(&path).unwrap();
        let line =
            serde_json::to_string(&lease_record(CellRange::new(1, 2), &[wire_cell(1)])).unwrap();
        j.write_all(line.as_bytes()).unwrap();
        j.write_all(b"\n").unwrap();
        drop(j);
        let err = Journal::resume(&path, "fnv1a:0055", 4).unwrap_err();
        assert!(
            err.to_string().contains("corrupt record before end"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_spec_hash_or_grid_is_rejected() {
        let path = temp_path("hash");
        Journal::create(&path, "fnv1a:aaaa", 4).unwrap();
        let err = Journal::resume(&path, "fnv1a:bbbb", 4).unwrap_err();
        assert!(
            err.to_string().contains("written for spec"),
            "unexpected error: {err}"
        );
        let err = Journal::resume(&path, "fnv1a:aaaa", 5).unwrap_err();
        assert!(err.to_string().contains("cells"), "unexpected error: {err}");
        assert!(Journal::resume(&path, "fnv1a:aaaa", 4).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_journal_of_another_format_is_refused() {
        let path = temp_path("v1");
        Journal::create(&path, "fnv1a:0088", 4).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"journal\":\"u64:{JOURNAL_VERSION}\"");
        assert!(text.contains(&current), "header layout changed: {text}");
        std::fs::write(&path, text.replace(&current, "\"journal\":\"u64:1\"")).unwrap();
        let err = Journal::resume(&path, "fnv1a:0088", 4).unwrap_err();
        let want = format!("journal format v1, this build reads v{JOURNAL_VERSION}");
        assert!(err.0.ends_with(&want), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_header_is_rejected() {
        let path = temp_path("nohdr");
        std::fs::write(&path, "").unwrap();
        let err = Journal::resume(&path, "fnv1a:0066", 4).unwrap_err();
        assert!(err.to_string().contains("no header"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_grid_lease_record_is_rejected() {
        let path = temp_path("range");
        let mut j = Journal::create(&path, "fnv1a:0077", 2).unwrap();
        j.append(CellRange::new(0, 2), &[wire_cell(0), wire_cell(1)])
            .unwrap();
        drop(j);
        // Valid journal for a 2-cell grid; replaying it against a
        // 2-cell claim works, but its records overflow a smaller grid
        // (caught by the header first) — instead garble the count.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        let bad = serde_json::to_string(&lease_record(CellRange::new(1, 2), &[])).unwrap();
        f.write_all(bad.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        // Another good record after it, so the bad one is not a tail.
        let good =
            serde_json::to_string(&lease_record(CellRange::new(0, 1), &[wire_cell(9)])).unwrap();
        f.write_all(good.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        let err = Journal::resume(&path, "fnv1a:0077", 2).unwrap_err();
        assert!(err.to_string().contains("carries"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
