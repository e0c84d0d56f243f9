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
//!   would silently mix experiments;
//! * **memory stays bounded by the record cap**: a line is read up to
//!   [`MAX_RECORD_BYTES`] and no further, and the check that a bad line
//!   is the tail reads the rest of the file through a fixed buffer.
//!   Every failure is a [`JournalError`], never a panic.

use divrel_devsim::sweep::CellRange;
use divrel_numerics::wire::Wire;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal format revision. v2: adaptive cells draw their failures as
/// geometric gaps, so a v1 journal's evidence comes from another random
/// stream; resuming it would splice two streams into one run, and the
/// spec hash cannot tell them apart. v3: a rare-event cell is a bare
/// weighted mean, without the empty `strata` field v2 carried, so a v2
/// rare journal is refused by its version rather than reported as a
/// corrupt cell. v4: an adaptive round's cell batches consecutive
/// versions as `{failures: [..], demands: [..]}`, and a round's header
/// pins its round digest instead of a pinned spec's hash, so a v3
/// adaptive journal is refused by its version. v5: naive and tilted
/// rare-event cells draw the concatenated fault universe from one
/// plan, the same law from another random stream, so a v4 rare journal
/// would splice two streams.
pub const JOURNAL_VERSION: u64 = 5;

/// How many times longer a [`Wire`] tree's JSON is than its binary
/// encoding, at most: a control character in a string escapes to the
/// six bytes of `\u001f`, and every other element grows less.
const JSON_EXPANSION: u64 = 6;

/// The longest record line a journal writes or reads, newline
/// included. A lease's cells take at most a binary frame's payload cap
/// in a worker's `Result` frame, and their JSON in the record at most
/// six times that; the rest of the record is under a hundred bytes.
pub const MAX_RECORD_BYTES: u64 = JSON_EXPANSION * super::framing::MAX_BINARY_PAYLOAD + 4096;

/// A journal failure. Each variant carries a message naming the file.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be created, opened, read, written or
    /// rendered.
    Io(String),
    /// The header is missing, or pins another format, spec or grid.
    Header(String),
    /// A record before the end of the journal is malformed, or a record
    /// runs past [`MAX_RECORD_BYTES`].
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (JournalError::Io(m) | JournalError::Header(m) | JournalError::Corrupt(m)) = self;
        write!(f, "journal error: {m}")
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(format!("I/O failure: {e}"))
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

fn lease_record(range: CellRange, cells: Vec<Wire>) -> Wire {
    Wire::record([
        ("kind", Wire::Text("cells".into())),
        ("start", Wire::U64(range.start)),
        ("end", Wire::U64(range.end)),
        ("cells", Wire::List(cells)),
    ])
}

/// Whether everything `reader` has left is ASCII whitespace, read
/// through a fixed buffer.
fn rest_is_blank(reader: &mut impl Read) -> std::io::Result<bool> {
    let mut buf = [0u8; 8192];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) if buf[..n].iter().all(u8::is_ascii_whitespace) => {}
            Ok(_) => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
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
            .map_err(|e| JournalError::Io(format!("cannot create {}: {e}", path.display())))?;
        let header = serde_json::to_string(&header_record(spec_hash, cell_count))
            .map_err(|e| JournalError::Io(format!("cannot render header: {e}")))?;
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
    /// [`JournalError::Io`] for a missing or unreadable file,
    /// [`JournalError::Header`] for a missing or mismatched header, and
    /// [`JournalError::Corrupt`] for a malformed record *before* the
    /// final line or a line past [`MAX_RECORD_BYTES`].
    pub fn resume(
        path: &Path,
        spec_hash: &str,
        cell_count: u64,
    ) -> JournalResult<(Journal, JournalLoad)> {
        Self::resume_capped(path, spec_hash, cell_count, MAX_RECORD_BYTES)
    }

    /// [`Journal::resume`] with record lines capped at `cap` bytes.
    fn resume_capped(
        path: &Path,
        spec_hash: &str,
        cell_count: u64,
        cap: u64,
    ) -> JournalResult<(Journal, JournalLoad)> {
        let file = File::open(path)
            .map_err(|e| JournalError::Io(format!("cannot open {}: {e}", path.display())))?;
        let unreadable =
            |e: std::io::Error| JournalError::Io(format!("cannot read {}: {e}", path.display()));
        let corrupt = |why: String| JournalError::Corrupt(format!("{}: {why}", path.display()));
        let mut reader = BufReader::new(file);
        let mut load = JournalLoad::default();
        let mut seen = vec![false; cell_count as usize];
        let mut good_bytes: u64 = 0;
        let mut line = Vec::new();
        let mut header_checked = false;
        loop {
            line.clear();
            let n = (&mut reader)
                .take(cap)
                .read_until(b'\n', &mut line)
                .map_err(unreadable)? as u64;
            if n == 0 {
                break;
            }
            let complete = line.last() == Some(&b'\n');
            if !complete && n == cap {
                // No append writes a line this long, so it is not a
                // torn write either.
                return Err(corrupt(format!("a record runs past {cap} bytes")));
            }
            let text = std::str::from_utf8(&line).map_err(|e| e.to_string());
            if text.as_ref().is_ok_and(|t| t.trim().is_empty()) {
                if complete {
                    good_bytes += n;
                }
                continue;
            }
            let applied = match text.and_then(|t| parse_line(t.trim_end())) {
                Ok(record) if complete && !header_checked => {
                    Self::check_header(&record, path, spec_hash, cell_count)?;
                    header_checked = true;
                    good_bytes += n;
                    continue;
                }
                Ok(record) if complete => {
                    Self::apply_record(&record, cell_count, &mut seen, &mut load.cells)
                }
                Ok(_) => Err("truncated line".to_string()),
                Err(e) => Err(e),
            };
            match applied {
                Ok(()) => {
                    load.records += 1;
                    good_bytes += n;
                }
                // A torn or garbled tail — tolerated if and only if it
                // is the last thing in the file.
                Err(_) if rest_is_blank(&mut reader).map_err(unreadable)? => {
                    load.torn_tail = true;
                    break;
                }
                Err(why) => {
                    return Err(corrupt(format!(
                        "corrupt record before end of journal ({why}); \
                         only a trailing torn write is recoverable"
                    )))
                }
            }
        }
        if !header_checked {
            return Err(JournalError::Header(format!(
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
        let fail = |why: String| JournalError::Header(format!("{}: {why}", path.display()));
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
    /// Render or I/O failures, and a record past [`MAX_RECORD_BYTES`] —
    /// a journal that cannot take appends has lost its durability
    /// guarantee, so callers treat this as fatal.
    pub fn append(&mut self, range: CellRange, cells: &[Wire]) -> JournalResult<u64> {
        self.append_cells(range, cells.to_vec())?;
        Ok(self.appends)
    }

    /// [`Journal::append`] of owned cells, which come back uncopied once
    /// their record is written.
    pub(crate) fn append_cells(
        &mut self,
        range: CellRange,
        cells: Vec<Wire>,
    ) -> JournalResult<Vec<Wire>> {
        let record = lease_record(range, cells);
        let mut line = serde_json::to_string(&record)
            .map_err(|e| JournalError::Io(format!("cannot render lease record: {e}")))?;
        line.push('\n');
        if line.len() as u64 > MAX_RECORD_BYTES {
            return Err(JournalError::Io(format!(
                "lease [{}, {}) renders to {} bytes, past the {MAX_RECORD_BYTES}-byte record cap",
                range.start,
                range.end,
                line.len()
            )));
        }
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.appends += 1;
        let Wire::Record(mut fields) = record else {
            unreachable!("a lease record is a record");
        };
        let Some((_, Wire::List(cells))) = fields.pop() else {
            unreachable!("a lease record ends with its cells");
        };
        Ok(cells)
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
            serde_json::to_string(&lease_record(CellRange::new(1, 2), vec![wire_cell(1)])).unwrap();
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
        let path = temp_path("previous");
        Journal::create(&path, "fnv1a:0088", 4).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"journal\":\"u64:{JOURNAL_VERSION}\"");
        assert!(text.contains(&current), "header layout changed: {text}");
        let previous = JOURNAL_VERSION - 1;
        let old = format!("\"journal\":\"u64:{previous}\"");
        std::fs::write(&path, text.replace(&current, &old)).unwrap();
        let err = Journal::resume(&path, "fnv1a:0088", 4).unwrap_err();
        let want = format!("journal format v{previous}, this build reads v{JOURNAL_VERSION}");
        assert!(
            matches!(&err, JournalError::Header(m) if m.ends_with(&want)),
            "{err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The journal's line format: a record `{kind, start, end, cells}`
    /// in [`Wire`]'s JSON, one per line, whichever append wrote it.
    #[test]
    fn appended_lines_keep_the_record_format() {
        let path = temp_path("format");
        let mut j = Journal::create(&path, "fnv1a:00aa", 9).unwrap();
        let cells = vec![
            wire_cell(0),
            Wire::record([("xs", Wire::List(vec![Wire::F64(-0.0), Wire::U64(u64::MAX)]))]),
        ];
        assert_eq!(
            j.append_cells(CellRange::new(7, 9), cells.clone()).unwrap(),
            cells
        );
        assert_eq!(j.append(CellRange::new(3, 3), &[]).unwrap(), 2);
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(
            records,
            [
                r#"{"kind":"s:cells","start":"u64:7","end":"u64:9","cells":[{"kind":"s:t","data":"u64:0"},{"xs":["f64:8000000000000000","u64:18446744073709551615"]}]}"#,
                r#"{"kind":"s:cells","start":"u64:3","end":"u64:3","cells":[]}"#,
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// [`JSON_EXPANSION`] bounds the JSON of the trees that grow most
    /// from binary, with room for the separator after each.
    #[test]
    fn json_is_at_most_json_expansion_times_binary() {
        let controls = |n: usize| "\u{1}".repeat(n);
        let mut trees = vec![
            Wire::U64(0),
            Wire::U64(100),
            Wire::U64(127),
            Wire::U64(128),
            Wire::U64(u64::MAX),
            Wire::F64(f64::NAN),
            Wire::List(Vec::new()),
            Wire::List(vec![Wire::List(Vec::new()); 200]),
            Wire::List(vec![Wire::U64(100); 300]),
            Wire::Record(vec![(String::new(), Wire::List(Vec::new()))]),
            Wire::Record(vec![(controls(127), Wire::U64(100)); 3]),
            Wire::Text("\\\"\n\t\r ünï".into()),
        ];
        trees.extend([0, 1, 127, 128, 1000].map(|n| Wire::Text(controls(n))));
        let mut worst: f64 = 0.0;
        for tree in &trees {
            let (json, binary) = (
                serde_json::to_string(tree).unwrap().len() + 1,
                tree.to_bytes().len(),
            );
            assert!(
                json as u64 <= JSON_EXPANSION * binary as u64,
                "{json} vs {binary}: {tree:?}"
            );
            worst = worst.max(json as f64 / binary as f64);
        }
        // The bound is nearly tight: a string of control characters
        // comes within 1% of it.
        assert!(worst > 0.99 * JSON_EXPANSION as f64, "worst ratio {worst}");
        // The record around a lease's cells fits the cap's margin.
        let range = CellRange::new(u64::MAX - 1, u64::MAX);
        let around = serde_json::to_string(&lease_record(range, Vec::new()))
            .unwrap()
            .len()
            + 1;
        assert!(
            JSON_EXPANSION * super::super::framing::MAX_BINARY_PAYLOAD + around as u64
                <= MAX_RECORD_BYTES
        );
    }

    #[test]
    fn a_record_past_the_cap_is_corrupt_even_at_the_tail() {
        let path = temp_path("long");
        let mut j = Journal::create(&path, "fnv1a:0099", 4).unwrap();
        j.append(CellRange::new(0, 1), &[wire_cell(0)]).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[b'x'; 300]).unwrap();
        drop(f);
        let err = Journal::resume_capped(&path, "fnv1a:0099", 4, 256).unwrap_err();
        assert!(
            matches!(&err, JournalError::Corrupt(m) if m.contains("runs past 256 bytes")),
            "{err:?}"
        );
        // Under the cap the same tail is a torn write.
        let (_, load) = Journal::resume_capped(&path, "fnv1a:0099", 4, 512).unwrap();
        assert!(load.torn_tail);
        assert_eq!(load.records, 1);
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
        let bad = serde_json::to_string(&lease_record(CellRange::new(1, 2), Vec::new())).unwrap();
        f.write_all(bad.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        // Another good record after it, so the bad one is not a tail.
        let good =
            serde_json::to_string(&lease_record(CellRange::new(0, 1), vec![wire_cell(9)])).unwrap();
        f.write_all(good.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        let err = Journal::resume(&path, "fnv1a:0077", 2).unwrap_err();
        assert!(err.to_string().contains("carries"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
