//! Persisted sweep journal: crash-safe resume for streaming grids.
//!
//! PR 4's sweep engine streams thousand-cell grids in O(workers)
//! memory — but an interrupted grid used to restart from cell 0. A
//! [`SweepJournal`] spills every finished cell to an **append-only
//! JSONL file** as it streams past, so the grid's progress survives a
//! crash, a ^C or a pool cancellation, and
//! `SweepSpec::resume_from` turns the journal back
//! into a work list: load the completed cell indices, verify the spec
//! fingerprint, and [skip](crate::SweepSpec::skip_cells) the finished
//! cells in the enumerator.
//!
//! # File format (journal v1)
//!
//! One JSON object per line; the first line is the header:
//!
//! ```text
//! {"kind":"header","version":1,"fingerprint":"<16 lowercase hex>","cells":500}
//! {"kind":"done","index":12,"scenario":"s@thr82","approach":"TEEM","apps":1,
//!  "makespan_s":1.5,...,"zone_trips":0,"deadline_misses":0,"digest":"<16 hex>"}
//! {"kind":"failed","index":13,"scenario":"poison","message":"panicked: ..."}
//! ```
//!
//! * the **fingerprint** is [`SweepSpec::fingerprint`] — the axes and
//!   resolved configuration hash — so a stale journal from a different
//!   grid is rejected at resume instead of silently mis-skipping;
//! * a sharded spec ([`SweepSpec::shard`](crate::SweepSpec::shard))
//!   additionally stamps its shard's canonical label into the header
//!   (`"shard":"mod:1/3"`); the fingerprint stays that of the *whole*
//!   grid, so shard journals of one campaign all agree with the
//!   single-process run they [merge](SweepJournal::merge) into;
//! * `done` lines carry the full [`CellRecord`]: every summary metric
//!   plus the trace digest, enough to rebuild an aggregate report
//!   offline ([`SweepAggregator::replay`](teem_telemetry::SweepAggregator::replay))
//!   or diff two runs cell-by-cell
//!   ([`teem_telemetry::sweep_diff`](teem_telemetry::sweep_diff));
//! * floats are written in Rust's shortest round-trip decimal form
//!   (non-finite values as `null`, read back as NaN);
//! * writes are **fsync-batched**: the OS file is flushed and synced
//!   every [`SweepJournal::with_fsync_every`] records (default 32), on
//!   the terminal `Finished` event, and on drop.
//!
//! # Crash tolerance on read
//!
//! A record is **durable only once its trailing newline lands**: a
//! process killed mid-write leaves at most one unterminated final
//! line, which [`LoadedJournal::load`] treats as torn — skipped with a
//! warning ([`LoadedJournal::torn_tail`]), the cell re-runs on resume
//! — even when the bytes written so far happen to parse.
//! [`SweepJournal::append_to`] truncates by the same
//! last-newline rule before appending, so the reader and the appender
//! can never disagree about whether the tail cell completed. Anything
//! else that fails to parse (corrupt JSON mid-file, an unknown kind, a
//! duplicate or out-of-range index, a terminated-but-garbled final
//! line — which no crash can produce) is a hard, line-numbered
//! [`JournalError::Corrupt`]: such damage means the file is not an
//! append-only journal any more, and resuming from it would silently
//! drop work.
//!
//! `failed` cells are recorded for post-mortems but **not** treated as
//! completed: a resume retries them.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read as _, Seek as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::sweep::{SweepEvent, SweepSpec};
use teem_telemetry::json::{self, write_f64 as json_f64, write_string as json_string};
use teem_telemetry::{CellRecord, Fnv};

/// The journal format version this module writes.
pub const JOURNAL_VERSION: u32 = 1;

/// Records between fsyncs unless overridden.
const DEFAULT_FSYNC_EVERY: usize = 32;

/// Everything that can go wrong writing, reading or resuming a
/// journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// A line before the final one failed to parse, or the journal's
    /// internal invariants are violated (duplicate cell index, index
    /// outside the grid, a second header). `line` is 1-based.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The journal's header fingerprint does not match the spec being
    /// resumed — it was recorded for a different grid (different axes,
    /// scenarios or executor configuration).
    FingerprintMismatch {
        /// Fingerprint stamped in the journal header.
        journal: u64,
        /// Fingerprint of the spec attempting to resume.
        spec: u64,
    },
    /// The header's cell count disagrees with the spec's grid size
    /// (belt and braces on top of the fingerprint).
    GridMismatch {
        /// Grid size stamped in the journal header.
        journal: usize,
        /// Grid size of the spec attempting to resume.
        spec: usize,
    },
    /// The journal's shard label disagrees with the spec's shard
    /// restriction — e.g. appending a `mod:0/3` spec onto a `mod:1/3`
    /// journal, or resuming a shard journal with an unsharded spec.
    /// (`None` means unsharded.)
    ShardMismatch {
        /// Shard label stamped in the journal header, if any.
        journal: Option<String>,
        /// Shard label of the spec attempting to resume, if any.
        spec: Option<String>,
    },
    /// [`SweepJournal::merge`] was handed an empty journal set.
    MergeEmpty,
    /// A journal in a merge carries a different fingerprint than the
    /// first — the set mixes shards of different campaigns.
    MergeFingerprint {
        /// Zero-based position of the disagreeing journal in the slice.
        index: usize,
        /// Its fingerprint.
        journal: u64,
        /// The first journal's fingerprint.
        reference: u64,
    },
    /// A journal in a merge disagrees with the first on grid size.
    MergeGrid {
        /// Zero-based position of the disagreeing journal in the slice.
        index: usize,
        /// Its grid size.
        journal: usize,
        /// The first journal's grid size.
        reference: usize,
    },
    /// The same cell is recorded `done` by two journals of a merge —
    /// two workers ran it, so the shard set was not a partition and
    /// neither record can be trusted as *the* result.
    MergeOverlap {
        /// Zero-based position of the journal with the second record.
        index: usize,
        /// The doubly-recorded cell index.
        cell: usize,
    },
    /// The merged journals do not cover the whole grid — the campaign
    /// is not finished (or a shard's journal is missing from the set).
    MergeIncomplete {
        /// How many cells have no `done` record.
        missing: usize,
        /// The lowest uncovered cell index.
        first_missing: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
            JournalError::FingerprintMismatch { journal, spec } => write!(
                f,
                "journal fingerprint {journal:016x} does not match the sweep spec \
                 ({spec:016x}): it was recorded for a different grid"
            ),
            JournalError::GridMismatch { journal, spec } => write!(
                f,
                "journal was recorded for a {journal}-cell grid, the spec has {spec}"
            ),
            JournalError::ShardMismatch { journal, spec } => {
                let label = |s: &Option<String>| match s {
                    Some(l) => format!("shard {l}"),
                    None => "the whole grid".to_string(),
                };
                write!(
                    f,
                    "journal was recorded for {}, the spec runs {}",
                    label(journal),
                    label(spec)
                )
            }
            JournalError::MergeEmpty => write!(f, "merge of zero journals"),
            JournalError::MergeFingerprint {
                index,
                journal,
                reference,
            } => write!(
                f,
                "merge: journal #{index} has fingerprint {journal:016x}, the first has \
                 {reference:016x} — the set mixes different campaigns"
            ),
            JournalError::MergeGrid {
                index,
                journal,
                reference,
            } => write!(
                f,
                "merge: journal #{index} was recorded for a {journal}-cell grid, the first \
                 for {reference} cells"
            ),
            JournalError::MergeOverlap { index, cell } => write!(
                f,
                "merge: cell {cell} is recorded done twice (second record in journal \
                 #{index}) — the shards overlap, so neither record is authoritative"
            ),
            JournalError::MergeIncomplete {
                missing,
                first_missing,
            } => write!(
                f,
                "merge: {missing} cells have no done record (first missing: cell \
                 {first_missing}) — the campaign is incomplete or a shard journal is absent"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A `failed` journal line: the cell errored or panicked in that run.
/// Failed cells are *not* completed — a resume retries them.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCell {
    /// Linear grid index.
    pub index: usize,
    /// Materialised cell name.
    pub scenario: String,
    /// Panic payload or error display.
    pub message: String,
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-only JSONL sink for a sweep's event stream.
///
/// Create one per journal file with [`SweepJournal::create`] (fresh
/// run) or [`SweepJournal::append_to`] (resume), hand every
/// [`SweepEvent`] to [`SweepJournal::observe`] from the sweep sink, and
/// the grid's progress is durable:
///
/// ```no_run
/// use teem_scenario::{Scenario, SweepJournal, SweepSpec};
/// use teem_workload::App;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = SweepSpec::over([Scenario::new("s").arrive(0.0, App::Mvt, 0.9)])
///     .thresholds_c(&[80.0, 85.0]);
/// let mut journal = SweepJournal::create("sweep.jsonl", &spec)?;
/// spec.run_streaming(|ev| journal.observe(&ev).expect("journal write"))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepJournal {
    writer: BufWriter<File>,
    path: PathBuf,
    fsync_every: usize,
    pending: usize,
    written: usize,
    bytes: u64,
    fsyncs: u64,
    torn_repairs: u64,
}

/// I/O counters a [`SweepJournal`] accumulates over its lifetime — the
/// journal layer's contribution to a sweep's
/// [`MetricsSnapshot`](teem_telemetry::MetricsSnapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalIoStats {
    /// Records (`done` + `failed`) written through this handle.
    pub records: u64,
    /// Bytes written (record and header lines, newlines included).
    pub bytes: u64,
    /// fsync batches issued (`sync_data` calls — batch boundaries,
    /// explicit syncs, and the final drop sync).
    pub fsyncs: u64,
    /// Torn final lines truncated when opening for append.
    pub torn_tail_repairs: u64,
}

impl SweepJournal {
    /// Creates (truncating) the journal at `path` and stamps the header
    /// with `spec`'s fingerprint and grid size.
    ///
    /// # Errors
    ///
    /// Any file I/O failure.
    pub fn create(path: impl AsRef<Path>, spec: &SweepSpec) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let mut journal = SweepJournal {
            writer: BufWriter::new(file),
            path,
            fsync_every: DEFAULT_FSYNC_EVERY,
            pending: 0,
            written: 0,
            bytes: 0,
            fsyncs: 0,
            torn_repairs: 0,
        };
        let shard = spec.shard_spec().map(ToString::to_string);
        let line = header_line(
            JOURNAL_VERSION,
            spec.fingerprint(),
            spec.cells(),
            shard.as_deref(),
        );
        journal.write_line(&line)?;
        journal.sync()?; // the header is durable before any cell runs
        Ok(journal)
    }

    /// Opens an existing journal for appending — the resume path.
    /// Verifies the header against `spec` (fingerprint and grid size)
    /// and truncates a torn final line so subsequent appends start on a
    /// clean line boundary.
    ///
    /// # Errors
    ///
    /// [`JournalError::FingerprintMismatch`] / [`JournalError::GridMismatch`]
    /// for a journal recorded against a different grid,
    /// [`JournalError::Corrupt`] for an unreadable header, or I/O.
    pub fn append_to(path: impl AsRef<Path>, spec: &SweepSpec) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;

        // Verify the header before touching anything — only the first
        // line is read; a campaign journal can be arbitrarily large and
        // the caller's `LoadedJournal::load` already paid for a full
        // parse.
        let first_line = read_first_line(&mut file)?.ok_or_else(|| JournalError::Corrupt {
            line: 1,
            message: "no complete header line (torn or empty journal)".to_string(),
        })?;
        let header = parse_header_line(&first_line)
            .map_err(|message| JournalError::Corrupt { line: 1, message })?;
        header.verify(spec)?;

        // Truncate a torn tail: bytes after the last newline are a
        // partial record from the interrupted writer. Dropping them
        // keeps the append-only invariant "every line before the last
        // is complete" — the torn cell simply re-runs. The last newline
        // is found by scanning backward from the end, not by reading
        // the file.
        let keep = position_after_last_newline(&mut file)?;
        let torn_repairs = if keep < file.metadata()?.len() {
            file.set_len(keep)?;
            1
        } else {
            0
        };
        file.seek(io::SeekFrom::End(0))?;

        Ok(SweepJournal {
            writer: BufWriter::new(file),
            path,
            fsync_every: DEFAULT_FSYNC_EVERY,
            pending: 0,
            written: 0,
            bytes: 0,
            fsyncs: 0,
            torn_repairs,
        })
    }

    /// Sets how many records accumulate between fsyncs (1 ⇒ sync every
    /// record — maximum durability, maximum cost).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_fsync_every(mut self, every: usize) -> Self {
        assert!(every > 0, "fsync batch must be at least one record");
        self.fsync_every = every;
        self
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records (`done` + `failed`) written through this handle.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Lifetime I/O counters for this handle (records, bytes, fsync
    /// batches, torn-tail repairs).
    pub fn io_stats(&self) -> JournalIoStats {
        JournalIoStats {
            records: self.written as u64,
            bytes: self.bytes,
            fsyncs: self.fsyncs,
            torn_tail_repairs: self.torn_repairs,
        }
    }

    /// Feeds one sweep event to the journal: `CellDone` and
    /// `CellFailed` append a record, `Finished` forces a final fsync,
    /// `CellStarted` is ignored (only completion is durable progress).
    ///
    /// # Errors
    ///
    /// Any file I/O failure (the record may be partially written — a
    /// subsequent load treats it as the torn tail).
    pub fn observe(&mut self, event: &SweepEvent) -> io::Result<()> {
        match event {
            SweepEvent::CellDone { cell, result } => {
                let record =
                    CellRecord::from_summary(cell.index, &result.summary, result.trace.digest());
                self.record_done(&record)
            }
            SweepEvent::CellFailed {
                index,
                name,
                message,
            } => self.record_failed(*index, name, message),
            SweepEvent::Finished { .. } => self.sync(),
            SweepEvent::CellStarted { .. } => Ok(()),
        }
    }

    /// Appends one `done` record.
    ///
    /// # Errors
    ///
    /// Any file I/O failure.
    pub fn record_done(&mut self, record: &CellRecord) -> io::Result<()> {
        let line = done_line(record);
        self.write_record(&line)
    }

    /// Appends one `failed` record.
    ///
    /// # Errors
    ///
    /// Any file I/O failure.
    pub fn record_failed(&mut self, index: usize, scenario: &str, message: &str) -> io::Result<()> {
        let line = failed_line(index, scenario, message);
        self.write_record(&line)
    }

    /// Flushes buffered lines and fsyncs the file.
    ///
    /// # Errors
    ///
    /// Any file I/O failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        self.pending = 0;
        self.fsyncs += 1;
        Ok(())
    }

    fn write_record(&mut self, line: &str) -> io::Result<()> {
        self.write_line(line)?;
        self.written += 1;
        self.pending += 1;
        if self.pending >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal lines are single lines");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }
}

impl Drop for SweepJournal {
    fn drop(&mut self) {
        let _ = self.sync(); // best-effort durability on unwind
    }
}

/// Reads up to the file's first newline (exclusive), in small chunks —
/// never the whole file. `None` when no complete first line exists (an
/// empty file or a torn header), or when the "line" grows far past any
/// plausible header.
fn read_first_line(file: &mut File) -> io::Result<Option<Vec<u8>>> {
    file.seek(io::SeekFrom::Start(0))?;
    let mut line = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(None); // EOF before any newline
        }
        if let Some(pos) = buf[..n].iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            return Ok(Some(line));
        }
        line.extend_from_slice(&buf[..n]);
        if line.len() > 64 * 1024 {
            return Ok(None); // headers are ~100 bytes; this is no journal
        }
    }
}

/// Byte offset just past the file's last newline (0 when the file has
/// none), found by scanning backward from the end in chunks.
fn position_after_last_newline(file: &mut File) -> io::Result<u64> {
    let len = file.metadata()?.len();
    let mut end = len;
    let mut buf = [0u8; 8192];
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let n = (end - start) as usize;
        file.seek(io::SeekFrom::Start(start))?;
        file.read_exact(&mut buf[..n])?;
        if let Some(pos) = buf[..n].iter().rposition(|&b| b == b'\n') {
            return Ok(start + pos as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A parsed journal: header metadata, the completed cells, the failed
/// cells and the torn-tail warning, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedJournal {
    /// Format version from the header.
    pub version: u32,
    /// [`SweepSpec::fingerprint`] the journal was recorded against.
    pub fingerprint: u64,
    /// Grid size the journal was recorded against.
    pub cells: usize,
    /// Canonical shard label ([`ShardSpec`](crate::ShardSpec) display
    /// form) when the journal was written by a sharded spec; `None` for
    /// a whole-grid journal (including every merged journal).
    pub shard: Option<String>,
    /// Every `done` record, in file (= completion) order.
    pub records: Vec<CellRecord>,
    /// Every `failed` record — informational; resumes retry them.
    pub failed: Vec<FailedCell>,
    /// Set when the final line was torn (interrupted write) and
    /// skipped; the text says what was dropped.
    pub torn_tail: Option<String>,
}

impl LoadedJournal {
    /// Parses the journal at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] (line-numbered) for mid-file damage,
    /// duplicate or out-of-range cell indices, a missing or unreadable
    /// header, or an unsupported version; [`JournalError::Io`] for file
    /// I/O. A torn **final** line is not an error — see
    /// [`LoadedJournal::torn_tail`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let content = std::fs::read(path.as_ref())?;
        Self::parse(&content)
    }

    /// Parses journal bytes (the testable core of
    /// [`LoadedJournal::load`]).
    ///
    /// # Errors
    ///
    /// As [`LoadedJournal::load`], minus file I/O.
    pub fn parse(content: &[u8]) -> Result<Self, JournalError> {
        // Split into lines; remember which is the last *non-empty* one
        // (a file ending in '\n' splits into a trailing "" segment).
        let lines: Vec<&[u8]> = content.split(|&b| b == b'\n').collect();
        let last_nonempty = lines.iter().rposition(|l| !l.is_empty());
        let terminated = content.last() == Some(&b'\n');

        let mut journal: Option<LoadedJournal> = None;
        let mut seen = BTreeSet::new();
        for (i, raw) in lines.iter().enumerate() {
            if raw.is_empty() {
                continue;
            }
            let line_no = i + 1;
            // A record is durable only once its newline lands: an
            // unterminated final line is torn *even if it happens to
            // parse* — this is the same rule `append_to` truncates by,
            // so reader and appender can never disagree about whether
            // the tail cell was done.
            let torn = Some(i) == last_nonempty && !terminated;
            let parsed = if torn {
                Err("no trailing newline (interrupted write)".to_string())
            } else {
                std::str::from_utf8(raw)
                    .map_err(|e| format!("not UTF-8: {e}"))
                    .and_then(parse_line)
            };
            let parsed = match parsed {
                Ok(p) => p,
                Err(message) => {
                    // A torn tail is skipped with a warning (the cell
                    // re-runs on resume). Anything else — including a
                    // newline-terminated final line that fails to
                    // parse, which no crash can produce — is fatal; so
                    // is a torn header, which leaves no usable journal.
                    if let Some(j) = journal.as_mut().filter(|_| torn) {
                        j.torn_tail = Some(format!(
                            "line {line_no} torn ({message}); cell not counted as done"
                        ));
                        break;
                    }
                    return Err(JournalError::Corrupt {
                        line: line_no,
                        message,
                    });
                }
            };
            match (parsed, &mut journal) {
                (Line::Header(h), None) => {
                    if h.version != JOURNAL_VERSION {
                        return Err(JournalError::Corrupt {
                            line: line_no,
                            message: format!(
                                "unsupported journal version {} (this build reads {})",
                                h.version, JOURNAL_VERSION
                            ),
                        });
                    }
                    journal = Some(LoadedJournal {
                        version: h.version,
                        fingerprint: h.fingerprint,
                        cells: h.cells,
                        shard: h.shard,
                        records: Vec::new(),
                        failed: Vec::new(),
                        torn_tail: None,
                    });
                }
                (Line::Header(_), Some(_)) => {
                    return Err(JournalError::Corrupt {
                        line: line_no,
                        message: "second header (journals are append-only, never restarted)"
                            .to_string(),
                    });
                }
                (_, None) => {
                    return Err(JournalError::Corrupt {
                        line: line_no,
                        message: "record before the header line".to_string(),
                    });
                }
                (Line::Done(record), Some(j)) => {
                    if record.index >= j.cells {
                        return Err(JournalError::Corrupt {
                            line: line_no,
                            message: format!(
                                "cell index {} outside the {}-cell grid",
                                record.index, j.cells
                            ),
                        });
                    }
                    if !seen.insert(record.index) {
                        return Err(JournalError::Corrupt {
                            line: line_no,
                            message: format!(
                                "cell {} recorded done twice — the journal was appended to \
                                 without resuming (or two writers raced)",
                                record.index
                            ),
                        });
                    }
                    j.records.push(record);
                }
                (Line::Failed(f), Some(j)) => {
                    if f.index >= j.cells {
                        return Err(JournalError::Corrupt {
                            line: line_no,
                            message: format!(
                                "cell index {} outside the {}-cell grid",
                                f.index, j.cells
                            ),
                        });
                    }
                    j.failed.push(f);
                }
            }
        }
        journal.ok_or(JournalError::Corrupt {
            line: 1,
            message: "empty journal: no header line".to_string(),
        })
    }

    /// The completed (done) cell indices — what a resume skips.
    pub fn completed(&self) -> BTreeSet<usize> {
        self.records.iter().map(|r| r.index).collect()
    }

    /// `true` when every grid cell has a `done` record.
    pub fn is_complete(&self) -> bool {
        self.records.len() == self.cells
    }

    /// Writes this journal back out as an ordinary v1 journal file —
    /// how a campaign's merged journal ([`SweepJournal::merge`])
    /// becomes a file any existing consumer (replay, diff,
    /// [`SweepSpec::resume_from`]) can load. Records are written in
    /// their in-memory order and the file is fsynced before returning.
    ///
    /// # Errors
    ///
    /// Any file I/O failure.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = File::create(path.as_ref())?;
        let mut writer = BufWriter::new(file);
        let header = header_line(
            self.version,
            self.fingerprint,
            self.cells,
            self.shard.as_deref(),
        );
        writer.write_all(header.as_bytes())?;
        writer.write_all(b"\n")?;
        for record in &self.records {
            writer.write_all(done_line(record).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        for f in &self.failed {
            writer.write_all(failed_line(f.index, &f.scenario, &f.message).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        writer.get_ref().sync_data()?;
        Ok(())
    }
}

impl SweepJournal {
    /// Merges shard journals of one campaign into a single whole-grid
    /// journal, verifying the set actually *is* one campaign:
    ///
    /// * every journal must carry the first one's fingerprint and grid
    ///   size ([`JournalError::MergeFingerprint`] /
    ///   [`JournalError::MergeGrid`]);
    /// * no cell may be `done` in two journals
    ///   ([`JournalError::MergeOverlap`] — the shards were not a
    ///   partition, so neither record is authoritative);
    /// * every grid cell must be `done` somewhere
    ///   ([`JournalError::MergeIncomplete`]).
    ///
    /// Shard labels are *not* required to tile the grid by themselves:
    /// after a straggler re-shard, a recovery worker's journal carries
    /// its base shard's label while owning only part of it. Coverage
    /// and disjointness of the actual records are the ground truth and
    /// exactly what is checked.
    ///
    /// The output's records are sorted by cell index, its shard label
    /// cleared (it covers the whole grid) and its
    /// [`journal_digest`] equal to any other complete record set of the
    /// same grid — the digest is an order-invariant sum, so
    /// merge order, completion order and shard shape all cancel out.
    /// `failed` records (retried cells that later succeeded elsewhere)
    /// are concatenated and kept for post-mortems.
    ///
    /// # Errors
    ///
    /// As itemised above, plus [`JournalError::MergeEmpty`] for an
    /// empty slice.
    pub fn merge(parts: &[LoadedJournal]) -> Result<LoadedJournal, JournalError> {
        let reference = parts.first().ok_or(JournalError::MergeEmpty)?;
        let mut seen = BTreeSet::new();
        let mut records: Vec<CellRecord> = Vec::new();
        let mut failed: Vec<FailedCell> = Vec::new();
        for (index, part) in parts.iter().enumerate() {
            if part.fingerprint != reference.fingerprint {
                return Err(JournalError::MergeFingerprint {
                    index,
                    journal: part.fingerprint,
                    reference: reference.fingerprint,
                });
            }
            if part.cells != reference.cells {
                return Err(JournalError::MergeGrid {
                    index,
                    journal: part.cells,
                    reference: reference.cells,
                });
            }
            for record in &part.records {
                if !seen.insert(record.index) {
                    return Err(JournalError::MergeOverlap {
                        index,
                        cell: record.index,
                    });
                }
                records.push(record.clone());
            }
            failed.extend(part.failed.iter().cloned());
        }
        if seen.len() != reference.cells {
            let first_missing = (0..reference.cells)
                .find(|i| !seen.contains(i))
                .unwrap_or(reference.cells);
            return Err(JournalError::MergeIncomplete {
                missing: reference.cells - seen.len(),
                first_missing,
            });
        }
        records.sort_unstable_by_key(|r| r.index);
        failed.sort_by_key(|f| f.index);
        Ok(LoadedJournal {
            version: reference.version,
            fingerprint: reference.fingerprint,
            cells: reference.cells,
            shard: None,
            records,
            failed,
            torn_tail: None,
        })
    }
}

impl SweepSpec {
    /// Resumes this grid from a persisted journal: verifies the
    /// journal's fingerprint (and grid size) against this spec and
    /// marks every journalled `done` cell as
    /// [skipped](SweepSpec::skip_cells), so the next
    /// [`run_streaming`](SweepSpec::run_streaming) executes only the
    /// remaining cells. Failed cells are retried; a complete journal
    /// resumes into an empty (immediately-finishing) run.
    ///
    /// # Errors
    ///
    /// [`JournalError::FingerprintMismatch`] or
    /// [`JournalError::GridMismatch`] when the journal belongs to a
    /// different grid — a stale journal must never silently skip cells
    /// of a new experiment — and [`JournalError::ShardMismatch`] when
    /// the journal's shard label and this spec's shard disagree (resume
    /// continues *the same* worker's slice; to subtract a *different*
    /// shard's progress use [`SweepSpec::exclude_completed`]).
    pub fn resume_from(self, journal: &LoadedJournal) -> Result<SweepSpec, JournalError> {
        Header {
            version: journal.version,
            fingerprint: journal.fingerprint,
            cells: journal.cells,
            shard: journal.shard.clone(),
        }
        .verify(&self)?;
        Ok(self.skip_cells(journal.completed()))
    }

    /// Subtracts `journal`'s completed cells from this spec's work
    /// list, verifying fingerprint and grid size but **not** the shard
    /// label — the cross-shard resume primitive behind straggler
    /// re-sharding: a replacement worker runs a *differently*-shaped
    /// slice of the same grid, yet must not re-run anything the dead
    /// worker's journal proves done (a cell done twice would fail the
    /// campaign's final [`SweepJournal::merge`] as an overlap).
    ///
    /// # Errors
    ///
    /// [`JournalError::FingerprintMismatch`] or
    /// [`JournalError::GridMismatch`] when the journal belongs to a
    /// different grid.
    pub fn exclude_completed(self, journal: &LoadedJournal) -> Result<SweepSpec, JournalError> {
        let fp = self.fingerprint();
        if journal.fingerprint != fp {
            return Err(JournalError::FingerprintMismatch {
                journal: journal.fingerprint,
                spec: fp,
            });
        }
        if journal.cells != self.cells() {
            return Err(JournalError::GridMismatch {
                journal: journal.cells,
                spec: self.cells(),
            });
        }
        Ok(self.skip_cells(journal.completed()))
    }
}

// ---------------------------------------------------------------------
// Line format
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Header {
    version: u32,
    fingerprint: u64,
    cells: usize,
    shard: Option<String>,
}

impl Header {
    fn verify(&self, spec: &SweepSpec) -> Result<(), JournalError> {
        if self.version != JOURNAL_VERSION {
            // Appending v1 records into a future-version journal would
            // produce a mixed-format file — refuse on write exactly as
            // `LoadedJournal::load` refuses on read.
            return Err(JournalError::Corrupt {
                line: 1,
                message: format!(
                    "unsupported journal version {} (this build reads {})",
                    self.version, JOURNAL_VERSION
                ),
            });
        }
        let fp = spec.fingerprint();
        if self.fingerprint != fp {
            return Err(JournalError::FingerprintMismatch {
                journal: self.fingerprint,
                spec: fp,
            });
        }
        if self.cells != spec.cells() {
            return Err(JournalError::GridMismatch {
                journal: self.cells,
                spec: spec.cells(),
            });
        }
        let spec_shard = spec.shard_spec().map(ToString::to_string);
        if self.shard != spec_shard {
            return Err(JournalError::ShardMismatch {
                journal: self.shard.clone(),
                spec: spec_shard,
            });
        }
        Ok(())
    }
}

#[derive(Debug)]
enum Line {
    Header(Header),
    Done(CellRecord),
    Failed(FailedCell),
}

/// The header as a JSONL line (no trailing newline). `shard` is the
/// canonical [`ShardSpec`](crate::ShardSpec) label; omitted entirely —
/// not `null` — for a whole-grid journal, so pre-shard journals and
/// unsharded ones stay byte-identical.
fn header_line(version: u32, fingerprint: u64, cells: usize, shard: Option<&str>) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"kind\":\"header\",\"version\":{version},\
         \"fingerprint\":\"{fingerprint:016x}\",\"cells\":{cells}"
    );
    if let Some(shard) = shard {
        line.push_str(",\"shard\":");
        json_string(&mut line, shard);
    }
    line.push('}');
    line
}

/// One `failed` record as a JSONL line (no trailing newline).
fn failed_line(index: usize, scenario: &str, message: &str) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"kind\":\"failed\",\"index\":{index},\"scenario\":"
    );
    json_string(&mut line, scenario);
    line.push_str(",\"message\":");
    json_string(&mut line, message);
    line.push('}');
    line
}

/// One `done` record as a JSONL line (no trailing newline).
fn done_line(r: &CellRecord) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(line, "{{\"kind\":\"done\",\"index\":{},", r.index);
    line.push_str("\"scenario\":");
    json_string(&mut line, &r.scenario);
    line.push_str(",\"approach\":");
    json_string(&mut line, &r.approach);
    let _ = write!(line, ",\"apps\":{}", r.apps_completed);
    for (key, v) in [
        ("makespan_s", r.makespan_s),
        ("busy_s", r.busy_s),
        ("overlap_s", r.overlap_s),
        ("idle_s", r.idle_s),
        ("energy_j", r.energy_j),
        ("idle_energy_j", r.idle_energy_j),
        ("peak_temp_c", r.peak_temp_c),
        ("avg_temp_c", r.avg_temp_c),
        ("temp_variance", r.temp_variance),
    ] {
        let _ = write!(line, ",\"{key}\":");
        json_f64(&mut line, v);
    }
    let _ = write!(
        line,
        ",\"zone_trips\":{},\"deadline_misses\":{},\"digest\":\"{:016x}\"}}",
        r.zone_trips, r.deadline_misses, r.trace_digest
    );
    line
}

fn parse_header_line(raw: &[u8]) -> Result<Header, String> {
    let text = std::str::from_utf8(raw).map_err(|e| format!("not UTF-8: {e}"))?;
    match parse_line(text)? {
        Line::Header(h) => Ok(h),
        _ => Err("first line is not a header".to_string()),
    }
}

fn parse_line(text: &str) -> Result<Line, String> {
    let fields = json::parse_object(text)?;
    let get = |key: &str| -> Result<&json::Value, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`"))
    };
    let get_str = |key: &str| -> Result<&str, String> {
        match get(key)? {
            json::Value::Str(s) => Ok(s.as_str()),
            other => Err(format!("field `{key}` must be a string, got {other:?}")),
        }
    };
    let get_count = |key: &str| -> Result<u64, String> {
        match get(key)? {
            json::Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Ok(*v as u64)
            }
            other => Err(format!(
                "field `{key}` must be a non-negative integer, got {other:?}"
            )),
        }
    };
    // Bounded casts: a count that overflows its target type is corrupt
    // data, never a value to wrap (4294967297 must not read as v1).
    let get_u32 = |key: &str| -> Result<u32, String> {
        u32::try_from(get_count(key)?).map_err(|_| format!("field `{key}` exceeds u32"))
    };
    let get_usize = |key: &str| -> Result<usize, String> {
        usize::try_from(get_count(key)?).map_err(|_| format!("field `{key}` exceeds usize"))
    };
    let get_f64 = |key: &str| -> Result<f64, String> {
        match get(key)? {
            json::Value::Num(v) => Ok(*v),
            json::Value::Null => Ok(f64::NAN), // non-finite serialises as null
            other => Err(format!("field `{key}` must be a number, got {other:?}")),
        }
    };
    let get_hex = |key: &str| -> Result<u64, String> {
        let s = get_str(key)?;
        u64::from_str_radix(s, 16).map_err(|e| format!("field `{key}` is not 64-bit hex: {e}"))
    };
    let get_opt_str = |key: &str| -> Result<Option<String>, String> {
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None => Ok(None),
            Some(json::Value::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(format!("field `{key}` must be a string, got {other:?}")),
        }
    };

    match get_str("kind")? {
        "header" => Ok(Line::Header(Header {
            version: get_u32("version")?,
            fingerprint: get_hex("fingerprint")?,
            cells: get_usize("cells")?,
            shard: get_opt_str("shard")?,
        })),
        "done" => Ok(Line::Done(CellRecord {
            index: get_usize("index")?,
            scenario: get_str("scenario")?.to_string(),
            approach: get_str("approach")?.to_string(),
            apps_completed: get_u32("apps")?,
            makespan_s: get_f64("makespan_s")?,
            busy_s: get_f64("busy_s")?,
            overlap_s: get_f64("overlap_s")?,
            idle_s: get_f64("idle_s")?,
            energy_j: get_f64("energy_j")?,
            idle_energy_j: get_f64("idle_energy_j")?,
            peak_temp_c: get_f64("peak_temp_c")?,
            avg_temp_c: get_f64("avg_temp_c")?,
            temp_variance: get_f64("temp_variance")?,
            zone_trips: get_u32("zone_trips")?,
            deadline_misses: get_u32("deadline_misses")?,
            trace_digest: get_hex("digest")?,
        })),
        "failed" => Ok(Line::Failed(FailedCell {
            index: get_usize("index")?,
            scenario: get_str("scenario")?.to_string(),
            message: get_str("message")?.to_string(),
        })),
        other => Err(format!("unknown record kind `{other}`")),
    }
}

/// A content digest over a set of done records, order-invariant
/// (wrapping sum of per-record hashes — unlike an XOR fold, a repeated
/// record does not cancel itself out): two journals hold the same
/// cells iff their digests match, whatever completion order each run
/// produced. Used by the invariants tests to compare an
/// interrupted-then-resumed journal against an uninterrupted one.
pub fn journal_digest(records: &[CellRecord]) -> u64 {
    records
        .iter()
        .map(|r| {
            let mut h = Fnv::new();
            h.u64(r.index as u64);
            h.str(&r.scenario);
            h.str(&r.approach);
            h.u64(r.trace_digest);
            h.f64(r.energy_j);
            h.f64(r.makespan_s);
            h.u64(u64::from(r.zone_trips));
            h.u64(u64::from(r.deadline_misses));
            h.finish()
        })
        .fold(0u64, u64::wrapping_add)
}

// ---------------------------------------------------------------------
// Kill-after-K harness
// ---------------------------------------------------------------------

/// Serialises process-global panic-hook swaps across concurrent
/// [`run_interrupted`] callers (parallel tests).
static INTERRUPT_HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Demo/test harness: streams `spec` into `journal`, cancelling the
/// sweep pool after `k` completed cells by panicking in the
/// event sink — the same cancellation path a ^C or crash takes through
/// the engine. The injected panic is silenced by *payload*, so a
/// genuine worker-cell panic still reports through the process panic
/// hook, which is restored before returning; concurrent callers are
/// serialised so the hook swap never races.
///
/// This is the shared machinery behind the `sweep_resume` example, the
/// `repro resume` artefact and the `journal_invariants` suite.
///
/// # Panics
///
/// Panics if the grid finishes before `k` cells complete, or on
/// journal I/O failure.
pub fn run_interrupted(spec: &SweepSpec, journal: &mut SweepJournal, k: usize) {
    const PAYLOAD: &str = "teem sweep interrupt (injected)";
    let _serialised = INTERRUPT_HOOK_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev_hook = Arc::new(std::panic::take_hook());
    {
        let prev_hook = Arc::clone(&prev_hook);
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&PAYLOAD) {
                prev_hook(info);
            }
        }));
    }
    let mut done = 0usize;
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        spec.run_streaming(|ev| {
            journal.observe(&ev).expect("journal write");
            if matches!(ev, SweepEvent::CellDone { .. }) {
                done += 1;
                if done == k {
                    // panic_any keeps the payload a &'static str the
                    // hook filter can match exactly.
                    std::panic::panic_any(PAYLOAD);
                }
            }
        })
        .expect("sweep runs");
    }));
    let _ = std::panic::take_hook(); // drop the filter's Arc clone…
    if let Ok(prev) = Arc::try_unwrap(prev_hook) {
        std::panic::set_hook(prev); // …and restore what was installed
    }
    assert!(
        crashed.is_err(),
        "grid finished ({done} cells) before the interrupt at {k}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize) -> CellRecord {
        CellRecord {
            index,
            scenario: format!("s{index}@thr82/amb30"),
            approach: "TEEM".to_string(),
            apps_completed: 2,
            makespan_s: 12.125,
            busy_s: 11.0,
            overlap_s: 0.5,
            idle_s: 0.625,
            energy_j: 1234.567891011,
            idle_energy_j: 1.5e-3,
            peak_temp_c: 84.9,
            avg_temp_c: 80.0333333333,
            temp_variance: 2.25,
            zone_trips: 1,
            deadline_misses: 0,
            trace_digest: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn done_line_round_trips_exactly() {
        let r = record(7);
        let line = done_line(&r);
        match parse_line(&line).expect("parses") {
            Line::Done(back) => assert_eq!(back, r),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn unterminated_final_line_is_torn_even_when_it_parses() {
        // A record is durable only once its newline lands: the reader
        // must not count a newline-less tail record as done, because
        // `append_to` truncates by the same last-newline rule — if the
        // two disagreed, a resume could permanently lose that cell.
        let header =
            "{\"kind\":\"header\",\"version\":1,\"fingerprint\":\"00000000000000aa\",\"cells\":9}";
        let done = done_line(&record(7));
        let terminated = format!("{header}\n{done}\n");
        let j = LoadedJournal::parse(terminated.as_bytes()).expect("parses");
        assert_eq!(j.records.len(), 1);
        assert!(j.torn_tail.is_none());

        let unterminated = format!("{header}\n{done}");
        let j = LoadedJournal::parse(unterminated.as_bytes()).expect("parses");
        assert_eq!(j.records.len(), 0, "newline-less record is torn");
        let warning = j.torn_tail.expect("warned");
        assert!(warning.contains("no trailing newline"), "{warning}");
    }

    #[test]
    fn terminated_garbled_final_line_is_a_hard_error() {
        // A crash can only truncate the tail — it cannot write garbage
        // *followed by* a newline. So a terminated unparseable final
        // line is real corruption, not a torn write.
        let content = "{\"kind\":\"header\",\"version\":1,\
                       \"fingerprint\":\"00000000000000aa\",\"cells\":9}\ngarbage\n";
        match LoadedJournal::parse(content.as_bytes()) {
            Err(JournalError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
    }

    #[test]
    fn oversized_counters_are_rejected_not_wrapped() {
        // 2^32 + 1 must not truncate to version 1 / trips 1.
        let line = "{\"kind\":\"header\",\"version\":4294967297,\
                    \"fingerprint\":\"00000000000000aa\",\"cells\":9}";
        let err = parse_line(line).expect_err("overflowing version");
        assert!(err.contains("exceeds u32"), "{err}");
        let mut done = done_line(&record(0));
        done = done.replace("\"zone_trips\":1", "\"zone_trips\":4294967297");
        let err = parse_line(&done).expect_err("overflowing trips");
        assert!(err.contains("exceeds u32"), "{err}");
    }

    #[test]
    fn json_string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab",
            "control\u{0001}char",
            "unicode °C δ→∞",
        ] {
            let mut line = String::from("{\"kind\":\"failed\",\"index\":0,\"scenario\":");
            json_string(&mut line, s);
            line.push_str(",\"message\":\"m\"}");
            match parse_line(&line).expect("parses") {
                Line::Failed(f) => assert_eq!(f.scenario, s),
                _ => panic!("wrong kind"),
            }
        }
    }

    #[test]
    fn non_finite_metrics_become_null_and_read_back_nan() {
        let mut r = record(0);
        r.temp_variance = f64::NAN;
        r.overlap_s = f64::INFINITY;
        let line = done_line(&r);
        assert!(line.contains("\"temp_variance\":null"), "{line}");
        match parse_line(&line).expect("parses") {
            Line::Done(back) => {
                assert!(back.temp_variance.is_nan());
                assert!(back.overlap_s.is_nan(), "inf degrades to NaN by design");
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn parser_rejects_what_the_writer_never_emits() {
        for bad in [
            "",
            "{",
            "{}",                                    // missing kind
            "{\"kind\":\"done\"}",                   // missing fields
            "{\"kind\":\"mystery\",\"index\":0}",    // unknown kind
            "{\"kind\":\"done\",\"kind\":\"done\"}", // duplicate key
            "{\"kind\":\"header\"} trailing",        // trailing junk
            "[1,2,3]",                               // not an object
            "{\"kind\":\"failed\",\"index\":-1,\"scenario\":\"s\",\"message\":\"m\"}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn header_shard_label_round_trips_and_unsharded_headers_stay_identical() {
        let plain = header_line(1, 0xaa, 9, None);
        assert!(
            !plain.contains("shard"),
            "pre-shard byte format preserved: {plain}"
        );
        match parse_line(&plain).expect("parses") {
            Line::Header(h) => assert_eq!(h.shard, None),
            _ => panic!("wrong kind"),
        }
        let sharded = header_line(1, 0xaa, 9, Some("mod:1/3"));
        match parse_line(&sharded).expect("parses") {
            Line::Header(h) => assert_eq!(h.shard.as_deref(), Some("mod:1/3")),
            _ => panic!("wrong kind"),
        }
    }

    fn loaded(cells: usize, indices: &[usize]) -> LoadedJournal {
        LoadedJournal {
            version: 1,
            fingerprint: 0xaa,
            cells,
            shard: None,
            records: indices.iter().map(|&i| record(i)).collect(),
            failed: Vec::new(),
            torn_tail: None,
        }
    }

    #[test]
    fn merge_verifies_the_set_and_digests_order_invariantly() {
        let a = loaded(4, &[0, 2]);
        let b = loaded(4, &[3, 1]);
        let ab = SweepJournal::merge(&[a.clone(), b.clone()]).expect("merges");
        let ba = SweepJournal::merge(&[b.clone(), a.clone()]).expect("merges");
        assert_eq!(journal_digest(&ab.records), journal_digest(&ba.records));
        let indices: Vec<usize> = ab.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "merged records are index-sorted");
        assert!(ab.shard.is_none(), "a merged journal covers the whole grid");

        assert!(matches!(
            SweepJournal::merge(&[]),
            Err(JournalError::MergeEmpty)
        ));
        match SweepJournal::merge(&[a.clone(), loaded(4, &[0, 1])]) {
            Err(JournalError::MergeOverlap { index: 1, cell: 0 }) => {}
            other => panic!("expected overlap, got {other:?}"),
        }
        match SweepJournal::merge(std::slice::from_ref(&a)) {
            Err(JournalError::MergeIncomplete {
                missing: 2,
                first_missing: 1,
            }) => {}
            other => panic!("expected incomplete, got {other:?}"),
        }
        let mut alien = loaded(4, &[1, 3]);
        alien.fingerprint = 0xbb;
        match SweepJournal::merge(&[a.clone(), alien]) {
            Err(JournalError::MergeFingerprint { index: 1, .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        match SweepJournal::merge(&[a, loaded(5, &[1, 3, 4])]) {
            Err(JournalError::MergeGrid { index: 1, .. }) => {}
            other => panic!("expected grid mismatch, got {other:?}"),
        }
    }

    #[test]
    fn write_to_round_trips_through_load() {
        let mut j = loaded(4, &[2, 0, 1, 3]);
        j.failed.push(FailedCell {
            index: 1,
            scenario: "s1".to_string(),
            message: "first try panicked".to_string(),
        });
        let dir = std::env::temp_dir().join("teem-journal-write-to");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("merged.jsonl");
        j.write_to(&path).expect("writes");
        let back = LoadedJournal::load(&path).expect("loads");
        assert_eq!(back, j);
    }

    #[test]
    fn journal_digest_is_order_invariant_and_content_sensitive() {
        let a = [record(0), record(1), record(2)];
        let b = [record(2), record(0), record(1)];
        assert_eq!(journal_digest(&a), journal_digest(&b));
        let mut c = [record(0), record(1), record(2)];
        c[1].energy_j += 1.0;
        assert_ne!(journal_digest(&a), journal_digest(&c));
        assert_ne!(
            journal_digest(&a),
            journal_digest(&a[..2]),
            "subset differs"
        );
        // The sum fold must not let a repeated record cancel itself out
        // (an XOR fold would digest [A, A, B] equal to [B]).
        assert_ne!(
            journal_digest(&[record(0), record(0), record(1)]),
            journal_digest(&[record(1)]),
            "duplicates do not cancel"
        );
        assert_ne!(journal_digest(&[record(0), record(0)]), journal_digest(&[]));
    }
}
