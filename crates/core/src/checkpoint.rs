//! Crash-safe checkpoint / resume for the restart search.
//!
//! The durable unit is a **completed restart**: the search's reduction
//! picks the winner from per-restart outcomes in restart-index order, so
//! a checkpoint holding any subset of completed restarts lets a resumed
//! run re-execute only the missing indices (each fully determined by its
//! index) and merge saved + fresh outcomes into a result
//! **bit-identical** to an uninterrupted run. [`crate::search()`] reads
//! and writes checkpoints; it checks every saved restart against the
//! live graph before replaying it, and recomputes one that does not
//! check out.
//!
//! Three guarantees:
//!
//! * **Atomicity** — checkpoints go through [`crate::persist::write_atomic`];
//!   a SIGKILL mid-write leaves the previous checkpoint intact.
//! * **Non-blocking hot loop** — [`CheckpointWriter`] serializes and
//!   writes on a dedicated thread; workers only clone their outcome and
//!   send it over a channel at restart boundaries.
//! * **Identity** — every checkpoint embeds a [`fingerprint_run`] digest
//!   (built on [`fpart_hypergraph::fingerprint`], the one hash
//!   implementation in the tree) of the graph, device constraints,
//!   search configuration, and restart count; resuming against a
//!   different run is a typed error, never a silently wrong merge.
//!
//! Only [`Completion::Complete`] and [`Completion::Degraded`] restarts
//! are persisted: cancelled or deadline-expired restarts depend on
//! wall-clock timing and would break bit-identity if replayed from disk.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fpart_device::DeviceConstraints;
use fpart_hypergraph::{fingerprint_graph, Hypergraph};

use crate::budget::{Completion, RunBudget};
use crate::config::FpartConfig;
use crate::driver::{BlockReport, PartitionOutcome};
use crate::multilevel::MultilevelConfig;
use crate::obs::{Counter, Metrics, SCHEMA_VERSION};
use crate::persist::write_atomic;

/// One completed restart, as a checkpoint persists it and the solution
/// memo ([`crate::memo`]) stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedRestart {
    /// Restart index within the search.
    pub restart: usize,
    /// Final block index per node (dense).
    pub assignment: Vec<u32>,
    /// Per-block reports, indexed by block.
    pub blocks: Vec<BlockReport>,
    /// Number of devices used.
    pub device_count: usize,
    /// Theoretical lower bound `M`.
    pub lower_bound: usize,
    /// Whether every block meets the constraints.
    pub feasible: bool,
    /// Nets spanning more than one block.
    pub cut: usize,
    /// Peeling iterations executed.
    pub iterations: usize,
    /// `Improve(...)` calls executed.
    pub improve_calls: usize,
    /// Total cell moves retained.
    pub total_moves: usize,
    /// How the restart ended (only `complete` / `degraded` are saved).
    pub completion: Completion,
    /// Counter snapshot in [`Counter::ALL`] order (all zero when the
    /// restart ran unobserved). Span and timing stats are not persisted;
    /// a resumed restart's registry carries counters only.
    pub counters: Vec<u64>,
}

impl SavedRestart {
    /// Captures a finished restart's outcome and counter snapshot.
    #[must_use]
    pub fn from_outcome(restart: usize, outcome: &PartitionOutcome, metrics: &Metrics) -> Self {
        SavedRestart {
            restart,
            assignment: outcome.assignment.clone(),
            blocks: outcome.blocks.clone(),
            device_count: outcome.device_count,
            lower_bound: outcome.lower_bound,
            feasible: outcome.feasible,
            cut: outcome.cut,
            iterations: outcome.iterations,
            improve_calls: outcome.improve_calls,
            total_moves: outcome.total_moves,
            completion: outcome.completion,
            counters: Counter::ALL.iter().map(|&c| metrics.get(c)).collect(),
        }
    }

    /// Rebuilds the restart's metrics registry from the saved counters
    /// and marks it as restored ([`Counter::RestartsResumed`]).
    #[must_use]
    pub fn rebuild_metrics(&self) -> Metrics {
        let mut metrics = Metrics::enabled();
        for (&counter, &value) in Counter::ALL.iter().zip(&self.counters) {
            metrics.add(counter, value);
        }
        metrics.bump(Counter::RestartsResumed);
        metrics
    }
}

/// A versioned snapshot of a restart search in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Metrics schema version ([`SCHEMA_VERSION`]) the file was written
    /// under; a mismatch is rejected at parse time.
    pub schema_version: u32,
    /// [`fingerprint_run`] digest of the run this snapshot belongs to.
    pub fingerprint: u64,
    /// Total restarts of the search (completed + pending).
    pub restarts: usize,
    /// Completed restarts, in restart-index order.
    pub completed: Vec<SavedRestart>,
}

impl Checkpoint {
    /// Verifies the snapshot belongs to the run with `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`ReadCheckpointError::FingerprintMismatch`] when it does not.
    pub fn verify(&self, fingerprint: u64) -> Result<(), ReadCheckpointError> {
        if self.fingerprint == fingerprint {
            Ok(())
        } else {
            Err(ReadCheckpointError::FingerprintMismatch {
                found: self.fingerprint,
                expected: fingerprint,
            })
        }
    }

    /// Serializes the snapshot to the versioned text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        #[cfg(test)]
        TO_TEXT_CALLS.with(|calls| calls.set(calls.get() + 1));
        let mut out = String::new();
        let _ = writeln!(out, "#%fpart-checkpoint v{}", self.schema_version);
        let _ = writeln!(out, "fingerprint {}", self.fingerprint);
        let _ = writeln!(out, "restarts {}", self.restarts);
        let _ = writeln!(out, "completed {}", self.completed.len());
        for saved in &self.completed {
            let _ = writeln!(out, "restart {} {}", saved.restart, saved.completion.as_str());
            let _ = writeln!(
                out,
                "stats {} {} {} {} {} {} {}",
                saved.device_count,
                saved.lower_bound,
                u8::from(saved.feasible),
                saved.cut,
                saved.iterations,
                saved.improve_calls,
                saved.total_moves,
            );
            let _ = writeln!(out, "blocks {}", saved.blocks.len());
            for b in &saved.blocks {
                let _ = writeln!(
                    out,
                    "block {} {} {} {}",
                    b.size,
                    b.terminals,
                    b.externals,
                    u8::from(b.feasible)
                );
            }
            let _ = write!(out, "assignment {}", saved.assignment.len());
            for &a in &saved.assignment {
                let _ = write!(out, " {a}");
            }
            out.push('\n');
            let _ = write!(out, "counters {}", saved.counters.len());
            for &c in &saved.counters {
                let _ = write!(out, " {c}");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the versioned text format.
    ///
    /// # Errors
    ///
    /// [`ReadCheckpointError::SchemaVersionMismatch`] for a checkpoint
    /// from another schema generation, [`ReadCheckpointError::Malformed`]
    /// (with the offending line) for anything truncated or corrupted.
    pub fn parse(text: &str) -> Result<Checkpoint, ReadCheckpointError> {
        let mut lines = CursorLines::new(text);
        let (line_no, header) = lines.next_line("`#%fpart-checkpoint v<N>` header")?;
        let version = header
            .strip_prefix("#%fpart-checkpoint v")
            .and_then(|v| v.trim().parse::<u32>().ok())
            .ok_or_else(|| malformed(line_no, "`#%fpart-checkpoint v<N>` header", header))?;
        if version != SCHEMA_VERSION {
            return Err(ReadCheckpointError::SchemaVersionMismatch {
                found: version,
                expected: SCHEMA_VERSION,
            });
        }
        let fingerprint = lines.keyword_value("fingerprint")?;
        let restarts = lines.keyword_value::<usize>("restarts")?;
        let completed_count = lines.keyword_value::<usize>("completed")?;
        let mut completed = Vec::with_capacity(completed_count.min(restarts));
        for _ in 0..completed_count {
            completed.push(parse_restart(&mut lines)?);
        }
        let (line_no, sentinel) = lines.next_line("`end` sentinel")?;
        if sentinel != "end" {
            return Err(malformed(line_no, "`end` sentinel", sentinel));
        }
        Ok(Checkpoint { schema_version: version, fingerprint, restarts, completed })
    }
}

fn parse_restart(lines: &mut CursorLines<'_>) -> Result<SavedRestart, ReadCheckpointError> {
    const STATS: &str = "`stats <devices> <lower> <feasible> <cut> <iters> <improves> <moves>`";
    const ASSIGNMENT: &str = "`assignment <len> <block>...`";
    const COUNTERS: &str = "`counters <len> <value>...`";

    let (line_no, line) = lines.next_line("`restart <i> <completion>`")?;
    let mut fields = line.split_ascii_whitespace();
    let (Some("restart"), Some(restart), Some(completion), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(malformed(line_no, "`restart <i> <completion>`", line));
    };
    let restart = parse_num(restart, line_no, "`restart <i> <completion>`", line)?;
    let completion = match completion {
        "complete" => Completion::Complete,
        "degraded" => Completion::Degraded,
        "deadline_expired" => Completion::DeadlineExpired,
        "cancelled" => Completion::Cancelled,
        _ => return Err(malformed(line_no, "a known completion name", line)),
    };

    let (line_no, line) = lines.next_line(STATS)?;
    let stats = numbers_after("stats", line, line_no, STATS)?;
    let [device_count, lower_bound, feasible, cut, iterations, improve_calls, total_moves] =
        stats[..]
    else {
        return Err(malformed(line_no, STATS, line));
    };

    let block_count = lines.keyword_value::<usize>("blocks")?;
    let mut blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        const BLOCK: &str = "`block <size> <terminals> <externals> <feasible>`";
        let (line_no, line) = lines.next_line(BLOCK)?;
        let fields = numbers_after("block", line, line_no, BLOCK)?;
        let [size, terminals, externals, feasible] = fields[..] else {
            return Err(malformed(line_no, BLOCK, line));
        };
        blocks.push(BlockReport {
            size,
            terminals: terminals as usize,
            externals: externals as usize,
            feasible: feasible != 0,
        });
    }

    let (line_no, line) = lines.next_line(ASSIGNMENT)?;
    let values = numbers_after("assignment", line, line_no, ASSIGNMENT)?;
    let (Some(&len), rest) = (values.first(), &values[1.min(values.len())..]) else {
        return Err(malformed(line_no, ASSIGNMENT, line));
    };
    if rest.len() as u64 != len {
        return Err(malformed(line_no, "assignment length matching its count", line));
    }
    let assignment: Vec<u32> = rest.iter().map(|&v| v as u32).collect();

    let (line_no, line) = lines.next_line(COUNTERS)?;
    let values = numbers_after("counters", line, line_no, COUNTERS)?;
    let (Some(&len), rest) = (values.first(), &values[1.min(values.len())..]) else {
        return Err(malformed(line_no, COUNTERS, line));
    };
    if rest.len() as u64 != len {
        return Err(malformed(line_no, "counter list matching its count", line));
    }

    Ok(SavedRestart {
        restart,
        assignment,
        blocks,
        device_count: device_count as usize,
        lower_bound: lower_bound as usize,
        feasible: feasible != 0,
        cut: cut as usize,
        iterations: iterations as usize,
        improve_calls: improve_calls as usize,
        total_moves: total_moves as usize,
        completion,
        counters: rest.to_vec(),
    })
}

/// Line cursor with 1-based numbering that skips blank lines.
struct CursorLines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> CursorLines<'a> {
    fn new(text: &'a str) -> Self {
        CursorLines { iter: text.lines().enumerate() }
    }

    fn next_line(
        &mut self,
        expected: &'static str,
    ) -> Result<(usize, &'a str), ReadCheckpointError> {
        for (idx, line) in self.iter.by_ref() {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok((idx + 1, trimmed));
            }
        }
        Err(ReadCheckpointError::Malformed { line: 0, expected, found: "end of file".to_owned() })
    }

    /// Reads a `<keyword> <number>` line.
    fn keyword_value<T: std::str::FromStr>(
        &mut self,
        keyword: &'static str,
    ) -> Result<T, ReadCheckpointError> {
        let (line_no, line) = self.next_line(keyword)?;
        let mut fields = line.split_ascii_whitespace();
        if fields.next() != Some(keyword) {
            return Err(malformed(line_no, keyword, line));
        }
        let (Some(value), None) = (fields.next(), fields.next()) else {
            return Err(malformed(line_no, keyword, line));
        };
        value.parse::<T>().map_err(|_| malformed(line_no, keyword, line))
    }
}

fn malformed(line: usize, expected: &'static str, found: &str) -> ReadCheckpointError {
    let mut found = found.to_owned();
    if found.len() > 80 {
        let mut end = 80;
        while !found.is_char_boundary(end) {
            end -= 1;
        }
        found.truncate(end);
        found.push_str("...");
    }
    ReadCheckpointError::Malformed { line, expected, found }
}

fn parse_num<T: std::str::FromStr>(
    field: &str,
    line_no: usize,
    expected: &'static str,
    line: &str,
) -> Result<T, ReadCheckpointError> {
    field.parse::<T>().map_err(|_| malformed(line_no, expected, line))
}

/// Parses `<keyword> <n0> <n1> ...` into the numbers.
fn numbers_after(
    keyword: &str,
    line: &str,
    line_no: usize,
    expected: &'static str,
) -> Result<Vec<u64>, ReadCheckpointError> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next() != Some(keyword) {
        return Err(malformed(line_no, expected, line));
    }
    fields.map(|f| parse_num(f, line_no, expected, line)).collect()
}

/// An error reading a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReadCheckpointError {
    /// The file was written under a different metrics schema generation.
    SchemaVersionMismatch {
        /// Version in the file.
        found: u32,
        /// Version this build reads ([`SCHEMA_VERSION`]).
        expected: u32,
    },
    /// The file is truncated or corrupted at the given line.
    Malformed {
        /// 1-based line number (0 for an unexpected end of file).
        line: usize,
        /// What the parser was looking for.
        expected: &'static str,
        /// What it found (truncated for display).
        found: String,
    },
    /// The checkpoint belongs to a different run (graph, constraints,
    /// configuration, or restart count differ).
    FingerprintMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the run attempting to resume.
        expected: u64,
    },
    /// The file could not be read at all.
    Io(String),
}

impl fmt::Display for ReadCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadCheckpointError::SchemaVersionMismatch { found, expected } => write!(
                f,
                "checkpoint schema version {found} does not match this build's version {expected}"
            ),
            ReadCheckpointError::Malformed { line, expected, found } => {
                write!(
                    f,
                    "malformed checkpoint at line {line}: expected {expected}, found `{found}`"
                )
            }
            ReadCheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} belongs to a different run \
                 (this run is {expected:#018x}); refusing to merge"
            ),
            ReadCheckpointError::Io(message) => write!(f, "cannot read checkpoint: {message}"),
        }
    }
}

impl Error for ReadCheckpointError {}

/// Writes `checkpoint` to `path` atomically (temp file + rename).
///
/// # Errors
///
/// Propagates I/O errors; the destination is never left torn.
pub fn write_checkpoint(path: &Path, checkpoint: &Checkpoint) -> io::Result<()> {
    write_atomic(path, checkpoint.to_text().as_bytes())
}

/// Reads and validates a checkpoint file.
///
/// # Errors
///
/// See [`Checkpoint::parse`]; unreadable files surface as
/// [`ReadCheckpointError::Io`].
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, ReadCheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| ReadCheckpointError::Io(e.to_string()))?;
    Checkpoint::parse(&text)
}

/// Fingerprints a restart search: everything that determines its result.
///
/// Chains [`fingerprint_graph`] — the same graph hash that keys the
/// solution memo, covering names, sizes, pins and pads in id order —
/// with the device constraints and configuration (folded via their
/// `Debug` rendering: stable, value-based), after normalizing the fields
/// a resume is allowed to change: thread counts, the cancellation token,
/// and the memo-store handle (memoization never changes a result).
#[must_use]
pub fn fingerprint_run(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    multilevel: Option<&MultilevelConfig>,
    restarts: usize,
) -> u64 {
    let normalized = FpartConfig {
        budget: RunBudget { cancel: None, ..config.budget.clone() },
        ..config.clone()
    };
    let mut fp = fingerprint_graph(graph)
        .fold_str(&format!("{constraints:?}"))
        .fold_str(&format!("{normalized:?}"));
    fp = match multilevel {
        Some(ml) => {
            let normalized = MultilevelConfig { threads: 1, memo: None, ..ml.clone() };
            fp.fold_str("multilevel").fold_str(&format!("{normalized:?}"))
        }
        None => fp.fold_str("flat"),
    };
    fp.fold_u64(restarts as u64).to_u64()
}

#[cfg(test)]
thread_local! {
    /// [`Checkpoint::to_text`] calls made on this thread.
    static TO_TEXT_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Message sent to the writer thread: a snapshot to persist.
type WriterResult = (u64, Option<io::Error>);

/// Dedicated checkpoint writer: workers send snapshots over a channel;
/// a background thread serializes and writes them atomically, throttled
/// to at most one write per `interval` (the last snapshot received is
/// always flushed on [`CheckpointWriter::finish`], so the file on disk
/// never ends up older than the final state).
#[derive(Debug)]
pub struct CheckpointWriter {
    /// `Some` until [`CheckpointWriter::finish`]; the mutex makes the
    /// sender shareable across worker threads on older toolchains.
    tx: Option<Mutex<mpsc::Sender<Checkpoint>>>,
    handle: Option<JoinHandle<WriterResult>>,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Spawns the writer thread targeting `path`.
    #[must_use]
    pub fn spawn(path: PathBuf, interval: Duration) -> CheckpointWriter {
        let (tx, rx) = mpsc::channel::<Checkpoint>();
        let target = path.clone();
        let handle = std::thread::Builder::new()
            .name("fpart-checkpoint".to_owned())
            .spawn(move || {
                let mut writes = 0u64;
                let mut error: Option<io::Error> = None;
                let mut last_write: Option<Instant> = None;
                let mut deferred: Option<Checkpoint> = None;
                while let Ok(checkpoint) = rx.recv() {
                    let due = last_write.is_none_or(|t| t.elapsed() >= interval);
                    if due {
                        match write_atomic(&target, checkpoint.to_text().as_bytes()) {
                            Ok(()) => {
                                writes += 1;
                                last_write = Some(Instant::now());
                                deferred = None;
                            }
                            Err(e) => error = Some(e),
                        }
                    } else {
                        deferred = Some(checkpoint);
                    }
                }
                // Channel closed: flush the newest deferred snapshot so
                // the final state always reaches disk.
                if let Some(checkpoint) = deferred {
                    match write_atomic(&target, checkpoint.to_text().as_bytes()) {
                        Ok(()) => writes += 1,
                        Err(e) => error = Some(e),
                    }
                }
                (writes, error)
            })
            .expect("spawning the checkpoint writer thread");
        CheckpointWriter { tx: Some(Mutex::new(tx)), handle: Some(handle), path }
    }

    /// The checkpoint file this writer maintains.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Queues a snapshot for persistence; never blocks on I/O. Called
    /// from worker threads at restart boundaries.
    pub fn submit(&self, checkpoint: Checkpoint) {
        if let Some(tx) = &self.tx {
            let _ = tx.lock().expect("checkpoint sender lock").send(checkpoint);
        }
    }

    /// Closes the channel, joins the writer thread, and returns how many
    /// checkpoint files were written.
    ///
    /// # Errors
    ///
    /// The last write error the thread hit, if any.
    pub fn finish(mut self) -> io::Result<u64> {
        self.tx.take();
        let handle = self.handle.take().expect("finish consumes the writer");
        let (writes, error) = handle.join().expect("checkpoint writer thread never panics");
        match error {
            Some(e) => Err(e),
            None => Ok(writes),
        }
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartitionError;
    use crate::obs::Observer;
    use crate::search::{search, Algorithm, Restarts, RestartsReport};
    use fpart_device::Device;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            schema_version: SCHEMA_VERSION,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            restarts: 4,
            completed: vec![SavedRestart {
                restart: 1,
                assignment: vec![0, 0, 1, 2, 1],
                blocks: vec![
                    BlockReport { size: 2, terminals: 3, externals: 1, feasible: true },
                    BlockReport { size: 2, terminals: 4, externals: 0, feasible: true },
                    BlockReport { size: 1, terminals: 1, externals: 0, feasible: false },
                ],
                device_count: 3,
                lower_bound: 2,
                feasible: false,
                cut: 4,
                iterations: 3,
                improve_calls: 9,
                total_moves: 17,
                completion: Completion::Degraded,
                counters: Counter::ALL.iter().enumerate().map(|(i, _)| i as u64).collect(),
            }],
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let checkpoint = sample_checkpoint();
        let parsed = Checkpoint::parse(&checkpoint.to_text()).unwrap();
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn schema_version_mismatch_is_typed() {
        let text = sample_checkpoint().to_text();
        let old =
            text.replacen(&format!("v{SCHEMA_VERSION}"), &format!("v{}", SCHEMA_VERSION - 1), 1);
        assert_eq!(
            Checkpoint::parse(&old).unwrap_err(),
            ReadCheckpointError::SchemaVersionMismatch {
                found: SCHEMA_VERSION - 1,
                expected: SCHEMA_VERSION
            }
        );
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic() {
        let text = sample_checkpoint().to_text();
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let truncated = &text[..cut];
            if truncated == text {
                continue;
            }
            match Checkpoint::parse(truncated) {
                Err(_) => {}
                // A cut right before the final newline of `end` still
                // parses (line iteration does not need the trailing
                // newline); anything else must fail.
                Ok(parsed) => assert_eq!(parsed, sample_checkpoint()),
            }
        }
    }

    #[test]
    fn corrupt_counts_are_rejected() {
        let text = sample_checkpoint().to_text();
        let bad = text.replace("assignment 5", "assignment 6");
        assert!(matches!(
            Checkpoint::parse(&bad).unwrap_err(),
            ReadCheckpointError::Malformed { .. }
        ));
    }

    #[test]
    fn fingerprint_depends_on_inputs() {
        let g = window_circuit(&WindowConfig::new("w", 120, 12), 5);
        let g2 = window_circuit(&WindowConfig::new("w", 120, 12), 6);
        let constraints = Device::XC3020.constraints(0.9);
        let config = FpartConfig::default();
        let a = fingerprint_run(&g, constraints, &config, None, 4);
        assert_eq!(a, fingerprint_run(&g, constraints, &config, None, 4), "stable");
        assert_ne!(a, fingerprint_run(&g2, constraints, &config, None, 4), "graph");
        assert_ne!(a, fingerprint_run(&g, constraints, &config, None, 5), "restarts");
        let diverged = FpartConfig { seed: config.seed + 1, ..config.clone() };
        assert_ne!(a, fingerprint_run(&g, constraints, &diverged, None, 4), "config");
        let ml = MultilevelConfig::default();
        assert_ne!(a, fingerprint_run(&g, constraints, &config, Some(&ml), 4), "mode");
        // Thread counts do not change the fingerprint: a checkpoint from
        // a parallel run resumes on a single thread.
        let b = fingerprint_run(&g, constraints, &config, Some(&ml), 4);
        let ml8 = MultilevelConfig { threads: 8, ..ml };
        assert_eq!(b, fingerprint_run(&g, constraints, &config, Some(&ml8), 4));
    }

    /// The restart search as the CLI drives it: metrics on, optional
    /// resume and writer.
    fn durable(
        g: &Hypergraph,
        constraints: DeviceConstraints,
        ml: Option<&MultilevelConfig>,
        restarts: usize,
        threads: usize,
        resume: Option<&Checkpoint>,
        writer: Option<&CheckpointWriter>,
    ) -> Result<RestartsReport, PartitionError> {
        search(
            g,
            constraints,
            &FpartConfig::default(),
            ml.map_or(Algorithm::Flat, Algorithm::Multilevel),
            &Restarts { count: restarts, threads, resume, writer },
            &mut Observer::new(Metrics::enabled(), None),
        )
    }

    #[test]
    fn durable_without_checkpointing_matches_observed_search() {
        let g = window_circuit(&WindowConfig::new("w", 180, 18), 5);
        let constraints = fpart_device::DeviceConstraints::new(35, 60);
        let fp = fingerprint_run(&g, constraints, &FpartConfig::default(), None, 3);
        // Resuming a snapshot that holds no restart yet runs them all.
        let empty = Checkpoint {
            schema_version: SCHEMA_VERSION,
            fingerprint: fp,
            restarts: 3,
            completed: Vec::new(),
        };
        let resumed = durable(&g, constraints, None, 3, 2, Some(&empty), None).unwrap();
        let plain = durable(&g, constraints, None, 3, 2, None, None).unwrap();
        assert_eq!(resumed.outcome.assignment, plain.outcome.assignment);
        assert_eq!(resumed.outcome.cut, plain.outcome.cut);
        assert_eq!(resumed.outcome.device_count, plain.outcome.device_count);
        for c in Counter::ALL {
            assert_eq!(resumed.totals.get(c), plain.totals.get(c), "{}", c.name());
        }
    }

    #[test]
    fn resume_from_partial_checkpoint_is_bit_identical() {
        let g = window_circuit(&WindowConfig::new("w", 200, 20), 9);
        let constraints = Device::XC3020.constraints(0.9);
        let config = FpartConfig::default();
        let ml = MultilevelConfig { coarsen_floor: 64, ..MultilevelConfig::default() };
        let restarts = 4;
        let fp = fingerprint_run(&g, constraints, &config, Some(&ml), restarts);

        let dir =
            std::env::temp_dir().join(format!("fpart-checkpoint-partial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let writer = CheckpointWriter::spawn(dir.join("run.ckpt"), Duration::ZERO);
        let full = durable(&g, constraints, Some(&ml), restarts, 2, None, Some(&writer)).unwrap();
        writer.finish().unwrap();

        // Simulate a crash after restarts 0 and 2 completed.
        let mut snapshot = read_checkpoint(&dir.join("run.ckpt")).unwrap();
        assert_eq!(snapshot.fingerprint, fp);
        snapshot.completed.retain(|saved| saved.restart % 2 == 0);
        let roundtripped = Checkpoint::parse(&snapshot.to_text()).unwrap();

        for threads in [1usize, 4] {
            let resumed =
                durable(&g, constraints, Some(&ml), restarts, threads, Some(&roundtripped), None)
                    .unwrap();
            assert_eq!(resumed.outcome.assignment, full.outcome.assignment, "threads={threads}");
            assert_eq!(resumed.outcome.cut, full.outcome.cut);
            assert_eq!(resumed.outcome.device_count, full.outcome.device_count);
            assert_eq!(resumed.outcome.feasible, full.outcome.feasible);
            assert_eq!(
                resumed.totals.get(Counter::RestartsResumed),
                2,
                "both saved restarts restored"
            );
            // Counter totals still equal the field-wise per-restart sums.
            for c in Counter::ALL {
                let sum: u64 = resumed.per_restart.iter().map(|m| m.get(c)).sum();
                assert_eq!(resumed.totals.get(c), sum, "{}", c.name());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let g = window_circuit(&WindowConfig::new("w", 120, 12), 5);
        let constraints = Device::XC3020.constraints(0.9);
        let config = FpartConfig::default();
        let fp = fingerprint_run(&g, constraints, &config, None, 2);
        let snapshot = Checkpoint {
            schema_version: SCHEMA_VERSION,
            fingerprint: fp ^ 1,
            restarts: 2,
            completed: Vec::new(),
        };
        assert!(snapshot.verify(fp).is_err());
        let err = durable(&g, constraints, None, 2, 1, Some(&snapshot), None).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidConfig { .. }));
    }

    #[test]
    fn writer_persists_snapshots_and_counts_writes() {
        let dir =
            std::env::temp_dir().join(format!("fpart-checkpoint-writer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let g = window_circuit(&WindowConfig::new("w", 150, 15), 3);
        let constraints = fpart_device::DeviceConstraints::new(35, 60);
        let config = FpartConfig::default();
        let restarts = 3;
        let fp = fingerprint_run(&g, constraints, &config, None, restarts);
        let writer = CheckpointWriter::spawn(path.clone(), Duration::ZERO);
        let report = durable(&g, constraints, None, restarts, 2, None, Some(&writer)).unwrap();
        let writes = writer.finish().unwrap();
        assert!(writes >= 1, "at least one checkpoint written");

        let snapshot = read_checkpoint(&path).unwrap();
        snapshot.verify(fp).unwrap();
        assert_eq!(snapshot.restarts, restarts);
        assert_eq!(snapshot.completed.len(), restarts, "final snapshot covers all restarts");

        // Resuming from the final snapshot recomputes nothing and still
        // reproduces the search result exactly.
        let resumed = durable(&g, constraints, None, restarts, 1, Some(&snapshot), None).unwrap();
        assert_eq!(resumed.outcome.assignment, report.outcome.assignment);
        assert_eq!(resumed.outcome.cut, report.outcome.cut);
        assert_eq!(resumed.totals.get(Counter::RestartsResumed), restarts as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpointing costs the search one channel send per restart,
    /// counted rather than timed: the searching thread never serializes
    /// a snapshot, and a writer throttled to one write an hour writes
    /// the first snapshot and the final flush only.
    #[test]
    fn search_thread_never_serializes_and_the_writer_throttles() {
        use std::cell::Cell;

        let dir =
            std::env::temp_dir().join(format!("fpart-checkpoint-inline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let g = window_circuit(&WindowConfig::new("w", 200, 20), 9);
        let ml = MultilevelConfig { coarsen_floor: 64, ..MultilevelConfig::default() };
        let restarts = 3;

        let writer = CheckpointWriter::spawn(path.clone(), Duration::from_hours(1));
        let before = TO_TEXT_CALLS.with(Cell::get);
        let constraints = Device::XC3020.constraints(0.9);
        durable(&g, constraints, Some(&ml), restarts, 1, None, Some(&writer)).unwrap();
        assert_eq!(TO_TEXT_CALLS.with(Cell::get), before, "the search thread serialized");
        assert_eq!(writer.finish().unwrap(), 2, "first snapshot and final flush only");
        assert_eq!(read_checkpoint(&path).unwrap().completed.len(), restarts);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_throttles_but_always_flushes_the_last_snapshot() {
        let dir =
            std::env::temp_dir().join(format!("fpart-checkpoint-throttle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let writer = CheckpointWriter::spawn(path.clone(), Duration::from_hours(1));
        for completed in 0..3usize {
            let mut snapshot = sample_checkpoint();
            snapshot.restarts = 10;
            snapshot.completed[0].restart = completed;
            writer.submit(snapshot);
        }
        let writes = writer.finish().unwrap();
        // First submit writes immediately; the rest are throttled and
        // the newest one flushes at finish.
        assert_eq!(writes, 2);
        let snapshot = read_checkpoint(&path).unwrap();
        assert_eq!(snapshot.completed[0].restart, 2, "latest snapshot wins");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
