//! Zero-overhead observability: engine metrics and structured event sinks.
//!
//! The paper's whole evaluation is schedule behaviour — which
//! `Improve(...)` slots fire, how many passes/moves/restarts each
//! consumes, how feasibility classes evolve (Figs. 1–2). This module
//! makes that behaviour measurable without perturbing it:
//!
//! * [`Metrics`] — a registry of named [`Counter`]s plus per-
//!   [`ImproveKind`] monotonic wall-time histograms ([`TimeStat`]).
//!   A disabled registry records nothing and costs **one predictable
//!   branch per event, no heap allocation, no clock reads** — the same
//!   discipline as [`crate::Trace`]'s lazy recording.
//! * [`EventSink`] — the generalization of [`crate::Trace`]: anything
//!   that can consume driver [`TraceEvent`]s. `Trace` itself is one sink;
//!   [`JsonlSink`] streams events as JSON Lines; [`FanoutSink`]
//!   broadcasts to several sinks.
//! * [`SpanStack`] — a hierarchical phase profiler: every pipeline
//!   phase (parse, coarsen level, initial, refine level, pair job,
//!   restart, ECO place/repair) opens a [`SpanKind`] span whose
//!   self/total wall time, counter deltas, and structural stats
//!   ([`SpanStats`]) aggregate into [`SpanRecord`]s. Children fork and
//!   merge in job-index order exactly like the counters, so the record
//!   table is bit-identical at every thread count; only the wall-time
//!   fields (excluded from equality) vary run to run.
//! * [`Observer`] — the bundle the driver threads through a run: an
//!   owned `Metrics` plus an optional `&mut dyn EventSink` and a
//!   [`Heartbeat`] throttle for progress events.
//!
//! Instrumented and uninstrumented runs produce **bit-identical
//! partitions** (metrics never influence control flow); the
//! `observability` integration suite proves it by property test at 1
//! and 4 threads.
//!
//! All serialization here is dependency-free, hand-rolled JSON — the
//! workspace stays offline (no `serde`, no `tracing`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::cost::SolutionKey;
use crate::server::protocol::json_string;
use crate::trace::{ImproveKind, TraceEvent};

/// Schema version of every machine-readable document the workspace
/// emits (the CLI `--metrics` file, the JSONL trace, checkpoints, the
/// quality-gate JSON). Bump it whenever a field is renamed, removed, or
/// changes meaning.
///
/// Version 9 adds the partition server: the `server_requests` /
/// `server_cancelled` counters and the protocol `hello` banner's
/// `schema_version` field.
///
/// Version 10 adds fingerprint-keyed memoization: the
/// `hierarchy_cache_hits` / `hierarchy_cache_misses` /
/// `hierarchy_cache_evictions` / `memo_warm_starts` /
/// `server_coalesced` counters.
///
/// Version 11 removes the coarsening-hierarchy cache and its
/// `hierarchy_cache_hits` / `hierarchy_cache_misses` /
/// `hierarchy_cache_evictions` counters.
pub const SCHEMA_VERSION: u32 = 11;

/// The named engine counters. Every counter is a monotonically
/// increasing `u64`; [`Counter::name`] is the stable `snake_case` key used
/// in serialized form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// FM passes executed (`engine::run_pass` entries).
    Passes = 0,
    /// Cell moves applied inside pass loops (before any rollback).
    MovesApplied,
    /// Applied moves undone by best-prefix rollback.
    MovesReverted,
    /// Cells inspected (popped) from gain buckets during move selection.
    GainBucketPops,
    /// Restart series launched from stacked solutions.
    StackRestarts,
    /// Solution-key evaluations (incremental and from-scratch).
    KeyEvaluations,
    /// Stack snapshots materialized from move-log prefixes.
    SnapshotsMaterialized,
    /// `Improve(...)` calls issued by a driver schedule.
    ImproveCalls,
    /// Peeling iterations of Algorithm 1.
    Iterations,
    /// Constructive remainder bipartitions.
    Bipartitions,
    /// Independent runs/restarts aggregated into this registry.
    Runs,
    /// Runs stopped early by a budget (deadline, cancel, pass/move cap).
    BudgetStops,
    /// Faults injected by an installed [`crate::FaultPlan`] (panicking
    /// faults are counted on the surviving side as failed restarts).
    FaultsInjected,
    /// Restarts lost to an isolated panic.
    FailedRestarts,
    /// Coarsening levels built by the n-level multilevel flow.
    CoarsenLevels,
    /// Boundary-refinement improve calls run during uncoarsening.
    BoundaryRefinements,
    /// Netlist edit operations applied by the ECO flow.
    EcoEditsApplied,
    /// Blocks marked dirty (and therefore repaired) by the ECO flow.
    EcoDirtyBlocks,
    /// ECO repairs that fell back to full repartitioning.
    EcoFallbacks,
    /// Boundary-refinement pair jobs scheduled onto intra-run workers.
    PairJobs,
    /// Pair jobs lost to an isolated worker panic (their moves are
    /// dropped deterministically; the round's other pairs commit).
    PairPanics,
    /// Restarts whose results were restored from a checkpoint instead
    /// of being re-run.
    RestartsResumed,
    /// Checkpoint snapshots written to disk during the run.
    CheckpointsWritten,
    /// Protocol requests executed against a server session (the
    /// per-request registries merge into the session totals carrying
    /// this count).
    ServerRequests,
    /// Server requests stopped by an explicit `cancel` request.
    ServerCancelled,
    /// Restarts replayed from the solution memo instead of searching
    /// (always verified against the live graph before being trusted).
    MemoWarmStarts,
    /// Duplicate in-flight server requests coalesced onto one run.
    ServerCoalesced,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 27] = [
        Counter::Passes,
        Counter::MovesApplied,
        Counter::MovesReverted,
        Counter::GainBucketPops,
        Counter::StackRestarts,
        Counter::KeyEvaluations,
        Counter::SnapshotsMaterialized,
        Counter::ImproveCalls,
        Counter::Iterations,
        Counter::Bipartitions,
        Counter::Runs,
        Counter::BudgetStops,
        Counter::FaultsInjected,
        Counter::FailedRestarts,
        Counter::CoarsenLevels,
        Counter::BoundaryRefinements,
        Counter::EcoEditsApplied,
        Counter::EcoDirtyBlocks,
        Counter::EcoFallbacks,
        Counter::PairJobs,
        Counter::PairPanics,
        Counter::RestartsResumed,
        Counter::CheckpointsWritten,
        Counter::ServerRequests,
        Counter::ServerCancelled,
        Counter::MemoWarmStarts,
        Counter::ServerCoalesced,
    ];

    /// Stable `snake_case` key of this counter in serialized metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::Passes => "passes",
            Counter::MovesApplied => "moves_applied",
            Counter::MovesReverted => "moves_reverted",
            Counter::GainBucketPops => "gain_bucket_pops",
            Counter::StackRestarts => "stack_restarts",
            Counter::KeyEvaluations => "key_evaluations",
            Counter::SnapshotsMaterialized => "snapshots_materialized",
            Counter::ImproveCalls => "improve_calls",
            Counter::Iterations => "iterations",
            Counter::Bipartitions => "bipartitions",
            Counter::Runs => "runs",
            Counter::BudgetStops => "budget_stops",
            Counter::FaultsInjected => "faults_injected",
            Counter::FailedRestarts => "failed_restarts",
            Counter::CoarsenLevels => "coarsen_levels",
            Counter::BoundaryRefinements => "boundary_refinements",
            Counter::EcoEditsApplied => "eco_edits_applied",
            Counter::EcoDirtyBlocks => "eco_dirty_blocks",
            Counter::EcoFallbacks => "eco_fallbacks",
            Counter::PairJobs => "pair_jobs",
            Counter::PairPanics => "pair_panics",
            Counter::RestartsResumed => "restarts_resumed",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::ServerRequests => "server_requests",
            Counter::ServerCancelled => "server_cancelled",
            Counter::MemoWarmStarts => "memo_warm_starts",
            Counter::ServerCoalesced => "server_coalesced",
        }
    }
}

/// Number of log₂ nanosecond buckets in a [`TimeStat`] histogram.
/// Bucket `b` counts durations in `[2^(b−1), 2^b)` ns (bucket 0 is
/// `< 1` ns); the last bucket absorbs everything from `2^38` ns
/// (≈ 4.6 min) up.
pub const TIME_BUCKETS: usize = 40;

/// A monotonic wall-time statistic: count, total, min/max, and a
/// log₂-bucketed histogram of observed durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeStat {
    /// Durations recorded.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded duration (`u64::MAX` while empty).
    pub min_ns: u64,
    /// Longest recorded duration.
    pub max_ns: u64,
    /// `log2_hist[b]` counts durations with `⌈log₂ ns⌉ = b` (see
    /// [`TIME_BUCKETS`]).
    pub log2_hist: [u64; TIME_BUCKETS],
}

impl Default for TimeStat {
    fn default() -> Self {
        TimeStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            log2_hist: [0; TIME_BUCKETS],
        }
    }
}

impl TimeStat {
    /// Records one duration.
    pub fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - u64::leading_zeros(ns)) as usize;
        self.log2_hist[bucket.min(TIME_BUCKETS - 1)] += 1;
    }

    /// Merges another statistic into this one (commutative on the
    /// aggregates; callers merge in a fixed order anyway for
    /// determinism).
    pub fn merge(&mut self, other: &TimeStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.log2_hist.iter_mut().zip(&other.log2_hist) {
            *a += b;
        }
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"log2_hist\": [",
            self.count,
            self.total_ns,
            if self.count == 0 { 0 } else { self.min_ns },
            self.max_ns
        );
        for (i, c) in self.log2_hist.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("]}");
    }
}

/// One phase of the partitioning pipeline, as named by span records,
/// Chrome trace events, and progress heartbeats. [`SpanKind::as_str`]
/// is the stable `snake_case` key used in serialized form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// Netlist parsing / graph construction (CLI-side).
    Parse = 0,
    /// One independent restart of a multi-run search.
    Restart,
    /// One heavy-edge coarsening level of the multilevel flow.
    CoarsenLevel,
    /// The initial partition: the FPART peeling driver — the coarsest-
    /// level solve in the multilevel flow, the whole run in flat mode.
    Initial,
    /// One constructive remainder bipartition (peeling) or FM run.
    Bipartition,
    /// One `improve` call (FM pass loop over a cell set).
    Improve,
    /// Boundary refinement of one uncoarsening level.
    RefineLevel,
    /// One block-pair boundary-refinement job on an intra-run worker.
    PairJob,
    /// Re-placing cells affected by an edit script (ECO flow).
    EcoPlace,
    /// Dirty-block boundary repair (ECO flow).
    EcoRepair,
}

impl SpanKind {
    /// Every span kind, in serialization order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Parse,
        SpanKind::Restart,
        SpanKind::CoarsenLevel,
        SpanKind::Initial,
        SpanKind::Bipartition,
        SpanKind::Improve,
        SpanKind::RefineLevel,
        SpanKind::PairJob,
        SpanKind::EcoPlace,
        SpanKind::EcoRepair,
    ];

    /// Stable `snake_case` name of this phase in serialized form (the
    /// `--metrics` `spans` section, Chrome trace events, progress
    /// events). Part of the schema-versioned compat surface.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Parse => "parse",
            SpanKind::Restart => "restart",
            SpanKind::CoarsenLevel => "coarsen_level",
            SpanKind::Initial => "initial",
            SpanKind::Bipartition => "bipartition",
            SpanKind::Improve => "improve",
            SpanKind::RefineLevel => "refine_level",
            SpanKind::PairJob => "pair_job",
            SpanKind::EcoPlace => "eco_place",
            SpanKind::EcoRepair => "eco_repair",
        }
    }
}

/// Structural statistics attached to a span when it closes: what the
/// phase worked on and what it accomplished. All fields are sums over
/// the span's executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Nodes (cells or clusters) in scope of the phase.
    pub nodes: u64,
    /// Nets in scope of the phase.
    pub nets: u64,
    /// Boundary cells considered (refinement phases) or blocks touched
    /// (ECO phases).
    pub boundary: u64,
    /// Moves accepted by the phase.
    pub moves: u64,
    /// Net cut improvement produced by the phase (initial − final cut;
    /// negative when the phase regressed).
    pub gain: i64,
}

impl SpanStats {
    /// Adds another stats bundle field-wise.
    pub fn accumulate(&mut self, other: &SpanStats) {
        self.nodes += other.nodes;
        self.nets += other.nets;
        self.boundary += other.boundary;
        self.moves += other.moves;
        self.gain += other.gain;
    }
}

/// The aggregated profile of one `(kind, level, parent)` phase slot:
/// how often it ran, its total and self wall time, its structural
/// stats, and the counter activity booked while it was the innermost
/// open span.
///
/// Equality deliberately **ignores `total_ns` and `self_ns`**: two
/// profiles are equal when they are structurally identical (same
/// phases, same counts, same stats, same counter deltas) — wall time is
/// the one nondeterministic axis, and the determinism proptests compare
/// whole registries across thread counts.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The phase this record profiles.
    pub kind: SpanKind,
    /// Hierarchy level of the phase (coarsen/refine level index;
    /// peeling iteration for [`SpanKind::Initial`]; 0 elsewhere).
    pub level: u32,
    /// Kind of the innermost span that was open when this one started
    /// (`None` for root spans).
    pub parent: Option<SpanKind>,
    /// Times the phase executed.
    pub count: u64,
    /// Total wall time, children included, in nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding same-registry child spans, in nanoseconds.
    pub self_ns: u64,
    /// Summed structural stats of every execution.
    pub stats: SpanStats,
    counters: [u64; Counter::ALL.len()],
}

impl SpanRecord {
    fn new(kind: SpanKind, level: u32, parent: Option<SpanKind>) -> Self {
        SpanRecord {
            kind,
            level,
            parent,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            stats: SpanStats::default(),
            counters: [0; Counter::ALL.len()],
        }
    }

    /// The counter delta booked while spans of this slot were open
    /// (closed spans only; deltas nest with the span hierarchy).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }
}

impl PartialEq for SpanRecord {
    fn eq(&self, other: &Self) -> bool {
        // total_ns / self_ns excluded: wall time is nondeterministic.
        self.kind == other.kind
            && self.level == other.level
            && self.parent == other.parent
            && self.count == other.count
            && self.stats == other.stats
            && self.counters == other.counters
    }
}

impl Eq for SpanRecord {}

/// One completed span occurrence, kept for Chrome trace export: when it
/// started (relative to its registry's epoch), how long it ran, and
/// which lane (worker/restart) it ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The phase that ran.
    pub kind: SpanKind,
    /// Hierarchy level (see [`SpanRecord::level`]).
    pub level: u32,
    /// Start offset from the registry epoch, in nanoseconds. Restart
    /// children created with a fresh registry carry their own epoch, so
    /// their events start near zero in their own lane.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Synthetic lane id (Chrome `tid`): 0 for the main flow, one lane
    /// per restart or intra-run worker.
    pub lane: u32,
}

/// Reads the monotonic clock. Every clock read of this module goes
/// through here, so tests can count them (`CLOCK_READS`).
#[inline]
fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

#[cfg(test)]
thread_local! {
    /// Clock reads [`now`] made on this thread.
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[derive(Debug, Clone)]
struct OpenSpan {
    slot: usize,
    started: Instant,
    child_ns: u64,
    counters_at_open: [u64; Counter::ALL.len()],
}

/// The hierarchical phase profiler: a stack of open spans over a table
/// of [`SpanRecord`]s plus the completed-span event log.
///
/// Deterministic-merge rules (mirroring [`Metrics::merge`]):
///
/// * records aggregate by `(kind, level, parent)` slot in first-seen
///   order; merging adds counts, times, stats, and counter deltas
///   slot-wise, and children are merged in job-index order — so the
///   record table is bit-identical at every thread count;
/// * equality compares **records only** (and record equality ignores
///   wall time), so instrumented-run comparisons across thread counts
///   are exact;
/// * the event log is append-only in completion order and only feeds
///   the Chrome trace export — it is excluded from equality.
#[derive(Debug, Clone, Default)]
pub struct SpanStack {
    records: Vec<SpanRecord>,
    open: Vec<OpenSpan>,
    events: Vec<SpanEvent>,
    epoch: Option<Instant>,
    ambient: Option<SpanKind>,
    lane: u32,
}

impl PartialEq for SpanStack {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl SpanStack {
    /// An empty stack whose epoch (the zero point of event timestamps)
    /// is now.
    #[must_use]
    pub fn started() -> Self {
        SpanStack { epoch: Some(now()), ..SpanStack::default() }
    }

    /// An empty child stack for a worker: shares the parent's epoch and
    /// lane, and inherits the parent's innermost open span as the
    /// ambient parent of its own root spans.
    #[must_use]
    pub fn fork(&self) -> Self {
        SpanStack {
            epoch: self.epoch,
            ambient: self.parent_kind(),
            lane: self.lane,
            ..SpanStack::default()
        }
    }

    fn parent_kind(&self) -> Option<SpanKind> {
        self.open.last().map(|o| self.records[o.slot].kind).or(self.ambient)
    }

    fn slot_for(&mut self, kind: SpanKind, level: u32, parent: Option<SpanKind>) -> usize {
        if let Some(i) = self
            .records
            .iter()
            .position(|r| r.kind == kind && r.level == level && r.parent == parent)
        {
            return i;
        }
        self.records.push(SpanRecord::new(kind, level, parent));
        self.records.len() - 1
    }

    /// Sets the Chrome-trace lane of subsequently completed spans.
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    fn open(&mut self, kind: SpanKind, level: u32, counters: &[u64; Counter::ALL.len()]) {
        let parent = self.parent_kind();
        let slot = self.slot_for(kind, level, parent);
        self.open.push(OpenSpan { slot, started: now(), child_ns: 0, counters_at_open: *counters });
    }

    fn close(&mut self, stats: &SpanStats, counters: &[u64; Counter::ALL.len()]) {
        let Some(top) = self.open.pop() else { return };
        let ns = u64::try_from(now().duration_since(top.started).as_nanos()).unwrap_or(u64::MAX);
        let record = &mut self.records[top.slot];
        record.count += 1;
        record.total_ns = record.total_ns.saturating_add(ns);
        record.self_ns = record.self_ns.saturating_add(ns.saturating_sub(top.child_ns));
        record.stats.accumulate(stats);
        for (slot, (now, at_open)) in
            record.counters.iter_mut().zip(counters.iter().zip(&top.counters_at_open))
        {
            *slot += now.saturating_sub(*at_open);
        }
        let (kind, level) = (record.kind, record.level);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(ns);
        }
        let start_ns = self.epoch.map_or(0, |epoch| {
            u64::try_from(top.started.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        });
        self.events.push(SpanEvent { kind, level, start_ns, dur_ns: ns, lane: self.lane });
    }

    fn record(&mut self, kind: SpanKind, level: u32, elapsed: Duration, stats: &SpanStats) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let parent = self.parent_kind();
        let slot = self.slot_for(kind, level, parent);
        let record = &mut self.records[slot];
        record.count += 1;
        record.total_ns = record.total_ns.saturating_add(ns);
        record.self_ns = record.self_ns.saturating_add(ns);
        record.stats.accumulate(stats);
        if let Some(top) = self.open.last_mut() {
            top.child_ns = top.child_ns.saturating_add(ns);
        }
        let start_ns = self.epoch.map_or(0, |epoch| {
            let end = u64::try_from(now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
            end.saturating_sub(ns)
        });
        self.events.push(SpanEvent { kind, level, start_ns, dur_ns: ns, lane: self.lane });
    }

    /// Merges a child stack: records aggregate by `(kind, level,
    /// parent)` slot, events append in the child's completion order.
    /// Callers merge children in job-index order for determinism.
    pub fn merge(&mut self, other: &SpanStack) {
        for r in &other.records {
            let slot = self.slot_for(r.kind, r.level, r.parent);
            let record = &mut self.records[slot];
            record.count += r.count;
            record.total_ns = record.total_ns.saturating_add(r.total_ns);
            record.self_ns = record.self_ns.saturating_add(r.self_ns);
            record.stats.accumulate(&r.stats);
            for (a, b) in record.counters.iter_mut().zip(&r.counters) {
                *a += b;
            }
        }
        self.events.extend_from_slice(&other.events);
        if self.epoch.is_none() {
            self.epoch = other.epoch;
        }
    }

    /// The aggregated span records, in first-seen order.
    #[must_use]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// The completed-span event log, in completion order.
    #[must_use]
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Serializes the event log as a Chrome trace-event JSON array
    /// (complete `"ph": "X"` events, microsecond timestamps), loadable
    /// in Perfetto / `chrome://tracing`. `pid` is always 1; `tid` is
    /// the synthetic lane (0 = main flow, one lane per restart or
    /// intra-run worker).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"fpart\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"level\": {}}}}}",
                e.kind.as_str(),
                e.start_ns as f64 / 1000.0,
                e.dur_ns as f64 / 1000.0,
                e.lane,
                e.level
            );
        }
        out.push_str("]\n");
        out
    }
}

/// A throttle for progress/heartbeat events: [`Heartbeat::due`] returns
/// the elapsed time since the first call whenever at least the
/// configured interval has passed since the last emission. Disabled
/// heartbeats never read the clock.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    enabled: bool,
    min_interval: Duration,
    started: Option<Instant>,
    last: Option<Instant>,
}

impl Heartbeat {
    /// A disabled heartbeat: [`Heartbeat::due`] is always `None` and
    /// costs one branch, no clock read.
    #[must_use]
    pub fn disabled() -> Self {
        Heartbeat { enabled: false, min_interval: Duration::ZERO, started: None, last: None }
    }

    /// A heartbeat firing at most once per `interval`
    /// (`Duration::ZERO` fires on every call — useful in tests).
    #[must_use]
    pub fn every(interval: Duration) -> Self {
        Heartbeat { enabled: true, min_interval: interval, started: None, last: None }
    }

    /// Whether this heartbeat can ever fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns `Some(elapsed-since-first-call)` and marks an emission
    /// when the throttle interval has passed; `None` otherwise. The
    /// first call always fires.
    pub fn due(&mut self) -> Option<Duration> {
        if !self.enabled {
            return None;
        }
        let at = now();
        let started = *self.started.get_or_insert(at);
        match self.last {
            Some(last) if at.duration_since(last) < self.min_interval => None,
            _ => {
                self.last = Some(at);
                Some(at.duration_since(started))
            }
        }
    }
}

/// The metrics registry: named counters plus a wall-time statistic per
/// improvement-schedule slot and a hierarchical phase profiler
/// ([`SpanStack`]).
///
/// A disabled registry ([`Metrics::disabled`]) never touches its
/// storage, never reads the clock ([`Metrics::start`] returns `None`,
/// the span methods return before any `Instant::now`), and never
/// allocates — every recording method is one predictable branch.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    enabled: bool,
    counters: [u64; Counter::ALL.len()],
    improve_time: [TimeStat; ImproveKind::ALL.len()],
    spans: SpanStack,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            enabled: false,
            counters: [0; Counter::ALL.len()],
            improve_time: [TimeStat::default(); ImproveKind::ALL.len()],
            spans: SpanStack::default(),
        }
    }
}

impl Metrics {
    /// Creates an enabled (recording) registry. The span epoch (zero
    /// point of Chrome trace timestamps) is the creation instant.
    #[must_use]
    pub fn enabled() -> Self {
        Metrics { enabled: true, spans: SpanStack::started(), ..Metrics::default() }
    }

    /// Creates a disabled (no-op) registry.
    #[must_use]
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// Creates a registry with the same enabled-ness as `self` but no
    /// recorded data — the seed for a per-restart / per-thread child
    /// registry whose results are later [`Metrics::merge`]d back.
    #[must_use]
    pub fn fork(&self) -> Self {
        if self.enabled {
            Metrics { enabled: true, spans: self.spans.fork(), ..Metrics::default() }
        } else {
            Metrics::disabled()
        }
    }

    /// Returns whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to a counter (no-op when disabled).
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        if self.enabled {
            self.counters[counter as usize] += n;
        }
    }

    /// Increments a counter by one (no-op when disabled).
    #[inline]
    pub fn bump(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Reads the monotonic clock iff enabled — pair with
    /// [`Metrics::stop_improve`]. Disabled registries never pay for
    /// `Instant::now()`.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(now)
    }

    /// Records the wall time of one `Improve(...)` call of the given
    /// schedule slot (no-op when `started` is `None`).
    #[inline]
    pub fn stop_improve(&mut self, kind: ImproveKind, started: Option<Instant>) {
        if let Some(started) = started {
            self.improve_time[kind.index()].record(now().duration_since(started));
        }
    }

    /// The wall-time statistic of one improvement-schedule slot.
    #[must_use]
    pub fn improve_time(&self, kind: ImproveKind) -> &TimeStat {
        &self.improve_time[kind.index()]
    }

    /// Opens a phase span nested under the innermost open span (no-op,
    /// no clock read, when disabled). Pair with [`Metrics::span_close`];
    /// open/close calls must nest.
    #[inline]
    pub fn span_open(&mut self, kind: SpanKind, level: u32) {
        if self.enabled {
            self.spans.open(kind, level, &self.counters);
        }
    }

    /// Closes the innermost open span, attaching the given structural
    /// stats (no-op when disabled or nothing is open).
    #[inline]
    pub fn span_close(&mut self, stats: SpanStats) {
        if self.enabled {
            self.spans.close(&stats, &self.counters);
        }
    }

    /// Records an externally timed phase as a completed span (for
    /// phases whose timing happens outside the registry, e.g. per-level
    /// coarsening callbacks). No counter delta is booked.
    #[inline]
    pub fn record_span(&mut self, kind: SpanKind, level: u32, elapsed: Duration, stats: SpanStats) {
        if self.enabled {
            self.spans.record(kind, level, elapsed, &stats);
        }
    }

    /// Sets the Chrome-trace lane of spans completed from now on (0 =
    /// main flow; restart and worker jobs set their own lane).
    #[inline]
    pub fn set_span_lane(&mut self, lane: u32) {
        if self.enabled {
            self.spans.set_lane(lane);
        }
    }

    /// The phase profiler of this registry.
    #[must_use]
    pub fn spans(&self) -> &SpanStack {
        &self.spans
    }

    /// Merges another registry into this one: counters add, time
    /// statistics combine. Callers merge children in restart-index
    /// order, so the aggregate is deterministic at every thread count.
    pub fn merge(&mut self, other: &Metrics) {
        self.enabled |= other.enabled;
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.improve_time.iter_mut().zip(&other.improve_time) {
            a.merge(b);
        }
        self.spans.merge(&other.spans);
    }

    /// Serializes the registry as a JSON object:
    /// `{"counters": {<name>: <u64>, …}, "improve_time": {<kind>:
    /// <TimeStat>, …}, "spans": [<SpanRecord>, …]}`. Counters appear in
    /// [`Counter::ALL`] order; only schedule slots with a nonzero count
    /// appear under `improve_time`; span records appear in first-seen
    /// order, each with only its nonzero counter deltas.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", c.name(), self.get(*c));
        }
        out.push_str("}, \"improve_time\": {");
        let mut first = true;
        for kind in ImproveKind::ALL {
            let stat = self.improve_time(kind);
            if stat.count == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{}\": ", kind.as_str());
            stat.write_json(&mut out);
        }
        out.push_str("}, \"spans\": [");
        for (i, r) in self.spans.records().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"kind\": \"{}\", \"level\": {}, \"parent\": ",
                r.kind.as_str(),
                r.level
            );
            match r.parent {
                Some(p) => {
                    let _ = write!(out, "\"{}\"", p.as_str());
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"nodes\": {}, \
                 \"nets\": {}, \"boundary\": {}, \"moves\": {}, \"gain\": {}, \"counters\": {{",
                r.count,
                r.total_ns,
                r.self_ns,
                r.stats.nodes,
                r.stats.nets,
                r.stats.boundary,
                r.stats.moves,
                r.stats.gain
            );
            let mut first = true;
            for c in Counter::ALL {
                let v = r.counter(c);
                if v == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "\"{}\": {v}", c.name());
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// A consumer of driver events — the generalization of [`Trace`]
/// (which records events in memory) to arbitrary destinations
/// (streaming JSONL, fan-out, test probes).
///
/// [`Trace`]: crate::trace::Trace
pub trait EventSink {
    /// Whether the sink currently wants events. Producers check this
    /// *before* constructing an event, so a disabled sink costs one
    /// branch and zero allocation per event.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record_event(&mut self, event: &TraceEvent);
}

/// Streams events as JSON Lines (one event object per line) into any
/// [`std::io::Write`]. The line format is documented at
/// [`event_to_json`].
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    out: W,
    lines: u64,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps a writer. Wrap files in a `BufWriter`: one line is written
    /// per event.
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0 }
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: std::io::Write> EventSink for JsonlSink<W> {
    fn record_event(&mut self, event: &TraceEvent) {
        let mut line = event_to_json(event);
        line.push('\n');
        // An unwritable sink must not abort a partitioning run; the
        // caller can detect short output via `lines()`.
        if self.out.write_all(line.as_bytes()).is_ok() {
            self.lines += 1;
        }
    }
}

/// Broadcasts every event to several sinks (e.g. an in-memory [`Trace`]
/// plus a [`JsonlSink`]). Enabled iff any child is.
///
/// [`Trace`]: crate::trace::Trace
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> FanoutSink<'a> {
    /// Bundles the given sinks.
    #[must_use]
    pub fn new(sinks: Vec<&'a mut dyn EventSink>) -> Self {
        FanoutSink { sinks }
    }
}

impl EventSink for FanoutSink<'_> {
    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }

    fn record_event(&mut self, event: &TraceEvent) {
        for sink in &mut self.sinks {
            if sink.is_enabled() {
                sink.record_event(event);
            }
        }
    }
}

/// The observability bundle one partitioning run threads through the
/// driver and engine: an owned metrics registry plus an optional event
/// sink. Use one observer per run; [`Observer::none`] is the
/// fully-disabled default whose per-event cost is one branch.
pub struct Observer<'s> {
    /// The metrics registry of this run.
    pub metrics: Metrics,
    /// Throttle for [`TraceEvent::Progress`] heartbeats (disabled by
    /// default; the CLI arms it for `--progress`).
    pub heartbeat: Heartbeat,
    sink: Option<&'s mut dyn EventSink>,
}

impl<'s> Observer<'s> {
    /// A fully disabled observer (no metrics, no sink, no heartbeat).
    #[must_use]
    pub fn none() -> Self {
        Observer { metrics: Metrics::disabled(), heartbeat: Heartbeat::disabled(), sink: None }
    }

    /// An observer with the given registry and sink (heartbeat
    /// disabled; assign [`Observer::heartbeat`] to arm it).
    #[must_use]
    pub fn new(metrics: Metrics, sink: Option<&'s mut dyn EventSink>) -> Self {
        Observer { metrics, heartbeat: Heartbeat::disabled(), sink }
    }

    /// An observer for one sub-run that records into `metrics` and
    /// borrows this observer's sink and heartbeat.
    pub(crate) fn lend(&mut self, metrics: Metrics) -> Observer<'_> {
        let sink: Option<&mut dyn EventSink> = match &mut self.sink {
            Some(sink) => Some(&mut **sink),
            None => None,
        };
        Observer { metrics, heartbeat: self.heartbeat.clone(), sink }
    }

    /// Emits an event to the sink, constructing it lazily — nothing is
    /// built when no enabled sink is attached.
    #[inline]
    pub fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            if sink.is_enabled() {
                sink.record_event(&event());
            }
        }
    }
}

impl std::fmt::Debug for Observer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("metrics", &self.metrics)
            .field("heartbeat", &self.heartbeat)
            .field("sink", &self.sink.as_ref().map(|s| s.is_enabled()))
            .finish()
    }
}

/// Writes an `f64` as a JSON number (`null` for non-finite values).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn push_key_json(out: &mut String, key: &SolutionKey) {
    let _ = write!(
        out,
        "{{\"feasible_blocks\": {}, \"total_blocks\": {}, \"infeasibility\": ",
        key.feasible_blocks, key.total_blocks
    );
    push_json_f64(out, key.infeasibility);
    let _ = write!(out, ", \"terminal_sum\": {}, \"external_balance\": ", key.terminal_sum);
    push_json_f64(out, key.external_balance);
    let _ = write!(out, ", \"cut\": {}}}", key.cut);
}

/// Serializes one [`TraceEvent`] as a single-line JSON object.
///
/// Every object carries `"event"` (one of `"iteration_start"`,
/// `"bipartition"`, `"improve"`, `"progress"`, `"solution"`) and — for
/// all but `"progress"` — `"iteration"`, followed by the variant's
/// fields in declaration order. Solution keys
/// serialize with their full lexicographic field order
/// (`feasible_blocks`, `total_blocks`, `infeasibility`, `terminal_sum`,
/// `external_balance`, `cut`); enum values use their stable `snake_case`
/// names ([`ImproveKind::as_str`]).
#[must_use]
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut out = String::new();
    match event {
        TraceEvent::IterationStart { iteration, remainder_size, remainder_terminals } => {
            let _ = write!(
                out,
                "{{\"event\": \"iteration_start\", \"iteration\": {iteration}, \
                 \"remainder_size\": {remainder_size}, \
                 \"remainder_terminals\": {remainder_terminals}}}"
            );
        }
        TraceEvent::Bipartition { iteration, method, peeled_size, peeled_terminals } => {
            let _ = write!(
                out,
                "{{\"event\": \"bipartition\", \"iteration\": {iteration}, \"method\": "
            );
            out.push_str(&json_string(&format!("{method:?}")));
            let _ = write!(
                out,
                ", \"peeled_size\": {peeled_size}, \"peeled_terminals\": {peeled_terminals}}}"
            );
        }
        TraceEvent::Improve {
            iteration,
            kind,
            blocks,
            initial_key,
            final_key,
            passes,
            moves,
            restarts,
        } => {
            let _ = write!(
                out,
                "{{\"event\": \"improve\", \"iteration\": {iteration}, \"kind\": \"{}\", \
                 \"blocks\": [",
                kind.as_str()
            );
            for (i, b) in blocks.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("], \"initial_key\": ");
            push_key_json(&mut out, initial_key);
            out.push_str(", \"final_key\": ");
            push_key_json(&mut out, final_key);
            let _ = write!(
                out,
                ", \"passes\": {passes}, \"moves\": {moves}, \"restarts\": {restarts}}}"
            );
        }
        TraceEvent::Progress {
            phase,
            level,
            passes,
            moves,
            cut,
            elapsed_ms,
            deadline_remaining_ms,
            passes_remaining,
        } => {
            let _ = write!(
                out,
                "{{\"event\": \"progress\", \"phase\": \"{}\", \"level\": {level}, \
                 \"passes\": {passes}, \"moves\": {moves}, \"cut\": ",
                phase.as_str()
            );
            match cut {
                Some(c) => {
                    let _ = write!(out, "{c}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ", \"elapsed_ms\": {elapsed_ms}, \"deadline_remaining_ms\": ");
            match deadline_remaining_ms {
                Some(ms) => {
                    let _ = write!(out, "{ms}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"passes_remaining\": ");
            match passes_remaining {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        TraceEvent::Solution { iteration, class, blocks } => {
            let _ =
                write!(out, "{{\"event\": \"solution\", \"iteration\": {iteration}, \"class\": ");
            out.push_str(&json_string(&format!("{class:?}")));
            out.push_str(", \"blocks\": [");
            for (i, b) in blocks.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"size\": {}, \"terminals\": {}}}", b.size, b.terminals);
            }
            out.push_str("]}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn dummy_key() -> SolutionKey {
        SolutionKey {
            feasible_blocks: 1,
            total_blocks: 2,
            infeasibility: 0.25,
            terminal_sum: 7,
            external_balance: 0.5,
            cut: 3,
        }
    }

    fn improve_event() -> TraceEvent {
        TraceEvent::Improve {
            iteration: 2,
            kind: ImproveKind::MinIo,
            blocks: vec![0, 3],
            initial_key: dummy_key(),
            final_key: dummy_key(),
            passes: 4,
            moves: 9,
            restarts: 1,
        }
    }

    #[test]
    fn disabled_metrics_record_nothing_and_never_read_the_clock() {
        let mut m = Metrics::disabled();
        m.bump(Counter::Passes);
        m.add(Counter::MovesApplied, 100);
        assert!(m.start().is_none());
        m.stop_improve(ImproveKind::LastPair, None);
        assert_eq!(m.get(Counter::Passes), 0);
        assert_eq!(m.get(Counter::MovesApplied), 0);
        assert_eq!(m.improve_time(ImproveKind::LastPair).count, 0);
    }

    #[test]
    fn enabled_metrics_count_and_time() {
        let mut m = Metrics::enabled();
        m.bump(Counter::Passes);
        m.add(Counter::GainBucketPops, 41);
        m.bump(Counter::GainBucketPops);
        let started = m.start();
        assert!(started.is_some());
        m.stop_improve(ImproveKind::FinalSweep, started);
        assert_eq!(m.get(Counter::Passes), 1);
        assert_eq!(m.get(Counter::GainBucketPops), 42);
        let stat = m.improve_time(ImproveKind::FinalSweep);
        assert_eq!(stat.count, 1);
        assert!(stat.min_ns <= stat.max_ns);
        assert_eq!(stat.log2_hist.iter().sum::<u64>(), 1);
    }

    /// Metering cost, counted rather than timed: a disabled registry
    /// never reads the clock, and an enabled one reads it only at the
    /// two ends of each span execution and timed improve call — never
    /// per move.
    #[test]
    fn observed_search_reads_the_clock_per_span_and_improve_call_only() {
        use crate::search::{search, Algorithm, Restarts};
        use fpart_device::Device;
        use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};
        use std::cell::Cell;

        let graph = synthesize_mcnc(find_profile("s9234").unwrap(), Technology::Xc3000);
        let run = |metrics: Metrics| {
            let before = CLOCK_READS.with(Cell::get);
            let report = search(
                &graph,
                Device::XC3020.constraints(0.9),
                &crate::FpartConfig::default(),
                Algorithm::Flat,
                &Restarts { count: 2, threads: 1, ..Restarts::default() },
                &mut Observer::new(metrics, None),
            )
            .unwrap();
            (report.totals, CLOCK_READS.with(Cell::get) - before)
        };

        let (_, reads) = run(Metrics::disabled());
        assert_eq!(reads, 0, "a disabled registry read the clock");

        let (totals, reads) = run(Metrics::enabled());
        let spans: u64 = totals.spans().records().iter().map(|r| r.count).sum();
        let improves: u64 = ImproveKind::ALL.iter().map(|&k| totals.improve_time(k).count).sum();
        let moves = totals.get(Counter::MovesApplied);
        assert!(moves > 100 * (spans + improves), "the run must be move-dominated: {moves} moves");
        assert!(
            reads <= 2 * (spans + improves),
            "{reads} clock reads for {spans} span executions and {improves} timed improve calls"
        );
    }

    #[test]
    fn merge_adds_counters_and_combines_time() {
        let mut a = Metrics::enabled();
        a.add(Counter::Passes, 3);
        a.improve_time[ImproveKind::LastPair.index()].record(Duration::from_nanos(100));
        let mut b = Metrics::enabled();
        b.add(Counter::Passes, 4);
        b.improve_time[ImproveKind::LastPair.index()].record(Duration::from_nanos(7));
        a.merge(&b);
        assert_eq!(a.get(Counter::Passes), 7);
        let stat = a.improve_time(ImproveKind::LastPair);
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 107);
        assert_eq!(stat.min_ns, 7);
        assert_eq!(stat.max_ns, 100);
    }

    #[test]
    fn merge_order_is_deterministic() {
        // Counters and totals are commutative; merging the same set of
        // children in the same order must be reproducible.
        let children: Vec<Metrics> = (0..4)
            .map(|i| {
                let mut m = Metrics::enabled();
                m.add(Counter::MovesApplied, i * 10 + 1);
                m
            })
            .collect();
        let mut a = Metrics::enabled();
        let mut b = Metrics::enabled();
        for c in &children {
            a.merge(c);
            b.merge(c);
        }
        assert_eq!(a, b);
        assert_eq!(a.get(Counter::MovesApplied), 1 + 11 + 21 + 31);
    }

    #[test]
    fn fork_copies_enabledness_only() {
        let mut m = Metrics::enabled();
        m.add(Counter::Passes, 5);
        let f = m.fork();
        assert!(f.is_enabled());
        assert_eq!(f.get(Counter::Passes), 0);
        assert!(!Metrics::disabled().fork().is_enabled());
    }

    #[test]
    fn time_stat_buckets_are_log2() {
        let mut s = TimeStat::default();
        s.record(Duration::from_nanos(1)); // bucket 1: [1, 2)
        s.record(Duration::from_nanos(1023)); // bucket 10: [512, 1024)
        s.record(Duration::from_nanos(1024)); // bucket 11: [1024, 2048)
        assert_eq!(s.log2_hist[1], 1);
        assert_eq!(s.log2_hist[10], 1);
        assert_eq!(s.log2_hist[11], 1);
        assert_eq!(s.count, 3);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 1024);
    }

    #[test]
    fn metrics_json_has_every_counter() {
        let mut m = Metrics::enabled();
        m.bump(Counter::Passes);
        let json = m.to_json();
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\":", c.name())), "missing {}", c.name());
        }
        assert!(json.contains("\"passes\": 1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn jsonl_sink_streams_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_event(&improve_event());
        sink.record_event(&TraceEvent::IterationStart {
            iteration: 1,
            remainder_size: 10,
            remainder_terminals: 2,
        });
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"event\": \"improve\""));
        assert!(text.contains("\"kind\": \"min_io\""));
    }

    #[test]
    fn fanout_reaches_every_enabled_sink() {
        let mut trace = Trace::enabled();
        let mut off = Trace::disabled();
        let mut jsonl = JsonlSink::new(Vec::new());
        {
            let mut fanout = FanoutSink::new(vec![&mut trace, &mut off, &mut jsonl]);
            assert!(fanout.is_enabled());
            fanout.record_event(&improve_event());
        }
        assert_eq!(trace.events().len(), 1);
        assert!(off.events().is_empty());
        assert_eq!(jsonl.lines(), 1);
    }

    #[test]
    fn observer_emit_is_lazy_without_sink() {
        let mut obs = Observer::none();
        obs.emit(|| panic!("event constructed without a sink"));
        let mut disabled = Trace::disabled();
        let mut obs = Observer::new(Metrics::disabled(), Some(&mut disabled));
        obs.emit(|| panic!("event constructed for a disabled sink"));
    }

    #[test]
    fn disabled_metrics_ignore_spans() {
        let mut m = Metrics::disabled();
        m.span_open(SpanKind::Initial, 0);
        m.span_close(SpanStats { moves: 5, ..SpanStats::default() });
        m.record_span(SpanKind::Parse, 0, Duration::from_millis(1), SpanStats::default());
        assert!(m.spans().records().is_empty());
        assert!(m.spans().events().is_empty());
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let mut m = Metrics::enabled();
        m.span_open(SpanKind::Initial, 0);
        m.bump(Counter::Iterations);
        m.span_open(SpanKind::Improve, 0);
        m.add(Counter::MovesApplied, 3);
        std::thread::sleep(Duration::from_millis(2));
        m.span_close(SpanStats { moves: 3, ..SpanStats::default() });
        m.span_close(SpanStats::default());

        let records = m.spans().records();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.kind == SpanKind::Initial).unwrap();
        let inner = records.iter().find(|r| r.kind == SpanKind::Improve).unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(SpanKind::Initial));
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The outer span's self time excludes the inner span.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1);
        assert_eq!(inner.stats.moves, 3);
        // Counter deltas nest: both spans saw the MovesApplied bump,
        // only the outer one saw the Iterations bump.
        assert_eq!(inner.counter(Counter::MovesApplied), 3);
        assert_eq!(outer.counter(Counter::MovesApplied), 3);
        assert_eq!(inner.counter(Counter::Iterations), 0);
        assert_eq!(outer.counter(Counter::Iterations), 1);
        assert_eq!(m.spans().events().len(), 2);
    }

    #[test]
    fn record_span_books_under_open_parent() {
        let mut m = Metrics::enabled();
        m.span_open(SpanKind::Restart, 0);
        m.record_span(
            SpanKind::CoarsenLevel,
            2,
            Duration::from_nanos(500),
            SpanStats { nodes: 10, ..SpanStats::default() },
        );
        m.span_close(SpanStats::default());
        let coarsen =
            m.spans().records().iter().find(|r| r.kind == SpanKind::CoarsenLevel).unwrap();
        assert_eq!(coarsen.parent, Some(SpanKind::Restart));
        assert_eq!(coarsen.level, 2);
        assert_eq!(coarsen.total_ns, 500);
        assert_eq!(coarsen.self_ns, 500);
        assert_eq!(coarsen.stats.nodes, 10);
        // The recorded child's time is subtracted from the parent's self.
        let restart = m.spans().records().iter().find(|r| r.kind == SpanKind::Restart).unwrap();
        assert!(restart.self_ns <= restart.total_ns.saturating_sub(500) + 1);
    }

    #[test]
    fn span_merge_aggregates_by_slot_and_ignores_wall_time_in_eq() {
        let build = |moves: u64, sleep_ns: u64| {
            let mut m = Metrics::enabled();
            m.span_open(SpanKind::PairJob, 0);
            std::thread::sleep(Duration::from_nanos(sleep_ns));
            m.span_close(SpanStats { moves, ..SpanStats::default() });
            m
        };
        let mut a = Metrics::enabled();
        a.merge(&build(2, 10));
        a.merge(&build(5, 200_000));
        let mut b = Metrics::enabled();
        b.merge(&build(2, 300_000));
        b.merge(&build(5, 10));
        // Same structure, different wall times: still equal.
        assert_eq!(a, b);
        let rec = a.spans().records().iter().find(|r| r.kind == SpanKind::PairJob).unwrap();
        assert_eq!(rec.count, 2);
        assert_eq!(rec.stats.moves, 7);
        assert_eq!(a.spans().events().len(), 2);
        // Different structure (stats differ): unequal.
        let mut c = Metrics::enabled();
        c.merge(&build(2, 10));
        c.merge(&build(6, 10));
        assert_ne!(a, c);
    }

    #[test]
    fn forked_children_inherit_ambient_parent_and_lane() {
        let mut parent = Metrics::enabled();
        parent.set_span_lane(0);
        parent.span_open(SpanKind::RefineLevel, 1);
        let mut child = parent.fork();
        child.set_span_lane(3);
        child.span_open(SpanKind::PairJob, 0);
        child.span_close(SpanStats::default());
        parent.merge(&child);
        parent.span_close(SpanStats::default());
        let pair = parent.spans().records().iter().find(|r| r.kind == SpanKind::PairJob).unwrap();
        assert_eq!(pair.parent, Some(SpanKind::RefineLevel));
        let pair_event =
            parent.spans().events().iter().find(|e| e.kind == SpanKind::PairJob).unwrap();
        assert_eq!(pair_event.lane, 3);
    }

    #[test]
    fn chrome_json_is_an_event_array() {
        let mut m = Metrics::enabled();
        m.span_open(SpanKind::Initial, 0);
        m.span_close(SpanStats::default());
        let json = m.spans().to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\": \"initial\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"pid\": 1"));
        assert!(json.contains("\"args\": {\"level\": 0}"));
        assert!(Metrics::enabled().spans().to_chrome_json().starts_with("[]"));
    }

    #[test]
    fn metrics_json_has_span_records() {
        let mut m = Metrics::enabled();
        m.span_open(SpanKind::EcoRepair, 0);
        m.bump(Counter::BoundaryRefinements);
        m.span_close(SpanStats { boundary: 4, ..SpanStats::default() });
        let json = m.to_json();
        assert!(json.contains("\"spans\": [{\"kind\": \"eco_repair\""));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"boundary\": 4"));
        assert!(json.contains("\"counters\": {\"boundary_refinements\": 1}"));
    }

    #[test]
    fn heartbeat_throttles_and_never_ticks_disabled() {
        let mut off = Heartbeat::disabled();
        assert!(!off.is_enabled());
        assert!(off.due().is_none());

        let mut every = Heartbeat::every(Duration::ZERO);
        assert!(every.is_enabled());
        assert!(every.due().is_some());
        assert!(every.due().is_some());

        let mut slow = Heartbeat::every(Duration::from_secs(59));
        assert!(slow.due().is_some(), "first call always fires");
        assert!(slow.due().is_none(), "second call is throttled");
    }

    #[test]
    fn progress_event_serializes() {
        let json = event_to_json(&TraceEvent::Progress {
            phase: SpanKind::RefineLevel,
            level: 3,
            passes: 10,
            moves: 42,
            cut: Some(7),
            elapsed_ms: 1500,
            deadline_remaining_ms: None,
            passes_remaining: Some(90),
        });
        assert_eq!(
            json,
            "{\"event\": \"progress\", \"phase\": \"refine_level\", \"level\": 3, \
             \"passes\": 10, \"moves\": 42, \"cut\": 7, \"elapsed_ms\": 1500, \
             \"deadline_remaining_ms\": null, \"passes_remaining\": 90}"
        );
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_json_f64(&mut out, 0.25);
        assert_eq!(out, "0.25");
    }
}
