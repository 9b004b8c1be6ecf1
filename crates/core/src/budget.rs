//! Cooperative execution control: deadlines, pass/move budgets, cancel
//! tokens, and deterministic fault injection.
//!
//! The driver's outer loop (peel-one-block recursion with scheduled
//! improvement passes) has unbounded worst-case runtime: pass counts
//! depend on netlist structure and the dual solution stacks can restart
//! improvement repeatedly. A [`RunBudget`] bounds that work
//! cooperatively — it is *checked* at pass and peel boundaries rather
//! than preempting anything, so a stop always lands at a consistent
//! state and the driver can return the best solution seen so far.
//!
//! Design mirrors the zero-overhead observability layer ([`crate::obs`]):
//! an unlimited budget compiles down to a single predictable branch per
//! boundary — no clock reads, no atomics. Only a budget that actually
//! limits something (or carries a [`FaultPlan`]) pays for its checks.
//!
//! [`FaultPlan`] is the deterministic fault-injection hook used by the
//! robustness test-suite: it can panic, sleep, or force budget expiry at
//! chosen pass boundaries, optionally targeting a single restart index,
//! so degradation paths are exercised without wall-clock flakiness.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a partitioning run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Completion {
    /// The search ran to its natural end; no budget limit intervened.
    #[default]
    Complete,
    /// The wall-clock deadline expired; the result is the best solution
    /// found before the nearest pass or peel boundary after expiry.
    DeadlineExpired,
    /// A [`CancelToken`] was triggered (e.g. SIGINT in the CLI).
    Cancelled,
    /// The run was cut short by a discrete budget (max passes / max
    /// moves) or lost some restarts to panics but still produced a
    /// usable merged result.
    Degraded,
}

impl Completion {
    /// Stable `snake_case` name used in metrics JSON and CLI output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Completion::Complete => "complete",
            Completion::DeadlineExpired => "deadline_expired",
            Completion::Cancelled => "cancelled",
            Completion::Degraded => "degraded",
        }
    }

    /// Severity rank used when merging statuses across restarts:
    /// `Cancelled > DeadlineExpired > Degraded > Complete`.
    #[must_use]
    fn severity(self) -> u8 {
        match self {
            Completion::Complete => 0,
            Completion::Degraded => 1,
            Completion::DeadlineExpired => 2,
            Completion::Cancelled => 3,
        }
    }

    /// The more severe of two statuses (used to fold restart outcomes
    /// into a report-level status).
    #[must_use]
    pub fn worst(self, other: Completion) -> Completion {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared cancellation flag checked at pass and peel boundaries.
///
/// Cloning shares the flag; equality is pointer identity (two tokens
/// are equal iff cancelling one cancels the other).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: TokenInner,
}

#[derive(Debug, Clone)]
enum TokenInner {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken { inner: TokenInner::Shared(Arc::new(AtomicBool::new(false))) }
    }

    /// Wraps a `'static` flag (e.g. one set by a signal handler).
    #[must_use]
    pub fn from_static(flag: &'static AtomicBool) -> CancelToken {
        CancelToken { inner: TokenInner::Static(flag) }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag().store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag().load(Ordering::SeqCst)
    }

    fn flag(&self) -> &AtomicBool {
        match &self.inner {
            TokenInner::Shared(arc) => arc,
            TokenInner::Static(flag) => flag,
        }
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        match (&self.inner, &other.inner) {
            (TokenInner::Shared(a), TokenInner::Shared(b)) => Arc::ptr_eq(a, b),
            (TokenInner::Static(a), TokenInner::Static(b)) => std::ptr::eq(*a, *b),
            _ => false,
        }
    }
}

/// Declarative execution budget for a partitioning run.
///
/// The default is unlimited: every field `None` costs exactly one branch
/// per pass/peel boundary and never reads the clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunBudget {
    /// Wall-clock deadline measured from the start of the run.
    pub deadline: Option<Duration>,
    /// Maximum number of FM passes across the whole run.
    pub max_passes: Option<u64>,
    /// Maximum number of applied moves across the whole run (enforced
    /// at the next pass boundary, so a pass in flight completes).
    pub max_moves: Option<u64>,
    /// Cooperative cancellation flag shared with the caller.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// Whether no limit of any kind is configured.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_passes.is_none()
            && self.max_moves.is_none()
            && self.cancel.is_none()
    }
}

/// A single injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Panic with the given message (exercises panic isolation).
    Panic(String),
    /// Sleep for the given duration (exercises deadline handling).
    Delay(Duration),
    /// Force the budget to report expiry (deterministic stand-in for a
    /// wall-clock deadline).
    ExpireBudget,
}

/// Deterministic fault-injection schedule, keyed by pass boundary.
///
/// Installed through [`crate::FpartConfig`]; when absent the budget
/// tracker's fast path never looks at it, so production runs pay nothing
/// (mirroring the zero-overhead obs design).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// When set, the plan only applies to this restart index; other
    /// restarts run fault-free. `None` applies to every restart (a
    /// direct, non-restart run counts as restart 0).
    pub only_restart: Option<usize>,
    /// When set, the plan fires only inside the intra-run worker job
    /// with this index (a boundary-refinement pair job spawned by
    /// [`BudgetTracker::fork_worker`]); the run-level schedule stays
    /// fault-free. Worker jobs count their own pass boundaries from
    /// zero, so `at_pass` is relative to the job, which keeps the
    /// injection point deterministic at any thread count.
    pub only_pair_job: Option<usize>,
    /// `(pass boundary, action)` pairs; boundaries are 1-based counts
    /// of pass starts within a run. Multiple entries may share a
    /// boundary and fire in order.
    pub at_pass: Vec<(u64, FaultAction)>,
}

impl FaultPlan {
    /// A plan that panics with `message` at the given pass boundary.
    #[must_use]
    pub fn panic_at(pass: u64, message: &str) -> FaultPlan {
        FaultPlan {
            only_restart: None,
            only_pair_job: None,
            at_pass: vec![(pass, FaultAction::Panic(message.into()))],
        }
    }

    /// A plan that sleeps for `delay` at the given pass boundary.
    #[must_use]
    pub fn delay_at(pass: u64, delay: Duration) -> FaultPlan {
        FaultPlan {
            only_restart: None,
            only_pair_job: None,
            at_pass: vec![(pass, FaultAction::Delay(delay))],
        }
    }

    /// A plan that forces budget expiry at the given pass boundary.
    #[must_use]
    pub fn expire_at(pass: u64) -> FaultPlan {
        FaultPlan {
            only_restart: None,
            only_pair_job: None,
            at_pass: vec![(pass, FaultAction::ExpireBudget)],
        }
    }

    /// Restricts the plan to a single restart index (builder style).
    #[must_use]
    pub fn for_only_restart(mut self, restart: usize) -> FaultPlan {
        self.only_restart = Some(restart);
        self
    }

    /// Restricts the plan to a single intra-run worker job index
    /// (builder style). The schedule then fires only inside that
    /// boundary-refinement pair job, never at the run level.
    #[must_use]
    pub fn for_only_pair_job(mut self, job: usize) -> FaultPlan {
        self.only_pair_job = Some(job);
        self
    }

    /// The plan as seen by restart `restart`: `None` when the plan
    /// targets a different restart, otherwise the schedule itself.
    #[must_use]
    pub fn for_restart(&self, restart: usize) -> Option<FaultPlan> {
        match self.only_restart {
            Some(only) if only != restart => None,
            _ => Some(FaultPlan {
                only_restart: None,
                only_pair_job: self.only_pair_job,
                at_pass: self.at_pass.clone(),
            }),
        }
    }
}

/// Declarative cap on estimated memory used by hierarchy construction.
///
/// The cap covers the coarsening hierarchy only: every level stores a
/// full coarse hypergraph plus projection maps. A `MemoryBudget` bounds
/// the *estimated* bytes of that hierarchy
/// ([`fpart_hypergraph::Hypergraph::approx_bytes`] per level); when the
/// next level would exceed the cap, coarsening simply stops at the
/// current depth and the run continues on a shallower hierarchy,
/// reporting [`Completion::Degraded`]. It does not count
/// [`crate::PartitionState`]s. A state's pin counts take at most 2 MiB
/// while dense and O(nets + pins) bytes once compact, whatever the
/// device count: one state of a 40k-cell run on ~200 devices (47,863
/// nets, 103,038 pins) is about 1.3 MiB. Boundary refinement keeps one
/// state live per refine worker (the caller's own plus a clone per
/// extra worker), so one at `--threads 1`. The default (`None`) costs
/// nothing and changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget {
    /// Estimated-byte cap for hierarchy construction; `None` = unlimited.
    pub max_bytes: Option<u64>,
}

impl MemoryBudget {
    /// A budget capped at `max_bytes` estimated bytes.
    #[must_use]
    pub fn capped(max_bytes: u64) -> MemoryBudget {
        MemoryBudget { max_bytes: Some(max_bytes) }
    }

    /// Whether no cap is configured.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_bytes.is_none()
    }
}

/// Which limit stopped a run first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopKind {
    Cancelled,
    Deadline,
    PassBudget,
    MoveBudget,
}

impl StopKind {
    /// Encodes the latched stop for the tracker's `AtomicU8` cell
    /// (`0` = no stop). [`StopKind::decode`] is the inverse.
    fn encode(kind: Option<StopKind>) -> u8 {
        match kind {
            None => 0,
            Some(StopKind::Cancelled) => 1,
            Some(StopKind::Deadline) => 2,
            Some(StopKind::PassBudget) => 3,
            Some(StopKind::MoveBudget) => 4,
        }
    }

    fn decode(raw: u8) -> Option<StopKind> {
        match raw {
            1 => Some(StopKind::Cancelled),
            2 => Some(StopKind::Deadline),
            3 => Some(StopKind::PassBudget),
            4 => Some(StopKind::MoveBudget),
            _ => None,
        }
    }
}

/// A point-in-time view of how much budget a run has left, exposed to
/// progress heartbeats (see [`BudgetTracker::remaining`]). `None`
/// fields mean the corresponding limit is not set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSnapshot {
    /// Wall-clock time until the deadline (zero once expired).
    pub deadline_remaining: Option<Duration>,
    /// FM passes left before the pass cap stops the run.
    pub passes_remaining: Option<u64>,
    /// Moves left before the move cap stops the run.
    pub moves_remaining: Option<u64>,
}

/// Per-run budget enforcement state, shared immutably through
/// [`crate::engine::ImproveContext`] (interior mutability keeps the
/// engine's borrow structure unchanged). The counters are relaxed
/// atomics so a tracker is `Sync`: intra-run worker forks (see
/// [`BudgetTracker::fork_worker`]) can be handed to scoped threads,
/// while single-thread use compiles to the same uncontended loads and
/// stores the old `Cell` fields did.
///
/// Each restart builds its own tracker, so parallel restarts never share
/// mutable state and deterministic merging is preserved.
#[derive(Debug)]
pub struct BudgetTracker {
    /// Fast-path guard: `false` means every check is a single branch.
    limited: bool,
    deadline: Option<Instant>,
    max_passes: Option<u64>,
    max_moves: Option<u64>,
    cancel: Option<CancelToken>,
    faults: Vec<(u64, FaultAction)>,
    /// Worker-targeted schedule: fires only inside the intra-run pair
    /// job with the stored index (routed there by `fork_worker`), never
    /// at the run level.
    pair_faults: Option<(usize, Vec<(u64, FaultAction)>)>,
    passes: AtomicU64,
    moves: AtomicU64,
    faults_injected: AtomicU64,
    forced_expiry: AtomicBool,
    stop: AtomicU8,
}

impl BudgetTracker {
    /// Builds a tracker for one run. The deadline clock starts now; an
    /// unlimited budget with no faults never reads the clock at all.
    #[must_use]
    pub fn new(budget: &RunBudget, faults: Option<FaultPlan>) -> BudgetTracker {
        let (faults, pair_faults) = match faults {
            Some(plan) => match plan.only_pair_job {
                Some(job) => (Vec::new(), Some((job, plan.at_pass))),
                None => (plan.at_pass, None),
            },
            None => (Vec::new(), None),
        };
        let limited = !budget.is_unlimited() || !faults.is_empty();
        BudgetTracker {
            limited,
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_passes: budget.max_passes,
            max_moves: budget.max_moves,
            cancel: budget.cancel.clone(),
            faults,
            pair_faults,
            passes: AtomicU64::new(0),
            moves: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            forced_expiry: AtomicBool::new(false),
            stop: AtomicU8::new(0),
        }
    }

    /// Forks a worker-local tracker for intra-run pair job `pair_job`.
    ///
    /// The fork snapshots the *remaining* discrete budgets (so a round
    /// of pair jobs forked before fan-out all see the same caps — the
    /// snapshot, and therefore the partition result, is independent of
    /// thread count), shares the absolute deadline and cancel token,
    /// and receives the worker-targeted fault schedule iff its index
    /// matches. Consumption is folded back with [`BudgetTracker::absorb`]
    /// in a fixed job order.
    #[must_use]
    pub fn fork_worker(&self, pair_job: usize) -> BudgetTracker {
        let faults = match &self.pair_faults {
            Some((only, plan)) if *only == pair_job => plan.clone(),
            _ => Vec::new(),
        };
        let limited = self.limited || !faults.is_empty();
        BudgetTracker {
            limited,
            deadline: self.deadline,
            max_passes: self.max_passes.map(|cap| cap.saturating_sub(self.passes())),
            max_moves: self
                .max_moves
                .map(|cap| cap.saturating_sub(self.moves.load(Ordering::Relaxed))),
            cancel: self.cancel.clone(),
            faults,
            pair_faults: None,
            passes: AtomicU64::new(0),
            moves: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            forced_expiry: AtomicBool::new(false),
            stop: AtomicU8::new(0),
        }
    }

    /// Folds a worker fork's consumption back into this tracker. Called
    /// once per job, in job-index order, after the fan-out joins —
    /// counts accumulate deterministically and a worker's forced expiry
    /// propagates, then the merged state is re-evaluated so discrete
    /// budgets latch at the same boundary regardless of thread count.
    pub fn absorb(&self, worker: &BudgetTracker) {
        self.passes.fetch_add(worker.passes.load(Ordering::Relaxed), Ordering::Relaxed);
        self.moves.fetch_add(worker.moves.load(Ordering::Relaxed), Ordering::Relaxed);
        self.faults_injected
            .fetch_add(worker.faults_injected.load(Ordering::Relaxed), Ordering::Relaxed);
        if worker.forced_expiry.load(Ordering::Relaxed) {
            self.forced_expiry.store(true, Ordering::Relaxed);
        }
        // Re-evaluate even for an unlimited parent when a worker forced
        // expiry, so the fault-injected stop is visible in `completion`.
        if self.limited || self.forced_expiry.load(Ordering::Relaxed) {
            self.evaluate();
        }
    }

    /// A tracker that never stops anything (the default for callers
    /// that do not thread a budget).
    #[must_use]
    pub fn unlimited() -> BudgetTracker {
        BudgetTracker::new(&RunBudget::default(), None)
    }

    /// Pass-boundary hook: counts the pass about to start, injects any
    /// scheduled faults, then evaluates the stop condition. Returns
    /// `true` when the pass must **not** run.
    ///
    /// # Panics
    ///
    /// Panics when the fault plan schedules [`FaultAction::Panic`] at
    /// this boundary (that is the point of the hook).
    pub fn before_pass(&self) -> bool {
        if !self.limited {
            return false;
        }
        let pass = self.passes.load(Ordering::Relaxed) + 1;
        self.passes.store(pass, Ordering::Relaxed);
        for (at, action) in &self.faults {
            if *at != pass {
                continue;
            }
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            match action {
                FaultAction::Panic(message) => panic!("injected fault: {message}"),
                FaultAction::Delay(delay) => std::thread::sleep(*delay),
                FaultAction::ExpireBudget => self.forced_expiry.store(true, Ordering::Relaxed),
            }
        }
        self.evaluate()
    }

    /// Records `n` applied moves (enforced at the next boundary check).
    pub fn add_moves(&self, n: u64) {
        if self.limited {
            self.moves.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Peel-boundary / restart-boundary hook: evaluates the stop
    /// condition without counting a pass. Returns `true` once stopped.
    pub fn check(&self) -> bool {
        if !self.limited {
            return false;
        }
        self.evaluate()
    }

    /// Whether a stop has already been latched (never un-latches).
    #[must_use]
    pub fn stopped(&self) -> bool {
        StopKind::decode(self.stop.load(Ordering::Relaxed)).is_some()
    }

    /// Completion status implied by the latched stop reason.
    #[must_use]
    pub fn completion(&self) -> Completion {
        match StopKind::decode(self.stop.load(Ordering::Relaxed)) {
            None => Completion::Complete,
            Some(StopKind::Cancelled) => Completion::Cancelled,
            Some(StopKind::Deadline) => Completion::DeadlineExpired,
            Some(StopKind::PassBudget | StopKind::MoveBudget) => Completion::Degraded,
        }
    }

    /// Number of faults injected so far (for the metrics layer).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Pass boundaries crossed so far.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Snapshot of the remaining budget headroom, for progress
    /// heartbeats. Reads the clock only when a deadline is set —
    /// callers invoke this at heartbeat cadence, never per move.
    #[must_use]
    pub fn remaining(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            deadline_remaining: self
                .deadline
                .map(|at| at.saturating_duration_since(Instant::now())),
            passes_remaining: self
                .max_passes
                .map(|cap| cap.saturating_sub(self.passes.load(Ordering::Relaxed))),
            moves_remaining: self
                .max_moves
                .map(|cap| cap.saturating_sub(self.moves.load(Ordering::Relaxed))),
        }
    }

    /// Latches the first limit violated, in severity order (cancel
    /// before deadline before discrete budgets), and reports whether
    /// the run must stop.
    fn evaluate(&self) -> bool {
        if self.stopped() {
            return true;
        }
        let kind = if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            Some(StopKind::Cancelled)
        } else if self.forced_expiry.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|at| Instant::now() >= at)
        {
            Some(StopKind::Deadline)
        } else if self.max_passes.is_some_and(|cap| self.passes.load(Ordering::Relaxed) > cap) {
            Some(StopKind::PassBudget)
        } else if self.max_moves.is_some_and(|cap| self.moves.load(Ordering::Relaxed) >= cap) {
            Some(StopKind::MoveBudget)
        } else {
            None
        };
        self.stop.store(StopKind::encode(kind), Ordering::Relaxed);
        kind.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_tracker_never_stops() {
        let tracker = BudgetTracker::unlimited();
        for _ in 0..1000 {
            assert!(!tracker.before_pass());
        }
        assert!(!tracker.check());
        assert!(!tracker.stopped());
        assert_eq!(tracker.completion(), Completion::Complete);
        // The fast path does not even count passes.
        assert_eq!(tracker.passes(), 0);
    }

    #[test]
    fn pass_budget_stops_after_cap() {
        let budget = RunBudget { max_passes: Some(3), ..RunBudget::default() };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(!tracker.before_pass());
        assert!(!tracker.before_pass());
        assert!(!tracker.before_pass());
        assert!(tracker.before_pass(), "fourth pass exceeds the cap");
        assert_eq!(tracker.completion(), Completion::Degraded);
        // The stop latches: later checks still report stopped.
        assert!(tracker.check());
    }

    #[test]
    fn move_budget_enforced_at_next_boundary() {
        let budget = RunBudget { max_moves: Some(10), ..RunBudget::default() };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(!tracker.before_pass());
        tracker.add_moves(10);
        assert!(tracker.before_pass());
        assert_eq!(tracker.completion(), Completion::Degraded);
    }

    #[test]
    fn cancel_token_is_shared_and_latched() {
        let token = CancelToken::new();
        let budget = RunBudget { cancel: Some(token.clone()), ..RunBudget::default() };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(!tracker.check());
        token.cancel();
        assert!(tracker.check());
        assert_eq!(tracker.completion(), Completion::Cancelled);
    }

    #[test]
    fn cancel_token_equality_is_pointer_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn forced_expiry_reports_deadline() {
        let tracker = BudgetTracker::new(&RunBudget::default(), Some(FaultPlan::expire_at(2)));
        assert!(!tracker.before_pass());
        assert!(tracker.before_pass());
        assert_eq!(tracker.completion(), Completion::DeadlineExpired);
        assert_eq!(tracker.faults_injected(), 1);
    }

    #[test]
    fn injected_panic_fires_at_chosen_boundary() {
        let tracker =
            BudgetTracker::new(&RunBudget::default(), Some(FaultPlan::panic_at(2, "boom")));
        assert!(!tracker.before_pass());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tracker.before_pass()))
            .expect_err("must panic");
        let message = err.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("boom"), "{message}");
    }

    #[test]
    fn cancel_outranks_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget {
            deadline: Some(Duration::ZERO),
            cancel: Some(token),
            ..RunBudget::default()
        };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(tracker.check());
        assert_eq!(tracker.completion(), Completion::Cancelled);
    }

    #[test]
    fn fault_plan_restart_filtering() {
        let plan = FaultPlan::panic_at(1, "x").for_only_restart(2);
        assert!(plan.for_restart(0).is_none());
        assert!(plan.for_restart(1).is_none());
        let own = plan.for_restart(2).expect("applies to restart 2");
        assert_eq!(own.only_restart, None);
        assert_eq!(own.at_pass.len(), 1);

        let broadcast = FaultPlan::expire_at(3);
        assert!(broadcast.for_restart(0).is_some());
        assert!(broadcast.for_restart(7).is_some());
    }

    #[test]
    fn tracker_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<BudgetTracker>();
    }

    #[test]
    fn fork_snapshots_remaining_budget_and_absorb_folds_back() {
        let budget =
            RunBudget { max_passes: Some(10), max_moves: Some(100), ..RunBudget::default() };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(!tracker.before_pass());
        tracker.add_moves(40);

        let worker = tracker.fork_worker(0);
        // The fork sees what is left: 9 passes, 60 moves.
        for _ in 0..9 {
            assert!(!worker.before_pass());
        }
        assert!(worker.before_pass(), "tenth worker pass exceeds the forked cap");
        worker.add_moves(5);

        tracker.absorb(&worker);
        assert_eq!(tracker.passes(), 11);
        assert!(tracker.check(), "absorbed passes push the parent over its cap");
        assert_eq!(tracker.completion(), Completion::Degraded);
    }

    #[test]
    fn pair_job_faults_fire_only_in_matching_fork() {
        let plan = FaultPlan::expire_at(1).for_only_pair_job(2);
        let tracker = BudgetTracker::new(&RunBudget::default(), Some(plan));
        // The run-level tracker never fires the worker-targeted fault.
        assert!(!tracker.before_pass());
        assert_eq!(tracker.faults_injected(), 0);

        let other = tracker.fork_worker(1);
        assert!(!other.before_pass());
        assert_eq!(other.faults_injected(), 0);

        let target = tracker.fork_worker(2);
        assert!(target.before_pass(), "fault forces expiry on its first pass");
        assert_eq!(target.faults_injected(), 1);
        assert_eq!(target.completion(), Completion::DeadlineExpired);

        // Absorbing the faulted worker propagates the stop to the run.
        tracker.absorb(&other);
        assert_eq!(tracker.completion(), Completion::Complete);
        tracker.absorb(&target);
        assert_eq!(tracker.faults_injected(), 1);
        assert_eq!(tracker.completion(), Completion::DeadlineExpired);
    }

    #[test]
    fn pair_panic_fires_inside_fork() {
        let plan = FaultPlan::panic_at(1, "pair boom").for_only_pair_job(0);
        let tracker = BudgetTracker::new(&RunBudget::default(), Some(plan));
        assert!(!tracker.before_pass());
        let worker = tracker.fork_worker(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.before_pass()))
            .expect_err("must panic");
        let message = err.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("pair boom"), "{message}");
        // The worker tracker survives the unwind with its count intact.
        tracker.absorb(&worker);
        assert_eq!(tracker.faults_injected(), 1);
    }

    #[test]
    fn completion_merge_severity() {
        use Completion::{Cancelled, Complete, DeadlineExpired, Degraded};
        assert_eq!(Complete.worst(Degraded), Degraded);
        assert_eq!(Degraded.worst(Complete), Degraded);
        assert_eq!(DeadlineExpired.worst(Degraded), DeadlineExpired);
        assert_eq!(Cancelled.worst(DeadlineExpired), Cancelled);
        assert_eq!(Complete.worst(Complete), Complete);
    }
}
