//! The run context: what one run of one algorithm carries through every
//! stage it executes.
//!
//! Flat FPART ([`crate::driver`]), the n-level V-cycle
//! ([`crate::multilevel`]) and ECO repair ([`crate::eco`]) are each one
//! function over a [`RunCtx`]. A nested stage — the V-cycle's coarse
//! peel, every ECO fallback — runs on its caller's context, so the whole
//! run observes into one [`Observer`] and spends one [`BudgetTracker`]:
//! a pass cap or deadline bounds the run, not each stage of it.
//! [`crate::search()`] builds one context per restart; each public
//! entry point builds one for restart 0.

use std::time::{Duration, Instant};

use fpart_device::DeviceConstraints;
use fpart_hypergraph::Hypergraph;

use crate::budget::{BudgetTracker, Completion};
use crate::config::FpartConfig;
use crate::driver::{assemble_outcome, PartitionError, PartitionOutcome};
use crate::obs::{Counter, Observer, SpanKind};
use crate::state::PartitionState;
use crate::trace::TraceEvent;

/// Iterations, improve calls and retained moves of a finished run, as
/// its [`PartitionOutcome`] reports them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Work {
    pub(crate) iterations: usize,
    pub(crate) improve_calls: usize,
    pub(crate) moves: usize,
}

/// One run's observer, execution budget and intra-run worker count.
pub(crate) struct RunCtx<'r, 'o> {
    /// Receives the run's metrics, events and heartbeats.
    pub(crate) obs: &'r mut Observer<'o>,
    /// The run's one budget: every stage checks and spends it.
    pub(crate) budget: BudgetTracker,
    /// Workers for the intra-run parallel stages (matching proposals,
    /// net projection, boundary pair jobs); at least 1.
    pub(crate) threads: usize,
    /// Whether the budget stop is already counted in the metrics.
    stop_booked: bool,
    /// Injected faults already counted in the metrics.
    faults_booked: u64,
}

impl<'r, 'o> RunCtx<'r, 'o> {
    /// The context of restart `restart` of a run under `config`: the
    /// deadline clock starts now, and the fault plan applies only when
    /// it targets this restart.
    pub(crate) fn new(
        obs: &'r mut Observer<'o>,
        config: &FpartConfig,
        restart: usize,
        threads: usize,
    ) -> Self {
        let faults = config.fault_plan.as_ref().and_then(|plan| plan.for_restart(restart));
        RunCtx {
            obs,
            budget: BudgetTracker::new(&config.budget, faults),
            threads: threads.max(1),
            stop_booked: false,
            faults_booked: 0,
        }
    }

    /// The checks every stage starts with: `config` must be valid and no
    /// node may exceed the device. An empty graph needs no run at all;
    /// its (trivially feasible) outcome comes back as `Some`.
    pub(crate) fn begin(
        &self,
        graph: &Hypergraph,
        constraints: DeviceConstraints,
        config: &FpartConfig,
    ) -> Result<Option<PartitionOutcome>, PartitionError> {
        config.validate();
        if graph.node_count() == 0 {
            return Ok(Some(PartitionOutcome {
                assignment: Vec::new(),
                blocks: Vec::new(),
                device_count: 0,
                lower_bound: 0,
                feasible: true,
                cut: 0,
                iterations: 0,
                improve_calls: 0,
                total_moves: 0,
                elapsed: Duration::ZERO,
                metrics: self.obs.metrics.clone(),
                completion: Completion::Complete,
            }));
        }
        for v in graph.node_ids() {
            let size = graph.node_size(v);
            if u64::from(size) > constraints.s_max {
                return Err(PartitionError::OversizedNode {
                    node: v,
                    size,
                    s_max: constraints.s_max,
                });
            }
        }
        Ok(None)
    }

    /// Emits a throttled progress heartbeat for `phase` at `level` (a
    /// disabled heartbeat is one branch, no clock read).
    pub(crate) fn progress(
        &mut self,
        phase: SpanKind,
        level: usize,
        moves: usize,
        state: &PartitionState<'_>,
    ) {
        if let Some(elapsed) = self.obs.heartbeat.due() {
            let snapshot = self.budget.remaining();
            let passes = self.obs.metrics.get(Counter::Passes);
            let cut = state.cut_count();
            self.obs.emit(|| TraceEvent::Progress {
                phase,
                level,
                passes,
                moves: moves as u64,
                cut: Some(cut),
                elapsed_ms: elapsed.as_millis() as u64,
                deadline_remaining_ms: snapshot.deadline_remaining.map(|d| d.as_millis() as u64),
                passes_remaining: snapshot.passes_remaining,
            });
        }
    }

    /// Ends a stage: counts a budget stop and the injected faults not
    /// yet counted (a nested stage and its caller share the budget, so
    /// each is counted once per run), then assembles the outcome of
    /// `state`. The completion is the budget's, degraded further to
    /// `floor`.
    pub(crate) fn finish(
        &mut self,
        state: &PartitionState<'_>,
        constraints: DeviceConstraints,
        lower_bound: usize,
        work: Work,
        started: Instant,
        floor: Completion,
    ) -> PartitionOutcome {
        if self.budget.stopped() && !self.stop_booked {
            self.obs.metrics.bump(Counter::BudgetStops);
            self.stop_booked = true;
        }
        let faults = self.budget.faults_injected();
        self.obs.metrics.add(Counter::FaultsInjected, faults - self.faults_booked);
        self.faults_booked = faults;
        assemble_outcome(
            state,
            constraints,
            lower_bound,
            work,
            started.elapsed(),
            self.obs.metrics.clone(),
            self.budget.completion().worst(floor),
        )
    }
}
