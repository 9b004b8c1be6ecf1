//! The FPART driver: Algorithm 1 of the paper.
//!
//! The circuit starts as one big remainder block. Each iteration peels off
//! one device-sized block via the constructive bipartition (§3.2), then
//! runs the improvement schedule of §3.1:
//!
//! 1. `Improve(R_k, P_k)` between the two lately partitioned blocks;
//! 2. when `M ≤ N_small`, `Improve` over *all* blocks;
//! 3. `Improve(P_MIN_size, R_k)`, `Improve(P_MIN_IO, R_k)`,
//!    `Improve(P_MIN_F, R_k)` — pulling the remainder's content into the
//!    smallest, the fewest-I/O, and the most-free-space block;
//! 4. at `k = M` (and `M ≤ N_small`), a final `Improve(P_i, R_k)` sweep
//!    over every block.
//!
//! Iterations stop as soon as the remainder meets the device constraints.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use fpart_device::{lower_bound, BlockUsage, DeviceConstraints};
use fpart_hypergraph::{Hypergraph, NodeId};

use crate::budget::Completion;
use crate::config::FpartConfig;
use crate::cost::{classify, CostEvaluator};
use crate::engine::{improve_cells, ImproveContext};
use crate::initial::bipartition_remainder;
use crate::obs::{Counter, Metrics, Observer, SpanKind, SpanStats};
use crate::run::{RunCtx, Work};
use crate::state::PartitionState;
use crate::trace::{ImproveKind, TraceEvent};

/// An error preventing partitioning from starting or finishing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// A single node is larger than the device: no partition can exist.
    OversizedNode {
        /// The offending node.
        node: NodeId,
        /// Its size.
        size: u32,
        /// The device size limit.
        s_max: u64,
    },
    /// The driver hit its iteration safety valve without the remainder
    /// ever meeting the constraints (I/O-infeasible circuits can do this).
    IterationLimit {
        /// Iterations executed before giving up.
        iterations: usize,
    },
    /// A search parameter is invalid (e.g. zero restarts or threads),
    /// detected up front instead of relying on downstream clamping.
    InvalidConfig {
        /// What is wrong, in plain words.
        what: &'static str,
    },
    /// Every restart of a multi-run search panicked; the first panic is
    /// reported (single restart survivors always win over panics).
    RestartPanicked {
        /// Restart index of the first panic.
        restart: usize,
        /// Recovered panic message.
        message: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::OversizedNode { node, size, s_max } => {
                write!(f, "node {node:?} has size {size}, larger than the device capacity {s_max}")
            }
            PartitionError::IterationLimit { iterations } => {
                write!(f, "no feasible partition found within {iterations} peeling iterations")
            }
            PartitionError::InvalidConfig { what } => {
                write!(f, "invalid configuration: {what}")
            }
            PartitionError::RestartPanicked { restart, message } => {
                write!(f, "every restart failed; restart {restart} panicked: {message}")
            }
        }
    }
}

impl Error for PartitionError {}

/// Per-block summary of a finished partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockReport {
    /// Block size `S_i` in technology cells.
    pub size: u64,
    /// Terminal (IOB) count `T_i`.
    pub terminals: usize,
    /// External primary-I/O count `T_i^E`.
    pub externals: usize,
    /// Whether the block meets the device constraints.
    pub feasible: bool,
}

/// Result of a partitioning run.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Final block index per node (dense, empty blocks removed).
    pub assignment: Vec<u32>,
    /// Per-block reports, indexed by block.
    pub blocks: Vec<BlockReport>,
    /// Number of devices used (`k` in the paper's tables).
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
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Engine metrics of the run (all zero unless the run was observed
    /// with an enabled registry, see [`partition_observed`]).
    pub metrics: Metrics,
    /// How the run ended: [`Completion::Complete`] for a natural finish,
    /// otherwise the budget limit or degradation that cut it short (the
    /// outcome is then the best solution seen before the stop).
    pub completion: Completion,
}

impl PartitionOutcome {
    /// Occupancy points of all blocks (the paper's Figure 2 view).
    #[must_use]
    pub fn usages(&self) -> Vec<BlockUsage> {
        self.blocks.iter().map(|b| BlockUsage::new(b.size, b.terminals)).collect()
    }
}

/// Partitions `graph` onto devices with the given constraints using the
/// FPART algorithm.
///
/// # Errors
///
/// Returns [`PartitionError::OversizedNode`] when a node cannot fit any
/// device, and [`PartitionError::IterationLimit`] when the safety valve
/// trips before a feasible partition is reached.
///
/// # Example
///
/// ```
/// use fpart_core::{partition, FpartConfig};
/// use fpart_device::Device;
/// use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};
///
/// # fn main() -> Result<(), fpart_core::PartitionError> {
/// let (graph, _) = clustered_circuit(&ClusteredConfig::new("demo", 4, 30), 1);
/// let constraints = Device::XC3020.constraints(0.9);
/// let outcome = partition(&graph, constraints, &FpartConfig::default())?;
/// assert!(outcome.feasible);
/// assert!(outcome.device_count >= outcome.lower_bound);
/// # Ok(())
/// # }
/// ```
pub fn partition(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
) -> Result<PartitionOutcome, PartitionError> {
    partition_observed(graph, constraints, config, &mut Observer::none())
}

/// Like [`partition`], recording metrics and driver events into the
/// given [`Observer`] — the most general entry point; [`partition`] is a
/// thin wrapper over it, and a `Vec<TraceEvent>` attached as the
/// observer's sink records the full execution trace.
///
/// The observer never influences the search: for any observer
/// configuration the returned partition is bit-identical to
/// [`partition`]'s (the `observability` integration suite proves this by
/// property test). On success the outcome carries a copy of the
/// observer's final metrics.
///
/// # Errors
///
/// See [`partition`]. On error the observer keeps whatever metrics and
/// events accumulated before the failure.
pub fn partition_observed(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    obs: &mut Observer<'_>,
) -> Result<PartitionOutcome, PartitionError> {
    fpart(graph, constraints, config, &mut RunCtx::new(obs, config, 0, 1))
}

/// Flat FPART on `ctx`: the peel loop runs under the context's budget
/// (checked at every peel and pass boundary), so the V-cycle's coarse
/// peel spends the budget of the run that nests it.
pub(crate) fn fpart(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ctx: &mut RunCtx<'_, '_>,
) -> Result<PartitionOutcome, PartitionError> {
    let start = Instant::now();
    if let Some(empty) = ctx.begin(graph, constraints, config)? {
        return Ok(empty);
    }

    let m = lower_bound(graph, constraints);
    let evaluator = CostEvaluator::new(constraints, config, m, graph.terminal_count());
    let mut state = PartitionState::single_block(graph);
    let mut work = Work::default();
    let iteration_cap = m * config.max_iterations_factor + 32;

    // The loop runs until the whole partition is feasible. Normally the
    // remainder is the only violator and becomes feasible last; but an
    // improvement pass may empty the remainder into a block that then
    // violates the I/O constraint — per the paper's definition, *the
    // violating subset is the remainder*, so with `repair_violators` it
    // gets re-designated and split further (the greedy baseline instead
    // stops when the original remainder fits).
    while let Some(remainder) = next_remainder(&state, &evaluator, config) {
        // Peel boundary: a stopped budget ends the loop cleanly; the
        // state already holds the best solution of every improve call,
        // so whatever has been peeled so far is returned as-is.
        if ctx.budget.check() {
            break;
        }
        work.iterations += 1;
        let iterations = work.iterations;
        if iterations > iteration_cap {
            return Err(PartitionError::IterationLimit { iterations });
        }
        let obs = &mut *ctx.obs;
        obs.metrics.bump(Counter::Iterations);
        obs.emit(|| TraceEvent::IterationStart {
            iteration: iterations,
            remainder_size: state.block_size(remainder),
            remainder_terminals: state.block_terminals(remainder),
        });

        let improve_ctx = ImproveContext {
            evaluator: &evaluator,
            config,
            remainder,
            minimum_reached: iterations > m,
            budget: Some(&ctx.budget),
        };

        let p = state.add_block();
        obs.metrics.span_open(SpanKind::Bipartition, 0);
        let method = bipartition_remainder(&mut state, remainder, p, &improve_ctx);
        obs.metrics.bump(Counter::Bipartitions);
        obs.metrics.span_close(SpanStats { nodes: state.block_size(p), ..SpanStats::default() });
        obs.emit(|| TraceEvent::Bipartition {
            iteration: iterations,
            method,
            peeled_size: state.block_size(p),
            peeled_terminals: state.block_terminals(p),
        });

        let mut run = |state: &mut PartitionState<'_>, kind: ImproveKind, blocks: Vec<usize>| {
            if blocks.len() < 2 {
                return;
            }
            let stats =
                improve_cells(state, &blocks, None, Some(kind), &improve_ctx, &mut obs.metrics);
            work.improve_calls += 1;
            work.moves += stats.moves;
            obs.emit(|| TraceEvent::Improve {
                iteration: iterations,
                kind,
                blocks,
                initial_key: stats.initial_key,
                final_key: stats.final_key,
                passes: stats.passes,
                moves: stats.moves,
                restarts: stats.restarts,
            });
        };

        // 1. Two lately partitioned blocks.
        run(&mut state, ImproveKind::LastPair, vec![remainder, p]);

        if config.use_improvement_schedule {
            // 2. All blocks together (small-M group only).
            if m <= config.n_small && state.block_count() >= 3 {
                let all: Vec<usize> = (0..state.block_count()).collect();
                run(&mut state, ImproveKind::AllBlocks, all);
            }

            // 3. Remainder vs the smallest / fewest-I/O / most-free block.
            let mut recent: Option<usize> = Some(p);
            for (kind, pick) in [
                (ImproveKind::MinSize, select_min_size(&state, remainder)),
                (ImproveKind::MinIo, select_min_io(&state, remainder)),
                (ImproveKind::MaxFree, select_max_free(&state, remainder, constraints, config)),
            ] {
                let Some(block) = pick else { continue };
                // Skip a pass that would repeat the immediately preceding
                // pair — it just converged.
                if recent == Some(block) {
                    continue;
                }
                run(&mut state, kind, vec![block, remainder]);
                recent = Some(block);
            }

            // 4. Final pairwise sweep when the lower bound is reached.
            if iterations == m && m <= config.n_small {
                for b in 0..state.block_count() {
                    if b != remainder {
                        run(&mut state, ImproveKind::FinalSweep, vec![b, remainder]);
                    }
                }
            }
        }

        ctx.obs.emit(|| {
            let k = state.block_count();
            let feasible = (0..k)
                .filter(|&b| constraints.fits(state.block_size(b), state.block_terminals(b)))
                .count();
            TraceEvent::Solution {
                iteration: iterations,
                class: classify(feasible, k),
                blocks: (0..k).map(|b| state.block_usage(b)).collect(),
            }
        });
        // `level` of a peel heartbeat is the peeling iteration.
        ctx.progress(SpanKind::Initial, iterations, work.moves, &state);
    }

    Ok(ctx.finish(&state, constraints, m, work, start, Completion::Complete))
}

/// Picks the block to split next: with `repair_violators`, the non-empty
/// block with the largest infeasibility distance; otherwise only the
/// original remainder (block 0) while it violates. `None` ends the loop.
fn next_remainder(
    state: &PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
) -> Option<usize> {
    let constraints = evaluator.constraints();
    if !config.repair_violators {
        let fits = constraints.fits(state.block_size(0), state.block_terminals(0));
        return (!fits && state.block_size(0) > 0).then_some(0);
    }
    (0..state.block_count())
        .filter(|&b| {
            state.block_size(b) > 0
                && !constraints.fits(state.block_size(b), state.block_terminals(b))
        })
        .max_by(|&a, &b| {
            let da = evaluator.block_distance(state.block_size(a), state.block_terminals(a));
            let db = evaluator.block_distance(state.block_size(b), state.block_terminals(b));
            da.total_cmp(&db).then_with(|| b.cmp(&a))
        })
}

/// The non-remainder, non-empty block with the smallest size.
fn select_min_size(state: &PartitionState<'_>, remainder: usize) -> Option<usize> {
    (0..state.block_count())
        .filter(|&b| b != remainder && state.block_size(b) > 0)
        .min_by_key(|&b| (state.block_size(b), b))
}

/// The non-remainder, non-empty block with the fewest terminals.
fn select_min_io(state: &PartitionState<'_>, remainder: usize) -> Option<usize> {
    (0..state.block_count())
        .filter(|&b| b != remainder && state.block_size(b) > 0)
        .min_by_key(|&b| (state.block_terminals(b), b))
}

/// The non-remainder, non-empty block with the largest free space
/// `F = σ₁(S_MAX−S)/S_MAX + σ₂(T_MAX−T)/T_MAX`.
fn select_max_free(
    state: &PartitionState<'_>,
    remainder: usize,
    constraints: DeviceConstraints,
    config: &FpartConfig,
) -> Option<usize> {
    (0..state.block_count()).filter(|&b| b != remainder && state.block_size(b) > 0).max_by(
        |&a, &b| {
            let fa = constraints.free_space(state.block_usage(a), config.sigma1, config.sigma2);
            let fb = constraints.free_space(state.block_usage(b), config.sigma1, config.sigma2);
            fa.total_cmp(&fb).then_with(|| b.cmp(&a))
        },
    )
}

/// Compacts empty blocks out and assembles the outcome of `state`.
pub(crate) fn assemble_outcome(
    state: &PartitionState<'_>,
    constraints: DeviceConstraints,
    m: usize,
    work: Work,
    elapsed: Duration,
    metrics: Metrics,
    completion: Completion,
) -> PartitionOutcome {
    let graph = state.graph();
    let k = state.block_count();
    let mut dense = vec![u32::MAX; k];
    let mut blocks = Vec::new();
    for (b, slot) in dense.iter_mut().enumerate() {
        if state.block_size(b) == 0 {
            continue;
        }
        *slot = blocks.len() as u32;
        blocks.push(BlockReport {
            size: state.block_size(b),
            terminals: state.block_terminals(b),
            externals: state.block_externals(b),
            feasible: constraints.fits(state.block_size(b), state.block_terminals(b)),
        });
    }
    let assignment: Vec<u32> = graph.node_ids().map(|v| dense[state.block_of(v)]).collect();
    let feasible =
        !blocks.is_empty() && blocks.iter().all(|b| b.feasible) || graph.node_count() == 0;
    PartitionOutcome {
        device_count: blocks.len(),
        assignment,
        blocks,
        lower_bound: m,
        feasible,
        cut: state.cut_count(),
        iterations: work.iterations,
        improve_calls: work.improve_calls,
        total_moves: work.moves,
        elapsed,
        metrics,
        completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::EventSink;
    use crate::search::{search, Algorithm, Restarts};
    use fpart_device::Device;
    use fpart_hypergraph::gen::{clustered_circuit, window_circuit, ClusteredConfig, WindowConfig};
    use fpart_hypergraph::HypergraphBuilder;
    use std::cmp::Reverse;

    fn check_outcome(graph: &Hypergraph, outcome: &PartitionOutcome) {
        assert_eq!(outcome.assignment.len(), graph.node_count());
        // Every node lands in a real block.
        for &b in &outcome.assignment {
            assert!((b as usize) < outcome.device_count);
        }
        // Block reports add up.
        let total: u64 = outcome.blocks.iter().map(|b| b.size).sum();
        assert_eq!(total, graph.total_size());
        assert!(outcome.device_count >= outcome.lower_bound || !outcome.feasible);
    }

    #[test]
    fn whole_circuit_fits_one_device() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 10), 1);
        let constraints = DeviceConstraints::new(1000, 1000);
        let outcome = partition(&g, constraints, &FpartConfig::default()).unwrap();
        assert_eq!(outcome.device_count, 1);
        assert_eq!(outcome.iterations, 0);
        assert!(outcome.feasible);
        check_outcome(&g, &outcome);
    }

    #[test]
    fn clustered_circuit_partitions_to_planted_count() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 4, 25), 2);
        // Device fits one planted cluster comfortably.
        let constraints = DeviceConstraints::new(30, 120);
        let outcome = partition(&g, constraints, &FpartConfig::default()).unwrap();
        assert!(outcome.feasible, "outcome: {outcome:?}");
        assert!(outcome.device_count >= 4); // 100 cells / 30
        assert!(outcome.device_count <= 6, "used {} devices", outcome.device_count);
        check_outcome(&g, &outcome);
    }

    #[test]
    fn window_circuit_meets_constraints() {
        let g = window_circuit(&WindowConfig::new("w", 300, 24), 5);
        let constraints = Device::XC3020.constraints(0.9);
        let outcome = partition(&g, constraints, &FpartConfig::default()).unwrap();
        assert!(outcome.feasible);
        for b in &outcome.blocks {
            assert!(b.size <= constraints.s_max);
            assert!(b.terminals <= constraints.t_max);
        }
        check_outcome(&g, &outcome);
    }

    #[test]
    fn oversized_node_is_rejected() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 100);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let err =
            partition(&g, DeviceConstraints::new(50, 10), &FpartConfig::default()).unwrap_err();
        assert!(matches!(err, PartitionError::OversizedNode { size: 100, .. }));
    }

    #[test]
    fn empty_circuit_is_trivially_feasible() {
        let g = HypergraphBuilder::new().finish().unwrap();
        let outcome =
            partition(&g, DeviceConstraints::new(10, 10), &FpartConfig::default()).unwrap();
        assert_eq!(outcome.device_count, 0);
        assert!(outcome.feasible);
    }

    /// Runs `partition_observed` with the given event sink.
    fn traced(
        graph: &Hypergraph,
        constraints: DeviceConstraints,
        sink: &mut dyn EventSink,
    ) -> PartitionOutcome {
        let mut obs = Observer::new(Metrics::disabled(), Some(sink));
        partition_observed(graph, constraints, &FpartConfig::default(), &mut obs).unwrap()
    }

    /// A switched-off sink: no event may reach it.
    struct Off;

    impl EventSink for Off {
        fn is_enabled(&self) -> bool {
            false
        }

        fn record_event(&mut self, _: &TraceEvent) {
            panic!("an event reached a disabled sink");
        }
    }

    #[test]
    fn traced_run_records_schedule() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 3, 20), 4);
        let mut trace = Vec::new();
        let outcome = traced(&g, DeviceConstraints::new(25, 100), &mut trace);
        assert!(!trace.is_empty());
        // At least one iteration start and one improve per iteration.
        let count = |pick: fn(&TraceEvent) -> bool| trace.iter().filter(|e| pick(e)).count();
        assert_eq!(count(|e| matches!(e, TraceEvent::IterationStart { .. })), outcome.iterations);
        assert!(count(|e| matches!(e, TraceEvent::Improve { .. })) >= outcome.iterations);
    }

    #[test]
    fn untraced_run_records_nothing() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 15), 4);
        let outcome = traced(&g, DeviceConstraints::new(20, 100), &mut Off);
        assert_eq!(
            outcome.assignment,
            partition(&g, DeviceConstraints::new(20, 100), &FpartConfig::default())
                .unwrap()
                .assignment
        );
    }

    #[test]
    fn classical_config_also_terminates() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 3, 20), 9);
        let outcome =
            partition(&g, DeviceConstraints::new(25, 100), &FpartConfig::classical()).unwrap();
        assert!(outcome.feasible);
        check_outcome(&g, &outcome);
    }

    #[test]
    fn determinism_same_inputs_same_outcome() {
        let g = window_circuit(&WindowConfig::new("w", 200, 20), 77);
        let constraints = DeviceConstraints::new(40, 60);
        let a = partition(&g, constraints, &FpartConfig::default()).unwrap();
        let b = partition(&g, constraints, &FpartConfig::default()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.device_count, b.device_count);
        assert_eq!(a.cut, b.cut);
    }

    /// The flat restart search with `restarts` restarts over `threads`.
    fn restarts(
        g: &Hypergraph,
        constraints: DeviceConstraints,
        restarts: usize,
        threads: usize,
    ) -> PartitionOutcome {
        let shape = Restarts { count: restarts, threads, ..Restarts::default() };
        let config = FpartConfig::default();
        search(g, constraints, &config, Algorithm::Flat, &shape, &mut Observer::none())
            .unwrap()
            .outcome
    }

    #[test]
    fn restarts_are_thread_count_invariant() {
        let g = window_circuit(&WindowConfig::new("w", 180, 18), 5);
        let constraints = DeviceConstraints::new(35, 60);
        let sequential = restarts(&g, constraints, 4, 1);
        for threads in [2, 4, 8] {
            let parallel = restarts(&g, constraints, 4, threads);
            assert_eq!(sequential.assignment, parallel.assignment, "threads={threads}");
            assert_eq!(sequential.device_count, parallel.device_count);
            assert_eq!(sequential.cut, parallel.cut);
        }
    }

    #[test]
    fn restarts_never_worse_than_single_run() {
        let g = window_circuit(&WindowConfig::new("w", 180, 18), 5);
        let constraints = DeviceConstraints::new(35, 60);
        let single = partition(&g, constraints, &FpartConfig::default()).unwrap();
        let multi = restarts(&g, constraints, 3, 2);
        // The restart at offset 0 reproduces the single run, so the
        // reduced outcome can only match or beat it.
        assert!(
            (multi.feasible, Reverse(multi.device_count), Reverse(multi.cut))
                >= (single.feasible, Reverse(single.device_count), Reverse(single.cut))
        );
    }
}
