//! N-level multilevel partitioning: coarsen to a size floor, partition
//! the coarsest hypergraph with the FPART driver, then uncoarsen level
//! by level with boundary-only FM refinement.
//!
//! Clustering is one of the classical FM quality/runtime levers the
//! paper's introduction surveys; the n-level organisation (many
//! fine-grained levels, real FM at every one of them) is what makes it
//! competitive at scale. The V-cycle here composes the substrates:
//!
//! * [`fpart_hypergraph::coarsen::coarsen_to_floor`] builds the full
//!   heavy-edge matching hierarchy until the node count reaches
//!   [`MultilevelConfig::coarsen_floor`] (or matching saturates) — not a
//!   fixed level count;
//! * the FPART driver partitions the coarsest hypergraph under the
//!   run's own execution budget;
//! * on the way back up, each level projects the solution (into reused
//!   buffers) and runs [`crate::refine::refine_boundary_metered`] — the
//!   real engine machinery (gain buckets, infeasibility-distance key,
//!   feasible-move regions) over boundary cells only.
//!
//! Budgets, metrics, and panic-isolated restarts from the flat driver
//! all work inside the V-cycle: a deadline expiring mid-uncoarsening
//! still projects down to the finest level (projection is cheap and
//! always completes), so the outcome stays a verifiable partition and
//! reports [`Completion::DeadlineExpired`].

use std::sync::Arc;
use std::time::Instant;

use fpart_device::{lower_bound, DeviceConstraints};
use fpart_hypergraph::coarsen::coarsen_to_floor_budgeted;
use fpart_hypergraph::{fingerprint_graph, order_checksum, Fingerprint, Hypergraph};

use crate::budget::{BudgetTracker, Completion};
use crate::config::FpartConfig;
use crate::cost::CostEvaluator;
use crate::driver::{partition_with_tracker, PartitionError, PartitionOutcome};
use crate::obs::{Counter, Metrics, Observer, SpanKind, SpanStats};
use crate::refine::{refine_boundary_metered, RefineConfig};
use crate::search::{search, Algorithm, Restarts, RestartsReport};
use crate::state::PartitionState;

/// Options of the n-level multilevel mode.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelConfig {
    /// Coarsening stops once the node count drops to this floor (or
    /// heavy-edge matching saturates). The hierarchy depth follows from
    /// the circuit, not from a preset level count.
    pub coarsen_floor: usize,
    /// Safety valve on the hierarchy depth (matching halves the node
    /// count at best, so 64 levels cover any practical circuit).
    pub max_levels: usize,
    /// Cluster size cap as a fraction of `S_MAX` (clusters larger than
    /// the device could never be placed; smaller caps keep refinement
    /// room). Clamped to at least 2 cells.
    pub cluster_cap_fraction: f64,
    /// Maximum boundary-refinement rounds per uncoarsening level.
    pub refine_rounds: usize,
    /// Block pairs refined per round (the most cut-connected ones).
    pub pairs_per_round: usize,
    /// Seed for the matching order.
    pub seed: u64,
    /// Intra-run worker threads for the parallel stages of one V-cycle
    /// (heavy-edge matching proposals, net projection, boundary pair
    /// jobs). The partition is bit-identical for every value; the
    /// restart search derives it from its total thread budget. Clamped
    /// to at least 1.
    pub threads: usize,
    /// Estimated-byte cap for hierarchy construction. When the next
    /// coarsening level would exceed it, coarsening stops at the current
    /// depth and the run reports [`Completion::Degraded`]. Partition
    /// states are not counted (see [`crate::MemoryBudget`]): each level's
    /// refinement keeps one live per worker of [`Self::threads`], so one
    /// at a single thread. The cap is a deterministic function of the
    /// input, so budgeted runs stay bit-identical at any thread count.
    pub memory: crate::budget::MemoryBudget,
    /// Optional shared memoization store (coarsening-hierarchy cache
    /// plus restart-solution memo, see [`crate::memo`]). `None` — the
    /// default — disables caching entirely; the cold path then performs
    /// no fingerprinting at all. The store never changes any result:
    /// cached runs are bit-identical to cold runs, so the handle is
    /// normalized out of run fingerprints and memo keys.
    pub memo: Option<Arc<crate::memo::MemoStore>>,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsen_floor: 256,
            max_levels: 64,
            cluster_cap_fraction: 0.1,
            refine_rounds: 2,
            pairs_per_round: 16,
            seed: 0x5EED,
            threads: crate::parallel::default_threads(),
            memory: crate::budget::MemoryBudget::default(),
            memo: None,
        }
    }
}

impl MultilevelConfig {
    /// Panics on nonsensical parameters, mirroring
    /// [`FpartConfig::validate`]'s contract.
    ///
    /// # Panics
    ///
    /// Panics when `cluster_cap_fraction` is not positive and finite.
    pub fn validate(&self) {
        assert!(
            self.cluster_cap_fraction.is_finite() && self.cluster_cap_fraction > 0.0,
            "cluster_cap_fraction must be positive and finite"
        );
    }
}

/// The memoization identity of one input graph: its content
/// fingerprint and id-order checksum. Both are O(graph) to compute, so
/// the restart search computes them **once per run** and threads the pair
/// through every restart's solution and hierarchy keys — the graph
/// never changes between restarts, and recomputing per restart is
/// exactly the kind of cold-path overhead the memo layer must not add.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphKey {
    /// [`fingerprint_graph`] of the input.
    pub(crate) fp: Fingerprint,
    /// [`order_checksum`] of the input.
    pub(crate) order: u64,
}

/// Computes a graph's [`GraphKey`] (one O(graph) pass of each hash).
pub(crate) fn graph_key(graph: &Hypergraph) -> GraphKey {
    GraphKey { fp: fingerprint_graph(graph), order: order_checksum(graph) }
}

/// The per-run [`GraphKey`] the restart search precomputes: `Some` only
/// when a memo store is configured — without one, no fingerprinting
/// happens at all.
pub(crate) fn run_graph_key(graph: &Hypergraph, ml: &MultilevelConfig) -> Option<GraphKey> {
    ml.memo.as_ref().map(|_| graph_key(graph))
}

/// Partitions `graph` through the n-level multilevel flow: coarsen to
/// the configured floor, run FPART on the coarsest hypergraph, then
/// project the solution back one level at a time with boundary-only FM
/// refinement at every level.
///
/// # Errors
///
/// Propagates [`PartitionError`] from the coarse-level FPART run; an
/// oversized *cluster* cannot occur (the cap keeps clusters below
/// `S_MAX`), but an oversized original node still errors.
///
/// # Example
///
/// ```
/// use fpart_core::{partition_multilevel, FpartConfig, MultilevelConfig};
/// use fpart_device::Device;
/// use fpart_hypergraph::gen::{window_circuit, WindowConfig};
///
/// # fn main() -> Result<(), fpart_core::PartitionError> {
/// let circuit = window_circuit(&WindowConfig::new("demo", 300, 24), 1);
/// let outcome = partition_multilevel(
///     &circuit,
///     Device::XC3020.constraints(0.9),
///     &FpartConfig::default(),
///     &MultilevelConfig::default(),
/// )?;
/// assert!(outcome.feasible);
/// # Ok(())
/// # }
/// ```
pub fn partition_multilevel(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ml: &MultilevelConfig,
) -> Result<PartitionOutcome, PartitionError> {
    let mut obs = Observer::none();
    partition_multilevel_observed(graph, constraints, config, ml, &mut obs)
}

/// [`partition_multilevel`] with metrics and driver events recorded into
/// the given [`Observer`] — coarsening depth, per-level boundary
/// refinement timing ([`crate::ImproveKind::Boundary`]), and everything
/// the coarse-level driver records.
///
/// The whole V-cycle runs under **one** [`BudgetTracker`] built from
/// `config.budget`: the coarse partition's passes, every level's
/// refinement passes, and the level boundaries all check the same
/// deadline/caps. When the budget stops the run mid-uncoarsening, the
/// remaining levels only project (no refinement), so the returned
/// assignment always covers the input graph and verifies.
///
/// # Errors
///
/// See [`partition_multilevel`].
pub fn partition_multilevel_observed(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ml: &MultilevelConfig,
    obs: &mut Observer<'_>,
) -> Result<PartitionOutcome, PartitionError> {
    let gk = run_graph_key(graph, ml);
    partition_multilevel_observed_keyed(graph, constraints, config, ml, obs, gk.as_ref())
}

/// [`partition_multilevel_observed`] with the graph's memoization
/// identity precomputed by the caller — the restart search hashes the
/// graph once and reuses the key for every restart.
pub(crate) fn partition_multilevel_observed_keyed(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ml: &MultilevelConfig,
    obs: &mut Observer<'_>,
    gk: Option<&GraphKey>,
) -> Result<PartitionOutcome, PartitionError> {
    config.validate();
    ml.validate();
    let start = Instant::now();

    if graph.node_count() == 0 {
        return Ok(PartitionOutcome {
            assignment: Vec::new(),
            blocks: Vec::new(),
            device_count: 0,
            lower_bound: 0,
            feasible: true,
            cut: 0,
            iterations: 0,
            improve_calls: 0,
            total_moves: 0,
            elapsed: start.elapsed(),
            metrics: obs.metrics.clone(),
            completion: Completion::Complete,
        });
    }
    for v in graph.node_ids() {
        let size = graph.node_size(v);
        if u64::from(size) > constraints.s_max {
            return Err(PartitionError::OversizedNode { node: v, size, s_max: constraints.s_max });
        }
    }

    // One budget tracker for the whole V-cycle (a direct call counts as
    // restart 0 for fault-plan targeting, like the flat driver).
    let tracker = BudgetTracker::new(
        &config.budget,
        config.fault_plan.as_ref().and_then(|plan| plan.for_restart(0)),
    );

    // Coarsen until the floor (or saturation) — the n-level hierarchy.
    // The worker count never changes the hierarchy (sharded proposals
    // commit serially), so intra-run parallelism keeps determinism.
    let cap = ((constraints.s_max as f64 * ml.cluster_cap_fraction) as u64).max(2);
    let cached = obtain_hierarchy(graph, cap, ml, obs, gk);
    let hierarchy = &cached.hierarchy;
    let memory_truncated = cached.truncated;
    obs.metrics.add(Counter::CoarsenLevels, hierarchy.level_count() as u64);

    // Partition the coarsest level under the shared tracker.
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    obs.metrics.span_open(SpanKind::Initial, 0);
    let coarse_result = partition_with_tracker(coarsest, constraints, config, obs, &tracker);
    obs.metrics.span_close(match &coarse_result {
        Ok(outcome) => SpanStats {
            nodes: coarsest.node_count() as u64,
            nets: coarsest.net_count() as u64,
            moves: outcome.total_moves as u64,
            ..SpanStats::default()
        },
        Err(_) => SpanStats::default(),
    });
    let coarse_outcome = coarse_result?;
    let coarse_stopped = tracker.stopped();
    let faults_after_coarse = tracker.faults_injected();

    let m = lower_bound(graph, constraints);
    let evaluator = CostEvaluator::new(constraints, config, m, graph.terminal_count());
    let refine = RefineConfig {
        rounds: ml.refine_rounds,
        pairs_per_round: ml.pairs_per_round,
        workers: ml.threads.max(1),
    };

    let mut iterations = coarse_outcome.iterations;
    let mut improve_calls = coarse_outcome.improve_calls;
    let mut total_moves = coarse_outcome.total_moves;
    let mut assignment = coarse_outcome.assignment;
    let mut k = coarse_outcome.device_count.max(1);

    // Uncoarsen: project one level at a time (into a reused buffer) and
    // refine the boundary. The fine side of level i is the coarse side
    // of level i−1 (level 0's fine side is the input graph). Projection
    // always completes — a budget stop only skips refinement — so the
    // final assignment covers the input graph even on a mid-V-cycle
    // deadline.
    let mut next: Vec<u32> = Vec::with_capacity(graph.node_count());
    for i in (0..hierarchy.level_count()).rev() {
        hierarchy.levels[i].project_into(&assignment, &mut next);
        std::mem::swap(&mut assignment, &mut next);
        if tracker.check() {
            continue;
        }
        let fine: &Hypergraph = if i == 0 { graph } else { &hierarchy.levels[i - 1].coarse };
        obs.metrics.span_open(SpanKind::RefineLevel, i as u32);
        let mut state = PartitionState::from_assignment(fine, std::mem::take(&mut assignment), k);
        let stats = refine_boundary_metered(
            &mut state,
            &evaluator,
            config,
            &refine,
            Some(&tracker),
            &mut obs.metrics,
        );
        improve_calls += stats.calls;
        total_moves += stats.moves;
        iterations += usize::from(stats.calls > 0);
        k = state.block_count();
        obs.metrics.span_close(SpanStats {
            nodes: fine.node_count() as u64,
            nets: fine.net_count() as u64,
            boundary: stats.boundary as u64,
            moves: stats.moves as u64,
            ..SpanStats::default()
        });
        if let Some(elapsed) = obs.heartbeat.due() {
            let snapshot = tracker.remaining();
            let passes = obs.metrics.get(Counter::Passes);
            let cut = state.cut_count();
            obs.emit(|| crate::trace::TraceEvent::Progress {
                phase: SpanKind::RefineLevel,
                level: i,
                passes,
                moves: total_moves as u64,
                cut: Some(cut),
                elapsed_ms: elapsed.as_millis() as u64,
                deadline_remaining_ms: snapshot.deadline_remaining.map(|d| d.as_millis() as u64),
                passes_remaining: snapshot.passes_remaining,
            });
        }
        assignment = state.into_assignment();
    }

    // The coarse run already accounted its own budget stop and faults;
    // record only what refinement added.
    if tracker.stopped() && !coarse_stopped {
        obs.metrics.bump(Counter::BudgetStops);
    }
    obs.metrics.add(Counter::FaultsInjected, tracker.faults_injected() - faults_after_coarse);

    let state = PartitionState::from_assignment(graph, assignment, k);
    Ok(crate::driver::assemble_outcome(
        graph,
        &state,
        constraints,
        m,
        iterations,
        improve_calls,
        total_moves,
        start.elapsed(),
        obs.metrics.clone(),
        {
            let mut completion = tracker.completion().worst(coarse_outcome.completion);
            if memory_truncated {
                // A memory-capped hierarchy is a graceful degradation:
                // the run finished, just on a shallower V-cycle.
                completion = completion.worst(Completion::Degraded);
            }
            completion
        },
    ))
}

/// Builds or reuses the coarsening hierarchy of one V-cycle.
///
/// With a memo store configured, the finished hierarchy is cached under
/// the graph's content fingerprint, its id-order checksum, and every
/// parameter the coarsener derives the hierarchy from (including the
/// byte cap, which can truncate it). A hit skips coarsening entirely
/// and replays the per-level [`SpanKind::CoarsenLevel`] records from
/// the cached levels, so downstream span consumers see the same shape
/// as a cold run. Without a store this is exactly the cold path — no
/// fingerprinting happens at all.
fn obtain_hierarchy(
    graph: &Hypergraph,
    cap: u64,
    ml: &MultilevelConfig,
    obs: &mut Observer<'_>,
    gk: Option<&GraphKey>,
) -> Arc<crate::memo::CachedHierarchy> {
    let key = ml.memo.as_ref().map(|_| {
        let gk = gk.copied().unwrap_or_else(|| graph_key(graph));
        crate::memo::HierarchyKey {
            graph: gk.fp,
            order: gk.order,
            cap,
            floor: ml.coarsen_floor,
            max_levels: ml.max_levels,
            seed: ml.seed,
            max_bytes: ml.memory.max_bytes,
        }
    });
    if let (Some(store), Some(key)) = (ml.memo.as_deref(), key.as_ref()) {
        if let Some(cached) = store.lookup_hierarchy(key) {
            obs.metrics.bump(Counter::HierarchyCacheHits);
            if obs.metrics.is_enabled() {
                for (level, c) in cached.hierarchy.levels.iter().enumerate() {
                    obs.metrics.record_span(
                        SpanKind::CoarsenLevel,
                        level as u32,
                        std::time::Duration::ZERO,
                        SpanStats {
                            nodes: c.coarse.node_count() as u64,
                            nets: c.coarse.net_count() as u64,
                            ..SpanStats::default()
                        },
                    );
                }
            }
            return cached;
        }
        obs.metrics.bump(Counter::HierarchyCacheMisses);
    }
    let (hierarchy, truncated) = {
        // Per-level coarsening spans: timing happens inside the
        // coarsener (clock reads only when metrics are on) and lands
        // here as externally-timed records.
        let spans_on = obs.metrics.is_enabled();
        let metrics = &mut obs.metrics;
        let mut on_level = |level: usize,
                            c: &fpart_hypergraph::coarsen::Coarsening,
                            elapsed: std::time::Duration| {
            metrics.record_span(
                SpanKind::CoarsenLevel,
                level as u32,
                elapsed,
                SpanStats {
                    nodes: c.coarse.node_count() as u64,
                    nets: c.coarse.net_count() as u64,
                    ..SpanStats::default()
                },
            );
        };
        let on_level: Option<fpart_hypergraph::coarsen::OnLevel<'_>> =
            if spans_on { Some(&mut on_level) } else { None };
        coarsen_to_floor_budgeted(
            graph,
            cap,
            ml.coarsen_floor,
            ml.max_levels,
            ml.seed,
            ml.threads.max(1),
            ml.memory.max_bytes,
            on_level,
        )
    };
    let cached = Arc::new(crate::memo::CachedHierarchy { hierarchy, truncated });
    if let (Some(store), Some(key)) = (ml.memo.as_deref(), key) {
        let evicted = store.insert_hierarchy(key, Arc::clone(&cached));
        obs.metrics.add(Counter::HierarchyCacheEvictions, evicted as u64);
    }
    cached
}

/// Splits a total worker budget between the restart fan-out and the
/// intra-run stages of each restart: restarts claim workers first (they
/// parallelize with no cloning overhead), and any surplus becomes
/// intra-run workers shared evenly. Neither number changes any result —
/// restarts reduce in index order and the intra-run stages are
/// thread-count invariant — so the split is purely a throughput choice.
#[must_use]
pub fn split_thread_budget(threads: usize, restarts: usize) -> (usize, usize) {
    let threads = threads.max(1);
    let outer = threads.min(restarts.max(1));
    let inner = (threads / outer).max(1);
    (outer, inner)
}

/// The n-level restart search with every restart's metrics recorded:
/// [`crate::search`] over [`Algorithm::Multilevel`] with `restarts`
/// restarts and a total budget of `threads` workers.
///
/// # Errors
///
/// See [`crate::search`].
pub fn partition_multilevel_restarts_observed(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ml: &MultilevelConfig,
    restarts: usize,
    threads: usize,
) -> Result<RestartsReport, PartitionError> {
    search(
        graph,
        constraints,
        config,
        Algorithm::Multilevel(ml),
        &Restarts { count: restarts, threads, ..Restarts::default() },
        &mut Observer::new(Metrics::enabled(), None),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use crate::driver::partition;
    use crate::verify::verify_assignment;
    use fpart_device::Device;
    use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};
    use std::time::Duration;

    #[test]
    fn multilevel_produces_valid_feasible_partition() {
        let g = window_circuit(&WindowConfig::new("w", 400, 30), 3);
        let constraints = Device::XC3020.constraints(0.9);
        let out = partition_multilevel(
            &g,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig::default(),
        )
        .expect("runs");
        assert_eq!(out.assignment.len(), g.node_count());
        let total: u64 = out.blocks.iter().map(|b| b.size).sum();
        assert_eq!(total, g.total_size());
        assert!(out.feasible, "blocks: {:?}", out.blocks);
        assert!(out.device_count >= out.lower_bound);
        assert!(verify_assignment(&g, &out.assignment, out.device_count, constraints).is_feasible());
    }

    #[test]
    fn multilevel_quality_is_comparable_to_flat_on_mcnc() {
        let p = find_profile("s9234").expect("known circuit");
        let g = synthesize_mcnc(p, Technology::Xc3000);
        let constraints = Device::XC3020.constraints(0.9);
        let flat = partition(&g, constraints, &FpartConfig::default()).expect("flat");
        let ml = partition_multilevel(
            &g,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig::default(),
        )
        .expect("multilevel");
        assert!(ml.feasible);
        // Clustering may trade a little quality for speed; hold it to a
        // generous band so regressions stand out.
        assert!(
            ml.device_count <= flat.device_count + flat.device_count / 2 + 1,
            "multilevel {} vs flat {}",
            ml.device_count,
            flat.device_count
        );
    }

    #[test]
    fn floor_above_node_count_degenerates_to_flat() {
        let g = window_circuit(&WindowConfig::new("w", 150, 16), 7);
        let constraints = Device::XC3020.constraints(0.9);
        let ml_config =
            MultilevelConfig { coarsen_floor: g.node_count(), ..MultilevelConfig::default() };
        let out = partition_multilevel(&g, constraints, &FpartConfig::default(), &ml_config)
            .expect("runs");
        let flat = partition(&g, constraints, &FpartConfig::default()).expect("flat");
        assert_eq!(out.device_count, flat.device_count);
        assert_eq!(out.assignment, flat.assignment);
        assert_eq!(out.cut, flat.cut);
    }

    #[test]
    fn multilevel_builds_a_deep_hierarchy_on_large_circuits() {
        let g = window_circuit(&WindowConfig::new("w", 2000, 40), 5);
        let constraints = Device::XC3020.constraints(0.9);
        let mut obs = Observer::new(Metrics::enabled(), None);
        let out = partition_multilevel_observed(
            &g,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig { coarsen_floor: 128, ..MultilevelConfig::default() },
            &mut obs,
        )
        .expect("runs");
        assert!(out.feasible);
        let levels = out.metrics.get(Counter::CoarsenLevels);
        assert!(levels >= 3, "2000 nodes → floor 128 needs several levels, got {levels}");
        assert!(out.metrics.get(Counter::BoundaryRefinements) > 0);
        assert!(
            out.metrics.improve_time(crate::ImproveKind::Boundary).count
                == out.metrics.get(Counter::BoundaryRefinements)
        );
    }

    #[test]
    fn oversized_node_still_errors() {
        let mut b = fpart_hypergraph::HypergraphBuilder::new();
        let x = b.add_node("x", 100);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let err = partition_multilevel(
            &g,
            DeviceConstraints::new(50, 10),
            &FpartConfig::default(),
            &MultilevelConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::OversizedNode { .. }));
    }

    #[test]
    fn empty_graph_is_trivially_feasible() {
        let g = fpart_hypergraph::HypergraphBuilder::new().finish().unwrap();
        let out = partition_multilevel(
            &g,
            DeviceConstraints::new(10, 10),
            &FpartConfig::default(),
            &MultilevelConfig::default(),
        )
        .unwrap();
        assert_eq!(out.device_count, 0);
        assert!(out.feasible);
        assert_eq!(out.completion, Completion::Complete);
    }

    #[test]
    fn expired_deadline_still_returns_verifiable_output() {
        let g = window_circuit(&WindowConfig::new("w", 1200, 40), 9);
        let constraints = Device::XC3020.constraints(0.9);
        let config = FpartConfig {
            budget: RunBudget { deadline: Some(Duration::ZERO), ..RunBudget::default() },
            ..FpartConfig::default()
        };
        let out = partition_multilevel(&g, constraints, &config, &MultilevelConfig::default())
            .expect("degrades, does not error");
        assert_eq!(out.completion, Completion::DeadlineExpired);
        // The assignment still covers the whole input graph and is
        // structurally valid (only capacity violations are tolerable
        // on an expired budget), even though refinement never ran.
        assert_eq!(out.assignment.len(), g.node_count());
        let v = verify_assignment(&g, &out.assignment, out.device_count, constraints);
        assert!(
            v.violations.iter().all(|x| matches!(
                x,
                crate::verify::Violation::OverSize { .. }
                    | crate::verify::Violation::OverTerminals { .. }
            )),
            "violations: {:?}",
            v.violations
        );
    }

    #[test]
    fn memory_budget_truncates_hierarchy_and_degrades() {
        let g = window_circuit(&WindowConfig::new("w", 2000, 40), 5);
        let constraints = Device::XC3020.constraints(0.9);
        // A cap barely above the input graph leaves no room for any
        // coarsening level at all.
        let tight = MultilevelConfig {
            coarsen_floor: 128,
            memory: crate::budget::MemoryBudget::capped(g.approx_bytes() + 1024),
            ..MultilevelConfig::default()
        };
        let mut obs = Observer::new(Metrics::enabled(), None);
        let out = partition_multilevel_observed(
            &g,
            constraints,
            &FpartConfig::default(),
            &tight,
            &mut obs,
        )
        .expect("degrades, does not error");
        assert_eq!(out.completion, Completion::Degraded);
        assert_eq!(out.metrics.get(Counter::CoarsenLevels), 0, "no level fit under the cap");
        assert_eq!(out.assignment.len(), g.node_count());
        assert!(verify_assignment(&g, &out.assignment, out.device_count, constraints).is_feasible());

        // An unlimited budget is bit-identical to the plain entry point.
        let unlimited = MultilevelConfig { coarsen_floor: 128, ..MultilevelConfig::default() };
        let a = partition_multilevel(&g, constraints, &FpartConfig::default(), &unlimited).unwrap();
        let b = partition_multilevel(
            &g,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig {
                memory: crate::budget::MemoryBudget::capped(u64::MAX),
                ..unlimited
            },
        )
        .unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn multilevel_restarts_are_thread_count_invariant() {
        let g = window_circuit(&WindowConfig::new("w", 500, 24), 5);
        let constraints = Device::XC3020.constraints(0.9);
        let config = FpartConfig::default();
        let ml = MultilevelConfig { coarsen_floor: 64, ..MultilevelConfig::default() };
        let run = |threads| {
            partition_multilevel_restarts_observed(&g, constraints, &config, &ml, 3, threads)
                .unwrap()
                .outcome
        };
        let sequential = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(sequential.assignment, parallel.assignment, "threads={threads}");
            assert_eq!(sequential.device_count, parallel.device_count);
            assert_eq!(sequential.cut, parallel.cut);
        }
    }

    #[test]
    fn multilevel_restarts_validate_search_parameters() {
        let g = window_circuit(&WindowConfig::new("w", 60, 8), 1);
        let constraints = Device::XC3020.constraints(0.9);
        let err = partition_multilevel_restarts_observed(
            &g,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig::default(),
            0,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidConfig { .. }));
    }

    #[test]
    fn observed_restarts_totals_are_per_restart_sums() {
        let g = window_circuit(&WindowConfig::new("w", 300, 16), 3);
        let constraints = Device::XC3020.constraints(0.9);
        let report = partition_multilevel_restarts_observed(
            &g,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig { coarsen_floor: 64, ..MultilevelConfig::default() },
            3,
            2,
        )
        .unwrap();
        assert_eq!(report.per_restart.len(), 3);
        for c in Counter::ALL {
            let sum: u64 = report.per_restart.iter().map(|m| m.get(c)).sum();
            assert_eq!(report.totals.get(c), sum, "counter {}", c.name());
        }
        assert!(report.totals.get(Counter::CoarsenLevels) >= 3);
    }
}
