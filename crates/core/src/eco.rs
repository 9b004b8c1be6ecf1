//! Incremental (ECO) repartitioning: repair an existing partition after
//! a netlist edit instead of rebuilding it from scratch.
//!
//! Real FPGA flows are iterative — multi-FPGA emulation systems
//! repartition near-identical designs on every design spin. The repair
//! driver here exploits that: the surviving part of the previous
//! assignment is carried over the old→new node mapping produced by
//! [`fpart_hypergraph::apply_script`], new and orphaned cells are placed
//! constructively into the most-connected block with free capacity, and
//! only the *dirty* blocks — the ones an edit actually touched — are
//! repaired with the boundary-only FM machinery
//! ([`crate::refine::refine_boundary_dirty_metered`]) under the same
//! infeasibility-distance cost as every other entry point.
//!
//! Two safety valves keep repairs honest:
//!
//! * a **churn threshold** — when the edit touches more than
//!   [`EcoConfig::churn_threshold`] of the design, local repair is the
//!   wrong tool and the driver falls back to a full multilevel
//!   repartition ([`Counter::EcoFallbacks`]);
//! * **verification** — every repaired assignment is re-verified from
//!   first principles; an infeasible repair (outside of a budget stop,
//!   where degradation is the contract) also falls back.
//!
//! Budgets compose exactly like the other drivers: one
//! [`BudgetTracker`] spans carry-over, placement, and repair; an expired
//! deadline skips repair but still returns a full-coverage assignment.

use std::time::Instant;

use fpart_device::{lower_bound, DeviceConstraints};
use fpart_hypergraph::{Hypergraph, NodeId};

use crate::budget::BudgetTracker;
use crate::config::FpartConfig;
use crate::cost::CostEvaluator;
use crate::driver::{PartitionError, PartitionOutcome};
use crate::multilevel::{partition_multilevel_observed, MultilevelConfig};
use crate::obs::{Counter, Observer};
use crate::refine::{refine_boundary_dirty_metered, RefineConfig};
use crate::state::PartitionState;
use crate::verify::verify_assignment;

/// Options of the ECO repair driver.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoConfig {
    /// Fraction of the edited design's cells an edit may touch (cells
    /// placed plus cells removed, over the edited node count) before
    /// local repair gives way to a full multilevel repartition.
    pub churn_threshold: f64,
    /// Maximum dirty-block repair rounds (see [`RefineConfig::rounds`]).
    pub refine_rounds: usize,
    /// Block pairs repaired per round, before the dirty filter.
    pub pairs_per_round: usize,
    /// The full-repartition engine used when the churn threshold trips
    /// or a repair does not verify. Its `threads` field also sizes the
    /// dirty-block repair's boundary pair-job workers, so one knob
    /// covers both paths of the ECO flow.
    pub multilevel: MultilevelConfig,
}

impl Default for EcoConfig {
    fn default() -> Self {
        EcoConfig {
            churn_threshold: 0.15,
            refine_rounds: 4,
            pairs_per_round: 16,
            multilevel: MultilevelConfig::default(),
        }
    }
}

impl EcoConfig {
    /// Panics on nonsensical parameters, mirroring
    /// [`FpartConfig::validate`]'s contract.
    ///
    /// # Panics
    ///
    /// Panics when `churn_threshold` is not finite and in `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.churn_threshold.is_finite() && (0.0..=1.0).contains(&self.churn_threshold),
            "churn_threshold must be a finite fraction in [0, 1]"
        );
        self.multilevel.validate();
    }
}

/// Result of one ECO repair.
#[derive(Debug, Clone)]
pub struct EcoReport {
    /// The repaired (or fallback-repartitioned) outcome on the edited
    /// graph. Always verifiable; always covers every node.
    pub outcome: PartitionOutcome,
    /// `true` when the incremental repair path produced the outcome;
    /// `false` when the driver fell back to full repartitioning.
    pub repaired: bool,
    /// Cells whose assignment survived the edit unchanged.
    pub carried: usize,
    /// Cells placed constructively (new nodes, or nodes of the previous
    /// assignment the mapping orphaned).
    pub placed: usize,
    /// Cells of the previous assignment the edit removed.
    pub removed: usize,
    /// Blocks marked dirty and eligible for repair.
    pub dirty_blocks: usize,
    /// The measured churn ratio the threshold was compared against.
    pub churn: f64,
}

/// Repairs `previous` — a `k`-way assignment of the graph the edit
/// script was derived from — into a partition of the edited `graph`.
///
/// `node_map[old]` gives each old node's id in `graph` (`None` when the
/// edit removed it), exactly as produced by
/// [`fpart_hypergraph::apply_script`]. The driver:
///
/// 1. carries surviving assignments over the mapping;
/// 2. measures churn (placed + removed cells over the edited node
///    count) and falls back to full multilevel repartitioning above
///    [`EcoConfig::churn_threshold`];
/// 3. places unassigned cells into the most-connected block with free
///    size capacity (ties to the lowest block; a cell with no connected
///    candidate goes to the emptiest fitting block, or opens a new one);
/// 4. marks dirty blocks — blocks that gained or lost cells, plus any
///    block the edit left infeasible — and repairs only those with
///    boundary-only FM under the infeasibility-distance cost;
/// 5. verifies the result, falling back to full repartitioning when a
///    completed repair does not verify (a budget stop instead returns
///    the degraded-but-valid assignment, like every other driver).
///
/// # Errors
///
/// [`PartitionError::InvalidConfig`] when `previous` and `node_map`
/// disagree in length, [`PartitionError::OversizedNode`] when a node
/// cannot fit any block, and any error of the multilevel fallback.
pub fn repartition_eco(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    eco: &EcoConfig,
    previous: &[u32],
    node_map: &[Option<NodeId>],
) -> Result<EcoReport, PartitionError> {
    let mut obs = Observer::none();
    repartition_eco_observed(graph, constraints, config, eco, previous, node_map, &mut obs)
}

/// [`repartition_eco`] with metrics recorded into `obs` — dirty-block
/// counts ([`Counter::EcoDirtyBlocks`]), fallbacks
/// ([`Counter::EcoFallbacks`]), repair timing under
/// [`crate::ImproveKind::Boundary`], and everything the fallback engine
/// records when it runs.
///
/// # Errors
///
/// See [`repartition_eco`].
#[allow(clippy::too_many_lines)]
pub fn repartition_eco_observed(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    eco: &EcoConfig,
    previous: &[u32],
    node_map: &[Option<NodeId>],
    obs: &mut Observer<'_>,
) -> Result<EcoReport, PartitionError> {
    config.validate();
    eco.validate();
    let start = Instant::now();

    if previous.len() != node_map.len() {
        return Err(PartitionError::InvalidConfig {
            what: "previous assignment and node map must have the same length",
        });
    }
    if graph.node_count() == 0 {
        let outcome =
            partition_multilevel_observed(graph, constraints, config, &eco.multilevel, obs)?;
        return Ok(EcoReport {
            outcome,
            repaired: true,
            carried: 0,
            placed: 0,
            removed: node_map.iter().filter(|m| m.is_none()).count(),
            dirty_blocks: 0,
            churn: 0.0,
        });
    }
    for v in graph.node_ids() {
        let size = graph.node_size(v);
        if u64::from(size) > constraints.s_max {
            return Err(PartitionError::OversizedNode { node: v, size, s_max: constraints.s_max });
        }
    }

    // Carry surviving assignments over the mapping.
    let n = graph.node_count();
    let mut carried_blocks: Vec<Option<u32>> = vec![None; n];
    let mut removed = 0usize;
    for (old, mapped) in node_map.iter().enumerate() {
        match mapped {
            Some(new) => carried_blocks[new.index()] = Some(previous[old]),
            None => removed += 1,
        }
    }
    let carried = carried_blocks.iter().filter(|b| b.is_some()).count();
    let placed = n - carried;
    #[allow(clippy::cast_precision_loss)]
    let churn = (placed + removed) as f64 / n as f64;

    // Too much churn: local repair is the wrong tool.
    if churn > eco.churn_threshold {
        obs.metrics.bump(Counter::EcoFallbacks);
        let outcome =
            partition_multilevel_observed(graph, constraints, config, &eco.multilevel, obs)?;
        return Ok(EcoReport {
            outcome,
            repaired: false,
            carried,
            placed,
            removed,
            dirty_blocks: 0,
            churn,
        });
    }

    // One budget for carry-over, placement, and repair (a direct call
    // counts as restart 0 for fault-plan targeting, like the drivers).
    let tracker = BudgetTracker::new(
        &config.budget,
        config.fault_plan.as_ref().and_then(|plan| plan.for_restart(0)),
    );

    // Blocks of the previous partition stay addressable even when the
    // edit emptied them; new blocks open past them if placement needs to.
    let place_started = obs.metrics.start();
    let mut k = previous
        .iter()
        .enumerate()
        .filter(|&(old, _)| node_map[old].is_some())
        .map(|(_, &b)| b as usize + 1)
        .max()
        .unwrap_or(0)
        .max(1);

    let mut dirty = vec![false; k];
    // Blocks that lost cells are dirty: the edit changed their boundary.
    for (old, mapped) in node_map.iter().enumerate() {
        if mapped.is_none() {
            let b = previous[old] as usize;
            if b < k {
                dirty[b] = true;
            }
        }
    }

    // Constructive placement: most-connected block with free size
    // capacity, in node-id order (deterministic).
    let mut block_sizes = vec![0u64; k];
    for v in graph.node_ids() {
        if let Some(b) = carried_blocks[v.index()] {
            block_sizes[b as usize] += u64::from(graph.node_size(v));
        }
    }
    let mut connectivity = vec![0u64; k];
    for v in graph.node_ids() {
        if carried_blocks[v.index()].is_some() {
            continue;
        }
        let size = u64::from(graph.node_size(v));
        connectivity.fill(0);
        for &e in graph.nets(v) {
            for &u in graph.pins(e) {
                if u == v {
                    continue;
                }
                if let Some(b) = carried_blocks[u.index()] {
                    connectivity[b as usize] += 1;
                }
            }
        }
        let best_connected = (0..k)
            .filter(|&b| connectivity[b] > 0 && block_sizes[b] + size <= constraints.s_max)
            .max_by_key(|&b| (connectivity[b], std::cmp::Reverse(b)));
        let target = best_connected.or_else(|| {
            // No connected block fits: the emptiest block that does.
            (0..k)
                .filter(|&b| block_sizes[b] + size <= constraints.s_max)
                .min_by_key(|&b| (block_sizes[b], b))
        });
        let b = target.unwrap_or_else(|| {
            // Nothing fits: open a fresh block.
            block_sizes.push(0);
            connectivity.push(0);
            dirty.push(false);
            k += 1;
            k - 1
        });
        carried_blocks[v.index()] = Some(b as u32);
        block_sizes[b] += size;
        dirty[b] = true;
    }

    let assignment: Vec<u32> =
        carried_blocks.into_iter().map(|b| b.expect("placement covers every node")).collect();
    let mut state = PartitionState::from_assignment(graph, assignment, k);

    // Any block the edit left infeasible needs repair too (resizes and
    // terminal shifts change usage without moving a cell).
    for (b, slot) in dirty.iter_mut().enumerate() {
        let usage = state.block_usage(b);
        if usage.size > constraints.s_max || usage.terminals > constraints.t_max {
            *slot = true;
        }
    }
    let dirty_blocks = dirty.iter().filter(|&&d| d).count();
    obs.metrics.add(Counter::EcoDirtyBlocks, dirty_blocks as u64);
    if let Some(started) = place_started {
        obs.metrics.record_span(
            crate::obs::SpanKind::EcoPlace,
            0,
            started.elapsed(),
            crate::obs::SpanStats {
                nodes: n as u64,
                moves: placed as u64,
                boundary: dirty_blocks as u64,
                ..crate::obs::SpanStats::default()
            },
        );
    }

    let m = lower_bound(graph, constraints);
    let evaluator = CostEvaluator::new(constraints, config, m, graph.terminal_count());
    // The repair shares the multilevel worker knob: dirty-block pair
    // jobs fan out exactly like an uncoarsening level's (and the full
    // fallback engine below inherits the same count).
    let refine = RefineConfig {
        rounds: eco.refine_rounds,
        pairs_per_round: eco.pairs_per_round,
        workers: eco.multilevel.threads.max(1),
    };

    let mut improve_calls = 0usize;
    let mut total_moves = 0usize;
    if !tracker.check() && dirty_blocks > 0 && k >= 2 {
        obs.metrics.span_open(crate::obs::SpanKind::EcoRepair, 0);
        let stats = refine_boundary_dirty_metered(
            &mut state,
            &evaluator,
            config,
            &refine,
            Some(&tracker),
            &mut obs.metrics,
            &dirty,
        );
        improve_calls = stats.calls;
        total_moves = stats.moves;
        obs.metrics.span_close(crate::obs::SpanStats {
            nodes: n as u64,
            boundary: stats.boundary as u64,
            moves: stats.moves as u64,
            ..crate::obs::SpanStats::default()
        });
        if let Some(elapsed) = obs.heartbeat.due() {
            let snapshot = tracker.remaining();
            let passes = obs.metrics.get(Counter::Passes);
            let cut = state.cut_count();
            obs.emit(|| crate::trace::TraceEvent::Progress {
                phase: crate::obs::SpanKind::EcoRepair,
                level: 0,
                passes,
                moves: total_moves as u64,
                cut: Some(cut),
                elapsed_ms: elapsed.as_millis() as u64,
                deadline_remaining_ms: snapshot.deadline_remaining.map(|d| d.as_millis() as u64),
                passes_remaining: snapshot.passes_remaining,
            });
        }
    }
    if tracker.stopped() {
        obs.metrics.bump(Counter::BudgetStops);
    }
    obs.metrics.add(Counter::FaultsInjected, tracker.faults_injected());

    // Every repair is verified from first principles; a completed repair
    // that does not verify falls back to the full engine. Budget stops
    // return the degraded-but-valid assignment instead — degradation is
    // the budget contract, and the fallback would blow the deadline.
    let verification = verify_assignment(graph, state.assignment(), k, constraints);
    if !verification.is_feasible() && !tracker.stopped() {
        obs.metrics.bump(Counter::EcoFallbacks);
        let outcome =
            partition_multilevel_observed(graph, constraints, config, &eco.multilevel, obs)?;
        return Ok(EcoReport {
            outcome,
            repaired: false,
            carried,
            placed,
            removed,
            dirty_blocks,
            churn,
        });
    }

    let outcome = crate::driver::assemble_outcome(
        graph,
        &state,
        constraints,
        m,
        usize::from(improve_calls > 0),
        improve_calls,
        total_moves,
        start.elapsed(),
        obs.metrics.clone(),
        tracker.completion(),
    );
    Ok(EcoReport { outcome, repaired: true, carried, placed, removed, dirty_blocks, churn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use crate::multilevel::partition_multilevel;
    use crate::obs::Metrics;
    use crate::search::{search, Algorithm, Restarts};
    use fpart_device::Device;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};
    use fpart_hypergraph::{apply_script, EditApplied, EditOp, EditScript};
    use std::time::Duration;

    fn small_edit(graph: &Hypergraph) -> EditScript {
        // Remove two cells, add one with a net into the survivors.
        let a = graph.node_name(NodeId::from_index(3)).to_owned();
        let b = graph.node_name(NodeId::from_index(17)).to_owned();
        let keep = graph.node_name(NodeId::from_index(40)).to_owned();
        EditScript::new(vec![
            EditOp::RemoveNode { name: a },
            EditOp::RemoveNode { name: b },
            EditOp::AddNode { name: "eco_x".into(), size: 2 },
            EditOp::AddNet { name: "eco_n".into(), pins: vec!["eco_x".into(), keep] },
        ])
    }

    /// Partitions `graph`, applies `script` and repairs the partition
    /// onto the edited graph under `config`.
    fn repair(
        graph: &Hypergraph,
        script: &EditScript,
        config: &FpartConfig,
        obs: &mut Observer<'_>,
    ) -> (EditApplied, EcoReport) {
        let constraints = Device::XC3020.constraints(0.9);
        let prev = partition_multilevel(
            graph,
            constraints,
            &FpartConfig::default(),
            &MultilevelConfig::default(),
        )
        .expect("baseline");
        let edited = apply_script(graph, script).expect("applies");
        let report = repartition_eco_observed(
            &edited.graph,
            constraints,
            config,
            &EcoConfig::default(),
            &prev.assignment,
            &edited.node_map,
            obs,
        )
        .expect("repairs");
        (edited, report)
    }

    #[test]
    fn repair_after_small_edit_is_verifiable_and_incremental() {
        let g = window_circuit(&WindowConfig::new("w", 400, 30), 3);
        let config = FpartConfig::default();
        let (edited, report) = repair(&g, &small_edit(&g), &config, &mut Observer::none());
        assert!(report.repaired, "1% churn must stay on the repair path");
        assert!(report.churn < 0.05, "churn {}", report.churn);
        assert!(report.placed >= 1);
        assert!(report.removed >= 2);
        assert!(report.dirty_blocks >= 1);
        let out = &report.outcome;
        assert!(out.feasible, "blocks: {:?}", out.blocks);
        assert_eq!(out.assignment.len(), edited.graph.node_count());
        let constraints = Device::XC3020.constraints(0.9);
        assert!(verify_assignment(&edited.graph, &out.assignment, out.device_count, constraints)
            .is_feasible());
        // Every surviving cell carries its block over the node map.
        assert_eq!(edited.node_map.iter().flatten().count(), report.carried);
    }

    #[test]
    fn high_churn_falls_back_to_full_repartitioning() {
        let g = window_circuit(&WindowConfig::new("w", 200, 20), 5);
        // Remove a third of the design — way past any sane threshold.
        let ops: Vec<EditOp> = g
            .node_ids()
            .take(g.node_count() / 3)
            .map(|v| EditOp::RemoveNode { name: g.node_name(v).to_owned() })
            .collect();
        let mut obs = Observer::new(Metrics::enabled(), None);
        let (_, report) = repair(&g, &EditScript::new(ops), &FpartConfig::default(), &mut obs);
        assert!(!report.repaired);
        assert!(report.churn > 0.15);
        assert!(report.outcome.feasible);
        assert_eq!(obs.metrics.get(Counter::EcoFallbacks), 1);
    }

    #[test]
    fn mismatched_map_length_is_a_typed_error() {
        let g = window_circuit(&WindowConfig::new("w", 50, 8), 1);
        let err = repartition_eco(
            &g,
            Device::XC3020.constraints(0.9),
            &FpartConfig::default(),
            &EcoConfig::default(),
            &[0, 0, 0],
            &[None],
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidConfig { .. }));
    }

    #[test]
    fn expired_deadline_skips_repair_but_covers_every_node() {
        let g = window_circuit(&WindowConfig::new("w", 400, 30), 3);
        let timed = FpartConfig {
            budget: RunBudget { deadline: Some(Duration::ZERO), ..RunBudget::default() },
            ..FpartConfig::default()
        };
        let (edited, report) = repair(&g, &small_edit(&g), &timed, &mut Observer::none());
        let out = &report.outcome;
        assert_eq!(out.assignment.len(), edited.graph.node_count());
        let constraints = Device::XC3020.constraints(0.9);
        let v = verify_assignment(&edited.graph, &out.assignment, out.device_count, constraints);
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
    fn eco_restarts_are_thread_count_invariant() {
        let g = window_circuit(&WindowConfig::new("w", 300, 24), 5);
        let constraints = Device::XC3020.constraints(0.9);
        let config = FpartConfig::default();
        let prev = partition_multilevel(&g, constraints, &config, &MultilevelConfig::default())
            .expect("baseline");
        let edited = apply_script(&g, &small_edit(&g)).expect("applies");
        let eco = EcoConfig::default();
        let algorithm =
            Algorithm::Eco { eco: &eco, previous: &prev.assignment, node_map: &edited.node_map };
        let run = |threads| {
            let shape = Restarts { count: 3, threads, ..Restarts::default() };
            search(&edited.graph, constraints, &config, algorithm, &shape, &mut Observer::none())
                .unwrap()
                .outcome
        };
        let sequential = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(sequential.assignment, parallel.assignment, "threads={threads}");
            assert_eq!(sequential.cut, parallel.cut);
        }
    }

    #[test]
    fn empty_edit_script_reports_zero_churn() {
        let g = window_circuit(&WindowConfig::new("w", 120, 12), 7);
        let (_, report) =
            repair(&g, &EditScript::default(), &FpartConfig::default(), &mut Observer::none());
        assert!(report.repaired);
        assert_eq!(report.placed, 0);
        assert_eq!(report.removed, 0);
        assert!((report.churn - 0.0).abs() < f64::EPSILON);
        assert!(report.outcome.feasible);
    }
}
