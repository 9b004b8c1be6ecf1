//! Classical two-way Fiduccia–Mattheyses bipartitioning, as a standalone
//! facade over the multi-way engine.
//!
//! The FPART paper builds on plain FM \[4\]; this module exposes that
//! substrate directly for library users who just want a balanced min-cut
//! bipartition of a hypergraph — the classical formulation with a
//! symmetric balance tolerance, no devices, no remainders.

use fpart_device::DeviceConstraints;
use fpart_hypergraph::{Hypergraph, NodeId};

use crate::config::FpartConfig;
use crate::cost::CostEvaluator;
use crate::engine::{improve_metered, ImproveContext, NO_REMAINDER};
use crate::obs::{Counter, Metrics};
use crate::state::PartitionState;

/// Options of the classical bipartitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct FmConfig {
    /// Allowed deviation from perfect balance: each side must hold
    /// between `(0.5 − tolerance)` and `(0.5 + tolerance)` of the total
    /// size. The classical choice is 0.05–0.10.
    pub balance_tolerance: f64,
    /// FM passes per run (a pass that fails to improve ends the run
    /// early).
    pub max_passes: usize,
    /// Gain levels for tie-breaking (1 or 2).
    pub gain_levels: u8,
    /// Independent runs from different seed splits; the best result wins.
    pub runs: usize,
    /// Worker threads for the independent runs (clamped to `runs`).
    /// Results are **bit-identical** for every thread count: each run is
    /// fully determined by its index, and the winner is reduced over the
    /// completed runs in index order, exactly as the sequential loop
    /// would. Callers with a single total worker budget (the CLI's
    /// `--threads`, [`crate::split_thread_budget`]) share it between
    /// this fan-out and the intra-run stages of the multilevel flow.
    pub threads: usize,
    /// Seed for the initial splits.
    pub seed: u64,
    /// Execution budget shared by all runs (each run enforces it with
    /// its own tracker). Unlimited by default.
    pub budget: crate::budget::RunBudget,
    /// Deterministic fault-injection schedule; `None` is a no-op branch.
    pub fault_plan: Option<crate::budget::FaultPlan>,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            balance_tolerance: 0.1,
            max_passes: 8,
            gain_levels: 2,
            runs: 2,
            threads: 1,
            seed: 0xF11,
            budget: crate::budget::RunBudget::default(),
            fault_plan: None,
        }
    }
}

/// A two-way partition: side per node plus its quality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bipartition {
    /// `side[node]` ∈ {0, 1}.
    pub side: Vec<u32>,
    /// Nets spanning both sides.
    pub cut: usize,
    /// Total node size of side 0.
    pub size0: u64,
    /// Total node size of side 1.
    pub size1: u64,
}

impl Bipartition {
    /// Balance of the partition: `min(size0, size1) / total` (0.5 is
    /// perfect).
    #[must_use]
    pub fn balance(&self) -> f64 {
        let total = self.size0 + self.size1;
        if total == 0 {
            return 0.5;
        }
        self.size0.min(self.size1) as f64 / total as f64
    }
}

/// Bipartitions `graph` with classical FM under a symmetric balance
/// tolerance.
///
/// Runs `config.runs` independent FM runs from different BFS-based
/// initial splits and returns the best balanced result by cut size.
///
/// # Panics
///
/// Panics if `balance_tolerance` is not in `[0, 0.5)` or the graph has
/// fewer than two nodes.
///
/// # Example
///
/// ```
/// use fpart_core::fm::{bipartition_fm, FmConfig};
/// use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};
///
/// let (graph, _) = clustered_circuit(&ClusteredConfig::new("demo", 2, 20), 1);
/// let result = bipartition_fm(&graph, &FmConfig::default());
/// assert!(result.balance() > 0.39);
/// assert!(result.cut < graph.net_count());
/// ```
#[must_use]
pub fn bipartition_fm(graph: &Hypergraph, config: &FmConfig) -> Bipartition {
    bipartition_fm_metered(graph, config, &mut Metrics::disabled())
}

/// [`bipartition_fm`] with engine metrics recorded into `metrics`.
///
/// Each independent run records into its own forked child registry
/// ([`crate::parallel::run_indexed_caught_metered`]); the children merge back
/// in run-index order, so the aggregate — like the winning bipartition —
/// is bit-identical at every thread count. [`Counter::Runs`] counts the
/// independent runs.
///
/// # Panics
///
/// See [`bipartition_fm`].
#[must_use]
pub fn bipartition_fm_metered(
    graph: &Hypergraph,
    config: &FmConfig,
    metrics: &mut Metrics,
) -> Bipartition {
    assert!(
        (0.0..0.5).contains(&config.balance_tolerance),
        "balance tolerance must be in [0, 0.5)"
    );
    assert!(graph.node_count() >= 2, "bipartitioning needs at least two nodes");

    let total = graph.total_size();
    // Express the balance window as a device size cap: each side may
    // hold at most (0.5 + tolerance) · total — but never less than half
    // (rounded up), or no split could exist.
    let cap = ((total as f64) * (0.5 + config.balance_tolerance)).floor() as u64;
    let cap = cap.max(total.div_ceil(2));
    let constraints = DeviceConstraints::new(cap, usize::MAX / 2);

    // Engine configuration: classical FM — a *symmetric* balance window
    // enforced through the move-region machinery: upper bound exactly the
    // cap (ε_max = 1), lower bound `total − cap` (so neither side can
    // drain below the window; in particular no side can empty).
    let eps_min = if cap == 0 { 0.0 } else { (total - cap) as f64 / cap as f64 };
    let engine_config = FpartConfig {
        gain_levels: config.gain_levels,
        max_passes: config.max_passes,
        eps_max: 1.0,
        eps_min_two: eps_min,
        eps_min_multi: eps_min,
        use_solution_stacks: false,
        use_infeasibility_cost: false,
        use_external_balance: false,
        use_improvement_schedule: false,
        use_move_regions: true,
        ..FpartConfig::default()
    };
    let evaluator = CostEvaluator::new(constraints, &engine_config, 2, graph.terminal_count());

    // One fully deterministic run per index: nothing here depends on
    // execution order, so the runs parallelize without changing results.
    // Each run enforces the shared budget with its own tracker (checked
    // at the engine's pass boundaries) and is panic-isolated: a run lost
    // to a panic is dropped from the reduction below.
    let run_one = |run: usize, (): &mut (), metrics: &mut Metrics| -> Bipartition {
        metrics.bump(Counter::Runs);
        metrics.set_span_lane(run as u32);
        metrics.span_open(crate::obs::SpanKind::Bipartition, 0);
        let budget = crate::budget::BudgetTracker::new(
            &config.budget,
            config.fault_plan.as_ref().and_then(|plan| plan.for_restart(run)),
        );
        let assignment = initial_split(graph, config.seed.wrapping_add(run as u64), cap);
        let mut state = PartitionState::from_assignment(graph, assignment, 2);
        let ctx = ImproveContext {
            evaluator: &evaluator,
            config: &engine_config,
            remainder: NO_REMAINDER,
            minimum_reached: false,
            budget: Some(&budget),
        };
        let stats = improve_metered(&mut state, &[0, 1], &ctx, metrics);
        if budget.stopped() {
            metrics.bump(Counter::BudgetStops);
        }
        metrics.add(Counter::FaultsInjected, budget.faults_injected());
        metrics.span_close(crate::obs::SpanStats {
            nodes: graph.node_count() as u64,
            nets: graph.net_count() as u64,
            moves: stats.moves as u64,
            gain: stats.initial_key.cut as i64 - stats.final_key.cut as i64,
            ..crate::obs::SpanStats::default()
        });
        Bipartition {
            side: state.assignment().to_vec(),
            cut: state.cut_count(),
            size0: state.block_size(0),
            size1: state.block_size(1),
        }
    };
    let candidates = crate::parallel::run_indexed_caught_metered(
        config.runs.max(1),
        &mut vec![(); config.threads.max(1)],
        metrics,
        &run_one,
    );

    // Sequential reduction in run order — the same strict-improvement
    // fold the single-threaded loop performs, so ties keep favouring the
    // earliest run regardless of thread count. Panicked runs are skipped
    // (the fold errors only when every run was lost).
    let mut best: Option<Bipartition> = None;
    let mut first_panic: Option<crate::parallel::JobPanic> = None;
    for candidate in candidates {
        let candidate = match candidate {
            Ok(candidate) => candidate,
            Err(panic) => {
                metrics.bump(Counter::FailedRestarts);
                first_panic.get_or_insert(panic);
                continue;
            }
        };
        let in_balance = candidate.size0.max(candidate.size1) <= cap;
        let better = match &best {
            None => true,
            Some(b) => {
                let b_in_balance = b.size0.max(b.size1) <= cap;
                (in_balance, std::cmp::Reverse(candidate.cut))
                    > (b_in_balance, std::cmp::Reverse(b.cut))
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    match (best, first_panic) {
        (Some(best), _) => best,
        (None, Some(panic)) => {
            panic!("every bipartition run panicked; run {} first: {}", panic.index, panic.message)
        }
        (None, None) => unreachable!("at least one run executes"),
    }
}

/// BFS-based initial split: grow side 0 from a seed until half the total
/// size, rest is side 1.
fn initial_split(graph: &Hypergraph, seed: u64, cap: u64) -> Vec<u32> {
    let n = graph.node_count();
    let start = NodeId::from_index((seed as usize) % n);
    let half = graph.total_size() / 2;
    let mut side = vec![1u32; n];
    let mut size0 = 0u64;
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    'grow: loop {
        let Some(v) = queue.pop_front() else {
            // Disconnected: jump to the next unseen node.
            match (0..n).find(|&i| !seen[i]) {
                Some(i) => {
                    seen[i] = true;
                    queue.push_back(NodeId::from_index(i));
                    continue;
                }
                None => break 'grow,
            }
        };
        let s = u64::from(graph.node_size(v));
        if size0 + s > half.max(1) || size0 + s > cap {
            break;
        }
        side[v.index()] = 0;
        size0 += s;
        for &net in graph.nets(v) {
            for &u in graph.pins(net) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    // Guarantee both sides are non-empty.
    if size0 == 0 {
        side[start.index()] = 0;
    }
    if side.iter().all(|&s| s == 0) {
        side[n - 1] = 1;
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::gen::{clustered_circuit, window_circuit, ClusteredConfig, WindowConfig};
    use fpart_hypergraph::HypergraphBuilder;

    #[test]
    fn finds_planted_bipartition() {
        let cfg = ClusteredConfig::new("cl", 2, 30);
        let (g, _) = clustered_circuit(&cfg, 3);
        let result = bipartition_fm(&g, &FmConfig::default());
        assert!(result.balance() > 0.4, "balance {}", result.balance());
        assert!(
            result.cut <= cfg.inter_nets + 2,
            "cut {} vs planted {}",
            result.cut,
            cfg.inter_nets
        );
    }

    #[test]
    fn respects_balance_window() {
        let g = window_circuit(&WindowConfig::new("w", 200, 10), 5);
        let config = FmConfig { balance_tolerance: 0.05, ..FmConfig::default() };
        let result = bipartition_fm(&g, &config);
        let cap = (g.total_size() as f64 * 0.55).ceil() as u64;
        assert!(result.size0.max(result.size1) <= cap);
        assert_eq!(result.size0 + result.size1, g.total_size());
    }

    #[test]
    fn cut_matches_recount() {
        let g = window_circuit(&WindowConfig::new("w", 120, 8), 9);
        let result = bipartition_fm(&g, &FmConfig::default());
        let state = PartitionState::from_assignment(&g, result.side.clone(), 2);
        assert_eq!(state.cut_count(), result.cut);
        assert_eq!(state.block_size(0), result.size0);
        assert_eq!(state.block_size(1), result.size1);
    }

    #[test]
    fn deterministic() {
        let g = window_circuit(&WindowConfig::new("w", 150, 8), 2);
        let a = bipartition_fm(&g, &FmConfig::default());
        let b = bipartition_fm(&g, &FmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn more_runs_never_hurt() {
        let g = window_circuit(&WindowConfig::new("w", 180, 12), 4);
        let one = bipartition_fm(&g, &FmConfig { runs: 1, ..FmConfig::default() });
        let four = bipartition_fm(&g, &FmConfig { runs: 4, ..FmConfig::default() });
        assert!(four.cut <= one.cut);
    }

    /// The parallel multi-run search must be bit-identical to the
    /// sequential one for every thread count, including thread counts
    /// exceeding the run count.
    #[test]
    fn parallel_runs_match_sequential() {
        let g = window_circuit(&WindowConfig::new("w", 220, 12), 8);
        let base = FmConfig { runs: 8, ..FmConfig::default() };
        let sequential = bipartition_fm(&g, &base);
        for threads in [2, 3, 4, 8, 16] {
            let parallel = bipartition_fm(&g, &FmConfig { threads, ..base.clone() });
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn two_node_graph() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let result = bipartition_fm(&g, &FmConfig::default());
        assert_eq!(result.size0 + result.size1, 2);
        assert_eq!(result.cut, 1);
    }

    #[test]
    #[should_panic(expected = "balance tolerance")]
    fn bad_tolerance_panics() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let _ = bipartition_fm(&g, &FmConfig { balance_tolerance: 0.7, ..FmConfig::default() });
    }
}
