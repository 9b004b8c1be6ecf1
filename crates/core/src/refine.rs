//! Pairwise refinement of an existing k-way partition.
//!
//! Shared by the multilevel flow and the direct k-way mode: repeatedly
//! run two-block improvement passes on the most cut-connected block
//! pairs. Unlike the driver's schedule there is no remainder — every
//! block obeys the same move window.
//!
//! Boundary refinement rounds run their pair passes as independent
//! *jobs*: [`top_crossing_pairs`] returns block-disjoint pairs, and every
//! job refines its worker's partition state in place, reads off the
//! boundary cells it moved, and moves them back, so each job starts from
//! the round-start assignment. After the round the surviving moves are
//! committed to the master state in pair-index order. Worker 0 refines
//! the master state itself, so one worker copies nothing; every other
//! worker clones it once per call and replays each round's commits.
//! Because each job's input is the round-start assignment (never a
//! sibling's output) and the commit order is fixed, the result is
//! bit-identical whether the jobs run on one worker or many
//! ([`RefineConfig::workers`]).

use fpart_hypergraph::{NetId, NodeId};

use crate::budget::BudgetTracker;
use crate::config::FpartConfig;
use crate::cost::CostEvaluator;
use crate::engine::{improve, improve_cells, ImproveContext, NO_REMAINDER};
use crate::obs::{Counter, Metrics};
use crate::parallel::run_indexed_caught_metered;
use crate::state::PartitionState;
use crate::trace::ImproveKind;

/// Options of the pairwise refiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfig {
    /// Maximum refinement rounds.
    pub rounds: usize,
    /// Block pairs refined per round (each block at most once a round).
    pub pairs_per_round: usize,
    /// Worker threads for the boundary pair jobs of one round. Each
    /// worker refines one partition state in place — the caller's for
    /// the first worker, a clone for each other — so boundary
    /// refinement keeps one state live per worker, and one worker
    /// copies none. The result is bit-identical for every value (jobs
    /// start from the round-start assignment and commit in pair order);
    /// values are clamped to at least 1.
    pub workers: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { rounds: 4, pairs_per_round: 8, workers: crate::parallel::default_threads() }
    }
}

/// Refines `state` with two-block improvement passes over the most
/// cut-connected block pairs until a round stops improving. Returns the
/// number of pair passes that improved the solution key.
pub fn refine_pairs(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
) -> usize {
    let k = state.block_count();
    let mut improved_total = 0usize;
    if k < 2 {
        return 0;
    }
    // The strict two-block ε²_min exists to protect the remainder during
    // the recursive flow; refinement has no remainder, so both blocks of
    // a pair get the loose multi-block coefficient.
    let config = FpartConfig { eps_min_two: config.eps_min_multi, ..config.clone() };
    let config = &config;
    for _ in 0..refine.rounds {
        let pairs = top_crossing_pairs(state, refine.pairs_per_round);
        if pairs.is_empty() {
            break;
        }
        let mut improved = false;
        for (a, b) in pairs {
            let ctx = ImproveContext {
                evaluator,
                config,
                remainder: NO_REMAINDER,
                minimum_reached: true, // strict S_MAX cap during refinement
                budget: None,
            };
            let stats = improve(state, &[a, b], &ctx);
            if stats.final_key.better_than(&stats.initial_key) {
                improved = true;
                improved_total += 1;
            }
        }
        if !improved {
            break;
        }
    }
    improved_total
}

/// Boundary-only refinement of one uncoarsening level of the n-level
/// multilevel flow.
///
/// Like [`refine_pairs`], but each pair pass runs the full FM machinery
/// (gain buckets, infeasibility-distance key, feasible-move regions)
/// over **boundary cells only** — the cells of the pair incident to a
/// net crossing the pair — so the per-level cost scales with the cut,
/// not the level's node count. The boundary buffer is reused across
/// pairs and rounds; the move loop inside each pass stays
/// zero-allocation (engine scratch).
///
/// `budget` is checked at every round boundary and threaded into each
/// improve call (pass boundaries), so a deadline expiring mid-level
/// stops refinement promptly while the state stays a valid partition.
/// Each pair pass is timed under [`ImproveKind::Boundary`] and counted
/// as [`Counter::BoundaryRefinements`] in `metrics`.
///
/// Returns the aggregated [`BoundaryRefineStats`] of the level.
pub fn refine_boundary_metered(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
    budget: Option<&BudgetTracker>,
    metrics: &mut Metrics,
) -> BoundaryRefineStats {
    refine_boundary(state, evaluator, config, refine, budget, metrics, None)
}

/// One pair job's contribution to a boundary round: the moves to commit
/// (boundary cells whose block the job changed), plus its stats delta.
struct PairOutcome {
    moved: Vec<(NodeId, usize)>,
    stats: BoundaryRefineStats,
    improved: bool,
}

/// [`refine_boundary_metered`], restricted to *dirty* blocks when
/// `dirty` is given: only block pairs where at least one side is marked
/// dirty are refined. This is the repair step of the ECO flow — blocks
/// untouched by a netlist edit keep their cells in place, so the cost of
/// a repair scales with the edit, not the design.
///
/// `dirty` must have one entry per block. A pair's pass may move cells
/// of its clean side (the boundary spans both blocks); that is
/// intentional — a repair that could not rebalance against a clean
/// neighbour would be unable to restore feasibility.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_boundary(
    state: &mut PartitionState<'_>,
    evaluator: &CostEvaluator,
    config: &FpartConfig,
    refine: &RefineConfig,
    budget: Option<&BudgetTracker>,
    metrics: &mut Metrics,
    dirty: Option<&[bool]>,
) -> BoundaryRefineStats {
    let k = state.block_count();
    if let Some(dirty) = dirty {
        assert_eq!(dirty.len(), k, "one dirty flag per block");
    }
    let mut stats_total = BoundaryRefineStats::default();
    if k < 2 {
        return stats_total;
    }
    // Same loosening as `refine_pairs`: no remainder to protect, so the
    // strict two-block ε²_min gives way to the multi-block coefficient.
    let config = FpartConfig { eps_min_two: config.eps_min_multi, ..config.clone() };
    let config = &config;
    let workers = refine.workers.max(1);
    // The states of workers 1.. (worker 0 refines `state` itself), each
    // kept at the round-start assignment by replaying every commit.
    let mut clones: Vec<PartitionState<'_>> = Vec::new();
    // Global pair-job counter across rounds: the index a worker-targeted
    // [`crate::FaultPlan`] matches on, and the budget fork identity.
    let mut next_job = 0usize;
    for _ in 0..refine.rounds {
        if budget.is_some_and(BudgetTracker::check) {
            break;
        }
        let mut pairs = top_crossing_pairs(state, refine.pairs_per_round);
        if let Some(dirty) = dirty {
            pairs.retain(|&(a, b)| dirty[a] || dirty[b]);
        }
        if pairs.is_empty() {
            break;
        }
        // Fork every job's budget before the fan-out, in pair order, so
        // all jobs of a round see the same remaining-budget snapshot no
        // matter how many workers execute them.
        let forks: Option<Vec<BudgetTracker>> =
            budget.map(|t| (0..pairs.len()).map(|i| t.fork_worker(next_job + i)).collect());
        let forks_ref = forks.as_deref();
        let pairs_ref = &pairs[..];
        // Jobs per worker, as the fan-out chunks them, and the number of
        // workers that get a chunk. Each worker's chunk doubles as its
        // Chrome-trace lane (lane 0 stays the enclosing flow). Lanes are
        // cosmetic — span *records* never depend on them.
        let lane_chunk = pairs.len().div_ceil(workers.min(pairs.len()));
        let busy = pairs.len().div_ceil(lane_chunk);
        while clones.len() + 1 < busy {
            clones.push(state.clone());
        }
        let mut locals: Vec<&mut PartitionState<'_>> =
            std::iter::once(&mut *state).chain(clones.iter_mut()).take(busy).collect();
        let results =
            run_indexed_caught_metered(pairs.len(), &mut locals, metrics, &|i, local, child| {
                let (a, b) = pairs_ref[i];
                child.bump(Counter::PairJobs);
                child.set_span_lane(1 + (i / lane_chunk) as u32);
                child.span_open(crate::obs::SpanKind::PairJob, 0);
                let mut boundary: Vec<NodeId> = Vec::new();
                boundary_cells(local, a, b, &mut boundary);
                if boundary.is_empty() {
                    child.span_close(crate::obs::SpanStats::default());
                    return PairOutcome {
                        moved: Vec::new(),
                        stats: BoundaryRefineStats::default(),
                        improved: false,
                    };
                }
                let ctx = ImproveContext {
                    evaluator,
                    config,
                    remainder: NO_REMAINDER,
                    minimum_reached: true, // strict S_MAX cap during refinement
                    budget: forks_ref.map(|f| &f[i]),
                };
                // The boundary's round-start blocks: the job's moves are read
                // off this record and then undone, so the worker's next job
                // starts from the round-start assignment too.
                let start: Vec<(NodeId, usize)> =
                    boundary.iter().map(|&v| (v, local.block_of(v))).collect();
                let started = child.start();
                let stats = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    improve_cells(local, &[a, b], Some(&boundary), &ctx, child)
                }))
                .unwrap_or_else(|panic| {
                    // The panic may have stopped inside a move, so rewrite
                    // the record and recount rather than move cells back.
                    local.reset_blocks(&start);
                    std::panic::resume_unwind(panic)
                });
                child.stop_improve(ImproveKind::Boundary, started);
                child.bump(Counter::BoundaryRefinements);
                child.span_close(crate::obs::SpanStats {
                    boundary: boundary.len() as u64,
                    moves: stats.moves as u64,
                    gain: stats.initial_key.cut as i64 - stats.final_key.cut as i64,
                    ..crate::obs::SpanStats::default()
                });
                let moved: Vec<(NodeId, usize)> = start
                    .iter()
                    .filter_map(|&(v, from)| {
                        let to = local.block_of(v);
                        (to != from).then_some((v, to))
                    })
                    .collect();
                local.apply(start);
                PairOutcome {
                    moved,
                    stats: BoundaryRefineStats {
                        calls: 1,
                        moves: stats.moves,
                        improved: usize::from(stats.final_key.better_than(&stats.initial_key)),
                        boundary: boundary.len(),
                    },
                    improved: stats.final_key.better_than(&stats.initial_key),
                }
            });
        next_job += pairs.len();
        // Commit in pair-index order: absorb every job's budget
        // consumption (even a panicked job's — its fault counts), apply
        // surviving moves, drop a panicked pair's moves deterministically.
        let mut improved = false;
        let mut committed: Vec<(NodeId, usize)> = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            if let (Some(t), Some(forks)) = (budget, &forks) {
                t.absorb(&forks[i]);
            }
            match result {
                Ok(outcome) => {
                    stats_total.calls += outcome.stats.calls;
                    stats_total.moves += outcome.stats.moves;
                    stats_total.improved += outcome.stats.improved;
                    stats_total.boundary += outcome.stats.boundary;
                    committed.extend(outcome.moved);
                    improved |= outcome.improved;
                }
                Err(_panic) => {
                    metrics.bump(Counter::PairPanics);
                }
            }
        }
        for local in std::iter::once(&mut *state).chain(clones.iter_mut()) {
            local.apply(committed.iter().copied());
        }
        if !improved {
            break;
        }
    }
    stats_total
}

/// Aggregated result of one [`refine_boundary_metered`] level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryRefineStats {
    /// Boundary improve calls executed.
    pub calls: usize,
    /// Cell moves retained across all calls.
    pub moves: usize,
    /// Calls that improved the solution key.
    pub improved: usize,
    /// Boundary cells examined, summed over all calls.
    pub boundary: usize,
}

/// Collects into `out` the cells of blocks `a` and `b` incident to at
/// least one net with pins in both — the cells whose moves can change
/// the pair's cut. The buffer is cleared and reused; cells appear once,
/// in node-id order.
fn boundary_cells(state: &PartitionState<'_>, a: usize, b: usize, out: &mut Vec<NodeId>) {
    out.clear();
    let graph = state.graph();
    for v in graph.node_ids() {
        let c = state.block_of(v);
        if c != a && c != b {
            continue;
        }
        let other = if c == a { b } else { a };
        if graph.nets(v).iter().any(|&net| state.net_pins_in(net, other) > 0) {
            out.push(v);
        }
    }
}

/// The block pairs with the most crossing nets, each block used at most
/// once (so one round touches many regions).
#[must_use]
pub fn top_crossing_pairs(state: &PartitionState<'_>, limit: usize) -> Vec<(usize, usize)> {
    let k = state.block_count();
    let graph = state.graph();
    let mut crossings = std::collections::HashMap::<(usize, usize), usize>::new();
    let mut blocks = Vec::new();
    for net in graph.net_ids() {
        let net: NetId = net;
        if state.net_span(net) < 2 {
            continue;
        }
        state.net_blocks_into(net, &mut blocks);
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                *crossings.entry((blocks[i], blocks[j])).or_default() += 1;
            }
        }
    }
    let mut pairs: Vec<((usize, usize), usize)> = crossings.into_iter().collect();
    pairs.sort_by_key(|&((a, b), c)| (std::cmp::Reverse(c), a, b));
    let mut used = vec![false; k];
    let mut out = Vec::new();
    for ((a, b), _) in pairs {
        if out.len() >= limit {
            break;
        }
        if !used[a] && !used[b] {
            used[a] = true;
            used[b] = true;
            out.push((a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_device::DeviceConstraints;
    use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};

    #[test]
    fn top_pairs_orders_by_crossings() {
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 3, 10), 3);
        let state = PartitionState::from_assignment(&g, planted, 3);
        let pairs = top_crossing_pairs(&state, 3);
        assert!(!pairs.is_empty());
        // Each block appears at most once.
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert(*a));
            assert!(seen.insert(*b));
        }
    }

    #[test]
    fn refine_improves_a_scrambled_partition() {
        let cfg = ClusteredConfig::new("cl", 3, 20);
        let (g, planted) = clustered_circuit(&cfg, 7);
        // Scramble: swap every 4th node's cluster.
        let mut assignment = planted.clone();
        for i in (0..assignment.len()).step_by(4) {
            assignment[i] = (assignment[i] + 1) % 3;
        }
        let mut state = PartitionState::from_assignment(&g, assignment, 3);
        let before = state.cut_count();
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 100), &config, 3, g.terminal_count());
        let improved = refine_pairs(&mut state, &evaluator, &config, &RefineConfig::default());
        state.assert_consistent();
        assert!(improved > 0);
        assert!(state.cut_count() < before);
    }

    #[test]
    fn boundary_refine_improves_a_scrambled_partition() {
        let cfg = ClusteredConfig::new("cl", 3, 20);
        let (g, planted) = clustered_circuit(&cfg, 7);
        let mut assignment = planted.clone();
        for i in (0..assignment.len()).step_by(4) {
            assignment[i] = (assignment[i] + 1) % 3;
        }
        let mut state = PartitionState::from_assignment(&g, assignment, 3);
        let before = state.cut_count();
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 100), &config, 3, g.terminal_count());
        let mut metrics = Metrics::enabled();
        let improved = refine_boundary_metered(
            &mut state,
            &evaluator,
            &config,
            &RefineConfig::default(),
            None,
            &mut metrics,
        );
        state.assert_consistent();
        assert!(improved.improved > 0);
        assert!(improved.calls >= improved.improved);
        assert!(improved.moves > 0);
        assert!(state.cut_count() < before);
        assert_eq!(metrics.get(Counter::BoundaryRefinements), improved.calls as u64);
        assert_eq!(metrics.improve_time(ImproveKind::Boundary).count, improved.calls as u64);
    }

    #[test]
    fn pair_job_panic_drops_only_its_own_moves() {
        // Eight clusters give four block-disjoint pairs in one round. At
        // three workers jobs 0–1 run on the caller's state and jobs 2–3
        // on a clone; at one worker every job runs on the caller's state.
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 8, 12), 9);
        let mut assignment = planted;
        for i in (0..assignment.len()).step_by(3) {
            assignment[i] = (assignment[i] + 1) % 8;
        }
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(17, 100), &config, 8, g.terminal_count());
        let run = |workers: usize, lost_job: Option<usize>| {
            // Pass 2, so the job has moved cells before it panics.
            let plan = lost_job
                .map(|job| crate::FaultPlan::panic_at(2, "injected fault").for_only_pair_job(job));
            let tracker = BudgetTracker::new(&crate::RunBudget::default(), plan);
            let mut state = PartitionState::from_assignment(&g, assignment.clone(), 8);
            let mut metrics = Metrics::enabled();
            let refine = RefineConfig { rounds: 1, workers, ..RefineConfig::default() };
            refine_boundary_metered(
                &mut state,
                &evaluator,
                &config,
                &refine,
                Some(&tracker),
                &mut metrics,
            );
            state.assert_consistent();
            (state.into_assignment(), metrics.get(Counter::PairPanics))
        };
        let start = PartitionState::from_assignment(&g, assignment.clone(), 8);
        let pairs = top_crossing_pairs(&start, RefineConfig::default().pairs_per_round);
        assert_eq!(pairs.len(), 4);
        let (clean, _) = run(1, None);
        for job in [0, 2] {
            // Every job starts from the round-start assignment, so the
            // lost job's cells stay put and the others commit as in the
            // clean round.
            let (a, b) = pairs[job];
            let expected: Vec<u32> = assignment
                .iter()
                .zip(&clean)
                .map(
                    |(&before, &after)| {
                        if [a, b].contains(&(before as usize)) {
                            before
                        } else {
                            after
                        }
                    },
                )
                .collect();
            assert_ne!(expected, clean, "job {job} must have moves to lose");
            for workers in [1, 3] {
                assert_eq!(
                    run(workers, Some(job)),
                    (expected.clone(), 1),
                    "job {job}, workers={workers}"
                );
            }
        }
    }

    #[test]
    fn boundary_cells_touch_crossing_nets_only() {
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 3, 10), 3);
        let state = PartitionState::from_assignment(&g, planted, 3);
        let mut cells = Vec::new();
        boundary_cells(&state, 0, 1, &mut cells);
        for &v in &cells {
            let c = state.block_of(v);
            assert!(c == 0 || c == 1);
            let other = usize::from(c == 0);
            assert!(g.nets(v).iter().any(|&e| state.net_pins_in(e, other) > 0));
        }
        // Completeness: every pair cell with a crossing net is listed.
        let listed: std::collections::HashSet<_> = cells.iter().copied().collect();
        for v in g.node_ids() {
            let c = state.block_of(v);
            if c != 0 && c != 1 {
                continue;
            }
            let other = usize::from(c == 0);
            if g.nets(v).iter().any(|&e| state.net_pins_in(e, other) > 0) {
                assert!(listed.contains(&v), "missing boundary cell {v:?}");
            }
        }
    }

    #[test]
    fn boundary_refine_with_expired_budget_is_a_noop() {
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 3, 12), 5);
        let mut assignment = planted;
        for i in (0..assignment.len()).step_by(3) {
            assignment[i] = (assignment[i] + 1) % 3;
        }
        let mut state = PartitionState::from_assignment(&g, assignment.clone(), 3);
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 100), &config, 3, g.terminal_count());
        let budget = crate::budget::RunBudget { max_passes: Some(0), ..Default::default() };
        let tracker = BudgetTracker::new(&budget, None);
        assert!(tracker.before_pass());
        let improved = refine_boundary_metered(
            &mut state,
            &evaluator,
            &config,
            &RefineConfig::default(),
            Some(&tracker),
            &mut Metrics::disabled(),
        );
        assert_eq!(improved, BoundaryRefineStats::default());
        assert_eq!(state.assignment(), &assignment[..], "stopped refinement moved cells");
    }

    #[test]
    fn single_block_is_a_noop() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 8), 1);
        let mut state = PartitionState::single_block(&g);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(100, 100), &config, 1, 0);
        assert_eq!(refine_pairs(&mut state, &evaluator, &config, &RefineConfig::default()), 0);
    }
}
