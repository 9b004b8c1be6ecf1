//! Direct (non-recursive) k-way partitioning.
//!
//! The paper's method peels one block per iteration; the natural
//! alternative — which Sanchis' algorithm was originally formulated
//! for — fixes `k`, seeds `k` blocks simultaneously, and improves them
//! together. This module implements that strategy as a comparison
//! point: for `k = M, M+1, …` it grows `k` BFS clusters from spread
//! seeds, refines with multi-way and pairwise improvement, and returns
//! the first feasible `k`.
//!
//! The paper's §3 argument predicts this should underperform the guided
//! recursive flow on I/O-tight instances (no remainder to absorb the
//! slack); the `direct` experiment binary quantifies that.

use fpart_device::{lower_bound, DeviceConstraints};
use fpart_hypergraph::{Hypergraph, NodeId};

use crate::budget::Completion;
use crate::config::FpartConfig;
use crate::cost::CostEvaluator;
use crate::driver::{PartitionError, PartitionOutcome};
use crate::engine::{improve, ImproveContext, NO_REMAINDER};
use crate::obs::{Metrics, Observer};
use crate::refine::{refine_pairs, RefineConfig};
use crate::run::{RunCtx, Work};
use crate::state::PartitionState;

/// Options of the direct k-way mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectConfig {
    /// How many `k` values to try beyond the lower bound before giving
    /// up (`k = M .. M + extra_attempts`).
    pub extra_attempts: usize,
    /// All-block improvement is only run while `k` is at most this (the
    /// direction-bucket count grows quadratically with `k`); larger `k`
    /// uses pairwise refinement only.
    pub all_block_limit: usize,
    /// Pairwise refinement schedule per attempt.
    pub refine: RefineConfig,
}

impl Default for DirectConfig {
    fn default() -> Self {
        DirectConfig {
            extra_attempts: 8,
            all_block_limit: 12,
            refine: RefineConfig { rounds: 6, pairs_per_round: 12, workers: 1 },
        }
    }
}

/// Partitions `graph` by direct k-way search: seed `k` blocks, improve,
/// accept the first feasible `k ≥ M`.
///
/// # Errors
///
/// Returns [`PartitionError::OversizedNode`] for unplaceable cells and
/// [`PartitionError::IterationLimit`] when no feasible `k` is found
/// within `M + extra_attempts`.
///
/// # Example
///
/// ```
/// use fpart_core::{partition_direct, DirectConfig, FpartConfig};
/// use fpart_device::DeviceConstraints;
/// use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};
///
/// # fn main() -> Result<(), fpart_core::PartitionError> {
/// let (circuit, _) = clustered_circuit(&ClusteredConfig::new("demo", 4, 20), 1);
/// let outcome = partition_direct(
///     &circuit,
///     DeviceConstraints::new(25, 100),
///     &FpartConfig::default(),
///     &DirectConfig::default(),
/// )?;
/// assert!(outcome.feasible);
/// assert_eq!(outcome.device_count, 4); // the planted clustering
/// # Ok(())
/// # }
/// ```
pub fn partition_direct(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    direct: &DirectConfig,
) -> Result<PartitionOutcome, PartitionError> {
    let started = std::time::Instant::now();
    let mut obs = Observer::none();
    if let Some(empty) = RunCtx::new(&mut obs, config, 0, 1).begin(graph, constraints, config)? {
        return Ok(empty);
    }
    let m = lower_bound(graph, constraints);
    let evaluator = CostEvaluator::new(constraints, config, m, graph.terminal_count());

    for attempt in 0..=direct.extra_attempts {
        let k = (m + attempt).max(1).min(graph.node_count());
        let assignment = seeded_clusters(graph, k, config.seed ^ attempt as u64);
        let mut state = PartitionState::from_assignment(graph, assignment, k);

        if k >= 2 && k <= direct.all_block_limit {
            let all: Vec<usize> = (0..k).collect();
            let ctx = ImproveContext {
                evaluator: &evaluator,
                config,
                remainder: NO_REMAINDER,
                minimum_reached: true,
                budget: None,
            };
            improve(&mut state, &all, &ctx);
        }
        refine_pairs(&mut state, &evaluator, config, &direct.refine);

        let feasible =
            (0..k).all(|b| constraints.fits(state.block_size(b), state.block_terminals(b)));
        if feasible {
            return Ok(crate::driver::assemble_outcome(
                &state,
                constraints,
                m,
                Work { iterations: attempt + 1, ..Work::default() },
                started.elapsed(),
                Metrics::disabled(),
                Completion::Complete,
            ));
        }
    }
    Err(PartitionError::IterationLimit { iterations: direct.extra_attempts + 1 })
}

/// Grows `k` BFS clusters from spread seeds: the first seed is the
/// highest-degree cell, each further seed maximizes BFS distance from
/// all previous seeds; growth is round-robin, smallest cluster first,
/// claiming the most-connected frontier cell (any free cell when the
/// frontier dries up).
fn seeded_clusters(graph: &Hypergraph, k: usize, seed_salt: u64) -> Vec<u32> {
    let n = graph.node_count();
    let mut assignment = vec![u32::MAX; n];

    // Spread seeds by repeated farthest-point BFS.
    let first = (seed_salt as usize) % n;
    let mut seeds = vec![NodeId::from_index(first)];
    while seeds.len() < k.min(n) {
        let distances = fpart_hypergraph::traverse::bfs(graph, &seeds);
        let next = distances
            .farthest()
            .map(|(v, _)| v)
            .filter(|v| !seeds.contains(v))
            .or_else(|| {
                graph.node_ids().find(|v| !seeds.contains(v) && distances.distance(*v).is_none())
            })
            .or_else(|| graph.node_ids().find(|v| !seeds.contains(v)));
        match next {
            Some(v) => seeds.push(v),
            None => break,
        }
    }
    for (b, &s) in seeds.iter().enumerate() {
        assignment[s.index()] = b as u32;
    }

    // Round-robin growth, smallest cluster first.
    let mut sizes = vec![0u64; k];
    for &s in &seeds {
        sizes[assignment[s.index()] as usize] = u64::from(graph.node_size(s));
    }
    let mut frontier: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for (b, &s) in seeds.iter().enumerate() {
        push_neighbors(graph, s, &assignment, &mut frontier[b]);
    }
    let mut remaining = n - seeds.len();
    while remaining > 0 {
        let b = (0..k).min_by_key(|&b| sizes[b]).expect("k >= 1");
        // Claim a free frontier cell, or any free cell.
        let pick = loop {
            match frontier[b].pop() {
                Some(v) if assignment[v.index()] == u32::MAX => break Some(v),
                Some(_) => {}
                None => {
                    break graph.node_ids().find(|v| assignment[v.index()] == u32::MAX);
                }
            }
        };
        let Some(v) = pick else { break };
        assignment[v.index()] = b as u32;
        sizes[b] += u64::from(graph.node_size(v));
        push_neighbors(graph, v, &assignment, &mut frontier[b]);
        remaining -= 1;
    }
    assignment
}

fn push_neighbors(graph: &Hypergraph, v: NodeId, assignment: &[u32], frontier: &mut Vec<NodeId>) {
    for &net in graph.nets(v) {
        for &u in graph.pins(net) {
            if assignment[u.index()] == u32::MAX {
                frontier.push(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_device::Device;
    use fpart_hypergraph::gen::{clustered_circuit, window_circuit, ClusteredConfig, WindowConfig};

    #[test]
    fn direct_mode_partitions_feasibly() {
        let g = window_circuit(&WindowConfig::new("w", 300, 24), 7);
        let constraints = Device::XC3020.constraints(0.9);
        let out =
            partition_direct(&g, constraints, &FpartConfig::default(), &DirectConfig::default())
                .expect("runs");
        assert!(out.feasible);
        assert!(out.device_count >= out.lower_bound);
        let total: u64 = out.blocks.iter().map(|b| b.size).sum();
        assert_eq!(total, g.total_size());
    }

    #[test]
    fn direct_mode_finds_planted_clusters() {
        let cfg = ClusteredConfig::new("cl", 4, 20);
        let (g, _) = clustered_circuit(&cfg, 11);
        let constraints = DeviceConstraints::new(25, 100);
        let out =
            partition_direct(&g, constraints, &FpartConfig::default(), &DirectConfig::default())
                .expect("runs");
        assert!(out.feasible);
        assert_eq!(out.device_count, 4);
    }

    #[test]
    fn seeded_clusters_cover_everything() {
        let g = window_circuit(&WindowConfig::new("w", 100, 8), 3);
        for k in [1usize, 2, 5, 9] {
            let a = seeded_clusters(&g, k, 1);
            assert!(a.iter().all(|&b| (b as usize) < k));
            // Every block is non-empty when k ≤ n.
            for b in 0..k as u32 {
                assert!(a.contains(&b), "block {b} empty for k={k}");
            }
        }
    }

    #[test]
    fn oversized_node_is_rejected() {
        let mut b = fpart_hypergraph::HypergraphBuilder::new();
        let x = b.add_node("x", 99);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let err = partition_direct(
            &g,
            DeviceConstraints::new(50, 10),
            &FpartConfig::default(),
            &DirectConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::OversizedNode { .. }));
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = fpart_hypergraph::HypergraphBuilder::new().finish().unwrap();
        let out = partition_direct(
            &g,
            DeviceConstraints::new(10, 10),
            &FpartConfig::default(),
            &DirectConfig::default(),
        )
        .expect("runs");
        assert_eq!(out.device_count, 0);
    }
}
