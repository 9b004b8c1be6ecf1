//! Structural statistics of circuit hypergraphs.
//!
//! Used to report Table 1 of the paper (benchmark characteristics) and to
//! sanity-check the synthetic generators: a generated circuit should have
//! realistic net-degree distribution and a Rent exponent in the range of
//! real netlists (~0.5–0.75), otherwise min-cut behaviour is unrealistic.

use std::collections::VecDeque;

use crate::graph::Hypergraph;
use crate::ids::NodeId;

/// Summary statistics of a hypergraph.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Number of interior nodes.
    pub nodes: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of primary terminals.
    pub terminals: usize,
    /// Total size `S₀` in technology cells.
    pub total_size: u64,
    /// Total interior pin count.
    pub pins: usize,
    /// Mean interior pins per net.
    pub mean_net_degree: f64,
    /// Largest net (interior pins).
    pub max_net_degree: usize,
    /// Mean nets per node.
    pub mean_node_degree: f64,
    /// Largest node degree.
    pub max_node_degree: usize,
    /// Fraction of nets attached to at least one terminal.
    pub terminal_net_fraction: f64,
}

impl CircuitStats {
    /// Computes summary statistics for `graph`.
    #[must_use]
    pub fn of(graph: &Hypergraph) -> Self {
        let nets = graph.net_count();
        let nodes = graph.node_count();
        let pins = graph.pin_count();
        let terminal_nets = graph.net_ids().filter(|&e| graph.net_has_terminal(e)).count();
        CircuitStats {
            nodes,
            nets,
            terminals: graph.terminal_count(),
            total_size: graph.total_size(),
            pins,
            mean_net_degree: if nets == 0 { 0.0 } else { pins as f64 / nets as f64 },
            max_net_degree: graph.max_net_degree(),
            mean_node_degree: if nodes == 0 { 0.0 } else { pins as f64 / nodes as f64 },
            max_node_degree: graph.max_node_degree(),
            terminal_net_fraction: if nets == 0 { 0.0 } else { terminal_nets as f64 / nets as f64 },
        }
    }
}

/// Estimates the Rent exponent `p` of the circuit by growing BFS clusters
/// from evenly spread seeds and fitting `log T = log t + p·log g` by least
/// squares, where `g` is cluster size (in nodes) and `T` the number of nets
/// crossing the cluster boundary.
///
/// Returns `None` when the graph is too small (fewer than 32 nodes) to fit
/// a meaningful slope.
#[must_use]
pub fn rent_exponent(graph: &Hypergraph) -> Option<f64> {
    let n = graph.node_count();
    if n < 32 {
        return None;
    }
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let seed_stride = (n / 8).max(1);
    let targets: Vec<usize> =
        [8usize, 16, 32, 64, 128, 256, 512].iter().copied().filter(|&t| t <= n / 2).collect();
    if targets.len() < 2 {
        return None;
    }
    for seed_idx in (0..n).step_by(seed_stride) {
        for &target in &targets {
            let cluster = bfs_cluster(graph, NodeId::from_index(seed_idx), target);
            let boundary = boundary_nets(graph, &cluster);
            if boundary > 0 && cluster.len() >= 2 {
                samples.push(((cluster.len() as f64).ln(), (boundary as f64).ln()));
            }
        }
    }
    fit_slope(&samples)
}

/// Collects a BFS ball of approximately `target` nodes around `seed`.
fn bfs_cluster(graph: &Hypergraph, seed: NodeId, target: usize) -> Vec<NodeId> {
    let mut in_cluster = vec![false; graph.node_count()];
    let mut cluster = Vec::with_capacity(target);
    let mut queue = VecDeque::new();
    queue.push_back(seed);
    in_cluster[seed.index()] = true;
    while let Some(v) = queue.pop_front() {
        cluster.push(v);
        if cluster.len() >= target {
            break;
        }
        for &net in graph.nets(v) {
            for &u in graph.pins(net) {
                if !in_cluster[u.index()] {
                    in_cluster[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    cluster
}

/// Counts nets with at least one pin inside and one pin outside `cluster`,
/// or attached to a terminal (external by definition).
fn boundary_nets(graph: &Hypergraph, cluster: &[NodeId]) -> usize {
    let mut inside = vec![false; graph.node_count()];
    for &v in cluster {
        inside[v.index()] = true;
    }
    let mut count = 0usize;
    let mut seen = vec![false; graph.net_count()];
    for &v in cluster {
        for &net in graph.nets(v) {
            if seen[net.index()] {
                continue;
            }
            seen[net.index()] = true;
            let crosses =
                graph.pins(net).iter().any(|&u| !inside[u.index()]) || graph.net_has_terminal(net);
            if crosses {
                count += 1;
            }
        }
    }
    count
}

fn fit_slope(samples: &[(f64, f64)]) -> Option<f64> {
    if samples.len() < 4 {
        return None;
    }
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|s| s.0).sum();
    let sy: f64 = samples.iter().map(|s| s.1).sum();
    let sxx: f64 = samples.iter().map(|s| s.0 * s.0).sum();
    let sxy: f64 = samples.iter().map(|s| s.0 * s.1).sum();
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        for w in ids.windows(2) {
            b.add_net(format!("e{}", w[0]), [w[0], w[1]]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn stats_of_chain() {
        let g = chain(10);
        let s = CircuitStats::of(&g);
        assert_eq!(s.nodes, 10);
        assert_eq!(s.nets, 9);
        assert_eq!(s.pins, 18);
        assert!((s.mean_net_degree - 2.0).abs() < 1e-9);
        assert_eq!(s.max_net_degree, 2);
        assert_eq!(s.max_node_degree, 2);
        assert_eq!(s.terminal_net_fraction, 0.0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = HypergraphBuilder::new().finish().unwrap();
        let s = CircuitStats::of(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_net_degree, 0.0);
    }

    #[test]
    fn rent_exponent_of_chain_is_near_zero() {
        // A 1-D chain has constant boundary (≤2 nets) regardless of cluster
        // size, so the fitted exponent must be close to 0.
        let g = chain(256);
        let p = rent_exponent(&g).unwrap();
        assert!(p < 0.25, "chain rent exponent was {p}");
    }

    #[test]
    fn rent_exponent_small_graph_is_none() {
        let g = chain(8);
        assert_eq!(rent_exponent(&g), None);
    }

    #[test]
    fn fit_slope_recovers_line() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 3.0 + 0.5 * i as f64)).collect();
        let s = fit_slope(&pts).unwrap();
        assert!((s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fit_slope_degenerate_is_none() {
        let pts = vec![(1.0, 2.0); 10];
        assert_eq!(fit_slope(&pts), None);
    }
}
