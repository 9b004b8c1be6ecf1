//! Breadth-first traversal utilities over the net-induced node adjacency.
//!
//! The constructive initial-partition heuristic of the paper (§3.2) needs a
//! node "at maximal distance from the first seed, found by breadth-first
//! search"; these helpers provide that, plus connected-component analysis
//! used to sanity-check generated circuits.

use std::collections::VecDeque;

use crate::graph::Hypergraph;
use crate::ids::NodeId;

/// Distance (in hops through nets) of every node from a set of sources.
///
/// `u32::MAX` marks unreachable nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsDistances {
    distances: Vec<u32>,
}

impl BfsDistances {
    /// Returns the hop distance of `node`, or `None` if unreachable.
    #[must_use]
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        let d = self.distances[node.index()];
        (d != u32::MAX).then_some(d)
    }

    /// Returns the reachable node at maximum distance, breaking ties toward
    /// the smallest id. Returns `None` when no node is reachable.
    #[must_use]
    pub fn farthest(&self) -> Option<(NodeId, u32)> {
        let mut best: Option<(NodeId, u32)> = None;
        for (i, &d) in self.distances.iter().enumerate() {
            if d == u32::MAX {
                continue;
            }
            match best {
                Some((_, bd)) if bd >= d => {}
                _ => best = Some((NodeId::from_index(i), d)),
            }
        }
        best
    }

    /// Returns the raw distance vector (`u32::MAX` = unreachable).
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.distances
    }
}

/// Runs a multi-source BFS from `sources` over the node adjacency induced
/// by nets (two nodes are adjacent when they share a net).
///
/// # Panics
///
/// Panics if any source id is out of range for `graph`.
#[must_use]
pub fn bfs(graph: &Hypergraph, sources: &[NodeId]) -> BfsDistances {
    let mut distances = vec![u32::MAX; graph.node_count()];
    let mut net_seen = vec![false; graph.net_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if distances[s.index()] == u32::MAX {
            distances[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = distances[v.index()];
        for &net in graph.nets(v) {
            if net_seen[net.index()] {
                continue;
            }
            net_seen[net.index()] = true;
            for &u in graph.pins(net) {
                if distances[u.index()] == u32::MAX {
                    distances[u.index()] = dv + 1;
                    queue.push_back(u);
                }
            }
        }
    }
    BfsDistances { distances }
}

/// Assigns each node a connected-component index and returns
/// `(component_of_node, component_count)`.
#[must_use]
pub fn connected_components(graph: &Hypergraph) -> (Vec<u32>, usize) {
    let mut component = vec![u32::MAX; graph.node_count()];
    let mut count = 0usize;
    for start in graph.node_ids() {
        if component[start.index()] != u32::MAX {
            continue;
        }
        let label = count as u32;
        count += 1;
        let mut stack = vec![start];
        component[start.index()] = label;
        while let Some(v) = stack.pop() {
            for &net in graph.nets(v) {
                for &u in graph.pins(net) {
                    if component[u.index()] == u32::MAX {
                        component[u.index()] = label;
                        stack.push(u);
                    }
                }
            }
        }
    }
    (component, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    /// A path a - b - c - d (three 2-pin nets) plus isolated node e.
    fn path_graph() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let ids: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        for w in ids.windows(2) {
            b.add_net(format!("e{}", w[0]), [w[0], w[1]]).unwrap();
        }
        let _e = b.add_node("iso", 1);
        b.finish().unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph();
        let d = bfs(&g, &[NodeId::from_index(0)]);
        assert_eq!(d.distance(NodeId::from_index(0)), Some(0));
        assert_eq!(d.distance(NodeId::from_index(3)), Some(3));
        assert_eq!(d.distance(NodeId::from_index(4)), None);
    }

    #[test]
    fn farthest_picks_path_end() {
        let g = path_graph();
        let d = bfs(&g, &[NodeId::from_index(0)]);
        assert_eq!(d.farthest(), Some((NodeId::from_index(3), 3)));
    }

    #[test]
    fn farthest_of_isolated_seed_is_seed() {
        let g = path_graph();
        let iso = NodeId::from_index(4);
        assert_eq!(bfs(&g, &[iso]).farthest(), Some((iso, 0)));
    }

    #[test]
    fn multi_source_bfs() {
        let g = path_graph();
        let d = bfs(&g, &[NodeId::from_index(0), NodeId::from_index(3)]);
        assert_eq!(d.distance(NodeId::from_index(1)), Some(1));
        assert_eq!(d.distance(NodeId::from_index(2)), Some(1));
    }

    #[test]
    fn components_counted() {
        let g = path_graph();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn hyperedge_counts_as_single_hop() {
        let mut b = HypergraphBuilder::new();
        let ids: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        b.add_net("big", ids.clone()).unwrap();
        let g = b.finish().unwrap();
        let d = bfs(&g, &[ids[0]]);
        for &n in &ids[1..] {
            assert_eq!(d.distance(n), Some(1));
        }
    }
}
