//! Incremental partition state: block sizes, pin counts, and cut metrics
//! maintained under single-cell moves.
//!
//! # Pin accounting model
//!
//! A net is *exposed* to block `j` when it has a pin in `j` and either
//! spans more than one block or is attached to a primary terminal of the
//! circuit (an off-chip signal always consumes an IOB on every device it
//! enters). The block terminal count `T_j` is the number of nets exposed
//! to `j`; the external count `T_j^E` is the number of primary terminals
//! whose net touches `j` (used by the paper's external-I/O balancing
//! factor `d_k^E`).

use fpart_device::BlockUsage;
use fpart_hypergraph::{Hypergraph, NetId, NodeId};

/// Mutable k-way partition of a hypergraph with O(deg) single-cell moves.
///
/// All counters (`block_size`, `block_terminals`, `block_externals`, net
/// spans, cut count) are maintained incrementally by [`Self::move_node`];
/// [`Self::recount`] recomputes them from scratch and is used by tests and
/// debug assertions to verify the incremental bookkeeping.
#[derive(Debug, Clone)]
pub struct PartitionState<'a> {
    graph: &'a Hypergraph,
    assignment: Vec<u32>,
    block_sizes: Vec<u64>,
    block_terminals: Vec<usize>,
    block_externals: Vec<usize>,
    /// Net-major pin-distribution matrix: `dist[net * stride + block]`.
    dist: Vec<u32>,
    stride: usize,
    span: Vec<u32>,
    cut_nets: usize,
    /// Running `Σ T_i`, kept in lockstep with `block_terminals` so
    /// [`Self::terminal_sum`] is O(1) in the move loop.
    terminal_total: usize,
    k: usize,
}

impl<'a> PartitionState<'a> {
    /// Creates a single-block partition holding the whole circuit.
    #[must_use]
    pub fn single_block(graph: &'a Hypergraph) -> Self {
        Self::from_assignment(graph, vec![0; graph.node_count()], 1)
    }

    /// Creates a partition from an explicit per-node block assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != graph.node_count()`, `k == 0` while
    /// the graph is non-empty, or any entry is `≥ k`.
    #[must_use]
    pub fn from_assignment(graph: &'a Hypergraph, assignment: Vec<u32>, k: usize) -> Self {
        assert_eq!(assignment.len(), graph.node_count(), "assignment must cover every node");
        assert!(graph.node_count() == 0 || k > 0, "non-empty graph needs at least one block");
        assert!(assignment.iter().all(|&b| (b as usize) < k), "assignment references a block >= k");
        let stride = k.max(1).next_power_of_two();
        let mut state = PartitionState {
            graph,
            assignment,
            block_sizes: vec![0; k],
            block_terminals: vec![0; k],
            block_externals: vec![0; k],
            dist: vec![0; graph.net_count() * stride],
            stride,
            span: vec![0; graph.net_count()],
            cut_nets: 0,
            terminal_total: 0,
            k,
        };
        state.recount();
        state
    }

    /// Returns the underlying hypergraph.
    #[must_use]
    pub fn graph(&self) -> &'a Hypergraph {
        self.graph
    }

    /// Returns the number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.k
    }

    /// Returns the block a node currently belongs to.
    #[inline]
    #[must_use]
    pub fn block_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()] as usize
    }

    /// Returns the total size `S_i` of a block.
    #[inline]
    #[must_use]
    pub fn block_size(&self, block: usize) -> u64 {
        self.block_sizes[block]
    }

    /// Returns the terminal (IOB) count `T_i` of a block.
    #[inline]
    #[must_use]
    pub fn block_terminals(&self, block: usize) -> usize {
        self.block_terminals[block]
    }

    /// Returns the external primary-I/O count `T_i^E` of a block.
    #[inline]
    #[must_use]
    pub fn block_externals(&self, block: usize) -> usize {
        self.block_externals[block]
    }

    /// Returns a block's occupancy point `(S_i, T_i)`.
    #[must_use]
    pub fn block_usage(&self, block: usize) -> BlockUsage {
        BlockUsage::new(self.block_sizes[block], self.block_terminals[block])
    }

    /// Returns the number of nets spanning more than one block (the
    /// classical cut size that FM gains optimize).
    #[must_use]
    pub fn cut_count(&self) -> usize {
        self.cut_nets
    }

    /// Returns the total terminal count `T^SUM = Σ T_i` (O(1); maintained
    /// incrementally by [`Self::move_node`]).
    #[must_use]
    pub fn terminal_sum(&self) -> usize {
        self.terminal_total
    }

    /// Returns how many pins of `net` lie in `block`.
    #[inline]
    #[must_use]
    pub fn net_pins_in(&self, net: NetId, block: usize) -> u32 {
        self.dist[net.index() * self.stride + block]
    }

    /// Returns the number of blocks `net` touches.
    #[inline]
    #[must_use]
    pub fn net_span(&self, net: NetId) -> u32 {
        self.span[net.index()]
    }

    /// Returns the full per-node assignment as raw block indices.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Consumes the state and returns the assignment vector without
    /// copying, for flows (multilevel uncoarsening) that rebuild a
    /// fresh state per level from the same buffer.
    #[must_use]
    pub fn into_assignment(self) -> Vec<u32> {
        self.assignment
    }

    /// Collects the nodes of one block (O(n) scan).
    #[must_use]
    pub fn nodes_in_block(&self, block: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes_in_block_into(block, &mut out);
        out
    }

    /// Collects the nodes of one block into a caller-owned buffer
    /// (cleared first), so hot paths can reuse one allocation.
    pub fn nodes_in_block_into(&self, block: usize, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.graph.node_ids().filter(|&v| self.block_of(v) == block));
    }

    /// Appends a new empty block and returns its index.
    pub fn add_block(&mut self) -> usize {
        let b = self.k;
        self.k += 1;
        self.block_sizes.push(0);
        self.block_terminals.push(0);
        self.block_externals.push(0);
        if self.k > self.stride {
            let new_stride = self.stride * 2;
            let mut dist = vec![0u32; self.graph.net_count() * new_stride];
            for e in 0..self.graph.net_count() {
                let old = e * self.stride;
                let new = e * new_stride;
                dist[new..new + self.stride].copy_from_slice(&self.dist[old..old + self.stride]);
            }
            self.dist = dist;
            self.stride = new_stride;
        }
        b
    }

    /// Moves a node to another block, updating every counter in
    /// `O(degree(node))`.
    ///
    /// Moving a node to the block it already occupies is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `to >= block_count()`.
    pub fn move_node(&mut self, node: NodeId, to: usize) {
        assert!(to < self.k, "target block {to} out of range");
        let from = self.assignment[node.index()] as usize;
        if from == to {
            return;
        }
        self.assignment[node.index()] = to as u32;
        let size = u64::from(self.graph.node_size(node));
        self.block_sizes[from] -= size;
        self.block_sizes[to] += size;

        for &net in self.graph.nets(node) {
            let base = net.index() * self.stride;
            let da0 = self.dist[base + from];
            let db0 = self.dist[base + to];
            debug_assert!(da0 > 0, "node must be counted in its source block");
            self.dist[base + from] = da0 - 1;
            self.dist[base + to] = db0 + 1;

            let span0 = self.span[net.index()];
            let mut span1 = span0;
            if da0 == 1 {
                span1 -= 1;
            }
            if db0 == 0 {
                span1 += 1;
            }
            self.span[net.index()] = span1;

            if span0 >= 2 && span1 < 2 {
                self.cut_nets -= 1;
            } else if span0 < 2 && span1 >= 2 {
                self.cut_nets += 1;
            }

            let term_count = self.graph.net_terminal_count(net);
            let has_term = term_count > 0;
            let exposed0 = span0 >= 2 || has_term;
            let exposed1 = span1 >= 2 || has_term;

            // `from` always touched the net before the move.
            let from_counts_before = exposed0;
            let from_counts_after = da0 > 1 && exposed1;
            match (from_counts_before, from_counts_after) {
                (true, false) => {
                    self.block_terminals[from] -= 1;
                    self.terminal_total -= 1;
                }
                (false, true) => {
                    self.block_terminals[from] += 1;
                    self.terminal_total += 1;
                }
                _ => {}
            }
            // `to` always touches the net after the move.
            let to_counts_before = db0 > 0 && exposed0;
            let to_counts_after = exposed1;
            match (to_counts_before, to_counts_after) {
                (true, false) => {
                    self.block_terminals[to] -= 1;
                    self.terminal_total -= 1;
                }
                (false, true) => {
                    self.block_terminals[to] += 1;
                    self.terminal_total += 1;
                }
                _ => {}
            }

            if has_term {
                if da0 == 1 {
                    self.block_externals[from] -= term_count;
                }
                if db0 == 0 {
                    self.block_externals[to] += term_count;
                }
            }
        }
    }

    /// Applies a saved `(node, block)` assignment list (used to restore
    /// stacked solutions).
    pub fn apply(&mut self, moves: impl IntoIterator<Item = (NodeId, usize)>) {
        for (node, block) in moves {
            self.move_node(node, block);
        }
    }

    /// Recomputes every counter from the assignment in O(pins) after
    /// clearing the pin matrix; used at construction and by
    /// [`Self::assert_consistent`].
    pub fn recount(&mut self) {
        self.block_sizes.iter_mut().for_each(|s| *s = 0);
        self.block_terminals.iter_mut().for_each(|t| *t = 0);
        self.block_externals.iter_mut().for_each(|t| *t = 0);
        self.dist.iter_mut().for_each(|d| *d = 0);
        self.cut_nets = 0;

        for v in self.graph.node_ids() {
            self.block_sizes[self.assignment[v.index()] as usize] +=
                u64::from(self.graph.node_size(v));
        }
        // The blocks each net touches, noted as their pin count leaves 0.
        let mut touched: Vec<usize> = Vec::new();
        for e in self.graph.net_ids() {
            let base = e.index() * self.stride;
            touched.clear();
            for &p in self.graph.pins(e) {
                let b = self.assignment[p.index()] as usize;
                if self.dist[base + b] == 0 {
                    touched.push(b);
                }
                self.dist[base + b] += 1;
            }
            let span = touched.len() as u32;
            self.span[e.index()] = span;
            if span >= 2 {
                self.cut_nets += 1;
            }
            let term_count = self.graph.net_terminal_count(e);
            let exposed = span >= 2 || term_count > 0;
            for &b in &touched {
                if exposed {
                    self.block_terminals[b] += 1;
                }
                self.block_externals[b] += term_count;
            }
        }
        self.terminal_total = self.block_terminals.iter().sum();
    }

    /// Puts each `(node, block)` back by writing the assignment directly,
    /// then recounts: the recovery for a state whose move loop a panic
    /// may have stopped half way through a move, where reverse moves
    /// would read torn counters.
    pub(crate) fn reset_blocks(&mut self, blocks: &[(NodeId, usize)]) {
        for &(node, block) in blocks {
            self.assignment[node.index()] = block as u32;
        }
        self.recount();
    }

    /// Verifies the incremental counters against a fresh recount.
    ///
    /// # Panics
    ///
    /// Panics (with a description of the first mismatch) when any counter
    /// diverged — which would indicate a bookkeeping bug.
    pub fn assert_consistent(&self) {
        let mut fresh = self.clone();
        fresh.recount();
        assert_eq!(self.block_sizes, fresh.block_sizes, "block sizes diverged");
        assert_eq!(self.block_terminals, fresh.block_terminals, "terminal counts diverged");
        assert_eq!(self.block_externals, fresh.block_externals, "external counts diverged");
        assert_eq!(self.span, fresh.span, "net spans diverged");
        assert_eq!(self.cut_nets, fresh.cut_nets, "cut count diverged");
        assert_eq!(self.terminal_total, fresh.terminal_total, "terminal sum diverged");
        assert_eq!(self.dist, fresh.dist, "pin distribution diverged");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::HypergraphBuilder;

    /// 4 nodes, nets: {0,1}, {1,2,3}, {0,3}+terminal.
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"), (i + 1) as u32)).collect();
        b.add_net("e0", [n[0], n[1]]).unwrap();
        b.add_net("e1", [n[1], n[2], n[3]]).unwrap();
        let e2 = b.add_net("e2", [n[0], n[3]]).unwrap();
        b.add_terminal("t0", e2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn single_block_counts() {
        let g = sample();
        let s = PartitionState::single_block(&g);
        assert_eq!(s.block_count(), 1);
        assert_eq!(s.block_size(0), 1 + 2 + 3 + 4);
        assert_eq!(s.cut_count(), 0);
        // only the terminal net e2 is exposed
        assert_eq!(s.block_terminals(0), 1);
        assert_eq!(s.block_externals(0), 1);
    }

    #[test]
    fn bipartition_counts() {
        let g = sample();
        // nodes 0,1 in block 0; nodes 2,3 in block 1
        let s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        assert_eq!(s.block_size(0), 3);
        assert_eq!(s.block_size(1), 7);
        // e1 spans both (cut), e2 spans both (cut + terminal), e0 internal.
        assert_eq!(s.cut_count(), 2);
        assert_eq!(s.block_terminals(0), 2);
        assert_eq!(s.block_terminals(1), 2);
        assert_eq!(s.terminal_sum(), 4);
        // terminal net e2 touches both blocks
        assert_eq!(s.block_externals(0), 1);
        assert_eq!(s.block_externals(1), 1);
        assert_eq!(s.net_span(NetId::from_index(1)), 2);
        assert_eq!(s.net_pins_in(NetId::from_index(1), 1), 2);
    }

    #[test]
    fn move_updates_all_counters() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        s.move_node(NodeId::from_index(1), 1);
        s.assert_consistent();
        // now block 0 = {0}, block 1 = {1,2,3}
        assert_eq!(s.block_size(0), 1);
        assert_eq!(s.block_size(1), 9);
        // e0 cut, e1 internal to 1, e2 cut(+term)
        assert_eq!(s.cut_count(), 2);
        assert_eq!(s.block_terminals(0), 2);
        assert_eq!(s.block_terminals(1), 2);
    }

    #[test]
    fn move_back_restores_counters() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let before = (s.block_size(0), s.block_terminals(0), s.block_externals(1), s.cut_count());
        s.move_node(NodeId::from_index(2), 0);
        s.move_node(NodeId::from_index(2), 1);
        s.assert_consistent();
        let after = (s.block_size(0), s.block_terminals(0), s.block_externals(1), s.cut_count());
        assert_eq!(before, after);
    }

    #[test]
    fn noop_move_changes_nothing() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        s.move_node(NodeId::from_index(0), 0);
        s.assert_consistent();
        assert_eq!(s.block_size(0), 3);
    }

    #[test]
    fn add_block_and_grow() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 0, 0], 1);
        let b1 = s.add_block();
        let b2 = s.add_block(); // forces stride growth (1 → 2 → 4)
        assert_eq!((b1, b2), (1, 2));
        s.move_node(NodeId::from_index(3), b2);
        s.assert_consistent();
        assert_eq!(s.block_size(b2), 4);
        assert_eq!(s.block_count(), 3);
    }

    #[test]
    fn emptying_a_block_is_consistent() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        s.move_node(NodeId::from_index(2), 0);
        s.move_node(NodeId::from_index(3), 0);
        s.assert_consistent();
        assert_eq!(s.block_size(1), 0);
        assert_eq!(s.block_terminals(1), 0);
        assert_eq!(s.block_externals(1), 0);
        assert_eq!(s.cut_count(), 0);
    }

    #[test]
    fn terminal_net_exposure_without_cut() {
        // A terminal net fully inside one block still consumes an IOB.
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        let e = b.add_net("e", [x, y]).unwrap();
        b.add_terminal("t1", e).unwrap();
        b.add_terminal("t2", e).unwrap(); // a 2-terminal net
        let g = b.finish().unwrap();
        let s = PartitionState::single_block(&g);
        assert_eq!(s.block_terminals(0), 1); // one net → one IOB
        assert_eq!(s.block_externals(0), 2); // but two primary I/Os
        assert_eq!(s.cut_count(), 0);
    }

    #[test]
    fn apply_restores_assignment_list() {
        let g = sample();
        let mut s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let snapshot: Vec<(NodeId, usize)> = g.node_ids().map(|v| (v, s.block_of(v))).collect();
        s.move_node(NodeId::from_index(0), 1);
        s.move_node(NodeId::from_index(3), 0);
        s.apply(snapshot);
        s.assert_consistent();
        assert_eq!(s.assignment(), &[0, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn move_to_missing_block_panics() {
        let g = sample();
        let mut s = PartitionState::single_block(&g);
        s.move_node(NodeId::from_index(0), 3);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn wrong_assignment_length_panics() {
        let g = sample();
        let _ = PartitionState::from_assignment(&g, vec![0, 0], 1);
    }
}
