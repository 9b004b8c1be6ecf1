//! Cell move gains: first-level (cut delta) and second-level
//! (Krishnamurthy look-ahead) gains for multi-way moves.
//!
//! For a cell `v` in block `c` and a target block `d ≠ c`, a net `e ∋ v`
//! with `n` interior pins contributes to the first-level gain:
//!
//! * `+1` when all other pins of `e` are already in `d`
//!   (`pins_in(e, d) == n − 1`) — moving `v` uncuts the net;
//! * `−1` when `e` lies entirely in `c` (`pins_in(e, c) == n`) — moving
//!   `v` cuts it.
//!
//! This is the actual change in the number of multi-block nets, the
//! classical FM objective the paper keeps ("the net gain is already not
//! directly related with the optimization objective"); the FPGA-specific
//! objectives enter through solution selection instead (see
//! [`crate::cost`]).
//!
//! The second-level gain is the Krishnamurthy/Sanchis look-ahead used only
//! to break first-level ties: it counts nets that would become one
//! unlocked move away from leaving (entering) the cut.

use fpart_hypergraph::NodeId;

use crate::state::PartitionState;

/// First-level gain of moving `node` from its block to `to`.
///
/// # Panics
///
/// Panics (in debug builds) if `to` equals the node's current block.
#[must_use]
pub fn level1_gain(state: &PartitionState<'_>, node: NodeId, to: usize) -> i32 {
    let from = state.block_of(node);
    debug_assert_ne!(from, to, "gain is undefined for a no-op move");
    let graph = state.graph();
    let mut gain = 0i32;
    for &net in graph.nets(node) {
        let n = graph.pins(net).len() as u32;
        let (in_from, in_to) = state.net_pins_in_pair(net, from, to);
        if in_to == n - 1 {
            gain += 1;
        }
        if in_from == n {
            gain -= 1;
        }
    }
    gain
}

/// I/O-pin gain of moving `node` from its block to `to`: the reduction
/// in `T_from + T_to` (the only block terminal counts a single move can
/// change). This is the paper's §5 future-work objective.
///
/// The per-net transition logic mirrors
/// [`PartitionState::move_node`]'s exact bookkeeping, evaluated without
/// applying the move.
///
/// # Panics
///
/// Panics (in debug builds) if `to` equals the node's current block.
#[must_use]
pub fn io_gain(state: &PartitionState<'_>, node: NodeId, to: usize) -> i32 {
    let from = state.block_of(node);
    debug_assert_ne!(from, to, "gain is undefined for a no-op move");
    let graph = state.graph();
    let mut gain = 0i32;
    for &net in graph.nets(node) {
        let (da, db) = state.net_pins_in_pair(net, from, to);
        gain += io_gain_net(da, db, state.net_span(net), graph.net_has_terminal(net));
    }
    gain
}

/// One net's contribution to the I/O-pin gain of moving a cell out of a
/// block holding `da` of the net's pins (the cell included) into a block
/// holding `db`, with the net currently spanning `span` blocks.
///
/// This is the per-net term [`io_gain`] sums; exposing it lets the pass
/// engine apply exact *deltas* to stored neighbour gains — only nets the
/// moved cell touches can change a neighbour's gain, and only for
/// directions involving a block whose pin count (or the net's span)
/// changed.
#[inline]
#[must_use]
pub fn io_gain_net(da: u32, db: u32, span: u32, has_terminal: bool) -> i32 {
    debug_assert!(da >= 1, "the moving cell occupies its own block");
    let mut span1 = span;
    if da == 1 {
        span1 -= 1;
    }
    if db == 0 {
        span1 += 1;
    }
    let exposed0 = span >= 2 || has_terminal;
    let exposed1 = span1 >= 2 || has_terminal;

    let from_before = exposed0; // `from` always touches before
    let from_after = da > 1 && exposed1;
    let to_before = db > 0 && exposed0;
    let to_after = exposed1; // `to` always touches after

    -(i32::from(from_after) - i32::from(from_before) + i32::from(to_after) - i32::from(to_before))
}

/// Second-level gain of moving `node` from its block to `to`, given the
/// per-node lock flags of the current pass.
///
/// A net `e ∋ v` contributes:
///
/// * `+1` when exactly one pin other than `v` lies outside `to` and that
///   pin is unlocked — after moving `v`, one further move can absorb `e`
///   into `to`;
/// * `−1` when `e` is one pin short of lying entirely in `v`'s own block
///   and that outside pin is unlocked — moving `v` away destroys an
///   almost-internal net.
#[must_use]
pub fn level2_gain(state: &PartitionState<'_>, node: NodeId, to: usize, locked: &[bool]) -> i32 {
    let from = state.block_of(node);
    debug_assert_ne!(from, to, "gain is undefined for a no-op move");
    let graph = state.graph();
    let mut gain = 0i32;
    for &net in graph.nets(node) {
        let pins = graph.pins(net);
        let n = pins.len() as u32;
        let (in_from, in_to) = state.net_pins_in_pair(net, from, to);
        let outside_to = n - in_to;
        // +1: v plus exactly one other pin outside `to`, that pin unlocked.
        if outside_to == 2 {
            if let Some(w) = pins.iter().find(|&&w| w != node && state.block_of(w) != to) {
                if !locked[w.index()] {
                    gain += 1;
                }
            }
        }
        // −1: net is one outside pin away from being internal to `from`,
        // and that pin could still be pulled in.
        if in_from == n - 1 {
            if let Some(w) = pins.iter().find(|&&w| state.block_of(w) != from) {
                if !locked[w.index()] {
                    gain -= 1;
                }
            }
        }
    }
    gain
}

/// Generic Krishnamurthy level-`k` gain of moving `node` to `to`
/// (`k ≥ 2`; use [`level1_gain`] for the first level).
///
/// A net `e ∋ v` contributes:
///
/// * `+1` when exactly `k − 1` pins other than `v` lie outside `to` and
///   all of them are unlocked (after moving `v`, `k − 1` further moves
///   can absorb `e` into `to`);
/// * `−1` when exactly `k − 1` pins lie outside `v`'s own block and all
///   of them are unlocked (`e` is `k − 1` moves from internal, which
///   moving `v` away destroys).
///
/// Level 2 coincides with [`level2_gain`]; level 1 of this formula
/// coincides with [`level1_gain`] (the "all unlocked" condition is
/// vacuous for zero pins).
///
/// # Panics
///
/// Panics (in debug builds) if `to` equals the node's current block or
/// `level == 0`.
#[must_use]
pub fn level_gain(
    state: &PartitionState<'_>,
    node: NodeId,
    to: usize,
    locked: &[bool],
    level: u8,
) -> i32 {
    debug_assert!(level >= 1, "levels are 1-based");
    let from = state.block_of(node);
    debug_assert_ne!(from, to, "gain is undefined for a no-op move");
    let graph = state.graph();
    let want = usize::from(level) - 1;
    let mut gain = 0i32;
    for &net in graph.nets(node) {
        let pins = graph.pins(net);
        // Pins outside `to`, excluding v.
        let mut outside_to = 0usize;
        let mut outside_to_unlocked = true;
        // Pins outside `from` (v itself is inside `from`).
        let mut outside_from = 0usize;
        let mut outside_from_unlocked = true;
        for &u in pins {
            let b = state.block_of(u);
            if u != node && b != to {
                outside_to += 1;
                outside_to_unlocked &= !locked[u.index()];
            }
            if b != from {
                outside_from += 1;
                outside_from_unlocked &= !locked[u.index()];
            }
        }
        if outside_to == want && outside_to_unlocked {
            gain += 1;
        }
        if outside_from == want && outside_from_unlocked {
            gain -= 1;
        }
    }
    gain
}

/// One bucket-gain correction produced by [`deltas_for_move`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GainDelta {
    /// The cell whose stored gain changes.
    pub cell: NodeId,
    /// Source block of the affected direction.
    pub from: usize,
    /// Target block of the affected direction.
    pub to: usize,
    /// Amount to add to the stored first-level gain.
    pub delta: i32,
}

/// Computes the first-level gain corrections implied by moving `moved`
/// from block `a` to block `b`.
///
/// `pre_dist` must hold, for every net of `moved` in order, the pin counts
/// `(pins_in(net, a), pins_in(net, b))` captured **before** the move was
/// applied to the state; `state` must already reflect the move. `active`
/// limits the emitted directions (only blocks under improvement carry
/// buckets), and locked or inactive cells are skipped.
#[allow(clippy::too_many_arguments)] // hot path: the tuple of loop state is deliberate
pub fn deltas_for_move(
    state: &PartitionState<'_>,
    moved: NodeId,
    a: usize,
    b: usize,
    pre_dist: &[(u32, u32)],
    active: &[usize],
    locked: &[bool],
    mut emit: impl FnMut(GainDelta),
) {
    let graph = state.graph();
    for (i, &net) in graph.nets(moved).iter().enumerate() {
        let (da0, db0) = pre_dist[i];
        let da1 = da0 - 1;
        let db1 = db0 + 1;
        let n = graph.pins(net).len() as u32;

        // Precompute the four indicator changes for this net.
        let to_a_delta = i32::from(da1 == n - 1) - i32::from(da0 == n - 1);
        let to_b_delta = i32::from(db1 == n - 1) - i32::from(db0 == n - 1);
        let from_a_delta = i32::from(da0 == n) - i32::from(da1 == n);
        let from_b_delta = i32::from(db0 == n) - i32::from(db1 == n);

        if to_a_delta == 0 && to_b_delta == 0 && from_a_delta == 0 && from_b_delta == 0 {
            continue;
        }

        for &u in graph.pins(net) {
            if u == moved || locked[u.index()] {
                continue;
            }
            let c = state.block_of(u);
            if c != a && to_a_delta != 0 {
                emit(GainDelta { cell: u, from: c, to: a, delta: to_a_delta });
            }
            if c != b && to_b_delta != 0 {
                emit(GainDelta { cell: u, from: c, to: b, delta: to_b_delta });
            }
            if c == a && from_a_delta != 0 {
                for &d in active {
                    if d != a {
                        emit(GainDelta { cell: u, from: a, to: d, delta: from_a_delta });
                    }
                }
            }
            if c == b && from_b_delta != 0 {
                for &d in active {
                    if d != b {
                        emit(GainDelta { cell: u, from: b, to: d, delta: from_b_delta });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::{Hypergraph, HypergraphBuilder};

    /// nets: e0 = {0,1}, e1 = {1,2,3}, e2 = {0,3}
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        b.add_net("e0", [n[0], n[1]]).unwrap();
        b.add_net("e1", [n[1], n[2], n[3]]).unwrap();
        b.add_net("e2", [n[0], n[3]]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn level1_gain_counts_cut_delta() {
        let g = sample();
        // blocks: {0,1} and {2,3}; cut nets: e1, e2.
        let state = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        // moving node 0 to block 1: e0 becomes cut (−1), e2 uncut (+1) → 0
        assert_eq!(level1_gain(&state, NodeId::from_index(0), 1), 0);
        // moving node 1 to block 1: e0 cut (−1), e1 uncut (+1) → 0
        assert_eq!(level1_gain(&state, NodeId::from_index(1), 1), 0);
        // moving node 3 to block 0: e1 stays cut, e2 uncut (+1) → +1
        assert_eq!(level1_gain(&state, NodeId::from_index(3), 0), 1);
    }

    #[test]
    fn level1_gain_matches_actual_cut_change() {
        let g = sample();
        for assignment in [vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![1, 0, 0, 1]] {
            for node in 0..4u32 {
                let node = NodeId::from_index(node as usize);
                let mut state = PartitionState::from_assignment(&g, assignment.clone(), 2);
                let from = state.block_of(node);
                let to = 1 - from;
                let predicted = level1_gain(&state, node, to);
                let before = state.cut_count() as i32;
                state.move_node(node, to);
                let after = state.cut_count() as i32;
                assert_eq!(predicted, before - after, "node {node:?} {assignment:?}");
            }
        }
    }

    #[test]
    fn io_gain_matches_actual_terminal_change() {
        let g = sample();
        for assignment in [vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![1, 0, 0, 1]] {
            for node in 0..4u32 {
                let node = NodeId::from_index(node as usize);
                let mut state = PartitionState::from_assignment(&g, assignment.clone(), 2);
                let from = state.block_of(node);
                let to = 1 - from;
                let predicted = io_gain(&state, node, to);
                let before = (state.block_terminals(from) + state.block_terminals(to)) as i32;
                state.move_node(node, to);
                let after = (state.block_terminals(from) + state.block_terminals(to)) as i32;
                assert_eq!(predicted, before - after, "node {node:?} {assignment:?}");
            }
        }
    }

    #[test]
    fn io_gain_counts_terminal_nets() {
        // Terminal net {0,3} (e2): moving 3 to block 0 uncuts it but the
        // terminal keeps it exposed to block 0.
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        b.add_net("e0", [n[0], n[1]]).unwrap();
        b.add_net("e1", [n[1], n[2], n[3]]).unwrap();
        let e2 = b.add_net("e2", [n[0], n[3]]).unwrap();
        b.add_terminal("t", e2).unwrap();
        let g = b.finish().unwrap();
        let mut state = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let predicted = io_gain(&state, NodeId::from_index(3), 0);
        let before = (state.block_terminals(0) + state.block_terminals(1)) as i32;
        state.move_node(NodeId::from_index(3), 0);
        let after = (state.block_terminals(0) + state.block_terminals(1)) as i32;
        assert_eq!(predicted, before - after);
        state.assert_consistent();
    }

    #[test]
    fn level2_gain_rewards_near_absorption() {
        let g = sample();
        // blocks: {0} vs {1,2,3}. Move node 1 to block 0:
        //   e1 = {1,2,3}: outside block 0 (excluding 1) = {2,3} → 2 pins,
        //   not +1. e0 = {0,1} uncuts at level 1. After check: for net e1,
        //   pins_in(from=1) = 3 = n → not n−1.
        let state = PartitionState::from_assignment(&g, vec![0, 1, 1, 1], 2);
        let locked = vec![false; 4];
        // node 2 → block 0: e1 outside-0 excluding 2 = {1,3} two pins → no +1.
        // e1 pins_in(from=1) = 3 = n → no −1. gain2 = 0.
        assert_eq!(level2_gain(&state, NodeId::from_index(2), 0, &locked), 0);
        // node 3 → block 0: nets e1 (no contribution, as above) and
        // e2 = {0,3}: outside_to(0) = 1 → not 2 → no +1 (it is a direct
        // level-1 gain instead). pins_in(e2, from=1) = 1 = n−1 and the
        // outside pin (node 0) is unlocked → −1.
        assert_eq!(level2_gain(&state, NodeId::from_index(3), 0, &locked), -1);
    }

    #[test]
    fn generic_level_gain_matches_specialized_levels() {
        let g = sample();
        for assignment in [vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![1, 0, 1, 0]] {
            let state = PartitionState::from_assignment(&g, assignment.clone(), 2);
            for locked_idx in [None, Some(0usize), Some(3usize)] {
                let mut locked = vec![false; 4];
                if let Some(i) = locked_idx {
                    locked[i] = true;
                }
                for node in 0..4usize {
                    if locked_idx == Some(node) {
                        continue;
                    }
                    let node = NodeId::from_index(node);
                    let to = 1 - state.block_of(node);
                    assert_eq!(
                        level_gain(&state, node, to, &locked, 1),
                        level1_gain(&state, node, to),
                        "level 1, node {node:?}, {assignment:?}, locked {locked_idx:?}"
                    );
                    assert_eq!(
                        level_gain(&state, node, to, &locked, 2),
                        level2_gain(&state, node, to, &locked),
                        "level 2, node {node:?}, {assignment:?}, locked {locked_idx:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn third_level_gain_sees_three_away_nets() {
        // Net {0,1,2,3}: moving node 0 to block 1 where nodes 1,2,3 are
        // all in block 0 → three pins outside the target besides 0 is 3,
        // so the positive contribution appears exactly at level 4.
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        b.add_net("big", n.clone()).unwrap();
        let g = b.finish().unwrap();
        let state = PartitionState::from_assignment(&g, vec![0, 0, 0, 0], 2);
        let locked = vec![false; 4];
        let node = n[0];
        // level 4 positive (+1) and level 4 negative (pins outside block 0
        // = 0 ≠ 3) → +1; lower levels see only the negative at level 1.
        assert_eq!(level_gain(&state, node, 1, &locked, 4), 1);
        assert_eq!(level_gain(&state, node, 1, &locked, 3), 0);
        assert_eq!(level_gain(&state, node, 1, &locked, 1), -1);
    }

    #[test]
    fn level2_gain_respects_locks() {
        let g = sample();
        let state = PartitionState::from_assignment(&g, vec![0, 1, 1, 1], 2);
        let mut locked = vec![false; 4];
        locked[0] = true; // node 0 locked
                          // the −1 for node 3 → 0 disappears: the outside pin is locked.
        assert_eq!(level2_gain(&state, NodeId::from_index(3), 0, &locked), 0);
    }

    /// Delta updates must agree with recomputing level-1 gains from
    /// scratch for every remaining unlocked cell and direction.
    #[test]
    fn deltas_match_recomputation() {
        let g = sample();
        let mut state = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let active = [0usize, 1];
        let locked = vec![false; 4];
        let moved = NodeId::from_index(1);

        // gains before
        let mut gains = std::collections::HashMap::new();
        for v in g.node_ids() {
            let c = state.block_of(v);
            for &d in &active {
                if d != c {
                    gains.insert((v, c, d), level1_gain(&state, v, d));
                }
            }
        }

        let pre: Vec<(u32, u32)> = g
            .nets(moved)
            .iter()
            .map(|&e| (state.net_pins_in(e, 0), state.net_pins_in(e, 1)))
            .collect();
        state.move_node(moved, 1);

        let mut updated = gains.clone();
        deltas_for_move(&state, moved, 0, 1, &pre, &active, &locked, |d| {
            *updated.get_mut(&(d.cell, d.from, d.to)).unwrap() += d.delta;
        });

        for v in g.node_ids() {
            if v == moved {
                continue;
            }
            let c = state.block_of(v);
            for &d in &active {
                if d != c {
                    assert_eq!(
                        updated[&(v, c, d)],
                        level1_gain(&state, v, d),
                        "cell {v:?} direction {c}->{d}"
                    );
                }
            }
        }
    }
}
