//! Constructive initial bipartition of the remainder (paper §3.2).
//!
//! Two constructive methods are run and the better of their results (under
//! the lexicographic solution key) is kept:
//!
//! 1. **Greedy dual-seed merge** (after Brasen/Hiol/Saucier): two seeds —
//!    the biggest cell and the cell at maximal BFS distance from it — grow
//!    two clusters simultaneously, each step absorbing the frontier
//!    candidate with the best size-per-terminal ratio
//!    `Cost = S_(i+j) / T_(i+j)`, until both clusters saturate `S_MAX`.
//!    The bigger cluster becomes the peeled block `P_k`; everything else
//!    stays in the remainder.
//! 2. **Ratio-cut sweep** (after Wei/Cheng): from each seed, cells are
//!    absorbed one at a time (most-connected-first) while tracking the
//!    ratio `R = C / (S(P_i)·S(P_j))`; the prefix with the smallest ratio
//!    among those where at least one side meets the device constraints is
//!    retained.
//!
//! The sweep keeps the cut and both sides' terminal counts exact at every
//! prefix, updating them per absorbed cell from per-net pin counts. The
//! two sweeps of one bipartition share the cell set's membership mask,
//! size, per-net pin counts and terminal count, computed once, and the
//! best prefix remembers which side fit when it was taken, so choosing
//! the peel recounts nothing.

use std::cmp::Reverse;

use fpart_hypergraph::NodeId;

use crate::engine::ImproveContext;
use crate::state::PartitionState;

/// Which constructive method produced the chosen initial bipartition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitialMethod {
    /// Greedy dual-seed merge won.
    GreedyMerge,
    /// Ratio-cut sweep (smallest-ratio prefix) won.
    RatioCut,
    /// The largest feasible sweep prefix won (fill-oriented companion of
    /// the ratio cut; decisive on large devices where the minimum ratio
    /// degenerates to tiny peels).
    MaxFill,
    /// All methods failed (degenerate remainder); the biggest cell was
    /// peeled alone.
    Fallback,
    /// Random peel (the `use_constructive_initial: false` ablation).
    Random,
}

/// Splits the cells of `remainder` between `remainder` and the (empty)
/// block `new_block`, constructively.
///
/// Returns the method whose result was kept. After the call `new_block`
/// is non-empty and, whenever the methods succeed, meets the device size
/// constraint.
///
/// # Panics
///
/// Panics if `new_block` is not empty or `remainder` has no cells.
pub fn bipartition_remainder(
    state: &mut PartitionState<'_>,
    remainder: usize,
    new_block: usize,
    ctx: &ImproveContext<'_>,
) -> InitialMethod {
    assert_eq!(state.block_size(new_block), 0, "target block must be empty");
    let cells = state.nodes_in_block(remainder);
    assert!(!cells.is_empty(), "remainder has no cells to split");

    if !ctx.config.use_constructive_initial {
        return random_peel(state, remainder, new_block, &cells, ctx);
    }

    let seed1 = biggest_cell(state, &cells);
    let seed2 = farthest_cell(state, &cells, seed1);

    let greedy = greedy_merge(state, &cells, seed1, seed2, ctx);
    let (ratio, max_fill) = ratio_cut_sweep(state, &cells, seed1, seed2, ctx);

    // Evaluate the candidate peels and keep the best one. The full
    // paper key is used even under cost ablations — see
    // [`crate::cost::CostEvaluator::with_full_cost`].
    let evaluator = ctx.evaluator.with_full_cost();
    let mut best: Option<(InitialMethod, crate::cost::SolutionKey, Vec<NodeId>)> = None;
    for (method, peel) in [
        (InitialMethod::GreedyMerge, greedy),
        (InitialMethod::RatioCut, ratio),
        (InitialMethod::MaxFill, max_fill),
    ] {
        let Some(peel) = peel else { continue };
        if peel.is_empty() || peel.len() == cells.len() {
            continue;
        }
        for &v in &peel {
            state.move_node(v, new_block);
        }
        let key = evaluator.key(state, Some(remainder));
        for &v in &peel {
            state.move_node(v, remainder);
        }
        match &best {
            Some((_, bk, _)) if !key.better_than(bk) => {}
            _ => best = Some((method, key, peel)),
        }
    }

    if let Some((method, _, peel)) = best {
        for &v in &peel {
            state.move_node(v, new_block);
        }
        method
    } else {
        // Degenerate: peel the biggest cell alone.
        state.move_node(seed1, new_block);
        InitialMethod::Fallback
    }
}

/// Random initial peel (the ablation the paper warns against): a
/// pseudo-random subset of the remainder's cells up to the device size,
/// with no attention to connectivity or pin counts.
fn random_peel(
    state: &mut PartitionState<'_>,
    remainder: usize,
    new_block: usize,
    cells: &[NodeId],
    ctx: &ImproveContext<'_>,
) -> InitialMethod {
    let mut order: Vec<NodeId> = cells.to_vec();
    let mut rng = fpart_hypergraph::rng::StdRng::seed_from_u64(
        ctx.config.seed ^ (state.block_count() as u64) << 17,
    );
    rng.shuffle(&mut order);
    let s_max = ctx.evaluator.constraints().s_max;
    let graph = state.graph();
    let mut size = 0u64;
    let mut moved_any = false;
    for v in order {
        let s = u64::from(graph.node_size(v));
        if size + s > s_max {
            continue;
        }
        size += s;
        state.move_node(v, new_block);
        moved_any = true;
        if size == s_max {
            break;
        }
    }
    if !moved_any {
        // Every single cell is over the cap: fall back to the biggest.
        let v = biggest_cell(state, cells);
        state.move_node(v, new_block);
    }
    let _ = remainder;
    InitialMethod::Random
}

/// The biggest cell (ties: higher degree, then lower id) — first seed.
fn biggest_cell(state: &PartitionState<'_>, cells: &[NodeId]) -> NodeId {
    let graph = state.graph();
    *cells
        .iter()
        .max_by(|&&a, &&b| {
            graph
                .node_size(a)
                .cmp(&graph.node_size(b))
                .then_with(|| graph.nets(a).len().cmp(&graph.nets(b).len()))
                .then_with(|| b.index().cmp(&a.index()))
        })
        .expect("cells is non-empty")
}

/// The cell at maximal BFS distance from `seed` *within the remainder's
/// cells*; falls back to any other cell when `seed` is isolated, or to
/// `seed` itself when it is the only cell.
fn farthest_cell(state: &PartitionState<'_>, cells: &[NodeId], seed: NodeId) -> NodeId {
    let graph = state.graph();
    let in_set = membership(state, cells, seed);
    let mut dist: Vec<i64> = vec![-1; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[seed.index()] = 0;
    queue.push_back(seed);
    let mut best = (seed, 0i64);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        if dv > best.1 {
            best = (v, dv);
        }
        for &net in graph.nets(v) {
            for &u in graph.pins(net) {
                if in_set[u.index()] && dist[u.index()] < 0 {
                    dist[u.index()] = dv + 1;
                    queue.push_back(u);
                }
            }
        }
    }
    if best.0 != seed {
        return best.0;
    }
    // Isolated seed: any other cell of the set.
    cells.iter().copied().find(|&c| c != seed).unwrap_or(seed)
}

/// Builds a node-indexed membership mask of `cells`; `seed` must belong.
fn membership(state: &PartitionState<'_>, cells: &[NodeId], seed: NodeId) -> Vec<bool> {
    let mut mask = vec![false; state.graph().node_count()];
    for &c in cells {
        mask[c.index()] = true;
    }
    debug_assert!(mask[seed.index()], "seed outside the cell set");
    mask
}

/// One growing cluster of the greedy merge.
struct Cluster {
    members: Vec<bool>,
    /// Members in absorption order (for feasibility checkpointing).
    order: Vec<NodeId>,
    size: u64,
    terminals: u64,
    /// Longest feasible prefix of `order` (both constraints satisfied)
    /// and its total size.
    feasible_len: usize,
    feasible_size: u64,
    /// `cov[net]` = pins of the net inside this cluster.
    cov: Vec<u32>,
    /// Frontier candidates (may contain stale/duplicate entries).
    frontier: Vec<NodeId>,
    saturated: bool,
}

impl Cluster {
    fn new(state: &PartitionState<'_>) -> Self {
        let graph = state.graph();
        Cluster {
            members: vec![false; graph.node_count()],
            order: Vec::new(),
            size: 0,
            terminals: 0,
            feasible_len: 0,
            feasible_size: 0,
            cov: vec![0; graph.net_count()],
            frontier: Vec::new(),
            saturated: false,
        }
    }

    /// Records the feasibility checkpoint after an absorption. `T` is not
    /// monotone in cluster growth, so the *longest* prefix satisfying
    /// both constraints is remembered and used as the peel — this is what
    /// lets the merge produce large blocks near (but not over) the pin
    /// budget.
    fn checkpoint(&mut self, constraints: fpart_device::DeviceConstraints) {
        if constraints.fits(self.size, self.terminals as usize) {
            self.feasible_len = self.order.len();
            self.feasible_size = self.size;
        }
    }

    /// Terminal-count change if `node` were absorbed.
    fn terminal_delta(&self, state: &PartitionState<'_>, node: NodeId) -> i64 {
        let graph = state.graph();
        let mut delta = 0i64;
        for &net in graph.nets(node) {
            let n = graph.pins(net).len() as u32;
            let c = self.cov[net.index()];
            let term = graph.net_has_terminal(net);
            let before = c >= 1 && (n - c > 0 || term);
            let after = n - c - 1 > 0 || term;
            delta += i64::from(after) - i64::from(before);
        }
        delta
    }

    fn absorb(&mut self, state: &PartitionState<'_>, node: NodeId, unassigned: &[bool]) {
        let graph = state.graph();
        debug_assert!(!self.members[node.index()]);
        self.terminals = (self.terminals as i64 + self.terminal_delta(state, node)) as u64;
        self.members[node.index()] = true;
        self.order.push(node);
        self.size += u64::from(graph.node_size(node));
        for &net in graph.nets(node) {
            self.cov[net.index()] += 1;
            for &u in graph.pins(net) {
                if unassigned[u.index()] && !self.members[u.index()] {
                    self.frontier.push(u);
                }
            }
        }
    }

    /// Picks the frontier candidate maximizing `(S + s_j) / T_(i+j)`
    /// subject to the size cap. Cleans stale frontier entries as it goes.
    fn best_candidate(
        &mut self,
        state: &PartitionState<'_>,
        unassigned: &[bool],
        s_max: u64,
    ) -> Option<NodeId> {
        let graph = state.graph();
        let mut best: Option<(NodeId, f64)> = None;
        self.frontier.retain(|&u| unassigned[u.index()]);
        self.frontier.sort_unstable();
        self.frontier.dedup();
        for &u in &self.frontier {
            let s = self.size + u64::from(graph.node_size(u));
            if s > s_max {
                continue;
            }
            let t = (self.terminals as i64 + self.terminal_delta(state, u)).max(0) as f64;
            let cost = s as f64 / t.max(1.0);
            match best {
                Some((_, bc)) if bc >= cost => {}
                _ => best = Some((u, cost)),
            }
        }
        best.map(|(u, _)| u)
    }
}

/// Greedy dual-seed merge; returns the cells to peel into the new block.
fn greedy_merge(
    state: &PartitionState<'_>,
    cells: &[NodeId],
    seed1: NodeId,
    seed2: NodeId,
    ctx: &ImproveContext<'_>,
) -> Option<Vec<NodeId>> {
    if seed1 == seed2 || cells.len() < 2 {
        return None;
    }
    let s_max = ctx.evaluator.constraints().s_max;
    let graph = state.graph();
    let mut unassigned = membership(state, cells, seed1);
    let mut a = Cluster::new(state);
    let mut b = Cluster::new(state);
    unassigned[seed1.index()] = false;
    a.absorb(state, seed1, &unassigned);
    unassigned[seed2.index()] = false;
    b.absorb(state, seed2, &unassigned);

    let mut remaining = cells.len() - 2;
    while remaining > 0 && !(a.saturated && b.saturated) {
        for cluster in [&mut a, &mut b] {
            if cluster.saturated || remaining == 0 {
                continue;
            }
            let pick = cluster.best_candidate(state, &unassigned, s_max).or_else(|| {
                // Disconnected frontier: restart growth from the biggest
                // unassigned cell that still fits.
                cells
                    .iter()
                    .copied()
                    .filter(|&u| {
                        unassigned[u.index()]
                            && cluster.size + u64::from(graph.node_size(u)) <= s_max
                    })
                    .max_by_key(|&u| (graph.node_size(u), Reverse(u.index())))
            });
            match pick {
                Some(u) => {
                    unassigned[u.index()] = false;
                    cluster.absorb(state, u, &unassigned);
                    cluster.checkpoint(ctx.evaluator.constraints());
                    remaining -= 1;
                }
                None => cluster.saturated = true,
            }
        }
    }

    // The bigger cluster — truncated to its longest feasible prefix when
    // one exists — is peeled off as P_k.
    let winner = if (a.feasible_size, a.size) >= (b.feasible_size, b.size) { a } else { b };
    let peel: Vec<NodeId> = if winner.feasible_len > 0 {
        winner.order[..winner.feasible_len].to_vec()
    } else {
        winner.order.clone()
    };
    Some(peel)
}

/// Ratio-cut sweep from both seeds; returns the min-ratio peel and the
/// max-fill peel.
fn ratio_cut_sweep(
    state: &PartitionState<'_>,
    cells: &[NodeId],
    seed1: NodeId,
    seed2: NodeId,
    ctx: &ImproveContext<'_>,
) -> (Option<Vec<NodeId>>, Option<Vec<NodeId>>) {
    if cells.len() < 2 {
        return (None, None);
    }
    let set = SweepSet::new(state, cells);
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    let mut best_fill: Option<(u64, Vec<NodeId>)> = None;
    let mut seeds = vec![seed1];
    if seed2 != seed1 {
        seeds.push(seed2);
    }
    for seed in seeds {
        let outcome = sweep_from(state, &set, seed, ctx, |_, _| {});
        if let Some((ratio, peel)) = outcome.min_ratio {
            match &best {
                Some((br, _)) if *br <= ratio => {}
                _ => best = Some((ratio, peel)),
            }
        }
        if let Some((size, peel)) = outcome.max_fill {
            match &best_fill {
                Some((bs, _)) if *bs >= size => {}
                _ => best_fill = Some((size, peel)),
            }
        }
    }
    (best.map(|(_, p)| p), best_fill.map(|(_, p)| p))
}

/// What both sweeps of one bipartition read of the cell set, computed
/// once per bipartition.
struct SweepSet<'a> {
    cells: &'a [NodeId],
    /// Node-indexed membership mask of `cells`.
    in_set: Vec<bool>,
    /// Total size of `cells`.
    total_size: u64,
    /// `pins_in_set[net]` = pins of the net among `cells`.
    pins_in_set: Vec<u32>,
    /// Terminal count of the whole set: `T_rest` of the empty prefix.
    terminals: i64,
}

impl<'a> SweepSet<'a> {
    fn new(state: &PartitionState<'_>, cells: &'a [NodeId]) -> Self {
        let graph = state.graph();
        let mut in_set = vec![false; graph.node_count()];
        let mut pins_in_set = vec![0u32; graph.net_count()];
        let mut total_size = 0u64;
        // Each net touching the set, once.
        let mut nets = Vec::new();
        for &c in cells {
            in_set[c.index()] = true;
            total_size += u64::from(graph.node_size(c));
            for &net in graph.nets(c) {
                if pins_in_set[net.index()] == 0 {
                    nets.push(net);
                }
                pins_in_set[net.index()] += 1;
            }
        }
        // A net is a terminal of the set when it also has a pin outside
        // the set or a pad.
        let terminals = nets
            .iter()
            .filter(|&&net| {
                (pins_in_set[net.index()] as usize) < graph.pins(net).len()
                    || graph.net_has_terminal(net)
            })
            .count() as i64;
        SweepSet { cells, in_set, total_size, pins_in_set, terminals }
    }
}

/// The counts a sweep tracks for its current prefix `A` of the cell set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixCounts {
    /// Nets with pins both in `A` and in the rest of the set.
    cut: i64,
    /// Terminals of `A`: nets touching `A` with a pin elsewhere or a pad.
    t_a: i64,
    /// Terminals of the rest of the set, likewise.
    t_rest: i64,
}

/// One sweep: grows `A` from `seed`, returning the best-ratio feasible
/// prefix (as the side that meets the constraints) and the largest
/// feasible `A` prefix. `on_prefix` sees every prefix (the absorbed
/// cells in order) with its tracked counts.
fn sweep_from(
    state: &PartitionState<'_>,
    set: &SweepSet<'_>,
    seed: NodeId,
    ctx: &ImproveContext<'_>,
    mut on_prefix: impl FnMut(&[NodeId], PrefixCounts),
) -> SweepOutcome {
    let graph = state.graph();
    let constraints = ctx.evaluator.constraints();
    let cells = set.cells;
    debug_assert!(set.in_set[seed.index()], "seed outside the cell set");

    // cov_a[net] = pins in A.
    let mut cov_a = vec![0u32; graph.net_count()];
    let mut in_a = vec![false; graph.node_count()];
    let mut heap = SweepHeap::new(graph.node_count());
    let mut order: Vec<NodeId> = Vec::with_capacity(cells.len());

    let mut s_a = 0u64;
    let mut cut = 0i64; // nets with pins both in A and in (cells − A)
    let mut t_a = 0i64;
    let mut t_rest: i64 = set.terminals;

    let absorb = |v: NodeId,
                  in_a: &mut Vec<bool>,
                  cov_a: &mut Vec<u32>,
                  heap: &mut SweepHeap,
                  s_a: &mut u64,
                  cut: &mut i64,
                  t_a: &mut i64,
                  t_rest: &mut i64| {
        in_a[v.index()] = true;
        *s_a += u64::from(graph.node_size(v));
        for &net in graph.nets(v) {
            let e = net.index();
            let n = graph.pins(net).len() as u32;
            let set_pins = set.pins_in_set[e];
            let c0 = cov_a[e];
            let c1 = c0 + 1;
            cov_a[e] = c1;
            let term = graph.net_has_terminal(net);
            let outside_global = |c: u32| n - c > 0 || term;

            // Cut between A and rest-of-set.
            let cut_before = c0 >= 1 && set_pins - c0 >= 1;
            let cut_after = set_pins - c1 >= 1; // c1 ≥ 1 always
            *cut += i64::from(cut_after) - i64::from(cut_before);

            // T_A: net touches A and has pins elsewhere (or a terminal).
            let ta_before = c0 >= 1 && outside_global(c0);
            let ta_after = outside_global(c1);
            *t_a += i64::from(ta_after) - i64::from(ta_before);

            // T_rest: net touches rest-of-set and is exposed beyond it.
            let rest0 = set_pins - c0;
            let rest1 = set_pins - c1;
            let exposed_beyond = |r: u32| n - r > 0 || term;
            let tr_before = rest0 >= 1 && exposed_beyond(rest0);
            let tr_after = rest1 >= 1 && exposed_beyond(rest1);
            *t_rest += i64::from(tr_after) - i64::from(tr_before);

            // Every in-set pin of the net is in A: none left to connect.
            if rest1 == 0 {
                continue;
            }
            for &u in graph.pins(net) {
                if set.in_set[u.index()] && !in_a[u.index()] {
                    heap.connect(u.index());
                }
            }
        }
        heap.flush(|u| graph.node_size(NodeId::from_index(u)));
    };

    absorb(seed, &mut in_a, &mut cov_a, &mut heap, &mut s_a, &mut cut, &mut t_a, &mut t_rest);
    order.push(seed);
    on_prefix(&order, PrefixCounts { cut, t_a, t_rest });

    // (ratio, prefix length, whether A rather than the rest fit).
    let mut best: Option<(f64, usize, bool)> = None;
    let mut best_fill: Option<(u64, usize)> = None;
    let mut assigned = 1usize;
    while assigned < cells.len() {
        // Pop the most-connected unabsorbed cell.
        let next = heap.pop().map(NodeId::from_index);
        // Disconnected: take any unabsorbed cell.
        let next = next.or_else(|| cells.iter().copied().find(|&u| !in_a[u.index()]));
        let Some(v) = next else { break };
        absorb(v, &mut in_a, &mut cov_a, &mut heap, &mut s_a, &mut cut, &mut t_a, &mut t_rest);
        order.push(v);
        on_prefix(&order, PrefixCounts { cut, t_a, t_rest });
        assigned += 1;

        let s_rest = set.total_size - s_a;
        if s_rest == 0 {
            break;
        }
        let a_fits = constraints.fits(s_a, t_a.max(0) as usize);
        let rest_fits = constraints.fits(s_rest, t_rest.max(0) as usize);
        if a_fits {
            // Max-fill candidate: the largest feasible A prefix.
            match best_fill {
                Some((bs, _)) if bs >= s_a => {}
                _ => best_fill = Some((s_a, order.len())),
            }
        }
        if !(a_fits || rest_fits) {
            continue;
        }
        let ratio = cut.max(0) as f64 / (s_a as f64 * s_rest as f64);
        match best {
            Some((br, _, _)) if br <= ratio => {}
            _ => best = Some((ratio, order.len(), a_fits)),
        }
    }

    let fill_peel = best_fill.map(|(size, prefix)| (size, order[..prefix].to_vec()));
    // The peel is the side that fit at the best prefix.
    let min_ratio = best.map(|(ratio, prefix, a_fits)| {
        if a_fits {
            return (ratio, order[..prefix].to_vec());
        }
        for &v in &order[prefix..] {
            in_a[v.index()] = false;
        }
        (ratio, cells.iter().copied().filter(|c| !in_a[c.index()]).collect())
    });
    SweepOutcome { min_ratio, max_fill: fill_peel }
}

/// Indexed max-heap of the sweep's frontier: every unabsorbed cell with
/// a pin on a net of `A`, keyed by `(conn, size, Reverse(index))` where
/// `conn` counts the cell's connections to `A`. Each cell has one entry,
/// whose key is raised in place as `A` grows; keys are distinct, so the
/// pop order is fully determined by them. That lets [`Self::flush`] raise
/// a key once per neighbour of an absorbed cell, by the number of nets
/// they share, rather than once per shared net.
struct SweepHeap {
    /// Heap-ordered keys, packed by [`Self::key`].
    entries: Vec<u128>,
    /// `pos[v]` = index of `v`'s entry, or `u32::MAX` when it has none.
    pos: Vec<u32>,
    /// Connections of each cell counted since the last flush.
    pending: Vec<u32>,
    /// The cells with a nonzero `pending` count.
    touched: Vec<u32>,
}

impl SweepHeap {
    fn new(n: usize) -> Self {
        SweepHeap {
            entries: Vec::new(),
            pos: vec![u32::MAX; n],
            pending: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// `(conn, size, Reverse(v))` packed into one integer of the same
    /// order (cell indices fit in 32 bits, as [`NodeId`]s do).
    fn key(conn: u32, size: u32, v: usize) -> u128 {
        u128::from(conn) << 64 | u128::from(size) << 32 | u128::from(!(v as u32))
    }

    /// The cell of a packed key.
    fn cell(key: u128) -> usize {
        !(key as u32) as usize
    }

    /// Counts one more connection of cell `v` to `A`; its key rises at
    /// the next [`Self::flush`].
    fn connect(&mut self, v: usize) {
        if self.pending[v] == 0 {
            self.touched.push(v as u32);
        }
        self.pending[v] += 1;
    }

    /// Raises the key of every cell connected since the last flush by
    /// its count, entering a cell (of size `size(v)`) on its first.
    fn flush(&mut self, size: impl Fn(usize) -> u32) {
        let mut touched = std::mem::take(&mut self.touched);
        for &v in &touched {
            let v = v as usize;
            let by = std::mem::take(&mut self.pending[v]);
            self.raise(v, size(v), by);
        }
        touched.clear();
        self.touched = touched;
    }

    /// Adds `by` connections to cell `v` (of the given size), entering it
    /// into the heap if it has no entry.
    fn raise(&mut self, v: usize, size: u32, by: u32) {
        let i = match self.pos[v] {
            u32::MAX => {
                self.entries.push(Self::key(0, size, v));
                self.entries.len() - 1
            }
            i => i as usize,
        };
        self.entries[i] += u128::from(by) << 64;
        self.sift_up(i);
    }

    /// Removes and returns the cell with the largest key.
    fn pop(&mut self) -> Option<usize> {
        let top = Self::cell(*self.entries.first()?);
        self.pos[top] = u32::MAX;
        let last = self.entries.pop().expect("non-empty heap");
        if !self.entries.is_empty() {
            self.entries[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[parent] > self.entries[i] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        self.pos[Self::cell(self.entries[i])] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.entries.len() && self.entries[child] > self.entries[largest] {
                    largest = child;
                }
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
        self.pos[Self::cell(self.entries[i])] = i as u32;
    }

    /// Swaps entries `i` and `j`, recording the new position of the one
    /// now at `i`; the moving entry's position is recorded once it
    /// settles.
    fn swap(&mut self, i: usize, j: usize) {
        self.entries.swap(i, j);
        self.pos[Self::cell(self.entries[i])] = i as u32;
    }
}

/// Candidates one directional sweep yields: the paper's smallest-ratio
/// prefix, and the largest feasible prefix (our fill-oriented companion,
/// needed on big devices where the minimum ratio degenerates to tiny
/// peels).
struct SweepOutcome {
    min_ratio: Option<(f64, Vec<NodeId>)>,
    max_fill: Option<(u64, Vec<NodeId>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FpartConfig;
    use crate::cost::CostEvaluator;
    use fpart_device::DeviceConstraints;
    use fpart_hypergraph::gen::{clustered_circuit, window_circuit, ClusteredConfig, WindowConfig};
    use fpart_hypergraph::HypergraphBuilder;
    use proptest::prelude::*;

    /// The cut and both sides' terminal counts of the split of `cells`
    /// into `a_cells` and the rest, in global context, recounted from
    /// scratch: the independent oracle of what a sweep tracks.
    fn prefix_terminals(
        state: &PartitionState<'_>,
        cells: &[NodeId],
        a_cells: &[NodeId],
    ) -> PrefixCounts {
        let graph = state.graph();
        let mut in_a = vec![false; graph.node_count()];
        for &c in a_cells {
            in_a[c.index()] = true;
        }
        let mut in_set = vec![false; graph.node_count()];
        for &c in cells {
            in_set[c.index()] = true;
        }
        let mut counts = PrefixCounts { cut: 0, t_a: 0, t_rest: 0 };
        let mut seen = vec![false; graph.net_count()];
        for &c in cells {
            for &net in graph.nets(c) {
                if seen[net.index()] {
                    continue;
                }
                seen[net.index()] = true;
                let pins = graph.pins(net);
                let term = graph.net_has_terminal(net);
                let touches_a = pins.iter().any(|p| in_a[p.index()]);
                let touches_rest = pins.iter().any(|p| in_set[p.index()] && !in_a[p.index()]);
                let touches_outside = pins.iter().any(|p| !in_set[p.index()]);
                counts.cut += i64::from(touches_a && touches_rest);
                counts.t_a += i64::from(touches_a && (touches_rest || touches_outside || term));
                counts.t_rest += i64::from(touches_rest && (touches_a || touches_outside || term));
            }
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// At every prefix of both sweeps of a bipartition, the tracked
        /// cut, `T_A` and `T_rest` equal the recount, and each peel the
        /// sweeps return fits the device under the recount. The remainder
        /// is a random subset of a random circuit whose other cells sit
        /// in two more blocks, so nets leave the set as well as cross it.
        #[test]
        fn sweep_counts_match_a_recount_at_every_prefix(
            nodes in 4usize..40,
            terminals in 0usize..8,
            seed in any::<u64>(),
            outside in any::<u64>(),
            s_max in 1u64..40,
            t_max in 1usize..16,
        ) {
            let mut cfg = WindowConfig::new("sweep", nodes, terminals);
            cfg.extra_size_prob = 0.3;
            let g = window_circuit(&cfg, seed);
            // Bit i set (mostly clear): cell i lies outside the remainder.
            let outside = outside & outside.rotate_left(17);
            let assignment: Vec<u32> = (0..g.node_count() as u32)
                .map(|i| if outside >> (i % 64) & 1 == 1 { 1 + i % 2 } else { 0 })
                .collect();
            let state = PartitionState::from_assignment(&g, assignment, 3);
            let cells = state.nodes_in_block(0);
            prop_assume!(cells.len() >= 2);
            let config = FpartConfig::default();
            let evaluator = CostEvaluator::new(
                DeviceConstraints::new(s_max, t_max),
                &config,
                2,
                g.terminal_count(),
            );
            let ctx = make_ctx(&evaluator, &config, 0);
            let set = SweepSet::new(&state, &cells);
            let seed1 = biggest_cell(&state, &cells);
            let seed2 = farthest_cell(&state, &cells, seed1);
            let fits = |peel: &[NodeId]| {
                let size = peel.iter().map(|&c| u64::from(g.node_size(c))).sum();
                let terminals = prefix_terminals(&state, &cells, peel).t_a;
                evaluator.constraints().fits(size, terminals as usize)
            };
            for seed in [seed1, seed2] {
                let mut mismatches = Vec::new();
                let mut prefixes = 0;
                let outcome = sweep_from(&state, &set, seed, &ctx, |a, tracked| {
                    prefixes += 1;
                    let recount = prefix_terminals(&state, &cells, a);
                    if tracked != recount {
                        mismatches.push((a.len(), tracked, recount));
                    }
                });
                prop_assert!(mismatches.is_empty(), "(prefix, tracked, recount): {mismatches:?}");
                prop_assert!(prefixes >= 2, "the sweep stopped after {prefixes} prefix(es)");
                if let Some((_, peel)) = outcome.min_ratio {
                    prop_assert!(fits(&peel), "min-ratio peel {peel:?} does not fit");
                }
                if let Some((_, peel)) = outcome.max_fill {
                    prop_assert!(fits(&peel), "max-fill peel {peel:?} does not fit");
                }
            }
        }

        /// The sweep heap pops the same cells whether each connection
        /// raises a key on its own (one per shared net, as the sweep once
        /// did) or [`SweepHeap::flush`] raises each key once by the
        /// connections counted since the last pop: keys are distinct, so
        /// the pop order depends only on them. Sizes repeat, so ties reach
        /// the cell index; trailing pops drain both heaps.
        #[test]
        fn batched_key_increases_pop_the_same_sequence(
            sizes in proptest::collection::vec(1u32..4, 1..40),
            ops in proptest::collection::vec((any::<u16>(), 0u8..4), 0..200),
        ) {
            let n = sizes.len();
            let mut single = SweepHeap::new(n);
            let mut batched = SweepHeap::new(n);
            let mut absorbed = vec![false; n];
            for (cell, op) in ops.into_iter().chain(std::iter::repeat_n((0, 3), n)) {
                let v = usize::from(cell) % n;
                if op < 3 {
                    // A popped cell joins `A` and is never connected again.
                    if !absorbed[v] {
                        single.raise(v, sizes[v], 1);
                        batched.connect(v);
                    }
                    continue;
                }
                batched.flush(|u| sizes[u]);
                let popped = single.pop();
                prop_assert_eq!(popped, batched.pop());
                if let Some(u) = popped {
                    absorbed[u] = true;
                }
            }
            prop_assert!(single.pop().is_none() && batched.pop().is_none());
        }
    }

    fn make_ctx<'c>(
        evaluator: &'c CostEvaluator,
        config: &'c FpartConfig,
        remainder: usize,
    ) -> ImproveContext<'c> {
        ImproveContext { evaluator, config, remainder, minimum_reached: false, budget: None }
    }

    #[test]
    fn bipartition_peels_a_feasible_block() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 20), 3);
        let mut state = PartitionState::single_block(&g);
        let p = state.add_block();
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(22, 100), &config, 2, g.terminal_count());
        let ctx = make_ctx(&evaluator, &config, 0);
        let method = bipartition_remainder(&mut state, 0, p, &ctx);
        state.assert_consistent();
        assert_ne!(method, InitialMethod::Fallback);
        assert!(state.block_size(p) > 0);
        assert!(state.block_size(0) > 0);
        assert!(
            state.block_size(p) <= 22,
            "peeled block must meet the size constraint, got {}",
            state.block_size(p)
        );
    }

    #[test]
    fn bipartition_finds_planted_cut_on_clustered_circuit() {
        let cfg = ClusteredConfig::new("cl", 2, 30);
        let (g, _) = clustered_circuit(&cfg, 5);
        let mut state = PartitionState::single_block(&g);
        let p = state.add_block();
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(32, 100), &config, 2, g.terminal_count());
        let ctx = make_ctx(&evaluator, &config, 0);
        bipartition_remainder(&mut state, 0, p, &ctx);
        // A constructive method should land near the planted split: each
        // side holds one cluster ± a few cells.
        let diff = state.block_size(0).abs_diff(state.block_size(p));
        assert!(diff <= 10, "sizes {} vs {}", state.block_size(0), state.block_size(p));
        assert!(
            state.cut_count() <= cfg.inter_nets * 3,
            "cut {} far above planted {}",
            state.cut_count(),
            cfg.inter_nets
        );
    }

    #[test]
    fn two_cell_remainder_splits() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 3);
        let y = b.add_node("y", 2);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let mut state = PartitionState::single_block(&g);
        let p = state.add_block();
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(3, 10), &config, 2, 0);
        let ctx = make_ctx(&evaluator, &config, 0);
        bipartition_remainder(&mut state, 0, p, &ctx);
        state.assert_consistent();
        assert!(state.block_size(p) > 0 && state.block_size(0) > 0);
    }

    #[test]
    fn single_cell_remainder_falls_back() {
        let mut b = HypergraphBuilder::new();
        let _ = b.add_node("x", 5);
        let g = b.finish().unwrap();
        let mut state = PartitionState::single_block(&g);
        let p = state.add_block();
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(3, 10), &config, 1, 0);
        let ctx = make_ctx(&evaluator, &config, 0);
        let method = bipartition_remainder(&mut state, 0, p, &ctx);
        assert_eq!(method, InitialMethod::Fallback);
        assert_eq!(state.block_size(p), 5);
        assert_eq!(state.block_size(0), 0);
    }

    #[test]
    #[should_panic(expected = "must be empty")]
    fn nonempty_target_panics() {
        let mut b = HypergraphBuilder::new();
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        b.add_net("e", [x, y]).unwrap();
        let g = b.finish().unwrap();
        let mut state = PartitionState::from_assignment(&g, vec![0, 1], 2);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(3, 10), &config, 1, 0);
        let ctx = make_ctx(&evaluator, &config, 0);
        let _ = bipartition_remainder(&mut state, 0, 1, &ctx);
    }
}
