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
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    let mut best_fill: Option<(u64, Vec<NodeId>)> = None;
    let mut seeds = vec![seed1];
    if seed2 != seed1 {
        seeds.push(seed2);
    }
    for seed in seeds {
        let outcome = sweep_from(state, cells, seed, ctx);
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

/// One sweep: grows `A` from `seed`, returning the best-ratio feasible
/// prefix (as the side that meets the constraints) and the largest
/// feasible `A` prefix.
fn sweep_from(
    state: &PartitionState<'_>,
    cells: &[NodeId],
    seed: NodeId,
    ctx: &ImproveContext<'_>,
) -> SweepOutcome {
    let graph = state.graph();
    let constraints = ctx.evaluator.constraints();
    let in_set = membership(state, cells, seed);

    let total_size: u64 = cells.iter().map(|&c| u64::from(graph.node_size(c))).sum();

    // cov_a[net] = pins in A; pins_in_set[net] = pins among `cells`.
    let mut cov_a = vec![0u32; graph.net_count()];
    let mut pins_in_set = vec![0u32; graph.net_count()];
    for &c in cells {
        for &net in graph.nets(c) {
            pins_in_set[net.index()] += 1;
        }
    }

    let mut in_a = vec![false; graph.node_count()];
    let mut heap = SweepHeap::new(graph.node_count());
    let mut order: Vec<NodeId> = Vec::with_capacity(cells.len());

    let mut s_a = 0u64;
    let mut cut = 0i64; // nets with pins both in A and in (cells − A)
    let mut t_a = 0i64;
    let mut t_rest: i64 = rest_terminals(state, cells);

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
            let set_pins = pins_in_set[e];
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

            for &u in graph.pins(net) {
                if in_set[u.index()] && !in_a[u.index()] {
                    heap.connect(u.index(), graph.node_size(u));
                }
            }
        }
    };

    absorb(seed, &mut in_a, &mut cov_a, &mut heap, &mut s_a, &mut cut, &mut t_a, &mut t_rest);
    order.push(seed);

    let mut best: Option<(f64, usize)> = None;
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
        assigned += 1;

        let s_rest = total_size - s_a;
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
            Some((br, _)) if br <= ratio => {}
            _ => best = Some((ratio, order.len())),
        }
    }

    let fill_peel = best_fill.map(|(size, prefix)| (size, order[..prefix].to_vec()));

    let Some((ratio, prefix)) = best else {
        return SweepOutcome { min_ratio: None, max_fill: fill_peel };
    };
    // Re-derive which side fits at that prefix to decide the peel.
    let a_cells: Vec<NodeId> = order[..prefix].to_vec();
    let a_size: u64 = a_cells.iter().map(|&c| u64::from(graph.node_size(c))).sum();
    let (t_a_final, t_rest_final) = prefix_terminals(state, cells, &a_cells);
    let a_fits = constraints.fits(a_size, t_a_final);
    let min_ratio = if a_fits {
        Some((ratio, a_cells))
    } else {
        let mut mask = vec![false; graph.node_count()];
        for &c in &a_cells {
            mask[c.index()] = true;
        }
        let rest: Vec<NodeId> = cells.iter().copied().filter(|c| !mask[c.index()]).collect();
        let rest_size = total_size - a_size;
        if constraints.fits(rest_size, t_rest_final) {
            Some((ratio, rest))
        } else {
            None
        }
    };
    SweepOutcome { min_ratio, max_fill: fill_peel }
}

/// Indexed max-heap of the sweep's frontier: every unabsorbed cell with
/// a pin on a net of `A`, keyed by `(conn, size, Reverse(index))` where
/// `conn` counts the cell's connections to `A`. Each cell has one entry,
/// whose key is raised in place as `A` grows; keys are distinct, so the
/// pop order is fully determined by them.
struct SweepHeap {
    /// Heap-ordered entries `(conn, size, Reverse(cell index))`.
    entries: Vec<(u32, u32, Reverse<usize>)>,
    /// `pos[v]` = index of `v`'s entry, or `u32::MAX` when it has none.
    pos: Vec<u32>,
}

impl SweepHeap {
    fn new(n: usize) -> Self {
        SweepHeap { entries: Vec::new(), pos: vec![u32::MAX; n] }
    }

    /// Counts one more connection of cell `v` (of the given size) to
    /// `A`, entering it into the heap on its first.
    fn connect(&mut self, v: usize, size: u32) {
        let i = match self.pos[v] {
            u32::MAX => {
                self.entries.push((0, size, Reverse(v)));
                self.entries.len() - 1
            }
            i => i as usize,
        };
        self.entries[i].0 += 1;
        self.sift_up(i);
    }

    /// Removes and returns the cell with the largest key.
    fn pop(&mut self) -> Option<usize> {
        let (_, _, Reverse(top)) = *self.entries.first()?;
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
        self.pos[self.entries[i].2 .0] = i as u32;
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
        self.pos[self.entries[i].2 .0] = i as u32;
    }

    /// Swaps entries `i` and `j`, recording the new position of the one
    /// now at `i`; the moving entry's position is recorded once it
    /// settles.
    fn swap(&mut self, i: usize, j: usize) {
        self.entries.swap(i, j);
        self.pos[self.entries[i].2 .0] = i as u32;
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

/// Terminal count of the whole cell set (the sweep's initial `T_rest`,
/// before the seed is absorbed — the seed's removal is accounted by the
/// incremental update).
fn rest_terminals(state: &PartitionState<'_>, cells: &[NodeId]) -> i64 {
    let graph = state.graph();
    let mut mask = vec![false; graph.node_count()];
    for &c in cells {
        mask[c.index()] = true;
    }
    let mut seen = vec![false; graph.net_count()];
    let mut t = 0i64;
    for &c in cells {
        for &net in graph.nets(c) {
            if seen[net.index()] {
                continue;
            }
            seen[net.index()] = true;
            let outside =
                graph.pins(net).iter().any(|p| !mask[p.index()]) || graph.net_has_terminal(net);
            if outside {
                t += 1;
            }
        }
    }
    t
}

/// Exact terminal counts of a prefix split (A vs cells − A), in global
/// context.
fn prefix_terminals(
    state: &PartitionState<'_>,
    cells: &[NodeId],
    a_cells: &[NodeId],
) -> (usize, usize) {
    let graph = state.graph();
    let mut in_a = vec![false; graph.node_count()];
    for &c in a_cells {
        in_a[c.index()] = true;
    }
    let mut in_set = vec![false; graph.node_count()];
    for &c in cells {
        in_set[c.index()] = true;
    }
    let mut t_a = 0usize;
    let mut t_rest = 0usize;
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
            if touches_a && (touches_rest || touches_outside || term) {
                t_a += 1;
            }
            if touches_rest && (touches_a || touches_outside || term) {
                t_rest += 1;
            }
        }
    }
    (t_a, t_rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FpartConfig;
    use crate::cost::CostEvaluator;
    use fpart_device::DeviceConstraints;
    use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};
    use fpart_hypergraph::HypergraphBuilder;

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
