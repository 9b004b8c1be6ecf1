//! The iterative-improvement engine: Sanchis-style multi-way FM passes
//! with the paper's solution selection, feasible-move regions, and dual
//! solution-stack restarts.
//!
//! One [`improve`] call corresponds to one `Improve(...)` invocation in
//! the paper's Algorithm 1: a first series of FM passes over the given
//! active blocks, then (when enabled) restart series from every solution
//! retained in the semi-feasible and infeasible stacks, keeping the
//! overall best solution under the lexicographic key of §3.4.
//!
//! A call builds one pass engine and keeps it for all of its passes. The
//! gain buckets, lock flags and scratch buffers are cleared between
//! passes rather than reallocated, and each cell's first-level gain
//! towards every other active block is kept across passes. Before a pass
//! only the gains of cells sharing a net with a cell whose block changed
//! since the previous pass are recomputed; the buckets are then refilled
//! from the kept gains in cell order, so every pass sees exactly the
//! buckets a fresh build would give it.
//!
//! The Krishnamurthy tie-break gains (levels 2..=L) are kept as well, per
//! cell and target: a candidate's tie-break is computed the first time
//! the selection inspects it in a pass and reused until a pin of one of
//! its nets moves or locks.
//!
//! A pass reads nothing but the state it starts from: `start_pass`
//! refreshes the kept gains until they are exact for that state, refills
//! the buckets from them in cell order, unlocks every cell and
//! invalidates every kept tie-break gain, and a restart series offers
//! nothing to the stacks. So a restart-series pass that starts from the
//! blocks of the call's cells that an earlier pass started from keeps
//! what that pass kept, and when that was no move, running it again is
//! wasted. The call remembers these *terminal states*: the start state
//! of the last pass of the first series and of each restart series,
//! when that pass kept no move (at most `1 + 2·stack_depth` per call,
//! dropped when the call returns). A restart series that reaches one
//! ends without running the pass. It still crosses the budget boundary
//! first, so pass caps, deadlines and fault plans fire at the same
//! logical pass, while the engine counters and [`ImproveStats::passes`]
//! count only the passes that ran. The first series never skips, as it
//! offers every prefix to the stacks. A hash of the cells' blocks,
//! updated by every move the engine makes, filters the candidates; a
//! terminal state matches only when every cell's block equals its
//! snapshot's.

use fpart_hypergraph::rng::splitmix64;
use fpart_hypergraph::{Hypergraph, NodeId};

use crate::bucket::GainBucket;
use crate::config::{FpartConfig, GainObjective};
use crate::constraints::{MoveRegions, PassKind};
use crate::cost::{CostEvaluator, KeyTracker, SolutionKey};
use crate::gain::{deltas_for_move, io_gain, io_gain_net, level1_gain, level2_gain, level_gain};
use crate::obs::{Counter, Metrics};
use crate::stack::DualStacks;
use crate::state::PartitionState;
use crate::trace::ImproveKind;

/// Maximum cells inspected per gain level when selecting a move; bounds
/// the tie-break work per selection (each inspected candidate reads its
/// kept tie-break gains, computing them only when they are stale).
const SELECTION_SCAN_CAP: usize = 64;

/// Highest tie-break gain level the engine supports
/// (`FpartConfig::validate` caps `gain_levels` at 4, so levels 2..=4 fill
/// at most three slots of the fixed tie array).
const MAX_TIE_LEVELS: usize = 3;

/// Sentinel for [`ImproveContext::remainder`] meaning "no remainder".
pub const NO_REMAINDER: usize = usize::MAX;

/// A kept gain that was never computed (a cell's gain towards its own
/// block). It lies outside every bucket's range, so a refresh that is
/// missed when a cell changes block fails loudly instead of inserting a
/// plausible stale gain.
const GAIN_UNSET: i32 = i32::MIN;

/// The Krishnamurthy gains of levels 2..=`levels` of moving `node` to
/// `to`, in the order the selection compares them (unused levels are 0).
fn tie_gains(
    state: &PartitionState<'_>,
    node: NodeId,
    to: usize,
    locked: &[bool],
    levels: u8,
) -> [i32; MAX_TIE_LEVELS] {
    let mut tie = [0i32; MAX_TIE_LEVELS];
    for level in 2..=levels {
        tie[usize::from(level) - 2] = if level == 2 {
            level2_gain(state, node, to, locked)
        } else {
            level_gain(state, node, to, locked, level)
        };
    }
    tie
}

#[cfg(test)]
thread_local! {
    /// Tie-break gain evaluations the selection made on this thread (the
    /// kept entries it had to compute; the debug re-derivation of a kept
    /// entry is not counted).
    static TIE_EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Passes that restart series skipped at a terminal state on this
    /// thread.
    static SKIPPED_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The term of cell `v` in block `block` in [`PassEngine::hash`].
#[inline]
fn cell_hash(v: NodeId, block: usize) -> u64 {
    splitmix64(&mut ((v.index() as u64) << 32 | block as u64))
}

/// Kept tie-break gains of one (cell, target slot) pair.
#[derive(Debug, Clone, Copy)]
struct TieEntry {
    /// The [`PassEngine::tie_epoch`] the gains were computed in; any
    /// other value (0 after an invalidation) marks them stale.
    epoch: u32,
    gains: [i32; MAX_TIE_LEVELS],
}

/// The row of node `v` in the engine's cells, if it is one of them.
#[inline]
fn row(row_of: &[u32], v: NodeId) -> Option<usize> {
    (row_of[v.index()] as usize).checked_sub(1)
}

/// The remainder as an `Option`, guarding the sentinel and stale indices.
fn remainder_opt(ctx: &ImproveContext<'_>, state: &PartitionState<'_>) -> Option<usize> {
    (ctx.remainder < state.block_count()).then_some(ctx.remainder)
}

/// Shared context of one improvement call.
#[derive(Debug)]
pub struct ImproveContext<'c> {
    /// Solution-quality evaluator (device, λ weights, M, |Y₀|).
    pub evaluator: &'c CostEvaluator,
    /// Algorithm configuration.
    pub config: &'c FpartConfig,
    /// Index of the block currently designated the remainder `R_k`.
    /// Pass [`NO_REMAINDER`] when no block is distinguished (e.g. during
    /// multilevel refinement): no block is then exempt from the move
    /// regions and the `d_k^R` penalty is skipped.
    pub remainder: usize,
    /// `true` once the iteration count has exceeded the lower bound `M`
    /// (disables size-violating moves, §3.5).
    pub minimum_reached: bool,
    /// Execution budget for this run, checked at every pass boundary
    /// (including before the first pass) and before each stack-restart
    /// series. `None` means unlimited and costs one branch per boundary.
    pub budget: Option<&'c crate::budget::BudgetTracker>,
}

/// Statistics of one improvement call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImproveStats {
    /// FM passes executed (including restart series; a pass skipped at
    /// a terminal state is not counted).
    pub passes: usize,
    /// Cell moves retained across all passes.
    pub moves: usize,
    /// Restart series launched from stacked solutions.
    pub restarts: usize,
    /// Solution key before the call.
    pub initial_key: SolutionKey,
    /// Solution key after the call (never worse than `initial_key`).
    pub final_key: SolutionKey,
}

/// Reusable scratch buffers of one improvement call.
///
/// Every buffer is allocated when the pass engine is built, once per
/// [`improve_cells`] call, and reused by all of its passes. The
/// per-move hot path (`select_move` + `apply_move`) therefore performs
/// **no heap allocation**; debug builds assert the capacities never grow.
struct PassScratch {
    /// Pre-move `(pins_in(from), pins_in(to))` per net of the moved cell.
    pre: Vec<(u32, u32)>,
    /// Enabled directions with their optimistic max gains (`select_move`).
    dir_max: Vec<(usize, usize, i32)>,
    /// Epoch stamps per cell row: `visited[i] == epoch` ⇔ `cells[i]` was
    /// already seen in the current step — one move's I/O-gain update
    /// (replacing the former sort+dedup of a freshly allocated `touched`
    /// vector), or the gain refresh before a pass.
    visited: Vec<u32>,
    /// Epoch stamps per net, so the refresh before a pass visits the pins
    /// of each net once however many of them moved.
    net_visited: Vec<u32>,
    /// Rows of the unique unlocked neighbours of the current move (I/O
    /// objective).
    touched: Vec<u32>,
    /// Per-(neighbour row, target-slot) accumulated I/O gain deltas; rows
    /// are lazily zeroed when a neighbour is first stamped.
    io_delta: Vec<i32>,
    /// The current pass's applied moves `(cell, from, to)`.
    move_log: Vec<(NodeId, usize, usize)>,
    /// Current epoch for `visited` and `net_visited` (0 means "never
    /// stamped").
    epoch: u32,
}

impl PassScratch {
    fn new(
        graph: &Hypergraph,
        max_degree: usize,
        cells: usize,
        slots: usize,
        io_pins: bool,
    ) -> Self {
        PassScratch {
            pre: Vec::with_capacity(max_degree),
            dir_max: Vec::with_capacity(slots * slots),
            visited: vec![0; cells],
            net_visited: vec![0; graph.net_count()],
            // The I/O-pin buffers are only touched by `update_io_gains`;
            // keep them empty under the cut-net objective.
            touched: if io_pins { Vec::with_capacity(cells) } else { Vec::new() },
            io_delta: if io_pins { vec![0; cells * slots] } else { Vec::new() },
            // A pass moves each cell at most once.
            move_log: Vec::with_capacity(cells),
            epoch: 0,
        }
    }

    /// Starts a new step: advances the visited epoch (clearing the stamp
    /// arrays only on the once-in-4-billion wraparound).
    #[inline]
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.net_visited.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The pass engine of one improvement call: built once, then reused by
/// every FM pass of the call's first series and of its restart series.
struct PassEngine<'s, 'g, 'c> {
    state: &'s mut PartitionState<'g>,
    ctx: &'c ImproveContext<'c>,
    /// Cells eligible to move, in bucket insertion order.
    cells: &'c [NodeId],
    /// `row_of[v]` = 1 + the index of node `v` in `cells`, or 0 when `v`
    /// is not one of them.
    row_of: Vec<u32>,
    /// Blocks participating in this improvement call.
    active: Vec<usize>,
    /// `block_to_slot[block]` = index into `active`, or `usize::MAX`.
    block_to_slot: Vec<usize>,
    /// One bucket per ordered (from-slot, to-slot) pair, cleared (not
    /// reallocated) before each pass.
    buckets: Vec<GainBucket>,
    locked: Vec<bool>,
    regions: MoveRegions,
    /// Gains live in `[-gain_bound, gain_bound]` (depends on objective).
    gain_bound: i32,
    /// Kept first-level gains: `gains[i * slots + t]` is the gain of
    /// moving `cells[i]` to active slot `t`, exact for the current state
    /// except around the cells in `moved` ([`GAIN_UNSET`] where never
    /// computed).
    gains: Vec<i32>,
    /// Cells whose block changed since the kept gains were last
    /// refreshed (duplicates allowed).
    moved: Vec<NodeId>,
    /// Kept tie-break gains (empty when `gain_levels` is 1):
    /// `ties[i * slots + t]` belongs to moving `cells[i]` to active slot
    /// `t` and is exact while its epoch equals `tie_epoch`.
    ///
    /// An entry reads only the cell's own block and the blocks, lock
    /// flags and pin counts of its nets' pins. Within a pass those change
    /// only by [`Self::apply_move`], which invalidates every pin of the
    /// moved cell's nets; [`Self::start_pass`], which unlocks every cell
    /// and follows every rollback and restore, invalidates them all.
    ties: Vec<TieEntry>,
    /// Epoch of the current pass for `ties` (0 before the first pass).
    tie_epoch: u32,
    /// XOR of [`cell_hash`] over the cells and their current blocks,
    /// updated by [`Self::move_cell`].
    hash: u64,
    /// The call's terminal states: the hash and the [`Self::snapshot`]
    /// of each start state of a pass that kept no move.
    terminals: Vec<(u64, Vec<u32>)>,
    /// Zero-allocation scratch for the move loop.
    scratch: PassScratch,
}

impl<'s, 'g, 'c> PassEngine<'s, 'g, 'c> {
    /// Builds the engine for one call and computes every cell's gains.
    fn new(
        state: &'s mut PartitionState<'g>,
        active: &[usize],
        cells: &'c [NodeId],
        ctx: &'c ImproveContext<'c>,
    ) -> Self {
        let kind = if active.len() == 2 { PassKind::TwoBlock } else { PassKind::MultiBlock };
        let regions = MoveRegions::new(
            ctx.config,
            ctx.evaluator.constraints(),
            kind,
            ctx.remainder,
            ctx.minimum_reached,
        );
        let mut block_to_slot = vec![usize::MAX; state.block_count()];
        for (slot, &b) in active.iter().enumerate() {
            block_to_slot[b] = slot;
        }
        let n = state.graph().node_count();
        let mut row_of = vec![0u32; n];
        for (i, &v) in cells.iter().enumerate() {
            row_of[v.index()] = i as u32 + 1;
        }
        // Cut gains are bounded by the node degree; an I/O gain can move
        // two blocks' counts by one per net, so it needs twice the range.
        let max_degree = state.graph().max_node_degree();
        let p_max = match ctx.config.gain_objective {
            GainObjective::CutNets => max_degree,
            GainObjective::IoPins => 2 * max_degree,
        };
        let slots = active.len();
        let buckets = (0..slots * slots).map(|_| GainBucket::new(n, p_max)).collect();
        let scratch = PassScratch::new(
            state.graph(),
            max_degree,
            cells.len(),
            slots,
            ctx.config.gain_objective == GainObjective::IoPins,
        );
        let tie_entries = if ctx.config.gain_levels >= 2 { cells.len() * slots } else { 0 };
        let mut engine = PassEngine {
            state,
            ctx,
            cells,
            row_of,
            active: active.to_vec(),
            block_to_slot,
            buckets,
            locked: vec![false; n],
            regions,
            gain_bound: p_max as i32,
            gains: vec![GAIN_UNSET; cells.len() * slots],
            moved: Vec::new(),
            ties: vec![TieEntry { epoch: 0, gains: [0; MAX_TIE_LEVELS] }; tie_entries],
            tie_epoch: 0,
            hash: 0,
            terminals: Vec::new(),
            scratch,
        };
        engine.hash = engine.state_hash();
        for i in 0..cells.len() {
            engine.refresh_gains(i);
        }
        engine
    }

    /// [`Self::hash`] computed from scratch.
    fn state_hash(&self) -> u64 {
        self.cells.iter().fold(0, |h, &v| h ^ cell_hash(v, self.state.block_of(v)))
    }

    /// Moves cell `v` from block `from` to block `to`. Every move the
    /// engine makes goes through here, keeping [`Self::hash`] current.
    #[inline]
    fn move_cell(&mut self, v: NodeId, from: usize, to: usize) {
        self.hash ^= cell_hash(v, from) ^ cell_hash(v, to);
        self.state.move_node(v, to);
    }

    /// Whether the current state is one of the call's terminal states.
    fn at_terminal_state(&self) -> bool {
        debug_assert_eq!(self.hash, self.state_hash(), "stale state hash");
        self.terminals.iter().any(|(hash, blocks)| {
            *hash == self.hash
                && self
                    .cells
                    .iter()
                    .zip(blocks)
                    .all(|(&v, &b)| self.state.block_of(v) == b as usize)
        })
    }

    #[inline]
    fn dir(&self, from_slot: usize, to_slot: usize) -> usize {
        from_slot * self.active.len() + to_slot
    }

    /// The configured first-level gain of a move.
    #[inline]
    fn move_gain(&self, node: NodeId, to: usize) -> i32 {
        match self.ctx.config.gain_objective {
            GainObjective::CutNets => level1_gain(self.state, node, to),
            GainObjective::IoPins => io_gain(self.state, node, to),
        }
    }

    /// Recomputes the kept gains of `cells[i]` towards every other active
    /// slot.
    fn refresh_gains(&mut self, i: usize) {
        let v = self.cells[i];
        let from_slot = self.block_to_slot[self.state.block_of(v)];
        debug_assert_ne!(from_slot, usize::MAX, "active cell in inactive block");
        let row = i * self.active.len();
        for to_slot in 0..self.active.len() {
            if to_slot != from_slot {
                self.gains[row + to_slot] = self.move_gain(v, self.active[to_slot]);
            }
        }
    }

    /// Readies the engine for the next pass: refreshes the kept gains
    /// around every cell in `moved`, unlocks the cells and refills the
    /// buckets from the kept gains in `cells` order, so each bucket holds
    /// the same cells in the same LIFO order as a freshly built one.
    ///
    /// Refreshing only the cells that share a net with a moved cell is
    /// exact because a cell's gain ([`level1_gain`], [`io_gain`]) reads
    /// only its own block and the pin counts and spans of its own nets,
    /// and a net's counts change only when one of its pins changes block.
    /// A moved cell is refreshed in its own right as well: on no net, it
    /// is nobody's neighbour, yet its own block changed.
    ///
    /// Every kept tie-break gain goes stale here: they read lock flags,
    /// and the pass unlocks every cell.
    fn start_pass(&mut self) {
        let graph = self.state.graph();
        let epoch = self.scratch.next_epoch();
        for &m in &self.moved {
            let r = row(&self.row_of, m).expect("only cells move");
            self.scratch.visited[r] = epoch;
            for &net in graph.nets(m) {
                if self.scratch.net_visited[net.index()] != epoch {
                    self.scratch.net_visited[net.index()] = epoch;
                    for &u in graph.pins(net) {
                        if let Some(r) = row(&self.row_of, u) {
                            self.scratch.visited[r] = epoch;
                        }
                    }
                }
            }
        }
        self.moved.clear();
        self.tie_epoch = self.tie_epoch.wrapping_add(1);
        if self.tie_epoch == 0 {
            // Wraparound: no entry may carry the restarted epoch.
            for entry in &mut self.ties {
                entry.epoch = 0;
            }
            self.tie_epoch = 1;
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        let slots = self.active.len();
        for (i, &v) in self.cells.iter().enumerate() {
            self.locked[v.index()] = false;
            if self.scratch.visited[i] == epoch {
                self.refresh_gains(i);
            }
            let from_slot = self.block_to_slot[self.state.block_of(v)];
            let row = i * slots;
            for to_slot in 0..slots {
                if to_slot == from_slot {
                    continue;
                }
                let gain = self.gains[row + to_slot];
                debug_assert_eq!(
                    gain,
                    self.move_gain(v, self.active[to_slot]),
                    "stale kept gain for cell {} towards slot {to_slot}",
                    v.index()
                );
                let d = self.dir(from_slot, to_slot);
                self.buckets[d].insert(v.index() as u32, gain);
            }
        }
    }

    /// The block of every cell, in `cells` order.
    fn snapshot(&self) -> Vec<u32> {
        self.cells.iter().map(|&v| self.state.block_of(v) as u32).collect()
    }

    /// Restores a [`Self::snapshot`], queueing every cell it moves for the
    /// next pass's gain refresh.
    fn restore(&mut self, snapshot: &[u32]) {
        debug_assert_eq!(self.cells.len(), snapshot.len());
        for (&v, &b) in self.cells.iter().zip(snapshot) {
            let from = self.state.block_of(v);
            if from != b as usize {
                self.move_cell(v, from, b as usize);
                self.moved.push(v);
            }
        }
    }

    /// Replays the move log to take the state from prefix length
    /// `from_len` to `to_len` (backward or forward).
    fn walk_to(
        &mut self,
        move_log: &[(NodeId, usize, usize)],
        from_len: usize,
        to_len: usize,
    ) -> usize {
        let mut cur = from_len;
        while cur > to_len {
            let (node, from, to) = move_log[cur - 1];
            self.move_cell(node, to, from);
            cur -= 1;
        }
        while cur < to_len {
            let (node, from, to) = move_log[cur];
            self.move_cell(node, from, to);
            cur += 1;
        }
        cur
    }

    /// The solution key of the current state.
    fn key(&self) -> SolutionKey {
        self.ctx.evaluator.key(self.state, remainder_opt(self.ctx, self.state))
    }

    /// Selects the best legal move: maximum level-1 gain, ties broken by
    /// level-2 gain (when configured), then by size balance
    /// `MAX(S_FROM − S_TO)`, then by cell id.
    fn select_move(&mut self, metrics: &mut Metrics) -> Option<(NodeId, usize, usize)> {
        let slots = self.active.len();
        // Enabled directions with their optimistic max gains, collected
        // into a reused scratch vector (no allocation per selection).
        let mut dir_max = std::mem::take(&mut self.scratch.dir_max);
        dir_max.clear();
        #[cfg(debug_assertions)]
        let dir_max_cap = dir_max.capacity();
        let mut g_star = i32::MIN;
        for fs in 0..slots {
            if !self.regions.can_donate(self.state, self.active[fs]) {
                continue;
            }
            for ts in 0..slots {
                if ts == fs || !self.regions.can_receive(self.state, self.active[ts]) {
                    continue;
                }
                let d = self.dir(fs, ts);
                if let Some(g) = self.buckets[d].max_gain() {
                    dir_max.push((fs, ts, g));
                    g_star = g_star.max(g);
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(dir_max.capacity(), dir_max_cap, "dir_max scratch reallocated");
        let selected =
            if dir_max.is_empty() { None } else { self.scan_directions(&dir_max, g_star, metrics) };
        self.scratch.dir_max = dir_max;
        selected
    }

    /// Scans the enabled directions from gain `g_star` downward for the
    /// best legal move (the allocation-free body of [`Self::select_move`]).
    fn scan_directions(
        &mut self,
        dir_max: &[(usize, usize, i32)],
        g_star: i32,
        metrics: &mut Metrics,
    ) -> Option<(NodeId, usize, usize)> {
        let levels = self.ctx.config.gain_levels;
        let slots = self.active.len();
        // Bucket cells inspected over the whole selection, flushed to the
        // metrics registry once per call (not once per cell).
        let mut popped = 0u64;
        let mut g = g_star;
        while g >= -self.gain_bound {
            // Fixed-size tie arrays (levels 2..=4): unused slots stay 0 on
            // both sides of the comparison, so the ordering matches the
            // former per-candidate `Vec<i32>` without allocating.
            let mut best: Option<(NodeId, usize, usize, [i32; MAX_TIE_LEVELS], i64)> = None;
            let mut scanned = 0usize;
            for &(fs, ts, dmax) in dir_max {
                if dmax < g {
                    continue;
                }
                let from = self.active[fs];
                let to = self.active[ts];
                let d = self.dir(fs, ts);
                // LIFO: most recently inserted cells first.
                for &cell in self.buckets[d].cells_at(g).iter().rev() {
                    if scanned >= SELECTION_SCAN_CAP {
                        break;
                    }
                    scanned += 1;
                    popped += 1;
                    let node = NodeId::from_index(cell as usize);
                    let size = u64::from(self.state.graph().node_size(node));
                    if !self.regions.move_allowed(self.state, size, from, to) {
                        continue;
                    }
                    // Higher-level gains (levels 2..=L) for tie-breaking
                    // among equal first-level gains, kept per target.
                    let tie = if levels < 2 {
                        [0; MAX_TIE_LEVELS]
                    } else {
                        let r = row(&self.row_of, node).expect("bucket cells are engine cells");
                        let entry = &mut self.ties[r * slots + ts];
                        if entry.epoch == self.tie_epoch {
                            debug_assert_eq!(
                                entry.gains,
                                tie_gains(self.state, node, to, &self.locked, levels),
                                "stale tie-break gains for cell {cell} towards slot {ts}"
                            );
                        } else {
                            #[cfg(test)]
                            TIE_EVALUATIONS.with(|n| n.set(n.get() + 1));
                            entry.gains = tie_gains(self.state, node, to, &self.locked, levels);
                            entry.epoch = self.tie_epoch;
                        }
                        entry.gains
                    };
                    let balance =
                        self.state.block_size(from) as i64 - self.state.block_size(to) as i64;
                    let better = match &best {
                        None => true,
                        Some((bn, _, _, btie, bbal)) => {
                            (&tie, balance, std::cmp::Reverse(node.index()))
                                > (btie, *bbal, std::cmp::Reverse(bn.index()))
                        }
                    };
                    if better {
                        best = Some((node, from, to, tie, balance));
                    }
                }
            }
            if let Some((node, from, to, _, _)) = best {
                metrics.add(Counter::GainBucketPops, popped);
                return Some((node, from, to));
            }
            g -= 1;
        }
        metrics.add(Counter::GainBucketPops, popped);
        None
    }

    /// Applies a selected move: updates the state, locks the cell, fixes
    /// neighbouring gains and drops the kept tie-break gains of every pin
    /// of the cell's nets. Allocation-free: the `pre` pin counts live in
    /// a scratch buffer reserved to the maximum node degree.
    fn apply_move(&mut self, node: NodeId, from: usize, to: usize) {
        let graph = self.state.graph();
        let mut pre = std::mem::take(&mut self.scratch.pre);
        pre.clear();
        #[cfg(debug_assertions)]
        let pre_cap = pre.capacity();
        pre.extend(graph.nets(node).iter().map(|&e| self.state.net_pins_in_pair(e, from, to)));
        #[cfg(debug_assertions)]
        assert_eq!(pre.capacity(), pre_cap, "pre scratch reallocated");

        // Remove the cell's own entries and lock it.
        let from_slot = self.block_to_slot[from];
        for ts in 0..self.active.len() {
            if ts != from_slot {
                let d = self.dir(from_slot, ts);
                self.buckets[d].remove(node.index() as u32);
            }
        }
        self.locked[node.index()] = true;

        self.move_cell(node, from, to);

        match self.ctx.config.gain_objective {
            GainObjective::CutNets => {
                // Correct the stored gains via exact delta updates.
                let (state, buckets, locked) = (&*self.state, &mut self.buckets, &self.locked);
                let active = &self.active;
                let block_to_slot = &self.block_to_slot;
                let slots = active.len();
                deltas_for_move(state, node, from, to, &pre, active, locked, |delta| {
                    let fs = block_to_slot[delta.from];
                    let ts = block_to_slot[delta.to];
                    if fs == usize::MAX || ts == usize::MAX {
                        return; // direction not under improvement
                    }
                    let d = fs * slots + ts;
                    let cell = delta.cell.index() as u32;
                    if buckets[d].contains(cell) {
                        buckets[d].adjust(cell, delta.delta);
                    }
                });
            }
            GainObjective::IoPins => self.update_io_gains(node, from, to, &pre),
        }
        self.scratch.pre = pre;

        if !self.ties.is_empty() {
            let slots = self.active.len();
            for &net in graph.nets(node) {
                for &u in graph.pins(net) {
                    if let Some(r) = row(&self.row_of, u) {
                        for entry in &mut self.ties[r * slots..(r + 1) * slots] {
                            entry.epoch = 0;
                        }
                    }
                }
            }
        }
    }

    /// Applies exact per-net I/O-gain deltas to every unlocked neighbour
    /// of `moved` after it went from block `a` to block `b`.
    ///
    /// Only nets of `moved` can change a neighbour's stored gain, and for
    /// a given net only the directions touching `a` or `b` — or any
    /// direction when the net's block span changed (exposure flips affect
    /// every direction). Fresh directions are skipped entirely instead of
    /// recomputing a full [`io_gain`] per neighbour per direction.
    ///
    /// Deltas are accumulated per (neighbour, target slot) in an
    /// epoch-stamped scratch table (no allocation, no sort+dedup) and
    /// applied to the buckets once per pair.
    fn update_io_gains(&mut self, moved: NodeId, a: usize, b: usize, pre: &[(u32, u32)]) {
        let graph = self.state.graph();
        let slots = self.active.len();
        let epoch = self.scratch.next_epoch();
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();
        #[cfg(debug_assertions)]
        let touched_cap = touched.capacity();

        for (i, &net) in graph.nets(moved).iter().enumerate() {
            let (da0, db0) = pre[i];
            let span1 = self.state.net_span(net);
            // `span0` reconstructed from the post-move span and the
            // pre-move counts (`a` emptied ⇒ span shrank; `b` newly
            // occupied ⇒ span grew).
            let span0 = span1 + u32::from(da0 == 1) - u32::from(db0 == 0);
            let span_changed = span0 != span1;
            let has_term = graph.net_has_terminal(net);
            for &u in graph.pins(net) {
                if u == moved || self.locked[u.index()] {
                    continue;
                }
                // Only the engine's cells hold bucket entries.
                let Some(u_row) = row(&self.row_of, u) else { continue };
                let c = self.state.block_of(u);
                let base = u_row * slots;
                if self.scratch.visited[u_row] != epoch {
                    self.scratch.visited[u_row] = epoch;
                    touched.push(u_row as u32);
                    self.scratch.io_delta[base..base + slots].fill(0);
                }
                // Post- and pre-move pin counts of `u`'s own block.
                let dc1 = self.state.net_pins_in(net, c);
                let dc0 = dc1 + u32::from(c == a) - u32::from(c == b);
                for ts in 0..slots {
                    let t = self.active[ts];
                    if t == c {
                        continue;
                    }
                    // Fresh direction: neither endpoint's pin count nor
                    // the net's exposure changed ⇒ contribution intact.
                    if !span_changed && c != a && c != b && t != a && t != b {
                        continue;
                    }
                    let dt1 = self.state.net_pins_in(net, t);
                    let dt0 = dt1 + u32::from(t == a) - u32::from(t == b);
                    self.scratch.io_delta[base + ts] += io_gain_net(dc1, dt1, span1, has_term)
                        - io_gain_net(dc0, dt0, span0, has_term);
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(touched.capacity(), touched_cap, "touched scratch reallocated");

        for &u_row in &touched {
            let u = self.cells[u_row as usize];
            let cell = u.index() as u32;
            let fs = self.block_to_slot[self.state.block_of(u)];
            let base = u_row as usize * slots;
            for ts in 0..slots {
                if ts == fs {
                    continue;
                }
                let delta = self.scratch.io_delta[base + ts];
                let d = self.dir(fs, ts);
                if delta != 0 && self.buckets[d].contains(cell) {
                    self.buckets[d].adjust(cell, delta);
                }
                // The maintained gain must equal a fresh recomputation.
                #[cfg(debug_assertions)]
                if self.buckets[d].contains(cell) {
                    assert_eq!(
                        self.buckets[d].gain_of(cell),
                        self.move_gain(u, self.active[ts]),
                        "stale I/O gain for cell {cell} direction {fs}->{ts}"
                    );
                }
            }
        }
        self.scratch.touched = touched;
    }
}

/// Runs a single FM pass over the engine's cells.
///
/// Returns `(improved, moves_kept, best_key)`. The state is left at the
/// best prefix of the move sequence (classical FM rollback), and the kept
/// prefix's cells are queued for the next pass's gain refresh.
fn run_pass(
    engine: &mut PassEngine<'_, '_, '_>,
    stacks: Option<&mut DualStacks>,
    metrics: &mut Metrics,
) -> (bool, usize, SolutionKey) {
    let ctx = engine.ctx;
    metrics.bump(Counter::Passes);
    let initial_key = engine.key();
    metrics.bump(Counter::KeyEvaluations);
    engine.start_pass();

    // Incremental key maintenance: one O(k) scan here, then O(1) updates
    // per applied move (bit-identical to the from-scratch evaluation —
    // asserted per move in debug builds).
    let mut tracker = KeyTracker::new(ctx.evaluator, engine.state);
    let mut move_log = std::mem::take(&mut engine.scratch.move_log);
    move_log.clear();
    let mut best_key = initial_key;
    let mut best_len = 0usize;
    // Copy-on-accept stacking: during the move loop only the move-log
    // *prefix length* is stacked; the retained snapshots (at most
    // 2·D_stack of them) are materialized once, after the loop. The
    // retained set equals what per-move materialization would have kept:
    // a bounded best-first stack holds the top-D distinct keys of its
    // offers regardless of offer order.
    let mut prefix_stacks: Option<DualStacks<usize>> =
        stacks.is_some().then(|| DualStacks::new(ctx.config.stack_depth));
    let patience = ctx.config.early_stop_patience;

    while let Some((node, from, to)) = engine.select_move(metrics) {
        engine.apply_move(node, from, to);
        metrics.bump(Counter::MovesApplied);
        tracker.apply_move(ctx.evaluator, engine.state, from, to);
        move_log.push((node, from, to));
        let key = tracker.key(ctx.evaluator, engine.state, remainder_opt(ctx, engine.state));
        metrics.bump(Counter::KeyEvaluations);
        debug_assert_eq!(
            key,
            engine.key(),
            "incremental key diverged from the from-scratch evaluation"
        );
        if key.better_than(&best_key) {
            best_key = key;
            best_len = move_log.len();
        } else if let Some(patience) = patience {
            // §5 future work: give up on a pass drifting away from the
            // feasible region instead of exhausting every move.
            if move_log.len() - best_len >= patience {
                break;
            }
        }
        if let Some(prefix_stacks) = prefix_stacks.as_mut() {
            let len = move_log.len();
            prefix_stacks.offer(key, || len);
        }
    }

    metrics.add(Counter::MovesReverted, (move_log.len() - best_len) as u64);
    match (prefix_stacks, stacks) {
        (Some(prefix_stacks), Some(stacks)) => {
            let materialized =
                materialize_snapshots(engine, &prefix_stacks, stacks, &move_log, best_len);
            metrics.add(Counter::SnapshotsMaterialized, materialized as u64);
        }
        _ => {
            // Roll back to the best prefix.
            engine.walk_to(&move_log, move_log.len(), best_len);
        }
    }
    engine.moved.extend(move_log[..best_len].iter().map(|&(node, _, _)| node));
    engine.scratch.move_log = move_log;
    (best_key.better_than(&initial_key), best_len, best_key)
}

/// Materializes the retained prefix-length snapshots into the caller's
/// assignment stacks, then leaves the state at the best prefix.
///
/// Prefixes are visited in descending length order so the state walks
/// monotonically backward through the move log before settling on
/// `best_len`.
fn materialize_snapshots(
    engine: &mut PassEngine<'_, '_, '_>,
    prefix_stacks: &DualStacks<usize>,
    stacks: &mut DualStacks,
    move_log: &[(NodeId, usize, usize)],
    best_len: usize,
) -> usize {
    let mut retained: Vec<(SolutionKey, usize)> =
        prefix_stacks.iter().map(|(k, &len)| (*k, len)).collect();
    retained.sort_unstable_by_key(|r| std::cmp::Reverse(r.1));
    let materialized = retained.len();
    let mut cursor = move_log.len();
    for (key, len) in retained {
        cursor = engine.walk_to(move_log, cursor, len);
        stacks.offer(key, || engine.snapshot());
    }
    engine.walk_to(move_log, cursor, best_len);
    materialized
}

/// Runs a pass that a restart series skipped at a terminal state,
/// unmetered and outside the budget, and asserts that it keeps no move
/// (debug builds only; the tie-break evaluation count is left as it was).
#[cfg(debug_assertions)]
fn check_skipped_pass(engine: &mut PassEngine<'_, '_, '_>) {
    #[cfg(test)]
    let evaluations = TIE_EVALUATIONS.with(std::cell::Cell::get);
    let (improved, kept, _) = run_pass(engine, None, &mut Metrics::disabled());
    #[cfg(test)]
    TIE_EVALUATIONS.with(|n| n.set(evaluations));
    assert!(!improved && kept == 0, "a pass from a terminal state kept {kept} moves");
}

/// Runs FM passes until a pass fails to improve or `max_passes` is hit,
/// recording the start state of a pass that kept no move as a terminal
/// state. A restart series (no `stacks`) ends at a terminal state
/// without running the pass. Returns the passes run and the moves kept.
fn run_series(
    engine: &mut PassEngine<'_, '_, '_>,
    mut stacks: Option<&mut DualStacks>,
    metrics: &mut Metrics,
) -> (usize, usize) {
    let ctx = engine.ctx;
    let mut passes = 0usize;
    let mut moves = 0usize;
    loop {
        // Budget boundary: checked before *every* pass (including the
        // first and a skipped one), so a stopped run performs no further
        // passes and a deadline overruns by at most the pass already in
        // flight.
        if ctx.budget.is_some_and(super::budget::BudgetTracker::before_pass) {
            return (passes, moves);
        }
        if stacks.is_none() && engine.at_terminal_state() {
            #[cfg(test)]
            SKIPPED_PASSES.with(|n| n.set(n.get() + 1));
            #[cfg(debug_assertions)]
            check_skipped_pass(engine);
            return (passes, moves);
        }
        let (improved, pass_moves, _) = run_pass(engine, stacks.as_deref_mut(), metrics);
        passes += 1;
        moves += pass_moves;
        if let Some(budget) = ctx.budget {
            budget.add_moves(pass_moves as u64);
        }
        if !improved {
            // The pass kept no move: the state is the one it started from.
            let terminal = (engine.hash, engine.snapshot());
            engine.terminals.push(terminal);
            return (passes, moves);
        }
        if passes >= ctx.config.max_passes {
            return (passes, moves);
        }
    }
}

/// One `Improve(...)` call of Algorithm 1 over the given active blocks.
///
/// The state is left at the best solution found; the returned
/// [`ImproveStats::final_key`] is never worse than
/// [`ImproveStats::initial_key`].
///
/// # Panics
///
/// Panics if `active` lists fewer than two blocks or contains an index
/// `≥ state.block_count()`.
pub fn improve(
    state: &mut PartitionState<'_>,
    active: &[usize],
    ctx: &ImproveContext<'_>,
) -> ImproveStats {
    improve_cells(state, active, None, None, ctx, &mut Metrics::disabled())
}

/// [`improve`] over `cells` — `None` for every cell of the active
/// blocks — with engine metrics recorded into `metrics`. The call's
/// `Improve` span also times the schedule slot `kind`, when given.
///
/// An explicit cell set is the boundary refinement of the n-level flow
/// and of ECO repair: the caller passes only the cells incident to nets
/// crossing the active blocks, so each FM pass builds gain buckets for
/// the boundary rather than the whole level. Cells not listed keep their
/// blocks (they are never inserted into a bucket and never moved); block
/// sizes, move regions, and the solution key still account for them.
///
/// Every pass of the call, restart series included, runs on one pass
/// engine built here: its buckets and buffers are allocated once, and
/// the cells' first-level gains are computed once and then refreshed
/// before each pass only around the cells whose block changed.
///
/// The registry never influences control flow: a metered run and an
/// unmetered run produce bit-identical partitions and [`ImproveStats`]
/// (proven by the `observability` property tests). A disabled registry
/// costs one predictable branch per recorded event.
///
/// # Panics
///
/// As [`improve`]; in debug builds also when `cells` contains a cell
/// outside the active blocks or a duplicate.
pub(crate) fn improve_cells(
    state: &mut PartitionState<'_>,
    active: &[usize],
    cells: Option<&[NodeId]>,
    kind: Option<ImproveKind>,
    ctx: &ImproveContext<'_>,
    metrics: &mut Metrics,
) -> ImproveStats {
    assert!(active.len() >= 2, "improvement needs at least two blocks");
    assert!(active.iter().all(|&b| b < state.block_count()), "active block out of range");
    let every_cell: Vec<NodeId>;
    let cells = if let Some(cells) = cells {
        cells
    } else {
        let mut in_active = vec![false; state.block_count()];
        for &b in active {
            in_active[b] = true;
        }
        every_cell = state.graph().node_ids().filter(|&v| in_active[state.block_of(v)]).collect();
        &every_cell
    };
    debug_assert!(
        {
            let mut seen = vec![false; state.graph().node_count()];
            cells.iter().all(|&v| {
                let fresh = !seen[v.index()];
                seen[v.index()] = true;
                fresh && active.contains(&state.block_of(v))
            })
        },
        "cells must be unique and live in active blocks"
    );
    metrics.bump(Counter::ImproveCalls);
    metrics.span_open(crate::obs::SpanKind::Improve, 0);
    let initial_key = ctx.evaluator.key(state, remainder_opt(ctx, state));
    metrics.bump(Counter::KeyEvaluations);

    if cells.is_empty() {
        metrics.improve_close(kind, crate::obs::SpanStats::default());
        return ImproveStats {
            passes: 0,
            moves: 0,
            restarts: 0,
            initial_key,
            final_key: initial_key,
        };
    }

    let mut engine = PassEngine::new(state, active, cells, ctx);
    let mut stacks =
        ctx.config.use_solution_stacks.then(|| DualStacks::new(ctx.config.stack_depth));

    // First execution (records the stacks).
    let (mut passes, mut moves) = run_series(&mut engine, stacks.as_mut(), metrics);

    let mut best_key = engine.key();
    metrics.bump(Counter::KeyEvaluations);
    let mut best_snapshot = engine.snapshot();
    let mut restarts = 0usize;

    if let Some(stacks) = stacks {
        let candidates: Vec<Vec<u32>> = stacks.iter().map(|(_, s)| s.clone()).collect();
        for snapshot in candidates {
            // Budget boundary: a stopped run restarts no further stack
            // candidates (the best solution so far is kept below).
            if ctx.budget.is_some_and(crate::budget::BudgetTracker::check) {
                break;
            }
            engine.restore(&snapshot);
            let (p, m) = run_series(&mut engine, None, metrics);
            passes += p;
            moves += m;
            restarts += 1;
            metrics.bump(Counter::StackRestarts);
            let key = engine.key();
            metrics.bump(Counter::KeyEvaluations);
            if key.better_than(&best_key) {
                best_key = key;
                best_snapshot = engine.snapshot();
            }
        }
    }

    engine.restore(&best_snapshot);
    debug_assert!(!initial_key.better_than(&best_key), "improve made things worse");
    metrics.improve_close(
        kind,
        crate::obs::SpanStats {
            nodes: cells.len() as u64,
            moves: moves as u64,
            gain: initial_key.cut as i64 - best_key.cut as i64,
            ..crate::obs::SpanStats::default()
        },
    );
    ImproveStats { passes, moves, restarts, initial_key, final_key: best_key }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_device::DeviceConstraints;
    use fpart_hypergraph::gen::{clustered_circuit, ClusteredConfig};
    use fpart_hypergraph::{Hypergraph, HypergraphBuilder};

    fn ctx<'c>(
        evaluator: &'c CostEvaluator,
        config: &'c FpartConfig,
        remainder: usize,
    ) -> ImproveContext<'c> {
        ImproveContext { evaluator, config, remainder, minimum_reached: false, budget: None }
    }

    /// Two dense 4-cliques joined by one net; a bad split should be fixed.
    fn two_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..8).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        let cliques = [&n[0..4], &n[4..8]];
        let mut e = 0;
        for c in cliques {
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    b.add_net(format!("e{e}"), [c[i], c[j]]).unwrap();
                    e += 1;
                }
            }
        }
        b.add_net("bridge", [n[3], n[4]]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn improve_pulls_stray_cell_out_of_remainder() {
        let g = two_cliques();
        // Remainder (block 0) holds clique A plus stray cell 4 of clique B.
        let mut state = PartitionState::from_assignment(&g, vec![0, 0, 0, 0, 0, 1, 1, 1], 2);
        // Cut: nets (4,5),(4,6),(4,7) → 3 (the bridge {3,4} is inside 0).
        assert_eq!(state.cut_count(), 3);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(8, 64), &config, 2, 0);
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(stats.final_key.cut <= stats.initial_key.cut);
        // The whole 8-cell circuit fits the device, so the best solution
        // under the paper's key absorbs the remainder entirely into block
        // 1 (T^SUM drops to 0). The strict ε²_min only freezes donations
        // *from* the non-remainder block, which is exactly the direction
        // not needed here.
        assert_eq!(state.cut_count(), 0, "stats: {stats:?}");
        assert_eq!(state.block_size(0), 0);
        assert_eq!(state.block_size(1), 8);
    }

    #[test]
    fn improve_never_worsens_key() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 3, 12), 7);
        // arbitrary stripes
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 3).collect();
        let mut state = PartitionState::from_assignment(&g, assignment, 3);
        let config = FpartConfig::default();
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(14, 30), &config, 3, g.terminal_count());
        let c = ctx(&evaluator, &config, 2);
        let before = evaluator.key(&state, Some(2));
        let stats = improve(&mut state, &[0, 1, 2], &c);
        state.assert_consistent();
        assert!(!before.better_than(&stats.final_key));
        assert_eq!(stats.final_key, evaluator.key(&state, Some(2)));
    }

    #[test]
    fn improve_respects_move_regions() {
        // Remainder (block 0) huge, block 1 exactly full at S_MAX = 4:
        // no cell may enter block 1 beyond ε_max·S_MAX = 4 (4·1.05 ⌊⌋ = 4).
        let g = two_cliques();
        let mut state = PartitionState::from_assignment(&g, vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(4, 64), &config, 2, 0);
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        // Both blocks sit exactly at S_MAX = 4 with zero slack: the move
        // regions freeze every direction, so the pass must terminate with
        // no moves and the (already optimal) solution untouched.
        assert_eq!(stats.moves, 0);
        assert_eq!(state.block_size(1), 4);
        assert_eq!(stats.final_key.cut, 1);
    }

    #[test]
    fn improve_with_stacks_disabled_is_deterministic_and_sane() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 16), 3);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 2).collect();
        let config = FpartConfig { use_solution_stacks: false, ..FpartConfig::default() };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(20, 40), &config, 2, g.terminal_count());
        let mut s1 = PartitionState::from_assignment(&g, assignment.clone(), 2);
        let mut s2 = PartitionState::from_assignment(&g, assignment, 2);
        let c = ctx(&evaluator, &config, 1);
        let r1 = improve(&mut s1, &[0, 1], &c);
        let r2 = improve(&mut s2, &[0, 1], &c);
        assert_eq!(r1, r2);
        assert_eq!(s1.assignment(), s2.assignment());
        assert_eq!(r1.restarts, 0);
    }

    #[test]
    fn improve_reduces_planted_cut_to_planted_level() {
        let cfg = ClusteredConfig::new("cl", 2, 24);
        let (g, planted) = clustered_circuit(&cfg, 11);
        // Start from a noisy version of the planted partition.
        let mut assignment: Vec<u32> = planted.clone();
        for i in (0..assignment.len()).step_by(5) {
            assignment[i] = 1 - assignment[i];
        }
        let mut state = PartitionState::from_assignment(&g, assignment, 2);
        // Repairing noise needs moves in both directions; disable the
        // asymmetric regions (pure-FM behaviour) for this check.
        let config = FpartConfig { use_move_regions: false, ..FpartConfig::default() };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(30, 200), &config, 2, g.terminal_count());
        improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(
            state.cut_count() <= cfg.inter_nets + 2,
            "cut {} vs planted {}",
            state.cut_count(),
            cfg.inter_nets
        );
    }

    #[test]
    fn improve_with_io_gain_objective_reduces_terminals() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 20), 21);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 2).collect();
        let mut state = PartitionState::from_assignment(&g, assignment, 2);
        let config = FpartConfig {
            gain_objective: crate::config::GainObjective::IoPins,
            use_move_regions: false,
            ..FpartConfig::default()
        };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(25, 60), &config, 2, g.terminal_count());
        let before = state.terminal_sum();
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(state.terminal_sum() <= before, "stats: {stats:?}");
        assert!(!stats.initial_key.better_than(&stats.final_key));
    }

    #[test]
    fn early_stop_patience_still_yields_valid_improvement() {
        let (g, _) = clustered_circuit(&ClusteredConfig::new("cl", 2, 16), 31);
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 2).collect();
        let config = FpartConfig { early_stop_patience: Some(4), ..FpartConfig::default() };
        let evaluator =
            CostEvaluator::new(DeviceConstraints::new(20, 60), &config, 2, g.terminal_count());
        let mut state = PartitionState::from_assignment(&g, assignment, 2);
        let stats = improve(&mut state, &[0, 1], &ctx(&evaluator, &config, 0));
        state.assert_consistent();
        assert!(!stats.initial_key.better_than(&stats.final_key));
    }

    /// The tie-break cache and the terminal states, counted rather than
    /// timed, on the pinned s13207/XC3020 run (the second row of the
    /// `golden_workloads` search-work pins). Every one of the 581,951
    /// candidates that 767 passes popped used to evaluate its tie-break
    /// gains. Only those whose kept gains went stale do (151,840 of
    /// them), and restart series skip the 209 of those passes that would
    /// start from a terminal state, which leaves 418,131 pops and
    /// 110,347 evaluations. Debug builds re-derive every kept value they
    /// reuse and run every skipped pass to check that it keeps no move.
    #[test]
    fn tie_break_gains_are_evaluated_only_when_stale() {
        use crate::obs::Observer;
        use crate::search::{search, Algorithm, Restarts};
        use fpart_device::Device;
        use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};
        use std::cell::Cell;

        let graph = synthesize_mcnc(find_profile("s13207").unwrap(), Technology::Xc3000);
        let before = (TIE_EVALUATIONS.with(Cell::get), SKIPPED_PASSES.with(Cell::get));
        let report = search(
            &graph,
            Device::XC3020.constraints(0.9),
            &FpartConfig::default(),
            Algorithm::Flat,
            &Restarts::default(),
            &mut Observer::new(Metrics::enabled(), None),
        )
        .unwrap();
        let evaluations = TIE_EVALUATIONS.with(Cell::get) - before.0;
        let skipped = SKIPPED_PASSES.with(Cell::get) - before.1;
        let passes = report.totals.get(Counter::Passes);
        assert_eq!((passes, skipped), (558, 209));
        assert_eq!(report.totals.get(Counter::GainBucketPops), 418_131);
        assert_eq!(evaluations, 110_347);
    }

    #[test]
    #[should_panic(expected = "at least two blocks")]
    fn improve_requires_two_blocks() {
        let g = two_cliques();
        let mut state = PartitionState::single_block(&g);
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(DeviceConstraints::new(4, 4), &config, 1, 0);
        let _ = improve(&mut state, &[0], &ctx(&evaluator, &config, 0));
    }
}
