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
//!
//! # Pin-count layouts
//!
//! Every gain reads `Φ(e, j)`, the pins of net `e` in block `j`. A state
//! keeps these counts in one of two layouts, chosen by size alone:
//!
//! * **dense**: a `nets × next_pow2(k)` `u32` matrix, one load per
//!   lookup. A state is dense while the matrix fits a fixed 2 MiB
//!   budget, about one core's L2 cache;
//! * **compact**: per net, one `(block, pins)` entry for each block the
//!   net touches (its connectivity set). The first two entries sit inline
//!   in a net-indexed array, the rest in overflow slots reserved per net:
//!   a net of `p` pins touches at most `p` blocks, so `p − 2` slots always
//!   suffice. It costs O(nets + pins) bytes at any k.
//!
//! A state built by [`PartitionState::from_assignment`] starts in the
//! layout its matrix size selects, and [`PartitionState::add_block`]
//! converts a dense state once, when the next stride would pass the
//! budget. The layout never changes a count, so the search is the same in
//! both.

use fpart_device::BlockUsage;
use fpart_hypergraph::{Hypergraph, NetId, NodeId};

/// Bytes a dense pin-count matrix (`nets × next_pow2(k) × 4`) may take
/// before a state keeps per-net entries instead: about one core's L2
/// cache, where a dense lookup is a single cached load and beats a scan
/// of a net's entries.
const DENSE_BUDGET_BYTES: usize = 2 << 20;

/// Whether a dense matrix of `nets` rows of `stride` counts fits
/// [`DENSE_BUDGET_BYTES`].
fn fits_dense(nets: usize, stride: usize) -> bool {
    nets.saturating_mul(stride).saturating_mul(4) <= DENSE_BUDGET_BYTES
}

/// The pins of one net in one block: an entry of the compact layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockPins {
    block: u32,
    pins: u32,
}

/// An unused inline entry; its block equals no block index.
const VACANT: BlockPins = BlockPins { block: u32::MAX, pins: 0 };

/// Entry `i` of a compact net: inline for `i < 2`, else in the net's
/// overflow slots `extra`.
#[inline]
fn entry<'t>(
    inline: &'t mut [BlockPins; 2],
    extra: &'t mut [BlockPins],
    i: usize,
) -> &'t mut BlockPins {
    if i < 2 {
        &mut inline[i]
    } else {
        &mut extra[i - 2]
    }
}

/// The compact layout: net `e` has `spans[e]` entries, in no particular
/// order. Entries 0 and 1 sit in `inline[e]` (unused ones [`VACANT`]),
/// entry `i ≥ 2` at `overflow[overflow_start[e] + i − 2]`.
#[derive(Debug, Clone)]
struct Compact {
    inline: Vec<[BlockPins; 2]>,
    overflow: Vec<BlockPins>,
    overflow_start: Vec<u32>,
}

impl Compact {
    /// Empty counts, with `max(p − 2, 0)` overflow slots for each net of
    /// `p` pins.
    fn new(graph: &Hypergraph) -> Self {
        let mut overflow_start = Vec::with_capacity(graph.net_count());
        let mut slots = 0usize;
        for e in graph.net_ids() {
            overflow_start.push(slots as u32);
            slots += graph.pins(e).len().saturating_sub(2);
        }
        Compact {
            inline: vec![[VACANT; 2]; graph.net_count()],
            overflow: vec![VACANT; slots],
            overflow_start,
        }
    }

    /// The entries of net `e` past its two inline ones.
    fn extra(&self, spans: &[u32], e: usize) -> &[BlockPins] {
        let start = self.overflow_start[e] as usize;
        &self.overflow[start..start + (spans[e] as usize).saturating_sub(2)]
    }

    /// The entries of net `e`.
    fn entries<'s>(&'s self, spans: &[u32], e: usize) -> impl Iterator<Item = &'s BlockPins> {
        let inline = &self.inline[e][..(spans[e] as usize).min(2)];
        inline.iter().chain(self.extra(spans, e))
    }

    /// Pins of net `e` in `block`: the inline entries, then the rest.
    #[inline]
    fn get(&self, spans: &[u32], e: usize, block: u32) -> u32 {
        let [first, second] = self.inline[e];
        if first.block == block {
            first.pins
        } else if second.block == block {
            second.pins
        } else if spans[e] <= 2 {
            0
        } else {
            self.extra(spans, e).iter().find(|p| p.block == block).map_or(0, |p| p.pins)
        }
    }

    /// [`PinCounts::move_pin`] on this layout: a block that leaves the
    /// net takes the net's last entry into its slot.
    #[inline]
    fn move_pin(&mut self, e: usize, span: &mut u32, from: u32, to: u32) -> (u32, u32) {
        let row = &mut self.inline[e];
        let extra = &mut self.overflow[self.overflow_start[e] as usize..];
        let mut n = *span as usize;
        let (mut fi, mut ti) = (usize::MAX, usize::MAX);
        for i in 0..n {
            let block = entry(row, extra, i).block;
            if block == from {
                fi = i;
            } else if block == to {
                ti = i;
            }
        }
        debug_assert_ne!(fi, usize::MAX, "node must be counted in its source block");
        let da0 = entry(row, extra, fi).pins;
        let db0 = if ti == usize::MAX { 0 } else { entry(row, extra, ti).pins };
        // Leave `from` first: a net of p pins then never needs more than
        // p entries, the slots reserved for it.
        if da0 == 1 {
            n -= 1;
            *entry(row, extra, fi) = *entry(row, extra, n);
            *entry(row, extra, n) = VACANT;
            if ti == n {
                ti = fi;
            }
        } else {
            entry(row, extra, fi).pins = da0 - 1;
        }
        if ti == usize::MAX {
            *entry(row, extra, n) = BlockPins { block: to, pins: 1 };
            n += 1;
        } else {
            entry(row, extra, ti).pins = db0 + 1;
        }
        *span = n as u32;
        (da0, db0)
    }
}

/// Per-net, per-block pin counts in one of the two layouts described in
/// the module docs. The dense arm of each lookup is a load or two, kept
/// small so that it inlines into the gain loops.
#[derive(Debug, Clone)]
enum PinCounts {
    /// `counts[net * stride + block]`, with `stride = next_pow2(k)`.
    Dense {
        counts: Vec<u32>,
        stride: usize,
    },
    Compact(Compact),
}

impl PinCounts {
    /// Zeroed counts in the layout the dense budget selects for `k` blocks.
    fn new(graph: &Hypergraph, k: usize) -> Self {
        let stride = k.max(1).next_power_of_two();
        if fits_dense(graph.net_count(), stride) {
            PinCounts::Dense { counts: vec![0; graph.net_count() * stride], stride }
        } else {
            PinCounts::Compact(Compact::new(graph))
        }
    }

    /// Heap bytes of the counts.
    fn bytes(&self) -> usize {
        match self {
            PinCounts::Dense { counts, .. } => std::mem::size_of_val(counts.as_slice()),
            PinCounts::Compact(c) => {
                std::mem::size_of_val(c.inline.as_slice())
                    + std::mem::size_of_val(c.overflow.as_slice())
                    + std::mem::size_of_val(c.overflow_start.as_slice())
            }
        }
    }

    /// Forgets every count.
    fn clear(&mut self) {
        match self {
            PinCounts::Dense { counts, .. } => counts.fill(0),
            // Overflow slots past a net's span are never read.
            PinCounts::Compact(c) => c.inline.fill([VACANT; 2]),
        }
    }

    /// Writes the counts of net `e`, which must hold none yet: `pins[b]`
    /// for each block `b` of `blocks`.
    fn set_net(&mut self, e: usize, blocks: &[usize], pins: &[u32]) {
        match self {
            PinCounts::Dense { counts, stride } => {
                for &b in blocks {
                    counts[e * *stride + b] = pins[b];
                }
            }
            PinCounts::Compact(c) => {
                let extra = &mut c.overflow[c.overflow_start[e] as usize..];
                for (i, &b) in blocks.iter().enumerate() {
                    *entry(&mut c.inline[e], extra, i) =
                        BlockPins { block: b as u32, pins: pins[b] };
                }
            }
        }
    }

    /// Pins of net `e` in `block < k`; `spans[e]` is the net's entry
    /// count.
    #[inline]
    fn get(&self, spans: &[u32], e: usize, block: usize) -> u32 {
        match self {
            PinCounts::Dense { counts, stride } => counts[e * stride + block],
            PinCounts::Compact(c) => c.get(spans, e, block as u32),
        }
    }

    /// Moves one pin of net `e` from block `from` to block `to`, keeping
    /// `span` (the net's block count) in step, and returns the pre-move
    /// counts `(pins in from, pins in to)`.
    #[inline]
    fn move_pin(&mut self, e: usize, span: &mut u32, from: usize, to: usize) -> (u32, u32) {
        match self {
            PinCounts::Dense { counts, stride } => {
                let row = e * *stride;
                let da0 = counts[row + from];
                let db0 = counts[row + to];
                debug_assert!(da0 > 0, "node must be counted in its source block");
                counts[row + from] = da0 - 1;
                counts[row + to] = db0 + 1;
                *span = *span - u32::from(da0 == 1) + u32::from(db0 == 0);
                (da0, db0)
            }
            PinCounts::Compact(c) => c.move_pin(e, span, from as u32, to as u32),
        }
    }

    /// Replaces `out` with the blocks net `e` touches, in ascending order:
    /// a scan of the `k` columns when dense, the net's own entries sorted
    /// when compact.
    fn blocks_into(&self, spans: &[u32], k: usize, e: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            PinCounts::Dense { counts, stride } => {
                let row = &counts[e * stride..e * stride + k];
                out.extend((0..k).filter(|&b| row[b] > 0));
            }
            PinCounts::Compact(c) => {
                out.extend(c.entries(spans, e).map(|p| p.block as usize));
                out.sort_unstable();
            }
        }
    }

    /// The `(block, pins)` pairs of net `e` with pins, sorted by block;
    /// checks the layout's own invariants on the way.
    fn sorted_net(&self, spans: &[u32], k: usize, e: usize) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = match self {
            PinCounts::Dense { counts, stride } => {
                let row = &counts[e * stride..(e + 1) * stride];
                assert!(row[k..].iter().all(|&c| c == 0), "net {e}: pins past block k");
                row.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(b, &c)| (b, c)).collect()
            }
            PinCounts::Compact(c) => {
                let used = (spans[e] as usize).min(2);
                assert!(c.inline[e][used..].iter().all(|&p| p == VACANT), "net {e}: stale entry");
                c.entries(spans, e)
                    .map(|p| {
                        assert!(p.pins > 0 && (p.block as usize) < k, "net {e}: bad entry {p:?}");
                        (p.block as usize, p.pins)
                    })
                    .collect()
            }
        };
        out.sort_unstable();
        assert!(out.windows(2).all(|w| w[0].0 != w[1].0), "net {e}: repeated block");
        out
    }
}

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
    /// Pins of each net in each block, dense or compact (module docs).
    counts: PinCounts,
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
        let mut state = PartitionState {
            graph,
            assignment,
            block_sizes: vec![0; k],
            block_terminals: vec![0; k],
            block_externals: vec![0; k],
            counts: PinCounts::new(graph, k),
            span: vec![0; graph.net_count()],
            cut_nets: 0,
            terminal_total: 0,
            k,
        };
        state.recount();
        debug_assert!(state.within_byte_bound());
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

    /// Returns how many pins of `net` lie in `block` (0 for a block the
    /// state does not have).
    #[inline]
    #[must_use]
    pub fn net_pins_in(&self, net: NetId, block: usize) -> u32 {
        if block >= self.k {
            return 0;
        }
        self.counts.get(&self.span, net.index(), block)
    }

    /// Returns `(pins of net in a, pins of net in b)` for two blocks the
    /// state has: the gain loops' read, without [`Self::net_pins_in`]'s
    /// range check.
    #[inline]
    pub(crate) fn net_pins_in_pair(&self, net: NetId, a: usize, b: usize) -> (u32, u32) {
        debug_assert!(a < self.k && b < self.k, "blocks {a}, {b} out of range");
        let e = net.index();
        (self.counts.get(&self.span, e, a), self.counts.get(&self.span, e, b))
    }

    /// Returns the number of blocks `net` touches.
    #[inline]
    #[must_use]
    pub fn net_span(&self, net: NetId) -> u32 {
        self.span[net.index()]
    }

    /// Replaces `out` with the blocks `net` touches, in ascending order,
    /// in O(span log span) when compact rather than one lookup per block.
    pub(crate) fn net_blocks_into(&self, net: NetId, out: &mut Vec<usize>) {
        self.counts.blocks_into(&self.span, self.k, net.index(), out);
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

    /// Approximate heap bytes of the state: O(nodes + nets + k) plus the
    /// pin counts, which take at most [`DENSE_BUDGET_BYTES`] dense and
    /// O(pins) compact.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>()
            + std::mem::size_of_val(self.assignment.as_slice())
            + std::mem::size_of_val(self.block_sizes.as_slice())
            + std::mem::size_of_val(self.block_terminals.as_slice())
            + std::mem::size_of_val(self.block_externals.as_slice())
            + std::mem::size_of_val(self.span.as_slice())
            + self.counts.bytes()) as u64
    }

    /// Whether [`Self::approx_bytes`] is within the dense budget plus 32
    /// bytes per node, net, pin and block: the bound that holds at any k.
    fn within_byte_bound(&self) -> bool {
        let g = self.graph;
        let linear = 32 * (g.node_count() + g.net_count() + g.pin_count() + self.k);
        self.approx_bytes() <= (std::mem::size_of::<Self>() + DENSE_BUDGET_BYTES + linear) as u64
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
    ///
    /// A dense state whose matrix needs a wider stride doubles it while
    /// the wider matrix fits the 2 MiB dense budget; past it the state
    /// turns compact, once, and stays so.
    pub fn add_block(&mut self) -> usize {
        let b = self.k;
        self.k += 1;
        self.block_sizes.push(0);
        self.block_terminals.push(0);
        self.block_externals.push(0);
        let nets = self.graph.net_count();
        if let PinCounts::Dense { counts, stride } = &mut self.counts {
            if self.k > *stride {
                if fits_dense(nets, *stride * 2) {
                    let new_stride = *stride * 2;
                    let mut wider = vec![0u32; nets * new_stride];
                    for (new, old) in
                        wider.chunks_exact_mut(new_stride).zip(counts.chunks_exact(*stride))
                    {
                        new[..*stride].copy_from_slice(old);
                    }
                    *counts = wider;
                    *stride = new_stride;
                } else {
                    self.counts = PinCounts::Compact(Compact::new(self.graph));
                    self.recount();
                }
            }
        }
        debug_assert!(self.within_byte_bound());
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
            let span0 = self.span[net.index()];
            let (da0, db0) =
                self.counts.move_pin(net.index(), &mut self.span[net.index()], from, to);
            let span1 = self.span[net.index()];

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

    /// Recomputes every counter from the assignment in O(pins + k) after
    /// clearing the pin counts; used at construction and by
    /// [`Self::assert_consistent`].
    pub fn recount(&mut self) {
        self.block_sizes.iter_mut().for_each(|s| *s = 0);
        self.block_terminals.iter_mut().for_each(|t| *t = 0);
        self.block_externals.iter_mut().for_each(|t| *t = 0);
        self.counts.clear();
        self.cut_nets = 0;

        for v in self.graph.node_ids() {
            self.block_sizes[self.assignment[v.index()] as usize] +=
                u64::from(self.graph.node_size(v));
        }
        // One net's pins per block, and the blocks it touches in the
        // order their count leaves 0.
        let mut pins = vec![0u32; self.k];
        let mut touched: Vec<usize> = Vec::new();
        for e in self.graph.net_ids() {
            touched.clear();
            for &p in self.graph.pins(e) {
                let b = self.assignment[p.index()] as usize;
                if pins[b] == 0 {
                    touched.push(b);
                }
                pins[b] += 1;
            }
            self.counts.set_net(e.index(), &touched, &pins);
            let span = touched.len() as u32;
            self.span[e.index()] = span;
            if span >= 2 {
                self.cut_nets += 1;
            }
            let term_count = self.graph.net_terminal_count(e);
            let exposed = span >= 2 || term_count > 0;
            for &b in &touched {
                pins[b] = 0;
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
    /// Pin counts are compared net by net as sorted `(block, pins)` lists,
    /// so the order of a compact net's entries does not matter.
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
        for e in 0..self.graph.net_count() {
            assert_eq!(
                self.counts.sorted_net(&self.span, self.k, e),
                fresh.counts.sorted_net(&fresh.span, fresh.k, e),
                "pin counts of net {e} diverged"
            );
        }
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
        let b2 = s.add_block(); // widens the dense stride (1 → 2 → 4)
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

    /// `nets` nets over `nodes` unit cells: net `e` holds the `degree(e)`
    /// consecutive cells from `e` on, wrapping around.
    fn ring(nodes: usize, nets: usize, degree: impl Fn(usize) -> usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<NodeId> = (0..nodes).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        for e in 0..nets {
            b.add_net(format!("e{e}"), (0..degree(e)).map(|j| n[(e + j) % nodes])).unwrap();
        }
        b.finish().unwrap()
    }

    fn is_compact(s: &PartitionState<'_>) -> bool {
        matches!(s.counts, PinCounts::Compact(_))
    }

    #[test]
    fn pins_in_a_block_the_state_lacks_read_zero() {
        let g = sample();
        // Stride 2: block 2 of net e0 is the first column of net e1's row,
        // and block 2 of the last net lies past the matrix.
        let s = PartitionState::from_assignment(&g, vec![0, 0, 1, 1], 2);
        for e in g.net_ids() {
            for b in 2..6 {
                assert_eq!(s.net_pins_in(e, b), 0, "net {e:?} block {b}");
            }
        }
    }

    /// The compact layout against the dense one under the same moves,
    /// on nets of up to 7 pins, so nets of 3 blocks or more use their
    /// overflow slots and give them back.
    #[test]
    fn compact_and_dense_counts_agree_under_moves() {
        let g = ring(12, 15, |e| 2 + e % 6);
        let k = 5;
        let assignment: Vec<u32> = (0..12).map(|i| (i * 7 % k) as u32).collect();
        let mut dense = PartitionState::from_assignment(&g, assignment, k);
        let mut compact = dense.clone();
        compact.counts = PinCounts::Compact(Compact::new(&g));
        compact.recount();
        assert!(!is_compact(&dense) && is_compact(&compact));
        let (mut dense_blocks, mut compact_blocks) = (Vec::new(), Vec::new());
        let mut x = 1u64;
        for step in 0..400 {
            // xorshift: any fixed sequence that mixes nodes and blocks.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let node = NodeId::from_index(x as usize % 12);
            let to = (x >> 32) as usize % k;
            dense.move_node(node, to);
            compact.move_node(node, to);
            for e in g.net_ids() {
                assert_eq!(dense.net_span(e), compact.net_span(e), "step {step} net {e:?}");
                dense.net_blocks_into(e, &mut dense_blocks);
                compact.net_blocks_into(e, &mut compact_blocks);
                assert_eq!(dense_blocks, compact_blocks, "step {step} net {e:?}");
                for b in 0..=k {
                    assert_eq!(dense.net_pins_in(e, b), compact.net_pins_in(e, b));
                    let pair = (dense.net_pins_in(e, b % k), dense.net_pins_in(e, (b + 2) % k));
                    assert_eq!(compact.net_pins_in_pair(e, b % k, (b + 2) % k), pair);
                }
            }
            assert_eq!(dense.terminal_sum(), compact.terminal_sum());
            assert_eq!(dense.cut_count(), compact.cut_count());
        }
        compact.assert_consistent();
        dense.assert_consistent();
    }

    #[test]
    fn add_block_turns_compact_past_the_dense_budget() {
        // 20,000 nets: a stride of 16 is 1.25 MiB, one of 32 is 2.5 MiB.
        let g = ring(5_000, 20_000, |e| 2 + e % 4);
        let assignment: Vec<u32> = (0..5_000).map(|i| i % 16).collect();
        let mut s = PartitionState::from_assignment(&g, assignment, 16);
        assert!(!is_compact(&s));
        let before: Vec<Vec<u32>> =
            g.net_ids().map(|e| (0..16).map(|b| s.net_pins_in(e, b)).collect()).collect();
        s.add_block();
        assert!(is_compact(&s), "17 blocks need a stride of 32");
        for (e, counts) in g.net_ids().zip(&before) {
            assert_eq!(&(0..16).map(|b| s.net_pins_in(e, b)).collect::<Vec<_>>(), counts);
        }
        s.move_node(NodeId::from_index(7), 16);
        s.assert_consistent();
        assert_eq!(s.block_size(16), 1);
        // A state built at this k starts compact, a smaller one dense.
        let assignment = s.assignment().to_vec();
        assert!(is_compact(&PartitionState::from_assignment(&g, assignment, 17)));
        assert!(!is_compact(&PartitionState::single_block(&g)));
    }

    #[test]
    fn compact_bytes_grow_with_k_not_with_nets_times_k() {
        // Past the dense budget even at k = 2: 2^18 + 1 nets of 2 pins.
        let n = (1 << 18) + 1;
        let g = ring(n, n, |_| 2);
        let at = |k: u32| {
            PartitionState::from_assignment(&g, (0..n as u32).map(|i| i % k).collect(), k as usize)
        };
        let (small, large) = (at(2), at(512));
        assert!(is_compact(&small) && is_compact(&large));
        let grown = large.approx_bytes() - small.approx_bytes();
        // Three per-block counters per added block; a dense matrix would
        // have grown by nets × 510 × 4 bytes.
        let per_block = std::mem::size_of::<u64>() + 2 * std::mem::size_of::<usize>();
        assert_eq!(grown, (per_block * 510) as u64);
        assert!(large.approx_bytes() < 64 * n as u64);
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
