//! Connectivity clustering (coarsening) of circuit hypergraphs.
//!
//! Clustering is one of the classical FM quality levers the paper's
//! introduction surveys (Hagen/Huang/Kahng, Hauck/Borriello): matching
//! strongly connected cells into clusters shrinks the problem, a
//! partitioner runs on the coarse hypergraph, and the solution is
//! projected back for refinement on the original circuit.
//!
//! The matcher is heavy-edge style: cells are merged with their
//! most-connected neighbour (connectivity = Σ 1/(|e|−1) over shared
//! nets), subject to a cluster size cap, in three deterministic phases:
//!
//! 1. **Propose** — every cell independently scores all neighbours
//!    against the round-start snapshot (nobody matched yet) and records
//!    its best size-feasible candidate. Proposals are independent per
//!    cell, so this phase shards over contiguous node ranges and runs on
//!    worker threads; the output slots are disjoint, which makes the
//!    result bit-identical at any thread count.
//! 2. **Commit** — proposals are committed serially in a seeded shuffled
//!    order: a pair merges iff both endpoints are still unmatched.
//! 3. **Leftover** — cells whose proposal was taken are rescored against
//!    the remaining unmatched cells, serially, in the same shuffled
//!    order (the classic sequential matcher restricted to leftovers).
//!
//! Net projection onto the coarse graph is likewise split: the per-net
//! pin mapping (map + sort + dedup, the expensive part) is sharded over
//! worker threads, each net working in its own span of one flat buffer,
//! and only the write of the coarse arrays walks nets serially in index
//! order. The coarse graph is written directly into its flat arrays and
//! name tables, so a level costs a constant number of allocations, not
//! one per coarse node or net.

use crate::graph::{Hypergraph, NameTable};
use crate::ids::{NetId, NodeId};
use crate::rng::StdRng;

/// A coarsened hypergraph together with the fine → coarse mapping.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// The clustered hypergraph. Cluster sizes are the sums of their
    /// members' sizes; nets are projected (duplicate pins collapsed) and
    /// nets falling entirely inside one cluster without terminals are
    /// dropped.
    pub coarse: Hypergraph,
    /// `map[fine_node] = coarse_node`.
    pub map: Vec<NodeId>,
}

impl Coarsening {
    /// Estimated heap footprint of this level in bytes: the coarse
    /// graph ([`Hypergraph::approx_bytes`]) plus the projection map.
    /// The byte-budgeted coarsener charges this per level.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        self.coarse.approx_bytes() + std::mem::size_of_val(self.map.as_slice()) as u64
    }

    /// Projects a coarse per-node block assignment back onto the fine
    /// hypergraph.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_assignment` does not cover the coarse graph.
    #[must_use]
    pub fn project(&self, coarse_assignment: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.project_into(coarse_assignment, &mut out);
        out
    }

    /// [`Coarsening::project`] into a caller-owned buffer, so an n-level
    /// uncoarsening sweep reuses two assignment buffers instead of
    /// allocating one per level.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_assignment` does not cover the coarse graph.
    pub fn project_into(&self, coarse_assignment: &[u32], out: &mut Vec<u32>) {
        assert_eq!(
            coarse_assignment.len(),
            self.coarse.node_count(),
            "assignment must cover the coarse graph"
        );
        out.clear();
        out.extend(self.map.iter().map(|c| coarse_assignment[c.index()]));
    }

    /// Coarsening ratio `fine nodes / coarse nodes`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.coarse.node_count() == 0 {
            return 1.0;
        }
        self.map.len() as f64 / self.coarse.node_count() as f64
    }
}

/// Clusters `graph` by heavy-edge matching with the given cluster size
/// cap, deterministically from `seed`, on one worker.
///
/// Pass `max_cluster_size ≥` twice the max node size to allow any pair
/// to merge; the device size is a natural cap (a cluster larger than the
/// device could never be placed).
///
/// # Panics
///
/// Panics if `max_cluster_size == 0`.
#[must_use]
pub fn coarsen_by_connectivity(graph: &Hypergraph, max_cluster_size: u64, seed: u64) -> Coarsening {
    match_level(graph, max_cluster_size, seed, 1)
}

/// Splits `slots` into at most `threads` contiguous chunks and runs
/// `work(start_index, chunk)` on each, on scoped worker threads when
/// more than one chunk exists. Chunks are disjoint and the split depends
/// only on the slot count, so results never depend on thread count —
/// this is the hypergraph crate's local analogue of the core crate's
/// deterministic `run_indexed` fan-out (the dependency points the other
/// way, so it cannot be reused here).
fn sharded<T: Send>(slots: &mut [T], threads: usize, work: &(dyn Fn(usize, &mut [T]) + Sync)) {
    let threads = threads.max(1).min(slots.len().max(1));
    if threads == 1 {
        work(0, slots);
        return;
    }
    let chunk = slots.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (i, shard) in slots.chunks_mut(chunk).enumerate() {
            scope.spawn(move || work(i * chunk, shard));
        }
    });
}

/// Phase 1 worker: for each node in `out`'s range, score every
/// neighbour (round-start snapshot: nobody is matched) and record the
/// best size-feasible candidate. Ties break toward the smaller node
/// index, a total order, so the result is independent of scan order and
/// of how the range was sharded.
fn propose_range(
    graph: &Hypergraph,
    max_cluster_size: u64,
    start: usize,
    out: &mut [Option<NodeId>],
) {
    let n = graph.node_count();
    let mut connectivity = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    for (offset, slot) in out.iter_mut().enumerate() {
        let v = NodeId::from_index(start + offset);
        touched.clear();
        for &net in graph.nets(v) {
            let pins = graph.pins(net);
            if pins.len() < 2 {
                continue;
            }
            let w = 1.0 / (pins.len() as f64 - 1.0);
            for &u in pins {
                if u != v {
                    if connectivity[u.index()] == 0.0 {
                        touched.push(u.index());
                    }
                    connectivity[u.index()] += w;
                }
            }
        }
        let v_size = u64::from(graph.node_size(v));
        *slot = touched
            .iter()
            .copied()
            .filter(|&u| {
                v_size + u64::from(graph.node_size(NodeId::from_index(u))) <= max_cluster_size
            })
            .max_by(|&a, &b| connectivity[a].total_cmp(&connectivity[b]).then_with(|| b.cmp(&a)))
            .map(NodeId::from_index);
        for &u in &touched {
            connectivity[u] = 0.0;
        }
    }
}

/// [`coarsen_by_connectivity`] with `threads` workers for the propose
/// and net-projection phases. The result is bit-identical for every
/// `threads` value (the parallel phases write disjoint slots whose
/// contents do not depend on the sharding; all commits are serial), so
/// callers may size the pool freely without changing partitions.
fn match_level(graph: &Hypergraph, max_cluster_size: u64, seed: u64, threads: usize) -> Coarsening {
    assert!(max_cluster_size > 0, "cluster size cap must be positive");
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    // Phase 1: parallel proposals against the all-unmatched snapshot.
    let mut proposal: Vec<Option<NodeId>> = vec![None; n];
    sharded(&mut proposal, threads, &|start, shard| {
        propose_range(graph, max_cluster_size, start, shard);
    });

    // Phase 2: serial commit in shuffled order. A proposal lands iff
    // both endpoints are still unmatched when its proposer is visited.
    let mut matched = vec![false; n];
    let mut absorbed = vec![false; n];
    let mut partner: Vec<Option<NodeId>> = vec![None; n];
    for &v_idx in &order {
        if matched[v_idx] {
            continue;
        }
        if let Some(u) = proposal[v_idx] {
            if !matched[u.index()] {
                matched[v_idx] = true;
                matched[u.index()] = true;
                absorbed[u.index()] = true;
                partner[v_idx] = Some(u);
            }
        }
    }

    // Phase 3: serial leftover matching. Cells whose candidate was taken
    // rescore against the remaining unmatched cells in the same order.
    let mut connectivity = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    for &v_idx in &order {
        if matched[v_idx] {
            continue;
        }
        let v = NodeId::from_index(v_idx);
        touched.clear();
        for &net in graph.nets(v) {
            let pins = graph.pins(net);
            if pins.len() < 2 {
                continue;
            }
            let w = 1.0 / (pins.len() as f64 - 1.0);
            for &u in pins {
                if u != v && !matched[u.index()] {
                    if connectivity[u.index()] == 0.0 {
                        touched.push(u.index());
                    }
                    connectivity[u.index()] += w;
                }
            }
        }
        let v_size = u64::from(graph.node_size(v));
        let best = touched
            .iter()
            .copied()
            .filter(|&u| {
                v_size + u64::from(graph.node_size(NodeId::from_index(u))) <= max_cluster_size
            })
            .max_by(|&a, &b| connectivity[a].total_cmp(&connectivity[b]).then_with(|| b.cmp(&a)));
        for &u in &touched {
            connectivity[u] = 0.0;
        }
        matched[v_idx] = true;
        if let Some(u) = best {
            matched[u] = true;
            absorbed[u] = true;
            partner[v_idx] = Some(NodeId::from_index(u));
        }
    }

    // Assign cluster ids in the order of each cluster's unabsorbed node
    // and name them `c0`, `c1`, ...
    let clusters = n - partner.iter().flatten().count();
    let digits = clusters.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut node_names = NameTable::with_capacity(clusters, clusters * (1 + digits));
    let mut node_sizes = Vec::with_capacity(clusters);
    let mut map = vec![NodeId::from_index(0); n];
    for v_idx in 0..n {
        if absorbed[v_idx] {
            continue;
        }
        let id = NodeId::from_index(node_sizes.len());
        let mut size = graph.node_size(NodeId::from_index(v_idx));
        map[v_idx] = id;
        if let Some(u) = partner[v_idx] {
            size += graph.node_size(u);
            map[u.index()] = id;
        }
        node_names.push_fmt(format_args!("c{}", id.index()));
        node_sizes.push(size);
    }

    // Project nets: map every pin to its cluster, then sort and dedup
    // each net's span of the mapped buffer in place, shrinking the span
    // to its distinct clusters. Coarse node ids are already final, so
    // projection is independent per net and shards over workers.
    let mut mapped: Vec<NodeId> = graph.net_pins.iter().map(|p| map[p.index()]).collect();
    let mut spans: Vec<&mut [NodeId]> = Vec::with_capacity(graph.net_count());
    let mut rest = mapped.as_mut_slice();
    for net in graph.net_ids() {
        let (span, tail) = std::mem::take(&mut rest).split_at_mut(graph.pins(net).len());
        spans.push(span);
        rest = tail;
    }
    sharded(&mut spans, threads, &|_, shard| {
        for span in shard {
            span.sort_unstable();
            let distinct = dedup_sorted(span);
            *span = &mut std::mem::take(span)[..distinct];
        }
    });

    // A net absorbed inside one cluster with no terminal is dropped.
    let kept = || {
        graph
            .net_ids()
            .zip(&spans)
            .filter(|(net, pins)| pins.len() >= 2 || graph.net_has_terminal(*net))
    };
    let (mut nets, mut pins, mut bytes) = (0, 0, 0);
    for (net, span) in kept() {
        nets += 1;
        pins += span.len();
        bytes += graph.net_name(net).len();
    }
    let mut net_names = NameTable::with_capacity(nets, bytes);
    let mut net_pin_offsets = Vec::with_capacity(nets + 1);
    net_pin_offsets.push(0u32);
    let mut net_pins = Vec::with_capacity(pins);
    let terminals = graph.terminal_count();
    let mut terminal_names = NameTable::with_capacity(terminals, graph.terminal_names.text_len());
    let mut terminal_nets = Vec::with_capacity(terminals);
    for (net, span) in kept() {
        let id = NetId::from_index(net_names.len());
        net_names.push(graph.net_name(net));
        net_pins.extend_from_slice(span);
        net_pin_offsets.push(net_pins.len() as u32);
        for &t in graph.net_terminals(net) {
            terminal_names.push(graph.terminal_name(t));
            terminal_nets.push(id);
        }
    }

    let coarse = Hypergraph::from_parts(
        format!("{}_coarse", graph.name()),
        node_names,
        node_sizes,
        net_names,
        (net_pin_offsets, net_pins),
        terminal_names,
        terminal_nets,
    );
    Coarsening { coarse, map }
}

/// Moves the distinct values of the sorted `span` to its front and
/// returns how many there are.
fn dedup_sorted(span: &mut [NodeId]) -> usize {
    let mut distinct = 0;
    for i in 0..span.len() {
        if distinct == 0 || span[i] != span[distinct - 1] {
            span[distinct] = span[i];
            distinct += 1;
        }
    }
    distinct
}

/// A full n-level coarsening hierarchy: `levels[0]` clusters the input
/// hypergraph, `levels[i]` clusters `levels[i-1].coarse`. Produced by
/// [`coarsen_to_floor`], consumed finest-to-coarsest on the way down and
/// coarsest-to-finest during uncoarsening.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// The coarsening levels, finest first. Empty when the input was
    /// already at or below the floor (partition the input directly).
    pub levels: Vec<Coarsening>,
}

impl Hierarchy {
    /// Number of coarsening levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The coarsest hypergraph, or `None` when no coarsening happened.
    #[must_use]
    pub fn coarsest(&self) -> Option<&Hypergraph> {
        self.levels.last().map(|c| &c.coarse)
    }

    /// Projects an assignment of the coarsest hypergraph all the way
    /// down to the input hypergraph (no per-level refinement; used to
    /// finish a budget-stopped uncoarsening cheaply).
    ///
    /// # Panics
    ///
    /// Panics if `coarse_assignment` does not cover the coarsest graph.
    #[must_use]
    pub fn project_to_finest(&self, coarse_assignment: &[u32]) -> Vec<u32> {
        let mut cur = coarse_assignment.to_vec();
        let mut next = Vec::new();
        for level in self.levels.iter().rev() {
            level.project_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

/// Coarsening saturates when a level shrinks the node count by less than
/// this ratio: further matching rounds would only add projection cost.
const SATURATION_RATIO: f64 = 1.05;

/// Builds an n-level coarsening [`Hierarchy`] by repeated heavy-edge
/// matching until the node count drops to `floor`, matching saturates
/// (a level shrinks by less than 5%), or `max_levels` is reached.
///
/// Each level derives its matching order from `seed ^ level`, so the
/// hierarchy is deterministic for a given `(graph, cap, floor, seed)`.
/// This is [`coarsen_to_floor_budgeted`] on one worker, with no byte cap
/// and no profiling callback.
///
/// # Panics
///
/// Panics if `max_cluster_size == 0`.
#[must_use]
pub fn coarsen_to_floor(
    graph: &Hypergraph,
    max_cluster_size: u64,
    floor: usize,
    max_levels: usize,
    seed: u64,
) -> Hierarchy {
    coarsen_to_floor_budgeted(graph, max_cluster_size, floor, max_levels, seed, 1, None, None).0
}

/// Per-level profiling callback for [`coarsen_to_floor_budgeted`]: level
/// index, the level's coarsening, and its wall time.
pub type OnLevel<'a> = &'a mut dyn FnMut(usize, &Coarsening, std::time::Duration);

/// [`coarsen_to_floor`] with `threads` workers per level, an
/// estimated-byte cap on the whole hierarchy (input graph + every kept
/// level's coarse graph and projection map, via
/// [`Hypergraph::approx_bytes`]) and an optional per-level profiling
/// callback.
///
/// The hierarchy is bit-identical for every `threads` value (each
/// level's parallel phases write disjoint slots; all commits are
/// serial).
///
/// When the next level would push the estimate past `max_bytes`, that
/// level is discarded and coarsening stops at the current depth; the
/// second return value reports whether the cap truncated the hierarchy.
/// The estimate is a deterministic function of the input and the
/// parameters — never of the allocator or thread count — so budgeted
/// runs stay bit-identical and checkpoint-safe.
///
/// `on_level` is invoked once per **kept** level with the level index,
/// the level's coarsening, and its wall time. The clock is read only
/// when a callback is supplied; the callback can never change the
/// hierarchy.
///
/// # Panics
///
/// Panics if `max_cluster_size == 0`.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn coarsen_to_floor_budgeted(
    graph: &Hypergraph,
    max_cluster_size: u64,
    floor: usize,
    max_levels: usize,
    seed: u64,
    threads: usize,
    max_bytes: Option<u64>,
    mut on_level: Option<OnLevel<'_>>,
) -> (Hierarchy, bool) {
    let mut hierarchy = Hierarchy::default();
    let mut bytes = graph.approx_bytes();
    let mut truncated = false;
    for level in 0..max_levels {
        let current = hierarchy.coarsest().unwrap_or(graph);
        if current.node_count() <= floor {
            break;
        }
        let started = on_level.is_some().then(std::time::Instant::now);
        let coarsening = match_level(current, max_cluster_size, seed ^ level as u64, threads);
        if coarsening.ratio() < SATURATION_RATIO {
            break;
        }
        if let Some(cap) = max_bytes {
            let level_bytes = coarsening.approx_bytes();
            if bytes.saturating_add(level_bytes) > cap {
                truncated = true;
                break;
            }
            bytes += level_bytes;
        }
        if let (Some(on_level), Some(started)) = (on_level.as_deref_mut(), started) {
            on_level(level, &coarsening, started.elapsed());
        }
        hierarchy.levels.push(coarsening);
    }
    (hierarchy, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{clustered_circuit, window_circuit, ClusteredConfig, WindowConfig};

    #[test]
    fn coarsening_halves_node_count_roughly() {
        let g = window_circuit(&WindowConfig::new("w", 400, 20), 3);
        let c = coarsen_by_connectivity(&g, 4, 7);
        assert!(c.coarse.node_count() < g.node_count());
        assert!(c.coarse.node_count() >= g.node_count() / 2);
        assert!(c.ratio() > 1.0 && c.ratio() <= 2.0);
    }

    #[test]
    fn sizes_are_conserved() {
        let g = window_circuit(&WindowConfig::new("w", 200, 10), 5);
        let c = coarsen_by_connectivity(&g, 8, 1);
        assert_eq!(c.coarse.total_size(), g.total_size());
    }

    #[test]
    fn terminals_survive_coarsening() {
        let g = window_circuit(&WindowConfig::new("w", 150, 12), 9);
        let c = coarsen_by_connectivity(&g, 4, 2);
        assert_eq!(c.coarse.terminal_count(), g.terminal_count());
    }

    #[test]
    fn cluster_size_cap_is_respected() {
        let mut cfg = WindowConfig::new("w", 200, 10);
        cfg.extra_size_prob = 0.5;
        let g = window_circuit(&cfg, 4);
        let cap = 6u64;
        let c = coarsen_by_connectivity(&g, cap, 3);
        for v in c.coarse.node_ids() {
            // A singleton larger than the cap may exist (it was never
            // merged); merged clusters respect the cap.
            let size = u64::from(c.coarse.node_size(v));
            let max_fine = g.node_ids().map(|f| u64::from(g.node_size(f))).max().unwrap_or(1);
            assert!(size <= cap.max(max_fine), "cluster {v:?} has size {size}");
        }
    }

    #[test]
    fn projection_inverts_mapping() {
        let g = window_circuit(&WindowConfig::new("w", 100, 8), 11);
        let c = coarsen_by_connectivity(&g, 4, 5);
        let coarse_assignment: Vec<u32> =
            (0..c.coarse.node_count() as u32).map(|i| i % 3).collect();
        let fine = c.project(&coarse_assignment);
        assert_eq!(fine.len(), g.node_count());
        for v in g.node_ids() {
            assert_eq!(fine[v.index()], coarse_assignment[c.map[v.index()].index()]);
        }
    }

    #[test]
    fn planted_clusters_merge_internally() {
        // Heavy-edge matching on a planted circuit should merge within
        // clusters far more often than across.
        let (g, planted) = clustered_circuit(&ClusteredConfig::new("cl", 4, 20), 13);
        let c = coarsen_by_connectivity(&g, 2, 1);
        let mut cross = 0usize;
        let mut total = 0usize;
        // Two fine nodes sharing a coarse node: same planted cluster?
        for a in g.node_ids() {
            for b in g.node_ids() {
                if a < b && c.map[a.index()] == c.map[b.index()] {
                    total += 1;
                    if planted[a.index()] != planted[b.index()] {
                        cross += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            (cross as f64) < 0.2 * total as f64,
            "{cross}/{total} merges crossed planted clusters"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = window_circuit(&WindowConfig::new("w", 120, 8), 2);
        let a = coarsen_by_connectivity(&g, 4, 9);
        let b = coarsen_by_connectivity(&g, 4, 9);
        assert_eq!(a.map, b.map);
        assert_eq!(a.coarse.node_count(), b.coarse.node_count());
    }

    #[test]
    fn bit_identical_at_any_thread_count() {
        let g = window_circuit(&WindowConfig::new("w", 300, 16), 6);
        let serial = coarsen_by_connectivity(&g, 6, 31);
        for threads in 2..=5 {
            let par = match_level(&g, 6, 31, threads);
            assert_eq!(par.map, serial.map, "{threads} threads changed the matching");
            assert_eq!(par.coarse.node_count(), serial.coarse.node_count());
            assert_eq!(par.coarse.net_count(), serial.coarse.net_count());
            for net in serial.coarse.net_ids() {
                assert_eq!(par.coarse.pins(net), serial.coarse.pins(net));
            }
        }
    }

    #[test]
    fn hierarchy_bit_identical_at_any_thread_count() {
        let g = window_circuit(&WindowConfig::new("w", 500, 20), 6);
        let serial = coarsen_to_floor(&g, 8, 40, 32, 11);
        for threads in [2, 4] {
            let par = coarsen_to_floor_budgeted(&g, 8, 40, 32, 11, threads, None, None).0;
            assert_eq!(par.level_count(), serial.level_count());
            for (a, b) in par.levels.iter().zip(&serial.levels) {
                assert_eq!(a.map, b.map);
                assert_eq!(a.coarse.node_count(), b.coarse.node_count());
            }
        }
    }

    #[test]
    fn hierarchy_reaches_floor_or_saturates() {
        let g = window_circuit(&WindowConfig::new("w", 600, 24), 17);
        let h = coarsen_to_floor(&g, 8, 50, 32, 5);
        assert!(h.level_count() >= 2, "600 nodes should coarsen more than once");
        let coarsest = h.coarsest().expect("levels exist");
        // Either the floor was reached or the next level would saturate.
        if coarsest.node_count() > 50 {
            let next = coarsen_by_connectivity(coarsest, 8, 5 ^ h.level_count() as u64);
            assert!(next.ratio() < 1.05, "stopped early without saturation");
        }
        // Node counts strictly decrease through the hierarchy.
        let mut prev = g.node_count();
        for level in &h.levels {
            assert!(level.coarse.node_count() < prev);
            assert_eq!(level.map.len(), prev);
            prev = level.coarse.node_count();
        }
        // Sizes are conserved end to end.
        assert_eq!(coarsest.total_size(), g.total_size());
    }

    #[test]
    fn hierarchy_is_empty_at_or_below_floor() {
        let g = window_circuit(&WindowConfig::new("w", 40, 6), 1);
        let h = coarsen_to_floor(&g, 8, 40, 32, 3);
        assert_eq!(h.level_count(), 0);
        assert!(h.coarsest().is_none());
        // Projection through an empty hierarchy is the identity.
        let assignment: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 4).collect();
        assert_eq!(h.project_to_finest(&assignment), assignment);
    }

    #[test]
    fn hierarchy_projection_matches_per_level_projection() {
        let g = window_circuit(&WindowConfig::new("w", 300, 12), 23);
        let h = coarsen_to_floor(&g, 6, 30, 32, 9);
        assert!(h.level_count() >= 1);
        let coarsest = h.coarsest().unwrap();
        let coarse_assignment: Vec<u32> =
            (0..coarsest.node_count() as u32).map(|i| i % 5).collect();
        let direct = h.project_to_finest(&coarse_assignment);
        let mut expected = coarse_assignment.clone();
        for level in h.levels.iter().rev() {
            expected = level.project(&expected);
        }
        assert_eq!(direct, expected);
        assert_eq!(direct.len(), g.node_count());
    }

    #[test]
    fn project_into_reuses_buffer() {
        let g = window_circuit(&WindowConfig::new("w", 100, 8), 11);
        let c = coarsen_by_connectivity(&g, 4, 5);
        let coarse_assignment: Vec<u32> =
            (0..c.coarse.node_count() as u32).map(|i| i % 3).collect();
        let mut out = Vec::with_capacity(g.node_count());
        let cap = out.capacity();
        c.project_into(&coarse_assignment, &mut out);
        assert_eq!(out, c.project(&coarse_assignment));
        assert_eq!(out.capacity(), cap, "projection buffer reallocated");
    }

    #[test]
    fn empty_graph_coarsens_to_empty() {
        let g = crate::HypergraphBuilder::new().finish().unwrap();
        let c = coarsen_by_connectivity(&g, 4, 0);
        assert_eq!(c.coarse.node_count(), 0);
        assert_eq!(c.ratio(), 1.0);
    }
}
