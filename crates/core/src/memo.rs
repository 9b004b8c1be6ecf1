//! Fingerprint-keyed memoization: a transposition table for partitioning.
//!
//! Repeated and near-identical requests — a re-run of the same netlist,
//! a post-ECO repartition on a session that has seen the graph before —
//! redo two expensive artifacts from scratch: the coarsening
//! [`Hierarchy`] the n-level V-cycle builds once per restart, and the
//! restart search itself. This module caches both, keyed by the
//! zobrist-style [`Fingerprint`] from
//! [`fpart_hypergraph::fingerprint`]:
//!
//! * the **hierarchy cache** maps (graph fingerprint, order checksum,
//!   coarsening parameters) → the finished [`Hierarchy`], bounded by an
//!   entry count *and* an approximate-bytes budget (the same PR 7
//!   accounting the byte-budgeted coarsener charges per level);
//! * the **solution memo** maps a per-restart run key (graph, device
//!   constraints, normalized configuration, diversified seeds) → the
//!   restart's finished result (a [`SavedRestart`], the record a
//!   checkpoint keeps too), so an identical restart replays its result
//!   instead of searching again.
//!
//! Invalidation is automatic: any netlist edit changes the fingerprint
//! (maintained in O(edit) through [`fpart_hypergraph::apply_script`]),
//! so a stale entry can never be *addressed* — it just ages out of the
//! LRU. Because the XOR-composed fingerprint is insensitive to
//! insertion order while node/net ids are not, every key also carries
//! [`fpart_hypergraph::order_checksum`], which pins the id assignment
//! that all cached id-indexed artifacts depend on.
//!
//! Determinism contract: a memoized run must be bit-identical to the
//! cold run it replaces. Two rules enforce this:
//!
//! * solutions are stored and consulted only for runs with **no
//!   result-shaping budget** (no deadline, pass/move caps, or fault
//!   plan — see [`memoizable`]; a cancellation token is tolerated)
//!   whose completion was [`Complete`](crate::Completion::Complete);
//!   everything such a run produces is a pure function of its key;
//! * a memo hit is **verified** against the live graph before it is
//!   trusted (assignment coverage, block-id range, feasibility and cut
//!   cross-check), and falls back to the cold path on any mismatch, so
//!   even a 128-bit collision cannot degrade quality.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use fpart_device::DeviceConstraints;
use fpart_hypergraph::coarsen::Hierarchy;
use fpart_hypergraph::Fingerprint;

use crate::budget::RunBudget;
use crate::checkpoint::SavedRestart;
use crate::config::FpartConfig;
use crate::multilevel::MultilevelConfig;

/// Size bounds of a [`MemoStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// Maximum number of cached coarsening hierarchies.
    pub max_hierarchies: usize,
    /// Approximate-bytes budget across all cached hierarchies, using
    /// [`Hierarchy::approx_bytes`] — the same estimate the
    /// byte-budgeted coarsener charges per level.
    pub max_hierarchy_bytes: u64,
    /// Maximum number of memoized restart solutions.
    pub max_solutions: usize,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig { max_hierarchies: 64, max_hierarchy_bytes: 256 << 20, max_solutions: 4096 }
    }
}

/// Cumulative cache statistics, readable at any time via
/// [`MemoStore::stats`] and surfaced per run through the
/// [`Counter`](crate::Counter) set (`SCHEMA_VERSION` 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hierarchy-cache lookups that returned a cached hierarchy.
    pub hierarchy_hits: u64,
    /// Hierarchy-cache lookups that missed.
    pub hierarchy_misses: u64,
    /// Hierarchies evicted to honor the entry or byte bound.
    pub hierarchy_evictions: u64,
    /// Approximate bytes currently held by cached hierarchies.
    pub hierarchy_bytes: u64,
    /// Hierarchies currently cached.
    pub hierarchy_entries: u64,
    /// Solution-memo lookups that returned a stored solution.
    pub solution_hits: u64,
    /// Solution-memo lookups that missed.
    pub solution_misses: u64,
    /// Solutions evicted to honor the entry bound.
    pub solution_evictions: u64,
    /// Solutions currently memoized.
    pub solution_entries: u64,
}

/// Cache key of one coarsening hierarchy: the graph identity plus every
/// parameter [`coarsen_to_floor_budgeted`] derives the hierarchy from.
/// Worker threads are deliberately absent — the hierarchy is
/// thread-count invariant.
///
/// [`coarsen_to_floor_budgeted`]: fpart_hypergraph::coarsen::coarsen_to_floor_budgeted
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyKey {
    /// 128-bit content fingerprint of the input hypergraph.
    pub graph: Fingerprint,
    /// Insertion-order checksum pinning the node/net id assignment.
    pub order: u64,
    /// Cluster size cap.
    pub cap: u64,
    /// Coarsening floor.
    pub floor: usize,
    /// Hierarchy depth limit.
    pub max_levels: usize,
    /// Matching seed.
    pub seed: u64,
    /// Estimated-byte cap of hierarchy construction (part of the key:
    /// a tighter cap yields a shallower hierarchy).
    pub max_bytes: Option<u64>,
}

/// A cached coarsening hierarchy and whether the byte cap truncated it
/// (a truncated hierarchy degrades the run's completion, so replaying
/// the flag keeps cached and cold runs identical).
#[derive(Debug, Clone)]
pub struct CachedHierarchy {
    /// The finished hierarchy.
    pub hierarchy: Hierarchy,
    /// Whether [`MemoryBudget`](crate::MemoryBudget) stopped coarsening
    /// before the floor.
    pub truncated: bool,
}

struct HierarchyEntry {
    value: Arc<CachedHierarchy>,
    bytes: u64,
    last_used: u64,
}

struct SolutionEntry {
    value: Arc<SavedRestart>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    tick: u64,
    hierarchies: HashMap<HierarchyKey, HierarchyEntry>,
    hierarchy_bytes: u64,
    solutions: HashMap<Fingerprint, SolutionEntry>,
    stats: CacheStats,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Thread-safe fingerprint-keyed store shared across runs (and across a
/// server session's worker) via `Arc`. Lookups and insertions take a
/// single short-held mutex; cached hierarchies are handed out as `Arc`
/// clones, so a hit never copies the hierarchy itself.
pub struct MemoStore {
    config: MemoConfig,
    inner: Mutex<Inner>,
}

impl fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoStore").field("config", &self.config).finish_non_exhaustive()
    }
}

/// Identity comparison: two stores are "equal" only when they are the
/// same store. This is what makes `Option<Arc<MemoStore>>` usable
/// inside `PartialEq`-deriving configuration structs without comparing
/// cache contents (which never affect results).
impl PartialEq for MemoStore {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for MemoStore {}

impl Default for MemoStore {
    fn default() -> Self {
        MemoStore::new(MemoConfig::default())
    }
}

impl MemoStore {
    /// Creates an empty store with the given bounds.
    #[must_use]
    pub fn new(config: MemoConfig) -> MemoStore {
        MemoStore { config, inner: Mutex::new(Inner::default()) }
    }

    /// Creates an empty store with default bounds, ready to share.
    #[must_use]
    pub fn shared() -> Arc<MemoStore> {
        Arc::new(MemoStore::default())
    }

    /// The configured bounds.
    #[must_use]
    pub fn config(&self) -> MemoConfig {
        self.config
    }

    /// A snapshot of the cumulative cache statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("memo store poisoned");
        CacheStats {
            hierarchy_bytes: inner.hierarchy_bytes,
            hierarchy_entries: inner.hierarchies.len() as u64,
            solution_entries: inner.solutions.len() as u64,
            ..inner.stats
        }
    }

    /// Drops every cached hierarchy and solution (statistics survive).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("memo store poisoned");
        inner.hierarchies.clear();
        inner.hierarchy_bytes = 0;
        inner.solutions.clear();
    }

    /// Looks up a cached hierarchy, refreshing its LRU position.
    #[must_use]
    pub fn lookup_hierarchy(&self, key: &HierarchyKey) -> Option<Arc<CachedHierarchy>> {
        let mut inner = self.inner.lock().expect("memo store poisoned");
        let tick = inner.next_tick();
        if let Some(entry) = inner.hierarchies.get_mut(key) {
            entry.last_used = tick;
            let value = Arc::clone(&entry.value);
            inner.stats.hierarchy_hits += 1;
            Some(value)
        } else {
            inner.stats.hierarchy_misses += 1;
            None
        }
    }

    /// Inserts a hierarchy, evicting least-recently-used entries until
    /// both the entry bound and the byte budget hold. A hierarchy
    /// larger than the whole byte budget is not cached at all. Returns
    /// how many entries this insertion evicted.
    pub fn insert_hierarchy(&self, key: HierarchyKey, value: Arc<CachedHierarchy>) -> usize {
        let bytes = value.hierarchy.approx_bytes();
        if bytes > self.config.max_hierarchy_bytes || self.config.max_hierarchies == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("memo store poisoned");
        let tick = inner.next_tick();
        if let Some(old) =
            inner.hierarchies.insert(key, HierarchyEntry { value, bytes, last_used: tick })
        {
            inner.hierarchy_bytes -= old.bytes;
        }
        inner.hierarchy_bytes += bytes;
        let mut evictions = 0;
        while inner.hierarchies.len() > self.config.max_hierarchies
            || inner.hierarchy_bytes > self.config.max_hierarchy_bytes
        {
            let victim = inner
                .hierarchies
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(evicted) = inner.hierarchies.remove(&victim) {
                inner.hierarchy_bytes -= evicted.bytes;
                inner.stats.hierarchy_evictions += 1;
                evictions += 1;
            }
        }
        evictions
    }

    /// Looks up a memoized restart solution, refreshing its LRU
    /// position.
    #[must_use]
    pub fn lookup_solution(&self, key: Fingerprint) -> Option<Arc<SavedRestart>> {
        let mut inner = self.inner.lock().expect("memo store poisoned");
        let tick = inner.next_tick();
        if let Some(entry) = inner.solutions.get_mut(&key) {
            entry.last_used = tick;
            let value = Arc::clone(&entry.value);
            inner.stats.solution_hits += 1;
            Some(value)
        } else {
            inner.stats.solution_misses += 1;
            None
        }
    }

    /// Memoizes a restart solution, evicting the least-recently-used
    /// entry when the bound is reached. Returns how many entries this
    /// insertion evicted.
    pub fn insert_solution(&self, key: Fingerprint, value: SavedRestart) -> usize {
        if self.config.max_solutions == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("memo store poisoned");
        let tick = inner.next_tick();
        inner.solutions.insert(key, SolutionEntry { value: Arc::new(value), last_used: tick });
        let mut evictions = 0;
        while inner.solutions.len() > self.config.max_solutions {
            let victim = inner
                .solutions
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if inner.solutions.remove(&victim).is_some() {
                inner.stats.solution_evictions += 1;
                evictions += 1;
            }
        }
        evictions
    }
}

/// Whether a run may consult and feed the solution memo: only runs with
/// **no external budget of any kind** qualify, because only their
/// results are a pure function of the memo key. Hierarchy caching is
/// exempt from this test — the hierarchy never depends on the run
/// budget (the byte cap that can truncate it is part of the key).
#[must_use]
pub fn memoizable(config: &FpartConfig) -> bool {
    // A cancellation token is tolerated: only `Complete` outcomes are
    // ever stored, and a memo hit merely replaces a run that would
    // have completed with the identical result. Whether a token fires
    // before or during a particular run is wall-clock-racy by nature,
    // so serving the completed result instead is within the
    // cancellation contract. Deadlines and pass/move caps are not
    // tolerated — a capped run completes *degraded*, deterministically,
    // and a memo hit would wrongly upgrade it.
    config.budget.deadline.is_none()
        && config.budget.max_passes.is_none()
        && config.budget.max_moves.is_none()
        && config.fault_plan.is_none()
}

/// Builds the solution-memo key of one restart: the graph identity
/// (content fingerprint + id-order checksum) chained with the device
/// constraints and the *already diversified* per-restart configuration.
/// Thread counts, cancellation tokens, and the memo handle itself are
/// normalized out — none of them changes the restart's result.
#[must_use]
pub fn restart_solution_key(
    graph: Fingerprint,
    order: u64,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ml: &MultilevelConfig,
) -> Fingerprint {
    let normalized_config = FpartConfig {
        budget: RunBudget { cancel: None, ..config.budget.clone() },
        ..config.clone()
    };
    let normalized_ml = MultilevelConfig { threads: 1, memo: None, ..ml.clone() };
    graph
        .fold_u64(order)
        .fold_str("fpart-memo-restart-v1")
        .fold_str(&format!("{constraints:?}"))
        .fold_str(&format!("{normalized_config:?}"))
        .fold_str(&format!("{normalized_ml:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::coarsen::coarsen_to_floor;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};
    use fpart_hypergraph::{fingerprint_graph, order_checksum};

    fn hierarchy(n: usize, seed: u64) -> Hierarchy {
        let g = window_circuit(&WindowConfig::new("m", n, 8), seed);
        coarsen_to_floor(&g, 8, 16, 8, seed)
    }

    fn key(seed: u64) -> HierarchyKey {
        let g = window_circuit(&WindowConfig::new("m", 50, 8), seed);
        HierarchyKey {
            graph: fingerprint_graph(&g),
            order: order_checksum(&g),
            cap: 8,
            floor: 16,
            max_levels: 8,
            seed,
            max_bytes: None,
        }
    }

    #[test]
    fn hierarchy_roundtrip_and_stats() {
        let store = MemoStore::default();
        let k = key(1);
        assert!(store.lookup_hierarchy(&k).is_none());
        let h = Arc::new(CachedHierarchy { hierarchy: hierarchy(200, 1), truncated: false });
        store.insert_hierarchy(k, Arc::clone(&h));
        let hit = store.lookup_hierarchy(&k).expect("cached");
        assert_eq!(hit.hierarchy.level_count(), h.hierarchy.level_count());
        let stats = store.stats();
        assert_eq!(stats.hierarchy_hits, 1);
        assert_eq!(stats.hierarchy_misses, 1);
        assert_eq!(stats.hierarchy_entries, 1);
        assert!(stats.hierarchy_bytes > 0);
    }

    #[test]
    fn hierarchy_entry_bound_evicts_lru() {
        let store = MemoStore::new(MemoConfig { max_hierarchies: 2, ..MemoConfig::default() });
        let (k1, k2, k3) = (key(1), key(2), key(3));
        for k in [k1, k2, k3] {
            store.insert_hierarchy(
                k,
                Arc::new(CachedHierarchy { hierarchy: hierarchy(100, k.seed), truncated: false }),
            );
        }
        // k1 was least recently used, so it went first.
        assert!(store.lookup_hierarchy(&k1).is_none());
        assert!(store.lookup_hierarchy(&k2).is_some());
        assert!(store.lookup_hierarchy(&k3).is_some());
        assert_eq!(store.stats().hierarchy_evictions, 1);
    }

    #[test]
    fn hierarchy_byte_budget_evicts_and_rejects_oversized() {
        let h = hierarchy(300, 7);
        let bytes = h.approx_bytes();
        let store = MemoStore::new(MemoConfig {
            max_hierarchies: 16,
            max_hierarchy_bytes: bytes + bytes / 2,
            ..MemoConfig::default()
        });
        let (k1, k2) = (key(1), key(2));
        store.insert_hierarchy(
            k1,
            Arc::new(CachedHierarchy { hierarchy: h.clone(), truncated: false }),
        );
        store.insert_hierarchy(
            k2,
            Arc::new(CachedHierarchy { hierarchy: h.clone(), truncated: false }),
        );
        // Both together exceed the budget: the first is evicted.
        assert!(store.lookup_hierarchy(&k1).is_none());
        assert!(store.lookup_hierarchy(&k2).is_some());
        assert!(store.stats().hierarchy_bytes <= bytes + bytes / 2);

        // An entry larger than the whole budget is never cached.
        let tiny =
            MemoStore::new(MemoConfig { max_hierarchy_bytes: bytes - 1, ..MemoConfig::default() });
        tiny.insert_hierarchy(key(3), Arc::new(CachedHierarchy { hierarchy: h, truncated: false }));
        assert_eq!(tiny.stats().hierarchy_entries, 0);
    }

    #[test]
    fn solution_roundtrip_and_entry_bound() {
        let store = MemoStore::new(MemoConfig { max_solutions: 2, ..MemoConfig::default() });
        let sol = |seed: u64| SavedRestart {
            restart: 0,
            assignment: vec![0, 1, seed as u32],
            blocks: Vec::new(),
            device_count: 2,
            lower_bound: 1,
            feasible: true,
            cut: 1,
            iterations: 1,
            improve_calls: 1,
            total_moves: 3,
            completion: crate::Completion::Complete,
            counters: Vec::new(),
        };
        let keys: Vec<Fingerprint> = (1..=3).map(|s| Fingerprint::ZERO.fold_u64(s)).collect();
        for (i, k) in keys.iter().enumerate() {
            store.insert_solution(*k, sol(i as u64));
        }
        assert!(store.lookup_solution(keys[0]).is_none(), "LRU evicted");
        assert_eq!(store.lookup_solution(keys[2]).expect("kept").assignment, vec![0, 1, 2]);
        let stats = store.stats();
        assert_eq!(stats.solution_evictions, 1);
        assert_eq!(stats.solution_entries, 2);
    }

    #[test]
    fn restart_key_separates_inputs_and_ignores_threads() {
        let g = window_circuit(&WindowConfig::new("m", 60, 8), 1);
        let fp = fingerprint_graph(&g);
        let order = order_checksum(&g);
        let constraints = DeviceConstraints::new(64, 16);
        let config = FpartConfig::default();
        let ml = MultilevelConfig::default();
        let base = restart_solution_key(fp, order, constraints, &config, &ml);
        assert_eq!(base, restart_solution_key(fp, order, constraints, &config, &ml), "stable");
        let seeded = FpartConfig { seed: config.seed + 1, ..config.clone() };
        assert_ne!(base, restart_solution_key(fp, order, constraints, &seeded, &ml), "seed");
        let reseeded = MultilevelConfig { seed: ml.seed + 1, ..ml.clone() };
        assert_ne!(base, restart_solution_key(fp, order, constraints, &config, &reseeded));
        let threaded = MultilevelConfig { threads: ml.threads + 3, ..ml.clone() };
        assert_eq!(base, restart_solution_key(fp, order, constraints, &config, &threaded));
        let memoed = MultilevelConfig { memo: Some(MemoStore::shared()), ..ml.clone() };
        assert_eq!(base, restart_solution_key(fp, order, constraints, &config, &memoed));
        assert_ne!(
            base,
            restart_solution_key(fp.fold_u64(1), order, constraints, &config, &ml),
            "graph"
        );
        assert_ne!(base, restart_solution_key(fp, order ^ 1, constraints, &config, &ml), "order");
    }

    /// A never-hit store's cold-path cost, counted rather than timed:
    /// the search hashes the graph once for all of its restarts, and
    /// each restart misses each cache once.
    #[test]
    fn fresh_store_hashes_the_graph_once_per_search() {
        use crate::obs::Observer;
        use crate::run::GRAPH_KEYS;
        use crate::search::{search, Algorithm, Restarts};
        use fpart_device::DeviceConstraints;
        use std::cell::Cell;

        let g = window_circuit(&WindowConfig::new("m", 300, 12), 5);
        let store = MemoStore::shared();
        let ml = MultilevelConfig { memo: Some(store.clone()), ..MultilevelConfig::default() };
        let before = GRAPH_KEYS.with(Cell::get);
        search(
            &g,
            DeviceConstraints::new(40, 24),
            &FpartConfig::default(),
            Algorithm::Multilevel(&ml),
            &Restarts { count: 3, threads: 1, ..Restarts::default() },
            &mut Observer::none(),
        )
        .unwrap();
        assert_eq!(GRAPH_KEYS.with(Cell::get) - before, 1, "graph hashes per search");
        let stats = store.stats();
        assert_eq!((stats.hierarchy_misses, stats.solution_misses), (3, 3), "{stats:?}");
        assert_eq!((stats.hierarchy_hits, stats.solution_hits), (0, 0), "{stats:?}");
    }

    #[test]
    fn memoizable_requires_unlimited_budget_and_no_faults() {
        use crate::budget::{CancelToken, FaultPlan};
        use std::time::Duration;
        let config = FpartConfig::default();
        assert!(memoizable(&config));
        let deadline = FpartConfig {
            budget: RunBudget { deadline: Some(Duration::from_secs(1)), ..RunBudget::default() },
            ..config.clone()
        };
        assert!(!memoizable(&deadline));
        let capped = FpartConfig {
            budget: RunBudget { max_passes: Some(3), ..RunBudget::default() },
            ..config.clone()
        };
        assert!(!memoizable(&capped));
        let faulted =
            FpartConfig { fault_plan: Some(FaultPlan::panic_at(0, "boom")), ..config.clone() };
        assert!(!memoizable(&faulted));
        // A cancellation token alone does not disqualify: the server
        // always wires one, and only Complete outcomes are memoized.
        let cancellable = FpartConfig {
            budget: RunBudget { cancel: Some(CancelToken::new()), ..RunBudget::default() },
            ..config.clone()
        };
        assert!(memoizable(&cancellable));
    }
}
