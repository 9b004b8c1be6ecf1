//! Fingerprint-keyed memoization: a transposition table for restart
//! solutions.
//!
//! Repeated requests — a re-run of the same netlist, a reseeded request
//! on a server session whose graph has not changed — would redo a whole
//! n-level restart search. The **solution memo** maps a per-restart run
//! key (graph, device constraints, the normalized configuration the
//! restart reads, its matching seed) → the restart's finished result (a
//! [`SavedRestart`], the record a checkpoint keeps too), so an identical
//! restart replays its result instead of searching again. It is the
//! store's only cache: the V-cycle coarsens afresh on every run.
//!
//! The key holds only what a restart reads. Under the default
//! constructive initial partition no stage reads
//! [`FpartConfig::seed`], so the key leaves it out and a reseeded
//! request replays the cold run's result; the random-initial ablation
//! reads it, and keeps it in the key.
//!
//! The graph part of the key is [`fingerprint_graph`]: names, sizes,
//! pins and pads in id order, so it also pins the id assignment a stored
//! assignment depends on. A search hashes its graph at most once, when
//! its first restart that may use the memo needs the key. Invalidation
//! is automatic: any netlist edit changes the fingerprint, so a stale
//! entry can never be *addressed* — it just ages out of the LRU. The
//! store is bounded by an approximate-bytes budget charged per entry
//! (assignment, blocks and counters), not by an entry count, so the
//! bound holds whatever the graph's size.
//!
//! Determinism contract: a memoized run must be bit-identical to the
//! cold run it replaces. Two rules enforce this:
//!
//! * solutions are stored and consulted only for runs with **no
//!   result-shaping budget** (no deadline, pass/move caps, or fault
//!   plan; a cancellation token is tolerated) whose completion was
//!   [`Complete`](crate::Completion::Complete); everything such a run
//!   produces is a pure function of its key;
//! * a memo hit is **verified** against the live graph before it is
//!   trusted (assignment coverage, block-id range, feasibility and cut
//!   cross-check), and falls back to the cold path on any mismatch, so
//!   even a 128-bit collision cannot degrade quality.

use std::collections::HashMap;
use std::fmt;
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, Mutex};

use fpart_device::DeviceConstraints;
use fpart_hypergraph::{fingerprint_graph, Fingerprint, Hypergraph};

use crate::budget::RunBudget;
use crate::checkpoint::SavedRestart;
use crate::config::FpartConfig;
use crate::multilevel::MultilevelConfig;

/// Approximate-bytes budget of one store's memoized solutions.
const MAX_BYTES: u64 = 256 << 20;

/// Cumulative cache statistics, readable at any time via
/// [`MemoStore::stats`]; per run, replayed restarts count in
/// [`Counter::MemoWarmStarts`](crate::Counter::MemoWarmStarts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0. The coarsening-hierarchy cache this counted is gone;
    /// the field stays because readers of earlier statistics still
    /// name it.
    pub hierarchy_hits: u64,
    /// Always 0, like [`Self::hierarchy_hits`].
    pub hierarchy_misses: u64,
    /// Solution-memo lookups that returned a stored solution.
    pub solution_hits: u64,
    /// Solution-memo lookups that missed.
    pub solution_misses: u64,
    /// Solutions evicted to honor the byte budget.
    pub solution_evictions: u64,
    /// Solutions currently memoized.
    pub solution_entries: u64,
}

struct SolutionEntry {
    value: Arc<SavedRestart>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    tick: u64,
    solutions: HashMap<Fingerprint, SolutionEntry>,
    /// Approximate bytes held by `solutions`.
    bytes: u64,
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
/// single short-held mutex; stored solutions are handed out as `Arc`
/// clones, so a hit copies nothing until it is replayed.
pub struct MemoStore {
    max_bytes: u64,
    inner: Mutex<Inner>,
}

impl fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoStore").field("max_bytes", &self.max_bytes).finish_non_exhaustive()
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
        MemoStore { max_bytes: MAX_BYTES, inner: Mutex::new(Inner::default()) }
    }
}

impl MemoStore {
    /// Creates an empty store, ready to share.
    #[must_use]
    pub fn shared() -> Arc<MemoStore> {
        Arc::new(MemoStore::default())
    }

    /// An empty store holding at most `max_bytes` of solutions.
    #[cfg(test)]
    fn with_budget(max_bytes: u64) -> MemoStore {
        MemoStore { max_bytes, ..MemoStore::default() }
    }

    /// A snapshot of the cumulative cache statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("memo store poisoned");
        CacheStats { solution_entries: inner.solutions.len() as u64, ..inner.stats }
    }

    /// Looks up a memoized restart solution, refreshing its LRU
    /// position.
    pub(crate) fn lookup_solution(&self, key: Fingerprint) -> Option<Arc<SavedRestart>> {
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

    /// Memoizes a restart solution, evicting least-recently-used
    /// entries until the byte budget holds. A solution larger than the
    /// whole budget is not stored at all.
    pub(crate) fn insert_solution(&self, key: Fingerprint, value: SavedRestart) {
        let bytes = entry_bytes(&value);
        if bytes > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock().expect("memo store poisoned");
        let tick = inner.next_tick();
        let entry = SolutionEntry { value: Arc::new(value), bytes, last_used: tick };
        if let Some(old) = inner.solutions.insert(key, entry) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.max_bytes {
            // The new entry is the most recently used and fits the
            // budget alone, so an older victim always exists.
            let victim = inner
                .solutions
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("an older entry exists while over budget");
            let evicted = inner.solutions.remove(&victim).expect("the victim is stored");
            inner.bytes -= evicted.bytes;
            inner.stats.solution_evictions += 1;
        }
    }
}

/// What one stored solution costs against the byte budget: its
/// assignment, block reports and counter snapshot, plus the record
/// itself.
fn entry_bytes(saved: &SavedRestart) -> u64 {
    (size_of::<SavedRestart>()
        + size_of_val(saved.assignment.as_slice())
        + size_of_val(saved.blocks.as_slice())
        + size_of_val(saved.counters.as_slice())) as u64
}

/// The memoization identity of a search's input graph: its
/// [`fingerprint_graph`], one O(pins) pass. The restart search computes
/// it here, at most once for all of its restarts.
pub(crate) fn graph_key(graph: &Hypergraph) -> Fingerprint {
    #[cfg(test)]
    GRAPH_KEYS.with(|calls| calls.set(calls.get() + 1));
    fingerprint_graph(graph)
}

#[cfg(test)]
thread_local! {
    /// [`graph_key`] calls made on this thread.
    static GRAPH_KEYS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Whether a run may consult and feed the solution memo: only runs with
/// **no external budget of any kind** qualify, because only their
/// results are a pure function of the memo key.
pub(crate) fn memoizable(config: &FpartConfig) -> bool {
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

/// Builds the solution-memo key of one restart: the [`graph_key`]
/// chained with the device constraints and the *already diversified*
/// per-restart configuration.
/// Thread counts, cancellation tokens, the memo handle itself, and a
/// driver seed the run never reads are normalized out — none of them
/// changes the restart's result.
pub(crate) fn restart_solution_key(
    graph: Fingerprint,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    ml: &MultilevelConfig,
) -> Fingerprint {
    // Only the random initial peel reads the driver seed.
    let seed = if config.use_constructive_initial { 0 } else { config.seed };
    let normalized_config = FpartConfig {
        seed,
        budget: RunBudget { cancel: None, ..config.budget.clone() },
        ..config.clone()
    };
    let normalized_ml = MultilevelConfig { threads: 1, memo: None, ..ml.clone() };
    graph
        .fold_str("fpart-memo-restart-v1")
        .fold_str(&format!("{constraints:?}"))
        .fold_str(&format!("{normalized_config:?}"))
        .fold_str(&format!("{normalized_ml:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};

    /// A stored solution over `nodes` nodes whose first block id is
    /// `tag`.
    fn solution(nodes: usize, tag: u32) -> SavedRestart {
        let mut assignment = vec![0; nodes];
        assignment[0] = tag;
        SavedRestart {
            restart: 0,
            assignment,
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
        }
    }

    fn key(i: u64) -> Fingerprint {
        Fingerprint::default().fold_u64(i)
    }

    /// The approximate bytes the store holds, recounted from its
    /// entries.
    fn held_bytes(store: &MemoStore) -> u64 {
        let inner = store.inner.lock().unwrap();
        let recounted = inner.solutions.values().map(|e| entry_bytes(&e.value)).sum();
        assert_eq!(inner.bytes, recounted, "byte accounting drifted");
        recounted
    }

    #[test]
    fn solution_roundtrip_and_entry_bound() {
        // Room for three solutions over 1,000 nodes.
        let budget = 3 * entry_bytes(&solution(1000, 0));
        let store = MemoStore::with_budget(budget);
        assert!(store.lookup_solution(key(0)).is_none());
        store.insert_solution(key(0), solution(1000, 7));
        assert_eq!(store.lookup_solution(key(0)).expect("stored").assignment[0], 7);
        let stats = store.stats();
        assert_eq!((stats.solution_hits, stats.solution_misses), (1, 1));
        assert_eq!((stats.hierarchy_hits, stats.hierarchy_misses), (0, 0));

        // Key 0 is looked up after every insertion, so it outlives every
        // entry inserted before its latest lookup.
        let sizes = [400, 1000, 100, 1000, 600, 1000, 1000];
        for (i, &nodes) in (1..).zip(&sizes) {
            store.insert_solution(key(i), solution(nodes, 0));
            assert!(held_bytes(&store) <= budget, "over budget after inserting key {i}");
            let _ = store.lookup_solution(key(0));
        }
        let stored: Vec<u64> =
            (0..=sizes.len() as u64).filter(|&i| store.lookup_solution(key(i)).is_some()).collect();
        assert_eq!(stored, vec![0, 6, 7], "least recently used went first");
        let stats = store.stats();
        assert_eq!((stats.solution_evictions, stats.solution_entries), (5, 3));

        // An entry larger than the whole budget is never stored, and
        // evicts nothing.
        let held = held_bytes(&store);
        store.insert_solution(key(99), solution(4000, 0));
        assert!(store.lookup_solution(key(99)).is_none());
        assert_eq!(store.stats().solution_evictions, 5);
        assert_eq!(held_bytes(&store), held);
    }

    #[test]
    fn restart_key_separates_inputs_and_ignores_threads() {
        let g = window_circuit(&WindowConfig::new("m", 60, 8), 1);
        let gk = graph_key(&g);
        let constraints = DeviceConstraints::new(64, 16);
        let config = FpartConfig::default();
        let ml = MultilevelConfig::default();
        let base = restart_solution_key(gk, constraints, &config, &ml);
        assert_eq!(base, restart_solution_key(gk, constraints, &config, &ml), "stable");
        // The default constructive initial partition reads no driver
        // seed, so the seed does not separate keys; the random-initial
        // ablation reads it, so there it does.
        let seeded = FpartConfig { seed: config.seed + 1, ..config.clone() };
        assert_eq!(base, restart_solution_key(gk, constraints, &seeded, &ml), "seed");
        let random = FpartConfig { use_constructive_initial: false, ..config.clone() };
        let random_seeded = FpartConfig { seed: config.seed + 1, ..random.clone() };
        assert_ne!(
            restart_solution_key(gk, constraints, &random, &ml),
            restart_solution_key(gk, constraints, &random_seeded, &ml),
            "seed read by the random initial peel"
        );
        let reseeded = MultilevelConfig { seed: ml.seed + 1, ..ml.clone() };
        assert_ne!(base, restart_solution_key(gk, constraints, &config, &reseeded));
        let threaded = MultilevelConfig { threads: ml.threads + 3, ..ml.clone() };
        assert_eq!(base, restart_solution_key(gk, constraints, &config, &threaded));
        let memoed = MultilevelConfig { memo: Some(MemoStore::shared()), ..ml.clone() };
        assert_eq!(base, restart_solution_key(gk, constraints, &config, &memoed));
        assert_ne!(base, restart_solution_key(gk.fold_u64(1), constraints, &config, &ml), "graph");
    }

    /// A never-hit store's cold-path cost, counted rather than timed:
    /// the search hashes the graph once for all of its restarts, and
    /// each restart misses the solution memo once. A budgeted search,
    /// whose restarts can never use the memo, hashes nothing.
    #[test]
    fn fresh_store_hashes_the_graph_once_per_search() {
        use crate::obs::Observer;
        use crate::search::{search, Algorithm, Restarts};
        use fpart_device::DeviceConstraints;
        use std::cell::Cell;

        let g = window_circuit(&WindowConfig::new("m", 300, 12), 5);
        let store = MemoStore::shared();
        let ml = MultilevelConfig { memo: Some(store.clone()), ..MultilevelConfig::default() };
        let hashes = |config: &FpartConfig| {
            let before = GRAPH_KEYS.with(Cell::get);
            search(
                &g,
                DeviceConstraints::new(40, 24),
                config,
                Algorithm::Multilevel(&ml),
                &Restarts { count: 3, threads: 1, ..Restarts::default() },
                &mut Observer::none(),
            )
            .unwrap();
            GRAPH_KEYS.with(Cell::get) - before
        };
        let capped = FpartConfig {
            budget: RunBudget { max_passes: Some(1_000_000), ..RunBudget::default() },
            ..FpartConfig::default()
        };
        assert_eq!(hashes(&capped), 0, "graph hashes per budgeted search");
        let stats = store.stats();
        assert_eq!((stats.solution_misses, stats.solution_hits), (0, 0), "{stats:?}");
        assert_eq!(hashes(&FpartConfig::default()), 1, "graph hashes per search");
        let stats = store.stats();
        assert_eq!((stats.solution_misses, stats.solution_hits), (3, 0), "{stats:?}");
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
