//! The restart search: the one loop every multi-run entry point shares.
//!
//! FPART is the paper's Algorithm 1 peel loop with its §3.1 improvement
//! schedule; restarts, the n-level V-cycle and ECO repair only wrap it.
//! [`search`] runs `count` restarts of one [`Algorithm`] — restart `i`
//! is fully determined by its index — and is the only code that:
//!
//! * seeds restart `i` (driver seed `+ i`, n-level matching seed `+ i`,
//!   the fault plan only when it targets `i`);
//! * fans restarts out over the total thread budget, split between
//!   concurrent restarts and each restart's intra-run stages;
//! * gives each restart its own run context — observer, budget tracker,
//!   intra-run workers — which every stage of the restart shares;
//! * isolates a panicking restart, so the survivors still reduce;
//! * opens the `restart` span and bumps the `runs` counter;
//! * consults and feeds the n-level solution memo;
//! * replays a saved restart — a memo hit or a resumed checkpoint entry
//!   — after checking it against the live graph, and recomputes the
//!   restart when the check fails;
//! * streams checkpoint snapshots;
//! * reduces the outcomes and merges the per-restart metrics in restart
//!   order, so both are bit-identical at every thread count.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use fpart_device::{lower_bound, DeviceConstraints};
use fpart_hypergraph::{Fingerprint, Hypergraph, NodeId};

use crate::budget::Completion;
use crate::checkpoint::{fingerprint_run, Checkpoint, CheckpointWriter, SavedRestart};
use crate::config::FpartConfig;
use crate::driver::{assemble_outcome, fpart, PartitionError, PartitionOutcome};
use crate::eco::{eco_repair, EcoConfig};
use crate::memo::{graph_key, memoizable, restart_solution_key};
use crate::multilevel::{vcycle, MultilevelConfig};
use crate::obs::{Counter, Metrics, Observer, SpanKind, SpanStats, SCHEMA_VERSION};
use crate::parallel::{catch_panic, run_indexed};
use crate::run::{RunCtx, Work};
use crate::state::PartitionState;

/// What every restart of a [`search`] runs.
#[derive(Debug, Clone, Copy)]
pub enum Algorithm<'a> {
    /// Flat FPART on the whole graph ([`crate::partition_observed`]).
    Flat,
    /// The n-level V-cycle ([`crate::partition_multilevel`]).
    /// Restart `i` matches with seed `ml.seed + i`; a configured
    /// [`MultilevelConfig::memo`] store replays and records restarts.
    Multilevel(&'a MultilevelConfig),
    /// ECO repair of `previous` onto the edited graph
    /// ([`crate::repartition_eco_observed`]); restart `i` diversifies the
    /// fallback engine's matching seed like [`Algorithm::Multilevel`].
    Eco {
        /// Repair options.
        eco: &'a EcoConfig,
        /// The assignment of the graph the edit script was applied to.
        previous: &'a [u32],
        /// Old → new node ids, as produced by
        /// [`fpart_hypergraph::apply_script`].
        node_map: &'a [Option<NodeId>],
    },
}

/// The shape of a [`search`]: the restart count, the total thread
/// budget, and optional checkpoint resume and writer.
#[derive(Debug, Clone, Copy)]
pub struct Restarts<'a> {
    /// Restarts to run (at least 1).
    pub count: usize,
    /// Total worker budget (at least 1): restarts claim workers first,
    /// and any surplus becomes each restart's intra-run workers.
    pub threads: usize,
    /// A checkpoint of this very run (same [`fingerprint_run`]): its
    /// completed restarts are replayed instead of re-run.
    pub resume: Option<&'a Checkpoint>,
    /// Receives a snapshot of every restart finished so far each time
    /// a restart completes.
    pub writer: Option<&'a CheckpointWriter>,
}

impl Default for Restarts<'_> {
    fn default() -> Self {
        Restarts { count: 1, threads: 1, resume: None, writer: None }
    }
}

/// The result of a [`search`].
#[derive(Debug, Clone)]
pub struct RestartsReport {
    /// The winning outcome: feasible over infeasible, then fewest
    /// devices, then smallest cut, ties to the lowest restart index.
    /// Its own [`PartitionOutcome::metrics`] belong to the winning
    /// restart alone.
    pub outcome: PartitionOutcome,
    /// All restarts' metrics merged in restart-index order — identical
    /// for every thread count (disabled when the search ran unobserved).
    pub totals: Metrics,
    /// Each restart's metrics, indexed by restart. A restart that
    /// returned a typed error keeps the counts it accumulated before
    /// erroring out; a restart lost to a panic is represented by a
    /// synthesized registry with one `failed_restarts` count (so the
    /// totals stay the field-wise per-restart sums).
    pub per_restart: Vec<Metrics>,
    /// How the search ended: `Cancelled` when the cancel token stopped
    /// any restart; otherwise the winning restart's own completion,
    /// degraded further when any restart was lost to a panic.
    pub completion: Completion,
    /// Restarts lost to isolated panics, in restart-index order.
    pub failed: Vec<FailedRestart>,
}

/// A restart that panicked and was dropped from the reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRestart {
    /// Restart index of the lost run.
    pub restart: usize,
    /// Recovered panic payload (message).
    pub message: String,
}

/// Runs `restarts.count` restarts of `algorithm` and returns the best
/// outcome, reduced in restart order — **bit-identical for every thread
/// count**. Seed diversity only matters for configurations with
/// randomized choices; under the deterministic default configuration
/// flat restarts coincide and the first one wins.
///
/// `obs` sets how the run is observed. Its registry decides whether the
/// restarts record metrics: a disabled one keeps the search on the
/// zero-cost path (a checkpoint writer still records, because snapshots
/// carry each restart's counters). Restarts record into forks of it,
/// returned per restart and merged in [`RestartsReport::totals`]. With
/// one restart, the run also streams its events to the observer's sink
/// and heartbeat.
///
/// Restarts are panic-isolated: a restart that panics is dropped, the
/// survivors still reduce, and the report's completion degrades.
///
/// # Errors
///
/// [`PartitionError::InvalidConfig`] when the restart count or thread
/// budget is zero, when `restarts.resume` belongs to another run, or
/// when an ECO search asks for checkpoints; the first restart's typed
/// error when every restart fails; [`PartitionError::RestartPanicked`]
/// when every restart panicked.
///
/// # Example
///
/// ```
/// use fpart_core::{search, Algorithm, FpartConfig, Metrics, Observer, Restarts};
/// use fpart_device::Device;
/// use fpart_hypergraph::gen::{window_circuit, WindowConfig};
///
/// # fn main() -> Result<(), fpart_core::PartitionError> {
/// let circuit = window_circuit(&WindowConfig::new("demo", 300, 24), 1);
/// let report = search(
///     &circuit,
///     Device::XC3020.constraints(0.9),
///     &FpartConfig::default(),
///     Algorithm::Flat,
///     &Restarts { count: 3, threads: 2, ..Restarts::default() },
///     &mut Observer::new(Metrics::enabled(), None),
/// )?;
/// assert!(report.outcome.feasible);
/// assert_eq!(report.per_restart.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn search(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    algorithm: Algorithm<'_>,
    restarts: &Restarts<'_>,
    obs: &mut Observer<'_>,
) -> Result<RestartsReport, PartitionError> {
    let &Restarts { count, threads, resume, writer } = restarts;
    if count == 0 {
        return Err(PartitionError::InvalidConfig { what: "restarts must be at least 1" });
    }
    if threads == 0 {
        return Err(PartitionError::InvalidConfig { what: "threads must be at least 1" });
    }
    let fingerprint = match (algorithm, resume.is_some() || writer.is_some()) {
        (_, false) => 0,
        (Algorithm::Flat, true) => fingerprint_run(graph, constraints, config, None, count),
        (Algorithm::Multilevel(ml), true) => {
            fingerprint_run(graph, constraints, config, Some(ml), count)
        }
        (Algorithm::Eco { .. }, true) => {
            return Err(PartitionError::InvalidConfig {
                what: "checkpoints cover flat and multilevel searches only",
            })
        }
    };
    // Every restart records into a fork of this registry.
    let registry = if writer.is_some() && !obs.metrics.is_enabled() {
        Metrics::enabled()
    } else {
        obs.metrics.fork()
    };

    // Replay the resumed restarts that check out against the graph;
    // anything else — other completions, out-of-range indices, damaged
    // entries — is recomputed.
    let mut slots: Vec<Option<RestartSlot>> = (0..count).map(|_| None).collect();
    let mut completed = BTreeMap::new();
    if let Some(snapshot) = resume {
        if snapshot.fingerprint != fingerprint {
            return Err(PartitionError::InvalidConfig {
                what: "resume checkpoint was recorded for a different run (fingerprint mismatch)",
            });
        }
        if snapshot.restarts != count {
            return Err(PartitionError::InvalidConfig {
                what: "resume checkpoint was recorded for a different restart count",
            });
        }
        for saved in &snapshot.completed {
            let deterministic =
                matches!(saved.completion, Completion::Complete | Completion::Degraded);
            if saved.restart >= count || slots[saved.restart].is_some() || !deterministic {
                continue;
            }
            if let Some(mut outcome) = replay(graph, constraints, saved) {
                let metrics = saved.rebuild_metrics();
                outcome.metrics = metrics.clone();
                slots[saved.restart] = Some(Ok((Ok(outcome), metrics)));
                completed.insert(saved.restart, saved.clone());
            }
        }
    }

    let (outer, inner) = split_thread_budget(threads, count);
    let job = RestartJob {
        graph,
        constraints,
        config,
        algorithm,
        inner,
        graph_key: OnceLock::new(),
        writer,
        fingerprint,
        count,
        completed: Mutex::new(completed),
    };
    let pending: Vec<usize> = (0..count).filter(|&i| slots[i].is_none()).collect();
    let fresh = if count == 1 && pending.len() == 1 {
        // A single restart runs on the caller's thread, streaming its
        // events to the caller's sink and heartbeat.
        vec![catch_panic(0, || {
            let mut restart_obs = obs.lend(registry.fork());
            let result = job.run(0, &mut restart_obs);
            (result, restart_obs.metrics)
        })]
    } else {
        run_indexed(pending.len(), outer, &|j| {
            catch_panic(j, || {
                let mut restart_obs = Observer::new(registry.fork(), None);
                let result = job.run(pending[j], &mut restart_obs);
                (result, restart_obs.metrics)
            })
        })
    };
    for (&i, result) in pending.iter().zip(fresh) {
        slots[i] = Some(result);
    }

    let mut totals = registry.fork();
    let mut per_restart = Vec::with_capacity(count);
    let mut outcomes = Vec::with_capacity(count);
    let mut failed = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        let metrics = match slot.expect("every restart ran or was replayed") {
            Ok((result, metrics)) => {
                outcomes.push(result);
                metrics
            }
            Err(panic) => {
                failed.push(FailedRestart { restart: i, message: panic.message });
                let mut metrics = registry.fork();
                metrics.bump(Counter::FailedRestarts);
                metrics
            }
        };
        totals.merge(&metrics);
        per_restart.push(metrics);
    }
    if outcomes.is_empty() {
        let first = failed.into_iter().next().expect("at least one restart executes");
        return Err(PartitionError::RestartPanicked {
            restart: first.restart,
            message: first.message,
        });
    }
    // Every restart shares the cancel token, so a cancel that stopped
    // any restart cancelled the search, even when the winner finished
    // first or was replayed from the memo. Deadlines and pass caps are
    // per restart and speak only for the restart that hit them.
    let cancelled =
        outcomes.iter().any(|r| r.as_ref().is_ok_and(|o| o.completion == Completion::Cancelled));
    let outcome = reduce_outcomes(outcomes)?;
    let completion = if cancelled {
        Completion::Cancelled
    } else if failed.is_empty() {
        outcome.completion
    } else {
        outcome.completion.worst(Completion::Degraded)
    };
    Ok(RestartsReport { outcome, totals, per_restart, completion, failed })
}

/// Splits a total worker budget between the restart fan-out and the
/// intra-run stages of each restart: restarts claim workers first (they
/// parallelize with no cloning overhead), and any surplus becomes
/// intra-run workers shared evenly. Neither number changes any result —
/// restarts reduce in index order and the intra-run stages are
/// thread-count invariant — so the split is purely a throughput choice.
fn split_thread_budget(threads: usize, restarts: usize) -> (usize, usize) {
    let threads = threads.max(1);
    let outer = threads.min(restarts.max(1));
    let inner = (threads / outer).max(1);
    (outer, inner)
}

/// One restart's result and metrics, or the panic that lost it.
type RestartSlot =
    Result<(Result<PartitionOutcome, PartitionError>, Metrics), crate::parallel::JobPanic>;

/// Everything restart `i` of a search needs, shared by every worker.
struct RestartJob<'a> {
    graph: &'a Hypergraph,
    constraints: DeviceConstraints,
    config: &'a FpartConfig,
    algorithm: Algorithm<'a>,
    /// Intra-run workers of each restart.
    inner: usize,
    /// The graph's memo identity, hashed by the first restart that may
    /// use the memo and shared by every later restart's memo key.
    graph_key: OnceLock<Fingerprint>,
    /// Snapshot destination, with the run fingerprint and restart count
    /// every snapshot carries.
    writer: Option<&'a CheckpointWriter>,
    fingerprint: u64,
    count: usize,
    /// Restarts finished so far, as the next snapshot records them.
    completed: Mutex<BTreeMap<usize, SavedRestart>>,
}

impl RestartJob<'_> {
    /// Runs restart `i` into `obs`: seeded, on its own [`RunCtx`],
    /// inside a `restart` span, counted in `runs`, and checkpointed when
    /// it ends deterministically.
    fn run(&self, i: usize, obs: &mut Observer<'_>) -> Result<PartitionOutcome, PartitionError> {
        let (graph, constraints) = (self.graph, self.constraints);
        let cfg = FpartConfig {
            seed: self.config.seed.wrapping_add(i as u64),
            fault_plan: self.config.fault_plan.as_ref().and_then(|p| p.for_restart(i)),
            ..self.config.clone()
        };
        let restart_ml = |ml: &MultilevelConfig| MultilevelConfig {
            seed: ml.seed.wrapping_add(i as u64),
            ..ml.clone()
        };
        let mut ctx = RunCtx::new(obs, self.config, i, self.inner);
        ctx.obs.metrics.set_span_lane(i as u32);
        ctx.obs.metrics.span_open(SpanKind::Restart, 0);
        let result = match self.algorithm {
            Algorithm::Flat => fpart(graph, constraints, &cfg, &mut ctx),
            Algorithm::Multilevel(ml) => self.memoized(i, &cfg, &restart_ml(ml), &mut ctx),
            Algorithm::Eco { eco, previous, node_map } => {
                let eco = EcoConfig { multilevel: restart_ml(&eco.multilevel), ..eco.clone() };
                eco_repair(graph, constraints, &cfg, &eco, previous, node_map, &mut ctx)
                    .map(|report| report.outcome)
            }
        };
        let obs = ctx.obs;
        obs.metrics.bump(Counter::Runs);
        obs.metrics.span_close(match &result {
            Ok(outcome) => SpanStats {
                nodes: graph.node_count() as u64,
                nets: graph.net_count() as u64,
                moves: outcome.total_moves as u64,
                ..SpanStats::default()
            },
            Err(_) => SpanStats::default(),
        });
        // Only deterministic completions are saved: a cancelled or
        // expired restart depends on wall-clock timing.
        if let (Some(writer), Ok(outcome)) = (self.writer, &result) {
            if matches!(outcome.completion, Completion::Complete | Completion::Degraded) {
                let completed = {
                    let mut completed = self.completed.lock().expect("checkpoint set lock");
                    completed.insert(i, SavedRestart::from_outcome(i, outcome, &obs.metrics));
                    completed.values().cloned().collect()
                };
                writer.submit(Checkpoint {
                    schema_version: SCHEMA_VERSION,
                    fingerprint: self.fingerprint,
                    restarts: self.count,
                    completed,
                });
            }
        }
        result
    }

    /// An n-level restart through the solution memo: only restarts with
    /// no result-shaping budget qualify ([`memoizable`]); a stored
    /// solution is replayed when it checks out against the graph, and a
    /// cold restart that completes is stored.
    fn memoized(
        &self,
        i: usize,
        cfg: &FpartConfig,
        ml: &MultilevelConfig,
        ctx: &mut RunCtx<'_, '_>,
    ) -> Result<PartitionOutcome, PartitionError> {
        let (graph, constraints) = (self.graph, self.constraints);
        let memo =
            ml.memo.as_deref().filter(|_| graph.node_count() > 0 && memoizable(cfg)).map(|store| {
                let gk = *self.graph_key.get_or_init(|| graph_key(graph));
                (store, restart_solution_key(gk, constraints, cfg, ml))
            });
        if let Some((store, key)) = memo {
            let hit = store.lookup_solution(key);
            if let Some(mut outcome) = hit.and_then(|saved| replay(graph, constraints, &saved)) {
                ctx.obs.metrics.bump(Counter::MemoWarmStarts);
                outcome.metrics = ctx.obs.metrics.clone();
                return Ok(outcome);
            }
        }
        let result = vcycle(graph, constraints, cfg, ml, ctx);
        if let (Some((store, key)), Ok(outcome)) = (memo, &result) {
            if outcome.completion == Completion::Complete {
                store
                    .insert_solution(key, SavedRestart::from_outcome(i, outcome, &ctx.obs.metrics));
            }
        }
        result
    }
}

/// Rebuilds a saved restart — a memo hit or a resumed checkpoint entry —
/// on the live graph. The assignment must cover the graph with block ids
/// below a device count no larger than the node count, and reassembling
/// it must reproduce the recorded assignment, device count, cut and
/// feasibility. `None` on any
/// disagreement, so the caller recomputes the restart: neither a hash
/// collision nor a damaged checkpoint can change a result.
fn replay(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    saved: &SavedRestart,
) -> Option<PartitionOutcome> {
    let started = Instant::now();
    let k = saved.device_count;
    if saved.assignment.len() != graph.node_count()
        || k == 0
        || k > graph.node_count()
        || saved.assignment.iter().any(|&b| b as usize >= k)
    {
        return None;
    }
    let state = PartitionState::from_assignment(graph, saved.assignment.clone(), k);
    let work = Work {
        iterations: saved.iterations,
        improve_calls: saved.improve_calls,
        moves: saved.total_moves,
    };
    let outcome = assemble_outcome(
        &state,
        constraints,
        lower_bound(graph, constraints),
        work,
        started.elapsed(),
        Metrics::disabled(),
        saved.completion,
    );
    (outcome.assignment == saved.assignment
        && outcome.device_count == k
        && outcome.cut == saved.cut
        && outcome.feasible == saved.feasible)
        .then_some(outcome)
}

/// Picks the best outcome in restart order: feasible over infeasible,
/// then fewest devices, then smallest cut, ties to the lowest restart
/// index. Errors only surface when *every* restart failed (the first
/// restart's error wins).
fn reduce_outcomes(
    results: Vec<Result<PartitionOutcome, PartitionError>>,
) -> Result<PartitionOutcome, PartitionError> {
    let mut best: Option<PartitionOutcome> = None;
    let mut first_error: Option<PartitionError> = None;
    for result in results {
        match result {
            Ok(outcome) => {
                let better = best.as_ref().is_none_or(|b| {
                    (outcome.feasible, Reverse(outcome.device_count), Reverse(outcome.cut))
                        > (b.feasible, Reverse(b.device_count), Reverse(b.cut))
                });
                if better {
                    best = Some(outcome);
                }
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    best.ok_or_else(|| first_error.expect("at least one restart executes"))
}
