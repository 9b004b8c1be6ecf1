//! Determinism contract of the intra-run parallel stages, end to end:
//!
//! * **Multilevel invariance** — a single multilevel run (parallel
//!   matching, net projection, boundary pair refinement) returns a
//!   bit-identical outcome at 1 and 2–5 workers (property test).
//! * **Boundary-refine invariance** — the flat pairwise boundary
//!   refiner applied directly to a scrambled partition moves exactly
//!   the same cells at every worker count (property test).
//! * **ECO invariance** — repairing a randomized edit returns a
//!   bit-identical repair at 1 and 2–5 workers, on both the dirty-block
//!   path and the full-repartition fallback (property test).
//! * **Cancellation** — a cancelled token stops a parallel run at the
//!   next boundary with `Completion::Cancelled` and a full-coverage,
//!   structurally valid best-so-far assignment.
//! * **Worker panic containment** — a `FaultPlan` targeting one pair
//!   job panics inside a worker; the job's moves are dropped, the rest
//!   of the round commits, and the recovery is bit-identical at every
//!   worker count.
//! * **Observation neutrality** — instrumented and uninstrumented
//!   parallel runs return the same assignment.

use std::sync::Once;

use fpart_core::cost::CostEvaluator;
use fpart_core::refine::{refine_boundary_metered, RefineConfig};
use fpart_core::verify::{verify_assignment, Violation};
use fpart_core::{
    partition_multilevel, partition_multilevel_observed, repartition_eco, CancelToken, Completion,
    Counter, EcoConfig, EventSink, FaultPlan, FpartConfig, Heartbeat, Metrics, MultilevelConfig,
    Observer, PartitionState, RunBudget, SpanKind, TraceEvent,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{clustered_circuit, window_circuit, ClusteredConfig, WindowConfig};
use fpart_hypergraph::{apply_script, EditOp, EditScript, Hypergraph};
use proptest::prelude::*;

/// Keeps deliberately injected panics out of the test output while
/// still printing real ones (same contract as `tests/robustness.rs`).
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Strategy: a random circuit plus constraints tight enough to need a
/// handful of devices, so boundary refinement sees several block pairs
/// per round (one pair would make the worker sweep trivially serial).
fn arb_workload() -> impl Strategy<Value = (Hypergraph, DeviceConstraints)> {
    (80usize..240, 6usize..20, any::<u64>(), 20u64..50, 30usize..70).prop_map(
        |(nodes, terminals, seed, s_max, t_max)| {
            let graph = window_circuit(&WindowConfig::new("par", nodes, terminals), seed);
            (graph, DeviceConstraints::new(s_max, t_max))
        },
    )
}

/// Small coarsening floor so even the proptest-sized circuits build a
/// real hierarchy and exercise the parallel matcher at several levels.
fn ml_config(workers: usize) -> MultilevelConfig {
    MultilevelConfig { coarsen_floor: 32, threads: workers, ..MultilevelConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole acceptance property: one multilevel run is
    /// bit-identical at every worker count.
    #[test]
    fn multilevel_run_is_worker_count_invariant(
        (graph, constraints) in arb_workload(),
    ) {
        let config = FpartConfig::default();
        let reference = partition_multilevel(&graph, constraints, &config, &ml_config(1));
        for workers in 2usize..=5 {
            let parallel = partition_multilevel(&graph, constraints, &config, &ml_config(workers));
            match (&reference, &parallel) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.assignment, &b.assignment, "workers={}", workers);
                    prop_assert_eq!(a.device_count, b.device_count);
                    prop_assert_eq!(a.cut, b.cut);
                    prop_assert_eq!(a.feasible, b.feasible);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "divergent: {a:?} vs {b:?}"),
            }
        }
    }

    /// The flat boundary refiner commits the same moves at every worker
    /// count when pointed directly at a scrambled partition. Up to 12
    /// clusters give rounds of 4+ disjoint pairs, so at 2–5 workers a
    /// worker runs several jobs back to back on one state.
    #[test]
    fn boundary_refine_is_worker_count_invariant(
        clusters in 3usize..13,
        per_cluster in 10usize..30,
        seed in any::<u64>(),
        scramble in 2usize..6,
    ) {
        let (graph, planted) = clustered_circuit(
            &ClusteredConfig::new("par", clusters, per_cluster), seed);
        let mut scrambled = planted;
        for i in (0..scrambled.len()).step_by(scramble) {
            scrambled[i] = (scrambled[i] + 1) % clusters as u32;
        }
        let config = FpartConfig::default();
        let evaluator = CostEvaluator::new(
            DeviceConstraints::new(per_cluster as u64 + 5, 100),
            &config,
            clusters,
            graph.terminal_count(),
        );
        let run = |workers: usize| {
            let mut state =
                PartitionState::from_assignment(&graph, scrambled.clone(), clusters);
            let mut metrics = Metrics::enabled();
            let refine = RefineConfig { workers, ..RefineConfig::default() };
            let stats =
                refine_boundary_metered(&mut state, &evaluator, &config, &refine, None, &mut metrics);
            state.assert_consistent();
            let assignment: Vec<usize> =
                (0..graph.node_count()).map(|i| state.block_of(fpart_hypergraph::NodeId::from_index(i))).collect();
            (assignment, stats.moves, stats.improved, metrics)
        };
        let (ref_assignment, ref_moves, ref_improved, ref_metrics) = run(1);
        for workers in 2usize..=5 {
            let (assignment, moves, improved, metrics) = run(workers);
            prop_assert_eq!(&assignment, &ref_assignment, "workers={}", workers);
            prop_assert_eq!(moves, ref_moves);
            prop_assert_eq!(improved, ref_improved);
            // Deterministic counters merge identically; PairJobs counts
            // every dispatched job regardless of worker count.
            for counter in [Counter::PairJobs, Counter::BoundaryRefinements, Counter::PairPanics] {
                prop_assert_eq!(
                    metrics.get(counter), ref_metrics.get(counter), "{}", counter.name());
            }
        }
    }

    /// ECO repair (dirty-block path and fallback alike) is bit-identical
    /// at every worker count.
    #[test]
    fn eco_repair_is_worker_count_invariant(
        (graph, constraints) in arb_workload(),
        removals in 0usize..5,
        adds in 1usize..4,
        edit_seed in any::<u64>(),
    ) {
        let config = FpartConfig::default();
        let Ok(previous) = fpart_core::partition(&graph, constraints, &config) else {
            return Ok(()); // infeasible baseline: nothing to repair
        };
        let script = random_edit(&graph, removals, adds, edit_seed);
        let applied = apply_script(&graph, &script).expect("edit applies");
        let eco_at = |workers: usize| EcoConfig {
            multilevel: ml_config(workers),
            ..EcoConfig::default()
        };
        let reference = repartition_eco(
            &applied.graph, constraints, &config, &eco_at(1),
            &previous.assignment, &applied.node_map,
        ).expect("repairs at one worker");
        for workers in 2usize..=5 {
            let parallel = repartition_eco(
                &applied.graph, constraints, &config, &eco_at(workers),
                &previous.assignment, &applied.node_map,
            ).expect("repairs at any worker count");
            prop_assert_eq!(
                &parallel.outcome.assignment,
                &reference.outcome.assignment,
                "workers={}", workers
            );
            prop_assert_eq!(parallel.repaired, reference.repaired);
            prop_assert_eq!(parallel.dirty_blocks, reference.dirty_blocks);
            prop_assert_eq!(parallel.outcome.cut, reference.outcome.cut);
        }
    }
}

/// Same shape as the bench's capacity-balanced script: deterministic
/// removals spread over the design plus fresh cells wired to survivors.
fn random_edit(graph: &Hypergraph, removals: usize, adds: usize, seed: u64) -> EditScript {
    let n = graph.node_count();
    let mut ops = Vec::new();
    let mut removed = std::collections::HashSet::new();
    for i in 0..removals.min(n.saturating_sub(2)) {
        let idx =
            ((seed.wrapping_mul(2_654_435_761).wrapping_add(i as u64 * 97)) % n as u64) as usize;
        if removed.insert(idx) {
            let v = graph.node_ids().nth(idx).expect("index in range");
            ops.push(EditOp::RemoveNode { name: graph.node_name(v).to_owned() });
        }
    }
    let survivor =
        graph.node_ids().find(|v| !removed.contains(&v.index())).expect("removals leave survivors");
    for i in 0..adds {
        let name = format!("par_add_{i}");
        ops.push(EditOp::AddNode { name: name.clone(), size: 1 });
        ops.push(EditOp::AddNet {
            name: format!("par_net_{i}"),
            pins: vec![name, graph.node_name(survivor).to_owned()],
        });
    }
    EditScript::new(ops)
}

/// A workload whose multilevel run reliably refines several block pairs
/// per round, so pair jobs actually fan out across workers.
fn busy_workload() -> (Hypergraph, DeviceConstraints) {
    (window_circuit(&WindowConfig::new("busy", 400, 24), 7), DeviceConstraints::new(40, 60))
}

/// A pre-cancelled token stops the parallel run at the next check with
/// a verifiable degraded result — the workers all observe the shared
/// token, so no pair job can commit after the stop latches.
#[test]
fn cancellation_during_parallel_run_degrades_verifiably() {
    let (graph, constraints) = busy_workload();
    for workers in [1usize, 4] {
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = FpartConfig {
            budget: RunBudget { cancel: Some(cancel), ..RunBudget::default() },
            ..FpartConfig::default()
        };
        let outcome = partition_multilevel(&graph, constraints, &config, &ml_config(workers))
            .expect("returns best-so-far");
        assert_eq!(outcome.completion, Completion::Cancelled, "workers={workers}");
        assert_eq!(outcome.assignment.len(), graph.node_count());
        let v = verify_assignment(
            &graph,
            &outcome.assignment,
            outcome.device_count,
            DeviceConstraints::new(u64::MAX, usize::MAX),
        );
        let structural: Vec<&Violation> = v
            .violations
            .iter()
            .filter(|x| {
                matches!(
                    x,
                    Violation::WrongLength { .. }
                        | Violation::BlockOutOfRange { .. }
                        | Violation::EmptyBlock { .. }
                )
            })
            .collect();
        assert!(structural.is_empty(), "workers={workers}: {structural:?}");
    }
}

/// A fault plan aimed at one pair job panics inside the worker that
/// runs it; the engine drops that job's moves, keeps the round's other
/// commits, counts the panic, and recovers bit-identically at every
/// worker count.
#[test]
fn targeted_pair_job_panic_recovers_deterministically() {
    quiet_injected_panics();
    let (graph, constraints) = busy_workload();
    let clean = partition_multilevel(&graph, constraints, &FpartConfig::default(), &ml_config(1))
        .expect("clean run partitions");

    let config = FpartConfig {
        fault_plan: Some(FaultPlan::panic_at(1, "pair worker down").for_only_pair_job(0)),
        ..FpartConfig::default()
    };
    let mut reference: Option<(Vec<u32>, u64, u64)> = None;
    for workers in [1usize, 2, 4] {
        let mut obs = Observer::new(Metrics::enabled(), None);
        let outcome = partition_multilevel_observed(
            &graph,
            constraints,
            &config,
            &ml_config(workers),
            &mut obs,
        )
        .expect("survives the worker panic");
        let panics = obs.metrics.get(Counter::PairPanics);
        let jobs = obs.metrics.get(Counter::PairJobs);
        assert!(panics >= 1, "workers={workers}: the targeted job must panic, got {panics}");
        assert!(jobs > panics, "workers={workers}: other pair jobs must still run");
        let row = (outcome.assignment, panics, jobs);
        match &reference {
            None => reference = Some(row),
            Some(expected) => assert_eq!(expected, &row, "workers={workers}"),
        }
    }

    // The panicked job only loses its own moves; the run still returns
    // a full-coverage structurally valid partition (it may differ from
    // the clean run — a refinement region was dropped).
    let (assignment, _, _) = reference.expect("three runs completed");
    assert_eq!(assignment.len(), clean.assignment.len());
}

/// Metrics recording must not steer the parallel stages: instrumented
/// and uninstrumented runs return the same assignment.
#[test]
fn observation_does_not_change_parallel_results() {
    let (graph, constraints) = busy_workload();
    let config = FpartConfig::default();
    for workers in [1usize, 4] {
        let plain = partition_multilevel(&graph, constraints, &config, &ml_config(workers))
            .expect("partitions");
        let mut obs = Observer::new(Metrics::enabled(), None);
        let observed = partition_multilevel_observed(
            &graph,
            constraints,
            &config,
            &ml_config(workers),
            &mut obs,
        )
        .expect("partitions");
        assert_eq!(plain.assignment, observed.assignment, "workers={workers}");
        assert_eq!(plain.cut, observed.cut);
        assert!(obs.metrics.get(Counter::PairJobs) > 0, "pair jobs must be metered");
    }
}

/// The span profiler's deterministic-merge contract: a fully
/// instrumented multilevel run produces the same span records (kinds,
/// levels, parents, counts, stats, counter deltas — wall times are
/// outside the contract and excluded from equality) at every worker
/// count, and the whole registry compares equal via `Metrics`'
/// span-aware `PartialEq`.
#[test]
fn span_profile_is_worker_count_invariant() {
    let (graph, constraints) = busy_workload();
    let config = FpartConfig::default();
    let run = |workers: usize| {
        let mut obs = Observer::new(Metrics::enabled(), None);
        let outcome = partition_multilevel_observed(
            &graph,
            constraints,
            &config,
            &ml_config(workers),
            &mut obs,
        )
        .expect("partitions");
        (outcome.assignment, obs.metrics)
    };
    let (ref_assignment, ref_metrics) = run(1);
    let kinds: Vec<SpanKind> = ref_metrics.spans().records().iter().map(|r| r.kind).collect();
    for kind in
        [SpanKind::CoarsenLevel, SpanKind::Initial, SpanKind::RefineLevel, SpanKind::PairJob]
    {
        assert!(kinds.contains(&kind), "expected a {} span, got {kinds:?}", kind.as_str());
    }
    for workers in [2usize, 4] {
        let (assignment, metrics) = run(workers);
        assert_eq!(assignment, ref_assignment, "workers={workers}");
        // SpanStack equality covers kinds, levels, parents, counts,
        // stats, and counter deltas; wall times are excluded (the
        // improve-time histograms bucket wall clocks, so they are
        // likewise compared counter-by-counter, not wholesale).
        assert_eq!(
            metrics.spans(),
            ref_metrics.spans(),
            "workers={workers}: span records must merge identically"
        );
        for counter in Counter::ALL {
            assert_eq!(
                metrics.get(counter),
                ref_metrics.get(counter),
                "workers={workers}: {}",
                counter.name()
            );
        }
    }
}

/// Counts heartbeat events without otherwise reacting to them.
#[derive(Default)]
struct ProgressCounter {
    progress: usize,
}

impl EventSink for ProgressCounter {
    fn record_event(&mut self, event: &TraceEvent) {
        if matches!(event, TraceEvent::Progress { .. }) {
            self.progress += 1;
        }
    }
}

/// Live progress streaming must not steer the search either: with an
/// unthrottled heartbeat attached, the run emits progress events at 1
/// and 4 workers and still returns the plain run's assignment.
#[test]
fn progress_streaming_does_not_change_parallel_results() {
    let (graph, constraints) = busy_workload();
    let config = FpartConfig::default();
    for workers in [1usize, 4] {
        let plain = partition_multilevel(&graph, constraints, &config, &ml_config(workers))
            .expect("partitions");
        let mut sink = ProgressCounter::default();
        let mut obs = Observer::new(Metrics::enabled(), Some(&mut sink));
        obs.heartbeat = Heartbeat::every(std::time::Duration::ZERO);
        let observed = partition_multilevel_observed(
            &graph,
            constraints,
            &config,
            &ml_config(workers),
            &mut obs,
        )
        .expect("partitions");
        assert_eq!(plain.assignment, observed.assignment, "workers={workers}");
        assert!(sink.progress > 0, "workers={workers}: an unthrottled heartbeat must tick");
    }
}
