//! Paper-fidelity tests of the §3.1 improvement schedule, checked
//! against recorded traces.

use fpart_core::{
    partition_observed, FpartConfig, ImproveKind, Metrics, Observer, PartitionOutcome, TraceEvent,
};
use fpart_device::{Device, DeviceConstraints};
use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};
use fpart_hypergraph::Hypergraph;

/// Runs FPART with an in-memory trace as the observer's event sink.
fn traced(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
) -> (PartitionOutcome, Vec<TraceEvent>) {
    let mut trace = Vec::new();
    let mut obs = Observer::new(Metrics::disabled(), Some(&mut trace));
    let outcome = partition_observed(graph, constraints, config, &mut obs).expect("runs");
    (outcome, trace)
}

/// Collects `(iteration, kind)` pairs of all Improve events.
fn improve_kinds(trace: &[TraceEvent]) -> Vec<(usize, ImproveKind)> {
    trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Improve { iteration, kind, .. } => Some((*iteration, *kind)),
            _ => None,
        })
        .collect()
}

/// Small-M circuit (s5378 on XC3020, M = 7 ≤ N_small = 15): every
/// iteration runs LastPair first, the all-block pass appears, and the
/// final pairwise sweep fires exactly at the iteration where k = M.
#[test]
fn small_m_schedule_follows_algorithm_1() {
    let profile = find_profile("s5378").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let (outcome, trace) = traced(&graph, constraints, &FpartConfig::default());
    let m = outcome.lower_bound;
    assert!(m <= 15, "premise: small-M circuit");

    let kinds = improve_kinds(&trace);
    assert!(!kinds.is_empty());

    // 1. The first Improve of every iteration is the last-pair pass.
    let mut seen_iterations = std::collections::HashSet::new();
    for &(iteration, kind) in &kinds {
        if seen_iterations.insert(iteration) {
            assert_eq!(
                kind,
                ImproveKind::LastPair,
                "iteration {iteration} must start with Improve(R_k, P_k)"
            );
        }
    }

    // 2. The all-block pass runs (M ≤ N_small) once three blocks exist.
    assert!(
        kinds.iter().any(|&(_, k)| k == ImproveKind::AllBlocks),
        "all-block pass missing for a small-M circuit"
    );

    // 3. The selected-block passes of §3.1 appear.
    for expected in [ImproveKind::MinSize, ImproveKind::MinIo, ImproveKind::MaxFree] {
        assert!(kinds.iter().any(|&(_, k)| k == expected), "{expected:?} pass missing");
    }

    // 4. The final pairwise sweep fires at iteration M only.
    let sweep_iterations: std::collections::HashSet<usize> =
        kinds.iter().filter(|&&(_, k)| k == ImproveKind::FinalSweep).map(|&(i, _)| i).collect();
    assert_eq!(
        sweep_iterations,
        std::collections::HashSet::from([m]),
        "final sweep must fire exactly at k = M"
    );
}

/// Large-M circuit (s13207 on XC3020, M = 16 > N_small): the all-block
/// pass and the final sweep are disabled; the remainder-vs-selected-block
/// passes still run.
#[test]
fn large_m_schedule_skips_all_block_pass() {
    let profile = find_profile("s13207").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let (outcome, trace) = traced(&graph, constraints, &FpartConfig::default());
    assert!(outcome.lower_bound > 15, "premise: large-M circuit");

    let kinds = improve_kinds(&trace);
    assert!(kinds.iter().all(|&(_, k)| k != ImproveKind::AllBlocks));
    assert!(kinds.iter().all(|&(_, k)| k != ImproveKind::FinalSweep));
    assert!(kinds.iter().any(|&(_, k)| k == ImproveKind::MinSize));
    assert!(kinds.iter().any(|&(_, k)| k == ImproveKind::MaxFree));
}

/// With the schedule ablated, only last-pair passes remain.
#[test]
fn ablated_schedule_runs_last_pair_only() {
    let profile = find_profile("c3540").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let config = FpartConfig { use_improvement_schedule: false, ..FpartConfig::default() };
    let (_, trace) = traced(&graph, constraints, &config);
    let kinds = improve_kinds(&trace);
    assert!(!kinds.is_empty());
    assert!(kinds.iter().all(|&(_, k)| k == ImproveKind::LastPair));
}

/// Intermediate solutions stay semi-feasible (or feasible) — §3.5's
/// premise "only semi-feasible solutions are accepted as intermediate
/// solutions between the Algorithm 1 steps".
#[test]
fn intermediate_solutions_are_semi_feasible() {
    let profile = find_profile("s9234").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let (_, trace) = traced(&graph, constraints, &FpartConfig::default());
    for event in &trace {
        if let TraceEvent::Solution { iteration, class, .. } = event {
            assert_ne!(
                *class,
                fpart_core::FeasibilityClass::Infeasible,
                "iteration {iteration} ended infeasible"
            );
        }
    }
}
