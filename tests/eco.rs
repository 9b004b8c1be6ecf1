//! End-to-end properties of the ECO repair subsystem:
//!
//! * **Always verifiable** — repairing any randomized edit of any
//!   randomized circuit yields an assignment that covers every node of
//!   the edited graph and verifies (feasible, or on the fallback path a
//!   full repartition's own guarantees) (property test).
//! * **Empty script is a no-op** — repairing with no edits returns the
//!   previous assignment bit-identically: nothing was dirty, so nothing
//!   may move (property test).
//! * **Degradation** — repairing under an already-expired deadline
//!   still returns full-coverage, structurally valid output with only
//!   capacity violations possible (property test).
//! * **Thread invariance** — the ECO restart search returns a
//!   bit-identical winner at 1, 2, and 4 threads (property test).

use std::time::Duration;

use fpart_core::verify::{verify_assignment, Violation};
use fpart_core::{
    repartition_eco, search, Algorithm, EcoConfig, FpartConfig, Observer, Restarts, RunBudget,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{window_circuit, WindowConfig};
use fpart_hypergraph::{apply_script, EditOp, EditScript, Hypergraph};
use proptest::prelude::*;

/// Strategy: a random circuit plus constraints loose enough that the
/// baseline partition is usually feasible (an ECO flow starts from a
/// working partition).
fn arb_workload() -> impl Strategy<Value = (Hypergraph, DeviceConstraints)> {
    (40usize..120, 4usize..16, any::<u64>(), 30u64..70, 40usize..90).prop_map(
        |(nodes, terminals, seed, s_max, t_max)| {
            let graph = window_circuit(&WindowConfig::new("eco", nodes, terminals), seed);
            (graph, DeviceConstraints::new(s_max, t_max))
        },
    )
}

/// A small randomized edit: remove `removals` cells spread over the
/// design, then add `adds` fresh cells each wired into a surviving
/// neighbourhood. Always applies cleanly by construction.
fn random_edit(graph: &Hypergraph, removals: usize, adds: usize, seed: u64) -> EditScript {
    let n = graph.node_count();
    let mut ops = Vec::new();
    let mut removed = std::collections::HashSet::new();
    for i in 0..removals.min(n.saturating_sub(2)) {
        // Deterministic spread over node ids without Date/rand.
        let idx =
            ((seed.wrapping_mul(2_654_435_761).wrapping_add(i as u64 * 97)) % n as u64) as usize;
        if removed.insert(idx) {
            let v = graph.node_ids().nth(idx).expect("index in range");
            ops.push(EditOp::RemoveNode { name: graph.node_name(v).to_owned() });
        }
    }
    let survivor = graph
        .node_ids()
        .map(|v| v.index())
        .find(|i| !removed.contains(i))
        .expect("removals leave survivors");
    let survivor = graph.node_ids().nth(survivor).expect("in range");
    for i in 0..adds {
        let name = format!("eco_add_{i}");
        ops.push(EditOp::AddNode { name: name.clone(), size: 1 });
        ops.push(EditOp::AddNet {
            name: format!("eco_net_{i}"),
            pins: vec![name, graph.node_name(survivor).to_owned()],
        });
    }
    EditScript::new(ops)
}

/// A feasible-ish baseline partition to repair from: the real driver.
fn baseline(graph: &Hypergraph, constraints: DeviceConstraints) -> Vec<u32> {
    fpart_core::partition(graph, constraints, &FpartConfig::default())
        .expect("baseline partitions")
        .assignment
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn eco_repair_output_is_always_verifiable(
        (graph, constraints) in arb_workload(),
        removals in 0usize..6,
        adds in 0usize..4,
        edit_seed in any::<u64>(),
    ) {
        let previous = baseline(&graph, constraints);
        let script = random_edit(&graph, removals, adds, edit_seed);
        let applied = apply_script(&graph, &script).expect("edit applies");
        let report = repartition_eco(
            &applied.graph,
            constraints,
            &FpartConfig::default(),
            &EcoConfig::default(),
            &previous,
            &applied.node_map,
        ).expect("repairs");
        let out = &report.outcome;
        prop_assert_eq!(out.assignment.len(), applied.graph.node_count());
        let v = verify_assignment(&applied.graph, &out.assignment, out.device_count, constraints);
        prop_assert!(v.is_feasible() == out.feasible,
            "outcome feasibility must match independent verification: {:?}", v.violations);
        // Whatever path was taken, the result must be structurally
        // valid: any violation is a capacity violation, never a
        // structural one.
        prop_assert!(v.violations.iter().all(|x| matches!(
            x,
            Violation::OverSize { .. } | Violation::OverTerminals { .. }
        )), "structural violations: {:?}", v.violations);
    }

    #[test]
    fn empty_edit_script_is_a_bit_identical_noop(
        (graph, constraints) in arb_workload(),
    ) {
        let previous = baseline(&graph, constraints);
        let applied = apply_script(&graph, &EditScript::default()).expect("no-op applies");
        prop_assert_eq!(applied.graph.node_count(), graph.node_count());
        let report = repartition_eco(
            &applied.graph,
            constraints,
            &FpartConfig::default(),
            &EcoConfig::default(),
            &previous,
            &applied.node_map,
        ).expect("repairs");
        prop_assert!(report.repaired);
        prop_assert_eq!(report.placed, 0);
        prop_assert_eq!(report.removed, 0);
        prop_assert_eq!(report.dirty_blocks, 0);
        // No dirty blocks means no repair pass ran: the assignment is
        // carried over bit-identically (block ids included — nothing
        // was compacted away because every previous block still has
        // its cells).
        prop_assert_eq!(&report.outcome.assignment, &previous);
    }

    #[test]
    fn repair_under_expired_deadline_is_still_verifiable(
        (graph, constraints) in arb_workload(),
        removals in 1usize..5,
        edit_seed in any::<u64>(),
    ) {
        let previous = baseline(&graph, constraints);
        let script = random_edit(&graph, removals, 2, edit_seed);
        let applied = apply_script(&graph, &script).expect("edit applies");
        let config = FpartConfig {
            budget: RunBudget { deadline: Some(Duration::ZERO), ..RunBudget::default() },
            ..FpartConfig::default()
        };
        let report = repartition_eco(
            &applied.graph,
            constraints,
            &config,
            &EcoConfig::default(),
            &previous,
            &applied.node_map,
        ).expect("degrades, does not error");
        let out = &report.outcome;
        prop_assert_eq!(out.assignment.len(), applied.graph.node_count());
        let v = verify_assignment(&applied.graph, &out.assignment, out.device_count, constraints);
        prop_assert!(v.violations.iter().all(|x| matches!(
            x,
            Violation::OverSize { .. } | Violation::OverTerminals { .. }
        )), "violations: {:?}", v.violations);
    }

    #[test]
    fn eco_repair_is_thread_count_invariant(
        (graph, constraints) in arb_workload(),
        removals in 0usize..5,
        adds in 0usize..3,
        edit_seed in any::<u64>(),
    ) {
        let previous = baseline(&graph, constraints);
        let script = random_edit(&graph, removals, adds, edit_seed);
        let applied = apply_script(&graph, &script).expect("edit applies");
        let eco = EcoConfig::default();
        let algorithm =
            Algorithm::Eco { eco: &eco, previous: &previous, node_map: &applied.node_map };
        let run = |threads: usize| {
            search(
                &applied.graph,
                constraints,
                &FpartConfig::default(),
                algorithm,
                &Restarts { count: 3, threads, ..Restarts::default() },
                &mut Observer::none(),
            ).expect("repairs").outcome
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            let parallel = run(threads);
            prop_assert_eq!(&sequential.assignment, &parallel.assignment,
                "threads={}", threads);
            prop_assert_eq!(sequential.device_count, parallel.device_count);
            prop_assert_eq!(sequential.cut, parallel.cut);
        }
    }
}
