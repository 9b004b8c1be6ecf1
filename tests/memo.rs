//! Memoization determinism contracts (PR 10 acceptance gates).
//!
//! The memo subsystem's one non-negotiable rule: wiring a
//! [`MemoStore`] into a run may change *wall time*, never *results*.
//! These tests pin that from the outside:
//!
//! * proptest (c): runs with a memo store — first (populating) and
//!   second (fully warm) — are bit-identical to the memo-less run at
//!   1 and 4 threads;
//! * gate (d): on the pinned quality-gate circuits (the same three
//!   `quality` bench circuits `ci.sh` holds against
//!   `goldens/quality_gate.json`), warm-started restarts verify
//!   cleanly and never degrade the quality of the cold result.

use fpart_core::{
    search, verify_assignment, Algorithm, FpartConfig, MemoStore, MultilevelConfig, Observer,
    PartitionOutcome, Restarts,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{
    clustered_circuit, layered_circuit, rent_circuit, window_circuit, ClusteredConfig,
    LayeredConfig, RentConfig, WindowConfig,
};
use fpart_hypergraph::Hypergraph;

use proptest::prelude::*;

/// The unobserved n-level restart search.
fn ml_restarts(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    cfg: &FpartConfig,
    ml: &MultilevelConfig,
    restarts: usize,
    threads: usize,
) -> PartitionOutcome {
    let shape = Restarts { count: restarts, threads, ..Restarts::default() };
    search(graph, constraints, cfg, Algorithm::Multilevel(ml), &shape, &mut Observer::none())
        .unwrap()
        .outcome
}

fn assert_bit_identical(cold: &PartitionOutcome, warm: &PartitionOutcome, what: &str) {
    assert_eq!(cold.assignment, warm.assignment, "{what}: assignment");
    assert_eq!(cold.device_count, warm.device_count, "{what}: device count");
    assert_eq!(cold.cut, warm.cut, "{what}: cut");
    assert_eq!(cold.feasible, warm.feasible, "{what}: feasibility");
    assert_eq!(cold.completion, warm.completion, "{what}: completion");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance gate (c): cached runs are bit-identical to uncached
    /// runs at 1 and 4 threads — on the populating pass and on the
    /// fully warm pass.
    #[test]
    fn cached_runs_are_bit_identical_to_uncached(
        nodes in 80usize..200,
        seed in 0u64..300,
        restarts in 1usize..4,
    ) {
        let graph = window_circuit(&WindowConfig::new("memoprop", nodes, 8), 13);
        let constraints = DeviceConstraints::new(40, 24);
        let cfg = FpartConfig { seed, ..FpartConfig::default() };
        let cold =
            ml_restarts(&graph, constraints, &cfg, &MultilevelConfig::default(), restarts, 1);

        let store = MemoStore::shared();
        for threads in [1usize, 4] {
            let ml = MultilevelConfig {
                memo: Some(store.clone()),
                ..MultilevelConfig::default()
            };
            for pass in ["populating", "warm"] {
                let warm = ml_restarts(&graph, constraints, &cfg, &ml, restarts, threads);
                assert_bit_identical(
                    &cold,
                    &warm,
                    &format!("{pass} pass at {threads} thread(s)"),
                );
            }
        }
        // The store really was consulted: by the final pass every
        // restart key has been both missed (pass 1) and hit (pass 2+).
        let stats = store.stats();
        prop_assert!(
            stats.solution_hits >= restarts as u64,
            "warm passes should hit the solution memo: {stats:?}"
        );
        // A solution-memo hit short-circuits before coarsening, so only
        // the populating pass consults the hierarchy cache — but it must
        // have done so at least once.
        prop_assert!(
            stats.hierarchy_hits + stats.hierarchy_misses >= 1,
            "hierarchy cache never consulted: {stats:?}"
        );
    }
}

/// The pinned quality-gate circuits of the `quality` bench /
/// `goldens/quality_gate.json` (same generators, seeds, and devices).
fn quality_gate_circuits() -> Vec<(Hypergraph, DeviceConstraints)> {
    vec![
        (rent_circuit(&RentConfig::new("rent", 4000, 200), 11), DeviceConstraints::new(400, 120)),
        (
            layered_circuit(&LayeredConfig::new("layered", 40, 80), 7),
            DeviceConstraints::new(500, 150),
        ),
        (
            clustered_circuit(&ClusteredConfig::new("clustered", 12, 260), 3).0,
            DeviceConstraints::new(450, 130),
        ),
    ]
}

/// Acceptance gate (d): warm-started restarts never verify-fail or
/// degrade quality vs cold on the pinned quality-gate circuits.
/// (Determinism makes "never degrade" exact equality; the extra
/// information here is that the warm path really ran — the memo hit
/// counters prove it — and that its output verifies structurally.)
#[test]
fn warm_started_restarts_never_degrade_on_quality_gate_circuits() {
    let restarts = 2;
    for (graph, constraints) in quality_gate_circuits() {
        let cfg = FpartConfig::default();
        let cold =
            ml_restarts(&graph, constraints, &cfg, &MultilevelConfig::default(), restarts, 2);

        let store = MemoStore::shared();
        let ml = MultilevelConfig { memo: Some(store.clone()), ..MultilevelConfig::default() };
        let populate = ml_restarts(&graph, constraints, &cfg, &ml, restarts, 2);
        let warm = ml_restarts(&graph, constraints, &cfg, &ml, restarts, 2);

        let name = graph.name().to_owned();
        assert_bit_identical(&cold, &populate, &format!("{name}: populating run"));
        assert_bit_identical(&cold, &warm, &format!("{name}: warm run"));

        // Quality must not degrade (equality is the strongest form).
        assert!(
            warm.feasible == cold.feasible
                && warm.device_count <= cold.device_count
                && warm.cut <= cold.cut,
            "{name}: warm start degraded quality"
        );

        // The warm run's winner still verifies against the live graph.
        let verification =
            verify_assignment(&graph, &warm.assignment, warm.blocks.len(), constraints);
        assert!(
            verification.violations.is_empty(),
            "{name}: warm-started winner must verify: {:?}",
            verification.violations
        );

        // And the warm path genuinely replayed memoized restarts
        // rather than silently falling back cold every time.
        let stats = store.stats();
        assert!(
            stats.solution_hits >= restarts as u64,
            "{name}: warm run never hit the solution memo: {stats:?}"
        );
    }
}
