//! Memoization determinism contracts (PR 10 acceptance gates).
//!
//! The memo subsystem's one non-negotiable rule: wiring a
//! [`MemoStore`] into a run may change *wall time*, never *results*.
//! These tests pin that from the outside:
//!
//! * proptest (c): runs with a memo store — first (populating) and
//!   second (fully warm) — are bit-identical to the memo-less run at
//!   1 and 4 threads, a fully warm run replays every restart without
//!   a single pass, a reseeded run is fully warm too (the default
//!   V-cycle reads no driver seed, so the memo key leaves it out), a
//!   search whose one cold restart is cancelled reports `cancelled`
//!   though the others replay complete, and an edited graph run
//!   through the warm store equals the memo-less run on that graph;
//! * gate (d): on the pinned quality-gate circuits (the same three
//!   `quality` bench circuits `ci.sh` holds against
//!   `goldens/quality_gate.json`), warm-started restarts verify
//!   cleanly and never degrade the quality of the cold result.

use fpart_core::{
    search, verify_assignment, Algorithm, CancelToken, Completion, Counter, FpartConfig, MemoStore,
    Metrics, MultilevelConfig, Observer, PartitionOutcome, Restarts, RestartsReport, RunBudget,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{
    clustered_circuit, layered_circuit, rent_circuit, window_circuit, ClusteredConfig,
    LayeredConfig, RentConfig, WindowConfig,
};
use fpart_hypergraph::{apply_script, EditOp, EditScript, Hypergraph, NodeId};

use proptest::prelude::*;

/// The observed n-level restart search.
fn ml_restarts(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    cfg: &FpartConfig,
    ml: &MultilevelConfig,
    restarts: usize,
    threads: usize,
) -> RestartsReport {
    let shape = Restarts { count: restarts, threads, ..Restarts::default() };
    let mut obs = Observer::new(Metrics::enabled(), None);
    search(graph, constraints, cfg, Algorithm::Multilevel(ml), &shape, &mut obs).unwrap()
}

/// A fully warm search replays every restart from the solution memo
/// and runs no pass at all.
fn assert_fully_warm(report: &RestartsReport, restarts: usize, what: &str) {
    assert_eq!(report.totals.get(Counter::Passes), 0, "{what}: passes");
    assert_eq!(report.totals.get(Counter::MemoWarmStarts), restarts as u64, "{what}: warm starts");
}

/// A small edit: node 0 gets a new neighbour on a new net.
fn edited(graph: &Hypergraph) -> Hypergraph {
    let script = EditScript::new(vec![
        EditOp::AddNode { name: "eco_new".to_owned(), size: 1 },
        EditOp::AddNet {
            name: "eco_net".to_owned(),
            pins: vec!["eco_new".to_owned(), graph.node_name(NodeId::from_index(0)).to_owned()],
        },
    ]);
    apply_script(graph, &script).expect("the edit applies").graph
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
            ml_restarts(&graph, constraints, &cfg, &MultilevelConfig::default(), restarts, 1)
                .outcome;

        let store = MemoStore::shared();
        let ml = MultilevelConfig { memo: Some(store.clone()), ..MultilevelConfig::default() };
        for threads in [1usize, 4] {
            for pass in ["populating", "warm"] {
                let what = format!("{pass} pass at {threads} thread(s)");
                let report = ml_restarts(&graph, constraints, &cfg, &ml, restarts, threads);
                assert_bit_identical(&cold, &report.outcome, &what);
                if threads > 1 || pass == "warm" {
                    assert_fully_warm(&report, restarts, &what);
                }
            }
        }

        // The store really was consulted: by the final pass every
        // restart key has been both missed (pass 1) and hit (pass 2+).
        let stats = store.stats();
        prop_assert!(
            stats.solution_hits >= restarts as u64,
            "warm passes should hit the solution memo: {stats:?}"
        );

        // The premise of leaving the driver seed out of the key: the
        // default V-cycle reads no driver seed, so the memo-less run
        // at `seed + 1` equals the one at `seed`...
        let reseeded = FpartConfig { seed: seed + 1, ..cfg.clone() };
        let memo_less_reseeded =
            ml_restarts(&graph, constraints, &reseeded, &MultilevelConfig::default(), restarts, 1);
        assert_bit_identical(&cold, &memo_less_reseeded.outcome, "memo-less reseeded run");
        // ...and a reseeded search through the warm store replays it.
        let warm_reseeded = ml_restarts(&graph, constraints, &reseeded, &ml, restarts, 1);
        assert_bit_identical(&cold, &warm_reseeded.outcome, "reseeded run through the store");
        assert_fully_warm(&warm_reseeded, restarts, "reseeded run through the store");

        // A cancel that stops the one cold restart cancels the search,
        // though every other restart replays complete from the memo.
        let cancel = CancelToken::new();
        cancel.cancel();
        let cancelled = FpartConfig {
            budget: RunBudget { cancel: Some(cancel), ..RunBudget::default() },
            ..cfg.clone()
        };
        let report = ml_restarts(&graph, constraints, &cancelled, &ml, restarts + 1, 1);
        prop_assert_eq!(report.totals.get(Counter::MemoWarmStarts), restarts as u64);
        prop_assert_eq!(report.completion, Completion::Cancelled);

        // An edited graph misses the warm store and lands on the
        // memo-less result for the edited graph.
        let graph = edited(&graph);
        let memo_less =
            ml_restarts(&graph, constraints, &cfg, &MultilevelConfig::default(), restarts, 1);
        let through_store = ml_restarts(&graph, constraints, &cfg, &ml, restarts, 1);
        assert_bit_identical(&memo_less.outcome, &through_store.outcome, "edited graph");
        prop_assert_eq!(through_store.totals.get(Counter::MemoWarmStarts), 0);
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
            ml_restarts(&graph, constraints, &cfg, &MultilevelConfig::default(), restarts, 2)
                .outcome;

        let store = MemoStore::shared();
        let ml = MultilevelConfig { memo: Some(store.clone()), ..MultilevelConfig::default() };
        let populate = ml_restarts(&graph, constraints, &cfg, &ml, restarts, 2).outcome;
        let warm = ml_restarts(&graph, constraints, &cfg, &ml, restarts, 2);

        let name = graph.name().to_owned();
        assert_fully_warm(&warm, restarts, &format!("{name}: warm run"));
        let warm = warm.outcome;
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
