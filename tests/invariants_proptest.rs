//! Property-based tests over the core data structures and algorithms:
//! random circuits, random move sequences, random device constraints.

use fpart_core::bucket::GainBucket;
use fpart_core::cost::CostEvaluator;
use fpart_core::{
    partition, partition_multilevel, search, Algorithm, Completion, FpartConfig, KeyTracker,
    MultilevelConfig, Observer, PartitionError, PartitionOutcome, PartitionState, Restarts,
    RunBudget, SolutionKey,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::coarsen::coarsen_to_floor;
use fpart_hypergraph::gen::{window_circuit, WindowConfig};
use fpart_hypergraph::{Hypergraph, NodeId};
use proptest::prelude::*;

/// Three unobserved restarts of `algorithm` on `threads` workers.
fn three_restarts(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    algorithm: Algorithm<'_>,
    threads: usize,
) -> Result<PartitionOutcome, PartitionError> {
    let shape = Restarts { count: 3, threads, ..Restarts::default() };
    search(graph, constraints, config, algorithm, &shape, &mut Observer::none())
        .map(|report| report.outcome)
}

/// Strategy: a small random hypergraph (connected enough to be
/// interesting, with random sizes and a few terminals).
fn arb_graph() -> impl Strategy<Value = Hypergraph> {
    (4usize..40, 0usize..8, any::<u64>()).prop_map(|(nodes, terminals, seed)| {
        let mut cfg = WindowConfig::new("prop", nodes, terminals);
        cfg.extra_size_prob = 0.3;
        window_circuit(&cfg, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental bookkeeping in `PartitionState` stays exactly
    /// consistent with a from-scratch recount under arbitrary move
    /// sequences.
    #[test]
    fn partition_state_consistent_under_random_moves(
        graph in arb_graph(),
        moves in proptest::collection::vec((any::<u32>(), 0usize..4), 0..60),
        k in 2usize..5,
    ) {
        let n = graph.node_count();
        let assignment: Vec<u32> = (0..n as u32).map(|i| i % k as u32).collect();
        let mut state = PartitionState::from_assignment(&graph, assignment, k);
        for (node, block) in moves {
            let node = NodeId::from_index(node as usize % n);
            state.move_node(node, block % k);
        }
        state.assert_consistent();
    }

    /// Terminal sums and cut counts are invariant under block
    /// relabeling-like move cycles (move a node away and back).
    #[test]
    fn move_cycles_restore_state(
        graph in arb_graph(),
        picks in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let n = graph.node_count();
        let assignment: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let mut state = PartitionState::from_assignment(&graph, assignment.clone(), 3);
        let before: Vec<(u64, usize, usize)> = (0..3)
            .map(|b| (state.block_size(b), state.block_terminals(b), state.block_externals(b)))
            .collect();
        let cut = state.cut_count();
        for &p in &picks {
            let node = NodeId::from_index(p as usize % n);
            let home = state.block_of(node);
            state.move_node(node, (home + 1) % 3);
            state.move_node(node, (home + 2) % 3);
            state.move_node(node, home);
        }
        let after: Vec<(u64, usize, usize)> = (0..3)
            .map(|b| (state.block_size(b), state.block_terminals(b), state.block_externals(b)))
            .collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(cut, state.cut_count());
    }

    /// The incremental `KeyTracker` key equals the from-scratch O(k)
    /// evaluation after arbitrary move / rollback sequences — the
    /// correctness contract behind the engine's O(1)-per-move cost
    /// updates. Rollbacks are modeled exactly as the pass engine performs
    /// them: replaying logged moves in reverse, tracker updated per step.
    #[test]
    fn incremental_key_matches_from_scratch(
        graph in arb_graph(),
        moves in proptest::collection::vec((any::<u32>(), 0usize..4), 1..50),
        k in 2usize..5,
        s_max in 8u64..48,
        t_max in 8usize..48,
        rollback_frac in 0.0f64..1.0,
    ) {
        let n = graph.node_count();
        let constraints = DeviceConstraints::new(s_max, t_max);
        let evaluator =
            CostEvaluator::new(constraints, &FpartConfig::default(), k, graph.terminal_count());
        let assignment: Vec<u32> = (0..n as u32).map(|i| i % k as u32).collect();
        let mut state = PartitionState::from_assignment(&graph, assignment, k);
        let mut tracker = KeyTracker::new(&evaluator, &state);

        // Forward phase: random moves, tracker updated incrementally.
        let mut log: Vec<(NodeId, u32)> = Vec::new();
        for (pick, block) in moves {
            let node = NodeId::from_index(pick as usize % n);
            let from = state.block_of(node);
            let to = (block % k) as u32;
            state.move_node(node, to as usize);
            tracker.apply_move(&evaluator, &state, from, to as usize);
            log.push((node, from as u32));
            prop_assert_eq!(
                tracker.key(&evaluator, &state, None),
                evaluator.key(&state, None),
                "incremental key diverged after a forward move"
            );
        }

        // Rollback phase: undo a suffix of the log in reverse order.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let keep = ((log.len() as f64) * rollback_frac) as usize;
        while log.len() > keep {
            let (node, home) = log.pop().unwrap();
            let from = state.block_of(node);
            state.move_node(node, home as usize);
            tracker.apply_move(&evaluator, &state, from, home as usize);
            prop_assert_eq!(
                tracker.key(&evaluator, &state, None),
                evaluator.key(&state, None),
                "incremental key diverged after a rollback step"
            );
        }

        // A remainder designation changes the assembled key but must not
        // break the equality either.
        prop_assert_eq!(
            tracker.key(&evaluator, &state, Some(0)),
            evaluator.key(&state, Some(0)),
            "incremental key diverged under a remainder designation"
        );
    }

    /// Parallel multi-run search is bit-identical to sequential for any
    /// thread count on random circuits. The restarts start from random
    /// initial partitions, so they differ (the constructive peel reads
    /// no seed) and their order matters.
    #[test]
    fn restarts_thread_invariant_on_random_circuits(
        graph in arb_graph(),
        s_max in 16u64..48,
        t_max in 16usize..48,
        threads in 2usize..9,
    ) {
        let constraints = DeviceConstraints::new(s_max, t_max);
        let max_node = graph.node_ids().map(|v| u64::from(graph.node_size(v))).max().unwrap_or(0);
        prop_assume!(max_node <= s_max);
        let config = FpartConfig { use_constructive_initial: false, ..FpartConfig::default() };
        let sequential = three_restarts(&graph, constraints, &config, Algorithm::Flat, 1);
        let parallel = three_restarts(&graph, constraints, &config, Algorithm::Flat, threads);
        match (sequential, parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.assignment, b.assignment);
                prop_assert_eq!(a.device_count, b.device_count);
                prop_assert_eq!(a.cut, b.cut);
                prop_assert_eq!(a.feasible, b.feasible);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "sequential and parallel disagree on success: {a:?} vs {b:?}"
                )));
            }
        }
    }

    /// FPART on random circuits: always terminates, and when it reports
    /// feasible every block really fits and the count respects the bound.
    #[test]
    fn fpart_outcome_contract_on_random_circuits(
        graph in arb_graph(),
        s_max in 8u64..64,
        t_max in 8usize..64,
    ) {
        let constraints = DeviceConstraints::new(s_max, t_max);
        let max_node = graph.node_ids().map(|v| u64::from(graph.node_size(v))).max().unwrap_or(0);
        prop_assume!(max_node <= s_max);
        match partition(&graph, constraints, &FpartConfig::default()) {
            Ok(outcome) => {
                let total: u64 = outcome.blocks.iter().map(|b| b.size).sum();
                prop_assert_eq!(total, graph.total_size());
                if outcome.feasible {
                    prop_assert!(outcome.device_count >= outcome.lower_bound);
                    for b in &outcome.blocks {
                        prop_assert!(constraints.fits(b.size, b.terminals));
                    }
                }
            }
            Err(fpart_core::PartitionError::IterationLimit { .. }) => {
                // Permitted on adversarial I/O-dominated inputs.
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// GainBucket behaves like a naive map from cell to gain, and a
    /// cleared bucket behaves exactly like a new one.
    #[test]
    fn gain_bucket_matches_model(
        ops in proptest::collection::vec((0u32..64, -8i32..=8, 0u8..16), 1..200)
    ) {
        let mut bucket = GainBucket::new(64, 8);
        // Replays the operations since the last clear on a new bucket.
        let mut fresh = GainBucket::new(64, 8);
        let mut model: std::collections::HashMap<u32, i32> = std::collections::HashMap::new();
        for (cell, gain, op) in ops {
            match op {
                0 => {
                    bucket.clear();
                    fresh = GainBucket::new(64, 8);
                    model.clear();
                }
                1..=7 => {
                    model.entry(cell).or_insert_with(|| {
                        bucket.insert(cell, gain);
                        fresh.insert(cell, gain);
                        gain
                    });
                }
                _ => {
                    let was = model.remove(&cell).is_some();
                    prop_assert_eq!(bucket.remove(cell), was);
                    fresh.remove(cell);
                }
            }
            prop_assert_eq!(bucket.len(), model.len());
        }
        // Max gain agrees with the model.
        prop_assert_eq!(bucket.max_gain(), model.values().max().copied());
        // Every modeled cell is present with the right gain.
        for (&cell, &gain) in &model {
            prop_assert!(bucket.contains(cell));
            prop_assert_eq!(bucket.gain_of(cell), gain);
        }
        // Same cells in the same scan order as a bucket never cleared.
        prop_assert_eq!(fresh.max_gain(), bucket.max_gain());
        for gain in -8..=8 {
            prop_assert_eq!(bucket.cells_at(gain), fresh.cells_at(gain));
        }
    }

    /// The text parsers never panic on arbitrary input — they either
    /// parse or return a structured error.
    #[test]
    fn parsers_never_panic_on_garbage(text in "\\PC*{0,400}") {
        let _ = fpart_hypergraph::io::parse_netlist(&text);
        let _ = fpart_hypergraph::hmetis::parse_hmetis(&text);
        let _ = fpart_hypergraph::blif::parse_blif(&text);
    }

    /// Structured-ish random `.fhg` documents: parse errors are fine,
    /// successful parses must produce self-consistent graphs.
    #[test]
    fn fhg_fuzz_with_plausible_records(
        records in proptest::collection::vec(
            proptest::sample::select(vec![
                "node a 1", "node b 2", "node c 3", "net n1 a b", "net n2 b c",
                "net n3 a", "terminal t1 n1", "terminal t2 n9", "circuit x",
                "# comment", "", "node a", "net", "bogus line",
            ]),
            0..20,
        )
    ) {
        let text = records.join("\n");
        if let Ok(g) = fpart_hypergraph::io::parse_netlist(&text) {
            for net in g.net_ids() {
                for &pin in g.pins(net) {
                    prop_assert!(g.nets(pin).contains(&net));
                }
            }
        }
    }

    /// Coarsening conserves total size and yields a surjective map onto
    /// the coarse nodes, for random circuits and caps.
    #[test]
    fn coarsening_invariants(
        graph in arb_graph(),
        cap in 2u64..12,
        seed in any::<u64>(),
    ) {
        let c = fpart_hypergraph::coarsen::coarsen_by_connectivity(&graph, cap, seed);
        prop_assert_eq!(c.coarse.total_size(), graph.total_size());
        prop_assert_eq!(c.map.len(), graph.node_count());
        let mut hit = vec![false; c.coarse.node_count()];
        for m in &c.map {
            prop_assert!(m.index() < c.coarse.node_count());
            hit[m.index()] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "every coarse node has members");
        prop_assert_eq!(c.coarse.terminal_count(), graph.terminal_count());
    }

    /// An n-level hierarchy's projection to the finest graph is always
    /// verifiable: any assignment of the coarsest nodes projects to a
    /// full-coverage, in-range assignment of the input graph that
    /// conserves every block's size.
    #[test]
    fn nlevel_projection_is_always_verifiable(
        graph in arb_graph(),
        cap in 2u64..10,
        floor in 2usize..12,
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let hierarchy = coarsen_to_floor(&graph, cap, floor, 64, seed);
        let coarsest_n = hierarchy.coarsest().map_or(graph.node_count(), |c| c.node_count());
        prop_assert!(coarsest_n <= graph.node_count());
        let coarse: Vec<u32> =
            (0..coarsest_n as u32).map(|i| (i.wrapping_mul(7)) % k as u32).collect();
        let fine = hierarchy.project_to_finest(&coarse);
        prop_assert_eq!(fine.len(), graph.node_count());
        for &b in &fine {
            prop_assert!((b as usize) < k);
        }
        // Block sizes conserve through every projection level.
        let fine_state = PartitionState::from_assignment(&graph, fine, k);
        if let Some(coarsest) = hierarchy.coarsest() {
            let coarse_state = PartitionState::from_assignment(coarsest, coarse, k);
            for b in 0..k {
                prop_assert_eq!(fine_state.block_size(b), coarse_state.block_size(b));
            }
        }
    }

    /// The multilevel restart search is bit-identical across thread
    /// counts, exactly like the flat search.
    #[test]
    fn multilevel_restarts_thread_invariant_on_random_circuits(
        graph in arb_graph(),
        s_max in 16u64..48,
        t_max in 16usize..48,
        threads in 2usize..5,
    ) {
        let constraints = DeviceConstraints::new(s_max, t_max);
        let max_node = graph.node_ids().map(|v| u64::from(graph.node_size(v))).max().unwrap_or(0);
        prop_assume!(max_node <= s_max);
        let ml = MultilevelConfig { coarsen_floor: 8, ..MultilevelConfig::default() };
        let config = FpartConfig::default();
        let sequential = three_restarts(&graph, constraints, &config, Algorithm::Multilevel(&ml), 1);
        let parallel =
            three_restarts(&graph, constraints, &config, Algorithm::Multilevel(&ml), threads);
        match (sequential, parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.assignment, b.assignment);
                prop_assert_eq!(a.device_count, b.device_count);
                prop_assert_eq!(a.cut, b.cut);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "sequential and parallel disagree on success: {a:?} vs {b:?}"
                )));
            }
        }
    }

    /// An already-expired deadline anywhere in the V-cycle still yields
    /// full-coverage, in-range output flagged `deadline_expired` — the
    /// graceful-degradation contract holds mid-uncoarsening.
    #[test]
    fn multilevel_deadline_always_yields_verifiable_output(
        graph in arb_graph(),
        s_max in 16u64..48,
        t_max in 16usize..48,
    ) {
        let constraints = DeviceConstraints::new(s_max, t_max);
        let max_node = graph.node_ids().map(|v| u64::from(graph.node_size(v))).max().unwrap_or(0);
        prop_assume!(max_node <= s_max);
        let config = FpartConfig {
            budget: RunBudget {
                deadline: Some(std::time::Duration::ZERO),
                ..RunBudget::default()
            },
            ..FpartConfig::default()
        };
        let ml = MultilevelConfig { coarsen_floor: 4, ..MultilevelConfig::default() };
        let out = partition_multilevel(&graph, constraints, &config, &ml);
        match out {
            Ok(out) => {
                // A circuit that fits one device can finish before any
                // pass runs (legitimately `Complete`); any multi-block
                // solve must have hit the expired deadline.
                if out.device_count > 1 {
                    prop_assert_eq!(out.completion, Completion::DeadlineExpired);
                }
                prop_assert_eq!(out.assignment.len(), graph.node_count());
                for &b in &out.assignment {
                    prop_assert!((b as usize) < out.device_count);
                }
                let total: u64 = out.blocks.iter().map(|b| b.size).sum();
                prop_assert_eq!(total, graph.total_size());
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!("deadline must degrade, not fail: {e}")));
            }
        }
    }

    /// The independent verifier agrees with the incremental state on
    /// random assignments.
    #[test]
    fn verifier_matches_state(
        graph in arb_graph(),
        k in 1usize..5,
        seed in any::<u32>(),
    ) {
        let n = graph.node_count();
        let assignment: Vec<u32> =
            (0..n as u32).map(|i| (i.wrapping_mul(seed | 1)) % k as u32).collect();
        let state = PartitionState::from_assignment(&graph, assignment.clone(), k);
        let v = fpart_core::verify_assignment(
            &graph,
            &assignment,
            k,
            DeviceConstraints::new(u64::MAX / 2, usize::MAX / 2),
        );
        prop_assert_eq!(v.cut, state.cut_count());
        for b in 0..k {
            prop_assert_eq!(v.sizes[b], state.block_size(b));
            prop_assert_eq!(v.terminals[b], state.block_terminals(b));
        }
    }

    /// The lexicographic solution order is total, antisymmetric, and
    /// transitive over random keys.
    #[test]
    fn solution_key_order_is_consistent(
        raw in proptest::collection::vec(
            (0usize..5, 0.0f64..4.0, 0usize..200, 0.0f64..2.0, 0usize..100),
            3..12,
        )
    ) {
        let keys: Vec<SolutionKey> = raw
            .into_iter()
            .map(|(f, d, t, e, c)| SolutionKey {
                feasible_blocks: f,
                total_blocks: 5,
                infeasibility: d,
                terminal_sum: t,
                external_balance: e,
                cut: c,
            })
            .collect();
        for a in &keys {
            prop_assert!(!a.better_than(a));
            for b in &keys {
                if a.better_than(b) {
                    prop_assert!(!b.better_than(a));
                }
                for c in &keys {
                    if a.better_than(b) && b.better_than(c) {
                        prop_assert!(a.better_than(c));
                    }
                }
            }
        }
    }
}
