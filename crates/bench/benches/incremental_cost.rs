//! Microbenchmarks for the incremental cost evaluation and the
//! deterministic parallel multi-run search.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use fpart_core::cost::CostEvaluator;
use fpart_core::fm::{bipartition_fm, FmConfig};
use fpart_core::{FpartConfig, KeyTracker, Metrics, PartitionState};
use fpart_device::Device;
use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};
use fpart_hypergraph::NodeId;

fn bench_incremental_key(c: &mut Criterion) {
    let graph = synthesize_mcnc(find_profile("s9234").expect("profile"), Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let config = FpartConfig::default();
    let n = graph.node_count();

    for k in [8usize, 64] {
        let evaluator = CostEvaluator::new(constraints, &config, k, graph.terminal_count());
        let striped: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
        let seq: Vec<(NodeId, usize)> =
            (0..2_000).map(|i| (NodeId::from_index((i * 17) % n), ((i * 5) / 7) % k)).collect();

        // The replaced path: full O(k) key scan after every move.
        c.bench_function(&format!("key_from_scratch_k{k}"), |b| {
            b.iter_batched(
                || PartitionState::from_assignment(&graph, striped.clone(), k),
                |mut state| {
                    let mut acc = 0usize;
                    for &(node, to) in &seq {
                        state.move_node(node, to);
                        acc ^= evaluator.key(&state, None).cut;
                    }
                    acc
                },
                BatchSize::SmallInput,
            );
        });

        // The new path: O(1) tracker update + O(1) key assembly.
        c.bench_function(&format!("key_incremental_k{k}"), |b| {
            b.iter_batched(
                || {
                    let state = PartitionState::from_assignment(&graph, striped.clone(), k);
                    let tracker = KeyTracker::new(&evaluator, &state);
                    (state, tracker)
                },
                |(mut state, mut tracker)| {
                    let mut acc = 0usize;
                    for &(node, to) in &seq {
                        let from = state.block_of(node);
                        state.move_node(node, to);
                        tracker.apply_move(&evaluator, &state, from, to);
                        acc ^= tracker.key(&evaluator, &state, None).cut;
                    }
                    acc
                },
                BatchSize::SmallInput,
            );
        });
    }
}

fn bench_parallel_runs(c: &mut Criterion) {
    let graph = synthesize_mcnc(find_profile("s9234").expect("profile"), Technology::Xc3000);
    for threads in [1usize, 2, 4] {
        let config = FmConfig { runs: 8, threads, ..FmConfig::default() };
        c.bench_function(&format!("bipartition_runs8_t{threads}"), |b| {
            b.iter(|| black_box(bipartition_fm(&graph, &config, &mut Metrics::disabled())).cut);
        });
    }
}

criterion_group!(benches, bench_incremental_key, bench_parallel_runs);
criterion_main!(benches);
