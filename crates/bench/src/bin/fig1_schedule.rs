//! Regenerates paper **Figure 1**: the call schedule of the iterative
//! improvement passes.
//!
//! Figure 1 illustrates which blocks each `Improve(...)` call touches
//! per iteration for a partitioning with `M ≤ N_small`. This binary runs
//! a traced FPART on such a workload (s5378 on XC3020, M = 7) and prints
//! the actual schedule — the two-lately-partitioned pass, the all-block
//! pass, the remainder-vs-{min-size, min-IO, max-free} passes, and the
//! final pairwise sweep at k = M — with the solution key improvement each
//! call achieved.

use fpart_bench::runner::Workload;
use fpart_core::{partition_observed, FpartConfig, Metrics, Observer, TraceEvent};
use fpart_device::Device;
use fpart_hypergraph::gen::find_profile;

fn main() {
    let profile = find_profile("s5378").expect("known circuit");
    let workload = Workload::new(profile, Device::XC3020);
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut obs = Observer::new(Metrics::disabled(), Some(&mut trace));
    let outcome = partition_observed(
        &workload.graph,
        workload.constraints,
        &FpartConfig::default(),
        &mut obs,
    )
    .expect("s5378 partitions");

    println!(
        "Figure 1: improvement-pass schedule for {} on XC3020 (M = {}, final k = {})\n",
        workload.circuit, workload.lower_bound, outcome.device_count
    );
    for event in &trace {
        match event {
            TraceEvent::IterationStart { iteration, remainder_size, remainder_terminals } => {
                println!(
                    "iteration {iteration}: remainder S={remainder_size} T={remainder_terminals}"
                );
            }
            TraceEvent::Bipartition { method, peeled_size, peeled_terminals, .. } => {
                println!("  Bipartition[{method:?}] peeled S={peeled_size} T={peeled_terminals}");
            }
            TraceEvent::Improve {
                kind,
                blocks,
                initial_key,
                final_key,
                passes,
                moves,
                restarts,
                ..
            } => {
                let blocks = if blocks.len() > 4 {
                    format!("all {} blocks", blocks.len())
                } else {
                    format!("{blocks:?}")
                };
                println!(
                    "  Improve[{kind:?}] {blocks}: d_k {:.3} -> {:.3}, cut {} -> {} ({passes} passes, {moves} moves, {restarts} restarts)",
                    initial_key.infeasibility,
                    final_key.infeasibility,
                    initial_key.cut,
                    final_key.cut,
                );
            }
            TraceEvent::Solution { class, .. } => {
                println!("  end of iteration: {class:?}");
            }
            // Heartbeats are throttled live-progress events; the figure
            // reproduces the pass schedule, so they carry no new rows.
            TraceEvent::Progress { .. } => {}
        }
    }
    println!("\nfinal: {} devices, feasible = {}", outcome.device_count, outcome.feasible);
}
