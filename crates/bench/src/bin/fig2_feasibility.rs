//! Regenerates paper **Figure 2**: feasible / semi-feasible / infeasible
//! solutions in the (T, S) plane.
//!
//! Figure 2 plots each partition block as a point (I/O count, size)
//! against the device rectangle `T ≤ T_MAX, S ≤ S_MAX`. This binary runs
//! a traced FPART on s9234/XC3020 and renders the end-of-iteration
//! solution snapshots: per iteration, the block occupancy points, which
//! side of the rectangle they fall on, and the resulting classification.

use fpart_bench::runner::Workload;
use fpart_core::{partition_observed, FpartConfig, Metrics, Observer, TraceEvent};
use fpart_device::Device;
use fpart_hypergraph::gen::find_profile;

fn main() {
    let profile = find_profile("s9234").expect("known circuit");
    let workload = Workload::new(profile, Device::XC3020);
    let constraints = workload.constraints;
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut obs = Observer::new(Metrics::disabled(), Some(&mut trace));
    let outcome =
        partition_observed(&workload.graph, constraints, &FpartConfig::default(), &mut obs)
            .expect("s9234 partitions");

    println!(
        "Figure 2: solution classification for {} on XC3020 (S_MAX={}, T_MAX={})\n",
        workload.circuit, constraints.s_max, constraints.t_max
    );
    for event in &trace {
        if let TraceEvent::Solution { iteration, class, blocks } = event {
            println!("iteration {iteration}: {class:?}");
            for (i, usage) in blocks.iter().enumerate() {
                let inside = constraints.fits(usage.size, usage.terminals);
                println!(
                    "  block {i}: (T={:3}, S={:3}) {}",
                    usage.terminals,
                    usage.size,
                    if inside { "inside feasible region" } else { "OUTSIDE" }
                );
            }
        }
    }
    println!(
        "\nfinal solution: {} devices, all blocks inside the rectangle = {}",
        outcome.device_count, outcome.feasible
    );
}
