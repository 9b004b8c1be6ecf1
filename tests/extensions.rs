//! Integration tests of the extension features: multilevel clustering,
//! replication, the classical FM facade, heterogeneous device fitting,
//! and the paper's §5 future-work options.

use fpart_baselines::replicate;
use fpart_core::config::GainObjective;
use fpart_core::fm::{bipartition_fm, FmConfig};
use fpart_core::{partition, FpartConfig, Metrics, MultilevelConfig, QualityReport};
use fpart_device::fit::{default_price_list, fit_blocks};
use fpart_device::Device;
use fpart_hypergraph::coarsen::coarsen_by_connectivity;
use fpart_hypergraph::gen::{find_profile, synthesize_mcnc, Technology};

#[test]
fn multilevel_flow_is_feasible_on_mcnc() {
    let p = find_profile("s13207").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let ml = MultilevelConfig::default();
    let config = FpartConfig::default();
    let out = fpart_core::partition_multilevel_restarts_observed(
        &g,
        constraints,
        &config,
        &ml,
        1,
        ml.threads,
    )
    .expect("runs")
    .outcome;
    assert!(out.feasible);
    assert!(out.device_count >= out.lower_bound);
    let total: u64 = out.blocks.iter().map(|b| b.size).sum();
    assert_eq!(total, g.total_size());
    // A real n-level run: the hierarchy has depth and every level's
    // boundary refinement is accounted in the metrics registry.
    assert!(out.metrics.get(fpart_core::Counter::CoarsenLevels) >= 2);
    assert!(out.metrics.get(fpart_core::Counter::BoundaryRefinements) > 0);
}

#[test]
fn coarsening_then_fm_recovers_structure() {
    let p = find_profile("s9234").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let c = coarsen_by_connectivity(&g, 6, 3);
    assert!(c.coarse.node_count() < g.node_count());
    assert_eq!(c.coarse.total_size(), g.total_size());
    // FM on the coarse graph, projected back, is still a valid split.
    let coarse_split = bipartition_fm(&c.coarse, &FmConfig::default(), &mut Metrics::disabled());
    let fine = c.project(&coarse_split.side);
    let state = fpart_core::PartitionState::from_assignment(&g, fine, 2);
    assert_eq!(state.block_size(0) + state.block_size(1), g.total_size());
    assert!(state.cut_count() > 0); // the circuit is connected
}

#[test]
fn replication_after_fpart_only_improves_io() {
    let p = find_profile("s5378").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let out = partition(&g, constraints, &FpartConfig::default()).expect("runs");
    let rep = replicate(&g, &out.assignment, out.device_count, constraints);
    for b in 0..out.device_count {
        assert!(rep.terminals_after[b] <= rep.terminals_before[b], "block {b} got worse");
        assert!(rep.sizes_after[b] <= constraints.s_max, "block {b} over capacity");
    }
    // The reported pre-replication terminals agree with the outcome.
    for (b, block) in out.blocks.iter().enumerate() {
        assert_eq!(rep.terminals_before[b], block.terminals, "block {b}");
    }
}

#[test]
fn hetero_fitting_never_costs_more_than_homogeneous() {
    let p = find_profile("s15850").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let constraints = Device::XC3090.constraints(0.9);
    let out = partition(&g, constraints, &FpartConfig::default()).expect("runs");
    let list = default_price_list();
    let report = fit_blocks(&out.usages(), 0.9, &list).expect("all blocks fit something");
    let xc3090_price = list.iter().find(|d| d.device == Device::XC3090).expect("catalog").price;
    assert!(report.total_price <= xc3090_price * out.device_count as f64 + 1e-9);
    assert_eq!(report.per_block.len(), out.device_count);
}

#[test]
fn in_flow_hetero_is_cheapest_of_the_three_strategies() {
    let p = find_profile("s13207").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let list = default_price_list();
    let hetero =
        fpart_core::partition_hetero(&g, &list, 0.9, &FpartConfig::default()).expect("runs");
    assert!(hetero.feasible);
    // Sizes conserve across the heterogeneous assignment.
    let total: u64 = hetero.usages.iter().map(|u| u.size).sum();
    assert_eq!(total, g.total_size());
    // In-flow never costs more than homogeneous-XC3090 + refit.
    let homogeneous =
        partition(&g, Device::XC3090.constraints(0.9), &FpartConfig::default()).expect("runs");
    let refit = fit_blocks(&homogeneous.usages(), 0.9, &list).expect("fits");
    assert!(
        hetero.total_price <= refit.total_price + 1e-9,
        "in-flow {} vs refit {}",
        hetero.total_price,
        refit.total_price
    );
}

#[test]
fn future_work_configs_produce_valid_partitions() {
    let p = find_profile("s9234").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    for config in [
        FpartConfig { gain_objective: GainObjective::IoPins, ..FpartConfig::default() },
        FpartConfig { early_stop_patience: Some(16), ..FpartConfig::default() },
    ] {
        let out = partition(&g, constraints, &config).expect("runs");
        assert!(out.feasible);
        let total: u64 = out.blocks.iter().map(|b| b.size).sum();
        assert_eq!(total, g.total_size());
        assert!(out.device_count <= 2 * out.lower_bound);
    }
}

#[test]
fn quality_report_reflects_outcome() {
    let p = find_profile("c3540").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let out = partition(&g, constraints, &FpartConfig::default()).expect("runs");
    let report = QualityReport::new(&out, constraints);
    assert_eq!(report.device_count, out.device_count);
    assert_eq!(report.cut, out.cut);
    assert!(report.mean_fill > 0.5, "mean fill {}", report.mean_fill);
    assert!(report.to_string().contains("devices:"));
}

#[test]
fn fm_facade_bipartitions_mcnc_circuit() {
    let p = find_profile("c3540").expect("known circuit");
    let g = synthesize_mcnc(p, Technology::Xc3000);
    let result = bipartition_fm(&g, &FmConfig::default(), &mut Metrics::disabled());
    assert!(result.balance() > 0.38, "balance {}", result.balance());
    // The cut should be far below the net count on a Rent-structured
    // circuit (a random split would cut a large fraction).
    assert!(result.cut * 4 < g.net_count(), "cut {} of {} nets", result.cut, g.net_count());
}
