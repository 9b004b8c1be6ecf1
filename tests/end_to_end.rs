//! End-to-end integration: synthesize each paper workload, run FPART,
//! and check the full result contract (feasibility, lower bound,
//! conservation, determinism).

use fpart_core::{partition, FpartConfig, PartitionState};
use fpart_device::{lower_bound, Device};
use fpart_hypergraph::gen::{find_profile, mcnc_profiles, synthesize_mcnc, Technology};

/// Checks every invariant a finished partition must satisfy.
fn check_contract(
    graph: &fpart_hypergraph::Hypergraph,
    constraints: fpart_device::DeviceConstraints,
    outcome: &fpart_core::PartitionOutcome,
) {
    assert_eq!(outcome.assignment.len(), graph.node_count());
    assert_eq!(outcome.blocks.len(), outcome.device_count);
    // Sizes conserve.
    let total: u64 = outcome.blocks.iter().map(|b| b.size).sum();
    assert_eq!(total, graph.total_size());
    // Reported block stats must match a recount from the assignment.
    let state =
        PartitionState::from_assignment(graph, outcome.assignment.clone(), outcome.device_count);
    for (b, report) in outcome.blocks.iter().enumerate() {
        assert_eq!(state.block_size(b), report.size, "block {b} size");
        assert_eq!(state.block_terminals(b), report.terminals, "block {b} terminals");
        assert_eq!(state.block_externals(b), report.externals, "block {b} externals");
        assert_eq!(
            constraints.fits(report.size, report.terminals),
            report.feasible,
            "block {b} feasibility flag"
        );
    }
    assert_eq!(state.cut_count(), outcome.cut);
    if outcome.feasible {
        assert!(outcome.device_count >= outcome.lower_bound);
        assert!(outcome.blocks.iter().all(|b| b.feasible));
    }
}

#[test]
fn all_mcnc_circuits_partition_feasibly_on_xc3020() {
    let constraints = Device::XC3020.constraints(0.9);
    for profile in mcnc_profiles() {
        let graph = synthesize_mcnc(profile, Technology::Xc3000);
        let outcome = partition(&graph, constraints, &FpartConfig::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", profile.name));
        assert!(outcome.feasible, "{} infeasible", profile.name);
        check_contract(&graph, constraints, &outcome);
        assert_eq!(outcome.lower_bound, lower_bound(&graph, constraints));
        // Sanity band: within 2× of the bound on every circuit (the
        // measured results are far tighter; this guards regressions).
        assert!(
            outcome.device_count <= 2 * outcome.lower_bound,
            "{}: {} devices vs bound {}",
            profile.name,
            outcome.device_count,
            outcome.lower_bound
        );
    }
}

#[test]
fn xc3090_small_circuits_match_published_exactly() {
    // Paper Table 4, small group: every method agrees, so the synthetic
    // reproduction must too.
    let expected =
        [("c3540", 1), ("c5315", 3), ("c6288", 3), ("c7552", 3), ("s5378", 2), ("s9234", 2)];
    let constraints = Device::XC3090.constraints(0.9);
    for (name, k) in expected {
        let profile = find_profile(name).expect("known circuit");
        let graph = synthesize_mcnc(profile, Technology::Xc3000);
        let outcome = partition(&graph, constraints, &FpartConfig::default()).expect("runs");
        assert!(outcome.feasible);
        assert_eq!(outcome.device_count, k, "{name} on XC3090");
    }
}

#[test]
fn partitioning_is_deterministic_end_to_end() {
    let profile = find_profile("c5315").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3042.constraints(0.9);
    let a = partition(&graph, constraints, &FpartConfig::default()).expect("runs");
    let b = partition(&graph, constraints, &FpartConfig::default()).expect("runs");
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.device_count, b.device_count);
    assert_eq!(a.cut, b.cut);
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn xc2064_uses_the_xc2000_mapping() {
    let profile = find_profile("c6288").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc2000);
    let constraints = Device::XC2064.constraints(1.0);
    let outcome = partition(&graph, constraints, &FpartConfig::default()).expect("runs");
    assert!(outcome.feasible);
    check_contract(&graph, constraints, &outcome);
    // Paper Table 5: every method uses exactly 14 devices for c6288.
    assert_eq!(outcome.device_count, 14);
}

/// Full-size stress run on the biggest circuit × every paper device.
/// Slow in debug builds, so opt-in: `cargo test -- --ignored`.
#[test]
#[ignore = "several-second stress run; enable with --ignored"]
fn s38584_all_devices_stress() {
    let profile = find_profile("s38584").expect("known circuit");
    for device in [Device::XC3020, Device::XC3042, Device::XC3090] {
        let graph = synthesize_mcnc(profile, Technology::Xc3000);
        let constraints = device.constraints(0.9);
        let outcome = partition(&graph, constraints, &FpartConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", device.name));
        assert!(outcome.feasible, "{}", device.name);
        check_contract(&graph, constraints, &outcome);
    }
}

#[test]
fn trace_matches_untraced_result() {
    let profile = find_profile("s9234").expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let constraints = Device::XC3042.constraints(0.9);
    let plain = partition(&graph, constraints, &FpartConfig::default()).expect("runs");
    let mut trace = fpart_core::Trace::enabled();
    let mut obs = fpart_core::Observer::new(fpart_core::Metrics::disabled(), Some(&mut trace));
    let traced =
        fpart_core::partition_observed(&graph, constraints, &FpartConfig::default(), &mut obs)
            .expect("runs");
    assert_eq!(plain.assignment, traced.assignment);
    assert!(!trace.events().is_empty());
}
