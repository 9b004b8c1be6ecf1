//! Golden-workload determinism tests.
//!
//! Every experiment in EXPERIMENTS.md depends on the synthetic MCNC
//! workloads being *bit-identical* across runs and refactors — the Rent
//! calibration (DESIGN.md) is tied to these exact netlists. These tests
//! pin a structural fingerprint of each workload; if a generator change
//! alters them, the calibration and the recorded results must be redone,
//! and this failing test is the reminder.
//!
//! The same hash also pins the *results* of the multi-device flows that
//! run boundary pair refinement (n-level partitioning, ECO repair, and a
//! pair job lost to an injected panic), so a refactor of the refiner
//! must reproduce them exactly. Flat FPART runs pin their engine
//! counters too, so a refactor of the pass engine must reproduce the
//! search itself, not only where it lands.

use std::sync::Once;

use fpart_core::config::GainObjective;
use fpart_core::{
    partition_multilevel, partition_multilevel_observed, partition_observed, repartition_eco,
    Counter, EcoConfig, FaultPlan, FpartConfig, Metrics, MultilevelConfig, Observer,
    PartitionOutcome,
};
use fpart_device::{Device, DeviceConstraints};
use fpart_hypergraph::gen::{
    find_profile, mcnc_profiles, rent_circuit, synthesize_mcnc, RentConfig, Technology,
};
use fpart_hypergraph::{apply_script, EditOp, EditScript, Hypergraph};

/// Incremental FNV-1a over little-endian `u64` words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the full net/pin/terminal structure.
fn fingerprint(graph: &Hypergraph) -> u64 {
    let mut h = Fnv1a::new();
    let mut mix = |value: u64| h.mix(value);
    mix(graph.node_count() as u64);
    mix(graph.net_count() as u64);
    mix(graph.terminal_count() as u64);
    for net in graph.net_ids() {
        mix(graph.pins(net).len() as u64);
        for &pin in graph.pins(net) {
            mix(pin.index() as u64);
        }
    }
    for t in graph.terminal_ids() {
        mix(graph.terminal_net(t).index() as u64);
    }
    h.0
}

#[test]
fn workload_fingerprints_are_stable_within_a_run() {
    for profile in mcnc_profiles().iter().take(4) {
        let a = fingerprint(&synthesize_mcnc(profile, Technology::Xc3000));
        let b = fingerprint(&synthesize_mcnc(profile, Technology::Xc3000));
        assert_eq!(a, b, "{} is not deterministic", profile.name);
    }
}

/// The pinned fingerprints of all ten XC3000-mapped workloads. If this
/// test fails after an intentional generator change, re-run the full
/// calibration (see DESIGN.md), update EXPERIMENTS.md, and re-pin.
#[test]
fn xc3000_workload_fingerprints_are_pinned() {
    let measured: Vec<(String, u64)> = mcnc_profiles()
        .iter()
        .map(|p| {
            let g = synthesize_mcnc(p, Technology::Xc3000);
            (p.name.to_owned(), fingerprint(&g))
        })
        .collect();
    // To re-pin after an intentional change, print `measured` and paste.
    let pinned: Vec<(String, u64)> =
        PINNED_XC3000.iter().map(|(n, f)| ((*n).to_owned(), *f)).collect();
    assert_eq!(
        measured, pinned,
        "workload fingerprints changed — recalibrate and re-pin (see test docs)"
    );
}

/// Pinned on the calibration used by EXPERIMENTS.md. Re-pinned when the
/// generators moved from the external `rand` crate to the in-tree
/// xoshiro256** module (`fpart_hypergraph::rng`), which changed the
/// underlying streams once.
const PINNED_XC3000: [(&str, u64); 10] = [
    ("c3540", 0x0e1c812101ff9f7b),
    ("c5315", 0x12a656699116c0ec),
    ("c6288", 0xcf1155a2344641a2),
    ("c7552", 0x461b232e43435e74),
    ("s5378", 0x95ad7c572e567ef3),
    ("s9234", 0xfb79119a0bc85e20),
    ("s13207", 0x5991dda05f884d10),
    ("s15850", 0x78646ce7a3efb2fa),
    ("s38417", 0x7194927b51eac60c),
    ("s38584", 0x67b5f986566263a0),
];

/// FNV-1a over a per-node block assignment.
fn assignment_hash(assignment: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    h.mix(assignment.len() as u64);
    for &block in assignment {
        h.mix(u64::from(block));
    }
    h.0
}

/// `(assignment hash, devices, cut)` of one outcome.
fn result_key(outcome: &PartitionOutcome) -> (u64, usize, usize) {
    (assignment_hash(&outcome.assignment), outcome.device_count, outcome.cut)
}

/// A 4,000-cell Rent circuit on devices of 120 cells: the n-level flow
/// needs 30+ blocks, so an uncoarsening round can fill all 16 of its
/// block-disjoint pairs.
fn pinned_circuit() -> (Hypergraph, DeviceConstraints) {
    (rent_circuit(&RentConfig::new("pinned", 4000, 120), 1), DeviceConstraints::new(120, 64))
}

/// Removes 24 cells spread over the design and adds 12 fresh cells,
/// each wired to a surviving cell: a small edit, so ECO takes the
/// dirty-block repair path.
fn pinned_edit(graph: &Hypergraph) -> EditScript {
    let n = graph.node_count() as u64;
    let removed: Vec<u64> = (0..24u64).map(|i| (i * 7919 + 13) % n).collect();
    let mut ops: Vec<EditOp> =
        removed.iter().map(|&i| EditOp::RemoveNode { name: format!("x{i}") }).collect();
    for i in 0..12u64 {
        let anchor = (i * 4099 + 5) % n;
        assert!(!removed.contains(&anchor), "anchors must survive the edit");
        ops.push(EditOp::AddNode { name: format!("eco{i}"), size: 1 });
        ops.push(EditOp::AddNet {
            name: format!("eco_net{i}"),
            pins: vec![format!("eco{i}"), format!("x{anchor}")],
        });
    }
    EditScript::new(ops)
}

/// Keeps the deliberately injected pair-job panic out of the test output.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// The exact n-level, ECO and pair-panic results on the pinned circuit,
/// at whatever worker count `FPART_THREADS` selects (every count must
/// give the same values). If an intentional algorithm change moves
/// them, re-pin from the failed assertion's left-hand side in the same
/// commit that refreshes the quality gate's golden.
#[test]
fn refinement_results_are_pinned() {
    quiet_injected_panics();
    let (graph, constraints) = pinned_circuit();
    let config = FpartConfig::default();
    let ml = MultilevelConfig::default();

    let multilevel = partition_multilevel(&graph, constraints, &config, &ml).expect("partitions");
    assert!(multilevel.device_count >= 30, "{} devices", multilevel.device_count);

    let applied = apply_script(&graph, &pinned_edit(&graph)).expect("edit applies");
    let eco = repartition_eco(
        &applied.graph,
        constraints,
        &config,
        &EcoConfig::default(),
        &multilevel.assignment,
        &applied.node_map,
    )
    .expect("repairs");
    assert!(eco.repaired, "the edit must take the dirty-block repair path");

    let faulted_config = FpartConfig {
        fault_plan: Some(FaultPlan::panic_at(2, "injected fault").for_only_pair_job(0)),
        ..FpartConfig::default()
    };
    let mut obs = Observer::new(Metrics::enabled(), None);
    let faulted =
        partition_multilevel_observed(&graph, constraints, &faulted_config, &ml, &mut obs)
            .expect("a lost pair job still partitions");
    assert!(obs.metrics.get(Counter::PairPanics) >= 1, "the fault must hit a pair job");

    let measured = [result_key(&multilevel), result_key(&eco.outcome), result_key(&faulted)];
    assert_eq!(measured, PINNED_REFINEMENT_RESULTS);
}

/// `(assignment hash, devices, cut)` for the n-level run, the ECO repair
/// and the faulted n-level run of [`refinement_results_are_pinned`].
/// The faulted run loses five pair jobs and ends two nets worse.
const PINNED_REFINEMENT_RESULTS: [(u64, usize, usize); 3] = [
    (0xd3fc_24a4_a03f_54fd, 34, 209),
    (0xf24e_1f75_e49a_2a46, 34, 215),
    (0x1afe_db44_13e2_b33c, 34, 211),
];

/// The engine counters that describe the work of a search, in the order
/// [`SearchWork::counters`] lists them.
const SEARCH_WORK_COUNTERS: [Counter; 7] = [
    Counter::Passes,
    Counter::MovesApplied,
    Counter::MovesReverted,
    Counter::GainBucketPops,
    Counter::StackRestarts,
    Counter::KeyEvaluations,
    Counter::SnapshotsMaterialized,
];

/// The result of one flat run and the search work that produced it.
#[derive(Debug, PartialEq, Eq)]
struct SearchWork {
    /// `(assignment hash, devices, cut)`.
    result: (u64, usize, usize),
    /// The values of [`SEARCH_WORK_COUNTERS`].
    counters: [u64; 7],
}

/// Flat FPART on one pinned XC3000 workload, with metrics enabled.
fn flat_search_work(circuit: &str, device: Device, gain_objective: GainObjective) -> SearchWork {
    let profile = find_profile(circuit).expect("known circuit");
    let graph = synthesize_mcnc(profile, Technology::Xc3000);
    let pinned = PINNED_XC3000.iter().find(|(name, _)| *name == circuit).expect("pinned circuit");
    assert_eq!(fingerprint(&graph), pinned.1, "{circuit} is not the pinned workload");
    let config = FpartConfig { gain_objective, ..FpartConfig::default() };
    let mut obs = Observer::new(Metrics::enabled(), None);
    let outcome =
        partition_observed(&graph, device.constraints(0.9), &config, &mut obs).expect("partitions");
    SearchWork {
        result: result_key(&outcome),
        counters: SEARCH_WORK_COUNTERS.map(|c| obs.metrics.get(c)),
    }
}

/// The exact search work of flat FPART: c6288 on XC3020 (M = 15, so the
/// all-block multi-way passes and the final pairwise sweep run), s13207
/// on XC3020 (M = 16, two-block passes only) and c6288 under the I/O-pin
/// gain objective. Result hashes alone would not catch a change that
/// does more or different search work and still lands on the same
/// answer; the counters do. Every worker count must give these values.
/// If an intentional change to the search moves them, re-pin from the
/// failed assertion's left-hand side and say why in the same commit.
#[test]
fn flat_search_work_is_pinned() {
    let measured = [
        flat_search_work("c6288", Device::XC3020, GainObjective::CutNets),
        flat_search_work("s13207", Device::XC3020, GainObjective::CutNets),
        flat_search_work("c6288", Device::XC3020, GainObjective::IoPins),
    ];
    assert_eq!(measured, PINNED_SEARCH_WORK);
}

/// [`SearchWork`] of the three runs of [`flat_search_work_is_pinned`].
const PINNED_SEARCH_WORK: [SearchWork; 3] = [
    SearchWork {
        result: (0x6401_2de9_fd99_c3ba, 15, 207),
        counters: [819, 160_937, 154_970, 1_519_555, 368, 162_226, 604],
    },
    SearchWork {
        result: (0x9b6b_160f_0523_5398, 17, 405),
        counters: [767, 86_739, 81_695, 581_951, 319, 87_913, 563],
    },
    SearchWork {
        result: (0x17da_bc77_b8f6_97d4, 15, 210),
        counters: [896, 206_092, 193_612, 1_601_605, 379, 207_469, 600],
    },
];
