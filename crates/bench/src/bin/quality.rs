//! Quality-regression gate data: partitions three pinned, seeded
//! circuits (Rent-style, layered, clustered) with the flat FPART driver
//! and the n-level multilevel flow, and emits each result's
//! lexicographic quality key `(f, devices, d_k, T_SUM, d_k^E, cut)` as
//! JSON, next to the gain-bucket pops the run spent (the engine's unit
//! of search work).
//!
//! `scripts/check_quality.py` compares this output against the
//! checked-in golden (`goldens/quality_gate.json`) and fails CI when a
//! key regresses beyond the documented tolerance, or when the n-level
//! and ECO runs stop saving work over the runs they replace. Every run here is
//! single-threaded and fully seeded, so the output is reproducible
//! bit-for-bit; the tolerance only exists as headroom for intentional
//! algorithm changes (which must update the golden in the same commit).
//!
//! Output path: first CLI argument, default `QUALITY.json`.

use std::fmt::Write as _;

use fpart_core::cost::CostEvaluator;
use fpart_core::{
    partition_multilevel_restarts_observed, partition_observed, repartition_eco_observed, Counter,
    EcoConfig, FpartConfig, Metrics, MultilevelConfig, Observer, PartitionOutcome, PartitionState,
};
use fpart_device::{lower_bound, DeviceConstraints};
use fpart_hypergraph::gen::{
    clustered_circuit, layered_circuit, rent_circuit, ClusteredConfig, LayeredConfig, RentConfig,
};
use fpart_hypergraph::{apply_script, EditOp, EditScript, Hypergraph, NodeId};

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "QUALITY.json".to_owned());
    let config = FpartConfig::default();
    let ml = MultilevelConfig::default();

    // The three pinned workloads: distinct topology families so a
    // regression in any of the engine's regimes (locality, depth,
    // pre-clustered structure) shows up in at least one row.
    let circuits: Vec<(Hypergraph, DeviceConstraints)> = vec![
        (rent_circuit(&RentConfig::new("rent", 4000, 200), 11), DeviceConstraints::new(400, 120)),
        (
            layered_circuit(&LayeredConfig::new("layered", 40, 80), 7),
            DeviceConstraints::new(500, 150),
        ),
        (
            clustered_circuit(&ClusteredConfig::new("clustered", 12, 260), 3).0,
            DeviceConstraints::new(450, 130),
        ),
    ];

    let mut rows = Vec::new();
    let mut rent_previous = None;
    for (graph, constraints) in &circuits {
        let flat = partition_observed(
            graph,
            *constraints,
            &config,
            &mut Observer::new(Metrics::enabled(), None),
        )
        .expect("flat partitions");
        if graph.name() == "rent" {
            rent_previous = Some(flat.assignment.clone());
        }
        rows.push(row(graph, *constraints, &config, "flat", &flat));
        let nlevel = partition_multilevel_restarts_observed(
            graph,
            *constraints,
            &config,
            &ml,
            1,
            ml.threads,
        )
        .expect("multilevel partitions")
        .outcome;
        rows.push(row(graph, *constraints, &config, "multilevel", &nlevel));
        println!(
            "{}: flat {} devices cut {}, multilevel {} devices cut {}",
            graph.name(),
            flat.device_count,
            flat.cut,
            nlevel.device_count,
            nlevel.cut
        );
    }

    // ECO scenario: a pinned capacity-balanced edit of the Rent circuit
    // repaired from the pinned flat partition, so the incremental path's
    // quality is gated alongside the from-scratch flows. The edit stays
    // deterministic — it is derived from node indices only.
    let (rent, rent_constraints) = &circuits[0];
    let previous = rent_previous.expect("rent row ran");
    let script = pinned_edit(rent);
    let applied = apply_script(rent, &script).expect("pinned edit applies");
    let eco = repartition_eco_observed(
        &applied.graph,
        *rent_constraints,
        &config,
        &EcoConfig::default(),
        &previous,
        &applied.node_map,
        &mut Observer::new(Metrics::enabled(), None),
    )
    .expect("eco repairs");
    assert!(eco.repaired, "the pinned edit is capacity-balanced; the repair must stay local");
    rows.push(row(&applied.graph, *rent_constraints, &config, "eco", &eco.outcome));
    println!(
        "{} (eco, {} edits): {} devices cut {} (repaired={})",
        rent.name(),
        script.len(),
        eco.outcome.device_count,
        eco.outcome.cut,
        eco.repaired
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {},", fpart_core::SCHEMA_VERSION);
    let _ = writeln!(json, "  \"circuits\": [\n{}\n  ]", rows.join(",\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write quality json");
    println!("wrote {out_path}");
}

/// The pinned ~1% churn edit: remove every 197th cell (20 in total),
/// then add an equal-size replacement wired to a surviving neighbour of
/// the cell it stands in for. Capacity-balanced by construction, so the
/// repair stays on the incremental path.
fn pinned_edit(graph: &Hypergraph) -> EditScript {
    let n = graph.node_count();
    let removed: Vec<usize> = (0..20).map(|i| (i * 197) % n).collect();
    let removed_set: std::collections::HashSet<usize> = removed.iter().copied().collect();
    let mut ops: Vec<EditOp> = removed
        .iter()
        .map(|&idx| EditOp::RemoveNode {
            name: graph.node_name(NodeId::from_index(idx)).to_owned(),
        })
        .collect();
    for (j, &idx) in removed.iter().enumerate() {
        let v = NodeId::from_index(idx);
        let neighbour = graph
            .nets(v)
            .iter()
            .flat_map(|&e| graph.pins(e).iter().copied())
            .find(|u| !removed_set.contains(&u.index()))
            .unwrap_or_else(|| {
                graph.node_ids().find(|u| !removed_set.contains(&u.index())).expect("survivors")
            });
        let name = format!("eco_{j}");
        ops.push(EditOp::AddNode { name: name.clone(), size: graph.node_size(v) });
        ops.push(EditOp::AddNet {
            name: format!("eco_net_{j}"),
            pins: vec![name, graph.node_name(neighbour).to_owned()],
        });
    }
    EditScript::new(ops)
}

/// One gate row: the solution's lexicographic quality key components
/// and the gain-bucket pops its run spent.
fn row(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    method: &str,
    outcome: &PartitionOutcome,
) -> String {
    let evaluator = CostEvaluator::new(
        constraints,
        config,
        lower_bound(graph, constraints),
        graph.terminal_count(),
    );
    let state = PartitionState::from_assignment(
        graph,
        outcome.assignment.clone(),
        outcome.device_count.max(1),
    );
    let key = evaluator.key(&state, None);
    format!(
        "    {{\"name\": \"{}\", \"method\": \"{method}\", \"nodes\": {}, \
         \"feasible\": {}, \"devices\": {}, \"infeasibility\": {:.4}, \
         \"terminal_sum\": {}, \"external_balance\": {:.4}, \"cut\": {}, \
         \"gain_bucket_pops\": {}}}",
        graph.name(),
        graph.node_count(),
        outcome.feasible,
        outcome.device_count,
        key.infeasibility,
        key.terminal_sum,
        key.external_balance,
        key.cut,
        outcome.metrics.get(Counter::GainBucketPops)
    )
}
