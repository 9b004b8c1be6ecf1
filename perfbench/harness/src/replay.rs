//! Traced in-process replay of a generated workload.
//!
//! The replay recomposes each operation of the untraced run from the
//! layers' public functions and times every call from outside. Nothing
//! is traced inside the program: a split that has no public entry
//! point (the boundary `improve` timer, the V-cycle phases inside a
//! served `partition`) is read from the program's own [`Metrics`] and
//! labelled `program-side` in the output.
//!
//! Batch runs replay the CLI's `partition` path: `read_netlist`, then
//! either the flat FPART driver or the n-level V-cycle composed as
//! `coarsen_to_floor` → `partition_observed` on the coarsest graph →
//! per level `PartitionState::from_assignment` +
//! `refine_boundary_metered`, then `verify_assignment` and
//! `write_assignment`. The served workload feeds every request line to
//! an in-process [`Server::handle`] and repeats the same library calls
//! directly (`apply_script`, `repartition_eco_observed`,
//! `partition_multilevel_restarts_observed`), so the server's own
//! overhead is `handle` time minus the direct calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fpart_core::refine::{refine_boundary_metered, RefineConfig};
use fpart_core::{
    partition_multilevel_restarts_observed, partition_observed, repartition_eco_observed,
    verify_assignment, write_assignment, BudgetTracker, CostEvaluator, Counter, EcoConfig,
    FpartConfig, ImproveKind, Json, MemoStore, Metrics, MultilevelConfig, Observer, PartitionState,
    Server, ServerConfig, SpanKind,
};
use fpart_device::{lower_bound, Device, DeviceConstraints};
use fpart_hypergraph::coarsen::coarsen_to_floor;
use fpart_hypergraph::gen::{rent_circuit, RentConfig};
use fpart_hypergraph::io::read_netlist;
use fpart_hypergraph::{apply_script, EditScript, Hypergraph};

/// Every per-layer metric the replay reports, in output order, with
/// its unit.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("io.parse_s", "s"),
    ("io.pins", "count"),
    ("coarsen.s", "s"),
    ("coarsen.levels", "count"),
    ("coarsen.coarsest_nodes", "count"),
    ("initial.s", "s"),
    ("engine.passes", "count"),
    ("engine.moves_applied", "count"),
    ("engine.moves_reverted", "count"),
    ("engine.keep_ratio", "ratio"),
    ("engine.gain_bucket_pops", "count"),
    ("refine.s", "s"),
    ("refine.state_build_s", "s"),
    ("refine.improve_s", "s"),
    ("refine.overhead_s", "s"),
    ("refine.pair_jobs", "count"),
    ("refine.improved_ratio", "ratio"),
    ("refine.boundary_cells", "count"),
    ("eco.apply_s", "s"),
    ("eco.repair_s", "s"),
    ("eco.dirty_blocks", "count"),
    ("eco.fallbacks", "count"),
    ("eco.edits", "count"),
    ("memo.solution_hits", "count"),
    ("memo.solution_misses", "count"),
    ("memo.hierarchy_hits", "count"),
    ("memo.hierarchy_misses", "count"),
    ("memo.hit_ratio", "ratio"),
    ("server.overhead_ms", "ms"),
    ("verify.s", "s"),
    ("write.s", "s"),
    ("trace.coverage_pct", "%"),
    ("trace.wall_s", "s"),
];

/// One returned partition, as the benchmark compares it with the
/// untraced run.
struct Outcome {
    id: String,
    hash: u64,
    devices: usize,
    terminal_sum: usize,
}

/// Accumulated layer metrics plus the time attributed to layers.
#[derive(Default)]
struct Acc {
    values: BTreeMap<&'static str, f64>,
    /// Sources measured by the program rather than by the replay.
    program_side: Vec<&'static str>,
    /// Seconds of layer self time, for the coverage figure.
    attributed_s: f64,
    /// Seconds the replay spent on the work the untraced run timed:
    /// the whole replay for batch runs, `Server::handle` when served.
    served_s: f64,
}

impl Acc {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.values.entry(key).or_insert(0.0) += value;
    }

    fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Runs `f`, adding its wall time to `key` and to the attributed
    /// total.
    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let result = f();
        let seconds = started.elapsed().as_secs_f64();
        self.add(key, seconds);
        self.attributed_s += seconds;
        result
    }

    fn program_side(&mut self, key: &'static str, value: f64) {
        self.add(key, value);
        if !self.program_side.contains(&key) {
            self.program_side.push(key);
        }
    }

    /// Engine counters the FPART driver booked in `metrics`.
    fn engine(&mut self, metrics: &Metrics) {
        for (key, counter) in [
            ("engine.passes", Counter::Passes),
            ("engine.moves_applied", Counter::MovesApplied),
            ("engine.moves_reverted", Counter::MovesReverted),
            ("engine.gain_bucket_pops", Counter::GainBucketPops),
        ] {
            self.program_side(key, metrics.get(counter) as f64);
        }
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("manifest or reply lacks `{key}`"))
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?.as_str().ok_or_else(|| format!("`{key}` is not a string"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?.as_u64().ok_or_else(|| format!("`{key}` is not an integer"))
}

/// FNV-1a over the block ids, one `u64` step per node — the benchmark's
/// assignment identity (the Python side computes the same value).
fn assignment_hash(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in assignment {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Renumbers blocks densely in block order, dropping empty blocks — the
/// form every driver returns and the CLI writes.
fn compact(assignment: &[u32], k: usize) -> Vec<u32> {
    let mut used = vec![false; k];
    for &b in assignment {
        used[b as usize] = true;
    }
    let mut dense = vec![u32::MAX; k];
    let mut next = 0;
    for (slot, &u) in dense.iter_mut().zip(&used) {
        if u {
            *slot = next;
            next += 1;
        }
    }
    assignment.iter().map(|&b| dense[b as usize]).collect()
}

fn load(acc: &mut Acc, path: &str) -> Result<Hypergraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let graph =
        acc.time("io.parse_s", || read_netlist(file)).map_err(|e| format!("{path}: {e}"))?;
    acc.add("io.pins", graph.pin_count() as f64);
    Ok(graph)
}

/// Verifies a returned assignment, renders it like the CLI's `--output`,
/// and records its identity.
fn finish(
    acc: &mut Acc,
    id: String,
    graph: &Hypergraph,
    assignment: &[u32],
    constraints: DeviceConstraints,
) -> Outcome {
    let devices = assignment.iter().max().map_or(0, |&b| b as usize + 1);
    let v = acc.time("verify.s", || verify_assignment(graph, assignment, devices, constraints));
    let mut bytes = Vec::new();
    acc.time("write.s", || write_assignment(&mut bytes, graph, assignment))
        .expect("writing to memory");
    std::hint::black_box(bytes);
    Outcome {
        id,
        hash: assignment_hash(assignment),
        devices,
        terminal_sum: v.terminals.iter().sum(),
    }
}

/// The n-level V-cycle of `fpart partition --multilevel --threads 1`,
/// composed from public functions with the CLI's default settings.
fn vcycle(
    acc: &mut Acc,
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
) -> Result<Vec<u32>, String> {
    let ml = MultilevelConfig { threads: 1, ..MultilevelConfig::default() };
    let cap = ((constraints.s_max as f64 * ml.cluster_cap_fraction) as u64).max(2);
    let hierarchy = acc.time("coarsen.s", || {
        coarsen_to_floor(graph, cap, ml.coarsen_floor, ml.max_levels, ml.seed)
    });
    acc.add("coarsen.levels", hierarchy.level_count() as f64);
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    acc.add("coarsen.coarsest_nodes", coarsest.node_count() as f64);

    let mut obs = Observer::new(Metrics::enabled(), None);
    let coarse = acc
        .time("initial.s", || partition_observed(coarsest, constraints, config, &mut obs))
        .map_err(|e| e.to_string())?;
    acc.engine(&obs.metrics);

    let tracker = BudgetTracker::new(&config.budget, None);
    let evaluator = CostEvaluator::new(
        constraints,
        config,
        lower_bound(graph, constraints),
        graph.terminal_count(),
    );
    let refine =
        RefineConfig { rounds: ml.refine_rounds, pairs_per_round: ml.pairs_per_round, workers: 1 };
    let mut metrics = Metrics::enabled();
    let mut k = coarse.device_count.max(1);
    let mut assignment = coarse.assignment;
    let mut next = Vec::with_capacity(graph.node_count());
    let (mut calls, mut improved) = (0usize, 0usize);
    for i in (0..hierarchy.level_count()).rev() {
        acc.time("coarsen.project_s", || hierarchy.levels[i].project_into(&assignment, &mut next));
        std::mem::swap(&mut assignment, &mut next);
        let fine = if i == 0 { graph } else { &hierarchy.levels[i - 1].coarse };
        let taken = std::mem::take(&mut assignment);
        let mut state =
            acc.time("refine.state_build_s", || PartitionState::from_assignment(fine, taken, k));
        let stats = acc.time("refine.s", || {
            refine_boundary_metered(
                &mut state,
                &evaluator,
                config,
                &refine,
                Some(&tracker),
                &mut metrics,
            )
        });
        calls += stats.calls;
        improved += stats.improved;
        acc.add("refine.boundary_cells", stats.boundary as f64);
        k = state.block_count();
        assignment = state.into_assignment();
    }
    acc.add("refine.calls", calls as f64);
    acc.add("refine.improved", improved as f64);
    acc.program_side(
        "refine.improve_s",
        metrics.improve_time(ImproveKind::Boundary).total_ns as f64 * 1e-9,
    );
    acc.program_side("refine.pair_jobs", metrics.get(Counter::PairJobs) as f64);
    Ok(compact(&assignment, k))
}

fn replay_batch(acc: &mut Acc, manifest: &Json, results: &mut Vec<Outcome>) -> Result<(), String> {
    let runs = field(manifest, "runs")?.as_array().ok_or("`runs` is not an array")?;
    for (i, run) in runs.iter().enumerate() {
        let graph = load(acc, field_str(run, "netlist")?)?;
        let device = field_str(run, "device")?;
        let constraints = Device::by_name(device)
            .ok_or_else(|| format!("unknown device {device}"))?
            .constraints(0.9);
        let config = FpartConfig::default();
        let assignment = if matches!(run.get("multilevel"), Some(Json::Bool(true))) {
            vcycle(acc, &graph, constraints, &config)?
        } else {
            let mut obs = Observer::new(Metrics::enabled(), None);
            let outcome = acc
                .time("initial.s", || partition_observed(&graph, constraints, &config, &mut obs))
                .map_err(|e| e.to_string())?;
            acc.engine(&obs.metrics);
            outcome.assignment
        };
        results.push(finish(acc, format!("run-{i}"), &graph, &assignment, constraints));
    }
    Ok(())
}

/// Adds the V-cycle phases a served run booked in its own span profile.
fn served_phases(acc: &mut Acc, metrics: &Metrics) {
    acc.engine(metrics);
    let (mut coarsen, mut initial, mut refine, mut boundary) = (0u64, 0u64, 0u64, 0u64);
    let mut coarsest: Option<(u32, u64)> = None;
    for r in metrics.spans().records() {
        match r.kind {
            SpanKind::CoarsenLevel => {
                coarsen += r.total_ns;
                if coarsest.is_none_or(|(level, _)| r.level >= level) {
                    coarsest = Some((r.level, r.stats.nodes / r.count.max(1)));
                }
            }
            SpanKind::Initial => initial += r.total_ns,
            SpanKind::RefineLevel | SpanKind::EcoRepair => {
                refine += r.total_ns;
                boundary += r.stats.boundary;
            }
            _ => {}
        }
    }
    acc.program_side("coarsen.s", coarsen as f64 * 1e-9);
    acc.program_side("coarsen.levels", metrics.get(Counter::CoarsenLevels) as f64);
    if let Some((_, nodes)) = coarsest {
        acc.values.insert("coarsen.coarsest_nodes", nodes as f64);
    }
    acc.program_side("initial.s", initial as f64 * 1e-9);
    acc.program_side("refine.s", refine as f64 * 1e-9);
    acc.program_side("refine.boundary_cells", boundary as f64);
    acc.program_side(
        "refine.improve_s",
        metrics.improve_time(ImproveKind::Boundary).total_ns as f64 * 1e-9,
    );
    acc.program_side("refine.pair_jobs", metrics.get(Counter::PairJobs) as f64);
}

/// The final reply line of one `Server::handle` call, checked `ok`.
fn reply_result(out: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
    let last = text.lines().last().ok_or("empty reply")?;
    let doc = Json::parse(last).map_err(|e| e.to_string())?;
    if !matches!(doc.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("request failed: {last}"));
    }
    field(&doc, "result").cloned()
}

fn replay_serve(acc: &mut Acc, manifest: &Json, results: &mut Vec<Outcome>) -> Result<(), String> {
    let requests = std::fs::read_to_string(field_str(manifest, "requests")?)
        .map_err(|e| format!("cannot read requests: {e}"))?;
    let constraints = DeviceConstraints::new(
        field_u64(manifest, "s_max")?,
        usize::try_from(field_u64(manifest, "t_max")?).map_err(|e| e.to_string())?,
    );
    let served_store = MemoStore::shared();
    let server = Server::new(ServerConfig {
        threads: 1,
        memo: Some(Arc::clone(&served_store)),
        ..ServerConfig::default()
    });
    // The direct calls get a store of their own, so each path sees
    // exactly the cache state the other one does.
    let direct_store = MemoStore::shared();
    let ml =
        MultilevelConfig { threads: 1, memo: Some(direct_store), ..MultilevelConfig::default() };
    let eco_config = EcoConfig { multilevel: ml.clone(), ..EcoConfig::default() };

    let mut graph: Option<Hypergraph> = None;
    let mut last: Vec<u32> = Vec::new();
    let mut overhead_ms: Vec<f64> = Vec::new();
    let mut handle_s = 0.0;
    let mut partition_metrics = Metrics::enabled();
    for line in requests.lines() {
        let request = Json::parse(line).map_err(|e| e.to_string())?;
        let id = field_str(&request, "id")?.to_owned();
        let mut out = Vec::new();
        let started = Instant::now();
        server.handle(line, &mut out);
        let served = started.elapsed().as_secs_f64();
        handle_s += served;
        let reply = reply_result(&out).map_err(|e| format!("{id}: {e}"))?;

        let direct_started = acc.attributed_s;
        match field_str(&request, "cmd")? {
            "load" => {
                graph = Some(load(acc, field_str(&request, "path")?)?);
                continue;
            }
            "partition" => {
                let g = graph.as_ref().ok_or("partition before load")?;
                let config =
                    FpartConfig { seed: field_u64(&request, "seed")?, ..FpartConfig::default() };
                let report = acc
                    .time("partition.s", || {
                        partition_multilevel_restarts_observed(g, constraints, &config, &ml, 1, 1)
                    })
                    .map_err(|e| e.to_string())?;
                partition_metrics.merge(&report.totals);
                last = report.outcome.assignment;
            }
            "eco" => {
                let g = graph.take().ok_or("eco before load")?;
                let edits = field_str(&request, "edits")?;
                let applied = acc
                    .time("eco.apply_s", || {
                        EditScript::parse(edits)
                            .map_err(|e| e.to_string())
                            .and_then(|script| apply_script(&g, &script).map_err(|e| e.to_string()))
                    })
                    .map_err(|e| format!("{id}: {e}"))?;
                acc.add("eco.edits", edits.lines().count() as f64);
                let mut obs = Observer::new(Metrics::enabled(), None);
                let report = acc
                    .time("eco.repair_s", || {
                        repartition_eco_observed(
                            &applied.graph,
                            constraints,
                            &FpartConfig::default(),
                            &eco_config,
                            &last,
                            &applied.node_map,
                            &mut obs,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                acc.add("eco.dirty_blocks", report.dirty_blocks as f64);
                acc.add("eco.fallbacks", f64::from(u8::from(!report.repaired)));
                partition_metrics.merge(&obs.metrics);
                last = report.outcome.assignment;
                graph = Some(applied.graph);
            }
            other => return Err(format!("{id}: unexpected command {other}")),
        }
        overhead_ms.push((served - (acc.attributed_s - direct_started)) * 1e3);

        let g = graph.as_ref().expect("a partition or eco leaves a graph");
        let served_assignment: Vec<u32> = field(&reply, "assignment")?
            .as_array()
            .ok_or("`assignment` is not an array")?
            .iter()
            .map(|b| b.as_u64().map(|b| b as u32).ok_or("bad block id"))
            .collect::<Result<_, _>>()?;
        if served_assignment != last {
            return Err(format!("{id}: Server::handle and the direct library calls disagree"));
        }
        results.push(finish(acc, id, g, &last, constraints));
    }
    // The served runs' phases come from their own span profiles; the
    // direct wrapper time itself is not a layer of its own.
    served_phases(acc, &partition_metrics);
    acc.values.remove("partition.s");

    let stats = served_store.stats();
    acc.add("memo.solution_hits", stats.solution_hits as f64);
    acc.add("memo.solution_misses", stats.solution_misses as f64);
    acc.add("memo.hierarchy_hits", stats.hierarchy_hits as f64);
    acc.add("memo.hierarchy_misses", stats.hierarchy_misses as f64);
    let lookups =
        stats.solution_hits + stats.solution_misses + stats.hierarchy_hits + stats.hierarchy_misses;
    if lookups > 0 {
        acc.add(
            "memo.hit_ratio",
            (stats.solution_hits + stats.hierarchy_hits) as f64 / lookups as f64,
        );
    }
    overhead_ms.sort_by(f64::total_cmp);
    if !overhead_ms.is_empty() {
        acc.add("server.overhead_ms", overhead_ms[overhead_ms.len() / 2]);
    }
    // `Server::handle` repeats every direct library call: its own self
    // time is the server layer, the rest is the same layers again.
    acc.attributed_s += handle_s;
    acc.served_s = handle_s;
    Ok(())
}

/// Replays the workload in `dir` and returns the result document.
///
/// # Errors
///
/// A missing or malformed input, a failed library call, or a served
/// result that differs from the direct library calls.
pub fn replay(workload: &str, dir: &Path) -> Result<String, String> {
    std::env::set_current_dir(dir).map_err(|e| format!("cannot enter {}: {e}", dir.display()))?;
    let manifest = Json::parse(
        &std::fs::read_to_string("manifest.json")
            .map_err(|e| format!("cannot read manifest: {e}"))?,
    )
    .map_err(|e| e.to_string())?;
    let mut acc = Acc::default();
    let mut results = Vec::new();
    let started = Instant::now();
    match workload {
        "mcnc-flat" | "widek-40k" => {
            replay_batch(&mut acc, &manifest, &mut results)?;
            acc.served_s = started.elapsed().as_secs_f64();
        }
        "serve-eco" => replay_serve(&mut acc, &manifest, &mut results)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    let wall = started.elapsed().as_secs_f64();
    let seed = field_u64(&manifest, "seed")?;
    let filled = fill_from_probe(&mut acc, probe(seed)?);
    Ok(render(&mut acc, wall, &results, &filled))
}

/// Runs every layer's entry points on a small seeded circuit: the
/// V-cycle, then a short served ECO session. A workload that never
/// calls a layer reports the probe's figures for it, so every layer has
/// a measured value on every workload ("nearly absent" rather than a
/// constant zero).
fn probe(seed: u64) -> Result<Acc, String> {
    let mut acc = Acc::default();
    let graph = rent_circuit(&RentConfig::new("probe", 1_500, 100), seed);
    let limits = (129, 96);
    let constraints = DeviceConstraints::new(limits.0, limits.1);
    let assignment = vcycle(&mut acc, &graph, constraints, &FpartConfig::default())?;
    finish(&mut acc, "probe".to_owned(), &graph, &assignment, constraints);

    crate::gen::write_netlist(Path::new("."), "probe.fhg", &graph)?;
    let requests = crate::gen::serve_requests(&graph, "probe.fhg", limits, seed, 1);
    std::fs::write("probe-requests.jsonl", requests)
        .map_err(|e| format!("cannot write probe requests: {e}"))?;
    let manifest = Json::Obj(vec![
        ("requests".to_owned(), Json::Str("probe-requests.jsonl".to_owned())),
        ("s_max".to_owned(), Json::Num(limits.0 as f64)),
        ("t_max".to_owned(), Json::Num(limits.1 as f64)),
    ]);
    // The session contributes only the layers the V-cycle above does not
    // reach; its V-cycle phases are program-side and would mix sources.
    let mut served = Acc::default();
    replay_serve(&mut served, &manifest, &mut Vec::new())?;
    for (key, value) in served.values {
        if ["eco.", "memo.", "server."].iter().any(|layer| key.starts_with(layer)) {
            acc.values.insert(key, value);
        }
    }
    Ok(acc)
}

/// Copies into `acc` every probe figure the workload left at zero;
/// returns the keys it filled, derived metrics included.
fn fill_from_probe(acc: &mut Acc, probe: Acc) -> Vec<&'static str> {
    let mut filled = Vec::new();
    for (key, value) in probe.values {
        if acc.get(key) == 0.0 && value != 0.0 {
            acc.values.insert(key, value);
            filled.push(key);
            if probe.program_side.contains(&key) && !acc.program_side.contains(&key) {
                acc.program_side.push(key);
            }
        }
    }
    for (source, derived) in
        [("refine.calls", "refine.improved_ratio"), ("refine.s", "refine.overhead_s")]
    {
        if filled.contains(&source) {
            filled.push(derived);
        }
    }
    filled
}

fn render(acc: &mut Acc, wall: f64, results: &[Outcome], probed: &[&str]) -> String {
    let applied = acc.get("engine.moves_applied");
    if applied > 0.0 {
        let kept = (applied - acc.get("engine.moves_reverted")) / applied;
        acc.values.insert("engine.keep_ratio", kept);
    }
    let calls = acc.get("refine.calls");
    if calls > 0.0 {
        acc.values.insert("refine.improved_ratio", acc.get("refine.improved") / calls);
    }
    let overhead = acc.get("refine.s") - acc.get("refine.improve_s");
    acc.values.insert("refine.overhead_s", overhead);
    // Projection is the hierarchy's half of uncoarsening; it counts
    // towards the coarsen layer's self time.
    let project = acc.get("coarsen.project_s");
    acc.add("coarsen.s", project);
    acc.values.insert("trace.coverage_pct", 100.0 * acc.attributed_s / wall);
    acc.values.insert("trace.wall_s", wall);

    let mut out = String::from("{\"metrics\": {");
    for (i, (key, unit)) in LAYER_METRICS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", acc.get(key));
    }
    let _ = write!(out, "}}, \"served_s\": {}, \"program_side\": [", acc.served_s);
    let sources: Vec<String> = acc.program_side.iter().map(|k| format!("\"{k}\"")).collect();
    out.push_str(&sources.join(", "));
    let probed: Vec<String> = probed
        .iter()
        .filter(|k| LAYER_METRICS.iter().any(|(name, _)| name == *k))
        .map(|k| format!("\"{k}\""))
        .collect();
    let _ = write!(out, "], \"probe\": [{}], \"results\": [", probed.join(", "));
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"id\": \"{}\", \"hash\": \"{:016x}\", \"devices\": {}, \"terminal_sum\": {}}}",
            r.id, r.hash, r.devices, r.terminal_sum
        );
    }
    out.push_str("]}");
    out
}
