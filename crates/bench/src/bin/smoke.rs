//! Smoke performance benchmark for the incremental-cost / zero-allocation
//! / parallel-search work, emitting machine-readable `BENCH_pr10.json`
//! (schema-versioned; see `fpart_core::obs::SCHEMA_VERSION`).
//!
//! Fourteen measurements:
//!
//! 1. **Pass throughput** — retained moves per second of `improve(...)`
//!    on an MCNC-scale circuit (two-block and 8-way), exercising the
//!    zero-allocation inner loop end to end.
//! 2. **Per-move cost evaluation** — the incremental `KeyTracker` update
//!    (O(1) per move) against the from-scratch O(k) scan the pass loop
//!    performed before, over an identical move sequence. The reported
//!    percentage is the single-thread pass-component gain attributable
//!    to incremental key maintenance.
//! 3. **Thread sweep** — wall time of multi-run `bipartition_fm` and of
//!    the flat restart `search` at 1/2/4/8 threads. Results are
//!    bit-identical across the sweep (asserted); only wall time varies.
//!    `available_parallelism` is recorded because speedup is bounded by
//!    the machine: a single-core container shows ~1.0×.
//! 4. **Engine counters** — the internal `Metrics` registry of one
//!    observed flat restart search (passes, applied/reverted moves,
//!    gain-bucket pops, key evaluations, per-`ImproveKind` wall time),
//!    plus the wall-time ratio of the same search observed through an
//!    enabled vs a disabled registry, so the "zero overhead when
//!    disabled" claim stays measurable over time.
//! 5. **Execution control** — completion status and budget counters of a
//!    deadline-bounded search and of a panic-injected restart search, so
//!    graceful degradation and panic isolation stay measurable, plus the
//!    budget-check wall-time ratio (unlimited budget vs no budget) to
//!    keep the "one branch when unlimited" claim honest.
//! 6. **Multilevel** — flat FPART vs the n-level V-cycle on a 20k-node
//!    Rent-style circuit: wall time of each, the speedup, the coarsening
//!    depth, and both solutions' lexicographic quality keys
//!    `(f, d_k, T_SUM, d_k^E, cut)`. `quality_not_worse` asserts the
//!    n-level result does not lose quality for its speed.
//! 7. **ECO repair** — a capacity-balanced ~1% churn edit script (remove
//!    cells, add equal-size replacements wired to surviving neighbours)
//!    applied to the 20k-node Rent circuit: wall time of
//!    `repartition_eco` carrying the pre-edit partition vs a from-scratch
//!    multilevel run on the edited graph, plus both quality keys.
//!    `quality_comparable` holds devices strict and every scalar
//!    component within 5%.
//! 8. **Intra-run thread scaling** — one multilevel run (no restarts)
//!    on the 20k-node Rent circuit at 1/2/4 workers. The parallel
//!    matching, net-projection, and boundary-pair stages are
//!    deterministic by construction, so every worker count must produce
//!    a bit-identical assignment (asserted); only wall time varies, and
//!    the speedup is bounded by `available_parallelism`.
//! 9. **Large budgeted run** — a seeded 200k-node Rent circuit under a
//!    wall-clock cap, so end-to-end scalability stays measurable while
//!    the deadline guarantees the bench finishes on any machine.
//! 10. **Span profile** — the hierarchical span records of the observed
//!     20k-node multilevel run from measurement 6, plus the fraction of
//!     its wall time the profiler attributes to phase self-time
//!     (pair-job lanes excluded so worker time is not double-counted
//!     against the refine level that contains it).
//! 11. **Memory** — peak RSS of the whole bench process (`VmHWM` from
//!     `/proc/self/status`; absent off Linux) and bytes per pin of the
//!     largest circuit held, keeping footprint measurable over time.
//! 12. **Durability** — the checkpointed multilevel restart search
//!     against the identical search without a writer on the 20k-node
//!     Rent circuit (interleaved reps, median of per-pair ratios — the
//!     same estimator as measurement 4), so the "checkpointing costs
//!     <= 2%" claim stays enforced. The final snapshot is then torn
//!     down to a one-restart prefix — the on-disk shape a mid-run
//!     SIGKILL leaves — and resumed; `resume_bit_identical` asserts
//!     the merged result matches the uninterrupted baseline exactly.
//! 13. **Partition server** — warm-session request latency of the
//!     `fpart serve` engine (`Server::handle` on a pre-loaded 20k-node
//!     session) against a cold one-shot of the same deadline-bounded
//!     search through the sibling `fpart` CLI binary (in-process
//!     parse + partition where the binary is absent). Both sides run
//!     the identical capped search, so the ratio isolates what a
//!     session amortizes — process spawn, netlist parse, graph
//!     construction — and `warm_over_cold <= 0.5` is the acceptance
//!     gate `check_bench.py` enforces.
//! 14. **Memoization** — the fingerprint-keyed memo store on the
//!     20k-node multilevel restart search: a cached re-run of the
//!     identical request against the cold baseline (gated at >= 10x and
//!     bit-identical), the cold-path overhead of a *fresh* store vs no
//!     store at all (same interleaved median-of-pair-ratios estimator
//!     as measurement 4, gated at <= 1%), and a post-ECO run through
//!     the warm store — the edited graph's fingerprint must miss, so
//!     its result stays bit-identical to the memo-less run on the
//!     edited graph.
//!
//! Output path: first CLI argument, default `BENCH_pr10.json`.

use std::fmt::Write as _;
use std::time::Instant;

use fpart_core::cost::CostEvaluator;
use fpart_core::fm::{bipartition_fm, FmConfig};
use fpart_core::server::protocol;
use fpart_core::{
    improve, partition_multilevel_observed, search, Algorithm, Checkpoint, CheckpointWriter,
    Counter, FaultPlan, FpartConfig, ImproveContext, Json, KeyTracker, Metrics, MultilevelConfig,
    Observer, PartitionState, Restarts, RestartsReport, RunBudget, Server, ServerConfig, SpanKind,
};
use fpart_device::{Device, DeviceConstraints};
use fpart_hypergraph::gen::{find_profile, rent_circuit, synthesize_mcnc, RentConfig, Technology};
use fpart_hypergraph::NodeId;

/// The restart search over `algorithm`: `restarts` restarts on
/// `threads` workers, recording into `metrics` (enabled or not), with an
/// optional checkpoint to resume and writer to stream snapshots to.
fn run_search(
    graph: &fpart_hypergraph::Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    algorithm: Algorithm<'_>,
    shape: Restarts<'_>,
    metrics: Metrics,
) -> Result<RestartsReport, fpart_core::PartitionError> {
    search(graph, constraints, config, algorithm, &shape, &mut Observer::new(metrics, None))
}

/// `restarts` restarts on `threads` workers, no checkpoints.
fn shape(restarts: usize, threads: usize) -> Restarts<'static> {
    Restarts { count: restarts, threads, ..Restarts::default() }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_pr10.json".to_owned());
    let graph = synthesize_mcnc(find_profile("s9234").expect("profile"), Technology::Xc3000);
    let constraints = Device::XC3020.constraints(0.9);
    let config = FpartConfig::default();
    let evaluator = CostEvaluator::new(constraints, &config, 8, graph.terminal_count());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema_version\": {},", fpart_core::SCHEMA_VERSION);
    let _ = writeln!(json, "  \"circuit\": \"s9234\",");
    let _ = writeln!(json, "  \"nodes\": {},", graph.node_count());
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");

    // 1. Pass throughput: two-block and 8-way improve calls.
    let two_block: Vec<u32> = (0..graph.node_count()).map(|i| u32::from(i >= 57)).collect();
    let stripes: Vec<u32> =
        (0..graph.node_count()).map(|i| (i * 8 / graph.node_count()) as u32).collect();
    let mut throughput = Vec::new();
    for (label, assignment, k, active) in [
        ("two_block", &two_block, 2usize, vec![0usize, 1]),
        ("eight_way", &stripes, 8usize, (0..8).collect()),
    ] {
        let mut moves = 0usize;
        let mut passes = 0usize;
        let reps = 8;
        let start = Instant::now();
        for _ in 0..reps {
            let mut state = PartitionState::from_assignment(&graph, assignment.clone(), k);
            let ctx = ImproveContext {
                evaluator: &evaluator,
                config: &config,
                remainder: k - 1,
                minimum_reached: false,
                budget: None,
            };
            let stats = improve(&mut state, &active, &ctx);
            moves += stats.moves;
            passes += stats.passes;
        }
        let secs = start.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let moves_per_sec = moves as f64 / secs;
        println!(
            "pass throughput [{label}]: {moves} moves, {passes} passes in {secs:.3}s \
             => {moves_per_sec:.0} moves/s"
        );
        throughput.push(format!(
            "    {{\"case\": \"{label}\", \"moves\": {moves}, \"passes\": {passes}, \
             \"seconds\": {secs:.4}, \"moves_per_sec\": {moves_per_sec:.0}}}"
        ));
    }
    let _ = writeln!(json, "  \"pass_throughput\": [\n{}\n  ],", throughput.join(",\n"));

    // 2. Incremental key maintenance vs the from-scratch O(k) scan the
    //    move loop used to perform after every applied move. Every timed
    //    loop replays the identical move sequence; a move-only baseline
    //    is subtracted so the reported numbers isolate the cost-evaluation
    //    component that this change replaced.
    let n = graph.node_count();
    let mut key_eval = Vec::new();
    for k in [8usize, 64] {
        let striped: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
        let seq: Vec<(NodeId, usize)> =
            (0..40_000).map(|i| (NodeId::from_index((i * 17) % n), ((i * 5) / 7) % k)).collect();
        let evaluator = CostEvaluator::new(constraints, &config, k, graph.terminal_count());
        let mut sink = 0usize;
        // Take the minimum over several repetitions: each timed loop is
        // only a few milliseconds, so a single sample is at the mercy of
        // scheduler noise. The move sequence is valid from any state, so
        // one state is reused across repetitions (construction untimed).
        let reps = 7;

        let mut state = PartitionState::from_assignment(&graph, striped.clone(), k);
        let mut move_only = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for &(node, to) in &seq {
                state.move_node(node, to);
                sink ^= state.block_of(node) as usize;
            }
            move_only = move_only.min(start.elapsed().as_secs_f64());
        }

        let mut state = PartitionState::from_assignment(&graph, striped.clone(), k);
        let mut tracker = KeyTracker::new(&evaluator, &state);
        let mut incremental = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for &(node, to) in &seq {
                let from = state.block_of(node);
                state.move_node(node, to);
                tracker.apply_move(&evaluator, &state, from, to);
                sink ^= tracker.key(&evaluator, &state, None).cut;
            }
            incremental = incremental.min(start.elapsed().as_secs_f64());
        }

        let mut state = PartitionState::from_assignment(&graph, striped.clone(), k);
        let mut scan = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for &(node, to) in &seq {
                state.move_node(node, to);
                sink ^= evaluator.key(&state, None).cut;
            }
            scan = scan.min(start.elapsed().as_secs_f64());
        }
        std::hint::black_box(sink);

        #[allow(clippy::cast_precision_loss)]
        let per_move_ns = |secs: f64| secs * 1e9 / seq.len() as f64;
        let inc_component = (incremental - move_only).max(1e-9);
        let scan_component = (scan - move_only).max(1e-9);
        let loop_gain_pct = (scan / incremental - 1.0) * 100.0;
        let component_gain_pct = (scan_component / inc_component - 1.0) * 100.0;
        println!(
            "key evaluation per move (k={k}): incremental {:.0}ns, from-scratch {:.0}ns, \
             move-only baseline {:.0}ns => loop {loop_gain_pct:.1}% faster, \
             evaluation component {component_gain_pct:.0}% faster",
            per_move_ns(incremental),
            per_move_ns(scan),
            per_move_ns(move_only)
        );
        key_eval.push(format!(
            "    {{\"blocks\": {k}, \"moves\": {}, \"move_only_ns\": {:.1}, \
             \"incremental_ns\": {:.1}, \"from_scratch_ns\": {:.1}, \
             \"loop_gain_pct\": {loop_gain_pct:.1}, \
             \"eval_component_gain_pct\": {component_gain_pct:.1}}}",
            seq.len(),
            per_move_ns(move_only),
            per_move_ns(incremental),
            per_move_ns(scan)
        ));
    }
    let _ = writeln!(json, "  \"key_eval_per_move\": [\n{}\n  ],", key_eval.join(",\n"));

    // 3. Thread sweep: multi-run bipartition and driver restarts.
    let mut sweep = Vec::new();
    let mut reference_cut = None;
    for threads in [1usize, 2, 4, 8] {
        let fm_config = FmConfig { runs: 8, threads, ..FmConfig::default() };
        let start = Instant::now();
        let bp = bipartition_fm(&graph, &fm_config);
        let bp_secs = start.elapsed().as_secs_f64();
        assert_eq!(*reference_cut.get_or_insert(bp.cut), bp.cut, "thread sweep diverged");

        let start = Instant::now();
        let report = run_search(
            &graph,
            constraints,
            &config,
            Algorithm::Flat,
            shape(4, threads),
            Metrics::disabled(),
        );
        let restart_secs = start.elapsed().as_secs_f64();
        let devices = report.map_or(0, |r| r.outcome.device_count);
        println!(
            "threads={threads}: bipartition_fm(runs=8) {bp_secs:.3}s, \
             4-restart search {restart_secs:.3}s ({devices} devices)"
        );
        sweep.push(format!(
            "    {{\"threads\": {threads}, \"bipartition_runs8_seconds\": {bp_secs:.4}, \
             \"restarts4_seconds\": {restart_secs:.4}}}"
        ));
    }
    let _ = writeln!(json, "  \"thread_sweep\": [\n{}\n  ],", sweep.join(",\n"));

    // 4. Engine counters of one observed restart search, and the wall
    //    time of the identical search observed through a disabled
    //    registry on the same workload — the ratio bounds what full
    //    metering (counters, timers, and the span profiler) costs end to
    //    end. Each run is ~170 ms while the
    //    instrumentation itself is microseconds, so the estimator has to
    //    beat scheduler noise, not the metering: after a warmup of each
    //    side, the sides are interleaved (cache/frequency drift hits
    //    both equally) and the reported overhead is the *median* of the
    //    per-pair metered/unmetered ratios — a single descheduled rep
    //    shifts one pair, not the estimate. The artifact's seconds are
    //    each side's floor (minimum) over all reps.
    let metering_reps = 15;
    let mut unmetered_secs = f64::INFINITY;
    let mut metered_secs = f64::INFINITY;
    let mut pair_ratios = Vec::with_capacity(metering_reps);
    let flat_search = |config: &FpartConfig, metrics: Metrics| {
        run_search(&graph, constraints, config, Algorithm::Flat, shape(2, 1), metrics)
    };
    let unmetered = flat_search(&config, Metrics::disabled()).expect("partitions").outcome;
    let report = flat_search(&config, Metrics::enabled()).expect("partitions");
    for _ in 0..metering_reps {
        let start = Instant::now();
        let run = flat_search(&config, Metrics::disabled()).expect("partitions").outcome;
        let u = start.elapsed().as_secs_f64();
        unmetered_secs = unmetered_secs.min(u);
        assert_eq!(run.assignment, unmetered.assignment, "unmetered rep diverged");

        let start = Instant::now();
        let run = flat_search(&config, Metrics::enabled()).expect("partitions");
        let m = start.elapsed().as_secs_f64();
        metered_secs = metered_secs.min(m);
        assert_eq!(run.outcome.assignment, report.outcome.assignment, "metered rep diverged");

        pair_ratios.push(m / u.max(1e-12));
    }
    assert_eq!(unmetered.assignment, report.outcome.assignment, "metering changed the result");
    pair_ratios.sort_by(f64::total_cmp);
    let overhead_pct = (pair_ratios[pair_ratios.len() / 2] - 1.0) * 100.0;
    println!(
        "engine counters: passes={}, moves applied={}, gain-bucket pops={}; \
         metering wall-time delta {overhead_pct:+.1}%",
        report.totals.get(Counter::Passes),
        report.totals.get(Counter::MovesApplied),
        report.totals.get(Counter::GainBucketPops)
    );
    let _ = writeln!(json, "  \"engine_counters\": {},", report.totals.to_json());
    let _ = writeln!(
        json,
        "  \"metering\": {{\"unmetered_seconds\": {unmetered_secs:.4}, \
         \"metered_seconds\": {metered_secs:.4}, \"overhead_pct\": {overhead_pct:.1}}},"
    );

    // 5. Execution control: a tight deadline degrades gracefully, a
    //    panic-injected restart is contained, and an unlimited budget
    //    costs (near) nothing over no budget at all.
    let start = Instant::now();
    let unlimited_budget = FpartConfig {
        budget: RunBudget { max_passes: Some(u64::MAX), ..RunBudget::default() },
        ..FpartConfig::default()
    };
    let budgeted = flat_search(&unlimited_budget, Metrics::disabled()).expect("partitions").outcome;
    let budgeted_secs = start.elapsed().as_secs_f64();
    assert_eq!(budgeted.assignment, unmetered.assignment, "budget checks changed the result");
    let budget_overhead_pct = (budgeted_secs / unmetered_secs - 1.0) * 100.0;

    let deadline_config = FpartConfig {
        budget: RunBudget {
            deadline: Some(std::time::Duration::from_millis(1)),
            ..RunBudget::default()
        },
        ..FpartConfig::default()
    };
    let start = Instant::now();
    let deadline_report =
        flat_search(&deadline_config, Metrics::enabled()).expect("degrades instead of failing");
    let deadline_secs = start.elapsed().as_secs_f64();

    std::panic::set_hook(Box::new(|_| {})); // injected panic below is expected
    let fault_config = FpartConfig {
        fault_plan: Some(FaultPlan::panic_at(1, "smoke fault").for_only_restart(0)),
        ..FpartConfig::default()
    };
    let fault_report = flat_search(&fault_config, Metrics::enabled()).expect("survivor wins");
    let _ = std::panic::take_hook();

    println!(
        "execution control: unlimited-budget wall-time delta {budget_overhead_pct:+.1}%, \
         1ms deadline => {} in {deadline_secs:.3}s, injected panic => {} ({} failed restart)",
        deadline_report.completion,
        fault_report.completion,
        fault_report.failed.len()
    );
    let _ = writeln!(
        json,
        "  \"execution_control\": {{\"budget_overhead_pct\": {budget_overhead_pct:.1}, \
         \"deadline_completion\": \"{}\", \"deadline_seconds\": {deadline_secs:.4}, \
         \"deadline_budget_stops\": {}, \"fault_completion\": \"{}\", \
         \"fault_failed_restarts\": {}}},",
        deadline_report.completion,
        deadline_report.totals.get(Counter::BudgetStops),
        fault_report.completion,
        fault_report.totals.get(Counter::FailedRestarts)
    );
    // 6. Multilevel: flat FPART vs the n-level V-cycle on a 20k-node
    //    Rent-style circuit — wall time, coarsening depth, and the
    //    lexicographic quality key of both results.
    let rent = rent_circuit(&RentConfig::new("rent20k", 20_000, 600), 42);
    let rent_constraints = DeviceConstraints::new(400, 120);

    let start = Instant::now();
    let flat = fpart_core::partition(&rent, rent_constraints, &config).expect("flat partitions");
    let flat_secs = start.elapsed().as_secs_f64();

    let ml_config = MultilevelConfig::default();
    let mut obs = Observer::new(Metrics::enabled(), None);
    let start = Instant::now();
    let nlevel =
        partition_multilevel_observed(&rent, rent_constraints, &config, &ml_config, &mut obs)
            .expect("multilevel partitions");
    let ml_secs = start.elapsed().as_secs_f64();

    let speedup = flat_secs / ml_secs.max(1e-9);
    let flat_key = quality_key(&rent, rent_constraints, &config, &flat);
    let ml_key = quality_key(&rent, rent_constraints, &config, &nlevel);
    let quality_not_worse = not_worse(&ml_key, &flat_key);
    let coarsen_levels = obs.metrics.get(Counter::CoarsenLevels);
    println!(
        "multilevel: flat {flat_secs:.3}s ({} devices, cut {}), n-level {ml_secs:.3}s \
         ({} devices, cut {}, {coarsen_levels} levels) => {speedup:.1}x, \
         quality_not_worse={quality_not_worse}",
        flat.device_count, flat.cut, nlevel.device_count, nlevel.cut
    );
    let _ = writeln!(
        json,
        "  \"multilevel\": {{\"circuit\": \"rent20k\", \"nodes\": {}, \
         \"flat_seconds\": {flat_secs:.4}, \"multilevel_seconds\": {ml_secs:.4}, \
         \"speedup\": {speedup:.2}, \"coarsen_levels\": {coarsen_levels}, \
         \"flat\": {}, \"nlevel\": {}, \"quality_not_worse\": {quality_not_worse}}},",
        rent.node_count(),
        key_json(&flat_key),
        key_json(&ml_key)
    );

    // 10. Span profile of that observed multilevel run: every record the
    //     profiler kept, plus the share of wall time attributed to phase
    //     self-time. Pair-job lanes run inside a refine level, so their
    //     self-time is excluded from the coverage sum to avoid counting
    //     the same wall-clock interval twice.
    let span_records = obs.metrics.spans().records();
    #[allow(clippy::cast_precision_loss)]
    let attributed_secs = span_records
        .iter()
        .filter(|r| r.kind != SpanKind::PairJob && r.parent != Some(SpanKind::PairJob))
        .map(|r| r.self_ns)
        .sum::<u64>() as f64
        / 1e9;
    let self_coverage_pct = attributed_secs / ml_secs.max(1e-9) * 100.0;
    let span_rows: Vec<String> = span_records
        .iter()
        .map(|r| {
            format!(
                "    {{\"kind\": \"{}\", \"level\": {}, \"parent\": {}, \"count\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}}}",
                r.kind.as_str(),
                r.level,
                r.parent.map_or_else(|| "null".to_owned(), |p| format!("\"{}\"", p.as_str())),
                r.count,
                r.total_ns,
                r.self_ns
            )
        })
        .collect();
    println!(
        "span profile: {} record(s), {attributed_secs:.3}s of {ml_secs:.3}s attributed \
         ({self_coverage_pct:.1}% self-time coverage)",
        span_records.len()
    );
    let _ = writeln!(
        json,
        "  \"profile\": {{\"circuit\": \"rent20k\", \"wall_seconds\": {ml_secs:.4}, \
         \"attributed_self_seconds\": {attributed_secs:.4}, \
         \"self_coverage_pct\": {self_coverage_pct:.1}, \"spans\": [\n{}\n  ]}},",
        span_rows.join(",\n")
    );

    // 7. ECO repair vs from-scratch on the same 20k circuit. The edit
    //    is capacity-balanced — every removed cell is matched by an
    //    equal-size replacement wired to a surviving neighbour — so the
    //    incremental path stays local instead of tripping the
    //    verification fallback.
    let n = rent.node_count();
    let removals = n / 200; // 0.5% removed + 0.5% added => ~1% churn
    let mut removed = std::collections::HashSet::new();
    let mut ops = Vec::new();
    for i in 0..removals {
        let idx = (i * 197) % n;
        if removed.insert(idx) {
            let v = NodeId::from_index(idx);
            ops.push(fpart_hypergraph::EditOp::RemoveNode { name: rent.node_name(v).to_owned() });
        }
    }
    // Wire each replacement to a surviving neighbour of the cell it
    // stands in for, so constructive placement lands it in the block
    // that just freed the capacity.
    let survivor_of = |idx: usize| -> NodeId {
        let v = NodeId::from_index(idx);
        rent.nets(v)
            .iter()
            .flat_map(|&e| rent.pins(e).iter().copied())
            .find(|u| !removed.contains(&u.index()))
            .unwrap_or_else(|| {
                rent.node_ids().find(|u| !removed.contains(&u.index())).expect("survivors")
            })
    };
    let mut removed_sorted: Vec<usize> = removed.iter().copied().collect();
    removed_sorted.sort_unstable();
    for (j, &idx) in removed_sorted.iter().enumerate() {
        let name = format!("eco_{j}");
        let neighbour = rent.node_name(survivor_of(idx)).to_owned();
        ops.push(fpart_hypergraph::EditOp::AddNode {
            name: name.clone(),
            size: rent.node_size(NodeId::from_index(idx)),
        });
        ops.push(fpart_hypergraph::EditOp::AddNet {
            name: format!("eco_net_{j}"),
            pins: vec![name, neighbour],
        });
    }
    let script = fpart_hypergraph::EditScript::new(ops);
    let edits = script.len();
    let applied = fpart_hypergraph::apply_script(&rent, &script).expect("edit applies");

    let start = Instant::now();
    let eco_run = fpart_core::repartition_eco(
        &applied.graph,
        rent_constraints,
        &config,
        &fpart_core::EcoConfig::default(),
        &nlevel.assignment,
        &applied.node_map,
    )
    .expect("eco repairs");
    let eco_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let scratch =
        fpart_core::partition_multilevel(&applied.graph, rent_constraints, &config, &ml_config)
            .expect("from-scratch partitions");
    let scratch_secs = start.elapsed().as_secs_f64();

    let eco_speedup = scratch_secs / eco_secs.max(1e-9);
    let eco_key = quality_key(&applied.graph, rent_constraints, &config, &eco_run.outcome);
    let scratch_key = quality_key(&applied.graph, rent_constraints, &config, &scratch);
    let eco_comparable = comparable(&eco_key, &scratch_key);
    println!(
        "eco: {edits} edits (churn {:.4}), repair {eco_secs:.3}s \
         ({} devices, cut {}, repaired={}), from-scratch {scratch_secs:.3}s \
         ({} devices, cut {}) => {eco_speedup:.1}x, quality_comparable={eco_comparable}",
        eco_run.churn,
        eco_run.outcome.device_count,
        eco_run.outcome.cut,
        eco_run.repaired,
        scratch.device_count,
        scratch.cut
    );
    let _ = writeln!(
        json,
        "  \"eco\": {{\"circuit\": \"rent20k\", \"nodes\": {n}, \"edits\": {edits}, \
         \"churn\": {:.4}, \"repaired\": {}, \"dirty_blocks\": {}, \
         \"repair_seconds\": {eco_secs:.4}, \"scratch_seconds\": {scratch_secs:.4}, \
         \"speedup\": {eco_speedup:.2}, \"eco_feasible\": {}, \
         \"quality_comparable\": {eco_comparable}, \"repair\": {}, \"scratch\": {}}},",
        eco_run.churn,
        eco_run.repaired,
        eco_run.dirty_blocks,
        eco_run.outcome.feasible,
        key_json(&eco_key),
        key_json(&scratch_key)
    );

    // 8. Intra-run thread scaling: one multilevel run (restarts play no
    //    part) on the 20k-node Rent circuit at 1/2/4 workers. The
    //    assignment must be bit-identical at every worker count — the
    //    parallel stages only change wall time — so the sweep both
    //    measures the speedup and enforces the determinism contract on
    //    a real workload. Each timing takes the minimum of several
    //    repetitions: a single 20k-node run is a few hundred
    //    milliseconds and scheduler noise would otherwise dominate.
    let mut intra_rows = Vec::new();
    let mut intra_reference: Option<Vec<u32>> = None;
    let mut intra_seconds = [0.0f64; 3];
    for (slot, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let ml = MultilevelConfig { threads: workers, ..MultilevelConfig::default() };
        let reps = 3;
        let mut secs = f64::INFINITY;
        let mut run = None;
        for _ in 0..reps {
            let start = Instant::now();
            let outcome = fpart_core::partition_multilevel(&rent, rent_constraints, &config, &ml)
                .expect("parallel multilevel partitions");
            secs = secs.min(start.elapsed().as_secs_f64());
            run = Some(outcome);
        }
        let run = run.expect("at least one repetition");
        assert_eq!(
            *intra_reference.get_or_insert_with(|| run.assignment.clone()),
            run.assignment,
            "intra-run parallelism diverged at {workers} workers"
        );
        intra_seconds[slot] = secs;
        println!(
            "intra-run workers={workers}: {secs:.3}s ({} devices, cut {})",
            run.device_count, run.cut
        );
        intra_rows.push(format!("    {{\"workers\": {workers}, \"seconds\": {secs:.4}}}"));
    }
    let intra_speedup = intra_seconds[0] / intra_seconds[2].max(1e-9);
    println!(
        "intra-run scaling: 1 -> 4 workers {intra_speedup:.2}x \
         (bit-identical, {cores} cores available)"
    );
    let _ = writeln!(
        json,
        "  \"intra_run\": {{\"circuit\": \"rent20k\", \"nodes\": {}, \
         \"bit_identical\": true, \"speedup_4_workers\": {intra_speedup:.2}, \
         \"runs\": [\n{}\n  ]}},",
        rent.node_count(),
        intra_rows.join(",\n")
    );

    // 9. Large budgeted run: a 200k-node Rent circuit through the full
    //    multilevel flow under a wall-clock cap. The deadline bounds
    //    the bench on any machine — on expiry the engine returns its
    //    best verified solution with completion `deadline_expired`
    //    instead of running away.
    let big = rent_circuit(&RentConfig::new("rent200k", 200_000, 3_000), 42);
    let capped = FpartConfig {
        budget: RunBudget {
            deadline: Some(std::time::Duration::from_secs(300)),
            ..RunBudget::default()
        },
        ..FpartConfig::default()
    };
    let big_ml = MultilevelConfig { threads: cores.min(4), ..MultilevelConfig::default() };
    let start = Instant::now();
    let big_run = fpart_core::partition_multilevel(&big, rent_constraints, &capped, &big_ml)
        .expect("large budgeted run produces a solution");
    let big_secs = start.elapsed().as_secs_f64();
    println!(
        "large run: rent200k ({} nodes) in {big_secs:.3}s => {} devices, cut {}, \
         feasible={}, completion={}",
        big.node_count(),
        big_run.device_count,
        big_run.cut,
        big_run.feasible,
        big_run.completion
    );
    let _ = writeln!(
        json,
        "  \"large_run\": {{\"circuit\": \"rent200k\", \"nodes\": {}, \
         \"deadline_seconds\": 300, \"seconds\": {big_secs:.4}, \"devices\": {}, \
         \"cut\": {}, \"feasible\": {}, \"completion\": \"{}\"}},",
        big.node_count(),
        big_run.device_count,
        big_run.cut,
        big_run.feasible,
        big_run.completion
    );

    // 12. Durability: the checkpointed multilevel restart search vs the
    //     identical search without a writer, on the 20k-node Rent
    //     circuit. The writer runs on its own thread and serializes a
    //     snapshot at most once per interval, so the search-loop cost is
    //     a channel send per completed restart — the estimator is the
    //     same interleaved median-of-pair-ratios as measurement 4. The
    //     final snapshot is then torn to a one-restart prefix (the shape
    //     a mid-run SIGKILL leaves behind) and resumed, asserting the
    //     merged result is bit-identical to the uninterrupted baseline.
    let ckpt_path =
        std::env::temp_dir().join(format!("fpart-smoke-durability-{}.ckpt", std::process::id()));
    let durable_restarts = 3;
    // Both sides record metrics: a checkpoint writer needs every
    // restart's counters, so the baseline pays for them too.
    let run_durable = |writer: Option<&CheckpointWriter>, resume: Option<&Checkpoint>| {
        run_search(
            &rent,
            rent_constraints,
            &config,
            Algorithm::Multilevel(&ml_config),
            Restarts { count: durable_restarts, threads: 1, resume, writer },
            Metrics::enabled(),
        )
        .expect("durable search succeeds")
    };
    // The CLI's default throttle (1s): on a single-core machine every
    // serialized write competes with the search for the one CPU, so the
    // interval is part of the claim being measured.
    let spawn_writer =
        || CheckpointWriter::spawn(ckpt_path.clone(), std::time::Duration::from_millis(1000));
    // Warm both sides before timing anything.
    let durable_baseline = run_durable(None, None);
    let writer = spawn_writer();
    let warm = run_durable(Some(&writer), None);
    let mut checkpoint_writes = writer.finish().expect("writer flushes");
    assert_eq!(
        warm.outcome.assignment, durable_baseline.outcome.assignment,
        "checkpointing changed the result"
    );

    let durability_reps = 7;
    let mut durable_base_secs = f64::INFINITY;
    let mut durable_ckpt_secs = f64::INFINITY;
    let mut durable_ratios = Vec::with_capacity(durability_reps);
    for _ in 0..durability_reps {
        let start = Instant::now();
        let run = run_durable(None, None);
        let u = start.elapsed().as_secs_f64();
        durable_base_secs = durable_base_secs.min(u);
        assert_eq!(
            run.outcome.assignment, durable_baseline.outcome.assignment,
            "baseline rep diverged"
        );

        let writer = spawn_writer();
        let start = Instant::now();
        let run = run_durable(Some(&writer), None);
        let c = start.elapsed().as_secs_f64();
        checkpoint_writes = checkpoint_writes.max(writer.finish().expect("writer flushes"));
        durable_ckpt_secs = durable_ckpt_secs.min(c);
        assert_eq!(
            run.outcome.assignment, durable_baseline.outcome.assignment,
            "checkpointed rep diverged"
        );
        durable_ratios.push(c / u.max(1e-12));
    }
    durable_ratios.sort_by(f64::total_cmp);
    let durability_overhead_pct = (durable_ratios[durable_ratios.len() / 2] - 1.0) * 100.0;

    // Tear the final snapshot down to a one-restart prefix and resume.
    let full = fpart_core::read_checkpoint(&ckpt_path).expect("final checkpoint parses");
    assert_eq!(full.completed.len(), durable_restarts, "final snapshot covers every restart");
    let torn =
        fpart_core::Checkpoint { completed: full.completed.into_iter().take(1).collect(), ..full };
    fpart_core::write_checkpoint(&ckpt_path, &torn).expect("torn prefix writes");
    let saved = fpart_core::read_checkpoint(&ckpt_path).expect("torn prefix parses");
    let resumed = run_durable(None, Some(&saved));
    let resume_bit_identical = resumed.outcome.assignment == durable_baseline.outcome.assignment
        && resumed.outcome.cut == durable_baseline.outcome.cut
        && resumed.outcome.device_count == durable_baseline.outcome.device_count
        && resumed.totals.get(Counter::RestartsResumed) == 1;
    let _ = std::fs::remove_file(&ckpt_path);
    println!(
        "durability: baseline {durable_base_secs:.3}s, checkpointed {durable_ckpt_secs:.3}s \
         ({checkpoint_writes} snapshot(s)) => overhead {durability_overhead_pct:+.1}%, \
         resume_bit_identical={resume_bit_identical}"
    );
    let _ = writeln!(
        json,
        "  \"durability\": {{\"circuit\": \"rent20k\", \"nodes\": {}, \
         \"restarts\": {durable_restarts}, \"baseline_seconds\": {durable_base_secs:.4}, \
         \"checkpointed_seconds\": {durable_ckpt_secs:.4}, \
         \"overhead_pct\": {durability_overhead_pct:.1}, \
         \"checkpoint_writes\": {checkpoint_writes}, \
         \"resume_bit_identical\": {resume_bit_identical}}},",
        rent.node_count()
    );

    // 13. Partition server: warm-session request latency against a cold
    //     one-shot on the same 20k-node Rent circuit. Both sides run the
    //     identical deadline-bounded flat search, so the
    //     difference is exactly what a loaded session amortizes: process
    //     spawn, netlist parse, and graph construction. Cold is the
    //     sibling `fpart` CLI binary when it sits next to this bench
    //     (the release layout `ci.sh` builds); otherwise an in-process
    //     parse + partition stands in.
    let server_netlist =
        std::env::temp_dir().join(format!("fpart-smoke-server-{}.fhg", std::process::id()));
    {
        let file = std::fs::File::create(&server_netlist).expect("create server netlist");
        fpart_hypergraph::io::write_netlist(file, &rent).expect("write server netlist");
    }
    let netlist_arg = server_netlist.display().to_string();
    // The flat method with a tight deadline: flat FPART checks its
    // budget at move granularity (stops within ~2 ms of expiry, per
    // measurement 5), so the capped search stays small next to the
    // parse and process spawn the warm session amortizes, while both
    // sides still return a verified (degraded) solution.
    let deadline_ms = 10u64;
    let fpart_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("fpart")))
        .filter(|p| p.exists());
    let cold_mode = if fpart_bin.is_some() { "cli" } else { "in_process" };
    let mut cold_secs = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        if let Some(bin) = &fpart_bin {
            let status = std::process::Command::new(bin)
                .args([
                    "partition",
                    &netlist_arg,
                    "--s-max",
                    "400",
                    "--t-max",
                    "120",
                    "--method",
                    "fpart",
                    "--deadline-ms",
                    &deadline_ms.to_string(),
                    "--threads",
                    "1",
                ])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .expect("spawn the fpart CLI");
            assert!(status.success(), "cold one-shot CLI run failed");
        } else {
            let file = std::fs::File::open(&server_netlist).expect("open server netlist");
            let parsed = fpart_hypergraph::io::read_netlist(std::io::BufReader::new(file))
                .expect("parse server netlist");
            let capped = FpartConfig {
                budget: RunBudget {
                    deadline: Some(std::time::Duration::from_millis(deadline_ms)),
                    ..RunBudget::default()
                },
                ..FpartConfig::default()
            };
            let run = fpart_core::partition(&parsed, rent_constraints, &capped)
                .expect("cold in-process run");
            std::hint::black_box(run.cut);
        }
        cold_secs = cold_secs.min(start.elapsed().as_secs_f64());
    }

    let server = Server::new(ServerConfig::default());
    let mut load_reply = Vec::new();
    server.handle(
        &format!(
            "{{\"id\": \"load\", \"cmd\": \"load\", \"session\": \"bench\", \"path\": {}, \
             \"s_max\": 400, \"t_max\": 120}}",
            protocol::json_string(&netlist_arg)
        ),
        &mut load_reply,
    );
    let load_line = String::from_utf8(load_reply).expect("utf8 load reply");
    assert!(load_line.contains("\"ok\": true"), "session load failed: {load_line}");
    let mut warm_secs = f64::INFINITY;
    for rep in 0..5 {
        let line = format!(
            "{{\"id\": \"w{rep}\", \"cmd\": \"partition\", \"session\": \"bench\", \
             \"method\": \"fpart\", \"deadline_ms\": {deadline_ms}}}"
        );
        let mut reply = Vec::new();
        let start = Instant::now();
        server.handle(&line, &mut reply);
        warm_secs = warm_secs.min(start.elapsed().as_secs_f64());
        let text = String::from_utf8(reply).expect("utf8 warm reply");
        let last = text.lines().last().expect("a warm reply line");
        let doc = Json::parse(last).expect("warm reply parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "warm request failed: {last}");
    }
    let _ = std::fs::remove_file(&server_netlist);
    let warm_over_cold = warm_secs / cold_secs.max(1e-9);
    println!(
        "server: cold one-shot ({cold_mode}) {cold_secs:.3}s, warm session request \
         {warm_secs:.3}s => warm/cold {warm_over_cold:.2}"
    );
    let _ = writeln!(
        json,
        "  \"server\": {{\"circuit\": \"rent20k\", \"nodes\": {}, \
         \"deadline_ms\": {deadline_ms}, \"cold_mode\": \"{cold_mode}\", \
         \"cold_seconds\": {cold_secs:.4}, \"warm_seconds\": {warm_secs:.4}, \
         \"warm_over_cold\": {warm_over_cold:.3}}},",
        rent.node_count()
    );

    // 14. Memoization: the fingerprint-keyed memo store on the 20k-node
    //     multilevel restart search. Three claims stay measurable:
    //     a warm store answers the identical request >= 10x faster and
    //     bit-identically; a fresh (never-hit) store costs <= 1% over no
    //     store at all (median of interleaved pair ratios, as in
    //     measurement 4); and a post-ECO request through the warm store
    //     misses — the edited graph's fingerprint differs — so its
    //     result is bit-identical to the memo-less run on the edited
    //     graph.
    let memo_restarts = 2;
    let run_memo = |graph: &fpart_hypergraph::Hypergraph,
                    store: Option<std::sync::Arc<fpart_core::MemoStore>>| {
        let ml = MultilevelConfig { memo: store, ..MultilevelConfig::default() };
        run_search(
            graph,
            rent_constraints,
            &config,
            Algorithm::Multilevel(&ml),
            shape(memo_restarts, 1),
            Metrics::disabled(),
        )
        .expect("memo bench run succeeds")
        .outcome
    };
    let memo_baseline = run_memo(&rent, None);
    let memo_reps = 7;
    let mut memo_cold_secs = f64::INFINITY;
    let mut memo_fresh_secs = f64::INFINITY;
    let mut memo_ratios = Vec::with_capacity(memo_reps);
    for _ in 0..memo_reps {
        let start = Instant::now();
        let run = run_memo(&rent, None);
        let u = start.elapsed().as_secs_f64();
        memo_cold_secs = memo_cold_secs.min(u);
        assert_eq!(run.assignment, memo_baseline.assignment, "memo-less rep diverged");

        // A fresh store every rep: this times the never-hit cold path
        // (fingerprinting, lookups, insertions), not cache wins.
        let start = Instant::now();
        let run = run_memo(&rent, Some(fpart_core::MemoStore::shared()));
        let c = start.elapsed().as_secs_f64();
        memo_fresh_secs = memo_fresh_secs.min(c);
        assert_eq!(run.assignment, memo_baseline.assignment, "fresh-store rep diverged");
        memo_ratios.push(c / u.max(1e-12));
    }
    memo_ratios.sort_by(f64::total_cmp);
    let memo_cold_overhead_pct = (memo_ratios[memo_ratios.len() / 2] - 1.0) * 100.0;

    let memo_store = fpart_core::MemoStore::shared();
    let populate = run_memo(&rent, Some(memo_store.clone()));
    let mut memo_bit_identical = populate.assignment == memo_baseline.assignment
        && populate.device_count == memo_baseline.device_count
        && populate.cut == memo_baseline.cut;
    let mut memo_cached_secs = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let run = run_memo(&rent, Some(memo_store.clone()));
        memo_cached_secs = memo_cached_secs.min(start.elapsed().as_secs_f64());
        memo_bit_identical = memo_bit_identical
            && run.assignment == memo_baseline.assignment
            && run.device_count == memo_baseline.device_count
            && run.cut == memo_baseline.cut;
    }
    let memo_speedup = memo_cold_secs / memo_cached_secs.max(1e-9);

    // Post-ECO: the edited graph must miss the warm store and land on
    // the memo-less result for the edited graph.
    let start = Instant::now();
    let post_eco_cold = run_memo(&applied.graph, None);
    let post_eco_cold_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let post_eco_cached = run_memo(&applied.graph, Some(memo_store.clone()));
    let post_eco_cached_secs = start.elapsed().as_secs_f64();
    let post_eco_bit_identical = post_eco_cached.assignment == post_eco_cold.assignment
        && post_eco_cached.device_count == post_eco_cold.device_count
        && post_eco_cached.cut == post_eco_cold.cut;
    let memo_stats = memo_store.stats();
    println!(
        "memo: cold {memo_cold_secs:.3}s, cached {memo_cached_secs:.3}s \
         => {memo_speedup:.1}x (bit_identical={memo_bit_identical}), \
         fresh-store overhead {memo_cold_overhead_pct:+.1}%, post-ECO cached \
         {post_eco_cached_secs:.3}s vs cold {post_eco_cold_secs:.3}s \
         (bit_identical={post_eco_bit_identical}, solution hits {})",
        memo_stats.solution_hits
    );
    let _ = writeln!(
        json,
        "  \"memo\": {{\"circuit\": \"rent20k\", \"nodes\": {}, \
         \"restarts\": {memo_restarts}, \"cold_seconds\": {memo_cold_secs:.4}, \
         \"cached_seconds\": {memo_cached_secs:.4}, \"cached_speedup\": {memo_speedup:.2}, \
         \"bit_identical\": {memo_bit_identical}, \
         \"cold_overhead_pct\": {memo_cold_overhead_pct:.1}, \
         \"post_eco_cold_seconds\": {post_eco_cold_secs:.4}, \
         \"post_eco_cached_seconds\": {post_eco_cached_secs:.4}, \
         \"post_eco_bit_identical\": {post_eco_bit_identical}, \
         \"solution_hits\": {}, \"hierarchy_hits\": {}}},",
        rent.node_count(),
        memo_stats.solution_hits,
        memo_stats.hierarchy_hits
    );

    // 11. Memory: the process peak RSS (high-water mark, so it covers
    //     every measurement above) and bytes per pin of the largest
    //     circuit the bench held. `peak_rss_bytes` is null off Linux
    //     where /proc/self/status does not exist.
    let pins = big.pin_count();
    let peak = peak_rss_bytes();
    #[allow(clippy::cast_precision_loss)]
    let bytes_per_pin = peak.map(|b| b as f64 / pins.max(1) as f64);
    #[allow(clippy::cast_precision_loss)]
    let peak_mib = peak.map(|b| b as f64 / (1024.0 * 1024.0));
    match (peak_mib, bytes_per_pin) {
        (Some(mib), Some(per_pin)) => println!(
            "memory: peak RSS {mib:.1} MiB, {per_pin:.1} bytes/pin over {pins} pins (rent200k)"
        ),
        _ => println!("memory: peak RSS unavailable on this platform"),
    }
    let _ = writeln!(
        json,
        "  \"memory\": {{\"peak_rss_bytes\": {}, \"largest_circuit\": \"rent200k\", \
         \"pins\": {pins}, \"bytes_per_pin\": {}}}",
        peak.map_or_else(|| "null".to_owned(), |b| b.to_string()),
        bytes_per_pin.map_or_else(|| "null".to_owned(), |b| format!("{b:.1}"))
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}

/// The cross-run lexicographic quality key of a finished outcome:
/// `(feasible, devices, d_k, T_SUM, d_k^E, cut)`. Unlike
/// `SolutionKey::cmp_key` (which ranks *more* feasible blocks better
/// mid-search), cross-run comparison wants all-feasible first and then
/// *fewer* devices.
fn quality_key(
    graph: &fpart_hypergraph::Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    outcome: &fpart_core::PartitionOutcome,
) -> (bool, usize, f64, usize, f64, usize) {
    let evaluator = CostEvaluator::new(
        constraints,
        config,
        fpart_device::lower_bound(graph, constraints),
        graph.terminal_count(),
    );
    let state = PartitionState::from_assignment(
        graph,
        outcome.assignment.to_vec(),
        outcome.device_count.max(1),
    );
    let key = evaluator.key(&state, None);
    (
        outcome.feasible,
        outcome.device_count,
        key.infeasibility,
        key.terminal_sum,
        key.external_balance,
        key.cut,
    )
}

/// Lexicographic "candidate is at least as good as baseline" over the
/// cross-run quality key (feasible desc, then each component asc).
fn not_worse(
    candidate: &(bool, usize, f64, usize, f64, usize),
    baseline: &(bool, usize, f64, usize, f64, usize),
) -> bool {
    let rank =
        |k: &(bool, usize, f64, usize, f64, usize)| (u8::from(!k.0), k.1, k.2, k.3, k.4, k.5);
    let (c, b) = (rank(candidate), rank(baseline));
    c.partial_cmp(&b).is_none_or(|o| o != std::cmp::Ordering::Greater)
}

/// "Comparable quality" for the ECO gate: feasibility and device count
/// are compared strictly (the repair may not burn an extra device), the
/// scalar components tolerate 5% — an incremental repair is allowed to
/// trade a slightly longer cut for not re-partitioning from scratch.
#[allow(clippy::cast_precision_loss)]
fn comparable(
    candidate: &(bool, usize, f64, usize, f64, usize),
    baseline: &(bool, usize, f64, usize, f64, usize),
) -> bool {
    let slack = |b: f64| b * 1.05 + 1e-9;
    (candidate.0 || !baseline.0)
        && candidate.1 <= baseline.1
        && candidate.2 <= slack(baseline.2)
        && candidate.3 as f64 <= slack(baseline.3 as f64)
        && candidate.4 <= slack(baseline.4)
        && candidate.5 as f64 <= slack(baseline.5 as f64)
}

/// The process peak resident-set size in bytes, from the `VmHWM` line of
/// `/proc/self/status` (kB). `None` where that file does not exist
/// (non-Linux) or cannot be parsed.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn key_json(k: &(bool, usize, f64, usize, f64, usize)) -> String {
    format!(
        "{{\"feasible\": {}, \"devices\": {}, \"infeasibility\": {:.3}, \
         \"terminal_sum\": {}, \"external_balance\": {:.3}, \"cut\": {}}}",
        k.0, k.1, k.2, k.3, k.4, k.5
    )
}
