//! Observability-layer guarantees, end to end:
//!
//! * **Non-interference** — instrumented (metrics + sinks enabled) and
//!   uninstrumented runs produce **bit-identical partitions**, at 1 and
//!   4 threads, over randomized circuits and devices (property test).
//! * **Deterministic aggregation** — the observed restart search's
//!   totals equal the field-wise per-restart sums and are invariant to
//!   the thread count.
//! * **Consistency** — counters cross-check against the outcome
//!   (`improve_calls`, `iterations`, retained moves) and against the
//!   recorded trace.
//! * **Attribution** — the span profile books every pass, applied move
//!   and gain-bucket pop of a run on a phase below its restart.
//! * **Serialization** — JSONL event streams and metrics JSON parse as
//!   the documented shapes.

use fpart_core::fm::{bipartition_fm, FmConfig};
use fpart_core::{
    partition, partition_observed, search, Algorithm, Counter, EventSink, FpartConfig, JsonlSink,
    Metrics, MultilevelConfig, Observer, PartitionError, Restarts, RestartsReport, SpanKind,
    TraceEvent,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{rent_circuit, window_circuit, RentConfig, WindowConfig};
use fpart_hypergraph::Hypergraph;
use proptest::prelude::*;

/// Strategy: a random circuit plus device constraints tight enough to
/// force several peeling iterations (so the improvement schedule, the
/// stacks, and the restart machinery all execute).
fn arb_workload() -> impl Strategy<Value = (Hypergraph, DeviceConstraints)> {
    (30usize..120, 4usize..16, any::<u64>(), 20u64..60, 30usize..80).prop_map(
        |(nodes, terminals, seed, s_max, t_max)| {
            let graph = window_circuit(&WindowConfig::new("obs", nodes, terminals), seed);
            (graph, DeviceConstraints::new(s_max, t_max))
        },
    )
}

/// The flat restart search, recording into `metrics` (enabled or not).
fn flat_restarts(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    restarts: usize,
    threads: usize,
    metrics: Metrics,
) -> Result<RestartsReport, PartitionError> {
    let shape = Restarts { count: restarts, threads, ..Restarts::default() };
    let config = FpartConfig::default();
    search(graph, constraints, &config, Algorithm::Flat, &shape, &mut Observer::new(metrics, None))
}

/// A sink that counts events without retaining them, to prove the
/// `EventSink` generalization works for consumers other than a `Vec`.
#[derive(Default)]
struct CountingSink {
    events: usize,
}

impl EventSink for CountingSink {
    fn record_event(&mut self, _event: &TraceEvent) {
        self.events += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole acceptance property: metrics-enabled and
    /// metrics-disabled runs yield bit-identical partitions, at 1 and 4
    /// threads.
    #[test]
    fn instrumented_runs_are_bit_identical((graph, constraints) in arb_workload()) {
        let config = FpartConfig::default();
        let plain = partition(&graph, constraints, &config);

        // Fully instrumented single run: metrics + two fanned-out sinks.
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut counting = CountingSink::default();
        let observed = {
            let mut fanout = fpart_core::FanoutSink::new(vec![&mut trace, &mut counting]);
            let mut obs = Observer::new(Metrics::enabled(), Some(&mut fanout));
            partition_observed(&graph, constraints, &config, &mut obs)
        };

        match (plain, observed) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.assignment, &b.assignment);
                prop_assert_eq!(a.device_count, b.device_count);
                prop_assert_eq!(a.cut, b.cut);
                prop_assert_eq!(a.feasible, b.feasible);
                prop_assert_eq!(a.iterations, b.iterations);
                prop_assert_eq!(a.improve_calls, b.improve_calls);
                prop_assert_eq!(a.total_moves, b.total_moves);
                prop_assert_eq!(trace.len(), counting.events);
                // Counters agree with the driver's own accounting.
                prop_assert_eq!(b.metrics.get(Counter::Iterations), b.iterations as u64);
                prop_assert_eq!(b.metrics.get(Counter::Bipartitions), b.iterations as u64);
                prop_assert!(b.metrics.get(Counter::ImproveCalls) >= b.improve_calls as u64);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "divergent results: {a:?} vs {b:?}"),
        }

        // Observed restarts match plain restarts at 1 and 4 threads.
        for threads in [1usize, 4] {
            let plain = flat_restarts(&graph, constraints, 4, threads, Metrics::disabled());
            let observed = flat_restarts(&graph, constraints, 4, threads, Metrics::enabled());
            match (plain, observed) {
                (Ok(p), Ok(r)) => {
                    let a = &p.outcome;
                    prop_assert_eq!(&a.assignment, &r.outcome.assignment, "threads={}", threads);
                    prop_assert_eq!(a.device_count, r.outcome.device_count);
                    prop_assert_eq!(a.cut, r.outcome.cut);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "divergent results: {a:?} vs {b:?}"),
            }
        }
    }

    /// Restart totals are the per-restart sums, and the whole report is
    /// thread-count invariant.
    #[test]
    fn restart_aggregation_is_deterministic((graph, constraints) in arb_workload()) {
        let Ok(reference) = flat_restarts(&graph, constraints, 3, 1, Metrics::enabled())
        else { return Ok(()); };

        prop_assert_eq!(reference.per_restart.len(), 3);
        prop_assert_eq!(reference.totals.get(Counter::Runs), 3);
        for counter in Counter::ALL {
            let sum: u64 = reference.per_restart.iter().map(|m| m.get(counter)).sum();
            prop_assert_eq!(reference.totals.get(counter), sum, "{}", counter.name());
        }

        for threads in [2usize, 4] {
            let report = flat_restarts(&graph, constraints, 3, threads, Metrics::enabled())
                .expect("succeeded at 1 thread");
            prop_assert_eq!(&report.outcome.assignment, &reference.outcome.assignment);
            for counter in Counter::ALL {
                prop_assert_eq!(
                    report.totals.get(counter),
                    reference.totals.get(counter),
                    "threads={} {}",
                    threads,
                    counter.name()
                );
            }
        }
    }

    /// The metered FM facade returns the same bipartition as the plain
    /// one at 1 and 4 threads, with a thread-invariant aggregate.
    #[test]
    fn metered_fm_matches_plain(
        (graph, _) in arb_workload(),
        runs in 1usize..5,
    ) {
        let base = FmConfig { runs, ..FmConfig::default() };
        let plain = bipartition_fm(&graph, &base, &mut Metrics::disabled());
        let mut reference: Option<Metrics> = None;
        for threads in [1usize, 4] {
            let config = FmConfig { threads, ..base.clone() };
            let mut metrics = Metrics::enabled();
            let metered = bipartition_fm(&graph, &config, &mut metrics);
            prop_assert_eq!(&metered, &plain, "threads={}", threads);
            prop_assert_eq!(metrics.get(Counter::Runs), runs as u64);
            prop_assert_eq!(metrics.get(Counter::ImproveCalls), runs as u64);
            match &reference {
                None => reference = Some(metrics),
                Some(r) => prop_assert_eq!(r, &metrics, "threads={}", threads),
            }
        }
    }
}

/// Counters cross-check against the outcome and the trace on a fixed
/// multi-device workload.
#[test]
fn counters_cross_check_against_trace() {
    let graph = window_circuit(&WindowConfig::new("xcheck", 150, 16), 11);
    let constraints = DeviceConstraints::new(40, 60);
    let config = FpartConfig::default();

    let mut trace: Vec<TraceEvent> = Vec::new();
    let outcome = {
        let mut obs = Observer::new(Metrics::enabled(), Some(&mut trace));
        partition_observed(&graph, constraints, &config, &mut obs).expect("partitions")
    };
    let metrics = &outcome.metrics;

    assert!(outcome.iterations > 1, "workload must force several iterations");
    assert_eq!(metrics.get(Counter::Iterations), outcome.iterations as u64);
    assert_eq!(metrics.get(Counter::Bipartitions), outcome.iterations as u64);

    // Driver-level improve calls: the trace records exactly those, and
    // each records a wall-time sample for its schedule slot.
    let improve_events = trace.iter().filter(|e| matches!(e, TraceEvent::Improve { .. })).count();
    assert_eq!(improve_events, outcome.improve_calls);
    let timed: u64 =
        fpart_core::ImproveKind::ALL.iter().map(|&k| metrics.improve_time(k).count).sum();
    assert_eq!(timed, outcome.improve_calls as u64);

    // Trace-visible totals agree with the counters; the engine may run
    // more improve calls than the driver (none here) but never fewer.
    let (mut passes, mut moves, mut restarts) = (0u64, 0u64, 0u64);
    for event in &trace {
        if let TraceEvent::Improve { passes: p, moves: m, restarts: r, .. } = event {
            passes += *p as u64;
            moves += *m as u64;
            restarts += *r as u64;
        }
    }
    assert_eq!(metrics.get(Counter::Passes), passes);
    assert_eq!(metrics.get(Counter::StackRestarts), restarts);
    assert_eq!(outcome.total_moves as u64, moves);
    // Retained moves = applied − reverted.
    assert_eq!(metrics.get(Counter::MovesApplied) - metrics.get(Counter::MovesReverted), moves);
    assert!(metrics.get(Counter::GainBucketPops) >= metrics.get(Counter::MovesApplied));
    assert!(metrics.get(Counter::KeyEvaluations) > 0);
}

/// Every pass, applied move and gain-bucket pop of an observed run is
/// booked on a direct child span of its `restart` span, flat and
/// n-level, and an n-level run records its coarsen, initial and refine
/// phases — the profile leaves no engine work unattributed.
#[test]
fn restart_child_spans_account_for_all_engine_work() {
    let graph = rent_circuit(&RentConfig::new("rent", 4000, 200), 11);
    let constraints = DeviceConstraints::new(400, 120);
    let ml = MultilevelConfig::default();
    for algorithm in [Algorithm::Flat, Algorithm::Multilevel(&ml)] {
        let mut obs = Observer::new(Metrics::enabled(), None);
        let config = FpartConfig::default();
        let report =
            search(&graph, constraints, &config, algorithm, &Restarts::default(), &mut obs)
                .expect("partitions");
        let records = report.totals.spans().records();
        for counter in [Counter::Passes, Counter::MovesApplied, Counter::GainBucketPops] {
            let attributed: u64 = records
                .iter()
                .filter(|r| r.parent == Some(SpanKind::Restart))
                .map(|r| r.counter(counter))
                .sum();
            let total = report.totals.get(counter);
            assert!(total > 0, "{algorithm:?}: no {}", counter.name());
            assert_eq!(attributed, total, "{algorithm:?}: {}", counter.name());
        }
        if let Algorithm::Multilevel(_) = algorithm {
            for kind in [SpanKind::CoarsenLevel, SpanKind::Initial, SpanKind::RefineLevel] {
                assert!(records.iter().any(|r| r.kind == kind), "no {} record", kind.as_str());
            }
        }
    }
}

/// JSONL streaming during a real run: one parseable object per line,
/// event counts matching the in-memory trace.
#[test]
fn jsonl_stream_matches_trace() {
    let graph = window_circuit(&WindowConfig::new("jsonl", 120, 12), 3);
    let constraints = DeviceConstraints::new(35, 50);
    let config = FpartConfig::default();

    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut jsonl = JsonlSink::new(Vec::new());
    {
        let mut fanout = fpart_core::FanoutSink::new(vec![&mut trace, &mut jsonl]);
        let mut obs = Observer::new(Metrics::disabled(), Some(&mut fanout));
        partition_observed(&graph, constraints, &config, &mut obs).expect("partitions");
    }

    assert_eq!(jsonl.lines() as usize, trace.len());
    assert!(trace.len() > 3);
    let text = String::from_utf8(jsonl.into_inner()).expect("utf8");
    for (line, event) in text.lines().zip(&trace) {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(line, fpart_core::event_to_json(event));
    }
}
