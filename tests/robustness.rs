//! Execution-control and fault-containment guarantees, end to end:
//!
//! * **Graceful degradation** — randomized circuits under randomized
//!   budgets (pass caps, forced deadline expiry) always terminate,
//!   return a structurally valid assignment, and report the correct
//!   [`Completion`] status (property test).
//! * **Panic isolation** — a restart that panics at any index is
//!   reported as a failed job in the [`RestartsReport`] while the
//!   survivors merge deterministically, bit-identical at 1 and 4
//!   threads (property test).
//! * **Total failure** — only when *every* restart panics does the run
//!   error, with the first panic's index and message.
//! * **Cancellation** — a cancelled token stops the driver cleanly with
//!   `Completion::Cancelled` and a usable best-so-far result.
//! * **Config validation** — zero restarts or threads are rejected up
//!   front with a typed error, not a hang or a panic.

use std::sync::Once;
use std::time::{Duration, Instant};

use fpart_core::verify::{verify_assignment, Violation};
use fpart_core::{
    partition, search, Algorithm, CancelToken, Completion, Counter, FaultPlan, FpartConfig,
    Metrics, Observer, PartitionError, PartitionOutcome, Restarts, RestartsReport, RunBudget,
};
use fpart_device::DeviceConstraints;
use fpart_hypergraph::gen::{window_circuit, WindowConfig};
use fpart_hypergraph::Hypergraph;
use proptest::prelude::*;

/// Keeps deliberately injected panics out of the test output while
/// still printing real ones. Installed once per test binary; the
/// previous hook handles everything that is not an injected fault.
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

/// The flat restart search under `config`, recording into `metrics`
/// (enabled or not).
fn flat_restarts(
    graph: &Hypergraph,
    constraints: DeviceConstraints,
    config: &FpartConfig,
    restarts: usize,
    threads: usize,
    metrics: Metrics,
) -> Result<RestartsReport, PartitionError> {
    let shape = Restarts { count: restarts, threads, ..Restarts::default() };
    search(graph, constraints, config, Algorithm::Flat, &shape, &mut Observer::new(metrics, None))
}

/// Strategy: a random circuit plus device constraints tight enough to
/// usually force several peeling iterations (so budget checks at pass
/// and peel boundaries all execute).
fn arb_workload() -> impl Strategy<Value = (Hypergraph, DeviceConstraints)> {
    (30usize..120, 4usize..16, any::<u64>(), 20u64..60, 30usize..80).prop_map(
        |(nodes, terminals, seed, s_max, t_max)| {
            let graph = window_circuit(&WindowConfig::new("rob", nodes, terminals), seed);
            (graph, DeviceConstraints::new(s_max, t_max))
        },
    )
}

/// A budget scenario paired with the completions it may legitimately
/// produce (a run that finishes before the limit bites stays
/// `Complete`).
#[derive(Debug, Clone)]
enum Scenario {
    Unlimited,
    PassCap(u64),
    ExpireAtPass(u64),
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0u8..3, 0u64..6).prop_map(|(kind, n)| match kind {
        0 => Scenario::Unlimited,
        1 => Scenario::PassCap(n),
        _ => Scenario::ExpireAtPass(n + 1),
    })
}

/// Asserts the outcome is structurally sound: every node assigned to an
/// in-range, non-empty block. Degraded outcomes may violate capacity
/// (that is what `feasible: false` reports) but never structure.
fn assert_structurally_valid(graph: &Hypergraph, outcome: &PartitionOutcome) {
    let verification = verify_assignment(
        graph,
        &outcome.assignment,
        outcome.device_count,
        DeviceConstraints::new(u64::MAX, usize::MAX),
    );
    let structural: Vec<&Violation> = verification
        .violations
        .iter()
        .filter(|v| {
            matches!(
                v,
                Violation::WrongLength { .. }
                    | Violation::BlockOutOfRange { .. }
                    | Violation::EmptyBlock { .. }
            )
        })
        .collect();
    assert!(structural.is_empty(), "structural violations: {structural:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole acceptance property: random netlists under random
    /// budgets terminate, verify, and report the correct completion.
    #[test]
    fn budgeted_runs_terminate_and_verify(
        (graph, constraints) in arb_workload(),
        scenario in arb_scenario(),
    ) {
        let reference = partition(&graph, constraints, &FpartConfig::default());

        let mut config = FpartConfig::default();
        match &scenario {
            Scenario::Unlimited => {}
            Scenario::PassCap(limit) => config.budget.max_passes = Some(*limit),
            Scenario::ExpireAtPass(pass) => config.fault_plan = Some(FaultPlan::expire_at(*pass)),
        }
        let outcome = partition(&graph, constraints, &config);

        match (&scenario, outcome) {
            (Scenario::Unlimited, outcome) => {
                // No budget, no behavior change at all.
                prop_assert_eq!(outcome.as_ref().ok().map(|o| o.completion), reference.as_ref().ok().map(|_| Completion::Complete));
                match (outcome, reference) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a.assignment, b.assignment),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false, "divergent: {a:?} vs {b:?}"),
                }
            }
            (Scenario::PassCap(_), Ok(outcome)) => {
                prop_assert!(
                    matches!(outcome.completion, Completion::Complete | Completion::Degraded),
                    "pass cap must complete or degrade, got {}",
                    outcome.completion
                );
                assert_structurally_valid(&graph, &outcome);
                if outcome.completion == Completion::Complete {
                    let reference = reference.expect("unbudgeted run matches");
                    prop_assert_eq!(outcome.assignment, reference.assignment);
                }
            }
            (Scenario::ExpireAtPass(_), Ok(outcome)) => {
                prop_assert!(
                    matches!(outcome.completion, Completion::Complete | Completion::DeadlineExpired),
                    "forced expiry must complete or expire, got {}",
                    outcome.completion
                );
                assert_structurally_valid(&graph, &outcome);
            }
            // A budget never *introduces* failure: the only error paths
            // are the same infeasibility errors the plain run can hit.
            (_, Err(e)) => {
                let reference = reference.expect_err("budgeted error implies plain error");
                prop_assert_eq!(e, reference);
            }
        }
    }

    /// The fault-injection acceptance property: a panicking restart at
    /// any index is contained, reported, and the merged report is
    /// bit-identical across thread counts.
    #[test]
    fn restart_panic_isolation_is_thread_invariant(
        (graph, constraints) in arb_workload(),
        victim in 0usize..3,
    ) {
        quiet_injected_panics();
        let config = FpartConfig {
            fault_plan: Some(FaultPlan::panic_at(1, "boom").for_only_restart(victim)),
            ..FpartConfig::default()
        };

        let reference = match flat_restarts(&graph, constraints, &config, 3, 1, Metrics::enabled()) {
            Ok(report) => report,
            // All-failed only happens when every restart panics; with a
            // single victim that means restarts were collapsed — not
            // possible here, but infeasibility errors are.
            Err(e) => {
                prop_assert!(!matches!(e, PartitionError::RestartPanicked { .. }), "{e}");
                return Ok(());
            }
        };

        // The victim either panicked at pass 1 or never reached a pass
        // (trivial workload): both are legitimate, but the report must
        // say which happened.
        if reference.failed.is_empty() {
            prop_assert_eq!(reference.completion, Completion::Complete);
        } else {
            prop_assert_eq!(reference.failed.len(), 1);
            prop_assert_eq!(reference.failed[0].restart, victim);
            prop_assert!(reference.failed[0].message.contains("boom"), "{}", reference.failed[0].message);
            prop_assert_eq!(reference.completion, Completion::Degraded);
            prop_assert_eq!(reference.totals.get(Counter::FailedRestarts), 1);
        }
        // Survivors + synthesized failed registries all appear.
        prop_assert_eq!(reference.per_restart.len(), 3);
        for counter in Counter::ALL {
            let sum: u64 = reference.per_restart.iter().map(|m| m.get(counter)).sum();
            prop_assert_eq!(reference.totals.get(counter), sum, "{}", counter.name());
        }
        assert_structurally_valid(&graph, &reference.outcome);

        for threads in [2usize, 4] {
            let report = flat_restarts(&graph, constraints, &config, 3, threads, Metrics::enabled())
                .expect("succeeded at 1 thread");
            prop_assert_eq!(&report.outcome.assignment, &reference.outcome.assignment, "threads={}", threads);
            prop_assert_eq!(report.outcome.cut, reference.outcome.cut);
            prop_assert_eq!(report.completion, reference.completion);
            prop_assert_eq!(&report.failed, &reference.failed);
            prop_assert_eq!(report.per_restart.len(), reference.per_restart.len());
            // Counters are deterministic; wall-clock timing stats are not.
            for counter in Counter::ALL {
                prop_assert_eq!(report.totals.get(counter), reference.totals.get(counter), "{}", counter.name());
                for (restart, (a, b)) in
                    report.per_restart.iter().zip(&reference.per_restart).enumerate()
                {
                    prop_assert_eq!(
                        a.get(counter),
                        b.get(counter),
                        "threads={} restart={} {}",
                        threads,
                        restart,
                        counter.name()
                    );
                }
            }
        }

        // The unobserved search agrees with the observed one, lost
        // restarts and degraded completion included.
        if let Ok(plain) = flat_restarts(&graph, constraints, &config, 3, 4, Metrics::disabled()) {
            prop_assert_eq!(&plain.outcome.assignment, &reference.outcome.assignment);
            prop_assert_eq!(plain.completion, reference.completion);
            prop_assert_eq!(&plain.failed, &reference.failed);
        }
    }
}

/// A workload that always needs several peeling iterations and FM
/// passes, so budget and fault hooks are guaranteed to fire.
fn busy_workload() -> (Hypergraph, DeviceConstraints) {
    (window_circuit(&WindowConfig::new("busy", 150, 16), 11), DeviceConstraints::new(40, 60))
}

#[test]
fn every_restart_panicking_is_a_typed_error() {
    quiet_injected_panics();
    let (graph, constraints) = busy_workload();
    let config = FpartConfig {
        fault_plan: Some(FaultPlan::panic_at(1, "total loss")),
        ..FpartConfig::default()
    };
    for threads in [1usize, 4] {
        let err = flat_restarts(&graph, constraints, &config, 2, threads, Metrics::enabled())
            .expect_err("all restarts panic");
        match err {
            PartitionError::RestartPanicked { restart, message } => {
                assert_eq!(restart, 0, "first failure wins deterministically");
                assert!(message.contains("total loss"), "{message}");
            }
            other => panic!("expected RestartPanicked, got {other:?}"),
        }
        let err = flat_restarts(&graph, constraints, &config, 2, threads, Metrics::disabled())
            .expect_err("all restarts panic");
        assert!(matches!(err, PartitionError::RestartPanicked { restart: 0, .. }), "{err:?}");
    }
}

#[test]
fn zero_deadline_expires_at_the_first_boundary() {
    let (graph, constraints) = busy_workload();
    let config = FpartConfig {
        budget: RunBudget { deadline: Some(Duration::ZERO), ..RunBudget::default() },
        ..FpartConfig::default()
    };
    let started = Instant::now();
    let outcome = partition(&graph, constraints, &config).expect("returns best-so-far");
    // Deadline + at most one boundary's work: generous bound, the point
    // is that the run does not grind through the full schedule.
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(outcome.completion, Completion::DeadlineExpired);
    assert!(!outcome.feasible, "stopping before the first peel cannot be feasible here");
    assert_structurally_valid(&graph, &outcome);
}

#[test]
fn cancelled_token_stops_cleanly_with_best_so_far() {
    let (graph, constraints) = busy_workload();
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = FpartConfig {
        budget: RunBudget { cancel: Some(cancel), ..RunBudget::default() },
        ..FpartConfig::default()
    };
    let outcome = partition(&graph, constraints, &config).expect("returns best-so-far");
    assert_eq!(outcome.completion, Completion::Cancelled);
    assert_structurally_valid(&graph, &outcome);

    // Cancellation also wins over other limits (highest severity).
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = FpartConfig {
        budget: RunBudget {
            cancel: Some(cancel),
            deadline: Some(Duration::ZERO),
            ..RunBudget::default()
        },
        ..FpartConfig::default()
    };
    let outcome = partition(&graph, constraints, &config).expect("returns best-so-far");
    assert_eq!(outcome.completion, Completion::Cancelled);
}

#[test]
fn degenerate_search_configs_are_rejected_up_front() {
    let (graph, constraints) = busy_workload();
    let config = FpartConfig::default();
    for (restarts, threads) in [(0usize, 1usize), (1, 0), (0, 0)] {
        let err =
            flat_restarts(&graph, constraints, &config, restarts, threads, Metrics::disabled())
                .expect_err("invalid config");
        assert!(matches!(err, PartitionError::InvalidConfig { .. }), "{err:?}");
        let text = err.to_string();
        assert!(text.contains("at least 1"), "{text}");
        let err =
            flat_restarts(&graph, constraints, &config, restarts, threads, Metrics::enabled())
                .expect_err("invalid config");
        assert!(matches!(err, PartitionError::InvalidConfig { .. }), "{err:?}");
    }
}

/// An injected delay slows a restart down without changing its result —
/// the merge order is restart-index order, not completion order.
#[test]
fn delayed_restart_does_not_change_the_winner() {
    let (graph, constraints) = busy_workload();
    let plain =
        flat_restarts(&graph, constraints, &FpartConfig::default(), 3, 1, Metrics::disabled())
            .expect("partitions");
    let config = FpartConfig {
        fault_plan: Some(FaultPlan::delay_at(1, Duration::from_millis(30)).for_only_restart(0)),
        ..FpartConfig::default()
    };
    let delayed =
        flat_restarts(&graph, constraints, &config, 3, 4, Metrics::disabled()).expect("partitions");
    assert_eq!(delayed.outcome.assignment, plain.outcome.assignment);
    assert_eq!(delayed.completion, Completion::Complete);
}

/// A pass budget bounds the work: with the cap the run does fewer (or
/// equal) passes than without, and the counter records the stop.
#[test]
fn pass_budget_bounds_the_pass_count() {
    let (graph, constraints) = busy_workload();
    let free = {
        let mut obs = fpart_core::Observer::new(fpart_core::Metrics::enabled(), None);
        fpart_core::partition_observed(&graph, constraints, &FpartConfig::default(), &mut obs)
            .expect("partitions")
    };
    let free_passes = free.metrics.get(Counter::Passes);
    assert!(free_passes > 3, "workload must be non-trivial, got {free_passes} passes");

    let config = FpartConfig {
        budget: RunBudget { max_passes: Some(3), ..RunBudget::default() },
        ..FpartConfig::default()
    };
    let capped = {
        let mut obs = fpart_core::Observer::new(fpart_core::Metrics::enabled(), None);
        fpart_core::partition_observed(&graph, constraints, &config, &mut obs)
            .expect("returns best-so-far")
    };
    assert_eq!(capped.completion, Completion::Degraded);
    assert!(
        capped.metrics.get(Counter::Passes) <= 4,
        "cap of 3 allows at most the in-flight pass to finish, got {}",
        capped.metrics.get(Counter::Passes)
    );
    assert_eq!(capped.metrics.get(Counter::BudgetStops), 1);
    assert_structurally_valid(&graph, &capped);
}
