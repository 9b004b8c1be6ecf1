//! Deterministic fan-out of independent jobs over scoped threads.
//!
//! The multi-run searches (`bipartition_fm` runs, driver restarts, bench
//! table rows) all share the same shape: `count` independent jobs whose
//! results are reduced *sequentially in job-index order*, so the outcome
//! is bit-identical at every thread count. This module provides the
//! fan-out half of that contract using only `std::thread::scope` — no
//! external dependencies, no shared mutable state beyond disjoint result
//! slots and one caller-supplied state per worker.

/// The default worker count for configs that carry one: the
/// `FPART_THREADS` environment variable when set to a positive integer,
/// otherwise 1.
///
/// Every parallel stage in the workspace is bit-identical at every
/// thread count, so overriding the default through the environment can
/// never change a result — it only changes wall time. CI exploits this
/// to run the whole test suite under a thread matrix (`FPART_THREADS=1`
/// and `FPART_THREADS=4`) without touching a single test.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("FPART_THREADS").ok().and_then(|v| v.parse().ok()).filter(|&t| t > 0).unwrap_or(1)
}

/// Runs `count` independent jobs, optionally across scoped worker
/// threads, returning the results in job-index order.
///
/// Each worker owns a contiguous chunk of the result vector, so no
/// synchronization beyond the scope join is needed and the output is
/// independent of scheduling. `threads` is clamped to `1..=count`; with
/// one thread (or one job) everything runs inline on the caller's
/// thread.
///
/// # Example
///
/// ```
/// use fpart_core::parallel::run_indexed;
///
/// let squares = run_indexed(5, 2, &|i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
#[must_use]
pub fn run_indexed<T: Send>(
    count: usize,
    threads: usize,
    job: &(dyn Fn(usize) -> T + Sync),
) -> Vec<T> {
    run_on_workers(count, &mut vec![(); threads.max(1)], &|i, ()| job(i))
}

/// The fan-out behind every `run_indexed*`: one worker per entry of
/// `workers` (clamped to `1..=count`), worker `w` running the `w`-th
/// contiguous chunk of job indices in order and handing each job
/// `&mut workers[w]`. One worker runs everything inline on the calling
/// thread.
fn run_on_workers<S: Send, T: Send>(
    count: usize,
    workers: &mut [S],
    job: &(dyn Fn(usize, &mut S) -> T + Sync),
) -> Vec<T> {
    assert!(!workers.is_empty(), "a fan-out needs at least one worker");
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    let threads = workers.len().min(count);
    if threads <= 1 {
        let worker = &mut workers[0];
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(job(i, worker));
        }
    } else {
        let chunk = count.div_ceil(threads);
        std::thread::scope(|scope| {
            for ((w, worker_slots), worker) in
                slots.chunks_mut(chunk).enumerate().zip(workers.iter_mut())
            {
                scope.spawn(move || {
                    for (i, slot) in worker_slots.iter_mut().enumerate() {
                        *slot = Some(job(w * chunk + i, worker));
                    }
                });
            }
        });
    }
    slots.into_iter().map(|s| s.expect("every job index is executed")).collect()
}

/// A job that panicked inside a caught fan-out.
///
/// The payload message is recovered when the panic carried a `String` or
/// `&str` (the common `panic!("...")` cases); anything else is reported
/// as an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job that panicked.
    pub index: usize,
    /// Recovered panic message.
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs job `index` on the calling thread, catching a panic as a
/// [`JobPanic`]: run inside a [`run_indexed`] job, a panicking job yields
/// `Err(JobPanic)` in its slot instead of poisoning the whole fan-out,
/// and the surviving results still come back in job-index order.
///
/// The panic is caught *inside* the worker closure (a panic escaping a
/// scoped thread would otherwise resurface at the scope join); the
/// default panic hook still prints the payload, so callers that want
/// quiet output should announce the isolation in their logs.
pub(crate) fn catch_panic<T>(index: usize, job: impl FnOnce() -> T) -> Result<T, JobPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
        .map_err(|payload| JobPanic { index, message: panic_message(payload.as_ref()) })
}

/// [`run_indexed`] with per-worker state, per-job metrics and per-job
/// panic isolation.
///
/// One worker thread runs per entry of `workers` (clamped to
/// `1..=count`); each job gets its worker's `&mut S`, so a worker can
/// carry state from one job to the next without sharing it. Jobs are
/// chunked as in [`run_indexed`], so which jobs share a worker depends
/// only on `count` and `workers.len()`. A panicking job leaves its
/// worker's state as the panic found it: a job that mutates `S` must
/// restore it while unwinding if the worker's later jobs rely on it.
///
/// Each job records into its own forked child registry (so workers never
/// share mutable metrics), and the surviving children merge back into
/// `metrics` **in job-index order** — the aggregate is bit-identical at
/// every thread count. A panicked job contributes nothing here (the
/// caller decides how to account for it). When `metrics` is disabled
/// every child is disabled too, so the jobs keep the
/// one-branch-per-event cost.
///
/// # Panics
///
/// Panics if `workers` is empty.
#[must_use]
pub(crate) fn run_indexed_caught_metered<S: Send, T: Send>(
    count: usize,
    workers: &mut [S],
    metrics: &mut crate::obs::Metrics,
    job: &(dyn Fn(usize, &mut S, &mut crate::obs::Metrics) -> T + Sync),
) -> Vec<Result<T, JobPanic>> {
    let seed = metrics.fork();
    let wrapped = |i: usize, worker: &mut S| {
        catch_panic(i, || {
            let mut child = seed.fork();
            let out = job(i, worker, &mut child);
            (out, child)
        })
    };
    run_on_workers(count, workers, &wrapped)
        .into_iter()
        .map(|result| match result {
            Ok((value, child)) => {
                metrics.merge(&child);
                Ok(value)
            }
            Err(panic) => Err(panic),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Counter, Metrics};

    #[test]
    fn preserves_job_order() {
        let squares = run_indexed(17, 4, &|i| i * i);
        assert_eq!(squares, (0..17).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run_indexed(3, 8, &|i| i), vec![0, 1, 2]);
        assert!(run_indexed(0, 2, &|i: usize| i).is_empty());
    }

    #[test]
    fn zero_threads_runs_inline() {
        assert_eq!(run_indexed(4, 0, &|i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn workers_run_contiguous_chunks_on_their_own_state() {
        let caller = std::thread::current().id();
        for threads in [1usize, 3] {
            // Each worker logs the jobs it ran, in the order it ran them,
            // and the thread it ran each one on.
            let mut workers = vec![(Vec::new(), Vec::new()); threads];
            let out = run_indexed_caught_metered(
                7,
                &mut workers,
                &mut Metrics::disabled(),
                &|i, (log, ran_on): &mut (Vec<usize>, Vec<std::thread::ThreadId>), _| {
                    log.push(i);
                    ran_on.push(std::thread::current().id());
                    log.len()
                },
            );
            let expected: Vec<Vec<usize>> = match threads {
                1 => vec![(0..7).collect()],
                _ => vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]],
            };
            let logs: Vec<Vec<usize>> = workers.iter().map(|(log, _)| log.clone()).collect();
            assert_eq!(logs, expected, "threads={threads}");
            let position: Vec<usize> = expected.iter().flat_map(|chunk| 1..=chunk.len()).collect();
            assert_eq!(out, position.into_iter().map(Ok).collect::<Vec<_>>());

            // One worker runs inline; several run on distinct threads
            // of their own, none of them the caller's.
            let ran_on: std::collections::HashSet<_> =
                workers.iter().flat_map(|(_, ran_on)| ran_on.iter().copied()).collect();
            assert_eq!(ran_on.len(), threads, "threads={threads}");
            assert_eq!(ran_on.contains(&caller), threads == 1, "threads={threads}");
        }
    }

    #[test]
    fn metered_aggregate_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut metrics = Metrics::enabled();
            let out =
                run_indexed_caught_metered(9, &mut vec![(); threads], &mut metrics, &|i, (), m| {
                    m.add(Counter::MovesApplied, (i as u64 + 1) * 3);
                    m.bump(Counter::Runs);
                    i
                });
            (out, metrics)
        };
        let (seq_out, seq_metrics) = run(1);
        for threads in [2, 4, 8] {
            let (out, metrics) = run(threads);
            assert_eq!(out, seq_out, "threads={threads}");
            assert_eq!(metrics, seq_metrics, "threads={threads}");
        }
        assert_eq!(seq_metrics.get(Counter::Runs), 9);
        assert_eq!(seq_metrics.get(Counter::MovesApplied), (1..=9).map(|i| i * 3).sum::<u64>());
    }

    /// Silences the default panic hook for the duration of a closure so
    /// intentional panics do not spam the test output. Serialized by a
    /// mutex: the hook is process-global.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn caught_jobs_survive_panics_in_order() {
        with_quiet_panics(|| {
            for threads in [1usize, 2, 4] {
                let results = run_indexed(6, threads, &|i| {
                    catch_panic(i, || {
                        assert!(i != 2 && i != 4, "job {i} exploded");
                        i * 10
                    })
                });
                assert_eq!(results.len(), 6, "threads={threads}");
                for (i, result) in results.iter().enumerate() {
                    if i == 2 || i == 4 {
                        let panic = result.as_ref().expect_err("job panicked");
                        assert_eq!(panic.index, i);
                        assert!(panic.message.contains("exploded"), "{}", panic.message);
                    } else {
                        assert_eq!(result.as_ref().unwrap(), &(i * 10));
                    }
                }
            }
        });
    }

    #[test]
    fn caught_metered_merges_only_survivors() {
        with_quiet_panics(|| {
            let run = |threads: usize| {
                let mut metrics = Metrics::enabled();
                let results = run_indexed_caught_metered(
                    5,
                    &mut vec![(); threads],
                    &mut metrics,
                    &|i, (), m| {
                        m.bump(Counter::Runs);
                        assert!(i != 3, "boom");
                        i
                    },
                );
                (results, metrics)
            };
            let (seq_results, seq_metrics) = run(1);
            assert_eq!(seq_metrics.get(Counter::Runs), 4, "panicked job must not merge");
            for threads in [2, 4] {
                let (results, metrics) = run(threads);
                assert_eq!(results, seq_results, "threads={threads}");
                assert_eq!(metrics, seq_metrics, "threads={threads}");
            }
        });
    }

    #[test]
    fn metered_disabled_parent_disables_children() {
        let mut metrics = Metrics::disabled();
        let out = run_indexed_caught_metered(3, &mut [(), ()], &mut metrics, &|i, (), m| {
            assert!(!m.is_enabled());
            m.bump(Counter::Runs);
            i
        });
        assert_eq!(out, vec![Ok(0), Ok(1), Ok(2)]);
        assert_eq!(metrics.get(Counter::Runs), 0);
    }
}
