//! The execution core: the [`Exec`] thread-count handle and the one
//! private fan-out every parallel shape runs on — scoped workers
//! self-scheduling off an atomic counter, one state and accumulator per
//! worker, merged at join.
//!
//! Everything here is *mechanism* — how a fixed task set fans out over a
//! worker pool deterministically. Policy (trial counts, seeds, labels)
//! lives in [`super::scheduler`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Environment variable selecting the worker count (`1` = sequential).
pub const THREADS_ENV: &str = "MOSAIC_THREADS";

/// Render a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parse a `MOSAIC_THREADS` value: a positive integer (`1` = sequential).
///
/// `"0"`, non-numeric text, and the empty string are structured
/// [`mosaic_units::MosaicError::InvalidConfig`] errors, never panics —
/// [`Exec::from_env`] documents the fallback it applies on such input.
pub fn parse_threads(raw: &str) -> mosaic_units::Result<usize> {
    let parsed = raw.trim().parse::<usize>().map_err(|_| {
        mosaic_units::MosaicError::invalid_config(
            THREADS_ENV,
            format!("must be a positive integer, got {raw:?}"),
        )
    })?;
    if parsed == 0 {
        return Err(mosaic_units::MosaicError::invalid_config(
            THREADS_ENV,
            "must be >= 1 (use 1 for a sequential run)",
        ));
    }
    Ok(parsed)
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An execution context: how many workers to fan out over.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    threads: usize,
}

impl Default for Exec {
    fn default() -> Self {
        Exec::from_env()
    }
}

impl Exec {
    /// Resolve from `MOSAIC_THREADS`, defaulting to available parallelism.
    ///
    /// Malformed values (`"0"`, `"abc"`, `""`) do **not** panic: the
    /// documented fallback is a one-line stderr warning plus the machine
    /// default, so a bad environment can degrade a run's parallelism but
    /// never abort it. Use [`Exec::try_from_env`] to surface the error.
    pub fn from_env() -> Self {
        match Exec::try_from_env() {
            Ok(exec) => exec,
            Err(e) => {
                eprintln!("[sweep] {e}; falling back to available parallelism");
                Exec::with_threads(default_parallelism())
            }
        }
    }

    /// Resolve from `MOSAIC_THREADS`, returning a structured error on a
    /// malformed value instead of applying [`Exec::from_env`]'s fallback.
    pub fn try_from_env() -> mosaic_units::Result<Self> {
        match std::env::var(THREADS_ENV) {
            Ok(v) => Ok(Exec::with_threads(parse_threads(&v)?)),
            Err(_) => Ok(Exec::with_threads(default_parallelism())),
        }
    }

    /// Fixed worker count (used by tests to compare 1 vs N threads).
    pub fn with_threads(threads: usize) -> Self {
        Exec {
            threads: threads.max(1),
        }
    }

    /// Worker count this context fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// The one parallel core every [`super::TrialPlan`] terminal runs on:
/// fold `n` tasks into per-worker accumulators and merge them at join.
///
/// Up to `exec.threads()` scoped workers claim task indices off an
/// atomic counter (coarse tasks of uneven cost still balance). Each
/// worker builds one `make_state` scratch and one `make_acc`
/// accumulator, folds every task it claims with `f(i, &mut state, &mut
/// acc)`, and the worker accumulators are merged with `merge` once all
/// workers have joined. With one worker (one thread, or `n <= 1`) the
/// tasks run on the calling thread in index order into a single
/// accumulator, and nothing is merged.
///
/// Which worker folds which index is scheduling-dependent, so `f` and
/// `merge` must make the result independent of it: exact integer adds,
/// or results keyed by task index and reassembled in order.
///
/// # Errors
/// `WorkerFailed` when a task, `make_state` or `make_acc` panics. Every
/// claimed index below the largest claimed one has run, so the reported
/// failure — the panicking task with the smallest index — is a pure
/// function of the task set. A panic in `make_state` or `make_acc` is
/// reported at index 0, a join failure at `usize::MAX`, and no
/// accumulator is merged once any worker has failed.
pub(crate) fn fan_out<S, A, FS, FA, F, M>(
    exec: &Exec,
    n: usize,
    make_state: FS,
    make_acc: FA,
    f: F,
    merge: M,
) -> mosaic_units::Result<A>
where
    A: Send,
    FS: Fn() -> S + Sync,
    FA: Fn() -> A + Sync,
    F: Fn(usize, &mut S, &mut A) + Sync,
    M: Fn(&mut A, A),
{
    // One worker's fold over the indices it claims; on a panic, the
    // index of the task in flight and the panic message.
    let work = |claims: &mut dyn Iterator<Item = usize>| {
        let mut task = 0;
        catch_unwind(AssertUnwindSafe(|| {
            let mut state = make_state();
            let mut acc = make_acc();
            for i in claims {
                task = i;
                f(i, &mut state, &mut acc);
            }
            acc
        }))
        .map_err(|p| (task, panic_message(p)))
    };
    let workers = exec.threads.min(n).max(1);
    if workers == 1 {
        return work(&mut (0..n)).map_err(|(_, message)| mosaic_units::MosaicError::WorkerFailed {
            worker: 0,
            message,
        });
    }
    let next = AtomicUsize::new(0);
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    work(&mut std::iter::from_fn(|| {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        (i < n).then_some(i)
                    }))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut accs = Vec::with_capacity(workers);
    // (task index, worker index, message) of every failed worker.
    let mut failures = Vec::new();
    for (w, joined) in joined.into_iter().enumerate() {
        match joined {
            Ok(Ok(acc)) => accs.push(acc),
            Ok(Err((task, message))) => failures.push((task, w, message)),
            // A panic that escaped catch_unwind (foreign unwinding) still
            // joins as Err; fold it in rather than re-panicking.
            Err(p) => failures.push((usize::MAX, w, panic_message(p))),
        }
    }
    if let Some((_, worker, message)) = failures.into_iter().min_by_key(|f| f.0) {
        return Err(mosaic_units::MosaicError::WorkerFailed { worker, message });
    }
    Ok(accs
        .into_iter()
        .reduce(|mut total, acc| {
            merge(&mut total, acc);
            total
        })
        .unwrap_or_else(make_acc))
}

/// Fixed chunking of `total` units into tasks of `chunk` units: returns
/// the number of tasks. The chunk size is a call-site constant — *never*
/// derive it from the thread count, or output would depend on it.
pub fn chunk_count(total: u64, chunk: u64) -> u64 {
    assert!(chunk > 0, "chunk size must be positive");
    total.div_ceil(chunk)
}

/// Length of chunk `idx` when splitting `total` units into `chunk`-sized
/// tasks (the final chunk may be short).
pub fn chunk_len(idx: u64, total: u64, chunk: u64) -> u64 {
    let start = idx * chunk;
    debug_assert!(start < total || total == 0);
    chunk.min(total - start)
}

/// Per-run execution statistics a figure binary reports alongside its
/// results. Reported on **stderr** so result files stay byte-identical
/// across thread counts (wall time is the one legitimately
/// nondeterministic output).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Independent work units executed (trials, codewords, sweep cells).
    pub trials: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Worker threads the run fanned out over.
    pub threads: usize,
}

impl RunStats {
    /// Stats for `trials` work units run in `wall` on `threads` workers.
    pub fn new(trials: u64, wall: Duration, threads: usize) -> Self {
        RunStats {
            trials,
            wall,
            threads,
        }
    }

    /// Throughput in work units per second.
    pub fn trials_per_sec(&self) -> f64 {
        self.trials as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Emit the one-line stats record to stderr.
    pub fn report(&self, label: &str) {
        eprintln!(
            "[stats] {label}: trials={} wall={:.3}s trials/sec={:.0} threads={}",
            self.trials,
            self.wall.as_secs_f64(),
            self.trials_per_sec(),
            self.threads,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `n` tasks on the core, reassembling `(index, value)` pairs in
    /// index order.
    fn ordered<T: Send>(
        threads: usize,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> mosaic_units::Result<Vec<T>> {
        let mut tagged = fan_out(
            &Exec::with_threads(threads),
            n,
            || (),
            Vec::new,
            |i, _, acc: &mut Vec<(usize, T)>| acc.push((i, f(i))),
            |all, part| all.extend(part),
        )?;
        tagged.sort_unstable_by_key(|(i, _)| *i);
        Ok(tagged.into_iter().map(|(_, v)| v).collect())
    }

    fn worker_failed(err: mosaic_units::MosaicError) -> (usize, String) {
        match err {
            mosaic_units::MosaicError::WorkerFailed { worker, message } => (worker, message),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn fan_out_is_thread_count_invariant() {
        let work = |i: usize| {
            // Uneven task cost to exercise self-scheduling.
            let spin = (i * 7919) % 97;
            (0..spin).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64))
        };
        let sum = |threads: usize| {
            fan_out(
                &Exec::with_threads(threads),
                311,
                || (),
                || 0u64,
                |i, _, acc| *acc += (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32,
                |total, part| *total += part,
            )
            .unwrap()
        };
        let seq = ordered(1, 257, work).unwrap();
        for threads in [2, 3, 8, 32] {
            assert_eq!(seq, ordered(threads, 257, work).unwrap());
            assert_eq!(sum(1), sum(threads), "threads={threads}");
        }
    }

    #[test]
    fn fan_out_reports_the_smallest_panicking_task() {
        for threads in [1, 4] {
            let err = ordered(threads, 64, |i| {
                if i == 40 {
                    panic!("task 40 exploded");
                }
                if i == 13 {
                    panic!("task 13 exploded");
                }
                i
            })
            .unwrap_err();
            let (_, message) = worker_failed(err);
            assert!(message.contains("task 13 exploded"), "{message}");
        }
    }

    #[test]
    fn fan_out_reports_a_panicking_make_state_at_index_0() {
        for threads in [1, 4] {
            let err = fan_out(
                &Exec::with_threads(threads),
                32,
                || -> Vec<u64> { panic!("scratch died") },
                || 0u64,
                |i, _, acc| *acc += i as u64,
                |total, part| *total += part,
            )
            .unwrap_err();
            // Every worker fails at index 0; the tie goes to worker 0.
            assert_eq!(worker_failed(err), (0, "scratch died".to_string()));
        }
    }

    #[test]
    fn failed_fold_returns_no_accumulator() {
        for threads in [1, 4] {
            let err = fan_out(
                &Exec::with_threads(threads),
                48,
                || (),
                || 0u64,
                |i, _, acc| {
                    if i == 20 {
                        panic!("fold task died");
                    }
                    *acc += i as u64;
                },
                |total, part| *total += part,
            )
            .unwrap_err();
            let (_, message) = worker_failed(err);
            assert!(message.contains("fold task died"), "threads={threads}");
        }
    }

    #[test]
    fn chunking_covers_total_exactly() {
        for (total, chunk) in [(10u64, 3u64), (12, 4), (1, 5), (65_536, 4096), (100, 1)] {
            let n = chunk_count(total, chunk);
            let sum: u64 = (0..n).map(|i| chunk_len(i, total, chunk)).sum();
            assert_eq!(sum, total, "total={total} chunk={chunk}");
        }
    }

    #[test]
    fn run_stats_count_and_report() {
        let stats = RunStats::new(42, Duration::from_millis(20), 3);
        assert_eq!(stats.trials, 42);
        assert_eq!(stats.threads, 3);
        assert!((stats.trials_per_sec() - 2100.0).abs() < 1e-6);
        // A zero wall time is clamped, not a division by zero.
        assert!(RunStats::new(1, Duration::ZERO, 1)
            .trials_per_sec()
            .is_finite());
        stats.report("selftest");
    }

    #[test]
    fn parse_threads_rejects_malformed_values() {
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("abc").is_err());
        assert!(parse_threads("").is_err());
        assert!(parse_threads("-2").is_err());
        assert_eq!(parse_threads("1").unwrap(), 1);
        assert_eq!(parse_threads(" 8 ").unwrap(), 8);
        let msg = parse_threads("abc").unwrap_err().to_string();
        assert!(msg.contains(THREADS_ENV), "{msg}");
    }
}
