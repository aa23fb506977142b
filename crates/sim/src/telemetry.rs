//! Deterministic run telemetry: counters, series, and per-stage timers.
//!
//! Every figure pipeline and Monte-Carlo driver records what it did into
//! a process-global collector; `run_all` snapshots the collector per
//! experiment and folds the snapshots into the run manifest. Two design
//! rules keep the data trustworthy:
//!
//! 1. **Metric values are thread-count invariant.** Counters only ever
//!    accumulate integers (addition is commutative, so parallel workers
//!    cannot perturb them), and series are recorded from sequential
//!    code after the sweep engine's index-ordered reassembly.
//!    The CI determinism gate diffs these values across
//!    `MOSAIC_THREADS=1` and the machine default.
//! 2. **Timings are segregated.** Wall/CPU time lives in stage records,
//!    which the manifest diff treats as advisory (ratio checks), never as
//!    determinism failures.
//!
//! The collector is a plain `Mutex` around BTreeMaps — telemetry calls
//! are coarse (per stage, per figure, per sweep) so contention is nil,
//! and BTreeMap keeps key order stable for byte-stable JSON output.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// An array of numbers, as [`Json::from`] writes a `&[f64]`.
fn f64_arr(v: Option<&Json>, what: &str) -> Result<Vec<f64>, String> {
    v.and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or not an array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{what}: non-numeric element"))
        })
        .collect()
}

/// One completed stage: a labelled, timed unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage label (e.g. `"fig4.waterfall"`, `"par_trials.pool"`).
    pub name: String,
    /// Work units the stage executed (trials, codewords, sweep cells).
    pub trials: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// CPU nanoseconds across all threads (0 when unavailable).
    pub cpu_ns: u64,
}

impl StageRecord {
    fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("trials", self.trials)
            .with("wall_ns", self.wall_ns)
            .with("cpu_ns", self.cpu_ns)
    }

    /// The inverse of `to_json`.
    fn from_json(s: &Json) -> Result<Self, String> {
        let int = |key: &str| {
            s.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stage {key}: missing or not a non-negative integer"))
        };
        Ok(StageRecord {
            name: s
                .get("name")
                .and_then(Json::as_str)
                .ok_or("stage name: missing or not a string")?
                .to_string(),
            trials: int("trials")?,
            wall_ns: int("wall_ns")?,
            cpu_ns: int("cpu_ns")?,
        })
    }
}

/// An immutable snapshot of the collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic integer counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Numeric series (a figure's plotted values), by name.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Completed stages, in completion order.
    pub stages: Vec<StageRecord>,
}

impl Snapshot {
    /// The deterministic (thread-count invariant) part as JSON: counters
    /// and series — no timings.
    pub fn values_json(&self) -> Json {
        let mut counters = Json::object();
        for (k, v) in &self.counters {
            counters.set(k, *v);
        }
        let mut series = Json::object();
        for (k, xs) in &self.series {
            series.set(k, Json::from(xs.as_slice()));
        }
        Json::object()
            .with("counters", counters)
            .with("series", series)
    }

    /// The timing part as JSON: one record per stage.
    pub fn timings_json(&self) -> Json {
        Json::Arr(self.stages.iter().map(|s| s.to_json()).collect())
    }

    /// The inverse of [`Snapshot::values_json`] and
    /// [`Snapshot::timings_json`]: rebuild a snapshot from its `values`
    /// object and its `stages` array, rejecting any shape those writers
    /// do not produce in the sections they write. Other keys of `values`
    /// are ignored, such as the always-empty `histograms` object that
    /// earlier writers emitted, so their fragments still load.
    pub fn from_json(values: &Json, stages: &Json) -> Result<Snapshot, String> {
        let section = |key: &str| {
            values
                .get(key)
                .and_then(Json::as_obj)
                .ok_or(format!("values.{key}: missing or not an object"))
        };
        let mut snap = Snapshot::default();
        for (k, v) in section("counters")? {
            let count = v
                .as_u64()
                .ok_or_else(|| format!("values.counters.{k}: not an integer"))?;
            snap.counters.insert(k.clone(), count);
        }
        for (k, xs) in section("series")? {
            snap.series
                .insert(k.clone(), f64_arr(Some(xs), &format!("series {k}"))?);
        }
        for s in stages.as_arr().ok_or("stages: not an array")? {
            snap.stages.push(StageRecord::from_json(s)?);
        }
        Ok(snap)
    }
}

#[derive(Default)]
struct Collector {
    snap: Snapshot,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
        snap: Snapshot {
            counters: BTreeMap::new(),
            series: BTreeMap::new(),
            stages: Vec::new(),
        },
    });
    &COLLECTOR
}

fn lock() -> std::sync::MutexGuard<'static, Collector> {
    // A poisoned collector only means a panicking thread held the lock;
    // the telemetry maps are still structurally sound.
    match collector().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Add `delta` to the named counter (creating it at zero).
///
/// Integer addition commutes, so this is safe to call from parallel
/// workers without breaking thread-count invariance.
pub fn counter_add(name: &str, delta: u64) {
    let mut g = lock();
    *g.snap.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Append values to the named series. Call from sequential code only
/// (series order is part of the deterministic output).
pub fn record_series(name: &str, values: &[f64]) {
    let mut g = lock();
    g.snap
        .series
        .entry(name.to_string())
        .or_default()
        .extend_from_slice(values);
}

/// Thread CPU time consumed by this process, in nanoseconds, summed over
/// all live threads. Reads `/proc/self/task/*/schedstat` (first field is
/// on-CPU time in ns); returns 0 where that interface is unavailable, so
/// callers must treat 0 as "unknown", not "free".
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0u64;
    for entry in tasks.flatten() {
        let path = entry.path().join("schedstat");
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(first) = text.split_whitespace().next() {
                total += first.parse::<u64>().unwrap_or(0);
            }
        }
    }
    total
}

/// Peak resident-set size of this process so far, in bytes. Reads the
/// `VmHWM` line of `/proc/self/status` (reported in kB); returns 0 where
/// that interface is unavailable, so callers must treat 0 as "unknown".
/// The hyperfleet memory gate uses this to show that 10⁶-link runs stay
/// bounded by shard size, not fleet size.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest.split_whitespace().next() {
                return kb.parse::<u64>().unwrap_or(0) * 1024;
            }
        }
    }
    0
}

/// The sanctioned wall-clock for advisory timings. This module is the
/// only place allowed to touch `std::time::Instant` (lint rule R2, see
/// DESIGN.md §9): every figure pipeline and the sweep engine measure
/// elapsed time through `Stopwatch` so the timer surface stays auditable
/// and timings stay out of the value path.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[allow(clippy::disallowed_methods)] // the one sanctioned Instant::now
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

/// Run `f`, recording a [`StageRecord`] with the given label and trial
/// count. Nested stages each get their own record.
pub fn stage<T>(name: &str, trials: u64, f: impl FnOnce() -> T) -> T {
    let cpu0 = process_cpu_ns();
    let t0 = Stopwatch::start();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let cpu1 = process_cpu_ns();
    let mut g = lock();
    g.snap.stages.push(StageRecord {
        name: name.to_string(),
        trials,
        wall_ns,
        cpu_ns: cpu1.saturating_sub(cpu0),
    });
    out
}

/// Clear the collector (between figures, and at test boundaries).
pub fn reset() {
    let mut g = lock();
    g.snap = Snapshot::default();
}

/// Snapshot and clear in one locked step — what `run_all` uses at each
/// figure boundary.
pub fn take() -> Snapshot {
    let mut g = lock();
    std::mem::take(&mut g.snap)
}

/// Test-only serialization of the process-global collector across this
/// crate's unit tests. A test that resets the collector or asserts on a
/// whole snapshot holds [`test_guard::exclusive`]; a test whose code
/// under test writes to the collector holds [`test_guard::shared`], so
/// such tests still run in parallel with each other but never inside an
/// exclusive one.
#[cfg(test)]
pub(crate) mod test_guard {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static GUARD: RwLock<()> = RwLock::new(());

    /// Sole access: reset, take, or compare whole snapshots.
    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        GUARD.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Shared access: write counters, stages or series.
    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        GUARD.read().unwrap_or_else(|p| p.into_inner())
    }
}

/// Snapshot the collector's current contents without clearing it.
#[cfg(test)]
pub(crate) fn snapshot() -> Snapshot {
    lock().snap.clone()
}

#[cfg(test)]
mod tests {
    use super::test_guard::exclusive;
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let _x = exclusive();
        reset();
        counter_add("trials.test", 5);
        counter_add("trials.test", 7);
        let snap = take();
        assert_eq!(snap.counters["trials.test"], 12);
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn series_and_stage_record() {
        let _x = exclusive();
        reset();
        record_series("fig.x", &[1.0, 2.0]);
        record_series("fig.x", &[3.0]);
        let out = stage("unit", 10, || 42);
        assert_eq!(out, 42);
        let snap = take();
        assert_eq!(snap.series["fig.x"], vec![1.0, 2.0, 3.0]);
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].trials, 10);
        assert!(snap.stages[0].wall_ns > 0);
    }

    #[test]
    fn values_json_excludes_timings() {
        let _x = exclusive();
        reset();
        counter_add("c", 1);
        record_series("s", &[2.5]);
        stage("timed", 3, || ());
        let snap = take();
        let values = snap.values_json().to_string_pretty();
        assert!(values.contains("\"c\": 1"));
        assert!(!values.contains("wall_ns"));
        let timings = snap.timings_json().to_string_pretty();
        assert!(timings.contains("wall_ns"));
        assert!(timings.contains("\"trials\": 3"));
    }

    // Built by hand, not through the collector, so no guard is needed.
    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("trials.demo".into(), 42);
        snap.series.insert("s.demo".into(), vec![0.25, -1.0, 3e-9]);
        snap.stages.push(StageRecord {
            name: "st.demo".into(),
            trials: 7,
            wall_ns: 99,
            cpu_ns: 55,
        });
        snap
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let snap = sample_snapshot();
        let values = Json::parse(&snap.values_json().to_string_pretty()).unwrap();
        let stages = Json::parse(&snap.timings_json().to_string_pretty()).unwrap();
        assert_eq!(Snapshot::from_json(&values, &stages), Ok(snap));
    }

    #[test]
    fn snapshot_from_json_rejects_other_shapes() {
        let snap = sample_snapshot();
        let (values, stages) = (snap.values_json(), snap.timings_json());
        assert!(Snapshot::from_json(&Json::object(), &stages).is_err());
        assert!(Snapshot::from_json(&values, &Json::Null).is_err());
        let mut bad = values.clone();
        bad.set("counters", Json::object().with("c", -1.0));
        assert!(Snapshot::from_json(&bad, &stages).is_err());
        let mut bad = values;
        bad.set("series", Json::object().with("s", Json::from("x")));
        assert!(Snapshot::from_json(&bad, &stages).is_err());
    }

    #[test]
    fn counter_adds_commute_across_threads() {
        let _x = exclusive();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter_add("par", 2);
                    }
                });
            }
        });
        assert_eq!(take().counters["par"], 800);
    }
}
