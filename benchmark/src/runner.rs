//! The pass loop: runs a workload until its time budget is spent and
//! turns the passes into metrics.
//!
//! An untraced run repeats passes (set-up, then the measured phase, then
//! the output checks) and reports the fastest set-up and measured times,
//! both in CPU time (see [`crate::cpu`] and [`measure`]); wall times go
//! to stderr only.
//! A traced run alternates untraced and traced passes of the same input,
//! so the tracing overhead is measured on interleaved passes; then it
//! replays the layers of the last traced pass.

use crate::cpu::{self, Units};
use crate::figures::Figures;
use crate::fleet::Fleet;
use crate::trace::Tracer;
use crate::traffic::Traffic;
use crate::{Checks, Size, Workload};
use mosaic_sim::telemetry::{self, Stopwatch};

/// Untraced passes a run makes at least, whatever its budget.
const MIN_PASSES: usize = 3;

/// Untraced/traced pass pairs a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Every output check made.
    pub checks: Checks,
    /// Digest of the outputs (every pass must agree).
    pub digest: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced run's spans (empty when untraced).
    pub tracer: Tracer,
}

/// Run the workload called `name` (one of [`crate::WORKLOADS`]) on
/// `seed` for at least `seconds`, traced or not; `None` for an unknown
/// name.
pub fn run_workload(
    name: &str,
    seed: u64,
    size: Size,
    seconds: f64,
    traced: bool,
) -> Option<Report> {
    fn go<W: Workload>(w: W, seconds: f64, traced: bool) -> Report {
        if traced {
            measure_traced(&w, seconds)
        } else {
            measure(&w, seconds)
        }
    }
    Some(match name {
        "traffic_clean" => go(Traffic::clean(seed, size), seconds, traced),
        "traffic_faults" => go(Traffic::faults(seed, size), seconds, traced),
        "fleet" => go(Fleet::new(seed, size), seconds, traced),
        "figures_full" => go(Figures::new(size), seconds, traced),
        _ => return None,
    })
}

/// One untraced pass's times, in seconds, and digest.
struct Pass {
    /// CPU time of the set-up.
    setup_s: f64,
    /// CPU time of each unit of the measured phase; the last one is what
    /// follows the workload's last unit.
    units: Units,
    /// Wall time of the measured phase.
    wall_s: f64,
    digest: u64,
}

fn untraced_pass<W: Workload>(w: &W, checks: &mut Checks) -> Pass {
    let setup = cpu::now_ns();
    let input = w.setup(None);
    let setup_s = (cpu::now_ns() - setup) as f64 / 1e9;
    let wall = Stopwatch::start();
    let mut units = Units::start();
    let output = w.run(input, None, &mut units);
    units.mark();
    let wall_s = wall.elapsed().as_secs_f64();
    Pass {
        setup_s,
        units,
        wall_s,
        digest: w.check(&output, checks),
    }
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One stderr line on a set of pass times, for a reader of the log.
fn summarize(what: &str, xs: &[f64]) {
    let max = xs.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "[passes] {what}: {} passes, min {:.6} s, median {:.6} s, max {max:.6} s",
        xs.len(),
        min(xs),
        crate::stats::median(xs)
    );
}

/// Record a pass's digest; every pass must reproduce the first one.
fn agree(first: &mut Option<u64>, digest: u64, checks: &mut Checks, what: &str) {
    let want = *first.get_or_insert(digest);
    checks.expect(digest == want, || {
        format!("{what} digest {digest:016x} differs from the first pass's {want:016x}")
    });
}

/// Run `w` for at least `seconds` (and [`MIN_PASSES`] passes) with
/// tracing off, reporting the end-to-end metrics.
///
/// Load from other tenants of the machine only ever slows work down, and
/// comes in bursts of a fraction of a second to tens of seconds. So
/// `cpu_s` takes each unit of the pass at its fastest over the run's
/// passes and adds them up, and `setup_s` is the fastest set-up: a burst
/// then has to cover every pass of a unit to move the result.
pub fn measure<W: Workload>(w: &W, seconds: f64) -> Report {
    let budget = Stopwatch::start();
    let mut checks = Checks::default();
    let mut digest = None;
    let mut fastest: Vec<f64> = Vec::new();
    let (mut setups, mut cpus, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < MIN_PASSES || budget.elapsed().as_secs_f64() < seconds {
        let pass = untraced_pass(w, &mut checks);
        agree(&mut digest, pass.digest, &mut checks, "pass");
        let units = pass.units.times();
        if fastest.is_empty() {
            fastest = units.to_vec();
        }
        checks.expect(units.len() == fastest.len(), || {
            format!(
                "pass cut into {} units, the first pass into {}",
                units.len(),
                fastest.len()
            )
        });
        for (f, &u) in fastest.iter_mut().zip(units) {
            *f = f.min(u);
        }
        setups.push(pass.setup_s);
        cpus.push(units.iter().sum());
        walls.push(pass.wall_s);
    }
    summarize("set-up cpu", &setups);
    summarize("measured cpu", &cpus);
    summarize("measured wall", &walls);
    eprintln!(
        "[passes] {} units, each at its fastest: {:.6} s",
        fastest.len(),
        fastest.iter().sum::<f64>()
    );
    Report {
        checks,
        digest: digest.unwrap_or_default(),
        metrics: vec![
            ("cpu_s", fastest.iter().sum()),
            ("setup_s", min(&setups)),
            (
                "peak_rss_mb",
                telemetry::peak_rss_bytes() as f64 / (1u64 << 20) as f64,
            ),
        ],
        tracer: Tracer::new(),
    }
}

/// Run `w` for at least `seconds` (and [`MIN_TRACED_PAIRS`] pairs),
/// alternating untraced and traced passes, then replay the layers of
/// the last traced pass; reports the per-layer metrics.
pub fn measure_traced<W: Workload>(w: &W, seconds: f64) -> Report {
    let budget = Stopwatch::start();
    let mut checks = Checks::default();
    let mut digest = None;
    let mut tracer = Tracer::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    while traced.len() < MIN_TRACED_PAIRS || budget.elapsed().as_secs_f64() < seconds {
        let pass = untraced_pass(w, &mut checks);
        agree(&mut digest, pass.digest, &mut checks, "untraced pass");
        untraced.push(pass.wall_s);

        // Free the previous traced pass before recording the next.
        drop(last.take());
        tracer.clear();
        let input = w.setup(Some(&mut tracer));
        let wall = Stopwatch::start();
        let output = w.run(input, Some(&mut tracer), &mut Units::start());
        traced.push(wall.elapsed().as_secs_f64());
        let d = w.check(&output, &mut checks);
        agree(&mut digest, d, &mut checks, "traced pass");
        last = Some(output);
    }
    summarize("untraced", &untraced);
    summarize("traced", &traced);
    let mut metrics = match &last {
        Some(output) => w.layers(output, &mut tracer, &mut checks),
        None => Vec::new(),
    };
    // Interleaved best of N: other load on the machine only ever slows a
    // pass down, so the fastest traced pass against the fastest untraced
    // one isolates what the tracing costs.
    metrics.push(("trace_overhead_frac", min(&traced) / min(&untraced) - 1.0));
    Report {
        checks,
        digest: digest.unwrap_or_default(),
        metrics,
        tracer,
    }
}
