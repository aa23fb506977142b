//! `figures_full`: every experiment runner of `mosaic_bench`, full mode,
//! full fidelity, in process — what a user runs to regenerate the paper's
//! results. Each output must equal the committed `results/<id>.txt`. The
//! seed is ignored: the figures have fixed seeds.
//!
//! Runners write checkpoints relative to the working directory, so each
//! pass runs in a fresh directory under the benchmark's scratch space;
//! this changes the process's working directory.

use crate::cpu::Units;
use crate::metrics::PER_LAYER;
use crate::trace::{Tracer, Unit};
use crate::{repo_root, scratch_dir, stats, Checks, Size, Workload};
use mosaic::budget::BudgetEngine;
use mosaic::config::MosaicConfig;
use mosaic_bench::manifest::fnv1a;
use mosaic_bench::Experiment;
use mosaic_sim::telemetry;
use mosaic_units::{BitRate, Length};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Figures the tiny size runs: fast, and the same in quick and full mode.
const TINY: [&str; 3] = ["F2", "T1", "F3"];

/// Timed calls per configuration in the `core` replay.
const CORE_REPEATS: usize = 50;

/// The experiment runners and their committed outputs.
pub struct Figures {
    experiments: Vec<Experiment>,
    golden: Vec<Option<String>>,
}

impl Figures {
    /// Every experiment (`Size::Full`) or a few fast ones (`Size::Tiny`).
    pub fn new(size: Size) -> Self {
        let experiments: Vec<Experiment> = mosaic_bench::all_experiments()
            .into_iter()
            .filter(|(id, _, _)| size == Size::Full || TINY.contains(id))
            .collect();
        let results = repo_root().join("results");
        let golden = experiments
            .iter()
            .map(|(id, _, _)| {
                std::fs::read_to_string(results.join(format!("{}.txt", id.to_lowercase()))).ok()
            })
            .collect();
        Figures {
            experiments,
            golden,
        }
    }
}

/// A pass's working directory: created empty and entered by set-up,
/// left and removed when the pass's outputs are dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn enter() -> std::io::Result<WorkDir> {
        static PASSES: AtomicU64 = AtomicU64::new(0);
        let pass = PASSES.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_dir().join(format!("figures-{}-{pass}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        std::env::set_current_dir(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: nothing in it is needed any more.
        let _ = std::env::set_current_dir(repo_root());
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass's figure outputs (`None` where the working directory could
/// not be prepared).
pub struct FigureOutputs {
    outputs: Option<Vec<String>>,
    _dir: Option<WorkDir>,
}

impl Workload for Figures {
    type Input = std::io::Result<WorkDir>;
    type Output = FigureOutputs;

    /// A fresh, empty working directory, as `run_all` starts from.
    fn setup(&self, _tracer: Option<&mut Tracer>) -> std::io::Result<WorkDir> {
        WorkDir::enter()
    }

    /// One unit per figure.
    fn run(
        &self,
        input: std::io::Result<WorkDir>,
        mut tracer: Option<&mut Tracer>,
        units: &mut Units,
    ) -> FigureOutputs {
        let Ok(dir) = input else {
            return FigureOutputs {
                outputs: None,
                _dir: None,
            };
        };
        let mut outputs = Vec::with_capacity(self.experiments.len());
        for (i, (_, _, runner)) in self.experiments.iter().enumerate() {
            telemetry::reset();
            if let Some(t) = tracer.as_deref_mut() {
                t.enter("bench.figure", figure_unit(i));
            }
            outputs.push(runner());
            if let Some(t) = tracer.as_deref_mut() {
                t.exit();
            }
            units.mark();
        }
        telemetry::reset();
        FigureOutputs {
            outputs: Some(outputs),
            _dir: Some(dir),
        }
    }

    fn check(&self, out: &FigureOutputs, checks: &mut Checks) -> u64 {
        let Some(outputs) = &out.outputs else {
            checks.expect(false, || "figure working directory not prepared".into());
            return 0;
        };
        let mut all = String::new();
        for ((id, _, _), (output, golden)) in self
            .experiments
            .iter()
            .zip(outputs.iter().zip(&self.golden))
        {
            checks.expect(golden.as_deref() == Some(output.as_str()), || {
                format!(
                    "{id}: output differs from results/{}.txt",
                    id.to_lowercase()
                )
            });
            all.push_str(output);
        }
        fnv1a(all.as_bytes())
    }

    fn layers(
        &self,
        _out: &FigureOutputs,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Vec<(&'static str, f64)> {
        let times = tracer.durations("bench.figure");
        let mut layers = Vec::new();
        for ((id, _, _), ns) in self.experiments.iter().zip(times) {
            let name = format!("bench.{}_s", id.to_lowercase());
            match PER_LAYER.iter().find(|m| m.name == name) {
                Some(m) => layers.push((m.name, ns / 1e9)),
                None => checks.expect(false, || format!("{id} has no per-layer metric")),
            }
        }
        let (build_us, evaluate_us) = core_replay(tracer, checks);
        layers.push(("core.budget_build_us", build_us));
        layers.push(("core.evaluate_us", evaluate_us));
        layers
    }
}

fn figure_unit(i: usize) -> Unit {
    Unit {
        kind: "figure",
        id: i as u64,
    }
}

/// `BudgetEngine::new` and `MosaicConfig::try_evaluate` over F3's
/// per-channel rate grid; the medians of the timed calls, in µs.
fn core_replay(t: &mut Tracer, checks: &mut Checks) -> (f64, f64) {
    let mut build = Vec::new();
    let mut evaluate = Vec::new();
    t.enter(
        "core.replay",
        Unit {
            kind: "config",
            id: 0,
        },
    );
    for g in [0.5, 1.0, 2.0, 3.0, 4.0] {
        let cfg = MosaicConfig::builder()
            .bit_rate(BitRate::from_gbps(800.0))
            .reach(Length::from_m(5.0))
            .build();
        let Ok(mut cfg) = cfg else {
            checks.expect(false, || "F3's base configuration rejected".into());
            continue;
        };
        cfg.channel_rate = BitRate::from_gbps(g);
        for _ in 0..CORE_REPEATS {
            let a = t.now_ns();
            black_box(BudgetEngine::new(black_box(&cfg)));
            let b = t.now_ns();
            let report = black_box(black_box(&cfg).try_evaluate());
            let c = t.now_ns();
            build.push((b - a) as f64 / 1e3);
            evaluate.push((c - b) as f64 / 1e3);
            if report.is_err() {
                checks.expect(false, || format!("F3 configuration at {g} Gb/s rejected"));
                break;
            }
        }
    }
    t.exit();
    (stats::median(&build), stats::median(&evaluate))
}
