//! Command line of the Mosaic benchmark.
//!
//! ```text
//! mosaic-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! mosaic-benchmark repeat [--workload <name|all>] [--runs N] [--seconds S]
//! ```
//!
//! One workload prints every metric with its unit (end-to-end ones, or
//! per-layer ones with `--trace 1`), the output digest, and as its last
//! line the JSON result; it exits 1 when an output check fails. `all`
//! runs each workload in a child process of its own. `repeat` runs two
//! sets of N runs of each workload on seeds 1..=N, prints every
//! end-to-end metric's quartiles per set, and fails when a spread or the
//! shift between the two sets' medians exceeds the metric's bound in
//! `BENCHMARK.json`, or when a digest differs between the sets.

use mosaic_benchmark::metrics::{self, MetricDef};
use mosaic_benchmark::{
    repo_root, runner, scratch_dir, stats, trace, Size, DEFAULT_SEED, WORKLOADS,
};
use mosaic_sim::json::Json;
use std::process::{Command, ExitCode, Stdio};

/// Default measuring time of one run: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

/// Output digests at [`DEFAULT_SEED`], one `<workload> <hex>` per line.
const GOLDEN: &str = include_str!("../golden.txt");

const USAGE: &str = "usage: mosaic-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]\n       mosaic-benchmark repeat [--workload <name|all>] [--runs N] [--seconds S]";

#[derive(Debug)]
struct Args {
    repeat: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        repeat: false,
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 10,
    };
    let mut first = true;
    while let Some(arg) = args.next() {
        if first && arg == "repeat" {
            a.repeat = true;
            a.workload = "all".into();
            first = false;
            continue;
        }
        first = false;
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" if a.repeat => {
                a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs < 2 {
                    return Err("--runs must be at least 2 for quartiles".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload takes one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    // One worker thread, full trial counts, full fidelity, whatever the
    // caller's environment says.
    std::env::set_var("MOSAIC_THREADS", "1");
    std::env::remove_var("MOSAIC_QUICK");
    std::env::remove_var("MOSAIC_FIDELITY");
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat {
        repeat(&args)
    } else if args.workload == "all" {
        all(&args)
    } else {
        single(&args)
    }
}

/// Run one workload in this process.
fn single(a: &Args) -> ExitCode {
    let Some(mut report) =
        runner::run_workload(&a.workload, a.seed, Size::Full, a.seconds, a.trace)
    else {
        eprintln!("unknown workload {}", a.workload);
        return ExitCode::from(2);
    };
    if a.seed == DEFAULT_SEED {
        let golden = GOLDEN
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(w, _)| *w == a.workload)
            .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok());
        let digest = report.digest;
        report.checks.expect(golden == Some(digest), || {
            format!("digest {digest:016x} differs from the golden {golden:016x?}")
        });
    }
    for f in &report.checks.failures {
        eprintln!("[check failed] {f}");
    }
    let catalogue = if a.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for m in catalogue {
        println!(
            "{} = {} {}",
            m.name,
            metrics::value(&report.metrics, m.name),
            m.unit
        );
    }
    println!("digest {:016x}", report.digest);
    if a.trace {
        for (name, ns) in trace::self_time_by_name(report.tracer.spans()) {
            eprintln!("[trace] self time {name}: {:.6} s", ns as f64 / 1e9);
        }
        let path = scratch_dir()
            .join("trace")
            .join(format!("{}-{}.jsonl", a.workload, a.seed));
        match report.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "[trace] {} spans -> {}",
                report.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("[trace] not written to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        metrics::result_json(&report.checks, catalogue, &report.metrics).to_string_compact()
    );
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A child run's result line and digest.
struct ChildRun {
    result: Option<Json>,
    digest: Option<String>,
    exited_ok: bool,
}

impl ChildRun {
    fn correct(&self) -> bool {
        self.exited_ok
            && self.result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true))
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Run one workload in a child process of its own.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> ChildRun {
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
    });
    let Ok(out) = out else {
        return ChildRun {
            result: None,
            digest: None,
            exited_ok: false,
        };
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    ChildRun {
        result: stdout.lines().last().and_then(|l| Json::parse(l).ok()),
        digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest ").map(String::from)),
        exited_ok: out.status.success(),
    }
}

/// Every workload, each in a child process, printed as one table.
fn all(a: &Args) -> ExitCode {
    let catalogue = if a.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut ok = true;
    for w in WORKLOADS {
        let run = child(w, a.seed, a.seconds, a.trace);
        let checks = run.result.as_ref().map_or(String::from("no result"), |r| {
            format!(
                "{} of {} checks failed",
                r.get("failed").and_then(Json::as_u64).unwrap_or(0),
                r.get("attempted").and_then(Json::as_u64).unwrap_or(0)
            )
        });
        println!(
            "== {w} ({checks}, digest {})",
            run.digest.as_deref().unwrap_or("-")
        );
        for m in catalogue {
            match run.metric(m.name) {
                Some(v) => println!("  {:<36} {v:>16.6} {}", m.name, m.unit),
                None => println!("  {:<36} {:>16} {}", m.name, "-", m.unit),
            }
        }
        ok &= run.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// An end-to-end metric's regression bound from `BENCHMARK.json`.
struct Bound {
    def: &'static MetricDef,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let def = metrics::END_TO_END
                .iter()
                .find(|d| d.name == name)
                .ok_or(format!("BENCHMARK.json: unknown metric {name:?}"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("BENCHMARK.json: {name} has no bound"))?;
            Ok(Bound { def, bound })
        })
        .collect()
}

/// Two sets of `runs` runs of every workload; see the module docs.
fn repeat(a: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let mut ok = true;
    for w in workloads {
        let sets: Vec<Vec<ChildRun>> = (0..2)
            .map(|_| {
                (0..a.runs)
                    .map(|i| child(w, DEFAULT_SEED + i, a.seconds, false))
                    .collect()
            })
            .collect();
        for (i, (x, y)) in sets[0].iter().zip(&sets[1]).enumerate() {
            if !x.correct() || !y.correct() {
                println!("{w}: run {i} failed its checks");
                ok = false;
            }
            if x.digest != y.digest {
                println!(
                    "{w}: seed {} digest differs between the sets",
                    DEFAULT_SEED + i as u64
                );
                ok = false;
            }
        }
        for b in &bounds {
            let mut medians = [0.0; 2];
            for (s, set) in sets.iter().enumerate() {
                let values: Vec<f64> = set.iter().filter_map(|r| r.metric(b.def.name)).collect();
                let (q1, median, q3) = stats::quartiles(&values);
                let spread = (q3 - q1) / median;
                medians[s] = median;
                let verdict = if b.def.name != "setup_s" && spread > b.bound {
                    ok = false;
                    "FAIL: spread over bound"
                } else if spread > b.bound / 3.0 {
                    "wide: over a third of the bound"
                } else {
                    "ok"
                };
                println!(
                    "{w:<15} {:<12} set {} q1 {q1:<12.6} median {median:<12.6} q3 {q3:<12.6} spread {spread:.4} (bound {}) {verdict}",
                    b.def.name,
                    s + 1,
                    b.bound
                );
            }
            let worse = if b.def.better == "lower" {
                medians[1] / medians[0] - 1.0
            } else {
                1.0 - medians[1] / medians[0]
            };
            let verdict = if worse > b.bound {
                ok = false;
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "{w:<15} {:<12} second median worse by {worse:.4} (bound {}) {verdict}",
                b.def.name, b.bound
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
