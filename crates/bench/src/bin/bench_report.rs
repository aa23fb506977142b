//! Inspect and compare `run_all` manifests.
//!
//! ```sh
//! bench-report check   <manifest.json>                 # schema validation
//! bench-report summary <manifest.json>                 # per-figure table
//! bench-report diff    <old.json> <new.json> [flags]   # regression report
//! bench-report trend   <manifest.json>...              # wall-time history
//! ```
//!
//! `diff` always compares the thread-count-invariant *values* (counters,
//! series, output digests); any difference is a determinism or result
//! regression and fails the command. Unless `--values-only` is
//! given, it also compares per-figure wall times and flags figures slower
//! than `--max-slowdown` (default 1.5×); figures whose new wall time is
//! under `--min-wall-ms` (default 100) are treated as jitter and never
//! flagged.
//!
//! `trend` renders a per-figure wall-time history across manifests given
//! oldest-first (e.g. the previous CI run's artifact followed by the
//! current run) as a GitHub-flavored markdown table, ready to append to
//! `$GITHUB_STEP_SUMMARY`, with a final peak-RSS row (from
//! `run.timings.peak_rss_bytes`). It never fails on timing — it is a
//! report, not a gate.
//!
//! Exit codes: 0 = clean, 1 = regression found, 2 = usage/parse error.

use mosaic_bench::manifest;
use mosaic_sim::json::Json;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    let errs = manifest::schema_check(&doc);
    if !errs.is_empty() {
        eprintln!("{path} is not a valid {}:", manifest::SCHEMA);
        for e in &errs {
            eprintln!("  {e}");
        }
        std::process::exit(2);
    }
    doc
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-report check <manifest.json>\n       \
         bench-report summary <manifest.json>\n       \
         bench-report diff <old.json> <new.json> \
         [--values-only] [--max-slowdown X] [--min-wall-ms MS]\n       \
         bench-report trend <manifest.json>... (oldest first)\n       \
         \n\
         diff flags:\n  \
         --values-only      compare only deterministic values, skip timings\n  \
         --max-slowdown X   flag figures slower than X times the old wall time\n                     \
         (default 1.5)\n  \
         --min-wall-ms MS   ignore figures whose new wall time is below MS\n                     \
         milliseconds — sub-threshold figures are jitter (default 100)\n\
         \n\
         exit codes:\n  \
         0  clean: schema valid, values identical, no timing regression\n  \
         1  regression: value drift or a figure beyond --max-slowdown\n  \
         2  usage error, unreadable file, or schema violation"
    );
    std::process::exit(2);
}

fn figure_wall_ns(fig: &Json) -> Option<(String, u64)> {
    let id = fig.get("id")?.as_str()?.to_string();
    let wall = fig.get("timings")?.get("wall_ns")?.as_u64()?;
    Some((id, wall))
}

fn cmd_check(path: &str) {
    load(path); // exits on any violation
    println!("{path}: valid {}", manifest::SCHEMA);
}

fn cmd_summary(path: &str) {
    let doc = load(path);
    let run = doc.get("run").expect("schema-checked");
    println!(
        "{path}: mode={} threads={} config_hash={}",
        run.get("mode").and_then(|v| v.as_str()).unwrap_or("?"),
        run.get("threads").and_then(|v| v.as_u64()).unwrap_or(0),
        run.get("config_hash")
            .and_then(|v| v.as_str())
            .unwrap_or("?"),
    );
    println!(
        "{:>5} {:>10} {:>10} {:>9} {:>7}",
        "id", "wall ms", "trials", "counters", "series"
    );
    for fig in doc.get("figures").and_then(|f| f.as_arr()).unwrap_or(&[]) {
        let id = fig.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let wall_ms = fig
            .get("timings")
            .and_then(|t| t.get("wall_ns"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64
            / 1e6;
        let values = fig.get("values");
        let counters = values
            .and_then(|v| v.get("counters"))
            .and_then(|c| c.as_obj())
            .map(|o| o.len())
            .unwrap_or(0);
        let series = values
            .and_then(|v| v.get("series"))
            .and_then(|c| c.as_obj())
            .map(|o| o.len())
            .unwrap_or(0);
        let trials: u64 = values
            .and_then(|v| v.get("counters"))
            .and_then(|c| c.as_obj())
            .map(|o| {
                o.iter()
                    .filter(|(k, _)| k.starts_with("trials."))
                    .filter_map(|(_, v)| v.as_u64())
                    .sum()
            })
            .unwrap_or(0);
        println!("{id:>5} {wall_ms:>10.1} {trials:>10} {counters:>9} {series:>7}");
    }
}

fn cmd_diff(
    old_path: &str,
    new_path: &str,
    values_only: bool,
    max_slowdown: f64,
    min_wall_ms: f64,
) {
    let old = load(old_path);
    let new = load(new_path);
    let mut failed = false;

    let value_diffs = manifest::diff(&old, &new, true);
    if value_diffs.is_empty() {
        println!("values: identical ({old_path} vs {new_path})");
    } else {
        failed = true;
        println!("values: {} difference(s)", value_diffs.len());
        for d in &value_diffs {
            println!("  {}: {} -> {}", d.path, d.left, d.right);
        }
    }

    // Figures beyond --max-slowdown, as (id, ratio, old_ns, new_ns).
    let mut offenders: Vec<(String, f64, u64, u64)> = Vec::new();
    if !values_only {
        let olds: Vec<_> = old
            .get("figures")
            .and_then(|f| f.as_arr())
            .unwrap_or(&[])
            .iter()
            .filter_map(figure_wall_ns)
            .collect();
        let news: Vec<_> = new
            .get("figures")
            .and_then(|f| f.as_arr())
            .unwrap_or(&[])
            .iter()
            .filter_map(figure_wall_ns)
            .collect();
        for (id, old_ns) in &olds {
            let Some((_, new_ns)) = news.iter().find(|(nid, _)| nid == id) else {
                continue;
            };
            let ratio = if *old_ns == 0 {
                1.0
            } else {
                *new_ns as f64 / *old_ns as f64
            };
            // Sub-threshold figures are all jitter; don't flag them.
            if ratio > max_slowdown && *new_ns as f64 > min_wall_ms * 1e6 {
                failed = true;
                offenders.push((id.clone(), ratio, *old_ns, *new_ns));
                println!(
                    "timing: {id} regressed {ratio:.2}x ({:.1} ms -> {:.1} ms)",
                    *old_ns as f64 / 1e6,
                    *new_ns as f64 / 1e6
                );
            }
        }
    }

    if failed {
        // The failure message names every offending figure and its ratio,
        // so a CI log tail (or a human skimming stderr) sees the culprit
        // without scrolling back through the per-figure report.
        if !offenders.is_empty() {
            offenders.sort_by(|a, b| b.1.total_cmp(&a.1));
            let list: Vec<String> = offenders
                .iter()
                .map(|(id, ratio, old_ns, new_ns)| {
                    format!(
                        "{id} {ratio:.2}x ({:.1} ms -> {:.1} ms)",
                        *old_ns as f64 / 1e6,
                        *new_ns as f64 / 1e6
                    )
                })
                .collect();
            eprintln!(
                "FAIL: {} figure(s) beyond --max-slowdown {max_slowdown}: {}",
                offenders.len(),
                list.join(", ")
            );
        } else {
            eprintln!("FAIL: value drift between {old_path} and {new_path}");
        }
        std::process::exit(1);
    }
    println!("no regressions");
}

/// Render a per-figure wall-time history across manifests (oldest first)
/// as a markdown table: one row per figure plus a total row, one column
/// per manifest, and a final column with the last-vs-previous ratio.
fn cmd_trend(paths: &[String]) {
    let docs: Vec<Json> = paths.iter().map(|p| load(p)).collect();

    // Column labels: file stem, de-duplicated by position if needed.
    let labels: Vec<String> = paths
        .iter()
        .map(|p| {
            std::path::Path::new(p)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(p)
                .to_string()
        })
        .collect();

    // Figure order comes from the newest manifest; figures absent from an
    // older run render as `-`.
    let newest = docs.last().expect("at least one manifest");
    let ids: Vec<String> = newest
        .get("figures")
        .and_then(|f| f.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|fig| Some(figure_wall_ns(fig)?.0))
        .collect();

    let wall_of = |doc: &Json, id: &str| -> Option<u64> {
        doc.get("figures")?
            .as_arr()?
            .iter()
            .filter_map(figure_wall_ns)
            .find(|(fid, _)| fid == id)
            .map(|(_, ns)| ns)
    };
    let total_of = |doc: &Json| -> Option<u64> {
        doc.get("run")?
            .get("timings")?
            .get("total_wall_ns")?
            .as_u64()
    };
    let cell = |ns: Option<u64>| match ns {
        Some(ns) => format!("{:.1}", ns as f64 / 1e6),
        None => "-".to_string(),
    };
    let ratio_cell = |prev: Option<u64>, last: Option<u64>| match (prev, last) {
        (Some(p), Some(l)) if p > 0 => format!("{:.2}x", l as f64 / p as f64),
        _ => "-".to_string(),
    };

    println!("### Bench wall-time trend (ms)");
    println!();
    println!("| figure | {} | Δ last |", labels.join(" | "));
    println!("|---|{}---|", "---:|".repeat(labels.len()));
    for id in &ids {
        let walls: Vec<Option<u64>> = docs.iter().map(|d| wall_of(d, id)).collect();
        let cells: Vec<String> = walls.iter().map(|&w| cell(w)).collect();
        let n = walls.len();
        let prev = if n >= 2 { walls[n - 2] } else { None };
        println!(
            "| {id} | {} | {} |",
            cells.join(" | "),
            ratio_cell(prev, walls[n - 1])
        );
    }
    let totals: Vec<Option<u64>> = docs.iter().map(total_of).collect();
    let cells: Vec<String> = totals.iter().map(|&t| cell(t)).collect();
    let n = totals.len();
    let prev = if n >= 2 { totals[n - 2] } else { None };
    println!(
        "| **total** | {} | {} |",
        cells.join(" | "),
        ratio_cell(prev, totals[n - 1])
    );
    // Peak RSS (MB): a resource row, not a timing row — it is how CI sees
    // that the hyperfleet figure stays memory-bounded as the fleet grows.
    // Manifests predating the field (or non-Linux runs reporting 0)
    // render as `-`.
    let rss_of = |doc: &Json| -> Option<u64> {
        doc.get("run")?
            .get("timings")?
            .get("peak_rss_bytes")?
            .as_u64()
            .filter(|&b| b > 0)
    };
    let rss: Vec<Option<u64>> = docs.iter().map(rss_of).collect();
    let cells: Vec<String> = rss
        .iter()
        .map(|&b| match b {
            Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
            None => "-".to_string(),
        })
        .collect();
    let prev = if n >= 2 { rss[n - 2] } else { None };
    println!(
        "| **peak RSS (MB)** | {} | {} |",
        cells.join(" | "),
        ratio_cell(prev, rss[n - 1])
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") if args.len() == 2 => cmd_check(&args[1]),
        Some("summary") if args.len() == 2 => cmd_summary(&args[1]),
        Some("diff") if args.len() >= 3 => {
            let mut values_only = false;
            let mut max_slowdown = 1.5f64;
            let mut min_wall_ms = 100.0f64;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--values-only" => values_only = true,
                    "--max-slowdown" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(x) => max_slowdown = x,
                        None => usage(),
                    },
                    "--min-wall-ms" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(x) => min_wall_ms = x,
                        None => usage(),
                    },
                    _ => usage(),
                }
            }
            cmd_diff(&args[1], &args[2], values_only, max_slowdown, min_wall_ms);
        }
        Some("trend") if args.len() >= 2 => cmd_trend(&args[1..]),
        _ => usage(),
    }
}
