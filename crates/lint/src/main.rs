//! `mosaic_lint` driver: lint the workspace, print the human table,
//! optionally write the JSON report, enforce the baseline ratchet, and
//! exit nonzero on violations.
//!
//! ```text
//! cargo run -p mosaic_lint [-- --root DIR] [--json-out PATH] [--quiet]
//!     [--baseline PATH] [--write-baseline PATH]
//! cargo run -p mosaic_lint -- --diff OLD.json NEW.json
//! ```
//!
//! Exit codes: 0 clean (allows and notes are fine), 1 violations or
//! ratchet regression or diff regression, 2 usage or I/O error, or a
//! baseline or report file that does not parse.
//!
//! The driver itself is subject to clippy.toml's wall-clock ban (R2): no
//! `std::time::Instant` here. CI times the run with shell `date +%s%N`.

use mosaic_lint::baseline::Baseline;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut diff: Option<(PathBuf, PathBuf)> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json-out" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json-out needs a path"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage("--baseline needs a path"),
            },
            "--write-baseline" => match args.next() {
                Some(v) => write_baseline = Some(PathBuf::from(v)),
                None => return usage("--write-baseline needs a path"),
            },
            "--diff" => match (args.next(), args.next()) {
                (Some(old), Some(new)) => diff = Some((PathBuf::from(old), PathBuf::from(new))),
                _ => return usage("--diff needs OLD.json NEW.json"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                print!("{}", HELP);
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    // Report-diff mode is self-contained: no workspace needed.
    if let Some((old, new)) = diff {
        return run_diff(&old, &new, quiet);
    }

    if !root.join("crates").is_dir() {
        eprintln!(
            "mosaic-lint: {} does not look like the workspace root (no crates/ directory)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let cfg = mosaic_lint::default_config();
    let report = match mosaic_lint::lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mosaic-lint: I/O error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("mosaic-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("mosaic-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !quiet {
            eprintln!("mosaic-lint: report written to {}", path.display());
        }
    }

    if !quiet {
        print!("{}", report.to_table());
    }

    if let Some(path) = &write_baseline {
        let b = Baseline::new(report.allowed_count() as usize, report.fingerprints());
        if let Err(e) = b.save(path) {
            eprintln!("mosaic-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !quiet {
            eprintln!(
                "mosaic-lint: baseline written to {} ({} allows, {} fingerprints)",
                path.display(),
                b.allowed,
                b.fingerprints.len()
            );
        }
    }

    let mut ratchet_failed = false;
    if let Some(path) = &baseline_path {
        let b = match Baseline::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("mosaic-lint: cannot load baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rep = b.check(report.allowed_count() as usize, &report.fingerprints());
        for fp in &rep.new_fingerprints {
            eprintln!("mosaic-lint: ratchet: new diagnostic fingerprint {fp} not in baseline");
        }
        if let Some((was, now)) = rep.allow_regression {
            eprintln!("mosaic-lint: ratchet: allow count grew from {was} to {now}");
        }
        if !rep.is_ok() {
            ratchet_failed = true;
        } else if !quiet {
            eprintln!(
                "mosaic-lint: ratchet ok ({} fingerprints known, {} retired)",
                b.fingerprints.len(),
                rep.retired.len()
            );
        }
    }

    if report.deny_count() > 0 || ratchet_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--diff OLD NEW`: the ratchet with OLD's report as the baseline. Any
/// added diagnostic fingerprint or allow growth is a regression.
fn run_diff(old: &Path, new: &Path, quiet: bool) -> ExitCode {
    let load = |path: &Path| {
        Baseline::load_report(path)
            .map_err(|e| eprintln!("mosaic-lint: cannot read report {}: {e}", path.display()))
    };
    let (Ok(old), Ok(new)) = (load(old), load(new)) else {
        return ExitCode::from(2);
    };
    let rep = old.check(new.allowed, &new.fingerprints);
    if !quiet {
        for fp in &rep.retired {
            println!("- {fp}");
        }
        for fp in &rep.new_fingerprints {
            println!("+ {fp}");
        }
        println!(
            "mosaic-lint: diff: {} added, {} removed, allow delta {:+}",
            rep.new_fingerprints.len(),
            rep.retired.len(),
            new.allowed as i128 - old.allowed as i128
        );
    }
    if rep.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("mosaic-lint: {msg}\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
mosaic_lint — workspace invariant checker (rules R4–R7; DESIGN.md §9, §14)

USAGE:
    cargo run -p mosaic_lint [-- OPTIONS]

OPTIONS:
    --root DIR             workspace root to lint (default: .)
    --json-out PATH        write the machine-readable report (mosaic-lint-report/v2)
    --baseline PATH        enforce the ratchet: fail on any fingerprint not in
                           the baseline or on allow-count growth
    --write-baseline PATH  write the current run as the new baseline
                           (mosaic-lint-baseline/v1)
    --diff OLD NEW         compare two report JSONs by fingerprint; exit 1 if
                           NEW adds any diagnostic or grows the allow count
    --quiet                suppress the human table
    -h, --help             this text

EXIT CODES:
    0  no unannotated violations (and ratchet/diff clean, if requested)
    1  violations, ratchet regression, or diff regression
    2  usage or I/O error, or a baseline or report that does not parse
";
