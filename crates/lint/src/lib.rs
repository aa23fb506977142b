//! `mosaic_lint` — the workspace invariant checker.
//!
//! Statically enforces the invariants the runtime crates established:
//! allocation-free Monte-Carlo kernels (R4), seed-stream discipline (R5),
//! exact parallel reductions (R6), and panic reachability from fallible
//! entry points (R7), index expressions included. Every rule runs on
//! every crate. Deterministic iteration (R1) and clock/entropy hygiene
//! (R2) have one copy, `clippy.toml`'s disallowed lists; R3, a file-list
//! panic scope, was superseded by R7. Retired numbers are not reused.
//! See `rules` for the catalogue, DESIGN.md §9 and §14 for the
//! methodology, and `cargo run -p mosaic_lint` for the driver.
//!
//! The engine is dependency-free (the build environment vendors
//! everything and has no `syn`): a hand-rolled lexer (`lexer`), a
//! structural pass for test spans / function bodies / allow annotations
//! (`scan`), per-file fact extraction (`symbols`), a workspace call
//! graph for the interprocedural rules (`callgraph`), token-pattern
//! rules (`rules`), a ratchet baseline (`baseline`), and a deterministic
//! report (`report`).
//!
//! # Pipeline
//!
//! 1. **Collect**: every `.rs` file of every workspace member is lexed
//!    into a [`symbols::FileFacts`] — local findings (R4–R6),
//!    function definitions with call and panic sites, RNG derivation
//!    sites, and allow annotations. This is the expensive phase.
//! 2. **Global passes**: duplicate-label detection (R5), panic
//!    reachability over the call graph (R7), and exactness-registry
//!    hygiene (R6) run over all facts and append findings per file.
//! 3. **Resolve**: each file's local + global findings meet its allow
//!    annotations; stale or malformed allows become `lint-allow` denials.
//! 4. **Finish**: diagnostics are sorted and fingerprinted (stable,
//!    line-insensitive) for the baseline ratchet and CI trend diffs.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;

use lexer::Tok;
use report::{Diagnostic, Level, Report, SymbolStats};
use rules::Config;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use symbols::{FileFacts, LocalFinding};

pub use rules::default_config;

/// Lint every crate of the workspace at `root` (each `crates/*` package
/// plus the root package), returning the aggregated report.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut src_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.join("src"))
        .collect();
    src_dirs.sort();
    // The root package (`src/`) first.
    src_dirs.insert(0, root.join("src"));

    let mut facts: Vec<FileFacts> = Vec::new();
    for src_dir in src_dirs.iter().filter(|d| d.is_dir()) {
        collect_facts(cfg, root, src_dir, &mut facts)?;
    }
    finalize(root, cfg, facts)
}

/// Lint one crate rooted at `src_dir`, reporting paths relative to
/// `rel_root`. Public so fixture tests can run the full engine — global
/// passes included — on a directory that is not a cargo workspace.
pub fn lint_src_dir(cfg: &Config, rel_root: &Path, src_dir: &Path) -> io::Result<Report> {
    let mut facts: Vec<FileFacts> = Vec::new();
    collect_facts(cfg, rel_root, src_dir, &mut facts)?;
    finalize(rel_root, cfg, facts)
}

/// Phase 1: lex + extract facts for every `.rs` file under `src_dir`.
fn collect_facts(
    cfg: &Config,
    rel_root: &Path,
    src_dir: &Path,
    out: &mut Vec<FileFacts>,
) -> io::Result<()> {
    let mut files = Vec::new();
    collect_rs_files(src_dir, &mut files)?;
    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(rel_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        out.push(symbols::extract(cfg, &rel, &src));
    }
    Ok(())
}

/// Phases 2–4: global passes over the facts, per-file allow resolution,
/// the R4 registry cross-check, and report finalization.
fn finalize(root: &Path, cfg: &Config, facts: Vec<FileFacts>) -> io::Result<Report> {
    let mut report = Report {
        files: facts.len() as u64,
        ..Report::default()
    };

    let mut extra: BTreeMap<String, Vec<LocalFinding>> = BTreeMap::new();
    callgraph::check_duplicate_labels(&facts, &mut extra);
    let graph = callgraph::CallGraph::build(&facts);
    let stats = graph.check_reachable_panics(&mut extra);
    callgraph::check_exactness_registry(Some(root), cfg, &facts, &mut extra);
    report.symbols = SymbolStats {
        functions: stats.functions,
        call_edges: stats.call_edges,
        entry_points: stats.entry_points,
        reachable_fns: stats.reachable_fns,
    };

    for f in &facts {
        let mut findings = f.local.clone();
        if let Some(global) = extra.remove(&f.rel_path) {
            findings.extend(global);
        }
        report.diagnostics.extend(rules::resolve_allows(
            &f.allows,
            &f.bad_allows,
            &f.rel_path,
            findings,
        ));
    }
    // Findings attributed to paths outside the scanned set (e.g. a stale
    // exactness entry naming a deleted file) have no allows to consult.
    for (rel, findings) in extra {
        report
            .diagnostics
            .extend(rules::resolve_allows(&[], &[], &rel, findings));
    }

    cross_check_registry(root, cfg, &mut report)?;
    report.registry = cfg
        .registry
        .iter()
        .map(|e| {
            (
                e.file.to_string(),
                e.func.to_string(),
                e.harness.map(str::to_string),
            )
        })
        .collect();
    report.exactness = cfg
        .exactness
        .iter()
        .map(|e| (e.file.to_string(), e.func.to_string(), e.proof.to_string()))
        .collect();
    report.finish();
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Two-way drift check between the static no-alloc registry and the
/// counting-allocator harness:
///
/// 1. every registry entry citing a harness must actually be *called* by
///    that harness (so the runtime proof covers the static claim), and
/// 2. every scratch-path method the harness exercises (`*_scratch`,
///    `*_into`) must be in the registry (so a new scratch kernel cannot
///    gain a runtime proof without gaining the static rule).
fn cross_check_registry(root: &Path, cfg: &Config, report: &mut Report) -> io::Result<()> {
    let mut harnesses: Vec<&str> = cfg.registry.iter().filter_map(|e| e.harness).collect();
    harnesses.sort_unstable();
    harnesses.dedup();

    for harness in harnesses {
        let path = root.join(harness);
        let Ok(src) = std::fs::read_to_string(&path) else {
            report.diagnostics.push(Diagnostic {
                rule: "R4".into(),
                level: Level::Deny,
                file: harness.to_string(),
                line: 1,
                message: "registry cites this harness but the file does not exist".into(),
                reason: None,
                fingerprint: String::new(),
            });
            continue;
        };
        let calls = method_calls(&src);

        for entry in cfg.registry.iter().filter(|e| e.harness == Some(harness)) {
            if !calls.iter().any(|(name, _)| name == entry.func) {
                report.diagnostics.push(Diagnostic {
                    rule: "R4".into(),
                    level: Level::Deny,
                    file: harness.to_string(),
                    line: 1,
                    message: format!(
                        "counting-allocator harness never calls registry function `{}`; \
                         the runtime proof no longer covers the static claim",
                        entry.func
                    ),
                    reason: None,
                    fingerprint: String::new(),
                });
            }
        }
        for (name, line) in &calls {
            let is_scratch_path = name.ends_with("_scratch") || name.ends_with("_into");
            if is_scratch_path && !cfg.registry.iter().any(|e| e.func == name) {
                report.diagnostics.push(Diagnostic {
                    rule: "R4".into(),
                    level: Level::Deny,
                    file: harness.to_string(),
                    line: *line,
                    message: format!(
                        "harness exercises `{name}` but the no-alloc registry does not list it; \
                         add it in crates/lint/src/rules.rs"
                    ),
                    reason: None,
                    fingerprint: String::new(),
                });
            }
        }
    }
    Ok(())
}

/// Call sites in a source file, with lines: `.name(` method calls and
/// `::name(` path calls (free functions reached through a module path,
/// like the no-alloc registry's `framing::crc32`).
fn method_calls(src: &str) -> Vec<(String, u32)> {
    let toks = lexer::lex(src).tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].tok == Tok::Sym('.') || toks[i].tok == Tok::Sym(':') {
            if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                if symbols::is_called(&toks, i + 1) {
                    out.push((name.clone(), toks[i + 1].line));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_calls_extracts_names_and_lines() {
        let calls = method_calls("fn t() {\n  rs.decode_scratch(&mut w, &mut s);\n  x.k();\n}");
        assert!(calls.contains(&("decode_scratch".into(), 2)));
        assert!(calls.contains(&("k".into(), 3)));
    }

    #[test]
    fn method_calls_sees_path_calls() {
        let calls = method_calls("fn t() {\n  let c = framing::crc32(&data[0]);\n}");
        assert!(calls.contains(&("crc32".into(), 2)));
    }

    #[test]
    fn method_calls_sees_turbofish_calls() {
        let src = "fn t() {\n  let a = family.first_draws::<16>(0);\n  \
                   let b = rng::first_u64s::<Vec<[u8; 2]>>(&s);\n  \
                   let c = x.map::<fn() -> u8>(f);\n  let d = x.len::<u8>;\n}";
        let calls = method_calls(src);
        assert!(calls.contains(&("first_draws".into(), 2)));
        assert!(calls.contains(&("first_u64s".into(), 3)));
        assert!(calls.contains(&("map".into(), 4)));
        assert!(!calls.iter().any(|(name, _)| name == "len"));
    }
}
