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
//! structural pass for test spans and `// lint:` comments (`scan`),
//! per-file fact extraction (`symbols`), a workspace call graph for the
//! interprocedural rules (`callgraph`), token-pattern rules (`rules`),
//! a ratchet baseline (`baseline`), and a deterministic report
//! (`report`). There is no configuration: the kernels R4 and R6 check
//! declare themselves with `// lint: no-alloc` and `// lint: exact-fold`
//! markers (see [`scan::Marker`]).
//!
//! # Pipeline
//!
//! 1. **Collect**: every `.rs` file of every workspace member is lexed
//!    into a [`symbols::FileFacts`] — local findings (R4–R6), the
//!    marked kernels, function definitions with call and panic sites,
//!    RNG derivation sites, and allow annotations. This is the
//!    expensive phase.
//! 2. **Global passes**: duplicate-label detection (R5), panic
//!    reachability over the call graph (R7), and the cross-checks of
//!    every marker against the harness or proof test it cites (R4, R6)
//!    run over all facts and append findings per file.
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
use report::{Report, SymbolStats};
use scan::MarkerKind;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use symbols::{FileFacts, LocalFinding};

/// Lint every crate of the workspace at `root` (each `crates/*` package
/// plus the root package), returning the aggregated report.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
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
        collect_facts(root, src_dir, &mut facts)?;
    }
    Ok(finalize(root, facts))
}

/// Lint one crate rooted at `src_dir`, reporting paths relative to
/// `rel_root`. Public so fixture tests can run the full engine — global
/// passes included — on a directory that is not a cargo workspace.
pub fn lint_src_dir(rel_root: &Path, src_dir: &Path) -> io::Result<Report> {
    let mut facts: Vec<FileFacts> = Vec::new();
    collect_facts(rel_root, src_dir, &mut facts)?;
    Ok(finalize(rel_root, facts))
}

/// Phase 1: lex + extract facts for every `.rs` file under `src_dir`.
fn collect_facts(rel_root: &Path, src_dir: &Path, out: &mut Vec<FileFacts>) -> io::Result<()> {
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
        out.push(symbols::extract(&rel, &src));
    }
    Ok(())
}

/// Phases 2–4: global passes over the facts, per-file allow resolution,
/// and report finalization.
fn finalize(root: &Path, facts: Vec<FileFacts>) -> Report {
    let mut report = Report {
        files: facts.len() as u64,
        ..Report::default()
    };

    let mut extra: BTreeMap<String, Vec<LocalFinding>> = BTreeMap::new();
    callgraph::check_duplicate_labels(&facts, &mut extra);
    let graph = callgraph::CallGraph::build(&facts);
    let stats = graph.check_reachable_panics(&mut extra);
    cross_check_proofs(root, &facts, &mut extra);
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
        for k in &f.kernels {
            let (file, func, proof) = (f.rel_path.clone(), k.func.clone(), k.marker.proof.clone());
            match k.marker.kind {
                MarkerKind::NoAlloc => report.registry.push((file, func, proof)),
                MarkerKind::Exact => report
                    .exactness
                    .push((file, func, proof.unwrap_or_default())),
            }
        }
    }
    // Findings attributed to paths outside the scanned set (a harness
    // under a crate's `tests/`) have no allows to consult.
    for (rel, findings) in extra {
        report
            .diagnostics
            .extend(rules::resolve_allows(&[], &[], &rel, findings));
    }
    report.finish();
    report
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

/// The cross-checks between the markers and the tests they cite.
///
/// R4 runs a two-way drift check between the `no-alloc` kernels and
/// each counting-allocator harness a marker cites:
///
/// 1. every kernel citing a harness must actually be *called* by that
///    harness (so the runtime proof covers the static claim), and
/// 2. every scratch-path method the harness exercises (`*_scratch`,
///    `*_into`) must be a `no-alloc` kernel (so a new scratch kernel
///    cannot gain a runtime proof without gaining the static rule).
///
/// R6 requires every `exact-fold` marker's proof file to exist and to
/// mention its function.
fn cross_check_proofs(
    root: &Path,
    facts: &[FileFacts],
    extra: &mut BTreeMap<String, Vec<LocalFinding>>,
) {
    let kernels = |kind: MarkerKind| {
        facts
            .iter()
            .flat_map(|f| f.kernels.iter().map(move |k| (f, k)))
            .filter(move |(_, k)| k.marker.kind == kind)
    };
    let mut harnesses: Vec<&str> = kernels(MarkerKind::NoAlloc)
        .filter_map(|(_, k)| k.marker.proof.as_deref())
        .collect();
    harnesses.sort_unstable();
    harnesses.dedup();

    for harness in harnesses {
        let mut finding = |line: u32, message: String| {
            extra
                .entry(harness.to_string())
                .or_default()
                .push(LocalFinding {
                    rule: "R4".into(),
                    line,
                    message,
                });
        };
        let Ok(src) = std::fs::read_to_string(root.join(harness)) else {
            finding(
                1,
                "registry cites this harness but the file does not exist".into(),
            );
            continue;
        };
        let calls = call_sites(&src);
        for (_, k) in
            kernels(MarkerKind::NoAlloc).filter(|(_, k)| k.marker.proof.as_deref() == Some(harness))
        {
            if !calls.iter().any(|(name, _)| *name == k.func) {
                finding(
                    1,
                    format!(
                        "counting-allocator harness never calls registry function `{}`; \
                         the runtime proof no longer covers the static claim",
                        k.func
                    ),
                );
            }
        }
        for (name, line) in &calls {
            let is_scratch_path = name.ends_with("_scratch") || name.ends_with("_into");
            if is_scratch_path && !kernels(MarkerKind::NoAlloc).any(|(_, k)| k.func == *name) {
                finding(
                    *line,
                    format!(
                        "harness exercises `{name}` but the no-alloc registry does not list it; \
                         mark it `// lint: no-alloc proof={harness}`"
                    ),
                );
            }
        }
    }

    for (f, k) in kernels(MarkerKind::Exact) {
        let proof = k.marker.proof.as_deref().unwrap_or_default();
        let proof_ok = std::fs::read_to_string(root.join(proof))
            .map(|src| src.contains(&k.func))
            .unwrap_or(false);
        if !proof_ok {
            extra
                .entry(f.rel_path.clone())
                .or_default()
                .push(LocalFinding {
                    rule: "R6".into(),
                    line: k.marker.line,
                    message: format!(
                        "exactness-registry proof `{proof}` is missing or never mentions \
                         `{}`; the integer-rollup test must pin the registered fold",
                        k.func
                    ),
                });
        }
    }
}

/// Call sites in a source file, with lines: `.name(` method calls,
/// `::name(` path calls (like `framing::crc32(`) and bare calls of
/// imported functions (`frame_into(`).
fn call_sites(src: &str) -> Vec<(String, u32)> {
    let toks = lexer::lex(src).tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if let Tok::Ident(name) = &t.tok {
            let definition = i > 0 && toks[i - 1].tok == Tok::Ident("fn".into());
            if !definition && symbols::is_called(&toks, i) {
                out.push((name.clone(), t.line));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_sites_extracts_names_and_lines() {
        let calls = call_sites("fn t() {\n  rs.decode_scratch(&mut w, &mut s);\n  x.k();\n}");
        assert!(calls.contains(&("decode_scratch".into(), 2)));
        assert!(calls.contains(&("k".into(), 3)));
    }

    #[test]
    fn call_sites_sees_path_and_bare_calls() {
        let calls = call_sites(
            "fn t() {\n  let c = framing::crc32(&data[0]);\n  frame_into(1, &p, &mut b);\n}",
        );
        assert!(calls.contains(&("crc32".into(), 2)));
        assert!(calls.contains(&("frame_into".into(), 3)));
        assert!(!calls.iter().any(|(name, _)| name == "t"));
    }

    #[test]
    fn call_sites_sees_turbofish_calls() {
        let src = "fn t() {\n  let a = family.first_draws::<16>(0);\n  \
                   let b = rng::first_u64s::<Vec<[u8; 2]>>(&s);\n  \
                   let c = x.map::<fn() -> u8>(f);\n  let d = x.len::<u8>;\n}";
        let calls = call_sites(src);
        assert!(calls.contains(&("first_draws".into(), 2)));
        assert!(calls.contains(&("first_u64s".into(), 3)));
        assert!(calls.contains(&("map".into(), 4)));
        assert!(!calls.iter().any(|(name, _)| name == "len"));
    }
}
