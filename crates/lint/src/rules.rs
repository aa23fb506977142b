//! The rule catalogue. R4 is a token-pattern check over the bodies of
//! the marked kernels; R5–R7 are interprocedural (see
//! `symbols`/`callgraph`). Every rule runs on every crate of the
//! workspace. (R1 and R2 — no `HashMap`/`HashSet`, no wall clock or
//! ambient entropy — are enforced by `clippy.toml`'s disallowed lists,
//! which see tests, macro expansions and `vendor/` too; R3, a file-list
//! panic scope, was superseded by R7. Neither number is reused.)
//!
//! The kernel list has one copy, beside the kernels: a
//! `// lint: no-alloc` or `// lint: exact-fold` marker on the line
//! directly above each `fn` (grammar in [`crate::scan::Marker`]). A
//! kernel that is renamed or moved carries its marker with it; a marker
//! that sits above no function is itself a violation.
//!
//! * **R4 — no-alloc kernels**: a `no-alloc` function must not name any
//!   of [`R4_BANNED`] (`Vec::new`/`vec!`/`with_capacity`/`to_vec`/
//!   `to_owned`/`collect`/`format!`/`to_string`/`String::new|from`/
//!   `Box::new|from`) in its body. A marker's `proof=` cites the
//!   counting-allocator harness (`crates/*/tests/alloc_free.rs`, one per
//!   crate) that proves the same property at run time; each cited
//!   harness is cross-checked in both directions, so the static list and
//!   the runtime proof cannot drift apart.
//! * **R5 — seed-stream discipline**: every `DetRng` derivation site
//!   must use a unique literal label; raw `DetRng::stream` calls and
//!   `DetRng` values captured by parallel task closures are denied
//!   (implemented in `symbols`/`callgraph`).
//! * **R6 — exact parallel reductions**: accumulation inside a parallel
//!   fold is allowed only in an `exact-fold` function, whose marker
//!   cites the integer-rollup proof test; a marker on a function with no
//!   such accumulation is stale.
//! * **R7 — panic reachability**: panic sites (`unwrap`/`expect`, the
//!   [`PANIC_MACROS`], and index expressions `v[i]` whose index is not a
//!   literal and carries no `// bound:` note) reachable from `pub`
//!   `try_*` entry points are denied wherever they live.

use crate::lexer::{Tok, Token};
use crate::report::{Diagnostic, Level};
use crate::scan::{Allow, BadAllow};
use crate::symbols::LocalFinding;

/// The one file exempt from R5: `rng.rs` *defines*
/// `stream`/`substream`/`substream_indexed`, and the implementations
/// call each other and `stream` by construction.
pub const R5_EXEMPT_FILE: &str = "crates/sim/src/rng.rs";

/// Method names with std prelude/trait homonyms: linking every workspace
/// function of these names from a bare `.name(` call would wire iterator
/// pipelines into the call graph and drown R7 in false paths. Qualified
/// and free calls are unaffected.
pub const METHOD_CALL_SKIP: &[&str] = &[
    "clone",
    "cmp",
    "collect",
    "count",
    "filter",
    "find",
    "fold",
    "get",
    "insert",
    "into_iter",
    "iter",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "push",
    "read",
    "run",
    "sum",
    "write",
];

/// Calls banned inside `no-alloc` functions: each is a token pattern
/// plus the display name used in diagnostics.
pub const R4_BANNED: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["String", ":", ":", "new"], "String::new"),
    (&["String", ":", ":", "from"], "String::from"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["Box", ":", ":", "from"], "Box::from"),
    (&["with_capacity"], "with_capacity"),
    (&["to_vec"], "to_vec"),
    (&["to_owned"], "to_owned"),
    (&["collect"], "collect"),
    (&["to_string"], "to_string"),
    (&["format", "!"], "format!"),
    (&["vec", "!"], "vec!"),
];

/// Panicking macros: R7 panic sites beside `unwrap`/`expect` and
/// unnoted index expressions.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// R4 over one `no-alloc` function: a finding per banned call in the
/// body token span `body` of `func`.
pub fn no_alloc_findings(toks: &[Token], body: (usize, usize), func: &str) -> Vec<LocalFinding> {
    let mut findings = Vec::new();
    for i in body.0..body.1 {
        for (pat, name) in R4_BANNED {
            if match_pattern(toks, i, pat) {
                findings.push(LocalFinding {
                    rule: "R4".into(),
                    line: toks[i].line,
                    message: format!(
                        "{name} inside no-alloc kernel `{func}`; use the scratch buffers"
                    ),
                });
            }
        }
    }
    findings
}

/// Match findings against allow annotations: an allow on the finding's
/// line or the line above suppresses it (level `Allowed`). Unused and
/// malformed allows are violations of the meta-rule `lint-allow`.
/// Called once per file after local and global findings are merged.
pub fn resolve_allows(
    allows: &[Allow],
    bad_allows: &[BadAllow],
    rel_path: &str,
    findings: Vec<LocalFinding>,
) -> Vec<Diagnostic> {
    let mut used = vec![false; allows.len()];
    let mut out: Vec<Diagnostic> = Vec::new();
    for f in findings {
        let hit = allows
            .iter()
            .position(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        let (level, reason) = match hit {
            Some(k) => {
                used[k] = true;
                (Level::Allowed, Some(allows[k].reason.clone()))
            }
            None => (Level::Deny, None),
        };
        out.push(Diagnostic {
            rule: f.rule,
            level,
            file: rel_path.to_string(),
            line: f.line,
            message: f.message,
            reason,
            fingerprint: String::new(),
        });
    }
    for (k, a) in allows.iter().enumerate() {
        if !used[k] {
            out.push(Diagnostic {
                rule: "lint-allow".into(),
                level: Level::Deny,
                file: rel_path.to_string(),
                line: a.line,
                message: format!(
                    "stale allow({}) suppresses nothing; remove it or fix the annotation placement",
                    a.rule
                ),
                reason: None,
                fingerprint: String::new(),
            });
        }
    }
    for b in bad_allows {
        out.push(Diagnostic {
            rule: "lint-allow".into(),
            level: Level::Deny,
            file: rel_path.to_string(),
            line: b.line,
            message: b.message.clone(),
            reason: None,
            fingerprint: String::new(),
        });
    }
    out
}

fn match_pattern(toks: &[Token], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, want)| match toks.get(at + k) {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => s == want,
            Some(Token {
                tok: Tok::Sym(c), ..
            }) => want.len() == 1 && want.starts_with(*c),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols;

    /// Single-file check for the unit tests: local findings only, resolved
    /// against the file's allows.
    fn check_file(src: &str) -> Vec<Diagnostic> {
        let f = symbols::extract("src/hot.rs", src);
        resolve_allows(&f.allows, &f.bad_allows, &f.rel_path, f.local)
    }

    fn denies(src: &str) -> Vec<(String, u32)> {
        check_file(src)
            .into_iter()
            .filter(|d| d.level == Level::Deny)
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn allows_suppress_the_annotated_line_only() {
        let src = "// lint: no-alloc\nfn kernel(v: &[u8]) -> usize {\n    \
                   // lint: allow(R4) reason=cold error path\n    \
                   let a = v.to_vec();\n    let b = v.to_vec();\n    a.len() + b.len()\n}";
        assert_eq!(denies(src), vec![("R4".into(), 5)]);
        assert!(check_file(src)
            .iter()
            .any(|d| d.level == Level::Allowed && d.line == 4 && d.reason.is_some()));
    }

    #[test]
    fn stale_and_malformed_allows_are_violations() {
        let src = "// lint: allow(R7) reason=nothing here\nfn f() {}\n// lint: allow(R5)\n";
        let d = denies(src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(r, _)| r == "lint-allow"));
    }

    #[test]
    fn r4_flags_banned_calls_in_the_marked_fn_only() {
        let src = "// lint: no-alloc\nfn kernel(v: &mut Vec<u8>) { let x: Vec<u8> = v.iter().copied().collect(); }\n\
                   fn cold() { let s = format!(\"ok\"); let _ = s; }";
        let diags = check_file(src);
        let denied: Vec<_> = diags.iter().filter(|d| d.level == Level::Deny).collect();
        assert_eq!(denied.len(), 1);
        assert!(denied[0].message.contains("collect"));
    }
}
