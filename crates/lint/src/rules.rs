//! The rule catalogue. R1, R2 and R4 are token-pattern checks over the
//! non-test code of the crates in their scope; R5–R7 are interprocedural
//! (see `symbols`/`callgraph`) and configured here. (R3, a file-list
//! panic scope, was superseded by R7 and retired; the number is not
//! reused.)
//!
//! * **R1 — deterministic iteration**: no `HashMap`/`HashSet`. Their
//!   iteration order is seeded per process, so any use near a figure
//!   pipeline risks nondeterministic output; `BTreeMap`/`BTreeSet` or
//!   sorted drains are the sanctioned forms. (The rule is conservative:
//!   even lookup-only maps are flagged, because a later `iter()` is one
//!   edit away — annotate if lookup-only use is truly needed.)
//! * **R2 — clock and entropy hygiene**: no `Instant`, `SystemTime`,
//!   `thread_rng`, or `rand::random` outside `mosaic_sim::telemetry` —
//!   wall time flows through `telemetry::Stopwatch`/`stage` (reported as
//!   advisory timings, never values) and randomness through counter-based
//!   `DetRng` streams.
//! * **R4 — no-alloc kernels**: functions in the registry (the RS/BCH
//!   scratch decoders, the batched slicer, `corrupt_symbols`) must not
//!   call `Vec::new`/`vec!`/`to_vec`/`collect`/`format!`/`to_string`/
//!   `String::new|from`/`Box::new` in their bodies. The registry is
//!   cross-checked against the counting-allocator harness
//!   (`crates/fec/tests/alloc_free.rs`) in both directions, so the
//!   static list and the runtime proof cannot drift apart.
//! * **R5 — seed-stream discipline**: every `DetRng` derivation site
//!   must use a unique literal label; raw `DetRng::stream` calls and
//!   `DetRng` values captured by parallel task closures are denied
//!   (implemented in `symbols`/`callgraph`).
//! * **R6 — exact parallel reductions**: accumulation inside a parallel
//!   fold must be listed in the `exactness` registry, whose entries are
//!   cross-checked against integer-rollup proof tests.
//! * **R7 — panic reachability**: panic sites (`unwrap`/`expect` and
//!   the [`PANIC_MACROS`]) reachable from `pub` `try_*` entry points are
//!   denied wherever they live.
//!
//! Beside the rules, an advisory index census counts index expressions
//! without a `bound:` note, scoped by `census_crates`/`census_extra_files`;
//! it never fails a run.

use crate::lexer::Tok;
use crate::report::{Diagnostic, Level};
use crate::scan::{Allow, BadAllow, FileScan};
use crate::symbols::LocalFinding;

/// Which crates a rule applies to. Crate identity is the directory name
/// under `crates/` (`"fec"`, `"sim"`, ...); the workspace root package
/// scans as `"repro"`.
#[derive(Debug, Clone)]
pub enum CrateSet {
    All,
    Named(Vec<&'static str>),
}

impl CrateSet {
    pub fn contains(&self, name: &str) -> bool {
        match self {
            CrateSet::All => true,
            CrateSet::Named(list) => list.contains(&name),
        }
    }
}

/// One entry of the no-alloc registry.
#[derive(Debug, Clone)]
pub struct RegistryFn {
    /// Workspace-relative file the function lives in.
    pub file: &'static str,
    /// Function name (must exist in the file's non-test code — a missing
    /// function is itself a violation, so renames can't silently drop
    /// coverage).
    pub func: &'static str,
    /// The runtime harness proving the same property dynamically, when
    /// one exists. Cross-checked: the harness must call the function.
    pub harness: Option<&'static str>,
}

/// One entry of the R6 exactness registry: a function whose parallel-fold
/// accumulator is exact-integer, with the integer-rollup test proving the
/// reduction is thread/batch invariant. Cross-checked both ways: the
/// function must really accumulate inside a parallel fold (no stale
/// grandfathering) and the proof file must exist and mention it.
#[derive(Debug, Clone)]
pub struct ExactFold {
    pub file: &'static str,
    pub func: &'static str,
    pub proof: &'static str,
}

/// Engine configuration: rule scopes plus the registries.
#[derive(Debug, Clone)]
pub struct Config {
    pub r1_crates: CrateSet,
    pub r2_crates: CrateSet,
    /// Path suffixes exempt from R2 (the telemetry timer module).
    pub r2_exempt_files: Vec<&'static str>,
    /// Scope of the advisory index census: these crates plus the
    /// `census_extra_files` path suffixes.
    pub census_crates: CrateSet,
    pub census_extra_files: Vec<&'static str>,
    pub registry: Vec<RegistryFn>,
    pub r5_crates: CrateSet,
    /// Path suffixes exempt from R5 — the module *defining* the stream
    /// primitives derives streams by construction.
    pub r5_exempt_files: Vec<&'static str>,
    pub r6_crates: CrateSet,
    pub exactness: Vec<ExactFold>,
    /// Crates whose `pub try_*` functions seed R7 reachability.
    pub r7_crates: CrateSet,
    /// Method names never linked by bare `.name(` calls in the call
    /// graph: std prelude/trait homonyms (`.sum()` is Iterator::sum, not
    /// `TrialPlan::sum`). Qualified `Type::name(` calls always link.
    pub method_call_skip: Vec<&'static str>,
}

impl Config {
    /// Everything off: the base for fixture configs that enable one rule.
    pub fn empty() -> Config {
        Config {
            r1_crates: CrateSet::Named(vec![]),
            r2_crates: CrateSet::Named(vec![]),
            r2_exempt_files: vec![],
            census_crates: CrateSet::Named(vec![]),
            census_extra_files: vec![],
            registry: vec![],
            r5_crates: CrateSet::Named(vec![]),
            r5_exempt_files: vec![],
            r6_crates: CrateSet::Named(vec![]),
            exactness: vec![],
            r7_crates: CrateSet::Named(vec![]),
            method_call_skip: vec![],
        }
    }
}

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
    "push",
    "read",
    "run",
    "sum",
    "write",
];

/// The production rule catalogue for this workspace.
pub fn default_config() -> Config {
    Config {
        // Determinism is a workspace-wide invariant, not a per-crate one:
        // the ISSUE floor is {sim, netsim, reliability, bench}, but every
        // crate feeds a figure pipeline eventually.
        r1_crates: CrateSet::All,
        r2_crates: CrateSet::All,
        r2_exempt_files: vec!["crates/sim/src/telemetry.rs"],
        // Panic sites are judged by R7 reachability, not by which file
        // they sit in; the census keeps the crates it was written for.
        census_crates: CrateSet::Named(vec!["core", "link", "fec", "units"]),
        census_extra_files: vec![
            "crates/sim/src/sweep/mod.rs",
            "crates/sim/src/sweep/engine.rs",
            "crates/sim/src/sweep/scheduler.rs",
            "crates/sim/src/faults.rs",
            "crates/sim/src/campaign.rs",
        ],
        registry: vec![
            RegistryFn {
                file: "crates/fec/src/rs.rs",
                func: "decode_scratch",
                harness: Some("crates/fec/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/fec/src/rs.rs",
                func: "decode_with_erasures_scratch",
                harness: Some("crates/fec/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/fec/src/rs.rs",
                func: "try_encode_into",
                harness: Some("crates/fec/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/fec/src/bch.rs",
                func: "decode_scratch",
                harness: Some("crates/fec/tests/alloc_free.rs"),
            },
            // The fused syndrome kernels read host-side tables built at
            // construction; they have no dedicated harness entry (the
            // decode_scratch harness covers them transitively) but the
            // static rule pins their bodies allocation-free.
            RegistryFn {
                file: "crates/fec/src/rs.rs",
                func: "syndromes_into",
                harness: None,
            },
            RegistryFn {
                file: "crates/fec/src/bch.rs",
                func: "syndromes_into",
                harness: None,
            },
            // The bit-sliced Monte-Carlo kernels (slicer, injector,
            // scrambler): runtime-proved by the sim-side counting-allocator
            // harness, statically pinned here.
            // Differential proptests pin values, this rule pins allocs.
            RegistryFn {
                file: "crates/sim/src/montecarlo.rs",
                func: "count_errors",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/sim/src/inject.rs",
                func: "corrupt_words",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/sim/src/inject.rs",
                func: "corrupt_symbols",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/sim/src/inject.rs",
                func: "corrupt_lane",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/link/src/scrambler.rs",
                func: "scramble_word",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/link/src/scrambler.rs",
                func: "descramble_word",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            // Raw-draw RNG primitives the sliced kernels are built on:
            // slab fill of whole ChaCha words, the packed Bernoulli
            // thinning pass and the many-key first draws. All work on
            // caller-provided buffers or the stack.
            RegistryFn {
                file: "crates/sim/src/rng.rs",
                func: "fill_u64",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/sim/src/rng.rs",
                func: "at_most",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/sim/src/rng.rs",
                func: "first_draws",
                harness: Some("crates/sim/tests/alloc_free.rs"),
            },
            // The hyperfleet inner event loops: 10⁶+ links stream through
            // these per shard, so a per-link allocation would dominate the
            // run. Runtime-proved by the netsim counting-allocator harness.
            RegistryFn {
                file: "crates/netsim/src/hyperfleet.rs",
                func: "drain_hard_failures",
                harness: Some("crates/netsim/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/netsim/src/hyperfleet.rs",
                func: "replay_fault_window",
                harness: Some("crates/netsim/tests/alloc_free.rs"),
            },
            // Per-link campaign generation into the shard's reused buffer.
            RegistryFn {
                file: "crates/sim/src/faults.rs",
                func: "generate_into",
                harness: Some("crates/netsim/tests/alloc_free.rs"),
            },
            // The gearbox scratch-reuse pair: every traffic epoch pushes a
            // frame batch through these, so a per-frame allocation would
            // show up once per epoch per run across the whole F19 sweep.
            RegistryFn {
                file: "crates/link/src/gearbox.rs",
                func: "transmit_into",
                harness: Some("crates/link/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/link/src/gearbox.rs",
                func: "receive_into",
                harness: Some("crates/link/tests/alloc_free.rs"),
            },
            // The one stripe loop and the one deskew loop both gearbox
            // directions share, and the frame CRC both run per frame.
            RegistryFn {
                file: "crates/link/src/striping.rs",
                func: "stripe_mapped",
                harness: Some("crates/link/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/link/src/striping.rs",
                func: "deskew_mapped",
                harness: Some("crates/link/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/link/src/framing.rs",
                func: "crc32",
                harness: Some("crates/link/tests/alloc_free.rs"),
            },
            // The traffic harness epoch step: emit, corrupt, deskew, match,
            // and requeue without allocating — cold reconfiguration paths
            // (gearbox rebuild on width reduction, controller transition
            // log growth) live in helper functions outside this body.
            RegistryFn {
                file: "crates/traffic/src/harness.rs",
                func: "step",
                harness: Some("crates/traffic/tests/alloc_free.rs"),
            },
            // The stepped fault core F17 and F19 share (per traffic epoch).
            RegistryFn {
                file: "crates/sim/src/campaign.rs",
                func: "step",
                harness: Some("crates/traffic/tests/alloc_free.rs"),
            },
        ],
        r5_crates: CrateSet::All,
        // rng.rs *defines* stream/substream/substream_indexed — the
        // implementations call each other and `stream` by construction.
        r5_exempt_files: vec!["crates/sim/src/rng.rs"],
        r6_crates: CrateSet::All,
        exactness: exactness_registry(),
        r7_crates: CrateSet::All,
        method_call_skip: METHOD_CALL_SKIP.to_vec(),
    }
}

/// The R6 exactness registry: the sanctioned accumulating parallel
/// folds, every one with an exact-integer accumulator and an
/// integer-rollup proof test.
fn exactness_registry() -> Vec<ExactFold> {
    vec![
        // TrialPlan::sum — u64 accumulator, per-chunk partials summed in
        // task-id order.
        ExactFold {
            file: "crates/sim/src/sweep/scheduler.rs",
            func: "sum",
            proof: "crates/sim/tests/parallel_determinism.rs",
        },
        // The coded-channel Monte-Carlo fold — u64 error/iteration
        // counters merged per worker.
        ExactFold {
            file: "crates/sim/src/montecarlo.rs",
            func: "run_rs_channel_with",
            proof: "crates/sim/tests/parallel_determinism.rs",
        },
        // The checkpointed rollup fold behind the fleet (F18) and traffic
        // (F19) sweeps — ExactRollup::merge over exact-integer fields,
        // batch by batch, thread- and resume-invariant.
        ExactFold {
            file: "crates/sim/src/sweep/scheduler.rs",
            func: "fold_checkpointed",
            proof: "crates/sim/tests/checkpoint.rs",
        },
    ]
}

/// Calls banned inside registry functions: each is a token pattern plus
/// the display name used in diagnostics.
const R4_BANNED: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["String", ":", ":", "new"], "String::new"),
    (&["String", ":", ":", "from"], "String::from"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["to_vec"], "to_vec"),
    (&["collect"], "collect"),
    (&["to_string"], "to_string"),
    (&["format", "!"], "format!"),
    (&["vec", "!"], "vec!"),
];

/// Panicking macros: R7 panic sites beside `unwrap`/`expect`.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The file-local findings of R1, R2 and R4 plus the index census count.
/// Allow-resolution happens later, after the global passes have added
/// their findings for this file.
pub fn local_findings(
    cfg: &Config,
    crate_name: &str,
    rel_path: &str,
    scan: &FileScan,
) -> (Vec<LocalFinding>, u64) {
    let toks = &scan.tokens;
    let mut findings: Vec<LocalFinding> = Vec::new();
    let mut index_notes = 0u64;

    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let sym = |i: usize, c: char| toks.get(i).is_some_and(|t| t.tok == Tok::Sym(c));

    let r2_exempt = cfg.r2_exempt_files.iter().any(|s| rel_path.ends_with(s));
    let census_extra = cfg.census_extra_files.iter().any(|s| rel_path.ends_with(s));

    for i in 0..toks.len() {
        if scan.is_test_code(i) {
            continue;
        }
        let line = toks[i].line;

        // R1: nondeterministic-order collections.
        if cfg.r1_crates.contains(crate_name) {
            if let Some(name @ ("HashMap" | "HashSet")) = ident(i) {
                findings.push(LocalFinding {
                    rule: "R1".into(),
                    line,
                    message: format!(
                        "{name} has nondeterministic iteration order; use BTree{} or a sorted drain",
                        &name[4..]
                    ),
                });
            }
        }

        // R2: wall clock / ambient entropy.
        if cfg.r2_crates.contains(crate_name) && !r2_exempt {
            if let Some(name @ ("Instant" | "SystemTime" | "thread_rng")) = ident(i) {
                let fix = if name == "thread_rng" {
                    "derive a DetRng stream instead"
                } else {
                    "time through mosaic_sim::telemetry (Stopwatch/stage) instead"
                };
                findings.push(LocalFinding {
                    rule: "R2".into(),
                    line,
                    message: format!("{name} outside mosaic_sim::telemetry; {fix}"),
                });
            }
            if ident(i) == Some("rand")
                && sym(i + 1, ':')
                && sym(i + 2, ':')
                && ident(i + 3) == Some("random")
            {
                findings.push(LocalFinding {
                    rule: "R2".into(),
                    line,
                    message:
                        "rand::random draws from ambient entropy; derive a DetRng stream instead"
                            .into(),
                });
            }
        }

        // Index census (advisory): `expr[...]` where the index is not
        // a literal and no `bound:` note is present on this or the
        // previous line.
        if (cfg.census_crates.contains(crate_name) || census_extra) && sym(i, '[') {
            let after_value = matches!(
                toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Ident(_)) | Some(Tok::Sym(')')) | Some(Tok::Sym(']'))
            ) && i > 0
                && ident(i - 1).is_none_or(|s| !is_keyword(s));
            let literal_index =
                matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Num)) && sym(i + 2, ']');
            let noted = scan
                .bound_note_lines
                .iter()
                .any(|&l| l == line || l + 1 == line);
            if after_value && !literal_index && !noted {
                index_notes += 1;
            }
        }
    }

    // R4: no-alloc registry functions defined in this file.
    for entry in cfg.registry.iter().filter(|e| rel_path.ends_with(e.file)) {
        match scan.fn_body(entry.func) {
            None => findings.push(LocalFinding {
                rule: "R4".into(),
                line: 1,
                message: format!(
                    "registry function `{}` not found in non-test code; update the \
                     no-alloc registry in crates/lint/src/rules.rs",
                    entry.func
                ),
            }),
            Some((a, b)) => {
                for i in a..b {
                    for (pat, name) in R4_BANNED {
                        if match_pattern(toks, i, pat) {
                            findings.push(LocalFinding {
                                rule: "R4".into(),
                                line: toks[i].line,
                                message: format!(
                                    "{name} inside no-alloc kernel `{}`; use the scratch buffers",
                                    entry.func
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    (findings, index_notes)
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

fn match_pattern(toks: &[crate::lexer::Token], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, want)| match toks.get(at + k) {
            Some(crate::lexer::Token {
                tok: Tok::Ident(s), ..
            }) => s == want,
            Some(crate::lexer::Token {
                tok: Tok::Sym(c), ..
            }) => want.len() == 1 && want.starts_with(*c),
            _ => false,
        })
}

/// Keywords that can directly precede `[` without forming an index
/// expression (e.g. `return [a, b]`, `in [1, 2]` via idents).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "in"
            | "break"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "move"
            | "mut"
            | "ref"
            | "static"
            | "const"
            | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-file check for the unit tests: local findings only, resolved
    /// against the file's allows.
    fn check_file(
        cfg: &Config,
        crate_name: &str,
        rel_path: &str,
        src: &str,
    ) -> (Vec<Diagnostic>, u64) {
        let scan = FileScan::of(src);
        let (findings, index_notes) = local_findings(cfg, crate_name, rel_path, &scan);
        (
            resolve_allows(&scan.allows, &scan.bad_allows, rel_path, findings),
            index_notes,
        )
    }

    fn cfg_all() -> Config {
        let mut c = Config::empty();
        c.r1_crates = CrateSet::All;
        c.r2_crates = CrateSet::All;
        c.r2_exempt_files = vec!["telemetry.rs"];
        c.census_crates = CrateSet::All;
        c
    }

    fn denies(src: &str) -> Vec<(String, u32)> {
        let (diags, _) = check_file(&cfg_all(), "sim", "crates/sim/src/x.rs", src);
        diags
            .into_iter()
            .filter(|d| d.level == Level::Deny)
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn r1_flags_hash_collections_outside_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod t { use std::collections::HashSet; }";
        assert_eq!(denies(src), vec![("R1".into(), 1)]);
    }

    #[test]
    fn r2_flags_clock_and_entropy() {
        let src = "fn f() { let t = Instant::now(); let r = rand::random::<u8>(); }";
        let rules: Vec<_> = denies(src).into_iter().map(|(r, _)| r).collect();
        assert_eq!(rules, vec!["R2", "R2"]);
    }

    #[test]
    fn r2_exempt_file_passes() {
        let (diags, _) = check_file(
            &cfg_all(),
            "sim",
            "crates/sim/src/telemetry.rs",
            "fn f() { Instant::now(); }",
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn allows_suppress_the_annotated_line_only() {
        let src = "fn f() -> usize {\n    // lint: allow(R1) reason=lookup only\n    HashMap::<u8, u8>::new().len()\n}\nfn g() { let _s = HashSet::<u8>::new(); }";
        let d = denies(src);
        assert_eq!(d, vec![("R1".into(), 5)]);
        let (all, _) = check_file(&cfg_all(), "fec", "x.rs", src);
        assert!(all
            .iter()
            .any(|d| d.level == Level::Allowed && d.line == 3 && d.reason.is_some()));
    }

    #[test]
    fn census_extra_files_extend_scope_beyond_crate_set() {
        let mut cfg = cfg_all();
        cfg.census_crates = CrateSet::Named(vec!["link"]);
        cfg.census_extra_files = vec!["crates/sim/src/sweep.rs"];
        let src = "fn f(a: &[u8], i: usize) -> u8 { a[i] }";
        // `sim` is outside the crate set, but the listed file is covered.
        let (_, notes) = check_file(&cfg, "sim", "crates/sim/src/sweep.rs", src);
        assert_eq!(notes, 1);
        // A sibling sim file stays out of scope.
        let (_, notes) = check_file(&cfg, "sim", "crates/sim/src/optics.rs", src);
        assert_eq!(notes, 0);
    }

    #[test]
    fn stale_and_malformed_allows_are_violations() {
        let src = "// lint: allow(R2) reason=nothing here\nfn f() {}\n// lint: allow(R1)\n";
        let d = denies(src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(r, _)| r == "lint-allow"));
    }

    #[test]
    fn r4_flags_banned_calls_in_registry_fn_only() {
        let mut cfg = cfg_all();
        cfg.registry = vec![RegistryFn {
            file: "hot.rs",
            func: "kernel",
            harness: None,
        }];
        let src = "fn kernel(v: &mut Vec<u8>) { let x: Vec<u8> = v.iter().copied().collect(); }\nfn cold() { let s = format!(\"ok\"); let _ = s; }";
        let (diags, _) = check_file(&cfg, "fec", "src/hot.rs", src);
        let denied: Vec<_> = diags.iter().filter(|d| d.level == Level::Deny).collect();
        assert_eq!(denied.len(), 1);
        assert!(denied[0].message.contains("collect"));
    }

    #[test]
    fn r4_missing_registry_fn_is_a_violation() {
        let mut cfg = cfg_all();
        cfg.registry = vec![RegistryFn {
            file: "hot.rs",
            func: "gone",
            harness: None,
        }];
        let (diags, _) = check_file(&cfg, "fec", "src/hot.rs", "fn present() {}");
        assert!(diags
            .iter()
            .any(|d| d.rule == "R4" && d.message.contains("not found")));
    }

    #[test]
    fn index_census_counts_unnoted_indexing() {
        let src = "fn f(a: &[u8], i: usize) -> u8 {\n    let x = a[i];\n    // bound: i < a.len() checked by caller\n    let y = a[i];\n    let z = a[0];\n    x + y + z\n}";
        let (_, notes) = check_file(&cfg_all(), "fec", "x.rs", src);
        assert_eq!(notes, 1);
    }

    #[test]
    fn attributes_and_array_types_are_not_index_census_hits() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() -> [u8; 2] { [0, 0] }";
        let (_, notes) = check_file(&cfg_all(), "fec", "x.rs", src);
        assert_eq!(notes, 0);
    }

    #[test]
    fn default_catalogue_wires_r5_to_r7() {
        let cfg = default_config();
        assert!(cfg.r5_crates.contains("netsim"));
        assert!(cfg.r7_crates.contains("core"));
        assert!(!cfg.exactness.is_empty());
        assert!(cfg.method_call_skip.contains(&"sum"));
        assert!(cfg.census_crates.contains("core"));
    }
}
