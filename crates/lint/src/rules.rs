//! The rule catalogue. R4 is a token-pattern check over the bodies of
//! the registered kernels; R5–R7 are interprocedural (see
//! `symbols`/`callgraph`) and configured here. Every rule runs on every
//! crate of the workspace. (R1 and R2 — no `HashMap`/`HashSet`, no wall
//! clock or ambient entropy — are enforced by `clippy.toml`'s disallowed
//! lists, which see tests, macro expansions and `vendor/` too; R3, a
//! file-list panic scope, was superseded by R7. Neither number is
//! reused.)
//!
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
//! * **R7 — panic reachability**: panic sites (`unwrap`/`expect`, the
//!   [`PANIC_MACROS`], and index expressions `v[i]` whose index is not a
//!   literal and carries no `// bound:` note) reachable from `pub`
//!   `try_*` entry points are denied wherever they live.

use crate::lexer::Tok;
use crate::report::{Diagnostic, Level};
use crate::scan::{Allow, BadAllow, FileScan};
use crate::symbols::LocalFinding;

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

/// Engine configuration: the registries. `Config::default()` is the
/// empty catalogue fixture tests fill one registry of.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// The R4 no-alloc registry.
    pub registry: Vec<RegistryFn>,
    /// Path suffixes exempt from R5 — the module *defining* the stream
    /// primitives derives streams by construction.
    pub r5_exempt_files: Vec<&'static str>,
    /// The R6 exactness registry.
    pub exactness: Vec<ExactFold>,
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
    "parse",
    "push",
    "read",
    "run",
    "sum",
    "write",
];

/// The production rule catalogue for this workspace.
pub fn default_config() -> Config {
    Config {
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
            // The shared decoder core: the fused syndrome kernel reads
            // host-side tables built at construction, and `locate` runs
            // Berlekamp-Massey and the Chien search on scratch. Neither has
            // a dedicated harness entry (the decode_scratch harness covers
            // both through its calls) but the static rule pins their
            // bodies allocation-free.
            RegistryFn {
                file: "crates/fec/src/decode.rs",
                func: "syndromes_into",
                harness: None,
            },
            RegistryFn {
                file: "crates/fec/src/decode.rs",
                func: "locate",
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
            // The degrade controller's per-epoch pair: every fault window
            // F17–F19 replay records each channel and steps once an epoch.
            RegistryFn {
                file: "crates/link/src/lanes.rs",
                func: "record",
                harness: Some("crates/link/tests/alloc_free.rs"),
            },
            RegistryFn {
                file: "crates/link/src/degrade.rs",
                func: "step",
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
            // The payload pattern every offered frame is written with.
            RegistryFn {
                file: "crates/traffic/src/workload.rs",
                func: "payload_into",
                harness: Some("crates/traffic/tests/alloc_free.rs"),
            },
        ],
        // rng.rs *defines* stream/substream/substream_indexed — the
        // implementations call each other and `stream` by construction.
        r5_exempt_files: vec!["crates/sim/src/rng.rs"],
        exactness: exactness_registry(),
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

/// Panicking macros: R7 panic sites beside `unwrap`/`expect` and
/// unnoted index expressions.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The file-local findings of R4. Allow-resolution happens later, after
/// the global passes have added their findings for this file.
pub fn local_findings(cfg: &Config, rel_path: &str, scan: &FileScan) -> Vec<LocalFinding> {
    let toks = &scan.tokens;
    let mut findings: Vec<LocalFinding> = Vec::new();

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-file check for the unit tests: local findings only, resolved
    /// against the file's allows.
    fn check_file(cfg: &Config, rel_path: &str, src: &str) -> Vec<Diagnostic> {
        let scan = FileScan::of(src);
        let findings = local_findings(cfg, rel_path, &scan);
        resolve_allows(&scan.allows, &scan.bad_allows, rel_path, findings)
    }

    fn kernel_cfg(func: &'static str) -> Config {
        Config {
            registry: vec![RegistryFn {
                file: "hot.rs",
                func,
                harness: None,
            }],
            ..Config::default()
        }
    }

    fn denies(cfg: &Config, src: &str) -> Vec<(String, u32)> {
        check_file(cfg, "src/hot.rs", src)
            .into_iter()
            .filter(|d| d.level == Level::Deny)
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn allows_suppress_the_annotated_line_only() {
        let src =
            "fn kernel(v: &[u8]) -> usize {\n    // lint: allow(R4) reason=cold error path\n    \
                   let a = v.to_vec();\n    let b = v.to_vec();\n    a.len() + b.len()\n}";
        let cfg = kernel_cfg("kernel");
        assert_eq!(denies(&cfg, src), vec![("R4".into(), 4)]);
        let all = check_file(&cfg, "src/hot.rs", src);
        assert!(all
            .iter()
            .any(|d| d.level == Level::Allowed && d.line == 3 && d.reason.is_some()));
    }

    #[test]
    fn stale_and_malformed_allows_are_violations() {
        let src = "// lint: allow(R7) reason=nothing here\nfn f() {}\n// lint: allow(R5)\n";
        let d = denies(&Config::default(), src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|(r, _)| r == "lint-allow"));
    }

    #[test]
    fn r4_flags_banned_calls_in_registry_fn_only() {
        let src = "fn kernel(v: &mut Vec<u8>) { let x: Vec<u8> = v.iter().copied().collect(); }\nfn cold() { let s = format!(\"ok\"); let _ = s; }";
        let diags = check_file(&kernel_cfg("kernel"), "src/hot.rs", src);
        let denied: Vec<_> = diags.iter().filter(|d| d.level == Level::Deny).collect();
        assert_eq!(denied.len(), 1);
        assert!(denied[0].message.contains("collect"));
    }

    #[test]
    fn r4_missing_registry_fn_is_a_violation() {
        let diags = check_file(&kernel_cfg("gone"), "src/hot.rs", "fn present() {}");
        assert!(diags
            .iter()
            .any(|d| d.rule == "R4" && d.message.contains("not found")));
    }

    #[test]
    fn default_catalogue_fills_every_registry() {
        let cfg = default_config();
        assert!(!cfg.registry.is_empty());
        assert_eq!(cfg.r5_exempt_files, vec!["crates/sim/src/rng.rs"]);
        assert!(!cfg.exactness.is_empty());
        assert!(METHOD_CALL_SKIP.contains(&"sum"));
    }
}
