//! Fixture tests for the lint engine: every rule has a passing and a
//! violating fixture under `tests/fixtures/`. Violating fixtures pin
//! their full JSON report as `expected.json` golden files; regenerate
//! with `MOSAIC_LINT_BLESS=1 cargo test -p mosaic_lint --test
//! fixtures_test` after an intentional engine change and review the
//! diff.

use mosaic_lint::report::Report;
use mosaic_lint::rules::{Config, ExactFold, RegistryFn};
use std::path::{Path, PathBuf};

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Run the full engine — global passes included, every rule on — over
/// one fixture; paths in the report are relative to the fixture root
/// (`src/lib.rs`), so goldens are machine-independent. A fixture picks
/// the rule it exercises by the registry its config fills (R4, R6) or by
/// its content (R5, R7, lint-allow).
fn lint_fixture(name: &str, cfg: &Config) -> Report {
    let root = fixture_dir(name);
    mosaic_lint::lint_src_dir(cfg, &root, &root.join("src")).expect("fixture readable")
}

fn r4_registry() -> Config {
    Config {
        registry: vec![RegistryFn {
            file: "src/lib.rs",
            func: "kernel",
            harness: None,
        }],
        ..Config::default()
    }
}

fn r6_registry(proof: &'static str) -> Config {
    Config {
        exactness: vec![ExactFold {
            file: "src/lib.rs",
            func: "rollup",
            proof,
        }],
        ..Config::default()
    }
}

/// Compare a violating fixture's report against its pinned golden.
fn assert_matches_golden(name: &str, report: &Report) {
    let golden_path = fixture_dir(name).join("expected.json");
    let got = report.to_json();
    if std::env::var_os("MOSAIC_LINT_BLESS").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
    assert_eq!(
        got, want,
        "fixture {name} diverged from its golden; if the engine change is \
         intentional, re-bless with MOSAIC_LINT_BLESS=1 and review the diff"
    );
}

#[test]
fn r4_pass_is_clean() {
    let r = lint_fixture("r4_pass", &r4_registry());
    assert_eq!(r.deny_count(), 0, "unexpected: {}", r.to_table());
}

#[test]
fn r4_fail_pins_diagnostics() {
    let r = lint_fixture("r4_fail", &r4_registry());
    assert_eq!(r.deny_count(), 2, "collect + to_vec: {}", r.to_table());
    assert!(r.diagnostics.iter().all(|d| d.rule == "R4"));
    assert_matches_golden("r4_fail", &r);
}

#[test]
fn r4_renamed_kernel_is_a_violation() {
    let mut cfg = r4_registry();
    cfg.registry[0].func = "kernel_renamed";
    let r = lint_fixture("r4_pass", &cfg);
    assert_eq!(r.deny_count(), 1);
    assert!(r.diagnostics[0].message.contains("not found"));
}

#[test]
fn r5_pass_is_clean_with_one_allowed_forwarder() {
    let r = lint_fixture("r5_pass", &Config::default());
    assert_eq!(r.deny_count(), 0, "unexpected: {}", r.to_table());
    assert_eq!(r.allowed_count(), 1, "the annotated label forwarder");
    assert_eq!(r.allows_by_rule().get("R5"), Some(&1));
}

#[test]
fn r5_fail_pins_diagnostics() {
    let r = lint_fixture("r5_fail", &Config::default());
    assert_eq!(
        r.deny_count(),
        7,
        "2 dup sites, non-literal, raw stream, capture, 2 family dup sites: {}",
        r.to_table()
    );
    assert!(r.diagnostics.iter().all(|d| d.rule == "R5"));
    assert!(r.diagnostics.iter().any(|d| d
        .message
        .contains("duplicate DetRng::substream label \"dup\"")));
    // The hoisted-label family collides with the indexed constructor.
    let family_dups = r
        .diagnostics
        .iter()
        .filter(|d| {
            d.message
                .contains("duplicate DetRng::substream_indexed label \"fam\"")
        })
        .count();
    assert_eq!(family_dups, 2, "{}", r.to_table());
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.message.contains("captured by a closure")));
    assert_matches_golden("r5_fail", &r);
}

#[test]
fn r6_pass_is_clean_and_records_the_registered_fold() {
    let r = lint_fixture("r6_pass", &r6_registry("proof.rs"));
    assert_eq!(r.deny_count(), 0, "unexpected: {}", r.to_table());
    assert_eq!(r.allowed_count(), 0);
}

#[test]
fn r6_fail_pins_diagnostics() {
    // The fixture has no `rollup`, so the registry entry is stale and the
    // hygiene checks fire alongside the float-accumulation findings.
    let r = lint_fixture("r6_fail", &r6_registry("missing_proof.rs"));
    assert!(r.diagnostics.iter().all(|d| d.rule == "R6"));
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.message.contains("inside parallel fold")),
        "{}",
        r.to_table()
    );
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.message.contains("no parallel-fold accumulation site")));
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.message.contains("missing or never mentions")));
    assert_matches_golden("r6_fail", &r);
}

#[test]
fn r7_pass_accepts_the_unreachable_panicking_wrapper() {
    let r = lint_fixture("r7_pass", &Config::default());
    assert_eq!(r.deny_count(), 0, "unexpected: {}", r.to_table());
    assert_eq!(r.allowed_count(), 0, "no annotations needed under R7");
    assert_eq!(r.symbols.entry_points, 1, "try_new");
}

#[test]
fn r7_fail_pins_diagnostics() {
    let r = lint_fixture("r7_fail", &Config::default());
    assert_eq!(
        r.deny_count(),
        3,
        "unwrap in step, panic! in inner, table[i] in lookup: {}",
        r.to_table()
    );
    assert!(r.diagnostics.iter().all(|d| d.rule == "R7"));
    assert!(r.diagnostics.iter().all(|d| d
        .message
        .contains("reachable from fallible entry `try_run`")));
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.line == 25 && d.message.starts_with("index `table[..]` in `lookup`")));
    assert_matches_golden("r7_fail", &r);
}

#[test]
fn lexer_pass_has_no_false_positives() {
    let r = lint_fixture("lexer_pass", &Config::default());
    assert_eq!(r.deny_count(), 0, "unexpected: {}", r.to_table());
    assert_eq!(r.allowed_count(), 0);
    assert_eq!(r.symbols.entry_points, 5, "every fn is a try_* entry");
}

#[test]
fn lexer_fail_still_sees_violations_after_tricky_tokens() {
    let r = lint_fixture("lexer_fail", &Config::default());
    assert_eq!(
        r.deny_count(),
        4,
        "unwrap + index after the raw string, and after the nested comment: {}",
        r.to_table()
    );
    let sites: Vec<(u32, &str)> = r
        .diagnostics
        .iter()
        .map(|d| (d.line, d.message.split(" in `").next().unwrap_or_default()))
        .collect();
    assert_eq!(
        sites,
        vec![
            (8, "index `v[..]`"),
            (8, "unwrap()"),
            (14, "index `v[..]`"),
            (14, "unwrap()"),
        ]
    );
    assert!(r.diagnostics.iter().all(|d| d.rule == "R7"));
    assert_matches_golden("lexer_fail", &r);
}

#[test]
fn stale_and_malformed_allows_pin_diagnostics() {
    let r = lint_fixture("allow_fail", &Config::default());
    assert_eq!(r.deny_count(), 2, "stale + malformed: {}", r.to_table());
    assert!(r.diagnostics.iter().all(|d| d.rule == "lint-allow"));
    assert_matches_golden("allow_fail", &r);
}
