//! Driver-level tests: exit codes, JSON emission, the baseline ratchet,
//! and report diffing of the `mosaic_lint` binary itself.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mosaic_lint"))
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Build a throwaway workspace holding one crate with the given lib.rs.
fn synth_workspace(tag: &str, lib_rs: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("mosaic-lint-cli-{tag}"));
    let src = root.join("crates/synth/src");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(root.join("crates/synth/Cargo.toml"), "[package]\n").expect("toml");
    std::fs::write(src.join("lib.rs"), lib_rs).expect("lib");
    root
}

#[test]
fn exit_zero_on_the_real_workspace() {
    let out = bin()
        .args(["--root"])
        .arg(workspace_root())
        .args(["--quiet"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A library whose fallible entry reaches an unwrap and an unnoted index.
const PANICKING_LIB: &str =
    "pub fn try_f(x: Option<u8>, v: &[u8]) -> Result<u8, ()> {\n    Ok(x.unwrap() ^ v[7 - 1])\n}\n";

#[test]
fn exit_one_on_a_violating_workspace_and_json_reports_it() {
    let root = synth_workspace("violating", PANICKING_LIB);
    let json_path = root.join("lint-report.json");
    let out = bin()
        .args(["--root"])
        .arg(&root)
        .args(["--quiet", "--json-out"])
        .arg(&json_path)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"schema\": \"mosaic-lint-report/v2\""));
    assert!(json.contains("\"rule\": \"R7\""));
    assert!(json.contains("index `v[..]` in `try_f`"));
    assert!(json.contains("\"fingerprint\": \""));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exit_two_on_a_bad_root() {
    let out = bin()
        .args(["--root", "/nonexistent-mosaic-lint-root", "--quiet"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

/// The ratchet: a baseline accepts an identical run, and rejects both a
/// grown allow count (even though the new violation is annotated and the
/// run is otherwise "clean") and any new diagnostic fingerprint.
///
/// The synth workspace carries baked-in denials (the default config's
/// registry cites harness files that don't exist there), so ratchet
/// outcomes are asserted on stderr, not the exit code.
#[test]
fn baseline_ratchet_rejects_new_allows_and_fingerprints() {
    let root = synth_workspace("ratchet", "pub fn f() -> u32 { 1 }\n");
    let baseline = root.join("baseline.json");
    let out = bin()
        .args(["--root"])
        .arg(&root)
        .args(["--quiet", "--write-baseline"])
        .arg(&baseline)
        .output()
        .expect("spawn");
    assert!(baseline.is_file(), "baseline written: {:?}", out.status);

    // Identical run against the baseline: ratchet ok.
    let out = bin()
        .args(["--root"])
        .arg(&root)
        .args(["--baseline"])
        .arg(&baseline)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ratchet ok"), "stderr: {stderr}");

    // An annotated violation grows the allow count; an unannotated one
    // introduces a new fingerprint. The ratchet must flag both.
    std::fs::write(
        root.join("crates/synth/src/lib.rs"),
        "pub fn try_f(x: Option<u8>, v: &[u8]) -> Result<u8, ()> {\n\
         \x20   // lint: allow(R7) reason=testing the ratchet\n\
         \x20   let a = x.unwrap();\n\
         \x20   Ok(a ^ v[usize::from(a)])\n\
         }\n",
    )
    .expect("rewrite lib");
    let out = bin()
        .args(["--root"])
        .arg(&root)
        .args(["--quiet", "--baseline"])
        .arg(&baseline)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("allow count grew"), "stderr: {stderr}");
    assert!(stderr.contains("not in baseline"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A baseline that does not parse is a usage error (exit 2), never a
/// panic: `]` before `[` used to slice the fingerprint list backwards.
#[test]
fn malformed_baseline_exits_two() {
    let root = synth_workspace("bad-baseline", "pub fn f() -> u32 { 1 }\n");
    let baseline = root.join("baseline.json");
    for text in [
        "{\"schema\": \"mosaic-lint-baseline/v1\", \"allowed\": 0, \"fingerprints\": ] [ }",
        "{\"schema\": \"mosaic-lint-baseline/v1\", \"allowed\": 0, \"fingerprints\": [",
    ] {
        std::fs::write(&baseline, text).expect("baseline");
        let out = bin()
            .args(["--root"])
            .arg(&root)
            .args(["--quiet", "--baseline"])
            .arg(&baseline)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{text}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `--diff` compares reports by fingerprint: removing a diagnostic is
/// fine, adding one is a regression.
#[test]
fn report_diff_flags_only_regressions() {
    let root = synth_workspace("diff", PANICKING_LIB);
    let old_json = root.join("old.json");
    let new_json = root.join("new.json");
    let report_to = |json: &Path| {
        bin()
            .args(["--root"])
            .arg(&root)
            .args(["--quiet", "--json-out"])
            .arg(json)
            .output()
            .expect("spawn")
    };
    report_to(&old_json);
    // One fewer violation: diff passes in this direction, fails reversed.
    std::fs::write(
        root.join("crates/synth/src/lib.rs"),
        "pub fn try_f(x: Option<u8>) -> Result<u8, ()> {\n    Ok(x.unwrap())\n}\n",
    )
    .expect("rewrite lib");
    report_to(&new_json);

    let out = bin()
        .args(["--quiet", "--diff"])
        .arg(&old_json)
        .arg(&new_json)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "shrinking is not a regression");
    let out = bin()
        .args(["--diff"])
        .arg(&new_json)
        .arg(&old_json)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "growth is a regression");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("added"), "stdout: {stdout}");

    // A side that is not a report is an error, not an empty report.
    let garbage = root.join("garbage.json");
    std::fs::write(&garbage, "garbage\n").expect("garbage");
    for (old, new) in [(&old_json, &garbage), (&garbage, &old_json)] {
        let out = bin()
            .args(["--quiet", "--diff"])
            .arg(old)
            .arg(new)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{old:?} vs {new:?}");
    }
    // An allow count past i64::MAX is growth, not an overflow panic.
    let huge = root.join("huge.json");
    let text = std::fs::read_to_string(&old_json).expect("old report");
    let at = text.find("\"allowed\": ").expect("summary.allowed") + "\"allowed\": ".len();
    let end = at + text[at..].find(',').expect("comma");
    let text = format!("{}9223372036854775808{}", &text[..at], &text[end..]);
    std::fs::write(&huge, text).expect("huge");
    let out = bin()
        .args(["--quiet", "--diff"])
        .arg(&old_json)
        .arg(&huge)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "allow growth is a regression");
    let _ = std::fs::remove_dir_all(&root);
}

/// CI's first `--diff` after the index census left the report compares
/// against a report that still carries its `index_notes` summary count
/// and per-file map. That report must read as the old side (exit 0 or 1,
/// never 2), and the findings both runs share must not count as added.
#[test]
fn report_diff_reads_a_report_with_retired_fields() {
    // The workspace `legacy_report_v2.json` was written from.
    let root = synth_workspace(
        "legacy-diff",
        "pub fn forward(seed: u64, label: &str) -> DetRng {\n\
         \x20   // lint: allow(R5) reason=forwards the caller's label\n\
         \x20   DetRng::substream(seed, label)\n\
         }\n",
    );
    let core = root.join("crates/core/src");
    std::fs::create_dir_all(&core).expect("mkdir");
    std::fs::write(root.join("crates/core/Cargo.toml"), "[package]\n").expect("toml");
    std::fs::write(
        core.join("lib.rs"),
        "pub fn pick(a: &[u8], i: usize) -> u8 {\n    a[i]\n}\n",
    )
    .expect("lib");
    let new_json = root.join("new.json");
    bin()
        .args(["--root"])
        .arg(&root)
        .args(["--quiet", "--json-out"])
        .arg(&new_json)
        .output()
        .expect("spawn");
    let old_json =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_report_v2.json");
    let out = bin()
        .args(["--diff"])
        .arg(&old_json)
        .arg(&new_json)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_ne!(out.status.code(), Some(2), "unreadable: {stdout}");
    assert!(stdout.contains("allow delta +0"), "stdout: {stdout}");
    assert!(!stdout.contains("+ d03c87c7bebb4db1"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&root);
}
