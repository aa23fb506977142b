//! `bench-report check` against a hostile manifest: a megabyte of `[` is
//! a parse error (exit code 2), not a stack overflow that aborts the
//! process.

use std::process::Command;

#[test]
fn deeply_nested_manifest_is_a_parse_error() {
    let dir = std::env::temp_dir().join(format!("mosaic-bench-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("nested.json");
    std::fs::write(&manifest, "[".repeat(1 << 20)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .arg("check")
        .arg(&manifest)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot parse"), "stderr: {stderr}");
    assert!(stderr.contains("nested too deeply"), "stderr: {stderr}");
    assert!(!stderr.contains("overflow"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
