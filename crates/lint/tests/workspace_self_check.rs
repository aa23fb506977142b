//! The workspace must pass its own lint: zero unannotated violations
//! under the kernel markers the workspace carries. This is the same invocation CI
//! runs (`cargo run -p mosaic_lint`), kept as a test so `cargo test -q`
//! alone catches regressions.

use std::path::Path;

#[test]
fn workspace_has_zero_unannotated_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = mosaic_lint::lint_workspace(&root).expect("workspace readable");
    assert_eq!(
        report.deny_count(),
        0,
        "workspace lint violations:\n{}",
        report.to_table()
    );
    // The escape-hatch ledger: annotated allows exist (the R4 cold
    // error path in try_encode_into and four R5 label forwarders) and
    // every one carries a reason.
    assert!(report.allowed_count() > 0);
    assert!(report
        .diagnostics
        .iter()
        .filter(|d| d.level == mosaic_lint::report::Level::Allowed)
        .all(|d| d.reason.as_deref().is_some_and(|r| !r.is_empty())));
}

#[test]
fn registry_cross_check_is_active() {
    // The fec scratch kernels must keep citing the counting-allocator
    // harness in their markers, so the two-way drift check has teeth.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = mosaic_lint::lint_workspace(&root).expect("workspace readable");
    let fec_with_harness = report
        .registry
        .iter()
        .filter(|(file, _, harness)| {
            file.starts_with("crates/fec/")
                && harness.as_deref() == Some("crates/fec/tests/alloc_free.rs")
        })
        .count();
    assert!(fec_with_harness >= 4, "rs×3 + bch×1 at minimum");
}
