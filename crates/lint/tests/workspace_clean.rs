//! Self-test: the workspace at HEAD must be lint-clean under the built-in
//! rule scopes, so a regression (a stray float, an un-annotated unwrap, an
//! unregistered counter, a registry package in `Cargo.lock`) fails `cargo
//! test` locally — not just the CI gate.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = defender_lint::lint(&root).expect("lint run succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "walker found the workspace");
    // Every potential panic site in scope is annotated (or it would have
    // been a finding above); the counts agree by construction.
    assert_eq!(report.panic.sites, report.panic.annotated);
    // Same for the item-aware pass: every gated site on the exact path
    // carries a written reason, and the exact-path closure really covers
    // the rational kernel (a regression that empties it would silently
    // stop gating anything).
    assert_eq!(report.panic2.sites_exact, report.panic2.annotated);
    assert!(report.exact_fns > 50, "exact-path closure found the kernel");
    let text = report.render_text();
    assert!(text.contains("exact path:"), "summary has the v2 line");
}
