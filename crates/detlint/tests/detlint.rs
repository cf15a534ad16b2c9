//! Fixture-corpus and live-workspace tests for the determinism lint.
//!
//! Each fixture under `tests/fixtures/` is a known-bad or known-good
//! snippet for one rule; the corpus pins both that violations are caught
//! and that the idiomatic fixes pass. The final test holds the real
//! workspace to the policy: it must stay lint-clean, with every pragma
//! justified.

use std::path::Path;

use ethmeter_detlint::rules::{check_files, FileCtx, FileKind, FileOutcome, RuleId};
use ethmeter_detlint::{render_json, scan_workspace};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

fn ctx(kind: FileKind, is_crate_root: bool) -> FileCtx {
    FileCtx {
        crate_name: "net".into(),
        kind,
        is_crate_root,
    }
}

/// Runs one fixture as non-test source on a sim-path crate.
fn check_fixture(name: &str, is_crate_root: bool) -> FileOutcome {
    check_files(&[(ctx(FileKind::Source, is_crate_root), &fixture(name))]).remove(0)
}

/// Runs an R6 fixture as library source next to an example that calls
/// `entry` and an integration test that calls every other item.
fn check_r6_fixture(name: &str) -> FileOutcome {
    let example = "fn main() { let _ = entry(); }\n";
    let test = "fn t() { only_tests_read_me(); unread_const_fn(); kept_for_later(); }\n";
    check_files(&[
        (ctx(FileKind::Source, false), &fixture(name)),
        (ctx(FileKind::Example, false), example),
        (ctx(FileKind::Test, false), test),
    ])
    .remove(0)
}

fn lines_of(out: &FileOutcome, rule: RuleId) -> Vec<usize> {
    out.findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn r1_bad_flags_every_default_hasher_site() {
    let out = check_fixture("r1_bad.rs", false);
    assert_eq!(lines_of(&out, RuleId::DefaultHasher), vec![5, 9, 12]);
    assert_eq!(out.findings.len(), 3, "{:?}", out.findings);
}

#[test]
fn r1_good_passes() {
    let out = check_fixture("r1_good.rs", false);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn r2_bad_flags_order_leaking_iteration() {
    let out = check_fixture("r2_bad.rs", false);
    assert_eq!(lines_of(&out, RuleId::UnorderedIter), vec![11]);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
}

#[test]
fn r2_good_passes_sorted_and_commutative_uses() {
    let out = check_fixture("r2_good.rs", false);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn r3_bad_flags_each_entropy_line() {
    let out = check_fixture("r3_bad.rs", false);
    assert_eq!(lines_of(&out, RuleId::Entropy), vec![4, 5, 6]);
    assert_eq!(out.findings.len(), 3, "{:?}", out.findings);
}

#[test]
fn r3_good_passes_with_entropy_only_in_comments() {
    let out = check_fixture("r3_good.rs", false);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn r4_bad_crate_root_misses_header() {
    let out = check_fixture("r4_bad.rs", true);
    assert_eq!(lines_of(&out, RuleId::CrateHygiene), vec![1]);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
}

#[test]
fn r4_good_crate_root_passes() {
    let out = check_fixture("r4_good.rs", true);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn r4_is_not_applied_to_non_roots() {
    let out = check_fixture("r4_bad.rs", false);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn r6_bad_flags_pub_items_only_tests_read() {
    let out = check_r6_fixture("r6_bad.rs");
    assert_eq!(lines_of(&out, RuleId::UnreadPub), vec![3, 7, 9]);
    assert_eq!(out.findings.len(), 3, "{:?}", out.findings);
}

#[test]
fn r6_good_passes_read_restricted_and_pragma_kept_items() {
    let out = check_r6_fixture("r6_good.rs");
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.allowed.len(), 1, "{:?}", out.allowed);
    assert_eq!(out.allowed[0].rule, RuleId::UnreadPub);
}

#[test]
fn pragmas_suppress_in_both_placements_and_keep_their_reasons() {
    let out = check_fixture("pragma_ok.rs", false);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.allowed.len(), 2, "{:?}", out.allowed);
    assert!(out.allowed.iter().all(|a| a.rule == RuleId::DefaultHasher));
    assert!(out.allowed.iter().all(|a| !a.reason.trim().is_empty()));
    // The line-above reason survives with its parentheses and commas.
    assert!(out.allowed[0].reason.contains("(with parens)"));
}

#[test]
fn malformed_pragmas_do_not_suppress_and_are_reported() {
    let out = check_fixture("pragma_bad.rs", false);
    assert_eq!(lines_of(&out, RuleId::BadPragma), vec![5, 11]);
    // The reasonless pragma must NOT silence the violation it sits on.
    assert_eq!(lines_of(&out, RuleId::DefaultHasher), vec![6]);
    assert!(out.allowed.is_empty(), "{:?}", out.allowed);
}

#[test]
fn stale_pragmas_are_flagged_as_unused() {
    let out = check_fixture("pragma_unused.rs", false);
    assert_eq!(lines_of(&out, RuleId::UnusedPragma), vec![3]);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
}

#[test]
fn live_workspace_is_lint_clean_with_justified_pragmas() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = scan_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {report:?}"
    );
    let rendered: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}: {}", d.file, d.finding.line, d.finding.rule.id()))
        .collect();
    assert!(
        report.is_clean(),
        "workspace has determinism violations:\n{}",
        rendered.join("\n")
    );
    assert!(
        !report.allowed.is_empty(),
        "expected justified pragma sites"
    );
    for a in &report.allowed {
        assert!(
            !a.allowed.reason.trim().is_empty(),
            "pragma without reason at {}:{}",
            a.file,
            a.allowed.line
        );
    }
    let json = render_json(&report);
    assert!(json.starts_with("{\"schema\":\"ethmeter-detlint/v1\""));
    assert!(json.contains("\"diagnostics\":[]"));
}
