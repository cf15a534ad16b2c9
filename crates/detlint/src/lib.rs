#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `detlint` — the ethmeter workspace determinism lint.
//!
//! Every result this workspace reports is required to be a pure function
//! of `(scenario, seed)`: golden fingerprints, bit-identical parallel
//! sweeps, and merge-order-independent metric collectors all assume it.
//! This crate machine-checks the coding rules behind that invariant
//! instead of leaving them to review-by-eye. See `DETERMINISM.md` at the
//! repository root for the full policy.
//!
//! The scanner is dependency-free: a small hand-rolled lexer
//! ([`lexer`]) blanks comments and string literals out of each source
//! file, and the rule engine ([`rules`]) pattern-matches the remaining
//! code view. That makes the rules heuristics, not proofs — they are
//! tuned to catch the hazard classes that have actually bitten
//! simulation studies (seeded-hasher iteration order, wall-clock reads)
//! with near-zero false positives on this tree. Anything the heuristics
//! misjudge is suppressed with a `detlint::allow` pragma that must carry
//! a written reason.

pub mod lexer;
pub mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::{check_files, AllowedSite, FileCtx, FileKind, Finding, RuleId};

/// Schema identifier stamped into `--format json` output.
pub const JSON_SCHEMA: &str = "ethmeter-detlint/v1";

/// A diagnostic attributed to a file.
#[derive(Debug, Clone)]
pub struct FileFinding {
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// The underlying finding.
    pub finding: Finding,
}

/// A pragma-suppressed diagnostic attributed to a file.
#[derive(Debug, Clone)]
pub struct FileAllowed {
    /// Path relative to the scan root, `/`-separated.
    pub file: String,
    /// The suppressed site with its written reason.
    pub allowed: AllowedSite,
}

/// Result of scanning a workspace tree.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Scan root, as given.
    pub root: String,
    /// Number of `.rs` files checked.
    pub files_scanned: usize,
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<FileFinding>,
    /// Pragma-suppressed sites, sorted the same way.
    pub allowed: Vec<FileAllowed>,
}

impl Report {
    /// True when the tree is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Classifies a workspace-relative `.rs` path into the context the rules
/// need. Returns `None` for files detlint does not police (fixture
/// corpora, generated trees).
pub fn classify(rel: &str) -> Option<FileCtx> {
    let segs: Vec<&str> = rel.split('/').collect();
    if segs
        .iter()
        .any(|s| *s == "fixtures" || *s == "target" || s.starts_with('.'))
    {
        return None;
    }
    let crate_name = match segs.first() {
        Some(&"crates") if segs.len() > 1 => segs[1].to_string(),
        _ => "ethmeter".to_string(),
    };
    let kind = if segs.contains(&"tests") {
        FileKind::Test
    } else if segs.contains(&"benches") {
        FileKind::Bench
    } else if segs.contains(&"examples") {
        FileKind::Example
    } else {
        FileKind::Source
    };
    let n = segs.len();
    let is_crate_root = n >= 2 && segs[n - 2] == "src" && segs[n - 1] == "lib.rs";
    Some(FileCtx {
        crate_name,
        kind,
        is_crate_root,
    })
}

/// Recursively collects workspace `.rs` files under `root`, skipping
/// build output, VCS metadata, and detlint's own fixture corpus. The
/// returned paths are sorted so reports are byte-stable.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every workspace `.rs` file under `root` and returns the report.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let Some(ctx) = classify(&rel) else { continue };
        files.push((rel, ctx, std::fs::read_to_string(&path)?));
    }
    let inputs: Vec<(FileCtx, &str)> = files
        .iter()
        .map(|(_, ctx, source)| (ctx.clone(), source.as_str()))
        .collect();
    let mut report = Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        ..Report::default()
    };
    for ((rel, _, _), outcome) in files.iter().zip(check_files(&inputs)) {
        for finding in outcome.findings {
            report.diagnostics.push(FileFinding {
                file: rel.clone(),
                finding,
            });
        }
        for allowed in outcome.allowed {
            report.allowed.push(FileAllowed {
                file: rel.clone(),
                allowed,
            });
        }
    }
    report.diagnostics.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.rule).cmp(&(&b.file, b.finding.line, b.finding.rule))
    });
    report.allowed.sort_by(|a, b| {
        (&a.file, a.allowed.line, a.allowed.rule).cmp(&(&b.file, b.allowed.line, b.allowed.rule))
    });
    Ok(report)
}

/// Renders the human-readable report: one `file:line: rule-id: message`
/// line per diagnostic, then a summary.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(
            out,
            "{}:{}: {}: {}",
            d.file,
            d.finding.line,
            d.finding.rule.id(),
            d.finding.message
        );
    }
    let _ = writeln!(
        out,
        "detlint: {} file(s) scanned, {} violation(s), {} allowed site(s)",
        report.files_scanned,
        report.diagnostics.len(),
        report.allowed.len()
    );
    out
}

/// Escapes a string for inclusion in JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report (schema [`JSON_SCHEMA`]).
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{}\",\"root\":\"{}\",\"files_scanned\":{},\"diagnostics\":[",
        JSON_SCHEMA,
        json_escape(&report.root),
        report.files_scanned
    );
    for (i, d) in report.diagnostics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            json_escape(&d.file),
            d.finding.line,
            d.finding.rule.id(),
            json_escape(&d.finding.message)
        );
    }
    let _ = write!(out, "],\"allowed\":[");
    for (i, a) in report.allowed.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"reason\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            json_escape(&a.file),
            a.allowed.line,
            a.allowed.rule.id(),
            json_escape(&a.allowed.reason)
        );
    }
    let _ = writeln!(out, "]}}");
    out
}

/// Renders the rule catalog (`detlint rules`).
pub fn render_rules() -> String {
    let mut out = String::new();
    for rule in RuleId::all() {
        let _ = writeln!(out, "{:<16} {}", rule.id(), rule.describe());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_contexts() {
        let ctx = classify("crates/net/src/headerview.rs").unwrap();
        assert_eq!(ctx.crate_name, "net");
        assert_eq!(ctx.kind, FileKind::Source);
        assert!(!ctx.is_crate_root);

        let ctx = classify("crates/sim/src/lib.rs").unwrap();
        assert!(ctx.is_crate_root);

        let ctx = classify("tests/golden.rs").unwrap();
        assert_eq!(ctx.crate_name, "ethmeter");
        assert_eq!(ctx.kind, FileKind::Test);

        let ctx = classify("crates/bench/benches/gossip.rs").unwrap();
        assert_eq!(ctx.kind, FileKind::Bench);

        assert!(classify("crates/detlint/tests/fixtures/r1_bad.rs").is_none());
        assert!(classify("target/debug/build/foo.rs").is_none());
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_report_shape_is_stable() {
        let report = Report {
            root: "/w".into(),
            files_scanned: 1,
            diagnostics: vec![FileFinding {
                file: "a.rs".into(),
                finding: Finding {
                    line: 3,
                    rule: RuleId::Entropy,
                    message: "m".into(),
                },
            }],
            allowed: vec![],
        };
        let json = render_json(&report);
        assert!(json.starts_with("{\"schema\":\"ethmeter-detlint/v1\""));
        assert!(json.contains("\"rule\":\"entropy\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.trim_end().ends_with("\"allowed\":[]}"));
    }
}
