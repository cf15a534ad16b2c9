//! The determinism rule catalog and the per-file checking engine.
//!
//! Rules operate on the lexer's blanked *code view*, so comments and
//! string literals can never trip them. Every rule reports
//! `file:line: rule-id: message` positions; suppression is only possible
//! through an allow pragma carrying a written reason (see
//! [`crate::lexer::Pragma`]), and a pragma that suppresses nothing is
//! itself a diagnostic — allow-lists must not rot.

use std::collections::BTreeMap;

use crate::lexer::{lex, CodeView};

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// R1: default-`RandomState` `HashMap`/`HashSet` on a sim-path crate.
    DefaultHasher,
    /// R2: unordered iteration over a hash-based map/set whose result is
    /// neither sorted nor folded commutatively.
    UnorderedIter,
    /// R3: wall-clock or OS entropy on the simulation path.
    Entropy,
    /// R4: crate roots must carry the workspace lint header.
    CrateHygiene,
    /// R6: a `pub fn`/`pub const` that no non-test code reads. (R5 is
    /// reserved.)
    UnreadPub,
    /// A pragma that did not parse, named an unknown rule, or lacked a
    /// reason.
    BadPragma,
    /// A well-formed pragma that suppressed nothing.
    UnusedPragma,
}

impl RuleId {
    /// The stable string id used in diagnostics, pragmas, and JSON.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::DefaultHasher => "default-hasher",
            RuleId::UnorderedIter => "unordered-iter",
            RuleId::Entropy => "entropy",
            RuleId::CrateHygiene => "crate-hygiene",
            RuleId::UnreadPub => "unread-pub",
            RuleId::BadPragma => "bad-pragma",
            RuleId::UnusedPragma => "unused-pragma",
        }
    }

    /// Parses a pragma rule id. Only the policy rules can be allowed;
    /// the pragma-hygiene rules cannot suppress themselves.
    pub fn from_pragma_id(id: &str) -> Option<RuleId> {
        match id {
            "default-hasher" => Some(RuleId::DefaultHasher),
            "unordered-iter" => Some(RuleId::UnorderedIter),
            "entropy" => Some(RuleId::Entropy),
            "crate-hygiene" => Some(RuleId::CrateHygiene),
            "unread-pub" => Some(RuleId::UnreadPub),
            _ => None,
        }
    }

    /// Every rule, for `detlint rules` and the docs.
    pub fn all() -> &'static [RuleId] {
        &[
            RuleId::DefaultHasher,
            RuleId::UnorderedIter,
            RuleId::Entropy,
            RuleId::CrateHygiene,
            RuleId::UnreadPub,
            RuleId::BadPragma,
            RuleId::UnusedPragma,
        ]
    }

    /// One-line description for the rule catalog.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::DefaultHasher => {
                "sim-path crates must not build default-hasher HashMap/HashSet \
                 (RandomState seeds differ per process); use FxHashMap/FxHashSet, \
                 BTreeMap, or an explicit hasher"
            }
            RuleId::UnorderedIter => {
                "iteration over a hash-based map/set must be sorted or folded \
                 commutatively before it can influence output"
            }
            RuleId::Entropy => {
                "no wall-clock or OS entropy (Instant::now, SystemTime, thread_rng, \
                 rand::random, std::env) outside the bench crate"
            }
            RuleId::CrateHygiene => {
                "crate roots must carry #![forbid(unsafe_code)] and #![warn(missing_docs)]"
            }
            RuleId::UnreadPub => {
                "a pub fn or pub const must be read by non-test code (sources, examples, \
                 benches) other than its definition"
            }
            RuleId::BadPragma => "allow pragmas must name a known rule and carry a reason",
            RuleId::UnusedPragma => "allow pragmas that suppress nothing must be removed",
        }
    }
}

/// Crates whose code feeds simulation results: R1/R2 apply here.
pub const SIM_PATH_CRATES: &[&str] = &[
    "types", "net", "chain", "core", "sim", "txpool", "mining", "geo", "workload", "stats",
    "analysis", "measure",
];

/// Crates allowed to read clocks/entropy/environment: the `repro` CLI in
/// `crates/bench` reads its arguments through `std::env::args`.
pub const ENTROPY_EXEMPT_CRATES: &[&str] = &["bench"];

/// What kind of file is being checked (derived from its path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source: all rules apply.
    Source,
    /// Under a `tests/` directory: R1–R3 do not apply.
    Test,
    /// Under a `benches/` directory: R1–R3 do not apply.
    Bench,
    /// Under an `examples/` directory: R1–R3 do not apply.
    Example,
}

/// Per-file context the rules need.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Short crate directory name (`net`, `chain`, `ethmeter` for the
    /// facade, ...).
    pub crate_name: String,
    /// Path-derived kind.
    pub kind: FileKind,
    /// True for `src/lib.rs` of a workspace member (R4 target).
    pub is_crate_root: bool,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

/// One suppressed diagnostic (pragma-allowed, with its reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedSite {
    /// 1-based line of the suppressed diagnostic.
    pub line: usize,
    /// The rule that would have fired.
    pub rule: RuleId,
    /// The pragma's written justification.
    pub reason: String,
}

/// Result of checking one file.
#[derive(Debug, Clone, Default)]
pub struct FileOutcome {
    /// Diagnostics that survived pragma filtering (sorted by line).
    pub findings: Vec<Finding>,
    /// Diagnostics suppressed by a pragma (sorted by line).
    pub allowed: Vec<AllowedSite>,
}

/// Checks a set of files together: every single-file rule on each, plus
/// `unread-pub`, which needs every file's code view. Outcomes are in
/// input order.
pub fn check_files(files: &[(FileCtx, &str)]) -> Vec<FileOutcome> {
    let lexed: Vec<(&FileCtx, CodeView, Vec<bool>)> = files
        .iter()
        .map(|(ctx, source)| {
            let view = lex(source);
            let test_lines = test_region_lines(&view);
            (ctx, view, test_lines)
        })
        .collect();
    let unread = rule_unread_pub(&lexed);
    lexed
        .iter()
        .zip(unread)
        .map(|((ctx, view, test_lines), extra)| check_view(ctx, view, test_lines, extra))
        .collect()
}

/// The single-file rules plus `extra` cross-file findings, filtered
/// through the file's pragmas.
fn check_view(
    ctx: &FileCtx,
    view: &CodeView,
    test_lines: &[bool],
    extra: Vec<Finding>,
) -> FileOutcome {
    let policy_active = ctx.kind == FileKind::Source;
    let sim_path = SIM_PATH_CRATES.contains(&ctx.crate_name.as_str());
    let entropy_exempt = ENTROPY_EXEMPT_CRATES.contains(&ctx.crate_name.as_str());

    let mut raw = extra;
    if policy_active && sim_path {
        raw.extend(rule_default_hasher(view, test_lines));
        raw.extend(rule_unordered_iter(view, test_lines));
    }
    if policy_active && !entropy_exempt {
        raw.extend(rule_entropy(view, test_lines));
    }
    if ctx.is_crate_root {
        raw.extend(rule_crate_hygiene(view));
    }

    // Pragma application: a pragma on line P covers lines P and P + 1.
    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    let mut pragma_used = vec![false; view.pragmas.len()];
    for f in raw {
        let mut suppressed = false;
        for (pi, p) in view.pragmas.iter().enumerate() {
            let Some(rule) = RuleId::from_pragma_id(&p.rule) else {
                continue;
            };
            if rule == f.rule && (p.line == f.line || p.line + 1 == f.line) {
                allowed.push(AllowedSite {
                    line: f.line,
                    rule: f.rule,
                    reason: p.reason.clone(),
                });
                pragma_used[pi] = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    // Pragma hygiene.
    for e in &view.pragma_errors {
        findings.push(Finding {
            line: e.line,
            rule: RuleId::BadPragma,
            message: e.message.clone(),
        });
    }
    for (pi, p) in view.pragmas.iter().enumerate() {
        if RuleId::from_pragma_id(&p.rule).is_none() {
            findings.push(Finding {
                line: p.line,
                rule: RuleId::BadPragma,
                message: format!("pragma names unknown rule `{}`", p.rule),
            });
        } else if !pragma_used[pi] {
            findings.push(Finding {
                line: p.line,
                rule: RuleId::UnusedPragma,
                message: format!(
                    "allow pragma for `{}` suppresses nothing on this or the next line",
                    p.rule
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    allowed.sort_by_key(|a| (a.line, a.rule));
    FileOutcome { findings, allowed }
}

/// True at index `c` if it is an identifier byte.
fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Finds word-boundary occurrences of `word` in `code`, returning byte
/// offsets.
fn token_positions(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find(word) {
        let at = from + at;
        let left_ok = at == 0 || !is_ident(bytes[at - 1]);
        let right = at + word.len();
        let right_ok = right >= bytes.len() || !is_ident(bytes[right]);
        if left_ok && right_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Marks every line inside a `#[cfg(test)]` item (module, fn, impl) as a
/// test line. Works on the code view: finds the attribute, skips further
/// attributes, then spans the following `{ ... }` (or to `;` for
/// braceless items).
fn test_region_lines(view: &CodeView) -> Vec<bool> {
    let code = &view.code;
    let bytes = code.as_bytes();
    let mut test = vec![false; view.line_count() + 2];
    for at in token_positions(code, "cfg") {
        // Expect `#[cfg(test)]` — allow whitespace, require the literal
        // `test` argument (not `feature = ...`).
        let before: String = code[..at].chars().rev().take(8).collect();
        if !before.trim_start().starts_with('[') {
            continue;
        }
        let after = &code[at..];
        let Some(close) = after.find(']') else {
            continue;
        };
        let attr = &after[..close];
        let args = attr.trim_start_matches("cfg").trim();
        if args.replace(' ', "") != "(test)" {
            continue;
        }
        // Scan past this and any further attributes to the item body.
        let mut i = at + close + 1;
        loop {
            while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'#' {
                // Another attribute: skip its balanced [...].
                let mut depth = 0i32;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                continue;
            }
            break;
        }
        // The item: ends at the matching `}` of its first brace, or at a
        // top-level `;` for braceless items (`#[cfg(test)] use ...;`).
        let start_line = view.line_of(at);
        let mut depth = 0i32;
        let mut saw_brace = false;
        let mut end = i;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => {
                    depth += 1;
                    saw_brace = true;
                }
                b'}' => {
                    depth -= 1;
                    if saw_brace && depth == 0 {
                        break;
                    }
                }
                b';' if !saw_brace && depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end_line = view.line_of(end.min(bytes.len().saturating_sub(1)));
        for l in start_line..=end_line {
            if l < test.len() {
                test[l] = true;
            }
        }
    }
    test
}

/// Byte spans of `use ...;` statements (imports are not uses of a type).
fn import_spans(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    token_positions(code, "use")
        .into_iter()
        .map(|at| {
            let end = bytes[at..]
                .iter()
                .position(|&b| b == b';')
                .map_or(bytes.len(), |p| at + p);
            (at, end)
        })
        .collect()
}

fn in_spans(spans: &[(usize, usize)], at: usize) -> bool {
    spans.iter().any(|&(s, e)| at >= s && at <= e)
}

/// R1: default-hasher `HashMap`/`HashSet` construction or type use.
fn rule_default_hasher(view: &CodeView, test_lines: &[bool]) -> Vec<Finding> {
    let code = &view.code;
    let bytes = code.as_bytes();
    let imports = import_spans(code);
    let mut out = Vec::new();
    for (word, hasher_param_commas) in [("HashMap", 2usize), ("HashSet", 1usize)] {
        for at in token_positions(code, word) {
            let line = view.line_of(at);
            if test_lines.get(line).copied().unwrap_or(false) || in_spans(&imports, at) {
                continue;
            }
            let mut i = at + word.len();
            while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                i += 1;
            }
            // Turbofish `::<` is generics too; plain `::method` may name
            // an explicit-hasher constructor.
            if bytes.get(i) == Some(&b':') && bytes.get(i + 1) == Some(&b':') {
                i += 2;
                while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                    i += 1;
                }
                if bytes.get(i) != Some(&b'<') {
                    let mut j = i;
                    while j < bytes.len() && is_ident(bytes[j]) {
                        j += 1;
                    }
                    let method = &code[i..j];
                    if method == "with_hasher" || method == "with_capacity_and_hasher" {
                        continue;
                    }
                    out.push(finding_r1(line, word));
                    continue;
                }
            }
            if bytes.get(i) == Some(&b'<') {
                // Count top-level commas of the generic argument list: a
                // third `HashMap` parameter (second for `HashSet`) names
                // an explicit hasher.
                let mut depth = 0i32;
                let mut commas = 0usize;
                let mut j = i;
                while j < bytes.len() {
                    match bytes[j] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        b',' if depth == 1 => commas += 1,
                        b'(' | b')' | b'{' | b'}' | b';' if depth <= 1 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if commas >= hasher_param_commas {
                    continue;
                }
            }
            out.push(finding_r1(line, word));
        }
    }
    // A type annotation and its constructor often share a line; one
    // diagnostic per line is enough to drive the fix.
    out.sort_by_key(|f| f.line);
    out.dedup_by_key(|f| f.line);
    out
}

fn finding_r1(line: usize, word: &str) -> Finding {
    Finding {
        line,
        rule: RuleId::DefaultHasher,
        message: format!(
            "default-hasher `{word}` on a sim-path crate: RandomState is seeded per \
             process; use FxHashMap/FxHashSet (ethmeter_types), BTreeMap, or an \
             explicit hasher"
        ),
    }
}

/// Iteration methods R2 watches for on hash-backed receivers.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Evidence that an iteration's result is ordered or order-free:
/// a sort, or a commutative terminal fold, inside the consuming
/// statement (or the two lines after it, for collect-then-sort).
const ORDER_SANCTIONS: &[&str] = &[
    "sort",
    ".sum()",
    ".count()",
    ".min(",
    ".max(",
    ".min_by",
    ".max_by",
    ".all(",
    ".any(",
    ".product()",
    ".fill(",
];

/// R2: unordered iteration over hash-based containers declared in this
/// file. Heuristic and deliberately narrow: it tracks identifiers
/// declared with a `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` type (or
/// initialized from one) and flags iterator-producing method calls on
/// them — plus `for _ in &ident` sugar — unless the enclosing statement
/// shows a sort or a commutative fold. Everything subtler takes a
/// pragma with a written reason.
fn rule_unordered_iter(view: &CodeView, test_lines: &[bool]) -> Vec<Finding> {
    let code = &view.code;
    let bytes = code.as_bytes();
    let idents = hash_idents(view, test_lines);
    if idents.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut flag = |at: usize, ident: &str| {
        let line = view.line_of(at);
        if test_lines.get(line).copied().unwrap_or(false) {
            return;
        }
        if statement_is_sanctioned(view, at) {
            return;
        }
        out.push(Finding {
            line,
            rule: RuleId::UnorderedIter,
            message: format!(
                "unordered iteration over hash-based `{ident}`: sort the result, fold \
                 it commutatively, or justify with a pragma"
            ),
        });
    };
    for method in ITER_METHODS {
        let mut from = 0;
        while let Some(found) = code[from..].find(method) {
            let at = from + found;
            from = at + method.len();
            // Receiver: the identifier chain segment before `.`, skipping
            // the whitespace a formatter puts before a wrapped method.
            let mut e = at;
            while e > 0 && (bytes[e - 1] as char).is_whitespace() {
                e -= 1;
            }
            let mut s = e;
            while s > 0 && is_ident(bytes[s - 1]) {
                s -= 1;
            }
            let recv = &code[s..e];
            if idents.iter().any(|i| i == recv) {
                flag(at, recv);
            }
        }
    }
    // `for x in &ident` / `&mut ident` / `&self.ident`: by-reference
    // loops iterate the container directly.
    for at in token_positions(code, "for") {
        let rest = &code[at..];
        let Some(in_rel) = rest.find(" in ") else {
            continue;
        };
        if in_rel > 120 {
            continue;
        }
        let expr = rest[in_rel + 4..].trim_start();
        let Some(expr) = expr.strip_prefix('&') else {
            continue;
        };
        let expr = expr
            .trim_start_matches("mut ")
            .trim_start()
            .trim_start_matches("self.");
        let end = expr
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(expr.len());
        let ident = &expr[..end];
        if !ident.is_empty() && idents.iter().any(|i| i == ident) {
            flag(at, ident);
        }
    }
    out.sort_by_key(|f| f.line);
    out.dedup_by_key(|f| f.line);
    out
}

/// Identifiers declared in this file with a hash-based container type:
/// `name: [Fx]Hash{Map,Set}<...>` (fields, params, lets with annotation)
/// or `let [mut] name = [Fx]Hash{Map,Set}::...` initializers.
/// Declarations inside `#[cfg(test)]` regions are skipped so a test-only
/// binding cannot shadow-flag an unrelated non-test identifier.
fn hash_idents(view: &CodeView, test_lines: &[bool]) -> Vec<String> {
    let code = &view.code;
    let bytes = code.as_bytes();
    let mut out: Vec<String> = Vec::new();
    for word in ["HashMap", "HashSet", "FxHashMap", "FxHashSet"] {
        for at in token_positions(code, word) {
            if test_lines.get(view.line_of(at)).copied().unwrap_or(false) {
                continue;
            }
            // Case 1: `name :" Type` — scan back over whitespace, an
            // optional path prefix (`std::collections::`), to a `:`.
            let mut i = at;
            while i > 0 && (is_ident(bytes[i - 1]) || bytes[i - 1] == b':' || bytes[i - 1] == b' ')
            {
                i -= 1;
                if bytes[i] == b':' && i > 0 && bytes[i - 1] != b':' {
                    // Lone colon: the declaration's type annotation.
                    let mut e = i;
                    while e > 0 && bytes[e - 1] == b' ' {
                        e -= 1;
                    }
                    let mut s = e;
                    while s > 0 && is_ident(bytes[s - 1]) {
                        s -= 1;
                    }
                    if s < e {
                        let name = code[s..e].to_string();
                        if name != "mut" && !out.contains(&name) {
                            out.push(name);
                        }
                    }
                    break;
                }
                if bytes[i] == b':' {
                    // `::` path segment; skip both colons and continue.
                    if i == 0 || bytes[i - 1] != b':' {
                        break;
                    }
                    i -= 1;
                }
            }
            // Case 2: `let [mut] name = Word::...` on the same line.
            let line_start = code[..at].rfind('\n').map_or(0, |p| p + 1);
            let prefix = &code[line_start..at];
            if let Some(let_at) = prefix.find("let ") {
                let decl = prefix[let_at + 4..].trim_start();
                let decl = decl.strip_prefix("mut ").unwrap_or(decl).trim_start();
                let end = decl
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(decl.len());
                let name = &decl[..end];
                if !name.is_empty() && prefix.contains('=') && !out.contains(&name.to_string()) {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// True if the statement enclosing `at` (or the two source lines after
/// it) contains ordering/commutativity evidence.
fn statement_is_sanctioned(view: &CodeView, at: usize) -> bool {
    let code = &view.code;
    let bytes = code.as_bytes();
    // Statement start: after the previous `;`, `{` or `}`.
    let start = code[..at].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    // Statement end: a `;` at depth 0, or the `}` closing a block opened
    // within the statement (for-loop bodies), or the enclosing block end.
    let mut depth = 0i32;
    let mut saw_brace = false;
    let mut end = at;
    while end < bytes.len() {
        match bytes[end] {
            b'(' | b'[' | b'{' => {
                saw_brace |= bytes[end] == b'{';
                depth += 1;
            }
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth < 0 || (saw_brace && depth == 0 && bytes[end] == b'}') {
                    break;
                }
            }
            b';' if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    // Collect-then-sort idiom: also scan the two lines after the
    // statement for a sort of the just-built binding.
    let mut window_end = end;
    let mut newlines = 0;
    while window_end < bytes.len() && newlines < 3 {
        if bytes[window_end] == b'\n' {
            newlines += 1;
        }
        window_end += 1;
    }
    let span = &code[start..window_end.min(code.len())];
    ORDER_SANCTIONS.iter().any(|s| span.contains(s))
}

/// Entropy/wall-clock tokens R3 forbids, with the reported offender.
const ENTROPY_PATTERNS: &[(&str, &str)] = &[
    ("Instant::now", "std::time::Instant::now"),
    ("SystemTime", "std::time::SystemTime"),
    ("thread_rng", "rand::thread_rng"),
    ("rand::random", "rand::random"),
    ("from_entropy", "SeedableRng::from_entropy"),
    ("getrandom", "getrandom"),
    ("RandomState", "std::collections::hash_map::RandomState"),
    ("env::var", "std::env::var"),
    ("env::args", "std::env::args"),
    ("env::vars", "std::env::vars"),
];

/// R3: wall-clock and OS entropy.
fn rule_entropy(view: &CodeView, test_lines: &[bool]) -> Vec<Finding> {
    let code = &view.code;
    let mut out: Vec<Finding> = Vec::new();
    for (pat, offender) in ENTROPY_PATTERNS {
        // Token-boundary on the leading identifier of the pattern.
        let lead = pat.split(':').next().unwrap_or(pat);
        for at in token_positions(code, lead) {
            if !code[at..].starts_with(pat) {
                continue;
            }
            let line = view.line_of(at);
            if test_lines.get(line).copied().unwrap_or(false) {
                continue;
            }
            if out.iter().any(|f: &Finding| f.line == line) {
                continue;
            }
            out.push(Finding {
                line,
                rule: RuleId::Entropy,
                message: format!(
                    "`{offender}` on the simulation path: results must be a pure \
                     function of (scenario, seed); route randomness through the \
                     seeded Xoshiro256 and time through SimTime"
                ),
            });
        }
    }
    out.sort_by_key(|f| f.line);
    out
}

/// R6: a `pub fn` or `pub const` in non-test source whose name, as a
/// whole word, occurs in no non-test code of sources, examples or
/// benches beyond its own definitions. Returns findings per file.
fn rule_unread_pub(files: &[(&FileCtx, CodeView, Vec<bool>)]) -> Vec<Vec<Finding>> {
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    let mut defs: BTreeMap<&str, usize> = BTreeMap::new();
    let mut sites = Vec::new();
    for (fi, (ctx, view, test_lines)) in files.iter().enumerate() {
        if ctx.kind == FileKind::Test {
            continue;
        }
        let is_test = |line: usize| test_lines.get(line).copied().unwrap_or(false);
        for (i, text) in view.code.lines().enumerate() {
            if !is_test(i + 1) {
                for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                    *uses.entry(word).or_default() += 1;
                }
            }
        }
        if ctx.kind != FileKind::Source {
            continue;
        }
        for at in token_positions(&view.code, "pub") {
            let line = view.line_of(at);
            if is_test(line) {
                continue;
            }
            if let Some(name) = pub_item_name(&view.code[at + 3..]) {
                *defs.entry(name).or_default() += 1;
                sites.push((fi, line, name));
            }
        }
    }
    let mut out = vec![Vec::new(); files.len()];
    for (fi, line, name) in sites {
        if uses[name] <= defs[name] {
            out[fi].push(Finding {
                line,
                rule: RuleId::UnreadPub,
                message: format!(
                    "`pub` item `{name}` is read only by tests: delete it, make it \
                     private or `#[cfg(test)]`, or justify it with a pragma"
                ),
            });
        }
    }
    out
}

/// The name a `pub fn` / `pub const [fn]` item declares, given the code
/// after its `pub` token; `None` for other items and restricted `pub(..)`.
fn pub_item_name(rest: &str) -> Option<&str> {
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut words = rest
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty());
    match words.next()? {
        "fn" => words.next(),
        "const" => match words.next()? {
            "fn" => words.next(),
            name => Some(name),
        },
        _ => None,
    }
}

/// Attributes every crate root must carry.
const HYGIENE_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

/// R4: workspace lint header on crate roots.
fn rule_crate_hygiene(view: &CodeView) -> Vec<Finding> {
    let squashed: String = view.code.replace([' ', '\t'], "");
    let mut out = Vec::new();
    for attr in HYGIENE_ATTRS {
        let want: String = attr.replace(' ', "");
        if !squashed.contains(&want) {
            out.push(Finding {
                line: 1,
                rule: RuleId::CrateHygiene,
                message: format!("crate root is missing the workspace lint header `{attr}`"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_file(ctx: &FileCtx, source: &str) -> FileOutcome {
        check_files(&[(ctx.clone(), source)]).remove(0)
    }

    fn sim_ctx() -> FileCtx {
        FileCtx {
            crate_name: "net".into(),
            kind: FileKind::Source,
            is_crate_root: false,
        }
    }

    #[test]
    fn default_hasher_construction_is_flagged() {
        let src = "fn f() { let m = std::collections::HashMap::new(); m.insert(1, 2); }\n";
        let out = check_file(&sim_ctx(), src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, RuleId::DefaultHasher);
    }

    #[test]
    fn explicit_hasher_generics_pass() {
        let src = "struct S { m: HashMap<u32, u32, BuildFxHasher>, s: HashSet<u32, B> }\n";
        let out = check_file(&sim_ctx(), src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn fx_aliases_pass_and_imports_are_ignored() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   struct S { m: FxHashMap<u32, u32> }\n";
        let out = check_file(&sim_ctx(), src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "struct S;\n#[cfg(test)]\nmod tests {\n    fn f() { let m = HashMap::new(); let _ = m; }\n}\n";
        let out = check_file(&sim_ctx(), src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unordered_iteration_is_flagged_and_sort_sanctions() {
        let bad = "struct S { m: FxHashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> Vec<u32> { self.m.values().copied().collect() } }\n";
        let out = check_file(&sim_ctx(), bad);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, RuleId::UnorderedIter);

        let good = "struct S { m: FxHashMap<u32, u32> }\n\
                    impl S { fn f(&self) -> Vec<u32> {\n\
                        let mut v: Vec<u32> = self.m.values().copied().collect();\n\
                        v.sort_unstable();\n\
                        v\n\
                    } }\n";
        let out = check_file(&sim_ctx(), good);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn commutative_folds_pass() {
        let src = "struct S { m: FxHashMap<u32, u64> }\n\
                   impl S { fn f(&self) -> u64 { self.m.values().sum() } }\n";
        // `.sum()` needs the call parens to match the sanction list.
        let src2 = src.replace(".sum()", ".copied().sum()");
        for s in [src.to_string(), src2] {
            let out = check_file(&sim_ctx(), &s);
            assert!(out.findings.is_empty(), "{s} -> {:?}", out.findings);
        }
    }

    #[test]
    fn entropy_is_flagged_outside_exempt_crates() {
        let src = "fn f() { let t = Instant::now(); let v = std::env::var(\"X\"); }\n";
        let out = check_file(&sim_ctx(), src);
        assert_eq!(out.findings.len(), 1, "one per line: {:?}", out.findings);
        assert_eq!(out.findings[0].rule, RuleId::Entropy);

        let bench = FileCtx {
            crate_name: "bench".into(),
            kind: FileKind::Source,
            is_crate_root: false,
        };
        assert!(check_file(&bench, src).findings.is_empty());
    }

    #[test]
    fn crate_hygiene_requires_both_attrs() {
        let root = FileCtx {
            crate_name: "net".into(),
            kind: FileKind::Source,
            is_crate_root: true,
        };
        let out = check_file(&root, "#![forbid(unsafe_code)]\n");
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, RuleId::CrateHygiene);
        let out = check_file(&root, "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n");
        assert!(out.findings.is_empty());
    }

    #[test]
    fn tests_benches_examples_skip_policy_rules() {
        let src = "fn f() { let m = HashMap::new(); let _ = (m, Instant::now()); }\n";
        for kind in [FileKind::Test, FileKind::Bench, FileKind::Example] {
            let ctx = FileCtx {
                crate_name: "net".into(),
                kind,
                is_crate_root: false,
            };
            assert!(check_file(&ctx, src).findings.is_empty(), "{kind:?}");
        }
    }
}
