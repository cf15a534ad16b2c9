//! A small Rust surface lexer: produces a *code view* of a source file in
//! which every comment, string literal, character literal, and raw string
//! is blanked to spaces (byte offsets and line breaks are preserved), and
//! extracts `detlint` allow pragmas from the comment text.
//!
//! This is deliberately not a parser. The determinism rules only need to
//! see real tokens — a `HashMap` inside a doc comment or a format string
//! must not trip them — and blanking non-code bytes in place keeps every
//! diagnostic's `file:line` exact without building an AST. The lexer
//! handles the constructs that matter for that fidelity: nested block
//! comments, raw strings with arbitrary `#` fences, byte strings, char
//! literals vs. lifetimes, and escaped quotes.

/// One allow pragma found in a comment.
///
/// Syntax (inside any `//` or `/* */` comment): the literal marker
/// `detlint::allow` followed immediately by an open paren, the rule id,
/// and a mandatory `reason = "<non-empty reason>"` — see `DETERMINISM.md`
/// for worked examples. (The exact form is not spelled out here so that
/// detlint's own sources do not register a stray pragma.)
///
/// A pragma suppresses matching diagnostics on its own line and on the
/// next line, so it can trail the offending expression or sit on the line
/// above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line of the comment carrying the pragma.
    pub line: usize,
    /// The rule id named by the pragma (not yet validated).
    pub rule: String,
    /// The mandatory human-written justification.
    pub reason: String,
}

/// A malformed pragma: the marker was present but the payload did not
/// parse or the reason was missing/empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// 1-based line of the offending comment.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

/// The blanked source plus everything recovered from comments.
#[derive(Debug, Clone)]
pub struct CodeView {
    /// The source with comments/literals replaced by spaces. Same length
    /// and line structure as the input.
    pub code: String,
    /// Well-formed allow pragmas, in source order.
    pub pragmas: Vec<Pragma>,
    /// Malformed pragmas, in source order.
    pub pragma_errors: Vec<PragmaError>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
}

impl CodeView {
    /// The 1-based line containing byte `offset`.
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Number of lines.
    pub(crate) fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

/// The marker that introduces an allow pragma inside a comment. Built by
/// concatenation so the lexer's own sources never contain the literal
/// marker in comment position.
const PRAGMA_MARKER: &str = concat!("detlint", "::allow(");

/// Lexes `source` into a [`CodeView`].
pub fn lex(source: &str) -> CodeView {
    let bytes = source.as_bytes();
    let mut code: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut pragmas = Vec::new();
    let mut pragma_errors = Vec::new();
    let mut line_starts = vec![0usize];
    let mut i = 0usize;
    let mut line = 1usize;

    // Pushes a blanked byte, keeping newlines so lines stay aligned.
    macro_rules! blank {
        ($b:expr) => {
            code.push(if $b == b'\n' { b'\n' } else { b' ' })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            code.push(b'\n');
            line += 1;
            line_starts.push(i + 1);
            i += 1;
            continue;
        }
        // Line comment (also doc comments `///`, `//!`).
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start_line = line;
            let mut text = Vec::new();
            while i < bytes.len() && bytes[i] != b'\n' {
                text.push(bytes[i]);
                blank!(bytes[i]);
                i += 1;
            }
            scan_comment_for_pragma(
                std::str::from_utf8(&text).unwrap_or(""),
                start_line,
                &mut pragmas,
                &mut pragma_errors,
            );
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let mut depth = 0usize;
            let mut text = Vec::new();
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_starts.push(i + 1);
                    }
                    text.push(bytes[i]);
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            scan_comment_for_pragma(
                std::str::from_utf8(&text).unwrap_or(""),
                start_line,
                &mut pragmas,
                &mut pragma_errors,
            );
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br##"..."##.
        if let Some((prefix_len, fence)) = raw_string_at(bytes, i) {
            for _ in 0..prefix_len {
                blank!(bytes[i]);
                i += 1;
            }
            let closer: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', fence))
                .collect();
            while i < bytes.len() {
                if bytes[i..].starts_with(&closer) {
                    for _ in 0..closer.len() {
                        blank!(bytes[i]);
                        i += 1;
                    }
                    break;
                }
                if bytes[i] == b'\n' {
                    line += 1;
                    line_starts.push(i + 1);
                }
                blank!(bytes[i]);
                i += 1;
            }
            continue;
        }
        // Ordinary (byte) string.
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
            if b == b'b' {
                blank!(bytes[i]);
                i += 1;
            }
            blank!(bytes[i]); // opening quote
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => {
                        blank!(bytes[i]);
                        if i + 1 < bytes.len() {
                            // `\` + newline is a line-continuation escape.
                            if bytes[i + 1] == b'\n' {
                                line += 1;
                                line_starts.push(i + 2);
                            }
                            blank!(bytes[i + 1]);
                        }
                        i += 2;
                    }
                    b'"' => {
                        blank!(bytes[i]);
                        i += 1;
                        break;
                    }
                    c => {
                        if c == b'\n' {
                            line += 1;
                            line_starts.push(i + 1);
                        }
                        blank!(c);
                        i += 1;
                    }
                }
            }
            continue;
        }
        // Char literal vs. lifetime. `'x'` and `'\n'` are literals;
        // `'static` (no closing quote after one "unit") is a lifetime and
        // stays in the code view.
        if b == b'\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(&c) if c != b'\'' => bytes.get(i + 2) == Some(&b'\''),
                _ => false,
            };
            if is_char {
                blank!(bytes[i]);
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            blank!(bytes[i]);
                            if i + 1 < bytes.len() {
                                blank!(bytes[i + 1]);
                            }
                            i += 2;
                        }
                        b'\'' => {
                            blank!(bytes[i]);
                            i += 1;
                            break;
                        }
                        c => {
                            blank!(c);
                            i += 1;
                        }
                    }
                }
                continue;
            }
        }
        code.push(b);
        i += 1;
    }

    CodeView {
        code: String::from_utf8_lossy(&code).into_owned(),
        pragmas,
        pragma_errors,
        line_starts,
    }
}

/// Detects a raw-string opener at `i`; returns `(prefix_len, fence)`
/// where `prefix_len` covers `r`/`br` plus fence hashes plus the opening
/// quote, and `fence` is the number of `#`.
fn raw_string_at(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    // Don't treat the `r` of an identifier like `for` as a prefix.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut fence = 0usize;
    while bytes.get(j) == Some(&b'#') {
        fence += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    Some((j + 1 - i, fence))
}

/// Parses every pragma occurrence in one comment's text.
fn scan_comment_for_pragma(
    text: &str,
    line: usize,
    pragmas: &mut Vec<Pragma>,
    errors: &mut Vec<PragmaError>,
) {
    let mut rest = text;
    while let Some(at) = rest.find(PRAGMA_MARKER) {
        let payload = &rest[at + PRAGMA_MARKER.len()..];
        match parse_pragma_payload(payload) {
            Ok((rule, reason)) => pragmas.push(Pragma { line, rule, reason }),
            Err(message) => errors.push(PragmaError { line, message }),
        }
        rest = payload;
    }
}

/// Parses `<rule-id>, reason = "<reason>")`. The reason is delimited by
/// its quotes (it may itself contain parentheses or commas); the closing
/// paren is required after the closing quote.
fn parse_pragma_payload(payload: &str) -> Result<(String, String), String> {
    let id_end = payload
        .find([',', ')'])
        .ok_or_else(|| "pragma is missing its closing parenthesis".to_string())?;
    let rule_part = payload[..id_end].trim();
    if rule_part.is_empty()
        || !rule_part
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return Err(format!("malformed rule id `{rule_part}` in pragma"));
    }
    let missing_reason =
        || format!("pragma for `{rule_part}` is missing the mandatory `reason = \"...\"`");
    if payload.as_bytes()[id_end] == b')' {
        return Err(missing_reason());
    }
    let rest = payload[id_end + 1..].trim_start();
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim_start)
        .ok_or_else(missing_reason)?;
    let reason = reason
        .strip_prefix('"')
        .ok_or_else(|| format!("pragma reason for `{rule_part}` must be a quoted string"))?;
    let quote_end = reason
        .find('"')
        .ok_or_else(|| format!("pragma reason for `{rule_part}` has no closing quote"))?;
    let after = reason[quote_end + 1..].trim_start();
    if !after.starts_with(')') {
        return Err(format!(
            "pragma for `{rule_part}` is missing its closing parenthesis"
        ));
    }
    let reason = reason[..quote_end].trim();
    if reason.is_empty() {
        return Err(format!("pragma reason for `{rule_part}` must not be empty"));
    }
    Ok((rule_part.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let a = \"HashMap\"; // HashMap here\nlet b = 1; /* HashSet */\n";
        let v = lex(src);
        assert!(!v.code.contains("HashMap"));
        assert!(!v.code.contains("HashSet"));
        assert_eq!(v.code.len(), src.len());
        assert_eq!(v.line_count(), 3); // trailing newline opens line 3
    }

    #[test]
    fn raw_strings_and_chars_are_blanked_lifetimes_kept() {
        let src = "let r = r#\"Instant::now\"#; let c = 'x'; fn f<'a>(v: &'a u8) {}";
        let v = lex(src);
        assert!(!v.code.contains("Instant"));
        assert!(!v.code.contains('x'));
        assert!(v.code.contains("<'a>"), "lifetime must survive: {}", v.code);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        let v = lex(src);
        assert!(v.code.contains("let x = 1;"));
        assert!(!v.code.contains("outer"));
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let s = \"line1\nline2\";\nlet t = 9;\n";
        let v = lex(src);
        let off = v.code.find("let t").expect("t found");
        assert_eq!(v.line_of(off), 3);
    }

    #[test]
    fn pragma_round_trip() {
        let marker = PRAGMA_MARKER;
        let src = format!("// {marker}default-hasher, reason = \"interned slots\")\nlet x = 1;\n");
        let v = lex(&src);
        assert_eq!(v.pragma_errors, Vec::new());
        assert_eq!(
            v.pragmas,
            vec![Pragma {
                line: 1,
                rule: "default-hasher".into(),
                reason: "interned slots".into()
            }]
        );
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let src = format!("// {}entropy)\nlet x = 1;\n", PRAGMA_MARKER);
        let v = lex(&src);
        assert!(v.pragmas.is_empty());
        assert_eq!(v.pragma_errors.len(), 1);
        assert!(v.pragma_errors[0].message.contains("reason"));
    }

    #[test]
    fn pragma_with_empty_reason_is_an_error() {
        let src = format!("// {}entropy, reason = \"  \")\n", PRAGMA_MARKER);
        let v = lex(&src);
        assert!(v.pragmas.is_empty());
        assert_eq!(v.pragma_errors.len(), 1);
    }
}
