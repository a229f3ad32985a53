//! The analyzer's unified finding type and its machine-readable form.
//!
//! Every pass — lint, map-iter, rank-table — reports
//! [`Finding`]s. The human form (`Display`) is one line per finding in
//! `file:line: [pass] message` shape, which the CI problem matcher
//! (`.github/problem-matchers/analysis.json`) turns into diff
//! annotations. The machine form ([`render_json`]) is a versioned JSON
//! document the CI gate parses and asserts empty of non-allowed entries.
//!
//! `allowed` findings — sites covered by an inline `// lint:allow(rule):
//! reason` or `// analysis:allow(pass): reason` marker — still travel in
//! the JSON (an allow is a reviewed fact worth surfacing, not a deletion)
//! but never fail the gate.

use std::fmt;

/// One analyzer finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which pass produced it: `lint` (the message names the rule),
    /// `map-iter`, `rank-table`, `unreached`, or the driver's
    /// `stale-allow` check.
    pub pass: &'static str,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    pub message: String,
    /// Covered by an inline allow marker: reported for the record, not
    /// gated on.
    pub allowed: bool,
}

impl Finding {
    pub fn new(pass: &'static str, file: &str, line: usize, message: String) -> Self {
        Finding {
            pass,
            file: file.to_string(),
            line,
            message,
            allowed: false,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.file,
            self.line,
            self.pass,
            self.message,
            if self.allowed { " (allowed)" } else { "" }
        )
    }
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings document: version, per-finding records sorted the
/// way the human output prints them, and a summary block. `files` is the
/// number of sources scanned (so "0 findings over 0 files" cannot read
/// as a clean run).
pub fn render_json(findings: &[Finding], files: usize) -> String {
    let active = findings.iter().filter(|f| !f.allowed).count();
    let allowed = findings.len() - active;
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"summary\": {{ \"files\": {files}, \"findings\": {}, \"active\": {active}, \"allowed\": {allowed} }},\n",
        findings.len()
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"pass\": \"{}\", \"file\": \"{}\", \"line\": {}, \"allowed\": {}, \"message\": \"{}\" }}",
            json_escape(f.pass),
            json_escape(&f.file),
            f.line,
            f.allowed,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let findings = vec![
            Finding::new("rank-table", "a/b.rs", 3, "holds \"x\"\nthen y".into()),
            Finding {
                allowed: true,
                ..Finding::new("map-iter", "c.rs", 9, "iterates".into())
            },
        ];
        let doc = render_json(&findings, 42);
        assert!(doc.contains("\"files\": 42"));
        assert!(doc.contains("\"active\": 1"));
        assert!(doc.contains("\"allowed\": 1"));
        assert!(doc.contains("holds \\\"x\\\"\\nthen y"));
        // Hand-check the document is at least structurally balanced.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces in {doc}"
        );
    }

    #[test]
    fn empty_document_still_carries_the_file_count() {
        let doc = render_json(&[], 7);
        assert!(doc.contains("\"findings\": []") || doc.contains("\"findings\": [\n]"));
        assert!(doc.contains("\"files\": 7"));
    }
}
