//! The shared token layer: every pass in this crate — the conformance
//! lint, the lock-graph verifier, the determinism audit, the rank-table
//! extractor — sees source through this lexer, so strings, comments,
//! char literals, lifetimes, and `#[cfg(test)]` regions are invisible to
//! all of them by construction.
//!
//! The lexer also collects *allow markers*. Two spellings share one
//! grammar:
//!
//! * `// lint:allow(rule): reason` — the token-level lint's hatch;
//! * `// analysis:allow(pass): reason` — the analyzer passes' hatch
//!   (`map-iter` and `unreached` read it).
//!
//! A marker covers its own line and the next line that carries code, so
//! it can close a multi-line explanatory comment. Only plain `//`
//! comments carry markers: a doc comment (`///`, `//!`) describes code —
//! the grammar above included — and excuses nothing. Rule names are not
//! validated here — each pass asks [`Lexed::allows`] about the names it
//! owns, and the driver reports every marker that excused no finding
//! (`stale-allow`), a misspelt or unclaimed name included.

#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    Ident(String),
    /// A string literal's raw contents (escapes unprocessed).
    Str(String),
    Punct(char),
    /// Numeric literal text (needed by the rank extractor).
    Num(String),
    /// Char literals, lifetimes: present so adjacency checks see real
    /// neighbours, otherwise inert.
    Other,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: usize,
}

/// One allow marker: `// <spelling>:allow(<name>)` at `line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// `lint` or `analysis`.
    pub spelling: &'static str,
    /// The rule or pass the marker names.
    pub name: String,
    /// The marker's own line.
    pub line: usize,
    /// The next line that carries code, if any: the other line it covers.
    pub next_code_line: Option<usize>,
}

impl Marker {
    /// Whether the marker covers `line`.
    pub fn covers(&self, line: usize) -> bool {
        self.line == line || self.next_code_line == Some(line)
    }
}

/// Lexer output: the token stream and every allow marker.
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub markers: Vec<Marker>,
}

impl Lexed {
    /// Whether `name` is allowed at `line`.
    pub fn allows(&self, name: &str, line: usize) -> bool {
        self.markers
            .iter()
            .any(|m| m.name == name && m.covers(line))
    }
}

pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let mut line = 1usize;
    let mut toks = Vec::new();
    let mut markers: Vec<Marker> = Vec::new();

    macro_rules! bump {
        () => {{
            if bytes[pos] == b'\n' {
                line += 1;
            }
            pos += 1;
        }};
    }

    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b'\n' | b' ' | b'\t' | b'\r' => bump!(),
            b'/' if bytes.get(pos + 1) == Some(&b'/') => {
                let start = pos;
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                let comment = &src[start..pos];
                let doc = comment.starts_with("//!")
                    || (comment.starts_with("///") && !comment.starts_with("////"));
                for spelling in ["lint", "analysis"] {
                    let prefix = format!("{spelling}:allow(");
                    let Some(idx) = comment.find(&prefix).filter(|_| !doc) else {
                        continue;
                    };
                    let rest = &comment[idx + prefix.len()..];
                    if let Some(end) = rest.find(')') {
                        markers.push(Marker {
                            spelling,
                            name: rest[..end].trim().to_string(),
                            line,
                            next_code_line: None,
                        });
                    }
                }
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                bump!();
                bump!();
                while pos < bytes.len() && depth > 0 {
                    if bytes[pos] == b'/' && bytes.get(pos + 1) == Some(&b'*') {
                        depth += 1;
                        bump!();
                    } else if bytes[pos] == b'*' && bytes.get(pos + 1) == Some(&b'/') {
                        depth -= 1;
                        bump!();
                    }
                    bump!();
                }
            }
            b'"' => {
                let s = lex_cooked_string(bytes, &mut pos, &mut line);
                push_tok(&mut toks, &mut markers, TokKind::Str(s), line);
            }
            b'r' | b'b' if raw_string_hashes(bytes, pos).is_some() => {
                let (prefix, hashes) = raw_string_hashes(bytes, pos).unwrap();
                pos += prefix; // consume r / br / rb prefix and the hashes
                let s = lex_raw_string(bytes, &mut pos, &mut line, hashes);
                push_tok(&mut toks, &mut markers, TokKind::Str(s), line);
            }
            b'b' if bytes.get(pos + 1) == Some(&b'"') => {
                pos += 1;
                let s = lex_cooked_string(bytes, &mut pos, &mut line);
                push_tok(&mut toks, &mut markers, TokKind::Str(s), line);
            }
            b'\'' => {
                lex_quote(bytes, &mut pos, &mut line);
                push_tok(&mut toks, &mut markers, TokKind::Other, line);
            }
            b'0'..=b'9' => {
                let start = pos;
                pos += 1;
                while pos < bytes.len() {
                    let c = bytes[pos];
                    let numeric = c.is_ascii_alphanumeric()
                        || c == b'_'
                        || (c == b'.' && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit));
                    if !numeric {
                        break;
                    }
                    pos += 1;
                }
                push_tok(
                    &mut toks,
                    &mut markers,
                    TokKind::Num(src[start..pos].to_string()),
                    line,
                );
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let ident = src[start..pos].to_string();
                push_tok(&mut toks, &mut markers, TokKind::Ident(ident), line);
            }
            c => {
                bump!();
                if c.is_ascii() {
                    push_tok(&mut toks, &mut markers, TokKind::Punct(c as char), line);
                } else {
                    // Non-ASCII outside strings/comments: skip the byte.
                }
            }
        }
    }
    Lexed { toks, markers }
}

/// Emit a token, making its line the next code line of every marker
/// since the previous token.
fn push_tok(toks: &mut Vec<Tok>, markers: &mut [Marker], kind: TokKind, line: usize) {
    for m in markers.iter_mut().rev() {
        if m.next_code_line.is_some() {
            break;
        }
        m.next_code_line = Some(line);
    }
    toks.push(Tok { kind, line });
}

/// At `pos` on `"`: consume the literal, returning its raw contents.
fn lex_cooked_string(bytes: &[u8], pos: &mut usize, line: &mut usize) -> String {
    let start = *pos + 1;
    *pos += 1;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => *pos += 2,
            b'"' => break,
            b'\n' => {
                *line += 1;
                *pos += 1;
            }
            _ => *pos += 1,
        }
    }
    let end = (*pos).min(bytes.len());
    if *pos < bytes.len() {
        *pos += 1; // closing quote
    }
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

/// If `pos` starts a raw-string prefix (`r"`, `r#"`, `br"`, `br#"`…),
/// return `(prefix_len_through_opening_quote, hash_count)`.
fn raw_string_hashes(bytes: &[u8], pos: usize) -> Option<(usize, usize)> {
    let mut i = pos;
    if bytes.get(i) == Some(&b'b') {
        i += 1;
    }
    if bytes.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) == Some(&b'"') {
        Some((i + 1 - pos, hashes))
    } else {
        None
    }
}

/// `pos` just past the opening quote: consume to `"` + `hashes` hashes.
fn lex_raw_string(bytes: &[u8], pos: &mut usize, line: &mut usize, hashes: usize) -> String {
    let start = *pos;
    while *pos < bytes.len() {
        if bytes[*pos] == b'\n' {
            *line += 1;
        }
        if bytes[*pos] == b'"' {
            let tail = &bytes[*pos + 1..];
            if tail.len() >= hashes && tail[..hashes].iter().all(|&b| b == b'#') {
                let content = String::from_utf8_lossy(&bytes[start..*pos]).into_owned();
                *pos += 1 + hashes;
                return content;
            }
        }
        *pos += 1;
    }
    String::from_utf8_lossy(&bytes[start..]).into_owned()
}

/// At `'`: char literal or lifetime — consume either.
fn lex_quote(bytes: &[u8], pos: &mut usize, line: &mut usize) {
    let next = bytes.get(*pos + 1).copied();
    match next {
        Some(b'\\') => {
            // Escaped char literal: scan to the closing quote.
            *pos += 2;
            while *pos < bytes.len() && bytes[*pos] != b'\'' {
                if bytes[*pos] == b'\\' {
                    *pos += 1;
                }
                *pos += 1;
            }
            *pos += 1;
        }
        Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {
            if bytes.get(*pos + 2) == Some(&b'\'') {
                *pos += 3; // 'x'
            } else {
                // Lifetime: consume the ident, no closing quote.
                *pos += 2;
                while *pos < bytes.len()
                    && (bytes[*pos].is_ascii_alphanumeric() || bytes[*pos] == b'_')
                {
                    *pos += 1;
                }
            }
        }
        _ => {
            // `'('`-style literal (possibly multibyte): bounded scan.
            let limit = (*pos + 8).min(bytes.len());
            *pos += 1;
            while *pos < limit && bytes[*pos] != b'\'' {
                if bytes[*pos] == b'\n' {
                    *line += 1;
                }
                *pos += 1;
            }
            *pos += 1;
        }
    }
}

// ------------------------------------------------- test-region stripping

/// Drop tokens inside `#[cfg(test)]` / `#[test]` items (and everything,
/// if the file opens with `#![cfg(test)]`).
pub fn strip_test_regions(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct('#') {
            if let Some((idents, inner, j)) = parse_attr(&toks, i) {
                let testish = idents.first().map(String::as_str) == Some("test")
                    || (idents.first().map(String::as_str) == Some("cfg")
                        && idents.iter().any(|s| s == "test"));
                if testish && inner {
                    return out; // `#![cfg(test)]`: the whole file is test code
                }
                if testish {
                    i = skip_item(&toks, j);
                    continue;
                }
                out.extend_from_slice(&toks[i..j]);
                i = j;
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Parse an attribute at `i` (`#` or `#!` then `[...]`), returning its
/// identifiers, whether it was an inner attribute, and the index past it.
fn parse_attr(toks: &[Tok], i: usize) -> Option<(Vec<String>, bool, usize)> {
    let mut j = i + 1;
    let inner = toks.get(j).map(|t| &t.kind) == Some(&TokKind::Punct('!'));
    if inner {
        j += 1;
    }
    if toks.get(j).map(|t| &t.kind) != Some(&TokKind::Punct('[')) {
        return None;
    }
    let mut depth = 0usize;
    let mut idents = Vec::new();
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((idents, inner, j + 1));
                }
            }
            TokKind::Ident(name) => idents.push(name.clone()),
            _ => {}
        }
        j += 1;
    }
    None
}

/// From `i` (just past a test-ish attribute), consume any further
/// attributes and then one item: through its matching `{…}` or to `;`.
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('#') => {
                if let Some((_, _, j)) = parse_attr(toks, i) {
                    i = j;
                } else {
                    i += 1;
                }
            }
            TokKind::Punct('{') => {
                let mut depth = 0usize;
                while i < toks.len() {
                    match &toks[i].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            TokKind::Punct(';') => return i + 1,
            _ => i += 1,
        }
    }
    i
}

// --------------------------------------------------------- token helpers

pub fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).map(|t| &t.kind) == Some(&TokKind::Punct(c))
}

/// `toks[i]` follows a `::` path segment whose head is `head`.
pub fn pathed_from(toks: &[Tok], i: usize, head: &str) -> bool {
    i >= 3
        && punct_at(toks, i - 1, ':')
        && punct_at(toks, i - 2, ':')
        && ident_at(toks, i - 3) == Some(head)
}
