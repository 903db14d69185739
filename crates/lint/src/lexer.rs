//! The offset-preserving lexer every rule is built on.
//!
//! [`SourceModel`] splits one file into parallel `code` / `comments`
//! views of identical byte length (string and char literal *contents*
//! are blanked in both), so rule logic can match tokens in `code`
//! without tripping over comments or literals, yet still report
//! 1-based line numbers against the raw text. Suppression comments
//! (`// eden-lint: allow(<rule>)`) are collected here too, including
//! the written rationale the graph rules require.

use std::collections::HashMap;

use crate::Rule;

/// A lexed view of one file: `code` and `comments` are byte-for-byte the
/// same length as the source, with the other class of text blanked to
/// spaces (string and char literal *contents* are blanked in `code`
/// too), so byte offsets line up across the source and both views.
pub(crate) struct SourceModel {
    pub(crate) code: String,
    pub(crate) comments: String,
    /// Byte offset at which each line starts.
    pub(crate) line_starts: Vec<usize>,
    /// Per line: true when inside a `#[cfg(test)] mod` body.
    pub(crate) test_lines: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

impl SourceModel {
    pub(crate) fn new(raw: &str) -> SourceModel {
        let mut code = String::with_capacity(raw.len());
        let mut comments = String::with_capacity(raw.len());
        let mut state = LexState::Normal;
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0usize;

        // Pushes `c` to the active buffer and pads the other with spaces
        // of the same UTF-8 width, preserving offsets. Newlines go to
        // both so line structure is shared.
        let push = |code: &mut String, comments: &mut String, c: char, to_code: bool| {
            let pad = " ".repeat(c.len_utf8());
            if c == '\n' {
                code.push('\n');
                comments.push('\n');
            } else if to_code {
                code.push(c);
                comments.push_str(&pad);
            } else {
                comments.push(c);
                code.push_str(&pad);
            }
        };
        // Blanks a char in both views (string/char literal contents).
        let blank = |code: &mut String, comments: &mut String, c: char| {
            if c == '\n' {
                code.push('\n');
                comments.push('\n');
            } else {
                let pad = " ".repeat(c.len_utf8());
                code.push_str(&pad);
                comments.push_str(&pad);
            }
        };

        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                LexState::Normal => match c {
                    '/' if next == Some('/') => {
                        state = LexState::LineComment;
                        push(&mut code, &mut comments, c, false);
                    }
                    '/' if next == Some('*') => {
                        state = LexState::BlockComment(1);
                        push(&mut code, &mut comments, c, false);
                        push(&mut code, &mut comments, '*', false);
                        i += 1;
                    }
                    '"' => {
                        state = LexState::Str { raw_hashes: None };
                        push(&mut code, &mut comments, c, true);
                    }
                    'r' | 'b' if starts_raw_string(&bytes, i) => {
                        // Emit the prefix up to and including the quote.
                        let mut hashes = 0u32;
                        push(&mut code, &mut comments, c, true);
                        i += 1;
                        if bytes.get(i) == Some(&'r') && c == 'b' {
                            push(&mut code, &mut comments, 'r', true);
                            i += 1;
                        }
                        while bytes.get(i) == Some(&'#') {
                            hashes += 1;
                            push(&mut code, &mut comments, '#', true);
                            i += 1;
                        }
                        // Now at the opening quote.
                        push(&mut code, &mut comments, '"', true);
                        state = LexState::Str {
                            raw_hashes: Some(hashes),
                        };
                    }
                    'b' if next == Some('\'') => {
                        push(&mut code, &mut comments, c, true);
                        push(&mut code, &mut comments, '\'', true);
                        i += 1;
                        state = LexState::Char;
                    }
                    '\'' if is_char_literal(&bytes, i) => {
                        push(&mut code, &mut comments, c, true);
                        state = LexState::Char;
                    }
                    c => push(&mut code, &mut comments, c, true),
                },
                LexState::LineComment => {
                    if c == '\n' {
                        state = LexState::Normal;
                    }
                    push(&mut code, &mut comments, c, false);
                }
                LexState::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        push(&mut code, &mut comments, c, false);
                        push(&mut code, &mut comments, '/', false);
                        i += 1;
                        state = if depth == 1 {
                            LexState::Normal
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                    } else if c == '/' && next == Some('*') {
                        push(&mut code, &mut comments, c, false);
                        push(&mut code, &mut comments, '*', false);
                        i += 1;
                        state = LexState::BlockComment(depth + 1);
                    } else {
                        push(&mut code, &mut comments, c, false);
                    }
                }
                LexState::Str { raw_hashes: None } => match c {
                    '\\' => {
                        blank(&mut code, &mut comments, c);
                        if let Some(n) = next {
                            blank(&mut code, &mut comments, n);
                            i += 1;
                        }
                    }
                    '"' => {
                        push(&mut code, &mut comments, c, true);
                        state = LexState::Normal;
                    }
                    c => blank(&mut code, &mut comments, c),
                },
                LexState::Str {
                    raw_hashes: Some(h),
                } => {
                    if c == '"' && raw_string_closes(&bytes, i, h) {
                        push(&mut code, &mut comments, c, true);
                        for _ in 0..h {
                            i += 1;
                            push(&mut code, &mut comments, '#', true);
                        }
                        state = LexState::Normal;
                    } else {
                        blank(&mut code, &mut comments, c);
                    }
                }
                LexState::Char => match c {
                    '\\' => {
                        blank(&mut code, &mut comments, c);
                        if let Some(n) = next {
                            blank(&mut code, &mut comments, n);
                            i += 1;
                        }
                    }
                    '\'' => {
                        push(&mut code, &mut comments, c, true);
                        state = LexState::Normal;
                    }
                    c => blank(&mut code, &mut comments, c),
                },
            }
            i += 1;
        }

        let mut line_starts = vec![0usize];
        for (pos, b) in code.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(pos + 1);
            }
        }
        let test_lines = mark_test_lines(&code, &line_starts);
        SourceModel {
            code,
            comments,
            line_starts,
            test_lines,
        }
    }

    /// 1-based line for a byte offset.
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    pub(crate) fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// The code text of one 1-based line.
    pub(crate) fn code_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|e| e - 1)
            .unwrap_or(self.code.len());
        &self.code[start..end.max(start)]
    }
}

fn starts_raw_string(bytes: &[char], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  br#"..."#
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

fn raw_string_closes(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal from a lifetime: `'x'` and `'\n'` are
/// literals; `'a` followed by anything but a closing quote is a
/// lifetime.
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks lines inside `#[cfg(test)] mod … { … }` bodies.
fn mark_test_lines(code: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; line_starts.len()];
    let mut depth: i32 = 0;
    let mut pending_cfg_test = false;
    let mut regions: Vec<i32> = Vec::new(); // depths at which a test mod opened
    for (idx, &start) in line_starts.iter().enumerate() {
        let end = line_starts.get(idx + 1).copied().unwrap_or(code.len());
        let line = &code[start..end];
        let compact: String = line.split_whitespace().collect();
        if compact.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        if !regions.is_empty() {
            flags[idx] = true;
        } else if pending_cfg_test {
            // The attribute line and the mod header are test lines too.
            flags[idx] = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_cfg_test {
                        regions.push(depth);
                        pending_cfg_test = false;
                    }
                }
                '}' => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    flags
}

// ================= Suppressions =================

/// One line's suppression coverage: whether the `allow(...)` comment
/// also carries a written rationale after the closing paren. The graph
/// rules (lock-order, blocking-discipline) only honor suppressions with
/// a rationale.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cover {
    pub(crate) with_rationale: bool,
}

/// Lines covered by `// eden-lint: allow(<rule>)`, per rule. A comment
/// on a code-bearing line covers that line; a comment on its own line
/// covers the next code-bearing line as well.
pub(crate) fn collect_suppressions(model: &SourceModel) -> HashMap<Rule, HashMap<usize, Cover>> {
    let mut map: HashMap<Rule, HashMap<usize, Cover>> = HashMap::new();
    let total = model.line_starts.len();
    for line in 1..=total {
        let start = model.line_starts[line - 1];
        let end = model
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(model.comments.len());
        let comment = &model.comments[start..end.min(model.comments.len())];
        let Some(pos) = comment.find("eden-lint:") else {
            continue;
        };
        let rest = &comment[pos + "eden-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        // A rationale is any prose after the closing paren, e.g.
        //   // eden-lint: allow(lock-order): registration is a leaf
        let rationale = rest[open + close + 1..]
            .trim_start_matches([':', '-', '—', ' ', '\u{a0}'])
            .trim();
        let cover = Cover {
            with_rationale: rationale.chars().filter(|c| c.is_alphanumeric()).count() >= 3,
        };
        for name in rest[open + "allow(".len()..open + close].split(',') {
            let Some(rule) = Rule::from_name(name.trim()) else {
                continue;
            };
            let lines = map.entry(rule).or_default();
            merge_cover(lines, line, cover);
            if model.code_line(line).trim().is_empty() {
                // Standalone comment: cover the next code-bearing line.
                for next in line + 1..=total {
                    if !model.code_line(next).trim().is_empty() {
                        merge_cover(lines, next, cover);
                        break;
                    }
                }
            }
        }
    }
    map
}

fn merge_cover(lines: &mut HashMap<usize, Cover>, line: usize, cover: Cover) {
    let entry = lines.entry(line).or_default();
    entry.with_rationale |= cover.with_rationale;
}

// ================= Token helpers =================

pub(crate) fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets of whole-word occurrences of `needle` in `hay`.
pub(crate) fn word_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || !is_ident_char(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// The identifier ending at byte offset `end` (exclusive), if any.
pub(crate) fn ident_before(code: &str, mut end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let stop = end;
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1]) {
        start -= 1;
    }
    (start < stop).then(|| &code[start..stop])
}

/// The identifier starting at byte offset `start`, if any.
pub(crate) fn ident_at(code: &str, start: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut end = start;
    while end < bytes.len() && is_ident_char(bytes[end]) {
        end += 1;
    }
    (end > start).then(|| &code[start..end])
}

/// Skips a balanced `(...)` group ending at `close` (offset of `)`),
/// returning the offset of the matching `(`.
pub(crate) fn open_paren_of(code: &str, close: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    if bytes.get(close) != Some(&b')') {
        return None;
    }
    let mut depth = 0i32;
    let mut i = close;
    loop {
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Finds the byte offset of the brace matching the `{` at `open`.
pub(crate) fn matching_brace(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    if bytes.get(open) != Some(&b'{') {
        return None;
    }
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Forward matcher for `(...)` starting at `open`.
pub(crate) fn matching_paren_fwd(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    if bytes.get(open) != Some(&b'(') {
        return None;
    }
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_strings_and_comments() {
        let src = "let a = \"thread::spawn\"; // thread::spawn\nlet b = 'x';\n";
        let m = SourceModel::new(src);
        assert!(!m.code.contains("thread::spawn"));
        assert!(m.comments.contains("thread::spawn"));
        assert_eq!(src.len(), m.code.len());
        assert_eq!(src.len(), m.comments.len());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let m = SourceModel::new("fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(m.code.contains("fn f<'a>"));
    }

    #[test]
    fn cfg_test_mod_lines_are_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let m = SourceModel::new(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(4));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn suppression_rationale_is_detected() {
        let m = SourceModel::new(
            "let a = 1; // eden-lint: allow(lock-order): registration is a leaf\nlet b = 2; // eden-lint: allow(lock-order)\n",
        );
        let map = collect_suppressions(&m);
        let lines = &map[&Rule::LockOrder];
        assert!(lines[&1].with_rationale);
        assert!(!lines[&2].with_rationale);
    }
}
