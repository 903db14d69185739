//! L2 `wire-exhaustiveness`: matches over wire `Status` and directory
//! enums must enumerate their variants — no `_ =>` wildcards, so a new
//! wire variant breaks at lint time instead of being silently swallowed
//! at runtime.

use crate::lexer::{matching_brace, word_occurrences, SourceModel};
use crate::{Finding, Rule};

pub(crate) fn check(rel_path: &str, model: &SourceModel, out: &mut Vec<Finding>) {
    if !(rel_path.starts_with("crates/wire/src")
        || rel_path.starts_with("crates/core/src")
        || rel_path.starts_with("crates/directory/src"))
    {
        return;
    }
    let code = &model.code;
    for at in word_occurrences(code, "match") {
        let line = model.line_of(at);
        if model.is_test_line(line) {
            continue;
        }
        // Scrutinee runs to the first `{` at bracket depth 0.
        let mut depth = 0i32;
        let mut open = None;
        for (i, b) in code.bytes().enumerate().skip(at + 5) {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if depth == 0 => break, // not a match expression
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_brace(code, open) else {
            continue;
        };
        let arms = match_arms(&code[open + 1..close]);
        let is_wire_match = arms.iter().any(|(pat, _)| {
            // "Status::" also covers "MemberStatus::".
            pat.contains("Status::")
                || pat.contains("DirState::")
                || pat.contains("DirRegisterKind::")
        });
        if !is_wire_match {
            continue;
        }
        for (pat, rel_off) in &arms {
            let wildcard = pat
                .split('|')
                .any(|alt| alt.trim() == "_" || alt.trim().starts_with("_ if"));
            if wildcard {
                out.push(Finding {
                    rule: Rule::WireExhaustiveness,
                    file: rel_path.to_string(),
                    line: model.line_of(open + 1 + rel_off),
                    message: "wildcard `_ =>` arm in a match over wire Status variants; \
                              enumerate the variants (or bind a name for the error path) so \
                              new wire tags fail loudly"
                        .to_string(),
                    suppressed: false,
                });
            }
        }
    }
}

/// Splits a match body into `(pattern, offset_of_pattern)` pairs.
/// Patterns run to the first `=>` at bracket depth 0; arm bodies are a
/// balanced block or run to the next `,` at depth 0.
fn match_arms(body: &str) -> Vec<(String, usize)> {
    let bytes = body.as_bytes();
    let mut arms = Vec::new();
    let mut i = 0usize;
    let len = bytes.len();
    while i < len {
        while i < len && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
            i += 1;
        }
        if i >= len {
            break;
        }
        let pat_start = i;
        let mut depth = 0i32;
        let mut arrow = None;
        while i < len {
            match bytes[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'=' if depth == 0 && bytes.get(i + 1) == Some(&b'>') => {
                    arrow = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let Some(arrow) = arrow else { break };
        arms.push((body[pat_start..arrow].trim().to_string(), pat_start));
        i = arrow + 2;
        while i < len && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < len && bytes[i] == b'{' {
            let mut depth = 0i32;
            while i < len {
                match bytes[i] {
                    b'{' => depth += 1,
                    b'}' => {
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
        } else {
            let mut depth = 0i32;
            while i < len {
                match bytes[i] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
        }
    }
    arms
}
