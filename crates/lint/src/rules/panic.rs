//! L3 `panic-hygiene`: no panicking accessors on locks or channel ends
//! in kernel code.

use crate::lexer::{ident_before, open_paren_of, word_occurrences, SourceModel};
use crate::{Finding, Rule};

pub(crate) fn check(rel_path: &str, model: &SourceModel, out: &mut Vec<Finding>) {
    let scoped = [
        "crates/core/src",
        "crates/obs/src",
        "crates/wire/src",
        "crates/transport/src",
        "crates/directory/src",
    ];
    if !scoped.iter().any(|s| rel_path.starts_with(s)) {
        return;
    }
    const TARGETS: [&str; 10] = [
        "lock",
        "try_lock",
        "read",
        "write",
        "recv",
        "recv_timeout",
        "try_recv",
        "send",
        "try_send",
        "join",
    ];
    let code = &model.code;
    let mut sites: Vec<(usize, &'static str)> = Vec::new();
    for at in word_occurrences(code, "unwrap") {
        if code[at..].starts_with("unwrap()") {
            sites.push((at, ".unwrap()"));
        }
    }
    for at in word_occurrences(code, "expect") {
        if code.as_bytes().get(at + 6) == Some(&b'(') {
            sites.push((at, ".expect(…)"));
        }
    }
    for (at, what) in sites {
        // Require `.` immediately before, then a balanced call group,
        // then one of the lock/channel method names.
        let mut dot = at;
        while dot > 0 && code.as_bytes()[dot - 1].is_ascii_whitespace() {
            dot -= 1;
        }
        if dot == 0 || code.as_bytes()[dot - 1] != b'.' {
            continue;
        }
        let mut close = dot - 1;
        while close > 0 && code.as_bytes()[close - 1].is_ascii_whitespace() {
            close -= 1;
        }
        if close == 0 || code.as_bytes()[close - 1] != b')' {
            continue;
        }
        let Some(open) = open_paren_of(code, close - 1) else {
            continue;
        };
        let Some(method) = ident_before(code, open) else {
            continue;
        };
        if !TARGETS.contains(&method) {
            continue;
        }
        let line = model.line_of(at);
        if model.is_test_line(line) {
            continue;
        }
        out.push(Finding {
            rule: Rule::PanicHygiene,
            file: rel_path.to_string(),
            line,
            message: format!(
                "{what} on `.{method}(…)` in non-test kernel code; propagate the error or \
                 recover (e.g. `unwrap_or_else(|e| e.into_inner())` for poisoned locks)"
            ),
            suppressed: false,
        });
    }
}
