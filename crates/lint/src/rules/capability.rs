//! L1 `capability-discipline`: rights checks precede effects on
//! capability-bearing public kernel entry points.

use crate::lexer::{
    ident_before, matching_brace, matching_paren_fwd, word_occurrences, SourceModel,
};
use crate::{Finding, Rule};

pub(crate) fn check(rel_path: &str, model: &SourceModel, out: &mut Vec<Finding>) {
    // The node's module root, its section files, and the object layer.
    let in_scope = rel_path == "crates/core/src/node.rs"
        || rel_path.starts_with("crates/core/src/node/")
        || rel_path == "crates/core/src/object.rs";
    if !in_scope {
        return;
    }
    const CHECKS: [&str; 3] = ["permits(", "check_rights", "require_rights"];
    const EFFECTS: [&str; 7] = [
        ".endpoint.",
        ".store.",
        ".dispatch",
        "dispatch(",
        ".enqueue",
        "send_invoke(",
        "locate_broadcast(",
    ];
    let code = &model.code;
    for at in word_occurrences(code, "fn") {
        // Only `pub fn` (not `pub(crate) fn`): look back for `pub` with
        // nothing but whitespace between.
        let Some(prev) = ident_before(code, at) else {
            continue;
        };
        if prev != "pub" {
            continue;
        }
        let line = model.line_of(at);
        if model.is_test_line(line) {
            continue;
        }
        let Some(params_open) = code[at..].find('(').map(|p| at + p) else {
            continue;
        };
        let Some(params_close) = matching_paren_fwd(code, params_open) else {
            continue;
        };
        let params = &code[params_open + 1..params_close];
        let Some(cap_param) = capability_param(params) else {
            continue;
        };
        let Some(body_open) = code[params_close..].find('{').map(|p| params_close + p) else {
            continue;
        };
        let Some(body_close) = matching_brace(code, body_open) else {
            continue;
        };
        let body = &code[body_open..body_close];

        let first_effect = EFFECTS.iter().filter_map(|t| body.find(t)).min();
        let Some(effect_at) = first_effect else {
            continue; // No store/transport/dispatch on this path.
        };
        let first_check = CHECKS.iter().filter_map(|t| body.find(t)).min();
        // Forwarding the capability into another call (delegation to a
        // checked entry point) also counts as the guard.
        let first_forward = word_occurrences(body, &cap_param).into_iter().find(|&p| {
            let lead = body[..p].trim_end();
            lead.ends_with('(') || lead.ends_with(',')
        });
        let guard = match (first_check, first_forward) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if guard.map(|g| g > effect_at).unwrap_or(true) {
            let fn_name = code[at + 2..params_open].trim().to_string();
            out.push(Finding {
                rule: Rule::CapabilityDiscipline,
                file: rel_path.to_string(),
                line,
                message: format!(
                    "public kernel entry point `{fn_name}` accepts a Capability but reaches \
                     a store/transport/dispatch call before any rights check \
                     (permits/check_rights/require_rights) or checked delegation"
                ),
                suppressed: false,
            });
        }
    }
}

/// The name of the first parameter typed `Capability` / `&Capability`.
fn capability_param(params: &str) -> Option<String> {
    let mut depth = 0i32;
    let mut start = 0usize;
    let bytes = params.as_bytes();
    let mut pieces = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'<' | b'[' => depth += 1,
            b')' | b'>' | b']' => depth -= 1,
            b',' if depth == 0 => {
                pieces.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&params[start..]);
    for piece in pieces {
        let Some((name, ty)) = piece.split_once(':') else {
            continue;
        };
        let ty = ty.trim().trim_start_matches('&').trim();
        if ty == "Capability" || ty.ends_with("::Capability") {
            return Some(name.trim().trim_start_matches("mut ").trim().to_string());
        }
    }
    None
}
