//! L8 `wire-schema-drift`: the wire schema's three representations —
//! `TAG_*` constants, message/enum variant lists, and the obs_codec
//! `*_to_value` / `*_from_value` Value codecs — must agree.
//!
//! Checks, all scoped to `crates/wire` (enum declarations are gathered
//! workspace-wide so codecs for e.g. `eden-obs`'s `KernelEvent` are
//! checked too):
//!
//! * no two `TAG_*` constants in one file share a value;
//! * every tag is both encoded (`put_u8(TAG_X)`) and decoded
//!   (`TAG_X =>` match arm) somewhere in the workspace — a tag with
//!   neither is retired and must be deleted;
//! * for an enum with both `WireEncode` and `WireDecode` impls, every
//!   declared variant appears in both impl bodies, and no impl arm
//!   references a variant the declaration no longer has;
//! * for `*_to_value` / `*_from_value` function pairs, the variant sets
//!   referenced on the two sides must match (checked only for enums
//!   referenced on *both* sides, so pure value-algebra helpers don't
//!   false-positive), and every referenced variant must still be
//!   declared.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::word_occurrences;
use crate::model::Workspace;
use crate::{Finding, Rule};

/// One side of an enum's codec, encode or decode: variant → site line.
type Refs<'a> = BTreeMap<&'a str, usize>;

pub(crate) fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let enum_map = ws.enum_map();
    let wire_files = || ws.files.iter().filter(|f| f.crate_key == "wire");

    // Duplicate tag values within one file's tag namespace.
    for file in wire_files() {
        let mut by_value: BTreeMap<u64, &str> = BTreeMap::new();
        for t in &file.tags {
            if let Some(prev) = by_value.insert(t.value, &t.name) {
                out.push(Finding {
                    rule: Rule::WireSchemaDrift,
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "duplicate wire tag value {}: `{}` collides with `{prev}`; \
                         a decoder cannot tell the two messages apart",
                        t.value, t.name
                    ),
                    suppressed: false,
                });
            }
        }
    }

    // Every tag both encoded and decoded somewhere in the workspace.
    for file in wire_files() {
        for t in &file.tags {
            let (enc, dec) = tag_uses(ws, &t.name);
            let message = match (enc > 0, dec > 0) {
                (true, true) => continue,
                (false, false) => format!(
                    "retired wire tag `{}`: declared but neither encoded nor decoded \
                     anywhere; delete the constant",
                    t.name
                ),
                (true, false) => format!(
                    "wire tag `{}` is encoded but has no `{0} =>` decode arm; peers \
                     sending it will be rejected as BadTag",
                    t.name
                ),
                (false, true) => format!(
                    "wire tag `{}` has a decode arm but is never encoded; the arm is \
                     dead schema — retire it or add the encoder",
                    t.name
                ),
            };
            out.push(Finding {
                rule: Rule::WireSchemaDrift,
                file: file.rel_path.clone(),
                line: t.line,
                message,
                suppressed: false,
            });
        }
    }

    // WireEncode/WireDecode impl coverage per enum.
    for file in wire_files() {
        let has_both = |name: &str| {
            file.impls.iter().any(|i| i.enum_name == name && i.encode)
                && file.impls.iter().any(|i| i.enum_name == name && !i.encode)
        };
        for imp in &file.impls {
            let Some(def) = enum_map.get(imp.enum_name.as_str()) else {
                continue;
            };
            if !has_both(&imp.enum_name) {
                continue;
            }
            let refs: BTreeSet<&str> = imp
                .refs
                .iter()
                .filter(|r| r.enum_name == imp.enum_name)
                .map(|r| r.variant.as_str())
                .collect();
            if refs.is_empty() {
                continue; // numeric-cast codec; variant arms live elsewhere
            }
            let side = if imp.encode { "encode" } else { "decode" };
            for v in &def.variants {
                if !refs.contains(v.as_str()) {
                    out.push(Finding {
                        rule: Rule::WireSchemaDrift,
                        file: file.rel_path.clone(),
                        line: imp.line,
                        message: format!(
                            "variant `{}::{v}` has no arm in `impl Wire{}`; every \
                             declared variant needs both an encode and a decode arm",
                            imp.enum_name,
                            if imp.encode { "Encode" } else { "Decode" },
                        ),
                        suppressed: false,
                    });
                }
            }
            for r in &imp.refs {
                if r.enum_name == imp.enum_name && !def.variants.iter().any(|v| v == &r.variant) {
                    out.push(Finding {
                        rule: Rule::WireSchemaDrift,
                        file: file.rel_path.clone(),
                        line: r.line,
                        message: format!(
                            "retired variant `{}::{}` still has a {side} arm; the enum \
                             no longer declares it",
                            r.enum_name, r.variant
                        ),
                        suppressed: false,
                    });
                }
            }
        }
    }

    // *_to_value / *_from_value pairing per referenced enum.
    for file in wire_files() {
        // enum name → (encode refs, decode refs).
        let mut sides: BTreeMap<&str, (Refs, Refs)> = BTreeMap::new();
        for cf in &file.codec_fns {
            for r in &cf.refs {
                let entry = sides.entry(r.enum_name.as_str()).or_default();
                let side = if cf.encode {
                    &mut entry.0
                } else {
                    &mut entry.1
                };
                side.entry(r.variant.as_str()).or_insert(r.line);
            }
        }
        for (enum_name, (enc, dec)) in &sides {
            if enc.is_empty() || dec.is_empty() {
                continue; // value-algebra helper, not a variant dispatch
            }
            for (v, &line) in enc {
                if !dec.contains_key(v) {
                    out.push(Finding {
                        rule: Rule::WireSchemaDrift,
                        file: file.rel_path.clone(),
                        line,
                        message: format!(
                            "variant `{enum_name}::{v}` is encoded by a *_to_value codec \
                             but never decoded by the paired *_from_value; round-trips drop it"
                        ),
                        suppressed: false,
                    });
                }
            }
            for (v, &line) in dec {
                if !enc.contains_key(v) {
                    out.push(Finding {
                        rule: Rule::WireSchemaDrift,
                        file: file.rel_path.clone(),
                        line,
                        message: format!(
                            "variant `{enum_name}::{v}` is decoded by a *_from_value codec \
                             but never produced by the paired *_to_value; dead decode arm"
                        ),
                        suppressed: false,
                    });
                }
            }
            if let Some(def) = enum_map.get(enum_name) {
                for (v, &line) in enc.iter().chain(dec.iter()) {
                    if !def.variants.iter().any(|d| d == v) {
                        out.push(Finding {
                            rule: Rule::WireSchemaDrift,
                            file: file.rel_path.clone(),
                            line,
                            message: format!(
                                "retired variant `{enum_name}::{v}` still has a Value codec \
                                 arm; the enum no longer declares it"
                            ),
                            suppressed: false,
                        });
                    }
                }
            }
        }
    }
}

/// Workspace-wide `(encode, decode)` use counts for one tag constant:
/// encode = the tag passed as a call argument (`put_u8(TAG_X)`),
/// decode = the tag used as a match-arm pattern (`TAG_X =>`, or-patterns
/// included). The declaration itself counts as neither.
fn tag_uses(ws: &Workspace, tag: &str) -> (usize, usize) {
    let mut enc = 0usize;
    let mut dec = 0usize;
    for file in &ws.files {
        let code = &file.model.code;
        for at in word_occurrences(code, tag) {
            if file.model.is_test_line(file.model.line_of(at)) {
                continue;
            }
            let lead = code[..at].trim_end();
            let tail = code[at + tag.len()..].trim_start();
            if lead.ends_with("const") {
                continue;
            }
            // Decode first: a match arm's lead is often the previous
            // arm's trailing `,`, which must not read as a call argument.
            if tail.starts_with("=>") || tail.starts_with('|') {
                dec += 1;
            } else if lead.ends_with('(') || lead.ends_with(',') {
                enc += 1;
            }
        }
    }
    (enc, dec)
}
