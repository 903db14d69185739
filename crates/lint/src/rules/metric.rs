//! L5 `metric-discipline`: telemetry flows through the obs registry. An
//! atomic integer field or static with a metric-shaped name (`*_count`,
//! `*_sent`, `*_total`, …) in kernel or transport code is a parallel
//! metrics system: it is invisible to Prometheus export, metric
//! merging, and the monitor, and it skips the registry's naming
//! discipline.

use std::collections::HashSet;

use crate::lexer::{is_ident_char, word_occurrences, SourceModel};
use crate::{Finding, Rule};

pub(crate) fn check(rel_path: &str, model: &SourceModel, out: &mut Vec<Finding>) {
    let scoped =
        rel_path.starts_with("crates/core/src/") || rel_path.starts_with("crates/transport/src/");
    if !scoped {
        return;
    }
    const TYPES: [&str; 4] = ["AtomicU64", "AtomicU32", "AtomicUsize", "AtomicI64"];
    let code = &model.code;
    let mut seen_lines: HashSet<usize> = HashSet::new();
    for ty in TYPES {
        for at in word_occurrences(code, ty) {
            let line = model.line_of(at);
            if model.is_test_line(line) || !seen_lines.insert(line) {
                continue;
            }
            let Some(name) = declared_name(model.code_line(line)) else {
                continue;
            };
            if !is_metric_name(&name) {
                continue;
            }
            out.push(Finding {
                rule: Rule::MetricDiscipline,
                file: rel_path.to_string(),
                line,
                message: format!(
                    "ad-hoc atomic metric `{name}` in kernel/transport code; counters, \
                     gauges and histograms must go through the obs registry \
                     (ObsRegistry::counter/gauge/histogram) so they export, merge and \
                     scrape like every other metric"
                ),
                suppressed: false,
            });
        }
    }
}

/// The declared name on a `name: Type` line — a struct field, a
/// struct-literal initializer, or a (possibly `pub`) `static` item.
/// Returns `None` for lines that are not declarations (method chains,
/// imports, locals).
fn declared_name(line_code: &str) -> Option<String> {
    let mut t = line_code.trim_start();
    for prefix in ["pub ", "static ", "mut "] {
        loop {
            if let Some(rest) = t.strip_prefix(prefix) {
                t = rest.trim_start();
            } else if prefix == "pub " && t.starts_with("pub(") {
                t = t.split_once(')')?.1.trim_start();
            } else {
                break;
            }
        }
    }
    let (name, _) = t.split_once(':')?;
    let name = name.trim_end();
    (!name.is_empty() && name.bytes().all(is_ident_char)).then(|| name.to_string())
}

/// Whether an identifier reads as a metric: exactly one of the metric
/// words, or carrying one as an underscore-separated component.
fn is_metric_name(name: &str) -> bool {
    const METRIC_WORDS: [&str; 22] = [
        "count",
        "counts",
        "counter",
        "counters",
        "total",
        "totals",
        "hits",
        "misses",
        "dropped",
        "drops",
        "shed",
        "sent",
        "received",
        "failures",
        "retries",
        "stalls",
        "errors",
        "rejected",
        "executed",
        "evictions",
        "broadcasts",
        "latency",
    ];
    let lname = name.to_ascii_lowercase();
    METRIC_WORDS.iter().any(|w| {
        lname == *w
            || lname.starts_with(&format!("{w}_"))
            || lname.ends_with(&format!("_{w}"))
            || lname.contains(&format!("_{w}_"))
    })
}
