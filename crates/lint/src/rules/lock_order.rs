//! L6 `lock-order`: the "lock A held while acquiring lock B" graph
//! across eden-kernel, eden-transport and eden-directory must agree
//! with the sanctioned total order in `lint-lock-order.toml`.
//!
//! Edges come from two sources: two acquisitions whose lexical hold
//! spans nest inside one function, and a call made while a guard is
//! held to a function that (transitively, same crate) acquires more
//! locks. Violations are reentrant edges (`A → A`), inversions of the
//! declared order, and edges touching a lock the order file does not
//! rank. `[[allow]]` entries in the TOML and
//! `// eden-lint: allow(lock-order): <rationale>` comments exempt an
//! edge; the rationale is mandatory.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::model::{CallSite, FileModel, FnRef, Workspace};
use crate::{Finding, LockOrderSpec, Rule};

/// Crates whose lock graphs the rule gates.
const SCOPE: [&str; 3] = ["core", "transport", "directory"];

/// One "held while acquiring" edge, for findings and the DOT artifact.
#[derive(Debug, Clone)]
pub(crate) struct LockEdge {
    pub(crate) from: String,
    pub(crate) to: String,
    pub(crate) file: String,
    pub(crate) line: usize,
    /// The callee the acquisition was reached through, if indirect.
    pub(crate) via: Option<String>,
}

pub(crate) fn check(ws: &Workspace, spec: &LockOrderSpec, out: &mut Vec<Finding>) -> Vec<LockEdge> {
    let edges = collect_edges(ws);
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &edges {
        if !seen.insert((e.from.clone(), e.to.clone())) {
            continue; // one finding per distinct edge, at its first site
        }
        let via = e
            .via
            .as_ref()
            .map(|v| format!(" (via call to `{v}`)"))
            .unwrap_or_default();
        if e.from == e.to {
            out.push(finding(
                e,
                format!(
                    "reentrant acquisition: `{}` is acquired while already held{via}; \
                     the sync shim's mutexes are not reentrant, this deadlocks",
                    e.from
                ),
            ));
            continue;
        }
        if spec.allows(&e.from, &e.to) {
            continue;
        }
        match (spec.index(&e.from), spec.index(&e.to)) {
            (Some(a), Some(b)) if a < b => {}
            (Some(_), Some(_)) => out.push(finding(
                e,
                format!(
                    "lock-order inversion: `{}` acquired while `{}` is held{via}, but \
                     lint-lock-order.toml ranks `{1}` before `{0}`",
                    e.to, e.from
                ),
            )),
            _ => {
                let missing: Vec<&str> = [&e.from, &e.to]
                    .into_iter()
                    .filter(|id| spec.index(id).is_none())
                    .map(String::as_str)
                    .collect();
                out.push(finding(
                    e,
                    format!(
                        "nested acquisition `{}` → `{}`{via} involves lock(s) not ranked \
                         in lint-lock-order.toml ({}); add them to the sanctioned order",
                        e.from,
                        e.to,
                        missing.join(", ")
                    ),
                ));
            }
        }
    }
    edges
}

fn finding(e: &LockEdge, message: String) -> Finding {
    Finding {
        rule: Rule::LockOrder,
        file: e.file.clone(),
        line: e.line,
        message,
        suppressed: false,
    }
}

/// Builds the full edge list: intra-function hold-span nesting plus
/// calls made under a guard into functions that may acquire (computed
/// as a same-crate transitive fixpoint over [`Workspace::callees`]).
fn collect_edges(ws: &Workspace) -> Vec<LockEdge> {
    // may_acquire: function → lock ids it can take, transitively.
    let mut acq: HashMap<FnRef, BTreeSet<String>> = HashMap::new();
    for (fi, file) in scoped(ws) {
        for (gi, f) in file.fns.iter().enumerate() {
            let entry = acq.entry((fi, gi)).or_default();
            for l in &f.locks {
                entry.insert(ws.lock_id(file, &l.field));
            }
        }
    }
    // Calls taken on the caller's own stack; submit/spawn closures run
    // later, on a pool worker or a fresh thread.
    let on_stack = |file: &FileModel, c: &CallSite| {
        if c.in_submit || c.in_spawn {
            Vec::new()
        } else {
            ws.callees(file, c)
        }
    };
    loop {
        let mut changed = false;
        for (fi, file) in scoped(ws) {
            for (gi, f) in file.fns.iter().enumerate() {
                let mut add = BTreeSet::new();
                for c in &f.calls {
                    for callee in on_stack(file, c) {
                        if let Some(set) = acq.get(&callee) {
                            add.extend(set.iter().cloned());
                        }
                    }
                }
                let entry = acq.entry((fi, gi)).or_default();
                for id in add {
                    changed |= entry.insert(id);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges = Vec::new();
    for (_, file) in scoped(ws) {
        for f in &file.fns {
            for a in &f.locks {
                let from = ws.lock_id(file, &a.field);
                for b in &f.locks {
                    if b.at > a.at && b.at < a.hold_end {
                        edges.push(LockEdge {
                            from: from.clone(),
                            to: ws.lock_id(file, &b.field),
                            file: file.rel_path.clone(),
                            line: file.model.line_of(b.at),
                            via: None,
                        });
                    }
                }
                for c in &f.calls {
                    if c.at <= a.at || c.at >= a.hold_end {
                        continue;
                    }
                    let reached: BTreeSet<&String> = on_stack(file, c)
                        .iter()
                        .filter_map(|callee| acq.get(callee))
                        .flatten()
                        .collect();
                    for to in reached {
                        edges.push(LockEdge {
                            from: from.clone(),
                            to: to.clone(),
                            file: file.rel_path.clone(),
                            line: file.model.line_of(c.at),
                            via: Some(c.callee.clone()),
                        });
                    }
                }
            }
        }
    }
    edges.sort_by(|a, b| (&a.file, a.line, &a.from, &a.to).cmp(&(&b.file, b.line, &b.from, &b.to)));
    edges
}

fn scoped(ws: &Workspace) -> impl Iterator<Item = (usize, &FileModel)> {
    ws.files
        .iter()
        .enumerate()
        .filter(|(_, f)| SCOPE.contains(&f.crate_key.as_str()))
}

/// Renders the lock graph as DOT. `exempt` holds `(from, to)` pairs
/// sanctioned by `[[allow]]` or by a rationale-carrying suppression;
/// they render dashed and are excluded from the acyclicity verdict in
/// the `// acyclic-modulo-allowed:` header CI greps for.
pub(crate) fn to_dot(
    edges: &[LockEdge],
    spec: &LockOrderSpec,
    exempt: &HashSet<(String, String)>,
) -> String {
    // Dedup to one rendered edge per (from, to); prefer a direct site.
    let mut uniq: BTreeMap<(String, String), &LockEdge> = BTreeMap::new();
    for e in edges {
        uniq.entry((e.from.clone(), e.to.clone()))
            .and_modify(|cur| {
                if cur.via.is_some() && e.via.is_none() {
                    *cur = e;
                }
            })
            .or_insert(e);
    }
    let is_exempt = |from: &str, to: &str| {
        spec.allows(from, to) || exempt.contains(&(from.to_string(), to.to_string()))
    };

    // Cycle check over the strict (non-exempt) edges, self-loops included.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in uniq.keys() {
        if !is_exempt(from, to) {
            adj.entry(from).or_default().push(to);
        }
    }
    let acyclic = !has_cycle(&adj);

    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (from, to) in uniq.keys() {
        nodes.insert(from);
        nodes.insert(to);
    }
    let mut dot = String::new();
    dot.push_str(
        "// eden-lint lock-order graph: \"A -> B\" means lock A is held while acquiring B.\n",
    );
    dot.push_str("// Dashed edges are sanctioned by lint-lock-order.toml [[allow]] or a\n");
    dot.push_str(
        "// rationale-carrying allow(lock-order) comment; CI requires the rest acyclic.\n",
    );
    dot.push_str(&format!("// acyclic-modulo-allowed: {acyclic}\n"));
    dot.push_str("digraph lock_order {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
    for n in &nodes {
        dot.push_str(&format!("  \"{n}\";\n"));
    }
    for ((from, to), e) in &uniq {
        let mut attrs = vec![format!("label=\"{}:{}\"", e.file, e.line)];
        if let Some(via) = &e.via {
            attrs.push(format!("taillabel=\"via {via}\""));
        }
        if is_exempt(from, to) {
            attrs.push("style=dashed".to_string());
            attrs.push("color=gray".to_string());
        }
        dot.push_str(&format!(
            "  \"{from}\" -> \"{to}\" [{}];\n",
            attrs.join(", ")
        ));
    }
    dot.push_str("}\n");
    dot
}

fn has_cycle(adj: &BTreeMap<&str, Vec<&str>>) -> bool {
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state: HashMap<&str, u8> = HashMap::new();
    fn visit<'a>(
        n: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        state: &mut HashMap<&'a str, u8>,
    ) -> bool {
        match state.get(n) {
            Some(1) => return true,
            Some(2) => return false,
            _ => {}
        }
        state.insert(n, 1);
        for next in adj.get(n).into_iter().flatten() {
            if visit(next, adj, state) {
                return true;
            }
        }
        state.insert(n, 2);
        false
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.into_iter().any(|n| visit(n, adj, &mut state))
}
