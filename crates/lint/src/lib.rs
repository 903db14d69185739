//! `eden-lint`: Eden-specific invariants clippy cannot express.
//!
//! The Eden argument (paper §2, §4.1–4.2) rests on discipline the Rust
//! type system does not enforce for us: every kernel entry point must
//! verify capability rights before acting, a pool worker must yield its
//! processor before it blocks, and wire-tag dispatch must fail loudly
//! when a new tag appears. Following Lampson's advice to make such
//! invariants *checkable* rather than conventional, this crate parses
//! the whole workspace (a purpose-built lexer — the build image has no
//! network access for `syn`) and enforces six rules.
//!
//! Rules 1–4 are per-file token rules; rules 5–6 are *graph* rules
//! built on a per-function model of the workspace (lock-guard
//! acquisitions with hold spans, an approximate intra-crate call
//! graph and blocking-call sites — see `model` for the soundness
//! caveats):
//!
//! * **L1 `capability-discipline`** — every *public* kernel entry point
//!   in `node.rs`, the `node/` section files or `object.rs` that
//!   accepts a `Capability` must either
//!   call a rights check (`permits` / `check_rights` / `require_rights`)
//!   or forward the capability into another checked call *before* any
//!   store, transport, or dispatch effect on that path.
//! * **L2 `wire-exhaustiveness`** — `match` statements whose arms match
//!   wire `Status`/`MemberStatus` or directory `DirState`/
//!   `DirRegisterKind` variants (in `eden-wire`, `eden-core` and
//!   `eden-directory`) must not use a `_ =>` wildcard arm, so a new
//!   variant (like `Status::Overloaded`, tag 11) breaks at lint time
//!   instead of being silently swallowed at runtime. A *named* binding
//!   arm (`other =>`) stays legal for an error path.
//! * **L3 `panic-hygiene`** — no `.unwrap()` / `.expect(…)` directly on
//!   lock acquisitions or channel ends (`lock`, `read`, `write`, `recv`,
//!   `send`, `join`, …) in non-test kernel code.
//! * **L4 `metric-discipline`** — telemetry flows through the obs
//!   registry: no ad-hoc metric-named atomic counters in `eden-core` or
//!   `eden-transport`.
//! * **L5 `lock-order`** — the "lock A held while acquiring lock B"
//!   graph across eden-kernel/eden-transport/eden-directory must agree
//!   with the total order in `lint-lock-order.toml`: no reentrant
//!   edges, no inversions, no unranked locks in nested acquisitions.
//! * **L6 `blocking-discipline`** — blocking operations reachable from
//!   a pool `submit(…)` closure must be wrapped in the pool's
//!   `blocking(…)` spare-injection guard.
//!
//! Where clippy can check an invariant, clippy does. Each kernel and
//! transport thread starts through `eden_obs::thread::spawn`, which
//! names it for its role: the `clippy.toml` of `eden-kernel`,
//! `eden-transport` and `eden-obs` lists `std::thread::spawn` and
//! `std::thread::Builder::spawn` under `disallowed-methods`.
//!
//! The wire schema needs no rule of its own: each wire enum is one
//! `wire_enum!` table in `eden-wire` that generates the enum and both
//! codec directions, so no variant can lack a codec arm and a duplicate
//! tag fails to compile.
//!
//! Findings can be suppressed with a `// eden-lint: allow(<rule>)`
//! comment on the offending line or on the line directly above it;
//! suppressed findings are still counted and reported. The graph rules
//! (5–6) only honor suppressions that carry a written rationale after
//! the closing paren — `// eden-lint: allow(lock-order): <why>`.
//!
//! Test code is exempt everywhere: files under `tests/`, `benches/`,
//! `examples/` or `fixtures/` directories, and `#[cfg(test)] mod`
//! bodies inside library files.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod lexer;
mod model;
mod rules;

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::path::Path;

/// The six invariants eden-lint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// L1: rights are checked before a capability-bearing entry point
    /// reaches the store, the transport, or dispatch.
    CapabilityDiscipline,
    /// L2: no `_ =>` wildcards in matches over wire `Status`/tag enums.
    WireExhaustiveness,
    /// L3: no `unwrap`/`expect` on locks or channel ends in kernel code.
    PanicHygiene,
    /// L4: metrics go through the obs registry, not ad-hoc atomics.
    MetricDiscipline,
    /// L5: nested lock acquisitions follow the sanctioned total order.
    LockOrder,
    /// L6: no blocking calls on pool workers outside `blocking(…)`.
    BlockingDiscipline,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 6] = [
        Rule::CapabilityDiscipline,
        Rule::WireExhaustiveness,
        Rule::PanicHygiene,
        Rule::MetricDiscipline,
        Rule::LockOrder,
        Rule::BlockingDiscipline,
    ];

    /// The stable kebab-case name used in reports and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::CapabilityDiscipline => "capability-discipline",
            Rule::WireExhaustiveness => "wire-exhaustiveness",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::MetricDiscipline => "metric-discipline",
            Rule::LockOrder => "lock-order",
            Rule::BlockingDiscipline => "blocking-discipline",
        }
    }

    /// Parses a rule name as used in `allow(<rule>)`.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// Whether this is a workspace graph rule (5–6), whose suppressions
    /// must carry a written rationale.
    pub fn is_graph_rule(self) -> bool {
        matches!(self, Rule::LockOrder | Rule::BlockingDiscipline)
    }

    /// The rule's rationale and escape-hatch syntax, for `--explain`
    /// and the JSON report.
    pub fn explanation(self) -> &'static str {
        match self {
            Rule::CapabilityDiscipline => {
                "Every public kernel entry point taking a Capability must verify rights \
                 (permits/check_rights/require_rights) or delegate the capability into a \
                 checked call before touching the store, the transport, or dispatch — the \
                 paper's protection model (§4.1) has no other enforcement point. Escape: \
                 `// eden-lint: allow(capability-discipline)` on the `pub fn` line."
            }
            Rule::WireExhaustiveness => {
                "Matches over wire Status/directory enums must enumerate variants; a \
                 `_ =>` wildcard silently swallows new wire tags at runtime instead of \
                 failing at lint time. Bind a name (`other =>`) for the error path. Escape: \
                 `// eden-lint: allow(wire-exhaustiveness)` on the wildcard arm."
            }
            Rule::PanicHygiene => {
                "`.unwrap()`/`.expect(…)` on lock acquisitions or channel ends turns a \
                 poisoned lock or closed channel into a node-wide panic; propagate the \
                 error or recover (e.g. `unwrap_or_else(|e| e.into_inner())`). Escape: \
                 `// eden-lint: allow(panic-hygiene)` on the call line."
            }
            Rule::MetricDiscipline => {
                "Counters, gauges and histograms go through the obs registry so they \
                 export, merge and scrape uniformly; metric-named atomics in kernel or \
                 transport code are a parallel, invisible metrics system. Escape: \
                 `// eden-lint: allow(metric-discipline)` on the field line."
            }
            Rule::LockOrder => {
                "Nested lock acquisitions across eden-kernel/eden-transport/eden-directory \
                 must follow the total order in lint-lock-order.toml; an inversion is a \
                 latent deadlock the paper's §2 'nesting can never deadlock the node' claim \
                 forbids. The graph (including edges reached through same-crate calls) is \
                 emitted to target/artifacts/lock-order.dot. Escapes: an `[[allow]]` entry \
                 in lint-lock-order.toml with a reason, or \
                 `// eden-lint: allow(lock-order): <rationale>` — the rationale is required."
            }
            Rule::BlockingDiscipline => {
                "A virtual processor that blocks (recv_timeout, wait, sleep, fsync, \
                 connect/dial, join) starves the run queue; any such call inside a \
                 submit(…) closure, or in a function reachable from one, must be wrapped \
                 in vproc::blocking(…) so the pool injects a spare worker. \
                 Escape: `// eden-lint: allow(blocking-discipline): <rationale>` — the \
                 rationale is required."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which invariant was violated.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// Whether an `eden-lint: allow(...)` comment covers this line.
    pub suppressed: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.file,
            self.line,
            self.rule,
            self.message,
            if self.suppressed { " (suppressed)" } else { "" }
        )
    }
}

/// The outcome of scanning a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed or not, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by a suppression comment.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// `(unsuppressed, suppressed)` counts per rule, for the summary.
    pub fn counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for rule in Rule::ALL {
            counts.insert(rule.name(), (0, 0));
        }
        for f in &self.findings {
            let entry = counts.entry(f.rule.name()).or_default();
            if f.suppressed {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
        }
        counts
    }

    /// Serializes the report as a stable machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"suppressed\": {}, \"message\": \"{}\"}}{}\n",
                f.rule,
                json_escape(&f.file),
                f.line,
                f.suppressed,
                json_escape(&f.message),
                if i + 1 == self.findings.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"counts\": {\n");
        let counts = self.counts();
        let last = counts.len();
        for (i, (rule, (open, suppressed))) in counts.iter().enumerate() {
            out.push_str(&format!(
                "    \"{rule}\": {{\"unsuppressed\": {open}, \"suppressed\": {suppressed}}}{}\n",
                if i + 1 == last { "" } else { "," }
            ));
        }
        out.push_str("  },\n  \"rules\": {\n");
        let last = Rule::ALL.len();
        for (i, rule) in Rule::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": \"{}\"{}\n",
                rule.name(),
                json_escape(rule.explanation()),
                if i + 1 == last { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  }},\n  \"files_scanned\": {},\n  \"ok\": {}\n}}\n",
            self.files_scanned,
            self.unsuppressed().count() == 0
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ================= Lock-order spec =================

/// One sanctioned exception edge from `lint-lock-order.toml`.
#[derive(Debug, Clone)]
pub struct AllowedEdge {
    pub from: String,
    pub to: String,
    pub reason: String,
}

/// The sanctioned lock total order plus explicit exception edges,
/// parsed from `lint-lock-order.toml` at the workspace root.
#[derive(Debug, Clone, Default)]
pub struct LockOrderSpec {
    /// Lock ids (`<file-stem>.<field>`) from outermost to innermost.
    pub order: Vec<String>,
    pub allows: Vec<AllowedEdge>,
}

impl LockOrderSpec {
    /// Hand-rolled parser for the subset of TOML the spec uses: one
    /// `order = [ "…", … ]` string array (inline or multi-line) and
    /// `[[allow]]` tables with `from`/`to`/`reason` string keys.
    pub fn parse(text: &str) -> LockOrderSpec {
        let mut spec = LockOrderSpec::default();
        let mut in_order = false;
        let mut in_allow = false;
        let strip = |line: &str| {
            // Comments start at a `#` outside quotes; the spec's values
            // never contain `#`, so a simple split suffices.
            line.split('#').next().unwrap_or("").trim().to_string()
        };
        for raw in text.lines() {
            let line = strip(raw);
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                in_allow = true;
                in_order = false;
                spec.allows.push(AllowedEdge {
                    from: String::new(),
                    to: String::new(),
                    reason: String::new(),
                });
                continue;
            }
            if line.starts_with('[') {
                in_allow = false;
                in_order = false;
                continue;
            }
            if let Some(rest) = line.strip_prefix("order") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    in_allow = false;
                    let rest = rest.trim();
                    spec.order.extend(parse_strings(rest));
                    in_order = !rest.ends_with(']');
                    continue;
                }
            }
            if in_order {
                spec.order.extend(parse_strings(&line));
                if line.contains(']') {
                    in_order = false;
                }
                continue;
            }
            if in_allow {
                if let Some((key, value)) = line.split_once('=') {
                    let value = value.trim().trim_matches('"').to_string();
                    let entry = spec.allows.last_mut().expect("pushed on [[allow]]");
                    match key.trim() {
                        "from" => entry.from = value,
                        "to" => entry.to = value,
                        "reason" => entry.reason = value,
                        _ => {}
                    }
                }
            }
        }
        spec
    }

    /// The rank of a lock id in the sanctioned order.
    pub fn index(&self, id: &str) -> Option<usize> {
        self.order.iter().position(|o| o == id)
    }

    /// Whether `from → to` is an explicitly sanctioned exception.
    pub fn allows(&self, from: &str, to: &str) -> bool {
        self.allows.iter().any(|a| a.from == from && a.to == to)
    }
}

/// The quoted strings on one (partial) TOML array line.
fn parse_strings(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let Some(len) = rest[start + 1..].find('"') else {
            break;
        };
        out.push(rest[start + 1..start + 1 + len].to_string());
        rest = &rest[start + 1 + len + 1..];
    }
    out
}

// ================= Scanning =================

fn skip_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|part| {
        matches!(
            part,
            "tests" | "benches" | "examples" | "fixtures" | "target"
        )
    })
}

/// Scans one file's source with the per-file rules (1–4), applying
/// every rule whose path scope matches `rel_path` (workspace-relative,
/// forward slashes). The graph rules need the whole file set — use
/// [`scan_files`] or [`scan_workspace`] for those.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    if skip_path(rel_path) {
        return Vec::new();
    }
    let model = lexer::SourceModel::new(source);
    let mut findings = Vec::new();
    rules::capability::check(rel_path, &model, &mut findings);
    rules::wire_exhaustive::check(rel_path, &model, &mut findings);
    rules::panic::check(rel_path, &model, &mut findings);
    rules::metric::check(rel_path, &model, &mut findings);

    let suppressions = lexer::collect_suppressions(&model);
    for f in &mut findings {
        if let Some(lines) = suppressions.get(&f.rule) {
            f.suppressed = lines.contains_key(&f.line);
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// A full analysis: the report plus the lock graph rendered as DOT.
pub struct Analysis {
    pub report: Report,
    /// The lock-acquisition graph, Graphviz DOT. Its header carries an
    /// `// acyclic-modulo-allowed: <bool>` line CI asserts on.
    pub lock_dot: String,
}

/// Scans a file set (`(rel_path, source)` pairs) with all six rules.
pub fn scan_files(files: &[(String, String)], spec: &LockOrderSpec) -> Report {
    analyze_files(files, spec).report
}

/// Scans a file set with all six rules and renders the lock graph.
pub fn analyze_files(files: &[(String, String)], spec: &LockOrderSpec) -> Analysis {
    let mut report = Report::default();
    let in_scope: Vec<(String, String)> = files
        .iter()
        .filter(|(rel, _)| !skip_path(rel))
        .cloned()
        .collect();
    for (rel, source) in files {
        report.files_scanned += 1;
        report.findings.extend(scan_source(rel, source));
    }

    let ws = model::Workspace::build(&in_scope);
    let mut graph_findings = Vec::new();
    let edges = rules::lock_order::check(&ws, spec, &mut graph_findings);
    rules::blocking::check(&ws, &mut graph_findings);

    // Graph-rule suppressions only count with a written rationale; a
    // bare allow(...) is reported as such so the author adds one.
    for f in &mut graph_findings {
        let Some(file) = ws.files.iter().find(|w| w.rel_path == f.file) else {
            continue;
        };
        let suppressions = lexer::collect_suppressions(&file.model);
        if let Some(cover) = suppressions.get(&f.rule).and_then(|m| m.get(&f.line)) {
            if cover.with_rationale {
                f.suppressed = true;
            } else {
                f.message.push_str(
                    " [an allow(...) comment covers this line but carries no rationale; \
                     graph-rule suppressions require one]",
                );
            }
        }
    }

    // Lock edges exempt for the DOT acyclicity verdict: the spec's
    // [[allow]] entries plus edges whose finding is suppressed inline.
    let mut exempt: HashSet<(String, String)> = HashSet::new();
    for e in &edges {
        let covered = graph_findings.iter().any(|f| {
            f.rule == Rule::LockOrder && f.suppressed && f.file == e.file && f.line == e.line
        });
        if covered {
            exempt.insert((e.from.clone(), e.to.clone()));
        }
    }
    let lock_dot = rules::lock_order::to_dot(&edges, spec, &exempt);

    report.findings.extend(graph_findings);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis { report, lock_dot }
}

// ================= Workspace walking =================

/// The lock-order spec file at the workspace root.
pub const LOCK_ORDER_FILE: &str = "lint-lock-order.toml";

/// Reads `lint-lock-order.toml` from `root` (empty spec if absent).
pub fn load_spec(root: &Path) -> LockOrderSpec {
    std::fs::read_to_string(root.join(LOCK_ORDER_FILE))
        .map(|text| LockOrderSpec::parse(&text))
        .unwrap_or_default()
}

/// Scans every in-scope `.rs` file under `root` (the workspace root).
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    Ok(analyze_workspace(root)?.report)
}

/// Scans the workspace and renders the lock graph.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut paths = Vec::new();
    for top in ["crates", "src"] {
        collect_rs_files(&root.join(top), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(analyze_files(&files, &load_spec(root)))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(
                name.as_str(),
                "target" | ".git" | "tests" | "benches" | "examples" | "fixtures"
            ) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_on_own_line_covers_next_code_line() {
        let src = "// eden-lint: allow(panic-hygiene)\nlet g = m.lock().unwrap();\n";
        let findings = scan_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].suppressed);
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut report = Report::default();
        report.findings.push(Finding {
            rule: Rule::PanicHygiene,
            file: "a \"quoted\".rs".into(),
            line: 3,
            message: "msg".into(),
            suppressed: false,
        });
        let json = report.to_json();
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"rules\""));
        assert!(json.contains("\"lock-order\""));
    }

    #[test]
    fn every_rule_round_trips_its_name_and_explains_itself() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(rule.explanation().len() > 40);
        }
    }

    #[test]
    fn lock_order_spec_parses_order_and_allows() {
        let text = "# comment\norder = [\n  \"node.objects\", # outer\n  \"object.coord\",\n]\n\n[[allow]]\nfrom = \"a.x\"\nto = \"b.y\"\nreason = \"registration is a leaf\"\n";
        let spec = LockOrderSpec::parse(text);
        assert_eq!(spec.order, vec!["node.objects", "object.coord"]);
        assert_eq!(spec.index("object.coord"), Some(1));
        assert!(spec.allows("a.x", "b.y"));
        assert!(!spec.allows("b.y", "a.x"));
        assert_eq!(spec.allows[0].reason, "registration is a leaf");
    }

    #[test]
    fn graph_rule_suppression_requires_rationale() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                       let g = self.a.lock();\n\
                       self.b.lock(); // eden-lint: allow(lock-order)\n\
                   }\n\
                   fn h(&self) {\n\
                       let g = self.a.lock();\n\
                       self.b.lock(); // eden-lint: allow(lock-order): b is a leaf lock\n\
                   }\n\
                   }\n";
        // f's bare allow leaves the finding unsuppressed; h's rationale
        // suppresses the (deduped) edge — so scan twice with order
        // swapped files to see each. Here the single file dedups the
        // a→b edge to its first site (line 5, no rationale).
        let report = scan_files(
            &[("crates/core/src/x.rs".to_string(), src.to_string())],
            &LockOrderSpec::default(),
        );
        let lock: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::LockOrder)
            .collect();
        assert_eq!(lock.len(), 1);
        assert!(!lock[0].suppressed);
        assert!(lock[0].message.contains("no rationale"));
    }
}
