//! Fixture suite for the six eden-lint rules: each rule has at least
//! one known-good and one known-bad snippet with exact expected finding
//! counts, plus suppression fixtures proving `eden-lint: allow(...)`
//! comments cover (and count) findings — with a mandatory rationale for
//! the graph rules. A final test runs the full analysis over the real
//! workspace and requires zero unsuppressed findings — the acceptance
//! bar ci.sh enforces.

use std::path::Path;

use eden_lint::{analyze_files, scan_source, scan_workspace, Finding, LockOrderSpec, Rule};

/// Loads a fixture file's source text.
fn fixture_source(fixture: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Loads a fixture and scans it with the per-file rules under a virtual
/// workspace path that puts it in the right rule scope.
fn scan_fixture(fixture: &str, virtual_path: &str) -> Vec<Finding> {
    scan_source(virtual_path, &fixture_source(fixture))
}

/// Loads fixtures as a virtual workspace and runs all six rules.
fn scan_graph(fixtures: &[(&str, &str)], spec: &LockOrderSpec) -> Vec<Finding> {
    let files: Vec<(String, String)> = fixtures
        .iter()
        .map(|&(fixture, vpath)| (vpath.to_string(), fixture_source(fixture)))
        .collect();
    analyze_files(&files, spec).report.findings
}

fn count(findings: &[Finding], rule: Rule, suppressed: bool) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed == suppressed)
        .count()
}

#[test]
fn capability_discipline_flags_unchecked_entry_points() {
    let findings = scan_fixture("cap_bad.rs", "crates/core/src/node.rs");
    assert_eq!(
        count(&findings, Rule::CapabilityDiscipline, false),
        2,
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("`replicate`")));
    assert!(findings.iter().any(|f| f.message.contains("`persist`")));
}

#[test]
fn capability_discipline_covers_the_node_section_files() {
    let root = scan_fixture("cap_bad.rs", "crates/core/src/node.rs");
    let section = scan_fixture("cap_bad.rs", "crates/core/src/node/mobility.rs");
    let lines = |findings: &[Finding]| {
        findings
            .iter()
            .filter(|f| f.rule == Rule::CapabilityDiscipline && !f.suppressed)
            .map(|f| (f.line, f.message.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&section).len(), 2, "{section:?}");
    assert_eq!(lines(&section), lines(&root));
}

#[test]
fn capability_discipline_accepts_checks_and_delegation() {
    let findings = scan_fixture("cap_good.rs", "crates/core/src/node.rs");
    assert_eq!(findings.len(), 0, "{findings:?}");
}

#[test]
fn wire_exhaustiveness_flags_wildcards_over_status() {
    let findings = scan_fixture("wire_bad.rs", "crates/wire/src/status.rs");
    assert_eq!(
        count(&findings, Rule::WireExhaustiveness, false),
        1,
        "{findings:?}"
    );
}

#[test]
fn wire_exhaustiveness_covers_directory_enums() {
    // DirState/DirRegisterKind matches in the directory crate are wire
    // matches too: both wildcard arms are flagged.
    let findings = scan_fixture("wire_dir_bad.rs", "crates/directory/src/shard.rs");
    assert_eq!(
        count(&findings, Rule::WireExhaustiveness, false),
        2,
        "{findings:?}"
    );
    // The same file outside the scoped crates is ignored.
    let findings = scan_fixture("wire_dir_bad.rs", "crates/apps/src/shard.rs");
    assert_eq!(count(&findings, Rule::WireExhaustiveness, false), 0);
}

#[test]
fn wire_exhaustiveness_accepts_enumerated_and_named_arms() {
    let findings = scan_fixture("wire_good.rs", "crates/wire/src/status.rs");
    assert_eq!(findings.len(), 0, "{findings:?}");
}

#[test]
fn panic_hygiene_flags_lock_and_channel_unwraps() {
    let findings = scan_fixture("panic_bad.rs", "crates/core/src/x.rs");
    assert_eq!(
        count(&findings, Rule::PanicHygiene, false),
        4,
        "{findings:?}"
    );
}

#[test]
fn panic_hygiene_accepts_recovery_and_tests() {
    let findings = scan_fixture("panic_good.rs", "crates/core/src/x.rs");
    assert_eq!(findings.len(), 0, "{findings:?}");
}

#[test]
fn panic_hygiene_covers_the_transport_crate() {
    // The send pipeline's writer threads live in eden-transport; the
    // same lock/channel unwraps are banned there.
    let findings = scan_fixture("panic_bad.rs", "crates/transport/src/writer.rs");
    assert_eq!(
        count(&findings, Rule::PanicHygiene, false),
        4,
        "{findings:?}"
    );
}

#[test]
fn metric_discipline_flags_adhoc_atomic_counters() {
    let findings = scan_fixture("metric_bad.rs", "crates/core/src/telemetry.rs");
    assert_eq!(
        count(&findings, Rule::MetricDiscipline, false),
        3,
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`invoke_count`")));
    assert!(findings.iter().any(|f| f.message.contains("`bytes_sent`")));
    assert!(findings.iter().any(|f| f.message.contains("`RETRY_TOTAL`")));
    // The transport crate is in scope too, its stats module included:
    // transport counters are registry handles like every other metric.
    let findings = scan_fixture("metric_bad.rs", "crates/transport/src/telemetry.rs");
    assert_eq!(count(&findings, Rule::MetricDiscipline, false), 3);
    let findings = scan_fixture("metric_bad.rs", "crates/transport/src/stats.rs");
    assert_eq!(count(&findings, Rule::MetricDiscipline, false), 3);
}

#[test]
fn metric_discipline_accepts_structural_atomics() {
    let findings = scan_fixture("metric_good.rs", "crates/core/src/telemetry.rs");
    assert_eq!(findings.len(), 0, "{findings:?}");
    // Crates outside kernel/transport are out of scope.
    let findings = scan_fixture("metric_bad.rs", "crates/obs/src/metric.rs");
    assert_eq!(count(&findings, Rule::MetricDiscipline, false), 0);
}

#[test]
fn lock_order_flags_inversion_unranked_and_reentrant() {
    let spec = LockOrderSpec::parse(
        r#"
        order = ["a.alpha", "a.beta"]
        [[allow]]
        from = "a.beta"
        to = "a.delta"
        reason = "delta is a teardown-only leaf"
        "#,
    );
    let findings = scan_graph(&[("lockorder_bad.rs", "crates/core/src/a.rs")], &spec);
    assert_eq!(count(&findings, Rule::LockOrder, false), 3, "{findings:?}");
    let messages: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .map(|f| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("inversion")));
    assert!(messages.iter().any(|m| m.contains("not ranked")));
    assert!(messages.iter().any(|m| m.contains("reentrant")));
}

#[test]
fn lock_order_accepts_ordered_nesting_and_rationale_carrying_allows() {
    let spec = LockOrderSpec::parse("order = [\"a.alpha\", \"a.beta\"]");
    let analysis = analyze_files(
        &[(
            "crates/core/src/a.rs".to_string(),
            fixture_source("lockorder_good.rs"),
        )],
        &spec,
    );
    let findings = &analysis.report.findings;
    assert_eq!(count(findings, Rule::LockOrder, false), 0, "{findings:?}");
    // The inline-exempted inversion still counts, as suppressed.
    assert_eq!(count(findings, Rule::LockOrder, true), 1, "{findings:?}");
    // The DOT artifact reports the graph acyclic modulo the exemption.
    assert!(
        analysis
            .lock_dot
            .contains("// acyclic-modulo-allowed: true"),
        "{}",
        analysis.lock_dot
    );
    assert!(analysis.lock_dot.contains("\"a.alpha\" -> \"a.beta\""));
}

#[test]
fn lock_order_resolves_field_method_calls_through_the_declared_type() {
    let spec = LockOrderSpec::parse("order = [\"a.state\", \"a.entries\", \"a.seen\"]");
    let analysis = analyze_files(
        &[(
            "crates/core/src/a.rs".to_string(),
            fixture_source("lockorder_typed.rs"),
        )],
        &spec,
    );
    let findings = &analysis.report.findings;
    assert_eq!(count(findings, Rule::LockOrder, false), 0, "{findings:?}");
    // The same-crate typed field keeps its true edge ...
    assert!(
        analysis.lock_dot.contains("\"a.state\" -> \"a.entries\""),
        "{}",
        analysis.lock_dot
    );
    // ... and neither the foreign `Gauge::add` nor the typed call reaches
    // the same-named `Collector::add`.
    assert!(
        !analysis.lock_dot.contains("\"a.seen\""),
        "{}",
        analysis.lock_dot
    );
}

#[test]
fn lock_order_is_scoped_to_kernel_transport_directory() {
    let spec = LockOrderSpec::parse("order = []");
    let findings = scan_graph(&[("lockorder_bad.rs", "crates/apps/src/a.rs")], &spec);
    assert_eq!(count(&findings, Rule::LockOrder, false), 0, "{findings:?}");
}

#[test]
fn blocking_discipline_flags_direct_transitive_and_lexical_sites() {
    let spec = LockOrderSpec::default();
    let findings = scan_graph(&[("blocking_bad.rs", "crates/core/src/work.rs")], &spec);
    assert_eq!(
        count(&findings, Rule::BlockingDiscipline, false),
        3,
        "{findings:?}"
    );
    let messages: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == Rule::BlockingDiscipline)
        .map(|f| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("`.sleep(…)`")));
    assert!(messages.iter().any(|m| m.contains("`.wait(…)`")));
    assert!(messages
        .iter()
        .any(|m| m.contains("inside a pool submit closure")));
}

#[test]
fn blocking_discipline_accepts_guarded_waits_and_dedicated_threads() {
    let spec = LockOrderSpec::default();
    let findings = scan_graph(
        &[("blocking_good.rs", "crates/directory/src/work.rs")],
        &spec,
    );
    assert_eq!(
        count(&findings, Rule::BlockingDiscipline, false),
        0,
        "{findings:?}"
    );
}

#[test]
fn suppressions_cover_and_count_each_rule() {
    // Line rules: one covered violation per rule in suppressed.rs.
    // Graph rules: one rationale-carrying allow each in the graph
    // fixture, analyzed together with suppressed.rs as one virtual
    // workspace.
    let spec = LockOrderSpec::parse("order = [\"graph.alpha\", \"graph.beta\"]");
    let findings = scan_graph(
        &[
            ("suppressed.rs", "crates/core/src/node.rs"),
            ("suppressed_graph.rs", "crates/core/src/graph.rs"),
        ],
        &spec,
    );
    for rule in Rule::ALL {
        assert_eq!(count(&findings, rule, true), 1, "{rule}: {findings:?}");
        assert_eq!(count(&findings, rule, false), 0, "{rule}: {findings:?}");
    }
}

#[test]
fn graph_suppressions_without_rationale_do_not_cover() {
    // Strip the rationales from the lock-order allow: the finding must
    // surface unsuppressed, annotated with the missing-rationale note.
    let source = fixture_source("suppressed_graph.rs")
        .replace(
            "allow(lock-order): startup-only path, runs single-",
            "allow(lock-order)",
        )
        .replace("// threaded before the pool exists\n", "\n");
    let spec = LockOrderSpec::parse("order = [\"graph.alpha\", \"graph.beta\"]");
    let findings = analyze_files(&[("crates/core/src/graph.rs".to_string(), source)], &spec)
        .report
        .findings;
    let open: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder && !f.suppressed)
        .collect();
    assert_eq!(open.len(), 1, "{findings:?}");
    assert!(
        open[0].message.contains("no rationale"),
        "{}",
        open[0].message
    );
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = scan_workspace(&root).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "walked {} files",
        report.files_scanned
    );
    let open: Vec<_> = report.unsuppressed().collect();
    assert!(open.is_empty(), "unsuppressed findings: {open:#?}");
}
