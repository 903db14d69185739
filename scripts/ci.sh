#!/usr/bin/env bash
# CI entry point.
#
#   ./scripts/ci.sh            tier-1 gate: fmt, clippy, release build,
#                              workspace tests, rustdoc, bench compile, eden-lint,
#                              cargo-deny (if installed), telemetry smoke
#   ./scripts/ci.sh lint       eden-lint only (human output + JSON artifact)
#   ./scripts/ci.sh loom       concurrency models under --cfg loom
#   ./scripts/ci.sh tsan       workspace tests under ThreadSanitizer
#                              (needs nightly + rust-src; skips otherwise)
#   ./scripts/ci.sh miri       workspace tests under Miri
#                              (needs nightly miri component; skips otherwise)
set -euo pipefail
cd "$(dirname "$0")/.."

run_lint() {
  mkdir -p target/artifacts
  # Archive the machine-readable report and the lock-acquisition graph,
  # then fail loudly with the human-readable rerun if any unsuppressed
  # finding exists.
  if cargo run -q -p eden-lint -- --json --dot target/artifacts/lock-order.dot \
      > target/artifacts/lint.json; then
    echo "eden-lint: clean (report: target/artifacts/lint.json)"
  else
    echo "eden-lint: unsuppressed findings (report: target/artifacts/lint.json)" >&2
    cargo run -q -p eden-lint || true
    exit 1
  fi
  # The DOT header carries the linter's own cycle verdict over the
  # non-exempt edges; a cyclic lock graph gates even if every individual
  # edge finding was suppressed.
  if ! grep -q '^// acyclic-modulo-allowed: true$' target/artifacts/lock-order.dot; then
    echo "eden-lint: lock-order graph has a cycle outside the allowed edges" >&2
    echo "  (see target/artifacts/lock-order.dot)" >&2
    exit 1
  fi
  echo "eden-lint: lock graph acyclic (target/artifacts/lock-order.dot)"
}

run_loom() {
  # The kernel's sync shims swap to the loom primitives under this cfg
  # (see eden_kernel::sync::shim). A separate target dir keeps the
  # --cfg from thrashing the default build's fingerprints.
  export RUSTFLAGS="--cfg loom ${RUSTFLAGS:-}"
  export CARGO_TARGET_DIR=target/loom
  cargo test -p eden-kernel --test loom_vproc
  cargo test -p eden-obs --test loom_hist
}

run_tsan() {
  if ! rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    || ! rustup component list --toolchain nightly --installed 2>/dev/null | grep -q '^rust-src'; then
    echo "tsan: skipped (needs a nightly toolchain with rust-src for -Zbuild-std)"
    return 0
  fi
  local triple
  triple=$(rustc -vV | sed -n 's/^host: //p')
  RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}" CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -Zbuild-std --target "$triple" --workspace
}

run_miri() {
  if ! rustup component list --toolchain nightly --installed 2>/dev/null | grep -q '^miri'; then
    echo "miri: skipped (needs the nightly miri component)"
    return 0
  fi
  # Threaded integration tests are far beyond Miri's time budget; the
  # per-crate unit suites cover the pointer- and ordering-sensitive code.
  CARGO_TARGET_DIR=target/miri cargo +nightly miri test --workspace --lib
}

case "${1:-all}" in
  lint) run_lint ;;
  loom) run_loom ;;
  tsan) run_tsan ;;
  miri) run_miri ;;
  all)
    cargo fmt --check
    cargo clippy --all-targets -- -D warnings
    cargo build --release
    cargo test --workspace -q
    # Rustdoc with warnings denied keeps every intra-doc link resolving.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cargo bench --no-run
    run_lint
    if command -v cargo-deny >/dev/null 2>&1; then
      cargo deny check
    else
      echo "cargo-deny: not installed, skipping (policy: deny.toml)"
    fi

    # Telemetry export smoke test: capture a cross-node trace through the
    # monitor object, check the exported Chrome-trace JSON parses and
    # carries stage-tagged spans, archive the critical-path table, and
    # check the flight-event JSONL parses line by line and the
    # Prometheus text carries the transport's counters.
    mkdir -p target/artifacts
    cargo run --release --example span_tree_capture -- \
      --chrome target/span_tree.trace.json --critpath target/artifacts/critpath.txt \
      --events target/artifacts/events.jsonl --prom target/artifacts/metrics.prom
    test -s target/span_tree.trace.json
    test -s target/artifacts/events.jsonl
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool target/span_tree.trace.json >/dev/null
      python3 -m json.tool --json-lines target/artifacts/events.jsonl >/dev/null
    fi
    grep -q '^eden_transport_frames_sent' target/artifacts/metrics.prom
    # Critical-path attribution needs every span stage-tagged: the
    # Chrome trace must label at least the execute stage, and the
    # archived table must bucket the invocation by stage.
    grep -q '"stage":"execute"' target/span_tree.trace.json
    test -s target/artifacts/critpath.txt
    grep -q 'accounted by named stages' target/artifacts/critpath.txt
    echo "critpath table archived: target/artifacts/critpath.txt"

    # Archive the checked-in E16 reference artifact (regenerated by
    # scripts/bench_e16.sh — too slow for the tier-1 gate itself) after
    # validating it still parses.
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool BENCH_E16.json >/dev/null
    fi
    cp BENCH_E16.json target/artifacts/BENCH_E16.reference.json
    echo "E16 reference artifact archived: target/artifacts/BENCH_E16.reference.json"
    ;;
  *)
    echo "usage: $0 [all|lint|loom|tsan|miri]" >&2
    exit 2
    ;;
esac
