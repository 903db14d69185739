#!/usr/bin/env bash
# Runs the E16 pipelined-invocation experiment and archives its
# machine-readable artifact. Usage: scripts/bench_e16.sh
# Copy target/artifacts/BENCH_E16.json to the repository root to update
# the reference copy that scripts/ci.sh validates and archives.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -p eden-bench --bin repro --release -- e16

artifact=target/artifacts/BENCH_E16.json
if [[ ! -f "$artifact" ]]; then
    echo "FAIL: $artifact was not produced" >&2
    exit 1
fi
python3 -m json.tool "$artifact" >/dev/null
echo "OK: $artifact is valid JSON:"
cat "$artifact"
