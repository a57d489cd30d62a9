#!/usr/bin/env sh
# Pre-PR gate: run everything CI would. Usage: scripts/check.sh [--fast]
#   --fast skips the test suite (format/lint/doc only).
set -eu

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
if [ "$fast" -eq 0 ]; then
    run cargo test -q --workspace
fi
# Lane-kernel gate: every SIMD-shaped reduction kernel must stay inside its
# pinned tolerance of (or bit-identical to) the scalar reference, across
# every remainder width. Runs even with --fast — the lane kernels are the
# numerical foundation everything above sits on.
run cargo test -q -p powerlens-numeric --test kernel_tolerance
# Static-analysis gate: every zoo model must lint clean (error severity
# fails the command; rule catalog in docs/LINTS.md), and no finding may be
# new relative to the committed SARIF baseline — the ratchet: fixing old
# findings and regenerating the baseline only ever shrinks it.
run cargo build -q --release -p powerlens-cli
run ./target/release/powerlens-cli lint --all --baseline results/lint_baseline.sarif
# Cached-lint warm path: the second run against the same disk cache must be
# served from it (hits > 0 on stderr).
lint_cache_dir=$(mktemp -d)
./target/release/powerlens-cli lint alexnet --cache disk \
    --cache-dir "$lint_cache_dir" > /dev/null 2>&1
warm_stats=$(./target/release/powerlens-cli lint alexnet --cache disk \
    --cache-dir "$lint_cache_dir" 2>&1 >/dev/null | grep '^lint cache:' || true)
rm -rf "$lint_cache_dir"
case "$warm_stats" in
    *'hits=0'*|'') echo "lint cache smoke: warm run missed ($warm_stats)" >&2; exit 1 ;;
    *) echo "lint cache smoke: $warm_stats" ;;
esac
# Plan-store smoke: the whole zoo through the in-memory cache.
run ./target/release/powerlens-cli plan-batch --cache mem
# Ingest gate: every example manifest must pass the PL7xx import gate,
# lint clean, and plan end-to-end — the external-model path from JSON on
# disk to a DVFS plan.
for manifest in examples/models/*.json; do
    run ./target/release/powerlens-cli import "$manifest" > /dev/null
    run ./target/release/powerlens-cli lint --model "$manifest"
    run ./target/release/powerlens-cli plan --model "$manifest" > /dev/null
done
# Fault-injection smoke: the robustness report must complete under the
# default 20% switch-failure sweep, and zero-probability fault plans must
# stay bit-identical to clean runs (the differential suite).
run ./target/release/powerlens-cli faultsim alexnet --batch 4 --images 8
run cargo test -q -p powerlens-sim --test faults_differential
# Hybrid-governor smoke: the online-adaptation report must complete under
# the default storm and hold both floors (the report's closing line), and
# the zero-drift differential gate must hold — a hybrid run on a clean
# engine stays bit-identical to plan replay across the whole zoo.
hybrid_out=$(./target/release/powerlens-cli hybridsim alexnet --batch 4 --images 8) \
    || { echo "hybridsim smoke: command failed" >&2; exit 1; }
echo "$hybrid_out"
case "$hybrid_out" in
    *'adaptation: hybrid holds'*) ;;
    *) echo "hybridsim smoke: hybrid did not hold the EE floors" >&2; exit 1 ;;
esac
run cargo test -q -p powerlens-governors --test hybrid_differential
# Serving smoke: a live daemon on an ephemeral port must answer an HTTP
# plan, expose /metrics, and shut down cleanly on request.
echo "==> serve smoke (ephemeral port)"
serve_log=$(mktemp)
./target/release/powerlens-cli serve --port 0 --cache mem --threads 2 --batch 4 \
    > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve smoke: daemon never reported an address" >&2; \
    cat "$serve_log" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
serve_fail() {
    echo "serve smoke: $1" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
}
plan=$(curl -sf -X POST "http://$addr/plan" -d '{"model": "alexnet"}') \
    || serve_fail "POST /plan failed"
case "$plan" in
    *'"points"'*) ;;
    *) serve_fail "plan response missing points: $plan" ;;
esac
# The inline-manifest path: the body carries an external model, whose
# bytes the daemon hands straight to the streaming importer.
manifest_plan=$({ printf '{"tenant": "smoke", "manifest": '
    cat examples/models/tiny_cnn.json
    printf '}'; } | curl -sf -X POST "http://$addr/plan" --data-binary @-) \
    || serve_fail "POST /plan with an inline manifest failed"
case "$manifest_plan" in
    *'"points"'*) ;;
    *) serve_fail "inline-manifest plan response missing points: $manifest_plan" ;;
esac
# A zero batch is refused with a 400 before it reaches the planner. Two of
# them against the two workers would leave none if either one panicked,
# so /metrics below (with a timeout) shows the daemon still serves.
for _ in 1 2; do
    code=$(curl -s -m 10 -o /dev/null -w '%{http_code}' -X POST "http://$addr/plan" \
        -d '{"model": "alexnet", "batch": 0}' || true)
    [ "$code" = 400 ] || serve_fail "POST /plan with batch 0 gave $code, want 400"
done
metrics=$(curl -sf -m 10 "http://$addr/metrics") || serve_fail "GET /metrics failed"
case "$metrics" in
    *'serve.requests'*) ;;
    *) serve_fail "metrics missing serve.requests: $metrics" ;;
esac
curl -sf -X POST "http://$addr/shutdown" > /dev/null \
    || serve_fail "POST /shutdown failed"
wait "$serve_pid" || serve_fail "daemon exited non-zero"
rm -f "$serve_log"
echo "serve smoke: plan + inline manifest + zero-batch 400 + metrics + shutdown ok on $addr"
run cargo bench --no-run
RUSTDOCFLAGS="-D warnings"
export RUSTDOCFLAGS
run cargo doc --no-deps --workspace

echo "==> all checks passed"
