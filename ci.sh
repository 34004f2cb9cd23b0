#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests.
#
# Usage: ./ci.sh [--offline]
#
# --offline skips dependency resolution against the network (useful in
# sandboxed environments with a primed cargo cache).
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]]; then
    CARGO_FLAGS+=(--offline)
fi

echo "==> fast lane: argus-linear unit tests"
# The exact-arithmetic substrate underpins every soundness claim; run its
# suite first so number bugs fail the gate before the full build/test
# cycle. The unit tests take seconds; the whole lane takes about two
# minutes, nearly all of it one `poly_props` test
# (`shapes_across_the_dimension_bound_*`).
cargo test -q -p argus-linear "${CARGO_FLAGS[@]}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace "${CARGO_FLAGS[@]}"

echo "==> cargo test"
cargo test --workspace --release -q "${CARGO_FLAGS[@]}"

echo "==> fuzz smoke"
# Differential/metamorphic soundness harness over a fixed seed set, at two
# parallelism settings; the reports must match byte for byte. Any
# violation exits nonzero (and writes a reproducer under
# tests/golden/fuzz-repros/ for the regression suite to replay).
for seed in 1 42; do
    ./target/release/argus fuzz --seed "$seed" --cases 500 --jobs 0 --json \
        > "/tmp/argus-fuzz-$seed-j0.json"
    ./target/release/argus fuzz --seed "$seed" --cases 500 --jobs 1 --json \
        > "/tmp/argus-fuzz-$seed-j1.json"
    cmp "/tmp/argus-fuzz-$seed-j0.json" "/tmp/argus-fuzz-$seed-j1.json"
done

echo "==> infer smoke"
# Backwards condition inference over the whole corpus with certificate
# re-checking: every disjunct of every inferred condition must reproduce
# Terminates under a fresh forward analysis and pass the certificate
# verifier. Then the fuzz harness with the infer-soundness oracle armed:
# inferred conditions on generated programs are confirmed against both the
# forward analyzer and the SLD interpreter.
./target/release/argus infer --corpus --certify > /dev/null
./target/release/argus fuzz --infer --seed 7 --cases 200 --jobs 0

echo "==> portfolio smoke"
# The engine portfolio: sweep the corpus through the SCT engine and the
# full five-engine race (exit 0 = proved, 2 = unknown — both fine here;
# anything else is a crash), pinning the corpus-wide win counts so an
# engine that silently stops proving its separators fails the gate. The
# standalone SCT proof count is pinned too (30 of the 39 modes), so a
# change in the size relations SCT reads cannot silently lose proofs. The
# same sweep runs the θ engine with `--lexicographic` and pins its proof
# count: base θ's 28 modes plus the four lexicographic ones. Then the
# cross-engine fuzz oracle: every engine's claimed proof on 200
# generated programs must survive the SLD interpreter and θ's
# zero-weight-cycle evidence.
SCT_WINS=0; THETA_WINS=0; LEX_PROVED=0; SCT_PROVED=0
while read -r name query mode; do
    ./target/release/argus corpus "$name" > /tmp/argus-portfolio-prog.pl
    rc=0
    ./target/release/argus analyze /tmp/argus-portfolio-prog.pl "$query" "$mode" \
        --engine sct > /dev/null || rc=$?
    case "$rc" in
        0) SCT_PROVED=$((SCT_PROVED + 1)) ;;
        2) ;;
        *) echo "sct: $name exited $rc"; exit 1 ;;
    esac
    rc=0
    ./target/release/argus analyze /tmp/argus-portfolio-prog.pl "$query" "$mode" \
        --lexicographic > /dev/null || rc=$?
    case "$rc" in
        0) LEX_PROVED=$((LEX_PROVED + 1)) ;;
        2) ;;
        *) echo "lexicographic: $name exited $rc"; exit 1 ;;
    esac
    out=$(./target/release/argus analyze /tmp/argus-portfolio-prog.pl "$query" "$mode" \
        --engine portfolio --json --jobs 0) || [[ $? -eq 2 ]]
    case "$out" in
        *'"winner":"sct"'*) SCT_WINS=$((SCT_WINS + 1)) ;;
        *'"winner":"theta"'*) THETA_WINS=$((THETA_WINS + 1)) ;;
    esac
done < <(./target/release/argus corpus | tail -n +2 | awk '{print $1, $2, $3}')
[[ "$SCT_WINS" -ge 4 ]] || { echo "portfolio: expected >=4 sct wins, got $SCT_WINS"; exit 1; }
[[ "$THETA_WINS" -ge 28 ]] || { echo "portfolio: expected >=28 theta wins, got $THETA_WINS"; exit 1; }
[[ "$LEX_PROVED" -ge 32 ]] || { echo "lexicographic: expected >=32 proofs, got $LEX_PROVED"; exit 1; }
[[ "$SCT_PROVED" -ge 30 ]] || { echo "sct: expected >=30 proofs, got $SCT_PROVED"; exit 1; }
./target/release/argus fuzz --portfolio --seed 5 --cases 200 --jobs 0

echo "==> serve smoke"
# Boot the analysis server on an ephemeral port and drive it over real
# sockets: loadgen primes the caches through /v1/infer then replays the
# corpus on 64 keep-alive connections and byte-compares every response
# against the CLI report, the fuzz serve oracle round-trips 200 generated
# programs, and a SIGTERM must drain cleanly (exit 0, "drained cleanly"
# on stdout). The generous deadline keeps the whole-corpus /v1/infer
# requests (FM-heavy entries run seconds each) off the 504 path on slow
# runners.
SERVE_LOG=/tmp/argus-serve-ci.log
./target/release/argus serve --addr 127.0.0.1:0 --jobs 0 --deadline-ms 120000 \
    > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do
    SERVE_ADDR=$(sed -n 's/.*listening on //p' "$SERVE_LOG" | head -n 1)
    [[ -n "$SERVE_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$SERVE_ADDR" ]] || { echo "serve never printed its address"; cat "$SERVE_LOG"; exit 1; }
./target/release/loadgen --addr "$SERVE_ADDR" --wait-healthz 10 \
    --connections 64 --requests 10 --prime-infer
# Edit-stream lane: one-clause edits (delete, restore, next clause)
# replayed sequentially — the `argus watch` request pattern. Every edited
# variant misses the whole-report cache, so this drives the server's
# per-SCC incremental path and prints warm re-analysis p50/p99.
./target/release/loadgen --addr "$SERVE_ADDR" --edit-stream
./target/release/argus fuzz --serve "$SERVE_ADDR" --seed 1 --cases 200 --jobs 0
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained cleanly" "$SERVE_LOG" || { echo "serve did not drain"; cat "$SERVE_LOG"; exit 1; }

echo "==> bench smoke"
# CI-sized pass over every bench suite: catches workloads that rot (panic,
# hang, or stop compiling) without paying for full-scale numbers. The
# report goes to a scratch file whose counters bench_gate checks after the
# scaling lane; the committed BENCH_argus.json is untouched.
cargo run --release -q -p argus-bench "${CARGO_FLAGS[@]}" \
    --bin bench_report -- --smoke --out /tmp/argus-bench-smoke.json

echo "==> benchmark smoke (BENCHMARK.json workloads)"
# The repository benchmark is a package of its own (benchmark/, its own
# workspace): run its helper unit tests, then one short untraced run of
# each workload. A run's last stdout line is its JSON verdict; the lane
# fails unless every workload reports "correct":true.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
for workload in corpus-cold scale-cold edit-session serve-mix; do
    verdict=$(cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    [[ "$verdict" == *'"correct":true'* ]] \
        || { echo "benchmark $workload: not correct: $verdict"; exit 1; }
done

echo "==> incremental smoke (memoized re-analysis oracle)"
# The fuzz incremental oracle asserts byte-identity of memoized
# re-analysis against from-scratch runs across 150 generated programs, one
# clause mutation at a time. The dirty-cone floors on the incremental
# bench suite are checked by bench_gate below.
./target/release/argus fuzz --incremental --seed 3 --cases 150 --jobs 0 \
    --no-metamorphic --no-theta-search

echo "==> lsp smoke (scripted editor session)"
# A scripted stdio session against the real `argus lsp` binary
# (initialize → didOpen a corpus program → three one-clause incremental
# edits → shutdown/exit, which must exit 0). The edit-session floors on
# the lsp bench suite are checked by bench_gate below.
./target/release/lsp_session ./target/release/argus

echo "==> scaling smoke (50k-clause substrate)"
# Million-clause substrate lane: generate and analyze a 50k-clause program
# end to end (full scale suite restricted to the 50k size; the smoke tier
# only exercises 2k and proves nothing about scale).
ARGUS_SCALE_ONLY=50k cargo run --release -q -p argus-bench "${CARGO_FLAGS[@]}" \
    --bin bench_report -- --suite scale \
    --out /tmp/argus-scale-smoke.json

echo "==> bench gate (floors and ceilings)"
# One table of deterministic floors over both reports: FM row reduction
# (≥5× peak-row reduction on the FM-heavy corpus entry; subsumption,
# Chernikov, dedup and the projection cache all firing), the incremental
# and LSP dirty cones (a warm edit recomputes < 10% of the SCC
# computations, a no-op exactly 0), and the 50k substrate (workload-shape
# floors, so the generator can't silently shrink, plus a 14 s analyze
# ceiling, ~4× the committed 3.4 s). Wall time is otherwise not gated —
# only work done.
cargo run --release -q -p argus-bench "${CARGO_FLAGS[@]}" \
    --bin bench_gate -- /tmp/argus-bench-smoke.json /tmp/argus-scale-smoke.json

echo "==> OK"
