#!/usr/bin/env bash
# Local CI gate: run everything a reviewer would.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
# The only static-analysis gate: the crate roots switch on the workspace
# invariants (exactness, determinism, panic-freedom, exact-path indexing,
# division and casts; DESIGN.md §12), and every suppression is an
# `#[expect(<lint>, reason = "…")]` that rustc reports once it no longer
# fires. The metric registry and the lockfile are checked by the root
# test tests/workspace_audit.rs in the test step below.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== rational kernel, release build =="
# Release builds have no overflow checks: an unchecked i64 negation in the
# Ratio kernel would return a wrong answer there where a debug build
# panics, so run the kernel's tests in release too.
cargo test --release -q -p defender-num

echo "== best-response scan, release build =="
# The exact best response sums i128 numerators over the masses' common
# denominator and falls back to Ratio sums where that arithmetic would
# overflow. A release build wraps instead of panicking, so only this run
# shows that the scan checks its arithmetic.
cargo test --release -q -p defender-core --lib best_response

echo "== perfbench build and tests =="
# The benchmark package lives outside the workspace and builds against
# its crates by path with its own lockfile. A manifest or API change can
# break that build or force a rewrite of perfbench/Cargo.lock (which
# --locked refuses), so catch it here rather than at benchmark time.
CARGO_TARGET_DIR=.bench_build cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "== trace smoke test =="
# Run one experiment with event tracing and in-process profiling on and
# make sure the exported Chrome trace parses, has balanced begin/end
# pairs, and dropped nothing (--strict-drops: a truncated timeline would
# silently skew every profile number downstream).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
(cd "$SMOKE_DIR" && "$OLDPWD"/target/release/exp e1 --profile --trace e1.json > /dev/null 2> /dev/null)
target/release/defender bench validate-trace "$SMOKE_DIR/e1.json" --strict-drops

echo "== profile analytics gate =="
# Replay the fresh trace through defender-profile. `defender profile`
# exits 2 if the wall-clock accounting invariant fails (some lane's root
# spans sum past the trace duration — a broken clock or replay), so this
# is an end-to-end sanity gate on the obs -> trace -> profile pipeline.
target/release/defender profile "$SMOKE_DIR/e1.json" > /dev/null
# Span-level regression gate: the --sidecar profile (BENCH_profile_e1.json)
# diffs its counters against the committed baseline. The baseline is
# pruned to the jobs-invariant `prof.calls.*` rows — self-times are
# machine-sensitive and show up as informational NEW rows.
(cd "$SMOKE_DIR" && "$OLDPWD"/target/release/defender profile e1.json --sidecar > /dev/null)
target/release/defender bench diff \
  baselines/BENCH_profile_e1.json \
  "$SMOKE_DIR/BENCH_profile_e1.json"

echo "== profile jobs-invariance check =="
# The profile of a run must be independent of the pool width for every
# jobs-invariant field: `par.worker` frames are elided, so a --jobs 1
# and a --jobs 4 trace of the same experiment must agree on the span
# set, call counts, and flamegraph shape (worker utilization is allowed
# to differ and lives in the parallelism sidecar section instead).
JOBS_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR"' EXIT
(cd "$JOBS_DIR" && "$OLDPWD"/target/release/exp e1 --jobs 1 --trace j1.json > /dev/null)
(cd "$JOBS_DIR" && "$OLDPWD"/target/release/exp e1 --jobs 4 --trace j4.json > /dev/null)
target/release/defender profile "$JOBS_DIR/j1.json" --format json > "$JOBS_DIR/p1.json"
target/release/defender profile "$JOBS_DIR/j4.json" --format json > "$JOBS_DIR/p4.json"
for p in p1 p4; do
  grep -o '"name": "[^"]*", "calls": [0-9]*' "$JOBS_DIR/$p.json" > "$JOBS_DIR/$p.spans"
  grep -o '"path": "[^"]*", "calls": [0-9]*' "$JOBS_DIR/$p.json" > "$JOBS_DIR/$p.flame"
done
diff "$JOBS_DIR/p1.spans" "$JOBS_DIR/p4.spans"
diff "$JOBS_DIR/p1.flame" "$JOBS_DIR/p4.flame"

echo "== parallel suite smoke test =="
# Run the whole suite on a two-worker pool with tracing on: the exported
# timeline must keep per-thread stack discipline and really span the
# worker lanes (main thread + at least one worker).
SUITE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR"' EXIT
(cd "$SUITE_DIR" && "$OLDPWD"/target/release/exp all --jobs 2 --trace trace.json > /dev/null)
target/release/defender bench validate-trace "$SUITE_DIR/trace.json" --min-threads 2

echo "== bench regression gate =="
# Compare the sidecar the smoke run just wrote against the committed
# baseline. `bench diff` judges only the deterministic counters, which
# are exact algorithm work; wall time is machine-sensitive (a slower CI
# runner is not a regression) and is the repository benchmark's job
# (perfbench/, bounds in BENCHMARK.json).
target/release/defender bench diff \
  baselines/BENCH_e1_pure_frontier.json \
  "$SMOKE_DIR/BENCH_e1_pure_frontier.json"

# Second baseline: the value atlas drives the support-enumeration and
# deferred-reduction kernels, so its sidecar pins `se.pairs_tested` /
# `num.*` — any counter growing past the threshold (a pruning or fast-path
# regression) fails the gate. The suite smoke run above already wrote the
# fresh sidecar.
target/release/defender bench diff \
  baselines/BENCH_e15_value_atlas.json \
  "$SUITE_DIR/BENCH_e15_value_atlas.json"

echo "== sweep shard-width identity gate =="
# Run E1 as a sharded sweep at widths 1 and 3: the merged sidecars'
# `counters` objects must be byte-identical (every counter increment is
# attributable to exactly one corpus instance, so per-shard counters sum
# exactly — DESIGN.md §14). This is the cross-process analogue of the
# jobs-invariance check above.
SWEEP_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR"' EXIT
target/release/defender sweep e1 --shards 1 --out "$SWEEP_DIR/w1" \
  --bin-dir target/release
target/release/defender sweep e1 --shards 3 --out "$SWEEP_DIR/w3" \
  --bin-dir target/release
for w in w1 w3; do
  grep -o '"counters": {[^}]*}' "$SWEEP_DIR/$w/BENCH_e1_pure_frontier.json" \
    > "$SWEEP_DIR/$w.counters"
done
diff "$SWEEP_DIR/w1.counters" "$SWEEP_DIR/w3.counters"
# The sharded counters must also match the unsharded smoke run's sidecar
# exactly — sharding may not change what is measured.
grep -o '"counters": {[^}]*}' "$SMOKE_DIR/BENCH_e1_pure_frontier.json" \
  > "$SWEEP_DIR/plain.counters"
diff "$SWEEP_DIR/plain.counters" "$SWEEP_DIR/w3.counters"

echo "== sweep kill-and-resume smoke =="
# Interrupt a 3-shard sweep with a real SIGKILL mid-run, then resume it:
# the resumed merge must be byte-identical to the uninterrupted width-3
# merge above. The interrupted sweep runs a wrapper `exp` that execs the
# real binary for shard 0 and parks every other shard in `sleep` (the
# runner invokes it as `exp <name> --shard i/N [...]`, so `$3` is the
# shard spec); with --parallel 1 shard 1 spawns only after shard 0
# sealed its checkpoint, so a non-empty shard_1/PID means the kill lands
# mid-sweep on every run.
# The shard PID files and DONE markers exist for exactly this test.
KILL_BIN="$SWEEP_DIR/kill_bin"
mkdir "$KILL_BIN"
printf '#!/bin/sh\ncase "$3" in 0/*) exec "%s" "$@";; *) exec sleep 60;; esac\n' \
  "$PWD/target/release/exp" > "$KILL_BIN/exp"
chmod +x "$KILL_BIN/exp"
target/release/defender sweep e1 --shards 3 --out "$SWEEP_DIR/kr" \
  --parallel 1 --bin-dir "$KILL_BIN" &
SWEEP_PID=$!
for _ in $(seq 1 200); do
  [[ -s "$SWEEP_DIR/kr/shard_1/PID" ]] && break
  sleep 0.05
done
[[ -s "$SWEEP_DIR/kr/shard_1/PID" ]] || { echo "shard 1 never started"; exit 1; }
kill -KILL "$SWEEP_PID" "$(cat "$SWEEP_DIR/kr/shard_1/PID")"
wait "$SWEEP_PID" 2> /dev/null || true
[[ -f "$SWEEP_DIR/kr/shard_0/DONE" ]] || { echo "shard 0 never checkpointed"; exit 1; }
if [[ -f "$SWEEP_DIR/kr/shard_1/DONE" ]]; then
  echo "shard 1 finished before the kill"; exit 1
fi
target/release/defender sweep e1 --shards 3 --resume "$SWEEP_DIR/kr" \
  --bin-dir target/release 2> "$SWEEP_DIR/kr.log" || { cat "$SWEEP_DIR/kr.log"; exit 1; }
grep -q '^resumed 1 shard(s)' "$SWEEP_DIR/kr.log" \
  || { echo "the resume did not start from a checkpoint"; cat "$SWEEP_DIR/kr.log"; exit 1; }
grep -o '"counters": {[^}]*}' "$SWEEP_DIR/kr/BENCH_e1_pure_frontier.json" \
  > "$SWEEP_DIR/kr.counters"
diff "$SWEEP_DIR/w3.counters" "$SWEEP_DIR/kr.counters"

echo "== equilibrium cache gate =="
# Run E15 twice against the same --cache directory. The first run fills
# the memo (one entry per isomorphism class); the second must be served
# entirely from it: `cache.misses` never ticks and `cache.hits` covers
# the whole atlas. Delta replay keeps the judged `counters` object
# byte-identical between the two runs — cache warmth must be invisible
# to the regression gate (DESIGN.md §15).
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR" "$CACHE_DIR"' EXIT
mkdir "$CACHE_DIR/cold" "$CACHE_DIR/warm"
(cd "$CACHE_DIR/cold" && "$OLDPWD"/target/release/exp e15 --cache "$CACHE_DIR/memo" > /dev/null)
(cd "$CACHE_DIR/warm" && "$OLDPWD"/target/release/exp e15 --cache "$CACHE_DIR/memo" > /dev/null)
for r in cold warm; do
  grep -o '"counters": {[^}]*}' "$CACHE_DIR/$r/BENCH_e15_value_atlas.json" \
    > "$CACHE_DIR/$r.counters"
done
diff "$CACHE_DIR/cold.counters" "$CACHE_DIR/warm.counters"
grep -q '"cache.misses": [1-9]' "$CACHE_DIR/cold/BENCH_e15_value_atlas.json" \
  || { echo "cold run never missed the cache — the gate is not exercising it"; exit 1; }
if grep -q '"cache.misses": [1-9]' "$CACHE_DIR/warm/BENCH_e15_value_atlas.json"; then
  echo "warm run still missed the cache"; exit 1
fi
WARM_HITS="$(grep -o '"cache.hits": [0-9]*' "$CACHE_DIR/warm/BENCH_e15_value_atlas.json" | grep -o '[0-9]*$')"
[[ "${WARM_HITS:-0}" -gt 0 ]] || { echo "warm run reported no cache hits"; exit 1; }

echo "== exact LP memory bound =="
# K10 at k = 3 has 14,190 defender tuples. The exact LP puts the ten
# vertices on its rows, so its tableau is 10 x 14,201 and the solve fits
# in a 256 MiB address space; one row per tuple needs gigabytes.
K10_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR" "$CACHE_DIR" "$K10_DIR"' EXIT
for u in $(seq 0 9); do
  for v in $(seq $((u + 1)) 9); do
    echo "$u $v"
  done
done > "$K10_DIR/k10.edges"
K10_OUT="$( (ulimit -v 262144; target/release/defender value --graph "$K10_DIR/k10.edges" --k 3) 2>&1 )" \
  || { echo "K10 at k = 3 failed under a 256 MiB address-space limit"; echo "$K10_OUT"; exit 1; }
grep -q '3/5' <<< "$K10_OUT" \
  || { echo "K10 at k = 3 did not report the value 3/5"; echo "$K10_OUT"; exit 1; }

echo "== serve gate =="
# Cold-then-warm load against one server cache directory (DESIGN.md §16).
# The loadgen asserts the warmth contract itself (--expect cold: one
# cache miss per distinct class; --expect warm: every response a hit,
# zero cache.misses delta, zero lp.simplex.pivots delta — a warm server
# does no solver work), and the two sidecars' judged `counters` objects
# must be byte-identical: the judged view is a pure function of the
# served class set, never of warmth or arrival order. The warm server
# loads the sidecar the cold one wrote and rewrites it at shutdown, so the
# two files must be byte-identical too.
SERVE_DIR="$(mktemp -d)"
SERVE_PID=""
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$SMOKE_DIR" "$JOBS_DIR" "$SUITE_DIR" "$SWEEP_DIR" "$CACHE_DIR" "$K10_DIR" "$SERVE_DIR"' EXIT
mkdir "$SERVE_DIR/cold" "$SERVE_DIR/warm"

serve_start() { # serve_start <logfile> <extra flags...>
  local log="$1"; shift
  target/release/defender serve --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 200); do
    grep -q '^listening ' "$log" && break
    sleep 0.05
  done
  SERVE_ADDR="$(grep -m1 '^listening ' "$log" | awk '{print $2}')"
  [[ -n "$SERVE_ADDR" ]] || { echo "server never printed its address"; cat "$log"; exit 1; }
}

serve_start "$SERVE_DIR/cold.log" --cache "$SERVE_DIR/memo"
(cd "$SERVE_DIR/cold" && "$OLDPWD"/target/release/exp_serve_load \
  --addr "$SERVE_ADDR" --expect cold --shutdown > /dev/null)
wait "$SERVE_PID"
cp "$SERVE_DIR/memo/equilibria.json" "$SERVE_DIR/cold.sidecar"

serve_start "$SERVE_DIR/warm.log" --cache "$SERVE_DIR/memo"
(cd "$SERVE_DIR/warm" && "$OLDPWD"/target/release/exp_serve_load \
  --addr "$SERVE_ADDR" --expect warm --shutdown > /dev/null)
wait "$SERVE_PID"
cmp "$SERVE_DIR/cold.sidecar" "$SERVE_DIR/memo/equilibria.json"

for r in cold warm; do
  grep -o '"counters": {[^}]*}' "$SERVE_DIR/$r/BENCH_serve.json" > "$SERVE_DIR/$r.counters"
done
diff "$SERVE_DIR/cold.counters" "$SERVE_DIR/warm.counters"
# Gate the judged counters against the committed baseline: a drift in the
# per-class solve work (pivots, enumerations, kernel fast paths) for the
# fixed seeded load mix is an algorithmic regression.
target/release/defender bench diff \
  baselines/BENCH_serve.json \
  "$SERVE_DIR/cold/BENCH_serve.json"

echo "== serve overload gate =="
# A tiny --max-queue forces the load governor's hand: eight clients
# flooding slow fresh classes (k = 2 paths of 30 to 41 vertices) keep
# more classes solving at once than the watermark of 3 allows, so new
# classes must shed with 429 + Retry-After while an already-warm class
# keeps answering 200 hits (the loadgen asserts all three, and shuts the
# server down even on its failure path).
serve_start "$SERVE_DIR/overload.log" --max-queue 4
target/release/exp_serve_load --addr "$SERVE_ADDR" \
  --overload --clients 8 --requests 32 --shutdown > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "CI OK"
