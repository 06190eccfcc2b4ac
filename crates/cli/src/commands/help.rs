//! `defender help [topic]`.

/// Dispatches `help` with an optional topic (`defender help sweep`).
/// Unknown topics fall back to the general usage page.
pub fn run(argv: &[String]) {
    match argv.first().map(String::as_str) {
        Some("sweep") => print_sweep(),
        Some("cache") => print_cache(),
        Some("serve") => print_serve(),
        _ => print(),
    }
}

/// Prints usage for every subcommand.
pub fn print() {
    println!(
        "defender — the Tuple model of 'The Power of the Defender' (ICDCS 2006)

USAGE:
  defender generate --family <name> [params] --out <file>
  defender analyze  --graph <file> --k <K> --nu <NU>
  defender simulate --graph <file> --k <K> --nu <NU> [--rounds <R>] [--seed <S>]
  defender value    --graph <file> --k <K> [--limit <TUPLES>] [--cache <DIR>]
  defender convert  --in <file> --out <file> [--from <fmt>] [--to <fmt>]
  defender bench diff <baseline.json> <current.json>
  defender bench validate-trace <trace.json> [--min-threads 1] [--strict-drops]
  defender profile <trace.json> [--format table|json] [--top N] [--sidecar]
  defender sweep <experiment> --shards <N> [--resume <dir>] [options]   (see `defender help sweep`)
  defender serve --addr <HOST:PORT> [--cache <DIR>] [options]          (see `defender help serve`)
  defender help [sweep|cache|serve]

`generate`, `analyze`, `simulate`, `value` and `convert` also accept
(every command rejects an option it does not read):
  --metrics json|table    run instrumented; dump the counters, gauges and
                          histograms (with p50/p90/p99 estimates) afterwards
  --metrics-out <FILE>    write the metrics JSON to FILE instead of stdout,
                          keeping stdout machine-parseable
  --trace <FILE>          record an event-level timeline and write it as
                          Chrome trace-event JSON (open in Perfetto or
                          chrome://tracing)
  --jobs <N>              worker-pool width for parallel inner loops
                          (default: available parallelism; results are
                          identical for every N)

`bench diff` compares the counters of two BENCH_*.json sidecars (written
by the `exp` experiment binary) and exits with code 2 when any counter
grows more than 20% or goes missing; phase wall times are never judged.
`bench validate-trace --min-threads N` additionally requires the timeline
to span at least N threads; `--strict-drops` exits with code 2 when the
trace dropped events (ring overflow).

`profile` replays a --trace export through defender-profile: span table
with self/total times and call counts, text flamegraph, per-worker
utilization and critical-path estimate. `--sidecar` writes
BENCH_profile_<stem>.json for `bench diff` span-level gating. Exits with
code 2 when the wall-clock accounting invariant is violated (a lane's
root spans sum past the trace duration). The `exp` binary accepts
`--profile` to harvest the same analysis in-process (span table on
stderr, appended to the run sidecar).

`sweep` splits one experiment's instance corpus across worker processes
with checkpoint-resume and a merged sidecar — `defender help sweep` has
the full story.

`value --cache <DIR>` (and `exp <experiment> --cache <DIR>`)
memoizes exact equilibria keyed by the graph's canonical form, so
isomorphic repeats are free — `defender help cache` has the full story.

`serve` answers equilibrium queries over HTTP, cache-first: isomorphic
repeats are served from the memo without touching the LP, a miss is
solved by the request that found it, and overload sheds with 429 +
Retry-After — `defender help serve` has the full story.

FORMATS: edges (default; `u v` per line) and graph6.

GENERATE FAMILIES (params):
  path            --n <N>
  cycle           --n <N>
  star            --leaves <L>
  wheel           --n <RIM>
  complete        --n <N>
  complete-bipartite --a <A> --b <B>
  grid            --rows <R> --cols <C>
  hypercube       --dim <D>
  petersen
  ladder          --n <RUNGS>
  tree            --n <N> [--seed <S>]
  gnp             --n <N> --p <P> [--seed <S>]        (connected variant)
  bipartite       --a <A> --b <B> --p <P> [--seed <S>]

GRAPH FILE FORMAT:
  one `u v` edge per line; `#` comments; optional `n <count>` header.

EXAMPLES:
  defender generate --family cycle --n 12 --out ring.edges
  defender analyze --graph ring.edges --k 2 --nu 6
  defender simulate --graph ring.edges --k 2 --nu 6 --rounds 100000"
    );
}

/// Prints the `defender help sweep` topic page.
fn print_sweep() {
    let windowed = defender_bench::shard::WINDOWED.join(", ");
    println!(
        "defender sweep — sharded experiment sweeps across worker processes

USAGE:
  defender sweep <experiment> --shards <N> [options]

  <experiment>            an experiment that windows its corpus: {windowed}

OPTIONS:
  --shards <N>            split the instance corpus into N contiguous
                          windows, one worker process each (required)
  --out <dir>             sweep directory for checkpoints and the merged
                          sidecar (default: sweep_<experiment>)
  --resume <dir>          resume a killed sweep: shards with a sealed
                          checkpoint (DONE marker + valid sidecar) are
                          skipped, the rest re-run; implies --out <dir>
  --parallel <M>          at most M workers at once (default: all shards)
  --jobs <J>              forwarded to each worker's --jobs
  --profile               forward --profile to each worker (in-process
                          span analysis appended to shard sidecars)
  --bin-dir <dir>         directory holding the `exp` worker binary
                          (default: next to the defender executable)

HOW IT WORKS:
  The runner runs `exp <experiment> --shard i/N` once per shard, at
  most --parallel at a time, and waits for each worker to exit. Each
  worker computes only its corpus window; its stdout lands in
  <out>/shard_<i>/console.log and its stderr in stderr.log. The runner
  then merges the per-shard BENCH_*.json sidecars into
  <out>/BENCH_<experiment>.json. The merged `counters` object is
  byte-identical for every --shards width — CI diffs it against the
  single-process run.

CHECKPOINTS:
  Each finished shard seals <out>/shard_<i>/ with a DONE marker; a
  killed sweep resumes with --resume and produces byte-identical merged
  counters. Exit code 3 means the sweep stopped before every shard
  finished (resume it); failed shards exit 1 with their stderr paths.

EXAMPLES:
  defender sweep e1 --shards 4
  defender sweep e15 --shards 8 --parallel 2 --jobs 4
  defender sweep e15 --shards 8 --resume sweep_e15"
    );
}

/// Prints the `defender help serve` topic page.
fn print_serve() {
    println!(
        "defender serve — cache-first equilibrium serving over HTTP

USAGE:
  defender serve --addr <HOST:PORT> [options]

  Prints one `listening <addr>` line once the socket is bound
  (`--addr 127.0.0.1:0` picks an ephemeral port), then blocks until a
  client POSTs /v1/shutdown.

OPTIONS:
  --addr <HOST:PORT>      bind address (required)
  --cache <DIR>           persistent equilibrium memo (see `defender
                          help cache`); in-memory when absent
  --max-queue <Q>         bound on classes solving at once; a new class
                          sheds with 429 past the ¾ watermark
                          (default: 64)
  --max-body <BYTES>      request body bound, 413 beyond it
                          (default: 65536)
  --max-vertices <V>      largest instance the server will solve,
                          422 beyond it (default: 64)
  --max-connections <C>   concurrent-connection bound, 503 beyond it
                          (default: 64)

ENDPOINTS:
  POST /v1/solve     body {{\"graph6\": ..., \"k\": K, \"nu\": NU}} or
                     {{\"edges\": [[u,v], ...], \"n\": N, \"k\": K, \"nu\": NU}};
                     answers the exact mixed NE, pure-NE existence, the
                     A-tuple route when it applies, both best responses,
                     and a \"cache\" field (hit | miss | coalesced)
  GET  /v1/metrics   live obs snapshot + the judged (warmth-invariant)
                     counter view reconstructed from stored per-class
                     deltas over the served classes
  GET  /v1/healthz   liveness: status, cached classes, connections
  POST /v1/shutdown  graceful stop (drains, flushes the cache sidecar)

HOW IT WORKS:
  Every request is canonicalized and probed against the equilibrium
  cache first: isomorphic repeats are pure lookups (no LP, no replay —
  a warm server shows zero live lp.* activity). Concurrent requests for
  the same canonical class coalesce onto one in-flight solve, which the
  first of them runs on a thread of its own, so a slow class holds up
  only its own requests. Past the watermark of classes solving
  at once, a new class sheds immediately with 429 + Retry-After rather
  than queueing without bound. Errors are typed JSON
  ({{\"error\": {{\"kind\", \"message\"}}}}) with the graph6 decode kinds
  surfaced verbatim (TrailingData, NonzeroPadding, ...); nu must lie in
  1..=1000, and a request whose handling panics answers a 500 Internal
  while the server keeps serving.

  The exp_serve_load generator drives a seeded isomorph-heavy mix at a
  running server and writes BENCH_serve.json whose judged counters are
  byte-identical cold vs warm — EXPERIMENTS.md documents the schema.

EXAMPLES:
  defender serve --addr 127.0.0.1:8080 --cache ./memo
  exp_serve_load --addr 127.0.0.1:8080 --expect cold --shutdown"
    );
}

/// Prints the `defender help cache` topic page.
fn print_cache() {
    println!(
        "defender cache — equilibrium memoization keyed by canonical graph form

USAGE:
  defender value --graph <file> --k <K> --cache <DIR>
  exp <experiment> --cache <DIR>           (e.g. exp e15; any experiment)

WHAT IT DOES:
  Every exact LP solve is keyed by (canonical graph6, k, nu): the
  instance is reduced to a canonical labeling (iterative color
  refinement with individualization, exact at solved sizes), the
  canonical representative is solved once, and every isomorphic
  instance thereafter — relabeled copies included — reuses the stored
  equilibrium, mapped back through the inverse permutation. On a miss,
  equilibrium supports found by early-exit enumeration warm-start the
  LP at its optimal basis, so even first-time solves pivot less.

THE SIDECAR:
  <DIR>/equilibria.json, written at the end of the run:
    {{\"format\": \"defender-cache/v1\", \"entries\": [
      {{\"graph6\": ..., \"k\": K, \"nu\": NU, \"value\": \"p/q\",
       \"attacker\": [{{\"vertex\": v, \"p\": \"p/q\"}}, ...],
       \"defender\": [{{\"edges\": [[u,v], ...], \"p\": \"p/q\"}}, ...],
       \"counters\": [{{\"name\": ..., \"delta\": N}}, ...]}}, ...]}}
  Rationals are exact \"p/q\" strings; reloading round-trips them
  bit-for-bit. Entries loaded from disk are UNTRUSTED: on first use
  each is re-proved by the exact Nash verifier on its canonical game;
  a stale or hand-edited entry is recomputed, never served. A sidecar
  whose shape is off (a missing field, a tuple with other than K edges)
  fails to load.

TELEMETRY:
  Counter determinism survives caching by delta replay: the canonical
  solve's counter ticks are captured into the entry and replayed on
  every lookup (hit or miss), so the sidecar's jobs-invariant counters
  are byte-identical no matter how warm the cache is. The capture runs
  whether or not --metrics is on, so a memo filled by an uninstrumented
  run replays the same deltas. The cache's own
  run-variant state — cache.hits, cache.misses, cache.canon_ns — lands
  in the sidecar's parallelism section, which `bench diff` never judges.

EXAMPLES:
  defender value --graph ring.edges --k 2 --cache ./memo
  exp e15 --cache ./memo                 # first run fills the memo
  exp e15 --cache ./memo                 # second run: cache.misses = 0"
    );
}
