//! `exp_serve_load` — std-only load generator and correctness probe for
//! `defender serve` (see DESIGN.md §16).
//!
//! Drives a seeded, isomorph-heavy request mix at a running server over
//! keep-alive HTTP/1.1 connections, then writes a `BENCH_serve.json`
//! sidecar whose judged `counters` object is reconstructed from the
//! server's `/v1/metrics` `judged` view — the per-class stored-delta
//! sums that are invariant to cache warmth, request multiplicity, and
//! arrival order. Everything warmth- or traffic-variant (`srv.*`,
//! `cache.*` live values) lands in the run-variant `parallelism`
//! section that `bench diff` never judges.
//!
//! Modes:
//!
//! - default — send `--requests` solves from `--clients` connections,
//!   assert every response is 200, and (with `--expect cold|warm`)
//!   assert the cache-warmth contract: a cold run misses exactly once
//!   per distinct canonical class, a warm run is solve-free (every
//!   response `"cache": "hit"`, zero `cache.misses` delta, zero
//!   `lp.simplex.pivots` delta).
//! - `--overload` — warm one class, flood the server with slow fresh
//!   classes from all clients, and assert the governor sheds at
//!   least one request with 429 + `Retry-After` while the warm class
//!   keeps serving 200 hits.
//! - `--requests 0 --shutdown` — just stop a running server.

use std::io::{ErrorKind, Write};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use defender_bench::RunReport;
use defender_graph::generators;
use defender_graph::graph6::to_graph6;
use defender_graph::Graph;
use defender_obs::json::{self, JsonValue};
use defender_serve::client::{Client, Response};

/// Connect/read timeout for every client connection. Generous: a miss
/// can legitimately wait out a slow solve.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long to poll `/v1/healthz` before declaring the server absent.
const PROBE_TIMEOUT: Duration = Duration::from_secs(30);

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&argv) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: exp_serve_load --addr <HOST:PORT> [--expect cold|warm] \
                 [--clients N] [--requests N] [--seed S] [--overload] [--shutdown]"
            );
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&options) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

/// Writes one summary line to stdout. A closed stdout (`… | head -1`)
/// ends the summary, not the run: the exit code stays the run's verdict.
fn say(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("warning: cannot write to stdout: {e}");
        }
    }
}

/// Parsed command line.
struct Options {
    addr: SocketAddr,
    expect: Option<Warmth>,
    clients: usize,
    requests: usize,
    seed: u64,
    overload: bool,
    shutdown: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Warmth {
    Cold,
    Warm,
}

impl Options {
    fn parse(argv: &[String]) -> Result<Options, String> {
        let mut addr = None;
        let mut expect = None;
        let mut clients = 4usize;
        let mut requests = 48usize;
        let mut seed = 2006u64;
        let mut overload = false;
        let mut shutdown = false;
        let mut iter = argv.iter();
        while let Some(token) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("option `{name}` needs a value"))
            };
            match token.as_str() {
                "--addr" => {
                    let text = value("--addr")?;
                    addr = Some(
                        text.parse()
                            .map_err(|_| format!("bad --addr `{text}` (want HOST:PORT)"))?,
                    );
                }
                "--expect" => {
                    expect = Some(match value("--expect")?.as_str() {
                        "cold" => Warmth::Cold,
                        "warm" => Warmth::Warm,
                        other => return Err(format!("bad --expect `{other}` (cold|warm)")),
                    });
                }
                "--clients" => {
                    let text = value("--clients")?;
                    clients = text
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad --clients `{text}`"))?;
                }
                "--requests" => {
                    let text = value("--requests")?;
                    requests = text
                        .parse()
                        .map_err(|_| format!("bad --requests `{text}`"))?;
                }
                "--seed" => {
                    let text = value("--seed")?;
                    seed = text.parse().map_err(|_| format!("bad --seed `{text}`"))?;
                }
                "--overload" => overload = true,
                "--shutdown" => shutdown = true,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(Options {
            addr: addr.ok_or("option `--addr` is required")?,
            expect,
            clients,
            requests,
            seed,
            overload,
            shutdown,
        })
    }
}

fn run(options: &Options) -> Result<(), String> {
    wait_healthy(options.addr)?;
    let outcome = if options.overload {
        run_overload(options)
    } else if options.requests > 0 {
        run_load(options)
    } else {
        Ok(())
    };
    // Stop the server even when an assertion failed, so a gating script
    // never leaks a background server on the failure path.
    if options.shutdown {
        let stopped = connect(options.addr).and_then(|mut client| {
            let response = client
                .request("POST", "/v1/shutdown", b"")
                .map_err(|e| format!("shutdown request failed: {e}"))?;
            if response.status == 200 {
                Ok(())
            } else {
                Err(format!("shutdown returned {}", response.status))
            }
        });
        match (&outcome, stopped) {
            (_, Ok(())) => say(format_args!(
                "serve-load: server at {} shutting down",
                options.addr
            )),
            (Ok(()), Err(e)) => return Err(e),
            (Err(_), Err(e)) => eprintln!("warning: {e}"),
        }
    }
    outcome
}

/// Escapes `text` for embedding inside a JSON string literal. Graph6
/// uses ASCII 63–126, which includes backslash — never splice a graph6
/// string into a body unescaped.
fn json_str(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Polls `/v1/healthz` until the server answers 200.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + PROBE_TIMEOUT;
    loop {
        if let Ok(mut client) = Client::connect(addr, Duration::from_millis(500)) {
            if let Ok(response) = client.request("GET", "/v1/healthz", b"") {
                if response.status == 200 {
                    return Ok(());
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "server at {addr} not healthy within {PROBE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// A tiny deterministic PRNG (PCG-style LCG constants) so the request
/// mix is a pure function of `--seed`: same seed → same class set →
/// byte-identical judged counters across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }
}

/// The canonical-class pool the load mix draws from: small graphs across
/// every solver route (tree, bipartite, odd cycles, dense). All requests
/// use `k = 1, ν = 1`.
fn class_pool() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle5", generators::cycle(5)),
        ("cycle7", generators::cycle(7)),
        ("path6", generators::path(6)),
        ("star5", generators::star(5)),
        ("k4", generators::complete(4)),
        ("k23", generators::complete_bipartite(2, 3)),
        ("petersen", generators::petersen()),
        ("wheel6", generators::wheel(6)),
        ("ladder4", generators::ladder(4)),
        ("grid33", generators::grid(3, 3)),
    ]
}

/// One pre-generated request: the class it belongs to plus the JSON body
/// (alternating graph6 and permuted-edge-list representations, so a warm
/// cache is exercised through isomorphs, not just string-identical
/// repeats).
struct Planned {
    class: usize,
    body: String,
}

fn plan_requests(seed: u64, count: usize) -> (Vec<Planned>, usize) {
    let pool = class_pool();
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut planned = Vec::with_capacity(count);
    let mut used = vec![false; pool.len()];
    for i in 0..count {
        let class = rng.below(pool.len());
        used[class] = true;
        let graph = &pool[class].1;
        let body = if i % 2 == 0 {
            format!(
                r#"{{"graph6": "{}", "k": 1, "nu": 1}}"#,
                json_str(&to_graph6(graph))
            )
        } else {
            edge_list_body(graph, &mut rng)
        };
        planned.push(Planned { class, body });
    }
    let distinct = used.iter().filter(|&&u| u).count();
    (planned, distinct)
}

/// Renders `graph` as an `"edges"` request under a seeded vertex
/// relabeling — an isomorph of the pooled class, never the same literal
/// bytes twice.
fn edge_list_body(graph: &Graph, rng: &mut Lcg) -> String {
    let n = graph.vertex_count();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        perm.swap(i, j);
    }
    let mut edges = String::new();
    for (i, e) in graph.edges().enumerate() {
        if i > 0 {
            edges.push_str(", ");
        }
        let ends = graph.endpoints(e);
        edges.push_str(&format!(
            "[{}, {}]",
            perm[ends.u().index()],
            perm[ends.v().index()]
        ));
    }
    format!(r#"{{"edges": [{edges}], "n": {n}, "k": 1, "nu": 1}}"#)
}

/// Outcome of one served request, as seen by a client thread.
struct Sample {
    class: usize,
    status: u16,
    cache: String,
}

fn run_load(options: &Options) -> Result<(), String> {
    let (planned, distinct) = plan_requests(options.seed, options.requests);
    let before = fetch_metrics(options.addr)?;
    let samples = Mutex::new(Vec::with_capacity(planned.len()));
    let errors = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..options.clients {
            let planned = &planned;
            let samples = &samples;
            let errors = &errors;
            scope.spawn(move || {
                let mut client = match connect(options.addr) {
                    Ok(client) => client,
                    Err(e) => {
                        errors
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(e);
                        return;
                    }
                };
                for request in planned.iter().skip(worker).step_by(options.clients) {
                    match client.solve(&request.body) {
                        Ok(response) => {
                            let cache = cache_field(&response);
                            samples
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(Sample {
                                    class: request.class,
                                    status: response.status,
                                    cache,
                                });
                        }
                        Err(e) => errors
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(format!("client {worker}: {e}")),
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let errors = errors
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(first) = errors.first() {
        return Err(format!("{} transport errors, first: {first}", errors.len()));
    }
    let samples = samples
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if samples.len() != planned.len() {
        return Err(format!(
            "sent {} requests but recorded {} responses",
            planned.len(),
            samples.len()
        ));
    }
    for sample in &samples {
        if sample.status != 200 {
            return Err(format!(
                "request for class {} answered {}",
                sample.class, sample.status
            ));
        }
    }
    let after = fetch_metrics(options.addr)?;
    check_warmth(options, &samples, distinct, &before, &after)?;
    write_sidecar(&after, distinct, elapsed)?;
    let hits = samples.iter().filter(|s| s.cache == "hit").count();
    let misses = samples.iter().filter(|s| s.cache == "miss").count();
    let coalesced = samples.iter().filter(|s| s.cache == "coalesced").count();
    say(format_args!(
        "serve-load: {} requests over {} clients in {:?} — {} hit, {} miss, {} coalesced, {} classes",
        samples.len(),
        options.clients,
        elapsed,
        hits,
        misses,
        coalesced,
        distinct
    ));
    Ok(())
}

fn cache_field(response: &Response) -> String {
    json::parse(&response.text())
        .ok()
        .and_then(|doc| doc.get("cache").and_then(|v| v.as_str().map(str::to_owned)))
        .unwrap_or_default()
}

/// Asserts the `--expect cold|warm` warmth contract against the
/// per-response cache labels and the live snapshot deltas.
fn check_warmth(
    options: &Options,
    samples: &[Sample],
    distinct: usize,
    before: &JsonValue,
    after: &JsonValue,
) -> Result<(), String> {
    let delta = |name: &str| snapshot_counter(after, name) - snapshot_counter(before, name);
    match options.expect {
        None => Ok(()),
        Some(Warmth::Cold) => {
            let misses = delta("cache.misses");
            if misses != distinct as u64 {
                return Err(format!(
                    "cold run: expected exactly {distinct} cache misses (one per class), saw {misses}"
                ));
            }
            Ok(())
        }
        Some(Warmth::Warm) => {
            if let Some(sample) = samples.iter().find(|s| s.cache != "hit") {
                return Err(format!(
                    "warm run: class {} answered \"{}\", want every response \"hit\"",
                    sample.class, sample.cache
                ));
            }
            let misses = delta("cache.misses");
            if misses != 0 {
                return Err(format!("warm run: {misses} cache misses, want zero"));
            }
            let pivots = delta("lp.simplex.pivots");
            if pivots != 0 {
                return Err(format!(
                    "warm run: lp.simplex.pivots grew by {pivots}, want a solve-free run"
                ));
            }
            Ok(())
        }
    }
}

/// GETs `/v1/metrics` and parses the JSON document.
fn fetch_metrics(addr: SocketAddr) -> Result<JsonValue, String> {
    let mut client = connect(addr)?;
    let response = client
        .request("GET", "/v1/metrics", b"")
        .map_err(|e| format!("metrics request failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("metrics returned {}", response.status));
    }
    json::parse(&response.text()).map_err(|e| format!("unparseable metrics body: {e}"))
}

/// Reads one live counter out of the metrics document's `snapshot`
/// section; absent counters read as zero.
fn snapshot_counter(metrics: &JsonValue, name: &str) -> u64 {
    metrics
        .get("snapshot")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// Writes `BENCH_serve.json`: judged counters from the server's
/// stored-delta view (warmth/jobs/order-invariant), live `srv.*` and
/// `cache.*` state into the run-variant section.
fn write_sidecar(metrics: &JsonValue, distinct: usize, elapsed: Duration) -> Result<(), String> {
    let mut report = RunReport::new("serve");
    report.phase("load", elapsed);
    let judged = metrics
        .get("judged")
        .and_then(JsonValue::as_object)
        .ok_or("metrics body lacks a judged object")?;
    for (name, value) in judged {
        let value = value
            .as_u64()
            .ok_or_else(|| format!("judged counter {name} is not a u64"))?;
        report.counter(name, value);
    }
    report.counter("serve.classes", distinct as u64);
    if let Some(counters) = metrics
        .get("snapshot")
        .and_then(|s| s.get("counters"))
        .and_then(JsonValue::as_object)
    {
        for (name, value) in counters {
            if name.starts_with("srv.") || name.starts_with("cache.") {
                if let Some(value) = value.as_u64() {
                    report.parallelism(name, value);
                }
            }
        }
    }
    let path = report
        .write_sidecar()
        .map_err(|e| format!("cannot write sidecar: {e}"))?;
    say(format_args!("wrote {}", path.display()));
    Ok(())
}

/// `--overload`: point this at a server started with a tiny
/// `--max-queue`. Warms one class, floods slow fresh classes from every
/// client, and asserts the load governor sheds with 429 + `Retry-After`
/// while the warm class stays servable.
fn run_overload(options: &Options) -> Result<(), String> {
    let warm_body = format!(
        r#"{{"graph6": "{}", "k": 1, "nu": 1}}"#,
        json_str(&to_graph6(&generators::cycle(5)))
    );
    let mut probe = connect(options.addr)?;
    let first = probe
        .solve(&warm_body)
        .map_err(|e| format!("warmup solve failed: {e}"))?;
    if first.status != 200 {
        return Err(format!("warmup solve answered {}", first.status));
    }
    let second = probe
        .solve(&warm_body)
        .map_err(|e| format!("warmup re-probe failed: {e}"))?;
    if second.status != 200 || cache_field(&second) != "hit" {
        return Err(format!(
            "warm class not cached before the flood (status {}, cache \"{}\")",
            second.status,
            cache_field(&second)
        ));
    }

    let per_client = options.requests.div_ceil(options.clients).max(1);
    let shed = Mutex::new(0usize);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for worker in 0..options.clients {
            let shed = &shed;
            let failures = &failures;
            scope.spawn(move || {
                let mut client = match connect(options.addr) {
                    Ok(client) => client,
                    Err(e) => {
                        failures
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(e);
                        return;
                    }
                };
                for j in 0..per_client {
                    // Paths P30..P41 at k = 2 take tens to hundreds of
                    // milliseconds each, so the clients' concurrent
                    // misses keep more classes solving than the
                    // watermark allows.
                    let n = 30 + (j * options.clients + worker) % 12;
                    let body = format!(
                        r#"{{"graph6": "{}", "k": 2, "nu": 1}}"#,
                        json_str(&to_graph6(&generators::path(n)))
                    );
                    match client.solve(&body) {
                        Ok(response) if response.status == 429 => {
                            if response.retry_after.is_none() {
                                failures
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .push("429 without Retry-After".to_string());
                            }
                            *shed
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
                        }
                        Ok(response) if response.status == 200 => {}
                        Ok(response) => failures
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(format!("flood answered {}", response.status)),
                        Err(e) => failures
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(format!("flood client {worker}: {e}")),
                    }
                }
            });
        }
    });
    let failures = failures
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(first) = failures.first() {
        return Err(format!("{} flood failures, first: {first}", failures.len()));
    }
    let shed = shed
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if shed == 0 {
        return Err("flood finished without a single 429 — governor never shed".to_string());
    }

    let after = probe
        .solve(&warm_body)
        .map_err(|e| format!("post-flood warm probe failed: {e}"))?;
    if after.status != 200 || cache_field(&after) != "hit" {
        return Err(format!(
            "warm class degraded under flood (status {}, cache \"{}\")",
            after.status,
            cache_field(&after)
        ));
    }
    say(format_args!(
        "serve-load: overload probe shed {shed} of {} flood requests with 429 + Retry-After; warm class stayed a 200 hit",
        options.clients * per_client
    ));
    Ok(())
}
