//! `defender-serve`: cache-first equilibrium serving over a std-only
//! HTTP front.
//!
//! This crate turns the batch solver into an always-on service. The
//! front is a hand-rolled HTTP/1.1 listener ([`http`]) with one thread
//! per connection; the engine behind it ([`solver`]) is cache-first —
//! every request canonicalizes its graph and probes the
//! [`defender_cache`] memo, so isomorphic re-queries are answered in
//! O(canonical form) without touching the LP — with in-flight
//! coalescing (one solve fans out to all concurrent waiters of a class),
//! and a miss is solved by the request that found it, on a scoped thread
//! it joins.
//! Overload sheds with `429 + Retry-After` instead of queueing
//! unboundedly, and a request whose handling panics costs only itself a
//! typed 500.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/solve` | graph6 or edge list + `(k, ν)` → equilibrium |
//! | `GET /v1/metrics` | obs snapshot + judged counters |
//! | `GET /v1/healthz` | liveness, cached classes, open connections |
//! | `POST /v1/shutdown` | graceful stop (flushes the cache sidecar) |
//!
//! # Telemetry
//!
//! The request path ticks `srv.*` counters (requests, hits, misses,
//! coalesced, shed, panics, ...), an in-flight-classes gauge, and a
//! latency histogram, and wraps each request in a `span!` lane, so
//! `defender profile` and the bench gate cover serving like any
//! experiment. Live counters are warm-variant by
//! design; the warmth-invariant judged view is exposed as the
//! `judged` object of `GET /v1/metrics` (see [`solver`] docs).

#![warn(missing_docs, missing_debug_implementations)]
// Workspace invariants (DESIGN.md §12): exactness, panic, cast.
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

pub mod api;
pub mod client;
pub mod http;
pub mod solver;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use defender_cache::EquilibriumCache;
use defender_core::best_response::{attacker_best_response, defender_best_response_auto};
use defender_core::bipartite::a_tuple_bipartite_report;
use defender_core::pure::pure_ne_existence;
use defender_core::tree::a_tuple_tree_report;
use defender_graph::properties;
use defender_obs as obs;
use defender_obs::json::JsonObject;

use crate::api::{parse_solve_request, render_error, render_solve_response, SolveOutcome};
use crate::http::{HttpError, ReadOutcome, RequestReader};
use crate::solver::{request_game, Solver, SolverConfig, TUPLE_LIMIT};

/// How long a connection may sit idle between requests before its
/// thread lets it go.
const IDLE_TIMEOUT: Duration = Duration::from_secs(15);

/// Server tunables; every knob but `flush_interval` has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Cache directory for the persisted sidecar (in-memory when absent).
    pub cache_dir: Option<PathBuf>,
    /// Bound on classes solving at once; sheds past ¾ of this.
    pub max_queue: usize,
    /// Request body bound in bytes (413 beyond it).
    pub max_body: usize,
    /// Largest instance (vertices) the server will solve.
    pub max_vertices: usize,
    /// Concurrent-connection bound (503 beyond it).
    pub max_connections: usize,
    /// How often the dirty cache sidecar is flushed.
    pub flush_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_dir: None,
            max_queue: 64,
            max_body: 64 * 1024,
            max_vertices: 64,
            max_connections: 64,
            flush_interval: Duration::from_secs(2),
        }
    }
}

/// State shared by the accept loop, connection handlers, and the flusher.
struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    cache: Arc<EquilibriumCache>,
    solver: Arc<Solver>,
    stop: AtomicBool,
    connections: AtomicUsize,
}

/// A running server; keep it to stop it.
pub struct Server {
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr())
            .finish()
    }
}

impl Server {
    /// Binds, starts the solve engine and accept/flusher threads, and
    /// returns without blocking.
    ///
    /// # Errors
    ///
    /// Bind failures and cache-open failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        obs::enable();
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => EquilibriumCache::open(dir)?,
            None => EquilibriumCache::in_memory(),
        });
        let solver = Solver::start(
            Arc::clone(&cache),
            SolverConfig {
                max_queue: config.max_queue,
            },
        );
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            config,
            addr,
            cache,
            solver,
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("srv-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        let flush_shared = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("srv-flush".to_owned())
            .spawn(move || flush_loop(&flush_shared))?;

        Ok(Server {
            shared,
            accept: Mutex::new(Some(accept)),
            flusher: Mutex::new(Some(flusher)),
        })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the server stops (via [`Server::shutdown`] or a
    /// `POST /v1/shutdown`) and every class being solved has settled,
    /// then flushes the cache sidecar.
    pub fn wait(&self) {
        let accept = self.lock_thread(&self.accept);
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let flusher = self.lock_thread(&self.flusher);
        if let Some(handle) = flusher {
            let _ = handle.join();
        }
        self.shared.solver.shutdown();
        // Final unconditional flush: batched flushing must never lose
        // the tail of the store at exit.
        let _ = self.shared.cache.persist();
    }

    /// Requests a stop and unblocks the accept loop.
    pub fn shutdown(&self) {
        request_stop(&self.shared);
    }

    fn lock_thread(&self, slot: &Mutex<Option<JoinHandle<()>>>) -> Option<JoinHandle<()>> {
        slot.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Sets the stop flag and pokes the accept loop awake with a throwaway
/// connection (std has no listener interruption).
fn request_stop(shared: &Shared) {
    if shared.stop.swap(true, Ordering::AcqRel) {
        return;
    }
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let active = shared.connections.fetch_add(1, Ordering::AcqRel) + 1;
        obs::gauge!("srv.connections").set(active as u64);
        if active > shared.config.max_connections {
            let err = HttpError {
                status: 503,
                kind: "Overloaded",
                message: format!("connection limit {} reached", shared.config.max_connections),
            };
            let mut stream = stream;
            let _ =
                http::write_response(&mut stream, err.status, &render_error(&err), false, Some(1));
            release_connection(shared);
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("srv-conn".to_owned())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                release_connection(&conn_shared);
            });
        if spawned.is_err() {
            release_connection(shared);
        }
    }
}

fn release_connection(shared: &Shared) {
    let active = shared.connections.fetch_sub(1, Ordering::AcqRel) - 1;
    obs::gauge!("srv.connections").set(active as u64);
}

/// Flushes the dirty sidecar on an interval until stop, then once more.
/// Sleeps in 100 ms steps so shutdown stays prompt under long intervals.
fn flush_loop(shared: &Shared) {
    'outer: loop {
        let mut slept = Duration::ZERO;
        while slept < shared.config.flush_interval {
            if shared.stop.load(Ordering::Acquire) {
                break 'outer;
            }
            let step = Duration::from_millis(100).min(shared.config.flush_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let _ = shared.cache.flush_if_dirty();
    }
    let _ = shared.cache.flush_if_dirty();
}

/// Serves one connection: strict incremental parsing, pipelining, and a
/// close on the first unframeable request. A peer disconnecting
/// mid-response surfaces as a write error and simply ends the loop, and
/// a request whose handling panics answers a typed 500 and closes only
/// this connection.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    // A reply larger than one segment must not wait for the peer's
    // delayed ACK before its last segment leaves.
    let _ = stream.set_nodelay(true);
    let mut reader = RequestReader::new(shared.config.max_body);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match reader.next_request(&mut stream) {
            ReadOutcome::Closed => return,
            ReadOutcome::Error(err) => {
                obs::counter!("srv.errors").incr();
                let _ =
                    http::write_response(&mut stream, err.status, &render_error(&err), false, None);
                return;
            }
            ReadOutcome::Request(request) => {
                let _span = obs::span!("srv.request");
                obs::counter!("srv.requests").incr();
                let t0 = obs::trace::elapsed_ns();
                let ((status, body, retry_after), completed) =
                    catch_panic(|| route(&request, shared));
                let keep_alive = request.keep_alive && completed;
                obs::histogram!("srv.latency_ns")
                    .record(obs::trace::elapsed_ns().saturating_sub(t0));
                if status >= 400 {
                    obs::counter!("srv.errors").incr();
                }
                if http::write_response(&mut stream, status, &body, keep_alive, retry_after)
                    .is_err()
                {
                    return; // peer went away mid-response
                }
                if !keep_alive {
                    return;
                }
                if request.method == "POST" && request.path == "/v1/shutdown" {
                    return;
                }
            }
        }
    }
}

/// One endpoint's answer: status, JSON body, and `Retry-After` seconds.
type Reply = (u16, Vec<u8>, Option<u64>);

/// Runs one request's handler behind an unwind boundary. A panic costs
/// only that request: it answers a typed `500 Internal` and ticks
/// `srv.panics`, and the returned `false` tells the caller to close the
/// connection.
fn catch_panic(handler: impl FnOnce() -> Reply) -> (Reply, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)) {
        Ok(reply) => (reply, true),
        Err(_) => {
            obs::counter!("srv.panics").incr();
            let err = HttpError {
                status: 500,
                kind: "Internal",
                message: "the request handler panicked".to_owned(),
            };
            ((err.status, render_error(&err), None), false)
        }
    }
}

/// Dispatches one parsed request to its endpoint.
fn route(request: &http::Request, shared: &Shared) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/solve") => match solve_endpoint(&request.body, shared) {
            Ok(body) => (200, body, None),
            Err(err) => {
                let retry = (err.status == 429 || err.status == 503).then_some(1);
                (err.status, render_error(&err), retry)
            }
        },
        ("GET", "/v1/metrics") => (200, metrics_endpoint(shared), None),
        ("GET", "/v1/healthz") => (200, healthz_endpoint(shared), None),
        ("POST", "/v1/shutdown") => {
            request_stop(shared);
            (200, b"{\"status\": \"stopping\"}".to_vec(), None)
        }
        (_, "/v1/solve" | "/v1/metrics" | "/v1/healthz" | "/v1/shutdown") => {
            let err = HttpError {
                status: 405,
                kind: "MethodNotAllowed",
                message: format!("{} is not valid for {}", request.method, request.path),
            };
            (err.status, render_error(&err), None)
        }
        (_, path) => {
            let err = HttpError {
                status: 404,
                kind: "NotFound",
                message: format!("no route for {path}"),
            };
            (err.status, render_error(&err), None)
        }
    }
}

fn solve_endpoint(body: &[u8], shared: &Shared) -> Result<Vec<u8>, HttpError> {
    let parsed = parse_solve_request(body, shared.config.max_vertices)?;
    let game = request_game(&parsed.graph, parsed.k, parsed.nu)?;
    let served = shared.solver.solve(&game)?;

    // The paper-side extras are combinatorial (no LP): pure existence
    // (Thm 3.1), the A_tuple construction on forests / bipartite graphs
    // (Alg. 4.12), and both best responses against the equilibrium.
    let pure = pure_ne_existence(&game);
    let a_tuple_report = a_tuple_tree_report(&game)
        .map(|r| ("tree", r))
        .ok()
        .or_else(|| {
            properties::is_bipartite(game.graph())
                .then(|| {
                    a_tuple_bipartite_report(&game)
                        .map(|r| ("bipartite", r))
                        .ok()
                })
                .flatten()
        });
    let attacker_br = attacker_best_response(&game, &served.equilibrium.config);
    let defender_br = defender_best_response_auto(&game, &served.equilibrium.config, TUPLE_LIMIT);

    Ok(render_solve_response(
        &game,
        &SolveOutcome {
            canonical: &served.canonical,
            status: served.status,
            equilibrium: &served.equilibrium,
            pure: &pure,
            a_tuple: a_tuple_report.as_ref().map(|(route, r)| (*route, r)),
            attacker_br,
            defender_br: (&defender_br.0, defender_br.1, defender_br.2),
        },
    ))
}

fn metrics_endpoint(shared: &Shared) -> Vec<u8> {
    let snapshot = obs::snapshot();
    let mut judged = JsonObject::new();
    for (name, v) in shared.solver.judged_counters() {
        judged.field_u64(&name, v);
    }
    let mut doc = JsonObject::new();
    doc.field_raw("snapshot", &snapshot.to_json());
    doc.field_raw("judged", &judged.finish());
    doc.field_u64("served_classes", shared.solver.served_classes() as u64);
    doc.field_u64("cached_classes", shared.cache.len() as u64);
    doc.finish().into_bytes()
}

fn healthz_endpoint(shared: &Shared) -> Vec<u8> {
    let mut doc = JsonObject::new();
    doc.field_str("status", "ok");
    doc.field_u64("cached_classes", shared.cache.len() as u64);
    doc.field_u64(
        "connections",
        shared.connections.load(Ordering::Acquire) as u64,
    );
    doc.finish().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_obs::json::{self, JsonValue};

    #[test]
    fn a_panicking_handler_answers_a_typed_500_and_closes() {
        let (((status, body, retry_after), completed), deltas) =
            obs::captured(|| catch_panic(|| panic!("handler bug")));
        assert_eq!(status, 500);
        assert_eq!(retry_after, None);
        assert!(!completed, "the connection must close");
        let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let kind = doc.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(JsonValue::as_str), Some("Internal"));
        assert_eq!(deltas, vec![("srv.panics".to_owned(), 1)]);
    }
}
